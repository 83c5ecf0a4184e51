//! Differential suite, two axes:
//!
//! * **Evaluator**: the compiled lane-pass kernel engine
//!   (`EvalStrategy::Kernel`, the default) against the naive tree-walk
//!   interpreter (`EvalStrategy::Naive`, the oracle).
//! * **Filter**: the two consistency-maintenance implementations
//!   (`FilterStrategy::Naive` full rescans, `FilterStrategy::Auto`
//!   counter-free incremental generations) — identical accept/reject
//!   verdicts, identical surviving networks, identical removal totals,
//!   identical pass counts, and identical output digests.
//!
//! All of it over the 64 differential seeds established by the
//! fault-injection suite and every bundled grammar (built-in English /
//! extended English / formal languages, plus `grammars/paper.cdg` loaded
//! from disk).

use cdg_core::parser::{parse, FilterMode, ParseOptions};
use cdg_core::{EvalStrategy, FilterStrategy, ParseOutcome};
use cdg_grammar::grammars::{formal, paper};
use cdg_grammar::{Grammar, Sentence};

/// The differential seed count shared with the determinism and
/// fault-injection suites.
const SEEDS: u64 = 64;

/// Filter pass budget shared by every cell of the differential.
const PASSES: usize = 32;

fn options(eval: EvalStrategy) -> ParseOptions {
    // Bounded filtering keeps both evaluators on the same pass budget;
    // 32 passes reaches the fixpoint on everything these sizes generate
    // (a one-short aⁿbⁿ string of 23 symbols takes 15).
    ParseOptions {
        filter: FilterMode::Bounded(PASSES),
        eval,
        ..Default::default()
    }
}

fn filter_options(strategy: FilterStrategy) -> ParseOptions {
    ParseOptions {
        filter: FilterMode::Bounded(PASSES),
        filter_strategy: strategy,
        ..Default::default()
    }
}

/// FNV-1a, the digest used by the BENCH schema (`bench::report::fnv1a`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The BENCH-schema digest of a settled parse: every slot's alive set,
/// formatted exactly as `bench_json` digests its rows.
fn digest(outcome: &ParseOutcome<'_>) -> u64 {
    let mut buf = String::new();
    for slot in outcome.network.slots() {
        buf.push_str(&format!("{:?};", slot.alive_indices()));
    }
    fnv1a(buf.as_bytes())
}

/// Assert `got` is bit-identical to `want` in everything a caller can
/// observe: verdicts, alive sets, removal totals, pass counts, parse
/// sets, digests.
fn assert_outcomes_match(
    got: &ParseOutcome<'_>,
    want: &ParseOutcome<'_>,
    label: &str,
    sentence: &Sentence,
) {
    assert_eq!(
        got.roles_nonempty, want.roles_nonempty,
        "{label}: accept/reject diverged on `{sentence}`"
    );
    assert_eq!(
        got.accepted(),
        want.accepted(),
        "{label}: acceptance diverged on `{sentence}`"
    );
    assert_eq!(
        got.filter_passes, want.filter_passes,
        "{label}: filter pass counts diverged on `{sentence}`"
    );
    for (k, n) in got.network.slots().iter().zip(want.network.slots()) {
        assert_eq!(
            k.alive, n.alive,
            "{label}: alive sets diverged on `{sentence}` (slot word {} role {:?})",
            k.word, k.role
        );
    }
    assert_eq!(
        got.network.stats.removals, want.network.stats.removals,
        "{label}: removal counts diverged on `{sentence}`"
    );
    assert_eq!(
        got.parses(64),
        want.parses(64),
        "{label}: parse sets diverged on `{sentence}`"
    );
    assert_eq!(
        digest(got),
        digest(want),
        "{label}: output digests diverged on `{sentence}`"
    );
}

/// Run both evaluators and both filter strategies on `sentence` and
/// assert every cell of the matrix is bit-identical to the naive oracle.
fn assert_kernel_matches_naive(grammar: &Grammar, sentence: &Sentence) {
    let kernel = parse(grammar, sentence, options(EvalStrategy::Kernel));
    let naive = parse(grammar, sentence, options(EvalStrategy::Naive));
    assert!(
        kernel.locally_consistent,
        "`{sentence}` needs more than {PASSES} filter passes"
    );
    assert_outcomes_match(&kernel, &naive, "kernel-vs-naive", sentence);

    // The filter axis: full rescans on the default kernel evaluator
    // (the kernel cell above filters incrementally).
    let naive_filter = parse(grammar, sentence, filter_options(FilterStrategy::Naive));
    assert_outcomes_match(&naive_filter, &naive, "filter-naive", sentence);
}

#[test]
fn kernel_matches_naive_on_english_corpus() {
    let (g, lex) = corpus::standard_setup();
    for seed in 0..SEEDS {
        let n = 3 + (seed % 5) as usize;
        let s = corpus::english_sentence(&g, &lex, n, seed);
        assert_kernel_matches_naive(&g, &s);
    }
}

#[test]
fn kernel_matches_naive_on_scrambled_english() {
    // Rejection workload: same vocabulary, shuffled — exercises the
    // zero-row and dead-slot paths of the kernel.
    let (g, lex) = corpus::standard_setup();
    for seed in 0..SEEDS {
        let n = 3 + (seed % 5) as usize;
        let good = corpus::english_sentence(&g, &lex, n, seed);
        let bad = corpus::scrambled(&lex, &good, seed.wrapping_mul(31));
        assert_kernel_matches_naive(&g, &bad);
    }
}

#[test]
fn kernel_matches_naive_on_extended_english() {
    // The q = 3 auxiliary grammar: three roles per word, so arcs mix
    // need/role slots the plain grammar never produces.
    let (g, lex) = corpus::extended_setup();
    for seed in 0..SEEDS {
        let n = 3 + (seed % 5) as usize;
        let s = corpus::english_aux_sentence(&g, &lex, n, seed);
        assert_kernel_matches_naive(&g, &s);
    }
}

#[test]
fn kernel_matches_naive_on_formal_languages() {
    let anbn = formal::anbn_grammar();
    let ww = formal::ww_grammar();
    let brackets = formal::brackets_grammar();
    for seed in 0..SEEDS {
        let n = 1 + (seed % 4) as usize;
        let s = corpus::formal::anbn(n);
        assert_kernel_matches_naive(&anbn, &formal::anbn_sentence(&anbn, &s));
        // Off-by-one rejection strings too.
        let bad = format!("{}b", s);
        assert_kernel_matches_naive(&anbn, &formal::anbn_sentence(&anbn, &bad));
        let w = corpus::formal::ww(n, seed);
        assert_kernel_matches_naive(&ww, &formal::ww_sentence(&ww, &w));
        let b = corpus::formal::nested_brackets(n);
        assert_kernel_matches_naive(&brackets, &formal::brackets_sentence(&brackets, &b));
    }
    // Longer strings, where most rows of the mutuality and nesting
    // constraints are decided by row and column classes alone, plus
    // one-short rejects whose gap moves the filter's removal cascade.
    for n in [16, 24] {
        let s = corpus::formal::anbn(n / 2);
        let b = corpus::formal::nested_brackets(n / 2);
        assert_kernel_matches_naive(&anbn, &formal::anbn_sentence(&anbn, &s));
        assert_kernel_matches_naive(&brackets, &formal::brackets_sentence(&brackets, &b));
        for gap in [0, n / 3, n / 2, n - 1] {
            let (mut s, mut b) = (s.clone(), b.clone());
            s.remove(gap);
            b.remove(gap);
            assert_kernel_matches_naive(&anbn, &formal::anbn_sentence(&anbn, &s));
            assert_kernel_matches_naive(&brackets, &formal::brackets_sentence(&brackets, &b));
        }
    }
}

#[test]
fn kernel_matches_naive_on_grammar_file() {
    // The on-disk grammar (`grammars/paper.cdg`) through the file loader,
    // so the kernel compiler sees constraints exactly as users write them.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("grammars/paper.cdg");
    let (g, lex) = cdg_grammar::file::load_path(&path).expect("bundled grammar loads");
    let texts = [
        "the dog runs", // the paper's det-noun-verb shape
        "a program halts",
        "this parser works",
        "dog the runs", // scrambled variants exercise rejection
        "runs the dog",
        "the dog",
        "sleeps",
        "machine",
    ];
    for text in texts {
        if let Ok(s) = lex.sentence(text) {
            assert_kernel_matches_naive(&g, &s);
        }
    }
    // And the built-in copy of the same grammar with its example sentence.
    let g = paper::grammar();
    let s = paper::example_sentence(&g);
    assert_kernel_matches_naive(&g, &s);
}

#[test]
fn incremental_filter_does_less_support_work() {
    // Acceptance criterion for the incremental filter: the kernel path's
    // support-check counter (one per entry a generation zeroes, touching
    // only disturbed rows and columns) stays strictly below the naive
    // path's per-pass full rescans on the seed grammars whenever
    // filtering has work.
    let (g, lex) = corpus::standard_setup();
    let mut improved = 0usize;
    for seed in 0..SEEDS {
        let n = 3 + (seed % 5) as usize;
        let s = corpus::english_sentence(&g, &lex, n, seed);
        let kernel = parse(&g, &s, options(EvalStrategy::Kernel));
        let naive = parse(&g, &s, options(EvalStrategy::Naive));
        let (k, f) = (
            kernel.network.stats.support_checks,
            naive.network.stats.support_checks,
        );
        if f > 0 {
            assert!(
                k < f,
                "seed {seed} (`{s}`): incremental support checks {k} not below full-scan {f}"
            );
            improved += 1;
        }
    }
    assert!(
        improved > SEEDS as usize / 2,
        "full-scan filtering did support work on only {improved}/{SEEDS} seeds — \
         the comparison lost its teeth"
    );
}
