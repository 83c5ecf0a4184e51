//! The unary kernel against the naive tree walk, one constraint at a time.
//!
//! The kernel applies a unary constraint a slot at a time: the slot class,
//! then one lane pass over the alive values it leaves undecided
//! (`KernelProgram::unary_lanes`). After *each* unary constraint both
//! strategies must hold the same alive sets and the same `unary_checks`
//! and `removals`. The corpus: English n = 3–16 plus a scrambled twin each
//! (from n = 9 a governor domain spans two words), lexically ambiguous
//! sentences of the extended English grammar, the paper's example, aⁿbⁿ
//! and brackets — each also thinned to at most three alive lanes per word,
//! which the lane evaluator runs through the scalar bytecode lane by lane.

use cdg_core::network::{EvalStrategy, Network};
use cdg_core::propagate::apply_unary;
use cdg_grammar::grammars::{formal, paper};
use cdg_grammar::{Grammar, Sentence};

/// Lanes (bit positions within a word) a thinned slot keeps alive.
const THIN: [usize; 3] = [1, 17, 40];

/// Kill every alive value whose bit within its word is not in [`THIN`].
fn thin(net: &mut Network<'_>) {
    for k in 0..net.num_slots() {
        let doomed: Vec<usize> = net
            .slot(k)
            .alive
            .iter_ones()
            .filter(|idx| !THIN.contains(&(idx % 64)))
            .collect();
        for idx in doomed {
            net.clear_alive(k, idx);
        }
    }
}

/// Apply every unary constraint under both strategies, comparing after
/// each. With `arcs_first` the arcs exist during unary propagation (the
/// MasPar order), so removals also zero arc rows and columns. Returns
/// (values removed, values decided by slot classes, unary checks).
fn check(
    g: &Grammar,
    s: &Sentence,
    thinned: bool,
    arcs_first: bool,
    label: &str,
) -> (usize, usize, usize) {
    let build = |eval| {
        let mut net = Network::build(g, s);
        net.eval = eval;
        if thinned {
            thin(&mut net);
        }
        if arcs_first {
            net.init_arcs();
        }
        net
    };
    let (mut nk, mut nn) = (build(EvalStrategy::Kernel), build(EvalStrategy::Naive));
    let mut removed = 0;
    for c in g.unary_constraints() {
        let rk = apply_unary(&mut nk, c);
        let rn = apply_unary(&mut nn, c);
        let at = || format!("{label} (`{s}`) after `{}`", c.name);
        assert_eq!(rk, rn, "removed counts diverge: {}", at());
        assert_eq!(
            nk.stats.unary_checks,
            nn.stats.unary_checks,
            "unary_checks: {}",
            at()
        );
        assert_eq!(nk.stats.removals, nn.stats.removals, "removals: {}", at());
        for (k, (a, b)) in nk.slots().iter().zip(nn.slots()).enumerate() {
            assert_eq!(a.alive, b.alive, "slot {k} alive set: {}", at());
        }
        if arcs_first {
            assert_eq!(nk.stats.entries_zeroed, nn.stats.entries_zeroed, "{}", at());
            assert_eq!(nk.logical_arcs(), nn.logical_arcs(), "arcs: {}", at());
        }
        removed += rk;
    }
    (removed, nk.stats.kernel_memo_hits, nk.stats.unary_checks)
}

/// Every variant of one sentence; returns the full run's totals.
fn check_all(g: &Grammar, s: &Sentence, label: &str) -> (usize, usize, usize) {
    let full = check(g, s, false, false, label);
    check(g, s, false, true, &format!("{label}, arcs first"));
    let (_, decided, checks) = check(g, s, true, false, &format!("{label}, thinned"));
    assert!(decided <= checks);
    full
}

#[test]
fn unary_kernel_matches_naive_after_every_constraint() {
    let (eng, lex) = corpus::standard_setup();
    let mut totals = (0, 0, 0);
    let mut add = |(r, d, c): (usize, usize, usize)| {
        totals.0 += r;
        totals.1 += d;
        totals.2 += c;
    };
    for n in 3..=16usize {
        let s = corpus::english_sentence(&eng, &lex, n, n as u64);
        let bad = corpus::scrambled(&lex, &s, n as u64 * 31);
        add(check_all(&eng, &s, &format!("english-{n}")));
        add(check_all(&eng, &bad, &format!("scrambled-{n}")));
    }
    let (aux, lex) = corpus::extended_setup();
    for n in 4..=12usize {
        let s = (n as u64..)
            .map(|seed| corpus::english_aux_sentence(&aux, &lex, n, seed))
            .find(|s| s.has_lexical_ambiguity())
            .expect("the extended lexicon has ambiguous base forms");
        let bad = corpus::scrambled(&lex, &s, n as u64 * 17);
        add(check_all(&aux, &s, &format!("aux-{n}")));
        add(check_all(&aux, &bad, &format!("aux-scrambled-{n}")));
    }
    let g = paper::grammar();
    add(check_all(&g, &paper::example_sentence(&g), "paper"));
    let anbn = formal::anbn_grammar();
    let brackets = formal::brackets_grammar();
    for n in [6usize, 24, 48] {
        let s = formal::anbn_sentence(&anbn, &corpus::formal::anbn(n / 2));
        add(check_all(&anbn, &s, &format!("anbn-{n}")));
        let s = formal::brackets_sentence(&brackets, &corpus::formal::nested_brackets(n / 2));
        add(check_all(&brackets, &s, &format!("brackets-{n}")));
    }
    let (removed, decided, checks) = totals;
    // Teeth: the corpus removes values, and both slot classes and lane
    // passes decide some of them.
    assert!(removed > 0, "no unary constraint removed anything");
    assert!(decided > 0, "no slot class decided a value");
    assert!(decided < checks, "no slot needed a lane pass");
}

#[test]
fn thinned_slots_run_lane_passes() {
    // A thinned English sentence still has slots whose class is
    // `Unknown`, so the sparse (scalar, lane by lane) path really runs.
    let (eng, lex) = corpus::standard_setup();
    let s = corpus::english_sentence(&eng, &lex, 12, 12);
    let (_, decided, checks) = check(&eng, &s, true, false, "english-12, thinned");
    assert!(decided < checks, "every thinned value was class-decided");
}
