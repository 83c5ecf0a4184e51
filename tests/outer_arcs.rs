//! Outer and stored arcs read the same as a pair-by-pair oracle.
//!
//! An arc is stored only from the first write that clears one of its live
//! pairs; until then it stands for the outer product of its endpoints'
//! alive sets and has no matrix. Every reader answers both kinds, so every
//! engine's arcs, read as logical matrices, must equal an oracle written
//! here with the naive tree-walk evaluator: after binary propagation an
//! entry is 1 iff both values are alive, their categories agree when the
//! slots share a word, and every binary constraint (and, on a lexically
//! ambiguous sentence, every unary constraint with witness semantics)
//! passes both orderings of the pair; after filtering it is that entry
//! with both values still alive.
//!
//! The corpus is the golden-counter one (`tests/golden_counters.rs`). The
//! serial, P-RAM (one and two threads) and mesh engines are checked after
//! binary propagation and after filtering, the MasPar readback on the
//! English sentences it runs, and one warm state through a reject and an
//! accept against cold runs. Storage follows the rule: after binary
//! propagation (and in the MasPar readback) an arc is outer exactly when
//! its logical matrix is the outer product, so an arc whose row masks all
//! cover the column slot's alive set stays outer.

use bitmat::{BitMatrix, BitVec};
use cdg_core::api::{Engine, ParseRequest, Sequential, WarmState};
use cdg_core::parser::{parse, FilterMode, ParseOptions};
use cdg_core::propagate::apply_all_unary;
use cdg_core::{EvalStrategy, Network};
use cdg_grammar::grammars::formal;
use cdg_grammar::{Grammar, Sentence};
use cdg_parallel::{MeshCdg, PramStats};
use parsec_maspar::{parse_maspar_checked, MasparOptions};

const FORMAL_LENGTHS: [usize; 8] = [6, 12, 18, 24, 30, 36, 42, 48];

/// `s` with the symbol at `at` removed.
fn one_short(s: &str, at: usize) -> String {
    let mut out = s.to_string();
    out.remove(at);
    out
}

/// Nested brackets of `n` symbols whose kinds alternate with depth.
fn mixed_brackets(n: usize) -> String {
    let opens: String = (0..n / 2)
        .map(|k| if k % 2 == 0 { '(' } else { '[' })
        .collect();
    let closes: String = opens
        .chars()
        .rev()
        .map(|c| if c == '(' { ')' } else { ']' })
        .collect();
    format!("{opens}{closes}")
}

/// The golden-counter corpus, grouped by grammar.
fn corpus() -> Vec<(Grammar, Vec<Sentence>)> {
    let (eng, lex) = corpus::standard_setup();
    let mut english = Vec::new();
    for n in 3..=16usize {
        let s = corpus::english_sentence(&eng, &lex, n, n as u64);
        english.push(corpus::scrambled(&lex, &s, n as u64 * 31));
        english.push(s);
    }
    let anbn = formal::anbn_grammar();
    let brackets = formal::brackets_grammar();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for n in FORMAL_LENGTHS {
        let s = corpus::formal::anbn(n / 2);
        a.push(formal::anbn_sentence(&anbn, &one_short(&s, n / 3)));
        a.push(formal::anbn_sentence(&anbn, &s));
        let nested = corpus::formal::nested_brackets(n / 2);
        b.push(formal::brackets_sentence(&brackets, &nested));
        b.push(formal::brackets_sentence(&brackets, &mixed_brackets(n)));
    }
    let ww = formal::ww_grammar();
    let www = formal::www_grammar();
    let (mut w2, mut w3) = (Vec::new(), Vec::new());
    for n in [6usize, 12, 18, 24] {
        let s = corpus::formal::ww(n / 2, n as u64);
        w2.push(formal::ww_sentence(&ww, &one_short(&s, n / 3)));
        w2.push(formal::ww_sentence(&ww, &s));
    }
    for n in [6usize, 12, 18] {
        let w = corpus::formal::ww(n / 3, n as u64)[..n / 3].to_string();
        let s = format!("{w}{w}{w}");
        w3.push(formal::ww_sentence(&www, &one_short(&s, n / 2)));
        w3.push(formal::ww_sentence(&www, &s));
    }
    let (aux, aux_lex) = corpus::extended_setup();
    let mut ambiguous = Vec::new();
    for n in 4..=12usize {
        let s = (n as u64..)
            .map(|seed| corpus::english_aux_sentence(&aux, &aux_lex, n, seed))
            .find(|s| s.has_lexical_ambiguity())
            .expect("the extended lexicon has ambiguous base forms");
        ambiguous.push(corpus::scrambled(&aux_lex, &s, n as u64 * 17));
        ambiguous.push(s);
    }
    vec![
        (eng, english),
        (anbn, a),
        (brackets, b),
        (ww, w2),
        (www, w3),
        (aux, ambiguous),
    ]
}

/// The oracle after binary propagation: the naive unary phase's alive
/// sets, and per arc (in storage order) every alive pair judged by every
/// constraint on its own.
fn pair_oracle(grammar: &Grammar, sentence: &Sentence) -> (Vec<BitVec>, Vec<BitMatrix>) {
    let mut net = Network::build(grammar, sentence);
    net.eval = EvalStrategy::Naive;
    apply_all_unary(&mut net);
    let pairwise_unary = sentence.has_lexical_ambiguity();
    let slots = net.slots();
    let mut arcs = Vec::new();
    for (i, si) in slots.iter().enumerate() {
        for sj in &slots[i + 1..] {
            let mut m = BitMatrix::zeros(si.domain.len(), sj.domain.len());
            for a in si.alive.iter_ones() {
                for b in sj.alive.iter_ones() {
                    let (x, y) = (si.binding(a), sj.binding(b));
                    let keep = (si.word != sj.word || si.domain[a].cat == sj.domain[b].cat)
                        && grammar.binary_constraints().iter().all(|c| {
                            c.check_binary(sentence, x, y) && c.check_binary(sentence, y, x)
                        })
                        && (!pairwise_unary
                            || grammar.unary_constraints().iter().all(|c| {
                                c.check_unary_with_witness(sentence, x, y)
                                    && c.check_unary_with_witness(sentence, y, x)
                            }));
                    m.set(a, b, keep);
                }
            }
            arcs.push(m);
        }
    }
    (slots.iter().map(|s| s.alive.clone()).collect(), arcs)
}

/// `m` with every pair of `rows × cols` that is not alive cleared.
fn masked(m: &BitMatrix, rows: &BitVec, cols: &BitVec) -> BitMatrix {
    let mut out = BitMatrix::zeros(m.rows(), m.cols());
    for a in rows.iter_ones() {
        for b in cols.iter_ones() {
            out.set(a, b, m.get(a, b));
        }
    }
    out
}

/// The outer product `rows ⊗ cols`.
fn outer(rows: &BitVec, cols: &BitVec) -> BitMatrix {
    masked(&ones(rows.len(), cols.len()), rows, cols)
}

fn ones(rows: usize, cols: usize) -> BitMatrix {
    let mut m = BitMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            m.set(r, c, true);
        }
    }
    m
}

fn alive_sets(net: &Network<'_>) -> Vec<BitVec> {
    net.slots().iter().map(|s| s.alive.clone()).collect()
}

/// Every arc of `net` equals `want` (masked by `net`'s alive sets), and
/// when `exact` an arc is outer iff its logical matrix is the outer
/// product. Returns (outer, stored) arc counts.
fn check_arcs(net: &Network<'_>, want: &[BitMatrix], exact: bool, at: &str) -> (usize, usize) {
    let alive = alive_sets(net);
    let (mut outer_arcs, mut stored) = (0, 0);
    for ((&(i, j, k), view), want) in net.arc_pairs().iter().zip(net.arc_views()).zip(want) {
        let logical = view.to_matrix();
        assert_eq!(
            logical,
            masked(want, &alive[i], &alive[j]),
            "{at}: arc ({i},{j}) differs from the pair oracle"
        );
        if exact {
            assert_eq!(
                view.is_outer(),
                logical == outer(&alive[i], &alive[j]),
                "{at}: arc ({i},{j}) (#{k}) breaks the storage rule"
            );
        }
        if view.is_outer() {
            outer_arcs += 1;
        } else {
            stored += 1;
        }
    }
    (outer_arcs, stored)
}

fn pram_at(threads: usize, g: &Grammar, s: &Sentence, opts: ParseOptions) -> Vec<BitMatrix> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the shim's pool builder cannot fail");
    let req = ParseRequest::new(g).options(opts);
    pool.install(|| {
        let out = WarmState::new().run(&req, s, &mut PramStats::default());
        out.network.logical_arcs()
    })
}

#[test]
fn every_engine_matches_the_pair_oracle_after_binary_and_filtering() {
    let (mut outer_arcs, mut stored) = (0, 0);
    for (g, sentences) in corpus() {
        for s in &sentences {
            let (alive, want) = pair_oracle(&g, s);
            let binary_only = ParseOptions {
                filter: FilterMode::None,
                ..ParseOptions::default()
            };
            let serial = parse(&g, s, binary_only).network;
            assert_eq!(alive_sets(&serial), alive, "`{s}`: unary alive sets");
            let (o, st) = check_arcs(&serial, &want, true, &format!("`{s}` serial, binary"));
            outer_arcs += o;
            stored += st;
            let settled = parse(&g, s, ParseOptions::default()).network;
            check_arcs(&settled, &want, false, &format!("`{s}` serial, filtered"));
            // The filter neither stores nor drops a matrix.
            for (before, after) in serial.arc_views().zip(settled.arc_views()) {
                assert_eq!(
                    before.is_outer(),
                    after.is_outer(),
                    "`{s}`: filtering moved storage"
                );
            }
            for opts in [binary_only, ParseOptions::default()] {
                let want_net = if opts.filter == FilterMode::None {
                    &serial
                } else {
                    &settled
                };
                let reference = want_net.logical_arcs();
                for threads in [1, 2] {
                    assert_eq!(
                        pram_at(threads, &g, s, opts),
                        reference,
                        "`{s}` P-RAM at {threads} thread(s), {:?}",
                        opts.filter
                    );
                }
                let (mesh, _) = MeshCdg::run(&g, s, opts);
                assert_eq!(alive_sets(&mesh), alive_sets(want_net), "`{s}` mesh");
                check_arcs(
                    &mesh,
                    &want,
                    opts.filter == FilterMode::None,
                    &format!("`{s}` mesh"),
                );
            }
        }
    }
    assert!(outer_arcs > 0, "no arc stayed outer");
    assert!(stored > 0, "no arc was stored");
}

/// The MasPar readback after filtering (the default ten iterations) and
/// with no filtering at all, where the arcs still hold every pair binary
/// propagation cleared.
#[test]
fn the_maspar_readback_matches_the_pair_oracle() {
    let (g, lex) = corpus::standard_setup();
    let (mut outer_arcs, mut stored) = (0, 0);
    for n in 3..=10usize {
        let s = corpus::english_sentence(&g, &lex, n, n as u64);
        for s in [corpus::scrambled(&lex, &s, n as u64 * 31), s] {
            let (unary_alive, want) = pair_oracle(&g, &s);
            let settled = parse(&g, &s, ParseOptions::default()).network;
            for iterations in [0, MasparOptions::default().filter_iterations] {
                let opts = MasparOptions {
                    filter_iterations: iterations,
                    ..MasparOptions::default()
                };
                let out = parse_maspar_checked(&g, &s, &opts)
                    .expect("short English fits the simulated array");
                let net = out.to_network(&g, &s);
                let alive = if iterations == 0 {
                    unary_alive.clone()
                } else {
                    alive_sets(&settled)
                };
                let at = format!("`{s}` MasPar readback after {iterations} iteration(s)");
                assert_eq!(alive_sets(&net), alive, "{at}: alive sets");
                let (o, st) = check_arcs(&net, &want, true, &at);
                outer_arcs += o;
                stored += st;
            }
        }
    }
    assert!(outer_arcs > 0, "no read-back arc stayed outer");
    assert!(stored > 0, "no read-back arc was stored");
}

/// One warm state through aⁿbⁿ n = 48 one symbol short (a reject),
/// English n = 3 and aⁿbⁿ n = 48 (an accept): each report equals a cold
/// run's in verdict, alive sets, logical arcs and ledger, though the warm
/// parses draw their stored matrices from the first one's.
#[test]
fn a_warm_state_through_a_reject_and_an_accept_matches_cold_runs() {
    let (eng, lex) = corpus::standard_setup();
    let anbn = formal::anbn_grammar();
    let full = corpus::formal::anbn(24);
    let steps = [
        (
            &anbn,
            formal::anbn_sentence(&anbn, &one_short(&full, 16)),
            false,
        ),
        (&eng, corpus::english_sentence(&eng, &lex, 3, 3), true),
        (&anbn, formal::anbn_sentence(&anbn, &full), true),
    ];
    let mut warm = WarmState::new();
    for (g, s, accepted) in steps {
        let req = ParseRequest::new(g).sentence(s.clone());
        let cold = Sequential.parse(&req).expect("cold parse");
        let mut hot = Sequential.parse_warm(&req, &mut warm).expect("warm parse");
        assert_eq!(hot.accepted, accepted, "`{s}`: verdict");
        assert_eq!(hot.accepted, cold.accepted, "`{s}`");
        assert_eq!(alive_sets(&hot.network), alive_sets(&cold.network), "`{s}`");
        assert_eq!(
            hot.network.logical_arcs(),
            cold.network.logical_arcs(),
            "`{s}`"
        );
        assert_eq!(hot.network.stats, cold.network.stats, "`{s}`: ledger");
        warm.recycle_report(&mut hot);
    }
    assert!(
        warm.pool_stats().reuses > 0,
        "the warm parses reused no buffer"
    );
}
