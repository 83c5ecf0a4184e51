//! Constraint propagation: applying unary and binary constraints to the
//! network.
//!
//! Every entry point dispatches on [`Network::eval`]: the default
//! [`EvalStrategy::Kernel`] path compiles the constraint to bytecode,
//! evaluates it a slot at a time as bit-sliced lane passes and applies
//! the verdicts as word-parallel row masks ([`crate::kernel`]); the
//! [`EvalStrategy::Naive`] path is the paper's literal per-cell tree walk,
//! kept as the differential oracle. Both produce bit-identical networks.

use crate::kernel::{apply_pairwise_kernel_with, apply_unary_kernel_with, KernelScratch};
use crate::network::{EvalStrategy, Network};
use crate::parser::{Executor, Serial, Step};
use cdg_grammar::{Arity, Constraint};

/// Apply one unary constraint to every alive role value of every slot,
/// removing violators. Returns the number of role values removed.
/// O(n²) checks — the paper's per-unary-constraint cost.
pub fn apply_unary(net: &mut Network<'_>, constraint: &Constraint) -> usize {
    assert_eq!(
        constraint.arity,
        Arity::Unary,
        "apply_unary needs a unary constraint"
    );
    unary_step(net, &mut Serial, constraint, &mut KernelScratch::new())
}

/// One unary step of the phase sequence: the kernel, or the tree walk
/// under [`EvalStrategy::Naive`], between `exec`'s cost hooks.
fn unary_step<E: Executor>(
    net: &mut Network<'_>,
    exec: &mut E,
    constraint: &Constraint,
    scratch: &mut KernelScratch,
) -> usize {
    exec.cost(net, Step::Unary, None);
    let removed = match net.eval {
        EvalStrategy::Kernel => apply_unary_kernel_with(net, constraint, scratch),
        EvalStrategy::Naive => apply_unary_naive(net, constraint),
    };
    exec.cost(net, Step::Unary, Some(removed));
    removed
}

/// One pairwise step of the phase sequence — a binary constraint, or a
/// unary one with witness semantics: the kernel, or the tree walk under
/// [`EvalStrategy::Naive`], between `exec`'s cost hooks.
fn pairwise_step<E: Executor>(
    net: &mut Network<'_>,
    exec: &mut E,
    constraint: &Constraint,
    scratch: &mut KernelScratch,
) -> usize {
    let step = match constraint.arity {
        Arity::Unary => Step::UnaryPairwise,
        Arity::Binary => Step::Binary,
    };
    exec.cost(net, step, None);
    let zeroed = match net.eval {
        EvalStrategy::Kernel => apply_pairwise_kernel_with(net, constraint, scratch),
        EvalStrategy::Naive => apply_pairwise_naive(net, constraint),
    };
    exec.cost(net, step, Some(zeroed));
    zeroed
}

/// The tree-walking unary path (oracle for [`apply_unary`]).
pub fn apply_unary_naive(net: &mut Network<'_>, constraint: &Constraint) -> usize {
    let mut doomed: Vec<(usize, usize)> = Vec::new();
    let mut checks = 0usize;
    // Immutable pass first: collect violators, then remove (removal mutates
    // arc matrices, which the checks never read).
    for (slot_id, slot) in net.slots().iter().enumerate() {
        for idx in slot.alive.iter_ones() {
            checks += 1;
            if !constraint.check_unary(net.sentence(), slot.binding(idx)) {
                doomed.push((slot_id, idx));
            }
        }
    }
    net.stats.unary_checks += checks;
    let removed = doomed.len();
    for (slot_id, idx) in doomed {
        net.remove_value(slot_id, idx);
    }
    removed
}

/// Apply every unary constraint of the grammar once, in declaration order.
/// Returns total removals.
pub fn apply_all_unary(net: &mut Network<'_>) -> usize {
    apply_all_unary_with(net, &mut Serial, &mut KernelScratch::new())
}

/// [`apply_all_unary`] charged to `exec`, with caller-owned kernel scratch
/// (see [`apply_all_binary_with`]): the unary phase of every engine.
pub fn apply_all_unary_with<E: Executor>(
    net: &mut Network<'_>,
    exec: &mut E,
    scratch: &mut KernelScratch,
) -> usize {
    let _phase = obsv::span("unary_propagation");
    let grammar = net.grammar();
    let mut removed = 0;
    for c in grammar.unary_constraints() {
        let _c = obsv::span_with(|| format!("unary:{}", c.name));
        removed += unary_step(net, exec, c, scratch);
    }
    removed
}

/// Apply one binary constraint to every arc: for each pair of alive role
/// values whose arc entry is still 1, check both orderings and zero the
/// entry on violation. Returns the number of entries zeroed. O(n⁴) checks —
/// the paper's per-binary-constraint cost.
pub fn apply_binary(net: &mut Network<'_>, constraint: &Constraint) -> usize {
    assert_eq!(
        constraint.arity,
        Arity::Binary,
        "apply_binary needs a binary constraint"
    );
    assert!(
        net.arcs_ready(),
        "init_arcs must run before binary propagation"
    );
    pairwise_step(net, &mut Serial, constraint, &mut KernelScratch::new())
}

/// The tree-walking pairwise path (oracle for [`apply_binary`] and
/// [`apply_unary_pairwise`]): a binary constraint checks each ordered pair,
/// a unary one each value with the other as its witness. The check counter
/// records evaluations actually performed: an unordered pair costs one
/// evaluation when the first ordering already violates, two otherwise — so
/// the counter is comparable with the kernel path's.
pub fn apply_pairwise_naive(net: &mut Network<'_>, constraint: &Constraint) -> usize {
    let sentence = net.sentence();
    let check = |x, y| match constraint.arity {
        Arity::Binary => constraint.check_binary(sentence, x, y),
        Arity::Unary => constraint.check_unary_with_witness(sentence, x, y),
    };
    let mut zeroed: Vec<(usize, usize, usize, usize)> = Vec::new();
    let mut checks = 0usize;
    for &(i, j, _) in net.arc_pairs() {
        let (si, sj) = (net.slot(i), net.slot(j));
        for a in si.alive.iter_ones() {
            let ba = si.binding(a);
            for b in sj.alive.iter_ones() {
                if !net.arc_entry(i, a, j, b) {
                    continue;
                }
                checks += 1;
                let bb = sj.binding(b);
                let ok = check(ba, bb) && {
                    checks += 1;
                    check(bb, ba)
                };
                if !ok {
                    zeroed.push((i, a, j, b));
                }
            }
        }
    }
    net.stats.binary_checks += checks;
    let count = zeroed.len();
    for (i, a, j, b) in zeroed {
        net.zero_arc_entry(i, a, j, b);
    }
    count
}

/// Apply one *unary* constraint pairwise across arcs, with the opposite
/// role value acting as a witness that fixes its word's category
/// hypothesis. Only meaningful on lexically ambiguous sentences: an
/// `Unknown` from `(cat (word p))` at unary time can become a definite
/// violation once `p`'s hypothesis is pinned by the paired value. On
/// unambiguous sentences this never zeroes anything.
pub fn apply_unary_pairwise(net: &mut Network<'_>, constraint: &Constraint) -> usize {
    assert_eq!(
        constraint.arity,
        Arity::Unary,
        "apply_unary_pairwise needs a unary constraint"
    );
    assert!(
        net.arcs_ready(),
        "init_arcs must run before pairwise propagation"
    );
    pairwise_step(net, &mut Serial, constraint, &mut KernelScratch::new())
}

/// Apply every binary constraint of the grammar once, in declaration order.
/// On lexically ambiguous sentences, also applies every unary constraint
/// pairwise (witness semantics). Returns total entries zeroed.
pub fn apply_all_binary(net: &mut Network<'_>) -> usize {
    apply_all_binary_with(net, &mut Serial, &mut KernelScratch::new())
}

/// [`apply_all_binary`] charged to `exec`, with caller-owned kernel scratch:
/// the pairwise phase of every engine. One scratch serves the whole
/// phase — the lane-pass, class and mask buffers are resized or
/// generation-stamped per arc, so reuse across constraints (and, on a
/// warm serve worker, across requests) is bit-identical to a fresh one.
pub fn apply_all_binary_with<E: Executor>(
    net: &mut Network<'_>,
    exec: &mut E,
    scratch: &mut KernelScratch,
) -> usize {
    assert!(
        net.arcs_ready(),
        "init_arcs must run before binary propagation"
    );
    let _phase = obsv::span("binary_propagation");
    let grammar = net.grammar();
    let mut zeroed = 0;
    for c in grammar.binary_constraints() {
        let _c = obsv::span_with(|| format!("binary:{}", c.name));
        zeroed += pairwise_step(net, exec, c, scratch);
    }
    if net.sentence().has_lexical_ambiguity() {
        for c in grammar.unary_constraints() {
            let _c = obsv::span_with(|| format!("unary-pairwise:{}", c.name));
            zeroed += pairwise_step(net, exec, c, scratch);
        }
    }
    zeroed
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_grammar::grammars::paper;
    use cdg_grammar::Modifiee;

    fn net_for_example(g: &cdg_grammar::Grammar) -> Network<'_> {
        let s = paper::example_sentence(g);
        Network::build(g, &s)
    }

    /// Alive role values of a slot rendered "LABEL-mod" for comparison with
    /// the paper's figures.
    fn alive_strs(net: &Network<'_>, word: u16, role: &str) -> Vec<String> {
        let g = net.grammar();
        let slot = net.slot(net.slot_id(word, g.role_id(role).unwrap()));
        slot.alive
            .iter_ones()
            .map(|i| {
                let rv = slot.domain[i];
                format!("{}-{}", g.label_name(rv.label), rv.modifiee)
            })
            .collect()
    }

    #[test]
    fn figure2_first_unary_constraint() {
        // After the first unary constraint ("verbs have the label ROOT and
        // are ungoverned"), the governor role of `runs` holds only ROOT-nil;
        // every other role is untouched.
        let g = paper::grammar();
        let mut net = net_for_example(&g);
        let c = &g.unary_constraints()[0];
        let removed = apply_unary(&mut net, c);
        assert_eq!(removed, 8);
        assert_eq!(alive_strs(&net, 2, "governor"), vec!["ROOT-nil"]);
        assert_eq!(alive_strs(&net, 0, "governor").len(), 9);
        assert_eq!(alive_strs(&net, 1, "needs").len(), 9);
        assert_eq!(net.stats.unary_checks, 54);
    }

    #[test]
    fn figure3_all_unary_constraints() {
        // Figure 3's network state:
        //   the/governor   {DET-2, DET-3}      the/needs    {BLANK-nil}
        //   program/gov    {SUBJ-1, SUBJ-3}    program/needs {NP-1, NP-3}
        //   runs/gov       {ROOT-nil}          runs/needs   {S-1, S-2}
        let g = paper::grammar();
        let mut net = net_for_example(&g);
        apply_all_unary(&mut net);
        assert_eq!(alive_strs(&net, 0, "governor"), vec!["DET-2", "DET-3"]);
        assert_eq!(alive_strs(&net, 0, "needs"), vec!["BLANK-nil"]);
        assert_eq!(alive_strs(&net, 1, "governor"), vec!["SUBJ-1", "SUBJ-3"]);
        assert_eq!(alive_strs(&net, 1, "needs"), vec!["NP-1", "NP-3"]);
        assert_eq!(alive_strs(&net, 2, "governor"), vec!["ROOT-nil"]);
        assert_eq!(alive_strs(&net, 2, "needs"), vec!["S-1", "S-2"]);
        assert_eq!(net.total_alive(), 10);
    }

    #[test]
    fn unary_propagation_is_idempotent() {
        let g = paper::grammar();
        let mut net = net_for_example(&g);
        apply_all_unary(&mut net);
        let alive_before = net.total_alive();
        let removed = apply_all_unary(&mut net);
        assert_eq!(removed, 0);
        assert_eq!(net.total_alive(), alive_before);
    }

    #[test]
    fn figure4_first_binary_constraint() {
        // After "a SUBJ is governed by a ROOT to its right", the matrix
        // between program/governor and runs/governor has a zero at
        // (SUBJ-1, ROOT-nil) and a one at (SUBJ-3, ROOT-nil).
        let g = paper::grammar();
        let mut net = net_for_example(&g);
        apply_all_unary(&mut net);
        net.init_arcs();
        let zeroed = apply_binary(&mut net, &g.binary_constraints()[0]);
        assert!(zeroed >= 1);
        let governor = g.role_id("governor").unwrap();
        let pg = net.slot_id(1, governor);
        let rg = net.slot_id(2, governor);
        let subj1 = net
            .slot(pg)
            .domain
            .iter()
            .position(|rv| rv.modifiee == Modifiee::Word(1) && g.label_name(rv.label) == "SUBJ")
            .unwrap();
        let subj3 = net
            .slot(pg)
            .domain
            .iter()
            .position(|rv| rv.modifiee == Modifiee::Word(3) && g.label_name(rv.label) == "SUBJ")
            .unwrap();
        let root_nil = net
            .slot(rg)
            .domain
            .iter()
            .position(|rv| rv.modifiee == Modifiee::Nil && g.label_name(rv.label) == "ROOT")
            .unwrap();
        assert!(!net.arc_entry(pg, subj1, rg, root_nil));
        assert!(net.arc_entry(pg, subj3, rg, root_nil));
    }

    #[test]
    fn binary_requires_arcs() {
        let g = paper::grammar();
        let mut net = net_for_example(&g);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            apply_binary(&mut net, &g.binary_constraints()[0]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn binary_propagation_is_idempotent_on_entries() {
        let g = paper::grammar();
        let mut net = net_for_example(&g);
        apply_all_unary(&mut net);
        net.init_arcs();
        apply_all_binary(&mut net);
        let zeroed_again = apply_all_binary(&mut net);
        assert_eq!(zeroed_again, 0);
    }

    #[test]
    fn arcs_before_unary_order_reaches_same_state() {
        // Design decision 1 of the MasPar implementation: building arcs
        // before unary propagation must not change the outcome.
        let g = paper::grammar();

        let mut a = net_for_example(&g);
        apply_all_unary(&mut a);
        a.init_arcs();
        apply_all_binary(&mut a);

        let mut b = net_for_example(&g);
        b.init_arcs();
        apply_all_unary(&mut b);
        apply_all_binary(&mut b);

        for &(i, j, _) in a.arc_pairs() {
            let (si, sj) = (a.slot(i), a.slot(j));
            assert_eq!(si.alive, b.slot(i).alive);
            for x in si.alive.iter_ones() {
                for y in sj.alive.iter_ones() {
                    assert_eq!(a.arc_entry(i, x, j, y), b.arc_entry(i, x, j, y));
                }
            }
        }
    }

    #[test]
    fn unary_constraint_mismatch_panics() {
        let g = paper::grammar();
        let mut net = net_for_example(&g);
        let binary = &g.binary_constraints()[0];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            apply_unary(&mut net, binary);
        }));
        assert!(result.is_err());
    }
}
