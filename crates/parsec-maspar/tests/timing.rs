//! Reproduction of the paper's Results-section time trials (RES-T1) under
//! the calibrated cost model.
//!
//! Paper claims:
//! * "it takes less than 10 milliseconds to propagate a constraint in a
//!   network of one to seven words";
//! * "the total time for the MasPar to parse the example sentence is
//!   approximately 0.15 seconds";
//! * "the processing time required for a sentence of 10 words (because of
//!   processor virtualization) is .45 seconds" — a step function growing
//!   with ⌈q²n⁴/16384⌉.

use cdg_grammar::grammars::paper;
use maspar_sim::CostModel;
use parsec_maspar::{parse_maspar_checked, MasparOptions};

fn run(n: usize) -> parsec_maspar::MasparOutcome {
    let g = paper::grammar();
    let s = paper::cost_sweep_sentence(&g, n);
    parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap()
}

#[test]
fn constraint_propagation_under_10ms_for_short_sentences() {
    let cost = CostModel::default();
    for n in 1..=7 {
        let out = run(n);
        let per = out.mean_constraint_seconds(&cost);
        assert!(
            per < 0.010,
            "n={n}: {per:.4}s per constraint, paper bound is 10 ms"
        );
        assert!(per > 0.0005, "n={n}: implausibly fast ({per:.5}s)");
    }
}

#[test]
fn example_sentence_parses_in_about_150ms() {
    let out = run(3);
    assert!(
        (0.08..0.25).contains(&out.estimated_seconds),
        "estimated {:.3}s, paper reports ≈0.15 s",
        out.estimated_seconds
    );
}

#[test]
fn virtualization_step_function() {
    // q²n⁴ for q=2: n ≤ 8 fits 16,384 PEs exactly (4·8⁴ = 16,384);
    // n = 9 needs 2 layers, n = 10 needs 3 (the paper's 0.45 s point).
    assert_eq!(run(7).virt_factor, 1);
    assert_eq!(run(8).virt_factor, 1);
    assert_eq!(run(9).virt_factor, 2);
    assert_eq!(run(10).virt_factor, 3);
}

#[test]
fn ten_word_sentence_is_about_3x_the_example() {
    let t3 = run(3).estimated_seconds;
    let t10 = run(10).estimated_seconds;
    let ratio = t10 / t3;
    assert!(
        (2.0..5.0).contains(&ratio),
        "t(10)/t(3) = {ratio:.2}, paper implies ≈3 (0.45 s / 0.15 s)"
    );
    assert!(
        (0.3..0.8).contains(&t10),
        "t(10) = {t10:.3}s, paper reports 0.45 s"
    );
}

#[test]
fn scan_cost_grows_logarithmically_until_virtualization() {
    // Within the physical array the per-scan cost is ⌈log₂(q²n⁴)⌉ ≈
    // 4·log₂ n + 2: slow logarithmic growth, then the staircase takes over.
    let passes_per_scan = |n: usize| {
        let out = run(n);
        out.stats.scan_passes as f64 / out.stats.scan_calls as f64
    };
    let p3 = passes_per_scan(3);
    let p7 = passes_per_scan(7);
    assert!(p7 > p3, "scan cost should grow with n");
    assert!(
        p7 / p3 < 2.0,
        "growth must be logarithmic, not polynomial: {p3:.1} -> {p7:.1}"
    );
}
