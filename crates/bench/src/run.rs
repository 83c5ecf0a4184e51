//! Engine runners producing comparable measurements.

use cdg_core::parser::{FilterMode, ParseOptions};
use cdg_core::{EvalStrategy, FilterStrategy};
use cdg_grammar::{Grammar, Sentence};
use cdg_parallel::mesh::MeshCdg;
use cdg_parallel::pram::parse_pram;
use parsec_maspar::{parse_maspar_checked, MasparOptions};
use std::time::Instant;

/// One engine's measurement on one input.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub engine: &'static str,
    /// Sentence length.
    pub n: usize,
    /// Host wall-clock seconds.
    pub wall_secs: f64,
    /// Abstract sequential operations (serial engines) — the quantity the
    /// asymptotic bounds describe.
    pub ops: Option<u64>,
    /// Parallel steps / sweeps (parallel models).
    pub steps: Option<u64>,
    /// Processors / cells the model would occupy.
    pub processors: Option<u64>,
    /// Estimated target-machine seconds (MasPar cost model).
    pub est_secs: Option<f64>,
    /// Whether the sentence was accepted (sanity cross-check).
    pub accepted: bool,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Options used by every CDG engine in comparisons: bounded filtering so
/// all engines do the same number of passes.
pub fn comparable_options() -> ParseOptions {
    ParseOptions {
        arcs_before_unary: false,
        filter: FilterMode::Bounded(10),
        ..Default::default()
    }
}

/// Sequential CDG (the Figure 8 "Sequential Machine" CDG row).
pub fn serial_cdg(grammar: &Grammar, sentence: &Sentence) -> Measurement {
    let (outcome, wall) = timed(|| cdg_core::parse(grammar, sentence, comparable_options()));
    Measurement {
        engine: "cdg-serial",
        n: sentence.len(),
        wall_secs: wall,
        ops: Some(outcome.network.stats.total_ops() as u64),
        steps: None,
        processors: Some(1),
        est_secs: None,
        accepted: outcome.roles_nonempty,
    }
}

/// Sequential CDG with the naive tree-walk evaluator — the differential
/// oracle for the kernel engine. Same pipeline, same results; only the
/// constraint-evaluation machinery differs, so the wall-clock gap between
/// this row and `cdg-serial` is the kernel speedup.
pub fn serial_cdg_naive(grammar: &Grammar, sentence: &Sentence) -> Measurement {
    let options = ParseOptions {
        eval: EvalStrategy::Naive,
        ..comparable_options()
    };
    let (outcome, wall) = timed(|| cdg_core::parse(grammar, sentence, options));
    Measurement {
        engine: "cdg-serial-naive",
        n: sentence.len(),
        wall_secs: wall,
        ops: Some(outcome.network.stats.total_ops() as u64),
        steps: None,
        processors: Some(1),
        est_secs: None,
        accepted: outcome.roles_nonempty,
    }
}

/// Time only the binary-propagation phase — the workload the kernel
/// engine targets. Network build, unary filtering and arc initialization
/// run untimed; the measured region is one full `apply_all_binary` sweep.
fn binary_phase(
    grammar: &Grammar,
    sentence: &Sentence,
    eval: EvalStrategy,
    engine: &'static str,
) -> Measurement {
    let mut net = cdg_core::Network::build(grammar, sentence);
    net.eval = eval;
    cdg_core::propagate::apply_all_unary(&mut net);
    net.init_arcs();
    let (_, wall) = timed(|| cdg_core::propagate::apply_all_binary(&mut net));
    Measurement {
        engine,
        n: sentence.len(),
        wall_secs: wall,
        ops: Some(net.stats.binary_checks as u64),
        steps: None,
        processors: Some(1),
        est_secs: None,
        accepted: net.all_roles_nonempty(),
    }
}

/// Binary propagation under the compiled lane-pass kernel.
pub fn binary_kernel(grammar: &Grammar, sentence: &Sentence) -> Measurement {
    binary_phase(grammar, sentence, EvalStrategy::Kernel, "cdg-binary-kernel")
}

/// Binary propagation under the naive tree-walk evaluator.
pub fn binary_naive(grammar: &Grammar, sentence: &Sentence) -> Measurement {
    binary_phase(grammar, sentence, EvalStrategy::Naive, "cdg-binary-naive")
}

/// Pass bound for the timed filter phase — the same constant
/// [`comparable_options`] uses, so phase rows and end-to-end rows describe
/// the same amount of filtering.
pub const FILTER_PASSES: usize = 10;

/// Time only the consistency-filtering phase — the n⁴ workload of the
/// paper's sequential filtering. Network build, unary filtering, arc
/// initialization and binary propagation run untimed; the measured region
/// is the filter driven to fixpoint (or [`FILTER_PASSES`]) under
/// `strategy` (`Auto` is the incremental filter, `Naive` the full scan).
fn filter_phase(
    grammar: &Grammar,
    sentence: &Sentence,
    strategy: FilterStrategy,
    engine: &'static str,
) -> Measurement {
    let mut net = cdg_core::Network::build(grammar, sentence);
    cdg_core::propagate::apply_all_unary(&mut net);
    net.init_arcs();
    cdg_core::propagate::apply_all_binary(&mut net);
    let ((removed, passes, _), wall) = timed(|| match strategy {
        FilterStrategy::Naive => cdg_core::consistency::filter(&mut net, FILTER_PASSES),
        FilterStrategy::Auto => cdg_core::filter_incremental(&mut net, FILTER_PASSES)
            .expect("the incremental filter cannot fail"),
    });
    Measurement {
        engine,
        n: sentence.len(),
        wall_secs: wall,
        ops: Some(removed as u64),
        steps: Some(passes as u64),
        processors: Some(1),
        est_secs: None,
        accepted: net.all_roles_nonempty(),
    }
}

/// Consistency filtering under the counter-free incremental filter (the
/// default path).
pub fn filter_incremental_phase(grammar: &Grammar, sentence: &Sentence) -> Measurement {
    filter_phase(
        grammar,
        sentence,
        FilterStrategy::Auto,
        "filter-incremental",
    )
}

/// Consistency filtering under the full-scan oracle.
pub fn filter_naive_phase(grammar: &Grammar, sentence: &Sentence) -> Measurement {
    filter_phase(grammar, sentence, FilterStrategy::Naive, "filter-naive")
}

/// Rayon P-RAM-style CDG (the "CRCW P-RAM" CDG row).
pub fn pram_cdg(grammar: &Grammar, sentence: &Sentence) -> Measurement {
    let (outcome, wall) = timed(|| parse_pram(grammar, sentence, comparable_options()));
    Measurement {
        engine: "cdg-pram",
        n: sentence.len(),
        wall_secs: wall,
        ops: None,
        steps: Some(outcome.stats.steps as u64),
        processors: Some(outcome.stats.max_width as u64),
        est_secs: None,
        accepted: outcome.roles_nonempty,
    }
}

/// Step-counted 2-D mesh CDG (the "2D Mesh / Cellular Automata" CDG rows).
pub fn mesh_cdg(grammar: &Grammar, sentence: &Sentence) -> Measurement {
    let (result, wall) = timed(|| MeshCdg::run(grammar, sentence, comparable_options()));
    let (net, stats) = result;
    Measurement {
        engine: "cdg-mesh",
        n: sentence.len(),
        wall_secs: wall,
        ops: None,
        steps: Some(stats.total_steps() as u64),
        processors: Some(stats.cells as u64),
        est_secs: None,
        accepted: net.all_roles_nonempty(),
    }
}

/// PARSEC on the simulated MasPar MP-1 (the realized "Tree and Hypercube"
/// class row: O(n⁴/log n)… PEs, O(k + log n) time).
pub fn maspar_cdg(grammar: &Grammar, sentence: &Sentence) -> Measurement {
    let (outcome, wall) = timed(|| {
        parse_maspar_checked(grammar, sentence, &MasparOptions::default())
            .expect("the MasPar parse fits the simulated machine")
    });
    Measurement {
        engine: "cdg-maspar",
        n: sentence.len(),
        wall_secs: wall,
        ops: None,
        steps: Some(outcome.stats.scan_passes + outcome.stats.plural_slices),
        processors: Some(outcome.layout.virt_pes() as u64),
        est_secs: Some(outcome.estimated_seconds),
        accepted: outcome.roles_nonempty(),
    }
}

/// Sequential CKY (the "Sequential Machine" CFG row).
pub fn serial_cky(grammar: &cfg_baseline::CnfGrammar, tokens: &[usize]) -> Measurement {
    let (result, wall) = timed(|| cfg_baseline::cky_recognize(grammar, tokens));
    let (accepted, stats) = result;
    Measurement {
        engine: "cky-serial",
        n: tokens.len(),
        wall_secs: wall,
        ops: Some(stats.rule_checks as u64),
        steps: None,
        processors: Some(1),
        est_secs: None,
        accepted,
    }
}

/// Wavefront CKY on rayon.
pub fn par_cky(grammar: &cfg_baseline::CnfGrammar, tokens: &[usize]) -> Measurement {
    let (result, wall) = timed(|| cfg_baseline::cky_recognize_par(grammar, tokens));
    let (accepted, sweeps) = result;
    Measurement {
        engine: "cky-wavefront",
        n: tokens.len(),
        wall_secs: wall,
        ops: None,
        steps: Some(sweeps as u64),
        processors: Some((tokens.len() * tokens.len()) as u64),
        est_secs: None,
        accepted,
    }
}

/// Systolic mesh CKY (the "2D Mesh / Cellular Automata" CFG rows).
pub fn mesh_cky(grammar: &cfg_baseline::CnfGrammar, tokens: &[usize]) -> Measurement {
    let (result, wall) = timed(|| cfg_baseline::mesh_recognize(grammar, tokens));
    let (accepted, stats) = result;
    Measurement {
        engine: "cky-mesh",
        n: tokens.len(),
        wall_secs: wall,
        ops: None,
        steps: Some(stats.sweeps as u64),
        processors: Some(stats.cells as u64),
        est_secs: None,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_grammar::grammars::english;

    #[test]
    fn engines_agree_on_acceptance() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = corpus::english_sentence(&g, &lex, 7, 11);
        let runs = [
            serial_cdg(&g, &s),
            pram_cdg(&g, &s),
            mesh_cdg(&g, &s),
            maspar_cdg(&g, &s),
        ];
        assert!(runs.iter().all(|m| m.accepted), "{runs:#?}");
        assert!(runs.iter().all(|m| m.n == 7));
        // The CFG side parses the same words.
        let cfg = cfg_baseline::gen::english_cfg();
        let tokens = cfg.tokenize(&s.to_string().to_lowercase()).unwrap();
        let cfg_runs = [
            serial_cky(&cfg, &tokens),
            par_cky(&cfg, &tokens),
            mesh_cky(&cfg, &tokens),
        ];
        assert!(cfg_runs.iter().all(|m| m.accepted), "{cfg_runs:#?}");
    }

    #[test]
    fn filter_phase_strategies_agree() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = corpus::english_sentence(&g, &lex, 8, 11);
        let inc = filter_incremental_phase(&g, &s);
        let naive = filter_naive_phase(&g, &s);
        assert_eq!(inc.ops, naive.ops, "removal totals must match");
        assert_eq!(inc.steps, naive.steps, "pass counts must match");
        assert_eq!(inc.accepted, naive.accepted);
    }

    #[test]
    fn measurements_carry_model_quantities() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = corpus::english_sentence(&g, &lex, 5, 1);
        assert!(serial_cdg(&g, &s).ops.unwrap() > 0);
        assert!(pram_cdg(&g, &s).steps.unwrap() > 0);
        assert!(maspar_cdg(&g, &s).est_secs.unwrap() > 0.0);
        assert_eq!(
            maspar_cdg(&g, &s).processors,
            Some(4 * 5usize.pow(4) as u64)
        );
    }
}
