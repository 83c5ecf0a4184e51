//! Per-layer replays, timed from outside: each call into a module's public
//! functions is wrapped in a clock here, and the counters the modules
//! already expose are read afterwards. Nothing inside the program is
//! instrumented for this.

use cdg_core::consistency::filter_incremental;
use cdg_core::extract::{has_parse, precedence_graphs};
use cdg_core::propagate::{apply_all_binary, apply_all_unary};
use cdg_core::{BatchOutcome, EvalStrategy, FilterStrategy, NetStats, Network};
use cdg_grammar::{CompiledGrammar, Grammar, Sentence};
use maspar_sim::{CostModel, MachineStats};
use parsec_maspar::{parse_maspar_checked, MasparOptions};
use std::sync::Arc;
use std::time::Instant;

/// The serial pipeline's phases, in order.
pub const CORE_PHASES: [&str; 6] = ["build", "unary", "arc_init", "binary", "filter", "extract"];

/// One sentence replayed through the serial pipeline phase by phase.
pub struct CoreReplay {
    /// Seconds spent in each of [`CORE_PHASES`].
    pub secs: [f64; 6],
    pub stats: NetStats,
    /// What `parse_batch` would report for this sentence.
    pub outcome: BatchOutcome,
}

/// Replay `sentence` the way `parse_with_state` runs it under the default
/// request (kernel evaluation, incremental filtering to the fixpoint, the
/// grammar's compiled artifact attached).
pub fn replay_core(
    grammar: &Grammar,
    compiled: &Arc<CompiledGrammar>,
    sentence: &Sentence,
    max_parses: usize,
) -> CoreReplay {
    let mut secs = [0.0; 6];
    let mut clock = Instant::now();
    let mut lap = |phase: usize| {
        let now = Instant::now();
        secs[phase] = (now - clock).as_secs_f64();
        clock = now;
    };
    let mut net = Network::build(grammar, sentence);
    net.eval = EvalStrategy::Kernel;
    net.filter_strategy = FilterStrategy::Auto;
    net.compiled = Some(Arc::clone(compiled));
    lap(0);
    apply_all_unary(&mut net);
    lap(1);
    net.init_arcs();
    lap(2);
    apply_all_binary(&mut net);
    lap(3);
    let (_, passes, fixpoint) =
        filter_incremental(&mut net, usize::MAX).expect("fault-free filtering cannot underflow");
    lap(4);
    let roles_nonempty = net.all_roles_nonempty();
    let outcome = BatchOutcome {
        accepted: roles_nonempty && has_parse(&net),
        ambiguous: net.slots().iter().any(|s| s.alive_count() > 1),
        roles_nonempty,
        locally_consistent: fixpoint,
        filter_passes: passes,
        degraded: false,
        total_alive: net.total_alive(),
        parses: precedence_graphs(&net, max_parses),
    };
    lap(5);
    CoreReplay {
        secs,
        stats: net.stats,
        outcome,
    }
}

/// Simulated MP-1 phase groups reported per sentence.
pub const MP1_PHASES: [(&str, &str); 3] = [
    ("unary", "unary:"),
    ("binary", "binary:"),
    ("filter", "maintain:"),
];

/// One sentence replayed on the simulated array, with the host readback
/// timed on its own.
pub struct MasparReplay {
    pub array_secs: f64,
    pub readback_secs: f64,
    pub stats: MachineStats,
    /// Estimated MP-1 seconds per [`MP1_PHASES`] group.
    pub phase_secs: [f64; 3],
    pub estimated_secs: f64,
    pub alive: Vec<Vec<usize>>,
}

pub fn replay_maspar(grammar: &Grammar, sentence: &Sentence) -> MasparReplay {
    let opts = MasparOptions::default();
    let start = Instant::now();
    let out = parse_maspar_checked(grammar, sentence, &opts)
        .expect("maspar-mixed sentences fit the simulated array");
    let array_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let network = out.to_network(grammar, sentence);
    let readback_secs = start.elapsed().as_secs_f64();
    let cost = CostModel::default();
    let phase_secs = MP1_PHASES.map(|(_, prefix)| {
        out.phases
            .iter()
            .filter(|p| p.name.starts_with(prefix))
            .map(|p| p.stats.estimated_seconds(&cost))
            .sum()
    });
    MasparReplay {
        array_secs,
        readback_secs,
        stats: out.stats,
        phase_secs,
        estimated_secs: out.estimated_seconds,
        alive: network.slots().iter().map(|s| s.alive_indices()).collect(),
    }
}
