//! The [`Engine`] implementation for the simulated MasPar MP-1 backend.

use crate::engine::{parse_maspar_compiled, recycle_readback, MasparOptions};
use cdg_core::api::{Engine, ParseReport, ParseRequest, WarmState};
use cdg_core::consistency::is_locally_consistent;
use cdg_core::parser::{FilterMode, ParseOutcome};
use cdg_core::EngineError;
use cdg_grammar::Sentence;
use maspar_sim::MachineConfig;

/// The MasPar MP-1 engine (§2.2): one SIMD parse per sentence on the
/// simulated PE array, with fault detection/recovery and budget
/// enforcement.
///
/// The request supplies everything but the machine: its budget and fault
/// plan, its compiled artifact when one is attached, and its
/// [`FilterMode`], which maps onto the machine's bounded filtering
/// (`None` → 0 iterations, `Bounded(k)` → k, `Fixpoint` → the default
/// iteration cap — design decision 5 has no true fixpoint mode).
/// `ParseRequest::threads` is ignored: the simulated array's shape comes
/// from [`Maspar::machine`], not the host's core count.
#[derive(Debug, Clone, Default)]
pub struct Maspar {
    /// The simulated array: physical PEs, PE memory, cost model.
    pub machine: MachineConfig,
}

impl Engine for Maspar {
    fn name(&self) -> &'static str {
        "maspar"
    }

    /// Each host thread keeps one simulated machine, reset to a new
    /// machine's state before every parse, so only its plurals' host
    /// buffers carry over; `warm` lends the readback its network storage.
    fn run<'g>(
        &self,
        req: &ParseRequest<'g>,
        sentence: &Sentence,
        warm: &mut WarmState,
    ) -> Result<ParseReport<'g>, EngineError> {
        let defaults = MasparOptions::default();
        let opts = MasparOptions {
            machine: self.machine.clone(),
            filter_iterations: match req.options.filter {
                FilterMode::None => 0,
                FilterMode::Bounded(k) => k,
                // The machine has no fixpoint detector; keep the bounded
                // cap ("typically fewer than 10 are required").
                FilterMode::Fixpoint => defaults.filter_iterations,
            },
            faults: req.faults.clone(),
            budget: req.options.budget,
            ..defaults
        };
        let mut out = parse_maspar_compiled(req.grammar, sentence, &opts, req.compiled.as_deref())?;
        let network = {
            // Rebuilding the host network re-enters the sequential
            // primitives, so their spans nest under `readback`.
            let _rb = obsv::span("readback");
            out.readback_tiled(req.grammar, sentence, warm.slab())
        };
        // The network holds what the report needs of the submatrices;
        // their buffer goes back to this thread's machine.
        recycle_readback(std::mem::take(&mut out.bits));
        obsv::counter_add("maspar.probes", out.recovery.probes as u64);
        obsv::counter_add("maspar.retired_pes", out.recovery.retired_pes.len() as u64);
        obsv::counter_add(
            "maspar.verified_phases",
            out.recovery.verified_phases as u64,
        );
        obsv::counter_add(
            "faults.detected",
            out.recovery.retired_pes.len() as u64 + out.recovery.phase_retries,
        );
        obsv::counter_add(
            "faults.recovered",
            u64::from(out.recovery.intervened() && out.degraded.is_none()),
        );
        obsv::counter_add("maspar.phase_retries", out.recovery.phase_retries);
        obsv::counter_add("maspar.fault_events", out.stats.fault_events());
        obsv::counter_add("maspar.plural_ops", out.stats.plural_ops);
        obsv::counter_add("maspar.router_ops", out.stats.router_ops);
        obsv::counter_add("maspar.scan_calls", out.stats.scan_calls);
        obsv::gauge_set("maspar.estimated_seconds", out.estimated_seconds);
        obsv::gauge_set("maspar.virt_factor", out.virt_factor as f64);
        obsv::gauge_set("maspar.virt_pes", out.layout.virt_pes() as f64);
        let outcome = ParseOutcome {
            roles_nonempty: out.roles_nonempty(),
            locally_consistent: is_locally_consistent(&network),
            filter_passes: out.filter_iterations_run,
            degraded: out.degraded,
            network,
        };
        let mut report = ParseReport::from_outcome(self.name(), outcome, req.max_parses);
        report.fault_recovered = out.recovery.intervened();
        report.machine_stats = Some(out.stats);
        report.estimated_seconds = Some(out.estimated_seconds);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::parse_maspar_checked;
    use cdg_grammar::grammars::{english, paper};
    use maspar_sim::FaultPlan;
    use std::sync::Mutex;

    static OBSV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn report_matches_the_checked_entry_point() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let out = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
        let report = Maspar::default()
            .parse(&ParseRequest::new(&g).sentence(s.clone()).max_parses(10))
            .unwrap();
        assert_eq!(report.engine, "maspar");
        assert!(report.accepted);
        assert!(!report.fault_recovered);
        assert_eq!(report.roles_nonempty, out.roles_nonempty());
        assert_eq!(report.filter_passes, out.filter_iterations_run);
        assert_eq!(
            report.network.total_alive(),
            out.to_network(&g, &s).total_alive()
        );
    }

    #[test]
    fn trace_covers_the_paper_phases_and_recovery() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let report = Maspar::default()
            .parse(
                &ParseRequest::new(&g)
                    .sentence(s)
                    .faults(FaultPlan::new().with_dead_pe(3))
                    .trace(true)
                    .metrics(true),
            )
            .unwrap();
        assert!(report.fault_recovered);
        let names = report.trace.as_ref().unwrap().names();
        for phase in [
            "parse",
            "network_build",
            "fault_probe",
            "arc_init",
            "unary_propagation",
            "binary_propagation",
            "filtering",
            "maintain",
            "verify",
            "readback",
            "extraction",
        ] {
            assert!(names.iter().any(|n| n == phase), "missing span `{phase}`");
        }
        let snap = report.metrics.unwrap();
        assert!(snap.counter("maspar.retired_pes").unwrap() > 0);
        assert!(snap.counter("maspar.verified_phases").unwrap() > 0);
        assert_eq!(snap.counter("faults.recovered"), Some(1));
        assert!(!obsv::tracing_enabled() && !obsv::metrics_enabled());
    }

    #[test]
    fn filter_mode_maps_onto_bounded_iterations() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let none = Maspar::default()
            .parse(
                &ParseRequest::new(&g)
                    .sentence(s.clone())
                    .filter(FilterMode::None),
            )
            .unwrap();
        assert_eq!(none.filter_passes, 0);
        let bounded = Maspar::default()
            .parse(
                &ParseRequest::new(&g)
                    .sentence(s)
                    .filter(FilterMode::Bounded(1)),
            )
            .unwrap();
        assert_eq!(bounded.filter_passes, 1);
    }

    #[test]
    fn batch_rows_reuse_the_readback_storage_they_hand_back() {
        let g = english::grammar();
        let s = english::lexicon(&g)
            .sentence("the dog sees the cat in the park")
            .unwrap();
        // Unfiltered, the readback stores the arcs binary propagation cut.
        let req = ParseRequest::new(&g).filter(FilterMode::None);
        let mut warm = WarmState::new();
        // Buffers the pool ever had to allocate: what sits idle between rows.
        let fresh = |w: &WarmState| w.pool_stats().acquires - w.pool_stats().reuses;
        Maspar::default().batch_row(&req, &s, &mut warm);
        let (first, acquired) = (fresh(&warm), warm.pool_stats().acquires);
        for _ in 0..20 {
            assert!(Maspar::default().batch_row(&req, &s, &mut warm).accepted);
        }
        assert!(acquired > 0 && warm.pool_stats().acquires == 21 * acquired);
        assert_eq!(fresh(&warm), first, "idle buffers grow with the batch");
    }

    #[test]
    fn batch_degrades_unsupported_sentences_instead_of_failing() {
        let g = paper::grammar();
        let lex = paper::lexicon(&g);
        let sentences = vec![
            paper::example_sentence(&g),
            lex.sentence("program the runs").unwrap(),
        ];
        let report = Maspar::default()
            .parse_batch(&sentences, &ParseRequest::new(&g).max_parses(10))
            .unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.outcomes[0].accepted);
        assert!(!report.outcomes[1].accepted);
    }
}
