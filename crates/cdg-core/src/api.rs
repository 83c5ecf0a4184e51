//! The unified engine API: one request type, one report type, one trait.
//!
//! The [`Engine`] trait is the one surface every backend parses through:
//!
//! ```text
//! ParseRequest (builder) ──> Engine::parse_warm(&mut WarmState) ──> ParseReport
//!                       \──> Engine::parse_batch ──> BatchReport
//! ```
//!
//! [`ParseRequest`] carries everything any backend needs — grammar,
//! sentence, [`ParseOptions`] (filter mode, eval strategy, budget), an
//! optional [`FaultPlan`] (MasPar engine only), a thread count hint, and
//! the observability toggles. [`ParseReport`] is the union of the old
//! outcome types: acceptance flags, the settled [`Network`], extracted
//! parses, budget/fault flags, and — when requested — the phase trace and
//! metrics snapshot from the `obsv` layer.
//!
//! An engine supplies one method, [`Engine::run`]: its parse body for
//! one sentence, drawing buffers from the caller's [`WarmState`]. The
//! trait owns everything around it: the sentence check, the observability
//! scope, the `parse` root span and the wall clock ([`Engine::parse_warm`],
//! [`Engine::parse`]), and the batch loop, whose rows are the same body
//! summarized ([`Engine::batch_row`], [`Engine::parse_batch`]).
//! [`Sequential`] and `cdg_parallel::Pram` run the one phase driver
//! through [`WarmState::run`] with their executor; the MasPar engine runs
//! its own driver and reads its network back. Every engine then builds
//! its report with [`ParseReport::from_outcome`], the one place that
//! extracts parses. [`crate::parse`] is the serial oracle the tests
//! compare against: a cold [`WarmState::run`] that returns the bare
//! outcome.

use crate::batch::BatchOutcome;
use crate::error::{EngineError, ParseBudget};
use crate::extract::PrecedenceGraph;
use crate::kernel::KernelScratch;
use crate::network::{EvalStrategy, FilterStrategy, NetSlab, Network};
use crate::parser::{parse_with_state, Executor, FilterMode, ParseOptions, ParseOutcome, Serial};
use crate::pool::PoolStats;
use crate::stats::NetStats;
use cdg_grammar::{compiled, CompiledGrammar, Grammar, Sentence};
use maspar_sim::{FaultPlan, MachineStats};
use obsv::{MetricsSnapshot, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

// The unified configuration surface lives in [`crate::config`]; it is
// re-exported here because `EngineConfig` is part of the engine API.
pub use crate::config::{
    ConfigError, EngineConfig, EngineConfigBuilder, SloClass, FAULT_HORIZON_OPS,
};

/// Everything needed to run one parse (or one batch) on any engine.
///
/// Build with the fluent methods:
///
/// ```
/// use cdg_core::api::{Engine, ParseRequest, Sequential};
/// use cdg_grammar::grammars::paper;
///
/// let grammar = paper::grammar();
/// let sentence = paper::example_sentence(&grammar);
/// let request = ParseRequest::new(&grammar)
///     .sentence(sentence)
///     .trace(true)
///     .max_parses(10);
/// let report = Sequential.parse(&request).unwrap();
/// assert!(report.accepted);
/// assert_eq!(report.parses.len(), 1);
/// let trace = report.trace.as_ref().unwrap();
/// assert!(trace.names().iter().any(|n| n == "binary_propagation"));
/// ```
#[derive(Debug, Clone)]
pub struct ParseRequest<'g> {
    pub grammar: &'g Grammar,
    /// The sentence for [`Engine::parse`]; [`Engine::parse_batch`] takes
    /// its sentences separately and ignores this field.
    pub sentence: Option<Sentence>,
    /// Pipeline options shared by all engines (filter mode, evaluation
    /// strategy, budget).
    pub options: ParseOptions,
    /// Fault schedule for the MasPar engine's detect-and-recover protocol.
    /// The host engines have no fault model and reject a request carrying
    /// one with [`EngineError::GrammarError`] rather than ignore it.
    pub faults: Option<FaultPlan>,
    /// Worker-pool width of a P-RAM batch's sentence fan-out (`None` =
    /// the process-wide width).
    pub threads: Option<usize>,
    /// Collect a phase trace ([`ParseReport::trace`]).
    pub trace: bool,
    /// Collect a metrics registry snapshot ([`ParseReport::metrics`]).
    pub metrics: bool,
    /// Cap on extracted precedence graphs per sentence.
    pub max_parses: usize,
    /// The grammar's compiled artifact (see
    /// [`cdg_grammar::compiled::CompiledGrammar`]). `None` (the default)
    /// makes every engine compile constraints per call — the oracle path.
    /// Attach one with [`ParseRequest::compiled`] (usually via
    /// [`resolve_compiled`]) and engines look programs up instead of
    /// recompiling; results are bit-identical either way.
    pub compiled: Option<Arc<CompiledGrammar>>,
}

impl<'g> ParseRequest<'g> {
    pub fn new(grammar: &'g Grammar) -> Self {
        ParseRequest {
            grammar,
            sentence: None,
            options: ParseOptions::default(),
            faults: None,
            threads: None,
            trace: false,
            metrics: false,
            max_parses: 10,
            compiled: None,
        }
    }

    /// Construct from the unified [`EngineConfig`] — the one shared path
    /// the CLI, the serve wire decoder, and programmatic callers use, so
    /// a config key is interpreted exactly once (in [`crate::config`]).
    pub fn with_config(grammar: &'g Grammar, config: &EngineConfig) -> Self {
        ParseRequest {
            grammar,
            sentence: None,
            options: config.parse_options(),
            faults: config.faults.clone(),
            threads: config.threads,
            trace: false,
            metrics: false,
            max_parses: config.max_parses,
            compiled: None,
        }
    }

    pub fn sentence(mut self, sentence: Sentence) -> Self {
        self.sentence = Some(sentence);
        self
    }

    pub fn options(mut self, options: ParseOptions) -> Self {
        self.options = options;
        self
    }

    pub fn filter(mut self, filter: FilterMode) -> Self {
        self.options.filter = filter;
        self
    }

    pub fn eval(mut self, eval: EvalStrategy) -> Self {
        self.options.eval = eval;
        self
    }

    pub fn filter_strategy(mut self, strategy: FilterStrategy) -> Self {
        self.options.filter_strategy = strategy;
        self
    }

    pub fn budget(mut self, budget: ParseBudget) -> Self {
        self.options.budget = budget;
        self
    }

    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    pub fn metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    pub fn max_parses(mut self, max_parses: usize) -> Self {
        self.max_parses = max_parses;
        self
    }

    /// Attach the grammar's compiled artifact so engines skip per-call
    /// constraint compilation (see [`resolve_compiled`]).
    pub fn compiled(mut self, compiled: Arc<CompiledGrammar>) -> Self {
        self.compiled = Some(compiled);
        self
    }

    /// The sentence, or the typed error every engine returns for a
    /// sentence-less single-parse request.
    pub fn require_sentence(&self) -> Result<&Sentence, EngineError> {
        self.sentence.as_ref().ok_or_else(|| {
            EngineError::GrammarError(
                "ParseRequest has no sentence; call .sentence(...) or use parse_batch".into(),
            )
        })
    }

    /// The typed rejection an engine without a fault model gives a
    /// fault-carrying request (see [`has_fault_model`]).
    fn reject_faults(&self, engine: &str) -> Result<(), EngineError> {
        if self.faults.is_some() && !has_fault_model(engine) {
            return Err(EngineError::GrammarError(format!(
                "engine `{engine}` has no fault model; fault injection requires the maspar engine"
            )));
        }
        Ok(())
    }
}

/// Whether the engine named `engine` runs a fault model and so takes a
/// [`FaultPlan`]: only the MasPar simulator does. Both the engines and the
/// config layer's `faults` key apply this one rule.
pub fn has_fault_model(engine: &str) -> bool {
    engine == "maspar"
}

/// Unified result of [`Engine::parse`] — the union of the phase driver's
/// `ParseOutcome` and the MasPar engine's `MasparOutcome`.
#[derive(Debug)]
pub struct ParseReport<'g> {
    /// Which engine produced this report (`"serial"`, `"pram"`, `"maspar"`).
    pub engine: &'static str,
    /// The settled network (for the MasPar engine: the host readback).
    pub network: Network<'g>,
    /// Constructive acceptance: at least one complete parse exists.
    pub accepted: bool,
    /// Some role kept more than one value.
    pub ambiguous: bool,
    /// The paper's necessary acceptance condition.
    pub roles_nonempty: bool,
    /// Whether filtering reached the fixpoint.
    pub locally_consistent: bool,
    /// Filtering passes (consistency-maintenance iterations) run.
    pub filter_passes: usize,
    /// `Some` when a [`ParseBudget`] limit cut the parse short; the network
    /// is then a usable partial result.
    pub degraded: Option<EngineError>,
    /// Whether fault detection/recovery had to intervene (MasPar engine;
    /// always `false` on the host engines).
    pub fault_recovered: bool,
    /// Up to [`ParseRequest::max_parses`] precedence graphs.
    pub parses: Vec<PrecedenceGraph>,
    /// Host wall time for the whole request.
    pub wall: Duration,
    /// Simulated-machine operation counters (MasPar engine only): what
    /// the fleet aggregates per shard. `None` on the host engines.
    pub machine_stats: Option<MachineStats>,
    /// Deterministic estimated MP-1 seconds (MasPar engine only).
    pub estimated_seconds: Option<f64>,
    /// Phase trace, when [`ParseRequest::trace`] was set.
    pub trace: Option<Trace>,
    /// Metrics snapshot, when [`ParseRequest::metrics`] was set.
    pub metrics: Option<MetricsSnapshot>,
}

impl<'g> ParseReport<'g> {
    /// An engine's report on its settled `outcome`, with up to
    /// `max_parses` parses: the one place any engine extracts. One search
    /// both decides acceptance and yields the parses; it seeks at least
    /// one parse, so `max_parses == 0` still answers acceptance. A
    /// degraded outcome certifies nothing (see [`ParseOutcome::parses`]):
    /// it is never accepted and carries no parses. Records the filter
    /// passes in the metrics registry. The caller fills in what only it
    /// knows: the MasPar engine's machine fields, and the wall time,
    /// trace and metrics, which [`Engine::parse_warm`] sets.
    pub fn from_outcome(
        engine: &'static str,
        outcome: ParseOutcome<'g>,
        max_parses: usize,
    ) -> Self {
        obsv::histogram_record("filter.passes", outcome.filter_passes as f64);
        let mut parses = outcome.parses(max_parses.max(1));
        let accepted = !parses.is_empty();
        parses.truncate(max_parses);
        ParseReport {
            engine,
            accepted,
            ambiguous: outcome.ambiguous(),
            roles_nonempty: outcome.roles_nonempty,
            locally_consistent: outcome.locally_consistent,
            filter_passes: outcome.filter_passes,
            degraded: outcome.degraded,
            fault_recovered: false,
            parses,
            wall: Duration::ZERO,
            machine_stats: None,
            estimated_seconds: None,
            trace: None,
            metrics: None,
            network: outcome.network,
        }
    }

    /// The abstract-operation counters of the settled network.
    pub fn stats(&self) -> &NetStats {
        &self.network.stats
    }

    /// Compact owned summary (the batch row type).
    pub fn summary(&self) -> BatchOutcome {
        BatchOutcome {
            accepted: self.accepted,
            ambiguous: self.ambiguous,
            roles_nonempty: self.roles_nonempty,
            locally_consistent: self.locally_consistent,
            filter_passes: self.filter_passes,
            degraded: self.degraded.is_some(),
            total_alive: self.network.total_alive(),
            parses: self.parses.clone(),
        }
    }
}

/// Result of [`Engine::parse_batch`]: per-sentence summaries plus
/// batch-level observability.
#[derive(Debug)]
pub struct BatchReport {
    pub engine: &'static str,
    /// Per-sentence outcomes, in input order.
    pub outcomes: Vec<BatchOutcome>,
    /// Host wall time for the whole batch.
    pub wall: Duration,
    /// Phase trace over the whole batch (one `parse` root per sentence;
    /// worker-thread roots merge on drop), when requested.
    pub trace: Option<Trace>,
    /// Metrics snapshot over the whole batch, when requested.
    pub metrics: Option<MetricsSnapshot>,
}

impl BatchReport {
    /// Run `rows` as `engine`'s batch under `req`: rejects a fault plan
    /// the engine cannot honour, arms the request's observability scope
    /// around the rows, counts the sentences and times the whole batch.
    /// [`Engine::parse_batch`] hands it the serial loop over
    /// [`Engine::batch_row`]; an engine that fans rows out hands it its own.
    pub fn collect(
        engine: &'static str,
        req: &ParseRequest<'_>,
        rows: impl FnOnce() -> Vec<BatchOutcome>,
    ) -> Result<Self, EngineError> {
        req.reject_faults(engine)?;
        let scope = ObsvScope::begin(req);
        let start = Instant::now();
        let outcomes = rows();
        obsv::counter_add("batch.sentences", outcomes.len() as u64);
        let wall = start.elapsed();
        let (trace, metrics) = scope.finish();
        Ok(BatchReport {
            engine,
            outcomes,
            wall,
            trace,
            metrics,
        })
    }

    pub fn accepted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.accepted).count()
    }

    pub fn degraded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.degraded).count()
    }

    /// Per-phase `(name, total dur_ns, count)` aggregated over every
    /// sentence of the batch, from the trace — empty when the batch ran
    /// untraced. Concurrent workers sum, so totals may exceed `wall`.
    pub fn phase_totals(&self) -> Vec<(String, u64, u64)> {
        self.trace
            .as_ref()
            .map_or_else(Vec::new, Trace::phase_totals)
    }
}

/// One parsing backend. Implemented by [`Sequential`] (this crate),
/// `cdg_parallel::Pram`, and `parsec_maspar::Maspar`.
///
/// An engine implements [`Engine::run`], its parse body for one sentence.
/// The provided methods own what every engine shares:
/// [`Engine::parse_warm`] checks the request, arms its observability
/// scope, opens the `parse` root span and times the body;
/// [`Engine::parse_batch`] runs [`Engine::batch_row`], the same body
/// summarized, once per sentence. An engine may override `parse_batch`
/// to fan rows out (the P-RAM engine fans out the serial engine's).
///
/// Span names are shared across implementations so traces are comparable
/// engine-to-engine (see DESIGN.md §11): `parse` (root), `network_build`,
/// `fault_probe` (maspar), `arc_init`, `unary_propagation`,
/// `binary_propagation`, `filtering` with `maintain` children, `verify`
/// (maspar, under faults), `readback` (maspar), `extraction`.
pub trait Engine {
    /// Short stable name, also the `engine` field of trace documents.
    fn name(&self) -> &'static str;

    /// The engine's parse body: parse `sentence` under `req` and report
    /// it through [`ParseReport::from_outcome`], drawing buffers from
    /// `warm`. The host engines run [`WarmState::run`] and record its
    /// work ledger; the MasPar simulator keeps its own per-thread machine
    /// and ignores `warm`. Called inside the `parse` root span with the
    /// request's observability armed; the report's wall time, trace and
    /// metrics are the caller's to fill in.
    fn run<'g>(
        &self,
        req: &ParseRequest<'g>,
        sentence: &Sentence,
        warm: &mut WarmState,
    ) -> Result<ParseReport<'g>, EngineError>;

    /// Parse `req.sentence` and report everything the engine knows,
    /// drawing buffers from the caller's [`WarmState`]: pooled arc
    /// matrices, the generation-stamped kernel scratch, and the network's
    /// slot storage survive from the previous request on this state.
    /// Every reused buffer is zeroed or generation-stamped on adoption, so
    /// the report is bit-identical to one on a fresh state. The report
    /// keeps its network until the caller hands it back with
    /// [`WarmState::recycle_report`].
    fn parse_warm<'g>(
        &self,
        req: &ParseRequest<'g>,
        warm: &mut WarmState,
    ) -> Result<ParseReport<'g>, EngineError> {
        let sentence = req.require_sentence()?;
        req.reject_faults(self.name())?;
        let scope = ObsvScope::begin(req);
        let start = Instant::now();
        let mut report = {
            let _root = obsv::span("parse");
            self.run(req, sentence, warm)?
        };
        report.wall = start.elapsed();
        (report.trace, report.metrics) = scope.finish();
        Ok(report)
    }

    /// [`Engine::parse_warm`] on a fresh [`WarmState`]: a cold parse.
    fn parse<'g>(&self, req: &ParseRequest<'g>) -> Result<ParseReport<'g>, EngineError> {
        self.parse_warm(req, &mut WarmState::new())
    }

    /// One batch row: [`Engine::run`] under its own `parse` root span,
    /// summarized, with the network handed back to `warm` for the next
    /// sentence. A sentence the engine cannot take (the MasPar layout, a
    /// blown budget pre-check, unrecoverable faults) becomes a rejected,
    /// degraded row instead of failing the whole batch.
    fn batch_row(
        &self,
        req: &ParseRequest<'_>,
        sentence: &Sentence,
        warm: &mut WarmState,
    ) -> BatchOutcome {
        let _root = obsv::span("parse");
        match self.run(req, sentence, warm) {
            Ok(mut report) => {
                // A batch keeps every row: `summary` clones the parses into
                // exact allocations; moving them kept the search's spare room.
                let row = report.summary();
                warm.recycle_report(&mut report);
                row
            }
            Err(_) => BatchOutcome::failed(),
        }
    }

    /// Parse a slice of sentences under one request (`req.sentence` is
    /// ignored), one [`Engine::batch_row`] after another on one
    /// [`WarmState`], returning the rows plus batch observability.
    fn parse_batch(
        &self,
        sentences: &[Sentence],
        req: &ParseRequest<'_>,
    ) -> Result<BatchReport, EngineError> {
        BatchReport::collect(self.name(), req, || {
            let mut warm = WarmState::new();
            sentences
                .iter()
                .map(|s| self.batch_row(req, s, &mut warm))
                .collect()
        })
    }
}

/// Per-worker state that survives across requests in warm serving: the
/// generation-stamped [`KernelScratch`], and the [`NetSlab`] of slot
/// storage and of the [`crate::ArcPool`] of stored arcs' matrices. One
/// request's buffers become the next request's free list. Reset is by
/// generation stamp (kernel) and explicit zeroing on acquire (pool), so
/// reuse cannot leak state between requests and results stay
/// bit-identical to a cold parse.
#[derive(Default)]
pub struct WarmState {
    scratch: KernelScratch,
    slab: NetSlab,
    parses: u64,
}

impl WarmState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests served on this state so far.
    pub fn parses(&self) -> u64 {
        self.parses
    }

    /// The warm pool's acquire/reuse/release ledger over every network
    /// handed back so far.
    pub fn pool_stats(&self) -> &PoolStats {
        self.slab.pool_stats()
    }

    /// Networks built out of recycled slot/pair storage so far.
    pub fn slab_reuses(&self) -> u64 {
        self.slab.reuses()
    }

    /// The storage this state recycles, for an engine that builds its
    /// network outside the phase driver ([`Network::build_in`]).
    pub fn slab(&mut self) -> &mut NetSlab {
        &mut self.slab
    }

    /// Run the phase driver on `sentence` under `req`'s grammar, options
    /// and artifact, with `exec` running the kernel steps and every buffer
    /// drawn from this state: the one way into the driver. Records what
    /// the parse drew from and gave back to the arc pool so far
    /// (`pool.acquires`, `pool.recycles`, `pool.releases`; the stored arcs
    /// are released when the network is handed back) and, from the second
    /// request on, the warm reuse counters
    /// (`warm.pool.reuses`, `warm.slab.reuses`, `warm.scratch.reuses`).
    pub fn run<'g, E: Executor>(
        &mut self,
        req: &ParseRequest<'g>,
        sentence: &Sentence,
        exec: &mut E,
    ) -> ParseOutcome<'g> {
        let slab_before = self.slab.reuses();
        let mut outcome = parse_with_state(req, sentence, &mut self.scratch, &mut self.slab, exec);
        let drawn = self.slab.count_draws(&mut outcome.network);
        let (acquired, reused) = (drawn.acquires as u64, drawn.reuses as u64);
        obsv::counter_add("pool.acquires", acquired);
        obsv::counter_add("pool.recycles", reused);
        obsv::counter_add("pool.releases", drawn.releases as u64);
        if self.parses > 0 {
            obsv::counter_add("warm.pool.reuses", reused);
            obsv::counter_add("warm.slab.reuses", self.slab.reuses() - slab_before);
            obsv::counter_add("warm.scratch.reuses", 1);
        }
        self.parses += 1;
        outcome
    }

    /// Hand a consumed report's network allocations back to this warm
    /// state: stored arcs' matrices, slot and pair storage to the slab.
    /// Call once the response has been rendered — the report's network is
    /// left empty (in particular [`ParseReport::summary`] would read
    /// zero alive values afterwards).
    pub fn recycle_report(&mut self, report: &mut ParseReport<'_>) {
        let released = self.pool_stats().releases;
        report.network.reclaim(&mut self.slab);
        obsv::counter_add(
            "pool.releases",
            (self.pool_stats().releases - released) as u64,
        );
    }
}

/// Resolve the process-wide compiled artifact for `grammar` (building it
/// on first sight of this content hash) and record the outcome in the
/// metrics registry: `compile.cache.hits`, `compile.cache.misses`, and
/// `compile.cache.build_ns` (build time, misses only). Attach the result
/// to requests with [`ParseRequest::compiled`].
pub fn resolve_compiled(grammar: &Grammar) -> Arc<CompiledGrammar> {
    let resolved = compiled::resolve(grammar);
    if resolved.cache_hit {
        obsv::counter_add("compile.cache.hits", 1);
    } else {
        obsv::counter_add("compile.cache.misses", 1);
        obsv::counter_add("compile.cache.build_ns", resolved.build_ns);
    }
    resolved.artifact
}

/// RAII scope that arms the `obsv` layer per [`ParseRequest`] and restores
/// it on the way out — including on early error returns, so a failed parse
/// never leaves tracing enabled process-wide. [`Engine::parse_warm`] and
/// [`BatchReport::collect`] open one around the engine's work.
#[derive(Debug)]
struct ObsvScope {
    trace: bool,
    metrics: bool,
    finished: bool,
}

impl ObsvScope {
    fn begin(req: &ParseRequest<'_>) -> Self {
        if req.trace {
            // Drop any stale roots so the collected trace is this parse's.
            let _ = obsv::take_trace();
            obsv::set_tracing(true);
        }
        if req.metrics {
            obsv::reset_metrics();
            obsv::set_metrics(true);
        }
        ObsvScope {
            trace: req.trace,
            metrics: req.metrics,
            finished: false,
        }
    }

    /// Disarm and collect. Call after the parse body completes.
    fn finish(mut self) -> (Option<Trace>, Option<MetricsSnapshot>) {
        self.finished = true;
        let trace = if self.trace {
            obsv::set_tracing(false);
            Some(obsv::take_trace())
        } else {
            None
        };
        let metrics = if self.metrics {
            obsv::set_metrics(false);
            Some(obsv::snapshot())
        } else {
            None
        };
        (trace, metrics)
    }
}

impl Drop for ObsvScope {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        if self.trace {
            obsv::set_tracing(false);
            let _ = obsv::take_trace();
        }
        if self.metrics {
            obsv::set_metrics(false);
        }
    }
}

/// Feed one parse's [`NetStats`] into the metrics registry (no-op while
/// metrics are disabled). The names are the registry's stable vocabulary.
pub fn record_net_stats(stats: &NetStats) {
    obsv::counter_add("checks.unary", stats.unary_checks as u64);
    obsv::counter_add("checks.binary", stats.binary_checks as u64);
    obsv::counter_add("checks.support", stats.support_checks as u64);
    obsv::counter_add("removals", stats.removals as u64);
    obsv::counter_add("entries.zeroed", stats.entries_zeroed as u64);
    obsv::counter_add("kernel.masks", stats.kernel_masks as u64);
    obsv::counter_add("kernel.memo_hits", stats.kernel_memo_hits as u64);
    obsv::counter_add("filter.iterations", stats.maintain_passes as u64);
    obsv::counter_add("bmm.tiles", stats.bmm_tiles as u64);
    obsv::counter_add("bmm.words", stats.bmm_words as u64);
}

/// The sequential engine (the paper's §1.4 pipeline).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl Engine for Sequential {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn run<'g>(
        &self,
        req: &ParseRequest<'g>,
        sentence: &Sentence,
        warm: &mut WarmState,
    ) -> Result<ParseReport<'g>, EngineError> {
        let outcome = warm.run(req, sentence, &mut Serial);
        record_net_stats(&outcome.network.stats);
        Ok(ParseReport::from_outcome(
            self.name(),
            outcome,
            req.max_parses,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_grammar::grammars::{english, paper};
    use std::sync::Mutex;

    // The obsv layer is process-global; tests that arm it are serialized.
    static OBSV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn request_without_sentence_is_a_typed_error() {
        let g = paper::grammar();
        let req = ParseRequest::new(&g);
        match Sequential.parse(&req) {
            Err(EngineError::GrammarError(msg)) => assert!(msg.contains("no sentence")),
            other => panic!("expected GrammarError, got {other:?}"),
        }
    }

    #[test]
    fn report_matches_the_legacy_entry_point() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("the dog runs in the park").unwrap();
        let legacy = crate::parse(&g, &s, ParseOptions::default());
        let report = Sequential
            .parse(&ParseRequest::new(&g).sentence(s).max_parses(100))
            .unwrap();
        assert_eq!(report.accepted, legacy.accepted());
        assert_eq!(report.ambiguous, legacy.ambiguous());
        assert_eq!(report.filter_passes, legacy.filter_passes);
        assert_eq!(report.parses, legacy.parses(100));
        assert_eq!(report.network.total_alive(), legacy.network.total_alive());
        assert!(report.trace.is_none() && report.metrics.is_none());
    }

    #[test]
    fn trace_covers_the_paper_phases() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let report = Sequential
            .parse(&ParseRequest::new(&g).sentence(s).trace(true))
            .unwrap();
        let trace = report.trace.expect("trace requested");
        let names = trace.names();
        for phase in [
            "parse",
            "network_build",
            "unary_propagation",
            "arc_init",
            "binary_propagation",
            "filtering",
            "maintain",
            "extraction",
        ] {
            assert!(names.iter().any(|n| n == phase), "missing span `{phase}`");
        }
        // Tracing must be disarmed afterwards.
        assert!(!obsv::tracing_enabled());
    }

    #[test]
    fn metrics_snapshot_reports_work_counters() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let report = Sequential
            .parse(&ParseRequest::new(&g).sentence(s).metrics(true))
            .unwrap();
        let snap = report.metrics.expect("metrics requested");
        assert!(snap.counter("checks.unary").unwrap() > 0);
        assert!(snap.counter("checks.binary").unwrap() > 0);
        assert!(snap.counter("removals").unwrap() > 0);
        assert!(!obsv::metrics_enabled());
    }

    #[test]
    fn warm_parse_matches_cold_and_reuses_buffers() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let compiled = resolve_compiled(&g);
        let mut warm = WarmState::new();
        for text in ["the dog runs", "she sleeps", "the dog runs in the park"] {
            let s = lex.sentence(text).unwrap();
            let cold = Sequential
                .parse(&ParseRequest::new(&g).sentence(s.clone()).max_parses(10))
                .unwrap();
            let req = ParseRequest::new(&g)
                .sentence(s)
                .max_parses(10)
                .compiled(Arc::clone(&compiled));
            let mut hot = Sequential.parse_warm(&req, &mut warm).unwrap();
            assert_eq!(cold.accepted, hot.accepted);
            assert_eq!(cold.ambiguous, hot.ambiguous);
            assert_eq!(cold.filter_passes, hot.filter_passes);
            assert_eq!(cold.parses, hot.parses);
            assert_eq!(
                cold.network.total_alive(),
                hot.network.total_alive(),
                "warm reuse must be bit-identical to a cold parse"
            );
            warm.recycle_report(&mut hot);
        }
        assert_eq!(warm.parses(), 3);
        assert!(
            warm.pool_stats().reuses > 0,
            "second request should re-acquire the first request's arcs"
        );
    }

    #[test]
    fn attached_artifact_and_warm_batch_change_no_outcome() {
        // A batch with the artifact attached, one without it, and
        // per-sentence warm parses all answer alike.
        let _l = OBSV_LOCK.lock().unwrap();
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let sentences: Vec<Sentence> = [
            "the dog runs",
            "dog the runs",
            "the watch runs",
            "the big red dog sees a small cat",
            "they often watch dogs near the table",
        ]
        .iter()
        .map(|t| lex.sentence(t).unwrap())
        .collect();
        let compiled = resolve_compiled(&g);
        let req = ParseRequest::new(&g).max_parses(10);
        let cold = Sequential.parse_batch(&sentences, &req).unwrap().outcomes;
        let req = req.compiled(compiled);
        let attached = Sequential.parse_batch(&sentences, &req).unwrap().outcomes;
        assert_eq!(cold, attached);
        let mut warm = WarmState::new();
        for (s, want) in sentences.iter().zip(&cold) {
            let req = req.clone().sentence(s.clone());
            let report = Sequential.parse_warm(&req, &mut warm).unwrap();
            assert_eq!(&report.summary(), want, "`{s}`");
        }
    }

    #[test]
    fn batch_report_summarizes_and_totals_phases() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let sentences = vec![
            lex.sentence("the dog runs").unwrap(),
            lex.sentence("dog the runs").unwrap(),
            lex.sentence("she sleeps").unwrap(),
        ];
        let req = ParseRequest::new(&g).trace(true).max_parses(10);
        let report = Sequential.parse_batch(&sentences, &req).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.accepted(), 2);
        let totals = report.phase_totals();
        let parse_row = totals.iter().find(|(n, _, _)| n == "parse").unwrap();
        assert_eq!(parse_row.2, 3, "one parse root per sentence");
        assert!(totals.iter().any(|(n, _, _)| n == "binary_propagation"));
    }
}
