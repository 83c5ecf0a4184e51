//! The unified engine API: one request type, one report type, one trait.
//!
//! Historically each backend grew its own entry point and option struct:
//! [`crate::parse`]/[`crate::parse_with_pool`] here,
//! `cdg_parallel::parse_pram`, and `parsec_maspar::parse_maspar_checked`
//! with `MasparOptions`. The [`Engine`] trait collapses those three
//! surfaces into one:
//!
//! ```text
//! ParseRequest (builder) ──> Engine::parse ──> ParseReport
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
//! The engines are thin: [`Sequential`] and `cdg_parallel::Pram` run the
//! one phase driver ([`parse_with_state`]) with their executor, the MasPar
//! engine runs its own. The free functions call the same drivers and
//! return the bare outcome; new code should construct a request and pick
//! an engine.

use crate::batch::BatchOutcome;
use crate::error::{EngineError, ParseBudget};
use crate::extract::PrecedenceGraph;
use crate::kernel::KernelScratch;
use crate::network::{EvalStrategy, FilterStrategy, NetSlab, Network};
use crate::parser::{parse_with_state, FilterMode, ParseOptions, ParseOutcome, Serial};
use crate::pool::{ArcPool, PoolStats};
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
    /// Worker thread hint for batch parsing (`None` = all cores).
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

    /// The typed rejection host engines give a fault-carrying request.
    pub fn reject_faults(&self, engine: &str) -> Result<(), EngineError> {
        if self.faults.is_some() {
            return Err(EngineError::GrammarError(format!(
                "engine `{engine}` has no fault model; fault injection requires the maspar engine"
            )));
        }
        Ok(())
    }
}

/// Unified result of [`Engine::parse`] — the union of the old
/// `ParseOutcome`, `PramOutcome`, and `MasparOutcome` surfaces.
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
    /// A host engine's report on its driver `outcome` (see
    /// [`parse_with_state`]): records the `NetStats` ledger and the filter
    /// passes in the metrics registry, then closes `scope`. `accepted` is
    /// settled by the caller, which may have reclaimed the arc matrices
    /// since.
    pub fn from_outcome(
        engine: &'static str,
        outcome: ParseOutcome<'g>,
        accepted: bool,
        parses: Vec<PrecedenceGraph>,
        start: Instant,
        scope: ObsvScope,
    ) -> Self {
        record_net_stats(&outcome.network.stats);
        obsv::histogram_record("filter.passes", outcome.filter_passes as f64);
        let (trace, metrics) = scope.finish();
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
            wall: start.elapsed(),
            machine_stats: None,
            estimated_seconds: None,
            trace,
            metrics,
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
/// Span names are shared across implementations so traces are comparable
/// engine-to-engine (see DESIGN.md §11): `parse` (root), `network_build`,
/// `fault_probe` (maspar), `arc_init`, `unary_propagation`,
/// `binary_propagation`, `filtering` with `maintain` children, `verify`
/// (maspar, under faults), `extraction`.
pub trait Engine {
    /// Short stable name, also the `engine` field of trace documents.
    fn name(&self) -> &'static str;

    /// Parse `req.sentence` and report everything the engine knows.
    fn parse<'g>(&self, req: &ParseRequest<'g>) -> Result<ParseReport<'g>, EngineError>;

    /// Parse a slice of sentences under one request (`req.sentence` is
    /// ignored), returning per-sentence summaries plus batch observability.
    fn parse_batch(
        &self,
        sentences: &[Sentence],
        req: &ParseRequest<'_>,
    ) -> Result<BatchReport, EngineError>;

    /// Parse `req.sentence` reusing the caller's [`WarmState`] — pooled
    /// arc matrices, the generation-stamped kernel scratch, and the
    /// network's slot storage survive from the previous request on this
    /// state.
    /// Results are bit-identical to [`Engine::parse`]; the default simply
    /// delegates there for engines with no warm path (PRAM's rayon workers
    /// and the MasPar simulator keep their own per-call state).
    fn parse_warm<'g>(
        &self,
        req: &ParseRequest<'g>,
        warm: &mut WarmState,
    ) -> Result<ParseReport<'g>, EngineError> {
        let _ = warm;
        self.parse(req)
    }
}

/// Per-worker state that survives across requests in warm serving: the
/// [`ArcPool`] of recycled arc matrices, the generation-stamped
/// [`KernelScratch`], and the [`NetSlab`] of slot storage. One request's
/// buffers become the next request's free list. Reset is by generation
/// stamp (kernel) and explicit zeroing on acquire (pool), so reuse cannot
/// leak state between requests and results stay bit-identical to a cold
/// parse.
#[derive(Default)]
pub struct WarmState {
    pool: ArcPool,
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

    /// The warm pool's acquire/reuse/release ledger.
    pub fn pool_stats(&self) -> &PoolStats {
        &self.pool.stats
    }

    /// Networks built out of recycled slot/pair storage so far.
    pub fn slab_reuses(&self) -> u64 {
        self.slab.reuses()
    }

    /// Parse `sentence` on this state and summarize it with up to
    /// `max_parses` parses, then hand the network's storage back for the
    /// next sentence: one step of a batch. `compiled` is the grammar's
    /// artifact (`None` compiles each constraint per parse — the oracle).
    pub fn summarize(
        &mut self,
        grammar: &Grammar,
        sentence: &Sentence,
        options: ParseOptions,
        max_parses: usize,
        compiled: Option<Arc<CompiledGrammar>>,
    ) -> BatchOutcome {
        // One root span per sentence so batch traces aggregate cleanly
        // (see `Engine::parse_batch`).
        let _root = obsv::span("parse");
        let mut outcome = parse_with_state(
            grammar,
            sentence,
            options,
            compiled,
            &mut self.pool,
            &mut self.scratch,
            &mut self.slab,
            &mut Serial,
        );
        let summary = BatchOutcome::summarize(&outcome, max_parses);
        outcome.network.reclaim_arcs(&mut self.pool);
        outcome.network.reclaim_slab(&mut self.slab);
        summary
    }

    /// Hand a consumed report's network allocations back to this warm
    /// state: arc matrices to the pool, slot/pair storage to the slab.
    /// Call once the response has been rendered — the report's network is
    /// left empty (in particular [`ParseReport::summary`] would read
    /// zero alive values afterwards).
    pub fn recycle_report(&mut self, report: &mut ParseReport<'_>) {
        report.network.reclaim_arcs(&mut self.pool);
        report.network.reclaim_slab(&mut self.slab);
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
/// never leaves tracing enabled process-wide. Engine implementations call
/// [`ObsvScope::begin`] first and [`ObsvScope::finish`] last.
#[derive(Debug)]
pub struct ObsvScope {
    trace: bool,
    metrics: bool,
    finished: bool,
}

impl ObsvScope {
    pub fn begin(req: &ParseRequest<'_>) -> Self {
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
    pub fn finish(mut self) -> (Option<Trace>, Option<MetricsSnapshot>) {
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

/// Feed an [`ArcPool`]'s counters into the registry.
pub fn record_pool_stats(stats: &PoolStats) {
    obsv::counter_add("pool.acquires", stats.acquires as u64);
    obsv::counter_add("pool.recycles", stats.reuses as u64);
    obsv::counter_add("pool.releases", stats.releases as u64);
}

/// The sequential engine (the paper's §1.4 pipeline).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl Engine for Sequential {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn parse<'g>(&self, req: &ParseRequest<'g>) -> Result<ParseReport<'g>, EngineError> {
        let sentence = req.require_sentence()?;
        req.reject_faults(self.name())?;
        let scope = ObsvScope::begin(req);
        let start = Instant::now();
        let mut pool = ArcPool::new();
        let (outcome, parses) = {
            let _root = obsv::span("parse");
            let outcome = parse_with_state(
                req.grammar,
                sentence,
                req.options,
                req.compiled.clone(),
                &mut pool,
                &mut KernelScratch::new(),
                &mut NetSlab::default(),
                &mut Serial,
            );
            let parses = outcome.parses(req.max_parses);
            (outcome, parses)
        };
        record_pool_stats(&pool.stats);
        let accepted = outcome.accepted();
        Ok(ParseReport::from_outcome(
            self.name(),
            outcome,
            accepted,
            parses,
            start,
            scope,
        ))
    }

    fn parse_batch(
        &self,
        sentences: &[Sentence],
        req: &ParseRequest<'_>,
    ) -> Result<BatchReport, EngineError> {
        req.reject_faults(self.name())?;
        let scope = ObsvScope::begin(req);
        let start = Instant::now();
        let mut warm = WarmState::new();
        let outcomes = crate::batch::parse_batch_warm(
            req.grammar,
            sentences,
            req.options,
            req.max_parses,
            req.compiled.clone(),
            &mut warm,
        );
        record_pool_stats(warm.pool_stats());
        obsv::counter_add("batch.sentences", sentences.len() as u64);
        let (trace, metrics) = scope.finish();
        Ok(BatchReport {
            engine: self.name(),
            outcomes,
            wall: start.elapsed(),
            trace,
            metrics,
        })
    }

    fn parse_warm<'g>(
        &self,
        req: &ParseRequest<'g>,
        warm: &mut WarmState,
    ) -> Result<ParseReport<'g>, EngineError> {
        let sentence = req.require_sentence()?;
        req.reject_faults(self.name())?;
        let scope = ObsvScope::begin(req);
        let start = Instant::now();
        let pool_reuses_before = warm.pool.stats.reuses;
        let slab_reuses_before = warm.slab.reuses();
        let (mut outcome, parses) = {
            let _root = obsv::span("parse");
            let outcome = parse_with_state(
                req.grammar,
                sentence,
                req.options,
                req.compiled.clone(),
                &mut warm.pool,
                &mut warm.scratch,
                &mut warm.slab,
                &mut Serial,
            );
            let parses = outcome.parses(req.max_parses);
            (outcome, parses)
        };
        // Acceptance reads the arc matrices, so settle it before handing
        // them back to the warm pool for the next request.
        let accepted = outcome.accepted();
        outcome.network.reclaim_arcs(&mut warm.pool);
        if warm.parses > 0 {
            obsv::counter_add(
                "warm.pool.reuses",
                (warm.pool.stats.reuses - pool_reuses_before) as u64,
            );
            obsv::counter_add("warm.slab.reuses", warm.slab.reuses() - slab_reuses_before);
            obsv::counter_add("warm.scratch.reuses", 1);
        }
        warm.parses += 1;
        record_pool_stats(&warm.pool.stats);
        Ok(ParseReport::from_outcome(
            self.name(),
            outcome,
            accepted,
            parses,
            start,
            scope,
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
    fn faults_are_rejected_by_the_host_engine() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let req = ParseRequest::new(&g)
            .sentence(s)
            .faults(FaultPlan::new().with_dead_pe(3));
        match Sequential.parse(&req) {
            Err(EngineError::GrammarError(msg)) => assert!(msg.contains("fault")),
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
            let hot = Sequential.parse_warm(&req, &mut warm).unwrap();
            assert_eq!(cold.accepted, hot.accepted);
            assert_eq!(cold.ambiguous, hot.ambiguous);
            assert_eq!(cold.filter_passes, hot.filter_passes);
            assert_eq!(cold.parses, hot.parses);
            assert_eq!(
                cold.network.total_alive(),
                hot.network.total_alive(),
                "warm reuse must be bit-identical to a cold parse"
            );
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
