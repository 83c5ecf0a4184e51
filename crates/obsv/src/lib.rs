//! Zero-dependency phase-level observability for the parsec engines.
//!
//! Three pieces, all process-global and all gated behind atomic enabled
//! flags so the disabled cost at an instrumentation site is a single
//! relaxed atomic load:
//!
//! * [`span()`] / [`span_with`] — nestable timed spans in the spirit of the
//!   `tracing` crate. Open spans live on a thread-local stack; completed
//!   root trees are merged into a global buffer when their guard drops, so
//!   worker threads synchronize once per root span. Drain with
//!   [`take_trace`].
//! * the metrics registry — [`counter_add`], [`gauge_set`],
//!   [`histogram_record`], snapshotted with [`snapshot`].
//! * exporters — [`render_tree`] for a human-readable phase tree and
//!   [`trace_to_json`] for the machine-readable [`SCHEMA`]
//!   (`parsec-trace-v1`) document embedded in BENCH output.
//!
//! The crate is intentionally std-only (like the repo's shim crates) so it
//! can sit below every engine crate without touching the offline dependency
//! policy.

pub mod export;
pub mod metrics;
pub mod span;

pub use export::{render_tree, trace_to_json, SCHEMA};
pub use metrics::{
    counter_add, gauge_max, gauge_set, histogram_record, metrics_enabled, reset_metrics,
    series_name, set_metrics, snapshot, Histogram, MetricsSnapshot,
};
pub use span::{
    set_tracing, span, span_with, take_trace, tracing_enabled, SpanGuard, SpanNode, Trace,
};
