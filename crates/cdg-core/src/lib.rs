//! Sequential CDG parsing — the paper's §1.4 pipeline.
//!
//! Parsing a sentence of n words under a grammar with q roles, l labels per
//! role, and k constraints proceeds as:
//!
//! 1. **Network construction** ([`network`]): one node per word, q roles per
//!    node, each role initialized with every role value the table T allows —
//!    O(n²) role values in O(n²) time (Figure 1).
//! 2. **Unary constraint propagation** ([`propagate`]): every unary
//!    constraint checks every role value, eliminating violators —
//!    O(k_u · n²) (Figures 2–3).
//! 3. **Arc construction** ([`network`]): an arc with an all-ones matrix
//!    between every pair of distinct roles — O(n²) arcs, O(n⁴) entries
//!    (Figure 3).
//! 4. **Binary constraint propagation** ([`propagate`]): every binary
//!    constraint checks every pair of role values on every arc, zeroing
//!    incompatible entries — O(k_b · n⁴) (Figure 4).
//! 5. **Consistency maintenance** ([`consistency`]): a role value with an
//!    all-zero row in any incident arc matrix is removed and its rows and
//!    columns zeroed everywhere — O(n⁴) per pass (Figure 5).
//! 6. **Filtering** ([`consistency`]): consistency maintenance repeated to
//!    a fixpoint (optional; worst case O(n⁴), NC-hard in general, but
//!    empirically fewer than 10 passes — the basis of the paper's design
//!    decision to bound it by a constant on the MasPar).
//! 7. **Extraction** ([`extract`]): precedence graphs enumerated by
//!    backtracking over the surviving role values (Figures 6–7).
//!
//! The total is the paper's O(k · n⁴) sequential bound. [`stats::NetStats`]
//! counts every constraint check and matrix write so benchmarks can verify
//! the n⁴ shape independently of wall-clock noise.

pub mod api;
pub mod batch;
pub mod config;
pub mod consistency;
pub mod dot;
pub mod error;
pub mod extract;
pub mod kernel;
pub mod network;
pub mod parser;
pub mod pool;
pub mod propagate;
pub mod relax;
pub mod snapshot;
pub mod stats;
pub mod wire;

pub use api::{
    resolve_compiled, BatchReport, Engine, ParseReport, ParseRequest, Sequential, WarmState,
};
pub use batch::BatchOutcome;
pub use config::{ConfigError, EngineConfig, EngineConfigBuilder, SloClass, FAULT_HORIZON_OPS};
pub use consistency::{filter_incremental, IncrementalFilter};
pub use error::{BudgetResource, EngineError, ParseBudget};
pub use extract::PrecedenceGraph;
pub use network::{
    ArcMatrix, ArcView, EvalStrategy, FilterStrategy, NetParts, NetSlab, Network, SlotId,
};
pub use parser::{parse, FilterMode, ParseOptions, ParseOutcome};
pub use pool::{ArcPool, PoolStats};
pub use relax::{RelaxLadder, RelaxOutcome};
pub use stats::NetStats;
