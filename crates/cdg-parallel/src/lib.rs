//! Parallel CDG parsing — the paper's §2.1 CRCW P-RAM algorithm, realized
//! with rayon, plus a step-counted 2-D mesh emulation for the Figure 8
//! comparison.
//!
//! The P-RAM analysis assigns one (virtual) processor per pair of role
//! values — O(n⁴) processors — and observes that every phase is a flat,
//! independent sweep:
//!
//! * role-value generation: O(1) time, O(n²) processors;
//! * each unary constraint: O(1) time, O(n²) processors;
//! * each binary constraint: O(1) time, O(n⁴) processors;
//! * one consistency-maintenance step: O(1) time, O(n⁴) processors (the
//!   row-ORs and per-value ANDs are constant-time on a CRCW P-RAM);
//! * filtering: bounded iterations of the above.
//!
//! Total: O(k) parallel steps. On a real host rayon multiplexes those
//! virtual processors onto cores; [`pram::PramStats`] counts the *parallel
//! steps* and the *maximum width* (virtual processors) of each phase so the
//! benchmarks can verify the O(k) step bound independently of core count,
//! while wall-clock measurements show the data-parallel speedup.
//!
//! Determinism: every phase collects its decisions from a read-only
//! snapshot and applies them afterwards, so results are identical to the
//! sequential engine (tested, including proptest equivalence).

pub mod batch;
pub mod engine;
pub mod extract_par;
pub mod mesh;
pub mod pram;

pub use batch::{parse_batch, parse_batch_compiled};
pub use engine::Pram;
pub use extract_par::precedence_graphs_par;
pub use mesh::{MeshCdg, MeshStats};
pub use pram::{parse_pram, parse_pram_compiled, PramOutcome, PramStats};
