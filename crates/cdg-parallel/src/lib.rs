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
//! Total: O(k) parallel steps. That is the sequential algorithm with each
//! phase's loop run in parallel, and the code is built the same way: both
//! engines here are executors of the one phase driver, which
//! `cdg_core::api::WarmState::run` enters and which holds the sequence,
//! the budgets and the spans. [`pram::PramStats`] runs the unary kernel
//! slot-parallel and the pairwise kernel and the filter sweep
//! arc-parallel, and counts the *parallel steps* and the *maximum width*
//! (virtual processors) of each phase, so the benchmarks can verify the
//! O(k) step bound independently of core count while wall-clock
//! measurements show the data-parallel speedup. [`mesh::MeshStats`] runs
//! the serial kernels and counts mesh cell steps.
//!
//! Determinism: every parallel step reads a frozen view and folds its
//! workers' results in slot or arc order, so the network and its
//! `NetStats` ledger are the sequential engine's at any thread count
//! (tested, including proptest equivalence). Extraction is the serial
//! backtracking search on the settled network, as on the paper's front
//! end, so every engine returns the same parses.

pub mod engine;
pub mod mesh;
pub mod pram;

pub use engine::Pram;
pub use mesh::{MeshCdg, MeshStats};
pub use pram::PramStats;
