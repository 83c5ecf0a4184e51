//! Parallel CDG parsing — the paper's §2.1 CRCW P-RAM algorithm as a
//! round ledger over the serial kernels, plus a step-counted 2-D mesh
//! emulation for the Figure 8 comparison.
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
//! engines here are step ledgers over the one phase driver, which
//! `cdg_core::api::WarmState::run` enters and which holds the sequence,
//! the serial kernels, the budgets and the spans. [`pram::PramStats`]
//! counts the *parallel steps* and the *maximum width* (virtual
//! processors) of each phase, so the benchmarks verify the O(k) step
//! bound independently of core count; [`mesh::MeshStats`] counts mesh
//! cell steps. Neither runs a step on host threads: one step's work is
//! too small to pay for handing it to workers. P-RAM parallelises only
//! batches, one sentence per worker ([`Pram`]'s `parse_batch`).
//!
//! Determinism: every engine runs the serial kernels, so the network and
//! its `NetStats` ledger are the sequential engine's, and a batch's rows
//! are independent of the thread count (tested, including proptest
//! equivalence). Extraction is the serial backtracking search on the
//! settled network, as on the paper's front end, so every engine returns
//! the same parses.

pub mod engine;
pub mod mesh;
pub mod pram;

pub use engine::Pram;
pub use mesh::{MeshCdg, MeshStats};
pub use pram::PramStats;
