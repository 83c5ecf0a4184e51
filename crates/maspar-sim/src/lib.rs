//! A deterministic simulator of the MasPar MP-1.
//!
//! The MP-1 (1990) was a massively parallel SIMD computer: up to 16,384
//! 4-bit processing elements (PEs), each with 16 KB of local memory, driven
//! by an Array Control Unit (ACU) that broadcasts one instruction stream to
//! the whole array, with a *global router* providing arbitrary-permutation
//! communication and the `scanOr()`/`scanAnd()` segmented-scan primitives
//! the paper's parsing algorithm is built on. The hardware no longer
//! exists; this crate is the substitution substrate (see DESIGN.md): it
//! executes MP-1-style programs faithfully and *counts* what the machine
//! would have done, so the paper's step-complexity claims — O(k + log n)
//! parsing, the ⌈virtual PEs / 16384⌉ virtualization staircase — are
//! reproduced structurally, and a calibrated cost model converts the counts
//! into estimated MP-1 wall time (anchored to the paper's reported 0.15 s
//! example-sentence parse).
//!
//! Programming model (mirroring MPL, MasPar's C extension):
//!
//! * a [`Machine`] owns the PE array state: virtual PE count, the activity
//!   set (which PEs execute the current broadcast instruction), and the
//!   operation counters;
//! * [`Plural<T>`] is a *plural* value — one `T` per virtual PE, living in
//!   simulated PE-local memory (allocation is charged against the 16 KB
//!   per-PE budget, scaled by the virtualization factor);
//! * plural operations ([`Machine::par_map`] and friends) execute one
//!   broadcast instruction across all *active* PEs — on the host they run
//!   data-parallel under rayon, which is safe because each PE touches only
//!   its own slot;
//! * [`Machine::with_activity`] implements MPL's plural `if`: it narrows
//!   the activity set for the duration of a closure (PEs where the
//!   condition is false simply sit out the broadcast instructions);
//! * segmented [`Machine::scan_or`]/[`Machine::scan_and`] reduce within
//!   segments and deposit the result at each segment's boundary PE,
//!   costing ⌈log₂ #PE⌉ router passes — the paper's logarithmic primitive;
//! * [`Machine::gather`] is the global router: every active PE fetches a
//!   value from an arbitrary source PE in one routed operation.
//!
//! Everything is deterministic: no randomness, no dependence on rayon's
//! scheduling (each PE writes only its own slot; reductions are
//! order-independent).
//!
//! # Fault injection
//!
//! A real 16,384-PE array fails in parts, not as a whole. The [`fault`]
//! module provides a seeded, deterministic [`FaultPlan`] — dead PEs,
//! transient router-payload corruption, PE-memory bit flips — that a
//! [`Machine`] can arm ([`Machine::arm_faults`]); every injected event is
//! counted in [`MachineStats`], and programs detect and recover using
//! [`Machine::probe_pes`] / [`Machine::retire_pes`] plus their own
//! redundant execution (see `parsec-maspar`'s checked engine). With no
//! plan armed the simulator's behaviour and costs are bit-identical to
//! the fault-free original.

pub mod bits;
pub mod fault;
pub mod machine;
pub mod plural;
pub mod scan;
pub mod stats;

pub use bits::PluralBits;
pub use fault::{Fault, FaultPlan, FaultWord};
pub use machine::{Machine, MachineConfig, TraceEntry};
pub use plural::Plural;
pub use scan::SegmentMap;
pub use stats::{CostModel, MachineStats};
