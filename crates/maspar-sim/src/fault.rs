//! Deterministic fault injection for the simulated MP-1.
//!
//! A real 16,384-PE array sees hardware faults: PEs die, router payloads
//! get corrupted in flight, and alpha particles flip bits in PE-local
//! memory. The MP-1's marketing leaned on its diagnostic hardware; a
//! simulator can go further and make faults *reproducible*. A [`FaultPlan`]
//! is a fixed, seeded schedule of faults:
//!
//! * [`Fault::DeadPe`] — a physical PE that never executes a broadcast
//!   instruction. Its local memory is frozen; scans and reductions skip it
//!   (it contributes the identity); the router cannot deliver to it.
//!   Dead PEs are dead from power-on: the damage is *persistent* and
//!   therefore invisible to time redundancy, which is why programs must
//!   probe for them (see [`crate::Machine::probe_pes`]).
//! * [`Fault::RouterCorrupt`] — the payload delivered to one physical PE
//!   by one specific communication instruction (a gather, a scan's
//!   boundary deposit or a reduction's result) is XORed with a mask.
//!   Transient: keyed to a single global instruction count, it fires at
//!   most once.
//! * [`Fault::MemoryFlip`] — one bit of the word a physical PE writes
//!   during one specific broadcast instruction is flipped. Also transient.
//!
//! Transient faults are keyed to the machine's *global instruction
//! counter* ([`crate::Machine::op_count`]), which only ever increases.
//! Re-executing a phase therefore replays it at fresh instruction counts,
//! past any fault that already fired — the property that makes
//! detect-and-retry recovery converge.
//!
//! Everything here is deterministic: [`FaultPlan::seeded`] expands a seed
//! through a SplitMix64 stream (inlined so this crate stays
//! dependency-free), and the same seed always yields the same plan.

use std::collections::BTreeSet;
use std::fmt;

/// One injected hardware fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Physical PE `phys` is dead from power-on.
    DeadPe { phys: usize },
    /// The payload delivered to `phys` by the communication instruction
    /// with global count `at_op` is XORed with `mask`.
    RouterCorrupt { at_op: u64, phys: usize, mask: u64 },
    /// Bit `bit` of the word `phys` writes during instruction `at_op` is
    /// flipped.
    MemoryFlip { at_op: u64, phys: usize, bit: u32 },
}

/// A deterministic schedule of injected faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    dead: BTreeSet<usize>,
}

/// The SplitMix64 step — inlined so `maspar-sim` needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (arming it still switches the machine onto the
    /// fault-checked execution path).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a dead physical PE.
    pub fn with_dead_pe(mut self, phys: usize) -> Self {
        self.dead.insert(phys);
        self.faults.push(Fault::DeadPe { phys });
        self
    }

    /// Add a transient router-payload corruption.
    pub fn with_router_corrupt(mut self, at_op: u64, phys: usize, mask: u64) -> Self {
        self.faults.push(Fault::RouterCorrupt { at_op, phys, mask });
        self
    }

    /// Add a transient single-bit memory flip.
    pub fn with_memory_flip(mut self, at_op: u64, phys: usize, bit: u32) -> Self {
        self.faults.push(Fault::MemoryFlip { at_op, phys, bit });
        self
    }

    /// Expand `seed` into a random mixture of faults over `phys_pes`
    /// physical PEs and the first `horizon_ops` instructions: up to 3 dead
    /// PEs and up to 4 each of router corruptions and memory flips. Same
    /// seed, same plan, always.
    pub fn seeded(seed: u64, phys_pes: usize, horizon_ops: u64) -> Self {
        assert!(phys_pes > 0, "a fault plan needs at least one physical PE");
        let horizon = horizon_ops.max(1);
        let mut s = seed;
        let mut plan = FaultPlan::new();
        let n_dead = splitmix64(&mut s) % 4; // 0..=3
        for _ in 0..n_dead {
            plan = plan.with_dead_pe(splitmix64(&mut s) as usize % phys_pes);
        }
        let n_router = splitmix64(&mut s) % 5; // 0..=4
        for _ in 0..n_router {
            let at_op = 1 + splitmix64(&mut s) % horizon;
            let phys = splitmix64(&mut s) as usize % phys_pes;
            let mask = splitmix64(&mut s) | 1; // never a no-op
            plan = plan.with_router_corrupt(at_op, phys, mask);
        }
        let n_flip = splitmix64(&mut s) % 5; // 0..=4
        for _ in 0..n_flip {
            let at_op = 1 + splitmix64(&mut s) % horizon;
            let phys = splitmix64(&mut s) as usize % phys_pes;
            let bit = (splitmix64(&mut s) % 64) as u32;
            plan = plan.with_memory_flip(at_op, phys, bit);
        }
        plan
    }

    /// Parse a CLI-style spec: either a bare integer seed, or
    /// comma-separated `key=value` pairs with keys `seed`, `dead`
    /// (dead PE id, repeatable), `router` (`op:phys:mask`), and `flip`
    /// (`op:phys:bit`). Examples: `42`, `seed=7`,
    /// `dead=3,router=120:5:255,flip=80:3:17`.
    pub fn parse_spec(spec: &str, phys_pes: usize, horizon_ops: u64) -> Result<Self, String> {
        if let Ok(seed) = spec.trim().parse::<u64>() {
            return Ok(FaultPlan::seeded(seed, phys_pes, horizon_ops));
        }
        let mut plan = FaultPlan::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let int = |v: &str| -> Result<u64, String> {
                v.parse::<u64>()
                    .map_err(|_| format!("`{v}` in fault spec `{part}` is not an integer"))
            };
            let in_range = |pe: usize| -> Result<usize, String> {
                if pe < phys_pes {
                    Ok(pe)
                } else {
                    Err(format!(
                        "fault spec `{part}` targets physical PE {pe}, but the array has \
                         {phys_pes} PEs (ids 0..={})",
                        phys_pes - 1
                    ))
                }
            };
            match key {
                "seed" => plan = FaultPlan::seeded(int(value)?, phys_pes, horizon_ops),
                "dead" => plan = plan.with_dead_pe(in_range(int(value)? as usize)?),
                "router" | "flip" => {
                    let fields: Vec<&str> = value.split(':').collect();
                    if fields.len() != 3 {
                        return Err(format!("`{key}` wants op:phys:value, got `{value}`"));
                    }
                    let (op, phys, v) = (
                        int(fields[0])?,
                        in_range(int(fields[1])? as usize)?,
                        int(fields[2])?,
                    );
                    plan = if key == "router" {
                        plan.with_router_corrupt(op, phys, v)
                    } else {
                        plan.with_memory_flip(op, phys, v as u32)
                    };
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Is physical PE `phys` dead?
    pub fn is_dead(&self, phys: usize) -> bool {
        self.dead.contains(&phys)
    }

    /// All dead physical PEs, ascending.
    pub fn dead_pes(&self) -> impl Iterator<Item = usize> + '_ {
        self.dead.iter().copied()
    }

    /// Router corruptions scheduled for instruction `op`.
    pub fn router_faults_at(&self, op: u64) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.faults.iter().filter_map(move |f| match *f {
            Fault::RouterCorrupt { at_op, phys, mask } if at_op == op => Some((phys, mask)),
            _ => None,
        })
    }

    /// Memory flips scheduled for instruction `op`.
    pub fn memory_faults_at(&self, op: u64) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.faults.iter().filter_map(move |f| match *f {
            Fault::MemoryFlip { at_op, phys, bit } if at_op == op => Some((phys, bit)),
            _ => None,
        })
    }

    /// Every scheduled fault.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn len(&self) -> usize {
        self.faults.len()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dead = self.dead.len();
        let transient = self.faults.len() - dead;
        write!(f, "{dead} dead PE(s), {transient} transient fault(s)")
    }
}

/// A machine word that injected faults can corrupt. Implemented for the
/// primitive types programs keep in PE-local memory; the blanket bounds on
/// the [`crate::Machine`] plural/router operations require it so the fault
/// machinery can reach into any destination plural.
pub trait FaultWord: Copy {
    /// Bits in the word (used to keep single-bit flips effective).
    const BITS: u32;
    /// XOR with (the low bits of) `mask`.
    fn fault_xor(self, mask: u64) -> Self;
    /// Flip one bit (`bit` is reduced modulo the width).
    fn fault_flip(self, bit: u32) -> Self {
        self.fault_xor(1u64 << (bit % Self::BITS))
    }
}

macro_rules! impl_fault_word {
    ($($t:ty),*) => {$(
        impl FaultWord for $t {
            const BITS: u32 = <$t>::BITS;
            fn fault_xor(self, mask: u64) -> Self {
                self ^ (mask as $t)
            }
        }
    )*};
}

impl_fault_word!(u8, u16, u32, u64, usize);

macro_rules! impl_fault_word_signed {
    ($($t:ty),*) => {$(
        impl FaultWord for $t {
            const BITS: u32 = <$t>::BITS;
            fn fault_xor(self, mask: u64) -> Self {
                self ^ (mask as $t)
            }
        }
    )*};
}

impl_fault_word_signed!(i8, i16, i32, i64, isize);

impl FaultWord for bool {
    const BITS: u32 = 1;
    fn fault_xor(self, mask: u64) -> Self {
        self ^ (mask & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 64, 200);
        let b = FaultPlan::seeded(42, 64, 200);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 64, 200);
        assert_ne!(a, c, "different seeds should (here) differ");
    }

    #[test]
    fn seeded_plans_respect_bounds() {
        for seed in 0..200 {
            let plan = FaultPlan::seeded(seed, 32, 100);
            assert!(plan.dead_pes().count() <= 3);
            for f in plan.faults() {
                match *f {
                    Fault::DeadPe { phys } => assert!(phys < 32),
                    Fault::RouterCorrupt { at_op, phys, mask } => {
                        assert!((1..=100).contains(&at_op));
                        assert!(phys < 32);
                        assert_ne!(mask, 0);
                    }
                    Fault::MemoryFlip { at_op, phys, bit } => {
                        assert!((1..=100).contains(&at_op));
                        assert!(phys < 32);
                        assert!(bit < 64);
                    }
                }
            }
        }
    }

    #[test]
    fn builders_record_faults() {
        let plan = FaultPlan::new()
            .with_dead_pe(7)
            .with_router_corrupt(10, 3, 0xFF)
            .with_memory_flip(11, 4, 5);
        assert_eq!(plan.len(), 3);
        assert!(plan.is_dead(7));
        assert!(!plan.is_dead(3));
        assert_eq!(
            plan.router_faults_at(10).collect::<Vec<_>>(),
            vec![(3, 0xFF)]
        );
        assert_eq!(plan.router_faults_at(9).count(), 0);
        assert_eq!(plan.memory_faults_at(11).collect::<Vec<_>>(), vec![(4, 5)]);
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(
            FaultPlan::parse_spec("42", 64, 100).unwrap(),
            FaultPlan::seeded(42, 64, 100)
        );
        assert_eq!(
            FaultPlan::parse_spec("seed=42", 64, 100).unwrap(),
            FaultPlan::seeded(42, 64, 100)
        );
        let plan = FaultPlan::parse_spec("dead=3,router=120:5:255,flip=80:3:17", 64, 100).unwrap();
        assert!(plan.is_dead(3));
        assert_eq!(
            plan.router_faults_at(120).collect::<Vec<_>>(),
            vec![(5, 255)]
        );
        assert_eq!(plan.memory_faults_at(80).collect::<Vec<_>>(), vec![(3, 17)]);
        assert!(FaultPlan::parse_spec("bogus", 64, 100).is_err());
        assert!(FaultPlan::parse_spec("router=1:2", 64, 100).is_err());
        assert!(FaultPlan::parse_spec("wat=1", 64, 100).is_err());
        // Out-of-range PE ids are errors, not silently inert faults.
        assert!(FaultPlan::parse_spec("dead=64", 64, 100).is_err());
        assert!(FaultPlan::parse_spec("router=10:64:255", 64, 100).is_err());
        assert!(FaultPlan::parse_spec("flip=10:999:1", 64, 100).is_err());
        assert!(FaultPlan::parse_spec("dead=63", 64, 100).is_ok());
    }

    #[test]
    fn fault_words_corrupt_and_flip() {
        assert_eq!(0b1010u64.fault_xor(0b0110), 0b1100);
        assert_eq!(0u32.fault_flip(3), 8);
        assert_eq!(0u8.fault_flip(9), 2); // bit 9 % 8 = 1
        assert!(false.fault_xor(1));
        assert!(!false.fault_xor(2)); // even mask leaves bools alone
        assert!(!true.fault_flip(0));
    }

    #[test]
    fn display_summarizes() {
        let plan = FaultPlan::new().with_dead_pe(1).with_memory_flip(5, 2, 3);
        assert_eq!(plan.to_string(), "1 dead PE(s), 1 transient fault(s)");
    }
}
