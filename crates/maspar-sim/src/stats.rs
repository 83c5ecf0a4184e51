//! Operation counting and the calibrated MP-1 cost model.

/// Cost weights converting counted operations into estimated MP-1 cycles.
///
/// The MP-1's PEs are 4-bit ALUs clocked at ~12.5 MHz; a 32-bit plural
/// operation takes on the order of tens of cycles, and router traffic is
/// substantially more expensive than local compute. The default weights
/// are *calibrated against the paper's own measurements* rather than
/// datasheet arithmetic: the paper reports ≈10 ms to propagate one
/// constraint on a ≤7-word network, ≈0.15 s to parse the 3-word example,
/// and 0.45 s for a 10-word sentence (3× — the virtualization staircase).
/// With these weights the simulated PARSEC run lands on those numbers; see
/// `parsec-maspar`'s calibration tests and EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// PE clock, Hz.
    pub clock_hz: f64,
    /// Cycles for one broadcast plural instruction slice (one virtual-PE
    /// layer of one plural op).
    pub cycles_per_plural_slice: f64,
    /// Cycles per router pass of a scan (a scan costs ⌈log₂ #phys PE⌉
    /// passes plus one local slice per virtualization layer).
    pub cycles_per_scan_pass: f64,
    /// Cycles per routed gather slice.
    pub cycles_per_router_slice: f64,
    /// Cycles per X-Net hop slice. The simulator issues no X-Net shift
    /// (PARSEC needs only the router), so this weight multiplies
    /// [`MachineStats::xnet_shifts`], which always reads 0.
    pub cycles_per_xnet_hop: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            clock_hz: 12.5e6,
            // Calibrated against the paper's time trials (see
            // parsec-maspar/tests/timing.rs). One "plural op" in this
            // simulator is a fused kernel — on the real machine it expands
            // to hundreds of broadcast instructions interpreting the
            // constraint on 4-bit ALUs, so 25k cycles (2 ms) per kernel
            // slice is the granularity the paper's ~10 ms/constraint
            // implies.
            cycles_per_plural_slice: 25_000.0,
            cycles_per_scan_pass: 2_000.0,
            cycles_per_router_slice: 10_000.0,
            cycles_per_xnet_hop: 200.0,
        }
    }
}

/// Counts of the machine operations a program performed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MachineStats {
    /// Broadcast plural instructions (one per `par_map`-style call).
    pub plural_ops: u64,
    /// Plural instruction *slices*: plural ops × virtualization factor.
    pub plural_slices: u64,
    /// Scan invocations (scanOr/scanAnd).
    pub scan_calls: u64,
    /// Router passes spent in scans (⌈log₂ #phys⌉ each, × virt layers for
    /// the local pre-reduction).
    pub scan_passes: u64,
    /// Routed operations: gathers, plus the remap of a PE retirement.
    pub router_ops: u64,
    /// X-Net nearest-neighbour hops. Always 0: the simulator issues no
    /// X-Net shift. Kept so the counter set, and the golden digests that
    /// hash all of it, stay as they are.
    pub xnet_shifts: u64,
    /// Router slices (router ops × virtualization factor).
    pub router_slices: u64,
    /// Peak simulated PE-local memory in use, bytes per *physical* PE.
    pub peak_pe_memory_bytes: usize,
    /// Broadcast-instruction slots skipped because the virtual PE's
    /// physical home is dead (fault injection only).
    pub dead_pe_skips: u64,
    /// Router/scan payloads corrupted by an injected transient fault.
    pub router_corruptions: u64,
    /// Freshly written PE-memory words corrupted by an injected bit flip.
    pub memory_flips: u64,
    /// Router sends/fetches dropped because a (corrupted) index plural
    /// pointed out of range. Only possible with faults armed; fault-free
    /// programs assert instead.
    pub oob_routes: u64,
}

impl MachineStats {
    /// Estimated MP-1 cycles under `cost`.
    pub fn cycles(&self, cost: &CostModel) -> f64 {
        self.plural_slices as f64 * cost.cycles_per_plural_slice
            + self.scan_passes as f64 * cost.cycles_per_scan_pass
            + self.router_slices as f64 * cost.cycles_per_router_slice
            + self.xnet_shifts as f64 * cost.cycles_per_xnet_hop
    }

    /// Estimated MP-1 wall time in seconds under `cost`.
    pub fn estimated_seconds(&self, cost: &CostModel) -> f64 {
        self.cycles(cost) / cost.clock_hz
    }

    /// Difference of two snapshots (for per-phase attribution).
    pub fn delta_since(&self, earlier: &MachineStats) -> MachineStats {
        MachineStats {
            plural_ops: self.plural_ops - earlier.plural_ops,
            plural_slices: self.plural_slices - earlier.plural_slices,
            scan_calls: self.scan_calls - earlier.scan_calls,
            scan_passes: self.scan_passes - earlier.scan_passes,
            router_ops: self.router_ops - earlier.router_ops,
            xnet_shifts: self.xnet_shifts - earlier.xnet_shifts,
            router_slices: self.router_slices - earlier.router_slices,
            peak_pe_memory_bytes: self.peak_pe_memory_bytes,
            dead_pe_skips: self.dead_pe_skips - earlier.dead_pe_skips,
            router_corruptions: self.router_corruptions - earlier.router_corruptions,
            memory_flips: self.memory_flips - earlier.memory_flips,
            oob_routes: self.oob_routes - earlier.oob_routes,
        }
    }

    /// Total injected-fault events observed (for recovery reports).
    pub fn fault_events(&self) -> u64 {
        self.dead_pe_skips + self.router_corruptions + self.memory_flips + self.oob_routes
    }

    /// Accumulate another machine's counters into this one (fleet-level
    /// aggregation: one simulated machine per shard, summed for the
    /// whole service). Counters add; peak memory takes the maximum, since
    /// the shards' PE memories are disjoint physical arrays.
    pub fn merge(&mut self, other: &MachineStats) {
        self.plural_ops += other.plural_ops;
        self.plural_slices += other.plural_slices;
        self.scan_calls += other.scan_calls;
        self.scan_passes += other.scan_passes;
        self.router_ops += other.router_ops;
        self.xnet_shifts += other.xnet_shifts;
        self.router_slices += other.router_slices;
        self.peak_pe_memory_bytes = self.peak_pe_memory_bytes.max(other.peak_pe_memory_bytes);
        self.dead_pe_skips += other.dead_pe_skips;
        self.router_corruptions += other.router_corruptions;
        self.memory_flips += other.memory_flips;
        self.oob_routes += other.oob_routes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_accounting_is_linear() {
        let cost = CostModel {
            clock_hz: 1e6,
            cycles_per_plural_slice: 10.0,
            cycles_per_scan_pass: 5.0,
            cycles_per_router_slice: 20.0,
            cycles_per_xnet_hop: 1.0,
        };
        let stats = MachineStats {
            plural_ops: 3,
            plural_slices: 6,
            scan_calls: 2,
            scan_passes: 4,
            router_ops: 1,
            router_slices: 2,
            xnet_shifts: 7,
            peak_pe_memory_bytes: 0,
            ..Default::default()
        };
        assert_eq!(
            stats.cycles(&cost),
            6.0 * 10.0 + 4.0 * 5.0 + 2.0 * 20.0 + 7.0
        );
        assert!((stats.estimated_seconds(&cost) - 127.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts() {
        let a = MachineStats {
            plural_ops: 10,
            plural_slices: 20,
            scan_calls: 4,
            scan_passes: 8,
            router_ops: 2,
            router_slices: 4,
            xnet_shifts: 9,
            peak_pe_memory_bytes: 100,
            dead_pe_skips: 5,
            ..Default::default()
        };
        let b = MachineStats {
            plural_ops: 4,
            plural_slices: 8,
            scan_calls: 1,
            scan_passes: 2,
            router_ops: 1,
            router_slices: 2,
            xnet_shifts: 4,
            peak_pe_memory_bytes: 100,
            dead_pe_skips: 2,
            ..Default::default()
        };
        let d = a.delta_since(&b);
        assert_eq!(d.plural_ops, 6);
        assert_eq!(d.scan_passes, 6);
        assert_eq!(d.router_slices, 2);
        assert_eq!(d.xnet_shifts, 5);
        assert_eq!(d.dead_pe_skips, 3);
        assert_eq!(d.fault_events(), 3);
    }

    #[test]
    fn merge_sums_counters_and_maxes_peak_memory() {
        let mut a = MachineStats {
            plural_ops: 10,
            plural_slices: 20,
            scan_calls: 4,
            peak_pe_memory_bytes: 100,
            dead_pe_skips: 1,
            ..Default::default()
        };
        let b = MachineStats {
            plural_ops: 5,
            plural_slices: 7,
            scan_calls: 2,
            peak_pe_memory_bytes: 300,
            router_corruptions: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.plural_ops, 15);
        assert_eq!(a.plural_slices, 27);
        assert_eq!(a.scan_calls, 6);
        assert_eq!(a.peak_pe_memory_bytes, 300, "disjoint arrays: take max");
        assert_eq!(a.fault_events(), 3);
    }

    #[test]
    fn default_model_is_mp1_shaped() {
        let c = CostModel::default();
        assert_eq!(c.clock_hz, 12.5e6);
        // A plural kernel is the coarsest unit (hundreds of broadcast
        // instructions); a single scan router pass is the cheapest.
        assert!(c.cycles_per_plural_slice > c.cycles_per_router_slice);
        assert!(c.cycles_per_router_slice > c.cycles_per_scan_pass);
    }
}
