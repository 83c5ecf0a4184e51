//! Operation counters for the sequential parser.
//!
//! Wall-clock comparisons against the simulated MasPar need a
//! machine-independent yardstick; these counters record exactly the abstract
//! operations the paper's complexity analysis counts, so the benchmark
//! harness can fit growth exponents (n⁴ for binary propagation, n² for
//! unary) without timing noise.

/// Counts of the abstract operations performed on a network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Role values generated during network construction (O(n²)).
    pub role_values_generated: usize,
    /// Arc-matrix entries initialized (O(n⁴)).
    pub arc_entries_initialized: usize,
    /// Unary constraint evaluations.
    pub unary_checks: usize,
    /// Binary constraint evaluations (each unordered pair may cost two).
    pub binary_checks: usize,
    /// Matrix entries zeroed by binary propagation.
    pub entries_zeroed: usize,
    /// Support tests performed during consistency maintenance. On the
    /// full-scan path one row/column probe per (value, incident arc); on
    /// the incremental path one per entry a generation zeroes (each
    /// counted once) — the quantity the incremental filter drives down.
    pub support_checks: usize,
    /// Rows plus columns per arc tested when building the incremental
    /// filter (paid once, not per pass).
    pub support_inits: usize,
    /// Allowed-row masks materialized by the kernel engine from row
    /// verdict passes (at most one per distinct signature of the row
    /// slot, per arc, per constraint). Rows decided by row and column
    /// classes alone are applied as the arc's column-class masks and
    /// build none.
    pub kernel_masks: usize,
    /// Pair verdicts the kernel engine settled without a verdict of their
    /// own: by row and column classes (every alive column of a
    /// class-decided row, and the definite-class columns of the other
    /// rows), or shared with a signature-mate (a row reusing its mate's
    /// mask, a column its mate's verdict). For unary constraints: the
    /// alive values a slot class decided, with no lane pass over them.
    pub kernel_memo_hits: usize,
    /// Role values removed (by unary propagation or consistency).
    pub removals: usize,
    /// Full consistency-maintenance passes executed.
    pub maintain_passes: usize,
    /// 64×64 bit tiles a word-parallel kernel transposed. Observational
    /// only (excluded from [`NetStats::total_ops`]). No engine charges it
    /// today; it stays because benchmark reports read it.
    pub bmm_tiles: usize,
    /// `u64` words touched by a word-parallel host kernel: the MasPar
    /// engine's tiled readback charges it. Observational only, like
    /// [`NetStats::bmm_tiles`].
    pub bmm_words: usize,
}

impl NetStats {
    /// Total abstract work — the quantity whose growth should be Θ(k·n⁴).
    pub fn total_ops(&self) -> usize {
        self.role_values_generated
            + self.arc_entries_initialized
            + self.unary_checks
            + self.binary_checks
            + self.entries_zeroed
            + self.support_checks
    }

    /// Merge another counter into this one.
    pub fn absorb(&mut self, other: &NetStats) {
        self.role_values_generated += other.role_values_generated;
        self.arc_entries_initialized += other.arc_entries_initialized;
        self.unary_checks += other.unary_checks;
        self.binary_checks += other.binary_checks;
        self.entries_zeroed += other.entries_zeroed;
        self.support_checks += other.support_checks;
        self.support_inits += other.support_inits;
        self.kernel_masks += other.kernel_masks;
        self.kernel_memo_hits += other.kernel_memo_hits;
        self.removals += other.removals;
        self.maintain_passes += other.maintain_passes;
        self.bmm_tiles += other.bmm_tiles;
        self.bmm_words += other.bmm_words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_ops_sums_work_fields() {
        let s = NetStats {
            role_values_generated: 1,
            arc_entries_initialized: 2,
            unary_checks: 4,
            binary_checks: 8,
            entries_zeroed: 16,
            support_checks: 32,
            support_inits: 200,    // not work (one-time build cost)
            kernel_masks: 300,     // not work (bookkeeping)
            kernel_memo_hits: 400, // not work (avoided evaluations)
            removals: 100,         // not work
            maintain_passes: 5,    // not work
            bmm_tiles: 600,        // not work (physical, not abstract)
            bmm_words: 700,        // not work (physical, not abstract)
        };
        assert_eq!(s.total_ops(), 63);
    }

    #[test]
    fn absorb_adds_fieldwise() {
        let mut a = NetStats {
            unary_checks: 3,
            removals: 1,
            ..Default::default()
        };
        let b = NetStats {
            unary_checks: 4,
            maintain_passes: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.unary_checks, 7);
        assert_eq!(a.removals, 1);
        assert_eq!(a.maintain_passes, 2);
    }
}
