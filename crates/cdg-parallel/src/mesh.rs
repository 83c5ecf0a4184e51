//! A step-counted 2-D mesh emulation of CDG parsing — the "2D Mesh" row of
//! the paper's Figure 8.
//!
//! Model: the O(n²) arcs of the constraint network are distributed over a
//! grid of cells, one cell per pair of role slots (so O(q²n²) = O(n²)
//! cells, each holding one O(n)×O(n) arc matrix). Instruction broadcast is
//! free (SIMD-style), each cell processes its local arc entries
//! sequentially, and reductions for consistency maintenance travel by
//! nearest-neighbour hops: a reduction across the cell grid of side s costs
//! 2(s−1) hops.
//!
//! The emulation executes the real algorithm (piggybacking on
//! `cdg-core` for the per-arc work) while counting:
//!
//! * `local_steps` — the maximum sequential work any single cell performed
//!   (the critical path of compute);
//! * `comm_steps` — nearest-neighbour hops spent on reductions.
//!
//! Observed shape: local work is Θ(k·n²) per cell (each constraint sweeps
//! each cell's O(n²) entries) and communication is Θ(passes·n). Figure 8
//! lists the mesh CDG time as O(k + n²); that bound is attainable only if
//! the k constraint sweeps are pipelined through each cell's entries —
//! which the MP-1 (a machine with a global router, not a plain mesh) does
//! not need. EXPERIMENTS.md records both the measured exponent and this
//! note.

use cdg_core::kernel::KernelScratch;
use cdg_core::network::{NetSlab, Network};
use cdg_core::parser::{parse_with_state, Executor, ParseOptions, Step};
use cdg_core::ArcPool;
use cdg_grammar::{Grammar, Sentence};

/// Step counts from a mesh run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Number of mesh cells (one per arc): q²·C(n·q, 2)-ish, O(n²).
    pub cells: usize,
    /// Side of the (conceptually square) cell grid.
    pub grid_side: usize,
    /// Maximum sequential entry-operations performed by any one cell.
    pub local_steps: usize,
    /// Nearest-neighbour communication hops for reductions.
    pub comm_steps: usize,
}

impl MeshStats {
    /// The critical-path step count of the run.
    pub fn total_steps(&self) -> usize {
        self.local_steps + self.comm_steps
    }
}

/// The mesh executor: the serial kernels, with each step charged to the
/// cells. A unary sweep costs the largest slot domain (role values are
/// partitioned across cells too); a pairwise sweep the largest arc
/// matrix's alive area; a filtering pass one scan of that area for the
/// local support ORs, then per-role AND reductions across the cell grid.
/// The incremental filter's generation k sees the alive sets full-scan
/// pass k does, so the charge is the full scan's either way.
impl Executor for MeshStats {
    fn cost(&mut self, net: &Network<'_>, step: Step, done: Option<usize>) {
        match (step, done) {
            (Step::Build, _) => {
                // Cell geometry: one cell per arc.
                let nslots = net.num_slots();
                self.cells = nslots * (nslots.saturating_sub(1)) / 2;
                self.grid_side = (self.cells as f64).sqrt().ceil() as usize;
            }
            (Step::Unary, None) => {
                self.local_steps += net
                    .slots()
                    .iter()
                    .map(|s| s.domain.len())
                    .max()
                    .unwrap_or(0);
            }
            (Step::Binary | Step::UnaryPairwise, None) => self.local_steps += max_arc_area(net),
            (Step::Scan | Step::Generation, None) => {
                self.local_steps += max_arc_area(net);
                self.comm_steps += 2 * self.grid_side.saturating_sub(1);
            }
            _ => {}
        }
    }
}

/// Per-cell work of a sweep: the largest arc matrix's alive area.
fn max_arc_area(net: &Network<'_>) -> usize {
    net.arc_pairs()
        .iter()
        .map(|&(i, j, _)| net.slot(i).alive_count() * net.slot(j).alive_count())
        .max()
        .unwrap_or(0)
}

/// The mesh emulation engine.
pub struct MeshCdg;

impl MeshCdg {
    /// Run the full pipeline — the `cdg-core` phase driver with the mesh
    /// executor — returning the settled network and mesh step accounting.
    /// The network and its `NetStats` ledger are the sequential engine's
    /// (the mesh changes *where* work happens, not *what* work).
    pub fn run<'g>(
        grammar: &'g Grammar,
        sentence: &Sentence,
        options: ParseOptions,
    ) -> (Network<'g>, MeshStats) {
        let mut stats = MeshStats::default();
        let outcome = parse_with_state(
            grammar,
            sentence,
            options,
            None,
            &mut ArcPool::new(),
            &mut KernelScratch::new(),
            &mut NetSlab::default(),
            &mut stats,
        );
        (outcome.network, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_core::parser::FilterMode;
    use cdg_grammar::grammars::paper;

    #[test]
    fn mesh_matches_sequential_results() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let opts = ParseOptions::default();
        let serial = cdg_core::parse(&g, &s, opts);
        let (net, stats) = MeshCdg::run(&g, &s, opts);
        for (a, b) in serial.network.slots().iter().zip(net.slots()) {
            assert_eq!(a.alive, b.alive);
        }
        assert!(stats.cells > 0);
        assert!(stats.local_steps > 0);
        assert!(stats.comm_steps > 0);
        assert!(stats.total_steps() >= stats.local_steps);
    }

    #[test]
    fn cell_count_grows_quadratically() {
        let g = paper::grammar();
        let opts = ParseOptions {
            filter: FilterMode::Bounded(2),
            ..Default::default()
        };
        let cells: Vec<usize> = [4usize, 8]
            .iter()
            .map(|&n| {
                let s = paper::cost_sweep_sentence(&g, n);
                MeshCdg::run(&g, &s, opts).1.cells
            })
            .collect();
        // Doubling n quadruples the slot count's square-ish cell count.
        let ratio = cells[1] as f64 / cells[0] as f64;
        assert!(
            (3.0..5.0).contains(&ratio),
            "cells {cells:?}, ratio {ratio}"
        );
    }

    #[test]
    fn local_work_grows_quadratically_with_n() {
        // Per-cell work is Θ(k·n²): doubling n should roughly quadruple
        // local steps (the largest arc matrix has O(n)×O(n) alive area).
        let g = paper::grammar();
        let opts = ParseOptions {
            filter: FilterMode::Bounded(1),
            ..Default::default()
        };
        let steps: Vec<usize> = [6usize, 12]
            .iter()
            .map(|&n| {
                let s = paper::cost_sweep_sentence(&g, n);
                MeshCdg::run(&g, &s, opts).1.local_steps
            })
            .collect();
        let ratio = steps[1] as f64 / steps[0] as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "local steps {steps:?}, ratio {ratio}"
        );
    }
}
