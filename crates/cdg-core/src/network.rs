//! The constraint network (CN): nodes, roles, role values, and arc matrices.

use crate::consistency::FilterBuffers;
use crate::pool::{ArcPool, PoolStats};
use crate::stats::NetStats;
use bitmat::{BitMatrix, BitVec};
use cdg_grammar::expr::Binding;
use cdg_grammar::kernel::LaneTables;
use cdg_grammar::{CompiledGrammar, Grammar, Modifiee, RoleId, RoleValue, Sentence};
use std::sync::Arc;

/// Index of a role slot in the network: slots are numbered word-major
/// (`word * q + role`), 0-based.
pub type SlotId = usize;

/// Which constraint evaluator the propagation functions use.
///
/// Both strategies produce bit-identical networks (same removal sets, same
/// surviving arcs); they differ only in how each verdict is computed. The
/// kernel path is the default; the naive path is kept as the differential
/// oracle (`tests/kernel_equivalence.rs`), reached through
/// `ParseRequest::eval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalStrategy {
    /// Compile each constraint to flat bytecode, evaluate it a slot at a
    /// time as bit-sliced lane passes, and apply the verdicts as
    /// word-parallel row masks.
    #[default]
    Kernel,
    /// Walk the boxed `CExpr` tree once per pair — the paper's literal
    /// per-cell formulation.
    Naive,
}

/// Which filtering implementation the parse drivers run after binary
/// propagation. Both produce bit-identical removal schedules, alive sets,
/// and arc matrices (the generation-g invariant of
/// `cdg_core::consistency`); they differ in how much of the network each
/// pass re-tests — and therefore in wall-clock and in the incremental-vs-
/// full-scan split of `support_checks`/`support_inits`.
///
/// The choice reaches the phase driver (the serial, P-RAM and mesh
/// engines). The MasPar engine filters with the simulated machine's own
/// scans (the paper's design decisions 3 and 5) and reads its network
/// back one way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterStrategy {
    /// Follow the evaluation strategy: kernel evaluation filters with the
    /// counter-free [`crate::consistency::IncrementalFilter`], naive
    /// evaluation rescans ([`FilterStrategy::Naive`], the differential
    /// oracle). The choice moves no digest: both settle the same network.
    #[default]
    Auto,
    /// Full rescan every pass ([`crate::consistency::filter`]).
    Naive,
}

impl FilterStrategy {
    /// Whether the drivers filter incrementally: `Auto` under kernel
    /// evaluation. Everything else runs the full scan.
    pub fn incremental(self, eval: EvalStrategy) -> bool {
        self == FilterStrategy::Auto && eval == EvalStrategy::Kernel
    }
}

/// One arc's matrix: `|domain_i| × |domain_j|` bits whose `(a, b)` entry
/// is 1 while values `a` of the row slot and `b` of the column slot may
/// coexist.
///
/// Most arcs never hold anything but the pairs of their endpoints' alive
/// values: dead rows and columns are zero (the dead-row invariant), and no
/// constraint clears a live pair. Such an arc is [`ArcMatrix::Outer`] and
/// has no storage; its entries are read off the two alive sets, so a
/// removal zeroes its row and column by itself. An arc is
/// [`ArcMatrix::Stored`] from the first write that clears a live pair —
/// or from [`Network::init_arcs`], for two roles of one word whose
/// category hypotheses differ — until the network is reclaimed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ArcMatrix {
    /// Implicitly `alive_i ⊗ alive_j`.
    #[default]
    Outer,
    /// An explicit matrix drawn from the network's [`ArcPool`].
    Stored(BitMatrix),
}

impl ArcMatrix {
    /// Whether the arc has no storage (see [`ArcMatrix::Outer`]).
    pub fn is_outer(&self) -> bool {
        matches!(self, ArcMatrix::Outer)
    }

    /// Store an outer arc as the matrix it stands for, drawn from `pool`:
    /// every alive row of `rows` (the row slot's alive set) is `cols` (the
    /// column slot's). A stored arc is returned as it is.
    pub fn store(&mut self, rows: &BitVec, cols: &BitVec, pool: &mut ArcPool) -> &mut BitMatrix {
        if self.is_outer() {
            let mut m = pool.acquire(rows.len(), cols.len());
            fill_outer(&mut m, rows, cols);
            *self = ArcMatrix::Stored(m);
        }
        match self {
            ArcMatrix::Stored(m) => m,
            ArcMatrix::Outer => unreachable!("stored above"),
        }
    }

    /// Zero row `r`, storing an outer arc first when the row holds a live
    /// pair. Returns the 1-entries cleared.
    pub fn zero_row(
        &mut self,
        r: usize,
        rows: &BitVec,
        cols: &BitVec,
        pool: &mut ArcPool,
    ) -> usize {
        if self.is_outer() && !(rows.get(r) && cols.any()) {
            return 0;
        }
        let m = self.store(rows, cols, pool);
        let cleared = m.row_count_ones(r);
        m.zero_row(r);
        cleared
    }

    /// AND row `r` with `mask` (raw words, no bits past the last column),
    /// storing an outer arc first only when the mask clears one of the
    /// row's live pairs: a mask that covers an alive row's `cols` leaves
    /// the arc outer. Returns the 1-entries cleared.
    pub fn and_row(
        &mut self,
        r: usize,
        mask: &[u64],
        rows: &BitVec,
        cols: &BitVec,
        pool: &mut ArcPool,
    ) -> usize {
        if self.is_outer()
            && !(rows.get(r) && cols.words().iter().zip(mask).any(|(c, m)| c & !m != 0))
        {
            return 0;
        }
        self.store(rows, cols, pool).row_and_count_words(r, mask)
    }
}

/// Set every alive row of the all-zero `m` to the column slot's alive set:
/// the matrix an outer arc stands for.
fn fill_outer(m: &mut BitMatrix, rows: &BitVec, cols: &BitVec) {
    for a in rows.iter_ones() {
        m.row_mut(a).copy_from_slice(cols.words());
    }
}

/// One arc's logical matrix, read through its endpoints' alive sets: what
/// [`ArcMatrix::Outer`] stands for, or the stored matrix.
#[derive(Debug, Clone, Copy)]
pub struct ArcView<'a> {
    pub matrix: &'a ArcMatrix,
    /// The row slot's alive set.
    pub rows: &'a BitVec,
    /// The column slot's alive set.
    pub cols: &'a BitVec,
}

impl ArcView<'_> {
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    pub fn cols(&self) -> usize {
        self.cols.len()
    }

    pub fn is_outer(&self) -> bool {
        self.matrix.is_outer()
    }

    /// Entry `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> bool {
        match self.matrix {
            ArcMatrix::Outer => self.rows.get(r) && self.cols.get(c),
            ArcMatrix::Stored(m) => m.get(r, c),
        }
    }

    /// The logical matrix as an explicit one — for tests and digests,
    /// which compare arcs whatever their storage.
    pub fn to_matrix(&self) -> BitMatrix {
        match self.matrix {
            ArcMatrix::Outer => {
                let mut m = BitMatrix::zeros(self.rows(), self.cols());
                fill_outer(&mut m, self.rows, self.cols);
                m
            }
            ArcMatrix::Stored(m) => m.clone(),
        }
    }
}

/// Split borrow of a network for the arc sweeps (the pairwise kernel, the
/// incremental filter, the MasPar readback): immutable slots, sentence,
/// and arc-pair list alongside mutable arcs, pool and stats, so a sweep
/// can read the slots while it writes each arc in turn. A write that
/// stores an outer arc draws its matrix from `pool`.
pub struct NetParts<'a> {
    pub slots: &'a [RoleSlot],
    pub arcs: &'a mut [ArcMatrix],
    /// Where stored arcs' matrices come from.
    pub pool: &'a mut ArcPool,
    pub sentence: &'a Sentence,
    /// Every arc as (slot i, slot j, triangular index), i < j, in storage
    /// order (parallel to `arcs`).
    pub pairs: &'a [(SlotId, SlotId, usize)],
    /// The lane tables of every slot (empty until
    /// [`Network::ensure_lane_tables`]).
    pub lanes: &'a LaneTables,
    pub stats: &'a mut NetStats,
}

/// One role of one word: its fixed initial domain of role values and the
/// alive-set over that domain.
#[derive(Debug, Clone)]
pub struct RoleSlot {
    /// 0-based word index.
    pub word: u16,
    pub role: RoleId,
    /// The initial domain, fixed at construction (the paper's "exhaustive
    /// list of all possible role values given the table T and the fact that
    /// no word ever modifies itself").
    pub domain: Vec<RoleValue>,
    /// Which domain entries are still candidates.
    pub alive: BitVec,
}

impl RoleSlot {
    /// 1-based position of the word, as used by the constraint language.
    pub fn pos(&self) -> u16 {
        self.word + 1
    }

    /// The binding handed to constraint evaluation for domain entry `idx`.
    pub fn binding(&self, idx: usize) -> Binding {
        Binding {
            pos: self.pos(),
            role: self.role,
            value: self.domain[idx],
        }
    }

    /// Indices of alive domain entries.
    pub fn alive_indices(&self) -> Vec<usize> {
        self.alive.iter_ones().collect()
    }

    /// Number of alive role values.
    pub fn alive_count(&self) -> usize {
        self.alive.count_ones()
    }
}

/// Recycled [`Network`] allocations for a warm worker: slot storage
/// (domain vectors and alive bitsets), the pair index, the arc container,
/// the incremental filter's lists, and the [`ArcPool`] of stored arcs'
/// matrices, reclaimed from a finished
/// parse's network via [`Network::reclaim`] and reused by the next
/// [`Network::build_in`]. Every buffer is cleared and refilled on reuse,
/// so networks built through a slab are byte-identical to fresh ones —
/// only allocation traffic differs.
#[derive(Default)]
pub struct NetSlab {
    slots: Vec<RoleSlot>,
    pairs: Vec<(SlotId, SlotId, usize)>,
    arcs: Vec<ArcMatrix>,
    lanes: LaneTables,
    pool: ArcPool,
    filter: FilterBuffers,
    reuses: u64,
}

impl NetSlab {
    pub fn new() -> Self {
        NetSlab::default()
    }

    /// How many networks were built out of recycled storage.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// The arc pool's ledger over every network built from this slab.
    pub fn pool_stats(&self) -> &PoolStats {
        &self.pool.stats
    }

    /// Move `net`'s draws on the pool this slab lent it into this slab's
    /// ledger, returning them, so the ledger is current while the network
    /// is still out; [`Network::reclaim`] adds whatever comes after.
    pub(crate) fn count_draws(&mut self, net: &mut Network<'_>) -> PoolStats {
        let drawn = std::mem::take(&mut net.pool.stats);
        self.pool.stats.absorb(&drawn);
        drawn
    }
}

/// The constraint network for one sentence under one grammar.
///
/// Arcs connect every pair of distinct role slots; arc `(i, j)` for `i < j`
/// carries a `|domain_i| × |domain_j|` bit matrix whose `(a, b)` entry is 1
/// while role values `a` and `b` may coexist. Arcs exist only after
/// [`Network::init_arcs`] — the sequential pipeline of the paper builds them
/// after unary propagation (Figure 3), while the MasPar pipeline builds them
/// first (design decision 1); both orders are supported and produce the same
/// final network.
///
/// An arc is stored only once it differs from the outer product of its
/// endpoints' alive sets ([`ArcMatrix`]); read arcs through
/// [`Network::arc`], [`Network::arc_entry`] or [`Network::arc_views`],
/// which answer for both kinds. The network draws stored matrices from
/// its own [`ArcPool`], lent by the [`NetSlab`] it was built from.
#[derive(Debug, Clone)]
pub struct Network<'g> {
    grammar: &'g Grammar,
    sentence: Sentence,
    slots: Vec<RoleSlot>,
    /// Upper-triangular arcs; empty until `init_arcs`.
    arcs: Vec<ArcMatrix>,
    /// Where stored arcs' matrices come from (see [`ArcPool`]).
    pool: ArcPool,
    /// (i, j, triangular index) per arc, i < j — precomputed once at
    /// `init_arcs` time so the propagation and consistency loops iterate a
    /// slice instead of rebuilding a `Vec` per constraint.
    pairs: Vec<(SlotId, SlotId, usize)>,
    arcs_ready: bool,
    /// Bit-sliced tables of every slot's domain for the kernel's lane
    /// evaluator. The domains and the sentence are fixed, so each slot's
    /// are built on first use and kept for the parse.
    lanes: LaneTables,
    /// The incremental filter's per-generation lists, kept from parse to
    /// parse through the slab.
    pub(crate) filter_buffers: FilterBuffers,
    /// How propagation evaluates constraints (see [`EvalStrategy`]).
    pub eval: EvalStrategy,
    /// Which filtering implementation the drivers run (see
    /// [`FilterStrategy`]); carried on the network so re-filtering entry
    /// points (`propagate_extra`) use the same strategy as the parse.
    pub filter_strategy: FilterStrategy,
    /// The grammar's compiled artifact, when the caller resolved one.
    /// Propagation looks constraints up here before falling back to an
    /// inline [`cdg_grammar::kernel::KernelProgram::compile`]; `None`
    /// (the default) is the compile-per-call oracle path.
    pub compiled: Option<Arc<CompiledGrammar>>,
    pub stats: NetStats,
}

impl<'g> Network<'g> {
    /// Build the initial network: generate every role value each slot may
    /// take. Role values are ordered category-major, then label (in table-T
    /// order), then modifiee (`nil` first, then ascending positions,
    /// skipping the word itself) — the order the paper's figures list them.
    pub fn build(grammar: &'g Grammar, sentence: &Sentence) -> Self {
        Network::build_in(grammar, sentence, &mut NetSlab::default())
    }

    /// [`Network::build`] drawing slot, pair, and arc-container storage
    /// from `slab` — the warm-worker path. Recycled buffers are cleared
    /// and refilled in the exact order a fresh build produces, so the
    /// resulting network is byte-identical; only allocation traffic
    /// differs. Hand the network back with [`Network::reclaim`]
    /// once its report has been fully consumed.
    pub fn build_in(grammar: &'g Grammar, sentence: &Sentence, slab: &mut NetSlab) -> Self {
        let _phase = obsv::span("network_build");
        let n = sentence.len();
        let q = grammar.num_roles();
        assert!(n >= 1, "a sentence must contain at least one word");
        assert!(n < u16::MAX as usize, "sentence too long");
        let mut stats = NetStats::default();
        let mut recycled = std::mem::take(&mut slab.slots);
        if !recycled.is_empty() {
            slab.reuses += 1;
        }
        let mut slots = Vec::with_capacity(n * q);
        for w in 0..n as u16 {
            for r in 0..q as u16 {
                let role = RoleId(r);
                let word = sentence.word(w as usize);
                // Reuse a reclaimed slot's domain vector and alive bitset
                // when one is available; capacity is retained, contents
                // are rebuilt from scratch.
                let (mut domain, mut alive) = match recycled.pop() {
                    Some(slot) => (slot.domain, slot.alive),
                    None => (Vec::new(), BitVec::zeros(0)),
                };
                domain.clear();
                // Exact count: per category × allowed label, one `Nil`
                // plus one entry per other word — n total.
                domain.reserve_exact(word.cats.len() * grammar.allowed_labels(role).len() * n);
                for &cat in &word.cats {
                    for &label in grammar.allowed_labels(role) {
                        domain.push(RoleValue::new(cat, label, Modifiee::Nil));
                        for m in 1..=n as u16 {
                            if m != w + 1 {
                                domain.push(RoleValue::new(cat, label, Modifiee::Word(m)));
                            }
                        }
                    }
                }
                stats.role_values_generated += domain.len();
                alive.reset_ones(domain.len());
                slots.push(RoleSlot {
                    word: w,
                    role,
                    domain,
                    alive,
                });
            }
        }
        let mut pairs = std::mem::take(&mut slab.pairs);
        pairs.clear();
        let mut arcs = std::mem::take(&mut slab.arcs);
        arcs.clear();
        let mut lanes = std::mem::take(&mut slab.lanes);
        lanes.reset(0);
        Network {
            grammar,
            sentence: sentence.clone(),
            slots,
            arcs,
            pool: slab.pool.lend(),
            pairs,
            arcs_ready: false,
            lanes,
            filter_buffers: std::mem::take(&mut slab.filter),
            eval: EvalStrategy::default(),
            filter_strategy: FilterStrategy::default(),
            compiled: None,
            stats,
        }
    }

    pub fn grammar(&self) -> &'g Grammar {
        self.grammar
    }

    pub fn sentence(&self) -> &Sentence {
        &self.sentence
    }

    /// q — roles per word.
    pub fn num_roles(&self) -> usize {
        self.grammar.num_roles()
    }

    /// Total number of role slots, n·q.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    pub fn slot(&self, id: SlotId) -> &RoleSlot {
        &self.slots[id]
    }

    pub fn slots(&self) -> &[RoleSlot] {
        &self.slots
    }

    /// Slot id for (0-based word, role).
    pub fn slot_id(&self, word: u16, role: RoleId) -> SlotId {
        word as usize * self.num_roles() + role.0 as usize
    }

    /// Index of arc (i, j), i < j, in the triangular arc vector (the order
    /// of [`Network::arc_pairs`] and [`Network::arc_views`]).
    pub fn arc_index(&self, i: SlotId, j: SlotId) -> usize {
        triangular_index(self.num_slots(), i, j)
    }

    /// Whether arcs have been constructed yet.
    pub fn arcs_ready(&self) -> bool {
        self.arcs_ready
    }

    /// Construct every arc. Entries start at 1 for pairs of alive role
    /// values, with two structural exceptions zeroed immediately: dead
    /// values (rows/columns of values already eliminated stay 0), and
    /// differing category hypotheses for two roles of the same word (each
    /// word has one part of speech per reading). Only an arc of the second
    /// kind that actually pairs two categories is stored; every other arc
    /// starts outer ([`ArcMatrix::Outer`]).
    pub fn init_arcs(&mut self) {
        let _phase = obsv::span("arc_init");
        assert!(!self.arcs_ready, "arcs already initialized");
        let num = self.num_slots();
        // Reuse the containers installed by `build_in` (empty, but with
        // a recycled slab's capacity) instead of allocating fresh ones.
        let mut arcs = std::mem::take(&mut self.arcs);
        arcs.clear();
        arcs.reserve(num * (num - 1) / 2);
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        pairs.reserve(num * (num - 1) / 2);
        for i in 0..num {
            for j in (i + 1)..num {
                pairs.push((i, j, arcs.len()));
                let (si, sj) = (&self.slots[i], &self.slots[j]);
                self.stats.arc_entries_initialized += si.domain.len() * sj.domain.len();
                if si.word != sj.word || !pairs_two_categories(si, sj) {
                    arcs.push(ArcMatrix::Outer);
                    continue;
                }
                let mut m = self.pool.acquire(si.domain.len(), sj.domain.len());
                for a in si.alive.iter_ones() {
                    for b in sj.alive.iter_ones() {
                        if si.domain[a].cat == sj.domain[b].cat {
                            m.set(a, b, true);
                        }
                    }
                }
                arcs.push(ArcMatrix::Stored(m));
            }
        }
        self.arcs = arcs;
        self.pairs = pairs;
        self.arcs_ready = true;
    }

    /// Arc `(i, j)` (`i != j`) as a logical view, together with a flag
    /// telling whether the caller's `(i, j)` orientation matches the
    /// stored row/column orientation.
    pub fn arc(&self, i: SlotId, j: SlotId) -> (ArcView<'_>, bool) {
        assert!(self.arcs_ready, "arcs not initialized");
        if i < j {
            (self.view(self.arc_index(i, j), i, j), true)
        } else {
            (self.view(self.arc_index(j, i), j, i), false)
        }
    }

    fn view(&self, idx: usize, i: SlotId, j: SlotId) -> ArcView<'_> {
        ArcView {
            matrix: &self.arcs[idx],
            rows: &self.slots[i].alive,
            cols: &self.slots[j].alive,
        }
    }

    /// Every arc as a logical view, in [`Network::arc_pairs`] order.
    pub fn arc_views(&self) -> impl Iterator<Item = ArcView<'_>> + '_ {
        assert!(self.arcs_ready, "arcs not initialized");
        self.pairs.iter().map(|&(i, j, idx)| self.view(idx, i, j))
    }

    /// Every arc's logical matrix, in [`Network::arc_pairs`] order — what
    /// tests and digests compare, whichever arcs are stored.
    pub fn logical_arcs(&self) -> Vec<BitMatrix> {
        self.arc_views().map(|v| v.to_matrix()).collect()
    }

    /// Rows plus columns over every arc, Σ_{i<j} |dom i| + |dom j|: each
    /// slot's domain is a side of every arc it meets.
    pub fn arc_sides(&self) -> usize {
        let num = self.num_slots();
        num.saturating_sub(1) * self.slots.iter().map(|s| s.domain.len()).sum::<usize>()
    }

    /// Entry of the arc matrix for (slot i, value a) × (slot j, value b).
    pub fn arc_entry(&self, i: SlotId, a: usize, j: SlotId, b: usize) -> bool {
        assert!(self.arcs_ready, "arcs not initialized");
        let idx = self.arc_index(i.min(j), i.max(j));
        match &self.arcs[idx] {
            ArcMatrix::Outer => self.slots[i].alive.get(a) && self.slots[j].alive.get(b),
            ArcMatrix::Stored(m) if i < j => m.get(a, b),
            ArcMatrix::Stored(m) => m.get(b, a),
        }
    }

    /// Zero one arc entry (both orientations handled), storing an outer
    /// arc first when the entry is a live pair.
    pub fn zero_arc_entry(&mut self, i: SlotId, a: usize, j: SlotId, b: usize) {
        assert!(self.arcs_ready, "arcs not initialized");
        let (idx, (ri, r), (ci, c)) = if i < j {
            (self.arc_index(i, j), (i, a), (j, b))
        } else {
            (self.arc_index(j, i), (j, b), (i, a))
        };
        let (rows, cols) = (&self.slots[ri].alive, &self.slots[ci].alive);
        let arc = &mut self.arcs[idx];
        if arc.is_outer() && !(rows.get(r) && cols.get(c)) {
            return;
        }
        let m = arc.store(rows, cols, &mut self.pool);
        if m.get(r, c) {
            self.stats.entries_zeroed += 1;
            m.set(r, c, false);
        }
    }

    /// Split borrow for the arc sweeps (see [`NetParts`]).
    pub fn parts_mut(&mut self) -> NetParts<'_> {
        assert!(self.arcs_ready, "arcs not initialized");
        NetParts {
            slots: &self.slots,
            arcs: &mut self.arcs,
            pool: &mut self.pool,
            sentence: &self.sentence,
            pairs: &self.pairs,
            lanes: &self.lanes,
            stats: &mut self.stats,
        }
    }

    /// The network's arc pool, for the incremental filter's bitsets.
    pub(crate) fn pool_mut(&mut self) -> &mut ArcPool {
        &mut self.pool
    }

    /// Size the lane tables ([`NetParts::lanes`]) to this network unless
    /// they already are; each slot's rows are built on first use.
    pub fn ensure_lane_tables(&mut self) {
        if self.lanes.len() != self.slots.len() {
            self.lanes.reset(self.slots.len());
        }
    }

    /// The lane tables of every slot (empty until
    /// [`Network::ensure_lane_tables`]).
    pub fn lane_tables(&self) -> &LaneTables {
        &self.lanes
    }

    /// Every arc as (slot i, slot j, triangular index), i < j — the list
    /// is built once by [`Network::init_arcs`] and borrowed thereafter.
    pub fn arc_pairs(&self) -> &[(SlotId, SlotId, usize)] {
        assert!(self.arcs_ready, "arcs not initialized");
        &self.pairs
    }

    /// Remove role value `idx` of slot `slot`: clear its alive bit and zero
    /// its row/column in every incident stored arc (if arcs exist). An
    /// outer arc loses the row or column with the alive bit, so it counts
    /// the other slot's alive values as zeroed and stays outer.
    pub fn remove_value(&mut self, slot: SlotId, idx: usize) {
        if !self.slots[slot].alive.get(idx) {
            return;
        }
        self.slots[slot].alive.set(idx, false);
        self.stats.removals += 1;
        if self.arcs_ready {
            let num = self.num_slots();
            for other in 0..num {
                if other == slot {
                    continue;
                }
                let (i, j) = if slot < other {
                    (slot, other)
                } else {
                    (other, slot)
                };
                let a_idx = self.arc_index(i, j);
                self.stats.entries_zeroed += match &mut self.arcs[a_idx] {
                    ArcMatrix::Outer => self.slots[other].alive.count_ones(),
                    ArcMatrix::Stored(m) if slot < other => {
                        let cleared = m.row_count_ones(idx);
                        m.zero_row(idx);
                        cleared
                    }
                    ArcMatrix::Stored(m) => m.zero_col(idx),
                };
            }
        }
    }

    /// Clear one alive bit *without* touching arc matrices — for the
    /// incremental filter, whose arc sweep zeroes the rows and columns.
    pub fn clear_alive(&mut self, slot: SlotId, idx: usize) {
        if self.slots[slot].alive.get(idx) {
            self.slots[slot].alive.set(idx, false);
            self.stats.removals += 1;
        }
    }

    /// Hand this network's storage back to `slab` for the next
    /// [`Network::build_in`]: the stored arcs' matrices and the lent pool
    /// (with this parse's pool ledger) to the slab's pool, and the slot
    /// storage, pair index, arc container, lane tables and filter lists.
    /// The network is left empty —
    /// call only once every reader of the report is done with it (in
    /// particular, [`crate::ParseReport::summary`] reads the alive sets).
    pub fn reclaim(&mut self, slab: &mut NetSlab) {
        for arc in self.arcs.drain(..) {
            if let ArcMatrix::Stored(m) = arc {
                self.pool.release(m);
            }
        }
        slab.pool.absorb(std::mem::take(&mut self.pool));
        slab.slots = std::mem::take(&mut self.slots);
        slab.pairs = std::mem::take(&mut self.pairs);
        slab.arcs = std::mem::take(&mut self.arcs);
        slab.lanes = std::mem::take(&mut self.lanes);
        slab.filter = std::mem::take(&mut self.filter_buffers);
        self.arcs_ready = false;
    }

    /// True while every role slot still has at least one candidate — the
    /// paper's acceptance condition ("each role contains at least one role
    /// value which satisfies all the constraints"). Necessary for a parse
    /// to exist; [`crate::extract`] provides the constructive check.
    pub fn all_roles_nonempty(&self) -> bool {
        self.slots.iter().all(|s| s.alive.any())
    }

    /// Total alive role values across all slots.
    pub fn total_alive(&self) -> usize {
        self.slots.iter().map(|s| s.alive_count()).sum()
    }
}

/// Index of arc (i, j), i < j, among the arcs of `num` slots in storage
/// order.
pub(crate) fn triangular_index(num: usize, i: SlotId, j: SlotId) -> usize {
    debug_assert!(i < j && j < num);
    i * num - i * (i + 1) / 2 + (j - i - 1)
}

/// Whether some alive value of `si` and some alive value of `sj` carry
/// differing categories — the one way an initial same-word arc differs
/// from the outer product of its alive sets.
fn pairs_two_categories(si: &RoleSlot, sj: &RoleSlot) -> bool {
    // A slot's first alive category, and whether another one follows: a
    // slot with two pairs differing categories with any value at all.
    let cats = |s: &RoleSlot| {
        let mut cats = s.alive.iter_ones().map(|v| s.domain[v].cat);
        let first = cats.next();
        (first, cats.any(|c| Some(c) != first))
    };
    match (cats(si), cats(sj)) {
        ((Some(a), mixed_i), (Some(b), mixed_j)) => mixed_i || mixed_j || a != b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_grammar::grammars::paper;

    fn setup() -> (Grammar, Sentence) {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        (g, s)
    }

    #[test]
    fn figure1_domain_sizes() {
        // Figure 1: each of the 6 roles initially holds 9 role values
        // (3 labels × {nil + 2 other positions}).
        let (g, s) = setup();
        let net = Network::build(&g, &s);
        assert_eq!(net.num_slots(), 6);
        for slot in net.slots() {
            assert_eq!(slot.domain.len(), 9);
            assert_eq!(slot.alive_count(), 9);
        }
        assert_eq!(net.stats.role_values_generated, 54);
        assert_eq!(net.total_alive(), 54);
    }

    #[test]
    fn no_word_modifies_itself() {
        let (g, s) = setup();
        let net = Network::build(&g, &s);
        for slot in net.slots() {
            for rv in &slot.domain {
                assert_ne!(rv.modifiee, Modifiee::Word(slot.pos()));
            }
        }
    }

    #[test]
    fn domain_respects_table_t() {
        let (g, s) = setup();
        let net = Network::build(&g, &s);
        let governor = g.role_id("governor").unwrap();
        let slot = net.slot(net.slot_id(0, governor));
        let allowed = g.allowed_labels(governor);
        assert!(slot.domain.iter().all(|rv| allowed.contains(&rv.label)));
    }

    #[test]
    fn domain_order_is_nil_first_ascending() {
        let (g, s) = setup();
        let net = Network::build(&g, &s);
        let governor = g.role_id("governor").unwrap();
        // Word 2 (0-based index 1): modifiees nil, 1, 3.
        let slot = net.slot(net.slot_id(1, governor));
        let mods: Vec<Modifiee> = slot.domain.iter().take(3).map(|rv| rv.modifiee).collect();
        assert_eq!(
            mods,
            vec![Modifiee::Nil, Modifiee::Word(1), Modifiee::Word(3)]
        );
    }

    #[test]
    fn arc_count_and_sizes() {
        let (g, s) = setup();
        let mut net = Network::build(&g, &s);
        net.init_arcs();
        assert_eq!(net.arc_pairs().len(), 15); // C(6,2)
        let (m, straight) = net.arc(0, 5);
        assert!(straight);
        assert_eq!((m.rows(), m.cols()), (9, 9));
        assert_eq!(net.stats.arc_entries_initialized, 15 * 81);
        // Initially every entry is 1 (unambiguous words), with no storage.
        assert!(m.is_outer());
        assert_eq!(m.to_matrix().count_ones(), 81);
    }

    #[test]
    fn arc_orientation_is_consistent() {
        let (g, s) = setup();
        let mut net = Network::build(&g, &s);
        net.init_arcs();
        net.zero_arc_entry(5, 3, 0, 7);
        assert!(!net.arc_entry(5, 3, 0, 7));
        assert!(!net.arc_entry(0, 7, 5, 3));
        assert!(net.arc_entry(0, 3, 5, 7));
        // Re-zeroing is idempotent in the stats.
        let zeroed = net.stats.entries_zeroed;
        net.zero_arc_entry(0, 7, 5, 3);
        assert_eq!(net.stats.entries_zeroed, zeroed);
    }

    #[test]
    fn removal_zeroes_rows_and_cols_everywhere() {
        let (g, s) = setup();
        let mut net = Network::build(&g, &s);
        net.init_arcs();
        net.remove_value(2, 4);
        assert!(!net.slot(2).alive.get(4));
        for other in [0usize, 1, 3, 4, 5] {
            for b in 0..9 {
                assert!(!net.arc_entry(2, 4, other, b));
            }
        }
        assert_eq!(net.stats.removals, 1);
        // Removing again is a no-op.
        net.remove_value(2, 4);
        assert_eq!(net.stats.removals, 1);
    }

    #[test]
    fn removal_before_arcs_masks_initial_matrices() {
        let (g, s) = setup();
        let mut net = Network::build(&g, &s);
        net.remove_value(0, 0);
        net.init_arcs();
        for other in 1..6 {
            for b in 0..9 {
                assert!(!net.arc_entry(0, 0, other, b));
            }
        }
    }

    #[test]
    fn same_word_roles_require_same_cat_hypothesis() {
        let g = paper::grammar();
        let noun = g.cat_id("noun").unwrap();
        let verb = g.cat_id("verb").unwrap();
        let s = Sentence::new(vec![
            cdg_grammar::SentenceWord {
                text: "runs".into(),
                cats: vec![noun, verb],
            },
            cdg_grammar::SentenceWord {
                text: "halts".into(),
                cats: vec![verb],
            },
        ]);
        let mut net = Network::build(&g, &s);
        // Ambiguous word: domain doubles.
        assert_eq!(net.slot(0).domain.len(), 12); // 2 cats × 3 labels × 2 mods
        net.init_arcs();
        let (i, j) = (net.slot_id(0, RoleId(0)), net.slot_id(0, RoleId(1)));
        for a in 0..net.slot(i).domain.len() {
            for b in 0..net.slot(j).domain.len() {
                let same = net.slot(i).domain[a].cat == net.slot(j).domain[b].cat;
                assert_eq!(net.arc_entry(i, a, j, b), same);
            }
        }
        // Roles of *different* words are unconstrained by category.
        let k = net.slot_id(1, RoleId(0));
        assert!(net.arc_entry(i, 0, k, 0));
    }

    #[test]
    fn acceptance_flag_tracks_empty_slots() {
        let (g, s) = setup();
        let mut net = Network::build(&g, &s);
        assert!(net.all_roles_nonempty());
        for idx in 0..9 {
            net.remove_value(3, idx);
        }
        assert!(!net.all_roles_nonempty());
    }

    #[test]
    fn single_word_sentence() {
        let g = paper::grammar();
        let lex = paper::lexicon(&g);
        let s = lex.sentence("runs").unwrap();
        let mut net = Network::build(&g, &s);
        // Only modifiee is nil: 3 labels × 1.
        assert_eq!(net.slot(0).domain.len(), 3);
        net.init_arcs();
        assert_eq!(net.arc_pairs().len(), 1); // governor—needs arc
    }

    #[test]
    #[should_panic(expected = "arcs not initialized")]
    fn arc_access_before_init_panics() {
        let (g, s) = setup();
        let net = Network::build(&g, &s);
        net.arc(0, 1);
    }
}
