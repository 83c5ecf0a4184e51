//! The word-parallel constraint-kernel propagation engine.
//!
//! The naive propagation loop in [`crate::propagate`] walks the boxed
//! `CExpr` tree once per live arc cell — O(k_b·n⁴) interpreter calls. This
//! module replaces that inner loop, per constraint and per arc, with:
//!
//! 1. **Bytecode.** The constraint is lowered once to a flat
//!    [`KernelProgram`] ([`cdg_grammar::kernel`]); each evaluation is a
//!    loop over contiguous ops instead of a `Box`-chasing recursion.
//! 2. **Lane passes.** The program runs a slot at a time: one variable
//!    scalar, the other ranging over a slot's alive domain, one lane per
//!    domain entry ([`KernelProgram::eval_lanes`] over the network's
//!    [`LaneTables`]). A pass returns Kleene `(true, false)` bitsets, so a
//!    whole row or column of verdicts costs O(words) per op — the MP-1's
//!    one broadcast instruction across every PE under an activity mask.
//! 3. **Classes, then verdicts.** Kleene monotonicity makes a definite
//!    verdict with one variable *partially* bound binding for every
//!    concrete value it could take. Four things are computed as one lane
//!    pass per ordering, each over the lanes the previous step left
//!    `Unknown`:
//!    - *slot classes* — each slot against an entirely unknown other
//!      variable ([`PartialBinding::Any`]), once per constraint;
//!    - *row classes* — each row slot against the column slot's
//!      [`PartialBinding::Open`] (its `pos`/`role` known, its value not);
//!    - *column classes* — the same with the roles swapped;
//!    - *verdicts* — for each row still undecided, its value bound
//!      against the columns both classes left `Unknown`; or, when the
//!      arc's columns need fewer passes, each such column's value bound
//!      against the rows that need it.
//!
//!    The slot classes alone may settle a whole arc. Ordering 1 (row
//!    value as `x`) passes every pair when either endpoint says so: the
//!    row slot passes as `x` everywhere, or the column slot as `y`.
//!    Ordering 2 (column value as `x`) likewise, roles swapped.
//!    `kernel_arc` skips an arc untouched when both endpoints pass as
//!    `x` (charging nothing), or when one endpoint passes both
//!    orderings: the row slot (charging nothing, as the full path would)
//!    or the column slot (charging the row slot's `Unknown` slot classes,
//!    which is what the full path's two row passes charge). In the
//!    column case no row can be doomed: a definitely false ordering-1 row
//!    verdict would, by Kleene monotonicity, be false against every alive
//!    column value, which the column's all-`True` as-`y` class
//!    contradicts. Every pair of a skipped arc counts as a
//!    `kernel_memo_hits`.
//!
//!    `False` zeroes a row in one word-parallel sweep, `True`×`True`
//!    skips it untouched, and every other row is ANDed with its allowed
//!    column mask (`row_and_count_words` — the software analogue of the
//!    MasPar's constant-time AND over a row of PEs). Values with equal
//!    feature signatures (`PairFeatures`: within one slot a verdict
//!    depends only on the label / modifiee / category the constraint
//!    reads) share every verdict: a pass evaluates the first lane of each
//!    signature and copies the verdict to the rest, and rows share one
//!    mask. Column classes run only on arcs with an undecided row, and an
//!    ordering's only when the row slot does not pass that ordering by
//!    its slot classes (then no row reads them: the pass is charged, not
//!    run). A class-decided row whose mask covers the alive columns is
//!    not ANDed at all.
//! 4. **The scalar ledger.** `binary_checks` still counts the evaluations
//!    the one-value-at-a-time algorithm this replaced would have run:
//!    two slot classes per distinct alive signature, one row or column
//!    class per distinct signature and ordering whose slot class is
//!    `Unknown`, and one pair verdict per distinct (row, column)
//!    signature pair and ordering no class decides — the second ordering
//!    of a row class or verdict only where the first did not definitely
//!    fail. A lane set's membership is uniform within a signature, so the
//!    popcount of a lane set ANDed with the slot's first-of-signature mask
//!    is exactly the number of evaluations that algorithm spent on it,
//!    and each pass charges that.
//!
//! Results are bit-identical to the naive path: the mask has a 1 exactly
//! where the naive per-cell check would keep the entry, dead columns are
//! already all-zero (so the extra AND there clears nothing), and
//! `row_and_count_words` reports exactly the 1→0 transitions that per-cell
//! `zero_arc_entry` calls would have counted.
//!
//! Unary constraints run a slot at a time too ([`apply_unary_kernel_with`],
//! `UnarySweep::slot`): the slot's class with its value open, then one lane
//! pass over the alive values where the class is `Unknown`
//! ([`KernelProgram::unary_lanes`]).

use crate::network::{ArcMatrix, NetParts, Network, RoleSlot, SlotId};
use crate::pool::ArcPool;
use cdg_grammar::expr::Var;
use cdg_grammar::kernel::{
    signature_key, KernelProgram, LaneScratch, LaneSlot, LaneTables, PartialBinding,
};
use cdg_grammar::value::Truth;
use cdg_grammar::{Constraint, Sentence};
use std::collections::HashMap;

/// Per-slot signature table and slot-level classes for one constraint.
/// Two *alive* domain entries share a signature iff the constraint cannot
/// distinguish them.
#[derive(Default)]
pub(crate) struct SlotSigs {
    /// Per alive domain entry, the first alive entry with its signature
    /// (itself, for the first); dead entries carry `u32::MAX` — the engine
    /// never looks at them.
    pub rep: Vec<u32>,
    /// Number of distinct signatures among the slot's alive entries.
    pub count: usize,
    /// Number of alive entries.
    pub alive: usize,
    /// Words per bitset below.
    w: usize,
    /// Five bitsets over the domain, `w` words each: the first alive entry
    /// of each signature (see [`SlotSigs::first`]), then the slot classes
    /// (see [`SlotSigs::classes`]) as `x` true, `x` false, `y` true, `y`
    /// false.
    bits: Vec<u64>,
    /// True when every alive entry's as-`x` class is true: any pair with
    /// one of this slot's values bound as `x` passes that ordering
    /// outright, whatever the other endpoint holds. Ordering 1 (row value
    /// as `x`) passes every pair of an arc when the row slot passes as `x`
    /// *or* the column slot passes as `y`; ordering 2 likewise with the
    /// roles swapped. So an arc is a no-op when both endpoints pass as `x`,
    /// or when one endpoint passes both as `x` and as `y` — the common
    /// case for label-guarded constraints on slots whose labels never match
    /// the guard (`kernel_arc`).
    pub all_pass_as_x: bool,
    /// True when every alive entry's as-`y` class is true.
    pub all_pass_as_y: bool,
    /// Distinct alive signatures whose as-`x` / as-`y` slot class is
    /// `Unknown`: what the two row-class passes of `kernel_arc` charge
    /// when no row is doomed.
    pub unknown_x: usize,
    pub unknown_y: usize,
}

impl SlotSigs {
    /// The first alive entry of each signature. A popcount of a lane set
    /// ANDed with this mask counts the distinct signatures in the set.
    pub fn first(&self) -> &[u64] {
        &self.bits[..self.w]
    }

    /// Slot-level classes with the entry bound as `var`: the alive entries
    /// whose verdict is definitely true / false with the other variable
    /// entirely unknown ([`PartialBinding::Any`]). A definite verdict
    /// holds against every other slot, so it is computed once per
    /// constraint × slot instead of once per arc; the rest defer to the
    /// per-arc classes.
    pub fn classes(&self, var: Var) -> (&[u64], &[u64]) {
        let at = match var {
            Var::X => 1,
            Var::Y => 3,
        };
        let w = self.w;
        (
            &self.bits[at * w..(at + 1) * w],
            &self.bits[(at + 1) * w..(at + 2) * w],
        )
    }
}

/// Multiplicative hasher for the packed `u64` signature keys. One interner
/// runs per slot per constraint application, so the default SipHash is a
/// measurable cost; the keys are already well-mixed bit-packed fields.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

pub(crate) type KeyMap = HashMap<u64, u32, std::hash::BuildHasherDefault<KeyHasher>>;

/// Intern the feature projections of every alive domain entry of `slot`
/// under the features `prog` reads, and compute the slot-level classes as
/// two lane passes (charged to `checks` as two evaluations per distinct
/// signature). Fills caller-owned buffers, keeping their capacity: a warm
/// worker's [`KernelScratch`] holds them across requests.
#[allow(clippy::too_many_arguments)] // once per slot per constraint; flat borrows
fn slot_signatures_into(
    prog: &KernelProgram,
    sentence: &Sentence,
    slot: &RoleSlot,
    lanes: &LaneSlot<'_>,
    buf: &mut PassBuffers,
    checks: &mut usize,
    interner: &mut KeyMap,
    out: &mut SlotSigs,
) {
    let f = prog.features().combined();
    let len = slot.domain.len();
    let w = slot.alive.words().len();
    interner.clear();
    out.rep.clear();
    out.rep.resize(len, u32::MAX);
    out.w = w;
    out.bits.clear();
    out.bits.resize(5 * w, 0);
    out.alive = 0;
    for v in slot.alive.iter_ones() {
        out.alive += 1;
        let rep = *interner
            .entry(signature_key(f, slot.domain[v]))
            .or_insert(v as u32);
        out.rep[v] = rep;
        if rep == v as u32 {
            out.bits[v / 64] |= 1 << (v % 64);
        }
    }
    out.count = interner.len();
    out.all_pass_as_x = false;
    out.all_pass_as_y = false;
    out.unknown_x = 0;
    out.unknown_y = 0;
    if out.count == 0 {
        return;
    }
    *checks += 2 * out.count;
    let alive = slot.alive.words();
    let (first, classes) = out.bits.split_at_mut(w);
    for (var, planes) in [Var::X, Var::Y]
        .into_iter()
        .zip(classes.chunks_exact_mut(2 * w))
    {
        let (t, f) = planes.split_at_mut(w);
        eval_mates(
            prog,
            sentence,
            lanes,
            (first, &out.rep),
            var,
            PartialBinding::Any,
            alive,
            buf,
            t,
            f,
        );
    }
    // `first` holds alive entries only.
    let unknown = |(t, f): (&[u64], &[u64])| -> usize {
        (0..w)
            .map(|k| (out.first()[k] & !(t[k] | f[k])).count_ones() as usize)
            .sum()
    };
    (out.unknown_x, out.unknown_y) = (unknown(out.classes(Var::X)), unknown(out.classes(Var::Y)));
    out.all_pass_as_x = covers(out.classes(Var::X).0, alive);
    out.all_pass_as_y = covers(out.classes(Var::Y).0, alive);
}

/// Run `prog` over the `set` lanes of `lanes` (see
/// [`KernelProgram::eval_lanes`]) by evaluating only the first lane of each
/// signature in the set and copying its verdict to its signature-mates,
/// which share every verdict.
#[allow(clippy::too_many_arguments)] // one lane pass; flat borrows
fn eval_mates(
    prog: &KernelProgram,
    sentence: &Sentence,
    lanes: &LaneSlot<'_>,
    (first, rep): (&[u64], &[u32]),
    var: Var,
    scalar: PartialBinding,
    set: &[u64],
    buf: &mut PassBuffers,
    t: &mut [u64],
    f: &mut [u64],
) {
    if covers(first, set) {
        prog.eval_lanes(sentence, lanes, var, scalar, set, &mut buf.lanes, t, f);
        return;
    }
    buf.reps.clear();
    buf.reps.extend(set.iter().zip(first).map(|(s, f)| s & f));
    prog.eval_lanes(
        sentence,
        lanes,
        var,
        scalar,
        &buf.reps,
        &mut buf.lanes,
        t,
        f,
    );
    for (k, (&s, &fw)) in set.iter().zip(first).enumerate() {
        let mut mates = s & !fw;
        while mates != 0 {
            let bit = mates.trailing_zeros() as usize;
            mates &= mates - 1;
            let r = rep[k * 64 + bit] as usize;
            let (rk, rb) = (r / 64, 1u64 << (r % 64));
            if t[rk] & rb != 0 {
                t[k] |= 1 << bit;
            }
            if f[rk] & rb != 0 {
                f[k] |= 1 << bit;
            }
        }
    }
}

/// Slot `k`'s lanes in `tables`.
fn lanes_of<'a>(tables: &'a LaneTables, k: SlotId, slot: &'a RoleSlot) -> LaneSlot<'a> {
    tables.slot(k, slot.pos(), slot.role, &slot.domain)
}

/// `a ⊇ b`, word by word.
fn covers(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(a, b)| b & !a == 0)
}

/// Popcount of `a ∧ b`.
fn count_and(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(a, b)| (a & b).count_ones() as usize)
        .sum()
}

/// Whether bit `i` of `words` is set.
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// The set bits of `words`, ascending.
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(k, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                k * 64 + b
            })
        })
    })
}

/// The buffers a lane pass borrows: the first lane of each signature in
/// its set, and the lane evaluator's scratch.
#[derive(Default)]
struct PassBuffers {
    reps: Vec<u64>,
    lanes: LaneScratch,
}

/// One lane pass: the lane set and its verdict words.
#[derive(Default)]
struct Pass {
    set: Vec<u64>,
    t: Vec<u64>,
    f: Vec<u64>,
    buf: PassBuffers,
}

impl Pass {
    /// Run `prog` over the lanes in `self.set` (already filled) with the
    /// lane variable `var` against `scalar`, charging the distinct
    /// signatures in the set to `checks`. Evaluates nothing and returns
    /// `false` when the set is empty; otherwise `self.t`/`self.f` hold the
    /// verdict words.
    #[allow(clippy::too_many_arguments)] // hot inner loop: flat borrows
    fn run(
        &mut self,
        prog: &KernelProgram,
        sentence: &Sentence,
        lanes: &LaneSlot<'_>,
        g: &SlotSigs,
        var: Var,
        scalar: PartialBinding,
        checks: &mut usize,
    ) -> bool {
        // Signature membership is uniform, so the set is empty exactly
        // when it holds no first lane.
        let distinct = count_and(&self.set, g.first());
        if distinct == 0 {
            return false;
        }
        *checks += distinct;
        self.t.resize(self.set.len(), 0);
        self.f.resize(self.set.len(), 0);
        eval_mates(
            prog,
            sentence,
            lanes,
            (g.first(), &g.rep),
            var,
            scalar,
            &self.set,
            &mut self.buf,
            &mut self.t,
            &mut self.f,
        );
        true
    }
}

/// Reusable scratch state for `kernel_arc`: one arc's bitsets as word
/// vectors, resized per arc without reallocating once warm, so applying a
/// constraint over hundreds of arcs costs zero steady-state allocation.
#[derive(Default)]
pub struct KernelScratch {
    pass: Pass,
    /// Row classes: the rows whose ordering-1 / ordering-2 class is
    /// definitely true / false (ordering 1 binds the row value as `x` and
    /// the column value as `y`; ordering 2 swaps them).
    r1t: Vec<u64>,
    r1f: Vec<u64>,
    r2t: Vec<u64>,
    r2f: Vec<u64>,
    /// Rows neither class-doomed nor class-passed.
    undecided: Vec<u64>,
    /// Column classes per ordering: definitely true / false / `Unknown`,
    /// and the columns true in both or unknown in either.
    c1t: Vec<u64>,
    c1f: Vec<u64>,
    c1u: Vec<u64>,
    c2t: Vec<u64>,
    c2f: Vec<u64>,
    c2u: Vec<u64>,
    c12t: Vec<u64>,
    c12u: Vec<u64>,
    /// The rows that need a mask, with the ordering their class passes.
    mask_rows: Vec<(usize, RowPass)>,
    /// One ordering's rows to verdict: the signature representatives.
    reps: Vec<usize>,
    /// Column-side verdicts: the column signatures some row needs, and
    /// the rows a verdict changed.
    cols: Vec<u64>,
    dirty: Vec<u64>,
    /// Per row signature, at its first row: the surviving columns (the
    /// row's mask once its verdicts are in).
    masks: Vec<Vec<u64>>,
    /// Pooled per-slot signature tables, reused across constraint
    /// applications (and, on a warm worker, across requests).
    sigs: Vec<SlotSigs>,
    /// Pooled signature interner, cleared per slot.
    interner: KeyMap,
    /// Per slot, a unary sweep's class and doomed values.
    unary: Vec<(Truth, Vec<u64>)>,
    /// The unit tests' per-row reference switch and shortcut tallies.
    #[cfg(test)]
    shortcuts: tests::Shortcuts,
}

impl KernelScratch {
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// Whether `kernel_arc_full` takes its shortcuts: always, except in
    /// the unit tests' per-row reference.
    #[cfg(not(test))]
    fn shortcuts(&self) -> bool {
        true
    }

    #[cfg(test)]
    fn shortcuts(&self) -> bool {
        !self.shortcuts.off
    }
}

/// Which ordering an undecided row's class passes (not both: that row is
/// passed outright). Ordering 1 binds the row value as `x`, ordering 2 the
/// column value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowPass {
    First,
    Second,
    Neither,
}

/// Which side of an arc one ordering's pair verdicts run along: one lane
/// pass per row signature over the column lanes, or one per column
/// signature over the row lanes. Both evaluate the same (row, column)
/// signature pairs, so both charge the same checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Along {
    Rows,
    Columns,
}

/// One endpoint of an arc as the verdict passes see it.
struct Side<'a> {
    slot: &'a RoleSlot,
    sigs: &'a SlotSigs,
    lanes: LaneSlot<'a>,
}

/// Counters produced by kernel application over one arc. `checks` are the
/// scalar-ledger evaluations (module docs); `memo_hits` the pair verdicts
/// settled without one.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ArcKernelCounts {
    pub zeroed: usize,
    pub checks: usize,
    pub masks_built: usize,
    pub memo_hits: usize,
}

impl ArcKernelCounts {
    /// Accumulate another arc's counters into this one.
    fn absorb(&mut self, other: ArcKernelCounts) {
        self.zeroed += other.zeroed;
        self.checks += other.checks;
        self.masks_built += other.masks_built;
        self.memo_hits += other.memo_hits;
    }
}

/// Classify the `alive` lanes of one slot in one ordering (the slot value
/// bound as `var`, the other endpoint `open`) into `t`/`f`: the slot
/// classes `g.classes(var)` where definite, one lane pass over the rest.
/// Lanes in `skip` (rows whose first ordering definitely failed) are
/// neither passed nor classified.
#[allow(clippy::too_many_arguments)] // four times per arc; flat borrows
fn refine(
    prog: &KernelProgram,
    sentence: &Sentence,
    lanes: &LaneSlot<'_>,
    g: &SlotSigs,
    var: Var,
    open: PartialBinding,
    alive: &[u64],
    skip: Option<&[u64]>,
    pass: &mut Pass,
    t: &mut Vec<u64>,
    f: &mut Vec<u64>,
    checks: &mut usize,
) {
    let (ct, cf) = g.classes(var);
    let w = alive.len();
    pass.set.resize(w, 0);
    t.resize(w, 0);
    f.resize(w, 0);
    for k in 0..w {
        let s = skip.map_or(0, |s| s[k]);
        pass.set[k] = alive[k] & !s & !(ct[k] | cf[k]);
        t[k] = ct[k] & !s;
        f[k] = cf[k] & !s;
    }
    if pass.run(prog, sentence, lanes, g, var, open, checks) {
        for k in 0..w {
            t[k] |= pass.t[k];
            f[k] |= pass.f[k];
        }
    }
}

/// Apply the sweep's program over arc `(i, j)`: lane passes for the row
/// classes, the column classes and each undecided row's verdicts, applied
/// as word-parallel row masks. The inner loop of
/// [`apply_pairwise_kernel_with`], which every host engine runs: it reads
/// the sweep and writes arc `(i, j)` alone.
///
/// An outer arc ([`ArcMatrix::Outer`]) is stored — its matrix drawn from
/// `pool` — at the first write that clears a live pair: a doomed row,
/// or a row mask that does not cover the column slot's alive set. A mask
/// that covers it leaves the arc outer.
///
/// Three whole-arc exits run first, on the slot classes alone. Ordering 1
/// (row value as `x`) passes every pair when the row slot passes as `x`
/// or the column slot passes as `y`; ordering 2 (column value as `x`)
/// when the column slot passes as `x` or the row slot passes as `y`. An
/// arc whose two orderings both pass that way is left untouched, and each
/// exit charges `checks` exactly what the full path would.
pub(crate) fn kernel_arc(
    sweep: &PairwiseSweep<'_>,
    i: SlotId,
    j: SlotId,
    arc: &mut ArcMatrix,
    scratch: &mut KernelScratch,
    pool: &mut ArcPool,
) -> ArcKernelCounts {
    let (gi, gj) = (&sweep.sigs[i], &sweep.sigs[j]);
    if gj.alive == 0 {
        return ArcKernelCounts::default();
    }
    // Every exit below settles all `gi.alive × gj.alive` pairs.
    let settled = ArcKernelCounts {
        memo_hits: gi.alive * gj.alive,
        ..ArcKernelCounts::default()
    };
    if gi.all_pass_as_x && gj.all_pass_as_x {
        // Ordering 1 passes by `gi`'s classes, ordering 2 by `gj`'s, and
        // by Kleene monotonicity a slot-level verdict covers each concrete
        // refinement. This exit charges nothing (the full path would
        // charge `gi`'s as-`y` row pass).
        return settled;
    }
    if gi.all_pass_as_x && gi.all_pass_as_y {
        // The row slot passes both orderings. The full path's row classes
        // are all `True` from the slot classes, so nothing is charged.
        return settled;
    }
    if gj.all_pass_as_x && gj.all_pass_as_y {
        // The column slot passes both orderings. No row can be doomed: a
        // definitely false ordering-1 row verdict (from its `Any` or `Open`
        // class) would by Kleene monotonicity be false against every alive
        // column value, which `gj`'s all-`True` as-`y` class contradicts.
        // So the full path runs both row passes over every row its slot
        // classes leave `Unknown`, finds every column class decided, and
        // zeroes nothing.
        return ArcKernelCounts {
            checks: gi.unknown_x + gi.unknown_y,
            ..settled
        };
    }
    kernel_arc_full(sweep, i, j, arc, scratch, pool)
}

/// `kernel_arc` past its whole-arc exits: the row classes, the column
/// classes and the pair verdicts.
///
/// Three shortcuts skip work that cannot change the arc, each charging
/// the ledger what the work would have:
/// - a column-class pass is not run when the row slot passes that
///   ordering by its slot classes (ordering 1 when `gi.all_pass_as_x`,
///   ordering 2 when `gi.all_pass_as_y`): every undecided row's class
///   then passes it, so no row reads those column classes. The pass is
///   charged its distinct `Unknown` signatures, `gj.unknown_y` or
///   `gj.unknown_x`;
/// - a class-decided row whose mask covers the column slot's alive set is
///   not ANDed: it clears nothing;
/// - each ordering's pair verdicts run along the arc's shorter side
///   ([`verdicts`]): one lane pass per column signature over the row
///   lanes when that takes fewer passes than one per row signature.
fn kernel_arc_full(
    sweep: &PairwiseSweep<'_>,
    i: SlotId,
    j: SlotId,
    arc: &mut ArcMatrix,
    scratch: &mut KernelScratch,
    pool: &mut ArcPool,
) -> ArcKernelCounts {
    let PairwiseSweep { prog, sentence, .. } = *sweep;
    let shortcuts = scratch.shortcuts();
    let (si, sj, gi, gj) = (
        &sweep.slots[i],
        &sweep.slots[j],
        &sweep.sigs[i],
        &sweep.sigs[j],
    );
    let mut counts = ArcKernelCounts::default();
    let alive_j = gj.alive;
    let KernelScratch {
        pass,
        r1t,
        r1f,
        r2t,
        r2f,
        undecided,
        c1t,
        c1f,
        c1u,
        c2t,
        c2f,
        c2u,
        c12t,
        c12u,
        mask_rows,
        reps,
        cols,
        dirty,
        masks,
        #[cfg(test)]
            shortcuts: tally,
        ..
    } = scratch;
    let rows = Side {
        slot: si,
        sigs: gi,
        lanes: lanes_of(sweep.lanes, i, si),
    };
    let columns = Side {
        slot: sj,
        sigs: gj,
        lanes: lanes_of(sweep.lanes, j, sj),
    };
    // Partial bindings standing for "any value of this slot" — pos/role are
    // slot constants, so they resolve definitely even with the value open.
    let open_i = PartialBinding::Open {
        pos: si.pos(),
        role: si.role,
    };
    let open_j = PartialBinding::Open {
        pos: sj.pos(),
        role: sj.role,
    };
    // Row classes: by Kleene monotonicity a definite class holds for every
    // concrete pair in the row. This is what beats the naive path: most
    // constraints are vacuous on most rows (a guard like `(eq (lab x) S)`
    // fails for every other label), and one lane pass settles them all.
    // Ordering 1 refines the rows' as-x slot classes, ordering 2 their
    // as-y ones — except where the first definitely failed: that row is
    // doomed either way.
    let alive_i = si.alive.words();
    refine(
        prog,
        sentence,
        &rows.lanes,
        gi,
        Var::X,
        open_j,
        alive_i,
        None,
        pass,
        r1t,
        r1f,
        &mut counts.checks,
    );
    refine(
        prog,
        sentence,
        &rows.lanes,
        gi,
        Var::Y,
        open_j,
        alive_i,
        Some(r1f),
        pass,
        r2t,
        r2f,
        &mut counts.checks,
    );
    undecided.clear();
    for k in 0..alive_i.len() {
        // Every pair of a doomed row fails; dead columns are already zero,
        // so the row's popcount is exactly the naive per-cell clears.
        let doomed = r1f[k] | r2f[k];
        for a in ones(&[doomed]) {
            counts.zeroed += arc.zero_row(k * 64 + a, &si.alive, &sj.alive, pool);
        }
        // Every pair of a row passing both orderings survives.
        let passed = r1t[k] & r2t[k];
        counts.memo_hits += alive_j * passed.count_ones() as usize;
        undecided.push(alive_i[k] & !doomed & !passed);
    }
    if undecided.iter().all(|&w| w == 0) {
        return counts;
    }
    // Column classes, both orderings (ordering 1 binds the column value as
    // `y`, so it refines the columns' as-y slot classes). A row slot that
    // passes an ordering by its slot classes leaves that ordering's column
    // classes unread: the pass is only charged.
    let alive_j_w = sj.alive.words();
    let (charge1, charge2) = (shortcuts && gi.all_pass_as_x, shortcuts && gi.all_pass_as_y);
    for (var, charge, unknown, t, f, u) in [
        (
            Var::Y,
            charge1,
            gj.unknown_y,
            &mut *c1t,
            &mut *c1f,
            &mut *c1u,
        ),
        (
            Var::X,
            charge2,
            gj.unknown_x,
            &mut *c2t,
            &mut *c2f,
            &mut *c2u,
        ),
    ] {
        if charge {
            counts.checks += unknown;
            #[cfg(test)]
            {
                tally.charged += 1;
            }
            continue;
        }
        refine(
            prog,
            sentence,
            &columns.lanes,
            gj,
            var,
            open_i,
            alive_j_w,
            None,
            pass,
            t,
            f,
            &mut counts.checks,
        );
        u.clear();
        u.extend((0..t.len()).map(|k| alive_j_w[k] & !(t[k] | f[k])));
    }
    if !(charge1 || charge2) {
        c12t.clear();
        c12t.extend(c1t.iter().zip(c2t.iter()).map(|(a, b)| a & b));
        c12u.clear();
        c12u.extend(c1u.iter().zip(c2u.iter()).map(|(a, b)| a | b));
    }
    // Each ordering of an undecided row is `True` or `Unknown`, not both
    // `True`. It is decided by its own `True` class or, column by column,
    // by a definite column class; only the columns left `Unknown` for an
    // undecided ordering need pair verdicts. The surviving columns are
    // `base` plus those of `open` no definite verdict fails.
    let sides = |pass: RowPass| -> (&[u64], &[u64]) {
        match pass {
            RowPass::First => (c2t, c2u),
            RowPass::Second => (c1t, c1u),
            RowPass::Neither => (c12t, c12u),
        }
    };
    let first_j = gj.first();
    if masks.len() < si.domain.len() {
        masks.resize_with(si.domain.len(), Vec::new);
    }
    let mut covers_alive: [Option<bool>; 3] = [None; 3];
    mask_rows.clear();
    for a in ones(undecided) {
        let kind = match (bit(r1t, a), bit(r2t, a)) {
            (true, _) => RowPass::First,
            (_, true) => RowPass::Second,
            _ => RowPass::Neither,
        };
        let (base, open) = sides(kind);
        if open.iter().all(|&w| w == 0) {
            // Class-decided: the surviving columns are exactly `base`.
            counts.memo_hits += alive_j;
            let covered =
                *covers_alive[kind as usize].get_or_insert_with(|| covers(base, alive_j_w));
            if shortcuts && covered {
                // The row holds no 1 outside the alive columns.
                #[cfg(test)]
                {
                    tally.covered += 1;
                }
                continue;
            }
            counts.zeroed += arc.and_row(a, base, &si.alive, &sj.alive, pool);
            continue;
        }
        if gi.rep[a] as usize == a {
            // The first row of its signature: its mask starts as `open`
            // less the columns ordering 1's class fails.
            let keep = &mut masks[a];
            keep.clear();
            if kind == RowPass::First {
                keep.extend_from_slice(open);
            } else {
                keep.extend(open.iter().zip(c1f.iter()).map(|(o, f)| o & !f));
            }
        }
        mask_rows.push((a, kind));
    }
    if mask_rows.is_empty() {
        return counts;
    }
    // Ordering 1 (row value as `x`) where no row class passes it, then
    // ordering 2 over what ordering 1 left.
    for (row_var, needs, unknown) in [
        (Var::X, RowPass::First, &*c1u),
        (Var::Y, RowPass::Second, &*c2u),
    ] {
        reps.clear();
        reps.extend(
            mask_rows
                .iter()
                .filter(|&&(a, kind)| kind != needs && gi.rep[a] as usize == a)
                .map(|&(a, _)| a),
        );
        if reps.is_empty() {
            continue;
        }
        let along = if shortcuts {
            shorter_side(reps, masks, unknown, first_j, cols)
        } else {
            Along::Rows
        };
        #[cfg(test)]
        {
            if along == Along::Columns {
                tally.along_columns += 1;
            }
        }
        verdicts(
            sweep,
            &rows,
            &columns,
            row_var,
            along,
            reps,
            unknown,
            masks,
            (pass, cols, dirty),
            &mut counts.checks,
        );
    }
    for &(a, kind) in mask_rows.iter() {
        let sa = gi.rep[a] as usize;
        if sa == a {
            let (base, open) = sides(kind);
            counts.memo_hits += alive_j - count_and(open, first_j);
            counts.masks_built += 1;
            // Drop the columns ordering 2's column class fails, unless
            // the row's own class passes ordering 2.
            let mask = &mut masks[a];
            for k in 0..mask.len() {
                let failed = if kind == RowPass::Second { 0 } else { c2f[k] };
                mask[k] = base[k] | mask[k] & !failed;
            }
        } else {
            // A signature-mate's mask answers the whole row.
            counts.memo_hits += alive_j;
        }
        counts.zeroed += arc.and_row(a, &masks[sa], &si.alive, &sj.alive, pool);
    }
    counts
}

/// The side one ordering's verdicts take fewer lane passes along: a pass
/// per row in `reps` with a column signature to verdict, or a pass per
/// column signature some row needs. Leaves those column signatures (the
/// columns of `unknown` in some row's mask, first lanes only) in `cols`.
fn shorter_side(
    reps: &[usize],
    masks: &[Vec<u64>],
    unknown: &[u64],
    first_j: &[u64],
    cols: &mut Vec<u64>,
) -> Along {
    cols.clear();
    cols.resize(unknown.len(), 0);
    let mut row_passes = 0;
    for &a in reps {
        let mut any = 0;
        for (k, c) in cols.iter_mut().enumerate() {
            let w = masks[a][k] & unknown[k] & first_j[k];
            *c |= w;
            any |= w;
        }
        row_passes += usize::from(any != 0);
    }
    let col_passes: usize = cols.iter().map(|w| w.count_ones() as usize).sum();
    if col_passes < row_passes {
        Along::Columns
    } else {
        Along::Rows
    }
}

/// One ordering's pair verdicts: every row of `reps` (row signature
/// representatives) loses from its mask in `masks` the columns of
/// `unknown` whose pair verdict is definitely false, the row value bound
/// as `row_var`. Along the rows, one lane pass per row over its columns
/// (the column value as the other variable); along the columns, one lane
/// pass per column signature in `cols` (left there by [`shorter_side`])
/// over the rows whose mask holds it, its verdicts then copied to the
/// column's signature-mates. Each (row, column) signature pair is
/// evaluated and charged once either way.
#[allow(clippy::too_many_arguments)] // twice per arc; flat borrows
fn verdicts(
    sweep: &PairwiseSweep<'_>,
    rows: &Side<'_>,
    columns: &Side<'_>,
    row_var: Var,
    along: Along,
    reps: &[usize],
    unknown: &[u64],
    masks: &mut [Vec<u64>],
    (pass, cols, dirty): (&mut Pass, &mut Vec<u64>, &mut Vec<u64>),
    checks: &mut usize,
) {
    let PairwiseSweep { prog, sentence, .. } = *sweep;
    let col_var = match row_var {
        Var::X => Var::Y,
        Var::Y => Var::X,
    };
    match along {
        Along::Rows => {
            for &a in reps {
                let keep = &mut masks[a];
                pass.set.clear();
                pass.set
                    .extend(keep.iter().zip(unknown).map(|(k, u)| k & u));
                let row = PartialBinding::Bound(rows.slot.binding(a));
                if pass.run(
                    prog,
                    sentence,
                    &columns.lanes,
                    columns.sigs,
                    col_var,
                    row,
                    checks,
                ) {
                    for (k, f) in keep.iter_mut().zip(&pass.f) {
                        *k &= !f;
                    }
                }
            }
        }
        Along::Columns => {
            let wi = rows.slot.alive.words().len();
            dirty.clear();
            dirty.resize(wi, 0);
            for b in ones(cols) {
                let (bk, bb) = (b / 64, 1u64 << (b % 64));
                pass.set.clear();
                pass.set.resize(wi, 0);
                for &a in reps {
                    if masks[a][bk] & bb != 0 {
                        pass.set[a / 64] |= 1 << (a % 64);
                    }
                }
                let column = PartialBinding::Bound(columns.slot.binding(b));
                if pass.run(
                    prog,
                    sentence,
                    &rows.lanes,
                    rows.sigs,
                    row_var,
                    column,
                    checks,
                ) {
                    for a in ones(&pass.f) {
                        masks[a][bk] &= !bb;
                        dirty[a / 64] |= 1 << (a % 64);
                    }
                }
            }
            // A changed row's mates of each column signature follow it.
            let (first_j, rep_j) = (columns.sigs.first(), &columns.sigs.rep);
            let alive_j = columns.slot.alive.words();
            for a in ones(dirty) {
                let keep = &mut masks[a];
                for (k, (&live, &fw)) in alive_j.iter().zip(first_j).enumerate() {
                    let mut mates = live & !fw;
                    while mates != 0 {
                        let bit = mates.trailing_zeros() as usize;
                        mates &= mates - 1;
                        let r = rep_j[k * 64 + bit] as usize;
                        if keep[r / 64] >> (r % 64) & 1 == 0 {
                            keep[k] &= !(1 << bit);
                        }
                    }
                }
            }
        }
    }
}

/// What one pairwise constraint application shares across its arcs: the
/// resolved program, every slot's signatures and slot classes, and the
/// network's lane tables.
pub(crate) struct PairwiseSweep<'a> {
    prog: &'a KernelProgram,
    sentence: &'a Sentence,
    slots: &'a [RoleSlot],
    sigs: &'a [SlotSigs],
    lanes: &'a LaneTables,
}

/// Resolve `constraint`'s program from the grammar's compiled artifact
/// when the caller attached one, compiling inline otherwise (the cold
/// oracle, and the only path for extra constraints outside the grammar's
/// own set), and hand it to `body`.
fn with_program<R>(
    net: &mut Network<'_>,
    constraint: &Constraint,
    body: impl FnOnce(&mut Network<'_>, &KernelProgram) -> R,
) -> R {
    let compiled = net.compiled.clone();
    let owned;
    let prog = match compiled
        .as_deref()
        .and_then(|cg| cg.program_for(net.grammar(), constraint))
    {
        Some(p) => p,
        None => {
            owned = KernelProgram::compile(&constraint.expr);
            &owned
        }
    };
    body(net, prog)
}

/// Apply a constraint pairwise over every arc. Serves both binary
/// constraints (`check_pair` semantics) and unary constraints applied
/// pairwise with witness semantics — both reduce to "evaluate the
/// expression in both orderings; the pair survives only if neither is
/// definitely violated". Resolves the program, builds the network's lane
/// tables if it has none, computes every slot's signatures and slot
/// classes, runs `kernel_arc` over the arcs in storage order (a write
/// that stores an arc draws its matrix from the network's arc pool) and
/// records the counters in the network's stats. Returns entries zeroed.
/// The caller-owned scratch lets a sweep over many constraints reuse the
/// lane, class and mask buffers instead of reallocating them per
/// constraint.
pub fn apply_pairwise_kernel_with(
    net: &mut Network<'_>,
    constraint: &Constraint,
    scratch: &mut KernelScratch,
) -> usize {
    with_program(net, constraint, |net, prog| {
        net.ensure_lane_tables();
        let parts = net.parts_mut();
        // Move the pooled signature tables out of the scratch so they and
        // the per-arc buffers (borrowed mutably by `kernel_arc`) can
        // coexist; the tables go back at the end, capacity intact.
        let mut sigs = std::mem::take(&mut scratch.sigs);
        let checks = all_signatures(prog, &parts, scratch, &mut sigs);
        let sweep = PairwiseSweep {
            prog,
            sentence: parts.sentence,
            slots: parts.slots,
            sigs: &sigs,
            lanes: parts.lanes,
        };
        let mut totals = ArcKernelCounts::default();
        for (arc, &(i, j, _)) in parts.arcs.iter_mut().zip(parts.pairs) {
            totals.absorb(kernel_arc(&sweep, i, j, arc, scratch, parts.pool));
        }
        parts.stats.binary_checks += checks + totals.checks;
        parts.stats.kernel_masks += totals.masks_built;
        parts.stats.kernel_memo_hits += totals.memo_hits;
        parts.stats.entries_zeroed += totals.zeroed;
        scratch.sigs = sigs;
        totals.zeroed
    })
}

/// Every slot's signatures and slot classes under `prog`, into `sigs`
/// (one table per slot, capacity kept). Returns the checks charged.
fn all_signatures(
    prog: &KernelProgram,
    parts: &NetParts<'_>,
    scratch: &mut KernelScratch,
    sigs: &mut Vec<SlotSigs>,
) -> usize {
    if sigs.len() < parts.slots.len() {
        sigs.resize_with(parts.slots.len(), SlotSigs::default);
    }
    let mut checks = 0;
    for (k, (slot, out)) in parts.slots.iter().zip(sigs.iter_mut()).enumerate() {
        slot_signatures_into(
            prog,
            parts.sentence,
            slot,
            &lanes_of(parts.lanes, k, slot),
            &mut scratch.pass.buf,
            &mut checks,
            &mut scratch.interner,
            out,
        );
    }
    checks
}

/// What one unary constraint application shares across its slots: the
/// resolved program, the slots and the network's lane tables.
pub(crate) struct UnarySweep<'a> {
    prog: &'a KernelProgram,
    sentence: &'a Sentence,
    lanes: &'a LaneTables,
    slots: &'a [RoleSlot],
}

impl UnarySweep<'_> {
    /// One slot of the sweep: `doomed` receives the alive values of slot
    /// `k` the program definitely violates, one bit per domain entry;
    /// returns the slot class ([`KernelProgram::unary_lanes`]). A slot
    /// with no alive value is skipped. Reads slot `k` only, so
    /// [`apply_unary_kernel_with`] runs every slot before it removes any
    /// value.
    fn slot(&self, k: SlotId, scratch: &mut LaneScratch, doomed: &mut Vec<u64>) -> Truth {
        let slot = &self.slots[k];
        if !slot.alive.any() {
            return Truth::Unknown;
        }
        doomed.resize(slot.alive.words().len(), 0);
        self.prog.unary_lanes(
            self.sentence,
            &lanes_of(self.lanes, k, slot),
            slot.alive.words(),
            scratch,
            doomed,
        )
    }
}

/// Apply a unary constraint a slot at a time
/// ([`KernelProgram::unary_lanes`]): the slot class, then one lane pass
/// over the alive values a class leaves undecided. Every slot's verdicts
/// are computed first (`UnarySweep::slot`), then the doomed values are
/// removed through [`Network::remove_value`]: removing a value of one
/// slot changes no other slot's verdicts. `unary_checks` still counts one
/// check per alive value — the naive path's accounting;
/// `kernel_memo_hits` counts the values a slot class decides. The program
/// is resolved (artifact) or compiled exactly once per call. The network's
/// lane tables are sized here, so the rows a slot builds for a unary pass
/// serve every later binary pass over that slot. Returns values removed.
pub fn apply_unary_kernel_with(
    net: &mut Network<'_>,
    constraint: &Constraint,
    scratch: &mut KernelScratch,
) -> usize {
    with_program(net, constraint, |net, prog| {
        net.ensure_lane_tables();
        let num = net.num_slots();
        let out = &mut scratch.unary;
        if out.len() < num {
            out.resize_with(num, || (Truth::Unknown, Vec::new()));
        }
        let sweep = UnarySweep {
            prog,
            sentence: net.sentence(),
            lanes: net.lane_tables(),
            slots: net.slots(),
        };
        let lanes = &mut scratch.pass.buf.lanes;
        for (k, (class, doomed)) in out[..num].iter_mut().enumerate() {
            *class = sweep.slot(k, lanes, doomed);
        }
        let (mut checks, mut memo_hits, mut removed) = (0, 0, 0);
        for (k, (class, doomed)) in out[..num].iter().enumerate() {
            let alive = net.slot(k).alive.count_ones();
            if alive == 0 {
                continue;
            }
            checks += alive;
            if *class != Truth::Unknown {
                memo_hits += alive;
            }
            for idx in ones(doomed) {
                net.remove_value(k, idx);
                removed += 1;
            }
        }
        net.stats.unary_checks += checks;
        net.stats.kernel_memo_hits += memo_hits;
        removed
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::EvalStrategy;
    use cdg_grammar::grammars::{english, paper};

    /// The core bit-identity claim, at the single-constraint granularity:
    /// every propagation function produces the same network under both
    /// strategies.
    #[test]
    fn kernel_matches_naive_per_constraint() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        for text in [
            "the dog runs",
            "the watch runs",
            "the dog runs in the park",
            "program the runs",
        ] {
            let Ok(s) = lex.sentence(text) else { continue };
            let mut nk = Network::build(&g, &s);
            let mut nn = Network::build(&g, &s);
            nk.eval = EvalStrategy::Kernel;
            nn.eval = EvalStrategy::Naive;
            crate::propagate::apply_all_unary(&mut nk);
            crate::propagate::apply_all_unary(&mut nn);
            nk.init_arcs();
            nn.init_arcs();
            for c in g.binary_constraints() {
                let zk = crate::propagate::apply_binary(&mut nk, c);
                let zn = crate::propagate::apply_binary(&mut nn, c);
                assert_eq!(zk, zn, "zeroed counts diverge on {} for `{text}`", c.name);
            }
            if s.has_lexical_ambiguity() {
                for c in g.unary_constraints() {
                    let zk = crate::propagate::apply_unary_pairwise(&mut nk, c);
                    let zn = crate::propagate::apply_unary_pairwise(&mut nn, c);
                    assert_eq!(zk, zn, "pairwise diverges on {} for `{text}`", c.name);
                }
            }
            assert_eq!(nk.stats.entries_zeroed, nn.stats.entries_zeroed);
            let (lk, ln) = (nk.logical_arcs(), nn.logical_arcs());
            for (&(i, j, idx), &(i2, j2, idx2)) in nk.arc_pairs().iter().zip(nn.arc_pairs()) {
                assert_eq!((i, j, idx), (i2, j2, idx2));
                assert_eq!(lk[idx], ln[idx], "arc ({i},{j}) diverges for `{text}`");
            }
        }
    }

    #[test]
    fn memoization_avoids_most_evaluations() {
        // `unique-root` reads only the labels, so a slot's domain (labels ×
        // modifiees) collapses to one signature per label and signature-
        // mates share the bulk of the pair verdicts. Arcs are built over
        // the unpruned domains to exercise the full collapse.
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex
            .sentence("the dog runs in the park")
            .expect("in lexicon");
        let mut net = Network::build(&g, &s);
        net.init_arcs();
        let c = g
            .binary_constraints()
            .iter()
            .find(|c| c.name == "unique-root")
            .expect("grammar has unique-root");
        apply_pairwise_kernel_with(&mut net, c, &mut KernelScratch::new());
        let evals = net.stats.binary_checks;
        assert!(net.stats.kernel_memo_hits > 0, "no verdict was shared");
        assert!(
            net.stats.kernel_memo_hits > evals,
            "expected memoized verdicts ({}) to dominate evaluations ({evals})",
            net.stats.kernel_memo_hits
        );
        assert!(net.stats.kernel_masks > 0);
    }

    #[test]
    fn column_classes_decide_a_b_mutual_rows() {
        // `a-b-mutual` on a¹²b¹² (n = 24): the a–a and b–b arcs, and every a–b row
        // but one, are decided by row and column classes alone, so they
        // are applied as precomputed column masks — no pair verdicts, no
        // per-row mask. The one exception per a–b arc is the row that
        // points at the column's word: its first ordering hinges on
        // whether the column points back, which only a pair evaluation
        // can answer.
        let g = cdg_grammar::grammars::formal::anbn_grammar();
        let s = cdg_grammar::grammars::formal::anbn_sentence(&g, &corpus::formal::anbn(12));
        let c = g
            .binary_constraints()
            .iter()
            .find(|c| c.name == "a-b-mutual")
            .expect("grammar has a-b-mutual");
        let settle = |eval| {
            let mut net = Network::build(&g, &s);
            net.eval = eval;
            crate::propagate::apply_all_unary(&mut net);
            net.init_arcs();
            let zeroed = crate::propagate::apply_binary(&mut net, c);
            (zeroed, net)
        };
        let (zk, nk) = settle(EvalStrategy::Kernel);
        let (zn, nn) = settle(EvalStrategy::Naive);
        assert!(
            zk > 0,
            "a-b-mutual zeroed nothing; the check lost its teeth"
        );
        assert_eq!(zk, zn);
        assert_eq!(nk.logical_arcs(), nn.logical_arcs());
        assert_eq!(nk.stats.kernel_masks, 12 * 12, "one mask per a–b arc");
    }

    /// Each whole-arc exit of `kernel_arc` equals the full path. On
    /// every arc of every binary constraint over a small corpus (and of
    /// every unary constraint applied pairwise on a lexically ambiguous
    /// sentence), wherever the row-both or column-both exit fires, the
    /// full path run on a clone of the matrix leaves the same matrix and
    /// charges the same ledger.
    #[test]
    fn whole_arc_exits_match_the_full_path() {
        use cdg_grammar::grammars::formal;
        let anbn = formal::anbn_grammar();
        let brackets = formal::brackets_grammar();
        let ww = formal::ww_grammar();
        let eng = english::grammar();
        let lex = english::lexicon(&eng);
        let (aux, aux_lex) = corpus::extended_setup();
        let ambiguous = (8u64..)
            .map(|seed| corpus::english_aux_sentence(&aux, &aux_lex, 8, seed))
            .find(|s| s.has_lexical_ambiguity())
            .expect("the extended lexicon has ambiguous base forms");
        let inputs = [
            (
                &anbn,
                formal::anbn_sentence(&anbn, &corpus::formal::anbn(6)),
            ),
            (
                &brackets,
                formal::brackets_sentence(&brackets, &corpus::formal::nested_brackets(6)),
            ),
            (&ww, formal::ww_sentence(&ww, &corpus::formal::ww(4, 1))),
            (&eng, corpus::english_sentence(&eng, &lex, 8, 11)),
            (&aux, ambiguous),
        ];
        let both = |g: &SlotSigs| g.all_pass_as_x && g.all_pass_as_y;
        let (mut row_both, mut column_both) = (0, 0);
        for (g, s) in &inputs {
            let mut net = Network::build(g, s);
            crate::propagate::apply_all_unary(&mut net);
            net.init_arcs();
            let pairwise = s.has_lexical_ambiguity().then(|| g.unary_constraints());
            for c in g
                .binary_constraints()
                .iter()
                .chain(pairwise.into_iter().flatten())
            {
                let mut full_scratch = KernelScratch::new();
                with_program(&mut net, c, |net, prog| {
                    net.ensure_lane_tables();
                    let parts = net.parts_mut();
                    let mut sigs = Vec::new();
                    all_signatures(prog, &parts, &mut KernelScratch::new(), &mut sigs);
                    let sweep = PairwiseSweep {
                        prog,
                        sentence: parts.sentence,
                        slots: parts.slots,
                        sigs: &sigs,
                        lanes: parts.lanes,
                    };
                    for (m, &(i, j, _)) in parts.arcs.iter_mut().zip(parts.pairs) {
                        let (gi, gj) = (&sigs[i], &sigs[j]);
                        let mut full = m.clone();
                        let want = kernel_arc_full(
                            &sweep,
                            i,
                            j,
                            &mut full,
                            &mut full_scratch,
                            &mut ArcPool::new(),
                        );
                        // The full path's first row pass sizes `r1t`; an
                        // exit leaves a fresh scratch's empty.
                        let mut fresh = KernelScratch::new();
                        let got = kernel_arc(&sweep, i, j, m, &mut fresh, parts.pool);
                        let exited = fresh.r1t.is_empty();
                        let old_exit = gj.alive == 0 || gi.all_pass_as_x && gj.all_pass_as_x;
                        let at = format!("{} on arc ({i},{j}) of `{s}`", c.name);
                        assert_eq!(exited, old_exit || both(gi) || both(gj), "exit: {at}");
                        if exited && !old_exit {
                            if both(gi) {
                                row_both += 1;
                            } else {
                                column_both += 1;
                            }
                            assert_eq!(*m, full, "matrix differs: {at}");
                            assert_eq!(got.zeroed, want.zeroed, "zeroed differs: {at}");
                            assert_eq!(got.checks, want.checks, "checks differ: {at}");
                            assert_eq!(got.memo_hits, want.memo_hits, "memo hits differ: {at}");
                        }
                    }
                });
            }
        }
        assert!(row_both > 0, "the row-both exit never fired");
        assert!(column_both > 0, "the column-both exit never fired");
    }

    /// The per-row reference switch of [`KernelScratch`] and how often
    /// each shortcut of `kernel_arc_full` fired.
    #[derive(Default)]
    pub(super) struct Shortcuts {
        /// Run the per-row reference: every column-class pass, every
        /// class-decided AND, and pair verdicts along the rows.
        pub off: bool,
        /// Column-class passes charged without running.
        pub charged: usize,
        /// Class-decided rows not ANDed because their mask covers the
        /// column slot's alive set.
        pub covered: usize,
        /// Orderings whose verdicts ran along the columns.
        pub along_columns: usize,
    }

    /// The shortcuts of `kernel_arc_full` equal the per-row reference. On
    /// every arc the full path reaches, over the corpus of
    /// `whole_arc_exits_match_the_full_path` plus longer aⁿbⁿ and bracket
    /// strings, the shortcut run and the reference run on a clone of the
    /// matrix leave the same matrix and charge the same ledger; each
    /// shortcut fires at least once.
    #[test]
    fn shortcuts_match_the_per_row_reference() {
        use cdg_grammar::grammars::formal;
        let anbn = formal::anbn_grammar();
        let brackets = formal::brackets_grammar();
        let ww = formal::ww_grammar();
        let eng = english::grammar();
        let lex = english::lexicon(&eng);
        let (aux, aux_lex) = corpus::extended_setup();
        let ambiguous = (8u64..)
            .map(|seed| corpus::english_aux_sentence(&aux, &aux_lex, 8, seed))
            .find(|s| s.has_lexical_ambiguity())
            .expect("the extended lexicon has ambiguous base forms");
        let inputs = [
            (
                &anbn,
                formal::anbn_sentence(&anbn, &corpus::formal::anbn(6)),
            ),
            (
                &anbn,
                formal::anbn_sentence(&anbn, &corpus::formal::anbn(12)),
            ),
            (
                &brackets,
                formal::brackets_sentence(&brackets, &corpus::formal::nested_brackets(6)),
            ),
            (
                &brackets,
                formal::brackets_sentence(&brackets, &corpus::formal::nested_brackets(16)),
            ),
            (&ww, formal::ww_sentence(&ww, &corpus::formal::ww(4, 1))),
            (&eng, corpus::english_sentence(&eng, &lex, 8, 11)),
            (&eng, corpus::english_sentence(&eng, &lex, 14, 3)),
            (&aux, ambiguous),
        ];
        let mut fired = Shortcuts::default();
        let mut arcs = 0;
        for (g, s) in &inputs {
            let mut net = Network::build(g, s);
            crate::propagate::apply_all_unary(&mut net);
            net.init_arcs();
            let pairwise = s.has_lexical_ambiguity().then(|| g.unary_constraints());
            for c in g
                .binary_constraints()
                .iter()
                .chain(pairwise.into_iter().flatten())
            {
                let mut reference = KernelScratch::new();
                reference.shortcuts.off = true;
                let mut fast = KernelScratch::new();
                with_program(&mut net, c, |net, prog| {
                    net.ensure_lane_tables();
                    let parts = net.parts_mut();
                    let mut sigs = Vec::new();
                    all_signatures(prog, &parts, &mut KernelScratch::new(), &mut sigs);
                    let sweep = PairwiseSweep {
                        prog,
                        sentence: parts.sentence,
                        slots: parts.slots,
                        sigs: &sigs,
                        lanes: parts.lanes,
                    };
                    for (m, &(i, j, _)) in parts.arcs.iter_mut().zip(parts.pairs) {
                        let (gi, gj) = (&sigs[i], &sigs[j]);
                        let exits = gj.alive == 0
                            || gi.all_pass_as_x && (gj.all_pass_as_x || gi.all_pass_as_y)
                            || gj.all_pass_as_x && gj.all_pass_as_y;
                        if exits {
                            continue;
                        }
                        arcs += 1;
                        let mut want_m = m.clone();
                        let want = kernel_arc_full(
                            &sweep,
                            i,
                            j,
                            &mut want_m,
                            &mut reference,
                            &mut ArcPool::new(),
                        );
                        let got = kernel_arc_full(&sweep, i, j, m, &mut fast, parts.pool);
                        let at = format!("{} on arc ({i},{j}) of `{s}`", c.name);
                        assert_eq!(*m, want_m, "matrix differs: {at}");
                        assert_eq!(got.zeroed, want.zeroed, "zeroed differs: {at}");
                        assert_eq!(got.checks, want.checks, "checks differ: {at}");
                        assert_eq!(got.masks_built, want.masks_built, "masks differ: {at}");
                        assert_eq!(got.memo_hits, want.memo_hits, "memo hits differ: {at}");
                    }
                });
                let (r, f) = (&reference.shortcuts, &fast.shortcuts);
                assert_eq!((r.charged, r.covered, r.along_columns), (0, 0, 0));
                fired.charged += f.charged;
                fired.covered += f.covered;
                fired.along_columns += f.along_columns;
            }
        }
        assert!(arcs > 0, "no arc reached the full path");
        assert!(fired.charged > 0, "no column-class pass was only charged");
        assert!(
            fired.covered > 0,
            "no covering class-decided row was skipped"
        );
        assert!(fired.along_columns > 0, "no verdicts ran along the columns");
    }

    #[test]
    fn unary_kernel_counts_like_naive() {
        // Pinned by the Figure 2 walkthrough: one unary check per alive
        // value, regardless of evaluator.
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let mut nk = Network::build(&g, &s);
        let mut nn = Network::build(&g, &s);
        nn.eval = EvalStrategy::Naive;
        let c = &g.unary_constraints()[0];
        assert_eq!(
            crate::propagate::apply_unary(&mut nk, c),
            crate::propagate::apply_unary(&mut nn, c)
        );
        assert_eq!(nk.stats.unary_checks, nn.stats.unary_checks);
        assert_eq!(nk.stats.unary_checks, 54);
    }
}
