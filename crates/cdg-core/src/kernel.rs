//! The word-parallel constraint-kernel propagation engine.
//!
//! The naive propagation loop in [`crate::propagate`] walks the boxed
//! `CExpr` tree once per live arc cell — O(k_b·n⁴) interpreter calls. This
//! module replaces that inner loop, per constraint and per arc, with:
//!
//! 1. **Bytecode.** The constraint is lowered once to a flat
//!    [`KernelProgram`] ([`cdg_grammar::kernel`]); each evaluation is a
//!    loop over contiguous ops with a reused scratch stack instead of a
//!    `Box`-chasing recursion.
//! 2. **Partial-evaluation classes.** Before touching individual pairs,
//!    each row (and, on demand, each column) is *classified* by evaluating
//!    the program with the other slot's value [`PartialBinding::Open`]:
//!    `pos`/`role` resolve (they are slot constants), only the open value's
//!    features read as `Unknown`. Kleene monotonicity makes a definite
//!    class verdict binding for every concrete pair in the row/column —
//!    `False` zeroes the row in one word-parallel sweep, `True`×`True`
//!    skips it untouched, and only the `Unknown` remainder is evaluated
//!    pairwise.
//! 3. **Signature memoization.** Within one slot, `pos` and `role` are
//!    fixed; a pair verdict can only depend on the feature projections the
//!    constraint actually reads (label / modifiee / category — see
//!    `PairFeatures`). Domains collapse to a handful of distinct
//!    signatures, so verdicts are computed once per *(signature,
//!    signature)* and reused for every concrete pair sharing them.
//! 4. **Row masks.** For each live value `a` of the row slot, the allowed
//!    columns form a [`BitVec`] mask (one per distinct row signature);
//!    applying it is a word-parallel `row_and_count` — the software
//!    analogue of the MasPar's constant-time AND over a row of PEs. Each
//!    arc's column classes are gathered once into column masks; a row
//!    starts from the mask its own class selects and looks up pair
//!    verdicts only for the columns whose class is `Unknown`. A row with
//!    none is applied as that column mask directly, building no mask of
//!    its own.
//!
//! Results are bit-identical to the naive path: the mask has a 1 exactly
//! where the naive per-cell check would keep the entry, dead columns are
//! already all-zero (so the extra AND there clears nothing), and
//! `row_and_count` reports exactly the 1→0 transitions that per-cell
//! `zero_arc_entry` calls would have counted.

use crate::network::{Network, RoleSlot};
use bitmat::{BitMatrix, BitVec};
use cdg_grammar::expr::EvalCtx;
use cdg_grammar::kernel::{signature_key, KernelProgram, PartialBinding};
use cdg_grammar::value::Truth;
use cdg_grammar::{Constraint, Sentence, Value};
use std::collections::HashMap;

/// Per-slot signature table: `ids[v]` is a dense id (0..count) such that two
/// *alive* domain entries share an id iff the constraint cannot distinguish
/// them. Dead entries carry `u32::MAX` — the engine never looks at them,
/// and interning only the live values keeps the per-arc scratch tables at
/// the size of the pruned domain, not the initial one.
#[derive(Default)]
pub struct SlotSigs {
    /// Dense signature id per domain entry (`u32::MAX` for dead entries).
    pub ids: Vec<u32>,
    /// Number of distinct signatures among the slot's alive entries.
    pub count: usize,
    /// Slot-level classes per signature: the constraint partially evaluated
    /// with this signature's representative bound and the *other* variable
    /// entirely unknown ([`PartialBinding::Any`]) — `.0` with the
    /// representative as `x`, `.1` as `y`. A definite verdict holds against
    /// every other slot, so it is computed once per constraint × slot
    /// instead of once per arc; `Unknown` defers to the per-arc classes.
    pub classes: Vec<(Truth, Truth)>,
    /// True when every alive signature's as-`x` class (`classes[..].0`) is
    /// definitely `True`: any pair with one of this slot's values bound as
    /// `x` passes that ordering outright. When *both* endpoints of an arc
    /// carry the flag, both orderings pass for every pair and the whole
    /// arc is a no-op — the common case for label-guarded constraints on
    /// slots whose labels never match the guard.
    pub all_pass_as_x: bool,
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
/// under the features `prog` reads, and compute the slot-level classes
/// (two partial evaluations per distinct signature, counted in `checks`).
pub fn slot_signatures(
    prog: &KernelProgram,
    sentence: &Sentence,
    slot: &RoleSlot,
    stack: &mut Vec<Value>,
    checks: &mut usize,
) -> SlotSigs {
    let mut interner = KeyMap::default();
    let mut out = SlotSigs::default();
    slot_signatures_into(prog, sentence, slot, stack, checks, &mut interner, &mut out);
    out
}

/// [`slot_signatures`] into caller-owned buffers: the interner and the
/// output's `ids`/`classes` vectors are cleared and refilled, keeping
/// their capacity. A warm worker's [`KernelScratch`] holds these across
/// requests, so the per-constraint signature pass costs zero steady-state
/// allocation — the same amortization `begin_arc` gives the per-arc
/// tables.
pub(crate) fn slot_signatures_into(
    prog: &KernelProgram,
    sentence: &Sentence,
    slot: &RoleSlot,
    stack: &mut Vec<Value>,
    checks: &mut usize,
    interner: &mut KeyMap,
    out: &mut SlotSigs,
) {
    let f = prog.features().combined();
    interner.clear();
    out.ids.clear();
    out.ids.resize(slot.domain.len(), u32::MAX);
    out.classes.clear();
    for v in slot.alive.iter_ones() {
        let next = interner.len() as u32;
        let id = *interner
            .entry(signature_key(f, slot.domain[v]))
            .or_insert(next);
        out.ids[v] = id;
        if id == next && out.classes.len() == next as usize {
            let b = PartialBinding::Bound(slot.binding(v));
            *checks += 2;
            let s1 = prog
                .eval_partial(sentence, b, PartialBinding::Any, stack)
                .truth();
            let s2 = prog
                .eval_partial(sentence, PartialBinding::Any, b, stack)
                .truth();
            out.classes.push((s1, s2));
        }
    }
    out.count = out.classes.len();
    out.all_pass_as_x = !out.classes.is_empty() && out.classes.iter().all(|c| c.0 == Truth::True);
}

/// One arc's column classes, gathered for whole-row application.
/// Ordering 1 binds the row value as `x` and the column value as `y`;
/// ordering 2 swaps them. Where a row's own class leaves an ordering
/// `Unknown`, the columns with a definite class for it are settled by the
/// `pass*` masks, and only the `unknown*` columns need pair verdicts.
#[derive(Default)]
struct ColumnClasses {
    /// Alive columns whose ordering-1 class is `True`.
    pass1: BitVec,
    /// Alive columns whose ordering-2 class is `True`.
    pass2: BitVec,
    /// `pass1 ∧ pass2`.
    pass12: BitVec,
    /// Alive columns whose ordering-1 class is `Unknown`.
    unknown1: Vec<u32>,
    /// Alive columns whose ordering-2 class is `Unknown`.
    unknown2: Vec<u32>,
    /// Alive columns with either class `Unknown`.
    unknown12: Vec<u32>,
}

/// Reusable scratch state for [`kernel_arc`]. The per-arc tables are
/// generation-stamped instead of reallocated: entries from a previous arc
/// read as absent under the current generation, so applying a constraint
/// over hundreds of arcs costs zero steady-state allocation — without this,
/// clearing the verdict table alone (O(sigs²) per arc) dominates the
/// evaluations it saves.
pub struct KernelScratch {
    stack: Vec<Value>,
    gen: u64,
    /// Per row signature: (gen, ordering-1 class, ordering-2 class).
    row_class: Vec<(u64, Truth, Truth)>,
    /// Per column signature: (gen, ordering-1 class, ordering-2 class),
    /// filled for every alive column when the arc's first row gets past
    /// its row class.
    col_class: Vec<(u64, Truth, Truth)>,
    /// Generation whose columns `cols` describes.
    cols_gen: u64,
    cols: ColumnClasses,
    /// Per signature pair: (gen, pair survives).
    verdicts: Vec<(u64, bool)>,
    /// Per row signature: (gen, allowed-column mask).
    masks: Vec<(u64, BitVec)>,
    /// Pooled per-slot signature tables for the pairwise sweep, reused
    /// across constraint applications (and, on a warm worker, across
    /// requests).
    sigs: Vec<SlotSigs>,
    /// Pooled signature interner, cleared per slot.
    interner: KeyMap,
}

impl KernelScratch {
    pub fn new() -> Self {
        KernelScratch {
            stack: Vec::new(),
            gen: 0,
            row_class: Vec::new(),
            col_class: Vec::new(),
            cols_gen: 0,
            cols: ColumnClasses::default(),
            verdicts: Vec::new(),
            masks: Vec::new(),
            sigs: Vec::new(),
            interner: KeyMap::default(),
        }
    }

    /// Start a new arc with `ri`/`rj` distinct row/column signatures:
    /// advance the generation (invalidating every stamped entry in O(1))
    /// and grow the tables as needed.
    fn begin_arc(&mut self, ri: usize, rj: usize) {
        self.gen += 1;
        let stale = (0, Truth::Unknown, Truth::Unknown);
        if self.row_class.len() < ri {
            self.row_class.resize(ri, stale);
        }
        if self.col_class.len() < rj {
            self.col_class.resize(rj, stale);
        }
        if self.verdicts.len() < ri * rj {
            self.verdicts.resize(ri * rj, (0, false));
        }
        if self.masks.len() < ri {
            self.masks.resize_with(ri, || (0, BitVec::zeros(0)));
        }
    }

    /// Classify every alive column of the arc once (both orderings, with
    /// the row value open) and gather the verdicts into [`ColumnClasses`].
    /// Evaluates exactly the column classes a full per-pair walk of one
    /// row would: one per distinct alive signature, refining only the
    /// `Unknown` slot-level classes, counted in `checks`.
    fn column_classes(
        &mut self,
        prog: &KernelProgram,
        sentence: &Sentence,
        sj: &RoleSlot,
        gj: &SlotSigs,
        open_i: PartialBinding,
        checks: &mut usize,
    ) {
        let gen = self.gen;
        self.cols_gen = gen;
        let cols = &mut self.cols;
        cols.pass1.reset(sj.domain.len());
        cols.pass2.reset(sj.domain.len());
        cols.unknown1.clear();
        cols.unknown2.clear();
        cols.unknown12.clear();
        for b in sj.alive.iter_ones() {
            let sb = gj.ids[b] as usize;
            let cc = &mut self.col_class[sb];
            if cc.0 != gen {
                // Slot-level classes of the column slot: `.1` has the
                // representative as `y` (our ordering 1), `.0` as `x`
                // (ordering 2). Refine only the Unknowns.
                let bb = PartialBinding::Bound(sj.binding(b));
                let (t1, t2) = gj.classes[sb];
                let c1 = if t2 != Truth::Unknown {
                    t2
                } else {
                    *checks += 1;
                    prog.eval_partial(sentence, open_i, bb, &mut self.stack)
                        .truth()
                };
                let c2 = if t1 != Truth::Unknown {
                    t1
                } else {
                    *checks += 1;
                    prog.eval_partial(sentence, bb, open_i, &mut self.stack)
                        .truth()
                };
                *cc = (gen, c1, c2);
            }
            let (_, c1, c2) = *cc;
            let (u1, u2) = (c1 == Truth::Unknown, c2 == Truth::Unknown);
            if u1 {
                cols.unknown1.push(b as u32);
            }
            if u2 {
                cols.unknown2.push(b as u32);
            }
            if u1 || u2 {
                cols.unknown12.push(b as u32);
            }
            if c1 == Truth::True {
                cols.pass1.set(b, true);
            }
            if c2 == Truth::True {
                cols.pass2.set(b, true);
            }
        }
        cols.pass12.reset(sj.domain.len());
        cols.pass12.or_assign(&cols.pass1);
        cols.pass12.and_assign(&cols.pass2);
    }
}

impl Default for KernelScratch {
    fn default() -> Self {
        KernelScratch::new()
    }
}

#[inline]
fn survives(v: Value) -> bool {
    v.truth().not_false()
}

/// Evaluate the unordered-pair verdict (both orderings must survive),
/// short-circuiting after a definite violation of the first — counting only
/// evaluations actually performed.
#[inline]
pub fn pair_verdict(
    prog: &KernelProgram,
    sentence: &Sentence,
    ba: cdg_grammar::expr::Binding,
    bb: cdg_grammar::expr::Binding,
    stack: &mut Vec<Value>,
    checks: &mut usize,
) -> bool {
    *checks += 1;
    if !survives(prog.eval_with(&EvalCtx::binary(sentence, ba, bb), stack)) {
        return false;
    }
    *checks += 1;
    survives(prog.eval_with(&EvalCtx::binary(sentence, bb, ba), stack))
}

/// Counters produced by kernel application over one arc. `checks` are the
/// expression evaluations actually performed; `memo_hits` the verdicts
/// answered from the memo table instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArcKernelCounts {
    pub zeroed: usize,
    pub checks: usize,
    pub masks_built: usize,
    pub memo_hits: usize,
}

impl ArcKernelCounts {
    /// Accumulate another arc's counters into this one.
    pub fn absorb(&mut self, other: ArcKernelCounts) {
        self.zeroed += other.zeroed;
        self.checks += other.checks;
        self.masks_built += other.masks_built;
        self.memo_hits += other.memo_hits;
    }
}

/// Apply a compiled program over a single arc with signature-memoized row
/// masks. The shared inner loop of the serial and P-RAM kernel engines:
/// each worker owns one arc matrix, so the parallel engine can call this
/// per-arc race-free.
#[allow(clippy::too_many_arguments)] // hot inner loop: flat borrows beat a context struct
pub fn kernel_arc(
    prog: &KernelProgram,
    sentence: &Sentence,
    si: &RoleSlot,
    sj: &RoleSlot,
    gi: &SlotSigs,
    gj: &SlotSigs,
    m: &mut BitMatrix,
    scratch: &mut KernelScratch,
) -> ArcKernelCounts {
    let mut counts = ArcKernelCounts::default();
    let alive_j = sj.alive.count_ones();
    if alive_j == 0 {
        return counts;
    }
    if gi.all_pass_as_x && gj.all_pass_as_x {
        // Ordering 1 (row value as `x`) passes by `gi`'s classes, ordering
        // 2 (column value as `x`) by `gj`'s — every pair survives, and by
        // Kleene monotonicity the slot-level verdicts cover each concrete
        // refinement. The arc matrix is untouched, exactly as the naive
        // path would leave it.
        counts.memo_hits += si.alive.count_ones() * alive_j;
        return counts;
    }
    scratch.begin_arc(gi.count, gj.count);
    let gen = scratch.gen;
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
    for a in si.alive.iter_ones() {
        let sa = gi.ids[a] as usize;
        // Row *class*: the constraint partially evaluated with the column
        // slot's value open, in both orderings. By Kleene monotonicity a
        // definite class verdict holds for every concrete pair in the row:
        // `False` zeroes it wholesale, `True`×`True` skips it untouched,
        // and only the `Unknown` remainder falls through to the
        // signature-memoized per-pair machinery. This is what beats the
        // naive path: most constraints are vacuous on most rows (a guard
        // like `(eq (lab x) S)` fails for every other label), and the
        // class detects that in one evaluation per distinct signature
        // instead of per pair.
        let (r1, r2) = {
            let rc = &mut scratch.row_class[sa];
            if rc.0 == gen {
                (rc.1, rc.2)
            } else {
                // Refine the slot-level class (other variable fully
                // unknown) only where it is Unknown — a definite verdict
                // there already holds against every column slot.
                let (s1, s2) = gi.classes[sa];
                let r1 = if s1 != Truth::Unknown {
                    s1
                } else {
                    counts.checks += 1;
                    prog.eval_partial(
                        sentence,
                        PartialBinding::Bound(si.binding(a)),
                        open_j,
                        &mut scratch.stack,
                    )
                    .truth()
                };
                // A definitely-failed first ordering dooms the row on its
                // own (mirrors `pair_verdict`'s short-circuit).
                let r2 = if r1 == Truth::False {
                    Truth::Unknown
                } else if s2 != Truth::Unknown {
                    s2
                } else {
                    counts.checks += 1;
                    prog.eval_partial(
                        sentence,
                        open_j,
                        PartialBinding::Bound(si.binding(a)),
                        &mut scratch.stack,
                    )
                    .truth()
                };
                scratch.row_class[sa] = (gen, r1, r2);
                (r1, r2)
            }
        };
        if r1 == Truth::False || r2 == Truth::False {
            // Every pair in this row fails; dead columns are already zero,
            // so the row's popcount is exactly the naive per-cell clears.
            counts.zeroed += m.row_count_ones(a);
            m.zero_row(a);
            continue;
        }
        if r1 == Truth::True && r2 == Truth::True {
            // Every pair in this row passes; the naive path would clear
            // nothing here.
            counts.memo_hits += alive_j;
            continue;
        }
        if scratch.cols_gen != gen {
            scratch.column_classes(prog, sentence, sj, gj, open_i, &mut counts.checks);
        }
        // Each ordering of the row is decided by its own `True` class or,
        // column by column, by a definite column class; only the columns
        // left `Unknown` for an undecided ordering need pair verdicts.
        // `r1`/`r2` are each `True` or `Unknown` here, not both `True`.
        let cols = &scratch.cols;
        let (base, undecided) = if r1 == Truth::True {
            (&cols.pass2, &cols.unknown2)
        } else if r2 == Truth::True {
            (&cols.pass1, &cols.unknown1)
        } else {
            (&cols.pass12, &cols.unknown12)
        };
        if undecided.is_empty() {
            // Class-decided: the surviving columns are exactly `base`.
            counts.memo_hits += alive_j;
            counts.zeroed += m.row_and_count(a, base);
            continue;
        }
        let mask_entry = &mut scratch.masks[sa];
        if mask_entry.0 == gen {
            // A whole row of pair verdicts answered by the memo table.
            counts.memo_hits += alive_j;
        } else {
            // Columns outside `undecided` are settled by `base`.
            mask_entry.0 = gen;
            mask_entry.1.reset(sj.domain.len());
            mask_entry.1.or_assign(base);
            counts.memo_hits += alive_j - undecided.len();
            let ba = si.binding(a);
            for &b in undecided {
                let b = b as usize;
                let sb = gj.ids[b] as usize;
                let v = &mut scratch.verdicts[sa * gj.count + sb];
                let pass = if v.0 == gen {
                    counts.memo_hits += 1;
                    v.1
                } else {
                    let bb = sj.binding(b);
                    let (_, c1, c2) = scratch.col_class[sb];
                    // Resolve each ordering from the strongest definite
                    // class, falling back to a full pair evaluation only
                    // when both the row and column classes are Unknown.
                    let o1 = if r1 != Truth::Unknown {
                        r1
                    } else if c1 != Truth::Unknown {
                        c1
                    } else {
                        counts.checks += 1;
                        prog.eval_with(&EvalCtx::binary(sentence, ba, bb), &mut scratch.stack)
                            .truth()
                    };
                    let ok = o1.not_false() && {
                        let o2 = if r2 != Truth::Unknown {
                            r2
                        } else if c2 != Truth::Unknown {
                            c2
                        } else {
                            counts.checks += 1;
                            prog.eval_with(&EvalCtx::binary(sentence, bb, ba), &mut scratch.stack)
                                .truth()
                        };
                        o2.not_false()
                    };
                    scratch.verdicts[sa * gj.count + sb] = (gen, ok);
                    ok
                };
                if pass {
                    scratch.masks[sa].1.set(b, true);
                }
            }
            counts.masks_built += 1;
        }
        counts.zeroed += m.row_and_count(a, &scratch.masks[sa].1);
    }
    counts
}

/// Apply a constraint pairwise over every arc with signature-memoized row
/// masks. Serves both binary constraints (`check_pair` semantics) and
/// unary constraints applied pairwise with witness semantics — both reduce
/// to "evaluate the expression in both orderings; the pair survives only
/// if neither is definitely violated". Returns entries zeroed.
pub fn apply_pairwise_kernel(net: &mut Network<'_>, constraint: &Constraint) -> usize {
    let mut scratch = KernelScratch::new();
    apply_pairwise_kernel_with(net, constraint, &mut scratch)
}

/// [`apply_pairwise_kernel`] with caller-owned scratch state, so a sweep
/// over many constraints (or repeated filter rounds) reuses the class,
/// verdict and mask buffers instead of reallocating them per constraint.
pub fn apply_pairwise_kernel_with(
    net: &mut Network<'_>,
    constraint: &Constraint,
    scratch: &mut KernelScratch,
) -> usize {
    // Resolve the program from the grammar's compiled artifact when the
    // caller attached one; compile inline otherwise (the cold oracle, and
    // the only path for extra constraints outside the grammar's own set).
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
    let mut totals = ArcKernelCounts::default();
    let sentence = net.sentence();
    // Move the pooled signature tables out of the scratch so the per-arc
    // tables (borrowed mutably below) and the signatures can coexist; the
    // buffers go back at the end, capacity intact.
    let mut sigs = std::mem::take(&mut scratch.sigs);
    if sigs.len() < net.slots().len() {
        sigs.resize_with(net.slots().len(), SlotSigs::default);
    }
    for (slot, out) in net.slots().iter().zip(sigs.iter_mut()) {
        slot_signatures_into(
            prog,
            sentence,
            slot,
            &mut scratch.stack,
            &mut totals.checks,
            &mut scratch.interner,
            out,
        );
    }

    let parts = net.parts_mut();
    for &(i, j, idx) in parts.pairs {
        totals.absorb(kernel_arc(
            prog,
            parts.sentence,
            &parts.slots[i],
            &parts.slots[j],
            &sigs[i],
            &sigs[j],
            &mut parts.arcs[idx],
            scratch,
        ));
    }
    parts.stats.binary_checks += totals.checks;
    parts.stats.kernel_masks += totals.masks_built;
    parts.stats.kernel_memo_hits += totals.memo_hits;
    parts.stats.entries_zeroed += totals.zeroed;
    scratch.sigs = sigs;
    totals.zeroed
}

/// Apply a unary constraint with the bytecode evaluator, memoizing
/// verdicts per slot by feature signature: within one slot, `pos` and
/// `role` are constants, so two values the program's read set cannot
/// distinguish share one verdict (the same argument the pairwise slot
/// classes rest on). `checks` still counts one per alive value —
/// identical to the naive path's accounting; verdicts answered from the
/// memo are reported through `kernel_memo_hits`. The program is resolved
/// (artifact) or compiled exactly once per call — once per parse, never
/// once per word or per application.
pub fn apply_unary_kernel(net: &mut Network<'_>, constraint: &Constraint) -> usize {
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
    apply_unary_kernel_prog(net, prog)
}

/// [`apply_unary_kernel`] with a pre-resolved program: the whole sweep —
/// every slot, every alive value — runs off one compiled artifact.
pub fn apply_unary_kernel_prog(net: &mut Network<'_>, prog: &KernelProgram) -> usize {
    let mut stack: Vec<Value> = Vec::with_capacity(prog.max_depth());
    let mut doomed: Vec<(usize, usize)> = Vec::new();
    let mut checks = 0usize;
    let mut memo_hits = 0usize;
    let f = prog.features().combined();
    // Per-slot verdict memo, linear-scanned: the distinct-signature count
    // per slot is bounded by labels × categories × 3, and in practice a
    // handful — a hash map would cost more than it saves.
    let mut memo: Vec<(u64, bool)> = Vec::new();
    for (slot_id, slot) in net.slots().iter().enumerate() {
        // Slot-level class first: evaluate once with the slot constants
        // (`pos`, `role`) bound and the value open. Most unary
        // constraints are role- or position-guarded, so the guard
        // resolves the whole slot in one evaluation — the unary analogue
        // of the pairwise `all_pass_as_x` fast path. A definite verdict
        // under `Open` holds for every value the slot could take.
        let alive = slot.alive.count_ones();
        if alive == 0 {
            continue;
        }
        let open = PartialBinding::Open {
            pos: slot.pos(),
            role: slot.role,
        };
        let class = prog
            .eval_partial(net.sentence(), open, PartialBinding::Absent, &mut stack)
            .truth();
        match class {
            Truth::True => {
                checks += alive;
                memo_hits += alive;
                continue;
            }
            Truth::False => {
                checks += alive;
                memo_hits += alive;
                for idx in slot.alive.iter_ones() {
                    doomed.push((slot_id, idx));
                }
                continue;
            }
            Truth::Unknown => {}
        }
        memo.clear();
        for idx in slot.alive.iter_ones() {
            checks += 1;
            let key = signature_key(f, slot.domain[idx]);
            let verdict = match memo.iter().find(|&&(k, _)| k == key) {
                Some(&(_, v)) => {
                    memo_hits += 1;
                    v
                }
                None => {
                    let ctx = EvalCtx::unary(net.sentence(), slot.binding(idx));
                    let v = survives(prog.eval_with(&ctx, &mut stack));
                    memo.push((key, v));
                    v
                }
            };
            if !verdict {
                doomed.push((slot_id, idx));
            }
        }
    }
    net.stats.unary_checks += checks;
    net.stats.kernel_memo_hits += memo_hits;
    let removed = doomed.len();
    for (slot_id, idx) in doomed {
        net.remove_value(slot_id, idx);
    }
    removed
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
            for (&(i, j, idx), &(i2, j2, idx2)) in nk.arc_pairs().iter().zip(nn.arc_pairs()) {
                assert_eq!((i, j, idx), (i2, j2, idx2));
                assert_eq!(
                    nk.arcs_raw()[idx],
                    nn.arcs_raw()[idx],
                    "arc ({i},{j}) diverges for `{text}`"
                );
            }
        }
    }

    #[test]
    fn memoization_avoids_most_evaluations() {
        // `unique-root` reads only the labels, so a slot's domain (labels ×
        // modifiees) collapses to one signature per label and the memo
        // table answers the bulk of the pair verdicts. Arcs are built over
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
        apply_pairwise_kernel(&mut net, c);
        let evals = net.stats.binary_checks;
        assert!(net.stats.kernel_memo_hits > 0, "memo table never hit");
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
        assert_eq!(nk.arcs_raw(), nn.arcs_raw());
        assert_eq!(nk.stats.kernel_masks, 12 * 12, "one mask per a–b arc");
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
