//! The lane evaluator: one [`KernelProgram`] run across a whole slot.
//!
//! The MP-1 applies a constraint once per broadcast instruction across
//! every PE, under an activity mask. This is the host analogue over the
//! 64 lanes of a word: one variable is scalar ([`PartialBinding::Bound`],
//! `Open` or `Any`), the other ranges over a slot's domain, one lane per
//! domain entry, and the program runs once for every lane in a set.
//!
//! Stack entries stay symbolic while they can. A lane's `lab`, `mod`, its
//! category hypothesis, and the category of its modifiee's word are
//! *lane terms*; comparing one with a scalar reads a precomputed bitset
//! from [`LaneTables`] (label equality, modifiee point / prefix / suffix
//! thresholds, category masks), so most ops cost O(words). Connectives
//! combine Kleene `(true, false)` bit planes. Only what has no table —
//! two lane terms compared with each other, or an access function applied
//! to a per-lane value — falls back to a loop over the set lanes, using
//! the scalar semantics lane by lane. A word with at most [`SPARSE`] set
//! lanes runs the scalar bytecode lane by lane instead, and a slot's
//! tables are built the first time one of its words runs bit-sliced.
//!
//! Every lane equals [`KernelProgram::eval_partial`] with that lane bound:
//! the jumps are taken only when *every* set lane would take them, and a
//! jump never changes a result (it only skips a sub-expression whose value
//! cannot move the fold; evaluation has no side effects), so a lane that
//! would have jumped computes the same value the long way.

use super::{sentence_cat, word_of, KOp, KernelProgram, PCtx, PartialBinding};
use crate::expr::{Binding, Var};
use crate::ids::{CatId, Modifiee, RoleId, RoleValue};
use crate::sentence::Sentence;
use crate::value::{Truth, Value};
use std::sync::OnceLock;

/// The lane tables of a network: per slot, bitset rows over its domain.
/// The domains and the sentence are fixed for a parse and only the alive
/// sets change (those arrive as the lane set of each pass), so a slot's
/// rows are built once, the first time a lane pass over it runs
/// bit-sliced.
///
/// Per slot, with `L`/`C` the label and category id bounds of its domain
/// and the sentence, and `top` its largest modifiee position (at least n):
///
/// | rows | lanes set |
/// |---|---|
/// | `label[l]`, `l < L` | label is `l` |
/// | `cat[c]`, `c < C` | category hypothesis is `c` |
/// | `nil` | modifiee is nil |
/// | `modnil` | `(word (mod v))` is nil |
/// | `modamb` | the modifiee's word is lexically ambiguous |
/// | `modcat[c]`, `c < C` | the modifiee's word is unambiguously `c` |
/// | `eq[p]`, `p ≤ top` | modifiee is `p` (point) |
/// | `gt[k]`, `k ≤ top` | modifiee is a position `> k` (suffix) |
/// | `lt[k]`, `k ≤ top + 1` | modifiee is a position `< k` (prefix) |
#[derive(Debug, Clone, Default)]
pub struct LaneTables {
    slots: Vec<OnceLock<Tables>>,
}

impl LaneTables {
    pub fn new() -> Self {
        LaneTables::default()
    }

    /// Number of slots (0 until [`LaneTables::reset`]).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Start over for a network of `slots` slots, dropping every built
    /// table.
    pub fn reset(&mut self, slots: usize) {
        self.slots.clear();
        self.slots.resize_with(slots, OnceLock::new);
    }

    /// Slot `k`'s lanes: one per entry of its `domain`, at position `pos`
    /// in role `role`. Every call for slot `k` must pass the same slot,
    /// over the sentence the lane passes evaluate against.
    pub fn slot<'a>(
        &'a self,
        k: usize,
        pos: u16,
        role: RoleId,
        domain: &'a [RoleValue],
    ) -> LaneSlot<'a> {
        LaneSlot {
            pos,
            role,
            w: domain.len().div_ceil(64),
            values: domain,
            tables: &self.slots[k],
        }
    }
}

/// One slot's table rows (see [`LaneTables`]): `rows.total` rows of `w`
/// words.
#[derive(Debug, Clone)]
struct Tables {
    labels: usize,
    cats: usize,
    top: usize,
    rows: Rows,
    bits: Box<[u64]>,
}

/// First row of each table in a slot's block.
#[derive(Debug, Clone, Copy)]
struct Rows {
    label: usize,
    cat: usize,
    nil: usize,
    modnil: usize,
    modamb: usize,
    modcat: usize,
    eq: usize,
    gt: usize,
    lt: usize,
    total: usize,
}

impl Tables {
    fn build(sentence: &Sentence, values: &[RoleValue]) -> Tables {
        let mut labels = 0;
        let mut cats = 0;
        let mut top = sentence.len();
        for c in sentence.words().iter().flat_map(|w| &w.cats) {
            cats = cats.max(c.0 as usize + 1);
        }
        for rv in values {
            labels = labels.max(rv.label.0 as usize + 1);
            cats = cats.max(rv.cat.0 as usize + 1);
            if let Modifiee::Word(m) = rv.modifiee {
                top = top.max(m as usize);
            }
        }
        let label = 0;
        let cat = label + labels;
        let nil = cat + cats;
        let modnil = nil + 1;
        let modamb = modnil + 1;
        let modcat = modamb + 1;
        let eq = modcat + cats;
        let gt = eq + top + 1;
        let lt = gt + top + 1;
        let rows = Rows {
            label,
            cat,
            nil,
            modnil,
            modamb,
            modcat,
            eq,
            gt,
            lt,
            total: lt + top + 2,
        };
        let w = values.len().div_ceil(64);
        let mut bits = vec![0u64; rows.total * w];
        for (v, rv) in values.iter().enumerate() {
            let (k, bit) = (v / 64, 1u64 << (v % 64));
            let mut set = |row: usize| bits[row * w + k] |= bit;
            set(rows.label + rv.label.0 as usize);
            set(rows.cat + rv.cat.0 as usize);
            match rv.modifiee {
                Modifiee::Nil => {
                    set(rows.nil);
                    set(rows.modnil);
                }
                Modifiee::Word(m) => {
                    set(rows.eq + m as usize);
                    set(match sentence.word_at(m) {
                        Some(word) if word.cats.len() == 1 => rows.modcat + word.cats[0].0 as usize,
                        Some(_) => rows.modamb,
                        None => rows.modnil,
                    });
                }
            }
        }
        // Thresholds from the point rows: gt[k] = gt[k+1] ∪ eq[k+1],
        // lt[k] = lt[k-1] ∪ eq[k-1].
        for k in (0..top).rev() {
            for i in 0..w {
                bits[(gt + k) * w + i] = bits[(gt + k + 1) * w + i] | bits[(eq + k + 1) * w + i];
            }
        }
        for k in 1..=top + 1 {
            for i in 0..w {
                bits[(lt + k) * w + i] = bits[(lt + k - 1) * w + i] | bits[(eq + k - 1) * w + i];
            }
        }
        Tables {
            labels,
            cats,
            top,
            rows,
            bits: bits.into_boxed_slice(),
        }
    }

    fn label(&self, l: usize) -> Option<usize> {
        (l < self.labels).then_some(self.rows.label + l)
    }

    fn cat(&self, c: CatId) -> Option<usize> {
        let c = c.0 as usize;
        (c < self.cats).then_some(self.rows.cat + c)
    }

    fn modcat(&self, c: CatId) -> Option<usize> {
        let c = c.0 as usize;
        (c < self.cats).then_some(self.rows.modcat + c)
    }

    /// Lanes whose modifiee is position `k`.
    fn mod_eq(&self, k: i64) -> Option<usize> {
        (0..=self.top as i64)
            .contains(&k)
            .then(|| self.rows.eq + k as usize)
    }

    /// Lanes whose modifiee is a position greater than `k`.
    fn mod_gt(&self, k: i64) -> Option<usize> {
        if k >= self.top as i64 {
            None
        } else if k < 0 {
            // Every position: the widest prefix.
            Some(self.rows.lt + self.top + 1)
        } else {
            Some(self.rows.gt + k as usize)
        }
    }

    /// Lanes whose modifiee is a position less than `k`.
    fn mod_lt(&self, k: i64) -> Option<usize> {
        (k > 0).then(|| self.rows.lt + k.min(self.top as i64 + 1) as usize)
    }
}

/// One slot's lanes: its position and role (constants of every lane), its
/// domain, and its table rows.
#[derive(Debug, Clone, Copy)]
pub struct LaneSlot<'a> {
    pos: u16,
    role: RoleId,
    w: usize,
    values: &'a [RoleValue],
    tables: &'a OnceLock<Tables>,
}

impl<'a> LaneSlot<'a> {
    /// The slot's table rows over `sentence`, built on first use.
    fn tables(&self, sentence: &Sentence) -> &'a Tables {
        self.tables
            .get_or_init(|| Tables::build(sentence, self.values))
    }

    fn binding(&self, lane: usize) -> Binding {
        Binding {
            pos: self.pos,
            role: self.role,
            value: self.values[lane],
        }
    }
}

/// Reusable buffers for [`KernelProgram::eval_lanes`]: the symbolic stack,
/// one row of 64 values per stack depth for the rare per-lane fallback,
/// and the value stack of words run lane by lane.
#[derive(Debug, Default)]
pub struct LaneScratch {
    stack: Vec<Entry>,
    vals: Vec<Value>,
    scalar: Vec<Value>,
}

impl LaneScratch {
    pub fn new() -> Self {
        LaneScratch::default()
    }
}

/// What a stack entry holds across the lanes of one 64-lane chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lv {
    /// The same value on every lane.
    S(Value),
    /// `(lab v)` of the lane variable.
    Lab,
    /// `(mod v)` of the lane variable.
    Mod,
    /// `(word (mod v))` of the lane variable.
    ModWord,
    /// The lane's own category hypothesis.
    Cat,
    /// `(cat (word (mod v)))` of the lane variable.
    ModCat,
    /// Per-lane truth, in the entry's `t`/`f` words.
    Bits,
    /// Per-lane values, in the value row at this entry's depth.
    Vals,
}

/// One stack entry: its kind and, for [`Lv::Bits`], the lanes that are
/// definitely true (`t`) and definitely false (`f`).
#[derive(Debug, Clone, Copy)]
struct Entry {
    v: Lv,
    t: u64,
    f: u64,
}

impl Entry {
    fn of(v: Lv) -> Entry {
        Entry { v, t: 0, f: 0 }
    }

    fn bits(t: u64, f: u64) -> Entry {
        Entry { v: Lv::Bits, t, f }
    }

    fn truth(tr: Truth) -> Entry {
        Entry::of(Lv::S(Value::from(tr)))
    }
}

impl KernelProgram {
    /// Evaluate across lanes: `lane` ranges over `slot`'s domain, the other
    /// variable is `scalar`. `set` selects the lanes to evaluate; on return
    /// `t`/`f` hold the set lanes whose verdict is definitely true /
    /// definitely false (neither: `Unknown`). Each lane equals
    /// [`KernelProgram::eval_partial`] with that lane bound, truth-wise.
    ///
    /// The program runs once per 64-lane word of `set` that has a lane in
    /// it, so the cost follows the occupied words, not the domain size; a
    /// word with at most three lanes runs the scalar bytecode once
    /// per lane instead.
    #[allow(clippy::too_many_arguments)] // one call per lane pass; flat borrows
    pub fn eval_lanes(
        &self,
        sentence: &Sentence,
        slot: &LaneSlot<'_>,
        lane: Var,
        scalar: PartialBinding,
        set: &[u64],
        scratch: &mut LaneScratch,
        t: &mut [u64],
        f: &mut [u64],
    ) {
        let w = slot.w;
        debug_assert!(
            set.len() == w && t.len() == w && f.len() == w,
            "lane bitsets must span the slot's domain"
        );
        let mut run = LaneRun {
            sentence,
            slot,
            tables: None,
            lane,
            scalar,
        };
        for k in 0..w {
            (t[k], f[k]) = match set[k] {
                0 => (0, 0),
                s if s.count_ones() <= SPARSE => run.sparse(self, k, s, scratch),
                s => {
                    // Only a bit-sliced chunk reads the tables.
                    run.tables = Some(slot.tables(sentence));
                    let (tk, fk) = run.chunk(self, k, s, scratch);
                    (tk & s, fk & s)
                }
            };
        }
    }
}

fn constant(op: KOp) -> Value {
    match op {
        KOp::PushBool(b) => Value::Bool(b),
        KOp::PushInt(i) => Value::Int(i),
        KOp::PushLabel(l) => Value::Label(l),
        KOp::PushCat(c) => Value::Cat(c),
        KOp::PushRole(r) => Value::Role(r),
        _ => Value::Nil,
    }
}

fn compare(op: KOp, a: Value, b: Value) -> Truth {
    match op {
        KOp::Eq => a.loose_eq(b),
        KOp::Gt => a.gt(b),
        _ => a.lt(b),
    }
}

/// `(t, f)` words of a truth shared by every lane.
fn planes(tr: Truth) -> (u64, u64) {
    match tr {
        Truth::True => (!0, 0),
        Truth::False => (0, !0),
        Truth::Unknown => (0, 0),
    }
}

/// The set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// Chunks with at most this many set lanes run the scalar evaluator lane
/// by lane: a bit-sliced run of the symbolic stack costs about three
/// scalar evaluations, so it pays from four lanes on.
const SPARSE: u32 = 3;

struct LaneRun<'r, 'a> {
    sentence: &'r Sentence,
    slot: &'r LaneSlot<'a>,
    /// The slot's table rows, when a chunk runs bit-sliced.
    tables: Option<&'a Tables>,
    lane: Var,
    scalar: PartialBinding,
}

impl LaneRun<'_, '_> {
    /// The table rows (only a bit-sliced chunk reads them).
    fn t(&self) -> &Tables {
        self.tables
            .expect("bit-sliced chunks run over built tables")
    }

    /// Word `k` of table row `row`; a missing row has no lane set.
    #[inline]
    fn word(&self, row: Option<usize>, k: usize) -> u64 {
        row.map_or(0, |r| self.t().bits[r * self.slot.w + k])
    }

    /// Run `prog` over the lanes `set` of chunk `k` (lanes `64k..64k+64`);
    /// returns the chunk's `(t, f)` words, unmasked.
    fn chunk(
        &self,
        prog: &KernelProgram,
        k: usize,
        set: u64,
        scratch: &mut LaneScratch,
    ) -> (u64, u64) {
        let LaneScratch { stack, vals, .. } = scratch;
        stack.clear();
        let mut pc = 0usize;
        while pc < prog.ops.len() {
            let op = prog.ops[pc];
            let d = stack.len();
            let e = match op {
                KOp::PushBool(_)
                | KOp::PushInt(_)
                | KOp::PushLabel(_)
                | KOp::PushCat(_)
                | KOp::PushRole(_)
                | KOp::PushNil => Entry::of(Lv::S(constant(op))),
                KOp::Lab(v) if v == self.lane => Entry::of(Lv::Lab),
                KOp::Mod(v) if v == self.lane => Entry::of(Lv::Mod),
                KOp::RoleOf(v) if v == self.lane => Entry::of(Lv::S(Value::Role(self.slot.role))),
                KOp::Pos(v) if v == self.lane => Entry::of(Lv::S(Value::Int(self.slot.pos as i64))),
                KOp::Lab(_) => Entry::of(Lv::S(self.scalar.lab())),
                KOp::Mod(_) => Entry::of(Lv::S(self.scalar.modifiee())),
                KOp::RoleOf(_) => Entry::of(Lv::S(self.scalar.role())),
                KOp::Pos(_) => Entry::of(Lv::S(self.scalar.pos())),
                KOp::Word => {
                    let e = stack.pop().expect("stack underflow");
                    match e.v {
                        Lv::S(v) => Entry::of(Lv::S(word_of(self.sentence, v))),
                        Lv::Mod => Entry::of(Lv::ModWord),
                        _ => self
                            .per_lane(e, d - 1, k, set, vals, |_, _, v| word_of(self.sentence, v)),
                    }
                }
                KOp::Cat => {
                    let e = stack.pop().expect("stack underflow");
                    match e.v {
                        Lv::S(Value::WordRef(p)) => Entry::of(match self.resolve(p) {
                            Some(v) => Lv::S(v),
                            None => Lv::Cat,
                        }),
                        Lv::S(Value::Unknown) => Entry::of(Lv::S(Value::Unknown)),
                        Lv::S(_) => Entry::of(Lv::S(Value::Nil)),
                        Lv::ModWord => Entry::of(Lv::ModCat),
                        _ => self
                            .per_lane(e, d - 1, k, set, vals, |run, lane, v| run.cat_of(lane, v)),
                    }
                }
                KOp::Eq | KOp::Gt | KOp::Lt => {
                    let b = stack.pop().expect("stack underflow");
                    let a = stack.pop().expect("stack underflow");
                    self.compare(op, a, b, d - 2, k, set, vals)
                }
                KOp::Not | KOp::Truthy => {
                    let a = stack.pop().expect("stack underflow");
                    match self.known(a) {
                        Some(tr) => Entry::truth(if op == KOp::Not { tr.not() } else { tr }),
                        None => {
                            let (t, f) = self.bits(a, d - 1, k, set, vals);
                            if op == KOp::Not {
                                Entry::bits(f, t)
                            } else {
                                Entry::bits(t, f)
                            }
                        }
                    }
                }
                KOp::AndFold | KOp::OrFold | KOp::IfFold => {
                    let b = stack.pop().expect("stack underflow");
                    let a = stack.pop().expect("stack underflow");
                    match (self.known(a), self.known(b)) {
                        (Some(x), Some(y)) => Entry::truth(match op {
                            KOp::AndFold => x.and(y),
                            KOp::OrFold => x.or(y),
                            _ => x.not().or(y),
                        }),
                        _ => {
                            let (at, af) = self.bits(a, d - 2, k, set, vals);
                            let (bt, bf) = self.bits(b, d - 1, k, set, vals);
                            match op {
                                KOp::AndFold => Entry::bits(at & bt, af | bf),
                                KOp::OrFold => Entry::bits(at | bt, af & bf),
                                // ¬a ∨ b
                                _ => Entry::bits(af | bt, at & bf),
                            }
                        }
                    }
                }
                KOp::JumpIfFalse(target) | KOp::JumpIfTrue(target) | KOp::IfShortcut(target) => {
                    // Jump only when every set lane would.
                    let top = *stack.last().expect("stack underflow");
                    let want = match op {
                        KOp::JumpIfTrue(_) => Truth::True,
                        _ => Truth::False,
                    };
                    let all = match self.known(top) {
                        Some(tr) => tr == want,
                        None => {
                            let (t, f) = self.bits(top, d - 1, k, set, vals);
                            set & !(if want == Truth::True { t } else { f }) == 0
                        }
                    };
                    if all {
                        if let KOp::IfShortcut(_) = op {
                            *stack.last_mut().expect("stack underflow") =
                                Entry::of(Lv::S(Value::Bool(true)));
                        }
                        pc = target as usize;
                    } else {
                        pc += 1;
                    }
                    continue;
                }
            };
            stack.push(e);
            pc += 1;
        }
        let top = stack.pop().expect("empty program");
        debug_assert!(stack.is_empty());
        match self.known(top) {
            Some(tr) => planes(tr),
            None => self.bits(top, 0, k, set, vals),
        }
    }

    /// Chunk `k`'s `set` lanes one at a time through the scalar evaluator.
    fn sparse(
        &self,
        prog: &KernelProgram,
        k: usize,
        set: u64,
        scratch: &mut LaneScratch,
    ) -> (u64, u64) {
        let (mut t, mut f) = (0, 0);
        for bit in ones(set) {
            let bound = PartialBinding::Bound(self.slot.binding(k * 64 + bit));
            let (x, y) = match self.lane {
                Var::X => (bound, self.scalar),
                Var::Y => (self.scalar, bound),
            };
            let ctx = PCtx {
                sentence: self.sentence,
                x,
                y,
            };
            let (tb, fb) = planes(prog.run(&ctx, &mut scratch.scalar).truth());
            t |= tb & 1 << bit;
            f |= fb & 1 << bit;
        }
        (t, f)
    }

    /// The category `(cat (word p))` resolves to when the lane's own
    /// hypothesis does not win: `None` when it does. Mirrors `cat_at`
    /// precedence — x before y, an `Open` or `Any` variable that could sit
    /// at `p` defers to the sentence.
    fn resolve(&self, p: u16) -> Option<Value> {
        let lane_here = self.slot.pos == p;
        if lane_here && self.lane == Var::X {
            return None;
        }
        match self.scalar {
            PartialBinding::Bound(b) if b.pos == p => return Some(Value::Cat(b.value.cat)),
            PartialBinding::Open { pos, .. } if pos == p => {
                return Some(sentence_cat(self.sentence, p))
            }
            PartialBinding::Any => return Some(sentence_cat(self.sentence, p)),
            _ => {}
        }
        (!lane_here).then(|| sentence_cat(self.sentence, p))
    }

    /// `(cat e)` for one lane's value of `e` (the fallback path).
    fn cat_of(&self, lane: usize, e: Value) -> Value {
        match e {
            Value::WordRef(p) => {
                let bound = PartialBinding::Bound(self.slot.binding(lane));
                let (x, y) = match self.lane {
                    Var::X => (bound, self.scalar),
                    Var::Y => (self.scalar, bound),
                };
                PCtx {
                    sentence: self.sentence,
                    x,
                    y,
                }
                .cat_at(p)
            }
            Value::Unknown => Value::Unknown,
            _ => Value::Nil,
        }
    }

    /// Entry `e` (at depth `d`) on lane `lane`, bit `bit` of its chunk.
    fn value(&self, e: Entry, d: usize, lane: usize, bit: usize, vals: &[Value]) -> Value {
        let rv = self.slot.values[lane];
        let modifiee = match rv.modifiee {
            Modifiee::Nil => Value::Nil,
            Modifiee::Word(p) => Value::Int(p as i64),
        };
        match e.v {
            Lv::S(v) => v,
            Lv::Lab => Value::Label(rv.label),
            Lv::Mod => modifiee,
            Lv::ModWord => word_of(self.sentence, modifiee),
            Lv::Cat => Value::Cat(rv.cat),
            Lv::ModCat => self.cat_of(lane, word_of(self.sentence, modifiee)),
            Lv::Bits => match (e.t >> bit & 1, e.f >> bit & 1) {
                (1, _) => Value::Bool(true),
                (_, 1) => Value::Bool(false),
                _ => Value::Unknown,
            },
            Lv::Vals => vals[d * 64 + bit],
        }
    }

    /// Apply `op` to entry `e` (at depth `d`) lane by lane, leaving an
    /// [`Lv::Vals`] row at depth `d`.
    #[allow(clippy::too_many_arguments)] // the rare fallback; flat borrows
    fn per_lane(
        &self,
        e: Entry,
        d: usize,
        k: usize,
        set: u64,
        vals: &mut Vec<Value>,
        op: impl Fn(&Self, usize, Value) -> Value,
    ) -> Entry {
        if vals.len() < (d + 1) * 64 {
            vals.resize((d + 1) * 64, Value::Nil);
        }
        for bit in ones(set) {
            let lane = k * 64 + bit;
            vals[d * 64 + bit] = op(self, lane, self.value(e, d, lane, bit, vals));
        }
        Entry::of(Lv::Vals)
    }

    /// The truth of entry `e` when it is the same on every lane by its
    /// kind alone.
    #[inline]
    fn known(&self, e: Entry) -> Option<Truth> {
        match e.v {
            Lv::S(v) => Some(v.truth()),
            // Labels, positions, nil, word references and categories are
            // all definitely false as truths.
            Lv::Lab | Lv::Mod | Lv::ModWord | Lv::Cat => Some(Truth::False),
            Lv::Bits | Lv::ModCat | Lv::Vals => None,
        }
    }

    /// Entry `e` (at depth `d`) as `(t, f)` truth words.
    fn bits(&self, e: Entry, d: usize, k: usize, set: u64, vals: &[Value]) -> (u64, u64) {
        match e.v {
            Lv::Bits => (e.t, e.f),
            // A category or nil is definitely false; an undetermined
            // category stays Unknown.
            Lv::ModCat => (0, !self.modcat(None, k).1),
            Lv::Vals => {
                let (mut t, mut f) = (0, 0);
                for bit in ones(set) {
                    let (tb, fb) = planes(vals[d * 64 + bit].truth());
                    t |= tb & 1 << bit;
                    f |= fb & 1 << bit;
                }
                (t, f)
            }
            _ => planes(self.known(e).expect("kind-determined truth")),
        }
    }

    /// `(cat (word (mod v)))` against `want` on chunk `k`: the lanes whose
    /// category term equals `want` (`None`: no lane's does) and the lanes
    /// where it is `Unknown`.
    fn modcat(&self, want: Option<Value>, k: usize) -> (u64, u64) {
        let (slot, tables) = (self.slot, self.t());
        let mut t = match want {
            Some(Value::Cat(c)) => self.word(tables.modcat(c), k),
            Some(Value::Nil) => self.word(Some(tables.rows.modnil), k),
            _ => 0,
        };
        let mut u = self.word(Some(tables.rows.modamb), k);
        // The sentence decides every modifiee word except where a bound
        // variable's hypothesis wins: the lane's own position and a bound
        // scalar's.
        let mut at = [Some(slot.pos), None];
        if let PartialBinding::Bound(b) = self.scalar {
            if b.pos != slot.pos {
                at[1] = Some(b.pos);
            }
        }
        for p in at.into_iter().flatten() {
            if p == 0 || p as usize > self.sentence.len() {
                continue;
            }
            let resolved = self.resolve(p);
            if resolved == Some(sentence_cat(self.sentence, p)) {
                continue;
            }
            let e = self.word(tables.mod_eq(p as i64), k);
            t &= !e;
            u &= !e;
            match (resolved, want) {
                (None, Some(Value::Cat(c))) => t |= e & self.word(tables.cat(c), k),
                (None, _) => {}
                (Some(Value::Unknown), _) => u |= e,
                (r, w) if r == w => t |= e,
                _ => {}
            }
        }
        (t, u)
    }

    /// A comparison of `a` (depth `d`) with `b` (depth `d + 1`).
    #[allow(clippy::too_many_arguments)] // per op; flat borrows
    fn compare(
        &self,
        op: KOp,
        a: Entry,
        b: Entry,
        d: usize,
        k: usize,
        set: u64,
        vals: &[Value],
    ) -> Entry {
        match (a.v, b.v) {
            (Lv::S(x), Lv::S(y)) => Entry::truth(compare(op, x, y)),
            // A comparison with Unknown is Unknown on every lane.
            (Lv::S(Value::Unknown), _) | (_, Lv::S(Value::Unknown)) => {
                Entry::of(Lv::S(Value::Unknown))
            }
            (term, Lv::S(v)) if term.tabled() => self.tabled(op, term, v, k),
            (Lv::S(v), term) if term.tabled() => {
                let flipped = match op {
                    KOp::Gt => KOp::Lt,
                    KOp::Lt => KOp::Gt,
                    op => op,
                };
                self.tabled(flipped, term, v, k)
            }
            _ => {
                let (mut t, mut f) = (0, 0);
                for bit in ones(set) {
                    let lane = k * 64 + bit;
                    let x = self.value(a, d, lane, bit, vals);
                    let y = self.value(b, d + 1, lane, bit, vals);
                    let (tb, fb) = planes(compare(op, x, y));
                    t |= tb & 1 << bit;
                    f |= fb & 1 << bit;
                }
                Entry::bits(t, f)
            }
        }
    }

    /// `term op v` from the tables on chunk `k` (`v` is not `Unknown`).
    fn tabled(&self, op: KOp, term: Lv, v: Value, k: usize) -> Entry {
        let tables = self.t();
        let row = match (term, op, v) {
            (Lv::ModCat, _, _) => {
                let want = match (op, v) {
                    (KOp::Eq, Value::Cat(_) | Value::Nil) => Some(v),
                    _ => None,
                };
                let (t, u) = self.modcat(want, k);
                return Entry::bits(t, !(t | u));
            }
            (Lv::Lab, KOp::Eq, Value::Label(l)) => tables.label(l.0 as usize),
            (Lv::Cat, KOp::Eq, Value::Cat(c)) => tables.cat(c),
            (Lv::Mod, KOp::Eq, Value::Nil) => Some(tables.rows.nil),
            (Lv::Mod, KOp::Eq, Value::Int(p)) => tables.mod_eq(p),
            (Lv::Mod, KOp::Gt, Value::Int(p)) => tables.mod_gt(p),
            (Lv::Mod, KOp::Lt, Value::Int(p)) => tables.mod_lt(p),
            // Kind mismatches, and order on non-integers: definitely false.
            _ => None,
        };
        let t = self.word(row, k);
        Entry::bits(t, !t)
    }
}

impl Lv {
    /// A lane term with a table for comparisons against a scalar.
    fn tabled(self) -> bool {
        matches!(self, Lv::Lab | Lv::Mod | Lv::Cat | Lv::ModCat)
    }
}
