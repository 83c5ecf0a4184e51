//! Constraint kernels: flat bytecode plus feature-signature analysis.
//!
//! The tree evaluator in [`crate::expr`] is a pointer-chasing walk over
//! `Box`-heavy nodes — fine for compilation and diagnostics, but it sits in
//! the parser's O(k·n⁴) inner loop. This module lowers a compiled
//! [`CExpr`] into two artifacts the engines use instead:
//!
//! 1. **[`KernelProgram`]** — a flat, allocation-free postfix bytecode with
//!    jump-based short-circuiting. Evaluation is a single loop over a
//!    contiguous op array and an external value stack; results are
//!    *bit-identical* to [`CExpr::eval`] (every connective normalizes its
//!    operands through `Value::from(truth)` exactly as the tree does, and
//!    short-circuits only where the skipped sub-expression provably cannot
//!    change the result — evaluation is side-effect-free). A comparison
//!    whose operands are binding accessors, `(cat (word (pos v)))`,
//!    `(cat (word (mod v)))` or constants is one op that reads them in
//!    place, as a comparison of a PE's field with the broadcast stream or
//!    with another field is one MP-1 instruction; only an operand that
//!    takes ops of its own goes through the stack.
//!
//! 2. **[`PairFeatures`]** — per-variable *feature signatures*: which of
//!    the role-value components that vary within a slot (label, modifiee,
//!    category hypothesis) the expression can read from each binding.
//!    Within one slot, `pos` and `role` are fixed and the sentence is
//!    shared, so a constraint's verdict on a pair of role values is a
//!    function of the two slots and the two projections onto the read
//!    feature set. Domains collapse to a handful of distinct signatures,
//!    which is what makes the memoized row-mask propagation in `cdg-core`
//!    sound: evaluate once per signature pair, apply by word-parallel AND.
//!
//! **Soundness of the category rule.** `(cat e)` resolves through
//! `EvalCtx::cat_at`, which prefers the *bound hypothesis* of whichever
//! variable sits at the referenced position — and either variable may,
//! since `e` can compute any position (`(mod x)`, a constant, `(pos y)`,
//! …). Any `Cat` node therefore marks the category as read from **both**
//! variables; this is conservative (never under-approximates the read
//! set), which is all memoization needs.

use crate::expr::{Binding, CExpr, EvalCtx, Var};
use crate::ids::{Modifiee, RoleId, RoleValue};
use crate::sentence::Sentence;
use crate::value::{Truth, Value};

mod lanes;

pub use lanes::{LaneScratch, LaneSlot, LaneTables};

/// A constraint variable under *partial* binding.
///
/// The propagation engines pre-classify whole matrix rows/columns by
/// evaluating a program with one variable [`PartialBinding::Open`]: bound
/// to a slot (so `pos`/`role` — slot constants — resolve definitely) but
/// not to a role value (label/modifiee/category hypothesis read as
/// [`Value::Unknown`]). Because every operation is monotone in Kleene's
/// information order (`Unknown` below both definite truths) and jumps fire
/// only on definite values, a definite result under `Open` is the result
/// for *every* value of that slot — see `partial_is_sound_for_full_eval`.
#[derive(Debug, Clone, Copy)]
pub enum PartialBinding {
    /// Fully bound to a concrete role value (what [`EvalCtx`] holds).
    Bound(Binding),
    /// Bound to a slot but not a value.
    Open { pos: u16, role: RoleId },
    /// Bound to *some* slot value, nothing known — even `pos`/`role` read
    /// as `Unknown`. A definite verdict here holds for every slot the
    /// variable could range over, so it can be computed once per
    /// constraint × slot instead of once per arc.
    Any,
    /// Not bound at all — accessors fail closed to `Nil`, exactly like a
    /// unary [`EvalCtx`] with no `y`.
    Absent,
}

/// The access functions of a partially bound variable: a `Bound` one reads
/// its role value, an `Open` one knows only its slot constants (`pos`,
/// `role`), an `Any` one nothing (`Unknown`), an `Absent` one fails closed
/// to `Nil`.
impl PartialBinding {
    #[inline]
    fn lab(self) -> Value {
        match self {
            PartialBinding::Bound(b) => Value::Label(b.value.label),
            PartialBinding::Open { .. } | PartialBinding::Any => Value::Unknown,
            PartialBinding::Absent => Value::Nil,
        }
    }

    #[inline]
    fn modifiee(self) -> Value {
        match self {
            PartialBinding::Bound(b) => match b.value.modifiee {
                Modifiee::Nil => Value::Nil,
                Modifiee::Word(p) => Value::Int(p as i64),
            },
            PartialBinding::Open { .. } | PartialBinding::Any => Value::Unknown,
            PartialBinding::Absent => Value::Nil,
        }
    }

    #[inline]
    fn role(self) -> Value {
        match self {
            PartialBinding::Bound(b) => Value::Role(b.role),
            PartialBinding::Open { role, .. } => Value::Role(role),
            PartialBinding::Any => Value::Unknown,
            PartialBinding::Absent => Value::Nil,
        }
    }

    #[inline]
    fn pos(self) -> Value {
        match self {
            PartialBinding::Bound(b) => Value::Int(b.pos as i64),
            PartialBinding::Open { pos, .. } => Value::Int(pos as i64),
            PartialBinding::Any => Value::Unknown,
            PartialBinding::Absent => Value::Nil,
        }
    }
}

/// Internal evaluation context generalizing [`EvalCtx`] to partial
/// bindings; `EvalCtx` maps onto the `Bound`/`Absent` cases.
struct PCtx<'a> {
    sentence: &'a Sentence,
    x: PartialBinding,
    y: PartialBinding,
}

impl PCtx<'_> {
    fn get(&self, var: Var) -> PartialBinding {
        match var {
            Var::X => self.x,
            Var::Y => self.y,
        }
    }

    /// The category of the word at 1-based position `p`, mirroring
    /// `EvalCtx::cat_at` precedence (x's hypothesis, then y's, then the
    /// sentence). An `Open` variable at `p` falls through to the sentence:
    /// unambiguous words pin the hypothesis (every domain value at that
    /// position carries that category), ambiguous ones stay `Unknown`.
    fn cat_at(&self, p: u16) -> Value {
        for var in [self.x, self.y] {
            match var {
                PartialBinding::Bound(b) if b.pos == p => {
                    return Value::Cat(b.value.cat);
                }
                // A variable that could sit at `p` pre-empts any later
                // bound variable (EvalCtx precedence is x-then-y), so fall
                // to the sentence: unambiguous words pin every hypothesis,
                // ambiguous ones stay Unknown.
                PartialBinding::Open { pos, .. } if pos == p => break,
                PartialBinding::Any => break,
                _ => {}
            }
        }
        sentence_cat(self.sentence, p)
    }

    /// `(cat e)` for a value of `e`: a word reference resolves through
    /// [`PCtx::cat_at`], `Unknown` stays unknown, anything else is `Nil`.
    fn cat_of(&self, e: Value) -> Value {
        match e {
            Value::WordRef(p) => self.cat_at(p),
            Value::Unknown => Value::Unknown,
            _ => Value::Nil,
        }
    }
}

/// `(word e)`: a reference to the word at position `e`, `Nil` when there
/// is none.
fn word_of(sentence: &Sentence, e: Value) -> Value {
    match e {
        Value::Int(p) if p >= 1 && (p as usize) <= sentence.len() => Value::WordRef(p as u16),
        Value::Unknown => Value::Unknown,
        _ => Value::Nil,
    }
}

/// The category of the word at position `p` when no bound variable's
/// hypothesis decides it: unambiguous words pin it, ambiguous ones stay
/// `Unknown`.
fn sentence_cat(sentence: &Sentence, p: u16) -> Value {
    match sentence.word_at(p) {
        Some(w) if w.cats.len() == 1 => Value::Cat(w.cats[0]),
        Some(_) => Value::Unknown,
        None => Value::Nil,
    }
}

/// The role-value components a constraint can read from a binding that are
/// *not* fixed per slot. (`pos` and `role` are slot constants; `word`
/// references and the sentence are shared context.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureSet(u8);

impl FeatureSet {
    pub const EMPTY: FeatureSet = FeatureSet(0);
    pub const LABEL: FeatureSet = FeatureSet(1);
    pub const MODIFIEE: FeatureSet = FeatureSet(2);
    pub const CAT: FeatureSet = FeatureSet(4);

    pub fn union(self, other: FeatureSet) -> FeatureSet {
        FeatureSet(self.0 | other.0)
    }

    pub fn contains(self, other: FeatureSet) -> bool {
        self.0 & other.0 == other.0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Feature reads per constraint variable (see module docs for the
/// conservative category rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairFeatures {
    pub x: FeatureSet,
    pub y: FeatureSet,
}

impl PairFeatures {
    /// The union of both variables' read sets — the projection used when a
    /// constraint is checked in *both* orderings of a pair (`check_pair`
    /// and witness semantics), where each value is bound to `x` once and
    /// `y` once.
    pub fn combined(self) -> FeatureSet {
        self.x.union(self.y)
    }
}

/// Project a role value onto a feature set, packed into one key: equal keys
/// ⇔ equal projections. Two role values with equal keys are
/// indistinguishable to any constraint whose reads are within `f` (given
/// the same slot), so they share every verdict.
pub fn signature_key(f: FeatureSet, rv: RoleValue) -> u64 {
    let mut key = 0u64;
    if f.contains(FeatureSet::LABEL) {
        key |= rv.label.0 as u64 + 1;
    }
    if f.contains(FeatureSet::CAT) {
        key |= (rv.cat.0 as u64 + 1) << 17;
    }
    if f.contains(FeatureSet::MODIFIEE) {
        let m = match rv.modifiee {
            Modifiee::Nil => 1u64,
            Modifiee::Word(p) => p as u64 + 2,
        };
        key |= m << 34;
    }
    key
}

/// The relation of a comparison: the paper's `eq`, `gt` and `lt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rel {
    Eq,
    Gt,
    Lt,
}

impl Rel {
    fn apply(self, a: Value, b: Value) -> Truth {
        match self {
            Rel::Eq => a.loose_eq(b),
            Rel::Gt => a.gt(b),
            Rel::Lt => a.lt(b),
        }
    }
}

/// An operand read in place: what one MP-1 instruction reads from a PE's
/// fields or the broadcast stream, with no stack traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leaf {
    /// The top of the stack: an operand that took ops of its own, such as
    /// `(word (mod v))` or `(cat (word 3))`.
    Pop,
    /// Entry `i` of the program's constant pool.
    Const(u16),
    /// `(lab v)` / `(mod v)` / `(role v)` / `(pos v)` — binding accessors.
    Lab(Var),
    Mod(Var),
    RoleOf(Var),
    Pos(Var),
    /// `(cat (word (pos v)))`: the category at `v`'s own position.
    PosCat(Var),
    /// `(cat (word (mod v)))`: the category of `v`'s modifiee.
    ModCat(Var),
}

/// One bytecode operation. Connectives pop operands pushed by earlier ops
/// (postfix order). A comparison reads each operand in place where it can
/// (a [`Leaf`]) and pops only the others, so `(eq (lab x) subj)` is one op
/// where pushing both sides took three. The probe ops implement the tree
/// evaluator's short-circuits as forward jumps. Constants live in the
/// program's pool, so an op is no larger than an `i64` push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KOp {
    /// Push a leaf's value (never [`Leaf::Pop`]).
    Push(Leaf),
    /// `(word e)`: pop a position, push a word reference (or Nil/Unknown).
    Word,
    /// `(cat e)`: pop a word reference, push its category.
    Cat,
    /// `(rel a b)`: read `b`, then `a` (a [`Leaf::Pop`] operand pops), and
    /// push the predicate's truth as a `Value`. A comparison of two
    /// in-place operands is one op, as it is one instruction on the MP-1.
    Cmp(Rel, Leaf, Leaf),
    /// Pop one, push its Kleene negation.
    Not,
    /// Pop one, push `Value::from(v.truth())` — the normalization every
    /// connective applies to its first operand, where that operand is not
    /// already a truth.
    Truthy,
    /// Conjunction fold: pop b then a, push `a.truth().and(b.truth())`.
    AndFold,
    /// Disjunction fold, dual of `AndFold`.
    OrFold,
    /// Material implication: pop c then a, push `¬a ∨ c`.
    IfFold,
    /// If the top is definitely false, jump (the conjunction's early
    /// break: the accumulated False is already on the stack).
    JumpIfFalse(u32),
    /// If the top is definitely true, jump (the disjunction's early break).
    JumpIfTrue(u32),
    /// `If` antecedent shortcut: a false antecedent makes the implication
    /// vacuously true — replace the top with `true` and skip the
    /// consequent.
    IfShortcut(u32),
}

/// A constraint lowered to flat bytecode plus its feature analysis.
///
/// Equality/cloning follow the op vector, so a `KernelProgram` can live
/// inside value types. Compilation is cheap (one tree walk, bounded by
/// [`crate::compile::MAX_OPS`]), so a cold engine can afford to compile at
/// the top of a propagation call — but warm paths resolve the
/// grammar-wide [`crate::compiled::CompiledGrammar`] artifact instead and
/// never recompile a constraint the process has already lowered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProgram {
    ops: Vec<KOp>,
    /// The constants the program reads, indexed by [`Leaf::Const`].
    consts: Vec<Value>,
    features: PairFeatures,
    /// Maximum stack depth `eval_with` can reach — lets callers
    /// pre-reserve the scratch stack once.
    max_depth: usize,
}

impl KernelProgram {
    /// Lower a compiled expression. Total for every well-formed `CExpr`
    /// with at most 65,536 distinct constants (the pool's `u16` index);
    /// the grammar compiler bounds a constraint far below that
    /// ([`crate::compile::MAX_OPS`]).
    pub fn compile(expr: &CExpr) -> KernelProgram {
        let mut code = Emitter::default();
        code.emit(expr);
        let Emitter { ops, consts } = code;
        assert!(ops.len() <= u32::MAX as usize, "program too large");
        let features = analyze(expr);
        let max_depth = stack_depth(&ops);
        KernelProgram {
            ops,
            consts,
            features,
            max_depth,
        }
    }

    /// The feature-signature analysis result.
    pub fn features(&self) -> PairFeatures {
        self.features
    }

    /// Upper bound on the scratch stack depth of [`KernelProgram::eval_with`].
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// The value of `leaf` under `ctx`; [`Leaf::Pop`] pops it.
    #[inline]
    fn read(&self, ctx: &PCtx<'_>, leaf: Leaf, stack: &mut Vec<Value>) -> Value {
        match leaf {
            Leaf::Pop => stack.pop().expect("stack underflow"),
            Leaf::Const(i) => self.consts[i as usize],
            Leaf::Lab(v) => ctx.get(v).lab(),
            Leaf::Mod(v) => ctx.get(v).modifiee(),
            Leaf::RoleOf(v) => ctx.get(v).role(),
            Leaf::Pos(v) => ctx.get(v).pos(),
            Leaf::PosCat(v) => ctx.cat_of(word_of(ctx.sentence, ctx.get(v).pos())),
            Leaf::ModCat(v) => ctx.cat_of(word_of(ctx.sentence, ctx.get(v).modifiee())),
        }
    }

    /// Evaluate against `ctx`, reusing `stack` as scratch space (cleared on
    /// entry). Returns exactly what `CExpr::eval` would.
    pub fn eval_with(&self, ctx: &EvalCtx<'_>, stack: &mut Vec<Value>) -> Value {
        let pctx = PCtx {
            sentence: ctx.sentence,
            x: PartialBinding::Bound(ctx.x),
            y: match ctx.y {
                Some(y) => PartialBinding::Bound(y),
                None => PartialBinding::Absent,
            },
        };
        self.run(&pctx, stack)
    }

    /// Evaluate under partial bindings (see [`PartialBinding`]). With both
    /// variables `Bound` this equals a binary [`KernelProgram::eval_with`];
    /// with `y: Absent` it equals the unary one. An `Open` variable yields
    /// the strongest verdict valid for *every* role value of that slot —
    /// a definite result here short-circuits an entire matrix row or
    /// column in the propagation engines.
    pub fn eval_partial(
        &self,
        sentence: &Sentence,
        x: PartialBinding,
        y: PartialBinding,
        stack: &mut Vec<Value>,
    ) -> Value {
        self.run(&PCtx { sentence, x, y }, stack)
    }

    fn run(&self, ctx: &PCtx<'_>, stack: &mut Vec<Value>) -> Value {
        stack.clear();
        stack.reserve(self.max_depth);
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match self.ops[pc] {
                KOp::Push(leaf) => {
                    let v = self.read(ctx, leaf, stack);
                    stack.push(v);
                }
                KOp::Word => {
                    let e = stack.pop().expect("stack underflow");
                    stack.push(word_of(ctx.sentence, e));
                }
                KOp::Cat => {
                    let e = stack.pop().expect("stack underflow");
                    stack.push(ctx.cat_of(e));
                }
                KOp::Cmp(rel, a, b) => {
                    let b = self.read(ctx, b, stack);
                    let a = self.read(ctx, a, stack);
                    stack.push(Value::from(rel.apply(a, b)));
                }
                KOp::Not => {
                    let a = stack.pop().expect("stack underflow");
                    stack.push(Value::from(a.truth().not()));
                }
                KOp::Truthy => {
                    let a = stack.pop().expect("stack underflow");
                    stack.push(Value::from(a.truth()));
                }
                KOp::AndFold => {
                    let b = stack.pop().expect("stack underflow");
                    let a = stack.pop().expect("stack underflow");
                    stack.push(Value::from(a.truth().and(b.truth())));
                }
                KOp::OrFold => {
                    let b = stack.pop().expect("stack underflow");
                    let a = stack.pop().expect("stack underflow");
                    stack.push(Value::from(a.truth().or(b.truth())));
                }
                KOp::IfFold => {
                    let c = stack.pop().expect("stack underflow");
                    let a = stack.pop().expect("stack underflow");
                    stack.push(Value::from(a.truth().not().or(c.truth())));
                }
                KOp::JumpIfFalse(target) => {
                    let top = stack.last().expect("stack underflow");
                    if top.truth() == Truth::False {
                        pc = target as usize;
                        continue;
                    }
                }
                KOp::JumpIfTrue(target) => {
                    let top = stack.last().expect("stack underflow");
                    if top.truth() == Truth::True {
                        pc = target as usize;
                        continue;
                    }
                }
                KOp::IfShortcut(target) => {
                    let top = stack.last().expect("stack underflow");
                    if top.truth() == Truth::False {
                        stack.pop();
                        stack.push(Value::Bool(true));
                        pc = target as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        stack.pop().expect("empty program")
    }

    /// One-shot evaluation (allocates a scratch stack; the engines hold a
    /// reusable stack and call [`KernelProgram::eval_with`]).
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> Value {
        self.eval_with(ctx, &mut Vec::new())
    }
}

/// The code of a program being lowered: its ops and its constant pool.
#[derive(Default)]
struct Emitter {
    ops: Vec<KOp>,
    consts: Vec<Value>,
}

impl Emitter {
    /// `expr` as an operand read in place, when it is one.
    fn leaf(&mut self, expr: &CExpr) -> Option<Leaf> {
        Some(match expr {
            CExpr::Lab(v) => Leaf::Lab(*v),
            CExpr::Mod(v) => Leaf::Mod(*v),
            CExpr::RoleOf(v) => Leaf::RoleOf(*v),
            CExpr::Pos(v) => Leaf::Pos(*v),
            CExpr::Cat(e) => match &**e {
                CExpr::Word(e) => match **e {
                    CExpr::Pos(v) => Leaf::PosCat(v),
                    CExpr::Mod(v) => Leaf::ModCat(v),
                    _ => return None,
                },
                _ => return None,
            },
            CExpr::ConstLabel(l) => self.constant(Value::Label(*l)),
            CExpr::ConstCat(c) => self.constant(Value::Cat(*c)),
            CExpr::ConstRole(r) => self.constant(Value::Role(*r)),
            CExpr::ConstInt(i) => self.constant(Value::Int(*i)),
            CExpr::ConstNil => self.constant(Value::Nil),
            _ => return None,
        })
    }

    /// The pool entry holding `value`, added on first use.
    fn constant(&mut self, value: Value) -> Leaf {
        let i = match self.consts.iter().position(|&c| c == value) {
            Some(i) => i,
            None => {
                self.consts.push(value);
                self.consts.len() - 1
            }
        };
        Leaf::Const(u16::try_from(i).expect("program too large"))
    }

    /// A comparison operand: read in place when it can be, else its code
    /// followed by a pop.
    fn operand(&mut self, expr: &CExpr) -> Leaf {
        self.leaf(expr).unwrap_or_else(|| {
            self.emit(expr);
            Leaf::Pop
        })
    }

    /// Emit postfix code for `expr`.
    fn emit(&mut self, expr: &CExpr) {
        if let Some(leaf) = self.leaf(expr) {
            self.ops.push(KOp::Push(leaf));
            return;
        }
        match expr {
            CExpr::If(a, c) => {
                self.emit(a);
                let shortcut = self.ops.len();
                self.ops.push(KOp::IfShortcut(0)); // patched below
                self.emit(c);
                self.ops.push(KOp::IfFold);
                let end = self.ops.len() as u32;
                self.ops[shortcut] = KOp::IfShortcut(end);
            }
            CExpr::And(items) => self.fold(items, true),
            CExpr::Or(items) => self.fold(items, false),
            CExpr::Not(e) => {
                self.emit(e);
                self.ops.push(KOp::Not);
            }
            CExpr::Eq(a, b) => self.compare(Rel::Eq, a, b),
            CExpr::Gt(a, b) => self.compare(Rel::Gt, a, b),
            CExpr::Lt(a, b) => self.compare(Rel::Lt, a, b),
            CExpr::Word(e) => {
                self.emit(e);
                self.ops.push(KOp::Word);
            }
            CExpr::Cat(e) => {
                self.emit(e);
                self.ops.push(KOp::Cat);
            }
            _ => unreachable!("every accessor and constant is a leaf"),
        }
    }

    fn compare(&mut self, rel: Rel, a: &CExpr, b: &CExpr) {
        let a = self.operand(a);
        let b = self.operand(b);
        self.ops.push(KOp::Cmp(rel, a, b));
    }

    /// A conjunction (`and`) or disjunction: acc = True (False); acc =
    /// acc ∧ tᵢ (∨), breaking on a definite False (True). The first item
    /// normalizes via `Truthy` (True ∧ t = t's truth) unless it already
    /// yields a truth; later items fold pairwise. Break targets are patched
    /// to the end once known.
    fn fold(&mut self, items: &[CExpr], and: bool) {
        if items.is_empty() {
            let unit = self.constant(Value::Bool(and));
            self.ops.push(KOp::Push(unit));
            return;
        }
        let mut breaks = Vec::new();
        for (i, e) in items.iter().enumerate() {
            self.emit(e);
            if i > 0 {
                self.ops.push(if and { KOp::AndFold } else { KOp::OrFold });
            } else if !yields_truth(e) {
                self.ops.push(KOp::Truthy);
            }
            if i + 1 < items.len() {
                breaks.push(self.ops.len());
                self.ops.push(if and {
                    KOp::JumpIfFalse(0)
                } else {
                    KOp::JumpIfTrue(0)
                });
            }
        }
        let end = self.ops.len() as u32;
        for b in breaks {
            self.ops[b] = if and {
                KOp::JumpIfFalse(end)
            } else {
                KOp::JumpIfTrue(end)
            };
        }
    }
}

/// Whether `expr` always evaluates to `Bool` or `Unknown`: predicates and
/// connectives do, accessors and constants need not.
fn yields_truth(expr: &CExpr) -> bool {
    matches!(
        expr,
        CExpr::If(..)
            | CExpr::And(_)
            | CExpr::Or(_)
            | CExpr::Not(_)
            | CExpr::Eq(..)
            | CExpr::Gt(..)
            | CExpr::Lt(..)
    )
}

/// The feature-read analysis (module docs: the `Cat` rule is conservative
/// on purpose — `cat_at` can resolve through either bound variable).
fn analyze(expr: &CExpr) -> PairFeatures {
    let mut f = PairFeatures::default();
    walk(expr, &mut f);
    f
}

fn walk(expr: &CExpr, f: &mut PairFeatures) {
    match expr {
        CExpr::If(a, b) | CExpr::Eq(a, b) | CExpr::Gt(a, b) | CExpr::Lt(a, b) => {
            walk(a, f);
            walk(b, f);
        }
        CExpr::And(items) | CExpr::Or(items) => {
            for e in items {
                walk(e, f);
            }
        }
        CExpr::Not(e) | CExpr::Word(e) => walk(e, f),
        CExpr::Cat(e) => {
            f.x = f.x.union(FeatureSet::CAT);
            f.y = f.y.union(FeatureSet::CAT);
            walk(e, f);
        }
        CExpr::Lab(v) => add(f, *v, FeatureSet::LABEL),
        CExpr::Mod(v) => add(f, *v, FeatureSet::MODIFIEE),
        // pos/role are slot constants; constants read nothing.
        _ => {}
    }
}

fn add(f: &mut PairFeatures, v: Var, feat: FeatureSet) {
    match v {
        Var::X => f.x = f.x.union(feat),
        Var::Y => f.y = f.y.union(feat),
    }
}

/// Worst-case stack depth of a program (probes never grow the stack;
/// folds shrink it).
fn stack_depth(ops: &[KOp]) -> usize {
    let mut depth = 0usize;
    let mut max = 0usize;
    for op in ops {
        match op {
            KOp::Push(_) => depth += 1,
            KOp::Cmp(_, a, b) => {
                let pops = usize::from(*a == Leaf::Pop) + usize::from(*b == Leaf::Pop);
                depth = depth.saturating_sub(pops) + 1;
            }
            KOp::AndFold | KOp::OrFold | KOp::IfFold => depth = depth.saturating_sub(1),
            _ => {}
        }
        max = max.max(depth);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Binding;
    use crate::grammars::{english, paper};
    use crate::ids::{CatId, LabelId};
    use crate::sentence::{sentence_from_cats, Sentence, SentenceWord};
    use crate::value::Truth;

    /// Exhaustive-ish differential check of one constraint's program
    /// against the tree evaluator over every pair of bindings drawn from
    /// the network domains a real parse would build.
    fn assert_program_matches(g: &crate::grammar::Grammar, s: &Sentence) {
        let n = s.len() as u16;
        // Build every binding the network would generate: each position ×
        // role × category reading × allowed label × modifiee.
        let mut bindings = Vec::new();
        for pos in 1..=n {
            for r in 0..g.num_roles() as u16 {
                let role = RoleId(r);
                for &cat in &s.word(pos as usize - 1).cats {
                    for &label in g.allowed_labels(role) {
                        for m in 0..=n {
                            if m == pos {
                                continue;
                            }
                            let modifiee = if m == 0 {
                                Modifiee::Nil
                            } else {
                                Modifiee::Word(m)
                            };
                            bindings.push(Binding {
                                pos,
                                role,
                                value: RoleValue::new(cat, label, modifiee),
                            });
                        }
                    }
                }
            }
        }
        let mut stack = Vec::new();
        for c in g.unary_constraints().iter().chain(g.binary_constraints()) {
            let prog = KernelProgram::compile(&c.expr);
            for x in &bindings {
                let ctx = EvalCtx::unary(s, *x);
                assert_eq!(
                    prog.eval_with(&ctx, &mut stack),
                    c.expr.eval(&ctx),
                    "unary ctx mismatch for {} on {:?}",
                    c.name,
                    x
                );
                for y in &bindings {
                    let ctx = EvalCtx::binary(s, *x, *y);
                    assert_eq!(
                        prog.eval_with(&ctx, &mut stack),
                        c.expr.eval(&ctx),
                        "binary ctx mismatch for {} on {:?} / {:?}",
                        c.name,
                        x,
                        y
                    );
                }
            }
        }
    }

    #[test]
    fn program_matches_tree_on_paper_grammar() {
        let g = paper::grammar();
        let s = sentence_from_cats(&g, &[("the", "det"), ("program", "noun"), ("runs", "verb")])
            .unwrap();
        assert_program_matches(&g, &s);
    }

    #[test]
    fn program_matches_tree_with_lexical_ambiguity() {
        // Ambiguous words exercise the Unknown paths (cat_at witness
        // semantics), where short-circuiting is most delicate.
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("the watch runs").unwrap();
        assert!(s.has_lexical_ambiguity());
        assert_program_matches(&g, &s);
    }

    #[test]
    fn feature_analysis_reads() {
        let g = paper::grammar();
        // "subj-governed-by-root-right" mentions lab/mod of both vars.
        let c = g
            .binary_constraints()
            .iter()
            .find(|c| c.name == "subj-governed-by-root-right")
            .unwrap();
        let f = KernelProgram::compile(&c.expr).features();
        assert!(f.x.contains(FeatureSet::LABEL));
        assert!(f.combined().contains(FeatureSet::MODIFIEE));
        // A category access marks *both* variables (cat_at may resolve
        // through either binding).
        let cat_expr = CExpr::Cat(Box::new(CExpr::Word(Box::new(CExpr::Mod(Var::X)))));
        let f = KernelProgram::compile(&cat_expr).features();
        assert!(f.x.contains(FeatureSet::CAT));
        assert!(f.y.contains(FeatureSet::CAT));
        assert!(f.x.contains(FeatureSet::MODIFIEE));
        assert!(!f.y.contains(FeatureSet::MODIFIEE));
        // pos/role reads don't contribute: they are slot constants.
        let pos_expr = CExpr::Gt(Box::new(CExpr::Pos(Var::X)), Box::new(CExpr::Pos(Var::Y)));
        assert_eq!(
            KernelProgram::compile(&pos_expr).features().combined(),
            FeatureSet::EMPTY
        );
    }

    #[test]
    fn signature_keys_distinguish_only_read_features() {
        let a = RoleValue::new(CatId(1), LabelId(2), Modifiee::Nil);
        let b = RoleValue::new(CatId(3), LabelId(2), Modifiee::Word(4));
        assert_eq!(
            signature_key(FeatureSet::LABEL, a),
            signature_key(FeatureSet::LABEL, b)
        );
        assert_ne!(
            signature_key(FeatureSet::LABEL.union(FeatureSet::CAT), a),
            signature_key(FeatureSet::LABEL.union(FeatureSet::CAT), b)
        );
        assert_ne!(
            signature_key(FeatureSet::MODIFIEE, a),
            signature_key(FeatureSet::MODIFIEE, b)
        );
        // Nil and Word(p) never collide.
        let nil = RoleValue::new(CatId(0), LabelId(0), Modifiee::Nil);
        for p in 0..64u16 {
            let w = RoleValue::new(CatId(0), LabelId(0), Modifiee::Word(p));
            assert_ne!(
                signature_key(FeatureSet::MODIFIEE, nil),
                signature_key(FeatureSet::MODIFIEE, w)
            );
        }
        assert_eq!(signature_key(FeatureSet::EMPTY, a), 0);
    }

    #[test]
    fn short_circuits_match_kleene_semantics() {
        let g = paper::grammar();
        let s = sentence_from_cats(&g, &[("the", "det"), ("program", "noun"), ("runs", "verb")])
            .unwrap();
        let x = Binding {
            pos: 1,
            role: RoleId(0),
            value: RoleValue::new(g.cat_id("det").unwrap(), LabelId(0), Modifiee::Word(2)),
        };
        let ctx = EvalCtx::unary(&s, x);
        let t = CExpr::Eq(Box::new(CExpr::ConstInt(1)), Box::new(CExpr::ConstInt(1)));
        let f = CExpr::Eq(Box::new(CExpr::ConstInt(1)), Box::new(CExpr::ConstInt(2)));
        let mut stack = Vec::new();
        for a in [&t, &f] {
            for b in [&t, &f] {
                for e in [
                    CExpr::And(vec![a.clone(), b.clone()]),
                    CExpr::Or(vec![a.clone(), b.clone()]),
                    CExpr::If(Box::new(a.clone()), Box::new(b.clone())),
                ] {
                    let prog = KernelProgram::compile(&e);
                    assert_eq!(prog.eval_with(&ctx, &mut stack), e.eval(&ctx), "{e:?}");
                }
            }
        }
        // Empty connectives.
        assert_eq!(
            KernelProgram::compile(&CExpr::And(vec![])).eval(&ctx),
            Value::Bool(true)
        );
        assert_eq!(
            KernelProgram::compile(&CExpr::Or(vec![])).eval(&ctx),
            Value::Bool(false)
        );
    }

    #[test]
    fn unknown_is_not_short_circuited() {
        // Unknown must flow through And/Or/If untouched — only *definite*
        // values may break early.
        let g = paper::grammar();
        let noun = g.cat_id("noun").unwrap();
        let verb = g.cat_id("verb").unwrap();
        let s = Sentence::new(vec![
            SentenceWord {
                text: "run".into(),
                cats: vec![noun, verb],
            },
            SentenceWord {
                text: "fast".into(),
                cats: vec![verb],
            },
        ]);
        let x = Binding {
            pos: 2,
            role: RoleId(0),
            value: RoleValue::new(verb, LabelId(0), Modifiee::Nil),
        };
        let ctx = EvalCtx::unary(&s, x);
        // (eq (cat (word 1)) noun) is Unknown: word 1 is ambiguous, unbound.
        let unk = CExpr::Eq(
            Box::new(CExpr::Cat(Box::new(CExpr::Word(Box::new(
                CExpr::ConstInt(1),
            ))))),
            Box::new(CExpr::ConstCat(noun)),
        );
        assert_eq!(unk.eval(&ctx), Value::Unknown);
        let t = CExpr::Eq(Box::new(CExpr::ConstInt(1)), Box::new(CExpr::ConstInt(1)));
        let f = CExpr::Not(Box::new(t.clone()));
        let mut stack = Vec::new();
        for e in [
            CExpr::And(vec![unk.clone(), t.clone()]),
            CExpr::And(vec![unk.clone(), f.clone()]),
            CExpr::Or(vec![unk.clone(), f.clone()]),
            CExpr::Or(vec![unk.clone(), t.clone()]),
            CExpr::If(Box::new(unk.clone()), Box::new(f.clone())),
            CExpr::If(Box::new(t.clone()), Box::new(unk.clone())),
        ] {
            let prog = KernelProgram::compile(&e);
            assert_eq!(prog.eval_with(&ctx, &mut stack), e.eval(&ctx), "{e:?}");
        }
        assert_eq!(
            KernelProgram::compile(&CExpr::And(vec![unk.clone(), f]))
                .eval(&ctx)
                .truth(),
            Truth::False
        );
    }

    /// The load-bearing property of partial evaluation: a *definite*
    /// verdict with one variable `Open` over a slot must equal the full
    /// verdict for every role value of that slot, and `Bound`/`Absent`
    /// partial contexts must reproduce `eval_with` exactly.
    #[test]
    fn partial_is_sound_for_full_eval() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        // Ambiguity exercises the cat_at sentence-fallback paths.
        let s = lex.sentence("the watch runs").unwrap();
        assert!(s.has_lexical_ambiguity());
        let n = s.len() as u16;
        let mut bindings = Vec::new();
        for pos in 1..=n {
            for r in 0..g.num_roles() as u16 {
                let role = RoleId(r);
                for &cat in &s.word(pos as usize - 1).cats {
                    for &label in g.allowed_labels(role) {
                        for m in 0..=n {
                            if m == pos {
                                continue;
                            }
                            let modifiee = if m == 0 {
                                Modifiee::Nil
                            } else {
                                Modifiee::Word(m)
                            };
                            bindings.push(Binding {
                                pos,
                                role,
                                value: RoleValue::new(cat, label, modifiee),
                            });
                        }
                    }
                }
            }
        }
        let mut stack = Vec::new();
        let open = |b: &Binding| PartialBinding::Open {
            pos: b.pos,
            role: b.role,
        };
        for c in g.binary_constraints() {
            let prog = KernelProgram::compile(&c.expr);
            for x in &bindings {
                for y in &bindings {
                    let full = prog.eval_with(&EvalCtx::binary(&s, *x, *y), &mut stack);
                    // Bound/Bound partial == full.
                    assert_eq!(
                        prog.eval_partial(
                            &s,
                            PartialBinding::Bound(*x),
                            PartialBinding::Bound(*y),
                            &mut stack
                        ),
                        full,
                        "{}: bound/bound diverged on {x:?} / {y:?}",
                        c.name
                    );
                    // Either side Open: definite ⇒ equal to full.
                    for partial in [
                        prog.eval_partial(&s, PartialBinding::Bound(*x), open(y), &mut stack),
                        prog.eval_partial(&s, open(x), PartialBinding::Bound(*y), &mut stack),
                    ] {
                        let pt = partial.truth();
                        if pt != Truth::Unknown {
                            assert_eq!(
                                pt,
                                full.truth(),
                                "{}: definite partial contradicts full eval on {x:?} / {y:?}",
                                c.name
                            );
                        }
                    }
                }
            }
        }
        // y: Absent reproduces the unary context (fails closed to Nil).
        for c in g.unary_constraints() {
            let prog = KernelProgram::compile(&c.expr);
            for x in &bindings {
                assert_eq!(
                    prog.eval_partial(
                        &s,
                        PartialBinding::Bound(*x),
                        PartialBinding::Absent,
                        &mut stack
                    ),
                    prog.eval_with(&EvalCtx::unary(&s, *x), &mut stack),
                    "{}: unary/absent diverged on {x:?}",
                    c.name
                );
            }
        }
    }

    /// Every comparison operand kind is read in place by some bundled
    /// constraint, and each bundled grammar's programs stay at most as
    /// long as they were when comparisons were fused. A ceiling may only
    /// fall: the grammars ran 731, 157, 209 and 218 ops with every operand
    /// pushed.
    #[test]
    fn comparisons_read_their_operands_in_place() {
        use crate::grammars::formal;
        let grammars = [
            ("english", english::grammar(), 348),
            ("anbn", formal::anbn_grammar(), 76),
            ("brackets", formal::brackets_grammar(), 94),
            ("paper", paper::grammar(), 104),
        ];
        let mut fused = std::collections::HashSet::new();
        for (name, g, ceiling) in &grammars {
            let mut total = 0;
            for c in g.unary_constraints().iter().chain(g.binary_constraints()) {
                let prog = KernelProgram::compile(&c.expr);
                total += prog.ops.len();
                for op in &prog.ops {
                    if let KOp::Cmp(_, a, b) = op {
                        for leaf in [a, b] {
                            fused.insert(std::mem::discriminant(leaf));
                        }
                    }
                }
            }
            assert!(total <= *ceiling, "{name}: {total} ops, ceiling {ceiling}");
        }
        for kind in [
            Leaf::Const(0),
            Leaf::Lab(Var::X),
            Leaf::Mod(Var::X),
            Leaf::RoleOf(Var::X),
            Leaf::Pos(Var::X),
            Leaf::PosCat(Var::X),
            Leaf::ModCat(Var::X),
        ] {
            assert!(
                fused.contains(&std::mem::discriminant(&kind)),
                "no bundled comparison reads {kind:?} in place"
            );
        }
        // A constant pool keeps an op as small as an `i64` push was.
        assert!(std::mem::size_of::<KOp>() <= 16);
    }

    #[test]
    fn max_depth_bounds_actual_stack() {
        let g = english::grammar();
        for c in g.unary_constraints().iter().chain(g.binary_constraints()) {
            let prog = KernelProgram::compile(&c.expr);
            assert!(prog.max_depth() >= 1);
            assert!(prog.max_depth() <= crate::compile::MAX_OPS);
        }
    }
}
