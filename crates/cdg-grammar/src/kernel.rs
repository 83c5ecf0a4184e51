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
//!    change the result — evaluation is side-effect-free).
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
use crate::ids::{CatId, LabelId, Modifiee, RoleId, RoleValue};
use crate::sentence::Sentence;
use crate::value::Value;

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

/// One bytecode operation. Predicates and connectives pop operands pushed
/// by earlier ops (postfix order); the probe ops implement the tree
/// evaluator's short-circuits as forward jumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KOp {
    PushBool(bool),
    PushInt(i64),
    PushLabel(LabelId),
    PushCat(CatId),
    PushRole(RoleId),
    PushNil,
    /// `(lab v)` / `(mod v)` / `(role v)` / `(pos v)` — binding accessors.
    Lab(Var),
    Mod(Var),
    RoleOf(Var),
    Pos(Var),
    /// `(word e)`: pop a position, push a word reference (or Nil/Unknown).
    Word,
    /// `(cat e)`: pop a word reference, push its category.
    Cat,
    /// Pop two, push the predicate's truth as a `Value`.
    Eq,
    Gt,
    Lt,
    /// Pop one, push its Kleene negation.
    Not,
    /// Pop one, push `Value::from(v.truth())` — the normalization every
    /// connective applies to its first operand.
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
    features: PairFeatures,
    /// Maximum stack depth `eval_with` can reach — lets callers
    /// pre-reserve the scratch stack once.
    max_depth: usize,
}

impl KernelProgram {
    /// Lower a compiled expression. Total for every well-formed `CExpr`.
    pub fn compile(expr: &CExpr) -> KernelProgram {
        let mut ops = Vec::new();
        emit(expr, &mut ops);
        assert!(ops.len() <= u32::MAX as usize, "program too large");
        let features = analyze(expr);
        let max_depth = stack_depth(&ops);
        KernelProgram {
            ops,
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
                KOp::PushBool(b) => stack.push(Value::Bool(b)),
                KOp::PushInt(i) => stack.push(Value::Int(i)),
                KOp::PushLabel(l) => stack.push(Value::Label(l)),
                KOp::PushCat(c) => stack.push(Value::Cat(c)),
                KOp::PushRole(r) => stack.push(Value::Role(r)),
                KOp::PushNil => stack.push(Value::Nil),
                KOp::Lab(v) => stack.push(ctx.get(v).lab()),
                KOp::Mod(v) => stack.push(ctx.get(v).modifiee()),
                KOp::RoleOf(v) => stack.push(ctx.get(v).role()),
                KOp::Pos(v) => stack.push(ctx.get(v).pos()),
                KOp::Word => {
                    let e = stack.pop().expect("stack underflow");
                    stack.push(word_of(ctx.sentence, e));
                }
                KOp::Cat => {
                    let e = stack.pop().expect("stack underflow");
                    stack.push(match e {
                        Value::WordRef(p) => ctx.cat_at(p),
                        Value::Unknown => Value::Unknown,
                        _ => Value::Nil,
                    });
                }
                KOp::Eq => {
                    let b = stack.pop().expect("stack underflow");
                    let a = stack.pop().expect("stack underflow");
                    stack.push(Value::from(a.loose_eq(b)));
                }
                KOp::Gt => {
                    let b = stack.pop().expect("stack underflow");
                    let a = stack.pop().expect("stack underflow");
                    stack.push(Value::from(a.gt(b)));
                }
                KOp::Lt => {
                    let b = stack.pop().expect("stack underflow");
                    let a = stack.pop().expect("stack underflow");
                    stack.push(Value::from(a.lt(b)));
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
                    if top.truth() == crate::value::Truth::False {
                        pc = target as usize;
                        continue;
                    }
                }
                KOp::JumpIfTrue(target) => {
                    let top = stack.last().expect("stack underflow");
                    if top.truth() == crate::value::Truth::True {
                        pc = target as usize;
                        continue;
                    }
                }
                KOp::IfShortcut(target) => {
                    let top = stack.last().expect("stack underflow");
                    if top.truth() == crate::value::Truth::False {
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

/// Emit postfix code for `expr` into `ops`.
fn emit(expr: &CExpr, ops: &mut Vec<KOp>) {
    match expr {
        CExpr::If(a, c) => {
            emit(a, ops);
            let shortcut = ops.len();
            ops.push(KOp::IfShortcut(0)); // patched below
            emit(c, ops);
            ops.push(KOp::IfFold);
            let end = ops.len() as u32;
            ops[shortcut] = KOp::IfShortcut(end);
        }
        CExpr::And(items) => {
            // acc = True; acc = acc ∧ tᵢ, breaking on a definite False.
            // The first operand normalizes via Truthy (True ∧ t = t's
            // truth); later operands fold pairwise. Break targets are
            // patched to the end once known.
            if items.is_empty() {
                ops.push(KOp::PushBool(true));
                return;
            }
            let mut breaks = Vec::new();
            for (i, e) in items.iter().enumerate() {
                emit(e, ops);
                if i == 0 {
                    ops.push(KOp::Truthy);
                } else {
                    ops.push(KOp::AndFold);
                }
                if i + 1 < items.len() {
                    breaks.push(ops.len());
                    ops.push(KOp::JumpIfFalse(0));
                }
            }
            let end = ops.len() as u32;
            for b in breaks {
                ops[b] = KOp::JumpIfFalse(end);
            }
        }
        CExpr::Or(items) => {
            if items.is_empty() {
                ops.push(KOp::PushBool(false));
                return;
            }
            let mut breaks = Vec::new();
            for (i, e) in items.iter().enumerate() {
                emit(e, ops);
                if i == 0 {
                    ops.push(KOp::Truthy);
                } else {
                    ops.push(KOp::OrFold);
                }
                if i + 1 < items.len() {
                    breaks.push(ops.len());
                    ops.push(KOp::JumpIfTrue(0));
                }
            }
            let end = ops.len() as u32;
            for b in breaks {
                ops[b] = KOp::JumpIfTrue(end);
            }
        }
        CExpr::Not(e) => {
            emit(e, ops);
            ops.push(KOp::Not);
        }
        CExpr::Eq(a, b) => {
            emit(a, ops);
            emit(b, ops);
            ops.push(KOp::Eq);
        }
        CExpr::Gt(a, b) => {
            emit(a, ops);
            emit(b, ops);
            ops.push(KOp::Gt);
        }
        CExpr::Lt(a, b) => {
            emit(a, ops);
            emit(b, ops);
            ops.push(KOp::Lt);
        }
        CExpr::Lab(v) => ops.push(KOp::Lab(*v)),
        CExpr::Mod(v) => ops.push(KOp::Mod(*v)),
        CExpr::RoleOf(v) => ops.push(KOp::RoleOf(*v)),
        CExpr::Pos(v) => ops.push(KOp::Pos(*v)),
        CExpr::Word(e) => {
            emit(e, ops);
            ops.push(KOp::Word);
        }
        CExpr::Cat(e) => {
            emit(e, ops);
            ops.push(KOp::Cat);
        }
        CExpr::ConstLabel(l) => ops.push(KOp::PushLabel(*l)),
        CExpr::ConstCat(c) => ops.push(KOp::PushCat(*c)),
        CExpr::ConstRole(r) => ops.push(KOp::PushRole(*r)),
        CExpr::ConstInt(i) => ops.push(KOp::PushInt(*i)),
        CExpr::ConstNil => ops.push(KOp::PushNil),
    }
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
            KOp::PushBool(_)
            | KOp::PushInt(_)
            | KOp::PushLabel(_)
            | KOp::PushCat(_)
            | KOp::PushRole(_)
            | KOp::PushNil
            | KOp::Lab(_)
            | KOp::Mod(_)
            | KOp::RoleOf(_)
            | KOp::Pos(_) => depth += 1,
            KOp::Eq | KOp::Gt | KOp::Lt | KOp::AndFold | KOp::OrFold | KOp::IfFold => {
                depth = depth.saturating_sub(1)
            }
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
