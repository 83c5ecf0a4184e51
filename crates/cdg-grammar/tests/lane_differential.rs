//! Differential test of the lane evaluator: every lane of
//! `KernelProgram::eval_lanes` must equal scalar `eval_partial` with that
//! lane bound, for the bundled grammars' constraints and for seeded random
//! constraint ASTs.

use cdg_grammar::expr::{Binding, CExpr, Var};
use cdg_grammar::grammars::{english, english_aux, formal, paper};
use cdg_grammar::kernel::{KernelProgram, LaneScratch, LaneTables, PartialBinding};
use cdg_grammar::value::Truth;
use cdg_grammar::{CatId, Grammar, LabelId, Modifiee, RoleId, RoleValue, Sentence};

/// One slot of a network: position, role, and its domain in the order
/// `Network::build` generates it (category, label, nil then ascending
/// modifiees, never the word itself).
struct Slot {
    pos: u16,
    role: RoleId,
    domain: Vec<RoleValue>,
}

fn slots(g: &Grammar, s: &Sentence) -> Vec<Slot> {
    let n = s.len() as u16;
    let mut out = Vec::new();
    for pos in 1..=n {
        for r in 0..g.num_roles() as u16 {
            let role = RoleId(r);
            let mut domain = Vec::new();
            for &cat in &s.word(pos as usize - 1).cats {
                for &label in g.allowed_labels(role) {
                    domain.push(RoleValue::new(cat, label, Modifiee::Nil));
                    for m in (1..=n).filter(|&m| m != pos) {
                        domain.push(RoleValue::new(cat, label, Modifiee::Word(m)));
                    }
                }
            }
            out.push(Slot { pos, role, domain });
        }
    }
    out
}

fn tables(slots: &[Slot]) -> LaneTables {
    let mut t = LaneTables::new();
    t.reset(slots.len());
    t
}

/// A small xorshift generator: deterministic, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The full lane set of a `len`-lane slot, a seeded subset of it, and a
/// seeded sparse subset (at most two lanes per word, which the evaluator
/// runs lane by lane).
fn lane_sets(len: usize, rng: &mut Rng) -> [Vec<u64>; 3] {
    let words = len.div_ceil(64);
    let mut full = vec![!0u64; words];
    if len % 64 != 0 {
        full[words - 1] = (1u64 << (len % 64)) - 1;
    }
    let part = full.iter().map(|&w| w & rng.next()).collect();
    let sparse = full
        .iter()
        .map(|&w| {
            let picks = (1u64 << (rng.next() % 64)) | (1u64 << (rng.next() % 64));
            w & picks
        })
        .collect();
    [full, part, sparse]
}

/// Run one lane pass and compare every lane with the scalar evaluator;
/// returns the number of lanes checked.
#[allow(clippy::too_many_arguments)]
fn check_pass(
    prog: &KernelProgram,
    s: &Sentence,
    tables: &LaneTables,
    k: usize,
    slot: &Slot,
    lane: Var,
    scalar: PartialBinding,
    set: &[u64],
    scratch: &mut LaneScratch,
    what: &dyn Fn() -> String,
) -> usize {
    let lanes = tables.slot(k, slot.pos, slot.role, &slot.domain);
    let (mut t, mut f) = (vec![0u64; set.len()], vec![0u64; set.len()]);
    prog.eval_lanes(s, &lanes, lane, scalar, set, scratch, &mut t, &mut f);
    let mut stack = Vec::new();
    let mut checked = 0;
    for (v, &value) in slot.domain.iter().enumerate() {
        let bit = |w: &[u64]| w[v / 64] >> (v % 64) & 1 == 1;
        if !bit(set) {
            assert!(
                !bit(&t) && !bit(&f),
                "lane {v} outside the set came back decided: {}",
                what()
            );
            continue;
        }
        let b = PartialBinding::Bound(Binding {
            pos: slot.pos,
            role: slot.role,
            value,
        });
        let (x, y) = match lane {
            Var::X => (b, scalar),
            Var::Y => (scalar, b),
        };
        let want = prog.eval_partial(s, x, y, &mut stack).truth();
        let got = match (bit(&t), bit(&f)) {
            (true, false) => Truth::True,
            (false, true) => Truth::False,
            (false, false) => Truth::Unknown,
            (true, true) => panic!("lane {v} both true and false: {}", what()),
        };
        assert_eq!(
            got,
            want,
            "lane {v} ({value:?}) as {lane} against {scalar:?}: {}",
            what()
        );
        checked += 1;
    }
    checked
}

/// Every slot pair (including a slot with itself), both lane variables,
/// the scalar side `Bound` to each of `bound_stride`-spaced values, `Open`
/// and `Any`, over the full lane set and random dense and sparse subsets.
fn check_program(
    name: &str,
    prog: &KernelProgram,
    s: &Sentence,
    slots: &[Slot],
    bound_stride: usize,
    rng: &mut Rng,
) -> usize {
    let tables = tables(slots);
    let mut scratch = LaneScratch::new();
    let mut checked = 0;
    for (k, lane_slot) in slots.iter().enumerate() {
        let sets = lane_sets(lane_slot.domain.len(), rng);
        for other in slots {
            let mut scalars = vec![
                PartialBinding::Open {
                    pos: other.pos,
                    role: other.role,
                },
                PartialBinding::Any,
            ];
            for value in other.domain.iter().step_by(bound_stride) {
                scalars.push(PartialBinding::Bound(Binding {
                    pos: other.pos,
                    role: other.role,
                    value: *value,
                }));
            }
            for scalar in scalars {
                for lane in [Var::X, Var::Y] {
                    for set in &sets {
                        checked += check_pass(
                            prog,
                            s,
                            &tables,
                            k,
                            lane_slot,
                            lane,
                            scalar,
                            set,
                            &mut scratch,
                            &|| format!("`{name}` on `{s}`, slot {k}"),
                        );
                    }
                }
            }
        }
    }
    checked
}

#[test]
fn lanes_match_scalar_on_bundled_grammars() {
    let mut rng = Rng(0x5EED_1A4E);
    let mut cases: Vec<(Grammar, Vec<Sentence>)> = Vec::new();
    let g = paper::grammar();
    let s = paper::example_sentence(&g);
    cases.push((g, vec![s]));
    let g = english::grammar();
    let lex = english::lexicon(&g);
    let sentences = ["the watch runs", "the dog runs in the park"]
        .iter()
        .map(|t| lex.sentence(t).expect("in lexicon"))
        .collect();
    cases.push((g, sentences));
    let g = english_aux::grammar();
    let lex = english_aux::lexicon(&g);
    let sentences = vec![lex.sentence("the dog can run").expect("in lexicon")];
    cases.push((g, sentences));
    let g = formal::anbn_grammar();
    let sentences = vec![
        formal::anbn_sentence(&g, "aabb"),
        formal::anbn_sentence(&g, "aab"),
    ];
    cases.push((g, sentences));
    let g = formal::brackets_grammar();
    let sentences = vec![formal::brackets_sentence(&g, "([])")];
    cases.push((g, sentences));
    let g = formal::ww_grammar();
    let sentences = vec![formal::ww_sentence(&g, "0101")];
    cases.push((g, sentences));
    let g = formal::www_grammar();
    let sentences = vec![formal::ww_sentence(&g, "101")];
    cases.push((g, sentences));

    let mut checked = 0;
    for (g, sentences) in &cases {
        for s in sentences {
            let slots = slots(g, s);
            // Long English sentences get a sparser sample of bound scalars.
            let stride = if s.len() > 4 { 5 } else { 1 };
            for c in g.unary_constraints().iter().chain(g.binary_constraints()) {
                let prog = KernelProgram::compile(&c.expr);
                checked += check_program(&c.name, &prog, s, &slots, stride, &mut rng);
            }
        }
    }
    assert!(checked > 1_000_000, "only {checked} lanes checked");
}

/// A random term (anything a predicate may compare).
fn term(rng: &mut Rng, g: &Grammar, n: u16) -> CExpr {
    let var = if rng.below(2) == 0 { Var::X } else { Var::Y };
    match rng.below(12) {
        0 | 1 => CExpr::Lab(var),
        2 | 3 => CExpr::Mod(var),
        4 => CExpr::Pos(var),
        5 => CExpr::RoleOf(var),
        6 => CExpr::Cat(Box::new(CExpr::Word(Box::new(CExpr::Pos(var))))),
        7 => CExpr::Cat(Box::new(CExpr::Word(Box::new(CExpr::Mod(var))))),
        8 => CExpr::Cat(Box::new(CExpr::Word(Box::new(CExpr::ConstInt(
            rng.below(n as usize + 2) as i64,
        ))))),
        9 => CExpr::ConstNil,
        10 => CExpr::ConstInt(rng.below(n as usize + 3) as i64 - 1),
        _ => match rng.below(4) {
            0 => CExpr::ConstLabel(LabelId(rng.below(g.num_labels()) as u16)),
            1 => CExpr::ConstCat(CatId(rng.below(g.num_cats()) as u16)),
            2 => CExpr::ConstRole(RoleId(rng.below(g.num_roles()) as u16)),
            _ => CExpr::Word(Box::new(CExpr::Mod(var))),
        },
    }
}

/// A random predicate tree of at most `depth` connective levels.
fn predicate(rng: &mut Rng, g: &Grammar, n: u16, depth: usize) -> CExpr {
    let leaf = depth == 0 || rng.below(3) == 0;
    if leaf {
        let (a, b) = (Box::new(term(rng, g, n)), Box::new(term(rng, g, n)));
        return match rng.below(3) {
            0 => CExpr::Eq(a, b),
            1 => CExpr::Gt(a, b),
            _ => CExpr::Lt(a, b),
        };
    }
    let kind = rng.below(4);
    let arity = match kind {
        0 | 1 => 1 + rng.below(3),
        2 => 1,
        _ => 2,
    };
    let mut items: Vec<CExpr> = (0..arity)
        .map(|_| predicate(rng, g, n, depth - 1))
        .collect();
    match kind {
        0 => CExpr::And(items),
        1 => CExpr::Or(items),
        2 => CExpr::Not(Box::new(items.remove(0))),
        _ => {
            let c = items.remove(1);
            CExpr::If(Box::new(items.remove(0)), Box::new(c))
        }
    }
}

#[test]
fn lanes_match_scalar_on_random_constraints() {
    // Ambiguous words exercise the Unknown category paths; the extra
    // lanes (a self-modifiee and an out-of-range one) go beyond what a
    // network generates.
    let g = english::grammar();
    let lex = english::lexicon(&g);
    let mut rng = Rng(0xC0FF_EE00_D15C_0123);
    let mut checked = 0;
    for text in ["the watch runs", "watch the dog"] {
        let s = lex.sentence(text).expect("in lexicon");
        assert!(s.has_lexical_ambiguity());
        let n = s.len() as u16;
        let mut slots = slots(&g, &s);
        for slot in &mut slots {
            let v = slot.domain[0];
            slot.domain
                .push(RoleValue::new(v.cat, v.label, Modifiee::Word(slot.pos)));
            slot.domain
                .push(RoleValue::new(v.cat, v.label, Modifiee::Word(n + 1)));
        }
        for i in 0..150 {
            let expr = predicate(&mut rng, &g, n, 3);
            let prog = KernelProgram::compile(&expr);
            checked += check_program(&format!("random #{i}"), &prog, &s, &slots, 7, &mut rng);
        }
    }
    assert!(checked > 100_000, "only {checked} lanes checked");
}
