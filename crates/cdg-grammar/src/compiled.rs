//! The compiled-grammar artifact: every constraint lowered once, keyed by
//! content hash, shared process-wide.
//!
//! The paper's O(k + log n) bound assumes the grammar's k constraints are
//! loaded onto the array *once*; re-lowering every [`CExpr`](crate::CExpr) to bytecode
//! inside every parse is a per-request compile tax the MP-1 never paid.
//! [`CompiledGrammar`] is the load-once artifact: for every unary and
//! binary constraint it holds the compiled [`KernelProgram`], the feature
//! analysis, and precomputed per-label/per-category signature-key tables,
//! so a warm server resolves the whole bundle by hash and never touches
//! the compiler again.
//!
//! **Identity is content, not provenance.** [`content_hash`] folds the
//! full 5-tuple — name, Σ/L/R symbol lists, table T, and every
//! constraint's name, arity, and DSL source — into one FNV-1a key. Two
//! loads of byte-identical grammars (different paths, different
//! processes' worth of loads) hash equal and share one
//! `Arc<CompiledGrammar>` through the [`resolve`] registry; any
//! single-byte mutation to the grammar produces a different hash and a
//! fresh artifact. Eviction only drops the registry's reference: in-flight
//! parses keep their `Arc` and are never invalidated.
//!
//! The modifiee component of a signature key is position-dependent
//! (sentence-sized), so it cannot be precomputed per grammar; the tables
//! cover the label and category components and the engines OR in the
//! modifiee part with one shift (see [`CompiledConstraint::key`]).

use crate::constraint::{Arity, Constraint};
use crate::grammar::Grammar;
use crate::ids::{Modifiee, RoleValue};
use crate::kernel::{FeatureSet, KernelProgram, PairFeatures};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Registry capacity: artifacts beyond this evict least-recently-resolved.
/// A process serves a handful of grammars; 32 is "never in practice".
const REGISTRY_CAP: usize = 32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Length-prefixed string: `("ab","c")` must not collide with `("a","bc")`.
    fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// The content hash a [`CompiledGrammar`] is keyed by: FNV-1a over the
/// grammar 5-tuple — name, categories, labels, roles, table T, and every
/// constraint's name/arity/source. Any observable grammar difference
/// (including a single byte of constraint source) changes the hash.
pub fn content_hash(grammar: &Grammar) -> u64 {
    let mut h = Fnv::new();
    h.write_str(grammar.name());
    for section in [
        grammar.cat_names(),
        grammar.label_names(),
        grammar.role_names(),
    ] {
        h.write_u64(section.len() as u64);
        for name in section {
            h.write_str(name);
        }
    }
    for role in 0..grammar.num_roles() {
        let labels = grammar.allowed_labels(crate::ids::RoleId(role as u16));
        h.write_u64(labels.len() as u64);
        for l in labels {
            h.write_u64(l.0 as u64);
        }
    }
    for (tag, slice) in [
        (1u64, grammar.unary_constraints()),
        (2, grammar.binary_constraints()),
    ] {
        h.write_u64(tag);
        h.write_u64(slice.len() as u64);
        for c in slice {
            h.write_str(&c.name);
            h.write_u64(match c.arity {
                Arity::Unary => 1,
                Arity::Binary => 2,
            });
            h.write_str(&c.source);
        }
    }
    h.0
}

/// One constraint, fully lowered: bytecode, feature reads, and the
/// signature-key tables for the components that are grammar-constant.
#[derive(Debug, Clone)]
pub struct CompiledConstraint {
    /// The constraint's name, kept so positional lookups can verify they
    /// landed on the right entry.
    pub name: String,
    pub program: KernelProgram,
    /// `program.features()`, denormalized for callers that never touch
    /// the bytecode.
    pub features: PairFeatures,
    /// `label_keys[l]` = the label component of
    /// `signature_key(features.combined(), rv)` for `rv.label == l`
    /// (zero when the constraint never reads labels).
    pub label_keys: Vec<u64>,
    /// `cat_keys[c]` = the category component, same convention.
    pub cat_keys: Vec<u64>,
}

impl CompiledConstraint {
    fn build(grammar: &Grammar, c: &Constraint) -> CompiledConstraint {
        let program = KernelProgram::compile(&c.expr);
        let features = program.features();
        let combined = features.combined();
        let label_keys = (0..grammar.num_labels())
            .map(|l| {
                if combined.contains(FeatureSet::LABEL) {
                    l as u64 + 1
                } else {
                    0
                }
            })
            .collect();
        let cat_keys = (0..grammar.num_cats())
            .map(|cat| {
                if combined.contains(FeatureSet::CAT) {
                    (cat as u64 + 1) << 17
                } else {
                    0
                }
            })
            .collect();
        CompiledConstraint {
            name: c.name.clone(),
            program,
            features,
            label_keys,
            cat_keys,
        }
    }

    /// `signature_key(self.features.combined(), rv)` via the precomputed
    /// tables: two table loads, one shift, three ORs.
    pub fn key(&self, rv: RoleValue) -> u64 {
        let m = if self.features.combined().contains(FeatureSet::MODIFIEE) {
            (match rv.modifiee {
                Modifiee::Nil => 1u64,
                Modifiee::Word(p) => p as u64 + 2,
            }) << 34
        } else {
            0
        };
        self.label_keys[rv.label.0 as usize] | self.cat_keys[rv.cat.0 as usize] | m
    }
}

/// Every constraint of one grammar, compiled exactly once and shared as
/// `Arc<CompiledGrammar>` across engines, workers, and fleet shards.
#[derive(Debug, Clone)]
pub struct CompiledGrammar {
    hash: u64,
    /// Parallel to `grammar.unary_constraints()`, same order.
    unary: Vec<CompiledConstraint>,
    /// Parallel to `grammar.binary_constraints()`, same order.
    binary: Vec<CompiledConstraint>,
    /// Wall nanoseconds the one-time build took (the amortized tax).
    build_ns: u64,
}

impl CompiledGrammar {
    /// Compile every constraint of `grammar`. Unregistered — most callers
    /// want [`resolve`], which shares builds process-wide.
    pub fn build(grammar: &Grammar) -> CompiledGrammar {
        let start = Instant::now();
        let hash = content_hash(grammar);
        let unary = grammar
            .unary_constraints()
            .iter()
            .map(|c| CompiledConstraint::build(grammar, c))
            .collect();
        let binary = grammar
            .binary_constraints()
            .iter()
            .map(|c| CompiledConstraint::build(grammar, c))
            .collect();
        CompiledGrammar {
            hash,
            unary,
            binary,
            build_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// The content hash this artifact was built from.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Nanoseconds the one-time build took.
    pub fn build_ns(&self) -> u64 {
        self.build_ns
    }

    pub fn unary(&self) -> &[CompiledConstraint] {
        &self.unary
    }

    pub fn binary(&self) -> &[CompiledConstraint] {
        &self.binary
    }

    /// The compiled entry for `c`, or `None` if `c` is not one of the
    /// grammar's own constraints (e.g. a
    /// [`Grammar::compile_extra_constraint`] product — callers fall back
    /// to an inline compile).
    ///
    /// Lookup is positional: `c` is located by pointer offset within the
    /// grammar's own constraint slice (the engines iterate those slices
    /// directly), then verified by name. A constraint from anywhere else
    /// misses both checks and returns `None` — never a wrong program.
    pub fn lookup(&self, grammar: &Grammar, c: &Constraint) -> Option<&CompiledConstraint> {
        let (slice, compiled) = match c.arity {
            Arity::Unary => (grammar.unary_constraints(), &self.unary),
            Arity::Binary => (grammar.binary_constraints(), &self.binary),
        };
        let base = slice.as_ptr() as usize;
        let off = (c as *const Constraint as usize).wrapping_sub(base);
        let size = std::mem::size_of::<Constraint>();
        if off % size != 0 {
            return None;
        }
        let idx = off / size;
        if idx >= slice.len() {
            return None;
        }
        let entry = compiled.get(idx)?;
        (entry.name == c.name).then_some(entry)
    }

    /// [`CompiledGrammar::lookup`], projected to the program.
    pub fn program_for(&self, grammar: &Grammar, c: &Constraint) -> Option<&KernelProgram> {
        self.lookup(grammar, c).map(|e| &e.program)
    }
}

/// What [`resolve`] returns: the shared artifact plus enough provenance
/// for the caller to account the resolve (cdg-grammar has no metrics
/// dependency; callers own the `compile.cache.*` counters).
#[derive(Debug, Clone)]
pub struct Resolved {
    pub artifact: Arc<CompiledGrammar>,
    /// `true`: the registry already held this content hash.
    pub cache_hit: bool,
    /// Build nanoseconds for a miss, 0 for a hit.
    pub build_ns: u64,
}

/// The process-wide registry: content hash → artifact, most recently
/// resolved at the back. Plain `Vec` — linear scan over ≤ 32 entries is
/// cheaper than a map, and order doubles as LRU.
static REGISTRY: Mutex<Vec<(u64, Arc<CompiledGrammar>)>> = Mutex::new(Vec::new());

/// Resolve the shared artifact for `grammar`, building it exactly once
/// per content hash per process. All serve workers and fleet shards
/// resolving the same grammar get pointer-equal `Arc`s.
pub fn resolve(grammar: &Grammar) -> Resolved {
    let hash = content_hash(grammar);
    let mut reg = REGISTRY.lock().unwrap();
    if let Some(i) = reg.iter().position(|(h, _)| *h == hash) {
        let entry = reg.remove(i);
        let artifact = Arc::clone(&entry.1);
        reg.push(entry);
        return Resolved {
            artifact,
            cache_hit: true,
            build_ns: 0,
        };
    }
    // Build outside nothing: holding the lock across the build is the
    // point — two racing workers must not both pay the compile.
    let artifact = Arc::new(CompiledGrammar::build(grammar));
    let build_ns = artifact.build_ns();
    reg.push((hash, Arc::clone(&artifact)));
    if reg.len() > REGISTRY_CAP {
        reg.remove(0);
    }
    Resolved {
        artifact,
        cache_hit: false,
        build_ns,
    }
}

/// Drop every registry reference. Outstanding `Arc`s stay fully usable —
/// eviction never invalidates an in-flight parse; the next [`resolve`]
/// simply rebuilds.
pub fn evict_all() {
    REGISTRY.lock().unwrap().clear();
}

/// Number of artifacts currently registered (tests and diagnostics).
pub fn registry_len() -> usize {
    REGISTRY.lock().unwrap().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammars::{english, paper};
    use crate::ids::{CatId, LabelId};
    use crate::kernel::signature_key;

    /// Registry state is process-global; tests that assert on hit/miss
    /// sequences serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn artifact_matches_fresh_compiles() {
        for g in [paper::grammar(), english::grammar()] {
            let cg = CompiledGrammar::build(&g);
            assert_eq!(cg.unary().len(), g.unary_constraints().len());
            assert_eq!(cg.binary().len(), g.binary_constraints().len());
            for (c, cc) in g.unary_constraints().iter().zip(cg.unary()) {
                assert_eq!(cc.program, KernelProgram::compile(&c.expr), "{}", c.name);
                assert_eq!(cc.features, cc.program.features());
            }
            for (c, cc) in g.binary_constraints().iter().zip(cg.binary()) {
                assert_eq!(cc.program, KernelProgram::compile(&c.expr), "{}", c.name);
            }
        }
    }

    #[test]
    fn key_tables_match_signature_key() {
        let g = english::grammar();
        let cg = CompiledGrammar::build(&g);
        for cc in cg.unary().iter().chain(cg.binary()) {
            let f = cc.features.combined();
            for cat in 0..g.num_cats() as u16 {
                for label in 0..g.num_labels() as u16 {
                    for m in [Modifiee::Nil, Modifiee::Word(1), Modifiee::Word(63)] {
                        let rv = RoleValue::new(CatId(cat), LabelId(label), m);
                        assert_eq!(cc.key(rv), signature_key(f, rv), "{}", cc.name);
                    }
                }
            }
        }
    }

    #[test]
    fn lookup_finds_every_grammar_constraint() {
        let g = paper::grammar();
        let cg = CompiledGrammar::build(&g);
        for c in g.unary_constraints().iter().chain(g.binary_constraints()) {
            let prog = cg.program_for(&g, c).expect(&c.name);
            assert_eq!(*prog, KernelProgram::compile(&c.expr));
        }
        // An extra constraint lives outside the grammar's slices: the
        // lookup must miss (the engines then compile inline).
        let extra = g
            .compile_extra_constraint("extra", "(if (eq (lab x) SUBJ) (lt (pos x) 3))")
            .unwrap();
        assert!(cg.program_for(&g, &extra).is_none());
        // So must the same constraint data at a different address.
        let clone = g.unary_constraints()[0].clone();
        assert!(cg.program_for(&g, &clone).is_none());
    }

    #[test]
    fn content_hash_is_content_not_provenance() {
        let a = paper::grammar();
        let b = paper::grammar();
        assert_eq!(content_hash(&a), content_hash(&b));
        assert_ne!(content_hash(&a), content_hash(&english::grammar()));
        // Dropping one constraint — the smallest observable mutation the
        // public surface allows — changes the hash.
        let keep_all_but_first = a.retain_constraints(|name| name != a.unary_constraints()[0].name);
        assert_ne!(content_hash(&a), content_hash(&keep_all_but_first));
    }

    #[test]
    fn single_byte_constraint_mutation_changes_hash() {
        let build = |src: &str| {
            let mut b = crate::grammar::GrammarBuilder::new("mut");
            b.categories(&["det", "noun", "verb"])
                .labels(&["SUBJ", "ROOT", "DET"])
                .roles(&["governor"])
                .allow("governor", &["SUBJ", "ROOT", "DET"])
                .constraint("only", src);
            b.build().unwrap()
        };
        let g1 = build("(if (eq (lab x) DET) (lt (pos x) 5))");
        let g2 = build("(if (eq (lab x) DET) (lt (pos x) 6))");
        assert_ne!(content_hash(&g1), content_hash(&g2));
    }

    #[test]
    fn resolve_shares_one_arc_per_content_hash() {
        let _serial = TEST_LOCK.lock().unwrap();
        evict_all();
        let g1 = paper::grammar();
        let g2 = paper::grammar();
        let first = resolve(&g1);
        assert!(!first.cache_hit);
        let second = resolve(&g2);
        assert!(second.cache_hit);
        assert_eq!(second.build_ns, 0);
        assert!(Arc::ptr_eq(&first.artifact, &second.artifact));
        assert_eq!(registry_len(), 1);
    }

    #[test]
    fn eviction_never_invalidates_outstanding_arcs() {
        let _serial = TEST_LOCK.lock().unwrap();
        evict_all();
        let g = english::grammar();
        let held = resolve(&g).artifact;
        evict_all();
        assert_eq!(registry_len(), 0);
        // The held artifact still answers lookups after eviction...
        let c = &g.binary_constraints()[0];
        assert!(held.program_for(&g, c).is_some());
        // ...and the next resolve is a fresh miss with a distinct Arc.
        let fresh = resolve(&g);
        assert!(!fresh.cache_hit);
        assert!(!Arc::ptr_eq(&held, &fresh.artifact));
    }

    #[test]
    fn registry_caps_and_evicts_oldest() {
        let _serial = TEST_LOCK.lock().unwrap();
        evict_all();
        let grammar_numbered = |i: usize| {
            let mut b = crate::grammar::GrammarBuilder::new(&format!("cap-{i}"));
            b.categories(&["a"])
                .labels(&["L"])
                .roles(&["r"])
                .allow("r", &["L"]);
            b.build().unwrap()
        };
        let first = grammar_numbered(0);
        resolve(&first);
        for i in 1..=REGISTRY_CAP {
            resolve(&grammar_numbered(i));
        }
        assert_eq!(registry_len(), REGISTRY_CAP);
        // Grammar 0 was the oldest: it fell out, so resolving it again misses.
        assert!(!resolve(&first).cache_hit);
        evict_all();
    }
}
