//! Precedence-graph extraction.
//!
//! "The precedence graphs are extracted by selecting a single role value for
//! each role, all of which must be consistent given the arc matrices." A
//! backtracking search enumerates these selections; the modifiee pointers of
//! the chosen role values are the edges of the parse (Figure 7).

use crate::network::{Network, SlotId};
use cdg_grammar::{Grammar, Modifiee, RoleId, RoleValue, Sentence};
use std::fmt;

/// One complete, mutually consistent assignment of a role value to every
/// role — a parse of the sentence.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PrecedenceGraph {
    /// Chosen role value per slot, in slot order (word-major).
    pub assignment: Vec<RoleValue>,
}

/// One edge of a precedence graph: `word` (1-based) points at `modifiee`
/// with `label`, through `role`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub word: u16,
    pub role: RoleId,
    pub label: cdg_grammar::LabelId,
    pub modifiee: Modifiee,
}

impl PrecedenceGraph {
    /// The chosen role value for (0-based word, role).
    pub fn value(&self, grammar: &Grammar, word: u16, role: RoleId) -> RoleValue {
        self.assignment[word as usize * grammar.num_roles() + role.0 as usize]
    }

    /// All edges of the graph (one per role of each word).
    pub fn edges(&self, grammar: &Grammar) -> Vec<Edge> {
        let q = grammar.num_roles();
        self.assignment
            .iter()
            .enumerate()
            .map(|(slot, rv)| Edge {
                word: (slot / q) as u16 + 1,
                role: RoleId((slot % q) as u16),
                label: rv.label,
                modifiee: rv.modifiee,
            })
            .collect()
    }

    /// Re-check the assignment directly against every constraint of the
    /// grammar — independent of the arc matrices, used to validate
    /// extraction and the engines (property: every extracted graph
    /// satisfies every constraint).
    ///
    /// The sentence is first *resolved*: each word's category set is
    /// narrowed to the hypothesis this assignment chose, so every
    /// evaluation is definite (no three-valued `Unknown`s).
    pub fn satisfies_all_constraints(&self, grammar: &Grammar, sentence: &Sentence) -> bool {
        let sentence = &self.resolved_sentence(grammar, sentence);
        let q = grammar.num_roles();
        let bind = |slot: usize| cdg_grammar::expr::Binding {
            pos: (slot / q) as u16 + 1,
            role: RoleId((slot % q) as u16),
            value: self.assignment[slot],
        };
        let nslots = self.assignment.len();
        for c in grammar.unary_constraints() {
            for slot in 0..nslots {
                if !c.check_unary(sentence, bind(slot)) {
                    return false;
                }
            }
        }
        for c in grammar.binary_constraints() {
            for i in 0..nslots {
                for j in (i + 1)..nslots {
                    if !c.check_pair(sentence, bind(i), bind(j)) {
                        return false;
                    }
                }
            }
        }
        // Structural rule: roles of one word agree on the category
        // hypothesis.
        for i in 0..nslots {
            for j in (i + 1)..nslots {
                if i / q == j / q && self.assignment[i].cat != self.assignment[j].cat {
                    return false;
                }
            }
        }
        true
    }

    /// The sentence with each word's category set narrowed to the single
    /// hypothesis this assignment chose (all roles of a word agree by
    /// construction).
    pub fn resolved_sentence(&self, grammar: &Grammar, sentence: &Sentence) -> Sentence {
        let q = grammar.num_roles();
        let words = sentence
            .words()
            .iter()
            .enumerate()
            .map(|(w, word)| cdg_grammar::SentenceWord {
                text: word.text.clone(),
                cats: vec![self.assignment[w * q].cat],
            })
            .collect();
        Sentence::new(words)
    }

    /// Render in the style of the paper's Figure 7.
    pub fn render(&self, grammar: &Grammar, sentence: &Sentence) -> String {
        let q = grammar.num_roles();
        let mut out = String::new();
        for (w, word) in sentence.words().iter().enumerate() {
            let mut parts = vec![
                format!("Word = {}", word.text),
                format!("Position = {}", w + 1),
            ];
            for r in 0..q {
                let rv = self.assignment[w * q + r];
                let role_name: String = grammar
                    .role_name(RoleId(r as u16))
                    .chars()
                    .next()
                    .map(|c| c.to_uppercase().to_string())
                    .unwrap_or_default();
                parts.push(format!(
                    "{} = {}-{}",
                    role_name,
                    grammar.label_name(rv.label),
                    rv.modifiee
                ));
            }
            out.push_str(&parts.join("  "));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for PrecedenceGraph {
    // Grammar-aware rendering is `render`; this is the bare summary.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PrecedenceGraph({} slots)", self.assignment.len())
    }
}

/// Enumerate up to `limit` precedence graphs of the network by backtracking
/// over slots in order, pruning with the arc matrices.
///
/// Slots are tried most-constrained-first (smallest alive set), the classic
/// CSP variable ordering, which keeps the search shallow on filtered
/// networks. The search yields each assignment once; the returned graphs
/// are sorted for determinism.
pub fn precedence_graphs(net: &Network<'_>, limit: usize) -> Vec<PrecedenceGraph> {
    let _phase = obsv::span("extraction");
    let mut graphs = Vec::new();
    search(net, limit, |chosen| {
        let mut assignment = vec![None; chosen.len()];
        for &(slot, idx) in chosen {
            assignment[slot] = Some(net.slot(slot).domain[idx]);
        }
        graphs.push(PrecedenceGraph {
            assignment: assignment.into_iter().map(Option::unwrap).collect(),
        });
    });
    graphs.sort();
    graphs
}

/// Does at least one parse exist? (Constructive acceptance — stronger than
/// [`Network::all_roles_nonempty`], which filtering makes necessary but not
/// always sufficient.)
pub fn has_parse(net: &Network<'_>) -> bool {
    !precedence_graphs(net, 1).is_empty()
}

/// Count parses without materializing them, up to `cap` (the paper's
/// ambiguity check — "some of the roles in an ambiguous sentence will
/// contain more than one role value" — is necessary but not sufficient
/// for multiple *parses*; this is the exact count). Returns
/// `min(actual, cap)`.
pub fn count_parses(net: &Network<'_>, cap: usize) -> usize {
    search(net, cap, |_| {})
}

/// The one backtracking search: hands each complete, mutually consistent
/// choice of `(slot, alive index)` to `found`, most-constrained slot
/// first, and stops after `limit` of them. Returns how many it found.
fn search(net: &Network<'_>, limit: usize, mut found: impl FnMut(&[(SlotId, usize)])) -> usize {
    assert!(net.arcs_ready(), "extraction needs arc matrices");
    if limit == 0 || !net.all_roles_nonempty() {
        return 0;
    }
    let nslots = net.num_slots();
    let mut order: Vec<SlotId> = (0..nslots).collect();
    order.sort_by_key(|&s| net.slot(s).alive_count());
    let mut chosen = Vec::with_capacity(nslots);
    let mut count = 0;
    descend(net, &order, &mut chosen, &mut count, limit, &mut found);
    count
}

fn descend(
    net: &Network<'_>,
    order: &[SlotId],
    chosen: &mut Vec<(SlotId, usize)>,
    count: &mut usize,
    limit: usize,
    found: &mut impl FnMut(&[(SlotId, usize)]),
) {
    let depth = chosen.len();
    if depth == order.len() {
        *count += 1;
        found(chosen);
        return;
    }
    let slot = order[depth];
    for idx in net.slot(slot).alive.iter_ones() {
        let consistent = chosen
            .iter()
            .all(|&(other, oidx)| net.arc_entry(slot, idx, other, oidx));
        if consistent {
            chosen.push((slot, idx));
            descend(net, order, chosen, count, limit, found);
            chosen.pop();
            if *count >= limit {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::filter;
    use crate::propagate::{apply_all_binary, apply_all_unary};

    fn parsed_example() -> (Grammar, Sentence) {
        let g = cdg_grammar::grammars::paper::grammar();
        let s = cdg_grammar::grammars::paper::example_sentence(&g);
        (g, s)
    }

    fn full_pipeline<'g>(g: &'g Grammar, s: &Sentence) -> Network<'g> {
        let mut net = Network::build(g, s);
        apply_all_unary(&mut net);
        net.init_arcs();
        apply_all_binary(&mut net);
        filter(&mut net, usize::MAX);
        net
    }

    use cdg_grammar::{Grammar, Sentence};

    #[test]
    fn figure7_unique_precedence_graph() {
        let (g, s) = parsed_example();
        let net = full_pipeline(&g, &s);
        let graphs = precedence_graphs(&net, 10);
        assert_eq!(graphs.len(), 1);
        let graph = &graphs[0];
        let governor = g.role_id("governor").unwrap();
        let needs = g.role_id("needs").unwrap();
        let rv = |w: u16, r| graph.value(&g, w, r);
        // Figure 7: The: G=DET-2, N=BLANK-nil; program: G=SUBJ-3, N=NP-1;
        // runs: G=ROOT-nil, N=S-2.
        assert_eq!(g.label_name(rv(0, governor).label), "DET");
        assert_eq!(rv(0, governor).modifiee, Modifiee::Word(2));
        assert_eq!(g.label_name(rv(0, needs).label), "BLANK");
        assert_eq!(rv(0, needs).modifiee, Modifiee::Nil);
        assert_eq!(g.label_name(rv(1, governor).label), "SUBJ");
        assert_eq!(rv(1, governor).modifiee, Modifiee::Word(3));
        assert_eq!(g.label_name(rv(1, needs).label), "NP");
        assert_eq!(rv(1, needs).modifiee, Modifiee::Word(1));
        assert_eq!(g.label_name(rv(2, governor).label), "ROOT");
        assert_eq!(rv(2, governor).modifiee, Modifiee::Nil);
        assert_eq!(g.label_name(rv(2, needs).label), "S");
        assert_eq!(rv(2, needs).modifiee, Modifiee::Word(2));
        assert!(graph.satisfies_all_constraints(&g, &s));
        assert!(has_parse(&net));
    }

    #[test]
    fn figure7_rendering() {
        let (g, s) = parsed_example();
        let net = full_pipeline(&g, &s);
        let graph = &precedence_graphs(&net, 1)[0];
        let text = graph.render(&g, &s);
        assert!(text.contains("Word = program"));
        assert!(text.contains("G = SUBJ-3"));
        assert!(text.contains("N = NP-1"));
        assert!(text.contains("G = ROOT-nil"));
    }

    #[test]
    fn edges_enumerate_all_roles() {
        let (g, s) = parsed_example();
        let net = full_pipeline(&g, &s);
        let graph = &precedence_graphs(&net, 1)[0];
        let edges = graph.edges(&g);
        assert_eq!(edges.len(), 6);
        assert_eq!(edges[0].word, 1);
        assert_eq!(edges[5].word, 3);
    }

    #[test]
    fn rejected_sentence_has_no_graphs() {
        let g = cdg_grammar::grammars::paper::grammar();
        let lex = cdg_grammar::grammars::paper::lexicon(&g);
        let s = lex.sentence("program the runs").unwrap();
        let net = full_pipeline(&g, &s);
        assert!(precedence_graphs(&net, 10).is_empty());
        assert!(!has_parse(&net));
    }

    #[test]
    fn limit_zero_returns_nothing() {
        let (g, s) = parsed_example();
        let net = full_pipeline(&g, &s);
        assert!(precedence_graphs(&net, 0).is_empty());
    }

    #[test]
    fn limit_caps_enumeration() {
        // Without constraint propagation the fresh network admits many
        // assignments; the limit must cap the search.
        let (g, s) = parsed_example();
        let mut net = Network::build(&g, &s);
        net.init_arcs();
        let graphs = precedence_graphs(&net, 5);
        assert_eq!(graphs.len(), 5);
    }

    #[test]
    fn unfiltered_and_filtered_networks_extract_same_graphs() {
        // Filtering only removes values that belong to no complete
        // assignment, so the graph set is unchanged.
        let (g, s) = parsed_example();
        let mut unfiltered = Network::build(&g, &s);
        apply_all_unary(&mut unfiltered);
        unfiltered.init_arcs();
        apply_all_binary(&mut unfiltered);
        let filtered = full_pipeline(&g, &s);
        let a = precedence_graphs(&unfiltered, 100);
        let b = precedence_graphs(&filtered, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn count_matches_enumeration() {
        let g = cdg_grammar::grammars::english::grammar();
        let lex = cdg_grammar::grammars::english::lexicon(&g);
        for text in [
            "the dog runs",
            "the dog runs in the park",
            "the man watches the dog with the telescope",
            "dog the runs",
        ] {
            let s = lex.sentence(text).unwrap();
            let net = full_pipeline(&g, &s);
            let graphs = precedence_graphs(&net, 1000);
            // Sorted, so a graph the search yielded twice would sit next
            // to its copy.
            assert!(
                graphs.windows(2).all(|w| w[0] != w[1]),
                "`{text}`: pairwise distinct"
            );
            assert_eq!(count_parses(&net, 1000), graphs.len(), "`{text}`");
        }
    }

    #[test]
    fn count_respects_cap() {
        let (g, s) = parsed_example();
        let mut net = Network::build(&g, &s);
        net.init_arcs();
        assert_eq!(count_parses(&net, 7), 7);
        assert_eq!(count_parses(&net, 0), 0);
    }

    #[test]
    fn extracted_graphs_always_satisfy_constraints() {
        let g = cdg_grammar::grammars::english::grammar();
        let lex = cdg_grammar::grammars::english::lexicon(&g);
        let s = lex.sentence("the dog runs in the park").unwrap();
        let net = full_pipeline(&g, &s);
        let graphs = precedence_graphs(&net, 100);
        // PP attachment: exactly two parses (attach to verb or to noun).
        assert_eq!(graphs.len(), 2);
        for graph in &graphs {
            assert!(graph.satisfies_all_constraints(&g, &s));
        }
    }
}
