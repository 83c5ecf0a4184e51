//! Golden P-RAM and mesh step counts.
//!
//! `bench_compare` checks the digest and floors of every bench row but
//! not the `steps`/`processors` the P-RAM and mesh models report, and the
//! engine-equivalence suites compare networks only. This table pins what
//! the two models count — P-RAM rounds and width, mesh geometry and
//! critical path, and the filtering passes each ran — so a change to how
//! the engines are driven cannot move a step count unseen.
//!
//! Corpus: the `tables fig8` sentences (English n = 4–12, seed 42),
//! a⁶b⁵ (a reject that filtering settles), and one lexically ambiguous
//! extended-English sentence (unary constraints applied pairwise), each
//! under the default options, the MasPar order (`arcs_before_unary`), the
//! tree-walk oracle (`eval=naive`) and a filtering bound of 3.

use cdg_core::api::{ParseRequest, WarmState};
use cdg_core::parser::{FilterMode, ParseOptions};
use cdg_core::EvalStrategy;
use cdg_grammar::grammars::formal;
use cdg_grammar::{Grammar, Sentence};
use cdg_parallel::{MeshCdg, PramStats};

/// Columns of [`GOLDEN`], in order.
const FIELDS: [&str; 8] = [
    "pram.steps",
    "pram.max_width",
    "pram.filter_passes",
    "mesh.cells",
    "mesh.grid_side",
    "mesh.local_steps",
    "mesh.comm_steps",
    "mesh.filter_passes",
];

/// `label/options -> FIELDS`, in corpus order, options innermost.
const GOLDEN: &[(&str, [usize; 8])] = &[
    ("fig8-4/default", [41, 15872, 1, 28, 6, 524, 10, 1]),
    ("fig8-4/arcs-first", [41, 15872, 1, 28, 6, 524, 10, 1]),
    ("fig8-4/naive", [41, 15872, 1, 28, 6, 524, 10, 1]),
    ("fig8-4/bounded-3", [41, 15872, 1, 28, 6, 524, 10, 1]),
    ("fig8-6/default", [42, 84672, 2, 66, 9, 818, 32, 2]),
    ("fig8-6/arcs-first", [42, 84672, 2, 66, 9, 818, 32, 2]),
    ("fig8-6/naive", [43, 84672, 2, 66, 9, 818, 32, 2]),
    ("fig8-6/bounded-3", [42, 84672, 2, 66, 9, 818, 32, 2]),
    ("fig8-8/default", [44, 274432, 2, 120, 11, 1074, 40, 2]),
    ("fig8-8/arcs-first", [44, 274432, 2, 120, 11, 1074, 40, 2]),
    ("fig8-8/naive", [45, 274432, 2, 120, 11, 1074, 40, 2]),
    ("fig8-8/bounded-3", [44, 274432, 2, 120, 11, 1074, 40, 2]),
    ("fig8-10/default", [46, 680000, 4, 190, 14, 1406, 104, 4]),
    ("fig8-10/arcs-first", [46, 680000, 4, 190, 14, 1406, 104, 4]),
    ("fig8-10/naive", [49, 680000, 4, 190, 14, 1406, 104, 4]),
    ("fig8-10/bounded-3", [46, 680000, 3, 190, 14, 1400, 78, 3]),
    ("fig8-12/default", [45, 1423872, 3, 276, 17, 1760, 96, 3]),
    ("fig8-12/arcs-first", [45, 1423872, 3, 276, 17, 1760, 96, 3]),
    ("fig8-12/naive", [47, 1423872, 3, 276, 17, 1760, 96, 3]),
    ("fig8-12/bounded-3", [45, 1423872, 3, 276, 17, 1760, 96, 3]),
    ("a6b5/default", [17, 62557, 5, 231, 16, 322, 150, 5]),
    ("a6b5/arcs-first", [17, 62557, 5, 231, 16, 322, 150, 5]),
    ("a6b5/naive", [21, 62557, 5, 231, 16, 322, 150, 5]),
    ("a6b5/bounded-3", [16, 62557, 3, 231, 16, 318, 90, 3]),
    ("aux-8/default", [70, 478464, 2, 276, 17, 2605, 64, 2]),
    ("aux-8/arcs-first", [70, 478464, 2, 276, 17, 2605, 64, 2]),
    ("aux-8/naive", [71, 478464, 2, 276, 17, 2605, 64, 2]),
    ("aux-8/bounded-3", [70, 478464, 2, 276, 17, 2605, 64, 2]),
];

/// The option sets every input runs under.
fn option_sets() -> [(&'static str, ParseOptions); 4] {
    [
        ("default", ParseOptions::default()),
        (
            "arcs-first",
            ParseOptions {
                arcs_before_unary: true,
                ..Default::default()
            },
        ),
        (
            "naive",
            ParseOptions {
                eval: EvalStrategy::Naive,
                ..Default::default()
            },
        ),
        (
            "bounded-3",
            ParseOptions {
                filter: FilterMode::Bounded(3),
                ..Default::default()
            },
        ),
    ]
}

/// The pinned inputs, grouped by grammar.
fn corpus() -> Vec<(Grammar, Vec<(String, Sentence)>)> {
    let (eng, lex) = corpus::standard_setup();
    let fig8 = [4usize, 6, 8, 10, 12]
        .into_iter()
        .map(|n| {
            (
                format!("fig8-{n}"),
                corpus::english_sentence(&eng, &lex, n, 42),
            )
        })
        .collect();
    let anbn = formal::anbn_grammar();
    let a6b5 = formal::anbn_sentence(&anbn, "aaaaaabbbbb");
    let (aux, aux_lex) = corpus::extended_setup();
    let ambiguous = (8u64..)
        .map(|seed| corpus::english_aux_sentence(&aux, &aux_lex, 8, seed))
        .find(|s| s.has_lexical_ambiguity())
        .expect("the extended lexicon has ambiguous base forms");
    vec![
        (eng, fig8),
        (anbn, vec![("a6b5".to_string(), a6b5)]),
        (aux, vec![("aux-8".to_string(), ambiguous)]),
    ]
}

fn counts(grammar: &Grammar, sentence: &Sentence, options: ParseOptions) -> [usize; 8] {
    let mut pram = PramStats::default();
    let req = ParseRequest::new(grammar).options(options);
    let outcome = WarmState::new().run(&req, sentence, &mut pram);
    let (net, mesh) = MeshCdg::run(grammar, sentence, options);
    [
        pram.steps,
        pram.max_width,
        outcome.filter_passes,
        mesh.cells,
        mesh.grid_side,
        mesh.local_steps,
        mesh.comm_steps,
        // The mesh reports its filtering passes in the `NetStats` ledger.
        net.stats.maintain_passes,
    ]
}

#[test]
fn pram_and_mesh_step_counts_match_the_golden_table() {
    let mut rows = Vec::new();
    for (grammar, cases) in corpus() {
        for (label, sentence) in cases {
            for (name, options) in option_sets() {
                rows.push((
                    format!("{label}/{name}"),
                    sentence.to_string(),
                    counts(&grammar, &sentence, options),
                ));
            }
        }
    }
    let table: String = rows
        .iter()
        .map(|(label, _, got)| format!("    (\"{label}\", {got:?}),\n"))
        .collect();
    assert_eq!(
        rows.len(),
        GOLDEN.len(),
        "table drifted; measured:\n{table}"
    );
    for ((label, sentence, got), &(want_label, want)) in rows.iter().zip(GOLDEN) {
        assert_eq!(label, want_label, "corpus order drifted from the table");
        for ((field, g), w) in FIELDS.iter().zip(got).zip(want) {
            assert_eq!(*g, w, "{label} (`{sentence}`): {field} moved");
        }
    }
}
