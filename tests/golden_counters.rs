//! Golden abstract-work counters for the default serial parse.
//!
//! The kernel engine and the filter strategies are free to change *how*
//! they reach a settled network — row masks, class-decided rows, tile
//! kernels — but not the abstract operations the paper's complexity
//! analysis counts. This suite pins those `NetStats` fields, recorded
//! before the binary kernel learned column-class row masks and before
//! the default filter resolved to BMM, over a fixed corpus: English
//! n = 3–16 plus a scrambled twin each, aⁿbⁿ n = 6–48 plus a one-short
//! reject each, and balanced brackets n = 6–48 (nested, and nested with
//! alternating kinds). Rows appended later cover ww n = 6–24 and www
//! n = 6–18 with a one-short reject each, and lexically ambiguous
//! sentences of the extended English grammar n = 4–12 with a scrambled
//! twin each (see [`extended_corpus`]).
//!
//! Only the bookkeeping counters may move: `kernel_masks`,
//! `kernel_memo_hits` and the observational `bmm_*` pair.

use cdg_core::parser::{parse, ParseOptions};
use cdg_core::NetStats;
use cdg_grammar::grammars::formal;
use cdg_grammar::{Grammar, Sentence};

/// Formal string lengths (symbols, not pairs).
const FORMAL_LENGTHS: [usize; 8] = [6, 12, 18, 24, 30, 36, 42, 48];

/// Columns of [`GOLDEN`], in order.
const FIELDS: [&str; 8] = [
    "unary_checks",
    "binary_checks",
    "entries_zeroed",
    "support_checks",
    "support_inits",
    "removals",
    "maintain_passes",
    "total_ops",
];

/// `label -> FIELDS` for every corpus sentence, in corpus order.
const GOLDEN: &[(&str, [usize; 8])] = &[
    ("english-3", [721, 172, 0, 0, 540, 102, 1, 5753]),
    ("scrambled-3", [716, 134, 10, 10, 540, 108, 2, 5730]),
    ("english-4", [1128, 228, 0, 0, 1344, 184, 1, 17420]),
    ("scrambled-4", [1128, 228, 0, 0, 1344, 184, 1, 17420]),
    ("english-5", [1722, 414, 19, 14, 2700, 290, 2, 42469]),
    ("scrambled-5", [1695, 287, 35, 32, 2700, 300, 2, 42349]),
    ("english-6", [3020, 562, 39, 33, 4752, 419, 2, 88758]),
    ("scrambled-6", [3030, 589, 115, 104, 4752, 432, 2, 88942]),
    ("english-7", [3685, 588, 29, 24, 7644, 573, 2, 164066]),
    ("scrambled-7", [3676, 572, 116, 105, 7644, 588, 2, 164209]),
    ("english-8", [4854, 1034, 138, 116, 11520, 750, 3, 281342]),
    ("scrambled-8", [4849, 960, 263, 238, 11520, 768, 2, 281510]),
    ("english-9", [6905, 1314, 242, 213, 16524, 951, 4, 452878]),
    ("scrambled-9", [6981, 1746, 636, 564, 16524, 972, 2, 454131]),
    ("english-10", [9084, 1450, 262, 233, 22800, 1177, 4, 692229]),
    (
        "scrambled-10",
        [8957, 650, 198, 189, 22800, 1200, 2, 691194],
    ),
    (
        "english-11",
        [9135, 1412, 201, 179, 30492, 1425, 3, 1013291],
    ),
    (
        "scrambled-11",
        [9098, 1310, 450, 421, 30492, 1452, 2, 1013643],
    ),
    (
        "english-12",
        [10952, 2286, 607, 546, 39744, 1696, 3, 1439991],
    ),
    (
        "scrambled-12",
        [10993, 2581, 1224, 1116, 39744, 1728, 2, 1441514],
    ),
    (
        "english-13",
        [13956, 2771, 911, 832, 50700, 1993, 6, 1989010],
    ),
    (
        "scrambled-13",
        [13738, 1188, 533, 509, 50700, 2028, 2, 1986508],
    ),
    (
        "english-14",
        [15876, 3764, 1425, 1293, 63504, 2315, 4, 2680902],
    ),
    (
        "scrambled-14",
        [15840, 3181, 1699, 1564, 63504, 2352, 2, 2680828],
    ),
    (
        "english-15",
        [19433, 4500, 2000, 1834, 78300, 2660, 8, 3540467],
    ),
    (
        "scrambled-15",
        [19299, 2913, 1809, 1736, 78300, 2700, 2, 3538457],
    ),
    (
        "english-16",
        [19485, 4248, 1744, 1612, 95232, 3024, 4, 4584913],
    ),
    (
        "scrambled-16",
        [19637, 5906, 3969, 3723, 95232, 3072, 2, 4591059],
    ),
    ("anbn-6", [237, 798, 192, 138, 1188, 96, 3, 6765]),
    ("anbn-6-short", [171, 471, 127, 103, 675, 75, 6, 3447]),
    ("anbn-12", [924, 5988, 3030, 2355, 9936, 408, 5, 101721]),
    (
        "anbn-12-short",
        [789, 4605, 2350, 1870, 7623, 363, 9, 72534],
    ),
    (
        "anbn-18",
        [2061, 20673, 14832, 11916, 34020, 936, 7, 508266],
    ),
    (
        "anbn-18-short",
        [1857, 17334, 12340, 10000, 28611, 867, 12, 405960],
    ),
    (
        "anbn-24",
        [3648, 50928, 45804, 37488, 81216, 1680, 9, 1598028],
    ),
    (
        "anbn-24-short",
        [3375, 44571, 39655, 32593, 71415, 1587, 15, 1350648],
    ),
    (
        "anbn-30",
        [5685, 103800, 110040, 91140, 159300, 2640, 11, 3890865],
    ),
    (
        "anbn-30-short",
        [5343, 93201, 97741, 81151, 143811, 2523, 18, 3401751],
    ),
    (
        "anbn-36",
        [8172, 187308, 225522, 188343, 276048, 3816, 13, 8054865],
    ),
    (
        "anbn-36-short",
        [7761, 171081, 203932, 170578, 253575, 3675, 21, 7202652],
    ),
    (
        "anbn-42",
        [11109, 310443, 414120, 347970, 439236, 5208, 15, 14906346],
    ),
    (
        "anbn-42-short",
        [10629, 287040, 379450, 319180, 408483, 5043, 24, 13544964],
    ),
    (
        "anbn-48",
        [14496, 483168, 701592, 592296, 656640, 6816, 17, 25409856],
    ),
    (
        "anbn-48-short",
        [13947, 450879, 649405, 548665, 616311, 6627, 27, 23368530],
    ),
    ("brackets-6", [348, 747, 192, 138, 1188, 96, 3, 6825]),
    ("brackets-6-mixed", [338, 410, 50, 37, 1188, 96, 3, 6235]),
    (
        "brackets-12",
        [1335, 5832, 3030, 2355, 9936, 408, 5, 101976],
    ),
    (
        "brackets-12-mixed",
        [1293, 2709, 816, 672, 9936, 408, 3, 94914],
    ),
    (
        "brackets-18",
        [2961, 20358, 14832, 11916, 34020, 936, 7, 508851],
    ),
    (
        "brackets-18-mixed",
        [2873, 9268, 4172, 3466, 34020, 936, 5, 478563],
    ),
    (
        "brackets-24",
        [5226, 50400, 45804, 37488, 81216, 1680, 9, 1599078],
    ),
    (
        "brackets-24-mixed",
        [5070, 22032, 12540, 10560, 81216, 1680, 5, 1510362],
    ),
    (
        "brackets-30",
        [8130, 103005, 110040, 91140, 159300, 2640, 11, 3892515],
    ),
    (
        "brackets-30-mixed",
        [7892, 44233, 30128, 25480, 159300, 2640, 7, 3687933],
    ),
    (
        "brackets-36",
        [11673, 186192, 225522, 188343, 276048, 3816, 13, 8057250],
    ),
    (
        "brackets-36-mixed",
        [11331, 77895, 60768, 51696, 276048, 3816, 7, 7647210],
    ),
    (
        "brackets-42",
        [15855, 308952, 414120, 347970, 439236, 5208, 15, 14909601],
    ),
    (
        "brackets-42-mixed",
        [15395, 127177, 111290, 94915, 439236, 5208, 9, 14171481],
    ),
    (
        "brackets-48",
        [20676, 481248, 701592, 592296, 656640, 6816, 17, 25414116],
    ),
    (
        "brackets-48-mixed",
        [20076, 194112, 186648, 159720, 656640, 6816, 9, 24178860],
    ),
    ("ww-6", [235, 677, 112, 80, 1188, 96, 3, 6504]),
    ("ww-6-short", [164, 334, 75, 67, 675, 75, 4, 3215]),
    ("ww-12", [918, 5645, 2160, 1676, 9936, 408, 6, 99823]),
    ("ww-12-short", [773, 4326, 1740, 1394, 7623, 363, 7, 71153]),
    ("ww-18", [2061, 23671, 14760, 11434, 34020, 936, 8, 510710]),
    (
        "ww-18-short",
        [1838, 19100, 11691, 9187, 28611, 867, 11, 406245],
    ),
    (
        "ww-24",
        [3636, 52382, 29387, 21511, 81216, 1570, 8, 1567076],
    ),
    (
        "ww-24-short",
        [3341, 45823, 24172, 17495, 71415, 1436, 7, 1321285],
    ),
    ("www-6", [564, 2115, 512, 336, 2376, 204, 4, 25127]),
    ("www-6-short", [392, 1347, 293, 199, 1350, 150, 4, 12506]),
    ("www-12", [2352, 17699, 14920, 10107, 19872, 840, 9, 403638]),
    (
        "www-12-short",
        [1964, 13285, 9943, 6749, 15246, 726, 6, 284226],
    ),
    (
        "www-18",
        [5220, 50453, 61584, 44034, 68040, 1908, 11, 2000315],
    ),
    (
        "www-18-short",
        [4640, 41517, 47241, 33829, 57222, 1734, 8, 1588122],
    ),
    ("aux-4", [2815, 1440, 59, 43, 3080, 268, 2, 39133]),
    (
        "aux-scrambled-4",
        [2825, 1364, 111, 94, 3080, 280, 2, 39170],
    ),
    ("aux-5", [4111, 1889, 79, 63, 5880, 404, 2, 86362]),
    (
        "aux-scrambled-5",
        [4098, 1538, 144, 128, 5880, 420, 2, 86128],
    ),
    ("aux-6", [5464, 2800, 181, 145, 9996, 570, 2, 168442]),
    (
        "aux-scrambled-6",
        [5440, 2570, 287, 254, 9996, 588, 2, 168403],
    ),
    ("aux-7", [7198, 3386, 217, 181, 15680, 762, 2, 298514]),
    (
        "aux-scrambled-7",
        [7188, 3306, 418, 377, 15680, 784, 2, 298821],
    ),
    ("aux-8", [9866, 4150, 286, 248, 23184, 982, 2, 494022]),
    (
        "aux-scrambled-8",
        [9867, 3757, 512, 479, 23184, 1008, 2, 494087],
    ),
    ("aux-9", [12159, 4820, 326, 288, 32760, 1230, 2, 771829]),
    (
        "aux-scrambled-9",
        [12163, 4357, 683, 648, 32760, 1260, 2, 772087],
    ),
    ("aux-10", [15294, 7006, 762, 682, 44660, 1507, 4, 1156484]),
    (
        "aux-scrambled-10",
        [15352, 7119, 1283, 1188, 44660, 1540, 2, 1157682],
    ),
    ("aux-11", [18112, 7883, 838, 758, 59136, 1811, 4, 1665843]),
    (
        "aux-scrambled-11",
        [18213, 8994, 1717, 1596, 59136, 1848, 2, 1668772],
    ),
    (
        "aux-12",
        [20839, 10438, 1404, 1273, 76440, 2143, 3, 2330346],
    ),
    (
        "aux-scrambled-12",
        [21016, 13029, 2908, 2688, 76440, 2184, 2, 2336033],
    ),
];

/// Nested brackets of `n` symbols whose kinds alternate with depth:
/// `([([…])])`.
fn mixed_brackets(n: usize) -> String {
    let opens: String = (0..n / 2)
        .map(|k| if k % 2 == 0 { '(' } else { '[' })
        .collect();
    let closes: String = opens
        .chars()
        .rev()
        .map(|c| if c == '(' { ')' } else { ']' })
        .collect();
    format!("{opens}{closes}")
}

/// `s` with the symbol at `at` removed.
fn one_short(s: &str, at: usize) -> String {
    let mut out = s.to_string();
    out.remove(at);
    out
}

/// The pinned corpus, grouped by grammar.
fn corpus() -> Vec<(Grammar, Vec<(String, Sentence)>)> {
    let (eng, lex) = corpus::standard_setup();
    let mut english = Vec::new();
    for n in 3..=16usize {
        let s = corpus::english_sentence(&eng, &lex, n, n as u64);
        let bad = corpus::scrambled(&lex, &s, n as u64 * 31);
        english.push((format!("english-{n}"), s));
        english.push((format!("scrambled-{n}"), bad));
    }
    let anbn = formal::anbn_grammar();
    let brackets = formal::brackets_grammar();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for n in FORMAL_LENGTHS {
        let s = corpus::formal::anbn(n / 2);
        let short = one_short(&s, n / 3);
        a.push((format!("anbn-{n}"), formal::anbn_sentence(&anbn, &s)));
        a.push((
            format!("anbn-{n}-short"),
            formal::anbn_sentence(&anbn, &short),
        ));
        let nested = corpus::formal::nested_brackets(n / 2);
        b.push((
            format!("brackets-{n}"),
            formal::brackets_sentence(&brackets, &nested),
        ));
        b.push((
            format!("brackets-{n}-mixed"),
            formal::brackets_sentence(&brackets, &mixed_brackets(n)),
        ));
    }
    let mut groups = vec![(eng, english), (anbn, a), (brackets, b)];
    groups.extend(extended_corpus());
    groups
}

/// Corpus rows appended after the original table: the copy languages,
/// whose constraints compare two category terms and read both roles, and
/// lexically ambiguous English from the extended grammar, which applies
/// unary constraints pairwise and resolves `cat` through the bound
/// hypotheses. Recorded before the binary kernel evaluated constraints a
/// slot at a time.
fn extended_corpus() -> Vec<(Grammar, Vec<(String, Sentence)>)> {
    let ww = formal::ww_grammar();
    let www = formal::www_grammar();
    let (mut w2, mut w3) = (Vec::new(), Vec::new());
    for n in [6usize, 12, 18, 24] {
        let s = corpus::formal::ww(n / 2, n as u64);
        let short = one_short(&s, n / 3);
        w2.push((format!("ww-{n}"), formal::ww_sentence(&ww, &s)));
        w2.push((format!("ww-{n}-short"), formal::ww_sentence(&ww, &short)));
    }
    for n in [6usize, 12, 18] {
        let w = corpus::formal::ww(n / 3, n as u64)[..n / 3].to_string();
        let s = format!("{w}{w}{w}");
        let short = one_short(&s, n / 2);
        w3.push((format!("www-{n}"), formal::ww_sentence(&www, &s)));
        w3.push((format!("www-{n}-short"), formal::ww_sentence(&www, &short)));
    }
    let (aux, lex) = corpus::extended_setup();
    let mut ambiguous = Vec::new();
    for n in 4..=12usize {
        // The first seed from `n` up whose sentence carries an ambiguous
        // base verb form.
        let s = (n as u64..)
            .map(|seed| corpus::english_aux_sentence(&aux, &lex, n, seed))
            .find(|s| s.has_lexical_ambiguity())
            .expect("the extended lexicon has ambiguous base forms");
        let bad = corpus::scrambled(&lex, &s, n as u64 * 17);
        ambiguous.push((format!("aux-{n}"), s));
        ambiguous.push((format!("aux-scrambled-{n}"), bad));
    }
    vec![(ww, w2), (www, w3), (aux, ambiguous)]
}

fn counters(s: &NetStats) -> [usize; 8] {
    [
        s.unary_checks,
        s.binary_checks,
        s.entries_zeroed,
        s.support_checks,
        s.support_inits,
        s.removals,
        s.maintain_passes,
        s.total_ops(),
    ]
}

#[test]
fn default_parse_counters_match_the_golden_table() {
    let mut golden = GOLDEN.iter();
    for (grammar, cases) in corpus() {
        for (label, sentence) in cases {
            let &(want_label, want) = golden.next().expect("corpus outgrew the golden table");
            assert_eq!(label, want_label, "corpus order drifted from the table");
            let got = counters(
                &parse(&grammar, &sentence, ParseOptions::default())
                    .network
                    .stats,
            );
            for ((field, g), w) in FIELDS.iter().zip(got).zip(want) {
                assert_eq!(g, w, "{label} (`{sentence}`): {field} moved");
            }
        }
    }
    assert!(
        golden.next().is_none(),
        "golden table has rows the corpus lost"
    );
}
