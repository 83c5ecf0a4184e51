//! Golden instruction counts for the simulated MP-1.
//!
//! The MasPar engine may change how the *host* executes each broadcast —
//! bit-sliced plurals, addressed broadcasts, table-driven PE bodies —
//! but never the program the simulated machine runs. These tables are the engine's oracle.
//! This suite pins, for a fixed corpus, every [`MachineStats`] field, the
//! bits of the estimated MP-1 time, the removal count of every
//! maintenance iteration, and the per-phase attribution (phase names with
//! their stats, folded into one digest per sentence). The values were
//! recorded before the host learned addressed broadcasts and
//! table-driven PE bodies, and are checked through the checked
//! per-sentence entry point.
//!
//! The corpus covers English n = 3–10 (n = 9 and 10 sit beyond the
//! virtualization cliff: 26,244 and 40,000 virtual PEs on a 16,384-PE
//! array), scrambled rejects, and the paper's example with its reject
//! twin. On a mismatch the failure message carries the whole regenerated
//! table.
//!
//! The fault paths are pinned the same way in `tests/packed_equivalence.rs`.

use cdg_grammar::grammars::paper;
use cdg_grammar::{Grammar, Sentence};
use maspar_sim::MachineStats;
use parsec_maspar::{parse_maspar_checked, MasparOptions, MasparOutcome};

/// One corpus sentence's pinned values.
struct Golden {
    label: &'static str,
    /// Every `MachineStats` field, in declaration order.
    stats: [u64; 11],
    /// `estimated_seconds.to_bits()`.
    seconds_bits: u64,
    removals: &'static [u64],
    phase_count: usize,
    /// FNV-1a over every phase's name and stats, in order.
    phase_digest: u64,
}

const GOLDEN: &[Golden] = &[
    Golden {
        label: "scrambled-3",
        stats: [166, 166, 34, 306, 4, 4, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fd89613d31b9b67,
        removals: &[3, 0],
        phase_count: 31,
        phase_digest: 0xe0d500729b7221a0,
    },
    Golden {
        label: "english-3",
        stats: [121, 121, 17, 153, 2, 2, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fd12839042d8c2a,
        removals: &[0],
        phase_count: 30,
        phase_digest: 0x808ccf0e1c9806bb,
    },
    Golden {
        label: "scrambled-4",
        stats: [166, 166, 34, 340, 4, 4, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fd8ef34d6a161e5,
        removals: &[6, 0],
        phase_count: 31,
        phase_digest: 0x15c77ffedcae457a,
    },
    Golden {
        label: "english-4",
        stats: [121, 121, 17, 170, 2, 2, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fd154c985f06f69,
        removals: &[0],
        phase_count: 30,
        phase_digest: 0x64bd03c38b8b3948,
    },
    Golden {
        label: "english-5",
        stats: [166, 166, 34, 408, 4, 4, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fd9a176ddaceee1,
        removals: &[2, 0],
        phase_count: 31,
        phase_digest: 0x9db0910012dd64a2,
    },
    Golden {
        label: "scrambled-6",
        stats: [166, 166, 34, 442, 4, 4, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fd9fa97e132b55f,
        removals: &[13, 0],
        phase_count: 31,
        phase_digest: 0xaa83e0718b0bd4f8,
    },
    Golden {
        label: "english-6",
        stats: [166, 166, 34, 442, 4, 4, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fd9fa97e132b55f,
        removals: &[3, 0],
        phase_count: 31,
        phase_digest: 0xaa83e0718b0bd4f8,
    },
    Golden {
        label: "english-7",
        stats: [166, 166, 34, 476, 4, 4, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fda53b8e4b87bdd,
        removals: &[2, 0],
        phase_count: 31,
        phase_digest: 0xad57119ac9beb5d2,
    },
    Golden {
        label: "english-8",
        stats: [211, 211, 51, 714, 6, 6, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fe150331e3a7daa,
        removals: &[6, 1, 0],
        phase_count: 32,
        phase_digest: 0x5b7f8f74d22b3d7d,
    },
    Golden {
        label: "scrambled-9",
        stats: [166, 332, 34, 510, 4, 8, 100, 0, 0, 0, 0],
        seconds_bits: 0x3fe810624dd2f1aa,
        removals: &[26, 0],
        phase_count: 31,
        phase_digest: 0x928f3bcce7348168,
    },
    Golden {
        label: "english-9",
        stats: [256, 512, 68, 1020, 8, 16, 100, 0, 0, 0, 0],
        seconds_bits: 0x3ff3333333333333,
        removals: &[7, 2, 1, 0],
        phase_count: 33,
        phase_digest: 0x7df45ee614fe8d6d,
    },
    Golden {
        label: "scrambled-10",
        stats: [166, 498, 34, 544, 4, 12, 150, 0, 0, 0, 0],
        seconds_bits: 0x3ff17b7414a4d2b3,
        removals: &[38, 0],
        phase_count: 31,
        phase_digest: 0xc9e003bc908548c4,
    },
    Golden {
        label: "english-10",
        stats: [256, 768, 68, 1088, 8, 24, 150, 0, 0, 0, 0],
        seconds_bits: 0x3ffbab21815a07b3,
        removals: &[7, 2, 1, 0],
        phase_count: 33,
        phase_digest: 0xd2dd692907a51c2b,
    },
    Golden {
        label: "paper-example",
        stats: [72, 72, 14, 126, 4, 4, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fc56c0d6f544bb2,
        removals: &[4, 0],
        phase_count: 14,
        phase_digest: 0x952826cb75ea8122,
    },
    Golden {
        label: "paper-reject",
        stats: [92, 92, 21, 189, 6, 6, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fcc0980b242070c,
        removals: &[7, 3, 0],
        phase_count: 15,
        phase_digest: 0x4f340985621fcaea,
    },
    Golden {
        label: "paper-sweep-2",
        stats: [52, 52, 7, 42, 2, 2, 50, 0, 0, 0, 0],
        seconds_bits: 0x3fbcc100e6afcce2,
        removals: &[0],
        phase_count: 13,
        phase_digest: 0xfbfdb016a28b90c0,
    },
];

fn stats_fields(s: &MachineStats) -> [u64; 11] {
    [
        s.plural_ops,
        s.plural_slices,
        s.scan_calls,
        s.scan_passes,
        s.router_ops,
        s.router_slices,
        s.peak_pe_memory_bytes as u64,
        s.dead_pe_skips,
        s.router_corruptions,
        s.memory_flips,
        s.oob_routes,
    ]
}

fn phase_digest(out: &MasparOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    };
    for p in &out.phases {
        eat(p.name.as_bytes());
        eat(&[0]);
        for v in stats_fields(&p.stats) {
            eat(&v.to_le_bytes());
        }
    }
    h
}

/// The pinned corpus, grouped by grammar.
fn corpus() -> Vec<(Grammar, Vec<(String, Sentence)>)> {
    let (eng, lex) = corpus::standard_setup();
    let mut english = Vec::new();
    for n in 3..=10usize {
        let s = corpus::english_sentence(&eng, &lex, n, n as u64);
        if matches!(n, 3 | 4 | 6 | 9 | 10) {
            let bad = corpus::scrambled(&lex, &s, n as u64 * 37);
            english.push((format!("scrambled-{n}"), bad));
        }
        english.push((format!("english-{n}"), s));
    }
    let pg = paper::grammar();
    let plex = paper::lexicon(&pg);
    let paper_cases = vec![
        ("paper-example".to_string(), paper::example_sentence(&pg)),
        (
            "paper-reject".to_string(),
            plex.sentence("program the runs").expect("paper vocabulary"),
        ),
        (
            "paper-sweep-2".to_string(),
            paper::cost_sweep_sentence(&pg, 2),
        ),
    ];
    vec![(eng, english), (pg, paper_cases)]
}

fn row(label: &str, out: &MasparOutcome) -> String {
    format!(
        "    Golden {{\n        label: {label:?},\n        stats: {:?},\n        seconds_bits: {:#x},\n        removals: &{:?},\n        phase_count: {},\n        phase_digest: {:#x},\n    }},",
        stats_fields(&out.stats),
        out.estimated_seconds.to_bits(),
        out.removals_per_iteration,
        out.phases.len(),
        phase_digest(out),
    )
}

fn matches(want: &Golden, label: &str, out: &MasparOutcome) -> bool {
    want.label == label
        && want.stats == stats_fields(&out.stats)
        && want.seconds_bits == out.estimated_seconds.to_bits()
        && want.removals == out.removals_per_iteration.as_slice()
        && want.phase_count == out.phases.len()
        && want.phase_digest == phase_digest(out)
}

#[test]
fn per_sentence_runs_match_the_golden_table() {
    let mut rows = Vec::new();
    let mut mismatched = Vec::new();
    let mut golden = GOLDEN.iter();
    for (grammar, cases) in corpus() {
        for (label, sentence) in &cases {
            let out = parse_maspar_checked(&grammar, sentence, &MasparOptions::default())
                .expect("corpus fits");
            rows.push(row(label, &out));
            if !golden.next().is_some_and(|want| matches(want, label, &out)) {
                mismatched.push(format!("{label} (`{sentence}`)"));
            }
        }
    }
    assert!(
        mismatched.is_empty() && golden.next().is_none(),
        "parse_maspar_checked: simulated machine moved for {mismatched:?}; regenerated table:\n{}",
        rows.join("\n")
    );
}
