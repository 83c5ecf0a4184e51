//! Seeded workload inputs. The program under test only ever sees the
//! generated lines or sentences; the seed stays here.

use cdg_grammar::grammars::{english, formal};
use cdg_grammar::{Grammar, Lexicon, Sentence};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

/// The grammars a workload loads: English with its lexicon, and the two
/// formal grammars when the workload has formal inputs.
pub struct Grammars {
    pub english: Grammar,
    pub lexicon: Lexicon,
    anbn: Option<Grammar>,
    brackets: Option<Grammar>,
}

impl Grammars {
    pub fn load(with_formal: bool) -> Grammars {
        let english = english::grammar();
        let lexicon = english::lexicon(&english);
        Grammars {
            english,
            lexicon,
            anbn: with_formal.then(formal::anbn_grammar),
            brackets: with_formal.then(formal::brackets_grammar),
        }
    }

    pub fn of(&self, lang: Lang) -> &Grammar {
        let formal = match lang {
            Lang::English => return &self.english,
            Lang::Anbn => &self.anbn,
            Lang::Brackets => &self.brackets,
        };
        formal.as_ref().expect("formal grammars were loaded")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lang {
    English,
    Anbn,
    Brackets,
}

pub const LANGS: [Lang; 3] = [Lang::English, Lang::Anbn, Lang::Brackets];

/// One generated input: its text as a user would send it, and the
/// sentence the program parses.
#[derive(Debug, Clone)]
pub struct Item {
    pub lang: Lang,
    pub text: String,
    pub sentence: Sentence,
}

impl Item {
    pub fn len(&self) -> usize {
        self.sentence.len()
    }

    /// Known language membership for the formal inputs.
    pub fn member(&self) -> Option<bool> {
        match self.lang {
            Lang::English => None,
            Lang::Anbn => Some(formal::is_anbn(&self.text)),
            Lang::Brackets => Some(formal::is_brackets(&self.text)),
        }
    }
}

/// A grammatical English sentence of `n` words, or (`scramble`) the same
/// words shuffled.
fn english(g: &Grammars, rng: &mut SmallRng, n: usize, scramble: bool) -> Item {
    let s = corpus::english_sentence(&g.english, &g.lexicon, n, rng.gen());
    let sentence = if scramble {
        corpus::scrambled(&g.lexicon, &s, rng.gen())
    } else {
        s
    };
    let text = sentence
        .words()
        .iter()
        .map(|w| w.text.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    Item {
        lang: Lang::English,
        text,
        sentence,
    }
}

/// A random balanced string of `n` (even) symbols over `()` and `[]`.
fn balanced(rng: &mut SmallRng, n: usize) -> String {
    let mut out = String::with_capacity(n);
    let mut stack = Vec::new();
    let mut opens = n / 2;
    while out.len() < n {
        if opens > 0 && (stack.is_empty() || rng.gen_bool(0.5)) {
            let c = if rng.gen_bool(0.5) { '(' } else { '[' };
            stack.push(c);
            out.push(c);
            opens -= 1;
        } else {
            let c = stack.pop().expect("closing needs an open bracket");
            out.push(if c == '(' { ')' } else { ']' });
        }
    }
    out
}

/// `s` with the symbol at `at` removed.
fn one_short(s: &str, at: usize) -> String {
    let mut out = s.to_string();
    out.remove(at);
    out
}

/// Where `rounds` strings of `len` symbols each lose one: one position in
/// each of `rounds` equal strata of the string, in seeded order. How long
/// a one-short string takes depends on where the gap is (across seeds the
/// aⁿbⁿ share of a run's work moved by 8% with freely drawn positions), so
/// every seed spreads its gaps over the whole string.
fn stratified_gaps(rng: &mut SmallRng, len: usize, rounds: usize) -> Vec<usize> {
    let mut gaps: Vec<usize> = (0..rounds)
        .map(|k| {
            let (lo, hi) = (k * len / rounds, (k + 1) * len / rounds);
            rng.gen_range(lo..hi.max(lo + 1)).min(len - 1)
        })
        .collect();
    gaps.shuffle(rng);
    gaps
}

fn formal_item(g: &Grammars, lang: Lang, text: String) -> Item {
    let sentence = match lang {
        Lang::Anbn => formal::anbn_sentence(g.of(lang), &text),
        Lang::Brackets => formal::brackets_sentence(g.of(lang), &text),
        Lang::English => unreachable!("English items come from the lexicon"),
    };
    Item {
        lang,
        text,
        sentence,
    }
}

// ---------------------------------------------------------------- serve-short

/// Lengths of serve-short sentences.
pub const SERVE_LENGTHS: std::ops::RangeInclusive<usize> = 3..=8;
/// Distinct lines per length in the serve-short pool.
const SERVE_PER_LENGTH: usize = 160;
/// One line in five of the pool is scrambled.
const SERVE_SCRAMBLED_EVERY: usize = 5;
/// A designed repeat picks among this many of the client's latest lines:
/// well inside the response cache's 256-entry FIFO window.
const REPEAT_WINDOW: usize = 32;
/// Share of stream lines that repeat an earlier line.
const REPEAT_SHARE: f64 = 0.25;

/// The serve-short pool: distinct lines, shuffled. Its size keeps any
/// line's recurrence (after the stream wraps the pool) far outside the
/// response cache window, so only designed repeats hit the cache.
pub fn serve_pool(g: &Grammars, seed: u64) -> Vec<Item> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7e_0001);
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    for n in SERVE_LENGTHS {
        let mut made = 0;
        let mut attempts = 0;
        while made < SERVE_PER_LENGTH && attempts < SERVE_PER_LENGTH * 50 {
            attempts += 1;
            let scramble = made % SERVE_SCRAMBLED_EVERY == SERVE_SCRAMBLED_EVERY - 1;
            let item = english(g, &mut rng, n, scramble);
            if seen.insert(item.text.clone()) {
                pool.push(item);
                made += 1;
            }
        }
    }
    pool.shuffle(&mut rng);
    pool
}

/// One line of a client's request stream.
#[derive(Debug, Clone, Copy)]
pub struct Line {
    /// Index into the pool.
    pub idx: u32,
    /// A designed repeat of one of the client's recent lines.
    pub repeat: bool,
}

/// Per-client request streams of `len` lines each. Client `c` walks its
/// own slice of the pool (indices `c, c + clients, ...`, wrapping), and
/// about one line in four repeats one of its last [`REPEAT_WINDOW`] lines.
pub fn serve_streams(pool_len: usize, clients: usize, len: usize, seed: u64) -> Vec<Vec<Line>> {
    (0..clients)
        .map(|c| {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7e_0002 ^ (c as u64) << 32);
            let mut next = c;
            let mut out: Vec<Line> = Vec::with_capacity(len);
            while out.len() < len {
                if out.len() >= REPEAT_WINDOW && rng.gen_bool(REPEAT_SHARE) {
                    let back = rng.gen_range(1..=REPEAT_WINDOW);
                    let idx = out[out.len() - back].idx;
                    out.push(Line { idx, repeat: true });
                } else {
                    out.push(Line {
                        idx: (next % pool_len) as u32,
                        repeat: false,
                    });
                    next += clients;
                }
            }
            out
        })
        .collect()
}

/// A stratified sample of the serve pool: the first `per_length` lines of
/// each length.
pub fn serve_sample(pool: &[Item], per_length: usize) -> Vec<usize> {
    let mut taken: BTreeMap<usize, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for (i, item) in pool.iter().enumerate() {
        let t = taken.entry(item.len()).or_default();
        if *t < per_length {
            *t += 1;
            out.push(i);
        }
    }
    out
}

// ------------------------------------------------------ batch-long / maspar

/// One unit of batch work: a `parse_batch` call per grammar, in order.
/// Every round of a workload has the same length composition, so round
/// times form one tight distribution.
pub type Round = Vec<(Lang, Vec<Item>)>;

/// batch-long formal lengths: aⁿbⁿ and balanced brackets, each also one
/// symbol short.
pub const FORMAL_LENGTHS: [usize; 3] = [24, 36, 48];

/// A batch-long round: English n = 12, 14, 16 plus a scrambled 13-word
/// line (one in four rejects), then aⁿbⁿ and balanced-bracket strings of
/// n = 24, 36, 48, each also one symbol short (half rejects).
pub fn batch_long_rounds(g: &Grammars, seed: u64, rounds: usize) -> Vec<Round> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xba7c_0001);
    let gaps: Vec<[Vec<usize>; 2]> = FORMAL_LENGTHS
        .iter()
        .map(|&n| {
            [
                stratified_gaps(&mut rng, n, rounds),
                stratified_gaps(&mut rng, n, rounds),
            ]
        })
        .collect();
    (0..rounds)
        .map(|r| {
            let mut eng: Vec<Item> = [12, 14, 16]
                .iter()
                .map(|&n| english(g, &mut rng, n, false))
                .collect();
            eng.push(english(g, &mut rng, 13, true));
            eng.shuffle(&mut rng);
            let mut anbn = Vec::new();
            let mut brackets = Vec::new();
            for (n, [anbn_gaps, bracket_gaps]) in FORMAL_LENGTHS.into_iter().zip(&gaps) {
                let a = corpus::formal::anbn(n / 2);
                anbn.push(formal_item(g, Lang::Anbn, one_short(&a, anbn_gaps[r])));
                anbn.push(formal_item(g, Lang::Anbn, a));
                let b = balanced(&mut rng, n);
                brackets.push(formal_item(g, Lang::Brackets, one_short(&b, bracket_gaps[r])));
                brackets.push(formal_item(g, Lang::Brackets, b));
            }
            anbn.shuffle(&mut rng);
            brackets.shuffle(&mut rng);
            vec![
                (Lang::English, eng),
                (Lang::Anbn, anbn),
                (Lang::Brackets, brackets),
            ]
        })
        .collect()
}

/// maspar-mixed lengths: both sides of the n = 9 virtualization cliff.
pub const MASPAR_LENGTHS: std::ops::RangeInclusive<usize> = 3..=10;

/// A maspar-mixed round: one English sentence of every length 3..=10,
/// plus scrambled 4- and 9-word lines (one in five rejects).
pub fn maspar_rounds(g: &Grammars, seed: u64, rounds: usize) -> Vec<Round> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3a5b_0001);
    (0..rounds)
        .map(|_| {
            let mut items: Vec<Item> = MASPAR_LENGTHS
                .map(|n| english(g, &mut rng, n, false))
                .collect();
            items.push(english(g, &mut rng, 4, true));
            items.push(english(g, &mut rng, 9, true));
            items.shuffle(&mut rng);
            vec![(Lang::English, items)]
        })
        .collect()
}

/// Length histogram of `items`, as a JSON object.
pub fn histogram_json(lengths: impl Iterator<Item = usize>) -> String {
    let mut h: BTreeMap<usize, usize> = BTreeMap::new();
    for n in lengths {
        *h.entry(n).or_default() += 1;
    }
    let body: Vec<String> = h.iter().map(|(n, c)| format!("\"{n}\":{c}")).collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let g = Grammars::load(true);
        let a: Vec<String> = serve_pool(&g, 7).into_iter().map(|i| i.text).collect();
        let b: Vec<String> = serve_pool(&g, 7).into_iter().map(|i| i.text).collect();
        assert_eq!(a, b);
        let c: Vec<String> = serve_pool(&g, 8).into_iter().map(|i| i.text).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn serve_pool_lines_are_distinct_and_in_range() {
        let g = Grammars::load(true);
        let pool = serve_pool(&g, 1);
        let distinct: HashSet<&str> = pool.iter().map(|i| i.text.as_str()).collect();
        assert_eq!(distinct.len(), pool.len());
        assert!(pool.iter().all(|i| SERVE_LENGTHS.contains(&i.len())));
    }

    #[test]
    fn streams_repeat_about_one_line_in_four() {
        let streams = serve_streams(960, 2, 20_000, 3);
        for s in &streams {
            let share = s.iter().filter(|l| l.repeat).count() as f64 / s.len() as f64;
            assert!((0.22..0.28).contains(&share), "repeat share {share}");
        }
    }

    #[test]
    fn balanced_strings_are_members_and_short_ones_are_not() {
        let mut rng = SmallRng::seed_from_u64(5);
        for n in FORMAL_LENGTHS {
            let b = balanced(&mut rng, n);
            assert_eq!(b.len(), n);
            assert!(formal::is_brackets(&b));
            for at in stratified_gaps(&mut rng, n, 12) {
                assert!(!formal::is_brackets(&one_short(&b, at)));
            }
        }
    }

    #[test]
    fn gaps_fall_one_in_each_stratum() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut gaps = stratified_gaps(&mut rng, 48, 12);
        gaps.sort_unstable();
        for (k, at) in gaps.into_iter().enumerate() {
            assert!((4 * k..4 * k + 4).contains(&at), "gap {k} at {at}");
        }
    }

    #[test]
    fn rounds_have_a_fixed_composition() {
        let g = Grammars::load(true);
        for round in batch_long_rounds(&g, 2, 3) {
            let sizes: Vec<usize> = round.iter().map(|(_, items)| items.len()).collect();
            assert_eq!(sizes, vec![4, 6, 6]);
        }
        for round in maspar_rounds(&g, 2, 3) {
            assert_eq!(round[0].1.len(), 10);
        }
    }
}
