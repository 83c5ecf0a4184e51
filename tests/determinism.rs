//! The workspace determinism contract, end to end: parse results are
//! byte-identical at every thread count (the shim-rayon chunking
//! guarantee), identical between pooled and sequential execution, and
//! identical between batched and per-sentence parsing — for every engine,
//! over the 64 differential seeds the fault-injection suite established.

use bitmat::BitVec;
use cdg_core::api::{Engine, ParseRequest, Sequential, WarmState};
use cdg_core::parser::{parse, FilterMode, ParseOptions};
use cdg_core::PrecedenceGraph;
use cdg_grammar::{Grammar, Sentence};
use cdg_parallel::Pram;
use parsec_maspar::{parse_maspar_checked, MasparOptions};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// The differential seed count from the fault-injection suite (PR 1).
const SEEDS: u64 = 64;

/// `rayon::set_num_threads` is process-global and the harness runs tests
/// on parallel threads; tests that flip the thread count serialize here.
fn thread_config_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn options() -> ParseOptions {
    // Bounded filtering keeps all engines on the same pass schedule.
    ParseOptions {
        filter: FilterMode::Bounded(10),
        ..Default::default()
    }
}

/// Sentence for one differential seed: lengths cycle over 3..=7 so the
/// suite covers several network sizes.
fn seeded_sentence(grammar: &Grammar, lex: &cdg_grammar::Lexicon, seed: u64) -> Sentence {
    let n = 3 + (seed % 5) as usize;
    corpus::english_sentence(grammar, lex, n, seed)
}

/// Byte-level fingerprint of a settled network: every slot's alive
/// bit-vector plus the extracted parse set.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    alive: Vec<BitVec>,
    parses: Vec<PrecedenceGraph>,
}

fn fingerprint(net: &cdg_core::Network<'_>) -> Fingerprint {
    Fingerprint {
        alive: net.slots().iter().map(|s| s.alive.clone()).collect(),
        parses: cdg_core::extract::precedence_graphs(net, 64),
    }
}

#[test]
fn engines_byte_identical_across_thread_counts() {
    let _cfg = thread_config_lock();
    let (g, lex) = corpus::standard_setup();
    for seed in 0..SEEDS {
        let s = seeded_sentence(&g, &lex, seed);
        // The serial engine never touches the pool; its result is the
        // thread-count-free reference.
        let reference = fingerprint(&parse(&g, &s, options()).network);
        let req = ParseRequest::new(&g).sentence(s.clone()).options(options());
        for threads in [1usize, 2, 8] {
            rayon::set_num_threads(threads);
            let pram = fingerprint(&Pram.parse(&req).unwrap().network);
            assert_eq!(
                reference, pram,
                "pram diverged from serial at {threads} threads, seed {seed} (`{s}`)"
            );
            if !s.has_lexical_ambiguity() {
                let maspar = parse_maspar_checked(
                    &g,
                    &s,
                    &MasparOptions {
                        filter_iterations: 10,
                        ..Default::default()
                    },
                )
                .unwrap();
                let net = maspar.to_network(&g, &s);
                assert_eq!(
                    reference,
                    fingerprint(&net),
                    "maspar diverged from serial at {threads} threads, seed {seed} (`{s}`)"
                );
            }
        }
        rayon::set_num_threads(0);
    }
}

#[test]
fn batch_parsing_byte_identical_across_thread_counts_and_vs_sequential() {
    let _cfg = thread_config_lock();
    let (g, lex) = corpus::standard_setup();
    let sentences: Vec<Sentence> = (0..SEEDS).map(|s| seeded_sentence(&g, &lex, s)).collect();

    let req = ParseRequest::new(&g).options(options()).max_parses(64);
    let sequential = Sequential.parse_batch(&sentences, &req).unwrap().outcomes;
    // The batch summaries must match per-sentence parsing exactly ...
    for (s, summary) in sentences.iter().zip(&sequential) {
        let solo = Sequential.parse(&req.clone().sentence(s.clone())).unwrap();
        assert_eq!(
            summary,
            &solo.summary(),
            "batch summary diverged from solo parse on `{s}`"
        );
    }
    // ... and the parallel batch must match the sequential batch at
    // every thread count (pool-vs-sequential execution included: the
    // parallel path is pooled, the solo path above is not).
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads(threads);
        let parallel = Pram.parse_batch(&sentences, &req).unwrap().outcomes;
        assert_eq!(
            sequential, parallel,
            "parallel batch diverged at {threads} threads"
        );
    }
    rayon::set_num_threads(0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pooled execution is invisible: a parse drawing its buffers from a
    /// warm, arbitrarily-reused state equals the pool-less parse.
    #[test]
    fn pooled_parse_equals_unpooled(n in 3usize..9, seed in 0u64..1000) {
        let (g, lex) = corpus::standard_setup();
        let s = corpus::english_sentence(&g, &lex, n, seed);
        let cold = parse(&g, &s, options());

        // Warm the state with a different sentence first so recycled (and
        // wrong-sized) buffers are actually exercised.
        let mut state = WarmState::new();
        let req = ParseRequest::new(&g).options(options());
        let warm = corpus::english_sentence(&g, &lex, 3 + (seed % 4) as usize, seed ^ 0x5a5a);
        let mut first = Sequential.parse_warm(&req.clone().sentence(warm), &mut state).unwrap();
        state.recycle_report(&mut first);

        let pooled = Sequential.parse_warm(&req.sentence(s), &mut state).unwrap();
        prop_assert_eq!(fingerprint(&cold.network), fingerprint(&pooled.network));
        prop_assert_eq!(cold.roles_nonempty, pooled.roles_nonempty);
        prop_assert_eq!(cold.filter_passes, pooled.filter_passes);
        prop_assert!(state.pool_stats().reuses > 0, "pool was never exercised");
    }
}
