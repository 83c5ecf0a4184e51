//! A warm P-RAM parse allocates exactly what a warm serial parse does.
//!
//! The P-RAM engine is a round ledger over the serial kernels: it runs the
//! one phase driver the serial engine runs and only counts rounds, so on
//! a warm `WarmState` it must ask the allocator for nothing the serial
//! engine does not, at any `ParseRequest::threads` width. This test
//! binary counts every allocation (and every reallocation) of a warm
//! `Pram::run` and a warm `Sequential::run` over a fixed English corpus,
//! n = 3–10, compares them parse by parse, and holds both to the serial
//! engine's ceiling. One test only, so no other test allocates while it
//! counts. The ceiling may only fall.

use cdg_core::api::{Engine, ParseRequest, Sequential, WarmState};
use cdg_parallel::Pram;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The most allocations one warm parse of the corpus may make.
const CEILING: usize = 53;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per warm parse of each request by `engine`, after one
/// warm-up pass over the whole corpus on the same state.
fn warm_counts(engine: &dyn Engine, requests: &[ParseRequest<'_>]) -> Vec<usize> {
    let mut warm = WarmState::new();
    let mut parse = |req: &ParseRequest<'_>| {
        let sentence = req.require_sentence().expect("each request has a sentence");
        let mut report = engine
            .run(req, sentence, &mut warm)
            .expect("a host engine parses every sentence");
        warm.recycle_report(&mut report);
    };
    requests.iter().for_each(&mut parse);
    requests
        .iter()
        .map(|req| {
            ALLOCS.store(0, Ordering::Relaxed);
            ARMED.store(true, Ordering::Relaxed);
            parse(req);
            ARMED.store(false, Ordering::Relaxed);
            ALLOCS.load(Ordering::Relaxed)
        })
        .collect()
}

#[test]
fn a_warm_pram_parse_allocates_what_a_warm_serial_parse_does() {
    let (g, lex) = corpus::standard_setup();
    let compiled = cdg_core::resolve_compiled(&g);
    let requests = |threads: usize| -> Vec<ParseRequest<'_>> {
        (3..=10usize)
            .map(|n| {
                ParseRequest::new(&g)
                    .compiled(compiled.clone())
                    .threads(threads)
                    .sentence(corpus::english_sentence(&g, &lex, n, n as u64))
            })
            .collect()
    };
    let serial = warm_counts(&Sequential, &requests(1));
    println!("serial allocations per warm parse, n = 3..=10: {serial:?}");
    let most = *serial.iter().max().expect("a corpus");
    assert!(
        most <= CEILING,
        "a warm serial parse made {most} allocations (n = 3..=10: {serial:?}); the ceiling is {CEILING}"
    );
    for threads in [1, 2] {
        let pram = warm_counts(&Pram, &requests(threads));
        println!("pram allocations per warm parse at {threads} thread(s): {pram:?}");
        assert_eq!(
            pram, serial,
            "a warm P-RAM parse at {threads} thread(s) allocates other than a warm serial parse"
        );
    }
}
