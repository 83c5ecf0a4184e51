//! A warm MasPar parse stays under a fixed number of host allocations.
//!
//! One thread keeps its simulated machine, with the host buffers of its
//! plurals, and the ACU's scratch from one parse to the next, and a
//! `WarmState` keeps the readback's network storage. What a warm parse
//! still asks the allocator for is the ACU's per-parse tables, the report
//! and its parses. This test binary counts every allocation (and every
//! reallocation) of `Maspar::run` on a warm thread over a fixed English
//! corpus, n = 3–10, at pool widths 1 and 2, and holds the largest count
//! to a ceiling. One test only, so no other test allocates while it
//! counts. The ceiling may only fall.

use cdg_core::api::{Engine, ParseRequest, WarmState};
use parsec_maspar::Maspar;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The most allocations one warm parse of the corpus may make.
const CEILING: usize = 192;

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

#[test]
fn a_warm_maspar_parse_stays_under_its_allocation_ceiling() {
    let (g, lex) = corpus::standard_setup();
    let compiled = cdg_core::resolve_compiled(&g);
    let requests: Vec<ParseRequest<'_>> = (3..=10usize)
        .map(|n| {
            ParseRequest::new(&g)
                .compiled(compiled.clone())
                .sentence(corpus::english_sentence(&g, &lex, n, n as u64))
        })
        .collect();
    for width in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("a pool");
        let counts: Vec<usize> = pool.install(|| {
            let mut warm = WarmState::new();
            let mut parse = |req: &ParseRequest<'_>| {
                let sentence = req.require_sentence().expect("each request has a sentence");
                let mut report = Maspar::default()
                    .run(req, sentence, &mut warm)
                    .expect("the corpus fits the simulated array");
                warm.recycle_report(&mut report);
            };
            // Warm the thread's machine and the state on the whole corpus.
            requests.iter().for_each(&mut parse);
            let mut counts = Vec::with_capacity(requests.len());
            for req in &requests {
                ALLOCS.store(0, Ordering::Relaxed);
                ARMED.store(true, Ordering::Relaxed);
                parse(req);
                ARMED.store(false, Ordering::Relaxed);
                counts.push(ALLOCS.load(Ordering::Relaxed));
            }
            counts
        });
        println!("allocations per warm parse at pool width {width}, n = 3..=10: {counts:?}");
        let most = *counts.iter().max().expect("a corpus");
        assert!(
            most <= CEILING,
            "a warm parse at pool width {width} made {most} allocations \
             (n = 3..=10: {counts:?}); the ceiling is {CEILING}"
        );
    }
}
