//! A faulted parse on a warm thread goes to the host allocator for no
//! array-sized buffer.
//!
//! Under a fault plan every mutating phase is run twice from a host-held
//! checkpoint of the machine's `bits` and `alive` plurals. Those four
//! host copies are array-sized (one `u64` per virtual PE), so they come
//! from the thread's machine's kept buffers and go back after the phase.
//! This test binary counts the allocations of at least half an array
//! (one test only, so no other test allocates while it counts).

use cdg_core::api::{Engine, ParseRequest, WarmState};
use cdg_core::EngineConfig;
use parsec_maspar::Maspar;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Bytes from which an allocation counts: half of one `u64` per virtual
/// PE at n = 10 (40,000 PEs).
const LARGE: usize = 40_000 * 8 / 2;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) && layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) && new_size >= LARGE && new_size > layout.size() {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_second_faulted_parse_on_a_warm_thread_allocates_no_array_buffer() {
    let g = cdg_grammar::grammars::english::grammar();
    let lex = cdg_grammar::grammars::english::lexicon(&g);
    let s = lex
        .sentence("the big dog sees the cat in the old park")
        .expect("lexicon words");
    // The CLI's `--faults 7` at `--threads 1`.
    let config = EngineConfig::builder()
        .faults_spec("7")
        .threads(1)
        .build()
        .expect("the CLI's fault spec");
    let req = ParseRequest::with_config(&g, &config).sentence(s);
    let mut warm = WarmState::new();
    let parse = |warm: &mut WarmState| {
        let mut report = Maspar::default()
            .parse_warm(&req, warm)
            .expect("plan 7 is recoverable");
        let accepted = report.accepted;
        warm.recycle_report(&mut report);
        accepted
    };
    assert!(parse(&mut warm), "the first parse");
    ARMED.store(true, Ordering::Relaxed);
    let accepted = parse(&mut warm);
    ARMED.store(false, Ordering::Relaxed);
    assert!(accepted, "the second parse");
    assert_eq!(
        LARGE_ALLOCS.load(Ordering::Relaxed),
        0,
        "the warm faulted parse allocated array-sized host buffers"
    );
}
