//! Nestable timed spans with thread-local buffers merged on root drop.
//!
//! The model mirrors `tracing`'s span tree, stripped to what phase-level
//! profiling needs: a span is entered by calling [`span`] (or [`span_with`]
//! when the name must be computed) and exits when the returned [`SpanGuard`]
//! drops. Open spans live on a thread-local stack, so nesting is implicit:
//! a span entered while another is open becomes its child. When a *root*
//! span (no parent on this thread) closes, its completed subtree is pushed
//! into a global buffer under a mutex — worker threads therefore merge their
//! trees exactly once per root span, not per event, keeping contention at
//! sentence granularity.
//!
//! The whole layer is gated on one [`AtomicBool`]. Disabled (the default),
//! [`span`] is a single relaxed atomic load and returns an inert guard: no
//! allocation, no clock read, no lock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static ROOTS: Mutex<Vec<SpanNode>> = Mutex::new(Vec::new());

/// Monotonic epoch shared by every thread so `start_ns` values are
/// comparable across threads within one process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One completed span: name, offset from the process trace epoch, duration,
/// and completed children in start order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub children: Vec<SpanNode>,
}

struct OpenSpan {
    name: String,
    start: Instant,
    start_ns: u64,
    children: Vec<SpanNode>,
}

thread_local! {
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// Globally enable or disable span collection.
pub fn set_tracing(enabled: bool) {
    TRACING.store(enabled, Ordering::SeqCst);
}

/// Whether span collection is currently enabled.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Enter a span named by a static string. The span closes when the guard
/// drops. When tracing is disabled this is one atomic load.
#[must_use = "the span closes when the guard drops; binding to _ closes it immediately"]
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { active: false };
    }
    enter(name.to_owned())
}

/// Enter a span whose name is computed only if tracing is enabled — use for
/// dynamic names (`span_with(|| format!("sentence:{i}"))`) so the disabled
/// path never allocates.
#[must_use = "the span closes when the guard drops; binding to _ closes it immediately"]
#[inline]
pub fn span_with(name: impl FnOnce() -> String) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { active: false };
    }
    enter(name())
}

fn enter(name: String) -> SpanGuard {
    let now = Instant::now();
    let start_ns = now.duration_since(epoch()).as_nanos() as u64;
    STACK.with(|stack| {
        stack.borrow_mut().push(OpenSpan {
            name,
            start: now,
            start_ns,
            children: Vec::new(),
        });
    });
    SpanGuard { active: true }
}

/// RAII guard returned by [`span`]/[`span_with`]; closes the span on drop.
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let done = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let open = stack
                .pop()
                .expect("span stack underflow: guard dropped twice?");
            let node = SpanNode {
                name: open.name,
                start_ns: open.start_ns,
                dur_ns: open.start.elapsed().as_nanos() as u64,
                children: open.children,
            };
            match stack.last_mut() {
                Some(parent) => {
                    parent.children.push(node);
                    None
                }
                None => Some(node),
            }
        });
        // Root span on this thread: merge the completed subtree into the
        // global buffer. Done outside the thread-local borrow.
        if let Some(node) = done {
            ROOTS.lock().unwrap().push(node);
        }
    }
}

/// A completed trace: every root span collected since the last
/// [`take_trace`], ordered by start time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub roots: Vec<SpanNode>,
}

impl Trace {
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Aggregate `(name, total dur_ns, count)` over every span in the trace,
    /// sorted by descending total duration. Totals from concurrent threads
    /// sum, so a batch trace's totals may exceed wall time.
    pub fn phase_totals(&self) -> Vec<(String, u64, u64)> {
        use std::collections::BTreeMap;
        let mut acc: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        fn walk(node: &SpanNode, acc: &mut BTreeMap<String, (u64, u64)>) {
            let e = acc.entry(node.name.clone()).or_insert((0, 0));
            e.0 += node.dur_ns;
            e.1 += 1;
            for c in &node.children {
                walk(c, acc);
            }
        }
        for r in &self.roots {
            walk(r, &mut acc);
        }
        let mut rows: Vec<(String, u64, u64)> =
            acc.into_iter().map(|(n, (d, c))| (n, d, c)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Every distinct span name appearing in the trace.
    pub fn names(&self) -> Vec<String> {
        self.phase_totals().into_iter().map(|(n, _, _)| n).collect()
    }
}

/// Drain and return every completed root span collected so far, sorted by
/// start time. Open spans (guards still alive) are unaffected.
pub fn take_trace() -> Trace {
    let mut roots = std::mem::take(&mut *ROOTS.lock().unwrap());
    roots.sort_by_key(|r| r.start_ns);
    Trace { roots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // Span collection is process-global; serialize tests that enable it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> (R, Trace) {
        let _l = TEST_LOCK.lock().unwrap();
        let _ = take_trace();
        set_tracing(true);
        let r = f();
        set_tracing(false);
        let t = take_trace();
        (r, t)
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = TEST_LOCK.lock().unwrap();
        let _ = take_trace();
        {
            let _a = span("outer");
            let _b = span("inner");
        }
        assert!(take_trace().is_empty());
    }

    #[test]
    fn nesting_builds_a_tree() {
        let ((), trace) = with_tracing(|| {
            let _root = span("root");
            {
                let _a = span("alpha");
                let _inner = span("alpha.inner");
            }
            let _b = span_with(|| format!("beta:{}", 7));
        });
        assert_eq!(trace.roots.len(), 1);
        let root = &trace.roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "alpha");
        assert_eq!(root.children[0].children[0].name, "alpha.inner");
        assert_eq!(root.children[1].name, "beta:7");
        // Durations nest: child duration never exceeds parent's.
        assert!(root.children[0].children[0].dur_ns <= root.dur_ns);
    }

    #[test]
    fn sibling_roots_sorted_by_start() {
        let ((), trace) = with_tracing(|| {
            {
                let _a = span("first");
            }
            {
                let _b = span("second");
            }
        });
        let names: Vec<&str> = trace.roots.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["first", "second"]);
        assert!(trace.roots[0].start_ns <= trace.roots[1].start_ns);
    }

    #[test]
    fn threads_merge_on_root_drop() {
        let ((), trace) = with_tracing(|| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    std::thread::spawn(move || {
                        let _root = span_with(|| format!("worker:{i}"));
                        let _child = span("work");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(trace.roots.len(), 4);
        let mut names: Vec<&str> = trace.roots.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["worker:0", "worker:1", "worker:2", "worker:3"]);
        for r in &trace.roots {
            assert_eq!(r.children.len(), 1, "each worker tree kept its child");
            assert_eq!(r.children[0].name, "work");
        }
    }

    #[test]
    fn phase_totals_aggregate_across_roots() {
        let ((), trace) = with_tracing(|| {
            for _ in 0..3 {
                let _r = span("parse");
                let _c = span("filtering");
            }
        });
        let totals = trace.phase_totals();
        let parse = totals.iter().find(|(n, _, _)| n == "parse").unwrap();
        let filt = totals.iter().find(|(n, _, _)| n == "filtering").unwrap();
        assert_eq!(parse.2, 3);
        assert_eq!(filt.2, 3);
        assert!(parse.1 >= filt.1, "parent total covers child total");
    }
}
