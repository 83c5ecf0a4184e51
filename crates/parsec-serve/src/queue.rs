//! The bounded MPMC queue between connection handlers and the worker pool.
//!
//! `Mutex<VecDeque> + Condvar` — deliberately boring. The queue is the
//! service's *only* elastic buffer, and its invariants carry the
//! robustness story:
//!
//! * [`Bounded::try_push`] never blocks and never grows past capacity:
//!   producers get an immediate `Full`/`Closed` verdict, which the
//!   admission layer converts into a typed `SHED` response. Backpressure
//!   is explicit, not an unbounded channel quietly eating memory.
//! * [`Bounded::pop_timeout`] blocks until an item arrives, the queue is
//!   closed *and* empty, or the timeout passes — close-then-drain, so
//!   nothing admitted is ever dropped by the queue itself.
//! * [`Bounded::drain_now`] empties the queue in one lock acquisition;
//!   the drain supervisor uses it to shed leftovers when the drain
//!   deadline expires (each leftover still gets its typed response — the
//!   queue never swallows work silently).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`Bounded::try_push`] refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// At capacity: the caller should shed with backpressure semantics.
    Full,
    /// Closed: the service is past drain; nothing new may enter.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking bounded MPMC queue. See the module docs for the contract.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    available: Condvar,
}

impl<T> Bounded<T> {
    pub fn new(capacity: usize) -> Self {
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            capacity: capacity.max(1),
            available: Condvar::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (racy by nature; used for watermarks and gauges).
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Non-blocking push. On success returns the depth *after* the push
    /// (for the peak-depth gauge); on failure returns the item back along
    /// with why.
    pub fn try_push(&self, item: T) -> Result<usize, (T, PushError)> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err((item, PushError::Closed));
        }
        if st.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        st.items.push_back(item);
        let depth = st.items.len();
        drop(st);
        self.available.notify_one();
        Ok(depth)
    }

    /// Non-blocking pop: the work-stealing primitive. `None` means empty
    /// *or* closed — a stealer probing a sibling queue cannot tell and
    /// does not need to.
    pub fn try_pop(&self) -> Option<T> {
        self.state.lock().unwrap().items.pop_front()
    }

    /// Block until an item is available (FIFO), the queue is closed and
    /// empty, or `timeout` passes, returning `(item, closed_and_empty)`.
    /// `(None, true)` is the worker's signal to exit; `(None, false)` is a
    /// timeout — the shard worker's cue to go steal from band siblings
    /// rather than camp on its own empty queue.
    pub fn pop_timeout(&self, timeout: std::time::Duration) -> (Option<T>, bool) {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                return (Some(item), false);
            }
            if st.closed {
                return (None, true);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return (None, false);
            }
            let (next, timed_out) = self.available.wait_timeout(st, deadline - now).unwrap();
            st = next;
            if timed_out.timed_out() && st.items.is_empty() {
                return (None, st.closed);
            }
        }
    }

    /// Take everything queued right now, in FIFO order.
    pub fn drain_now(&self) -> Vec<T> {
        let mut st = self.state.lock().unwrap();
        st.items.drain(..).collect()
    }

    /// Close the queue: pushes fail with [`PushError::Closed`], poppers
    /// drain the remainder then observe `(None, true)`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// Longer than any test waits: a pop that returns sooner did not time
    /// out.
    const LONG: Duration = Duration::from_secs(60);

    #[test]
    fn push_pop_fifo_within_capacity() {
        let q = Bounded::new(3);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.pop_timeout(LONG), (Some(2), false));
    }

    #[test]
    fn full_queue_sheds_not_blocks() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let (item, why) = q.try_push(3).unwrap_err();
        assert_eq!((item, why), (3, PushError::Full));
        assert_eq!(q.depth(), 2, "rejected item never entered");
    }

    #[test]
    fn close_drains_then_terminates_poppers() {
        let q = Arc::new(Bounded::new(4));
        q.try_push(10).unwrap();
        q.try_push(11).unwrap();
        q.close();
        assert_eq!(q.try_push(12).unwrap_err().1, PushError::Closed);
        // Already-queued items still come out, then poppers see the end.
        assert_eq!(q.pop_timeout(LONG), (Some(10), false));
        assert_eq!(q.try_pop(), Some(11));
        assert_eq!(q.pop_timeout(LONG), (None, true));
        // A popper blocked on an empty open queue wakes when it closes.
        let open = Arc::new(Bounded::<u32>::new(4));
        let q2 = Arc::clone(&open);
        let t = thread::spawn(move || q2.pop_timeout(LONG));
        thread::sleep(Duration::from_millis(20));
        open.close();
        assert_eq!(t.join().unwrap(), (None, true));
    }

    #[test]
    fn try_pop_never_blocks_and_pop_timeout_times_out() {
        let q = Bounded::new(4);
        assert_eq!(q.try_pop(), None);
        q.try_push(1).unwrap();
        assert_eq!(q.try_pop(), Some(1));
        // Timeout on empty-but-open: (None, false) — "go steal".
        let started = std::time::Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), (None, false));
        assert!(started.elapsed() >= Duration::from_millis(5));
        // An available item returns immediately.
        q.try_push(2).unwrap();
        assert_eq!(q.pop_timeout(LONG), (Some(2), false));
        // Closed-and-empty is terminal, not a timeout.
        q.close();
        assert_eq!(q.pop_timeout(LONG), (None, true));
    }

    #[test]
    fn drain_now_empties_in_order() {
        let q = Bounded::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.drain_now(), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(Bounded::new(16));
        let total = 200;
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = 0u64;
                    loop {
                        match q.pop_timeout(Duration::from_millis(5)) {
                            (Some(_item), _) => got += 1,
                            (None, true) => return got,
                            (None, false) => {}
                        }
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut sent = 0u64;
                    for i in 0..total {
                        // Spin on Full — producers in this test want
                        // every item through, not shedding semantics.
                        let mut item = p * 1000 + i;
                        loop {
                            match q.try_push(item) {
                                Ok(_) => break,
                                Err((back, PushError::Full)) => {
                                    item = back;
                                    thread::yield_now();
                                }
                                Err((_, PushError::Closed)) => return sent,
                            }
                        }
                        sent += 1;
                    }
                    sent
                })
            })
            .collect();
        let sent: u64 = producers.into_iter().map(|t| t.join().unwrap()).sum();
        q.close();
        let got: u64 = consumers.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(sent, 4 * total);
        assert_eq!(got, sent, "every pushed item was popped exactly once");
    }
}
