//! Bounded MPSC admission queue (`Mutex` + `Condvar`, std only).
//!
//! Producers are connection handler threads; the single consumer is
//! the batcher thread. The queue is the backpressure point of the
//! service: when it is full, [`RequestQueue::push`] either fails
//! immediately ([`OverloadPolicy::Reject`]) or blocks with a deadline
//! ([`OverloadPolicy::Block`]).
//!
//! Closing the queue ([`RequestQueue::close`]) starts the drain phase:
//! pushes fail with [`PushError::Closed`], but pops keep returning the
//! already-admitted items until the queue is empty — this is what lets
//! `SHUTDOWN` guarantee that no admitted request is dropped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::config::OverloadPolicy;

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue was at capacity (and stayed there past the block
    /// deadline, if any). The caller should reply with an overloaded
    /// `SCORE_ERROR`.
    Full,
    /// The queue is closed (server shutting down).
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Callback observing the queue depth after every push/pop, invoked
/// **while the queue lock is held** so the observed depth can never be
/// stale (a read-then-set from outside the lock races concurrent
/// pops). Keep it cheap; it must not touch the queue.
type DepthObserver = Box<dyn Fn(usize) + Send + Sync>;

/// A bounded multi-producer single-consumer queue.
pub struct RequestQueue<T> {
    state: Mutex<State<T>>,
    /// Signals consumers when an item arrives or the queue closes.
    not_empty: Condvar,
    /// Signals producers when space frees up.
    not_full: Condvar,
    cap: usize,
    /// Installed once at construction time (before the queue is
    /// shared), hence no lock of its own.
    observer: Option<DepthObserver>,
}

impl<T> RequestQueue<T> {
    /// Creates a queue holding at most `cap` items.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "RequestQueue: capacity must be positive");
        RequestQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(cap),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
            observer: None,
        }
    }

    /// Installs the depth observer (see [`DepthObserver`]). Takes
    /// `&mut self`: set it before the queue is shared.
    pub fn set_depth_observer(&mut self, f: impl Fn(usize) + Send + Sync + 'static) {
        self.observer = Some(Box::new(f));
    }

    /// Reports `depth` to the observer. Callers hold the state lock,
    /// which is what makes the published depth exact.
    fn observe(&self, depth: usize) {
        if let Some(obs) = &self.observer {
            obs(depth);
        }
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue an item under the given overload policy.
    pub fn push(&self, item: T, policy: OverloadPolicy) -> Result<(), PushError> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.items.len() >= self.cap {
            match policy {
                OverloadPolicy::Reject => return Err(PushError::Full),
                OverloadPolicy::Block(max_block) => {
                    let deadline = Instant::now() + max_block;
                    while st.items.len() >= self.cap && !st.closed {
                        // Saturating: the clock may pass `deadline`
                        // between iterations, and `deadline - now`
                        // would panic on the underflow.
                        let remaining = deadline.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            return Err(PushError::Full);
                        }
                        let (next, timeout) = self.not_full.wait_timeout(st, remaining).unwrap();
                        st = next;
                        if timeout.timed_out() && st.items.len() >= self.cap {
                            return Err(PushError::Full);
                        }
                    }
                    if st.closed {
                        return Err(PushError::Closed);
                    }
                }
            }
        }
        st.items.push_back(item);
        self.observe(st.items.len());
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// empty (drain complete), in which case `None` is returned.
    pub fn pop_wait(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                self.observe(st.items.len());
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Pops the front item without blocking, if there is one and `take`
    /// accepts it. `None` means the queue is empty or `take` refused the
    /// front item, which then stays queued.
    pub fn try_pop_if(&self, take: impl FnOnce(&T) -> bool) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        if !st.items.front().is_some_and(take) {
            return None;
        }
        let item = st.items.pop_front();
        self.observe(st.items.len());
        drop(st);
        self.not_full.notify_one();
        item
    }

    /// Closes the queue: future pushes fail, pops drain what remains.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn reject_policy_fails_fast_when_full() {
        let q = RequestQueue::new(2);
        q.push(1, OverloadPolicy::Reject).unwrap();
        q.push(2, OverloadPolicy::Reject).unwrap();
        assert_eq!(q.push(3, OverloadPolicy::Reject), Err(PushError::Full));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn block_policy_times_out_when_nobody_pops() {
        let q = RequestQueue::new(1);
        q.push(1, OverloadPolicy::Reject).unwrap();
        let policy = OverloadPolicy::Block(Duration::from_millis(20));
        assert_eq!(q.push(2, policy), Err(PushError::Full));
    }

    #[test]
    fn block_policy_succeeds_when_space_frees_up() {
        let q = Arc::new(RequestQueue::new(1));
        q.push(1, OverloadPolicy::Reject).unwrap();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                q.pop_wait()
            })
        };
        let policy = OverloadPolicy::Block(Duration::from_secs(5));
        q.push(2, policy).expect("push should succeed after pop");
        assert_eq!(consumer.join().unwrap(), Some(1));
        assert_eq!(q.pop_wait(), Some(2));
    }

    #[test]
    fn close_drains_remaining_items_then_returns_none() {
        let q = RequestQueue::new(4);
        q.push(1, OverloadPolicy::Reject).unwrap();
        q.push(2, OverloadPolicy::Reject).unwrap();
        q.close();
        assert_eq!(q.push(3, OverloadPolicy::Reject), Err(PushError::Closed));
        assert_eq!(q.pop_wait(), Some(1));
        assert_eq!(q.pop_wait(), Some(2));
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q = Arc::new(RequestQueue::<u32>::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_wait())
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn depth_observer_sees_every_transition_under_the_lock() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let depths = Arc::new(Mutex::new(Vec::new()));
        let last = Arc::new(AtomicUsize::new(usize::MAX));
        let mut q = RequestQueue::new(4);
        {
            let depths = Arc::clone(&depths);
            let last = Arc::clone(&last);
            q.set_depth_observer(move |d| {
                depths.lock().unwrap().push(d);
                last.store(d, Ordering::SeqCst);
            });
        }
        q.push(1, OverloadPolicy::Reject).unwrap();
        q.push(2, OverloadPolicy::Reject).unwrap();
        assert_eq!(q.pop_wait(), Some(1));
        q.push(3, OverloadPolicy::Reject).unwrap();
        assert_eq!(q.try_pop_if(|_| true), Some(2));
        assert_eq!(q.pop_wait(), Some(3));
        // One observation per transition, each the exact post-op depth.
        assert_eq!(*depths.lock().unwrap(), vec![1, 2, 1, 2, 1, 0]);
        // The final published depth matches reality — the property the
        // old read-then-set gauge could violate.
        assert_eq!(last.load(Ordering::SeqCst), q.len());
    }

    #[test]
    fn zero_block_deadline_rejects_full_queue_without_panicking() {
        // Regression: a zero (or already-elapsed) block budget used to
        // race `Instant::now()` against the deadline subtraction.
        let q = RequestQueue::new(1);
        q.push(1, OverloadPolicy::Reject).unwrap();
        assert_eq!(
            q.push(2, OverloadPolicy::Block(Duration::ZERO)),
            Err(PushError::Full)
        );
        assert_eq!(
            q.push(3, OverloadPolicy::Block(Duration::from_nanos(1))),
            Err(PushError::Full)
        );
    }

    #[test]
    fn try_pop_returns_none_at_once_on_an_empty_queue() {
        let q = RequestQueue::<u32>::new(1);
        let t0 = Instant::now();
        assert_eq!(q.try_pop_if(|_| true), None);
        assert!(t0.elapsed() < Duration::from_secs(1), "try_pop_if blocked");
        q.close();
        assert_eq!(q.try_pop_if(|_| true), None);
    }

    #[test]
    fn try_pop_keeps_fifo_order_and_leaves_a_refused_item_queued() {
        let depths = Arc::new(Mutex::new(Vec::new()));
        let mut q = RequestQueue::new(4);
        {
            let depths = Arc::clone(&depths);
            q.set_depth_observer(move |d| depths.lock().unwrap().push(d));
        }
        for i in 1..=3 {
            q.push(i, OverloadPolicy::Reject).unwrap();
        }
        assert_eq!(q.try_pop_if(|_| true), Some(1));
        // A refused front item is neither popped nor observed.
        assert_eq!(q.try_pop_if(|&i| i != 2), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop_if(|_| true), Some(2));
        assert_eq!(q.try_pop_if(|_| true), Some(3));
        assert_eq!(q.try_pop_if(|_| true), None);
        // Pushes 1, 2, 3, then exactly one transition per pop.
        assert_eq!(*depths.lock().unwrap(), vec![1, 2, 3, 2, 1, 0]);
    }
}
