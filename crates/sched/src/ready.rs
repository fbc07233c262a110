//! Per-worker ready queue: a Chase-Lev deque fronted by an MPSC
//! inbox, with an owner-identity check and a fairness tick.
//!
//! This is the composite structure the redesigned runtimes hang their
//! scheduling on. Each worker owns one [`ReadyQueue`]:
//!
//! * The **owning worker** (the thread that called [`ReadyQueue::bind`])
//!   pushes and pops through the lock-free [`ChaseLev`] deque — LIFO,
//!   no atomic RMW on the fast path.
//! * **Any other thread** — a spawner on another worker, an external
//!   master, a `fork_to`/`send_to` placement call — lands work in the
//!   lock-free MPSC [`Injector`] inbox instead. [`ReadyQueue::push`]
//!   routes automatically based on the caller's identity, so runtime
//!   code never has to know where it is running.
//! * **Thieves** steal from the deque's top (the oldest entry) via
//!   [`ReadyQueue::steal_once`].
//!
//! ## Fairness
//!
//! A pure LIFO owner would starve the inbox (and the deque's own tail)
//! whenever it keeps itself busy — the classic failure being a joiner
//! that yield-loops above the very child it awaits. Every
//! [`FAIRNESS`]-th owner pop therefore drains from the *old* end
//! first: the inbox, then the deque's top. Inbox work also becomes
//! visible to thieves: when the owner takes from the inbox it moves a
//! small batch of follow-on items into the deque, where other workers
//! can steal them.
//!
//! ## Ownership discipline
//!
//! The Chase-Lev owner side is single-threaded by construction. The
//! queue records its owner as a process-unique thread token set by
//! [`ReadyQueue::bind`]; calls from any other thread degrade to the
//! always-safe paths (inject on push, steal on pop), so the deque's
//! single-owner invariant holds no matter who holds a reference.

use std::sync::atomic::{AtomicU64, Ordering};

use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::EventKind;

use crate::chase_lev::{ChaseLev, Steal, Stealer, Worker};
use crate::injector::Injector;

/// Owner pops consult the inbox/old end once every this many pops.
/// Prime, so the fairness tick can't resonate with power-of-two
/// spawn patterns.
pub const FAIRNESS: u64 = 61;

/// On an inbox hit, up to this many follow-on inbox items are moved
/// into the deque so thieves can see them.
const INBOX_BATCH: usize = 16;

/// Process-unique identity for the calling thread (never 0).
fn thread_token() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: Cell<u64> = const { Cell::new(0) };
    }
    TOKEN.with(|t| {
        let mut v = t.get();
        if v == 0 {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(v);
        }
        v
    })
}

/// A worker's ready queue. See module docs.
///
/// Aligned to 128 bytes (an adjacent-line-prefetch pair), so the
/// owner's hot fields never share a line with a neighbouring worker's
/// queue in the per-worker `Vec`.
#[repr(align(128))]
pub struct ReadyQueue<T: Send> {
    /// Thread token of the bound owner; 0 while unbound.
    owner: AtomicU64,
    /// Owner-side deque handle (only the bound owner touches it).
    local: Worker<T>,
    /// Steal handle onto `local`, for thieves and the fairness path.
    mirror: Stealer<T>,
    /// Cross-thread submissions.
    inbox: Injector<T>,
    /// Owner pop counter driving the fairness policy. Only the owner
    /// writes it, so a plain load + store replaces an atomic RMW.
    tick: AtomicU64,
}

impl<T: Send> Default for ReadyQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ReadyQueue<T> {
    /// New empty queue with the default deque capacity.
    #[must_use]
    pub fn new() -> Self {
        let (local, mirror) = ChaseLev::new();
        ReadyQueue {
            owner: AtomicU64::new(0),
            local,
            mirror,
            inbox: Injector::new(),
            tick: AtomicU64::new(0),
        }
    }

    /// Declare the calling thread the queue's owner. Call once from
    /// the worker thread before its scheduling loop; rebinding moves
    /// ownership (legal only once the previous owner is done).
    pub fn bind(&self) {
        self.owner.store(thread_token(), Ordering::Release);
    }

    fn is_owner(&self) -> bool {
        self.owner.load(Ordering::Relaxed) == thread_token()
    }

    /// Submit work: the owner pushes straight onto its deque (LIFO),
    /// everyone else goes through the inbox. Returns `true` when the
    /// value went onto the deque, where thieves can steal it, and
    /// `false` when it landed in the inbox, which only the owner
    /// drains — so only a wake aimed at the owner is sure to help.
    pub fn push(&self, value: T) -> bool {
        if self.is_owner() {
            self.local.push(value);
            true
        } else {
            self.inbox.push(value);
            false
        }
    }

    /// Submit work through the inbox unconditionally — explicit
    /// placement (`fork_to`, `send_to`) and requeues that must not
    /// jump ahead of the owner's current LIFO chain.
    pub fn inject(&self, value: T) {
        self.inbox.push(value);
    }

    /// Owner dequeue. LIFO from the deque with a periodic fairness
    /// pass over the inbox and the deque's old end; falls back to the
    /// inbox when the deque is dry. Non-owner callers degrade to
    /// [`Self::steal`].
    pub fn pop(&self) -> Option<T> {
        self.pop_exposing().0
    }

    /// [`Self::pop`], also reporting whether the pop moved inbox items
    /// into the deque. Those items just became stealable without any
    /// push announcing them, so a scheduler should wake a sleeping
    /// thief when this is `true`.
    pub fn pop_exposing(&self) -> (Option<T>, bool) {
        if !self.is_owner() {
            return (self.steal(), false);
        }
        let tick = self.tick.load(Ordering::Relaxed);
        self.tick.store(tick.wrapping_add(1), Ordering::Relaxed);
        if tick % FAIRNESS == FAIRNESS - 1 {
            if let Some((v, moved)) = self.take_inbox() {
                return (Some(v), moved);
            }
            if let Steal::Success(v) = self.mirror.steal_once() {
                return (Some(v), false);
            }
        }
        match self.local.pop() {
            Some(v) => (Some(v), false),
            None => self
                .take_inbox()
                .map_or((None, false), |(v, moved)| (Some(v), moved)),
        }
    }

    /// Pop one inbox item and expose a batch of follow-ons to thieves
    /// by moving them into the deque; the flag says whether any moved.
    /// Owner-only.
    fn take_inbox(&self) -> Option<(T, bool)> {
        let first = self.inbox.pop()?;
        let mut moved = false;
        for _ in 0..INBOX_BATCH {
            match self.inbox.pop() {
                Some(v) => {
                    self.local.push(v);
                    moved = true;
                }
                None => break,
            }
        }
        Some((first, moved))
    }

    /// One steal probe against the deque's old end. `Retry` (a lost
    /// race) is counted as `queue_contention`.
    ///
    /// Chaos decision point: `StealFail` makes the probe report
    /// `Empty` without touching the deque — the thief walks away as if
    /// the victim had no work (a missed steal, not a lost race). Only
    /// this cross-worker path is injected; the owner's fairness pass
    /// in [`Self::pop`] drains the deque directly, so injected
    /// failures delay migration but can never strand a unit.
    pub fn steal_once(&self) -> Steal<T> {
        if lwt_chaos::should_inject(lwt_chaos::FaultSite::StealFail) {
            return Steal::Empty;
        }
        let result = self.mirror.steal_once();
        if matches!(result, Steal::Retry) {
            COUNTERS.queue_contention.inc();
            emit(EventKind::QueueContention, 1);
        }
        result
    }

    /// Steal, retrying lost races a bounded number of times. `None`
    /// means the deque is empty *or persistently contended* — either
    /// way the thief should move on (next victim, then the idle/park
    /// path) instead of burning a core here; a contended deque has an
    /// active owner who will drain it. Unbounded retry was the
    /// idle-spin bug: a thief could pin a CPU at 100% against a
    /// pathological victim without ever acquiring work. Note: thieves
    /// cannot see the inbox (it has a single consumer — the owner).
    pub fn steal(&self) -> Option<T> {
        const MAX_RETRIES: usize = 32;
        for _ in 0..MAX_RETRIES {
            match self.steal_once() {
                Steal::Success(v) => return Some(v),
                Steal::Empty => return None,
                Steal::Retry => std::hint::spin_loop(),
            }
        }
        None
    }

    /// Approximate total occupancy (deque + inbox); racy diagnostics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.local.len() + self.inbox.len()
    }

    /// Occupancy a *thief* could reach — the deque only; the inbox has
    /// a single consumer (the owner). Pre-park emptiness re-checks sum
    /// this over the victims instead of [`Self::len`], so an inbox item
    /// only its (busy) owner can take never spuriously aborts a park.
    #[must_use]
    pub fn stealable_len(&self) -> usize {
        self.local.len()
    }

    /// Whether the queue looks empty (same caveat as [`Self::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> std::fmt::Debug for ReadyQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadyQueue")
            .field("owner", &self.owner.load(Ordering::Relaxed))
            .field("deque_len", &self.local.len())
            .field("inbox_len", &self.inbox.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn owner_pushes_and_pops_lifo() {
        let q = ReadyQueue::new();
        q.bind();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn foreign_push_routes_to_inbox_and_owner_drains_it() {
        let q = Arc::new(ReadyQueue::new());
        q.bind();
        {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(42)).join().unwrap();
        }
        // The owner's deque is empty, so pop falls through to the
        // inbox.
        assert_eq!(q.pop(), Some(42));
    }

    #[test]
    fn fairness_tick_reaches_the_old_end() {
        let q = ReadyQueue::new();
        q.bind();
        // An adversarial owner that re-pushes what it pops would spin
        // on the newest item forever; the fairness tick must surface
        // the oldest item within a bounded number of pops.
        q.push("old");
        q.push("hot");
        let mut seen_old = false;
        for _ in 0..(2 * FAIRNESS) {
            let v = q.pop().unwrap();
            if v == "old" {
                seen_old = true;
                break;
            }
            q.push(v);
        }
        assert!(seen_old, "fairness tick must break LIFO re-push loops");
    }

    #[test]
    fn fairness_tick_reaches_the_inbox_under_lifo_load() {
        let q = Arc::new(ReadyQueue::new());
        q.bind();
        {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.inject("inboxed")).join().unwrap();
        }
        let mut seen = false;
        for _ in 0..(2 * FAIRNESS) {
            q.push("local");
            match q.pop() {
                Some("inboxed") => {
                    seen = true;
                    break;
                }
                Some(_) => {}
                None => unreachable!("queue is never empty here"),
            }
        }
        assert!(seen, "inbox must be served even while the deque is hot");
    }

    #[test]
    fn inbox_work_becomes_stealable_after_owner_touches_it() {
        let q = Arc::new(ReadyQueue::new());
        q.bind();
        for i in 0..10 {
            // Simulate foreign submissions.
            q.inject(i);
        }
        // Owner takes one; the batch move must park follow-ons in the
        // deque where a thief can reach them, and say so.
        assert_eq!(q.pop_exposing(), (Some(0), true));
        let thief = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.steal())
        };
        assert!(thief.join().unwrap().is_some(), "thief must see batch");
    }

    #[test]
    fn non_owner_pop_degrades_to_steal() {
        let q = Arc::new(ReadyQueue::new());
        q.bind();
        q.push(7);
        let q2 = Arc::clone(&q);
        let got = std::thread::spawn(move || q2.pop()).join().unwrap();
        assert_eq!(got, Some(7), "foreign pop must steal, not touch owner side");
    }

    #[test]
    fn spawn_and_steal_stress_loses_nothing() {
        const ITEMS: u64 = 20_000;
        let q = Arc::new(ReadyQueue::new());
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.bind();
                let mut got = 0u64;
                for i in 0..ITEMS {
                    q.push(i);
                    if i % 64 == 0 {
                        // Owner consumes a little too.
                        if q.pop().is_some() {
                            got += 1;
                        }
                    }
                }
                // Drain what's left on the owner side.
                while q.pop().is_some() {
                    got += 1;
                }
                got
            })
        };
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = 0u64;
                    let mut dry = 0;
                    while dry < 1_000 {
                        match q.steal_once() {
                            Steal::Success(_) => {
                                got += 1;
                                dry = 0;
                            }
                            _ => {
                                dry += 1;
                                std::hint::spin_loop();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut total = producer.join().unwrap();
        for t in thieves {
            total += t.join().unwrap();
        }
        // Thieves may have gone dry before the owner's final drain;
        // anything still queued is reachable by stealing now.
        while q.steal().is_some() {
            total += 1;
        }
        assert!(q.is_empty());
        assert_eq!(total, ITEMS, "every pushed item consumed exactly once");
    }
}
