//! ULT-aware synchronization objects (`ABT_mutex`, `ABT_cond`,
//! `ABT_barrier`, `ABT_eventual`, `ABT_future`).
//!
//! Unlike OS primitives, blocking here never blocks the execution
//! stream: waiting ULTs yield, so the stream keeps executing other work
//! units — the property that lets Argobots programs hold locks across
//! fine-grained tasks without wedging their streams.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use lwt_sync::SpinLock;

use crate::stream::wait_until;

/// A ULT-aware mutual-exclusion lock (`ABT_mutex`).
///
/// Acquisition spins briefly, then yields the calling ULT (or naps an
/// external thread), keeping the stream productive.
///
/// ```
/// use lwt_argobots::{AbtMutex, Config, Runtime};
/// # let rt = Runtime::init(Config { num_streams: 2, ..Default::default() });
/// let m = std::sync::Arc::new(AbtMutex::new(0u64));
/// let handles: Vec<_> = (0..8).map(|_| {
///     let m = m.clone();
///     rt.ult_create(move || *m.lock() += 1)
/// }).collect();
/// for h in handles { h.join(); }
/// assert_eq!(*m.lock(), 8);
/// # rt.shutdown();
/// ```
pub struct AbtMutex<T: ?Sized> {
    locked: AtomicBool,
    value: std::cell::UnsafeCell<T>,
}

// SAFETY: mutual exclusion provided by the `locked` flag.
unsafe impl<T: ?Sized + Send> Send for AbtMutex<T> {}
// SAFETY: see above.
unsafe impl<T: ?Sized + Send> Sync for AbtMutex<T> {}

impl<T> AbtMutex<T> {
    /// An unlocked mutex holding `value`.
    #[must_use]
    pub const fn new(value: T) -> Self {
        AbtMutex {
            locked: AtomicBool::new(false),
            value: std::cell::UnsafeCell::new(value),
        }
    }

    /// Consume the mutex, returning its value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> AbtMutex<T> {
    /// Acquire the lock, yielding the ULT while contended.
    pub fn lock(&self) -> AbtMutexGuard<'_, T> {
        loop {
            if let Some(g) = self.try_lock() {
                return g;
            }
            wait_until(|| !self.locked.load(Ordering::Relaxed));
        }
    }

    /// Try to acquire the lock without waiting.
    pub fn try_lock(&self) -> Option<AbtMutexGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(AbtMutexGuard { mutex: self })
        } else {
            None
        }
    }
}

impl<T: Default> Default for AbtMutex<T> {
    fn default() -> Self {
        AbtMutex::new(T::default())
    }
}

impl<T: ?Sized> std::fmt::Debug for AbtMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AbtMutex({})",
            if self.locked.load(Ordering::Relaxed) {
                "locked"
            } else {
                "unlocked"
            }
        )
    }
}

/// RAII guard for [`AbtMutex`].
pub struct AbtMutexGuard<'a, T: ?Sized> {
    mutex: &'a AbtMutex<T>,
}

impl<T: ?Sized> std::ops::Deref for AbtMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock.
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for AbtMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T: ?Sized> Drop for AbtMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.locked.store(false, Ordering::Release);
    }
}

/// A ULT-aware condition variable (`ABT_cond`), ticket-based.
///
/// `signal`/`broadcast` should be called with the associated
/// [`AbtMutex`] held (the usual condition-variable discipline) for
/// predictable wakeup pairing; waiters tolerate spurious wakeups.
#[derive(Debug, Default)]
pub struct AbtCond {
    tickets: AtomicUsize,
    granted: AtomicUsize,
}

impl AbtCond {
    /// A condition variable with no pending waiters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically release `guard` and wait for a signal, then
    /// re-acquire the mutex.
    pub fn wait<'a, T: ?Sized>(
        &self,
        guard: AbtMutexGuard<'a, T>,
    ) -> AbtMutexGuard<'a, T> {
        let mutex = guard.mutex;
        let ticket = self.tickets.fetch_add(1, Ordering::AcqRel);
        drop(guard);
        wait_until(|| self.granted.load(Ordering::Acquire) > ticket);
        mutex.lock()
    }

    /// Wake one waiter, if any.
    pub fn signal(&self) {
        let mut granted = self.granted.load(Ordering::Relaxed);
        loop {
            if granted >= self.tickets.load(Ordering::Acquire) {
                return; // nobody waiting
            }
            match self.granted.compare_exchange(
                granted,
                granted + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(g) => granted = g,
            }
        }
    }

    /// Wake every current waiter.
    pub fn broadcast(&self) {
        let tickets = self.tickets.load(Ordering::Acquire);
        let mut granted = self.granted.load(Ordering::Relaxed);
        while granted < tickets {
            match self.granted.compare_exchange(
                granted,
                tickets,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(g) => granted = g,
            }
        }
    }
}

/// A ULT-aware barrier (`ABT_barrier`): like
/// [`lwt_sync::SenseBarrier`] but waiting ULTs yield their stream.
#[derive(Debug)]
pub struct AbtBarrier {
    inner: lwt_sync::SenseBarrier,
}

impl AbtBarrier {
    /// A barrier for `participants` ULTs.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    #[must_use]
    pub fn new(participants: usize) -> Self {
        AbtBarrier {
            inner: lwt_sync::SenseBarrier::new(participants),
        }
    }

    /// Wait for all participants; returns `true` for one leader per
    /// episode.
    ///
    /// All participants must be able to run concurrently or via yields
    /// — with private pools, do not place more participants on one
    /// stream than its scheduler can interleave (they yield, so any
    /// number works; they just serialize).
    pub fn wait(&self) -> bool {
        // SenseBarrier's relax is a plain closure; route it through the
        // ULT-aware waiting discipline.
        let relax = lwt_ultcore::relax_with(crate::stream::in_ult, crate::stream::yield_now);
        self.inner.wait(relax)
    }
}

/// A one-shot, multi-reader value slot (`ABT_eventual`).
///
/// One producer sets the value; any number of ULTs wait and read.
pub struct Eventual<T> {
    ready: AtomicBool,
    value: SpinLock<Option<T>>,
}

impl<T> Eventual<T> {
    /// An empty eventual.
    #[must_use]
    pub fn new() -> Self {
        Eventual {
            ready: AtomicBool::new(false),
            value: SpinLock::new(None),
        }
    }

    /// Set the value (`ABT_eventual_set`).
    ///
    /// # Panics
    ///
    /// Panics if already set (one-shot, like its C counterpart until
    /// reset).
    pub fn set(&self, value: T) {
        let mut slot = self.value.lock();
        assert!(slot.is_none(), "Eventual::set called twice without reset");
        *slot = Some(value);
        drop(slot);
        self.ready.store(true, Ordering::Release);
    }

    /// Whether the value is available (`ABT_eventual_test`).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Wait (ULT-aware) until set (`ABT_eventual_wait`).
    pub fn wait(&self) {
        wait_until(|| self.is_ready());
    }

    /// Wait and clone the value out.
    pub fn get(&self) -> T
    where
        T: Clone,
    {
        self.wait();
        self.value
            .lock()
            .as_ref()
            .expect("eventual ready without value")
            .clone()
    }

    /// Clear the slot for reuse (`ABT_eventual_reset`).
    pub fn reset(&self) {
        self.ready.store(false, Ordering::Release);
        *self.value.lock() = None;
    }
}

impl<T> Default for Eventual<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for Eventual<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Eventual({})",
            if self.is_ready() { "ready" } else { "empty" }
        )
    }
}

/// An n-contribution future (`ABT_future`): becomes ready once
/// `expected` values have been contributed; the consumer takes them
/// all.
pub struct AbtFuture<T> {
    expected: usize,
    contributed: AtomicUsize,
    values: SpinLock<Vec<T>>,
}

impl<T: Send> AbtFuture<T> {
    /// A future expecting `expected` contributions.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is zero.
    #[must_use]
    pub fn new(expected: usize) -> Arc<Self> {
        assert!(expected > 0, "future needs at least one contribution");
        Arc::new(AbtFuture {
            expected,
            contributed: AtomicUsize::new(0),
            values: SpinLock::new(Vec::with_capacity(expected)),
        })
    }

    /// Contribute one value (`ABT_future_set`).
    ///
    /// # Panics
    ///
    /// Panics on more than `expected` contributions.
    pub fn contribute(&self, value: T) {
        self.values.lock().push(value);
        let prev = self.contributed.fetch_add(1, Ordering::AcqRel);
        assert!(prev < self.expected, "AbtFuture over-contributed");
    }

    /// Whether all contributions have arrived.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.contributed.load(Ordering::Acquire) == self.expected
    }

    /// Wait (ULT-aware) until ready (`ABT_future_wait`).
    pub fn wait(&self) {
        wait_until(|| self.is_ready());
    }

    /// Wait, then take the contributed values (single consumer; the
    /// order is contribution order under a single contributor, else
    /// unspecified).
    pub fn take(&self) -> Vec<T> {
        self.wait();
        std::mem::take(&mut *self.values.lock())
    }
}

impl<T> std::fmt::Debug for AbtFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AbtFuture({}/{})",
            self.contributed.load(Ordering::Relaxed),
            self.expected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, PoolPolicy, Runtime};
    use lwt_fiber::StackSize;

    fn rt(n: usize) -> Runtime {
        Runtime::init(Config {
            num_streams: n,
            pool_policy: PoolPolicy::PrivatePerStream,
            stack_size: StackSize(32 * 1024),
        })
    }

    #[test]
    fn mutex_counter_exact_across_ults() {
        let rt = rt(2);
        let m = Arc::new(AbtMutex::new(0usize));
        let handles: Vec<_> = (0..100)
            .map(|_| {
                let m = m.clone();
                rt.ult_create(move || {
                    for _ in 0..10 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(*m.lock(), 1000);
        rt.shutdown();
    }

    #[test]
    fn mutex_try_lock_contention() {
        let m = AbtMutex::new(());
        let g = m.try_lock().unwrap();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
        assert_eq!(format!("{m:?}"), "AbtMutex(unlocked)");
    }

    #[test]
    fn mutex_held_across_yields_does_not_wedge_stream() {
        let rt = rt(1);
        let m = Arc::new(AbtMutex::new(0));
        let m2 = m.clone();
        // Holder yields while holding the lock; a second ULT contends.
        let holder = rt.ult_create(move || {
            let mut g = m2.lock();
            for _ in 0..3 {
                crate::stream::yield_now();
            }
            *g += 1;
        });
        let m3 = m.clone();
        let contender = rt.ult_create(move || {
            *m3.lock() += 10;
        });
        holder.join();
        contender.join();
        assert_eq!(*m.lock(), 11);
        rt.shutdown();
    }

    #[test]
    fn cond_producer_consumer() {
        let rt = rt(2);
        let m = Arc::new(AbtMutex::new(Vec::<u32>::new()));
        let cond = Arc::new(AbtCond::new());
        let (mc, cc) = (m.clone(), cond.clone());
        let consumer = rt.ult_create(move || {
            let mut got = Vec::new();
            let mut g = mc.lock();
            while got.len() < 10 {
                while g.is_empty() {
                    g = cc.wait(g);
                }
                got.append(&mut g);
            }
            got
        });
        let (mp, cp) = (m.clone(), cond.clone());
        let producer = rt.ult_create(move || {
            for i in 0..10 {
                {
                    let mut g = mp.lock();
                    g.push(i);
                    cp.signal();
                }
                crate::stream::yield_now();
            }
        });
        producer.join();
        let mut got = consumer.join();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        rt.shutdown();
    }

    #[test]
    fn cond_broadcast_wakes_everyone() {
        let rt = rt(2);
        let m = Arc::new(AbtMutex::new(false));
        let cond = Arc::new(AbtCond::new());
        let waiters: Vec<_> = (0..5)
            .map(|_| {
                let (m, c) = (m.clone(), cond.clone());
                rt.ult_create(move || {
                    let mut g = m.lock();
                    while !*g {
                        g = c.wait(g);
                    }
                })
            })
            .collect();
        // Let the waiters park.
        while cond.tickets.load(Ordering::Relaxed) < 5 {
            std::thread::yield_now();
        }
        {
            let mut g = m.lock();
            *g = true;
            cond.broadcast();
        }
        for w in waiters {
            w.join();
        }
        rt.shutdown();
    }

    #[test]
    fn signal_without_waiters_is_lost() {
        let cond = AbtCond::new();
        cond.signal();
        cond.broadcast();
        assert_eq!(cond.granted.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn barrier_synchronizes_ults() {
        let rt = rt(2);
        let barrier = Arc::new(AbtBarrier::new(4));
        let phase = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (b, p) = (barrier.clone(), phase.clone());
                rt.ult_create(move || {
                    p.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                    assert_eq!(p.load(Ordering::SeqCst), 4);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        rt.shutdown();
    }

    #[test]
    fn eventual_multi_reader() {
        let rt = rt(2);
        let ev: Arc<Eventual<String>> = Arc::new(Eventual::new());
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let ev = ev.clone();
                rt.ult_create(move || ev.get())
            })
            .collect();
        let ev2 = ev.clone();
        rt.ult_create(move || ev2.set("ready".into())).join();
        for r in readers {
            assert_eq!(r.join(), "ready");
        }
        // Reset allows reuse.
        ev.reset();
        assert!(!ev.is_ready());
        ev.set("again".into());
        assert_eq!(ev.get(), "again");
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "set called twice")]
    fn eventual_double_set_panics() {
        let ev = Eventual::new();
        ev.set(1);
        ev.set(2);
    }

    #[test]
    fn future_collects_contributions() {
        let rt = rt(2);
        let fut = AbtFuture::new(8);
        let contributors: Vec<_> = (0..8)
            .map(|i| {
                let fut = fut.clone();
                rt.ult_create(move || fut.contribute(i * i))
            })
            .collect();
        let mut vals = fut.take();
        for c in contributors {
            c.join();
        }
        vals.sort_unstable();
        assert_eq!(vals, (0..8).map(|i| i * i).collect::<Vec<_>>());
        assert!(fut.is_ready());
        rt.shutdown();
    }
}
