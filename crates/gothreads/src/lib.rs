//! # lwt-go — a Go-model lightweight-thread runtime
//!
//! From-scratch Rust implementation of the goroutine model as the paper
//! characterizes it (§III-F): "all threads share a **global queue**
//! where goroutines are stored. A scheduler is responsible to assign
//! them to idle threads. This global, unique queue needs a
//! synchronization mechanism that may impact performance when an
//! elevated number of threads are used."
//!
//! Deliberate fidelity choices (each one shows up in the paper's
//! curves):
//!
//! * **Per-worker lock-free run queues with a shared injector.** The
//!   original seed modelled the paper's "global, unique queue"
//!   description with one mutex-protected queue; the spawn/join
//!   fast-path redesign moved every runtime onto
//!   [`lwt_sched::ReadyQueue`] (Chase-Lev deque + MPSC inbox + work
//!   stealing), which is also how the *real* Go scheduler has worked
//!   since 1.1 (per-P runqueues + global injector). The
//!   synchronization cost the paper attributes to Go's shared queue
//!   is still observable — as `queue_contention` events on the
//!   injector instead of lock waits.
//! * **No user-visible yield** — the paper's Table I marks Go as the
//!   only LWT library without one ("not even offering the common yield
//!   function"). Goroutines still *implicitly* yield inside blocking
//!   channel operations, exactly as in Go.
//! * **Out-of-order channel synchronization** ([`Sender`]/[`Receiver`])
//!   — the completion-notification mechanism the paper credits for
//!   Go's efficient join (Fig. 3): the master receives one message per
//!   goroutine in whatever order they finish.
//! * **Thread count chosen at run time** ([`Config::num_threads`], ≙
//!   `GOMAXPROCS`).
//!
//! A [`WaitGroup`] is provided as the idiomatic bulk join.
//!
//! ## Example
//!
//! ```
//! use lwt_go::{Config, Runtime};
//!
//! let rt = Runtime::init(Config { num_threads: 2, ..Config::default() });
//! let (tx, rx) = rt.channel::<u32>(8);
//! for i in 0..8 {
//!     let tx = tx.clone();
//!     rt.go(move || tx.send(i).unwrap());
//! }
//! let mut sum = 0;
//! for _ in 0..8 {
//!     sum += rx.recv().unwrap();
//! }
//! assert_eq!(sum, 28);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lwt_fiber::StackSize;
use lwt_metrics::registry::emit;
use lwt_metrics::EventKind;
use lwt_sched::ReadyQueue;
use lwt_sync::{Channel, CountLatch, RecvError, SendError};
use lwt_ultcore::kernel::{self, ReadyPolicy, Victims, Workers};
use lwt_ultcore::{
    current_worker, relax, wait_until, DrainError, PollTask, ReadyUnit, Requeue, UltCore,
};

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of OS threads executing goroutines (`GOMAXPROCS`).
    pub num_threads: usize,
    /// Goroutine stack size. Go starts goroutines on small growable
    /// stacks; ours are fixed, defaulting to the workspace default.
    pub stack_size: StackSize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            num_threads: std::thread::available_parallelism().map_or(4, usize::from),
            stack_size: StackSize::DEFAULT,
        }
    }
}

struct RtInner {
    /// One ready queue per scheduler thread; external spawns are
    /// injected round-robin, idle workers steal from each other.
    /// Goroutines and stackless future tasks share the queues
    /// ([`ReadyUnit`]).
    queues: Vec<ReadyQueue<ReadyUnit>>,
    /// The scheduler threads; every push site notifies their park
    /// group (wake-one).
    workers: Workers,
    next: AtomicUsize,
    stack_size: StackSize,
}

/// The Go-model runtime. Cheap to clone.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

impl Runtime {
    /// Start the scheduler threads.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_threads` is zero.
    #[must_use]
    pub fn init(config: Config) -> Self {
        assert!(config.num_threads > 0, "need at least one thread");
        let inner = Arc::new(RtInner {
            queues: (0..config.num_threads).map(|_| ReadyQueue::new()).collect(),
            workers: Workers::new(config.num_threads, "go"),
            next: AtomicUsize::new(0),
            stack_size: config.stack_size,
        });
        for t in 0..config.num_threads {
            let rt = inner.clone();
            inner
                .workers
                .spawn(format!("go-m{t}"), move || kernel::run(&rt, t));
        }
        Runtime { inner }
    }

    /// [`Runtime::init`] with defaults.
    #[must_use]
    pub fn init_default() -> Self {
        Self::init(Config::default())
    }

    /// Number of scheduler threads.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.inner.queues.len()
    }

    /// Launch a goroutine (`go f()`). No handle is returned — Go has no
    /// join; synchronize through channels or a [`WaitGroup`].
    pub fn go<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let ult = UltCore::new(self.inner.stack_size, f);
        emit(EventKind::UltSpawn, 0);
        self.place(ult.into());
    }

    /// A spawn from a scheduler thread lands on that worker's own deque
    /// (ReadyQueue::push routes by caller identity); external spawns
    /// are injected round-robin across the workers' inboxes.
    fn place(&self, unit: ReadyUnit) {
        let n = self.inner.queues.len();
        let target = match current_worker() {
            Some(w) if w < n => w,
            _ => self.inner.next.fetch_add(1, Ordering::Relaxed) % n,
        };
        self.inner.queues[target].push(unit);
        // Push first, then wake at most one sleeper (see ParkGroup
        // docs for why this order is what prevents lost wakes).
        self.inner.workers.park_group().notify_near(target);
    }

    /// Enqueue a stackless future task, picking the target queue like
    /// [`Runtime::go`] (caller's own worker, else round-robin).
    pub fn post_task(&self, task: Arc<dyn PollTask>) {
        self.place(ReadyUnit::Task(task));
    }

    /// Enqueue a stackless future task on worker `worker`'s queue.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn post_task_to(&self, worker: usize, task: Arc<dyn PollTask>) {
        self.inner.queues[worker].push(ReadyUnit::Task(task));
        self.inner.workers.park_group().notify_near(worker);
    }

    /// Create a buffered channel (`make(chan T, cap)`); capacity 0 is
    /// rounded up to 1 (see [`lwt_sync::Channel::bounded`]).
    #[must_use]
    pub fn channel<T>(&self, cap: usize) -> (Sender<T>, Receiver<T>) {
        let ch = Arc::new(Channel::bounded(cap));
        (Sender { ch: ch.clone() }, Receiver { ch })
    }

    /// Create an unbuffered-in-spirit unbounded channel (for cases
    /// where Go code would size the channel to the workload).
    #[must_use]
    pub fn channel_unbounded<T>(&self) -> (Sender<T>, Receiver<T>) {
        let ch = Arc::new(Channel::unbounded());
        (Sender { ch: ch.clone() }, Receiver { ch })
    }

    /// Stop scheduler threads and join them. Idempotent.
    ///
    /// Goroutines still queued (and never awaited) may not run.
    /// Unbounded: a goroutine that never finishes (yield-looping on a
    /// lost channel message) makes this wait forever — use
    /// [`Runtime::shutdown_within`] to degrade gracefully instead.
    pub fn shutdown(&self) {
        self.inner.workers.shutdown();
    }

    /// [`Runtime::shutdown`] with a drain deadline: wait up to
    /// `deadline` for the scheduler threads to finish their queues,
    /// then order them to abandon whatever is left and report the
    /// stragglers. The workers are joined either way — on `Err`
    /// nothing is still running, but the listed goroutines never
    /// completed. Idempotent (later calls return `Ok`).
    ///
    /// # Errors
    ///
    /// [`DrainError`] when the deadline expired with goroutines still
    /// queued or running.
    pub fn shutdown_within(&self, deadline: std::time::Duration) -> Result<(), DrainError> {
        self.inner.drain_within(deadline)
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("go::Runtime")
            .field("threads", &self.num_threads())
            .field(
                "queued",
                &self.inner.queues.iter().map(ReadyQueue::len).sum::<usize>(),
            )
            .finish()
    }
}

/// Yielded and displaced goroutines go back onto their worker's own
/// run queue.
impl Requeue for RtInner {
    fn requeue(&self, worker: usize, ult: Arc<UltCore>) {
        self.queues[worker].push(ult.into());
        self.workers.park_group().notify_near(worker);
    }
}

impl ReadyPolicy for RtInner {
    const STRAGGLER: &'static str = "goroutine ready queue";

    fn queues(&self) -> &[ReadyQueue<ReadyUnit>] {
        &self.queues
    }

    fn workers(&self) -> &Workers {
        &self.workers
    }

    /// Any idle thread may take any goroutine: every other worker,
    /// nearest first, once per dry sweep.
    fn victims(&self, _: usize) -> Victims {
        Victims::NearFirst
    }
}

/// Sending half of a channel.
pub struct Sender<T> {
    ch: Arc<Channel<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            ch: self.ch.clone(),
        }
    }
}

impl<T> Sender<T> {
    /// Send, blocking (by implicit reschedule) while the buffer is
    /// full.
    ///
    /// # Errors
    ///
    /// [`SendError`] when the channel is closed.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        // The implicit reschedule of blocking channel operations:
        // goroutines rotate through the run queues, external threads
        // yield to the kernel. Go offers no user-visible yield.
        self.ch.send(value, relax())
    }

    /// Non-blocking send attempt (`select` with `default`).
    ///
    /// # Errors
    ///
    /// See [`lwt_sync::Channel::try_send`].
    pub fn try_send(&self, value: T) -> Result<(), lwt_sync::TrySendError<T>> {
        self.ch.try_send(value)
    }

    /// Close the channel (`close(ch)`).
    pub fn close(&self) {
        self.ch.close();
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "go::Sender(len={})", self.ch.len())
    }
}

/// Receiving half of a channel.
pub struct Receiver<T> {
    ch: Arc<Channel<T>>,
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            ch: self.ch.clone(),
        }
    }
}

impl<T> Receiver<T> {
    /// Receive, blocking (by implicit reschedule) while empty.
    ///
    /// # Errors
    ///
    /// [`RecvError`] once the channel is closed and drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.ch.recv(relax())
    }

    /// Non-blocking receive attempt.
    ///
    /// # Errors
    ///
    /// See [`lwt_sync::Channel::try_recv`].
    pub fn try_recv(&self) -> Result<T, lwt_sync::TryRecvError> {
        self.ch.try_recv()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "go::Receiver(len={})", self.ch.len())
    }
}

/// `sync.WaitGroup`: bulk completion tracking for goroutines.
///
/// ```
/// use lwt_go::{Config, Runtime, WaitGroup};
/// let rt = Runtime::init(Config { num_threads: 2, ..Config::default() });
/// let wg = WaitGroup::new(4);
/// for _ in 0..4 {
///     let wg = wg.clone();
///     rt.go(move || wg.done());
/// }
/// wg.wait();
/// rt.shutdown();
/// ```
#[derive(Clone, Debug)]
pub struct WaitGroup {
    latch: Arc<CountLatch>,
}

impl WaitGroup {
    /// A wait group expecting `count` completions.
    #[must_use]
    pub fn new(count: usize) -> Self {
        WaitGroup {
            latch: Arc::new(CountLatch::new(count)),
        }
    }

    /// Add `n` more expected completions (`wg.Add(n)`).
    pub fn add(&self, n: usize) {
        self.latch.add(n);
    }

    /// Record one completion (`wg.Done()`).
    pub fn done(&self) {
        self.latch.count_down();
    }

    /// Block until all completions arrive (`wg.Wait()`); reschedules
    /// implicitly when called from a goroutine.
    pub fn wait(&self) {
        wait_until(|| self.latch.is_released());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn rt(n: usize) -> Runtime {
        Runtime::init(Config {
            num_threads: n,
            ..Config::default()
        })
    }

    #[test]
    fn goroutines_run() {
        let rt = rt(2);
        let wg = WaitGroup::new(100);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let (wg, hits) = (wg.clone(), hits.clone());
            rt.go(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                wg.done();
            });
        }
        wg.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        rt.shutdown();
    }

    #[test]
    fn channel_join_is_out_of_order_capable() {
        let rt = rt(2);
        let (tx, rx) = rt.channel::<usize>(64);
        for i in 0..64 {
            let tx = tx.clone();
            rt.go(move || tx.send(i).unwrap());
        }
        let mut seen = vec![false; 64];
        for _ in 0..64 {
            seen[rx.recv().unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        rt.shutdown();
    }

    #[test]
    fn bounded_channel_backpressure_reschedules() {
        let rt = rt(1);
        let (tx, rx) = rt.channel::<u32>(1);
        // Producer goroutine outpaces the buffer; its sends must
        // implicitly reschedule instead of deadlocking the single
        // scheduler thread.
        let txc = tx.clone();
        rt.go(move || {
            for i in 0..100 {
                txc.send(i).unwrap();
            }
            txc.close();
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        rt.shutdown();
    }

    #[test]
    fn goroutine_to_goroutine_pipeline() {
        let rt = rt(2);
        let (tx1, rx1) = rt.channel::<u64>(4);
        let (tx2, rx2) = rt.channel::<u64>(4);
        rt.go(move || {
            for i in 0..50 {
                tx1.send(i).unwrap();
            }
            tx1.close();
        });
        rt.go(move || {
            while let Ok(v) = rx1.recv() {
                tx2.send(v * 2).unwrap();
            }
            tx2.close();
        });
        let mut sum = 0;
        while let Ok(v) = rx2.recv() {
            sum += v;
        }
        assert_eq!(sum, 2 * (0..50).sum::<u64>());
        rt.shutdown();
    }

    #[test]
    fn nested_go_spawns() {
        let rt = rt(2);
        let wg = WaitGroup::new(10);
        let rt2 = rt.clone();
        let wg2 = wg.clone();
        rt.go(move || {
            for _ in 0..10 {
                let wg = wg2.clone();
                rt2.go(move || wg.done());
            }
        });
        wg.wait();
        rt.shutdown();
    }

    #[test]
    fn waitgroup_add_extends() {
        let rt = rt(1);
        let wg = WaitGroup::new(1);
        wg.add(1);
        let (a, b) = (wg.clone(), wg.clone());
        rt.go(move || a.done());
        rt.go(move || b.done());
        wg.wait();
        rt.shutdown();
    }

    #[test]
    fn close_wakes_receivers() {
        let rt = rt(1);
        let (tx, rx) = rt.channel::<u8>(1);
        rt.go(move || tx.close());
        assert_eq!(rx.recv(), Err(RecvError));
        rt.shutdown();
    }

    #[test]
    fn shutdown_idempotent_and_drop_safe() {
        let rt = rt(2);
        let wg = WaitGroup::new(1);
        let w = wg.clone();
        rt.go(move || w.done());
        wg.wait();
        rt.shutdown();
        rt.shutdown();
        drop(rt);
    }
}

/// Result of a two-way [`select2`].
#[derive(Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    /// A message from the first channel.
    Left(A),
    /// A message from the second channel.
    Right(B),
}

/// A two-way `select { case <-a: …; case <-b: … }`: blocks (with the
/// goroutine's implicit reschedule) until either channel yields a
/// message, preferring whichever is ready first; alternates the polling
/// order to avoid starving one arm.
///
/// # Errors
///
/// [`RecvError`] once *both* channels are closed and drained.
pub fn select2<A, B>(a: &Receiver<A>, b: &Receiver<B>) -> Result<Either<A, B>, RecvError> {
    let mut relax = relax();
    let mut flip = false;
    loop {
        let (mut a_closed, mut b_closed) = (false, false);
        if flip {
            match b.try_recv() {
                Ok(v) => return Ok(Either::Right(v)),
                Err(lwt_sync::TryRecvError::Closed) => b_closed = true,
                Err(lwt_sync::TryRecvError::Empty) => {}
            }
            match a.try_recv() {
                Ok(v) => return Ok(Either::Left(v)),
                Err(lwt_sync::TryRecvError::Closed) => a_closed = true,
                Err(lwt_sync::TryRecvError::Empty) => {}
            }
        } else {
            match a.try_recv() {
                Ok(v) => return Ok(Either::Left(v)),
                Err(lwt_sync::TryRecvError::Closed) => a_closed = true,
                Err(lwt_sync::TryRecvError::Empty) => {}
            }
            match b.try_recv() {
                Ok(v) => return Ok(Either::Right(v)),
                Err(lwt_sync::TryRecvError::Closed) => b_closed = true,
                Err(lwt_sync::TryRecvError::Empty) => {}
            }
        }
        if a_closed && b_closed {
            return Err(RecvError);
        }
        flip = !flip;
        relax();
    }
}

#[cfg(test)]
mod select_tests {
    use super::*;

    #[test]
    fn select_takes_whichever_is_ready() {
        let rt = Runtime::init(Config {
            num_threads: 2,
            ..Config::default()
        });
        let (tx_a, rx_a) = rt.channel::<u32>(4);
        let (tx_b, rx_b) = rt.channel::<&'static str>(4);
        rt.go(move || tx_a.send(7).unwrap());
        match select2(&rx_a, &rx_b).unwrap() {
            Either::Left(v) => assert_eq!(v, 7),
            Either::Right(_) => panic!("b never sent"),
        }
        rt.go(move || tx_b.send("hi").unwrap());
        match select2(&rx_a, &rx_b).unwrap() {
            Either::Right(v) => assert_eq!(v, "hi"),
            Either::Left(_) => panic!("a is empty"),
        }
        rt.shutdown();
    }

    #[test]
    fn select_drains_both_arms_without_starvation() {
        let rt = Runtime::init(Config {
            num_threads: 2,
            ..Config::default()
        });
        let (tx_a, rx_a) = rt.channel::<u32>(64);
        let (tx_b, rx_b) = rt.channel::<u32>(64);
        rt.go(move || {
            for i in 0..50 {
                tx_a.send(i).unwrap();
            }
            tx_a.close();
        });
        rt.go(move || {
            for i in 50..100 {
                tx_b.send(i).unwrap();
            }
            tx_b.close();
        });
        let mut got = Vec::new();
        while let Ok(msg) = select2(&rx_a, &rx_b) {
            got.push(match msg {
                Either::Left(v) | Either::Right(v) => v,
            });
        }
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        rt.shutdown();
    }

    #[test]
    fn select_reports_closed_when_both_done() {
        let rt = Runtime::init(Config {
            num_threads: 1,
            ..Config::default()
        });
        let (tx_a, rx_a) = rt.channel::<u8>(1);
        let (tx_b, rx_b) = rt.channel::<u8>(1);
        tx_a.close();
        tx_b.close();
        assert_eq!(select2(&rx_a, &rx_b), Err(RecvError));
        rt.shutdown();
    }
}
