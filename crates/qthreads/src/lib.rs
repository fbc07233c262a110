//! # lwt-qthreads — a Qthreads-model lightweight-thread runtime
//!
//! From-scratch Rust implementation of the programming model the paper
//! describes for Qthreads (Wheeler, Murphy & Thain): a **three-level
//! hierarchy** — unique in the paper's Table I — of
//!
//! * **Shepherds**: locality domains, each owning one work-unit queue.
//!   Bind one per node, per socket, or per CPU; the paper's evaluation
//!   settles on *one shepherd per CPU* for most benchmarks.
//! * **Workers**: OS threads executing work units, one or more per
//!   shepherd ([`Config::workers_per_shepherd`]).
//! * **Work units**: stackful, yieldable ULTs ([`Runtime::fork`]).
//!
//! Synchronization is word-granularity **full/empty bits**: a fork
//! returns a handle whose join performs `readFF` on the ULT's return
//! word ([`Handle::join`]), and any address can carry a FEB through the
//! runtime's [`FebTable`] ([`Runtime::feb`]) — including the "hidden
//! synchronization" cost the paper warns about. Work can be pushed to
//! the caller's shepherd (`qthread_fork` ≙ [`Runtime::fork`]), to a
//! specific shepherd (`qthread_fork_to` ≙ [`Runtime::fork_to`]), or
//! round-robin over shepherds ([`Runtime::fork_rr`], the paper's
//! microbenchmark dispatch). Loop and reduction helpers
//! ([`Runtime::loop_par`], [`Runtime::loop_accum`]) mirror
//! `qt_loop`/`qt_loopaccum`.
//!
//! ## Example
//!
//! ```
//! use lwt_qthreads::{Config, Runtime};
//!
//! let rt = Runtime::init(Config { num_shepherds: 2, ..Config::default() });
//! let h = rt.fork(|| 21 * 2);
//! assert_eq!(h.join(), 42);
//! let sum = rt.loop_accum(0..100usize, 0usize, |i| i, |a, b| a + b);
//! assert_eq!(sum, 4950);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]

pub mod qutil;
pub mod structures;

use std::ops::Range;
use std::sync::Arc;

use lwt_fiber::StackSize;
use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::EventKind;
use lwt_sched::{ReadyQueue, RoundRobin};
use lwt_sync::{FebCell, FebTable};
use lwt_ultcore::kernel::{self, ReadyPolicy, Victims, Workers};
use lwt_ultcore::{relax, wait_until, DrainError, PollTask, ReadyUnit, Requeue, Ult, UltCore};

pub use lwt_sync::FebTable as Feb;
pub use lwt_ultcore::{current_worker, in_ult, yield_now, JoinError};

/// Runtime configuration (`qthread_initialize` environment).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of shepherds (`QTHREAD_NUM_SHEPHERDS`).
    pub num_shepherds: usize,
    /// Workers per shepherd (`QTHREAD_NUM_WORKERS_PER_SHEPHERD`).
    pub workers_per_shepherd: usize,
    /// ULT stack size (`QTHREAD_STACK_SIZE`).
    pub stack_size: StackSize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            num_shepherds: std::thread::available_parallelism().map_or(4, usize::from),
            workers_per_shepherd: 1,
            stack_size: StackSize::DEFAULT,
        }
    }
}

struct RtInner {
    /// One ready queue per *worker*; a shepherd's queue of the paper
    /// is realised as its workers' queues plus same-shepherd stealing,
    /// so work still never leaves its locality domain.
    queues: Vec<ReadyQueue<ReadyUnit>>,
    /// Shepherd id → the global worker ids it owns.
    shepherd_workers: Vec<Vec<usize>>,
    /// Per-shepherd round-robin for external dispatch into it.
    shepherd_rr: Vec<RoundRobin>,
    /// Global worker id → shepherd id.
    worker_shepherd: Vec<usize>,
    /// The worker threads. Notifies pass the target worker as the
    /// park group's scan hint: stealing is shepherd-scoped, and worker
    /// ids are laid out shepherd-major, so the nearest announced
    /// sleeper is one that can actually reach the work.
    workers: Workers,
    rr: RoundRobin,
    stack_size: StackSize,
    feb: FebTable,
}

/// The Qthreads-model runtime. Cheap to clone.
///
/// The calling thread is external: it forks and joins but does not
/// execute work units (the paper's master-thread pattern).
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

/// Handle to a forked work unit; joining performs `readFF` on the
/// unit's full/empty return word.
pub struct Handle<T> {
    ult: Ult<T>,
    ret: Arc<FebCell<u64>>,
}

impl<T> Handle<T> {
    /// Wait for completion (`qthread_readFF` on the return word) and
    /// take the result, surfacing an escaped panic as a [`JoinError`]
    /// instead of re-raising it.
    ///
    /// # Errors
    ///
    /// [`JoinError`] carrying the panic payload.
    pub fn try_join(mut self) -> Result<T, JoinError> {
        // The FEB is the paper-faithful join signal … (the FebCell
        // itself emits the FebBlock/FebWake ring events, span-tagged;
        // the counters stay here because they count *joins* that
        // blocked, the §IX-C formula the fidelity tests assert).
        if self.ret.is_full() {
            self.ret.read_ff(relax());
        } else {
            COUNTERS.feb_blocks.inc();
            self.ret.read_ff(relax());
            COUNTERS.feb_wakes.inc();
        }
        // … and TERMINATED is the memory-safety contract for the slot.
        let core = self.ult.core();
        wait_until(|| core.is_terminated());
        // Causal join edge: this context observed the unit's completion.
        lwt_metrics::span::on_join(core.span_id());
        if let Some(p) = core.take_panic() {
            return Err(JoinError::new(p));
        }
        Ok(self.ult.take().expect("qthreads result missing"))
    }

    /// Wait for completion and take the result.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the work unit's closure.
    pub fn join(self) -> T {
        self.try_join().unwrap_or_else(|e| e.resume())
    }

    /// Non-consuming completion test (`qthread_feb_status`).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.ret.is_full()
    }
}

impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("qthreads::Handle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl Runtime {
    /// Initialize shepherds and workers (`qthread_initialize`).
    ///
    /// # Panics
    ///
    /// Panics if either hierarchy dimension is zero.
    #[must_use]
    pub fn init(config: Config) -> Self {
        assert!(config.num_shepherds > 0, "need at least one shepherd");
        assert!(config.workers_per_shepherd > 0, "need at least one worker");
        let mut worker_shepherd = Vec::new();
        let mut shepherd_workers = vec![Vec::new(); config.num_shepherds];
        for s in 0..config.num_shepherds {
            for _ in 0..config.workers_per_shepherd {
                shepherd_workers[s].push(worker_shepherd.len());
                worker_shepherd.push(s);
            }
        }
        let inner = Arc::new(RtInner {
            queues: (0..worker_shepherd.len()).map(|_| ReadyQueue::new()).collect(),
            shepherd_workers,
            shepherd_rr: (0..config.num_shepherds)
                .map(|_| RoundRobin::new(config.workers_per_shepherd))
                .collect(),
            workers: Workers::new(worker_shepherd.len(), "qthreads"),
            worker_shepherd,
            rr: RoundRobin::new(config.num_shepherds),
            stack_size: config.stack_size,
            feb: FebTable::default(),
        });
        for (worker_id, &shep) in inner.worker_shepherd.iter().enumerate() {
            let rt = inner.clone();
            let name = format!("qth-s{shep}-w{worker_id}");
            inner
                .workers
                .spawn(name, move || kernel::run(&rt, worker_id));
        }
        Runtime { inner }
    }

    /// [`Runtime::init`] with defaults (one shepherd per CPU, one
    /// worker each — the paper's preferred configuration).
    #[must_use]
    pub fn init_default() -> Self {
        Self::init(Config::default())
    }

    /// Number of shepherds.
    #[must_use]
    pub fn num_shepherds(&self) -> usize {
        self.inner.shepherd_workers.len()
    }

    /// Total number of workers.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.inner.worker_shepherd.len()
    }

    /// The address-keyed full/empty-bit table (`qthread_readFF` &
    /// friends on arbitrary words).
    #[must_use]
    pub fn feb(&self) -> &FebTable {
        &self.inner.feb
    }

    /// Fork into the *caller's* shepherd (`qthread_fork`): the current
    /// worker's shepherd from inside a work unit, shepherd 0 from an
    /// external thread.
    pub fn fork<T, F>(&self, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.fork_to(self.caller_shepherd().unwrap_or(0), f)
    }

    /// Fork round-robin over shepherds — the `qthread_fork_to`
    /// dispatch the paper's microbenchmarks use from the master thread.
    pub fn fork_rr<T, F>(&self, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.fork_to(self.inner.rr.next(), f)
    }

    /// Fork into a specific shepherd's queue (`qthread_fork_to`).
    ///
    /// # Panics
    ///
    /// Panics if `shepherd` is out of range.
    pub fn fork_to<T, F>(&self, shepherd: usize, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let ret = Arc::new(FebCell::new());
        let word = ret.clone();
        let ult = Ult::new(self.inner.stack_size, move || {
            // Fill the return word even if `f` panics (drop guard runs
            // during unwinding): joiners' readFF must always unblock. 0
            // is the aligned_t "success" value qthread_fork writes.
            struct FillOnExit(Arc<FebCell<u64>>);
            impl Drop for FillOnExit {
                fn drop(&mut self) {
                    self.0.write_ef(0, std::hint::spin_loop);
                }
            }
            let _fill = FillOnExit(word);
            f()
        });
        // `arg` = target shepherd: the fork_to dispatch decision.
        emit(EventKind::UltSpawn, shepherd as u64);
        self.place(self.pick(shepherd), ult.core().clone().into());
        Handle { ult, ret }
    }

    /// The shepherd of the worker running the caller, if any.
    fn caller_shepherd(&self) -> Option<usize> {
        current_worker().and_then(|w| self.inner.worker_shepherd.get(w).copied())
    }

    /// The worker a unit placed into `shepherd` lands on: the caller's
    /// own when it already runs inside that shepherd (its deque, the
    /// zero-contention fast path), else the shepherd's workers
    /// round-robin (through their inboxes).
    fn pick(&self, shepherd: usize) -> usize {
        match current_worker() {
            Some(w) if self.inner.worker_shepherd.get(w) == Some(&shepherd) => w,
            _ => self.inner.shepherd_workers[shepherd][self.inner.shepherd_rr[shepherd].next()],
        }
    }

    /// Push first, then wake whoever can run the unit (see
    /// `ReadyPolicy::post` and the ParkGroup docs for why this order
    /// prevents lost wakes).
    fn place(&self, worker: usize, unit: ReadyUnit) {
        self.inner.post(worker, unit);
    }

    /// Enqueue a stackless poll task, reusing `qthread_fork`'s
    /// placement: the caller's own deque when called from a worker
    /// (zero-contention fast path), otherwise round-robin over the
    /// shepherds like an external fork.
    pub fn post_task(&self, task: Arc<dyn PollTask>) {
        let shepherd = self
            .caller_shepherd()
            .unwrap_or_else(|| self.inner.rr.next());
        self.place(self.pick(shepherd), ReadyUnit::Task(task));
    }

    /// Enqueue a stackless poll task onto a specific *worker's* queue
    /// (finer-grained than `fork_to`'s shepherd targeting: a waker must
    /// put the task exactly where the placement policy said).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn post_task_to(&self, worker: usize, task: Arc<dyn PollTask>) {
        self.place(worker, ReadyUnit::Task(task));
    }

    /// Parallel for over `range` (`qt_loop`): one work unit per worker,
    /// statically chunked; joins before returning.
    pub fn loop_par<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let n = range.len();
        if n == 0 {
            return;
        }
        let workers = self.num_workers().max(1);
        let chunk = n.div_ceil(workers);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = f.clone();
                let lo = (range.start + w * chunk).min(range.end);
                let hi = (range.start + (w + 1) * chunk).min(range.end);
                self.fork_rr(move || {
                    for i in lo..hi {
                        f(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
    }

    /// Parallel reduction over `range` (`qt_loopaccum`). `identity`
    /// must be a neutral element of `reduce` (it seeds every partial
    /// accumulator); empty ranges return it unchanged.
    pub fn loop_accum<T, F, R>(&self, range: Range<usize>, identity: T, f: F, reduce: R) -> T
    where
        T: Send + Clone + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
        R: Fn(T, T) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let reduce = Arc::new(reduce);
        let n = range.len();
        if n == 0 {
            return identity;
        }
        let workers = self.num_workers().max(1);
        let chunk = n.div_ceil(workers);
        let handles: Vec<_> = (0..workers)
            .filter_map(|w| {
                let lo = (range.start + w * chunk).min(range.end);
                let hi = (range.start + (w + 1) * chunk).min(range.end);
                if lo >= hi {
                    return None;
                }
                let f = f.clone();
                let reduce = reduce.clone();
                let id = identity.clone();
                Some(self.fork_rr(move || {
                    let mut acc = id;
                    for i in lo..hi {
                        acc = reduce(acc, f(i));
                    }
                    acc
                }))
            })
            .collect();
        let mut acc = identity;
        for h in handles {
            acc = reduce(acc, h.join());
        }
        acc
    }

    /// Stop all workers and join their OS threads
    /// (`qthread_finalize`). Idempotent. Unbounded: a ULT wedged on a
    /// never-filled FEB keeps its queue occupied forever — use
    /// [`Runtime::shutdown_within`] to degrade gracefully instead.
    pub fn shutdown(&self) {
        self.inner.workers.shutdown();
    }

    /// [`Runtime::shutdown`] with a drain deadline: wait up to
    /// `deadline` for the workers to drain their queues, then order
    /// them to abandon the rest and report stragglers. Workers are
    /// joined either way — on `Err` nothing is still running, but the
    /// listed units (typically ULTs wedged on never-filled FEBs) never
    /// completed. Idempotent (later calls return `Ok`).
    ///
    /// # Errors
    ///
    /// [`DrainError`] when the deadline expired with units still
    /// queued or running.
    pub fn shutdown_within(&self, deadline: std::time::Duration) -> Result<(), DrainError> {
        self.inner.drain_within(deadline)
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("qthreads::Runtime")
            .field("shepherds", &self.num_shepherds())
            .field("workers", &self.num_workers())
            .finish()
    }
}

/// Yielded ULTs go to the *back* of their worker's queue (the inbox)
/// so forked children run before a yield-looping joiner.
impl Requeue for RtInner {
    fn requeue(&self, worker: usize, ult: Arc<UltCore>) {
        self.queues[worker].inject(ult.into());
        self.workers.park_group().notify_near(worker);
    }
}

impl ReadyPolicy for RtInner {
    const STRAGGLER: &'static str = "shepherd ready queue";

    fn queues(&self) -> &[ReadyQueue<ReadyUnit>] {
        &self.queues
    }

    fn workers(&self) -> &Workers {
        &self.workers
    }

    /// Stealing stays within the shepherd: work never leaves its
    /// locality domain (the hierarchy the paper's Table I highlights),
    /// and other shepherds' queues are invisible to the park re-check.
    fn victims(&self, me: usize) -> Victims {
        let siblings = &self.shepherd_workers[self.worker_shepherd[me]];
        Victims::List(siblings.iter().copied().filter(|&w| w != me).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn rt(sheps: usize, wps: usize) -> Runtime {
        Runtime::init(Config {
            num_shepherds: sheps,
            workers_per_shepherd: wps,
            stack_size: StackSize(32 * 1024),
        })
    }

    #[test]
    fn fork_join_returns_value() {
        let rt = rt(2, 1);
        assert_eq!(rt.fork(|| 7u64).join(), 7);
        rt.shutdown();
    }

    #[test]
    fn hierarchy_dimensions_report() {
        let rt = rt(2, 3);
        assert_eq!(rt.num_shepherds(), 2);
        assert_eq!(rt.num_workers(), 6);
        rt.shutdown();
    }

    #[test]
    fn fork_to_targets_shepherd() {
        let rt = rt(3, 1);
        for s in 0..3 {
            let h = rt.fork_to(s, move || current_worker());
            // Worker ids are laid out shepherd-major with 1 worker per
            // shepherd, so worker id == shepherd id.
            assert_eq!(h.join(), Some(s));
        }
        rt.shutdown();
    }

    #[test]
    fn fork_rr_round_robins() {
        let rt = rt(2, 1);
        let a = rt.fork_rr(current_worker).join();
        let b = rt.fork_rr(current_worker).join();
        let c = rt.fork_rr(current_worker).join();
        assert_eq!(a, c);
        assert_ne!(a, b);
        rt.shutdown();
    }

    #[test]
    fn many_forks_complete() {
        let rt = rt(2, 2);
        let handles: Vec<_> = (0..300).map(|i| rt.fork_rr(move || i)).collect();
        let sum: usize = handles.into_iter().map(Handle::join).sum();
        assert_eq!(sum, 300 * 299 / 2);
        rt.shutdown();
    }

    #[test]
    fn nested_fork_from_ult_uses_own_shepherd() {
        let rt = rt(2, 1);
        let rt2 = rt.clone();
        let h = rt.fork_to(1, move || {
            // qthread_fork from inside lands on the caller's shepherd.
            rt2.fork(|| current_worker()).join()
        });
        assert_eq!(h.join(), Some(1));
        rt.shutdown();
    }

    #[test]
    fn ults_yield_cooperatively() {
        let rt = rt(1, 1);
        let h = rt.fork(|| {
            for _ in 0..5 {
                yield_now();
            }
            "done"
        });
        assert_eq!(h.join(), "done");
        rt.shutdown();
    }

    #[test]
    fn feb_table_synchronizes_units() {
        let rt = rt(2, 1);
        let addr = 0xABCD_usize;
        let rt2 = rt.clone();
        let producer = rt.fork(move || {
            rt2.feb().write_ef(addr, 31337, || yield_now());
        });
        let rt3 = rt.clone();
        let consumer = rt.fork(move || rt3.feb().read_ff(addr, || yield_now()));
        assert_eq!(consumer.join(), 31337);
        producer.join();
        rt.shutdown();
    }

    #[test]
    fn loop_par_covers_every_index() {
        let rt = rt(2, 2);
        let hits: Arc<Vec<AtomicUsize>> =
            Arc::new((0..500).map(|_| AtomicUsize::new(0)).collect());
        let h2 = hits.clone();
        rt.loop_par(0..500, move |i| {
            h2[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        rt.shutdown();
    }

    #[test]
    fn loop_accum_reduces() {
        let rt = rt(3, 1);
        let total = rt.loop_accum(1..101usize, 0usize, |i| i * i, |a, b| a + b);
        assert_eq!(total, (1..101).map(|i| i * i).sum());
        rt.shutdown();
    }

    #[test]
    fn empty_loop_is_fine() {
        let rt = rt(2, 1);
        rt.loop_par(5..5, |_| panic!("must not run"));
        assert_eq!(rt.loop_accum(5..5, 42, |_| 0, |a, b| a + b), 42);
        rt.shutdown();
    }

    #[test]
    fn panic_propagates_at_join() {
        let rt = rt(1, 1);
        let h = rt.fork(|| panic!("qth boom"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()))
            .expect_err("join must re-raise");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"qth boom"));
        rt.shutdown();
    }

    #[test]
    fn shutdown_idempotent_and_drop_safe() {
        let rt = rt(1, 1);
        rt.fork(|| ()).join();
        rt.shutdown();
        rt.shutdown();
        let rt2 = rt.clone();
        drop(rt);
        drop(rt2);
    }
}
