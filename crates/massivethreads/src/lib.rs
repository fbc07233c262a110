//! # lwt-massive — a MassiveThreads-model lightweight-thread runtime
//!
//! From-scratch Rust implementation of the programming model the paper
//! describes for MassiveThreads (Nakashima & Taura): "a
//! recursion-oriented LWT solution that follows the work-first
//! scheduling policy".
//!
//! * **Workers** are hardware resources (one OS thread each); their
//!   count is fixed at init (`MYTH_NUM_WORKERS`).
//! * Each worker owns a ready queue ([`lwt_sched::ReadyQueue`]: a
//!   lock-free Chase-Lev deque plus an MPSC inbox for cross-worker
//!   submissions); **load balance is pursued with random work
//!   stealing** — an idle worker steals another worker's oldest ULT
//!   from the deque's far end. (Real MassiveThreads guards its deque
//!   with a mutex; the spawn/join fast-path redesign trades that for
//!   the lock-free structure while keeping the same owner-LIFO /
//!   thief-FIFO discipline.)
//! * **Creation policies** ([`Policy`]): *work-first* (`myth_create`
//!   default — "when a new ULT is created, it is immediately executed,
//!   and the current ULT is moved into a ready queue") and *help-first*
//!   (the child is queued, the parent continues). The paper benchmarks
//!   both as "MassiveThreads (W)" and "MassiveThreads (H)".
//! * **Joins park** (`myth_join`): a ULT joining an unfinished child
//!   suspends instead of spinning, and the worker that finishes the
//!   child pushes the joiner back onto its own deque — the same
//!   stealable-continuation path the work-first parent takes.
//!
//! Unlike the other runtimes in this workspace, the *main program runs
//! as a ULT* ([`Runtime::run`]) — exactly as `myth_init` turns `main`
//! into a user-level thread. This is what produces the paper's
//! signature Fig. 2 curves: under help-first the main ULT creates all
//! work units into **its own worker's queue** at constant cost and lets
//! stealing distribute them; under work-first the main flow itself
//! migrates from worker to worker as each spawn displaces it.
//!
//! ## Example
//!
//! ```
//! use lwt_massive::{Config, Policy, Runtime};
//!
//! let rt = Runtime::init(Config { num_workers: 2, ..Config::default() });
//! let out = rt.run(|rt| {
//!     let h = rt.spawn(|| 40 + 2);
//!     h.join()
//! });
//! assert_eq!(out, 42);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::Arc;

use lwt_fiber::StackSize;
use lwt_metrics::registry::emit;
use lwt_metrics::EventKind;
use lwt_sched::{RandomVictim, ReadyQueue};
use lwt_ultcore::kernel::{self, ReadyPolicy, Victims, Workers};
use lwt_ultcore::{
    park_join, wait_until, yield_to, DrainError, PollTask, ReadyUnit, Requeue, Ult, UltCore,
};

pub use lwt_ultcore::{current_worker, in_ult, yield_now, JoinError};

/// ULT creation policy (`MYTH_CHILD_FIRST` / help-first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Child runs immediately; the parent continuation is pushed onto
    /// the spawning worker's own deque — the owner resumes it LIFO
    /// once the child is done, and idle workers can steal it from the
    /// deque's old end meanwhile. MassiveThreads' default; the paper's
    /// "(W)" series.
    #[default]
    WorkFirst,
    /// Child is queued; the parent keeps running. The paper's "(H)"
    /// series, which wins its Figs. 2/4.
    HelpFirst,
}

/// Runtime configuration (`myth_init` environment).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of workers (`MYTH_NUM_WORKERS`).
    pub num_workers: usize,
    /// Default creation policy (overridable per spawn).
    pub policy: Policy,
    /// ULT stack size (`MYTH_DEF_STKSIZE`).
    pub stack_size: StackSize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            num_workers: std::thread::available_parallelism().map_or(4, usize::from),
            policy: Policy::default(),
            stack_size: StackSize::DEFAULT,
        }
    }
}

struct RtInner {
    /// ULTs and stackless future tasks share the queues
    /// ([`ReadyUnit`]).
    queues: Vec<ReadyQueue<ReadyUnit>>,
    /// The workers; every push site notifies their park group
    /// (wake-one).
    workers: Workers,
    policy: Policy,
    stack_size: StackSize,
}

/// The MassiveThreads-model runtime. Cheap to clone.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

thread_local! {
    /// Identity ([`RtInner`] address) of the runtime whose worker loop
    /// runs on this thread; 0 elsewhere.
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

/// Read [`WORKER_OF`] through an opaque call: a ULT resumes on another
/// worker thread after a switch, and an inlined TLS address computed
/// before it would be stale (see `lwt_ultcore`'s `worker_ptr`).
#[inline(never)]
fn worker_of() -> usize {
    WORKER_OF.with(Cell::get)
}

/// Join handle for a spawned ULT (`myth_thread_t` + `myth_join`).
pub struct Handle<T> {
    ult: Ult<T>,
    /// Identity of the spawning runtime (see [`WORKER_OF`]).
    rt: usize,
}

impl<T> Handle<T> {
    /// Wait for completion (`myth_join`) and take the result, surfacing
    /// an escaped panic as a [`JoinError`] instead of re-raising it.
    /// A ULT of this runtime *parks* on the child: it leaves its worker
    /// free to run (and steal) other work, and the worker that finishes
    /// the child pushes the joiner back onto its own deque. Any other
    /// caller waits with spin-then-yield.
    ///
    /// # Errors
    ///
    /// [`JoinError`] carrying the panic payload.
    pub fn try_join(mut self) -> Result<T, JoinError> {
        let core = self.ult.core();
        if in_ult() && worker_of() == self.rt {
            park_join(core);
        } else {
            wait_until(|| core.is_terminated());
        }
        // Causal join edge: this context observed the unit's completion.
        lwt_metrics::span::on_join(core.span_id());
        if let Some(p) = core.take_panic() {
            return Err(JoinError::new(p));
        }
        Ok(self.ult.take().expect("massivethreads result missing"))
    }

    /// Wait for completion and take the result.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the ULT's closure.
    pub fn join(self) -> T {
        self.try_join().unwrap_or_else(|e| e.resume())
    }

    /// Non-consuming completion test.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.ult.core().is_terminated()
    }
}

impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("massive::Handle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl Runtime {
    /// Initialize workers (`myth_init`).
    ///
    /// # Panics
    ///
    /// Panics if `config.num_workers` is zero.
    #[must_use]
    pub fn init(config: Config) -> Self {
        assert!(config.num_workers > 0, "need at least one worker");
        let inner = Arc::new(RtInner {
            queues: (0..config.num_workers).map(|_| ReadyQueue::new()).collect(),
            workers: Workers::new(config.num_workers, "massivethreads"),
            policy: config.policy,
            stack_size: config.stack_size,
        });
        for w in 0..config.num_workers {
            let rt = inner.clone();
            inner.workers.spawn(format!("myth-w{w}"), move || {
                // The thread is this worker for the rest of its life.
                WORKER_OF.with(|c| c.set(Arc::as_ptr(&rt) as usize));
                kernel::run(&rt, w);
            });
        }
        Runtime { inner }
    }

    /// [`Runtime::init`] with defaults.
    #[must_use]
    pub fn init_default() -> Self {
        Self::init(Config::default())
    }

    /// Number of workers.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// The configured default creation policy.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.inner.policy
    }

    /// Run `f` as the primary ULT (what `myth_init` does to `main`) and
    /// wait for its result from the calling (external) thread.
    ///
    /// Spawns inside `f` follow the configured policy; under work-first
    /// the "main flow" migrates between workers exactly as the paper
    /// describes for MassiveThreads (W).
    pub fn run<T, F>(&self, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&Runtime) -> T + Send + 'static,
    {
        let rt = self.clone();
        let mut ult = Ult::new(self.inner.stack_size, move || f(&rt));
        emit(EventKind::UltSpawn, 0);
        let core = ult.core();
        self.place(core.clone().into());
        wait_until(|| core.is_terminated());
        lwt_metrics::span::on_join(core.span_id());
        if let Some(p) = core.take_panic() {
            std::panic::resume_unwind(p);
        }
        ult.take().expect("primary ULT result missing")
    }

    /// Create a ULT under the configured policy (`myth_create`).
    pub fn spawn<T, F>(&self, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_with(self.inner.policy, f)
    }

    /// Create a ULT under an explicit policy
    /// (`myth_create_ex` with custom options).
    pub fn spawn_with<T, F>(&self, policy: Policy, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let ult = Ult::new(self.inner.stack_size, f);
        // `arg` records the spawn path the paper benchmarks separately:
        // 1 = work-first ("(W)"), 0 = help-first ("(H)").
        emit(
            EventKind::UltSpawn,
            u64::from(policy == Policy::WorkFirst),
        );
        // Work-first from inside a ULT: run the child now; the
        // post-switch protocol pushes the parent onto the current
        // worker's deque, where it can be stolen. A lost claim (cannot
        // normally happen for a fresh ULT) degrades to help-first.
        let work_first = policy == Policy::WorkFirst && in_ult() && current_worker().is_some();
        if !(work_first && yield_to(ult.core())) {
            self.place(ult.core().clone().into());
        }
        Handle {
            ult,
            rt: Arc::as_ptr(&self.inner) as usize,
        }
    }

    /// Help-first placement. From a worker: straight onto its own
    /// deque (the zero-allocation owner fast path), waking a thief so a
    /// parked pool still spreads the load. From an external thread:
    /// into worker 0's inbox, waking worker 0, which batches it onto
    /// its deque for thieves to steal from there (the paper's
    /// MassiveThreads (H) shape).
    fn place(&self, unit: ReadyUnit) {
        let target = current_worker()
            .filter(|&w| w < self.inner.queues.len())
            .unwrap_or(0);
        self.inner.post(target, unit);
    }

    /// Enqueue a stackless future task with help-first placement — a
    /// polled task cannot displace its poller.
    pub fn post_task(&self, task: Arc<dyn PollTask>) {
        self.place(ReadyUnit::Task(task));
    }

    /// Enqueue a stackless future task on worker `worker`'s queue —
    /// internal placement the ULT API deliberately does not expose
    /// (the work-first scheduler owns ULT placement; tasks have no
    /// displacement semantics, so pinning them is harmless).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn post_task_to(&self, worker: usize, task: Arc<dyn PollTask>) {
        self.inner.post(worker, ReadyUnit::Task(task));
    }

    /// Stop all workers and join their OS threads (`myth_fini`).
    /// Idempotent. Unbounded: a ULT yield-looping on a join that can
    /// never be satisfied keeps its queue occupied forever — use
    /// [`Runtime::shutdown_within`] to degrade gracefully instead.
    pub fn shutdown(&self) {
        self.inner.workers.shutdown();
    }

    /// [`Runtime::shutdown`] with a drain deadline: wait up to
    /// `deadline` for the workers to drain their deques, then order
    /// them to abandon the rest and report stragglers. Workers are
    /// joined either way — on `Err` nothing is still running, but the
    /// listed units never completed. Idempotent (later calls return
    /// `Ok`).
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
        f.debug_struct("massive::Runtime")
            .field("workers", &self.num_workers())
            .field("policy", &self.inner.policy)
            .finish()
    }
}

/// Where a ULT that becomes runnable again on worker `w` goes.
impl Requeue for RtInner {
    /// A yielding ULT goes to the *back* of the worker's queue (the
    /// inbox): the owner pops its deque LIFO first, so queued work runs
    /// before the yielder comes round again.
    fn requeue(&self, worker: usize, u: Arc<UltCore>) {
        self.queues[worker].inject(u.into());
        self.workers.park_group().notify_near(worker);
    }

    /// A parent displaced by a work-first spawn, or a joiner woken by
    /// its child's exit, goes on top of the worker's own deque: the
    /// owner resumes it next (LIFO), and a thief can take it from the
    /// old end meanwhile — the paper's "another thread steals the main
    /// task".
    fn displace(&self, worker: usize, u: Arc<UltCore>) {
        self.queues[worker].push(u.into());
        self.workers.park_group().notify_near(worker);
    }

    /// Work-first's other half: a finishing child switches straight
    /// into the worker's newest ULT — normally the parent it displaced
    /// — instead of bouncing through the scheduler loop first.
    fn resume_next(&self, worker: usize) -> Option<Arc<UltCore>> {
        kernel::pop_own_ult(self, worker)
    }
}

impl ReadyPolicy for RtInner {
    const STRAGGLER: &'static str = "worker deque";

    fn queues(&self) -> &[ReadyQueue<ReadyUnit>] {
        &self.queues
    }

    fn workers(&self) -> &Workers {
        &self.workers
    }

    /// Own queue first (depth-first), then one random victim per dry
    /// pop. A loaded victim the random picks keep missing still aborts
    /// the park: the re-check counts every other worker's deque.
    fn victims(&self, me: usize) -> Victims {
        let seed = (0x9E37_79B9 ^ ((me as u64) << 17)) | 1;
        Victims::Random(RandomVictim::new(self.queues.len(), seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwt_sync::SpinLock;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn rt(workers: usize, policy: Policy) -> Runtime {
        Runtime::init(Config {
            num_workers: workers,
            policy,
            stack_size: StackSize(32 * 1024),
        })
    }

    #[test]
    fn run_executes_main_as_ult() {
        let rt = rt(2, Policy::HelpFirst);
        let was_ult = rt.run(|_| in_ult());
        assert!(was_ult);
        rt.shutdown();
    }

    #[test]
    fn spawn_help_first_parent_continues() {
        let rt = rt(1, Policy::HelpFirst);
        let order = Arc::new(SpinLock::new(Vec::new()));
        let o = order.clone();
        rt.run(move |rt| {
            let o2 = o.clone();
            let h = rt.spawn(move || o2.lock().push("child"));
            o.lock().push("parent-after-spawn");
            h.join();
        });
        // Help-first on one worker: parent records first.
        assert_eq!(order.lock().clone(), vec!["parent-after-spawn", "child"]);
        rt.shutdown();
    }

    #[test]
    fn spawn_work_first_child_runs_immediately() {
        let rt = rt(1, Policy::WorkFirst);
        let order = Arc::new(SpinLock::new(Vec::new()));
        let o = order.clone();
        rt.run(move |rt| {
            let o2 = o.clone();
            let h = rt.spawn(move || o2.lock().push("child"));
            o.lock().push("parent-after-spawn");
            h.join();
        });
        // Work-first: the child preempts the parent.
        assert_eq!(order.lock().clone(), vec!["child", "parent-after-spawn"]);
        rt.shutdown();
    }

    #[test]
    fn recursive_fib_work_first() {
        let rt = rt(2, Policy::WorkFirst);
        fn fib(rt: &Runtime, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let rt2 = rt.clone();
            let h = rt.spawn(move || fib(&rt2, n - 1));
            let b = fib(rt, n - 2);
            h.join() + b
        }
        let out = rt.run(|rt| fib(rt, 12));
        assert_eq!(out, 144);
        rt.shutdown();
    }

    #[test]
    fn recursive_fib_help_first() {
        let rt = rt(2, Policy::HelpFirst);
        fn fib(rt: &Runtime, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let rt2 = rt.clone();
            let h = rt.spawn(move || fib(&rt2, n - 1));
            let b = fib(rt, n - 2);
            h.join() + b
        }
        let out = rt.run(|rt| fib(rt, 12));
        assert_eq!(out, 144);
        rt.shutdown();
    }

    #[test]
    fn external_spawn_lands_on_worker_zero_queue() {
        let rt = rt(2, Policy::HelpFirst);
        let handles: Vec<_> = (0..50).map(|i| rt.spawn(move || i)).collect();
        let sum: usize = handles.into_iter().map(Handle::join).sum();
        assert_eq!(sum, 50 * 49 / 2);
        rt.shutdown();
    }

    #[test]
    fn work_is_stolen_across_workers() {
        let rt = rt(4, Policy::HelpFirst);
        let seen = Arc::new(SpinLock::new(std::collections::HashSet::new()));
        let handles: Vec<_> = (0..200)
            .map(|_| {
                let seen = seen.clone();
                rt.spawn(move || {
                    seen.lock().insert(current_worker().unwrap());
                    // Give thieves a window.
                    std::thread::yield_now();
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        // All spawned to worker 0; stealing must have spread them.
        let seen = seen.lock().clone();
        assert!(seen.len() > 1, "no work stealing happened: {seen:?}");
        rt.shutdown();
    }

    #[test]
    fn yields_work_inside_ults() {
        let rt = rt(1, Policy::HelpFirst);
        let v = rt.run(|rt| {
            let h = rt.spawn(|| {
                for _ in 0..3 {
                    yield_now();
                }
                5
            });
            h.join()
        });
        assert_eq!(v, 5);
        rt.shutdown();
    }

    #[test]
    fn per_spawn_policy_override() {
        let rt = rt(1, Policy::WorkFirst);
        let order = Arc::new(SpinLock::new(Vec::new()));
        let o = order.clone();
        rt.run(move |rt| {
            let o2 = o.clone();
            let h = rt.spawn_with(Policy::HelpFirst, move || o2.lock().push("child"));
            o.lock().push("parent");
            h.join();
        });
        assert_eq!(order.lock().clone(), vec!["parent", "child"]);
        rt.shutdown();
    }

    #[test]
    fn counts_are_exact_under_load() {
        let rt = rt(3, Policy::WorkFirst);
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        rt.run(move |rt| {
            let handles: Vec<_> = (0..300)
                .map(|_| {
                    let c = c2.clone();
                    rt.spawn(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 300);
        rt.shutdown();
    }

    #[test]
    fn panic_propagates_through_run_and_join() {
        let rt = rt(1, Policy::HelpFirst);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|_| panic!("myth boom"))
        }))
        .expect_err("run must re-raise");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"myth boom"));
        rt.shutdown();
    }

    /// Run `f` on a helper thread and fail if it has not finished
    /// within `limit` — the hang a missing wake or an unreachable
    /// continuation turns into.
    fn within<T: Send + 'static>(
        limit: std::time::Duration,
        what: &str,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        // On a timeout the runner is wedged and stays detached.
        let out = rx
            .recv_timeout(limit)
            .unwrap_or_else(|_| panic!("{what}: no result within {limit:?}"));
        runner.join().expect("runner sent its result");
        out
    }

    #[test]
    fn displaced_parent_is_stolen_by_the_idle_worker() {
        // The child spins on its worker without ever yielding, so only
        // the other worker can run the displaced parent — which it can
        // only reach by stealing it from the spawning worker's deque.
        let rt = rt(2, Policy::WorkFirst);
        let r2 = rt.clone();
        let (child_worker, parent_worker) = within(
            std::time::Duration::from_secs(20),
            "displaced parent never ran",
            move || {
                r2.run(|rt| {
                    let flag = Arc::new(AtomicBool::new(false));
                    let f2 = flag.clone();
                    let h = rt.spawn(move || {
                        while !f2.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        current_worker().unwrap()
                    });
                    let parent_worker = current_worker().unwrap();
                    flag.store(true, Ordering::Release);
                    (h.join(), parent_worker)
                })
            },
        );
        assert_ne!(child_worker, parent_worker, "parent resumed beside its spinning child");
        rt.shutdown();
    }

    #[test]
    fn join_on_a_running_child_parks_and_returns_its_value() {
        // Every child is still yield-looping when its parent joins it,
        // so each join takes the parking path; on 2 and 4 workers the
        // children (help-first) or the parent (work-first) are stolen.
        for policy in [Policy::WorkFirst, Policy::HelpFirst] {
            for workers in [1, 2, 4] {
                let rt = rt(workers, policy);
                let r2 = rt.clone();
                let sum = within(
                    std::time::Duration::from_secs(20),
                    "parked joiner never woke",
                    move || {
                        r2.run(|rt| {
                            let go = Arc::new(AtomicBool::new(false));
                            let handles: Vec<_> = (0..64u64)
                                .map(|i| {
                                    let go = go.clone();
                                    rt.spawn(move || {
                                        while !go.load(Ordering::Acquire) {
                                            yield_now();
                                        }
                                        i * i
                                    })
                                })
                                .collect();
                            go.store(true, Ordering::Release);
                            handles.into_iter().map(Handle::join).sum::<u64>()
                        })
                    },
                );
                assert_eq!(sum, (0..64u64).map(|i| i * i).sum(), "{policy:?} × {workers}");
                rt.shutdown();
            }
        }
    }

    #[test]
    fn shutdown_idempotent_and_drop_safe() {
        let rt = rt(2, Policy::WorkFirst);
        rt.run(|_| ());
        rt.shutdown();
        rt.shutdown();
        drop(rt);
    }
}
