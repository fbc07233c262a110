//! The generic LWT interface over the five runtime backends.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lwt_fiber::StackSize;
use lwt_sched::{force_wait_policy, WaitPolicy};
use lwt_sync::{Event, SpinLock};
use lwt_ultcore::task::{PollTask, TaskCell, TaskOutcome, TaskResched};
use lwt_ultcore::{blocking, DrainError, JoinError};

use crate::error::{PlacementError, SpawnError};

/// Which runtime model executes the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// `lwt-argobots`: execution streams, private pools, ULTs+tasklets.
    Argobots,
    /// `lwt-qthreads`: shepherds/workers, FEB joins.
    Qthreads,
    /// `lwt-massive`: work-first workers with random stealing.
    MassiveThreads,
    /// `lwt-converse`: processors + messages (work units are messages,
    /// as in the paper's Converse microbenchmarks).
    Converse,
    /// `lwt-go`: global run queue + channel completion.
    Go,
}

impl BackendKind {
    /// All backends, in the paper's Table II column order.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Argobots,
        BackendKind::Qthreads,
        BackendKind::MassiveThreads,
        BackendKind::Converse,
        BackendKind::Go,
    ];

    /// Human-readable backend name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Argobots => "Argobots",
            BackendKind::Qthreads => "Qthreads",
            BackendKind::MassiveThreads => "MassiveThreads",
            BackendKind::Converse => "Converse Threads",
            BackendKind::Go => "Go",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduler/pool topology knob of the unified API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Each execution resource owns a private ready queue; cross-worker
    /// traffic goes through the lock-free injector. Every backend's
    /// default, and the configuration the paper's evaluation selects.
    #[default]
    PrivatePerWorker,
    /// One shared, mutex-protected queue. Only Argobots exposes this
    /// topology (`ABT_POOL_ACCESS_MPMC` ≙ `PoolPolicy::SharedSingle`);
    /// the other backends have no shared-queue mode and ignore the
    /// knob, keeping their private queues.
    SharedQueue,
}

/// Full configuration consumed by [`Glt::with_config`]; normally
/// assembled through [`Glt::builder`].
///
/// ```
/// use lwt_core::{BackendKind, Glt, GltConfig, SchedPolicy};
///
/// let mut cfg = GltConfig::new(BackendKind::Argobots);
/// cfg.workers = 2;
/// cfg.scheduler = SchedPolicy::SharedQueue; // ABT_POOL_ACCESS_MPMC
/// let glt = Glt::with_config(cfg);
/// assert_eq!(glt.workers(), 2);
/// glt.finalize().expect("clean drain");
/// ```
#[derive(Debug, Clone)]
pub struct GltConfig {
    /// Which runtime model executes the work.
    pub backend: BackendKind,
    /// Number of execution resources (streams / shepherds / workers /
    /// processors / scheduler threads). Must be non-zero.
    pub workers: usize,
    /// Stack size for stackful work units.
    pub stack_size: StackSize,
    /// Per-worker stack-cache capacity override. `None` keeps the
    /// process-wide setting (`LWT_STACK_CACHE_CAP`, default 64);
    /// `Some(0)` disables recycling. Note the cache is process-global,
    /// so this override outlives the [`Glt`] instance that set it.
    pub stack_cache_capacity: Option<usize>,
    /// Ready-queue topology (see [`SchedPolicy`]).
    pub scheduler: SchedPolicy,
    /// How long [`Glt::finalize`] waits for in-flight work to drain
    /// before abandoning wedged workers and reporting a
    /// [`DrainError`]. Generous by default (30 s) so healthy workloads
    /// never see it; shrink it in tests that provoke hangs.
    pub drain_timeout: Duration,
    /// Idle-worker wait policy override (mirrors `OMP_WAIT_POLICY`).
    /// `None` keeps the process-wide setting, which itself defaults to
    /// `LWT_WAIT_POLICY` (adaptive when unset). Note the policy is
    /// process-global, so an override outlives the [`Glt`] instance
    /// that set it.
    pub wait_policy: Option<WaitPolicy>,
    /// Growth ceiling override for the [`Glt::spawn_blocking`]
    /// OS-thread pool. `None` keeps the process-wide setting
    /// (`LWT_BLOCKING_THREADS`, default 8); `Some(0)` disables the
    /// pool. Like the stack cache and wait policy, the pool is
    /// process-global, so an override outlives the [`Glt`] instance
    /// that set it.
    pub blocking_threads: Option<usize>,
    /// Queue placement for [`Glt::spawn_async`] tasks (initial
    /// schedule and waker-driven reschedules alike).
    pub async_queue: AsyncQueuePolicy,
}

impl GltConfig {
    /// Defaults for `backend`: workers per [`default_workers`]
    /// (`LWT_WORKERS`, else machine topology), default stacks,
    /// inherited stack-cache capacity, private per-worker queues,
    /// inherited wait policy.
    #[must_use]
    pub fn new(backend: BackendKind) -> Self {
        GltConfig {
            backend,
            workers: default_workers(),
            stack_size: StackSize::DEFAULT,
            stack_cache_capacity: None,
            scheduler: SchedPolicy::default(),
            drain_timeout: Duration::from_secs(30),
            wait_policy: None,
            blocking_threads: None,
            async_queue: AsyncQueuePolicy::default(),
        }
    }
}

/// The worker count new configs start from: `LWT_WORKERS=N` forces `N`
/// execution resources, while `LWT_WORKERS=auto` — or the variable
/// unset, empty, zero, or unparsable — sizes the pool from the machine
/// topology (`available_parallelism`), the analogue of
/// `OMP_NUM_THREADS` defaulting to the core count.
#[must_use]
pub fn default_workers() -> usize {
    workers_from(std::env::var("LWT_WORKERS").ok().as_deref())
}

fn workers_from(spec: Option<&str>) -> usize {
    let auto = || std::thread::available_parallelism().map_or(4, usize::from);
    match spec.map(str::trim) {
        None | Some("") => auto(),
        Some(s) if s.eq_ignore_ascii_case("auto") => auto(),
        Some(s) => s.parse().ok().filter(|&n| n > 0).unwrap_or_else(auto),
    }
}

/// Builder returned by [`Glt::builder`]; every setter is optional.
///
/// ```
/// use lwt_core::{BackendKind, Glt};
///
/// let glt = Glt::builder(BackendKind::Qthreads).workers(2).build();
/// let h = glt.ult_create(|| 6 * 7);
/// assert_eq!(h.join(), 42);
/// glt.finalize().expect("clean drain");
/// ```
#[derive(Debug, Clone)]
pub struct GltBuilder {
    cfg: GltConfig,
}

impl GltBuilder {
    /// Number of execution resources (streams / shepherds / workers /
    /// processors / scheduler threads).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Stack size for stackful work units.
    #[must_use]
    pub fn stack_size(mut self, size: StackSize) -> Self {
        self.cfg.stack_size = size;
        self
    }

    /// Per-worker stack-cache capacity (see
    /// [`GltConfig::stack_cache_capacity`]).
    #[must_use]
    pub fn stack_cache_capacity(mut self, cap: usize) -> Self {
        self.cfg.stack_cache_capacity = Some(cap);
        self
    }

    /// Ready-queue topology.
    #[must_use]
    pub fn scheduler(mut self, policy: SchedPolicy) -> Self {
        self.cfg.scheduler = policy;
        self
    }

    /// Drain deadline for [`Glt::finalize`] (see
    /// [`GltConfig::drain_timeout`]).
    #[must_use]
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.drain_timeout = timeout;
        self
    }

    /// Idle-worker wait policy (see [`GltConfig::wait_policy`]).
    #[must_use]
    pub fn wait_policy(mut self, policy: WaitPolicy) -> Self {
        self.cfg.wait_policy = Some(policy);
        self
    }

    /// Growth ceiling for the [`Glt::spawn_blocking`] OS-thread pool
    /// (see [`GltConfig::blocking_threads`]); `0` disables it.
    #[must_use]
    pub fn blocking_threads(mut self, max: usize) -> Self {
        self.cfg.blocking_threads = Some(max);
        self
    }

    /// Queue placement for [`Glt::spawn_async`] tasks (see
    /// [`AsyncQueuePolicy`]).
    #[must_use]
    pub fn async_queue(mut self, policy: AsyncQueuePolicy) -> Self {
        self.cfg.async_queue = policy;
        self
    }

    /// The accumulated configuration, without starting a runtime.
    #[must_use]
    pub fn config(&self) -> &GltConfig {
        &self.cfg
    }

    /// Start the runtime.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn build(self) -> Glt {
        Glt::with_config(self.cfg)
    }
}

/// Where [`Glt::spawn_async`] tasks are queued, both for the initial
/// schedule and for every waker-driven reschedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AsyncQueuePolicy {
    /// Spread polls over the execution resources: the caller's own
    /// queue when spawned or woken from a worker, round-robin dispatch
    /// otherwise — the same placement the backend's `ult_create` uses.
    #[default]
    RoundRobin,
    /// Pin every poll to one execution resource. Useful when the
    /// future touches worker-local state or to keep a latency-critical
    /// task out of the steal traffic. Validated against the worker
    /// count at [`GltBuilder::build`] time.
    Pinned(usize),
}

/// The reschedule hook for one backend under `policy`: `post` places
/// each (re)scheduled task, `post_to` pins it. The hook owns a clone of
/// the runtime handle, so a late wake from a foreign thread (a
/// blocking-pool completion after the master dropped the runtime) still
/// has somewhere to enqueue.
fn task_poster<R: Clone + Send + Sync + 'static>(
    rt: &R,
    policy: AsyncQueuePolicy,
    post: fn(&R, Arc<dyn PollTask>),
    post_to: fn(&R, usize, Arc<dyn PollTask>),
) -> TaskResched {
    let rt = rt.clone();
    match policy {
        AsyncQueuePolicy::RoundRobin => Arc::new(move |t| post(&rt, t)),
        AsyncQueuePolicy::Pinned(w) => Arc::new(move |t| post_to(&rt, w, t)),
    }
}

#[derive(Clone)]
enum Backend {
    Argobots(lwt_argobots::Runtime),
    Qthreads(lwt_qthreads::Runtime),
    Massive(lwt_massive::Runtime),
    Converse(lwt_converse::Runtime),
    Go(lwt_go::Runtime),
}

/// Completion slot for backends without native typed handles
/// (Converse messages, goroutines).
struct EventSlot<T> {
    done: Event,
    value: SpinLock<Option<T>>,
    panicked: SpinLock<Option<Box<dyn std::any::Any + Send>>>,
    /// Causal span of the work unit (0 when tracing was off at spawn);
    /// carried here so joins through event-backed handles record the
    /// same join edge the native handles do.
    span: u64,
}

impl<T> EventSlot<T> {
    fn new(span: u64) -> Arc<Self> {
        Arc::new(EventSlot {
            done: Event::new(),
            value: SpinLock::new(None),
            panicked: SpinLock::new(None),
            span,
        })
    }

    fn fulfill(&self, out: std::thread::Result<T>) {
        match out {
            Ok(v) => *self.value.lock() = Some(v),
            Err(p) => *self.panicked.lock() = Some(p),
        }
        self.done.set();
    }

    fn try_wait(&self, relax: impl FnMut()) -> Result<T, JoinError> {
        self.done.wait(relax);
        lwt_metrics::span::on_join(self.span);
        if let Some(p) = self.panicked.lock().take() {
            return Err(JoinError::new(p));
        }
        Ok(self.value.lock().take().expect("GLT result missing"))
    }
}

/// Run `f` with `span` current on the executing thread, completing the
/// span afterwards — the execution-side half of the causal trace for
/// work units that travel as bare closures (Converse messages, blocking
/// jobs) instead of span-carrying ULT structures.
fn run_spanned<T>(span: u64, f: impl FnOnce() -> T) -> T {
    if span != 0 {
        lwt_metrics::span::set_current(span);
    }
    let out = f();
    lwt_metrics::span::on_complete(span);
    if span != 0 {
        lwt_metrics::span::set_current(lwt_metrics::span::NO_SPAN);
    }
    out
}

/// Join handle returned by [`Glt::ult_create`] / [`Glt::tasklet_create`].
/// Opaque: the variant (and thus the join mechanism) is the backend's
/// business.
pub struct GltHandle<T> {
    inner: HandleInner<T>,
}

enum HandleInner<T> {
    /// Argobots ULT handle (status-word join).
    AbtUlt(lwt_argobots::UltHandle<T>),
    /// Argobots tasklet handle.
    AbtTasklet(lwt_argobots::TaskletHandle<T>),
    /// Qthreads handle (FEB join).
    Qth(lwt_qthreads::Handle<T>),
    /// MassiveThreads handle.
    Myth(lwt_massive::Handle<T>),
    /// Event-backed completion (Converse messages, goroutines,
    /// blocking-pool jobs).
    Event(Arc<EventSlot<T>>, BackendKind),
    /// Stackless future spawned with [`Glt::spawn_async`]; completion
    /// is the task cell's own done event.
    Async(Arc<dyn TaskOutcome<T>>, BackendKind),
}

impl<T> From<HandleInner<T>> for GltHandle<T> {
    fn from(inner: HandleInner<T>) -> Self {
        GltHandle { inner }
    }
}

impl<T> GltHandle<T> {
    /// Wait for completion (the backend's native join mechanism
    /// underneath) and take the result, surfacing a panic that escaped
    /// the work unit as a [`JoinError`] instead of re-raising it.
    ///
    /// ```
    /// use lwt_core::{BackendKind, Glt};
    ///
    /// let glt = Glt::builder(BackendKind::Argobots).workers(1).build();
    /// assert_eq!(glt.ult_create(|| 6 * 7).try_join().unwrap(), 42);
    /// // A panic inside the work unit comes back as a JoinError
    /// // instead of tearing down the joiner:
    /// let boom = glt.ult_create(|| -> u32 { panic!("unit failed") });
    /// assert!(boom.try_join().is_err());
    /// glt.finalize().expect("clean drain");
    /// ```
    ///
    /// # Errors
    ///
    /// [`JoinError`] carrying the panic payload.
    pub fn try_join(self) -> Result<T, JoinError> {
        match self.inner {
            HandleInner::AbtUlt(h) => h.try_join(),
            HandleInner::AbtTasklet(h) => h.try_join(),
            HandleInner::Qth(h) => h.try_join(),
            HandleInner::Myth(h) => h.try_join(),
            HandleInner::Event(slot, kind) => slot.try_wait(relax_for(kind)),
            HandleInner::Async(outcome, kind) => {
                outcome.done().wait(relax_for(kind));
                lwt_metrics::span::on_join(outcome.span_id());
                match outcome.take().expect("async result already taken") {
                    Ok(v) => Ok(v),
                    Err(p) => Err(JoinError::new(p)),
                }
            }
        }
    }

    /// Wait for completion and take the result.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the work unit.
    pub fn join(self) -> T {
        self.try_join().unwrap_or_else(|e| e.resume())
    }

    /// Non-consuming completion test.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            HandleInner::AbtUlt(h) => h.is_finished(),
            HandleInner::AbtTasklet(h) => h.is_finished(),
            HandleInner::Qth(h) => h.is_finished(),
            HandleInner::Myth(h) => h.is_finished(),
            HandleInner::Event(slot, _) => slot.done.is_set(),
            HandleInner::Async(outcome, _) => outcome.done().is_set(),
        }
    }

    /// Bounded join: wait at most `timeout` for completion, yielding
    /// cooperatively when called from inside a work unit.
    ///
    /// ```
    /// use std::time::Duration;
    /// use lwt_core::{BackendKind, Glt};
    ///
    /// let glt = Glt::builder(BackendKind::Qthreads).workers(1).build();
    /// let h = glt.ult_create(|| 7);
    /// let out = match h.join_timeout(Duration::from_secs(5)) {
    ///     Ok(joined) => joined.expect("no panic"),
    ///     Err(_handle) => panic!("trivial unit should finish in 5s"),
    /// };
    /// assert_eq!(out, 7);
    /// glt.finalize().expect("clean drain");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` — the still-usable handle — when the unit
    /// had not completed within `timeout`, so the caller can retry,
    /// keep polling [`GltHandle::is_finished`], or drop it.
    pub fn join_timeout(self, timeout: Duration) -> Result<Result<T, JoinError>, Self> {
        let until = Instant::now() + timeout;
        let mut relax = lwt_sync::AdaptiveRelax::new();
        loop {
            if self.is_finished() {
                return Ok(self.try_join());
            }
            if Instant::now() >= until {
                return Err(self);
            }
            match &self.inner {
                HandleInner::AbtUlt(_)
                | HandleInner::AbtTasklet(_)
                | HandleInner::Async(_, BackendKind::Argobots)
                | HandleInner::Event(_, BackendKind::Argobots) => {
                    if lwt_argobots::in_ult() {
                        lwt_argobots::yield_now();
                    }
                }
                _ => {
                    if lwt_ultcore::in_ult() {
                        lwt_ultcore::yield_now();
                    }
                }
            }
            relax.relax();
        }
    }
}

impl<T> std::fmt::Debug for GltHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GltHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

/// The relax used while waiting on event-backed and async joins: yield
/// the ULT when waiting from inside one, else yield the OS thread. Go
/// deliberately exposes no yield, but a GLT join still must not wedge a
/// scheduler thread when called from inside a goroutine, so the
/// fallback arm reaches for the shared-core reschedule the ultcore
/// backends (Qthreads/MassiveThreads/Converse/Go) all use; Argobots
/// keeps its own fiber layer and needs its own yield.
fn relax_for(kind: BackendKind) -> impl FnMut() {
    let mut escalate = lwt_sync::AdaptiveRelax::new();
    move || {
        match kind {
            BackendKind::Argobots if lwt_argobots::in_ult() => lwt_argobots::yield_now(),
            BackendKind::Converse if lwt_converse::in_ult() => lwt_converse::yield_now(),
            _ if lwt_ultcore::in_ult() => lwt_ultcore::yield_now(),
            _ => {}
        }
        escalate.relax();
    }
}

/// Yield the currently-running work unit back to its scheduler,
/// whichever backend it belongs to, and report whether the caller was
/// inside one. From an ordinary OS thread this is a no-op returning
/// `false`.
///
/// This is the backend-agnostic building block for libraries layered
/// *above* the GLT API (the `lwt-net` reactor's readiness waits) that
/// must spin politely without knowing which runtime is hosting them:
/// each backend's ULT context is thread-local, so probing all of them
/// finds the right one regardless of which `Glt` spawned the caller.
pub fn yield_unit() -> bool {
    if lwt_argobots::in_ult() {
        lwt_argobots::yield_now();
        true
    } else if lwt_converse::in_ult() {
        lwt_converse::yield_now();
        true
    } else if lwt_ultcore::in_ult() {
        lwt_ultcore::yield_now();
        true
    } else {
        false
    }
}

/// The unified runtime (`GLT_init` … `GLT_finalize`).
///
/// Cloning is cheap, and clones refer to the *same* pool of workers,
/// so layered subsystems (the `lwt-net` HTTP server's acceptor,
/// long-lived services) and recursive work units can hold their own
/// spawn capability. Exactly one clone should call [`Glt::finalize`],
/// after the others are done spawning.
///
/// A clone made on one of the runtime's workers shares a reference
/// count kept for that worker alone, so a spawn-heavy work unit that
/// clones the handle per child never writes a cache line another worker
/// is also writing. Any clone keeps the runtime alive.
pub struct Glt {
    link: Arc<Link>,
}

/// One counted reference to the runtime. Clones made off the workers
/// share the link they were cloned from. Clones made on worker `w`
/// share `w`'s link, found through its [`Shard`], so their count
/// changes stay on that worker's lines; the link holds one count on the
/// runtime itself while any such clone lives.
struct Link {
    core: Arc<GltCore>,
}

/// Worker `w`'s handle shard: a weak reference to the link its clones
/// share, alone on its 128-byte pair of lines.
#[repr(align(128))]
struct Shard(SpinLock<std::sync::Weak<Link>>);

impl Shard {
    /// A clone of `core` counted on this shard's link, made anew once
    /// every clone of the old one is gone.
    fn clone_of(&self, core: &Arc<GltCore>) -> Glt {
        let mut slot = self.0.lock();
        let link = slot.upgrade().unwrap_or_else(|| {
            let link = Arc::new(Link {
                core: Arc::clone(core),
            });
            *slot = Arc::downgrade(&link);
            link
        });
        Glt { link }
    }
}

struct GltCore {
    backend: Backend,
    workers: usize,
    drain_timeout: Duration,
    async_queue: AsyncQueuePolicy,
    /// One per worker.
    shards: Box<[Shard]>,
}

impl GltCore {
    /// Index of the worker running the caller, when the caller is on
    /// one of this backend's worker threads. A thread of another
    /// runtime gets some shard too; any shard is correct, only slower.
    fn current_worker(&self) -> Option<usize> {
        match self.backend {
            Backend::Argobots(_) => lwt_argobots::current_stream(),
            _ => lwt_ultcore::current_worker(),
        }
    }
}

impl Clone for Glt {
    fn clone(&self) -> Self {
        let core = &self.link.core;
        match core.current_worker().and_then(|w| core.shards.get(w)) {
            Some(shard) => shard.clone_of(core),
            None => Glt {
                link: Arc::clone(&self.link),
            },
        }
    }
}

impl Glt {
    /// Start configuring a runtime for `kind`. Finish with
    /// [`GltBuilder::build`].
    #[must_use]
    pub fn builder(kind: BackendKind) -> GltBuilder {
        GltBuilder {
            cfg: GltConfig::new(kind),
        }
    }

    /// Initialize a backend from a fully-spelled-out [`GltConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` is zero.
    #[must_use]
    pub fn with_config(cfg: GltConfig) -> Self {
        assert!(cfg.workers > 0, "GLT needs at least one execution resource");
        if let AsyncQueuePolicy::Pinned(w) = cfg.async_queue {
            assert!(
                w < cfg.workers,
                "async_queue pinned to worker {w} but the runtime has {} workers",
                cfg.workers
            );
        }
        if let Some(cap) = cfg.stack_cache_capacity {
            lwt_fiber::cache::set_capacity(cap);
        }
        if let Some(max) = cfg.blocking_threads {
            blocking::set_max_threads(max);
        }
        if let Some(policy) = cfg.wait_policy {
            // Before backend init, so workers idle under the requested
            // policy from their very first empty pick.
            force_wait_policy(policy);
        }
        let backend = match cfg.backend {
            BackendKind::Argobots => Backend::Argobots(lwt_argobots::Runtime::init(
                lwt_argobots::Config {
                    num_streams: cfg.workers,
                    pool_policy: match cfg.scheduler {
                        SchedPolicy::PrivatePerWorker => {
                            lwt_argobots::PoolPolicy::PrivatePerStream
                        }
                        SchedPolicy::SharedQueue => lwt_argobots::PoolPolicy::SharedSingle,
                    },
                    stack_size: cfg.stack_size,
                },
            )),
            BackendKind::Qthreads => Backend::Qthreads(lwt_qthreads::Runtime::init(
                // One worker per shepherd: GLT worker index ≙ shepherd
                // index, which is what fork_to targets.
                lwt_qthreads::Config {
                    num_shepherds: cfg.workers,
                    workers_per_shepherd: 1,
                    stack_size: cfg.stack_size,
                },
            )),
            BackendKind::MassiveThreads => Backend::Massive(lwt_massive::Runtime::init(
                lwt_massive::Config {
                    num_workers: cfg.workers,
                    stack_size: cfg.stack_size,
                    ..Default::default()
                },
            )),
            BackendKind::Converse => Backend::Converse(lwt_converse::Runtime::init(
                lwt_converse::Config {
                    num_processors: cfg.workers,
                    stack_size: cfg.stack_size,
                },
            )),
            BackendKind::Go => Backend::Go(lwt_go::Runtime::init(lwt_go::Config {
                num_threads: cfg.workers,
                stack_size: cfg.stack_size,
            })),
        };
        let core = Arc::new(GltCore {
            backend,
            workers: cfg.workers,
            drain_timeout: cfg.drain_timeout,
            async_queue: cfg.async_queue,
            shards: (0..cfg.workers)
                .map(|_| Shard(SpinLock::new(std::sync::Weak::new())))
                .collect(),
        });
        Glt {
            link: Arc::new(Link { core }),
        }
    }

    fn core(&self) -> &GltCore {
        &self.link.core
    }

    /// Number of execution resources this runtime was started with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.core().workers
    }

    /// Which backend this instance drives.
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        match &self.core().backend {
            Backend::Argobots(_) => BackendKind::Argobots,
            Backend::Qthreads(_) => BackendKind::Qthreads,
            Backend::Massive(_) => BackendKind::MassiveThreads,
            Backend::Converse(_) => BackendKind::Converse,
            Backend::Go(_) => BackendKind::Go,
        }
    }

    /// Create a yieldable work unit (`*_creation_function` in the
    /// paper's Listing 4).
    ///
    /// Converse note: external callers cannot create ULTs in other
    /// processors' queues (the paper's insertion rule), so the Converse
    /// backend dispatches a *message*, exactly as the paper's own
    /// Converse microbenchmarks do.
    pub fn ult_create<T, F>(&self, f: F) -> GltHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match &self.core().backend {
            Backend::Argobots(rt) => HandleInner::AbtUlt(rt.ult_create(f)).into(),
            Backend::Qthreads(rt) => HandleInner::Qth(rt.fork_rr(f)).into(),
            Backend::Massive(rt) => HandleInner::Myth(rt.spawn(f)).into(),
            Backend::Converse(rt) => {
                // A GLT ULT is yieldable by contract (Table II maps it
                // to CthCreate), but Converse's insertion rule says only
                // messages may enter another processor's queue. So the
                // spawn is two-stage: a message — legal from any thread
                // — lands on a processor and performs the CthCreate
                // there; the ULT body fulfills the handle. The spawn
                // edge is recorded here (where the causal parent is
                // current) and the ULT *adopts* that span, so the unit
                // traces exactly like the native-handle backends.
                let span = lwt_metrics::span::on_spawn();
                let slot = EventSlot::new(span);
                let s2 = slot.clone();
                let rt2 = rt.clone();
                rt.send_rr(move || {
                    let _detached = rt2.spawn_ult_spanned(span, move || {
                        s2.fulfill(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
                    });
                });
                HandleInner::Event(slot, BackendKind::Converse).into()
            }
            Backend::Go(rt) => {
                // Goroutines run inside a span-carrying UltCore, so the
                // closure inherits a span natively; the slot records no
                // second one (0 = let the ULT's span own the trace).
                let slot = EventSlot::new(0);
                let s2 = slot.clone();
                rt.go(move || {
                    s2.fulfill(std::panic::catch_unwind(
                        std::panic::AssertUnwindSafe(f),
                    ));
                });
                HandleInner::Event(slot, BackendKind::Go).into()
            }
        }
    }

    /// Create a yieldable work unit pinned to execution resource
    /// `worker` — Argobots ES-targeted creation (`ABT_thread_create` on
    /// a specific stream's pool), Qthreads `qthread_fork_to` and a
    /// Converse destination-processor send.
    ///
    /// ```
    /// use lwt_core::{BackendKind, Glt, PlacementError};
    ///
    /// let glt = Glt::builder(BackendKind::Qthreads).workers(2).build();
    /// // qthread_fork_to: pin the unit to shepherd 1.
    /// let pinned = glt.ult_create_to(1, || 7).expect("worker 1 exists");
    /// assert_eq!(pinned.join(), 7);
    /// // Out-of-range placement is rejected up front, not wrapped.
    /// assert!(matches!(
    ///     glt.ult_create_to(9, || 0),
    ///     Err(PlacementError::OutOfRange { .. })
    /// ));
    /// glt.finalize().expect("clean drain");
    /// ```
    ///
    /// # Errors
    ///
    /// [`PlacementError::Unsupported`] on MassiveThreads (the
    /// work-first scheduler owns placement) and Go (processors are
    /// hidden); [`PlacementError::OutOfRange`] when `worker` ≥
    /// [`Glt::workers`].
    pub fn ult_create_to<T, F>(&self, worker: usize, f: F) -> Result<GltHandle<T>, PlacementError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match &self.core().backend {
            Backend::Massive(_) => {
                return Err(PlacementError::Unsupported(BackendKind::MassiveThreads))
            }
            Backend::Go(_) => return Err(PlacementError::Unsupported(BackendKind::Go)),
            _ => {}
        }
        if worker >= self.workers() {
            return Err(PlacementError::OutOfRange {
                worker,
                workers: self.workers(),
            });
        }
        Ok(match &self.core().backend {
            Backend::Argobots(rt) => HandleInner::AbtUlt(rt.ult_create_to(worker, f)).into(),
            Backend::Qthreads(rt) => HandleInner::Qth(rt.fork_to(worker, f)).into(),
            Backend::Converse(rt) => {
                // Two-stage spawn adopting the call-site span, like
                // ult_create (see the notes there); the CthCreate runs
                // on the destination processor, so the ULT stays pinned
                // to `worker`.
                let span = lwt_metrics::span::on_spawn();
                let slot = EventSlot::new(span);
                let s2 = slot.clone();
                let rt2 = rt.clone();
                rt.send(worker, move || {
                    let _detached = rt2.spawn_ult_spanned(span, move || {
                        s2.fulfill(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
                    });
                });
                HandleInner::Event(slot, BackendKind::Converse).into()
            }
            Backend::Massive(_) | Backend::Go(_) => unreachable!("rejected above"),
        })
    }

    /// Create a stackless, atomically-executed work unit where the
    /// backend has one (Argobots tasklets, Converse messages); falls
    /// back to [`Glt::ult_create`] elsewhere — the degradation path the
    /// common-API design implies.
    pub fn tasklet_create<T, F>(&self, f: F) -> GltHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match &self.core().backend {
            Backend::Argobots(rt) => HandleInner::AbtTasklet(rt.tasklet_create(f)).into(),
            Backend::Converse(rt) => {
                // A Converse message IS the tasklet: stackless and
                // atomically executed on the processor's own stack.
                // (ult_create takes the two-stage CthCreate path for
                // yieldability; tasklets must not yield, so the direct
                // send is the faithful mapping.)
                let span = lwt_metrics::span::on_spawn();
                let slot = EventSlot::new(span);
                let s2 = slot.clone();
                rt.send_rr(move || {
                    s2.fulfill(run_spanned(span, || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                    }));
                });
                HandleInner::Event(slot, BackendKind::Converse).into()
            }
            _ => self.ult_create(f),
        }
    }

    /// The reschedule hook encoding this runtime's [`AsyncQueuePolicy`]:
    /// the initial enqueue and every waker-driven requeue go through it,
    /// so placement is decided in exactly one place.
    fn task_resched(&self) -> TaskResched {
        use lwt_argobots::Runtime as Abt;
        use lwt_converse::Runtime as Cvt;
        use lwt_go::Runtime as Go;
        use lwt_massive::Runtime as Mth;
        use lwt_qthreads::Runtime as Qth;
        let q = self.core().async_queue;
        match &self.core().backend {
            Backend::Argobots(rt) => task_poster(rt, q, Abt::post_task, Abt::post_task_to),
            Backend::Qthreads(rt) => task_poster(rt, q, Qth::post_task, Qth::post_task_to),
            Backend::Massive(rt) => task_poster(rt, q, Mth::post_task, Mth::post_task_to),
            Backend::Converse(rt) => task_poster(rt, q, Cvt::post_task, Cvt::post_task_to),
            Backend::Go(rt) => task_poster(rt, q, Go::post_task, Go::post_task_to),
        }
    }

    /// Spawn a stackless `Future` onto the backend's ready queues — the
    /// third execution model next to stackful ULTs and run-to-completion
    /// tasklets.
    ///
    /// Each poll runs atomically on a scheduler worker (like a tasklet);
    /// `Pending` parks the task *without* a stack, and the waker the
    /// future captured re-enqueues it through the backend's own dispatch
    /// path, so woken polls mix with ULTs and tasklets in the same
    /// queues. The handle joins like any other GLT handle; a panic
    /// inside `poll` surfaces at [`GltHandle::try_join`] as a
    /// [`JoinError`].
    ///
    /// ```
    /// use lwt_core::{BackendKind, Glt};
    ///
    /// let glt = Glt::builder(BackendKind::Qthreads).workers(2).build();
    /// let h = glt.spawn_async(async { 6 * 7 });
    /// assert_eq!(h.join(), 42);
    /// glt.finalize().expect("clean drain");
    /// ```
    pub fn spawn_async<F>(&self, fut: F) -> GltHandle<F::Output>
    where
        F: std::future::Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let resched = self.task_resched();
        let (outcome, task) = TaskCell::spawn(fut, resched.clone());
        // The task is born SCHEDULED; this push is its first schedule.
        resched(task);
        HandleInner::Async(outcome, self.kind()).into()
    }

    /// Run `f` on an OS thread that is *allowed* to block (file I/O,
    /// syscalls, long-running FFI) instead of wedging a scheduler
    /// worker — the jobs go to a process-global, lazily-grown thread
    /// pool capped by [`GltBuilder::blocking_threads`] /
    /// `LWT_BLOCKING_THREADS`. Completion sets the handle's event, so
    /// joiners (including ULTs and `spawn_async` futures waiting via
    /// [`GltHandle::join_timeout`] polling) wake like any other
    /// event-backed join.
    ///
    /// ```
    /// use lwt_core::{BackendKind, Glt};
    ///
    /// let glt = Glt::builder(BackendKind::Go).workers(1).build();
    /// let h = glt.spawn_blocking(|| {
    ///     std::thread::sleep(std::time::Duration::from_millis(1));
    ///     "done off-worker"
    /// });
    /// assert_eq!(h.join(), "done off-worker");
    /// glt.finalize().expect("clean drain");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when the pool rejects the job (disabled by a zero
    /// ceiling, or the OS refused the first thread); use
    /// [`Glt::try_spawn_blocking`] to handle that as an error.
    pub fn spawn_blocking<T, F>(&self, f: F) -> GltHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.try_spawn_blocking(f)
            .unwrap_or_else(|e| panic!("spawn_blocking failed: {e}"))
    }

    /// Fallible [`Glt::spawn_blocking`].
    ///
    /// # Errors
    ///
    /// [`SpawnError::BlockingPool`] when the pool is disabled
    /// (`blocking_threads(0)` / `LWT_BLOCKING_THREADS=0`) or had no
    /// thread and could not start one; the closure is returned to the
    /// caller unrun in the sense that no handle exists for it.
    pub fn try_spawn_blocking<T, F>(&self, f: F) -> Result<GltHandle<T>, SpawnError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        // Blocking jobs travel as bare closures like Converse messages,
        // so the span rides in the payload the same way.
        let span = lwt_metrics::span::on_spawn();
        let slot = EventSlot::new(span);
        let s2 = slot.clone();
        blocking::submit(move || {
            s2.fulfill(run_spanned(span, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            }));
        })?;
        Ok(HandleInner::Event(slot, self.kind()).into())
    }

    /// Whether the backend distinguishes tasklets from ULTs (paper
    /// Table I, "Tasklet Support").
    #[must_use]
    pub fn supports_tasklets(&self) -> bool {
        matches!(
            self.core().backend,
            Backend::Argobots(_) | Backend::Converse(_)
        )
    }

    /// Yield the calling work unit (`yield_function`). A no-op on the
    /// Go backend — the paper's Table I marks Go as offering no yield.
    pub fn yield_now(&self) {
        match &self.core().backend {
            Backend::Argobots(_) => {
                if lwt_argobots::in_ult() {
                    lwt_argobots::yield_now();
                }
            }
            Backend::Qthreads(_) | Backend::Massive(_) | Backend::Converse(_) => {
                if lwt_ultcore::in_ult() {
                    lwt_ultcore::yield_now();
                }
            }
            Backend::Go(_) => {}
        }
    }

    /// Shut the backend down (`finalize_function`), waiting at most
    /// [`GltConfig::drain_timeout`] for in-flight work to drain. Past
    /// the deadline the backend's workers are told to abandon their
    /// queues (wedged ones are detached — never killed) and the
    /// leftovers come back as a [`DrainError`] straggler table instead
    /// of the historical hang.
    ///
    /// Converse note: its return-mode join needs global quiescence
    /// before the exit barrier, so the deadline bounds *each* of the
    /// quiescence wait and the processor join (worst case ~2×).
    ///
    /// # Errors
    ///
    /// [`DrainError`] when work was still pending at the deadline.
    pub fn finalize(self) -> Result<(), DrainError> {
        let deadline = self.core().drain_timeout;
        let result = match &self.core().backend {
            Backend::Argobots(rt) => rt.shutdown_within(deadline),
            Backend::Qthreads(rt) => rt.shutdown_within(deadline),
            Backend::Massive(rt) => rt.shutdown_within(deadline),
            Backend::Converse(rt) => {
                // Entering the barrier while a unit is wedged would
                // hang the master: the barrier requires quiescence.
                if rt.quiesce_within(deadline) {
                    rt.barrier();
                }
                rt.shutdown_within(deadline)
            }
            Backend::Go(rt) => rt.shutdown_within(deadline),
        };
        if result.is_err() {
            // Post-mortem bundle for the straggler table (armed by
            // LWT_FLIGHTREC; a no-op otherwise).
            lwt_chaos::register_flightrec_sections();
            let _ = lwt_metrics::flightrec::dump("drain_error");
        }
        result
    }
}

impl std::fmt::Debug for Glt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Glt").field("backend", &self.kind()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn worker_spec_parses_numbers_and_auto() {
        let topo = std::thread::available_parallelism().map_or(4, usize::from);
        assert_eq!(workers_from(Some("3")), 3);
        assert_eq!(workers_from(Some(" 16 ")), 16);
        for auto in [None, Some("auto"), Some("AUTO"), Some(""), Some("0"), Some("cores")] {
            assert_eq!(workers_from(auto), topo, "spec {auto:?}");
        }
    }

    #[test]
    fn builder_wait_policy_reaches_the_global_knob() {
        let glt = Glt::builder(BackendKind::Go)
            .workers(1)
            .wait_policy(WaitPolicy::Passive)
            .build();
        assert_eq!(lwt_sched::current_wait_policy(), WaitPolicy::Passive);
        glt.finalize().expect("clean drain");
        lwt_sched::reset_wait_policy_to_env();
    }

    #[test]
    fn every_backend_runs_ults() {
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(2).build();
            let hits = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..50)
                .map(|_| {
                    let h = hits.clone();
                    glt.ult_create(move || {
                        h.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(hits.load(Ordering::Relaxed), 50, "backend {kind}");
            glt.finalize().expect("clean drain");
        }
    }

    #[test]
    fn every_backend_returns_values() {
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(2).build();
            let sum: u64 = (0..20)
                .map(|i| glt.ult_create(move || i as u64))
                .collect::<Vec<_>>()
                .into_iter()
                .map(GltHandle::join)
                .sum();
            assert_eq!(sum, 190, "backend {kind}");
            glt.finalize().expect("clean drain");
        }
    }

    #[test]
    fn tasklets_run_everywhere_with_fallback() {
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(2).build();
            let h = glt.tasklet_create(|| 3u32.pow(3));
            assert_eq!(h.join(), 27, "backend {kind}");
            glt.finalize().expect("clean drain");
        }
    }

    #[test]
    fn tasklet_support_matches_table_one() {
        for (kind, expect) in [
            (BackendKind::Argobots, true),
            (BackendKind::Qthreads, false),
            (BackendKind::MassiveThreads, false),
            (BackendKind::Converse, true),
            (BackendKind::Go, false),
        ] {
            let glt = Glt::builder(kind).workers(1).build();
            assert_eq!(glt.supports_tasklets(), expect, "backend {kind}");
            glt.finalize().expect("clean drain");
        }
    }

    #[test]
    fn panics_propagate_through_the_generic_join() {
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(1).build();
            let h = glt.ult_create(|| -> () { panic!("glt boom") });
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()))
                .expect_err("join must re-raise");
            assert_eq!(
                err.downcast_ref::<&str>(),
                Some(&"glt boom"),
                "backend {kind}"
            );
            glt.finalize().expect("clean drain");
        }
    }

    #[test]
    fn glt_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Glt>();
    }

    #[test]
    fn worker_made_clone_outlives_the_original_handle() {
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(2).build();
            let g = glt.clone();
            // Cloned on a worker: counted on that worker's shard.
            let inner = glt.ult_create(move || g.clone()).join();
            drop(glt);
            assert_eq!(inner.ult_create(|| 5).join(), 5, "backend {kind}");
            let g = inner.clone();
            let nested = inner.ult_create(move || g.ult_create(|| 6).join());
            assert_eq!(nested.join(), 6, "backend {kind}");
            inner.finalize().expect("clean drain");
        }
    }

    #[test]
    fn finalize_drains_units_holding_worker_made_clones() {
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(2).build();
            let ran = Arc::new(AtomicUsize::new(0));
            let (g, r) = (glt.clone(), ran.clone());
            glt.ult_create(move || {
                for _ in 0..32 {
                    let (keep, r) = (g.clone(), r.clone());
                    // Detached: each unit still holds its worker-made
                    // clone when the original handle finalizes.
                    let _ = g.ult_create(move || {
                        keep.yield_now();
                        keep.yield_now();
                        r.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
            .join();
            glt.finalize().expect("clean drain");
            assert_eq!(ran.load(Ordering::Relaxed), 32, "backend {kind}");
        }
    }

    #[test]
    fn listing4_pseudocode_shape_works() {
        // The paper's Listing 4: init → create N → yield → join N →
        // finalize, expressed 1:1 in the generic API.
        const N: usize = 100;
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(2).build();
            let handles: Vec<_> = (0..N).map(|_| glt.ult_create(|| ())).collect();
            glt.yield_now();
            for h in handles {
                h.join();
            }
            glt.finalize().expect("clean drain");
        }
    }
}
