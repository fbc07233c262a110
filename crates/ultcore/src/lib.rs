//! # lwt-ultcore — the shared ULT executor core
//!
//! Four of the workspace's runtimes (Qthreads, MassiveThreads, Converse
//! Threads, Go) execute stackful user-level threads with identical
//! low-level mechanics and differ only in *queue topology and policy*.
//! This crate houses the delicate, unsafe common core exactly once:
//!
//! * [`UltCore`] — the work-unit record (state word, saved context,
//!   stack, one boxed job holding the entry closure and its result,
//!   panic slot); [`Ult`] is its typed view for join handles.
//! * [`WorkerCtx`]/[`enter_worker`] — the per-OS-thread executor
//!   context with the **post-switch protocol** (see below).
//! * [`run_ult`] — claim + switch into a ULT from a worker loop.
//! * [`yield_now`]/[`wait_until`]/[`in_ult`]/[`current_worker`] — the
//!   in-ULT primitives, parameterized by the runtime's requeue policy.
//! * [`TaskCell`]/[`ReadyUnit`]/[`run_unit`] ([`task`]) — the stackless
//!   futures bridge: `core::future::Future`s dispatched from the same
//!   ready queues as ULTs, with a hand-rolled waker vtable.
//! * [`blocking`] — the `spawn_blocking` OS-thread pool, so blocking
//!   syscalls never wedge a scheduler worker.
//! * [`kernel`] — the worker kernel all five backends share: the
//!   thread lifecycle and bounded drain ([`kernel::Workers`]), the one
//!   idle step ([`kernel::Crew::idle`]), and the ready-queue worker
//!   loop ([`kernel::run`]) that Go, Qthreads and MassiveThreads
//!   parameterise with their victim set and requeue side.
//!
//! The Argobots-model crate (`lwt-argobots`) keeps its own copy of the
//! ULT machinery because its semantics are richer (two work-unit types,
//! `yield_to`, stackable schedulers); the four simpler runtimes share
//! this one.
//!
//! ## The post-switch protocol
//!
//! A suspending ULT cannot mark itself resumable *before* its context
//! is saved (a racing worker could resume a stale context) nor *after*
//! (it no longer runs). So the suspender records a deferred action in
//! the worker context, and whichever code gains control after the
//! switch — the worker loop, or the next resumed ULT — executes it:
//! re-queue on yield (via the runtime's [`Requeue`] policy), re-queue
//! of a parent displaced by [`yield_to`] (the policy's
//! [`Requeue::displace`] path), `BLOCKED` publication on [`suspend`],
//! or `TERMINATED` publication on exit (only once the dying stack has
//! been switched away from) — which also wakes a joiner parked by
//! [`park_join`], through the displacement path. A finishing ULT may
//! switch straight into the next ULT its runtime names
//! ([`Requeue::resume_next`]) instead of the worker loop; that ULT
//! runs the `TERMINATED` publication on its way in.

#![warn(missing_docs)]

pub mod blocking;
pub mod kernel;
pub mod task;

pub use blocking::BlockingPoolError;
pub use task::{run_unit, PollTask, ReadyUnit, TaskCell, TaskOutcome, TaskResched};

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lwt_fiber::{cache, init_context, switch, switch_final, CachedStack, RawContext, StackSize};
use lwt_metrics::registry::{emit, timestamp_if_tracing, COUNTERS, SPAWN_LATENCY};
use lwt_metrics::{span, timeline, EventKind};
use lwt_sched::{JoinSlot, UnitState, Wake};

/// Work-unit lifecycle states (the values of the
/// [`lwt_sched::UnitState`] word).
pub use lwt_sched::unit_state as state;

/// The runtime-specific "where does a yielded ULT go" policy.
///
/// `worker` is the id passed to [`enter_worker`] by the worker loop the
/// yield happened on — MassiveThreads pushes to that worker's own
/// deque, Qthreads to the worker's shepherd, Go to the global queue.
pub trait Requeue: Send + Sync + 'static {
    /// Make `ult` runnable again after a [`yield_now`]. The core has
    /// already stored `READY` (Release) into the state word;
    /// implementations only enqueue the hint.
    fn requeue(&self, worker: usize, ult: Arc<UltCore>);

    /// Make `ult` runnable again after it was displaced by a
    /// [`yield_to`] (the parent of a work-first spawn) or woken from a
    /// [`suspend`] (a parked joiner whose child finished). Always
    /// called on worker `worker`'s own thread. Defaults to
    /// [`Requeue::requeue`]; MassiveThreads overrides it with an
    /// owner-deque push, so the continuation is stealable.
    fn displace(&self, worker: usize, ult: Arc<UltCore>) {
        self.requeue(worker, ult);
    }

    /// The ULT a unit finishing on worker `worker` switches straight
    /// into, skipping the round trip through the scheduler context and
    /// the worker loop; `None` returns to the loop. Called on the
    /// worker's own thread, on the finished unit's stack. Defaults to
    /// `None`; MassiveThreads resumes its newest own ULT
    /// ([`kernel::pop_own_ult`]) — after a work-first spawn, the
    /// displaced parent.
    fn resume_next(&self, _worker: usize) -> Option<Arc<UltCore>> {
        None
    }
}

/// The one heap block a ULT's work lives in: the entry closure until
/// the ULT runs it, then the closure's result until the joiner takes
/// it — so a spawn allocates no separate result slot.
struct Job<F, T> {
    entry: Option<F>,
    out: Option<T>,
}

/// [`Job`] with the closure type erased, as [`UltCore`] stores it.
trait Entry: Send {
    /// Run the entry closure, keeping its result. Called once.
    fn run(&mut self);
    /// The result slot, an `Option<T>` for the job's `T`.
    fn out(&mut self) -> *mut ();
}

impl<F, T> Entry for Job<F, T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    fn run(&mut self) {
        let f = self.entry.take().expect("ULT entry missing");
        self.out = Some(f());
    }

    fn out(&mut self) -> *mut () {
        std::ptr::from_mut(&mut self.out).cast()
    }
}

/// A stackful user-level thread record.
pub struct UltCore {
    state: UnitState,
    /// The one ULT parked in [`park_join`] on this unit, woken by the
    /// post-switch `Terminated` processing.
    join: JoinSlot<Arc<UltCore>>,
    /// Saved context; valid whenever not RUNNING.
    ctx: UnsafeCell<RawContext>,
    /// Owned stack, on loan from the recycle cache; returned to it
    /// when the last Arc drops.
    stack: UnsafeCell<Option<CachedStack>>,
    /// Entry closure and result slot ([`Job`]).
    job: UnsafeCell<Box<dyn Entry>>,
    /// Panic escaped from the entry closure; re-raised by the join
    /// wrapper the runtime builds.
    panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
    /// Creation timestamp for the spawn-to-first-run histogram; zero
    /// when tracing is off (the stamp is skipped) or already consumed.
    spawn_ns: AtomicU64,
    /// Causal span id ([`lwt_metrics::span`]), written once in `new`
    /// before the Arc is shared — plain field, no atomic needed. Zero
    /// when tracing was off at spawn; every hot-path use is gated on
    /// that, so the disabled cost is one field load.
    span: u64,
}

// SAFETY: interior fields follow the claim protocol — only the worker
// holding the RUNNING claim touches ctx/entry/panic; state transitions
// publish with Release/Acquire.
unsafe impl Send for UltCore {}
// SAFETY: see above.
unsafe impl Sync for UltCore {}

impl UltCore {
    /// Allocate a ULT that will run `f` when first scheduled.
    ///
    /// The returned Arc must be enqueued by the caller (state starts
    /// READY).
    #[must_use]
    pub fn new<F>(stack_size: StackSize, f: F) -> Arc<UltCore>
    where
        F: FnOnce() + Send + 'static,
    {
        Self::build(stack_size, span::on_spawn(), f)
    }

    fn build<F, T>(stack_size: StackSize, span: u64, f: F) -> Arc<UltCore>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        COUNTERS.ults_created.inc();
        let stack = cache::acquire(stack_size);
        let job: Box<dyn Entry> = Box::new(Job {
            entry: Some(f),
            out: None,
        });
        let ult = Arc::new(UltCore {
            state: UnitState::new(),
            join: JoinSlot::new(),
            ctx: UnsafeCell::new(RawContext::null()),
            stack: UnsafeCell::new(None),
            job: UnsafeCell::new(job),
            panic: UnsafeCell::new(None),
            spawn_ns: AtomicU64::new(timestamp_if_tracing()),
            span,
        });
        // SAFETY: ult_entry never returns; the data pointer is kept
        // alive by the Arc the worker holds while executing; moving the
        // Stack into the record does not move its heap allocation.
        let ctx = unsafe {
            init_context(&stack, ult_entry, Arc::as_ptr(&ult).cast_mut().cast::<u8>())
        };
        // SAFETY: not yet shared.
        unsafe {
            *ult.ctx.get() = ctx;
            *ult.stack.get() = Some(stack);
        }
        ult
    }

    /// Claim READY → RUNNING, acquiring exclusive execution rights.
    pub fn claim(&self) -> bool {
        self.state.claim()
    }

    /// Feed the spawn-to-first-run histogram the first time the unit
    /// is dispatched. The fast path (tracing off, or already consumed)
    /// is one relaxed load.
    #[inline]
    fn record_first_run(&self) {
        if self.spawn_ns.load(Ordering::Relaxed) != 0 {
            let t0 = self.spawn_ns.swap(0, Ordering::Relaxed);
            if t0 != 0 {
                SPAWN_LATENCY.record(lwt_metrics::clock::now_ns().saturating_sub(t0));
            }
        }
    }

    /// The causal span id assigned at spawn (0 when tracing was off).
    /// Joiners pass this to [`lwt_metrics::span::on_join`].
    #[must_use]
    pub fn span_id(&self) -> u64 {
        self.span
    }

    /// Whether the ULT has completed.
    #[must_use]
    pub fn is_terminated(&self) -> bool {
        self.state.is_terminated()
    }

    /// Take the panic payload, if the entry closure panicked.
    ///
    /// Only meaningful after [`UltCore::is_terminated`] returns true;
    /// the runtime's join path calls this before reading results.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        debug_assert!(self.is_terminated());
        // SAFETY: TERMINATED (Acquire) means the unit will never touch
        // the slot again; callers hold the join handle exclusively.
        unsafe { (*self.panic.get()).take() }
    }
}

/// A ULT whose closure returns a `T`: the record plus typed access to
/// the result slot in its job block. The runtimes' join handles hold
/// one.
pub struct Ult<T> {
    core: Arc<UltCore>,
    out: PhantomData<T>,
}

// SAFETY: `core` is an `Arc` of a `Sync` record, and `out` is only a
// marker: through `&Ult<T>` no `T` is reachable, since the result moves
// out only through `take(&mut self)`.
unsafe impl<T: Send> Sync for Ult<T> {}

impl<T: Send + 'static> Ult<T> {
    /// Allocate a ULT that will run `f` when first scheduled, with a
    /// fresh causal span: [`UltCore::new`] for a closure with a result.
    #[must_use]
    pub fn new<F>(stack_size: StackSize, f: F) -> Self
    where
        F: FnOnce() -> T + Send + 'static,
    {
        Self::with_span(stack_size, span::on_spawn(), f)
    }

    /// Like [`Ult::new`], but adopting `span` instead of allocating
    /// one — for spawns whose causal edge was recorded earlier on a
    /// different thread (e.g. Converse's two-stage bootstrap, where the
    /// `GLT_ult_create` call site owns the spawn edge and the CthCreate
    /// happens later inside a message). Pass `0` to run span-less.
    #[must_use]
    pub fn with_span<F>(stack_size: StackSize, span: u64, f: F) -> Self
    where
        F: FnOnce() -> T + Send + 'static,
    {
        Ult {
            core: UltCore::build(stack_size, span, f),
            out: PhantomData,
        }
    }
}

impl<T> Ult<T> {
    /// The unit record, to enqueue, switch into or wait on.
    #[must_use]
    pub fn core(&self) -> &Arc<UltCore> {
        &self.core
    }

    /// Take the closure's result. `None` until the unit has
    /// terminated, and after a panic (see [`UltCore::take_panic`]).
    pub fn take(&mut self) -> Option<T> {
        if !self.core.is_terminated() {
            return None;
        }
        // SAFETY: TERMINATED (Acquire) means the unit will never touch
        // its job again, and `&mut self` makes us the only reader. The
        // slot is an `Option<T>`: `Ult<T>` is only built over a
        // `Job<_, T>`.
        unsafe { (*(*self.core.job.get()).out().cast::<Option<T>>()).take() }
    }
}

impl std::fmt::Debug for UltCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self.state.load() {
            state::READY => "ready",
            state::RUNNING => "running",
            state::BLOCKED => "blocked",
            _ => "terminated",
        };
        write!(f, "UltCore({s})")
    }
}

enum Post {
    None,
    /// Yielded: back through [`Requeue::requeue`].
    Requeue(Arc<UltCore>),
    /// Displaced by a `yield_to`: back through [`Requeue::displace`].
    Displaced(Arc<UltCore>),
    /// Finished: publish TERMINATED, then wake a parked joiner.
    Terminated(Arc<UltCore>),
    /// Park the ULT (suspend): publish BLOCKED unless a wakeup already
    /// raced in, in which case requeue immediately.
    Block(Arc<UltCore>),
}

/// Per-OS-thread executor context.
pub struct WorkerCtx {
    sched_ctx: RawContext,
    current: Option<Arc<UltCore>>,
    post: Post,
    worker_id: usize,
    requeue: Arc<dyn Requeue>,
    /// The kernel loop's dispatch bookkeeping; `None` for workers that
    /// run their own loop (Converse), which never resume directly.
    duty: Option<kernel::Duty>,
}

thread_local! {
    static WORKER: Cell<*mut WorkerCtx> = const { Cell::new(std::ptr::null_mut()) };
}

/// Read the worker TLS through an opaque call.
///
/// CRITICAL: every TLS read that can sit *after* a context switch in
/// the same function body must go through this `#[inline(never)]`
/// barrier. A ULT can resume on a different OS thread than it
/// suspended on; with the read inlined, LLVM legitimately CSEs the
/// thread-local address computed *before* the switch and hands the
/// resumed ULT the *previous* worker's context — double-processing its
/// post actions (observed as double-resumed ULTs in release builds).
#[inline(never)]
fn worker_ptr() -> *mut WorkerCtx {
    WORKER.with(Cell::get)
}

/// RAII registration of the calling OS thread as an executor.
///
/// Worker loops create this once, then call [`run_ult`] repeatedly.
pub struct WorkerGuard {
    ctx: *mut WorkerCtx,
}

impl WorkerGuard {
    /// The bookkeeping the worker was entered with.
    pub(crate) fn duty(&self) -> Option<&kernel::Duty> {
        // SAFETY: ctx is live while the guard is.
        unsafe { (*self.ctx).duty.as_ref() }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        // SAFETY: ctx is live until the Box::from_raw below.
        emit(EventKind::EsStop, unsafe { (*self.ctx).worker_id } as u64);
        // Close the time-accounting books: stop extrapolating this
        // worker's in-progress state once it leaves the loop.
        timeline::retire();
        WORKER.with(|c| c.set(std::ptr::null_mut()));
        // SAFETY: created by Box::into_raw in enter_worker; no ULT is
        // running when the worker loop exits.
        drop(unsafe { Box::from_raw(self.ctx) });
    }
}

/// Register the calling OS thread as worker `worker_id` with the given
/// requeue policy. The guard must live for the whole worker loop.
#[must_use]
pub fn enter_worker(worker_id: usize, requeue: Arc<dyn Requeue>) -> WorkerGuard {
    enter(worker_id, requeue, None)
}

/// [`enter_worker`] for the kernel loop, which hands the worker its
/// dispatch bookkeeping so a direct resume can do it too.
pub(crate) fn enter_worker_on_duty(
    worker_id: usize,
    requeue: Arc<dyn Requeue>,
    duty: kernel::Duty,
) -> WorkerGuard {
    enter(worker_id, requeue, Some(duty))
}

fn enter(worker_id: usize, requeue: Arc<dyn Requeue>, duty: Option<kernel::Duty>) -> WorkerGuard {
    let ctx = Box::into_raw(Box::new(WorkerCtx {
        sched_ctx: RawContext::null(),
        current: None,
        post: Post::None,
        worker_id,
        requeue,
        duty,
    }));
    WORKER.with(|c| {
        assert!(c.get().is_null(), "thread is already an lwt worker");
        c.set(ctx);
    });
    emit(EventKind::EsStart, worker_id as u64);
    timeline::enter(timeline::WorkerState::Dispatch);
    WorkerGuard { ctx }
}

/// Run the deferred action left by whichever side switched away.
///
/// # Safety
///
/// `w` must be this thread's live `WorkerCtx`.
unsafe fn process_post(w: *mut WorkerCtx) {
    // SAFETY: exclusive by contract.
    let post = std::mem::replace(unsafe { &mut (*w).post }, Post::None);
    // SAFETY: worker fields are plain reads.
    let (id, rq) = unsafe { ((*w).worker_id, &(*w).requeue) };
    match post {
        Post::None => {}
        // READY must be published before the hint so the claim by the
        // eventual popper succeeds.
        Post::Requeue(u) => {
            u.state.set_ready();
            rq.requeue(id, u);
        }
        Post::Displaced(u) => {
            u.state.set_ready();
            rq.displace(id, u);
        }
        Post::Terminated(u) => {
            u.state.terminate();
            if let Some(joiner) = u.join.complete() {
                // A mid-suspend joiner (`Pending`) is requeued by its
                // own Block processing instead.
                if joiner.state.wake() == Wake::Requeue {
                    rq.displace(id, joiner);
                }
            }
        }
        Post::Block(u) => {
            // A wake that raced the switch makes it runnable right now.
            if u.state.park() {
                rq.displace(id, u);
            }
        }
    }
}

/// The bookkeeping of every dispatch of a claimed ULT, whether the
/// worker loop ([`run_ult`]), a [`yield_to`] or a direct resume hands
/// it the worker: first-run latency, its span, the `UltRun` event.
fn begin(ult: &UltCore) {
    ult.record_first_run();
    if ult.span != 0 {
        // The unit's events (and any spans it spawns) attribute to it.
        span::set_current(ult.span);
    }
    emit(EventKind::UltRun, 0);
}

/// The direct continuation resume: pick the ULT a unit that just
/// finished on worker `w` switches straight into
/// ([`Requeue::resume_next`]), with the dispatch bookkeeping the worker
/// loop would have done (heartbeat and abandon check, chaos yield
/// point, [`begin`]). Returns its context, now `current`, or `None` to
/// go back to the scheduler context. Runs on the finished unit's stack,
/// which is never unwound, so nothing may stay alive in this frame.
///
/// # Safety
///
/// `w` must be this thread's live `WorkerCtx`, with no unit current.
unsafe fn resume_next(w: *mut WorkerCtx) -> Option<RawContext> {
    // SAFETY: exclusive by contract.
    let w = unsafe { &mut *w };
    if !w.duty.as_ref()?.check_in() {
        return None;
    }
    let next = w.requeue.resume_next(w.worker_id)?;
    kernel::Duty::yield_point();
    if !next.claim() {
        return None;
    }
    begin(&next);
    // SAFETY: the claim grants exclusive execution; `ctx` holds the
    // suspended (or bootstrap) context.
    let ctx = unsafe { *next.ctx.get() };
    w.current = Some(next);
    Some(ctx)
}

/// Claim and execute one ULT hint from a worker loop.
///
/// Returns `false` for stale hints (already claimed elsewhere), `true`
/// once the ULT — or a chain of units it resumed directly
/// ([`Requeue::resume_next`]) — gave the worker back.
///
/// # Panics
///
/// Panics if the calling thread has not [`enter_worker`]ed.
pub fn run_ult(ult: &Arc<UltCore>) -> bool {
    let w = worker_ptr();
    assert!(!w.is_null(), "run_ult outside an lwt worker");
    if !ult.claim() {
        return false;
    }
    begin(ult);
    timeline::enter(timeline::WorkerState::Busy);
    // SAFETY: the claim grants exclusive execution; `ctx` holds the
    // suspended (or bootstrap) context; `w` is live for the whole loop.
    unsafe {
        (*w).current = Some(ult.clone());
        let target = *ult.ctx.get();
        switch(&mut (*w).sched_ctx, target);
        process_post(w);
    }
    timeline::enter(timeline::WorkerState::Dispatch);
    if lwt_metrics::tracing_enabled() {
        // Back in scheduler context; `yield_to` chains may have left a
        // different span current, so clear unconditionally under the
        // tracing gate.
        span::set_current(span::NO_SPAN);
    }
    true
}

/// Entry point of every ULT (first frames on its own stack).
unsafe extern "sysv64" fn ult_entry(data: *mut u8) -> ! {
    let w = worker_ptr();
    debug_assert!(!w.is_null());
    // SAFETY: live worker ctx; completes any handoff that targeted us.
    unsafe { process_post(w) };

    // SAFETY: kept alive by the Arc in the worker's `current`.
    let ult = unsafe { &*data.cast::<UltCore>() };
    // SAFETY: the RUNNING claim grants exclusive access.
    let job = unsafe { &mut *ult.job.get() };
    if let Err(p) = catch_unwind(AssertUnwindSafe(|| job.run())) {
        // SAFETY: still exclusive until TERMINATED.
        unsafe { *ult.panic.get() = Some(p) };
    }
    // Final segment ends here, on whichever worker ran it.
    span::on_complete(ult.span);

    // Re-fetch: yields may have migrated us to another worker.
    let w = worker_ptr();
    // SAFETY: live worker ctx of whichever worker resumed us. Whoever
    // gains control next publishes our termination: the directly
    // resumed unit on its way in, else the scheduler context.
    unsafe {
        let me = (*w).current.take().expect("finishing ULT not current");
        (*w).post = Post::Terminated(me);
        let next = resume_next(w).unwrap_or((*w).sched_ctx);
        switch_final(next)
    }
}

/// Yield the calling ULT: its runtime's [`Requeue`] policy decides
/// where it becomes runnable again.
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn yield_now() {
    let w = worker_ptr();
    assert!(
        !w.is_null() && unsafe { (*w).current.is_some() },
        "lwt_ultcore::yield_now() outside a ULT"
    );
    COUNTERS.yields.inc();
    emit(EventKind::Yield, 0);
    // SAFETY: same protocol as lwt-argobots (see module docs): the
    // requeue is deferred to whoever gains control after the switch.
    unsafe {
        let me = (*w).current.take().expect("yielding ULT not current");
        let my_ctx: *mut RawContext = me.ctx.get();
        (*w).post = Post::Requeue(me);
        let sched = (*w).sched_ctx;
        switch(&mut *my_ctx, sched);
        let w = worker_ptr();
        process_post(w);
    }
}

/// Transfer control directly to `target`, re-queuing the calling ULT
/// via the runtime's [`Requeue::displace`] path — the primitive behind
/// MassiveThreads' *work-first* creation ("the current work unit is
/// pushed into the ready queue and the thread executes the new work
/// unit").
///
/// Returns `false` (without switching) when `target` could not be
/// claimed (already running or finished).
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn yield_to(target: &Arc<UltCore>) -> bool {
    let w = worker_ptr();
    assert!(
        !w.is_null() && unsafe { (*w).current.is_some() },
        "lwt_ultcore::yield_to() outside a ULT"
    );
    if !target.claim() {
        return false;
    }
    COUNTERS.yields.inc();
    emit(EventKind::Yield, 0);
    begin(target);
    // SAFETY: same protocol as yield_now, with control landing in the
    // claimed target; the target's resume path (or entry) performs our
    // requeue.
    unsafe {
        let me = (*w).current.take().expect("yielding ULT not current");
        let my_ctx: *mut RawContext = me.ctx.get();
        (*w).post = Post::Displaced(me);
        (*w).current = Some(target.clone());
        let tctx = *target.ctx.get();
        switch(&mut *my_ctx, tctx);
        let w = worker_ptr();
        process_post(w);
    }
    true
}

/// Park the calling ULT (`CthSuspend`): it will not run again until
/// some other code calls [`awaken`] on it. Obtain the `Arc<UltCore>`
/// to awaken through the runtime's handle machinery.
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn suspend() {
    let w = worker_ptr();
    assert!(
        !w.is_null() && unsafe { (*w).current.is_some() },
        "lwt_ultcore::suspend() outside a ULT"
    );
    // SAFETY: same switching protocol as yield_now; publication of the
    // BLOCKED state is deferred to the post-switch processing, which
    // also resolves races with concurrent awaken() calls.
    unsafe {
        let me = (*w).current.take().expect("suspending ULT not current");
        let my_ctx: *mut RawContext = me.ctx.get();
        (*w).post = Post::Block(me);
        let sched = (*w).sched_ctx;
        switch(&mut *my_ctx, sched);
        let w = worker_ptr();
        process_post(w);
    }
}

/// Make a [`suspend`]ed ULT runnable again (`CthAwaken`), enqueuing it
/// through `requeue`. Returns `true` if this call was responsible for
/// the wakeup (including the race where the ULT had not finished
/// parking yet), `false` if the ULT was not suspended (ready, running
/// with no suspend in flight, or terminated).
pub fn awaken(ult: &Arc<UltCore>, requeue: impl FnOnce(Arc<UltCore>)) -> bool {
    match ult.state.wake() {
        Wake::Requeue => {
            requeue(ult.clone());
            true
        }
        Wake::Pending => true,
        Wake::NotParked => false,
    }
}

/// Wait inside a ULT for `target` to terminate by parking: the caller
/// publishes itself in `target`'s joiner slot and [`suspend`]s, and
/// the worker that finishes `target` wakes it through its
/// [`Requeue::displace`] path. Returns at once when `target` already
/// finished.
///
/// The caller must run on a worker of the runtime that executes
/// `target`, since that runtime's policy requeues the joiner. The wait
/// stays registered with the stall watchdog while parked, so a join on
/// a unit that never finishes is still flagged.
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn park_join(target: &Arc<UltCore>) {
    if target.is_terminated() {
        return;
    }
    let w = worker_ptr();
    // SAFETY: when non-null, w is this thread's live ctx.
    let me = (!w.is_null())
        .then(|| unsafe { (*w).current.clone() })
        .flatten()
        .expect("lwt_ultcore::park_join() outside a ULT");
    let _watch = lwt_chaos::block_enter(
        lwt_chaos::BlockKind::Join,
        Arc::as_ptr(target) as u64,
    );
    // A failed publish means `target` finished in the meantime.
    if target.join.publish(me).is_ok() {
        suspend();
    }
    debug_assert!(target.is_terminated());
}

/// Whether the caller is executing inside a ULT.
#[must_use]
pub fn in_ult() -> bool {
    let w = worker_ptr();
    // SAFETY: when non-null, w is this thread's live ctx.
    !w.is_null() && unsafe { (*w).current.is_some() }
}

/// Id of the worker executing the caller, if on a worker thread.
#[must_use]
pub fn current_worker() -> Option<usize> {
    let w = worker_ptr();
    if w.is_null() {
        None
    } else {
        // SAFETY: live ctx.
        Some(unsafe { (*w).worker_id })
    }
}

/// Wait for `cond`: yielding inside a ULT, spin-then-yield on an OS
/// thread — the external-master join discipline of the paper's
/// microbenchmarks.
///
/// Slow-path waits register with the stall watchdog (`lwt-chaos`), so
/// a join on a unit that never completes lands in the blocked-unit
/// table instead of spinning invisibly.
pub fn wait_until(cond: impl Fn() -> bool) {
    wait_until_with(cond, in_ult, yield_now);
}

/// [`wait_until`] for a runtime with its own ULT layer (Argobots):
/// `inside` tells whether the caller is one of its ULTs, `yield_unit`
/// yields it.
pub fn wait_until_with(cond: impl Fn() -> bool, inside: fn() -> bool, yield_unit: fn()) {
    if cond() {
        return;
    }
    let _watch = lwt_chaos::block_enter(
        lwt_chaos::BlockKind::Join,
        std::ptr::from_ref(&cond) as u64,
    );
    if inside() {
        // Yield the ULT so the worker can run other units; if the wait
        // drags on (the awaited unit lives on an OS thread that is not
        // getting scheduled), escalate to napping so this worker stops
        // monopolizing the core (see lwt_sync::AdaptiveRelax).
        let mut relax = lwt_sync::AdaptiveRelax::new();
        while !cond() {
            yield_unit();
            if cond() {
                break;
            }
            relax.relax();
        }
    } else {
        let mut relax = lwt_sync::AdaptiveRelax::new();
        while !cond() {
            relax.relax();
        }
    }
}

/// The relax step for spin-waits that may run inside a ULT (FEB reads,
/// channel operations): yield the ULT when the caller is one, then
/// escalate spin → yield → sleep ([`lwt_sync::AdaptiveRelax`]).
pub fn relax() -> impl FnMut() {
    relax_with(in_ult, yield_now)
}

/// [`relax`] for a runtime with its own ULT layer; see
/// [`wait_until_with`].
pub fn relax_with(inside: fn() -> bool, yield_unit: fn()) -> impl FnMut() {
    let inside = inside();
    let mut escalate = lwt_sync::AdaptiveRelax::new();
    move || {
        if inside {
            yield_unit();
        }
        escalate.relax();
    }
}

/// One work unit (or queue of them) still pending when a bounded
/// drain gave up — an entry in [`DrainError`]'s straggler table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Straggler {
    /// Worker/queue index the pending work was observed on.
    pub worker: usize,
    /// How many units were still pending there.
    pub pending: usize,
    /// What the pending count measures (backend-specific: "ready
    /// queue", "pool", "outstanding messages", …).
    pub what: &'static str,
}

impl std::fmt::Display for Straggler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker {}: {} pending in {}", self.worker, self.pending, self.what)
    }
}

/// A bounded runtime drain (`Glt::finalize`, backend
/// `shutdown_within`) hit its deadline with work still outstanding.
///
/// The runtime's workers were told to abandon their loops and were
/// joined — nothing is left running — but the listed [`Straggler`]s
/// never completed. Blocked units were *abandoned in place* (their
/// stacks and results are freed with the runtime), never unwound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainError {
    /// How long the drain waited before giving up.
    pub waited: std::time::Duration,
    /// Where work was still pending, one entry per non-idle location.
    /// May be empty: a wedged unit *running* (not queued) on a worker
    /// leaves no queue residue but still fails the drain.
    pub stragglers: Vec<Straggler>,
}

impl std::fmt::Display for DrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runtime drain incomplete after {:?}: ",
            self.waited
        )?;
        if self.stragglers.is_empty() {
            write!(f, "workers still busy (no queued stragglers)")
        } else {
            let total: usize = self.stragglers.iter().map(|s| s.pending).sum();
            write!(f, "{total} unit(s) never completed [")?;
            for (i, s) in self.stragglers.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{s}")?;
            }
            write!(f, "]")
        }
    }
}

impl std::error::Error for DrainError {}

/// Why a fallible join (`try_join`) failed: the joined work unit
/// panicked instead of completing.
///
/// Every runtime's `Handle::try_join` (and the GLT layer's
/// `GltHandle::try_join`) returns this one type, so cross-backend
/// code handles child panics uniformly. The infallible `join`s are
/// thin wrappers that [`JoinError::resume`] the payload.
pub struct JoinError(Box<dyn Any + Send>);

impl JoinError {
    /// Wrap a captured panic payload.
    #[must_use]
    pub fn new(payload: Box<dyn Any + Send>) -> Self {
        JoinError(payload)
    }

    /// The panic payload, for inspection or re-raising by hand.
    #[must_use]
    pub fn into_panic(self) -> Box<dyn Any + Send> {
        self.0
    }

    /// Re-raise the child's panic on the calling thread — the behavior
    /// of the infallible `join`s.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.0)
    }

    /// Panic message, when the payload is a string (the common case).
    #[must_use]
    pub fn message(&self) -> Option<&str> {
        self.0
            .downcast_ref::<&'static str>()
            .copied()
            .or_else(|| self.0.downcast_ref::<String>().map(String::as_str))
    }
}

impl std::fmt::Debug for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("JoinError")
            .field(&self.message().unwrap_or("<non-string panic payload>"))
            .finish()
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.message() {
            Some(msg) => write!(f, "joined work unit panicked: {msg}"),
            None => write!(f, "joined work unit panicked"),
        }
    }
}

impl std::error::Error for JoinError {}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel::{ReadyPolicy, Victims, Workers};
    use lwt_sched::ReadyQueue;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// Minimal runtime over the worker kernel: one [`ReadyQueue`] per
    /// worker, round-robin external injection, work stealing between
    /// workers.
    pub(super) struct Mini {
        queues: Vec<ReadyQueue<ReadyUnit>>,
        workers: Workers,
        next: AtomicUsize,
    }

    impl Requeue for Mini {
        fn requeue(&self, worker: usize, ult: Arc<UltCore>) {
            self.queues[worker].push(ult.into());
            self.workers.park_group().notify_near(worker);
        }
    }

    impl ReadyPolicy for Mini {
        const STRAGGLER: &'static str = "mini queue";
        fn queues(&self) -> &[ReadyQueue<ReadyUnit>] {
            &self.queues
        }
        fn workers(&self) -> &Workers {
            &self.workers
        }
        fn victims(&self, _: usize) -> Victims {
            Victims::NearFirst
        }
    }

    impl Mini {
        pub(super) fn start(nworkers: usize) -> Arc<Self> {
            let rt = Arc::new(Mini {
                queues: (0..nworkers).map(|_| ReadyQueue::new()).collect(),
                workers: Workers::new(nworkers, "mini"),
                next: AtomicUsize::new(0),
            });
            for id in 0..nworkers {
                let worker = rt.clone();
                rt.workers
                    .spawn(format!("mini-{id}"), move || kernel::run(&worker, id));
            }
            rt
        }

        fn inject(&self, u: Arc<UltCore>) {
            let target = self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len();
            self.queues[target].inject(u.into());
            self.workers.park_group().notify_near(target);
        }

        pub(super) fn spawn(&self, f: impl FnOnce() + Send + 'static) -> Arc<UltCore> {
            let u = UltCore::new(StackSize(32 * 1024), f);
            self.inject(u.clone());
            u
        }

        pub(super) fn awaken(&self, u: &Arc<UltCore>) -> bool {
            awaken(u, |u| self.inject(u))
        }

        pub(super) fn shutdown(&self) {
            self.workers.shutdown();
        }
    }

    #[test]
    fn ults_run_and_terminate() {
        let rt = Mini::start(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let ults: Vec<_> = (0..100)
            .map(|_| {
                let h = hits.clone();
                rt.spawn(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for u in &ults {
            wait_until(|| u.is_terminated());
        }
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        rt.shutdown();
    }

    #[test]
    fn yield_interleaves_and_migrates() {
        let rt = Mini::start(2);
        let u = rt.spawn(|| {
            for _ in 0..10 {
                assert!(in_ult());
                assert!(current_worker().is_some());
                yield_now();
            }
        });
        wait_until(|| u.is_terminated());
        rt.shutdown();
    }

    #[test]
    fn job_result_round_trip() {
        let rt = Mini::start(1);
        let mut ult = Ult::new(StackSize(32 * 1024), || 99);
        assert_eq!(ult.take(), None, "no result before the unit ran");
        rt.inject(ult.core().clone());
        wait_until(|| ult.core().is_terminated());
        assert_eq!(ult.take(), Some(99));
        assert_eq!(ult.take(), None, "the result moves out once");
        rt.shutdown();
    }

    #[test]
    fn panic_is_captured_not_fatal() {
        let rt = Mini::start(1);
        let u = rt.spawn(|| panic!("inside ULT"));
        wait_until(|| u.is_terminated());
        let p = u.take_panic().expect("panic captured");
        assert_eq!(p.downcast_ref::<&str>(), Some(&"inside ULT"));
        rt.shutdown();
    }

    #[test]
    fn stale_hints_are_skipped() {
        let rt = Mini::start(1);
        let u = rt.spawn(|| {});
        wait_until(|| u.is_terminated());
        // The unit already ran; a duplicate hint must not re-execute.
        assert!(!run_ult_from_external(&u));
        rt.shutdown();
    }

    fn run_ult_from_external(u: &Arc<UltCore>) -> bool {
        // Claim should fail on a terminated unit; we do not need a
        // worker context for a failed claim.
        u.claim()
    }

    #[test]
    fn outside_worker_reports() {
        assert!(!in_ult());
        assert_eq!(current_worker(), None);
    }

    #[test]
    fn wait_until_external_spins() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            f2.store(true, Ordering::Release);
        });
        wait_until(|| flag.load(Ordering::Acquire));
        t.join().unwrap();
    }
}

#[cfg(test)]
mod suspend_tests {
    use super::tests::Mini;
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn suspend_then_awaken_resumes() {
        let rt = Mini::start(1);
        let progress = Arc::new(AtomicUsize::new(0));
        let p = progress.clone();
        let u = rt.spawn(move || {
            p.fetch_add(1, Ordering::SeqCst);
            suspend();
            p.fetch_add(1, Ordering::SeqCst);
        });
        // Wait until parked.
        while progress.load(Ordering::SeqCst) < 1 || u.state.load() != state::BLOCKED {
            std::thread::yield_now();
        }
        assert_eq!(progress.load(Ordering::SeqCst), 1);
        assert!(rt.awaken(&u));
        wait_until(|| u.is_terminated());
        assert_eq!(progress.load(Ordering::SeqCst), 2);
        // Awakening a finished ULT reports false.
        assert!(!rt.awaken(&u));
        rt.shutdown();
    }

    #[test]
    fn awaken_racing_suspend_is_not_lost() {
        // Hammer the park/wake race: the awakener fires as fast as it
        // can while the ULT suspends repeatedly.
        const ROUNDS: usize = 200;
        let rt = Mini::start(1);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let u = rt.spawn(move || {
            for _ in 0..ROUNDS {
                suspend();
                h.fetch_add(1, Ordering::SeqCst);
            }
        });
        let mut woken = 0;
        while woken < ROUNDS {
            if rt.awaken(&u) {
                woken += 1;
                // Wait for the wakeup to be consumed before the next,
                // so each suspend pairs with one awaken.
                let target = woken;
                wait_until(|| {
                    hits.load(Ordering::SeqCst) >= target || u.is_terminated()
                });
            } else {
                std::thread::yield_now();
            }
        }
        wait_until(|| u.is_terminated());
        assert_eq!(hits.load(Ordering::SeqCst), ROUNDS);
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "outside a ULT")]
    fn suspend_outside_ult_panics() {
        suspend();
    }

    #[test]
    fn awaken_ready_unit_is_noop() {
        let rt = Mini::start(1);
        // Never-scheduled unit is READY: awaken must refuse.
        let u = UltCore::new(lwt_fiber::StackSize(16 * 1024), || ());
        assert!(!rt.awaken(&u));
        rt.shutdown();
        // Let the unit drop unscheduled: its entry closure is simply
        // released with the record.
    }
}
