//! Execution streams: the scheduler loop, the post-switch protocol, and
//! the in-ULT primitives (`yield_now`, `yield_to`).
//!
//! ## The post-switch protocol
//!
//! A suspending ULT cannot publish "I am resumable" *before* its
//! context is saved (a racing stream could resume a stale context), and
//! cannot publish it *after* (it no longer runs). The runtime therefore
//! hands the publication to whichever code gains control after the
//! switch: the suspender records a [`Post`] action in the stream-local
//! [`EsCtx`], and the scheduler loop (after its `switch` returns) or
//! the resumed ULT (first thing after *its* `switch` returns, or at
//! entry for a fresh ULT) executes it. The same mechanism lets a
//! finishing ULT be marked `TERMINATED` only after its dying stack has
//! been switched away from — closing the stack-free race described in
//! `DESIGN.md` §7.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use lwt_fiber::{switch, switch_final, RawContext};
use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::{span, timeline, EventKind};
use lwt_sync::{Backoff, SpinLock};
use lwt_ultcore::kernel::Crew;

use crate::pool::PoolShared;
use crate::sched::{BasicScheduler, Pick, SchedContext, Scheduler};
use crate::unit::{record_spawn_latency, Unit, UltHandle, UltInner, READY, RUNNING, TERMINATED};

/// Deferred action executed by whoever gains control after a switch.
pub(crate) enum Post {
    None,
    /// Mark READY and push back into its home pool (a yield).
    Requeue(Arc<UltInner>),
    /// Mark TERMINATED (the ULT finished; its stack is now quiescent).
    Terminated(Arc<UltInner>),
}

/// Stream-local execution context, owned by the stream's OS thread and
/// reached from ULTs through the `ES` thread-local.
pub(crate) struct EsCtx {
    pub(crate) sched_ctx: RawContext,
    pub(crate) current: Option<Arc<UltInner>>,
    pub(crate) post: Post,
    pub(crate) stream_id: usize,
}

thread_local! {
    static ES: Cell<*mut EsCtx> = const { Cell::new(std::ptr::null_mut()) };
}

/// Read the stream TLS through an opaque call — see
/// `lwt_ultcore::worker_ptr` for why this must be `#[inline(never)]`:
/// a ULT resumed on another stream must re-read the thread-local, and
/// inlined reads get CSE'd across the switch in release builds.
#[inline(never)]
fn es_ptr() -> *mut EsCtx {
    ES.with(Cell::get)
}

/// Shared state of one execution stream.
pub(crate) struct StreamShared {
    pub(crate) id: usize,
    /// The runtime's stop/abandon flags and park group; slot `id` is
    /// this stream's parker.
    pub(crate) crew: Arc<Crew>,
    /// Pools this stream drains, own pool first. Fixed at creation.
    pub(crate) pools: Vec<Arc<PoolShared>>,
    /// Schedulers pushed by `Runtime::push_scheduler`, adopted by the
    /// stream loop (stacked on top of the current one).
    pub(crate) mailbox: SpinLock<Vec<Box<dyn Scheduler>>>,
}

/// The stream main loop, run on a dedicated OS thread.
pub(crate) fn es_main(shared: &StreamShared) {
    let es = Box::into_raw(Box::new(EsCtx {
        sched_ctx: RawContext::null(),
        current: None,
        post: Post::None,
        stream_id: shared.id,
    }));
    ES.with(|c| c.set(es));
    emit(EventKind::EsStart, shared.id as u64);
    timeline::enter(timeline::WorkerState::Dispatch);

    let ctx = SchedContext {
        pools: shared.pools.clone(),
    };
    let mut scheds: Vec<Box<dyn Scheduler>> = vec![Box::new(BasicScheduler::new())];
    let heartbeat = lwt_chaos::register_worker("argobots", shared.id);
    let mut backoff = Backoff::new();
    loop {
        heartbeat.beat();
        if shared.crew.abandoned() {
            break;
        }
        {
            let mut mb = shared.mailbox.lock();
            while let Some(s) = mb.pop() {
                scheds.push(s);
            }
        }
        let pick = scheds
            .last_mut()
            .expect("scheduler stack never empties")
            .pick(&ctx);
        match pick {
            Pick::Run(unit) => {
                backoff.reset();
                if lwt_chaos::should_inject(lwt_chaos::FaultSite::YieldPoint) {
                    std::thread::yield_now();
                }
                // SAFETY: `es` is live for the whole loop; no aliasing
                // &mut exists while execute runs (ULTs reach it only
                // via the same raw pointer).
                unsafe { execute(es, unit.0) };
            }
            Pick::Idle => {
                // The scheduler proved its pools dry. Pushes into any of
                // this stream's pools fire the pool's wake hook, so the
                // re-check counts exactly those pools.
                let pending = || shared.pools.iter().map(|p| p.len()).sum();
                if !shared.crew.idle(shared.id, &mut backoff, Some(&heartbeat), pending) {
                    break;
                }
            }
            Pick::Done => {
                if scheds.len() > 1 {
                    let mut done = scheds.pop().expect("non-empty stack");
                    done.unload(&ctx);
                } else if shared.crew.stopping() {
                    break;
                } else {
                    // The base scheduler reported Done spuriously; treat
                    // as idle rather than leaving the stream dead.
                    std::thread::yield_now();
                }
            }
        }
    }

    emit(EventKind::EsStop, shared.id as u64);
    timeline::retire();
    ES.with(|c| c.set(std::ptr::null_mut()));
    // SAFETY: `es` came from Box::into_raw above; no ULT still runs on
    // this stream (the loop exits only when idle).
    drop(unsafe { Box::from_raw(es) });
}

/// Execute one claimed-or-stale unit hint.
///
/// # Safety
///
/// `es` must be this thread's live `EsCtx` with no outstanding `&mut`.
unsafe fn execute(es: *mut EsCtx, unit: Unit) {
    match unit {
        Unit::Task(t) => {
            // The task's state machine is its claim CAS (begin_poll
            // fails on a stale hint) and run() does its own timeline,
            // span, and metrics bookkeeping.
            t.run();
        }
        Unit::Tasklet(t) => {
            if !t.claim() {
                return; // stale hint
            }
            record_spawn_latency(&t.spawn_ns);
            timeline::enter(timeline::WorkerState::Busy);
            if t.span != 0 {
                span::set_current(t.span);
            }
            emit(EventKind::TaskletExec, 0);
            // SAFETY: the claim grants exclusive access to `entry`.
            let f = unsafe { (*t.entry.get()).take().expect("tasklet entry missing") };
            if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                // SAFETY: still exclusive until TERMINATED is published.
                unsafe { *t.panic.get() = Some(p) };
            }
            span::on_complete(t.span);
            if t.span != 0 {
                span::set_current(span::NO_SPAN);
            }
            timeline::enter(timeline::WorkerState::Dispatch);
            t.state.store(TERMINATED, Ordering::Release);
        }
        Unit::Ult(u) => {
            if !u.claim() {
                return; // stale hint
            }
            record_spawn_latency(&u.spawn_ns);
            timeline::enter(timeline::WorkerState::Busy);
            if u.span != 0 {
                span::set_current(u.span);
            }
            emit(EventKind::UltRun, 0);
            // SAFETY: the claim grants exclusive execution; `ctx` holds
            // the ULT's suspended (or bootstrap) context.
            unsafe {
                (*es).current = Some(u.clone());
                let target = *u.ctx.get();
                switch(&mut (*es).sched_ctx, target);
                process_post(es);
            }
            timeline::enter(timeline::WorkerState::Dispatch);
            // A yield_to chain may have left some other ULT's span
            // current on this thread; clear it so scheduler-side events
            // don't get mis-attributed.
            if lwt_metrics::tracing_enabled() {
                span::set_current(span::NO_SPAN);
            }
        }
    }
}

/// Run the deferred action left behind by the side that switched away.
///
/// # Safety
///
/// `es` must be this thread's live `EsCtx`.
pub(crate) unsafe fn process_post(es: *mut EsCtx) {
    // SAFETY: exclusive by contract.
    let post = std::mem::replace(unsafe { &mut (*es).post }, Post::None);
    match post {
        Post::None => {}
        Post::Requeue(u) => {
            // SAFETY: `home` is written once at creation.
            let home = unsafe { (*u.home.get()).clone().expect("ULT has no home pool") };
            // READY must be visible before the hint, or a racing popper
            // would fail the claim and drop the only wakeup.
            u.state.store(READY, Ordering::Release);
            home.push(Unit::Ult(u));
        }
        Post::Terminated(u) => {
            u.state.store(TERMINATED, Ordering::Release);
        }
    }
}

/// Entry point of every ULT (runs on the ULT's own stack).
pub(crate) unsafe extern "sysv64" fn ult_entry(data: *mut u8) -> ! {
    let es = es_ptr();
    debug_assert!(!es.is_null());
    // Complete a yield_to handoff that targeted this fresh ULT.
    // SAFETY: es is this worker's live context.
    unsafe { process_post(es) };

    // SAFETY: `data` is the UltInner kept alive by the Arc in
    // es.current for the whole execution.
    let inner = unsafe { &*data.cast::<UltInner>() };
    // SAFETY: the RUNNING claim grants exclusive access to `entry`.
    let f = unsafe { (*inner.entry.get()).take().expect("ULT entry missing") };
    if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
        // SAFETY: still the exclusive owner until TERMINATED.
        unsafe { *inner.panic.get() = Some(p) };
    }
    span::on_complete(inner.span);

    // Re-fetch: the ULT may have migrated to another stream via yields.
    let es = es_ptr();
    // SAFETY: es is the live context of whichever stream resumed us.
    unsafe {
        let me = (*es).current.take().expect("finishing ULT not current");
        (*es).post = Post::Terminated(me);
        let sched = (*es).sched_ctx;
        switch_final(sched)
    }
}

/// Yield the calling ULT back to its stream's scheduler
/// (`ABT_thread_yield`).
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn yield_now() {
    let es = es_ptr();
    assert!(
        !es.is_null() && unsafe { (*es).current.is_some() },
        "lwt_argobots::yield_now() outside a ULT"
    );
    COUNTERS.yields.inc();
    emit(EventKind::Yield, 0);
    // SAFETY: es live; `me` stays alive through the Arc moved into
    // `post` plus the pool hint; my ctx slot outlives the suspension.
    unsafe {
        let me = (*es).current.take().expect("yielding ULT not current");
        let my_ctx: *mut RawContext = me.ctx.get();
        (*es).post = Post::Requeue(me);
        let sched = (*es).sched_ctx;
        switch(&mut *my_ctx, sched);
        // Resumed (possibly on another stream): finish the resumer's
        // handoff.
        let es = es_ptr();
        process_post(es);
    }
}

/// Transfer control directly to `target`, bypassing the scheduler
/// (`ABT_thread_yield_to`) — the calling ULT is re-queued as if it had
/// yielded.
///
/// Falls back to [`yield_now`] when `target` is currently running on
/// some stream, and is a no-op when it already terminated.
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn yield_to<T>(target: &UltHandle<T>) {
    let es = es_ptr();
    assert!(
        !es.is_null() && unsafe { (*es).current.is_some() },
        "lwt_argobots::yield_to() outside a ULT"
    );
    match target.inner.state.load(Ordering::Acquire) {
        TERMINATED => return,
        RUNNING => return yield_now(),
        _ => {}
    }
    if !target.inner.claim() {
        // Lost the claim race; degrade to a plain yield.
        return yield_now();
    }
    COUNTERS.yields.inc();
    emit(EventKind::Yield, 0);
    record_spawn_latency(&target.inner.spawn_ns);
    if target.inner.span != 0 {
        span::set_current(target.inner.span);
    }
    emit(EventKind::UltRun, 0);
    // SAFETY: same protocol as yield_now, except control lands in the
    // claimed target instead of the scheduler; the target's resume path
    // (or entry) performs our requeue.
    unsafe {
        let me = (*es).current.take().expect("yielding ULT not current");
        let my_ctx: *mut RawContext = me.ctx.get();
        (*es).post = Post::Requeue(me);
        (*es).current = Some(target.inner.clone());
        let tctx = *target.inner.ctx.get();
        switch(&mut *my_ctx, tctx);
        let es = es_ptr();
        process_post(es);
    }
}

/// Whether the caller is running inside a ULT on some stream.
#[must_use]
pub fn in_ult() -> bool {
    let es = es_ptr();
    // SAFETY: es, when non-null, is the live EsCtx of this thread.
    !es.is_null() && unsafe { (*es).current.is_some() }
}

/// The id of the stream executing the caller, if any.
#[must_use]
pub fn current_stream() -> Option<usize> {
    let es = es_ptr();
    if es.is_null() {
        None
    } else {
        // SAFETY: live EsCtx of this thread.
        Some(unsafe { (*es).stream_id })
    }
}

/// Wait for `cond`, yielding the ULT when inside one and spin-yielding
/// the OS thread otherwise — the join discipline of `ABT_thread_free`.
pub(crate) fn wait_until(cond: impl Fn() -> bool) {
    lwt_ultcore::wait_until_with(cond, in_ult, yield_now);
}
