//! Teams, regions, and the two task systems (gcc / icc style).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lwt_sched::{ChaseLev, SharedQueue, Stealer, Worker};
use lwt_sync::{SenseBarrier, SpinLock};

/// Which OpenMP runtime's behavior set to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Flavor {
    /// libgomp-like: shared task queue, cutoff 64 × team size, nested
    /// regions spawn fresh threads.
    #[default]
    Gcc,
    /// Intel-like: per-thread task deques with stealing, cutoff 256 per
    /// queue, nested regions reuse idle threads.
    Icc,
}

/// `OMP_WAIT_POLICY`: how idle threads wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaitPolicy {
    /// Spin. The OpenMP default; maximizes queue contention (the paper
    /// switches gcc task benchmarks *away* from this).
    Active,
    /// Yield to the kernel (and park between regions). What the paper
    /// sets for its gcc task measurements.
    #[default]
    Passive,
}

/// gcc's task cutoff: beyond 64 tasks per team thread, new tasks are
/// executed inline instead of queued (paper §VII-B).
const GCC_CUTOFF_PER_THREAD: usize = 64;
/// icc's task cutoff: 256 queued tasks per thread queue (paper §VII-B).
const ICC_CUTOFF: usize = 256;

/// A queued explicit task: the closure plus its causal trace span
/// (0 when tracing was off at submission).
struct Task {
    span: u64,
    f: Box<dyn FnOnce() + Send + 'static>,
}

/// One parallel-region team.
pub(crate) struct Team {
    size: usize,
    flavor: Flavor,
    wait: WaitPolicy,
    barrier: SenseBarrier,
    /// Shared task queue (gcc flavor).
    gcc_queue: SharedQueue<Task>,
    /// Per-member thief handles (icc flavor), registered at the fork
    /// barrier.
    stealers: SpinLock<Vec<Option<Stealer<Task>>>>,
    /// Tasks queued or running; zero means task-quiescent.
    outstanding: AtomicUsize,
    /// Members whose region body has returned; once all have, only
    /// tasks can create more tasks.
    bodies_done: AtomicUsize,
    /// Team-wide lock backing `#pragma omp critical`.
    critical: SpinLock<()>,
    /// Which `single` constructs (by per-thread sequence number) have
    /// already been claimed.
    single_claims: SpinLock<std::collections::HashSet<usize>>,
}

/// Per-member (per team thread) region state.
struct MemberCtx {
    team: Arc<Team>,
    index: usize,
    /// This member's own task deque (icc flavor).
    worker: Option<Worker<Task>>,
    /// Per-thread count of `single` constructs encountered, pairing the
    /// team's members at the same program point.
    single_seq: Cell<usize>,
}

thread_local! {
    /// Innermost region membership of this OS thread (nested regions
    /// save and restore the previous value).
    static CURRENT: Cell<*const MemberCtx> = const { Cell::new(std::ptr::null()) };
}

/// Whether the calling thread is inside a parallel region.
pub(crate) fn in_region() -> bool {
    CURRENT.with(|c| !c.get().is_null())
}

impl Team {
    pub(crate) fn new(size: usize, flavor: Flavor, wait: WaitPolicy) -> Arc<Team> {
        Arc::new(Team {
            size,
            flavor,
            wait,
            barrier: SenseBarrier::new(size),
            gcc_queue: SharedQueue::new(),
            stealers: SpinLock::new((0..size).map(|_| None).collect()),
            outstanding: AtomicUsize::new(0),
            bodies_done: AtomicUsize::new(0),
            critical: SpinLock::new(()),
            single_claims: SpinLock::new(std::collections::HashSet::new()),
        })
    }

    fn relax(&self) {
        match self.wait {
            WaitPolicy::Active => std::hint::spin_loop(),
            WaitPolicy::Passive => std::thread::yield_now(),
        }
    }

    /// Run one member of the region: fork barrier, body, task drain,
    /// join barrier.
    pub(crate) fn member(self: &Arc<Team>, index: usize, f: &(dyn Fn(&Ctx) + Sync)) {
        self.member_with(index, f, || {});
    }

    /// [`Team::member`] with a hook that runs after this member is
    /// task-quiescent but *before* it arrives at the end barrier.
    /// Everything the hook does is therefore visible to the other
    /// members once they pass the barrier — the ordering the nested
    /// pool relies on to re-queue workers race-free.
    pub(crate) fn member_with(
        self: &Arc<Team>,
        index: usize,
        f: &(dyn Fn(&Ctx) + Sync),
        before_join: impl FnOnce(),
    ) {
        let worker = match self.flavor {
            Flavor::Gcc => None,
            Flavor::Icc => {
                let (w, s) = ChaseLev::new();
                self.stealers.lock()[index] = Some(s);
                Some(w)
            }
        };
        let member = MemberCtx {
            team: self.clone(),
            index,
            worker,
            single_seq: Cell::new(0),
        };
        let prev = CURRENT.with(|c| c.replace(&member));
        // Fork barrier: all stealers registered before anyone works.
        self.barrier.wait(|| self.relax());

        let ctx = Ctx { member: &member };
        lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Busy);
        f(&ctx);
        lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Dispatch);
        self.bodies_done.fetch_add(1, Ordering::AcqRel);

        // Implicit end barrier, a task scheduling point: help run the
        // team's tasks until the whole team is task-quiescent.
        drain_tasks(&member, true);
        before_join();
        self.barrier.wait(|| self.relax());

        CURRENT.with(|c| c.set(prev));
        if self.flavor == Flavor::Icc {
            self.stealers.lock()[index] = None;
        }
    }
}

/// Pop the next runnable task for `member` (own queue, then steal).
fn next_task(member: &MemberCtx) -> Option<Task> {
    match member.team.flavor {
        Flavor::Gcc => member.team.gcc_queue.pop(),
        Flavor::Icc => {
            if let Some(w) = &member.worker {
                if let Some(t) = w.pop() {
                    return Some(t);
                }
            }
            // Work stealing: sweep the other members' deques.
            lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Steal);
            let stealers = member.team.stealers.lock();
            let n = stealers.len();
            for off in 1..n {
                let v = (member.index + off) % n;
                if let Some(Some(s)) = stealers.get(v) {
                    lwt_metrics::registry::COUNTERS.steal_attempts.inc();
                    lwt_metrics::registry::emit(
                        lwt_metrics::EventKind::StealAttempt,
                        v as u64,
                    );
                    if let Some(t) = s.steal() {
                        lwt_metrics::registry::COUNTERS.steal_hits.inc();
                        lwt_metrics::registry::emit(lwt_metrics::EventKind::StealHit, v as u64);
                        return Some(t);
                    }
                }
            }
            None
        }
    }
}

fn run_task(member: &MemberCtx, task: Task) {
    lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Busy);
    if task.span != 0 {
        // Restore the previous span afterwards: cutoff paths run tasks
        // inline inside other tasks (or the region body).
        let prev = lwt_metrics::span::set_current(task.span);
        lwt_metrics::emit(lwt_metrics::EventKind::TaskletExec, 0);
        (task.f)();
        lwt_metrics::span::on_complete(task.span);
        lwt_metrics::span::set_current(prev);
    } else {
        (task.f)();
    }
    lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Dispatch);
    member.team.outstanding.fetch_sub(1, Ordering::AcqRel);
}

/// Execute tasks until the team is task-quiescent. At the region's
/// end (`region_end`), also keep popping and stealing until every
/// member's body has returned: until then a body may still create
/// tasks, and a member that stopped at the first empty moment would
/// never help with them.
fn drain_tasks(member: &MemberCtx, region_end: bool) {
    let team = &member.team;
    // Bodies first: once all are done, only counted tasks create tasks,
    // so a zero `outstanding` read afterwards is final.
    while (region_end && team.bodies_done.load(Ordering::Acquire) < team.size)
        || team.outstanding.load(Ordering::Acquire) > 0
    {
        match next_task(member) {
            Some(t) => run_task(member, t),
            None => {
                lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Idle);
                member.team.relax();
            }
        }
    }
}

/// Per-thread view of the enclosing parallel region
/// (`omp_get_thread_num` and friends).
pub struct Ctx<'a> {
    member: &'a MemberCtx,
}

impl Ctx<'_> {
    /// This thread's index within the team (`omp_get_thread_num`).
    #[must_use]
    pub fn thread_num(&self) -> usize {
        self.member.index
    }

    /// Team size (`omp_get_num_threads`).
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.member.team.size
    }

    /// Whether this is thread 0 — the `#pragma omp master` /
    /// `single`-region guard used by the paper's task microbenchmarks.
    #[must_use]
    pub fn is_master(&self) -> bool {
        self.member.index == 0
    }

    /// `#pragma omp task`: queue `f` per the flavor's policy, or run it
    /// inline once the cutoff triggers.
    pub fn task<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        submit_task(self.member, Box::new(f));
    }

    /// `#pragma omp taskwait` (taskgroup-style): execute and wait until
    /// the whole team is task-quiescent.
    pub fn taskwait(&self) {
        drain_tasks(self.member, false);
    }

    /// Explicit `#pragma omp barrier`.
    pub fn barrier(&self) {
        let team = &self.member.team;
        team.barrier.wait(|| team.relax());
    }

    /// `#pragma omp critical`: run `f` under the team-wide mutual
    /// exclusion lock.
    pub fn critical<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.member.team.critical.lock();
        f()
    }

    /// `#pragma omp single`: exactly one team thread (the first to
    /// arrive at this construct) runs `f`; the others get `None`.
    ///
    /// All team threads must encounter the same sequence of `single`
    /// constructs (the usual OpenMP well-formedness rule) — pairing is
    /// by per-thread arrival count.
    pub fn single<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        let seq = self.member.single_seq.get();
        self.member.single_seq.set(seq + 1);
        let claimed = self.member.team.single_claims.lock().insert(seq);
        if claimed {
            Some(f())
        } else {
            None
        }
    }

    /// A `'static`, shareable handle for creating tasks from inside
    /// other tasks (nested task parallelism).
    #[must_use]
    pub fn team_handle(&self) -> TeamHandle {
        TeamHandle {
            team: self.member.team.clone(),
        }
    }
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("omp::Ctx")
            .field("thread_num", &self.thread_num())
            .field("num_threads", &self.num_threads())
            .finish()
    }
}

fn submit_task(member: &MemberCtx, f: Box<dyn FnOnce() + Send + 'static>) {
    let team = &member.team;
    let task = Task {
        span: lwt_metrics::span::on_spawn(),
        f,
    };
    team.outstanding.fetch_add(1, Ordering::AcqRel);
    match team.flavor {
        Flavor::Gcc => {
            if team.gcc_queue.len() >= GCC_CUTOFF_PER_THREAD * team.size {
                // Cutoff: execute sequentially instead of queueing.
                run_task(member, task);
            } else {
                team.gcc_queue.push(task);
            }
        }
        Flavor::Icc => match &member.worker {
            Some(w) if w.len() < ICC_CUTOFF => w.push(task),
            _ => run_task(member, task),
        },
    }
}

/// Owner-independent task submission handle (see
/// [`Ctx::team_handle`]).
#[derive(Clone)]
pub struct TeamHandle {
    team: Arc<Team>,
}

impl TeamHandle {
    /// Create a task on the calling thread's member context if it
    /// belongs to this team; tasks created from foreign threads run
    /// inline.
    pub fn task<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let cur = CURRENT.with(Cell::get);
        if !cur.is_null() {
            // SAFETY: CURRENT points at a live MemberCtx owned by an
            // active region frame on this thread.
            let member = unsafe { &*cur };
            if Arc::ptr_eq(&member.team, &self.team) {
                submit_task(member, Box::new(f));
                return;
            }
        }
        // Not a member (or a different team): run inline.
        f();
    }
}

impl std::fmt::Debug for TeamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("omp::TeamHandle")
            .field("size", &self.team.size)
            .finish()
    }
}

/// A lifetime-erased region body paired with its team, handed to pool
/// workers.
pub(crate) struct RegionJob {
    team: Arc<Team>,
    f: *const (dyn Fn(&Ctx) + Sync),
}

// SAFETY: the closure behind `f` is Sync and the region's caller blocks
// until every member passed the end barrier, bounding all use.
unsafe impl Send for RegionJob {}
// SAFETY: see above.
unsafe impl Sync for RegionJob {}

impl Clone for RegionJob {
    fn clone(&self) -> Self {
        RegionJob {
            team: self.team.clone(),
            f: self.f,
        }
    }
}

impl RegionJob {
    /// Erase the body's lifetime.
    ///
    /// # Safety
    ///
    /// The caller must block until the region completes (every member
    /// passes the end barrier) while `f` stays alive — `parallel`'s
    /// structure guarantees this.
    pub(crate) unsafe fn erase(f: &(dyn Fn(&Ctx) + Sync), team: Arc<Team>) -> Self {
        // SAFETY(transmute): extends the borrow to 'static; the
        // contract above bounds all actual use to the region's scope.
        let f: &'static (dyn Fn(&Ctx) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(&Ctx) + Sync), &'static (dyn Fn(&Ctx) + Sync)>(f)
        };
        RegionJob {
            team,
            f: f as *const _,
        }
    }

    pub(crate) fn team_size(&self) -> usize {
        self.team.size
    }

    /// Run member `index` of the region.
    ///
    /// # Safety
    ///
    /// See [`RegionJob::erase`]: the body must still be alive, which
    /// holds while the region's caller is blocked in its own member.
    pub(crate) unsafe fn run_member(&self, index: usize) {
        // SAFETY: forwarded contract.
        unsafe { self.run_member_with(index, || {}) }
    }

    /// Run member `index` of the region; `before_join` fires after the
    /// member drains its tasks, just before the end barrier (see
    /// [`Team::member_with`]).
    ///
    /// # Safety
    ///
    /// See [`RegionJob::erase`]: the body must still be alive, which
    /// holds while the region's caller is blocked in its own member.
    pub(crate) unsafe fn run_member_with(&self, index: usize, before_join: impl FnOnce()) {
        // SAFETY: forwarded contract.
        let f = unsafe { &*self.f };
        self.team.member_with(index, f, before_join);
    }
}
