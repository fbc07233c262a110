//! The worker kernel: the mechanics every backend shares, written once.
//!
//! The paper's Table I separates the five LWT libraries by queue
//! topology, victim set, unit kinds and join mechanism — not by how an
//! idle worker backs off and sleeps, or how a runtime shuts down. That
//! plumbing lives here:
//!
//! * [`Workers`] — the thread lifecycle: spawn, [`Workers::shutdown`],
//!   the bounded [`Workers::shutdown_within`] drain, and `Drop`.
//! * [`Crew::idle`] — the one idle step every worker loop takes on a
//!   dry sweep. Converse and Argobots call it from their own dispatch
//!   loops.
//! * [`run`] — the whole worker loop of the ready-queue backends (Go,
//!   Qthreads, MassiveThreads), generic over a [`ReadyPolicy`] that
//!   supplies the Table I differences: the [`Victims`] set and the
//!   [`Requeue`] side.
//! * [`pop_own_ult`] — the direct continuation resume a finishing ULT
//!   takes ([`Requeue::resume_next`]), sharing [`run`]'s own-queue pop
//!   and its per-dispatch bookkeeping (heartbeat, abandon check, chaos
//!   yield point).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lwt_metrics::registry::{emit, COUNTERS, STEAL_DWELL};
use lwt_metrics::{clock, timeline, EventKind, WorkerState};
use lwt_sched::{near_first, ParkGroup, ParkResult, RandomVictim, ReadyQueue};
use lwt_sync::{Backoff, SpinLock};

use crate::{enter_worker_on_duty, run_unit, DrainError, ReadyUnit, Requeue, Straggler, UltCore};

/// Grace period granted after a drain deadline expires, between
/// raising the `abandon` flag and detaching workers that still have
/// not exited: long enough for a worker parked between units to notice
/// the flag, short enough that a worker wedged *inside* a unit cannot
/// stall `shutdown_within` indefinitely.
const ABANDON_GRACE: Duration = Duration::from_millis(500);

/// The part of a [`Workers`] pool its threads hold: the park group and
/// the stop/abandon flags. Behind an `Arc`, so threads need not keep
/// the runtime itself alive (Argobots streams do not).
#[derive(Debug)]
pub struct Crew {
    /// Idle-worker parking; every push site notifies it.
    pub park: ParkGroup,
    stop: AtomicBool,
    /// Set when a `shutdown_within` deadline expires: workers exit
    /// between units even with (wedged) units still queued.
    abandon: AtomicBool,
}

impl Crew {
    /// Whether shutdown has begun: workers exit once they run dry.
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Whether a bounded drain gave up: workers exit at once.
    #[must_use]
    pub fn abandoned(&self) -> bool {
        self.abandon.load(Ordering::Acquire)
    }

    /// One idle step, after a sweep of every queue `worker` can reach
    /// came up dry. Returns `false` once shutdown has begun (the worker
    /// leaves its loop), `true` to sweep again.
    ///
    /// Polls the I/O reactor, backs off, and once the backoff saturates
    /// parks. `pending` counts the units this worker could reach: it is
    /// the park's post-announce re-check (DESIGN §12), so a unit it
    /// misses can strand a sleeper until the backstop. A park that found
    /// work or was woken resets the backoff.
    pub fn idle(
        &self,
        worker: usize,
        backoff: &mut Backoff,
        heartbeat: Option<&lwt_chaos::Heartbeat>,
        pending: impl Fn() -> usize,
    ) -> bool {
        if self.stopping() {
            return false;
        }
        timeline::enter(WorkerState::Idle);
        // Readiness wakes repost through this runtime's own queues, so
        // a non-zero return means work may exist: sweep again.
        if lwt_sched::io_poll() > 0 {
            backoff.reset();
            return true;
        }
        backoff.spin();
        if backoff.is_saturated()
            && matches!(
                self.park.park(worker, heartbeat, pending),
                ParkResult::FoundWork | ParkResult::Woken
            )
        {
            backoff.reset();
        }
        true
    }
}

/// What a worker checks at every dispatch, wherever the dispatch
/// happens: the [`run`] loop, or a finishing ULT that resumes the next
/// one directly. Kept in the worker's context, so the direct path —
/// which can chain units for as long as work-first recursion lasts
/// without passing through the loop — still beats the stall watchdog
/// and still honours an abandoned drain.
pub(crate) struct Duty {
    heartbeat: lwt_chaos::Heartbeat,
    crew: Arc<Crew>,
}

impl Duty {
    /// Register worker `me` of `workers` with the stall watchdog.
    fn new(workers: &Workers, me: usize) -> Self {
        Duty {
            heartbeat: lwt_chaos::register_worker(workers.label(), me),
            crew: Arc::clone(workers.crew()),
        }
    }

    /// Before each dispatch: beat the heartbeat. `false` once a bounded
    /// drain abandoned the pool — the worker must run nothing more.
    pub(crate) fn check_in(&self) -> bool {
        self.heartbeat.beat();
        !self.crew.abandoned()
    }

    /// The chaos yield point between dequeuing a unit and running it.
    pub(crate) fn yield_point() {
        if lwt_chaos::should_inject(lwt_chaos::FaultSite::YieldPoint) {
            std::thread::yield_now();
        }
    }
}

/// A runtime's worker threads and their lifecycle. Dropping it stops
/// and joins every thread still attached.
pub struct Workers {
    crew: Arc<Crew>,
    threads: SpinLock<Vec<JoinHandle<()>>>,
    shut: AtomicBool,
    /// Backend label for the stall watchdog and panic messages.
    label: &'static str,
}

impl Workers {
    /// An empty pool whose park group has `park_slots` slots (worker
    /// ids at or past it nap instead of sleeping).
    #[must_use]
    pub fn new(park_slots: usize, label: &'static str) -> Self {
        Workers {
            crew: Arc::new(Crew {
                park: ParkGroup::new(park_slots),
                stop: AtomicBool::new(false),
                abandon: AtomicBool::new(false),
            }),
            threads: SpinLock::new(Vec::new()),
            shut: AtomicBool::new(false),
            label,
        }
    }

    /// What the pool's threads share with it.
    #[must_use]
    pub fn crew(&self) -> &Arc<Crew> {
        &self.crew
    }

    /// The pool's park group.
    #[must_use]
    pub fn park_group(&self) -> &ParkGroup {
        &self.crew.park
    }

    /// The backend label the pool was created with.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Start one more worker thread, named `name`, running `body`.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to create the thread.
    pub fn spawn(&self, name: String, body: impl FnOnce() + Send + 'static) {
        COUNTERS.os_threads_spawned.inc();
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(body)
            .unwrap_or_else(|e| panic!("spawn {} worker thread: {e}", self.label));
        self.threads.lock().push(thread);
    }

    /// Raise `stop` and wake every sleeper, so a fully parked pool sees
    /// the flag now rather than after its backstops; hand back the
    /// threads to join. `None` when shutdown already ran.
    fn begin_stop(&self) -> Option<Vec<JoinHandle<()>>> {
        if self.shut.swap(true, Ordering::AcqRel) {
            return None;
        }
        self.crew.stop.store(true, Ordering::Release);
        self.crew.park.unpark_all();
        Some(std::mem::take(&mut *self.threads.lock()))
    }

    fn join(&self, thread: JoinHandle<()>) {
        if thread.join().is_err() {
            panic!("{} worker thread panicked", self.label);
        }
    }

    /// Stop the workers once they run dry and join them. Idempotent.
    /// Unbounded: a unit that never finishes makes this wait forever —
    /// [`Workers::shutdown_within`] degrades gracefully instead.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn shutdown(&self) {
        for thread in self.begin_stop().into_iter().flatten() {
            self.join(thread);
        }
    }

    /// [`Workers::shutdown`] with a drain deadline: wait up to
    /// `deadline` for the workers to finish their queues, then order
    /// them to abandon the rest. A worker still inside a unit after a
    /// further 500 ms grace is detached, never killed; its `Arc`s keep
    /// the shared state alive. Idempotent (later calls return `Ok`).
    ///
    /// # Errors
    ///
    /// [`DrainError`] when the deadline expired; `pending` then lists
    /// the units still queued per worker, and each non-zero entry
    /// becomes a [`Straggler`] labelled `what`.
    ///
    /// # Panics
    ///
    /// Panics if a finished worker thread panicked.
    pub fn shutdown_within<I: IntoIterator<Item = usize>>(
        &self,
        deadline: Duration,
        what: &'static str,
        pending: impl FnOnce() -> I,
    ) -> Result<(), DrainError> {
        let Some(threads) = self.begin_stop() else {
            return Ok(());
        };
        let timed_out = !join_within(&threads, deadline);
        if timed_out {
            self.crew.abandon.store(true, Ordering::Release);
            self.crew.park.unpark_all();
            join_within(&threads, ABANDON_GRACE);
        }
        for thread in threads.into_iter().filter(JoinHandle::is_finished) {
            self.join(thread);
        }
        if !timed_out {
            return Ok(());
        }
        let stragglers = pending()
            .into_iter()
            .enumerate()
            .filter(|&(_, pending)| pending > 0)
            .map(|(worker, pending)| Straggler {
                worker,
                pending,
                what,
            })
            .collect();
        Err(DrainError {
            waited: deadline,
            stragglers,
        })
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.crew.stop.store(true, Ordering::Release);
        self.crew.park.unpark_all();
        for thread in std::mem::take(&mut *self.threads.lock()) {
            // Never panic in drop; a panicked worker already reported.
            let _ = thread.join();
        }
    }
}

/// Poll `threads` until all have finished or `deadline` elapses;
/// `true` iff all finished in time. Joins nothing.
fn join_within(threads: &[JoinHandle<()>], deadline: Duration) -> bool {
    let until = std::time::Instant::now() + deadline;
    let _watch = lwt_chaos::block_enter(lwt_chaos::BlockKind::Finalize, threads.len() as u64);
    while !threads.iter().all(JoinHandle::is_finished) {
        if std::time::Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Which workers a thief probes when its own queue is dry — Table I's
/// victim set.
#[derive(Debug)]
pub enum Victims {
    /// Every other worker once per dry pop, nearest index first (Go).
    NearFirst,
    /// A fixed list, swept once per dry pop (Qthreads' shepherd
    /// siblings: work never leaves its locality domain).
    List(Vec<usize>),
    /// One uniformly random probe per dry pop (MassiveThreads), so
    /// every other worker is reachable.
    Random(RandomVictim),
}

impl Victims {
    fn steal(&self, queues: &[ReadyQueue<ReadyUnit>], me: usize) -> Option<ReadyUnit> {
        match self {
            Victims::NearFirst => near_first(me, queues.len()).find_map(|v| probe(queues, v)),
            Victims::List(list) => list.iter().find_map(|&v| probe(queues, v)),
            Victims::Random(random) => match random.pick(me) {
                v if v == me => None,
                v => probe(queues, v),
            },
        }
    }

    /// Units this thief could steal: deques only, since an inbox has a
    /// single consumer (its owner).
    fn reachable(&self, queues: &[ReadyQueue<ReadyUnit>], me: usize) -> usize {
        match self {
            Victims::NearFirst | Victims::Random(_) => near_first(me, queues.len())
                .map(|v| queues[v].stealable_len())
                .sum(),
            Victims::List(list) => list.iter().map(|&v| queues[v].stealable_len()).sum(),
        }
    }
}

fn probe(queues: &[ReadyQueue<ReadyUnit>], victim: usize) -> Option<ReadyUnit> {
    COUNTERS.steal_attempts.inc();
    emit(EventKind::StealAttempt, victim as u64);
    let stolen = queues[victim].steal();
    if stolen.is_some() {
        COUNTERS.steal_hits.inc();
        emit(EventKind::StealHit, victim as u64);
    }
    stolen
}

/// A ready-queue backend's Table I policy: all [`run`] needs beyond the
/// shared mechanics. The [`Requeue`] supertrait says where a yielded or
/// displaced ULT goes.
pub trait ReadyPolicy: Requeue + Sized {
    /// What a straggler count measures, in [`DrainError`] reports.
    const STRAGGLER: &'static str;

    /// One ready queue per worker, indexed by worker id.
    fn queues(&self) -> &[ReadyQueue<ReadyUnit>];

    /// The pool whose threads [`run`] the queues.
    fn workers(&self) -> &Workers;

    /// Worker `me`'s victim set.
    fn victims(&self, me: usize) -> Victims;

    /// Push `unit` onto worker `target`'s queue, then wake whoever can
    /// run it (DESIGN §12). A deque push is stealable, so the nearest
    /// sleeper will do. An inbox landing has one consumer, its owner, so
    /// the owner is woken by name: a scanning wake-one could be
    /// suppressed by a handoff in flight to another worker, or spent on
    /// a thief that cannot reach the inbox, and the owner would sleep
    /// until its backstop.
    fn post(&self, target: usize, unit: ReadyUnit) {
        let park = self.workers().park_group();
        if self.queues()[target].push(unit) {
            park.notify_near(target);
        } else {
            park.notify_worker(target);
        }
    }

    /// [`Workers::shutdown_within`], reporting each non-empty ready
    /// queue as a straggler.
    ///
    /// # Errors
    ///
    /// [`DrainError`] when the deadline expired with units still
    /// queued or running.
    fn drain_within(&self, deadline: Duration) -> Result<(), DrainError> {
        self.workers()
            .shutdown_within(deadline, Self::STRAGGLER, || {
                self.queues().iter().map(ReadyQueue::len)
            })
    }
}

/// Worker `me`'s own-queue pop (deque LIFO, then inbox), shared by
/// [`run`] and the direct resume.
fn pop_own<P: ReadyPolicy>(rt: &P, me: usize) -> Option<ReadyUnit> {
    let (popped, exposed) = rt.queues()[me].pop_exposing();
    if exposed {
        // Inbox units just became stealable with no push announcing
        // them; without this wake, thieves that parked while they sat
        // in the inbox sleep beside them until the backstop.
        rt.workers().park_group().notify_near(me);
    }
    popped
}

/// The direct continuation resume of a work-first runtime
/// ([`Requeue::resume_next`]): worker `me`'s newest own unit when it is
/// a ULT — after a work-first spawn, the parent the finishing child
/// displaced. A task on top goes back on the deque for the loop.
pub fn pop_own_ult<P: ReadyPolicy>(rt: &P, me: usize) -> Option<Arc<UltCore>> {
    match pop_own(rt, me)? {
        ReadyUnit::Ult(u) => Some(u),
        task => {
            rt.queues()[me].push(task);
            None
        }
    }
}

/// The ready-queue worker loop, run on worker `me`'s own thread until
/// shutdown: own queue first (deque LIFO, then inbox), then the
/// policy's victims, then [`Crew::idle`].
pub fn run<P: ReadyPolicy>(rt: &Arc<P>, me: usize) {
    let queues = rt.queues();
    let own = &queues[me];
    own.bind();
    let guard = enter_worker_on_duty(me, rt.clone(), Duty::new(rt.workers(), me));
    let duty = guard.duty().expect("kernel worker has a duty");
    let crew = rt.workers().crew();
    let victims = rt.victims(me);
    let mut backoff = Backoff::new();
    // When this worker ran dry (0 while it has work): feeds the
    // steal-loop dwell histogram on the next acquire.
    let mut idle_since_ns: u64 = 0;
    loop {
        if !duty.check_in() {
            break;
        }
        let unit = pop_own(&**rt, me).or_else(|| {
            timeline::enter(WorkerState::Steal);
            victims.steal(queues, me)
        });
        if let Some(u) = unit {
            if idle_since_ns != 0 {
                STEAL_DWELL.record(clock::now_ns().saturating_sub(idle_since_ns));
                idle_since_ns = 0;
            }
            Duty::yield_point();
            backoff.reset();
            run_unit(&u);
            continue;
        }
        if idle_since_ns == 0 {
            idle_since_ns = clock::now_ns();
        }
        let pending = || own.len() + victims.reachable(queues, me);
        if !crew.idle(me, &mut backoff, Some(&duty.heartbeat), pending) {
            break;
        }
    }
}
