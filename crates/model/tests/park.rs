//! Model-checked parking: the *real* `ParkGroup` wake-one protocol,
//! the `Parker` token machine (routed through the crates' `sysapi`
//! facades onto the `lwt-model` shims), and the worker kernel's idle
//! step that every backend parks through, explored under the
//! deterministic scheduler.
//!
//! Under `--cfg lwt_model`, `ParkGroup::park` sleeps with **no backstop
//! timeout** (see `crates/sched/src/park.rs`): a lost wake is a
//! livelock the checker detects, not a 200 ms hiccup a timeout would
//! silently absorb. These tests are therefore the proof the backstops
//! are defense in depth only.
//!
//! Build and run with:
//! `RUSTFLAGS="--cfg lwt_model" cargo test -p lwt-model --test park`
#![cfg(lwt_model)]

use std::sync::Arc;

use lwt_model::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use lwt_model::thread;
use lwt_model::{Checker, Outcome};
use lwt_sched::{force_wait_policy, ParkGroup, ParkResult, WaitPolicy};
use lwt_sync::{Backoff, Parker};
use lwt_ultcore::kernel::Workers;

fn quick() -> Checker {
    Checker::new().max_executions(400_000).time_budget_ms(45_000)
}

/// The Parker token is never lost: an unpark delivered at *any* point
/// relative to the park — before the sleeper arrives, mid-descent, or
/// while it sleeps — must let the park return. A broken token machine
/// shows up as a livelock (the model-build park has no timeout).
#[test]
fn parker_unpark_before_or_during_park_is_not_lost() {
    quick().check(|| {
        let p = Arc::new(Parker::new());
        let p2 = Arc::clone(&p);
        let sleeper = thread::spawn(move || p2.park());
        p.unpark();
        sleeper.join();
    });
}

/// The store-buffering race at the heart of the protocol: a producer
/// publishes work then notifies, while the idler announces then
/// re-checks. In every interleaving either the idler's re-check sees
/// the work (park aborts) or the notifier sees the announcement (token
/// delivered). If both sides could miss each other — the classic lost
/// wake — the blocking model-build sleep would livelock.
#[test]
fn wake_one_never_loses_the_only_wake() {
    force_wait_policy(WaitPolicy::Passive);
    quick().check(|| {
        let group = Arc::new(ParkGroup::new(1));
        let work = Arc::new(AtomicUsize::new(0));
        let (g2, w2) = (Arc::clone(&group), Arc::clone(&work));
        let producer = thread::spawn(move || {
            // Push first, then wake — the ordering contract every
            // backend's spawn/requeue site follows.
            w2.store(1, Ordering::SeqCst);
            g2.notify();
        });
        while work.load(Ordering::SeqCst) == 0 {
            // A dry sweep parks; any return re-sweeps. TimedOut cannot
            // happen here (no backstop in the model build).
            let res = group.park(0, None, || work.load(Ordering::SeqCst));
            assert_ne!(res, ParkResult::TimedOut, "model park has no timeout");
        }
        producer.join();
        assert_eq!(group.idle_workers(), 0, "exited worker still announced");
    });
}

/// Wake-one with *two* sleepers: a single push plus a single notify
/// must get the unit consumed — the handoff flag may suppress herd
/// wakes, but never the one wake that matters — and `unpark_all` must
/// then release everyone for shutdown, exactly the backend finalize
/// sequence (stop flag, then tokens for all).
#[test]
fn one_push_one_notify_feeds_a_fully_parked_pair() {
    force_wait_policy(WaitPolicy::Passive);
    quick().check(|| {
        let group = Arc::new(ParkGroup::new(2));
        let work = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (g, wk, st) = (Arc::clone(&group), Arc::clone(&work), Arc::clone(&stop));
                thread::spawn(move || loop {
                    if st.load(Ordering::SeqCst) {
                        break;
                    }
                    if wk.compare_exchange(1, 0, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
                        continue; // consumed the unit; re-sweep
                    }
                    // Both queues and the stop flag count as "pending":
                    // a park racing the shutdown stores must abort.
                    let _ = g.park(w, None, || {
                        wk.load(Ordering::SeqCst) + usize::from(st.load(Ordering::SeqCst))
                    });
                })
            })
            .collect();
        work.store(1, Ordering::SeqCst);
        group.notify();
        while work.load(Ordering::SeqCst) != 0 {
            thread::yield_now();
        }
        stop.store(true, Ordering::SeqCst);
        group.unpark_all();
        for t in workers {
            t.join();
        }
    });
}

/// The idler side of DESIGN §12 lives in one function,
/// `kernel::Crew::idle`, which every backend's loop calls on a dry
/// sweep. Run that function — backoff, reactor poll and park included —
/// against a producer that pushes then notifies: in every interleaving
/// the idler either runs the unit (its sweep or the park's re-check saw
/// the push) or is woken by the notify. A lost wake is a livelock here,
/// since the model-build park has no backstop.
#[test]
fn kernel_idle_step_runs_the_unit_or_aborts_the_park() {
    force_wait_policy(WaitPolicy::Passive);
    quick().check(|| {
        let workers = Workers::new(1, "model");
        let crew = Arc::clone(workers.crew());
        let work = Arc::new(AtomicUsize::new(0));
        // Start saturated, so the first dry sweep goes straight to the
        // park: spin hints are schedule points, and while the backoff
        // still spins the producer always gets to run before the park.
        let mut backoff = Backoff::new();
        while !backoff.is_saturated() {
            backoff.spin();
        }
        let (c2, w2) = (Arc::clone(&crew), Arc::clone(&work));
        let producer = thread::spawn(move || {
            w2.store(1, Ordering::SeqCst);
            c2.park.notify_near(0);
        });
        // The worker loop: sweep, and on a dry sweep take one idle step.
        while work.swap(0, Ordering::SeqCst) == 0 {
            let go_on = crew.idle(0, &mut backoff, None, || work.load(Ordering::SeqCst));
            assert!(go_on, "nobody stopped the pool");
        }
        producer.join();
        assert_eq!(crew.park.idle_workers(), 0, "exited worker still announced");
    });
}

/// The lost inbox wake: worker 0 parks with its inbox as the only work
/// it can see, while a wake to worker 1 is still in flight (worker 1
/// holds the handoff until it leaves the idle path). A producer then
/// lands a unit in inbox 0 and wakes with `wake`. Only worker 0 can
/// drain its inbox, so in every interleaving worker 0 must run the unit
/// (its sweep or the park's re-check saw the push) or be woken.
fn inbox_push_while_a_handoff_is_in_flight(wake: fn(&ParkGroup)) {
    let group = Arc::new(ParkGroup::new(2));
    let inbox = Arc::new(AtomicUsize::new(0));
    // Worker 1 parks once with nothing it could run, and is woken.
    let g1 = Arc::clone(&group);
    let woken = thread::spawn(move || {
        let _ = g1.park(1, None, || 0);
    });
    while group.idle_workers() == 0 {
        thread::yield_now();
    }
    group.notify_near(1);
    let (g0, i0) = (Arc::clone(&group), Arc::clone(&inbox));
    let owner = thread::spawn(move || {
        while i0.swap(0, Ordering::SeqCst) == 0 {
            let _ = g0.park(0, None, || i0.load(Ordering::SeqCst));
        }
    });
    inbox.store(1, Ordering::SeqCst);
    wake(&group);
    owner.join();
    woken.join();
    assert_eq!(group.idle_workers(), 0, "exited worker still announced");
}

/// Inbox work wakes its owner by name (`ReadyPolicy::post`): the
/// targeted wake ignores the handoff, so the unit is never stranded.
#[test]
fn inbox_push_wakes_its_owner_despite_a_handoff_in_flight() {
    force_wait_policy(WaitPolicy::Passive);
    quick().check(|| inbox_push_while_a_handoff_is_in_flight(|g| g.notify_worker(0)));
}

/// The wake the fix replaced: a scanning wake-one is suppressed by the
/// in-flight handoff, and worker 0 sleeps beside its unit (a livelock
/// here, a 200 ms backstop stall in a passive-policy run).
#[test]
fn scanning_wake_strands_inbox_work_behind_a_handoff() {
    force_wait_policy(WaitPolicy::Passive);
    let outcome = quick().run(|| inbox_push_while_a_handoff_is_in_flight(|g| g.notify_near(0)));
    assert!(
        matches!(outcome, Outcome::Fail { .. }),
        "notify_near no longer strands the inbox unit: {outcome:?}"
    );
}
