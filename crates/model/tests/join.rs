//! Model-checked parking joins: the *real* [`UnitState`] and
//! [`JoinSlot`] machines from `lwt-sched` (routed through its `sysapi`
//! facade onto the `lwt-model` shims) explored under the deterministic
//! scheduler.
//!
//! A parking join (`lwt_ultcore::park_join`) is two handshakes stacked
//! on each other. The joiner publishes itself in the child's slot and
//! suspends; the worker finishing the child publishes `TERMINATED`,
//! closes the slot and wakes whoever it found — possibly while the
//! joiner is still switching away, which the `wake_pending` flag of the
//! joiner's own state word resolves. The suites below drive both sides
//! exactly as `lwt-ultcore` sequences them and pin three properties:
//!
//! 1. **no lost wake** — a joiner that published is requeued,
//! 2. **no double requeue** — by exactly one party, and
//! 3. **no stale `wake_pending`** — the joiner's next suspend parks.
//!
//! Build and run with:
//! `RUSTFLAGS="--cfg lwt_model" cargo test -p lwt-model --test join`
#![cfg(lwt_model)]

use std::sync::Arc;

use lwt_model::thread;
use lwt_model::Checker;
use lwt_sched::{unit_state, JoinSlot, UnitState, Wake};

fn quick() -> Checker {
    Checker::new()
        .max_executions(400_000)
        .time_budget_ms(45_000)
}

/// The two fields of an `UltCore` the join protocol touches.
struct Unit {
    state: UnitState,
    join: JoinSlot<Arc<Unit>>,
}

/// A unit a worker has claimed, as both sides of a join are.
fn running() -> Arc<Unit> {
    let u = Arc::new(Unit {
        state: UnitState::new(),
        join: JoinSlot::new(),
    });
    assert!(u.state.claim());
    u
}

/// How one join racing its child's termination played out.
struct Race {
    joiner: Arc<Unit>,
    /// The publish succeeded, so the joiner suspended.
    parked: bool,
    /// Requeues by the joiner's own post-switch park processing.
    by_parker: usize,
    /// Requeues by the worker that finished the child.
    by_waker: usize,
}

/// Joiner and terminator racing from a clean start: the joiner calls
/// `park_join` (publish, then the post-switch `Block` processing of
/// its suspend) while another worker runs the child's `Terminated`
/// processing (publish `TERMINATED`, close the slot, wake the joiner).
fn race() -> Race {
    let child = running();
    let joiner = running();
    let c2 = Arc::clone(&child);
    let terminator = thread::spawn(move || {
        c2.state.terminate();
        match c2.join.complete() {
            Some(j) => match j.state.wake() {
                Wake::Requeue => 1,
                Wake::Pending => 0,
                Wake::NotParked => panic!("published joiner was neither running nor parked"),
            },
            None => 0,
        }
    });
    let (parked, by_parker) = match child.join.publish(Arc::clone(&joiner)) {
        Ok(()) => (true, usize::from(joiner.state.park())),
        Err(_) => (false, 0),
    };
    let by_waker = terminator.join();
    if !parked {
        // The publish only fails on a closed slot, i.e. after the child
        // terminated: returning at once is sound.
        assert!(
            child.state.is_terminated(),
            "join returned before the child finished"
        );
    }
    Race {
        joiner,
        parked,
        by_parker,
        by_waker,
    }
}

/// Property 1: whatever the interleaving, a joiner that suspended is
/// made runnable again — by the terminator's wake or, when that wake
/// landed mid-switch, by its own park processing.
#[test]
fn join_racing_termination_never_loses_its_wake() {
    quick().check(|| {
        let r = race();
        if r.parked {
            assert!(
                r.by_parker + r.by_waker >= 1,
                "joiner parked and nobody requeued it"
            );
            assert!(r.joiner.state.claim(), "woken joiner must be claimable");
        } else {
            assert_eq!(r.by_parker + r.by_waker, 0, "joiner never parked");
        }
    });
}

/// Property 2: never two requeues for one join — a second queue entry
/// would let two workers race to resume the same stack (the claim
/// rejects the stale one, but only if the first already ran).
#[test]
fn join_never_requeues_the_joiner_twice() {
    quick().check(|| {
        let r = race();
        assert!(
            r.by_parker + r.by_waker <= 1,
            "double requeue: parker {} + waker {}",
            r.by_parker,
            r.by_waker
        );
        if r.parked {
            assert!(r.joiner.state.claim());
            assert!(!r.joiner.state.claim(), "second claim on one entry");
        }
    });
}

/// Property 3: once the join resolved and the joiner runs again, its
/// wake is fully consumed — the next suspend really parks (publishes
/// `BLOCKED`) instead of returning at once on a leftover flag.
#[test]
fn join_leaves_no_stale_wake_pending() {
    quick().check(|| {
        let r = race();
        if r.parked {
            assert!(r.joiner.state.claim());
        }
        assert!(
            !r.joiner.state.park(),
            "stale wake_pending cut short a later suspend"
        );
        assert_eq!(r.joiner.state.load(), unit_state::BLOCKED);
        assert_eq!(r.joiner.state.wake(), Wake::Requeue);
    });
}
