//! ULT lifecycle word and the parking-join handshake.
//!
//! Two small state machines that every ultcore-family runtime shares:
//!
//! * [`UnitState`] — a stackful unit's `READY → RUNNING → (BLOCKED) →
//!   TERMINATED` word plus the `wake_pending` flag that resolves an
//!   [`UnitState::wake`] racing a suspend still in flight (the unit
//!   has not finished switching away, so it cannot be requeued yet).
//! * [`JoinSlot`] — one joiner parked on a unit's termination. The
//!   joiner [`JoinSlot::publish`]es itself and then suspends; the
//!   terminating side [`JoinSlot::complete`]s the slot after storing
//!   `TERMINATED` and wakes whoever it finds.
//!
//! A joiner needs no separate re-check or retraction step: the slot's
//! word holds both the joiner and the terminated mark, so the publish
//! CAS *is* the re-check — it fails exactly when termination already
//! closed the slot, and then nothing was published to retract. Either
//! the publish precedes the terminator's swap (the terminator wakes
//! the joiner) or it follows it (the joiner returns at once); both
//! sides read-modify-write the same word, so they cannot miss each
//! other.
//!
//! The atomics and the slot cell route through [`crate::sysapi`], so
//! `crates/model/tests/join.rs` runs this exact code under the
//! `lwt-model` checker: a join racing termination never loses its
//! wake, never requeues the joiner twice, and never leaves a stale
//! `wake_pending` behind.

use crate::sysapi::{AtomicBool, AtomicUsize, UnsafeCell};
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};

/// The values of a [`UnitState`] word.
pub mod unit_state {
    /// Queued and claimable.
    pub const READY: usize = 0;
    /// Claimed by a worker (running, or suspended mid-handoff).
    pub const RUNNING: usize = 1;
    /// Completed.
    pub const TERMINATED: usize = 2;
    /// Parked by a suspend; resumable only through
    /// [`super::UnitState::wake`].
    pub const BLOCKED: usize = 3;
}

use unit_state::{BLOCKED, READY, RUNNING, TERMINATED};

/// What the caller of [`UnitState::wake`] must do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The unit was parked: it is `READY` again and the caller must
    /// enqueue it.
    Requeue,
    /// The unit is still running (possibly mid-suspend). The wake was
    /// recorded; its own post-switch park processing requeues it.
    Pending,
    /// The unit is ready or terminated: nothing was parked.
    NotParked,
}

/// Lifecycle word of one stackful unit.
#[derive(Debug)]
pub struct UnitState {
    state: AtomicUsize,
    /// A wake that raced a suspend in progress; consumed by
    /// [`UnitState::park`].
    wake_pending: AtomicBool,
}

impl Default for UnitState {
    fn default() -> Self {
        UnitState::new()
    }
}

impl UnitState {
    /// A fresh unit, born `READY`: its creator enqueues it.
    #[must_use]
    pub fn new() -> Self {
        UnitState {
            state: AtomicUsize::new(READY),
            wake_pending: AtomicBool::new(false),
        }
    }

    /// Claim `READY → RUNNING`: exclusive execution rights. `false`
    /// for a stale queue entry (already claimed or finished).
    #[must_use]
    pub fn claim(&self) -> bool {
        self.state
            .compare_exchange(READY, RUNNING, Acquire, Relaxed)
            .is_ok()
    }

    /// Publish `READY` after a yield has switched away. Must precede
    /// the enqueue so the eventual popper's claim succeeds.
    pub fn set_ready(&self) {
        self.state.store(READY, Release);
    }

    /// Publish `TERMINATED` once the dying stack has been left.
    pub fn terminate(&self) {
        self.state.store(TERMINATED, Release);
    }

    /// Whether the unit has completed. `Acquire`: everything the unit
    /// wrote before terminating is visible afterwards.
    #[must_use]
    pub fn is_terminated(&self) -> bool {
        self.state.load(Acquire) == TERMINATED
    }

    /// Raw state, for diagnostics.
    #[must_use]
    pub fn load(&self) -> usize {
        self.state.load(Relaxed)
    }

    /// Post-switch processing of a suspend: the unit's context is
    /// saved. Publishes `BLOCKED`, unless a wake raced in, and returns
    /// `true` when the caller must requeue the unit right away (it is
    /// then `READY`).
    ///
    /// The `BLOCKED` store and the flag re-check pair with the waker's
    /// flag store and state load (store then load on each side), so
    /// all four are `SeqCst`: with weaker orderings both sides can read
    /// the other's old value and the wake is lost.
    #[must_use]
    pub fn park(&self) -> bool {
        if self.wake_pending.swap(false, SeqCst) {
            // The wake arrived while the unit was still switching away.
            self.state.store(READY, Release);
            return true;
        }
        self.state.store(BLOCKED, SeqCst);
        // Re-check: a waker may have set the flag between the swap
        // above and the BLOCKED store; it then saw RUNNING and left
        // the requeue to us. A waker that saw BLOCKED wins the CAS
        // below instead, so exactly one side requeues.
        self.wake_pending.swap(false, SeqCst)
            && self
                .state
                .compare_exchange(BLOCKED, READY, AcqRel, Relaxed)
                .is_ok()
    }

    /// Make a parked unit runnable again (`CthAwaken`).
    pub fn wake(&self) -> Wake {
        loop {
            match self.state.load(Acquire) {
                BLOCKED => {
                    if self
                        .state
                        .compare_exchange(BLOCKED, READY, AcqRel, Relaxed)
                        .is_ok()
                    {
                        return Wake::Requeue;
                    }
                }
                RUNNING => {
                    // Mid-suspend: the flag is consumed by `park`. Simply
                    // running: a later suspend consumes it and returns at
                    // once — a wake that overtook its park.
                    self.wake_pending.store(true, SeqCst);
                    if self.state.load(SeqCst) != BLOCKED {
                        return Wake::Pending;
                    }
                    // The park published BLOCKED meanwhile. Whoever takes
                    // the flag back owns the requeue: the parker's
                    // re-check, or this waker (loop to the BLOCKED arm).
                    // Left set, the flag would cut short the unit's
                    // *next* suspend.
                    if !self.wake_pending.swap(false, SeqCst) {
                        return Wake::Pending;
                    }
                }
                _ => return Wake::NotParked,
            }
        }
    }
}

/// Nobody is waiting and the unit is still live.
const EMPTY: usize = 0;
/// A joiner is published in the slot.
const WAITING: usize = 1;
/// The unit terminated; the slot is closed.
const DONE: usize = 2;

/// One joiner parked on a unit's termination.
pub struct JoinSlot<T> {
    state: AtomicUsize,
    /// Written by the joiner before its publishing CAS; read by the
    /// terminator only after its swap observed `WAITING`.
    joiner: UnsafeCell<Option<T>>,
}

// SAFETY: the cell is handed over by the state word — the joiner
// writes it before a Release CAS, the terminator reads it after an
// Acquire swap that observed that CAS, and a failed publish leaves it
// to the joiner alone (the terminator never reads it after `DONE`).
unsafe impl<T: Send> Send for JoinSlot<T> {}
// SAFETY: see above.
unsafe impl<T: Send> Sync for JoinSlot<T> {}

impl<T> Default for JoinSlot<T> {
    fn default() -> Self {
        JoinSlot::new()
    }
}

impl<T> JoinSlot<T> {
    /// An empty slot on a live unit.
    #[must_use]
    pub fn new() -> Self {
        JoinSlot {
            state: AtomicUsize::new(EMPTY),
            joiner: UnsafeCell::new(None),
        }
    }

    /// Publish `joiner` as the unit's one waiter. `Ok` means the
    /// terminator will hand the joiner back to be woken, so the caller
    /// must suspend; `Err` returns the joiner because the unit already
    /// terminated.
    ///
    /// # Errors
    ///
    /// The joiner itself, when the slot is already closed.
    ///
    /// # Panics
    ///
    /// Panics if a joiner is already published (one join per unit).
    pub fn publish(&self, joiner: T) -> Result<(), T> {
        if self.state.load(Acquire) == DONE {
            return Err(joiner);
        }
        // SAFETY: the slot is not WAITING (one joiner per unit), so the
        // terminator does not read the cell until our CAS publishes it.
        unsafe { *self.joiner.get() = Some(joiner) };
        match self.state.compare_exchange(EMPTY, WAITING, AcqRel, Acquire) {
            Ok(_) => Ok(()),
            Err(DONE) => {
                // SAFETY: the terminator closed the slot without seeing
                // a joiner, so it never touches the cell: ours again.
                Err(unsafe { (*self.joiner.get()).take() }.expect("joiner just stored"))
            }
            Err(_) => panic!("a unit can have only one joiner"),
        }
    }

    /// Close the slot on termination (call after publishing the
    /// unit's `TERMINATED` state). Returns the joiner to wake, if one
    /// was published.
    pub fn complete(&self) -> Option<T> {
        if self.state.swap(DONE, AcqRel) == WAITING {
            // SAFETY: the Acquire swap observed the joiner's publishing
            // CAS; the joiner never touches the cell again.
            unsafe { (*self.joiner.get()).take() }
        } else {
            None
        }
    }
}

#[cfg(all(test, not(lwt_model)))]
mod tests {
    use super::*;

    #[test]
    fn park_then_wake_requeues_once() {
        let s = UnitState::new();
        assert!(s.claim());
        assert!(!s.park());
        assert_eq!(s.wake(), Wake::Requeue);
        assert_eq!(s.wake(), Wake::NotParked);
        assert!(s.claim());
    }

    #[test]
    fn wake_before_park_is_consumed_by_it() {
        let s = UnitState::new();
        assert!(s.claim());
        assert_eq!(s.wake(), Wake::Pending);
        assert!(s.park(), "the early wake must requeue the parker");
        assert!(s.claim());
        // The flag was consumed: the next park really parks.
        assert!(!s.park());
    }

    #[test]
    fn terminated_and_ready_units_are_not_parked() {
        let s = UnitState::new();
        assert_eq!(s.wake(), Wake::NotParked);
        assert!(s.claim());
        s.terminate();
        assert!(s.is_terminated());
        assert_eq!(s.wake(), Wake::NotParked);
        assert!(!s.claim());
    }

    #[test]
    fn join_slot_hands_the_joiner_to_the_terminator() {
        let slot = JoinSlot::new();
        assert_eq!(slot.publish(7), Ok(()));
        assert_eq!(slot.complete(), Some(7));
        assert_eq!(slot.complete(), None);
    }

    #[test]
    fn join_slot_refuses_a_joiner_after_termination() {
        let slot = JoinSlot::new();
        assert_eq!(slot.complete(), None);
        assert_eq!(slot.publish(7), Err(7));
    }
}
