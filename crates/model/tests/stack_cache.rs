//! Model-checked fiber stack cache: the *real* `lwt_fiber::cache`
//! overflow pool (its global `Mutex` routed through the crate's
//! `sysapi` facade onto the `lwt-model` shim Mutex) explored under
//! the deterministic scheduler. The interesting path is the
//! TLS-destructor donation: a worker's local free-list drains into
//! the global pool at thread exit, which the model orders *before*
//! `join` returns (the shim join performs a full OS join).
//!
//! Build and run with:
//! `RUSTFLAGS="--cfg lwt_model" cargo test -p lwt-model --test stack_cache`
#![cfg(lwt_model)]

use lwt_fiber::cache;
use lwt_fiber::stack::StackSize;
use lwt_model::thread;
use lwt_model::Checker;

fn quick() -> Checker {
    Checker::new().max_executions(400_000).time_budget_ms(45_000)
}

/// The cache is process-global and the test harness runs tests on
/// parallel threads: without taking turns, one test's `purge` or
/// `acquire` takes the stack the other just donated.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A stack released on a worker thread must be reachable from another
/// thread after the worker exits: local free-list → global overflow
/// pool (TLS destructor) → foreign `acquire`.
#[test]
fn worker_exit_donates_stacks_to_the_global_pool() {
    let _serial = serial();
    quick().check(|| {
        // The cache is process-global; pin its state at the start of
        // every execution so the search is deterministic.
        cache::set_capacity(1);
        cache::purge();
        let size = StackSize::MIN;
        let worker = thread::spawn(move || {
            let stack = cache::acquire(size);
            let base = stack.base() as usize;
            // Parks in the worker's local free-list (capacity 1).
            drop(stack);
            base
        });
        // join waits out the worker's TLS destructors, so the donation
        // has happened by the time it returns.
        let base = worker.join();
        let again = cache::acquire(size);
        assert_eq!(
            again.base() as usize, base,
            "worker's stack never reached the global pool"
        );
        assert!(again.canary_intact());
        drop(again);
        cache::purge();
    });
}

/// Two threads draining the global pool concurrently: one recycled
/// stack, two acquires — exactly one hit; the other must fall back to
/// a fresh allocation, never a shared or torn stack. The racer
/// returns its live handle (instead of a base address) so both
/// handles provably coexist at the comparison — if the racer dropped
/// its stack first, the root could *legitimately* re-acquire the same
/// recycled stack and equal bases would prove nothing.
#[test]
fn concurrent_acquire_never_hands_out_the_same_stack_twice() {
    let _serial = serial();
    quick().check(|| {
        cache::set_capacity(1);
        cache::purge();
        let size = StackSize::MIN;
        // Seed the global pool with exactly one stack via a worker's
        // exit donation.
        let seed = thread::spawn(move || {
            drop(cache::acquire(size));
        });
        seed.join();
        let racer = thread::spawn(move || cache::acquire(size));
        let mine = cache::acquire(size);
        let theirs = racer.join();
        assert_ne!(
            mine.base() as usize,
            theirs.base() as usize,
            "two live handles share one stack"
        );
        assert!(mine.canary_intact() && theirs.canary_intact());
        drop(mine);
        drop(theirs);
        cache::purge();
    });
}
