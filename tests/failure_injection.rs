//! Failure injection: panics, mid-flight teardown, and pathological
//! shapes that a production runtime must survive.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lwt::{BackendKind, Glt};

/// The watchdog configuration is process-global: tests that force it
/// take turns.
static WATCHDOG: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn panicking_units_do_not_poison_the_runtime() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        // Interleave panicking and healthy units; every healthy unit
        // must still complete and every panic must surface at its own
        // join only.
        let mut panics = 0;
        let mut oks = 0;
        let handles: Vec<_> = (0..40)
            .map(|i| {
                glt.ult_create(move || {
                    if i % 5 == 0 {
                        panic!("unit {i} failing by design");
                    }
                    i
                })
            })
            .collect();
        for h in handles {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join())) {
                Ok(_) => oks += 1,
                Err(_) => panics += 1,
            }
        }
        assert_eq!(panics, 8, "backend {kind}");
        assert_eq!(oks, 32, "backend {kind}");
        // The runtime is still healthy afterwards.
        assert_eq!(glt.ult_create(|| 1).join(), 1, "backend {kind}");
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn shutdown_with_unjoined_completed_work_is_clean() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let done = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..50)
            .map(|_| {
                let d = done.clone();
                glt.ult_create(move || {
                    d.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        // Wait for completion but never join the handles; dropping them
        // unjoined must release everything.
        while done.load(Ordering::Relaxed) < 50 {
            std::thread::yield_now();
        }
        drop(handles);
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn deep_chain_of_dependent_spawns() {
    // A linked chain: unit k spawns and joins unit k+1. Exercises deep
    // join nesting across workers without exhausting anything.
    fn chain(rt: &lwt::argobots::Runtime, depth: usize) -> usize {
        if depth == 0 {
            return 0;
        }
        let rt2 = rt.clone();
        let h = rt.ult_create(move || chain(&rt2, depth - 1));
        h.join() + 1
    }
    let rt = lwt::argobots::Runtime::init(lwt::argobots::Config {
        num_streams: 2,
        ..Default::default()
    });
    assert_eq!(chain(&rt, 200), 200);
    rt.shutdown();
}

#[test]
fn zero_sized_and_huge_payloads() {
    let glt = Glt::builder(BackendKind::Qthreads).workers(2).build();
    // ZST result.
    glt.ult_create(|| ()).join();
    // Large result moved through the completion slot.
    let big = glt.ult_create(|| vec![7u8; 1 << 20]).join();
    assert_eq!(big.len(), 1 << 20);
    assert!(big.iter().all(|&b| b == 7));
    glt.finalize().expect("clean drain");
}

#[test]
fn rapid_init_shutdown_cycles() {
    // Runtime lifecycle churn: no leaked threads or poisoned state.
    for kind in BackendKind::ALL {
        for _ in 0..5 {
            let glt = Glt::builder(kind).workers(1).build();
            assert_eq!(glt.ult_create(|| 2 + 2).join(), 4);
            glt.finalize().expect("clean drain");
        }
    }
}

#[test]
fn join_error_payload_downcasts() {
    // The `JoinError` from a fallible join carries the panic payload
    // verbatim; all three common payload shapes must downcast across
    // every backend.
    #[derive(Debug, PartialEq)]
    struct CustomFault {
        code: u32,
    }

    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();

        // `&'static str` — the `panic!("literal")` shape.
        let err = glt
            .ult_create(|| -> u32 { panic!("static str fault") })
            .try_join()
            .expect_err("unit panicked");
        assert_eq!(
            err.into_panic().downcast_ref::<&str>(),
            Some(&"static str fault"),
            "backend {kind}"
        );

        // `String` — the formatted `panic!("...{}...")` shape, also
        // visible through the `message()` convenience accessor.
        let err = glt
            .ult_create(|| -> u32 { panic!("dynamic {}", 6 * 7) })
            .try_join()
            .expect_err("unit panicked");
        assert_eq!(err.message(), Some("dynamic 42"), "backend {kind}");
        let payload = err
            .into_panic()
            .downcast::<String>()
            .expect("String payload downcasts");
        assert_eq!(*payload, "dynamic 42", "backend {kind}");

        // Arbitrary typed payload via `panic_any` — no message, but a
        // clean downcast to the concrete type.
        let err = glt
            .ult_create(|| -> u32 { std::panic::panic_any(CustomFault { code: 7 }) })
            .try_join()
            .expect_err("unit panicked");
        assert_eq!(err.message(), None, "backend {kind}");
        let payload = err
            .into_panic()
            .downcast::<CustomFault>()
            .expect("typed payload downcasts");
        assert_eq!(*payload, CustomFault { code: 7 }, "backend {kind}");

        glt.finalize().expect("clean drain");
    }
}

#[test]
fn chaos_steal_storm_completes_everything() {
    // With the chaos engine forcing steal failures, victim
    // misdirection, stack-cache misses, FEB wake perturbations, and
    // extra yield points at a high rate, every unit must still run to
    // completion on every backend — fault injection degrades
    // performance, never correctness.
    lwt::chaos::force_chaos(0x00C0_FFEE, 75);
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(4).build();
        let done = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..200)
            .map(|_| {
                let d = done.clone();
                glt.ult_create(move || {
                    d.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(done.load(Ordering::Relaxed), 200, "backend {kind}");
        glt.finalize().expect("clean drain under chaos");
    }
    lwt::chaos::reset_to_env();
}

#[test]
fn watchdog_flags_a_seeded_feb_deadlock() {
    use lwt::chaos::{BlockKind, StallSubject, WatchdogConfig};

    let _serial = WATCHDOG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Seed a deadlock: a reader blocks on an empty FEB cell nobody is
    // filling. The watchdog must flag the blocked wait within its
    // configured interval — and kill nothing (the reader completes
    // normally once the cell is finally written).
    lwt::chaos::force_watchdog(WatchdogConfig {
        interval: std::time::Duration::from_millis(5),
        // Effectively disable worker-stall detection so concurrent
        // tests in this binary can't add unrelated reports.
        worker_stall: std::time::Duration::from_secs(3600),
        blocked_after: std::time::Duration::from_millis(40),
    });

    let cell = Arc::new(lwt::sync::FebCell::<u32>::new());
    let reader = {
        let cell = cell.clone();
        std::thread::spawn(move || cell.read_ff(std::thread::yield_now))
    };

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let flagged = loop {
        let hit = lwt::chaos::reports()
            .iter()
            .any(|r| matches!(r.subject, StallSubject::Blocked(BlockKind::Feb, _)));
        if hit {
            break true;
        }
        if std::time::Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    assert!(flagged, "watchdog never flagged the blocked FEB read");

    // Degradation, not destruction: filling the cell releases the
    // reader unharmed.
    cell.write_ef(9, std::thread::yield_now);
    assert_eq!(reader.join().expect("reader survived being flagged"), 9);

    lwt::chaos::take_reports();
    lwt::chaos::reset_watchdog_to_env();
}

#[test]
fn watchdog_flags_a_parked_massive_join() {
    use lwt::chaos::{BlockKind, StallSubject, WatchdogConfig};
    use std::sync::atomic::AtomicBool;

    // A MassiveThreads ULT joins a child that waits until released.
    // The joiner parks (it is off every run queue), yet the watchdog
    // must still list its wait as blocked — and flagging it harms
    // nothing: the join completes once the child is released.
    let _serial = WATCHDOG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    lwt::chaos::take_reports();
    lwt::chaos::force_watchdog(WatchdogConfig {
        interval: std::time::Duration::from_millis(5),
        worker_stall: std::time::Duration::from_secs(3600),
        blocked_after: std::time::Duration::from_millis(40),
    });

    let rt = lwt::massive::Runtime::init(lwt::massive::Config {
        num_workers: 2,
        policy: lwt::massive::Policy::HelpFirst,
        ..Default::default()
    });
    let release = Arc::new(AtomicBool::new(false));
    let outer = {
        let (rt2, release) = (rt.clone(), release.clone());
        // Spawned from this thread and polled below, never joined while
        // running: the only registered join wait is the parked one.
        rt.spawn(move || {
            let child = rt2.spawn(move || {
                while !release.load(Ordering::Acquire) {
                    lwt::massive::yield_now();
                }
                7
            });
            child.join()
        })
    };

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let flagged = loop {
        let hit = lwt::chaos::reports()
            .iter()
            .any(|r| matches!(r.subject, StallSubject::Blocked(BlockKind::Join, _)));
        if hit || std::time::Instant::now() >= deadline {
            break hit;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    release.store(true, Ordering::Release);
    while !outer.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(outer.join(), 7, "parked joiner survived being flagged");
    rt.shutdown();
    lwt::chaos::take_reports();
    lwt::chaos::reset_watchdog_to_env();
    assert!(flagged, "watchdog never flagged the parked join");
}

#[test]
fn oversubscribed_burst() {
    // Far more concurrent blocked units than workers: everything still
    // completes (yield-based waiting, no thread exhaustion).
    let rt = lwt::massive::Runtime::init(lwt::massive::Config {
        num_workers: 2,
        policy: lwt::massive::Policy::HelpFirst,
        ..Default::default()
    });
    let total = rt.run(|rt| {
        let handles: Vec<_> = (0..300)
            .map(|i| {
                let rt2 = rt.clone();
                rt.spawn(move || {
                    // Each unit spawns and joins a child: 600 live
                    // stacks at peak on 2 workers.
                    let c = rt2.spawn(move || i);
                    c.join()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).sum::<usize>()
    });
    assert_eq!(total, 300 * 299 / 2);
    rt.shutdown();
}

#[test]
fn direct_resume_chain_keeps_the_watchdog_quiet() {
    use lwt::chaos::{StallSubject, WatchdogConfig};
    use std::time::{Duration, Instant};

    // On MassiveThreads a finishing child switches straight into the
    // parent it displaced, so a work-first chain never passes through
    // the worker loop and its heartbeat. The direct resume beats on its
    // own: 3 s of unbroken chain under the default (LWT_WATCHDOG=1)
    // thresholds must flag nothing.
    let _serial = WATCHDOG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    lwt::chaos::force_watchdog(WatchdogConfig::default());
    let rt = lwt::massive::Runtime::init(lwt::massive::Config {
        num_workers: 1,
        policy: lwt::massive::Policy::WorkFirst,
        ..Default::default()
    });
    let spawned = rt.run(|rt| {
        let until = Instant::now() + Duration::from_secs(3);
        let mut n = 0_u64;
        while Instant::now() < until {
            n += rt.spawn(|| 1_u64).join();
        }
        n
    });
    rt.shutdown();
    let stalls: Vec<_> = lwt::chaos::take_reports()
        .into_iter()
        .filter(|r| matches!(r.subject, StallSubject::Worker(..)))
        .collect();
    lwt::chaos::reset_watchdog_to_env();
    assert!(spawned > 0, "the chain never ran");
    assert!(stalls.is_empty(), "healthy direct-resume chain flagged: {stalls:?}");
}
