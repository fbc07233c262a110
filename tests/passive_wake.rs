//! The passive wait policy must never leave inbox work waiting for a
//! backstop. A test binary of its own: the policy is process-global, so
//! forcing it here cannot leak into any other test's run.

use lwt::{BackendKind, Glt};

/// Regression for the lost inbox wake: under the passive policy, an
/// external spawn lands in worker 0's inbox, and a wake-one that a
/// handoff in flight suppressed (or spent on a thief that cannot reach
/// the inbox) left worker 0 asleep beside it until its 200 ms backstop.
/// Back-to-back external trees hit that window every few hundred trees,
/// and a run can settle into hitting it on most of them. With the owner
/// woken by name, no tree comes near the backstop.
#[test]
fn passive_wake_external_trees_never_wait_out_the_backstop() {
    use std::time::{Duration, Instant};
    fn tree(glt: &Glt, depth: u32, leaf: u64) -> u64 {
        if depth == 0 {
            // Uneven leaves (the right half of the tree is heavier), so
            // one worker runs dry and parks while the other finishes.
            let mut x = 0x9E37_79B9_7F4A_7C15_u64 ^ leaf;
            for _ in 0..(leaf + 1) * 64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            return 1 + u64::from(std::hint::black_box(x) == 0);
        }
        let g = glt.clone();
        let half = 1 << (depth - 1);
        let left = glt.ult_create(move || tree(&g, depth - 1, leaf));
        let right = tree(glt, depth - 1, leaf + half);
        left.join() + right
    }
    lwt::core::force_wait_policy(lwt::core::WaitPolicy::Passive);
    for kind in [BackendKind::MassiveThreads, BackendKind::Qthreads] {
        let glt = Glt::builder(kind)
            .workers(2)
            .wait_policy(lwt::core::WaitPolicy::Passive)
            .build();
        let t0 = Instant::now();
        let (mut trees, mut worst) = (0, Duration::ZERO);
        while t0.elapsed() < Duration::from_secs(2) {
            let g = glt.clone();
            let t = Instant::now();
            assert_eq!(
                glt.ult_create(move || tree(&g, 6, 0)).join(),
                64,
                "backend {kind}"
            );
            worst = worst.max(t.elapsed());
            trees += 1;
        }
        assert!(
            worst < Duration::from_millis(150),
            "backend {kind}: the slowest of {trees} trees took {worst:?} under the passive \
             policy (a worker slept beside inbox work until its backstop)"
        );
        glt.finalize().expect("clean drain");
    }
    lwt::core::reset_wait_policy_to_env();
}
