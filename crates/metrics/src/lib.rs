//! # lwt-metrics — runtime-wide observability: counters, histograms,
//! event rings, and Chrome-trace export
//!
//! The paper quantifies several of its claims with *counts*, not times:
//! "with 36 threads, [gcc] spawns **35,036 threads** (36 for the main
//! team, and 35 for each outer loop iteration)" while "icc reuses the
//! idle threads but it still creates … **1,296**" (§IX-C). And its
//! *scheduler-behavior* claims — where work units run, how often they
//! migrate, who steals from whom — are only explainable with per-event
//! telemetry. This crate provides both layers:
//!
//! * **Always-on counters** ([`Counter`], [`Gauge`]): one relaxed
//!   atomic increment on the calling thread's own stripe, cheap enough
//!   to never turn off. The well-known
//!   runtime-wide set lives in [`registry::COUNTERS`].
//! * **Always-on histograms** ([`Histogram`]): log2-bucketed latency
//!   distributions (spawn-to-first-run, steal-loop dwell) with
//!   p50/p99/max summaries.
//! * **Opt-in event rings** ([`EventRing`]): per-worker fixed-capacity
//!   lock-free rings of typed scheduler events ([`EventKind`]) with
//!   monotonic nanosecond timestamps. Ring writes hide behind one
//!   relaxed load of the `LWT_TRACE` enabled flag, so the disabled
//!   cost is near zero.
//! * **Snapshot API** ([`registry::snapshot`], [`registry::scoped`]):
//!   scope-reset a workload and read back a structured
//!   [`MetricsSnapshot`], race-free against other suites in the same
//!   process.
//! * **Chrome trace-event export** ([`trace::export`]): merge every
//!   worker's ring into a Perfetto-loadable JSON under
//!   `target/lwt-trace/<run>.json`, gated by `LWT_TRACE=<path|1>` —
//!   including per-span duration tracks and spawn/join flow arrows.
//! * **Causal task spans** ([`span`]): every unit gets a process-
//!   unique trace id at spawn carrying its parent's id; the offline
//!   analyzer ([`critical_path`]) rebuilds the task DAG from the
//!   rings and reports critical-path length, per-span busy/queue
//!   time, and steal-migration counts.
//! * **Worker time accounting** ([`timeline`]): a five-state
//!   Busy/Dispatch/Steal/Idle/Parked machine per worker, accumulated
//!   in wall ns and summarized by [`registry::utilization`] — the
//!   table every `BENCH_*.json` embeds.
//! * **Flight recorder** ([`flightrec`]): on stall or drain failure,
//!   a bounded post-mortem bundle (ring tails, counters, utilization,
//!   watchdog/chaos sections) under `target/lwt-flightrec/`, gated by
//!   `LWT_FLIGHTREC`.
//!
//! This crate deliberately has **zero dependencies** (std only) so any
//! workspace crate — including `lwt-sync` users — can depend on it
//! without cycles.

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub mod clock;
pub mod critical_path;
pub mod event;
pub mod flightrec;
pub mod histogram;
pub mod registry;
pub mod ring;
pub mod span;
pub mod timeline;
pub mod trace;

pub use event::{Event, EventKind};
pub use histogram::{Histogram, HistogramSummary};
pub use registry::{
    emit, emit_with_span, snapshot, scoped, set_tracing, tracing_enabled, CounterSnapshot,
    Counters, MetricsSnapshot, COUNTERS,
};
pub use ring::EventRing;
pub use timeline::{set_accounting, utilization, Utilization, WorkerState};

/// A monotonically increasing event counter (resettable for tests).
///
/// # Reset races
///
/// `reset`/`get` pairs from concurrently running test suites can
/// interleave (suite A resets between suite B's reset and read,
/// stealing B's events). Don't hand-roll that protocol: use
/// [`registry::scoped`], which serializes reset → workload → snapshot
/// under a process-wide lock, or [`Counter::reset`]'s returned value
/// (every event is observed exactly once).
///
/// # Layout
///
/// One counter is [`STRIPES`] cache-line-padded atomic stripes. Each
/// thread increments only its own stripe, picked once per thread
/// (round-robin) and cached in a const-initialised thread-local, so
/// hot-path increments from different workers — a spawner bumping
/// `ults_created` while a thief bumps `steal_attempts`, or two workers
/// both spawning — never bounce a line between cores. Readers pay
/// instead: [`Counter::get`] sums every stripe and [`Counter::reset`]
/// swaps each one. More threads than stripes share stripes, which
/// costs contention but never a count: every stripe is a plain atomic.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

/// Stripes per [`Counter`]: threads beyond this many share stripes.
pub const STRIPES: usize = 32;

/// One thread's share of a [`Counter`], alone on its 128-byte pair of
/// lines (adjacent-line prefetch pairs 64-byte lines).
#[derive(Debug, Default)]
#[repr(align(128))]
struct Stripe(AtomicU64);

/// The calling thread's stripe index, assigned on first use.
///
/// A ULT that migrates between worker threads may keep using the
/// stripe of the thread it started on when the compiler reuses a
/// thread-local address across a context switch. That costs some
/// sharing, never a count.
#[inline]
fn stripe() -> usize {
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    #[cold]
    fn assign() -> usize {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let i = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
        STRIPE.with(|s| s.set(i));
        i
    }
    match STRIPE.with(Cell::get) {
        i if i < STRIPES => i,
        _ => assign(),
    }
}

impl Counter {
    /// A zeroed counter, usable in `static`s.
    #[must_use]
    pub const fn new() -> Self {
        Counter {
            stripes: [const { Stripe(AtomicU64::new(0)) }; STRIPES],
        }
    }

    /// Record one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Record `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum over all stripes.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zero the counter, returning the previous value.
    ///
    /// Each stripe is swapped atomically: a concurrent `inc` lands
    /// either in the returned value or in the fresh epoch, never both
    /// and never neither.
    pub fn reset(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.swap(0, Ordering::Relaxed))
            .sum()
    }
}

/// A high-water-mark gauge: tracks the maximum of a level that can
/// rise and fall (e.g. pool size, concurrent regions).
///
/// See [`Counter`] for the reset-race contract; [`registry::scoped`]
/// covers gauges too. Cache-line aligned so neighbouring gauges do
/// not false-share (`level` and `high` stay together by design — they
/// are always touched by the same `rise`). Gauges are not striped: a
/// level is one shared value, and none sits on a per-unit path.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Gauge {
    level: AtomicU64,
    high: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge, usable in `static`s.
    #[must_use]
    pub const fn new() -> Self {
        Gauge {
            level: AtomicU64::new(0),
            high: AtomicU64::new(0),
        }
    }

    /// Raise the level by one, updating the high-water mark.
    pub fn rise(&self) {
        let now = self.level.fetch_add(1, Ordering::Relaxed) + 1;
        self.high.fetch_max(now, Ordering::Relaxed);
    }

    /// Lower the level by one, saturating at zero.
    ///
    /// Saturation matters: a bare `fetch_sub` on a zero level (easy to
    /// hit when a `reset` races a worker's rise/fall pair) wraps to
    /// `u64::MAX`, and the next `rise` would then poison `high_water`
    /// forever.
    pub fn fall(&self) {
        // fetch_update retries on contention; the level only changes
        // by ±1 so the loop is short.
        let _ = self
            .level
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current level.
    #[must_use]
    pub fn level(&self) -> u64 {
        self.level.load(Ordering::Relaxed)
    }

    /// Highest level seen since the last reset.
    ///
    /// [`Gauge::rise`] bumps `level` and `high` with two separate
    /// relaxed RMWs, so a reader landing between them could observe a
    /// mark *below* the level it just read — a torn observation the
    /// model-checker work documented (DESIGN.md §10). Clamping to the
    /// level observed inside this call restores the invariant readers
    /// actually rely on: `high_water() >= level()` when the two reads
    /// happen in that order (as [`registry::snapshot`] does, reading
    /// the level first). A residual window remains only if a `fall`
    /// also lands between a `rise`'s two RMWs — then both reads can
    /// miss the peak by one; the mark is still never below the final
    /// level.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        let high = self.high.load(Ordering::Relaxed);
        high.max(self.level.load(Ordering::Relaxed))
    }

    /// Reset level and high-water mark to zero.
    pub fn reset(&self) {
        self.level.store(0, Ordering::Relaxed);
        self.high.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_resets() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.reset(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_concurrent() {
        static C: Counter = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        C.inc();
                    }
                });
            }
        });
        assert_eq!(C.get(), 40_000);
    }

    /// The exactly-once reset contract survives striping: every
    /// increment lands in exactly one of the resetter's returned values
    /// or the final read, however the swaps interleave with the
    /// writers' stripes.
    #[test]
    fn striped_counter_reset_observes_every_increment_once() {
        static C: Counter = Counter::new();
        let writers_done = AtomicUsize::new(0);
        let reset_total = std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..250_000 {
                        C.inc();
                    }
                    writers_done.fetch_add(1, Ordering::Release);
                });
            }
            let resetter = s.spawn(|| {
                let mut total = 0;
                while writers_done.load(Ordering::Acquire) < 4 {
                    total += C.reset();
                    std::thread::yield_now();
                }
                total
            });
            resetter.join().expect("resetter panicked")
        });
        assert_eq!(reset_total + C.get(), 1_000_000);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::new();
        g.rise();
        g.rise();
        g.fall();
        g.rise();
        assert_eq!(g.level(), 2);
        assert_eq!(g.high_water(), 2);
        g.rise();
        g.rise();
        assert_eq!(g.high_water(), 4);
        g.reset();
        assert_eq!(g.high_water(), 0);
    }

    /// Regression: `high_water` must never report below a level read
    /// inside the same call — `rise` updates `level` and `high` with
    /// two separate relaxed RMWs, and a reader between them used to
    /// see the stale mark. Exercised concurrently: a riser climbs
    /// while a reader checks the invariant after every observation.
    #[test]
    fn gauge_high_water_never_trails_its_own_level_read() {
        static G: Gauge = Gauge::new();
        G.reset();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..50_000 {
                    G.rise();
                }
            });
            s.spawn(|| {
                for _ in 0..50_000 {
                    // level() first: the mark reported afterwards must
                    // cover it (the snapshot read order).
                    let level = G.level();
                    let mark = G.high_water();
                    assert!(
                        mark >= level,
                        "torn gauge observation: high_water {mark} < level {level}"
                    );
                }
            });
        });
        assert_eq!(G.level(), 50_000);
        assert_eq!(G.high_water(), 50_000);
    }

    /// Regression: `fall` on an empty gauge used to wrap the level to
    /// `u64::MAX`, so the next `rise` recorded a poisoned high-water
    /// mark. It must saturate instead.
    #[test]
    fn gauge_fall_saturates_at_zero() {
        let g = Gauge::new();
        g.fall();
        assert_eq!(g.level(), 0);
        g.rise();
        assert_eq!(g.level(), 1);
        assert_eq!(g.high_water(), 1, "high_water poisoned by underflow");

        // The reset-race shape: rise, reset (level forced to 0), then
        // the worker's matching fall arrives late.
        g.reset();
        g.rise();
        g.reset();
        g.fall();
        g.rise();
        assert_eq!(g.high_water(), 1);
    }
}
