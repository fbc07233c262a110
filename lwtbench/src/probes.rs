//! Isolated layer probes for the traced run: each one drives a single
//! layer's public functions in a tight loop, with no runtime around
//! it, and reports the median over several batches.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lwt_core::{BackendKind, Glt};
use lwt_fiber::{Fiber, StackSize};
use lwt_metrics::registry::COUNTERS;
use lwt_metrics::Counter;
use lwt_net::http::{parse_request, Limits, Parse};
use lwt_sched::{ParkGroup, ReadyQueue, TimerWheel};

use crate::stats::median_f64;

/// Batches per probe; the probe reports their median.
const BATCHES: usize = 5;

/// One probe's result: median per-op cost and the ops it timed.
pub struct Probe {
    /// Median of the batch means, in the probe's unit.
    pub value: f64,
    /// Operations timed over all batches.
    pub samples: usize,
}

/// Run `batch` BATCHES times; each call returns (elapsed, ops), and the
/// probe value is the median of elapsed/ops scaled by `per`.
fn batched(per: f64, mut batch: impl FnMut() -> (Duration, usize)) -> Probe {
    let mut means = Vec::with_capacity(BATCHES);
    let mut samples = 0;
    for _ in 0..BATCHES {
        let (elapsed, ops) = batch();
        means.push(elapsed.as_secs_f64() * per / ops as f64);
        samples += ops;
    }
    Probe {
        value: median_f64(&means),
        samples,
    }
}

const NS: f64 = 1e9;
const US: f64 = 1e6;

/// `fiber.switch_ns`: one `Fiber::resume` + `yield_now` round trip.
#[must_use]
pub fn fiber_switch(n: usize) -> Probe {
    let mut fiber = Fiber::new(StackSize::DEFAULT, || loop {
        lwt_fiber::yield_now();
    });
    batched(NS, || {
        let t = Instant::now();
        for _ in 0..n {
            fiber.resume();
        }
        (t.elapsed(), n)
    })
}

/// `fiber.create_ns`: `Fiber::new` with the default stack, then drop
/// (never resumed), so memory stays flat whatever `n` is.
#[must_use]
pub fn fiber_create(n: usize) -> Probe {
    batched(NS, || {
        let t = Instant::now();
        for i in 0..n {
            drop(black_box(Fiber::new(StackSize::DEFAULT, move || {
                black_box(i);
            })));
        }
        (t.elapsed(), n)
    })
}

/// `sched.push_pop_ns`: owner push then pop on a bound `ReadyQueue`.
#[must_use]
pub fn push_pop(n: usize) -> Probe {
    let q: ReadyQueue<u64> = ReadyQueue::new();
    q.bind();
    batched(NS, || {
        let t = Instant::now();
        for i in 0..n as u64 {
            q.push(i);
        }
        for _ in 0..n {
            black_box(q.pop());
        }
        (t.elapsed(), n)
    })
}

/// `sched.steal_ns`: a thief draining an owner's `ReadyQueue`.
#[must_use]
pub fn steal(n: usize) -> Probe {
    let q: ReadyQueue<u64> = ReadyQueue::new();
    q.bind();
    batched(NS, || {
        for i in 0..n as u64 {
            q.push(i);
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let t = Instant::now();
                let mut got = 0;
                while q.steal().is_some() {
                    got += 1;
                }
                (t.elapsed(), got.max(1))
            })
            .join()
            .expect("steal probe thread panicked")
        })
    })
}

/// `sched.park_wake_us`: a `ParkGroup` worker asleep in `park`, then
/// notified; from the notify call until `park` returned.
#[must_use]
pub fn park_wake(rounds: usize) -> Probe {
    let group = ParkGroup::new(1);
    let work = AtomicBool::new(false);
    batched(US, || {
        let mut total = Duration::ZERO;
        for _ in 0..rounds {
            work.store(false, Ordering::SeqCst);
            let base = COUNTERS.parks.get();
            let woke_at = std::thread::scope(|s| {
                let sleeper = s.spawn(|| {
                    // Loop on spurious returns until the work is seen.
                    while !work.load(Ordering::SeqCst) {
                        group.park(0, None, || usize::from(work.load(Ordering::SeqCst)));
                    }
                    Instant::now()
                });
                // Wait until the sleeper committed to sleeping.
                while COUNTERS.parks.get() == base {
                    std::hint::spin_loop();
                }
                std::thread::sleep(Duration::from_micros(50));
                let t = Instant::now();
                work.store(true, Ordering::SeqCst);
                group.notify();
                let woke = sleeper.join().expect("park probe thread panicked");
                woke.saturating_duration_since(t)
            });
            total += woke_at;
        }
        (total, rounds)
    })
}

/// `sched.timer_arm_cancel_ns`: arm a deadline and cancel it.
#[must_use]
pub fn timer_arm_cancel(n: usize) -> Probe {
    let wheel = TimerWheel::new();
    batched(NS, || {
        let t = Instant::now();
        for i in 0..n as u64 {
            let entry = wheel.arm(wheel.now() + 1 + i % 1000);
            black_box(entry.cancel());
        }
        (t.elapsed(), n)
    })
}

/// `http.parse_ns`: `http::parse_request` on a small GET.
#[must_use]
pub fn http_parse(n: usize) -> Probe {
    let req = b"GET /r3 HTTP/1.1\r\nHost: bench\r\nAccept: */*\r\n\r\n";
    let limits = Limits::default();
    batched(NS, || {
        let t = Instant::now();
        for _ in 0..n {
            let parsed = parse_request(black_box(req), &limits);
            assert!(
                matches!(parsed, Parse::Complete(..)),
                "parse probe request rejected"
            );
            black_box(parsed);
        }
        (t.elapsed(), n)
    })
}

/// `metrics.counter_inc_ns` (`threads` = 1) and
/// `metrics.counter_inc_contended_ns`: ns per `Counter::inc` with
/// `threads` threads hammering one counter.
#[must_use]
pub fn counter_inc(n: usize, threads: usize) -> Probe {
    let counter = Counter::new();
    batched(NS, || {
        let start = Barrier::new(threads);
        let elapsed = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let t = Instant::now();
                        for _ in 0..n {
                            black_box(&counter).inc();
                        }
                        t.elapsed()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("counter probe thread panicked"))
                .max()
                .unwrap_or_default()
        });
        (elapsed, n)
    })
}

/// `net.epoll_rtt_us`: one-byte ping-pong between two `lwt_net`
/// streams, both ends async tasks on a `kind` runtime, so every
/// round trip is two reactor wake → task poll cycles.
///
/// # Errors
///
/// Socket setup or I/O failure, or a wrong echo byte.
pub fn epoll_rtt(kind: BackendKind, workers: usize, rounds: usize) -> Result<Probe, String> {
    let glt = Glt::builder(kind).workers(workers).build();
    let listener = lwt_net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let total = rounds * BATCHES;
    let server = glt.spawn_async(async move {
        let (stream, _) = listener.accept_async().await?;
        stream.set_nodelay(true)?;
        let mut b = [0u8; 1];
        for _ in 0..total {
            stream.read_exact_async(&mut b).await?;
            stream.write_all_async(&b).await?;
        }
        Ok::<(), std::io::Error>(())
    });
    let client = glt.spawn_async(async move {
        let stream = lwt_net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut per_batch = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t = Instant::now();
            for i in 0..rounds {
                let ping = [i as u8];
                let mut pong = [0u8; 1];
                stream.write_all_async(&ping).await?;
                stream.read_exact_async(&mut pong).await?;
                if pong != ping {
                    return Err(std::io::Error::other("echo byte differs"));
                }
            }
            per_batch.push(t.elapsed());
        }
        Ok::<Vec<Duration>, std::io::Error>(per_batch)
    });
    let per_batch = client
        .join()
        .map_err(|e| format!("epoll probe client: {e}"))?;
    server
        .join()
        .map_err(|e| format!("epoll probe server: {e}"))?;
    glt.finalize()
        .map_err(|e| format!("epoll probe finalize: {e}"))?;
    let means: Vec<f64> = per_batch
        .iter()
        .map(|d| d.as_secs_f64() * US / rounds as f64)
        .collect();
    Ok(Probe {
        value: median_f64(&means),
        samples: total,
    })
}
