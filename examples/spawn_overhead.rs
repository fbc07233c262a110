//! Runtime CPU per ULT with nothing else to do: grain-0 depth-10
//! work-first trees (1,024 ULTs each, the repo benchmark's forkjoin
//! shape without its leaf work) on MassiveThreads, at 1 and 2 workers.
//!
//! Prints the CPU the workers spent per ULT (process CPU minus the
//! calling thread's, which only spawns the roots and joins them), so
//! the gap between the 1- and 2-worker rows is what sharing the spawn
//! path between two cores costs.
//!
//! Run with `cargo run --release --example spawn_overhead [seconds]`.

use std::time::{Duration, Instant};

use lwt::{BackendKind, Glt};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two i64s on
    // x86_64 Linux), and both clock ids are valid for this process.
    assert_eq!(unsafe { clock_gettime(clock, &mut ts) }, 0);
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn tree(glt: &Glt, depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let g = glt.clone();
    let left = glt.ult_create(move || tree(&g, depth - 1));
    let right = tree(glt, depth - 1);
    left.join() + right
}

fn main() {
    let secs: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3.0);
    println!("workers,ults,worker_cpu_ns_per_ult,wall_ns_per_ult");
    for workers in [1, 2] {
        let glt = Glt::builder(BackendKind::MassiveThreads)
            .workers(workers)
            .build();
        let (proc0, own0, t0) = (
            cpu(CLOCK_PROCESS_CPUTIME_ID),
            cpu(CLOCK_THREAD_CPUTIME_ID),
            Instant::now(),
        );
        let mut ults = 0;
        while t0.elapsed().as_secs_f64() < secs {
            let g = glt.clone();
            ults += glt.ult_create(move || tree(&g, 10)).join();
        }
        let wall = t0.elapsed();
        let own = cpu(CLOCK_THREAD_CPUTIME_ID) - own0;
        let workers_cpu = cpu(CLOCK_PROCESS_CPUTIME_ID) - proc0 - own;
        println!(
            "{workers},{ults},{:.0},{:.0}",
            workers_cpu.as_nanos() as f64 / ults as f64,
            wall.as_nanos() as f64 / ults as f64
        );
        glt.finalize().expect("clean drain");
    }
}
