//! `forkjoin`: repeated recursive binary trees of ULTs (the paper's
//! work-first recursive pattern, §III-C). Each inner node
//! `ult_create`s its left child, recurses into the right one and
//! joins; each leaf burns a seeded grain. The checksum of every tree
//! must equal a sequential fold of the same inputs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lwt_core::{BackendKind, Glt};

use crate::{rng, sys, trace, Sample, Segment, Setup};

/// Tree depth: 2^DEPTH leaves, 2^DEPTH − 1 inner spawns plus the root.
pub const DEPTH: u32 = 10;
/// ULTs completed per tree (the inner spawns plus the root).
pub const UNITS_PER_TREE: u64 = 1 << DEPTH;
/// Distinct seeded trees; tree `i` of a run uses input `i % POOL`.
const POOL: usize = 128;
/// Leaf grain is `scale × U(0, BASE_GRAIN)` xorshift steps. The eight
/// depth-3 subtrees get the scales 1–8 in a seeded order, so subtrees
/// are unbalanced (idle workers must steal) while every tree holds
/// about the same total work.
const BASE_GRAIN: u64 = 512;
/// Trees run (and verified) during set-up, before the first measured op.
const WARM_TREES: usize = 4;
/// In a traced run, every TRACE_EVERY-th tree records its spans.
const TRACE_EVERY: u64 = 8;

#[derive(Clone, Copy)]
struct Tree {
    seed: u64,
    /// Grain scale of each depth-3 subtree: a permutation of 1..=8.
    scales: [u8; 8],
    traced: bool,
    span: u64,
    unit: u64,
    fault: bool,
}

/// The seeded permutation of subtree scales for tree input `seed`.
fn scales(seed: u64) -> [u8; 8] {
    let mut s = [1, 2, 3, 4, 5, 6, 7, 8];
    let mut r = rng::Rng::new(seed, 0x5CA1E);
    for i in (1..s.len()).rev() {
        s.swap(i, r.below(i as u64 + 1) as usize);
    }
    s
}

fn grain(seed: u64, scales: &[u8; 8], leaf: u64) -> u64 {
    let subtree = (leaf >> (DEPTH - 3)) as usize;
    u64::from(scales[subtree]) * (rng::mix(seed.wrapping_add(leaf)) % BASE_GRAIN)
}

fn leaf(seed: u64, scales: &[u8; 8], leaf: u64) -> u64 {
    let mut x = (seed ^ leaf.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    for _ in 0..grain(seed, scales, leaf) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

fn combine(left: u64, right: u64) -> u64 {
    left.rotate_left(17) ^ right.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
}

/// The reference: the same fold without any runtime.
fn sequential(seed: u64, scales: &[u8; 8], depth: u32, base: u64) -> u64 {
    if depth == 0 {
        return leaf(seed, scales, base);
    }
    let half = 1 << (depth - 1);
    combine(
        sequential(seed, scales, depth - 1, base),
        sequential(seed, scales, depth - 1, base + half),
    )
}

fn parallel(glt: &Glt, tree: Tree, depth: u32, base: u64) -> u64 {
    if depth == 0 {
        let v = leaf(tree.seed, &tree.scales, base);
        // Self-test hook: a wrong leaf must make the run fail.
        return if tree.fault && base == 0 { v ^ 1 } else { v };
    }
    let half = 1 << (depth - 1);
    let g = glt.clone();
    // The child's spans name this node's create span as their cause.
    let create = Tree {
        span: if tree.traced { trace::new_id() } else { 0 },
        ..tree
    };
    let t = tree.traced.then(Instant::now);
    let left = glt.ult_create(move || parallel(&g, create, depth - 1, base));
    if let Some(t) = t {
        // Work-first runtimes run the child before `ult_create`
        // returns, so only a leaf child's span is a per-spawn cost.
        let name = if depth == 1 {
            "glt.ult_create"
        } else {
            "glt.ult_create_subtree"
        };
        trace::record(name, create.span, tree.span, tree.unit, t, Instant::now());
    }
    let right = parallel(glt, tree, depth - 1, base + half);
    let t = tree.traced.then(Instant::now);
    let left = left.join();
    trace::end("glt.join_wait", t, tree.span, tree.unit);
    combine(left, right)
}

/// One runtime instance running trees.
pub struct Instance {
    glt: Glt,
    pool: Vec<u64>,
    /// (pool index, checksum) of every tree run so far.
    results: Vec<(usize, u64)>,
    /// How many of `results` [`Instance::verify`] has checked.
    checked: usize,
    /// Sequential fold of each pool input, computed on first use.
    expected: BTreeMap<usize, u64>,
    trees: u64,
    fault: bool,
}

/// Build the runtime and run the warm-up trees.
#[must_use]
pub fn start(kind: BackendKind, workers: usize, seed: u64, fault: bool) -> (Instance, Setup) {
    let t0 = Instant::now();
    let glt = Glt::builder(kind).workers(workers).build();
    let build = t0.elapsed();
    let pool = (0..POOL as u64)
        .map(|i| rng::Rng::new(seed, 0xF0_0000 + i).next_u64())
        .collect();
    let mut inst = Instance {
        glt,
        pool,
        results: Vec::new(),
        checked: 0,
        expected: BTreeMap::new(),
        trees: 0,
        fault,
    };
    // Set-up ends with the first ULT completed (the unit `ops_per_s`
    // counts); the warm-up trees run untimed before the first measured
    // one.
    inst.glt.ult_create(|| ()).join();
    let total = t0.elapsed();
    for _ in 0..WARM_TREES {
        inst.tree();
    }
    (inst, Setup { build, total })
}

impl Instance {
    /// Run one tree from the calling (external) thread; its latency.
    fn tree(&mut self) -> Duration {
        let idx = (self.trees % POOL as u64) as usize;
        let traced = trace::enabled() && self.trees.is_multiple_of(TRACE_EVERY);
        let seed = self.pool[idx];
        let tree = Tree {
            seed,
            scales: scales(seed),
            traced,
            span: if traced { trace::new_id() } else { 0 },
            unit: self.trees,
            fault: self.fault,
        };
        let g = self.glt.clone();
        let t0 = Instant::now();
        let sum = self
            .glt
            .ult_create(move || parallel(&g, tree, DEPTH, 0))
            .join();
        let t1 = Instant::now();
        if traced {
            trace::record("forkjoin.tree", tree.span, 0, tree.unit, t0, t1);
        }
        self.results.push((idx, sum));
        self.trees += 1;
        t1 - t0
    }

    /// Run trees back to back until `window` has elapsed (at least
    /// one tree).
    pub fn run(&mut self, window: Duration) -> Segment {
        let (gen0, proc0) = (sys::thread_cpu(), sys::process_cpu());
        let t0 = Instant::now();
        let mut samples = Vec::new();
        while samples.is_empty() || t0.elapsed() < window {
            let lat = self.tree();
            samples.push(Sample {
                at_ns: crate::ns(t0.elapsed()),
                lat_ns: crate::ns(lat),
                ops: UNITS_PER_TREE,
            });
        }
        let elapsed = t0.elapsed();
        let trees = samples.len() as u64;
        Segment {
            ops: trees * UNITS_PER_TREE,
            attempted: trees,
            failed: 0,
            elapsed,
            samples,
            late_ns: Vec::new(),
            gen_cpu: sys::thread_cpu() - gen0,
            proc_cpu: sys::process_cpu() - proc0,
        }
    }

    /// Check every tree run since the last call against the
    /// sequential fold of its input.
    ///
    /// # Errors
    ///
    /// The first tree whose checksum differs.
    pub fn verify(&mut self) -> Result<(), String> {
        for (n, &(idx, got)) in self.results.iter().enumerate().skip(self.checked) {
            let seed = self.pool[idx];
            let want = *self
                .expected
                .entry(idx)
                .or_insert_with(|| sequential(seed, &scales(seed), DEPTH, 0));
            if got != want {
                return Err(format!(
                    "forkjoin tree {n} (input {idx}): checksum {got:#018x}, sequential fold {want:#018x}"
                ));
            }
        }
        self.checked = self.results.len();
        Ok(())
    }

    /// Finalize the runtime; how long the drain took.
    ///
    /// # Errors
    ///
    /// The runtime reported stragglers.
    pub fn finish(self) -> Result<Duration, String> {
        let t0 = Instant::now();
        self.glt
            .finalize()
            .map_err(|e| format!("forkjoin finalize: {e}"))?;
        Ok(t0.elapsed())
    }
}
