//! The traced run's span recorder. Spans are recorded only from the
//! benchmark's own files, around its calls into each layer; they are
//! kept in memory and written out when the run ends.
//!
//! Each thread appends to its own buffer (registered once in a global
//! list, so buffers of runtime workers outlive their threads); the
//! recording path is one relaxed load when tracing is off.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Upper bound on spans held in memory; later spans are dropped and
/// counted, so a long traced run cannot exhaust memory.
const MAX_SPANS: usize = 1 << 20;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary name, e.g. `glt.ult_create`.
    pub name: &'static str,
    /// This span's id (unique in the process, never 0).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The tree or request the span belongs to.
    pub unit: u64,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static HELD: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicUsize = AtomicUsize::new(0);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: OnceCell<Buffer> = const { OnceCell::new() };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh span id (0 when tracing is off).
#[must_use]
pub fn new_id() -> u64 {
    if enabled() {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// Record a span with a fresh id that ran from `start` until now.
#[inline]
pub fn end(name: &'static str, start: Option<Instant>, parent: u64, unit: u64) {
    if let Some(s) = start {
        record(name, new_id(), parent, unit, s, Instant::now());
    }
}

/// Record a span with explicit bounds and id.
pub fn record(name: &'static str, id: u64, parent: u64, unit: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    if HELD.fetch_add(1, Ordering::Relaxed) >= MAX_SPANS {
        HELD.fetch_sub(1, Ordering::Relaxed);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let ns = |t: Instant| {
        u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
    };
    let span = Span {
        name,
        id,
        parent,
        unit,
        start: ns(start),
        end: ns(end),
    };
    LOCAL.with(|cell| {
        let buf = cell.get_or_init(|| {
            let buf: Buffer = Arc::default();
            BUFFERS
                .lock()
                .expect("span registry poisoned")
                .push(Arc::clone(&buf));
            buf
        });
        buf.lock().expect("span buffer poisoned").push(span);
    });
}

/// Take every span recorded so far (all threads), oldest first.
#[must_use]
pub fn take() -> Vec<Span> {
    let mut all = Vec::new();
    for buf in BUFFERS.lock().expect("span registry poisoned").iter() {
        all.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    HELD.store(0, Ordering::Relaxed);
    all.sort_by_key(|s| s.start);
    all
}

/// Spans dropped at the in-memory cap so far.
#[must_use]
pub fn dropped() -> usize {
    DROPPED.load(Ordering::Relaxed)
}

/// Durations (ns) of every span named `name`, ascending.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end.saturating_sub(s.start))
        .collect();
    d.sort_unstable();
    d
}

/// Per span name: (count, total ns, self ns). A span's self time is
/// its duration minus the part of its interval covered by the union
/// of its children's intervals.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start, s.end));
        let row = out.entry(s.name).or_default();
        row.0 += 1;
        row.1 += dur;
        row.2 += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Write `spans` as tab-separated rows to `path`.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tparent\tunit\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.unit, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start, end| Span {
            name: if parent == 0 { "root" } else { "child" },
            id,
            parent,
            unit: 0,
            start,
            end,
        };
        // Root 0..100; children 10..40 and 30..50 overlap (union 40)
        // and 90..120 is clipped to 90..100.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 100, 50));
        assert_eq!(t["child"], (3, 80, 80));
    }
}
