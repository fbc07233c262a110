//! Work-unit pools and pool topology policies.

use std::sync::{Arc, OnceLock};

use lwt_sched::{Injector, SharedQueue};
use lwt_ultcore::kernel::Crew;

use crate::unit::Unit;

/// How pools map onto execution streams.
///
/// The paper evaluates both layouts and always selects the private one
/// for Argobots ("Argobots with one private queue for each Execution
/// Stream … were always chosen", §IX-E); the shared layout exists for
/// the `ablation_pools` bench that quantifies why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolPolicy {
    /// One pool per stream; creators dispatch round-robin into the
    /// target stream's pool. Pops never contend across streams.
    #[default]
    PrivatePerStream,
    /// One pool shared by every stream; all pops contend on its lock.
    SharedSingle,
}

/// The queue behind a pool.
///
/// A *private* pool is a lock-free MPSC [`Injector`]: any creator (the
/// main thread, or any ULT on another stream) may push, but only the
/// owning stream consumes — exactly `ABT_POOL_ACCESS_MPSC`, with no
/// lock on either path. The *shared* pool keeps the mutex-protected
/// FIFO: every stream pops from it, and the lock they contend on is
/// precisely what the `ablation_pools` bench quantifies.
enum PoolQueue {
    /// Lock-free MPSC pool for the private-per-stream layout.
    Mpsc(Injector<Unit>),
    /// Mutex-protected MPMC pool for the shared-single layout.
    Shared(SharedQueue<Unit>),
}

/// Internal pool representation: the queue plus the wake hook every
/// push fires. Routing the notify through the pool covers *all* push
/// sites at once — creation dispatch, yield requeues, and the
/// post-switch protocol — so no producer can forget to wake a parked
/// consumer.
pub(crate) struct PoolShared {
    queue: PoolQueue,
    /// Installed once at registration: the runtime's worker crew (for
    /// its park group) plus the owning stream (`None` for the shared
    /// pool, where any stream may consume and the scanning wake-one
    /// applies). Pushes before installation skip the wake — at that
    /// point no stream has had a chance to park.
    waker: OnceLock<(Arc<Crew>, Option<usize>)>,
}

impl PoolShared {
    /// Lock-free MPSC pool (private-per-stream layout).
    pub(crate) fn new() -> Self {
        PoolShared {
            queue: PoolQueue::Mpsc(Injector::new()),
            waker: OnceLock::new(),
        }
    }

    /// Lock-based MPMC pool (shared-single layout).
    pub(crate) fn new_shared() -> Self {
        PoolShared {
            queue: PoolQueue::Shared(SharedQueue::new()),
            waker: OnceLock::new(),
        }
    }

    /// Install the wake hook (idempotent; first install wins).
    /// `owner` is the consuming stream for MPSC pools — only its
    /// parker is worth waking, exactly like a Converse processor
    /// queue — and `None` for the shared pool.
    pub(crate) fn set_waker(&self, crew: Arc<Crew>, owner: Option<usize>) {
        let _ = self.waker.set((crew, owner));
    }

    pub(crate) fn push(&self, unit: Unit) {
        match &self.queue {
            PoolQueue::Mpsc(q) => q.push(unit),
            PoolQueue::Shared(q) => q.push(unit),
        }
        // Push first, then wake (see ParkGroup docs for why this order
        // prevents lost wakes).
        if let Some((crew, owner)) = self.waker.get() {
            match owner {
                Some(stream) => crew.park.notify_worker(*stream),
                None => crew.park.notify(),
            }
        }
    }

    pub(crate) fn pop(&self) -> Option<Unit> {
        match &self.queue {
            PoolQueue::Mpsc(q) => q.pop(),
            PoolQueue::Shared(q) => q.pop(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match &self.queue {
            PoolQueue::Mpsc(q) => q.len(),
            PoolQueue::Shared(q) => q.len(),
        }
    }
}

/// Public, read-only view of a pool (diagnostics and custom
/// schedulers).
pub struct Pool {
    pub(crate) shared: std::sync::Arc<PoolShared>,
}

impl Pool {
    /// Number of queued unit hints (racy; stale entries included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Whether the pool currently appears empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("len", &self.len()).finish()
    }
}
