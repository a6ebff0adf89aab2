//! Per-scope memory budgets layered on the counting global allocator.
//!
//! Step budgets ([`crate::budget`]) and deadlines ([`crate::deadline`])
//! bound *time*; this module bounds the last uncontrolled axis, *bytes*. A
//! [`MemoryBudget`] is an allocation ceiling shared by every thread working
//! on one logical task (one CLI invocation, one serve request); it is part
//! of the [`crate::governor`] context. Threads enter the budget with
//! [`enter`] (or a governor carrying it); afterwards every call to
//! [`checkpoint`] — which [`crate::budget::charge_steps`] and friends make
//! on the caller's behalf — charges the bytes allocated on this thread
//! since the previous checkpoint against the shared ceiling. Once the
//! ceiling is crossed the budget latches exhausted and every further charge
//! is denied, so the expensive phases *widen* exactly as if a step budget
//! ran dry: conservative over-approximation plus a structured
//! `Degradation`, never an OOM kill.
//!
//! Accounting is built on [`crate::obs::alloc::allocated_bytes`], which
//! counts bytes *requested* process-wide (churn, not residency; frees are
//! never subtracted). Two consequences, both conservative:
//!
//! - a budget bounds cumulative allocation, which is always ≥ peak
//!   residency, so a bounded charge implies bounded RSS growth;
//! - deltas observed between two checkpoints on one thread include bytes
//!   allocated by *other* threads in that window, so concurrent tasks
//!   over-charge each other. Budgets are attribution heuristics with a
//!   sound failure direction: they only ever trip early, never late.
//!
//! With no scope active every checkpoint succeeds, so library code never
//! needs to know whether a budget is installed.
//!
//! Usage (accounting only moves when a [`CountingAllocator`] is installed
//! as the global allocator, as the `dragon` binary does; `force_exhaust`
//! stands in for a real overrun here):
//!
//! ```
//! use support::memory::{self, MemoryBudget};
//!
//! let budget = MemoryBudget::mb(64);
//! let scope = memory::enter(budget.clone());
//! assert!(memory::checkpoint(), "headroom to spare");
//! budget.force_exhaust();
//! assert!(!memory::checkpoint(), "ceiling crossed: widen, don't allocate");
//! drop(scope);
//! assert!(memory::checkpoint(), "no scope → unlimited");
//! ```
//!
//! [`CountingAllocator`]: crate::obs::alloc::CountingAllocator
//!
//! Under the `fault-injection` feature the faultpoint `memory::charge` can
//! be armed to deny the Nth checkpoint, forcing exhaustion without having
//! to actually allocate the budget away.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A shared allocation ceiling, in bytes. Cheap to clone (`Arc`); hand
/// clones to worker threads so their allocations charge the same pool.
#[derive(Debug)]
pub struct MemoryBudget {
    limit_bytes: u64,
    charged: AtomicU64,
    exhausted: AtomicBool,
}

impl MemoryBudget {
    /// A budget of `limit` bytes.
    pub fn bytes(limit: u64) -> Arc<Self> {
        Arc::new(MemoryBudget {
            limit_bytes: limit,
            charged: AtomicU64::new(0),
            exhausted: AtomicBool::new(false),
        })
    }

    /// A budget of `limit_mb` mebibytes.
    pub fn mb(limit_mb: u64) -> Arc<Self> {
        Self::bytes(limit_mb.saturating_mul(1 << 20))
    }

    /// The configured ceiling, in bytes.
    pub fn limit_bytes(&self) -> u64 {
        self.limit_bytes
    }

    /// Total bytes charged so far. Charges are monotone (nothing is ever
    /// refunded), so this is also the budget's high-water mark.
    pub fn charged_bytes(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }

    /// True once the ceiling has been crossed (sticky).
    pub fn exhausted(&self) -> bool {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Latches the budget exhausted without charging (used by fault
    /// injection and by supervisors that detect overruns externally).
    pub fn force_exhaust(&self) {
        self.exhausted.store(true, Ordering::Relaxed);
    }

    /// Charges `n` bytes; `false` once the ceiling is crossed. The charge
    /// that crosses the ceiling is still recorded (the high-water mark may
    /// overshoot the limit by up to one inter-checkpoint delta).
    pub(crate) fn charge(&self, n: u64) -> bool {
        if self.exhausted.load(Ordering::Relaxed) {
            return false;
        }
        let total = self.charged.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if total > self.limit_bytes {
            self.exhausted.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }
}

/// An active memory scope; see [`enter`].
pub type MemoryScope = crate::governor::Attached;

/// Enters `budget` on this thread until the scope drops (scopes nest,
/// innermost wins). Any bytes already allocated but not yet checkpointed
/// are flushed to the enclosing scope first, so nested budgets only pay
/// for their own window; dropping the scope flushes the final delta.
pub fn enter(budget: Arc<MemoryBudget>) -> MemoryScope {
    crate::governor::Governor::new().with_memory(budget).attach()
}

/// Memory checkpoint: charges this thread's allocation delta against the
/// innermost budget. `true` with headroom to spare (or with no scope
/// active); `false` once the budget is exhausted — callers must widen, not
/// allocate further. Invoked automatically from the step-budget
/// checkpoints ([`crate::governor::checkpoint`]), so phases that already
/// call `budget::charge_steps` (or `recursion_guard`) get memory
/// enforcement for free.
pub fn checkpoint() -> bool {
    crate::governor::context(crate::governor::Context::memory_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the counting allocator, so
    // `allocated_bytes()` never moves; tests drive budgets directly or via
    // `force_exhaust`. End-to-end accounting is exercised by the `dragon`
    // binary tests, where the allocator is installed.

    fn current() -> Option<Arc<MemoryBudget>> {
        crate::governor::current().memory().cloned()
    }

    #[test]
    fn checkpoint_unlimited_without_scope() {
        assert!(checkpoint());
        assert!(current().is_none());
    }

    #[test]
    fn charge_crossing_limit_latches() {
        let b = MemoryBudget::bytes(100);
        assert!(b.charge(60));
        assert!(!b.charge(60), "101 > 100");
        assert!(b.exhausted());
        assert!(!b.charge(1), "sticky");
        assert_eq!(
            b.charged_bytes(),
            120,
            "overshooting charge recorded; post-exhaustion charges are not"
        );
    }

    #[test]
    fn mb_constructor_scales() {
        assert_eq!(MemoryBudget::mb(2).limit_bytes(), 2 << 20);
        assert_eq!(MemoryBudget::mb(u64::MAX).limit_bytes(), u64::MAX, "saturates");
    }

    #[test]
    fn scope_exposes_current_and_nests() {
        let outer = MemoryBudget::bytes(1000);
        let inner = MemoryBudget::bytes(10);
        let so = enter(outer.clone());
        assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        {
            let _si = enter(inner.clone());
            assert!(Arc::ptr_eq(&current().unwrap(), &inner));
            inner.force_exhaust();
            assert!(!checkpoint(), "innermost exhausted");
        }
        assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        assert!(checkpoint(), "outer unaffected by inner exhaustion");
        drop(so);
        assert!(current().is_none());
    }

    #[test]
    fn force_exhaust_denies_checkpoints() {
        let b = MemoryBudget::bytes(u64::MAX);
        let _s = enter(b.clone());
        assert!(checkpoint());
        b.force_exhaust();
        assert!(!checkpoint());
    }

    #[test]
    fn shared_budget_charges_one_pool() {
        let b = MemoryBudget::bytes(100);
        assert!(b.charge(80));
        // A second "thread" holding a clone charges the same pool.
        let b2 = b.clone();
        assert!(!b2.charge(50));
        assert!(b.exhausted() && b2.exhausted());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn faultpoint_denies_nth_checkpoint() {
        let b = MemoryBudget::bytes(u64::MAX);
        let _s = enter(b.clone());
        crate::faultpoint::arm("memory::charge", 2);
        assert!(checkpoint(), "first charge unaffected");
        assert!(!checkpoint(), "second charge denied by faultpoint");
        assert!(b.exhausted());
        crate::faultpoint::disarm_all();
    }
}
