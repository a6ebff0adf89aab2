//! Cooperative deadlines: a cancellation token the analysis checks at its
//! existing budget checkpoints.
//!
//! Budgets ([`crate::budget`]) bound *work*; deadlines bound *wall time*.
//! The two compose: the token is part of the [`crate::governor`] context,
//! and [`crate::budget::charge_steps`] and friends consult it before
//! charging, so the moment a deadline passes every budgeted phase behaves
//! exactly as if its budget ran dry — Fourier–Motzkin drops constraints,
//! propagation widens to `MESSY`, parsers stop recursing — and the analysis
//! completes *degraded within the deadline* instead of hanging. Nothing is
//! torn down mid-state; cancellation is purely cooperative and every
//! intermediate result stays sound (regions only grow).
//!
//! ```
//! use support::deadline::{self, DeadlineToken};
//! use std::time::Duration;
//!
//! let token = DeadlineToken::after(Duration::from_secs(0));
//! let _scope = deadline::enter(token.clone());
//! assert!(token.expired_now());
//! assert!(!support::budget::charge_steps(1), "budget checkpoints observe it");
//! ```
//!
//! Tokens are `Arc`-shared and cheap to clone; a server hands the same
//! token to every worker thread of one request (through
//! [`crate::governor::Governor::attach`]) so a fan-out analysis observes
//! one shared clock. Checking is cheap: the fast path is one relaxed atomic
//! load, and the actual `Instant::now()` comparison runs only once per
//! [`CHECK_INTERVAL`] checks per thread (an expired check latches the
//! atomic, so every later check takes the fast path).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many fast-path checks elapse between real clock reads, per thread.
/// At the budget checkpoints' call granularity this bounds deadline
/// overshoot to well under a millisecond of extra work.
pub const CHECK_INTERVAL: u32 = 64;

/// A shareable deadline. Created once per request (or per CLI invocation
/// under `--timeout`) and installed on every thread doing that request's
/// work via [`enter`] or a [`crate::governor::Governor`].
#[derive(Debug)]
pub struct DeadlineToken {
    deadline: Instant,
    /// Latched once the deadline is observed expired. Checking this is the
    /// fast path shared by every thread.
    expired: AtomicBool,
}

impl DeadlineToken {
    /// A token expiring `after` from now.
    pub fn after(after: Duration) -> Arc<DeadlineToken> {
        Arc::new(DeadlineToken {
            deadline: Instant::now() + after,
            expired: AtomicBool::new(false),
        })
    }

    /// Whether the token is expired, reading the real clock. Latches: once
    /// expired, always expired.
    pub fn expired_now(&self) -> bool {
        if self.latched() {
            return true;
        }
        let expired = Instant::now() >= self.deadline;
        if expired {
            self.expired.store(true, Ordering::Relaxed);
        }
        expired
    }

    /// Whether an earlier check already saw the token expired (no clock
    /// read).
    pub(crate) fn latched(&self) -> bool {
        self.expired.load(Ordering::Relaxed)
    }
}

/// An installed deadline scope; see [`enter`].
pub type DeadlineScope = crate::governor::Attached;

/// Installs `token` as this thread's active deadline until the scope drops
/// (scopes nest, innermost wins — matching [`crate::budget`] scopes).
pub fn enter(token: Arc<DeadlineToken>) -> DeadlineScope {
    crate::governor::Governor::new().with_deadline(token).attach()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{checkpoint, current, Stop};

    #[test]
    fn no_scope_never_expires() {
        assert!(current().deadline().is_none());
        assert_eq!(checkpoint(), Ok(()));
    }

    #[test]
    fn zero_deadline_expires_immediately_and_latches() {
        let t = DeadlineToken::after(Duration::ZERO);
        let _s = enter(t.clone());
        assert_eq!(checkpoint(), Err(Stop::Deadline));
        assert!(t.latched(), "the first real clock read latches");
        assert_eq!(checkpoint(), Err(Stop::Deadline), "latched expiry takes the fast path");
        assert!(t.expired_now());
    }

    #[test]
    fn generous_deadline_does_not_expire() {
        let t = DeadlineToken::after(Duration::from_secs(3600));
        let _s = enter(t.clone());
        for _ in 0..(CHECK_INTERVAL * 3) {
            assert_eq!(checkpoint(), Ok(()));
        }
        assert!(!t.expired_now());
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = DeadlineToken::after(Duration::from_secs(3600));
        let s1 = enter(outer);
        {
            let _s2 = enter(DeadlineToken::after(Duration::ZERO));
            assert_eq!(checkpoint(), Err(Stop::Deadline));
        }
        assert_eq!(checkpoint(), Ok(()), "outer token restored");
        drop(s1);
        assert!(current().deadline().is_none());
    }

    #[test]
    fn budget_checkpoints_observe_deadline() {
        let _s = enter(DeadlineToken::after(Duration::ZERO));
        let _b = crate::budget::enter(crate::budget::BudgetConfig::default());
        assert!(!crate::budget::charge_steps(1));
        assert!(!crate::budget::charge_translation());
        assert_eq!(crate::budget::exhaustion(), Some("deadline"));
        assert!(crate::budget::recursion_guard().is_none());
    }

    #[test]
    fn without_budget_scope_deadline_still_denies_charges() {
        let _s = enter(DeadlineToken::after(Duration::ZERO));
        assert!(!crate::budget::charge_steps(1), "deadline wins even unbudgeted");
    }
}
