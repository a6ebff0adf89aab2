//! The governor: one thread-local context that bounds and observes a unit
//! of work (one CLI invocation, one serve request) on every thread doing it.
//!
//! A governor has two parts:
//!
//! - the **shared** part, a [`Governor`] value: the request's
//!   [`DeadlineToken`], its [`MemoryBudget`] and its obs [`Collector`].
//!   All three are `Arc`s, so every thread of a fan-out observes one clock,
//!   charges one allocation pool and records into one collector;
//! - the **per-thread** part: the step-budget scope opened by
//!   [`crate::budget::enter`], the recursion depth, the memory mark (bytes
//!   allocated as of this thread's last memory checkpoint) and the
//!   countdown to the next real clock read.
//!
//! A thread hop is one [`current`] on the spawning thread and one
//! [`Governor::attach`] on the new one; [`par_map`] is the governed worker
//! pool that does exactly that in every worker. The expensive phases call
//! [`checkpoint`] (through [`crate::budget::charge_steps`] and friends)
//! and widen on the typed [`Stop`] it returns:
//!
//! ```
//! use std::time::Duration;
//! use support::deadline::DeadlineToken;
//! use support::governor::{self, Governor, Stop};
//!
//! let gov = Governor::new().with_deadline(DeadlineToken::after(Duration::ZERO));
//! let stops = governor::par_map(4, 2, |_| governor::checkpoint());
//! assert!(stops.iter().all(|s| s.is_ok()), "nothing attached: unbounded");
//! let _g = gov.attach();
//! // Every worker re-attaches `gov` before running the closure.
//! let stops = governor::par_map(4, 2, |_| governor::checkpoint());
//! assert!(stops.iter().all(|s| *s == Err(Stop::Deadline)));
//! ```
//!
//! With nothing attached every checkpoint succeeds, so library code never
//! needs to know whether a governor is installed.

use crate::budget::Steps;
use crate::deadline::{DeadlineToken, CHECK_INTERVAL};
use crate::memory::MemoryBudget;
use crate::obs::{self, Collector};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a checkpoint denied further work. Sticky per step-budget scope: the
/// first stop is what [`crate::budget::exhaustion`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The Fourier–Motzkin step budget ran dry.
    FmSteps,
    /// The interprocedural translation budget ran dry.
    Translations,
    /// The recursion-depth ceiling was reached.
    Recursion,
    /// The wall-clock deadline expired.
    Deadline,
    /// The memory budget was exhausted.
    Memory,
}

impl Stop {
    /// The label degradation details quote (`"{label} budget exhausted"`).
    pub fn label(self) -> &'static str {
        match self {
            Stop::FmSteps => "fm-steps",
            Stop::Translations => "translations",
            Stop::Recursion => "recursion",
            Stop::Deadline => "deadline",
            Stop::Memory => "memory",
        }
    }
}

/// The shared part of a governor: what every thread of one unit of work
/// must see. Cheap to clone (three `Option<Arc>`s).
#[derive(Debug, Clone, Default)]
pub struct Governor {
    deadline: Option<Arc<DeadlineToken>>,
    memory: Option<Arc<MemoryBudget>>,
    collector: Option<Arc<Collector>>,
}

impl Governor {
    /// A governor carrying nothing; attaching it changes nothing.
    pub fn new() -> Governor {
        Governor::default()
    }

    /// This governor with `token` as its deadline.
    pub fn with_deadline(mut self, token: Arc<DeadlineToken>) -> Governor {
        self.deadline = Some(token);
        self
    }

    /// This governor with `budget` as its memory budget.
    pub fn with_memory(mut self, budget: Arc<MemoryBudget>) -> Governor {
        self.memory = Some(budget);
        self
    }

    /// This governor with `collector` as its obs collector.
    pub fn with_collector(mut self, collector: Arc<Collector>) -> Governor {
        self.collector = Some(collector);
        self
    }

    /// The deadline token, if any.
    pub fn deadline(&self) -> Option<&Arc<DeadlineToken>> {
        self.deadline.as_ref()
    }

    /// The memory budget, if any.
    pub fn memory(&self) -> Option<&Arc<MemoryBudget>> {
        self.memory.as_ref()
    }

    /// Enters this governor on the calling thread until the guard drops.
    /// Each part it carries replaces the thread's own (innermost wins);
    /// parts it does not carry are left alone. Entering a memory budget
    /// first flushes the bytes allocated so far to the enclosing one, so a
    /// nested budget pays only for its own window.
    pub fn attach(&self) -> Attached {
        CTX.with(|cx| {
            let memory = self.memory.as_ref().map(|m| {
                cx.flush_memory();
                cx.mark.set(obs::alloc::allocated_bytes());
                cx.memory.replace(Some(Arc::clone(m)))
            });
            let deadline = self.deadline.as_ref().map(|t| {
                cx.until_check.set(0);
                cx.deadline.replace(Some(Arc::clone(t)))
            });
            let collector = self.collector.as_ref().map(|c| {
                obs::note_attached();
                cx.collector.replace(Some(Arc::clone(c)))
            });
            Attached { deadline, memory, collector }
        })
    }
}

/// An attached governor; dropping it flushes the tail allocation delta to
/// the memory budget and restores every part it replaced. Guards must drop
/// in reverse order of attachment (scopes nest).
#[must_use = "the governor detaches when the guard drops"]
#[derive(Debug)]
pub struct Attached {
    deadline: Option<Option<Arc<DeadlineToken>>>,
    memory: Option<Option<Arc<MemoryBudget>>>,
    collector: Option<Option<Arc<Collector>>>,
}

impl Drop for Attached {
    fn drop(&mut self) {
        let (deadline, memory, collector) =
            (self.deadline.take(), self.memory.take(), self.collector.take());
        let detached_collector = collector.is_some();
        // `try_with`: a guard may outlive the context during thread exit.
        let _ = CTX.try_with(|cx| {
            if let Some(prev) = memory {
                cx.flush_memory();
                cx.memory.replace(prev);
            }
            if let Some(prev) = deadline {
                cx.deadline.replace(prev);
            }
            if let Some(prev) = collector {
                cx.collector.replace(prev);
            }
        });
        if detached_collector {
            obs::note_detached();
        }
    }
}

/// Captures the calling thread's shared part, for [`Governor::attach`] on
/// another thread. The collector is the one attached to this thread (the
/// process-global fallback is visible on every thread anyway).
pub fn current() -> Governor {
    CTX.with(|cx| Governor {
        deadline: cx.deadline.borrow().clone(),
        memory: cx.memory.borrow().clone(),
        collector: cx.collector.borrow().clone(),
    })
}

/// The shared-limit checkpoint: deadline first, then memory. `Err` means
/// the caller must widen instead of continuing. A stop is also recorded in
/// the thread's step-budget scope, if one is open.
pub fn checkpoint() -> Result<(), Stop> {
    CTX.with(Context::checkpoint)
}

/// Maps `f` over `0..n` on up to `threads` workers, each running under the
/// calling thread's governor, and returns the results in index order. With
/// one thread (or one item) it runs inline. A panic escaping `f` is
/// re-raised on the calling thread once every worker has stopped; callers
/// that want per-item containment catch inside `f`.
pub fn par_map<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let gov = current();
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let _gov = gov.attach();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        let mut all = Vec::with_capacity(n);
        for worker in workers {
            match worker.join() {
                Ok(part) => all.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    // Completion order is racy; index order is not.
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Runs `f` on this thread's context.
pub(crate) fn context<R>(f: impl FnOnce(&Context) -> R) -> R {
    CTX.with(f)
}

// ---------------------------------------------------------------------------
// The context
// ---------------------------------------------------------------------------

pub(crate) struct Context {
    deadline: RefCell<Option<Arc<DeadlineToken>>>,
    memory: RefCell<Option<Arc<MemoryBudget>>>,
    pub(crate) collector: RefCell<Option<Arc<Collector>>>,
    /// The open step-budget scope ([`crate::budget::enter`]).
    pub(crate) steps: RefCell<Option<Steps>>,
    /// Recursion depth ([`crate::budget::recursion_guard`]).
    pub(crate) depth: Cell<u32>,
    /// `allocated_bytes()` as of this thread's last memory checkpoint.
    mark: Cell<u64>,
    /// Countdown to the next real clock read.
    until_check: Cell<u32>,
}

thread_local! {
    static CTX: Context = const {
        Context {
            deadline: RefCell::new(None),
            memory: RefCell::new(None),
            collector: RefCell::new(None),
            steps: RefCell::new(None),
            depth: Cell::new(0),
            mark: Cell::new(0),
            until_check: Cell::new(0),
        }
    };
}

impl Context {
    pub(crate) fn checkpoint(&self) -> Result<(), Stop> {
        let stop = if self.deadline_expired() {
            Stop::Deadline
        } else if !self.memory_ok() {
            Stop::Memory
        } else {
            return Ok(());
        };
        self.note(stop);
        Err(stop)
    }

    /// Records `stop` as the open scope's first stop, if it has none.
    pub(crate) fn note(&self, stop: Stop) {
        if let Some(s) = self.steps.borrow_mut().as_mut() {
            s.stopped.get_or_insert(stop);
        }
    }

    /// Throttled expiry check: one relaxed atomic load per call, a real
    /// clock read every [`CHECK_INTERVAL`] calls.
    fn deadline_expired(&self) -> bool {
        let deadline = self.deadline.borrow();
        let Some(token) = deadline.as_ref() else { return false };
        if token.latched() {
            return true;
        }
        match self.until_check.get() {
            0 => {
                self.until_check.set(CHECK_INTERVAL);
                token.expired_now()
            }
            left => {
                self.until_check.set(left - 1);
                false
            }
        }
    }

    /// Charges this thread's allocation delta to the memory budget; `false`
    /// once it is exhausted. Under `fault-injection` the faultpoint
    /// `memory::charge` can deny the Nth checkpoint.
    pub(crate) fn memory_ok(&self) -> bool {
        let memory = self.memory.borrow();
        let Some(budget) = memory.as_ref() else { return true };
        if crate::faultpoint::fires("memory::charge") {
            budget.force_exhaust();
            return false;
        }
        budget.charge(self.take_delta());
        !budget.exhausted()
    }

    fn flush_memory(&self) {
        if let Some(budget) = self.memory.borrow().as_ref() {
            budget.charge(self.take_delta());
        }
    }

    /// Bytes allocated since the mark; advances the mark.
    fn take_delta(&self) -> u64 {
        let now = obs::alloc::allocated_bytes();
        now.saturating_sub(self.mark.replace(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetConfig;
    use crate::obs::{ClockKind, Counter};
    use std::time::Duration;

    /// One governor, four workers: the deadline, the memory pool and the
    /// collector all reach every worker through `par_map`.
    #[test]
    fn par_map_workers_share_the_attached_governor() {
        let memory = MemoryBudget::bytes(1 << 40);
        let collector = Collector::new(ClockKind::Logical);
        let gov = Governor::new()
            .with_deadline(DeadlineToken::after(Duration::ZERO))
            .with_memory(Arc::clone(&memory))
            .with_collector(Arc::clone(&collector));
        let attached = gov.attach();
        let results = par_map(16, 4, |i| {
            let _scope = crate::budget::enter(BudgetConfig::default());
            // The test binary has no counting allocator, so charge the
            // worker's own budget directly: 1 KiB per item.
            if let Some(m) = current().memory() {
                m.charge(1024);
            }
            obs::incr(Counter::FmEliminations);
            let stop = checkpoint();
            let charged = crate::budget::charge_steps(1);
            (i, stop, charged, crate::budget::exhaustion(), std::thread::current().id())
        });
        assert_eq!(results.len(), 16);
        for (k, (i, stop, charged, label, _)) in results.iter().enumerate() {
            assert_eq!(*i, k, "index order");
            assert_eq!(*stop, Err(Stop::Deadline), "zero deadline stops every worker");
            assert!(!charged, "and denies every charge");
            assert_eq!(*label, Some("deadline"));
        }
        let me = std::thread::current().id();
        assert!(results.iter().all(|r| r.4 != me), "ran on workers");
        assert_eq!(memory.charged_bytes(), 16 * 1024, "one shared pool");
        assert_eq!(collector.counter(Counter::FmEliminations), 16, "counters land");
        assert_eq!(collector.counter(Counter::BudgetExhausted), 16, "scope reports too");
        drop(attached);
        assert!(current().deadline().is_none() && current().memory().is_none());
        assert!(checkpoint().is_ok(), "detached: unbounded again");
    }

    #[test]
    fn stop_labels_match_degradation_text() {
        let labels: Vec<_> =
            [Stop::FmSteps, Stop::Translations, Stop::Recursion, Stop::Deadline, Stop::Memory]
                .iter()
                .map(|s| s.label())
                .collect();
        assert_eq!(labels, ["fm-steps", "translations", "recursion", "deadline", "memory"]);
    }
}
