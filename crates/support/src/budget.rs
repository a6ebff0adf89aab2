//! Analysis budgets: hard ceilings that turn runaway computations into
//! graceful precision loss.
//!
//! Fourier–Motzkin elimination is worst-case exponential and the parsers are
//! recursive, so an adversarial (or merely broken) input could otherwise pin
//! a core or blow the stack. Instead of failing, every expensive phase
//! charges work against a thread-local [`BudgetScope`] (the per-thread part
//! of the [`crate::governor`] context); when a budget runs dry the phase
//! *widens* — it returns a conservative over-approximation (ultimately the
//! whole declared array, `[0:N-1:1]`) and records why. The result is still
//! sound for every consumer: regions only grow.
//!
//! Usage:
//!
//! ```
//! use support::budget::{self, BudgetConfig};
//!
//! let _scope = budget::enter(BudgetConfig { fm_steps: 10, ..Default::default() });
//! assert!(budget::charge_steps(4));
//! assert!(!budget::charge_steps(100), "budget exhausted");
//! assert!(budget::exhausted());
//! ```
//!
//! With no scope active every charge succeeds (unlimited), so library code
//! can charge unconditionally.

use crate::governor::{self, Stop};

/// Budget knobs. All limits are per [`enter`] scope (the driver opens one
/// scope per analyzed procedure, so these are per-procedure ceilings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetConfig {
    /// Fourier–Motzkin work steps (variable eliminations + constraint
    /// pairings) before projections start dropping constraints.
    pub fm_steps: u64,
    /// Constraint-count cap per system during elimination; beyond it the
    /// most complex inequalities are dropped (a sound widening).
    pub max_constraints: usize,
    /// Interprocedural record translations before propagation degrades the
    /// remaining regions to `MESSY`.
    pub translations: u64,
    /// Recursion-depth ceiling for [`recursion_guard`] (parsers, tree
    /// walks). Exceeding it is reported as an error, not a stack overflow.
    pub recursion_limit: u32,
}

impl Default for BudgetConfig {
    fn default() -> Self {
        BudgetConfig {
            fm_steps: 2_000_000,
            max_constraints: DEFAULT_MAX_CONSTRAINTS,
            translations: 5_000_000,
            recursion_limit: DEFAULT_RECURSION_LIMIT,
        }
    }
}

impl BudgetConfig {
    /// A deliberately tiny budget, useful for exercising degradation paths.
    pub fn tiny() -> Self {
        BudgetConfig {
            fm_steps: 8,
            max_constraints: 4,
            translations: 4,
            recursion_limit: 16,
        }
    }
}

/// Constraint cap used when no scope is active (the historical
/// `STEP_BUDGET` of the Fourier–Motzkin module).
pub const DEFAULT_MAX_CONSTRAINTS: usize = 96;

/// Recursion ceiling used when no scope is active. Deep enough for any real
/// source, shallow enough that a pathological input errors out long before
/// the thread stack is at risk.
pub const DEFAULT_RECURSION_LIMIT: u32 = 200;

/// An open scope's remaining allowance.
#[derive(Debug)]
pub(crate) struct Steps {
    config: BudgetConfig,
    fm_steps_left: u64,
    translations_left: u64,
    /// The first stop this scope saw (sticky).
    pub(crate) stopped: Option<Stop>,
}

/// An active budget scope; dropping it restores the previous scope (scopes
/// nest, innermost wins).
#[derive(Debug)]
pub struct BudgetScope {
    prev: Option<Steps>,
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        let closed = governor::context(|cx| cx.steps.replace(self.prev.take()));
        if let Some(state) = closed {
            // Report consumed units (limit minus remainder) to the
            // observability layer; no-ops when nothing is collecting.
            crate::obs::add(
                crate::obs::Counter::BudgetFmSteps,
                state.config.fm_steps.saturating_sub(state.fm_steps_left),
            );
            crate::obs::add(
                crate::obs::Counter::BudgetTranslations,
                state.config.translations.saturating_sub(state.translations_left),
            );
            if state.stopped.is_some() {
                crate::obs::incr(crate::obs::Counter::BudgetExhausted);
            }
        }
    }
}

/// Opens a budget scope on this thread.
pub fn enter(config: BudgetConfig) -> BudgetScope {
    let state = Steps {
        config,
        fm_steps_left: config.fm_steps,
        translations_left: config.translations,
        stopped: None,
    };
    BudgetScope { prev: governor::context(|cx| cx.steps.replace(Some(state))) }
}

/// Charges `n` units of `kind` (`FmSteps` or `Translations`). Wall-clock
/// deadlines and memory budgets piggyback on the work checkpoints: an
/// expired deadline or exhausted allocation budget denies every further
/// charge ([`governor::checkpoint`]), so the phase widens exactly as if its
/// step budget ran dry. Checked first so they work without a scope too.
fn charge(kind: Stop, n: u64) -> bool {
    governor::context(|cx| {
        if cx.checkpoint().is_err() {
            return false;
        }
        let mut steps = cx.steps.borrow_mut();
        let Some(state) = steps.as_mut() else { return true };
        let left = match kind {
            Stop::Translations => &mut state.translations_left,
            _ => &mut state.fm_steps_left,
        };
        if *left >= n {
            *left -= n;
            true
        } else {
            *left = 0;
            state.stopped.get_or_insert(kind);
            false
        }
    })
}

/// Charges `n` Fourier–Motzkin work steps; `false` once the budget is dry
/// (callers must widen instead of continuing).
pub fn charge_steps(n: u64) -> bool {
    charge(Stop::FmSteps, n)
}

/// Charges one interprocedural record translation.
pub fn charge_translation() -> bool {
    charge(Stop::Translations, 1)
}

/// The constraint-count cap of the active scope (or the default).
pub fn constraint_cap() -> usize {
    governor::context(|cx| {
        cx.steps.borrow().as_ref().map_or(DEFAULT_MAX_CONSTRAINTS, |s| s.config.max_constraints)
    })
}

/// True once any budget of the active scope has run dry (sticky).
pub fn exhausted() -> bool {
    exhaustion().is_some()
}

/// Which budget ran dry first, if any.
pub fn exhaustion() -> Option<&'static str> {
    governor::context(|cx| cx.steps.borrow().as_ref().and_then(|s| s.stopped)).map(Stop::label)
}

/// RAII token for one recursion level; see [`recursion_guard`].
#[derive(Debug)]
pub struct RecursionGuard {
    _private: (),
}

impl Drop for RecursionGuard {
    fn drop(&mut self) {
        governor::context(|cx| cx.depth.set(cx.depth.get().saturating_sub(1)));
    }
}

/// Enters one recursion level. Returns `None` when the ceiling is reached —
/// the caller should surface a "nesting too deep" error instead of
/// recursing further (and risking an uncatchable stack overflow).
pub fn recursion_guard() -> Option<RecursionGuard> {
    governor::context(|cx| {
        cx.checkpoint().ok()?;
        let limit = cx
            .steps
            .borrow()
            .as_ref()
            .map_or(DEFAULT_RECURSION_LIMIT, |s| s.config.recursion_limit);
        let depth = cx.depth.get();
        if depth >= limit {
            cx.note(Stop::Recursion);
            return None;
        }
        cx.depth.set(depth + 1);
        Some(RecursionGuard { _private: () })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_without_scope() {
        assert!(charge_steps(u64::MAX));
        assert!(charge_translation());
        assert!(!exhausted());
        assert_eq!(constraint_cap(), DEFAULT_MAX_CONSTRAINTS);
    }

    #[test]
    fn steps_run_dry_and_stick() {
        let _s = enter(BudgetConfig { fm_steps: 5, ..Default::default() });
        assert!(charge_steps(5));
        assert!(!charge_steps(1));
        assert!(exhausted());
        assert_eq!(exhaustion(), Some("fm-steps"));
        // Sticky: later small charges still fail.
        assert!(!charge_steps(1));
    }

    #[test]
    fn scope_restores_on_drop() {
        {
            let _s = enter(BudgetConfig { fm_steps: 0, ..Default::default() });
            assert!(!charge_steps(1));
        }
        assert!(charge_steps(1), "no scope → unlimited again");
        assert!(!exhausted());
    }

    #[test]
    fn scopes_nest() {
        let _outer = enter(BudgetConfig { fm_steps: 100, ..Default::default() });
        {
            let _inner = enter(BudgetConfig { fm_steps: 0, ..Default::default() });
            assert!(!charge_steps(1));
            assert!(exhausted());
        }
        assert!(!exhausted(), "outer scope untouched by inner exhaustion");
        assert!(charge_steps(1));
    }

    #[test]
    fn translation_budget_separate_from_steps() {
        let _s = enter(BudgetConfig { translations: 1, ..Default::default() });
        assert!(charge_translation());
        assert!(!charge_translation());
        assert_eq!(exhaustion(), Some("translations"));
        assert!(charge_steps(1), "fm budget unaffected");
    }

    #[test]
    fn recursion_guard_enforces_ceiling() {
        let _s = enter(BudgetConfig { recursion_limit: 3, ..Default::default() });
        let g1 = recursion_guard();
        let g2 = recursion_guard();
        let g3 = recursion_guard();
        assert!(g1.is_some() && g2.is_some() && g3.is_some());
        assert!(recursion_guard().is_none());
        drop(g3);
        assert!(recursion_guard().is_some(), "depth released on drop");
        drop((g1, g2));
    }

    #[test]
    fn note_exhausted_is_first_wins() {
        let _s = enter(BudgetConfig { fm_steps: 0, translations: 0, ..Default::default() });
        assert!(!charge_steps(1));
        assert!(!charge_translation());
        assert_eq!(exhaustion(), Some("fm-steps"));
    }

    #[test]
    fn tiny_config_is_tiny() {
        let t = BudgetConfig::tiny();
        assert!(t.fm_steps < BudgetConfig::default().fm_steps);
        assert!(t.recursion_limit < BudgetConfig::default().recursion_limit);
    }
}
