//! Cooperative cancellation and deadlines for the solve phase.
//!
//! LCMSR retrieval is an *interactive* primitive: a user pans, refines and
//! moves on, so a solver must be able to abandon work the instant the answer
//! stops mattering.  This module provides the anytime-query plumbing the
//! engine threads through every solver layer:
//!
//! * [`CancelToken`] — a cheap, cloneable poll point.  Solvers call
//!   [`CancelToken::is_cancelled`] at combine-loop and enumeration boundaries
//!   and, on expiry, return the **best region found so far** instead of either
//!   running to completion or aborting with nothing.  The result is flagged
//!   `partial: true` with a `deadline_exceeded` cause in
//!   [`crate::stats::RunStats`].
//! * [`Deadline`] — an absolute expiry [`Instant`] paired with the relative
//!   budget it was derived from.  The instant drives the token (so time spent
//!   queued in a serving front-end counts against the budget); the budget is
//!   what gets reported back on the wire, because an `Instant` is neither
//!   serializable nor meaningful across processes.
//!
//! A default-constructed token ([`CancelToken::none`]) carries no shared
//! state at all: polling it is a branch on a `None`, it can never fire, and
//! the solve path is bit-for-bit identical to one with no cancellation
//! support compiled in.  This is what keeps the golden-region suite byte
//! exact when no deadline is set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads the monotonic clock.
///
/// This module is the one audited clock source: every timestamp outside
/// tests and benches — deadline stamping, phase timing in
/// [`crate::stats::RunStats`], span timestamps in [`crate::trace`], and the
/// service's latency, queue-wait and uptime stamps — goes through here, so a
/// reviewer — or `lcmsr-lint`'s `clock` rule — can find every time
/// dependency in one place.
#[must_use]
pub fn now() -> Instant {
    Instant::now()
}

/// A deadline: the absolute instant work stops mattering, plus the relative
/// budget that instant was derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` from now.  Stamp it where the request *enters the
    /// system* (e.g. at HTTP decode time), not where the solver starts, so
    /// queue wait counts against the budget.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            at: Instant::now() + budget,
            budget,
        }
    }

    /// The absolute expiry instant.
    pub fn at(&self) -> Instant {
        self.at
    }

    /// The relative budget this deadline was created with (reported on the
    /// wire as `deadline_ns`).
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// Whether the deadline has already passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// A token that fires at this deadline.
    pub fn token(&self) -> CancelToken {
        CancelToken::with_deadline(self.at)
    }
}

/// Shared state behind an armed token.
#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cooperative cancellation token polled by the solvers.
///
/// Cloning is cheap (an `Arc` bump, or nothing for an inert token); clones
/// observe the same cancellation state.  The inert token returned by
/// [`CancelToken::none`] (and `Default`) holds no allocation and can never
/// fire — the hot loops pay one easily-predicted branch for it.
///
/// Once a token reports cancelled it stays cancelled: after the deadline
/// check first trips, the flag is latched so subsequent polls are a plain
/// atomic load with no clock read.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<TokenInner>>,
}

impl CancelToken {
    /// The inert token: never fires, costs nothing to poll.
    pub const fn none() -> Self {
        CancelToken { inner: None }
    }

    /// An armed token with no deadline; fires only via [`CancelToken::cancel`].
    pub fn manual() -> Self {
        CancelToken {
            inner: Some(Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A token that fires once `Instant::now()` reaches `at` (or earlier via
    /// [`CancelToken::cancel`]).
    pub fn with_deadline(at: Instant) -> Self {
        CancelToken {
            inner: Some(Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(at),
            })),
        }
    }

    /// A token that fires `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// Fires the token (a no-op on the inert token).
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Whether this token can ever fire (false for the inert token).
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// The deadline instant, when this token has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|inner| inner.deadline)
    }

    /// Polls the token.  The poll points are coarse (once per enumerated
    /// edge, subset stride, binary-search probe, …), so the occasional clock
    /// read here is noise next to the work between polls.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match inner.deadline {
            Some(at) if Instant::now() >= at => {
                // Latch, so later polls skip the clock read.
                inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_fires() {
        let t = CancelToken::none();
        assert!(!t.is_armed());
        assert!(!t.is_cancelled());
        t.cancel(); // no-op
        assert!(!t.is_cancelled());
        assert_eq!(t.deadline(), None);
        assert!(!CancelToken::default().is_armed());
    }

    #[test]
    fn manual_token_fires_and_latches_across_clones() {
        let t = CancelToken::manual();
        assert!(t.is_armed());
        assert!(!t.is_cancelled());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn deadline_token_fires_after_expiry() {
        let t = CancelToken::after(Duration::from_secs(3600));
        assert!(!t.is_cancelled(), "one hour out must not fire");
        assert!(t.deadline().is_some());

        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_cancelled());
        // Latched: still cancelled on re-poll.
        assert!(expired.is_cancelled());
    }

    #[test]
    fn deadline_carries_budget_and_instant() {
        let budget = Duration::from_millis(250);
        let d = Deadline::after(budget);
        assert_eq!(d.budget(), budget);
        assert!(!d.expired());
        assert!(d.remaining() <= budget);
        assert!(d.at() > Instant::now());
        let token = d.token();
        assert!(token.is_armed());
        assert_eq!(token.deadline(), Some(d.at()));

        let tight = Deadline::after(Duration::ZERO);
        assert!(tight.expired());
        assert_eq!(tight.remaining(), Duration::ZERO);
        assert!(tight.token().is_cancelled());
    }
}
