//! Deadlines for the solve phase.
//!
//! LCMSR retrieval is an *interactive* primitive: a user pans, refines and
//! moves on, so a solver must be able to abandon work the instant the answer
//! stops mattering.  This module provides the anytime-query plumbing the
//! engine threads through every solver layer:
//!
//! * [`CancelToken`] — a `Copy` poll point holding the request's deadline
//!   instant.  Solvers call [`CancelToken::is_cancelled`] at combine-loop and
//!   enumeration boundaries and, once the deadline has passed, return the
//!   **best region found so far** instead of either running to completion or
//!   aborting with nothing.  The result is flagged `partial: true` with a
//!   `deadline_exceeded` cause in [`crate::stats::RunStats`].
//! * [`Deadline`] — an absolute expiry [`Instant`] paired with the relative
//!   budget it was derived from.  The instant drives the token (so time spent
//!   queued in a serving front-end counts against the budget); the budget is
//!   what gets reported back on the wire, because an `Instant` is neither
//!   serializable nor meaningful across processes.
//!
//! The inert token ([`CancelToken::none`]) holds no instant: polling it is a
//! branch on a `None`, it can never fire, and the solve path is bit-for-bit
//! identical to one with no deadline support compiled in.  This is what
//! keeps the golden-region suite byte exact when no deadline is set.

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
        CancelToken { at: Some(self.at) }
    }
}

/// The deadline poll point the solvers check.
///
/// A token fires once the monotonic clock reaches its instant, so once fired
/// it stays fired.  The inert token returned by [`CancelToken::none`] has no
/// instant and can never fire — the hot loops pay one easily-predicted
/// branch for it.
#[derive(Debug, Clone, Copy)]
pub struct CancelToken {
    at: Option<Instant>,
}

impl CancelToken {
    /// The inert token: never fires, costs nothing to poll.
    pub const fn none() -> Self {
        CancelToken { at: None }
    }

    /// Polls the token.  The poll points are coarse (once per enumerated
    /// edge, subset stride, binary-search probe, …), so the clock read here
    /// is noise next to the work between polls.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_fires() {
        assert!(!CancelToken::none().is_cancelled());
    }

    #[test]
    fn deadline_token_fires_after_expiry() {
        let t = Deadline::after(Duration::from_secs(3600)).token();
        assert!(!t.is_cancelled(), "one hour out must not fire");

        let expired = Deadline::after(Duration::ZERO).token();
        assert!(expired.is_cancelled());
        // Still cancelled on re-poll.
        assert!(expired.is_cancelled());
    }

    #[test]
    fn deadline_carries_budget_and_instant() {
        let budget = Duration::from_millis(250);
        let d = Deadline::after(budget);
        assert_eq!(d.budget(), budget);
        assert!(!d.expired());
        assert!(d.remaining() <= budget);
        assert!(!d.token().is_cancelled());

        let tight = Deadline::after(Duration::ZERO);
        assert!(tight.expired());
        assert_eq!(tight.remaining(), Duration::ZERO);
        assert!(tight.token().is_cancelled());
    }
}
