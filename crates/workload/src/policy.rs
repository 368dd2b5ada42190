//! Retry and service policies — the two control knobs of the closed
//! loop.
//!
//! [`RetryPolicy`] is the client side: what a client does when an
//! attempt times out (or is rejected at admission). [`ServicePolicy`]
//! is the server side: how large the bounded admission queue is and
//! which [`Shed`] behaviour governs overflow and service order. The
//! congestion-collapse experiments (E17) sweep exactly these two
//! dimensions against the client timeout.

use aqt_sim::Time;

use crate::rng::Rng64;

/// What a client does after an attempt fails (timeout or synchronous
/// admission rejection). Attempts are always bounded by
/// [`crate::ClientConfig::max_attempts`]; the policy only chooses the
/// delay before the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Never retry: one attempt per request.
    None,
    /// Retry with no delay (the storm-maker).
    Immediate,
    /// Retry after a fixed delay.
    Fixed {
        /// Steps to wait before the next attempt.
        delay: Time,
    },
    /// Exponential backoff: attempt `k` (2-based — the first retry)
    /// waits `base << (k - 2)` steps, capped at `cap`, plus a
    /// deterministic jitter of up to half the backoff drawn from the
    /// workload's seeded [`Rng64`].
    ExpBackoff {
        /// Backoff before the first retry.
        base: Time,
        /// Upper bound on the un-jittered backoff.
        cap: Time,
    },
}

impl RetryPolicy {
    /// Delay before issuing attempt number `attempt` (2-based: the
    /// first retry is attempt 2), or `None` if the policy never
    /// retries. Draws from `rng` only when the policy is jittered, so
    /// un-jittered policies leave the stream untouched.
    pub fn delay(&self, attempt: u32, rng: &mut Rng64) -> Option<Time> {
        match *self {
            RetryPolicy::None => None,
            RetryPolicy::Immediate => Some(0),
            RetryPolicy::Fixed { delay } => Some(delay),
            RetryPolicy::ExpBackoff { base, cap } => {
                let exp = attempt.saturating_sub(2).min(32);
                let backoff = base.saturating_mul(1u64 << exp).min(cap);
                Some(backoff + rng.below(backoff / 2 + 1))
            }
        }
    }

    /// A stable short name for tables and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            RetryPolicy::None => "none",
            RetryPolicy::Immediate => "immediate",
            RetryPolicy::Fixed { .. } => "fixed",
            RetryPolicy::ExpBackoff { .. } => "exp-backoff",
        }
    }
}

/// Overflow and service-order behaviour of the bounded admission
/// queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// FIFO service; a full queue rejects the incoming attempt
    /// (synchronously — the client observes the rejection next step).
    RejectNewest,
    /// FIFO service; a full queue silently drops its oldest queued
    /// attempt to admit the new one (the dropped attempt's client
    /// discovers the loss by timing out).
    RejectOldest,
    /// LIFO service: always dispatch the *newest* queued attempt; a
    /// full queue rejects the incoming attempt. The classic
    /// collapse-resistant discipline — fresh work is served within its
    /// deadline while stale work rots at the bottom.
    LifoFlip,
    /// FIFO service, but attempts that can no longer meet their
    /// client's deadline are discarded at dispatch time instead of
    /// being served as guaranteed-wasted work; a full queue rejects
    /// the incoming attempt.
    DeadlineDrop,
}

impl Shed {
    /// A stable short name for tables and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            Shed::RejectNewest => "reject-newest",
            Shed::RejectOldest => "reject-oldest",
            Shed::LifoFlip => "lifo",
            Shed::DeadlineDrop => "deadline-drop",
        }
    }
}

/// The destination node's service configuration: a bounded admission
/// queue in front of the (unit-capacity) network path, with a [`Shed`]
/// behaviour and an optional service outage used to trigger storms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServicePolicy {
    /// Admission-queue bound (attempts). `0` sheds everything.
    pub capacity: u32,
    /// Overflow / service-order behaviour.
    pub shed: Shed,
    /// Service pause `[start, end)` in injection time: during these
    /// steps nothing is dispatched from the admission queue. This is
    /// the deterministic stand-in for a transient slowdown — the spark
    /// that ignites a retry storm.
    pub pause: Option<(Time, Time)>,
}

impl ServicePolicy {
    /// FIFO service with queue bound `capacity`, no pause.
    pub fn fifo(capacity: u32) -> Self {
        ServicePolicy {
            capacity,
            shed: Shed::RejectNewest,
            pause: None,
        }
    }

    /// The same policy with a service pause installed.
    #[cfg(test)]
    pub fn with_pause(mut self, start: Time, end: Time) -> Self {
        self.pause = Some((start, end));
        self
    }

    /// Is dispatch paused at injection time `t`?
    pub fn paused_at(&self, t: Time) -> bool {
        matches!(self.pause, Some((s, e)) if t >= s && t < e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delays_follow_the_policy() {
        let mut rng = Rng64::new(1);
        assert_eq!(RetryPolicy::None.delay(2, &mut rng), None);
        assert_eq!(RetryPolicy::Immediate.delay(2, &mut rng), Some(0));
        assert_eq!(RetryPolicy::Fixed { delay: 3 }.delay(5, &mut rng), Some(3));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::ExpBackoff { base: 4, cap: 16 };
        // Un-jittered lower bounds double then saturate: 4, 8, 16, 16.
        for (attempt, lo) in [(2u32, 4u64), (3, 8), (4, 16), (5, 16)] {
            let mut rng = Rng64::new(9);
            let d = p.delay(attempt, &mut rng).unwrap();
            assert!(d >= lo && d <= lo + lo / 2, "attempt {attempt}: {d}");
        }
    }

    #[test]
    fn backoff_jitter_is_seed_deterministic() {
        let p = RetryPolicy::ExpBackoff { base: 8, cap: 64 };
        let (mut a, mut b) = (Rng64::new(5), Rng64::new(5));
        for attempt in 2..8 {
            assert_eq!(p.delay(attempt, &mut a), p.delay(attempt, &mut b));
        }
    }

    #[test]
    fn pause_window_is_half_open() {
        let s = ServicePolicy::fifo(4).with_pause(10, 12);
        assert!(!s.paused_at(9));
        assert!(s.paused_at(10));
        assert!(s.paused_at(11));
        assert!(!s.paused_at(12));
        assert!(!ServicePolicy::fifo(4).paused_at(10));
    }
}
