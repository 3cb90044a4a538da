//! The [`BatchPolicy`]: how an [`Engine`](crate::Engine) admits, coalesces
//! and routes concurrent submissions, plus the per-request [`Priority`]
//! classes its queues drain by.

use std::time::Duration;

/// How submissions are routed across an engine's shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Deal submissions out in arrival order, one shard after the next.
    /// Cheapest and fair for uniform request sizes.
    #[default]
    RoundRobin,
    /// Route each submission to the shard with the smallest outstanding
    /// work, measured in compiled plan steps.  Worth its extra bookkeeping
    /// when request sizes are wildly mixed — it keeps one giant request from
    /// queueing small ones behind it while other shards idle.  Under a
    /// [`capacity`](BatchPolicy::capacity) bound, shards whose queues are
    /// full are skipped while any shard still has space.
    SizeBalanced,
}

/// Urgency class of a submitted request.
///
/// Executors drain strictly by class: when a gathering window closes, every
/// queued [`High`](Priority::High) request enters the pass before any
/// [`Normal`](Priority::Normal) one, which enters before any
/// [`Low`](Priority::Low) one (FIFO within a class).  Classes never starve
/// completely — a lower class runs as soon as no higher-class request is
/// queued on the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work: drained only when nothing more urgent is queued.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive work: always drained first.
    High,
}

impl Priority {
    /// Number of priority classes (one drain lane each).
    pub const CLASSES: usize = 3;

    /// Drain-lane index: lane 0 drains first.
    pub(crate) fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// The admission and coalescing policy of an [`Engine`](crate::Engine):
/// how many requests each shard may hold, when an executor wakes to work,
/// how greedily it gathers a batch, and how submissions are spread across
/// shards.
///
/// An executor that finds its queue non-empty starts a *gathering window*:
/// it drains the queue into a batch once [`max_batch`](Self::max_batch)
/// requests are available **or** the window has been open for
/// [`max_wait`](Self::max_wait), whichever comes first (shutdown also closes
/// the window immediately).  With [`adaptive`](Self::adaptive) set, the
/// window length is retuned from the observed arrival rate instead of
/// staying pinned at `max_wait` — see the field docs.  The batch then
/// executes as one merged pool pass with max-of-waves barriers, so
/// everything gathered into one window shares the schedule.
///
/// [`capacity`](Self::capacity) bounds each shard's ingress queue, which is
/// what turns the engine from "accepts everything, may hoard unbounded
/// memory behind a stalled shard" into an admission-controlled front door:
/// [`Client::try_submit`](crate::Client::try_submit) fails fast with
/// [`Overloaded`](crate::Overloaded) when the routed shard is full, and
/// [`Client::submit`](crate::Client::submit) blocks (backpressure) until the
/// executor drains.
///
/// ```
/// use paco_service::{BatchPolicy, Routing};
/// use std::time::Duration;
///
/// // Low-latency ingress (the default): never dawdle, take what's there.
/// let greedy = BatchPolicy::default();
/// assert_eq!(greedy.max_wait, Duration::ZERO);
///
/// // Throughput ingress: two bounded pools, windows tuned from the
/// // arrival rate (up to 1ms), overload shed at 256 queued per shard.
/// let wide = BatchPolicy {
///     max_batch: 128,
///     max_wait: Duration::from_millis(1),
///     adaptive: true,
///     capacity: Some(256),
///     shards: 2,
///     routing: Routing::SizeBalanced,
/// };
/// assert!(greedy.max_batch == wide.max_batch / 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most requests one executor pass may coalesce.  `1` disables
    /// coalescing entirely: every request runs as its own pass.
    pub max_batch: usize,
    /// How long a gathering window stays open waiting for the batch to fill
    /// after the first request arrives.  `Duration::ZERO` is the greedy
    /// policy: drain whatever is queued right now and run it.  With
    /// [`adaptive`](Self::adaptive) set this is the window *ceiling*.
    pub max_wait: Duration,
    /// Retune the gathering window from the observed per-shard arrival rate
    /// (Little's-law style): with `λ` requests/s arriving, a window of
    /// `max_batch / λ` seconds is what it takes to gather a full batch, so
    /// the executor waits `min(max_wait, max_batch / λ)` — long windows when
    /// traffic is sparse (coalesce what little arrives), near-zero windows
    /// under overload (don't add latency the queue already provides).
    /// Default `false`: the window is always exactly `max_wait`.
    pub adaptive: bool,
    /// Bound on each shard's ingress queue (requests queued but not yet
    /// drained into a pass).  `None` is the legacy unbounded behaviour: no
    /// submission is ever refused for load, and a stalled shard can hoard
    /// memory without limit — fine for trusted closed-loop callers, a
    /// footgun for open-loop traffic.  `Some(n)` caps outstanding work:
    /// admission beyond it fails fast ([`try_submit`](crate::Client::try_submit))
    /// or blocks ([`submit`](crate::Client::submit)).  `Some(0)` is rejected
    /// by validation: a queue nothing can enter would deadlock every
    /// blocking submit.
    pub capacity: Option<usize>,
    /// Number of executor shards; each owns its own worker pool (of the
    /// engine's `p` processors) and its own queue, and runs passes
    /// independently of — and concurrently with — its siblings.
    pub shards: usize,
    /// How submissions pick a shard.
    pub routing: Routing,
}

impl Default for BatchPolicy {
    /// One shard, round-robin (trivially), batches of up to 64, the greedy
    /// window (`max_wait` zero: drain what is queued and run it; requests
    /// that arrive while a pass runs still coalesce into the next one), and
    /// an **unbounded** queue (the legacy pre-admission-control behaviour;
    /// set [`capacity`](Self::capacity) for open-loop traffic).
    ///
    /// The window used to be a static 200 µs, which held an idle engine's
    /// answer to a 12 µs closure at about 0.36 ms.
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait: Duration::ZERO,
            adaptive: false,
            capacity: None,
            shards: 1,
            routing: Routing::RoundRobin,
        }
    }
}

impl BatchPolicy {
    /// Validate the policy at engine construction.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `shards` is zero, or if `capacity` is
    /// `Some(0)` (a queue nothing can enter; for "no queueing" use
    /// `Some(1)`, for the legacy unbounded queue use `None`).
    pub(crate) fn validate(&self) {
        assert!(self.max_batch >= 1, "BatchPolicy::max_batch must be >= 1");
        assert!(self.shards >= 1, "BatchPolicy::shards must be >= 1");
        assert!(
            self.capacity != Some(0),
            "BatchPolicy::capacity must be >= 1 when bounded (use None for unbounded)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        BatchPolicy::default().validate();
        assert_eq!(BatchPolicy::default().routing, Routing::RoundRobin);
        // The legacy default stays unbounded and non-adaptive so PR-5-era
        // configurations keep their exact semantics.
        assert_eq!(BatchPolicy::default().capacity, None);
        assert!(!BatchPolicy::default().adaptive);
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_is_rejected() {
        BatchPolicy {
            max_batch: 0,
            ..BatchPolicy::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "shards")]
    fn zero_shards_is_rejected() {
        BatchPolicy {
            shards: 0,
            ..BatchPolicy::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        // `Some(0)` would silently deadlock every blocking submit; the
        // unbounded spelling is `None`, not a zero bound.
        BatchPolicy {
            capacity: Some(0),
            ..BatchPolicy::default()
        }
        .validate();
    }

    #[test]
    fn bounded_capacity_validates() {
        BatchPolicy {
            capacity: Some(1),
            ..BatchPolicy::default()
        }
        .validate();
    }

    #[test]
    fn priority_classes_order_and_lanes() {
        // Ord follows urgency (High > Normal > Low); lanes drain inversely.
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::High.lane(), 0);
        assert_eq!(Priority::Normal.lane(), 1);
        assert_eq!(Priority::Low.lane(), 2);
    }
}
