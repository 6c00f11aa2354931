//! Replica health tracking, circuit breaking, and failover policy.
//!
//! The live corpus (`simvid_picture`'s `LiveVideoDb`, whose `LivePin`
//! walks a shard's replicas on every read) consults them through the
//! types in this module: a
//! per-replica [`HealthTracker`] (EWMA of recent call outcomes), a
//! three-state [`CircuitBreaker`] gating admission to replicas that keep
//! failing, and a pure [`failover_order`] that fixes the candidate order a
//! shard read walks.
//!
//! Everything here is **deterministic and wall-clock-free**, in keeping
//! with the crate's fault-injection doctrine: the breaker recovers on
//! *denial fuel* (a counted number of rejected admissions) rather than a
//! cooldown timer, so a chaos run replays bit-identically however fast the
//! machine is. Failover order is a pure function of `(epoch, shard,
//! replica count)` — never of timing — so the replicas a request consults
//! form the same sequence under 1 worker or 8. The live corpus keys the
//! `epoch` argument on its snapshot epoch mixed with the query's stable
//! structural hash, so on a frozen corpus different queries lead with
//! different replicas.

use simvid_obs::{Counter, Gauge, Registry};
use std::sync::{Arc, Mutex};

/// The three classic circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow freely; consecutive failures are counted.
    Closed,
    /// Calls are denied; each denial burns recovery fuel.
    Open,
    /// One probe call is in flight; its outcome decides the next state.
    HalfOpen,
}

impl BreakerState {
    /// Stable numeric encoding for gauges: 0 closed, 1 open, 2 half-open.
    #[must_use]
    pub fn as_gauge(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// What the breaker says about one prospective call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The breaker is closed: call normally.
    Admit,
    /// The breaker just moved Open → Half-Open: this call is the probe
    /// whose outcome decides recovery. Probes must run to a definitive
    /// outcome (no hedging fuel caps) or the breaker wedges half-open.
    Probe,
    /// The breaker is open (or a probe is already in flight): skip this
    /// replica.
    Deny,
}

/// Tuning of one [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures (while closed) that trip the breaker open.
    /// 0 is treated as 1.
    pub failure_threshold: u32,
    /// Denied admissions an open breaker absorbs before letting one probe
    /// through. Fuel, not wall time: recovery cadence is a pure function
    /// of call traffic. 0 is treated as 1.
    pub probe_fuel: u32,
    /// EWMA smoothing factor of the [`HealthTracker`] (weight of the
    /// newest outcome).
    pub health_alpha: f64,
    /// If positive, a closed breaker also trips when the EWMA health score
    /// sinks below this floor (after `min_samples` outcomes) — catching
    /// replicas that fail *often* without ever failing `failure_threshold`
    /// times in a row. `0.0` disables the floor.
    pub health_floor: f64,
    /// Outcomes required before the health floor may trip the breaker.
    pub min_samples: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            probe_fuel: 8,
            health_alpha: 0.2,
            health_floor: 0.05,
            min_samples: 16,
        }
    }
}

/// Exponentially-weighted moving average of call outcomes: `1.0` is a
/// replica that always succeeds, `0.0` one that always fails. Starts
/// optimistic (score `1.0`) so a cold replica is eligible for traffic.
#[derive(Debug, Clone, Copy)]
pub struct HealthTracker {
    score: f64,
    alpha: f64,
    samples: u64,
}

impl HealthTracker {
    /// A fresh tracker with smoothing factor `alpha` (clamped to `(0, 1]`).
    #[must_use]
    pub fn new(alpha: f64) -> HealthTracker {
        HealthTracker {
            score: 1.0,
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
            samples: 0,
        }
    }

    /// Folds one outcome into the average.
    pub fn record(&mut self, ok: bool) {
        let x = if ok { 1.0 } else { 0.0 };
        self.score = (1.0 - self.alpha) * self.score + self.alpha * x;
        self.samples += 1;
    }

    /// The current health in `[0, 1]`.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Outcomes folded in so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// A deterministic three-state circuit breaker over one replica.
///
/// Transitions (the only ones possible — property-tested in the
/// `replicated` suite):
///
/// * Closed —`failure_threshold` consecutive failures (or health floor)→ Open
/// * Open —`probe_fuel` denials→ Half-Open (the admitting call is the probe)
/// * Half-Open —probe succeeded→ Closed, —probe failed→ Open
/// * Any state —successful outcome recorded→ Closed
///
/// [`CircuitBreaker::admit`] never invents failures and
/// [`CircuitBreaker::record`] never denies calls; Open is entered only by
/// recording a failure, and Half-Open only by burning denial fuel.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    denials: u32,
    health: HealthTracker,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    #[must_use]
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            health: HealthTracker::new(cfg.health_alpha),
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            denials: 0,
        }
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The EWMA health score in `[0, 1]`.
    #[must_use]
    pub fn health(&self) -> f64 {
        self.health.score()
    }

    /// Asks to place one call. Denials while Open burn probe fuel; once
    /// the fuel is spent the breaker moves to Half-Open and the asking
    /// call is admitted as the probe.
    pub fn admit(&mut self) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Admit,
            BreakerState::HalfOpen => Admission::Deny,
            BreakerState::Open => {
                self.denials += 1;
                if self.denials >= self.cfg.probe_fuel.max(1) {
                    self.state = BreakerState::HalfOpen;
                    self.denials = 0;
                    Admission::Probe
                } else {
                    Admission::Deny
                }
            }
        }
    }

    /// Records the outcome of an admitted call (including probes). Any
    /// success closes the breaker; failures count toward the threshold
    /// while Closed and re-open a Half-Open breaker.
    pub fn record(&mut self, ok: bool) {
        self.health.record(ok);
        if ok {
            self.state = BreakerState::Closed;
            self.consecutive_failures = 0;
            self.denials = 0;
            return;
        }
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                let run_tripped = self.consecutive_failures >= self.cfg.failure_threshold.max(1);
                let floor_tripped = self.cfg.health_floor > 0.0
                    && self.health.samples() >= self.cfg.min_samples
                    && self.health.score() < self.cfg.health_floor;
                if run_tripped || floor_tripped {
                    self.state = BreakerState::Open;
                    self.consecutive_failures = 0;
                    self.denials = 0;
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.denials = 0;
            }
            // A straggler failure from a call admitted before the trip:
            // stay open, keep the accumulated denial fuel.
            BreakerState::Open => {}
        }
    }
}

/// Deterministic hedged-read policy for the replicated scatter path.
///
/// When `primary_fuel` is set, the *first* candidate of a shard read runs
/// under a fuel-capped budget; if it exhausts the cap, the read "hedges" —
/// counts `replica.hedges` and moves to the next replica uncapped, rather
/// than waiting the primary out. Fuel (uncached subformula evaluations),
/// not wall time, triggers the hedge, so hedging decisions replay
/// bit-identically. Probe admissions are never capped (see
/// [`Admission::Probe`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Fuel allowance of the primary attempt; `None` disables hedging.
    pub primary_fuel: Option<u64>,
}

impl HedgePolicy {
    /// No hedging: the primary runs to completion or error.
    #[must_use]
    pub fn disabled() -> HedgePolicy {
        HedgePolicy { primary_fuel: None }
    }

    /// Hedge after the primary burns `fuel` units.
    #[must_use]
    pub fn with_fuel(fuel: u64) -> HedgePolicy {
        HedgePolicy {
            primary_fuel: Some(fuel),
        }
    }
}

/// The candidate order a shard read walks over its replicas: a rotation of
/// `0..replicas` whose starting point is a seeded hash of `(epoch, shard)`.
///
/// Pure — no clocks, no breaker state — so the sequence of replicas a
/// request *considers* is identical across worker counts and runs; only
/// which candidates get skipped (open breakers) or fail over varies with
/// the fault world. The epoch in the key spreads load: successive requests
/// start at different replicas, as a load balancer would.
///
/// # Panics
///
/// Panics if `replicas` is zero.
#[must_use]
pub fn failover_order(epoch: u64, shard: u32, replicas: u32) -> Vec<u32> {
    assert!(replicas > 0, "replica count must be positive");
    // Same FNV-1a + splitmix64 finalizer family as `FaultPlan::decide` and
    // `shard_of`: cheap, stable across platforms, well mixed.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in epoch
        .to_le_bytes()
        .into_iter()
        .chain(shard.to_le_bytes())
        .chain(replicas.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let start = (z % u64::from(replicas)) as u32;
    (0..replicas).map(|i| (start + i) % replicas).collect()
}

/// The shared health grid of a replicated store: one breaker (wrapping its
/// health tracker) per `(shard, replica)`, behind per-cell mutexes so
/// concurrent shard reads update health without contending across cells.
///
/// Publishes into the registry:
/// * `replica.breaker.s{S}.r{R}.state` gauge — 0 closed / 1 open / 2 half-open
/// * `replica.health.s{S}.r{R}` gauge — EWMA health ×1000
/// * `replica.breaker.opened` counter — Closed/Half-Open → Open transitions
/// * `replica.breaker.skipped` counter — candidate replicas denied admission
/// * `replica.breaker.probes` counter — probe admissions granted
pub struct ReplicaSetHealth {
    cells: Vec<Vec<Mutex<CircuitBreaker>>>,
    state_gauges: Vec<Vec<Arc<Gauge>>>,
    health_gauges: Vec<Vec<Arc<Gauge>>>,
    opened: Arc<Counter>,
    skipped: Arc<Counter>,
    probes: Arc<Counter>,
}

impl ReplicaSetHealth {
    /// A fresh all-closed grid of `shards × replicas` breakers.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `replicas` is zero.
    #[must_use]
    pub fn new(
        shards: u32,
        replicas: u32,
        cfg: BreakerConfig,
        registry: &Registry,
    ) -> ReplicaSetHealth {
        assert!(shards > 0, "shard count must be positive");
        assert!(replicas > 0, "replica count must be positive");
        let cells = (0..shards)
            .map(|_| {
                (0..replicas)
                    .map(|_| Mutex::new(CircuitBreaker::new(cfg)))
                    .collect()
            })
            .collect();
        let state_gauges: Vec<Vec<Arc<Gauge>>> = (0..shards)
            .map(|s| {
                (0..replicas)
                    .map(|r| registry.gauge(&format!("replica.breaker.s{s}.r{r}.state")))
                    .collect()
            })
            .collect();
        let health_gauges: Vec<Vec<Arc<Gauge>>> = (0..shards)
            .map(|s| {
                (0..replicas)
                    .map(|r| {
                        let g = registry.gauge(&format!("replica.health.s{s}.r{r}"));
                        g.set(1000);
                        g
                    })
                    .collect()
            })
            .collect();
        ReplicaSetHealth {
            cells,
            state_gauges,
            health_gauges,
            opened: registry.counter("replica.breaker.opened"),
            skipped: registry.counter("replica.breaker.skipped"),
            probes: registry.counter("replica.breaker.probes"),
        }
    }

    /// Shards covered by the grid.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.cells.len() as u32
    }

    /// Replicas per shard.
    #[must_use]
    pub fn replicas(&self) -> u32 {
        self.cells.first().map_or(0, |row| row.len() as u32)
    }

    /// Asks the `(shard, replica)` breaker to place one call, counting
    /// denials and probes.
    pub fn admit(&self, shard: u32, replica: u32) -> Admission {
        let mut b = self.cell(shard, replica);
        let admission = b.admit();
        self.publish(shard, replica, &b);
        match admission {
            Admission::Deny => self.skipped.inc(),
            Admission::Probe => self.probes.inc(),
            Admission::Admit => {}
        }
        admission
    }

    /// Records the outcome of an admitted call on `(shard, replica)`.
    pub fn record(&self, shard: u32, replica: u32, ok: bool) {
        let mut b = self.cell(shard, replica);
        let before = b.state();
        b.record(ok);
        if b.state() == BreakerState::Open && before != BreakerState::Open {
            self.opened.inc();
        }
        self.publish(shard, replica, &b);
    }

    /// The `(shard, replica)` breaker state.
    #[must_use]
    pub fn state(&self, shard: u32, replica: u32) -> BreakerState {
        self.cell(shard, replica).state()
    }

    /// The `(shard, replica)` EWMA health score.
    #[must_use]
    pub fn health(&self, shard: u32, replica: u32) -> f64 {
        self.cell(shard, replica).health()
    }

    fn cell(&self, shard: u32, replica: u32) -> std::sync::MutexGuard<'_, CircuitBreaker> {
        self.cells[shard as usize][replica as usize]
            .lock()
            .expect("replica breaker lock")
    }

    fn publish(&self, shard: u32, replica: u32, b: &CircuitBreaker) {
        self.state_gauges[shard as usize][replica as usize].set(b.state().as_gauge());
        self.health_gauges[shard as usize][replica as usize]
            .set((b.health() * 1000.0).round() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_after_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(false);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Closed, "two failures stay closed");
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open, "third failure trips");
    }

    #[test]
    fn success_resets_the_failure_run() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        for _ in 0..10 {
            b.record(false);
            b.record(false);
            b.record(true);
        }
        assert_eq!(b.state(), BreakerState::Closed, "never three in a row");
    }

    #[test]
    fn open_breaker_denies_until_fuel_is_spent_then_probes() {
        let cfg = BreakerConfig {
            probe_fuel: 3,
            ..BreakerConfig::default()
        };
        let mut b = CircuitBreaker::new(cfg);
        for _ in 0..3 {
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(), Admission::Deny);
        assert_eq!(b.admit(), Admission::Deny);
        assert_eq!(
            b.admit(),
            Admission::Probe,
            "third denial becomes the probe"
        );
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(), Admission::Deny, "one probe in flight at a time");
    }

    #[test]
    fn probe_outcome_decides_recovery() {
        let cfg = BreakerConfig {
            probe_fuel: 1,
            ..BreakerConfig::default()
        };
        let mut b = CircuitBreaker::new(cfg);
        for _ in 0..3 {
            b.record(false);
        }
        assert_eq!(b.admit(), Admission::Probe);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        assert_eq!(b.admit(), Admission::Probe);
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed, "successful probe closes");
        assert_eq!(b.admit(), Admission::Admit);
    }

    #[test]
    fn health_floor_trips_a_frequently_failing_replica() {
        let cfg = BreakerConfig {
            failure_threshold: 100, // never trips by run length
            health_floor: 0.5,
            min_samples: 4,
            health_alpha: 0.5,
            ..BreakerConfig::default()
        };
        let mut b = CircuitBreaker::new(cfg);
        // Alternate: never two failures in a row, but health sinks.
        let mut state = BreakerState::Closed;
        for _ in 0..32 {
            b.record(false);
            state = b.state();
            if state == BreakerState::Open {
                break;
            }
            b.record(true);
        }
        assert_eq!(state, BreakerState::Open, "health floor must trip");
    }

    #[test]
    fn ewma_tracks_outcomes() {
        let mut h = HealthTracker::new(0.2);
        assert!((h.score() - 1.0).abs() < 1e-12);
        for _ in 0..64 {
            h.record(false);
        }
        assert!(h.score() < 0.01, "all-fail drives score to zero");
        for _ in 0..64 {
            h.record(true);
        }
        assert!(h.score() > 0.99, "all-ok drives score back up");
        assert_eq!(h.samples(), 128);
    }

    #[test]
    fn failover_order_is_a_pure_rotation() {
        for epoch in 0..64u64 {
            for shard in 0..4u32 {
                for replicas in 1..=5u32 {
                    let order = failover_order(epoch, shard, replicas);
                    assert_eq!(order.len(), replicas as usize);
                    let mut sorted = order.clone();
                    sorted.sort_unstable();
                    assert_eq!(
                        sorted,
                        (0..replicas).collect::<Vec<_>>(),
                        "a permutation of all replicas"
                    );
                    for w in order.windows(2) {
                        assert_eq!(w[1], (w[0] + 1) % replicas, "rotation, not shuffle");
                    }
                    assert_eq!(order, failover_order(epoch, shard, replicas), "pure");
                }
            }
        }
    }

    #[test]
    fn failover_order_spreads_primaries_across_epochs() {
        let mut seen = [false; 4];
        for epoch in 0..64u64 {
            seen[failover_order(epoch, 0, 4)[0] as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "every replica leads some epoch");
    }

    #[test]
    fn replica_set_health_publishes_gauges_and_counters() {
        let registry = Registry::new();
        let grid = ReplicaSetHealth::new(2, 2, BreakerConfig::default(), &registry);
        assert_eq!(grid.shards(), 2);
        assert_eq!(grid.replicas(), 2);
        assert_eq!(grid.admit(0, 1), Admission::Admit);
        for _ in 0..3 {
            grid.record(0, 1, false);
        }
        assert_eq!(grid.state(0, 1), BreakerState::Open);
        assert_eq!(grid.admit(0, 1), Admission::Deny);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("replica.breaker.s0.r1.state"), Some(1));
        assert_eq!(snap.gauge("replica.breaker.s0.r0.state"), Some(0));
        assert_eq!(snap.counter("replica.breaker.opened"), Some(1));
        assert_eq!(snap.counter("replica.breaker.skipped"), Some(1));
        assert!(grid.health(0, 1) < grid.health(0, 0));
        let h = snap.gauge("replica.health.s0.r1").unwrap();
        assert!(h < 1000, "health gauge reflects failures: {h}");
    }
}
