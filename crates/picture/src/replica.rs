//! Breaker-gated replica failover for the shard reads of a
//! [`crate::LiveVideoDb`].
//!
//! Every live video is served by `R` replica providers, and replica `r` of
//! a shard is replica `r` of each of its videos. A shard read walks the
//! replicas in the pure candidate order of
//! [`simvid_resilience::failover_order`], consulting each candidate's
//! circuit breaker ([`simvid_resilience::ReplicaSetHealth`]) before calling
//! it, failing over on degradable errors, and optionally *hedging*: when a
//! [`HedgePolicy`] caps the primary's fuel, a primary that burns the cap
//! is abandoned for the next replica instead of being waited out.
//!
//! Replicas are bit-identical copies, so *which* live replica serves a
//! shard never changes the answer — a chaos run that kills one replica of
//! a shard produces the exact result bytes of the fault-free run, with
//! only the `replica.failover` counter showing the difference. Only when
//! **every** replica of a shard is exhausted does the read give up, with
//! [`EngineError::ReplicasExhausted`] — degradable, so the gather degrades
//! the corpus answer with the same sound `missing_bound` a single failed
//! unreplicated shard produces.

use crate::shard::ShardId;
use simvid_core::{Budget, EngineError, ShardStream};
use simvid_obs::{Counter, Registry};
use simvid_resilience::{Admission, BreakerConfig, HedgePolicy, ReplicaSetHealth};
use std::fmt;
use std::sync::Arc;

/// Stable identifier of one replica of the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u32);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The replica providers a [`crate::LiveVideoDb::with_read_faults`] plan
/// wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Every replica of one shard, or only the given replica of it.
    Shard(ShardId, Option<ReplicaId>),
    /// One replica on every shard.
    Replica(ReplicaId),
}

impl FaultTarget {
    /// Whether replica `replica` of `shard` is a target.
    pub(crate) fn covers(self, shard: ShardId, replica: u32) -> bool {
        match self {
            FaultTarget::Shard(s, r) => s == shard && r.is_none_or(|r| r.0 == replica),
            FaultTarget::Replica(r) => r.0 == replica,
        }
    }
}

/// The failover state of a corpus: the breaker grid (one breaker per
/// `(shard, replica)`, kept by the db so it survives epochs), the hedge
/// policy, and the walk's counters:
///
/// * `replica.attempts` — shard-read attempts actually placed on a replica
/// * `replica.failover` — reads served by a candidate other than the first
/// * `replica.hedges` — primaries abandoned after burning hedge fuel
/// * `replica.exhausted` — shard reads that ran out of replicas
///
/// plus the `replica.breaker.*` / `replica.health.*` metrics of
/// [`ReplicaSetHealth`].
pub(crate) struct Failover {
    health: ReplicaSetHealth,
    hedge: HedgePolicy,
    attempts: Arc<Counter>,
    failover: Arc<Counter>,
    hedges: Arc<Counter>,
    exhausted: Arc<Counter>,
}

impl Failover {
    /// All breakers closed, at [`BreakerConfig::default`].
    pub(crate) fn new(
        shards: u32,
        replicas: u32,
        hedge: HedgePolicy,
        registry: &Registry,
    ) -> Failover {
        Failover {
            health: ReplicaSetHealth::new(shards, replicas, BreakerConfig::default(), registry),
            hedge,
            attempts: registry.counter("replica.attempts"),
            failover: registry.counter("replica.failover"),
            hedges: registry.counter("replica.hedges"),
            exhausted: registry.counter("replica.exhausted"),
        }
    }

    /// Reads one shard: walks the candidates of `order`, skipping
    /// replicas whose breaker denies admission, failing over on degradable
    /// errors, and hedging off a fuel-capped primary when a
    /// [`HedgePolicy`] is set. `eval(r, budget)` evaluates the shard on
    /// replica `r`. Probe admissions run uncapped so the breaker always
    /// learns a definitive outcome.
    ///
    /// Returns the first live replica's stream — bit-identical to any
    /// other replica's, since replicas are copies. A non-degradable error
    /// aborts at once, since it is replica-independent (the request itself
    /// is malformed). If the capped primary burns its fuel and every other
    /// replica fails, the primary is retried uncapped before giving up —
    /// slow is better than exhausted.
    ///
    /// # Errors
    ///
    /// The first non-degradable error, or [`EngineError::ReplicasExhausted`]
    /// (degradable) when every candidate failed or was denied.
    pub(crate) fn read(
        &self,
        shard: ShardId,
        order: &[u32],
        eval: impl Fn(u32, &Budget) -> Result<ShardStream, EngineError>,
    ) -> Result<ShardStream, EngineError> {
        let mut last_err: Option<EngineError> = None;
        let mut hedged_primary: Option<u32> = None;
        for (idx, &r) in order.iter().enumerate() {
            let admission = self.health.admit(shard.0, r);
            if admission == Admission::Deny {
                continue;
            }
            // Only the leading candidate on a plain admission is
            // fuel-capped: probes must reach a definitive outcome, and
            // failover attempts are already the fallback.
            let cap = match (idx, admission, self.hedge.primary_fuel) {
                (0, Admission::Admit, Some(fuel)) => Some(fuel),
                _ => None,
            };
            match self.attempt(shard, r, cap, &eval) {
                Ok(stream) => {
                    if idx > 0 {
                        self.failover.inc();
                    }
                    return Ok(stream);
                }
                Err(EngineError::BudgetExhausted) if cap.is_some() => {
                    // The primary is slow, not broken: hedge to the next
                    // replica without dinging its health.
                    self.hedges.inc();
                    hedged_primary = Some(r);
                }
                Err(e) if e.is_degradable() => {
                    self.health.record(shard.0, r, false);
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(r) = hedged_primary {
            // Every other replica is down; the slow primary is the best
            // copy left. Retry it uncapped.
            match self.attempt(shard, r, None, &eval) {
                Ok(stream) => return Ok(stream),
                Err(e) if e.is_degradable() => {
                    self.health.record(shard.0, r, false);
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        self.exhausted.inc();
        let why = last_err.map_or_else(
            || "every candidate denied by its circuit breaker".to_owned(),
            |e| e.to_string(),
        );
        Err(EngineError::ReplicasExhausted(format!("{shard}: {why}")))
    }

    /// One admitted attempt on one replica: budgeted when hedging caps the
    /// primary's fuel, unlimited otherwise. Success is recorded into the
    /// health grid here; failures are classified by the caller (a burnt
    /// hedge cap must not count against health).
    fn attempt(
        &self,
        shard: ShardId,
        r: u32,
        cap: Option<u64>,
        eval: impl Fn(u32, &Budget) -> Result<ShardStream, EngineError>,
    ) -> Result<ShardStream, EngineError> {
        self.attempts.inc();
        let budget = match cap {
            Some(fuel) => Budget::unlimited().with_fuel(fuel),
            None => Budget::unlimited(),
        };
        let out = eval(r, &budget);
        if out.is_ok() {
            self.health.record(shard.0, r, true);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LiveConfig, LiveVideoDb, ShardedAnswer};
    use simvid_htl::{parse, Formula};
    use simvid_model::{VideoBuilder, VideoStore, VideoTree};
    use simvid_resilience::{FaultPlan, RetryPolicy};
    use std::cell::Cell;

    fn video(title: &str, gun_shots: &[bool]) -> VideoTree {
        let mut b = VideoBuilder::new(title);
        b.set_level_names(["video", "shot"]);
        for (i, &has) in gun_shots.iter().enumerate() {
            b.child(format!("shot{i}"));
            if has {
                let o = b.object(1, "person", None);
                b.relationship("holds_gun", [o]);
            } else {
                b.object(2, "horse", None);
            }
            b.up();
        }
        b.finish().unwrap()
    }

    fn store() -> VideoStore {
        let mut store = VideoStore::new();
        store.add(video("a", &[false, true, false, true]));
        store.add(video("b", &[true, true]));
        store.add(video("c", &[false, false, true]));
        store.add(video("d", &[true]));
        store.add(video("e", &[false, true, true]));
        store.add(video("f", &[true, false, true]));
        store
    }

    fn db(shards: u32, replicas: u32) -> LiveVideoDb {
        LiveVideoDb::new(
            store(),
            LiveConfig {
                shards,
                replicas,
                ..LiveConfig::default()
            },
            Arc::new(Registry::new()),
        )
    }

    fn query() -> Formula {
        parse("exists x . person(x) and holds_gun(x)").unwrap()
    }

    /// Distinct closed queries: on a frozen corpus the rotation is keyed
    /// by the query, so these spread the leading replica.
    fn queries() -> Vec<Formula> {
        [
            "exists x . person(x) and holds_gun(x)",
            "exists x . holds_gun(x)",
            "exists x . person(x)",
            "exists x . horse(x)",
            "eventually (exists x . holds_gun(x))",
            "next (exists x . person(x))",
            "exists x . person(x) and eventually (exists y . horse(y))",
            "(exists x . horse(x)) until (exists y . holds_gun(y))",
        ]
        .iter()
        .map(|q| parse(q).unwrap())
        .collect()
    }

    fn always_fail() -> FaultPlan {
        FaultPlan {
            seed: 7,
            error_rate: 1.0,
            ..FaultPlan::quiet(7)
        }
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn fault_free_replicated_matches_single_replica() {
        let single = db(3, 1).pin();
        let replicated = db(3, 2);
        for q in queries() {
            let want = single.top_k(&q, 1, 5).unwrap();
            let got = replicated.pin().top_k(&q, 1, 5).unwrap();
            assert!(got.is_complete());
            assert_eq!(got.ranked(), want.ranked(), "{q}");
        }
        let snap = replicated.registry().snapshot();
        assert_eq!(
            snap.counter("replica.attempts"),
            Some(3 * queries().len() as u64),
            "fault-free reads stop at the primary"
        );
        assert_eq!(snap.counter("replica.failover"), Some(0));
        assert_eq!(snap.counter("replica.exhausted"), Some(0));
    }

    #[test]
    fn dead_replica_fails_over_without_degrading() {
        let truth = db(2, 1).pin();
        let db = db(2, 2).with_read_faults(
            always_fail(),
            fast_retry(),
            FaultTarget::Replica(ReplicaId(0)),
        );
        for q in queries() {
            let answer = db.pin().top_k(&q, 1, 5).unwrap();
            assert!(answer.is_complete(), "one live replica per shard suffices");
            assert_eq!(answer.ranked(), truth.top_k(&q, 1, 5).unwrap().ranked());
        }
        let snap = db.registry().snapshot();
        assert!(snap.counter("replica.failover").unwrap() > 0);
        assert_eq!(snap.counter("replica.exhausted"), Some(0));
        assert_eq!(snap.counter("shard.outcome.failed"), Some(0));
    }

    /// On a frozen corpus every read of a shard sees the same epoch, so
    /// the rotation must come from the query: with replica 0 dead on every
    /// shard, some reads fail over (replica 0 led them) and some do not
    /// (another replica led), so more than one replica leads.
    #[test]
    fn failover_epoch_rotates_the_leading_replica() {
        let db = db(2, 2).with_read_faults(
            always_fail(),
            fast_retry(),
            FaultTarget::Replica(ReplicaId(0)),
        );
        let pin = db.pin();
        let reads = queries().len() as u64 * u64::from(pin.shard_count());
        for q in queries() {
            assert!(pin.top_k(&q, 1, 5).unwrap().is_complete());
        }
        let failover = db
            .registry()
            .snapshot()
            .counter("replica.failover")
            .unwrap();
        assert!(
            failover > 0 && failover < reads,
            "the rotation must spread primaries over replicas: {failover} of {reads} reads led by replica 0"
        );
    }

    #[test]
    fn whole_shard_kill_degrades_with_a_sound_bound() {
        let q = query();
        let plain = db(2, 2).pin();
        let victim = (0..plain.shard_count())
            .map(ShardId)
            .find(|&s| !plain.videos_in(s).is_empty())
            .unwrap();
        assert!(
            (0..plain.shard_count())
                .map(ShardId)
                .any(|s| s != victim && !plain.videos_in(s).is_empty()),
            "a survivor shard must hold videos for the bound to be finite"
        );
        let db = db(2, 2).with_read_faults(
            always_fail(),
            fast_retry(),
            FaultTarget::Shard(victim, None),
        );
        match db.pin().top_k(&q, 1, 5).unwrap() {
            ShardedAnswer::Degraded(d) => {
                assert_eq!(d.failed.len(), 1);
                assert_eq!(d.failed[0].0, victim);
                assert!(d.failed[0].1.contains("every replica"), "{}", d.failed[0].1);
                assert!(d.missing_bound.is_finite());
            }
            ShardedAnswer::Complete(_) => panic!("a fully-killed shard must degrade"),
        }
        let snap = db.registry().snapshot();
        assert_eq!(
            snap.counter("replica.attempts"),
            Some(3),
            "both victim replicas consulted, the survivor's primary once"
        );
        assert_eq!(snap.counter("replica.exhausted"), Some(1));
    }

    #[test]
    fn hedged_primary_fails_over_then_retries_uncapped_as_last_resort() {
        let q = query();
        let single = db(1, 1).pin().top_k(&q, 1, 5).unwrap();
        // Fuel 0 exhausts immediately: the primary always hedges, the
        // secondary serves, answers stay exact.
        let hedged = |replicas| {
            LiveVideoDb::new(
                store(),
                LiveConfig {
                    replicas,
                    hedge: HedgePolicy::with_fuel(0),
                    ..LiveConfig::default()
                },
                Arc::new(Registry::new()),
            )
        };
        let db = hedged(2);
        let answer = db.pin().top_k(&q, 1, 5).unwrap();
        assert!(answer.is_complete());
        assert_eq!(answer.ranked(), single.ranked());
        let snap = db.registry().snapshot();
        assert!(snap.counter("replica.hedges").unwrap() > 0);
        assert!(snap.counter("replica.failover").unwrap() > 0);
        // With no sibling to hedge to, the primary's uncapped retry serves.
        let db = hedged(1);
        let answer = db.pin().top_k(&q, 1, 5).unwrap();
        assert!(answer.is_complete());
        assert_eq!(answer.ranked(), single.ranked());
        let snap = db.registry().snapshot();
        assert_eq!(snap.counter("replica.hedges"), Some(1));
        assert_eq!(snap.counter("replica.attempts"), Some(2));
        assert_eq!(snap.counter("replica.exhausted"), Some(0));
    }

    #[test]
    fn non_degradable_errors_abort_instead_of_failing_over() {
        let registry = Registry::new();
        let failover = Failover::new(1, 3, HedgePolicy::disabled(), &registry);
        let calls = Cell::new(0);
        let out = failover.read(ShardId(0), &[0, 1, 2], |_, _| {
            calls.set(calls.get() + 1);
            Err(EngineError::UnsupportedFormula("malformed".into()))
        });
        assert!(matches!(out, Err(EngineError::UnsupportedFormula(_))));
        assert_eq!(calls.get(), 1, "a malformed request is not retried");
        assert_eq!(registry.snapshot().counter("replica.exhausted"), Some(0));
        let hopeless = parse("not eventually (exists x . holds_gun(x))").unwrap();
        assert!(db(2, 3).pin().top_k(&hopeless, 1, 5).is_err());
    }
}
