//! Replicated serving suite: circuit-breaker transition lawfulness, the
//! failover rotation's algebra, schedule-independence of answers *and*
//! failover counters under dead replicas, and the degradation ladder's
//! bottom rung — a whole dead shard must collapse to exactly the
//! single-replica corpus's sound degraded answer.
//!
//! The breaker is deterministic (fuel-based probing, no wall clocks), so
//! the property tests here are full model checks, not statistical
//! sampling: every op sequence must follow the lawful transition relation
//!
//! ```text
//! Closed   --record(fail) at threshold-->  Open
//! Open     --probe fuel burned---------->  HalfOpen (admit returns Probe)
//! HalfOpen --record(fail)--------------->  Open
//! any      --record(ok)----------------->  Closed
//! ```
//!
//! and nothing else. The fault worlds run through the corpus matrix of
//! `simvid_tests::corpus`, shared with the `sharded` and `churn` suites.

use proptest::prelude::*;
use simvid_obs::Registry;
use simvid_picture::{FaultTarget, LiveVideoDb, ReplicaId, ShardId, ShardedAnswer};
use simvid_resilience::{
    failover_order, Admission, BreakerConfig, BreakerState, CircuitBreaker, FaultPlan, RetryPolicy,
};
use simvid_tests::corpus::{check_matrix, World};
use simvid_tests::Digest;
use simvid_workload::serve::ExecutorConfig;
use simvid_workload::shard::{build_corpus, run_corpus, CorpusConfig, CorpusRun, CorpusWorkload};
use std::sync::Arc;
use std::time::Duration;

fn config() -> CorpusConfig {
    CorpusConfig {
        videos: 5,
        shots: 12,
        requests: 16,
        ..CorpusConfig::default()
    }
}

fn always_fail() -> FaultPlan {
    FaultPlan {
        seed: 0xDEAD_BEEF,
        error_rate: 1.0,
        panic_rate: 0.0,
        latency_rate: 0.0,
        latency: Duration::ZERO,
    }
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    }
}

/// The frozen corpus workload at `replicas` replicas per video, with
/// `target` failing every call, run inline.
fn chaos_run(
    w: &CorpusWorkload,
    replicas: u32,
    target: Option<FaultTarget>,
) -> (CorpusRun, LiveVideoDb) {
    let cfg = CorpusConfig {
        replicas,
        ..config()
    };
    let db = LiveVideoDb::new(
        w.store.clone(),
        cfg.live_config(),
        Arc::new(Registry::new()),
    );
    let db = match target {
        Some(t) => db.with_read_faults(always_fail(), fast_retry(), t),
        None => db,
    };
    (run_corpus(w, &db, &ExecutorConfig::with_workers(0)), db)
}

/// [`Digest`] of every answer of a run.
fn answers_digest(answers: &[ShardedAnswer]) -> String {
    answers
        .iter()
        .fold(Digest::new(answers.len()), Digest::answer)
        .hex()
}

/// Whether some degraded answer bounds its missing shard with a finite
/// score (it had surviving hits to bound against).
fn carries_finite_bound(answers: &[ShardedAnswer]) -> bool {
    answers
        .iter()
        .any(|a| matches!(a, ShardedAnswer::Degraded(d) if d.missing_bound.is_finite()))
}

/// One breaker interaction, drawn by proptest.
#[derive(Debug, Clone, Copy)]
enum Op {
    Admit,
    RecordOk,
    RecordFail,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::Admit), Just(Op::RecordOk), Just(Op::RecordFail),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Transition lawfulness, model-checked: with the health floor
    /// disabled (its EWMA trip is exercised separately in the resilience
    /// crate's unit tests) the breaker is a small deterministic automaton,
    /// and every op sequence must track this reference model exactly —
    /// including the probe-fuel counter that meters Open → HalfOpen.
    #[test]
    fn breaker_transitions_are_lawful(
        ops in prop::collection::vec(op_strategy(), 0..80),
        failure_threshold in 1u32..5,
        probe_fuel in 1u32..10,
    ) {
        let cfg = BreakerConfig {
            failure_threshold,
            probe_fuel,
            health_floor: 0.0,
            ..BreakerConfig::default()
        };
        let mut breaker = CircuitBreaker::new(cfg);
        let mut state = BreakerState::Closed;
        let mut consecutive = 0u32;
        let mut denials = 0u32;
        prop_assert_eq!(breaker.state(), state);
        for op in ops {
            match op {
                Op::Admit => {
                    let admission = breaker.admit();
                    let expected = match state {
                        BreakerState::Closed => Admission::Admit,
                        BreakerState::HalfOpen => Admission::Deny,
                        BreakerState::Open => {
                            denials += 1;
                            if denials >= probe_fuel {
                                state = BreakerState::HalfOpen;
                                Admission::Probe
                            } else {
                                Admission::Deny
                            }
                        }
                    };
                    prop_assert_eq!(admission, expected, "admit in {:?}", state);
                }
                Op::RecordOk => {
                    breaker.record(true);
                    state = BreakerState::Closed;
                    consecutive = 0;
                    denials = 0;
                }
                Op::RecordFail => {
                    breaker.record(false);
                    match state {
                        BreakerState::Closed => {
                            consecutive += 1;
                            if consecutive >= failure_threshold {
                                state = BreakerState::Open;
                                denials = 0;
                            }
                        }
                        BreakerState::HalfOpen => {
                            state = BreakerState::Open;
                            denials = 0;
                        }
                        // A straggler failure while already Open must not
                        // refund the probe fuel.
                        BreakerState::Open => {}
                    }
                }
            }
            prop_assert_eq!(breaker.state(), state);
            prop_assert_eq!(breaker.state().as_gauge(), match state {
                BreakerState::Closed => 0,
                BreakerState::Open => 1,
                BreakerState::HalfOpen => 2,
            });
        }
    }

    /// The failover order is always a pure rotation of `0..replicas`: a
    /// permutation with consecutive (mod `replicas`) entries, fully
    /// determined by `(epoch, shard, replicas)`.
    #[test]
    fn failover_order_is_a_rotation(
        epoch in any::<u64>(),
        shard in 0u32..64,
        replicas in 1u32..16,
    ) {
        let order = failover_order(epoch, shard, replicas);
        prop_assert_eq!(order.len(), replicas as usize);
        for (i, &r) in order.iter().enumerate() {
            prop_assert_eq!(r, (order[0] + i as u32) % replicas);
        }
        let again = failover_order(epoch, shard, replicas);
        prop_assert_eq!(order, again, "the rotation is a pure function");
    }
}

/// With replica 0 of shard 0 dead, answers are bit-identical to the
/// fault-free oracle and the `replica.failover` / `replica.exhausted`
/// counters are equal across 0/1/2/4/8 workers, at every shard count and
/// epoch: the fault world is pure per `(shard, replica)` and the rotation
/// is pure per `(epoch, query, shard)`, so which worker interleaving tries
/// (or is breaker-denied at) the dead replica cannot change who serves.
#[test]
fn dead_replica_run_is_bit_identical_across_worker_counts() {
    let totals = check_matrix(World::DeadReplica, 1..=4, &[2], &[0, 1, 2, 4, 8]);
    assert!(totals.failover > 0, "the dead replica led some reads");
    assert_eq!(totals.exhausted, 0, "failover absorbs the kill");
}

/// The acceptance bit-identity on the frozen corpus workload: a schedule
/// with one replica of the victim shard always failing ranks exactly as
/// the fault-free corpus — zero degraded answers, failover only.
#[test]
fn single_replica_kill_reproduces_the_fault_free_answers() {
    let w = build_corpus(&config());
    let (reference, _) = chaos_run(&w, 1, None);
    let target = FaultTarget::Shard(ShardId(0), Some(ReplicaId(0)));
    let (run, db) = chaos_run(&w, 2, Some(target));
    assert_eq!(run.degraded(), 0, "one dead replica must not degrade");
    assert!(
        db.registry()
            .snapshot()
            .counter("replica.failover")
            .unwrap()
            > 0,
        "the rotation made the corpse lead"
    );
    assert_eq!(run.answers, reference.answers);
}

/// The degradation ladder's bottom rung: with *every* replica of shard 0
/// dead, each request degrades exactly as the single-replica corpus does
/// under the same fault world — the oracle over the surviving videos, the
/// same `missing_bound` bits, the same failed shard — at every shard
/// count, worker count and epoch.
#[test]
fn whole_shard_kill_matches_the_unreplicated_degraded_answers() {
    let totals = check_matrix(World::ShardKill, 1..=4, &[2], &[0, 1, 2, 4, 8]);
    assert!(totals.exhausted > 0, "the victim shard was read and lost");
}

/// At one replica a dead shard trips its breaker: after the first failed
/// reads the breaker opens and later reads skip the shard without calling
/// its providers. The answers stay exactly those the corpus gave before
/// the breaker reached one-replica shards (the digest was taken from the
/// unreplicated store of that version on this schedule).
///
/// The victim's calls are retried and then given up, the surviving shard
/// still answers (`shard.outcome.ok`), and some answer carries a finite
/// missing-score bound.
#[test]
fn dead_shard_opens_the_breaker_at_one_replica() {
    let w = build_corpus(&config());
    let (run, db) = chaos_run(&w, 1, Some(FaultTarget::Shard(ShardId(0), None)));
    assert_eq!(run.degraded(), w.schedule.len());
    let snap = db.registry().snapshot();
    assert!(snap.counter("replica.breaker.skipped").unwrap() > 0);
    assert!(snap.counter("replica.breaker.opened").unwrap() > 0);
    assert!(snap.counter("resilience.retries").unwrap() >= 1);
    assert!(snap.counter("resilience.giveups").unwrap() >= 1);
    assert!(snap.counter("shard.outcome.failed").unwrap() >= 1);
    assert!(snap.counter("shard.outcome.ok").unwrap() >= 1);
    assert!(carries_finite_bound(&run.answers));
    assert_eq!(answers_digest(&run.answers), "23d1b674402d8c57");
}

/// The same dead shard at two replicas on the frozen corpus workload:
/// every request degrades, and the answers — rankings, `missing_bound`
/// bits and failed shard — are exactly the one-replica answers above.
#[test]
fn dead_shard_at_two_replicas_degrades_like_one_replica() {
    let w = build_corpus(&config());
    let (run, _) = chaos_run(&w, 2, Some(FaultTarget::Shard(ShardId(0), None)));
    assert_eq!(run.complete(), 0);
    assert_eq!(run.degraded(), w.schedule.len());
    assert!(carries_finite_bound(&run.answers));
    assert_eq!(answers_digest(&run.answers), "23d1b674402d8c57");
}

/// Hedging is deterministic and answer-preserving: with zero primary fuel
/// every leading read exhausts its budget and hedges — to the next
/// replica, or at one replica to its own uncapped retry — the answers stay
/// bit-identical to the oracle, and the hedge and failover counts are
/// equal at every worker count (no wall clocks anywhere in the policy).
#[test]
fn zero_fuel_hedging_is_deterministic_and_answer_preserving() {
    let totals = check_matrix(World::ZeroFuelHedge, 1..=4, &[1, 2], &[0, 1, 2, 4, 8]);
    assert!(totals.hedges > 0, "zero fuel must force hedged reads");
    assert!(
        totals.failover > 0,
        "a hedged primary fails over to its sibling"
    );
    assert_eq!(totals.exhausted, 0);
}
