//! Chaos determinism suite: the resilient serving path under injected
//! faults.
//!
//! The fault schedule is content-addressed (a pure function of plan seed,
//! request epoch, call key and attempt), so a chaos run is a *replayable
//! world*: the same seed and plan must produce identical per-request
//! outcomes, bounds and reasons — run twice, and with the engine's memo
//! on or off. On top of determinism, the suite checks the
//! degradation contract: requests whose epoch saw no fault are
//! bit-identical to a fault-free run, and degraded answers bracket the
//! truth (listed values are lower bounds, interval bounds are upper
//! bounds, for every position of the sequence).

use simvid_core::{AtomicProvider, Engine, EngineConfig, Interval};
use simvid_htl::parse;
use simvid_model::{CorpusOp, VideoBuilder, VideoStore, VideoTree};
use simvid_obs::Registry;
use simvid_picture::{
    ApplyError, CacheConfig, LiveConfig, LiveVideoDb, PictureSystem, ScoringConfig,
};
use simvid_resilience::{FaultPlan, FaultyProvider, RetryPolicy};
use simvid_workload::serve::{
    self, ExecutorConfig, RequestOutcome, ScheduleRun, ServeConfig, ServePolicy, ServeWorkload,
};
use std::sync::Arc;

fn small_cfg() -> ServeConfig {
    ServeConfig {
        shots: 24,
        requests: 40,
        ..ServeConfig::default()
    }
}

/// Hot enough that the 40-request schedule reliably exercises retries,
/// give-ups (degradation) and panics (failure). No latency, no timeouts:
/// the suite must not depend on wall clocks.
fn hot_plan() -> FaultPlan {
    FaultPlan {
        error_rate: 0.35,
        panic_rate: 0.05,
        ..FaultPlan::chaos_default()
    }
}

/// Two attempts per call keeps give-ups frequent; zero backoff keeps the
/// suite fast and deterministic.
fn aggressive_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    }
}

/// Serves `w` inline through `provider` with `cfg` and `policy`.
fn serve_inline<P: AtomicProvider>(
    w: &ServeWorkload,
    provider: &P,
    cfg: EngineConfig,
    policy: &ServePolicy<'_>,
) -> ScheduleRun {
    let registry = Arc::new(Registry::new());
    let exec = ExecutorConfig::with_workers(0);
    serve::run_schedule(w, provider, cfg, &registry, &exec, policy)
}

/// Replays the schedule under `plan`; returns the run plus, per request,
/// whether its epoch ran pristine (zero injected faults).
fn chaos_run(w: &ServeWorkload, plan: FaultPlan, cfg: EngineConfig) -> (ScheduleRun, Vec<bool>) {
    let sys = PictureSystem::with_cache(&w.tree, ScoringConfig::default(), CacheConfig::default());
    let faulty =
        FaultyProvider::with_registry(sys, plan, aggressive_policy(), &Arc::new(Registry::new()));
    let pin = |r: usize| faulty.set_thread_epoch(r as u64 + 1);
    let policy = ServePolicy {
        before_request: Some(&pin),
        ..ServePolicy::default()
    };
    let run = serve_inline(w, &faulty, cfg, &policy);
    // The inline run pinned the calling thread itself.
    faulty.clear_thread_epoch();
    let pristine = (0..w.schedule.len())
        .map(|r| faulty.faults_in_epoch(r as u64 + 1) == 0)
        .collect();
    (run, pristine)
}

fn bound_at(bounds: &[(Interval, f64)], pos: u32) -> Option<f64> {
    bounds
        .iter()
        .find(|(iv, _)| iv.beg <= pos && pos <= iv.end)
        .map(|(_, b)| *b)
}

#[test]
fn same_seed_and_plan_replays_identically() {
    let w = serve::build(&small_cfg());
    let (a, pa) = chaos_run(&w, hot_plan(), EngineConfig::default());
    let (b, pb) = chaos_run(&w, hot_plan(), EngineConfig::default());
    assert_eq!(a.reports, b.reports, "chaos runs must be replayable");
    assert_eq!(pa, pb, "pristine-epoch sets must be replayable");
    assert!(
        a.reports.iter().any(|r| r.outcome != RequestOutcome::Ok),
        "the hot plan must actually disturb the schedule"
    );
    // A different seed is a different world.
    let other = FaultPlan {
        seed: hot_plan().seed ^ 0x5eed,
        ..hot_plan()
    };
    let (c, _) = chaos_run(&w, other, EngineConfig::default());
    assert_ne!(a.reports, c.reports, "the seed must matter");
}

#[test]
fn memoized_and_unmemoized_engines_agree_under_chaos() {
    // Without the memo a request repeats provider calls; content-addressed
    // faults make every repeat replay the first call's outcome.
    let w = serve::build(&small_cfg());
    let (memo, pmemo) = chaos_run(&w, hot_plan(), EngineConfig::default());
    let plain = EngineConfig {
        memoize: false,
        ..EngineConfig::default()
    };
    let (rerun, prerun) = chaos_run(&w, hot_plan(), plain);
    assert_eq!(pmemo, prerun, "fault injection must not depend on the memo");
    for (r, (a, b)) in memo.reports.iter().zip(&rerun.reports).enumerate() {
        assert_eq!(a.outcome, b.outcome, "request {r}: outcomes diverged");
        assert_eq!(a.ranked, b.ranked, "request {r}: rankings diverged");
        assert_eq!(
            a.upper_bounds, b.upper_bounds,
            "request {r}: degraded bounds diverged"
        );
        assert_eq!(a.reason, b.reason, "request {r}: reasons diverged");
    }
}

#[test]
fn fault_free_requests_are_bit_identical_and_degraded_answers_bracket_truth() {
    let cfg = small_cfg();
    let w = serve::build(&cfg);
    let n = w.tree.level_sequence(w.depth()).len() as u32;
    // Ground truth from an unwrapped system: the full similarity list per
    // pool query (for position-wise bracketing) and the plain top-k run
    // (for bit-identity of pristine requests).
    let truth_sys = PictureSystem::new(&w.tree, ScoringConfig::default());
    let truth_engine = Engine::new(&truth_sys, &w.tree);
    let truth_lists: Vec<_> = w
        .queries
        .iter()
        .map(|q| truth_engine.eval_closed_at_level(q, w.depth()).unwrap())
        .collect();
    let truth_run = serve_inline(
        &w,
        &truth_sys,
        EngineConfig::default(),
        &ServePolicy::default(),
    );
    let (run, pristine) = chaos_run(&w, hot_plan(), EngineConfig::default());
    let mut checked_degraded = 0;
    for (r, report) in run.reports.iter().enumerate() {
        if pristine[r] {
            assert_eq!(
                report.outcome,
                RequestOutcome::Ok,
                "request {r} ran pristine but did not resolve Ok"
            );
            assert_eq!(
                report.ranked, truth_run.reports[r].ranked,
                "request {r} ran pristine but diverged from the fault-free run"
            );
        }
        if report.outcome == RequestOutcome::Degraded {
            checked_degraded += 1;
            let truth = &truth_lists[report.query];
            for pos in 1..=n {
                let bound = bound_at(&report.upper_bounds, pos)
                    .unwrap_or_else(|| panic!("request {r}: no upper bound covers position {pos}"));
                assert!(
                    bound >= truth.value_at(pos) - 1e-6,
                    "request {r}, position {pos}: bound {bound} below truth {}",
                    truth.value_at(pos)
                );
            }
            for seg in &report.ranked {
                assert!(
                    seg.sim.act <= truth.value_at(seg.pos) + 1e-6,
                    "request {r}, position {}: listed {} above truth {}",
                    seg.pos,
                    seg.sim.act,
                    truth.value_at(seg.pos)
                );
            }
        }
    }
    assert!(
        checked_degraded > 0,
        "the hot plan must produce at least one degraded answer to check"
    );
}

/// A tiny matching video for the apply-chaos corpus.
fn armed_video(title: &str, shots: usize) -> VideoTree {
    let mut b = VideoBuilder::new(title);
    b.set_level_names(["video", "shot"]);
    for i in 0..shots {
        b.child(format!("shot{i}"));
        let o = b.object(1, "person", None);
        if i % 2 == 0 {
            b.relationship("holds_gun", [o]);
        }
        b.up();
    }
    b.finish().unwrap()
}

/// Ingestion under chaos: a fault injected mid-apply aborts the whole
/// batch before anything is published — the store stays at its pre-batch
/// epoch and keeps answering bit-identically to a twin store that never
/// saw the faulted batch (all-or-nothing, verified end to end).
#[test]
fn faulted_applies_are_all_or_nothing_and_leave_the_store_untouched() {
    let q = parse("exists x . person(x) and holds_gun(x)").unwrap();
    let mut store = VideoStore::new();
    for i in 0..3 {
        store.add(armed_video(&format!("v{i}"), 3 + i));
    }
    let cfg = LiveConfig {
        shards: 2,
        replicas: 1,
        scoring: ScoringConfig::default(),
        engine: EngineConfig::default(),
        cache: CacheConfig::default(),
        ..LiveConfig::default()
    };
    // No latency injection: the suite must not depend on wall clocks.
    let plan = FaultPlan {
        error_rate: 0.3,
        panic_rate: 0.2,
        latency_rate: 0.0,
        ..FaultPlan::chaos_default()
    };
    let db = LiveVideoDb::new(store.clone(), cfg.clone(), Arc::new(Registry::new()))
        .with_apply_faults(plan);
    let twin = LiveVideoDb::new(store, cfg, Arc::new(Registry::new()));
    let mut fired = false;
    for i in 0..64u32 {
        let batch = [CorpusOp::Ingest(armed_video(&format!("i{i}"), 4))];
        match db.apply(&batch) {
            Ok(applied) => {
                let mirrored = twin.apply(&batch).expect("twin applies the same batch");
                assert_eq!(applied.epoch, mirrored.epoch, "stores advance in lockstep");
            }
            Err(err @ ApplyError::Injected { .. }) => {
                fired = true;
                // All-or-nothing: the faulted batch left no trace — same
                // epoch, same membership, same answers as the twin that
                // never saw it.
                assert_eq!(db.epoch(), twin.epoch(), "faulted apply bumped the epoch");
                let (pin, twin_pin) = (db.pin(), twin.pin());
                assert_eq!(pin.video_count(), twin_pin.video_count());
                let got = pin.top_k(&q, 1, 10).unwrap();
                let want = twin_pin.top_k(&q, 1, 10).unwrap();
                assert!(got.is_complete() && want.is_complete());
                assert_eq!(
                    got.ranked(),
                    want.ranked(),
                    "a faulted apply must not change any answer"
                );
                // The world is replayable: retrying the identical batch at
                // the same epoch hits the identical content-addressed fault.
                assert_eq!(
                    db.apply(&batch).unwrap_err(),
                    err,
                    "the fault schedule must be a pure function of (epoch, key)"
                );
                break;
            }
            Err(other) => panic!("valid batch rejected: {other}"),
        }
    }
    assert!(fired, "the chaos plan never fired within 64 batches");
}

#[test]
fn default_length_schedule_never_aborts_and_classifies_every_request() {
    // The default 200-request schedule over a smaller video, which keeps
    // the debug-mode suite quick.
    let cfg = ServeConfig {
        shots: 40,
        ..ServeConfig::default()
    };
    assert_eq!(cfg.requests, 200);
    let w = serve::build(&cfg);
    let (run, _) = chaos_run(&w, FaultPlan::chaos_default(), EngineConfig::default());
    assert_eq!(run.reports.len(), 200);
    let (ok, degraded, failed) = (
        run.count(RequestOutcome::Ok),
        run.count(RequestOutcome::Degraded),
        run.count(RequestOutcome::Failed),
    );
    assert_eq!(ok + degraded + failed, 200, "every request classified");
    assert!(
        degraded + failed > 0,
        "chaos_default must disturb something"
    );
    for report in &run.reports {
        match report.outcome {
            RequestOutcome::Ok => assert!(report.reason.is_none()),
            RequestOutcome::Degraded | RequestOutcome::Failed => {
                assert!(report.reason.is_some(), "non-Ok outcomes carry a reason");
            }
            RequestOutcome::Shed => {
                panic!("the resilient path never sheds — that's admission control")
            }
        }
    }
}
