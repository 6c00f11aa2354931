//! The three serving workloads (`warm_zipf`, `cold_scan`,
//! `ingest_churn`): a live corpus behind `LiveVideoDb`, read with
//! `LivePin::top_k` (or, traced, `eval_shard` per shard plus `gather`)
//! and, under churn, written with `LiveVideoDb::apply`.

use crate::harness::{
    fnv, request_id, run_clients, ClientOut, Limit, Phase, Verified, Window, CLIENTS, DEPTH, K,
};
use crate::inputs::{self, BatchGen, QUERY_POOL};
use crate::stats::RegMark;
use crate::trace::Recorder;
use simvid_core::ShardHit;
use simvid_htl::{parse, Formula};
use simvid_model::{CorpusOp, VideoStore};
use simvid_obs::Registry;
use simvid_picture::{CacheConfig, LiveConfig, LiveVideoDb, ShardId, ShardedAnswer};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Client 0 of a churn workload applies one batch after every this many
/// of its own reads.
pub const APPLY_EVERY: usize = 20;

/// The shape of one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub videos: u32,
    pub shots: u32,
    /// Per-video atomic-cache capacity; `None` keeps the default.
    pub cache_capacity: Option<usize>,
    /// Zipf exponent of query popularity (`0.0` is uniform).
    pub zipf: f64,
    /// Whether client 0 interleaves mutation batches with its reads.
    pub churn: bool,
}

pub const WARM_ZIPF: Spec = Spec {
    videos: 256,
    shots: 64,
    cache_capacity: None,
    zipf: 1.1,
    churn: false,
};

pub const COLD_SCAN: Spec = Spec {
    videos: 64,
    shots: 64,
    cache_capacity: Some(4),
    zipf: 0.0,
    churn: false,
};

pub const INGEST_CHURN: Spec = Spec {
    churn: true,
    ..WARM_ZIPF
};

fn live_config(spec: &Spec) -> LiveConfig {
    let base = LiveConfig {
        shards: 2,
        ..Default::default()
    };
    match spec.cache_capacity {
        Some(capacity) => LiveConfig {
            cache: CacheConfig::with_capacity(capacity),
            ..base
        },
        None => base,
    }
}

/// FNV digest of a ranked answer.
fn answer_hash(hits: &[ShardHit]) -> u64 {
    fnv(hits.iter().flat_map(|h| {
        [
            u64::from(h.video.0),
            u64::from(h.pos),
            h.sim.act.to_bits(),
            h.sim.max.to_bits(),
        ]
    }))
}

/// The writer's state: the batch stream and the batches that committed,
/// in commit order (the oracle replays them).
struct Writer {
    gen: BatchGen,
    applied: Vec<Vec<CorpusOp>>,
}

/// A set-up serving workload.
pub struct Serving {
    spec: Spec,
    pub db: LiveVideoDb,
    /// Wall time of each set-up (`LiveVideoDb::new` plus the warm-up
    /// pass), seconds: the served corpus's, then any [`Serving::time_setup`].
    pub setup_s: Vec<f64>,
    base: VideoStore,
    schedules: Vec<Vec<usize>>,
    cursors: Vec<AtomicUsize>,
    writer: Mutex<Writer>,
}

impl Serving {
    /// Generates the inputs (untimed), then sets the served corpus up.
    #[must_use]
    pub fn setup(spec: Spec, seed: u64) -> Serving {
        let base = inputs::corpus(seed, spec.videos, spec.shots);
        let (db, seconds) = timed_setup(&spec, &base);
        Serving {
            spec,
            db,
            setup_s: vec![seconds],
            base,
            schedules: (0..CLIENTS)
                .map(|c| inputs::schedule(seed, c, QUERY_POOL.len(), spec.zipf))
                .collect(),
            cursors: (0..CLIENTS).map(|_| AtomicUsize::new(0)).collect(),
            writer: Mutex::new(Writer {
                gen: BatchGen::new(seed, spec.videos, spec.shots),
                applied: Vec::new(),
            }),
        }
    }

    /// Sets up a second, identical corpus from the same inputs and drops
    /// it, recording the set-up time.
    pub fn time_setup(&mut self) {
        let (db, seconds) = timed_setup(&self.spec, &self.base);
        drop(db);
        self.setup_s.push(seconds);
    }

    /// Shots one request scans: live videos × shots per video.
    #[must_use]
    pub fn shots_scanned(&self) -> f64 {
        self.db.pin().video_count() as f64 * f64::from(self.spec.shots)
    }

    /// Runs one closed-loop window.
    pub fn run(&self, limit: Limit, traced: bool) -> Window {
        let registries = [self.db.registry().as_ref()];
        run_clients(
            Instant::now(),
            limit,
            traced,
            |c, phase, rec| self.client(c, phase, rec),
            || RegMark::take(&registries),
            |mark| mark.diff(&registries),
        )
    }

    fn client(&self, c: usize, phase: Phase, mut rec: Option<&mut Recorder>) -> ClientOut {
        let mut out = ClientOut::default();
        let schedule = &self.schedules[c];
        let writes = self.spec.churn && c == 0;
        let mut done = 0;
        while let Some(measured) = phase.next(out.reads.len()) {
            let i = self.cursors[c].fetch_add(1, Ordering::Relaxed);
            let q = schedule[i % schedule.len()];
            let req = request_id(c, i);
            let (result, seconds) = match rec.as_deref_mut().filter(|_| measured) {
                Some(rec) => read_traced(&self.db, QUERY_POOL[q], rec, req),
                None => {
                    let t0 = Instant::now();
                    let r = read(&self.db, QUERY_POOL[q]);
                    (r, t0.elapsed().as_secs_f64())
                }
            };
            out.attempted += 1;
            if measured {
                out.reads.push(seconds);
            }
            match result {
                Ok((epoch, answer)) if answer.is_complete() => {
                    out.answers.push((q, epoch, answer_hash(answer.ranked())));
                }
                _ => out.errors += 1,
            }
            done += 1;
            if writes && done % APPLY_EVERY == 0 {
                // A batch is its own traced operation, not part of the read.
                let rec = rec.as_deref_mut().filter(|_| measured);
                self.write(&mut out, rec, req | 1 << 39, measured);
            }
        }
        out
    }

    /// Draws the next batch (untimed input generation) and applies it.
    fn write(&self, out: &mut ClientOut, rec: Option<&mut Recorder>, req: u64, measured: bool) {
        let mut writer = self.writer.lock().expect("writer lock");
        let ops = writer.gen.next_batch();
        let (result, seconds) = match rec {
            Some(rec) => {
                let root = rec.open(None, "apply");
                let sp = rec.open(Some(root.id), "corpus.apply");
                let r = self.db.apply(&ops);
                rec.close(req, sp);
                let ns = rec.close(req, root);
                (r, ns as f64 * 1e-9)
            }
            None => {
                let t0 = Instant::now();
                let r = self.db.apply(&ops);
                (r, t0.elapsed().as_secs_f64())
            }
        };
        out.attempted += 1;
        if measured {
            out.applies.push(seconds);
        }
        let expected = writer.applied.len() as u64 + 1;
        match result {
            Ok(batch) if batch.epoch.0 == expected => writer.applied.push(ops),
            _ => out.errors += 1,
        }
    }

    /// Checks every recorded answer against a 1-shard `LiveVideoDb` that
    /// shares no cache or shard state with the served corpus and follows
    /// the same committed batches, so each `(query, epoch)` pair is
    /// checked at its own epoch.
    #[must_use]
    pub fn verify(&self, answers: &[(usize, u64, u64)]) -> Verified {
        let oracle = LiveVideoDb::new(
            self.base.clone(),
            LiveConfig::default(),
            Arc::new(Registry::new()),
        );
        let queries: Vec<Formula> = QUERY_POOL
            .iter()
            .map(|q| parse(q).expect("pool query parses"))
            .collect();
        let applied = &self.writer.lock().expect("writer lock").applied;
        let mut sorted = answers.to_vec();
        sorted.sort_unstable_by_key(|&(q, e, _)| (e, q));
        let mut epoch = 0u64;
        let mut want: BTreeMap<(u64, usize), u64> = BTreeMap::new();
        let mut at_epoch: HashMap<usize, u64> = HashMap::new();
        let mut mismatches = 0;
        for (q, e, got) in sorted {
            while epoch < e {
                let Some(ops) = applied.get(epoch as usize) else {
                    break;
                };
                oracle.apply(ops).expect("oracle follows committed batches");
                epoch += 1;
                at_epoch.clear();
            }
            let expected = *at_epoch.entry(q).or_insert_with(|| {
                match oracle.pin().top_k(&queries[q], DEPTH, K) {
                    Ok(a) if a.is_complete() && epoch == e => answer_hash(a.ranked()),
                    _ => 0,
                }
            });
            want.insert((e, q), expected);
            if expected != got {
                mismatches += 1;
            }
        }
        Verified {
            mismatches,
            pairs: want.len(),
            digest: fnv(want.into_iter().flat_map(|((e, q), h)| [e, q as u64, h])),
        }
    }
}

/// `LiveVideoDb::new` on a copy of `base` (the copy is untimed input
/// preparation) plus the warm-up pass, and its wall time in seconds.
fn timed_setup(spec: &Spec, base: &VideoStore) -> (LiveVideoDb, f64) {
    let store = base.clone();
    let t0 = Instant::now();
    let db = LiveVideoDb::new(store, live_config(spec), Arc::new(Registry::new()));
    warm_up(&db);
    (db, t0.elapsed().as_secs_f64())
}

/// One pass over the query pool, so steady-state windows start warm.
fn warm_up(db: &LiveVideoDb) {
    let pin = db.pin();
    for q in QUERY_POOL {
        let f = parse(q).expect("pool query parses");
        pin.top_k(&f, DEPTH, K).expect("warm-up request evaluates");
    }
}

/// One read through the public per-request API: parse, pin, `top_k`.
fn read(db: &LiveVideoDb, text: &str) -> Result<(u64, ShardedAnswer), String> {
    let f = parse(text).map_err(|e| e.to_string())?;
    let pin = db.pin();
    let answer = pin.top_k(&f, DEPTH, K).map_err(|e| e.to_string())?;
    Ok((pin.epoch().0, answer))
}

/// The same read with a span around each layer call: `top_k` is
/// `eval_shard` per shard followed by `gather`, so the traced read runs
/// those two explicitly.
fn read_traced(
    db: &LiveVideoDb,
    text: &str,
    rec: &mut Recorder,
    req: u64,
) -> (Result<(u64, ShardedAnswer), String>, f64) {
    let root = rec.open(None, "request");
    let sp = rec.open(Some(root.id), "htl.parse");
    let parsed = parse(text);
    rec.close(req, sp);
    let result = parsed.map_err(|e| e.to_string()).and_then(|f| {
        let sp = rec.open(Some(root.id), "corpus.pin");
        let pin = db.pin();
        rec.close(req, sp);
        let per_shard = (0..pin.shard_count())
            .map(|s| {
                let sp = rec.open(Some(root.id), "shard.eval");
                let r = pin.eval_shard(ShardId(s), &f, DEPTH, K);
                rec.close(req, sp);
                (ShardId(s), r)
            })
            .collect();
        let sp = rec.open(Some(root.id), "shard.gather");
        let answer = pin.gather(per_shard, K);
        rec.close(req, sp);
        answer
            .map(|a| (pin.epoch().0, a))
            .map_err(|e| e.to_string())
    });
    let ns = rec.close(req, root);
    (result, ns as f64 * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit_ratio(w: &Window) -> f64 {
        w.reg.counter("cache.hits") / w.reg.counter("cache.lookups")
    }

    #[test]
    fn warm_zipf_hits_the_cache_on_every_lookup_after_warm_up() {
        let served = Serving::setup(WARM_ZIPF, 11);
        let untraced = served.run(Limit::reads(60), false);
        let traced = served.run(Limit::reads(60), true);
        assert_eq!(hit_ratio(&untraced), 1.0);
        assert_eq!(hit_ratio(&traced), 1.0);
        let answers: Vec<_> = [&untraced, &traced]
            .iter()
            .flat_map(|w| w.answers.clone())
            .collect();
        assert_eq!(answers.len(), 4 * 60, "every read answered completely");
        assert_eq!(served.verify(&answers).mismatches, 0);
    }

    #[test]
    fn cold_scan_working_set_exceeds_the_cache() {
        let served = Serving::setup(COLD_SCAN, 11);
        let w = served.run(Limit::reads(80), false);
        let ratio = hit_ratio(&w);
        assert!(
            ratio < 0.6,
            "cold_scan hit ratio {ratio} should stay below 0.6"
        );
        assert!(w.reg.counter("cache.evictions") > 0.0);
        assert_eq!(served.verify(&w.answers).mismatches, 0);
    }

    #[test]
    fn ingest_churn_keeps_the_corpus_near_its_starting_size() {
        let target = f64::from(INGEST_CHURN.videos);
        let served = Serving::setup(INGEST_CHURN, 11);
        let w = served.run(Limit::reads(10 * APPLY_EVERY), false);
        assert_eq!(
            w.applies.len(),
            10,
            "client 0 applies after every {APPLY_EVERY} reads"
        );
        assert_eq!(w.errors, 0);
        let live = served.db.pin().video_count() as f64;
        assert!((live / target - 1.0).abs() <= 0.05, "{live} live videos");
        // Every read checks out against the oracle at its own epoch.
        let verified = served.verify(&w.answers);
        assert_eq!(verified.mismatches, 0);
        assert!(
            verified.pairs > QUERY_POOL.len(),
            "reads span several epochs"
        );

        // However long a run is, the batch stream stays balanced.
        let mut gen = BatchGen::new(11, INGEST_CHURN.videos, 4);
        for _ in 0..2_000 {
            gen.next_batch();
            assert!((gen.live() as f64 / target - 1.0).abs() <= 0.05);
        }
    }
}
