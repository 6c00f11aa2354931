//! The `paper_lists` workload: one flat video of 10⁶ shots and three §4.2
//! random lists served by a benchmark-owned provider, queried through
//! `Engine::top_k_closed`. The `core::list` merge kernels do most of the
//! work here.

use crate::harness::{
    fnv, request_id, run_clients, ClientOut, Limit, Phase, Verified, Window, CLIENTS, DEPTH, K,
};
use crate::inputs::{LIST_PREDICATES, LIST_QUERIES};
use crate::stats::RegMark;
use crate::trace::Recorder;
use simvid_core::{
    list, top_k, AtomicProvider, Engine, EngineConfig, RankedSegment, SeqContext, SimilarityList,
    SimilarityTable, ValueTable,
};
use simvid_htl::{parse, AtomicUnit, AttrFn, Formula, FormulaId};
use simvid_model::{VideoBuilder, VideoTree};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shots of the flat video (the paper's "size").
pub const SHOTS: u32 = 1_000_000;

/// A flat `n`-shot video (depth 1 = the shots).
#[must_use]
pub fn flat_tree(n: u32) -> VideoTree {
    let mut b = VideoBuilder::new("paper-lists");
    b.set_level_names(["video", "shot"]);
    for i in 0..n {
        b.leaf(format!("s{i}"));
    }
    b.finish().expect("flat tree builds")
}

/// Spans of the provider's own calls, attached to the engine span of the
/// traced request in flight, if any.
struct ProviderTrace {
    rec: Recorder,
    /// `(request id, parent span id)` of the request in flight.
    current: Option<(u64, u64)>,
}

/// Serves the workload's lists for `P1()`, `P2()`, `P3()`, sliced to the
/// requested window, as a picture system would score them.
pub struct ListProvider<'a> {
    lists: &'a [(FormulaId, SimilarityList)],
    traced: AtomicBool,
    trace: Mutex<Option<ProviderTrace>>,
}

impl<'a> ListProvider<'a> {
    #[must_use]
    pub fn new(lists: &'a [(FormulaId, SimilarityList)]) -> ListProvider<'a> {
        ListProvider {
            lists,
            traced: AtomicBool::new(false),
            trace: Mutex::new(None),
        }
    }

    fn lookup(&self, f: &Formula) -> &SimilarityList {
        let id = FormulaId::of(f);
        self.lists
            .iter()
            .find(|(k, _)| *k == id)
            .map(|(_, l)| l)
            .unwrap_or_else(|| panic!("no list for `{f}`"))
    }

    /// Starts recording fetch spans into `rec`.
    fn start_trace(&self, rec: Recorder) {
        *self.trace.lock().expect("provider trace lock") =
            Some(ProviderTrace { rec, current: None });
        self.traced.store(true, Ordering::Relaxed);
    }

    /// Attaches fetch spans to span `parent` of request `req` (`None`
    /// records none).
    fn attach(&self, current: Option<(u64, u64)>) {
        if let Some(t) = self.trace.lock().expect("provider trace lock").as_mut() {
            t.current = current;
        }
    }

    /// Stops recording and returns the spans.
    fn finish_trace(&self) -> Vec<crate::trace::Span> {
        self.traced.store(false, Ordering::Relaxed);
        self.trace
            .lock()
            .expect("provider trace lock")
            .take()
            .map(|t| t.rec.spans)
            .unwrap_or_default()
    }
}

impl AtomicProvider for ListProvider<'_> {
    fn atomic_table(&self, unit: &AtomicUnit, ctx: SeqContext) -> Arc<SimilarityTable> {
        // The engine may fetch from a helper thread, so the span is
        // opened and closed under the lock but the fetch runs outside it.
        let open = if self.traced.load(Ordering::Relaxed) {
            let mut guard = self.trace.lock().expect("provider trace lock");
            guard.as_mut().and_then(|t| {
                let (req, parent) = t.current?;
                Some((req, t.rec.open(Some(parent), "provider.fetch")))
            })
        } else {
            None
        };
        let table = Arc::new(SimilarityTable::from_list(
            self.lookup(&unit.formula).slice_window(ctx.lo + 1, ctx.hi),
        ));
        if let Some((req, open)) = open {
            if let Some(t) = self.trace.lock().expect("provider trace lock").as_mut() {
                t.rec.close(req, open);
            }
        }
        table
    }

    fn atomic_max(&self, unit: &AtomicUnit) -> f64 {
        self.lookup(&unit.formula).max()
    }

    fn value_table(&self, _func: &AttrFn, _ctx: SeqContext) -> ValueTable {
        ValueTable::default()
    }
}

/// The workload's inputs, keyed by predicate, and the oracle's answers.
pub struct PaperLists {
    keyed: Vec<(FormulaId, SimilarityList)>,
    oracle: Vec<u64>,
    /// Each client's position in the query cycle, kept across windows.
    cursors: Vec<AtomicUsize>,
}

/// Answers of a direct composition of `simvid_core::list` kernels plus
/// `top_k`, one per [`LIST_QUERIES`] entry.
#[must_use]
pub fn direct_answers(lists: &[SimilarityList]) -> Vec<Vec<RankedSegment>> {
    let theta = EngineConfig::default().until_threshold;
    let (p1, p2, p3) = (&lists[0], &lists[1], &lists[2]);
    let composed = [
        list::eventually(p1),
        list::until(p1, p2, theta),
        list::and(&list::and(p1, &list::next(p2)), &list::until(p1, p3, theta)),
        list::and(p1, &list::eventually(&list::until(p2, p3, theta))),
    ];
    composed.iter().map(|l| top_k(l, K)).collect()
}

fn answer_hash(ranked: &[RankedSegment]) -> u64 {
    fnv(ranked
        .iter()
        .flat_map(|r| [u64::from(r.pos), r.sim.act.to_bits(), r.sim.max.to_bits()]))
}

impl PaperLists {
    /// Keys the generated lists by predicate and computes the oracle
    /// (untimed).
    #[must_use]
    pub fn new(lists: Vec<SimilarityList>) -> PaperLists {
        let oracle = direct_answers(&lists)
            .iter()
            .map(|a| answer_hash(a))
            .collect();
        let keyed = LIST_PREDICATES
            .iter()
            .map(|p| FormulaId::of(&parse(p).expect("predicate parses")))
            .zip(lists)
            .collect();
        PaperLists {
            keyed,
            oracle,
            cursors: (0..CLIENTS).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Sets up the flat video, one provider and one engine per client,
    /// and runs the given windows, each `(limit, traced)`, on that set-up.
    /// Before each window, identical set-ups are timed (and dropped) so
    /// that `setups_per_window` are timed per window in all. Returns each
    /// set-up's wall time in seconds and the windows.
    #[must_use]
    pub fn setup_and_run(
        &self,
        shots: u32,
        windows: &[(Limit, bool)],
        setups_per_window: usize,
    ) -> (Vec<f64>, Vec<Window>) {
        let t0 = Instant::now();
        let tree = flat_tree(shots);
        let providers = self.providers();
        let engines: Vec<Engine<'_, ListProvider<'_>>> =
            providers.iter().map(|p| Engine::new(p, &tree)).collect();
        let mut setup_s = vec![t0.elapsed().as_secs_f64()];
        let mut out = Vec::with_capacity(windows.len());
        for (i, &window) in windows.iter().enumerate() {
            for _ in setup_s.len()..(i + 1) * setups_per_window {
                let t0 = Instant::now();
                let tree = flat_tree(shots);
                let providers = self.providers();
                let engines: Vec<Engine<'_, ListProvider<'_>>> =
                    providers.iter().map(|p| Engine::new(p, &tree)).collect();
                setup_s.push(t0.elapsed().as_secs_f64());
                drop(engines);
            }
            out.push(self.run(&providers, &engines, window));
        }
        (setup_s, out)
    }

    fn providers(&self) -> Vec<ListProvider<'_>> {
        (0..CLIENTS)
            .map(|_| ListProvider::new(&self.keyed))
            .collect()
    }

    fn run(
        &self,
        providers: &[ListProvider<'_>],
        engines: &[Engine<'_, ListProvider<'_>>],
        (limit, traced): (Limit, bool),
    ) -> Window {
        let registries: Vec<&simvid_obs::Registry> =
            engines.iter().map(|e| e.registry().as_ref()).collect();
        let origin = Instant::now();
        if traced {
            for (c, p) in providers.iter().enumerate() {
                p.start_trace(Recorder::new(origin, ((CLIENTS + c) as u64) << 40));
            }
        }
        let mut window = run_clients(
            origin,
            limit,
            traced,
            |c, phase, rec| {
                let cursor = &self.cursors[c];
                self.client(c, cursor, &engines[c], &providers[c], phase, rec)
            },
            || RegMark::take(&registries),
            |mark| mark.diff(&registries),
        );
        for p in providers {
            window.spans.extend(p.finish_trace());
        }
        window
    }

    fn client(
        &self,
        c: usize,
        cursor: &AtomicUsize,
        engine: &Engine<'_, ListProvider<'_>>,
        provider: &ListProvider<'_>,
        phase: Phase,
        mut rec: Option<&mut Recorder>,
    ) -> ClientOut {
        let mut out = ClientOut::default();
        while let Some(measured) = phase.next(out.reads.len()) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let q = (i + c) % LIST_QUERIES.len();
            let req = request_id(c, i);
            let (result, seconds) = match rec.as_deref_mut().filter(|_| measured) {
                Some(rec) => {
                    let root = rec.open(None, "request");
                    let sp = rec.open(Some(root.id), "htl.parse");
                    let parsed = parse(LIST_QUERIES[q]);
                    rec.close(req, sp);
                    let result = parsed.map_err(|e| e.to_string()).and_then(|f| {
                        let sp = rec.open(Some(root.id), "engine.top_k");
                        provider.attach(Some((req, sp.id)));
                        let r = engine.top_k_closed(&f, DEPTH, K);
                        provider.attach(None);
                        rec.close(req, sp);
                        r.map_err(|e| e.to_string())
                    });
                    let ns = rec.close(req, root);
                    (result, ns as f64 * 1e-9)
                }
                None => {
                    let t0 = Instant::now();
                    let result = parse(LIST_QUERIES[q])
                        .map_err(|e| e.to_string())
                        .and_then(|f| engine.top_k_closed(&f, DEPTH, K).map_err(|e| e.to_string()));
                    (result, t0.elapsed().as_secs_f64())
                }
            };
            out.attempted += 1;
            if measured {
                out.reads.push(seconds);
            }
            match result {
                Ok(ranked) => out.answers.push((q, 0, answer_hash(&ranked))),
                Err(_) => out.errors += 1,
            }
        }
        out
    }

    /// Checks every answer against [`direct_answers`].
    #[must_use]
    pub fn verify(&self, answers: &[(usize, u64, u64)]) -> Verified {
        let mismatches = answers
            .iter()
            .filter(|&&(q, _, h)| self.oracle[q] != h)
            .count() as u64;
        let mut seen: Vec<usize> = answers.iter().map(|a| a.0).collect();
        seen.sort_unstable();
        seen.dedup();
        Verified {
            mismatches,
            pairs: seen.len(),
            digest: fnv(seen.iter().flat_map(|&q| [q as u64, self.oracle[q]])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::paper_lists;

    /// `engine.entries_processed` over one pass of every list query at
    /// `shots` shots (each client runs each query once).
    fn entries(shots: u32) -> f64 {
        let lists = PaperLists::new(paper_lists(5, shots));
        let plan = [(Limit::reads(LIST_QUERIES.len()), false)];
        let (_, windows) = lists.setup_and_run(shots, &plan, 1);
        let w = &windows[0];
        assert_eq!(w.errors, 0);
        assert_eq!(lists.verify(&w.answers).mismatches, 0);
        w.reg.counter("engine.entries_processed")
    }

    #[test]
    fn entries_processed_grow_linearly_with_shots() {
        let ratio = entries(1_000_000) / entries(100_000);
        assert!(
            (ratio / 10.0 - 1.0).abs() <= 0.1,
            "10x the shots processed {ratio}x the entries"
        );
    }

    #[test]
    fn direct_composition_matches_the_engine_on_a_small_video() {
        let lists = PaperLists::new(paper_lists(9, 20_000));
        let plan = [(Limit::reads(2 * LIST_QUERIES.len()), false)];
        let (setup_s, windows) = lists.setup_and_run(20_000, &plan, 1);
        assert_eq!(setup_s.len(), 1);
        let verified = lists.verify(&windows[0].answers);
        assert_eq!(verified.mismatches, 0);
        assert_eq!(verified.pairs, LIST_QUERIES.len());
    }
}
