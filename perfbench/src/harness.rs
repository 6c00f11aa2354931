//! The closed-loop load generator shared by every workload: `CLIENTS`
//! threads in one process, each sending its next request only after the
//! previous answer arrived, until the window's deadline.

use crate::stats::{RegDiff, RegMark};
use crate::trace::{Recorder, Span};
use std::time::{Duration, Instant};

/// Closed-loop client threads per window.
pub const CLIENTS: usize = 2;

/// Untraced trials per run. The end-to-end latency and throughput are the
/// median over trials.
pub const TRIALS: usize = 3;

/// Set-ups timed before each trial (the first includes the served one), so
/// that `setup_s` is the median of set-ups spread over the whole run.
pub const SETUPS_PER_TRIAL: usize = 3;

/// `k` of every top-`k` request.
pub const K: usize = 10;

/// Every request is evaluated at the shot level.
pub const DEPTH: u8 = 1;

/// Unmeasured lead-in of every window, seconds. When both vCPUs of a
/// small virtual machine go from idle to busy, the first second or so runs
/// several times slower; clients send requests through the lead-in but
/// nothing they observe there is recorded.
pub const RAMP_SECONDS: f64 = 1.0;

/// How long a window runs.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    /// Unmeasured lead-in, seconds.
    pub ramp: f64,
    /// Measured time after the lead-in, seconds.
    pub seconds: f64,
    /// Upper bound on measured reads per client (self-tests use it to run
    /// a fixed amount of work).
    pub max_reads: usize,
}

impl Limit {
    /// A lead-in of [`RAMP_SECONDS`], then `seconds` measured.
    #[must_use]
    pub fn seconds(seconds: f64) -> Limit {
        Limit {
            ramp: RAMP_SECONDS,
            seconds,
            max_reads: usize::MAX,
        }
    }

    /// Exactly `max_reads` measured reads per client, no lead-in.
    #[cfg(test)]
    #[must_use]
    pub fn reads(max_reads: usize) -> Limit {
        Limit {
            ramp: 0.0,
            seconds: 3600.0,
            max_reads,
        }
    }
}

/// A client's view of its window.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    measure_from: Instant,
    deadline: Instant,
    max_reads: usize,
}

impl Phase {
    /// Before each request: `None` once the window is over, otherwise
    /// whether this request is measured (past the lead-in).
    #[must_use]
    pub fn next(&self, measured_reads: usize) -> Option<bool> {
        let now = Instant::now();
        (now < self.deadline && measured_reads < self.max_reads).then_some(now >= self.measure_from)
    }
}

/// What one client observed during a window.
#[derive(Default)]
pub struct ClientOut {
    /// Reads and batches sent, lead-in included.
    pub attempted: u64,
    /// Measured read latencies, send to answer, in seconds.
    pub reads: Vec<f64>,
    /// Measured mutation-batch latencies, in seconds.
    pub applies: Vec<f64>,
    /// Requests or batches that errored or came back degraded.
    pub errors: u64,
    /// `(query, epoch, answer hash)` per successful read, for the oracle.
    pub answers: Vec<(usize, u64, u64)>,
}

/// Everything a window measured.
pub struct Window {
    /// Wall time from the end of the lead-in to the last answer, seconds.
    pub elapsed: f64,
    pub attempted: u64,
    pub reads: Vec<f64>,
    pub applies: Vec<f64>,
    pub errors: u64,
    pub answers: Vec<(usize, u64, u64)>,
    /// Spans of a traced window's measured requests (empty otherwise).
    pub spans: Vec<Span>,
    /// What the system's own registries recorded after the lead-in.
    pub reg: RegDiff,
}

/// Runs `body` on `CLIENTS` scoped threads from `start` until `limit`,
/// handing each client its index, its [`Phase`] and, in a traced window,
/// its span recorder (times relative to `start`). `mark` runs when the
/// lead-in ends and `diff` once the clients are done; together they give
/// the window's registry diff.
pub fn run_clients<F>(
    start: Instant,
    limit: Limit,
    traced: bool,
    body: F,
    mark: impl FnOnce() -> RegMark,
    diff: impl FnOnce(RegMark) -> RegDiff,
) -> Window
where
    F: Fn(usize, Phase, Option<&mut Recorder>) -> ClientOut + Sync,
{
    let measure_from = start + Duration::from_secs_f64(limit.ramp);
    let phase = Phase {
        measure_from,
        deadline: measure_from + Duration::from_secs_f64(limit.seconds),
        max_reads: limit.max_reads,
    };
    let (marked, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let body = &body;
                scope.spawn(move || {
                    let mut rec = traced.then(|| Recorder::new(start, (c as u64) << 40));
                    let out = body(c, phase, rec.as_mut());
                    (
                        out,
                        rec.map(|r| r.spans).unwrap_or_default(),
                        Instant::now(),
                    )
                })
            })
            .collect();
        std::thread::sleep(measure_from.saturating_duration_since(Instant::now()));
        let marked = mark();
        let results: Vec<(ClientOut, Vec<Span>, Instant)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (marked, results)
    });
    let mut w = Window {
        elapsed: 0.0,
        attempted: 0,
        reads: Vec::new(),
        applies: Vec::new(),
        errors: 0,
        answers: Vec::new(),
        spans: Vec::new(),
        reg: diff(marked),
    };
    for (out, spans, end) in results {
        w.attempted += out.attempted;
        w.reads.extend(out.reads);
        w.applies.extend(out.applies);
        w.errors += out.errors;
        w.answers.extend(out.answers);
        w.spans.extend(spans);
        w.elapsed = w
            .elapsed
            .max(end.saturating_duration_since(measure_from).as_secs_f64());
    }
    w
}

/// Unique request id of client `c`'s `i`-th request.
#[must_use]
pub fn request_id(c: usize, i: usize) -> u64 {
    ((c as u64) << 40) | i as u64
}

/// FNV-1a over a sequence of 64-bit words.
#[must_use]
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The outcome of checking every answer against a workload's oracle.
pub struct Verified {
    /// Answers that differ from the oracle.
    pub mismatches: u64,
    /// Distinct `(query, epoch)` pairs checked.
    pub pairs: usize,
    /// Digest of the oracle answers over those pairs.
    pub digest: u64,
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
