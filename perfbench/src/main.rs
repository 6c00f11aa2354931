//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <warm_zipf|cold_scan|ingest_churn|paper_lists>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, sets the system up, drives
//! it with closed-loop clients for `--seconds`, checks every answer
//! against an oracle, and prints each metric by name with its unit. The
//! last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run measures an untraced and a traced window of half the time
//! each and writes its spans to `.bench_out/`. See `perfbench/README.md`.

mod harness;
mod inputs;
mod lists;
mod report;
mod serving;
mod stats;
mod trace;

use harness::Limit;
use report::{Metric, Run};
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload <warm_zipf|cold_scan|ingest_churn|paper_lists> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WarmZipf,
    ColdScan,
    IngestChurn,
    PaperLists,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "warm_zipf" => Workload::WarmZipf,
            "cold_scan" => Workload::ColdScan,
            "ingest_churn" => Workload::IngestChurn,
            "paper_lists" => Workload::PaperLists,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WarmZipf => "warm_zipf",
            Workload::ColdScan => "cold_scan",
            Workload::IngestChurn => "ingest_churn",
            Workload::PaperLists => "paper_lists",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload: [`harness::TRIALS`] untraced trials with
/// [`harness::SETUPS_PER_TRIAL`] set-ups timed before each, or in a traced
/// run one set-up and one untraced and one traced window; then the oracle
/// check.
fn run(args: &Args) -> Run {
    // `--seconds` covers every window's lead-in and measured time.
    let windows = if args.trace { 2 } else { harness::TRIALS };
    let each = Limit::seconds((args.seconds / windows as f64 - harness::RAMP_SECONDS).max(0.1));
    let plan: Vec<(Limit, bool)> = if args.trace {
        vec![(each, false), (each, true)]
    } else {
        vec![(each, false); windows]
    };
    let setups_per_window = if args.trace {
        1
    } else {
        harness::SETUPS_PER_TRIAL
    };
    let spec = match args.workload {
        Workload::WarmZipf => serving::WARM_ZIPF,
        Workload::ColdScan => serving::COLD_SCAN,
        Workload::IngestChurn => serving::INGEST_CHURN,
        Workload::PaperLists => {
            let lists = lists::PaperLists::new(inputs::paper_lists(args.seed, lists::SHOTS));
            let (setup_s, windows) = lists.setup_and_run(lists::SHOTS, &plan, setups_per_window);
            let answers: Vec<_> = windows.iter().flat_map(|w| w.answers.clone()).collect();
            return Run {
                setup_s,
                verified: lists.verify(&answers),
                windows,
                traced: args.trace,
                shots: f64::from(lists::SHOTS),
            };
        }
    };
    let mut served = serving::Serving::setup(spec, args.seed);
    let mut windows = Vec::with_capacity(plan.len());
    for (i, &(limit, traced)) in plan.iter().enumerate() {
        while served.setup_s.len() < (i + 1) * setups_per_window {
            served.time_setup();
        }
        windows.push(served.run(limit, traced));
    }
    let answers: Vec<_> = windows.iter().flat_map(|w| w.answers.clone()).collect();
    Run {
        setup_s: served.setup_s.clone(),
        verified: served.verify(&answers),
        shots: served.shots_scanned(),
        traced: args.trace,
        windows,
    }
}

fn json_metrics(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = run(&args);
    let e2e = report::end_to_end(&run);
    let extra = report::end_to_end_extra(&run);
    let layers = if args.trace {
        report::per_layer(&run)
    } else {
        Vec::new()
    };
    // A traced run must account for its requests' latency within 10%.
    let coverage_ok = layers
        .iter()
        .filter(|m| m.name == "trace.coverage_frac")
        .all(|m| (m.value - 1.0).abs() <= 0.1);
    let traced_match = run.traced_answers_match();
    let correct = run.failed() == 0 && coverage_ok && traced_match;

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "answers: {} (query, epoch) pairs checked, {} mismatches, digest {:016x}",
        run.verified.pairs, run.verified.mismatches, run.verified.digest
    );
    if args.trace {
        let spans = &run.windows[1].spans;
        let path = PathBuf::from(".bench_out").join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match trace::write_jsonl(&path, spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        println!("traced answers equal untraced answers: {traced_match}");
        println!("coverage within 10%: {coverage_ok}");
    }
    for m in e2e.iter().chain(&extra).chain(&layers) {
        println!(
            "{:<30} {:>14.6} {:<6} ({})",
            m.name, m.value, m.unit, m.base
        );
    }
    let metrics: Vec<&Metric> = if args.trace {
        layers.iter().chain(&extra).collect()
    } else {
        e2e.iter().collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted(),
        run.failed(),
        json_metrics(&metrics)
    );
}
