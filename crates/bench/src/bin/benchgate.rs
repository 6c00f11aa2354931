//! CI bench-regression gate over the serving smoke benchmark.
//!
//! ```text
//! benchgate CURRENT.json [--baseline PATH] [--kernels-baseline PATH]
//!           [--serve-concurrent-baseline PATH] [--serve-sharded-baseline PATH]
//!           [--serve-replicated-baseline PATH] [--serve-churn-baseline PATH]
//!           [--update-baselines]
//! ```
//!
//! `CURRENT.json` is the output of `repro serve --smoke --json PATH` (add
//! the `kernels` section to also gate the merge-kernel digests). The
//! baseline defaults to the checked-in `crates/bench/baselines/serve_smoke.json`,
//! measured at the same `--smoke` configuration (see `docs/observability.md`
//! and `docs/performance.md` for how baselines are chosen and refreshed).
//!
//! When the current document carries a `kernels` section (from
//! `repro serve kernels --smoke --json ...`), every kernel's output digest
//! is compared bit-for-bit against `crates/bench/baselines/kernels.json`;
//! kernel timings are informational only.
//!
//! When it carries a `serve_concurrent` section (from
//! `repro serve_concurrent --smoke --workers N --json ...`), each row must
//! record `digest_matches_sequential: true` and its digest must match the
//! baseline row with the same worker count in
//! `crates/bench/baselines/serve_concurrent.json` bit-for-bit — the
//! executor's ordering guarantee, gated. Speedups are informational (CI
//! runners are often single-core).
//!
//! When it carries a `serve_sharded` section (from
//! `repro serve --smoke --shards 1,2,4 --json ...`), each row must attest
//! `digest_matches_unsharded: true`, every shard count's digest must be
//! identical to every other's (sharding may never change the answer), and
//! each must match the baseline row with the same shard count in
//! `crates/bench/baselines/serve_sharded.json` bit-for-bit.
//!
//! When it carries a `serve_replicated` section (from
//! `repro serve --smoke --shards 2 --replicas 2 --json ...`), each row
//! must attest `digest_matches_sharded: true`, every replica topology's
//! digest must be identical to every other's (replication may never
//! change the answer), and each must match the baseline row with the same
//! `(shards, replicas)` in `crates/bench/baselines/serve_replicated.json`
//! bit-for-bit.
//!
//! When it carries a `serve_churn` section (from
//! `repro serve --smoke --churn --json ...`), each row must attest all
//! three bit-identity contracts (`digest_matches_rebuild`,
//! `digest_matches_sequential`, `prefix_matches_frozen`), must record
//! `retained > 0` (incremental invalidation kept at least one untouched
//! video's warm cache), and its digests must match the baseline row with
//! the same `(shards, replicas)` in
//! `crates/bench/baselines/serve_churn.json` bit-for-bit.
//!
//! `--update-baselines` rewrites the baseline files from the current
//! document instead of gating — the supported way to refresh baselines
//! after an intentional workload or semantics change. Review the diff
//! before committing. Every gated section must be present in the current
//! document (generate one with `repro serve serve_concurrent kernels
//! --smoke --shards 1,2,4 --replicas 2,3 --json`);
//! a missing section leaves its baseline untouched, warns, and exits 2 so
//! a partial refresh can never slip through silently.
//!
//! The gate separates *deterministic* metrics from *timing* metrics:
//!
//! * **ratio metrics** — the cache hit rate and the pruned-entries-per-
//!   request fraction. These are machine-independent (the workload is
//!   seeded and the engine is bit-deterministic), but a 20% regression
//!   tolerance keeps the gate robust to intentional workload retunes.
//!   A current value below `baseline × 0.8` fails the gate.
//! * **result digest** — the FNV-1a digest of every ranked answer must
//!   match the baseline bit-for-bit when the baseline records one
//!   (older baselines without a digest skip this check).
//! * **wall times** — cold/warm seconds and the warm speedup are printed
//!   for the log but never fail the gate; CI runners are too noisy for
//!   hard time thresholds.
//!
//! Exit status: `0` pass, `1` gate failure, `2` usage or input error.

use serde_json::Value;
use std::process::ExitCode;

/// Regression tolerance on ratio metrics: fail below `baseline × (1 - T)`.
const TOLERANCE: f64 = 0.20;

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// A `std::time::Duration` serialized as `{secs, nanos}`, in seconds.
fn duration_secs(v: &Value) -> Option<f64> {
    Some(num(field(v, "secs")?)? + num(field(v, "nanos")?)? * 1e-9)
}

/// The first (only) row of the `serve` section.
fn serve_row(doc: &Value) -> Option<&Value> {
    match field(doc, "serve")? {
        Value::Array(rows) => rows.first(),
        _ => None,
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// `a / b`, with an empty denominator reading as zero rate.
fn ratio(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        0.0
    } else {
        a / b
    }
}

struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check_ratio(&mut self, name: &str, current: f64, baseline: f64) {
        let floor = baseline * (1.0 - TOLERANCE);
        let ok = current >= floor;
        println!(
            "  {name:<22} {current:>8.4}  baseline {baseline:>8.4}  floor {floor:>8.4}  {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            self.failures.push(format!(
                "{name} regressed: {current:.4} < {floor:.4} (baseline {baseline:.4} - {:.0}%)",
                TOLERANCE * 100.0
            ));
        }
    }
}

fn run(
    current_path: &str,
    baseline_path: &str,
    kernels_baseline_path: &str,
    serve_concurrent_baseline_path: &str,
    serve_sharded_baseline_path: &str,
    serve_replicated_baseline_path: &str,
    serve_churn_baseline_path: &str,
) -> Result<bool, String> {
    let current_doc = load(current_path)?;
    let baseline_doc = load(baseline_path)?;
    let current = serve_row(&current_doc)
        .ok_or_else(|| format!("{current_path}: no serve section (run `repro serve --json`)"))?;
    let baseline = serve_row(&baseline_doc)
        .ok_or_else(|| format!("{baseline_path}: no serve section in baseline"))?;

    let counter = |row: &Value, key: &str| -> Result<f64, String> {
        field(row, key)
            .and_then(num)
            .ok_or_else(|| format!("serve row missing numeric `{key}`"))
    };
    let (cur_hits, cur_misses) = (
        counter(current, "cache_hits")?,
        counter(current, "cache_misses")?,
    );
    let (base_hits, base_misses) = (
        counter(baseline, "cache_hits")?,
        counter(baseline, "cache_misses")?,
    );

    println!("bench gate: {current_path} vs {baseline_path}");
    let mut gate = Gate {
        failures: Vec::new(),
    };
    gate.check_ratio(
        "cache hit rate",
        ratio(cur_hits, cur_hits + cur_misses),
        ratio(base_hits, base_hits + base_misses),
    );
    gate.check_ratio(
        "pruned per request",
        ratio(
            counter(current, "entries_pruned")?,
            counter(current, "requests")?,
        ),
        ratio(
            counter(baseline, "entries_pruned")?,
            counter(baseline, "requests")?,
        ),
    );

    // Bit-identity of the ranked answers, when the baseline records it.
    match (
        field(baseline, "results_digest"),
        field(current, "results_digest"),
    ) {
        (Some(Value::Str(base_digest)), Some(Value::Str(cur_digest))) => {
            let ok = base_digest == cur_digest;
            println!(
                "  {:<22} {cur_digest}  baseline {base_digest}  {}",
                "results digest",
                if ok { "ok" } else { "FAIL" }
            );
            if !ok {
                gate.failures
                    .push("ranked results diverged from baseline (digest mismatch)".into());
            }
        }
        (Some(Value::Str(_)), _) => {
            gate.failures
                .push("baseline records a results digest but the current run has none".into());
        }
        _ => println!(
            "  {:<22} (baseline has no digest; skipped)",
            "results digest"
        ),
    }

    // Wall times: informational only.
    for key in ["cold", "warm"] {
        let cur = field(current, key).and_then(duration_secs);
        let base = field(baseline, key).and_then(duration_secs);
        if let (Some(cur), Some(base)) = (cur, base) {
            println!("  {key:<22} {cur:>8.4}s baseline {base:>8.4}s  (informational)");
        }
    }

    // Merge-kernel digests, when the current run carries them.
    match field(&current_doc, "kernels") {
        Some(Value::Array(rows)) => {
            check_kernels(&mut gate, rows, kernels_baseline_path)?;
        }
        Some(_) => return Err("`kernels` section is not an array".into()),
        None => println!("  {:<22} (no kernels section; skipped)", "kernel digests"),
    }

    // Concurrent-executor digests, when the current run carries them.
    match field(&current_doc, "serve_concurrent") {
        Some(Value::Array(rows)) => {
            check_serve_concurrent(&mut gate, rows, serve_concurrent_baseline_path)?;
        }
        Some(_) => return Err("`serve_concurrent` section is not an array".into()),
        None => println!(
            "  {:<22} (no serve_concurrent section; skipped)",
            "concurrent digests"
        ),
    }

    // Sharded scatter-gather digests, when the current run carries them.
    match field(&current_doc, "serve_sharded") {
        Some(Value::Array(rows)) => {
            check_serve_sharded(&mut gate, rows, serve_sharded_baseline_path)?;
        }
        Some(_) => return Err("`serve_sharded` section is not an array".into()),
        None => println!(
            "  {:<22} (no serve_sharded section; skipped)",
            "sharded digests"
        ),
    }

    match field(&current_doc, "serve_replicated") {
        Some(Value::Array(rows)) => {
            check_serve_replicated(&mut gate, rows, serve_replicated_baseline_path)?;
        }
        Some(_) => return Err("`serve_replicated` section is not an array".into()),
        None => println!(
            "  {:<22} (no serve_replicated section; skipped)",
            "replicated digests"
        ),
    }

    match field(&current_doc, "serve_churn") {
        Some(Value::Array(rows)) => {
            check_serve_churn(&mut gate, rows, serve_churn_baseline_path)?;
        }
        Some(_) => return Err("`serve_churn` section is not an array".into()),
        None => println!(
            "  {:<22} (no serve_churn section; skipped)",
            "churn digests"
        ),
    }

    if gate.failures.is_empty() {
        println!("PASS");
        Ok(true)
    } else {
        for f in &gate.failures {
            println!("FAIL: {f}");
        }
        Ok(false)
    }
}

/// Gates each measured kernel's output digest against the kernels
/// baseline. Digests are deterministic (seeded workload, bit-identical
/// kernels), so any mismatch is a semantics change, not noise.
fn check_kernels(gate: &mut Gate, rows: &[Value], baseline_path: &str) -> Result<(), String> {
    let baseline_doc = load(baseline_path)?;
    let baseline_rows = match field(&baseline_doc, "kernels") {
        Some(Value::Array(rows)) => rows,
        _ => return Err(format!("{baseline_path}: no kernels section in baseline")),
    };
    let str_field = |row: &Value, key: &str| -> Result<String, String> {
        match field(row, key) {
            Some(Value::Str(v)) => Ok(v.clone()),
            _ => Err(format!("kernel row missing string `{key}`")),
        }
    };
    for row in rows {
        let name = str_field(row, "kernel")?;
        let cur_digest = str_field(row, "output_digest")?;
        let base = baseline_rows
            .iter()
            .find(|b| str_field(b, "kernel").as_deref() == Ok(&name));
        let Some(base) = base else {
            println!("  kernel {name:<15} {cur_digest}  (no baseline row; skipped)");
            continue;
        };
        let base_digest = str_field(base, "output_digest")?;
        let ok = cur_digest == base_digest;
        println!(
            "  kernel {name:<15} {cur_digest}  baseline {base_digest}  {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            gate.failures
                .push(format!("kernel `{name}` output diverged from baseline"));
        }
        if let (Some(cur_t), Some(iters)) = (
            field(row, "time").and_then(duration_secs),
            field(row, "iters").and_then(num),
        ) {
            if iters > 0.0 {
                println!(
                    "  {:<22} {:>8.2}\u{b5}s/call  (informational)",
                    format!("kernel {name} time"),
                    cur_t / iters * 1e6
                );
            }
        }
    }
    Ok(())
}

/// Gates the concurrent serving executor: every row must attest digest
/// equality with its own in-process sequential run, and must match the
/// checked-in baseline digest for the same worker count bit-for-bit.
/// Wall times and speedups never fail the gate.
fn check_serve_concurrent(
    gate: &mut Gate,
    rows: &[Value],
    baseline_path: &str,
) -> Result<(), String> {
    let baseline_doc = load(baseline_path)?;
    let baseline_rows = match field(&baseline_doc, "serve_concurrent") {
        Some(Value::Array(rows)) => rows,
        _ => {
            return Err(format!(
                "{baseline_path}: no serve_concurrent section in baseline"
            ))
        }
    };
    for row in rows {
        let workers = field(row, "workers")
            .and_then(num)
            .ok_or("serve_concurrent row missing numeric `workers`")? as u64;
        let cur_digest = match field(row, "results_digest") {
            Some(Value::Str(v)) => v.clone(),
            _ => return Err("serve_concurrent row missing string `results_digest`".into()),
        };
        match field(row, "digest_matches_sequential") {
            Some(Value::Bool(true)) => {}
            _ => gate.failures.push(format!(
                "serve_concurrent workers={workers}: run does not attest digest \
                 equality with its sequential baseline"
            )),
        }
        let base = baseline_rows
            .iter()
            .find(|b| field(b, "workers").and_then(num).map(|n| n as u64) == Some(workers));
        let Some(base) = base else {
            println!("  concurrent w={workers:<12} {cur_digest}  (no baseline row; skipped)");
            continue;
        };
        let base_digest = match field(base, "results_digest") {
            Some(Value::Str(v)) => v.clone(),
            _ => return Err("serve_concurrent baseline row missing `results_digest`".into()),
        };
        let ok = cur_digest == base_digest;
        println!(
            "  concurrent w={workers:<12} {cur_digest}  baseline {base_digest}  {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            gate.failures.push(format!(
                "serve_concurrent workers={workers}: ranked results diverged from baseline"
            ));
        }
        if let (Some(seq), Some(conc)) = (
            field(row, "sequential").and_then(duration_secs),
            field(row, "concurrent").and_then(duration_secs),
        ) {
            println!(
                "  {:<22} {:>8.2}x at {workers} workers  (informational)",
                "concurrent speedup",
                seq / conc.max(1e-12)
            );
        }
    }
    Ok(())
}

/// Gates the sharded serving path: every row must attest digest equality
/// with its own in-process unsharded oracle, every shard count must
/// produce the same digest as every other (the partition may never change
/// the answer), and each digest must match the checked-in baseline row
/// for the same shard count bit-for-bit. Wall times never fail the gate.
fn check_serve_sharded(gate: &mut Gate, rows: &[Value], baseline_path: &str) -> Result<(), String> {
    let baseline_doc = load(baseline_path)?;
    let baseline_rows = match field(&baseline_doc, "serve_sharded") {
        Some(Value::Array(rows)) => rows,
        _ => {
            return Err(format!(
                "{baseline_path}: no serve_sharded section in baseline"
            ))
        }
    };
    let mut first_digest: Option<(u64, String)> = None;
    for row in rows {
        let shards = field(row, "shards")
            .and_then(num)
            .ok_or("serve_sharded row missing numeric `shards`")? as u64;
        let cur_digest = match field(row, "results_digest") {
            Some(Value::Str(v)) => v.clone(),
            _ => return Err("serve_sharded row missing string `results_digest`".into()),
        };
        match field(row, "digest_matches_unsharded") {
            Some(Value::Bool(true)) => {}
            _ => gate.failures.push(format!(
                "serve_sharded shards={shards}: run does not attest digest \
                 equality with its unsharded oracle"
            )),
        }
        // Cross-row invariant: a different shard count is a different
        // execution plan, never a different answer.
        match &first_digest {
            None => first_digest = Some((shards, cur_digest.clone())),
            Some((first_shards, digest)) if *digest != cur_digest => {
                gate.failures.push(format!(
                    "serve_sharded: shards={shards} digest {cur_digest} differs from \
                     shards={first_shards} digest {digest} in the same run"
                ));
            }
            Some(_) => {}
        }
        let base = baseline_rows
            .iter()
            .find(|b| field(b, "shards").and_then(num).map(|n| n as u64) == Some(shards));
        let Some(base) = base else {
            println!("  sharded s={shards:<13} {cur_digest}  (no baseline row; skipped)");
            continue;
        };
        let base_digest = match field(base, "results_digest") {
            Some(Value::Str(v)) => v.clone(),
            _ => return Err("serve_sharded baseline row missing `results_digest`".into()),
        };
        let ok = cur_digest == base_digest;
        println!(
            "  sharded s={shards:<13} {cur_digest}  baseline {base_digest}  {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            gate.failures.push(format!(
                "serve_sharded shards={shards}: ranked results diverged from baseline"
            ));
        }
        if let (Some(flat), Some(scat)) = (
            field(row, "unsharded").and_then(duration_secs),
            field(row, "sequential").and_then(duration_secs),
        ) {
            println!(
                "  {:<22} {:>8.2}x at {shards} shards  (informational)",
                "scatter speedup",
                flat / scat.max(1e-12)
            );
        }
    }
    Ok(())
}

/// Gates the replicated serving path: every row must attest digest
/// equality with its own in-process plain-sharded reference, every
/// replica topology must produce the same digest as every other
/// (replication may never change the answer), and each digest must match
/// the checked-in baseline row for the same `(shards, replicas)`
/// bit-for-bit. Failover and hedge counts must be zero — the measurement
/// is fault-free, so a non-leading read means the rotation broke. Wall
/// times never fail the gate.
fn check_serve_replicated(
    gate: &mut Gate,
    rows: &[Value],
    baseline_path: &str,
) -> Result<(), String> {
    let baseline_doc = load(baseline_path)?;
    let baseline_rows = match field(&baseline_doc, "serve_replicated") {
        Some(Value::Array(rows)) => rows,
        _ => {
            return Err(format!(
                "{baseline_path}: no serve_replicated section in baseline"
            ))
        }
    };
    let mut first_digest: Option<(u64, String)> = None;
    for row in rows {
        let shards = field(row, "shards")
            .and_then(num)
            .ok_or("serve_replicated row missing numeric `shards`")? as u64;
        let replicas = field(row, "replicas")
            .and_then(num)
            .ok_or("serve_replicated row missing numeric `replicas`")?
            as u64;
        let cur_digest = match field(row, "results_digest") {
            Some(Value::Str(v)) => v.clone(),
            _ => return Err("serve_replicated row missing string `results_digest`".into()),
        };
        match field(row, "digest_matches_sharded") {
            Some(Value::Bool(true)) => {}
            _ => gate.failures.push(format!(
                "serve_replicated shards={shards} replicas={replicas}: run does not \
                 attest digest equality with its single-replica reference"
            )),
        }
        for key in ["failover", "hedges"] {
            if field(row, key).and_then(num).is_some_and(|n| n > 0.0) {
                gate.failures.push(format!(
                    "serve_replicated shards={shards} replicas={replicas}: \
                     fault-free run recorded nonzero `{key}`"
                ));
            }
        }
        // Cross-row invariant: a different replica count is a different
        // availability posture, never a different answer.
        match &first_digest {
            None => first_digest = Some((replicas, cur_digest.clone())),
            Some((first_replicas, digest)) if *digest != cur_digest => {
                gate.failures.push(format!(
                    "serve_replicated: replicas={replicas} digest {cur_digest} differs \
                     from replicas={first_replicas} digest {digest} in the same run"
                ));
            }
            Some(_) => {}
        }
        let base = baseline_rows.iter().find(|b| {
            field(b, "shards").and_then(num).map(|n| n as u64) == Some(shards)
                && field(b, "replicas").and_then(num).map(|n| n as u64) == Some(replicas)
        });
        let Some(base) = base else {
            println!(
                "  replicated s={shards} r={replicas:<7} {cur_digest}  (no baseline row; skipped)"
            );
            continue;
        };
        let base_digest = match field(base, "results_digest") {
            Some(Value::Str(v)) => v.clone(),
            _ => return Err("serve_replicated baseline row missing `results_digest`".into()),
        };
        let ok = cur_digest == base_digest;
        println!(
            "  replicated s={shards} r={replicas:<7} {cur_digest}  baseline {base_digest}  {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            gate.failures.push(format!(
                "serve_replicated shards={shards} replicas={replicas}: ranked \
                 results diverged from baseline"
            ));
        }
        if let (Some(seq), Some(conc)) = (
            field(row, "sequential").and_then(duration_secs),
            field(row, "concurrent").and_then(duration_secs),
        ) {
            println!(
                "  {:<22} {:>8.2}x at {replicas} replicas  (informational)",
                "replicated conc speedup",
                seq / conc.max(1e-12)
            );
        }
    }
    Ok(())
}

/// Gates the live-ingestion churn path: every row must attest its three
/// bit-identity contracts (rebuild oracle, sequential/concurrent
/// equality, mutation-free prefix), must have retained at least one warm
/// cached table across its mutations (the incremental-invalidation win —
/// a full-flush regression zeroes it), and both its churn digest and its
/// prefix digest must match the checked-in baseline row for the same
/// `(shards, replicas)` bit-for-bit. Wall times never fail the gate.
fn check_serve_churn(gate: &mut Gate, rows: &[Value], baseline_path: &str) -> Result<(), String> {
    let baseline_doc = load(baseline_path)?;
    let baseline_rows = match field(&baseline_doc, "serve_churn") {
        Some(Value::Array(rows)) => rows,
        _ => {
            return Err(format!(
                "{baseline_path}: no serve_churn section in baseline"
            ))
        }
    };
    for row in rows {
        let shards = field(row, "shards")
            .and_then(num)
            .ok_or("serve_churn row missing numeric `shards`")? as u64;
        let replicas = field(row, "replicas")
            .and_then(num)
            .ok_or("serve_churn row missing numeric `replicas`")? as u64;
        let cur_digest = match field(row, "results_digest") {
            Some(Value::Str(v)) => v.clone(),
            _ => return Err("serve_churn row missing string `results_digest`".into()),
        };
        let cur_prefix = match field(row, "prefix_digest") {
            Some(Value::Str(v)) => v.clone(),
            _ => return Err("serve_churn row missing string `prefix_digest`".into()),
        };
        for attest in [
            "digest_matches_rebuild",
            "digest_matches_sequential",
            "prefix_matches_frozen",
        ] {
            match field(row, attest) {
                Some(Value::Bool(true)) => {}
                _ => gate.failures.push(format!(
                    "serve_churn shards={shards} replicas={replicas}: run does not \
                     attest `{attest}`"
                )),
            }
        }
        let retained = field(row, "retained")
            .and_then(num)
            .ok_or("serve_churn row missing numeric `retained`")?;
        if retained <= 0.0 {
            gate.failures.push(format!(
                "serve_churn shards={shards} replicas={replicas}: no cached tables \
                 survived the mutations (retained={retained}); incremental \
                 invalidation has regressed to a full flush"
            ));
        }
        let base = baseline_rows.iter().find(|b| {
            field(b, "shards").and_then(num).map(|n| n as u64) == Some(shards)
                && field(b, "replicas").and_then(num).map(|n| n as u64) == Some(replicas)
        });
        let Some(base) = base else {
            println!(
                "  churn s={shards} r={replicas:<12} {cur_digest}  (no baseline row; skipped)"
            );
            continue;
        };
        for (label, key, cur) in [
            ("churn", "results_digest", &cur_digest),
            ("churn prefix", "prefix_digest", &cur_prefix),
        ] {
            let base_digest = match field(base, key) {
                Some(Value::Str(v)) => v.clone(),
                _ => return Err(format!("serve_churn baseline row missing `{key}`")),
            };
            let ok = *cur == base_digest;
            println!(
                "  {label} s={shards} r={replicas:<6} {cur}  baseline {base_digest}  {}",
                if ok { "ok" } else { "FAIL" }
            );
            if !ok {
                gate.failures.push(format!(
                    "serve_churn shards={shards} replicas={replicas}: `{key}` \
                     diverged from baseline"
                ));
            }
        }
        if let (Some(evicted), Some(seq)) = (
            field(row, "evicted").and_then(num),
            field(row, "sequential").and_then(duration_secs),
        ) {
            let total = retained + evicted;
            let pct = if total > 0.0 {
                100.0 * retained / total
            } else {
                100.0
            };
            println!(
                "  {:<22} {pct:>7.1}% retained, schedule {seq:.4}s  (informational)",
                "churn retention"
            );
        }
    }
    Ok(())
}

/// Rewrites a baseline file from the current document: the named section
/// plus the run's `meta`, pretty-printed.
fn update_baseline(current_doc: &Value, section: &str, path: &str) -> Result<bool, String> {
    let Some(rows) = field(current_doc, section) else {
        eprintln!(
            "benchgate: WARNING: `{section}` not in current document; \
             baseline untouched ({path})"
        );
        return Ok(false);
    };
    let mut out: Vec<(String, Value)> = vec![(section.to_owned(), rows.clone())];
    if let Some(meta) = field(current_doc, "meta") {
        out.push(("meta".to_owned(), meta.clone()));
    }
    let text = serde_json::to_string_pretty(&Value::Object(out))
        .map_err(|e| format!("serializing {section} baseline: {e}"))?;
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    println!("  {section:<22} baseline rewritten: {path}");
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    const USAGE: &str = "usage: benchgate CURRENT.json [--baseline PATH] \
         [--kernels-baseline PATH] [--serve-concurrent-baseline PATH] \
         [--serve-sharded-baseline PATH] [--serve-replicated-baseline PATH] \
         [--serve-churn-baseline PATH] [--update-baselines]";
    let mut current: Option<String> = None;
    let mut baseline =
        concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/serve_smoke.json").to_owned();
    let mut kernels_baseline =
        concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/kernels.json").to_owned();
    let mut serve_concurrent_baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/baselines/serve_concurrent.json"
    )
    .to_owned();
    let mut serve_sharded_baseline =
        concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/serve_sharded.json").to_owned();
    let mut serve_replicated_baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/baselines/serve_replicated.json"
    )
    .to_owned();
    let mut serve_churn_baseline =
        concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/serve_churn.json").to_owned();
    let mut update = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                match args.get(i + 1) {
                    Some(p) => baseline = p.clone(),
                    None => {
                        eprintln!("--baseline requires a path");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--kernels-baseline" => {
                match args.get(i + 1) {
                    Some(p) => kernels_baseline = p.clone(),
                    None => {
                        eprintln!("--kernels-baseline requires a path");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--serve-concurrent-baseline" => {
                match args.get(i + 1) {
                    Some(p) => serve_concurrent_baseline = p.clone(),
                    None => {
                        eprintln!("--serve-concurrent-baseline requires a path");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--serve-sharded-baseline" => {
                match args.get(i + 1) {
                    Some(p) => serve_sharded_baseline = p.clone(),
                    None => {
                        eprintln!("--serve-sharded-baseline requires a path");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--serve-replicated-baseline" => {
                match args.get(i + 1) {
                    Some(p) => serve_replicated_baseline = p.clone(),
                    None => {
                        eprintln!("--serve-replicated-baseline requires a path");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--serve-churn-baseline" => {
                match args.get(i + 1) {
                    Some(p) => serve_churn_baseline = p.clone(),
                    None => {
                        eprintln!("--serve-churn-baseline requires a path");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--update-baselines" => {
                update = true;
                i += 1;
            }
            s if !s.starts_with("--") && current.is_none() => {
                current = Some(s.to_owned());
                i += 1;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(current) = current else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if update {
        // Every gated section must be present: a partial document must
        // not silently leave stale baselines behind (exit 2 after still
        // rewriting whatever IS present, so the warning lists exactly
        // what the caller forgot to generate).
        let result = load(&current).and_then(|doc| {
            println!("bench gate: rewriting baselines from {current}");
            let sections = [
                ("serve", baseline.as_str()),
                ("kernels", kernels_baseline.as_str()),
                ("serve_concurrent", serve_concurrent_baseline.as_str()),
                ("serve_sharded", serve_sharded_baseline.as_str()),
                ("serve_replicated", serve_replicated_baseline.as_str()),
                ("serve_churn", serve_churn_baseline.as_str()),
            ];
            let mut missing: Vec<&str> = Vec::new();
            for (section, path) in sections {
                if !update_baseline(&doc, section, path)? {
                    missing.push(section);
                }
            }
            if missing.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "current document is missing section(s) {}; regenerate with \
                     `repro serve serve_concurrent kernels --smoke --shards 1,2,4 \
                     --replicas 2,3 --workers 2 --churn --json CURRENT.json` and rerun",
                    missing.join(", ")
                ))
            }
        });
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchgate: {e}");
                ExitCode::from(2)
            }
        };
    }
    match run(
        &current,
        &baseline,
        &kernels_baseline,
        &serve_concurrent_baseline,
        &serve_sharded_baseline,
        &serve_replicated_baseline,
        &serve_churn_baseline,
    ) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchgate: {e}");
            ExitCode::from(2)
        }
    }
}
