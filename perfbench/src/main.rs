//! The EdgeSlice benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-proto|online-sim|history-proto|net-uds> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! end-to-end metrics with tracing off; with `--trace 1` it makes the
//! traced run and reports the per-layer metrics (spans are written to
//! `perfbench/out/`). Every run checks the program's outputs. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it holds the run's
//! provenance and sample counts. A failed check exits with code 1.

#![forbid(unsafe_code)]

mod checks;
mod netio;
mod replica;
mod stats;
mod trace;
mod workloads;

use serde::{Serialize, Value};

use workloads::{Outcome, Workload};

/// End-to-end metrics (`--trace 0`), name and unit, in `BENCHMARK.json`
/// order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("env_steps_per_s", "1/s"),
    ("rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
];

/// Per-layer metrics (`--trace 1`), name and unit, in `BENCHMARK.json`
/// order.
const PER_LAYER: [(&str, &str); 30] = [
    ("rl.update_us", "us"),
    ("rl.updates", "count"),
    ("rl.update.sample_us", "us"),
    ("rl.update.critic_us", "us"),
    ("rl.update.actor_us", "us"),
    ("rl.update.adam_us", "us"),
    ("rl.update.polyak_us", "us"),
    ("rl.update.gemm_flops", "flop"),
    ("nn.actor_fwd_us", "us"),
    ("nn.fleet_fwd_us", "us"),
    ("env.step_us", "us"),
    ("env.steps", "count"),
    ("engine.dispatch_us", "us"),
    ("coord.admm_us", "us"),
    ("monitor.query_us", "us"),
    ("monitor.record_us", "us"),
    ("monitor.records", "count"),
    ("store.save_run_ms", "ms"),
    ("store.snapshots", "count"),
    ("store.bytes_written", "B"),
    ("frame.encode_us", "us"),
    ("frame.decode_us", "us"),
    ("frame.bytes_per_round", "B"),
    ("net.send_retries", "count"),
    ("net.leases_expired", "count"),
    ("ledger.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
    ("sla_met_frac", "frac"),
    ("system_perf", "1"),
    ("failed_frac", "frac"),
];

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "perfbench: {problem}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                );
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed takes an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds takes a positive integer")),
        trace: trace.unwrap_or_else(|| usage("--trace takes 0 or 1")),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn provenance(args: &Args) -> Value {
    let revision = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    obj(vec![
        ("git_revision", revision.to_value()),
        ("nproc", nproc.to_value()),
        ("execution", args.workload.execution().to_value()),
        ("threads", workloads::THREADS.to_value()),
        ("workload", args.workload.name().to_value()),
        (
            "listed_in_benchmark_json",
            Workload::BENCHMARKED.contains(&args.workload).to_value(),
        ),
        ("seed", args.seed.to_value()),
        ("seconds", args.seconds.to_value()),
        ("trace", args.trace.to_value()),
        ("build_profile", profile.to_value()),
    ])
}

fn main() {
    let args = parse_args();
    let mut out = Outcome::default();
    if args.trace {
        workloads::run_traced(args.workload, args.seed, &mut out);
    } else {
        workloads::run(args.workload, args.seed, args.seconds, &mut out);
    }
    if let Some(trace) = &out.trace {
        let path =
            workloads::out_dir().join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        if let Err(err) =
            std::fs::create_dir_all(workloads::out_dir()).and_then(|()| trace.write(&path))
        {
            out.checks
                .require(false, || format!("writing {}: {err}", path.display()));
        }
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let emitted: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    out.checks.require(emitted == expected, || {
        format!("emitted metrics {emitted:?} differ from BENCHMARK.json's {expected:?}")
    });
    let failures = out.checks.failures();
    for f in failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let detail = Value::Object(out.detail.clone());
    let failure_list: Vec<String> = failures.to_vec();
    println!(
        "{}",
        serde_json::to_string(&obj(vec![
            ("provenance", provenance(&args)),
            ("detail", detail),
            ("check_failures", failure_list.to_value()),
        ]))
        .expect("provenance serialises")
    );
    let correct = failures.is_empty() && out.metrics.iter().all(|m| m.value.is_finite());
    // A failed output check counts as a failed operation too.
    let failed = out.failed + failures.len();
    let attempted = out.attempted.max(failed).max(1);
    let metrics = Value::Object(
        out.metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj(vec![
                        ("value", m.value.to_value()),
                        ("unit", m.unit.to_value()),
                    ]),
                )
            })
            .collect(),
    );
    println!(
        "{}",
        serde_json::to_string(&obj(vec![
            ("correct", correct.to_value()),
            ("attempted", attempted.to_value()),
            ("failed", failed.to_value()),
            ("metrics", metrics),
        ]))
        .expect("result serialises")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get_field(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| match (m.get_field("name"), m.get_field("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("malformed {key} entry {m:?}"),
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        let Some(Value::Array(workloads)) = doc.get_field("workloads") else {
            panic!("BENCHMARK.json has no workloads list");
        };
        let names: Vec<&Value> = workloads
            .iter()
            .filter_map(|w| w.get_field("name"))
            .collect();
        let expected: Vec<Value> = Workload::BENCHMARKED
            .iter()
            .map(|w| Value::Str(w.name().to_string()))
            .collect();
        assert_eq!(names, expected.iter().collect::<Vec<_>>());
    }
}
