//! Served-path benchmark for the temporal-mining server.
//!
//! Starts an in-process `tdm-server` with a fixed deployment config and
//! drives it over loopback TCP with closed-loop clients, checks every reply
//! against a serial `Miner::mine`, and prints every metric by name and unit.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload mine-hot --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload, then replays its requests through each layer's public
//! functions under spans and reports the per-layer metrics. Spans are
//! written to `.servebench/` in the working directory. See `DESIGN.md`.

mod check;
mod harness;
mod inputs;
mod replay;
mod report;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use tdm_server::json::Value;

use crate::report::Metric;
use crate::workloads::{Outcome, RunSpec};

const WORKLOADS: [&str; 3] = ["mine-hot", "mine-cold", "ingest-mixed"];
/// Upper bound on the traced replay's duration.
const REPLAY_BUDGET: Duration = Duration::from_secs(5);

struct Args {
    workload: String,
    spec: RunSpec,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut spec = RunSpec {
        seed: 0,
        content_seed: inputs::CONTENT_SEED,
        seconds: 0.0,
        trace: false,
    };
    let (mut seed, mut seconds) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                spec.seed = value.parse().map_err(|_| bad("an unsigned integer"))?;
                seed = true;
            }
            "--seconds" => {
                spec.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if spec.seconds.is_nan() || spec.seconds <= 0.0 {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = true;
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--content-seed" => {
                spec.content_seed = value.parse().map_err(|_| bad("an unsigned integer"))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if !seed || !seconds {
        return Err("--seed and --seconds are required".into());
    }
    Ok(Args { workload, spec })
}

/// The git commit of the working directory, read from `.git` without
/// leaving it; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|c| c.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPUs this process may run on (what `nproc` prints).
fn nproc() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return harness::parallelism();
    };
    list.trim()
        .split(',')
        .filter_map(|range| {
            let mut ends = range.split('-').map(|n| n.trim().parse::<usize>().ok());
            let lo = ends.next()??;
            let hi = ends.next().flatten().unwrap_or(lo);
            Some(hi + 1 - lo)
        })
        .sum()
}

fn header(args: &Args) {
    let s = &args.spec;
    println!(
        "# servebench workload={} seed={} content_seed={} seconds={} trace={}",
        args.workload,
        s.seed,
        s.content_seed,
        s.seconds,
        u8::from(s.trace)
    );
    println!(
        "# nproc={} available_parallelism={}",
        nproc(),
        harness::parallelism()
    );
    println!("# build=release commit={}", git_commit());
    println!("# deployment {}", harness::describe());
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "mine-hot" => workloads::mine_hot(&args.spec),
        "mine-cold" => workloads::mine_cold(&args.spec),
        _ => workloads::ingest_mixed(&args.spec),
    }
}

fn print_metrics(kind: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{kind} {} {} {}", m.name, m.value, m.unit);
    }
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(m.value)),
                        ("unit".into(), Value::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line of a finished run and the exit status it implies: a run
/// with any mismatch or violated invariant is not correct and exits 1.
fn conclude(out: &Outcome, metrics: &[Metric]) -> (Value, ExitCode) {
    let (attempted, failed) = report::op_totals(out);
    let correct = out.verdict.is_correct();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::u64(attempted)),
        ("failed".into(), Value::u64(failed)),
        ("metrics".into(), metrics_value(metrics)),
    ]);
    let code = if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    (result, code)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("servebench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--content-seed <n>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    header(&args);
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("servebench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let replay = args.spec.trace.then(|| {
        let budget = REPLAY_BUDGET.min(Duration::from_secs_f64(args.spec.seconds / 4.0));
        replay::run(&out.replay, &out.expected, harness::parallelism(), budget)
    });
    if let Some(r) = &replay {
        for m in &r.mismatches {
            out.verdict.fail(m.clone());
        }
        let path = format!(
            ".servebench/trace-{}-seed{}.tsv",
            args.workload, args.spec.seed
        );
        let mut tracers: Vec<&trace::Tracer> = out.rec.tracers.iter().collect();
        tracers.push(&r.tracer);
        match trace::write_tsv(Path::new(&path), &tracers) {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => eprintln!("servebench: could not write spans to {path}: {e}"),
        }
    }

    let e2e = report::end_to_end(&out);
    let layer = report::per_layer(&out, replay.as_ref());
    for (kind, ops) in &out.rec.ops {
        println!(
            "ops {kind} attempted={} succeeded={} failed={}",
            ops.attempted,
            ops.attempted - ops.failed,
            ops.failed
        );
    }
    println!(
        "samples mine={} window={} append={} measured_s={} setup_s={:?}",
        out.rec.mine.len(),
        out.rec.windows.len(),
        out.rec.appends_us.len(),
        out.measured.as_secs_f64(),
        out.setup_s
    );
    print_metrics("e2e", &e2e);
    print_metrics("layer", &layer);
    println!(
        "checked {} replies against the oracle",
        out.verdict.checked()
    );
    for m in out.verdict.mismatches() {
        println!("MISMATCH {m}");
    }

    let (result, code) = conclude(&out, if args.spec.trace { &layer } else { &e2e });
    println!("{}", result.encode());
    code
}
