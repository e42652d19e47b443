//! `gts-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds and prints two JSON
//! lines: a report (host facts, workload sizes, repetitions, failed
//! share), then the result — `correct`, `attempted`, `failed` and the
//! metrics: the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. See `benchmark/README.md`.

use gts_benchmark::json::Json;
use gts_benchmark::measure::{end_to_end, per_layer, Outcome};
use gts_benchmark::workload::{Size, Workload};
use gts_core::prelude::*;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: gts-benchmark --workload <dc_stream|dc_backlog|flat_topo_p> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?).filter(|s| (1..=600).contains(s)),
            "--trace" => trace = Some(number()?).filter(|t| *t <= 1).map(|t| t == 1),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be a number from 1 to 600")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

/// The first `GTS_*` engine knob set in the environment, if any: a run
/// must measure the shipped defaults.
fn knob_set() -> Option<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("GTS_"))
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git; "unknown" elsewhere.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host's cumulative `(steal, total)` CPU time from `/proc/stat`, in
/// clock ticks; `None` where it is unavailable. Steal is time the
/// hypervisor gave this machine's virtual CPUs to someone else.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn report(args: &Args, outcome: &Outcome, steal_share: Option<f64>) -> Json {
    let shape = args.workload.shape(Size::Full);
    let cluster = gts_benchmark::workload::build_cluster(&shape);
    let profiles = gts_benchmark::workload::build_profiles(&cluster, args.seed);
    let shards = ClusterState::new(cluster, profiles).shards().n_shards();
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let host = Json::obj([
        ("available_parallelism", Json::Int(threads as u64)),
        ("build_profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("git_rev", Json::str(git_rev())),
        ("steal_share", steal_share.map_or(Json::str("unknown"), Json::Num)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ]);
    let workload = Json::obj([
        ("name", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("policy", Json::str(Policy::new(shape.policy).kind.to_string())),
        ("machines", Json::Int(shape.machines() as u64)),
        ("racks", Json::Int(shape.racks.unwrap_or(1) as u64)),
        ("shards", Json::Int(shards as u64)),
        ("jobs", Json::Int(shape.jobs as u64)),
        ("arrival_rate_per_min", Json::Num(shape.rate_per_min)),
        ("iterations", Json::Int(u64::from(shape.iterations))),
    ]);
    Json::obj([(
        "report",
        Json::obj([
            ("host", host),
            ("workload", workload),
            ("traced", Json::Bool(args.trace)),
            ("seconds", Json::Int(args.seconds)),
            ("repetitions", Json::Int(outcome.reps as u64)),
            ("decide_samples_per_replay", Json::Int(outcome.decide_samples)),
            ("gate_checked_placements", Json::Int(outcome.gate_checked)),
            ("mean_wait_s", Json::Num(outcome.mean_wait_s)),
            ("failed_share", Json::Num(outcome.failed as f64 / outcome.attempted as f64)),
        ]),
    )])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = knob_set() {
        eprintln!("{knob} is set: the benchmark measures the shipped defaults; unset every GTS_* variable");
        return ExitCode::from(2);
    }
    let shape = args.workload.shape(Size::Full);
    let budget = Duration::from_secs(args.seconds);
    let ticks_before = cpu_ticks();
    let outcome = if args.trace {
        per_layer(shape, args.seed, budget)
    } else {
        end_to_end(shape, args.seed, budget)
    };
    let steal_share = ticks_before
        .zip(cpu_ticks())
        .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    println!("{}", report(&args, &outcome, steal_share));
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))])));
    let result = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
