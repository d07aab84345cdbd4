//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload from a single thread:
//!
//! 1. **Timed window.** The workload runs from scratch, with the same seed,
//!    again and again until `--seconds` have passed (at least
//!    [`MIN_REPS`] times). Simulated-time metrics come from the first run;
//!    every later run must reproduce them bit for bit. Each run is timed
//!    in laps (10 ms of simulated time, or one `Store::step`); since every
//!    run does the same work lap for lap, a wall-clock cost is the sum over
//!    laps of each lap's fastest time. Other tenants of the host slow runs
//!    down for seconds at a time, and the fastest of identical laps is the
//!    least disturbed. Set-up time is the median of many builds.
//! 2. **Correctness phase** (untimed): the nemesis safety and
//!    linearizability checkers on the last run.
//! 3. **Traced phase** (`--trace 1` only): the decided commands replayed
//!    into a fresh storage engine with each call timed, and one traced run
//!    whose simulated-time metrics must equal the untraced run's, split by
//!    critical-path bucket.
//!
//! Every metric is printed as a report line with unit, clock and sample
//! count. The last line of standard output is the JSON result: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//! See `README.md` beside this file for what each metric means.

mod kv;
mod replay;
mod report;
mod smr;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use paxos::MultiPaxosCluster;
use raft::RaftCluster;
use store::Store;

use kv::{Engine, StoreRun};
use report::{median, print_report, result_json, Metrics};
use smr::ProtoRun;
use trace::Breakdown;

/// Fewest timed runs per invocation: the determinism check needs two, and
/// a third gives every lap a fastest of three.
const MIN_REPS: usize = 3;

/// Builds timed per invocation for `setup_s`: at least this many, and
/// for at least [`SETUP_SECONDS`].
const SETUPS: usize = 15;
const SETUP_SECONDS: f64 = 0.5;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["smr-saturate", "smr-failover", "store-txn", "store-read"];

/// End-to-end metrics of the result line (`--trace 0`): those every
/// workload has and that runs of the same code reproduce within a bound.
/// `wall_us_per_op` is left to the report: on a shared host the same work
/// takes up to 2.7 times as long from one half-minute to the next.
const END_TO_END: [&str; 3] = ["goodput_ops_s", "setup_s", "peak_rss_mb"];

/// Per-layer metrics of the result line (`--trace 1`): those every
/// workload measures. The report lines carry the workload-specific rest.
const PER_LAYER: [&str; 16] = [
    "simnet.msgs_per_op",
    "simnet.timers_per_op",
    "simnet.bytes_per_op",
    "simnet.ns_per_event",
    "simnet.nic_us",
    "client.requests_per_op",
    "client.redirects_per_op",
    "client.replies_per_op",
    "cnc.agreement_us",
    "storage.put_ns",
    "storage.sync_ns",
    "storage.snapshot_us",
    "storage.recover_us",
    "codec.encode_ns",
    "codec.decode_ns",
    "trace.overhead_frac",
];

/// What one run measured.
#[derive(Default)]
pub struct RunOut {
    pub metrics: Metrics,
    /// Completed operations.
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// A workload built and warmed up, ready to run.
enum Built {
    Smr(&'static smr::SmrSpec, Vec<Box<dyn smr::Protocol>>),
    Txn(Vec<Store<MultiPaxosCluster>>),
    Read(Vec<Store<RaftCluster>>),
}

impl Built {
    fn new(workload: &str, seed: u64, traced: bool) -> Built {
        match workload {
            "smr-saturate" => Built::Smr(&smr::SATURATE, smr::build(&smr::SATURATE, seed, traced)),
            "smr-failover" => Built::Smr(&smr::FAILOVER, smr::build(&smr::FAILOVER, seed, traced)),
            "store-txn" => Built::Txn(kv::build(&kv::TXN, seed, traced)),
            "store-read" => Built::Read(kv::build(&kv::READ, seed, traced)),
            other => unreachable!("workload {other} was validated"),
        }
    }

    fn run(self) -> Run {
        match self {
            Built::Smr(spec, clusters) => Run::Smr(smr::run(spec, clusters)),
            Built::Txn(s) => Run::Txn(kv::run(&kv::TXN, s)),
            Built::Read(s) => Run::Read(kv::run(&kv::READ, s)),
        }
    }
}

/// One run of a workload.
enum Run {
    Smr(Vec<ProtoRun>),
    Txn(StoreRun<MultiPaxosCluster>),
    Read(StoreRun<RaftCluster>),
}

impl Run {
    /// Wall seconds of each timed lap, per protocol or store. Every run at
    /// one seed does the same work lap for lap.
    fn laps(&self) -> Vec<Vec<f64>> {
        match self {
            Run::Smr(runs) => runs.iter().map(|r| r.laps.clone()).collect(),
            Run::Txn(r) => r.stores.iter().map(|o| o.laps.clone()).collect(),
            Run::Read(r) => r.stores.iter().map(|o| o.laps.clone()).collect(),
        }
    }

    fn measure(&self) -> RunOut {
        let mut out = RunOut::default();
        match self {
            Run::Smr(runs) => smr::measure(runs, &mut out),
            Run::Txn(r) => kv::measure(r, &mut out),
            Run::Read(r) => kv::measure(r, &mut out),
        }
        out
    }

    fn wall_metrics(&self, laps: &[Vec<f64>]) -> Vec<(String, &'static str, f64)> {
        match self {
            Run::Smr(runs) => smr::wall_metrics(runs, laps),
            Run::Txn(r) => kv::wall_metrics(r, laps),
            Run::Read(r) => kv::wall_metrics(r, laps),
        }
    }

    fn check(&mut self) -> Vec<String> {
        match self {
            Run::Smr(runs) => smr::check(runs),
            Run::Txn(r) => kv::check(r),
            Run::Read(r) => kv::check(r),
        }
    }

    fn replay(&self) -> Metrics {
        match self {
            Run::Smr(runs) => MultiPaxosCluster::replay(&[smr::decided_commands(runs)]),
            Run::Txn(r) => MultiPaxosCluster::replay(&kv::decided_commands(r)),
            Run::Read(r) => RaftCluster::replay(&kv::decided_commands(r)),
        }
    }

    fn breakdown(&self, out: &mut Breakdown) {
        match self {
            Run::Smr(runs) => smr::breakdown(runs, out),
            Run::Txn(r) => kv::breakdown(r, out),
            Run::Read(r) => kv::breakdown(r, out),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? == 1),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// `nproc`, CPU model and the compiler that built this binary.
fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    )
}

/// Peak resident set of this process so far (MiB).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host {}", host());
    let mut problems: Vec<String> = Vec::new();

    // 1. Set-up, then the timed window.
    let mut setup = Vec::new();
    let began = Instant::now();
    while setup.len() < SETUPS || began.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = Instant::now();
        let built = Built::new(&args.workload, args.seed, false);
        setup.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    let began = Instant::now();
    let mut fastest_run = f64::MAX;
    let mut fastest_laps: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<RunOut> = None;
    let mut last: Option<Run> = None;
    let mut reps = 0;
    while reps < MIN_REPS || began.elapsed().as_secs_f64() < args.seconds as f64 {
        // Free the previous run first, so the peak holds one run.
        drop(last.take());
        let run = Built::new(&args.workload, args.seed, false).run();
        let out = run.measure();
        let laps = run.laps();
        fastest_run = fastest_run.min(laps.iter().flatten().sum());
        match &first {
            None => {
                fastest_laps = laps;
                first = Some(out);
            }
            Some(f) => {
                let same_shape = laps.len() == fastest_laps.len()
                    && laps
                        .iter()
                        .zip(&fastest_laps)
                        .all(|(a, b)| a.len() == b.len());
                if !same_shape || f.metrics.sim_fingerprint() != out.metrics.sim_fingerprint() {
                    problems.push(format!(
                        "nondeterminism: run {reps} differs from run 0 at the same seed"
                    ));
                } else {
                    for (best, now) in fastest_laps.iter_mut().flatten().zip(laps.iter().flatten())
                    {
                        *best = best.min(*now);
                    }
                }
            }
        }
        last = Some(run);
        reps += 1;
    }
    let rss = peak_rss_mb();
    let mut out = first.expect("at least one run");
    let mut run = last.expect("at least one run");
    let m = &mut out.metrics;
    let ops = out.ops.max(1) as f64;
    let fastest_total: f64 = fastest_laps.iter().flatten().sum();
    m.wall(
        "wall_us_per_op",
        "us",
        fastest_total * 1e6 / ops,
        reps as u64,
    );
    m.wall("setup_s", "s", median(&setup), setup.len() as u64);
    m.wall("peak_rss_mb", "MiB", rss, 1);
    for (name, unit, v) in run.wall_metrics(&fastest_laps) {
        m.wall(&name, unit, v, reps as u64);
    }

    // 2. Correctness phase.
    let t = Instant::now();
    let violations = run.check();
    m.wall("check_s", "s", t.elapsed().as_secs_f64(), 1);
    problems.extend(violations.into_iter().map(|v| format!("violation: {v}")));

    // 3. Traced phase.
    if args.trace {
        m.extend(run.replay());
        drop(run);
        let traced = Built::new(&args.workload, args.seed, true).run();
        let traced_out = traced.measure();
        if traced_out.metrics.sim_fingerprint() != m.sim_fingerprint() {
            problems
                .push("traced run's simulated-time metrics differ from the untraced run's".into());
        }
        m.wall(
            "trace.overhead_frac",
            "frac",
            traced.laps().iter().flatten().sum::<f64>() / fastest_run - 1.0,
            1,
        );
        let mut split = Breakdown::default();
        traced.breakdown(&mut split);
        if !split.reconciles() {
            problems.push("trace buckets do not sum to the measured latency".into());
        }
        if split.disagreed > 0 {
            problems.push(format!(
                "fast split disagrees with attribute_window on {} of {} windows",
                split.disagreed, split.checked
            ));
        }
        m.sim(
            "trace.latency_us",
            "us",
            split.latency_total as f64 / split.windows.max(1) as f64,
            split.windows,
        );
        for (name, mean) in split.means() {
            m.sim(name, "us", mean, split.windows);
        }
    }

    print_report(&args.workload, m);
    for p in &problems {
        println!("PROBLEM {p}");
    }
    let correct = problems.is_empty();
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, &out.metrics, names)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads and result-line metrics are exactly those
    /// `BENCHMARK.json` names, in the same order.
    #[test]
    fn names_match_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        let named: Vec<&str> = doc
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote"))
            .collect();
        let ours: Vec<&str> = WORKLOADS
            .iter()
            .chain(&END_TO_END)
            .chain(&PER_LAYER)
            .copied()
            .collect();
        assert_eq!(named, ours);
    }
}
