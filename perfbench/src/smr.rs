//! The SMR workloads: Multi-Paxos, Raft and (where it is safe) PBFT run in
//! turn through [`ClusterDriver`] under the same clients, network and
//! simulated window.

use std::collections::HashMap;
use std::time::Instant;

use bft::pbft::PbftCluster;
use consensus_core::driver::{BatchConfig, ClusterDriver, DriverConfig};
use consensus_core::{ClientRecord, Command};
use nemesis::checker::{check_integrity, check_log_agreement, check_state_digests, check_validity};
use nemesis::lin::{check_linearizable, DEFAULT_BUDGET};
use paxos::MultiPaxosCluster;
use raft::RaftCluster;
use simnet::causal::cat;
use simnet::{NodeId, Time};

use crate::report::ratio;
use crate::trace::{Breakdown, SpanIndex, Splitter};
use crate::RunOut;

/// Message kinds exchanged between clients and replicas; every other kind
/// is consensus traffic.
pub const CLIENT_KINDS: [&str; 5] = ["request", "reply", "not-leader", "read", "read-resp"];

/// Commands per client: more than any client completes in the window, so
/// every client stays busy until the window closes.
const CMDS_PER_CLIENT: usize = 1_000_000;

/// Simulated time per timed lap (µs).
const LAP_US: u64 = 10_000;

/// Windows cross-checked against `attribute_window` per traced protocol.
const CROSS_CHECKS: usize = 8;

/// One SMR workload.
pub struct SmrSpec {
    pub n: usize,
    pub clients: usize,
    pub batch: BatchConfig,
    /// Simulated window every protocol runs for (µs).
    pub window_us: u64,
    /// Crash whichever node leads at this instant (µs).
    pub crash_at_us: Option<u64>,
    /// Whether PBFT runs after Multi-Paxos and Raft.
    pub pbft: bool,
}

/// `smr-saturate`: batched, 48 closed-loop clients, fault-free.
pub const SATURATE: SmrSpec = SmrSpec {
    n: 7,
    clients: 48,
    batch: BatchConfig::new(16, 400, 16),
    window_us: 1_500_000,
    crash_at_us: None,
    pbft: true,
};

/// `smr-failover`: unbatched, 8 clients, the leader crashes mid-window.
///
/// PBFT sits this workload out: after its primary crashes, replicas can
/// execute different requests at one sequence number (seed 5 shows it).
/// `tests/defects.rs` pins that; fixing it flips the test and sets `pbft`.
pub const FAILOVER: SmrSpec = SmrSpec {
    n: 7,
    clients: 8,
    batch: BatchConfig::unbatched(),
    window_us: 2_500_000,
    crash_at_us: Some(1_000_000),
    pbft: false,
};

/// What the benchmark needs from a protocol beyond [`ClusterDriver`].
pub trait Protocol: ClusterDriver {
    /// Metric prefix of the protocol's layer.
    fn prefix(&self) -> &'static str;
    /// The node leading right now, if exactly one does.
    fn leading(&self) -> Option<NodeId>;
    /// Leadership takeovers after the first leader (PBFT: view changes).
    fn elections(&self) -> u64;
}

impl Protocol for MultiPaxosCluster {
    fn prefix(&self) -> &'static str {
        "paxos"
    }
    fn leading(&self) -> Option<NodeId> {
        self.leader()
    }
    fn elections(&self) -> u64 {
        self.replicas()
            .map(|r| r.view_changes)
            .sum::<u64>()
            .saturating_sub(1)
    }
}

impl Protocol for RaftCluster {
    fn prefix(&self) -> &'static str {
        "raft"
    }
    fn leading(&self) -> Option<NodeId> {
        self.leader()
    }
    fn elections(&self) -> u64 {
        self.replicas()
            .map(|r| r.elections_won)
            .sum::<u64>()
            .saturating_sub(1)
    }
}

impl Protocol for PbftCluster {
    fn prefix(&self) -> &'static str {
        "bft"
    }
    fn leading(&self) -> Option<NodeId> {
        // The primary of the view most live replicas are in.
        let mut views: Vec<(u64, NodeId)> = self
            .sim
            .nodes()
            .filter(|(id, _)| self.sim.is_alive(*id))
            .filter_map(|(_, p)| match p {
                bft::pbft::PbftProc::Replica(r) => Some((r.view, r.primary_of(r.view))),
                _ => None,
            })
            .collect();
        views.sort();
        views.get(views.len() / 2).map(|&(_, p)| p)
    }
    fn elections(&self) -> u64 {
        self.replicas()
            .map(|r| r.view_changes_completed)
            .max()
            .unwrap_or(0)
    }
}

/// One protocol's run inside an SMR workload.
pub struct ProtoRun {
    pub driver: Box<dyn Protocol>,
    pub crash_at: Option<u64>,
    pub window_us: u64,
    /// Wall seconds of each [`LAP_US`] of simulated time.
    pub laps: Vec<f64>,
}

fn build_one<P: Protocol + 'static>(spec: &SmrSpec, seed: u64, traced: bool) -> Box<dyn Protocol> {
    let cfg = DriverConfig::new(spec.n, spec.clients, CMDS_PER_CLIENT, seed)
        .with_batch(spec.batch)
        .with_net(bench::throughput::net_profile());
    let mut d = P::from_config(&cfg);
    if traced {
        d.enable_tracing(1);
    }
    Box::new(d)
}

/// Builds the workload's clusters.
pub fn build(spec: &SmrSpec, seed: u64, traced: bool) -> Vec<Box<dyn Protocol>> {
    let mut clusters = vec![
        build_one::<MultiPaxosCluster>(spec, seed, traced),
        build_one::<RaftCluster>(spec, seed, traced),
    ];
    if spec.pbft {
        clusters.push(build_one::<PbftCluster>(spec, seed, traced));
    }
    clusters
}

/// Runs each cluster through the window in turn, one timed lap at a time.
pub fn run(spec: &SmrSpec, clusters: Vec<Box<dyn Protocol>>) -> Vec<ProtoRun> {
    clusters
        .into_iter()
        .map(|mut d| {
            let mut laps = Vec::new();
            let mut crash_at = None;
            while d.now().0 < spec.window_us {
                let t = Instant::now();
                let next = (d.now().0 + LAP_US).min(spec.window_us);
                d.run_until(Time(next));
                if spec
                    .crash_at_us
                    .is_some_and(|c| crash_at.is_none() && next >= c)
                {
                    let leader = loop {
                        if let Some(l) = d.leading() {
                            break l;
                        }
                        let later = d.now().0 + 1_000;
                        d.run_until(Time(later));
                    };
                    let when = d.now().0 + 1;
                    d.crash_at(leader, Time(when));
                    crash_at = Some(when);
                }
                laps.push(t.elapsed().as_secs_f64());
            }
            ProtoRun {
                driver: d,
                crash_at,
                window_us: spec.window_us,
                laps,
            }
        })
        .collect()
}

/// Requests completed inside the window, with their latency windows.
fn done(run: &ProtoRun) -> Vec<ClientRecord> {
    run.driver
        .history()
        .into_iter()
        .filter(|r| r.completed_at().is_some_and(|t| t <= run.window_us))
        .collect()
}

/// Longest stretch after `crash` with no completed request, including a
/// stretch that runs to the end of the window.
fn unavailable_us(completions: &mut [u64], crash: u64, window_end: u64) -> u64 {
    completions.sort_unstable();
    let mut prev = crash;
    let mut worst = 0;
    for &t in completions.iter().filter(|&&t| t >= crash) {
        worst = worst.max(t - prev);
        prev = t;
    }
    worst.max(window_end.saturating_sub(prev))
}

/// Simulated-time metrics and per-layer counts of a whole SMR workload.
pub fn measure(runs: &[ProtoRun], out: &mut RunOut) {
    let m = &mut out.metrics;
    let mut lat_all = Vec::new();
    let (mut ops_all, mut span_all) = (0u64, 0u64);
    let (mut sent, mut timers, mut bytes) = (0u64, 0u64, 0u64);
    let mut kinds: HashMap<&str, u64> = HashMap::new();
    let mut unavail = Vec::new();
    for r in runs {
        let recs = done(r);
        let lat: Vec<u64> = recs
            .iter()
            .map(|c| c.completed_at().expect("completed") - c.invoked)
            .collect();
        let first = recs.iter().map(|c| c.invoked).min().unwrap_or(0);
        let last = recs
            .iter()
            .filter_map(|c| c.completed_at())
            .max()
            .unwrap_or(0);
        let ops = recs.len() as u64;
        let span = last.saturating_sub(first).max(1);
        let p = r.driver.prefix();
        m.sim(
            &format!("{p}.goodput_ops_s"),
            "ops/s",
            ops as f64 * 1e6 / span as f64,
            ops,
        );
        m.percentiles(&format!("{p}.op"), &lat, true);
        if let Some(c) = r.crash_at {
            let mut t: Vec<u64> = recs.iter().filter_map(|c| c.completed_at()).collect();
            let u = unavailable_us(&mut t, c, r.window_us) as f64 / 1e3;
            m.sim(&format!("{p}.unavail_ms"), "ms", u, 1);
            unavail.push(u);
        }
        let met = r.driver.metrics();
        let client: u64 = CLIENT_KINDS.iter().map(|k| met.kind(k)).sum();
        m.sim(
            &format!("{p}.consensus_msgs_per_op"),
            "count",
            ratio((met.sent - client) as f64, ops as f64),
            ops,
        );
        m.sim(
            &format!("{p}.elections"),
            "count",
            r.driver.elections() as f64,
            1,
        );
        m.sim(
            &format!("{p}.batch_mean"),
            "count",
            met.batch_size.mean(),
            met.batch_size.count(),
        );
        sent += met.sent;
        timers += met.timer_fires;
        bytes += met.bytes_sent;
        for k in CLIENT_KINDS {
            *kinds.entry(k).or_insert(0) += met.kind(k);
        }
        lat_all.extend(lat);
        ops_all += ops;
        span_all += span;
        out.attempted += ops;
    }
    m.sim(
        "goodput_ops_s",
        "ops/s",
        ops_all as f64 * 1e6 / span_all as f64,
        ops_all,
    );
    m.percentiles("op", &lat_all, true);
    if !unavail.is_empty() {
        let mean = unavail.iter().sum::<f64>() / unavail.len() as f64;
        m.sim("unavail_ms", "ms", mean, unavail.len() as u64);
    }
    // SMR clients retry until answered and are never refused, so every
    // request either completed in the window or was still in flight.
    m.sim("failed_frac", "frac", 0.0, ops_all);
    let per_op = |v: u64| ratio(v as f64, ops_all as f64);
    m.sim("simnet.msgs_per_op", "count", per_op(sent), ops_all);
    m.sim("simnet.timers_per_op", "count", per_op(timers), ops_all);
    m.sim("simnet.bytes_per_op", "B", per_op(bytes), ops_all);
    m.sim(
        "client.requests_per_op",
        "count",
        per_op(kinds["request"]),
        ops_all,
    );
    m.sim(
        "client.redirects_per_op",
        "count",
        per_op(kinds["not-leader"]),
        ops_all,
    );
    m.sim(
        "client.replies_per_op",
        "count",
        per_op(kinds["reply"]),
        ops_all,
    );
    out.ops += ops_all;
}

/// Wall-clock per-layer metrics, given each protocol's fastest laps.
pub fn wall_metrics(runs: &[ProtoRun], laps: &[Vec<f64>]) -> Vec<(String, &'static str, f64)> {
    let mut v = Vec::new();
    let (mut total_events, mut total_ns) = (0u64, 0f64);
    for (r, laps) in runs.iter().zip(laps) {
        let met = r.driver.metrics();
        let events = met.sent + met.timer_fires;
        let ns = laps.iter().sum::<f64>() * 1e9;
        v.push((
            format!("{}.ns_per_event", r.driver.prefix()),
            "ns",
            ratio(ns, events as f64),
        ));
        total_events += events;
        total_ns += ns;
    }
    v.push((
        "simnet.ns_per_event".into(),
        "ns",
        ratio(total_ns, total_events as f64),
    ));
    v
}

/// The correctness phase: log agreement, validity, integrity, state
/// digests and linearizability on every protocol's run.
pub fn check(runs: &[ProtoRun]) -> Vec<String> {
    let mut bad = Vec::new();
    for r in runs {
        let d = &r.driver;
        let log = d.decided_log();
        let history = d.history();
        let mut v = check_log_agreement(&log);
        v.extend(check_validity(&log, &d.issued()));
        v.extend(check_integrity(&log));
        v.extend(check_state_digests(&d.state_digests()));
        v.extend(check_linearizable(&history, DEFAULT_BUDGET));
        bad.extend(v.into_iter().map(|x| format!("{}: {x}", d.prefix())));
    }
    bad
}

/// Commands the Multi-Paxos run completed, in completion order: the
/// stream the storage replay is fed.
pub fn decided_commands(runs: &[ProtoRun]) -> Vec<Command<consensus_core::KvCommand>> {
    let mut recs = done(&runs[0]);
    recs.sort_by_key(|r| (r.completed_at(), r.client, r.seq));
    recs.into_iter()
        .map(|r| Command {
            client: r.client,
            seq: r.seq,
            op: r.op,
        })
        .collect()
}

/// Splits every completed request of a traced run into buckets.
pub fn breakdown(runs: &[ProtoRun], out: &mut Breakdown) {
    for r in runs {
        let spans = r.driver.causal_spans();
        // Root spans are named `op c<client> s<seq>`.
        let roots: HashMap<(u32, u64), u64> = spans
            .iter()
            .filter(|s| s.cat == cat::OP)
            .filter_map(|s| {
                let mut it = s.name.strip_prefix("op c")?.split(" s");
                Some((
                    (it.next()?.parse().ok()?, it.next()?.parse().ok()?),
                    s.trace_id,
                ))
            })
            .collect();
        let splitter = Splitter::new(&spans);
        let mut windows = Vec::new();
        for c in done(r) {
            let end = c.completed_at().expect("completed");
            let trace = roots.get(&(c.client, c.seq)).copied().unwrap_or(0);
            out.add(splitter.split(trace, c.invoked, end), end - c.invoked);
            windows.push((end - c.invoked, trace, c.invoked, end));
        }
        // Cross-check the shortest windows, where attribute_window is cheap.
        windows.sort_unstable();
        let sample: Vec<(u64, u64, u64)> = windows
            .iter()
            .take(CROSS_CHECKS)
            .map(|&(_, t, a, b)| (t, a, b))
            .collect();
        let index = SpanIndex::new(&spans);
        out.checked += sample.len() as u64;
        out.disagreed += splitter.disagreements(&index, &sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unavailability_counts_the_open_tail() {
        assert_eq!(unavailable_us(&mut [10, 40, 45], 20, 100), 55);
        assert_eq!(unavailable_us(&mut [10, 90, 95], 20, 100), 70);
        assert_eq!(unavailable_us(&mut [], 20, 100), 80);
    }
}
