//! The store workloads: a sharded, durable `Store` driven through its
//! public API, one `Store::step` (router quantum) at a time.

use std::time::Instant;

use consensus_core::{ClientRecord, Command, KvCommand, ReadMode, TxnDecision};
use nemesis::checker::{check_range_consistency, check_txn_atomicity};
use nemesis::lin::{check_linearizable, DEFAULT_BUDGET};
use paxos::MultiPaxosCluster;
use raft::RaftCluster;
use simnet::DiskModel;
use storage::StorageStats;
use store::{GeoConfig, OpRecord, PlacementPolicy, ShardEngine, Store, StoreConfig, ROUTER_BASE};

use crate::replay::{self, PaxosCodec, RaftCodec};
use crate::report::{ratio, Metrics};
use crate::smr::{Protocol, CLIENT_KINDS};
use crate::trace::{Breakdown, SpanIndex};
use crate::RunOut;

/// Simulated-time cap on a store run; every workload quiesces far earlier.
const HORIZON_US: u64 = 600_000_000;

/// WAL checkpoint threshold of every durable replica (and of the replay).
pub const SNAPSHOT_THRESHOLD: usize = 64;

/// One store workload.
pub struct StoreSpec {
    pub shards: usize,
    pub replicas: usize,
    pub routers: usize,
    pub txns: usize,
    pub singles: usize,
    pub ranges: usize,
    /// Geo fast reads per router; 0 deploys a single datacenter.
    pub geo_reads: usize,
    pub keys_per_shard: usize,
    /// Shard-only simulated time before routers start (elections).
    pub warmup_us: u64,
    /// Independent stores per run, pooled: more stores narrow the spread
    /// between seeds without lengthening any one run.
    pub stores: usize,
}

/// `store-txn` on Multi-Paxos shards: 2PC-over-consensus transactions
/// alternating with single-key operations.
pub const TXN: StoreSpec = StoreSpec {
    shards: 4,
    replicas: 3,
    routers: 16,
    txns: 64,
    singles: 64,
    ranges: 0,
    geo_reads: 0,
    keys_per_shard: 16,
    warmup_us: 20_000,
    stores: 1,
};

/// `store-read` on Raft shards across three datacenters: a few writes,
/// then range scans, then geo fast reads.
pub const READ: StoreSpec = StoreSpec {
    shards: 3,
    replicas: 3,
    routers: 12,
    txns: 2,
    singles: 2,
    ranges: 10,
    geo_reads: 400,
    keys_per_shard: 16,
    warmup_us: 200_000,
    stores: 8,
};

impl StoreSpec {
    pub fn config(&self, seed: u64) -> StoreConfig {
        let mut cfg = StoreConfig::new(seed)
            .shards(self.shards)
            .replicas(self.replicas)
            .routers(self.routers)
            .txns_per_router(self.txns)
            .singles_per_router(self.singles)
            .ranges_per_router(self.ranges)
            .keys_per_shard(self.keys_per_shard)
            .net(bench::throughput::net_profile())
            .durable(SNAPSHOT_THRESHOLD, DiskModel::ssd());
        if self.geo_reads > 0 {
            cfg = cfg.geo(
                GeoConfig::three_dc()
                    .placement(PlacementPolicy::PrimaryWitness)
                    .local_read_pct(80)
                    .reads_per_router(self.geo_reads),
            );
        }
        cfg
    }

    fn items_per_router(&self) -> usize {
        self.txns + self.singles + self.ranges + self.geo_reads
    }
}

/// A shard engine the store workloads run on.
pub trait Engine: ShardEngine + Protocol {
    /// Storage counters summed over the shard's replicas.
    fn storage(&self) -> StorageStats;
    /// Replays decided shard commands into fresh durable engines.
    fn replay(streams: &[Vec<Command<KvCommand>>]) -> Metrics;
}

fn add(a: &mut StorageStats, b: StorageStats) {
    a.bytes_written += b.bytes_written;
    a.wal_appends += b.wal_appends;
    a.wal_flushes += b.wal_flushes;
    a.pool_hits += b.pool_hits;
    a.pool_misses += b.pool_misses;
    a.evictions += b.evictions;
    a.snapshots_written += b.snapshots_written;
}

impl Engine for MultiPaxosCluster {
    fn storage(&self) -> StorageStats {
        let mut s = StorageStats::default();
        for r in self.replicas() {
            add(&mut s, r.storage_stats().expect("durable replica"));
        }
        s
    }
    fn replay(streams: &[Vec<Command<KvCommand>>]) -> Metrics {
        replay::replay::<PaxosCodec>(streams, SNAPSHOT_THRESHOLD, DiskModel::ssd())
    }
}

impl Engine for RaftCluster {
    fn storage(&self) -> StorageStats {
        let mut s = StorageStats::default();
        for r in self.replicas() {
            add(&mut s, r.storage_stats().expect("durable replica"));
        }
        s
    }
    fn replay(streams: &[Vec<Command<KvCommand>>]) -> Metrics {
        replay::replay::<RaftCodec>(streams, SNAPSHOT_THRESHOLD, DiskModel::ssd())
    }
}

/// One store's run.
pub struct OneStore<E: ShardEngine> {
    pub store: Store<E>,
    /// Simulated time after each `Store::step` (µs).
    pub step_ends: Vec<u64>,
    /// Wall seconds of each step.
    pub laps: Vec<f64>,
}

/// A store workload's run: several independent stores, one after another.
pub struct StoreRun<E: ShardEngine> {
    pub stores: Vec<OneStore<E>>,
    pub routers: usize,
    /// Items attempted per store.
    pub attempted: u64,
}

/// Builds the workload's stores (store `i` seeded `seed · stores + i`)
/// and runs each one's shard-only warm-up.
pub fn build<E: Engine>(spec: &StoreSpec, seed: u64, traced: bool) -> Vec<Store<E>> {
    (0..spec.stores as u64)
        .map(|i| {
            let sub = seed.wrapping_mul(spec.stores as u64).wrapping_add(i);
            let mut s: Store<E> = Store::new(spec.config(sub));
            if traced {
                s.enable_tracing();
            }
            s.warm_up(spec.warmup_us);
            s
        })
        .collect()
}

/// Steps each store's routers until every item has an outcome.
pub fn run<E: Engine>(spec: &StoreSpec, stores: Vec<Store<E>>) -> StoreRun<E> {
    let stores = stores
        .into_iter()
        .map(|mut s| {
            let (mut step_ends, mut laps) = (Vec::new(), Vec::new());
            while !s.main_quiesced() {
                assert!(s.now() < HORIZON_US, "store workload did not quiesce");
                let t = Instant::now();
                s.step();
                laps.push(t.elapsed().as_secs_f64());
                step_ends.push(s.now());
            }
            OneStore {
                store: s,
                step_ends,
                laps,
            }
        })
        .collect();
    StoreRun {
        stores,
        routers: spec.routers,
        attempted: (spec.routers * spec.items_per_router()) as u64,
    }
}

impl<E: ShardEngine> StoreRun<E> {
    fn router_history(&self, s: &Store<E>) -> Vec<ClientRecord> {
        s.history()
            .into_iter()
            .filter(|c| is_router(self.routers, c.client))
            .collect()
    }
}

fn is_router(routers: usize, client: u32) -> bool {
    (ROUTER_BASE..ROUTER_BASE + routers as u32).contains(&client)
}

/// Merged-scan latencies: each scan's fan-out is invoked at once, so a
/// scan starts at the latest matching invoke before its merge.
fn scan_latencies(history: &[ClientRecord], ranges: &[store::RangeOutcome]) -> Vec<u64> {
    ranges
        .iter()
        .map(|o| {
            let started = history
                .iter()
                .filter(|c| c.client == o.client && c.invoked <= o.at)
                .filter(|c| {
                    matches!(&c.op, KvCommand::Range { start, end, limit }
                        if *start == o.start && *end == o.end && *limit == o.limit)
                })
                .map(|c| c.invoked)
                .max()
                .expect("a merged scan has a submitted fan-out");
            o.at - started
        })
        .collect()
}

/// Simulated-time metrics and per-layer counts, pooled over the stores.
pub fn measure<E: Engine>(r: &StoreRun<E>, out: &mut RunOut) {
    let m = &mut out.metrics;
    let (mut txn, mut commits, mut read, mut scan) = (vec![], 0, vec![], vec![]);
    let (mut local, mut read_index, mut fallback) = (0, 0, 0);
    let (mut done, mut failed, mut window) = (0u64, 0u64, 0u64);
    let (mut sent, mut timers, mut bytes, mut consensus, mut elections) = (0, 0, 0, 0, 0);
    let mut kinds = [0u64; CLIENT_KINDS.len()];
    let (mut batches, mut batched) = (0u64, 0f64);
    let mut st = StorageStats::default();
    for one in &r.stores {
        let s = &one.store;
        let history = r.router_history(s);
        // Routers run their items in order until quiesced, so every item
        // ends in an outcome except transactions recovery found no
        // decision for.
        let stalled = s.stalled().len() as u64;
        failed += stalled;
        done += r.attempted - stalled;
        let first = history.iter().map(|c| c.invoked).min().unwrap_or(0);
        let last = history
            .iter()
            .filter_map(|c| c.completed_at())
            .max()
            .unwrap_or(0);
        window += last.saturating_sub(first);
        for o in s.outcomes() {
            txn.push(o.latency_us);
            commits += usize::from(o.decision == TxnDecision::Commit);
        }
        for o in s.read_outcomes() {
            read.push(o.latency_us);
            local += usize::from(o.local);
            read_index += usize::from(o.mode == ReadMode::ReadIndex);
            fallback += usize::from(o.mode == ReadMode::Log);
        }
        scan.extend(scan_latencies(&history, &s.range_results()));
        for e in s.shards() {
            let met = e.metrics();
            sent += met.sent;
            timers += met.timer_fires;
            bytes += met.bytes_sent;
            for (i, k) in CLIENT_KINDS.iter().enumerate() {
                kinds[i] += met.kind(k);
            }
            consensus += met.sent - CLIENT_KINDS.iter().map(|k| met.kind(k)).sum::<u64>();
            elections += e.elections();
            batches += met.batch_size.count();
            batched += met.batch_size.mean() * met.batch_size.count() as f64;
            add(&mut st, e.storage());
        }
    }
    let attempted = r.attempted * r.stores.len() as u64;
    m.sim(
        "goodput_ops_s",
        "ops/s",
        done as f64 * 1e6 / window.max(1) as f64,
        done,
    );
    m.sim(
        "failed_frac",
        "frac",
        ratio(failed as f64, attempted as f64),
        attempted,
    );
    if !txn.is_empty() {
        m.percentiles("txn", &txn, true);
        m.sim(
            "store.commit_frac",
            "frac",
            ratio(commits as f64, txn.len() as f64),
            txn.len() as u64,
        );
    }
    if !read.is_empty() {
        m.percentiles("read", &read, true);
        m.percentiles("scan", &scan, false);
        let n = read.len() as f64;
        m.sim("geo.local_frac", "frac", local as f64 / n, n as u64);
        m.sim(
            "geo.read_index_frac",
            "frac",
            read_index as f64 / n,
            n as u64,
        );
        m.sim("geo.fallback_frac", "frac", fallback as f64 / n, n as u64);
    }
    let per_op = |v: u64| ratio(v as f64, done as f64);
    let p = r.stores[0].store.shards()[0].prefix();
    let shards = r.stores.iter().map(|o| o.store.shards().len() as u64).sum();
    m.sim(
        &format!("{p}.consensus_msgs_per_op"),
        "count",
        per_op(consensus),
        done,
    );
    m.sim(&format!("{p}.elections"), "count", elections as f64, shards);
    m.sim(
        &format!("{p}.batch_mean"),
        "count",
        ratio(batched, batches as f64),
        batches,
    );
    m.sim("simnet.msgs_per_op", "count", per_op(sent), done);
    m.sim("simnet.timers_per_op", "count", per_op(timers), done);
    m.sim("simnet.bytes_per_op", "B", per_op(bytes), done);
    m.sim("client.requests_per_op", "count", per_op(kinds[0]), done);
    m.sim("client.redirects_per_op", "count", per_op(kinds[2]), done);
    m.sim("client.replies_per_op", "count", per_op(kinds[1]), done);
    m.sim(
        "storage.wal_appends_per_op",
        "count",
        per_op(st.wal_appends),
        done,
    );
    m.sim(
        "storage.fsyncs_per_op",
        "count",
        per_op(st.wal_flushes),
        done,
    );
    m.sim(
        "storage.bytes_written_per_op",
        "B",
        per_op(st.bytes_written),
        done,
    );
    m.sim(
        "storage.pool_hit_frac",
        "frac",
        ratio(st.pool_hits as f64, (st.pool_hits + st.pool_misses) as f64),
        st.pool_hits + st.pool_misses,
    );
    m.sim(
        "storage.evictions_per_op",
        "count",
        per_op(st.evictions),
        done,
    );
    m.sim(
        "storage.snapshots_per_kop",
        "count",
        per_op(st.snapshots_written) * 1e3,
        done,
    );
    out.attempted += attempted;
    out.failed += failed;
    out.ops += done;
}

/// Wall-clock per-layer metrics, given each store's fastest step times.
pub fn wall_metrics<E: Engine>(
    r: &StoreRun<E>,
    laps: &[Vec<f64>],
) -> Vec<(String, &'static str, f64)> {
    let (mut events, mut steps, mut growth) = (0u64, 0usize, 0f64);
    for (one, laps) in r.stores.iter().zip(laps) {
        events += one
            .store
            .shards()
            .iter()
            .map(|e| e.metrics().sent + e.metrics().timer_fires)
            .sum::<u64>();
        steps += laps.len();
        // Wall time to complete the last tenth of the router ops over the
        // time to complete the first tenth, by completion order.
        let mut ends: Vec<u64> = r
            .router_history(&one.store)
            .iter()
            .filter_map(|c| c.completed_at())
            .collect();
        ends.sort_unstable();
        let mut elapsed = Vec::with_capacity(laps.len());
        let mut acc = 0.0;
        for lap in laps {
            acc += lap;
            elapsed.push(acc);
        }
        let wall_at = |t: u64| {
            elapsed[one
                .step_ends
                .partition_point(|&now| now < t)
                .min(elapsed.len() - 1)]
        };
        let tenth = (ends.len() / 10).max(1);
        let first = wall_at(ends[tenth - 1]);
        let last = acc - wall_at(ends[ends.len() - tenth - 1]);
        growth += ratio(last, first);
    }
    let ns = laps.iter().flatten().sum::<f64>() * 1e9;
    let per_event = ratio(ns, events as f64);
    let p = r.stores[0].store.shards()[0].prefix();
    vec![
        (format!("{p}.ns_per_event"), "ns", per_event),
        ("simnet.ns_per_event".into(), "ns", per_event),
        ("store.step_us".into(), "us", ns / 1e3 / steps.max(1) as f64),
        (
            "store.wall_growth".into(),
            "ratio",
            growth / r.stores.len() as f64,
        ),
    ]
}

/// The correctness phase, per store: audit every pool key through the
/// logs, then check transaction atomicity, range consistency and
/// linearizability of the whole history.
pub fn check<E: ShardEngine>(r: &mut StoreRun<E>) -> Vec<String> {
    let mut bad = Vec::new();
    for (i, one) in r.stores.iter_mut().enumerate() {
        let s = &mut one.store;
        s.start_audit();
        while !s.audit_done() {
            assert!(s.now() < HORIZON_US, "store audit did not finish");
            s.step();
        }
        let history = s.history();
        let mut v = check_txn_atomicity(&history);
        v.extend(check_range_consistency(&history));
        v.extend(check_linearizable(&history, DEFAULT_BUDGET));
        bad.extend(v.into_iter().map(|x| format!("store {i}: {x}")));
    }
    bad
}

/// Every completed command, per shard of each store, in completion order.
pub fn decided_commands<E: ShardEngine>(r: &StoreRun<E>) -> Vec<Vec<Command<KvCommand>>> {
    let mut all = Vec::new();
    for one in &r.stores {
        let s = &one.store;
        let mut recs: Vec<ClientRecord> = s
            .history()
            .into_iter()
            .filter(|c| c.is_complete())
            .collect();
        recs.sort_by_key(|c| (c.completed_at(), c.client, c.seq));
        let mut streams = vec![Vec::new(); s.shards().len()];
        for c in recs {
            let shards: Vec<usize> = match &c.op {
                KvCommand::Put { key, .. }
                | KvCommand::Get { key }
                | KvCommand::Delete { key }
                | KvCommand::Cas { key, .. } => vec![s.shard_of(key)],
                KvCommand::Range { .. } => (0..streams.len()).collect(),
            };
            for shard in shards {
                streams[shard].push(Command {
                    client: c.client,
                    seq: c.seq,
                    op: c.op.clone(),
                });
            }
        }
        all.extend(streams);
    }
    all
}

/// Splits a traced run: transactions with `txn_breakdown` when the
/// workload has no geo reads, otherwise every router op with
/// `op_breakdown`.
pub fn breakdown<E: ShardEngine>(r: &StoreRun<E>, out: &mut Breakdown) {
    for one in &r.stores {
        let s = &one.store;
        let spans = s.causal_spans();
        let index = SpanIndex::new(&spans);
        let ops: Vec<&OpRecord> = s
            .op_records()
            .iter()
            .filter(|o| is_router(r.routers, o.client))
            .collect();
        if s.read_outcomes().is_empty() {
            for o in s.outcomes() {
                let (start, end) = (o.at - o.latency_us, o.at);
                let mine: Vec<OpRecord> = ops
                    .iter()
                    .filter(|x| x.client == o.tid.client && x.started >= start && x.finished <= end)
                    .map(|&x| x.clone())
                    .collect();
                let traces: Vec<u64> = mine.iter().map(|x| x.trace_id).collect();
                let spans = index.subset(start, end, &traces);
                out.add(
                    bench::latency::txn_breakdown(&spans, &mine, start, end),
                    o.latency_us,
                );
            }
        } else {
            for o in ops {
                let spans = index.subset(o.started, o.finished, &[o.trace_id]);
                out.add(
                    bench::latency::op_breakdown(&spans, o),
                    o.finished - o.started,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(client: u32, start: &str, invoked: u64) -> ClientRecord {
        ClientRecord {
            client,
            seq: invoked,
            op: KvCommand::Range {
                start: start.into(),
                end: "z".into(),
                limit: 5,
            },
            invoked,
            completed: None,
        }
    }

    #[test]
    fn scan_latency_starts_at_the_latest_matching_fanout() {
        let history = vec![
            rec(100, "a", 10),
            rec(100, "a", 10),
            rec(100, "a", 50),
            rec(101, "a", 60),
        ];
        let outcome = store::RangeOutcome {
            client: 100,
            start: "a".into(),
            end: "z".into(),
            limit: 5,
            entries: Vec::new(),
            at: 70,
        };
        assert_eq!(scan_latencies(&history, &[outcome]), vec![20]);
    }
}
