//! Known defects the benchmark workloads run into, pinned so that a fix
//! shows up as a failing test here. Each test names the workload change
//! its fix unlocks.

use bft::pbft::{PbftCluster, PbftProc};
use consensus_core::driver::{ClusterDriver, DriverConfig};
use nemesis::checker::{check_log_agreement, check_state_digests};
use paxos::MultiPaxosCluster;
use simnet::{DiskModel, NetConfig, Time};
use store::{Store, StoreConfig};

/// `Store<MultiPaxosCluster>` on durable storage panics on range scans.
///
/// `mirror_applied` writes every decided `Put` into the B+ tree, even when
/// the machine deduplicated a retransmitted one, so an old value
/// overwrites a newer one and the index diverges from the machine; Raft
/// checks freshness first. Seed 7, 2 shards × 3 replicas, 4 routers with
/// 20 transactions, 20 single-key ops and 5 range scans each, 64 keys per
/// shard, checkpoints every 16 commands. When this is fixed the test
/// fails: delete it and add Multi-Paxos to the `store-read` workload.
#[test]
#[should_panic(expected = "engine index diverged from machine on range scan")]
fn durable_multi_paxos_range_scan_diverges() {
    let cfg = StoreConfig::new(7)
        .shards(2)
        .replicas(3)
        .routers(4)
        .txns_per_router(20)
        .singles_per_router(20)
        .ranges_per_router(5)
        .keys_per_shard(64)
        .net(NetConfig::lan())
        .durable(16, DiskModel::ssd());
    let mut s: Store<MultiPaxosCluster> = Store::new(cfg);
    s.run(Time::from_secs(600));
}

/// PBFT replicas disagree after the primary crashes under load.
///
/// The `smr-failover` run of PBFT at seed 5 (7 replicas, 8 closed-loop
/// clients, unbatched, LAN plus NIC model, primary crashed at 1 s, run to
/// 2.5 s) ends with two replicas that executed different requests at the
/// same sequence number, and different state digests after the same
/// number of applied requests. When this is fixed the test fails: delete
/// it and set `pbft: true` in the `smr-failover` spec.
#[test]
fn pbft_primary_crash_breaks_agreement() {
    let cfg = DriverConfig::new(7, 8, 1_000_000, 5).with_net(bench::throughput::net_profile());
    let mut d = PbftCluster::from_config(&cfg);
    d.run_until(Time(1_000_000));
    // The primary of the view most live replicas are in.
    let mut views: Vec<(u64, simnet::NodeId)> = d
        .sim
        .nodes()
        .filter_map(|(_, p)| match p {
            PbftProc::Replica(r) => Some((r.view, r.primary_of(r.view))),
            _ => None,
        })
        .collect();
    views.sort();
    let primary = views[views.len() / 2].1;
    let at = d.now().0 + 1;
    d.crash_at(primary, Time(at));
    d.run_until(Time(2_500_000));
    assert!(!check_log_agreement(&d.decided_log()).is_empty());
    assert!(!check_state_digests(&d.state_digests()).is_empty());
}
