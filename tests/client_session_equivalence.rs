//! Pinned client-path counters under faults, for Multi-Paxos, Raft and PBFT.
//!
//! Each protocol runs at n=5 with four closed-loop clients, 1% message loss
//! from the start, a crash of the leader (PBFT: the primary) at 200 ms, and
//! a 200 ms partition that isolates whichever node leads at 500 ms. That
//! schedule drives every client path: redirects and their hints, the
//! nudge, retry expiries, strikes and guess rotation, and PBFT's broadcast
//! retry with its f+1 reply quorum. None of those paths has a byte-exact
//! oracle elsewhere: the throughput artifact is fault-free and the nemesis
//! sweeps check safety only.
//!
//! The pinned values are exact: messages sent, timer fires, the request /
//! reply / not-leader kind counts, completed operations, and an FNV-1a hash
//! of the merged client history. A refactor of the client session must
//! leave every one of them unchanged. The Multi-Paxos and Raft rows are
//! pinned with one armed retry deadline per client; PBFT's broadcast
//! retry still arms a timer per issue, so giving it a single deadline is
//! expected to move its row, with every moved number explained.

use forty::bft::pbft::{PbftCluster, PbftProc};
use forty::consensus_core::driver::{ClusterDriver, DriverConfig};
use forty::paxos::MultiPaxosCluster;
use forty::raft::RaftCluster;
use forty::simnet::{NodeId, Time};

const SEED: u64 = 11;
const CRASH_US: u64 = 200_000;
const PARTITION_US: u64 = 500_000;
const PARTITION_LEN_US: u64 = 200_000;
const HORIZON: Time = Time(30_000_000);

/// Counters a client-session change must leave untouched.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    sent: u64,
    timer_fires: u64,
    requests: u64,
    replies: u64,
    not_leader: u64,
    completed: usize,
    history_hash: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Steps in 1 ms increments until `leading` names a node.
fn wait_for_leader<D: ClusterDriver>(d: &mut D, leading: fn(&D) -> Option<NodeId>) -> NodeId {
    loop {
        if let Some(l) = leading(d) {
            return l;
        }
        let next = Time(d.now().0 + 1_000);
        d.run_until(next);
    }
}

fn run_schedule<D: ClusterDriver>(leading: fn(&D) -> Option<NodeId>) -> Pins {
    let cfg = DriverConfig::new(5, 4, 40, SEED);
    let mut d = D::from_config(&cfg);
    d.set_drop_prob(0.01);
    d.run_until(Time(CRASH_US));
    let first = wait_for_leader(&mut d, leading);
    let at = Time(d.now().0 + 1);
    d.crash_at(first, at);
    d.run_until(Time(PARTITION_US));
    let second = wait_for_leader(&mut d, leading);
    let start = d.now().0 + 1;
    d.partition_at(Time(start), vec![vec![second]]);
    d.heal_at(Time(start + PARTITION_LEN_US));
    assert!(d.run(HORIZON), "{} did not finish its workload", d.protocol());
    let m = d.metrics();
    Pins {
        sent: m.sent,
        timer_fires: m.timer_fires,
        requests: m.kind("request"),
        replies: m.kind("reply"),
        not_leader: m.kind("not-leader"),
        completed: d.completed_ops(),
        history_hash: fnv1a(format!("{:?}", d.history()).as_bytes()),
    }
}

/// The primary of the view most live replicas are in.
fn pbft_primary(c: &PbftCluster) -> Option<NodeId> {
    let mut views: Vec<(u64, NodeId)> = c
        .sim
        .nodes()
        .filter(|(id, _)| c.sim.is_alive(*id))
        .filter_map(|(_, p)| match p {
            PbftProc::Replica(r) => Some((r.view, r.primary_of(r.view))),
            _ => None,
        })
        .collect();
    views.sort();
    views.get(views.len() / 2).map(|&(_, p)| p)
}

#[test]
fn multi_paxos_client_path_is_pinned() {
    let pins = run_schedule::<MultiPaxosCluster>(MultiPaxosCluster::leader);
    assert_eq!(
        pins,
        Pins {
            sent: 3950,
            timer_fires: 65,
            requests: 175,
            replies: 163,
            not_leader: 8,
            completed: 160,
            history_hash: 17793642983728521533,
        }
    );
}

#[test]
fn raft_client_path_is_pinned() {
    let pins = run_schedule::<RaftCluster>(RaftCluster::leader);
    assert_eq!(
        pins,
        Pins {
            sent: 2128,
            timer_fires: 62,
            requests: 170,
            replies: 161,
            not_leader: 8,
            completed: 160,
            history_hash: 4089817058552367928,
        }
    );
}

#[test]
fn pbft_client_path_is_pinned() {
    let pins = run_schedule::<PbftCluster>(pbft_primary);
    assert_eq!(
        pins,
        Pins {
            sent: 10303,
            timer_fires: 188,
            requests: 517,
            replies: 590,
            not_leader: 0,
            completed: 160,
            history_hash: 11259363665605415215,
        }
    );
}
