//! Criterion benches, one group per experiment family. Each measurement is
//! the wall-clock cost of running the whole deterministic simulation — a
//! real end-to-end execution of the protocol implementation.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use agreement::interactive_consistency;
use agreement::oral_messages::{om, ParitySplit, ATTACK};
use atomic_commit::{three_phase, two_phase};
use bft::cheapbft::CheapCluster;
use bft::hotstuff::{HsCluster, HsConfig};
use bft::minbft::MinCluster;
use bft::pbft::PbftCluster;
use bft::seemore::{Mode, SeeMoReConfig, SmCluster};
use bft::xft::XftCluster;
use bft::zyzzyva::ZyzCluster;
use blockchain::attacks::{double_spend_success_rate, selfish_mining};
use blockchain::network::run_mining_network;
use blockchain::pos::{run_pos, PosMode};
use blockchain::pow::{mine_block, MiningParams};
use blockchain::{Blockchain, Transaction};
use consensus_core::{ClusterDriver, QuorumSpec};
use paxos::flexible::run_flexible;
use paxos::livelock::run_duel;
use paxos::{MultiPaxosCluster, RetryPolicy};
use raft::RaftCluster;
use simnet::{DelayModel, NetConfig, NodeId, Time};

const CMDS: usize = 10;

/// F1/F4 — Multi-Paxos commit pipeline across cluster sizes.
fn bench_paxos(c: &mut Criterion) {
    let mut g = c.benchmark_group("f4_multipaxos");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    for n in [3usize, 5, 7] {
        g.bench_with_input(BenchmarkId::new("commit", n), &n, |b, &n| {
            b.iter(|| {
                let mut cl = MultiPaxosCluster::new(
                    QuorumSpec::Majority { n },
                    n,
                    1,
                    CMDS,
                    NetConfig::lan(),
                    1,
                );
                assert!(cl.run(Time::from_secs(30)));
                cl.completed_ops()
            });
        });
    }
    g.finish();
}

/// F3 — the livelock duel, both policies.
fn bench_livelock(c: &mut Criterion) {
    let mut g = c.benchmark_group("f3_livelock");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g.bench_function("fixed_backoff_50ms", |b| {
        b.iter(|| run_duel(RetryPolicy::Fixed(0), 50, 1).prepares)
    });
    g.bench_function("randomized_backoff", |b| {
        b.iter(|| {
            run_duel(
                RetryPolicy::Randomized {
                    min: 500,
                    max: 5_000,
                },
                50,
                1,
            )
            .decided
        })
    });
    g.finish();
}

/// F6 — flexible quorum ablation: replication quorum size.
fn bench_flexible(c: &mut Criterion) {
    let mut g = c.benchmark_group("f6_flexible_paxos");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    for (label, q1, q2) in [("q2_4", 4usize, 4usize), ("q2_2", 6, 2), ("q2_1", 7, 1)] {
        g.bench_function(label, |b| {
            b.iter(|| run_flexible(QuorumSpec::Flexible { n: 7, q1, q2 }, CMDS, 2).mean_latency)
        });
    }
    g.finish();
}

/// F7/F8 — atomic commitment.
fn bench_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("f7_f8_commit");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(20);
    g.bench_function("2pc_commit", |b| {
        b.iter(|| {
            let mut sim = two_phase::build(&[true, true, true], NetConfig::lan(), 1);
            sim.run_until(Time::from_secs(1));
            two_phase::participant_states(&sim)
        })
    });
    g.bench_function("3pc_commit", |b| {
        b.iter(|| {
            let mut sim = three_phase::build(
                &[true, true, true],
                three_phase::CrashPoint::None,
                NetConfig::lan(),
                1,
            );
            sim.run_until(Time::from_secs(1));
            three_phase::participant_states(&sim)
        })
    });
    g.finish();
}

/// F11 — PBFT across cluster sizes (the quadratic curve).
fn bench_pbft(c: &mut Criterion) {
    let mut g = c.benchmark_group("f11_pbft");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    for n in [4usize, 7, 10] {
        g.bench_with_input(BenchmarkId::new("commit", n), &n, |b, &n| {
            b.iter(|| {
                let mut cl = PbftCluster::new(n, 1, CMDS, NetConfig::lan(), 2);
                assert!(cl.run(Time::from_secs(60)));
                cl.sim.metrics().sent
            });
        });
    }
    g.finish();
}

/// F12 — PBFT view change (checkpoint-interval ablation).
fn bench_pbft_viewchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("f12_pbft_viewchange");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g.bench_function("primary_crash_recovery", |b| {
        b.iter(|| {
            let mut cl = PbftCluster::new(4, 1, CMDS, NetConfig::lan(), 3);
            cl.sim.run_until(Time::from_millis(10));
            cl.sim.crash_at(NodeId(0), Time::from_millis(11));
            assert!(cl.run(Time::from_secs(60)));
            cl.replicas().map(|r| r.view).max()
        })
    });
    g.finish();
}

/// F13 — Zyzzyva fast path vs commit-certificate path.
fn bench_zyzzyva(c: &mut Criterion) {
    let mut g = c.benchmark_group("f13_zyzzyva");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g.bench_function("case1_fast_path", |b| {
        b.iter(|| {
            let mut cl = ZyzCluster::new(4, CMDS, NetConfig::lan(), 4);
            assert!(cl.run(Time::from_secs(30)));
            cl.client().fast_path
        })
    });
    g.bench_function("case2_commit_cert", |b| {
        b.iter(|| {
            let mut cl = ZyzCluster::new(4, CMDS, NetConfig::lan(), 4);
            cl.sim.crash_at(NodeId(3), Time::ZERO);
            assert!(cl.run(Time::from_secs(60)));
            cl.client().cert_path
        })
    });
    g.finish();
}

/// F14 — HotStuff sizes + the pipeline ablation.
fn bench_hotstuff(c: &mut Criterion) {
    let mut g = c.benchmark_group("f14_hotstuff");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    for n in [4usize, 7, 10] {
        g.bench_with_input(BenchmarkId::new("rotating", n), &n, |b, &n| {
            b.iter(|| {
                let mut cl = HsCluster::new(HsConfig::rotating(n), CMDS, 1, NetConfig::lan(), 5);
                assert!(cl.run(Time::from_secs(60)));
                cl.sim.metrics().sent
            });
        });
    }
    for (label, pipeline) in [("sequential", false), ("pipelined", true)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let cfg = HsConfig {
                    n_replicas: 4,
                    rotate: false,
                    pipeline,
                };
                let mut cl = HsCluster::new(cfg, 30, 4, NetConfig::lan(), 5);
                assert!(cl.run(Time::from_secs(60)));
                cl.sim.now().as_micros()
            });
        });
    }
    g.finish();
}

/// F15/F16 — trusted-component BFT.
fn bench_trusted(c: &mut Criterion) {
    let mut g = c.benchmark_group("f15_f16_trusted_bft");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g.bench_function("minbft", |b| {
        b.iter(|| {
            let mut cl = MinCluster::new(3, CMDS, NetConfig::lan(), 6);
            assert!(cl.run(Time::from_secs(30)));
            cl.sim.metrics().sent
        })
    });
    g.bench_function("cheapbft_tiny", |b| {
        b.iter(|| {
            let mut cl = CheapCluster::new(3, CMDS, NetConfig::lan(), 6);
            assert!(cl.run(Time::from_secs(30)));
            cl.sim.metrics().sent
        })
    });
    g.finish();
}

/// F17 — XFT common case.
fn bench_xft(c: &mut Criterion) {
    let mut g = c.benchmark_group("f17_xft");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g.bench_function("common_case", |b| {
        b.iter(|| {
            let mut cl = XftCluster::new(5, CMDS, NetConfig::lan(), 7);
            assert!(cl.run(Time::from_secs(30)));
            cl.sim.metrics().sent
        })
    });
    g.finish();
}

/// F18 — SeeMoRe's three modes.
fn bench_seemore(c: &mut Criterion) {
    let mut g = c.benchmark_group("f18_seemore");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    for mode in [Mode::One, Mode::Two, Mode::Three] {
        g.bench_function(format!("mode_{mode:?}"), |b| {
            b.iter(|| {
                let cfg = SeeMoReConfig { m: 1, c: 1, mode };
                let mut cl = SmCluster::new(cfg, CMDS, NetConfig::lan(), 8);
                assert!(cl.run(Time::from_secs(30)));
                cl.sim.metrics().sent
            });
        });
    }
    g.finish();
}

/// T2/T3 — agreement lower bounds.
fn bench_agreement(c: &mut Criterion) {
    let mut g = c.benchmark_group("t2_t3_agreement");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("interactive_consistency_n7", |b| {
        let faulty = [6usize].into_iter().collect();
        b.iter(|| interactive_consistency(&[1, 2, 3, 4, 5, 6, 7], &faulty, 1).agreement)
    });
    g.bench_function("om2_n7", |b| {
        let traitors = [0usize, 1].into_iter().collect();
        b.iter(|| om(7, 2, ATTACK, &traitors, &mut ParitySplit).messages)
    });
    g.finish();
}

/// F20 — real SHA-256 mining.
fn bench_mining(c: &mut Criterion) {
    let mut g = c.benchmark_group("f20_mining");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    let p = MiningParams::trivial();
    g.bench_function("mine_block_trivial", |b| {
        let mut height = 0u64;
        b.iter(|| {
            height += 1;
            mine_block(
                &p,
                blockchain::block::BlockHash::ZERO,
                height,
                0,
                vec![Transaction::transfer(height, 1, 2, 1, 0)],
                p.initial_bits,
                height as u32,
            )
            .hashes_tried
        })
    });
    g.bench_function("chain_extend_20", |b| {
        b.iter(|| {
            let mut chain = Blockchain::new(p);
            for h in 1..=20u64 {
                let mined = mine_block(
                    &p,
                    chain.tip(),
                    h,
                    0,
                    vec![],
                    chain.next_bits(),
                    (h * 600) as u32,
                );
                chain.add_block(mined.block);
            }
            chain.height()
        })
    });
    g.finish();
}

/// F21/F22 — the mining network.
fn bench_mining_network(c: &mut Criterion) {
    let mut g = c.benchmark_group("f21_f22_mining_network");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g.bench_function("four_miners_2s", |b| {
        b.iter(|| {
            run_mining_network(
                &[0.25, 0.25, 0.25, 0.25],
                30_000,
                NetConfig::synchronous().with_delay(DelayModel::Fixed(500)),
                2_000_000,
                9,
            )
            .best_height
        })
    });
    g.finish();
}

/// F24 — PoS slot selection.
fn bench_pos(c: &mut Criterion) {
    let mut g = c.benchmark_group("f24_pos");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("randomized_10k_slots", |b| {
        b.iter(|| run_pos(&[500, 300, 200], 10_000, PosMode::Randomized, 0, false, 10).blocks)
    });
    g.bench_function("coin_age_10k_slots", |b| {
        b.iter(|| run_pos(&[500, 300, 200], 10_000, PosMode::CoinAge, 0, false, 10).blocks)
    });
    g.finish();
}

/// F26/F27 — blockchain attacks.
fn bench_attacks(c: &mut Criterion) {
    let mut g = c.benchmark_group("f26_f27_attacks");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("double_spend_6conf", |b| {
        b.iter(|| double_spend_success_rate(6, 0.3, 2_000, 1))
    });
    g.bench_function("selfish_mining_100k", |b| {
        b.iter(|| selfish_mining(0.4, 0.5, 100_000, 1).revenue_share)
    });
    g.finish();
}

/// T5 — head-to-head of all SMR protocols at f = 1.
fn bench_compare(c: &mut Criterion) {
    let mut g = c.benchmark_group("t5_compare");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g.bench_function("multipaxos_n3", |b| {
        b.iter(|| {
            let mut cl = MultiPaxosCluster::new(
                QuorumSpec::Majority { n: 3 },
                3,
                1,
                CMDS,
                NetConfig::lan(),
                11,
            );
            assert!(cl.run(Time::from_secs(30)));
        })
    });
    g.bench_function("raft_n3", |b| {
        b.iter(|| {
            let mut cl = RaftCluster::new(3, 1, CMDS, NetConfig::lan(), 11);
            assert!(cl.run(Time::from_secs(30)));
        })
    });
    g.bench_function("pbft_n4", |b| {
        b.iter(|| {
            let mut cl = PbftCluster::new(4, 1, CMDS, NetConfig::lan(), 11);
            assert!(cl.run(Time::from_secs(30)));
        })
    });
    g.bench_function("hotstuff_n4", |b| {
        b.iter(|| {
            let mut cl = HsCluster::new(HsConfig::rotating(4), CMDS, 1, NetConfig::lan(), 11);
            assert!(cl.run(Time::from_secs(30)));
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_paxos,
    bench_livelock,
    bench_flexible,
    bench_commit,
    bench_pbft,
    bench_pbft_viewchange,
    bench_zyzzyva,
    bench_hotstuff,
    bench_trusted,
    bench_xft,
    bench_seemore,
    bench_agreement,
    bench_mining,
    bench_mining_network,
    bench_pos,
    bench_attacks,
    bench_compare
);
criterion_main!(benches);
