//! Wall-clock cost of the storage layer and the WAL codecs, measured by
//! replaying a run's decided commands into a fresh [`DurableEngine`] and
//! timing each public call from outside.
//!
//! The replay does what a replica does per decided command, unbatched:
//! encode a WAL record, log and sync it, apply the command to the state
//! machine, mirror the written key into the primary index, serve range
//! scans from the index, and checkpoint every `threshold` commands. It ends
//! with crash/recover cycles and decodes every record it encoded.

use std::hint::black_box;
use std::time::Instant;

use consensus_core::{Command, DedupKvMachine, KvCommand, SmrOp, StateMachine};
use paxos::multi::{MpMachine, MpOp};
use simnet::DiskModel;
use storage::{DurableEngine, StorageEngine};

use crate::report::{median, Metrics};

/// Crash/recover cycles timed at the end of a replay.
const RECOVERIES: usize = 5;

/// The record and checkpoint formats of one consensus engine.
pub trait WalCodec {
    type Machine: StateMachine + Default;
    fn apply(machine: &mut Self::Machine, cmd: &Command<KvCommand>);
    fn value(machine: &Self::Machine, key: &str) -> Option<String>;
    fn encode(index: usize, cmd: &Command<KvCommand>) -> Vec<u8>;
    fn decodes(bytes: &[u8]) -> bool;
    fn snapshot(machine: &Self::Machine, applied: usize) -> Vec<u8>;
}

/// `paxos::durable`: decided-slot records, `MpMachine` checkpoints.
pub struct PaxosCodec;

impl WalCodec for PaxosCodec {
    type Machine = MpMachine;
    fn apply(machine: &mut MpMachine, cmd: &Command<KvCommand>) {
        machine.apply(&MpOp::Cmd(cmd.clone()));
    }
    fn value(machine: &MpMachine, key: &str) -> Option<String> {
        machine.kv().get(key).cloned()
    }
    fn encode(index: usize, cmd: &Command<KvCommand>) -> Vec<u8> {
        paxos::durable::encode_record(&paxos::durable::WalRecord::Decide {
            index,
            op: MpOp::Cmd(cmd.clone()),
        })
    }
    fn decodes(bytes: &[u8]) -> bool {
        paxos::durable::decode_record(bytes).is_some()
    }
    fn snapshot(machine: &MpMachine, applied: usize) -> Vec<u8> {
        paxos::durable::encode_snapshot(machine, applied)
    }
}

/// `raft::durable`: log-append records, `DedupKvMachine` checkpoints.
pub struct RaftCodec;

impl WalCodec for RaftCodec {
    type Machine = DedupKvMachine;
    fn apply(machine: &mut DedupKvMachine, cmd: &Command<KvCommand>) {
        machine.apply(&SmrOp::Cmd(cmd.clone()));
    }
    fn value(machine: &DedupKvMachine, key: &str) -> Option<String> {
        machine.kv().get(key).cloned()
    }
    fn encode(index: usize, cmd: &Command<KvCommand>) -> Vec<u8> {
        raft::durable::encode_record(&raft::durable::WalRecord::Append {
            index,
            entry: raft::Entry {
                term: 1,
                op: SmrOp::Cmd(cmd.clone()),
            },
        })
    }
    fn decodes(bytes: &[u8]) -> bool {
        raft::durable::decode_record(bytes).is_some()
    }
    fn snapshot(machine: &DedupKvMachine, applied: usize) -> Vec<u8> {
        raft::durable::encode_snapshot(machine, applied, 1)
    }
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Replays each command stream into its own fresh engine and reports
/// `storage.*` and `codec.*` wall metrics over all of them.
pub fn replay<C: WalCodec>(
    streams: &[Vec<Command<KvCommand>>],
    threshold: usize,
    disk: DiskModel,
) -> Metrics {
    assert!(threshold > 0, "checkpoint threshold must be positive");
    let (mut put, mut sync, mut scan, mut snap, mut recover) =
        (vec![], vec![], vec![], vec![], vec![]);
    for cmds in streams {
        let mut engine = DurableEngine::new(disk);
        let mut machine = C::Machine::default();
        for (i, cmd) in cmds.iter().enumerate() {
            let rec = C::encode(i + 1, cmd);
            let t = Instant::now();
            engine.log_record(&rec);
            engine.sync();
            sync.push(ns(t));
            C::apply(&mut machine, cmd);
            match &cmd.op {
                KvCommand::Put { key, .. }
                | KvCommand::Cas { key, .. }
                | KvCommand::Delete { key } => {
                    let value = C::value(&machine, key);
                    let t = Instant::now();
                    match value {
                        Some(v) => engine.put(key, &v),
                        None => engine.delete(key),
                    }
                    put.push(ns(t));
                }
                KvCommand::Range { start, end, .. } => {
                    let t = Instant::now();
                    black_box(engine.scan(start, end));
                    scan.push(ns(t));
                }
                KvCommand::Get { .. } => {}
            }
            if (i + 1) % threshold == 0 {
                let blob = C::snapshot(&machine, i + 1);
                let t = Instant::now();
                engine.write_snapshot(&blob);
                snap.push(ns(t) / 1e3);
            }
        }
        for _ in 0..RECOVERIES {
            engine.crash();
            let t = Instant::now();
            black_box(engine.recover());
            recover.push(ns(t) / 1e3);
        }
    }

    // Codec cost per record, timed over the whole record set at once so
    // clock reads do not dominate sub-microsecond calls.
    let cmds: Vec<&Command<KvCommand>> = streams.iter().flatten().collect();
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = cmds
        .iter()
        .enumerate()
        .map(|(i, c)| black_box(C::encode(i + 1, c)))
        .collect();
    let encode_ns = ns(t) / cmds.len().max(1) as f64;
    let t = Instant::now();
    let decoded = encoded.iter().filter(|b| C::decodes(black_box(b))).count();
    let decode_ns = ns(t) / cmds.len().max(1) as f64;
    assert_eq!(decoded, encoded.len(), "a WAL record failed to round-trip");

    let mut m = Metrics::default();
    for (name, unit, v) in [
        ("storage.put_ns", "ns", &put),
        ("storage.sync_ns", "ns", &sync),
        ("storage.scan_ns", "ns", &scan),
        ("storage.snapshot_us", "us", &snap),
        ("storage.recover_us", "us", &recover),
    ] {
        if !v.is_empty() {
            m.wall(name, unit, median(v), v.len() as u64);
        }
    }
    m.wall("codec.encode_ns", "ns", encode_ns, encoded.len() as u64);
    m.wall("codec.decode_ns", "ns", decode_ns, encoded.len() as u64);
    m
}
