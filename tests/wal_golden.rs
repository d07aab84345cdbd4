//! Golden bytes for the durable WAL and checkpoint formats.
//!
//! The per-protocol round-trip tests cannot catch a format change: encoder
//! and decoder would drift together. These tests pin the exact bytes of one
//! Multi-Paxos record per tag, one Raft record per tag, and one checkpoint
//! blob per protocol whose client table holds every reply shape, so any
//! change to a WAL or snapshot encoding shows up as a hex diff here (and
//! needs a format version bump).

use consensus_core::{Ballot, Command, DedupKvMachine, KvCommand, SmrOp, StateMachine};
use paxos::durable as mp;
use paxos::multi::{MpMachine, MpOp};
use raft::durable as rf;
use simnet::NodeId;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn cmd(client: u32, seq: u64, op: KvCommand) -> Command<KvCommand> {
    Command { client, seq, op }
}

fn put(key: &str, value: &str) -> KvCommand {
    KvCommand::Put {
        key: key.into(),
        value: value.into(),
    }
}

/// Commands whose replies cover `Ok`, `Value(Some)`, `Value(None)`,
/// `CasResult` and `Entries`; the last command of each client stays in the
/// client table.
fn history() -> Vec<Command<KvCommand>> {
    vec![
        cmd(1, 1, put("a", "1")),
        cmd(2, 1, put("b", "2")),
        cmd(3, 1, KvCommand::Get { key: "a".into() }),
        cmd(1, 2, KvCommand::Get { key: "zz".into() }),
        cmd(
            2,
            2,
            KvCommand::Cas {
                key: "b".into(),
                expect: "2".into(),
                new: "3".into(),
            },
        ),
        cmd(
            4,
            1,
            KvCommand::Range {
                start: "a".into(),
                end: "c".into(),
                limit: 8,
            },
        ),
        cmd(5, 7, KvCommand::Delete { key: "q".into() }),
    ]
}

#[test]
fn multi_paxos_wal_records_are_pinned() {
    let cases = [
        (
            mp::WalRecord::Promise {
                ballot: Ballot::new(7, 2),
            },
            "01000000070000000000000002000000",
        ),
        (
            mp::WalRecord::Accept {
                index: 42,
                ballot: Ballot::new(3, 1),
                op: MpOp::Batch(vec![
                    cmd(9, 4, put("k", "v")),
                    cmd(
                        3,
                        1,
                        KvCommand::Range {
                            start: "a".into(),
                            end: "q".into(),
                            limit: 16,
                        },
                    ),
                ].into()),
            },
            concat!(
                "020000002a000000000000000300000000000000010000000200000002000000",
                "09000000040000000000000000000000010000006b0100000076030000000100",
                "00000000000004000000010000006101000000711000000000000000",
            ),
        ),
        (
            mp::WalRecord::Accept {
                index: 43,
                ballot: Ballot::new(3, 1),
                op: MpOp::Cmd(cmd(
                    9,
                    5,
                    KvCommand::Cas {
                        key: "k".into(),
                        expect: "v".into(),
                        new: "w".into(),
                    },
                )),
            },
            concat!(
                "020000002b000000000000000300000000000000010000000100000009000000",
                "050000000000000003000000010000006b01000000760100000077",
            ),
        ),
        (
            mp::WalRecord::Decide {
                index: 5,
                op: MpOp::Noop,
            },
            "03000000050000000000000000000000",
        ),
        (
            mp::WalRecord::Decide {
                index: 6,
                op: MpOp::Cmd(cmd(2, 3, KvCommand::Delete { key: "x".into() })),
            },
            concat!(
                "0300000006000000000000000100000002000000030000000000000002000000",
                "0100000078",
            ),
        ),
        (
            mp::WalRecord::TxnDecision {
                key: "~dec.t100.3".into(),
                value: "commit".into(),
            },
            "040000000b0000007e6465632e743130302e3306000000636f6d6d6974",
        ),
    ];
    for (rec, want) in cases {
        let bytes = mp::encode_record(&rec);
        assert_eq!(hex(&bytes), want, "{rec:?}");
        assert_eq!(mp::decode_record(&bytes), Some(rec));
    }
}

#[test]
fn raft_wal_records_are_pinned() {
    let cases = [
        (
            rf::WalRecord::HardState {
                term: 7,
                voted_for: Some(NodeId(2)),
            },
            "01000000070000000000000002000000",
        ),
        (
            rf::WalRecord::HardState {
                term: 8,
                voted_for: None,
            },
            "010000000800000000000000ffffffff",
        ),
        (
            rf::WalRecord::Append {
                index: 42,
                entry: raft::Entry {
                    term: 7,
                    op: SmrOp::Cmd(cmd(
                        1,
                        6,
                        KvCommand::Range {
                            start: "a".into(),
                            end: "q".into(),
                            limit: 16,
                        },
                    )),
                },
            },
            concat!(
                "020000002a000000000000000700000000000000010000000100000006000000",
                "0000000004000000010000006101000000711000000000000000",
            ),
        ),
        (
            rf::WalRecord::Append {
                index: 1,
                entry: raft::Entry {
                    term: 1,
                    op: SmrOp::Noop,
                },
            },
            "020000000100000000000000010000000000000000000000",
        ),
        (
            rf::WalRecord::Truncate { from: 17 },
            "030000001100000000000000",
        ),
        (
            rf::WalRecord::Commit { index: 40 },
            "040000002800000000000000",
        ),
        (
            rf::WalRecord::TxnDecision {
                key: "~dec.t100.3".into(),
                value: "abort".into(),
            },
            "050000000b0000007e6465632e743130302e330500000061626f7274",
        ),
    ];
    for (rec, want) in cases {
        let bytes = rf::encode_record(&rec);
        assert_eq!(hex(&bytes), want, "{rec:?}");
        assert_eq!(rf::decode_record(&bytes), Some(rec));
    }
}

/// `applied_len` 9, then the machine body shared by both protocols.
const SNAP_MP: &str = concat!(
    "0900000000000000070000000000000002000000010000006101000000310100",
    "0000620100000033050000000100000002000000000000000100000002000000",
    "0200000000000000030000000100000003000000010000000000000002000000",
    "0100000031040000000100000000000000040000000200000001000000610100",
    "0000310100000062010000003305000000070000000000000000000000",
);

/// `last_included_index` 9, `last_included_term` 4, then the same body.
const SNAP_RAFT: &str = concat!(
    "0900000000000000040000000000000007000000000000000200000001000000",
    "6101000000310100000062010000003305000000010000000200000000000000",
    "0100000002000000020000000000000003000000010000000300000001000000",
    "0000000002000000010000003104000000010000000000000004000000020000",
    "0001000000610100000031010000006201000000330500000007000000000000",
    "0000000000",
);

#[test]
fn multi_paxos_checkpoint_is_pinned() {
    let mut m = MpMachine::default();
    for c in history() {
        m.apply(&MpOp::Cmd(c));
    }
    let blob = mp::encode_snapshot(&m, 9);
    assert_eq!(hex(&blob), SNAP_MP);
    let (restored, applied) = mp::decode_snapshot(&blob).expect("decodes");
    assert_eq!((restored.digest(), applied), (m.digest(), 9));
}

#[test]
fn raft_checkpoint_is_pinned() {
    let mut m = DedupKvMachine::default();
    for c in history() {
        m.apply(&SmrOp::Cmd(c));
    }
    let blob = rf::encode_snapshot(&m, 9, 4);
    assert_eq!(hex(&blob), SNAP_RAFT);
    let (restored, index, term) = rf::decode_snapshot(&blob).expect("decodes");
    assert_eq!((restored.digest(), index, term), (m.digest(), 9, 4));
}
