//! On-disk formats for durable Multi-Paxos: WAL records and machine
//! snapshots, hand-encoded via [`storage::codec`] (the workspace has no
//! serde derive — every byte here is explicit, which also makes the WAL
//! record format table in the generated docs honest). Commands, replies,
//! log ops and the machine body use the codec shared with Raft,
//! [`consensus_core::durable`]; this module adds only the Multi-Paxos
//! records and the snapshot header.
//!
//! ## WAL records
//!
//! | tag | record | payload |
//! |---|---|---|
//! | 1 | `Promise` | ballot `(num: u64, pid: u32)` |
//! | 2 | `Accept` | index `u64`, ballot, op |
//! | 3 | `Decide` | index `u64`, op |
//! | 4 | `TxnDecision` | key `str`, value `str` |
//!
//! The replica logs a record *before* the externally visible action it
//! justifies — promise before `PrepareAck`, accept before `Accepted`,
//! decide before applying — and `sync`s in the same handler, so one flush
//! group-commits everything a message triggered.
//!
//! `TxnDecision` is the store's WAL-before-decision discipline made
//! explicit: when an applied slot resolves a 2PC decision record
//! (`~dec.<tid>`), the coordinator-shard replica additionally logs the
//! resolved `(key, value)` as its own first-class record and syncs before
//! the reply that releases the transaction leaves. On recovery these
//! records (plus any decision entries in the snapshot) rebuild a dedicated
//! decision table, so a restarted replica can answer "what did `tid`
//! decide?" without replaying the whole command history.
//!
//! ## Snapshot blob
//!
//! `applied_len` (`u64`), then the shared machine body
//! ([`consensus_core::durable::put_machine`]): KV applied-counter, KV
//! entries, client table. Restoring must reproduce the machine digest bit-for-bit —
//! the nemesis fingerprint oracle depends on it.

use consensus_core::durable::{get_machine, get_op, put_machine, put_op};
use consensus_core::Ballot;
use storage::codec::{put_str, put_u32, put_u64, Reader};

use crate::multi::{MpMachine, MpOp};

/// WAL record decoded back from bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A promise was made: never accept lower ballots again.
    Promise {
        /// The promised ballot.
        ballot: Ballot,
    },
    /// An op was accepted for a slot under a ballot.
    Accept {
        /// Log index.
        index: usize,
        /// Accepting ballot.
        ballot: Ballot,
        /// Accepted op.
        op: MpOp,
    },
    /// A slot's decision was learned.
    Decide {
        /// Log index.
        index: usize,
        /// Decided op.
        op: MpOp,
    },
    /// An applied slot resolved a transaction decision record: the
    /// coordinator shard persists the outcome as a first-class WAL entry
    /// *before* the releasing reply leaves (WAL-before-decision).
    TxnDecision {
        /// The decision key (`~dec.<tid>`).
        key: String,
        /// The resolved decision value (`commit` / `abort`).
        value: String,
    },
}

fn put_ballot(buf: &mut Vec<u8>, b: Ballot) {
    put_u64(buf, b.num);
    put_u32(buf, b.pid);
}

fn get_ballot(r: &mut Reader) -> Option<Ballot> {
    let num = r.get_u64()?;
    let pid = r.get_u32()?;
    Some(Ballot::new(num, pid))
}

/// Encodes a WAL record.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match rec {
        WalRecord::Promise { ballot } => {
            put_u32(&mut buf, 1);
            put_ballot(&mut buf, *ballot);
        }
        WalRecord::Accept { index, ballot, op } => {
            put_u32(&mut buf, 2);
            put_u64(&mut buf, *index as u64);
            put_ballot(&mut buf, *ballot);
            put_op(&mut buf, op);
        }
        WalRecord::Decide { index, op } => {
            put_u32(&mut buf, 3);
            put_u64(&mut buf, *index as u64);
            put_op(&mut buf, op);
        }
        WalRecord::TxnDecision { key, value } => {
            put_u32(&mut buf, 4);
            put_str(&mut buf, key);
            put_str(&mut buf, value);
        }
    }
    buf
}

/// Decodes a WAL record. `None` means corruption the CRC somehow missed —
/// callers treat it as end-of-log.
pub fn decode_record(bytes: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(bytes);
    let rec = match r.get_u32()? {
        1 => WalRecord::Promise {
            ballot: get_ballot(&mut r)?,
        },
        2 => WalRecord::Accept {
            index: r.get_u64()? as usize,
            ballot: get_ballot(&mut r)?,
            op: get_op(&mut r)?,
        },
        3 => WalRecord::Decide {
            index: r.get_u64()? as usize,
            op: get_op(&mut r)?,
        },
        4 => WalRecord::TxnDecision {
            key: r.get_str()?,
            value: r.get_str()?,
        },
        _ => return None,
    };
    (r.remaining() == 0).then_some(rec)
}

/// Serializes a machine checkpoint: the state after `applied_len` entries.
pub fn encode_snapshot(machine: &MpMachine, applied_len: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, applied_len as u64);
    put_machine(&mut buf, machine);
    buf
}

/// Deserializes a checkpoint back into `(machine, applied_len)`. The
/// restored machine's digest equals the snapshotted one bit-for-bit.
pub fn decode_snapshot(bytes: &[u8]) -> Option<(MpMachine, usize)> {
    let mut r = Reader::new(bytes);
    let applied_len = r.get_u64()? as usize;
    let machine = get_machine(&mut r)?.into();
    (r.remaining() == 0).then_some((machine, applied_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::{Command, KvCommand, StateMachine};

    fn cmd(client: u32, seq: u64, op: KvCommand) -> Command<KvCommand> {
        Command { client, seq, op }
    }

    #[test]
    fn wal_records_round_trip() {
        let records = vec![
            WalRecord::Promise {
                ballot: Ballot::new(7, 2),
            },
            WalRecord::Accept {
                index: 42,
                ballot: Ballot::new(3, 1),
                op: MpOp::Cmd(cmd(
                    9,
                    4,
                    KvCommand::Cas {
                        key: "k".into(),
                        expect: "a".into(),
                        new: "b".into(),
                    },
                )),
            },
            WalRecord::Decide {
                index: 0,
                op: MpOp::Noop,
            },
            WalRecord::Decide {
                index: 5,
                op: MpOp::Batch(vec![
                    cmd(
                        1,
                        1,
                        KvCommand::Put {
                            key: "x".into(),
                            value: "y".into(),
                        },
                    ),
                    cmd(2, 3, KvCommand::Get { key: "x".into() }),
                    cmd(2, 4, KvCommand::Delete { key: "x".into() }),
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
            WalRecord::TxnDecision {
                key: "~dec.t100.3".into(),
                value: "commit".into(),
            },
        ];
        for rec in records {
            let bytes = encode_record(&rec);
            assert_eq!(decode_record(&bytes).as_ref(), Some(&rec), "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage_and_trailing_bytes() {
        assert_eq!(decode_record(&[]), None);
        assert_eq!(decode_record(&[9, 0, 0, 0]), None, "unknown tag");
        let mut ok = encode_record(&WalRecord::Promise {
            ballot: Ballot::ZERO,
        });
        ok.push(0);
        assert_eq!(decode_record(&ok), None, "trailing bytes are corruption");
    }

    #[test]
    fn snapshot_round_trips_digest_exactly() {
        // The machine body's own round-trip and truncation tests live with
        // the shared codec; this one covers the `applied_len` header.
        let mut m = MpMachine::default();
        m.apply(&MpOp::Batch(vec![
            cmd(1, 1, KvCommand::Put {
                key: "k".into(),
                value: "v".into(),
            }),
            cmd(2, 1, KvCommand::Get { key: "k".into() }),
        ].into()));
        let blob = encode_snapshot(&m, 23);
        let (restored, applied_len) = decode_snapshot(&blob).expect("decodes");
        assert_eq!(applied_len, 23);
        assert_eq!(restored.digest(), m.digest(), "digest must survive");
        for cut in 0..8 {
            assert!(decode_snapshot(&blob[..cut]).is_none(), "cut {cut}");
        }
        let mut trailing = blob;
        trailing.push(0);
        assert!(decode_snapshot(&trailing).is_none(), "trailing bytes are corruption");
    }
}
