//! On-disk formats for durable Raft: WAL records and machine snapshots,
//! hand-encoded via [`storage::codec`] — the same discipline as
//! `paxos::durable`, with Raft's own persistent state in the records.
//! Commands, log ops and the machine body use the codec shared with
//! Multi-Paxos, [`consensus_core::durable`]; this module adds only the Raft
//! records and the snapshot header.
//!
//! ## WAL records
//!
//! | tag | record | payload |
//! |---|---|---|
//! | 1 | `HardState` | `current_term: u64`, `voted_for: u32` (`MAX` = none) |
//! | 2 | `Append` | absolute index `u64`, entry (term + op) |
//! | 3 | `Truncate` | first absolute index dropped `u64` |
//! | 4 | `Commit` | commit index `u64` |
//! | 5 | `TxnDecision` | key `str`, value `str` |
//!
//! Figure 2 of the Raft paper marks `currentTerm`, `votedFor`, and `log[]`
//! persistent: the replica logs a `HardState` whenever term or vote
//! changes and an `Append`/`Truncate` whenever the log does, and `sync`s
//! before the externally visible message each change justifies — a vote
//! before the `VoteResponse`, an append before the `AppendResponse` (or,
//! on the leader, before the entry is replicated). `Commit` records are an
//! optimization, not a safety requirement (Raft's commit index is
//! volatile): replaying them lets a restarted replica re-apply to its old
//! frontier without waiting for a leader round-trip.
//!
//! `TxnDecision` carries the store's WAL-before-decision discipline (see
//! `paxos::durable`): a slot that resolves a `~dec.<tid>` record is synced
//! before the releasing reply leaves.
//!
//! ## Snapshot blob
//!
//! `last_included_index` (`u64`), `last_included_term` (`u64`), then the
//! shared machine body ([`consensus_core::durable::put_machine`]): KV
//! applied-counter, KV entries, client table.
//! Restoring must reproduce the machine digest bit-for-bit — the nemesis
//! fingerprint oracle depends on it.

use consensus_core::durable::{get_machine, get_op, put_machine, put_op};
use consensus_core::DedupKvMachine;
use simnet::NodeId;
use storage::codec::{put_str, put_u32, put_u64, Reader};

use crate::msg::Entry;

/// Sentinel for `voted_for: None` on the wire.
const NO_VOTE: u32 = u32::MAX;

/// WAL record decoded back from bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Term and vote changed: both persist atomically (Figure 2).
    HardState {
        /// Latest term this server has seen.
        term: u64,
        /// Candidate voted for in that term.
        voted_for: Option<NodeId>,
    },
    /// An entry was appended at an absolute index.
    Append {
        /// Absolute log index.
        index: usize,
        /// The entry.
        entry: Entry,
    },
    /// Conflicting suffix dropped: entries at `from` and above are gone.
    Truncate {
        /// First absolute index dropped.
        from: usize,
    },
    /// The commit index advanced (recovery accelerator, not safety).
    Commit {
        /// New commit index.
        index: usize,
    },
    /// An applied entry resolved a transaction decision record: persisted
    /// *before* the releasing reply leaves (WAL-before-decision).
    TxnDecision {
        /// The decision key (`~dec.<tid>`).
        key: String,
        /// The resolved decision value (`commit` / `abort`).
        value: String,
    },
}

/// Encodes a WAL record.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match rec {
        WalRecord::HardState { term, voted_for } => {
            put_u32(&mut buf, 1);
            put_u64(&mut buf, *term);
            put_u32(&mut buf, voted_for.map_or(NO_VOTE, |n| n.0));
        }
        WalRecord::Append { index, entry } => {
            put_u32(&mut buf, 2);
            put_u64(&mut buf, *index as u64);
            put_u64(&mut buf, entry.term);
            put_op(&mut buf, &entry.op);
        }
        WalRecord::Truncate { from } => {
            put_u32(&mut buf, 3);
            put_u64(&mut buf, *from as u64);
        }
        WalRecord::Commit { index } => {
            put_u32(&mut buf, 4);
            put_u64(&mut buf, *index as u64);
        }
        WalRecord::TxnDecision { key, value } => {
            put_u32(&mut buf, 5);
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
        1 => WalRecord::HardState {
            term: r.get_u64()?,
            voted_for: match r.get_u32()? {
                NO_VOTE => None,
                n => Some(NodeId(n)),
            },
        },
        2 => WalRecord::Append {
            index: r.get_u64()? as usize,
            entry: Entry {
                term: r.get_u64()?,
                op: get_op(&mut r)?,
            },
        },
        3 => WalRecord::Truncate {
            from: r.get_u64()? as usize,
        },
        4 => WalRecord::Commit {
            index: r.get_u64()? as usize,
        },
        5 => WalRecord::TxnDecision {
            key: r.get_str()?,
            value: r.get_str()?,
        },
        _ => return None,
    };
    (r.remaining() == 0).then_some(rec)
}

/// Serializes a machine checkpoint covering the log through
/// `last_included_index` (whose entry had `last_included_term`).
pub fn encode_snapshot(
    machine: &DedupKvMachine,
    last_included_index: usize,
    last_included_term: u64,
) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, last_included_index as u64);
    put_u64(&mut buf, last_included_term);
    put_machine(&mut buf, machine);
    buf
}

/// Deserializes a checkpoint back into
/// `(machine, last_included_index, last_included_term)`. The restored
/// machine's digest equals the snapshotted one bit-for-bit.
pub fn decode_snapshot(bytes: &[u8]) -> Option<(DedupKvMachine, usize, u64)> {
    let mut r = Reader::new(bytes);
    let last_included_index = r.get_u64()? as usize;
    let last_included_term = r.get_u64()?;
    let machine = get_machine(&mut r)?;
    (r.remaining() == 0).then_some((machine, last_included_index, last_included_term))
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::{Command, KvCommand, SmrOp, StateMachine};

    fn cmd(client: u32, seq: u64, op: KvCommand) -> SmrOp {
        SmrOp::Cmd(Command { client, seq, op })
    }

    #[test]
    fn wal_records_round_trip() {
        let records = vec![
            WalRecord::HardState {
                term: 7,
                voted_for: Some(NodeId(2)),
            },
            WalRecord::HardState {
                term: 8,
                voted_for: None,
            },
            WalRecord::Append {
                index: 42,
                entry: Entry {
                    term: 7,
                    op: cmd(
                        9,
                        4,
                        KvCommand::Cas {
                            key: "k".into(),
                            expect: "a".into(),
                            new: "b".into(),
                        },
                    ),
                },
            },
            WalRecord::Append {
                index: 1,
                entry: Entry {
                    term: 1,
                    op: SmrOp::Noop,
                },
            },
            WalRecord::Append {
                index: 3,
                entry: Entry {
                    term: 2,
                    op: cmd(
                        1,
                        6,
                        KvCommand::Range {
                            start: "a".into(),
                            end: "q".into(),
                            limit: 16,
                        },
                    ),
                },
            },
            WalRecord::Truncate { from: 17 },
            WalRecord::Commit { index: 40 },
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
        let mut ok = encode_record(&WalRecord::Commit { index: 3 });
        ok.push(0);
        assert_eq!(decode_record(&ok), None, "trailing bytes are corruption");
    }

    #[test]
    fn snapshot_round_trips_digest_exactly() {
        // The machine body's own round-trip and truncation tests live with
        // the shared codec; this one covers the index/term header.
        let mut m = DedupKvMachine::default();
        m.apply(&cmd(
            1,
            1,
            KvCommand::Put {
                key: "k".into(),
                value: "v".into(),
            },
        ));
        let blob = encode_snapshot(&m, 23, 5);
        let (restored, idx, term) = decode_snapshot(&blob).expect("decodes");
        assert_eq!((idx, term), (23, 5));
        assert_eq!(restored.digest(), m.digest(), "digest must survive");
        for cut in 0..16 {
            assert!(decode_snapshot(&blob[..cut]).is_none(), "cut {cut}");
        }
        let mut trailing = blob;
        trailing.push(0);
        assert!(decode_snapshot(&trailing).is_none(), "trailing bytes are corruption");
    }
}
