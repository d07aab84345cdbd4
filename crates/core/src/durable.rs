//! The durable KV layer shared by Multi-Paxos and Raft.
//!
//! Both protocols replicate the same deterministic KV machine, so
//! everything below their protocol records is written once here, over the
//! [`storage::codec`] primitives and a [`StorageEngine`]:
//!
//! * **One codec** for client commands, replies, log ops and the
//!   checkpoint body. Each protocol crate keeps only its own `WalRecord`
//!   enum, record tags and snapshot header fields.
//! * **One [`DurablePlane`]** per replica: the engine, group-commit WAL
//!   sync, the applied-command index mirror and its range cross-check, the
//!   index rebuild after a snapshot install, the transaction-decision
//!   table, and the recovery counters.
//!
//! ## Encodings (all integers little-endian)
//!
//! | item | bytes |
//! |---|---|
//! | command | `client: u32`, `seq: u64`, op tag `u32` (0 Put, 1 Get, 2 Delete, 3 Cas, 4 Range), then its strings (`Range` adds `limit: u64`) |
//! | reply | tag `u32` (0 Ok, 1 absent value, 2 value + `str`, 3 CAS + `swapped: u32`, 4 entries + `n: u32` + pairs) |
//! | log op | tag `u32`: 0 no-op; 1 one command; 2 batch + `n: u32` + commands |
//! | checkpoint body | KV applied counter `u64`, `n: u32` entries, `n: u32` client-table rows (`client: u32`, `seq: u64`, reply) |

use std::collections::BTreeMap;

use simnet::{Context, Payload};
use storage::codec::{put_str, put_u32, put_u64, Reader};
use storage::{Recovery, StorageEngine, StorageStats};

use crate::smr::{CmdOp, Command, DedupKvMachine, KvCommand, KvResponse, KvStore};
use crate::txn::{parse_decision_key, TxnDecision};

fn put_command(buf: &mut Vec<u8>, cmd: &Command<KvCommand>) {
    put_u32(buf, cmd.client);
    put_u64(buf, cmd.seq);
    match &cmd.op {
        KvCommand::Put { key, value } => {
            put_u32(buf, 0);
            put_str(buf, key);
            put_str(buf, value);
        }
        KvCommand::Get { key } => {
            put_u32(buf, 1);
            put_str(buf, key);
        }
        KvCommand::Delete { key } => {
            put_u32(buf, 2);
            put_str(buf, key);
        }
        KvCommand::Cas { key, expect, new } => {
            put_u32(buf, 3);
            put_str(buf, key);
            put_str(buf, expect);
            put_str(buf, new);
        }
        KvCommand::Range { start, end, limit } => {
            put_u32(buf, 4);
            put_str(buf, start);
            put_str(buf, end);
            put_u64(buf, *limit as u64);
        }
    }
}

fn get_command(r: &mut Reader) -> Option<Command<KvCommand>> {
    let client = r.get_u32()?;
    let seq = r.get_u64()?;
    let op = match r.get_u32()? {
        0 => KvCommand::Put {
            key: r.get_str()?,
            value: r.get_str()?,
        },
        1 => KvCommand::Get { key: r.get_str()? },
        2 => KvCommand::Delete { key: r.get_str()? },
        3 => KvCommand::Cas {
            key: r.get_str()?,
            expect: r.get_str()?,
            new: r.get_str()?,
        },
        4 => KvCommand::Range {
            start: r.get_str()?,
            end: r.get_str()?,
            limit: r.get_u64()? as usize,
        },
        _ => return None,
    };
    Some(Command { client, seq, op })
}

fn put_response(buf: &mut Vec<u8>, out: &KvResponse) {
    match out {
        KvResponse::Ok => put_u32(buf, 0),
        KvResponse::Value(None) => put_u32(buf, 1),
        KvResponse::Value(Some(v)) => {
            put_u32(buf, 2);
            put_str(buf, v);
        }
        KvResponse::CasResult { swapped } => {
            put_u32(buf, 3);
            put_u32(buf, u32::from(*swapped));
        }
        KvResponse::Entries(entries) => {
            put_u32(buf, 4);
            put_pairs(buf, entries.len(), entries.iter().map(|(k, v)| (k, v)));
        }
    }
}

fn get_response(r: &mut Reader) -> Option<KvResponse> {
    Some(match r.get_u32()? {
        0 => KvResponse::Ok,
        1 => KvResponse::Value(None),
        2 => KvResponse::Value(Some(r.get_str()?)),
        3 => KvResponse::CasResult {
            swapped: r.get_u32()? != 0,
        },
        4 => KvResponse::Entries(get_pairs(r)?),
        _ => return None,
    })
}

fn put_pairs<'a>(
    buf: &mut Vec<u8>,
    n: usize,
    pairs: impl Iterator<Item = (&'a String, &'a String)>,
) {
    put_u32(buf, n as u32);
    for (k, v) in pairs {
        put_str(buf, k);
        put_str(buf, v);
    }
}

fn get_pairs(r: &mut Reader) -> Option<Vec<(String, String)>> {
    let n = r.get_u32()? as usize;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((r.get_str()?, r.get_str()?));
    }
    Some(pairs)
}

/// Appends a log op: tag 0 no-op, 1 one command, 2 a counted batch.
pub fn put_op<O: CmdOp>(buf: &mut Vec<u8>, op: &O) {
    let cmds = op.commands();
    match (op.is_batch(), cmds) {
        (false, []) => put_u32(buf, 0),
        (false, [cmd]) => {
            put_u32(buf, 1);
            put_command(buf, cmd);
        }
        _ => {
            put_u32(buf, 2);
            put_u32(buf, cmds.len() as u32);
            for c in cmds {
                put_command(buf, c);
            }
        }
    }
}

/// Reads a log op written by [`put_op`]; `None` on corruption or an op
/// this log cannot hold.
pub fn get_op<O: CmdOp>(r: &mut Reader) -> Option<O> {
    let (cmds, batch) = match r.get_u32()? {
        0 => (Vec::new(), false),
        1 => (vec![get_command(r)?], false),
        2 => {
            let n = r.get_u32()? as usize;
            let mut cmds = Vec::with_capacity(n);
            for _ in 0..n {
                cmds.push(get_command(r)?);
            }
            (cmds, true)
        }
        _ => return None,
    };
    O::from_commands(cmds, batch)
}

/// Appends the checkpoint body: KV applied counter, KV entries, client
/// table. Restoring it reproduces the machine digest bit-for-bit — the
/// nemesis fingerprint oracle depends on it.
pub fn put_machine(buf: &mut Vec<u8>, machine: &DedupKvMachine) {
    let kv = machine.kv();
    put_u64(buf, kv.applied());
    put_pairs(buf, kv.len(), kv.iter());
    put_u32(buf, machine.client_table().len() as u32);
    for (client, (seq, out)) in machine.client_table() {
        put_u32(buf, *client);
        put_u64(buf, *seq);
        put_response(buf, out);
    }
}

/// Reads a checkpoint body written by [`put_machine`].
pub fn get_machine(r: &mut Reader) -> Option<DedupKvMachine> {
    let kv_applied = r.get_u64()?;
    let entries = get_pairs(r)?;
    let n_clients = r.get_u32()? as usize;
    let mut client_table = BTreeMap::new();
    for _ in 0..n_clients {
        let client = r.get_u32()?;
        let seq = r.get_u64()?;
        client_table.insert(client, (seq, get_response(r)?));
    }
    Some(DedupKvMachine::restore(
        KvStore::restore(entries, kv_applied),
        client_table,
    ))
}

/// Whether an applied write resolves a 2PC/commit decision record: a
/// decision key whose new value is a final `commit`/`abort` (the `pending`
/// init is not a resolution).
fn is_txn_decision(key: &str, value: &str) -> bool {
    parse_decision_key(key).is_some() && TxnDecision::parse(value).is_some()
}

/// A replica's durable storage and everything it keeps about it. Without
/// an attached engine every call is a no-op, which is the historical
/// everything-in-RAM behaviour.
///
/// The protocol decides *what* to persist and *when*: it encodes its own
/// WAL records, logs them before the externally visible action they
/// justify and syncs in the same handler, so one flush group-commits
/// everything a message triggered. It also chooses which applied commands
/// to [`mirror`](DurablePlane::mirror).
#[derive(Debug, Default)]
pub struct DurablePlane {
    engine: Option<Box<dyn StorageEngine>>,
    /// Transaction decision records (`~dec.<tid>` → value) this replica
    /// applied, persisted as first-class WAL records *before* the
    /// releasing reply leaves and rebuilt on recovery (from snapshot +
    /// WAL) without replaying the command history.
    txn_decisions: BTreeMap<String, String>,
    /// Decision records resolved by mirrored commands over this replica's
    /// lifetime (each one became a `TxnDecision` WAL record).
    pub txn_decisions_logged: u64,
    /// Floor restored by the most recent crash recovery (0 = none / cold).
    pub recovered_floor: usize,
    /// WAL records replayed by the most recent recovery.
    pub last_recovery_replayed: u64,
    /// Disk time the most recent recovery charged (µs).
    pub last_recovery_io_us: u64,
    /// Device time when the running recovery started.
    recovery_io_start: u64,
}

impl DurablePlane {
    /// Attaches a storage engine: the WAL-before-ack discipline,
    /// checkpointing and crash recovery all activate.
    pub fn attach(&mut self, engine: Box<dyn StorageEngine>) {
        self.engine = Some(engine);
    }

    /// Whether an engine is attached.
    pub fn is_enabled(&self) -> bool {
        self.engine.is_some()
    }

    /// Storage counters, when an engine is attached.
    pub fn stats(&self) -> Option<StorageStats> {
        self.engine.as_ref().map(|e| e.stats())
    }

    /// The transaction decision records this replica applied (decision key
    /// → `commit`/`abort`); survives crash recovery.
    pub fn txn_decisions(&self) -> &BTreeMap<String, String> {
        &self.txn_decisions
    }

    /// Appends one WAL record; `encode` runs only when an engine is
    /// attached.
    pub fn log(&mut self, encode: impl FnOnce() -> Vec<u8>) {
        if let Some(e) = self.engine.as_mut() {
            e.log_record(&encode());
        }
    }

    /// Group-commits everything logged since the last sync (a no-op when
    /// nothing is outstanding) and charges the modeled device time to the
    /// current causal trace.
    pub fn sync<M: Payload>(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(e) = self.engine.as_mut() {
            let before = e.stats().io_time_us;
            e.sync();
            let spent = e.stats().io_time_us - before;
            if spent > 0 {
                ctx.charge_io("wal-sync", spent);
            }
        }
    }

    /// Writes a checkpoint `blob` (which truncates the WAL), re-logs the
    /// records still live after it, and syncs them.
    pub fn checkpoint(&mut self, blob: &[u8], live: impl IntoIterator<Item = Vec<u8>>) {
        if let Some(e) = self.engine.as_mut() {
            e.write_snapshot(blob);
            for rec in live {
                e.log_record(&rec);
            }
            e.sync();
        }
    }

    /// Mirrors freshly applied commands into the primary index, given each
    /// command with its actual reply (a failed CAS mirrors nothing), then
    /// serves every range among them from the index too: that charges the
    /// honest B+ tree scan I/O and cross-checks the index against `kv`, the
    /// machine state after all of them applied.
    ///
    /// Returns the transaction decisions the commands resolved, already
    /// recorded in the decision table. The caller logs each as its own
    /// `TxnDecision` WAL record and syncs before the releasing reply
    /// leaves (WAL-before-decision).
    pub fn mirror<'a>(
        &mut self,
        kv: &KvStore,
        applied: impl IntoIterator<Item = (&'a Command<KvCommand>, &'a KvResponse)>,
    ) -> Vec<(String, String)> {
        let Some(engine) = self.engine.as_mut() else {
            return Vec::new();
        };
        let mut decisions = Vec::new();
        let mut ranges = Vec::new();
        for (cmd, out) in applied {
            let written = match &cmd.op {
                KvCommand::Put { key, value } => Some((key, value)),
                KvCommand::Cas { key, new, .. } => {
                    matches!(out, KvResponse::CasResult { swapped: true }).then_some((key, new))
                }
                KvCommand::Delete { key } => {
                    engine.delete(key);
                    None
                }
                KvCommand::Range { start, end, limit } => {
                    ranges.push((start, end, *limit));
                    None
                }
                KvCommand::Get { .. } => None,
            };
            if let Some((key, value)) = written {
                engine.put(key, value);
                if is_txn_decision(key, value) {
                    decisions.push((key.clone(), value.clone()));
                }
            }
        }
        for (start, end, limit) in ranges {
            let mut got = engine.scan(start, end);
            got.truncate(limit);
            assert_eq!(
                got,
                kv.scan(start, end, limit),
                "engine index diverged from machine on range scan"
            );
        }
        for (key, value) in &decisions {
            self.txn_decisions.insert(key.clone(), value.clone());
        }
        self.txn_decisions_logged += decisions.len() as u64;
        decisions
    }

    /// Rebuilds the primary index from `kv`, a freshly installed machine
    /// (local recovery or state transfer). Keys `kv` lacks are dropped
    /// first — a peer's snapshot may land on a live index — then every
    /// entry is upserted, paying the honest rebuild I/O that recovery-time
    /// experiments measure. Decision records in `kv` re-seed the decision
    /// table; WAL replay then adds anything resolved after it.
    pub fn rebuild(&mut self, kv: &KvStore) {
        let Some(engine) = self.engine.as_mut() else {
            return;
        };
        let stale: Vec<String> = engine
            .scan("", "\u{10FFFF}")
            .into_iter()
            .map(|(k, _)| k)
            .filter(|k| kv.get(k).is_none())
            .collect();
        for k in &stale {
            engine.delete(k);
        }
        for (k, v) in kv.iter() {
            engine.put(k, v);
            if is_txn_decision(k, v) {
                self.txn_decisions.insert(k.clone(), v.clone());
            }
        }
    }

    /// Starts crash recovery: drops the engine's volatile layers and the
    /// decision table, and hands back the last checkpoint plus the WAL
    /// records synced after it. The caller replays them (re-seeding
    /// decisions through [`DurablePlane::restore_decision`]) and then calls
    /// [`DurablePlane::finish_recovery`].
    ///
    /// # Panics
    ///
    /// Without an attached engine.
    pub fn crash_and_recover(&mut self) -> Recovery {
        let engine = self.engine.as_mut().expect("durable mode");
        self.recovery_io_start = engine.stats().io_time_us;
        engine.crash();
        let recovery = engine.recover();
        self.txn_decisions.clear();
        self.last_recovery_replayed = recovery.records.len() as u64;
        recovery
    }

    /// Re-seeds one decision from a replayed `TxnDecision` WAL record.
    pub fn restore_decision(&mut self, key: String, value: String) {
        self.txn_decisions.insert(key, value);
    }

    /// Ends crash recovery at `floor` (the checkpoint's applied length),
    /// charging everything since [`DurablePlane::crash_and_recover`] —
    /// snapshot load, index rebuild, WAL replay — as recovery I/O.
    pub fn finish_recovery(&mut self, floor: usize) {
        self.recovered_floor = floor;
        self.last_recovery_io_us =
            self.stats().expect("durable mode").io_time_us - self.recovery_io_start;
    }
}

#[cfg(test)]
mod tests;
