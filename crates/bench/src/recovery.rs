//! Cold-restart recovery sweep: checkpoint threshold vs restart cost.
//!
//! One durable shard (3 replicas, 1 client, fixed workload) runs to
//! completion, then replica 2 crashes and restarts. The sweep covers both
//! consensus engines — Multi-Paxos and Raft — on the same storage engine,
//! so the artifact pins that recovery cost is a property of the storage
//! layer's checkpoint policy, not of the protocol above it. The engine's
//! counters on the restarted replica separate the two sides of the
//! checkpointing trade-off:
//!
//! * steady state — each checkpoint flushes the index, writes the blob,
//!   and truncates the WAL (`checkpoints`, `total_io_us`);
//! * restart — recovery loads the newest checkpoint and replays only the
//!   WAL tail above its floor (`records_replayed`, `recovery_io_us`).
//!
//! A small threshold checkpoints often and replays almost nothing; a large
//! one (or `None` — checkpoints disabled) writes nothing during the run
//! and replays the whole log on restart. The disk profile scales the
//! modeled time without changing any decision: the disk is latency
//! *accounting*, so every cell of the sweep decides the identical command
//! sequence and the sweep is deterministic — which is what lets CI pin
//! `BENCH_recovery.json` byte-for-byte.

use consensus_core::{ClusterDriver, QuorumSpec};
use paxos::MultiPaxosCluster;
use raft::RaftCluster;
use serde_json::{json, Value};
use simnet::{DiskModel, NetConfig, NodeId, Time};

/// Replicas per shard in the sweep scenario.
pub const REPLICAS: usize = 3;
/// Commands the client issues before the crash.
pub const COMMANDS: usize = 40;
/// Simulator seed for every cell (cells differ only in storage knobs).
pub const SEED: u64 = 29;
/// The replica that crashes and restarts.
pub const CRASHED: usize = 2;

/// Checkpoint thresholds swept; `None` disables checkpointing entirely so
/// recovery must replay the WAL from slot 0.
pub const THRESHOLDS: [Option<usize>; 5] = [Some(4), Some(8), Some(16), Some(32), None];
/// Disk latency profiles swept.
pub const DISKS: [&str; 2] = ["ssd", "hdd"];
/// Consensus engines swept over the same durable storage engine.
pub const ENGINES: [&str; 2] = ["paxos", "raft"];

fn disk_by_name(name: &str) -> DiskModel {
    match name {
        "ssd" => DiskModel::ssd(),
        "hdd" => DiskModel::hdd(),
        other => panic!("unknown disk profile {other}"),
    }
}

/// One cell of the sweep: a full run plus one crash/restart cycle.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Consensus engine above the storage engine.
    pub engine: &'static str,
    /// Checkpoint threshold (`None` = disabled).
    pub threshold: Option<usize>,
    /// Disk profile name.
    pub disk: &'static str,
    /// Checkpoint floor the restarted replica recovered from.
    pub recovered_floor: usize,
    /// WAL records recovery handed back and replayed.
    pub records_replayed: u64,
    /// Modeled device time the recovery pass charged, in µs.
    pub recovery_io_us: u64,
    /// Checkpoints the replica wrote across the whole run.
    pub checkpoints: u64,
    /// WAL records the replica appended across the whole run.
    pub wal_appends: u64,
    /// Total modeled device time on the replica, in µs.
    pub total_io_us: u64,
    /// Entries applied by the restarted replica at harvest time.
    pub applied_len: usize,
}

impl RecoveryPoint {
    /// The machine-readable form stored in `BENCH_recovery.json`.
    pub fn to_json(&self) -> Value {
        json!({
            "engine": self.engine,
            "threshold": self.threshold,
            "disk": self.disk,
            "recovered_floor": self.recovered_floor,
            "records_replayed": self.records_replayed,
            "recovery_io_us": self.recovery_io_us,
            "checkpoints": self.checkpoints,
            "wal_appends": self.wal_appends,
            "total_io_us": self.total_io_us,
            "applied_len": self.applied_len,
        })
    }
}

/// Runs one cell: workload, settle, crash, restart, harvest.
pub fn cold_restart_cell(
    engine: &'static str,
    threshold: Option<usize>,
    disk: &'static str,
) -> RecoveryPoint {
    match engine {
        "paxos" => paxos_cell(threshold, disk),
        "raft" => raft_cell(threshold, disk),
        other => panic!("unknown engine {other}"),
    }
}

fn paxos_cell(threshold: Option<usize>, disk: &'static str) -> RecoveryPoint {
    let mut c = MultiPaxosCluster::new(
        QuorumSpec::Majority { n: REPLICAS },
        REPLICAS,
        1,
        COMMANDS,
        NetConfig::lan(),
        SEED,
    )
    .with_durability(threshold.unwrap_or(usize::MAX), disk_by_name(disk));
    assert!(c.run(Time::from_secs(30)), "durable cluster stalled");
    c.sim.run_for(300_000);
    let now = c.sim.now();
    c.sim.crash_at(NodeId(CRASHED as u32), Time(now.0 + 1_000));
    c.sim.restart_at(NodeId(CRASHED as u32), Time(now.0 + 50_000));
    c.sim.run_for(500_000);
    let r = c.replicas().nth(CRASHED).expect("crashed replica exists");
    let s = r.storage_stats().expect("durable engine attached");
    assert_eq!(s.recoveries, 1, "restart must run exactly one recovery");
    RecoveryPoint {
        engine: "paxos",
        threshold,
        disk,
        recovered_floor: r.durable.recovered_floor,
        records_replayed: r.durable.last_recovery_replayed,
        recovery_io_us: r.durable.last_recovery_io_us,
        checkpoints: s.snapshots_written,
        wal_appends: s.wal_appends,
        total_io_us: s.io_time_us,
        applied_len: r.log.applied_len(),
    }
}

fn raft_cell(threshold: Option<usize>, disk: &'static str) -> RecoveryPoint {
    let mut c = RaftCluster::new(REPLICAS, 1, COMMANDS, NetConfig::lan(), SEED)
        .with_durability(threshold.unwrap_or(usize::MAX), disk_by_name(disk));
    assert!(c.run(Time::from_secs(30)), "durable cluster stalled");
    c.sim.run_for(300_000);
    let now = c.sim.now();
    c.sim.crash_at(NodeId(CRASHED as u32), Time(now.0 + 1_000));
    c.sim.restart_at(NodeId(CRASHED as u32), Time(now.0 + 50_000));
    c.sim.run_for(500_000);
    let r = c.replicas().nth(CRASHED).expect("crashed replica exists");
    let s = r.storage_stats().expect("durable engine attached");
    assert_eq!(s.recoveries, 1, "restart must run exactly one recovery");
    RecoveryPoint {
        engine: "raft",
        threshold,
        disk,
        recovered_floor: r.durable.recovered_floor,
        records_replayed: r.durable.last_recovery_replayed,
        recovery_io_us: r.durable.last_recovery_io_us,
        checkpoints: s.snapshots_written,
        wal_appends: s.wal_appends,
        total_io_us: s.io_time_us,
        applied_len: r.last_applied,
    }
}

/// Runs the full sweep in registry order (engine-major, then disk, then
/// threshold).
pub fn run_sweep() -> Vec<RecoveryPoint> {
    let mut points = Vec::new();
    for engine in ENGINES {
        for disk in DISKS {
            for threshold in THRESHOLDS {
                points.push(cold_restart_cell(engine, threshold, disk));
            }
        }
    }
    points
}

/// Wraps the sweep in the versioned document written to disk.
pub fn sweep_to_json(points: &[RecoveryPoint]) -> Value {
    json!({
        "schema": "bench/recovery/v2",
        "scenario": json!({
            "replicas": REPLICAS,
            "commands": COMMANDS,
            "seed": SEED,
            "crashed_replica": CRASHED,
        }),
        "engines": ENGINES.as_slice(),
        "disks": DISKS.as_slice(),
        "thresholds": THRESHOLDS.as_slice(),
        "points": points.iter().map(RecoveryPoint::to_json).collect::<Vec<_>>(),
    })
}

/// Human-readable table, one row per cell.
pub fn render_table(points: &[RecoveryPoint]) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<6} {:<6} {:>9} {:>7} {:>10} {:>13} {:>12} {:>13}",
        "engine", "disk", "threshold", "floor", "replayed", "recovery µs", "checkpoints",
        "run-total µs"
    )];
    for p in points {
        let t = p
            .threshold
            .map(|t| t.to_string())
            .unwrap_or_else(|| "off".into());
        lines.push(format!(
            "{:<6} {:<6} {:>9} {:>7} {:>10} {:>13} {:>12} {:>13}",
            p.engine, p.disk, t, p.recovered_floor, p.records_replayed, p.recovery_io_us,
            p.checkpoints, p.total_io_us
        ));
    }
    lines
}

/// Validates the document shape; returns the list of problems (empty = ok).
pub fn validate_schema(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    if doc.get("schema").and_then(Value::as_str) != Some("bench/recovery/v2") {
        problems.push("schema tag missing or wrong".to_string());
    }
    if doc.get("scenario").and_then(Value::as_object).is_none() {
        problems.push("scenario missing".to_string());
    }
    let Some(points) = doc.get("points").and_then(Value::as_array) else {
        problems.push("points missing".to_string());
        return problems;
    };
    let expected = ENGINES.len() * DISKS.len() * THRESHOLDS.len();
    if points.len() != expected {
        problems.push(format!("expected {expected} points, found {}", points.len()));
    }
    for (i, p) in points.iter().enumerate() {
        for field in [
            "engine",
            "disk",
            "recovered_floor",
            "records_replayed",
            "recovery_io_us",
            "checkpoints",
            "wal_appends",
            "total_io_us",
            "applied_len",
        ] {
            if p.get(field).is_none() {
                problems.push(format!("point {i}: missing field {field}"));
            }
        }
        if !p
            .get("threshold")
            .is_some_and(|t| t.is_null() || t.as_u64().is_some())
        {
            problems.push(format!("point {i}: threshold must be a number or null"));
        }
        if p.get("records_replayed").and_then(Value::as_u64).is_none() {
            problems.push(format!("point {i}: records_replayed must be a number"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpointing_trades_replay_for_checkpoint_io() {
        // The two extreme ssd cells pin the trade-off: frequent checkpoints
        // leave almost no WAL to replay; no checkpoints replay everything.
        // The same shape must hold under both consensus engines.
        for engine in ENGINES {
            let tight = cold_restart_cell(engine, Some(4), "ssd");
            let off = cold_restart_cell(engine, None, "ssd");
            assert!(tight.checkpoints >= 1, "{engine}: threshold 4 never checkpointed");
            assert!(tight.recovered_floor > 0, "{engine}: recovery ignored the checkpoint");
            assert_eq!(off.checkpoints, 0);
            assert_eq!(off.recovered_floor, 0, "{engine}: no checkpoint: replay from slot 0");
            assert!(
                off.records_replayed > tight.records_replayed,
                "{engine}: disabled checkpoints must replay more ({} vs {})",
                off.records_replayed,
                tight.records_replayed
            );
            // Same seed, same knobs → same numbers.
            let again = cold_restart_cell(engine, Some(4), "ssd");
            assert_eq!(tight.records_replayed, again.records_replayed);
            assert_eq!(tight.recovery_io_us, again.recovery_io_us);
        }
    }

    #[test]
    fn disk_profile_scales_time_but_not_decisions() {
        for engine in ENGINES {
            let ssd = cold_restart_cell(engine, Some(8), "ssd");
            let hdd = cold_restart_cell(engine, Some(8), "hdd");
            assert_eq!(ssd.records_replayed, hdd.records_replayed);
            assert_eq!(ssd.recovered_floor, hdd.recovered_floor);
            assert_eq!(ssd.applied_len, hdd.applied_len);
            assert!(
                hdd.recovery_io_us > ssd.recovery_io_us,
                "{engine}: the slower disk must charge more recovery time"
            );
        }
    }

    #[test]
    fn document_validates_and_is_deterministic() {
        let points = run_sweep();
        let doc = sweep_to_json(&points);
        assert!(validate_schema(&doc).is_empty(), "{:?}", validate_schema(&doc));
        let again = sweep_to_json(&run_sweep());
        assert_eq!(doc, again, "sweep must be deterministic");
    }
}
