use storage::MemEngine;

use super::*;
use crate::smr::{KvBatchMachine, SmrOp, StateMachine};

fn cmd(client: u32, seq: u64, op: KvCommand) -> Command<KvCommand> {
    Command { client, seq, op }
}

fn put(key: &str, value: &str) -> KvCommand {
    KvCommand::Put {
        key: key.into(),
        value: value.into(),
    }
}

fn cas(key: &str, expect: &str, new: &str) -> KvCommand {
    KvCommand::Cas {
        key: key.into(),
        expect: expect.into(),
        new: new.into(),
    }
}

fn range(start: &str, end: &str, limit: usize) -> KvCommand {
    KvCommand::Range {
        start: start.into(),
        end: end.into(),
        limit,
    }
}

/// One command of every kind.
fn every_command() -> Vec<Command<KvCommand>> {
    vec![
        cmd(1, 1, put("x", "y")),
        cmd(2, 3, KvCommand::Get { key: "x".into() }),
        cmd(2, 4, KvCommand::Delete { key: "x".into() }),
        cmd(9, 4, cas("k", "a", "b")),
        cmd(3, 1, range("a", "q", 16)),
    ]
}

/// Encodes with `put`, then checks `get` restores the value from the full
/// bytes and refuses every strict prefix (a torn tail never half-decodes).
fn round_trip<T: PartialEq + std::fmt::Debug>(
    value: &T,
    put: impl Fn(&mut Vec<u8>, &T),
    get: impl Fn(&mut Reader) -> Option<T>,
) {
    let mut buf = Vec::new();
    put(&mut buf, value);
    let mut r = Reader::new(&buf);
    assert_eq!(get(&mut r).as_ref(), Some(value));
    assert_eq!(r.remaining(), 0, "{value:?} left bytes behind");
    for cut in 0..buf.len() {
        assert_eq!(
            get(&mut Reader::new(&buf[..cut])),
            None,
            "{value:?} cut at {cut}"
        );
    }
}

#[test]
fn commands_round_trip_and_reject_every_prefix() {
    for c in every_command() {
        round_trip(&c, put_command, get_command);
    }
}

#[test]
fn responses_round_trip_and_reject_every_prefix() {
    let responses = [
        KvResponse::Ok,
        KvResponse::Value(None),
        KvResponse::Value(Some("v".into())),
        KvResponse::CasResult { swapped: true },
        KvResponse::CasResult { swapped: false },
        KvResponse::Entries(vec![("a".into(), "1".into()), ("b".into(), "2".into())]),
        KvResponse::Entries(Vec::new()),
    ];
    for out in &responses {
        round_trip(out, put_response, get_response);
    }
}

#[test]
fn ops_round_trip_with_their_tags() {
    let ops = [
        SmrOp::Noop,
        SmrOp::Cmd(cmd(7, 2, put("k", "v"))),
        SmrOp::Cmd(cmd(3, 1, range("a", "q", 16))),
    ];
    for (tag, op) in [0u8, 1, 1].into_iter().zip(&ops) {
        round_trip(op, put_op, get_op::<SmrOp>);
        let mut buf = Vec::new();
        put_op(&mut buf, op);
        assert_eq!(buf[0], tag, "{op:?}");
    }
    let batch = every_command();
    round_trip(&batch, put_op, get_op::<Vec<_>>);
    let mut buf = Vec::new();
    put_op(&mut buf, &batch);
    assert_eq!(buf[0], 2, "batches carry tag 2");
    assert_eq!(
        get_op::<SmrOp>(&mut Reader::new(&buf)),
        None,
        "a log without batches refuses tag 2"
    );
    assert_eq!(get_op::<SmrOp>(&mut Reader::new(&[9, 0, 0, 0])), None);
}

#[test]
fn machine_body_round_trips_digest_exactly() {
    let mut m = DedupKvMachine::default();
    for i in 0..20u32 {
        m.apply_cmd(&cmd(
            i % 3,
            u64::from(i),
            put(&format!("k{i}"), &format!("v{i}")),
        ));
    }
    m.apply_cmd(&cmd(0, 50, KvCommand::Get { key: "k1".into() }));
    m.apply_cmd(&cmd(1, 51, cas("k2", "nope", "x")));
    m.apply_cmd(&cmd(2, 52, range("k0", "k3", 8)));
    m.apply_cmd(&cmd(
        4,
        1,
        KvCommand::Get {
            key: "absent".into(),
        },
    ));
    let mut blob = Vec::new();
    put_machine(&mut blob, &m);
    let mut r = Reader::new(&blob);
    let restored = get_machine(&mut r).expect("decodes");
    assert_eq!(r.remaining(), 0);
    assert_eq!(restored.digest(), m.digest(), "digest must survive");
    assert_eq!(restored.kv().applied(), m.kv().applied());
    assert_eq!(restored.client_table(), m.client_table());
    for cut in 0..blob.len() {
        assert!(
            get_machine(&mut Reader::new(&blob[..cut])).is_none(),
            "cut {cut}"
        );
    }
}

#[test]
fn batch_machine_matches_the_flattened_command_sequence() {
    let mut one_by_one = DedupKvMachine::default();
    let mut batched = KvBatchMachine::<Vec<Command<KvCommand>>>::default();
    let mut cmds = every_command();
    cmds.push(cmd(1, 1, put("x", "dup"))); // deduplicated: keeps `y`
    let outs = batched.apply(&cmds);
    for (c, (client, seq, out)) in cmds.iter().zip(outs) {
        assert_eq!((c.client, c.seq), (client, seq));
        assert_eq!(one_by_one.apply_cmd(c), out);
    }
    assert_eq!(batched.digest(), one_by_one.digest());
    assert_eq!(
        batched.kv().get("x"),
        None,
        "deleted, not re-put by the duplicate"
    );
}

fn durable_plane() -> DurablePlane {
    let mut plane = DurablePlane::default();
    plane.attach(Box::new(MemEngine::new()));
    plane
}

/// Applies `cmds` to `m` and mirrors them all into `plane`.
fn apply_and_mirror(
    plane: &mut DurablePlane,
    m: &mut DedupKvMachine,
    cmds: &[Command<KvCommand>],
) -> Vec<(String, String)> {
    let outs: Vec<KvResponse> = cmds.iter().map(|c| m.apply_cmd(c)).collect();
    plane.mirror(m.kv(), cmds.iter().zip(&outs))
}

fn index(plane: &mut DurablePlane) -> Vec<(String, String)> {
    plane
        .engine
        .as_mut()
        .expect("attached")
        .scan("", "\u{10FFFF}")
}

#[test]
fn rebuild_drops_keys_the_installed_machine_lacks() {
    let mut plane = durable_plane();
    let mut live = DedupKvMachine::default();
    apply_and_mirror(
        &mut plane,
        &mut live,
        &[cmd(1, 1, put("gone", "1")), cmd(1, 2, put("kept", "old"))],
    );
    // A peer's checkpoint that never saw `gone` lands on the live index, as
    // a Multi-Paxos `InstallState` onto a running follower does.
    let mut installed = DedupKvMachine::default();
    installed.apply_cmd(&cmd(2, 1, put("kept", "new")));
    installed.apply_cmd(&cmd(2, 2, put("~dec.t4.1", "abort")));
    plane.rebuild(installed.kv());
    assert_eq!(
        index(&mut plane),
        vec![
            ("kept".to_string(), "new".to_string()),
            ("~dec.t4.1".to_string(), "abort".to_string())
        ]
    );
    assert_eq!(
        plane.txn_decisions().get("~dec.t4.1").map(String::as_str),
        Some("abort"),
        "checkpointed decisions re-seed the decision table"
    );
    assert_eq!(plane.txn_decisions_logged, 0, "a rebuild logs nothing new");
}

#[test]
fn mirrored_decision_writes_are_returned_and_counted() {
    let mut plane = durable_plane();
    let mut m = DedupKvMachine::default();
    let pending = apply_and_mirror(
        &mut plane,
        &mut m,
        &[
            cmd(1, 1, put("~dec.t7.3", "pending")),
            cmd(1, 2, put("a", "commit")),
        ],
    );
    assert!(
        pending.is_empty(),
        "neither a pending init nor a data key resolves"
    );
    let resolved = apply_and_mirror(
        &mut plane,
        &mut m,
        &[
            cmd(1, 3, cas("~dec.t7.3", "pending", "commit")),
            cmd(2, 1, range("", "~", 8)),
        ],
    );
    let want = vec![("~dec.t7.3".to_string(), "commit".to_string())];
    assert_eq!(resolved, want);
    assert_eq!(plane.txn_decisions_logged, 1);
    assert_eq!(
        plane.txn_decisions().get("~dec.t7.3").map(String::as_str),
        Some("commit")
    );
    assert_eq!(index(&mut plane).len(), 2);
}

#[test]
fn failed_cas_mirrors_nothing() {
    let mut plane = durable_plane();
    let mut m = DedupKvMachine::default();
    apply_and_mirror(
        &mut plane,
        &mut m,
        &[cmd(1, 1, put("~dec.t1.1", "pending"))],
    );
    let resolved = apply_and_mirror(
        &mut plane,
        &mut m,
        &[
            cmd(1, 2, cas("~dec.t1.1", "nope", "commit")),
            cmd(1, 3, cas("fresh", "", "x")),
        ],
    );
    assert!(resolved.is_empty());
    assert_eq!(plane.txn_decisions_logged, 0);
    assert_eq!(
        index(&mut plane),
        vec![("~dec.t1.1".to_string(), "pending".to_string())]
    );
}

#[test]
fn recovery_counts_records_and_reseeds_nothing_by_itself() {
    let mut plane = durable_plane();
    let mut m = DedupKvMachine::default();
    apply_and_mirror(&mut plane, &mut m, &[cmd(1, 1, put("~dec.t2.2", "commit"))]);
    plane.log(|| vec![1, 2, 3]);
    plane.log(|| vec![4]);
    plane.engine.as_mut().expect("attached").sync();
    plane.log(|| vec![5]); // never synced: lost in the crash
    let recovery = plane.crash_and_recover();
    assert_eq!(recovery.records, vec![vec![1, 2, 3], vec![4]]);
    assert_eq!(plane.last_recovery_replayed, 2);
    assert!(
        plane.txn_decisions().is_empty(),
        "the table is rebuilt from disk"
    );
    plane.restore_decision("~dec.t2.2".into(), "commit".into());
    plane.finish_recovery(7);
    assert_eq!(plane.recovered_floor, 7);
    assert_eq!(
        plane.last_recovery_io_us, 0,
        "the RAM engine charges no time"
    );
    assert_eq!(plane.stats().expect("attached").recoveries, 1);
}

#[test]
fn a_plane_without_an_engine_does_nothing() {
    let mut plane = DurablePlane::default();
    let mut m = DedupKvMachine::default();
    plane.log(|| unreachable!("no engine, no encoding"));
    assert!(
        apply_and_mirror(&mut plane, &mut m, &[cmd(1, 1, put("~dec.t1.1", "commit"))]).is_empty()
    );
    plane.rebuild(m.kv());
    assert!(!plane.is_enabled());
    assert_eq!(plane.stats(), None);
    assert!(plane.txn_decisions().is_empty());
}
