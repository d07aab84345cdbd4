//! Unit tests of the client session against scripted replicas and a fake
//! adapter, one behaviour per test.

use super::*;
use simnet::{NetConfig, RunOutcome, Sim};

#[derive(Clone, Debug)]
pub enum Msg {
    Req(Command<KvCommand>),
    Rep { seq: u64, output: KvResponse },
    Redirect { seq: u64, hint: NodeId },
}

impl Payload for Msg {}

fn classify(msg: Msg) -> Incoming {
    match msg {
        Msg::Rep { seq, output } => Incoming::Reply(seq, output),
        Msg::Redirect { seq, hint } => Incoming::Redirect(seq, hint),
        Msg::Req(_) => Incoming::Other,
    }
}

/// The leader-based policy of Multi-Paxos and Raft.
pub struct Leader;

impl ClientAdapter for Leader {
    type Msg = Msg;
    const RETRY_US: u64 = 100_000;
    const RETRY: Retry = Retry::Guess;
    fn request(cmd: Command<KvCommand>) -> Msg {
        Msg::Req(cmd)
    }
    fn classify(msg: Msg) -> Incoming {
        classify(msg)
    }
}

/// The PBFT policy: broadcast retry, `f+1` matching replies.
pub struct Bft;

impl ClientAdapter for Bft {
    type Msg = Msg;
    const RETRY_US: u64 = 150_000;
    const RETRY: Retry = Retry::Broadcast;
    fn request(cmd: Command<KvCommand>) -> Msg {
        Msg::Req(cmd)
    }
    fn classify(msg: Msg) -> Incoming {
        classify(msg)
    }
    fn reply_quorum(n_replicas: usize) -> usize {
        (n_replicas - 1) / 3 + 1
    }
}

/// How a scripted replica answers a request.
#[derive(Clone)]
pub enum Answer {
    Silent,
    Reply(KvResponse),
    Redirect(u32),
    /// A reply for a sequence number the client never issued.
    StaleReply,
    /// A redirect for a sequence number the client never issued.
    StaleRedirect,
}

/// Answers its k-th request with `script[k]`; the last entry repeats.
pub struct Replica {
    script: Vec<Answer>,
    /// Arrival time (µs) of every request.
    seen: Vec<u64>,
}

impl Node for Replica {
    type Msg = Msg;
    fn on_start(&mut self, _ctx: &mut Context<Msg>) {}
    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let Msg::Req(cmd) = msg else { return };
        let answer = self.script[self.seen.len().min(self.script.len() - 1)].clone();
        self.seen.push(ctx.now().0);
        let seq = cmd.seq;
        let reply = match answer {
            Answer::Silent => return,
            Answer::Reply(output) => Msg::Rep { seq, output },
            Answer::Redirect(hint) => Msg::Redirect {
                seq,
                hint: NodeId(hint),
            },
            Answer::StaleReply => Msg::Rep {
                seq: seq + 1_000,
                output: KvResponse::Ok,
            },
            Answer::StaleRedirect => Msg::Redirect {
                seq: seq + 1_000,
                hint: ctx.id(),
            },
        };
        ctx.send(from, reply);
    }
}

simnet::node_enum! {
    pub enum Proc: Msg {
        Replica(Replica),
        Leader(Client<Leader>),
        Bft(Client<Bft>),
    }
}

/// Scripted replicas `0..scripts.len()` plus the client as the last
/// node, on a fixed 500 µs network.
fn world(scripts: Vec<Vec<Answer>>, client: impl Into<Proc>) -> Sim<Proc> {
    let mut sim = Sim::new(NetConfig::synchronous(), 1);
    for script in scripts {
        sim.add_node(Replica {
            script,
            seen: Vec::new(),
        });
    }
    sim.add_node(client);
    sim
}

fn leader_client(n: usize, total: usize, mode: WorkloadMode) -> Client<Leader> {
    Client::new(n as u32, n, total, KvMix::default(), 1, mode)
}

fn seen(sim: &Sim<Proc>, r: u32) -> &[u64] {
    match sim.node(NodeId(r)) {
        Proc::Replica(r) => &r.seen,
        _ => panic!("node {r} is not a replica"),
    }
}

fn session(sim: &Sim<Proc>) -> &Session {
    match sim.node(NodeId::from(sim.n_nodes() - 1)) {
        Proc::Leader(c) => &c.session,
        Proc::Bft(c) => &c.session,
        Proc::Replica(_) => panic!("the last node is the client"),
    }
}

#[test]
fn redirect_hint_is_followed_unless_it_names_the_replier() {
    // 0 points at 2; 2 points at itself, so the client probes 3 next.
    let ok = Answer::Reply(KvResponse::Ok);
    let scripts = vec![
        vec![Answer::Redirect(2)],
        vec![ok.clone()],
        vec![Answer::Redirect(2)],
        vec![ok],
    ];
    let mut sim = world(scripts, leader_client(4, 1, WorkloadMode::Closed));
    sim.run_until(Time(50_000));
    let counts: Vec<usize> = (0..4).map(|r| seen(&sim, r).len()).collect();
    assert_eq!(counts, [1, 0, 1, 1]);
    assert_eq!(session(&sim).completed, 1);
}

#[test]
fn one_nudge_is_armed_per_burst_of_redirects() {
    // Five requests issued 10 µs apart all bounce off replica 0 before
    // the first redirect lands; one nudge resends each of them once.
    let scripts = vec![vec![Answer::Redirect(1)], vec![Answer::Silent]];
    let client = leader_client(2, 5, WorkloadMode::Open { interval_us: 10 });
    let mut sim = world(scripts, client);
    sim.run_until(Time(50_000));
    assert_eq!(seen(&sim, 0).len(), 5);
    let resent = seen(&sim, 1);
    assert_eq!(resent.len(), 5);
    assert!(
        resent.iter().all(|&t| t == resent[0]),
        "one nudge, one burst"
    );
}

#[test]
fn guess_rotates_only_on_the_second_silent_expiry() {
    let scripts = vec![vec![Answer::Silent]; 3];
    let mut sim = world(scripts, leader_client(3, 1, WorkloadMode::Closed));
    sim.run_until(Time(250_000));
    // Issue and the first expiry go to 0; the second expiry rotates.
    assert_eq!(seen(&sim, 0), [500, 100_500]);
    assert_eq!(seen(&sim, 1), [200_500]);
    assert!(seen(&sim, 2).is_empty());
}

#[test]
fn guess_retry_timer_of_a_completed_command_never_fires() {
    // Command 1 completes at 1 ms and command 2 is issued at once; 0
    // stays silent from then on. The deadline armed for command 1 (due at
    // 100 ms) is cancelled, so neither resends nor strikes: the live
    // deadline resends at 101 ms and rotates to 1 only at 201 ms.
    let scripts = vec![
        vec![Answer::Reply(KvResponse::Ok), Answer::Silent],
        vec![Answer::Silent],
    ];
    let mut sim = world(scripts, leader_client(2, 2, WorkloadMode::Closed));
    sim.run_until(Time(150_000));
    assert_eq!(session(&sim).completed, 1);
    assert_eq!(seen(&sim, 0), [500, 1_500, 101_500]);
    assert!(seen(&sim, 1).is_empty());
    assert_eq!(sim.metrics().timer_fires, 1);
    sim.run_until(Time(250_000));
    assert_eq!(seen(&sim, 1), [201_500]);
    assert_eq!(sim.metrics().timer_fires, 2);
}

/// Documents the PBFT exception on [`Retry::Broadcast`]; goes away when
/// that path also keeps a single armed deadline.
#[test]
fn broadcast_still_arms_one_retry_timer_per_issue() {
    // One replica (quorum 1) answers command 1 and then stays silent. The
    // timer armed for command 1 still fires at 150 ms and resends command
    // 2, a millisecond before command 2's own timer does the same.
    let scripts = vec![vec![Answer::Reply(KvResponse::Ok), Answer::Silent]];
    let client: Client<Bft> = Client::new(1, 1, 2, KvMix::default(), 1, WorkloadMode::Closed);
    let mut sim = world(scripts, client);
    sim.run_until(Time(200_000));
    assert_eq!(session(&sim).completed, 1);
    assert_eq!(seen(&sim, 0), [500, 1_500, 150_500, 151_500]);
    assert_eq!(sim.metrics().timer_fires, 2);
}

#[test]
fn any_reply_or_redirect_resets_the_strikes() {
    // Replies and redirects for unknown sequence numbers still show the
    // guess is alive, so each clears the strike count.
    let script = vec![
        Answer::Silent,
        Answer::StaleReply,
        Answer::StaleRedirect,
        Answer::Silent,
    ];
    let scripts = vec![script, vec![Answer::Silent], vec![Answer::Silent]];
    let mut sim = world(scripts, leader_client(3, 1, WorkloadMode::Closed));
    sim.run_until(Time(350_000));
    assert_eq!(seen(&sim, 0).len(), 4);
    assert!(seen(&sim, 1).is_empty());
    sim.run_until(Time(450_000));
    assert_eq!(seen(&sim, 1), [400_500]);
}

#[test]
fn bft_quorum_needs_f_plus_one_matching_outputs() {
    // n = 4, f = 1: two distinct replicas must return the same output.
    let x = KvResponse::Value(Some("x".to_string()));
    let y = KvResponse::Value(Some("y".to_string()));
    let scripts = vec![
        vec![Answer::Reply(x.clone())],
        vec![Answer::Reply(y)],
        vec![Answer::Silent],
        vec![Answer::Reply(x.clone())],
    ];
    let client: Client<Bft> = Client::new(4, 4, 1, KvMix::default(), 1, WorkloadMode::Closed);
    let mut sim = world(scripts, client);
    // Before the broadcast only replica 0 has answered: one vote.
    sim.run_until(Time(149_000));
    assert_eq!(session(&sim).completed, 0);
    // The broadcast brings a repeat vote from 0, a conflicting one from
    // 1, and the matching second vote from 3.
    sim.run_until(Time(300_000));
    let s = session(&sim);
    assert_eq!(s.completed, 1);
    let rec = &s.history.records()[0];
    assert_eq!(rec.completed, Some((151_000, x)));
}

#[test]
fn replies_for_sequences_not_outstanding_are_ignored() {
    let scripts = vec![vec![Answer::StaleReply]];
    let mut sim = world(scripts, leader_client(1, 1, WorkloadMode::Closed));
    sim.run_until(Time(50_000));
    let s = session(&sim);
    assert_eq!(s.completed, 0);
    assert!(!s.history.records()[0].is_complete());
    assert_eq!(s.latencies.count(), 0);
}

#[test]
fn open_loop_issue_stops_at_total() {
    let scripts = vec![vec![Answer::Reply(KvResponse::Ok)]];
    let client = leader_client(1, 5, WorkloadMode::Open { interval_us: 1_000 });
    let mut sim = world(scripts, client);
    // The issue timer is not re-armed after the fifth command, so the
    // run drains once the last retry deadline has fired.
    assert_eq!(sim.run_until(Time(10_000_000)), RunOutcome::Quiescent);
    let s = session(&sim);
    assert_eq!(s.history.len(), 5);
    assert_eq!(s.completed, 5);
    assert!(s.done());
    assert_eq!(seen(&sim, 0).len(), 5);
}
