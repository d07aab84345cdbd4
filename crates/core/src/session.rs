//! The client session shared by every SMR protocol.
//!
//! In the C&C framework, SMR protocols differ in how replicas elect a
//! leader and agree on values, not in how a client submits a request and
//! waits for its reply. [`Session`] is that common half: the workload, the
//! outstanding requests, the history and latencies, the causal root span of
//! each request, the leader guess with its redirect nudge and retry strikes,
//! closed- or open-loop issue, and the fast-read replies a gateway client
//! collects. A protocol plugs in through a [`ClientAdapter`]: it wraps a
//! command into its request message, classifies incoming messages, and
//! states its retry policy and reply quorum as constants. [`Client`] is the
//! simulated node that pairs the two.
//!
//! The state machine, per client:
//!
//! * **Issue.** Closed loop issues the next command when the previous one
//!   completes; open loop issues one every `interval_us` until `total`.
//!   Each issued command gets a root trace span, goes to the leader guess,
//!   and (re)arms the retry deadline of [`ClientAdapter::RETRY_US`].
//! * **Reply.** A reply for an outstanding sequence number counts as one
//!   vote for its output; at [`ClientAdapter::reply_quorum`] matching votes
//!   from distinct replicas the command completes. Every reply, outstanding
//!   or not, clears the retry strikes.
//! * **Redirect.** A redirect for an outstanding command moves the guess to
//!   the hint, or, when the hint names the replier itself, to the replica
//!   after the replier. It arms one 2 ms nudge resend unless one is
//!   already armed. Every redirect clears the strikes.
//! * **Retry expiry.** A [`Retry::Guess`] client holds exactly one armed
//!   retry deadline: every issue or resend cancels the previous timer and
//!   arms a fresh one, and only the armed timer acts. On expiry with
//!   outstanding commands it resends them all to the guess and rotates the
//!   guess on the second consecutive expiry. A [`Retry::Broadcast`] client
//!   still arms one timer per issue and resend and never cancels one, so
//!   timers of completed commands fire too; each sends every outstanding
//!   command to every replica (see [`Retry::Broadcast`] for why this path
//!   keeps its leak for now).

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

use simnet::{Context, Node, NodeId, Payload, Time, Timer, TimerId, TraceCtx};

use crate::history::HistorySink;
use crate::smr::{Command, KvCommand, KvResponse, ReadMode};
use crate::workload::{KvMix, KvWorkload, LatencyRecorder, WorkloadMode};

/// Timer kind of the retry deadline.
const RETRY: u64 = 1;
/// Timer kind of the open-loop issue tick.
const ISSUE: u64 = 2;
/// Timer kind of the post-redirect resend.
const NUDGE: u64 = 3;

/// Delay before resending after a redirect. A single armed nudge (instead
/// of an immediate resend per redirect) bounds redirect traffic to one
/// resend per client per interval: with a transmit-limited NIC, stale
/// redirects otherwise arrive from a growing queue and every bounce
/// triggers another bounce — a self-sustaining request storm.
const NUDGE_US: u64 = 2_000;

/// Consecutive silent retry expiries after which [`Retry::Guess`] moves
/// the guess to the next replica.
const ROTATE_STRIKES: u8 = 2;

/// What a client does when its retry timer expires with commands
/// outstanding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Retry {
    /// Resend every outstanding command to the leader guess; move the guess
    /// to the next replica on the second consecutive expiry with no reply
    /// or redirect in between.
    Guess,
    /// Send every outstanding command to every replica.
    ///
    /// Unlike [`Retry::Guess`], this path still arms one timer per issue
    /// and resend and never cancels them, so the timers of completed
    /// commands fire too. Giving PBFT a single armed deadline stops the
    /// seed-5 reproduction of its pinned primary-crash agreement defect, so
    /// it lands together with the client tracking the primary from
    /// `Reply.view`, where that defect pin is revisited.
    Broadcast,
}

/// A protocol message as the client session sees it.
#[derive(Debug)]
pub enum Incoming {
    /// A replica's answer: `(seq, output)`.
    Reply(u64, KvResponse),
    /// "Not the leader; try `hint`": `(seq, hint)`.
    Redirect(u64, NodeId),
    /// A fast-path read reply: `(reader client id, read seq, value, mode)`;
    /// the value is meaningless on [`ReadMode::Nack`].
    ReadResp(u32, u64, Option<String>, ReadMode),
    /// Anything else; ignored.
    Other,
}

/// The protocol-specific part of a client: message wrapping and
/// classification plus the protocol's constant retry policy and reply
/// quorum.
pub trait ClientAdapter: 'static {
    /// The protocol's message type.
    type Msg: Payload;
    /// Silence (µs) after an issue or resend before the retry fires.
    const RETRY_US: u64;
    /// What the retry does.
    const RETRY: Retry;

    /// Wraps a command into the protocol's request message.
    fn request(cmd: Command<KvCommand>) -> Self::Msg;

    /// Classifies a message delivered to the client.
    fn classify(msg: Self::Msg) -> Incoming;

    /// Matching replies from distinct replicas that complete a command.
    fn reply_quorum(n_replicas: usize) -> usize {
        let _ = n_replicas;
        1
    }
}

/// The protocol-independent state of one workload client.
pub struct Session {
    n_replicas: usize,
    workload: KvWorkload,
    total: usize,
    mode: WorkloadMode,
    /// Completed commands.
    pub(crate) completed: usize,
    /// Issued-but-incomplete commands with their issue time, by sequence.
    outstanding: BTreeMap<u64, (Command<KvCommand>, Time)>,
    /// Causal root span per outstanding command (when tracing is enabled).
    trace_roots: BTreeMap<u64, TraceCtx>,
    /// Reply votes per outstanding command: each distinct output with the
    /// replicas that returned it (only for reply quorums above one).
    votes: BTreeMap<u64, Vec<(KvResponse, BTreeSet<NodeId>)>>,
    leader_guess: NodeId,
    /// The one armed retry deadline of a [`Retry::Guess`] client.
    retry_timer: Option<TimerId>,
    nudge_armed: bool,
    /// Consecutive retry expiries with no reply or redirect.
    retry_strikes: u8,
    /// Request → reply latencies.
    pub(crate) latencies: LatencyRecorder,
    /// Invoke/response history for safety checking.
    pub history: HistorySink,
    /// Fast-read replies landed at this node, keyed by `(reader client id,
    /// read sequence number)`: `(value, mode)`. Filled by the geo read
    /// path, which borrows stub clients as regional read gateways (several
    /// routers may share one gateway, hence the compound key); the classic
    /// workload never touches it.
    pub read_replies: BTreeMap<(u32, u64), (Option<String>, ReadMode)>,
}

impl Session {
    // Cluster set-up builds one session per client; inlined, each is built
    // in place in its node instead of being copied out of a call.
    #[inline]
    fn new(
        client_id: u32,
        n_replicas: usize,
        total: usize,
        mix: KvMix,
        seed: u64,
        mode: WorkloadMode,
    ) -> Self {
        Session {
            n_replicas,
            workload: KvWorkload::new(client_id, mix, seed),
            total,
            mode,
            completed: 0,
            outstanding: BTreeMap::new(),
            trace_roots: BTreeMap::new(),
            votes: BTreeMap::new(),
            leader_guess: NodeId(0),
            retry_timer: None,
            nudge_armed: false,
            retry_strikes: 0,
            latencies: LatencyRecorder::new(),
            history: HistorySink::new(),
            read_replies: BTreeMap::new(),
        }
    }

    /// Whether every command completed.
    pub fn done(&self) -> bool {
        self.completed >= self.total
    }

    fn issue_next<A: ClientAdapter>(&mut self, ctx: &mut Context<A::Msg>) {
        if self.workload.issued() as usize >= self.total {
            return;
        }
        let cmd = self.workload.next_command();
        self.history
            .invoke(cmd.client, cmd.seq, cmd.op.clone(), ctx.now().0);
        self.outstanding.insert(cmd.seq, (cmd.clone(), ctx.now()));
        // Root the command's causal trace (no-op unless tracing is on); the
        // request send below inherits it automatically.
        if let Some(tc) = ctx.trace_begin(&format!("op c{} s{}", cmd.client, cmd.seq)) {
            self.trace_roots.insert(cmd.seq, tc);
        }
        ctx.send(self.leader_guess, A::request(cmd));
        self.arm_retry::<A>(ctx);
    }

    /// Arms a retry timer of [`ClientAdapter::RETRY_US`]. For
    /// [`Retry::Guess`] it replaces the armed deadline, cancelling the old
    /// one; [`Retry::Broadcast`] timers are never cancelled.
    fn arm_retry<A: ClientAdapter>(&mut self, ctx: &mut Context<A::Msg>) {
        let id = ctx.set_timer(A::RETRY_US, RETRY);
        if A::RETRY == Retry::Guess {
            if let Some(old) = self.retry_timer.replace(id) {
                ctx.cancel_timer(old);
            }
        }
    }

    /// Sends every outstanding command again, to the guess or to every
    /// replica, and arms a fresh retry timer.
    fn resend_all<A: ClientAdapter>(&mut self, ctx: &mut Context<A::Msg>, broadcast: bool) {
        for (seq, (cmd, _)) in &self.outstanding {
            // Retransmits stay on the command's original trace.
            ctx.set_trace_ctx(self.trace_roots.get(seq).copied());
            if broadcast {
                for r in 0..self.n_replicas {
                    ctx.send(NodeId::from(r), A::request(cmd.clone()));
                }
            } else {
                ctx.send(self.leader_guess, A::request(cmd.clone()));
            }
        }
        ctx.set_trace_ctx(None);
        if !self.outstanding.is_empty() {
            self.arm_retry::<A>(ctx);
        }
    }

    /// Counts `from`'s vote for `output` on `seq`; true once `quorum`
    /// distinct replicas returned that output.
    fn vote(&mut self, seq: u64, from: NodeId, output: &KvResponse, quorum: usize) -> bool {
        let tallies = self.votes.entry(seq).or_default();
        let i = match tallies.iter().position(|(o, _)| o == output) {
            Some(i) => i,
            None => {
                tallies.push((output.clone(), BTreeSet::new()));
                tallies.len() - 1
            }
        };
        tallies[i].1.insert(from);
        if tallies[i].1.len() < quorum {
            return false;
        }
        self.votes.remove(&seq);
        true
    }

    fn on_reply<A: ClientAdapter>(
        &mut self,
        ctx: &mut Context<A::Msg>,
        from: NodeId,
        seq: u64,
        output: KvResponse,
    ) {
        self.retry_strikes = 0;
        if !self.outstanding.contains_key(&seq) {
            return;
        }
        let quorum = A::reply_quorum(self.n_replicas);
        if quorum > 1 && !self.vote(seq, from, &output, quorum) {
            return;
        }
        let (cmd, sent_at) = self.outstanding.remove(&seq).expect("checked above");
        if let Some(tc) = self.trace_roots.remove(&seq) {
            ctx.trace_close(tc);
        }
        self.history
            .complete(cmd.client, cmd.seq, ctx.now().0, output);
        self.latencies.record(sent_at, ctx.now());
        self.completed += 1;
        if self.mode == WorkloadMode::Closed {
            self.issue_next::<A>(ctx);
        }
    }

    fn on_redirect<A: ClientAdapter>(
        &mut self,
        ctx: &mut Context<A::Msg>,
        from: NodeId,
        seq: u64,
        hint: NodeId,
    ) {
        self.retry_strikes = 0;
        if !self.outstanding.contains_key(&seq) {
            return;
        }
        // Follow the hint unless it points back at the replier; then probe
        // round-robin.
        self.leader_guess = if hint != from && hint.index() < self.n_replicas {
            hint
        } else {
            NodeId::from((from.index() + 1) % self.n_replicas)
        };
        if !self.nudge_armed {
            self.nudge_armed = true;
            ctx.set_timer(NUDGE_US, NUDGE);
        }
    }

    fn on_retry<A: ClientAdapter>(&mut self, ctx: &mut Context<A::Msg>) {
        match A::RETRY {
            Retry::Guess => {
                // First expiry resends to the current guess (the reply may
                // just be slow under load); only repeated silence rotates —
                // eagerly rotating off a live-but-saturated leader turns
                // every slow reply into a redirect round-trip.
                self.retry_strikes = self.retry_strikes.saturating_add(1);
                if self.retry_strikes >= ROTATE_STRIKES {
                    self.retry_strikes = 0;
                    self.leader_guess =
                        NodeId::from((self.leader_guess.index() + 1) % self.n_replicas);
                }
                self.resend_all::<A>(ctx, false);
            }
            // Escalate to every replica: with a faulty PBFT primary this is
            // what ultimately triggers a view change.
            Retry::Broadcast => self.resend_all::<A>(ctx, true),
        }
    }
}

/// A workload client node for the protocol of adapter `A`.
pub struct Client<A: ClientAdapter> {
    /// The protocol-independent client state.
    pub session: Session,
    adapter: PhantomData<fn() -> A>,
}

impl<A: ClientAdapter> Client<A> {
    /// A client that will issue `total` commands from the deterministic
    /// workload of `(client_id, mix, seed)`, paced by `mode`.
    pub fn new(
        client_id: u32,
        n_replicas: usize,
        total: usize,
        mix: KvMix,
        seed: u64,
        mode: WorkloadMode,
    ) -> Self {
        Client {
            session: Session::new(client_id, n_replicas, total, mix, seed, mode),
            adapter: PhantomData,
        }
    }
}

impl<A: ClientAdapter> Node for Client<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Context<A::Msg>) {
        let s = &mut self.session;
        s.issue_next::<A>(ctx);
        if let WorkloadMode::Open { interval_us } = s.mode {
            ctx.set_timer(interval_us.max(1), ISSUE);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<A::Msg>, from: NodeId, msg: A::Msg) {
        let s = &mut self.session;
        match A::classify(msg) {
            Incoming::Reply(seq, output) => s.on_reply::<A>(ctx, from, seq, output),
            Incoming::Redirect(seq, hint) => s.on_redirect::<A>(ctx, from, seq, hint),
            Incoming::ReadResp(client, seq, value, mode) => {
                s.read_replies.insert((client, seq), (value, mode));
            }
            Incoming::Other => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<A::Msg>, timer: Timer) {
        let s = &mut self.session;
        match timer.kind {
            RETRY => {
                // A Guess client acts only on its armed deadline, which has
                // now fired and must not be cancelled again.
                if A::RETRY == Retry::Guess {
                    if s.retry_timer != Some(timer.id) {
                        return;
                    }
                    s.retry_timer = None;
                }
                if !s.outstanding.is_empty() {
                    s.on_retry::<A>(ctx);
                }
            }
            NUDGE => {
                s.nudge_armed = false;
                s.resend_all::<A>(ctx, false);
            }
            ISSUE => {
                s.issue_next::<A>(ctx);
                if let WorkloadMode::Open { interval_us } = s.mode {
                    if (s.workload.issued() as usize) < s.total {
                        ctx.set_timer(interval_us.max(1), ISSUE);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests;
