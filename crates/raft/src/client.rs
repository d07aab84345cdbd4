//! The Raft side of the shared client session (same policy as
//! `paxos::multi`): requests go to the guessed leader, `NotLeader`
//! redirects move the guess, and a silent leader is retried after 100 ms
//! and abandoned on the second expiry.

use consensus_core::session::{self, ClientAdapter, Incoming, Retry};
use consensus_core::{Command, KvCommand};

use crate::msg::RaftMsg;

/// Raft's [`ClientAdapter`].
pub struct RaftAdapter;

impl ClientAdapter for RaftAdapter {
    type Msg = RaftMsg;
    const RETRY_US: u64 = 100_000;
    const RETRY: Retry = Retry::Guess;

    fn request(cmd: Command<KvCommand>) -> RaftMsg {
        RaftMsg::Request { cmd }
    }

    fn classify(msg: RaftMsg) -> Incoming {
        match msg {
            RaftMsg::Reply { seq, output, .. } => Incoming::Reply(seq, output),
            RaftMsg::NotLeader { seq, hint } => Incoming::Redirect(seq, hint),
            RaftMsg::ReadResp {
                client,
                seq,
                value,
                mode,
            } => Incoming::ReadResp(client, seq, value, mode),
            _ => Incoming::Other,
        }
    }
}

/// A Raft workload client: closed loop by default, optionally open loop
/// with a fixed issue interval so batching experiments can saturate the
/// leader.
pub type Client = session::Client<RaftAdapter>;
