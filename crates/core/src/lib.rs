//! # consensus-core — the tutorial's own contributions
//!
//! This crate implements the conceptual machinery of *"Modern Large-Scale
//! Data Management Systems after 40 Years of Consensus"* (Amiri, Agrawal,
//! El Abbadi, ICDE 2020):
//!
//! * [`taxonomy`] — the five-aspect classification (synchrony mode, failure
//!   model, processing strategy, participant awareness, complexity metrics)
//!   and the per-protocol "info cards" shown throughout the tutorial. The
//!   benchmark harness cross-checks every card against measured behaviour.
//! * [`ballot`] — totally ordered `⟨num, process id⟩` ballots, exactly as in
//!   the Paxos slides.
//! * [`quorum`] — quorum systems: majority, Byzantine (`2f+1` of `3f+1`),
//!   flexible (FPaxos' generalized quorum condition), grid, and the hybrid
//!   `m`-malicious/`c`-crash systems of UpRight/SeeMoRe, with intersection
//!   checkers used by property tests.
//! * [`smr`] — state machine replication building blocks: commands, a
//!   replicated log, and deterministic state machines (key-value store,
//!   counter, bank).
//! * [`workload`] — deterministic client workload generators and latency
//!   recording shared by all protocol crates and the bench harness.
//! * [`durable`] — the durable KV layer Multi-Paxos and Raft share: one
//!   codec for commands, replies, log ops and checkpoint bodies, and the
//!   [`durable::DurablePlane`] each replica holds (engine, WAL sync, index
//!   mirror and rebuild, transaction-decision table, recovery counters).
//! * [`driver`] — the unified [`ClusterDriver`] API (construct from seed,
//!   step, fault, harvest) plus the shared [`BatchConfig`]
//!   batching/pipelining knob; bench and nemesis drive every SMR protocol
//!   only through this trait.
//! * [`session`] — the one client session every SMR protocol shares
//!   (issue, retry, redirect, reply quorum), behind a small per-protocol
//!   [`session::ClientAdapter`].
//! * [`txn`] — shared transaction types for the sharded store
//!   (`forty-store`): transaction ids, the router-facing [`StoreCommand`],
//!   and the log-entry encoding of the Gray–Lamport 2PC-over-consensus
//!   construction, including the C&C phase mapping of its prepare/decide
//!   steps.
//! * [`cnc`] — the **Consensus & Commitment (C&C) framework**: every
//!   leader-based agreement protocol as *Leader Election → Value Discovery →
//!   Fault-tolerant Agreement → Decision*, including a runnable generic
//!   engine whose configurations yield abstract Paxos, abstract 2PC, and
//!   abstract (fault-tolerant) 3PC.

pub mod ballot;
pub mod cnc;
pub mod driver;
pub mod durable;
pub mod history;
pub mod quorum;
pub mod session;
pub mod smr;
pub mod taxonomy;
pub mod txn;
pub mod workload;

pub use ballot::Ballot;
pub use driver::{BatchConfig, ByzantineWindow, ClusterDriver, DecidedEntry, DriverConfig};
pub use history::{ClientRecord, HistorySink};
pub use quorum::QuorumSpec;
pub use workload::WorkloadMode;
pub use smr::{
    Bank, BankOp, BankResponse, CmdOp, Command, DedupKvMachine, KvBatchMachine, KvCommand, KvResponse,
    KvStore, ReadMode, ReplicatedLog, SmrOp, StateMachine,
};
pub use taxonomy::{
    ComplexityClass, FailureModel, NodeBound, ParticipantAwareness, ProcessingStrategy,
    ProtocolCard,
};
pub use txn::{StoreCommand, Transaction, TxnDecision, TxnId, TxnPhase};
