//! The distributed front-end for the shard driver: a resident,
//! multi-tenant coordinator/worker protocol over TCP, folding remote
//! outcomes with the exact same merge path as a local `jobs = N` run.
//!
//! # Architecture
//!
//! Four pieces, one per submodule:
//!
//! * [`proto`] — the `RWP` v4 message protocol: length-prefixed,
//!   CRC-32-checksummed frames
//!   (`HELLO`/`WELCOME`/`LEASE`/`GRANT`/`HAVE`/`PULL`/`STALE`/
//!   `SHARD_OPEN`/`SHARD_CHUNK`/`OUTCOME`/`FAILED`/`DONE`/`JOB_OPEN`/
//!   `JOB_ACCEPT`/`JOB_CLOSE`/`REPORT`/`ERROR`/`FETCH`/`SHUTDOWN`) whose
//!   payloads use the same shared wire primitives as the `.rwf` trace
//!   codec, and whose results embed [`Outcome`](crate::Outcome) blobs in
//!   the `RWO` codec ([`crate::outcome::wire`]).  Every shard carries a
//!   stable content identity ([`proto::ContentId`]: length + CRC-32);
//!   grants are content-addressed, so a worker holding the bytes answers
//!   `HAVE` and nothing re-crosses the wire, and otherwise `PULL`s the
//!   chunk stream.  Shard bytes move as chunk streams in both
//!   directions, so no single frame ever has to hold a whole shard; a
//!   frame corrupted in transit is a typed error, never a silently wrong
//!   verdict.
//! * [`chaos`] — deterministic, seeded fault injection for tests and
//!   benches: a [`ChaosStream`](chaos::ChaosStream) perturbs the byte
//!   flow per a replayable [`FaultPlan`] (delays, bit flips, cuts,
//!   stalls), hooked into workers and submit clients via [`ChaosConfig`]
//!   — default off, plain streams, zero overhead.  The fault semantics
//!   and the invariants the chaos suite enforces live in `docs/CHAOS.md`.
//! * [`coordinator`] — `engine serve`: a long-running job registry.  Each
//!   *named job* carries its own detector spec and shard set, registered
//!   once as bytes (read at bind for the `serve FILES` default job,
//!   client-streamed otherwise); the coordinator leases shards from
//!   every job across one worker fleet
//!   (shipping the shard *bytes*, so workers need no shared filesystem),
//!   places shards on workers via a rendezvous-hash ring with
//!   largest-first (LPT) tie-breaking, requeues shards whose worker
//!   disconnected or whose lease expired, speculatively re-leases
//!   stragglers to idle workers when configured, folds each job's
//!   outcomes through [`fold_runs`](crate::driver::fold_runs) in input
//!   order, and answers `REPORT` per job without shutting down.  The
//!   scheduling model is specified in `docs/PLACEMENT.md`.
//! * [`worker`] — `engine work` and `engine submit`: a TCP
//!   [`WorkSource`](crate::driver::WorkSource)/[`ResultSink`](crate::driver::ResultSink)
//!   pair pumping the same [`drive_queue`](crate::driver::drive_queue)
//!   loop as the local pool (reconnecting with capped exponential backoff
//!   when the coordinator drops), with an optional content-addressed
//!   [`ShardCache`] and a prefetch pipeline that
//!   overlaps the next lease's transfer with the current shard's
//!   analysis, and the submit client that opens jobs, streams shards,
//!   and fetches per-job merged reports.
//!
//! # Distributed ≡ local
//!
//! Determinism carries over from the local driver wholesale: results are
//! slotted by `(job, shard)` index, folded in *input* order only after
//! every shard of the job completes, and each shard is analyzed by a
//! fresh engine + detector set (prescribed per job by the `GRANT`, so one
//! fleet can serve jobs with different configurations without mixing
//! them).  A coordinator + N workers therefore produces, for every job, a
//! merged [`Outcome`](crate::Outcome) equal — `PartialEq`, metrics
//! included — to `run_shards` over that job's shards at any local job
//! count, and byte-identical rendered race pairs.  Lease bookkeeping
//! guarantees each shard folds exactly once: a dead worker's shard is
//! requeued, and a late duplicate result (expired lease, slow worker, or
//! the losing side of a speculative re-lease) is answered with a
//! non-fatal `STALE` ack and never folded.
//!
//! The wire layouts, message flow, job lifecycle and lease/requeue
//! semantics are specified normatively in `docs/PROTOCOL.md`.

pub mod chaos;
pub mod coordinator;
pub mod proto;
pub mod worker;

pub use chaos::{ChaosConfig, FaultAction, FaultPlan};
pub use coordinator::{
    Coordinator, JobOutcome, ServeConfig, ServeControl, ServeSummary, DEFAULT_JOB,
};
pub use proto::ContentId;
pub use worker::{
    shutdown, submit, work, RemoteQueue, ShardCache, SubmitConfig, SubmitReport, WorkConfig,
    WorkSummary,
};
