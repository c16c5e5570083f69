//! # naming-resolver
//!
//! A distributed name-resolution protocol over the `naming-sim` substrate.
//!
//! The paper's model makes resolution a traversal of context objects; in a
//! distributed system those objects live on different machines, so
//! resolution is a protocol. This crate supplies the machinery the paper's
//! environment presupposes:
//!
//! * [`service::NameService`] — one name server per machine plus an
//!   authoritative *placement* of objects onto machines; servers resolve
//!   locally and refer across machine boundaries;
//! * [`wire`] — a hand-rolled binary framing of requests/replies carried
//!   through the simulator's message layer;
//! * [`engine::ProtocolEngine`] — drives lookups to completion in
//!   [`wire::Mode::Iterative`] (client chases referrals) or
//!   [`wire::Mode::Recursive`] (servers chase) mode, reporting messages,
//!   server work, and virtual-time latency;
//! * [`cache::CachingResolver`] — client-side caching, with *staleness
//!   audits*: a cached entry that no longer matches the authority is a
//!   name with two meanings — the paper's incoherence, in temporal form;
//! * [`concurrent::ConcurrentService`] (feature `parallel`) — a
//!   multi-worker serving front end over immutable copy-on-publish
//!   snapshots: readers never block, writes serialize through a publish
//!   step that swaps the shared `Arc`;
//! * [`runtime::PipelinedService`] — an event-driven reactor that
//!   multiplexes many in-flight batch resolutions as explicit
//!   state-machine continuations on one virtual timeline, removing the
//!   head-of-line blocking of a blocked-thread-per-batch pool while
//!   staying byte-identical across worker counts;
//! * [`observatory::StalenessObservatory`] — a coherence-SLO monitor
//!   grading observed staleness windows, false-⊥/unreachable rates, and
//!   publish-latency burn against declared thresholds, live.
//!
//! Experiment E14 (in `naming-bench`) uses this crate to measure
//! iterative-vs-recursive cost and cache staleness under binding churn.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod coherence;
#[cfg(feature = "parallel")]
pub mod concurrent;
pub(crate) mod continuation;
pub mod engine;
pub mod observatory;
pub mod referral;
pub mod runtime;
pub mod service;
pub mod wire;
#[cfg(feature = "telemetry")]
pub(crate) mod worker_metrics;
