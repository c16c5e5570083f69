//! Observability for the coherent-naming reproduction: resolution span
//! traces, a lock-free metrics registry, and trace exporters.
//!
//! The paper's coherence arguments (§4–§5) hinge on *how* a name was
//! resolved — which closure rule fired, which contexts were traversed,
//! where resolution diverged between activities. This crate records that
//! causal story:
//!
//! * [`trace`] — the data model: a [`trace::ResolutionTrace`] per
//!   resolution (one [`trace::Hop`] per component of the compound name,
//!   mirroring the paper's `c(n1 n2 … nk) = σ(c(n1))(n2 … nk)` recursion),
//!   plus generic timeline [`trace::Event`]s for messages, protocol
//!   round-trips, coherence violations, and remote executions.
//! * [`recorder`] — a thread-local recorder the instrumented crates write
//!   into. Installation is explicit; when no recorder is installed every
//!   hook is a branch on a thread-local `Option` and allocates nothing.
//! * [`metrics`] — sharded lock-free counters and fixed-bucket power-of-two
//!   histograms behind a global registry, with snapshot/diff semantics.
//! * [`flight`] — per-worker flight recorders: bounded lossy rings of
//!   sampled resolutions with deterministic 1-in-N admission keyed on a
//!   hash of `(request id, name)`, merged worker-count-invariantly.
//! * [`window`] — rolling time-windowed histograms (live p50/p99/p999
//!   over a bounded horizon) and the Prometheus-style text
//!   [`window::render_exposition`] renderer.
//! * [`chrome`] / [`jsonl`] — exporters: Chrome `trace_event` JSON
//!   (loadable in Perfetto / `about:tracing`) and a line-oriented JSONL
//!   event log.
//! * [`json`] — string escaping shared by the exporters and a small
//!   validity checker used by tests to round-trip exported traces.
//!
//! This crate is a *leaf*: it knows nothing about the naming model. Ids
//! are raw `u64`s and labels are strings, so every layer of the workspace
//! (core, sim, resolver, port, schemes, bench) can depend on it without
//! cycles.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod flight;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod recorder;
pub mod trace;
pub mod window;

pub use flight::{FlightEntry, FlightLog, FlightRecorder, Sampler, SharedFlightRecorder};
pub use metrics::{Gauge, GaugeSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{BottomCause, Event, Hop, MemoEvent, Outcome, ResolutionTrace, TraceData};
pub use window::{render_exposition, WindowedHistogram};
