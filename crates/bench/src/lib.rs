//! # naming-bench
//!
//! The experiment harness for the coherent-naming reproduction: every
//! figure and qualitative claim of Radia & Pachl (ICDCS '93) regenerated as
//! a measured table (see [`experiments`]), plus criterion benchmarks for
//! the performance dimensions (resolution cost, audit cost, PQID mapping
//! overhead, scheme comparison, embedded-name scope search).
//!
//! Regenerate everything with:
//!
//! ```text
//! cargo run -p naming-bench --bin experiments
//! cargo bench -p naming-bench
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod experiments;
pub mod scenarios;
pub mod watch;
