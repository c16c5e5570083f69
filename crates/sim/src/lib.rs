//! # naming-sim
//!
//! A deterministic discrete-event simulator of a distributed computing
//! environment — the substrate on which the naming schemes of Radia &
//! Pachl's *Coherence in Naming in Distributed Computing Environments*
//! (ICDCS '93) are built and measured.
//!
//! The simulator provides exactly the behaviours coherence questions are
//! about, and nothing more:
//!
//! * [`codec`]: the wire's primitives — one writer that sizes and writes
//!   every frame, one bounds-checked reader, and the width rule deciding
//!   what a frame's fields can carry;
//! * [`topology`]: networks and machines with *renumberable* addresses
//!   (exercised by the partially-qualified-identifier experiments);
//! * [`world::World`]: processes with per-activity contexts (inherited on
//!   spawn, as in Unix), per-machine directory trees, message passing with
//!   latency, deterministic event ordering;
//! * [`store`]: directory-tree building (mounts, grafts, moves, structured
//!   objects with embedded names);
//! * [`workload`]: seeded generation of trees, and of name-usage patterns
//!   spanning the paper's three name sources.
//!
//! Determinism: all randomness flows through [`rng::SimRng`] and event ties
//! break by schedule order, so a seed reproduces a run bit-for-bit.
//!
//! ```
//! use naming_sim::world::World;
//! use naming_sim::store;
//! use naming_core::entity::Entity;
//!
//! let mut w = World::new(7);
//! let net = w.add_network("lab");
//! let host = w.add_machine("alpha", net);
//! let root = w.machine_root(host);
//! let etc = store::ensure_dir(w.state_mut(), root, "etc");
//! let passwd = store::create_file(w.state_mut(), etc, "passwd", b"root".to_vec());
//! assert_eq!(
//!     store::resolve_path(w.state(), root, "/etc/passwd"),
//!     Entity::Object(passwd),
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod event;
pub mod message;
pub mod rng;
pub mod store;
pub mod time;
pub mod topology;
pub mod trace;
pub mod workload;
pub mod world;

pub use world::World;
