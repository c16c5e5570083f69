//! Emits `BENCH_coherence.json`: the lease-coherence sweep behind the
//! TTL/serial cache-validation work — observed staleness windows,
//! false-⊥ counts, and anti-entropy transfer bytes across a
//! TTL × update-rate × drop-rate grid, with the exact-invalidation
//! resolver run side-by-side on an identical schedule.
//!
//! ```text
//! bench_coherence [--out PATH] [--stdout] [--seed N] [--zones N]
//!                 [--leaves N] [--rounds N]
//! ```
//!
//! Every grid combination runs the same deterministic
//! publish/resolve/sync schedule over the zone-aligned star world
//! (`scenarios::coherence_zones`) twice — once under
//! `CoherenceMode::Lease` (validation = TTL + zone serials heard over the
//! wire, never authoritative state) and once under `CoherenceMode::Exact`
//! (oracle generation healing). Each row reports, for the lease run,
//! staleness windows measured against the authority *by the experimenter*
//! (the resolver itself never looks), negative-cache false-⊥s,
//! sync/transfer accounting; and for the exact twin, its message and
//! staleness numbers. The binary asserts the lease bound before writing:
//! at drop 0 every observed staleness window is strictly below the TTL and
//! at most one sync period, and where the TTL exceeds the sync period no
//! lease lapses once a pull has found the replica warm (`expired`). (That
//! lease(∞) with a pull after every publish answers exactly like exact
//! mode with healing is class (c) of `tests/config_matrix.rs`.)
//!
//! Everything reported is virtual-time/message/byte counts —
//! deterministic per seed; no wall-clock quantities enter the file.

use naming_bench::cli::{self, Doc, Flag, Kind::*};
use naming_bench::scenarios::coherence_zones;
use naming_core::entity::{Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_resolver::cache::CachingResolver;
use naming_resolver::coherence::CoherenceMode;
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::wire::Mode;
use naming_sim::topology::MachineId;
use naming_sim::world::World;
use naming_telemetry::json::json_string;

/// Anti-entropy cadence in the sweep: one pull every SYNC_EVERY rounds.
const SYNC_EVERY: usize = 2;
/// Virtual ticks between rounds. Cache hits cost no virtual time, so
/// without explicit pacing a fully-warm round is instantaneous and TTLs
/// can never lapse; this models request inter-arrival spacing.
const ROUND_GAP: u64 = 100;

/// One world + lease resolver + the bookkeeping the schedule needs.
struct Replica {
    w: World,
    r: CachingResolver,
    client: naming_core::entity::ActivityId,
    start: ObjectId,
    machines: Vec<MachineId>,
    dirs: Vec<ObjectId>,
    names: Vec<Vec<CompoundName>>,
}

fn build(zones: usize, leaves: usize, seed: u64, mode: CoherenceMode) -> Replica {
    let (mut w, svc, machines, client, start, dirs, names) = coherence_zones(zones, leaves, seed);
    // Flatten the latency scale so one cold miss costs ~20 virtual ticks
    // instead of ~400: the sweep's short TTLs (hundreds of ticks) then sit
    // *between* the cost of a warm round and a cold one, which is the
    // regime where lease expiry is actually observable. Under the default
    // model every finite TTL lapses before its first reuse and the grid
    // degenerates to all-miss.
    w.topology_mut()
        .set_latency_model(naming_sim::topology::LatencyModel {
            local: 1,
            same_network: 2,
            cross_network: 5,
        });
    let r = CachingResolver::with_mode(
        ProtocolEngine::new(svc),
        naming_resolver::cache::DEFAULT_CACHE_CAPACITY,
        mode,
    );
    Replica {
        w,
        r,
        client,
        start,
        machines,
        dirs,
        names,
    }
}

/// Advances a replica's virtual clock by `ticks` with no naming traffic
/// (a scheduled wake that nothing races against).
fn pace(rep: &mut Replica, ticks: u64) {
    rep.w.schedule_wake(
        rep.client,
        naming_sim::time::Duration::from_ticks(ticks),
        u64::MAX,
    );
    while rep.w.step() {}
    rep.w.drain_wakes(rep.client);
}

/// Publishes the `k`-th rotation's rebind through the journaled path:
/// zone `k % zones`, leaf `k % leaves` gets a fresh object. Returns the
/// flat name index rebound.
fn publish_rotation(rep: &mut Replica, k: usize) -> (usize, usize) {
    let zones = rep.dirs.len();
    let leaves = rep.names[0].len();
    let (z, j) = (k % zones, k % leaves);
    let fresh = rep
        .w
        .state_mut()
        .add_data_object_in(z + 1, format!("zone{z}/f{j}@{k}"), vec![]);
    rep.r
        .engine_mut()
        .publish_binding(
            &mut rep.w,
            rep.dirs[z],
            Name::new(&format!("f{j}")),
            Some(Entity::Object(fresh)),
        )
        .expect("publish commits");
    (z, j)
}

#[derive(Default)]
struct ComboResult {
    ttl: Option<u64>,
    publish_every: usize,
    drop_rate: f64,
    lookups: u64,
    // Lease side.
    lease_hits: u64,
    lease_messages: u64,
    stale_served: u64,
    max_staleness_ticks: u64,
    sum_staleness_ticks: u64,
    false_bottom: u64,
    gave_up: u64,
    expired: u64,
    syncs: u64,
    missed_syncs: u64,
    transfer_bytes: u64,
    full_transfers: u64,
    incremental_transfers: u64,
    entries_dropped: u64,
    // Exact twin on the identical schedule.
    exact_hits: u64,
    exact_messages: u64,
    exact_stale_served: u64,
}

/// Runs the deterministic schedule for one grid point: each round
/// resolves every name on both replicas, publishes the rotation when the
/// round is due, then heals (exact) or periodically syncs (lease).
fn run_combo(
    zones: usize,
    leaves: usize,
    rounds: usize,
    seed: u64,
    ttl: Option<u64>,
    publish_every: usize,
    drop_rate: f64,
) -> ComboResult {
    let mut lease = build(zones, leaves, seed, CoherenceMode::Lease { ttl });
    let mut exact = build(zones, leaves, seed, CoherenceMode::Exact);
    // Warm-start: one uncounted lossless pass fills both caches, so the
    // sweep measures steady-state churn rather than the cold-start
    // stampede (a cold miss costs a full cross-network RTT of virtual
    // time, which would lapse every short-TTL lease before first reuse).
    for z in 0..zones {
        for j in 0..leaves {
            let name = lease.names[z][j].clone();
            lease.r.resolve(
                &mut lease.w,
                lease.client,
                lease.start,
                &name,
                Mode::Iterative,
            );
            exact.r.resolve(
                &mut exact.w,
                exact.client,
                exact.start,
                &name,
                Mode::Iterative,
            );
        }
    }
    lease.w.set_message_drop_rate(drop_rate);
    exact.w.set_message_drop_rate(drop_rate);
    let authority = lease.machines[0];
    let oracle = Resolver::new();
    let mut last_publish = vec![vec![0u64; leaves]; zones];
    let mut out = ComboResult {
        ttl,
        publish_every,
        drop_rate,
        ..ComboResult::default()
    };
    let lease_sent0 = lease.w.trace().counter("sent");
    let exact_sent0 = exact.w.trace().counter("sent");
    let mut publishes = 0usize;
    // The warm-up's leases stand on no pull, and the first pull's full
    // transfers drop them all: the lapses counted are those after the
    // first pull that finds the replica's serials warm (no full transfer),
    // when every lease held has been proved.
    let mut expired_before = None;
    // What the oracle says gave up: a bound name answered ⊥ off the wire.
    let mut oracle_gave_up = 0;
    for round in 0..rounds {
        for (z, publish_row) in last_publish.iter().enumerate() {
            for (j, &last_pub) in publish_row.iter().enumerate() {
                let name = lease.names[z][j].clone();
                out.lookups += 1;
                // Lease replica: resolve, then let the experimenter (not
                // the resolver!) compare against the authority.
                let now = lease.w.now().ticks();
                let verdict = lease.r.resolve_outcome(
                    &mut lease.w,
                    lease.client,
                    lease.start,
                    &name,
                    Mode::Iterative,
                );
                let (got, from_cache) = (verdict.entity, verdict.from_cache);
                out.gave_up += u64::from(verdict.unreachable); // never cached
                let truth = oracle.resolve_entity(lease.w.state(), lease.start, &name);
                if from_cache && got != truth {
                    if got == Entity::Undefined {
                        out.false_bottom += 1;
                    }
                    out.stale_served += 1;
                    let window = now.saturating_sub(last_pub);
                    out.max_staleness_ticks = out.max_staleness_ticks.max(window);
                    out.sum_staleness_ticks += window;
                } else if !from_cache && got == Entity::Undefined && truth.is_defined() {
                    oracle_gave_up += 1;
                }
                // Exact twin, same name, its own world.
                let (egot, _efc) = exact.r.resolve(
                    &mut exact.w,
                    exact.client,
                    exact.start,
                    &name,
                    Mode::Iterative,
                );
                let etruth = oracle.resolve_entity(exact.w.state(), exact.start, &name);
                if egot != etruth && egot != Entity::Undefined {
                    out.exact_stale_served += 1;
                }
            }
        }
        if round % publish_every == 0 {
            let (z, j) = publish_rotation(&mut lease, publishes);
            last_publish[z][j] = lease.w.now().ticks();
            publish_rotation(&mut exact, publishes);
            publishes += 1;
            // Exact mode's oracle invalidation runs right at the write.
            exact.r.heal(&exact.w);
        }
        pace(&mut lease, ROUND_GAP);
        pace(&mut exact, ROUND_GAP);
        if round % SYNC_EVERY == 0 {
            match lease.r.sync(&mut lease.w, lease.client, authority) {
                Some(rep) => {
                    if rep.shards_full == 0 {
                        expired_before.get_or_insert(lease.r.lease_stats().expired);
                    }
                    out.syncs += 1;
                    out.transfer_bytes += rep.bytes;
                    out.full_transfers += rep.shards_full as u64;
                    out.incremental_transfers += rep.shards_incremental as u64;
                    out.entries_dropped += rep.entries_dropped;
                }
                None => out.missed_syncs += 1,
            }
        }
    }
    // The sweep prices coherence, not capacity: its numbers are comparable
    // across eviction policies only while neither replica evicts.
    assert_eq!(
        (lease.r.stats().evictions, exact.r.stats().evictions),
        (0, 0),
        "the working set outgrew a cache"
    );
    // Every name is bound: the transport verdict is exactly the oracle's.
    assert_eq!(
        out.gave_up, oracle_gave_up,
        "a transport failure was reported as ⊥, or a ⊥ as one"
    );
    out.lease_hits = lease.r.stats().hits;
    out.expired = expired_before.map_or(0, |before| lease.r.lease_stats().expired - before);
    out.exact_hits = exact.r.stats().hits;
    out.lease_messages = lease.w.trace().counter("sent") - lease_sent0;
    out.exact_messages = exact.w.trace().counter("sent") - exact_sent0;
    out
}

fn render(zones: usize, leaves: usize, rounds: usize, seed: u64, combos: &[ComboResult]) -> Doc {
    let rows = combos.iter().map(|c| {
        let mean = if c.stale_served == 0 {
            0.0
        } else {
            c.sum_staleness_ticks as f64 / c.stale_served as f64
        };
        let lease = Doc::row()
            .val("hits", c.lease_hits)
            .val("messages", c.lease_messages)
            .val("stale_served", c.stale_served)
            .val("max_staleness_ticks", c.max_staleness_ticks)
            .fix("mean_staleness_ticks", mean, 2)
            .val("false_bottom", c.false_bottom)
            .val("gave_up", c.gave_up)
            .val("expired", c.expired)
            .val("syncs", c.syncs)
            .val("missed_syncs", c.missed_syncs)
            .val("transfer_bytes", c.transfer_bytes)
            .val("full_transfers", c.full_transfers)
            .val("incremental_transfers", c.incremental_transfers)
            .val("entries_dropped", c.entries_dropped);
        let exact = Doc::row()
            .val("hits", c.exact_hits)
            .val("messages", c.exact_messages)
            .val("stale_served", c.exact_stale_served);
        Doc::row()
            .val("ttl", c.ttl.map_or(json_string("inf"), |t| t.to_string()))
            .val("publish_every", c.publish_every)
            .fix("drop_rate", c.drop_rate, 1)
            .val("lookups", c.lookups)
            .obj("lease", lease)
            .obj("exact", exact)
    });
    Doc::block()
        .str("bench", "coherence")
        .val("seed", seed)
        .val("zones", zones)
        .val("leaves", leaves)
        .val("rounds", rounds)
        .val("sync_every", SYNC_EVERY)
        .rows("sweep", rows)
}

const FLAGS: &[Flag] = &[
    Flag("--seed", Int, Some("1993")),
    Flag("--zones", Count, Some("4")),
    Flag("--leaves", Count, Some("6")),
    Flag("--rounds", Count, Some("24")),
];

fn main() {
    let args = cli::parse("bench_coherence", &[cli::OUT, FLAGS]);
    let seed = args.int("--seed");
    let (zones, leaves) = (args.count("--zones"), args.count("--leaves"));
    let rounds = args.count("--rounds");

    let ttls: [Option<u64>; 3] = [Some(250), Some(1000), None];
    let mut combos = Vec::new();
    for &ttl in &ttls {
        for &publish_every in &[1usize, 4] {
            for &drop_rate in &[0.0f64, 0.2] {
                let c = run_combo(zones, leaves, rounds, seed, ttl, publish_every, drop_rate);
                eprintln!(
                    "ttl {:>4} publish_every {} drop {:.1}: {:3} stale (max window {:4}t), \
                     {:2} false-⊥, {:6}B transferred ({} full / {} incr), exact {:3} stale",
                    c.ttl.map(|t| t.to_string()).unwrap_or_else(|| "inf".into()),
                    c.publish_every,
                    c.drop_rate,
                    c.stale_served,
                    c.max_staleness_ticks,
                    c.false_bottom,
                    c.transfer_bytes,
                    c.full_transfers,
                    c.incremental_transfers,
                    c.exact_stale_served
                );
                combos.push(c);
            }
        }
    }
    // The paper's bounded-staleness claim, checked: on a lossless
    // network a lease can serve a stale answer for strictly less than
    // its TTL — the entry was granted, or last renewed, before the publish
    // and cannot outlive that + ttl — and for at most one sync period: the
    // next pull hears the publish, and keeps only what it cannot have
    // changed. And a pull renews what it proves: with a lease longer than
    // the sync period, every lease is proved again before it lapses.
    let sync_period = SYNC_EVERY as u64 * ROUND_GAP;
    for c in &combos {
        if c.drop_rate == 0.0 {
            if let Some(ttl) = c.ttl {
                assert!(
                    c.max_staleness_ticks < ttl,
                    "staleness window {} ≥ ttl {} at drop 0 — the lease bound is broken",
                    c.max_staleness_ticks,
                    ttl
                );
            }
            assert!(
                c.max_staleness_ticks <= sync_period,
                "staleness window {} > one sync period {} at drop 0 — a pull kept a changed entry",
                c.max_staleness_ticks,
                sync_period
            );
            assert_eq!(
                c.exact_stale_served, 0,
                "exact mode with healing served a stale answer"
            );
            if c.ttl.is_some_and(|ttl| ttl > sync_period) {
                assert_eq!(c.expired, 0, "a lease lapsed that a pull had proved");
            }
        }
    }
    args.emit(
        &render(zones, leaves, rounds, seed, &combos),
        "BENCH_coherence.json",
    );
}
