//! Emits `BENCH_coherence.json`: the lease-coherence sweep behind the
//! TTL/serial cache-validation work — observed staleness windows,
//! false-⊥ counts, and anti-entropy transfer bytes across a
//! TTL × update-rate × drop-rate grid, with the exact-invalidation
//! resolver run side-by-side on an identical schedule.
//!
//! ```text
//! bench_coherence [--out PATH] [--stdout] [--json] [--mode exact|lease]
//!                 [--seed N] [--zones N] [--leaves N] [--rounds N]
//! ```
//!
//! Two modes:
//!
//! * **Sweep** (default): every grid combination runs the same
//!   deterministic publish/resolve/sync schedule over the zone-aligned
//!   star world (`scenarios::coherence_zones`) twice — once under
//!   `CoherenceMode::Lease` (validation = TTL + zone serials heard over
//!   the wire, never authoritative state) and once under
//!   `CoherenceMode::Exact` (oracle generation healing). Each row
//!   reports, for the lease run, staleness windows measured against the
//!   authority *by the experimenter* (the resolver itself never looks),
//!   negative-cache false-⊥s, sync/transfer accounting; and for the
//!   exact twin, its message and staleness numbers. The binary asserts
//!   the lease bound before writing: at drop 0 every observed staleness
//!   window is strictly below the TTL.
//! * **`--json`**: the CI cmp leg. A lossless schedule with healing
//!   (exact) or syncing (lease, ttl=∞) after every publish, printing one
//!   deterministic record per resolution — answers only, no mode
//!   artifacts. `--mode exact` and `--mode lease` must produce
//!   byte-identical output: with an infinite TTL and anti-entropy after
//!   every write, zone-serial invalidation is a superset of generation
//!   invalidation, and the extra refetches change messages, never
//!   answers.
//!
//! Everything reported is virtual-time/message/byte counts —
//! deterministic per seed; no wall-clock quantities enter the file.

use naming_bench::scenarios::coherence_zones;
use naming_core::entity::{Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_core::report::json_string;
use naming_core::resolve::Resolver;
use naming_resolver::cache::CachingResolver;
use naming_resolver::coherence::CoherenceMode;
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::wire::Mode;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

const DEFAULT_ZONES: usize = 4;
const DEFAULT_LEAVES: usize = 6;
const DEFAULT_ROUNDS: usize = 24;
const DEFAULT_SEED: u64 = 1993;
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
        lookups: 0,
        lease_hits: 0,
        lease_messages: 0,
        stale_served: 0,
        max_staleness_ticks: 0,
        sum_staleness_ticks: 0,
        false_bottom: 0,
        gave_up: 0,
        syncs: 0,
        missed_syncs: 0,
        transfer_bytes: 0,
        full_transfers: 0,
        incremental_transfers: 0,
        entries_dropped: 0,
        exact_hits: 0,
        exact_messages: 0,
        exact_stale_served: 0,
    };
    let lease_sent0 = lease.w.trace().counter("sent");
    let exact_sent0 = exact.w.trace().counter("sent");
    let mut publishes = 0usize;
    for round in 0..rounds {
        for (z, publish_row) in last_publish.iter().enumerate() {
            for (j, &last_pub) in publish_row.iter().enumerate() {
                let name = lease.names[z][j].clone();
                out.lookups += 1;
                // Lease replica: resolve, then let the experimenter (not
                // the resolver!) compare against the authority.
                let now = lease.w.now().ticks();
                let (got, from_cache) = lease.r.resolve(
                    &mut lease.w,
                    lease.client,
                    lease.start,
                    &name,
                    Mode::Iterative,
                );
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
                    out.gave_up += 1; // transport verdict, never cached
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
    out.lease_hits = lease.r.stats().hits;
    out.exact_hits = exact.r.stats().hits;
    out.lease_messages = lease.w.trace().counter("sent") - lease_sent0;
    out.exact_messages = exact.w.trace().counter("sent") - exact_sent0;
    out
}

fn ttl_json(ttl: Option<u64>) -> String {
    match ttl {
        Some(t) => t.to_string(),
        None => json_string("inf"),
    }
}

fn render(zones: usize, leaves: usize, rounds: usize, seed: u64, combos: &[ComboResult]) -> String {
    let rows: Vec<String> = combos
        .iter()
        .map(|c| {
            let mean = if c.stale_served == 0 {
                0.0
            } else {
                c.sum_staleness_ticks as f64 / c.stale_served as f64
            };
            format!(
                "    {{\"ttl\": {}, \"publish_every\": {}, \"drop_rate\": {:.1}, \
                 \"lookups\": {}, \"lease\": {{\"hits\": {}, \"messages\": {}, \
                 \"stale_served\": {}, \"max_staleness_ticks\": {}, \
                 \"mean_staleness_ticks\": {:.2}, \"false_bottom\": {}, \"gave_up\": {}, \
                 \"syncs\": {}, \"missed_syncs\": {}, \"transfer_bytes\": {}, \
                 \"full_transfers\": {}, \"incremental_transfers\": {}, \
                 \"entries_dropped\": {}}}, \"exact\": {{\"hits\": {}, \"messages\": {}, \
                 \"stale_served\": {}}}}}",
                ttl_json(c.ttl),
                c.publish_every,
                c.drop_rate,
                c.lookups,
                c.lease_hits,
                c.lease_messages,
                c.stale_served,
                c.max_staleness_ticks,
                mean,
                c.false_bottom,
                c.gave_up,
                c.syncs,
                c.missed_syncs,
                c.transfer_bytes,
                c.full_transfers,
                c.incremental_transfers,
                c.entries_dropped,
                c.exact_hits,
                c.exact_messages,
                c.exact_stale_served
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": {},\n  \"seed\": {},\n  \"zones\": {},\n  \"leaves\": {},\n  \
         \"rounds\": {},\n  \"sync_every\": {},\n  \"sweep\": [\n{}\n  ]\n}}\n",
        json_string("coherence"),
        seed,
        zones,
        leaves,
        rounds,
        SYNC_EVERY,
        rows.join(",\n")
    )
}

/// `--json` cmp mode: lossless, anti-entropy (or healing) after every
/// publish, answers only. Exact and lease(∞) must print identical bytes.
fn render_cmp(zones: usize, leaves: usize, rounds: usize, seed: u64, lease_mode: bool) -> String {
    let mode = if lease_mode {
        CoherenceMode::Lease { ttl: None }
    } else {
        CoherenceMode::Exact
    };
    let mut rep = build(zones, leaves, seed, mode);
    let authority = rep.machines[0];
    let mut rows = Vec::new();
    for round in 0..rounds {
        for z in 0..zones {
            for j in 0..leaves {
                let name = rep.names[z][j].clone();
                let (got, _) =
                    rep.r
                        .resolve(&mut rep.w, rep.client, rep.start, &name, Mode::Iterative);
                rows.push(format!(
                    "    {{\"round\": {}, \"name\": {}, \"entity\": {}}}",
                    round,
                    json_string(&name.to_string()),
                    json_string(&got.to_string())
                ));
            }
        }
        publish_rotation(&mut rep, round);
        if lease_mode {
            rep.r
                .sync(&mut rep.w, rep.client, authority)
                .expect("lossless sync completes");
        } else {
            rep.r.heal(&rep.w);
        }
    }
    assert_eq!(
        rep.r.stats().evictions,
        0,
        "the working set outgrew the cache"
    );
    format!(
        "{{\n  \"bench\": {},\n  \"seed\": {},\n  \"answers\": [\n{}\n  ]\n}}\n",
        json_string("coherence-cmp"),
        seed,
        rows.join(",\n")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_coherence.json");
    let mut to_stdout = false;
    let mut json_cmp = false;
    let mut lease_mode = true;
    let mut seed = DEFAULT_SEED;
    let mut zones = DEFAULT_ZONES;
    let mut leaves = DEFAULT_LEAVES;
    let mut rounds = DEFAULT_ROUNDS;
    let mut i = 0;
    while i < args.len() {
        let numeric = |args: &[String], i: usize, flag: &str| -> u64 {
            match args.get(i).and_then(|s| s.parse().ok()) {
                Some(v) => v,
                None => {
                    eprintln!("{flag} requires a numeric argument");
                    std::process::exit(2);
                }
            }
        };
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = match args.get(i) {
                    Some(p) => p.clone(),
                    None => {
                        eprintln!("--out requires a path argument");
                        std::process::exit(2);
                    }
                };
            }
            "--stdout" => to_stdout = true,
            "--json" => json_cmp = true,
            "--mode" => {
                i += 1;
                lease_mode = match args.get(i).map(String::as_str) {
                    Some("lease") => true,
                    Some("exact") => false,
                    _ => {
                        eprintln!("--mode requires `exact` or `lease`");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                seed = numeric(&args, i, "--seed");
            }
            "--zones" => {
                i += 1;
                zones = numeric(&args, i, "--zones") as usize;
            }
            "--leaves" => {
                i += 1;
                leaves = numeric(&args, i, "--leaves") as usize;
            }
            "--rounds" => {
                i += 1;
                rounds = numeric(&args, i, "--rounds") as usize;
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_coherence [--out PATH] [--stdout] [--json] \
                     [--mode exact|lease] [--seed N] [--zones N] [--leaves N] [--rounds N]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}; try --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if json_cmp {
        print!(
            "{}",
            render_cmp(zones.min(3), leaves.min(4), rounds.min(8), seed, lease_mode)
        );
        return;
    }

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
    // its TTL — the entry was granted before the publish and cannot
    // outlive grant + ttl.
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
            assert_eq!(
                c.exact_stale_served, 0,
                "exact mode with healing served a stale answer"
            );
        }
    }
    let json = render(zones, leaves, rounds, seed, &combos);
    if to_stdout {
        print!("{json}");
    } else {
        std::fs::write(&out, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {out}");
    }
}
