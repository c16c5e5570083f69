//! One equivalence matrix: every serving configuration that reads the same
//! bindings gives every name the same meaning.
//!
//! The paper (§4) calls a name coherent across a set of activities when it
//! denotes the same entity for each of them. A serving configuration is
//! such an activity: how the state is sharded, which driver walks the
//! protocol, whether deadlines are armed, whether a recorder watches, how
//! many workers serve — none of these is a binding, so none may change an
//! answer. Each class below builds one small seeded world, takes a
//! per-name digest under every configuration in the class, and asserts the
//! digests are equal:
//!
//! * **(a) protocol drivers** — sharded or unsharded × the blocking
//!   `resolve_batch`, the pipelined reactor at 1 and 4 workers, iterative,
//!   recursive and referral-cached single resolves × retry policy on or
//!   off (lossless) × recorder installed or not. The digest is each name's
//!   verdict (the entity's label, ⊥, or `Unreachable`); the batch drivers
//!   add each batch's rounds, referrals and wire accounting. The layout,
//!   the retry layer and the recorder may not move a message either.
//! * **(b) authority pool** — `ConcurrentService` at 1, 4 and 8 workers
//!   against the serial core resolver on the same snapshot, across a
//!   publish that copies only the shard it wrote.
//! * **(c) coherence modes** — a lossless publish/resolve schedule:
//!   `CoherenceMode::Exact` healed after each publish, and
//!   `Lease { ttl: None }` pulled after each publish, answer every
//!   resolution as the authority's state does at that instant. The same
//!   schedule with a finite TTL, a pull every other round and loss is the
//!   lease sweep: one digest pins its rows, and lossless staleness stays
//!   under the TTL and one pull period.

use naming_bench::scenarios::coherence_zones;
use naming_core::context::INLINE_CAP;
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_core::state::SystemState;
use naming_resolver::cache::{CachingResolver, DEFAULT_CACHE_CAPACITY};
use naming_resolver::coherence::CoherenceMode;
use naming_resolver::concurrent::ConcurrentService;
use naming_resolver::engine::{ProtocolEngine, RetryCounters, RetryPolicy};
use naming_resolver::runtime::PipelinedService;
use naming_resolver::service::NameService;
use naming_resolver::wire::{BatchRequest, Mode, NameTrie};
use naming_sim::store;
use naming_sim::time::Duration;
use naming_sim::topology::{LatencyModel, MachineId};
use naming_sim::world::World;
use naming_telemetry::recorder;
use std::hash::{Hash, Hasher};

const SEED: u64 = 20261019;
/// Machines in the referral chain, one zone each.
const ZONES: usize = 4;
/// Files in every zone but the last.
const FILES: usize = 3;
/// Files in the last zone: past the inline tier, so its directory spills.
const WIDE: usize = 12;
/// Names per batch for the batch drivers.
const BATCH: usize = 5;

/// The class (a) and (b) world: a chain of zones, zone `i` on machine `i`
/// with its objects in shard `i % shards`, the last zone's directory
/// spilled, a directory no server was placed for, and a client on a
/// network of its own.
struct Net {
    w: World,
    svc: NameService,
    client: ActivityId,
    start: ObjectId,
    /// The spilled directory, and the shard that holds it.
    wide: (ObjectId, usize),
}

fn build(shards: usize) -> Net {
    let mut w = World::with_shards(SEED, shards);
    let net = w.add_network("servers");
    let machines: Vec<MachineId> = (0..ZONES)
        .map(|i| {
            w.state_mut().set_default_shard(i % shards);
            w.add_machine(format!("m{i}"), net)
        })
        .collect();
    let mut prev = None;
    for (i, &m) in machines.iter().enumerate() {
        w.state_mut().set_default_shard(i % shards);
        let root = w.machine_root(m);
        let zone = store::ensure_dir(w.state_mut(), root, "zone");
        if let Some(p) = prev {
            store::attach(w.state_mut(), p, &format!("z{i}"), zone, false);
        }
        let files = if i + 1 == ZONES { WIDE } else { FILES };
        for f in 0..files {
            store::create_file(w.state_mut(), zone, &format!("f{f}"), vec![f as u8]);
        }
        prev = Some(zone);
    }
    let wide = prev.expect("ZONES >= 1");
    let ctx = w.state().context(wide).expect("a zone is a directory");
    assert!(ctx.len() > INLINE_CAP && ctx.is_spilled());
    let mut svc = NameService::install(&mut w, &machines);
    for &m in machines.iter().rev() {
        let r = w.machine_root(m);
        svc.place_subtree(&w, r, m);
    }
    let start = w.machine_root(machines[0]);
    // Bound after placement: no server answers for it.
    let zone0 = store::ensure_dir(w.state_mut(), start, "zone");
    let orphan = store::ensure_dir(w.state_mut(), zone0, "orphan");
    store::create_file(w.state_mut(), orphan, "x", vec![]);
    let far = w.add_network("client-net");
    let client_machine = w.add_machine("client-host", far);
    let client = w.spawn(client_machine, "client", None);
    Net {
        w,
        svc,
        client,
        start,
        wide: (wide, (ZONES - 1) % shards),
    }
}

/// Every file, then names that end in ⊥ at each depth, climb back up,
/// stop at a directory, run into a data object, cross the unplaced
/// directory, and meet another name of their batch at one referral.
fn names() -> Vec<CompoundName> {
    let mut prefix = String::from("/zone");
    let mut paths = Vec::new();
    for i in 0..ZONES {
        if i > 0 {
            prefix.push_str(&format!("/z{i}"));
        }
        let files = if i + 1 == ZONES { WIDE } else { FILES };
        paths.extend((0..files).map(|f| format!("{prefix}/f{f}")));
        paths.push(format!("{prefix}/missing"));
    }
    paths.extend(
        [
            "/nowhere/at/all",
            "/zone/z1",
            "/zone/z1/..",
            "/zone/z1/z2/../zone/f0",
            "/zone/f0/beyond",
            "/zone/orphan",
            "/zone/orphan/x",
            "/zone/z1/f1",
            "/zone/../zone/z1/f1",
            "/zone/z1/z2/z3/f11",
        ]
        .map(String::from),
    );
    paths
        .iter()
        .map(|p| CompoundName::parse_path(p).expect("a valid path"))
        .collect()
}

/// What one name came to: the entity's label (ids differ between shard
/// layouts, labels do not), an authoritative ⊥, or a transport verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Verdict {
    Bound(String),
    Bottom,
    Unreachable,
}

fn verdict(state: &SystemState, entity: Entity, unreachable: bool) -> Verdict {
    match entity {
        Entity::Object(o) => Verdict::Bound(state.object_label(o).to_owned()),
        Entity::Undefined if unreachable => Verdict::Unreachable,
        Entity::Undefined => Verdict::Bottom,
        other => Verdict::Bound(other.to_string()),
    }
}

/// A batch driver's per-batch accounting, referral targets by label.
#[derive(Debug, PartialEq, Eq)]
struct BatchDigest {
    rounds: u32,
    servers_touched: u32,
    coalesced: u64,
    hops_saved: u64,
    messages: u64,
    referrals: Vec<(usize, usize, MachineId, String)>,
}

/// Digests one answered batch: its names' verdicts onto `$verdicts`, and
/// its accounting as the value. The blocking driver's `BatchResolveStats`
/// and the reactor's `PipelinedAnswer` carry these fields by these names.
macro_rules! digest {
    ($w:expr, $verdicts:expr, $batch:expr) => {{
        let (state, b) = ($w.state(), $batch);
        let answers = b.entities.iter().zip(&b.unreachable);
        $verdicts.extend(answers.map(|(&e, &u)| verdict(state, e, u)));
        BatchDigest {
            rounds: b.rounds,
            servers_touched: b.servers_touched,
            coalesced: b.coalesced,
            hops_saved: b.hops_saved,
            messages: b.messages,
            referrals: (b.referrals.iter())
                .map(|h| {
                    let ctx = state.object_label(h.ctx).into();
                    (h.slot, h.consumed, h.machine, ctx)
                })
                .collect(),
        }
    }};
}

#[derive(Clone, Copy, Debug)]
enum Driver {
    Blocking,
    Pipelined(usize),
    Single(Mode),
    Cached,
}

/// One configuration's run: the per-name verdicts, the batch digests (batch
/// drivers only), and what it cost the world (messages sent, final tick).
#[derive(Debug)]
struct Run {
    verdicts: Vec<Verdict>,
    batches: Vec<BatchDigest>,
    cost: (u64, u64),
}

fn run(shards: usize, driver: Driver, retry: bool, traced: bool) -> Run {
    let Net {
        mut w,
        svc,
        client,
        start,
        ..
    } = build(shards);
    let names = names();
    let mut engine = ProtocolEngine::new(svc);
    if retry {
        engine.set_retry_policy(Some(RetryPolicy::default()));
    }
    if traced {
        recorder::install();
    }
    let mut verdicts = Vec::new();
    let mut batches = Vec::new();
    let counters = match driver {
        Driver::Blocking => {
            for chunk in names.chunks(BATCH) {
                let b = engine.resolve_batch(&mut w, client, start, chunk);
                batches.push(digest!(w, verdicts, b));
            }
            engine.retry_counters()
        }
        Driver::Pipelined(workers) => {
            let mut svc = PipelinedService::new(engine, workers);
            for chunk in names.chunks(BATCH) {
                svc.submit(&mut w, client, start, chunk);
            }
            for a in &svc.drain(&mut w) {
                batches.push(digest!(w, verdicts, a));
            }
            svc.engine().retry_counters()
        }
        Driver::Single(mode) => {
            for n in &names {
                let s = engine.resolve(&mut w, client, start, n, mode);
                verdicts.push(verdict(w.state(), s.entity, s.unreachable));
            }
            engine.retry_counters()
        }
        Driver::Cached => {
            let mut r = CachingResolver::new(engine);
            for n in &names {
                let o = r.resolve_outcome(&mut w, client, start, n, Mode::Iterative);
                verdicts.push(verdict(w.state(), o.entity, o.unreachable));
            }
            r.engine().retry_counters()
        }
    };
    if traced {
        let data = recorder::take().expect("the recorder was installed");
        assert!(!data.is_empty(), "{driver:?}: the recorder saw nothing");
    }
    assert_eq!(
        counters,
        RetryCounters::default(),
        "{driver:?}: a lossless run retried"
    );
    Run {
        verdicts,
        batches,
        cost: (w.trace().counter("sent"), w.now().ticks()),
    }
}

/// Class (a): the verdicts are one digest across every driver and
/// configuration; the batch drivers agree batch for batch; and within a
/// driver, neither the shard layout, nor the retry layer, nor the
/// recorder moves a message or a tick.
#[test]
fn protocol_drivers_agree_across_layout_retry_and_recorder() {
    let drivers = [
        Driver::Blocking,
        Driver::Pipelined(1),
        Driver::Pipelined(4),
        Driver::Single(Mode::Iterative),
        Driver::Single(Mode::Recursive),
        Driver::Cached,
    ];
    let reference = run(1, Driver::Blocking, false, false);
    let n = names().len();
    assert_eq!(reference.verdicts.len(), n);
    for want in [
        Verdict::Bottom,
        Verdict::Unreachable,
        Verdict::Bound(String::new()),
    ] {
        assert!(
            reference
                .verdicts
                .iter()
                .any(|v| std::mem::discriminant(v) == std::mem::discriminant(&want)),
            "the world yields no {want:?} verdict"
        );
    }
    assert!(
        reference.batches.iter().any(|b| b.coalesced > 0),
        "no batch rode a shared exchange"
    );
    for driver in drivers {
        let base = run(1, driver, false, false);
        for shards in [1, ZONES] {
            for retry in [false, true] {
                for traced in [false, true] {
                    let label = format!("{driver:?} shards={shards} retry={retry} traced={traced}");
                    let got = run(shards, driver, retry, traced);
                    assert_eq!(got.verdicts, reference.verdicts, "{label}: verdicts");
                    if !got.batches.is_empty() {
                        assert_eq!(got.batches, reference.batches, "{label}: batches");
                    }
                    assert_eq!(got.cost, base.cost, "{label}: messages and ticks");
                }
            }
        }
    }
}

/// The per-batch answer key of class (b): the serial core resolver over
/// `state`, query by query.
fn serial_key(state: &SystemState, reqs: &[BatchRequest]) -> Vec<Vec<Entity>> {
    let r = Resolver::new();
    reqs.iter()
        .map(|req| {
            let names = req.trie.names();
            names
                .iter()
                .map(|n| r.resolve_entity(state, req.start, n))
                .collect()
        })
        .collect()
}

/// The same staged change for the pool and the serial oracle: one file of
/// the spilled directory rebound, one unbound, one added — all in the
/// directory's own shard.
fn churn(state: &mut SystemState, (wide, shard): (ObjectId, usize)) {
    let fresh = state.add_data_object_in(shard, "fresh-f0", vec![]);
    state.bind(wide, Name::new("f0"), fresh).unwrap();
    state.unbind(wide, Name::new("f1")).unwrap();
    let extra = state.add_data_object_in(shard, "extra", vec![]);
    state.bind(wide, Name::new("f12"), extra).unwrap();
}

/// Class (b): batches submitted before a publish answer from the snapshot
/// they were submitted with, batches after it from the new one, exactly as
/// the serial resolver does on each state — at every worker count and in
/// both shard layouts.
#[test]
fn authority_pool_equals_serial_across_a_publish() {
    let mut layouts = Vec::new();
    for shards in [1, ZONES] {
        let net = build(shards);
        let before = net.w.state().clone();
        let mut after = before.clone();
        churn(&mut after, net.wide);
        let mut names = names();
        names.push(CompoundName::parse_path("/zone/z1/z2/z3/f12").unwrap());
        let reqs: Vec<BatchRequest> = names
            .chunks(BATCH)
            .enumerate()
            .map(|(id, chunk)| BatchRequest {
                id: id as u64,
                start: net.start,
                trie: NameTrie::build(chunk).0,
            })
            .collect();
        let mut key = serial_key(&before, &reqs);
        key.extend(serial_key(&after, &reqs));
        assert_ne!(
            key[..reqs.len()],
            key[reqs.len()..],
            "the publish changed nothing"
        );
        for workers in [1, 4, 8] {
            let mut svc = ConcurrentService::new(before.clone(), workers);
            for req in &reqs {
                svc.submit(req.clone());
            }
            let prev = svc.snapshot();
            svc.update(|s| churn(s, net.wide));
            svc.publish();
            let shared = svc.snapshot().state().shards_shared_with(prev.state());
            assert_eq!(shared, shards - 1, "the publish copied an unwritten shard");
            for req in &reqs {
                svc.submit(req.clone());
            }
            let got: Vec<Vec<Entity>> = svc.drain().into_iter().map(|a| a.entities).collect();
            svc.shutdown();
            assert_eq!(got, key, "{workers} workers, {shards} shards");
        }
        let labels: Vec<Vec<Verdict>> = key
            .iter()
            .enumerate()
            .map(|(i, batch)| {
                let state = if i < reqs.len() { &before } else { &after };
                batch.iter().map(|&e| verdict(state, e, false)).collect()
            })
            .collect();
        layouts.push(labels);
    }
    assert_eq!(
        layouts[0], layouts[1],
        "sharded and unsharded states disagree"
    );
}

/// The class (c) world, `coherence_zones(4, 6, 1993)`: a hub and four
/// zones of six leaves, each zone on its own server and shard.
const COHERENCE_SEED: u64 = 1993;
const COHERENCE_ZONES: usize = 4;
const COHERENCE_LEAVES: usize = 6;
/// Counted rounds of a class (c) schedule.
const ROUNDS: usize = 24;
/// Virtual ticks between rounds. A cache hit costs no virtual time, so
/// without pacing a warm round takes none and no lease could lapse.
const ROUND_GAP: u64 = 100;
/// The sweep's pull cadence, in rounds.
const SYNC_EVERY: usize = 2;

/// How often a class (c) schedule writes and pulls, and what it loses.
#[derive(Clone, Copy)]
struct Cadence {
    /// A rebind is published every `publish` rounds.
    publish: usize,
    /// A lease replica pulls every `pull` rounds; an exact one heals at
    /// each publish.
    pull: usize,
    /// The message drop rate once the cache is warm.
    drop: f64,
}

/// One resolution: the replica's answer, the authority's at that instant,
/// whether a cache answered, and the ticks since the name was republished.
struct Served {
    got: Verdict,
    truth: Verdict,
    from_cache: bool,
    window: u64,
}

/// What a schedule cost its replica once warm.
#[derive(Default, Hash)]
struct Tally {
    hits: u64,
    messages: u64,
    expired: u64,
    syncs: u64,
    missed_syncs: u64,
    transfer_bytes: u64,
    full_transfers: u64,
    incremental_transfers: u64,
    entries_dropped: u64,
}

/// Advances the clock by `ticks` with no naming traffic.
fn pace(w: &mut World, client: ActivityId, ticks: u64) {
    w.schedule_wake(client, Duration::from_ticks(ticks), u64::MAX);
    while w.step() {}
    w.drain_wakes(client);
}

/// One class (c) schedule: after an uncounted pass that warms the cache,
/// each round resolves every name, publishes the next rebind when one is
/// due (exact mode heals right after it), waits [`ROUND_GAP`], and pulls
/// when one is due (lease mode). Each resolution is digested next to the
/// authority's own answer at that instant.
fn coherence_run(mode: CoherenceMode, cadence: Cadence) -> (Vec<Served>, Tally) {
    let (mut w, svc, machines, client, start, dirs, names) =
        coherence_zones(COHERENCE_ZONES, COHERENCE_LEAVES, COHERENCE_SEED);
    // A cold miss costs ~20 ticks instead of ~400: the sweep's short TTLs
    // then sit between the cost of a warm round and a cold one, where a
    // lease's expiry shows.
    w.topology_mut().set_latency_model(LatencyModel {
        local: 1,
        same_network: 2,
        cross_network: 5,
    });
    let mut r = CachingResolver::with_mode(ProtocolEngine::new(svc), DEFAULT_CACHE_CAPACITY, mode);
    for name in names.iter().flatten() {
        r.resolve(&mut w, client, start, name, Mode::Iterative);
    }
    w.set_message_drop_rate(cadence.drop);
    let sent = w.trace().counter("sent");
    let oracle = Resolver::new();
    let mut published = [0; COHERENCE_ZONES * COHERENCE_LEAVES];
    let (mut served, mut tally, mut writes) = (Vec::new(), Tally::default(), 0);
    // The warm-up's leases stand on no pull, and the first pull's full
    // transfers drop them all: lapses count from the first pull that finds
    // the replica's serials warm, when every lease held has been proved.
    let mut expired_before = None;
    for round in 0..ROUNDS {
        for (i, name) in names.iter().flatten().enumerate() {
            let now = w.now().ticks();
            let got = r.resolve_outcome(&mut w, client, start, name, Mode::Iterative);
            let truth = oracle.resolve_entity(w.state(), start, name);
            served.push(Served {
                got: verdict(w.state(), got.entity, got.unreachable),
                truth: verdict(w.state(), truth, false),
                from_cache: got.from_cache,
                window: now - published[i],
            });
        }
        if round % cadence.publish == 0 {
            let (z, j) = (writes % COHERENCE_ZONES, writes % COHERENCE_LEAVES);
            let label = format!("zone{z}/f{j}@{writes}");
            let fresh = w.state_mut().add_data_object_in(z + 1, label, vec![]);
            r.engine_mut()
                .publish_binding(
                    &mut w,
                    dirs[z],
                    Name::new(&format!("f{j}")),
                    Some(Entity::Object(fresh)),
                )
                .expect("publish commits");
            published[z * COHERENCE_LEAVES + j] = w.now().ticks();
            writes += 1;
            if mode == CoherenceMode::Exact {
                r.heal(&w);
            }
        }
        pace(&mut w, client, ROUND_GAP);
        if mode != CoherenceMode::Exact && round % cadence.pull == 0 {
            let Some(rep) = r.sync(&mut w, client, machines[0]) else {
                tally.missed_syncs += 1;
                continue;
            };
            if rep.shards_full == 0 {
                expired_before.get_or_insert(r.lease_stats().expired);
            }
            tally.syncs += 1;
            tally.transfer_bytes += rep.bytes;
            tally.full_transfers += rep.shards_full as u64;
            tally.incremental_transfers += rep.shards_incremental as u64;
            tally.entries_dropped += rep.entries_dropped;
        }
    }
    // Coherence is priced, not capacity: no entry may leave for room.
    assert_eq!(r.stats().evictions, 0, "the working set outgrew the cache");
    tally.hits = r.stats().hits;
    tally.messages = w.trace().counter("sent") - sent;
    tally.expired = expired_before.map_or(0, |before| r.lease_stats().expired - before);
    (served, tally)
}

/// Class (c): with anti-entropy after every write, zone-serial
/// invalidation under an infinite lease answers exactly like oracle
/// healing, and both answer what the authority holds.
#[test]
fn lease_with_sync_answers_like_exact_with_heal() {
    let every_round = Cadence {
        publish: 1,
        pull: 1,
        drop: 0.0,
    };
    let answers = |mode| {
        let (served, _) = coherence_run(mode, every_round);
        served
            .into_iter()
            .map(|s| (s.got, s.truth))
            .collect::<Vec<_>>()
    };
    let exact = answers(CoherenceMode::Exact);
    assert_eq!(exact, answers(CoherenceMode::Lease { ttl: None }));
    for (i, (got, truth)) in exact.iter().enumerate() {
        assert_eq!(got, truth, "resolution {i} served a stale answer");
    }
}

/// What a lease run served stale: how often, how long after the publish,
/// how many of those were ⊥; and how many names it gave up on.
#[derive(Default, Hash)]
struct Staleness {
    stale_served: u64,
    max_window: u64,
    sum_window: u64,
    false_bottom: u64,
    gave_up: u64,
}

/// One grid point of the sweep: its lease run, and its exact twin's hits,
/// messages and stale answers.
#[derive(Hash)]
struct Row {
    ttl: Option<u64>,
    publish_every: usize,
    drop_bits: u64,
    lookups: usize,
    stale: Staleness,
    lease: Tally,
    exact: (u64, u64, u64),
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The twelve rows' digest: every field of every row.
const SWEEP: u64 = 5588004106983303487;

/// The lease sweep, class (c) with a finite TTL, a slower pull and loss:
/// TTL {250, 1000, ∞} × a publish every {1, 4} rounds × drop {0, 0.2},
/// each lease run beside an exact twin on the same schedule. Every row is
/// pinned by one digest. A transport failure is never reported as ⊥, nor
/// a ⊥ as one. Lossless, a lease serves a stale answer for less than its
/// TTL — the entry was granted or renewed before the publish — and for at
/// most one pull period, since the next pull hears the publish and keeps
/// only what it cannot have changed; a lease longer than that period is
/// proved again before it lapses; and exact mode serves nothing stale.
#[test]
fn the_lease_sweep_bounds_staleness_by_ttl_and_pull_period() {
    let sync_period = SYNC_EVERY as u64 * ROUND_GAP;
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    for ttl in [Some(250), Some(1000), None] {
        for publish in [1, 4] {
            for drop in [0.0, 0.2] {
                let cadence = Cadence {
                    publish,
                    pull: SYNC_EVERY,
                    drop,
                };
                let (served, lease) = coherence_run(CoherenceMode::Lease { ttl }, cadence);
                let (twin, exact) = coherence_run(CoherenceMode::Exact, cadence);
                let mut stale = Staleness::default();
                let mut oracle_gave_up = 0;
                for s in &served {
                    stale.gave_up += u64::from(s.got == Verdict::Unreachable);
                    if s.from_cache && s.got != s.truth {
                        stale.false_bottom += u64::from(s.got == Verdict::Bottom);
                        stale.stale_served += 1;
                        stale.max_window = stale.max_window.max(s.window);
                        stale.sum_window += s.window;
                    } else if !s.from_cache
                        && s.truth != Verdict::Bottom
                        && matches!(s.got, Verdict::Bottom | Verdict::Unreachable)
                    {
                        oracle_gave_up += 1;
                    }
                }
                let exact_stale = twin
                    .iter()
                    .filter(|s| s.got != s.truth && matches!(s.got, Verdict::Bound(_)))
                    .count() as u64;
                let label = format!("ttl {ttl:?} publish every {publish} drop {drop}");
                assert_eq!(stale.gave_up, oracle_gave_up, "{label}: gave up");
                if drop == 0.0 {
                    assert!(
                        stale.max_window < ttl.unwrap_or(u64::MAX),
                        "{label}: window"
                    );
                    assert!(
                        stale.max_window <= sync_period,
                        "{label}: a pull kept a change"
                    );
                    assert_eq!(exact_stale, 0, "{label}: exact mode served a stale answer");
                    if ttl.is_some_and(|ttl| ttl > sync_period) {
                        assert_eq!(lease.expired, 0, "{label}: a proved lease lapsed");
                    }
                }
                Row {
                    ttl,
                    publish_every: publish,
                    drop_bits: drop.to_bits(),
                    lookups: served.len(),
                    stale,
                    lease,
                    exact: (exact.hits, exact.messages, exact_stale),
                }
                .hash(&mut digest);
            }
        }
    }
    assert_eq!(digest.finish(), SWEEP);
}
