//! One fault harness: the serving invariants, stated once and checked after
//! every step of every short schedule, under loss, crashes and restarts.
//!
//! An input is a seed, a drop rate and a schedule. It rebuilds
//! `scenarios::chaos_zones(3, 2, seed)` — three zones in a referral chain,
//! each copied to a standby — plus a zone `alt` for `hop2` to point at, for
//! each configuration: the blocking `ProtocolEngine::resolve_batch`,
//! `PipelinedService` at two workers, and `CachingResolver::resolve_batch`
//! in `Exact` and `Lease { ttl: Some(T) }` mode, all retrying 256 / 64 / 6.
//! They run the schedule in lockstep, resolving the two leaves and a name
//! never bound after each operation: bind, unbind or rebind `f0` or `hop2`
//! (`publish_binding`); publish every zone; refresh (`heal`, `sync`, or a
//! pull — on the reactor with its batch in flight); kill a zone primary, or
//! restart it and pump; jump the clock past `T`. Every input closes
//! lossless: restarts, a resolve, a refresh and its resolve, `pump_idle`.
//! Shorter schedules run first, so a first failure is a shortest one.
//!
//! 1. A defined answer is what `Resolver::resolve_entity` gives in some state
//!    published since set-up, modulo replica group. A copy is a snapshot of
//!    its zone (§5), so a walk that fails over reads each zone at some
//!    version it published: the states are every mix of those versions.
//! 2. No false ⊥: a ⊥ not flagged unreachable is naive ⊥ in such a state. At
//!    drop 1.0 every slot is unreachable.
//! 3. An unreachable verdict is never cached: the next resolve of that name
//!    is not served from a cache.
//! 4. Below drop 1.0, with retries, every slot resolves: the standby is never
//!    killed, so every zone keeps a live server.
//! 5. Lossless, with every primary up, a lease answer that misses a write is
//!    served less than `T` ticks after it — or after the last restart, since
//!    a copy that lagged while its primary was down granted a lease then.
//! 6. After `heal()`, and after a lossless `sync` with every primary up,
//!    `stale_entries()` is empty.
//! 7. Lossless, the engine drivers answer alike after every step, and with
//!    every primary up each cache answers like them after its refresh.
//! 8. After the final `pump_idle` nothing is in flight, no mailbox holds mail
//!    and no timer is pending.
//! 9. The FNV digests of the transcripts — answers, verdicts, cache hits,
//!    messages, retransmissions, late replies, failovers — are pinned.

use std::hash::{Hash, Hasher};

use naming_bench::scenarios::chaos_zones;
use naming_core::context::Context;
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_core::state::SystemState;
use naming_resolver::cache::CachingResolver;
use naming_resolver::coherence::CoherenceMode;
use naming_resolver::engine::{ProtocolEngine, RetryPolicy};
use naming_resolver::runtime::PipelinedService;
use naming_sim::store;
use naming_sim::time::Duration;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

/// Longest schedule, lossless and lossy: a give-up costs 64 deadlines.
const N: usize = 3;
const N_LOSSY: usize = 2;
/// World seeds of each lossy rate; lossless and total loss need one.
const LOSSY_SEEDS: u64 = 4;
/// Lease TTL in ticks: a cold lossless batch takes some 700.
const T: u64 = 1_000;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// `f0` → a fresh file; `f0` unbound.
    Leaf,
    Unleaf,
    /// `hop2` → `alt`, or back to the deepest zone; `hop2` unbound.
    Hop,
    Unhop,
    Publish,
    Refresh,
    /// Kills zone `i`'s primary, or restarts it if it is down.
    Crash(usize),
    Jump,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Config {
    Blocking,
    Reactor,
    Cached(CoherenceMode),
}

const EXACT: Config = Config::Cached(CoherenceMode::Exact);
const LEASE: Config = Config::Cached(CoherenceMode::Lease { ttl: Some(T) });

enum Driver {
    Blocking(ProtocolEngine),
    Reactor(PipelinedService),
    Cached(Box<CachingResolver>),
}

/// What the four worlds of an input share: each is built the same way.
/// `zones` ends with `alt`.
struct Ids {
    machines: Vec<MachineId>,
    zones: Vec<ObjectId>,
    client: ActivityId,
    start: ObjectId,
    clock: ActivityId,
    names: Vec<CompoundName>,
}

/// One configuration's world, and what its checks remember: the tick each
/// state published since set-up appeared at, the last restart, the zones
/// whose primary is down, the last step's transport verdicts, the tick its
/// cache hits were served at.
struct Rig {
    config: Config,
    w: World,
    driver: Driver,
    born: Vec<u64>,
    restarted: u64,
    down: Vec<usize>,
    unreachable: Vec<bool>,
    asked: u64,
}

/// One step's answer, copied out of the lent one: per slot the entity,
/// whether it is a transport verdict and whether a cache served it; then
/// the messages it cost.
#[derive(Hash)]
struct Answer(Vec<Entity>, Vec<bool>, Vec<bool>, u64);

fn answer(e: &[Entity], unreachable: &[bool], cached: &[bool], messages: u64) -> Answer {
    Answer(e.to_vec(), unreachable.to_vec(), cached.to_vec(), messages)
}

fn build(seed: u64, config: Config) -> (Rig, Ids) {
    let (mut w, mut svc, machines, client, start, mut names, standby, mut zones) =
        chaos_zones(3, 2, seed);
    let alt = w.state_mut().add_context_object("alt");
    for f in ["f0", "f1"] {
        store::create_file(w.state_mut(), alt, f, vec![]);
    }
    svc.place_subtree(&w, alt, machines[2]);
    svc.replicate_zone(&mut w, alt, standby);
    zones.push(alt);
    let clock = w.spawn(w.machine_of(client), "clock", None);
    names.push(CompoundName::parse_path("/zone/hop1/hop2/nope").unwrap());
    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(Some(RetryPolicy {
        max_attempts: 64,
        ..RetryPolicy::default()
    }));
    let driver = match config {
        Config::Blocking => Driver::Blocking(engine),
        Config::Reactor => Driver::Reactor(PipelinedService::new(engine, 2)),
        Config::Cached(mode) => {
            Driver::Cached(Box::new(CachingResolver::with_mode(engine, 64, mode)))
        }
    };
    let (born, down, unreachable) = (vec![0], Vec::new(), vec![false; names.len()]);
    let rig = Rig {
        config,
        w,
        driver,
        born,
        restarted: 0,
        down,
        unreachable,
        asked: 0,
    };
    let ids = Ids {
        machines,
        zones,
        client,
        start,
        clock,
        names,
    };
    (rig, ids)
}

fn engine(driver: &mut Driver) -> &mut ProtocolEngine {
    match driver {
        Driver::Blocking(e) => e,
        Driver::Reactor(s) => s.engine_mut(),
        Driver::Cached(r) => r.engine_mut(),
    }
}

impl Rig {
    /// Applies any operation but a refresh, which `step` makes; true when it
    /// wrote a binding.
    fn apply(&mut self, op: Op, ids: &Ids, step: usize) -> bool {
        let (w, e) = (&mut self.w, engine(&mut self.driver));
        let (leaf, hop, z) = (Name::new("f0"), Name::new("hop2"), &ids.zones);
        let deep = Entity::Object(z[2]);
        match op {
            Op::Leaf => {
                let fresh = w.state_mut().add_data_object(format!("f0@{step}"), vec![]);
                e.publish_binding(w, z[2], leaf, Some(Entity::Object(fresh)))
            }
            Op::Unleaf => e.publish_binding(w, z[2], leaf, None),
            Op::Hop if w.state().lookup(z[1], hop) == deep => {
                e.publish_binding(w, z[1], hop, Some(Entity::Object(z[3])))
            }
            Op::Hop => e.publish_binding(w, z[1], hop, Some(deep)),
            Op::Unhop => e.publish_binding(w, z[1], hop, None),
            Op::Publish => {
                for &zone in z {
                    e.publish_zone(w, zone);
                }
                return false;
            }
            Op::Crash(i) => {
                if let Some(k) = self.down.iter().position(|&d| d == i) {
                    e.restart_server(w, ids.machines[i]);
                    e.pump_idle(w);
                    self.down.remove(k);
                    self.restarted = w.now().ticks();
                } else {
                    w.kill(e.service().server_on(ids.machines[i]));
                    self.down.push(i);
                }
                return false;
            }
            Op::Jump => {
                w.schedule_wake(ids.clock, Duration::from_ticks(T + 1), u64::MAX);
                e.pump_idle(w);
                w.drain_wakes(ids.clock);
                return false;
            }
            Op::Refresh => return false,
        };
        self.born.push(w.now().ticks());
        true
    }

    /// Resolves the batch, after a refresh — on the reactor, while the batch
    /// is in flight — when asked; feeds the transcript to `digest`.
    fn step(&mut self, ids: &Ids, refresh: bool, digest: &mut Fnv) -> Answer {
        let (w, client, start, names) = (&mut self.w, ids.client, ids.start, &ids.names[..]);
        let (authority, none) = (ids.machines[0], &[false; 3][..]);
        let a = match &mut self.driver {
            Driver::Blocking(e) => {
                if refresh {
                    let pulled = e.pull_zone_deltas(w, client, authority, &[]);
                    pulled.map(|(_, bytes)| bytes).hash(digest);
                }
                let b = e.resolve_batch(w, client, start, names);
                answer(&b.entities, &b.unreachable, none, b.messages)
            }
            Driver::Reactor(s) => {
                s.submit(w, client, start, names);
                if refresh {
                    let pulled = s.engine_mut().pull_zone_deltas(w, client, authority, &[]);
                    pulled.map(|(_, bytes)| bytes).hash(digest);
                }
                let b = &s.drain(w)[0];
                answer(&b.entities, &b.unreachable, none, b.messages)
            }
            Driver::Cached(r) => {
                if refresh && self.config == EXACT {
                    r.heal(w).hash(digest);
                } else if refresh {
                    r.sync(w, client, authority).map(|s| s.bytes).hash(digest);
                }
                self.asked = w.now().ticks();
                let b = r.resolve_batch(w, client, start, names);
                let lost: Vec<_> = (0..3).map(|slot| b.unreachable.contains(&slot)).collect();
                answer(&b.entities, &lost, &b.from_cache, b.messages)
            }
        };
        let c = engine(&mut self.driver).retry_counters();
        (&a, c.retransmissions, c.late_replies, c.failovers).hash(digest);
        a
    }
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

/// What the naive resolver may answer, per slot, in every mix of the
/// versions the two written zones have published (`allowed`), and in each
/// state σ went through, in order (`strict`).
#[derive(Default)]
struct Oracle {
    versions: [Vec<Context>; 2],
    allowed: Vec<Vec<Entity>>,
    strict: Vec<Vec<Entity>>,
}

impl Oracle {
    /// Notes the state `w` holds now, and every mix it adds.
    fn published(&mut self, w: &World, ids: &Ids) {
        let written = [ids.zones[1], ids.zones[2]];
        for (versions, &z) in self.versions.iter_mut().zip(&written) {
            versions.push(w.state().context(z).unwrap().clone());
            versions.dedup();
        }
        let r = Resolver::new();
        let naive = |s: &SystemState| {
            Vec::from_iter(ids.names.iter().map(|n| r.resolve_entity(s, ids.start, n)))
        };
        self.strict.push(naive(w.state()));
        self.allowed.resize(ids.names.len(), Vec::new());
        let mut mixed = w.state().clone();
        for v1 in &self.versions[0] {
            for v2 in &self.versions[1] {
                *mixed.context_mut(written[0]).unwrap() = v1.clone();
                *mixed.context_mut(written[1]).unwrap() = v2.clone();
                for (allowed, e) in self.allowed.iter_mut().zip(naive(&mixed)) {
                    if !allowed.contains(&e) {
                        allowed.push(e);
                    }
                }
            }
        }
    }
}

/// Equal, modulo replica group.
fn same(w: &World, a: Entity, b: Entity) -> bool {
    match (a, b) {
        (Entity::Object(x), Entity::Object(y)) => x == y || w.replicas().are_replicas(x, y),
        _ => a == b,
    }
}

/// Runs one input through the four configurations, checking every
/// invariant after every step; feeds the engine drivers' transcripts to
/// `digests[0]` and the caches' to `digests[1]`.
fn run(seed: u64, drop: f64, ops: &[Op], digests: &mut [Fnv; 2]) {
    let built = [Config::Blocking, Config::Reactor, EXACT, LEASE].map(|c| build(seed, c));
    let (mut rigs, ids): (Vec<Rig>, Vec<Ids>) = built.into_iter().unzip();
    let (ids, mut oracle) = (&ids[0], Oracle::default());
    oracle.published(&rigs[0].w, ids);
    let steps = std::iter::once(None).chain(ops.iter().map(|&op| Some(op)));
    for (step, op) in steps.chain([None, Some(Op::Refresh)]).enumerate() {
        let rate = if step > ops.len() { 0.0 } else { drop };
        let refresh = op == Some(Op::Refresh);
        let mut answers = Vec::new();
        for rig in &mut rigs {
            rig.w.set_message_drop_rate(rate);
            if step == ops.len() + 1 {
                while let Some(&i) = rig.down.first() {
                    rig.apply(Op::Crash(i), ids, step);
                }
            }
            let wrote = op.is_some_and(|op| rig.apply(op, ids, step));
            if wrote && rig.config == Config::Blocking {
                oracle.published(&rig.w, ids);
            }
            let digest = &mut digests[usize::from(matches!(rig.config, Config::Cached(_)))];
            let a = rig.step(ids, refresh, digest);
            let at = format!("seed {seed} drop {drop} {ops:?} #{step} {:?}", rig.config);
            check(rig, ids, &oracle, &a, (drop, rate, refresh), &at);
            answers.push((a.0, a.1));
        }
        let at = format!("seed {seed}, drop {drop}, {ops:?}, step {step}");
        if rate == 0.0 {
            assert_eq!(answers[1], answers[0], "7: reactor, {at}");
        }
        if rate == 0.0 && refresh && rigs.iter().all(|r| r.down.is_empty()) {
            for a in &answers[2..] {
                assert_eq!(*a, answers[0], "7: caches, {at}");
            }
        }
    }
    for rig in &mut rigs {
        engine(&mut rig.driver).pump_idle(&mut rig.w);
        let w = &rig.w;
        let reactor = match &rig.driver {
            Driver::Reactor(s) => s.in_flight(),
            _ => 0,
        };
        let mail: usize = w.processes().map(|p| w.mailbox_len(p)).sum();
        // In flight: messages and batches; then mail and timers.
        let idle = (w.messages_in_flight(), reactor, mail, w.pending_timers());
        let at = format!("seed {seed} drop {drop} {ops:?} {:?}", rig.config);
        assert_eq!(idle, (0, 0, 0, 0), "8: {at}");
        let digest = &mut digests[usize::from(matches!(rig.config, Config::Cached(_)))];
        (w.now().ticks(), w.trace().counter("sent")).hash(digest);
    }
}

/// Invariants 1–6 on one configuration's answer, at the input's drop rate
/// and the `rate` the step ran at.
fn check(rig: &mut Rig, ids: &Ids, oracle: &Oracle, a: &Answer, how: (f64, f64, bool), at: &str) {
    let (Answer(entities, lost, cached, _), (drop, rate, refresh)) = (a, how);
    let w = &rig.w;
    for (slot, &e) in entities.iter().enumerate() {
        let known = oracle.allowed[slot].iter().any(|&o| same(w, o, e));
        assert!(lost[slot] || known, "1/2: {slot} is {e:?}, {at}");
        assert!(!lost[slot] || !e.is_defined(), "2: {slot} is {e:?}, {at}");
        assert!(!rig.unreachable[slot] || !cached[slot], "3: {slot}, {at}");
    }
    rig.unreachable.clone_from(lost);
    let want = if rate < 1.0 { 0 } else { ids.names.len() };
    assert_eq!(lost.iter().filter(|&&u| u).count(), want, "4/2: {at}");
    if rig.config == LEASE && drop == 0.0 && rig.down.is_empty() {
        let current = oracle.strict.last().unwrap();
        for (slot, &e) in entities.iter().enumerate() {
            if !same(w, e, current[slot]) {
                let held = oracle.strict.iter().rposition(|s| same(w, s[slot], e));
                let since = held.map_or(0, |i| rig.born[i + 1]).max(rig.restarted);
                let now = if cached[slot] {
                    rig.asked
                } else {
                    w.now().ticks()
                };
                assert!(now - since < T, "5: {slot} is {e:?} since {since}, {at}");
            }
        }
    }
    let stale_free = rig.config == EXACT || (rate == 0.0 && rig.down.is_empty());
    if let (Driver::Cached(r), true) = (&rig.driver, refresh && stale_free) {
        assert_eq!(r.stale_entries(w), [], "6: {at}");
    }
}

/// Every schedule of at most `n` operations, shortest first.
fn schedules(n: usize) -> Vec<Vec<Op>> {
    use Op::*;
    let ops = [Leaf, Unleaf, Hop, Unhop, Publish, Refresh];
    let ops: Vec<Op> = ops.into_iter().chain([Crash(1), Crash(2), Jump]).collect();
    let (mut all, mut k) = (vec![Vec::new()], 0);
    while all[k].len() < n {
        let parent = all[k].clone();
        all.extend(ops.iter().map(|&op| [&parent[..], &[op]].concat()));
        k += 1;
    }
    all
}

/// Runs every schedule of at most `n` operations at each drop rate and
/// `seeds` world seeds; returns the engine drivers' and the caches' digests.
fn sweep(n: usize, drops: &[f64], seeds: u64) -> [u64; 2] {
    let mut digests = [Fnv(0xcbf2_9ce4_8422_2325), Fnv(0xcbf2_9ce4_8422_2325)];
    for ops in schedules(n) {
        for &drop in drops {
            for seed in 0..seeds {
                run(seed, drop, &ops, &mut digests);
            }
        }
    }
    digests.map(|d| d.finish())
}

/// Invariant 9: per sweep, the digests of the engine drivers' and of the
/// caches' transcripts.
const LOSSLESS: [u64; 2] = [17157821071865470438, 5820465208456531463];
const LOSSY: [u64; 2] = [14156573738345096505, 12120517472912851591];
const TOTAL_LOSS: [u64; 2] = [14387975571596223976, 14589080592580823313];

#[test]
fn lossless_schedules_keep_every_invariant() {
    assert_eq!(sweep(N, &[0.0], 1), LOSSLESS);
}

#[test]
fn lossy_schedules_keep_every_invariant() {
    assert_eq!(sweep(N_LOSSY, &[0.1, 0.3, 0.5], LOSSY_SEEDS), LOSSY);
}

#[test]
fn total_loss_is_unreachable_never_bottom() {
    assert_eq!(sweep(N_LOSSY, &[1.0], 1), TOTAL_LOSS);
}

/// The shortest input whose answer no state of σ held: at drop 0.5 the
/// standby's copy of `hop2`'s zone still holds its set-up binding when the
/// walk fails over to it, and the deepest zone answers at its latest
/// version (invariant 1).
#[test]
fn a_failover_reads_each_zone_at_a_version_it_published() {
    let (mut rig, ids) = build(0, Config::Blocking);
    let mut oracle = Oracle::default();
    oracle.published(&rig.w, &ids);
    rig.w.set_message_drop_rate(0.5);
    let mut f0 = rig.step(&ids, false, &mut Fnv(0)).0[0];
    for (step, op) in [Op::Hop, Op::Leaf, Op::Publish].into_iter().enumerate() {
        if rig.apply(op, &ids, step + 1) {
            oracle.published(&rig.w, &ids);
        }
        f0 = rig.step(&ids, false, &mut Fnv(0)).0[0];
    }
    assert!(oracle.strict.iter().all(|s| s[0] != f0), "{f0:?}");
    assert!(oracle.allowed[0].contains(&f0), "{f0:?}");
}

/// Invariant 6 on the shortest inputs whose failover reads a lagging copy:
/// its answer may stay neither in the exact cache, where the footprint of
/// the authority's walk would let it outlive every `heal()`, nor in the
/// lease plane, where the serial already heard would let it outlive the
/// next pull.
#[test]
fn no_refresh_keeps_a_lagging_copys_answer() {
    let mut digests = [Fnv(0), Fnv(0)];
    run(0, 0.0, &[Op::Leaf, Op::Crash(2), Op::Refresh], &mut digests);
    run(0, 0.1, &[Op::Leaf, Op::Refresh], &mut digests);
}
