//! One fault harness: the serving invariants, stated once and checked after
//! every step of every short schedule, under loss, crashes and restarts.
//!
//! An input is a seed, a drop rate and a schedule. It rebuilds
//! `scenarios::chaos_zones(3, 2, seed, 1)` — three zones in a referral
//! chain, each copied to a standby — plus a zone `alt` for `hop2` to point
//! at, for each configuration: the blocking `ProtocolEngine::resolve_batch`,
//! `PipelinedService` at two workers, `CachingResolver::resolve_batch` in
//! `Exact` and `Lease { ttl: Some(T) }` mode, the blocking engine's
//! single-name `resolve` in `Mode::Recursive`, and `resolve_batch` on the
//! same world at four shards (`chaos_zones(.., 4)`: object ids differ, so
//! this layout keeps its own ids and oracle). All retry 256 / 64 / 6 but
//! the recursive walk, which gives up after 8 deadlines: no attempt of it
//! gets past a dead primary (invariant 4), so 64 would only cost time. They
//! run the schedule in lockstep, resolving the two leaves and a name never
//! bound after each operation: bind, unbind or rebind `f0` or `hop2`
//! (`publish_binding`); publish every zone; refresh (`heal`, `sync`, or a
//! pull — on the reactor with its batch in flight); kill a zone primary, or
//! restart it and pump; jump the clock past `T`; kill and revive the client
//! (on the reactor while its batch is in flight). Lossless, a
//! `ConcurrentService` at two workers serves the same names beside them.
//! Every input closes lossless: restarts, a resolve, a refresh and its
//! resolve, `pump_idle`. Shorter schedules run first, so a first failure is
//! a shortest one.
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
//!    killed, so every zone keeps a live server. Two exceptions. A batch
//!    whose client crashed is lost with it: its slots no event will answer
//!    end unreachable. And for a recursive walk it holds only lossless with
//!    every primary up: a server forwards the rest of a name once, to the server
//!    the referral names, and arms no deadline, while the client's retries
//!    re-ask the server of its start context. No attempt reaches a later
//!    zone's standby, so with that zone's primary down, or with a hop of
//!    the chain lost on every attempt, the name ends unreachable.
//! 5. Lossless, with every primary up, a lease answer that misses a write is
//!    served less than `T` ticks after it — or after the last restart, since
//!    a copy that lagged while its primary was down granted a lease then.
//! 6. After `heal()`, and after a lossless `sync` with every primary up,
//!    `stale_entries()` is empty.
//! 7. Lossless, the engine drivers answer alike after every step — the
//!    reactor but at its client's crash, the recursive walk with every
//!    primary up — and with every primary up each cache answers like them
//!    after its refresh. The two layouts answer alike by label after every
//!    step. The pool answers a batch submitted before a step's write, or
//!    after it while it is only staged, from the state before it, and one
//!    submitted after its publish from the new state.
//! 8. A revived client holds no timer armed before its crash. After the
//!    final `pump_idle` nothing is in flight, no mailbox holds mail and no
//!    timer is pending.
//! 9. The FNV digests of the transcripts — answers, verdicts, cache hits,
//!    messages, retransmissions, late replies, failovers, and the servers
//!    the recursive and sharded configurations touched — are pinned.

use std::hash::{Hash, Hasher};

use naming_bench::scenarios::chaos_zones;
use naming_core::context::Context;
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_core::state::SystemState;
use naming_resolver::cache::CachingResolver;
use naming_resolver::coherence::CoherenceMode;
use naming_resolver::concurrent::ConcurrentService;
use naming_resolver::engine::{ProtocolEngine, RetryPolicy};
use naming_resolver::runtime::PipelinedService;
use naming_resolver::wire::{BatchRequest, Mode, NameTrie};
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
    /// Kills the client and revives it. On the reactor the batch is in
    /// flight, and the authority has answered a pull from `clock` between
    /// the two, so the batch's first reply reached a dead client; elsewhere
    /// nothing is in flight.
    Client,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Config {
    Blocking,
    Reactor,
    Cached(CoherenceMode),
    Recursive,
    Sharded,
}

const EXACT: Config = Config::Cached(CoherenceMode::Exact);
const LEASE: Config = Config::Cached(CoherenceMode::Lease { ttl: Some(T) });
/// In lockstep, in this order: answers are compared by index.
const CONFIGS: [Config; 6] = [
    Config::Blocking,
    Config::Reactor,
    EXACT,
    LEASE,
    Config::Recursive,
    Config::Sharded,
];

enum Driver {
    Blocking(ProtocolEngine),
    Reactor(PipelinedService),
    Cached(Box<CachingResolver>),
}

/// Where a world put what the schedule touches. `zones` ends with `alt`.
struct Ids {
    machines: Vec<MachineId>,
    zones: Vec<ObjectId>,
    client: ActivityId,
    start: ObjectId,
    clock: ActivityId,
    names: Vec<CompoundName>,
}

/// One configuration's world, its ids and oracle, and what its checks
/// remember: the tick each state published since set-up appeared at, the
/// last restart, the zones whose primary is down, the last step's transport
/// verdicts, the tick its cache hits were served at, and the timers left
/// pending by the client's revive in this step.
struct Rig {
    config: Config,
    w: World,
    driver: Driver,
    ids: Ids,
    oracle: Oracle,
    born: Vec<u64>,
    restarted: u64,
    down: Vec<usize>,
    unreachable: Vec<bool>,
    asked: u64,
    revived: Option<usize>,
}

/// One step's answer, copied out of the lent one: per slot the entity,
/// whether it is a transport verdict and whether a cache served it; then
/// the messages it cost.
#[derive(Hash)]
struct Answer(Vec<Entity>, Vec<bool>, Vec<bool>, u64);

fn answer(e: &[Entity], unreachable: &[bool], cached: &[bool], messages: u64) -> Answer {
    Answer(e.to_vec(), unreachable.to_vec(), cached.to_vec(), messages)
}

fn build(seed: u64, config: Config) -> Rig {
    let shards = if config == Config::Sharded { 4 } else { 1 };
    let (mut w, mut svc, machines, client, start, mut names, standby, mut zones) =
        chaos_zones(3, 2, seed, shards);
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
    let max_attempts = if config == Config::Recursive { 8 } else { 64 };
    engine.set_retry_policy(Some(RetryPolicy {
        max_attempts,
        ..RetryPolicy::default()
    }));
    let driver = match config {
        Config::Reactor => Driver::Reactor(PipelinedService::new(engine, 2)),
        Config::Cached(mode) => {
            Driver::Cached(Box::new(CachingResolver::with_mode(engine, 64, mode)))
        }
        _ => Driver::Blocking(engine),
    };
    let ids = Ids {
        machines,
        zones,
        client,
        start,
        clock,
        names,
    };
    let mut oracle = Oracle::default();
    oracle.published(&w, &ids);
    let unreachable = vec![false; ids.names.len()];
    Rig {
        config,
        w,
        driver,
        ids,
        oracle,
        born: vec![0],
        restarted: 0,
        down: Vec::new(),
        unreachable,
        asked: 0,
        revived: None,
    }
}

fn engine(driver: &mut Driver) -> &mut ProtocolEngine {
    match driver {
        Driver::Blocking(e) => e,
        Driver::Reactor(s) => s.engine_mut(),
        Driver::Cached(r) => r.engine_mut(),
    }
}

impl Rig {
    /// Applies any operation but a refresh or a client crash, which `step`
    /// makes; true when it wrote a binding.
    fn apply(&mut self, op: Op, step: usize) -> bool {
        let (w, e, ids) = (&mut self.w, engine(&mut self.driver), &self.ids);
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
            Op::Refresh | Op::Client => return false,
        };
        self.born.push(w.now().ticks());
        self.oracle.published(w, ids);
        true
    }

    /// Resolves the batch, after a refresh — on the reactor, while the batch
    /// is in flight — when `op` asks for one, and around a client crash when
    /// it asks for that; feeds the transcript to `digest`.
    fn step(&mut self, op: Option<Op>, digest: &mut Fnv) -> Answer {
        let (w, ids) = (&mut self.w, &self.ids);
        let (client, start, names) = (ids.client, ids.start, &ids.names[..]);
        let (authority, none) = (ids.machines[0], &[false; 3][..]);
        let (refresh, crash) = (op == Some(Op::Refresh), op == Some(Op::Client));
        let pull = |e: &mut ProtocolEngine, w: &mut World, by, digest: &mut Fnv| {
            let pulled = e.pull_zone_deltas(w, by, authority, &[]);
            pulled.map(|(_, bytes)| bytes).hash(digest);
        };
        if crash && !matches!(self.driver, Driver::Reactor(_)) {
            w.kill(client);
            w.revive(client);
            self.revived = Some(w.pending_timers());
        }
        let a = match &mut self.driver {
            Driver::Blocking(e) => {
                if refresh {
                    pull(e, w, client, digest);
                }
                if self.config == Config::Recursive {
                    let mut a = answer(&[], &[], none, 0);
                    for name in names {
                        let s = e.resolve(w, client, start, name, Mode::Recursive);
                        a.0.push(s.entity);
                        a.1.push(s.unreachable);
                        a.3 += s.messages;
                        s.servers_touched.hash(digest);
                    }
                    a
                } else {
                    let b = e.resolve_batch(w, client, start, names);
                    if self.config == Config::Sharded {
                        b.servers_touched.hash(digest);
                    }
                    answer(&b.entities, &b.unreachable, none, b.messages)
                }
            }
            Driver::Reactor(s) => {
                s.submit(w, client, start, names);
                if refresh {
                    pull(s.engine_mut(), w, client, digest);
                }
                if crash {
                    w.kill(client);
                    pull(s.engine_mut(), w, ids.clock, digest);
                    w.revive(client);
                    self.revived = Some(w.pending_timers());
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

    /// An answer by label, as `tests/config_matrix.rs`'s `Verdict` reads
    /// it: object ids differ between layouts, labels do not.
    fn labels(&self, a: &Answer) -> Vec<(String, bool)> {
        let label = |e: Entity| match e {
            Entity::Object(o) => self.w.state().object_label(o).to_owned(),
            e => e.to_string(),
        };
        a.0.iter().zip(&a.1).map(|(&e, &u)| (label(e), u)).collect()
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

/// Which digest a configuration feeds on `ops`: the engine drivers' (0)
/// and the caches' (1) are those of the schedules without a client crash;
/// the recursive walk, the sharded layout and every input with a client
/// crash feed their own (2).
fn digest_of(config: Config, ops: &[Op]) -> usize {
    match config {
        Config::Recursive | Config::Sharded => 2,
        _ if ops.contains(&Op::Client) => 2,
        Config::Cached(_) => 1,
        _ => 0,
    }
}

/// Runs one input through every configuration, checking every invariant
/// after every step.
fn run(seed: u64, drop: f64, ops: &[Op], digests: &mut [Fnv; 3]) {
    let mut rigs = CONFIGS.map(|c| build(seed, c));
    let (start, names) = (rigs[0].ids.start, &rigs[0].ids.names);
    let (trie, order) = NameTrie::build(names);
    let mut pool = (drop == 0.0).then(|| ConcurrentService::new(rigs[0].w.state().clone(), 2));
    let steps = std::iter::once(None).chain(ops.iter().map(|&op| Some(op)));
    for (step, op) in steps.chain([None, Some(Op::Refresh)]).enumerate() {
        let rate = if step > ops.len() { 0.0 } else { drop };
        let before = rigs[0].oracle.strict.last().unwrap().clone();
        let batch = |id| BatchRequest {
            id,
            start,
            trie: trie.clone(),
        };
        if let Some(pool) = &mut pool {
            pool.submit(batch(0));
        }
        let mut answers = Vec::new();
        for rig in &mut rigs {
            rig.w.set_message_drop_rate(rate);
            if step == ops.len() + 1 {
                while let Some(&i) = rig.down.first() {
                    rig.apply(Op::Crash(i), step);
                }
            }
            if let Some(op) = op {
                rig.apply(op, step);
            }
            let a = rig.step(op, &mut digests[digest_of(rig.config, ops)]);
            let at = format!("seed {seed} drop {drop} {ops:?} #{step} {:?}", rig.config);
            check(rig, &a, (drop, rate, op), &at);
            answers.push(a);
        }
        let at = format!("seed {seed}, drop {drop}, {ops:?}, step {step}");
        let pair = |i: usize| (&answers[i].0, &answers[i].1);
        let up = rigs.iter().all(|r| r.down.is_empty());
        if rate == 0.0 && op != Some(Op::Client) {
            assert_eq!(pair(1), pair(0), "7: reactor, {at}");
        }
        if rate == 0.0 && up {
            assert_eq!(pair(4), pair(0), "7: recursive, {at}");
        }
        if rate == 0.0 && up && op == Some(Op::Refresh) {
            for i in 2..4 {
                assert_eq!(pair(i), pair(0), "7: caches, {at}");
            }
        }
        let layouts = (rigs[5].labels(&answers[5]), rigs[0].labels(&answers[0]));
        assert_eq!(layouts.0, layouts.1, "7: layouts, {at}");
        if let Some(pool) = &mut pool {
            pool.update(|s| s.clone_from(rigs[0].w.state()));
            pool.submit(batch(1));
            pool.publish();
            pool.submit(batch(2));
            let after = rigs[0].oracle.strict.last().unwrap();
            for (a, want) in pool.drain().iter().zip([&before, &before, after]) {
                let got = Vec::from_iter(order.iter().map(|&q| a.entities[q as usize]));
                assert_eq!(&got, want, "7: pool, batch {}, {at}", a.id);
            }
        }
    }
    if let Some(pool) = pool {
        pool.shutdown();
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
        let digest = &mut digests[digest_of(rig.config, ops)];
        (w.now().ticks(), w.trace().counter("sent")).hash(digest);
    }
}

/// Invariants 1–6 and 8's revive on one configuration's answer, at the
/// input's drop rate and the `rate` the step ran at.
fn check(rig: &mut Rig, a: &Answer, how: (f64, f64, Option<Op>), at: &str) {
    let (Answer(entities, lost, cached, _), (drop, rate, op)) = (a, how);
    let (w, oracle) = (&rig.w, &rig.oracle);
    for (slot, &e) in entities.iter().enumerate() {
        let known = oracle.allowed[slot].iter().any(|&o| same(w, o, e));
        assert!(lost[slot] || known, "1/2: {slot} is {e:?}, {at}");
        assert!(!lost[slot] || !e.is_defined(), "2: {slot} is {e:?}, {at}");
        assert!(!rig.unreachable[slot] || !cached[slot], "3: {slot}, {at}");
    }
    rig.unreachable.clone_from(lost);
    let unreachable = lost.iter().filter(|&&u| u).count();
    let resolves = match rig.config {
        Config::Reactor => op != Some(Op::Client),
        Config::Recursive => rate == 0.0 && rig.down.is_empty(),
        _ => true,
    };
    if rate == 1.0 {
        assert_eq!(unreachable, lost.len(), "2: {at}");
    } else if resolves {
        assert_eq!(unreachable, 0, "4: {at}");
    }
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
    if let (Driver::Cached(r), true) = (&rig.driver, op == Some(Op::Refresh) && stale_free) {
        assert_eq!(r.stale_entries(w), [], "6: {at}");
    }
    if let Some(timers) = rig.revived.take() {
        assert_eq!(timers, 0, "8: a revived client kept its timers, {at}");
    }
}

/// Every schedule of at most `n` operations, shortest first.
fn schedules(n: usize) -> Vec<Vec<Op>> {
    use Op::*;
    let ops = [Leaf, Unleaf, Hop, Unhop, Publish, Refresh];
    let ops: Vec<Op> = ops
        .into_iter()
        .chain([Crash(1), Crash(2), Jump, Client])
        .collect();
    let (mut all, mut k) = (vec![Vec::new()], 0);
    while all[k].len() < n {
        let parent = all[k].clone();
        all.extend(ops.iter().map(|&op| [&parent[..], &[op]].concat()));
        k += 1;
    }
    all
}

/// Runs every schedule of at most `n` operations at each drop rate and
/// `seeds` world seeds; returns the digests `digest_of` names.
fn sweep(n: usize, drops: &[f64], seeds: u64) -> [u64; 3] {
    let mut digests = [0; 3].map(|_| Fnv(0xcbf2_9ce4_8422_2325));
    for ops in schedules(n) {
        for &drop in drops {
            for seed in 0..seeds {
                run(seed, drop, &ops, &mut digests);
            }
        }
    }
    digests.map(|d| d.finish())
}

/// Invariant 9: per sweep, the digests of the engine drivers', the caches'
/// and the rest's transcripts.
const LOSSLESS: [u64; 3] = [
    17157821071865470438,
    5820465208456531463,
    16491942789099534044,
];
const LOSSY: [u64; 3] = [
    14156573738345096505,
    12120517472912851591,
    18106793482171493751,
];
const TOTAL_LOSS: [u64; 3] = [
    14387975571596223976,
    14589080592580823313,
    6980836395277212257,
];

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
    let mut rig = build(0, Config::Blocking);
    rig.w.set_message_drop_rate(0.5);
    let mut f0 = rig.step(None, &mut Fnv(0)).0[0];
    for (step, op) in [Op::Hop, Op::Leaf, Op::Publish].into_iter().enumerate() {
        rig.apply(op, step + 1);
        f0 = rig.step(Some(op), &mut Fnv(0)).0[0];
    }
    assert!(rig.oracle.strict.iter().all(|s| s[0] != f0), "{f0:?}");
    assert!(rig.oracle.allowed[0].contains(&f0), "{f0:?}");
}

/// Invariant 6 on the shortest inputs whose failover reads a lagging copy:
/// its answer may stay neither in the exact cache, where the footprint of
/// the authority's walk would let it outlive every `heal()`, nor in the
/// lease plane, where the serial already heard would let it outlive the
/// next pull.
#[test]
fn no_refresh_keeps_a_lagging_copys_answer() {
    let mut digests = [0; 3].map(|_| Fnv(0));
    run(0, 0.0, &[Op::Leaf, Op::Crash(2), Op::Refresh], &mut digests);
    run(0, 0.1, &[Op::Leaf, Op::Refresh], &mut digests);
}

/// The exception invariant 4 makes for the recursive walk, on its shortest
/// input: with zone 1's primary down, lossless, every name ends unreachable
/// although the standby holds every zone, because zone 0's server forwards
/// to zone 1's primary alone and the client's retries re-ask zone 0's
/// server. The iterative walk fails over to the standby.
#[test]
fn a_recursive_walk_fails_over_for_its_first_zone_alone() {
    let (mut rig, mut iterative) = (build(0, Config::Recursive), build(0, Config::Blocking));
    for r in [&mut rig, &mut iterative] {
        r.apply(Op::Crash(1), 1);
    }
    let lost = rig.step(Some(Op::Crash(1)), &mut Fnv(0)).1;
    assert_eq!(lost, [true; 3]);
    let lost = iterative.step(Some(Op::Crash(1)), &mut Fnv(0)).1;
    assert_eq!(lost, [false; 3]);
}
