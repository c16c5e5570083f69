//! Telemetry is observation-only: a traced run of a full-stack scenario
//! produces byte-identical results to an untraced run, its exports
//! round-trip through a JSON parser, and `CoherenceMonitor` observations
//! link to the resolution traces behind them.

use naming_core::audit::AuditSpec;
use naming_core::builder::NamespaceBuilder;
use naming_core::closure::{ContextRegistry, MetaContext, NameSource, StandardRule};
use naming_core::entity::Entity;
use naming_core::monitor::{CoherenceMonitor, TraceHandle};
use naming_core::name::CompoundName;
use naming_core::name::Name;
use naming_core::state::SystemState;
use naming_port::exec::ExecService;
use naming_resolver::cache::{CachingResolver, DEFAULT_CACHE_CAPACITY};
use naming_resolver::coherence::CoherenceMode;
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::service::NameService;
use naming_resolver::wire::Mode;
use naming_sim::store;
use naming_sim::world::World;

/// Runs a compact build-farm scenario across the whole stack — remote
/// exec, the resolution protocol, a client cache, rule-based resolution —
/// and returns a digest of every observable result.
fn run_scenario() -> Vec<String> {
    let mut digest = Vec::new();
    let mut w = World::new(777);
    let site = w.add_network("site");
    let home = w.add_machine("home", site);
    let farm = w.add_machine("farm", site);
    let home_root = w.machine_root(home);
    let src = store::ensure_dir(w.state_mut(), home_root, "src");
    let makefile = store::create_file(w.state_mut(), src, "Makefile", b"all:".to_vec());
    let farm_root = w.machine_root(farm);
    store::create_file(w.state_mut(), farm_root, "tool", vec![7]);

    let mut nsvc = NameService::install(&mut w, &[home, farm]);
    nsvc.place_subtree(&w, farm_root, farm);
    nsvc.place_subtree(&w, home_root, home);
    let mut exec = ExecService::install(&mut w, &[home, farm]);
    let dev = exec.spawn_with_namespace(&mut w, home, "developer-shell");

    // Remote exec ships the namespace; the receipt must match.
    let makefile_name = CompoundName::parse_path("/home/src/Makefile").unwrap();
    let out = exec.remote_exec(
        &mut w,
        dev,
        farm,
        "build-job",
        std::slice::from_ref(&makefile_name),
    );
    let builder = out.child.expect("build job spawned");
    assert_eq!(out.resolved_args, vec![Entity::Object(makefile)]);
    digest.push(format!(
        "exec: {:?} msgs={} latency={}",
        out.resolved_args,
        out.messages,
        out.latency.ticks()
    ));

    // Protocol resolution through a client cache: miss, then hit.
    let mut cache = CachingResolver::new(ProtocolEngine::new(nsvc));
    let tool = CompoundName::parse_path("/tool").unwrap();
    for _ in 0..2 {
        let (e, from_cache) = cache.resolve(&mut w, builder, farm_root, &tool, Mode::Iterative);
        digest.push(format!("protocol: {e} cached={from_cache}"));
    }
    digest.push(cache.stats().to_json());

    // Rule-based resolution (closure meta-context) in the developer's own
    // namespace, plus a deliberate ⊥.
    let rule = StandardRule::OfResolver;
    let e = w.resolve_as(dev, &makefile_name, NameSource::Internal, &rule);
    digest.push(format!("rule: {e}"));
    let missing = CompoundName::parse_path("/home/src/missing").unwrap();
    let e = w.resolve_as(dev, &missing, NameSource::Internal, &rule);
    digest.push(format!("rule-bottom: {e}"));

    digest.push(w.trace().to_string());
    digest
}

/// The metrics registry is one per process: the tests that read the
/// client caches' counters out of it take turns.
static CACHE_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn traced_and_untraced_runs_agree() {
    let _turn = CACHE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let untraced = run_scenario();
    naming_telemetry::recorder::install();
    naming_telemetry::recorder::set_track_name(1, "telemetry integration test");
    let traced = run_scenario();
    let data = naming_telemetry::recorder::take().expect("recorder was installed");
    assert_eq!(untraced, traced, "telemetry must not change results");

    // The trace saw the whole stack.
    assert!(!data.resolutions.is_empty(), "resolutions were traced");
    assert!(
        data.resolutions.iter().any(|t| t.rule.is_some()),
        "rule-based resolutions carry their closure rule"
    );
    assert!(
        data.resolutions
            .iter()
            .any(|t| matches!(t.outcome, naming_telemetry::trace::Outcome::Bottom(_))),
        "the deliberate ⊥ was traced"
    );
    for cat in ["message", "protocol", "exec"] {
        assert!(
            data.events.iter().any(|e| e.cat == cat),
            "missing {cat} events"
        );
    }

    // Both exporters round-trip through the JSON parser.
    let chrome = naming_telemetry::chrome::render(&data);
    naming_telemetry::json::check(&chrome).expect("chrome trace is valid JSON");
    let jsonl = naming_telemetry::jsonl::render(&data);
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        naming_telemetry::json::check(line).expect("every JSONL line is valid JSON");
    }

    // So does the metrics snapshot the scenario populated.
    let snapshot = naming_telemetry::metrics::global().snapshot();
    naming_telemetry::json::check(&snapshot.to_json()).expect("metrics snapshot is valid JSON");
    assert!(snapshot.counter("sim.sent") > 0);
    assert!(snapshot.counter("protocol.resolves") > 0);
}

/// Drives one resolver through every way a side-cache counter can move —
/// lookups that hit, miss and drop on sight, records, and the eager sweeps
/// of its mode — and returns its referral and negative counter sets.
fn churn_side_caches(mode: CoherenceMode) -> [naming_resolver::referral::ValidatedCacheStats; 2] {
    let mut w = World::new(81);
    let net = w.add_network("n");
    let m1 = w.add_machine("m1", net);
    let m2 = w.add_machine("m2", net);
    let root = w.machine_root(m1);
    let root2 = w.machine_root(m2);
    let sub = store::ensure_dir(w.state_mut(), root2, "export");
    store::create_file(w.state_mut(), sub, "data", vec![]);
    store::attach(w.state_mut(), root, "remote", sub, false);
    let mut svc = NameService::install(&mut w, &[m1, m2]);
    svc.place_subtree(&w, root2, m2);
    svc.place_subtree(&w, root, m1);
    let client = w.spawn(m1, "client", None);
    let mut r = CachingResolver::with_mode(ProtocolEngine::new(svc), DEFAULT_CACHE_CAPACITY, mode);
    let names: Vec<CompoundName> = ["/remote/data", "/remote/nope", "/remote/gone", "/remote"]
        .iter()
        .map(|p| CompoundName::parse_path(p).unwrap())
        .collect();
    let round = |w: &mut World, r: &mut CachingResolver| {
        for name in &names {
            r.resolve(w, client, root, name, Mode::Iterative);
        }
        r.invalidate(root, &names[0]);
        r.resolve_batch(w, client, root, &names);
    };
    round(&mut w, &mut r);
    // Writes along both paths: probes drop what they refute on sight …
    let nope = w.state_mut().add_data_object("nope", vec![]);
    for (ctx, label) in [(sub, "nope"), (root, "beside")] {
        r.engine_mut()
            .publish_binding(&mut w, ctx, Name::new(label), Some(Entity::Object(nope)))
            .expect("publish commits");
    }
    if mode == CoherenceMode::Exact {
        round(&mut w, &mut r);
    }
    // … and the eager sweeps drop the rest: a pull that hears the zone
    // move and a lease sweep on one plane, healing on the other.
    r.sync(&mut w, client, m1).expect("sync completes");
    round(&mut w, &mut r);
    let gone = w.state_mut().add_data_object("gone", vec![]);
    w.state_mut().bind(sub, Name::new("gone"), gone).unwrap();
    r.heal(&w);
    r.sweep_leases(u64::MAX);
    [r.referral_stats(), r.negative_stats()]
}

#[test]
fn side_cache_registry_counters_equal_the_struct_counters() {
    let _turn = CACHE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let before = naming_telemetry::metrics::global().snapshot();
    let [ref_exact, neg_exact] = churn_side_caches(CoherenceMode::Exact);
    let [ref_lease, neg_lease] = churn_side_caches(CoherenceMode::Lease { ttl: Some(1 << 20) });
    let moved = naming_telemetry::metrics::global().snapshot().diff(&before);
    for (name, exact, lease) in [
        ("referral.hits", ref_exact.hits, ref_lease.hits),
        ("referral.misses", ref_exact.misses, ref_lease.misses),
        (
            "referral.invalidated",
            ref_exact.invalidated,
            ref_lease.invalidated,
        ),
        ("negcache.hits", neg_exact.hits, neg_lease.hits),
        ("negcache.misses", neg_exact.misses, neg_lease.misses),
        (
            "negcache.invalidated",
            neg_exact.invalidated,
            neg_lease.invalidated,
        ),
        ("negcache.recorded", neg_exact.recorded, neg_lease.recorded),
    ] {
        assert!(
            exact > 0 && lease > 0,
            "{name} never moved: {exact} exact, {lease} lease"
        );
        assert_eq!(
            moved.counter(name),
            exact + lease,
            "{name} drifted from the struct"
        );
    }
}

#[test]
fn monitor_observations_link_to_traces() {
    let mut sys = SystemState::new();
    let mut reg = ContextRegistry::new();
    let mut names = Vec::new();
    let mut metas = Vec::new();
    for i in 0..2 {
        let mut b = NamespaceBuilder::rooted(&mut sys, &format!("m{i}"));
        b.dir("etc", |etc| {
            etc.file("passwd", vec![i as u8]);
        });
        let root = b.finish();
        let a = sys.add_activity(format!("p{i}"));
        reg.set_activity_context(a, root);
        metas.push(MetaContext::internal(a));
    }
    names.push(CompoundName::parse_path("/etc/passwd").unwrap());
    let mut mon = CoherenceMonitor::new(AuditSpec::exhaustive(names, metas));

    naming_telemetry::recorder::install();
    let with_handle = mon
        .observe(
            "0",
            &sys,
            &reg,
            &StandardRule::OfResolver,
            None,
            Some(&TraceHandle),
        )
        .trace_ids
        .clone();
    let without_handle = mon
        .observe("1", &sys, &reg, &StandardRule::OfResolver, None, None)
        .trace_ids
        .clone();
    let data = naming_telemetry::recorder::take().expect("recorder was installed");

    assert!(
        !with_handle.is_empty(),
        "observation links to the audit's resolution traces"
    );
    assert!(without_handle.is_empty(), "no handle, no linkage");
    // Every linked id names a real recorded trace.
    for id in &with_handle {
        assert!(
            data.resolutions.iter().any(|t| t.id == *id),
            "trace id {id} not found"
        );
    }
}
