//! Fault-tolerance soak: the resolution protocol under message loss,
//! server crashes, and restarts.
//!
//! The invariants under test, end to end across the stack:
//!
//! * **Transport failure is not ⊥.** A lost message, an exhausted retry
//!   budget, or an unplaced authority yields an answer flagged
//!   `unreachable`; an unflagged `⊥` is always authoritative. Under any
//!   drop rate < 1 with retries enabled, every *bound* name eventually
//!   resolves — zero false ⊥s.
//! * **Determinism.** The whole chaos soak — drops, backoff deadlines,
//!   failovers — replays identically from the same seed.
//! * **Invisibility when lossless.** With no loss, enabling the retry
//!   layer changes nothing: same entities, same messages, same virtual
//!   latency.
//! * **Crash → failover → restart.** Killing a zone's primary redirects
//!   walks to the standby replica; restarting it republishes the zone and
//!   restores the direct route.

use naming_bench::scenarios::chaos_zones;
use naming_core::entity::Entity;
use naming_resolver::engine::{ProtocolEngine, RetryCounters, RetryPolicy};
use naming_resolver::wire::Mode;

const HOPS: usize = 4;
const LEAVES: usize = 12;
const SEED: u64 = 20260806;

fn soak_policy() -> RetryPolicy {
    RetryPolicy {
        base_timeout_ticks: 256,
        max_attempts: 64,
        backoff_cap: 6,
    }
}

/// One full soak pass: every name at every drop rate, scalar and batch.
/// Returns a transcript of deterministic observables.
fn soak(seed: u64) -> (Vec<(String, u64, u64)>, RetryCounters) {
    let (mut w, svc, _machines, client, start, names, _standby, _zones) =
        chaos_zones(HOPS, LEAVES, seed);
    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(Some(soak_policy()));
    let mut transcript = Vec::new();
    for &rate in &[0.1, 0.3, 0.5] {
        w.set_message_drop_rate(rate);
        for n in &names {
            let s = engine.resolve(&mut w, client, start, n, Mode::Iterative);
            assert!(
                s.entity.is_defined(),
                "bound {n} must resolve at drop={rate}"
            );
            assert!(!s.unreachable);
            transcript.push((format!("{rate}:{n}"), s.messages, s.latency.ticks()));
        }
        let batch = engine.resolve_batch(&mut w, client, start, &names);
        for (i, e) in batch.entities.iter().enumerate() {
            assert!(e.is_defined(), "batch slot {i} must resolve at drop={rate}");
            assert!(!batch.unreachable[i]);
        }
        // Retransmissions repeat exchanges; they never consume
        // referral-progress rounds, so depth stays bounded by the name.
        let max_len = names.iter().map(|n| n.len() as u32).max().unwrap_or(0);
        assert!(batch.rounds <= max_len + 1, "rounds {}", batch.rounds);
        transcript.push((
            format!("{rate}:batch"),
            batch.messages,
            batch.latency.ticks(),
        ));
    }
    (transcript, engine.retry_counters())
}

#[test]
fn chaos_soak_never_reports_false_bottom() {
    let (_, counters) = soak(SEED);
    assert!(
        counters.retransmissions > 0,
        "the soak must actually have lost messages: {counters:?}"
    );
    assert_eq!(counters.exhausted, 0, "64 attempts never all fail here");
}

#[test]
fn chaos_soak_is_deterministic_per_seed() {
    let a = soak(SEED);
    let b = soak(SEED);
    assert_eq!(a, b, "same seed, same chaos, same transcript");
    let c = soak(SEED + 1);
    assert_ne!(
        a.0, c.0,
        "a different seed should shuffle drops somewhere in the transcript"
    );
}

#[test]
fn lossless_runs_match_with_retry_layer_on_and_off() {
    let run = |retry: bool| {
        let (mut w, svc, _machines, client, start, names, _standby, _zones) =
            chaos_zones(HOPS, LEAVES, SEED);
        let mut engine = ProtocolEngine::new(svc);
        if retry {
            engine.set_retry_policy(Some(soak_policy()));
        }
        let mut out = Vec::new();
        for n in &names {
            let s = engine.resolve(&mut w, client, start, n, Mode::Iterative);
            out.push((s.entity, s.messages, s.latency, s.servers_touched));
        }
        let batch = engine.resolve_batch(&mut w, client, start, &names);
        (
            out,
            batch.entities.clone(),
            batch.messages,
            batch.latency,
            engine.retry_counters(),
        )
    };
    let plain = run(false);
    let retried = run(true);
    assert_eq!(plain.0, retried.0, "scalar answers and costs must match");
    assert_eq!(plain.1, retried.1);
    assert_eq!(plain.2, retried.2);
    assert_eq!(plain.3, retried.3);
    assert_eq!(
        retried.4,
        RetryCounters::default(),
        "no loss, no retry activity"
    );
}

#[test]
fn primary_crash_fails_over_and_restart_heals() {
    let (mut w, svc, machines, client, start, names, _standby, zones) =
        chaos_zones(HOPS, LEAVES, SEED);
    let deepest_machine = *machines.last().unwrap();
    let deepest_zone = *zones.last().unwrap();
    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(Some(soak_policy()));

    // Outage: the deepest zone's primary goes down mid-life.
    let dead = engine.service().server_on(deepest_machine);
    w.kill(dead);
    for n in &names {
        let s = engine.resolve(&mut w, client, start, n, Mode::Iterative);
        assert!(
            s.entity.is_defined(),
            "{n} must be served by the standby replica"
        );
    }
    let outage_failovers = engine.retry_counters().failovers;
    assert!(outage_failovers >= 1, "the walk must have failed over");

    // The primary's zone changes *while it is down* (a new file appears);
    // the standby's copy diverges until restart republishes.
    let fresh = w.state_mut().add_data_object("fresh", vec![]);
    w.state_mut()
        .bind(deepest_zone, naming_core::name::Name::new("fresh"), fresh)
        .unwrap();
    assert!(!engine
        .service()
        .replica_divergence(&w, deepest_zone)
        .is_empty());

    // Restart: revive, republish, pump; divergence closes and the direct
    // route works without further failovers.
    let republished = engine.restart_server(&mut w, deepest_machine);
    assert!(republished >= 1);
    engine.pump_idle(&mut w);
    assert!(engine
        .service()
        .replica_divergence(&w, deepest_zone)
        .is_empty());
    for n in &names {
        let s = engine.resolve(&mut w, client, start, n, Mode::Iterative);
        assert!(s.entity.is_defined());
    }
    assert_eq!(
        engine.retry_counters().failovers,
        outage_failovers,
        "no failovers after the primary returned"
    );
}

#[test]
fn total_loss_is_reported_unreachable_never_bottom() {
    let (mut w, svc, _machines, client, start, names, _standby, _zones) =
        chaos_zones(HOPS, LEAVES, SEED);
    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(Some(RetryPolicy {
        max_attempts: 3,
        ..soak_policy()
    }));
    w.set_message_drop_rate(1.0);
    let s = engine.resolve(&mut w, client, start, &names[0], Mode::Iterative);
    assert_eq!(s.entity, Entity::Undefined);
    assert!(s.unreachable, "total loss is a transport verdict");
    let batch = engine.resolve_batch(&mut w, client, start, &names);
    assert!(batch.unreachable.iter().all(|&u| u));
    assert!(batch.entities.iter().all(|e| !e.is_defined()));
}
