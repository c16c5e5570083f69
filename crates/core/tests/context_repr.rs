//! Property test: the two-tier [`Context`] representation is observationally
//! identical to a reference map, across the spill threshold in both
//! directions.
//!
//! A random script of binds (including rebinds and bind-to-⊥), unbinds and
//! forced spills is applied to three subjects at once:
//!
//! * a [`Context`] driven normally — it spills past [`INLINE_CAP`] bindings
//!   and despills when removals shrink it to [`DESPILL_AT`];
//! * a *twin* [`Context`] re-forced into the spilled (hash-indexed) tier
//!   after every operation — so the same script runs inline on one side and
//!   hash-indexed on the other;
//! * a `BTreeMap<Name, Entity>` model of the function's support.
//!
//! After every operation all three must agree on every probe: `lookup`,
//! `get`, `contains`, `len`, lexicographic iteration order, and `PartialEq`
//! between the two contexts (equality must not see the representation).
//! Run under `debug_assertions`, as `cargo test` builds it, every mutation
//! also crosses the context's internal invariant checks (sorted inline
//! array, order/index agreement in the spilled tier), in both transition
//! directions.

use std::collections::BTreeMap;

use naming_core::context::{Context, DESPILL_AT, INLINE_CAP};
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::Name;
use proptest::prelude::*;

/// Name pool larger than INLINE_CAP so scripts actually cross the spill
/// threshold; small enough that rebinds and unbinds are frequent.
const POOL: usize = INLINE_CAP + 5;

fn pool_name(i: usize) -> Name {
    Name::new(&format!("ctx-repr-{i:02}"))
}

/// Decoded script step: `kind` 0..=5 binds (weight 6), 6..=8 unbinds
/// (weight 3), 9 forces a spill (weight 1).
#[derive(Clone, Copy, Debug)]
enum Op {
    Bind(usize, usize),
    Unbind(usize),
    ForceSpill,
}

fn decode(kind: usize, name: usize, ent: usize) -> Op {
    match kind {
        0..=5 => Op::Bind(name, ent),
        6..=8 => Op::Unbind(name),
        _ => Op::ForceSpill,
    }
}

fn entity(e: usize) -> Entity {
    match e {
        0 => Entity::Undefined, // bind-⊥ is an unbind; the model mirrors that
        1..=6 => Entity::Object(ObjectId::from_index(e as u32)),
        _ => Entity::Activity(ActivityId::from_index(e as u32)),
    }
}

fn assert_agree(ctx: &Context, twin: &Context, model: &BTreeMap<Name, Entity>) {
    assert_eq!(ctx.len(), model.len());
    assert_eq!(twin.len(), model.len());
    assert_eq!(ctx.is_empty(), model.is_empty());
    for i in 0..POOL {
        let n = pool_name(i);
        let want = model.get(&n).copied();
        assert_eq!(ctx.get(n), want, "get({n}) on main");
        assert_eq!(twin.get(n), want, "get({n}) on twin");
        assert_eq!(ctx.lookup(n), want.unwrap_or(Entity::Undefined));
        assert_eq!(twin.lookup(n), want.unwrap_or(Entity::Undefined));
        assert_eq!(ctx.contains(n), want.is_some());
        assert_eq!(twin.contains(n), want.is_some());
    }
    // Iteration: lexicographic name order, matching the model exactly
    // (BTreeMap<Name, _> iterates in Name's lexicographic Ord).
    let listed: Vec<(Name, Entity)> = ctx.iter().collect();
    let want: Vec<(Name, Entity)> = model.iter().map(|(&n, &e)| (n, e)).collect();
    assert_eq!(listed, want, "main iteration");
    assert_eq!(twin.iter().collect::<Vec<_>>(), want, "twin iteration");
    let names: Vec<Name> = ctx.names().collect();
    assert!(names.windows(2).all(|w| w[0] < w[1]), "strictly sorted");
    // Equality is representation-independent.
    assert_eq!(ctx, twin);
    assert!(ctx.same_function(twin));
    assert!(ctx.disagreements(twin).is_empty());
}

proptest! {
    #[test]
    fn two_tier_context_matches_reference_map(
        raw in prop::collection::vec((0usize..10, 0..POOL, 0..10usize), 1..120),
    ) {
        let mut ctx = Context::new();
        let mut twin = Context::new();
        let mut model: BTreeMap<Name, Entity> = BTreeMap::new();
        let mut forced = false;
        let mut bind_steps = 0usize;

        for &(kind, name, ent) in &raw {
            match decode(kind, name, ent) {
                Op::Bind(n, e) => {
                    bind_steps += 1;
                    let name = pool_name(n);
                    let ent = entity(e);
                    let prev_main = ctx.bind(name, ent);
                    let prev_twin = twin.bind(name, ent);
                    let prev_model = if ent == Entity::Undefined {
                        model.remove(&name)
                    } else {
                        model.insert(name, ent)
                    };
                    prop_assert_eq!(prev_main, prev_model, "bind return on main");
                    prop_assert_eq!(prev_twin, prev_model, "bind return on twin");
                }
                Op::Unbind(n) => {
                    let name = pool_name(n);
                    let prev_main = ctx.unbind(name);
                    let prev_twin = twin.unbind(name);
                    let prev_model = model.remove(&name);
                    prop_assert_eq!(prev_main, prev_model, "unbind return on main");
                    prop_assert_eq!(prev_twin, prev_model, "unbind return on twin");
                }
                Op::ForceSpill => {
                    ctx.force_spill();
                    forced = true;
                }
            }
            // The twin exercises the spilled tier for the whole script
            // (re-forced after any despill); the main context transitions
            // naturally in both directions.
            twin.force_spill();
            assert_agree(&ctx, &twin, &model);
        }

        // Tier invariants at the end of the script: more bindings than the
        // inline capacity must be spilled; a context that never grew past
        // the capacity (and was never forced) never spilled at all.
        if ctx.len() > INLINE_CAP {
            prop_assert!(ctx.is_spilled());
        }
        if !forced && bind_steps <= INLINE_CAP {
            prop_assert!(!ctx.is_spilled());
        }
    }

    #[test]
    fn spill_boundary_round_trip(extra in 1usize..6, remove in 0usize..12) {
        // Deterministic threshold crossing in both directions: grow to
        // INLINE_CAP + extra (must spill), then remove names one by one,
        // checking agreement with the model the whole way.
        let mut ctx = Context::new();
        let mut model: BTreeMap<Name, Entity> = BTreeMap::new();
        let total = INLINE_CAP + extra;
        for i in 0..total {
            let n = pool_name(i % POOL);
            let e = Entity::Object(ObjectId::from_index(i as u32));
            ctx.bind(n, e);
            model.insert(n, e);
            prop_assert_eq!(ctx.is_spilled(), model.len() > INLINE_CAP);
        }
        for i in 0..remove.min(total) {
            let n = pool_name(i % POOL);
            ctx.unbind(n);
            model.remove(&n);
            if model.len() <= DESPILL_AT {
                prop_assert!(!ctx.is_spilled(), "despill at {} bindings", model.len());
            }
            let listed: Vec<(Name, Entity)> = ctx.iter().collect();
            let want: Vec<(Name, Entity)> = model.iter().map(|(&n, &e)| (n, e)).collect();
            prop_assert_eq!(listed, want);
        }
    }
}
