//! Property test: a sharded [`SystemState`] is observationally identical to
//! the unsharded (single-shard) state.
//!
//! The same random script of binds, unbinds, bind-to-⊥, escape-hatch context
//! replacement, and resolutions is applied to `SystemState::new()` and to
//! `SystemState::with_shards(k)` with objects spread round-robin across the
//! shards. Object ids differ between the two layouts (sharded ids carry the
//! shard in their high bits), so results are compared through a creation-order
//! mapping. The two sides must produce the same answers, the same ⊥ verdicts,
//! and — because the memo's shard tier only short-circuits validations that
//! the exact per-context check would also have passed — bit-identical
//! [`MemoStats`]. Run under `debug_assertions`, as `cargo test` builds it,
//! every context mutation of a script also crosses the two-tier
//! representation's internal invariant checks.

use naming_core::prelude::*;
use proptest::prelude::*;

const N_CTX: usize = 6;
const N_DATA: usize = 3;
const N_ACT: usize = 2;
const NAMES: [&str; 8] = ["/", ".", "..", "x", "y", "z", "w", "v"];

/// One side of the comparison: a state plus its objects in creation order.
struct Side {
    sys: SystemState,
    /// Contexts first, then data objects — index `i` on both sides names
    /// "the same" object.
    objs: Vec<ObjectId>,
    acts: Vec<ActivityId>,
    memo: ResolutionMemo,
}

fn flat_side() -> Side {
    let mut sys = SystemState::new();
    let mut objs: Vec<ObjectId> = (0..N_CTX)
        .map(|i| sys.add_context_object(format!("c{i}")))
        .collect();
    objs.extend((0..N_DATA).map(|i| sys.add_data_object(format!("d{i}"), vec![])));
    let acts = (0..N_ACT)
        .map(|i| sys.add_activity(format!("a{i}")))
        .collect();
    Side {
        sys,
        objs,
        acts,
        memo: ResolutionMemo::new(),
    }
}

fn sharded_side(shards: usize) -> Side {
    let mut sys = SystemState::with_shards(shards);
    let mut objs: Vec<ObjectId> = (0..N_CTX)
        .map(|i| sys.add_context_object_in(i % shards, format!("c{i}")))
        .collect();
    objs.extend(
        (0..N_DATA).map(|i| sys.add_data_object_in((i + 1) % shards, format!("d{i}"), vec![])),
    );
    let acts = (0..N_ACT)
        .map(|i| sys.add_activity(format!("a{i}")))
        .collect();
    Side {
        sys,
        objs,
        acts,
        memo: ResolutionMemo::new(),
    }
}

/// Picks the same logical entity on a side: contexts, data, activities, ⊥.
fn entity(side: &Side, pick: u8) -> Entity {
    let pool = N_CTX + N_DATA + N_ACT + 1;
    match (pick as usize) % pool {
        i if i < N_CTX + N_DATA => Entity::Object(side.objs[i]),
        i if i < N_CTX + N_DATA + N_ACT => Entity::Activity(side.acts[i - N_CTX - N_DATA]),
        _ => Entity::Undefined,
    }
}

/// Maps a resolution result from the sharded side into the flat side's id
/// space so the two can be compared directly.
fn to_flat(flat: &Side, sharded: &Side, e: Entity) -> Entity {
    match e {
        Entity::Object(o) => {
            let i = sharded
                .objs
                .iter()
                .position(|&x| x == o)
                .expect("resolved object was created by the script");
            Entity::Object(flat.objs[i])
        }
        other => other,
    }
}

fn compound(b: u8, c: u8) -> CompoundName {
    let len = 1 + (b as usize) % 3;
    let comps: Vec<Name> = (0..len)
        .map(|k| Name::new(NAMES[(c as usize + k * 3) % NAMES.len()]))
        .collect();
    CompoundName::new(comps).expect("nonempty")
}

proptest! {
    #[test]
    fn sharded_state_matches_flat_state(
        shards in 2usize..9,
        ops in proptest::collection::vec((0u8..6, 0u8..32, 0u8..32, 0u8..32), 1..120),
    ) {
        let mut flat = flat_side();
        let mut sharded = sharded_side(shards);
        let resolver = Resolver::new();
        for (op, a, b, c) in ops {
            let i = (a as usize) % N_CTX;
            match op {
                0 | 1 => {
                    let name = Name::new(NAMES[(b as usize) % NAMES.len()]);
                    let tf = entity(&flat, c);
                    let ts = entity(&sharded, c);
                    flat.sys.bind(flat.objs[i], name, tf).expect("context");
                    sharded.sys.bind(sharded.objs[i], name, ts).expect("context");
                }
                2 => {
                    let name = Name::new(NAMES[(b as usize) % NAMES.len()]);
                    if b % 2 == 0 {
                        flat.sys.unbind(flat.objs[i], name).expect("context");
                        sharded.sys.unbind(sharded.objs[i], name).expect("context");
                    } else {
                        flat.sys.bind(flat.objs[i], name, Entity::Undefined).expect("context");
                        sharded.sys.bind(sharded.objs[i], name, Entity::Undefined).expect("context");
                    }
                }
                3 => {
                    // Escape hatch: replace the whole context on both sides.
                    *flat.sys.context_mut(flat.objs[i]).expect("context") = Context::new();
                    *sharded.sys.context_mut(sharded.objs[i]).expect("context") = Context::new();
                }
                _ => {
                    let name = compound(b, c);
                    for start in 0..N_CTX {
                        let f = resolver.resolve_entity(&flat.sys, flat.objs[start], &name);
                        let s =
                            resolver.resolve_entity(&sharded.sys, sharded.objs[start], &name);
                        prop_assert_eq!(f, to_flat(&flat, &sharded, s), "naive diverged");
                        let fm = resolver.resolve_entity_memo(
                            &flat.sys, flat.objs[start], &name, &mut flat.memo,
                        );
                        let sm = resolver.resolve_entity_memo(
                            &sharded.sys, sharded.objs[start], &name, &mut sharded.memo,
                        );
                        prop_assert_eq!(f, fm, "flat memo diverged from naive");
                        prop_assert_eq!(
                            fm, to_flat(&flat, &sharded, sm), "memoized diverged"
                        );
                    }
                    // The shard tier may answer validations the flat state
                    // settles with an exact dep walk, but it never changes
                    // which probes hit, miss, or invalidate.
                    prop_assert_eq!(
                        flat.memo.stats(), sharded.memo.stats(),
                        "memo accounting diverged"
                    );
                }
            }
        }
        // Post-run sweep: after the full mutation history every start × a
        // spread of names still agrees, and so does the accounting.
        for start in 0..N_CTX {
            for b in 0..3u8 {
                for c in 0..4u8 {
                    let name = compound(b, c);
                    let f = resolver.resolve_entity_memo(
                        &flat.sys, flat.objs[start], &name, &mut flat.memo,
                    );
                    let s = resolver.resolve_entity_memo(
                        &sharded.sys, sharded.objs[start], &name, &mut sharded.memo,
                    );
                    prop_assert_eq!(f, to_flat(&flat, &sharded, s), "sweep diverged");
                }
            }
        }
        prop_assert_eq!(flat.memo.stats(), sharded.memo.stats());
    }
}
