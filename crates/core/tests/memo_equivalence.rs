//! Property test: the generation-versioned memoized resolver is
//! observationally identical to the naive resolver.
//!
//! A single [`ResolutionMemo`] lives across a random interleaving of binds,
//! unbinds, bind-to-⊥, whole-context replacement through the escape hatch,
//! and resolutions. After every mutation the memo silently holds entries the
//! write may have invalidated; every resolution must nevertheless agree with
//! a from-scratch naive walk — under direct resolution and under every
//! closure rule (`R(activity)`, `R(sender)`, `R(object)`, and a per-source
//! mix) for every name source.
//!
//! The same memo also serves frozen snapshots captured along the way, in
//! any order: an older snapshot than the newest, as an in-flight batch of
//! the worker pool holds, must get exactly its own state's answer.

use naming_core::closure::PerSourceRule;
use naming_core::prelude::*;
use proptest::prelude::*;

const N_CTX: usize = 5;
const N_DATA: usize = 3;
const N_ACT: usize = 3;
const NAMES: [&str; 8] = ["/", ".", "..", "x", "y", "z", "w", "v"];

struct Fixture {
    sys: SystemState,
    reg: ContextRegistry,
    ctxs: Vec<ObjectId>,
    data: Vec<ObjectId>,
    acts: Vec<ActivityId>,
}

fn fixture() -> Fixture {
    let mut sys = SystemState::new();
    let ctxs: Vec<ObjectId> = (0..N_CTX)
        .map(|i| sys.add_context_object(format!("c{i}")))
        .collect();
    let data: Vec<ObjectId> = (0..N_DATA)
        .map(|i| sys.add_data_object(format!("d{i}"), vec![]))
        .collect();
    let acts: Vec<ActivityId> = (0..N_ACT)
        .map(|i| sys.add_activity(format!("a{i}")))
        .collect();
    let mut reg = ContextRegistry::new();
    for (i, &a) in acts.iter().enumerate() {
        reg.set_activity_context(a, ctxs[i % N_CTX]);
    }
    // Objects with embedded names resolve in the context of another object.
    for (i, &d) in data.iter().enumerate() {
        reg.set_object_context(d, ctxs[(i + 1) % N_CTX]);
    }
    Fixture {
        sys,
        reg,
        ctxs,
        data,
        acts,
    }
}

/// Every entity a binding may point at: contexts, data objects, activities.
fn entity(f: &Fixture, pick: u8) -> Entity {
    let pool = N_CTX + N_DATA + N_ACT;
    match (pick as usize) % pool {
        i if i < N_CTX => Entity::Object(f.ctxs[i]),
        i if i < N_CTX + N_DATA => Entity::Object(f.data[i - N_CTX]),
        i => Entity::Activity(f.acts[i - N_CTX - N_DATA]),
    }
}

fn compound(b: u8, c: u8) -> CompoundName {
    let len = 1 + (b as usize) % 3;
    let comps: Vec<Name> = (0..len)
        .map(|k| Name::new(NAMES[(c as usize + k * 3) % NAMES.len()]))
        .collect();
    CompoundName::new(comps).expect("nonempty")
}

/// All the resolution circumstances the closure layer distinguishes.
fn metas(f: &Fixture) -> Vec<MetaContext> {
    vec![
        MetaContext::internal(f.acts[0]),
        MetaContext::from_message(f.acts[0], f.acts[1]),
        MetaContext::from_object(f.acts[1], f.data[0]),
        MetaContext::from_object(f.acts[2], f.ctxs[0]),
    ]
}

fn rules() -> Vec<Box<dyn ResolutionRule + Sync>> {
    vec![
        Box::new(StandardRule::OfResolver),
        Box::new(StandardRule::OfSender),
        Box::new(StandardRule::OfSourceObject),
        Box::new(PerSourceRule {
            internal: StandardRule::OfResolver,
            message: StandardRule::OfSender,
            object: StandardRule::OfSourceObject,
        }),
    ]
}

proptest! {
    #[test]
    fn memoized_resolution_matches_naive(
        ops in proptest::collection::vec((0u8..8, 0u8..32, 0u8..32, 0u8..32), 1..100),
    ) {
        let mut f = fixture();
        let resolver = Resolver::new();
        let mut memo = ResolutionMemo::new();
        let rules = rules();
        let mut snaps: Vec<StateSnapshot> = Vec::new();
        for (op, a, b, c) in ops {
            let ctx = f.ctxs[(a as usize) % N_CTX];
            match op {
                0 | 1 => {
                    let name = Name::new(NAMES[(b as usize) % NAMES.len()]);
                    let target = entity(&f, c);
                    f.sys.bind(ctx, name, target).expect("ctx is a context");
                }
                2 => {
                    let name = Name::new(NAMES[(b as usize) % NAMES.len()]);
                    if b % 2 == 0 {
                        f.sys.unbind(ctx, name).expect("ctx is a context");
                    } else {
                        // bind-⊥ is the other spelling of unbind.
                        f.sys.bind(ctx, name, Entity::Undefined).expect("ctx");
                    }
                }
                3 => {
                    // Escape hatch: replace the whole context. This rewinds
                    // the context's own version counter — only the state
                    // epoch protects the memo here.
                    *f.sys.context_mut(ctx).expect("ctx is a context") = Context::new();
                }
                6 => snaps.push(StateSnapshot::capture(&f.sys)),
                7 if !snaps.is_empty() => {
                    // Any captured snapshot, not only the newest.
                    let snap = &snaps[(b as usize) % snaps.len()];
                    let name = compound(c, a);
                    let naive = resolver.resolve_entity(snap.state(), ctx, &name);
                    let memoized =
                        resolver.resolve_entity_memo(snap.state(), ctx, &name, &mut memo);
                    prop_assert_eq!(naive, memoized, "snapshot resolution diverged");
                }
                7 => {}
                _ => {
                    let name = compound(b, c);
                    let naive = resolver.resolve_entity(&f.sys, ctx, &name);
                    let memoized =
                        resolver.resolve_entity_memo(&f.sys, ctx, &name, &mut memo);
                    prop_assert_eq!(naive, memoized, "direct resolution diverged");
                    for rule in &rules {
                        for m in metas(&f) {
                            let naive =
                                resolve_with_rule(&f.sys, &f.reg, rule.as_ref(), &m, &name);
                            let memoized = resolve_with_rule_memo(
                                &f.sys, &f.reg, rule.as_ref(), &m, &name, &mut memo,
                            );
                            prop_assert_eq!(
                                naive, memoized,
                                "rule resolution diverged"
                            );
                        }
                    }
                }
            }
        }
        // Final exhaustive sweep: every start × a spread of names, after the
        // full mutation history, still agrees.
        for &start in &f.ctxs {
            for b in 0..4u8 {
                for c in 0..4u8 {
                    let name = compound(b, c);
                    prop_assert_eq!(
                        resolver.resolve_entity(&f.sys, start, &name),
                        resolver.resolve_entity_memo(&f.sys, start, &name, &mut memo),
                        "post-run sweep diverged"
                    );
                }
            }
        }
    }
}
