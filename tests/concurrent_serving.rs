//! Serial ≡ concurrent: the multi-worker snapshot server must answer
//! every batch exactly as the serial resolver does, across publishes and
//! under churn between rounds. (One batch at 1, 4 and 8 workers against
//! the serial resolver is class (b) of `config_matrix.rs`.)

use naming_core::prelude::*;
use naming_resolver::concurrent::{ConcurrentService, WorkerReport};
use naming_resolver::wire::{BatchRequest, NameTrie};

/// A two-level tree with some depth and deliberate dead ends.
fn build() -> (SystemState, ObjectId) {
    let mut s = SystemState::new();
    let root = s.add_context_object("root");
    s.bind(root, Name::root(), root).unwrap();
    for d in 0..6 {
        let dir = s.add_context_object(format!("dir{d}"));
        s.bind(root, Name::new(&format!("dir{d}")), dir).unwrap();
        for f in 0..6 {
            let file = s.add_data_object(format!("dir{d}/file{f}"), vec![]);
            s.bind(dir, Name::new(&format!("file{f}")), file).unwrap();
        }
        // Every directory can climb back up: cycles must not confuse
        // either engine.
        s.bind(dir, Name::parent(), root).unwrap();
    }
    (s, root)
}

/// A deterministic mix of live, dead, dotted, and cyclic paths.
fn paths(round: u64) -> Vec<CompoundName> {
    let mut out = Vec::new();
    for i in 0..64u64 {
        let x = (i * 7 + round * 13) % 6;
        let y = (i * 11 + round * 3) % 6;
        let p = match i % 5 {
            0 => format!("/dir{x}/file{y}"),
            1 => format!("/dir{x}/../dir{y}/file{x}"),
            2 => format!("/dir{x}/missing"),
            3 => format!("/dir{x}/file{y}/not-a-context"),
            _ => format!("/dir{x}"),
        };
        out.push(CompoundName::parse_path(&p).unwrap());
    }
    out
}

fn serial_key(state: &SystemState, start: ObjectId, req: &BatchRequest) -> Vec<Entity> {
    let r = Resolver::new();
    req.trie
        .names()
        .iter()
        .map(|n| r.resolve_entity(state, start, n))
        .collect()
}

#[test]
fn many_batches_drain_in_submission_order_with_serial_answers() {
    let (s, root) = build();
    let reqs: Vec<BatchRequest> = (0..24u64)
        .map(|round| {
            let (trie, _) = NameTrie::build(&paths(round));
            BatchRequest {
                id: round,
                start: root,
                trie,
            }
        })
        .collect();
    let keys: Vec<Vec<Entity>> = reqs.iter().map(|r| serial_key(&s, root, r)).collect();

    let mut svc = ConcurrentService::new(s, 4);
    for req in &reqs {
        svc.submit(req.clone());
    }
    let answers = svc.drain();
    svc.shutdown();
    assert_eq!(answers.len(), reqs.len());
    for (i, (a, key)) in answers.iter().zip(&keys).enumerate() {
        assert_eq!(a.id, i as u64, "drain must preserve submission order");
        assert_eq!(&a.entities, key, "batch {i} diverges from serial");
    }
}

#[test]
fn churn_between_publishes_stays_serially_equivalent() {
    let (s, root) = build();
    let mut oracle = s.clone();
    let mut svc = ConcurrentService::new(s, 4);

    for round in 0..8u64 {
        // Same churn on both sides: rebind one file, drop another.
        let mutate = |sys: &mut SystemState| {
            let d = Name::new(&format!("dir{}", round % 6));
            let dir = match sys.lookup(root, d) {
                Entity::Object(o) => o,
                other => panic!("dir is {other:?}"),
            };
            let fresh = sys.add_data_object(format!("fresh-{round}"), vec![]);
            sys.bind(dir, Name::new("file0"), fresh).unwrap();
            let _ = sys.unbind(dir, Name::new("file1"));
        };
        mutate(&mut oracle);
        svc.update(mutate);
        svc.publish();

        let (trie, _) = NameTrie::build(&paths(round));
        let req = BatchRequest {
            id: round,
            start: root,
            trie,
        };
        let key = serial_key(&oracle, root, &req);
        svc.submit(req);
        let answers = svc.drain();
        assert_eq!(answers[0].entities, key, "round {round} diverges");
    }
    let report = svc.shutdown();
    assert_eq!(report.publishes, 9, "initial publish plus one per round");
    assert_eq!(report.batches(), 8);
}

#[test]
fn unpublished_staging_never_leaks_into_answers() {
    let (s, root) = build();
    let mut svc = ConcurrentService::new(s.clone(), 2);
    svc.update(|sys| {
        let dir = match sys.lookup(root, Name::new("dir0")) {
            Entity::Object(o) => o,
            other => panic!("dir is {other:?}"),
        };
        let f = sys.add_data_object("sneaky", vec![]);
        sys.bind(dir, Name::new("sneaky"), f).unwrap();
    });
    let names = vec![CompoundName::parse_path("/dir0/sneaky").unwrap()];
    let (trie, _) = NameTrie::build(&names);
    svc.submit(BatchRequest {
        id: 0,
        start: root,
        trie,
    });
    let answers = svc.drain();
    svc.shutdown();
    // The published snapshot predates the staged bind: the serial answer
    // over the original state is what clients must see.
    assert_eq!(
        answers[0].entities,
        vec![Resolver::new().resolve_entity(
            &s,
            root,
            &CompoundName::parse_path("/dir0/sneaky").unwrap()
        )]
    );
    assert_eq!(answers[0].entities, vec![Entity::Undefined]);
}

#[test]
fn in_flight_batches_answer_from_their_own_snapshot_across_a_publish() {
    let (s, root) = build();
    let mut svc = ConcurrentService::new(s, 2);
    let names: Vec<CompoundName> = (0..4)
        .map(|k| CompoundName::parse_path(&format!("/dir0/v{k}")).unwrap())
        .collect();
    // Nothing is drained until every publish has happened: batch `r` was
    // paired with the snapshot holding exactly the first `r` new files.
    for round in 0..4u64 {
        let (trie, _) = NameTrie::build(&names);
        svc.submit(BatchRequest {
            id: round,
            start: root,
            trie,
        });
        svc.update(|sys| {
            let dir = sys.lookup(root, Name::new("dir0")).as_object().unwrap();
            let v = sys.add_data_object("v", vec![]);
            sys.bind(dir, Name::new(&format!("v{round}")), v).unwrap();
        });
        svc.publish();
    }
    for (round, answer) in svc.drain().iter().enumerate() {
        let bound: Vec<bool> = answer.entities.iter().map(|e| e.is_defined()).collect();
        assert_eq!(bound, (0..4).map(|k| k < round).collect::<Vec<_>>());
    }
    // The walk's work is a function of the frames alone: per batch "/" and
    // "dir0" once plus four leaves, where four lone names cost 12 — and a
    // worker keeps no memo for a publish to reset.
    let report = svc.shutdown();
    let total = |f: fn(&WorkerReport) -> u64| report.workers.iter().map(f).sum::<u64>();
    assert_eq!((total(|w| w.lookups), total(|w| w.lookups_saved)), (24, 24));
    assert_eq!(
        total(|w| w.memo.hits + w.memo.misses + w.memo.invalidations),
        0
    );
}
