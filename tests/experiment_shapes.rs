//! The reproduction's regression net: every experiment's *shape* — who
//! wins, what is 100% vs 0%, which direction curves move — must match the
//! paper's qualitative predictions, across multiple seeds.

use naming_bench::experiments::*;

const SEEDS: [u64; 3] = [19930601, 1, 0xdead_beef];

#[test]
fn e1_internal_is_perfect_and_others_are_not() {
    for seed in SEEDS {
        let r = e1_sources::run(seed);
        assert!((r.internal.rate() - 1.0).abs() < 1e-9, "seed {seed}");
        assert!(r.message.rate() < 1.0, "seed {seed}");
        assert!(r.object.rate() < 1.0, "seed {seed}");
    }
}

#[test]
fn e2_rule_matrix() {
    for seed in SEEDS {
        let r = e2_rules::run(seed);
        for (src, rule) in [("message", "R(sender)"), ("object", "R(object)")] {
            assert_eq!(r.cell(src, rule, "global").unwrap().rate(), 1.0);
            assert_eq!(r.cell(src, rule, "non-global").unwrap().rate(), 1.0);
        }
        for (src, rule) in [("message", "R(receiver)"), ("object", "R(activity)")] {
            assert_eq!(r.cell(src, rule, "global").unwrap().rate(), 1.0);
            assert_eq!(r.cell(src, rule, "non-global").unwrap().rate(), 0.0);
        }
    }
}

#[test]
fn e3_partition_and_decay() {
    for seed in SEEDS {
        let r = e3_unix::run(seed);
        assert!((r.root_groups.within_rate - 1.0).abs() < 1e-9);
        assert!(r.root_groups.across_rate < r.root_groups.within_rate);
        let zero = r.decay.iter().find(|p| p.mutations == 0).unwrap();
        assert_eq!(zero.full_coherence, 1.0);
        for p in &r.decay {
            assert!(p.root_coherence >= p.full_coherence);
        }
        assert!(r.decay.last().unwrap().full_coherence < 0.5);
    }
}

#[test]
fn e4_newcastle_tradeoffs() {
    for seed in SEEDS {
        let r = e4_newcastle::run(seed);
        assert_eq!(r.slash_within_machine, 1.0);
        assert_eq!(r.slash_across_machines, 0.0);
        assert_eq!(r.mapped_across_machines, 1.0);
        assert!(r.invoker_param_coherent && !r.invoker_local_access);
        assert!(!r.local_param_coherent && r.local_local_access);
    }
}

#[test]
fn e5_andrew_split() {
    for seed in SEEDS {
        let r = e5_andrew::run(seed);
        assert_eq!(r.shared_rate, 1.0);
        assert_eq!(r.local_rate, 0.0);
        assert_eq!(r.replicated_weak_rate, 1.0);
        assert_eq!(r.replicated_strict_rate, 0.0);
        assert!(r.args_passable > 0.0 && r.args_passable < 1.0);
    }
}

#[test]
fn e6_dce_cells() {
    for seed in SEEDS {
        let r = e6_dce::run(seed);
        assert_eq!(r.global_org_wide, 1.0);
        assert_eq!(r.cell_within, 1.0);
        assert_eq!(r.cell_across, 0.0);
        assert_eq!(r.globalized_across, 1.0);
    }
}

#[test]
fn e7_mapping_burden_monotone_in_cross_rate() {
    for seed in SEEDS {
        let r = e7_federation::run(seed);
        assert_eq!(r.points.first().unwrap().burden.needs_mapping, 0);
        let first = r.points.first().unwrap().burden.needs_mapping;
        let last = r.points.last().unwrap().burden.needs_mapping;
        assert!(last > first + r.refs_per_point / 4);
        assert!(r.points.iter().all(|p| p.burden.unreachable == 0));
    }
}

#[test]
fn e8_invariance_matrix() {
    let r = e8_embedded::run(0);
    assert_eq!(r.outcomes.len(), 4);
    for o in &r.outcomes {
        assert!(o.r_file_preserved, "{} under R(file)", o.operation);
        assert!(!o.r_activity_preserved, "{} under R(activity)", o.operation);
    }
}

#[test]
fn e9_pqids_dominate_fully_qualified() {
    for seed in SEEDS {
        let r = e9_pqid::run(seed);
        assert_eq!(r.steps[0].minimal.rate(), 1.0);
        assert_eq!(r.steps[0].full.rate(), 1.0);
        for step in &r.steps[1..] {
            assert!(step.minimal.rate() >= step.full.rate());
        }
        assert!(r.steps.last().unwrap().full.rate() < 1e-9);
        assert!(r.steps.last().unwrap().minimal.rate() > 0.0);
        assert_eq!(r.mapped_rate, 1.0);
        assert!(r.raw_rate < 1e-9);
    }
}

#[test]
fn e10_per_process_gets_both() {
    for seed in SEEDS {
        let r = e10_per_process::run(seed);
        assert_eq!(r.param_coherence, 1.0);
        assert!(r.local_access);
        assert!(!r.parent_perturbed);
    }
}

#[test]
fn e11_scopes_nest() {
    for seed in SEEDS {
        let r = e11_architecture::run(seed);
        for row in &r.rows {
            // Coherence is monotone in scope tightness.
            assert!(row.same_group >= row.same_org);
            assert!(row.same_org >= row.cross_org);
            assert_eq!(row.same_group, 1.0);
        }
        assert!(r.prefixed_access);
        assert!(r.embedded_restored);
    }
}

#[test]
fn whole_suite_runs_and_renders() {
    let tables = run_all(SEEDS[0]);
    // 11 experiments, some with two tables.
    assert!(tables.len() >= 14, "got {}", tables.len());
    for t in &tables {
        let rendered = t.to_string();
        assert!(rendered.contains('|'), "table {} renders", t.title());
        assert!(t.row_count() > 0);
    }
}

#[test]
fn experiments_are_seed_deterministic() {
    // The threaded suite against the same seed run one experiment at a
    // time, in catalog order: scheduling must not move a table or a byte.
    let threaded = run_all(7);
    let serial: Vec<_> = CATALOG
        .iter()
        .flat_map(|info| run_experiment(info.id, 7).expect("catalog ids are valid"))
        .collect();
    assert_eq!(threaded.len(), serial.len());
    for (x, y) in threaded.iter().zip(&serial) {
        assert_eq!(x, y);
    }
}
