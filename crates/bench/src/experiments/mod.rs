//! The experiment suite: one module per paper artifact (figure / claim).
//!
//! Every experiment exposes `run(seed) -> <structured result>` plus a
//! `table(..)`/`tables(..)` renderer; the `experiments` binary prints them
//! all, and the `experiment_shapes` integration test asserts that each
//! result has the *shape* the paper predicts.

pub mod e10_per_process;
pub mod e11_architecture;
pub mod e12_lang;
pub mod e13_survey;
pub mod e14_protocol;
pub mod e15_sampling;
pub mod e16_drift;
pub mod e17_replication;
pub mod e18_macro;
pub mod e19_exec;
pub mod e1_sources;
pub mod e20_observatory;
pub mod e2_rules;
pub mod e3_unix;
pub mod e4_newcastle;
pub mod e5_andrew;
pub mod e6_dce;
pub mod e7_federation;
pub mod e8_embedded;
pub mod e9_pqid;

use naming_core::report::Table;

/// Identifier and description of one experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentInfo {
    /// Short id, e.g. `e4`.
    pub id: &'static str,
    /// The paper artifact it reproduces.
    pub artifact: &'static str,
}

/// The experiment catalog, in paper order.
pub const CATALOG: &[ExperimentInfo] = &[
    ExperimentInfo { id: "e1", artifact: "Fig. 1 / §4 — three sources of names" },
    ExperimentInfo { id: "e2", artifact: "Fig. 2 / §4 — coherence vs resolution rules" },
    ExperimentInfo { id: "e3", artifact: "§5.1 — Unix root groups & parent/child decay" },
    ExperimentInfo { id: "e4", artifact: "Fig. 3 / §5.1 — Newcastle Connection" },
    ExperimentInfo { id: "e5", artifact: "Fig. 4 / §5.2 — Andrew shared naming graph" },
    ExperimentInfo { id: "e6", artifact: "§5.2 — OSF DCE cells" },
    ExperimentInfo { id: "e7", artifact: "Fig. 5 / §5.3+§7 — cross-linked federation" },
    ExperimentInfo { id: "e8", artifact: "Fig. 6 / §6 Ex. 2 — Algol-scope embedded names" },
    ExperimentInfo { id: "e9", artifact: "§6 Ex. 1 — partially qualified identifiers" },
    ExperimentInfo { id: "e10", artifact: "§6 II — per-process namespaces" },
    ExperimentInfo { id: "e11", artifact: "§7 — scoped shared name spaces" },
    ExperimentInfo { id: "e12", artifact: "§4 (extension) — coherence in programming languages" },
    ExperimentInfo { id: "e13", artifact: "§5 (capstone) — the survey as one measured table" },
    ExperimentInfo { id: "e14", artifact: "distributed resolution protocol (extension): referral modes, cache incoherence" },
    ExperimentInfo { id: "e15", artifact: "methodology — sampled-audit accuracy vs exhaustive ground truth" },
    ExperimentInfo { id: "e16", artifact: "coherence drift under administrative churn (extension)" },
    ExperimentInfo { id: "e17", artifact: "replicated name-service zones: locality vs the weak-coherence window (extension)" },
    ExperimentInfo { id: "e18", artifact: "macro workload: latency vs correctness across cache/replica/churn configurations (extension)" },
    ExperimentInfo { id: "e19", artifact: "remote execution four ways: §5 disciplines vs §6 II namespace shipping (capstone)" },
    ExperimentInfo { id: "e20", artifact: "chaos campaign under the coherence-SLO observatory (extension)" },
];

/// The catalog's ids, in its order: what `experiments --exp` accepts.
pub const IDS: [&str; CATALOG.len()] = {
    let mut ids = [""; CATALOG.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = CATALOG[i].id;
        i += 1;
    }
    ids
};

/// Runs one experiment by id and returns its rendered tables.
///
/// Returns `None` for an unknown id.
pub fn run_experiment(id: &str, seed: u64) -> Option<Vec<Table>> {
    let tables = match id {
        "e1" => vec![e1_sources::table(&e1_sources::run(seed))],
        "e2" => vec![e2_rules::table(&e2_rules::run(seed))],
        "e3" => e3_unix::tables(&e3_unix::run(seed)),
        "e4" => e4_newcastle::tables(&e4_newcastle::run(seed)),
        "e5" => vec![e5_andrew::table(&e5_andrew::run(seed))],
        "e6" => vec![e6_dce::table(&e6_dce::run(seed))],
        "e7" => vec![e7_federation::table(&e7_federation::run(seed))],
        "e8" => vec![e8_embedded::table(&e8_embedded::run(seed))],
        "e9" => e9_pqid::tables(&e9_pqid::run(seed)),
        "e10" => vec![e10_per_process::table(&e10_per_process::run(seed))],
        "e11" => e11_architecture::tables(&e11_architecture::run(seed)),
        "e12" => e12_lang::tables(&e12_lang::run(seed)),
        "e13" => vec![e13_survey::table(&e13_survey::run(seed))],
        "e14" => e14_protocol::tables(&e14_protocol::run(seed)),
        "e15" => vec![e15_sampling::table(&e15_sampling::run(seed))],
        "e16" => vec![e16_drift::table(&e16_drift::run(seed))],
        "e17" => e17_replication::tables(&e17_replication::run(seed)),
        "e18" => vec![e18_macro::table(&e18_macro::run(seed))],
        "e19" => vec![e19_exec::table(&e19_exec::run(seed))],
        "e20" => e20_observatory::tables(&e20_observatory::run(seed)),
        _ => return None,
    };
    Some(tables)
}

/// Runs the whole suite.
///
/// Every experiment runs on its own thread; each is seeded independently
/// and owns its state, and the tables are stitched back in catalog order,
/// so the output is byte-for-byte the catalog-order concatenation of
/// [`run_experiment`].
pub fn run_all(seed: u64) -> Vec<Table> {
    naming_core::sweep::map_chunks(CATALOG, CATALOG.len(), |infos| {
        infos
            .iter()
            .flat_map(|info| run_experiment(info.id, seed).expect("catalog ids are valid"))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_all_run() {
        for info in CATALOG {
            let tables = run_experiment(info.id, 1).unwrap_or_else(|| panic!("{}", info.id));
            assert!(!tables.is_empty(), "{} produced no tables", info.id);
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("e99", 1).is_none());
    }
}
