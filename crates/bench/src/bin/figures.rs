//! Emits Graphviz DOT renderings of the naming graphs behind the paper's
//! figures, built from the actual scheme implementations.
//!
//! ```text
//! figures [out-dir]      # default: ./figures
//! ```
//!
//! `--help` prints that usage; any other argument starting with `-`, or a
//! second argument, exits 2.
//!
//! Figures 1 and 2 are conceptual diagrams (sources of names / rule
//! selection) with no naming graph; Figures 3–6 are regenerated from live
//! worlds:
//!
//! * `fig3-newcastle.dot` — three machines under a superroot;
//! * `fig4-shared-graph.dot` — Andrew clients around the `/vice` tree;
//! * `fig5-cross-links.dot` — two autonomous systems with cross-links;
//! * `fig6-embedded.dot` — the Algol-scope subtree with the embedded name.

use naming_bench::cli;
use naming_core::graph::NamingGraph;
use naming_core::name::{CompoundName, Name};
use naming_core::state::{Document, SystemState};
use naming_sim::store;
use naming_sim::world::World;

fn fig3() -> String {
    let mut w = World::new(3);
    let (mut scheme, machines) = naming_schemes::newcastle::figure3(&mut w);
    for &m in &machines {
        let label = format!("p-{}", w.topology().machine_name(m));
        scheme.spawn(&mut w, m, &label, None);
    }
    NamingGraph::of(w.state()).to_dot()
}

fn fig4() -> String {
    let mut w = World::new(4);
    let (_scheme, _clients, _pids) = naming_schemes::shared_graph::canonical(&mut w, 3);
    NamingGraph::of(w.state()).to_dot()
}

fn fig5() -> String {
    let mut w = World::new(5);
    let (_fed, _org1, _org2) = naming_schemes::federation::two_orgs(&mut w);
    NamingGraph::of(w.state()).to_dot()
}

fn fig6() -> String {
    let mut s = SystemState::new();
    let root = s.add_context_object("root");
    s.bind(root, Name::root(), root).unwrap();
    let proj = store::ensure_dir(&mut s, root, "proj");
    let lib = store::ensure_dir(&mut s, proj, "a");
    store::create_file(&mut s, lib, "p", vec![]);
    let docs = store::ensure_dir(&mut s, proj, "docs");
    let mut d = Document::new();
    d.push_embedded(CompoundName::parse_path("a/p").unwrap());
    store::create_document(&mut s, docs, "n (embeds a/p)", d);
    NamingGraph::of(&s).to_dot()
}

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let out = match args.next() {
        Some(arg) if arg == "--help" || arg == "-h" => {
            println!("usage: figures [OUT-DIR]   (default: figures)");
            return Ok(());
        }
        Some(arg) if arg.starts_with('-') => {
            cli::fail(&format!("unknown flag {arg:?}; try --help"))
        }
        out => out.unwrap_or_else(|| "figures".into()),
    };
    if let Some(extra) = args.next() {
        cli::fail(&format!("unexpected argument {extra:?}; try --help"));
    }
    std::fs::create_dir_all(&out)?;
    for (name, dot) in [
        ("fig3-newcastle.dot", fig3()),
        ("fig4-shared-graph.dot", fig4()),
        ("fig5-cross-links.dot", fig5()),
        ("fig6-embedded.dot", fig6()),
    ] {
        let path = format!("{out}/{name}");
        std::fs::write(&path, dot)?;
        println!("wrote {path}");
    }
    println!("render with: dot -Tsvg figures/fig3-newcastle.dot -o fig3.svg");
    Ok(())
}
