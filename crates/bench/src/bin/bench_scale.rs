//! Emits `BENCH_scale.json`: the million-context scale run over the sharded
//! [`SystemState`], tracked across PRs.
//!
//! ```text
//! bench_scale [--out PATH] [--stdout] [--smoke] [--ops N] [--publishes N]
//!             [--workers N] [--shards N] [--watch N] [--metrics-out PATH]
//! bench_scale --json [--shards N]
//! ```
//!
//! `--watch N` rewrites the Prometheus-style metrics exposition every `N`
//! scale tiers; `--metrics-out PATH` says where (a final snapshot is always
//! flushed there at exit). Neither touches stdout or the JSON artifact.
//!
//! The **zipf-grid workload**: each tier stands up `zones × (dirs + 1)`
//! contexts — a per-zone root grafted under the global root plus `dirs`
//! directories each holding one data leaf — with zone *i* placed in shard
//! `i % shards`. Tiers target 10⁴, 10⁵, and 10⁶ contexts (`--smoke` runs
//! only the first). Traffic is Zipf-distributed over zones (s = 1, rank
//! scattered across zones by an odd-multiplier bijection) with uniform
//! fan-out inside a zone, ~1 op in 16 a miss. Per tier the harness reports:
//!
//! * **resolve ops/sec** — serial full-path walks from the global root, and
//!   the same op stream served as batches by an 8-worker
//!   `ConcurrentService`. Per-op cost should stay roughly flat from 10⁴ to
//!   10⁶ contexts.
//! * **publish latency** — write-then-publish cycles against one zone. The
//!   copy-on-publish snapshot clones only the written shard, so the latency
//!   depends on that shard's size, not the total context count; the run
//!   asserts every other shard's `Arc` was shared, and reports the count.
//! * **peak RSS proxy** — `VmRSS`/`VmHWM` deltas from `/proc/self/status`
//!   around the build (null where unsupported). The heap is trimmed
//!   (`malloc_trim`) before each tier's pre-build snapshot so the delta is
//!   not paid out of pages a previous tier freed.
//! * **allocs/op** — heap allocations per serial resolve, from the counting
//!   global allocator this binary installs. Inline contexts make the
//!   steady-state quotient ~0: the walk itself allocates nothing. The pool phase reports the same
//!   quotient from submit through drain, over every thread, and the run
//!   fails if it passes 2.0 — per-frame costs only, nothing per name.
//!
//! `--json` prints a small fixed op stream's resolved *labels* (ids differ
//! between shard layouts by construction, labels do not), so CI can `cmp`
//! a sharded run against `--shards 1` byte-for-byte.

use naming_core::entity::{Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_core::state::{SystemState, MAX_SHARDS};
use naming_resolver::concurrent::ConcurrentService;
use naming_resolver::wire::{BatchRequest, NameTrie};
use naming_telemetry::json::json_string;

use naming_bench::alloc::allocation_count;
use naming_bench::cli::{self, Doc, Flag, Kind::*};
use naming_bench::scenarios::Lcg;
use std::time::Instant;

/// Count every heap allocation this binary makes: the arena claim —
/// resolves over inline contexts allocate nothing — is reported as a
/// measured allocs/op, not inferred from RSS.
#[global_allocator]
static ALLOC: naming_bench::alloc::CountingAlloc = naming_bench::alloc::CountingAlloc;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap pages to the OS (glibc only; a no-op elsewhere).
///
/// `build_rss_kb` is a VmRSS delta around the build. Without a trim, the
/// allocator satisfies a tier's build from pages the *previous* tier's
/// teardown freed but kept — the delta then understates the footprint
/// (the old 1e5 tier reported less than 1e4). Trimming before the
/// pre-build snapshot makes each tier's delta start from a drained heap.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        let _ = malloc_trim(0);
    }
}

/// One scale tier: `zones * (dirs + 1)` context objects.
struct Tier {
    label: &'static str,
    zones: usize,
    dirs: usize,
}

/// 10⁴ / 10⁵ / 10⁶ contexts; zone counts are powers of two so the Zipf
/// rank→zone scatter (odd multiplier mod 2^k) is a bijection.
const TIERS: [Tier; 3] = [
    Tier {
        label: "1e4",
        zones: 16,
        dirs: 624,
    },
    Tier {
        label: "1e5",
        zones: 128,
        dirs: 780,
    },
    Tier {
        label: "1e6",
        zones: 1024,
        dirs: 976,
    },
];

const DEFAULT_OPS: usize = 200_000;
const DEFAULT_PUBLISHES: usize = 64;
const SMOKE_OPS: usize = 2_000;
const SMOKE_PUBLISHES: usize = 8;
const BATCH_SIZE: usize = 64;

/// A built tier: the sharded state plus the handles traffic needs.
struct Grid {
    state: SystemState,
    root: ObjectId,
    zone_roots: Vec<ObjectId>,
    zones: usize,
    dirs: usize,
    shards: usize,
    /// Cumulative Zipf(s=1) weights over zone ranks, for binary search.
    zipf_cum: Vec<f64>,
}

fn build_grid(zones: usize, dirs: usize, shards: usize) -> Grid {
    let mut s = SystemState::with_shards(shards);
    let root = s.add_context_object_in(0, "root");
    s.bind(root, Name::root(), root).unwrap();
    let mut zone_roots = Vec::with_capacity(zones);
    for z in 0..zones {
        let sh = z % shards;
        let zr = s.add_context_object_in(sh, format!("z{z}"));
        s.bind(root, Name::new(&format!("z{z}")), zr).unwrap();
        for d in 0..dirs {
            let dir = s.add_context_object_in(sh, format!("z{z}/d{d}"));
            s.bind(zr, Name::new(&format!("d{d}")), dir).unwrap();
            let leaf = s.add_data_object_in(sh, format!("z{z}/d{d}/f0"), vec![]);
            s.bind(dir, Name::new("f0"), leaf).unwrap();
        }
        zone_roots.push(zr);
    }
    let mut zipf_cum = Vec::with_capacity(zones);
    let mut acc = 0.0f64;
    for rank in 1..=zones {
        acc += 1.0 / rank as f64;
        zipf_cum.push(acc);
    }
    Grid {
        state: s,
        root,
        zone_roots,
        zones,
        dirs,
        shards,
        zipf_cum,
    }
}

impl Grid {
    /// Contexts stood up by this tier (the global root not counted).
    fn contexts(&self) -> usize {
        self.zones * (self.dirs + 1)
    }

    /// Draws a Zipf-popular zone: binary-search the cumulative weights,
    /// then scatter the rank across zone ids so popular zones are not
    /// clustered in low shards.
    fn draw_zone(&self, rng: &mut Lcg) -> usize {
        let total = *self.zipf_cum.last().unwrap();
        let u = (rng.draw() as f64 / (1u64 << 31) as f64 / 2.0) % 1.0 * total;
        let rank = self.zipf_cum.partition_point(|&c| c <= u);
        rank.wrapping_mul(0x9E37_79B1) & (self.zones - 1)
    }

    /// One op: a full path from the root, ~1 in 16 unbound.
    fn draw_name(&self, rng: &mut Lcg) -> CompoundName {
        let z = self.draw_zone(rng);
        let d = rng.draw() as usize % self.dirs;
        let path = if rng.draw().is_multiple_of(16) {
            format!("/z{z}/d{d}/missing")
        } else {
            format!("/z{z}/d{d}/f0")
        };
        CompoundName::parse_path(&path).unwrap()
    }
}

/// `VmRSS`/`VmHWM` in kB from `/proc/self/status`; `None` off Linux.
fn rss_kb() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    };
    Some((field("VmRSS:")?, field("VmHWM:")?))
}

struct TierResult {
    label: &'static str,
    contexts: usize,
    zones: usize,
    dirs: usize,
    shards: usize,
    build_ms: f64,
    build_rss_kb: Option<u64>,
    peak_rss_kb: Option<u64>,
    serial_ops_per_sec: f64,
    serial_ns_per_op: f64,
    resolve_allocs_per_op: f64,
    pool: PoolPhase,
}

fn run_tier(
    tier: &Tier,
    ops: usize,
    publishes: usize,
    workers: usize,
    shards: usize,
) -> TierResult {
    let shards = shards.min(tier.zones).min(MAX_SHARDS);
    // Drain retained-but-free heap pages *before* the pre-build snapshot:
    // the build delta must not be paid out of the previous tier's freed
    // memory (see `trim_heap`). The subtraction clamps at zero either way.
    trim_heap();
    let before = rss_kb();
    let t = Instant::now();
    let grid = build_grid(tier.zones, tier.dirs, shards);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let after = rss_kb();
    let build_rss_kb = match (before, after) {
        (Some((b, _)), Some((a, _))) => Some(a.saturating_sub(b)),
        _ => None,
    };
    let peak_rss_kb = after.map(|(_, hwm)| hwm);

    // Pre-draw the op stream outside the timed loop.
    let mut rng = Lcg(0x5ca1_ab1e ^ tier.zones as u64);
    let names: Vec<CompoundName> = (0..ops).map(|_| grid.draw_name(&mut rng)).collect();

    let r = Resolver::new();
    let allocs_before = allocation_count();
    let t = Instant::now();
    let mut defined = 0usize;
    for n in &names {
        if r.resolve_entity(&grid.state, grid.root, n).is_defined() {
            defined += 1;
        }
    }
    let secs = t.elapsed().as_secs_f64();
    let resolve_allocs = allocation_count() - allocs_before;
    assert!(
        defined > 0 && defined < ops,
        "workload must mix hits and misses"
    );
    let serial_ops_per_sec = ops as f64 / secs;
    let serial_ns_per_op = secs * 1e9 / ops as f64;
    let resolve_allocs_per_op = resolve_allocs as f64 / ops as f64;

    let pool = pool_phase(&grid, &names, publishes, workers);
    // One frame's worth of fixed costs (the cloned trie's two tables, the
    // walk's scratch, the answer) spread over its names: a per-name or
    // per-node allocation anywhere between submit and drain lands far
    // above this.
    assert!(
        pool.allocs_per_op <= 2.0,
        "pool allocates {} times per name",
        pool.allocs_per_op
    );

    TierResult {
        label: tier.label,
        contexts: grid.contexts(),
        zones: grid.zones,
        dirs: grid.dirs,
        shards: grid.shards,
        build_ms,
        build_rss_kb,
        peak_rss_kb,
        serial_ops_per_sec,
        serial_ns_per_op,
        resolve_allocs_per_op,
        pool,
    }
}

/// Pool-phase results; `allocs_per_op` counts submit through drain, over
/// every thread.
struct PoolPhase {
    ops_per_sec: f64,
    allocs_per_op: f64,
    publish_mean_us: f64,
    publish_max_us: f64,
    publish_shards_shared_min: usize,
    noop_publishes: u64,
}

/// Serves the op stream on a real worker pool, then measures
/// write-then-publish cycles against single zones. Every publish must share
/// every shard it did not write.
fn pool_phase(grid: &Grid, names: &[CompoundName], publishes: usize, workers: usize) -> PoolPhase {
    let reqs: Vec<BatchRequest> = names
        .chunks(BATCH_SIZE)
        .enumerate()
        .map(|(id, chunk)| {
            let (trie, _) = NameTrie::build(chunk);
            BatchRequest {
                id: id as u64,
                start: grid.root,
                trie,
            }
        })
        .collect();
    let queries: usize = reqs.iter().map(|r| r.trie.names().len()).sum();

    let mut svc = ConcurrentService::new(grid.state.clone(), workers);
    let allocs_before = allocation_count();
    let t = Instant::now();
    for req in &reqs {
        svc.submit(req.clone());
    }
    let answers = svc.drain();
    let pool_secs = t.elapsed().as_secs_f64();
    let pool_allocs = allocation_count() - allocs_before;
    assert_eq!(
        answers.iter().map(|a| a.entities.len()).sum::<usize>(),
        queries
    );

    // Publish phase: each cycle binds one fresh leaf into a Zipf-drawn
    // zone, then publishes. Copy-on-publish must clone only that zone's
    // shard — every other shard Arc is shared with the previous snapshot.
    let mut rng = Lcg(0xdeca_fbad ^ grid.zones as u64);
    let mut lat_ns: Vec<u64> = Vec::with_capacity(publishes);
    let mut shared_min = usize::MAX;
    for k in 0..publishes {
        let prev = svc.snapshot();
        let z = grid.draw_zone(&mut rng);
        let zr = grid.zone_roots[z];
        let sh = z % grid.shards;
        svc.update(|s| {
            let leaf = s.add_data_object_in(sh, format!("z{z}/w{k}"), vec![]);
            s.bind(zr, Name::new(&format!("w{k}")), leaf).unwrap();
        });
        let t = Instant::now();
        svc.publish();
        lat_ns.push(t.elapsed().as_nanos() as u64);
        let shared = svc.snapshot().state().shards_shared_with(prev.state());
        assert!(
            shared >= grid.shards - 1,
            "publish copied {} shards, expected 1",
            grid.shards - shared
        );
        shared_min = shared_min.min(shared);
    }
    // One empty-delta publish: must be a no-op that reuses the snapshot.
    let before = svc.snapshot();
    svc.publish();
    assert!(svc.snapshot().ptr_eq(&before), "empty publish must no-op");
    let noops = svc.noop_publishes();
    drop(svc);

    let mean = lat_ns.iter().sum::<u64>() as f64 / lat_ns.len() as f64 / 1e3;
    let max = *lat_ns.iter().max().unwrap() as f64 / 1e3;
    PoolPhase {
        ops_per_sec: queries as f64 / pool_secs,
        allocs_per_op: pool_allocs as f64 / queries as f64,
        publish_mean_us: mean,
        publish_max_us: max,
        publish_shards_shared_min: shared_min,
        noop_publishes: noops,
    }
}

fn render(results: &[TierResult], ops: usize, publishes: usize, workers: usize) -> Doc {
    let or_null = |v: Option<u64>| v.map_or("null".to_owned(), |kb| kb.to_string());
    let rows = results.iter().map(|r| {
        Doc::row()
            .str("tier", r.label)
            .val("contexts", r.contexts)
            .val("zones", r.zones)
            .val("dirs_per_zone", r.dirs)
            .val("shards", r.shards)
            .fix("build_ms", r.build_ms, 1)
            .val("build_rss_kb", or_null(r.build_rss_kb))
            .val("peak_rss_kb", or_null(r.peak_rss_kb))
            .fix("serial_ops_per_sec", r.serial_ops_per_sec, 0)
            .fix("serial_ns_per_op", r.serial_ns_per_op, 1)
            .fix("resolve_allocs_per_op", r.resolve_allocs_per_op, 4)
            .fix("pool_ops_per_sec", r.pool.ops_per_sec, 0)
            .fix("pool_allocs_per_op", r.pool.allocs_per_op, 4)
            .fix("publish_mean_us", r.pool.publish_mean_us, 2)
            .fix("publish_max_us", r.pool.publish_max_us, 2)
            .val(
                "publish_shards_shared_min",
                r.pool.publish_shards_shared_min,
            )
            .val("noop_publishes", r.pool.noop_publishes)
    });
    Doc::block()
        .str("bench", "scale")
        .str("workload", "zipf-grid")
        .val("ops", ops)
        .val("publishes", publishes)
        .val("workers", workers)
        .rows("tiers", rows)
}

/// `--json` mode: a fixed 8-zone grid, 64 deterministic ops, resolved
/// labels printed one per op. Output is identical for every shard layout —
/// the CI leg `cmp`s a sharded run against `--shards 1`.
fn render_answers(shards: usize) -> Doc {
    let shards = shards.clamp(1, 8);
    let grid = build_grid(8, 8, shards);
    let r = Resolver::new();
    let mut rng = Lcg(0xfeed_face);
    let labels = (0..64).map(|_| {
        let name = grid.draw_name(&mut rng);
        match r.resolve_entity(&grid.state, grid.root, &name) {
            Entity::Object(o) => json_string(grid.state.object_label(o)),
            other => json_string(&other.to_string()),
        }
    });
    Doc::block()
        .str("bench", "scale")
        .str("workload", "zipf-grid")
        .rows("answers", labels)
}

const FLAGS: &[Flag] = &[
    Flag("--smoke", Switch, None),
    Flag("--json", Switch, None),
    Flag("--ops", Count, None),
    Flag("--publishes", Count, None),
    Flag("--workers", Count, Some("8")),
    Flag("--shards", Count, None),
];

fn main() {
    let args = cli::parse("bench_scale", &[cli::OUT, cli::WATCH, FLAGS]);
    let shards = args.opt_count("--shards").unwrap_or(MAX_SHARDS);
    if shards > MAX_SHARDS {
        cli::fail(&format!("--shards must be at most {MAX_SHARDS}"));
    }
    let mut watch = args.watch();

    if args.on("--json") {
        println!("{}", render_answers(shards));
        watch.finish();
        return;
    }

    let smoke = args.on("--smoke");
    let (ops, publishes) = if smoke {
        (SMOKE_OPS, SMOKE_PUBLISHES)
    } else {
        (DEFAULT_OPS, DEFAULT_PUBLISHES)
    };
    let ops = args.opt_count("--ops").unwrap_or(ops);
    let publishes = args.opt_count("--publishes").unwrap_or(publishes);
    let workers = args.count("--workers");
    let tiers: &[Tier] = if smoke { &TIERS[..1] } else { &TIERS };
    let results: Vec<TierResult> = tiers
        .iter()
        .map(|t| {
            let r = run_tier(t, ops, publishes, workers, shards);
            eprintln!(
                "tier {:>3}: {:>7} contexts / {:>4} shards, build {:>7.1} ms, \
                 serial {:>9.0} ops/s ({:>6.1} ns/op), pool {:>9.0} ops/s ({:.2} allocs/op), \
                 publish mean {:>8.2} us (max {:>8.2}), shared >= {}",
                r.label,
                r.contexts,
                r.shards,
                r.build_ms,
                r.serial_ops_per_sec,
                r.serial_ns_per_op,
                r.pool.ops_per_sec,
                r.pool.allocs_per_op,
                r.pool.publish_mean_us,
                r.pool.publish_max_us,
                r.pool.publish_shards_shared_min,
            );
            watch.tick(r.label);
            r
        })
        .collect();
    watch.finish();
    args.emit(
        &render(&results, ops, publishes, workers),
        "BENCH_scale.json",
    );
}
