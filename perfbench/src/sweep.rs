//! `sweep-failures`: the paper's experiment shape. One `SweepRunner`
//! grid of RRG(64,12,8) and RRG(96,14,10) × {baseline, 8 and 16 failed
//! links, 2 failed switches, and their combinations} × {permutation,
//! chunky:50} × {fptas, ksp:8} — 48 cells on the pairwise FPTAS fast
//! path, the KSP path-set cache, delta views, the ms-BFS hop bound and
//! the pool's cross-cell parallelism. Every net is below the
//! delta-stepping gate, so the bucketed SSSP and the grouped solver are
//! never reached.
//!
//! The per-layer split comes from a *replay*: the same cells driven one
//! by one through the layers' public functions (`Topology::random_regular`,
//! `ThroughputEngine::new`, `TrafficModel::generate`, `Scenario::apply`,
//! `aggregate_commodities`, `hop_throughput_bound`,
//! `ThroughputEngine::solve_on`) at one thread, each call timed. Its
//! outputs must equal the grid's bit for bit, which is also the
//! 1-thread leg of the determinism check.

use std::time::Instant;

use dctopo_core::solve::{aggregate_commodities, surviving_traffic};
use dctopo_core::sweep::hop_throughput_bound;
use dctopo_core::{
    BackendChoice, Degradation, Scenario, SweepReport, SweepRunner, SweepSpec, ThroughputEngine,
    TopologyPoint, TrafficModel,
};
use dctopo_flow::{Backend, FlowOptions};
use dctopo_topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{self, Checks, Layers, Outcome};
use crate::{one_thread, trace, Config};

/// `(switches, ports, degree)` of the two topology points.
const POINTS: [(usize, usize, usize); 2] = [(64, 12, 8), (96, 14, 10)];
const LINK_FAILURES: [usize; 3] = [0, 8, 16];
const SWITCH_FAILURES: [usize; 2] = [0, 2];
/// Grids an untraced run measures, each on its own instance (see
/// [`grid_seed`]): one grid's wall swings by about ±8% from run to run
/// on a 2-core host (its nested parallel regions split into coarse
/// static chunks), and its worst gap depends on the instance, so a run
/// averages two.
const GRIDS: usize = 2;
/// An untraced run replays every `REPLAY_STRIDE`-th cell at one thread
/// (odd, so both backends are sampled); a traced run replays them all.
const REPLAY_STRIDE: usize = 7;

fn scenarios(seed: u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    for links in LINK_FAILURES {
        for switches in SWITCH_FAILURES {
            let mut degradations = Vec::new();
            let mut name = Vec::new();
            if links > 0 {
                degradations.push(Degradation::FailLinks { count: links, seed });
                name.push(format!("fail:{links}"));
            }
            if switches > 0 {
                degradations.push(Degradation::FailSwitches {
                    count: switches,
                    seed,
                });
                name.push(format!("sw-fail:{switches}"));
            }
            let name = if name.is_empty() {
                "baseline".to_string()
            } else {
                name.join("+")
            };
            out.push(Scenario::new(name, degradations));
        }
    }
    out
}

fn traffic() -> Vec<TrafficModel> {
    vec![
        TrafficModel::Permutation,
        TrafficModel::Chunky { percent: 50.0 },
    ]
}

fn backends() -> Vec<BackendChoice> {
    vec![BackendChoice::fptas(), BackendChoice::ksp(8)]
}

fn spec(seed: u64) -> SweepSpec {
    SweepSpec {
        topologies: POINTS
            .iter()
            .map(|&(n, k, r)| TopologyPoint::rrg(n, k, r))
            .collect(),
        traffic: traffic(),
        scenarios: scenarios(seed),
        backends: backends(),
        opts: FlowOptions::fast(),
        seed,
        runs: 1,
    }
}

/// `SweepRunner`'s per-coordinate seed mixing (splitmix64 finalizer),
/// restated so the replay and the set-up timing build exactly the grid's
/// topologies and matrices. The replay's bitwise check against the grid
/// fails loudly if the two ever diverge.
fn derive_seed(base: u64, domain: u64, a: usize, b: usize) -> u64 {
    let mut z = base
        .wrapping_add(domain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((a as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((b as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of a run's `k`-th grid; grid 0 is the one a traced run and
/// the 1-thread replay use.
fn grid_seed(seed: u64, k: usize) -> u64 {
    derive_seed(seed, 7, k, 0)
}

/// The grid's set-up work: both topologies, their engines (CSR
/// flattening) and their traffic matrices.
fn setup_once(seed: u64) {
    for (t, &(n, k, r)) in POINTS.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1, t, 0));
        let topo = Topology::random_regular(n, k, r, &mut rng).expect("valid RRG");
        let engine = ThroughputEngine::new(&topo);
        for (m, model) in traffic().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 2, t, m));
            std::hint::black_box(model.generate(&topo, &mut rng).expect("valid traffic"));
        }
        std::hint::black_box(engine.net());
    }
}

/// The certified outputs of one cell, compared bitwise across passes.
#[derive(Clone, Copy, PartialEq, Debug)]
struct CellBits {
    lambda: u64,
    upper: u64,
    hop: u64,
}

/// Check every cell of a grid; returns the cells' bits and the worst
/// gap of the FPTAS cells and of the KSP cells (see [`report::Gaps`]).
fn check_grid(grid: &SweepReport, checks: &mut Checks) -> (Vec<Option<CellBits>>, report::Gaps) {
    let mut gaps = report::Gaps::default();
    let bits = grid
        .cells
        .iter()
        .map(|cell| {
            let label = || {
                format!(
                    "{}/{}/{}/{}",
                    cell.topology, cell.scenario, cell.traffic, cell.backend
                )
            };
            let Ok(m) = &cell.result else {
                checks.check(false, || format!("{}: {:?}", label(), cell.result));
                return None;
            };
            let ok = report::certified(m.network_lambda, m.upper_bound)
                && m.network_lambda <= m.hop_bound * (1.0 + 1e-9);
            checks.check(ok, || {
                format!(
                    "{}: λ {} upper {} hop bound {}",
                    label(),
                    m.network_lambda,
                    m.upper_bound,
                    m.hop_bound
                )
            });
            gaps.add(&cell.backend, m.network_lambda, m.upper_bound);
            Some(CellBits {
                lambda: m.network_lambda.to_bits(),
                upper: m.upper_bound.to_bits(),
                hop: m.hop_bound.to_bits(),
            })
        })
        .collect();
    (bits, gaps)
}

/// Drive the selected cells through the layers' public functions, one
/// call at a time, timing each call into `layers`. Returns each replayed
/// cell's index and bits, and the path-cache counters of its engines.
fn replay(
    seed: u64,
    select: impl Fn(usize) -> bool,
    layers: &mut Layers,
) -> (Vec<(usize, CellBits)>, dctopo_flow::CacheStats) {
    let (scs, models, bks) = (scenarios(seed), traffic(), backends());
    let opts = FlowOptions::fast();
    let per_topology = scs.len() * models.len() * bks.len();
    let mut out = Vec::new();
    let mut cache = dctopo_flow::CacheStats::default();
    for (t, &(n, k, r)) in POINTS.iter().enumerate() {
        let base = t * per_topology;
        if !(base..base + per_topology).any(&select) {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1, t, 0));
        let topo = layers
            .time("topology.build_ms", || {
                Topology::random_regular(n, k, r, &mut rng)
            })
            .expect("valid RRG");
        let engine = layers.time("graph.csr_build_ms", || ThroughputEngine::new(&topo));
        let matrices: Vec<_> = models
            .iter()
            .enumerate()
            .map(|(m, model)| {
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, 2, t, m));
                layers
                    .time("traffic.gen_ms", || model.generate(&topo, &mut rng))
                    .expect("valid traffic")
            })
            .collect();
        for (s, sc) in scs.iter().enumerate() {
            let row = base + s * models.len() * bks.len();
            if !(row..row + models.len() * bks.len()).any(&select) {
                continue;
            }
            let ap = layers
                .time("core.scenario_apply_ms", || sc.apply(&topo, engine.net()))
                .expect("scenario applies");
            for (m, tm_full) in matrices.iter().enumerate() {
                let (tm, cs) = layers.time("core.lower_ms", || {
                    let tm = (ap.failed_switch_count() > 0)
                        .then(|| surviving_traffic(&topo, tm_full, &ap.failed_switch));
                    let cs = aggregate_commodities(&topo, tm.as_ref().unwrap_or(tm_full));
                    (tm, cs)
                });
                let tm = tm.as_ref().unwrap_or(tm_full);
                let hop = layers.time("core.hop_bound_ms", || hop_throughput_bound(&ap.net, &cs));
                for (b, choice) in bks.iter().enumerate() {
                    let index = row + m * bks.len() + b;
                    if !select(index) {
                        continue;
                    }
                    let layer = match choice.backend {
                        Backend::KspRestricted { .. } => "flow.ksp_ms",
                        _ => "flow.fptas_ms",
                    };
                    let opts = opts.with_backend(choice.backend);
                    let r = layers
                        .time(layer, || engine.solve_on(&ap.net, tm, &opts))
                        .expect("cell solves");
                    out.push((
                        index,
                        CellBits {
                            lambda: r.network_lambda.to_bits(),
                            upper: r.network_upper_bound.to_bits(),
                            hop: hop.to_bits(),
                        },
                    ));
                }
            }
        }
        let cs = engine.cache_stats();
        cache.hits += cs.hits;
        cache.misses += cs.misses;
    }
    (out, cache)
}

/// Every replayed cell must equal the grid's cell bit for bit.
fn check_replay(grid: &[Option<CellBits>], replayed: &[(usize, CellBits)], checks: &mut Checks) {
    for &(i, bits) in replayed {
        checks.check(grid[i] == Some(bits), || {
            format!("cell {i}: 1-thread replay {bits:?} != grid {:?}", grid[i])
        });
    }
}

fn run_grid(seed: u64) -> (SweepReport, f64) {
    let runner = SweepRunner::new(spec(seed));
    let t = Instant::now();
    let grid = runner.run();
    (grid, t.elapsed().as_secs_f64())
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    if cfg.trace {
        return run_traced(cfg, checks);
    }
    let mut setup = report::SetupTimer::new(|| setup_once(grid_seed(cfg.seed, 0)));
    setup.sample();

    // GRIDS whole grids, each on its own instance
    let mut walls = Vec::new();
    let mut first = Vec::new();
    let mut gaps = Vec::new();
    let mut cells = 0usize;
    for k in 0..GRIDS {
        let (grid, wall) = run_grid(grid_seed(cfg.seed, k));
        walls.push(wall);
        cells += grid.cells.len();
        let (bits, grid_gaps) = check_grid(&grid, &mut checks);
        gaps.push(grid_gaps);
        if k == 0 {
            first = bits;
        }
        setup.sample();
    }
    let (replayed, _) = one_thread(|| {
        replay(
            grid_seed(cfg.seed, 0),
            |i| i % REPLAY_STRIDE == 0,
            &mut Layers::default(),
        )
    });
    check_replay(&first, &replayed, &mut checks);
    setup.sample();
    println!(
        "# sweep-failures: {GRIDS} grids of {} cells, {} cells replayed at 1 thread",
        first.len(),
        replayed.len()
    );

    let total: f64 = walls.iter().sum();
    let rate = cells as f64 / total;
    Outcome {
        checks,
        end_to_end: [
            ("setup_s", setup.value()),
            ("solve_s", report::median(&walls)),
            ("cells_per_s", rate),
            ("queries_per_s", rate),
            ("batch_p50_ms", report::median(&walls) * 1e3),
            ("batch_p90_ms", report::percentile(&walls, 0.9) * 1e3),
            ("peak_rss_mb", report::peak_rss_mb()),
            ("gap_max", report::gap_max(&gaps)),
        ]
        .into_iter()
        .collect(),
        layers: None,
    }
}

/// The traced run: an untraced grid (the reference wall and CPU
/// utilisation), the same grid traced (its events and the tracing
/// overhead), and a traced 1-thread replay of every cell (the timed
/// layer calls and a second pass of every counter). The replay is a
/// different program from `SweepRunner::run`, so its wall is not a
/// 1-thread wall of the grid: `pool.speedup_2t` is not reported here.
fn run_traced(cfg: &Config, mut checks: Checks) -> Outcome {
    let mut layers = Layers::default();
    let cpu0 = report::cpu_seconds();
    let seed = grid_seed(cfg.seed, 0);
    let (grid, wall_plain) = run_grid(seed);
    let cpu = report::cpu_seconds() - cpu0;
    let (bits, gaps) = check_grid(&grid, &mut checks);
    layers.ratio("flow.ksp_gap_max", report::ksp_gap_max(&[gaps]), 1);

    let ((grid_t, wall_traced), events) = trace::capture(|| run_grid(seed));
    let (bits_t, _) = check_grid(&grid_t, &mut checks);
    checks.check(bits == bits_t, || "traced grid differs bitwise".into());
    trace::record_fptas(&mut layers, &events);
    trace::record_cache(&mut layers, grid_t.cache_stats());

    let t = Instant::now();
    let ((replayed, cache), events) =
        one_thread(|| trace::capture(|| replay(seed, |_| true, &mut layers)));
    let wall_replay = t.elapsed().as_secs_f64();
    check_replay(&bits, &replayed, &mut checks);
    trace::record_fptas(&mut layers, &events);
    trace::record_cache(&mut layers, cache);

    let timed = layers.sum_ms(&[
        "topology.build_ms",
        "traffic.gen_ms",
        "graph.csr_build_ms",
        "core.scenario_apply_ms",
        "core.lower_ms",
        "core.hop_bound_ms",
        "flow.fptas_ms",
        "flow.ksp_ms",
    ]);
    layers.add_ms("batch_p50_ms", wall_plain * 1e3, 1);
    layers.ratio("pool.cpu_util", cpu / (wall_plain * cfg.threads as f64), 1);
    layers.ratio("obs.overhead", wall_traced / wall_plain, 1);
    layers.ratio("obs.coverage", timed / (wall_replay * 1e3), 1);
    println!(
        "# sweep-failures traced: grid {wall_plain:.3} s untraced, {wall_traced:.3} s traced; \
         1-thread replay of {} cells {wall_replay:.3} s, timed layer calls cover {:.1}% of it",
        replayed.len(),
        100.0 * timed / (wall_replay * 1e3)
    );
    Outcome {
        checks,
        end_to_end: Default::default(),
        layers: Some(layers),
    }
}
