//! `scale-agg`: RRG(520,24,12) under aggregated all-to-all traffic
//! (6240 servers, 38.9M flows), eps 0.3, one phase — the only workload
//! on the bucketed path (grouped solver on delta-stepping SSSP). It
//! never reaches the pairwise fast path, the KSP cache or serve.
//!
//! The delta-stepping counters and `settles` on this path depend on
//! thread interleaving at more than one thread; the traced run records
//! them from three passes (traced and untraced at the pool's width,
//! traced at one thread) and marks them exact or varying by what it saw.

use std::time::Instant;

use dctopo_core::{aggregate_groups, AggregateThroughputResult, ThroughputEngine};
use dctopo_flow::FlowOptions;
use dctopo_obs::Json;
use dctopo_topology::Topology;
use dctopo_traffic::AggregateTraffic;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{self, Checks, Layers, Outcome};
use crate::{one_thread, trace, Config};

const SWITCHES: usize = 520;
const PORTS: usize = 24;
const DEGREE: usize = 12;
/// Instances an untraced run solves, each its own fabric: the certified
/// gap of a one-phase solve depends on the instance (1.6 to 2.1 over
/// seeds 1–10), and one solve's wall moves with the host, so a run
/// averages two.
const INSTANCES: usize = 2;

fn opts() -> FlowOptions {
    FlowOptions {
        epsilon: 0.3,
        max_phases: 1,
        ..FlowOptions::default()
    }
}

/// The seed of a run's `k`-th instance; instance 0 is the workload seed
/// itself (the one a traced run and the 1-thread check use), so seed 7
/// is the ROADMAP's re-anchor instance.
fn instance_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn build(seed: u64) -> (Topology, AggregateTraffic) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::random_regular(SWITCHES, PORTS, DEGREE, &mut rng).expect("valid RRG");
    let traffic = AggregateTraffic::all_to_all(topo.server_count());
    (topo, traffic)
}

/// The bits a solve must reproduce at any thread count: λ, the
/// certified bound and an FNV-1a hash of the arc flows.
fn fingerprint(r: &AggregateThroughputResult) -> (u64, u64, u64) {
    let flows = r.solved.as_ref().map_or(&[][..], |s| &s.arc_flow[..]);
    let hash = flows.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (
        r.network_lambda.to_bits(),
        r.network_upper_bound.to_bits(),
        hash,
    )
}

fn solve(
    engine: &ThroughputEngine,
    traffic: &AggregateTraffic,
) -> (AggregateThroughputResult, f64) {
    let t = Instant::now();
    let r = engine
        .solve_aggregate(traffic, &opts())
        .expect("connected fabric solves");
    (r, t.elapsed().as_secs_f64())
}

fn check(r: &AggregateThroughputResult, checks: &mut Checks) {
    checks.check(
        report::certified(r.network_lambda, r.network_upper_bound),
        || format!("λ {} upper {}", r.network_lambda, r.network_upper_bound),
    );
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    if cfg.trace {
        return run_traced(cfg, checks);
    }
    let mut setup = report::SetupTimer::new(|| {
        for k in 0..INSTANCES {
            let (topo, traffic) = build(instance_seed(cfg.seed, k));
            let engine = ThroughputEngine::new(&topo);
            std::hint::black_box((engine.net(), traffic));
        }
    });
    setup.sample();

    // INSTANCES solves, each on its own instance; the first instance is
    // solved again at one thread (outside the timed solves)
    let mut walls = Vec::new();
    let mut gaps = Vec::new();
    for k in 0..INSTANCES {
        let (topo, traffic) = build(instance_seed(cfg.seed, k));
        let engine = ThroughputEngine::new(&topo);
        let (r, wall) = solve(&engine, &traffic);
        walls.push(wall);
        check(&r, &mut checks);
        gaps.push(report::gap(r.network_lambda, r.network_upper_bound));
        println!(
            "# scale-agg instance {k}: {} flows, λ {} ≤ {} certified",
            traffic.flow_count(),
            r.network_lambda,
            r.network_upper_bound
        );
        if k == 0 {
            let (r1, _) = one_thread(|| solve(&engine, &traffic));
            checks.check(fingerprint(&r1) == fingerprint(&r), || {
                "1-thread solve differs bitwise from the pool-width solve".into()
            });
        }
        setup.sample();
    }
    println!("# scale-agg: {INSTANCES} solves at {} threads", cfg.threads);

    let rate = walls.len() as f64 / walls.iter().sum::<f64>();
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
            ("gap_max", report::median(&gaps)),
        ]
        .into_iter()
        .collect(),
        layers: None,
    }
}

/// Record the grouped solver's counters from one traced solve.
fn record_grouped(layers: &mut Layers, events: &[Json]) {
    let field = |name: &str| trace::sum(events, "grouped_solve", name);
    for (metric, name) in [
        ("flow.phases", "phases"),
        ("flow.settles", "settles"),
        ("graph.delta_runs", "sssp_runs"),
        ("graph.delta_light_rounds", "light_rounds"),
        ("graph.delta_par_rounds", "par_rounds"),
        ("graph.delta_seq_rounds", "seq_rounds"),
        ("graph.delta_edge_scans", "edge_scans"),
    ] {
        let (v, n) = field(name);
        layers.count(metric, v, n);
    }
}

/// The traced run: timed set-up calls, an untraced solve (reference
/// wall, CPU utilisation), a traced solve at the pool's width (phase
/// split, counters, tracing overhead) and a traced 1-thread solve
/// (speed-up, second pass of every counter).
fn run_traced(cfg: &Config, mut checks: Checks) -> Outcome {
    let mut layers = Layers::default();
    let t_setup = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let topo = layers
        .time("topology.build_ms", || {
            Topology::random_regular(SWITCHES, PORTS, DEGREE, &mut rng)
        })
        .expect("valid RRG");
    let traffic = layers.time("traffic.gen_ms", || {
        AggregateTraffic::all_to_all(topo.server_count())
    });
    let engine = layers.time("graph.csr_build_ms", || ThroughputEngine::new(&topo));
    let groups = layers.time("core.lower_ms", || aggregate_groups(&topo, &traffic));
    std::hint::black_box(groups);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let cpu0 = report::cpu_seconds();
    let (plain, wall_plain) = solve(&engine, &traffic);
    let cpu = report::cpu_seconds() - cpu0;
    check(&plain, &mut checks);

    let ((traced, wall_traced), events) = trace::capture(|| solve(&engine, &traffic));
    check(&traced, &mut checks);
    checks.check(fingerprint(&traced) == fingerprint(&plain), || {
        "traced solve differs bitwise".into()
    });
    record_grouped(&mut layers, &events);
    let (tree, n) = trace::sum_nd_ms(&events, "grouped_phase", "tree_us");
    layers.add_ms("flow.grouped_tree_ms", tree, n);
    let (kahn, n) = trace::sum_nd_ms(&events, "grouped_phase", "kahn_us");
    layers.add_ms("flow.grouped_kahn_ms", kahn, n);
    let (harvest, n) = trace::sum_nd_ms(&events, "grouped_harvest", "wall_us");
    layers.add_ms("flow.grouped_harvest_ms", harvest, n);

    let settles = |r: &AggregateThroughputResult| r.solved.as_ref().map_or(0, |s| s.settles);
    layers.count("flow.settles", settles(&plain) as f64, 1);

    let ((single, wall_single), events) =
        one_thread(|| trace::capture(|| solve(&engine, &traffic)));
    check(&single, &mut checks);
    checks.check(fingerprint(&single) == fingerprint(&plain), || {
        "1-thread solve differs bitwise from the pool-width solve".into()
    });
    record_grouped(&mut layers, &events);

    let timed = layers.sum_ms(&[
        "topology.build_ms",
        "traffic.gen_ms",
        "graph.csr_build_ms",
        "core.lower_ms",
        "flow.grouped_tree_ms",
        "flow.grouped_kahn_ms",
        "flow.grouped_harvest_ms",
    ]);
    let e2e_ms = (setup_s + wall_traced) * 1e3;
    layers.add_ms("batch_p50_ms", wall_plain * 1e3, 1);
    layers.ratio("pool.cpu_util", cpu / (wall_plain * cfg.threads as f64), 1);
    layers.ratio("pool.speedup_2t", wall_single / wall_traced, 1);
    layers.ratio("obs.overhead", wall_traced / wall_plain, 1);
    layers.ratio("obs.coverage", timed / e2e_ms, 1);
    println!(
        "# scale-agg traced: solve {wall_plain:.3} s untraced, {wall_traced:.3} s traced, \
         {wall_single:.3} s at 1 thread; timed layers cover {:.1}% of set-up + traced solve",
        100.0 * timed / e2e_ms
    );
    Outcome {
        checks,
        end_to_end: Default::default(),
        layers: Some(layers),
    }
}
