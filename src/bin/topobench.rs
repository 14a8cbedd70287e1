//! `topobench` — a command-line topology benchmarking tool in the spirit
//! of the paper's released artifact (TopoBench, reference \[28\]).
//!
//! ```text
//! topobench build rrg --switches 40 --ports 15 --degree 10 [--seed S] [--dot]
//! topobench build fat-tree --k 8 [--dot]
//! topobench build vl2 --da 12 --di 16 [--rewired] [--tors T] [--dot]
//! topobench solve rrg --switches 40 --ports 15 --degree 10
//!                 [--traffic permutation|all-to-all|chunky:<pct>]
//!                 [--traffic all-to-all-agg|hotspot-agg:<hot>]
//!                 [--runs N] [--seed S] [--precise] [--max-pairs P]
//!                 [--backend fptas|fptas-strict|exact|ksp:<k>]
//! topobench sweep [--families rrg:16x8x4,fat-tree:4,...]
//!                 [--traffic permutation,chunky:50,...]
//!                 [--failures 0,2,4] [--switch-failures 0,1]
//!                 [--scales 1.0,1.5] [--backends fptas,ksp:8]
//!                 [--runs N] [--seed S] [--precise] [--json PATH] [--strict]
//! topobench search [--family rrg:32x10x6] [--mode structural|capacity|both]
//!                 [--rounds N] [--batch B] [--traffic T] [--seed S]
//!                 [--backend fptas|fptas-strict|exact|ksp:<k>] [--precise]
//!                 [--certify-all] [--min-mult X] [--max-mult X] [--cap-step X]
//!                 [--temperature T] [--cooling C]
//! topobench plan [--family rrg:16x6x4] [--pairs P] [--maintenance] [--traffic T]
//!                 [--seed S] [--floor X | --floor-frac F] [--probes N]
//!                 [--max-solves N] [--naive] [--certify-all] [--precise] [--backend B]
//! topobench packetsim rrg --switches 16 --ports 10 --degree 6
//!                 [--traffic T] [--seed S] [--routing decomposed|ksp:<k>|ecmp:<n>]
//!                 [--utilization X] [--duration D] [--warmup W] [--queue Q]
//!                 [--window] [--rto R] [--cwnd C]
//!                 [--failures N] [--backend B] [--precise]
//! topobench serve rrg --switches 16 --ports 8 --degree 4
//!                 [--traffic T] [--seed S] [--precise] [--backend B] [--no-warm]
//! topobench profile rrg --switches 40 --ports 15 --degree 10
//!                 [--traffic T] [--seed S] [--backend B] [--precise]
//!                 [--phases N] [--max-pairs P]
//! topobench bounds --switches 40 --degree 10 --flows 200
//! topobench vl2-study --da 10 --di 12 [--runs N]
//! ```
//!
//! Every subcommand also accepts `--threads N`, which sizes the
//! persistent worker pool directly. Precedence, highest first:
//! `--threads`, then the `DCTOPO_THREADS` environment variable, then
//! `RAYON_NUM_THREADS`, then the machine's available parallelism. The
//! pool is sized once, at the first parallel operation, so the flag
//! applies to the whole process.
//!
//! Every subcommand also accepts `--trace PATH`, which enables the
//! structured telemetry recorder ([`dctopo::obs`]) with a JSONL file
//! sink for the whole process — solver phase records, sweep cell
//! records, serve batch/query records, cache key statistics. Without
//! the flag the `DCTOPO_TRACE` environment variable is consulted
//! instead; with neither, tracing is off and costs one relaxed atomic
//! load per instrumentation site. `profile` runs one solve with the
//! in-memory recorder and prints a per-phase wall/work breakdown
//! (`--trace` additionally writes the raw events out).
//!
//! `build` prints the switch-level topology as a capacitated edge list
//! (or Graphviz DOT with `--dot`); `solve` builds, generates traffic,
//! runs the certified max-concurrent-flow solver and prints throughput
//! plus the §6.1 decomposition; `sweep` evaluates the full
//! `{family × traffic × degradation × backend}` grid through the
//! scenario sweep engine (optionally writing per-cell records to
//! `--json` in the shared `BENCH_*` schema; with `--strict` a grid with
//! failed cells prints a typed per-kind error summary and exits
//! non-zero); `search` runs the multi-fidelity topology search engine
//! (structural rewires and/or line-speed budget reallocation) and
//! prints the accepted-move trace; `plan` runs the certified-safe
//! reconfiguration planner over a churn migration (`--maintenance`
//! restores links at their original endpoints so λ_B ≈ λ_A at any
//! churn depth) and prints the parallel execution DAG with per-stage
//! certified λ (`--naive` runs the declaration-ordered baseline: no
//! bounds, no pruning, dominance-free certificates — for comparison);
//! `serve` starts the long-running what-if query server: batched
//! line-delimited JSON requests on stdin (blank line flushes a batch,
//! EOF drains and exits), one response line per request on stdout, with
//! per-structure FPTAS warm state reused across batches (`--no-warm`
//! disables warm-starting by default; requests can still opt in/out
//! per query); `bounds` prints the paper's analytic bounds;
//! `vl2-study` reproduces the §7 comparison for one size.

use std::collections::HashMap;
use std::process::exit;

use dctopo::bounds::{aspl_lower_bound, throughput_upper_bound};
use dctopo::core::vl2::{permutation_tm, SupportSearch};
use dctopo::graph::io::{to_dot, to_edge_list};
use dctopo::metrics::decompose;
use dctopo::prelude::*;
use dctopo::topology::classic::{complete, fat_tree, hypercube, torus2d};
use dctopo::topology::vl2::{rewired_vl2, vl2, Vl2Params};
use dctopo::traffic::AggregateTraffic;
use dctopo_bench::report::{self, SweepCellRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default `--max-pairs`: dense pair lists beyond this abort with
/// advice instead of OOMing (all-to-all at 1024 switches × 16 servers
/// is ~268M pairs, gigabytes of demand state before the solver starts).
const DEFAULT_MAX_PAIRS: u128 = 4_000_000;

fn usage() -> ! {
    eprintln!(
        "usage:\n  topobench build <family> [options] [--dot]\n  \
         topobench solve <family> [options] [--traffic T] [--runs N] [--precise]\n  \
         \x20               [--backend fptas|fptas-strict|exact|ksp:<k>]\n  \
         topobench sweep [--families F1,F2,...] [--traffic T1,T2,...]\n  \
         \x20               [--failures 0,2,4] [--switch-failures 0,1]\n  \
         \x20               [--scales 1.0,1.5] [--backends fptas,ksp:8]\n  \
         \x20               [--runs N] [--seed S] [--precise] [--json PATH] [--strict]\n  \
         topobench search [--family F] [--mode structural|capacity|both]\n  \
         \x20               [--rounds N] [--batch B] [--traffic T] [--seed S]\n  \
         \x20               [--backend B] [--precise] [--certify-all]\n  \
         \x20               [--min-mult X] [--max-mult X] [--cap-step X]\n  \
         \x20               [--temperature T] [--cooling C]\n  \
         topobench plan [--family F] [--pairs P] [--maintenance] [--traffic T]\n  \
         \x20               [--seed S] [--floor X | --floor-frac F] [--probes N]\n  \
         \x20               [--max-solves N] [--naive] [--certify-all] [--precise] [--backend B]\n  \
         topobench packetsim <family> [options] [--traffic T] [--seed S]\n  \
         \x20               [--routing decomposed|ksp:<k>|ecmp:<n>] [--utilization X]\n  \
         \x20               [--duration D] [--warmup W] [--queue Q] [--window]\n  \
         \x20               [--rto R] [--cwnd C] [--failures N] [--backend B] [--precise]\n  \
         topobench serve <family> [options] [--traffic T] [--seed S]\n  \
         \x20               [--precise] [--backend B] [--no-warm]\n  \
         topobench profile <family> [options] [--traffic T] [--seed S]\n  \
         \x20               [--backend B] [--precise] [--phases N] [--eps E]\n  \
         topobench bounds --switches N --degree R --flows F\n  \
         topobench vl2-study --da A --di I [--runs N]\n\n\
         all subcommands: --threads N (worker pool size; overrides\n  \
         \x20               DCTOPO_THREADS, then RAYON_NUM_THREADS)\n  \
         \x20               --trace PATH (JSONL telemetry; or DCTOPO_TRACE env)\n\
         families: rrg (--switches --ports --degree), fat-tree (--k),\n  \
         hypercube (--dim --servers), torus (--rows --cols --servers),\n  \
         complete (--switches --servers), vl2 (--da --di [--tors] [--rewired])\n\
         sweep family specs: rrg:NxKxR | fat-tree:K | complete:NxS |\n  \
         hypercube:DxS | torus:RxCxS | vl2:AxI\n\
         traffic: permutation (default) | all-to-all | chunky:<percent> | hotspot:<n>\n\
         solve also takes aggregated forms (all-to-all-agg, hotspot-agg:<hot>)\n  \
         \x20               and --max-pairs P (refuse dense pair lists beyond P)"
    );
    exit(2);
}

/// Parse a `--backend` argument (`fptas`, `fptas-strict`, `exact`, or
/// `ksp:<k>`). Returns the backend plus whether the FPTAS should run
/// its strict legacy trajectory ([`FlowOptions::strict_reference`]).
fn parse_backend(s: &str) -> Option<(dctopo::flow::Backend, bool)> {
    use dctopo::flow::Backend;
    match s {
        "fptas" => Some((Backend::Fptas, false)),
        "fptas-strict" => Some((Backend::Fptas, true)),
        "exact" => Some((Backend::ExactLp, false)),
        _ => {
            let k: usize = s.strip_prefix("ksp:")?.parse().ok()?;
            (k > 0).then_some((Backend::KspRestricted { k }, false))
        }
    }
}

/// Minimal flag parser: `--key value` pairs plus boolean flags.
struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let tok = &raw[i];
            if let Some(key) = tok.strip_prefix("--") {
                // boolean flags take no value; everything else takes one
                if matches!(
                    key,
                    "dot"
                        | "rewired"
                        | "precise"
                        | "full"
                        | "certify-all"
                        | "window"
                        | "strict"
                        | "naive"
                        | "maintenance"
                        | "no-warm"
                ) {
                    flags.push(key.to_string());
                } else if i + 1 < raw.len() {
                    values.insert(key.to_string(), raw[i + 1].clone());
                    i += 1;
                } else {
                    eprintln!("missing value for --{key}");
                    usage();
                }
            } else {
                positional.push(tok.clone());
            }
            i += 1;
        }
        Args {
            values,
            flags,
            positional,
        }
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.values.get(key).and_then(|v| v.parse().ok())
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> T {
        match self.get(key) {
            Some(v) => v,
            None => {
                eprintln!("missing or invalid --{key}");
                usage();
            }
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn build_topology(family: &str, args: &Args, rng: &mut StdRng) -> Topology {
    let result = match family {
        "rrg" => Topology::random_regular(
            args.require("switches"),
            args.require("ports"),
            args.require("degree"),
            rng,
        ),
        "fat-tree" => fat_tree(args.require("k")),
        "hypercube" => hypercube(args.require("dim"), args.get("servers").unwrap_or(1)),
        "torus" => torus2d(
            args.require("rows"),
            args.require("cols"),
            args.get("servers").unwrap_or(1),
        ),
        "complete" => complete(args.require("switches"), args.get("servers").unwrap_or(1)),
        "vl2" => {
            let params = Vl2Params {
                d_a: args.require("da"),
                d_i: args.require("di"),
                tors: args.get("tors"),
            };
            if args.flag("rewired") {
                rewired_vl2(params, rng)
            } else {
                vl2(params)
            }
        }
        other => {
            eprintln!("unknown family '{other}'");
            usage();
        }
    };
    match result {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to build {family}: {e}");
            exit(1);
        }
    }
}

/// How many `(src, dst)` pairs a traffic spec would materialize —
/// computed analytically so the `--max-pairs` guard can refuse *before*
/// allocation.
fn traffic_pair_count(spec: &str, n_servers: usize) -> u128 {
    let n = n_servers as u128;
    if spec == "all-to-all" {
        n.saturating_mul(n.saturating_sub(1))
    } else {
        // permutation / chunky / hotspot are all O(servers) pairs
        n
    }
}

/// Parse an aggregated (never-materialized) traffic spec:
/// `all-to-all-agg` or `hotspot-agg:<hot>`. These route through
/// [`dctopo::core::ThroughputEngine::solve_aggregate`] and stay
/// `O(switches)` however large the fabric is.
fn parse_aggregate(spec: &str, n_servers: usize) -> Option<AggregateTraffic> {
    if spec == "all-to-all-agg" {
        Some(AggregateTraffic::all_to_all(n_servers))
    } else if let Some(hot) = spec.strip_prefix("hotspot-agg:") {
        let hot: usize = hot.parse().ok()?;
        (hot >= 1 && hot < n_servers).then(|| AggregateTraffic::hotspot(n_servers, hot))
    } else {
        None
    }
}

fn build_traffic(spec: &str, topo: &Topology, rng: &mut StdRng, max_pairs: u128) -> TrafficMatrix {
    let pairs = traffic_pair_count(spec, topo.server_count());
    if pairs > max_pairs {
        eprintln!(
            "traffic '{spec}' on {} servers would materialize {pairs} pairs \
             (limit --max-pairs {max_pairs}); use the aggregated form \
             (--traffic all-to-all-agg / hotspot-agg:<hot> on `solve`) or \
             raise --max-pairs",
            topo.server_count()
        );
        exit(1);
    }
    if spec == "permutation" {
        TrafficMatrix::random_permutation(topo.server_count(), rng)
    } else if spec == "all-to-all" {
        TrafficMatrix::all_to_all(topo.server_count())
    } else if let Some(pct) = spec.strip_prefix("chunky:") {
        let pct: f64 = pct.parse().unwrap_or_else(|_| {
            eprintln!("bad chunky percentage '{pct}'");
            usage();
        });
        let groups: Vec<Vec<usize>> = topo
            .server_groups()
            .into_iter()
            .filter(|g| !g.is_empty())
            .collect();
        TrafficMatrix::chunky(&groups, pct, rng)
    } else {
        eprintln!("unknown traffic '{spec}'");
        usage();
    }
}

fn cmd_build(args: &Args) {
    let family = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let mut rng = StdRng::seed_from_u64(args.get("seed").unwrap_or(1));
    let topo = build_topology(family, args, &mut rng);
    eprintln!(
        "# {family}: {} switches, {} links, {} servers, {} unused ports",
        topo.switch_count(),
        topo.graph.edge_count(),
        topo.server_count(),
        topo.unused_ports
    );
    if args.flag("dot") {
        print!("{}", to_dot(&topo.graph, family));
    } else {
        print!("{}", to_edge_list(&topo.graph));
    }
}

fn cmd_solve(args: &Args) {
    let family = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let runs: usize = args.get("runs").unwrap_or(3);
    let base_seed: u64 = args.get("seed").unwrap_or(1);
    let traffic = args
        .values
        .get("traffic")
        .cloned()
        .unwrap_or_else(|| "permutation".into());
    let mut opts = if args.flag("precise") {
        FlowOptions::precise()
    } else {
        FlowOptions::default()
    };
    if let Some(spec) = args.values.get("backend") {
        let (backend, strict) = parse_backend(spec).unwrap_or_else(|| {
            eprintln!("unknown backend '{spec}' (want fptas, fptas-strict, exact, or ksp:<k>)");
            usage();
        });
        opts.backend = backend;
        opts.strict_reference = strict;
    }
    let max_pairs: u128 = args.get("max-pairs").unwrap_or(DEFAULT_MAX_PAIRS);
    let mut throughputs = Vec::new();
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(run as u64));
        let topo = build_topology(family, args, &mut rng);
        // one CSR flattening per topology, shared by whichever backend
        // `opts.backend` selects
        let engine = dctopo::core::ThroughputEngine::new(&topo);
        // aggregated specs skip the pair list entirely: grouped demand
        // descriptors + the grouped FPTAS, O(switches) memory
        if let Some(agg) = parse_aggregate(&traffic, topo.server_count()) {
            match engine.solve_aggregate(&agg, &opts) {
                Ok(res) => {
                    if run == 0 {
                        println!(
                            "topology: {} switches / {} links / {} servers; \
                             traffic: {} flows (aggregated)",
                            topo.switch_count(),
                            topo.graph.edge_count(),
                            topo.server_count(),
                            agg.flow_count()
                        );
                    }
                    println!(
                        "run {run}: throughput {:.4} (network λ {:.4} ≤ {:.4} certified, NIC cap {:.4})",
                        res.throughput, res.network_lambda, res.network_upper_bound, res.nic_limit
                    );
                    throughputs.push(res.throughput);
                }
                Err(e) => {
                    eprintln!("run {run}: solve failed: {e}");
                    exit(1);
                }
            }
            continue;
        }
        let tm = build_traffic(&traffic, &topo, &mut rng, max_pairs);
        match engine.solve(&tm, &opts) {
            Ok(res) => {
                if run == 0 {
                    println!(
                        "topology: {} switches / {} links / {} servers; traffic: {} flows",
                        topo.switch_count(),
                        topo.graph.edge_count(),
                        topo.server_count(),
                        tm.flow_count()
                    );
                    if let Some(solved) = res.solved.as_ref() {
                        if let Ok(d) = decompose(&topo.graph, solved, &res.commodities) {
                            println!(
                                "decomposition: U = {:.3}, <D> = {:.3}, stretch = {:.3}",
                                d.utilization, d.aspl, d.stretch
                            );
                        }
                    }
                }
                println!(
                    "run {run}: throughput {:.4} (network λ {:.4} ≤ {:.4} certified, NIC cap {:.4})",
                    res.throughput, res.network_lambda, res.network_upper_bound, res.nic_limit
                );
                throughputs.push(res.throughput);
            }
            Err(e) => {
                eprintln!("run {run}: solve failed: {e}");
                exit(1);
            }
        }
    }
    let mean = throughputs.iter().sum::<f64>() / throughputs.len() as f64;
    println!("mean throughput over {runs} runs: {mean:.4}");
}

/// Parse a sweep family spec (`rrg:NxKxR`, `fat-tree:K`, `complete:NxS`,
/// `hypercube:DxS`, `torus:RxCxS`, `vl2:AxI`,
/// `two-cluster:NxPxS-nxpxs-X` — large cluster, small cluster, cross
/// links) into a topology-axis point.
fn parse_family(spec: &str) -> Option<dctopo::core::TopologyPoint> {
    use dctopo::core::TopologyPoint;
    use dctopo::topology::hetero::{two_cluster, CrossSpec};
    let (family, params) = spec.split_once(':')?;
    if family == "two-cluster" {
        let name = spec.to_string();
        let mut parts = params.split('-');
        let cluster = |s: &str| -> Option<ClusterSpec> {
            let d: Vec<usize> = s
                .split('x')
                .map(str::parse)
                .collect::<Result<_, _>>()
                .ok()?;
            match d.as_slice() {
                &[count, ports, servers_per_switch] => Some(ClusterSpec {
                    count,
                    ports,
                    servers_per_switch,
                }),
                _ => None,
            }
        };
        let large = cluster(parts.next()?)?;
        let small = cluster(parts.next()?)?;
        let cross: usize = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        return Some(TopologyPoint::new(name, move |rng| {
            two_cluster(large, small, CrossSpec::Exact(cross), rng)
        }));
    }
    let dims: Vec<usize> = params
        .split('x')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let name = spec.to_string();
    match (family, dims.as_slice()) {
        ("rrg", &[n, k, r]) => Some(TopologyPoint::new(name, move |rng| {
            Topology::random_regular(n, k, r, rng)
        })),
        ("fat-tree", &[k]) => Some(TopologyPoint::new(name, move |_| fat_tree(k))),
        ("complete", &[n, s]) => Some(TopologyPoint::new(name, move |_| complete(n, s))),
        ("hypercube", &[d, s]) => Some(TopologyPoint::new(name, move |_| hypercube(d as u32, s))),
        ("torus", &[r, c, s]) => Some(TopologyPoint::new(name, move |_| torus2d(r, c, s))),
        ("vl2", &[a, i]) => Some(TopologyPoint::new(name, move |_| {
            vl2(Vl2Params {
                d_a: a,
                d_i: i,
                tors: None,
            })
        })),
        _ => None,
    }
}

/// Parse a sweep traffic spec into a traffic-axis point.
fn parse_traffic_model(spec: &str) -> Option<dctopo::core::TrafficModel> {
    use dctopo::core::TrafficModel;
    match spec {
        "permutation" => Some(TrafficModel::Permutation),
        "all-to-all" => Some(TrafficModel::AllToAll),
        _ => {
            if let Some(pct) = spec.strip_prefix("chunky:") {
                let percent: f64 = pct.parse().ok()?;
                (0.0..=100.0)
                    .contains(&percent)
                    .then_some(TrafficModel::Chunky { percent })
            } else if let Some(hot) = spec.strip_prefix("hotspot:") {
                let hot: usize = hot.parse().ok()?;
                (hot >= 1).then_some(TrafficModel::Hotspot { hot })
            } else {
                None
            }
        }
    }
}

/// Split a comma list, parsing each item with `f`; exits on a bad item.
fn parse_list<T>(what: &str, spec: &str, f: impl Fn(&str) -> Option<T>) -> Vec<T> {
    spec.split(',')
        .map(|item| {
            f(item.trim()).unwrap_or_else(|| {
                eprintln!("bad {what} '{item}'");
                usage();
            })
        })
        .collect()
}

fn cmd_sweep(args: &Args) {
    use dctopo::core::{BackendChoice, Degradation, Scenario, SweepRunner, SweepSpec};

    let seed: u64 = args.get("seed").unwrap_or(1);
    let families = args
        .values
        .get("families")
        .map(String::as_str)
        .unwrap_or("rrg:16x8x4,rrg:32x10x6,rrg:48x12x8");
    let topologies = parse_list("family", families, parse_family);
    let traffic_spec = args
        .values
        .get("traffic")
        .map(String::as_str)
        .unwrap_or("permutation,all-to-all,chunky:50");
    let traffic = parse_list("traffic model", traffic_spec, parse_traffic_model);
    let backends_spec = args
        .values
        .get("backends")
        .map(String::as_str)
        .unwrap_or("fptas");
    let backends = parse_list("backend", backends_spec, |s| {
        parse_backend(s).map(|(backend, strict)| BackendChoice { backend, strict })
    });

    // degradation axis: link-failure levels × switch-failure levels ×
    // capacity scales, named so cells stay self-describing
    let failures: Vec<usize> = parse_list(
        "failure count",
        args.values
            .get("failures")
            .map(String::as_str)
            .unwrap_or("0,2,4"),
        |s| s.parse().ok(),
    );
    let switch_failures: Vec<usize> = parse_list(
        "switch-failure count",
        args.values
            .get("switch-failures")
            .map(String::as_str)
            .unwrap_or("0"),
        |s| s.parse().ok(),
    );
    let scales: Vec<f64> = parse_list(
        "capacity scale",
        args.values
            .get("scales")
            .map(String::as_str)
            .unwrap_or("1.0"),
        |s| s.parse().ok(),
    );
    let mut scenarios = Vec::new();
    for &links in &failures {
        for &switches in &switch_failures {
            for &factor in &scales {
                let mut degradations = Vec::new();
                let mut name_parts = Vec::new();
                if links > 0 {
                    degradations.push(Degradation::FailLinks { count: links, seed });
                    name_parts.push(format!("fail:{links}"));
                }
                if switches > 0 {
                    degradations.push(Degradation::FailSwitches {
                        count: switches,
                        seed,
                    });
                    name_parts.push(format!("sw-fail:{switches}"));
                }
                if factor != 1.0 {
                    degradations.push(Degradation::ScaleCapacity { factor });
                    name_parts.push(format!("scale:{factor}"));
                }
                let name = if name_parts.is_empty() {
                    "baseline".to_string()
                } else {
                    name_parts.join("+")
                };
                scenarios.push(Scenario::new(name, degradations));
            }
        }
    }

    let opts = if args.flag("precise") {
        FlowOptions::precise()
    } else {
        FlowOptions::fast()
    };
    let spec = SweepSpec {
        topologies,
        traffic,
        scenarios,
        backends,
        opts,
        seed,
        runs: args.get("runs").unwrap_or(1),
    };
    let [t, r, s, m, b] = [
        spec.topologies.len(),
        spec.runs.max(1),
        spec.scenarios.len(),
        spec.traffic.len(),
        spec.backends.len(),
    ];
    eprintln!(
        "# sweeping {t} topologies x {r} runs x {s} scenarios x {m} traffic \
         models x {b} backends = {} cells",
        t * r * s * m * b
    );
    let grid = SweepRunner::new(spec).run();
    println!(
        "{:<14} {:>3} {:<18} {:<12} {:<12} {:>10} {:>10} {:>9} {:>9}",
        "topology",
        "run",
        "scenario",
        "traffic",
        "backend",
        "throughput",
        "hop-bound",
        "gap",
        "flows"
    );
    for cell in &grid.cells {
        match &cell.result {
            Ok(mtr) => println!(
                "{:<14} {:>3} {:<18} {:<12} {:<12} {:>10.4} {:>10.4} {:>8.2}% {:>9}",
                cell.topology,
                cell.run,
                cell.scenario,
                cell.traffic,
                cell.backend,
                mtr.throughput,
                if mtr.hop_bound.is_finite() {
                    mtr.hop_bound
                } else {
                    f64::NAN
                },
                mtr.gap * 100.0,
                cell.flows
            ),
            Err(e) => println!(
                "{:<14} {:>3} {:<18} {:<12} {:<12} FAILED: {e}",
                cell.topology, cell.run, cell.scenario, cell.traffic, cell.backend
            ),
        }
    }
    eprintln!("# {}/{} cells ok", grid.ok_count(), grid.cells.len());
    let cache = grid.cache_stats();
    eprintln!(
        "# path cache: {} hits / {} misses across all block engines",
        cache.hits, cache.misses
    );
    if let Some(path) = args.values.get("json") {
        let records: Vec<SweepCellRecord> = grid.cells.iter().map(Into::into).collect();
        report::write_cells_json(path, &records).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            exit(1);
        });
        eprintln!("# wrote {} cell records to {path}", records.len());
    }
    if args.flag("strict") {
        if let Some(summary) = grid.error_summary() {
            eprintln!("sweep --strict: {summary}");
            exit(1);
        }
        eprintln!("# sweep --strict: all {} cells ok", grid.cells.len());
    }
}

fn cmd_search(args: &Args) {
    use dctopo::search::{CapacityBudget, Fidelity, MoveKind, SearchRunner, SearchSpec};

    let seed: u64 = args.get("seed").unwrap_or(1);
    let family_spec = args
        .values
        .get("family")
        .map(String::as_str)
        .unwrap_or("rrg:32x10x6");
    let point = parse_family(family_spec).unwrap_or_else(|| {
        eprintln!("bad family '{family_spec}'");
        usage();
    });
    let traffic_spec = args
        .values
        .get("traffic")
        .map(String::as_str)
        .unwrap_or("permutation");
    let model = parse_traffic_model(traffic_spec).unwrap_or_else(|| {
        eprintln!("bad traffic '{traffic_spec}'");
        usage();
    });

    let mut rng = StdRng::seed_from_u64(seed);
    let topo = match (point.build)(&mut rng) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to build {family_spec}: {e}");
            exit(1);
        }
    };
    let tm = match model.generate(&topo, &mut rng) {
        Ok(tm) => tm,
        Err(e) => {
            eprintln!("failed to generate {traffic_spec} traffic: {e}");
            exit(1);
        }
    };

    let mode = args
        .values
        .get("mode")
        .map(String::as_str)
        .unwrap_or("structural");
    let budget = CapacityBudget {
        min_mult: args.get("min-mult").unwrap_or(0.5),
        max_mult: args.get("max-mult").unwrap_or(2.0),
        step: args.get("cap-step").unwrap_or(0.25),
    };
    let mut spec = SearchSpec::structural(
        seed,
        args.get("rounds").unwrap_or(4),
        args.get("batch").unwrap_or(12),
    );
    match mode {
        "structural" => {}
        "capacity" => {
            spec.structural = false;
            spec.capacity = Some(budget);
        }
        "both" => spec.capacity = Some(budget),
        other => {
            eprintln!("unknown mode '{other}' (want structural, capacity, or both)");
            usage();
        }
    }
    spec.opts = if args.flag("precise") {
        FlowOptions::precise()
    } else {
        FlowOptions::fast()
    };
    if let Some(b) = args.values.get("backend") {
        let (backend, strict) = parse_backend(b).unwrap_or_else(|| {
            eprintln!("unknown backend '{b}' (want fptas, fptas-strict, exact, or ksp:<k>)");
            usage();
        });
        spec.opts.backend = backend;
        spec.opts.strict_reference = strict;
    }
    if args.flag("certify-all") {
        spec.fidelity = Fidelity::CertifyAll;
    }
    if let Some(t) = args.get::<f64>("temperature") {
        spec.temperature = t;
        spec.cooling = args.get("cooling").unwrap_or(0.9);
    }

    let runner = match SearchRunner::new(&topo, &tm, spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("search setup failed: {e}");
            exit(1);
        }
    };
    eprintln!(
        "# searching {family_spec} ({} switches, {} links, {} servers), \
         {} traffic, mode {mode}, {} rounds x {} moves",
        topo.switch_count(),
        topo.graph.edge_count(),
        topo.server_count(),
        model.name(),
        runner.spec().rounds,
        runner.spec().batch,
    );
    let result = match runner.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("search failed: {e}");
            exit(1);
        }
    };
    println!(
        "initial: λ {:.4} (≤ {:.4} certified, hop bound {:.4}, cut bound {})",
        result.initial.lambda,
        result.initial.upper,
        result.initial.hop_bound,
        if result.initial.cut_bound.is_finite() {
            format!("{:.4}", result.initial.cut_bound)
        } else {
            "-".into()
        }
    );
    for mv in &result.accepted {
        println!(
            "round {:>3}: accepted {:<28} λ {:.4} -> {:.4}",
            mv.round,
            mv.kind.describe(),
            mv.lambda_before,
            mv.certificate.lambda
        );
    }
    println!(
        "final:   λ {:.4} (≤ {:.4} certified), improvement {:+.2}%, throughput {:.4}",
        result.best.lambda,
        result.best.upper,
        result.improvement() * 100.0,
        result.throughput()
    );
    println!(
        "ladder:  {} moves evaluated = {} certified + {} hop-pruned + \
         {} cut-pruned + {} invalid ({} settles total)",
        result.evaluated(),
        result.certified_solves.saturating_sub(1),
        result.pruned_hop(),
        result.pruned_cut(),
        result.invalid(),
        result.total_settles,
    );
    if result
        .accepted
        .iter()
        .any(|m| matches!(m.kind, MoveKind::ShiftCapacity { .. }))
    {
        let names: Vec<String> = (0..result.plan.group_count())
            .map(|g| {
                format!(
                    "{} x{:.3}",
                    result.plan.group_name(g, &result.topology),
                    result.plan.multiplier(g)
                )
            })
            .collect();
        println!("line-speed plan: {}", names.join(", "));
    }
}

fn cmd_plan(args: &Args) {
    use dctopo::plan::{
        cross_churn, maintenance_churn, plan_migration, Migration, PlanError, PlanSpec,
    };
    use dctopo::search::Fidelity;

    let seed: u64 = args.get("seed").unwrap_or(1);
    let family_spec = args
        .values
        .get("family")
        .map(String::as_str)
        .unwrap_or("rrg:16x6x4");
    let point = parse_family(family_spec).unwrap_or_else(|| {
        eprintln!("bad family '{family_spec}'");
        usage();
    });
    let traffic_spec = args
        .values
        .get("traffic")
        .map(String::as_str)
        .unwrap_or("permutation");
    let model = parse_traffic_model(traffic_spec).unwrap_or_else(|| {
        eprintln!("bad traffic '{traffic_spec}'");
        usage();
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = match (point.build)(&mut rng) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to build {family_spec}: {e}");
            exit(1);
        }
    };
    let tm = match model.generate(&topo, &mut rng) {
        Ok(tm) => tm,
        Err(e) => {
            eprintln!("failed to generate {traffic_spec} traffic: {e}");
            exit(1);
        }
    };

    let pairs: usize = args.get("pairs").unwrap_or(3);
    let moves = if args.flag("maintenance") {
        // restore-to-original churn (last 2 pairs shifted): λ_B ≈ λ_A
        // at any depth, so the floor sits inside the transient dip band
        maintenance_churn(&topo, pairs, 2.min(pairs), seed)
    } else {
        cross_churn(&topo, pairs, seed)
    };
    let moves = match moves {
        Ok(m) => m,
        Err(e) => {
            eprintln!("failed to generate churn migration: {e}");
            exit(1);
        }
    };
    let migration = match Migration::new(&topo, &moves) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("invalid migration: {e}");
            exit(1);
        }
    };

    // --naive is the benchmark baseline: declaration-ordered first-fit
    // that certifies every attempted step (no bounds, no screening),
    // learns nothing from violations, and pays the dominance-free
    // certificates (landed prefixes + singleton stages)
    let naive = args.flag("naive");
    let mut spec = PlanSpec {
        seed,
        learn: !naive,
        baseline: naive,
        fidelity: if naive || args.flag("certify-all") {
            Fidelity::CertifyAll
        } else {
            Fidelity::Ladder
        },
        ..PlanSpec::default()
    };
    if let Some(frac) = args.get::<f64>("floor-frac") {
        spec.floor_frac = frac;
    }
    spec.floor = args.get("floor");
    if let Some(p) = args.get("probes") {
        spec.cut_probes = p;
    }
    if let Some(m) = args.get("max-solves") {
        spec.max_solves = m;
    }
    if args.flag("precise") {
        spec.opts = FlowOptions::precise();
    }
    if let Some(b) = args.values.get("backend") {
        let (backend, strict) = parse_backend(b).unwrap_or_else(|| {
            eprintln!("unknown backend '{b}' (want fptas, fptas-strict, exact, or ksp:<k>)");
            usage();
        });
        spec.opts.backend = backend;
        spec.opts.strict_reference = strict;
    }

    eprintln!(
        "# planning {family_spec} ({} switches, {} links), {} traffic, \
         {} moves ({pairs} churn pairs), mode {}",
        topo.switch_count(),
        topo.graph.edge_count(),
        model.name(),
        migration.move_count(),
        if naive { "naive" } else { "pruned" },
    );
    match plan_migration(&topo, &tm, &migration, &spec) {
        Ok(plan) => {
            println!(
                "endpoints: λ_A {:.4}, λ_B {:.4}; safety floor {:.4}",
                plan.lambda_a, plan.lambda_b, plan.floor
            );
            for (i, stage) in plan.stages.iter().enumerate() {
                println!(
                    "stage {:>2}: λ {:.4} with {} move(s) in flight",
                    i,
                    stage.lambda,
                    stage.moves.len()
                );
                for &m in &stage.moves {
                    println!(
                        "          move {:>2}: {}",
                        m,
                        migration.moves()[m].describe()
                    );
                }
            }
            println!(
                "plan: {} moves in {} stages (max {} concurrent), achieved floor {:.4} ≥ {:.4}",
                plan.order.len(),
                plan.stages.len(),
                plan.parallelism(),
                plan.achieved_floor,
                plan.floor
            );
            let s = &plan.stats;
            println!(
                "work: {} certified solves ({} ordering attempts + {} stage-packing), \
                 {} hop-pruned + {} cut-pruned + {} memo hits, {} backtracks, \
                 {} conflicts learned",
                s.certified_solves,
                s.attempts,
                s.stage_solves,
                s.hop_rejected,
                s.cut_rejected,
                s.memo_hits,
                s.backtracks,
                s.conflicts_learned
            );
            println!("fingerprint: {:#018x}", plan.fingerprint());
        }
        Err(PlanError::NoSafeOrdering {
            best_floor,
            witness_prefix,
            learned_conflicts,
            degraded,
        }) => {
            eprintln!(
                "no safe ordering: floor {:.4} unreachable (best {best_floor:.4}, \
                 witness depth {}, {} learned conflicts)",
                degraded.floor,
                witness_prefix.len(),
                learned_conflicts.len()
            );
            eprintln!(
                "degraded best-floor ordering ({} of {} steps violate the floor):",
                degraded.violations.len(),
                degraded.order.len()
            );
            for (pos, (&m, &lambda)) in degraded
                .order
                .iter()
                .zip(degraded.step_lambda.iter())
                .enumerate()
            {
                let mark = if degraded.violations.contains(&pos) {
                    " VIOLATES"
                } else {
                    ""
                };
                eprintln!(
                    "  step {:>2}: λ {:.4}{mark}  move {:>2}: {}",
                    pos,
                    lambda,
                    m,
                    migration.moves()[m].describe()
                );
            }
            exit(1);
        }
        Err(e) => {
            eprintln!("planning failed: {e}");
            exit(1);
        }
    }
}

/// Parse a `--routing` argument (`decomposed`, `ksp:<k>`, `ecmp:<n>`).
fn parse_routing(s: &str) -> Option<RoutingMode> {
    if s == "decomposed" {
        return Some(RoutingMode::Decomposed);
    }
    if let Some(k) = s.strip_prefix("ksp:") {
        let k: usize = k.parse().ok()?;
        return (k > 0).then_some(RoutingMode::Ksp { k });
    }
    if let Some(n) = s.strip_prefix("ecmp:") {
        let limit: usize = n.parse().ok()?;
        return (limit > 0).then_some(RoutingMode::Ecmp { limit });
    }
    None
}

fn cmd_packetsim(args: &Args) {
    let family = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let seed: u64 = args.get("seed").unwrap_or(1);
    let traffic = args
        .values
        .get("traffic")
        .cloned()
        .unwrap_or_else(|| "permutation".into());
    let mut opts = if args.flag("precise") {
        FlowOptions::precise()
    } else {
        FlowOptions::default()
    };
    if let Some(spec) = args.values.get("backend") {
        let (backend, strict) = parse_backend(spec).unwrap_or_else(|| {
            eprintln!("unknown backend '{spec}' (want fptas, fptas-strict, exact, or ksp:<k>)");
            usage();
        });
        opts.backend = backend;
        opts.strict_reference = strict;
    }
    let routing = match args.values.get("routing") {
        Some(spec) => parse_routing(spec).unwrap_or_else(|| {
            eprintln!("unknown routing '{spec}' (want decomposed, ksp:<k>, or ecmp:<n>)");
            usage();
        }),
        None => RoutingMode::Decomposed,
    };
    let mut params = PacketParams {
        routing,
        utilization: args.get("utilization").unwrap_or(0.9),
        ..PacketParams::default()
    };
    if args.flag("window") {
        params.mode = dctopo::packetsim::TransportMode::Window;
    }
    if let Some(d) = args.get("duration") {
        params.duration = d;
    }
    if let Some(w) = args.get("warmup") {
        params.warmup = w;
    }
    if let Some(q) = args.get("queue") {
        params.queue = q;
    }
    if let Some(r) = args.get("rto") {
        params.rto = r;
    }
    if let Some(c) = args.get("cwnd") {
        params.initial_cwnd = c;
    }
    let max_pairs: u128 = args.get("max-pairs").unwrap_or(DEFAULT_MAX_PAIRS);
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = build_topology(family, args, &mut rng);
    let tm = build_traffic(&traffic, &topo, &mut rng, max_pairs);
    let engine = dctopo::core::ThroughputEngine::new(&topo);
    let fail_links: usize = args.get("failures").unwrap_or(0);
    let cv = if fail_links > 0 {
        let sc = Scenario::new(
            format!("fail-{fail_links}"),
            vec![Degradation::FailLinks {
                count: fail_links,
                seed,
            }],
        );
        let applied = match sc.apply(&topo, engine.net()) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("scenario failed to apply: {e}");
                exit(1);
            }
        };
        engine.covalidate_scenario(&applied, &tm, &opts, &params)
    } else {
        engine.covalidate(&tm, &opts, &params)
    };
    let cv = match cv {
        Ok(cv) => cv,
        Err(e) => {
            eprintln!("co-validation failed: {e}");
            exit(1);
        }
    };
    println!(
        "topology: {} switches / {} links / {} servers; traffic: {} flows; {} failed links",
        topo.switch_count(),
        topo.graph.edge_count(),
        topo.server_count(),
        tm.flow_count(),
        fail_links
    );
    println!(
        "certified: network λ {:.4} ≤ {:.4} upper bound",
        cv.lambda, cv.upper_bound
    );
    println!(
        "packet level: {} commodities at η = {:.2}; goodput/offer mean {:.4}, min {:.4}",
        cv.commodity_offered.len(),
        params.utilization,
        cv.mean_ratio(),
        cv.min_ratio()
    );
    println!(
        "sim: {} events, {} delivered, {} drops, {} retransmits, trace {:#018x}",
        cv.result.events,
        cv.result.delivered,
        cv.result.drops,
        cv.result.retransmits,
        cv.result.trace_hash
    );
    // the co-validation verdict: four packets of slack per measurement
    // window covers goodput's packet granularity plus warmup-boundary
    // backlog drain (see CoValidation::upholds_law). Closed-loop AIMD
    // legitimately exceeds the scaled offer, so window mode checks the
    // demand-normalized goodput against the certified upper bound.
    if args.flag("window") {
        let witnessed = cv.normalized_min_goodput();
        let slack = 4.0 / cv.measure_window;
        println!("packet-level witnessed λ: {witnessed:.4}");
        if witnessed <= cv.upper_bound + slack {
            println!("co-validation law upheld: witnessed λ within the certified upper bound");
        } else {
            eprintln!(
                "CO-VALIDATION VIOLATION: witnessed λ {witnessed:.4} exceeds the \
                 certified upper bound {:.4}",
                cv.upper_bound
            );
            exit(1);
        }
    } else if cv.upholds_law(4.0) {
        println!("co-validation law upheld: goodput within the certified offer");
    } else {
        eprintln!("CO-VALIDATION VIOLATION: goodput exceeds the certified offer");
        exit(1);
    }
}

fn cmd_serve(args: &Args) {
    use dctopo::serve::{ServeConfig, Server};

    let family = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let seed: u64 = args.get("seed").unwrap_or(1);
    let traffic = args
        .values
        .get("traffic")
        .cloned()
        .unwrap_or_else(|| "permutation".into());
    let mut cfg = ServeConfig {
        opts: if args.flag("precise") {
            FlowOptions::precise()
        } else {
            FlowOptions::fast()
        },
        warm_default: !args.flag("no-warm"),
    };
    if let Some(spec) = args.values.get("backend") {
        let (backend, strict) = parse_backend(spec).unwrap_or_else(|| {
            eprintln!("unknown backend '{spec}' (want fptas, fptas-strict, exact, or ksp:<k>)");
            usage();
        });
        cfg.opts.backend = backend;
        cfg.opts.strict_reference = strict;
    }
    let max_pairs: u128 = args.get("max-pairs").unwrap_or(DEFAULT_MAX_PAIRS);
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = build_topology(family, args, &mut rng);
    let tm = build_traffic(&traffic, &topo, &mut rng, max_pairs);
    // the banner goes to stderr: stdout is the protocol channel
    eprintln!(
        "# serving {family}: {} switches / {} links / {} servers; \
         traffic: {} flows; warm-start default {}",
        topo.switch_count(),
        topo.graph.edge_count(),
        topo.server_count(),
        tm.flow_count(),
        if cfg.warm_default { "on" } else { "off" },
    );
    let mut server = Server::new(&topo, tm, cfg);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match server.run(stdin.lock(), stdout.lock()) {
        Ok(stats) => {
            eprintln!(
                "# served {} queries in {} batches ({} errors, {} warm hits / {} misses)",
                stats.queries, stats.batches, stats.errors, stats.warm_hits, stats.warm_misses
            );
            let cache = server.engine().cache_stats();
            eprintln!(
                "# path cache: {} hits / {} misses over {} structure keys",
                cache.hits,
                cache.misses,
                server.engine().path_cache().key_stats().len()
            );
            server.engine().emit_cache_trace();
        }
        Err(e) => {
            eprintln!("serve I/O error: {e}");
            exit(1);
        }
    }
}

/// A deterministic field of a parsed trace event, as f64 (0.0 when
/// absent).
fn ev_f64(ev: &dctopo::obs::Json, key: &str) -> f64 {
    ev.get(key)
        .and_then(dctopo::obs::Json::as_f64)
        .unwrap_or(0.0)
}

/// A non-deterministic (`nd`) field of a parsed trace event, as f64.
fn ev_nd_f64(ev: &dctopo::obs::Json, key: &str) -> f64 {
    ev.get("nd")
        .and_then(|nd| nd.get(key))
        .and_then(dctopo::obs::Json::as_f64)
        .unwrap_or(0.0)
}

fn cmd_profile(args: &Args) {
    use dctopo::obs::{self as obs, Json};

    let family = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let seed: u64 = args.get("seed").unwrap_or(1);
    let traffic = args
        .values
        .get("traffic")
        .cloned()
        .unwrap_or_else(|| "permutation".into());
    let mut opts = if args.flag("precise") {
        FlowOptions::precise()
    } else {
        FlowOptions::default()
    };
    if let Some(spec) = args.values.get("backend") {
        let (backend, strict) = parse_backend(spec).unwrap_or_else(|| {
            eprintln!("unknown backend '{spec}' (want fptas, fptas-strict, exact, or ksp:<k>)");
            usage();
        });
        opts.backend = backend;
        opts.strict_reference = strict;
    }
    if let Some(p) = args.get::<usize>("phases") {
        if p == 0 {
            eprintln!("--phases must be positive");
            usage();
        }
        opts.max_phases = p;
        // a deliberate phase cap is a wall budget, not a convergence
        // question: don't let the stall heuristic cut the run short
        opts.stall_phases = opts.stall_phases.max(p);
    }
    if let Some(e) = args.get::<f64>("eps") {
        if !(e > 0.0 && e < 1.0) {
            eprintln!("--eps must be in (0, 1)");
            usage();
        }
        opts.epsilon = e;
    }
    let max_pairs: u128 = args.get("max-pairs").unwrap_or(DEFAULT_MAX_PAIRS);
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = build_topology(family, args, &mut rng);
    let engine = dctopo::core::ThroughputEngine::new(&topo);

    // the profile recorder is always the in-memory sink (replacing a
    // --trace file sink installed by main: nothing was emitted yet);
    // --trace makes the drained events land on disk afterwards too
    obs::enable_memory();
    // (throughput, network λ, certified upper bound, NIC cap) from
    // whichever solve path the traffic spec selects
    let res = if let Some(agg) = parse_aggregate(&traffic, topo.server_count()) {
        eprintln!(
            "# profiling {family}: {} switches / {} links / {} servers; \
             traffic {traffic} ({} flows, aggregated)",
            topo.switch_count(),
            topo.graph.edge_count(),
            topo.server_count(),
            agg.flow_count()
        );
        match engine.solve_aggregate(&agg, &opts) {
            Ok(r) => (
                r.throughput,
                r.network_lambda,
                r.network_upper_bound,
                r.nic_limit,
            ),
            Err(e) => {
                eprintln!("profile solve failed: {e}");
                exit(1);
            }
        }
    } else {
        let tm = build_traffic(&traffic, &topo, &mut rng, max_pairs);
        eprintln!(
            "# profiling {family}: {} switches / {} links / {} servers; \
             traffic {traffic} ({} flows)",
            topo.switch_count(),
            topo.graph.edge_count(),
            topo.server_count(),
            tm.flow_count()
        );
        match engine.solve(&tm, &opts) {
            Ok(r) => (
                r.throughput,
                r.network_lambda,
                r.network_upper_bound,
                r.nic_limit,
            ),
            Err(e) => {
                eprintln!("profile solve failed: {e}");
                exit(1);
            }
        }
    };
    engine.emit_cache_trace();
    let lines = obs::drain_memory();
    obs::disable();
    if let Some(path) = args.values.get("trace") {
        let mut text = lines.join("\n");
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write trace to {path}: {e}");
            exit(1);
        }
        eprintln!("# wrote {} trace events to {path}", lines.len());
    }

    println!(
        "throughput {:.4} (network λ {:.4} ≤ {:.4} certified, NIC cap {:.4})",
        res.0, res.1, res.2, res.3
    );

    let events: Vec<Json> = lines.iter().filter_map(|l| Json::parse(l).ok()).collect();
    // wall/count breakdown keyed by event kind, first-appearance order
    let mut kinds: Vec<(String, u64, f64)> = Vec::new();
    for ev in &events {
        let kind = ev
            .get("ev")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let wall_ms = ev_nd_f64(ev, "wall_us") / 1000.0;
        match kinds.iter_mut().find(|(k, _, _)| *k == kind) {
            Some(e) => {
                e.1 += 1;
                e.2 += wall_ms;
            }
            None => kinds.push((kind, 1, wall_ms)),
        }
    }
    println!("{:<16} {:>8} {:>12}", "event", "count", "wall_ms");
    for (kind, count, wall_ms) in &kinds {
        println!("{kind:<16} {count:>8} {wall_ms:>12.1}");
    }

    // the end-of-solve summary event carries the work profile
    let summary = events.iter().rev().find(|e| {
        matches!(
            e.get("ev").and_then(Json::as_str),
            Some("fptas_solve" | "grouped_solve")
        )
    });
    if let Some(s) = summary {
        println!(
            "solve: {} phases, {} settles, {} groups, λ {:.4} ≤ {:.4}",
            ev_f64(s, "phases"),
            ev_f64(s, "settles"),
            ev_f64(s, "groups"),
            ev_f64(s, "lambda"),
            ev_f64(s, "upper_bound")
        );
        if s.get("aug_exact").is_some() {
            println!(
                "reuse ladder: {} exact + {} drift augmentations, {} repairs, \
                 {} rescale rebuilds",
                ev_f64(s, "aug_exact"),
                ev_f64(s, "aug_drift"),
                ev_f64(s, "repairs"),
                ev_f64(s, "rescale_rebuilds")
            );
        }
        println!(
            "shortest-path trees: {} built, {} settles",
            ev_f64(s, "sssp_runs"),
            ev_f64(s, "settles")
        );
    }
    let cache = engine.cache_stats();
    println!("path cache: {} hits / {} misses", cache.hits, cache.misses);
}

fn cmd_bounds(args: &Args) {
    let n: usize = args.require("switches");
    let r: usize = args.require("degree");
    let flows: usize = args.require("flows");
    match aspl_lower_bound(n, r) {
        Ok(d_star) => {
            println!("ASPL lower bound d*({n}, {r}) = {d_star:.4}");
            println!(
                "Theorem-1 throughput bound for {flows} uniform flows: {:.4}",
                throughput_upper_bound(n, r, flows)
            );
        }
        Err(e) => {
            eprintln!("invalid parameters: {e}");
            exit(1);
        }
    }
}

fn cmd_vl2_study(args: &Args) {
    let d_a: usize = args.require("da");
    let d_i: usize = args.require("di");
    let runs: usize = args.get("runs").unwrap_or(2);
    let full = d_a * d_i / 4;
    println!("VL2(D_A={d_a}, D_I={d_i}): design capacity {full} ToRs");
    let search = SupportSearch {
        runs,
        ..SupportSearch::default()
    };
    let stock_build = |tors: usize, _s: u64| {
        vl2(Vl2Params {
            d_a,
            d_i,
            tors: Some(tors),
        })
    };
    let rewired_build = |tors: usize, s: u64| {
        let mut rng = StdRng::seed_from_u64(s);
        rewired_vl2(
            Vl2Params {
                d_a,
                d_i,
                tors: Some(tors),
            },
            &mut rng,
        )
    };
    let stock = search
        .max_tors(full.div_ceil(2), full, &stock_build, &permutation_tm)
        .unwrap_or(None)
        .unwrap_or(0);
    let rewired = search
        .max_tors(full.div_ceil(2), full * 2, &rewired_build, &permutation_tm)
        .unwrap_or(None)
        .unwrap_or(0);
    println!("stock VL2:   {stock} ToRs at full throughput");
    println!("rewired:     {rewired} ToRs at full throughput (same equipment)");
    if stock > 0 {
        println!(
            "improvement: {:+.1}%",
            100.0 * (rewired as f64 / stock as f64 - 1.0)
        );
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    let cmd = raw[0].as_str();
    let args = Args::parse(&raw[1..]);
    // size the worker pool before the first parallel operation; the
    // flag outranks DCTOPO_THREADS, which outranks RAYON_NUM_THREADS
    if let Some(threads) = args.get::<usize>("threads") {
        if threads == 0 {
            eprintln!("--threads must be positive");
            usage();
        }
        std::env::set_var("DCTOPO_THREADS", threads.to_string());
    }
    // telemetry sink: the flag outranks DCTOPO_TRACE (profile swaps in
    // its own in-memory sink either way)
    if let Some(path) = args.values.get("trace") {
        if let Err(e) = dctopo::obs::enable_file(path) {
            eprintln!("cannot open trace file {path}: {e}");
            exit(1);
        }
    } else {
        dctopo::obs::auto_init();
    }
    match cmd {
        "build" => cmd_build(&args),
        "solve" => cmd_solve(&args),
        "sweep" | "--sweep" => cmd_sweep(&args),
        "search" => cmd_search(&args),
        "plan" => cmd_plan(&args),
        "packetsim" => cmd_packetsim(&args),
        "serve" => cmd_serve(&args),
        "profile" => cmd_profile(&args),
        "bounds" => cmd_bounds(&args),
        "vl2-study" => cmd_vl2_study(&args),
        _ => usage(),
    }
    dctopo::obs::flush();
}
