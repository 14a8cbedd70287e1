//! `serve-whatif`: one closed-loop client drives `Server`s over
//! RRG(48,12,8) fabrics with permutation traffic — it sends a batch of
//! 2 queries and waits for both responses before sending the next. A
//! run covers 4 fabrics derived from the seed, each on a fresh server
//! with a 30-batch stream, 120 batches in all. The streams mix
//! first-touch structures (cold solves that write a warm slot), drifted
//! re-queries (warm resumes that read one), `ksp:8` overrides
//! (path-cache reads) and `"warm":false` queries. It is the only
//! workload that runs serve parse, evaluate and commit, and each query
//! reads state an earlier batch wrote. Spreading the batches over four
//! fabrics averages out how hard one random fabric happens to be, which
//! is what keeps the run-to-run spread of its metrics small.

use std::collections::BTreeMap;
use std::time::Instant;

use dctopo_core::Scenario;
use dctopo_obs::Json;
use dctopo_serve::{Op, Request, ServeConfig, ServeStats, Server};
use dctopo_topology::Topology;
use dctopo_traffic::TrafficMatrix;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::report::{self, Checks, Layers, Outcome};
use crate::{one_thread, trace, Config};

const SWITCHES: usize = 48;
const PORTS: usize = 12;
const DEGREE: usize = 8;
/// Fabrics (servers) per run.
const FABRICS: usize = 4;
/// Batches per fabric; `FABRICS × BATCHES` ≥ 100, so the p90 has ten
/// samples beyond it.
const BATCHES: usize = 30;
/// Distinct drift seeds a re-query draws from.
const DRIFTS: u64 = 2;
/// The structure `ksp:8` overrides name: the line-card mix, a
/// capacity-only view that keeps the base net's structure, so the first
/// override freezes its path sets and later ones read them.
const KSP_STRUCTURE: usize = 6;
/// Warm responses checked per reference batch.
const REFERENCE_BATCH: usize = 24;

/// Degradation shapes; each fabric has one structure of each shape,
/// with its own victim seed.
const SHAPES: [&str; 8] = [
    r#"[{"kind":"fail-links","count":4,"seed":SEED}]"#,
    r#"[{"kind":"fail-links","count":8,"seed":SEED}]"#,
    r#"[{"kind":"fail-links","count":12,"seed":SEED}]"#,
    r#"[{"kind":"fail-links","count":16,"seed":SEED}]"#,
    r#"[{"kind":"fail-switches","count":1,"seed":SEED}]"#,
    r#"[{"kind":"fail-switches","count":2,"seed":SEED}]"#,
    r#"[{"kind":"line-card-mix","fraction":0.25,"factor":0.5,"seed":SEED}]"#,
    r#"[{"kind":"fail-links","count":8,"seed":SEED},{"kind":"scale-capacity","factor":0.8}]"#,
];

/// One fabric of the run: its topology, base traffic and query stream.
struct Fabric {
    topo: Topology,
    tm: TrafficMatrix,
    batches: Vec<Vec<String>>,
}

fn instance(seed: u64) -> (Topology, TrafficMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::random_regular(SWITCHES, PORTS, DEGREE, &mut rng).expect("valid RRG");
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    (topo, tm)
}

/// The seed of fabric `f`; hashing the workload seed first keeps the
/// fabrics of consecutive workload seeds disjoint.
fn fabric_seed(seed: u64, f: usize) -> u64 {
    mix(mix(seed).wrapping_add(f as u64))
}

/// The run's fabrics.
fn fabrics(seed: u64) -> Vec<Fabric> {
    (0..FABRICS)
        .map(|f| {
            let (topo, tm) = instance(fabric_seed(seed, f));
            Fabric {
                topo,
                tm,
                batches: stream(fabric_seed(seed, f) ^ 0x5e7e_5eed),
            }
        })
        .collect()
}

/// One fabric's query stream: `BATCHES` batches of two request lines.
/// Its shape is fixed — the first four batches touch the eight
/// structures (cold solves); each later batch re-queries two structures
/// picked by a fixed hash of the batch index, with one of `DRIFTS`
/// drift seeds, except that the second query of batches 3 and 5 of
/// every eight is a `ksp:8` override of [`KSP_STRUCTURE`] and of batch
/// 7 a `"warm":false` query — so the seed changes only the fabric, the
/// traffic and the failed equipment, never the mix. Most batches are
/// warm re-queries, so the median batch sits inside that group rather
/// than on its edge with the cold ones.
fn stream(seed: u64) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let structures: Vec<String> = SHAPES
        .iter()
        .map(|shape| shape.replace("SEED", &(rng.next_u64() >> 33).to_string()))
        .collect();
    let query = |s: usize, drift: u64, extra: &str| {
        format!(
            r#""degrade":{},"drift":{{"spread":0.02,"seed":{drift}}}{extra}"#,
            structures[s]
        )
    };
    let mut id = 0u64;
    let mut line = |content: String| {
        id += 1;
        format!(r#"{{"id":{id},{content}}}"#)
    };
    let touch = structures.len() / 2;
    (0..BATCHES)
        .map(|b| {
            if b < touch {
                let cold = |s: usize| format!(r#""degrade":{}"#, structures[s]);
                return vec![line(cold(2 * b)), line(cold(2 * b + 1))];
            }
            let h = mix(b as u64);
            let n = structures.len() as u64;
            let (s0, s1) = ((h % n) as usize, ((h >> 8) % n) as usize);
            let (d0, d1) = ((h >> 16) % DRIFTS, (h >> 24) % DRIFTS);
            let first = query(s0, d0, "");
            let second = match b % 8 {
                3 | 5 => query(KSP_STRUCTURE, d1, r#","backend":"ksp:8""#),
                7 => query(s1, d1, r#","warm":false"#),
                _ => query(s1, d1, ""),
            };
            vec![line(first), line(second)]
        })
        .collect()
}

/// splitmix64 finalizer: a fixed, well-spread hash.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One closed-loop pass over the fabrics, each on a fresh server in
/// turn: responses and wall per batch (all fabrics, in order), the
/// whole pass's wall, and the servers' summed counters.
struct Pass {
    responses: Vec<Vec<String>>,
    walls: Vec<f64>,
    wall: f64,
    stats: ServeStats,
    cache: dctopo_flow::CacheStats,
}

fn drive(fabrics: &[Fabric]) -> Pass {
    let mut pass = Pass {
        responses: Vec::new(),
        walls: Vec::new(),
        wall: 0.0,
        stats: ServeStats::default(),
        cache: dctopo_flow::CacheStats::default(),
    };
    let t = Instant::now();
    for f in fabrics {
        let mut server = Server::new(&f.topo, f.tm.clone(), ServeConfig::default());
        for batch in &f.batches {
            let tb = Instant::now();
            pass.responses.push(server.serve_batch(batch));
            pass.walls.push(tb.elapsed().as_secs_f64());
        }
        let s = server.stats();
        pass.stats.batches += s.batches;
        pass.stats.queries += s.queries;
        pass.stats.errors += s.errors;
        pass.stats.warm_hits += s.warm_hits;
        pass.stats.warm_misses += s.warm_misses;
        let c = server.engine().cache_stats();
        pass.cache.hits += c.hits;
        pass.cache.misses += c.misses;
    }
    pass.wall = t.elapsed().as_secs_f64();
    pass
}

fn field(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Check every response of a pass: `ok`, a certified interval, and —
/// for warm resumes — an interval that overlaps a cold solve of the
/// same query (answered once per distinct query by a separate server
/// with `"warm":false`). Returns each fabric's worst gaps.
fn check_pass(fabrics: &[Fabric], pass: &Pass, checks: &mut Checks) -> Vec<report::Gaps> {
    let mut all = Vec::new();
    for (f, answered) in fabrics.iter().zip(pass.responses.chunks(BATCHES)) {
        let mut gaps = report::Gaps::default();
        // query content (the line without its id) -> warm intervals seen
        let mut warm: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
        for (batch, responses) in f.batches.iter().zip(answered) {
            checks.check(batch.len() == responses.len(), || {
                "batch answered with a different number of lines".into()
            });
            for (request, response) in batch.iter().zip(responses) {
                let v = Json::parse(response).expect("responses are JSON");
                let (lambda, upper) = (field(&v, "network_lambda"), field(&v, "upper_bound"));
                let ok = v.get("ok").and_then(Json::as_bool) == Some(true);
                checks.check(ok && report::certified(lambda, upper), || {
                    format!("{request} -> {response}")
                });
                if !ok {
                    continue;
                }
                let backend = v.get("backend").and_then(Json::as_str).unwrap_or("");
                gaps.add(backend, lambda, upper);
                if v.get("warm").and_then(Json::as_bool) == Some(true) {
                    let content = request.split_once(',').map_or("", |(_, c)| c);
                    warm.entry(content).or_default().push((lambda, upper));
                }
            }
        }
        let queries: Vec<(&str, Vec<(f64, f64)>)> = warm.into_iter().collect();
        let mut reference = Server::new(&f.topo, f.tm.clone(), ServeConfig::default());
        for chunk in queries.chunks(REFERENCE_BATCH) {
            let lines: Vec<String> = chunk
                .iter()
                .map(|(content, _)| {
                    format!(r#"{{{},"warm":false}}"#, &content[..content.len() - 1])
                })
                .collect();
            for ((content, intervals), response) in chunk.iter().zip(reference.serve_batch(&lines))
            {
                let v = Json::parse(&response).expect("responses are JSON");
                let (cl, cu) = (field(&v, "network_lambda"), field(&v, "upper_bound"));
                let slack = 1.0 + 1e-9;
                for &(wl, wu) in intervals {
                    checks.check(wl <= cu * slack && cl <= wu * slack, || {
                        format!("warm [{wl}, {wu}] and cold [{cl}, {cu}] are disjoint: {content}")
                    });
                }
            }
        }
        all.push(gaps);
    }
    all
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    if cfg.trace {
        return run_traced(cfg, checks);
    }
    let mut setup = report::SetupTimer::new(|| {
        for f in 0..FABRICS {
            let (topo, tm) = instance(fabric_seed(cfg.seed, f));
            std::hint::black_box(Server::new(&topo, tm, ServeConfig::default()));
        }
    });
    setup.sample();
    let fabrics = fabrics(cfg.seed);

    // one pass over the fabrics, each on a fresh server
    let pass = drive(&fabrics);
    setup.sample();
    let gaps = check_pass(&fabrics, &pass, &mut checks);
    setup.sample();
    // 1-thread leg: the first fabric's whole stream
    let single = one_thread(|| drive(&fabrics[..1]));
    checks.check(single.responses[..] == pass.responses[..BATCHES], || {
        "1-thread transcript differs from the pool-width transcript".into()
    });
    setup.sample();
    let stats = pass.stats;
    println!(
        "# serve-whatif: 1 pass over {FABRICS} fabrics x {BATCHES} batches, {} queries; \
         {} warm hits, {} warm misses, {} errors",
        stats.queries, stats.warm_hits, stats.warm_misses, stats.errors
    );

    let rate = stats.queries as f64 / pass.wall;
    Outcome {
        checks,
        end_to_end: [
            ("setup_s", setup.value()),
            ("solve_s", pass.wall),
            ("cells_per_s", rate),
            ("queries_per_s", rate),
            ("batch_p50_ms", report::median(&pass.walls) * 1e3),
            ("batch_p90_ms", report::percentile(&pass.walls, 0.9) * 1e3),
            ("peak_rss_mb", report::peak_rss_mb()),
            ("gap_max", report::gap_max(&gaps)),
        ]
        .into_iter()
        .collect(),
        layers: None,
    }
}

/// Replay what `serve_batch` does before it solves — parse every line,
/// then apply and lower each distinct structure of the batch once — as
/// timed calls into `Request::parse`, `Scenario::apply` and
/// `ThroughputEngine::scenario_demand`.
fn replay_front(f: &Fabric, layers: &mut Layers) {
    let server = Server::new(&f.topo, f.tm.clone(), ServeConfig::default());
    let engine = server.engine();
    for batch in &f.batches {
        let mut seen = Vec::new();
        for line in batch {
            let request = layers.time("serve.parse_ms", || Request::parse(line));
            let Ok(Request {
                op: Op::Query(q), ..
            }) = request
            else {
                continue;
            };
            let key = q.structure_key();
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let scenario = Scenario::new("replay", q.degradations.clone());
            let applied = layers
                .time("core.scenario_apply_ms", || {
                    scenario.apply(&f.topo, engine.net())
                })
                .expect("stream structures apply");
            layers.time("core.lower_ms", || engine.scenario_demand(&applied, &f.tm));
        }
    }
}

fn record_serve(layers: &mut Layers, pass: &Pass, events: &[Json]) {
    trace::record_fptas(layers, events);
    trace::record_cache(layers, pass.cache);
    let s = pass.stats;
    layers.count("serve.warm_hits", s.warm_hits as f64, s.queries);
    layers.count("serve.warm_misses", s.warm_misses as f64, s.queries);
    layers.count("serve.errors", s.errors as f64, s.queries);
    let eligible = (s.warm_hits + s.warm_misses).max(1) as f64;
    layers.ratio(
        "serve.warm_hit_ratio",
        s.warm_hits as f64 / eligible,
        s.queries,
    );
}

/// The traced run: timed set-up calls and the parse/apply/lower
/// replay, an untraced pass (reference wall, CPU utilisation), a traced
/// pass (per-query solve walls, counters, tracing overhead) and a
/// traced 1-thread pass (speed-up, second pass of every counter, and
/// the coverage of the layer calls, which run one after another there).
fn run_traced(cfg: &Config, mut checks: Checks) -> Outcome {
    let mut layers = Layers::default();
    let fabrics: Vec<Fabric> = (0..FABRICS)
        .map(|f| {
            let seed = fabric_seed(cfg.seed, f);
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = layers
                .time("topology.build_ms", || {
                    Topology::random_regular(SWITCHES, PORTS, DEGREE, &mut rng)
                })
                .expect("valid RRG");
            let tm = layers.time("traffic.gen_ms", || {
                TrafficMatrix::random_permutation(topo.server_count(), &mut rng)
            });
            let server = layers.time("graph.csr_build_ms", || {
                Server::new(&topo, tm.clone(), ServeConfig::default())
            });
            drop(server);
            Fabric {
                topo,
                tm,
                batches: stream(seed ^ 0x5e7e_5eed),
            }
        })
        .collect();
    for f in &fabrics {
        replay_front(f, &mut layers);
    }

    let cpu0 = report::cpu_seconds();
    let plain = drive(&fabrics);
    let cpu = report::cpu_seconds() - cpu0;
    let gaps = check_pass(&fabrics, &plain, &mut checks);
    layers.ratio("flow.ksp_gap_max", report::ksp_gap_max(&gaps), 1);

    let (traced, events) = trace::capture(|| drive(&fabrics));
    checks.check(traced.responses == plain.responses, || {
        "traced transcript differs".into()
    });
    record_serve(&mut layers, &traced, &events);
    let (solve_ms, n) = trace::sum_nd_ms(&events, "serve_query", "wall_us");
    layers.add_ms("serve.query_solve_ms", solve_ms, n);

    let (single, events) = one_thread(|| trace::capture(|| drive(&fabrics)));
    checks.check(single.responses == plain.responses, || {
        "1-thread transcript differs from the pool-width transcript".into()
    });
    record_serve(&mut layers, &single, &events);
    let (solve_1t_ms, _) = trace::sum_nd_ms(&events, "serve_query", "wall_us");
    let front = layers.sum_ms(&["serve.parse_ms", "core.scenario_apply_ms", "core.lower_ms"]);
    let coverage = (front + solve_1t_ms) / (single.wall * 1e3);

    layers.add_ms(
        "batch_p50_ms",
        report::median(&plain.walls) * 1e3,
        plain.walls.len() as u64,
    );
    layers.ratio("pool.cpu_util", cpu / (plain.wall * cfg.threads as f64), 1);
    layers.ratio("pool.speedup_2t", single.wall / traced.wall, 1);
    layers.ratio("obs.overhead", traced.wall / plain.wall, 1);
    layers.ratio("obs.coverage", coverage, 1);
    println!(
        "# serve-whatif traced: pass {:.3} s untraced, {:.3} s traced, {:.3} s at 1 thread; \
         timed layers cover {:.1}% of the 1-thread pass",
        plain.wall,
        traced.wall,
        single.wall,
        100.0 * coverage
    );
    Outcome {
        checks,
        end_to_end: Default::default(),
        layers: Some(layers),
    }
}
