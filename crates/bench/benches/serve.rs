//! Criterion benchmark for the serve engine's warm re-solves: a
//! degradation-query mix (link failures at several depths, a capacity
//! re-rate, a switch failure) re-queried across rounds of traffic
//! drift, answered by one server with per-structure warm-starting on
//! vs the identical request stream with `"warm":false` (every solve
//! cold, same batching, same path-set cache discipline).
//!
//! Before timing, the warm==cold equivalence law is asserted on every
//! response pair: both certified intervals `[λ, upper]` contain the
//! true optimum, so they must overlap, and each warm λ must sit below
//! its own certified dual. Warm-starting may only skip work, never
//! change what is certified.
//!
//! The headline gate is **warm ≥ 2× cold** wall-clock on the drift
//! rounds: inherited terminal lengths let a drifted re-solve skip the
//! coarse-ε annealing ladder and resume nearly converged.
//!
//! ```text
//! DCTOPO_BENCH_JSON=BENCH_serve.json cargo bench -p dctopo-bench --bench serve
//! ```

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use dctopo_bench::report::{self, SpeedupRecord};
use dctopo_obs::json::Json;
use dctopo_serve::{ServeConfig, Server};
use dctopo_topology::Topology;
use dctopo_traffic::TrafficMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The degradation mix: every structure the drift rounds re-query.
const STRUCTURES: [&str; 6] = [
    "[]",
    r#"[{"kind":"fail-links","count":4,"seed":3}]"#,
    r#"[{"kind":"fail-links","count":8,"seed":3}]"#,
    r#"[{"kind":"fail-links","count":12,"seed":7}]"#,
    r#"[{"kind":"scale-capacity","factor":0.7}]"#,
    r#"[{"kind":"fail-switches","count":1,"seed":5}]"#,
];

const DRIFT_ROUNDS: u64 = 4;

fn drift_round(round: u64, warm: bool) -> Vec<String> {
    STRUCTURES
        .iter()
        .enumerate()
        .map(|(i, degrade)| {
            format!(
                r#"{{"id":{id},"degrade":{degrade},"drift":{{"spread":0.02,"seed":{round}}},"warm":{warm}}}"#,
                id = round * 100 + i as u64,
            )
        })
        .collect()
}

fn instance(switches: usize, seed: u64) -> (Topology, TrafficMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::random_regular(switches, 12, 8, &mut rng).expect("rrg");
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    (topo, tm)
}

/// Run the priming batch plus all drift rounds, returning the drift
/// responses and the wall-clock spent on the drift rounds only.
fn run_stream(server: &mut Server<'_>, warm: bool) -> (Vec<String>, f64) {
    // the priming batch cold-touches every structure (untimed on both
    // sides: it is identical work, and it is what fills the warm slots)
    let prime: Vec<String> = STRUCTURES
        .iter()
        .enumerate()
        .map(|(i, d)| format!(r#"{{"id":{i},"degrade":{d}}}"#))
        .collect();
    server.serve_batch(&prime);
    let t = Instant::now();
    let mut responses = Vec::new();
    for round in 1..=DRIFT_ROUNDS {
        responses.extend(server.serve_batch(&drift_round(round, warm)));
    }
    (responses, t.elapsed().as_secs_f64() * 1e3)
}

fn interval(line: &str) -> (f64, f64) {
    let v = Json::parse(line).expect("response parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    let f = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(f64::INFINITY);
    (f("network_lambda"), f("upper_bound"))
}

fn bench_serve(c: &mut Criterion) {
    let (topo, tm) = instance(48, 20140402);
    let mut warm_server = Server::new(&topo, tm.clone(), ServeConfig::default());
    let mut cold_server = Server::new(&topo, tm.clone(), ServeConfig::default());

    // ---- correctness gate + one-shot timing (runs before criterion) ----
    let (cold_resp, old_ms) = run_stream(&mut cold_server, false);
    let (warm_resp, new_ms) = run_stream(&mut warm_server, true);
    assert_eq!(cold_resp.len(), warm_resp.len());
    let mut hits = 0usize;
    for (w, col) in warm_resp.iter().zip(&cold_resp) {
        let (wl, wu) = interval(w);
        let (cl, cu) = interval(col);
        // the equivalence law: warm may only skip work — its certified
        // interval must still bracket the optimum the cold one brackets
        assert!(wl <= wu * (1.0 + 1e-9), "warm primal above its dual: {w}");
        assert!(
            wl <= cu * (1.0 + 1e-9) && cl <= wu * (1.0 + 1e-9),
            "warm [{wl}, {wu}] and cold [{cl}, {cu}] are disjoint:\n{w}\n{col}"
        );
        if Json::parse(w).unwrap().get("warm").and_then(Json::as_bool) == Some(true) {
            hits += 1;
        }
    }
    assert_eq!(
        hits,
        warm_resp.len(),
        "every drift-round query must consume a warm slot"
    );
    let stats = warm_server.stats();
    assert_eq!(stats.warm_hits as usize, hits);
    assert_eq!(stats.errors, 0);

    // the headline gate: warm re-solves at least 2x faster
    let speedup = old_ms / new_ms;
    assert!(
        speedup >= 2.0,
        "warm drift rounds took {new_ms:.1} ms vs {old_ms:.1} ms cold — \
         {speedup:.2}x, expected >= 2x"
    );
    report::emit_from_env(&[SpeedupRecord {
        name: "serve_warm_resolve".into(),
        instance: format!(
            "RRG(48, 12, 8) permutation serve: {} structures (link failures \
             4/8/12, 0.7x re-rate, switch failure, baseline) x {DRIFT_ROUNDS} \
             drift rounds (spread 0.02), batched; warm per-structure FPTAS \
             resume ({} warm hits) vs identical stream with \"warm\":false; \
             certified intervals overlap pairwise on all {} responses",
            STRUCTURES.len(),
            stats.warm_hits,
            warm_resp.len()
        ),
        old_ms,
        new_ms,
        peak_rss_bytes: report::peak_rss_bytes(),
    }]);

    // ---- timed comparison on a smaller instance criterion can loop ----
    let (small_topo, small_tm) = instance(24, 20140402);
    let mut group = c.benchmark_group("serve_rrg24x12x8");
    group.sample_size(10);
    group.bench_function("cold_resolve", |b| {
        let mut s = Server::new(&small_topo, small_tm.clone(), ServeConfig::default());
        s.serve_batch(&drift_round(0, false));
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            s.serve_batch(&drift_round(round, false))
        })
    });
    group.bench_function("warm_resolve", |b| {
        let mut s = Server::new(&small_topo, small_tm.clone(), ServeConfig::default());
        s.serve_batch(&drift_round(0, true));
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            s.serve_batch(&drift_round(round, true))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
