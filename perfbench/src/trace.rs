//! Reading the events the program already emits: a traced pass runs
//! with the `dctopo-obs` memory sink on and hands back the parsed
//! events; helpers sum their fields into per-layer metrics.

use dctopo_obs::{self as obs, Json};

use crate::report::Layers;

/// Run `f` with the in-memory trace sink enabled and return its result
/// with every event it emitted.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<Json>) {
    obs::enable_memory();
    let out = f();
    let lines = obs::drain_memory();
    obs::disable();
    let events = lines
        .iter()
        .map(|l| Json::parse(l).expect("trace lines are JSON"))
        .collect();
    (out, events)
}

/// The events of one kind.
fn of<'a>(events: &'a [Json], kind: &'a str) -> impl Iterator<Item = &'a Json> + 'a {
    events
        .iter()
        .filter(move |e| e.get("ev").and_then(Json::as_str) == Some(kind))
}

/// Sum of a deterministic field over the events of one kind, with the
/// number of events summed.
pub fn sum(events: &[Json], kind: &str, field: &str) -> (f64, u64) {
    of(events, kind).fold((0.0, 0), |(s, n), e| {
        (
            s + e.get(field).and_then(Json::as_f64).unwrap_or(0.0),
            n + 1,
        )
    })
}

/// Sum of an `nd` field (a wall clock in µs) over the events of one
/// kind, in ms, with the number of events summed.
pub fn sum_nd_ms(events: &[Json], kind: &str, field: &str) -> (f64, u64) {
    of(events, kind).fold((0.0, 0), |(s, n), e| {
        let us = e
            .get("nd")
            .and_then(|nd| nd.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        (s + us / 1e3, n + 1)
    })
}

/// Record the pairwise FPTAS counters of one traced pass (the
/// `fptas_solve` events of the fast path) and the tree-reuse ratio: the
/// share of augmentations routed on a stored tree without a repair or a
/// rebuild. (`aug_exact` already includes the repaired and rebuilt
/// augmentations, so `exact + drift` is every augmentation.)
pub fn record_fptas(layers: &mut Layers, events: &[Json]) {
    let (phases, solves) = sum(events, "fptas_solve", "phases");
    let (settles, _) = sum(events, "fptas_solve", "settles");
    let (exact, _) = sum(events, "fptas_solve", "aug_exact");
    let (drift, _) = sum(events, "fptas_solve", "aug_drift");
    let (repairs, _) = sum(events, "fptas_solve", "repairs");
    let (rebuilds, _) = sum(events, "fptas_solve", "rescale_rebuilds");
    layers.count("flow.phases", phases, solves);
    layers.count("flow.settles", settles, solves);
    layers.count("flow.aug_exact", exact, solves);
    layers.count("flow.aug_drift", drift, solves);
    layers.count("flow.repairs", repairs, solves);
    if exact + drift > 0.0 {
        let reused = exact + drift - repairs - rebuilds;
        layers.ratio("flow.tree_reuse_ratio", reused / (exact + drift), solves);
    }
}

/// Record the path-set cache counters of one pass.
pub fn record_cache(layers: &mut Layers, stats: dctopo_flow::CacheStats) {
    let (hits, misses) = (stats.hits as f64, stats.misses as f64);
    layers.count("flow.cache_hits", hits, 1);
    layers.count("flow.cache_misses", misses, 1);
    if hits + misses > 0.0 {
        layers.ratio("flow.cache_hit_ratio", hits / (hits + misses), 1);
    }
}
