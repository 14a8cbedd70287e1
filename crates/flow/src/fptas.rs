//! The Garg–Könemann / Fleischer FPTAS for max concurrent flow over the
//! shared [`CsrNet`], with certified primal and dual bounds,
//! phase-parallel shortest-path computation, and an incremental
//! shortest-path fast path.
//!
//! ## Sketch
//!
//! Maintain a length `l(a)` per arc, initially `1/c(a)`. In each *phase*,
//! route every commodity's demand along shortest paths under the current
//! lengths, multiplying the length of every used arc `a` by
//! `1 + ε·(sent_a / c(a))`; congested arcs grow exponentially long, so
//! later flow avoids them. The accumulated (infeasible) flow divided by
//! its maximum congestion is feasible; LP duality gives the upper bound
//! `λ* ≤ D(l)/α(l)` for *any* positive lengths `l`, where
//! `D(l) = Σ_a c(a)·l(a)` and `α(l) = Σ_j d_j · dist_l(s_j, t_j)`.
//! We track the best (smallest) dual bound seen and stop as soon as the
//! certified primal/dual gap is below `target_gap`.
//!
//! ## One routing step, two tree policies
//!
//! The phase loop (rescale, congestion scaling, best snapshot, stop
//! rules, ε anneal) is the shared driver in `driver.rs`. This module is
//! its *per-sink* routing step: commodities are grouped by source, and
//! each augmentation charges every sink's remaining demand to the
//! group's shortest-path tree, takes the capacity-scaled step `τ` and
//! grows the lengths of the arcs it used. Groups route *sequentially in
//! fixed order*; [`crate::FlowOptions::strict_reference`] selects the
//! tree policy:
//!
//! * **Reuse (default).** Each group keeps a *full* tree in its
//!   [`DijkstraWorkspace`] and routes against it through a three-tier
//!   ladder: (1) *exact reuse* — lengths only grow, so a path none of
//!   whose arcs changed since the tree was built is still shortest;
//!   (2) *Fleischer drift tolerance* — a touched path is still routed
//!   while its length stays within `1 + ε·DRIFT_FRACTION` of its tree
//!   distance; (3) *incremental repair* — [`CsrNet::dijkstra_repair`]
//!   re-settles just the subtrees under the arcs that grew, read from a
//!   global length-increase log with one cursor per group. Every
//!   [`EXACT_PASS_EVERY`] phases all trees are rebuilt in one
//!   **rayon-parallel** pass; the dual is harvested every phase from the
//!   (possibly mixed-age) trees with `D(l)` kept incrementally; a cold
//!   solve anneals ε down from [`COARSE_EPS`]; a [`WarmState`] seeds a
//!   re-solve. None of this bends correctness: the primal is feasible by
//!   construction and `D(l)/α(l)` bounds λ* for *any* positive lengths.
//! * **Fresh** (`strict_reference: true`). Every augmentation builds a
//!   new target-terminated tree, lengths grow by dividing by the
//!   capacity, and the exact dual is taken every 8 phases —
//!   operation-for-operation the trajectory of [`crate::reference`], so
//!   the two produce bit-identical results (the pinned legacy baseline).
//!
//! Whole-tree passes write disjoint per-group workspaces and every float
//! reduction runs sequentially in group order, so a seeded run is
//! **bit-identical at every thread count**. Routing stays sequential on
//! purpose: routing on stale length snapshots (the obvious way to
//! parallelise it) measurably costs more phases than it saves.

use std::collections::HashMap;
use std::time::Instant;

use dctopo_graph::{CsrNet, DijkstraWorkspace, NodeId};
use dctopo_obs as obs;
use rayon::prelude::*;

// re-exported: the independent `reference` oracle clamps with it too
pub(crate) use crate::driver::RESCALE_ABOVE;
use crate::driver::{weighted_length_sum, Driver, PerCap, Step};
use crate::{validate, Commodity, FlowError, FlowOptions, SolvedFlow};

/// Minimum `source groups × arcs` before a whole-tree pass fans out on
/// rayon; below this, even a pool dispatch costs more than the pass (a
/// 32-switch RRG already takes the parallel path).
const PARALLEL_DUAL_MIN_WORK: usize = 1 << 12;

/// Terminal solver state a later solve can warm-start from: the arc
/// length function the FPTAS ended on.
///
/// Soundness rests on the same two facts as the fast path itself: the
/// primal is feasible by construction (capacity-scaled steps), and the
/// dual `D(l)/α(l)` upper-bounds λ* for **any** positive length
/// function — so seeding the next solve's lengths from a previous
/// solve's terminal state changes the trajectory, never the
/// certificates. A warm solve's reported `(throughput, upper_bound)`
/// interval is certified exactly as a cold one's is.
///
/// Warm states transfer across [`CsrNet`] **views** of one structure
/// (arc ids are stable across capacity views, and the lengths are
/// re-anchored and healed per arc on use), so a state learned under one
/// capacity profile seeds a re-rated or drifted-demand solve of the
/// same structure. An empty state (the default) means "cold": solving
/// with it is identical to [`max_concurrent_flow_csr`].
#[derive(Debug, Clone, Default)]
pub struct WarmState {
    /// Terminal arc lengths (empty = cold). Indexed by arc id of the
    /// net the state was produced on.
    lengths: Vec<f64>,
}

impl WarmState {
    /// A cold (empty) state.
    pub fn cold() -> Self {
        WarmState::default()
    }

    /// Whether the state carries any learned lengths.
    pub fn is_seeded(&self) -> bool {
        !self.lengths.is_empty()
    }

    /// Number of arcs the stored lengths cover (0 when cold).
    pub fn arc_count(&self) -> usize {
        self.lengths.len()
    }
}

/// Normalize a warm state's lengths into a valid initial length
/// function for `net`, or `None` when the state is unusable (cold, or
/// sized for a different arc space) and the solve should start cold.
///
/// The dual bound and shortest paths are invariant under uniform
/// scaling, so the lengths are re-anchored to the cold-start gauge:
/// scaled so the minimum of `l(a)·c(a)` over live arcs is 1 (cold start
/// has `l·c = 1` everywhere). Per-arc healing keeps the function
/// strictly positive on live arcs no matter what the previous view did:
/// non-finite/non-positive entries (e.g. arcs that were disabled in the
/// view the state was learned on) fall back to the cold `1/c(a)`, dead
/// arcs get 0.0 (never traversed), and survivors clamp at
/// [`RESCALE_ABOVE`] like any in-solve length.
fn warm_lengths(net: &CsrNet, warm: &WarmState) -> Option<Vec<f64>> {
    if warm.lengths.len() != net.arc_count() {
        return None;
    }
    let caps = net.capacities();
    let mut anchor = f64::INFINITY;
    for (a, &l) in warm.lengths.iter().enumerate() {
        if caps[a] > 0.0 && l.is_finite() && l > 0.0 {
            anchor = anchor.min(l * caps[a]);
        }
    }
    if !(anchor.is_finite() && anchor > 0.0) {
        return None;
    }
    let scale = 1.0 / anchor;
    let out: Vec<f64> = warm
        .lengths
        .iter()
        .enumerate()
        .map(|(a, &l)| {
            if caps[a] <= 0.0 {
                0.0
            } else if l.is_finite() && l > 0.0 {
                (l * scale).min(RESCALE_ABOVE)
            } else {
                net.inv_capacity(a)
            }
        })
        .collect();
    Some(out)
}

/// Fast path: opening (coarse) step size of the annealing schedule.
/// Solves whose configured ε is already coarser start there instead.
/// Calibrated on RRG(64, 12, 8) permutation sweeps — see `BENCH_fptas`.
const COARSE_EPS: f64 = 0.55;

/// Fast path: rebuild every tree (making that phase's dual bound the
/// exact `D(l)/α(l)`) and compact the increase log every this many
/// phases. Between exact passes trees are only repaired lazily by the
/// routing ladder and the per-phase dual bound is the valid mixed-age
/// lower-bound form.
const EXACT_PASS_EVERY: usize = 2;

/// Fast path: tier-2 tolerates a touched path while its current length
/// is within `1 + ε·DRIFT_FRACTION` of the tree-time distance. Measured
/// cliff: fractions ≥ ~0.75 let groups keep loading paths competitors
/// already saturated and the phase count explodes; 0.5 is the sweet
/// spot between skipped rebuilds and routing reactivity.
const DRIFT_FRACTION: f64 = 0.5;

/// Fresh-tree policy: take the exact dual every this many phases (it
/// changes slowly and costs a tree per source group).
const STRICT_DUAL_EVERY: usize = 8;

/// One sink of a source group: (commodity index, dst, demand).
type Sink = (usize, NodeId, f64);

/// One source group: commodities sharing a source, and its tree.
struct GroupState {
    src: NodeId,
    sinks: Vec<Sink>,
    /// Unique sink nodes, where a fresh tree stops.
    targets: Vec<u32>,
    ws: DijkstraWorkspace,
    /// Per-sink demand left to route in the current phase.
    remaining: Vec<f64>,
    /// Reuse policy: absolute increase-log position up to which this
    /// group's tree is exact (pending repairs start there).
    cursor: usize,
    /// Reuse policy: stored distances predate a uniform rescale —
    /// rebuild before routing.
    needs_full: bool,
}

fn group_by_source(commodities: &[Commodity], n: usize) -> Vec<GroupState> {
    // hash-map index over sources in first-seen order: stable grouping
    // with O(1) lookup (a linear rescan is quadratic on all-to-all)
    let mut index: HashMap<NodeId, usize> = HashMap::with_capacity(commodities.len().min(n));
    let mut by_src: Vec<(NodeId, Vec<Sink>)> = Vec::new();
    for (i, c) in commodities.iter().enumerate() {
        let gi = *index.entry(c.src).or_insert_with(|| {
            by_src.push((c.src, Vec::new()));
            by_src.len() - 1
        });
        by_src[gi].1.push((i, c.dst, c.demand));
    }
    let group = |(src, sinks): (NodeId, Vec<Sink>)| {
        let mut targets: Vec<u32> = sinks.iter().map(|&(_, dst, _)| dst as u32).collect();
        targets.sort_unstable();
        targets.dedup();
        GroupState {
            src,
            remaining: vec![0.0; sinks.len()],
            sinks,
            targets,
            ws: DijkstraWorkspace::new(n),
            cursor: 0,
            needs_full: false,
        }
    };
    by_src.into_iter().map(group).collect()
}

/// Solve max concurrent flow on `net` for `commodities` with the
/// phase-parallel FPTAS.
///
/// Returns a [`SolvedFlow`] whose `throughput` is a *feasible* concurrent
/// rate and whose `upper_bound` certifies how far from optimal it can be.
/// [`FlowOptions::strict_reference`] selects between the incremental
/// reuse policy (default) and the legacy fresh-tree trajectory (see
/// module docs).
///
/// # Errors
///
/// * [`FlowError::Unreachable`] if any commodity's endpoints are in
///   different components.
/// * validation errors for empty/invalid inputs (see [`FlowError`]).
pub fn max_concurrent_flow_csr(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> Result<SolvedFlow, FlowError> {
    max_concurrent_flow_warm(net, commodities, opts, None).map(|(sol, _)| sol)
}

/// [`max_concurrent_flow_csr`] with cross-solve warm-starting: seed the
/// fast path's initial lengths from a previous solve's terminal
/// [`WarmState`] and return the new terminal state for the next solve.
///
/// `warm: None` (or an empty/ill-sized state) is **bit-identical** to
/// the cold [`max_concurrent_flow_csr`]. The strict path
/// ([`FlowOptions::strict_reference`]) never warm-starts (its whole
/// point is the pinned legacy trajectory) and returns a cold state. A
/// warm solve follows a different — typically much shorter —
/// trajectory with certificates as strong as a cold one's (see
/// [`WarmState`]), and skips the coarse-ε ramp: the inherited lengths
/// already encode the congestion landscape the ramp exists to discover.
///
/// # Errors
/// As [`max_concurrent_flow_csr`].
pub fn max_concurrent_flow_warm(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    warm: Option<&WarmState>,
) -> Result<(SolvedFlow, WarmState), FlowError> {
    validate(net.node_count(), commodities, opts)?;
    let t_solve = obs::clock();
    let strict = opts.strict_reference;
    // an unusable warm state degrades to the cold `1/c(a)` opener
    let warm_init = warm.filter(|_| !strict).and_then(|w| warm_lengths(net, w));
    let warm_started = warm_init.is_some();
    let length = warm_init.unwrap_or_else(|| net.inv_capacities().to_vec());
    let mut step = SinkStep {
        net,
        groups: group_by_source(commodities, net.node_count()),
        strict,
        tree_load: vec![0.0; net.arc_count()],
        touched: Vec::new(),
        d_l: weighted_length_sum(net, &length),
        log: Vec::new(),
        base: 0,
        updated_at: vec![usize::MAX; net.arc_count()],
        sssp_runs: 0,
        tiers: Tiers::default(),
        totals: Tiers::default(),
    };
    let (per_cap, mode) = if strict {
        (PerCap::Divide, "strict")
    } else {
        (PerCap::Reciprocal, "fast")
    };
    let demand = commodities.iter().map(|c| c.demand).collect();
    let record = opts.record_commodity_flows;
    let mut driver = Driver::new(net, opts, length, demand, per_cap, record);
    // a cold fast solve opens at a coarse ε (few, productive phases
    // while the primal is far from optimal) that the driver anneals
    if !strict && !warm_started {
        driver.eps = opts.epsilon.max(COARSE_EPS);
    }
    // seeds every group's tree and checks reachability up front
    step.rebuild_all(&driver.length);
    driver.offer_dual(step.d_l / step.alpha()?);

    let (mut sol, length) = driver.run(&mut step)?;
    sol.settles = step.settles();
    if obs::enabled() {
        let mut ev = obs::Event::new("fptas_solve").field("mode", mode);
        if !strict {
            ev = ev.field("warm", warm_started);
        }
        ev = ev
            .field("groups", step.groups.len())
            .field("commodities", commodities.len())
            .field("phases", sol.phases as u64)
            .field("settles", sol.settles)
            .field("sssp_runs", step.sssp_runs);
        if !strict {
            ev = step.totals.fields(ev);
        }
        ev.field("lambda", sol.throughput)
            .field("upper_bound", sol.upper_bound)
            .nd("wall_us", obs::us_since(t_solve))
            .emit();
    }
    let state = if strict {
        WarmState::cold()
    } else {
        WarmState { lengths: length }
    };
    Ok((sol, state))
}

/// Reuse-ladder telemetry: augmentations accepted on an exact tree
/// (tier 1, or after a repair or rebuild), accepted inside the drift
/// gate (tier 2), incremental repairs (tier 3), and post-rescale full
/// rebuilds. Deterministic (pure functions of the trajectory) and cheap,
/// so they are kept unconditionally; only emission is gated.
#[derive(Debug, Default, Clone, Copy)]
struct Tiers {
    exact: u64,
    drift: u64,
    repairs: u64,
    rebuilds: u64,
}

impl Tiers {
    fn absorb(&mut self, p: Tiers) {
        self.exact += p.exact;
        self.drift += p.drift;
        self.repairs += p.repairs;
        self.rebuilds += p.rebuilds;
    }

    fn fields(self, ev: obs::Event) -> obs::Event {
        ev.field("aug_exact", self.exact)
            .field("aug_drift", self.drift)
            .field("repairs", self.repairs)
            .field("rescale_rebuilds", self.rebuilds)
    }
}

/// The per-sink routing step under either tree policy.
struct SinkStep<'a> {
    net: &'a CsrNet,
    groups: Vec<GroupState>,
    /// Fresh-tree policy (the strict trajectory) instead of reuse.
    strict: bool,
    /// Per-arc load of the current augmentation and the arcs it uses.
    tree_load: Vec<f64>,
    touched: Vec<usize>,
    /// Reuse policy: `D(l)`, kept at the length-update site (summed in
    /// full only at init and after a rescale).
    d_l: f64,
    /// Reuse policy: the global monotone increase log. `clock = base +
    /// log.len()` is an absolute event counter; a tree built at absolute
    /// cursor `c` repairs with `log[c - base..]`. Compacted at every
    /// exact pass, when every cursor reaches the clock.
    log: Vec<u32>,
    base: usize,
    /// Reuse policy: each arc's last update index (exact-reuse stamp).
    updated_at: Vec<usize>,
    /// Trees built from scratch (repairs are counted apart).
    sssp_runs: u64,
    tiers: Tiers,
    totals: Tiers,
}

impl SinkStep<'_> {
    fn settles(&self) -> u64 {
        self.groups.iter().map(|g| g.ws.settles()).sum()
    }

    /// Rebuild every group's tree against `length` — full trees under
    /// the reuse policy (aligning every repair cursor), target-terminated
    /// ones under the fresh policy — into disjoint workspaces, on rayon
    /// when the pass is big enough. Results are identical either way.
    fn rebuild_all(&mut self, length: &[f64]) {
        let (net, full) = (self.net, !self.strict);
        let clock = self.base + self.log.len();
        let rebuild = |g: &mut GroupState| {
            if full {
                net.dijkstra(g.src, length, &mut g.ws);
            } else {
                net.dijkstra_targets(g.src, length, &g.targets, &mut g.ws);
            }
            g.cursor = clock;
            g.needs_full = false;
        };
        if self.groups.len() * net.arc_count() >= PARALLEL_DUAL_MIN_WORK {
            self.groups.par_iter_mut().for_each(rebuild);
        } else {
            self.groups.iter_mut().for_each(rebuild);
        }
        self.sssp_runs += self.groups.len() as u64;
    }

    /// `α = Σ_j d_j · dist_j` over the stored trees, reduced
    /// sequentially in group order (bit-identical at every thread
    /// count). Stored distances are exact under the lengths each tree
    /// was built at; lengths only grow, so on mixed-age trees this is a
    /// lower bound on `α(l)` and `D(l)/α` is still a valid bound.
    fn alpha(&self) -> Result<f64, FlowError> {
        let mut alpha = 0.0f64;
        for g in &self.groups {
            for &(_, dst, demand) in &g.sinks {
                let d = g.ws.distance(dst);
                if !d.is_finite() {
                    return Err(FlowError::Unreachable { src: g.src, dst });
                }
                alpha += demand * d;
            }
        }
        Ok(alpha)
    }
}

impl Step for SinkStep<'_> {
    /// Reuse policy: the periodic exact pass and the per-phase dual.
    /// Trees are otherwise rebuilt lazily by the ladder (a speculative
    /// per-phase refresh double-pays: earlier groups of the same phase
    /// often drift a tree again before its turn). The mixed-age bound is
    /// skipped after a rescale, while un-rebuilt trees hold pre-rescale
    /// distances that would fabricate a too-small (invalid) bound.
    fn begin_phase(&mut self, d: &mut Driver) -> Result<(), FlowError> {
        if self.strict {
            return Ok(());
        }
        let exact_pass = d.due(EXACT_PASS_EVERY);
        if exact_pass {
            self.rebuild_all(&d.length);
        }
        if self.groups.iter().all(|g| !g.needs_full) {
            #[cfg(debug_assertions)]
            {
                let full = weighted_length_sum(self.net, &d.length);
                debug_assert!(
                    (self.d_l - full).abs() <= 1e-6 * full.max(f64::MIN_POSITIVE),
                    "incremental D(l) drifted: {} vs {full}",
                    self.d_l
                );
            }
            d.offer_dual(self.d_l / self.alpha()?);
        }
        if exact_pass {
            // every cursor is at the clock: compact the increase log
            self.base += self.log.len();
            self.log.clear();
        }
        Ok(())
    }

    fn route(&mut self, d: &mut Driver) -> Result<(), FlowError> {
        let net = self.net;
        // tier-2 gate (see DRIFT_FRACTION)
        let drift = 1.0 + d.eps * DRIFT_FRACTION;
        for g in &mut self.groups {
            for (k, &(_, _, dem)) in g.sinks.iter().enumerate() {
                g.remaining[k] = dem;
            }
            let mut inner = 0usize;
            // route until the group's phase demand is (essentially) done
            while g.remaining.iter().any(|&r| r > 1e-12) {
                inner += 1;
                if inner > 64 {
                    // Extremely skewed instances can shrink τ repeatedly;
                    // carry the leftover to the next phase (correctness is
                    // unaffected — `routed` only counts what was sent).
                    break;
                }
                let mut exact = true;
                if self.strict {
                    net.dijkstra_targets(g.src, &d.length, &g.targets, &mut g.ws);
                    self.sssp_runs += 1;
                } else {
                    if g.needs_full {
                        // post-rescale: stored distances are in
                        // pre-rescale units, so the gate cannot be
                        // trusted — rebuild
                        net.dijkstra(g.src, &d.length, &mut g.ws);
                        g.cursor = self.base + self.log.len();
                        g.needs_full = false;
                        self.tiers.rebuilds += 1;
                        self.sssp_runs += 1;
                    }
                    exact = self.base + self.log.len() == g.cursor;
                }
                // charge the tree; a drifted reuse tree is repaired at
                // most once per augmentation (a repaired tree is exact;
                // every stored reuse tree is full, as repair requires)
                while charge(
                    net,
                    g,
                    &d.length,
                    &self.updated_at,
                    (!exact).then_some(drift),
                    &mut self.tree_load,
                    &mut self.touched,
                )? {
                    for &a in &self.touched {
                        self.tree_load[a] = 0.0;
                    }
                    net.dijkstra_repair(
                        g.src,
                        &d.length,
                        &self.log[g.cursor - self.base..],
                        &mut g.ws,
                    );
                    g.cursor = self.base + self.log.len();
                    exact = true;
                    self.tiers.repairs += 1;
                }
                if exact {
                    self.tiers.exact += 1;
                } else {
                    self.tiers.drift += 1;
                }
                // capacity-scaled step: never send more than c(a) on any arc
                let mut tau = 1.0f64;
                for &a in &self.touched {
                    tau = tau.min(net.capacity(a) / self.tree_load[a]);
                }
                for &a in &self.touched {
                    let (old, new) = d.send(a, tau * self.tree_load[a]);
                    if !self.strict {
                        // incremental D(l), the repair log and the
                        // exact-reuse stamp, kept where lengths change
                        self.d_l += net.capacity(a) * (new - old);
                        self.updated_at[a] = self.base + self.log.len();
                        self.log.push(a as u32);
                    }
                    self.tree_load[a] = 0.0;
                }
                // mirror the same tree walk into the per-commodity
                // record before `remaining` is consumed; the workspace
                // still holds the tree the load was charged along
                if let Some(cf) = d.cf.as_mut() {
                    for (k, &(j, dst, _)) in g.sinks.iter().enumerate() {
                        let r = g.remaining[k];
                        if r <= 1e-12 {
                            continue;
                        }
                        let sent = tau * r;
                        g.ws.walk_path(net, dst, |a| cf[j][a] += sent);
                    }
                }
                for (k, &(j, _, _)) in g.sinks.iter().enumerate() {
                    let sent = tau * g.remaining[k];
                    d.routed[j] += sent;
                    g.remaining[k] -= sent;
                }
                if tau >= 1.0 {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Fresh policy: the periodic exact dual at post-rescale lengths.
    /// Reuse policy: a rescale is not an arcwise *increase*, so repair
    /// no longer applies — recompute `D(l)` in full and flag every tree
    /// for a full rebuild.
    fn end_phase(&mut self, d: &mut Driver) -> Result<(), FlowError> {
        if self.strict {
            if d.due(STRICT_DUAL_EVERY) {
                let d_l = weighted_length_sum(self.net, &d.length);
                self.rebuild_all(&d.length);
                d.offer_dual(d_l / self.alpha()?);
            }
        } else if d.rescaled {
            self.d_l = weighted_length_sum(self.net, &d.length);
            for g in &mut self.groups {
                g.needs_full = true;
            }
        }
        Ok(())
    }

    fn phase_done(&mut self, d: &Driver, primal: f64, t_phase: Option<Instant>) {
        // emission sits in the sequential phase loop, so the event
        // sequence is deterministic whenever solves themselves are run
        // sequentially (see dctopo-obs crate docs)
        if obs::enabled() {
            let mode = if self.strict { "strict" } else { "fast" };
            let mut ev = obs::Event::new("fptas_phase")
                .field("mode", mode)
                .field("phase", d.phase as u64)
                .field("eps", d.eps);
            if !self.strict {
                ev = ev.field("exact_pass", d.due(EXACT_PASS_EVERY));
            }
            ev = ev.field("primal", primal).field("dual", d.best_dual);
            if !self.strict {
                ev = self.tiers.fields(ev.field("d_l", self.d_l));
            }
            ev.field("settles", self.settles())
                .nd("wall_us", obs::us_since(t_phase))
                .emit();
        }
        self.totals.absorb(std::mem::take(&mut self.tiers));
    }
}

/// Charge every sink's remaining demand to `g`'s tree, summed per arc
/// into `tree_load` (arcs listed in `touched`). Under a drift `gate` (a
/// reuse tree that is not exact) returns `true` — stale — as soon as a
/// touched path is longer than `gate` times its tree distance: tier 1
/// (no arc of the path grew since the tree) and tier 2 (within the
/// gate) both accept.
fn charge(
    net: &CsrNet,
    g: &GroupState,
    length: &[f64],
    updated_at: &[usize],
    gate: Option<f64>,
    tree_load: &mut [f64],
    touched: &mut Vec<usize>,
) -> Result<bool, FlowError> {
    touched.clear();
    for (k, &(_, dst, _)) in g.sinks.iter().enumerate() {
        let r = g.remaining[k];
        if r <= 1e-12 {
            continue;
        }
        if !g.ws.distance(dst).is_finite() {
            return Err(FlowError::Unreachable { src: g.src, dst });
        }
        let mut plen = 0.0f64;
        let mut hit = false;
        g.ws.walk_path(net, dst, |a| {
            if tree_load[a] == 0.0 {
                touched.push(a);
            }
            tree_load[a] += r;
            if gate.is_some() {
                plen += length[a];
                hit |= updated_at[a] != usize::MAX && updated_at[a] >= g.cursor;
            }
        });
        if gate.is_some_and(|drift| hit && plen > drift * g.ws.distance(dst)) {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_concurrent_flow;
    use dctopo_graph::Graph;
    use rayon::ThreadPoolBuilder;

    fn opts() -> FlowOptions {
        FlowOptions {
            epsilon: 0.05,
            target_gap: 0.02,
            max_phases: 20000,
            stall_phases: 2000,
            ..FlowOptions::default()
        }
    }

    /// Flow on a single edge: one unit-demand commodity, capacity 1 → λ = 1.
    #[test]
    fn single_edge() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1).unwrap();
        let s = max_concurrent_flow(&g, &[Commodity::unit(0, 1)], &opts()).unwrap();
        assert!(
            s.throughput > 0.97 && s.throughput <= 1.0 + 1e-9,
            "λ = {}",
            s.throughput
        );
        assert!(s.upper_bound >= s.throughput);
        // the dual approaches λ* = 1 from above, stopping within the gap
        assert!(
            s.upper_bound <= 1.0 / (1.0 - 0.02) + 1e-9,
            "dual = {}",
            s.upper_bound
        );
    }

    /// Two commodities share one unit edge → λ = 1/2 each.
    #[test]
    fn shared_bottleneck() {
        let mut g = Graph::new(3);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(1, 2).unwrap();
        let cs = [Commodity::unit(0, 2), Commodity::unit(1, 2)];
        let s = max_concurrent_flow(&g, &cs, &opts()).unwrap();
        assert!((s.throughput - 0.5).abs() < 0.02, "λ = {}", s.throughput);
    }

    /// 4-cycle, opposite corners: two edge-disjoint 2-hop paths → λ = 2
    /// for a single unit commodity.
    #[test]
    fn cycle_multipath() {
        let mut g = Graph::new(4);
        for v in 0..4 {
            g.add_unit_edge(v, (v + 1) % 4).unwrap();
        }
        let s = max_concurrent_flow(&g, &[Commodity::unit(0, 2)], &opts()).unwrap();
        assert!((s.throughput - 2.0).abs() < 0.06, "λ = {}", s.throughput);
    }

    /// Capacity scaling: doubling all capacities doubles λ.
    #[test]
    fn capacity_scaling() {
        let mut g1 = Graph::new(3);
        g1.add_edge(0, 1, 1.0).unwrap();
        g1.add_edge(1, 2, 1.0).unwrap();
        let mut g2 = Graph::new(3);
        g2.add_edge(0, 1, 2.0).unwrap();
        g2.add_edge(1, 2, 2.0).unwrap();
        let cs = [Commodity::unit(0, 2)];
        let s1 = max_concurrent_flow(&g1, &cs, &opts()).unwrap();
        let s2 = max_concurrent_flow(&g2, &cs, &opts()).unwrap();
        assert!((s2.throughput / s1.throughput - 2.0).abs() < 0.08);
    }

    /// Demand scaling: doubling demand halves λ.
    #[test]
    fn demand_scaling() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1).unwrap();
        let s1 = max_concurrent_flow(
            &g,
            &[Commodity {
                src: 0,
                dst: 1,
                demand: 1.0,
            }],
            &opts(),
        )
        .unwrap();
        let s2 = max_concurrent_flow(
            &g,
            &[Commodity {
                src: 0,
                dst: 1,
                demand: 2.0,
            }],
            &opts(),
        )
        .unwrap();
        assert!((s1.throughput / s2.throughput - 2.0).abs() < 0.08);
    }

    /// Flow solution is actually feasible: no arc over capacity.
    #[test]
    fn feasibility_certificate() {
        let mut g = Graph::new(5);
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)] {
            g.add_unit_edge(u, v).unwrap();
        }
        let cs = [
            Commodity::unit(0, 3),
            Commodity::unit(1, 4),
            Commodity::unit(2, 0),
            Commodity::unit(4, 2),
        ];
        let s = max_concurrent_flow(&g, &cs, &opts()).unwrap();
        for a in 0..g.arc_count() {
            assert!(
                s.arc_flow[a] <= g.arc_capacity(a) * (1.0 + 1e-9),
                "arc {a} over capacity: {} > {}",
                s.arc_flow[a],
                g.arc_capacity(a)
            );
        }
        // each commodity achieves at least λ·d
        for (j, c) in cs.iter().enumerate() {
            assert!(s.commodity_rate[j] >= s.throughput * c.demand - 1e-9);
        }
        assert!(s.gap() <= 0.02 + 1e-9);
    }

    /// Unreachable destination is an error, not a hang — on both paths.
    #[test]
    fn unreachable_errors() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        let r = max_concurrent_flow(&g, &[Commodity::unit(0, 3)], &opts());
        assert!(matches!(r, Err(FlowError::Unreachable { src: 0, dst: 3 })));
        let strict = opts().with_strict_reference(true);
        let r = max_concurrent_flow(&g, &[Commodity::unit(0, 3)], &strict);
        assert!(matches!(r, Err(FlowError::Unreachable { src: 0, dst: 3 })));
    }

    /// An edgeless net reports the first commodity as unreachable, on
    /// both policies and on the grouped solve.
    #[test]
    fn edgeless_net_is_unreachable() {
        let net = dctopo_graph::CsrNet::from_graph(&Graph::new(3));
        let cs = [Commodity::unit(1, 2), Commodity::unit(0, 2)];
        for strict in [false, true] {
            let r = max_concurrent_flow_csr(&net, &cs, &opts().with_strict_reference(strict));
            assert!(matches!(r, Err(FlowError::Unreachable { src: 1, dst: 2 })));
        }
        let groups = [crate::DemandGroup {
            src: 1,
            sinks: crate::SinkSpec::List(vec![(2, 1.0), (0, 1.0)]),
        }];
        let r = crate::solve_grouped(&net, &groups, &opts());
        assert!(matches!(r, Err(FlowError::Unreachable { src: 1, dst: 2 })));
    }

    /// Star network: k leaves all sending to the hub through unit edges.
    #[test]
    fn star_to_hub() {
        let k = 6;
        let mut g = Graph::new(k + 1);
        for v in 1..=k {
            g.add_unit_edge(v, 0).unwrap();
        }
        let cs: Vec<_> = (1..=k).map(|v| Commodity::unit(v, 0)).collect();
        let s = max_concurrent_flow(&g, &cs, &opts()).unwrap();
        // each leaf has its own edge → λ = 1
        assert!((s.throughput - 1.0).abs() < 0.03, "λ = {}", s.throughput);
    }

    /// Mean flow path length on a path graph equals the hop distance.
    #[test]
    fn mean_path_len() {
        let mut g = Graph::new(4);
        for v in 0..3 {
            g.add_unit_edge(v, v + 1).unwrap();
        }
        let s = max_concurrent_flow(&g, &[Commodity::unit(0, 3)], &opts()).unwrap();
        assert!((s.mean_flow_path_len() - 3.0).abs() < 1e-6);
    }

    /// Utilization on the single-edge instance is flow/capacity over both
    /// directions: 1 unit flows one way on a 2-unit bidirectional edge.
    #[test]
    fn utilization_definition() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1).unwrap();
        let s = max_concurrent_flow(&g, &[Commodity::unit(0, 1)], &opts()).unwrap();
        let u = s.utilization(&g);
        assert!((u - 0.5).abs() < 0.03, "U = {u}");
        let eu = s.edge_utilization(&g);
        assert!((eu[0] - 1.0).abs() < 0.03);
    }

    /// Heterogeneous capacities: big trunk plus thin side path.
    #[test]
    fn heterogeneous_capacities() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 10.0).unwrap();
        g.add_edge(0, 1, 1.0).unwrap();
        let s = max_concurrent_flow(
            &g,
            &[Commodity {
                src: 0,
                dst: 1,
                demand: 1.0,
            }],
            &opts(),
        )
        .unwrap();
        assert!((s.throughput - 11.0).abs() < 0.4, "λ = {}", s.throughput);
    }

    /// The strict escape hatch reproduces the retained baseline
    /// bit-for-bit — the pin that keeps `reference` honest.
    #[test]
    fn strict_path_matches_reference_bitwise() {
        let mut g = Graph::new(9);
        for v in 0..9 {
            g.add_unit_edge(v, (v + 1) % 9).unwrap();
        }
        g.add_edge(0, 4, 2.0).unwrap();
        g.add_edge(2, 7, 0.5).unwrap();
        let cs = [
            Commodity::unit(0, 5),
            Commodity::unit(1, 6),
            Commodity::unit(0, 3),
            Commodity {
                src: 7,
                dst: 2,
                demand: 1.5,
            },
        ];
        let strict = opts().with_strict_reference(true);
        let a = crate::reference::max_concurrent_flow_graph(&g, &cs, &strict).unwrap();
        let b = max_concurrent_flow(&g, &cs, &strict).unwrap();
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
        assert_eq!(a.phases, b.phases);
        for (x, y) in a.arc_flow.iter().zip(&b.arc_flow) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.commodity_rate.iter().zip(&b.commodity_rate) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The fast path certifies the same optimum as the strict path.
    #[test]
    fn fast_path_agrees_with_strict() {
        let mut g = Graph::new(16);
        for v in 0..16 {
            g.add_unit_edge(v, (v + 1) % 16).unwrap();
        }
        for v in 0..8 {
            g.add_edge(v, v + 8, 1.5).unwrap();
        }
        let cs: Vec<Commodity> = (0..8).map(|v| Commodity::unit(v, (v + 7) % 16)).collect();
        let fast = max_concurrent_flow(&g, &cs, &opts()).unwrap();
        let strict = max_concurrent_flow(&g, &cs, &opts().with_strict_reference(true)).unwrap();
        // both certify their own interval around the same optimum
        assert!(fast.throughput <= strict.upper_bound * (1.0 + 1e-9));
        assert!(strict.throughput <= fast.upper_bound * (1.0 + 1e-9));
        assert!(fast.gap() <= 0.02 + 1e-9, "fast gap {}", fast.gap());
    }

    /// Both paths report their settle instrumentation (the sweep-scale
    /// "fast settles less" property lives in `tests/properties.rs`,
    /// which can build real RRG instances).
    #[test]
    fn settle_instrumentation_reported() {
        let mut g = Graph::new(6);
        for v in 0..6 {
            g.add_unit_edge(v, (v + 1) % 6).unwrap();
        }
        let cs = [Commodity::unit(0, 3), Commodity::unit(1, 4)];
        for strict in [false, true] {
            let s = max_concurrent_flow(&g, &cs, &opts().with_strict_reference(strict)).unwrap();
            assert!(s.settles > 0, "strict {strict}: no settles recorded");
        }
    }

    /// `warm: None` and an empty/ill-sized [`WarmState`] are bitwise
    /// the cold solve — the warm hook is invisible until a usable
    /// state is supplied.
    #[test]
    fn warm_none_is_bitwise_cold() {
        let mut g = Graph::new(12);
        for v in 0..12 {
            g.add_unit_edge(v, (v + 1) % 12).unwrap();
        }
        g.add_edge(0, 6, 2.0).unwrap();
        let net = dctopo_graph::CsrNet::from_graph(&g);
        let cs: Vec<Commodity> = (0..6).map(|v| Commodity::unit(v, (v + 5) % 12)).collect();
        let o = opts();
        let cold = max_concurrent_flow_csr(&net, &cs, &o).unwrap();
        let (none, state) = max_concurrent_flow_warm(&net, &cs, &o, None).unwrap();
        let (empty, _) = max_concurrent_flow_warm(&net, &cs, &o, Some(&WarmState::cold())).unwrap();
        let bad = WarmState {
            lengths: vec![1.0; 3], // wrong arc space → degrade to cold
        };
        let (ill, _) = max_concurrent_flow_warm(&net, &cs, &o, Some(&bad)).unwrap();
        for s in [&none, &empty, &ill] {
            assert_eq!(cold.throughput.to_bits(), s.throughput.to_bits());
            assert_eq!(cold.upper_bound.to_bits(), s.upper_bound.to_bits());
            assert_eq!(cold.phases, s.phases);
            for (x, y) in cold.arc_flow.iter().zip(&s.arc_flow) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(state.is_seeded());
        assert_eq!(state.arc_count(), net.arc_count());
    }

    /// A warm-started re-solve of a drifted instance certifies an
    /// interval overlapping the cold solve's, at the same target gap —
    /// the soundness half of the serve-mode warm-reuse contract.
    #[test]
    fn warm_resolve_certificates_overlap_cold() {
        let mut g = Graph::new(16);
        for v in 0..16 {
            g.add_unit_edge(v, (v + 1) % 16).unwrap();
        }
        for v in 0..8 {
            g.add_edge(v, v + 8, 1.5).unwrap();
        }
        let net = dctopo_graph::CsrNet::from_graph(&g);
        let cs: Vec<Commodity> = (0..8).map(|v| Commodity::unit(v, (v + 7) % 16)).collect();
        let o = opts();
        let (_, state) = max_concurrent_flow_warm(&net, &cs, &o, None).unwrap();
        // drift demands ±10% deterministically
        let drifted: Vec<Commodity> = cs
            .iter()
            .enumerate()
            .map(|(i, c)| Commodity {
                demand: c.demand * (0.9 + 0.2 * (i as f64 / 7.0)),
                ..*c
            })
            .collect();
        let cold = max_concurrent_flow_csr(&net, &drifted, &o).unwrap();
        let (warm, next) = max_concurrent_flow_warm(&net, &drifted, &o, Some(&state)).unwrap();
        // a warm solve may plateau-stop slightly past the target (its
        // inherited lengths make the *dual* tighter from phase one);
        // the certified gap stays O(ε) regardless
        let gap_cap = o.target_gap.max(o.epsilon) + 1e-9;
        assert!(warm.gap() <= gap_cap, "warm gap {}", warm.gap());
        assert!(warm.throughput <= cold.upper_bound * (1.0 + 1e-9));
        assert!(cold.throughput <= warm.upper_bound * (1.0 + 1e-9));
        assert!(next.is_seeded());
        // feasibility of the warm primal: no arc over capacity
        for a in 0..net.arc_count() {
            assert!(warm.arc_flow[a] <= net.capacity(a) * (1.0 + 1e-9));
        }
    }

    /// The strict path refuses to warm-start: its output with a seeded
    /// state is bitwise the strict cold output, and it hands back a
    /// cold state.
    #[test]
    fn strict_path_never_warm_starts() {
        let mut g = Graph::new(8);
        for v in 0..8 {
            g.add_unit_edge(v, (v + 1) % 8).unwrap();
        }
        let net = dctopo_graph::CsrNet::from_graph(&g);
        let cs = [Commodity::unit(0, 4), Commodity::unit(1, 5)];
        let o = opts();
        let (_, seeded) = max_concurrent_flow_warm(&net, &cs, &o, None).unwrap();
        let strict = o.with_strict_reference(true);
        let cold = max_concurrent_flow_csr(&net, &cs, &strict).unwrap();
        let (warm, state) = max_concurrent_flow_warm(&net, &cs, &strict, Some(&seeded)).unwrap();
        assert_eq!(cold.throughput.to_bits(), warm.throughput.to_bits());
        assert_eq!(cold.upper_bound.to_bits(), warm.upper_bound.to_bits());
        assert!(!state.is_seeded());
    }

    /// The headline determinism guarantee: a seeded instance solved at
    /// 1, 2, and 8 rayon threads produces bit-identical output — on the
    /// fast path (default) and the strict path alike.
    #[test]
    fn bit_identical_across_thread_counts() {
        // ring + chords with many source groups so the parallel pass
        // actually splits work
        let mut g = Graph::new(24);
        for v in 0..24 {
            g.add_unit_edge(v, (v + 1) % 24).unwrap();
        }
        for v in 0..8 {
            g.add_edge(v, v + 12, 1.5).unwrap();
        }
        let cs: Vec<Commodity> = (0..12).map(|v| Commodity::unit(v, (v + 11) % 24)).collect();
        for strict in [false, true] {
            let o = opts().with_strict_reference(strict);
            let solve_at = |threads: usize| {
                ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| max_concurrent_flow(&g, &cs, &o).unwrap())
            };
            let base = solve_at(1);
            for threads in [2, 8] {
                let s = solve_at(threads);
                assert_eq!(
                    base.throughput.to_bits(),
                    s.throughput.to_bits(),
                    "{threads} threads (strict: {strict})"
                );
                assert_eq!(base.upper_bound.to_bits(), s.upper_bound.to_bits());
                assert_eq!(base.phases, s.phases);
                assert_eq!(base.settles, s.settles);
                assert_eq!(base.arc_flow.len(), s.arc_flow.len());
                for (a, (x, y)) in base.arc_flow.iter().zip(&s.arc_flow).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "arc {a} at {threads} threads");
                }
                for (x, y) in base.commodity_rate.iter().zip(&s.commodity_rate) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}
