//! Aggregated-demand max concurrent flow: `O(arcs + active pairs)`
//! memory instead of the pairwise formulation's `O(n²)` commodities.
//!
//! The pairwise solver ([`crate::max_concurrent_flow_csr`]) keeps one
//! [`DijkstraWorkspace`] **per source group** plus a `(src, dst,
//! demand)` triple per commodity. For an all-to-all matrix on an
//! `n`-switch fabric that is `Θ(n²)` state before the first phase runs
//! — the reason ≥1024-switch dense instances OOM'd rather than merely
//! being slow. This module replaces the commodity *list* with demand
//! *descriptors*:
//!
//! * [`SinkSpec::List`] — an explicit `(dst, demand)` list, for sparse
//!   groups (memory: the pairs that actually exist).
//! * [`SinkSpec::Weighted`] — "this source sends `scale · weights[v]`
//!   to every switch `v ≠ src`", with the weight vector shared across
//!   all groups behind an [`Arc`]. An all-to-all fabric is `n` groups
//!   sharing **one** `O(n)` vector: total demand state `O(n)`, not
//!   `O(n²)`.
//!
//! ## The tree-aggregated Garg–Könemann step
//!
//! The pairwise solver already routes a source group's commodities down
//! one shortest-path tree per step, but it materialises per-sink
//! `remaining` vectors and walks each sink's path individually. Here
//! the whole group advances **proportionally**: each step routes the
//! same fraction `τ` of every sink's remaining demand, so the only
//! per-group routing state is a single scalar (`frac_remaining`).
//! Subtree loads come from one leaf-up Kahn pass over the parent
//! forest — each node pushes its accumulated demand onto its parent
//! arc once all its tree children have pushed onto it — which costs
//! `O(n + arcs)` per step independent of how many sinks the group has:
//!
//! 1. build the tree under current lengths ([`CsrNet::dijkstra`], the
//!    indexed-heap kernel every solver shares);
//! 2. `L(a)` = demand in the subtree hanging under arc `a`;
//! 3. `τ = min(1, min_a c(a)/L(a))` — the capacity-scaled step;
//! 4. `flow(a) += τ·L(a)`, `l(a) *= 1 + ε·τ·L(a)/c(a)`,
//!    `frac_remaining *= 1 − τ`.
//!
//! Because every sink of a group routes the *same* cumulative fraction
//! of its demand, the per-sink rates collapse to one factor per group
//! ([`GroupedFlow::group_rate_factor`]): `rate(dst) = factor ·
//! demand(dst)`. The certified primal is `λ = min_g factor_g` after
//! scaling by the worst congestion, exactly the pairwise `min_j
//! routed_j / (μ·d_j)` specialised to proportional routing.
//!
//! ## Certification
//!
//! The dual bound is the usual `D(l)/α(l)` with `α(l) = Σ_j d_j ·
//! dist_l(s_j, t_j)`. `α` is harvested from the **first** tree each
//! group builds in a phase (a free by-product — no extra SSSP pass),
//! while `D(l)` is summed at phase end. Lengths only grow within a
//! phase, so each harvested distance is ≤ its value under the
//! phase-end lengths, hence `D(l_end)/α_harvest ≥ D(l_end)/α(l_end) ≥
//! λ*`: still a valid (slightly looser) certificate. Rescaling runs
//! *after* the bound is taken so the growth argument is never violated.
//! After the phase loop a **final exact harvest** — one SSSP per group
//! at the terminal lengths — evaluates `D(l)` and `α(l)` at the *same*
//! `l` (a valid bound for any positive length function by LP duality)
//! and usually tightens the interval by an order of magnitude for
//! `O(groups)` extra SSSPs total.
//!
//! This module is the proportional routing step only; the phase loop
//! (rescale, congestion scaling, snapshot, stop rules) is the driver in
//! `driver.rs` every FPTAS flavour shares. A grouped solve opens at the
//! configured ε and starts cold (no anneal, no warm start).
//!
//! ## Determinism
//!
//! Groups route sequentially in input order; the Kahn pass seeds its
//! ready stack in node-index order, so every float accumulation order
//! is a pure function of the parent forest; sinks iterate in input
//! (`List`) or index (`Weighted`) order; every tree is a sequential
//! heap Dijkstra. The whole solve — `settles` included — is
//! **bit-identical across thread counts and reruns**.

use std::sync::Arc;
use std::time::Instant;

use dctopo_graph::{CsrNet, DijkstraWorkspace, NodeId};
use dctopo_obs as obs;

use crate::driver::{weighted_length_sum, Driver, PerCap, Step};
use crate::{validate_commodity, validate_options, Commodity, FlowError, FlowOptions};

/// The sinks of one [`DemandGroup`].
#[derive(Debug, Clone)]
pub enum SinkSpec {
    /// Explicit `(dst, demand)` pairs. Memory: `O(pairs)`.
    List(Vec<(NodeId, f64)>),
    /// Demand `scale · weights[v]` to every node `v` with
    /// `weights[v] > 0`, **skipping `v == src`** (same-switch traffic
    /// never enters the network). The weight vector is `Arc`-shared so
    /// `n` groups over the same population cost `O(n)` total, not
    /// `O(n²)`.
    Weighted {
        /// Per-node sink weights (length = node count; zero = no sink).
        weights: Arc<Vec<f64>>,
        /// Multiplier applied to every weight (e.g. servers at the
        /// source switch for switch-level all-to-all).
        scale: f64,
    },
}

/// One source and its aggregated sinks — the grouped analogue of a run
/// of [`crate::Commodity`] entries sharing a `src`.
#[derive(Debug, Clone)]
pub struct DemandGroup {
    /// Source node.
    pub src: NodeId,
    /// Aggregated destinations.
    pub sinks: SinkSpec,
}

impl DemandGroup {
    /// All-to-all from `src`: demand `scale · weights[v]` to every
    /// other node with positive weight.
    pub fn weighted(src: NodeId, weights: Arc<Vec<f64>>, scale: f64) -> Self {
        DemandGroup {
            src,
            sinks: SinkSpec::Weighted { weights, scale },
        }
    }

    /// Visit every `(dst, demand)` sink in deterministic order (input
    /// order for [`SinkSpec::List`], node-index order for
    /// [`SinkSpec::Weighted`]; weighted specs skip `src` and zero
    /// weights).
    pub fn for_each_sink(&self, mut f: impl FnMut(NodeId, f64)) {
        match &self.sinks {
            SinkSpec::List(pairs) => {
                for &(dst, d) in pairs {
                    f(dst, d);
                }
            }
            SinkSpec::Weighted { weights, scale } => {
                for (v, &w) in weights.iter().enumerate() {
                    if v != self.src && w > 0.0 {
                        f(v, scale * w);
                    }
                }
            }
        }
    }

    /// Total demand out of this group's source.
    pub fn total_demand(&self) -> f64 {
        let mut t = 0.0;
        self.for_each_sink(|_, d| t += d);
        t
    }

    /// Number of `(src, dst)` pairs this group aggregates.
    pub fn sink_count(&self) -> usize {
        let mut k = 0usize;
        self.for_each_sink(|_, _| k += 1);
        k
    }
}

/// Result of [`solve_grouped`]: the grouped analogue of
/// [`crate::SolvedFlow`], with per-**group** rate factors instead of a
/// per-commodity rate vector (the whole point is not materialising one
/// number per pair).
#[derive(Debug, Clone)]
pub struct GroupedFlow {
    /// Feasible concurrent throughput λ: every sink of every group
    /// simultaneously receives ≥ `λ · demand`.
    pub throughput: f64,
    /// Certified upper bound on the optimum (`D(l)/α(l)` harvested
    /// from the phase trees).
    pub upper_bound: f64,
    /// Feasible per-arc flow (scaled to respect every capacity).
    pub arc_flow: Vec<f64>,
    /// Per-group rate factor: sink `dst` of group `g` receives
    /// `group_rate_factor[g] · demand(dst)`. `throughput` is the
    /// minimum entry.
    pub group_rate_factor: Vec<f64>,
    /// Phases executed.
    pub phases: usize,
    /// Total shortest-path tree settles (heap pops; the work metric).
    pub settles: u64,
}

impl GroupedFlow {
    /// Relative certified optimality gap `(upper − λ)/upper`.
    pub fn gap(&self) -> f64 {
        if self.upper_bound <= 0.0 {
            return 0.0;
        }
        (self.upper_bound - self.throughput) / self.upper_bound
    }
}

fn validate_grouped(
    node_count: usize,
    groups: &[DemandGroup],
    opts: &FlowOptions,
) -> Result<(), FlowError> {
    if groups.is_empty() {
        return Err(FlowError::NoCommodities);
    }
    validate_options(opts)?;
    for (gi, g) in groups.iter().enumerate() {
        if let SinkSpec::Weighted { weights, .. } = &g.sinks {
            if weights.len() != node_count {
                return Err(FlowError::BadOptions(format!(
                    "group {gi}: weight vector has {} entries, net has {node_count} nodes",
                    weights.len()
                )));
            }
            if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                return Err(FlowError::BadOptions(format!(
                    "group {gi}: weights must be finite and non-negative"
                )));
            }
        }
        // every sink, listed or weighted, as a commodity of the group (a
        // bad scale shows as a non-positive or non-finite demand)
        let mut sinks = 0usize;
        let mut checked = Ok(());
        g.for_each_sink(|dst, demand| {
            sinks += 1;
            if checked.is_ok() {
                let c = Commodity {
                    src: g.src,
                    dst,
                    demand,
                };
                checked = validate_commodity(node_count, gi, c);
            }
        });
        checked?;
        if sinks == 0 {
            return Err(FlowError::BadDemand {
                index: gi,
                demand: 0.0,
            });
        }
    }
    Ok(())
}

/// Solve max concurrent flow for aggregated demand groups.
///
/// Same guarantees as [`crate::max_concurrent_flow_csr`] — feasible
/// `throughput`, certified `upper_bound`, bit-identical across thread
/// counts — with working memory `O(arcs + nodes + active pairs)`
/// instead of `O(n²)`. See the module docs for the algorithm.
///
/// # Errors
///
/// * [`FlowError::Unreachable`] if any group has a positive-demand
///   sink outside its source's component.
/// * Validation errors for empty/invalid inputs (see [`FlowError`]).
pub fn solve_grouped(
    net: &CsrNet,
    groups: &[DemandGroup],
    opts: &FlowOptions,
) -> Result<GroupedFlow, FlowError> {
    validate_grouped(net.node_count(), groups, opts)?;
    let n = net.node_count();
    let mut step = KahnStep {
        net,
        groups,
        ws: DijkstraWorkspace::default(),
        node_demand: vec![0.0; n],
        child_count: vec![0; n],
        ready: Vec::with_capacity(n),
        tree_load: vec![0.0; net.arc_count()],
        touched: Vec::new(),
        sssp_runs: 0,
        steps: 0,
        tree_us: 0,
        kahn_us: 0,
        alpha: 0.0,
        d_l: 0.0,
    };
    // the driver's entry g is group g's routed fraction (unit demand),
    // so its rate factor is routed[g]/μ
    let length = net.inv_capacities().to_vec();
    let driver = Driver::new(
        net,
        opts,
        length,
        vec![1.0; groups.len()],
        PerCap::Divide,
        false,
    );
    let (sol, _) = driver.run(&mut step)?;
    let settles = step.ws.settles();
    if obs::enabled() {
        obs::Event::new("grouped_solve")
            .field("groups", groups.len())
            .field("phases", sol.phases as u64)
            .field("settles", settles)
            .field("sssp_runs", step.sssp_runs)
            .field("lambda", sol.throughput)
            .field("upper_bound", sol.upper_bound)
            .emit();
    }
    Ok(GroupedFlow {
        throughput: sol.throughput,
        upper_bound: sol.upper_bound,
        arc_flow: sol.arc_flow,
        group_rate_factor: sol.commodity_rate,
        phases: sol.phases,
        settles,
    })
}

/// The proportional routing step: one tree per step, loads from a
/// leaf-up Kahn pass, every sink of the group advancing by the same
/// fraction.
struct KahnStep<'a> {
    net: &'a CsrNet,
    groups: &'a [DemandGroup],
    /// ONE shared workspace — the memory story. Groups route
    /// sequentially, so warm per-group trees are traded for O(n) state.
    ws: DijkstraWorkspace,
    // leaf-up sweep scratch
    node_demand: Vec<f64>,
    child_count: Vec<u32>,
    ready: Vec<u32>,
    tree_load: Vec<f64>,
    touched: Vec<usize>,
    /// Shortest-path trees built: routing steps plus harvest runs.
    sssp_runs: u64,
    // per-phase telemetry: steps (= trees built), tree-build and Kahn
    // wall time (nd; zero when tracing is off), harvested α, end D(l)
    steps: u64,
    tree_us: u64,
    kahn_us: u64,
    alpha: f64,
    d_l: f64,
}

impl KahnStep<'_> {
    /// `tree_load[a]` = `node_demand` below arc `a` (arcs listed in
    /// `touched`) by the leaf-up Kahn pass of the module docs.
    /// Deliberately NOT a decreasing-distance sort: float absorption can
    /// make a child's distance *equal* its parent's, and a dist-ordered
    /// sweep may then strand the child's load — under-recording arc flow
    /// the routed fraction still takes credit for. The parent pointers
    /// are always a well-founded forest.
    fn subtree_loads(&mut self) {
        let (net, ws) = (self.net, &self.ws);
        self.child_count.fill(0);
        for v in 0..net.node_count() {
            if let Some(a) = ws.parent(v) {
                self.child_count[net.arc_tail(a)] += 1;
            }
        }
        self.ready.clear();
        self.ready.extend(
            (0..net.node_count() as u32).filter(|&v| {
                self.child_count[v as usize] == 0 && ws.distance(v as usize).is_finite()
            }),
        );
        self.touched.clear();
        while let Some(vu) = self.ready.pop() {
            let v = vu as usize;
            let load = self.node_demand[v];
            self.node_demand[v] = 0.0;
            // the root absorbs everything pushed up to it
            let Some(a) = ws.parent(v) else { continue };
            if load > 0.0 {
                if self.tree_load[a] == 0.0 {
                    self.touched.push(a);
                }
                self.tree_load[a] += load;
                self.node_demand[net.arc_tail(a)] += load;
            }
            let t = net.arc_tail(a);
            self.child_count[t] -= 1;
            if self.child_count[t] == 0 {
                self.ready.push(t as u32);
            }
        }
    }
}

impl Step for KahnStep<'_> {
    fn route(&mut self, d: &mut Driver) -> Result<(), FlowError> {
        let (net, groups) = (self.net, self.groups);
        (self.steps, self.tree_us, self.kahn_us, self.alpha) = (0, 0, 0, 0.0);
        for (gi, g) in groups.iter().enumerate() {
            let mut frac_remaining = 1.0f64;
            let mut inner = 0usize;
            while frac_remaining > 1e-12 {
                inner += 1;
                if inner > 64 {
                    // skewed instances can shrink τ repeatedly; carry
                    // the leftover — the routed fraction only counts
                    // what was actually sent, so correctness is
                    // unaffected
                    break;
                }
                self.steps += 1;
                let t_tree = obs::clock();
                net.dijkstra(g.src, &d.length, &mut self.ws);
                self.tree_us += obs::us_since(t_tree);

                // seed the per-node sink demand for this step and check
                // reachability; harvest α from the phase's first tree
                let mut unreachable: Option<NodeId> = None;
                let mut alpha_g = 0.0f64;
                g.for_each_sink(|dst, dem| {
                    let dist = self.ws.distance(dst);
                    if !dist.is_finite() {
                        unreachable = unreachable.or(Some(dst));
                        return;
                    }
                    self.node_demand[dst] += frac_remaining * dem;
                    if inner == 1 {
                        alpha_g += dem * dist;
                    }
                });
                if let Some(dst) = unreachable {
                    return Err(FlowError::Unreachable { src: g.src, dst });
                }
                if inner == 1 {
                    self.alpha += alpha_g;
                }
                let t_kahn = obs::clock();
                self.subtree_loads();
                self.kahn_us += obs::us_since(t_kahn);

                // capacity-scaled step: never overload any arc
                let mut tau = 1.0f64;
                for &a in &self.touched {
                    tau = tau.min(net.capacity(a) / self.tree_load[a]);
                }
                for &a in &self.touched {
                    d.send(a, tau * self.tree_load[a]);
                    self.tree_load[a] = 0.0;
                }
                d.routed[gi] += tau * frac_remaining;
                frac_remaining -= tau * frac_remaining;
                if tau >= 1.0 {
                    break;
                }
            }
        }
        // dual BEFORE the driver's rescale: α was harvested under
        // in-phase lengths, which only grew since — D(l_end)/α_harvest
        // ≥ D(l_end)/α(l_end) ≥ λ*, a valid certificate (module docs)
        self.d_l = weighted_length_sum(net, &d.length);
        self.sssp_runs += self.steps;
        d.offer_dual(self.d_l / self.alpha);
        Ok(())
    }

    fn phase_done(&mut self, d: &Driver, primal: f64, t_phase: Option<Instant>) {
        // groups route sequentially, so this sits outside any parallel
        // region and the event sequence is deterministic per solve
        if obs::enabled() {
            obs::Event::new("grouped_phase")
                .field("phase", d.phase as u64)
                .field("steps", self.steps)
                .field("alpha", self.alpha)
                .field("d_l", self.d_l)
                .field("primal", primal)
                .field("dual", d.best_dual)
                .field("settles", self.ws.settles())
                .nd("tree_us", self.tree_us)
                .nd("kahn_us", self.kahn_us)
                .nd("wall_us", obs::us_since(t_phase))
                .emit();
        }
    }

    /// Final exact certificate: one SSSP per group at the terminal
    /// lengths evaluates α(l) and D(l) at the SAME l, which bounds λ*
    /// for any positive length function by LP duality. The in-loop
    /// mixed-age bound loosens as lengths grow within a phase; the
    /// terminal lengths are the most congestion-aware of the run and
    /// this single extra harvest usually tightens the interval by an
    /// order of magnitude for O(groups) SSSPs total.
    fn finish(&mut self, d: &mut Driver) {
        let t_harvest = obs::clock();
        let mut alpha_final = 0.0f64;
        for g in self.groups {
            self.net.dijkstra(g.src, &d.length, &mut self.ws);
            g.for_each_sink(|dst, dem| {
                let dist = self.ws.distance(dst);
                if dist.is_finite() {
                    alpha_final += dem * dist;
                }
            });
        }
        self.sssp_runs += self.groups.len() as u64;
        let d_final = weighted_length_sum(self.net, &d.length);
        let final_bound = d_final / alpha_final;
        d.offer_dual(final_bound);
        if obs::enabled() {
            obs::Event::new("grouped_harvest")
                .field("alpha", alpha_final)
                .field("d_l", d_final)
                .field("bound", final_bound)
                .nd("wall_us", obs::us_since(t_harvest))
                .emit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{max_concurrent_flow_csr, Commodity};
    use dctopo_graph::Graph;

    fn ring(n: usize, cap: f64) -> CsrNet {
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, cap).unwrap();
        }
        CsrNet::from_graph(&g)
    }

    fn opts() -> FlowOptions {
        FlowOptions {
            epsilon: 0.05,
            target_gap: 0.02,
            max_phases: 20000,
            stall_phases: 2000,
            ..FlowOptions::default()
        }
    }

    fn pairwise_of(groups: &[DemandGroup]) -> Vec<Commodity> {
        let mut cs = Vec::new();
        for g in groups {
            g.for_each_sink(|dst, demand| {
                cs.push(Commodity {
                    src: g.src,
                    dst,
                    demand,
                })
            });
        }
        cs
    }

    /// Certified intervals of the grouped and pairwise formulations of
    /// the same instance must overlap: each λ is feasible, so it can't
    /// exceed the other's certified upper bound.
    fn assert_intervals_overlap(net: &CsrNet, groups: &[DemandGroup]) {
        let o = opts();
        let grouped = solve_grouped(net, groups, &o).unwrap();
        let pairwise = max_concurrent_flow_csr(net, &pairwise_of(groups), &o).unwrap();
        assert!(
            grouped.throughput <= pairwise.upper_bound * (1.0 + 1e-9),
            "grouped λ {} exceeds pairwise bound {}",
            grouped.throughput,
            pairwise.upper_bound
        );
        assert!(
            pairwise.throughput <= grouped.upper_bound * (1.0 + 1e-9),
            "pairwise λ {} exceeds grouped bound {}",
            pairwise.throughput,
            grouped.upper_bound
        );
        assert!(
            grouped.gap() <= o.target_gap + 0.25,
            "gap {}",
            grouped.gap()
        );
    }

    #[test]
    fn single_pair_matches_capacity() {
        // two parallel 2-hop routes of capacity 1 ⇒ max flow 2
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 3, 1.0).unwrap();
        g.add_edge(0, 2, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        let net = CsrNet::from_graph(&g);
        let groups = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(3, 1.0)]),
        }];
        let s = solve_grouped(&net, &groups, &opts()).unwrap();
        assert!(s.throughput > 1.9, "λ = {}", s.throughput);
        assert!(s.upper_bound >= s.throughput);
        assert!(s.upper_bound <= 2.0 / (1.0 - 0.05) + 1e-9);
        assert_eq!(s.group_rate_factor.len(), 1);
        assert!((s.group_rate_factor[0] - s.throughput).abs() < 1e-12);
        assert!(s.settles > 0);
    }

    #[test]
    fn grouped_interval_overlaps_pairwise_on_ring() {
        let net = ring(8, 1.0);
        let groups: Vec<DemandGroup> = (0..4)
            .map(|s| DemandGroup {
                src: s,
                sinks: SinkSpec::List(vec![((s + 3) % 8, 1.0), ((s + 4) % 8, 0.5)]),
            })
            .collect();
        assert_intervals_overlap(&net, &groups);
    }

    #[test]
    fn weighted_all_to_all_interval_overlaps_pairwise() {
        let net = ring(6, 2.0);
        let weights = Arc::new(vec![1.0; 6]);
        let groups: Vec<DemandGroup> = (0..6)
            .map(|s| DemandGroup::weighted(s, Arc::clone(&weights), 1.0))
            .collect();
        assert_intervals_overlap(&net, &groups);
    }

    #[test]
    fn weighted_matches_equivalent_list_bitwise() {
        let net = ring(6, 1.0);
        let weights = Arc::new(vec![0.0, 2.0, 0.0, 1.0, 0.5, 0.0]);
        let as_weighted = [DemandGroup::weighted(0, weights, 3.0)];
        let as_list = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(1, 6.0), (3, 3.0), (4, 1.5)]),
        }];
        let a = solve_grouped(&net, &as_weighted, &opts()).unwrap();
        let b = solve_grouped(&net, &as_list, &opts()).unwrap();
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
        assert_eq!(a.phases, b.phases);
        for (x, y) in a.arc_flow.iter().zip(&b.arc_flow) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn weighted_skips_own_source() {
        let weights = Arc::new(vec![1.0; 4]);
        let g = DemandGroup::weighted(2, Arc::clone(&weights), 1.0);
        assert_eq!(g.sink_count(), 3);
        assert_eq!(g.total_demand(), 3.0);
        let mut sinks = Vec::new();
        g.for_each_sink(|dst, _| sinks.push(dst));
        assert_eq!(sinks, vec![0, 1, 3]);
    }

    #[test]
    fn unreachable_sink_is_reported() {
        // 0–1 connected, 2 isolated
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0).unwrap();
        let net = CsrNet::from_graph(&g);
        let groups = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(1, 1.0), (2, 1.0)]),
        }];
        let err = solve_grouped(&net, &groups, &opts()).unwrap_err();
        assert!(matches!(err, FlowError::Unreachable { src: 0, dst: 2 }));
    }

    #[test]
    fn validation_rejects_bad_groups() {
        let net = ring(4, 1.0);
        let o = opts();
        assert!(matches!(
            solve_grouped(&net, &[], &o),
            Err(FlowError::NoCommodities)
        ));
        let selfc = [DemandGroup {
            src: 1,
            sinks: SinkSpec::List(vec![(1, 1.0)]),
        }];
        assert!(matches!(
            solve_grouped(&net, &selfc, &o),
            Err(FlowError::SelfCommodity { index: 0 })
        ));
        let badd = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(1, -2.0)]),
        }];
        assert!(matches!(
            solve_grouped(&net, &badd, &o),
            Err(FlowError::BadDemand { index: 0, .. })
        ));
        let allzero = [DemandGroup::weighted(0, Arc::new(vec![0.0; 4]), 1.0)];
        assert!(matches!(
            solve_grouped(&net, &allzero, &o),
            Err(FlowError::BadDemand { index: 0, .. })
        ));
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad_scale = [DemandGroup::weighted(0, Arc::new(vec![1.0; 4]), scale)];
            assert!(matches!(
                solve_grouped(&net, &bad_scale, &o),
                Err(FlowError::BadDemand { index: 0, .. })
            ));
        }
        let far = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(9, 1.0)]),
        }];
        assert!(matches!(
            solve_grouped(&net, &far, &o),
            Err(FlowError::Graph(_))
        ));
        let shortw = [DemandGroup::weighted(0, Arc::new(vec![1.0; 3]), 1.0)];
        assert!(matches!(
            solve_grouped(&net, &shortw, &o),
            Err(FlowError::BadOptions(_))
        ));
    }

    #[test]
    fn deterministic_across_reruns() {
        let net = ring(10, 1.5);
        let weights = Arc::new(vec![1.0; 10]);
        let groups: Vec<DemandGroup> = (0..10)
            .map(|s| DemandGroup::weighted(s, Arc::clone(&weights), 1.0))
            .collect();
        let a = solve_grouped(&net, &groups, &opts()).unwrap();
        let b = solve_grouped(&net, &groups, &opts()).unwrap();
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
        assert_eq!(a.settles, b.settles);
    }
}
