//! Property-based tests (proptest) on the core invariants of the
//! workspace: graph builders, the flow solver's certificates, bounds,
//! and traffic generators.

use dctopo::bounds::aspl_lower_bound;
use dctopo::flow::{
    exact::exact_max_concurrent_flow, max_concurrent_flow, Commodity, FlowError, FlowOptions,
};
use dctopo::graph::components::{cut_size, is_connected};
use dctopo::graph::paths::path_stats;
use dctopo::graph::swaps::shuffle_edges;
use dctopo::graph::Graph;
use dctopo::prelude::*;
use dctopo::topology::hetero::{place_servers, two_cluster, CrossSpec};
use dctopo::traffic::TrafficMatrix as Tm;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn solver_opts() -> FlowOptions {
    FlowOptions {
        epsilon: 0.1,
        target_gap: 0.05,
        max_phases: 2000,
        stall_phases: 100,
        ..FlowOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RRGs are r-regular, simple, and respect the ASPL lower bound.
    #[test]
    fn rrg_regularity_and_aspl(seed in any::<u64>(), n in 8usize..40, r in 3usize..7) {
        prop_assume!(r < n && (n * r) % 2 == 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = Topology::random_regular(n, r + 2, r, &mut rng).unwrap();
        prop_assert_eq!(topo.graph.regular_degree(), Some(r));
        for v in 0..n {
            let mut nb: Vec<_> = topo.graph.neighbors(v).collect();
            let len = nb.len();
            nb.sort_unstable();
            nb.dedup();
            prop_assert_eq!(nb.len(), len, "parallel edge at {}", v);
        }
        if is_connected(&topo.graph) {
            let aspl = path_stats(&topo.graph).unwrap().aspl;
            let bound = aspl_lower_bound(n, r).unwrap();
            prop_assert!(aspl >= bound - 1e-9, "ASPL {} < bound {}", aspl, bound);
        }
    }

    /// Degree-preserving swaps preserve the degree sequence.
    #[test]
    fn swaps_preserve_degrees(seed in any::<u64>(), n in 10usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut topo = Topology::random_regular(n, 6, 4, &mut rng).unwrap();
        let before = topo.graph.degrees();
        let _ = shuffle_edges(&mut topo.graph, 20, &mut rng);
        prop_assert_eq!(topo.graph.degrees(), before);
    }

    /// two_cluster realises the exact requested cross-link count.
    #[test]
    fn two_cluster_exact_cross(seed in any::<u64>(), cross in 10usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let large = ClusterSpec { count: 10, ports: 16, servers_per_switch: 6 };
        let small = ClusterSpec { count: 20, ports: 8, servers_per_switch: 3 };
        let topo = two_cluster(large, small, CrossSpec::Exact(cross), &mut rng).unwrap();
        let in_large: Vec<bool> = (0..30).map(|v| v < 10).collect();
        prop_assert_eq!(cut_size(&topo.graph, &in_large), cross);
        topo.validate_ports().unwrap();
    }

    /// place_servers: totals exact, port budgets respected, and β = 1
    /// equals Proportional.
    #[test]
    fn placement_totals_and_limits(total in 20usize..120, beta in 0.0f64..2.0) {
        let ports = [32usize, 24, 16, 8, 8, 8];
        let class_of = [0usize, 0, 1, 2, 2, 2];
        let placed = place_servers(&ports, total, &ServerPlacement::PowerLaw { beta }, &class_of);
        prop_assume!(placed.is_ok());
        let placed = placed.unwrap();
        prop_assert_eq!(placed.iter().sum::<usize>(), total);
        for (i, &s) in placed.iter().enumerate() {
            prop_assert!(s < ports[i], "switch {} overloaded", i);
        }
        let prop1 = place_servers(&ports, total, &ServerPlacement::PowerLaw { beta: 1.0 }, &class_of).unwrap();
        let prop2 = place_servers(&ports, total, &ServerPlacement::Proportional, &class_of).unwrap();
        prop_assert_eq!(prop1, prop2);
    }

    /// Permutation traffic matrices are fixed-point-free bijections.
    #[test]
    fn permutation_is_bijection(seed in any::<u64>(), n in 2usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tm = Tm::random_permutation(n, &mut rng);
        prop_assert_eq!(tm.flow_count(), n);
        prop_assert!(tm.out_degree().iter().all(|&d| d == 1));
        prop_assert!(tm.in_degree().iter().all(|&d| d == 1));
        prop_assert!(tm.pairs().iter().all(|&(s, t)| s != t));
    }

    /// Chunky traffic keeps every server in at most one flow each way,
    /// and everyone participates except a possible sub-permutation
    /// leftover (fewer than 2 servers outside the chunky set).
    #[test]
    fn chunky_degree_invariant(seed in any::<u64>(), tors in 2usize..12, spt in 1usize..6, pct in 0.0f64..100.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let groups: Vec<Vec<usize>> = (0..tors).map(|t| (t * spt..(t + 1) * spt).collect()).collect();
        let tm = Tm::chunky(&groups, pct, &mut rng);
        let out = tm.out_degree();
        let inn = tm.in_degree();
        prop_assert!(out.iter().all(|&d| d <= 1));
        prop_assert!(inn.iter().all(|&d| d <= 1));
        // senders and receivers match up pairwise
        prop_assert_eq!(out.iter().sum::<usize>(), inn.iter().sum::<usize>());
        // at most one stranded rest-server (it takes < 2 to be unable to
        // form a permutation; ToR pairing strands nothing with equal
        // group sizes)
        let idle = out.iter().filter(|&&d| d == 0).count();
        prop_assert!(idle <= 1, "{} idle servers", idle);
    }

    /// Flow solver certificates: feasibility, primal ≤ dual, per-arc
    /// capacity respected.
    #[test]
    fn flow_certificates(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = Topology::random_regular(12, 6, 4, &mut rng).unwrap();
        prop_assume!(is_connected(&topo.graph));
        let g = &topo.graph;
        let cs: Vec<Commodity> =
            (0..6).map(|i| Commodity::unit(i, (i + 6) % 12)).collect();
        let s = max_concurrent_flow(g, &cs, &solver_opts()).unwrap();
        prop_assert!(s.throughput <= s.upper_bound * (1.0 + 1e-9));
        for a in 0..g.arc_count() {
            prop_assert!(s.arc_flow[a] <= g.arc_capacity(a) * (1.0 + 1e-9));
        }
        for (j, c) in cs.iter().enumerate() {
            prop_assert!(s.commodity_rate[j] >= s.throughput * c.demand - 1e-9);
        }
    }

    /// FPTAS brackets the exact LP optimum on tiny instances.
    #[test]
    fn fptas_brackets_exact(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        // ring of 6 + one chord keeps the exact LP tiny
        let mut g = Graph::new(6);
        for v in 0..6 {
            g.add_unit_edge(v, (v + 1) % 6).unwrap();
        }
        g.add_unit_edge(0, 3).unwrap();
        let tm = Tm::random_permutation(6, &mut rng);
        let cs: Vec<Commodity> =
            tm.pairs().iter().map(|&(s, t)| Commodity::unit(s, t)).collect();
        let exact = exact_max_concurrent_flow(&g, &cs).unwrap();
        let opts = FlowOptions {
            epsilon: 0.05,
            target_gap: 0.02,
            max_phases: 20000,
            stall_phases: 2000,
            ..FlowOptions::default()
        };
        let approx = max_concurrent_flow(&g, &cs, &opts).unwrap();
        prop_assert!(approx.throughput <= exact * (1.0 + 1e-6),
            "primal {} above exact {}", approx.throughput, exact);
        prop_assert!(approx.upper_bound >= exact * (1.0 - 1e-6),
            "dual {} below exact {}", approx.upper_bound, exact);
        prop_assert!(approx.throughput >= exact * 0.95,
            "primal {} too loose vs exact {}", approx.throughput, exact);
    }

    /// The ASPL lower bound is monotone: growing n (fixed r) never
    /// decreases it; growing r (fixed n) never increases it.
    #[test]
    fn aspl_bound_monotonicity(n in 6usize..500, r in 2usize..8) {
        prop_assume!(r < n);
        let b = aspl_lower_bound(n, r).unwrap();
        let b_bigger_n = aspl_lower_bound(n + 1, r).unwrap();
        prop_assert!(b_bigger_n >= b - 1e-12);
        if r + 1 < n {
            let b_bigger_r = aspl_lower_bound(n, r + 1).unwrap();
            prop_assert!(b_bigger_r <= b + 1e-12);
        }
    }

    /// Backend agreement on one shared CsrNet: `Fptas` lands within its
    /// `target_gap` of `ExactLp`'s optimum on random small RRGs, never
    /// above it, and the FPTAS dual brackets it from the other side.
    #[test]
    fn fptas_and_exactlp_backends_agree(seed in any::<u64>()) {
        use dctopo::flow::Backend;
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = Topology::random_regular(8, 5, 3, &mut rng).unwrap();
        prop_assume!(is_connected(&topo.graph));
        let net = dctopo::graph::CsrNet::from_graph(&topo.graph);
        let tm = Tm::random_permutation(topo.server_count(), &mut rng);
        let cs: Vec<Commodity> = dctopo::core::solve::aggregate_commodities(&topo, &tm);
        prop_assume!(!cs.is_empty());
        let opts = FlowOptions {
            epsilon: 0.05,
            target_gap: 0.02,
            max_phases: 30000,
            stall_phases: 3000,
            ..FlowOptions::default()
        };
        let exact = dctopo::flow::solve(&net, &cs, &opts.with_backend(Backend::ExactLp)).unwrap();
        let fptas = dctopo::flow::solve(&net, &cs, &opts).unwrap();
        prop_assert!(fptas.throughput <= exact.throughput * (1.0 + 1e-6),
            "fptas primal {} above exact {}", fptas.throughput, exact.throughput);
        prop_assert!(fptas.upper_bound >= exact.throughput * (1.0 - 1e-6),
            "fptas dual {} below exact {}", fptas.upper_bound, exact.throughput);
        prop_assert!(fptas.throughput >= exact.throughput * (1.0 - opts.target_gap - 0.01),
            "fptas primal {} outside target_gap of exact {}",
            fptas.throughput, exact.throughput);
    }
}

/// The KSP path-set cache is invisible to results: cached and cold
/// `KspRestricted` solves are bit-identical across 50 seeded random
/// graphs and 3 values of k, on both the miss path (first solve) and
/// the hit path (second solve), sharing ONE cache across all nets —
/// exercising the `(CsrNet identity, k)` keying.
#[test]
fn ksp_cache_bitwise_identical_on_50_seeded_graphs() {
    use dctopo::flow::ksp::{max_concurrent_flow_ksp_cached, max_concurrent_flow_ksp_csr};
    use dctopo::flow::PathSetCache;
    use dctopo::graph::CsrNet;
    use rand::RngExt;

    let cache = PathSetCache::new();
    let opts = FlowOptions {
        epsilon: 0.15,
        target_gap: 0.05,
        max_phases: 400,
        stall_phases: 40,
        ..FlowOptions::default()
    };
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(6..20);
        // ring (connected) + random chords with random capacities
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, rng.random_range(0.5..4.0))
                .unwrap();
        }
        for _ in 0..rng.random_range(0..n) {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v {
                g.add_edge(u, v, rng.random_range(0.5..4.0)).unwrap();
            }
        }
        let net = CsrNet::from_graph(&g);
        let cs: Vec<Commodity> = (0..3).map(|i| Commodity::unit(i, n / 2 + i)).collect();
        for k in [1usize, 2, 4] {
            let cold = max_concurrent_flow_ksp_csr(&net, &cs, k, &opts).unwrap();
            let miss = max_concurrent_flow_ksp_cached(&net, &cs, k, &opts, &cache).unwrap();
            let hit = max_concurrent_flow_ksp_cached(&net, &cs, k, &opts, &cache).unwrap();
            for (label, s) in [("miss", &miss), ("hit", &hit)] {
                assert_eq!(
                    cold.throughput.to_bits(),
                    s.throughput.to_bits(),
                    "seed {seed} k {k}: {label} throughput diverged"
                );
                assert_eq!(cold.upper_bound.to_bits(), s.upper_bound.to_bits());
                assert_eq!(cold.phases, s.phases, "seed {seed} k {k} ({label})");
                for (x, y) in cold.arc_flow.iter().zip(&s.arc_flow) {
                    assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} k {k} ({label})");
                }
                for (x, y) in cold.commodity_rate.iter().zip(&s.commodity_rate) {
                    assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} k {k} ({label})");
                }
            }
        }
    }
    let stats = cache.stats();
    // 50 graphs × 3 ks × 3 pairs: one miss + one hit per (net, k, pair)
    assert_eq!(stats.misses, 50 * 3 * 3);
    assert_eq!(stats.hits, 50 * 3 * 3);
}

/// Build the shared 50-seeded-graph family (ring + random chords with
/// random capacities) used by the fast-path and cache suites.
fn seeded_graph(seed: u64) -> Graph {
    use rand::RngExt;
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(6..20);
    let mut g = Graph::new(n);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n, rng.random_range(0.5..4.0))
            .unwrap();
    }
    for _ in 0..rng.random_range(0..n) {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            g.add_edge(u, v, rng.random_range(0.5..4.0)).unwrap();
        }
    }
    g
}

/// The FPTAS fast path (tree reuse + incremental Dijkstra repair) over
/// 50 seeded random graphs: (a) lands within `target_gap` of the exact
/// LP optimum and never above it, (b) never exceeds any arc capacity,
/// and (c) is bit-identical at 1, 2, and 8 rayon threads.
#[test]
fn fptas_fast_path_certified_on_50_seeded_graphs() {
    use dctopo::flow::Backend;
    use dctopo::graph::CsrNet;
    use rayon::ThreadPoolBuilder;

    let opts = FlowOptions {
        epsilon: 0.05,
        target_gap: 0.02,
        max_phases: 30000,
        stall_phases: 3000,
        ..FlowOptions::default()
    };
    assert!(!opts.strict_reference, "fast path must be the default");
    for seed in 0..50u64 {
        let g = seeded_graph(seed);
        let n = g.node_count();
        let net = CsrNet::from_graph(&g);
        let cs: Vec<Commodity> = (0..3).map(|i| Commodity::unit(i, n / 2 + i)).collect();
        let exact = dctopo::flow::solve(&net, &cs, &opts.with_backend(Backend::ExactLp)).unwrap();
        let fast = dctopo::flow::solve(&net, &cs, &opts).unwrap();
        // (a) within the certified gap of the exact optimum
        assert!(
            fast.throughput <= exact.throughput * (1.0 + 1e-6),
            "seed {seed}: fast primal {} above exact {}",
            fast.throughput,
            exact.throughput
        );
        assert!(
            fast.upper_bound >= exact.throughput * (1.0 - 1e-6),
            "seed {seed}: fast dual {} below exact {}",
            fast.upper_bound,
            exact.throughput
        );
        assert!(
            fast.throughput >= exact.throughput * (1.0 - opts.target_gap - 0.01),
            "seed {seed}: fast primal {} outside target_gap of exact {}",
            fast.throughput,
            exact.throughput
        );
        // (b) feasibility: no arc over capacity, every commodity served
        for a in 0..g.arc_count() {
            assert!(
                fast.arc_flow[a] <= g.arc_capacity(a) * (1.0 + 1e-9),
                "seed {seed}: arc {a} over capacity"
            );
        }
        for (j, c) in cs.iter().enumerate() {
            assert!(fast.commodity_rate[j] >= fast.throughput * c.demand - 1e-9);
        }
        // (c) bit-identical across thread counts
        let solve_at = |threads: usize| {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| dctopo::flow::solve(&net, &cs, &opts).unwrap())
        };
        for threads in [1usize, 2, 8] {
            let s = solve_at(threads);
            assert_eq!(
                fast.throughput.to_bits(),
                s.throughput.to_bits(),
                "seed {seed}: {threads} threads diverged"
            );
            assert_eq!(fast.upper_bound.to_bits(), s.upper_bound.to_bits());
            assert_eq!(fast.phases, s.phases);
            assert_eq!(fast.settles, s.settles);
            for (x, y) in fast.arc_flow.iter().zip(&s.arc_flow) {
                assert_eq!(x.to_bits(), y.to_bits(), "seed {seed}: {threads} threads");
            }
        }
    }
}

/// The `strict_reference` escape hatch reproduces the retained
/// direct-`Graph` baseline bit-for-bit across 50 seeded graphs — the
/// pin that keeps the legacy trajectory available unchanged.
#[test]
fn strict_reference_bitwise_matches_reference_on_50_seeded_graphs() {
    use dctopo::flow::reference::max_concurrent_flow_graph;

    let opts = FlowOptions {
        epsilon: 0.15,
        target_gap: 0.05,
        max_phases: 400,
        stall_phases: 40,
        ..FlowOptions::default()
    }
    .with_strict_reference(true);
    for seed in 0..50u64 {
        let g = seeded_graph(seed);
        let n = g.node_count();
        let cs: Vec<Commodity> = (0..3).map(|i| Commodity::unit(i, n / 2 + i)).collect();
        let legacy = max_concurrent_flow_graph(&g, &cs, &opts).unwrap();
        let strict = max_concurrent_flow(&g, &cs, &opts).unwrap();
        assert_eq!(
            legacy.throughput.to_bits(),
            strict.throughput.to_bits(),
            "seed {seed}: strict trajectory diverged from reference"
        );
        assert_eq!(legacy.upper_bound.to_bits(), strict.upper_bound.to_bits());
        assert_eq!(legacy.phases, strict.phases, "seed {seed}");
        for (x, y) in legacy.arc_flow.iter().zip(&strict.arc_flow) {
            assert_eq!(x.to_bits(), y.to_bits(), "seed {seed}");
        }
        for (x, y) in legacy.commodity_rate.iter().zip(&strict.commodity_rate) {
            assert_eq!(x.to_bits(), y.to_bits(), "seed {seed}");
        }
    }
}

/// 64-bit FNV-1a over a stream of words (each hashed as its 8
/// little-endian bytes).
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn floats(self, xs: &[f64]) -> Self {
        xs.iter().fold(self, |h, x| h.word(x.to_bits()))
    }
}

/// Digest of everything a pairwise solve reports: λ, bound, phases,
/// settles, arc flows, per-commodity rates and (when recorded)
/// per-commodity arc flows.
fn solved_digest(s: &dctopo::flow::SolvedFlow) -> u64 {
    let mut h = Fnv::new()
        .word(s.throughput.to_bits())
        .word(s.upper_bound.to_bits())
        .word(s.phases as u64)
        .word(s.settles)
        .floats(&s.arc_flow)
        .floats(&s.commodity_rate);
    for flows in s.commodity_arc_flow.iter().flatten() {
        h = h.floats(flows);
    }
    h.0
}

/// Digest of everything a grouped solve reports (per-group rate
/// factors in place of per-commodity rates).
fn grouped_digest(s: &dctopo::flow::GroupedFlow) -> u64 {
    Fnv::new()
        .word(s.throughput.to_bits())
        .word(s.upper_bound.to_bits())
        .word(s.phases as u64)
        .word(s.settles)
        .floats(&s.arc_flow)
        .floats(&s.group_rate_factor)
        .0
}

/// Per-seed trajectory digests of every FPTAS flavour on the 50 seeded
/// graphs, in column order: fast cold, fast warm re-solve of ±10%
/// drifted demands, fast with per-commodity flows, strict, `ksp:4`,
/// grouped `List` of the same commodities, grouped `Weighted`
/// all-to-all.
#[rustfmt::skip]
const TRAJECTORY_GOLDENS: [[u64; 7]; 50] = [
    [0xb052a889f048df3c, 0xa609d5df90b07a46, 0xabbd7235c10f47df, 0xb1eaefebcd0ed20d, 0x2e799f3275fc0bd4, 0x534ede34cdba93a0, 0xc1196be9ac2d2500],
    [0xac1e1490727a49e8, 0x317f3a026243231b, 0x8f438c1ec5f0fa8b, 0x597c14b8267bca12, 0x0a9c9a383219818b, 0x715cc4774266fa27, 0xa24eeb98f34ad415],
    [0xd2883cf551327b8f, 0xb02d8808fa9c9052, 0x825b05110c7e592d, 0xfd64505d7285525d, 0x24fd365ee8ad825c, 0xb60f6b0214c6317a, 0x6a60423c2b8d33ad],
    [0x08613140f074dcf2, 0x801d3fca3cf74887, 0xe76bfe64bd46cd46, 0xa990d547431365be, 0xe6a053b786d9b6fb, 0xed848713ce8f96bf, 0x9fc929e57ae30ee0],
    [0x1a19247ea680ac41, 0x08cc752bdc0c11a7, 0x0d3bcf2a76fa0350, 0xde823e028d5b7704, 0x52de483fcd2ff63a, 0x51c03fe5dc3b3fa1, 0x515c94dc0bd9a997],
    [0x1a23554eb2b41143, 0x5cd5b6d2f80e278d, 0x5f1d0730488bdd12, 0xe4be05cab865e65c, 0x5c461ace88b4f8d2, 0xedf2b5308acbacf1, 0x908f472dff6a822f],
    [0x2b1cdf9715cd2918, 0x3f2ef0936bdff8eb, 0xae94ba35f0591930, 0x634c5a5de9282cb8, 0xfd0dd1c53ec5b4d1, 0x6f9dce6bb9ea1e3f, 0x615c5380c4949472],
    [0x5de247b30942b62e, 0x552b2441a2869d48, 0x6b97a4966649a35a, 0xf64a92850e4781dc, 0xf577da48658abbdb, 0xbcb76018b09d97af, 0x7a2d9e038d2b7d3f],
    [0x9b41384bdf9ab097, 0xe8aa656e4a4e928d, 0x9e38b11b1c914f2e, 0x238024a45527f239, 0x4b2b085103882db5, 0xbd8972d6d5c428c1, 0xf9259f9529ca29f1],
    [0xabbe91da0e6a1f97, 0x8737c8065bc98e0c, 0x0c71e91629feef70, 0xbd68afeda4aee528, 0x59fb796ec137be6c, 0x49632c3854c7ec6f, 0xf22d3eb6c32b1687],
    [0xf9efa5b20a2ec624, 0x423aff8a643110d4, 0x56f03bc3dde96313, 0xc829717e328a66d3, 0x2bf7986ba01ce333, 0x21eca80ff0a660cd, 0x18c608a148e2b8d7],
    [0x6532f143b4320047, 0x1b61c04861684258, 0xd12f2a170e38c10a, 0x33778e4472c304dd, 0x4cf847b0f295303b, 0xddceaa9eea1e0f5a, 0x9ce7604857cf2501],
    [0x65410c6a6ddc3c90, 0xe3d69b109f202c20, 0x6b539fa05bf27cbd, 0x756ba84ea6e04e80, 0xc6acfb56ccd51332, 0xd5a24827ca9f25d5, 0x69fec581809bc3aa],
    [0xcc412a88415a7c33, 0x3424a28ad37eda34, 0x1edc4be6d056eb9a, 0x455bd2bb4bc2b5b0, 0xe9983ab74f1d729b, 0xe618a2ffc11b0a91, 0x39d8f36b4f3174d1],
    [0xd9e6ab8f61c4b0ed, 0x5b95d9f6378318b2, 0x354b7983aef0a01c, 0x305609cc63df03ee, 0xe440d9095cfcb2d2, 0x3f8878c1368514b3, 0x76b5721ffcebc0a5],
    [0x1db73ebf2bc8a985, 0x843eb3979df72f94, 0xd0e84c6ad756745c, 0x99b5dfbff74c0378, 0xce10045460e856c3, 0x469b5d2dbee75f57, 0x77b3b02c86676c8a],
    [0x69b6e0a629744219, 0xb28f3586bb8186e8, 0x711a94c9efed7d47, 0x621c928944b30d1c, 0x34fa48e74777e9f0, 0x0374c41217977024, 0xce6b7aff5beec79d],
    [0x88acd57133de1779, 0xe64f4f2f80aa8de7, 0xf7f0b2dee18e80f1, 0x52ee2ed24ad1143d, 0x0163406dcdb9608c, 0x76543c1a614c9999, 0xd4e2932f9a1fe7bf],
    [0x1580478f7c379083, 0xd10f5da47c24af9a, 0x2354a7f17576fdb7, 0xd66445f0075b75f2, 0x8653509b2f24a420, 0x9acc5c425147b29c, 0xd984f68ff58be47c],
    [0xca1c6bbc861664cb, 0xdea8ecef2374f80e, 0x312a4ce942c007b5, 0xc3d269ea06f67533, 0x203b283e1c88e936, 0xa8ec86d62cdb9ab3, 0x9124514265544660],
    [0xa30b84740495d0e1, 0xab34ba0b5c4a732a, 0x6799a79d1dbf1bea, 0x2637b73659cf2286, 0xd73b53edb499ebf7, 0xb9785d907101364b, 0x61c0e1e5fdfd00b7],
    [0x896edc9b25ee8f60, 0x3fec4349c78f516e, 0x79077dbe2e752945, 0x6f55fbb442c1dbd0, 0xfea790187631842d, 0x33c26a7600199d5f, 0xbfaf01a1019f76ea],
    [0x24bd838a65ad8a18, 0xeca90f4a56447c21, 0x44b6076bda825d79, 0x2ba4a7d61bc7c600, 0x6e67928436bb50f4, 0x57a41975a2feefa1, 0x664a2b85d982fecf],
    [0x5b1b6d16fd64af59, 0x40509241980f080f, 0x6583641b49524d26, 0xeac4ed7f7d9c2787, 0x11a3b741846a4610, 0x3154eba200e9adae, 0xb93cb95f98e1dc5a],
    [0x3b007578b312b5af, 0x5f006baee0265847, 0xc319f4fd86c08ee8, 0x96c7c52b0ac7708f, 0x78daa03ebd8b6e77, 0x3931498c7387fa57, 0xcf852d1e1e235758],
    [0x08e5db7294874cdb, 0xf6c793155c6cb7f3, 0xd8cc2f174c5c5b5e, 0x34063f7210fae277, 0x7f16d3e439ac308b, 0x70d0d52e184bfb22, 0x51eabc5b38354e9a],
    [0xdf966fe8b59674b2, 0x6479a37961ece92b, 0xa6d1efaf23394eb3, 0x39869f79b0e4be17, 0x5d9bd539e6d27dcd, 0x2fbe25e1da5696ae, 0x3cf1da1ca73cc085],
    [0x110240b7423b11b0, 0x7c242423a2602381, 0xd6620d088866f289, 0x65ff05c5691a1044, 0x284f1a7784d747a3, 0x51c7a018fbd0c1d8, 0x19f21981b241d55d],
    [0x267c8c22778bf33a, 0xbeac8f5252b4d9b5, 0xd433bb7666b211a4, 0x6581b7c4abcdaed8, 0xb0750ad26cf1c141, 0x08a10bdd9ace36d3, 0x894d111e2e2af3dd],
    [0x78a88645556b0b77, 0xf20014e66ce1c1da, 0xb92d5cfc3c66b741, 0x8df316a691f62021, 0x32473c686c2d9f03, 0x3c402e234a16c098, 0x118f5fae65daae1a],
    [0xc7ccecb8cb15f84d, 0x17eda5dd2f03557c, 0xc13a17a400eb6891, 0x43d89ba2142a5365, 0xbf68d41b717d9760, 0xd3f9c1fa736a9252, 0x8ab26b448bb1ef7e],
    [0x94b40796faa8cc4f, 0x648160e83a3fd4cc, 0x03e612545bf5f0f3, 0x444736233bead7ca, 0x867dfa105e9d48f8, 0xfe85a05683065bcc, 0xe5401f5a72bf6b0f],
    [0x68a2d71fb781da0b, 0x642f6f2aebba8061, 0x4e45cc6404715f3f, 0x12c901ecd54f3829, 0x0cdcb7c0d7446e59, 0xaf47ddf2022f03ac, 0x38a679f2760f1aca],
    [0x1089152d566eed82, 0x6206b510fbe936b0, 0x30a93d1c5802cdf5, 0x792dcda630bc4d4d, 0xa03cdf1cc85cab7b, 0x8e97feae7597e61f, 0x18fd0d803487e0ca],
    [0xe800e4d39b511756, 0xfc497c16f9344983, 0x50382ab29fb4a880, 0x49004f55d945a8e1, 0x5f88e2bfc92743ee, 0x4c97002508bcd494, 0x279db86f2d8ce628],
    [0x216bb548277bb1b4, 0xbecd1bcdaa71a9dd, 0x969711a0a51a8ad4, 0xb5be4acd57b8cca9, 0x15dbb9c9919842a1, 0x85cefdcb7263afa9, 0x8b1a6d6023177b77],
    [0xbf1eda696bc6365c, 0xf640651a11e0648e, 0xa1c89cb1e2d30761, 0xb7ba6efc944a6438, 0xe81fb1fb5057622f, 0x36692e0369d598aa, 0x6097b556bebf16a8],
    [0x46ed827f220f9d27, 0xb684a8f505d3cade, 0xfbfd0258481c10d3, 0x1b28b3e93cf6168b, 0x95cc1597666fd166, 0xaba3df7790e8fe9c, 0xe2e7e005e05372cd],
    [0xd5faf6b5d8b04348, 0xab0c399a2b960d5c, 0x58fe870b2996cdce, 0xcc74c337d51efed7, 0x3ed18e98152251e5, 0x9667b50b67a2c957, 0x221ad746adfafca3],
    [0x8a97184fb0b08a38, 0xca93f6659a62ef2c, 0x7817511c6b98ab66, 0xe7f6e80a223f5333, 0xe35b52642865cfcb, 0x53038c83d2601201, 0x354c3f136f18f251],
    [0x95cbcf30614acff0, 0xee4f235f76ea7543, 0x4b23f27c2fa7fa4c, 0x9e3e29accece51d0, 0x27a34fc4353b8e2b, 0x0f77d54eb03b8f87, 0xc6ebd1a0cb2a801b],
    [0x4730ee21efaa7815, 0xb89edcbdddda2fe0, 0x95e901e471c73336, 0x5123e05cc23b7f7c, 0x374b35de19253f4c, 0x9984d4f73e742efa, 0x8f1dcb1624a724e4],
    [0x62092b182e9e74e2, 0x83182e71ba6a8f9b, 0xa44cf8dc536f22ca, 0x12c7566430b0e41d, 0x9fd980c21333fe2b, 0x38df3c25582a37ad, 0x248f4fdfd3984b61],
    [0x974a484817cc5fb0, 0x36fa1392849cab8a, 0x81e9740b22782da4, 0x022307e1fa69423d, 0x11aed34540b13493, 0xdd85094c73171e64, 0x7333a0018887654e],
    [0xdb5ee392da91675e, 0xd21b8a1b653856b6, 0xeb03a4b57cd2e448, 0x0f81534c26f83c43, 0x2e20efa026979d7a, 0x8dcbe19bbda4606d, 0x7ac2207bd632e4dc],
    [0x55f0d0e44bbcad57, 0xacd07d33af31a473, 0x483cd5ef596ee0e1, 0x1edf8e7d3eace2a3, 0x25b6d441908b6e72, 0x40ac049128a55a1a, 0xb6688420a1b48ea8],
    [0x867d8569753e1acd, 0x480a06671c13014b, 0xeb330b6fcffd2fc3, 0xc2bd7a8689d98206, 0xc7ee30835785c977, 0xa61f9a1010d883d8, 0x89e9fb649a41b368],
    [0x9090281974f5e192, 0x14fd8d6aa1eb1319, 0xf5ebbc7e0da47d72, 0x734c8f8e3a4fd5e0, 0x4d009d6363b52b99, 0x4448eac3c70b9f40, 0x65711fa67e5a4c14],
    [0x771513a2c7a6e08b, 0x673d4f58a7dfa7a4, 0x5a14bdbc562932ef, 0xf502ba41aa96238d, 0xd2e53a53c7e072bc, 0x3ab4929e50962959, 0x02d5e14a2c896544],
    [0x4838533bed260d98, 0x38eec032fca0e655, 0x9a1cbb0a6f03e544, 0xa040785860237ea7, 0xab44dc30c0e5abe9, 0x931c59239aca44c3, 0x00887fde0d0e2fea],
];

/// The bits of every FPTAS trajectory are pinned: λ, bound, phases,
/// settles, arc flows and per-commodity (per-group) rates of the fast
/// (cold, warm, recorded-flows), strict, KSP and grouped (list and
/// weighted) solves on the 50 seeded graphs hash to committed values.
/// Any change to the phase loops that moves one bit fails here.
#[test]
fn fptas_trajectories_match_goldens_on_50_seeded_graphs() {
    use dctopo::flow::ksp::max_concurrent_flow_ksp_csr;
    use dctopo::flow::{max_concurrent_flow_warm, solve_grouped, DemandGroup, SinkSpec};
    use dctopo::graph::CsrNet;
    use std::sync::Arc;

    let opts = solver_opts();
    let mut table = [[0u64; 7]; 50];
    for (seed, row) in table.iter_mut().enumerate() {
        let g = seeded_graph(seed as u64);
        let n = g.node_count();
        let net = CsrNet::from_graph(&g);
        // three sources with two sinks each, so source groups share trees
        let cs: Vec<Commodity> = (0..3)
            .flat_map(|i| {
                [
                    Commodity::unit(i, n / 2 + i),
                    Commodity {
                        src: i,
                        dst: (n / 2 + i + 1) % n,
                        demand: 0.5,
                    },
                ]
            })
            .collect();
        let drifted: Vec<Commodity> = cs
            .iter()
            .enumerate()
            .map(|(j, c)| Commodity {
                demand: c.demand * (0.9 + 0.2 * (j as f64 / (cs.len() - 1) as f64)),
                ..*c
            })
            .collect();
        let (cold, state) = max_concurrent_flow_warm(&net, &cs, &opts, None).unwrap();
        let (warm, _) = max_concurrent_flow_warm(&net, &drifted, &opts, Some(&state)).unwrap();
        let recorded = dctopo::flow::solve(&net, &cs, &opts.with_commodity_flows(true)).unwrap();
        let strict = dctopo::flow::solve(&net, &cs, &opts.with_strict_reference(true)).unwrap();
        let ksp = max_concurrent_flow_ksp_csr(&net, &cs, 4, &opts).unwrap();
        let list: Vec<DemandGroup> = (0..3)
            .map(|i| DemandGroup {
                src: i,
                sinks: SinkSpec::List(
                    cs.iter()
                        .filter(|c| c.src == i)
                        .map(|c| (c.dst, c.demand))
                        .collect(),
                ),
            })
            .collect();
        let weights = Arc::new(vec![1.0; n]);
        let all_to_all: Vec<DemandGroup> = (0..n)
            .map(|v| DemandGroup::weighted(v, Arc::clone(&weights), 1.0))
            .collect();
        *row = [
            solved_digest(&cold),
            solved_digest(&warm),
            solved_digest(&recorded),
            solved_digest(&strict),
            solved_digest(&ksp),
            grouped_digest(&solve_grouped(&net, &list, &opts).unwrap()),
            grouped_digest(&solve_grouped(&net, &all_to_all, &opts).unwrap()),
        ];
    }
    let mismatches: Vec<String> = table
        .iter()
        .zip(&TRAJECTORY_GOLDENS)
        .enumerate()
        .flat_map(|(seed, (got, want))| {
            (0..7)
                .filter(move |&c| got[c] != want[c])
                .map(move |c| format!("seed {seed} column {c}: {:#018x}", got[c]))
        })
        .collect();
    let rows: Vec<String> = table
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    [{}],", cells.join(", "))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} trajectory digests moved:\n{}\ncomputed table:\n{}",
        mismatches.len(),
        mismatches.join("\n"),
        rows.join("\n")
    );
}

/// On the sweep workload the fast path is tuned for — an RRG
/// permutation matrix — the default FPTAS performs materially fewer
/// Dijkstra-equivalent settles than the strict legacy trajectory while
/// still certifying its gap (the committed `BENCH_fptas.json` asserts
/// ≥2× on the full 8-matrix sweep; one matrix keeps this test quick).
#[test]
fn fptas_fast_path_settles_less_on_rrg_sweep_matrix() {
    use dctopo::core::solve::aggregate_commodities;
    use dctopo::graph::CsrNet;

    let mut rng = StdRng::seed_from_u64(20140402);
    let topo = Topology::random_regular(64, 12, 8, &mut rng).unwrap();
    let tm = Tm::random_permutation(topo.server_count(), &mut rng);
    let cs = aggregate_commodities(&topo, &tm);
    let net = CsrNet::from_graph(&topo.graph);
    let o = FlowOptions {
        max_phases: 4000,
        stall_phases: 400,
        ..FlowOptions::fast()
    };
    let fast = dctopo::flow::solve(&net, &cs, &o).unwrap();
    let strict = dctopo::flow::solve(&net, &cs, &o.with_strict_reference(true)).unwrap();
    assert!(fast.gap() <= o.target_gap + 1e-9, "fast gap {}", fast.gap());
    // certified intervals bracket the same optimum
    assert!(fast.throughput <= strict.upper_bound * (1.0 + 1e-9));
    assert!(strict.throughput <= fast.upper_bound * (1.0 + 1e-9));
    assert!(
        2 * fast.settles <= strict.settles,
        "fast {} vs strict {} settles",
        fast.settles,
        strict.settles
    );
}

/// Incremental Dijkstra repair equals a cold recompute on randomised
/// increase sequences: distances bitwise on every graph; parents too
/// (the lengths here stay within a few orders of magnitude, so no
/// absorption plateau arises and the cold parent rule applies exactly).
#[test]
fn dijkstra_repair_matches_cold_on_random_increase_sequences() {
    use dctopo::graph::csr::DijkstraWorkspace;
    use dctopo::graph::CsrNet;
    use rand::RngExt;

    for seed in 0..50u64 {
        let g = seeded_graph(seed);
        let n = g.node_count();
        let net = CsrNet::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1DA);
        let mut lens: Vec<f64> = (0..net.arc_count())
            .map(|_| rng.random_range(0.01..5.0))
            .collect();
        let src = rng.random_range(0..n);
        let mut ws = DijkstraWorkspace::new(n);
        net.dijkstra(src, &lens, &mut ws);
        let mut cold = DijkstraWorkspace::new(n);
        for _round in 0..10 {
            let mut increased = Vec::new();
            for (a, len) in lens.iter_mut().enumerate() {
                if rng.random_range(0.0..1.0) < 0.25 {
                    *len *= 1.0 + rng.random_range(0.0..1.5);
                    increased.push(a as u32);
                }
            }
            net.dijkstra_repair(src, &lens, &increased, &mut ws);
            net.dijkstra(src, &lens, &mut cold);
            for v in 0..n {
                assert_eq!(
                    cold.distance(v).to_bits(),
                    ws.distance(v).to_bits(),
                    "seed {seed} node {v}: repaired distance diverged"
                );
                assert_eq!(cold.parent(v), ws.parent(v), "seed {seed} node {v}: parent");
            }
        }
    }
}

/// The metamorphic property suite on 50 seeded RRG/VL2 instances: the
/// paper's monotonicity and dominance laws hold on every scenario cell.
///
/// * (a) throughput is monotone **non-increasing** as links fail
///   (failure sets are nested prefixes of one seeded order, so this is
///   a theorem, asserted through the certified intervals: a deeper
///   level's feasible primal can never clear a shallower level's dual
///   bound);
/// * (b) throughput is monotone **non-decreasing** as capacity scales
///   up, and ×s scaling multiplies the optimum by exactly s (again via
///   certificates: `upper(s·c) ≥ s · primal(c)`);
/// * (c) on every cell the achieved network λ sits below the per-cell
///   Theorem-1 hop bound, and RRG cells additionally respect
///   `cut_throughput_bound` (half-split clusters, demand-weighted
///   observed distances) and the topology-independent
///   `throughput_upper_bound(n, r, f)`.
#[test]
fn metamorphic_failure_and_capacity_laws_on_50_seeded_instances() {
    use dctopo::bounds::cut_throughput_bound;
    use dctopo::core::solve::aggregate_commodities;
    use dctopo::core::sweep::hop_throughput_bound;
    use dctopo::core::{Degradation, Scenario, ThroughputEngine};
    use dctopo::topology::vl2::{vl2, Vl2Params};

    let opts = FlowOptions {
        epsilon: 0.1,
        target_gap: 0.04,
        max_phases: 4000,
        stall_phases: 200,
        ..FlowOptions::default()
    };
    let mut checked = 0usize;
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // alternate the two families the paper sweeps
        let (topo, rrg_shape) = if seed % 2 == 0 {
            let r = 3 + (seed as usize / 2) % 2; // degree 3 or 4
            let mut n = 8 + (seed as usize) % 6; // 8..13 switches
            if (n * r) % 2 == 1 {
                n += 1;
            }
            let t = Topology::random_regular(n, r + 2, r, &mut rng).unwrap();
            (t, Some((n, r)))
        } else {
            let tors = 2 + (seed as usize) % 3; // 2..4 ToRs
            let t = vl2(Vl2Params {
                d_a: 4,
                d_i: 4,
                tors: Some(tors),
            })
            .unwrap();
            (t, None)
        };
        if !is_connected(&topo.graph) {
            continue;
        }
        checked += 1;
        let engine = ThroughputEngine::new(&topo);
        let tm = Tm::random_permutation(topo.server_count(), &mut rng);
        let commodities = aggregate_commodities(&topo, &tm);
        if commodities.is_empty() {
            continue;
        }

        // ---- (a) + (c): link-failure levels ----
        let mut prev_dual: Option<f64> = None;
        let mut dead = false;
        for &count in &[0usize, 1, 3] {
            let sc = Scenario::new(
                format!("fail{count}"),
                vec![Degradation::FailLinks { count, seed: 99 }],
            );
            let ap = sc.apply(&topo, engine.net()).unwrap();
            match engine.solve_scenario(&ap, &tm, &opts) {
                Ok(r) => {
                    assert!(
                        !dead,
                        "seed {seed}: level {count} reconnected a nested failure set"
                    );
                    let lam = r.network_lambda;
                    // (c) hop bound dominates every backend's λ
                    let hop = hop_throughput_bound(&ap.net, &r.commodities);
                    assert!(
                        lam <= hop * (1.0 + 1e-9),
                        "seed {seed} fail{count}: λ {lam} above hop bound {hop}"
                    );
                    // (c) cut bound on the half split, demand-weighted
                    // observed distances (aspl·f = Σ d_j·dist_j exactly,
                    // so the path term is the certified hop form)
                    let n_sw = topo.switch_count();
                    let cross_cap: f64 = (0..ap.net.arc_count())
                        .filter(|&a| {
                            ap.net.is_live(a)
                                && (ap.net.arc_tail(a) < n_sw / 2)
                                    != (ap.net.arc_head(a) < n_sw / 2)
                        })
                        .map(|a| ap.net.capacity(a))
                        .sum();
                    let n1: usize = topo.servers_at[..n_sw / 2].iter().sum();
                    let n2: usize = topo.servers_at[n_sw / 2..].iter().sum();
                    let f = (n1 + n2) as f64;
                    let alpha = ap.net.total_capacity() / hop; // Σ d_j·dist_j
                    if n1 > 0 && n2 > 0 && alpha > 0.0 && cross_cap > 0.0 {
                        let cut = cut_throughput_bound(
                            ap.net.total_capacity(),
                            cross_cap,
                            alpha / f,
                            n1,
                            n2,
                        );
                        assert!(
                            r.throughput <= cut * (1.0 + 0.02),
                            "seed {seed} fail{count}: throughput {} above cut bound {cut}",
                            r.throughput
                        );
                    }
                    // (c) topology-independent Theorem-1 bound for RRGs
                    if let Some((n, deg)) = rrg_shape {
                        let bound = dctopo::bounds::throughput_upper_bound(n, deg, tm.flow_count());
                        assert!(
                            r.throughput <= bound * (1.0 + 0.02),
                            "seed {seed} fail{count}: throughput {} above T1 bound {bound}",
                            r.throughput
                        );
                    }
                    // (a) monotone: feasible primal never clears the
                    // previous (less-failed) level's certified dual
                    if let Some(prev) = prev_dual {
                        assert!(
                            lam <= prev * (1.0 + 1e-9),
                            "seed {seed}: λ rose from dual {prev} to {lam} at fail{count}"
                        );
                    }
                    prev_dual = Some(r.network_upper_bound);
                }
                Err(FlowError::Unreachable { .. }) => dead = true,
                Err(e) => panic!("seed {seed} fail{count}: unexpected error {e}"),
            }
        }

        // ---- (b): capacity scaling ----
        let mut prev: Option<(f64, f64)> = None; // (primal, dual) at prev scale
        let mut base_primal = 0.0f64;
        for &factor in &[1.0f64, 1.5, 2.0] {
            let sc = Scenario::new(
                format!("scale{factor}"),
                vec![Degradation::ScaleCapacity { factor }],
            );
            let ap = sc.apply(&topo, engine.net()).unwrap();
            let r = engine.solve_scenario(&ap, &tm, &opts).unwrap();
            let (lam, ub) = (r.network_lambda, r.network_upper_bound);
            if factor == 1.0 {
                base_primal = lam;
            }
            // non-decreasing: the previous (smaller) scale's primal must
            // fit under this scale's dual
            if let Some((prev_primal, prev_dual)) = prev {
                assert!(
                    prev_primal <= ub * (1.0 + 1e-9),
                    "seed {seed}: λ* shrank when capacity scaled to {factor}"
                );
                // and this primal can't beat s2/s1 × the previous dual
                assert!(
                    lam <= prev_dual * 2.0 * (1.0 + 1e-9),
                    "seed {seed}: λ {lam} above scaled dual at {factor}"
                );
            }
            // exact scaling law via certificates: λ*(s·c) = s·λ*(c)
            assert!(
                ub >= factor * base_primal * (1.0 - 1e-9),
                "seed {seed}: dual {ub} below {factor}x base primal {base_primal}"
            );
            prev = Some((lam, ub));
        }
    }
    assert!(checked >= 40, "only {checked} instances were connected");
}

/// Cross-backend differential on degraded scenarios — the 50-seeded-
/// graph pin extended to failure deltas. On each seeded graph a seeded
/// set of links fails through `CsrNet::with_disabled_arcs`; then:
///
/// * `Fptas` fast and strict land within the certified gap of
///   `ExactLp`'s optimum on the degraded view, never above it;
/// * the fast path is bit-identical at 1/2/8 rayon threads on views;
/// * solving the *view* is bit-identical to solving a net rebuilt from
///   the degraded graph (delta views are semantically invisible);
/// * `KspRestricted` (k = 8) stays within its own certificates, below
///   the exact optimum, and its cached solves are bit-identical to cold
///   ones on views (one shared cache across all 50 view structures);
/// * when the failure disconnects a commodity, every iterative backend
///   reports `Unreachable` rather than hanging or fabricating numbers.
#[test]
fn backends_agree_on_degraded_views_across_50_seeded_graphs() {
    use dctopo::flow::ksp::{max_concurrent_flow_ksp_cached, max_concurrent_flow_ksp_csr};
    use dctopo::flow::{Backend, PathSetCache};
    use dctopo::graph::csr::DijkstraWorkspace;
    use dctopo::graph::CsrNet;
    use dctopo::topology::degrade;
    use rayon::ThreadPoolBuilder;

    let opts = FlowOptions {
        epsilon: 0.05,
        target_gap: 0.02,
        max_phases: 30000,
        stall_phases: 3000,
        ..FlowOptions::default()
    };
    let cache = PathSetCache::new();
    let mut solved = 0usize;
    let mut disconnected = 0usize;
    for seed in 0..50u64 {
        let g = seeded_graph(seed);
        let n = g.node_count();
        let net = CsrNet::from_graph(&g);
        let fail = 1 + (seed as usize) % 3;
        let order = degrade::edge_failure_order(&g, seed);
        let arcs: Vec<usize> = order[..fail.min(order.len())]
            .iter()
            .map(|&e| e << 1)
            .collect();
        let view = net.with_disabled_arcs(&arcs).unwrap();
        let cs: Vec<Commodity> = (0..3).map(|i| Commodity::unit(i, n / 2 + i)).collect();

        // connectivity of the surviving pairs
        let ones = vec![1.0f64; view.arc_count()];
        let mut ws = DijkstraWorkspace::new(n);
        let connected = cs.iter().all(|c| {
            view.dijkstra(c.src, &ones, &mut ws);
            ws.distance(c.dst).is_finite()
        });
        if !connected {
            disconnected += 1;
            for strict in [false, true] {
                let r = dctopo::flow::solve(&view, &cs, &opts.with_strict_reference(strict));
                assert!(
                    matches!(r, Err(FlowError::Unreachable { .. })),
                    "seed {seed}: expected Unreachable, got {r:?}"
                );
            }
            assert!(matches!(
                max_concurrent_flow_ksp_csr(&view, &cs, 8, &opts),
                Err(FlowError::Unreachable { .. })
            ));
            continue;
        }
        solved += 1;

        let exact = dctopo::flow::solve(&view, &cs, &opts.with_backend(Backend::ExactLp)).unwrap();
        let fast = dctopo::flow::solve(&view, &cs, &opts).unwrap();
        let strict = dctopo::flow::solve(&view, &cs, &opts.with_strict_reference(true)).unwrap();
        for (label, s) in [("fast", &fast), ("strict", &strict)] {
            assert!(
                s.throughput <= exact.throughput * (1.0 + 1e-6),
                "seed {seed}: {label} primal {} above exact {}",
                s.throughput,
                exact.throughput
            );
            assert!(
                s.upper_bound >= exact.throughput * (1.0 - 1e-6),
                "seed {seed}: {label} dual {} below exact {}",
                s.upper_bound,
                exact.throughput
            );
            assert!(
                s.throughput >= exact.throughput * (1.0 - opts.target_gap - 0.01),
                "seed {seed}: {label} primal {} outside target_gap of exact {}",
                s.throughput,
                exact.throughput
            );
            // no flow may land on failed arcs
            for &a in &arcs {
                assert_eq!(
                    s.arc_flow[a], 0.0,
                    "seed {seed}: {label} used failed arc {a}"
                );
                assert_eq!(s.arc_flow[a | 1], 0.0);
            }
        }

        // the delta view is semantically invisible: bit-identical to a
        // net rebuilt from the degraded graph (node ids preserved)
        let rebuilt = CsrNet::from_graph(&view.to_graph());
        for strict in [false, true] {
            let o = opts.with_strict_reference(strict);
            let v = dctopo::flow::solve(&view, &cs, &o).unwrap();
            let r = dctopo::flow::solve(&rebuilt, &cs, &o).unwrap();
            assert_eq!(
                v.throughput.to_bits(),
                r.throughput.to_bits(),
                "seed {seed} strict {strict}: view diverged from rebuild"
            );
            assert_eq!(v.upper_bound.to_bits(), r.upper_bound.to_bits());
            assert_eq!(v.phases, r.phases);
            assert_eq!(v.settles, r.settles);
        }

        // fast path bit-identical across thread counts on the view
        let solve_at = |threads: usize| {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| dctopo::flow::solve(&view, &cs, &opts).unwrap())
        };
        for threads in [2usize, 8] {
            let s = solve_at(threads);
            assert_eq!(
                fast.throughput.to_bits(),
                s.throughput.to_bits(),
                "seed {seed}: {threads} threads diverged on view"
            );
            assert_eq!(fast.settles, s.settles);
        }

        // KSP: certificates hold, optimum bounded by exact, cached
        // solves bitwise-equal to cold (one cache, 50 view structures)
        let cold = max_concurrent_flow_ksp_csr(&view, &cs, 8, &opts).unwrap();
        let miss = max_concurrent_flow_ksp_cached(&view, &cs, 8, &opts, &cache).unwrap();
        let hit = max_concurrent_flow_ksp_cached(&view, &cs, 8, &opts, &cache).unwrap();
        for (label, s) in [("miss", &miss), ("hit", &hit)] {
            assert_eq!(
                cold.throughput.to_bits(),
                s.throughput.to_bits(),
                "seed {seed}: ksp {label} diverged from cold on view"
            );
            assert_eq!(cold.upper_bound.to_bits(), s.upper_bound.to_bits());
            assert_eq!(cold.phases, s.phases);
        }
        // the restricted optimum sits below the unrestricted one (by
        // construction — k simple paths can genuinely capture less
        // capacity on these parallel-edge multigraphs, so no lower
        // bound against `exact` is a theorem), within its own
        // certified interval, and strictly positive
        assert!(cold.throughput <= exact.throughput * (1.0 + 1e-6));
        assert!(cold.throughput <= cold.upper_bound * (1.0 + 1e-9));
        assert!(cold.throughput > 0.0, "seed {seed}: ksp solved nothing");
    }
    assert!(
        solved >= 30,
        "need most instances connected to make the differential meaningful ({solved})"
    );
    assert!(solved + disconnected == 50);
}

/// Worker-pool runs match single-thread results bitwise: the FPTAS on
/// an instance big enough to take the parallel dual-bound path returns
/// identical output at every chunk count.
#[test]
fn pool_runs_match_single_thread_results() {
    use dctopo::graph::CsrNet;
    use rayon::ThreadPoolBuilder;

    let mut rng = StdRng::seed_from_u64(42);
    // 32 source groups × 256 arcs crosses the parallel-pass threshold
    let topo = Topology::random_regular(32, 12, 8, &mut rng).unwrap();
    let net = CsrNet::from_graph(&topo.graph);
    let cs: Vec<Commodity> = (0..32).map(|i| Commodity::unit(i, (i + 13) % 32)).collect();
    let opts = FlowOptions::fast();
    let solve_at = |threads: usize| {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| dctopo::flow::solve(&net, &cs, &opts).unwrap())
    };
    let base = solve_at(1);
    for threads in [2, 4, 8] {
        let s = solve_at(threads);
        assert_eq!(
            base.throughput.to_bits(),
            s.throughput.to_bits(),
            "{threads}-way chunking diverged"
        );
        assert_eq!(base.upper_bound.to_bits(), s.upper_bound.to_bits());
        assert_eq!(base.phases, s.phases);
        for (x, y) in base.arc_flow.iter().zip(&s.arc_flow) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// CsrNet Dijkstra (indexed-heap, early-terminating engine) reproduces
/// `paths::dijkstra` bitwise on 100 seeded random graphs with random
/// positive arc lengths.
#[test]
fn csr_dijkstra_matches_legacy_on_100_seeded_graphs() {
    use dctopo::graph::csr::DijkstraWorkspace;
    use dctopo::graph::paths::dijkstra;
    use dctopo::graph::CsrNet;
    use rand::RngExt;

    let mut ws = DijkstraWorkspace::new(0);
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(6..40);
        // ring (connected) + random chords with random capacities
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, rng.random_range(0.5..4.0))
                .unwrap();
        }
        for _ in 0..rng.random_range(0..2 * n) {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v {
                g.add_edge(u, v, rng.random_range(0.5..4.0)).unwrap();
            }
        }
        let lens: Vec<f64> = (0..g.arc_count())
            .map(|_| rng.random_range(0.01..5.0))
            .collect();
        let net = CsrNet::from_graph(&g);
        let src = rng.random_range(0..n);
        let legacy = dijkstra(&g, src, &lens);
        net.dijkstra(src, &lens, &mut ws);
        for v in 0..n {
            assert_eq!(
                legacy.dist[v].to_bits(),
                ws.distance(v).to_bits(),
                "seed {seed}: dist mismatch at node {v}"
            );
            assert_eq!(
                legacy.parent_arc[v],
                ws.parent(v),
                "seed {seed}: parent mismatch at node {v}"
            );
        }
    }
}

/// The expansion move's invariants on 50 seeded topologies: adding a
/// switch Jellyfish-style preserves every existing switch's degree,
/// never creates a parallel edge or self loop, attaches exactly the
/// requested network degree, and keeps the port bookkeeping valid —
/// the contract the search engine's growth moves build on. The
/// bounded-retry error path is pinned on near-complete graphs, where
/// no donatable link avoids the new switch's neighborhood.
#[test]
fn expand_random_invariants_on_50_seeded_topologies() {
    use dctopo::graph::components::is_connected;
    use dctopo::topology::expand::expand_random;
    use rand::RngExt;

    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(10..24);
        let degree = 2 * rng.random_range(2..4); // 4 or 6, even
        let ports = degree + rng.random_range(1..4);
        let mut topo = Topology::random_regular(n, ports, degree, &mut rng)
            .unwrap_or_else(|e| panic!("seed {seed}: build failed: {e}"));
        let before = topo.graph.degrees();
        let new = expand_random(&mut topo, ports, degree, 0, &mut rng)
            .unwrap_or_else(|e| panic!("seed {seed}: expansion failed: {e}"));
        assert_eq!(new, n, "seed {seed}: new switch id");
        // existing degrees preserved exactly, new switch fully wired
        assert_eq!(&topo.graph.degrees()[..n], &before[..], "seed {seed}");
        assert_eq!(topo.graph.degree(new), degree, "seed {seed}");
        // simple graph: no parallel edges, no self loops
        for v in 0..topo.graph.node_count() {
            let mut nb: Vec<_> = topo.graph.neighbors(v).collect();
            let len = nb.len();
            nb.sort_unstable();
            nb.dedup();
            assert_eq!(nb.len(), len, "seed {seed}: parallel edge at {v}");
            assert!(!nb.contains(&v), "seed {seed}: self loop at {v}");
        }
        // bookkeeping: port budgets, class labels, server counts
        topo.validate_ports()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(topo.servers_at[new], ports - degree, "seed {seed}");
        assert_eq!(topo.class_of[new], 0, "seed {seed}");
        // donating links cannot disconnect a connected fabric: each
        // removed edge is replaced by a 2-path through the new switch
        assert!(is_connected(&topo.graph), "seed {seed}");
    }

    // error path: on a complete graph the new switch runs out of
    // donatable links (every remaining edge touches its neighborhood)
    // and the bounded retry budget must fire as a typed error
    for n in [5usize, 6] {
        let mut rng = StdRng::seed_from_u64(99);
        let mut topo = dctopo::topology::classic::complete(n, 1).unwrap();
        let want = 2 * (n - 2); // more ports than any donation can satisfy
        let err = expand_random(&mut topo, want, want, 0, &mut rng);
        assert!(
            matches!(err, Err(GraphError::Unrealizable(ref m)) if m.contains("stuck")),
            "K{n}: expected the bounded-retry error, got {err:?}"
        );
    }
}
