//! Synthetic power-law graphs in CSR form, generated on demand.
//!
//! The Ligra benchmarks run over real web/social graphs; we generate a
//! skewed random graph with the properties that matter for the memory
//! system: a heavy-tailed degree distribution (a few hub vertices absorb
//! many edges and stay cache/TLB-resident, the long tail misses) and no
//! spatial correlation between a vertex's neighbours (defeating spatial
//! prefetchers, as Fig 8 requires).
//!
//! Generation is lazy. One seeded RNG stream draws each vertex's degree
//! and then its targets, in vertex-ID order, so the CSR arrays are
//! extended as a prefix: asking for vertex `v`'s edges generates every
//! vertex up to and including `v` that does not exist yet. The prefix
//! is identical to what a full up-front generation would produce, so a
//! kernel's instruction stream does not depend on how much has been
//! generated. Host time and memory therefore scale with the vertices a
//! stream visits, not with `n`: a 2.2 M-instruction `pr` stream at
//! `Scale::Small` visits well under 2 % of the 6 M vertices. The
//! simulated footprint is unchanged, because edge targets still span all
//! `n` vertices.

use crate::Scale;
use atc_types::rng::SimRng;

/// A compressed-sparse-row directed graph whose vertices are generated
/// in ID order as they are first asked for.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// Total vertex count.
    n: usize,
    avg_degree: usize,
    /// The generator, positioned at the first vertex not yet generated.
    rng: SimRng,
    /// `offsets[v]..offsets[v+1]` indexes `targets` for each generated
    /// vertex `v`; `offsets.len() - 1` vertices exist so far.
    offsets: Vec<u64>,
    /// Edge targets of the generated vertices.
    targets: Vec<u32>,
}

impl CsrGraph {
    /// A synthetic power-law graph with `n` vertices. Out-degrees are
    /// heavy-tailed between `avg_degree / 4` and `4 × avg_degree`
    /// (at least 1) with mean `1.1875 × avg_degree` before truncation,
    /// about `1.1 × n × avg_degree` edges in total. Targets are skewed
    /// towards low vertex IDs (hubs) via an inverse-power transform.
    ///
    /// Nothing is generated until a vertex's edges are asked for.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `avg_degree == 0`.
    pub fn synth(n: usize, avg_degree: usize, seed: u64) -> Self {
        assert!(n > 0 && avg_degree > 0);
        CsrGraph {
            n,
            avg_degree,
            rng: SimRng::seed_from_u64(seed),
            offsets: vec![0],
            targets: Vec::new(),
        }
    }

    /// Generate vertices up to and including `v`.
    fn generate_through(&mut self, v: usize) {
        assert!(v < self.n, "vertex {v} out of range (n = {})", self.n);
        let n = self.n as f64;
        while self.offsets.len() <= v + 1 {
            // Out-degree: heavy-tailed around avg_degree (between 1 and
            // 4×avg, skewed low).
            let u: f64 = self.rng.next_f64();
            let deg = ((self.avg_degree as f64) * (0.25 + 3.75 * u * u * u)).max(1.0) as usize;
            for _ in 0..deg {
                // Hub-skew: a high power of a uniform variate concentrates
                // targets heavily on low IDs (web/social graphs route most
                // edges through hubs) without eliminating the tail.
                let t: f64 = self.rng.next_f64();
                let target = (t.powi(6) * n) as usize % self.n;
                self.targets.push(target as u32);
            }
            self.offsets.push(self.targets.len() as u64);
        }
    }

    /// Graph size for a benchmark scale: `(vertices, avg_degree)`.
    pub fn dims_for(scale: Scale) -> (usize, usize) {
        match scale {
            // 16k vertices, ~149k edges (offsets + targets < 1 MiB):
            // fast for tests.
            Scale::Test => (16 * 1024, 8),
            // 6M vertices ×8B = 48 MiB per property array; ~39.6M edges
            // ×4B = 151 MiB of targets: footprint ≫ STLB reach, and the
            // leaf-PTE working set (hundreds of KiB) overflows L1D/L2C so
            // PTE blocks genuinely compete in the hierarchy.
            Scale::Small => (6_000_000, 6),
            // 8M vertices, ~72.7M edges: 277 MiB of targets plus 61 MiB
            // of offsets and 64 MiB per property array, the paper's
            // region-of-interest footprint.
            Scale::Paper => (8_000_000, 8),
        }
    }

    /// Number of vertices in the whole graph (generated or not).
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The half-open range into [`targets`](Self::target) for `v`,
    /// generating the graph through `v` first if needed.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    #[inline]
    pub fn edge_range(&mut self, v: usize) -> std::ops::Range<usize> {
        if v + 1 >= self.offsets.len() {
            self.generate_through(v);
        }
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }

    /// Target vertex of edge-slot `e`, which must come from an
    /// [`edge_range`](Self::edge_range) already asked for.
    #[inline]
    pub fn target(&self, e: usize) -> usize {
        self.targets[e] as usize
    }

    /// Out-degree of `v`, generating the graph through `v` first if
    /// needed.
    pub fn degree(&mut self, v: usize) -> usize {
        self.edge_range(v).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The eager generator the lazy graph must reproduce: the same draws,
    /// in the same order, for all `n` vertices at once.
    fn reference(n: usize, avg_degree: usize, seed: u64) -> (Vec<u64>, Vec<u32>) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut offsets = vec![0u64];
        let mut targets = Vec::new();
        for _ in 0..n {
            let u: f64 = rng.next_f64();
            let deg = ((avg_degree as f64) * (0.25 + 3.75 * u * u * u)).max(1.0) as usize;
            for _ in 0..deg {
                let t: f64 = rng.next_f64();
                targets.push(((t.powi(6) * n as f64) as usize % n) as u32);
            }
            offsets.push(targets.len() as u64);
        }
        (offsets, targets)
    }

    fn generated(g: &CsrGraph) -> usize {
        g.offsets.len() - 1
    }

    /// A graph generated all the way to its last vertex.
    fn full(n: usize, avg_degree: usize, seed: u64) -> CsrGraph {
        let mut g = CsrGraph::synth(n, avg_degree, seed);
        g.edge_range(n - 1);
        g
    }

    #[test]
    fn generates_requested_size() {
        let mut g = full(1000, 8, 3);
        assert_eq!(g.num_vertices(), 1000);
        let e = g.edge_range(999).end;
        assert!(e > 4000 && e < 24_000, "edges = {e}");
    }

    #[test]
    fn generates_only_the_prefix_asked_for() {
        let mut g = CsrGraph::synth(10_000, 8, 3);
        assert_eq!(generated(&g), 0);
        g.edge_range(0);
        assert_eq!(generated(&g), 1);
        g.degree(99);
        assert_eq!(generated(&g), 100);
        g.edge_range(50);
        assert_eq!(generated(&g), 100);
        assert_eq!(g.num_vertices(), 10_000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vertex_past_the_end_panics() {
        CsrGraph::synth(100, 4, 1).edge_range(100);
    }

    #[test]
    fn edges_index_validly() {
        let mut g = CsrGraph::synth(500, 6, 1);
        for v in 0..g.num_vertices() {
            for e in g.edge_range(v) {
                assert!(g.target(e) < g.num_vertices());
            }
        }
    }

    #[test]
    fn degree_distribution_is_skewed_to_hubs() {
        let mut g = full(10_000, 8, 5);
        // In-degree of the lowest 10% of IDs should hold a large share of
        // all edges (hub skew).
        let edges = g.edge_range(9_999).end;
        let mut indeg = vec![0u64; g.num_vertices()];
        for e in 0..edges {
            indeg[g.target(e)] += 1;
        }
        let hub_share: u64 = indeg[..1000].iter().sum();
        let frac = hub_share as f64 / edges as f64;
        assert!(frac > 0.2, "hub share too small: {frac}");
        assert!(frac < 0.9, "degenerate hub share: {frac}");
    }

    #[test]
    fn lazy_generation_matches_the_eager_reference() {
        // Random graphs, queried the way the kernels query them: a
        // sequential cursor `v` interleaved with jumps to random
        // (hub-skewed or uniform) vertices `u`, as tc does, then the
        // last vertex and queries after the prefix is complete.
        let mut rng = SimRng::seed_from_u64(0x6a9e);
        for _ in 0..40 {
            let n = 1 + rng.next_below(3000) as usize;
            let avg_degree = 1 + rng.next_below(12) as usize;
            let seed = rng.next_u64();
            let (offsets, targets) = reference(n, avg_degree, seed);
            let mut g = CsrGraph::synth(n, avg_degree, seed);
            let check = |g: &mut CsrGraph, v: usize| {
                let r = g.edge_range(v);
                assert_eq!(r, offsets[v] as usize..offsets[v + 1] as usize);
                for e in r {
                    assert_eq!(g.target(e), targets[e] as usize);
                }
            };
            let mut v = 0;
            for _ in 0..rng.next_below(2 * n as u64) {
                match rng.next_below(4) {
                    0 => check(&mut g, rng.next_below(n as u64) as usize),
                    1 => check(&mut g, (rng.next_f64().powi(6) * n as f64) as usize % n),
                    _ => {
                        check(&mut g, v);
                        v = (v + 1) % n;
                    }
                }
            }
            check(&mut g, n - 1);
            assert_eq!(generated(&g), n);
            for _ in 0..20 {
                check(&mut g, rng.next_below(n as u64) as usize);
            }
            check(&mut g, 0);
            assert_eq!(g.targets, targets);
            assert_eq!(g.offsets, offsets);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = full(2000, 5, 9);
        let mut b = full(2000, 5, 9);
        assert_eq!(a.edge_range(1999), b.edge_range(1999));
        assert_eq!(a.target(100), b.target(100));
    }

    #[test]
    fn dims_scale_up() {
        let (tv, _) = CsrGraph::dims_for(Scale::Test);
        let (sv, _) = CsrGraph::dims_for(Scale::Small);
        let (pv, _) = CsrGraph::dims_for(Scale::Paper);
        assert!(tv < sv && sv < pv);
    }
}
