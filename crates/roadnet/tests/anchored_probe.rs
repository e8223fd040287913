//! Differential conformance of the edge-anchored Theorem-2 probe:
//! [`anchored_knn_into`] with one long-lived [`EdgeAnchors`] must equal
//! [`restricted_knn_into`] run from a fresh scratch at every position of
//! a seeded walk — same id set (or, at a rank-k tie, the same distances),
//! distances within 4 ulp — and may expand only when a seed vertex is
//! not anchored yet.
//!
//! The walks are built to hit what the identity has to survive: U-turns
//! back onto the previous edge, exact vertex positions, split edges with
//! only one side masked, `k` larger than the reachable sites, positions
//! outside the mask — on jittered grids and on zero-jitter ones, where
//! every distance ties.

use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig, SplitMix64};
use insq_roadnet::ine::network_knn;
use insq_roadnet::subnetwork::{anchored_knn_into, restricted_knn_into, EdgeAnchors};
use insq_roadnet::{
    DijkstraScratch, EdgeOwnership, ExpansionStats, NetPosition, NetworkVoronoi, RoadNetwork,
    SiteIdx, SiteMask, SiteSet, VertexId,
};

fn ulps_apart(a: f64, b: f64) -> u64 {
    // Distances are non-negative and finite, so their bit patterns order
    // like the values.
    a.to_bits().abs_diff(b.to_bits())
}

/// The contract between the two probes' outputs (both ascending by
/// distance).
fn agree(anchored: &[(SiteIdx, f64)], fresh: &[(SiteIdx, f64)]) -> bool {
    let close = |a: f64, b: f64| ulps_apart(a, b) <= 4;
    let Some(&(_, kth)) = fresh.last() else {
        return anchored.is_empty();
    };
    anchored.len() == fresh.len()
        && anchored.iter().zip(fresh).all(|(a, f)| close(a.1, f.1))
        // A site only one side reports sits in the tie at rank k.
        && anchored
            .iter()
            .all(|a| close(a.1, kth) || fresh.iter().any(|f| f.0 == a.0))
}

/// A seeded walk: vertex, 30% and 70% of the edge, next vertex, with the
/// next edge drawn from *all* neighbors (so about one step in four turns
/// straight back) and an occasional reversal from mid-edge.
fn walk(net: &RoadNetwork, rng: &mut SplitMix64, steps: usize) -> (Vec<NetPosition>, usize) {
    let mut at = VertexId(rng.below(net.num_vertices()) as u32);
    let mut came_from = None;
    let (mut out, mut u_turns) = (Vec::new(), 0);
    for _ in 0..steps {
        let (to, e) = net.neighbors(at)[rng.below(net.degree(at))];
        u_turns += usize::from(came_from == Some(to));
        let rec = net.edge(e);
        let along = |frac: f64| {
            let from_u = if at == rec.u { frac } else { 1.0 - frac };
            NetPosition::on_edge(net, e, from_u * rec.len).unwrap()
        };
        out.push(NetPosition::Vertex(at));
        out.push(along(0.3));
        out.push(along(0.7));
        if rng.below(5) == 0 {
            // Reverse mid-edge and come back to where the step began.
            out.push(along(0.4));
            u_turns += 1;
            came_from = Some(to);
        } else {
            came_from = Some(at);
            at = to;
        }
    }
    (out, u_turns)
}

#[derive(Default)]
struct Tally {
    mismatches: usize,
    warm_hits: usize,
    warm_vertices: usize,
    outside: usize,
    one_sided: usize,
    short: usize,
}

/// Walks `net`, re-drawing `(scope, k)` every dozen positions, and
/// compares the probes at every position. With `forget` off the anchors
/// survive a scope change — the mutation the comparison must catch.
fn differential(cfg: &GridConfig, seed: u64, forget: bool, tally: &mut Tally) -> usize {
    let net = grid_network(cfg, seed).unwrap();
    let n_sites = net.num_vertices() / 7;
    let sites = SiteSet::new(&net, random_site_vertices(&net, n_sites, seed).unwrap()).unwrap();
    let nvd = NetworkVoronoi::build(&net, &sites);
    let mut rng = SplitMix64::new(seed ^ 0xA2C4);
    let (positions, u_turns) = walk(&net, &mut rng, 400);

    let mut anchors = EdgeAnchors::default();
    let mut scratch = DijkstraScratch::new();
    let (mut scope_mask, mut k) = (SiteMask::new(sites.len()), 0);
    // The model of the anchors: the reachable seeds of the last position
    // that missed.
    let mut anchored: Vec<VertexId> = Vec::new();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (i, &pos) in positions.iter().enumerate() {
        if i % 12 == 0 {
            // Theorem 2's scope around the position, or a starved one:
            // a single cell with k sites wanted from it.
            k = [1, 3, 5][rng.below(3)];
            let knn = network_knn(&net, &sites, pos, if rng.below(4) == 0 { 1 } else { k });
            let mut scope: Vec<SiteIdx> = knn.iter().map(|&(s, _)| s).collect();
            if scope.len() > 1 {
                for &(s, _) in &knn {
                    scope.extend_from_slice(nvd.neighbors(s));
                }
            }
            scope_mask.set(scope);
            if forget {
                anchors.clear();
            }
            anchored.clear();
        }
        let fresh = |p: NetPosition, out: &mut Vec<(SiteIdx, f64)>| -> ExpansionStats {
            let mut scratch = DijkstraScratch::new();
            restricted_knn_into(&net, &sites, &nvd, &scope_mask, &mut scratch, p, k, out)
        };
        fresh(pos, &mut want);
        let stats = anchored_knn_into(
            &net,
            &sites,
            &nvd,
            &scope_mask,
            &mut scratch,
            &mut anchors,
            pos,
            k,
            &mut got,
        );
        if !agree(&got, &want) {
            tally.mismatches += 1;
        }

        // Expansions run iff a reachable seed is not anchored, and then
        // from every reachable seed — exactly those, counter for counter.
        let (seeds, n) = pos.seed_array(&net);
        let reachable: Vec<VertexId> = seeds[..n]
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| reaches(&net, &nvd, &scope_mask, pos, v))
            .collect();
        let miss = reachable.iter().any(|v| !anchored.contains(v));
        let mut expected = ExpansionStats::default();
        if miss {
            for &v in &reachable {
                let st = fresh(NetPosition::Vertex(v), &mut Vec::new());
                expected.settled += st.settled;
                expected.pushes += st.pushes;
            }
            anchored.clone_from(&reachable);
        }
        if forget {
            assert_eq!(stats, expected, "seed {seed} step {i} at {pos:?}");
        }
        let warm = !miss && !reachable.is_empty();
        tally.warm_hits += usize::from(warm);
        tally.warm_vertices += usize::from(warm && n == 1);
        tally.outside += usize::from(reachable.is_empty());
        tally.one_sided += usize::from(n == 2 && reachable.len() == 1);
        tally.short += usize::from(!want.is_empty() && want.len() < k);
    }
    u_turns
}

/// Whether `pos` can walk to its seed vertex `v` inside the masked cells
/// — the split-edge rule restated, independently of `masked_reach`.
fn reaches(
    net: &RoadNetwork,
    nvd: &NetworkVoronoi,
    mask: &SiteMask,
    pos: NetPosition,
    v: VertexId,
) -> bool {
    let NetPosition::OnEdge { edge, offset } = pos else {
        return mask.contains(nvd.owner(v));
    };
    match nvd.edge_ownership(edge) {
        EdgeOwnership::Whole(o) => mask.contains(o),
        EdgeOwnership::Split {
            owner_u,
            owner_v,
            border,
        } => {
            let toward_u = v == net.edge(edge).u;
            let near = if toward_u { owner_u } else { owner_v };
            let far = if toward_u { owner_v } else { owner_u };
            // The border lies between `pos` and `v` iff `pos` is on the
            // other endpoint's side.
            let crosses = (offset <= border) != toward_u;
            mask.contains(near) && (!crosses || mask.contains(far))
        }
    }
}

fn grids() -> [GridConfig; 2] {
    let jittered = GridConfig {
        cols: 11,
        rows: 9,
        ..GridConfig::default()
    };
    let unit = GridConfig {
        jitter: 0.0,
        diagonal_prob: 0.0,
        deletion_prob: 0.0,
        ..jittered.clone()
    };
    [jittered, unit]
}

#[test]
fn anchored_probe_equals_a_fresh_expansion_along_seeded_walks() {
    for cfg in grids() {
        let mut tally = Tally::default();
        let mut u_turns = 0;
        for seed in 0..6 {
            u_turns += differential(&cfg, seed, true, &mut tally);
        }
        assert_eq!(tally.mismatches, 0, "jitter {}", cfg.jitter);
        // The walks met every case the module docs promise.
        assert!(u_turns > 100, "U-turns: {u_turns}");
        assert!(tally.warm_hits > 1000, "warm ticks: {}", tally.warm_hits);
        assert!(tally.warm_vertices > 500, "vertex positions served warm");
        assert!(tally.outside > 20, "positions outside the mask");
        assert!(tally.one_sided > 20, "split edges, one side masked");
        assert!(tally.short > 20, "k above the reachable sites");
    }
}

/// Mutation check of the suite itself: anchors that survive a scope
/// change answer for the wrong subnetwork, and the comparison sees it.
#[test]
fn the_comparison_catches_a_list_reused_across_a_scope_change() {
    for cfg in grids() {
        let mut tally = Tally::default();
        differential(&cfg, 1, false, &mut tally);
        assert!(tally.mismatches > 0, "jitter {}", cfg.jitter);
    }
}
