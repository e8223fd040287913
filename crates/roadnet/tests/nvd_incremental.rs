//! Incremental NVD conformance: a [`NetworkVoronoi`] maintained through
//! interleaved site insertions/removals *and edge-weight deltas* must
//! match a from-scratch `NetworkVoronoi::build` over the same site set
//! and current edge lengths — structurally (distances bit-identical;
//! owners, edge ownership and neighbor sets equal) on tie-free jittered
//! networks, and up to tie choices on degenerate unit-length grids, where
//! the relaxation rule (an equal-distance arrival never re-labels) is
//! pinned per operation instead.

use std::sync::Arc;

use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig, SplitMix64};
use insq_roadnet::{
    dijkstra::distances_from_vertex, EdgeId, EdgeOwnership, EdgeWeight, NetDelta, NetSiteDelta,
    NetworkVoronoi, NetworkWorld, RoadNetwork, SiteIdx, SiteSet, VertexId,
};

/// Full structural equivalence — valid when shortest-path ties are absent
/// (jittered edge lengths).
fn assert_structurally_equal(net: &RoadNetwork, inc: &NetworkVoronoi, sites: &SiteSet) {
    let rebuilt = NetworkVoronoi::build(net, sites);
    assert_eq!(inc.num_sites(), rebuilt.num_sites());
    for v in 0..net.num_vertices() {
        let v = VertexId(v as u32);
        assert_eq!(
            inc.dist(v).to_bits(),
            rebuilt.dist(v).to_bits(),
            "dist diverged at {v:?}"
        );
        assert_eq!(inc.owner(v), rebuilt.owner(v), "owner diverged at {v:?}");
    }
    for e in 0..net.num_edges() {
        let e = EdgeId(e as u32);
        assert_eq!(
            inc.edge_ownership(e),
            rebuilt.edge_ownership(e),
            "edge ownership diverged at {e:?}"
        );
    }
    for s in 0..sites.len() as u32 {
        assert_eq!(
            inc.neighbors(SiteIdx(s)),
            rebuilt.neighbors(SiteIdx(s)),
            "neighbor set diverged at site {s}"
        );
    }
}

/// Weak (tie-tolerant) conformance: distances must still be exact and the
/// owner of every vertex must be *a* nearest site; cells partition the
/// network length.
fn assert_exact_up_to_ties(net: &RoadNetwork, inc: &NetworkVoronoi, sites: &SiteSet) {
    let per_site: Vec<Vec<f64>> = sites
        .vertices()
        .iter()
        .map(|&v| distances_from_vertex(net, v))
        .collect();
    for v in 0..net.num_vertices() {
        let min = per_site.iter().map(|d| d[v]).fold(f64::INFINITY, f64::min);
        assert_eq!(inc.dist(VertexId(v as u32)), min, "dist at vertex {v}");
        assert_eq!(
            per_site[inc.owner(VertexId(v as u32)).idx()][v],
            min,
            "owner of vertex {v} is not a nearest site"
        );
    }
    let total: f64 = (0..sites.len() as u32)
        .map(|s| inc.cell_length(net, SiteIdx(s)))
        .sum();
    assert!(
        (total - net.total_length()).abs() < 1e-9,
        "cells partition the network: {total} vs {}",
        net.total_length()
    );
}

#[test]
fn interleaved_updates_match_rebuild_exactly() {
    // Jittered grid: irrational edge lengths, no shortest-path ties.
    let net = grid_network(
        &GridConfig {
            cols: 12,
            rows: 12,
            ..GridConfig::default()
        },
        42,
    )
    .unwrap();
    let mut sites = SiteSet::new(&net, random_site_vertices(&net, 18, 7).unwrap()).unwrap();
    let mut nvd = NetworkVoronoi::build(&net, &sites);
    let mut rng = SplitMix64::new(0xbead);

    for step in 0..90 {
        let grow = sites.len() <= 3 || rng.next_f64() < 0.55;
        if grow {
            let v = VertexId(rng.below(net.num_vertices()) as u32);
            if sites.site_at(v).is_some() {
                continue;
            }
            let idx = sites.insert(&net, v).unwrap();
            assert_eq!(nvd.insert_site(&net, v), idx);
        } else {
            let s = SiteIdx(rng.below(sites.len()) as u32);
            let moved = sites.remove(s).unwrap();
            nvd.remove_site(&net, s, moved);
        }
        assert_structurally_equal(&net, &nvd, &sites);
        if step % 10 == 0 {
            assert_exact_up_to_ties(&net, &nvd, &sites);
        }
    }
}

#[test]
fn degenerate_unit_grid_stays_exact_up_to_ties() {
    // Unit-length edges: massive shortest-path ties. Incremental and
    // rebuilt diagrams may pick different (equally correct) owners, but
    // distances and the partition property must hold after every step.
    let w = 7u32;
    let mut coords = Vec::new();
    let mut edges = Vec::new();
    for r in 0..w {
        for c in 0..w {
            coords.push(insq_geom::Point::new(c as f64, r as f64));
        }
    }
    for r in 0..w {
        for c in 0..w {
            let id = r * w + c;
            if c + 1 < w {
                edges.push(insq_roadnet::EdgeRec {
                    u: VertexId(id),
                    v: VertexId(id + 1),
                    len: 1.0,
                });
            }
            if r + 1 < w {
                edges.push(insq_roadnet::EdgeRec {
                    u: VertexId(id),
                    v: VertexId(id + w),
                    len: 1.0,
                });
            }
        }
    }
    let net = RoadNetwork::new(coords, edges).unwrap();
    let mut sites = SiteSet::new(&net, vec![VertexId(0), VertexId(24), VertexId(48)]).unwrap();
    let mut nvd = NetworkVoronoi::build(&net, &sites);
    let mut rng = SplitMix64::new(3);

    for _ in 0..50 {
        if sites.len() <= 2 || rng.next_f64() < 0.6 {
            let v = VertexId(rng.below(net.num_vertices()) as u32);
            if sites.site_at(v).is_some() {
                continue;
            }
            let idx = sites.insert(&net, v).unwrap();
            assert_eq!(nvd.insert_site(&net, v), idx);
        } else {
            let s = SiteIdx(rng.below(sites.len()) as u32);
            let moved = sites.remove(s).unwrap();
            nvd.remove_site(&net, s, moved);
        }
        assert_exact_up_to_ties(&net, &nvd, &sites);
    }
}

/// A random weight batch over `d` distinct edges, each length drawn
/// absolutely against the free-flow `base` (factor in [0.5, 3.0]) so
/// repeated storms never drift the network toward 0 or infinity.
fn random_storm(base: &RoadNetwork, d: usize, rng: &mut SplitMix64) -> Vec<EdgeWeight> {
    let mut edges = std::collections::BTreeSet::new();
    while edges.len() < d.min(base.num_edges()) {
        edges.insert(rng.below(base.num_edges()) as u32);
    }
    edges
        .into_iter()
        .map(|e| EdgeWeight {
            edge: EdgeId(e),
            len: base.edge(EdgeId(e)).len * rng.range(0.5, 3.0),
        })
        .collect()
}

#[test]
fn interleaved_weight_and_site_updates_match_rebuild_exactly() {
    // Jittered grid scaled by random factors: shortest-path ties stay
    // absent, so the repaired diagram must be bit-identical to a
    // from-scratch build over the *current* lengths after every step.
    let base = grid_network(
        &GridConfig {
            cols: 12,
            rows: 12,
            ..GridConfig::default()
        },
        17,
    )
    .unwrap();
    let mut cur = base.clone();
    let mut sites = SiteSet::new(&base, random_site_vertices(&base, 14, 5).unwrap()).unwrap();
    let mut nvd = NetworkVoronoi::build(&cur, &sites);
    let mut rng = SplitMix64::new(0xD017A);

    for step in 0..80 {
        match rng.below(3) {
            0 if sites.len() > 3 => {
                let s = SiteIdx(rng.below(sites.len()) as u32);
                let moved = sites.remove(s).unwrap();
                nvd.remove_site(&cur, s, moved);
            }
            1 => {
                let v = VertexId(rng.below(cur.num_vertices()) as u32);
                if sites.site_at(v).is_some() {
                    continue;
                }
                let idx = sites.insert(&cur, v).unwrap();
                assert_eq!(nvd.insert_site(&cur, v), idx);
            }
            _ => {
                let d = 1 + rng.below(12);
                let storm = random_storm(&base, d, &mut rng);
                let changed: Vec<EdgeId> = storm.iter().map(|w| w.edge).collect();
                let next = cur.reweighted(&storm).unwrap();
                nvd.reweight_edges(&cur, &next, &changed);
                cur = next;
            }
        }
        assert_structurally_equal(&cur, &nvd, &sites);
        if step % 10 == 0 {
            assert_exact_up_to_ties(&cur, &nvd, &sites);
        }
    }
}

#[test]
fn degenerate_grid_weight_deltas_stay_exact_up_to_ties() {
    // Unit grid with integer re-weights (1.0 <-> 2.0): ties everywhere,
    // in every epoch. The repaired diagram may pick different owners
    // than a rebuild, but distances stay exact and cells partition the
    // network after every step.
    let net = grid_network(
        &GridConfig {
            cols: 7,
            rows: 7,
            jitter: 0.0,
            ..GridConfig::default()
        },
        0,
    )
    .unwrap();
    let mut cur = net.clone();
    let mut sites = SiteSet::new(&net, vec![VertexId(0), VertexId(24), VertexId(48)]).unwrap();
    let mut nvd = NetworkVoronoi::build(&cur, &sites);
    let mut rng = SplitMix64::new(44);

    for _ in 0..40 {
        match rng.below(3) {
            0 if sites.len() > 2 => {
                let s = SiteIdx(rng.below(sites.len()) as u32);
                let moved = sites.remove(s).unwrap();
                nvd.remove_site(&cur, s, moved);
            }
            1 => {
                let v = VertexId(rng.below(cur.num_vertices()) as u32);
                if sites.site_at(v).is_some() {
                    continue;
                }
                let idx = sites.insert(&cur, v).unwrap();
                assert_eq!(nvd.insert_site(&cur, v), idx);
            }
            _ => {
                // Toggle a handful of edges between 1.0 and 2.0 —
                // integer lengths preserve massive tie structure.
                let d = 1 + rng.below(6);
                let mut edges = std::collections::BTreeSet::new();
                while edges.len() < d {
                    edges.insert(rng.below(cur.num_edges()) as u32);
                }
                let storm: Vec<EdgeWeight> = edges
                    .into_iter()
                    .map(|e| EdgeWeight {
                        edge: EdgeId(e),
                        len: if cur.edge(EdgeId(e)).len == 1.0 {
                            2.0
                        } else {
                            1.0
                        },
                    })
                    .collect();
                let changed: Vec<EdgeId> = storm.iter().map(|w| w.edge).collect();
                let next = cur.reweighted(&storm).unwrap();
                nvd.reweight_edges(&cur, &next, &changed);
                cur = next;
            }
        }
        assert_exact_up_to_ties(&cur, &nvd, &sites);
    }
}

#[test]
fn apply_delta_epoch_chain_matches_rebuild_exactly() {
    // The composed path: NetworkWorld::apply_delta carrying weight
    // changes and site changes in ONE delta, chained across epochs.
    // Each epoch's snapshot must equal a from-scratch build over its
    // own network and site set, bit for bit (jittered grid: no ties).
    let base = Arc::new(
        grid_network(
            &GridConfig {
                cols: 10,
                rows: 10,
                ..GridConfig::default()
            },
            77,
        )
        .unwrap(),
    );
    let sites = SiteSet::new(&base, random_site_vertices(&base, 12, 31).unwrap()).unwrap();
    let mut snap = NetworkWorld::build(Arc::clone(&base), sites);
    let mut rng = SplitMix64::new(0xEC0);

    for _ in 0..25 {
        let storm = random_storm(&base, 1 + rng.below(8), &mut rng);
        let mut sd = NetSiteDelta::default();
        if snap.sites.len() > 4 && rng.next_f64() < 0.5 {
            sd.removed.push(SiteIdx(rng.below(snap.sites.len()) as u32));
        }
        let v = VertexId(rng.below(base.num_vertices()) as u32);
        if snap.sites.site_at(v).is_none() {
            sd.added.push(v);
        }
        let delta = NetDelta::from(sd).with_weights(storm);
        snap = snap.apply_delta(&delta).unwrap();
        assert_structurally_equal(&snap.net, &snap.nvd, &snap.sites);
    }
}

#[test]
fn removal_relabels_the_swapped_site_everywhere() {
    let net = grid_network(
        &GridConfig {
            cols: 8,
            rows: 8,
            ..GridConfig::default()
        },
        11,
    )
    .unwrap();
    let mut sites = SiteSet::new(&net, random_site_vertices(&net, 9, 23).unwrap()).unwrap();
    let mut nvd = NetworkVoronoi::build(&net, &sites);

    // Remove a middle site: the last site (index 8) is renamed to 2.
    let moved = sites.remove(SiteIdx(2)).unwrap();
    assert_eq!(moved, Some(SiteIdx(8)));
    nvd.remove_site(&net, SiteIdx(2), moved);
    assert_structurally_equal(&net, &nvd, &sites);
    // Split-edge ownership labels must all be in range after the rename.
    for e in 0..net.num_edges() {
        match nvd.edge_ownership(EdgeId(e as u32)) {
            EdgeOwnership::Whole(o) => assert!(o.idx() < sites.len()),
            EdgeOwnership::Split {
                owner_u, owner_v, ..
            } => {
                assert!(owner_u.idx() < sites.len());
                assert!(owner_v.idx() < sites.len());
            }
        }
    }

    // Removing the last site needs no rename.
    let s = SiteIdx((sites.len() - 1) as u32);
    let moved = sites.remove(s).unwrap();
    assert_eq!(moved, None);
    nvd.remove_site(&net, s, moved);
    assert_structurally_equal(&net, &nvd, &sites);
}

#[test]
fn site_set_insert_remove_bookkeeping() {
    let net = grid_network(&GridConfig::default(), 1).unwrap();
    let mut sites = SiteSet::new(&net, vec![VertexId(0), VertexId(5), VertexId(9)]).unwrap();
    let idx = sites.insert(&net, VertexId(7)).unwrap();
    assert_eq!(idx, SiteIdx(3));
    assert_eq!(sites.site_at(VertexId(7)), Some(SiteIdx(3)));
    assert!(sites.insert(&net, VertexId(7)).is_err(), "duplicate vertex");
    assert!(
        sites
            .insert(&net, VertexId(net.num_vertices() as u32))
            .is_err(),
        "out of range"
    );

    // Swap-remove moves the last site into the hole.
    let moved = sites.remove(SiteIdx(1)).unwrap();
    assert_eq!(moved, Some(SiteIdx(3)));
    assert_eq!(sites.vertex(SiteIdx(1)), VertexId(7));
    assert_eq!(sites.site_at(VertexId(7)), Some(SiteIdx(1)));
    assert_eq!(sites.site_at(VertexId(5)), None);

    // The set never becomes empty.
    sites.remove(SiteIdx(1)).unwrap();
    sites.remove(SiteIdx(1)).unwrap();
    assert_eq!(sites.len(), 1);
    assert!(sites.remove(SiteIdx(0)).is_err());
}

/// Edge ownership and neighbor sets are functions of the vertex labels:
/// recompute both from `(dist, owner)` and compare. A repair that
/// re-labels a vertex without re-tallying its edges fails here.
fn assert_edges_follow_labels(net: &RoadNetwork, nvd: &NetworkVoronoi) {
    let mut pairs = std::collections::BTreeSet::new();
    for e in 0..net.num_edges() as u32 {
        let rec = net.edge(EdgeId(e));
        let (ou, ov) = (nvd.owner(rec.u), nvd.owner(rec.v));
        let want = if ou == ov {
            EdgeOwnership::Whole(ou)
        } else {
            pairs.insert((ou.min(ov), ou.max(ov)));
            EdgeOwnership::Split {
                owner_u: ou,
                owner_v: ov,
                border: (0.5 * (rec.len + nvd.dist(rec.v) - nvd.dist(rec.u))).clamp(0.0, rec.len),
            }
        };
        assert_eq!(nvd.edge_ownership(EdgeId(e)), want, "edge {e}");
    }
    for a in 0..nvd.num_sites() as u32 {
        let want: Vec<SiteIdx> = (0..nvd.num_sites() as u32)
            .map(SiteIdx)
            .filter(|&b| pairs.contains(&(SiteIdx(a).min(b), SiteIdx(a).max(b))))
            .collect();
        assert_eq!(nvd.neighbors(SiteIdx(a)), want, "neighbors of site {a}");
    }
}

/// The relaxation rule — strict improvement only, an equal-distance
/// arrival never re-labels — on a network where every interior vertex has
/// equidistant candidates. Build and each repair must (i) reproduce the
/// oracle's distances, (ii) give every vertex *a* nearest owner, and
/// (iii) leave alone every label they did not strictly improve or orphan.
/// (An insert-then-remove round trip does *not* restore tied owners in
/// general — the re-expansion reaches ties in boundary order, not build
/// order — so (iii) is stated per operation.)
#[test]
fn repairs_never_relabel_on_an_equal_distance_arrival() {
    let net = grid_network(
        &GridConfig {
            cols: 8,
            rows: 7,
            jitter: 0.0,
            diagonal_prob: 0.0,
            deletion_prob: 0.0,
            ..GridConfig::default()
        },
        0,
    )
    .unwrap();
    let mut rng = SplitMix64::new(0x71E5);
    let mut kept_on_a_tie = 0usize;
    for seed in 0..12u64 {
        let m = 2 + seed as usize % 6;
        let mut sites = SiteSet::new(&net, random_site_vertices(&net, m, seed).unwrap()).unwrap();
        let mut nvd = NetworkVoronoi::build(&net, &sites);
        assert_exact_up_to_ties(&net, &nvd, &sites);
        assert_edges_follow_labels(&net, &nvd);
        let vertices = || (0..net.num_vertices() as u32).map(VertexId);

        // insert_site: a label changes only by getting strictly nearer.
        let v = vertices()
            .cycle()
            .skip(rng.below(net.num_vertices()))
            .find(|&v| sites.site_at(v).is_none())
            .unwrap();
        let before = nvd.clone();
        let s = sites.insert(&net, v).unwrap();
        assert_eq!(nvd.insert_site(&net, v), s);
        assert_exact_up_to_ties(&net, &nvd, &sites);
        assert_edges_follow_labels(&net, &nvd);
        let from_new = distances_from_vertex(&net, v);
        for x in vertices() {
            if nvd.dist(x) == before.dist(x) {
                assert_eq!(nvd.owner(x), before.owner(x), "insert re-labelled {x:?}");
                kept_on_a_tie += usize::from(from_new[x.idx()] == nvd.dist(x));
            } else {
                assert!(nvd.dist(x) < before.dist(x));
                assert_eq!(nvd.owner(x), s);
            }
        }

        // remove_site (with a swap rename): only the removed cell moves.
        let gone = SiteIdx(rng.below(sites.len() - 1) as u32);
        let before = nvd.clone();
        let moved = sites.remove(gone).unwrap();
        assert_eq!(moved, Some(SiteIdx(sites.len() as u32)));
        nvd.remove_site(&net, gone, moved);
        assert_exact_up_to_ties(&net, &nvd, &sites);
        assert_edges_follow_labels(&net, &nvd);
        for x in vertices() {
            let old = before.owner(x);
            if old != gone {
                let renamed = if Some(old) == moved { gone } else { old };
                assert_eq!(nvd.owner(x), renamed, "remove re-labelled {x:?}");
                assert_eq!(nvd.dist(x).to_bits(), before.dist(x).to_bits());
            }
        }

        // reweight_edges, decreases only (nothing is orphaned): again a
        // label changes only by getting strictly nearer.
        let storm: Vec<EdgeWeight> = random_storm(&net, 6, &mut rng)
            .into_iter()
            .map(|w| EdgeWeight { len: 0.5, ..w })
            .collect();
        let changed: Vec<EdgeId> = storm.iter().map(|w| w.edge).collect();
        let fast = net.reweighted(&storm).unwrap();
        let before = nvd.clone();
        nvd.reweight_edges(&net, &fast, &changed);
        assert_exact_up_to_ties(&fast, &nvd, &sites);
        assert_edges_follow_labels(&fast, &nvd);
        for x in vertices() {
            if nvd.dist(x) == before.dist(x) {
                assert_eq!(nvd.owner(x), before.owner(x), "reweight re-labelled {x:?}");
            } else {
                assert!(nvd.dist(x) < before.dist(x));
            }
        }

        // A batch that re-asserts the current lengths is an exact no-op.
        let same: Vec<EdgeWeight> = changed
            .iter()
            .map(|&e| EdgeWeight::scaled(&fast, e, 1.0))
            .collect();
        let before = nvd.clone();
        nvd.reweight_edges(&fast, &fast.reweighted(&same).unwrap(), &changed);
        for x in vertices() {
            assert_eq!(nvd.owner(x), before.owner(x));
            assert_eq!(nvd.dist(x).to_bits(), before.dist(x).to_bits());
        }
        for e in 0..net.num_edges() as u32 {
            assert_eq!(
                nvd.edge_ownership(EdgeId(e)),
                before.edge_ownership(EdgeId(e))
            );
        }
        for s in 0..sites.len() as u32 {
            assert_eq!(nvd.neighbors(SiteIdx(s)), before.neighbors(SiteIdx(s)));
        }

        // And back up again (increases orphan tied regions; owners may
        // legitimately move, distances and the partition may not).
        nvd.reweight_edges(&fast, &net, &changed);
        assert_exact_up_to_ties(&net, &nvd, &sites);
        assert_edges_follow_labels(&net, &nvd);
    }
    assert!(
        kept_on_a_tie > 20,
        "the grid must actually exercise ties: {kept_on_a_tie}"
    );
}
