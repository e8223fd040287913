//! The cluster's certification predicate
//! ([`Processor::certified_within`]) at its boundaries — the one
//! statement both the wire backend (`FLAG_UNCERTIFIED`) and the
//! in-process `PartitionGroup` (`certified`) ask.

use insq_core::{InsConfig, InsProcessor, MovingKnn};
use insq_geom::{Aabb, Point};
use insq_index::VorTree;

#[test]
fn a_tie_at_the_margin_certifies_and_fewer_than_k_never_does() {
    // From the origin: one site at distance 1, one at exactly 5 (3-4-5),
    // the rest far away.
    let sites = vec![
        Point::new(1.0, 0.0),
        Point::new(3.0, 4.0),
        Point::new(40.0, 0.0),
        Point::new(0.0, 40.0),
        Point::new(40.0, 40.0),
    ];
    let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(50.0, 50.0));
    let index = VorTree::build(sites, bounds).unwrap();
    let mut p = InsProcessor::new(&index, InsConfig::new(2, 1.6)).unwrap();

    // Before the first tick there is no result at all: fewer than k
    // neighbours never certify, however generous the margin.
    assert!(p.current_knn_with_dists().is_empty());
    assert!(!p.certified_within(f64::INFINITY));

    p.tick(Point::new(0.0, 0.0));
    let kth = p.current_knn_with_dists().last().unwrap().1;
    assert_eq!(kth, 5.0, "the 3-4-5 site is the 2nd neighbour, exactly");

    assert!(p.certified_within(5.0), "kth == margin certifies");
    assert!(p.certified_within(f64::INFINITY));
    assert!(!p.certified_within(5.0 - f64::EPSILON * 4.0));
    assert!(!p.certified_within(0.0));
    assert!(!p.certified_within(f64::NAN));
}
