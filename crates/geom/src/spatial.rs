//! Uniform-grid spatial hash for radius queries over point sets.
//!
//! RLE and ApproxDiversity delete every sender within radius `c₁·d_ii`
//! of each chosen receiver; with `N` links and `Θ(N)` iterations a
//! naive scan is `O(N²)` per instance sweep. The spatial hash buckets
//! points into cells of the query radius scale so each query touches
//! only nearby buckets. The sparse interference store gathers its
//! neighborhoods through it, and `instance_stats` its nearest-sender
//! distances.

use crate::point::Point2;
use std::collections::BTreeMap;

/// How many buckets per indexed point a [`SpatialHash::rebuild`] may
/// keep before it drops the empty ones. Rebuilds keep emptied buckets
/// (and their capacity) so that a warm rebuild over a recurring set of
/// inputs touches no heap; the bound keeps a long run over ever-new
/// inputs from growing the map without limit.
const BUCKETS_PER_POINT: usize = 4;

/// A spatial hash over indexed points: a uniform grid of square cells
/// of side `cell`, holding each occupied cell's point indices.
///
/// Buckets are ordered by cell key, so a radius query walks only the
/// occupied cells of its box, in `(a, b)` key order. The index is
/// reusable: [`rebuild`](Self::rebuild) re-indexes in place, and
/// [`insert`](Self::insert) / [`swap_remove`](Self::swap_remove) patch
/// it by one point.
///
/// Equality is structural (same cell size, points, and non-empty
/// buckets) — used by tests to certify that in-place mutation and
/// rebuilds leave the index indistinguishable from a fresh
/// [`build`](Self::build).
#[derive(Debug, Clone, Default)]
pub struct SpatialHash {
    cell: f64,
    /// Cell key → indices of the points in that cell, ascending. May
    /// hold empty buckets kept by a rebuild for reuse.
    buckets: BTreeMap<(i64, i64), Vec<u32>>,
    points: Vec<Point2>,
}

impl PartialEq for SpatialHash {
    fn eq(&self, other: &Self) -> bool {
        self.cell == other.cell
            && self.points == other.points
            && self.occupied().eq(other.occupied())
    }
}

impl SpatialHash {
    /// An empty index; call [`rebuild`](Self::rebuild) before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a hash over `points` with bucket side `cell`.
    ///
    /// A good `cell` is the typical query radius; correctness does not
    /// depend on the choice, only performance.
    ///
    /// # Panics
    /// Panics if `cell` is not finite and positive.
    pub fn build(points: &[Point2], cell: f64) -> Self {
        let mut hash = Self::new();
        hash.rebuild(points, cell);
        hash
    }

    /// Re-indexes `points` with bucket side `cell` in place.
    ///
    /// When `points` and `cell` are bit-identical to the indexed ones
    /// the call returns immediately: the stored index is already
    /// exactly what this input produces, so steady-state callers
    /// re-indexing an unchanged instance pay one `memcmp`. (A `NaN`
    /// coordinate never compares equal and therefore always rebuilds —
    /// conservative, not wrong.) Otherwise every bucket is cleared but
    /// kept, so a warm rebuild over cells seen before allocates
    /// nothing; empty buckets are dropped once they outnumber the
    /// points four-fold.
    ///
    /// # Panics
    /// Panics if `cell` is not finite and positive.
    pub fn rebuild(&mut self, points: &[Point2], cell: f64) {
        assert!(
            cell.is_finite() && cell > 0.0,
            "spatial hash cell must be finite and positive, got {cell}"
        );
        if self.cell == cell && self.points == points {
            return;
        }
        self.cell = cell;
        self.points.clear();
        self.points.extend_from_slice(points);
        for bucket in self.buckets.values_mut() {
            bucket.clear();
        }
        for (i, p) in points.iter().enumerate() {
            self.buckets
                .entry(Self::key(p, cell))
                .or_default()
                .push(i as u32);
        }
        if self.buckets.len() > BUCKETS_PER_POINT * points.len().max(1) {
            self.buckets.retain(|_, bucket| !bucket.is_empty());
        }
    }

    /// The cell holding `p`. The float-to-int casts saturate, so even
    /// astronomical coordinates get a valid key.
    #[inline]
    fn key(p: &Point2, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// Appends a point in place and returns its index (`len() - 1`).
    ///
    /// Equivalent to rebuilding over the extended point array: the new
    /// index is the largest, so pushing it keeps every bucket in
    /// ascending index order — exactly what [`build`](Self::build)
    /// produces.
    pub fn insert(&mut self, p: Point2) -> u32 {
        let idx = self.points.len() as u32;
        self.points.push(p);
        self.buckets
            .entry(Self::key(&p, self.cell))
            .or_default()
            .push(idx);
        idx
    }

    /// Removes point `i` in place with `Vec::swap_remove` semantics:
    /// the point previously at index `len() - 1` takes index `i`.
    ///
    /// The structure afterwards is indistinguishable from a fresh
    /// [`build`](Self::build) over the mutated point array (ascending
    /// index order within every bucket), so query results and visit
    /// order match a rebuild bit for bit. A bucket that empties is
    /// dropped, so a long mutation run keeps no dead cells.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn swap_remove(&mut self, i: u32) {
        let last = (self.points.len() - 1) as u32;
        let key = Self::key(&self.points[i as usize], self.cell);
        let bucket = self.buckets.get_mut(&key).expect("point must be indexed");
        let at = bucket.partition_point(|&x| x < i);
        debug_assert_eq!(bucket.get(at), Some(&i));
        bucket.remove(at);
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
        if i != last {
            // The moved point keeps its cell; only its index changes.
            // Its entry is the bucket maximum (ascending order), so it
            // sits at the tail: pull it out and reinsert at the new
            // index's sorted position.
            let key = Self::key(&self.points[last as usize], self.cell);
            let bucket = self
                .buckets
                .get_mut(&key)
                .expect("moved point must be indexed");
            debug_assert_eq!(bucket.last(), Some(&last));
            bucket.pop();
            let at = bucket.partition_point(|&x| x < i);
            bucket.insert(at, i);
        }
        self.points.swap_remove(i as usize);
    }

    /// The non-empty buckets, in key order.
    fn occupied(&self) -> impl Iterator<Item = (&(i64, i64), &Vec<u32>)> {
        self.buckets.iter().filter(|(_, bucket)| !bucket.is_empty())
    }

    /// The bucket side length the index was built with.
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// The indexed points, in index order.
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Calls `f` for each point index within `radius` of `center`.
    ///
    /// Visit order is the query box's window order: cells in ascending
    /// `(a, b)` key order, points within a cell in ascending index —
    /// schedulers depend on it for bit-identical output. The walk seeks
    /// through the ordered buckets instead of probing every cell of the
    /// `(2·span + 1)²` box, so it visits at most `min(box cells,
    /// buckets)` cells and seeks at most twice per occupied row: a
    /// radius of 10⁹ cells (or an infinite one) costs no more than a
    /// scan of the index.
    pub fn for_each_in_radius<F: FnMut(u32)>(&self, center: &Point2, radius: f64, mut f: F) {
        if radius.is_nan() || radius < 0.0 {
            return; // an empty ball
        }
        let r_sq = radius * radius;
        // Box bounds in i128, clamped to the key range: a saturated
        // key (or span) still lands inside every box that must hold it.
        let span = (radius / self.cell).ceil() as i128;
        let shift = |c: i64, by: i128| {
            (c as i128)
                .saturating_add(by)
                .clamp(i64::MIN.into(), i64::MAX.into()) as i64
        };
        let (ca, cb) = Self::key(center, self.cell);
        let a_hi = shift(ca, span);
        let (b_lo, b_hi) = (shift(cb, -span), shift(cb, span));
        let mut from = (shift(ca, -span), b_lo);
        'seek: loop {
            for (&(a, b), bucket) in self.buckets.range(from..) {
                if a > a_hi {
                    return;
                }
                if b < b_lo {
                    from = (a, b_lo);
                    continue 'seek;
                }
                if b > b_hi {
                    if a == a_hi {
                        return;
                    }
                    from = (a + 1, b_lo);
                    continue 'seek;
                }
                for &i in bucket {
                    if self.points[i as usize].distance_sq(center) <= r_sq {
                        f(i);
                    }
                }
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use std::time::{Duration, Instant};

    /// Every index `for_each_in_radius` visits, in visit order.
    fn in_radius(hash: &SpatialHash, center: &Point2, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        hash.for_each_in_radius(center, radius, |i| out.push(i));
        out
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect()
    }

    fn brute_force_radius(points: &[Point2], c: &Point2, r: f64) -> Vec<u32> {
        let mut v: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(c) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    /// The visit-order oracle, independent of the index: brute-force
    /// hits sorted by (cell key, index).
    fn window_order(points: &[Point2], cell: f64, c: &Point2, r: f64) -> Vec<u32> {
        let mut v: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_sq(c) <= r * r)
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_by_key(|&i| (SpatialHash::key(&points[i as usize], cell), i));
        v
    }

    #[test]
    fn astronomical_radii_and_centers_neither_overflow_nor_hang() {
        let mut pts = random_points(50, 5);
        pts.push(Point2::new(-f64::MAX, 1e300));
        let hash = SpatialHash::build(&pts, 2.0);
        let c = Point2::origin();
        assert_eq!(
            in_radius(&hash, &c, f64::INFINITY),
            window_order(&pts, 2.0, &c, f64::INFINITY)
        );
        assert_eq!(in_radius(&hash, &c, f64::INFINITY).len(), pts.len());
        // A near-saturated center key with a box-sized span, and with
        // an infinite one.
        let far = Point2::new(f64::MAX, -f64::MAX);
        assert!(in_radius(&hash, &far, 10.0).is_empty());
        assert_eq!(
            in_radius(&hash, &far, f64::INFINITY),
            window_order(&pts, 2.0, &far, f64::INFINITY)
        );
        let c = Point2::new(50.0, 50.0);
        let mut wide = in_radius(&hash, &c, 1e12);
        wide.sort_unstable();
        assert_eq!(wide, brute_force_radius(&pts, &c, 1e12));
    }

    /// A query's cost is bounded by the index, not by its box: two
    /// points a 10⁹ cells apart answer at once, and so does a radius
    /// of 3·10⁴ cells, whose box holds ~3.6·10⁹ cells.
    #[test]
    fn wide_radius_queries_over_few_points_return_at_once() {
        let start = Instant::now();
        let pts = [Point2::new(0.0, 0.0), Point2::new(1e9, 0.0)];
        let hash = SpatialHash::build(&pts, 1.0);
        assert_eq!(in_radius(&hash, &pts[0], 1e9), vec![0, 1]);
        assert_eq!(in_radius(&hash, &pts[1], 1e9), vec![0, 1]);
        assert_eq!(in_radius(&hash, &pts[1], 1e9 - 1.0), vec![1]);
        let pts = [Point2::new(5.0, 7.0), Point2::new(-2e4, 1e4)];
        let hash = SpatialHash::build(&pts, 1.0);
        assert_eq!(in_radius(&hash, &pts[0], 3e4), vec![1, 0]);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "wide queries took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn radius_query_matches_brute_force() {
        let pts = random_points(500, 1);
        let hash = SpatialHash::build(&pts, 10.0);
        for (i, c) in random_points(50, 2).iter().enumerate() {
            let r = 1.0 + (i as f64) % 30.0;
            let mut got = in_radius(&hash, c, r);
            got.sort_unstable();
            assert_eq!(got, brute_force_radius(&pts, c, r), "center {c:?} r {r}");
        }
    }

    #[test]
    fn zero_radius_finds_exact_duplicates() {
        let pts = vec![
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 2.0),
            Point2::new(1.0, 1.0),
        ];
        let hash = SpatialHash::build(&pts, 1.0);
        let mut got = in_radius(&hash, &Point2::new(1.0, 1.0), 0.0);
        got.sort_unstable();
        assert_eq!(got, vec![0, 2]);
        for r in [-1.0, f64::NEG_INFINITY, f64::NAN] {
            assert!(in_radius(&hash, &Point2::new(1.0, 1.0), r).is_empty());
        }
    }

    #[test]
    fn empty_index() {
        let hash = SpatialHash::build(&[], 1.0);
        assert!(hash.is_empty());
        assert!(in_radius(&hash, &Point2::origin(), 10.0).is_empty());
        let unbuilt = SpatialHash::new();
        assert!(unbuilt.is_empty());
        assert!(in_radius(&unbuilt, &Point2::origin(), 10.0).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn radius_query_agrees_with_scan(
            seed in 0u64..1000,
            n in 1usize..120,
            cx in 0.0f64..100.0, cy in 0.0f64..100.0,
            r in 0.0f64..60.0,
            cell in 0.5f64..25.0,
        ) {
            let pts = random_points(n, seed);
            let hash = SpatialHash::build(&pts, cell);
            let c = Point2::new(cx, cy);
            let mut got = in_radius(&hash, &c, r);
            got.sort_unstable();
            prop_assert_eq!(got, brute_force_radius(&pts, &c, r));
        }

        /// Schedulers need the exact visit order, not just the members:
        /// cells in `(a, b)` key order, indices ascending within a
        /// cell. Radii reach far past the point cloud, so the seek walk
        /// skips rows and columns on both sides of the box.
        #[test]
        fn visit_order_is_window_order(
            seed in 0u64..1000,
            n in 0usize..200,
            cx in -50.0f64..150.0, cy in -50.0f64..150.0,
            r in 0.0f64..200.0,
            cell in 0.5f64..20.0,
        ) {
            let pts = random_points(n, seed);
            let hash = SpatialHash::build(&pts, cell);
            let c = Point2::new(cx, cy);
            prop_assert_eq!(in_radius(&hash, &c, r), window_order(&pts, cell, &c, r));
        }
    }

    /// The mutation and rebuild contract: the index must be
    /// indistinguishable from a fresh build over its point array —
    /// same structure *and* the same visit order, since schedulers
    /// depend on order for bit-identical results.
    fn assert_matches_fresh_build(hash: &SpatialHash, pts: &[Point2], cell: f64, seed: u64) {
        assert_eq!(hash.points(), pts);
        let fresh = SpatialHash::build(pts, cell);
        assert_eq!(hash, &fresh, "index differs from fresh build");
        for (i, c) in random_points(20, seed).iter().enumerate() {
            let r = 0.5 + (i as f64) % 30.0;
            assert_eq!(
                in_radius(hash, c, r),
                in_radius(&fresh, c, r),
                "visit order diverged at {c:?} r {r}"
            );
        }
    }

    #[test]
    fn insert_matches_fresh_build() {
        let cell = 6.0;
        let mut pts = random_points(60, 21);
        let mut hash = SpatialHash::build(&pts, cell);
        for (k, p) in random_points(40, 22).into_iter().enumerate() {
            assert_eq!(hash.insert(p) as usize, pts.len());
            pts.push(p);
            if k % 7 == 0 {
                assert_matches_fresh_build(&hash, &pts, cell, 23 + k as u64);
            }
        }
        assert_matches_fresh_build(&hash, &pts, cell, 99);
    }

    #[test]
    fn swap_remove_matches_fresh_build() {
        let cell = 6.0;
        let mut pts = random_points(80, 31);
        let mut hash = SpatialHash::build(&pts, cell);
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for k in 0..60 {
            let i = rng.gen_range(0..pts.len()) as u32;
            hash.swap_remove(i);
            pts.swap_remove(i as usize);
            if k % 7 == 0 {
                assert_matches_fresh_build(&hash, &pts, cell, 33 + k as u64);
            }
        }
        assert_matches_fresh_build(&hash, &pts, cell, 98);
    }

    #[test]
    fn swap_remove_down_to_empty() {
        let cell = 3.0;
        let mut pts = random_points(17, 41);
        let mut hash = SpatialHash::build(&pts, cell);
        while !pts.is_empty() {
            let i = (pts.len() / 2) as u32;
            hash.swap_remove(i);
            pts.swap_remove(i as usize);
            assert_matches_fresh_build(&hash, &pts, cell, pts.len() as u64);
        }
        assert!(hash.buckets.is_empty(), "emptied buckets must be dropped");
        // Refill after draining: mutation must not wedge the index.
        for p in random_points(9, 42) {
            hash.insert(p);
            pts.push(p);
        }
        assert_matches_fresh_build(&hash, &pts, cell, 43);
    }

    /// Rebuilding over a sequence of different inputs (sizes, cells,
    /// the empty set, a repeat) leaves exactly a fresh build of the
    /// last one: nothing of an earlier input leaks into queries or
    /// equality, and the kept empty buckets stay bounded.
    #[test]
    fn rebuild_sequence_matches_build_of_the_last_input() {
        let inputs: Vec<(Vec<Point2>, f64)> = vec![
            (random_points(400, 11), 5.0),
            (random_points(30, 12), 8.0),
            (Vec::new(), 1.0),
            (random_points(120, 13), 0.7),
            (random_points(120, 13), 0.7),
            (random_points(60, 14), 3.0),
            (random_points(5, 15), 0.25),
        ];
        let mut hash = SpatialHash::new();
        for (k, (pts, cell)) in inputs.iter().enumerate() {
            hash.rebuild(pts, *cell);
            assert_matches_fresh_build(&hash, pts, *cell, 50 + k as u64);
            assert!(hash.buckets.len() <= BUCKETS_PER_POINT * pts.len().max(1));
        }
        // Mutating a rebuilt index (whose map holds kept empty buckets)
        // still tracks a fresh build.
        let (mut pts, cell) = inputs[5].clone();
        hash.rebuild(&pts, cell);
        for p in random_points(10, 16) {
            hash.insert(p);
            pts.push(p);
        }
        hash.swap_remove(3);
        pts.swap_remove(3);
        assert_matches_fresh_build(&hash, &pts, cell, 60);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Interleaved insert/remove/rebuild/query against a naive
        /// reference (plain point vector + brute-force scan). Ops are
        /// driven by a byte script so shrinking yields minimal
        /// counterexample sequences.
        #[test]
        fn mutation_interleaving_matches_naive(
            seed in 0u64..1000,
            n0 in 0usize..40,
            cell in 0.5f64..15.0,
            ops in proptest::collection::vec((0u8..4, 0.0f64..100.0, 0.0f64..100.0, 0.0f64..60.0), 1..60),
        ) {
            let mut pts = random_points(n0, seed);
            let mut hash = SpatialHash::build(&pts, cell);
            for (op, x, y, r) in ops {
                match op {
                    0 => {
                        let p = Point2::new(x, y);
                        hash.insert(p);
                        pts.push(p);
                    }
                    1 if !pts.is_empty() => {
                        // Derive the victim index from the coordinate
                        // payload so shrinking stays meaningful.
                        let i = ((x / 100.0) * pts.len() as f64) as u32;
                        let i = i.min(pts.len() as u32 - 1);
                        hash.swap_remove(i);
                        pts.swap_remove(i as usize);
                    }
                    2 => {
                        // Re-index the current points at another cell
                        // size and back, leaving empty buckets behind.
                        hash.rebuild(&pts, 0.5 + r / 4.0);
                        hash.rebuild(&pts, cell);
                    }
                    _ => {
                        let c = Point2::new(x, y);
                        let got = in_radius(&hash, &c, r);
                        prop_assert_eq!(&got, &window_order(&pts, cell, &c, r));
                        let mut sorted = got;
                        sorted.sort_unstable();
                        prop_assert_eq!(sorted, brute_force_radius(&pts, &c, r));
                    }
                }
            }
            let fresh = SpatialHash::build(&pts, cell);
            prop_assert_eq!(&hash, &fresh);
        }
    }
}
