//! Uniform-grid spatial hash for radius queries over point sets.
//!
//! RLE deletes every sender within radius `c₁·d_ii` of each chosen
//! receiver; with `N` links and `Θ(N)` iterations a naive scan is
//! `O(N²)` per instance sweep. The spatial hash buckets points into
//! cells of the query radius scale so each query touches only nearby
//! buckets. Topology generators also use it for minimum-separation
//! checks.

use crate::point::Point2;
use rayon::prelude::*;
use std::collections::HashMap;

/// Contiguous index-stripe width used by the tiled build paths.
///
/// Construction over `points` is sharded into ⌈n / TILE_SIZE⌉ stripes
/// that are built independently (no locking) and merged in stripe
/// order. The stripe count depends only on `n`, never on the thread
/// count, so the merged structure is identical for every
/// `RAYON_NUM_THREADS` — including 1 (the sequential build is the
/// 1-stripe special case of the same merge).
pub(crate) const TILE_SIZE: usize = 16_384;

/// Minimum point count before [`SpatialGrid::rebuild`] runs its
/// key-computation stage in parallel. Kept well above engine-scale
/// instances (n ≤ ~4k) so warm `schedule_in` rebuilds stay on the
/// sequential, allocation-free path; stage dispatch is per-stage
/// tile scheduling, not one global switch.
const GRID_PARALLEL_MIN: usize = 65_536;

/// Widest cell span a [`SpatialHash::for_each_in_radius`] query walks
/// as a `(2·span + 1)²` cell box — about 4·10⁹ cells, far past any
/// radius a real instance asks for.
const MAX_CELL_SPAN: i64 = 1 << 15;

/// A static spatial hash over indexed points.
///
/// Equality is structural (same cell size, buckets, and points) — used
/// by tests to certify that in-place mutation leaves the index
/// indistinguishable from a fresh [`build`](Self::build).
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialHash {
    cell: f64,
    buckets: HashMap<(i64, i64), Vec<u32>>,
    points: Vec<Point2>,
}

impl SpatialHash {
    /// Builds a hash over `points` with bucket side `cell`.
    ///
    /// A good `cell` is the typical query radius; correctness does not
    /// depend on the choice, only performance.
    ///
    /// # Panics
    /// Panics if `cell` is not finite and positive.
    pub fn build(points: &[Point2], cell: f64) -> Self {
        // Large instances shard construction into index stripes; the
        // stripe count derives from n alone, so the result is the same
        // structure the sequential path produces (pinned by
        // `tiled_build_matches_sequential`).
        if points.len() >= 2 * TILE_SIZE {
            return Self::build_tiled(points, cell, points.len().div_ceil(TILE_SIZE));
        }
        assert!(
            cell.is_finite() && cell > 0.0,
            "spatial hash cell must be finite and positive, got {cell}"
        );
        let mut buckets: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            buckets
                .entry(Self::key(p, cell))
                .or_default()
                .push(i as u32);
        }
        Self {
            cell,
            buckets,
            points: points.to_vec(),
        }
    }

    /// Builds the hash from `tiles` independently constructed,
    /// contiguous index stripes, merged in stripe order.
    ///
    /// Structurally identical to the sequential [`build`](Self::build)
    /// for **every** `tiles ≥ 1`: each stripe's per-cell runs are
    /// ascending (stripe indices ascend), stripes are disjoint and
    /// ascending, and the merge appends stripe `t`'s run before stripe
    /// `t + 1`'s — so every merged bucket is exactly the ascending
    /// sequence the one-pass build pushes. Bucket-map iteration order is
    /// never observable (queries look cells up by key; equality is
    /// content-based), so thread count and tile count cannot leak into
    /// results.
    ///
    /// # Panics
    /// Panics if `cell` is not finite and positive.
    pub fn build_tiled(points: &[Point2], cell: f64, tiles: usize) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "spatial hash cell must be finite and positive, got {cell}"
        );
        let tiles = tiles.max(1);
        let stripe = points.len().div_ceil(tiles).max(1);
        let parts: Vec<HashMap<(i64, i64), Vec<u32>>> = (0..tiles as u32)
            .into_par_iter()
            .map(|t| {
                let lo = (t as usize * stripe).min(points.len());
                let hi = (lo + stripe).min(points.len());
                let mut m: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
                for (k, p) in points[lo..hi].iter().enumerate() {
                    m.entry(Self::key(p, cell))
                        .or_default()
                        .push((lo + k) as u32);
                }
                m
            })
            .collect();
        let mut buckets: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
        for mut part in parts {
            for (key, mut run) in part.drain() {
                buckets.entry(key).or_default().append(&mut run);
            }
        }
        Self {
            cell,
            buckets,
            points: points.to_vec(),
        }
    }

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
    /// index order within every bucket, no empty buckets), so query
    /// results and visit order match a rebuild bit for bit.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn swap_remove(&mut self, i: u32) {
        let last = (self.points.len() - 1) as u32;
        remove_from_bucket(
            &mut self.buckets,
            Self::key(&self.points[i as usize], self.cell),
            i,
        );
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
    /// A radius wider than [`MAX_CELL_SPAN`] cells (astronomical
    /// coordinates, an infinite radius) scans the points in index order
    /// instead of a cell box that would take hours or overflow the
    /// cell keys; saturating key arithmetic keeps every box query
    /// covering the cells it must.
    pub fn for_each_in_radius<F: FnMut(u32)>(&self, center: &Point2, radius: f64, mut f: F) {
        let r_sq = radius * radius;
        let span = (radius / self.cell).ceil() as i64;
        if span > MAX_CELL_SPAN {
            for (i, p) in self.points.iter().enumerate() {
                if p.distance_sq(center) <= r_sq {
                    f(i as u32);
                }
            }
            return;
        }
        let (ca, cb) = Self::key(center, self.cell);
        for a in ca.saturating_sub(span)..=ca.saturating_add(span) {
            for b in cb.saturating_sub(span)..=cb.saturating_add(span) {
                if let Some(bucket) = self.buckets.get(&(a, b)) {
                    for &i in bucket {
                        if self.points[i as usize].distance_sq(center) <= r_sq {
                            f(i);
                        }
                    }
                }
            }
        }
    }

    /// Index of the nearest point to `center`, or `None` when empty.
    /// Expanding-ring search over buckets, starting at the nearest
    /// occupied ring so queries far outside the point cloud stay cheap.
    pub fn nearest(&self, center: &Point2) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let (ca, cb) = Self::key(center, self.cell);
        let (mut ring, max_ring) = self.ring_bounds(ca, cb);
        let mut best: Option<(u32, f64)> = None;
        while ring <= max_ring {
            self.visit_ring(ca, cb, ring, |bucket| {
                for &i in bucket {
                    let d = self.points[i as usize].distance_sq(center);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
            });
            // A point in a farther ring is at distance ≥ (ring − 1)·cell
            // from the center cell, so once the best candidate is within
            // that bound no farther ring can beat it.
            if let Some((idx, d_sq)) = best {
                if d_sq.sqrt() <= (ring as f64 - 1.0).max(0.0) * self.cell {
                    return Some(idx);
                }
            }
            ring += 1;
        }
        best.map(|(i, _)| i)
    }

    /// Chebyshev distances (in cells) from `(ca, cb)` to the closest and
    /// farthest occupied bucket.
    fn ring_bounds(&self, ca: i64, cb: i64) -> (i64, i64) {
        let mut lo = i64::MAX;
        let mut hi = 0;
        for &(a, b) in self.buckets.keys() {
            let d = (a - ca).abs().max((b - cb).abs());
            lo = lo.min(d);
            hi = hi.max(d);
        }
        (lo.min(hi), hi)
    }

    /// Calls `f` with each occupied bucket on the Chebyshev ring of
    /// radius `ring` around `(ca, cb)`; iterates only the ring boundary.
    fn visit_ring<F: FnMut(&[u32])>(&self, ca: i64, cb: i64, ring: i64, mut f: F) {
        let mut visit = |a: i64, b: i64| {
            if let Some(bucket) = self.buckets.get(&(a, b)) {
                f(bucket);
            }
        };
        if ring == 0 {
            visit(ca, cb);
            return;
        }
        for a in (ca - ring)..=(ca + ring) {
            visit(a, cb - ring);
            visit(a, cb + ring);
        }
        for b in (cb - ring + 1)..=(cb + ring - 1) {
            visit(ca - ring, b);
            visit(ca + ring, b);
        }
    }
}

/// Removes index `value` from the (ascending) bucket at `key`,
/// dropping the bucket when it empties — a fresh build allocates no
/// empty buckets, and `SpatialHash::swap_remove` promises structural
/// equality with one.
fn remove_from_bucket(buckets: &mut HashMap<(i64, i64), Vec<u32>>, key: (i64, i64), value: u32) {
    let bucket = buckets.get_mut(&key).expect("point must be indexed");
    let at = bucket.partition_point(|&x| x < value);
    debug_assert_eq!(bucket.get(at), Some(&value));
    bucket.remove(at);
    if bucket.is_empty() {
        buckets.remove(&key);
    }
}

/// A reusable spatial index: the same radius-query semantics as
/// [`SpatialHash`], backed by buffers that survive rebuilds.
///
/// [`SpatialHash::build`] allocates a bucket `Vec` per occupied cell on
/// every call — fine for one-shot use, but the zero-allocation
/// scheduling engine rebuilds its index once per `schedule_in` call.
/// `SpatialGrid` stores the same structure in CSR form (one `items`
/// array sliced by per-cell offsets) over reusable buffers: after a
/// warm-up rebuild at a given size, further rebuilds touch no heap.
///
/// Query results and *visit order* are identical to `SpatialHash` over
/// the same points: cells are scanned in the same window order and
/// points within a cell in index order (CSR placement preserves the
/// bucket insertion order). Schedulers rely on that equivalence for
/// bit-identical output; `grid_matches_hash_order` pins it.
#[derive(Debug, Clone, Default)]
pub struct SpatialGrid {
    cell: f64,
    points: Vec<Point2>,
    /// cell key -> slot in the CSR arrays.
    slots: HashMap<(i64, i64), u32>,
    /// Per-slot start offsets into `items` (length `slots.len() + 1`).
    starts: Vec<u32>,
    /// Point indices grouped by cell, each group in ascending order.
    items: Vec<u32>,
    /// Scratch: per-point slot, reused between the counting and
    /// placement passes.
    point_slot: Vec<u32>,
    /// Scratch: per-slot write cursor for the placement pass.
    offsets: Vec<u32>,
    /// Scratch: per-point cell key, filled (in parallel for large
    /// rebuilds) before the sequential slot-assignment pass.
    key_scratch: Vec<(i64, i64)>,
}

impl SpatialGrid {
    /// An empty index; call [`rebuild`](Self::rebuild) before querying.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-indexes `points` with bucket side `cell`, reusing all
    /// internal buffers.
    ///
    /// When `points` and `cell` are bit-identical to the previous
    /// rebuild the call returns immediately: the stored index is
    /// already exactly what this input produces, so steady-state
    /// callers re-indexing an unchanged instance pay one `memcmp`
    /// instead of a full rebuild. (A `NaN` coordinate never compares
    /// equal and therefore always rebuilds — conservative, not wrong.)
    ///
    /// # Panics
    /// Panics if `cell` is not finite and positive.
    pub fn rebuild(&mut self, points: &[Point2], cell: f64) {
        assert!(
            cell.is_finite() && cell > 0.0,
            "spatial grid cell must be finite and positive, got {cell}"
        );
        if self.cell == cell && self.points == points {
            return;
        }
        self.cell = cell;
        self.points.clear();
        self.points.extend_from_slice(points);
        self.slots.clear();
        self.point_slot.clear();
        self.starts.clear();
        // Key stage: each point's cell key is a pure function of
        // (point, cell), so the tile-parallel fill is bit-identical to
        // the sequential one; only the slot-assignment pass below is
        // order-sensitive, and it stays sequential.
        self.key_scratch.clear();
        if points.len() >= GRID_PARALLEL_MIN {
            self.key_scratch.resize(points.len(), (0, 0));
            self.key_scratch
                .par_chunks_mut(TILE_SIZE)
                .enumerate()
                .for_each(|(t, chunk)| {
                    let base = t * TILE_SIZE;
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        *slot = SpatialHash::key(&points[base + k], cell);
                    }
                });
        } else {
            self.key_scratch
                .extend(points.iter().map(|p| SpatialHash::key(p, cell)));
        }
        // Pass 1: assign each point a cell slot and count occupancy
        // (counts accumulate in `starts`, shifted by one for the
        // prefix-sum below). First-encounter order assigns slot ids,
        // which must stay the sequential point order.
        self.starts.push(0);
        for key in self.key_scratch.iter().copied() {
            let next = self.slots.len() as u32;
            let slot = *self.slots.entry(key).or_insert(next);
            if slot == next {
                self.starts.push(0);
            }
            self.starts[slot as usize + 1] += 1;
            self.point_slot.push(slot);
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        // Pass 2: place indices; ascending point order within each cell
        // reproduces SpatialHash's bucket push order.
        self.items.clear();
        self.items.resize(points.len(), 0);
        self.offsets.clear();
        self.offsets
            .extend_from_slice(&self.starts[..self.starts.len() - 1]);
        for (i, &slot) in self.point_slot.iter().enumerate() {
            let at = self.offsets[slot as usize];
            self.items[at as usize] = i as u32;
            self.offsets[slot as usize] = at + 1;
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Appends a point in place — the incremental counterpart of a full
    /// [`rebuild`](Self::rebuild) over the extended array. The new index
    /// is the maximum, so placing it at the end of its cell's CSR
    /// segment keeps the segment ascending, which is the property the
    /// bucket-order equivalence contract with [`SpatialHash`] rests on.
    /// Cost: one `memmove` of the items tail plus an offset walk —
    /// no rehash of existing points.
    ///
    /// # Panics
    /// Panics unless the grid was built (or rebuilt) at least once —
    /// the cell size comes from that build.
    pub fn insert(&mut self, p: Point2) -> u32 {
        assert!(
            self.cell.is_finite() && self.cell > 0.0,
            "insert requires a prior rebuild (cell size unset)"
        );
        let idx = self.points.len() as u32;
        self.points.push(p);
        let key = SpatialHash::key(&p, self.cell);
        match self.slots.get(&key) {
            Some(&slot) => {
                let at = self.starts[slot as usize + 1] as usize;
                self.items.insert(at, idx);
                for s in &mut self.starts[slot as usize + 1..] {
                    *s += 1;
                }
            }
            None => {
                // A brand-new cell gets the next CSR slot, whose
                // segment sits at the very end of `items`.
                self.slots.insert(key, self.slots.len() as u32);
                self.items.push(idx);
                self.starts.push(self.items.len() as u32);
            }
        }
        idx
    }

    /// Removes point `i` in place with `Vec::swap_remove` semantics
    /// (the point at `len() - 1` takes index `i`), mirroring
    /// [`SpatialHash::swap_remove`]: every cell segment stays in
    /// ascending index order, so queries keep visiting points in the
    /// exact order a fresh build would. Emptied cells keep their (now
    /// zero-width) CSR slot — harmless to queries, reclaimed by the
    /// next full rebuild.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn swap_remove(&mut self, i: u32) {
        let last = (self.points.len() - 1) as u32;
        // Drop `i` from its segment.
        let key = SpatialHash::key(&self.points[i as usize], self.cell);
        let slot = self.slots[&key] as usize;
        let (lo, hi) = (self.starts[slot] as usize, self.starts[slot + 1] as usize);
        let at = lo + self.items[lo..hi].partition_point(|&x| x < i);
        debug_assert_eq!(self.items.get(at), Some(&i));
        self.items.remove(at);
        for s in &mut self.starts[slot + 1..] {
            *s -= 1;
        }
        if i != last {
            // Rename `last` → `i` inside its segment: the entry is the
            // segment maximum (tail position); reinsert at the new
            // index's sorted position within the same segment.
            let key = SpatialHash::key(&self.points[last as usize], self.cell);
            let slot = self.slots[&key] as usize;
            let (lo, hi) = (self.starts[slot] as usize, self.starts[slot + 1] as usize);
            debug_assert_eq!(self.items.get(hi - 1), Some(&last));
            let at = lo + self.items[lo..hi - 1].partition_point(|&x| x < i);
            self.items[at..hi].rotate_right(1);
            self.items[at] = i;
        }
        self.points.swap_remove(i as usize);
    }

    /// Calls `f` for each point index within `radius` of `center`, in
    /// the same order as [`SpatialHash::for_each_in_radius`].
    pub fn for_each_in_radius<F: FnMut(u32)>(&self, center: &Point2, radius: f64, mut f: F) {
        let r_sq = radius * radius;
        let span = (radius / self.cell).ceil() as i64;
        let (ca, cb) = SpatialHash::key(center, self.cell);
        for a in (ca - span)..=(ca + span) {
            for b in (cb - span)..=(cb + span) {
                if let Some(&slot) = self.slots.get(&(a, b)) {
                    let lo = self.starts[slot as usize] as usize;
                    let hi = self.starts[slot as usize + 1] as usize;
                    for &i in &self.items[lo..hi] {
                        if self.points[i as usize].distance_sq(center) <= r_sq {
                            f(i);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;

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

    #[test]
    fn astronomical_radii_and_centers_neither_overflow_nor_hang() {
        let mut pts = random_points(50, 5);
        pts.push(Point2::new(-f64::MAX, 1e300));
        let hash = SpatialHash::build(&pts, 2.0);
        let all: Vec<u32> = (0..pts.len() as u32).collect();
        assert_eq!(in_radius(&hash, &Point2::origin(), f64::INFINITY), all);
        // A near-saturated center key with a box-sized span.
        let far = Point2::new(f64::MAX, f64::MAX);
        assert!(in_radius(&hash, &far, 10.0).is_empty());
        let c = Point2::new(50.0, 50.0);
        let mut wide = in_radius(&hash, &c, 1e12);
        wide.sort_unstable();
        assert_eq!(wide, brute_force_radius(&pts, &c, 1e12));
    }

    /// Schedulers require the reusable grid to visit candidates in the
    /// exact order `SpatialHash` does — membership parity alone is not
    /// enough for bit-identical schedules.
    #[test]
    fn grid_matches_hash_order() {
        let mut grid = SpatialGrid::new();
        for (seed, n, cell) in [(1u64, 500usize, 10.0f64), (5, 173, 3.7), (9, 64, 25.0)] {
            let pts = random_points(n, seed);
            let hash = SpatialHash::build(&pts, cell);
            grid.rebuild(&pts, cell);
            assert_eq!(grid.len(), n);
            for (i, c) in random_points(40, seed + 100).iter().enumerate() {
                let r = 0.5 + (i as f64) % 30.0;
                let mut from_hash = Vec::new();
                hash.for_each_in_radius(c, r, |id| from_hash.push(id));
                let mut from_grid = Vec::new();
                grid.for_each_in_radius(c, r, |id| from_grid.push(id));
                assert_eq!(from_grid, from_hash, "center {c:?} r {r} cell {cell}");
            }
        }
    }

    /// Rebuilding over a smaller point set must fully replace the old
    /// contents (stale items from the previous, larger build must not
    /// leak into queries).
    #[test]
    fn grid_rebuild_replaces_contents() {
        let mut grid = SpatialGrid::new();
        grid.rebuild(&random_points(400, 11), 5.0);
        let pts = random_points(30, 12);
        grid.rebuild(&pts, 8.0);
        let hash = SpatialHash::build(&pts, 8.0);
        let c = Point2::new(50.0, 50.0);
        let mut from_hash = Vec::new();
        hash.for_each_in_radius(&c, 200.0, |id| from_hash.push(id));
        let mut from_grid = Vec::new();
        grid.for_each_in_radius(&c, 200.0, |id| from_grid.push(id));
        assert_eq!(from_grid, from_hash);
        assert_eq!(from_grid.len(), 30, "radius covers everything");
    }

    #[test]
    fn grid_empty_rebuild() {
        let mut grid = SpatialGrid::new();
        grid.rebuild(&[], 1.0);
        assert!(grid.is_empty());
        let mut seen = 0;
        grid.for_each_in_radius(&Point2::origin(), 10.0, |_| seen += 1);
        assert_eq!(seen, 0);
    }

    proptest! {
        #[test]
        fn grid_order_parity_prop(
            seed in 0u64..1000,
            n in 0usize..200,
            cell in 0.5f64..20.0,
            r in 0.0f64..40.0,
        ) {
            let pts = random_points(n, seed);
            let hash = SpatialHash::build(&pts, cell);
            let mut grid = SpatialGrid::new();
            grid.rebuild(&pts, cell);
            let c = Point2::new(50.0, 50.0);
            let mut from_hash = Vec::new();
            hash.for_each_in_radius(&c, r, |id| from_hash.push(id));
            let mut from_grid = Vec::new();
            grid.for_each_in_radius(&c, r, |id| from_grid.push(id));
            prop_assert_eq!(from_grid, from_hash);
        }
    }

    /// Tile-sharded construction must be structurally identical to the
    /// sequential build for every tile count — the tile count (and
    /// hence the thread count) must never be observable.
    #[test]
    fn tiled_build_matches_sequential() {
        let pts = random_points(3000, 77);
        let seq = SpatialHash::build(&pts, 4.0);
        for tiles in [1usize, 2, 3, 7, 16, 3000, 5000] {
            let tiled = SpatialHash::build_tiled(&pts, 4.0, tiles);
            assert_eq!(tiled, seq, "tiles={tiles}");
        }
        assert_eq!(
            SpatialHash::build_tiled(&[], 1.0, 4),
            SpatialHash::build(&[], 1.0)
        );
        let one = random_points(1, 5);
        assert_eq!(
            SpatialHash::build_tiled(&one, 1.0, 8),
            SpatialHash::build(&one, 1.0)
        );
    }

    /// Above the auto-tiling threshold `build` takes the sharded path
    /// and `SpatialGrid::rebuild` the parallel key stage; both must
    /// keep exact visit-order parity with each other and set-parity
    /// with a brute-force scan.
    #[test]
    fn large_build_keeps_order_parity() {
        // Forces both the tiled hash build (n ≥ 2·TILE_SIZE) and the
        // grid's parallel key stage (n ≥ GRID_PARALLEL_MIN).
        let n = GRID_PARALLEL_MIN + 137;
        let pts = random_points(n, 81);
        let cell = 2.0;
        let hash = SpatialHash::build(&pts, cell);
        let mut grid = SpatialGrid::new();
        grid.rebuild(&pts, cell);
        for (k, c) in random_points(10, 82).iter().enumerate() {
            let r = 1.0 + (k as f64) % 8.0;
            let mut from_hash = Vec::new();
            hash.for_each_in_radius(c, r, |id| from_hash.push(id));
            let mut from_grid = Vec::new();
            grid.for_each_in_radius(c, r, |id| from_grid.push(id));
            assert_eq!(from_grid, from_hash, "center {c:?} r {r}");
            let mut sorted = from_hash.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, brute_force_radius(&pts, c, r));
        }
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
    }

    #[test]
    fn empty_index() {
        let hash = SpatialHash::build(&[], 1.0);
        assert!(hash.is_empty());
        assert!(in_radius(&hash, &Point2::origin(), 10.0).is_empty());
        assert_eq!(hash.nearest(&Point2::origin()), None);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(300, 3);
        let hash = SpatialHash::build(&pts, 7.0);
        for c in random_points(60, 4) {
            let got = hash.nearest(&c).unwrap();
            let best = pts
                .iter()
                .enumerate()
                .min_by(|(_, p), (_, q)| p.distance(&c).total_cmp(&q.distance(&c)))
                .map(|(i, _)| i as u32)
                .unwrap();
            assert_eq!(
                pts[got as usize].distance(&c),
                pts[best as usize].distance(&c),
                "center {c:?}"
            );
        }
    }

    #[test]
    fn nearest_far_outside_the_cloud() {
        let pts = random_points(50, 5);
        let hash = SpatialHash::build(&pts, 5.0);
        let far = Point2::new(-1e4, 1e4);
        let got = hash.nearest(&far).unwrap();
        let best = pts
            .iter()
            .enumerate()
            .min_by(|(_, p), (_, q)| p.distance(&far).total_cmp(&q.distance(&far)))
            .map(|(i, _)| i as u32)
            .unwrap();
        assert_eq!(got, best);
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
    }

    /// The mutation contract: after any interleaving of inserts and
    /// swap-removes, both structures must be indistinguishable from a
    /// fresh build over the mutated point array — same members *and*
    /// the same visit order, since schedulers depend on order for
    /// bit-identical results.
    fn assert_matches_fresh_build(
        hash: &SpatialHash,
        grid: &SpatialGrid,
        pts: &[Point2],
        cell: f64,
        seed: u64,
    ) {
        assert_eq!(hash.points(), pts);
        let fresh = SpatialHash::build(pts, cell);
        assert_eq!(hash, &fresh, "mutated hash differs from fresh build");
        for (i, c) in random_points(20, seed).iter().enumerate() {
            let r = 0.5 + (i as f64) % 30.0;
            let mut want = Vec::new();
            fresh.for_each_in_radius(c, r, |id| want.push(id));
            let mut from_hash = Vec::new();
            hash.for_each_in_radius(c, r, |id| from_hash.push(id));
            assert_eq!(from_hash, want, "hash order diverged at {c:?} r {r}");
            let mut from_grid = Vec::new();
            grid.for_each_in_radius(c, r, |id| from_grid.push(id));
            assert_eq!(from_grid, want, "grid order diverged at {c:?} r {r}");
        }
    }

    #[test]
    fn insert_matches_fresh_build() {
        let cell = 6.0;
        let mut pts = random_points(60, 21);
        let mut hash = SpatialHash::build(&pts, cell);
        let mut grid = SpatialGrid::new();
        grid.rebuild(&pts, cell);
        for (k, p) in random_points(40, 22).into_iter().enumerate() {
            let got_h = hash.insert(p);
            let got_g = grid.insert(p);
            assert_eq!(got_h as usize, pts.len());
            assert_eq!(got_g, got_h);
            pts.push(p);
            if k % 7 == 0 {
                assert_matches_fresh_build(&hash, &grid, &pts, cell, 23 + k as u64);
            }
        }
        assert_matches_fresh_build(&hash, &grid, &pts, cell, 99);
    }

    #[test]
    fn swap_remove_matches_fresh_build() {
        let cell = 6.0;
        let mut pts = random_points(80, 31);
        let mut hash = SpatialHash::build(&pts, cell);
        let mut grid = SpatialGrid::new();
        grid.rebuild(&pts, cell);
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for k in 0..60 {
            let i = rng.gen_range(0..pts.len()) as u32;
            hash.swap_remove(i);
            grid.swap_remove(i);
            pts.swap_remove(i as usize);
            if k % 7 == 0 {
                assert_matches_fresh_build(&hash, &grid, &pts, cell, 33 + k as u64);
            }
        }
        assert_matches_fresh_build(&hash, &grid, &pts, cell, 98);
    }

    #[test]
    fn swap_remove_down_to_empty() {
        let cell = 3.0;
        let mut pts = random_points(17, 41);
        let mut hash = SpatialHash::build(&pts, cell);
        let mut grid = SpatialGrid::new();
        grid.rebuild(&pts, cell);
        while !pts.is_empty() {
            let i = (pts.len() / 2) as u32;
            hash.swap_remove(i);
            grid.swap_remove(i);
            pts.swap_remove(i as usize);
            assert_matches_fresh_build(&hash, &grid, &pts, cell, pts.len() as u64);
        }
        assert!(hash.buckets.is_empty(), "empty buckets must be dropped");
        // Refill after draining: mutation must not wedge the structures.
        for p in random_points(9, 42) {
            hash.insert(p);
            grid.insert(p);
            pts.push(p);
        }
        assert_matches_fresh_build(&hash, &grid, &pts, cell, 43);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Satellite: interleaved insert/remove/query against a naive
        /// reference (plain point vector + brute-force scan). Ops are
        /// driven by a byte script so shrinking yields minimal
        /// counterexample sequences.
        #[test]
        fn mutation_interleaving_matches_naive(
            seed in 0u64..1000,
            n0 in 0usize..40,
            cell in 0.5f64..15.0,
            ops in proptest::collection::vec((0u8..3, 0.0f64..100.0, 0.0f64..100.0, 0.0f64..60.0), 1..60),
        ) {
            let mut pts = random_points(n0, seed);
            let mut hash = SpatialHash::build(&pts, cell);
            let mut grid = SpatialGrid::new();
            grid.rebuild(&pts, cell);
            for (op, x, y, r) in ops {
                match op {
                    0 => {
                        let p = Point2::new(x, y);
                        hash.insert(p);
                        grid.insert(p);
                        pts.push(p);
                    }
                    1 if !pts.is_empty() => {
                        // Derive the victim index from the coordinate
                        // payload so shrinking stays meaningful.
                        let i = ((x / 100.0) * pts.len() as f64) as u32;
                        let i = i.min(pts.len() as u32 - 1);
                        hash.swap_remove(i);
                        grid.swap_remove(i);
                        pts.swap_remove(i as usize);
                    }
                    _ => {
                        let c = Point2::new(x, y);
                        let mut got = in_radius(&hash, &c, r);
                        got.sort_unstable();
                        prop_assert_eq!(got, brute_force_radius(&pts, &c, r));
                        let mut from_grid = Vec::new();
                        grid.for_each_in_radius(&c, r, |id| from_grid.push(id));
                        let mut from_hash = Vec::new();
                        hash.for_each_in_radius(&c, r, |id| from_hash.push(id));
                        prop_assert_eq!(from_grid, from_hash);
                    }
                }
            }
            let fresh = SpatialHash::build(&pts, cell);
            prop_assert_eq!(&hash, &fresh);
        }
    }
}
