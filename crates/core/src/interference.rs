//! Interference-factor storage — the substrate every solver consults.
//!
//! `f[i][j]` is the interference factor of sender `i` on receiver `j`
//! (Eq. (17)): `ln(1 + γ_th (d_jj/d_ij)^α)` for `i ≠ j` and `0` on the
//! diagonal. Two backends provide these values:
//!
//! * [`InterferenceMatrix`] — the dense `N×N` matrix, one row per
//!   sender, each evaluated on its first read. Exact and exhaustive;
//!   `O(N)` per row read and `O(N²)` if every row is read, the right
//!   choice at paper sizes (`N ≤ ~4k`), where a schedule reads only
//!   the rows of the few senders it picks.
//! * [`SparseInterference`] — a spatial-hash truncated store holding
//!   only near-field factors, with a certified per-receiver bound on
//!   every discarded factor. `O(N·k)` memory for `k` stored neighbors
//!   per receiver — the unlock for `10⁵`-link instances. See
//!   [`crate::sparse`] for the truncation error budget.
//!
//! [`InterferenceBackend`] is the enum [`Problem`] stores; dispatch is
//! static (a `match`). Neither backend copies the problem's geometry:
//! a dense row fill and a sparse recomputation read the links, channel
//! and power scales the [`Problem`] hands them. Readers take dense
//! rows through [`Problem::dense_row`] (a contiguous slice, so hot
//! loops keep their slice walks) and sparse rows through
//! [`SparseInterference::row_slices`]. The exact scalar lookup is
//! [`Problem::factor`]. Every factor of either backend is one
//! [`pair_factor`] evaluation, so all of them are bit-identical
//! whatever the read order or thread count.
//!
//! [`Problem`]: crate::problem::Problem
//! [`Problem::factor`]: crate::problem::Problem::factor
//! [`Problem::dense_row`]: crate::problem::Problem::dense_row

use crate::sparse::SparseInterference;
use fading_channel::RayleighChannel;
use fading_net::{LinkId, LinkSet};
use std::sync::OnceLock;

/// `f_{i,j}` for sender `i` at distance `d_ij` from receiver `j`, whose
/// link has length `d_jj` (both from `Point2::distance`), with per-link
/// power scales (`None` = uniform): the one expression behind every
/// factor of both backends.
#[inline]
pub(crate) fn pair_factor(
    channel: &RayleighChannel,
    d_ij: f64,
    d_jj: f64,
    powers: Option<&[f64]>,
    i: usize,
    j: usize,
) -> f64 {
    match powers {
        None => channel.interference_factor(d_ij, d_jj),
        Some(p) => channel.interference_factor_scaled(d_ij, d_jj, p[i], p[j]),
    }
}

/// Row `i` over `links`, in lanes: every receiver's link length into
/// the row, every distance from sender `i` into a second lane, then each
/// factor in place. Taking the square roots apart from the
/// transcendental calls keeps their latency off the factors' path.
fn fill(links: &LinkSet, channel: &RayleighChannel, powers: Option<&[f64]>, i: usize) -> Vec<f64> {
    let all = links.links();
    let s = all[i].sender;
    let d_ij: Vec<f64> = all.iter().map(|l| s.distance(&l.receiver)).collect();
    let mut row: Vec<f64> = all.iter().map(|l| l.length()).collect();
    for (j, (f, &d)) in row.iter_mut().zip(&d_ij).enumerate() {
        *f = if j == i {
            0.0
        } else {
            pair_factor(channel, d, *f, powers, i, j)
        };
    }
    row
}

/// `f_{i,j}` over `links` (`0` on the diagonal).
#[inline]
fn entry(links: &LinkSet, ch: &RayleighChannel, p: Option<&[f64]>, i: usize, j: usize) -> f64 {
    if i == j {
        return 0.0;
    }
    let (tx, rx) = (&links.links()[i], &links.links()[j]);
    pair_factor(ch, tx.sender.distance(&rx.receiver), rx.length(), p, i, j)
}

/// The `core.dense.rows_filled` counter. [`InterferenceMatrix::build`]
/// resolves it before the first fill: a registration is a long-lived
/// allocation, and one placed among a cell's buffers moves the heap.
fn rows_filled() -> &'static fading_obs::Counter {
    fading_obs::counter!("core.dense.rows_filled")
}

/// The dense `N×N` matrix of interference factors: row `i` holds
/// sender `i`'s factors on every receiver and is evaluated on its
/// first read ([`row`](Self::row)).
///
/// A fill evaluates the row sequentially from the geometry the caller
/// passes (the owning problem's links, channel and power scales) and
/// runs no rayon work, so a worker blocked on a row another worker is
/// filling waits on plain sequential code. `Clone` carries the filled
/// rows. Equality is the owning [`Problem`](crate::Problem)'s: a row's
/// content does not depend on when it was read.
#[derive(Debug, Clone)]
pub struct InterferenceMatrix {
    /// `rows[i][j] = f_{i,j}`, once row `i` has been read.
    rows: Vec<OnceLock<Vec<f64>>>,
}

impl InterferenceMatrix {
    /// The matrix for `links`, with optional per-link power scales
    /// (`scale_i × P` for sender `i`); `None` means uniform power, the
    /// paper's model. Theorem 3.1 and Corollary 3.1 hold verbatim with
    /// the generalized factors. No factor is evaluated here; each row
    /// is on its first read.
    ///
    /// # Panics
    /// Panics if `powers` is provided with the wrong length or a
    /// non-positive entry.
    pub fn build(links: &LinkSet, powers: Option<&[f64]>) -> Self {
        if let Some(p) = powers {
            assert_eq!(p.len(), links.len(), "power vector length mismatch");
            assert!(
                p.iter().all(|&s| s.is_finite() && s > 0.0),
                "power scales must be positive"
            );
        }
        rows_filled();
        Self {
            rows: (0..links.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of links `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `sender`: its factors on every receiver, evaluated from
    /// `links`, `channel` and `powers` on the first read (which counts
    /// one `core.dense.rows_filled`). The geometry must be the one the
    /// matrix was built and patched for.
    #[inline]
    pub fn row(
        &self,
        sender: LinkId,
        links: &LinkSet,
        channel: &RayleighChannel,
        powers: Option<&[f64]>,
    ) -> &[f64] {
        let i = sender.index();
        self.rows[i].get_or_init(|| {
            rows_filled().incr();
            fill(links, channel, powers, i)
        })
    }

    /// Row `sender` if it has been read, without filling it.
    #[inline]
    pub fn filled_row(&self, sender: LinkId) -> Option<&[f64]> {
        self.rows[sender.index()].get().map(Vec::as_slice)
    }

    /// How many rows have been read.
    pub fn rows_filled(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }

    /// Whether every factor of `self` and `other`, two matrices over
    /// the same geometry, agrees bit for bit: a row read in either is
    /// compared with the other's (or with a fresh evaluation), and a
    /// row read in neither is the same evaluation on both sides.
    pub(crate) fn same_factors(
        &self,
        other: &Self,
        links: &LinkSet,
        channel: &RayleighChannel,
        powers: Option<&[f64]>,
    ) -> bool {
        let bits = |row: &[f64]| row.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let fresh = |i: usize| {
            let row = (0..links.len()).map(|j| entry(links, channel, powers, i, j));
            row.map(f64::to_bits).collect::<Vec<_>>()
        };
        self.len() == other.len()
            && (0..self.len()).all(|i| match (self.rows[i].get(), other.rows[i].get()) {
                (None, None) => true,
                (Some(a), Some(b)) => bits(a) == bits(b),
                (Some(row), None) | (None, Some(row)) => bits(row) == fresh(i),
            })
    }

    /// Grows the matrix in place to cover `links` (the *extended* link
    /// set; the first `self.len()` links must be unchanged). The new
    /// rows start unread; each read row gains its new columns, the only
    /// factors evaluated. Returns how many were.
    ///
    /// # Panics
    /// Panics if `links` is smaller than the current matrix or `powers`
    /// has the wrong length.
    pub fn append(
        &mut self,
        links: &LinkSet,
        channel: &RayleighChannel,
        powers: Option<&[f64]>,
    ) -> u64 {
        let (n, m) = (self.len(), links.len());
        assert!(m >= n, "append cannot shrink the matrix");
        if let Some(p) = powers {
            assert_eq!(p.len(), m, "power vector length mismatch");
        }
        let mut cells = 0;
        for (i, row) in self.rows.iter_mut().enumerate() {
            if let Some(row) = row.get_mut() {
                row.extend((n..m).map(|j| entry(links, channel, powers, i, j)));
                cells += (m - n) as u64;
            }
        }
        self.rows.resize_with(m, OnceLock::new);
        cells
    }

    /// Removes a strictly-descending batch of links in place, each with
    /// `Vec::swap_remove` semantics: row and column `n−1` move into slot
    /// `k`, matching [`LinkSet::swap_remove`]'s renumbering. Unread rows
    /// stay unread, and read rows move their entries bit for bit, so
    /// the result equals a fresh build over the mutated link set.
    ///
    /// # Panics
    /// Panics if `ids` is not strictly descending or out of bounds.
    pub fn swap_remove_batch(&mut self, ids: &[LinkId]) {
        assert!(
            ids.windows(2).all(|w| w[0] > w[1]),
            "batch removals must be strictly descending"
        );
        let Some(&first) = ids.first() else {
            return;
        };
        assert!(first.index() < self.len(), "link index out of bounds");
        for &id in ids {
            let k = id.index();
            self.rows.swap_remove(k);
            for row in self.rows.iter_mut().filter_map(OnceLock::get_mut) {
                row.swap_remove(k);
            }
        }
    }
}

/// The concrete interference store a [`Problem`] carries, and read
/// access to its factors uniform over backends.
///
/// The contract every solver relies on:
///
/// * [`Problem::factor`] is **exact** for *both* backends — the dense
///   backend reads its (filled on demand) row, and the sparse backend
///   recomputes unstored factors from its hashed positions and the
///   problem's power scales through the same [`pair_factor`], so the
///   value is bit-identical across backends. Scalar lookups never see
///   truncation error.
/// * [`Problem::dense_row`] and the sparse store's
///   [`row_slices`](SparseInterference::row_slices) walk only *stored*
///   factors. Under the dense backend that is every pair; under the
///   sparse backend every *omitted* factor onto a receiver `j` is at
///   most [`cut_bound`](Self::cut_bound)`(j)`, the cut
///   [`tail_cut`](Self::tail_cut)`(j)` plus a relative
///   [`CUT_RTOL`](crate::sparse::CUT_RTOL) of rounding slack, so a sum
///   over a selection `S` accumulated from stored factors is a lower
///   bound within `|S| · cut_bound(j)` of the true sum (see
///   [`within_budget_certified`](crate::feasibility::within_budget_certified)).
///
/// An enum rather than a trait object so `Problem` keeps `Clone` and
/// hot loops dispatch statically.
///
/// [`Problem`]: crate::problem::Problem
/// [`Problem::factor`]: crate::problem::Problem::factor
/// [`Problem::dense_row`]: crate::problem::Problem::dense_row
// One backend lives per `Problem` (never in collections), so the
// variant size gap is irrelevant and boxing would only add a pointer
// hop to every factor lookup.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum InterferenceBackend {
    /// Exhaustive `N×N` matrix, rows filled on first read.
    Dense(InterferenceMatrix),
    /// Spatial-hash truncated near-field store.
    Sparse(SparseInterference),
}

impl InterferenceBackend {
    /// The truncation cut of `receiver` (`0` ⇒ iteration is
    /// exhaustive for it; always under the dense backend).
    #[inline]
    pub fn tail_cut(&self, receiver: LinkId) -> f64 {
        match self {
            Self::Dense(_) => 0.0,
            Self::Sparse(s) => s.tail_cut(receiver),
        }
    }

    /// Certified upper bound on any single factor onto `receiver` that
    /// the stored rows omit (see [`SparseInterference::cut_bound`]; `0`
    /// under the dense backend).
    #[inline]
    pub fn cut_bound(&self, receiver: LinkId) -> f64 {
        match self {
            Self::Dense(_) => 0.0,
            Self::Sparse(s) => s.cut_bound(receiver),
        }
    }

    /// Certified upper bound on `f_{sender,receiver}` when the store
    /// omits the pair; `None` when the pair is stored, and always under
    /// the dense backend (see [`SparseInterference::omitted_bound`]).
    #[inline]
    pub fn omitted_bound(&self, sender: LinkId, receiver: LinkId) -> Option<f64> {
        match self {
            Self::Dense(_) => None,
            Self::Sparse(s) => s.omitted_bound(sender, receiver),
        }
    }

    /// Backend name for logs and manifests.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Dense(_) => "dense",
            Self::Sparse(_) => "sparse",
        }
    }

    /// The dense matrix, when dense.
    pub fn as_dense(&self) -> Option<&InterferenceMatrix> {
        match self {
            Self::Dense(m) => Some(m),
            Self::Sparse(_) => None,
        }
    }

    /// The sparse store, when sparse.
    pub fn as_sparse(&self) -> Option<&SparseInterference> {
        match self {
            Self::Dense(_) => None,
            Self::Sparse(s) => Some(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_channel::ChannelParams;
    use fading_net::{TopologyGenerator, UniformGenerator};

    /// A matrix with the geometry its rows are read from.
    struct Fixture {
        links: LinkSet,
        channel: RayleighChannel,
        powers: Option<Vec<f64>>,
        m: InterferenceMatrix,
    }

    impl Fixture {
        fn new(links: LinkSet, powers: Option<Vec<f64>>) -> Self {
            let m = InterferenceMatrix::build(&links, powers.as_deref());
            Self {
                links,
                channel: RayleighChannel::new(ChannelParams::paper_defaults()),
                powers,
                m,
            }
        }

        fn paper(n: usize, seed: u64) -> Self {
            Self::new(UniformGenerator::paper(n).generate(seed), None)
        }

        fn row(&self, i: LinkId) -> &[f64] {
            self.m
                .row(i, &self.links, &self.channel, self.powers.as_deref())
        }

        /// The per-pair formula.
        fn formula(&self, i: LinkId, j: LinkId) -> f64 {
            if i == j {
                return 0.0;
            }
            let (d_ij, d_jj) = (
                self.links.sender_receiver_distance(i, j),
                self.links.length(j),
            );
            match &self.powers {
                None => self.channel.interference_factor(d_ij, d_jj),
                Some(p) => {
                    self.channel
                        .interference_factor_scaled(d_ij, d_jj, p[i.index()], p[j.index()])
                }
            }
        }

        /// Every read row against the formula, and the matrix against a
        /// fresh one over the same geometry.
        fn assert_fresh(&self, label: &str) {
            assert_eq!(self.m.len(), self.links.len(), "{label}");
            for i in self.links.ids() {
                if let Some(row) = self.m.filled_row(i) {
                    for j in self.links.ids() {
                        assert_eq!(
                            row[j.index()].to_bits(),
                            self.formula(i, j).to_bits(),
                            "{label}: f({i},{j})"
                        );
                    }
                }
            }
            let fresh = InterferenceMatrix::build(&self.links, self.powers.as_deref());
            let powers = self.powers.as_deref();
            assert!(
                self.m
                    .same_factors(&fresh, &self.links, &self.channel, powers),
                "{label}"
            );
        }
    }

    #[test]
    fn diagonal_is_zero() {
        let f = Fixture::paper(30, 1);
        for id in f.links.ids() {
            assert_eq!(f.row(id)[id.index()], 0.0);
        }
    }

    #[test]
    fn entries_match_direct_formula() {
        // Uniform and power-scaled, at sizes around the 64 links where
        // the sparse build switches to rayon.
        for n in [20, 63, 64, 65] {
            let links = UniformGenerator::paper(n).generate(20170714);
            let powers: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect();
            for f in [
                Fixture::new(links.clone(), None),
                Fixture::new(links, Some(powers)),
            ] {
                for i in f.links.ids() {
                    for j in f.links.ids() {
                        assert_eq!(
                            f.row(i)[j.index()].to_bits(),
                            f.formula(i, j).to_bits(),
                            "n={n}: f({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rows_fill_once_on_first_read() {
        let f = Fixture::paper(40, 2);
        assert_eq!(f.m.rows_filled(), 0);
        assert!(f.m.filled_row(LinkId(3)).is_none());
        let first = f.row(LinkId(3)).as_ptr();
        assert_eq!(
            f.row(LinkId(3)).as_ptr(),
            first,
            "a second read reuses the row"
        );
        f.row(LinkId(7));
        assert_eq!(f.m.rows_filled(), 2);
        assert_eq!(f.m.filled_row(LinkId(3)), Some(f.row(LinkId(3))));
        // A clone carries the read rows.
        assert_eq!(f.m.clone().rows_filled(), 2);
    }

    #[test]
    fn all_factors_are_positive_off_diagonal() {
        let f = Fixture::paper(40, 5);
        for i in f.links.ids() {
            for j in f.links.ids() {
                if i != j {
                    assert!(f.row(i)[j.index()] > 0.0, "f({i},{j}) must be positive");
                }
            }
        }
    }

    #[test]
    fn empty_instance() {
        let f = Fixture::new(LinkSet::new(fading_geom::Rect::square(1.0), vec![]), None);
        assert!(f.m.is_empty());
        assert_eq!(f.m.rows_filled(), 0);
    }

    #[test]
    #[should_panic(expected = "power scales must be positive")]
    fn rejects_non_positive_power_scales() {
        let links = UniformGenerator::paper(3).generate(1);
        InterferenceMatrix::build(&links, Some(&[1.0, 0.0, 1.0]));
    }

    #[test]
    fn append_matches_fresh_build() {
        let full = UniformGenerator::paper(70).generate(8);
        let head = {
            let keep: Vec<LinkId> = (0..50).map(LinkId).collect();
            full.restrict(&keep).0
        };
        let powers: Vec<f64> = (0..70).map(|i| 0.5 + (i % 5) as f64 * 0.375).collect();
        for powers in [None, Some(powers)] {
            let mut f = Fixture::new(head.clone(), powers.as_ref().map(|p| p[..50].to_vec()));
            // Rows read before the append gain their new columns; the
            // others, and the new rows, stay unread.
            for i in [0u32, 17, 49] {
                f.row(LinkId(i));
            }
            f.links = full.clone();
            f.powers = powers;
            let cells = f.m.append(&f.links, &f.channel, f.powers.as_deref());
            assert_eq!(cells, 3 * 20);
            assert_eq!(f.m.rows_filled(), 3);
            f.assert_fresh("append");
            f.row(LinkId(60));
            f.assert_fresh("append, then a new row read");
        }
    }

    #[test]
    fn swap_remove_matches_fresh_build() {
        let mut f = Fixture::paper(40, 9);
        for i in [7u32, 39, 0, 20, 33] {
            f.row(LinkId(i));
        }
        // A read row removed (7) with the read tail (39) moved into its
        // hole, that moved row removed in turn (7 again), the unread
        // tail removed (37), then two more read rows (0, 20).
        for k in [7u32, 7, 37, 0, 20] {
            f.m.swap_remove_batch(&[LinkId(k)]);
            f.links.swap_remove(LinkId(k));
            f.assert_fresh(&format!("k={k}"));
        }
        while !f.m.is_empty() {
            let last = LinkId(f.m.len() as u32 - 1);
            f.m.swap_remove_batch(&[last]);
            f.links.swap_remove(last);
        }
        assert!(f.m.is_empty());
    }

    #[test]
    fn swap_remove_batch_matches_sequential() {
        let f = Fixture::paper(40, 9);
        for i in [38u32, 5, 7, 39] {
            f.row(LinkId(i));
        }
        let ids = [LinkId(38), LinkId(20), LinkId(7), LinkId(0)];
        let mut sequential = f.m.clone();
        for &id in &ids {
            sequential.swap_remove_batch(&[id]);
        }
        let mut batched = f.m.clone();
        batched.swap_remove_batch(&ids);
        let mut links = f.links.clone();
        for &id in &ids {
            links.swap_remove(id);
        }
        assert_eq!(batched.rows_filled(), sequential.rows_filled());
        for i in links.ids() {
            assert_eq!(batched.filled_row(i), sequential.filled_row(i), "row {i}");
        }
        assert!(batched.same_factors(&sequential, &links, &f.channel, None));
        // Empty batch is a no-op; a full drain empties it.
        batched.swap_remove_batch(&[]);
        assert_eq!(batched.len(), links.len());
        let all: Vec<LinkId> = (0..batched.len() as u32).rev().map(LinkId).collect();
        batched.swap_remove_batch(&all);
        assert!(batched.is_empty());
    }

    #[test]
    fn same_factors_sees_a_wrong_read_row() {
        let f = Fixture::paper(12, 4);
        let fresh = f.m.clone();
        f.row(LinkId(2));
        assert!(f.m.same_factors(&fresh, &f.links, &f.channel, None));
        let mut wrong = f.m.clone();
        wrong.rows[2].get_mut().expect("read")[5] += 1e-12;
        assert!(!wrong.same_factors(&fresh, &f.links, &f.channel, None));
        assert!(!fresh.same_factors(&wrong, &f.links, &f.channel, None));
    }

    #[test]
    fn backend_enum_delegates_to_dense() {
        let f = Fixture::paper(10, 7);
        let backend = InterferenceBackend::Dense(f.m.clone());
        assert_eq!(backend.name(), "dense");
        assert!(backend.as_sparse().is_none());
        assert!(backend.as_dense().is_some());
        for i in f.links.ids() {
            assert_eq!(backend.cut_bound(i), 0.0);
            assert_eq!(backend.tail_cut(i), 0.0);
            for j in f.links.ids() {
                assert_eq!(backend.omitted_bound(i, j), None);
            }
        }
    }
}
