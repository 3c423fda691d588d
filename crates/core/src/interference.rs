//! Interference-factor storage — the substrate every solver consults.
//!
//! `f[i][j]` is the interference factor of sender `i` on receiver `j`
//! (Eq. (17)): `ln(1 + γ_th (d_jj/d_ij)^α)` for `i ≠ j` and `0` on the
//! diagonal. Two backends provide these values:
//!
//! * [`InterferenceMatrix`] — the dense `N×N` matrix, precomputed once
//!   per instance (in parallel across rows for large instances). Exact
//!   and exhaustive; `O(N²)` time and memory, the right choice at
//!   paper sizes (`N ≤ ~4k`).
//! * [`SparseInterference`] — a spatial-hash truncated store holding
//!   only near-field factors, with a certified per-receiver bound on
//!   every discarded factor. `O(N·k)` memory for `k` stored neighbors
//!   per receiver — the unlock for `10⁵`-link instances. See
//!   [`crate::sparse`] for the truncation error budget.
//!
//! [`InterferenceBackend`] is the enum [`Problem`] stores and the one
//! read interface every solver uses; dispatch is static (a `match`),
//! so the dense hot paths keep their slice-based loops via
//! [`InterferenceBackend::dense_row`].
//!
//! [`Problem`]: crate::problem::Problem

use crate::sparse::SparseInterference;
use fading_channel::RayleighChannel;
use fading_net::{LinkId, LinkSet};
use rayon::prelude::*;

/// Row-major `N×N` matrix of interference factors.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceMatrix {
    n: usize,
    /// `data[i * n + j] = f_{i,j}`.
    data: Vec<f64>,
}

/// Instances below this size are built sequentially; the rayon
/// fork-join overhead only pays off once rows get expensive.
pub(crate) const PARALLEL_THRESHOLD: usize = 64;

impl InterferenceMatrix {
    /// Computes all pairwise factors for `links` under `channel` with
    /// uniform transmit power (the paper's model).
    pub fn build(links: &LinkSet, channel: &RayleighChannel) -> Self {
        Self::build_with_powers(links, channel, None)
    }

    /// Computes factors with optional per-link power scales (`scale_i ×
    /// P` for sender `i`); `None` means uniform power. Theorem 3.1 and
    /// Corollary 3.1 hold verbatim with the generalized factors.
    ///
    /// # Panics
    /// Panics if `powers` is provided with the wrong length or a
    /// non-positive entry.
    pub fn build_with_powers(
        links: &LinkSet,
        channel: &RayleighChannel,
        powers: Option<&[f64]>,
    ) -> Self {
        let n = links.len();
        if n == 0 {
            return Self {
                n,
                data: Vec::new(),
            };
        }
        if let Some(p) = powers {
            assert_eq!(p.len(), n, "power vector length mismatch");
            assert!(
                p.iter().all(|&s| s.is_finite() && s > 0.0),
                "power scales must be positive"
            );
        }
        let mut data = vec![0.0; n * n];
        // SoA views of the receiver geometry, hoisted out of the row
        // loop: the distance lane streams rx/ry/d_jj contiguously
        // instead of striding through the AoS link array. Each d_rr
        // entry is `links.length(j)` evaluated through the same code
        // path, so the hoist is bit-transparent.
        let all = links.links();
        let rx: Vec<f64> = all.iter().map(|l| l.receiver.x).collect();
        let ry: Vec<f64> = all.iter().map(|l| l.receiver.y).collect();
        let d_rr: Vec<f64> = all.iter().map(|l| l.length()).collect();
        // One shared row closure for both branches: the parallel and
        // sequential paths must compute byte-identical rows (the
        // PARALLEL_THRESHOLD regression tests below pin this). Each row
        // is processed in cache blocks: a branch-free distance lane the
        // autovectorizer keeps in SIMD registers (sub/mul/add/sqrt are
        // IEEE-exact, so every d matches `sender_receiver_distance` bit
        // for bit), then the scalar transcendental pass over the same
        // block while it is still in L1 (`powf`/`ln_1p` are libm calls
        // whose expression must stay exactly the channel's).
        const BLOCK: usize = 64;
        let fill_row = |i: usize, row: &mut [f64]| {
            let s = all[i].sender;
            let mut dist = [0.0f64; BLOCK];
            let mut j0 = 0usize;
            while j0 < n {
                let w = (n - j0).min(BLOCK);
                for (k, d) in dist[..w].iter_mut().enumerate() {
                    let dx = s.x - rx[j0 + k];
                    let dy = s.y - ry[j0 + k];
                    *d = (dx * dx + dy * dy).sqrt();
                }
                for (k, slot) in row[j0..j0 + w].iter_mut().enumerate() {
                    let j = j0 + k;
                    if i != j {
                        *slot = match powers {
                            None => channel.interference_factor(dist[k], d_rr[j]),
                            Some(p) => {
                                channel.interference_factor_scaled(dist[k], d_rr[j], p[i], p[j])
                            }
                        };
                    }
                }
                j0 += w;
            }
        };
        if n >= PARALLEL_THRESHOLD {
            data.par_chunks_mut(n)
                .enumerate()
                .for_each(|(i, row)| fill_row(i, row));
        } else {
            for (i, row) in data.chunks_mut(n).enumerate() {
                fill_row(i, row);
            }
        }
        Self { n, data }
    }

    /// Number of links `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The factor `f_{i,j}` of sender `i` on receiver `j`.
    #[inline]
    pub fn factor(&self, sender: LinkId, receiver: LinkId) -> f64 {
        self.data[sender.index() * self.n + receiver.index()]
    }

    /// Row `i`: the factors of sender `i` on every receiver.
    #[inline]
    pub fn row(&self, sender: LinkId) -> &[f64] {
        let i = sender.index();
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Calls `f(receiver, factor)` for every off-diagonal factor of
    /// `sender`.
    pub fn for_each_out(&self, sender: LinkId, f: &mut dyn FnMut(LinkId, f64)) {
        let i = sender.index();
        for (j, &v) in self.row(sender).iter().enumerate() {
            if j != i {
                f(LinkId(j as u32), v);
            }
        }
    }

    /// Calls `f(sender, factor)` for every off-diagonal factor onto
    /// `receiver`.
    pub fn for_each_in(&self, receiver: LinkId, f: &mut dyn FnMut(LinkId, f64)) {
        let j = receiver.index();
        for i in 0..self.n {
            if i != j {
                f(LinkId(i as u32), self.data[i * self.n + j]);
            }
        }
    }

    /// Number of stored off-diagonal factors, `N·(N−1)`.
    pub fn stored_factors(&self) -> u64 {
        let n = self.n as u64;
        n.saturating_mul(n.saturating_sub(1))
    }

    /// Grows the matrix in place to cover `links` (the *extended* link
    /// set; the first `self.len()` links must be unchanged). Existing
    /// entries are kept verbatim; only the new rows and the new columns
    /// of old rows are evaluated — `O(N·a)` transcendentals for `a`
    /// appended links instead of the full `O(N²)` rebuild. Every entry
    /// is a pure per-pair formula evaluation, so the result is
    /// bit-identical to [`build_with_powers`](Self::build_with_powers)
    /// over the extended set.
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
        let n = self.n;
        let m = links.len();
        assert!(m >= n, "append cannot shrink the matrix");
        if let Some(p) = powers {
            assert_eq!(p.len(), m, "power vector length mismatch");
        }
        if m == n {
            return 0;
        }
        // Re-layout rows for the wider stride, back to front so the
        // moves never overlap destructively; new slots are filled below.
        self.data.resize(m * m, 0.0);
        for i in (1..n).rev() {
            self.data.copy_within(i * n..(i + 1) * n, i * m);
        }
        let entry = |i: usize, j: usize| -> f64 {
            if i == j {
                return 0.0;
            }
            let d_ij = links.sender_receiver_distance(LinkId(i as u32), LinkId(j as u32));
            let d_jj = links.length(LinkId(j as u32));
            match powers {
                None => channel.interference_factor(d_ij, d_jj),
                Some(p) => channel.interference_factor_scaled(d_ij, d_jj, p[i], p[j]),
            }
        };
        // New columns of old rows, then the new rows in full.
        for i in 0..n {
            for j in n..m {
                self.data[i * m + j] = entry(i, j);
            }
        }
        for i in n..m {
            for j in 0..m {
                self.data[i * m + j] = entry(i, j);
            }
        }
        self.n = m;
        (2 * n as u64 + (m - n) as u64) * (m - n) as u64
    }

    /// Removes a strictly-descending batch of links in place, each with
    /// `Vec::swap_remove` semantics: row and column `n−1` move into slot
    /// `k`, matching [`LinkSet::swap_remove`]'s renumbering. No factor
    /// is recomputed — surviving entries are moved bit-for-bit, so the
    /// result equals a fresh build over the mutated link set. Every
    /// move is performed in the original stride with only the logical
    /// size shrinking, and the matrix is compacted to the final
    /// narrower stride **once**: a batch of `r` removals costs one
    /// `O(n²)` compaction total instead of `r` of them.
    ///
    /// # Panics
    /// Panics if `ids` is not strictly descending or out of bounds.
    pub fn swap_remove_batch(&mut self, ids: &[LinkId]) {
        let n = self.n;
        assert!(
            ids.windows(2).all(|w| w[0] > w[1]),
            "batch removals must be strictly descending"
        );
        let Some(&first) = ids.first() else {
            return;
        };
        assert!(first.index() < n, "link index out of bounds");
        let mut m = n; // logical size; the stride stays n until the end
        for &id in ids {
            let k = id.index();
            m -= 1;
            // Column m → column k for every surviving row plus row m
            // itself (whose entry lands on the new diagonal as the old
            // zero diagonal entry).
            for r in 0..=m {
                self.data[r * n + k] = self.data[r * n + m];
            }
            // Row m → row k, columns already remapped.
            self.data.copy_within(m * n..m * n + m, k * n);
        }
        // One compaction to the final stride.
        for r in 1..m {
            self.data.copy_within(r * n..r * n + m, r * m);
        }
        self.data.truncate(m * m);
        self.n = m;
    }
}

/// The concrete interference store a [`Problem`] carries, and read
/// access to its factors uniform over backends.
///
/// The contract every solver relies on:
///
/// * [`factor`](Self::factor) is **exact** for *both* backends — the
///   sparse backend recomputes unstored factors from geometry through
///   the same channel code path, so the value is bit-identical to the
///   dense entry. Scalar lookups never see truncation error.
/// * [`for_each_out`](Self::for_each_out) /
///   [`for_each_in`](Self::for_each_in) iterate only *stored* factors.
///   Under the dense backend that is every off-diagonal pair; under the
///   sparse backend every *omitted* factor onto a receiver `j` is at
///   most [`cut_bound`](Self::cut_bound)`(j)`, the cut
///   [`tail_cut`](Self::tail_cut)`(j)` plus a relative
///   [`CUT_RTOL`](crate::sparse::CUT_RTOL) of rounding slack, so a sum
///   over a selection `S` accumulated from stored factors is a lower
///   bound within `|S| · cut_bound(j)` of the true sum (see
///   [`within_budget_certified`](crate::feasibility::within_budget_certified)).
///
/// An enum rather than a trait object so `Problem` keeps
/// `Clone`/`PartialEq` and hot loops dispatch statically; the dense
/// fast path stays a contiguous slice via [`dense_row`].
///
/// [`Problem`]: crate::problem::Problem
/// [`dense_row`]: InterferenceBackend::dense_row
// One backend lives per `Problem` (never in collections), so the
// variant size gap is irrelevant and boxing would only add a pointer
// hop to every factor lookup.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum InterferenceBackend {
    /// Exhaustive `N×N` matrix.
    Dense(InterferenceMatrix),
    /// Spatial-hash truncated near-field store.
    Sparse(SparseInterference),
}

impl InterferenceBackend {
    /// Number of links `N`.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Self::Dense(m) => m.len(),
            Self::Sparse(s) => s.len(),
        }
    }

    /// Whether the backend covers no links.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The factor `f_{i,j}` of sender `i` on receiver `j` — exact in
    /// every backend (`0` on the diagonal).
    #[inline]
    pub fn factor(&self, sender: LinkId, receiver: LinkId) -> f64 {
        match self {
            Self::Dense(m) => m.factor(sender, receiver),
            Self::Sparse(s) => s.factor(sender, receiver),
        }
    }

    /// The dense row of `sender`, when the backend is dense — lets hot
    /// loops keep their auto-vectorized slice walks with no indirect
    /// calls. Sparse callers fall back to [`for_each_out`].
    ///
    /// [`for_each_out`]: InterferenceBackend::for_each_out
    #[inline]
    pub fn dense_row(&self, sender: LinkId) -> Option<&[f64]> {
        match self {
            Self::Dense(m) => Some(m.row(sender)),
            Self::Sparse(_) => None,
        }
    }

    /// Calls `f(receiver, factor)` for every *stored* out-factor of
    /// `sender` (dense: all `j ≠ sender`).
    #[inline]
    pub fn for_each_out(&self, sender: LinkId, f: &mut dyn FnMut(LinkId, f64)) {
        match self {
            Self::Dense(m) => m.for_each_out(sender, f),
            Self::Sparse(s) => s.for_each_out(sender, f),
        }
    }

    /// Calls `f(sender, factor)` for every *stored* in-factor onto
    /// `receiver` (dense: all `i ≠ receiver`).
    #[inline]
    pub fn for_each_in(&self, receiver: LinkId, f: &mut dyn FnMut(LinkId, f64)) {
        match self {
            Self::Dense(m) => m.for_each_in(receiver, f),
            Self::Sparse(s) => s.for_each_in(receiver, f),
        }
    }

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
    /// the iteration methods omit (see
    /// [`SparseInterference::cut_bound`]; `0` under the dense backend).
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

    /// Whether iteration is exhaustive for every receiver.
    pub fn is_exact(&self) -> bool {
        match self {
            Self::Dense(_) => true,
            Self::Sparse(s) => s.is_exact(),
        }
    }

    /// Number of stored off-diagonal factors (dense: `N·(N−1)`).
    pub fn stored_factors(&self) -> u64 {
        match self {
            Self::Dense(m) => m.stored_factors(),
            Self::Sparse(s) => s.stored_factors(),
        }
    }

    /// Backend name for logs and manifests.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Dense(_) => "dense",
            Self::Sparse(_) => "sparse",
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

    fn build(n: usize, seed: u64) -> (LinkSet, InterferenceMatrix) {
        let links = UniformGenerator::paper(n).generate(seed);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        let m = InterferenceMatrix::build(&links, &channel);
        (links, m)
    }

    #[test]
    fn diagonal_is_zero() {
        let (links, m) = build(30, 1);
        for id in links.ids() {
            assert_eq!(m.factor(id, id), 0.0);
        }
    }

    #[test]
    fn entries_match_direct_formula() {
        let (links, m) = build(20, 2);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        for i in links.ids() {
            for j in links.ids() {
                if i == j {
                    continue;
                }
                let d_ij = links.sender_receiver_distance(i, j);
                let d_jj = links.length(j);
                let expect = channel.interference_factor(d_ij, d_jj);
                assert_eq!(m.factor(i, j), expect, "f({i},{j})");
            }
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        // 100 links crosses PARALLEL_THRESHOLD; rebuild a 100-link
        // instance and check entries against the scalar formula.
        let (links, m) = build(100, 3);
        assert_eq!(m.len(), 100);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        for i in links.ids().step_by(7) {
            for j in links.ids().step_by(11) {
                if i == j {
                    continue;
                }
                let expect = channel
                    .interference_factor(links.sender_receiver_distance(i, j), links.length(j));
                assert_eq!(m.factor(i, j), expect);
            }
        }
    }

    #[test]
    fn build_is_identical_across_the_parallel_threshold() {
        // Regression pin: crossing PARALLEL_THRESHOLD must not change a
        // single bit of the output. n = 63 builds sequentially, n = 64
        // switches to rayon, n = 65 stays parallel; all three must match
        // an entry-by-entry scalar rebuild exactly.
        assert_eq!(PARALLEL_THRESHOLD, 64);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        for n in [
            PARALLEL_THRESHOLD - 1,
            PARALLEL_THRESHOLD,
            PARALLEL_THRESHOLD + 1,
        ] {
            let links = UniformGenerator::paper(n).generate(20170714);
            let m = InterferenceMatrix::build(&links, &channel);
            for i in links.ids() {
                for j in links.ids() {
                    let expect = if i == j {
                        0.0
                    } else {
                        channel.interference_factor(
                            links.sender_receiver_distance(i, j),
                            links.length(j),
                        )
                    };
                    assert!(
                        m.factor(i, j).to_bits() == expect.to_bits(),
                        "n={n}: f({i},{j}) = {} differs from scalar {expect}",
                        m.factor(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn powered_build_is_identical_across_the_parallel_threshold() {
        // Same pin for the power-scaled branch of the shared closure.
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        for n in [
            PARALLEL_THRESHOLD - 1,
            PARALLEL_THRESHOLD,
            PARALLEL_THRESHOLD + 1,
        ] {
            let links = UniformGenerator::paper(n).generate(42);
            let powers: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect();
            let m = InterferenceMatrix::build_with_powers(&links, &channel, Some(&powers));
            for i in links.ids() {
                for j in links.ids() {
                    let expect = if i == j {
                        0.0
                    } else {
                        channel.interference_factor_scaled(
                            links.sender_receiver_distance(i, j),
                            links.length(j),
                            powers[i.index()],
                            powers[j.index()],
                        )
                    };
                    assert!(
                        m.factor(i, j).to_bits() == expect.to_bits(),
                        "n={n}: scaled f({i},{j}) mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn row_slices_align_with_factor() {
        let (links, m) = build(15, 4);
        for i in links.ids() {
            let row = m.row(i);
            for j in links.ids() {
                assert_eq!(row[j.index()], m.factor(i, j));
            }
        }
    }

    #[test]
    fn all_factors_are_positive_off_diagonal() {
        let (links, m) = build(40, 5);
        for i in links.ids() {
            for j in links.ids() {
                if i != j {
                    assert!(m.factor(i, j) > 0.0, "f({i},{j}) must be positive");
                }
            }
        }
    }

    #[test]
    fn empty_instance() {
        let links = LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        let m = InterferenceMatrix::build(&links, &channel);
        assert!(m.is_empty());
        assert_eq!(m.stored_factors(), 0);
    }

    #[test]
    fn dense_model_iteration_matches_rows() {
        let (links, m) = build(12, 6);
        for i in links.ids() {
            let mut seen = vec![];
            m.for_each_out(i, &mut |j, f| seen.push((j, f)));
            assert_eq!(seen.len(), links.len() - 1);
            for (j, f) in seen {
                assert_ne!(j, i, "diagonal must be skipped");
                assert_eq!(f, m.factor(i, j));
            }
            let mut inbound = vec![];
            m.for_each_in(i, &mut |j, f| inbound.push((j, f)));
            assert_eq!(inbound.len(), links.len() - 1);
            for (j, f) in inbound {
                assert_eq!(f, m.factor(j, i));
            }
        }
        assert_eq!(m.stored_factors(), 12 * 11);
        let backend = InterferenceBackend::Dense(m);
        assert!(backend.is_exact());
        assert_eq!(backend.tail_cut(LinkId(0)), 0.0);
        assert_eq!(backend.cut_bound(LinkId(0)), 0.0);
    }

    #[test]
    fn append_matches_fresh_build() {
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        // Cross PARALLEL_THRESHOLD so the fresh reference build takes
        // the rayon path while append fills scalar — must still match
        // bit for bit.
        let full = UniformGenerator::paper(70).generate(8);
        let head = {
            let keep: Vec<LinkId> = (0..50).map(LinkId).collect();
            full.restrict(&keep).0
        };
        let mut m = InterferenceMatrix::build(&head, &channel);
        let added = m.append(&full, &channel, None);
        assert_eq!(added, 70 * 70 - 50 * 50);
        let fresh = InterferenceMatrix::build(&full, &channel);
        assert_eq!(m, fresh);
        // Power-scaled variant.
        let powers: Vec<f64> = (0..70).map(|i| 0.5 + (i % 5) as f64 * 0.375).collect();
        let mut m = InterferenceMatrix::build_with_powers(&head, &channel, Some(&powers[..50]));
        m.append(&full, &channel, Some(&powers));
        assert_eq!(
            m,
            InterferenceMatrix::build_with_powers(&full, &channel, Some(&powers))
        );
    }

    #[test]
    fn swap_remove_matches_fresh_build() {
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        let mut links = UniformGenerator::paper(40).generate(9);
        let mut m = InterferenceMatrix::build(&links, &channel);
        // Interior, tail, and repeated one-link removals.
        for k in [7u32, 38, 0, 20] {
            m.swap_remove_batch(&[LinkId(k)]);
            links.swap_remove(LinkId(k));
            assert_eq!(m, InterferenceMatrix::build(&links, &channel), "k={k}");
        }
        // Drain to empty.
        while !m.is_empty() {
            m.swap_remove_batch(&[LinkId(m.len() as u32 - 1)]);
        }
        assert!(m.is_empty());
    }

    #[test]
    fn swap_remove_batch_matches_sequential() {
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        let links = UniformGenerator::paper(40).generate(9);
        let built = InterferenceMatrix::build(&links, &channel);
        // Interior, tail, and head in one batch (descending), against
        // the same removals as a chain of one-link batches.
        let ids = [LinkId(38), LinkId(20), LinkId(7), LinkId(0)];
        let mut sequential = built.clone();
        for &id in &ids {
            sequential.swap_remove_batch(&[id]);
        }
        let mut batched = built.clone();
        batched.swap_remove_batch(&ids);
        assert_eq!(batched, sequential);
        // Empty batch is a no-op; a full drain truncates to zero.
        batched.swap_remove_batch(&[]);
        assert_eq!(batched, sequential);
        let all: Vec<LinkId> = (0..batched.len() as u32).rev().map(LinkId).collect();
        batched.swap_remove_batch(&all);
        assert!(batched.is_empty());
    }

    #[test]
    fn backend_enum_delegates_to_dense() {
        let (links, m) = build(10, 7);
        let backend = InterferenceBackend::Dense(m.clone());
        assert_eq!(backend.len(), 10);
        assert_eq!(backend.name(), "dense");
        assert!(backend.is_exact());
        assert!(backend.as_sparse().is_none());
        for i in links.ids() {
            assert_eq!(backend.dense_row(i), Some(m.row(i)));
            for j in links.ids() {
                assert_eq!(backend.factor(i, j), m.factor(i, j));
            }
        }
    }
}
