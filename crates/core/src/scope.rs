//! The candidate scope of one scheduling call. Feasibility depends on
//! the transmitting set alone (Corollary 3.1), so a scoped call reads
//! the live problem directly and returns what the same scheduler
//! returns on a fresh build of the candidates, mapped back to live ids
//! (`tests/scope_equivalence.rs`; `docs/residual.md`).

use crate::problem::Problem;
use fading_net::LinkId;

/// Which links of a [`Problem`] one
/// [`Scheduler::schedule_in`](crate::Scheduler::schedule_in) call may
/// pick (an ascending candidate list), and the weights that replace
/// their rates for that call (e.g. MaxWeight queue lengths).
///
/// ```
/// use fading_core::{algo::Rle, Problem, SchedCtx, Scheduler, Scope};
/// use fading_net::{LinkId, TopologyGenerator, UniformGenerator};
///
/// let problem = Problem::paper(UniformGenerator::paper(60).generate(1), 3.0);
/// let backlog: Vec<LinkId> = (0..60).step_by(3).map(LinkId).collect();
/// let s = Rle::new().schedule_in(&problem, Scope::candidates(&backlog), &mut SchedCtx::new());
/// assert!(s.iter().all(|id| backlog.contains(&id)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope<'a> {
    /// Strictly ascending live ids; `None` is every link.
    candidates: Option<&'a [LinkId]>,
    /// Per-link weights indexed by live id; `None` uses the rates.
    weights: Option<&'a [f64]>,
}

impl<'a> Scope<'a> {
    /// Every link of the problem, weighted by its own rate: the static
    /// one-shot problem.
    pub fn all() -> Self {
        Self::default()
    }

    /// Only the links in `ids`, weighted by their own rates.
    ///
    /// # Panics
    /// Panics unless `ids` is strictly ascending.
    pub fn candidates(ids: &'a [LinkId]) -> Self {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "scope candidates must be strictly ascending"
        );
        Self {
            candidates: Some(ids),
            weights: None,
        }
    }

    /// The same candidates weighted by `weights[id]` instead of the
    /// rates. The slice is indexed by live id; only the candidates'
    /// entries are read, and each must be positive and finite.
    pub fn weighted(self, weights: &'a [f64]) -> Self {
        Self {
            weights: Some(weights),
            ..self
        }
    }

    /// The candidate list, or `None` when every link is a candidate.
    #[inline]
    pub fn list(&self) -> Option<&'a [LinkId]> {
        self.candidates
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self, problem: &Problem) -> usize {
        self.candidates.map_or(problem.len(), <[LinkId]>::len)
    }

    /// The `p`-th candidate in ascending order.
    #[inline]
    pub fn id_at(&self, p: usize) -> LinkId {
        self.candidates.map_or(LinkId(p as u32), |c| c[p])
    }

    /// The candidates in ascending id order.
    pub fn ids(&self, problem: &Problem) -> impl ExactSizeIterator<Item = LinkId> + Clone + 'a {
        let scope = *self;
        (0..scope.len(problem)).map(move |p| scope.id_at(p))
    }

    /// The weight of candidate `id`: its scope weight, else its rate.
    #[inline]
    pub fn weight(&self, problem: &Problem, id: LinkId) -> f64 {
        self.weights
            .map_or_else(|| problem.rate(id), |w| w[id.index()])
    }

    /// The stamp for [`crate::SchedCtx`] memo fast paths: the
    /// problem's, for the whole unweighted problem only. Two scopes of
    /// one problem share its stamp, and weights are not problem
    /// content, so any other scope gets `0` and compares its witness.
    pub(crate) fn stamp(&self, problem: &Problem) -> u64 {
        if self.candidates.is_none() && self.weights.is_none() {
            problem.stamp()
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_net::{TopologyGenerator, UniformGenerator};

    #[test]
    fn all_covers_every_link_at_its_rate() {
        let p = Problem::paper(UniformGenerator::paper(5).generate(1), 3.0);
        let s = Scope::all();
        assert_eq!(s.len(&p), 5);
        assert_eq!(
            s.ids(&p).collect::<Vec<_>>(),
            p.links().ids().collect::<Vec<_>>()
        );
        assert_eq!(s.weight(&p, LinkId(3)), p.rate(LinkId(3)));
        assert_eq!(s.stamp(&p), p.stamp());
    }

    #[test]
    fn weighted_candidates_read_their_weights() {
        let p = Problem::paper(UniformGenerator::paper(5).generate(1), 3.0);
        let ids = [LinkId(1), LinkId(4)];
        let w = [0.0, 2.5, 0.0, 0.0, 7.0];
        let s = Scope::candidates(&ids).weighted(&w);
        assert_eq!(s.len(&p), 2);
        assert_eq!(s.id_at(1), LinkId(4));
        assert_eq!(s.weight(&p, LinkId(4)), 7.0);
        assert_eq!(s.stamp(&p), 0);
        assert_eq!(Scope::candidates(&ids).stamp(&p), 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_candidates() {
        Scope::candidates(&[LinkId(2), LinkId(1)]);
    }
}
