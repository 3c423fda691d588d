//! DLS — a decentralized link scheduler (reconstruction).
//!
//! The paper's evaluation and conclusion refer to a decentralized
//! algorithm "DLS", but its description is missing from the paper body
//! (see DESIGN.md §5). This module reconstructs a plausible
//! decentralized variant of the RLE rule with the same feasibility
//! machinery:
//!
//! * Each link knows only (i) the links whose senders fall within its
//!   *contention radius* `c₁·max(d_ii, d_jj)` (neighbor discovery) and
//!   (ii) the aggregate interference factor its own receiver has
//!   accumulated from already-active senders — a physically measurable
//!   local quantity.
//! * In each synchronous round, every undecided link retires itself if
//!   its measured interference exceeds `c₂ γ_ε`; otherwise it activates
//!   iff it is the *locally dominant* link (shortest, ties by id) among
//!   the undecided links it contends with.
//! * An activated link's receiver broadcasts a short "clear" message:
//!   undecided links whose senders are within `c₁·d_ii` of the new
//!   active receiver retire (RLE line 4, executed locally).
//!
//! Because every round activates the globally shortest undecided link,
//! the protocol terminates in at most `N` rounds; in practice it takes
//! `O(log N)`-ish rounds since non-contending links activate in
//! parallel. The two RLE invariants (deletion-disk separation and the
//! accumulated-budget rule) carry over, but simultaneous activations of
//! heterogeneous-length links lack RLE's worst-case packing bound, so
//! the protocol ends with a verification handshake: receivers that
//! still exceed the budget NACK and drop out. Random and paper
//! workloads never reach it (a hand-placed ring in the tests does), but
//! it makes feasibility unconditional.
//!
//! [`Dls::outcome`] also counts the messages the rounds send (`Hello`,
//! `Status`, `Clear`, `Nack`); `crates/core/tests/dls_protocol.rs`
//! checks them against the protocol run as per-node message passing.

use crate::constants::rle_c1;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;
use fading_net::LinkId;

/// The decentralized scheduler (reconstruction — not verbatim from the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dls {
    /// Budget split, as in RLE.
    pub c2: f64,
}

/// What one protocol run produced: the schedule, and its cost as
/// message passing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DlsOutcome {
    /// The agreed schedule.
    pub schedule: Schedule,
    /// Synchronous rounds until no link activates (discovery excluded).
    pub rounds: usize,
    /// `Hello` messages: one per candidate.
    pub hello: usize,
    /// `Status` messages: the links still undecided after each round's
    /// budget retirement, summed over rounds.
    pub status: usize,
    /// `Clear` messages: one per activation.
    pub clear: usize,
    /// `Nack` messages: withdrawals in the verification handshake.
    pub nack: usize,
}

/// Per-link protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Undecided,
    Active,
    Retired,
}

impl Dls {
    /// DLS with the symmetric split `c₂ = 1/2`.
    pub fn new() -> Self {
        Self { c2: 0.5 }
    }

    /// The protocol's schedule, rounds and message counts on every link
    /// of `problem`.
    pub fn outcome(&self, problem: &Problem) -> DlsOutcome {
        self.run(problem, Scope::all())
    }

    /// The protocol among the candidates of `scope`; state and geometry
    /// are indexed by candidate position (ascending id).
    fn run(&self, problem: &Problem, scope: Scope<'_>) -> DlsOutcome {
        let links = problem.links();
        let ids: Vec<LinkId> = scope.ids(problem).collect();
        let tx: Vec<_> = ids.iter().map(|&i| links.link(i).sender).collect();
        let rx: Vec<_> = ids.iter().map(|&i| links.link(i).receiver).collect();
        let len: Vec<f64> = ids.iter().map(|&i| links.length(i)).collect();
        let n = ids.len();
        let mut out = DlsOutcome {
            hello: n,
            ..DlsOutcome::default()
        };
        if n == 0 {
            return out;
        }
        let c1 = rle_c1(problem.params(), problem.gamma_eps(), self.c2);
        let threshold = self.c2 * problem.gamma_eps();

        // Neighbor discovery: j contends with k when either sender is
        // inside the other's deletion disk scaled by the larger link.
        // Symmetric by construction.
        let contends = |a: usize, b: usize| -> bool {
            let scale = c1 * len[a].max(len[b]);
            tx[a].distance(&rx[b]) < scale || tx[b].distance(&rx[a]) < scale
        };
        // Local dominance order: shorter link wins, ties by id.
        let dominates = |a: usize, b: usize| -> bool { (len[a], a) < (len[b], b) };

        let mut state = vec![State::Undecided; n];
        let mut acc = vec![0.0f64; n]; // measured interference factor
        loop {
            out.rounds += 1;
            // Phase 1: budget-based retirement (local measurement); each
            // link still undecided broadcasts a Status.
            for j in 0..n {
                if state[j] == State::Undecided {
                    if acc[j] > threshold {
                        state[j] = State::Retired;
                    } else {
                        out.status += 1;
                    }
                }
            }
            // Phase 2: locally dominant undecided links activate.
            let activating: Vec<usize> = (0..n)
                .filter(|&j| state[j] == State::Undecided)
                .filter(|&j| {
                    (0..n)
                        .filter(|&k| k != j && state[k] == State::Undecided)
                        .all(|k| !contends(j, k) || dominates(j, k))
                })
                .collect();
            if activating.is_empty() {
                break;
            }
            out.clear += activating.len();
            for &i in &activating {
                state[i] = State::Active;
            }
            // Phase 3: "clear" broadcasts — retire senders inside the
            // deletion disk of each newly active receiver, and update
            // every undecided receiver's measured interference.
            for &i in &activating {
                let (r_i, radius) = (rx[i], c1 * len[i]);
                for j in 0..n {
                    if state[j] != State::Undecided {
                        continue;
                    }
                    if tx[j].distance(&r_i) < radius {
                        state[j] = State::Retired;
                    } else {
                        // A receiver *measures* the clear broadcast, so
                        // the scalar factor is the right model — exact
                        // under every interference backend.
                        acc[j] += problem.factor(ids[i], ids[j]);
                    }
                }
            }
            if out.rounds > n {
                unreachable!("DLS failed to terminate within N rounds");
            }
        }
        let mut members: Vec<LinkId> = (0..n)
            .filter(|&j| state[j] == State::Active)
            .map(|j| ids[j])
            .collect();
        // Safety valve: unlike RLE, simultaneous activations of links
        // with heterogeneous lengths lack a worst-case packing bound, so
        // the protocol ends with an explicit verification pass — any
        // violating link (none observed on the paper workloads) is
        // dropped, worst offender first. This models a final
        // handshake round in which over-interfered receivers NACK.
        loop {
            let schedule = Schedule::from_ids(members.iter().copied());
            let report = crate::feasibility::FeasibilityReport::evaluate(problem, &schedule);
            if report.is_feasible() {
                out.schedule = schedule;
                return out;
            }
            let worst = report
                .entries()
                .iter()
                .max_by(|a, b| a.interference_sum.total_cmp(&b.interference_sum))
                .expect("infeasible report cannot be empty")
                .id;
            members.retain(|&j| j != worst);
            out.nack += 1;
        }
    }
}

impl Default for Dls {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Dls {
    fn name(&self) -> &'static str {
        "DLS"
    }

    fn schedule_in(
        &self,
        problem: &Problem,
        scope: Scope<'_>,
        ctx: &mut crate::ctx::SchedCtx,
    ) -> Schedule {
        let _span = fading_obs::Span::enter("core.dls.schedule");
        let s = self.run(problem, scope).schedule;
        super::emit_algo_trace("DLS", scope.len(problem), true, &s, ctx);
        fading_obs::counter!("core.dls.picks").add(s.len() as u64);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::is_feasible;
    use fading_geom::{Point2, Rect};
    use fading_net::{Link, LinkSet, TopologyGenerator, UniformGenerator};
    use std::f64::consts::PI;

    /// One link of length 100 and 150 unit links on a ring of radius
    /// `1.05·c₁·100` around its receiver, pointing outward. No pair
    /// contends, so all 151 activate in the first round, and then the
    /// ring's summed interference exceeds the long link's budget.
    fn nack_ring() -> Problem {
        let region = Rect::square(10_000.0);
        let rx = Point2::new(5_000.0, 5_000.0);
        let long = Link::new(LinkId(0), rx.offset_polar(100.0, PI), rx, 1.0);
        let probe = Problem::paper(LinkSet::new(region, vec![long]), 3.0);
        let radius = 1.05 * rle_c1(probe.params(), probe.gamma_eps(), 0.5) * 100.0;
        let mut links = vec![long];
        for k in 0..150u32 {
            let theta = 2.0 * PI * f64::from(k) / 150.0;
            let tx = rx.offset_polar(radius, theta);
            links.push(Link::new(
                LinkId(k + 1),
                tx,
                tx.offset_polar(1.0, theta),
                1.0,
            ));
        }
        Problem::paper(LinkSet::new(region, links), 3.0)
    }

    #[test]
    fn dls_schedules_are_feasible() {
        for &alpha in &[2.5, 3.0, 4.0] {
            for seed in 0..3 {
                let links = UniformGenerator::paper(200).generate(seed);
                let p = Problem::paper(links, alpha);
                let s = Dls::new().schedule(&p);
                assert!(!s.is_empty());
                assert!(is_feasible(&p, &s), "α={alpha} seed={seed}");
            }
        }
    }

    #[test]
    fn dls_contains_the_globally_shortest_link() {
        let links = UniformGenerator::paper(150).generate(4);
        let p = Problem::paper(links, 3.0);
        let shortest = p
            .links()
            .ids()
            .min_by(|&a, &b| p.links().length(a).total_cmp(&p.links().length(b)))
            .unwrap();
        assert!(Dls::new().schedule(&p).contains(shortest));
    }

    #[test]
    fn dls_converges_in_few_rounds() {
        let links = UniformGenerator::paper(300).generate(5);
        let p = Problem::paper(links, 3.0);
        let rounds = Dls::new().outcome(&p).rounds;
        assert!(
            rounds <= 30,
            "expected parallel activation to finish quickly, took {rounds} rounds"
        );
    }

    #[test]
    fn dls_utility_is_comparable_to_rle() {
        // The reconstruction mirrors RLE's rule, so total throughput
        // should land in the same ballpark.
        let mut dls_total = 0.0;
        let mut rle_total = 0.0;
        for seed in 0..5 {
            let links = UniformGenerator::paper(300).generate(seed);
            let p = Problem::paper(links, 3.0);
            dls_total += Dls::new().schedule(&p).utility(&p);
            rle_total += crate::algo::Rle::new().schedule(&p).utility(&p);
        }
        assert!(
            dls_total >= rle_total * 0.5,
            "DLS {dls_total} vs RLE {rle_total}"
        );
    }

    #[test]
    fn empty_instance() {
        let links = fading_net::LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let p = Problem::paper(links, 3.0);
        assert!(Dls::new().schedule(&p).is_empty());
        assert_eq!(Dls::new().outcome(&p).rounds, 0);
    }

    #[test]
    fn the_long_link_in_a_ring_nacks_out() {
        let p = nack_ring();
        let out = Dls::new().outcome(&p);
        assert_eq!((out.rounds, out.clear, out.nack), (2, 151, 1));
        assert_eq!(out.status, 151);
        assert!(!out.schedule.contains(LinkId(0)));
        assert_eq!(out.schedule.len(), 150);
        assert!(is_feasible(&p, &out.schedule));
    }
}
