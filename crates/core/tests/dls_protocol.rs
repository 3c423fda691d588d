//! DLS run as per-node message passing: the oracle for `Dls::outcome`.
//!
//! `fading_core::algo::Dls` runs the protocol's rounds with centralized
//! bookkeeping and counts the messages those rounds send. Here every
//! link is a node that decides from local state only: the contenders it
//! learned from `Hello`, the `Status` messages in its inbox, and the
//! interference its own receiver measures. The round loop plays the
//! radio medium: it delivers each broadcast to its audience and lets
//! receivers measure the factors of newly active senders. Both must
//! reach the same schedule, the same rounds and the same traffic.

use fading_core::algo::{Dls, DlsOutcome};
use fading_core::constants::rle_c1;
use fading_core::feasibility::is_feasible;
use fading_core::{FeasibilityReport, Problem, Schedule, Scheduler};
use fading_geom::{Point2, Rect};
use fading_net::{Link, LinkId, LinkSet, TopologyGenerator, UniformGenerator};
use proptest::prelude::*;
use std::f64::consts::PI;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Undecided,
    Active,
    Retired,
}

/// One link's protocol state.
struct Node {
    /// The node's position in id order; it breaks length ties.
    index: usize,
    link: Link,
    length: f64,
    phase: Phase,
    /// Nodes whose `Hello` showed a contending link.
    contenders: Vec<usize>,
    /// `Status { length, index }` messages heard this round.
    inbox: Vec<(f64, usize)>,
    /// Interference factor measured at the receiver from active senders.
    measured: f64,
}

impl Node {
    /// Decides from a neighbor's `Hello` (its link's endpoints) whether
    /// the two contend: either sender lies within `c₁` times the longer
    /// length of the other's receiver.
    fn contends_with(&self, other: &Link, c1: f64) -> bool {
        let scale = c1 * self.length.max(other.length());
        self.link.sender.distance(&other.receiver) < scale
            || other.sender.distance(&self.link.receiver) < scale
    }

    /// Activates iff every undecided contender it heard from has a
    /// longer link, ties broken by index.
    fn dominates_inbox(&self) -> bool {
        self.inbox
            .iter()
            .all(|&(length, k)| (self.length, self.index) < (length, k))
    }
}

/// Runs the protocol with `c₂ = 1/2` and counts every message sent.
fn run_protocol(problem: &Problem) -> DlsOutcome {
    let links = problem.links();
    let n = links.len();
    let mut out = DlsOutcome::default();
    if n == 0 {
        return out;
    }
    let c2 = 0.5;
    let c1 = rle_c1(problem.params(), problem.gamma_eps(), c2);
    let threshold = c2 * problem.gamma_eps();
    let mut nodes: Vec<Node> = links
        .ids()
        .map(|id| Node {
            index: id.index(),
            link: *links.link(id),
            length: links.length(id),
            phase: Phase::Undecided,
            contenders: Vec::new(),
            inbox: Vec::new(),
            measured: 0.0,
        })
        .collect();

    // Discovery: every node broadcasts one Hello; each hearer keeps the
    // senders it contends with.
    for a in 0..n {
        out.hello += 1;
        let hello = nodes[a].link;
        for (b, node) in nodes.iter_mut().enumerate() {
            if b != a && node.contends_with(&hello, c1) {
                node.contenders.push(a);
            }
        }
    }

    loop {
        out.rounds += 1;
        // Budget retirement: a local measurement, no message.
        for node in &mut nodes {
            if node.phase == Phase::Undecided && node.measured > threshold {
                node.phase = Phase::Retired;
            }
        }
        // Every undecided node sends Status to its contenders.
        for a in 0..n {
            if nodes[a].phase != Phase::Undecided {
                continue;
            }
            out.status += 1;
            let status = (nodes[a].length, a);
            for k in nodes[a].contenders.clone() {
                nodes[k].inbox.push(status);
            }
        }
        // Each undecided node decides from its own inbox.
        let activating: Vec<usize> = nodes
            .iter()
            .filter(|node| node.phase == Phase::Undecided && node.dominates_inbox())
            .map(|node| node.index)
            .collect();
        for node in &mut nodes {
            node.inbox.clear();
        }
        if activating.is_empty() {
            break;
        }
        for &i in &activating {
            nodes[i].phase = Phase::Active;
        }
        // Each new active receiver broadcasts Clear with its deletion
        // radius. Undecided nodes whose sender is inside the disk retire;
        // the others measure the new sender's factor at their receiver.
        for &i in &activating {
            out.clear += 1;
            let (centre, radius) = (nodes[i].link.receiver, c1 * nodes[i].length);
            for node in nodes.iter_mut().filter(|n| n.phase == Phase::Undecided) {
                if node.link.sender.distance(&centre) < radius {
                    node.phase = Phase::Retired;
                } else {
                    node.measured += problem.factor(LinkId(i as u32), node.link.id);
                }
            }
        }
        assert!(out.rounds <= n, "protocol failed to make progress");
    }

    // Verification handshake: while some active receiver measures more
    // than the full budget, the worst one sends Nack and withdraws.
    let mut members: Vec<LinkId> = nodes
        .iter()
        .filter(|node| node.phase == Phase::Active)
        .map(|node| node.link.id)
        .collect();
    loop {
        let schedule = Schedule::from_ids(members.iter().copied());
        let report = FeasibilityReport::evaluate(problem, &schedule);
        if report.is_feasible() {
            out.schedule = schedule;
            return out;
        }
        let worst = report
            .entries()
            .iter()
            .max_by(|a, b| a.interference_sum.total_cmp(&b.interference_sum))
            .expect("an infeasible report has entries")
            .id;
        out.nack += 1;
        members.retain(|&j| j != worst);
    }
}

/// Runs both engines on `p`, asserts they agree and that the traffic
/// obeys the protocol's invariants, and returns the outcome.
fn agree(p: &Problem) -> DlsOutcome {
    let out = run_protocol(p);
    assert_eq!(out, Dls::new().outcome(p), "oracle and Dls::outcome differ");
    assert_eq!(out.schedule, Dls::new().schedule(p));
    assert!(is_feasible(p, &out.schedule));
    let n = p.len();
    assert_eq!(out.hello, n, "one Hello per node");
    assert_eq!(
        out.clear,
        out.schedule.len() + out.nack,
        "one Clear per activation"
    );
    assert!(out.status <= n * out.rounds);
    assert!(out.status >= out.schedule.len());
    out
}

fn paper(n: usize, seed: u64) -> Problem {
    Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
}

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
fn protocol_matches_centralized_dls_on_paper_instances() {
    for seed in 0..5 {
        assert!(!agree(&paper(200, seed)).schedule.is_empty());
    }
    assert!(!agree(&paper(250, 9)).schedule.is_empty());
}

#[test]
fn converges_in_few_rounds() {
    let rounds = agree(&paper(300, 4)).rounds;
    assert!(rounds <= 30, "took {rounds} rounds for 300 links");
}

#[test]
fn empty_instance() {
    let p = Problem::paper(LinkSet::new(Rect::square(1.0), vec![]), 3.0);
    let out = agree(&p);
    assert!(out.schedule.is_empty());
    assert_eq!(
        (out.rounds, out.hello, out.status, out.clear, out.nack),
        (0, 0, 0, 0, 0)
    );
}

#[test]
fn the_long_link_in_a_ring_nacks_out() {
    let out = agree(&nack_ring());
    assert_eq!((out.rounds, out.clear, out.nack), (2, 151, 1));
    assert!(!out.schedule.contains(LinkId(0)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn protocol_equals_centralized_on_random_instances(
        n in 2usize..60,
        seed in 0u64..2000,
        alpha in 2.2f64..5.0,
    ) {
        let p = Problem::paper(UniformGenerator::paper(n).generate(seed), alpha);
        agree(&p);
    }
}
