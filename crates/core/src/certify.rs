//! Replayable schedule certificates.
//!
//! A decision trace ([`fading_obs::trace`]) is more than a log: it is a
//! *certificate* of the schedule it produced. This module replays a
//! trace against the original [`Problem`], reconstructing the schedule
//! purely from the recorded decision sequence while checking every
//! invariant the emitting algorithm claims:
//!
//! * **Elimination traces** (RLE, ApproxDiversity) — picks must follow
//!   the shortest-first order among surviving links; every `Radius`
//!   elimination must actually lie inside the picked receiver's
//!   `c₁·d_ii` disk; every `BudgetDebit` must equal the recomputed
//!   interference factor `f_{i,j}` (Eq. (17)) and leave the recorded
//!   remaining budget; every `BudgetExceeded` elimination must have a
//!   ledger above `c₂·budget` at that moment.
//! * **Grid traces** (LDP, ApproxLogN) — per-square winners of the
//!   recorded (class, color) are recomputed from geometry, and each
//!   link's recorded fate (picked / out of class / lost its square /
//!   wrong color) must match.
//! * **Generic traces** (greedy, B&B, annealing, …) — membership
//!   consistency between the picks and the final `End` record.
//!
//! When the trace header claims the schedule is *certified*
//! (`γ_ε`-feasible by construction), the replay additionally audits the
//! full interference ledger: every scheduled link's accumulated factor
//! sum from all other scheduled links must stay within `γ_ε`
//! (Corollary 3.1), via [`is_feasible`].
//!
//! Replay is exact, not approximate: factors are recomputed through the
//! same channel code path the schedulers used and compared bitwise
//! (JSONL encodes `f64` round-trip exactly), so a single flipped cause,
//! inflated debit, or substituted link id is rejected.

use crate::feasibility::is_feasible;
use crate::problem::Problem;
use crate::schedule::Schedule;
use fading_net::LinkId;
use fading_obs::{ElimCause, Trace, TraceEvent};

/// The verdict of replaying one trace block: the reconstructed
/// schedule plus what was checked along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Scheduler name from the block header.
    pub scheduler: String,
    /// The schedule reconstructed from the decision sequence.
    pub schedule: Schedule,
    /// Whether the full γ_ε ledger was audited (only claimed-certified
    /// blocks are held to Corollary 3.1).
    pub ledger_checked: bool,
    /// Number of `Pick` records replayed.
    pub picks: usize,
    /// Number of `Eliminate` records replayed.
    pub eliminations: usize,
    /// Number of `BudgetDebit` records replayed.
    pub debits: usize,
}

/// Replays every scheduler block of `trace` against `problem`.
///
/// Fails on incomplete (ring-truncated) traces and on multi-slot
/// traces: slot blocks schedule *residual* renumbered instances the
/// caller does not have, so only single-shot traces are verifiable
/// against the parent problem.
pub fn replay_trace(problem: &Problem, trace: &Trace) -> Result<Vec<Certificate>, String> {
    if !trace.is_complete() {
        return Err(format!(
            "trace is incomplete: {} events were dropped by the ring buffer",
            trace.dropped
        ));
    }
    if trace
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::SlotStart { .. } | TraceEvent::SlotEnd { .. }))
    {
        return Err(
            "trace contains multi-slot blocks whose residual instances are not available; \
             replay supports single-shot traces only"
                .to_string(),
        );
    }
    let mut certs = Vec::new();
    for block in trace.blocks() {
        certs.push(replay_block(problem, block)?);
    }
    if certs.is_empty() {
        return Err("trace contains no scheduler blocks".to_string());
    }
    Ok(certs)
}

/// Replays a trace and asserts the final block reproduces `expected`
/// exactly. This is the full certificate check: decision sequence ⇒
/// schedule ⇒ equality with what the run emitted.
pub fn verify_schedule(
    problem: &Problem,
    trace: &Trace,
    expected: &Schedule,
) -> Result<Certificate, String> {
    let certs = replay_trace(problem, trace)?;
    let cert = certs.into_iter().next_back().expect("non-empty certs");
    if &cert.schedule != expected {
        return Err(format!(
            "replayed schedule ({} links) does not match the emitted schedule ({} links)",
            cert.schedule.len(),
            expected.len()
        ));
    }
    Ok(cert)
}

/// Replays one contiguous block (header through `End`).
pub fn replay_block(problem: &Problem, events: &[TraceEvent]) -> Result<Certificate, String> {
    match events.first() {
        Some(TraceEvent::ElimStart { .. }) => replay_elim(problem, events),
        Some(TraceEvent::GridStart { .. }) => replay_grid(problem, events),
        Some(TraceEvent::AlgoStart { .. }) => replay_algo(problem, events),
        Some(other) => Err(format!("block does not start with a header: {other:?}")),
        None => Err("empty trace block".to_string()),
    }
}

/// Audits the full γ_ε ledger of a claimed-certified schedule.
fn audit_ledger(problem: &Problem, schedule: &Schedule, scheduler: &str) -> Result<(), String> {
    if is_feasible(problem, schedule) {
        Ok(())
    } else {
        Err(format!(
            "{scheduler}: certified schedule violates the γ_ε budget (Corollary 3.1)"
        ))
    }
}

fn replay_elim(problem: &Problem, events: &[TraceEvent]) -> Result<Certificate, String> {
    let TraceEvent::ElimStart {
        scheduler,
        n,
        metric,
        budget,
        threshold,
        c1,
        c2,
    } = &events[0]
    else {
        unreachable!("caller dispatched on ElimStart");
    };
    let n = *n as usize;
    if n != problem.len() {
        return Err(format!(
            "{scheduler}: trace is for {n} links, problem has {}",
            problem.len()
        ));
    }
    let fading = match metric.as_str() {
        "fading" => true,
        "deterministic" => false,
        other => return Err(format!("{scheduler}: unknown metric {other:?}")),
    };
    let expected_budget = if fading { problem.gamma_eps() } else { 1.0 };
    if *budget != expected_budget {
        return Err(format!(
            "{scheduler}: recorded budget {budget} ≠ recomputed {expected_budget}"
        ));
    }
    if *threshold != c2 * budget {
        return Err(format!(
            "{scheduler}: recorded threshold {threshold} ≠ c₂·budget {}",
            c2 * budget
        ));
    }
    let links = problem.links();
    let contribution = |f: f64| if fading { f } else { f.exp_m1() };

    // The emitting algorithm's pick order: shortest first, ties by id.
    let mut order: Vec<LinkId> = links.ids().collect();
    order.sort_by(|&a, &b| links.length(a).total_cmp(&links.length(b)).then(a.cmp(&b)));
    let mut next = 0usize; // first not-yet-skipped position in `order`

    let mut alive = vec![true; n];
    let mut acc = vec![0.0f64; n];
    let mut picks: Vec<LinkId> = Vec::new();
    let mut last_pick: Option<LinkId> = None;
    let mut eliminations = 0usize;
    let mut debits = 0usize;
    let mut scheduled: Option<&[u32]> = None;

    for event in &events[1..] {
        if scheduled.is_some() {
            return Err(format!("{scheduler}: events after End: {event:?}"));
        }
        match event {
            TraceEvent::Pick { link } => {
                let id = check_link(*link, n, scheduler)?;
                if !alive[id.index()] {
                    return Err(format!("{scheduler}: picked dead link {link}"));
                }
                // Shortest-first: no shorter link may still be alive.
                while next < order.len() && !alive[order[next].index()] {
                    next += 1;
                }
                if next >= order.len() || order[next] != id {
                    return Err(format!(
                        "{scheduler}: pick {link} violates shortest-first order \
                         (expected link {})",
                        order.get(next).map_or(u32::MAX, |l| l.0)
                    ));
                }
                alive[id.index()] = false;
                last_pick = Some(id);
                picks.push(id);
            }
            TraceEvent::Eliminate { link, cause, by } => {
                let id = check_link(*link, n, scheduler)?;
                if !alive[id.index()] {
                    return Err(format!("{scheduler}: eliminated dead link {link}"));
                }
                let Some(pick) = last_pick else {
                    return Err(format!("{scheduler}: elimination before any pick"));
                };
                if *by != Some(pick.0) {
                    return Err(format!(
                        "{scheduler}: elimination of {link} attributed to {by:?}, \
                         but the active pick is {}",
                        pick.0
                    ));
                }
                match cause {
                    ElimCause::Radius => {
                        let radius = c1 * links.length(pick);
                        let d_sq = links
                            .link(id)
                            .sender
                            .distance_sq(&links.link(pick).receiver);
                        if d_sq > radius * radius {
                            return Err(format!(
                                "{scheduler}: link {link} eliminated by radius but its \
                                 sender is outside the c₁·d_ii disk of pick {} \
                                 ({} > {radius})",
                                pick.0,
                                d_sq.sqrt()
                            ));
                        }
                    }
                    ElimCause::BudgetExceeded => {
                        if acc[id.index()] <= *threshold {
                            return Err(format!(
                                "{scheduler}: link {link} eliminated for budget but its \
                                 ledger {} is within the threshold {threshold}",
                                acc[id.index()]
                            ));
                        }
                    }
                    other => {
                        return Err(format!(
                            "{scheduler}: cause {other:?} is impossible in an \
                             elimination trace"
                        ));
                    }
                }
                alive[id.index()] = false;
                eliminations += 1;
            }
            TraceEvent::BudgetDebit {
                receiver,
                from,
                factor,
                remaining,
            } => {
                let id = check_link(*receiver, n, scheduler)?;
                let Some(pick) = last_pick else {
                    return Err(format!("{scheduler}: debit before any pick"));
                };
                if *from != pick.0 {
                    return Err(format!(
                        "{scheduler}: debit on {receiver} from {from}, but the active \
                         pick is {}",
                        pick.0
                    ));
                }
                if !alive[id.index()] {
                    return Err(format!("{scheduler}: debit on dead link {receiver}"));
                }
                let expected = contribution(problem.factor(pick, id));
                if *factor != expected {
                    return Err(format!(
                        "{scheduler}: debit on {receiver} records factor {factor}, \
                         recomputation gives {expected}"
                    ));
                }
                acc[id.index()] += factor;
                if *remaining != threshold - acc[id.index()] {
                    return Err(format!(
                        "{scheduler}: debit on {receiver} records remaining {remaining}, \
                         ledger says {}",
                        threshold - acc[id.index()]
                    ));
                }
                debits += 1;
            }
            TraceEvent::End { scheduled: s } => scheduled = Some(s),
            other => return Err(format!("{scheduler}: unexpected event {other:?}")),
        }
    }
    let schedule = finish_block(scheduler, n, &alive, picks, scheduled, true)?;
    if fading {
        audit_ledger(problem, &schedule, scheduler)?;
    }
    Ok(Certificate {
        scheduler: scheduler.clone(),
        schedule,
        ledger_checked: fading,
        picks: 0, // overwritten below
        eliminations,
        debits,
    }
    .with_picks())
}

fn replay_grid(problem: &Problem, events: &[TraceEvent]) -> Result<Certificate, String> {
    use fading_geom::GridPartition;
    use fading_net::diversity::magnitude;
    let TraceEvent::GridStart {
        scheduler,
        n,
        scale,
        nested,
        certified,
    } = &events[0]
    else {
        unreachable!("caller dispatched on GridStart");
    };
    let n = *n as usize;
    if n != problem.len() {
        return Err(format!(
            "{scheduler}: trace is for {n} links, problem has {}",
            problem.len()
        ));
    }
    let Some(TraceEvent::ClassColorChosen {
        class,
        color,
        utility,
    }) = events.get(1)
    else {
        return Err(format!(
            "{scheduler}: grid block must record the chosen (class, color) first"
        ));
    };
    let links = problem.links();
    let delta = links
        .min_length()
        .ok_or_else(|| format!("{scheduler}: grid trace on an empty instance"))?;

    // Recompute the per-square winners of the recorded class.
    let cell = 2f64.powi(*class as i32 + 1) * scale * delta;
    let grid = GridPartition::new(links.region(), cell);
    let in_class = |length: f64| {
        let m = magnitude(length, delta);
        if *nested {
            m <= *class
        } else {
            m == *class
        }
    };
    let mut per_cell: std::collections::HashMap<fading_geom::CellIndex, LinkId> =
        std::collections::HashMap::new();
    for link in links.links() {
        if !in_class(link.length()) {
            continue;
        }
        let cell_idx = grid.cell_of(&link.receiver);
        per_cell
            .entry(cell_idx)
            .and_modify(|cur| {
                let cur_link = links.link(*cur);
                let better = (link.rate, -link.length(), std::cmp::Reverse(link.id))
                    > (
                        cur_link.rate,
                        -cur_link.length(),
                        std::cmp::Reverse(cur_link.id),
                    );
                if better {
                    *cur = link.id;
                }
            })
            .or_insert(link.id);
    }

    // The per-link records follow in id order; each must match the
    // link's recomputed fate.
    let mut picks: Vec<LinkId> = Vec::new();
    let mut eliminations = 0usize;
    let body = &events[2..];
    if body.len() != n + 1 {
        return Err(format!(
            "{scheduler}: grid block has {} per-link records for {n} links",
            body.len().saturating_sub(1)
        ));
    }
    for (link, event) in links.links().iter().zip(body) {
        let expected: TraceEvent = if !in_class(link.length()) {
            TraceEvent::Eliminate {
                link: link.id.0,
                cause: ElimCause::ClassFiltered,
                by: None,
            }
        } else {
            let cell_idx = grid.cell_of(&link.receiver);
            let winner = per_cell[&cell_idx];
            if winner != link.id {
                TraceEvent::Eliminate {
                    link: link.id.0,
                    cause: ElimCause::ColorConflict,
                    by: Some(winner.0),
                }
            } else if grid.color_of(cell_idx).0 as u32 != *color {
                TraceEvent::Eliminate {
                    link: link.id.0,
                    cause: ElimCause::ColorConflict,
                    by: None,
                }
            } else {
                TraceEvent::Pick { link: link.id.0 }
            }
        };
        if *event != expected {
            return Err(format!(
                "{scheduler}: link {} recorded as {event:?}, recomputation says \
                 {expected:?}",
                link.id.0
            ));
        }
        match event {
            TraceEvent::Pick { .. } => picks.push(link.id),
            _ => eliminations += 1,
        }
    }
    // Utility of the winning (class, color): recomputed in id order,
    // which may differ from the emitter's summation order, so compare
    // with a relative tolerance instead of bitwise.
    let recomputed: f64 = picks.iter().map(|&id| problem.rate(id)).sum();
    if (recomputed - utility).abs() > 1e-9 * recomputed.abs().max(1.0) {
        return Err(format!(
            "{scheduler}: recorded utility {utility} ≠ recomputed {recomputed}"
        ));
    }
    let scheduled = match body.last() {
        Some(TraceEvent::End { scheduled }) => Some(scheduled.as_slice()),
        _ => None,
    };
    let schedule = finish_block(scheduler, n, &[], picks, scheduled, false)?;
    if *certified {
        audit_ledger(problem, &schedule, scheduler)?;
    }
    Ok(Certificate {
        scheduler: scheduler.clone(),
        schedule,
        ledger_checked: *certified,
        picks: 0,
        eliminations,
        debits: 0,
    }
    .with_picks())
}

fn replay_algo(problem: &Problem, events: &[TraceEvent]) -> Result<Certificate, String> {
    let TraceEvent::AlgoStart {
        scheduler,
        n,
        certified,
    } = &events[0]
    else {
        unreachable!("caller dispatched on AlgoStart");
    };
    let n = *n as usize;
    if n != problem.len() {
        return Err(format!(
            "{scheduler}: trace is for {n} links, problem has {}",
            problem.len()
        ));
    }
    let mut picks: Vec<LinkId> = Vec::new();
    let mut seen = vec![false; n];
    let mut scheduled: Option<&[u32]> = None;
    for event in &events[1..] {
        if scheduled.is_some() {
            return Err(format!("{scheduler}: events after End: {event:?}"));
        }
        match event {
            TraceEvent::Pick { link } => {
                let id = check_link(*link, n, scheduler)?;
                if seen[id.index()] {
                    return Err(format!("{scheduler}: link {link} picked twice"));
                }
                seen[id.index()] = true;
                picks.push(id);
            }
            TraceEvent::Eliminate { link, .. } => {
                let id = check_link(*link, n, scheduler)?;
                if seen[id.index()] {
                    return Err(format!(
                        "{scheduler}: link {link} both picked and eliminated"
                    ));
                }
                seen[id.index()] = true;
            }
            TraceEvent::End { scheduled: s } => scheduled = Some(s),
            other => return Err(format!("{scheduler}: unexpected event {other:?}")),
        }
    }
    let schedule = finish_block(scheduler, n, &[], picks, scheduled, false)?;
    if *certified {
        audit_ledger(problem, &schedule, scheduler)?;
    }
    Ok(Certificate {
        scheduler: scheduler.clone(),
        schedule,
        ledger_checked: *certified,
        picks: 0,
        eliminations: 0,
        debits: 0,
    }
    .with_picks())
}

impl Certificate {
    fn with_picks(mut self) -> Self {
        self.picks = self.schedule.len();
        self
    }
}

fn check_link(link: u32, n: usize, scheduler: &str) -> Result<LinkId, String> {
    if (link as usize) < n {
        Ok(LinkId(link))
    } else {
        Err(format!("{scheduler}: link id {link} out of range (n={n})"))
    }
}

/// Common block epilogue: the `End` record must exist and its
/// membership must equal the replayed picks; with `require_all_dead`,
/// every link must have been picked or eliminated (`alive` empty skips
/// the check).
fn finish_block(
    scheduler: &str,
    n: usize,
    alive: &[bool],
    picks: Vec<LinkId>,
    scheduled: Option<&[u32]>,
    require_all_dead: bool,
) -> Result<Schedule, String> {
    let Some(scheduled) = scheduled else {
        return Err(format!("{scheduler}: block has no End record"));
    };
    if require_all_dead {
        if let Some(survivor) = alive.iter().position(|&a| a) {
            return Err(format!(
                "{scheduler}: link {survivor} was neither picked nor eliminated"
            ));
        }
    }
    let _ = n;
    let schedule = Schedule::from_ids(picks);
    let recorded: Vec<u32> = schedule.iter().map(|id| id.0).collect();
    if recorded != scheduled {
        return Err(format!(
            "{scheduler}: End records {} links, replay produced {}",
            scheduled.len(),
            recorded.len()
        ));
    }
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{GreedyRate, Ldp, Rle};
    use crate::Scheduler;
    use fading_net::{TopologyGenerator, UniformGenerator};

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    /// Schedules with tracing on for the calling thread only: blocks
    /// that concurrently running tests publish never reach the capture.
    fn traced_run(p: &Problem, s: &dyn Scheduler) -> (Schedule, Trace) {
        let capture = fading_obs::ThreadCapture::begin();
        let schedule = s.schedule(p);
        (schedule, capture.finish())
    }

    #[test]
    fn rle_trace_replays_to_the_same_schedule() {
        let p = problem(150, 1);
        let (schedule, trace) = traced_run(&p, &Rle::new());
        let cert = verify_schedule(&p, &trace, &schedule).unwrap();
        assert_eq!(cert.schedule, schedule);
        assert!(cert.ledger_checked);
        assert!(cert.debits > 0 || cert.eliminations > 0);
    }

    #[test]
    fn ldp_trace_replays_to_the_same_schedule() {
        let p = problem(150, 2);
        let (schedule, trace) = traced_run(&p, &Ldp::new());
        let cert = verify_schedule(&p, &trace, &schedule).unwrap();
        assert_eq!(cert.schedule, schedule);
        assert!(cert.ledger_checked);
    }

    #[test]
    fn greedy_trace_replays_and_audits_ledger() {
        let p = problem(100, 3);
        let (schedule, trace) = traced_run(&p, &GreedyRate);
        let cert = verify_schedule(&p, &trace, &schedule).unwrap();
        assert!(cert.ledger_checked);
        assert_eq!(cert.picks, schedule.len());
    }

    #[test]
    fn flipped_cause_is_rejected() {
        let p = problem(120, 4);
        let (schedule, mut trace) = traced_run(&p, &Rle::new());
        let idx = trace
            .events
            .iter()
            .position(|e| {
                matches!(
                    e,
                    TraceEvent::Eliminate {
                        cause: ElimCause::BudgetExceeded,
                        ..
                    }
                )
            })
            .expect("dense 120-link instance has budget eliminations");
        if let TraceEvent::Eliminate { cause, .. } = &mut trace.events[idx] {
            *cause = ElimCause::Radius;
        }
        assert!(verify_schedule(&p, &trace, &schedule).is_err());
    }

    #[test]
    fn inflated_debit_is_rejected() {
        let p = problem(120, 5);
        let (schedule, mut trace) = traced_run(&p, &Rle::new());
        let idx = trace
            .events
            .iter()
            .position(|e| matches!(e, TraceEvent::BudgetDebit { .. }))
            .expect("trace has debits");
        if let TraceEvent::BudgetDebit { factor, .. } = &mut trace.events[idx] {
            *factor *= 2.0;
        }
        assert!(verify_schedule(&p, &trace, &schedule).is_err());
    }

    #[test]
    fn wrong_problem_is_rejected() {
        let p = problem(100, 6);
        let (schedule, trace) = traced_run(&p, &Rle::new());
        let other = problem(100, 7);
        assert!(verify_schedule(&other, &trace, &schedule).is_err());
    }
}
