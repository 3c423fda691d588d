//! Shared machinery for shortest-first elimination schedulers
//! (RLE, ApproxDiversity).
//!
//! Both follow Algorithm 2's skeleton: repeatedly pick the shortest
//! remaining link, delete every link whose sender falls inside a disk
//! of radius `c₁·d_ii` around the picked receiver, and delete every
//! link whose accumulated interference from the picked senders exceeds
//! `c₂ · budget`. They differ in the interference metric (fading
//! factors vs deterministic relative interference) and the budget
//! (`γ_ε` vs 1).

use crate::ctx::{OrderKind, SchedCtx};
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use fading_obs::{ElimCause, TraceEvent, TraceScope};

/// Which accumulated-interference metric drives deletions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElimMetric {
    /// The paper's interference factor `f_{i,j}` with budget `γ_ε`.
    FadingFactor,
    /// Deterministic relative interference `γ_th (d_jj/d_ij)^α`
    /// (`= e^{f_{i,j}} − 1`) with budget 1.
    DeterministicRelative,
}

impl ElimMetric {
    /// The metric name recorded in [`TraceEvent::ElimStart`].
    pub fn trace_name(self) -> &'static str {
        match self {
            Self::FadingFactor => "fading",
            Self::DeterministicRelative => "deterministic",
        }
    }
}

/// [`eliminate_schedule_in`] with a private one-shot workspace.
pub fn eliminate_schedule(problem: &Problem, c1: f64, c2: f64, metric: ElimMetric) -> Schedule {
    eliminate_schedule_in(problem, Scope::all(), c1, c2, metric, &mut SchedCtx::new())
}

/// Runs the elimination skeleton over the candidates of `scope`. `c1`
/// is the deletion-radius factor, `c2 ∈ (0,1)` the budget fraction
/// reserved for already-picked senders. All scratch (candidate order,
/// alive bitmap, ledgers, spatial index over the candidate senders)
/// lives in `ctx`; a warm ctx makes the whole call allocation-free.
pub fn eliminate_schedule_in(
    problem: &Problem,
    scope: Scope<'_>,
    c1: f64,
    c2: f64,
    metric: ElimMetric,
    ctx: &mut SchedCtx,
) -> Schedule {
    assert!(c1 >= 1.0, "deletion radius factor must be ≥ 1, got {c1}");
    assert!(c2 > 0.0 && c2 < 1.0, "c₂ must be in (0,1), got {c2}");
    // Static names + per-call-site cached counters: the observability
    // constants here must stay off the per-schedule cost profile.
    struct Stats {
        span: &'static str,
        label: &'static str,
        rounds: &'static fading_obs::Counter,
        picks: &'static fading_obs::Counter,
        eliminations: &'static fading_obs::Counter,
        elim_radius: &'static fading_obs::Counter,
        elim_budget: &'static fading_obs::Counter,
    }
    let stats = match metric {
        ElimMetric::FadingFactor => Stats {
            span: "core.rle.schedule",
            label: "RLE",
            rounds: fading_obs::counter!("core.rle.rounds"),
            picks: fading_obs::counter!("core.rle.picks"),
            eliminations: fading_obs::counter!("core.rle.eliminations"),
            elim_radius: fading_obs::counter!("core.rle.elim_radius"),
            elim_budget: fading_obs::counter!("core.rle.elim_budget"),
        },
        ElimMetric::DeterministicRelative => Stats {
            span: "core.approx_diversity.schedule",
            label: "ApproxDiversity",
            rounds: fading_obs::counter!("core.approx_diversity.rounds"),
            picks: fading_obs::counter!("core.approx_diversity.picks"),
            eliminations: fading_obs::counter!("core.approx_diversity.eliminations"),
            elim_radius: fading_obs::counter!("core.approx_diversity.elim_radius"),
            elim_budget: fading_obs::counter!("core.approx_diversity.elim_budget"),
        },
    };
    let _span = fading_obs::Span::enter(stats.span);
    let links = problem.links();
    if scope.len(problem) == 0 {
        return Schedule::empty();
    }
    let budget = match metric {
        ElimMetric::FadingFactor => problem.gamma_eps(),
        ElimMetric::DeterministicRelative => 1.0,
    };
    let threshold = c2 * budget;

    // Links in non-decreasing length order (ties by id for determinism;
    // the tie-break makes the comparator a total order, so the unstable
    // sort's result is unique — which also makes the order safe to
    // memoize across calls on bit-identical length vectors).
    if !ctx.order_is_cached(
        OrderKind::ElimLength,
        scope.stamp(problem),
        scope
            .ids(problem)
            .flat_map(|i| [f64::from(i.0), links.length(i)]),
    ) {
        ctx.order.clear();
        ctx.order.extend(scope.ids(problem));
        ctx.order
            .sort_unstable_by(|&a, &b| links.length(a).total_cmp(&links.length(b)).then(a.cmp(&b)));
    }

    // Spatial index over the candidate senders (point `p` is candidate
    // `scope.id_at(p)`) for the disk deletions; cell size near the
    // typical deletion radius keeps queries local.
    ctx.senders.clear();
    ctx.senders
        .extend(scope.ids(problem).map(|i| links.link(i).sender));
    let min_length = scope
        .ids(problem)
        .map(|i| links.length(i))
        .min_by(f64::total_cmp);
    let typical_radius = c1 * min_length.unwrap_or(1.0);
    ctx.spatial.rebuild(&ctx.senders, typical_radius.max(1e-9));

    // One elimination loop, instantiated twice: `run::<false>` has no
    // trace code compiled into it, `run::<true>` records every decision
    // the same loop makes. (A runtime `if traced` guard instead of the
    // const parameter keeps the trace code reachable from the hot row
    // loop, which regressed the untraced benchmark ~10% at N = 1000.)
    let mut tr = TraceScope::begin();
    let (schedule, elim_radius, elim_budget) = if tr.active() {
        tr.push(TraceEvent::ElimStart {
            scheduler: stats.label.to_string(),
            n: scope.len(problem) as u32,
            metric: metric.trace_name().to_string(),
            budget,
            threshold,
            c1,
            c2,
        });
        run::<true>(problem, scope, ctx, c1, threshold, metric, &mut tr)
    } else {
        run::<false>(problem, scope, ctx, c1, threshold, metric, &mut tr)
    };
    tr.finish();
    // Flushed once per schedule call: the elimination loop itself
    // stays free of shared-state writes.
    stats.rounds.add(schedule.len() as u64);
    stats.picks.add(schedule.len() as u64);
    stats.eliminations.add(elim_radius + elim_budget);
    stats.elim_radius.add(elim_radius);
    stats.elim_budget.add(elim_budget);
    schedule
}

/// Algorithm 2 over the prepared `ctx` (candidate order, spatial
/// index). With `TRACED` it records each pick, elimination, nonzero
/// ledger debit and the final schedule into `tr`; without it, no trace
/// code is compiled in. All scratch comes from `ctx`; warm untraced
/// calls touch no heap.
#[inline(never)]
fn run<const TRACED: bool>(
    problem: &Problem,
    scope: Scope<'_>,
    ctx: &mut SchedCtx,
    c1: f64,
    threshold: f64,
    metric: ElimMetric,
    tr: &mut TraceScope,
) -> (Schedule, u64, u64) {
    let links = problem.links();
    let n = links.len();
    let mut picked = ctx.take_members();
    let SchedCtx {
        order,
        alive,
        acc,
        live,
        spatial,
        ..
    } = ctx;
    // Bitmap and ledger are indexed by live id; only candidates start
    // alive, and a dead receiver's ledger is never read, so only the
    // candidates' entries need zeroing.
    alive.clear();
    alive.resize(n, false);
    acc.resize(n, 0.0);
    live.clear();
    for j in scope.ids(problem) {
        alive[j.index()] = true;
        acc[j.index()] = 0.0;
        live.push(j.0);
    }
    let mut elim_radius = 0u64;
    let mut elim_budget = 0u64;
    // Two-phase dense debit (FadingFactor only): while most links are
    // still alive, the branch-free full-row kernel beats the compacted
    // walk — the row is streamed once, no `live` maintenance, and the
    // loop autovectorizes. Once survivors drop below ~25% the compacted
    // walk wins (it skips the dead majority), so we switch to it
    // permanently (a small scope starts there). Both forms are verdict- and
    // bit-identical for every surviving receiver (see
    // `crate::kernel::debit_dense`), so the schedule cannot depend on
    // where the crossover lands. DeterministicRelative keeps the
    // compacted walk throughout: its `exp_m1` per element makes full
    // rows expensive on dead entries. A traced run also starts there:
    // the kernel records no per-debit events.
    let mut alive_count = live.len();
    let mut compacted = TRACED || metric != ElimMetric::FadingFactor;

    for &i in order.iter() {
        if !alive[i.index()] {
            continue;
        }
        // Line 3: pick the shortest remaining link.
        alive[i.index()] = false;
        alive_count -= 1;
        picked.push(i);
        if TRACED {
            tr.push(TraceEvent::Pick { link: i.0 });
        }
        let receiver = links.link(i).receiver;
        let radius = c1 * links.length(i);
        // Line 4: delete links whose senders are within c₁·d_ii of r_i.
        spatial.for_each_in_radius(&receiver, radius, |p| {
            let j = scope.id_at(p as usize).index();
            if alive[j] {
                alive[j] = false;
                alive_count -= 1;
                elim_radius += 1;
                if TRACED {
                    tr.push(TraceEvent::Eliminate {
                        link: j as u32,
                        cause: ElimCause::Radius,
                        by: Some(i.0),
                    });
                }
            }
        });
        // Line 5: delete links whose accumulated interference from the
        // picked senders exceeds c₂·budget. Dense: walk only the links
        // still alive — `live` is compacted against the bitmap first,
        // which keeps the walk ascending in id, so each survivor takes
        // the same debits in the same order as the full row walk (a
        // link's verdict depends only on its own accumulator). Sparse:
        // only the pick's stored out-neighborhood — links outside it
        // receive strictly less than the certified cut, a slack
        // absorbed by the c₂ margin Theorem 4.3 reserves. e^f − 1
        // recovers the deterministic relative interference from the
        // fading factor.
        let mut debit = |j: usize, f: f64, acc: &mut [f64], alive: &mut [bool]| {
            let f = match metric {
                ElimMetric::FadingFactor => f,
                ElimMetric::DeterministicRelative => f.exp_m1(),
            };
            acc[j] += f;
            if TRACED && f != 0.0 {
                tr.push(TraceEvent::BudgetDebit {
                    receiver: j as u32,
                    from: i.0,
                    factor: f,
                    remaining: threshold - acc[j],
                });
            }
            if acc[j] > threshold {
                alive[j] = false;
                elim_budget += 1;
                if TRACED {
                    tr.push(TraceEvent::Eliminate {
                        link: j as u32,
                        cause: ElimCause::BudgetExceeded,
                        by: Some(i.0),
                    });
                }
            }
        };
        if let Some(row) = problem.dense_row(i) {
            // Crossover: the `retain` below leaves exactly the ascending
            // survivors successive retains would have, so switching
            // needs no rebuild.
            compacted |= alive_count * 4 < n;
            if compacted {
                live.retain(|&j| alive[j as usize]);
                for &j in live.iter() {
                    debit(j as usize, row[j as usize], acc, alive);
                }
            } else {
                let newly = crate::kernel::debit_dense(row, acc, alive, threshold);
                elim_budget += newly;
                alive_count -= newly as usize;
            }
        } else {
            // Sparse: walk the pick's CSR row as two parallel slices
            // (receivers, factors) instead of the dyn-dispatch
            // `for_each_out` visitor — same entries in the same stored
            // order, so every accumulator sees bit-identical debits,
            // but the bounds-checked closure call per entry is gone.
            let sparse = problem
                .factors()
                .as_sparse()
                .expect("backend is neither dense nor sparse");
            let (recv, fact) = sparse.row_slices(i);
            for (&j, &f) in recv.iter().zip(fact.iter()) {
                if alive[j as usize] {
                    debit(j as usize, f, acc, alive);
                }
            }
        }
    }
    let schedule = Schedule::from_vec(picked);
    if TRACED {
        tr.push(TraceEvent::End {
            scheduled: schedule.iter().map(|id| id.0).collect(),
        });
    }
    (schedule, elim_radius, elim_budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_net::{TopologyGenerator, UniformGenerator};

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    #[test]
    fn empty_instance() {
        let links = fading_net::LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let p = Problem::paper(links, 3.0);
        assert!(eliminate_schedule(&p, 10.0, 0.5, ElimMetric::FadingFactor).is_empty());
    }

    #[test]
    fn always_schedules_the_globally_shortest_link() {
        let p = problem(100, 1);
        let shortest = p
            .links()
            .ids()
            .min_by(|&a, &b| p.links().length(a).total_cmp(&p.links().length(b)))
            .unwrap();
        let s = eliminate_schedule(&p, 20.0, 0.5, ElimMetric::FadingFactor);
        assert!(s.contains(shortest));
    }

    #[test]
    fn scheduled_senders_respect_the_deletion_radius() {
        let p = problem(200, 2);
        let c1 = 15.0;
        let s = eliminate_schedule(&p, c1, 0.5, ElimMetric::FadingFactor);
        // No scheduled sender may lie strictly inside the deletion disk
        // of another scheduled link that was picked earlier (shorter).
        let links = p.links();
        for j in s.iter() {
            for i in s.iter() {
                if i == j || links.length(i) > links.length(j) {
                    continue;
                }
                // i was picked no later than j.
                let d = links.link(j).sender.distance(&links.link(i).receiver);
                assert!(
                    d > c1 * links.length(i) - 1e-9,
                    "sender {j} inside deletion disk of {i}"
                );
            }
        }
    }

    #[test]
    fn accumulated_interference_respects_threshold() {
        let p = problem(200, 3);
        let c2 = 0.5;
        let s = eliminate_schedule(&p, 23.0, c2, ElimMetric::FadingFactor);
        // For each scheduled link, the factors from *shorter* scheduled
        // links (those picked before it) must be within c₂·γ_ε.
        let links = p.links();
        for j in s.iter() {
            let sum: f64 = s
                .iter()
                .filter(|&i| i != j && links.length(i) <= links.length(j))
                .map(|i| p.factor(i, j))
                .sum();
            assert!(
                sum <= c2 * p.gamma_eps() + 1e-12,
                "{j}: earlier-pick interference {sum}"
            );
        }
    }

    #[test]
    fn larger_c1_schedules_fewer_links() {
        let p = problem(300, 4);
        let small = eliminate_schedule(&p, 5.0, 0.5, ElimMetric::FadingFactor).len();
        let large = eliminate_schedule(&p, 40.0, 0.5, ElimMetric::FadingFactor).len();
        assert!(
            small >= large,
            "c₁=5 gave {small}, c₁=40 gave {large} — deletion radius should prune"
        );
    }

    #[test]
    fn deterministic_metric_schedules_more_than_fading_metric() {
        // Budget 1 ≫ γ_ε ≈ 0.01: the deterministic variant is far more
        // permissive at equal c₁/c₂.
        let p = problem(300, 5);
        let fading = eliminate_schedule(&p, 6.0, 0.5, ElimMetric::FadingFactor).len();
        let det = eliminate_schedule(&p, 6.0, 0.5, ElimMetric::DeterministicRelative).len();
        assert!(det >= fading);
    }

    #[test]
    #[should_panic(expected = "c₂ must be in (0,1)")]
    fn rejects_bad_c2() {
        let p = problem(5, 6);
        eliminate_schedule(&p, 5.0, 0.0, ElimMetric::FadingFactor);
    }
}
