//! Shared machinery for grid-partition schedulers (LDP, ApproxLogN).
//!
//! Both algorithms follow the same skeleton (Algorithm 1 of the paper):
//! build link classes by length magnitude, tile the region with squares
//! sized to the class, 4-color the squares, pick the best receiver per
//! square, and return the best (class, color) combination. They differ
//! only in (i) how classes are formed and (ii) the square scale.

use crate::ctx::SchedCtx;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use fading_geom::GridPartition;
use fading_net::diversity::magnitude;
use fading_obs::{ElimCause, TraceEvent, TraceScope};
use serde::{Deserialize, Serialize};

/// How link classes are built from length magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClassMode {
    /// Class `k` contains every link with `d < 2^{h_k+1} δ` (upper bound
    /// only) — the paper's improvement over \[14\]: a shorter link is
    /// always safe wherever a longer one is (Eq. (36)).
    Nested,
    /// Class `k` contains links with `2^{h_k} δ ≤ d < 2^{h_k+1} δ`
    /// (both bounds) — the original \[14\] construction, kept for the
    /// ablation experiment.
    TwoSided,
}

/// Runs the grid-partition skeleton with the given class mode and
/// square scale (`β` for LDP, `μ` for ApproxLogN); the square for the
/// class of magnitude `h` has side `2^{h+1}·scale·δ`.
pub fn grid_schedule(problem: &Problem, mode: ClassMode, scale: f64) -> Schedule {
    let ctx = &mut SchedCtx::new();
    grid_schedule_labeled_in(problem, Scope::all(), mode, scale, "core.grid", true, ctx)
}

/// [`grid_schedule`] with an explicit metric prefix, so callers (LDP,
/// ApproxLogN) report class/color counts under their own name:
/// `<prefix>.classes`, `<prefix>.cells`, `<prefix>.colors`.
/// `certified` states whether the caller's scale guarantees γ_ε
/// feasibility (LDP's β does; ApproxLogN's μ bounds only the
/// deterministic part) — it is recorded in the decision trace and
/// decides whether the replay verifier audits the full ledger.
/// Classes, `δ` and squares are taken over the candidates of `scope`,
/// weighted by its weights. All scratch (class exponents, per-cell
/// winner table, color buckets) lives in `ctx`; a warm ctx makes the
/// untraced call allocation-free.
pub fn grid_schedule_labeled_in(
    problem: &Problem,
    scope: Scope<'_>,
    mode: ClassMode,
    scale: f64,
    stat_prefix: &str,
    certified: bool,
    ctx: &mut SchedCtx,
) -> Schedule {
    assert!(
        scale.is_finite() && scale > 0.0,
        "invalid grid scale {scale}"
    );
    let stats = GridStats::for_prefix(stat_prefix);
    let _span = match &stats {
        Some(s) => fading_obs::Span::enter(s.span),
        None => fading_obs::Span::enter(&format!("{stat_prefix}.schedule")),
    };
    let links = problem.links();
    let candidates = || scope.ids(problem).map(|id| links.link(id));
    let weight = |id| scope.weight(problem, id);
    let Some(delta) = candidates().map(|l| l.length()).min_by(f64::total_cmp) else {
        return Schedule::empty();
    };
    // The whole selection phase below is a pure function of: the class
    // mode, the square scale, the grid anchor (the region's lower-left
    // corner — all `GridPartition::new` reads), and each candidate's
    // (id, length, receiver, weight) in id order. Verified memoization:
    // when that witness is bit-identical to the previous call's, the cached
    // selection in `best_ids`/`grid_best`/`grid_counts` is provably the
    // same and the classes × links scan is skipped. NaNs never compare
    // equal, so they conservatively force a recompute.
    let anchor = links.region().min();
    let mode_key = match mode {
        ClassMode::Nested => 0.0,
        ClassMode::TwoSided => 1.0,
    };
    let witness = candidates().flat_map(|l| {
        let id = f64::from(l.id.0);
        [id, l.length(), l.receiver.x, l.receiver.y, weight(l.id)]
    });
    if !ctx.grid_is_cached(
        scope.stamp(problem),
        [mode_key, scale, anchor.x, anchor.y],
        witness,
    ) {
        // Distinct length magnitudes, ascending (`diversity_exponents`
        // inlined over the ctx buffer).
        ctx.exponents.clear();
        ctx.exponents
            .extend(candidates().map(|l| magnitude(l.length(), delta)));
        ctx.exponents.sort_unstable();
        ctx.exponents.dedup();
        ctx.best_ids.clear();
        let mut best_utility = f64::NEG_INFINITY;
        let mut best_class = 0u32;
        let mut best_color = 0u32;
        let mut classes = 0u64;
        let mut cells = 0u64;
        let mut colors = 0u64;
        for k in 0..ctx.exponents.len() {
            let h = ctx.exponents[k];
            classes += 1;
            let grid = class_winners(problem, scope, mode, scale, delta, h, ctx);
            // Group the per-square winners by square color.
            cells += ctx.winners.len() as u64;
            for bucket in ctx.per_color.iter_mut() {
                bucket.clear();
            }
            for &(cell_idx, id) in &ctx.winners {
                ctx.per_color[grid.color_of(cell_idx).0 as usize].push(id);
            }
            for (color, ids) in ctx.per_color.iter().enumerate() {
                colors += 1;
                let utility: f64 = ids.iter().map(|&id| weight(id)).sum();
                if utility > best_utility {
                    best_utility = utility;
                    best_class = h;
                    best_color = color as u32;
                    ctx.best_ids.clear();
                    ctx.best_ids.extend_from_slice(ids);
                }
            }
        }
        ctx.grid_store(
            (best_class, best_color, best_utility),
            (classes, cells, colors),
        );
    }
    let (best_class, best_color, best_utility) = ctx.grid_best;
    let (classes, cells, colors) = ctx.grid_counts;
    let mut members = ctx.take_members();
    members.extend_from_slice(&ctx.best_ids);
    let best = Schedule::from_vec(members);
    let mut tr = TraceScope::begin();
    if tr.active() {
        // Replay the winning class once to attribute each link's fate:
        // out-of-class, lost its square to a better rate, or sat in a
        // square of the losing color. Only runs when tracing is on, so
        // the untraced path keeps its single pass over the classes.
        tr.push(TraceEvent::GridStart {
            scheduler: grid_label(stat_prefix, mode).to_string(),
            n: scope.len(problem) as u32,
            scale,
            nested: mode == ClassMode::Nested,
            certified,
        });
        tr.push(TraceEvent::ClassColorChosen {
            class: best_class,
            color: best_color,
            utility: best_utility,
        });
        // The memo may have skipped selection, so refill the chosen
        // class's winners.
        let grid = class_winners(problem, scope, mode, scale, delta, best_class, ctx);
        for link in candidates() {
            if !in_class(mode, magnitude(link.length(), delta), best_class) {
                tr.push(TraceEvent::Eliminate {
                    link: link.id.0,
                    cause: ElimCause::ClassFiltered,
                    by: None,
                });
                continue;
            }
            let cell_idx = grid.cell_of(&link.receiver);
            let winner = ctx.winners[ctx.cell_slot[&cell_idx] as usize].1;
            if winner != link.id {
                tr.push(TraceEvent::Eliminate {
                    link: link.id.0,
                    cause: ElimCause::ColorConflict,
                    by: Some(winner.0),
                });
            } else if grid.color_of(cell_idx).0 as u32 != best_color {
                // Won its square, but the square's color lost.
                tr.push(TraceEvent::Eliminate {
                    link: link.id.0,
                    cause: ElimCause::ColorConflict,
                    by: None,
                });
            } else {
                tr.push(TraceEvent::Pick { link: link.id.0 });
            }
        }
        tr.push(TraceEvent::End {
            scheduled: best.iter().map(|id| id.0).collect(),
        });
    }
    tr.finish();
    // One registry flush per schedule call; the per-link loops above
    // touch no shared state.
    let picks = best.len() as u64;
    let eliminations = (scope.len(problem) - best.len()) as u64;
    match &stats {
        Some(s) => {
            s.classes.add(classes);
            s.cells.add(cells);
            s.colors.add(colors);
            s.picks.add(picks);
            s.eliminations.add(eliminations);
        }
        None => {
            fading_obs::counter(&format!("{stat_prefix}.classes")).add(classes);
            fading_obs::counter(&format!("{stat_prefix}.cells")).add(cells);
            fading_obs::counter(&format!("{stat_prefix}.colors")).add(colors);
            fading_obs::counter(&format!("{stat_prefix}.picks")).add(picks);
            fading_obs::counter(&format!("{stat_prefix}.eliminations")).add(eliminations);
        }
    }
    best
}

/// Whether a link of length magnitude `m` belongs to the class of
/// magnitude `h`.
fn in_class(mode: ClassMode, m: u32, h: u32) -> bool {
    match mode {
        ClassMode::Nested => m <= h,
        ClassMode::TwoSided => m == h,
    }
}

/// Tiles the region with the class-`h` squares and fills
/// `ctx.winners` with the best candidate of each occupied square:
/// highest weight, ties broken by shorter length, then id, for
/// determinism. Winners sit in first-encounter order (encounter order
/// is id order), with `ctx.cell_slot` mapping each square to its slot —
/// so clearing keeps capacity and downstream iteration is deterministic
/// rather than following HashMap bucket order. Returns the grid.
fn class_winners(
    problem: &Problem,
    scope: Scope<'_>,
    mode: ClassMode,
    scale: f64,
    delta: f64,
    h: u32,
    ctx: &mut SchedCtx,
) -> GridPartition {
    let links = problem.links();
    let grid = GridPartition::new(links.region(), 2f64.powi(h as i32 + 1) * scale * delta);
    let key = |id| {
        (
            scope.weight(problem, id),
            -links.length(id),
            std::cmp::Reverse(id),
        )
    };
    ctx.cell_slot.clear();
    ctx.winners.clear();
    for id in scope.ids(problem) {
        if !in_class(mode, magnitude(links.length(id), delta), h) {
            continue;
        }
        let cell_idx = grid.cell_of(&links.link(id).receiver);
        let next = ctx.winners.len() as u32;
        let slot = *ctx.cell_slot.entry(cell_idx).or_insert(next);
        if slot == next {
            ctx.winners.push((cell_idx, id));
        } else {
            let cur = &mut ctx.winners[slot as usize].1;
            if key(id) > key(*cur) {
                *cur = id;
            }
        }
    }
    grid
}

/// Per-call-site cached observability handles for the known callers:
/// resolving names through the registry or formatting dotted paths per
/// schedule call would put allocations on the untraced fast path.
struct GridStats {
    span: &'static str,
    classes: &'static fading_obs::Counter,
    cells: &'static fading_obs::Counter,
    colors: &'static fading_obs::Counter,
    picks: &'static fading_obs::Counter,
    eliminations: &'static fading_obs::Counter,
}

impl GridStats {
    fn for_prefix(prefix: &str) -> Option<Self> {
        match prefix {
            "core.ldp" => Some(Self {
                span: "core.ldp.schedule",
                classes: fading_obs::counter!("core.ldp.classes"),
                cells: fading_obs::counter!("core.ldp.cells"),
                colors: fading_obs::counter!("core.ldp.colors"),
                picks: fading_obs::counter!("core.ldp.picks"),
                eliminations: fading_obs::counter!("core.ldp.eliminations"),
            }),
            "core.approx_logn" => Some(Self {
                span: "core.approx_logn.schedule",
                classes: fading_obs::counter!("core.approx_logn.classes"),
                cells: fading_obs::counter!("core.approx_logn.cells"),
                colors: fading_obs::counter!("core.approx_logn.colors"),
                picks: fading_obs::counter!("core.approx_logn.picks"),
                eliminations: fading_obs::counter!("core.approx_logn.eliminations"),
            }),
            "core.grid" => Some(Self {
                span: "core.grid.schedule",
                classes: fading_obs::counter!("core.grid.classes"),
                cells: fading_obs::counter!("core.grid.cells"),
                colors: fading_obs::counter!("core.grid.colors"),
                picks: fading_obs::counter!("core.grid.picks"),
                eliminations: fading_obs::counter!("core.grid.eliminations"),
            }),
            _ => None,
        }
    }
}

/// Human-readable scheduler name recorded in the trace header.
fn grid_label(stat_prefix: &str, mode: ClassMode) -> &'static str {
    match (stat_prefix, mode) {
        ("core.ldp", ClassMode::Nested) => "LDP",
        ("core.ldp", ClassMode::TwoSided) => "LDP(two-sided)",
        ("core.approx_logn", _) => "ApproxLogN",
        _ => "Grid",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::ldp_beta;
    use fading_net::{RateModel, TopologyGenerator, UniformGenerator};

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    #[test]
    fn empty_instance_gives_empty_schedule() {
        let links = fading_net::LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let p = Problem::paper(links, 3.0);
        assert!(grid_schedule(&p, ClassMode::Nested, 10.0).is_empty());
    }

    #[test]
    fn nonempty_instance_schedules_at_least_one_link() {
        let p = problem(50, 1);
        let beta = ldp_beta(p.params(), p.gamma_eps());
        let s = grid_schedule(&p, ClassMode::Nested, beta);
        assert!(!s.is_empty());
    }

    #[test]
    fn at_most_one_link_per_same_color_square() {
        let p = problem(300, 2);
        let beta = ldp_beta(p.params(), p.gamma_eps());
        let s = grid_schedule(&p, ClassMode::Nested, beta);
        // Recover the winning class scale is unknown here; instead check
        // the weaker invariant that all scheduled receivers are pairwise
        // farther than the smallest class's square side apart OR in
        // different-colored squares for every class grid. The robust
        // check: for every class grid, no two scheduled receivers share
        // a square.
        let links = p.links();
        let delta = links.min_length().unwrap();
        for &h in &fading_net::diversity_exponents(links) {
            let cell = 2f64.powi(h as i32 + 1) * beta * delta;
            let grid = GridPartition::new(links.region(), cell);
            let mut cells = std::collections::HashSet::new();
            let mut shared = false;
            for id in s.iter() {
                if !cells.insert(grid.cell_of(&links.link(id).receiver)) {
                    shared = true;
                }
            }
            // The winning (class, color) must come from *some* grid in
            // which receivers occupy distinct same-color squares; at
            // least one h must show no sharing.
            if !shared {
                return;
            }
        }
        panic!("scheduled receivers share a square in every class grid");
    }

    #[test]
    fn nested_mode_never_worse_than_two_sided() {
        // Nested classes are supersets of two-sided classes, so every
        // two-sided per-square winner is available to nested too.
        for seed in 0..5 {
            let p = problem(120, seed);
            let beta = ldp_beta(p.params(), p.gamma_eps());
            let nested = grid_schedule(&p, ClassMode::Nested, beta).utility(&p);
            let two_sided = grid_schedule(&p, ClassMode::TwoSided, beta).utility(&p);
            assert!(
                nested >= two_sided - 1e-12,
                "seed {seed}: nested {nested} < two-sided {two_sided}"
            );
        }
    }

    #[test]
    fn smaller_scale_schedules_at_least_as_many_links_in_some_class() {
        // Halving the square size cannot reduce the best achievable
        // count below the bigger-square result in expectation; check the
        // utility is weakly better on a fixed dense instance.
        let p = problem(400, 3);
        let small = grid_schedule(&p, ClassMode::Nested, 4.0).utility(&p);
        let large = grid_schedule(&p, ClassMode::Nested, 16.0).utility(&p);
        assert!(small >= large);
    }

    #[test]
    fn picks_highest_rate_receiver_per_square() {
        // Two links, receivers in the same unit square, different rates:
        // the scheduler must keep the higher-rate one.
        use fading_geom::{Point2, Rect};
        use fading_net::{Link, LinkId, LinkSet};
        let links = vec![
            Link::new(
                LinkId(0),
                Point2::new(100.0, 0.0),
                Point2::new(100.0, 5.0),
                1.0,
            ),
            Link::new(
                LinkId(1),
                Point2::new(101.0, 0.0),
                Point2::new(101.0, 5.0),
                7.0,
            ),
        ];
        let ls = LinkSet::new(Rect::square(500.0), links);
        let p = Problem::new(ls, fading_channel::ChannelParams::paper_defaults(), 0.01);
        let s = grid_schedule(&p, ClassMode::Nested, 50.0);
        assert_eq!(s.ids(), &[LinkId(1)]);
    }

    #[test]
    fn rate_diversity_exercises_tie_breaking() {
        let gen = UniformGenerator {
            rates: RateModel::Uniform { lo: 1.0, hi: 5.0 },
            ..UniformGenerator::paper(150)
        };
        let p = Problem::paper(gen.generate(4), 3.0);
        let beta = ldp_beta(p.params(), p.gamma_eps());
        let s = grid_schedule(&p, ClassMode::Nested, beta);
        assert!(!s.is_empty());
        assert!(s.utility(&p) > 0.0);
    }
}
