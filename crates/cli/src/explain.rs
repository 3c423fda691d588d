//! `fading explain` — interrogate a decision trace.
//!
//! Answers provenance questions about a JSONL trace written with
//! `--trace-out`: why a given link was dropped (the eliminating rule
//! and the budget state at that moment), how the interference budget
//! was spent per receiver, which eliminations a pick triggered, and —
//! given the original instance — whether the trace replays to the
//! exact schedule it claims (`--verify`).

use crate::commands::CmdEffects;
use fading_bench::flags::Args;
use fading_obs::{ElimCause, Trace, TraceEvent};
use std::io::Write;

/// Entry point for the `explain` subcommand.
pub fn explain(args: &Args, out: &mut dyn Write, _: &mut CmdEffects) -> Result<(), String> {
    let path = args.require("trace")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = Trace::from_jsonl(&text)?;
    if trace.events.is_empty() {
        return Err(format!("{path}: trace contains no events"));
    }
    let blocks = trace.blocks();

    let mut did_something = false;
    if let Some(link) = args.opt("link")? {
        explain_link(&blocks, link, out)?;
        did_something = true;
    }
    let block_idx: usize = args.value("block")?;
    let block = || {
        let len = blocks.len();
        blocks
            .get(block_idx)
            .copied()
            .ok_or_else(|| format!("--block {block_idx}: trace has only {len} blocks"))
    };
    if args.flag("budgets") {
        explain_budgets(block()?, block_idx, out)?;
        did_something = true;
    }
    if let Some(pick) = args.opt("cascade")? {
        explain_cascade(block()?, block_idx, pick, out)?;
        did_something = true;
    }
    if args.flag("verify") {
        verify(args, &trace, out)?;
        did_something = true;
    }
    if !did_something {
        summarize(&trace, &blocks, out)?;
    }
    Ok(())
}

/// Header fields of a block, normalized across the three block kinds.
struct Header<'a> {
    scheduler: &'a str,
    threshold: Option<f64>,
}

fn header(block: &[TraceEvent]) -> Option<Header<'_>> {
    match block.first()? {
        TraceEvent::ElimStart {
            scheduler,
            threshold,
            ..
        } => Some(Header {
            scheduler,
            threshold: Some(*threshold),
        }),
        TraceEvent::GridStart { scheduler, .. } | TraceEvent::AlgoStart { scheduler, .. } => {
            Some(Header {
                scheduler,
                threshold: None,
            })
        }
        _ => None,
    }
}

fn cause_name(cause: ElimCause) -> &'static str {
    match cause {
        ElimCause::Radius => "Radius (sender inside the picked receiver's c₁·d_ii disk)",
        ElimCause::BudgetExceeded => "BudgetExceeded (accumulated interference above c₂·budget)",
        ElimCause::ColorConflict => "ColorConflict (lost its square or the square's color lost)",
        ElimCause::ClassFiltered => "ClassFiltered (outside the winning length class)",
    }
}

/// One-line-per-block overview: scheduler, picks, eliminations by
/// cause, debits.
fn summarize(trace: &Trace, blocks: &[&[TraceEvent]], out: &mut dyn Write) -> Result<(), String> {
    if !trace.is_complete() {
        outln!(
            out,
            "warning: ring buffer dropped {} events; the trace head is truncated",
            trace.dropped
        )?;
    }
    for (i, block) in blocks.iter().enumerate() {
        match block.first() {
            Some(TraceEvent::SlotStart { slot, backlog }) => {
                outln!(out, "block {i}: slot {slot} start (backlog {backlog})")?;
                continue;
            }
            Some(TraceEvent::SlotEnd { slot, links }) => {
                outln!(
                    out,
                    "block {i}: slot {slot} end ({} links committed)",
                    links.len()
                )?;
                continue;
            }
            _ => {}
        }
        let Some(h) = header(block) else {
            outln!(out, "block {i}: {} unheaded events", block.len())?;
            continue;
        };
        let mut picks = 0usize;
        let mut debits = 0usize;
        let mut by_cause = [0usize; 4];
        for e in *block {
            match e {
                TraceEvent::Pick { .. } => picks += 1,
                TraceEvent::BudgetDebit { .. } => debits += 1,
                TraceEvent::Eliminate { cause, .. } => {
                    by_cause[*cause as usize] += 1;
                }
                _ => {}
            }
        }
        outln!(
            out,
            "block {i}: {} — {picks} picks, eliminations: {} radius, {} budget, \
                 {} color, {} class; {debits} budget debits",
            h.scheduler,
            by_cause[ElimCause::Radius as usize],
            by_cause[ElimCause::BudgetExceeded as usize],
            by_cause[ElimCause::ColorConflict as usize],
            by_cause[ElimCause::ClassFiltered as usize]
        )?;
    }
    Ok(())
}

/// Why was link `link` scheduled or dropped? Scans every block the
/// link appears in, reporting the deciding rule and — for budget
/// decisions — the ledger state at that moment.
fn explain_link(blocks: &[&[TraceEvent]], link: u32, out: &mut dyn Write) -> Result<(), String> {
    let mut found = false;
    for (i, block) in blocks.iter().enumerate() {
        let Some(h) = header(block) else { continue };
        // Replay the link's ledger as the block unfolds so the budget
        // state at decision time is available.
        let mut used = 0.0f64;
        let mut debits = 0usize;
        let mut pick_no = 0usize;
        let mut last_pick: Option<u32> = None;
        for e in *block {
            match e {
                TraceEvent::Pick { link: l } => {
                    pick_no += 1;
                    last_pick = Some(*l);
                    if *l == link {
                        found = true;
                        let budget_note = match h.threshold {
                            Some(t) => format!(
                                "; ledger at pick time: {used:.6} of threshold {t:.6} \
                                 ({debits} debits)"
                            ),
                            None => String::new(),
                        };
                        outln!(
                            out,
                            "block {i}: link {link} PICKED by {} (pick #{pick_no}){budget_note}",
                            h.scheduler
                        )?;
                    }
                }
                TraceEvent::BudgetDebit {
                    receiver, factor, ..
                } if *receiver == link => {
                    used += factor;
                    debits += 1;
                }
                TraceEvent::Eliminate { link: l, cause, by } if *l == link => {
                    found = true;
                    let by_note = match by {
                        Some(b) => format!(" by pick of link {b}"),
                        None => String::new(),
                    };
                    let budget_note = match h.threshold {
                        Some(t) => format!(
                            "; ledger at elimination: {used:.6} of threshold {t:.6} \
                             ({debits} debits, last pick {})",
                            last_pick.map_or("none".to_string(), |p| format!("link {p}")),
                        ),
                        None => String::new(),
                    };
                    outln!(
                        out,
                        "block {i}: link {link} ELIMINATED{by_note} — rule {}{budget_note}",
                        cause_name(*cause)
                    )?;
                }
                _ => {}
            }
        }
    }
    if !found {
        return Err(format!("link {link} appears in no decision of this trace"));
    }
    Ok(())
}

/// Budget utilization per receiver for one elimination block.
fn explain_budgets(
    block: &[TraceEvent],
    block_idx: usize,
    out: &mut dyn Write,
) -> Result<(), String> {
    let Some(TraceEvent::ElimStart {
        scheduler,
        threshold,
        budget,
        ..
    }) = block.first()
    else {
        return Err(format!(
            "--budgets needs an elimination block (RLE/ApproxDiversity); \
             block {block_idx} is not one"
        ));
    };
    // receiver → (used, debits, fate)
    let mut ledgers: std::collections::BTreeMap<u32, (f64, usize, &'static str)> =
        std::collections::BTreeMap::new();
    for e in block {
        match e {
            TraceEvent::BudgetDebit {
                receiver, factor, ..
            } => {
                let entry = ledgers.entry(*receiver).or_insert((0.0, 0, "alive"));
                entry.0 += factor;
                entry.1 += 1;
            }
            TraceEvent::Pick { link } => {
                ledgers.entry(*link).or_insert((0.0, 0, "alive")).2 = "picked";
            }
            TraceEvent::Eliminate { link, cause, .. } => {
                ledgers.entry(*link).or_insert((0.0, 0, "alive")).2 = match cause {
                    ElimCause::Radius => "radius-eliminated",
                    ElimCause::BudgetExceeded => "budget-eliminated",
                    ElimCause::ColorConflict => "color-eliminated",
                    ElimCause::ClassFiltered => "class-filtered",
                };
            }
            _ => {}
        }
    }
    outln!(
        out,
        "{scheduler}: budget {budget:.6}, threshold c₂·budget {threshold:.6}; \
             {} receivers debited",
        ledgers.values().filter(|(_, d, _)| *d > 0).count()
    )?;
    outln!(
        out,
        "{:<8} {:>12} {:>8} {:>12} {:>10}  fate",
        "receiver",
        "used",
        "debits",
        "remaining",
        "used%"
    )?;
    for (receiver, (used, debits, fate)) in &ledgers {
        if *debits == 0 {
            continue;
        }
        outln!(
            out,
            "{receiver:<8} {used:>12.6} {debits:>8} {:>12.6} {:>9.1}%  {fate}",
            threshold - used,
            100.0 * used / threshold
        )?;
    }
    Ok(())
}

/// The elimination cascade triggered by pick number `pick_no`
/// (1-based) of one block.
fn explain_cascade(
    block: &[TraceEvent],
    block_idx: usize,
    pick_no: usize,
    out: &mut dyn Write,
) -> Result<(), String> {
    let h = header(block).ok_or_else(|| format!("block {block_idx} has no scheduler header"))?;
    let mut current = 0usize;
    let mut in_target = false;
    let mut eliminated: Vec<String> = Vec::new();
    let mut debits = 0usize;
    let mut picked: Option<u32> = None;
    for e in block {
        match e {
            TraceEvent::Pick { link } => {
                current += 1;
                if current == pick_no {
                    in_target = true;
                    picked = Some(*link);
                } else if in_target {
                    break;
                }
            }
            TraceEvent::Eliminate { link, cause, .. } if in_target => {
                eliminated.push(format!(
                    "link {link} ({})",
                    match cause {
                        ElimCause::Radius => "radius",
                        ElimCause::BudgetExceeded => "budget",
                        ElimCause::ColorConflict => "color",
                        ElimCause::ClassFiltered => "class",
                    }
                ));
            }
            TraceEvent::BudgetDebit { .. } if in_target => debits += 1,
            _ => {}
        }
    }
    let Some(picked) = picked else {
        return Err(format!(
            "block {block_idx} has only {current} picks; --cascade {pick_no} is out of range"
        ));
    };
    outln!(
        out,
        "{}: pick #{pick_no} = link {picked} eliminated {} links, debited {debits} ledgers",
        h.scheduler,
        eliminated.len()
    )?;
    for line in eliminated {
        outln!(out, "  {line}")?;
    }
    Ok(())
}

/// Replays the trace against the original instance and reports the
/// certificate; with `--schedule`, additionally requires the replayed
/// schedule to equal the stored one.
fn verify(args: &Args, trace: &Trace, out: &mut dyn Write) -> Result<(), String> {
    let path = args
        .require("instance")
        .map_err(|e| format!("{e} (--verify replays the trace against the original instance)"))?;
    let links = crate::commands::load_instance(path)?;
    let problem = crate::commands::build_problem(args, links)?;
    let certs = fading_core::replay_trace(&problem, trace)?;
    if let Some(path) = args.get("schedule") {
        let expected = crate::commands::load_schedule(path, problem.len())?;
        let last = certs.last().expect("replay_trace returns ≥1 certificate");
        if last.schedule != expected {
            return Err(format!(
                "replayed schedule ({} links) does not match {path} ({} links)",
                last.schedule.len(),
                expected.len()
            ));
        }
    }
    for cert in &certs {
        outln!(
            out,
            "VERIFIED {}: {} links replayed from {} picks, {} eliminations, \
                 {} debits; γ_ε ledger {}",
            cert.scheduler,
            cert.schedule.len(),
            cert.picks,
            cert.eliminations,
            cert.debits,
            if cert.ledger_checked {
                "audited (Corollary 3.1 holds)"
            } else {
                "not claimed"
            }
        )?;
    }
    Ok(())
}
