//! Flight recorder: a black box for the online engine.
//!
//! [`FlightRecorder`] retains the last K [`SlotRecord`]s — and, when
//! trace capture is on, each slot's decision-trace events — in a ring,
//! and runs a small [`AnomalyDetector`] over the stream. When a
//! detector fires, [`FlightRecorder::dump`] writes a post-mortem
//! bundle to a directory:
//!
//! * `postmortem.json` — the anomaly, the recorder configuration, and
//!   the retained slot records (schema-versioned, stable key order);
//! * `flight_trace.jsonl` — every retained trace event, including the
//!   `SlotStart`/`SlotEnd` markers (forensic view, not replayable as
//!   a whole because each slot's block is numbered by position in
//!   that slot's candidate list);
//! * `replay_trace.jsonl` — the most recent slot's scheduler block
//!   with the slot markers stripped, replayable with
//!   `certify::replay_trace` against that slot's candidates (the
//!   engine writes them alongside as a stand-alone instance).
//!
//! The detectors cover the four online failure classes: a wall-clock
//! **stall** (one slot far slower than the running mean), **sustained
//! queue growth** (the stability lens: backlog strictly increasing for
//! a window), a **packet-conservation violation** (arrived ≠
//! delivered + abandoned + queued, checked by the engine), and a
//! **zero-delivery streak** (backlogged slots that deliver nothing).
//! The detector latches: after the first anomaly it goes quiet so one
//! incident produces one bundle.

use crate::timeseries::SlotRecord;
use crate::trace::{Trace, TraceEvent};
use serde::Serialize;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// Post-mortem bundle schema version (`postmortem.json`).
pub const POSTMORTEM_VERSION: u32 = 1;

/// What tripped the flight recorder.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Anomaly {
    /// One slot's wall time exceeded `factor` × the running mean.
    SlotStall {
        slot: u64,
        slot_ns: u64,
        mean_ns: u64,
        factor: f64,
    },
    /// Backlog increased strictly for `window` consecutive slots.
    QueueGrowth {
        slot: u64,
        window: u32,
        backlog_start: u64,
        backlog_end: u64,
    },
    /// Cumulative arrived ≠ delivered + abandoned + queued.
    ConservationViolation {
        slot: u64,
        arrived: u64,
        delivered: u64,
        abandoned: u64,
        queued: u64,
    },
    /// `window` consecutive backlogged slots delivered zero packets.
    ZeroDeliveryStreak { slot: u64, window: u32 },
}

impl Anomaly {
    /// Short stable tag (`slot_stall`, `queue_growth`, …) for logs and
    /// health lines.
    pub fn tag(&self) -> &'static str {
        match self {
            Anomaly::SlotStall { .. } => "slot_stall",
            Anomaly::QueueGrowth { .. } => "queue_growth",
            Anomaly::ConservationViolation { .. } => "conservation_violation",
            Anomaly::ZeroDeliveryStreak { .. } => "zero_delivery_streak",
        }
    }
}

/// Flight-recorder configuration: ring size and detector thresholds.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FlightConfig {
    /// Slots retained in the ring.
    pub capacity: usize,
    /// Stall fires when `slot_ns > stall_factor × running mean` (and
    /// the warmup below has passed).
    pub stall_factor: f64,
    /// Stall also requires the slot to exceed this absolute floor, so
    /// micro-instances with µs slots don't trip on scheduler jitter.
    pub min_stall_ns: u64,
    /// Slots of strictly increasing backlog before `QueueGrowth` fires.
    pub growth_window: u32,
    /// Backlogged-but-zero-delivery slots before the streak fires.
    pub zero_delivery_window: u32,
    /// Capture each slot's decision-trace events into the ring (the
    /// engine must run its scheduler traced for this to see anything).
    pub capture_trace: bool,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            stall_factor: 10.0,
            min_stall_ns: 250_000_000,
            growth_window: 32,
            zero_delivery_window: 64,
            capture_trace: true,
        }
    }
}

/// Streaming anomaly detector over per-slot records. Latches on the
/// first anomaly.
#[derive(Debug, Default)]
pub struct AnomalyDetector {
    slots_seen: u64,
    slot_ns_total: u128,
    prev_backlog: Option<u64>,
    growth_run: u32,
    growth_start_backlog: u64,
    zero_delivery_run: u32,
    fired: bool,
}

/// Slots of timing history required before stall detection arms.
const STALL_WARMUP_SLOTS: u64 = 8;

impl AnomalyDetector {
    /// Whether an anomaly has already fired (the detector is quiet).
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Feeds one slot record; returns the first anomaly it implies.
    /// `conserved` is the engine's packet-conservation verdict for the
    /// cumulative totals (`arrived == delivered + abandoned + queued`).
    pub fn observe(
        &mut self,
        cfg: &FlightConfig,
        rec: &SlotRecord,
        conserved: Option<(bool, u64, u64, u64, u64)>,
    ) -> Option<Anomaly> {
        if self.fired {
            return None;
        }

        // Conservation is an invariant, not a trend: check it first.
        if let Some((false, arrived, delivered, abandoned, queued)) = conserved {
            self.fired = true;
            return Some(Anomaly::ConservationViolation {
                slot: rec.slot,
                arrived,
                delivered,
                abandoned,
                queued,
            });
        }

        // Stall: compare against the mean of *previous* slots so one
        // slow slot cannot poison its own baseline.
        if rec.slot_ns > 0 {
            if self.slots_seen >= STALL_WARMUP_SLOTS {
                let mean = (self.slot_ns_total / u128::from(self.slots_seen)) as u64;
                if rec.slot_ns >= cfg.min_stall_ns
                    && (rec.slot_ns as f64) > cfg.stall_factor * (mean as f64)
                {
                    self.fired = true;
                    return Some(Anomaly::SlotStall {
                        slot: rec.slot,
                        slot_ns: rec.slot_ns,
                        mean_ns: mean,
                        factor: rec.slot_ns as f64 / (mean as f64).max(1.0),
                    });
                }
            }
            self.slots_seen += 1;
            self.slot_ns_total += u128::from(rec.slot_ns);
        }

        // Sustained queue growth: strictly increasing backlog run.
        if let Some(prev) = self.prev_backlog {
            if rec.backlog > prev {
                if self.growth_run == 0 {
                    self.growth_start_backlog = prev;
                }
                self.growth_run += 1;
            } else if rec.backlog < prev {
                self.growth_run = 0;
            }
            if self.growth_run >= cfg.growth_window {
                self.fired = true;
                return Some(Anomaly::QueueGrowth {
                    slot: rec.slot,
                    window: self.growth_run,
                    backlog_start: self.growth_start_backlog,
                    backlog_end: rec.backlog,
                });
            }
        }
        self.prev_backlog = Some(rec.backlog);

        // Zero-delivery streak: backlogged slots that serve nothing.
        if rec.backlogged > 0 && rec.delivered == 0 {
            self.zero_delivery_run += 1;
            if self.zero_delivery_run >= cfg.zero_delivery_window {
                self.fired = true;
                return Some(Anomaly::ZeroDeliveryStreak {
                    slot: rec.slot,
                    window: self.zero_delivery_run,
                });
            }
        } else {
            self.zero_delivery_run = 0;
        }

        None
    }
}

/// Paths written by [`FlightRecorder::dump`].
#[derive(Debug, Clone)]
pub struct PostmortemPaths {
    /// `postmortem.json` — anomaly + retained slot records.
    pub postmortem: PathBuf,
    /// `flight_trace.jsonl` — all retained trace events (forensics).
    pub flight_trace: Option<PathBuf>,
    /// `replay_trace.jsonl` — last slot's block, markers stripped.
    pub replay_trace: Option<PathBuf>,
}

#[derive(Serialize)]
struct PostmortemDoc {
    version: u32,
    anomaly: Anomaly,
    config: FlightConfig,
    slots: Vec<SlotRecord>,
}

/// The black box: bounded ring of slot records (+ optional per-slot
/// trace events) plus the anomaly detector.
pub struct FlightRecorder {
    cfg: FlightConfig,
    ring: VecDeque<(SlotRecord, Vec<TraceEvent>)>,
    detector: AnomalyDetector,
}

impl FlightRecorder {
    /// A recorder with the given configuration.
    pub fn new(cfg: FlightConfig) -> Self {
        let capacity = cfg.capacity.max(1);
        Self {
            cfg: FlightConfig { capacity, ..cfg },
            ring: VecDeque::with_capacity(capacity),
            detector: AnomalyDetector::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FlightConfig {
        &self.cfg
    }

    /// Whether the engine should run its scheduler traced this slot.
    pub fn wants_trace(&self) -> bool {
        self.cfg.capture_trace && !self.detector.fired()
    }

    /// Whether an anomaly has already fired.
    pub fn fired(&self) -> bool {
        self.detector.fired()
    }

    /// Retains one slot (record + that slot's trace events) and runs
    /// the detectors. See [`AnomalyDetector::observe`] for `conserved`.
    pub fn observe(
        &mut self,
        rec: &SlotRecord,
        trace_events: Vec<TraceEvent>,
        conserved: Option<(bool, u64, u64, u64, u64)>,
    ) -> Option<Anomaly> {
        if self.ring.len() == self.cfg.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back((*rec, trace_events));
        self.detector.observe(&self.cfg, rec, conserved)
    }

    /// The retained slot records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &SlotRecord> {
        self.ring.iter().map(|(r, _)| r)
    }

    /// All retained trace events in slot order (with slot markers).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.ring
            .iter()
            .flat_map(|(_, ev)| ev.iter().cloned())
            .collect()
    }

    /// The most recent slot's scheduler block with `SlotStart` /
    /// `SlotEnd` markers stripped — the replayable part of the box.
    pub fn replay_events(&self) -> Vec<TraceEvent> {
        self.ring
            .back()
            .map(|(_, ev)| {
                ev.iter()
                    .filter(|e| {
                        !matches!(e, TraceEvent::SlotStart { .. } | TraceEvent::SlotEnd { .. })
                    })
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Writes the post-mortem bundle for `anomaly` into `dir`
    /// (created if missing). Trace files are only written when trace
    /// capture was on and events were retained.
    pub fn dump(&self, dir: &Path, anomaly: &Anomaly) -> Result<PostmortemPaths, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("flight: cannot create {}: {e}", dir.display()))?;

        let doc = PostmortemDoc {
            version: POSTMORTEM_VERSION,
            anomaly: anomaly.clone(),
            config: self.cfg,
            slots: self.ring.iter().map(|(r, _)| *r).collect(),
        };
        let postmortem = dir.join("postmortem.json");
        let json = serde_json::to_string_pretty(&doc)
            .map_err(|e| format!("flight: postmortem encode failed: {e}"))?;
        std::fs::write(&postmortem, json)
            .map_err(|e| format!("flight: cannot write {}: {e}", postmortem.display()))?;

        let mut paths = PostmortemPaths {
            postmortem,
            flight_trace: None,
            replay_trace: None,
        };

        let all = self.trace_events();
        if !all.is_empty() {
            let trace = Trace {
                events: all,
                dropped: 0,
            };
            let p = dir.join("flight_trace.jsonl");
            trace.write(&p)?;
            paths.flight_trace = Some(p);

            let replay = self.replay_events();
            if !replay.is_empty() {
                let trace = Trace {
                    events: replay,
                    dropped: 0,
                };
                let p = dir.join("replay_trace.jsonl");
                trace.write(&p)?;
                paths.replay_trace = Some(p);
            }
        }
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(slot: u64, backlog: u64, delivered: u64, slot_ns: u64) -> SlotRecord {
        SlotRecord {
            slot,
            backlogged: 5,
            backlog,
            delivered,
            slot_ns,
            ..Default::default()
        }
    }

    fn cfg() -> FlightConfig {
        FlightConfig {
            capacity: 4,
            stall_factor: 5.0,
            min_stall_ns: 1_000,
            growth_window: 3,
            zero_delivery_window: 4,
            capture_trace: false,
        }
    }

    #[test]
    fn stall_fires_after_warmup_and_latches() {
        let mut fr = FlightRecorder::new(cfg());
        for t in 0..STALL_WARMUP_SLOTS {
            assert!(fr.observe(&rec(t, 3, 1, 1_000), Vec::new(), None).is_none());
        }
        let a = fr
            .observe(&rec(99, 3, 1, 50_000), Vec::new(), None)
            .expect("stall should fire");
        assert_eq!(a.tag(), "slot_stall");
        assert!(fr.fired());
        // Latched: an even bigger stall stays quiet.
        assert!(fr
            .observe(&rec(100, 3, 1, 500_000), Vec::new(), None)
            .is_none());
    }

    #[test]
    fn stall_needs_the_absolute_floor() {
        let mut fr = FlightRecorder::new(FlightConfig {
            min_stall_ns: 1_000_000,
            ..cfg()
        });
        for t in 0..STALL_WARMUP_SLOTS {
            fr.observe(&rec(t, 3, 1, 100), Vec::new(), None);
        }
        // 100× the mean but under the floor: micro-jitter, not a stall.
        assert!(fr
            .observe(&rec(9, 3, 1, 10_000), Vec::new(), None)
            .is_none());
    }

    #[test]
    fn queue_growth_fires_on_a_strict_run_and_resets_on_a_dip() {
        let mut fr = FlightRecorder::new(cfg());
        // Grows twice, dips, then grows three times: fires at the end.
        let backlogs = [10, 11, 12, 9, 10, 11, 12];
        let mut fired = None;
        for (t, &q) in backlogs.iter().enumerate() {
            fired = fr.observe(&rec(t as u64, q, 1, 0), Vec::new(), None);
            if fired.is_some() {
                break;
            }
        }
        match fired.expect("growth should fire") {
            Anomaly::QueueGrowth {
                window,
                backlog_start,
                backlog_end,
                ..
            } => {
                assert_eq!(window, 3);
                assert_eq!(backlog_start, 9);
                assert_eq!(backlog_end, 12);
            }
            other => panic!("wrong anomaly: {other:?}"),
        }
    }

    #[test]
    fn zero_delivery_streak_requires_backlogged_slots() {
        let mut fr = FlightRecorder::new(cfg());
        for t in 0..3 {
            assert!(fr.observe(&rec(t, 5, 0, 0), Vec::new(), None).is_none());
        }
        let a = fr.observe(&rec(3, 5, 0, 0), Vec::new(), None).unwrap();
        assert_eq!(a.tag(), "zero_delivery_streak");
    }

    #[test]
    fn conservation_violation_fires_immediately() {
        let mut fr = FlightRecorder::new(cfg());
        let a = fr
            .observe(&rec(0, 3, 1, 0), Vec::new(), Some((false, 10, 4, 1, 3)))
            .unwrap();
        match a {
            Anomaly::ConservationViolation {
                arrived, queued, ..
            } => {
                assert_eq!(arrived, 10);
                assert_eq!(queued, 3);
            }
            other => panic!("wrong anomaly: {other:?}"),
        }
    }

    #[test]
    fn dump_writes_bundle_with_replayable_last_block() {
        let mut fr = FlightRecorder::new(FlightConfig {
            capture_trace: true,
            ..cfg()
        });
        let block = |slot: u64| {
            vec![
                TraceEvent::SlotStart { slot, backlog: 2 },
                TraceEvent::AlgoStart {
                    scheduler: format!("greedy{slot}"),
                    n: 2,
                    certified: false,
                },
                TraceEvent::Pick { link: 0 },
                TraceEvent::End { scheduled: vec![0] },
                TraceEvent::SlotEnd {
                    slot,
                    links: vec![0],
                },
            ]
        };
        for t in 0..6 {
            fr.observe(&rec(t, 3, 1, 0), block(t), None);
        }
        let dir = std::env::temp_dir().join(format!("obs_flight_{}", std::process::id()));
        let anomaly = Anomaly::ZeroDeliveryStreak { slot: 5, window: 4 };
        let paths = fr.dump(&dir, &anomaly).unwrap();

        let doc = serde_json::parse_node_str(&std::fs::read_to_string(&paths.postmortem).unwrap())
            .unwrap();
        assert_eq!(
            doc.get("version"),
            Some(&serde::Node::U64(u64::from(POSTMORTEM_VERSION)))
        );
        match doc.get("slots") {
            Some(serde::Node::Seq(slots)) => assert_eq!(slots.len(), 4), // ring capacity
            other => panic!("slots not a sequence: {other:?}"),
        }
        let window = doc
            .get("anomaly")
            .and_then(|a| a.get("ZeroDeliveryStreak"))
            .and_then(|a| a.get("window"));
        assert_eq!(window, Some(&serde::Node::U64(4)));

        let flight = Trace::from_jsonl(
            &std::fs::read_to_string(paths.flight_trace.as_ref().unwrap()).unwrap(),
        )
        .unwrap();
        // 4 retained slots × 5 events.
        assert_eq!(flight.events.len(), 20);

        let replay = Trace::from_jsonl(
            &std::fs::read_to_string(paths.replay_trace.as_ref().unwrap()).unwrap(),
        )
        .unwrap();
        // Last slot only, markers stripped.
        assert_eq!(replay.events.len(), 3);
        assert!(replay
            .events
            .iter()
            .all(|e| !matches!(e, TraceEvent::SlotStart { .. } | TraceEvent::SlotEnd { .. })));
        assert!(matches!(
            &replay.events[0],
            TraceEvent::AlgoStart { scheduler, .. } if scheduler == "greedy5"
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
