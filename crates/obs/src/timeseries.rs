//! Streaming slot time-series for the online engine.
//!
//! [`SlotSeries`] is a bounded ring-buffered recorder for per-slot
//! [`SlotRecord`]s: the engine pushes one record per slot (at a
//! configurable cadence), the series keeps the last `capacity` records
//! in memory for live views and post-mortems, and — when a writer is
//! attached — appends each record as one JSON line to a `.jsonl`
//! stream. The steady-state path allocates nothing: records are plain
//! `Copy` structs, the ring is pre-reserved, and the JSON line is
//! formatted into a reused `String` scratch buffer.
//!
//! Two emission modes keep the stream useful both as a regression
//! artifact and as a profiling tool:
//!
//! * **deterministic** (default) — only fields derived from the seeded
//!   simulation are written, so the stream is byte-identical across
//!   reruns at a fixed seed;
//! * **timings** — appends the per-phase and whole-slot wall-clock
//!   nanosecond fields (`mutate_ns` … `slot_ns`), which are measured,
//!   not derived, and therefore vary run to run.
//!
//! Field order within a line is fixed (hand-formatted, not map-based),
//! so the schema is stable byte-for-byte, not just structurally.

use serde::Serialize;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// One slot's telemetry: deterministic simulation outcomes plus
/// (optional) measured phase timings. All deterministic fields are
/// exact integers derived from the seeded run; the `*_ns` fields are
/// wall-clock measurements and are zero when timing is disarmed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SlotRecord {
    /// Slot index (0-based).
    pub slot: u64,
    /// Live link population after this slot's arrivals/departures.
    pub population: u64,
    /// Links that joined this slot.
    pub arrivals: u64,
    /// Links that departed this slot.
    pub departures: u64,
    /// Links with a non-empty queue when the scheduler ran.
    pub backlogged: u64,
    /// Links the scheduler picked (its "picks" for this slot).
    pub scheduled: u64,
    /// Backlogged links the scheduler left out (its eliminations).
    pub eliminated: u64,
    /// Packets that arrived this slot.
    pub packets: u64,
    /// Packets delivered this slot.
    pub delivered: u64,
    /// Packets abandoned by departing links this slot.
    pub abandoned: u64,
    /// Total queued packets after service.
    pub backlog: u64,
    /// Wall time building the slot's mutation transaction (departure
    /// scan + arrival sampling).
    pub mutate_ns: u64,
    /// Wall time committing the transaction (`Problem::apply` plus the
    /// receipt-driven state bookkeeping).
    pub commit_ns: u64,
    /// Wall time in the dense `O(N)` bookkeeping walks.
    pub envelope_ns: u64,
    /// Wall time filling the slot's scheduling weights (the name is
    /// kept from the removed per-slot sub-problem build).
    pub restrict_ns: u64,
    /// Wall time in the scheduler proper.
    pub schedule_ns: u64,
    /// Wall time realizing the channel and serving queues.
    pub service_ns: u64,
    /// Whole-slot wall time (phases plus record-keeping).
    pub slot_ns: u64,
}

impl SlotRecord {
    /// Sum of the six attributed phase timings.
    pub fn phase_sum_ns(&self) -> u64 {
        self.mutate_ns
            + self.commit_ns
            + self.envelope_ns
            + self.restrict_ns
            + self.schedule_ns
            + self.service_ns
    }

    /// Appends this record as one JSON line (including `\n`) to `out`.
    /// Field order is fixed; `timings` appends the `*_ns` fields.
    fn write_jsonl(&self, out: &mut String, timings: bool) {
        out.push('{');
        let _ = write!(
            out,
            "\"slot\":{},\"population\":{},\"arrivals\":{},\"departures\":{},\
             \"backlogged\":{},\"scheduled\":{},\"eliminated\":{},\"packets\":{},\
             \"delivered\":{},\"abandoned\":{},\"backlog\":{}",
            self.slot,
            self.population,
            self.arrivals,
            self.departures,
            self.backlogged,
            self.scheduled,
            self.eliminated,
            self.packets,
            self.delivered,
            self.abandoned,
            self.backlog,
        );
        if timings {
            let _ = write!(
                out,
                ",\"mutate_ns\":{},\"commit_ns\":{},\"envelope_ns\":{},\
                 \"restrict_ns\":{},\"schedule_ns\":{},\"service_ns\":{},\
                 \"slot_ns\":{}",
                self.mutate_ns,
                self.commit_ns,
                self.envelope_ns,
                self.restrict_ns,
                self.schedule_ns,
                self.service_ns,
                self.slot_ns,
            );
        }
        out.push_str("}\n");
    }
}

/// Configuration for a [`SlotSeries`].
#[derive(Debug, Clone, Copy)]
pub struct SeriesConfig {
    /// In-memory ring capacity (last `capacity` recorded slots kept).
    pub capacity: usize,
    /// Record every `cadence`-th slot (1 = every slot).
    pub cadence: u64,
    /// Include the measured `*_ns` fields in the JSONL stream. The
    /// in-memory ring always keeps them.
    pub timings: bool,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            cadence: 1,
            timings: false,
        }
    }
}

/// Bounded ring-buffered slot-series recorder with an optional JSONL
/// stream. See the module docs for the allocation and determinism
/// contract.
pub struct SlotSeries {
    cfg: SeriesConfig,
    ring: VecDeque<SlotRecord>,
    writer: Option<BufWriter<File>>,
    scratch: String,
    recorded: u64,
}

impl SlotSeries {
    /// An in-memory series (ring only, nothing written to disk).
    pub fn in_memory(cfg: SeriesConfig) -> Self {
        let capacity = cfg.capacity.max(1);
        Self {
            cfg: SeriesConfig { capacity, ..cfg },
            ring: VecDeque::with_capacity(capacity),
            writer: None,
            scratch: String::with_capacity(512),
            recorded: 0,
        }
    }

    /// A series streaming to `path` (created/truncated) as JSONL.
    pub fn to_path(cfg: SeriesConfig, path: &Path) -> Result<Self, String> {
        let file = File::create(path)
            .map_err(|e| format!("series: cannot create {}: {e}", path.display()))?;
        let mut s = Self::in_memory(cfg);
        s.writer = Some(BufWriter::new(file));
        Ok(s)
    }

    /// The active configuration.
    pub fn config(&self) -> &SeriesConfig {
        &self.cfg
    }

    /// Whether slot `slot` falls on this series' cadence.
    #[inline]
    pub fn due(&self, slot: u64) -> bool {
        slot.is_multiple_of(self.cfg.cadence.max(1))
    }

    /// Records one slot (no-op when `slot` is off-cadence). Allocates
    /// nothing once the ring and scratch buffer are warm.
    pub fn record(&mut self, rec: &SlotRecord) {
        if !self.due(rec.slot) {
            return;
        }
        if self.ring.len() == self.cfg.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(*rec);
        self.recorded += 1;
        if let Some(w) = self.writer.as_mut() {
            self.scratch.clear();
            rec.write_jsonl(&mut self.scratch, self.cfg.timings);
            let _ = w.write_all(self.scratch.as_bytes());
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &SlotRecord> {
        self.ring.iter()
    }

    /// The most recent retained record.
    pub fn last(&self) -> Option<&SlotRecord> {
        self.ring.back()
    }

    /// Total records accepted (including ones evicted from the ring).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Flushes the JSONL stream (if any) to disk.
    pub fn flush(&mut self) -> Result<(), String> {
        if let Some(w) = self.writer.as_mut() {
            w.flush()
                .map_err(|e| format!("series: flush failed: {e}"))?;
        }
        Ok(())
    }

    /// Renders one record exactly as the stream would (for tests).
    pub fn render_line(rec: &SlotRecord, timings: bool) -> String {
        let mut s = String::new();
        rec.write_jsonl(&mut s, timings);
        s
    }
}

impl Drop for SlotSeries {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(slot: u64) -> SlotRecord {
        SlotRecord {
            slot,
            population: 40,
            arrivals: 2,
            departures: 1,
            backlogged: 12,
            scheduled: 8,
            eliminated: 4,
            packets: 9,
            delivered: 7,
            abandoned: 0,
            backlog: 31,
            mutate_ns: 100,
            commit_ns: 150,
            envelope_ns: 200,
            restrict_ns: 300,
            schedule_ns: 400,
            service_ns: 500,
            slot_ns: 1700,
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_tail() {
        let mut s = SlotSeries::in_memory(SeriesConfig {
            capacity: 3,
            ..Default::default()
        });
        for t in 0..10 {
            s.record(&rec(t));
        }
        let kept: Vec<u64> = s.records().map(|r| r.slot).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(s.recorded(), 10);
        assert_eq!(s.last().unwrap().slot, 9);
    }

    #[test]
    fn cadence_skips_off_cycle_slots() {
        let mut s = SlotSeries::in_memory(SeriesConfig {
            cadence: 4,
            ..Default::default()
        });
        for t in 0..10 {
            s.record(&rec(t));
        }
        let kept: Vec<u64> = s.records().map(|r| r.slot).collect();
        assert_eq!(kept, vec![0, 4, 8]);
    }

    #[test]
    fn deterministic_line_omits_timing_fields() {
        let line = SlotSeries::render_line(&rec(3), false);
        assert_eq!(
            line,
            "{\"slot\":3,\"population\":40,\"arrivals\":2,\"departures\":1,\
             \"backlogged\":12,\"scheduled\":8,\"eliminated\":4,\"packets\":9,\
             \"delivered\":7,\"abandoned\":0,\"backlog\":31}\n"
        );
        assert!(!line.contains("_ns"));
    }

    #[test]
    fn timing_line_appends_ns_fields_and_stays_valid_json() {
        let line = SlotSeries::render_line(&rec(3), true);
        assert!(line.contains("\"mutate_ns\":100"));
        assert!(line.contains("\"commit_ns\":150"));
        assert!(line.contains("\"slot_ns\":1700"));
        let v = serde_json::parse_node_str(line.trim()).unwrap();
        assert_eq!(v.get("slot"), Some(&serde::Node::U64(3)));
        assert_eq!(v.get("commit_ns"), Some(&serde::Node::U64(150)));
        assert_eq!(v.get("service_ns"), Some(&serde::Node::U64(500)));
    }

    #[test]
    fn stream_writes_one_line_per_on_cadence_slot() {
        let dir = std::env::temp_dir().join(format!("obs_series_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("series.jsonl");
        let mut s = SlotSeries::to_path(
            SeriesConfig {
                cadence: 2,
                ..Default::default()
            },
            &path,
        )
        .unwrap();
        for t in 0..6 {
            s.record(&rec(t));
        }
        s.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.starts_with("{\"slot\":")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn phase_sum_adds_the_six_phases() {
        assert_eq!(rec(0).phase_sum_ns(), 1650);
    }
}
