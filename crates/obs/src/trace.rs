//! Decision traces: typed, replayable records of scheduler decisions.
//!
//! The paper's linearization (Thm 3.1 / Cor. 3.1) reduces feasibility
//! to a per-receiver budget — link `j` survives iff
//! `Σ_{i∈P\{j}} f_{i,j} ≤ γ_ε` — so every scheduling decision is either
//! a *pick*, an *elimination with a cause*, or a *budget debit* against
//! some receiver's ledger. This module gives those decisions a typed,
//! serializable form:
//!
//! * schedulers emit [`TraceEvent`]s through a [`TraceScope`] (local
//!   buffer, published as one contiguous block per `schedule()` call so
//!   parallel invocations never interleave);
//! * a global ring buffer collects blocks when tracing is enabled
//!   ([`set_tracing`]) and is drained with [`take_trace`];
//! * a [`ThreadCapture`] instead collects only the blocks its own
//!   thread publishes, so a capture window (the churn engine's flight
//!   recorder traces one slot at a time) never picks up a block that
//!   another thread scheduled meanwhile;
//! * a [`Trace`] round-trips losslessly through JSONL (`serde_json`
//!   prints `f64` in shortest-round-trip form, so replayed ledgers are
//!   bit-exact).
//!
//! Records deliberately carry **no clocks**: the same seed must yield a
//! byte-identical trace. When tracing is disabled (the default) every
//! hook is one relaxed atomic load.
//!
//! The replay verifier that turns a trace into a checked *certificate*
//! of the run lives in `fading-core::certify` (it needs the `Problem`);
//! see `docs/tracing.md` for the record schema and soundness argument.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Why a link was removed from consideration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElimCause {
    /// Sender inside the deletion disk `c₁·d_ii` of a picked receiver
    /// (Algorithm 2, line 4).
    Radius,
    /// Accumulated interference from picked senders exceeded the
    /// reserved budget `c₂·γ_ε` (Algorithm 2, line 5).
    BudgetExceeded,
    /// Grid schedulers: the link is in the winning class but lost its
    /// square (to a better receiver) or sits in a square of a
    /// non-winning color (Algorithm 1's 4-coloring).
    ColorConflict,
    /// Grid schedulers: the link is not in the winning length class.
    ClassFiltered,
}

/// One scheduler decision record.
///
/// A *block* is the record sequence of one `schedule()` call: a start
/// record, the decision sequence, and an `End` record naming the
/// emitted schedule. Multi-slot drivers wrap blocks in
/// `SlotStart`/`SlotEnd` markers carrying live link ids (the block
/// between them schedules a candidate scope of the live problem; its
/// header's `n` is the candidate count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An elimination scheduler (RLE, ApproxDiversity) begins.
    /// `metric` is `"fading"` (budget `γ_ε`) or `"deterministic"`
    /// (budget 1); `threshold = c2 × budget`.
    ElimStart {
        scheduler: String,
        n: u32,
        metric: String,
        budget: f64,
        threshold: f64,
        c1: f64,
        c2: f64,
    },
    /// A grid scheduler (LDP, ApproxLogN) begins. `certified` means
    /// the algorithm guarantees its output meets the `γ_ε` budget
    /// (true for LDP via Theorem 4.1, false for the deterministic
    /// baseline).
    GridStart {
        scheduler: String,
        n: u32,
        scale: f64,
        nested: bool,
        certified: bool,
    },
    /// Any other scheduler begins (membership-only trace). `certified`
    /// as in `GridStart`.
    AlgoStart {
        scheduler: String,
        n: u32,
        certified: bool,
    },
    /// The link joined the schedule.
    Pick { link: u32 },
    /// The link left consideration; `by` is the pick that caused it
    /// (elimination schedulers; grid cell losers name the cell winner).
    Eliminate {
        link: u32,
        cause: ElimCause,
        by: Option<u32>,
    },
    /// Pick `from` debited `factor` from `receiver`'s interference
    /// ledger, leaving `remaining` of the threshold.
    BudgetDebit {
        receiver: u32,
        from: u32,
        factor: f64,
        remaining: f64,
    },
    /// Grid schedulers: the winning (length class, square color) pair
    /// and its utility.
    ClassColorChosen {
        class: u32,
        color: u32,
        utility: f64,
    },
    /// A multi-slot / queueing driver starts slot `slot` with
    /// `backlog` links still to serve.
    SlotStart { slot: u64, backlog: u32 },
    /// Slot `slot` committed `links` (parent-numbered ids).
    SlotEnd { slot: u64, links: Vec<u32> },
    /// The block's emitted schedule (sorted link ids).
    End { scheduled: Vec<u32> },
    /// Written first when the ring buffer overflowed and dropped the
    /// oldest `dropped` records; such a trace is not replayable.
    TruncatedHead { dropped: u64 },
}

/// Default ring capacity (records). A record is a few dozen bytes, so
/// this bounds the buffer around ~100 MB worst case.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Live [`ThreadCapture`]s across all threads: while it is zero, the
/// disabled gate stays a single relaxed load. `Relaxed` suffices: it
/// publishes no data, a thread always sees its own increments, and a
/// stale count on another thread only makes it check its own, empty,
/// capture slot.
static THREAD_CAPTURES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's capture buffer while a [`ThreadCapture`] is open.
    static CAPTURE: RefCell<Option<Vec<TraceEvent>>> = const { RefCell::new(None) };
}

/// Whether the calling thread has a [`ThreadCapture`] open.
fn capturing() -> bool {
    THREAD_CAPTURES.load(Ordering::Relaxed) > 0 && CAPTURE.with(|c| c.borrow().is_some())
}

/// Moves `block` into this thread's capture buffer, if one is open;
/// otherwise hands it back for the global ring.
fn capture_block<I: IntoIterator<Item = TraceEvent>>(block: I) -> Option<I> {
    if THREAD_CAPTURES.load(Ordering::Relaxed) == 0 {
        return Some(block);
    }
    CAPTURE.with(|c| match c.borrow_mut().as_mut() {
        Some(buf) => {
            buf.extend(block);
            None
        }
        None => Some(block),
    })
}

struct TraceBuf {
    events: VecDeque<TraceEvent>,
    dropped: u64,
    capacity: usize,
}

fn buf() -> &'static Mutex<TraceBuf> {
    static BUF: OnceLock<Mutex<TraceBuf>> = OnceLock::new();
    BUF.get_or_init(|| {
        Mutex::new(TraceBuf {
            events: VecDeque::new(),
            dropped: 0,
            capacity: DEFAULT_TRACE_CAPACITY,
        })
    })
}

/// Globally enables or disables trace collection. Disabled is the
/// default; every instrumentation site then costs one relaxed load.
pub fn set_tracing(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether trace collection is currently enabled for the calling
/// thread: globally, or by a [`ThreadCapture`] the thread holds.
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || capturing()
}

/// Caps the ring buffer at `capacity` records (oldest records are
/// dropped past it, marking the trace truncated).
pub fn set_trace_capacity(capacity: usize) {
    assert!(capacity > 0, "trace capacity must be positive");
    let mut b = buf().lock().unwrap();
    b.capacity = capacity;
    while b.events.len() > capacity {
        b.events.pop_front();
        b.dropped += 1;
    }
}

/// Appends one block of records atomically (no interleaving with other
/// threads' blocks). No-op when the block is empty.
///
/// A block published by a thread holding a [`ThreadCapture`] goes to
/// that capture instead of the ring.
pub fn publish(block: Vec<TraceEvent>) {
    if block.is_empty() {
        return;
    }
    let Some(block) = capture_block(block) else {
        return;
    };
    let mut b = buf().lock().unwrap();
    b.events.extend(block);
    while b.events.len() > b.capacity {
        b.events.pop_front();
        b.dropped += 1;
    }
}

/// Like [`publish`], but drains `block` in place instead of consuming
/// it, so a caller-owned scratch buffer keeps its capacity across
/// schedule calls (the zero-allocation engine's trace path reuses one
/// buffer per scheduling context — see `docs/engine.md`).
pub fn publish_from(block: &mut Vec<TraceEvent>) {
    if block.is_empty() {
        return;
    }
    let Some(block) = capture_block(block.drain(..)) else {
        return;
    };
    let mut b = buf().lock().unwrap();
    b.events.extend(block);
    while b.events.len() > b.capacity {
        b.events.pop_front();
        b.dropped += 1;
    }
}

/// Whether the ring already holds `capacity` records. Once saturated,
/// publishing only evicts older records and the trace is no longer
/// replayable, so emitters may skip building blocks entirely.
/// A thread capture never saturates.
pub fn ring_saturated() -> bool {
    if capturing() {
        return false;
    }
    let b = buf().lock().unwrap();
    b.events.len() >= b.capacity
}

/// Drains every collected record (and the overflow count), resetting
/// the buffer.
pub fn take_trace() -> Trace {
    let mut b = buf().lock().unwrap();
    Trace {
        events: b.events.drain(..).collect(),
        dropped: std::mem::take(&mut b.dropped),
    }
}

/// Traces the calling thread, and only it, until [`finish`]: every
/// block this thread publishes meanwhile lands in the capture instead
/// of the global ring, and blocks other threads publish never do.
/// Tracing is enabled for this thread while the capture is open, even
/// if it is globally off.
///
/// [`finish`]: Self::finish
pub struct ThreadCapture {
    /// Tied to the thread whose buffer it owns.
    _thread: PhantomData<*const ()>,
}

impl ThreadCapture {
    /// Opens a capture on the calling thread.
    ///
    /// # Panics
    /// Panics if the thread already holds one.
    pub fn begin() -> Self {
        CAPTURE.with(|c| {
            let mut c = c.borrow_mut();
            assert!(c.is_none(), "thread capture already open");
            *c = Some(Vec::new());
        });
        THREAD_CAPTURES.fetch_add(1, Ordering::Relaxed);
        Self {
            _thread: PhantomData,
        }
    }

    /// Closes the capture and returns its records. When global
    /// tracing is on, they are also published to the ring, so a
    /// process-wide trace stays complete.
    pub fn finish(self) -> Trace {
        let events = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
        // `Drop` closes the (now empty) capture.
        drop(self);
        if ENABLED.load(Ordering::Relaxed) {
            publish(events.clone());
        }
        Trace { events, dropped: 0 }
    }
}

impl Drop for ThreadCapture {
    fn drop(&mut self) {
        CAPTURE.with(|c| c.borrow_mut().take());
        THREAD_CAPTURES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A per-`schedule()` record buffer. Checks the global gate once at
/// construction; when inactive, every [`push`](Self::push) is a no-op
/// so hot loops only pay for the (predictable) `active()` branch.
pub struct TraceScope {
    events: Vec<TraceEvent>,
    active: bool,
}

impl TraceScope {
    /// Opens a scope; captures whether tracing is on right now.
    pub fn begin() -> Self {
        Self {
            events: Vec::new(),
            active: tracing_enabled(),
        }
    }

    /// Whether this scope records anything. Guard event construction
    /// with this in hot loops.
    #[inline]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Records one event (no-op when inactive).
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        if self.active {
            self.events.push(event);
        }
    }

    /// Publishes the buffered block to the global ring.
    pub fn finish(self) {
        if self.active {
            publish(self.events);
        }
    }
}

/// A drained decision trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// The collected records, in publish order.
    pub events: Vec<TraceEvent>,
    /// Records lost to ring overflow (0 ⇒ the trace is complete and
    /// replayable).
    pub dropped: u64,
}

impl Trace {
    /// Whether no records were lost to ring overflow.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }

    /// JSONL form: one JSON object per line, preceded by a
    /// `TruncatedHead` line when records were dropped. `f64`s are
    /// printed in shortest-round-trip form, so parsing the output
    /// reproduces the exact values.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(
                &serde_json::to_string(&TraceEvent::TruncatedHead {
                    dropped: self.dropped,
                })
                .unwrap_or_default(),
            );
            out.push('\n');
        }
        for e in &self.events {
            out.push_str(&serde_json::to_string(e).unwrap_or_default());
            out.push('\n');
        }
        out
    }

    /// Parses [`to_jsonl`](Self::to_jsonl) output (blank lines are
    /// skipped; a leading `TruncatedHead` populates `dropped`).
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event: TraceEvent =
                serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
            if let TraceEvent::TruncatedHead { dropped: d } = event {
                dropped += d;
            } else {
                events.push(event);
            }
        }
        Ok(Self { events, dropped })
    }

    /// Writes the JSONL form to `path`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_jsonl())
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))
    }

    /// Splits the record stream into scheduler blocks: each slice
    /// starts at a `*Start` record and runs to just before the next
    /// one. Slot markers between blocks ride along in the preceding
    /// block's tail (replay ignores them).
    pub fn blocks(&self) -> Vec<&[TraceEvent]> {
        let starts: Vec<usize> = self
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                matches!(
                    e,
                    TraceEvent::ElimStart { .. }
                        | TraceEvent::GridStart { .. }
                        | TraceEvent::AlgoStart { .. }
                )
            })
            .map(|(i, _)| i)
            .collect();
        starts
            .iter()
            .enumerate()
            .map(|(k, &s)| {
                let end = starts.get(k + 1).copied().unwrap_or(self.events.len());
                &self.events[s..end]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this module toggle the global gate and drain the global
    /// ring; serialize them so parallel test threads don't interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    // Full 17-digit literals: the fixture pins exact f64 round-trips.
    #[allow(clippy::excessive_precision)]
    fn sample_block() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ElimStart {
                scheduler: "RLE".into(),
                n: 3,
                metric: "fading".into(),
                budget: 0.010050335853501441,
                threshold: 0.005025167926750721,
                c1: 23.5,
                c2: 0.5,
            },
            TraceEvent::Pick { link: 1 },
            TraceEvent::BudgetDebit {
                receiver: 0,
                from: 1,
                factor: 0.0031,
                remaining: 0.0019251679267507207,
            },
            TraceEvent::Eliminate {
                link: 2,
                cause: ElimCause::Radius,
                by: Some(1),
            },
            TraceEvent::Eliminate {
                link: 0,
                cause: ElimCause::BudgetExceeded,
                by: Some(1),
            },
            TraceEvent::End { scheduled: vec![1] },
        ]
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let trace = Trace {
            events: sample_block(),
            dropped: 0,
        };
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        // Shortest-round-trip floats: re-serializing is byte-identical.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let _guard = lock();
        set_tracing(false);
        take_trace();
        let mut scope = TraceScope::begin();
        assert!(!scope.active());
        scope.push(TraceEvent::Pick { link: 0 });
        scope.finish();
        assert!(take_trace().events.is_empty());
    }

    #[test]
    fn enabled_scope_publishes_one_block() {
        let _guard = lock();
        set_tracing(true);
        take_trace();
        let mut scope = TraceScope::begin();
        assert!(scope.active());
        for e in sample_block() {
            scope.push(e);
        }
        scope.finish();
        set_tracing(false);
        let trace = take_trace();
        assert_eq!(trace.events, sample_block());
        assert!(trace.is_complete());
        assert_eq!(trace.blocks().len(), 1);
    }

    #[test]
    fn thread_capture_sees_only_its_own_thread() {
        let _guard = lock();
        set_tracing(false);
        take_trace();
        let capture = ThreadCapture::begin();
        assert!(tracing_enabled());
        // Another thread scheduling meanwhile is neither traced nor
        // captured.
        std::thread::spawn(|| {
            assert!(!tracing_enabled());
            publish(vec![TraceEvent::Pick { link: 99 }]);
        })
        .join()
        .unwrap();
        let mut scope = TraceScope::begin();
        assert!(scope.active());
        for e in sample_block() {
            scope.push(e);
        }
        scope.finish();
        let mut scratch = vec![TraceEvent::Pick { link: 7 }];
        publish_from(&mut scratch);
        assert!(scratch.is_empty());
        let trace = capture.finish();
        let mut want = sample_block();
        want.push(TraceEvent::Pick { link: 7 });
        assert_eq!(trace.events, want);
        assert!(!tracing_enabled());
        // The other thread's block went to the ring; the capture's did
        // not, because global tracing is off.
        assert_eq!(take_trace().events, vec![TraceEvent::Pick { link: 99 }]);
    }

    #[test]
    fn thread_capture_republishes_under_global_tracing() {
        let _guard = lock();
        set_tracing(true);
        take_trace();
        let capture = ThreadCapture::begin();
        publish(sample_block());
        assert_eq!(capture.finish().events, sample_block());
        set_tracing(false);
        assert_eq!(take_trace().events, sample_block());
    }

    #[test]
    fn dropped_capture_closes_cleanly() {
        let _guard = lock();
        set_tracing(false);
        drop(ThreadCapture::begin());
        assert!(!tracing_enabled());
        // A fresh capture may open on the same thread.
        assert!(ThreadCapture::begin().finish().events.is_empty());
    }

    #[test]
    fn ring_overflow_marks_the_trace_truncated() {
        let _guard = lock();
        set_tracing(true);
        take_trace();
        set_trace_capacity(4);
        publish(sample_block()); // 6 records into a 4-slot ring
        set_trace_capacity(DEFAULT_TRACE_CAPACITY);
        set_tracing(false);
        let trace = take_trace();
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.dropped, 2);
        assert!(!trace.is_complete());
        // The truncation survives the JSONL round trip.
        let back = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(back.dropped, 2);
    }

    #[test]
    fn blocks_split_on_start_records() {
        let mut events = sample_block();
        events.push(TraceEvent::SlotEnd {
            slot: 0,
            links: vec![1],
        });
        events.extend(sample_block());
        let trace = Trace { events, dropped: 0 };
        let blocks = trace.blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].len(), sample_block().len() + 1);
        assert_eq!(blocks[1].len(), sample_block().len());
        assert!(matches!(blocks[1][0], TraceEvent::ElimStart { .. }));
    }

    #[test]
    fn cause_taxonomy_serializes_as_plain_strings() {
        let line = serde_json::to_string(&TraceEvent::Eliminate {
            link: 7,
            cause: ElimCause::ClassFiltered,
            by: None,
        })
        .unwrap();
        assert!(line.contains("\"ClassFiltered\""), "{line}");
        assert!(line.contains("null"), "{line}");
        let back: TraceEvent = serde_json::from_str(&line).unwrap();
        assert!(matches!(
            back,
            TraceEvent::Eliminate {
                link: 7,
                cause: ElimCause::ClassFiltered,
                by: None
            }
        ));
    }
}
