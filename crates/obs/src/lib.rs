//! Lightweight observability for the fading-rls workspace.
//!
//! Four small, dependency-free pieces (only the vendored `serde` /
//! `serde_json` are used, for output encoding):
//!
//! * **Metrics** ([`metrics`]) — a global registry of named counters,
//!   gauges, and fixed-bucket histograms. Counters are sharded across
//!   cache-line-padded atomics indexed by thread, so a hot-loop
//!   increment is one relaxed atomic op with no cross-thread
//!   contention; shards are merged when a [`MetricsSnapshot`] is taken.
//!   Metric names follow `<crate>.<component>.<metric>`
//!   (e.g. `core.rle.eliminations`, `sim.mc.trials`).
//! * **Spans** ([`span!`]) — RAII wall-clock timers. `span!("name")`
//!   returns a guard; nested guards on the same thread build a
//!   hierarchical timing tree keyed by dotted paths, summarized by
//!   [`span_snapshot`].
//! * **Events & manifests** ([`events`], [`manifest`]) — an optional
//!   JSONL sink for structured events, and a [`RunManifest`] capturing
//!   one run's configuration, seed, git version, build profile, wall
//!   time, metric snapshot, and span tree as a single JSON document.
//! * **Progress** ([`progress`]) — a throttled stderr reporter for
//!   long sweeps (`point 3/12 · scheduler=RLE · 48k trials/s ·
//!   ETA 00:41`), globally switched by [`set_progress`] so library
//!   code can report unconditionally and stay silent by default.
//! * **Decision traces** ([`trace`]) — typed, replayable records of
//!   scheduler decisions (`Pick`, `Eliminate {cause}`, `BudgetDebit`,
//!   `ClassColorChosen`), ring-buffered and zero-cost when disabled;
//!   [`hash`] fingerprints the resulting artifacts for the manifest.
//! * **Slot time-series** ([`timeseries`]) — a bounded ring-buffered
//!   per-slot recorder for the online engine, streamed to JSONL with
//!   zero steady-state allocation (deterministic by default, measured
//!   phase timings opt-in).
//! * **Flight recorder** ([`flight`]) — a black box retaining the
//!   last K slot records plus their trace events, with an anomaly
//!   detector (stall / queue growth / conservation / zero delivery)
//!   that dumps a replayable post-mortem bundle when it fires.
//! * **Exposition** ([`exposition`]) — a Prometheus-text-format
//!   renderer for [`MetricsSnapshot`] (`--prom-out`).
//!
//! Everything is safe to call from `rayon` worker threads. The
//! registry is process-global: snapshots taken while writers are
//! active are internally consistent per metric but not a cross-metric
//! barrier.

pub mod events;
pub mod exposition;
pub mod flight;
pub mod hash;
pub mod manifest;
pub mod metrics;
pub mod phase;
pub mod progress;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use events::{emit_event, set_event_sink, EventValue};
pub use exposition::render_prometheus;
pub use flight::{
    Anomaly, AnomalyDetector, FlightConfig, FlightRecorder, PostmortemPaths, POSTMORTEM_VERSION,
};
pub use hash::{sha256, sha256_hex};
pub use manifest::{Artifact, ManifestBuilder, RunManifest};
pub use metrics::{
    counter, gauge, histogram, reset_metrics, snapshot, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricsSnapshot,
};
pub use phase::PhaseTimer;
pub use progress::{progress_enabled, set_progress, Progress};
pub use span::{reset_spans, span_snapshot, Span, SpanNode};
pub use timeseries::{SeriesConfig, SlotRecord, SlotSeries};
pub use trace::{
    set_trace_capacity, set_tracing, take_trace, tracing_enabled, ElimCause, ThreadCapture, Trace,
    TraceEvent, TraceScope,
};

/// Returns a `&'static Counter` for `$name`, resolving the registry
/// lookup once per call site. The hot path after initialization is a
/// single atomic load plus one relaxed `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __COUNTER: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        __COUNTER.get_or_init(|| $crate::counter($name))
    }};
}

/// Opens a timing span; bind the result to keep it alive:
/// `let _span = obs::span!("ldp.partition");`. Dots in the name create
/// levels in the reported tree, as does lexical nesting of guards.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
}
