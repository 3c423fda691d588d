//! The online scheduling engine: the per-slot loop of the queueing
//! model, under optional link churn.
//!
//! A [`ChurnEngine`] runs the loop on a live, incrementally mutated
//! [`Problem`]: Poisson link arrivals, exponential link lifetimes,
//! Bernoulli packet arrivals on the live links, per-slot scheduling of
//! the backlogged links under a [`ServicePolicy`], and Rayleigh
//! channel realizations deciding delivery — all seeded and
//! deterministic. A fixed population (the plain queueing model over a
//! caller's instance) is the same engine with `link_arrival_rate: 0.0`
//! and `mean_lifetime: f64::INFINITY`. Each slot's topology changes are
//! one transaction: the engine queues departures and arrivals into a
//! [`MutationBatch`] and commits it with a single [`Problem::apply`]
//! (one envelope reconciliation, one spatial-index patch pass — never a
//! rebuild); departures are named by the problem's stable external
//! handles, which survive the dense renumbering. Each busy slot
//! schedules the live problem itself with the backlog as the [`Scope`]
//! (queue lengths as its weights under MaxWeight). See
//! `docs/online.md`.

use crate::slot::simulate_slot;
use fading_core::{LinkSpec, MutationBatch, MutationError, Problem, SchedCtx, Scheduler, Scope};
use fading_math::{seeded_rng, split_seed, OnlineStats};
use fading_net::{Link, LinkId, LinkSet, UniformGenerator};
use fading_obs::{
    FlightConfig, FlightRecorder, Histogram, PhaseTimer, SlotRecord, SlotSeries, TraceEvent,
};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Configuration of a churn run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Number of simulated slots.
    pub slots: u64,
    /// Mean new links per slot (Poisson).
    pub link_arrival_rate: f64,
    /// Mean link lifetime in slots (exponential, ≥ 1 slot realized).
    pub mean_lifetime: f64,
    /// Per-live-link probability of one packet arrival per slot.
    pub packet_prob: f64,
    /// RNG seed; topology, packet, and channel streams derive from it.
    pub seed: u64,
}

impl ChurnConfig {
    /// Offered steady-state population `initial + λ·E[lifetime]`-ish
    /// sanity check helper: the equilibrium population of the M/G/∞
    /// arrival process alone (ignores the seed population draining).
    pub fn equilibrium_population(&self) -> f64 {
        self.link_arrival_rate * self.mean_lifetime
    }
}

/// How per-slot service decisions weigh the backlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServicePolicy {
    /// Schedule the backlogged links with their own rates (the paper's
    /// objective applied per slot).
    PlainRates,
    /// MaxWeight / backpressure: rate of each backlogged link is its
    /// queue length, so the scheduler chases the longest queues — the
    /// classic throughput-optimal policy of Tassiulas–Ephremides.
    MaxWeight,
}

/// What one [`ChurnEngine::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChurnSlot {
    /// Slot index.
    pub slot: u64,
    /// Links that joined this slot.
    pub link_arrivals: u32,
    /// Links that departed this slot.
    pub link_departures: u32,
    /// Live links after churn.
    pub population: u32,
    /// Links scheduled for transmission.
    pub scheduled: u32,
    /// Packets that arrived this slot.
    pub packets_arrived: u32,
    /// Packets delivered.
    pub delivered: u32,
    /// Packets dropped with links that departed this slot.
    pub packets_abandoned: u64,
    /// Total backlog after service.
    pub backlog: u64,
}

/// Aggregate results of a churn run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChurnResult {
    /// Simulated horizon.
    pub slots: u64,
    /// Links that joined over the run.
    pub links_arrived: u64,
    /// Links that departed over the run.
    pub links_departed: u64,
    /// Time-averaged live population.
    pub mean_population: f64,
    /// Live links when the run ended.
    pub final_population: usize,
    /// Packets that arrived.
    pub packets_arrived: u64,
    /// Packets delivered.
    pub packets_delivered: u64,
    /// Packets dropped because their link departed while they queued.
    pub packets_abandoned: u64,
    /// Time-averaged total backlog (after service, per slot).
    pub mean_backlog: f64,
    /// Largest backlog observed.
    pub max_backlog: u64,
    /// Backlog remaining at the end.
    pub final_backlog: u64,
    /// Sustained engine throughput: slots per wall-clock second over
    /// the whole run (churn + scheduling + channel realization).
    pub slots_per_sec: f64,
}

impl ChurnResult {
    /// Packet conservation: everything that arrived was delivered,
    /// abandoned with a departing link, or still queued.
    pub fn conserves_packets(&self) -> bool {
        self.packets_arrived == self.packets_delivered + self.packets_abandoned + self.final_backlog
    }

    /// Delivered throughput in packets/slot over the run's horizon.
    pub fn delivered_per_slot(&self) -> f64 {
        if self.slots == 0 {
            return 0.0;
        }
        self.packets_delivered as f64 / self.slots as f64
    }

    /// Coarse drift verdict for frontier sweeps: `"growing"` when the
    /// run ends with a backlog well above its own time average (the
    /// signature of an unstable queue under Ásgeirsson–Halldórsson–
    /// Mitra's stability lens), `"stable"` otherwise. A heuristic for
    /// progress lines, not a proof of (in)stability.
    pub fn drift_verdict(&self) -> &'static str {
        if self.final_backlog > 10 && self.final_backlog as f64 > 2.0 * self.mean_backlog {
            "growing"
        } else {
            "stable"
        }
    }
}

/// Per-link engine state, indexed by dense id: `Problem::apply`'s
/// renumbering (descending `swap_remove`s, then appends) is mirrored on
/// the `Vec`.
#[derive(Debug)]
struct LinkState {
    /// FIFO of packet arrival slots.
    queue: VecDeque<u64>,
    /// First slot at which the link is gone.
    departs_at: u64,
}

/// Phase indices for the per-slot attribution (see [`PhaseTimer`]).
/// `mutate` is building the slot's transaction (departure scan +
/// arrival sampling); `commit` is [`Problem::apply`] plus the engine
/// state bookkeeping the receipt drives; `restrict` keeps its name but
/// times filling the slot's scheduling weights.
const PH_MUTATE: usize = 0;
const PH_COMMIT: usize = 1;
const PH_ENVELOPE: usize = 2;
const PH_RESTRICT: usize = 3;
const PH_SCHEDULE: usize = 4;
const PH_SERVICE: usize = 5;
/// Number of attributed phases.
const PHASES: usize = 6;
const PHASE_NAMES: [&str; PHASES] = [
    "mutate", "commit", "envelope", "restrict", "schedule", "service",
];

/// Static, pre-registered histogram names for the six phases —
/// resolved once at arm time so the hot path never touches the
/// registry lock.
const PHASE_HIST_NAMES: [&str; PHASES] = [
    "churn.phase.mutate",
    "churn.phase.commit",
    "churn.phase.envelope",
    "churn.phase.restrict",
    "churn.phase.schedule",
    "churn.phase.service",
];

/// Nanosecond bucket bounds for the phase histograms: 1 µs → 10 s in
/// decades, fine enough to separate the `O(N)` walks from the
/// scheduler at any instance size the engine runs.
const PHASE_HIST_BOUNDS: [f64; 8] = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10];

/// The flight-recorder side of the engine's telemetry: the obs-layer
/// black box plus the engine-owned pieces it cannot know about — the
/// dump directory and the last busy slot's candidates (needed to make
/// the post-mortem trace replayable).
struct FlightBox {
    rec: FlightRecorder,
    out_dir: Option<PathBuf>,
    /// The most recent busy slot's candidates as a stand-alone link set
    /// (candidate `p` is link `p`, its slot weight as its rate): the
    /// instance the recorded trace, renumbered the same way, replays on.
    last_slot: Option<LinkSet>,
    /// Where the post-mortem bundle landed, once an anomaly fired.
    postmortem: Option<PathBuf>,
}

/// Live telemetry armed onto a [`ChurnEngine`]: optional slot series,
/// optional flight recorder, pre-registered phase histograms, and the
/// cumulative totals the anomaly detector audits.
pub struct ChurnTelemetry {
    series: Option<SlotSeries>,
    flight: Option<FlightBox>,
    phase_hists: [Histogram; PHASES],
    slot_hist: Histogram,
    /// Cumulative per-phase ns, for the live phase-split view.
    phase_totals: [u64; PHASES],
    slot_ns_total: u64,
    /// Cumulative packet totals for the conservation audit.
    arrived_total: u64,
    delivered_total: u64,
    abandoned_total: u64,
    health: &'static str,
}

impl std::fmt::Debug for ChurnTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChurnTelemetry")
            .field("health", &self.health)
            .field("phase_totals", &self.phase_totals)
            .field("series", &self.series.is_some())
            .field("flight", &self.flight.is_some())
            .finish_non_exhaustive()
    }
}

impl ChurnTelemetry {
    fn new() -> Self {
        Self {
            series: None,
            flight: None,
            phase_hists: std::array::from_fn(|i| {
                fading_obs::histogram(PHASE_HIST_NAMES[i], &PHASE_HIST_BOUNDS)
            }),
            slot_hist: fading_obs::histogram("churn.slot_ns", &PHASE_HIST_BOUNDS),
            phase_totals: [0; PHASES],
            slot_ns_total: 0,
            arrived_total: 0,
            delivered_total: 0,
            abandoned_total: 0,
            health: "ok",
        }
    }

    /// The armed slot series, if any.
    pub fn series(&self) -> Option<&SlotSeries> {
        self.series.as_ref()
    }

    /// `"ok"`, or the tag of the anomaly that fired.
    pub fn health(&self) -> &'static str {
        self.health
    }

    /// Directory the post-mortem bundle was written to, if one was.
    pub fn postmortem(&self) -> Option<&Path> {
        self.flight.as_ref().and_then(|f| f.postmortem.as_deref())
    }

    /// Cumulative per-phase share of attributed time, as integer
    /// percentages in phase order (mutate, commit, envelope, restrict,
    /// schedule, service). Zero until the first timed slot.
    pub fn phase_split(&self) -> [u32; PHASES] {
        let total: u64 = self.phase_totals.iter().sum();
        if total == 0 {
            return [0; PHASES];
        }
        std::array::from_fn(|i| (self.phase_totals[i] * 100 / total) as u32)
    }

    /// Renders the live detail line for the watch view: phase split
    /// plus health, appended to the population/backlog basics.
    fn watch_detail(&self, out: &mut String, population: u32, backlog: u64) {
        let split = self.phase_split();
        let _ = write!(out, "pop {population} backlog {backlog} · ");
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            let _ = write!(out, "{}{}%", &name[..2], split[i]);
            if i + 1 < PHASE_NAMES.len() {
                out.push('/');
            }
        }
        let _ = write!(out, " · {}", self.health);
    }
}

/// Declarative telemetry selection for [`ChurnEngine::arm`]: choose a
/// slot series, a flight recorder, both, or neither (bare phase
/// attribution) and arm the whole bundle in one call.
///
/// ```ignore
/// engine.arm(
///     TelemetryConfig::new()
///         .series(SlotSeries::in_memory(SeriesConfig::default()))
///         .flight(FlightConfig::default(), Some(out_dir)),
/// );
/// ```
#[derive(Default)]
pub struct TelemetryConfig {
    series: Option<SlotSeries>,
    flight: Option<(FlightConfig, Option<PathBuf>)>,
}

impl TelemetryConfig {
    /// An empty config — arming it still switches the engine onto the
    /// timed path (phase attribution + histograms), nothing more.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a slot-series recorder.
    pub fn series(mut self, series: SlotSeries) -> Self {
        self.series = Some(series);
        self
    }

    /// Attaches a flight recorder. `out_dir` is where the post-mortem
    /// bundle lands when the anomaly detector fires (`None` detects
    /// but never dumps). When `cfg.capture_trace` is on the engine runs
    /// its scheduler traced each slot through a
    /// [`fading_obs::ThreadCapture`]: only the stepping thread's blocks
    /// are captured, and under global tracing (`--trace-out`) they
    /// still reach the global ring too.
    pub fn flight(mut self, cfg: FlightConfig, out_dir: Option<PathBuf>) -> Self {
        self.flight = Some((cfg, out_dir));
        self
    }
}

/// A long-running scheduling engine over a live, churning instance.
///
/// Owns the mutable [`Problem`] (with its stable link handles), all
/// per-link queues, and a warm [`SchedCtx`]. Drive it one
/// [`step`](Self::step) at a time (the CLI's progress loop does) or
/// use [`run`](Self::run) for a whole horizon.
#[derive(Debug)]
pub struct ChurnEngine {
    problem: Problem,
    states: Vec<LinkState>,
    geometry: UniformGenerator,
    cfg: ChurnConfig,
    /// Topology stream: arrival counts, positions, lifetimes.
    churn_rng: StdRng,
    /// Packet-arrival stream, separate so arrival patterns don't shift
    /// when churn parameters change.
    packet_rng: StdRng,
    ctx: SchedCtx,
    slot: u64,
    // scratch buffers reused across slots
    batch: MutationBatch,
    departing: Vec<LinkId>,
    arrival_departs: Vec<u64>,
    /// The slot's scope: backlogged links, ascending.
    backlogged: Vec<LinkId>,
    /// MaxWeight weights by live id (only backlogged entries are read).
    weights: Vec<f64>,
    /// Live telemetry (slot series / flight recorder / phase
    /// attribution); `None` keeps the hot loop on the untimed path.
    telemetry: Option<Box<ChurnTelemetry>>,
    /// Scratch for the watch-view detail line.
    detail: String,
}

impl ChurnEngine {
    /// Builds the engine over a seed instance (its links are the slot-0
    /// population; lifetimes for them are sampled like any arrival's).
    /// `geometry` shapes arriving links: sender uniform in its region,
    /// length `U[len_lo, len_hi]`, uniform direction — the same law the
    /// seed generator uses. Everything the problem was configured with
    /// (ε, channel, backend, power scales) rides along through the
    /// in-place mutations.
    ///
    /// # Panics
    /// Panics on a non-finite/negative arrival rate, a lifetime below
    /// one slot, `packet_prob` outside `[0, 1]`, or `slots == 0`.
    pub fn new(problem: Problem, geometry: UniformGenerator, cfg: ChurnConfig) -> Self {
        assert!(
            cfg.link_arrival_rate.is_finite() && cfg.link_arrival_rate >= 0.0,
            "link arrival rate must be finite and non-negative"
        );
        assert!(
            cfg.mean_lifetime >= 1.0,
            "mean lifetime must be at least one slot"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.packet_prob),
            "packet probability must be in [0,1]"
        );
        assert!(cfg.slots > 0, "need at least one slot");
        let n0 = problem.len();
        let mut churn_rng = seeded_rng(split_seed(cfg.seed, 0));
        let packet_rng = seeded_rng(split_seed(cfg.seed, 1));
        let states = (0..n0)
            .map(|_| LinkState {
                queue: VecDeque::new(),
                departs_at: exponential_departure(0, cfg.mean_lifetime, &mut churn_rng),
            })
            .collect();
        let mut ctx = SchedCtx::new();
        ctx.prepare(n0);
        Self {
            problem,
            states,
            geometry,
            cfg,
            churn_rng,
            packet_rng,
            ctx,
            slot: 0,
            batch: MutationBatch::new(),
            departing: Vec::new(),
            arrival_departs: Vec::new(),
            backlogged: Vec::new(),
            weights: Vec::new(),
            telemetry: None,
            detail: String::new(),
        }
    }

    /// The live instance (mutated in place across steps).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Arms live telemetry as declared by one [`TelemetryConfig`].
    /// Arming anything — even an empty config — switches the engine
    /// onto the timed path (phase attribution + histograms). Calling
    /// again merges: components present in `cfg` replace their armed
    /// counterparts, absent ones are left as they are.
    pub fn arm(&mut self, cfg: TelemetryConfig) {
        let tel = self
            .telemetry
            .get_or_insert_with(|| Box::new(ChurnTelemetry::new()));
        if let Some(series) = cfg.series {
            tel.series = Some(series);
        }
        if let Some((fcfg, out_dir)) = cfg.flight {
            tel.flight = Some(FlightBox {
                rec: FlightRecorder::new(fcfg),
                out_dir,
                last_slot: None,
                postmortem: None,
            });
        }
    }

    /// The armed telemetry, if any.
    pub fn telemetry(&self) -> Option<&ChurnTelemetry> {
        self.telemetry.as_deref()
    }

    /// `"ok"`, or the tag of the anomaly that fired.
    pub fn health(&self) -> &'static str {
        self.telemetry.as_ref().map_or("ok", |t| t.health)
    }

    /// Detaches and returns the telemetry (flushing the series), e.g.
    /// to inspect the ring after a hand-driven step loop.
    pub fn take_telemetry(&mut self) -> Option<Box<ChurnTelemetry>> {
        let mut tel = self.telemetry.take();
        if let Some(t) = tel.as_mut() {
            if let Some(s) = t.series.as_mut() {
                let _ = s.flush();
            }
        }
        tel
    }

    /// Number of live links.
    pub fn population(&self) -> usize {
        self.problem.len()
    }

    /// Current slot index (number of completed steps).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Advances one slot: departures → arrivals → packet arrivals →
    /// schedule the backlogged links → channel realization → service.
    pub fn step<S: Scheduler + ?Sized>(
        &mut self,
        scheduler: &S,
        policy: ServicePolicy,
    ) -> ChurnSlot {
        let _span = fading_obs::span!("sim.churn.slot");
        let armed = self.telemetry.is_some();
        // Trace capture (flight recorder only): the slot's scheduling
        // is traced on this thread alone, whatever other threads do.
        let capture = self
            .telemetry
            .as_ref()
            .and_then(|t| t.flight.as_ref())
            .is_some_and(|f| f.rec.wants_trace());
        let mut timer = PhaseTimer::<PHASES>::start(armed);
        let t = self.slot;
        let mut abandoned = 0u64;

        // Build the slot's transaction. Departures: collect expired
        // links in dense order (the only deterministic iteration
        // order), queued by external id. Arrivals: Poisson count,
        // geometry sampled exactly like the seed generator's (sender
        // uniform in the region, length U[lo, hi], uniform direction).
        self.batch.clear();
        self.departing.clear();
        self.arrival_departs.clear();
        for (dense, state) in self.states.iter().enumerate() {
            if state.departs_at <= t {
                let dense = LinkId(dense as u32);
                self.batch.remove(self.problem.external(dense));
                self.departing.push(dense);
            }
        }
        let link_departures = self.departing.len() as u32;
        let arrivals = poisson(self.cfg.link_arrival_rate, &mut self.churn_rng);
        for _ in 0..arrivals {
            let departs_at = exponential_departure(t, self.cfg.mean_lifetime, &mut self.churn_rng);
            let spec = sample_spec(&self.geometry, &mut self.churn_rng);
            self.batch.add(spec);
            self.arrival_departs.push(departs_at);
        }
        timer.lap(PH_MUTATE);

        // Commit it: one `Problem::apply` — one envelope
        // reconciliation and one spatial-index patch pass for the whole
        // slot, the external handles renumbered inside the same
        // transaction.
        // Coordinate collisions are measure-zero but possible under
        // adversarial seeds; resample exactly the rejected slot.
        if !self.batch.is_empty() {
            let mut tries = 0;
            loop {
                match self.problem.apply(&self.batch) {
                    Ok(_) => break,
                    Err(MutationError::InvalidAdd { slot, .. }) => {
                        tries += 1;
                        assert!(tries < 100, "could not place an arriving link");
                        let spec = sample_spec(&self.geometry, &mut self.churn_rng);
                        self.batch.replace_add(slot, spec);
                    }
                    Err(e) => unreachable!("engine removes only live externals: {e}"),
                }
            }
            // `departing` is ascending, so reversed it is apply's order.
            for dense in self.departing.iter().rev() {
                abandoned += self.states.swap_remove(dense.index()).queue.len() as u64;
            }
            self.states
                .extend(self.arrival_departs.iter().map(|&departs_at| LinkState {
                    queue: VecDeque::new(),
                    departs_at,
                }));
            debug_assert_eq!(self.states.len(), self.problem.len());
            if link_departures > 0 {
                fading_obs::counter!("sim.churn.link_departures").add(link_departures as u64);
            }
            if arrivals > 0 {
                fading_obs::counter!("sim.churn.link_arrivals").add(arrivals as u64);
            }
        }
        timer.lap(PH_COMMIT);

        // Packet arrivals on the live population, dense order.
        let mut packets_arrived = 0u32;
        for state in &mut self.states {
            if self.packet_rng.gen::<f64>() < self.cfg.packet_prob {
                state.queue.push_back(t);
                packets_arrived += 1;
            }
        }

        // Schedule the backlogged links and realize the channel.
        self.backlogged.clear();
        for (dense, state) in self.states.iter().enumerate() {
            if !state.queue.is_empty() {
                self.backlogged.push(LinkId(dense as u32));
            }
        }
        timer.lap(PH_ENVELOPE);
        let backlogged_count = self.backlogged.len() as u32;
        let mut scheduled = 0u32;
        let mut delivered = 0u32;
        let mut slot_for_flight: Option<LinkSet> = None;
        let mut trace_events: Vec<TraceEvent> = Vec::new();
        if !self.backlogged.is_empty() {
            let thread_capture = capture.then(fading_obs::ThreadCapture::begin);
            // Bracket the scheduler's trace block with the slot number
            // and backlog, and the links it committed.
            let tracing = fading_obs::tracing_enabled();
            if tracing {
                fading_obs::trace::publish(vec![TraceEvent::SlotStart {
                    slot: t,
                    backlog: backlogged_count,
                }]);
            }
            let mut scope = Scope::candidates(&self.backlogged);
            if policy == ServicePolicy::MaxWeight {
                self.weights.resize(self.states.len(), 0.0);
                for &id in &self.backlogged {
                    self.weights[id.index()] =
                        (self.states[id.index()].queue.len() as f64).max(1e-9);
                }
                scope = scope.weighted(&self.weights);
            }
            timer.lap(PH_RESTRICT);
            let schedule = scheduler.schedule_in(&self.problem, scope, &mut self.ctx);
            timer.lap(PH_SCHEDULE);
            scheduled = schedule.len() as u32;
            let mut channel_rng = seeded_rng(split_seed(self.cfg.seed, t + 2));
            let outcome = simulate_slot(&self.problem, &schedule, &mut channel_rng);
            for id in outcome.successes {
                if self.states[id.index()].queue.pop_front().is_some() {
                    delivered += 1;
                }
            }
            if tracing {
                fading_obs::trace::publish(vec![TraceEvent::SlotEnd {
                    slot: t,
                    links: schedule.iter().map(|id| id.0).collect(),
                }]);
            }
            if let Some(c) = thread_capture {
                trace_events = c.finish().events;
                renumber_to_scope(&mut trace_events, &self.backlogged);
                slot_for_flight = Some(scope_links(&self.problem, scope));
            }
            self.ctx.recycle(schedule);
            timer.lap(PH_SERVICE);
        }

        let backlog: u64 = self.states.iter().map(|s| s.queue.len() as u64).sum();
        timer.lap(PH_ENVELOPE);
        self.slot = t + 1;
        let out = ChurnSlot {
            slot: t,
            link_arrivals: arrivals,
            link_departures,
            population: self.problem.len() as u32,
            scheduled,
            packets_arrived,
            delivered,
            packets_abandoned: abandoned,
            backlog,
        };
        if armed {
            let rec = SlotRecord {
                slot: t,
                population: out.population as u64,
                arrivals: arrivals as u64,
                departures: link_departures as u64,
                backlogged: backlogged_count as u64,
                scheduled: scheduled as u64,
                eliminated: (backlogged_count - scheduled) as u64,
                packets: packets_arrived as u64,
                delivered: delivered as u64,
                abandoned,
                backlog,
                mutate_ns: timer.phase_ns()[PH_MUTATE],
                commit_ns: timer.phase_ns()[PH_COMMIT],
                envelope_ns: timer.phase_ns()[PH_ENVELOPE],
                restrict_ns: timer.phase_ns()[PH_RESTRICT],
                schedule_ns: timer.phase_ns()[PH_SCHEDULE],
                service_ns: timer.phase_ns()[PH_SERVICE],
                slot_ns: timer.total_ns(),
            };
            self.finish_slot_telemetry(rec, trace_events, slot_for_flight);
        }
        out
    }

    /// The telemetry tail of one slot: series, histograms, anomaly
    /// detection, and (at most once) the post-mortem dump.
    fn finish_slot_telemetry(
        &mut self,
        rec: SlotRecord,
        trace_events: Vec<TraceEvent>,
        slot_links: Option<LinkSet>,
    ) {
        let Some(tel) = self.telemetry.as_deref_mut() else {
            return;
        };
        for (i, h) in tel.phase_hists.iter().enumerate() {
            h.record(timer_ns(&rec, i) as f64);
        }
        tel.slot_hist.record(rec.slot_ns as f64);
        for i in 0..PHASES {
            tel.phase_totals[i] += timer_ns(&rec, i);
        }
        tel.slot_ns_total += rec.slot_ns;
        tel.arrived_total += rec.packets;
        tel.delivered_total += rec.delivered;
        tel.abandoned_total += rec.abandoned;
        if let Some(series) = tel.series.as_mut() {
            series.record(&rec);
        }
        if let Some(flight) = tel.flight.as_mut() {
            let conserved_ok =
                tel.arrived_total == tel.delivered_total + tel.abandoned_total + rec.backlog;
            let conserved = Some((
                conserved_ok,
                tel.arrived_total,
                tel.delivered_total,
                tel.abandoned_total,
                rec.backlog,
            ));
            if slot_links.is_some() {
                flight.last_slot = slot_links;
            }
            if let Some(anomaly) = flight.rec.observe(&rec, trace_events, conserved) {
                tel.health = anomaly.tag();
                if let Some(dir) = flight.out_dir.clone() {
                    match flight.rec.dump(&dir, &anomaly) {
                        Ok(_paths) => {
                            write_replay_instance(&dir, flight.last_slot.as_ref(), &self.problem);
                            flight.postmortem = Some(dir);
                        }
                        Err(e) => eprintln!("flight recorder: dump failed: {e}"),
                    }
                }
            }
        }
    }

    /// Runs the configured horizon and aggregates, timing the loop for
    /// the sustained slots/sec figure. With telemetry armed the
    /// progress line grows a live phase split and health state (the
    /// `--watch` view); query [`telemetry`](Self::telemetry) afterwards
    /// for the series ring and any post-mortem location.
    pub fn run<S: Scheduler + ?Sized>(
        &mut self,
        scheduler: &S,
        policy: ServicePolicy,
    ) -> ChurnResult {
        let _span = fading_obs::span!("sim.churn.run");
        let progress = fading_obs::Progress::new("churn", "slots", self.cfg.slots);
        let mut population = OnlineStats::new();
        let mut backlog_stats = OnlineStats::new();
        let mut out = ChurnResult {
            slots: self.cfg.slots,
            links_arrived: 0,
            links_departed: 0,
            mean_population: 0.0,
            final_population: 0,
            packets_arrived: 0,
            packets_delivered: 0,
            packets_abandoned: 0,
            mean_backlog: 0.0,
            max_backlog: 0,
            final_backlog: 0,
            slots_per_sec: 0.0,
        };
        let started = std::time::Instant::now();
        for _ in 0..self.cfg.slots {
            let slot = self.step(scheduler, policy);
            out.links_arrived += slot.link_arrivals as u64;
            out.links_departed += slot.link_departures as u64;
            out.packets_arrived += slot.packets_arrived as u64;
            out.packets_delivered += slot.delivered as u64;
            out.packets_abandoned += slot.packets_abandoned;
            out.max_backlog = out.max_backlog.max(slot.backlog);
            out.final_backlog = slot.backlog;
            population.push(slot.population as f64);
            backlog_stats.push(slot.backlog as f64);
            let mut detail = std::mem::take(&mut self.detail);
            detail.clear();
            if let Some(tel) = self.telemetry.as_deref() {
                tel.watch_detail(&mut detail, slot.population, slot.backlog);
            } else {
                let _ = write!(detail, "pop {} backlog {}", slot.population, slot.backlog);
            }
            progress.report(slot.slot + 1, &detail, slot.slot + 1);
            self.detail = detail;
        }
        let elapsed = started.elapsed().as_secs_f64();
        out.mean_population = population.mean();
        out.mean_backlog = backlog_stats.mean();
        out.final_population = self.population();
        out.slots_per_sec = if elapsed > 0.0 {
            self.cfg.slots as f64 / elapsed
        } else {
            f64::INFINITY
        };
        if let Some(tel) = self.telemetry.as_deref_mut() {
            if let Some(series) = tel.series.as_mut() {
                if let Err(e) = series.flush() {
                    eprintln!("{e}");
                }
            }
        }
        out
    }
}

/// Maps a phase index to its field in a [`SlotRecord`].
fn timer_ns(rec: &SlotRecord, phase: usize) -> u64 {
    match phase {
        PH_MUTATE => rec.mutate_ns,
        PH_COMMIT => rec.commit_ns,
        PH_ENVELOPE => rec.envelope_ns,
        PH_RESTRICT => rec.restrict_ns,
        PH_SCHEDULE => rec.schedule_ns,
        _ => rec.service_ns,
    }
}

#[derive(Serialize)]
struct ReplayMeta {
    params: fading_channel::ChannelParams,
    epsilon: f64,
    backend: String,
}

/// Renumbers the scheduler blocks of a captured slot trace from live
/// ids to positions in `candidates` (ascending, so the renumbering is
/// monotone and the block is exactly the one the scheduler emits on a
/// fresh build of the candidates). Slot markers keep live ids.
fn renumber_to_scope(events: &mut [TraceEvent], candidates: &[LinkId]) {
    let pos = |id: &mut u32| {
        *id = candidates
            .binary_search(&LinkId(*id))
            .expect("a scoped trace names only candidates") as u32;
    };
    for e in events {
        match e {
            TraceEvent::Pick { link } | TraceEvent::Eliminate { link, by: None, .. } => pos(link),
            TraceEvent::Eliminate {
                link, by: Some(by), ..
            }
            | TraceEvent::BudgetDebit {
                receiver: link,
                from: by,
                ..
            } => {
                pos(link);
                pos(by);
            }
            TraceEvent::End { scheduled } => scheduled.iter_mut().for_each(pos),
            // Headers, choices and slot markers name no candidate.
            _ => {}
        }
    }
}

/// The scope's candidates as a stand-alone link set: candidate `p`
/// becomes link `p`, carrying its scope weight as its rate.
fn scope_links(problem: &Problem, scope: Scope<'_>) -> LinkSet {
    let candidates = scope.list().expect("the engine schedules a candidate list");
    let (sliced, _) = problem.links().restrict(candidates);
    let links = sliced
        .links()
        .iter()
        .zip(candidates)
        .map(|(l, &id)| Link {
            rate: scope.weight(problem, id),
            ..*l
        })
        .collect();
    LinkSet::new(*sliced.region(), links)
}

/// Writes the anomaly slot's candidates next to the post-mortem bundle
/// (`replay_instance.json` + `replay_meta.json`), so
/// `replay_trace.jsonl` can be replayed against a faithful rebuild:
/// `Problem::builder(load(instance), meta.params).epsilon(meta.epsilon)`.
/// The instance carries the slot's weights as rates, which grid replays
/// recompute square winners from. Best-effort: a failed write degrades
/// the bundle, it doesn't kill the run.
fn write_replay_instance(dir: &Path, links: Option<&LinkSet>, problem: &Problem) {
    let Some(links) = links else {
        return;
    };
    let inst = dir.join("replay_instance.json");
    if let Err(e) = fading_net::io::save(links, &inst) {
        eprintln!("flight recorder: cannot write {}: {e}", inst.display());
        return;
    }
    let meta = ReplayMeta {
        params: *problem.params(),
        epsilon: problem.epsilon(),
        backend: format!("{:?}", problem.backend_choice()),
    };
    let path = dir.join("replay_meta.json");
    match serde_json::to_string_pretty(&meta) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("flight recorder: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("flight recorder: meta encode failed: {e}"),
    }
}

/// One run per offered load: the backlog-vs-arrival-rate stability
/// frontier (EXPERIMENTS.md §stability). Each entry pairs the packet
/// arrival probability with the full run result; the frontier is where
/// `mean_backlog` turns from flat to linear growth.
pub fn stability_frontier<S: Scheduler + ?Sized>(
    problem: &Problem,
    geometry: UniformGenerator,
    base: ChurnConfig,
    scheduler: &S,
    policy: ServicePolicy,
    packet_probs: &[f64],
) -> Vec<(f64, ChurnResult)> {
    let progress =
        fading_obs::Progress::new("frontier", "slots", base.slots * packet_probs.len() as u64);
    packet_probs
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let cfg = ChurnConfig {
                packet_prob: p,
                ..base
            };
            let mut engine = ChurnEngine::new(problem.clone(), geometry, cfg);
            let r = engine.run(scheduler, policy);
            progress.report(
                (i as u64 + 1) * base.slots,
                &format!(
                    "point {}/{} · p={p:.3} · {:.2} delivered/slot · {}",
                    i + 1,
                    packet_probs.len(),
                    r.delivered_per_slot(),
                    r.drift_verdict()
                ),
                (i as u64 + 1) * base.slots,
            );
            (p, r)
        })
        .collect()
}

/// Samples one arriving link's geometry exactly like the seed
/// generator's law: sender uniform in the region, length
/// `U[len_lo, len_hi]`, uniform direction.
fn sample_spec(geometry: &UniformGenerator, rng: &mut StdRng) -> LinkSpec {
    let side = geometry.side;
    let s = fading_geom::Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
    let d = rng.gen_range(geometry.len_lo..=geometry.len_hi);
    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
    LinkSpec::new(s, s.offset_polar(d, theta))
}

/// Poisson sample by Knuth's product-of-uniforms method — exact, and
/// `O(λ)` per draw, which is fine at per-slot link-arrival rates.
fn poisson(lambda: f64, rng: &mut StdRng) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let limit = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

/// First slot at which a link arriving at `t` is gone: an exponential
/// lifetime with the given mean, floored at one full slot of life.
/// Saturates at `u64::MAX` (never departs) for a lifetime past the
/// clock's range, including every draw of an infinite mean (whose
/// `u = 0` draw is `∞ · 0 = NaN`).
fn exponential_departure(t: u64, mean: f64, rng: &mut StdRng) -> u64 {
    let u: f64 = rng.gen();
    let life = (-mean * (1.0 - u).ln()).floor();
    if life.is_nan() || life >= u64::MAX as f64 {
        return u64::MAX;
    }
    (t + 1).saturating_add(life as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_channel::ChannelParams;
    use fading_core::algo::{GreedyRate, Rle};
    use fading_core::BackendChoice;
    use fading_net::TopologyGenerator;

    fn cfg(slots: u64) -> ChurnConfig {
        ChurnConfig {
            slots,
            link_arrival_rate: 2.0,
            mean_lifetime: 30.0,
            packet_prob: 0.05,
            seed: 7,
        }
    }

    fn engine_sized(n: usize, c: ChurnConfig) -> ChurnEngine {
        let geometry = UniformGenerator::paper(n);
        let problem =
            Problem::builder(geometry.generate(c.seed), ChannelParams::with_alpha(3.0)).build();
        ChurnEngine::new(problem, geometry, c)
    }

    fn engine(c: ChurnConfig) -> ChurnEngine {
        engine_sized(40, c)
    }

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    /// The queueing model: a fixed population (no link arrivals, no
    /// departures) under Bernoulli(`packet_prob`) packet arrivals.
    fn fixed(problem: Problem, packet_prob: f64, slots: u64) -> ChurnEngine {
        let geometry = UniformGenerator::paper(problem.len());
        ChurnEngine::new(
            problem,
            geometry,
            ChurnConfig {
                slots,
                link_arrival_rate: 0.0,
                mean_lifetime: f64::INFINITY,
                packet_prob,
                seed: 42,
            },
        )
    }

    #[test]
    fn packets_are_conserved_under_churn() {
        let r = engine(cfg(150)).run(&GreedyRate, ServicePolicy::MaxWeight);
        assert!(r.conserves_packets(), "{r:?}");
        assert!(r.links_arrived > 0, "arrivals must occur");
        assert!(r.links_departed > 0, "departures must occur");
        assert!(r.slots_per_sec > 0.0);
    }

    #[test]
    fn population_tracks_the_mg_infinity_equilibrium() {
        // λ·E[life] = 2 × 30 = 60; from a seed of 40 the time-averaged
        // population must sit in that neighborhood, and every live
        // link's external handle must name it.
        let mut e = engine(cfg(300));
        for _ in 0..300 {
            e.step(&GreedyRate, ServicePolicy::PlainRates);
        }
        let p = e.problem();
        assert!(p.links().ids().all(|k| p.id_of(p.external(k)) == Some(k)));
        let pop = e.population() as f64;
        assert!(
            (20.0..=140.0).contains(&pop),
            "population {pop} wandered far from equilibrium 60"
        );
    }

    #[test]
    fn engine_state_matches_a_fresh_rebuild_every_step() {
        // The live problem is only ever touched by per-slot
        // `Problem::apply` transactions; after a burst of churn it must
        // still be bit-identical to a from-scratch build over its own
        // links.
        let mut e = engine_sized(
            20,
            ChurnConfig {
                slots: 40,
                link_arrival_rate: 3.0,
                mean_lifetime: 8.0,
                packet_prob: 0.2,
                seed: 11,
            },
        );
        for _ in 0..40 {
            e.step(&Rle::new(), ServicePolicy::PlainRates);
        }
        let p = e.problem();
        let rebuilt = Problem::builder(
            fading_net::LinkSet::new(*p.links().region(), p.links().links().to_vec()),
            *p.params(),
        )
        .epsilon(p.epsilon())
        .backend(p.backend_choice())
        .build();
        assert_eq!(p, &rebuilt);
    }

    #[test]
    fn deep_overload_schedules_the_weighted_backlog() {
        // Every link draws a packet every slot on a fixed population,
        // so the whole population is the scope and the MaxWeight
        // weights move every slot while the problem's stamp does not.
        // Each slot must schedule what GreedyRate schedules on a fresh
        // build of the backlog with the queue lengths as rates.
        let mut e = fixed(problem(40, 12), 1.0, 50);
        for _ in 0..50 {
            let slot = e.step(&GreedyRate, ServicePolicy::MaxWeight);
            assert_eq!(e.backlogged.len(), 40);
            let links = scope_links(
                &e.problem,
                Scope::candidates(&e.backlogged).weighted(&e.weights),
            );
            let fresh = Problem::builder(links, *e.problem.params())
                .epsilon(e.problem.epsilon())
                .build();
            assert_eq!(slot.scheduled as usize, GreedyRate.schedule(&fresh).len());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        // slots_per_sec is wall-clock; everything else must match.
        let runs = || {
            [engine(cfg(120)), fixed(problem(60, 5), 0.02, 200)].map(|mut e| {
                let mut r = e.run(&GreedyRate, ServicePolicy::MaxWeight);
                r.slots_per_sec = 0.0;
                r
            })
        };
        assert_eq!(runs(), runs());
    }

    #[test]
    fn infinite_and_huge_lifetimes_never_depart() {
        for mean_lifetime in [f64::INFINITY, 1e300] {
            let mut e = engine_sized(
                30,
                ChurnConfig {
                    slots: 60,
                    link_arrival_rate: 1.0,
                    mean_lifetime,
                    packet_prob: 0.1,
                    seed: 3,
                },
            );
            let mut arrived = 0;
            for _ in 0..60 {
                let slot = e.step(&GreedyRate, ServicePolicy::PlainRates);
                assert_eq!(slot.link_departures, 0, "mean lifetime {mean_lifetime}");
                arrived += slot.link_arrivals as usize;
            }
            assert_eq!(e.population(), 30 + arrived);
        }
    }

    #[test]
    fn fixed_population_conserves_packets_under_both_policies() {
        for (seed, p, policy) in [
            (1, 0.05, ServicePolicy::PlainRates),
            (7, 0.06, ServicePolicy::MaxWeight),
        ] {
            let r = fixed(problem(80, seed), p, 400).run(&GreedyRate, policy);
            assert!(r.conserves_packets(), "{r:?}");
            assert_eq!(
                (r.links_arrived, r.links_departed, r.packets_abandoned),
                (0, 0, 0)
            );
            assert_eq!(r.final_population, 80);
        }
    }

    #[test]
    fn light_load_stays_small() {
        // 100 links × 0.001 arrivals/slot = 0.1 packets/slot offered;
        // GreedyRate serves ~40/slot — queues must stay tiny. By
        // Little's law a mean backlog under 0.5 is a mean delay under
        // 5 slots.
        let r = fixed(problem(100, 2), 0.001, 1500).run(&GreedyRate, ServicePolicy::PlainRates);
        assert!(r.packets_arrived > 50, "sanity: some packets arrived");
        assert!(
            r.final_backlog <= 3,
            "light load left {} packets queued",
            r.final_backlog
        );
        assert!(r.mean_backlog < 0.5, "mean backlog {}", r.mean_backlog);
        assert!((r.delivered_per_slot() - r.packets_delivered as f64 / 1500.0).abs() < 1e-15);
    }

    #[test]
    fn overload_grows_the_backlog() {
        // 1 arrival/slot/link ≫ service capacity: backlog ≈ linear in t.
        let r = fixed(problem(100, 3), 1.0, 300).run(&Rle::new(), ServicePolicy::PlainRates);
        assert!(
            r.final_backlog > r.packets_arrived / 2,
            "overload should leave most packets queued ({} of {})",
            r.final_backlog,
            r.packets_arrived
        );
        assert!(r.max_backlog >= r.final_backlog / 2);
    }

    #[test]
    fn greedy_sustains_more_load_than_rle() {
        let run =
            |s: &dyn Scheduler| fixed(problem(100, 4), 0.08, 600).run(s, ServicePolicy::PlainRates);
        let greedy = run(&GreedyRate);
        let rle = run(&Rle::new());
        assert!(
            greedy.mean_backlog < rle.mean_backlog,
            "greedy backlog {} vs RLE {}",
            greedy.mean_backlog,
            rle.mean_backlog
        );
    }

    #[test]
    fn maxweight_does_not_collapse_throughput() {
        let run = |policy| fixed(problem(100, 8), 0.12, 800).run(&GreedyRate, policy);
        let plain = run(ServicePolicy::PlainRates);
        let mw = run(ServicePolicy::MaxWeight);
        // Same arrivals either way (same seed stream).
        assert_eq!(plain.packets_arrived, mw.packets_arrived);
        assert!(
            mw.packets_delivered as f64 >= 0.8 * plain.packets_delivered as f64,
            "backpressure should not collapse throughput ({} vs {})",
            mw.packets_delivered,
            plain.packets_delivered
        );
    }

    #[test]
    fn sparse_backend_runs_the_same_loop() {
        let c = ChurnConfig {
            slots: 60,
            link_arrival_rate: 1.0,
            mean_lifetime: 20.0,
            packet_prob: 0.1,
            seed: 3,
        };
        let geometry = UniformGenerator::paper(30);
        let problem = Problem::builder(geometry.generate(c.seed), ChannelParams::with_alpha(3.0))
            .backend(BackendChoice::Sparse(fading_core::SparseConfig::default()))
            .build();
        let mut e = ChurnEngine::new(problem, geometry, c);
        let r = e.run(&GreedyRate, ServicePolicy::MaxWeight);
        assert!(r.conserves_packets(), "{r:?}");
    }

    #[test]
    fn heavier_load_means_more_backlog() {
        let base = ChurnConfig {
            slots: 250,
            link_arrival_rate: 0.5,
            mean_lifetime: 60.0,
            packet_prob: 0.0, // overridden by the frontier
            seed: 19,
        };
        let geometry = UniformGenerator::paper(60);
        let problem =
            Problem::builder(geometry.generate(base.seed), ChannelParams::with_alpha(3.0)).build();
        let frontier = stability_frontier(
            &problem,
            geometry,
            base,
            &GreedyRate,
            ServicePolicy::MaxWeight,
            &[0.01, 0.9],
        );
        assert_eq!(frontier.len(), 2);
        assert!(
            frontier[1].1.mean_backlog > frontier[0].1.mean_backlog,
            "overload backlog {} must exceed light-load backlog {}",
            frontier[1].1.mean_backlog,
            frontier[0].1.mean_backlog
        );
    }

    #[test]
    fn phase_timings_sum_close_to_slot_span() {
        // Acceptance: the five attributed phases must account for the
        // slot span to within 5% (aggregated over the run, so one
        // preempted slot cannot fail the audit). The ring always keeps
        // timings, regardless of the stream's determinism mode.
        let mut e = engine(cfg(120));
        e.arm(
            TelemetryConfig::new().series(SlotSeries::in_memory(fading_obs::SeriesConfig {
                capacity: 200,
                ..Default::default()
            })),
        );
        for _ in 0..120 {
            e.step(&GreedyRate, ServicePolicy::MaxWeight);
        }
        let tel = e.take_telemetry().expect("telemetry armed");
        let series = tel.series().expect("series armed");
        assert_eq!(series.recorded(), 120);
        let mut phases = 0u64;
        let mut spans = 0u64;
        for rec in series.records() {
            assert!(rec.slot_ns > 0, "armed slots must be timed");
            phases += rec.phase_sum_ns();
            spans += rec.slot_ns;
        }
        let ratio = phases as f64 / spans as f64;
        assert!(
            (0.95..=1.0).contains(&ratio),
            "phase attribution covers {ratio:.4} of the slot span"
        );
        let split = tel.phase_split();
        assert!(split.iter().sum::<u32>() <= 100);
        assert!(split.iter().any(|&p| p > 0), "split {split:?} all zero");
    }

    #[test]
    fn series_ring_mirrors_the_slot_outputs_deterministically() {
        // Two same-seed runs must produce byte-identical deterministic
        // series lines, and each record must agree with the ChurnSlot
        // the engine returned for that slot.
        let run = |check_slots: bool| -> String {
            let mut e = engine(cfg(100));
            e.arm(
                TelemetryConfig::new().series(SlotSeries::in_memory(fading_obs::SeriesConfig {
                    capacity: 128,
                    ..Default::default()
                })),
            );
            for _ in 0..100 {
                let slot = e.step(&GreedyRate, ServicePolicy::MaxWeight);
                if check_slots {
                    let rec = *e
                        .telemetry()
                        .and_then(|t| t.series())
                        .and_then(|s| s.last())
                        .expect("record per slot");
                    assert_eq!(rec.slot, slot.slot);
                    assert_eq!(rec.population, slot.population as u64);
                    assert_eq!(rec.scheduled, slot.scheduled as u64);
                    assert_eq!(rec.delivered, slot.delivered as u64);
                    assert_eq!(rec.backlog, slot.backlog);
                    assert_eq!(rec.eliminated, rec.backlogged - rec.scheduled);
                }
            }
            let tel = e.take_telemetry().unwrap();
            let mut out = String::new();
            for rec in tel.series().unwrap().records() {
                out.push_str(&SlotSeries::render_line(rec, false));
            }
            out
        };
        let a = run(true);
        let b = run(false);
        assert!(!a.is_empty());
        assert_eq!(a, b, "deterministic series lines diverged across reruns");
        assert!(!a.contains("_ns"), "timing fields leaked into det mode");
    }

    #[test]
    fn queue_blowup_dumps_a_replayable_postmortem_bundle() {
        // Overload a small instance (every link draws a packet every
        // slot) so backlog grows strictly; the flight recorder must
        // fire QueueGrowth, dump the bundle, and the replay half of the
        // bundle must replay cleanly against the saved slot instance —
        // for a grid scheduler too, whose replay recomputes square
        // winners from the MaxWeight weights the instance carries.
        // Capture is scoped to this test's thread, so tests scheduling
        // in parallel cannot enter the replayed trace.
        let schedulers: [&dyn Scheduler; 2] = [&GreedyRate, &fading_core::algo::Ldp::new()];
        for scheduler in schedulers {
            postmortem_bundle_replays(scheduler);
        }
    }

    fn postmortem_bundle_replays(scheduler: &dyn Scheduler) {
        let dir = std::env::temp_dir().join(format!(
            "churn_flight_{}_{}",
            std::process::id(),
            scheduler.name()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut e = engine_sized(
            20,
            ChurnConfig {
                slots: 400,
                link_arrival_rate: 0.5,
                mean_lifetime: 40.0,
                packet_prob: 1.0,
                seed: 23,
            },
        );
        e.arm(TelemetryConfig::new().flight(
            FlightConfig {
                capacity: 16,
                growth_window: 6,
                min_stall_ns: u64::MAX,
                zero_delivery_window: u32::MAX,
                ..Default::default()
            },
            Some(dir.clone()),
        ));
        let mut fired_at = None;
        for t in 0..400 {
            e.step(scheduler, ServicePolicy::MaxWeight);
            if e.health() != "ok" {
                fired_at = Some(t);
                break;
            }
        }
        assert!(fired_at.is_some(), "overload never tripped the detector");
        assert_eq!(e.health(), "queue_growth");
        let tel = e.take_telemetry().unwrap();
        assert_eq!(tel.postmortem(), Some(dir.as_path()));

        // The bundle: post-mortem doc + forensic trace + replay half.
        let doc = serde_json::parse_node_str(
            &std::fs::read_to_string(dir.join("postmortem.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(
            doc.get("version"),
            Some(&serde::Node::U64(u64::from(fading_obs::POSTMORTEM_VERSION)))
        );
        assert!(doc
            .get("anomaly")
            .and_then(|a| a.get("QueueGrowth"))
            .is_some());
        assert!(dir.join("flight_trace.jsonl").exists());

        // Acceptance: replay_trace.jsonl replays against the saved
        // slot instance under certify::replay_trace.
        let trace = fading_obs::Trace::from_jsonl(
            &std::fs::read_to_string(dir.join("replay_trace.jsonl")).unwrap(),
        )
        .unwrap();
        assert!(!trace.events.is_empty());
        let links = fading_net::io::load(&dir.join("replay_instance.json")).unwrap();
        let meta = serde_json::parse_node_str(
            &std::fs::read_to_string(dir.join("replay_meta.json")).unwrap(),
        )
        .unwrap();
        let eps = match meta.get("epsilon") {
            Some(serde::Node::F64(x)) => *x,
            other => panic!("epsilon missing from replay meta: {other:?}"),
        };
        let rebuilt = Problem::builder(links, ChannelParams::with_alpha(3.0))
            .epsilon(eps)
            .build();
        let certs = fading_core::certify::replay_trace(&rebuilt, &trace)
            .expect("post-mortem trace must replay");
        assert!(!certs.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Delegates to [`GreedyRate`] but sleeps once, well after the
    /// stall detector's warmup — the injected anomaly.
    struct Sleepy {
        calls: std::sync::atomic::AtomicU64,
    }

    impl Scheduler for Sleepy {
        fn name(&self) -> &'static str {
            "sleepy"
        }

        fn schedule_in(
            &self,
            problem: &Problem,
            scope: Scope<'_>,
            ctx: &mut SchedCtx,
        ) -> fading_core::Schedule {
            let n = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n == 20 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            GreedyRate.schedule_in(problem, scope, ctx)
        }
    }

    #[test]
    fn injected_stall_fires_the_stall_detector() {
        let mut e = engine(ChurnConfig {
            packet_prob: 0.5, // busy enough that every slot schedules
            ..cfg(80)
        });
        e.arm(TelemetryConfig::new().flight(
            FlightConfig {
                stall_factor: 4.0,
                min_stall_ns: 2_000_000, // 2ms floor; the sleep is 30ms
                growth_window: u32::MAX,
                zero_delivery_window: u32::MAX,
                capture_trace: false,
                ..Default::default()
            },
            None, // detect, don't dump
        ));
        let sleepy = Sleepy {
            calls: std::sync::atomic::AtomicU64::new(0),
        };
        for _ in 0..80 {
            e.step(&sleepy, ServicePolicy::MaxWeight);
            if e.health() != "ok" {
                break;
            }
        }
        assert_eq!(e.health(), "slot_stall");
        assert!(e.telemetry().unwrap().postmortem().is_none());
    }

    /// Schedules nothing, ever — the zero-delivery pathology.
    struct Noop;

    impl Scheduler for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }

        fn schedule_in(
            &self,
            _problem: &Problem,
            _scope: Scope<'_>,
            _ctx: &mut SchedCtx,
        ) -> fading_core::Schedule {
            fading_core::Schedule::empty()
        }
    }

    #[test]
    fn zero_delivery_streak_fires_on_a_dead_scheduler() {
        let mut e = engine(ChurnConfig {
            packet_prob: 0.6,
            ..cfg(60)
        });
        e.arm(TelemetryConfig::new().flight(
            FlightConfig {
                zero_delivery_window: 5,
                growth_window: u32::MAX,
                min_stall_ns: u64::MAX,
                capture_trace: false,
                ..Default::default()
            },
            None,
        ));
        for _ in 0..60 {
            e.step(&Noop, ServicePolicy::PlainRates);
            if e.health() != "ok" {
                break;
            }
        }
        assert_eq!(e.health(), "zero_delivery_streak");
    }

    #[test]
    fn poisson_mean_is_right() {
        let mut rng = seeded_rng(1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(3.0, &mut rng) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "poisson mean {mean}");
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn lifetimes_last_at_least_one_slot() {
        let mut rng = seeded_rng(2);
        for t in [0u64, 5, 100] {
            for _ in 0..200 {
                assert!(exponential_departure(t, 1.0, &mut rng) > t);
            }
        }
    }
}
