//! `churn-100k` and `queue-10k`: one op is one `ChurnEngine::step`
//! (GreedyRate scheduling under MaxWeight service) on a sparse α = 4
//! instance at the paper's link density.

use crate::{density_scaled, Layer, OpOutput, OpTrace, Scale, Workload, LAYERS};
use fading_channel::ChannelParams;
use fading_core::algo::GreedyRate;
use fading_core::{BackendChoice, Problem, SparseConfig};
use fading_math::{seeded_rng, split_seed};
use fading_net::{LinkId, TopologyGenerator};
use fading_obs::{SeriesConfig, SlotRecord, SlotSeries};
use fading_sim::{ChurnConfig, ChurnEngine, ChurnSlot, ServicePolicy, TelemetryConfig};
use rand::Rng;
use std::time::Instant;

/// Slots per round: traced runs arm and disarm the engine's telemetry
/// at round boundaries.
const ROUND: usize = 10;
/// Stored rows compared against a fresh build after the window.
const ORACLE_ROWS: usize = 256;

/// The regime of one engine workload.
struct Regime {
    n: usize,
    link_arrival_rate: f64,
    mean_lifetime: f64,
    packet_prob: f64,
    warmup_slots: usize,
    quality_ops: usize,
}

/// Packet conservation across one slot, and delivered ≤ scheduled ≤
/// backlogged ≤ population. Untraced slots do not see the backlogged
/// link count; packets queued before service (backlog after service
/// plus deliveries) bound it from above.
pub fn check_slot(prev_backlog: u64, slot: &ChurnSlot, backlogged: Option<u64>) -> bool {
    let delivered = slot.delivered as u64;
    let scheduled = slot.scheduled as u64;
    let population = slot.population as u64;
    let queued = slot.backlog + delivered;
    let backlogged = backlogged.unwrap_or(queued.min(population));
    prev_backlog + slot.packets_arrived as u64 == slot.backlog + delivered + slot.packets_abandoned
        && delivered <= scheduled
        && scheduled <= backlogged
        && backlogged <= population
        && backlogged <= queued
}

pub struct EngineWorkload {
    engine: ChurnEngine,
    backlog: u64,
    traced: bool,
    quality_ops: usize,
    oracle_seed: u64,
    setup_ns: [u64; LAYERS],
}

impl EngineWorkload {
    /// E14's sustained-churn regime: 10^5 links, 200 arrivals per slot,
    /// mean lifetime 500 (so the population holds at 10^5), light
    /// packet load.
    pub fn churn(seed: u64, scale: Scale) -> Self {
        let n = match scale {
            Scale::Full => 100_000,
            Scale::Toy => 2_000,
        };
        Self::new(
            seed,
            Regime {
                n,
                link_arrival_rate: n as f64 / 500.0,
                mean_lifetime: 500.0,
                packet_prob: 0.001,
                warmup_slots: 10,
                quality_ops: 100,
            },
        )
    }

    /// A fixed 10^4-link population (no arrivals, lifetimes far beyond
    /// any run) under a packet load that keeps a stable backlog of a
    /// few hundred links.
    pub fn queue(seed: u64, scale: Scale) -> Self {
        let n = match scale {
            Scale::Full => 10_000,
            Scale::Toy => 500,
        };
        Self::new(
            seed,
            Regime {
                n,
                link_arrival_rate: 0.0,
                mean_lifetime: 1e12,
                packet_prob: 0.03,
                warmup_slots: 100,
                quality_ops: 400,
            },
        )
    }

    fn new(seed: u64, regime: Regime) -> Self {
        let gen = density_scaled(regime.n);
        let mut setup_ns = [0; LAYERS];
        let start = Instant::now();
        let links = gen.generate(split_seed(seed, 1));
        setup_ns[Layer::Generate as usize] = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let problem = Problem::builder(links, ChannelParams::with_alpha(4.0))
            .backend(BackendChoice::Sparse(SparseConfig::default()))
            .build();
        setup_ns[Layer::Build as usize] = start.elapsed().as_nanos() as u64;
        let cfg = ChurnConfig {
            slots: u64::MAX,
            link_arrival_rate: regime.link_arrival_rate,
            mean_lifetime: regime.mean_lifetime,
            packet_prob: regime.packet_prob,
            seed: split_seed(seed, 2),
        };
        let mut w = Self {
            engine: ChurnEngine::new(problem, gen, cfg),
            backlog: 0,
            traced: false,
            quality_ops: regime.quality_ops,
            oracle_seed: split_seed(seed, 3),
            setup_ns,
        };
        for _ in 0..regime.warmup_slots {
            w.op(&mut OpTrace::new(false));
        }
        w
    }

    fn last_record(&self) -> Option<SlotRecord> {
        self.engine
            .telemetry()
            .and_then(|t| t.series())
            .and_then(|s| s.last())
            .copied()
    }
}

impl Workload for EngineWorkload {
    fn round_len(&self) -> usize {
        ROUND
    }

    fn quality_ops(&self) -> usize {
        self.quality_ops
    }

    fn op(&mut self, trace: &mut OpTrace) -> OpOutput {
        let start = Instant::now();
        let slot = self.engine.step(&GreedyRate, ServicePolicy::MaxWeight);
        let ns = start.elapsed().as_nanos() as u64;
        let mut backlogged = None;
        if trace.on() {
            let rec = self
                .last_record()
                .filter(|r| r.slot == slot.slot)
                .expect("an armed engine records every slot");
            trace.ns[Layer::Stage as usize] = rec.mutate_ns;
            trace.ns[Layer::Commit as usize] = rec.commit_ns;
            trace.ns[Layer::Walks as usize] = rec.envelope_ns;
            trace.ns[Layer::Restrict as usize] = rec.restrict_ns;
            trace.ns[Layer::Schedule as usize] = rec.schedule_ns;
            trace.ns[Layer::Slot as usize] = rec.service_ns;
            trace.candidates = rec.backlogged;
            trace.mutated = (slot.link_arrivals + slot.link_departures) as u64;
            backlogged = Some(rec.backlogged);
        }
        let ok = check_slot(self.backlog, &slot, backlogged);
        self.backlog = slot.backlog;
        // Every scheduled link is backlogged, so a success always
        // delivers: the failed transmissions are the difference.
        OpOutput {
            ns,
            ok,
            scheduled: slot.scheduled as f64,
            delivered: slot.delivered as f64,
            failed_tx: (slot.scheduled - slot.delivered.min(slot.scheduled)) as f64,
        }
    }

    fn set_traced(&mut self, on: bool) {
        if on == self.traced {
            return;
        }
        if on {
            let series = SlotSeries::in_memory(SeriesConfig {
                capacity: ROUND,
                cadence: 1,
                timings: true,
            });
            self.engine.arm(TelemetryConfig::new().series(series));
        } else {
            self.engine.take_telemetry();
        }
        self.traced = on;
    }

    /// The mutate ≡ rebuild oracle: sampled stored rows (receivers,
    /// factors, and the receivers' truncation cuts) of the live problem
    /// must be bit-identical to those of a fresh build of its links.
    fn finish(&mut self) -> Vec<String> {
        let live = self.engine.problem();
        let fresh = live.rebuild_with_links(live.links().clone());
        let (Some(a), Some(b)) = (live.factors().as_sparse(), fresh.factors().as_sparse()) else {
            return vec!["sparse backend".to_string()];
        };
        let mut rng = seeded_rng(self.oracle_seed);
        let n = live.len() as u32;
        let same = (0..ORACLE_ROWS.min(live.len())).all(|_| {
            let id = LinkId(rng.gen_range(0..n));
            let (ra, fa) = a.row_slices(id);
            let (rb, fb) = b.row_slices(id);
            ra == rb
                && fa
                    .iter()
                    .map(|f| f.to_bits())
                    .eq(fb.iter().map(|f| f.to_bits()))
                && a.tail_cut(id).to_bits() == b.tail_cut(id).to_bits()
        });
        if same {
            Vec::new()
        } else {
            vec!["mutate == rebuild on sampled rows".to_string()]
        }
    }

    fn setup_ns(&self) -> [u64; LAYERS] {
        self.setup_ns
    }

    fn storage_bytes(&self) -> u64 {
        self.engine
            .problem()
            .factors()
            .as_sparse()
            .map_or(0, |s| s.storage_bytes())
    }
}
