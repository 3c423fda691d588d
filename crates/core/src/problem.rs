//! The Fading-R-LS problem instance.

use crate::interference::{InterferenceBackend, InterferenceMatrix};
use crate::mutate::{BatchReceipt, LinkIdMap, LinkSpec, MutationBatch, MutationError};
use crate::sparse::{SparseConfig, SparseInterference};
use fading_channel::{ChannelParams, DeterministicSinr, RayleighChannel};
use fading_math::gamma_eps;
use fading_net::{position_key, validate_link, LinkId, LinkSet, ValidationError};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone source of [`Problem::stamp`] values — process-global so a
/// stamp identifies one content snapshot across every live instance.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// A fresh, never-before-seen stamp (`≥ 1`; `0` is the "no cached
/// stamp" sentinel in [`crate::SchedCtx`]).
fn next_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Which interference backend a [`Problem`] should build.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub enum BackendChoice {
    /// The dense `N×N` matrix — exact and exhaustive, `O(N²)` memory.
    /// The default; paper-scale results are bit-identical to the
    /// pre-trait implementation.
    #[default]
    Dense,
    /// The spatial-hash truncated store with the given cut policy.
    Sparse(SparseConfig),
    /// Dense up to [`AUTO_SPARSE_THRESHOLD`] links, sparse (default
    /// [`SparseConfig`]) above it.
    Auto,
}

/// Instance size at which [`BackendChoice::Auto`] switches to the
/// sparse backend: past ~4k links the dense matrix crosses 128 MB and
/// build time dominates small sweeps.
pub const AUTO_SPARSE_THRESHOLD: usize = 4096;

impl BackendChoice {
    /// Parses a CLI-style name: `dense`, `sparse`, or `auto`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "dense" => Ok(Self::Dense),
            "sparse" => Ok(Self::Sparse(SparseConfig::default())),
            "auto" => Ok(Self::Auto),
            other => Err(format!(
                "unknown interference backend {other:?} (expected dense, sparse, or auto)"
            )),
        }
    }

    /// The choice resolved against an instance size.
    fn resolve(self, n: usize) -> BackendChoice {
        match self {
            Self::Auto if n > AUTO_SPARSE_THRESHOLD => Self::Sparse(SparseConfig::default()),
            Self::Auto => Self::Dense,
            other => other,
        }
    }
}

/// Duplicate-position index over the live links: the
/// [`position_key`]s of every sender and every receiver. Built lazily
/// on the first mutation that validates adds and maintained
/// incrementally by every commit, so batch validation costs `O(k)`
/// hash probes instead of the `O(kN)` per-spec scans that dominated
/// sustained churn at n ≥ 10⁵. Pure cache: derivable from `links`,
/// excluded from equality.
#[derive(Debug, Clone, Default)]
struct PositionIndex {
    senders: HashSet<(u64, u64)>,
    receivers: HashSet<(u64, u64)>,
}

/// A complete Fading-R-LS instance: links, channel, reliability target,
/// and the interference-factor backend.
///
/// ```
/// use fading_core::Problem;
/// use fading_net::{TopologyGenerator, UniformGenerator};
///
/// let links = UniformGenerator::paper(50).generate(1);
/// let problem = Problem::paper(links, 3.0);
/// assert_eq!(problem.len(), 50);
/// // γ_ε = ln(1/(1−ε)) with the paper's ε = 0.01
/// assert!((problem.gamma_eps() - (1.0f64 / 0.99).ln()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Problem {
    links: LinkSet,
    channel: RayleighChannel,
    epsilon: f64,
    gamma_eps: f64,
    factors: InterferenceBackend,
    /// Per-link transmit power scales (`None` = uniform, the paper's
    /// model). Factors, feasibility, and the simulator all honor them.
    power_scales: Option<Vec<f64>>,
    /// Content-snapshot identity: a process-globally unique value
    /// assigned at construction and replaced by every mutation — one
    /// stamp per committed transaction ([`apply`](Self::apply)), not
    /// per link.
    /// Equal stamps imply bit-identical content (clones share their
    /// source's stamp), so [`crate::SchedCtx`] memoization can skip its
    /// `O(n)` witness compare on a stamp hit. Excluded from
    /// `PartialEq`.
    stamp: u64,
    /// Lazy duplicate-position cache (see [`PositionIndex`]). Excluded
    /// from `PartialEq`.
    position_index: Option<PositionIndex>,
    /// Stable external handles ([`external`](Self::external)); `None`
    /// while they are the identity, i.e. until the first removal.
    /// Excluded from `PartialEq`.
    handles: Option<LinkIdMap>,
}

/// Content equality — everything except the [`stamp`](Problem::stamp)
/// identity and the external handles (two independently built but
/// bit-identical instances compare equal).
impl PartialEq for Problem {
    fn eq(&self, other: &Self) -> bool {
        self.links == other.links
            && self.channel == other.channel
            && self.epsilon == other.epsilon
            && self.gamma_eps == other.gamma_eps
            && self.factors == other.factors
            && self.power_scales == other.power_scales
    }
}

impl Problem {
    /// Builds an instance with the dense backend; precomputes the `N×N`
    /// interference matrix. For non-default backends, power scales, or
    /// ε, use [`Problem::builder`].
    ///
    /// # Panics
    /// Panics if `epsilon` is outside `(0, 1)`.
    pub fn new(links: LinkSet, params: ChannelParams, epsilon: f64) -> Self {
        Self::builder(links, params).epsilon(epsilon).build()
    }

    /// Starts a [`ProblemBuilder`] — the one entry point for every
    /// non-default construction option (ε, interference backend,
    /// per-link power scales).
    pub fn builder(links: LinkSet, params: ChannelParams) -> ProblemBuilder {
        ProblemBuilder {
            links,
            params,
            epsilon: PAPER_EPSILON,
            power_scales: None,
            backend: BackendChoice::Dense,
        }
    }

    fn build(
        links: LinkSet,
        params: ChannelParams,
        epsilon: f64,
        power_scales: Option<Vec<f64>>,
        backend: BackendChoice,
    ) -> Self {
        let gamma_eps = gamma_eps(epsilon); // validates epsilon
        let channel = RayleighChannel::new(params);
        let powers = power_scales.as_deref();
        let factors = match backend.resolve(links.len()) {
            BackendChoice::Dense => InterferenceBackend::Dense(
                InterferenceMatrix::build_with_powers(&links, &channel, powers),
            ),
            BackendChoice::Sparse(config) => InterferenceBackend::Sparse(
                SparseInterference::build_with_powers(&links, &channel, powers, gamma_eps, config),
            ),
            BackendChoice::Auto => unreachable!("resolve() eliminates Auto"),
        };
        Self {
            links,
            channel,
            epsilon,
            gamma_eps,
            factors,
            power_scales,
            stamp: next_stamp(),
            position_index: None,
            handles: None,
        }
    }

    /// Applies a whole [`MutationBatch`] transactionally — removals by
    /// external id, adds by [`LinkSpec`] — committing with **one**
    /// envelope reconciliation and **one** spatial-index patch pass for
    /// the entire batch. This is the only way to change a live
    /// instance, and the online engine's per-slot arrival and
    /// departure path (cost model in `docs/online.md`). The receipt
    /// reports the external handles involved.
    ///
    /// Removals are applied in descending dense id after deduplication
    /// (so earlier removals cannot renumber later victims), each with
    /// `Vec::swap_remove` semantics: the current tail link takes the
    /// vacated id. New links then take dense ids `n..n+k` in spec
    /// order. The interference state is *patched*, not rebuilt: the
    /// dense matrix moves surviving entries bit-for-bit and evaluates
    /// only the new rows/columns; the sparse CSR gets targeted row
    /// edits, the new links' rows/columns via spatial-hash gathers, and
    /// one envelope reconcile, with certified cuts only ever re-derived
    /// by the build formula (so truncation bounds stay true and
    /// verdicts never flip). The mutated instance is bit-identical
    /// (`PartialEq`) to a from-scratch build over the final link set
    /// (`tests/mutate_equivalence.rs`).
    ///
    /// Validation is atomic: on any error (unknown external id,
    /// duplicate position, bad rate, non-finite coordinate, bad power
    /// scale) neither the problem nor its handles change. An empty
    /// batch is a no-op and does not move the [`stamp`](Self::stamp).
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<BatchReceipt, MutationError> {
        if batch.is_empty() {
            return Ok(BatchReceipt::default());
        }
        let _span = fading_obs::span!("problem.mutate.apply");
        let mut removes: Vec<LinkId> = Vec::with_capacity(batch.removes().len());
        for &ext in batch.removes() {
            match self.id_of(ext) {
                Some(id) => removes.push(id),
                None => return Err(MutationError::UnknownExternal(ext)),
            }
        }
        removes.sort_unstable_by(|a, b| b.cmp(a));
        removes.dedup();
        self.validate_adds(batch.adds(), &removes)?;
        // The first removal breaks the identity: build the map, O(N) once.
        if self.handles.is_none() && !removes.is_empty() {
            self.handles = Some(LinkIdMap::identity(self.links.len()));
        }
        let base = self.links.len() as u64;
        self.commit_batch(&removes, batch.adds());
        let receipt = match &mut self.handles {
            Some(map) => map.commit(&removes, batch.adds().len()),
            None => BatchReceipt {
                added: (base..self.links.len() as u64).collect(),
                removed: Vec::new(),
            },
        };
        fading_obs::counter!("problem.mutate.batch.calls").incr();
        fading_obs::counter!("problem.mutate.batch.removed").add(removes.len() as u64);
        fading_obs::counter!("problem.mutate.batch.added").add(batch.adds().len() as u64);
        Ok(receipt)
    }

    /// Builds the lazy duplicate-position index if absent — one `O(N)`
    /// pass; every later commit maintains it incrementally.
    fn ensure_position_index(&mut self) {
        if self.position_index.is_none() {
            let mut index = PositionIndex {
                senders: HashSet::with_capacity(self.links.len()),
                receivers: HashSet::with_capacity(self.links.len()),
            };
            for l in self.links.links() {
                index.senders.insert(position_key(&l.sender));
                index.receivers.insert(position_key(&l.receiver));
            }
            self.position_index = Some(index);
        }
    }

    /// Error-path lookup (`O(N)`, only on duplicate rejection): the
    /// live link owning a sender position key.
    fn sender_owner(&self, key: (u64, u64)) -> LinkId {
        self.links
            .links()
            .iter()
            .find(|l| position_key(&l.sender) == key)
            .map(|l| l.id)
            .expect("position index says the sender key is live")
    }

    /// As [`sender_owner`](Self::sender_owner), for receiver keys.
    fn receiver_owner(&self, key: (u64, u64)) -> LinkId {
        self.links
            .links()
            .iter()
            .find(|l| position_key(&l.receiver) == key)
            .map(|l| l.id)
            .expect("position index says the receiver key is live")
    }

    /// Validates batch adds against the live instance with `removes`
    /// (dense ids, strictly descending, deduplicated) already treated
    /// as gone. Duplicate checks are `O(1)` hash probes against the
    /// incrementally maintained [`PositionIndex`]; the errors name the
    /// *pre-removal* dense ids (the set is not yet mutated). Leaves
    /// instance content untouched.
    fn validate_adds(
        &mut self,
        specs: &[LinkSpec],
        removes: &[LinkId],
    ) -> Result<(), MutationError> {
        use ValidationError as E;
        if specs.is_empty() {
            return Ok(());
        }
        let base = self.links.len() - removes.len();
        if base + specs.len() > u32::MAX as usize {
            return Err(MutationError::InvalidAdd {
                slot: (u32::MAX as usize).saturating_sub(base),
                source: E::CapacityExceeded {
                    requested: base + specs.len(),
                },
            });
        }
        self.ensure_position_index();
        let index = self.position_index.as_ref().expect("just built");
        // Position keys freed by the removals: every live key belongs
        // to exactly one link, so a freed key is reusable in-batch.
        let mut freed_senders: HashSet<(u64, u64)> = HashSet::with_capacity(removes.len());
        let mut freed_receivers: HashSet<(u64, u64)> = HashSet::with_capacity(removes.len());
        for &id in removes {
            let l = self.links.link(id);
            freed_senders.insert(position_key(&l.sender));
            freed_receivers.insert(position_key(&l.receiver));
        }
        // Keys claimed by earlier specs of this same batch.
        let mut batch_senders: HashMap<(u64, u64), usize> = HashMap::with_capacity(specs.len());
        let mut batch_receivers: HashMap<(u64, u64), usize> = HashMap::with_capacity(specs.len());
        for (slot, spec) in specs.iter().enumerate() {
            let id = LinkId((base + slot) as u32);
            let invalid = |source| MutationError::InvalidAdd { slot, source };
            validate_link(id, spec.sender, spec.receiver, spec.rate).map_err(invalid)?;
            if !(spec.power_scale.is_finite() && spec.power_scale > 0.0) {
                return Err(invalid(E::BadPowerScale {
                    id,
                    scale: spec.power_scale,
                }));
            }
            let ks = position_key(&spec.sender);
            if let Some(&first) = batch_senders.get(&ks) {
                return Err(invalid(E::DuplicateSender(
                    LinkId((base + first) as u32),
                    id,
                )));
            }
            if index.senders.contains(&ks) && !freed_senders.contains(&ks) {
                return Err(invalid(E::DuplicateSender(self.sender_owner(ks), id)));
            }
            batch_senders.insert(ks, slot);
            let kr = position_key(&spec.receiver);
            if let Some(&first) = batch_receivers.get(&kr) {
                return Err(invalid(E::DuplicateReceiver(
                    LinkId((base + first) as u32),
                    id,
                )));
            }
            if index.receivers.contains(&kr) && !freed_receivers.contains(&kr) {
                return Err(invalid(E::DuplicateReceiver(self.receiver_owner(kr), id)));
            }
            batch_receivers.insert(kr, slot);
        }
        Ok(())
    }

    /// Commits validated removals (descending, deduplicated dense ids)
    /// and adds in one transaction: links, power scales, and position
    /// index first, then **one** backend patch pass (dense: batched
    /// column/row gather plus one relayout append; sparse: one
    /// deferred-reconcile [`SparseInterference::apply_batch`]), then a
    /// single stamp bump. Infallible — callers validate first.
    fn commit_batch(&mut self, removes: &[LinkId], adds: &[LinkSpec]) {
        // First non-uniform arrival on a uniform instance: materialize
        // the all-ones profile (bit-identical factors — `scale ≡ 1`
        // scales by exactly 1.0) so the new scales have a vector to
        // extend.
        if self.power_scales.is_none() && adds.iter().any(|s| s.power_scale != 1.0) {
            self.power_scales = Some(vec![1.0; self.links.len()]);
            if let InterferenceBackend::Sparse(s) = &mut self.factors {
                s.materialize_powers();
            }
        }
        for &id in removes {
            if let Some(index) = &mut self.position_index {
                let l = self.links.link(id);
                index.senders.remove(&position_key(&l.sender));
                index.receivers.remove(&position_key(&l.receiver));
            }
            self.links.swap_remove(id);
            if let Some(p) = &mut self.power_scales {
                p.swap_remove(id.index());
            }
        }
        for spec in adds {
            if let Some(index) = &mut self.position_index {
                index.senders.insert(position_key(&spec.sender));
                index.receivers.insert(position_key(&spec.receiver));
            }
            self.links
                .append_prechecked(spec.sender, spec.receiver, spec.rate);
        }
        if let Some(p) = &mut self.power_scales {
            p.extend(adds.iter().map(|s| s.power_scale));
        }
        match &mut self.factors {
            InterferenceBackend::Dense(m) => {
                m.swap_remove_batch(removes);
                if !adds.is_empty() {
                    let cells = m.append(&self.links, &self.channel, self.power_scales.as_deref());
                    fading_obs::counter!("problem.mutate.dense_cells").add(cells);
                }
            }
            InterferenceBackend::Sparse(s) => s.apply_batch(removes, adds),
        }
        self.stamp = next_stamp();
    }

    /// The stable external handle of live link `id`: issued once per
    /// link (a seed link's is its index in the seed set, an added
    /// link's is in its [`BatchReceipt`]) and never reused, while
    /// [`apply`](Self::apply)'s swap-removes renumber the dense ids.
    /// Until the first removal it equals `id`'s index.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn external(&self, id: LinkId) -> u64 {
        assert!(id.index() < self.len(), "link {id} out of range");
        self.handles
            .as_ref()
            .map_or(id.0 as u64, |h| h.external(id))
    }

    /// The live link holding external handle `ext`; `None` once it is
    /// removed, or if it was never issued.
    pub fn id_of(&self, ext: u64) -> Option<LinkId> {
        match &self.handles {
            Some(h) => h.dense(ext),
            None => (ext < self.len() as u64).then_some(LinkId(ext as u32)),
        }
    }

    /// The content-snapshot stamp: process-globally unique, replaced on
    /// every mutation. Equal stamps imply bit-identical problems (the
    /// converse need not hold), which is what lets [`crate::SchedCtx`]
    /// memo checks short-circuit their `O(n)` key compare.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Rebuilds the instance on `links` (same link count, possibly new
    /// geometry — e.g. after a mobility step), preserving `ε`, the
    /// channel parameters, the per-link power scales, and the
    /// interference backend choice. Geometry changed, so factors *are*
    /// recomputed (a subset of an unchanged geometry needs no rebuild:
    /// schedule it as a [`crate::Scope`]). The rebuilt instance's
    /// external handles start from the identity.
    ///
    /// # Panics
    /// Panics if `links` has a different link count while power scales
    /// are active.
    pub fn rebuild_with_links(&self, links: LinkSet) -> Problem {
        Self::build(
            links,
            self.channel.params,
            self.epsilon,
            self.power_scales.clone(),
            self.backend_choice(),
        )
    }

    /// The [`BackendChoice`] matching this instance's concrete backend
    /// (the resolved choice — never `Auto`).
    pub fn backend_choice(&self) -> BackendChoice {
        match &self.factors {
            InterferenceBackend::Dense(_) => BackendChoice::Dense,
            InterferenceBackend::Sparse(s) => BackendChoice::Sparse(SparseConfig {
                tail_rtol: s.tail_rtol(),
            }),
        }
    }

    /// Transmit power scale of a link (1 under uniform power).
    #[inline]
    pub fn power_scale(&self, id: LinkId) -> f64 {
        self.power_scales.as_ref().map_or(1.0, |p| p[id.index()])
    }

    /// The full power-scale vector, if power control is active.
    pub fn power_scales(&self) -> Option<&[f64]> {
        self.power_scales.as_deref()
    }

    /// The paper's evaluation configuration: `ε = 0.01` and
    /// [`ChannelParams::paper_defaults`] (or a supplied `α`).
    pub fn paper(links: LinkSet, alpha: f64) -> Self {
        Self::new(links, ChannelParams::with_alpha(alpha), PAPER_EPSILON)
    }

    /// The links of the instance.
    pub fn links(&self) -> &LinkSet {
        &self.links
    }

    /// Number of links `N`.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The Rayleigh channel model.
    pub fn channel(&self) -> &RayleighChannel {
        &self.channel
    }

    /// The deterministic-SINR view of the same physical parameters
    /// (used by the fading-susceptible baselines).
    pub fn deterministic_channel(&self) -> DeterministicSinr {
        DeterministicSinr::new(self.channel.params)
    }

    /// Physical parameters.
    pub fn params(&self) -> &ChannelParams {
        &self.channel.params
    }

    /// Acceptable error probability `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The feasibility budget `γ_ε = ln(1/(1−ε))`.
    pub fn gamma_eps(&self) -> f64 {
        self.gamma_eps
    }

    /// The interference-factor backend.
    pub fn factors(&self) -> &InterferenceBackend {
        &self.factors
    }

    /// Interference factor `f_{i,j}` (Eq. (17)) — exact under every
    /// backend.
    #[inline]
    pub fn factor(&self, sender: LinkId, receiver: LinkId) -> f64 {
        self.factors.factor(sender, receiver)
    }

    /// Rate `λ_i` of a link.
    #[inline]
    pub fn rate(&self, id: LinkId) -> f64 {
        self.links.link(id).rate
    }
}

/// The paper's evaluation reliability target, `ε = 0.01` — the builder
/// default and what [`Problem::paper`] uses.
pub const PAPER_EPSILON: f64 = 0.01;

/// Builder for [`Problem`] — the single construction path for every
/// non-default option.
///
/// ```
/// use fading_core::{BackendChoice, Problem};
/// use fading_net::{TopologyGenerator, UniformGenerator};
///
/// let links = UniformGenerator::paper(50).generate(1);
/// let problem = Problem::builder(links, fading_channel::ChannelParams::paper_defaults())
///     .epsilon(0.05)
///     .backend(BackendChoice::Auto)
///     .build();
/// assert_eq!(problem.len(), 50);
/// ```
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    links: LinkSet,
    params: ChannelParams,
    epsilon: f64,
    power_scales: Option<Vec<f64>>,
    backend: BackendChoice,
}

impl ProblemBuilder {
    /// Reliability target `ε ∈ (0,1)` (default: [`PAPER_EPSILON`]).
    /// Validated by [`build`](Self::build).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Per-link transmit power scales (`scale_i × P` for sender `i`) —
    /// the power-control extension. Default: uniform power.
    pub fn power_scales(mut self, power_scales: Vec<f64>) -> Self {
        self.power_scales = Some(power_scales);
        self
    }

    /// Interference backend (default: [`BackendChoice::Dense`]).
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Builds the instance, precomputing the interference state.
    ///
    /// # Panics
    /// Panics if `epsilon` is outside `(0, 1)`, or on power-scale
    /// length mismatch / non-positive scales.
    pub fn build(self) -> Problem {
        Problem::build(
            self.links,
            self.params,
            self.epsilon,
            self.power_scales,
            self.backend,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_net::{TopologyGenerator, UniformGenerator};

    #[test]
    fn paper_instance_wires_everything() {
        let links = UniformGenerator::paper(25).generate(1);
        let p = Problem::paper(links.clone(), 3.0);
        assert_eq!(p.len(), 25);
        assert_eq!(p.epsilon(), 0.01);
        assert_eq!(p.params().alpha, 3.0);
        assert_eq!(p.factors().len(), 25);
        assert_eq!(p.factors().name(), "dense");
        assert!((p.gamma_eps() - (1.0f64 / 0.99).ln()).abs() < 1e-12);
        assert_eq!(p.links(), &links);
    }

    #[test]
    fn factor_shortcut_matches_matrix() {
        let links = UniformGenerator::paper(10).generate(2);
        let p = Problem::paper(links, 3.0);
        for i in p.links().ids() {
            for j in p.links().ids() {
                assert_eq!(p.factor(i, j), p.factors().factor(i, j));
            }
        }
    }

    #[test]
    fn sparse_backend_matches_dense_factors() {
        let links = UniformGenerator::paper(30).generate(5);
        let dense = Problem::paper(links.clone(), 3.0);
        let sparse = Problem::builder(links, ChannelParams::with_alpha(3.0))
            .backend(BackendChoice::Sparse(SparseConfig::default()))
            .build();
        assert_eq!(sparse.factors().name(), "sparse");
        for i in dense.links().ids() {
            for j in dense.links().ids() {
                assert_eq!(
                    dense.factor(i, j).to_bits(),
                    sparse.factor(i, j).to_bits(),
                    "f({i},{j})"
                );
            }
        }
    }

    #[test]
    fn auto_resolves_by_size() {
        let links = UniformGenerator::paper(20).generate(6);
        let p = Problem::builder(links, ChannelParams::paper_defaults())
            .backend(BackendChoice::Auto)
            .build();
        // Below the threshold Auto is dense.
        assert_eq!(p.factors().name(), "dense");
    }

    #[test]
    fn backend_choice_parses_cli_names() {
        assert_eq!(BackendChoice::parse("dense"), Ok(BackendChoice::Dense));
        assert_eq!(
            BackendChoice::parse("sparse"),
            Ok(BackendChoice::Sparse(SparseConfig::default()))
        );
        assert_eq!(BackendChoice::parse("auto"), Ok(BackendChoice::Auto));
        assert!(BackendChoice::parse("csr").is_err());
    }

    #[test]
    fn deterministic_view_shares_params() {
        let links = UniformGenerator::paper(5).generate(3);
        let p = Problem::paper(links, 3.5);
        assert_eq!(p.deterministic_channel().params, *p.params());
    }

    /// A batch adding one short link outside the paper region, at a
    /// position of its own per `tag`.
    fn add(tag: usize) -> MutationBatch {
        let x = 5_000.0 + tag as f64 * 4.0;
        let mut batch = MutationBatch::new();
        batch.add(LinkSpec::new(
            fading_geom::Point2::new(x, 0.0),
            fading_geom::Point2::new(x + 1.0, 0.0),
        ));
        batch
    }

    fn removes(exts: &[u64]) -> MutationBatch {
        let mut batch = MutationBatch::new();
        for &ext in exts {
            batch.remove(ext);
        }
        batch
    }

    fn externals(p: &Problem) -> Vec<u64> {
        p.links().ids().map(|k| p.external(k)).collect()
    }

    #[test]
    fn handles_track_renumbering() {
        let mut p = Problem::paper(UniformGenerator::paper(4).generate(1), 3.0);
        assert_eq!(p.external(LinkId(2)), 2);
        let e4 = p.apply(&add(0)).unwrap().added[0];
        assert_eq!(e4, 4);
        assert_eq!(p.id_of(e4), Some(LinkId(4)));

        // Remove dense 1: the tail (dense 4 = external 4) takes id 1.
        assert_eq!(p.apply(&removes(&[1])).unwrap().removed, vec![1]);
        assert_eq!(p.id_of(1), None);
        assert_eq!(p.id_of(e4), Some(LinkId(1)));
        assert_eq!(p.external(LinkId(1)), e4);
        assert_eq!(p.len(), 4);

        // Removing the tail itself moves nothing.
        assert_eq!(p.apply(&removes(&[3])).unwrap().removed, vec![3]);
        assert_eq!(p.id_of(3), None);
        assert_eq!(externals(&p), vec![0, e4, 2]);
    }

    #[test]
    fn external_ids_are_never_reused() {
        let empty = LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let mut p = Problem::paper(empty, 3.0);
        let a = p.apply(&add(0)).unwrap().added[0];
        p.apply(&removes(&[a])).unwrap();
        let b = p.apply(&add(1)).unwrap().added[0];
        assert_ne!(a, b);
        assert_eq!(p.id_of(b), Some(LinkId(0)));
        assert_eq!(p.id_of(a), None);
    }

    #[test]
    fn handles_survive_drain_and_refill() {
        let mut p = Problem::paper(UniformGenerator::paper(3).generate(2), 3.0);
        while !p.is_empty() {
            p.apply(&removes(&[p.external(LinkId(0))])).unwrap();
        }
        assert_eq!(p.id_of(0), None);
        let e = p.apply(&add(0)).unwrap().added[0];
        assert_eq!(e, 3);
        assert_eq!(p.id_of(e), Some(LinkId(0)));
        assert_eq!(externals(&p), vec![3]);
    }

    #[test]
    #[should_panic(expected = "acceptable error rate")]
    fn rejects_epsilon_one() {
        let links = UniformGenerator::paper(3).generate(4);
        Problem::new(links, ChannelParams::paper_defaults(), 1.0);
    }
}
