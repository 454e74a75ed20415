//! Heterogeneous streaming-pipeline models (§3–§5 of the paper).
//!
//! This module is the paper's contribution: it extends classic network
//! calculus — built for *communication* elements — with *computation*
//! elements, so a streaming application deployed across CPUs, GPUs,
//! FPGAs, PCIe buses and network links can be analyzed end to end from
//! per-stage measurements taken in isolation.
//!
//! A [`Pipeline`] is a chain of [`Node`]s. Each node carries:
//!
//! * measured min/avg/max throughput **of the data it actually
//!   processes** ([`StageRates`]);
//! * a dispatch latency `T_n`;
//! * a **job ratio**: input block size `job_in` vs. output block size
//!   `job_out` (Figure 3 of the paper annotates every BLAST node with
//!   this ratio);
//! * the node kind (compute, PCIe hop, network link) — only
//!   documentation for the models, but used by the simulator.
//!
//! Building a [`PipelineModel`] performs the paper's two modeling
//! steps:
//!
//! 1. **Normalization** (after Timcheck & Buhler): all volumes are
//!    re-expressed relative to the *pipeline input*. A stage whose
//!    upstream compresses data 4:1 effectively serves input-referred
//!    data 4× faster than its local measurement.
//! 2. **Job-aggregation latency** (§3): a node that must collect `b_n`
//!    bytes before dispatching adds `b_n / R_{α,n−1}` of collection
//!    time, giving the recurrence
//!    `T_n^tot = T_{n−1}^tot + b_n / R_{α,n−1} + T_n`.
//!
//! The model exposes system-level and per-node §3 bounds, the
//! packetized service curves, subset analysis (any contiguous node
//! range), and horizon-based throughput bounds matching the paper's
//! Tables 1 and 3.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bounds::{self, Regime};
use crate::cache::{CacheStats, CurveCache, CurveOps, DirectOps};
use crate::curve::{shapes, Curve};
use crate::fault::FaultModel;
use crate::flowctl::{self, FlowCtlModel, FlowStage, FlowWindow};
use crate::num::{Rat, Value};
use crate::ops::{min_plus_conv, min_plus_deconv};
use crate::stoch::StageEnvelope;

/// What a pipeline stage physically is. The network-calculus treatment
/// is identical (that is the paper's point); the discrete-event
/// simulator and reports use the distinction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A computation stage (CPU/GPU/FPGA kernel).
    Compute,
    /// A network link (e.g. 10 GbE between FPGAs).
    NetworkLink,
    /// A PCIe/host-memory hop.
    PcieLink,
}

/// Min/avg/max throughput of a stage, in bytes/s of the data the stage
/// locally processes, measured in isolation (§5: "we will test each
/// stage in isolation and measure performance in isolation").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageRates {
    /// Worst observed sustained rate — feeds the service curve `β`.
    pub min: Rat,
    /// Average rate — feeds the queueing/roofline comparisons.
    pub avg: Rat,
    /// Best observed rate — feeds the maximum service curve `γ`.
    pub max: Rat,
}

impl StageRates {
    /// A stage with a single deterministic rate (links, fixed-function
    /// hardware).
    pub fn fixed(rate: Rat) -> StageRates {
        StageRates {
            min: rate,
            avg: rate,
            max: rate,
        }
    }

    /// Construct from measured `(min, avg, max)`.
    pub fn new(min: Rat, avg: Rat, max: Rat) -> StageRates {
        StageRates { min, avg, max }
    }
}

/// One stage of a streaming pipeline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Node {
    /// Human-readable stage name (appears in reports).
    pub name: String,
    /// Stage kind.
    pub kind: NodeKind,
    /// Isolated throughput measurements (local bytes/s).
    pub rates: StageRates,
    /// Dispatch/initiation latency `T_n` in seconds (kernel launch,
    /// DMA setup, connection overhead…).
    pub latency: Rat,
    /// Bytes the node collects before initiating a job (`b_n`), in
    /// *local* units at the node's input.
    pub job_in: Rat,
    /// Bytes the node emits per completed job, in local units at the
    /// node's output. `job_in : job_out` is the paper's job ratio.
    pub job_out: Rat,
    /// Optional fault hypothesis: when set, the stage's service curve
    /// is replaced by the guaranteed degraded rate-latency curve
    /// (see [`crate::fault::FaultModel`]).
    #[serde(default)]
    pub fault: Option<FaultModel>,
}

impl Node {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        kind: NodeKind,
        rates: StageRates,
        latency: Rat,
        job_in: Rat,
        job_out: Rat,
    ) -> Node {
        Node {
            name: name.into(),
            kind,
            rates,
            latency,
            job_in,
            job_out,
            fault: None,
        }
    }

    /// The job ratio `job_in / job_out` (> 1 compresses, < 1 expands).
    pub fn job_ratio(&self) -> Rat {
        self.job_in / self.job_out
    }
}

/// The data source feeding the pipeline, as a leaky-bucket constraint
/// in input-referred bytes.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Source {
    /// Sustained arrival rate `R_α` (bytes/s).
    pub rate: Rat,
    /// Burst `b` (bytes) deliverable instantaneously.
    pub burst: Rat,
}

/// Errors detected by [`Pipeline::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// The pipeline has no nodes.
    NoNodes,
    /// A rate triple is not ordered `0 < min ≤ avg ≤ max`.
    BadRates(String),
    /// A job size is not strictly positive.
    BadJobSize(String),
    /// A latency is negative.
    NegativeLatency(String),
    /// The source rate or burst is invalid.
    BadSource,
    /// A stage's fault model has invalid parameters (message from
    /// [`FaultModel::validate`]).
    BadFault(String, String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::NoNodes => write!(f, "pipeline has no nodes"),
            PipelineError::BadRates(n) => write!(f, "node '{n}': need 0 < min <= avg <= max"),
            PipelineError::BadJobSize(n) => write!(f, "node '{n}': job sizes must be > 0"),
            PipelineError::NegativeLatency(n) => write!(f, "node '{n}': latency must be >= 0"),
            PipelineError::BadSource => write!(f, "source rate must be > 0 and burst >= 0"),
            PipelineError::BadFault(n, why) => write!(f, "node '{n}': {why}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A linear streaming pipeline: source plus a chain of nodes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Pipeline {
    /// Application name (appears in reports).
    pub name: String,
    /// Input source constraint.
    pub source: Source,
    /// Stages in flow order.
    pub nodes: Vec<Node>,
}

impl Pipeline {
    /// Create a pipeline; call [`Pipeline::validate`] before modeling.
    pub fn new(name: impl Into<String>, source: Source, nodes: Vec<Node>) -> Pipeline {
        Pipeline {
            name: name.into(),
            source,
            nodes,
        }
    }

    /// Check structural validity.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.nodes.is_empty() {
            return Err(PipelineError::NoNodes);
        }
        if !self.source.rate.is_positive() || self.source.burst.is_negative() {
            return Err(PipelineError::BadSource);
        }
        for n in &self.nodes {
            let r = n.rates;
            if !(r.min.is_positive() && r.min <= r.avg && r.avg <= r.max) {
                return Err(PipelineError::BadRates(n.name.clone()));
            }
            if !n.job_in.is_positive() || !n.job_out.is_positive() {
                return Err(PipelineError::BadJobSize(n.name.clone()));
            }
            if n.latency.is_negative() {
                return Err(PipelineError::NegativeLatency(n.name.clone()));
            }
            if let Some(fault) = &n.fault {
                if let Err(why) = fault.validate() {
                    return Err(PipelineError::BadFault(n.name.clone(), why));
                }
            }
        }
        Ok(())
    }

    /// Normalization factor at each node's *input*: multiply local
    /// volumes there by this factor to express them input-referred.
    /// `norms[0] = 1`; `norms[n] = Π_{k<n} job_in_k / job_out_k`.
    pub fn normalization_factors(&self) -> Vec<Rat> {
        let mut norms = Vec::with_capacity(self.nodes.len());
        let mut acc = Rat::ONE;
        for n in &self.nodes {
            norms.push(acc);
            acc *= n.job_ratio();
        }
        norms
    }

    /// Build the network-calculus model.
    ///
    /// # Panics
    /// Panics if the pipeline is invalid; call [`Pipeline::validate`]
    /// first for a recoverable error.
    pub fn build_model(&self) -> PipelineModel {
        self.build("build_model", None, None)
    }

    /// Build the model reusing `cache` across calls.
    ///
    /// Identical results to [`Pipeline::build_model`] (the per-stage
    /// analysis is the same code, and the memoized operators are exact
    /// — see [`crate::cache`]), but two layers of work are shared with
    /// previous builds against the same cache:
    ///
    /// * **prefix reuse** — the cascade analysis of the longest leading
    ///   run of stages whose parameters (and source) match a previous
    ///   build is replayed from the memo instead of re-derived, so a
    ///   sweep that varies only stage `k` re-analyzes only stages
    ///   `k..n`;
    /// * **operator memoization** — every `⊗`/`⊘` on curves already
    ///   seen by the cache (e.g. the unchanged suffix service curves in
    ///   the concatenation fold) is a hash-map lookup.
    ///
    /// # Panics
    /// Panics if the pipeline is invalid.
    pub fn build_model_cached(&self, cache: &mut ModelCache) -> PipelineModel {
        self.build("build_model_cached", None, Some(cache))
    }

    /// Build the model under per-stage stochastic envelopes
    /// ([`crate::stoch`]): stage `i` is analyzed with its guaranteed
    /// min rate replaced by `envs[i].rate` and, when
    /// `envs[i].assume_no_fault` is set, with its fault hypothesis
    /// cleared. A fully degenerate envelope vector (nominal rates,
    /// faults kept) reproduces [`Pipeline::build_model`] bit-exactly.
    ///
    /// # Panics
    /// Panics if the pipeline is invalid or `envs.len()` does not
    /// match the node count.
    pub fn stoch_model(&self, envs: &[StageEnvelope]) -> PipelineModel {
        self.build("stoch_model", Some(envs), None)
    }

    /// [`Pipeline::stoch_model`] through a [`ModelCache`]: the stage
    /// signatures carry the (non-degenerate) envelope as part of the
    /// prefix key, so stochastic rewrites ride the §9 prefix memo
    /// without ever colliding with plain builds — and a degenerate
    /// envelope shares the plain build's entries outright. Exactly
    /// equal to the direct build.
    ///
    /// # Panics
    /// Panics if the pipeline is invalid or `envs.len()` does not
    /// match the node count.
    pub fn stoch_model_cached(
        &self,
        envs: &[StageEnvelope],
        cache: &mut ModelCache,
    ) -> PipelineModel {
        self.build("stoch_model_cached", Some(envs), Some(cache))
    }

    /// The one cascade builder behind the four public model builds.
    /// Stage `i` runs under `envs[i]` when envelopes are given (plain
    /// builds pass `None`). Without a cache every stage is analyzed
    /// directly; with one, the longest memoized prefix is replayed and
    /// every newly analyzed prefix is memoized, all min-plus work going
    /// through the shared curve cache. `api` names the caller in the
    /// invalid-pipeline panic.
    fn build(
        &self,
        api: &str,
        envs: Option<&[StageEnvelope]>,
        cache: Option<&mut ModelCache>,
    ) -> PipelineModel {
        if let Some(envs) = envs {
            assert_eq!(
                envs.len(),
                self.nodes.len(),
                "one envelope per pipeline node"
            );
        }
        if let Err(e) = self.validate() {
            panic!("Pipeline::{api} on invalid pipeline: {e}");
        }
        let env = |i: usize| envs.and_then(|envs| active_envelope(&self.nodes[i], &envs[i]));
        let norms = self.normalization_factors();
        // Source arrival curve (input-referred by definition).
        let arrival = shapes::leaky_bucket(self.source.rate, self.source.burst);
        // Per-node curves and the §3 aggregation-latency recurrence.
        let mut st = CascadeState::start(&self.source, &arrival);
        let mut models: Vec<Arc<NodeModel>> = Vec::with_capacity(self.nodes.len());

        let Some(ModelCache {
            curves, prefixes, ..
        }) = cache
        else {
            for (i, (node, norm)) in self.nodes.iter().zip(&norms).enumerate() {
                models.push(Arc::new(stage_step(
                    node,
                    *norm,
                    &mut st,
                    &mut DirectOps,
                    env(i),
                )));
            }
            return self.assemble(arrival, models, st);
        };

        let sigs: Arc<[StageSig]> = (0..self.nodes.len())
            .map(|i| {
                let mut sig = StageSig::of(&self.nodes[i]);
                sig.envelope = env(i).map(|e| (e.rate, e.assume_no_fault));
                sig
            })
            .collect();
        let key_of = |len: usize| PrefixKey {
            source_rate: self.source.rate,
            source_burst: self.source.burst,
            len,
            stages: Arc::clone(&sigs),
        };

        // Longest previously analyzed prefix of this cascade.
        let mut start = 0;
        for len in (1..=self.nodes.len()).rev() {
            if let Some(e) = prefixes.get(&key_of(len)) {
                st = e.state.clone();
                models = e.models.clone();
                start = len;
                curves.stats_mut().prefix_hits += 1;
                break;
            }
        }
        if start == 0 {
            curves.stats_mut().prefix_misses += 1;
        }

        // Analyze the remaining stages, memoizing every new prefix.
        for (i, (node, norm)) in self.nodes.iter().zip(&norms).enumerate().skip(start) {
            models.push(Arc::new(stage_step(node, *norm, &mut st, curves, env(i))));
            prefixes.insert(
                key_of(i + 1),
                PrefixEntry {
                    state: st.clone(),
                    models: models.clone(),
                },
            );
        }

        self.assemble(arrival, models, st)
    }

    /// Flow-control analysis for this pipeline with bounded queues:
    /// `windows[i]` describes the (input-referred) queue feeding stage
    /// `i`, `None` when unbounded. See [`crate::flowctl`] for the
    /// model; the per-stage service curves and the arrival envelope
    /// are taken from [`Pipeline::build_model`].
    ///
    /// # Panics
    /// Panics if the pipeline is invalid or `windows.len()` does not
    /// match the node count.
    pub fn flowctl_model(&self, windows: &[Option<FlowWindow>]) -> FlowCtlModel {
        let model = self.build_model();
        flowctl_from_model(&mut DirectOps, &model, windows)
    }

    /// [`Pipeline::flowctl_model`] through a [`ModelCache`]: the whole
    /// windowed analysis is memoized on the (source, stages, windows)
    /// signature chain, the forward model underneath reuses the prefix
    /// memo, and all min-plus work inside shares the curve cache.
    /// Exactly equal to the direct build.
    ///
    /// # Panics
    /// Panics if the pipeline is invalid or `windows.len()` does not
    /// match the node count.
    pub fn flowctl_model_cached(
        &self,
        windows: &[Option<FlowWindow>],
        cache: &mut ModelCache,
    ) -> Arc<FlowCtlModel> {
        assert_eq!(
            windows.len(),
            self.nodes.len(),
            "one window slot per pipeline node"
        );
        let sigs: Arc<[StageSig]> = self
            .nodes
            .iter()
            .zip(windows)
            .map(|(n, w)| {
                let mut sig = StageSig::of(n);
                sig.window = w.map(|w| (w.cap, w.slack));
                sig
            })
            .collect();
        let key = PrefixKey {
            source_rate: self.source.rate,
            source_burst: self.source.burst,
            len: sigs.len(),
            stages: sigs,
        };
        if let Some(fc) = cache.flowctl.get(&key) {
            return Arc::clone(fc);
        }
        let model = self.build_model_cached(cache);
        let fc = Arc::new(flowctl_from_model(cache.curves(), &model, windows));
        cache.flowctl.insert(key, Arc::clone(&fc));
        fc
    }

    /// The deterministic twin of this pipeline: every stage's rate
    /// envelope collapsed to its average ([`StageRates::fixed`]`(avg)`).
    ///
    /// The integer-tick deterministic engine services every job at the
    /// *average* rate, so closed-form bounds that are compared against
    /// (or used to gate) deterministic runs must be computed on this
    /// variant — on the original pipeline `β` uses `min` and the
    /// max-consumption envelope uses `max`, a spread the deterministic
    /// engine never exhibits (and which turns overloaded-but-bounded
    /// runs into vacuous `+∞` bounds).
    pub fn deterministic_variant(&self) -> Pipeline {
        let mut det = self.clone();
        for n in &mut det.nodes {
            n.rates = StageRates::fixed(n.rates.avg);
        }
        det
    }

    /// System-level aggregation over the analyzed stages (the paper's
    /// §5 "combine all stages of the pipeline to create a single
    /// node"): bottleneck min rate with the recurrence latency, plus
    /// the exact concatenated service.
    fn assemble(
        &self,
        arrival: Curve,
        per_node: Vec<Arc<NodeModel>>,
        st: CascadeState,
    ) -> PipelineModel {
        let t_tot = st.t_tot;
        let r_bottleneck_min = per_node
            .iter()
            .map(|m| m.rate_min)
            .min()
            .expect("non-empty pipeline");
        let r_bottleneck_avg = per_node
            .iter()
            .map(|m| m.rate_avg)
            .min()
            .expect("non-empty pipeline");
        let r_bottleneck_max = per_node
            .iter()
            .map(|m| m.rate_max)
            .min()
            .expect("non-empty pipeline");
        let service_aggregate = shapes::rate_latency(r_bottleneck_min, t_tot);

        // Exact concatenation: folded stage by stage in `stage_step`
        // (so cached sweeps share the prefix of the fold).
        let service_concat = st.service_concat.expect("non-empty pipeline");
        let max_service = shapes::constant_rate(r_bottleneck_max);

        PipelineModel {
            arrival,
            service: service_aggregate,
            service_concat,
            max_service,
            per_node,
            total_latency: t_tot,
            bottleneck_rate_min: r_bottleneck_min,
            bottleneck_rate_avg: r_bottleneck_avg,
            bottleneck_rate_max: r_bottleneck_max,
        }
    }
}

/// Cascade accumulator threaded through the per-stage analysis.
#[derive(Clone)]
struct CascadeState {
    /// Running `T_n^tot` of the §3 recurrence.
    t_tot: Rat,
    /// Sustained rate of the flow entering the current node.
    upstream_arrival_rate: Rat,
    /// Emitted block size of the upstream stage (`b*_{n−1}`),
    /// input-referred; seeds from the source burst.
    upstream_job_out: Rat,
    /// Arrival curve entering the current node.
    cascade_arrival: Curve,
    /// Running concatenation `β_0 ⊗ … ⊗ β_{n−1}` of the analyzed
    /// stages. Folded here (rather than re-folded in `assemble`) so the
    /// prefix memo carries the partial convolution and a sweep point
    /// that varies only the last stage performs a single new ⊗.
    service_concat: Option<Curve>,
}

impl CascadeState {
    fn start(source: &Source, arrival: &Curve) -> CascadeState {
        CascadeState {
            t_tot: Rat::ZERO,
            upstream_arrival_rate: source.rate,
            upstream_job_out: source.burst,
            cascade_arrival: arrival.clone(),
            service_concat: None,
        }
    }
}

/// The envelope actually applied to a stage: `None` when `e` is
/// degenerate (nominal min rate, fault kept), so degenerate stochastic
/// builds share cache entries — and results, bit-for-bit — with plain
/// builds.
fn active_envelope<'a>(n: &Node, e: &'a StageEnvelope) -> Option<&'a StageEnvelope> {
    if e.rate == n.rates.min && !e.assume_no_fault {
        None
    } else {
        Some(e)
    }
}

/// Analyze one stage against the cascade state, advancing the state to
/// the next node. This is the single implementation behind both the
/// direct and the cached model builds, so the two agree exactly.
/// `env`, when set, applies the stochastic rewrite of [`crate::stoch`]:
/// the guaranteed min rate is replaced by the envelope rate (valid
/// outside the envelope's charged probability event), and a cleared
/// fault hypothesis is skipped entirely.
fn stage_step(
    n: &Node,
    norm: Rat,
    st: &mut CascadeState,
    ops: &mut dyn CurveOps,
    env: Option<&StageEnvelope>,
) -> NodeModel {
    let r_avg = n.rates.avg * norm;
    let r_max = n.rates.max * norm;
    let b_in = n.job_in * norm; // input-referred job size b_n
    let l_out = n.job_out * norm * n.job_ratio(); // = b_in: emitted block, input-referred

    // Stochastic rewrite: envelope min rate, optional fault clearing.
    let base_min = env.map_or(n.rates.min, |e| e.rate);
    let fault = match env {
        Some(e) if e.assume_no_fault => None,
        _ => n.fault.as_ref(),
    };

    // Degraded-service transform (DESIGN.md §11): a fault rewrites the
    // stage's guaranteed (rate, latency) pair; the average rate is
    // derated by the long-run factor. The max-service curve γ stays
    // fault-free — it remains a valid *upper* service bound.
    let (r_min, eff_latency) = match fault {
        Some(f) => f.degraded(base_min * norm, n.latency),
        None => (base_min * norm, n.latency),
    };
    let r_avg = match fault {
        Some(f) => r_avg * f.rate_factor(),
        None => r_avg,
    };

    // §3 recurrence: collection time applies when this node gathers
    // more than the upstream emits per burst.
    let collect = if b_in > st.upstream_job_out {
        b_in / st.upstream_arrival_rate
    } else {
        Rat::ZERO
    };
    st.t_tot = st.t_tot + collect + eff_latency;

    // Packetized service curve: β'_n = [R_min (t − T_n)]⁺ − l ... ⁺
    let beta = ops.packetized_service(r_min, eff_latency + collect, l_out);
    let gamma = shapes::constant_rate(r_max);

    // Bounds for this node against the cascaded arrival (inlined
    // `bounds::analyze_node` routed through `ops` so cached builds memo
    // the packetization, the bound values, and the output-bound
    // convolutions).
    let regime = bounds::classify_regime(&st.cascade_arrival, &beta);
    let backlog = ops.backlog(&st.cascade_arrival, &beta);
    let delay = ops.delay(&st.cascade_arrival, &beta);
    let ag = ops.conv(&st.cascade_arrival, &gamma);
    let output = ops.deconv(&ag, &beta);

    // Arrival seen by the next node: the output bound when the node
    // keeps up; otherwise the flow is capped by the service rate (fluid
    // flow analysis — bounds are infinite but throughput is still
    // defined, §3). The conservative relaxation caps coordinate growth
    // across long cascades of measured (near-coprime) rates without
    // ever tightening an upper bound.
    let next_arrival = match regime {
        Regime::Overloaded => shapes::leaky_bucket(r_min, l_out.max(st.upstream_job_out)),
        _ => output.relax_up(1_000_000),
    };
    let next_rate = match next_arrival.ultimate_slope() {
        Value::Finite(r) => r,
        Value::Infinity => st.upstream_arrival_rate,
        Value::NegInfinity => unreachable!("arrival curves are nonnegative"),
    };

    let model = NodeModel {
        name: n.name.clone(),
        kind: n.kind,
        normalization: norm,
        rate_min: r_min,
        rate_avg: r_avg,
        rate_max: r_max,
        job_in_normalized: b_in,
        arrival: st.cascade_arrival.clone(),
        service: beta,
        max_service: gamma,
        backlog,
        delay,
        regime,
    };

    st.service_concat = Some(match st.service_concat.take() {
        Some(prefix) => ops.conv(&prefix, &model.service),
        None => model.service.clone(),
    });
    st.cascade_arrival = next_arrival;
    st.upstream_arrival_rate = next_rate;
    st.upstream_job_out = l_out;
    model
}

/// Assemble the flow-control inputs from a built model: per-stage
/// lower service curves `β_i`, max-consumption envelopes from the
/// (fault-free) max rates, and the input-referred job sizes.
fn flowctl_from_model(
    ops: &mut dyn CurveOps,
    model: &PipelineModel,
    windows: &[Option<FlowWindow>],
) -> FlowCtlModel {
    let stages: Vec<FlowStage> = model
        .per_node
        .iter()
        .map(|nm| FlowStage {
            service: nm.service.clone(),
            rate_up: nm.rate_max,
            burst: nm.job_in_normalized,
        })
        .collect();
    flowctl::flowctl_model(
        ops,
        &model.arrival,
        &stages,
        windows,
        flowctl::CLOSURE_ITERS,
    )
}

/// The parameters of one stage that determine its analysis given the
/// upstream cascade state — the per-stage component of a prefix key.
#[derive(Clone, PartialEq, Eq, Hash)]
struct StageSig {
    name: String,
    kind: NodeKind,
    min: Rat,
    avg: Rat,
    max: Rat,
    latency: Rat,
    job_in: Rat,
    job_out: Rat,
    fault: Option<FaultModel>,
    /// Input-referred `(cap, slack)` of the bounded queue feeding this
    /// stage, when the signature keys a flow-control analysis. Always
    /// `None` for plain cascade prefixes ([`StageSig::of`]), so the
    /// prefix memo is unaffected by the flow-control layer.
    window: Option<(Rat, Rat)>,
    /// Stochastic envelope `(rate, fault_cleared)` applied to this
    /// stage, when the signature keys a [`crate::stoch`] rewrite.
    /// `None` for plain builds *and* degenerate envelopes, so the
    /// ε = 0 stochastic build shares the plain prefix memo.
    envelope: Option<(Rat, bool)>,
}

impl StageSig {
    fn of(n: &Node) -> StageSig {
        StageSig {
            name: n.name.clone(),
            kind: n.kind,
            min: n.rates.min,
            avg: n.rates.avg,
            max: n.rates.max,
            latency: n.latency,
            job_in: n.job_in,
            job_out: n.job_out,
            fault: n.fault,
            window: None,
            envelope: None,
        }
    }
}

/// Key identifying the analysis of a leading run of stages: the source
/// constraint plus the first `len` stage parameters in order. Two
/// pipelines with equal keys have byte-identical cascade analyses for
/// that prefix.
///
/// All keys derived from one build share a single `Arc<[StageSig]>` of
/// the full signature vector, so constructing the key for each prefix
/// length during lookup is allocation-free; `Hash`/`Eq` only consider
/// `stages[..len]`.
#[derive(Clone)]
struct PrefixKey {
    source_rate: Rat,
    source_burst: Rat,
    len: usize,
    stages: Arc<[StageSig]>,
}

impl PrefixKey {
    fn prefix(&self) -> &[StageSig] {
        &self.stages[..self.len]
    }
}

impl PartialEq for PrefixKey {
    fn eq(&self, other: &Self) -> bool {
        self.source_rate == other.source_rate
            && self.source_burst == other.source_burst
            && self.len == other.len
            && ((Arc::ptr_eq(&self.stages, &other.stages)) || self.prefix() == other.prefix())
    }
}
impl Eq for PrefixKey {}

impl std::hash::Hash for PrefixKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.source_rate.hash(state);
        self.source_burst.hash(state);
        self.len.hash(state);
        for sig in self.prefix() {
            sig.hash(state);
        }
    }
}

/// Memoized cascade analysis of one prefix: the state entering the next
/// stage plus the per-node models so far (shared, not cloned, between
/// the entries of nested prefixes).
struct PrefixEntry {
    state: CascadeState,
    models: Vec<Arc<NodeModel>>,
}

/// Reusable state for [`Pipeline::build_model_cached`]: a
/// [`CurveCache`] for the min-plus operators plus a memo of analyzed
/// pipeline prefixes. Use one per worker thread in parallel sweeps.
#[derive(Default)]
pub struct ModelCache {
    curves: CurveCache,
    prefixes: HashMap<PrefixKey, PrefixEntry, crate::cache::FxBuildHasher>,
    /// Flow-control analyses, keyed on the full windowed signature
    /// chain. Whole-chain granularity: the backward recursion makes a
    /// windowed analysis suffix-dependent, so there is no prefix to
    /// share — but the forward model underneath still reuses the
    /// prefix memo, and the closure/conv work inside goes through the
    /// shared curve cache.
    flowctl: HashMap<PrefixKey, Arc<FlowCtlModel>, crate::cache::FxBuildHasher>,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> ModelCache {
        ModelCache::default()
    }

    /// The underlying curve cache, for memoizing further operator calls
    /// against built models (e.g. [`PipelineModel::throughput_over_with`]).
    pub fn curves(&mut self) -> &mut CurveCache {
        &mut self.curves
    }

    /// Counters accumulated since construction (operator hits/misses,
    /// interned curves, and pipeline prefix reuse).
    pub fn stats(&self) -> CacheStats {
        self.curves.stats()
    }

    /// Number of memoized pipeline prefixes currently held.
    pub fn prefix_entries(&self) -> usize {
        self.prefixes.len()
    }

    /// Suffix-invalidation hook: evict every memoized prefix of
    /// `pipeline` longer than `keep` stages, returning the number of
    /// entries dropped.
    ///
    /// When a long-lived service reconfigures stage `k` of a pipeline
    /// (admission-control reprovisioning, degraded-mode rewrites), the
    /// cascade analyses of prefixes `0..=k` are still exact — only the
    /// entries *past* the edited stage are stale for the *old*
    /// signature chain, and under the new chain they would never be hit
    /// again (the new signatures miss and re-analyze). Calling this
    /// with the pre-edit pipeline and `keep = k` drops exactly those
    /// unreachable entries, bounding memo growth across
    /// reconfigurations without touching entries of other tenants that
    /// share the cache. Curves stay interned — the interner is
    /// append-only by design (identity soundness; see
    /// [`crate::cache`]).
    pub fn invalidate_suffix(&mut self, pipeline: &Pipeline, keep: usize) -> usize {
        let sigs: Arc<[StageSig]> = pipeline.nodes.iter().map(StageSig::of).collect();
        let before = self.prefixes.len();
        self.prefixes.retain(|key, _| {
            key.len <= keep
                || key.len > sigs.len()
                || key.source_rate != pipeline.source.rate
                || key.source_burst != pipeline.source.burst
                || key.prefix() != &sigs[..key.len]
        });
        before - self.prefixes.len()
    }
}

/// Network-calculus artifacts for one node, input-referred.
#[derive(Clone, Debug)]
pub struct NodeModel {
    /// Stage name.
    pub name: String,
    /// Stage kind.
    pub kind: NodeKind,
    /// Normalization factor applied to this node's local volumes.
    pub normalization: Rat,
    /// Normalized min rate (service curve rate).
    pub rate_min: Rat,
    /// Normalized average rate.
    pub rate_avg: Rat,
    /// Normalized max rate (max service curve rate).
    pub rate_max: Rat,
    /// Input-referred job size `b_n`.
    pub job_in_normalized: Rat,
    /// Arrival curve entering this node (cascaded output bounds).
    pub arrival: Curve,
    /// Packetized service curve `β'_n`.
    pub service: Curve,
    /// Maximum service curve `γ_n`.
    pub max_service: Curve,
    /// Backlog bound at this node.
    pub backlog: Value,
    /// Delay bound at this node.
    pub delay: Value,
    /// Operating regime at this node.
    pub regime: Regime,
}

/// The assembled network-calculus model of a pipeline.
#[derive(Clone, Debug)]
pub struct PipelineModel {
    /// System arrival curve `α`.
    pub arrival: Curve,
    /// Aggregate service curve `β` (bottleneck rate, recurrence latency) —
    /// the paper's single-node reduction.
    pub service: Curve,
    /// Exact concatenated service curve (`⊗` of per-node curves).
    pub service_concat: Curve,
    /// System maximum service curve `γ`.
    pub max_service: Curve,
    /// Per-node artifacts in flow order. `Arc`-shared so cached builds
    /// can return memoized prefix models without deep-cloning them;
    /// reads deref transparently.
    pub per_node: Vec<Arc<NodeModel>>,
    /// Total latency `T_N^tot` from the §3 recurrence.
    pub total_latency: Rat,
    /// Bottleneck normalized min rate.
    pub bottleneck_rate_min: Rat,
    /// Bottleneck normalized average rate.
    pub bottleneck_rate_avg: Rat,
    /// Bottleneck normalized max rate.
    pub bottleneck_rate_max: Rat,
}

/// Throughput bounds over a finite horizon, as reported in the paper's
/// Tables 1 and 3 (rates are input-referred bytes/s).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ThroughputBounds {
    /// Upper bound: the arrival-curve mean rate over the horizon (the
    /// paper: "the arrival curve corresponds to an upper bound on
    /// performance").
    pub upper: Value,
    /// Lower bound: the mean rate of `α ⊗ β` over the horizon — the
    /// guaranteed cumulative output of a greedy source (the paper's
    /// "the service curve … corresponds to the lower bound of predicted
    /// performance"; convolving with `α` additionally caps it at the
    /// arrival rate so `lower ≤ upper` always holds).
    pub lower: Value,
    /// Loose upper bound from the output flow bound `α*`.
    pub output_loose: Value,
}

impl PipelineModel {
    /// System backlog bound `x` (uses the aggregate service curve).
    pub fn backlog_bound(&self) -> Value {
        bounds::backlog_bound(&self.arrival, &self.service)
    }

    /// System virtual-delay bound `d`.
    pub fn delay_bound(&self) -> Value {
        bounds::delay_bound(&self.arrival, &self.service)
    }

    /// [`PipelineModel::backlog_bound`] through an operator provider, so
    /// sweeps evaluating many models against a [`CurveCache`] memoize
    /// the bound per `(arrival, service)` pair.
    pub fn backlog_bound_with(&self, ops: &mut dyn CurveOps) -> Value {
        ops.backlog(&self.arrival, &self.service)
    }

    /// [`PipelineModel::delay_bound`] through an operator provider.
    pub fn delay_bound_with(&self, ops: &mut dyn CurveOps) -> Value {
        ops.delay(&self.arrival, &self.service)
    }

    /// System output flow bound `α* = (α ⊗ γ) ⊘ β`.
    pub fn output_bound(&self) -> Curve {
        bounds::output_bound_with_max(&self.arrival, &self.max_service, &self.service)
    }

    /// [`PipelineModel::output_bound`] through an operator provider, so
    /// repeated evaluations against a [`CurveCache`] are memo lookups.
    pub fn output_bound_with(&self, ops: &mut dyn CurveOps) -> Curve {
        let ag = ops.conv(&self.arrival, &self.max_service);
        ops.deconv(&ag, &self.service)
    }

    /// Same bounds computed against the exact concatenated service
    /// curve instead of the aggregate reduction (always at least as
    /// tight).
    pub fn backlog_bound_concat(&self) -> Value {
        bounds::backlog_bound(&self.arrival, &self.service_concat)
    }

    /// Delay bound against the concatenated service curve.
    pub fn delay_bound_concat(&self) -> Value {
        bounds::delay_bound(&self.arrival, &self.service_concat)
    }

    /// [`PipelineModel::backlog_bound_concat`] through an operator
    /// provider.
    pub fn backlog_bound_concat_with(&self, ops: &mut dyn CurveOps) -> Value {
        ops.backlog(&self.arrival, &self.service_concat)
    }

    /// [`PipelineModel::delay_bound_concat`] through an operator
    /// provider.
    pub fn delay_bound_concat_with(&self, ops: &mut dyn CurveOps) -> Value {
        ops.delay(&self.arrival, &self.service_concat)
    }

    /// System operating regime.
    pub fn regime(&self) -> Regime {
        bounds::classify_regime(&self.arrival, &self.service)
    }

    /// Mean-rate throughput bounds over `[0, horizon]`: the paper's
    /// table rows divide cumulative curves by the horizon.
    ///
    /// # Panics
    /// Panics if `horizon ≤ 0`.
    pub fn throughput_over(&self, horizon: Rat) -> ThroughputBounds {
        self.throughput_over_with(&mut DirectOps, horizon)
    }

    /// [`PipelineModel::throughput_over`] through an operator provider.
    /// Sampling many horizons against a [`CurveCache`] computes the
    /// underlying `α ⊗ β` and `(α ⊗ γ) ⊘ β` once and re-evaluates the
    /// memoized curves per horizon.
    ///
    /// # Panics
    /// Panics if `horizon ≤ 0`.
    pub fn throughput_over_with(&self, ops: &mut dyn CurveOps, horizon: Rat) -> ThroughputBounds {
        assert!(horizon.is_positive(), "throughput horizon must be > 0");
        let inv = horizon.recip();
        let upper = self.arrival.eval(horizon).scale(inv);
        let lower = ops
            .conv(&self.arrival, &self.service)
            .eval(horizon)
            .scale(inv);
        let output_loose = self.output_bound_with(ops).eval(horizon).scale(inv);
        ThroughputBounds {
            upper,
            lower,
            output_loose,
        }
    }

    /// [`PipelineModel::throughput_over`] batched over a horizon
    /// ladder: the underlying `α ⊗ β` and `(α ⊗ γ) ⊘ β` curves are
    /// computed once (through `ops`, so a [`CurveCache`] shares them
    /// with other models too) and each horizon costs three curve
    /// evaluations. Exactly equal, element-wise, to calling
    /// [`PipelineModel::throughput_over`] per horizon.
    ///
    /// # Panics
    /// Panics if any horizon is `≤ 0`.
    pub fn throughput_profile_with(
        &self,
        ops: &mut dyn CurveOps,
        horizons: &[Rat],
    ) -> Vec<ThroughputBounds> {
        if horizons.is_empty() {
            return Vec::new();
        }
        let lower_curve = ops.conv(&self.arrival, &self.service);
        let output_curve = self.output_bound_with(ops);
        horizons
            .iter()
            .map(|&horizon| {
                assert!(horizon.is_positive(), "throughput horizon must be > 0");
                let inv = horizon.recip();
                ThroughputBounds {
                    upper: self.arrival.eval(horizon).scale(inv),
                    lower: lower_curve.eval(horizon).scale(inv),
                    output_loose: output_curve.eval(horizon).scale(inv),
                }
            })
            .collect()
    }

    /// Largest sustainable source rate that keeps the system backlog
    /// bound within `budget` bytes, against the exact concatenated
    /// service curve — the paper's §6 buffer/back-pressure question.
    /// Returns `None` when even a zero rate overflows the budget.
    pub fn max_admissible_rate(&self, budget: Rat) -> Option<Rat> {
        let (_, burst) = self.source_params();
        bounds::max_admissible_rate(&self.service_concat, burst, budget)
    }

    /// The paper's §3 overload-tolerant backlog estimate
    /// `x ≈ b + R_α · T_tot` — equal to [`PipelineModel::backlog_bound`]
    /// when underloaded, and a finite queue-sizing heuristic when
    /// `R_α > R_β` (where the true bound is infinite).
    pub fn heuristic_backlog(&self) -> Rat {
        let (rate, burst) = self.source_params();
        bounds::heuristic::backlog(rate, burst, self.total_latency)
    }

    /// The paper's §3 overload-tolerant delay estimate
    /// `d ≈ T_tot + b / R_β`.
    pub fn heuristic_delay(&self) -> Value {
        let (_, burst) = self.source_params();
        bounds::heuristic::delay(burst, self.bottleneck_rate_min, self.total_latency)
    }

    /// Source leaky-bucket parameters recovered from the arrival curve.
    fn source_params(&self) -> (Rat, Rat) {
        let rate = match self.arrival.ultimate_slope() {
            Value::Finite(r) => r,
            _ => Rat::ZERO,
        };
        let burst = match self.arrival.eval_right(Rat::ZERO) {
            Value::Finite(b) => b,
            _ => Rat::ZERO,
        };
        (rate, burst)
    }

    /// Backlog contribution of every node (the paper: "the
    /// contributions of the data occupancy bounds that are due to each
    /// node … can be determined analytically, which can assist a
    /// developer in allocating buffers").
    pub fn per_node_backlogs(&self) -> Vec<(String, Value)> {
        self.per_node
            .iter()
            .map(|m| (m.name.clone(), m.backlog))
            .collect()
    }

    /// Model for a contiguous subset of nodes `[from, to]` (0-based,
    /// inclusive), fed by the cascaded arrival at `from` (§4.2: "we can
    /// create models for intermediate systems by finding service curves
    /// for a subset of contiguous nodes").
    ///
    /// # Panics
    /// Panics if the range is empty or out of bounds.
    pub fn subset(&self, from: usize, to: usize) -> SubsetModel {
        assert!(from <= to && to < self.per_node.len(), "bad subset range");
        let arrival = self.per_node[from].arrival.clone();
        let mut service = self.per_node[from].service.clone();
        for m in &self.per_node[from + 1..=to] {
            service = min_plus_conv(&service, &m.service);
        }
        let r_max = self.per_node[from..=to]
            .iter()
            .map(|m| m.rate_max)
            .min()
            .expect("non-empty range");
        let max_service = shapes::constant_rate(r_max);
        let backlog = bounds::backlog_bound(&arrival, &service);
        let delay = bounds::delay_bound(&arrival, &service);
        let output = min_plus_deconv(&min_plus_conv(&arrival, &max_service), &service);
        SubsetModel {
            from,
            to,
            arrival,
            service,
            max_service,
            backlog,
            delay,
            output,
        }
    }
}

/// Bounds for a contiguous slice of the pipeline.
#[derive(Clone, Debug)]
pub struct SubsetModel {
    /// First node index (inclusive).
    pub from: usize,
    /// Last node index (inclusive).
    pub to: usize,
    /// Arrival curve entering the slice.
    pub arrival: Curve,
    /// Concatenated service curve of the slice.
    pub service: Curve,
    /// Maximum service curve of the slice.
    pub max_service: Curve,
    /// Backlog bound for the slice.
    pub backlog: Value,
    /// Delay bound for the slice.
    pub delay: Value,
    /// Output bound leaving the slice.
    pub output: Curve,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::rat;
    use crate::units::{mib, mib_per_s};

    fn simple_node(name: &str, rate: i64, job: i64) -> Node {
        Node::new(
            name,
            NodeKind::Compute,
            StageRates::fixed(Rat::int(rate)),
            Rat::ZERO,
            Rat::int(job),
            Rat::int(job),
        )
    }

    fn two_stage() -> Pipeline {
        Pipeline::new(
            "two-stage",
            Source {
                rate: Rat::int(4),
                burst: Rat::int(8),
            },
            vec![simple_node("a", 10, 8), simple_node("b", 6, 8)],
        )
    }

    #[test]
    fn validation_catches_errors() {
        let mut p = two_stage();
        p.nodes.clear();
        assert_eq!(p.validate().unwrap_err(), PipelineError::NoNodes);

        let mut p = two_stage();
        p.nodes[0].rates.min = Rat::int(20); // min > avg
        assert!(matches!(
            p.validate().unwrap_err(),
            PipelineError::BadRates(_)
        ));

        let mut p = two_stage();
        p.nodes[1].job_in = Rat::ZERO;
        assert!(matches!(
            p.validate().unwrap_err(),
            PipelineError::BadJobSize(_)
        ));

        let mut p = two_stage();
        p.source.rate = Rat::ZERO;
        assert_eq!(p.validate().unwrap_err(), PipelineError::BadSource);
    }

    #[test]
    fn normalization_accumulates_job_ratios() {
        // fa2bit-style 4:1 then 1:2 expansion.
        let mut p = two_stage();
        p.nodes[0].job_in = Rat::int(8);
        p.nodes[0].job_out = Rat::int(2);
        p.nodes[1].job_in = Rat::int(2);
        p.nodes[1].job_out = Rat::int(4);
        let norms = p.normalization_factors();
        assert_eq!(norms, vec![Rat::ONE, Rat::int(4)]);
        let m = p.build_model();
        // Node b locally serves 6 B/s of quarter-volume data → 24 B/s
        // input-referred.
        assert_eq!(m.per_node[1].rate_min, Rat::int(24));
    }

    #[test]
    fn bottleneck_and_latency_aggregate() {
        let mut p = two_stage();
        p.nodes[0].latency = Rat::ONE;
        p.nodes[1].latency = Rat::int(2);
        let m = p.build_model();
        assert_eq!(m.bottleneck_rate_min, Rat::int(6));
        // Node a collects 8 bytes at source rate 4 → 2 s, but the source
        // burst is 8 = job, so no collection charge; node b's job (8)
        // equals node a's emitted block (8) → no charge either.
        assert_eq!(m.total_latency, Rat::int(3));
    }

    #[test]
    fn aggregation_latency_charged_when_job_exceeds_upstream_burst() {
        let mut p = two_stage();
        p.source.burst = Rat::int(2); // smaller than node a's job of 8
        p.nodes[0].latency = Rat::ONE;
        let m = p.build_model();
        // collect = b_n / R_α = 8 / 4 = 2, plus T = 1.
        assert_eq!(m.total_latency, Rat::int(3));
    }

    #[test]
    fn system_bounds_finite_when_underloaded() {
        let p = two_stage();
        let m = p.build_model();
        assert_eq!(m.regime(), Regime::Underloaded);
        assert!(m.backlog_bound().is_finite());
        assert!(m.delay_bound().is_finite());
        // The exact concatenation is also finite (a different, usually
        // tighter-rate but packetization-aware model).
        assert!(m.backlog_bound_concat().is_finite());
        assert!(m.delay_bound_concat().is_finite());
    }

    #[test]
    fn overload_detected_and_throughput_capped() {
        let mut p = two_stage();
        p.source.rate = Rat::int(20); // exceeds both stages
        let m = p.build_model();
        assert_eq!(m.regime(), Regime::Overloaded);
        assert_eq!(m.backlog_bound(), Value::Infinity);
        assert_eq!(m.delay_bound(), Value::Infinity);
        // Flow analysis still reports the bottleneck rate downstream.
        assert_eq!(m.per_node[1].regime, Regime::Overloaded);
    }

    #[test]
    fn throughput_bounds_bracket_bottleneck() {
        let p = two_stage();
        let m = p.build_model();
        let tb = m.throughput_over(Rat::int(100));
        // Upper ≈ source rate (plus vanishing burst term), lower below
        // bottleneck, output_loose ≥ upper.
        assert!(tb.upper >= Value::from(4));
        assert!(tb.lower <= Value::from(6));
        assert!(tb.lower.is_finite());
        assert!(tb.output_loose >= tb.lower);
    }

    #[test]
    fn subset_matches_full_range() {
        let p = two_stage();
        let m = p.build_model();
        let s = m.subset(0, 1);
        assert_eq!(s.service, m.service_concat);
        let s0 = m.subset(0, 0);
        assert_eq!(s0.service, m.per_node[0].service);
        // Slice backlogs decompose the buffer allocation question.
        assert!(s0.backlog.is_finite());
    }

    #[test]
    fn admissible_rate_respects_budget() {
        let p = two_stage();
        let m = p.build_model();
        let budget = Rat::int(40);
        let r = m.max_admissible_rate(budget).expect("admissible");
        assert!(r.is_positive());
        // Rebuild with that exact rate: the bound stays within budget.
        let mut p2 = two_stage();
        p2.source.rate = r;
        let m2 = p2.build_model();
        assert!(m2.backlog_bound_concat() <= Value::finite(budget));
        // The admissible rate never exceeds the bottleneck.
        assert!(r <= m.bottleneck_rate_min);
    }

    #[test]
    fn per_node_backlogs_reported() {
        let p = two_stage();
        let m = p.build_model();
        let backlogs = m.per_node_backlogs();
        assert_eq!(backlogs.len(), 2);
        assert!(backlogs.iter().all(|(_, b)| b.is_finite()));
    }

    #[test]
    fn cached_build_matches_direct() {
        let mut cache = ModelCache::new();
        for burst in [4i64, 8, 16] {
            let mut p = two_stage();
            p.source.burst = Rat::int(burst);
            let direct = p.build_model();
            let cached = p.build_model_cached(&mut cache);
            assert_eq!(cached.arrival, direct.arrival);
            assert_eq!(cached.service, direct.service);
            assert_eq!(cached.service_concat, direct.service_concat);
            assert_eq!(cached.max_service, direct.max_service);
            assert_eq!(cached.total_latency, direct.total_latency);
            assert_eq!(cached.per_node.len(), direct.per_node.len());
            for (c, d) in cached.per_node.iter().zip(&direct.per_node) {
                assert_eq!(c.arrival, d.arrival);
                assert_eq!(c.service, d.service);
                assert_eq!(c.backlog, d.backlog);
                assert_eq!(c.delay, d.delay);
                assert_eq!(c.regime, d.regime);
            }
        }
    }

    #[test]
    fn prefix_reuse_when_only_last_stage_varies() {
        let mut cache = ModelCache::new();
        let p = two_stage();
        let _ = p.build_model_cached(&mut cache);
        assert_eq!(cache.stats().prefix_misses, 1);

        // Same pipeline again: the full prefix hits.
        let _ = p.build_model_cached(&mut cache);
        assert_eq!(cache.stats().prefix_hits, 1);

        // Vary only the last stage: the leading prefix still hits, and
        // the results match a fresh direct build.
        let mut p2 = two_stage();
        p2.nodes[1].rates = StageRates::fixed(Rat::int(5));
        let cached = p2.build_model_cached(&mut cache);
        assert_eq!(cache.stats().prefix_hits, 2);
        let direct = p2.build_model();
        assert_eq!(cached.service_concat, direct.service_concat);
        assert_eq!(cached.per_node[1].backlog, direct.per_node[1].backlog);
    }

    #[test]
    fn faulted_stage_degrades_concat_bounds_monotonically() {
        // Derating the bottleneck weakens every concatenated bound:
        // lower guaranteed rate, larger delay, larger (or equal)
        // backlog. The degradation flows through the prefix cascade.
        let p = two_stage();
        let base = p.build_model();
        let mut pf = two_stage();
        pf.nodes[1].fault = Some(FaultModel::RateDerate {
            delta: Rat::new(1, 4),
        });
        pf.validate().unwrap();
        let deg = pf.build_model();
        assert_eq!(deg.per_node[1].rate_min, Rat::new(9, 2)); // 6 * 3/4
        assert!(deg.delay_bound_concat() >= base.delay_bound_concat());
        assert!(deg.backlog_bound_concat() >= base.backlog_bound_concat());
        // A stall additionally extends the cascade latency.
        let mut ps = two_stage();
        ps.nodes[0].fault = Some(FaultModel::PeriodicStall {
            budget: Rat::new(1, 10),
            period: Rat::ONE,
        });
        let stalled = ps.build_model();
        assert!(stalled.total_latency > base.total_latency);
    }

    #[test]
    fn fault_is_part_of_the_prefix_cache_key() {
        // A faulted variant of an already-cached pipeline must MISS the
        // full-prefix lookup (same name/rates/jobs, different fault) and
        // produce the same model as a fresh direct build.
        let mut cache = ModelCache::new();
        let p = two_stage();
        let _ = p.build_model_cached(&mut cache);
        let mut pf = two_stage();
        pf.nodes[0].fault = Some(FaultModel::TransientOutage {
            duration: Rat::new(1, 2),
        });
        let cached = pf.build_model_cached(&mut cache);
        assert_eq!(cache.stats().prefix_hits, 0);
        let direct = pf.build_model();
        assert_eq!(cached.service_concat, direct.service_concat);
        assert_eq!(cached.per_node[0].delay, direct.per_node[0].delay);
        // Re-building the faulted pipeline now hits its own entry.
        let _ = pf.build_model_cached(&mut cache);
        assert_eq!(cache.stats().prefix_hits, 1);
    }

    #[test]
    fn cached_throughput_matches_direct() {
        let p = two_stage();
        let m = p.build_model();
        let mut cache = CurveCache::new();
        for h in [1i64, 10, 100, 1000] {
            let direct = m.throughput_over(Rat::int(h));
            let cached = m.throughput_over_with(&mut cache, Rat::int(h));
            assert_eq!(direct.upper, cached.upper);
            assert_eq!(direct.lower, cached.lower);
            assert_eq!(direct.output_loose, cached.output_loose);
        }
        // Here β (rate-latency with zero total latency) and γ (constant
        // rate at the same bottleneck) are the same function, so the
        // interner collapses α⊗β and α⊗γ into ONE conv entry: a single
        // conv + deconv computed, everything else memo hits.
        assert_eq!(cache.stats().op_misses(), 2);
        assert!(cache.stats().op_hits() >= 10);
    }

    #[test]
    fn paper_units_roundtrip() {
        // A bump-in-the-wire-style stage in MiB/s survives normalization.
        let p = Pipeline::new(
            "units",
            Source {
                rate: mib_per_s(100.0),
                burst: mib(1),
            },
            vec![Node::new(
                "encrypt",
                NodeKind::Compute,
                StageRates::new(mib_per_s(56.0), mib_per_s(68.0), mib_per_s(75.0)),
                rat(1, 1_000_000),
                mib(1),
                mib(1),
            )],
        );
        let m = p.build_model();
        assert_eq!(m.bottleneck_rate_min, mib_per_s(56.0));
        assert_eq!(m.regime(), Regime::Overloaded); // 100 > 56
    }

    #[test]
    fn max_admissible_rate_zero_budget() {
        // With a positive source burst, even a zero rate overflows a
        // zero-byte budget: the burst alone is resident at t = 0.
        let m = two_stage().build_model();
        assert_eq!(m.max_admissible_rate(Rat::ZERO), None);

        // A burst-free stream against the same service fits a zero
        // budget (pipeline validation requires burst > 0, so probe the
        // bounds-level function directly with b = 0) — but any
        // positive rate queues during the packetized service latency,
        // so the cap is exactly 0, not None.
        let m = two_stage().build_model();
        let cap = bounds::max_admissible_rate(&m.service_concat, Rat::ZERO, Rat::ZERO)
            .expect("zero burst fits a zero budget");
        assert_eq!(cap, Rat::ZERO);
    }

    #[test]
    fn max_admissible_rate_budget_above_line_rate_needs() {
        // A budget so large no finite-time constraint binds: the cap is
        // the line (bottleneck service) rate, beyond which the true
        // backlog bound is infinite regardless of buffering.
        let m = two_stage().build_model();
        let cap = m
            .max_admissible_rate(Rat::int(1 << 30))
            .expect("huge budget is feasible");
        assert_eq!(cap, m.bottleneck_rate_min);
        // And the cap is achievable: at the cap the backlog bound is
        // finite (critical regime, not overloaded).
        assert!(cap.is_positive());
    }

    #[test]
    fn max_admissible_rate_is_exact_at_the_cap() {
        // At the returned cap the backlog bound meets the budget; just
        // above it (1%), the bound exceeds the budget — the half-plane
        // intersection is tight, not merely safe.
        let p = two_stage();
        let m = p.build_model();
        let budget = Rat::int(64);
        let cap = m.max_admissible_rate(budget).unwrap();
        let at = |r: Rat| {
            let alpha = shapes::leaky_bucket(r, p.source.burst);
            crate::ops::vertical_deviation(&alpha, &m.service_concat)
        };
        assert!(at(cap) <= Value::finite(budget));
        if cap < m.bottleneck_rate_min {
            let above = cap * rat(101, 100);
            assert!(at(above) > Value::finite(budget));
        }
    }

    #[test]
    fn invalidate_suffix_evicts_only_stale_entries() {
        let mut cache = ModelCache::new();
        let p = two_stage();
        let _ = p.build_model_cached(&mut cache);
        assert_eq!(cache.prefix_entries(), 2); // prefixes of len 1 and 2

        // A second, unrelated pipeline shares the cache.
        let mut q = two_stage();
        q.source.rate = Rat::int(3);
        let _ = q.build_model_cached(&mut cache);
        assert_eq!(cache.prefix_entries(), 4);

        // Reconfiguring p's stage 1 (index 1) keeps the len-1 prefix.
        let evicted = cache.invalidate_suffix(&p, 1);
        assert_eq!(evicted, 1);
        assert_eq!(cache.prefix_entries(), 3);

        // q's entries are untouched: rebuilding q is all prefix hits.
        let before = cache.stats().prefix_hits;
        let _ = q.build_model_cached(&mut cache);
        assert_eq!(cache.stats().prefix_hits, before + 1);

        // Rebuilding p resumes from the surviving len-1 prefix (a hit,
        // not a from-scratch miss) and re-memoizes the evicted suffix.
        let (hits, misses) = (cache.stats().prefix_hits, cache.stats().prefix_misses);
        let _ = p.build_model_cached(&mut cache);
        assert_eq!(cache.stats().prefix_hits, hits + 1);
        assert_eq!(cache.stats().prefix_misses, misses);
        assert_eq!(cache.prefix_entries(), 4);
    }
}
