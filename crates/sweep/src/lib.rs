//! # nc-sweep — batch parameter-sweep engine for pipeline models
//!
//! The paper's real use case is not one analysis but many: block-size
//! and link-rate what-ifs, offered-load sweeps across the three §3
//! regimes, bounds surfaces for buffer provisioning. This crate turns a
//! base [`Pipeline`] plus a set of parameter [`Axis`] definitions into
//! a full cartesian grid of scenarios, evaluates every grid point
//! (network-calculus bounds, horizon throughput rows, and optionally a
//! discrete-event simulation), and returns a deterministic bounds
//! surface.
//!
//! Evaluation fans out over [`workers`] threads with [`stripe`], which
//! hands each worker one contiguous run of grid points. Each worker
//! carries its own [`ModelCache`] (hash-consed curves + memoized
//! min-plus operators + pipeline-prefix reuse — see `nc_core::cache`)
//! and its own reusable [`SimArena`], so neighbouring grid points share
//! almost all of their analysis. Results are collected in grid order
//! and contain no thread-dependent data: sweep output is byte-identical
//! for any `NC_THREADS`, including 1.
//!
//! ## Quick start
//!
//! ```
//! use nc_core::num::Rat;
//! use nc_core::pipeline::{Node, NodeKind, Pipeline, Source, StageRates};
//! use nc_sweep::{Axis, Param, SweepSpec};
//!
//! let base = Pipeline::new(
//!     "demo",
//!     Source { rate: Rat::int(80), burst: Rat::int(64) },
//!     vec![Node::new(
//!         "stage",
//!         NodeKind::Compute,
//!         StageRates::new(Rat::int(90), Rat::int(100), Rat::int(110)),
//!         Rat::ZERO,
//!         Rat::int(64),
//!         Rat::int(64),
//!     )],
//! );
//! let spec = SweepSpec {
//!     base,
//!     axes: vec![
//!         Axis::linspace(Param::SourceRate, Rat::int(40), Rat::int(160), 5),
//!         Axis::new(Param::BlockSize(0), vec![Rat::int(32), Rat::int(64)]),
//!     ],
//!     horizons: vec![Rat::int(1), Rat::int(100)],
//!     sim: None,
//!     tail: None,
//! };
//! let surface = nc_sweep::run(&spec);
//! assert_eq!(surface.points.len(), 10);
//! assert!(surface.stats.prefix_hits + surface.stats.prefix_misses >= 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fanout;

pub use fanout::{env_size, stripe, workers};

use nc_core::bounds::Regime;
use nc_core::cache::{CacheStats, CurveOps, DirectOps};
use nc_core::num::{Rat, Value};
use nc_core::pipeline::{ModelCache, Pipeline, PipelineModel, StageRates, ThroughputBounds};
use nc_core::stoch::{StochSpec, TailBounds};
use nc_streamsim::{
    flow_windows, simulate, simulate_in, ServiceModel, SimArena, SimConfig, SimResult,
};

/// Which pipeline parameter an axis varies. Stage indices are 0-based
/// positions in [`Pipeline::nodes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Param {
    /// Source sustained rate `R_α` (bytes/s) — the offered load.
    SourceRate,
    /// Source burst `b` (bytes).
    SourceBurst,
    /// Fixed throughput of a stage (sets min = avg = max) — e.g. a
    /// link rate.
    Rate(usize),
    /// Scale a stage's measured min/avg/max throughput triple.
    RateScale(usize),
    /// Dispatch latency `T_n` of a stage (seconds).
    Latency(usize),
    /// Block size of a stage: sets `job_in = job_out` (bytes).
    BlockSize(usize),
    /// Compression ratio of a stage: sets `job_out = job_in / value`.
    CompressionRatio(usize),
}

impl Param {
    /// Stable column label for surfaces/CSV.
    pub fn label(&self) -> String {
        match self {
            Param::SourceRate => "source_rate".into(),
            Param::SourceBurst => "source_burst".into(),
            Param::Rate(i) => format!("rate[{i}]"),
            Param::RateScale(i) => format!("rate_scale[{i}]"),
            Param::Latency(i) => format!("latency[{i}]"),
            Param::BlockSize(i) => format!("block_size[{i}]"),
            Param::CompressionRatio(i) => format!("compression[{i}]"),
        }
    }

    /// Apply `value` to `p` in place.
    ///
    /// # Panics
    /// Panics if the stage index is out of range.
    pub fn apply(&self, p: &mut Pipeline, value: Rat) {
        match *self {
            Param::SourceRate => p.source.rate = value,
            Param::SourceBurst => p.source.burst = value,
            Param::Rate(i) => p.nodes[i].rates = StageRates::fixed(value),
            Param::RateScale(i) => {
                let r = p.nodes[i].rates;
                p.nodes[i].rates = StageRates::new(r.min * value, r.avg * value, r.max * value);
            }
            Param::Latency(i) => p.nodes[i].latency = value,
            Param::BlockSize(i) => {
                p.nodes[i].job_in = value;
                p.nodes[i].job_out = value;
            }
            Param::CompressionRatio(i) => {
                p.nodes[i].job_out = p.nodes[i].job_in / value;
            }
        }
    }
}

/// One sweep dimension: a parameter and the exact values it takes.
#[derive(Clone, Debug)]
pub struct Axis {
    /// The varied parameter.
    pub param: Param,
    /// Grid values, in order.
    pub values: Vec<Rat>,
}

impl Axis {
    /// An axis over explicit values.
    pub fn new(param: Param, values: Vec<Rat>) -> Axis {
        assert!(!values.is_empty(), "axis needs at least one value");
        Axis { param, values }
    }

    /// `n` evenly spaced exact-rational values from `from` to `to`
    /// inclusive (`n = 1` yields just `from`).
    pub fn linspace(param: Param, from: Rat, to: Rat, n: usize) -> Axis {
        assert!(n >= 1, "linspace needs n >= 1");
        let values = if n == 1 {
            vec![from]
        } else {
            let step = (to - from) / Rat::int(n as i64 - 1);
            (0..n).map(|k| from + step * Rat::int(k as i64)).collect()
        };
        Axis::new(param, values)
    }
}

/// Stochastic tail-bound evaluation attached to a sweep: at every grid
/// point, [`Pipeline::tail_bounds`] is computed for each violation
/// budget, describing a run of `total_input` input-referred bytes
/// (job counts are re-derived per point, so block-size axes are
/// handled exactly).
#[derive(Clone, Debug)]
pub struct TailSpec {
    /// Input-referred bytes per run (the [`StochSpec::for_run`] volume).
    pub total_input: u64,
    /// Violation budgets, ascending; one `tail_*@eps` column group per
    /// entry.
    pub eps: Vec<Rat>,
    /// `(stage, q)` marks turning fault hypotheses of the base pipeline
    /// probabilistic (see [`StochSpec::with_fault_prob`]).
    pub fault_prob: Vec<(usize, Rat)>,
}

/// A full sweep: base pipeline, axes (cartesian product), throughput
/// horizons to tabulate, and an optional simulation per grid point.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The pipeline every grid point starts from.
    pub base: Pipeline,
    /// Sweep dimensions; the grid is their cartesian product with the
    /// **last axis varying fastest** (row-major).
    pub axes: Vec<Axis>,
    /// Horizons for [`PipelineModel::throughput_over`]-style rows.
    pub horizons: Vec<Rat>,
    /// When set, run the DES with this config at every grid point (the
    /// seed is used as-is, so results stay deterministic).
    pub sim: Option<SimConfig>,
    /// When set, evaluate stochastic tail bounds at every grid point.
    pub tail: Option<TailSpec>,
}

/// Errors detected by [`SweepSpec::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The base pipeline failed [`Pipeline::validate`].
    Pipeline(nc_core::pipeline::PipelineError),
    /// An axis references a stage index outside the base pipeline.
    AxisStageOutOfRange {
        /// The axis label.
        axis: String,
        /// Number of stages in the base pipeline.
        stages: usize,
    },
    /// A swept value is invalid for its parameter (negative or zero
    /// rate, negative latency, non-positive block size…).
    BadAxisValue {
        /// The axis label.
        axis: String,
        /// The offending value.
        value: Rat,
        /// Which constraint it violates.
        why: &'static str,
    },
    /// A throughput horizon is not strictly positive.
    BadHorizon(Rat),
    /// The per-point simulation's fault schedule is invalid for the
    /// base pipeline (wrapped [`nc_streamsim::ConfigError`]).
    Faults(nc_streamsim::ConfigError),
    /// The tail-bound request is invalid for the base pipeline.
    Tail(&'static str),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Pipeline(e) => write!(f, "base pipeline: {e}"),
            SpecError::AxisStageOutOfRange { axis, stages } => {
                write!(
                    f,
                    "axis {axis}: stage index out of range (pipeline has {stages} stages)"
                )
            }
            SpecError::BadAxisValue { axis, value, why } => {
                write!(f, "axis {axis}: value {} {why}", value.to_f64())
            }
            SpecError::BadHorizon(h) => {
                write!(f, "throughput horizon {} must be positive", h.to_f64())
            }
            SpecError::Faults(e) => write!(f, "sim fault schedule: {e}"),
            SpecError::Tail(why) => write!(f, "tail spec: {why}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl SweepSpec {
    /// Check the spec end to end *before* expanding the grid: base
    /// pipeline structure, every axis value against its parameter's
    /// domain, horizons, and — when a simulation with fault injection
    /// is attached — the fault schedule against the base pipeline.
    /// Returns the first violation as a typed error instead of letting
    /// a worker panic mid-sweep.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.base.validate().map_err(SpecError::Pipeline)?;
        let stages = self.base.nodes.len();
        for axis in &self.axes {
            let label = axis.param.label();
            let stage = match axis.param {
                Param::SourceRate | Param::SourceBurst => None,
                Param::Rate(i)
                | Param::RateScale(i)
                | Param::Latency(i)
                | Param::BlockSize(i)
                | Param::CompressionRatio(i) => Some(i),
            };
            if stage.is_some_and(|i| i >= stages) {
                return Err(SpecError::AxisStageOutOfRange {
                    axis: label,
                    stages,
                });
            }
            for &value in &axis.values {
                let why = match axis.param {
                    Param::SourceRate | Param::Rate(_) | Param::RateScale(_) => {
                        (!value.is_positive()).then_some("must be a positive rate")
                    }
                    Param::SourceBurst | Param::Latency(_) => {
                        value.is_negative().then_some("must be non-negative")
                    }
                    Param::BlockSize(_) | Param::CompressionRatio(_) => {
                        (!value.is_positive()).then_some("must be positive")
                    }
                };
                if let Some(why) = why {
                    return Err(SpecError::BadAxisValue {
                        axis: label,
                        value,
                        why,
                    });
                }
            }
        }
        for &h in &self.horizons {
            if !h.is_positive() {
                return Err(SpecError::BadHorizon(h));
            }
        }
        if let Some(sim) = &self.sim {
            if let Some(fs) = &sim.faults {
                fs.validate(stages).map_err(SpecError::Faults)?;
            }
        }
        if let Some(tail) = &self.tail {
            if tail.total_input == 0 {
                return Err(SpecError::Tail("total_input must be positive"));
            }
            if tail.eps.iter().any(|e| e.is_negative() || *e >= Rat::ONE) {
                return Err(SpecError::Tail("every eps must be in [0, 1)"));
            }
            for &(i, q) in &tail.fault_prob {
                if i >= stages {
                    return Err(SpecError::Tail("fault_prob stage out of range"));
                }
                if self.base.nodes[i].fault.is_none() {
                    return Err(SpecError::Tail(
                        "fault_prob marks a stage with no fault hypothesis",
                    ));
                }
                if q.is_negative() || q > Rat::ONE {
                    return Err(SpecError::Tail("fault probability must be in [0, 1]"));
                }
            }
        }
        Ok(())
    }
}

/// One point of the expanded grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridPoint {
    /// Position in grid order.
    pub index: usize,
    /// One value per axis, aligned with [`SweepSpec::axes`].
    pub coords: Vec<Rat>,
}

/// Expand the cartesian grid of a spec, row-major, last axis fastest.
pub fn grid(spec: &SweepSpec) -> Vec<GridPoint> {
    let total: usize = spec.axes.iter().map(|a| a.values.len()).product();
    let mut points = Vec::with_capacity(total);
    for index in 0..total {
        let mut rem = index;
        let mut coords = vec![Rat::ZERO; spec.axes.len()];
        for (k, axis) in spec.axes.iter().enumerate().rev() {
            let n = axis.values.len();
            coords[k] = axis.values[rem % n];
            rem /= n;
        }
        points.push(GridPoint { index, coords });
    }
    points
}

/// The pipeline at one grid point: the base with every axis value
/// applied in axis order.
pub fn pipeline_at(spec: &SweepSpec, point: &GridPoint) -> Pipeline {
    let mut p = spec.base.clone();
    for (axis, v) in spec.axes.iter().zip(&point.coords) {
        axis.param.apply(&mut p, *v);
    }
    p
}

/// Scalar summary of one simulation run (the fields the paper's tables
/// and the overload sweep read off the DES).
#[derive(Clone, Debug, serde::Serialize)]
pub struct SimSummary {
    /// Mean throughput, input-referred bytes/s.
    pub throughput: f64,
    /// Steady-state throughput (fill/drain excluded).
    pub steady_throughput: f64,
    /// Peak data resident in the system, input-referred bytes.
    pub peak_backlog: f64,
    /// Longest observed end-to-end delay, seconds.
    pub delay_max: f64,
    /// Per-node busy fraction, flow order.
    pub utilization: Vec<f64>,
    /// Kernel events executed.
    pub events: u64,
}

impl SimSummary {
    fn of(r: &SimResult) -> SimSummary {
        SimSummary {
            throughput: r.throughput,
            steady_throughput: r.steady_throughput,
            peak_backlog: r.peak_backlog,
            delay_max: r.delay_max,
            utilization: r.per_node.iter().map(|n| n.utilization).collect(),
            events: r.events,
        }
    }

    /// Busiest stage's utilization (the simulated bottleneck).
    pub fn max_utilization(&self) -> f64 {
        self.utilization.iter().copied().fold(0.0, f64::max)
    }
}

/// Closed-form flow-control (backpressure) bounds at one grid point.
/// Present when the attached simulation bounds its queues — the sweep
/// evaluates `nc_core::flowctl` on every point so bounded-queue grids
/// get closed-form delay/backlog surfaces without per-point DES.
#[derive(Clone, Debug, serde::Serialize)]
pub struct FlowCtlSummary {
    /// End-to-end delay bound `h(α_eq, E₀)` for admitted data, seconds.
    pub delay: Value,
    /// Backlog bound `v(α_eq, E₀)`, input-referred bytes.
    pub backlog: Value,
    /// Hop-by-hop per-stage delay sum — the Bouillard-style ablation
    /// that pays the burst at every stage; never tighter than `delay`.
    pub per_stage_sum: Value,
    /// Every window closure was computed exactly (no truncation).
    pub exact: bool,
}

/// Everything evaluated at one grid point.
#[derive(Clone, Debug, serde::Serialize)]
pub struct PointResult {
    /// Grid-order index.
    pub index: usize,
    /// Axis values of this point.
    pub coords: Vec<Rat>,
    /// System operating regime.
    pub regime: Regime,
    /// System backlog bound (aggregate service curve), bytes.
    pub backlog: Value,
    /// System delay bound (aggregate), seconds.
    pub delay: Value,
    /// Backlog bound against the exact concatenated service, bytes.
    pub backlog_concat: Value,
    /// Delay bound against the exact concatenated service, seconds.
    pub delay_concat: Value,
    /// §3 overload-tolerant backlog estimate, bytes.
    pub heuristic_backlog: Rat,
    /// §3 overload-tolerant delay estimate, seconds.
    pub heuristic_delay: Value,
    /// Recurrence latency `T_N^tot`, seconds.
    pub total_latency: Rat,
    /// Bottleneck normalized min rate, bytes/s.
    pub bottleneck_rate_min: Rat,
    /// Throughput bounds per requested horizon.
    pub throughput: Vec<ThroughputBounds>,
    /// DES summary when [`SweepSpec::sim`] was set.
    pub sim: Option<SimSummary>,
    /// Closed-form backpressure bounds when the sim bounds its queues.
    pub flowctl: Option<FlowCtlSummary>,
    /// Stochastic tail bounds, one per [`TailSpec::eps`] budget, when
    /// [`SweepSpec::tail`] was set.
    pub tail: Option<Vec<TailBounds>>,
}

/// A completed sweep: the bounds surface plus cache telemetry.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Column label per axis.
    pub axis_labels: Vec<String>,
    /// Horizons tabulated per point.
    pub horizons: Vec<Rat>,
    /// One result per grid point, in grid order.
    pub points: Vec<PointResult>,
    /// Tail budgets tabulated per point (empty without
    /// [`SweepSpec::tail`]); labels the `tail_*@eps` column groups.
    pub tail_eps: Vec<Rat>,
    /// Merged cache counters across worker threads (all zero for the
    /// uncached baseline).
    pub stats: CacheStats,
}

impl SweepResult {
    /// Deterministic CSV of the surface: axis columns, bound columns,
    /// `upper/lower/output` throughput triple per horizon, and sim
    /// columns when present. Cache statistics are deliberately **not**
    /// part of the CSV — they vary with thread count; the surface does
    /// not.
    pub fn to_csv(&self) -> String {
        let mut csv = String::new();
        for l in &self.axis_labels {
            csv.push_str(l);
            csv.push(',');
        }
        csv.push_str(
            "regime,backlog,delay,backlog_concat,delay_concat,heuristic_backlog,heuristic_delay",
        );
        for h in &self.horizons {
            let h = h.to_f64();
            csv.push_str(&format!(",thr_upper@{h},thr_lower@{h},thr_output@{h}"));
        }
        let any_sim = self.points.iter().any(|p| p.sim.is_some());
        if any_sim {
            csv.push_str(",sim_throughput,sim_steady,sim_peak_backlog,sim_delay_max,sim_util");
        }
        let any_fc = self.points.iter().any(|p| p.flowctl.is_some());
        if any_fc {
            csv.push_str(",fc_delay,fc_backlog,fc_stage_sum,fc_exact");
        }
        for e in &self.tail_eps {
            let e = e.to_f64();
            csv.push_str(&format!(",tail_delay@{e},tail_backlog@{e},tail_sum@{e}"));
        }
        csv.push('\n');
        for p in &self.points {
            for c in &p.coords {
                csv.push_str(&format!("{},", c.to_f64()));
            }
            csv.push_str(&format!(
                "{:?},{},{},{},{},{},{}",
                p.regime,
                fmt_value(p.backlog),
                fmt_value(p.delay),
                fmt_value(p.backlog_concat),
                fmt_value(p.delay_concat),
                p.heuristic_backlog.to_f64(),
                fmt_value(p.heuristic_delay),
            ));
            for t in &p.throughput {
                csv.push_str(&format!(
                    ",{},{},{}",
                    fmt_value(t.upper),
                    fmt_value(t.lower),
                    fmt_value(t.output_loose)
                ));
            }
            if any_sim {
                match &p.sim {
                    Some(s) => csv.push_str(&format!(
                        ",{},{},{},{},{}",
                        s.throughput,
                        s.steady_throughput,
                        s.peak_backlog,
                        s.delay_max,
                        s.max_utilization()
                    )),
                    None => csv.push_str(",,,,,"),
                }
            }
            if any_fc {
                match &p.flowctl {
                    Some(fc) => csv.push_str(&format!(
                        ",{},{},{},{}",
                        fmt_value(fc.delay),
                        fmt_value(fc.backlog),
                        fmt_value(fc.per_stage_sum),
                        fc.exact
                    )),
                    None => csv.push_str(",,,,"),
                }
            }
            if !self.tail_eps.is_empty() {
                let tail = p.tail.as_deref().unwrap_or(&[]);
                for i in 0..self.tail_eps.len() {
                    match tail.get(i) {
                        Some(tb) => csv.push_str(&format!(
                            ",{},{},{}",
                            fmt_value(tb.delay),
                            fmt_value(tb.backlog),
                            fmt_value(tb.delay_stage_sum)
                        )),
                        None => csv.push_str(",,,"),
                    }
                }
            }
            csv.push('\n');
        }
        csv
    }
}

fn fmt_value(v: Value) -> String {
    match v {
        Value::Finite(r) => format!("{}", r.to_f64()),
        Value::Infinity => "inf".into(),
        Value::NegInfinity => "-inf".into(),
    }
}

fn summarize(
    point: &GridPoint,
    model: &PipelineModel,
    throughput: Vec<ThroughputBounds>,
    sim: Option<SimSummary>,
    flowctl: Option<FlowCtlSummary>,
    tail: Option<Vec<TailBounds>>,
    ops: &mut dyn CurveOps,
) -> PointResult {
    PointResult {
        index: point.index,
        coords: point.coords.clone(),
        regime: model.regime(),
        backlog: model.backlog_bound_with(ops),
        delay: model.delay_bound_with(ops),
        backlog_concat: model.backlog_bound_concat_with(ops),
        delay_concat: model.delay_bound_concat_with(ops),
        heuristic_backlog: model.heuristic_backlog(),
        heuristic_delay: model.heuristic_delay(),
        total_latency: model.total_latency,
        bottleneck_rate_min: model.bottleneck_rate_min,
        throughput,
        sim,
        flowctl,
        tail,
    }
}

/// Stochastic tail bounds for one grid point. The [`StochSpec`] is
/// re-derived from the point's pipeline, so axes that change job
/// sizes or rates are reflected in the per-stage job counts.
fn tail_summary(
    p: &Pipeline,
    tail: &TailSpec,
    mut cache: Option<&mut ModelCache>,
) -> Vec<TailBounds> {
    let mut spec = StochSpec::for_run(p, tail.total_input);
    for &(stage, q) in &tail.fault_prob {
        spec = spec.with_fault_prob(stage, q);
    }
    tail.eps
        .iter()
        .map(|&eps| match cache.as_deref_mut() {
            Some(c) => p.tail_bounds_cached(&spec, eps, c),
            None => p.tail_bounds(&spec, eps),
        })
        .collect()
}

/// Closed-form flow-control bounds for one grid point, when the
/// attached simulation bounds its queues. Deterministic-service sims
/// are analyzed on [`Pipeline::deterministic_variant`] — that engine
/// services every job at the average rate, and the min/max envelopes
/// of the original pipeline would misread a backpressured overload as
/// unstable (`+∞` bounds). Returns `None` when no queue is bounded or
/// the capacities are invalid for this point's block sizes (a sweep
/// axis can change job sizes under a fixed capacity).
fn flowctl_summary(
    p: &Pipeline,
    cfg: &SimConfig,
    cache: Option<&mut ModelCache>,
) -> Option<FlowCtlSummary> {
    cfg.queue_capacities.as_ref()?;
    let det;
    let p = if cfg.service_model == ServiceModel::Deterministic {
        det = p.deterministic_variant();
        &det
    } else {
        p
    };
    let windows = flow_windows(p, cfg).ok()?;
    if windows.iter().all(Option::is_none) {
        return None;
    }
    let (delay, backlog, per_stage_sum, exact) = match cache {
        Some(c) => {
            let m = p.flowctl_model_cached(&windows, c);
            (m.delay, m.backlog, m.per_stage_sum, m.exact)
        }
        None => {
            let m = p.flowctl_model(&windows);
            (m.delay, m.backlog, m.per_stage_sum, m.exact)
        }
    };
    Some(FlowCtlSummary {
        delay,
        backlog,
        per_stage_sum,
        exact,
    })
}

fn eval_cached(
    spec: &SweepSpec,
    point: &GridPoint,
    cache: &mut ModelCache,
    arena: &mut SimArena,
) -> PointResult {
    let p = pipeline_at(spec, point);
    let model = p.build_model_cached(cache);
    let throughput = model.throughput_profile_with(cache.curves(), &spec.horizons);
    let sim = spec
        .sim
        .as_ref()
        .map(|cfg| SimSummary::of(&simulate_in(arena, &p, cfg)));
    let fc = spec
        .sim
        .as_ref()
        .and_then(|cfg| flowctl_summary(&p, cfg, Some(cache)));
    let tail = spec.tail.as_ref().map(|t| tail_summary(&p, t, Some(cache)));
    summarize(point, &model, throughput, sim, fc, tail, cache.curves())
}

fn eval_uncached(spec: &SweepSpec, point: &GridPoint) -> PointResult {
    let p = pipeline_at(spec, point);
    let model = p.build_model();
    let throughput = spec
        .horizons
        .iter()
        .map(|h| model.throughput_over(*h))
        .collect();
    let sim = spec
        .sim
        .as_ref()
        .map(|cfg| SimSummary::of(&simulate(&p, cfg)));
    let fc = spec
        .sim
        .as_ref()
        .and_then(|cfg| flowctl_summary(&p, cfg, None));
    let tail = spec.tail.as_ref().map(|t| tail_summary(&p, t, None));
    summarize(point, &model, throughput, sim, fc, tail, &mut DirectOps)
}

/// Evaluate the full grid over [`workers`] threads with per-worker
/// caches and sim arenas. Point results are independent of the cache
/// state, so the output (and its CSV) is byte-identical for any worker
/// count; only [`SweepResult::stats`] varies with it.
pub fn run(spec: &SweepSpec) -> SweepResult {
    run_on(spec, workers())
}

/// [`run`] at an explicit fan-out width.
fn run_on(spec: &SweepSpec, workers: usize) -> SweepResult {
    let points = grid(spec);
    let (results, states) = stripe(
        &points,
        workers,
        || (ModelCache::new(), SimArena::new()),
        |(cache, arena), point| eval_cached(spec, point, cache, arena),
    );
    let stats = states.iter().fold(CacheStats::default(), |s, (cache, _)| {
        s.merge(&cache.stats())
    });
    SweepResult {
        axis_labels: spec.axes.iter().map(|a| a.param.label()).collect(),
        horizons: spec.horizons.clone(),
        points: results,
        tail_eps: spec.tail.as_ref().map_or_else(Vec::new, |t| t.eps.clone()),
        stats,
    }
}

/// The ablation baseline: one grid point at a time on the calling
/// thread, no caches, no arena reuse — exactly the repo's status-quo
/// loop (`build_model` + `throughput_over` + `simulate` per point).
/// Produces identical [`SweepResult::points`] to [`run`].
pub fn run_serial_uncached(spec: &SweepSpec) -> SweepResult {
    let points = grid(spec);
    let results: Vec<PointResult> = points.iter().map(|pt| eval_uncached(spec, pt)).collect();
    SweepResult {
        axis_labels: spec.axes.iter().map(|a| a.param.label()).collect(),
        horizons: spec.horizons.clone(),
        points: results,
        tail_eps: spec.tail.as_ref().map_or_else(Vec::new, |t| t.eps.clone()),
        stats: CacheStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::pipeline::{Node, NodeKind, Source};

    fn base() -> Pipeline {
        Pipeline::new(
            "t",
            Source {
                rate: Rat::int(80),
                burst: Rat::int(64),
            },
            vec![
                Node::new(
                    "a",
                    NodeKind::Compute,
                    StageRates::new(Rat::int(90), Rat::int(100), Rat::int(110)),
                    Rat::new(1, 1000),
                    Rat::int(64),
                    Rat::int(64),
                ),
                Node::new(
                    "b",
                    NodeKind::NetworkLink,
                    StageRates::fixed(Rat::int(120)),
                    Rat::ZERO,
                    Rat::int(64),
                    Rat::int(64),
                ),
            ],
        )
    }

    #[test]
    fn validate_accepts_a_sane_spec_and_names_each_violation() {
        let ok = SweepSpec {
            base: base(),
            axes: vec![Axis::new(Param::SourceRate, vec![Rat::int(40)])],
            horizons: vec![Rat::int(1)],
            sim: None,
            tail: None,
        };
        assert_eq!(ok.validate(), Ok(()));

        let mut bad = ok.clone();
        bad.axes = vec![Axis::new(Param::Rate(5), vec![Rat::int(40)])];
        assert!(matches!(
            bad.validate(),
            Err(SpecError::AxisStageOutOfRange { stages: 2, .. })
        ));

        let mut bad = ok.clone();
        bad.axes = vec![Axis::new(Param::SourceRate, vec![Rat::int(-40)])];
        let e = bad.validate().unwrap_err();
        assert!(e.to_string().contains("positive rate"), "{e}");

        let mut bad = ok.clone();
        bad.horizons = vec![Rat::ZERO];
        assert_eq!(bad.validate(), Err(SpecError::BadHorizon(Rat::ZERO)));

        // An invalid fault schedule surfaces as a typed, wrapped error.
        let mut schedule = nc_streamsim::FaultSchedule::none(2);
        schedule.stages[0].derate = 1.5;
        let mut bad = ok.clone();
        bad.sim = Some(SimConfig {
            faults: Some(schedule),
            ..SimConfig::default()
        });
        let e = bad.validate().unwrap_err();
        assert!(matches!(e, SpecError::Faults(_)));
        assert!(e.to_string().contains("derate"), "{e}");
    }

    #[test]
    fn grid_is_row_major_last_axis_fastest() {
        let spec = SweepSpec {
            base: base(),
            axes: vec![
                Axis::new(Param::SourceRate, vec![Rat::int(1), Rat::int(2)]),
                Axis::new(
                    Param::Rate(1),
                    vec![Rat::int(10), Rat::int(20), Rat::int(30)],
                ),
            ],
            horizons: vec![],
            sim: None,
            tail: None,
        };
        let g = grid(&spec);
        assert_eq!(g.len(), 6);
        assert_eq!(g[0].coords, vec![Rat::int(1), Rat::int(10)]);
        assert_eq!(g[1].coords, vec![Rat::int(1), Rat::int(20)]);
        assert_eq!(g[3].coords, vec![Rat::int(2), Rat::int(10)]);
        assert_eq!(g[5].coords, vec![Rat::int(2), Rat::int(30)]);
    }

    #[test]
    fn linspace_endpoints_exact() {
        let a = Axis::linspace(Param::SourceRate, Rat::int(40), Rat::int(160), 25);
        assert_eq!(a.values.len(), 25);
        assert_eq!(a.values[0], Rat::int(40));
        assert_eq!(a.values[24], Rat::int(160));
        assert_eq!(a.values[1] - a.values[0], Rat::int(5));
    }

    #[test]
    fn params_apply() {
        let mut p = base();
        Param::BlockSize(0).apply(&mut p, Rat::int(128));
        assert_eq!(p.nodes[0].job_in, Rat::int(128));
        assert_eq!(p.nodes[0].job_out, Rat::int(128));
        Param::CompressionRatio(0).apply(&mut p, Rat::int(4));
        assert_eq!(p.nodes[0].job_out, Rat::int(32));
        Param::RateScale(1).apply(&mut p, Rat::new(1, 2));
        assert_eq!(p.nodes[1].rates.min, Rat::int(60));
        Param::Latency(1).apply(&mut p, Rat::ONE);
        assert_eq!(p.nodes[1].latency, Rat::ONE);
    }

    #[test]
    fn cached_run_equals_uncached_baseline() {
        let spec = SweepSpec {
            base: base(),
            axes: vec![
                Axis::linspace(Param::SourceRate, Rat::int(40), Rat::int(160), 7),
                Axis::new(Param::BlockSize(0), vec![Rat::int(32), Rat::int(64)]),
            ],
            horizons: vec![Rat::int(1), Rat::int(100)],
            sim: Some(SimConfig {
                seed: 7,
                total_input: 64 << 10,
                source_chunk: Some(64),
                trace: false,
                ..SimConfig::default()
            }),
            tail: None,
        };
        let fast = run(&spec);
        let slow = run_serial_uncached(&spec);
        assert_eq!(fast.to_csv(), slow.to_csv());
        // The cache did real work: every point after the first reuses
        // prefixes and operator results.
        assert!(fast.stats.prefix_hits + fast.stats.op_hits() > 0);
        assert_eq!(slow.stats, CacheStats::default());
    }

    #[test]
    fn bounded_queue_sweep_emits_flowctl_bounds_containing_des() {
        // Bounded queues + an offered-load axis crossing into overload:
        // every point must carry finite closed-form backpressure
        // bounds, they must contain what the DES observed, the CSV
        // must grow the fc columns, and cached ≡ uncached.
        let spec = SweepSpec {
            base: base(),
            axes: vec![Axis::linspace(
                Param::SourceRate,
                Rat::int(40),
                Rat::int(160),
                5,
            )],
            horizons: vec![],
            sim: Some(SimConfig {
                seed: 7,
                total_input: 64 << 10,
                source_chunk: Some(64),
                queue_capacities: Some(vec![4096; 2]),
                trace: false,
                service_model: ServiceModel::Deterministic,
                ..SimConfig::default()
            }),
            tail: None,
        };
        let fast = run(&spec);
        let slow = run_serial_uncached(&spec);
        assert_eq!(fast.to_csv(), slow.to_csv());
        let header = fast.to_csv().lines().next().unwrap().to_string();
        assert!(header.ends_with("fc_delay,fc_backlog,fc_stage_sum,fc_exact"));
        for p in &fast.points {
            let fc = p.flowctl.as_ref().expect("bounded sim -> fc bounds");
            let sim = p.sim.as_ref().expect("sim attached");
            assert!(
                fc.delay.is_finite() && fc.backlog.is_finite(),
                "point {}: backpressured bounds must stay finite in overload",
                p.index
            );
            assert!(
                fc.delay.to_f64() + 1e-9 >= sim.delay_max,
                "point {}: fc delay {} < sim {}",
                p.index,
                fc.delay.to_f64(),
                sim.delay_max
            );
            assert!(
                fc.backlog.to_f64() + 1e-9 >= sim.peak_backlog,
                "point {}: fc backlog {} < sim {}",
                p.index,
                fc.backlog.to_f64(),
                sim.peak_backlog
            );
            assert!(fc.per_stage_sum >= fc.delay);
        }
        // Unbounded sims keep the legacy shape: no fc columns at all.
        let mut unbounded = spec.clone();
        unbounded.sim.as_mut().unwrap().queue_capacities = None;
        let r = run(&unbounded);
        assert!(r.points.iter().all(|p| p.flowctl.is_none()));
        assert!(!r.to_csv().contains("fc_delay"));
    }

    #[test]
    fn output_independent_of_thread_count() {
        let spec = SweepSpec {
            base: base(),
            axes: vec![Axis::linspace(
                Param::SourceRate,
                Rat::int(40),
                Rat::int(160),
                9,
            )],
            horizons: vec![Rat::int(10)],
            sim: None,
            tail: None,
        };
        let one = run_on(&spec, 1).to_csv();
        for workers in [2, 4] {
            assert_eq!(run_on(&spec, workers).to_csv(), one, "workers={workers}");
        }
    }

    #[test]
    fn tail_sweep_emits_budget_columns_cached_equals_uncached() {
        use nc_core::fault::FaultModel;
        let mut base = base();
        base.nodes[1].fault = Some(FaultModel::TransientOutage {
            duration: Rat::new(1, 2),
        });
        let eps = vec![Rat::ZERO, Rat::new(1, 100), Rat::new(1, 10)];
        let spec = SweepSpec {
            base,
            axes: vec![Axis::linspace(
                Param::SourceRate,
                Rat::int(40),
                Rat::int(80),
                5,
            )],
            horizons: vec![],
            sim: None,
            tail: Some(TailSpec {
                total_input: 64 * 64,
                eps: eps.clone(),
                fault_prob: vec![(1, Rat::new(1, 50))],
            }),
        };
        assert_eq!(spec.validate(), Ok(()));
        let fast = run(&spec);
        let slow = run_serial_uncached(&spec);
        assert_eq!(fast.to_csv(), slow.to_csv());
        assert_eq!(fast.tail_eps, eps);
        let header = fast.to_csv().lines().next().unwrap().to_string();
        assert!(header.contains("tail_delay@0.01"), "{header}");
        assert!(header.contains("tail_sum@0.1"), "{header}");
        for p in &fast.points {
            let tail = p.tail.as_ref().expect("tail requested");
            assert_eq!(tail.len(), eps.len());
            // eps = 0 is bit-equal to the deterministic concatenated
            // bounds of the same point; budgets only tighten.
            assert_eq!(tail[0].delay, p.delay_concat);
            assert_eq!(tail[0].backlog, p.backlog_concat);
            for w in tail.windows(2) {
                assert!(w[1].delay <= w[0].delay);
                assert!(w[1].backlog <= w[0].backlog);
            }
            // The q = 1/50 outage is affordable at eps = 1/10: the
            // cleared candidate drops the 0.5 s outage latency.
            assert!(tail[2].delay < tail[0].delay);
        }
    }

    #[test]
    fn tail_spec_validation_names_each_violation() {
        let ok = SweepSpec {
            base: base(),
            axes: vec![Axis::new(Param::SourceRate, vec![Rat::int(40)])],
            horizons: vec![],
            sim: None,
            tail: Some(TailSpec {
                total_input: 4096,
                eps: vec![Rat::new(1, 10)],
                fault_prob: vec![],
            }),
        };
        assert_eq!(ok.validate(), Ok(()));

        let mut bad = ok.clone();
        bad.tail.as_mut().unwrap().total_input = 0;
        assert!(matches!(bad.validate(), Err(SpecError::Tail(_))));

        let mut bad = ok.clone();
        bad.tail.as_mut().unwrap().eps = vec![Rat::ONE];
        assert!(matches!(bad.validate(), Err(SpecError::Tail(_))));

        // fault_prob on a stage with no fault hypothesis.
        let mut bad = ok.clone();
        bad.tail.as_mut().unwrap().fault_prob = vec![(1, Rat::new(1, 50))];
        let e = bad.validate().unwrap_err();
        assert!(e.to_string().contains("no fault hypothesis"), "{e}");

        let mut bad = ok.clone();
        bad.tail.as_mut().unwrap().fault_prob = vec![(9, Rat::new(1, 50))];
        assert!(matches!(bad.validate(), Err(SpecError::Tail(_))));
    }
}
