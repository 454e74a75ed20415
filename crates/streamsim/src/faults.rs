//! Deterministic fault injection for the simulation engines.
//!
//! A [`FaultSchedule`] is the *simulation-side* realization of the
//! analysis-side `nc_core::FaultModel` (DESIGN.md §11): seeded, fully
//! deterministic, serde-round-trippable as part of
//! [`SimConfig`](crate::SimConfig). Per stage it can carry
//!
//! * a **periodic stall** `(budget, period)` — the stage freezes for
//!   `budget` seconds once per `period`, at a phase offset drawn
//!   deterministically from the schedule seed (so the analysis-side
//!   worst-case-phase bound must cover every realization);
//! * a **rate derate** `δ` — every execution time is scaled by
//!   `1/(1 − δ)` before sampling;
//! * **transient outage windows** `[start, start + duration)` whose
//!   effect depends on the stage's [`RecoveryPolicy`]:
//!   - [`Block`](RecoveryPolicy::Block): the window freezes the stage
//!     (execution is curtailed across it; data waits — the
//!     backpressure semantics the NC containment bound covers),
//!   - [`Drop`](RecoveryPolicy::Drop): any job the stage *would start*
//!     inside the window is consumed and discarded, counted in
//!     `SimResult::{dropped_jobs, dropped_bytes}`,
//!   - [`Retry`](RecoveryPolicy::Retry): an attempt whose completion
//!     lands inside the window fails and is re-executed after a capped
//!     exponential backoff (the network-stage retransmission model).
//!
//! Stalls always freeze, regardless of policy; derates always scale.
//!
//! **Zero-fault identity.** A schedule with no effective faults is
//! detected at setup and the engines take the exact fault-free code
//! path, so `faults: Some(FaultSchedule::none(n))` is bit-identical to
//! `faults: None`.
//!
//! **Engine equivalence.** The thinned and reference engines call the
//! same f64 [`FaultRt`] curtailment at the same points in the event
//! protocol, so their bitwise equivalence is preserved under faults,
//! for every service model. The integer-tick engine (`crate::det`)
//! never sees an effective schedule: `simulate` runs a faulted
//! `Deterministic` configuration on the thinned engine, which draws
//! constant service times for that model.

use nc_core::pipeline::Pipeline;
use nc_des::Dist;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::config::NodeParams;

/// A deterministic, seeded fault injection plan: one entry per stage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Seed for fault placement (stall phase offsets). Independent of
    /// the simulation seed, so the service-time draw sequence is
    /// untouched by fault injection.
    pub seed: u64,
    /// Per-stage fault description, in pipeline order. Must have
    /// exactly one entry per pipeline stage.
    pub stages: Vec<StageFault>,
}

/// Faults applied to one stage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageFault {
    /// Fractional rate loss (`0 ≤ derate < 1`): execution times scale
    /// by `1/(1 − derate)`.
    #[serde(default)]
    pub derate: f64,
    /// Periodic stall specification, if any.
    #[serde(default)]
    pub stall: Option<StallSpec>,
    /// Transient outage windows (need not be sorted; must not overlap).
    #[serde(default)]
    pub outages: Vec<Outage>,
    /// What the stage does about outage windows.
    #[serde(default)]
    pub recovery: RecoveryPolicy,
}

/// A periodic stall: the stage freezes `budget` seconds per `period`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StallSpec {
    /// Stalled seconds per period (`0 ≤ budget < period`).
    pub budget: f64,
    /// Period in seconds (`> 0`).
    pub period: f64,
}

/// One transient outage window `[start, start + duration)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Outage {
    /// Window start, seconds (`≥ 0`).
    pub start: f64,
    /// Window length, seconds (`≥ 0`; zero-length windows are no-ops).
    pub duration: f64,
}

/// Per-stage reaction to an outage window.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Default)]
pub enum RecoveryPolicy {
    /// Freeze: execution is suspended across the window and data waits
    /// (backpressure). The NC degraded-bound containment property is
    /// stated for this policy.
    #[default]
    Block,
    /// Discard: jobs the stage would start inside the window are
    /// consumed and dropped (counted, input-referred).
    Drop,
    /// Re-execute: an attempt completing inside the window fails and
    /// retries after capped exponential backoff
    /// `min(base · 2^k, cap)`.
    Retry {
        /// First backoff, seconds (`> 0`).
        base: f64,
        /// Backoff ceiling, seconds (`≥ base`).
        cap: f64,
    },
}

impl Default for StageFault {
    fn default() -> Self {
        StageFault {
            derate: 0.0,
            stall: None,
            outages: Vec::new(),
            recovery: RecoveryPolicy::Block,
        }
    }
}

/// Typed validation errors for simulation/sweep configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The fault schedule's stage count does not match the pipeline.
    FaultStageCount {
        /// Stages in the pipeline.
        expected: usize,
        /// Entries in the schedule.
        got: usize,
    },
    /// A derate is outside `[0, 1)`.
    BadDerate {
        /// Offending stage index.
        stage: usize,
    },
    /// A stall period is zero or negative.
    ZeroStallPeriod {
        /// Offending stage index.
        stage: usize,
    },
    /// A stall budget is negative.
    NegativeStall {
        /// Offending stage index.
        stage: usize,
    },
    /// A stall budget is ≥ its period (the stage would never run).
    StallExceedsPeriod {
        /// Offending stage index.
        stage: usize,
    },
    /// An outage has a negative start or duration, or a non-finite
    /// bound.
    BadOutage {
        /// Offending stage index.
        stage: usize,
    },
    /// Two outage windows on the same stage overlap.
    OverlappingOutages {
        /// Offending stage index.
        stage: usize,
    },
    /// Retry backoff parameters violate `0 < base ≤ cap`.
    BadRetryBackoff {
        /// Offending stage index.
        stage: usize,
    },
    /// `queue_capacities` does not have one entry per pipeline node.
    QueueCountMismatch {
        /// Stages in the pipeline.
        expected: usize,
        /// Entries in `queue_capacities`.
        got: usize,
    },
    /// A queue capacity is smaller than its node's job size: the node
    /// could never gather a job and the pipeline would deadlock.
    QueueBelowJobSize {
        /// Offending stage index (the queue feeds this node).
        stage: usize,
        /// Configured capacity, local bytes.
        cap: u64,
        /// The node's job size, local bytes.
        job: u64,
    },
    /// A queue capacity is smaller than the block its producer emits
    /// (the source chunk for queue 0): a whole block could never be
    /// admitted and the producer would block forever.
    QueueBelowUpstreamBlock {
        /// Offending stage index (the queue feeds this node).
        stage: usize,
        /// Configured capacity, local bytes.
        cap: u64,
        /// The upstream block size, local bytes.
        need: u64,
    },
    /// A queue capacity can wedge the pipeline: the queue's level is
    /// always a multiple of `g = gcd(job, block)`, so it can sit above
    /// `cap − block` (producer blocked) and below `job` (consumer
    /// starved) at once unless `cap ≥ job + block − g`.
    QueueCanWedge {
        /// Offending stage index (the queue feeds this node).
        stage: usize,
        /// Configured capacity, local bytes.
        cap: u64,
        /// The least capacity that cannot wedge, local bytes.
        min_safe: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::FaultStageCount { expected, got } => write!(
                f,
                "fault schedule has {got} stage entries for a {expected}-stage pipeline"
            ),
            ConfigError::BadDerate { stage } => {
                write!(f, "stage {stage}: rate derate must satisfy 0 <= derate < 1")
            }
            ConfigError::ZeroStallPeriod { stage } => {
                write!(f, "stage {stage}: stall period must be positive")
            }
            ConfigError::NegativeStall { stage } => {
                write!(f, "stage {stage}: stall budget must be non-negative")
            }
            ConfigError::StallExceedsPeriod { stage } => {
                write!(f, "stage {stage}: stall budget must be < period")
            }
            ConfigError::BadOutage { stage } => write!(
                f,
                "stage {stage}: outage start/duration must be finite and non-negative"
            ),
            ConfigError::OverlappingOutages { stage } => {
                write!(f, "stage {stage}: overlapping outage windows")
            }
            ConfigError::BadRetryBackoff { stage } => write!(
                f,
                "stage {stage}: retry backoff must satisfy 0 < base <= cap"
            ),
            ConfigError::QueueCountMismatch { expected, got } => write!(
                f,
                "queue_capacities has {got} entries for a {expected}-stage pipeline"
            ),
            ConfigError::QueueBelowJobSize { stage, cap, job } => write!(
                f,
                "stage {stage}: queue capacity {cap} is below the node's job size {job}"
            ),
            ConfigError::QueueBelowUpstreamBlock { stage, cap, need } => write!(
                f,
                "stage {stage}: queue capacity {cap} is below the upstream block {need}"
            ),
            ConfigError::QueueCanWedge {
                stage,
                cap,
                min_safe,
            } => write!(
                f,
                "stage {stage}: queue capacity {cap} can wedge the pipeline; \
                 the least safe capacity is {min_safe} (job + block - gcd)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl FaultSchedule {
    /// A schedule with no faults on any of `n` stages (bit-identical to
    /// running with no schedule at all).
    pub fn none(n: usize) -> FaultSchedule {
        FaultSchedule {
            seed: 0,
            stages: vec![StageFault::default(); n],
        }
    }

    /// Validate against a pipeline with `n_stages` stages.
    pub fn validate(&self, n_stages: usize) -> Result<(), ConfigError> {
        if self.stages.len() != n_stages {
            return Err(ConfigError::FaultStageCount {
                expected: n_stages,
                got: self.stages.len(),
            });
        }
        for (stage, s) in self.stages.iter().enumerate() {
            if !s.derate.is_finite() || s.derate < 0.0 || s.derate >= 1.0 {
                return Err(ConfigError::BadDerate { stage });
            }
            if let Some(sp) = &s.stall {
                if !sp.period.is_finite() || sp.period <= 0.0 {
                    return Err(ConfigError::ZeroStallPeriod { stage });
                }
                if !sp.budget.is_finite() || sp.budget < 0.0 {
                    return Err(ConfigError::NegativeStall { stage });
                }
                if sp.budget >= sp.period {
                    return Err(ConfigError::StallExceedsPeriod { stage });
                }
            }
            let mut ws: Vec<(f64, f64)> = Vec::with_capacity(s.outages.len());
            for o in &s.outages {
                if !o.start.is_finite()
                    || !o.duration.is_finite()
                    || o.start < 0.0
                    || o.duration < 0.0
                {
                    return Err(ConfigError::BadOutage { stage });
                }
                if o.duration > 0.0 {
                    ws.push((o.start, o.start + o.duration));
                }
            }
            ws.sort_by(|a, b| a.0.total_cmp(&b.0));
            if ws.windows(2).any(|w| w[0].1 > w[1].0) {
                return Err(ConfigError::OverlappingOutages { stage });
            }
            if let RecoveryPolicy::Retry { base, cap } = s.recovery {
                if !(base.is_finite() && cap.is_finite() && base > 0.0 && cap >= base) {
                    return Err(ConfigError::BadRetryBackoff { stage });
                }
            }
        }
        Ok(())
    }

    /// True when no stage has any effective fault (all derates zero, no
    /// positive stall budget, no positive-length outage).
    pub fn is_trivial(&self) -> bool {
        self.stages.iter().all(|s| {
            s.derate == 0.0
                && s.stall.is_none_or(|sp| sp.budget == 0.0)
                && s.outages.iter().all(|o| o.duration == 0.0)
        })
    }

    /// Bridge from the analysis side: realize each stage's
    /// `nc_core::FaultModel` as concrete simulation faults, placing the
    /// free parameters (outage start times) deterministically from
    /// `seed` within `[0, horizon_hint]`. All stages use the
    /// [`RecoveryPolicy::Block`] semantics the degraded bounds cover.
    pub fn from_pipeline(p: &Pipeline, seed: u64, horizon_hint: f64) -> FaultSchedule {
        use nc_core::fault::FaultModel;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let stages = p
            .nodes
            .iter()
            .map(|n| {
                let mut s = StageFault::default();
                match n.fault {
                    None => {}
                    Some(FaultModel::PeriodicStall { budget, period }) => {
                        s.stall = Some(StallSpec {
                            budget: budget.to_f64(),
                            period: period.to_f64(),
                        });
                    }
                    Some(FaultModel::RateDerate { delta }) => {
                        s.derate = delta.to_f64();
                    }
                    Some(FaultModel::TransientOutage { duration }) => {
                        let d = duration.to_f64();
                        let span = (horizon_hint - d).max(0.0);
                        let start = Dist::Uniform { lo: 0.0, hi: span }.sample(&mut rng);
                        s.outages.push(Outage { start, duration: d });
                    }
                }
                s
            })
            .collect();
        FaultSchedule { seed, stages }
    }
}

// ---------------------------------------------------------------------
// Runtime (engine-facing) representation.
// ---------------------------------------------------------------------

/// Periodic stall with its seeded phase offset resolved.
#[derive(Clone, Copy, Debug)]
struct Stall {
    off: f64,
    budget: f64,
    period: f64,
}

/// Per-stage runtime fault state, f64 seconds.
#[derive(Clone, Debug)]
pub(crate) struct StageRt {
    /// Execution-time scale `1/(1 − derate)`.
    scale: f64,
    stall: Option<Stall>,
    /// Sorted windows that *freeze* the stage: all outages when the
    /// policy is `Block`, none otherwise.
    freezes: Vec<(f64, f64)>,
    /// Sorted outage windows (policy checks for `Drop`/`Retry`).
    outages: Vec<(f64, f64)>,
    drop_on_outage: bool,
    retry: Option<(f64, f64)>,
}

impl StageRt {
    fn has_windows(&self) -> bool {
        self.stall.is_some() || !self.freezes.is_empty()
    }
}

/// Runtime fault schedule shared by the thinned and reference engines.
/// Construction is deterministic in the schedule (offsets come from
/// `FaultSchedule::seed`, not the simulation RNG).
#[derive(Clone, Debug)]
pub(crate) struct FaultRt {
    stages: Vec<StageRt>,
}

impl FaultRt {
    /// Build the runtime form, or `None` when the schedule is trivial —
    /// the engines then take the exact fault-free code path, which is
    /// what makes the zero-fault bit-identity hold by construction.
    ///
    /// The schedule must already be validated.
    pub(crate) fn build(schedule: &FaultSchedule, n_stages: usize) -> Option<FaultRt> {
        debug_assert_eq!(schedule.stages.len(), n_stages);
        if schedule.is_trivial() {
            return None;
        }
        let stages = schedule
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let stall = s.stall.filter(|sp| sp.budget > 0.0).map(|sp| {
                    // Phase offset in [0, period − budget]: windows sit
                    // whole inside periods, so any interval of length t
                    // overlaps at most ⌊t/p⌋ + 1 windows — the premise
                    // of the degraded-curve derivation.
                    let mut rng = ChaCha8Rng::seed_from_u64(
                        schedule.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let off = Dist::Uniform {
                        lo: 0.0,
                        hi: sp.period - sp.budget,
                    }
                    .sample(&mut rng);
                    Stall {
                        off,
                        budget: sp.budget,
                        period: sp.period,
                    }
                });
                let mut outages: Vec<(f64, f64)> = s
                    .outages
                    .iter()
                    .filter(|o| o.duration > 0.0)
                    .map(|o| (o.start, o.start + o.duration))
                    .collect();
                outages.sort_by(|a, b| a.0.total_cmp(&b.0));
                let freezes = if matches!(s.recovery, RecoveryPolicy::Block) {
                    outages.clone()
                } else {
                    Vec::new()
                };
                StageRt {
                    scale: 1.0 / (1.0 - s.derate),
                    stall,
                    freezes,
                    outages,
                    drop_on_outage: matches!(s.recovery, RecoveryPolicy::Drop),
                    retry: match s.recovery {
                        RecoveryPolicy::Retry { base, cap } => Some((base, cap)),
                        _ => None,
                    },
                }
            })
            .collect();
        Some(FaultRt { stages })
    }

    /// Scale every stage's execution-time parameters by its derate
    /// factor (before sampling, so both f64 engines agree).
    pub(crate) fn apply_derates(&self, params: &mut [NodeParams]) {
        for (p, s) in params.iter_mut().zip(&self.stages) {
            p.exec_min *= s.scale;
            p.exec_max *= s.scale;
            p.exec_avg *= s.scale;
        }
    }

    /// Total occupancy duration of work of length `dur` started at
    /// `t0`, extended across every freeze window it straddles. With no
    /// windows this returns exactly `dur` (same f64 value), preserving
    /// the fault-free arithmetic per stage.
    pub(crate) fn extend(&self, i: usize, t0: f64, dur: f64) -> f64 {
        let st = &self.stages[i];
        if !st.has_windows() {
            return dur;
        }
        let mut t = t0;
        let mut work = dur;
        let mut total = 0.0f64;
        loop {
            if let Some(end) = freeze_end(st, t) {
                total += end - t;
                t = end;
                continue;
            }
            let nxt = next_freeze_start(st, t);
            if t + work <= nxt {
                return total + work;
            }
            total += nxt - t;
            work -= nxt - t;
            t = nxt;
        }
    }

    /// Is `t` inside one of stage `i`'s outage windows?
    pub(crate) fn in_outage(&self, i: usize, t: f64) -> bool {
        self.stages[i].outages.iter().any(|&(s, e)| t >= s && t < e)
    }

    /// Does stage `i` drop jobs during outages?
    pub(crate) fn drops(&self, i: usize) -> bool {
        self.stages[i].drop_on_outage
    }

    /// Retry backoff `(base, cap)` if stage `i` retries on outage.
    pub(crate) fn retry_params(&self, i: usize) -> Option<(f64, f64)> {
        self.stages[i].retry
    }
}

/// Latest end among freeze windows containing `t` (stall + outages).
fn freeze_end(st: &StageRt, t: f64) -> Option<f64> {
    let mut end: Option<f64> = None;
    if let Some(s) = &st.stall {
        if t >= s.off {
            let k = ((t - s.off) / s.period).floor();
            let start = s.off + k * s.period;
            if t < start + s.budget {
                end = Some(start + s.budget);
            }
        }
    }
    for &(ws, we) in &st.freezes {
        if t >= ws && t < we && end.is_none_or(|e| we > e) {
            end = Some(we);
        }
    }
    end
}

/// Earliest freeze-window start strictly after `t`.
fn next_freeze_start(st: &StageRt, t: f64) -> f64 {
    let mut nxt = f64::INFINITY;
    if let Some(s) = &st.stall {
        let mut cand = if t < s.off {
            s.off
        } else {
            let k = ((t - s.off) / s.period).floor();
            s.off + k * s.period
        };
        // Strict advance: `floor` rounding can land one period low and
        // `c + period` can round back to exactly `t`, which would stall
        // the curtailment loop. Step until strictly ahead.
        while cand <= t {
            cand += s.period;
        }
        nxt = cand;
    }
    for &(ws, _) in &st.freezes {
        if ws > t {
            nxt = nxt.min(ws);
            break;
        }
    }
    nxt
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(stage: StageFault) -> FaultRt {
        FaultRt::build(
            &FaultSchedule {
                seed: 42,
                stages: vec![stage],
            },
            1,
        )
        .expect("non-trivial")
    }

    #[test]
    fn trivial_schedule_builds_to_none() {
        assert!(FaultRt::build(&FaultSchedule::none(3), 3).is_none());
        let mut s = FaultSchedule::none(2);
        s.stages[1].outages.push(Outage {
            start: 1.0,
            duration: 0.0,
        });
        assert!(s.is_trivial());
        assert!(FaultRt::build(&s, 2).is_none());
        s.stages[0].derate = 0.25;
        assert!(FaultRt::build(&s, 2).is_some());
    }

    #[test]
    fn extend_without_windows_is_exact_identity() {
        let fr = one(StageFault {
            derate: 0.5,
            ..StageFault::default()
        });
        let dur = 0.123_456_789_f64;
        assert_eq!(fr.extend(0, 7.77, dur), dur);
    }

    #[test]
    fn extend_straddles_block_outage() {
        let fr = one(StageFault {
            outages: vec![Outage {
                start: 10.0,
                duration: 2.0,
            }],
            ..StageFault::default()
        });
        // Work [9, 10) runs, freezes [10, 12), finishes at 12.5:
        // total occupancy 3.5 for 1.5 s of work.
        assert!((fr.extend(0, 9.0, 1.5) - 3.5).abs() < 1e-12);
        // Started inside the window: frozen to 12, then works.
        assert!((fr.extend(0, 11.0, 0.5) - 1.5).abs() < 1e-12);
        // Entirely before or after: identity.
        assert_eq!(fr.extend(0, 0.0, 1.0), 1.0);
        assert_eq!(fr.extend(0, 12.0, 1.0), 1.0);
        // Completion exactly at the window start is allowed.
        assert_eq!(fr.extend(0, 9.0, 1.0), 1.0);
    }

    #[test]
    fn extend_accumulates_periodic_stalls() {
        // budget 1 per period 10; work of 25 s starting at the offset
        // crosses at least two further windows.
        let fr = one(StageFault {
            stall: Some(StallSpec {
                budget: 1.0,
                period: 10.0,
            }),
            ..StageFault::default()
        });
        let total = fr.extend(0, 0.0, 25.0);
        assert!(
            (27.0 - 1e-9..=28.0 + 1e-9).contains(&total),
            "total {total}"
        );
        // And the worst-case bound s·(t/p + 1) is respected.
        assert!(total - 25.0 <= 1.0 * (25.0 / 10.0 + 1.0) + 1e-9);
    }

    #[test]
    fn outage_checks_respect_policy() {
        let fr = one(StageFault {
            outages: vec![Outage {
                start: 5.0,
                duration: 1.0,
            }],
            recovery: RecoveryPolicy::Drop,
            ..StageFault::default()
        });
        assert!(fr.drops(0));
        assert!(fr.in_outage(0, 5.5));
        assert!(!fr.in_outage(0, 6.0)); // half-open
        assert!(fr.retry_params(0).is_none());
        // Drop-policy outages do not freeze execution.
        assert_eq!(fr.extend(0, 4.5, 1.0), 1.0);
    }

    #[test]
    fn validation_catches_each_error_class() {
        let mut s = FaultSchedule::none(2);
        assert_eq!(
            s.validate(3),
            Err(ConfigError::FaultStageCount {
                expected: 3,
                got: 2
            })
        );
        s.stages[0].derate = 1.0;
        assert_eq!(s.validate(2), Err(ConfigError::BadDerate { stage: 0 }));
        s.stages[0].derate = 0.0;
        s.stages[1].stall = Some(StallSpec {
            budget: 2.0,
            period: 2.0,
        });
        assert_eq!(
            s.validate(2),
            Err(ConfigError::StallExceedsPeriod { stage: 1 })
        );
        s.stages[1].stall = Some(StallSpec {
            budget: 0.1,
            period: 0.0,
        });
        assert_eq!(
            s.validate(2),
            Err(ConfigError::ZeroStallPeriod { stage: 1 })
        );
        s.stages[1].stall = None;
        s.stages[0].outages = vec![
            Outage {
                start: 0.0,
                duration: 2.0,
            },
            Outage {
                start: 1.0,
                duration: 1.0,
            },
        ];
        assert_eq!(
            s.validate(2),
            Err(ConfigError::OverlappingOutages { stage: 0 })
        );
        s.stages[0].outages.clear();
        s.stages[0].recovery = RecoveryPolicy::Retry {
            base: 0.0,
            cap: 1.0,
        };
        assert_eq!(
            s.validate(2),
            Err(ConfigError::BadRetryBackoff { stage: 0 })
        );
        s.stages[0].recovery = RecoveryPolicy::Block;
        assert_eq!(s.validate(2), Ok(()));
    }

    #[test]
    fn serde_roundtrip_with_sparse_json() {
        // Sparse JSON: defaults fill derate/stall/outages/recovery.
        let js = r#"{"seed": 7, "stages": [{}, {"derate": 0.25,
            "stall": {"budget": 0.001, "period": 0.01},
            "outages": [{"start": 1.0, "duration": 0.5}],
            "recovery": {"Retry": {"base": 0.001, "cap": 0.008}}}]}"#;
        let s: FaultSchedule = serde_json::from_str(js).unwrap();
        assert_eq!(s.stages[0], StageFault::default());
        assert_eq!(s.stages[1].derate, 0.25);
        assert!(matches!(s.stages[1].recovery, RecoveryPolicy::Retry { .. }));
        let back: FaultSchedule =
            serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(s.validate(2), Ok(()));
    }
}
