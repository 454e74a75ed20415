//! Simulation configuration and derived per-node parameters.

use nc_core::flowctl::FlowWindow;
use nc_core::num::Rat;
use nc_core::pipeline::Pipeline;
use serde::{Deserialize, Serialize};

use crate::faults::{ConfigError, FaultSchedule};

/// Knobs for one simulation run of a [`Pipeline`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed; identical seeds reproduce runs bit-for-bit.
    pub seed: u64,
    /// Total data volume to push through, in bytes at the pipeline
    /// input (normalized units).
    pub total_input: u64,
    /// Bytes emitted by the source per arrival event (input units).
    /// Defaults to the first node's job size when `None`.
    pub source_chunk: Option<u64>,
    /// Capacity of each inter-stage queue in *local* bytes of the
    /// producing stage. `None` = unbounded (the paper's default; it
    /// lists queue-overflow handling as future work — the repo closes
    /// that gap with the flow-control bounds of `nc_core::flowctl`,
    /// fed by [`flow_windows`]).
    pub queue_capacity: Option<u64>,
    /// Per-queue capacity override in local bytes of each node's input
    /// (`queue_capacities[i]` feeds node `i`). Overrides
    /// `queue_capacity` where set; must be at least `job + block −
    /// gcd(job, block)` for the node's job size and the upstream block
    /// (checked by [`SimConfig::validate_queues`], enforced by the
    /// simulator).
    /// Models the Mercator limited queues of §4.1.
    pub queue_capacities: Option<Vec<u64>>,
    /// Record cumulative input/output traces (for Figures 4 and 10).
    ///
    /// **Memory cap.** With `trace: false` (the scale setting) the
    /// engines keep only the in-flight window of the input stairstep —
    /// peak simulation memory is O(data in flight in the pipeline),
    /// independent of `total_input`. With `trace: true` the full
    /// `(t, bytes)` stairsteps are retained and returned (one entry per
    /// source emission and per sink delivery — O(events) memory), and
    /// deterministic cycle-jump fast-forward is disabled, since a
    /// skipped cycle cannot emit trace points: a traced deterministic
    /// run steps every event, and its statistics are the oracle the
    /// jumping run is tested against (`DESIGN.md` §10). Keep tracing
    /// for figure runs; turn it off for multi-GiB inputs.
    pub trace: bool,
    /// Service-time model for every stage. The paper's simulator uses
    /// uniform(min,max) execution times; `Exponential` reproduces the
    /// Markovian assumption of the M/M/1 baseline (ablation), and
    /// `Deterministic` uses the average rate.
    pub service_model: ServiceModel,
    /// Deterministic fault-injection schedule (stalls, derates, outages
    /// with per-stage recovery policies). `None` — and any schedule
    /// with no effective faults — runs the exact fault-free code path,
    /// bit-identical to the unfaulted simulator. Validated against the
    /// pipeline at simulation setup. A `Deterministic` run with an
    /// effective schedule runs on the f64 engine, not the integer-tick
    /// one.
    #[serde(default)]
    pub faults: Option<FaultSchedule>,
}

impl SimConfig {
    /// Validate the queue-capacity configuration against `pipeline`:
    /// `queue_capacities` (when set) must have one entry per node, and
    /// every bounded queue must admit its node's job, the whole block
    /// its producer emits, and a level that cannot wedge the pipeline
    /// (`cap ≥ job + block − gcd(job, block)`) — otherwise the
    /// pipeline deadlocks once the queue fills.
    ///
    /// The simulation engines enforce the same rules (with a panic);
    /// call this first for a recoverable, typed error.
    ///
    /// # Panics
    /// Panics if the pipeline itself is invalid; run
    /// [`Pipeline::validate`] first.
    pub fn validate_queues(&self, pipeline: &Pipeline) -> Result<(), ConfigError> {
        let params = derive_params(pipeline);
        let src_chunk = self.source_chunk.unwrap_or(params[0].job_in).max(1);
        resolved_queue_caps(self, &params, src_chunk).map(|_| ())
    }
}

/// How per-job execution times are drawn from a stage's measured
/// min/avg/max rates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceModel {
    /// Uniform on `[job/rate_max, job/rate_min]` — the paper's model.
    Uniform,
    /// Exponential with mean `job/rate_avg` — the M/M/1 baseline's
    /// assumption, for the ablation quantifying its optimism.
    Exponential,
    /// Exactly `job/rate_avg` every time.
    Deterministic,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            total_input: 64 << 20,
            source_chunk: None,
            queue_capacity: None,
            queue_capacities: None,
            trace: true,
            service_model: ServiceModel::Uniform,
            faults: None,
        }
    }
}

/// Per-node parameters derived from a [`Pipeline`] in simulator units:
/// integer local bytes and f64 seconds.
#[derive(Clone, Debug)]
pub(crate) struct NodeParams {
    pub name: String,
    /// Local bytes consumed per job.
    pub job_in: u64,
    /// Local bytes emitted per job.
    pub job_out: u64,
    /// Execution-time bounds per job, seconds: `job_in / rate_max` to
    /// `job_in / rate_min` (the paper's uniform service model).
    pub exec_min: f64,
    pub exec_max: f64,
    /// Mean execution time per job (`job_in / rate_avg`).
    pub exec_avg: f64,
    /// One-time startup latency before the first job (the rate-latency
    /// `T_n`).
    pub startup: f64,
    /// Input normalization factor: local bytes at this node's input ×
    /// `norm_in` = input-referred bytes.
    pub norm_in: f64,
}

pub(crate) fn derive_params(p: &Pipeline) -> Vec<NodeParams> {
    let norms = p.normalization_factors();
    p.nodes
        .iter()
        .zip(norms)
        .map(|(n, norm)| {
            let job_in = n.job_in.to_f64().round() as u64;
            let job_out = n.job_out.to_f64().round() as u64;
            assert!(job_in > 0 && job_out > 0, "node '{}': job sizes", n.name);
            let jin = n.job_in.to_f64();
            NodeParams {
                name: n.name.clone(),
                job_in,
                job_out,
                exec_min: jin / n.rates.max.to_f64(),
                exec_max: jin / n.rates.min.to_f64(),
                exec_avg: jin / n.rates.avg.to_f64(),
                startup: n.latency.to_f64(),
                norm_in: norm.to_f64(),
            }
        })
        .collect()
}

/// Resolve the effective capacity of every inter-stage queue
/// (`queue_capacities[i]` wins over the global `queue_capacity`;
/// `None` = unbounded) and validate each bounded one: the capacity
/// must admit the node's own job and the whole block its upstream
/// producer emits in one step (the source chunk for queue 0), or the
/// pipeline wedges the first time the queue fills.
///
/// Those two are not enough. The level only ever moves by whole
/// blocks in and whole jobs out, so it is a multiple of `g = gcd(job,
/// block)`. The producer blocks when the level exceeds `cap − block`,
/// and the consumer starts once the level reaches `job`. With `cap ≥
/// job + block − g`, a blocked producer implies a level above `job −
/// g`, hence at least `job`: a full job is always queued behind a
/// blocked producer.
pub(crate) fn resolved_queue_caps(
    config: &SimConfig,
    params: &[NodeParams],
    src_chunk: u64,
) -> Result<Vec<Option<u64>>, ConfigError> {
    if let Some(caps) = &config.queue_capacities {
        if caps.len() != params.len() {
            return Err(ConfigError::QueueCountMismatch {
                expected: params.len(),
                got: caps.len(),
            });
        }
    }
    params
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let cap = config
                .queue_capacities
                .as_ref()
                .map(|caps| caps[i])
                .or(config.queue_capacity);
            if let Some(cap) = cap {
                if cap < node.job_in {
                    return Err(ConfigError::QueueBelowJobSize {
                        stage: i,
                        cap,
                        job: node.job_in,
                    });
                }
                let need = if i == 0 {
                    src_chunk
                } else {
                    params[i - 1].job_out
                };
                if cap < need {
                    return Err(ConfigError::QueueBelowUpstreamBlock {
                        stage: i,
                        cap,
                        need,
                    });
                }
                // The gcd divides `job_in`, so it fits in a u64.
                let g = gcd(node.job_in.into(), need.into()) as u64;
                let min_safe = (node.job_in - g).saturating_add(need);
                if cap < min_safe {
                    return Err(ConfigError::QueueCanWedge {
                        stage: i,
                        cap,
                        min_safe,
                    });
                }
            }
            Ok(cap)
        })
        .collect()
}

pub(crate) fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Flow-control windows for `nc_core::flowctl`, one per inter-stage
/// queue of `pipeline`, in exact input-referred units.
///
/// For each bounded queue `i` the window carries the capacity itself
/// (`cap`, the admission bound: the queue never holds more) and the
/// producer-side slack (`slack = cap − upstream block`, the service
/// bound: a producer can always push while at least one full block
/// fits). The upstream block is the source chunk for queue 0 and the
/// producing node's job output for the rest. Local bytes are scaled
/// by the pipeline's normalization factors so the windows compose
/// with the input-referred curves of [`Pipeline::flowctl_model`].
///
/// Returns an error when the queue configuration is invalid (same
/// checks as [`SimConfig::validate_queues`]).
pub fn flow_windows(
    pipeline: &Pipeline,
    config: &SimConfig,
) -> Result<Vec<Option<FlowWindow>>, ConfigError> {
    let params = derive_params(pipeline);
    let src_chunk = config.source_chunk.unwrap_or(params[0].job_in).max(1);
    let caps = resolved_queue_caps(config, &params, src_chunk)?;
    let norms = pipeline.normalization_factors();
    Ok(caps
        .iter()
        .zip(&norms)
        .enumerate()
        .map(|(i, (cap, norm))| {
            cap.map(|cap| {
                let need = if i == 0 {
                    src_chunk
                } else {
                    params[i - 1].job_out
                };
                let to_rat = |b: u64| Rat::int(i64::try_from(b).expect("queue bytes fit i64"));
                FlowWindow {
                    cap: to_rat(cap) * *norm,
                    slack: to_rat(cap - need) * *norm,
                }
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::num::Rat;
    use nc_core::pipeline::{Node, NodeKind, Source, StageRates};

    #[test]
    fn params_derive_exec_bounds_and_norms() {
        let p = Pipeline::new(
            "t",
            Source {
                rate: Rat::int(100),
                burst: Rat::int(8),
            },
            vec![
                Node::new(
                    "a",
                    NodeKind::Compute,
                    StageRates::new(Rat::int(50), Rat::int(75), Rat::int(100)),
                    Rat::new(1, 2),
                    Rat::int(8),
                    Rat::int(2),
                ),
                Node::new(
                    "b",
                    NodeKind::Compute,
                    StageRates::fixed(Rat::int(10)),
                    Rat::ZERO,
                    Rat::int(2),
                    Rat::int(2),
                ),
            ],
        );
        let params = derive_params(&p);
        assert_eq!(params[0].job_in, 8);
        assert_eq!(params[0].job_out, 2);
        assert!((params[0].exec_min - 8.0 / 100.0).abs() < 1e-12);
        assert!((params[0].exec_max - 8.0 / 50.0).abs() < 1e-12);
        assert!((params[0].startup - 0.5).abs() < 1e-12);
        assert_eq!(params[0].norm_in, 1.0);
        // Node b sees quarter-volume data: norm 4.
        assert_eq!(params[1].norm_in, 4.0);
    }

    fn two_stage() -> Pipeline {
        Pipeline::new(
            "t",
            Source {
                rate: Rat::int(100),
                burst: Rat::int(8),
            },
            vec![
                Node::new(
                    "a",
                    NodeKind::Compute,
                    StageRates::new(Rat::int(50), Rat::int(75), Rat::int(100)),
                    Rat::new(1, 2),
                    Rat::int(8),
                    Rat::int(2),
                ),
                Node::new(
                    "b",
                    NodeKind::Compute,
                    StageRates::fixed(Rat::int(10)),
                    Rat::ZERO,
                    Rat::int(2),
                    Rat::int(2),
                ),
            ],
        )
    }

    #[test]
    fn validate_queues_accepts_unbounded_and_roomy_caps() {
        let p = two_stage();
        let cfg = SimConfig::default();
        assert!(cfg.validate_queues(&p).is_ok());
        let bounded = SimConfig {
            queue_capacity: Some(64),
            ..SimConfig::default()
        };
        assert!(bounded.validate_queues(&p).is_ok());
        let per_queue = SimConfig {
            queue_capacities: Some(vec![16, 4]),
            ..SimConfig::default()
        };
        assert!(per_queue.validate_queues(&p).is_ok());
    }

    #[test]
    fn validate_queues_rejects_count_mismatch() {
        let p = two_stage();
        let cfg = SimConfig {
            queue_capacities: Some(vec![16]),
            ..SimConfig::default()
        };
        assert_eq!(
            cfg.validate_queues(&p),
            Err(ConfigError::QueueCountMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn validate_queues_rejects_cap_below_job_size() {
        let p = two_stage();
        // Node a consumes 8-byte jobs; a 4-byte queue can never feed it.
        let cfg = SimConfig {
            queue_capacities: Some(vec![4, 4]),
            ..SimConfig::default()
        };
        assert_eq!(
            cfg.validate_queues(&p),
            Err(ConfigError::QueueBelowJobSize {
                stage: 0,
                cap: 4,
                job: 8
            })
        );
    }

    #[test]
    fn validate_queues_rejects_cap_below_upstream_block() {
        let p = two_stage();
        // Queue 0 must hold one 16-byte source chunk even though node
        // a's job is only 8 bytes.
        let cfg = SimConfig {
            source_chunk: Some(16),
            queue_capacities: Some(vec![8, 2]),
            ..SimConfig::default()
        };
        assert_eq!(
            cfg.validate_queues(&p),
            Err(ConfigError::QueueBelowUpstreamBlock {
                stage: 0,
                cap: 8,
                need: 16
            })
        );
    }

    #[test]
    fn validate_queues_rejects_caps_that_can_wedge() {
        // 100 B source chunks into 64 B jobs: a 100 B queue holds both,
        // yet at 36 B queued the source cannot put and the stage cannot
        // start, so the run would end with 4,900 B never emitted.
        let p = Pipeline::new(
            "wedge",
            Source {
                rate: Rat::int(1000),
                burst: Rat::int(100),
            },
            vec![Node::new(
                "a",
                NodeKind::Compute,
                StageRates::new(Rat::int(400), Rat::int(500), Rat::int(600)),
                Rat::ZERO,
                Rat::int(64),
                Rat::int(64),
            )],
        );
        let cfg = |cap: u64, service_model: ServiceModel| SimConfig {
            total_input: 5_000,
            source_chunk: Some(100),
            queue_capacity: Some(cap),
            service_model,
            trace: false,
            ..SimConfig::default()
        };
        assert_eq!(
            cfg(100, ServiceModel::Uniform).validate_queues(&p),
            Err(ConfigError::QueueCanWedge {
                stage: 0,
                cap: 100,
                min_safe: 160
            })
        );
        // 64 + 100 − gcd(64, 100) = 160 is safe: every whole job runs.
        for model in [ServiceModel::Uniform, ServiceModel::Deterministic] {
            let c = cfg(160, model);
            assert_eq!(c.validate_queues(&p), Ok(()));
            let r = crate::simulate(&p, &c);
            assert_eq!((r.bytes_out, r.residual), (4_992.0, 8.0), "{model:?}");
        }
    }

    #[test]
    fn flow_windows_are_input_referred_with_producer_slack() {
        let p = two_stage();
        let cfg = SimConfig {
            queue_capacities: Some(vec![16, 4]),
            ..SimConfig::default()
        };
        let windows = flow_windows(&p, &cfg).unwrap();
        // Queue 0: cap 16, source chunk 8 (node a's job), norm 1.
        let w0 = windows[0].unwrap();
        assert_eq!(w0.cap, Rat::int(16));
        assert_eq!(w0.slack, Rat::int(8));
        // Queue 1: cap 4, upstream block = node a's job_out 2, norm 4.
        let w1 = windows[1].unwrap();
        assert_eq!(w1.cap, Rat::int(16));
        assert_eq!(w1.slack, Rat::int(8));
        // Unbounded config → no windows.
        let open = flow_windows(&p, &SimConfig::default()).unwrap();
        assert!(open.iter().all(Option::is_none));
    }
}
