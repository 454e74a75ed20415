//! The streaming-pipeline simulation: §4.2 of the paper.
//!
//! Mirrors the paper's SimPy model: "Each node is given a maximum and
//! minimum execution time, a data packet size to consume, and data
//! packet size to emit when the execution time has completed. Discrete
//! events in the simulation model include arrival of a data packet at a
//! node, initiation of execution of that data packet when the node
//! becomes free, and departure of the data packet from the node. The
//! time chosen for execution is chosen from a uniform random
//! distribution using the minimum and maximum times as bounds."
//!
//! Extensions beyond the paper's simulator (both flagged as its
//! shortfalls/future work): optional *bounded* inter-stage queues with
//! blocking backpressure, and exact residual accounting.
//!
//! All stage-local byte quantities are integers; statistics are
//! reported input-referred (normalized) so they are directly comparable
//! with the network-calculus model and the paper's tables.
//!
//! ## The thinned event loop
//!
//! This module is the f64 engine: it runs the stochastic service models
//! (Uniform/Exponential) and the `ServiceModel::Deterministic` runs the
//! integer-tick engine in [`crate::det`] does not take — those with an
//! effective fault schedule, or too long for its tick range. Fault-free
//! deterministic runs go to that engine, which adds cycle-jump
//! fast-forward.
//!
//! The first generation of this engine (preserved verbatim as
//! [`crate::reference::simulate_reference`]) pushed every source
//! emission and job completion through the general `nc-des` calendar:
//! a heap/scan push, a pop, and a type-erased closure dispatch per
//! event, plus an `input_steps` vector and a delay tally growing one
//! entry per event — O(events) time constants and O(events) memory.
//! Stochastic runs cannot skip events (every service draw matters), so
//! this engine instead *thins* what each event costs:
//!
//! * **Slot agenda instead of a calendar.** The model has at most one
//!   pending event per process — the next source emission plus one
//!   completion per busy stage — so the pending set lives in a dense
//!   [`SlotAgenda`]: arming is a store, popping is a scan over
//!   `n + 1` slots, and dispatch is a direct `match`. No closure
//!   erasure, no heap sift. Source emissions are generated lazily from
//!   the armed slot rather than materialized as calendar entries.
//! * **Identical event order, identical RNG order.** Every point where
//!   the reference engine consumed a calendar sequence number, this
//!   engine arms a slot and consumes one from the same monotone
//!   counter, so `(time, seq)` pop order — and therefore the service
//!   draw order and every f64 accumulation order — is exactly the
//!   reference's. The `prop_engine_equiv` property test asserts
//!   bit-identical [`SimResult`]s across random pipelines and seeds.
//! * **Constant-memory statistics.** Delays go to a
//!   [`StreamingTally`] (running moments, no samples) and the input
//!   stairstep lives in a [`StepRing`] pruned at the monotone delay
//!   cursor, so with `trace` off, memory is O(data in flight), not
//!   O(events). With `trace` on, nothing is pruned and the full
//!   stairsteps are returned, exactly as before.

use nc_core::pipeline::Pipeline;
use nc_des::{ByteQueue, Dist, SlotAgenda, Span, StreamingTally, Time, TimeWeighted};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::{derive_params, NodeParams, ServiceModel, SimConfig};
use crate::faults::{FaultRt, FaultSchedule};
use crate::result::SimResult;
use crate::ring::StepRing;

/// Agenda slot of the source process; node `i` finishes on slot `i + 1`.
const SRC: usize = 0;

struct World {
    rng: ChaCha8Rng,
    params: Vec<NodeParams>,
    /// `queues[i]` feeds node `i` (local bytes of node `i`'s input).
    queues: Vec<ByteQueue>,
    busy: Vec<bool>,
    started: Vec<bool>,
    /// Accumulated service time per node (for utilization).
    busy_time: Vec<f64>,
    /// Jobs completed per node.
    jobs_done: Vec<u64>,
    service_model: ServiceModel,
    /// A finished job waiting for downstream space (backpressure).
    pending_out: Vec<Option<u64>>,

    // Fault injection (`None` = the exact fault-free code path; see
    // `crate::faults` for the zero-fault bit-identity argument).
    faults: Option<FaultRt>,
    /// Consecutive failed attempts of the in-flight job, per stage.
    cur_retry: Vec<u32>,
    /// Last sampled execution time per stage (re-run verbatim on retry).
    last_exec: Vec<f64>,
    dropped_jobs: u64,
    /// Input-referred bytes carried by dropped jobs.
    dropped_norm: f64,
    retries: u64,

    // Source.
    src_remaining: u64,
    src_chunk: u64,
    src_interval: f64,
    src_blocked: bool,

    // Input-referred accounting.
    sink_norm: f64,
    cum_in: f64,
    cum_out: f64,
    in_system: TimeWeighted,
    delays: StreamingTally,
    /// (t, cum_in) steps, pruned below the delay cursor when not
    /// tracing.
    input_steps: StepRing<(f64, f64)>,
    /// Delay-lookup cursor (absolute index): the virtual-delay level is
    /// non-decreasing, so each lookup resumes where the last ended.
    delay_cursor: usize,
    trace: bool,
    trace_out: Vec<(f64, f64)>,
    t_last_out: f64,

    // The thinned event loop.
    agenda: SlotAgenda<Time>,
    now: Time,
    events: u64,
}

impl World {
    fn n(&self) -> usize {
        self.params.len()
    }
}

/// Reusable simulation storage for Monte-Carlo replication.
///
/// The engine's only growable buffers — the input stairstep ring, the
/// output trace, and the agenda slots — are handed from one replication
/// to the next, so a driver looping [`simulate_in`] over seeds stops
/// allocating once the first run has grown them to the workload's
/// high-water mark.
#[derive(Default)]
pub struct SimArena {
    ring: StepRing<(f64, f64)>,
    trace_out: Vec<(f64, f64)>,
    agenda: SlotAgenda<Time>,
}

impl SimArena {
    /// An empty arena.
    pub fn new() -> SimArena {
        SimArena::default()
    }
}

/// Run the paper's discrete-event simulation of `pipeline`.
///
/// # Panics
/// Panics if the pipeline is invalid (see
/// [`Pipeline::validate`]) or the configuration is inconsistent.
pub fn simulate(pipeline: &Pipeline, config: &SimConfig) -> SimResult {
    simulate_in(&mut SimArena::new(), pipeline, config)
}

/// As [`simulate`], reusing `arena`'s buffers across calls.
pub fn simulate_in(arena: &mut SimArena, pipeline: &Pipeline, config: &SimConfig) -> SimResult {
    if config.service_model == ServiceModel::Deterministic
        && config.faults.as_ref().is_none_or(FaultSchedule::is_trivial)
    {
        // Constant service times consume no randomness: route fault-free
        // runs to the exact integer-tick engine, which can also
        // fast-forward periodic steady states (see `crate::det`). Runs
        // too long for its tick range stay here, and so do faulted
        // runs; this engine draws the same constant service times.
        if let Some(r) = crate::det::simulate_det(pipeline, config) {
            return r;
        }
    }
    pipeline
        .validate()
        .unwrap_or_else(|e| panic!("simulate: invalid pipeline: {e}"));
    let mut params = derive_params(pipeline);
    let n = params.len();
    let faults = config.faults.as_ref().and_then(|fs| {
        fs.validate(n)
            .unwrap_or_else(|e| panic!("simulate: invalid fault schedule: {e}"));
        FaultRt::build(fs, n)
    });
    if let Some(fr) = &faults {
        // Derates scale the service-time parameters before sampling, so
        // every engine draws from identically scaled distributions.
        fr.apply_derates(&mut params);
    }

    let src_chunk = config.source_chunk.unwrap_or(params[0].job_in).max(1);
    let src_rate = pipeline.source.rate.to_f64();
    assert!(src_rate > 0.0);
    let sink_norm = {
        let last = &params[n - 1];
        last.norm_in * last.job_in as f64 / last.job_out as f64
    };

    let queues = build_queues(config, &params, src_chunk);

    let mut ring = std::mem::take(&mut arena.ring);
    ring.clear();
    let mut trace_out = std::mem::take(&mut arena.trace_out);
    trace_out.clear();
    let mut agenda = std::mem::take(&mut arena.agenda);
    agenda.reset(n + 1);

    let mut w = World {
        rng: ChaCha8Rng::seed_from_u64(config.seed),
        params,
        queues,
        busy: vec![false; n],
        started: vec![false; n],
        busy_time: vec![0.0; n],
        jobs_done: vec![0u64; n],
        service_model: config.service_model,
        pending_out: vec![None; n],
        faults,
        cur_retry: vec![0u32; n],
        last_exec: vec![0.0; n],
        dropped_jobs: 0,
        dropped_norm: 0.0,
        retries: 0,
        src_remaining: config.total_input,
        src_chunk,
        src_interval: src_chunk as f64 / src_rate,
        src_blocked: false,
        sink_norm,
        cum_in: 0.0,
        cum_out: 0.0,
        in_system: TimeWeighted::new(Time::ZERO, 0.0),
        delays: StreamingTally::new(),
        input_steps: ring,
        delay_cursor: 0,
        trace: config.trace,
        trace_out,
        t_last_out: 0.0,
        agenda,
        now: Time::ZERO,
        events: 0,
    };

    // Mirror of the reference engine's `schedule_at(ZERO, source_emit)`:
    // consumes sequence number 0.
    w.agenda.arm(SRC, Time::ZERO);
    while let Some((slot, t)) = w.agenda.pop() {
        w.now = t;
        w.events += 1;
        if slot == SRC {
            w.source_emit();
        } else {
            w.finish(slot - 1);
        }
    }

    let result = assemble(&w);
    // Return the buffers to the arena for the next replication.
    arena.ring = std::mem::take(&mut w.input_steps);
    arena.trace_out = std::mem::take(&mut w.trace_out);
    arena.agenda = std::mem::take(&mut w.agenda);
    result
}

/// Resolve and validate the per-queue capacities: each queue must admit
/// both its node's job and whole upstream blocks or the pipeline
/// deadlocks. Shared with the deterministic engine. The typed checks
/// live in `crate::config::resolved_queue_caps` (surfaced through
/// [`SimConfig::validate_queues`]); the engines keep the historical
/// panic-on-invalid behavior.
pub(crate) fn queue_caps(
    config: &SimConfig,
    params: &[NodeParams],
    src_chunk: u64,
) -> Vec<Option<u64>> {
    crate::config::resolved_queue_caps(config, params, src_chunk)
        .unwrap_or_else(|e| panic!("simulate: invalid queue configuration: {e}"))
}

/// Build the inter-stage queues from the validated capacities.
fn build_queues(config: &SimConfig, params: &[NodeParams], src_chunk: u64) -> Vec<ByteQueue> {
    queue_caps(config, params, src_chunk)
        .into_iter()
        .map(|cap| match cap {
            None => ByteQueue::unbounded(Time::ZERO),
            Some(c) => ByteQueue::bounded(Time::ZERO, c),
        })
        .collect()
}

fn assemble(w: &World) -> SimResult {
    let bytes_out = w.cum_out;
    let makespan = w.t_last_out;
    let residual: f64 = w
        .queues
        .iter()
        .zip(&w.params)
        .map(|(q, p)| q.level() as f64 * p.norm_in)
        .sum();
    let per_queue_peak = w
        .queues
        .iter()
        .zip(&w.params)
        .map(|(q, p)| (p.name.clone(), q.peak() * p.norm_in))
        .collect();
    let horizon = w.now.as_secs().max(f64::MIN_POSITIVE);
    let per_node = w
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| crate::result::NodeStats {
            name: p.name.clone(),
            utilization: (w.busy_time[i] / horizon).min(1.0),
            jobs: w.jobs_done[i],
            bytes_in: w.jobs_done[i] * p.job_in,
            avg_queue: w.queues[i].avg_occupancy(w.now) * p.norm_in,
        })
        .collect();
    let throughput = if makespan > 0.0 {
        bytes_out / makespan
    } else {
        0.0
    };
    SimResult {
        bytes_out,
        makespan,
        throughput,
        steady_throughput: steady_slope(&w.trace_out).unwrap_or(throughput),
        delay_min: w.delays.min().unwrap_or(0.0),
        delay_max: w.delays.max().unwrap_or(0.0),
        delay_mean: w.delays.mean().unwrap_or(0.0),
        peak_backlog: w.in_system.max(),
        per_queue_peak,
        residual,
        trace_in: if w.trace {
            w.input_steps.iter().collect()
        } else {
            Vec::new()
        },
        trace_out: w.trace_out.clone(),
        per_node,
        events: w.events,
        dropped_jobs: w.dropped_jobs,
        dropped_bytes: w.dropped_norm,
        retries: w.retries,
    }
}

impl World {
    /// Source event: emit one chunk into the first queue (or block on a
    /// bounded queue) and re-arm.
    fn source_emit(&mut self) {
        let now = self.now;
        if self.src_remaining == 0 {
            return;
        }
        let chunk = self.src_chunk.min(self.src_remaining);
        if !self.queues[0].can_put(chunk) {
            // Bounded first queue is full: the source stalls until
            // space appears (resume_source will restart it).
            self.src_blocked = true;
            return;
        }
        self.queues[0].put(now, chunk);
        self.src_remaining -= chunk;
        self.cum_in += chunk as f64; // norm_in[0] == 1 by construction
        self.in_system.add(now, chunk as f64);
        self.input_steps.push((now.as_secs(), self.cum_in));
        if self.src_remaining > 0 {
            let at = now + Span::secs(self.src_interval);
            self.agenda.arm(SRC, at);
        }
        self.try_start(0);
    }

    // The wake protocol. The seed simulator re-ran a full O(n) fixpoint
    // scan (deliver / start / resume-source until nothing changed) on
    // every event; at BITW scale that scan dominated per-event cost.
    // These targeted wakes reach the same fixpoint by re-examining
    // exactly the nodes whose enabling conditions the event could have
    // flipped:
    //
    //   * queue `i` gained bytes, or `pending_out[i]` cleared → `try_start(i)`
    //   * node `i` went idle with output, or queue `i+1` freed → `try_deliver(i)`
    //   * queue 0 freed space → `resume_source`
    //
    // Deadlock-freedom is preserved because every byte movement still
    // wakes every consumer it could unblock — the wakes are just routed
    // instead of rediscovered by scanning. The invariant between events
    // is unchanged: no delivery, start, or source resume is possible.

    /// Start node `i` if it is idle, unblocked, and has a full job
    /// queued. A successful start frees input-queue space, which may
    /// unblock the upstream delivery (or the stalled source when
    /// `i == 0`).
    fn try_start(&mut self, i: usize) {
        let now = self.now;
        // Drop-policy outage: any job that would *start* inside the
        // window is consumed and discarded instead, and the freed queue
        // space wakes upstream exactly as a real start would.
        while let Some(fr) = &self.faults {
            if !(fr.drops(i) && fr.in_outage(i, now.as_secs())) {
                break;
            }
            let job_in = self.params[i].job_in;
            if self.busy[i] || self.pending_out[i].is_some() || !self.queues[i].can_get(job_in) {
                break;
            }
            self.queues[i].get(now, job_in);
            let dn = job_in as f64 * self.params[i].norm_in;
            self.dropped_jobs += 1;
            self.dropped_norm += dn;
            self.in_system.add(now, -dn);
            if i == 0 {
                self.resume_source();
            } else {
                self.try_deliver(i - 1);
            }
        }
        let p = &self.params[i];
        if self.busy[i] || self.pending_out[i].is_some() || !self.queues[i].can_get(p.job_in) {
            return;
        }
        self.queues[i].get(now, p.job_in);
        self.busy[i] = true;
        let startup = if self.started[i] {
            0.0
        } else {
            self.started[i] = true;
            p.startup
        };
        let dist = match self.service_model {
            ServiceModel::Uniform => Dist::Uniform {
                lo: p.exec_min,
                hi: p.exec_max,
            },
            ServiceModel::Exponential => Dist::Exponential { mean: p.exec_avg },
            ServiceModel::Deterministic => Dist::Constant(p.exec_avg),
        };
        let exec = dist.sample(&mut self.rng);
        self.busy_time[i] += exec;
        // Occupancy = service time, extended across any freeze window
        // (periodic stall, Block-policy outage) it straddles. With no
        // faults the span is exactly `startup + exec`.
        let span = match &self.faults {
            None => startup + exec,
            Some(fr) => {
                self.last_exec[i] = exec;
                fr.extend(i, now.as_secs(), startup + exec)
            }
        };
        self.agenda.arm(i + 1, now + Span::secs(span));
        if i == 0 {
            self.resume_source();
        } else {
            self.try_deliver(i - 1);
        }
    }

    /// Deliver node `i`'s pending output downstream (or to the sink) if
    /// space allows, then wake the two nodes the movement affects: `i`
    /// (its output slot cleared) and `i + 1` (new input) — in that
    /// order, matching the full scan's ascending start order at each
    /// wake. Events landing on the exact same timestamp may still
    /// interleave differently than a global rescan would; all
    /// observables stay within the tolerance/containment bounds the
    /// tests assert.
    fn try_deliver(&mut self, i: usize) {
        let Some(bytes) = self.pending_out[i] else {
            return;
        };
        if i + 1 == self.n() {
            self.deliver_to_sink(bytes);
            self.pending_out[i] = None;
            self.try_start(i);
        } else if self.queues[i + 1].can_put(bytes) {
            let now = self.now;
            self.queues[i + 1].put(now, bytes);
            self.pending_out[i] = None;
            self.try_start(i);
            self.try_start(i + 1);
        }
    }

    /// Restart a source stalled on a full first queue once space
    /// appears. Runs inline within the unblocking event — not as a new
    /// event — exactly as in the reference engine, so no sequence
    /// number is consumed for the resumed emission itself.
    fn resume_source(&mut self) {
        if self.src_blocked && self.queues[0].can_put(self.src_chunk) {
            self.src_blocked = false;
            self.source_emit();
        }
    }

    /// Retry-policy outage check at completion time: an attempt whose
    /// completion lands strictly inside an outage window fails and is
    /// re-executed after a capped exponential backoff. Curtailed
    /// (frozen) completions land *at* window ends — outside the
    /// half-open window — so Block semantics never trip this. Returns
    /// `true` when the completion was swallowed by a retry.
    fn try_retry(&mut self, i: usize) -> bool {
        let Some(fr) = &self.faults else { return false };
        let Some((base, cap)) = fr.retry_params(i) else {
            return false;
        };
        let t = self.now.as_secs();
        if !fr.in_outage(i, t) {
            self.cur_retry[i] = 0;
            return false;
        }
        let k = self.cur_retry[i].min(30);
        let backoff = (base * (1u64 << k) as f64).min(cap);
        self.cur_retry[i] = self.cur_retry[i].saturating_add(1);
        self.retries += 1;
        // The same execution is re-run in full (work done twice).
        let exec = self.last_exec[i];
        self.busy_time[i] += exec;
        let span = backoff + fr.extend(i, t + backoff, exec);
        self.agenda.arm(i + 1, self.now + Span::secs(span));
        true
    }

    /// Node `i` finished a job: its output becomes pending delivery.
    fn finish(&mut self, i: usize) {
        debug_assert!(self.busy[i]);
        debug_assert!(self.pending_out[i].is_none());
        if self.try_retry(i) {
            return;
        }
        self.busy[i] = false;
        self.jobs_done[i] += 1;
        self.pending_out[i] = Some(self.params[i].job_out);
        self.try_deliver(i);
    }

    /// Final-stage output reaches the sink: record throughput, delay,
    /// and the stairstep trace.
    fn deliver_to_sink(&mut self, local_bytes: u64) {
        let now = self.now;
        let out_norm = local_bytes as f64 * self.sink_norm;
        self.cum_out += out_norm;
        self.in_system.add(now, -out_norm);
        self.t_last_out = now.as_secs();

        // Virtual delay: when did this cumulative level enter the
        // system? The level only ever grows, so the stairstep inverse
        // lookup is a cursor that advances monotonically through
        // `input_steps`.
        // Dropped data "exited" too, so the virtual-delay inverse lookup
        // must skip past it (`+ 0.0` is exact when nothing dropped).
        let level = (self.cum_out + self.dropped_norm).min(self.cum_in);
        debug_assert!(!self.input_steps.is_empty());
        while self.delay_cursor + 1 < self.input_steps.len()
            && self.input_steps.get(self.delay_cursor).1 < level - 1e-9
        {
            self.delay_cursor += 1;
        }
        let t_in = self.input_steps.get(self.delay_cursor).0;
        self.delays.record((now.as_secs() - t_in).max(0.0));

        if self.trace {
            self.trace_out.push((now.as_secs(), self.cum_out));
        } else {
            // Steps behind the (monotone) cursor are dead: drop them so
            // live memory tracks data in flight, not run length.
            self.input_steps.prune_to(self.delay_cursor);
        }
    }
}

/// Slope of the cumulative-output trace between its 10% and 90%
/// levels — the fill/drain-free steady-state rate.
pub(crate) fn steady_slope(trace: &[(f64, f64)]) -> Option<f64> {
    let (_, total) = *trace.last()?;
    if total <= 0.0 || trace.len() < 8 {
        return None;
    }
    let (lo_level, hi_level) = (0.1 * total, 0.9 * total);
    let lo = trace.iter().find(|&&(_, v)| v >= lo_level)?;
    let hi = trace.iter().find(|&&(_, v)| v >= hi_level)?;
    let dt = hi.0 - lo.0;
    if dt <= 0.0 {
        return None;
    }
    Some((hi.1 - lo.1) / dt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::num::Rat;
    use nc_core::pipeline::{Node, NodeKind, Source, StageRates};

    fn node(name: &str, rmin: i64, rmax: i64, jin: i64, jout: i64) -> Node {
        Node::new(
            name,
            NodeKind::Compute,
            StageRates::new(Rat::int(rmin), Rat::int((rmin + rmax) / 2), Rat::int(rmax)),
            Rat::ZERO,
            Rat::int(jin),
            Rat::int(jout),
        )
    }

    fn pipeline(rate: i64, nodes: Vec<Node>) -> Pipeline {
        Pipeline::new(
            "test",
            Source {
                rate: Rat::int(rate),
                burst: Rat::int(64),
            },
            nodes,
        )
    }

    fn cfg(total: u64) -> SimConfig {
        SimConfig {
            seed: 1,
            total_input: total,
            source_chunk: Some(64),
            queue_capacity: None,
            queue_capacities: None,
            service_model: ServiceModel::Uniform,
            trace: true,
            faults: None,
        }
    }

    #[test]
    fn conserves_volume_identity_pipeline() {
        // One deterministic stage, 1:1 jobs: everything drains.
        let p = pipeline(1000, vec![node("id", 500, 500, 64, 64)]);
        let r = simulate(&p, &cfg(64 * 100));
        assert_eq!(r.bytes_out, 6400.0);
        assert_eq!(r.residual, 0.0);
        assert!(r.events > 0);
    }

    #[test]
    fn throughput_tracks_bottleneck() {
        // Source 1000 B/s feeds a 500 B/s stage: output rate ≈ 500.
        let p = pipeline(1000, vec![node("slow", 500, 500, 64, 64)]);
        let r = simulate(&p, &cfg(64 * 200));
        assert!(
            (r.throughput - 500.0).abs() / 500.0 < 0.05,
            "throughput {} vs 500",
            r.throughput
        );
    }

    #[test]
    fn source_limited_throughput() {
        // Source 300 B/s feeds a 1000 B/s stage: output rate ≈ 300.
        let p = pipeline(300, vec![node("fast", 1000, 1000, 64, 64)]);
        let r = simulate(&p, &cfg(64 * 100));
        assert!(
            (r.throughput - 300.0).abs() / 300.0 < 0.07,
            "throughput {} vs 300",
            r.throughput
        );
    }

    #[test]
    fn job_ratio_volume_conservation() {
        // 4:1 then 1:4 — normalized output equals input.
        let p = pipeline(
            1000,
            vec![
                node("pack", 800, 800, 64, 16),
                node("unpack", 800, 800, 16, 64),
            ],
        );
        let r = simulate(&p, &cfg(64 * 50));
        assert!((r.bytes_out - 3200.0).abs() < 1e-6, "out {}", r.bytes_out);
        assert_eq!(r.residual, 0.0);
    }

    #[test]
    fn delays_positive_and_ordered() {
        let p = pipeline(
            800,
            vec![node("a", 600, 900, 64, 64), node("b", 600, 900, 64, 64)],
        );
        let r = simulate(&p, &cfg(64 * 100));
        assert!(r.delay_min > 0.0);
        assert!(r.delay_min <= r.delay_mean && r.delay_mean <= r.delay_max);
    }

    #[test]
    fn backlog_grows_under_overload() {
        // Overloaded stage: backlog approaches total input.
        let over = pipeline(1000, vec![node("slow", 100, 100, 64, 64)]);
        let under = pipeline(1000, vec![node("fast", 2000, 2000, 64, 64)]);
        let r_over = simulate(&over, &cfg(64 * 50));
        let r_under = simulate(&under, &cfg(64 * 50));
        assert!(r_over.peak_backlog > 4.0 * r_under.peak_backlog);
    }

    #[test]
    fn bounded_queues_backpressure_without_loss() {
        let p = pipeline(
            2000,
            vec![
                node("a", 1000, 1000, 64, 64),
                node("slow", 250, 250, 64, 64),
            ],
        );
        let mut c = cfg(64 * 60);
        c.queue_capacity = Some(256);
        let r = simulate(&p, &c);
        // All data still flows (blocking, not dropping)…
        assert!((r.bytes_out - 64.0 * 60.0).abs() < 1e-6);
        // …and no queue ever exceeded its capacity.
        for (name, peak) in &r.per_queue_peak {
            assert!(*peak <= 256.0 + 1e-9, "queue {name} peaked at {peak}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = pipeline(
            800,
            vec![node("a", 600, 900, 64, 64), node("b", 500, 700, 64, 64)],
        );
        let r1 = simulate(&p, &cfg(64 * 40));
        let r2 = simulate(&p, &cfg(64 * 40));
        assert_eq!(r1.throughput, r2.throughput);
        assert_eq!(r1.delay_max, r2.delay_max);
        assert_eq!(r1.peak_backlog, r2.peak_backlog);
        let mut c3 = cfg(64 * 40);
        c3.seed = 999;
        let r3 = simulate(&p, &c3);
        assert_ne!(r1.delay_max, r3.delay_max);
    }

    #[test]
    fn arena_reuse_is_bit_identical() {
        // Pooled replication must not leak any state between runs: a
        // shared arena reproduces the fresh-sim results exactly.
        let p = pipeline(
            800,
            vec![node("a", 600, 900, 64, 64), node("b", 500, 700, 64, 64)],
        );
        let mut arena = SimArena::new();
        for seed in [1u64, 7, 42] {
            let mut c = cfg(64 * 40);
            c.seed = seed;
            let fresh = simulate(&p, &c);
            let pooled = simulate_in(&mut arena, &p, &c);
            assert_eq!(fresh, pooled);
        }
    }

    #[test]
    fn untraced_run_matches_traced_statistics() {
        // Pruning the stairstep ring must not change any statistic —
        // only the returned traces.
        let p = pipeline(
            800,
            vec![node("a", 600, 900, 64, 64), node("b", 500, 700, 64, 64)],
        );
        let traced = simulate(&p, &cfg(64 * 200));
        let mut c = cfg(64 * 200);
        c.trace = false;
        let lean = simulate(&p, &c);
        assert!(lean.trace_in.is_empty() && lean.trace_out.is_empty());
        assert_eq!(traced.throughput, lean.throughput);
        assert_eq!(traced.delay_min, lean.delay_min);
        assert_eq!(traced.delay_max, lean.delay_max);
        assert_eq!(traced.delay_mean, lean.delay_mean);
        assert_eq!(traced.peak_backlog, lean.peak_backlog);
        assert_eq!(traced.events, lean.events);
    }

    #[test]
    fn untraced_memory_stays_flat_as_the_run_grows() {
        // With `trace: false` the stairstep ring holds only the data in
        // flight, so its allocation is the same at 1k and 20k chunks
        // and no output trace is allocated. Traced, the ring keeps one
        // step per chunk.
        let p = pipeline(
            500,
            vec![node("a", 600, 900, 64, 64), node("b", 700, 1000, 64, 64)],
        );
        let capacities = |chunks: u64, trace: bool| {
            let mut arena = SimArena::new();
            simulate_in(
                &mut arena,
                &p,
                &SimConfig {
                    trace,
                    ..cfg(64 * chunks)
                },
            );
            (arena.ring.capacity(), arena.trace_out.capacity())
        };
        let (small, small_out) = capacities(1_000, false);
        let (large, large_out) = capacities(20_000, false);
        assert_eq!(small, large);
        assert!(large <= 16, "untraced ring capacity {large}");
        assert_eq!((small_out, large_out), (0, 0));
        for chunks in [1_000, 20_000] {
            let (ring, _) = capacities(chunks, true);
            assert!(ring >= chunks as usize, "traced ring capacity {ring}");
        }
    }

    #[test]
    fn trace_is_monotone_stairstep() {
        let p = pipeline(800, vec![node("a", 600, 900, 64, 64)]);
        let r = simulate(&p, &cfg(64 * 30));
        assert!(!r.trace_out.is_empty());
        for w in r.trace_out.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!(!r.trace_in.is_empty());
    }

    #[test]
    fn steady_throughput_excludes_fill() {
        // A big startup latency drags the mean rate but not the steady
        // slope.
        let mut slow_start = pipeline(1000, vec![node("s", 500, 500, 64, 64)]);
        slow_start.nodes[0].latency = Rat::new(1, 1); // 1 s startup
        let r = simulate(&slow_start, &cfg(64 * 40));
        assert!(r.throughput < 0.9 * 500.0, "mean {}", r.throughput);
        assert!(
            (r.steady_throughput - 500.0).abs() / 500.0 < 0.05,
            "steady {}",
            r.steady_throughput
        );
    }

    #[test]
    fn per_node_stats_identify_bottleneck() {
        let p = pipeline(
            2000,
            vec![
                node("fast", 1500, 1500, 64, 64),
                node("slow", 300, 300, 64, 64),
            ],
        );
        let r = simulate(&p, &cfg(64 * 100));
        assert_eq!(r.per_node.len(), 2);
        let fast = &r.per_node[0];
        let slow = &r.per_node[1];
        // The slow stage is ~saturated; the fast one mostly idle.
        assert!(slow.utilization > 0.9, "slow util {}", slow.utilization);
        assert!(fast.utilization < 0.4, "fast util {}", fast.utilization);
        // Both processed every job.
        assert_eq!(fast.jobs, 100);
        assert_eq!(slow.jobs, 100);
        assert_eq!(slow.bytes_in, 6400);
        // The slow stage's queue holds the backlog.
        assert!(slow.avg_queue > fast.avg_queue);
    }

    #[test]
    fn service_models_rank_by_variability() {
        // Same pipeline at high load under the three service models:
        // the Markovian (exponential) stages queue far more than the
        // paper's uniform model, which exceeds deterministic — the
        // mechanism behind the M/M/1 baseline's optimism/pessimism
        // mismatch the paper discusses.
        let p = pipeline(900, vec![node("svc", 800, 1200, 64, 64)]);
        let run = |model: ServiceModel| {
            let mut c = cfg(64 * 2000);
            c.service_model = model;
            simulate(&p, &c)
        };
        let det = run(ServiceModel::Deterministic);
        let uni = run(ServiceModel::Uniform);
        let exp = run(ServiceModel::Exponential);
        assert!(
            det.delay_mean <= uni.delay_mean && uni.delay_mean < exp.delay_mean,
            "det {} uni {} exp {}",
            det.delay_mean,
            uni.delay_mean,
            exp.delay_mean
        );
        assert!(exp.peak_backlog > uni.peak_backlog);
    }

    #[test]
    fn residual_reported_for_partial_jobs() {
        // 100 bytes with a 64-byte job: one job runs, 36 bytes stuck.
        let p = pipeline(1000, vec![node("a", 500, 500, 64, 64)]);
        let mut c = cfg(100);
        c.source_chunk = Some(50);
        let r = simulate(&p, &c);
        assert_eq!(r.bytes_out, 64.0);
        assert_eq!(r.residual, 36.0);
    }

    #[test]
    fn steady_slope_empty_trace() {
        assert_eq!(steady_slope(&[]), None);
    }

    #[test]
    fn steady_slope_single_point() {
        assert_eq!(steady_slope(&[(1.0, 100.0)]), None);
    }

    #[test]
    fn steady_slope_pure_fill_no_window() {
        // All mass lands at one instant: the 10%→90% window has zero
        // width, so there is no slope to report.
        let t: Vec<(f64, f64)> = (0..10).map(|i| (5.0, 10.0 * (i + 1) as f64)).collect();
        assert_eq!(steady_slope(&t), None);
    }

    #[test]
    fn steady_slope_recovers_exact_slope() {
        // Synthetic stairstep at exactly 25 units/s: 40 steps of 5
        // units every 0.2 s.
        let t: Vec<(f64, f64)> = (0..40)
            .map(|i| (0.2 * (i + 1) as f64, 5.0 * (i + 1) as f64))
            .collect();
        let s = steady_slope(&t).unwrap();
        assert!((s - 25.0).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn steady_slope_zero_total_is_none() {
        let t: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 0.0)).collect();
        assert_eq!(steady_slope(&t), None);
    }

    // --- fault injection ---

    use crate::faults::{FaultSchedule, Outage, RecoveryPolicy, StallSpec};

    #[test]
    fn zero_fault_schedule_is_bit_identical() {
        // An all-default schedule must take the literal fault-free code
        // path: whole-result equality, not tolerance.
        let p = pipeline(
            800,
            vec![node("a", 600, 900, 64, 64), node("b", 500, 700, 64, 64)],
        );
        let base = simulate(&p, &cfg(64 * 200));
        let mut c = cfg(64 * 200);
        c.faults = Some(FaultSchedule::none(2));
        let faulted = simulate(&p, &c);
        assert_eq!(base, faulted);
        assert_eq!(faulted.dropped_jobs, 0);
        assert_eq!(faulted.retries, 0);
    }

    #[test]
    fn stall_fault_halves_throughput() {
        // 50 ms frozen per 100 ms on the only stage: long-run service
        // rate halves, and the source outruns it.
        let p = pipeline(2000, vec![node("s", 1000, 1000, 64, 64)]);
        let mut c = cfg(64 * 400);
        let mut fs = FaultSchedule::none(1);
        fs.stages[0].stall = Some(StallSpec {
            budget: 0.05,
            period: 0.1,
        });
        c.faults = Some(fs);
        let base = simulate(&p, &cfg(64 * 400));
        let faulted = simulate(&p, &c);
        assert!(
            faulted.throughput < 0.65 * base.throughput,
            "faulted {} vs base {}",
            faulted.throughput,
            base.throughput
        );
        assert_eq!(faulted.dropped_jobs, 0); // Block policy: no loss
        assert!((faulted.bytes_out - base.bytes_out).abs() < 1e-9);
    }

    #[test]
    fn derate_fault_scales_service_times() {
        let p = pipeline(2000, vec![node("s", 1000, 1000, 64, 64)]);
        let mut c = cfg(64 * 400);
        let mut fs = FaultSchedule::none(1);
        fs.stages[0].derate = 0.5;
        c.faults = Some(fs);
        let base = simulate(&p, &cfg(64 * 400));
        let faulted = simulate(&p, &c);
        assert!(
            (faulted.throughput - 0.5 * base.throughput).abs() / base.throughput < 0.1,
            "faulted {} vs base {}",
            faulted.throughput,
            base.throughput
        );
    }

    #[test]
    fn drop_policy_counts_discarded_volume() {
        // A long mid-run outage on the only stage with Drop recovery:
        // jobs arriving in the window are discarded and accounted.
        let p = pipeline(1000, vec![node("s", 1000, 1000, 64, 64)]);
        let total = 64 * 200;
        let mut c = cfg(total);
        let mut fs = FaultSchedule::none(1);
        fs.stages[0].outages = vec![Outage {
            start: 2.0,
            duration: 4.0,
        }];
        fs.stages[0].recovery = RecoveryPolicy::Drop;
        c.faults = Some(fs);
        let r = simulate(&p, &c);
        assert!(r.dropped_jobs > 0, "nothing dropped");
        assert_eq!(r.dropped_bytes, r.dropped_jobs as f64 * 64.0);
        // Conservation: delivered + dropped + residual = offered.
        assert!(
            (r.bytes_out + r.dropped_bytes + r.residual - total as f64).abs() < 1e-6,
            "out {} + dropped {} + residual {} != {}",
            r.bytes_out,
            r.dropped_bytes,
            r.residual,
            total
        );
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn det_drop_accounting_is_exact_with_job_ratios() {
        // Non-trivial job ratios make the drop quantum a true rational;
        // a faulted deterministic run must still conserve volume.
        let p = pipeline(
            1000,
            vec![
                node("pack", 900, 900, 64, 16),
                node("unpack", 850, 850, 16, 64),
            ],
        );
        let total = 64 * 2000;
        let mut fs = FaultSchedule::none(2);
        fs.stages[1].outages = vec![Outage {
            start: 3.0,
            duration: 5.0,
        }];
        fs.stages[1].recovery = RecoveryPolicy::Drop;
        let mut c = cfg(total);
        c.service_model = ServiceModel::Deterministic;
        c.trace = false;
        c.faults = Some(fs);
        let r = simulate(&p, &c);
        assert!(r.dropped_jobs > 0);
        assert!(
            (r.bytes_out + r.dropped_bytes + r.residual - total as f64).abs() < 1e-6,
            "out {} + dropped {} + residual {} != {}",
            r.bytes_out,
            r.dropped_bytes,
            r.residual,
            total
        );
    }

    #[test]
    fn retry_policy_redelivers_everything() {
        // An outage on the stage with Retry recovery: attempts failing
        // inside the window back off and re-run; no data is lost.
        let p = pipeline(1000, vec![node("s", 1000, 1000, 64, 64)]);
        let total = 64 * 200;
        let mut c = cfg(total);
        let mut fs = FaultSchedule::none(1);
        fs.stages[0].outages = vec![Outage {
            start: 2.0,
            duration: 1.0,
        }];
        fs.stages[0].recovery = RecoveryPolicy::Retry {
            base: 0.01,
            cap: 0.16,
        };
        c.faults = Some(fs);
        let base = simulate(&p, &cfg(total));
        let r = simulate(&p, &c);
        assert!(r.retries > 0, "no retries fired");
        assert_eq!(r.dropped_jobs, 0);
        assert!((r.bytes_out - base.bytes_out).abs() < 1e-9);
        assert!(r.makespan > base.makespan);
    }

    #[test]
    fn faulted_run_is_deterministic_given_seed() {
        let p = pipeline(
            800,
            vec![node("a", 600, 900, 64, 64), node("b", 500, 700, 64, 64)],
        );
        let mut c = cfg(64 * 100);
        let mut fs = FaultSchedule::none(2);
        fs.seed = 99;
        fs.stages[0].stall = Some(StallSpec {
            budget: 0.02,
            period: 0.2,
        });
        fs.stages[1].outages = vec![Outage {
            start: 1.0,
            duration: 0.5,
        }];
        c.faults = Some(fs);
        let r1 = simulate(&p, &c);
        let r2 = simulate(&p, &c);
        assert_eq!(r1, r2);
    }
}
