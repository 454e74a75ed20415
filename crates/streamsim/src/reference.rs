//! The frozen pre-thinning simulation engine — the executable spec.
//!
//! This is the calendar-and-closures engine as it stood before the
//! scaling work: every source emission and job completion is a
//! type-erased event on the [`nc_des::Sim`] calendar, the input
//! stairstep and the delay tally grow one entry per event, and no
//! fast-forwarding happens. It is kept verbatim for two jobs:
//!
//! * **Equivalence testing** — the `prop_engine_equiv` property test
//!   drives random pipelines, seeds, and configurations through this
//!   engine and the thinned one and asserts bit-identical
//!   [`SimResult`]s (the thinning is a pure re-plumbing of the event
//!   loop: same event times, same `(time, seq)` order, same RNG draw
//!   sequence, same accounting order).
//! * **Perf ablation** — `perfbase` times the thinned engine against
//!   this reference so the speedup stays a tracked number rather than a
//!   claim.
//!
//! Do not "fix" or optimize this module; change [`crate::engine`] and
//! let the property test arbitrate.

use nc_core::pipeline::Pipeline;
use nc_des::{ByteQueue, Dist, Sim, Span, Tally, Time, TimeWeighted};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::{derive_params, NodeParams, ServiceModel, SimConfig};
use crate::engine::steady_slope;
use crate::faults::FaultRt;
use crate::result::SimResult;

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

    // Fault injection — mirrors `crate::engine` exactly (the fault
    // layer predates nothing here: it is injected into both engines in
    // lock-step so the bitwise-equivalence property keeps holding).
    faults: Option<FaultRt>,
    cur_retry: Vec<u32>,
    last_exec: Vec<f64>,
    dropped_jobs: u64,
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
    delays: Tally,
    /// (t, cum_in) steps — always kept for delay lookups.
    input_steps: Vec<(f64, f64)>,
    /// Delay-lookup cursor into `input_steps`: the virtual-delay level
    /// is non-decreasing, so each lookup resumes where the last ended.
    delay_cursor: usize,
    trace: bool,
    trace_out: Vec<(f64, f64)>,
    t_last_out: f64,
}

impl World {
    fn n(&self) -> usize {
        self.params.len()
    }
}

type S = World;

/// Run the pre-thinning engine on `pipeline` (see the module docs for
/// why you would want this over [`crate::simulate`]).
///
/// # Panics
/// Panics if the pipeline is invalid (see
/// [`Pipeline::validate`]) or the configuration is inconsistent.
pub fn simulate_reference(pipeline: &Pipeline, config: &SimConfig) -> SimResult {
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
        fr.apply_derates(&mut params);
    }

    let src_chunk = config.source_chunk.unwrap_or(params[0].job_in).max(1);
    let src_rate = pipeline.source.rate.to_f64();
    assert!(src_rate > 0.0);
    let sink_norm = {
        let last = &params[n - 1];
        last.norm_in * last.job_in as f64 / last.job_out as f64
    };

    if let Some(caps) = &config.queue_capacities {
        assert_eq!(
            caps.len(),
            n,
            "queue_capacities must have one entry per node"
        );
    }
    let queues: Vec<ByteQueue> = (0..n)
        .map(|i| {
            let cap = config.queue_capacities.as_ref().map(|caps| caps[i]);
            match cap {
                None => ByteQueue::unbounded(Time::ZERO),
                Some(c) => {
                    assert!(
                        c >= params[i].job_in,
                        "queue for node '{}' smaller than its job size",
                        params[i].name
                    );
                    // A queue must also admit whole upstream blocks or
                    // the pipeline deadlocks.
                    let upstream = if i == 0 {
                        src_chunk
                    } else {
                        params[i - 1].job_out
                    };
                    assert!(
                        c >= upstream,
                        "queue for node '{}' smaller than the upstream block ({c} < {upstream})",
                        params[i].name
                    );
                    ByteQueue::bounded(Time::ZERO, c)
                }
            }
        })
        .collect();

    let world = World {
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
        delays: Tally::new(),
        input_steps: Vec::new(),
        delay_cursor: 0,
        trace: config.trace,
        trace_out: Vec::new(),
        t_last_out: 0.0,
    };

    let mut sim = Sim::new(world);
    sim.schedule_at(Time::ZERO, source_emit);
    sim.run();

    let w = &sim.state;
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
    let horizon = sim.now().as_secs().max(f64::MIN_POSITIVE);
    let per_node = w
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| crate::result::NodeStats {
            name: p.name.clone(),
            utilization: (w.busy_time[i] / horizon).min(1.0),
            jobs: w.jobs_done[i],
            bytes_in: w.jobs_done[i] * p.job_in,
            avg_queue: w.queues[i].avg_occupancy(sim.now()) * p.norm_in,
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
            w.input_steps.clone()
        } else {
            Vec::new()
        },
        trace_out: w.trace_out.clone(),
        per_node,
        events: sim.events_processed(),
        dropped_jobs: w.dropped_jobs,
        dropped_bytes: w.dropped_norm,
        retries: w.retries,
    }
}

/// Source event: emit one chunk into the first queue (or block on a
/// bounded queue) and reschedule.
fn source_emit(sim: &mut Sim<S>) {
    let now = sim.now();
    let w = &mut sim.state;
    if w.src_remaining == 0 {
        return;
    }
    let chunk = w.src_chunk.min(w.src_remaining);
    if !w.queues[0].can_put(chunk) {
        // Bounded first queue is full: the source stalls until space
        // appears (pump() will resume it).
        w.src_blocked = true;
        return;
    }
    w.queues[0].put(now, chunk);
    w.src_remaining -= chunk;
    w.cum_in += chunk as f64; // norm_in[0] == 1 by construction
    w.in_system.add(now, chunk as f64);
    w.input_steps.push((now.as_secs(), w.cum_in));
    if w.src_remaining > 0 {
        let dt = Span::secs(sim.state.src_interval);
        sim.schedule_in(dt, source_emit);
    }
    try_start(sim, 0);
}

// The wake protocol — see `crate::engine` for the rationale; this copy
// preserves the exact pre-thinning behavior.

/// Start node `i` if it is idle, unblocked, and has a full job queued.
/// A successful start frees input-queue space, which may unblock the
/// upstream delivery (or the stalled source when `i == 0`).
fn try_start(sim: &mut Sim<S>, i: usize) {
    let now = sim.now();
    // Drop-policy outage: jobs that would start now are consumed and
    // discarded (mirrors `crate::engine::World::try_start`).
    loop {
        let w = &mut sim.state;
        let Some(fr) = &w.faults else { break };
        if !(fr.drops(i) && fr.in_outage(i, now.as_secs())) {
            break;
        }
        let job_in = w.params[i].job_in;
        if w.busy[i] || w.pending_out[i].is_some() || !w.queues[i].can_get(job_in) {
            break;
        }
        w.queues[i].get(now, job_in);
        let dn = job_in as f64 * w.params[i].norm_in;
        w.dropped_jobs += 1;
        w.dropped_norm += dn;
        w.in_system.add(now, -dn);
        if i == 0 {
            resume_source(sim);
        } else {
            try_deliver(sim, i - 1);
        }
    }
    let w = &mut sim.state;
    let p = &w.params[i];
    if w.busy[i] || w.pending_out[i].is_some() || !w.queues[i].can_get(p.job_in) {
        return;
    }
    w.queues[i].get(now, p.job_in);
    w.busy[i] = true;
    let startup = if w.started[i] {
        0.0
    } else {
        w.started[i] = true;
        p.startup
    };
    let dist = match w.service_model {
        ServiceModel::Uniform => Dist::Uniform {
            lo: p.exec_min,
            hi: p.exec_max,
        },
        ServiceModel::Exponential => Dist::Exponential { mean: p.exec_avg },
        ServiceModel::Deterministic => Dist::Constant(p.exec_avg),
    };
    let exec = dist.sample(&mut w.rng);
    w.busy_time[i] += exec;
    let span = match &w.faults {
        None => startup + exec,
        Some(fr) => {
            w.last_exec[i] = exec;
            fr.extend(i, now.as_secs(), startup + exec)
        }
    };
    sim.schedule_in(Span::secs(span), move |sim| finish(sim, i));
    if i == 0 {
        resume_source(sim);
    } else {
        try_deliver(sim, i - 1);
    }
}

/// Deliver node `i`'s pending output downstream (or to the sink) if
/// space allows, then wake the two nodes the movement affects: `i`
/// (its output slot cleared) and `i + 1` (new input) — in that order,
/// matching the full scan's ascending start order at each wake.
fn try_deliver(sim: &mut Sim<S>, i: usize) {
    let Some(bytes) = sim.state.pending_out[i] else {
        return;
    };
    if i + 1 == sim.state.n() {
        deliver_to_sink(sim, bytes);
        sim.state.pending_out[i] = None;
        try_start(sim, i);
    } else if sim.state.queues[i + 1].can_put(bytes) {
        let now = sim.now();
        sim.state.queues[i + 1].put(now, bytes);
        sim.state.pending_out[i] = None;
        try_start(sim, i);
        try_start(sim, i + 1);
    }
}

/// Restart a source stalled on a full first queue once space appears.
fn resume_source(sim: &mut Sim<S>) {
    if sim.state.src_blocked && sim.state.queues[0].can_put(sim.state.src_chunk) {
        sim.state.src_blocked = false;
        source_emit(sim);
    }
}

/// Retry-policy outage check at completion time (mirrors
/// `crate::engine::World::try_retry`). Returns `true` when the
/// completion was swallowed by a retry.
fn try_retry(sim: &mut Sim<S>, i: usize) -> bool {
    let t = sim.now().as_secs();
    let span = {
        let w = &mut sim.state;
        let Some(fr) = &w.faults else { return false };
        let Some((base, cap)) = fr.retry_params(i) else {
            return false;
        };
        if !fr.in_outage(i, t) {
            w.cur_retry[i] = 0;
            return false;
        }
        let k = w.cur_retry[i].min(30);
        let backoff = (base * (1u64 << k) as f64).min(cap);
        w.cur_retry[i] = w.cur_retry[i].saturating_add(1);
        w.retries += 1;
        let exec = w.last_exec[i];
        w.busy_time[i] += exec;
        backoff + fr.extend(i, t + backoff, exec)
    };
    sim.schedule_in(Span::secs(span), move |sim| finish(sim, i));
    true
}

/// Node `i` finished a job: its output becomes pending delivery.
fn finish(sim: &mut Sim<S>, i: usize) {
    debug_assert!(sim.state.busy[i]);
    debug_assert!(sim.state.pending_out[i].is_none());
    if try_retry(sim, i) {
        return;
    }
    sim.state.busy[i] = false;
    sim.state.jobs_done[i] += 1;
    sim.state.pending_out[i] = Some(sim.state.params[i].job_out);
    try_deliver(sim, i);
}

/// Final-stage output reaches the sink: record throughput, delay, and
/// the stairstep trace.
fn deliver_to_sink(sim: &mut Sim<S>, local_bytes: u64) {
    let now = sim.now();
    let w = &mut sim.state;
    let out_norm = local_bytes as f64 * w.sink_norm;
    w.cum_out += out_norm;
    w.in_system.add(now, -out_norm);
    w.t_last_out = now.as_secs();

    // Virtual delay: when did this cumulative level enter the system?
    // The level only ever grows, so the stairstep inverse lookup is a
    // cursor that advances monotonically through `input_steps`.
    let level = (w.cum_out + w.dropped_norm).min(w.cum_in);
    debug_assert!(!w.input_steps.is_empty());
    while w.delay_cursor + 1 < w.input_steps.len() && w.input_steps[w.delay_cursor].1 < level - 1e-9
    {
        w.delay_cursor += 1;
    }
    let t_in = w.input_steps[w.delay_cursor].0;
    w.delays.record((now.as_secs() - t_in).max(0.0));

    if w.trace {
        w.trace_out.push((now.as_secs(), w.cum_out));
    }
}
