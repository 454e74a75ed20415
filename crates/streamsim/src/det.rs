//! Exact integer-tick engine for `ServiceModel::Deterministic`, with
//! cycle-jump fast-forward.
//!
//! Deterministic pipelines reach a *periodic steady state*: after a
//! warmup, the world repeats the same few events with a fixed period,
//! shifted in time and cumulative volume. This engine exploits that to
//! make simulation cost O(warmup + period + drain) — independent of
//! `total_input` — instead of O(input bytes):
//!
//! 1. **Integer ticks.** All model arithmetic runs on `u64` ticks of
//!    2⁻⁴⁰ s (≈ 0.9 ps; the `u64` range covers ~194 days of simulated
//!    time, and a run that might not fit in half of it goes to the f64
//!    engine). Service times and the source interval are quantized
//!    once at setup; from then on every timestamp, every statistic, and
//!    every queue integral is exact integer arithmetic. This is what
//!    makes fast-forward *provably* lossless: advancing `k` cycles by
//!    adding `k·Δ` to integer counters is bit-identical to stepping
//!    them `k` times, which is false for repeated f64 addition.
//! 2. **Fingerprint recurrence.** After each sink delivery (between
//!    events — never mid-cascade) the engine fingerprints everything
//!    the future depends on *except* absolute time and cumulative
//!    totals: queue depths, busy/started flags, pending outputs, the
//!    time-to-fire of every armed event, the source state, the
//!    in-flight stairstep window relative to now, and the relative arm
//!    order (tie-break order) of pending events. The fingerprint is a
//!    sufficient statistic: two states with equal fingerprints and
//!    enough input remaining evolve identically modulo a time/volume
//!    shift (see `DESIGN.md` §10 for the argument).
//! 3. **Closed-form jump.** When a fingerprint recurs after period `Δt`
//!    with per-cycle deltas (volume, jobs, busy ticks, delay sum,
//!    events, …) and the extrema (peaks, delay min/max) already stable,
//!    the engine advances `k = ⌊(remaining − Δrem − chunk)/Δrem⌋`
//!    cycles at once: every counter gains `k·Δ`, every pending event
//!    and stairstep entry shifts by `k·Δt`, and exact event processing
//!    resumes for the drain tail (including partial final chunks).
//!
//! A traced run (`trace: true`) cannot jump — a skipped cycle emits no
//! trace points — so it steps every event on the same integer ticks.
//! That makes it the stepping oracle: the `prop_engine_equiv` property
//! test asserts that an untraced (jumping) run reproduces a traced
//! run's statistics bit for bit, bounded queues and partial residuals
//! included.
//!
//! The engine runs fault-free configurations only. `simulate` sends a
//! deterministic run with an effective fault schedule to the f64 engine
//! (`crate::engine`, which draws constant service times for this
//! model), and so does [`simulate_det`] itself when a sound upper bound
//! on the run's length does not fit in half the tick range.
//!
//! Divergent regimes (an overloaded stage with unbounded queues) never
//! recur — some queue depth grows every cycle — so the engine steps
//! them exactly, capping its fingerprint table rather than searching
//! forever. Bounded (backpressured) overload *does* recur and jumps.
//!
//! Relative to the f64 stochastic engine run with constant service
//! times, results differ only by the one-time 2⁻⁴⁰ s quantization of
//! each interval (≈ 1e-12 relative); unit tests pin this tolerance.

use std::collections::HashMap;

use nc_core::pipeline::Pipeline;
use nc_des::SlotAgenda;

use crate::config::{derive_params, gcd, NodeParams, SimConfig};
use crate::engine::{queue_caps, steady_slope};
use crate::result::SimResult;
use crate::ring::StepRing;

/// Ticks per second: 2⁴⁰ (exact in f64).
const TICK_HZ: f64 = (1u64 << 40) as f64;

/// Longest run the engine takes, in ticks: half the `u64` range, the
/// other half kept as margin.
const TICK_LIMIT: u128 = 1 << 63;

/// Agenda slot of the source; node `i` finishes on slot `i + 1`.
const SRC: usize = 0;

/// Sentinel for "absent" optional values inside fingerprints.
const NONE64: u64 = u64::MAX;

/// Fingerprint table bound: beyond this many distinct states the run is
/// treated as non-recurrent (cleared and retried, then abandoned).
const FP_CAP: usize = 4096;
const FP_MAX_CLEARS: u32 = 8;

/// Quantize a duration/timestamp in seconds to ticks.
fn ticks(s: f64) -> u64 {
    debug_assert!(s >= 0.0);
    (s * TICK_HZ).round() as u64
}

/// Ticks back to seconds (exact division by a power of two).
fn secs(t: u64) -> f64 {
    t as f64 / TICK_HZ
}

/// Per-node constants in simulator units.
struct DetNode {
    job_in: u64,
    job_out: u64,
    /// Service time per job, ticks (≥ 1).
    exec: u64,
    /// One-time startup latency, ticks.
    startup: u64,
}

/// Absolute counters captured at a fingerprint hit; the difference
/// between two captures of the *same* fingerprint is the per-cycle
/// delta vector applied in closed form by the jump.
#[derive(Clone)]
struct Snap {
    now: u64,
    src_remaining: u64,
    cum_in: u64,
    out_local: u64,
    events: u64,
    jobs_done: Vec<u64>,
    busy_ticks: Vec<u64>,
    q_integral: Vec<u128>,
    q_peak: Vec<u64>,
    d_n: u64,
    d_sum: u128,
    d_min: u64,
    d_max: u64,
    inflight_max: i128,
}

struct Det {
    nodes: Vec<DetNode>,
    // Queues, struct-of-arrays: local byte level, capacity, running
    // peak, occupancy integral in byte·ticks, and last-change tick.
    q_level: Vec<u64>,
    q_cap: Vec<Option<u64>>,
    q_peak: Vec<u64>,
    q_integral: Vec<u128>,
    q_last: Vec<u64>,

    busy: Vec<bool>,
    started: Vec<bool>,
    busy_ticks: Vec<u64>,
    jobs_done: Vec<u64>,
    pending_out: Vec<Option<u64>>,

    src_remaining: u64,
    src_chunk: u64,
    /// Emission interval, ticks (≥ 1).
    src_interval: u64,
    src_blocked: bool,

    /// Sink normalization as an exact reduced rational: local output
    /// bytes × `sn_num / sn_den` = input-referred bytes.
    sn_num: u128,
    sn_den: u128,
    /// Input-referred bytes emitted by the source (node-0 local).
    cum_in: u64,
    /// Local bytes delivered by the last node.
    out_local: u64,
    /// Data in system, as an exact numerator over `sn_den`:
    /// `cum_in·sn_den − out_local·sn_num`.
    inflight: i128,
    inflight_max: i128,

    // Delay tally, integer ticks.
    d_n: u64,
    d_sum: u128,
    d_min: u64,
    d_max: u64,

    /// Input stairstep `(tick, cum_in)`, pruned at the delay cursor
    /// when not tracing.
    steps: StepRing<(u64, u64)>,
    cursor: usize,

    trace: bool,
    trace_out: Vec<(f64, f64)>,
    t_last_out: u64,

    agenda: SlotAgenda<u64>,
    now: u64,
    events: u64,
    /// Set by `deliver_to_sink`; the main loop fingerprints only at
    /// these between-event boundaries.
    delivered: bool,
    ff_done: bool,

    /// Backpressure horizon: the flow-control model's closed-form
    /// delay bound in ticks, `0` when every queue is unbounded (or the
    /// bound is infinite). Bounded queues reach their limit cycle via
    /// a fill transient whose states never recur; fingerprinting only
    /// at `now ≥ bp_horizon` keeps those warmup states out of the
    /// (capacity-capped) fingerprint table. Any value here is sound —
    /// the gate decides *when* the recurrence search starts, never
    /// what a recurrence proves.
    bp_horizon: u64,
}

/// Run the deterministic pipeline on the integer-tick engine, or return
/// `None` when [`run_bound`] does not fit in [`TICK_LIMIT`] (the caller
/// then runs the f64 engine). The caller also keeps runs with an
/// effective fault schedule away from this engine; a trivial schedule
/// is only validated.
pub(crate) fn simulate_det(pipeline: &Pipeline, config: &SimConfig) -> Option<SimResult> {
    pipeline
        .validate()
        .unwrap_or_else(|e| panic!("simulate: invalid pipeline: {e}"));
    let params = derive_params(pipeline);
    let n = params.len();
    if let Some(fs) = &config.faults {
        fs.validate(n)
            .unwrap_or_else(|e| panic!("simulate: invalid fault schedule: {e}"));
        debug_assert!(fs.is_trivial(), "faulted runs take the f64 engine");
    }

    let src_chunk = config.source_chunk.unwrap_or(params[0].job_in).max(1);
    let src_rate = pipeline.source.rate.to_f64();
    assert!(src_rate > 0.0);
    let q_cap = queue_caps(config, &params, src_chunk);

    let nodes: Vec<DetNode> = params
        .iter()
        .map(|p| DetNode {
            job_in: p.job_in,
            job_out: p.job_out,
            exec: ticks(p.exec_avg).max(1),
            startup: ticks(p.startup),
        })
        .collect();
    let src_interval = ticks(src_chunk as f64 / src_rate).max(1);
    if run_bound(&nodes, config.total_input, src_chunk, src_interval) > TICK_LIMIT {
        return None;
    }
    let (mut sn_num, mut sn_den) = (1u128, 1u128);
    for nd in &nodes {
        sn_num *= nd.job_in as u128;
        sn_den *= nd.job_out as u128;
        let g = gcd(sn_num, sn_den);
        sn_num /= g;
        sn_den /= g;
    }

    let bp_horizon = if !config.trace && q_cap.iter().any(Option::is_some) {
        backpressure_horizon(pipeline, config)
    } else {
        0
    };

    let mut w = Det {
        nodes,
        q_level: vec![0; n],
        q_cap,
        q_peak: vec![0; n],
        q_integral: vec![0; n],
        q_last: vec![0; n],
        busy: vec![false; n],
        started: vec![false; n],
        busy_ticks: vec![0; n],
        jobs_done: vec![0; n],
        pending_out: vec![None; n],
        src_remaining: config.total_input,
        src_chunk,
        src_interval,
        src_blocked: false,
        sn_num,
        sn_den,
        cum_in: 0,
        out_local: 0,
        inflight: 0,
        inflight_max: 0,
        d_n: 0,
        d_sum: 0,
        d_min: u64::MAX,
        d_max: 0,
        steps: StepRing::new(),
        cursor: 0,
        trace: config.trace,
        trace_out: Vec::new(),
        t_last_out: 0,
        agenda: SlotAgenda::new(n + 1),
        now: 0,
        events: 0,
        delivered: false,
        ff_done: false,
        bp_horizon,
    };

    let mut fp_map: HashMap<Vec<u64>, Snap> = HashMap::new();
    let mut fp_buf: Vec<u64> = Vec::new();
    let mut fp_clears = 0u32;

    // Mirror of the stochastic engines' initial
    // `schedule_at(ZERO, source_emit)`: consumes sequence number 0.
    w.agenda.arm(SRC, 0);
    while let Some((slot, t)) = w.agenda.pop() {
        w.now = t;
        w.events += 1;
        w.delivered = false;
        if slot == SRC {
            w.source_emit();
        } else {
            w.finish(slot - 1);
        }
        if w.delivered && !w.ff_done && !w.trace && w.now >= w.bp_horizon {
            w.try_jump(&mut fp_map, &mut fp_buf, &mut fp_clears);
        }
    }

    Some(assemble(&w, &params))
}

/// A sound upper bound on the run's length in ticks: source emissions ×
/// emission interval, plus each stage's startup and most jobs × exec.
///
/// Until the run ends some event is pending (an empty agenda ends the
/// loop, and only events arm events), and the only events are the
/// source's next emission, armed for one interval, and the completion
/// of a busy stage. So the run lasts at most the time the source spends
/// armed plus the time the stages spend busy.
fn run_bound(nodes: &[DetNode], total_input: u64, src_chunk: u64, src_interval: u64) -> u128 {
    let emissions = u128::from(total_input.div_ceil(src_chunk));
    let mut bound = emissions.saturating_mul(src_interval.into());
    // Local bytes that can reach each stage: the whole input for the
    // first, then the output of every whole job upstream.
    let mut bytes_in = u128::from(total_input);
    for nd in nodes {
        let jobs = bytes_in / u128::from(nd.job_in);
        bound = bound
            .saturating_add(nd.startup.into())
            .saturating_add(jobs.saturating_mul(nd.exec.into()));
        bytes_in = jobs.saturating_mul(nd.job_out.into());
    }
    bound
}

/// The flow-control delay bound of the pipeline's deterministic twin,
/// in ticks — the fingerprint gate for backpressured runs.
///
/// The bound is computed on [`Pipeline::deterministic_variant`]
/// because this engine services every job at the *average* rate: on
/// the original pipeline `β` uses `min` and the consumption envelope
/// uses `max`, and an overloaded-but-backpressured run (which this
/// engine jumps through just fine) would read as unstable and return
/// `+∞`. Infinite or absent bounds degrade to `0`: the gate opens
/// immediately and the engine behaves exactly as before.
fn backpressure_horizon(pipeline: &Pipeline, config: &SimConfig) -> u64 {
    // The windowed analysis costs real time on deep pipelines (the
    // general closure brackets non-convex accumulators), while fleet
    // and bench workloads re-simulate the same pipeline thousands of
    // times. Memoize per thread through the designed cache path —
    // `flowctl_model_cached` keys on the full windowed signature chain
    // and is exactly equal to the direct build, so repeat runs pay a
    // hash lookup instead of the analysis.
    thread_local! {
        static CACHE: std::cell::RefCell<nc_core::pipeline::ModelCache> =
            std::cell::RefCell::new(nc_core::pipeline::ModelCache::new());
    }
    let det = pipeline.deterministic_variant();
    let Ok(windows) = crate::config::flow_windows(&det, config) else {
        return 0;
    };
    if windows.iter().all(Option::is_none) {
        return 0;
    }
    let delay = CACHE.with(|c| {
        det.flowctl_model_cached(&windows, &mut c.borrow_mut())
            .delay
    });
    delay.as_finite().map_or(0, |d| ticks(d.to_f64().max(0.0)))
}

impl Det {
    fn n(&self) -> usize {
        self.nodes.len()
    }

    // Queue primitives (ByteQueue's semantics on integer ticks).

    fn q_touch(&mut self, i: usize) {
        let dt = self.now - self.q_last[i];
        self.q_integral[i] += self.q_level[i] as u128 * dt as u128;
        self.q_last[i] = self.now;
    }

    fn q_can_put(&self, i: usize, bytes: u64) -> bool {
        self.q_cap[i].is_none_or(|c| self.q_level[i] + bytes <= c)
    }

    fn q_put(&mut self, i: usize, bytes: u64) {
        self.q_touch(i);
        self.q_level[i] += bytes;
        if self.q_level[i] > self.q_peak[i] {
            self.q_peak[i] = self.q_level[i];
        }
    }

    fn q_get(&mut self, i: usize, bytes: u64) {
        debug_assert!(self.q_level[i] >= bytes);
        self.q_touch(i);
        self.q_level[i] -= bytes;
    }

    // The event protocol — a tick-for-tick mirror of the stochastic
    // engine's (see `crate::engine` for the wake-protocol rationale).

    fn source_emit(&mut self) {
        if self.src_remaining == 0 {
            return;
        }
        let chunk = self.src_chunk.min(self.src_remaining);
        if !self.q_can_put(0, chunk) {
            self.src_blocked = true;
            return;
        }
        self.q_put(0, chunk);
        self.src_remaining -= chunk;
        self.cum_in += chunk;
        self.inflight += chunk as i128 * self.sn_den as i128;
        if self.inflight > self.inflight_max {
            self.inflight_max = self.inflight;
        }
        self.steps.push((self.now, self.cum_in));
        if self.src_remaining > 0 {
            let at = self.now + self.src_interval;
            self.agenda.arm(SRC, at);
        }
        self.try_start(0);
    }

    fn try_start(&mut self, i: usize) {
        let job_in = self.nodes[i].job_in;
        if self.busy[i] || self.pending_out[i].is_some() || self.q_level[i] < job_in {
            return;
        }
        self.q_get(i, job_in);
        self.busy[i] = true;
        let startup = if self.started[i] {
            0
        } else {
            self.started[i] = true;
            self.nodes[i].startup
        };
        let exec = self.nodes[i].exec;
        self.busy_ticks[i] += exec;
        self.agenda.arm(i + 1, self.now + startup + exec);
        if i == 0 {
            self.resume_source();
        } else {
            self.try_deliver(i - 1);
        }
    }

    fn try_deliver(&mut self, i: usize) {
        let Some(bytes) = self.pending_out[i] else {
            return;
        };
        if i + 1 == self.n() {
            self.deliver_to_sink(bytes);
            self.pending_out[i] = None;
            self.try_start(i);
        } else if self.q_can_put(i + 1, bytes) {
            self.q_put(i + 1, bytes);
            self.pending_out[i] = None;
            self.try_start(i);
            self.try_start(i + 1);
        }
    }

    fn resume_source(&mut self) {
        if self.src_blocked && self.q_can_put(0, self.src_chunk) {
            self.src_blocked = false;
            self.source_emit();
        }
    }

    fn finish(&mut self, i: usize) {
        debug_assert!(self.busy[i]);
        debug_assert!(self.pending_out[i].is_none());
        self.busy[i] = false;
        self.jobs_done[i] += 1;
        self.pending_out[i] = Some(self.nodes[i].job_out);
        self.try_deliver(i);
    }

    fn deliver_to_sink(&mut self, local_bytes: u64) {
        self.out_local += local_bytes;
        self.inflight -= local_bytes as i128 * self.sn_num as i128;
        self.t_last_out = self.now;

        // Virtual delay: when did this cumulative level enter the
        // system? Levels compare exactly as numerators over `sn_den`.
        let level = (self.out_local as u128 * self.sn_num).min(self.cum_in as u128 * self.sn_den);
        debug_assert!(!self.steps.is_empty());
        while self.cursor + 1 < self.steps.len()
            && (self.steps.get(self.cursor).1 as u128 * self.sn_den) < level
        {
            self.cursor += 1;
        }
        let t_in = self.steps.get(self.cursor).0;
        let d = self.now - t_in;
        self.d_n += 1;
        self.d_sum += d as u128;
        self.d_min = self.d_min.min(d);
        self.d_max = self.d_max.max(d);

        if self.trace {
            let out_norm = (self.out_local as u128 * self.sn_num) as f64 / self.sn_den as f64;
            self.trace_out.push((secs(self.now), out_norm));
        } else {
            self.steps.prune_to(self.cursor);
        }
        self.delivered = true;
    }

    /// Everything the future evolution depends on, minus absolute time
    /// and cumulative totals: two states with equal fingerprints (and
    /// input remaining well above one cycle's worth) step through the
    /// same event sequence, shifted by the period.
    fn fingerprint(&self, buf: &mut Vec<u64>) {
        buf.clear();
        for i in 0..self.n() {
            buf.push(self.q_level[i]);
            buf.push(self.busy[i] as u64);
            buf.push(self.started[i] as u64);
            buf.push(self.pending_out[i].unwrap_or(NONE64));
            buf.push(self.agenda.time_of(i + 1).map_or(NONE64, |t| t - self.now));
        }
        buf.push(self.src_blocked as u64);
        buf.push(self.agenda.time_of(SRC).map_or(NONE64, |t| t - self.now));
        // Exact in-flight volume (not derivable from queue levels alone
        // once job ratios differ).
        buf.push(self.inflight as u64);
        buf.push((self.inflight >> 64) as u64);
        // The live stairstep window, relative to now/cum_in: these
        // entries feed future delay lookups.
        for i in self.cursor..self.steps.len() {
            let (t, c) = self.steps.get(i);
            buf.push(self.now - t);
            buf.push(self.cum_in - c);
        }
        // Pending-event tie order: slots sorted by arm sequence. Equal
        // times pop FIFO by arm order, so recurrence must preserve it.
        let mut by_seq: Vec<(u64, usize)> = (0..=self.n())
            .filter_map(|s| self.agenda.seq_of(s).map(|q| (q, s)))
            .collect();
        by_seq.sort_unstable();
        for (_, slot) in by_seq {
            buf.push(slot as u64);
        }
    }

    fn snapshot(&self) -> Snap {
        Snap {
            now: self.now,
            src_remaining: self.src_remaining,
            cum_in: self.cum_in,
            out_local: self.out_local,
            events: self.events,
            jobs_done: self.jobs_done.clone(),
            busy_ticks: self.busy_ticks.clone(),
            q_integral: self.q_integral.clone(),
            q_peak: self.q_peak.clone(),
            d_n: self.d_n,
            d_sum: self.d_sum,
            d_min: self.d_min,
            d_max: self.d_max,
            inflight_max: self.inflight_max,
        }
    }

    /// Fingerprint the current (between-events) state; on recurrence
    /// with stable extrema, advance as many whole cycles as the
    /// remaining input allows in O(1).
    fn try_jump(
        &mut self,
        map: &mut HashMap<Vec<u64>, Snap>,
        buf: &mut Vec<u64>,
        clears: &mut u32,
    ) {
        self.fingerprint(buf);
        let Some(s) = map.get(buf) else {
            if map.len() >= FP_CAP {
                // Non-recurrent so far (divergent unbounded overload
                // never recurs: some queue depth grows every cycle).
                // Retry with a fresh table a few times, then give up.
                map.clear();
                *clears += 1;
                if *clears >= FP_MAX_CLEARS {
                    self.ff_done = true;
                    return;
                }
            }
            map.insert(buf.clone(), self.snapshot());
            return;
        };

        let dt = self.now - s.now;
        let d_rem = s.src_remaining - self.src_remaining;
        // Extrema must have stabilized: a cycle that still moved a
        // peak or a delay bound is warmup, not steady state. (Peaks
        // are monotone; by periodicity an unmoved peak stays unmoved.)
        let stable = dt > 0
            && d_rem > 0
            && self.d_min == s.d_min
            && self.d_max == s.d_max
            && self.inflight_max == s.inflight_max
            && self.q_peak == s.q_peak;
        // Leave ≥ one cycle plus a full chunk so every skipped emission
        // provably uses a whole chunk and the tail replays exactly.
        let k = if stable {
            self.src_remaining.saturating_sub(d_rem + self.src_chunk) / d_rem
        } else {
            0
        };
        if k == 0 {
            // Re-key the snapshot to the newer visit so the next
            // recurrence measures a fresher (post-warmup) cycle.
            map.insert(buf.clone(), self.snapshot());
            return;
        }

        // Per-cycle deltas (current minus stored snapshot).
        let d_in = self.cum_in - s.cum_in;
        let d_out = self.out_local - s.out_local;
        let d_ev = self.events - s.events;
        let d_dn = self.d_n - s.d_n;
        let d_dsum = self.d_sum - s.d_sum;
        let d_jobs: Vec<u64> = self
            .jobs_done
            .iter()
            .zip(&s.jobs_done)
            .map(|(a, b)| a - b)
            .collect();
        let d_busy: Vec<u64> = self
            .busy_ticks
            .iter()
            .zip(&s.busy_ticks)
            .map(|(a, b)| a - b)
            .collect();
        let d_qint: Vec<u128> = self
            .q_integral
            .iter()
            .zip(&s.q_integral)
            .map(|(a, b)| a - b)
            .collect();

        let jump = u64::try_from(k as u128 * dt as u128)
            .expect("cycle-jump exceeds the 2^64-tick time range");
        self.now += jump;
        self.src_remaining -= k * d_rem;
        self.cum_in += k * d_in;
        self.out_local += k * d_out;
        self.events += k * d_ev;
        self.d_n += k * d_dn;
        self.d_sum += k as u128 * d_dsum;
        self.t_last_out += jump;
        for i in 0..self.n() {
            self.jobs_done[i] += k * d_jobs[i];
            self.busy_ticks[i] += k * d_busy[i];
            self.q_integral[i] += k as u128 * d_qint[i];
            self.q_last[i] += jump;
        }
        self.agenda.shift_armed(|t| t + jump);
        let (kd_t, kd_in) = (jump, k * d_in);
        self.steps.shift(|e| {
            e.0 += kd_t;
            e.1 += kd_in;
        });
        // Fingerprint equality pinned the in-flight numerator, so
        // Δin·sn_den == Δout·sn_num and `inflight` is unchanged.
        debug_assert_eq!(
            self.inflight,
            self.cum_in as i128 * self.sn_den as i128
                - self.out_local as i128 * self.sn_num as i128
        );
        // One jump consumes all skippable input; the tail runs exactly.
        self.ff_done = true;
    }
}

fn assemble(w: &Det, params: &[NodeParams]) -> SimResult {
    let bytes_out = (w.out_local as u128 * w.sn_num) as f64 / w.sn_den as f64;
    let makespan = secs(w.t_last_out);
    let residual: f64 = w
        .q_level
        .iter()
        .zip(params)
        .map(|(&lvl, p)| lvl as f64 * p.norm_in)
        .sum();
    let per_queue_peak = w
        .q_peak
        .iter()
        .zip(params)
        .map(|(&pk, p)| (p.name.clone(), pk as f64 * p.norm_in))
        .collect();
    let horizon = secs(w.now).max(f64::MIN_POSITIVE);
    let per_node = params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let avg_queue = if w.now == 0 {
                w.q_level[i] as f64
            } else {
                let total = w.q_integral[i] + w.q_level[i] as u128 * (w.now - w.q_last[i]) as u128;
                total as f64 / w.now as f64
            };
            crate::result::NodeStats {
                name: p.name.clone(),
                utilization: (secs(w.busy_ticks[i]) / horizon).min(1.0),
                jobs: w.jobs_done[i],
                bytes_in: w.jobs_done[i] * p.job_in,
                avg_queue: avg_queue * p.norm_in,
            }
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
        delay_min: if w.d_n > 0 { secs(w.d_min) } else { 0.0 },
        delay_max: if w.d_n > 0 { secs(w.d_max) } else { 0.0 },
        delay_mean: if w.d_n > 0 {
            (w.d_sum as f64 / w.d_n as f64) / TICK_HZ
        } else {
            0.0
        },
        peak_backlog: w.inflight_max as f64 / w.sn_den as f64,
        per_queue_peak,
        residual,
        trace_in: if w.trace {
            w.steps.iter().map(|(t, c)| (secs(t), c as f64)).collect()
        } else {
            Vec::new()
        },
        trace_out: w.trace_out.clone(),
        per_node,
        events: w.events,
        dropped_jobs: 0,
        dropped_bytes: 0.0,
        retries: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceModel;
    use crate::reference::simulate_reference;
    use nc_core::num::Rat;
    use nc_core::pipeline::{Node, NodeKind, Source, StageRates};

    fn node(name: &str, rate: i64, jin: i64, jout: i64) -> Node {
        Node::new(
            name,
            NodeKind::Compute,
            StageRates::fixed(Rat::int(rate)),
            Rat::ZERO,
            Rat::int(jin),
            Rat::int(jout),
        )
    }

    fn pipeline(rate: i64, nodes: Vec<Node>) -> Pipeline {
        Pipeline::new(
            "det-test",
            Source {
                rate: Rat::int(rate),
                burst: Rat::int(64),
            },
            nodes,
        )
    }

    fn cfg(total: u64) -> SimConfig {
        SimConfig {
            seed: 7,
            total_input: total,
            source_chunk: Some(64),
            queue_capacity: None,
            queue_capacities: None,
            service_model: ServiceModel::Deterministic,
            trace: false,
            faults: None,
        }
    }

    fn det(p: &Pipeline, c: &SimConfig) -> SimResult {
        simulate_det(p, c).expect("run fits the tick range")
    }

    fn assert_bitwise(a: &SimResult, b: &SimResult) {
        assert_eq!(a, b);
    }

    /// The untraced (jumping) run of `c` against the traced one, which
    /// cannot jump and so steps every event: equal bit for bit once the
    /// fields only a traced run fills are cleared. Returns the untraced
    /// result.
    fn assert_jump_matches_stepping(p: &Pipeline, c: &SimConfig) -> SimResult {
        let mut c = c.clone();
        c.trace = false;
        let jump = det(p, &c);
        c.trace = true;
        let mut step = det(p, &c);
        step.trace_in.clear();
        step.trace_out.clear();
        step.steady_throughput = step.throughput;
        assert_bitwise(&jump, &step);
        jump
    }

    #[test]
    fn fast_forward_is_bitwise_identical_unbounded() {
        let p = pipeline(1000, vec![node("a", 800, 64, 64), node("b", 700, 64, 64)]);
        assert_jump_matches_stepping(&p, &cfg(64 * 5000));
    }

    #[test]
    fn fast_forward_is_bitwise_identical_backpressured() {
        // Bounded queues + an overloaded tail stage: the steady state
        // is a backpressure limit cycle, which must recur and jump.
        let p = pipeline(
            2000,
            vec![node("a", 1500, 64, 64), node("slow", 400, 64, 64)],
        );
        let mut c = cfg(64 * 4000);
        c.queue_capacity = Some(256);
        assert_jump_matches_stepping(&p, &c);
    }

    #[test]
    fn backpressured_jump_gated_past_flowctl_horizon() {
        // Heterogeneous per-queue caps + an overloaded tail: the
        // flow-control delay bound gates the fingerprint search past
        // the queue-fill transient, and the jump must still be
        // bit-identical to exact stepping. The bound itself must be
        // finite here — computed on the deterministic twin, overload
        // with bounded queues stays stable.
        let p = pipeline(
            2000,
            vec![node("a", 1500, 64, 64), node("slow", 400, 64, 64)],
        );
        let mut c = cfg(64 * 4000);
        c.queue_capacities = Some(vec![512, 192]);
        assert!(backpressure_horizon(&p, &c) > 0);
        let fast = assert_jump_matches_stepping(&p, &c);
        // The run really was backpressured and the jump engaged (the
        // volume is far beyond what exact warmup stepping covers).
        assert!(fast.bytes_out > 0.0);
    }

    #[test]
    fn fast_forward_is_bitwise_identical_partial_residual() {
        // Total volume not a multiple of chunk or job size: the drain
        // tail has a partial chunk and a residual stuck in the queue.
        let p = pipeline(1000, vec![node("a", 800, 64, 48)]);
        let mut c = cfg(64 * 3000 + 37);
        c.source_chunk = Some(50);
        let fast = assert_jump_matches_stepping(&p, &c);
        assert!(fast.residual > 0.0);
    }

    #[test]
    fn fast_forward_is_bitwise_identical_job_ratios() {
        // 4:1 then 1:4 job ratios exercise the rational sink norm.
        let p = pipeline(
            1000,
            vec![node("pack", 900, 64, 16), node("unpack", 850, 16, 64)],
        );
        assert_jump_matches_stepping(&p, &cfg(64 * 4000));
    }

    #[test]
    fn fast_forward_scales_sublinearly() {
        // 64× the input must not cost 64× the events when jumping.
        let p = pipeline(1000, vec![node("a", 800, 64, 64)]);
        let small = det(&p, &cfg(64 * 1000));
        let large = det(&p, &cfg(64 * 64000));
        // Events *reported* are identical to the exact engine's (the
        // closed form includes them), but the work done is the warmup +
        // one period + drain; sanity-check the volume really scaled.
        assert!(large.bytes_out > 60.0 * small.bytes_out);
        assert!(
            (large.throughput - small.throughput).abs() / small.throughput < 0.01,
            "steady throughput should match: {} vs {}",
            large.throughput,
            small.throughput
        );
    }

    #[test]
    fn matches_reference_engine_within_tick_tolerance() {
        // The tick engine deviates from the f64 reference only by the
        // one-time 2⁻⁴⁰ s quantization of each interval.
        let p = pipeline(1000, vec![node("a", 800, 64, 64), node("b", 700, 64, 64)]);
        let mut c = cfg(64 * 500);
        c.trace = true;
        let tick = det(&p, &c);
        let refr = simulate_reference(&p, &c);
        let close = |a: f64, b: f64, what: &str| {
            let denom = b.abs().max(1e-9);
            assert!((a - b).abs() / denom < 1e-6, "{what}: {a} vs {b}");
        };
        close(tick.bytes_out, refr.bytes_out, "bytes_out");
        close(tick.makespan, refr.makespan, "makespan");
        close(tick.throughput, refr.throughput, "throughput");
        close(tick.delay_min, refr.delay_min, "delay_min");
        close(tick.delay_max, refr.delay_max, "delay_max");
        close(tick.delay_mean, refr.delay_mean, "delay_mean");
        close(tick.peak_backlog, refr.peak_backlog, "peak_backlog");
        assert_eq!(tick.events, refr.events);
        assert_eq!(tick.per_node[0].jobs, refr.per_node[0].jobs);
    }

    #[test]
    fn divergent_overload_still_exact() {
        // Unbounded queue + overload: depths grow every cycle, nothing
        // recurs, the engine must fall back to exact stepping (and the
        // fingerprint table must not blow up the run).
        let p = pipeline(1000, vec![node("slow", 250, 64, 64)]);
        let fast = assert_jump_matches_stepping(&p, &cfg(64 * 2000));
        assert!(fast.residual == 0.0);
        assert!(fast.peak_backlog > 64.0 * 100.0);
    }

    #[test]
    fn zero_fault_schedule_is_bit_identical_det() {
        let p = pipeline(1000, vec![node("a", 800, 64, 64), node("b", 700, 64, 64)]);
        let base = det(&p, &cfg(64 * 3000));
        let mut c = cfg(64 * 3000);
        c.faults = Some(crate::faults::FaultSchedule::none(2));
        let faulted = det(&p, &c);
        assert_bitwise(&base, &faulted);
    }

    #[test]
    fn traced_deterministic_run_disables_jump_but_stays_exact() {
        let p = pipeline(1000, vec![node("a", 800, 64, 64)]);
        let mut c = cfg(64 * 800);
        c.trace = true;
        let traced = det(&p, &c);
        let lean = det(&p, &cfg(64 * 800));
        assert!(!traced.trace_out.is_empty());
        assert!(lean.trace_out.is_empty());
        assert_eq!(traced.delay_mean, lean.delay_mean);
        assert_eq!(traced.makespan, lean.makespan);
        assert_eq!(traced.events, lean.events);
    }

    #[test]
    fn runs_beyond_the_tick_range_take_the_f64_engine() {
        // A 1/64 B/s source emits a 64 B chunk every 4096 s: 2^19 B of
        // input last 2^25 s, past the 2^24 s the u64 tick range covers.
        // The one stage (2 B/s) spends 32 s on each 64 B job.
        let mut p = pipeline(1, vec![node("s", 2, 64, 64)]);
        p.source.rate = Rat::new(1, 64);
        let total = 1u64 << 19;
        assert!(simulate_det(&p, &cfg(total)).is_none());
        for trace in [false, true] {
            let c = SimConfig {
                trace,
                ..cfg(total)
            };
            let r = crate::simulate(&p, &c);
            let close = |a: f64, b: f64, what: &str| {
                assert!(
                    (a - b).abs() <= 1e-6 * b,
                    "trace={trace} {what}: {a} vs {b}"
                );
            };
            close(r.bytes_out, total as f64, "bytes_out");
            close(r.makespan, (1u64 << 25) as f64 - 4096.0 + 32.0, "makespan");
            close(r.delay_max, 32.0, "delay_max");
        }
    }
}
