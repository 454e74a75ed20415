//! Stage-parallel stochastic engine: conservative PDES with NC-derived
//! lookahead (DESIGN.md §12).
//!
//! The sequential thinned engine ([`crate::engine`]) processes one
//! global `(time, seq)` agenda. This engine instead shards the pipeline
//! into per-stage **logical processes** (LPs) — one per stage plus one
//! for the source — connected by SPSC [`nc_des::link`] channels, and
//! synchronizes them conservatively: each LP processes an event at time
//! `t` only once every input channel's *frontier* (next buffered
//! message, else the producer's watermark promise) lies beyond `t`, so
//! no straggler can arrive in its past. There is no rollback.
//!
//! **Lookahead comes from the NC model.** A producer's watermark is how
//! far past its committed outputs consumers may advance, and the
//! network-calculus service model provides a provable window
//! ([`nc_core::pipeline::Pipeline::stage_lookaheads`]): a stage with
//! rate-latency service `β_n = R_n (t − T_n)⁺` that must aggregate
//! `b_n` bytes cannot emit before it has collected them — the missing
//! `k`-th upstream block arrives no earlier than `W_up + (k−1)·g_up`
//! (the upstream frontier plus its per-job pacing floor
//! `g = b/R_max`) — and then needs at least `T_n` (first job) plus its
//! own `b_n/R_max,n` of service. Fault schedules gate the window: the
//! promise is pushed through [`FaultRt::extend`], so an open
//! stall/outage freeze is never jumped over (a promise never lands
//! inside a window the real completion would be pushed out of).
//!
//! **Worker-count determinism.** Each LP owns a counter-derived RNG
//! stream keyed by `(seed, stage)` (splitmix64-expanded ChaCha8 key),
//! its own clock, queue, and statistics; message content and order on
//! every link are produced by exactly one LP; and scheduling only ever
//! decides *when* an LP may process, never *what* it computes. Results
//! are therefore bit-identical for any worker count and any thread
//! interleaving — `workers = Some(1)` equals `workers = Some(n)`
//! exactly, which `tests/prop_par.rs` pins. Sample paths differ from
//! the sequential engine (which draws all stages from one RNG), so
//! cross-engine agreement is statistical, not bitwise; volume
//! observables (`bytes_out`, `residual`, per-node `jobs`/`bytes_in`)
//! are RNG-free and match the sequential engine exactly on fault-free
//! runs.
//!
//! **Scope.** Queues must be unbounded (the paper's default): with no
//! backpressure a completed job is always deliverable, so the LP graph
//! stays feed-forward — which is also the deadlock-freedom argument:
//! every LP waits only on upstream frontiers, and the source never
//! waits on anything but wall-clock backlog caps, which consumers
//! drain. A bounded queue adds a consumer→producer dependency that
//! must cross threads about once per event, so no publication quantum
//! can amortize it (EXPERIMENTS.md §E-bp-par). Bounded-queue
//! configurations and `ServiceModel::Deterministic` run on the
//! sequential engines with a typed reason (see [`par_fallback`] and
//! [`crate::engine::simulate_in`]).
//!
//! **Synchronization cost (DESIGN.md §12 addendum).** All cross-thread
//! state is touched once per *quantum*, not once per event: an LP polls
//! its inputs (two atomic loads when nothing changed), checks downstream
//! backlog (one atomic load), then processes every merged event strictly
//! below the now-frozen frontier with zero shared-memory traffic,
//! publishing its outputs and watermark once per `NC_PUB_QUANTUM` events
//! (default 256; `1` restores per-event publication, the ablation
//! baseline in `perfbase`). A stale frontier is always *sound* — the
//! cached watermark is a promise that only under-estimates how far the
//! consumer may advance — so batching affects liveness only, and the
//! staleness is bounded: an LP also publishes whenever its clock has
//! advanced more than `quantum` lookahead windows past its last
//! publication, so a consumer never lags its producer by more than one
//! quantum of NC-derived lookahead. With `workers = 1` every LP runs
//! round-robin on one thread and the amortized per-event cost approaches
//! the sequential engine's (the BENCH_6 overhead row).
//!
//! **Adaptive sharding.** With `workers > 1` the LP chain is first
//! partitioned by *expected* per-LP event counts, run for a warmup
//! window (1/8 of the expected events, clamped), then re-partitioned by
//! the *measured* per-LP event counts and run to completion. The
//! partition decides only which thread runs an LP, so the warmup
//! measurement — wall-clock noisy as it is — can never perturb a result
//! bit (`prop_par.rs` pins this with repartitioning active).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use nc_core::pipeline::Pipeline;
use nc_des::link::{link, LinkRx, LinkTx, ProgressGate};
use nc_des::{ByteQueue, Dist, StreamingTally, Time, TimeWeighted};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::{derive_params, NodeParams, ServiceModel, SimConfig};
use crate::engine::steady_slope;
use crate::faults::FaultRt;
use crate::result::SimResult;
use crate::ring::StepRing;

/// Soft per-link in-flight cap (messages). Bounds wall-clock memory of
/// a fast producer ahead of a slow consumer; has no effect on
/// simulation semantics (see `nc_des::link`).
const LINK_CAP: usize = 1 << 16;

/// Why a configuration falls back from the stage-parallel engine to a
/// sequential one (see [`par_fallback`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParFallback {
    /// `ServiceModel::Deterministic` routes to the sequential
    /// integer-tick engine, whose cycle-jump fast-forward beats
    /// parallelism outright.
    Deterministic,
    /// A bounded queue (`queue_capacity` or `queue_capacities` set):
    /// backpressure would cross threads about once per event, which
    /// measured several times slower than the sequential engine.
    BoundedQueue,
}

impl std::fmt::Display for ParFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParFallback::Deterministic => write!(
                f,
                "deterministic service: sequential integer-tick engine (cycle-jump fast-forward)"
            ),
            ParFallback::BoundedQueue => write!(
                f,
                "bounded queues: sequential engine (per-event backpressure defeats the parallel one)"
            ),
        }
    }
}

/// Why this configuration will not run on the parallel engine, or
/// `None` when `workers` requests are honored by [`simulate_par`].
pub fn par_fallback(config: &SimConfig) -> Option<ParFallback> {
    if config.service_model == ServiceModel::Deterministic {
        Some(ParFallback::Deterministic)
    } else if config.queue_capacity.is_some() || config.queue_capacities.is_some() {
        Some(ParFallback::BoundedQueue)
    } else {
        None
    }
}

/// One source emission: `bytes` enter the first stage's queue at `t`.
#[derive(Clone, Copy, Debug)]
struct DataMsg {
    t: f64,
    bytes: u64,
}

/// Source stairstep entry for the sink's virtual-delay inverse lookup.
#[derive(Clone, Copy, Debug)]
struct StepMsg {
    t: f64,
    cum_in: f64,
}

/// A Drop-policy stage discarded a job carrying `norm` input-referred
/// bytes at `t` (the sink must debit `in_system` in merged time order).
#[derive(Clone, Copy, Debug)]
struct DropMsg {
    t: f64,
    norm: f64,
}

enum Run {
    /// Processed at least one event or published new output.
    Progress,
    /// Nothing processable until an input frontier moves.
    Blocked,
    /// This LP will never produce another event.
    Finished,
}

/// Outcome of one lock-free processing burst between synchronization
/// points (see [`StageLp::drain`]).
enum Drained {
    /// Processed at least one event.
    Worked,
    /// Nothing processable below the cached frontier.
    Idle,
    /// Every channel exhausted, nothing in flight: the LP is done.
    Finished,
}

/// The publication quantum: events processed by an LP between watermark
/// publications — the shared `NC_PUB_QUANTUM` knob read by
/// [`nc_des::link::publish_quantum`] (`1` restores per-event
/// publication, the ablation baseline; the default batches 256 events
/// per publication). Publication timing affects liveness only, never
/// results.
fn publish_quantum() -> u32 {
    nc_des::link::publish_quantum().min(u32::MAX as usize) as u32
}

/// Per-LP RNG stream: a ChaCha8 key counter-derived from
/// `(seed, stage)` via a splitmix64 expansion, so streams are
/// independent of each other and of how many workers run them.
fn stage_rng(seed: u64, stage: u64) -> ChaCha8Rng {
    fn splitmix64(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut x = seed ^ stage.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut key = [0u8; 32];
    for chunk in key.chunks_exact_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut x).to_le_bytes());
    }
    ChaCha8Rng::from_seed(key)
}

// ---------------------------------------------------------------------
// Source LP
// ---------------------------------------------------------------------

struct SourceLp {
    remaining: u64,
    chunk: u64,
    interval: f64,
    t_next: f64,
    t_last: f64,
    cum_in: f64,
    emissions: u64,
    data: LinkTx<DataMsg>,
    steps: LinkTx<StepMsg>,
    done: bool,
}

impl SourceLp {
    fn run(&mut self) -> Run {
        if self.done {
            return Run::Finished;
        }
        let mut progress = false;
        while self.remaining > 0 {
            if self.data.backlogged() || self.steps.backlogged() {
                // Always publish data *before* parking: the sink merge
                // can then keep draining, which is what frees us.
                self.data.flush();
                self.steps.flush();
                return if progress {
                    Run::Progress
                } else {
                    Run::Blocked
                };
            }
            let chunk = self.chunk.min(self.remaining);
            let t = self.t_next;
            self.remaining -= chunk;
            self.cum_in += chunk as f64; // norm_in[0] == 1 by construction
            self.data.send(DataMsg { t, bytes: chunk });
            self.steps.send(StepMsg {
                t,
                cum_in: self.cum_in,
            });
            self.emissions += 1;
            self.t_last = t;
            progress = true;
            if self.remaining > 0 {
                self.t_next = t + self.interval;
                // The source's lookahead is exact: emissions sit on a
                // fixed cadence, so the next one IS the watermark.
                self.data.set_watermark(self.t_next);
                self.steps.set_watermark(self.t_next);
            }
        }
        self.data.close();
        self.steps.close();
        self.done = true;
        Run::Finished
    }
}

// ---------------------------------------------------------------------
// Stage LP
// ---------------------------------------------------------------------

/// Where a stage's completed jobs go: the next stage, or (last stage
/// only) the in-process sink accounting.
enum StageOut {
    Link(LinkTx<DataMsg>),
    Sink(Box<SinkState>),
}

/// Sink-side statistics, owned by the last stage's LP. Mirrors the
/// sequential engine's sink accounting, fed by a deterministic k-way
/// merge over the source stairstep channel, the Drop-policy stages'
/// drop channels, and the stage's own completions.
struct SinkState {
    steps: LinkRx<StepMsg>,
    /// Drop channels from upstream Drop-policy stages, in stage order
    /// (empty on zero-fault runs: no channels, no overhead).
    drops: Vec<LinkRx<DropMsg>>,
    sink_norm: f64,
    cum_in: f64,
    cum_out: f64,
    /// Running input-referred bytes dropped anywhere, in merged order.
    dropped_norm: f64,
    in_system: TimeWeighted,
    delays: StreamingTally,
    input_steps: StepRing<(f64, f64)>,
    delay_cursor: usize,
    trace: bool,
    trace_out: Vec<(f64, f64)>,
    t_last_out: f64,
}

/// The event classes an LP merges, in fixed priority order for equal
/// timestamps (sink bookkeeping before completions before arrivals, so
/// a delivery at `t` sees every input step and drop at `t`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Class {
    Step,
    Drop(usize),
    Completion,
    Arrival,
}

struct StageLp {
    i: usize,
    p: NodeParams,
    model: ServiceModel,
    faults: Option<Arc<FaultRt>>,
    rng: ChaCha8Rng,

    input: LinkRx<DataMsg>,
    out: StageOut,
    /// Drop channel to the sink (Drop-policy stages that are not last).
    drop_tx: Option<LinkTx<DropMsg>>,

    /// Upstream pacing bound: messages carry at most `up_block` bytes
    /// and consecutive ones are at least `up_min_gap` apart — the NC
    /// per-job floor `b/R_max` of the upstream stage (zero under the
    /// Exponential model, whose service floor is zero), or the source
    /// cadence.
    up_block: u64,
    up_min_gap: f64,
    /// This stage's own NC service floor `b_n/R_max,n` (fault-derated).
    exec_floor: f64,

    queue: ByteQueue,
    busy_until: Option<f64>,
    started: bool,
    busy_time: f64,
    jobs: u64,
    completions: u64,
    cur_retry: u32,
    retries: u64,
    last_exec: f64,
    dropped_jobs: u64,
    dropped_norm: f64,
    now: f64,
    events_since_flush: u32,
    /// Publication quantum (events per watermark publication).
    quantum: u32,
    /// Bounded-staleness cap: publish when the LP clock has advanced
    /// this far past the last publication (`∞` when the stage has no
    /// positive pacing floor — the event-count quantum then bounds the
    /// batch instead).
    stale_cap: f64,
    /// LP clock at the last publication.
    last_pub_now: f64,
    /// Total merged events processed (the adaptive-sharding load
    /// measure).
    work: u64,
    done: bool,
}

impl StageLp {
    fn run(&mut self) -> Run {
        if self.done {
            return Run::Finished;
        }
        let mut progress = false;
        loop {
            // One synchronization point per burst, not per event: drain
            // the shared queues, refresh the cached watermarks (two
            // atomic loads per idle channel), check downstream backlog
            // (one atomic load), then process everything below the
            // now-frozen frontier with no shared-memory traffic at all.
            self.input.poll();
            if let StageOut::Sink(sink) = &mut self.out {
                sink.steps.poll();
                for d in &mut sink.drops {
                    d.poll();
                }
            }
            if matches!(&self.out, StageOut::Link(tx) if tx.backlogged()) {
                self.publish();
                return if progress {
                    Run::Progress
                } else {
                    Run::Blocked
                };
            }
            match self.drain() {
                Drained::Finished => {
                    self.finish_lp();
                    return Run::Finished;
                }
                Drained::Worked => progress = true,
                Drained::Idle => {
                    self.publish();
                    return if progress {
                        Run::Progress
                    } else {
                        Run::Blocked
                    };
                }
            }
        }
    }

    /// Process every merged event strictly below the *cached* input
    /// frontier — a pure in-cache loop between synchronization points.
    /// The cached watermarks only under-promise (staleness is sound),
    /// so any event this admits would also be admitted with fresh
    /// state; mid-burst publications follow the quantum/staleness
    /// policy so downstream LPs are never starved.
    fn drain(&mut self) -> Drained {
        match self.out {
            StageOut::Link(_) => self.drain_mid(),
            StageOut::Sink(_) => self.drain_last(),
        }
    }

    /// Mid-chain specialization of the merge: only two channels exist
    /// (own completion, upstream arrivals), so the k-way scan collapses
    /// to a three-armed branch with `+∞` sentinels. Semantics are
    /// exactly [`Self::drain_last`]'s generic merge restricted to those
    /// channels — Completion orders before Arrival at equal times, any
    /// event must lie strictly below the empty-inbox watermark bound.
    fn drain_mid(&mut self) -> Drained {
        let mut worked = false;
        loop {
            let busy = self.busy_until.unwrap_or(f64::INFINITY);
            // (event time, is-completion, bound gating it)
            let (t, completion, bound) = match self.input.front() {
                Some(m) if busy <= m.t => (busy, true, f64::INFINITY),
                Some(m) => (m.t, false, f64::INFINITY),
                None => (busy, true, self.input.watermark()),
            };
            if t >= bound {
                if t.is_infinite() && bound.is_infinite() {
                    // Nothing in flight, input exhausted: done forever.
                    return Drained::Finished;
                }
                return if worked {
                    Drained::Worked
                } else {
                    Drained::Idle
                };
            }
            debug_assert!(t >= self.now, "LP clock must be monotone");
            self.now = t;
            if completion {
                self.complete(t);
            } else {
                let m = self.input.pop().expect("arrival head");
                self.queue.put(Time::secs(t), m.bytes);
                self.try_start(t);
            }
            worked = true;
            self.work += 1;
            self.events_since_flush += 1;
            if self.events_since_flush >= self.quantum
                || self.now - self.last_pub_now >= self.stale_cap
            {
                self.publish();
                if let StageOut::Link(tx) = &self.out {
                    if tx.backlogged() {
                        // Let the caller's synchronization point park us.
                        return Drained::Worked;
                    }
                }
            }
        }
    }

    /// Last-stage merge: the stage's own two channels plus the sink's
    /// bookkeeping channels (source stairstep, upstream drop streams).
    fn drain_last(&mut self) -> Drained {
        let mut worked = false;
        loop {
            // The k-way merge: the earliest concrete event, and the
            // earliest (frontier, class) of a channel with nothing
            // buffered (below which an unseen event could still
            // arrive — class-aware, so an event tied with a frontier
            // is admitted exactly when it would order before that
            // channel's messages anyway).
            let mut best: Option<(f64, Class)> = None;
            let mut bound = (f64::INFINITY, Class::Arrival);
            let mut consider = |t: Option<f64>, frontier: f64, class: Class| match t {
                Some(t) => {
                    if best.is_none_or(|b| (t, class) < b) {
                        best = Some((t, class));
                    }
                }
                None => {
                    if (frontier, class) < bound {
                        bound = (frontier, class);
                    }
                }
            };
            if let StageOut::Sink(sink) = &self.out {
                consider(
                    sink.steps.front().map(|m| m.t),
                    sink.steps.watermark(),
                    Class::Step,
                );
                for (k, d) in sink.drops.iter().enumerate() {
                    consider(d.front().map(|m| m.t), d.watermark(), Class::Drop(k));
                }
            }
            consider(self.busy_until, f64::INFINITY, Class::Completion);
            consider(
                self.input.front().map(|m| m.t),
                self.input.watermark(),
                Class::Arrival,
            );

            let Some((t, class)) = best else {
                if bound.0.is_infinite() && self.busy_until.is_none() {
                    // Every channel exhausted, nothing in flight.
                    return Drained::Finished;
                }
                return if worked {
                    Drained::Worked
                } else {
                    Drained::Idle
                };
            };
            // A message at exactly `bound.0` may still arrive, but it
            // would order at `bound` — admit anything strictly before.
            if (t, class) >= bound {
                return if worked {
                    Drained::Worked
                } else {
                    Drained::Idle
                };
            }

            debug_assert!(t >= self.now, "LP clock must be monotone");
            self.now = t;
            match class {
                Class::Step => {
                    let sink = self.sink_mut();
                    let m = sink.steps.pop().expect("step head");
                    sink.record_step(m);
                }
                Class::Drop(k) => {
                    let sink = self.sink_mut();
                    let m = sink.drops[k].pop().expect("drop head");
                    sink.record_drop(m);
                }
                Class::Completion => self.complete(t),
                Class::Arrival => {
                    let m = self.input.pop().expect("arrival head");
                    self.queue.put(Time::secs(t), m.bytes);
                    self.try_start(t);
                }
            }
            worked = true;
            self.work += 1;
            self.events_since_flush += 1;
            if self.events_since_flush >= self.quantum
                || self.now - self.last_pub_now >= self.stale_cap
            {
                // Sink stages have no output link; this only resets the
                // quantum counters (drops are accounted inline).
                self.publish();
            }
        }
    }

    fn sink_mut(&mut self) -> &mut SinkState {
        match &mut self.out {
            StageOut::Sink(s) => s,
            StageOut::Link(_) => unreachable!("sink accounting on a non-last stage"),
        }
    }

    /// Completion event (mirrors `engine::World::finish`): retry-policy
    /// outage check, then the job's output departs — always deliverable
    /// (unbounded queues), either downstream or to the sink.
    fn complete(&mut self, t: f64) {
        self.completions += 1;
        if self.try_retry(t) {
            return;
        }
        if let Some(fr) = &self.faults {
            // Block-policy gating: curtailed completions land *at*
            // freeze-window ends, never strictly inside one.
            debug_assert!(
                fr.retry_params(self.i).is_some() || fr.drops(self.i) || !fr.in_outage(self.i, t),
                "Block-policy completion inside an outage window"
            );
        }
        self.busy_until = None;
        self.jobs += 1;
        let bytes = self.p.job_out;
        if matches!(self.out, StageOut::Sink(_)) {
            self.sink_deliver(bytes, t);
        } else if let StageOut::Link(tx) = &mut self.out {
            debug_assert!(t >= tx.watermark(), "emission before the published promise");
            tx.send(DataMsg { t, bytes });
        }
        self.try_start(t);
    }

    /// Mirror of `engine::World::try_retry`: a completion strictly
    /// inside an outage window of a Retry-policy stage fails and is
    /// re-run after capped exponential backoff.
    fn try_retry(&mut self, t: f64) -> bool {
        let Some(fr) = &self.faults else { return false };
        let Some((base, cap)) = fr.retry_params(self.i) else {
            return false;
        };
        if !fr.in_outage(self.i, t) {
            self.cur_retry = 0;
            return false;
        }
        let k = self.cur_retry.min(30);
        let backoff = (base * (1u64 << k) as f64).min(cap);
        self.cur_retry = self.cur_retry.saturating_add(1);
        self.retries += 1;
        let exec = self.last_exec;
        self.busy_time += exec;
        let span = backoff + fr.extend(self.i, t + backoff, exec);
        self.busy_until = Some(t + span);
        true
    }

    /// Mirror of `engine::World::try_start` under unbounded queues: the
    /// Drop-policy outage loop, then start one job if idle and a full
    /// job is queued.
    fn try_start(&mut self, t: f64) {
        while let Some(fr) = &self.faults {
            if !(fr.drops(self.i) && fr.in_outage(self.i, t)) {
                break;
            }
            if self.busy_until.is_some() || !self.queue.can_get(self.p.job_in) {
                break;
            }
            self.queue.get(Time::secs(t), self.p.job_in);
            let dn = self.p.job_in as f64 * self.p.norm_in;
            self.dropped_jobs += 1;
            self.dropped_norm += dn;
            match (&mut self.drop_tx, &mut self.out) {
                (Some(tx), _) => tx.send(DropMsg { t, norm: dn }),
                (None, StageOut::Sink(sink)) => {
                    // Last stage: its own drops are already in merged
                    // order — account directly.
                    sink.dropped_norm += dn;
                    sink.in_system.add(Time::secs(t), -dn);
                }
                (None, StageOut::Link(_)) => {
                    unreachable!("Drop-policy stage built without a drop channel")
                }
            }
        }
        if self.busy_until.is_some() || !self.queue.can_get(self.p.job_in) {
            return;
        }
        self.queue.get(Time::secs(t), self.p.job_in);
        let startup = if self.started {
            0.0
        } else {
            self.started = true;
            self.p.startup
        };
        let dist = match self.model {
            ServiceModel::Uniform => Dist::Uniform {
                lo: self.p.exec_min,
                hi: self.p.exec_max,
            },
            ServiceModel::Exponential => Dist::Exponential {
                mean: self.p.exec_avg,
            },
            ServiceModel::Deterministic => unreachable!("routed to the det engine"),
        };
        let exec = dist.sample(&mut self.rng);
        self.busy_time += exec;
        let span = match &self.faults {
            None => startup + exec,
            Some(fr) => {
                self.last_exec = exec;
                fr.extend(self.i, t, startup + exec)
            }
        };
        self.busy_until = Some(t + span);
    }

    /// Mirror of `engine::World::deliver_to_sink`.
    fn sink_deliver(&mut self, local_bytes: u64, t: f64) {
        let sink = match &mut self.out {
            StageOut::Sink(s) => s,
            StageOut::Link(_) => unreachable!(),
        };
        let out_norm = local_bytes as f64 * sink.sink_norm;
        sink.cum_out += out_norm;
        sink.in_system.add(Time::secs(t), -out_norm);
        sink.t_last_out = t;

        let level = (sink.cum_out + sink.dropped_norm).min(sink.cum_in);
        debug_assert!(!sink.input_steps.is_empty());
        while sink.delay_cursor + 1 < sink.input_steps.len()
            && sink.input_steps.get(sink.delay_cursor).1 < level - 1e-9
        {
            sink.delay_cursor += 1;
        }
        let t_in = sink.input_steps.get(sink.delay_cursor).0;
        sink.delays.record((t - t_in).max(0.0));

        if sink.trace {
            sink.trace_out.push((t, sink.cum_out));
        } else {
            sink.input_steps.prune_to(sink.delay_cursor);
        }
    }

    /// Publish buffered outputs and the current watermark promise.
    fn publish(&mut self) {
        self.events_since_flush = 0;
        self.last_pub_now = self.now;
        if matches!(self.out, StageOut::Link(_)) {
            let promise = self.promise();
            if let StageOut::Link(tx) = &mut self.out {
                tx.set_watermark(promise);
                tx.flush();
            }
        }
        if let Some(tx) = &mut self.drop_tx {
            // Future drops happen at future event times of this LP.
            let lbts = self
                .busy_until
                .unwrap_or(f64::INFINITY)
                .min(self.input.front().map_or(self.input.watermark(), |m| m.t));
            tx.set_watermark(lbts);
            tx.flush();
        }
    }

    /// The NC-derived lookahead promise: a sound lower bound on this
    /// stage's next emission time (DESIGN.md §12).
    ///
    /// Busy: the armed completion. Idle: walk the bytes still missing
    /// for one job through the concrete inbox, then charge unseen
    /// upstream blocks at the pacing floor (`k`-th future block ≥
    /// `W_up + (k−1)·g_up`, with blocks of at most `up_block` bytes —
    /// both bounds err on the sound side), then add startup (first job
    /// only) + the service floor `b_n/R_max,n`, all pushed through the
    /// fault freeze windows so an open outage is never jumped.
    fn promise(&self) -> f64 {
        if let Some(tc) = self.busy_until {
            return tc;
        }
        let have = self.queue.level();
        let t_start = if have >= self.p.job_in {
            self.now
        } else {
            let mut need = self.p.job_in - have;
            let mut covered = None;
            for m in self.input.buffered() {
                if m.bytes >= need {
                    covered = Some(m.t);
                    break;
                }
                need -= m.bytes;
            }
            match covered {
                Some(t) => t.max(self.now),
                None if self.input.exhausted() => return f64::INFINITY,
                None => {
                    let w = self.input.watermark().max(self.now);
                    let k = need.div_ceil(self.up_block).max(1);
                    w + (k - 1) as f64 * self.up_min_gap
                }
            }
        };
        let startup = if self.started { 0.0 } else { self.p.startup };
        let dur = startup + self.exec_floor;
        match &self.faults {
            None => t_start + dur,
            Some(fr) => t_start + fr.extend(self.i, t_start, dur),
        }
    }

    fn finish_lp(&mut self) {
        if let StageOut::Link(tx) = &mut self.out {
            tx.close();
        }
        if let Some(tx) = &mut self.drop_tx {
            tx.close();
        }
        self.done = true;
    }
}

impl SinkState {
    fn record_step(&mut self, m: StepMsg) {
        let delta = m.cum_in - self.cum_in;
        self.cum_in = m.cum_in;
        self.in_system.add(Time::secs(m.t), delta);
        self.input_steps.push((m.t, m.cum_in));
    }

    fn record_drop(&mut self, m: DropMsg) {
        self.dropped_norm += m.norm;
        self.in_system.add(Time::secs(m.t), -m.norm);
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

enum Lp {
    Source(Box<SourceLp>),
    Stage(Box<StageLp>),
}

impl Lp {
    fn run(&mut self) -> Run {
        match self {
            Lp::Source(s) => s.run(),
            Lp::Stage(s) => s.run(),
        }
    }

    /// Events this LP has processed so far (the adaptive-sharding load
    /// measure; scheduling-independent by worker-count determinism).
    fn work(&self) -> u64 {
        match self {
            Lp::Source(s) => s.emissions,
            Lp::Stage(s) => s.work,
        }
    }

    fn done(&self) -> bool {
        match self {
            Lp::Source(s) => s.done,
            Lp::Stage(s) => s.done,
        }
    }

    /// One-line state summary for the stalled-engine panic message.
    fn stall_state(&self) -> String {
        match self {
            Lp::Source(s) => format!("source: remaining={} t_next={}", s.remaining, s.t_next),
            Lp::Stage(s) => format!(
                "stage {}: now={} busy={:?} level={} input(front={:?} wm={} exhausted={})",
                s.i,
                s.now,
                s.busy_until,
                s.queue.level(),
                s.input.front().map(|m| m.t),
                s.input.watermark(),
                s.input.exhausted(),
            ),
        }
    }
}

/// Shared warmup-window control for adaptive sharding. Workers add
/// their per-pass processed-event deltas to `counter`; whoever makes
/// the total cross `target` raises `stop` and bumps the gate so parked
/// peers wake, observe the flag at their loop top, and return. LPs
/// always publish before their `run` returns, so stopping between
/// passes leaves every channel consistent for the next phase.
struct Warmup {
    stop: AtomicBool,
    counter: AtomicU64,
    target: u64,
}

/// Run `lps` on the calling thread, parking on `gate` when every LP is
/// blocked; returns when all LPs finish, or (with `warmup`) as soon as
/// the fleet-wide warmup window closes. `solo` workers have nobody to
/// wait for: a fully blocked pass is a protocol bug, not a race.
fn run_worker(lps: &mut [Lp], gate: &ProgressGate, solo: bool, warmup: Option<&Warmup>) {
    loop {
        if let Some(w) = warmup {
            if w.stop.load(Ordering::Relaxed) {
                return;
            }
        }
        let seen = gate.generation();
        let before: u64 = match warmup {
            Some(_) => lps.iter().map(Lp::work).sum(),
            None => 0,
        };
        let mut progress = false;
        let mut all_done = true;
        for lp in lps.iter_mut() {
            match lp.run() {
                Run::Progress => {
                    progress = true;
                    all_done = false;
                }
                Run::Blocked => all_done = false,
                Run::Finished => {}
            }
        }
        if let Some(w) = warmup {
            let delta = lps.iter().map(Lp::work).sum::<u64>() - before;
            let crossed =
                delta > 0 && w.counter.fetch_add(delta, Ordering::Relaxed) + delta >= w.target;
            if crossed || all_done {
                // Window closed (or this shard finished outright, which
                // makes the static partition stale): end the phase.
                w.stop.store(true, Ordering::Relaxed);
                gate.bump();
                return;
            }
        }
        if all_done {
            return;
        }
        if !progress {
            // A solo worker runs the feed-forward LP chain in order, so
            // every publication reaches its consumers within the pass:
            // a pass that processed nothing will never process anything.
            assert!(!solo, "parallel engine stalled:\n{}", {
                let dump: Vec<String> = lps.iter().map(Lp::stall_state).collect();
                dump.join("\n")
            });
            gate.wait_past(seen);
        }
    }
}

/// Split `lps` into up to `workers` contiguous shards with balanced
/// `weight` (thread assignment only — results are shard-independent).
fn partition_by(lps: Vec<Lp>, workers: usize, weight: impl Fn(&Lp) -> f64) -> Vec<Vec<Lp>> {
    let total: f64 = lps.iter().map(&weight).sum();
    let target = total / workers as f64;
    let mut shards: Vec<Vec<Lp>> = Vec::with_capacity(workers);
    let mut cur: Vec<Lp> = Vec::new();
    let mut acc = 0.0;
    for lp in lps {
        acc += weight(&lp);
        cur.push(lp);
        if acc >= target * (shards.len() + 1) as f64 && shards.len() + 1 < workers {
            shards.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        shards.push(cur);
    }
    shards
}

/// Run each shard on its own scoped thread; returns the LPs in their
/// original chain order (shards are contiguous, joins are in order).
fn run_shards(shards: Vec<Vec<Lp>>, gate: &ProgressGate, warmup: Option<&Warmup>) -> Vec<Lp> {
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|mut shard| {
                s.spawn(move || {
                    run_worker(&mut shard, gate, false, warmup);
                    shard
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("worker panicked"));
        }
        all
    })
}

/// Stage-parallel simulation. Semantically mirrors
/// [`crate::engine::simulate_in`] for unbounded-queue stochastic
/// configurations; results are bit-identical across `workers` values.
pub(crate) fn simulate_par(pipeline: &Pipeline, config: &SimConfig, workers: usize) -> SimResult {
    debug_assert!(par_fallback(config).is_none());
    pipeline
        .validate()
        .unwrap_or_else(|e| panic!("simulate: invalid pipeline: {e}"));
    let mut params = derive_params(pipeline);
    let n = params.len();
    let faults = config.faults.as_ref().and_then(|fs| {
        fs.validate(n)
            .unwrap_or_else(|e| panic!("simulate: invalid fault schedule: {e}"));
        FaultRt::build(fs, n).map(Arc::new)
    });

    // NC lookahead table (fault-free): cross-check that the simulator's
    // derived per-job floor is exactly the model's b_n/R_max,n before
    // the fault derate scales it.
    let lookaheads = pipeline.stage_lookaheads();
    for (la, p) in lookaheads.iter().zip(&params) {
        debug_assert!(
            (la.min_job_time.to_f64() - p.exec_min).abs() <= 1e-9 * p.exec_min.abs().max(1.0),
            "stage '{}': NC min_job_time {} != derived exec_min {}",
            p.name,
            la.min_job_time.to_f64(),
            p.exec_min
        );
    }
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

    // The per-emission pacing floor of each producer, as seen by its
    // consumer: the NC b/R_max service floor (zero under Exponential,
    // whose distribution has no positive floor), fault-derated with the
    // execution parameters above.
    let gap_of = |p: &NodeParams| match config.service_model {
        ServiceModel::Uniform => p.exec_min,
        ServiceModel::Exponential => 0.0,
        ServiceModel::Deterministic => unreachable!(),
    };

    let quantum = publish_quantum();
    let gate = ProgressGate::new();
    let (mut src_data_tx, src_data_rx) = link::<DataMsg>(LINK_CAP, &gate);
    let (mut steps_tx, steps_rx) = link::<StepMsg>(LINK_CAP, &gate);
    src_data_tx.set_batch(quantum as usize);
    steps_tx.set_batch(quantum as usize);

    // Inter-stage data links and the Drop-policy stages' drop channels
    // to the sink (the last stage accounts its own drops inline).
    let mut inputs: Vec<LinkRx<DataMsg>> = vec![src_data_rx];
    let mut out_txs: Vec<Option<LinkTx<DataMsg>>> = Vec::with_capacity(n);
    let mut drop_txs: Vec<Option<LinkTx<DropMsg>>> = Vec::with_capacity(n);
    let mut drop_rxs: Vec<LinkRx<DropMsg>> = Vec::new();
    for i in 0..n {
        if i + 1 < n {
            let (mut tx, rx) = link::<DataMsg>(LINK_CAP, &gate);
            tx.set_batch(quantum as usize);
            out_txs.push(Some(tx));
            inputs.push(rx);
            if faults.as_ref().is_some_and(|fr| fr.drops(i)) {
                let (mut tx, rx) = link::<DropMsg>(LINK_CAP, &gate);
                tx.set_batch(quantum as usize);
                drop_txs.push(Some(tx));
                drop_rxs.push(rx);
            } else {
                drop_txs.push(None);
            }
        } else {
            out_txs.push(None);
            drop_txs.push(None);
        }
    }

    let src_interval = src_chunk as f64 / src_rate;
    let mut lps: Vec<Lp> = Vec::with_capacity(n + 1);
    lps.push(Lp::Source(Box::new(SourceLp {
        remaining: config.total_input,
        chunk: src_chunk,
        interval: src_interval,
        t_next: 0.0,
        t_last: 0.0,
        cum_in: 0.0,
        emissions: 0,
        data: src_data_tx,
        steps: steps_tx,
        done: false,
    })));
    let mut steps_rx = Some(steps_rx);
    let mut drop_rxs = Some(drop_rxs);
    for (i, (input, (out_tx, drop_tx))) in inputs
        .into_iter()
        .zip(out_txs.into_iter().zip(drop_txs))
        .enumerate()
    {
        let p = params[i].clone();
        let out = match out_tx {
            Some(tx) => StageOut::Link(tx),
            None => StageOut::Sink(Box::new(SinkState {
                steps: steps_rx.take().expect("one sink"),
                drops: drop_rxs.take().expect("one sink"),
                sink_norm,
                cum_in: 0.0,
                cum_out: 0.0,
                dropped_norm: 0.0,
                in_system: TimeWeighted::new(Time::ZERO, 0.0),
                delays: StreamingTally::new(),
                input_steps: StepRing::new(),
                delay_cursor: 0,
                trace: config.trace,
                trace_out: Vec::new(),
                t_last_out: 0.0,
            })),
        };
        let (up_block, up_min_gap) = if i == 0 {
            (src_chunk, src_interval)
        } else {
            (params[i - 1].job_out, gap_of(&params[i - 1]))
        };
        let exec_floor = gap_of(&p);
        // Staleness cap: `quantum` NC lookahead windows of simulated
        // time (infinite when the pacing floor is zero — the
        // event-count quantum then bounds the batch instead).
        let window = exec_floor + up_min_gap;
        let stale_cap = if window > 0.0 {
            quantum as f64 * window
        } else {
            f64::INFINITY
        };
        lps.push(Lp::Stage(Box::new(StageLp {
            i,
            model: config.service_model,
            faults: faults.clone(),
            rng: stage_rng(config.seed, i as u64 + 1),
            input,
            out,
            drop_tx,
            up_block,
            up_min_gap,
            exec_floor,
            queue: ByteQueue::unbounded(Time::ZERO),
            busy_until: None,
            started: false,
            busy_time: 0.0,
            jobs: 0,
            completions: 0,
            cur_retry: 0,
            retries: 0,
            last_exec: 0.0,
            dropped_jobs: 0,
            dropped_norm: 0.0,
            now: 0.0,
            events_since_flush: 0,
            quantum,
            stale_cap,
            last_pub_now: 0.0,
            work: 0,
            done: false,
            p,
        })));
    }

    // Contiguous worker shards. With one worker (or fewer workers than
    // LPs after clamping) LPs are merged onto threads round-robin-free:
    // a 1-worker run is the whole chain on the calling thread, paying
    // only the amortized atomic traffic above sequential cost. With
    // more workers, shard first by *expected* per-LP event counts, run
    // a warmup window, then re-shard by the *measured* counts (thread
    // assignment only — results are shard-independent, which
    // `prop_par.rs` pins with repartitioning active).
    let workers = workers.clamp(1, lps.len());
    if workers == 1 {
        run_worker(&mut lps, &gate, true, None);
    } else {
        let expected = |lp: &Lp| -> f64 {
            match lp {
                Lp::Source(_) => (config.total_input as f64 / src_chunk as f64).max(1.0),
                Lp::Stage(st) => {
                    let local_in = config.total_input as f64 / st.p.norm_in;
                    (local_in / st.p.job_in as f64).max(1.0)
                }
            }
        };
        // Warmup window: 1/8 of the expected events, clamped so tiny
        // runs barely notice it and huge runs don't over-commit to the
        // static guess.
        let target = ((lps.iter().map(expected).sum::<f64>() / 8.0) as u64).clamp(256, 500_000);
        let warmup = Warmup {
            stop: AtomicBool::new(false),
            counter: AtomicU64::new(0),
            target,
        };
        lps = run_shards(partition_by(lps, workers, expected), &gate, Some(&warmup));
        let measured = |lp: &Lp| -> f64 {
            if lp.done() {
                0.0
            } else {
                (lp.work() as f64).max(1.0)
            }
        };
        lps = run_shards(partition_by(lps, workers, measured), &gate, None);
    }

    assemble_par(lps, config)
}

/// Join the finished LPs into a [`SimResult`] (mirrors
/// `engine::assemble`; per-run quantities come from the single LP that
/// owns them, per-node rows from each stage LP).
fn assemble_par(lps: Vec<Lp>, config: &SimConfig) -> SimResult {
    let mut horizon = 0.0f64;
    let mut events = 0u64;
    let mut dropped_jobs = 0u64;
    let mut dropped_norm = 0.0f64;
    let mut retries = 0u64;
    let mut sink: Option<Box<SinkState>> = None;
    let mut stages: Vec<Box<StageLp>> = Vec::new();
    for lp in lps {
        match lp {
            Lp::Source(s) => {
                events += s.emissions;
                horizon = horizon.max(s.t_last);
            }
            Lp::Stage(mut st) => {
                events += st.completions;
                dropped_jobs += st.dropped_jobs;
                dropped_norm += st.dropped_norm;
                retries += st.retries;
                horizon = horizon.max(st.now);
                if matches!(st.out, StageOut::Sink(_)) {
                    // Take the sink stats out, leaving a stub link.
                    let stub = link::<DataMsg>(1, &ProgressGate::new()).0;
                    if let StageOut::Sink(s) = std::mem::replace(&mut st.out, StageOut::Link(stub))
                    {
                        sink = Some(s);
                    }
                }
                stages.push(st);
            }
        }
    }
    let sink = sink.expect("last stage owns the sink");

    let bytes_out = sink.cum_out;
    let makespan = sink.t_last_out;
    let throughput = if makespan > 0.0 {
        bytes_out / makespan
    } else {
        0.0
    };
    let horizon_s = horizon.max(f64::MIN_POSITIVE);
    let t_end = Time::secs(horizon_s);
    let residual: f64 = stages
        .iter()
        .map(|st| st.queue.level() as f64 * st.p.norm_in)
        .sum();
    let per_queue_peak = stages
        .iter()
        .map(|st| (st.p.name.clone(), st.queue.peak() * st.p.norm_in))
        .collect();
    let per_node = stages
        .iter()
        .map(|st| crate::result::NodeStats {
            name: st.p.name.clone(),
            utilization: (st.busy_time / horizon_s).min(1.0),
            jobs: st.jobs,
            bytes_in: st.jobs * st.p.job_in,
            avg_queue: st.queue.avg_occupancy(t_end) * st.p.norm_in,
        })
        .collect();
    SimResult {
        bytes_out,
        makespan,
        throughput,
        steady_throughput: steady_slope(&sink.trace_out).unwrap_or(throughput),
        delay_min: sink.delays.min().unwrap_or(0.0),
        delay_max: sink.delays.max().unwrap_or(0.0),
        delay_mean: sink.delays.mean().unwrap_or(0.0),
        peak_backlog: sink.in_system.max(),
        per_queue_peak,
        residual,
        trace_in: if config.trace {
            sink.input_steps.iter().collect()
        } else {
            Vec::new()
        },
        trace_out: sink.trace_out,
        per_node,
        events,
        dropped_jobs,
        dropped_bytes: dropped_norm,
        retries,
    }
}
