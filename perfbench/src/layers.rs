//! The traced run (`--trace 1`): the workloads' inputs replayed through
//! nested harnesses built only from public functions. A layer's self
//! time is its harness's time minus the harnesses inside it. Spans are
//! stamped around the calls into each layer — once per 256-frame
//! quantum for calls under a microsecond — kept in memory and written to
//! `<out-dir>/trace-<workload>-<part>-seed<n>.csv` when the run ends.
//!
//! Either workload's traced run drives every layer, so every per-layer
//! metric is measured in every traced run. The service part replays the
//! light-load inputs, then the saturation inputs; its harnesses,
//! innermost first: `proto` alone, the `engine` alone (in
//! `replay_inproc`'s order), the rings without sockets (`replay::drive`
//! on a `ShardPool`, or an open-loop feeder at light load), and the
//! socket path. The batch part runs the sweep engine's harnesses (the
//! per-point pipeline calls of one worker, then `nc_sweep::run`), then
//! the simulator's (one replica on one thread, then
//! `tailload::replicate`).

use std::hint::black_box;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nc_admit::{ClassId, EngineStats, Placement, TenantId};
use nc_bench::tailload::{self, TailObs};
use nc_core::cache::CacheStats;
use nc_core::pipeline::ModelCache;
use nc_des::link::take_publish_count;
use nc_serve::fleet;
use nc_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, DecisionFrame, EventKind,
    RequestFrame, ResponseFrame,
};
use nc_serve::replay::{self, replay_inproc, Batching};
use nc_serve::ShardPool;
use nc_streamsim::{simulate_in, SimArena};
use nc_sweep::SweepSpec;

use crate::serve::{closed_loop, open_loop, start, Inputs, Load, Oracle, Wire, QUANTUM};
use crate::sim::{bad_replicas, worst_case_bounds, FANOUT, REPLICAS};
use crate::stats::{median, quantile};
use crate::sys;
use crate::trace::{Tracer, ROOT};
use crate::{Args, Report, Workload};

/// Cost of one `Instant::now()`, ns: subtracted from every per-call
/// stamp pair.
fn stamp_cost_ns() -> u64 {
    let n = 200_000u32;
    let t = Instant::now();
    for _ in 0..n {
        black_box(Instant::now());
    }
    (t.elapsed().as_nanos() / u128::from(n)) as u64
}

fn since(t: Instant, cost: u64) -> u64 {
    (t.elapsed().as_nanos() as u64).saturating_sub(cost)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn trace_path(args: &Args, part: &str) -> PathBuf {
    args.out_dir.join(format!(
        "trace-{}-{part}-seed{}.csv",
        args.workload.name(),
        args.seed
    ))
}

fn finish(args: &Args, part: &str, tr: &Tracer, report: &mut Report) -> io::Result<()> {
    let path = trace_path(args, part);
    tr.write(&path)?;
    report.note(format!("{} spans written to {}", tr.len(), path.display()));
    Ok(())
}

fn tenant_of(frame: &RequestFrame) -> u32 {
    match frame {
        RequestFrame::Request(r) => r.tenant,
        RequestFrame::Reconfigure(r) => r.tenant,
        RequestFrame::WhatIf(w) => w.tenant,
        RequestFrame::Shutdown => 0,
    }
}

// ---------------------------------------------------------------- serve

/// The wire codec alone, per op (one request and its answer).
struct ProtoOut {
    encode_ns: f64,
    decode_ns: f64,
    bytes_per_op: f64,
    failed: u64,
}

fn proto_harness(frames: &[RequestFrame], answers: &[ResponseFrame], tr: &mut Tracer) -> ProtoOut {
    let root = tr.open("proto", ROOT, 0);
    let (mut enc, mut dec, mut bytes, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    for (q, (fs, rs)) in frames
        .chunks(QUANTUM)
        .zip(answers.chunks(QUANTUM))
        .enumerate()
    {
        req.clear();
        resp.clear();
        let a = tr.now();
        for f in fs {
            encode_request(&mut req, f);
        }
        for r in rs {
            encode_response(&mut resp, r);
        }
        let b = tr.now();
        let (mut at, mut n) = (0, 0);
        while let Ok(Some((f, used))) = decode_request(&req[at..]) {
            black_box(f);
            at += used;
            n += 1;
        }
        at = 0;
        while let Ok(Some((r, used))) = decode_response(&resp[at..]) {
            black_box(r);
            at += used;
            n += 1;
        }
        let c = tr.now();
        tr.record("proto.encode", root, q as u64, a, b);
        tr.record("proto.decode", root, q as u64, b, c);
        enc += b - a;
        dec += c - b;
        bytes += (req.len() + resp.len()) as u64;
        failed += (fs.len() + rs.len()).abs_diff(n) as u64;
    }
    tr.close(root);
    let ops = frames.len().max(1) as f64;
    ProtoOut {
        encode_ns: enc as f64 / ops,
        decode_ns: dec as f64 / ops,
        bytes_per_op: bytes as f64 / ops,
        failed,
    }
}

/// The admission engine alone, driven in `replay_inproc`'s order.
/// Counts are exact: they repeat across runs at one seed.
#[derive(Debug, PartialEq)]
struct EngineCounts {
    /// Outcome counters over the measured frames.
    stats: EngineStats,
    /// Resident flows, all tenants, when measuring starts.
    resident: u64,
    cache: CacheStats,
    prefix_entries: usize,
    evicted: u64,
}

struct EngineOut {
    counts: EngineCounts,
    /// Quantum spans over the measured frames, ns.
    total_ns: u64,
    decide_ns: f64,
    depart_ns: f64,
    reconfig_ns: f64,
}

/// With `stamps`, each engine call is timed on its own (less the
/// stamp cost); without, only each quantum is.
fn engine_harness(inp: &Inputs, stamps: bool, cost: u64, tr: &mut Tracer) -> EngineOut {
    let root = tr.open(if stamps { "engine" } else { "engine.plain" }, ROOT, 0);
    let build = tr.open("engine.build", root, 0);
    let shard = fleet::build_shard(&inp.cfg, &(0..inp.cfg.tenants).collect::<Vec<_>>());
    tr.close(build);
    let mut engine = shard.engine;
    let ids = shard.classes;
    let tids: Vec<TenantId> = shard.tenants.iter().map(|&(_, t)| t).collect();
    let mut admitted: Vec<Vec<Option<(ClassId, usize, Placement)>>> =
        vec![Vec::new(); inp.cfg.tenants];
    let mut before = EngineStats::default();
    let mut resident = 0u64;
    let (mut decide, mut depart, mut reconfig) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
    let (mut evicted, mut total_ns) = (0u64, 0u64);
    let mut measuring = false;
    for (q, lo) in (0..inp.end).step_by(QUANTUM).enumerate() {
        if !measuring && lo >= inp.warmup {
            measuring = true;
            before = engine.stats();
            resident = tids
                .iter()
                .map(|&t| engine.resident(t).map_or(0, |(l, r)| l + r))
                .sum();
        }
        let a = tr.now();
        for frame in &inp.frames[lo..(lo + QUANTUM).min(inp.end)] {
            let (slot, ns) = match *frame {
                RequestFrame::Request(r) => {
                    let tid = tids[r.tenant as usize];
                    let table = &mut admitted[r.tenant as usize];
                    match r.event {
                        EventKind::Arrive => {
                            let class = ids[r.class as usize];
                            let t0 = stamps.then(Instant::now);
                            let d = engine
                                .decide(tid, class, r.attach as usize)
                                .expect("trace stays in range");
                            let ns = t0.map_or(0, |t| since(t, cost));
                            if table.len() <= r.arrive_ix as usize {
                                table.resize(r.arrive_ix as usize + 1, None);
                            }
                            table[r.arrive_ix as usize] =
                                d.placement().map(|p| (class, r.attach as usize, p));
                            (&mut decide, ns)
                        }
                        EventKind::Depart => {
                            match table.get_mut(r.arrive_ix as usize).and_then(Option::take) {
                                Some((c, attach, p)) => {
                                    let t0 = stamps.then(Instant::now);
                                    engine
                                        .depart(tid, c, attach, p)
                                        .expect("resident flow departs cleanly");
                                    (&mut depart, t0.map_or(0, |t| since(t, cost)))
                                }
                                None => continue,
                            }
                        }
                    }
                }
                RequestFrame::Reconfigure(rc) => {
                    let node = fleet::reconfig_node(
                        rc.tenant as usize,
                        rc.stage as usize,
                        rc.tier as usize,
                    );
                    let t0 = stamps.then(Instant::now);
                    let res =
                        engine.reconfigure_stage(tids[rc.tenant as usize], rc.stage as usize, node);
                    let ns = t0.map_or(0, |t| since(t, cost));
                    if measuring {
                        evicted += res.map_or(0, |e| e as u64);
                    }
                    (&mut reconfig, ns)
                }
                RequestFrame::WhatIf(_) | RequestFrame::Shutdown => continue,
            };
            if measuring {
                slot.0 += ns;
                slot.1 += 1;
            }
        }
        let b = tr.now();
        if measuring {
            tr.record("engine.quantum", root, q as u64, a, b);
            total_ns += b - a;
        }
    }
    tr.close(root);
    let after = engine.stats();
    let per = |(ns, n): (u64, u64)| ratio(ns, n);
    EngineOut {
        counts: EngineCounts {
            stats: EngineStats {
                decisions: after.decisions - before.decisions,
                admitted: after.admitted - before.admitted,
                admitted_remote: after.admitted_remote - before.admitted_remote,
                rejected: after.rejected - before.rejected,
                cheap_admits: after.cheap_admits - before.cheap_admits,
                tight_evals: after.tight_evals - before.tight_evals,
                prefilter_rejects: after.prefilter_rejects - before.prefilter_rejects,
            },
            resident,
            cache: engine.cache_stats(),
            prefix_entries: engine.cache_prefix_entries(),
            evicted,
        },
        total_ns,
        decide_ns: per(decide),
        depart_ns: per(depart),
        reconfig_ns: per(reconfig),
    }
}

/// The oracle's answer to every frame of `frames`, in order.
fn answers(frames: &[RequestFrame], replay: &nc_serve::ServiceReplay) -> Vec<ResponseFrame> {
    frames
        .iter()
        .filter_map(|f| match f {
            RequestFrame::Request(r) => {
                Some(ResponseFrame::Decision(replay.decisions[r.seq as usize]))
            }
            RequestFrame::Reconfigure(rc) => Some(ResponseFrame::Reconfigured(
                replay.reconfigs[rc.seq as usize],
            )),
            _ => None,
        })
        .collect()
}

fn split(
    responses: Vec<ResponseFrame>,
) -> (Vec<DecisionFrame>, Vec<nc_serve::proto::ReconfiguredFrame>) {
    let (mut d, mut r) = (Vec::new(), Vec::new());
    for frame in responses {
        match frame {
            ResponseFrame::Decision(x) => d.push(x),
            ResponseFrame::Reconfigured(x) => r.push(x),
            ResponseFrame::WhatIf(_) => {}
        }
    }
    (d, r)
}

/// The rings without sockets at the socket run's open-loop schedule:
/// each frame published alone at its due time and timed until its
/// answer is drained. Returns the latencies (ns), the answers, and ring
/// publications.
fn ring_open_loop(
    pool: &mut ShardPool,
    inp: &Inputs,
    tr: &mut Tracer,
) -> (Vec<u64>, Vec<ResponseFrame>, u64) {
    sys::tight_timer_slack();
    let frames = &inp.frames[inp.warmup..inp.end];
    let at = |slot: usize| Duration::from_nanos(inp.schedule[slot]);
    let t0 = Instant::now() + Duration::from_millis(1);
    let base = tr.stamp(t0);
    let mut due_of_seq = std::collections::HashMap::new();
    let (mut lat, mut out, mut envs) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0usize;
    let mut last_progress = Instant::now();
    take_publish_count();
    while out.len() < frames.len() {
        assert!(
            last_progress.elapsed() < Duration::from_secs(20),
            "shard stopped answering at {}/{next}",
            out.len()
        );
        if next < frames.len() && Instant::now() >= t0 + at(next) {
            let frame = frames[next];
            let shard = pool.route(tenant_of(&frame));
            if !pool.backlogged(shard) {
                let key = match frame {
                    RequestFrame::Reconfigure(rc) => (true, rc.seq),
                    RequestFrame::Request(r) => (false, r.seq),
                    _ => unreachable!("serve inputs hold engine frames only"),
                };
                due_of_seq.insert(key, next);
                pool.send(shard, 0, frame);
                pool.flush();
                next += 1;
                last_progress = Instant::now();
            }
        }
        if pool.drain(&mut envs) {
            let t = Instant::now();
            last_progress = t;
            for env in envs.drain(..) {
                let key = match env.frame {
                    ResponseFrame::Reconfigured(rc) => (true, rc.seq),
                    ResponseFrame::Decision(d) => (false, d.seq),
                    ResponseFrame::WhatIf(_) => continue,
                };
                if let Some(&slot) = due_of_seq.get(&key) {
                    let d = t.saturating_duration_since(t0 + at(slot)).as_nanos() as u64;
                    let start = base + inp.schedule[slot];
                    tr.record("shard.request", ROOT, slot as u64, start, start + d);
                    lat.push(d);
                }
                out.push(env.frame);
            }
            continue;
        }
        // Sleep while nothing is in flight and the next frame is not
        // yet due; spin otherwise.
        if out.len() == next && next < frames.len() {
            let wake = (t0 + at(next)).checked_sub(Duration::from_micros(50));
            if let Some(wake) = wake {
                let now = Instant::now();
                if wake > now {
                    std::thread::sleep(wake - now);
                }
            }
        } else {
            std::hint::spin_loop();
        }
    }
    (lat, out, take_publish_count())
}

/// The traced run of either workload. The other workload's part runs
/// first over a quarter of `--seconds`, then the workload's own over all
/// of it, so the metrics both parts set (the `cache` read ratios and
/// `trace.overhead_frac`) are the workload's own.
pub fn traced(args: &Args, report: &mut Report) -> io::Result<()> {
    let (own, other) = (args.seconds, args.seconds / 4.0);
    match args.workload {
        Workload::ServeSaturate => {
            batch_layers(args, other, report)?;
            serve_layers(args, own, report)
        }
        Workload::SimReplicas => {
            serve_layers(args, other, report)?;
            batch_layers(args, own, report)
        }
    }
}

/// The service's layers: the light-load inputs, then the saturation
/// inputs. The light-load metrics (the open-loop latencies, the
/// reconfiguration costs and the generator's validity) come from the
/// light inputs only.
fn serve_layers(args: &Args, seconds: f64, report: &mut Report) -> io::Result<()> {
    serve_load(args, Load::Light, seconds, report)?;
    serve_load(args, Load::Saturate, seconds, report)
}

/// The batch layers, each half of `seconds`: the sweep engine's, then
/// the simulator's.
fn batch_layers(args: &Args, seconds: f64, report: &mut Report) -> io::Result<()> {
    sweep_layers(args, seconds / 2.0, report)?;
    sim_layers(args, seconds / 2.0, report)
}

fn serve_load(args: &Args, load: Load, seconds: f64, report: &mut Report) -> io::Result<()> {
    let light = load == Load::Light;
    // The light inputs run two open loops; each gets half the time.
    let inp = Inputs::new(load, args.seed, seconds / 2.0);
    let replay = replay_inproc(&inp.cfg, &inp.events);
    let oracle = Oracle::from_replay(&replay);
    let wire = Wire::encode(&inp.frames);
    let measured = &inp.frames[inp.warmup..inp.end];
    let ops = measured.len() as f64;
    let cost = stamp_cost_ns();
    let mut tr = Tracer::new();

    // 1. proto alone.
    let proto = proto_harness(measured, &answers(measured, &replay), &mut tr);
    report.check(measured.len() as u64, proto.failed);
    let proto_ns = proto.encode_ns + proto.decode_ns;

    // 2. The engine alone: once with quantum stamps only (its layer
    // time), once with per-call stamps (the call split); the difference
    // is the tracing overhead.
    let plain = engine_harness(&inp, false, cost, &mut tr);
    let eng = engine_harness(&inp, true, cost, &mut tr);
    let engine_ns = plain.total_ns as f64 / ops;
    let c = &eng.counts;
    let decided = c.stats.decisions;
    report.set("engine.decide_ns", eng.decide_ns);
    report.set("engine.depart_ns", eng.depart_ns);
    report.set("engine.tight_frac", ratio(c.stats.tight_evals, decided));
    report.set(
        "engine.prefilter_frac",
        ratio(c.stats.prefilter_rejects, decided),
    );
    report.set(
        "engine.remote_frac",
        ratio(c.stats.admitted_remote, decided),
    );
    report.set("engine.reject_frac", ratio(c.stats.rejected, decided));
    report.set("engine.resident", c.resident as f64);
    if light {
        report.set("engine.reconfig_us", eng.reconfig_ns / 1e3);
        report.set("cache.evicted", c.evicted as f64);
    }
    report.set("cache.prefix_entries", c.prefix_entries as f64);
    report.set(
        "cache.prefix_hit_frac",
        ratio(
            c.cache.prefix_hits,
            c.cache.prefix_hits + c.cache.prefix_misses,
        ),
    );
    report.set(
        "cache.op_hit_frac",
        ratio(c.cache.op_hits(), c.cache.op_hits() + c.cache.op_misses()),
    );
    report.set("cache.interned", c.cache.interned as f64);
    report.set(
        "trace.overhead_frac",
        eng.total_ns as f64 / plain.total_ns.max(1) as f64 - 1.0,
    );
    report.note(format!(
        "engine counts (exact): {:?}, resident {}, prefix entries {}, evicted {}",
        c.stats, c.resident, c.prefix_entries, c.evicted
    ));
    report.note(format!("engine cache counters (exact): {:?}", c.cache));

    // 3. The rings without sockets.
    let mut pool = ShardPool::new(&inp.cfg, 1, QUANTUM, false);
    let batching = Batching::Batched { quantum: QUANTUM };
    let mut responses = replay::drive(&mut pool, &inp.frames[..inp.warmup], batching);
    let (ring_ns, pubs, ring_open);
    if light {
        let (lat, out, p) = ring_open_loop(&mut pool, &inp, &mut tr);
        ring_ns = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
        pubs = p;
        ring_open = Some(lat);
        responses.extend(out);
    } else {
        take_publish_count();
        let span = tr.open("shard.drive", ROOT, 0);
        responses.extend(replay::drive(&mut pool, measured, batching));
        ring_ns = tr.close(span) as f64 / ops;
        pubs = take_publish_count();
        ring_open = None;
    }
    pool.join();
    let (mut decisions, reconfigs) = split(responses);
    let sent_decisions = inp.end - inp.events.len();
    report.check(
        inp.end as u64,
        oracle.check_decisions(&mut decisions, sent_decisions)
            + oracle.check_reconfigs(&reconfigs, inp.events.len()),
    );
    report.set("shard.self_ns", ring_ns - engine_ns - proto_ns);
    report.set(
        "shard.frames_per_publish",
        ratio(2 * measured.len() as u64, pubs),
    );
    let shard_open_p50 = ring_open.map_or(0.0, |mut l| quantile(&mut l, 0.5) / 1e3);
    if light {
        report.set("shard.open_p50_us", shard_open_p50);
    }

    // 4. The socket path.
    let (srv, mut conn, _) = start(args)?;
    let mut lat = Vec::new();
    let warm = closed_loop(
        &mut conn,
        &wire,
        0,
        inp.warmup,
        inp.warmup,
        Duration::ZERO,
        None,
        &mut lat,
        None,
    )?;
    let mut decisions = warm.decisions;
    if light {
        let mut open = open_loop(&mut conn, &wire, &inp, Some(&mut tr))?;
        decisions.append(&mut open.decisions);
        report.check(
            inp.end as u64,
            oracle.check_decisions(&mut decisions, inp.warmup + open.sent_decisions)
                + oracle.check_reconfigs(&open.reconfigs, open.sent_reconfigs)
                + open.unsent as u64,
        );
        let all: Vec<u64> = open.lat_ns.iter().chain(&open.rc_lat_ns).copied().collect();
        let socket_ns = all.iter().sum::<u64>() as f64 / all.len().max(1) as f64;
        let p50 = quantile(&mut open.lat_ns, 0.5) / 1e3;
        report.set("service.self_ns", socket_ns - ring_ns);
        report.set("service.wake_p50_us", p50 - shard_open_p50);
        report.set("reconfig_p50_us", quantile(&mut open.rc_lat_ns, 0.5) / 1e3);
        report.set("gen.late_p99_us", quantile(&mut open.late_ns, 0.99) / 1e3);
        report.set("gen.outstanding_max", open.outstanding_max as f64);
        report.note(format!(
            "light-load layers are per-request latency: shard = ring open loop - engine - \
             proto, service = socket open loop - ring open loop ({} requests)",
            all.len()
        ));
    } else {
        let mut out = closed_loop(
            &mut conn,
            &wire,
            inp.warmup,
            inp.end,
            inp.warmup,
            Duration::MAX,
            None,
            &mut lat,
            Some(&mut tr),
        )?;
        decisions.append(&mut out.decisions);
        report.check(
            inp.end as u64,
            oracle.check_decisions(&mut decisions, warm.sent + out.sent),
        );
        report.set(
            "service.self_ns",
            out.timed_ns as f64 / out.timed_ops.max(1) as f64 - ring_ns,
        );
        report.note(
            "saturation layers are time per op at saturation: shard = drive - engine - \
             proto, service = socket - drive"
                .into(),
        );
    }
    let errors = srv.shutdown(&mut conn)?;
    let _ = std::fs::remove_file(crate::serve::socket_path(args));
    report.failed += errors;
    report.set(
        "service.protocol_errors",
        report.get("service.protocol_errors") + errors as f64,
    );
    report.set("proto.decode_ns", proto.decode_ns);
    report.set("proto.encode_ns", proto.encode_ns);
    report.set("proto.bytes_per_op", proto.bytes_per_op);
    let part = if light { "light" } else { "saturate" };
    report.note(format!(
        "{part}: {} measured frames after {} warm-up frames; stamp cost {cost} ns",
        measured.len(),
        inp.warmup
    ));
    finish(args, part, &tr, report)
}

// ---------------------------------------------------------------- sweep

/// Per-point pipeline costs of one single-worker surface.
#[derive(Default)]
struct SurfaceOut {
    expand_ns: u64,
    build_ns: u64,
    throughput_ns: u64,
    bounds_ns: u64,
    total_ns: u64,
    points: u64,
    cache: CacheStats,
}

/// One surface on one thread with one model cache, as one `nc_sweep`
/// worker evaluates it: `grid` + `pipeline_at`, `build_model_cached`,
/// `throughput_profile_with`, and the four bounds, per point. With a
/// tracer each call is stamped and recorded; without, only the whole
/// surface is timed.
fn pipeline_surface(spec: &SweepSpec, cost: u64, mut tr: Option<(&mut Tracer, u64)>) -> SurfaceOut {
    let stamps = tr.is_some();
    let mut out = SurfaceOut::default();
    let start = Instant::now();
    let mut cache = ModelCache::new();
    let t = stamps.then(Instant::now);
    let points = nc_sweep::grid(spec);
    out.expand_ns += t.map_or(0, |t| since(t, cost));
    for pt in &points {
        let t0 = stamps.then(Instant::now);
        let p = nc_sweep::pipeline_at(spec, pt);
        let t1 = stamps.then(Instant::now);
        let model = p.build_model_cached(&mut cache);
        let t2 = stamps.then(Instant::now);
        let thr = model.throughput_profile_with(cache.curves(), &spec.horizons);
        let t3 = stamps.then(Instant::now);
        let bounds = (
            model.backlog_bound_with(cache.curves()),
            model.delay_bound_with(cache.curves()),
            model.backlog_bound_concat_with(cache.curves()),
            model.delay_bound_concat_with(cache.curves()),
        );
        black_box((thr, bounds));
        if let (Some(t0), Some(t1), Some(t2), Some(t3)) = (t0, t1, t2, t3) {
            let t4 = Instant::now();
            let gap = |a: Instant, b: Instant| {
                (b.duration_since(a).as_nanos() as u64).saturating_sub(cost)
            };
            out.expand_ns += gap(t0, t1);
            out.build_ns += gap(t1, t2);
            out.throughput_ns += gap(t2, t3);
            out.bounds_ns += gap(t3, t4);
            if let Some((tr, surface)) = tr.as_mut() {
                let s = |i: Instant| tr.stamp(i);
                let (a, b, c, d, e) = (s(t0), s(t1), s(t2), s(t3), s(t4));
                let req = *surface << 16 | pt.index as u64;
                let point = tr.record("pipeline.point", ROOT, req, a, e);
                tr.record("sweep.expand", point, req, a, b);
                tr.record("pipeline.build", point, req, b, c);
                tr.record("pipeline.throughput", point, req, c, d);
                tr.record("pipeline.bounds", point, req, d, e);
            }
        }
    }
    out.total_ns = start.elapsed().as_nanos() as u64;
    out.points = points.len() as u64;
    out.cache = cache.stats();
    out
}

/// The sweep bin's default grid.
const GRID: (usize, usize) = (16, 16);

/// The sweep engine's layers over `seconds`: repeated surfaces of the
/// `sweep` bin's own spec, `bitw_sweep_spec(16, 16)`, first one worker's
/// per-point pipeline calls, then `nc_sweep::run` at the ambient
/// fan-out width, every surface checked against `run_serial_uncached`.
fn sweep_layers(args: &Args, seconds: f64, report: &mut Report) -> io::Result<()> {
    let spec = nc_bench::bitw_sweep_spec(GRID.0, GRID.1);
    let cost = stamp_cost_ns();
    let mut tr = Tracer::new();
    let oracle = nc_sweep::run_serial_uncached(&spec).to_csv();
    let half = Duration::from_secs_f64(seconds / 2.0);

    // The pipeline layer: plain and stamped single-worker surfaces,
    // alternating.
    let (mut plain, mut stamped, mut costs) = (Vec::new(), Vec::new(), SurfaceOut::default());
    let mut counts: Option<CacheStats> = None;
    let start = Instant::now();
    while start.elapsed() < half || stamped.is_empty() {
        plain.push(pipeline_surface(&spec, cost, None).total_ns as f64);
        let s = pipeline_surface(&spec, cost, Some((&mut tr, stamped.len() as u64)));
        stamped.push(s.total_ns as f64);
        costs.expand_ns += s.expand_ns;
        costs.build_ns += s.build_ns;
        costs.throughput_ns += s.throughput_ns;
        costs.bounds_ns += s.bounds_ns;
        costs.points += s.points;
        counts.get_or_insert(s.cache);
    }
    let per_point = |ns: u64| ns as f64 / costs.points.max(1) as f64;
    let serial_ns =
        per_point(costs.expand_ns + costs.build_ns + costs.throughput_ns + costs.bounds_ns);

    // The sweep layer: the parallel engine, every surface checked.
    let (mut walls, mut failed) = (Vec::new(), 0u64);
    let start = Instant::now();
    while start.elapsed() < half || walls.is_empty() {
        let span = tr.open("sweep.run", ROOT, walls.len() as u64);
        let result = nc_sweep::run(&spec);
        walls.push(tr.close(span) as f64);
        failed += u64::from(result.to_csv() != oracle);
    }
    let points = (GRID.0 * GRID.1) as f64;
    report.check(walls.len() as u64, failed);
    let wall_per_point = median(&mut walls) / points;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let cache = counts.unwrap_or_default();
    report.set("pipeline.build_ns", per_point(costs.build_ns));
    report.set("pipeline.throughput_ns", per_point(costs.throughput_ns));
    report.set("pipeline.bounds_ns", per_point(costs.bounds_ns));
    report.set("sweep.expand_ns", per_point(costs.expand_ns));
    report.set("sweep.fanout_eff", serial_ns / (wall_per_point * workers));
    report.set(
        "cache.prefix_hit_frac",
        ratio(cache.prefix_hits, cache.prefix_hits + cache.prefix_misses),
    );
    report.set(
        "cache.op_hit_frac",
        ratio(cache.op_hits(), cache.op_hits() + cache.op_misses()),
    );
    report.set("cache.interned", cache.interned as f64);
    report.set(
        "trace.overhead_frac",
        median(&mut stamped) / median(&mut plain).max(1.0) - 1.0,
    );
    report.note(format!("single-worker cache counters (exact): {cache:?}"));
    report.note(format!(
        "{} single-worker surfaces per mode, {} parallel surfaces at {workers} workers; \
         stamp cost {cost} ns",
        plain.len(),
        walls.len()
    ));
    finish(args, "sweep", &tr, report)
}

// ------------------------------------------------------------------ sim

/// Exact DES counts over one round's replicas.
#[derive(Debug, Default, PartialEq)]
struct SimCounts {
    events: u64,
    retries: u64,
    dropped_jobs: u64,
    replicas: u64,
}

/// `replica_config` + `simulate_in` for every replica of one round,
/// timing the config calls; returns the counts and config ns.
fn sim_counts(cost: u64) -> (SimCounts, u64) {
    let mut c = SimCounts::default();
    let mut config_ns = 0;
    for s in tailload::scenarios() {
        let mut arena = SimArena::default();
        for r in 0..REPLICAS {
            let t = Instant::now();
            let cfg = s.replica_config(r);
            config_ns += since(t, cost);
            let res = simulate_in(&mut arena, &s.pipeline, &cfg);
            c.events += res.events;
            c.retries += res.retries;
            c.dropped_jobs += res.dropped_jobs;
            c.replicas += 1;
        }
    }
    (c, config_ns)
}

fn sim_layers(args: &Args, seconds: f64, report: &mut Report) -> io::Result<()> {
    let scenarios = tailload::scenarios();
    let bounds: Vec<Option<(f64, f64)>> = scenarios.iter().map(worst_case_bounds).collect();
    let cost = stamp_cost_ns();
    let mut tr = Tracer::new();
    let (counts, config_ns) = sim_counts(cost);

    let ids: Vec<u64> = (0..REPLICAS).collect();
    let (mut single, mut plain, mut fanned) = (0u64, 0u64, 0u64);
    let (mut rounds, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(seconds) || rounds == 0 {
        let round = tr.open("sim.round", ROOT, rounds);
        for (ix, (s, b)) in scenarios.iter().zip(&bounds).enumerate() {
            // One replica at a time on this thread, stamped per call.
            let mut arena = SimArena::default();
            let mut one: Vec<TailObs> = Vec::new();
            for &r in &ids {
                let a = tr.now();
                one.extend(tailload::replay_stripe(s, &[r], &mut arena));
                let e = tr.now();
                tr.record("streamsim.replica", round, (ix as u64) << 32 | r, a, e);
                single += e - a;
            }
            // The same stripe in one untraced call.
            let mut arena = SimArena::default();
            let t = Instant::now();
            black_box(tailload::replay_stripe(s, &ids, &mut arena));
            plain += t.elapsed().as_nanos() as u64;
            // The striped fan-out.
            let span = tr.open("tailload.replicate", round, ix as u64);
            let many = tailload::replicate(s, REPLICAS, FANOUT);
            fanned += tr.close(span);
            failed += bad_replicas(&many, &one, *b) + bad_replicas(&one, &one, *b);
        }
        tr.close(round);
        rounds += 1;
    }
    let replicas = rounds * REPLICAS * scenarios.len() as u64;
    report.check(2 * replicas, failed);
    report.set(
        "streamsim.replica_us",
        single as f64 / replicas as f64 / 1e3,
    );
    report.set(
        "streamsim.events_per_replica",
        counts.events as f64 / counts.replicas.max(1) as f64,
    );
    report.set(
        "streamsim.ns_per_event",
        single as f64 / (counts.events * rounds).max(1) as f64,
    );
    report.set("streamsim.retries", counts.retries as f64);
    report.set("streamsim.dropped_jobs", counts.dropped_jobs as f64);
    report.set(
        "tailload.config_us",
        config_ns as f64 / counts.replicas.max(1) as f64 / 1e3,
    );
    report.set(
        "tailload.fanout_eff",
        single as f64 / (fanned as f64 * FANOUT as f64).max(1.0),
    );
    report.set(
        "trace.overhead_frac",
        single as f64 / plain.max(1) as f64 - 1.0,
    );
    report.note(format!("DES counts per round (exact): {counts:?}"));
    report.note(format!(
        "{rounds} rounds of {} scenarios x {REPLICAS} replicas; stamp cost {cost} ns",
        scenarios.len()
    ));
    finish(args, "sim", &tr, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counts the traced run reports repeat exactly at one seed:
    /// the engine outcome mix and residency, the single-threaded cache
    /// counters, and the DES event and retry counts.
    #[test]
    fn exact_counts_repeat_at_one_seed() {
        let inp = Inputs::sized(Load::Light, 3, 1.0, 16, 40);
        let mut tr = Tracer::new();
        let a = engine_harness(&inp, true, 0, &mut tr).counts;
        let b = engine_harness(&inp, false, 0, &mut tr).counts;
        assert_eq!(a, b);
        assert!(a.stats.decisions > 0 && a.resident > 0);

        let spec = nc_bench::bitw_sweep_spec(4, 4);
        let x = pipeline_surface(&spec, 0, None).cache;
        let y = pipeline_surface(&spec, 0, Some((&mut tr, 0))).cache;
        assert_eq!(x, y);
        assert!(x.prefix_hits > 0);

        let (p, _) = sim_counts(0);
        let (q, _) = sim_counts(0);
        assert_eq!(p, q);
        assert!(p.events > 0);
    }

    #[test]
    fn engine_harness_covers_the_measured_frames() {
        let inp = Inputs::sized(Load::Saturate, 5, 1.0, 16, 40);
        let out = engine_harness(&inp, true, 0, &mut Tracer::new());
        let arrivals = inp.frames[inp.warmup..inp.end]
            .iter()
            .filter(|f| matches!(f, RequestFrame::Request(r) if r.event == EventKind::Arrive))
            .count() as u64;
        assert_eq!(out.counts.stats.decisions, arrivals);
        assert!(out.decide_ns > 0.0 && out.total_ns > 0);
    }
}
