//! The admission service under load: the unmodified `serve --listen`
//! binary in its own process, one shard, driven over one loopback
//! Unix-domain socket by a single-threaded nonblocking generator.
//!
//! * [`Load::Saturate`] (the `serve-saturate` workload) — closed loop:
//!   a window of [`WINDOW`] frames outstanding, released in
//!   [`QUANTUM`]-frame chunks; the trace is replayed pass after pass.
//!   `engine.decide`, `proto` and ring batching do nearly all the work.
//! * [`Load::Light`] — open loop at [`RATE_HZ`] frames/s with one
//!   reconfiguration per [`RECONFIG_EVERY`] frames. The event loop and
//!   the shard go idle between requests, so latency is set by their
//!   wake-up paths, not by `decide`. Only `serve-saturate`'s traced run
//!   replays it, for the light-load layer metrics.
//!
//! Traffic is the canonical `nc_serve::fleet` trace at the run's seed.
//! The server only needs the fleet shape (the flow classes do not
//! depend on the seed), so it is launched with `ADMIT_FLEET` and
//! `ADMIT_REQS` alone. Every answer is checked against `replay_inproc`
//! on the same trace and reconfiguration events.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use nc_serve::fleet;
use nc_serve::proto::{
    decode_response, encode_request, DecisionFrame, EventKind, Outcome, ReconfiguredFrame,
    ReqFrame, RequestFrame, ResponseFrame,
};
use nc_serve::replay::{replay_inproc, request_frames, to_csv, ServiceReplay};
use nc_workloads::requests::{generate, ReconfigEvent, RequestConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::{cpu_seconds, record_setup, vm_hwm_mib, Window, Windows};
use crate::sys;
use crate::trace::{Tracer, ROOT};
use crate::{Args, Report};

/// How the generator offers the trace to the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Closed loop at capacity.
    Saturate,
    /// Open loop well below capacity, with reconfigurations.
    Light,
}

/// Fleet shape: the canonical trace's 1024 tenants × 250 arrivals.
pub const TENANTS: usize = 1024;
pub const PER_TENANT: usize = 250;
/// The server's ring publication quantum (the `NC_PUB_QUANTUM`
/// default), pinned so the closed loop's chunks match it.
pub const QUANTUM: usize = 256;
/// Closed-loop window: four publication quanta outstanding.
pub const WINDOW: usize = 4 * QUANTUM;
/// Open-loop rate, frames/s: about 2% of one shard's capacity, so the
/// shard worker parks between requests and the event loop idles in its
/// spin and yield steps. At 1000 frames/s the loop also reaches its
/// 200 µs sleep step, and whether a request finds it asleep is a race
/// that moved the run's p50 by 23% between runs on a 2-core host.
/// Arrivals are Poisson: a fixed period could lock onto the loop's
/// cycle and measure one phase of it.
pub const RATE_HZ: u64 = 4000;
/// One open-loop frame in this many is a reconfiguration.
pub const RECONFIG_EVERY: usize = 20;
/// Share of the trace sent untimed first, bringing residency up to its
/// plateau.
pub const WARMUP_FRAC: f64 = 0.25;
/// Server launches timed before the first pass.
pub const SETUPS: usize = 15;
/// Open-loop backlog, frames, past which the generator stops and the
/// run counts as failed: two seconds of offered load.
const MAX_OUTSTANDING: usize = 2 * RATE_HZ as usize;
/// No progress for this long means the server stalled.
const STALL: Duration = Duration::from_secs(20);
/// Sequence number of the set-up probe, outside every trace.
const PROBE_SEQ: u64 = u64::MAX;

/// One serve workload's inputs, all drawn from the seed.
pub struct Inputs {
    pub cfg: RequestConfig,
    /// Dispatch order: the trace with reconfigurations interleaved.
    pub frames: Vec<RequestFrame>,
    pub events: Vec<ReconfigEvent>,
    /// Frames `..warmup` are sent untimed first; all are decisions.
    pub warmup: usize,
    /// Frames `warmup..end` are measured.
    pub end: usize,
    /// [`Load::Light`]: each measured frame's due time, ns after the
    /// open loop starts.
    pub schedule: Vec<u64>,
}

impl Inputs {
    pub fn new(load: Load, seed: u64, seconds: f64) -> Inputs {
        Inputs::sized(load, seed, seconds, TENANTS, PER_TENANT)
    }

    /// [`Load::Light`] measures `seconds × RATE_HZ` open-loop slots
    /// after the warm-up, one in [`RECONFIG_EVERY`] a reconfiguration of
    /// a random tenant, stage and tier (the zero-rate tier included),
    /// due at Poisson arrival times; [`Load::Saturate`] measures the
    /// rest of the trace.
    pub fn sized(load: Load, seed: u64, seconds: f64, tenants: usize, per_tenant: usize) -> Inputs {
        let cfg = fleet::request_config(seed, tenants, per_tenant);
        let trace = generate(&cfg);
        let warmup = ((trace.len() as f64 * WARMUP_FRAC) as usize / QUANTUM * QUANTUM).max(1);
        let mut events = Vec::new();
        let mut end = trace.len();
        let mut schedule = Vec::new();
        if load == Load::Light {
            let room = (trace.len() - warmup) * RECONFIG_EVERY / (RECONFIG_EVERY - 1);
            let slots = ((seconds * RATE_HZ as f64).ceil() as usize).min(room);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut next_seq = warmup as u64;
            for slot in 0..slots {
                if slot % RECONFIG_EVERY == RECONFIG_EVERY - 1 {
                    events.push(ReconfigEvent {
                        after_seq: next_seq - 1,
                        tenant: rng.gen_range(0..tenants as u32),
                        stage: rng.gen_range(0..fleet::STAGES as u32),
                        tier: rng.gen_range(0..fleet::RECONFIG_TIERS as u32),
                    });
                } else {
                    next_seq += 1;
                }
            }
            end = warmup + slots;
            let mean_ns = 1e9 / RATE_HZ as f64;
            let mut t = 0.0;
            for _ in 0..slots {
                schedule.push(t as u64);
                t += -mean_ns * (1.0 - rng.gen::<f64>()).ln();
            }
        }
        let frames = request_frames(&trace, &events);
        Inputs {
            cfg,
            frames,
            events,
            warmup,
            end,
            schedule,
        }
    }
}

/// Every frame encoded back to back; frame `i` is
/// `bytes[off[i]..off[i + 1]]`.
pub struct Wire {
    pub bytes: Vec<u8>,
    pub off: Vec<usize>,
}

impl Wire {
    pub fn encode(frames: &[RequestFrame]) -> Wire {
        let mut bytes = Vec::with_capacity(frames.len() * 40);
        let mut off = Vec::with_capacity(frames.len() + 1);
        for f in frames {
            off.push(bytes.len());
            encode_request(&mut bytes, f);
        }
        off.push(bytes.len());
        Wire { bytes, off }
    }
}

/// The in-proc oracle's answers, as the decision CSV.
pub struct Oracle {
    csv: String,
    /// `row_end[k]` is the byte offset just past the header and `k`
    /// rows.
    row_end: Vec<usize>,
    reconfigs: Vec<ReconfiguredFrame>,
}

impl Oracle {
    pub fn of(inp: &Inputs) -> Oracle {
        Oracle::from_replay(&replay_inproc(&inp.cfg, &inp.events))
    }

    pub fn from_replay(replay: &ServiceReplay) -> Oracle {
        let csv = to_csv(&replay.decisions);
        let row_end = csv.match_indices('\n').map(|(i, _)| i + 1).collect();
        Oracle {
            csv,
            row_end,
            reconfigs: replay.reconfigs.clone(),
        }
    }

    fn row(&self, seq: usize) -> &str {
        &self.csv[self.row_end[seq]..self.row_end[seq + 1] - 1]
    }

    /// Failures among `got`, which should answer decisions
    /// `0..expected` once each: every missing, duplicate or foreign
    /// answer, and every row that differs from the oracle's.
    pub fn check_decisions(&self, got: &mut [DecisionFrame], expected: usize) -> u64 {
        got.sort_by_key(|d| d.seq);
        let whole = got.len() == expected
            && got.iter().enumerate().all(|(i, d)| d.seq == i as u64)
            && expected < self.row_end.len();
        if whole && to_csv(got) == self.csv[..self.row_end[expected]] {
            return 0;
        }
        let mut seen = vec![false; expected];
        let mut bad = 0u64;
        for d in got.iter() {
            let s = d.seq as usize;
            if s < expected && s + 1 < self.row_end.len() && !seen[s] {
                seen[s] = true;
                bad += u64::from(d.to_csv() != self.row(s));
            } else {
                bad += 1;
            }
        }
        bad + seen.iter().filter(|s| !**s).count() as u64
    }

    /// Failures among reconfiguration answers `0..expected`: missing,
    /// duplicate or foreign answers, and any whose target or
    /// applied/rejected verdict differs from the oracle's.
    pub fn check_reconfigs(&self, got: &[ReconfiguredFrame], expected: usize) -> u64 {
        let mut seen = vec![false; expected];
        let mut bad = 0u64;
        for rc in got {
            let s = rc.seq as usize;
            match self.reconfigs.get(s) {
                Some(want) if s < expected && !seen[s] => {
                    seen[s] = true;
                    let key = |r: &ReconfiguredFrame| (r.tenant, r.stage, r.applied);
                    bad += u64::from(key(rc) != key(want));
                }
                _ => bad += 1,
            }
        }
        bad + seen.iter().filter(|s| !**s).count() as u64
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The generator's end of the connection: nonblocking reads into a
/// buffer decoded frame by frame.
pub struct Conn {
    stream: UnixStream,
    rbuf: Vec<u8>,
    rpos: usize,
    chunk: Vec<u8>,
}

impl Conn {
    fn new(stream: UnixStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            chunk: vec![0; 64 << 10],
        })
    }

    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Read whatever is available without blocking; `true` if any
    /// bytes arrived.
    fn fill(&mut self) -> io::Result<bool> {
        if self.rpos > (1 << 20) && self.rpos * 2 > self.rbuf.len() {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        let mut any = false;
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&self.chunk[..n]);
                    any = true;
                    if n < self.chunk.len() {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete response frame already read, if any.
    fn next(&mut self) -> io::Result<Option<ResponseFrame>> {
        match decode_response(&self.rbuf[self.rpos..]) {
            Ok(Some((frame, n))) => {
                self.rpos += n;
                Ok(Some(frame))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(invalid(format!("bad response frame: {e}"))),
        }
    }

    /// Nonblocking write: bytes accepted, 0 when the socket is full.
    fn write_some(&mut self, bytes: &[u8]) -> io::Result<usize> {
        loop {
            match self.stream.write(bytes) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn send_all(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        while !bytes.is_empty() {
            let n = self.write_some(bytes)?;
            bytes = &bytes[n..];
            if n == 0 {
                if start.elapsed() > STALL {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "server stopped reading",
                    ));
                }
                sys::wait_io(self.fd(), true, Duration::from_millis(1));
            }
        }
        Ok(())
    }

    /// Wait for one response frame.
    fn recv_one(&mut self) -> io::Result<ResponseFrame> {
        let start = Instant::now();
        loop {
            if let Some(frame) = self.next()? {
                return Ok(frame);
            }
            if !self.fill()? {
                if start.elapsed() > STALL {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "no response"));
                }
                sys::wait_io(self.fd(), false, Duration::from_millis(10));
            }
        }
    }
}

/// The server process. Dropping it kills and reaps a server that has
/// not been shut down.
pub struct ServerProc {
    child: Child,
    pid: String,
}

impl ServerProc {
    fn launch(bin: &Path, sock: &Path) -> io::Result<ServerProc> {
        let child = Command::new(bin)
            .arg("--listen")
            .arg(sock)
            .env("ADMIT_FLEET", TENANTS.to_string())
            .env("ADMIT_REQS", PER_TENANT.to_string())
            .env("SERVE_SHARDS", "1")
            .env("NC_PUB_QUANTUM", QUANTUM.to_string())
            .env_remove("ADMIT_RECONFIGS")
            .env_remove("SERVE_VERIFY")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        Ok(ServerProc {
            pid: child.id().to_string(),
            child,
        })
    }

    fn connect(&mut self, sock: &Path) -> io::Result<UnixStream> {
        let start = Instant::now();
        loop {
            match UnixStream::connect(sock) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    if start.elapsed() > STALL || self.child.try_wait()?.is_some() {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    /// User + system CPU seconds of the server so far.
    pub fn cpu_s(&self) -> f64 {
        cpu_seconds(&self.pid)
    }

    pub fn hwm_mib(&self) -> f64 {
        vm_hwm_mib(&self.pid)
    }

    /// Send `Shutdown`, wait for the server to drain and exit, and
    /// return the protocol errors it reported.
    pub fn shutdown(mut self, conn: &mut Conn) -> io::Result<u64> {
        let mut frame = Vec::new();
        encode_request(&mut frame, &RequestFrame::Shutdown);
        conn.send_all(&frame)?;
        let start = Instant::now();
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if start.elapsed() > STALL {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server did not exit",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let mut out = String::new();
        if let Some(mut stdout) = self.child.stdout.take() {
            stdout.read_to_string(&mut out)?;
        }
        if !status.success() {
            return Err(io::Error::other(format!("server exited with {status}")));
        }
        // "... over N connection(s), E protocol error(s)"
        out.lines()
            .rev()
            .find_map(|l| l.strip_suffix(" protocol error(s)"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| invalid(format!("no server stats in {out:?}")))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

pub fn socket_path(args: &Args) -> PathBuf {
    args.out_dir
        .join(format!("serve-{}.sock", std::process::id()))
}

/// Launch the server and time it until a state-neutral probe — the
/// departure of a never-admitted arrival, answered `noop` — returns
/// over the socket. The interval covers onboarding the whole fleet.
pub fn start(args: &Args) -> io::Result<(ServerProc, Conn, f64)> {
    let sock = socket_path(args);
    if let Some(dir) = sock.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let t0 = Instant::now();
    let mut srv = ServerProc::launch(&args.serve_bin, &sock)?;
    let mut conn = Conn::new(srv.connect(&sock)?)?;
    let mut probe = Vec::new();
    encode_request(
        &mut probe,
        &RequestFrame::Request(ReqFrame {
            seq: PROBE_SEQ,
            time_s: 0.0,
            tenant: 0,
            class: 0,
            attach: 0,
            event: EventKind::Depart,
            arrive_ix: 0,
        }),
    );
    conn.send_all(&probe)?;
    match conn.recv_one()? {
        ResponseFrame::Decision(d) if d.seq == PROBE_SEQ && d.outcome == Outcome::Noop => {}
        other => return Err(invalid(format!("probe answered {other:?}"))),
    }
    Ok((srv, conn, t0.elapsed().as_secs_f64()))
}

/// What one closed-loop pass measured.
pub struct ClosedOut {
    pub decisions: Vec<DecisionFrame>,
    /// Frames sent, answered or not.
    pub sent: usize,
    /// First timed send to last timed answer, ns.
    pub timed_ns: u64,
    pub timed_ops: u64,
    /// Server CPU seconds over the timed part.
    pub cpu_s: f64,
}

/// Send frames `lo..hi` with at most [`WINDOW`] outstanding, released
/// in [`QUANTUM`]-frame chunks. Frames from `timed_from` on are timed
/// from their chunk's send to their answer (pushed to `lat`); no chunk
/// is released once the timed part has run for `budget`. Every frame
/// must be a decision request whose `seq` is its frame index. With a
/// tracer, each timed chunk is recorded as a `socket.quantum` span.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    conn: &mut Conn,
    wire: &Wire,
    lo: usize,
    hi: usize,
    timed_from: usize,
    budget: Duration,
    srv: Option<&ServerProc>,
    lat: &mut Vec<u64>,
    tracer: Option<&mut Tracer>,
) -> io::Result<ClosedOut> {
    let epoch = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let budget_ns = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX);
    let chunks = (hi - lo).div_ceil(QUANTUM);
    let mut sent_ns = vec![0u64; chunks];
    let mut last_ns = vec![0u64; chunks];
    let (mut released, mut sent, mut answered, mut outstanding) = (0, 0, 0, 0);
    let (mut wpos, mut wend) = (wire.off[lo], wire.off[lo]);
    let (mut first_timed, mut last_timed, mut timed_ops) = (None::<u64>, 0u64, 0u64);
    let mut cpu0 = 0.0;
    let mut stop = false;
    let mut decisions = Vec::with_capacity(hi - lo);
    let mut last_progress = Instant::now();
    loop {
        while !stop && released < chunks {
            let a = lo + released * QUANTUM;
            let b = (a + QUANTUM).min(hi);
            if outstanding + (b - a) > WINDOW {
                break;
            }
            if b > timed_from {
                match first_timed {
                    None => {
                        cpu0 = srv.map_or(0.0, ServerProc::cpu_s);
                        first_timed = Some(ns(Instant::now()));
                    }
                    Some(f) if ns(Instant::now()) - f >= budget_ns => {
                        stop = true;
                        break;
                    }
                    Some(_) => {}
                }
            }
            sent_ns[released] = ns(Instant::now());
            wend = wire.off[b];
            outstanding += b - a;
            sent += b - a;
            released += 1;
        }
        let mut progress = false;
        if wpos < wend {
            let n = conn.write_some(&wire.bytes[wpos..wend])?;
            wpos += n;
            progress |= n > 0;
        }
        if conn.fill()? {
            let t = ns(Instant::now());
            progress = true;
            while let Some(frame) = conn.next()? {
                let ResponseFrame::Decision(d) = frame else {
                    return Err(invalid(format!("unexpected answer {frame:?}")));
                };
                let ix = d.seq as usize;
                if ix < lo || ix >= lo + sent {
                    return Err(invalid(format!("answer for unsent frame {ix}")));
                }
                let c = (ix - lo) / QUANTUM;
                last_ns[c] = t;
                if ix >= timed_from {
                    lat.push(t - sent_ns[c]);
                    last_timed = t;
                    timed_ops += 1;
                }
                decisions.push(d);
                outstanding = outstanding.saturating_sub(1);
                answered += 1;
            }
        }
        if answered >= sent && (stop || released == chunks) {
            break;
        }
        if progress {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > STALL {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("closed loop stalled at {answered}/{sent} answers"),
            ));
        } else {
            sys::wait_io(conn.fd(), wpos < wend, Duration::from_millis(5));
        }
    }
    let cpu_s = match (srv, first_timed) {
        (Some(s), Some(_)) => s.cpu_s() - cpu0,
        _ => 0.0,
    };
    if let Some(tr) = tracer {
        let base = tr.stamp(epoch);
        for c in 0..released {
            if lo + (c + 1) * QUANTUM > timed_from {
                tr.record(
                    "socket.quantum",
                    ROOT,
                    c as u64,
                    base + sent_ns[c],
                    base + last_ns[c],
                );
            }
        }
    }
    Ok(ClosedOut {
        decisions,
        sent,
        timed_ns: first_timed.map_or(0, |f| last_timed.saturating_sub(f)),
        timed_ops,
        cpu_s,
    })
}

/// What one open-loop run measured.
#[derive(Default)]
pub struct OpenOut {
    pub decisions: Vec<DecisionFrame>,
    pub reconfigs: Vec<ReconfiguredFrame>,
    pub sent_decisions: usize,
    pub sent_reconfigs: usize,
    /// Slots never sent because the backlog overran.
    pub unsent: usize,
    /// Decision latencies from due time to answer, ns.
    pub lat_ns: Vec<u64>,
    /// Reconfiguration latencies from due time to answer, ns.
    pub rc_lat_ns: Vec<u64>,
    /// How late each frame was sent after its due time, ns.
    pub late_ns: Vec<u64>,
    pub outstanding_max: usize,
}

/// Map each answer to the slot that asked for it.
struct SlotMap {
    first_seq: u64,
    dec: Vec<usize>,
    rc: Vec<(u64, usize)>,
}

impl SlotMap {
    fn new(frames: &[RequestFrame]) -> SlotMap {
        let first_seq = frames
            .iter()
            .find_map(|f| match f {
                RequestFrame::Request(r) => Some(r.seq),
                _ => None,
            })
            .unwrap_or(0);
        let (mut dec, mut rc) = (Vec::new(), Vec::new());
        for (slot, f) in frames.iter().enumerate() {
            match f {
                RequestFrame::Request(_) => dec.push(slot),
                RequestFrame::Reconfigure(r) => rc.push((r.seq, slot)),
                _ => {}
            }
        }
        SlotMap { first_seq, dec, rc }
    }

    fn slot(&self, frame: &ResponseFrame) -> Option<usize> {
        match frame {
            ResponseFrame::Decision(d) => {
                let i = d.seq.checked_sub(self.first_seq)?;
                self.dec.get(usize::try_from(i).ok()?).copied()
            }
            ResponseFrame::Reconfigured(r) => self
                .rc
                .binary_search_by_key(&r.seq, |&(s, _)| s)
                .ok()
                .map(|i| self.rc[i].1),
            ResponseFrame::WhatIf(_) => None,
        }
    }
}

/// Send frames `warmup..end` one by one at their due times in
/// `schedule`, timing each answer from the frame's due time, so a stall
/// also delays every frame scheduled behind it. The thread sleeps in
/// `ppoll` between due times and wakes when an answer arrives. With a
/// tracer, each frame is recorded as a `socket.request` span.
pub fn open_loop(
    conn: &mut Conn,
    wire: &Wire,
    inp: &Inputs,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<OpenOut> {
    sys::tight_timer_slack();
    let (lo, hi) = (inp.warmup, inp.end);
    let map = SlotMap::new(&inp.frames[lo..hi]);
    let t0 = Instant::now() + Duration::from_millis(1);
    let due = |slot: usize| t0 + Duration::from_nanos(inp.schedule[slot]);
    let since = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let base = tracer.as_ref().map_or(0, |tr| tr.stamp(t0));
    let mut out = OpenOut::default();
    let slots = hi - lo;
    let (mut next, mut answered, mut outstanding) = (0usize, 0usize, 0usize);
    let (mut wpos, mut wend) = (wire.off[lo], wire.off[lo]);
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        while next < slots && out.unsent == 0 && due(next) <= now {
            if outstanding >= MAX_OUTSTANDING {
                out.unsent = slots - next;
                break;
            }
            out.late_ns
                .push(now.duration_since(due(next)).as_nanos() as u64);
            match inp.frames[lo + next] {
                RequestFrame::Reconfigure(_) => out.sent_reconfigs += 1,
                _ => out.sent_decisions += 1,
            }
            wend = wire.off[lo + next + 1];
            outstanding += 1;
            out.outstanding_max = out.outstanding_max.max(outstanding);
            next += 1;
        }
        let mut progress = false;
        if wpos < wend {
            let n = conn.write_some(&wire.bytes[wpos..wend])?;
            wpos += n;
            progress |= n > 0;
        }
        if conn.fill()? {
            let t = since(Instant::now());
            progress = true;
            while let Some(frame) = conn.next()? {
                let slot = map
                    .slot(&frame)
                    .filter(|&s| s < next)
                    .ok_or_else(|| invalid(format!("answer for no sent frame: {frame:?}")))?;
                let d = since(due(slot));
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.record("socket.request", ROOT, slot as u64, base + d, base + t);
                }
                match frame {
                    ResponseFrame::Decision(dec) => {
                        out.lat_ns.push(t - d);
                        out.decisions.push(dec);
                    }
                    ResponseFrame::Reconfigured(rc) => {
                        out.rc_lat_ns.push(t - d);
                        out.reconfigs.push(rc);
                    }
                    ResponseFrame::WhatIf(_) => unreachable!("slot map rejects what-if answers"),
                }
                outstanding = outstanding.saturating_sub(1);
                answered += 1;
            }
        }
        if (next == slots || out.unsent > 0) && answered >= next {
            break;
        }
        if progress {
            last_progress = Instant::now();
            continue;
        }
        if outstanding > 0 && last_progress.elapsed() > STALL {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("open loop stalled at {answered}/{next} answers"),
            ));
        }
        let wait = if next < slots && out.unsent == 0 {
            due(next).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(5)
        };
        if !wait.is_zero() {
            sys::wait_io(conn.fd(), wpos < wend, wait);
        }
    }
    Ok(out)
}

/// The untraced end-to-end run of `serve-saturate`. [`SETUPS`] cold
/// starts are timed and shut down first; then every pass runs on a
/// fresh server, whose start is timed too. A fresh server per pass
/// makes every pass the same work from the same state, so passes differ
/// only by the host's interference and by where the scheduler places
/// the server's loop and shard threads and the generator on the two
/// cores; [`record_setup`] and [`Windows::report`] keep the fastest
/// quarter of the starts and of the passes.
pub fn saturate(args: &Args, report: &mut Report) -> io::Result<()> {
    let inp = Inputs::new(Load::Saturate, args.seed, args.seconds);
    let oracle = Oracle::of(&inp);
    let wire = Wire::encode(&inp.frames);
    let (mut setups, mut errors) = (Vec::new(), 0u64);
    for _ in 0..SETUPS {
        let (srv, mut conn, dt) = start(args)?;
        setups.push(dt);
        errors += srv.shutdown(&mut conn)?;
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let mut windows = Windows::default();
    let (mut timed_ns, mut ops, mut passes) = (0u64, 0u64, 0);
    while Duration::from_nanos(timed_ns) < budget {
        let (srv, mut conn, dt) = start(args)?;
        setups.push(dt);
        let left = budget - Duration::from_nanos(timed_ns);
        let mut lat = Vec::new();
        let mut out = closed_loop(
            &mut conn,
            &wire,
            0,
            inp.end,
            inp.warmup,
            left,
            Some(&srv),
            &mut lat,
            None,
        )?;
        report.set(
            "rss_peak_mib",
            report.get("rss_peak_mib").max(srv.hwm_mib()),
        );
        errors += srv.shutdown(&mut conn)?;
        let failed = oracle.check_decisions(&mut out.decisions, out.sent);
        report.check(out.sent as u64, failed);
        timed_ns += out.timed_ns;
        ops += out.timed_ops;
        passes += 1;
        windows.push(Window {
            ops: out.timed_ops,
            ns: out.timed_ns,
            cpu_s: out.cpu_s,
            lat,
        });
        if out.timed_ops == 0 {
            break;
        }
    }
    let _ = std::fs::remove_file(socket_path(args));
    record_setup(report, &mut setups, "server starts, launch to probe answer");
    let secs = timed_ns as f64 / 1e9;
    let (kept, samples) = windows.report(report);
    report.note(format!(
        "closed loop: window {WINDOW} in {QUANTUM}-frame quanta, {passes} pass(es) of {} frames, \
         each on a fresh server, first {} of each untimed; {ops} timed decisions in {secs:.3} s; \
         metrics from the {kept} fastest passes, holding {samples} latency samples",
        inp.end, inp.warmup
    ));
    report.failed += errors;
    report.note(format!("server: {errors} protocol error(s)"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(load: Load) -> Inputs {
        Inputs::sized(load, 7, 1.0, 16, 40)
    }

    #[test]
    fn light_inputs_interleave_one_reconfiguration_per_slot_group() {
        let inp = small(Load::Light);
        let open = &inp.frames[inp.warmup..inp.end];
        for (slot, f) in open.iter().enumerate() {
            let rc = matches!(f, RequestFrame::Reconfigure(_));
            assert_eq!(
                rc,
                slot % RECONFIG_EVERY == RECONFIG_EVERY - 1,
                "slot {slot}"
            );
        }
        assert!(inp.frames[..inp.warmup]
            .iter()
            .all(|f| matches!(f, RequestFrame::Request(r) if r.seq < inp.warmup as u64)));
        let tiers: std::collections::BTreeSet<u32> = inp.events.iter().map(|e| e.tier).collect();
        assert_eq!(tiers.len(), fleet::RECONFIG_TIERS, "every tier drawn");
        assert_eq!(inp.schedule.len(), inp.end - inp.warmup);
        assert!(inp.schedule.windows(2).all(|w| w[0] <= w[1]));
        let mean_ns = *inp.schedule.last().unwrap() as f64 / (inp.schedule.len() - 1) as f64;
        let want_ns = 1e9 / RATE_HZ as f64;
        assert!(
            (mean_ns / want_ns - 1.0).abs() < 0.15,
            "mean gap {mean_ns} ns"
        );
    }

    /// One corrupted decision, one dropped answer and one foreign
    /// answer each count once.
    #[test]
    fn corrupted_decisions_are_counted() {
        let inp = small(Load::Saturate);
        let replay = replay_inproc(&inp.cfg, &inp.events);
        let oracle = Oracle::from_replay(&replay);
        let n = replay.decisions.len();
        let mut got = replay.decisions.clone();
        assert_eq!(oracle.check_decisions(&mut got, n), 0);

        let mut got = replay.decisions.clone();
        got[5].outcome = if got[5].outcome == Outcome::Noop {
            Outcome::Vacate
        } else {
            Outcome::Noop
        };
        got.reverse();
        assert_eq!(oracle.check_decisions(&mut got, n), 1);

        let mut got = replay.decisions.clone();
        got.remove(9);
        assert_eq!(oracle.check_decisions(&mut got, n), 1);

        let mut got = replay.decisions.clone();
        got.push(replay.decisions[3]);
        assert_eq!(oracle.check_decisions(&mut got, n), 1);
    }

    #[test]
    fn corrupted_reconfigurations_are_counted() {
        let inp = small(Load::Light);
        let replay = replay_inproc(&inp.cfg, &inp.events);
        let oracle = Oracle::from_replay(&replay);
        let mut got = oracle.reconfigs.clone();
        let k = got.len();
        assert!(k >= 3);
        assert_eq!(oracle.check_reconfigs(&got, k), 0);
        got[1].applied = !got[1].applied;
        assert_eq!(oracle.check_reconfigs(&got, k), 1);
        got.pop();
        assert_eq!(oracle.check_reconfigs(&got, k), 2);
    }
}
