//! Socket front: a single-threaded, nonblocking event loop feeding the
//! shard pool.
//!
//! No `epoll`/`mio` — the vendored dependency set has neither, so the
//! acceptor runs all sockets in nonblocking mode and polls them. A turn
//! that makes no progress waits in one of two ways:
//!
//! * **Park** on the pool's `ProgressGate` while the shards owe the
//!   loop at least one publication quantum of responses
//!   ([`ShardPool::owed`] ≥ [`ShardPool::quantum`]) and every write
//!   buffer is flushed. A shard publishes every quantum of responses
//!   and flushes before it parks, the sidecar bumps the gate after each
//!   answer, and a dead worker's dropped ring bumps it too, so the wake
//!   is at most one quantum of decisions away. The generation is read
//!   at the top of the turn, before any socket read or drain, so a
//!   publication landing mid-turn is never slept through.
//! * **Ladder** otherwise: spin, then yield, then sleep 200 µs. Below a
//!   quantum owed (light load, startup, the drain at shutdown) the next
//!   frame may come from a socket, which bumps no gate; a blocked write
//!   has no wake source either.
//!
//! The threshold is one quantum because that is the unit a shard
//! publishes in: parking on less would put a futex wake in front of
//! every light-load request, while at a quantum the shard still holds
//! queued work when the loop wakes to refill it. At saturation the
//! ladder never reached its sleep step, because every idle turn
//! repeated `accept` and `read` syscalls while the shard worked through
//! its window: on `serve-saturate` (2 vCPUs) the loop thread spent
//! 80–96% of a core, mostly in the kernel, 45–51% of the server's
//! CPU. Parked, it spends 11–13%, and the shard worker is the one busy
//! server thread (EXPERIMENTS §E-loop).
//!
//! Frame flow per loop turn:
//!
//! 1. accept any pending connections (slots are append-only; a
//!    connection index is its identity for the life of the server, so
//!    late shard responses can never be misrouted to a new peer),
//! 2. read + decode each connection, validate frames semantically
//!    (tenant/class/stage/attach/arrival index in range), and
//!    dispatch: engine frames to their shard ring (respecting ring
//!    backpressure via a one-frame `pending` slot), what-ifs to the
//!    sidecar, `Shutdown` arms the drain; a connection whose write
//!    buffer is over `WBUF_HIGH_WATER` is neither read nor
//!    dispatched until a flush drains it,
//! 3. drain shard responses and sidecar answers, encode them into the
//!    owning connection's write buffer; **applied** reconfigurations
//!    are mirrored to the sidecar snapshot at the tier their response
//!    echoes,
//! 4. flush write buffers.
//!
//! A malformed frame ([`ProtoError`]) or out-of-range field closes
//! that connection; the server itself never panics on peer input.
//! Shutdown completes once every dispatched frame has been answered
//! and every answer flushed.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use nc_workloads::requests::RequestConfig;

use crate::fleet;
use crate::proto::{
    decode_request, decode_response, encode_request, encode_response, ProtoError, RequestFrame,
    ResponseFrame,
};
use crate::shard::{Envelope, ShardPool};
use crate::sidecar::Sidecar;

/// Where the service listens.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// Unix-domain socket at this path (unlinked before bind).
    Uds(PathBuf),
    /// TCP socket; use port 0 for an ephemeral port.
    Tcp(SocketAddr),
}

enum Listener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Listener {
    fn bind(ep: &Endpoint) -> io::Result<Listener> {
        match ep {
            Endpoint::Uds(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Uds(l))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    fn accept(&self) -> io::Result<Option<Stream>> {
        let stream = match self {
            Listener::Uds(l) => match l.accept() {
                Ok((s, _)) => Stream::Uds(s),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nodelay(true)?;
                    Stream::Tcp(s)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
        };
        stream.set_nonblocking(true)?;
        Ok(Some(stream))
    }
}

impl Stream {
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_nonblocking(on),
            Stream::Tcp(s) => s.set_nonblocking(on),
        }
    }

    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Uds(s) => Stream::Uds(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Shut both directions, waking any thread blocked on a clone.
    fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Outbound high-water mark, bytes. A connection holding more
/// unflushed response bytes than this stops being read from and
/// dispatched for until flushing drains it below the mark — inbound is
/// backpressured by the `pending` slot, and this bounds the outbound
/// side, so a peer that pipelines requests while never reading
/// responses cannot grow server memory without limit.
const WBUF_HIGH_WATER: usize = 1 << 20;

struct Conn {
    stream: Stream,
    /// Unparsed inbound bytes (`rpos..` is live).
    rbuf: Vec<u8>,
    rpos: usize,
    /// Encoded outbound bytes (`wpos..` is pending).
    wbuf: Vec<u8>,
    wpos: usize,
    /// A decoded frame waiting for ring space.
    pending: Option<RequestFrame>,
    /// Responses this connection is still owed.
    inflight: usize,
    /// Peer sent EOF; drain and drop.
    eof: bool,
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            pending: None,
            inflight: 0,
            eof: false,
        }
    }
}

/// Counters reported by [`Server::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Admission decisions served.
    pub decisions: u64,
    /// Reconfiguration responses served (applied or not).
    pub reconfigs: u64,
    /// What-if answers served.
    pub whatifs: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections closed due to malformed or out-of-range frames.
    pub protocol_errors: u64,
}

/// The admission service: one acceptor thread (the caller of
/// [`Server::run`]), `shards` engine workers, one what-if sidecar.
pub struct Server {
    listener: Listener,
    pool: ShardPool,
    sidecar: Sidecar,
    tenants: usize,
    classes: usize,
    per_tenant: usize,
}

impl Server {
    /// Bind `endpoint` and spawn the shard pool and sidecar for the
    /// fleet described by `config`. `verify` enables the
    /// post-reconfiguration oracle probes in the shard workers.
    pub fn bind(
        endpoint: &Endpoint,
        config: &RequestConfig,
        shards: usize,
        quantum: usize,
        verify: bool,
    ) -> io::Result<Server> {
        let listener = Listener::bind(endpoint)?;
        let pool = ShardPool::new(config, shards, quantum, verify);
        let sidecar = Sidecar::spawn(config, pool.gate());
        Ok(Server {
            listener,
            pool,
            sidecar,
            tenants: config.tenants,
            classes: fleet::flow_classes(config).len(),
            per_tenant: config.per_tenant,
        })
    }

    /// The bound TCP address (ephemeral-port discovery for tests).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr(),
            Listener::Uds(_) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "UDS endpoint has no TCP address",
            )),
        }
    }

    /// Serve until a `Shutdown` frame arrives and all in-flight work
    /// drains. Consumes the server; shard workers and the sidecar are
    /// joined before returning. A shard worker's panic (e.g. a failed
    /// verify-mode oracle probe) is re-raised here as soon as the loop
    /// drains that worker's closed response ring.
    pub fn run(self) -> io::Result<ServerStats> {
        let Server {
            listener,
            mut pool,
            sidecar,
            tenants,
            classes,
            per_tenant,
        } = self;
        // Every field a shard worker indexes with must be validated
        // here: an out-of-range `attach` would panic the worker's
        // `engine.decide` expect, and an unbounded `arrive_ix` would
        // resize the admission table to the peer's chosen length (a
        // one-frame memory-exhaustion attack). Rejecting closes only
        // the offending connection.
        let admissible = |frame: &RequestFrame| match frame {
            RequestFrame::Request(r) => {
                (r.tenant as usize) < tenants
                    && (r.class as usize) < classes
                    && (r.attach as usize) < fleet::STAGES
                    && (r.arrive_ix as usize) < per_tenant
            }
            RequestFrame::Reconfigure(r) => {
                (r.tenant as usize) < tenants && (r.stage as usize) < fleet::STAGES
            }
            RequestFrame::WhatIf(_) | RequestFrame::Shutdown => true,
        };
        let mut stats = ServerStats::default();
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut envelopes: Vec<Envelope<ResponseFrame>> = Vec::new();
        let mut chunk = [0u8; 16 << 10];
        let mut shutting_down = false;
        let mut idle_turns = 0u32;
        loop {
            // Read before any socket read or drain: a publication that
            // lands after this turn's drain then moves the generation
            // past `seen`, and the park below returns at once.
            let seen = pool.gate().generation();
            let mut progress = false;

            // 1. Accept.
            if !shutting_down {
                while let Some(stream) = listener.accept()? {
                    conns.push(Some(Conn::new(stream)));
                    stats.connections += 1;
                    progress = true;
                }
            }

            // 2. Read, decode, validate, dispatch.
            for (ix, slot) in conns.iter_mut().enumerate() {
                let Some(conn) = slot.as_mut() else {
                    continue;
                };
                // Outbound backpressure: over the high-water mark this
                // connection neither dispatches nor reads until the
                // flush pass drains its responses.
                let throttled = conn.wbuf.len() - conn.wpos >= WBUF_HIGH_WATER;
                // Retry the frame parked on ring backpressure first:
                // reading more while it waits would reorder nothing,
                // but decoding past it would.
                if !throttled {
                    if let Some(frame) = conn.pending.take() {
                        let shard = pool.route(frame.tenant().expect("only engine frames park"));
                        if pool.backlogged(shard) {
                            conn.pending = Some(frame);
                        } else {
                            pool.send(shard, ix as u32, frame);
                            conn.inflight += 1;
                            progress = true;
                        }
                    }
                }
                if !conn.eof && conn.pending.is_none() && !shutting_down && !throttled {
                    loop {
                        match conn.stream.read(&mut chunk) {
                            Ok(0) => {
                                conn.eof = true;
                                break;
                            }
                            Ok(n) => {
                                conn.rbuf.extend_from_slice(&chunk[..n]);
                                progress = true;
                                if n < chunk.len() {
                                    break;
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                conn.eof = true;
                                break;
                            }
                        }
                    }
                }
                // Decode as many complete frames as the rings accept.
                let mut fatal = false;
                while conn.pending.is_none() && !throttled {
                    let frame = match decode_request(&conn.rbuf[conn.rpos..]) {
                        Ok(Some((frame, n))) => {
                            conn.rpos += n;
                            frame
                        }
                        Ok(None) => break,
                        Err(e) => {
                            log_proto_error(ix, &e);
                            fatal = true;
                            break;
                        }
                    };
                    if !admissible(&frame) {
                        eprintln!("nc-serve: closing connection {ix}: field out of fleet range");
                        fatal = true;
                        break;
                    }
                    progress = true;
                    match frame {
                        RequestFrame::Shutdown => {
                            shutting_down = true;
                        }
                        RequestFrame::WhatIf(w) => {
                            sidecar.query(ix as u32, w);
                            conn.inflight += 1;
                        }
                        engine_frame => {
                            let shard = pool.route(
                                engine_frame.tenant().expect("an engine frame has a tenant"),
                            );
                            if pool.backlogged(shard) {
                                conn.pending = Some(engine_frame);
                            } else {
                                pool.send(shard, ix as u32, engine_frame);
                                conn.inflight += 1;
                            }
                        }
                    }
                }
                if fatal {
                    stats.protocol_errors += 1;
                    *slot = None;
                    continue;
                }
                // Compact the read buffer once the parsed prefix
                // dominates it.
                if conn.rpos > 4096 && conn.rpos * 2 > conn.rbuf.len() {
                    conn.rbuf.drain(..conn.rpos);
                    conn.rpos = 0;
                }
            }
            pool.flush();

            // 3. Collect responses.
            if pool.drain(&mut envelopes) {
                progress = true;
                for env in envelopes.drain(..) {
                    match &env.frame {
                        ResponseFrame::Decision(_) => stats.decisions += 1,
                        ResponseFrame::Reconfigured(rc) => {
                            stats.reconfigs += 1;
                            if rc.applied {
                                sidecar.update(rc.tenant, rc.stage, rc.tier);
                            }
                        }
                        ResponseFrame::WhatIf(_) => unreachable!("shards never answer what-ifs"),
                    }
                    if let Some(conn) = conns[env.conn as usize].as_mut() {
                        encode_response(&mut conn.wbuf, &env.frame);
                        conn.inflight -= 1;
                    }
                }
            }
            while let Some((conn_ix, answer)) = sidecar.poll() {
                progress = true;
                stats.whatifs += 1;
                if let Some(conn) = conns[conn_ix as usize].as_mut() {
                    encode_response(&mut conn.wbuf, &ResponseFrame::WhatIf(answer));
                    conn.inflight -= 1;
                }
            }

            // 4. Flush write buffers; reap finished connections.
            for slot in &mut conns {
                let Some(conn) = slot.as_mut() else {
                    continue;
                };
                while conn.wpos < conn.wbuf.len() {
                    match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                        Ok(n) if n > 0 => {
                            conn.wpos += n;
                            progress = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        // `Ok(0)` or a hard error: the peer can no
                        // longer receive. Discard the write state (and
                        // any undispatched parked frame) so the reap
                        // and shutdown-quiesce conditions below can
                        // fire — responses still in flight for this
                        // connection are dropped on arrival.
                        _ => {
                            conn.eof = true;
                            conn.wbuf.clear();
                            conn.wpos = 0;
                            conn.pending = None;
                            progress = true;
                            break;
                        }
                    }
                }
                if conn.wpos == conn.wbuf.len() && conn.wpos > 0 {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                }
                if conn.eof && conn.inflight == 0 && conn.pending.is_none() && conn.wbuf.is_empty()
                {
                    *slot = None;
                }
            }

            // Drain complete?
            if shutting_down {
                let quiesced = conns
                    .iter()
                    .flatten()
                    .all(|c| c.inflight == 0 && c.pending.is_none() && c.wpos == c.wbuf.len());
                if quiesced {
                    break;
                }
            }

            // Idle: park while the shards owe a publication quantum and
            // no write is blocked (module doc); otherwise step the
            // backoff ladder: spin briefly, then yield, then sleep.
            let flushed = || conns.iter().flatten().all(|c| c.wpos == c.wbuf.len());
            if progress {
                idle_turns = 0;
            } else if pool.owed() >= pool.quantum() && flushed() {
                pool.gate().wait_past(seen);
            } else {
                idle_turns += 1;
                if idle_turns < 64 {
                    std::hint::spin_loop();
                } else if idle_turns < 256 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        pool.join();
        sidecar.join();
        Ok(stats)
    }
}

fn log_proto_error(conn: usize, e: &ProtoError) {
    eprintln!("nc-serve: closing connection {conn}: {e}");
}

/// Blocking, pipelined client for replay and tests.
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connect to a listening server (blocking mode).
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let stream = match endpoint {
            Endpoint::Uds(path) => Stream::Uds(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Stream::Tcp(s)
            }
        };
        stream.set_nonblocking(false)?;
        Ok(Client { stream })
    }

    /// Pipeline every frame and collect one response per
    /// response-bearing frame. A writer thread sends the trace on a
    /// clone of the stream while this thread reads: the server stops
    /// reading a connection whose outbound buffer is over its
    /// high-water mark, so a client that wrote the whole trace before
    /// reading anything could deadlock against that throttle on a large
    /// enough trace.
    ///
    /// A failed read shuts the stream down before the writer is joined,
    /// so a writer blocked on a throttled connection cannot hang the
    /// caller; the read's error is returned. Otherwise a failed write
    /// returns the writer's error.
    pub fn replay(&mut self, frames: &[RequestFrame]) -> io::Result<Vec<ResponseFrame>> {
        let expected = frames
            .iter()
            .filter(|f| !matches!(f, RequestFrame::Shutdown))
            .count();
        let mut wire = Vec::with_capacity(frames.len() * 40);
        for f in frames {
            encode_request(&mut wire, f);
        }
        let mut writer = self.stream.try_clone()?;
        std::thread::scope(|s| {
            let sent = s.spawn(move || writer.write_all(&wire).and_then(|()| writer.flush()));
            let read = self.read_responses(expected);
            if read.is_err() {
                let _ = self.stream.shutdown();
            }
            let sent = sent.join().expect("replay writer thread panicked");
            let responses = read?;
            sent?;
            Ok(responses)
        })
    }

    /// Blocking reads until `expected` responses have arrived.
    fn read_responses(&mut self, expected: usize) -> io::Result<Vec<ResponseFrame>> {
        let mut responses = Vec::with_capacity(expected);
        let mut buf = Vec::new();
        let mut pos = 0usize;
        let mut chunk = [0u8; 16 << 10];
        while responses.len() < expected {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!(
                            "server closed after {}/{expected} responses",
                            responses.len()
                        ),
                    ))
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            loop {
                match decode_response(&buf[pos..]) {
                    Ok(Some((frame, used))) => {
                        responses.push(frame);
                        pos += used;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad response frame: {e}"),
                        ))
                    }
                }
            }
        }
        Ok(responses)
    }

    /// Send a lone `Shutdown` frame.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let mut wire = Vec::new();
        encode_request(&mut wire, &RequestFrame::Shutdown);
        self.stream.write_all(&wire)?;
        self.stream.flush()
    }
}
