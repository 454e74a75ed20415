//! End-to-end socket tests: a real server on a real socket (UDS and
//! TCP), a pipelined client replaying the canonical trace, a what-if
//! query through the sidecar, a clean shutdown — and a hostile peer
//! whose garbage closes its connection without disturbing anyone else.
//! The park-path tests run a server at [`QUANTUM`] under a watchdog, so
//! a lost wake-up fails them instead of hanging them.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use nc_serve::proto::{
    decode_response, encode_request, EventKind, ReconfigFrame, ReconfiguredFrame, ReqFrame,
    WhatIfFrame,
};
use nc_serve::replay::{replay_inproc, request_frames, to_csv};
use nc_serve::service::{Client, Endpoint, Server};
use nc_serve::{fleet, RequestFrame, ResponseFrame};
use nc_workloads::requests::{generate, reconfig_events};

/// Publication quantum of the park-path tests: small, so a short trace
/// keeps the event loop owed several quanta at a time.
const QUANTUM: usize = 8;

/// How long a park-path test may take before it counts as hung.
const WATCHDOG: Duration = Duration::from_secs(60);

fn uds_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nc-serve-test-{}-{tag}.sock", std::process::id()))
}

fn replay_against(server: Server, ep: Endpoint) {
    let cfg = fleet::request_config(11, 4, 15);
    let trace = generate(&cfg);
    let mut frames = request_frames(&trace, &[]);
    frames.push(RequestFrame::WhatIf(WhatIfFrame {
        id: 9,
        tenant: 2,
        points: 4,
    }));

    let handle = std::thread::spawn(move || server.run().expect("event loop"));

    let mut client = Client::connect(&ep).expect("connect");
    let responses = client.replay(&frames).expect("replay");
    assert_eq!(responses.len(), frames.len());

    let mut decisions = Vec::new();
    let mut whatifs = 0;
    for r in responses {
        match r {
            ResponseFrame::Decision(d) => decisions.push(d),
            ResponseFrame::WhatIf(a) => {
                assert_eq!(a.id, 9);
                assert_eq!(a.tenant, 2);
                assert_eq!(a.points, 4);
                assert!(a.feasible > 0, "nominal fleet must have headroom");
                whatifs += 1;
            }
            ResponseFrame::Reconfigured(_) => panic!("no reconfigurations sent"),
        }
    }
    assert_eq!(whatifs, 1);
    decisions.sort_by_key(|d| d.seq);

    let want = replay_inproc(&cfg, &[]);
    assert_eq!(
        to_csv(&want.decisions),
        to_csv(&decisions),
        "service output over the socket diverged from the in-proc oracle"
    );

    client.shutdown().expect("shutdown");
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.decisions, trace.len() as u64);
    assert_eq!(stats.whatifs, 1);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn uds_roundtrip_matches_the_inproc_oracle() {
    let path = uds_path("roundtrip");
    let cfg = fleet::request_config(11, 4, 15);
    let ep = Endpoint::Uds(path.clone());
    let server = Server::bind(&ep, &cfg, 2, 8, false).expect("bind uds");
    replay_against(server, ep);
    let _ = std::fs::remove_file(path);
}

#[test]
fn tcp_roundtrip_matches_the_inproc_oracle() {
    let cfg = fleet::request_config(11, 4, 15);
    let bind: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let server = Server::bind(&Endpoint::Tcp(bind), &cfg, 2, 8, false).expect("bind tcp");
    let ep = Endpoint::Tcp(server.local_addr().expect("ephemeral port"));
    replay_against(server, ep);
}

#[test]
fn garbage_closes_only_the_offending_connection() {
    let path = uds_path("garbage");
    let cfg = fleet::request_config(11, 2, 10);
    let ep = Endpoint::Uds(path.clone());
    let server = Server::bind(&ep, &cfg, 1, 4, false).expect("bind uds");
    let handle = std::thread::spawn(move || server.run().expect("event loop"));

    // A hostile peer: a valid length prefix with an unknown tag. The
    // server must close this connection (EOF on our side)...
    let mut bad = UnixStream::connect(&path).expect("connect raw");
    bad.write_all(&[1, 0, 0, 0, 0xEE]).expect("write garbage");
    bad.flush().unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(
        bad.read(&mut buf).expect("read until close"),
        0,
        "server must close the hostile connection"
    );

    // ...while a well-behaved client on a fresh connection is served
    // in full.
    let trace = generate(&cfg);
    let frames = request_frames(&trace, &[]);
    let mut client = Client::connect(&ep).expect("connect");
    let responses = client.replay(&frames).expect("replay");
    assert_eq!(responses.len(), frames.len());

    client.shutdown().expect("shutdown");
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.decisions, trace.len() as u64);
    assert_eq!(stats.protocol_errors, 1);
    let _ = std::fs::remove_file(path);
}

/// Well-formed frames whose fields are out of fleet range must close
/// the offending connection, never reach a shard worker: an attach
/// past the stage count would panic the worker's decide path, and an
/// unvalidated arrival index near `u32::MAX` would resize the
/// admission table to the peer's chosen length (an OOM from one
/// frame).
#[test]
fn out_of_range_fields_close_the_connection_not_the_server() {
    let path = uds_path("range");
    let cfg = fleet::request_config(11, 2, 10);
    let ep = Endpoint::Uds(path.clone());
    let server = Server::bind(&ep, &cfg, 1, 4, false).expect("bind uds");
    let handle = std::thread::spawn(move || server.run().expect("event loop"));

    let attack = |frame: RequestFrame, what: &str| {
        let mut s = UnixStream::connect(&path).expect("connect raw");
        let mut wire = Vec::new();
        encode_request(&mut wire, &frame);
        s.write_all(&wire).expect("write attack frame");
        s.flush().unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(
            s.read(&mut buf).expect("read until close"),
            0,
            "server must close the connection sending {what}"
        );
    };
    let nominal = ReqFrame {
        seq: 0,
        time_s: 0.0,
        tenant: 0,
        class: 0,
        attach: 0,
        event: EventKind::Arrive,
        arrive_ix: 0,
    };
    attack(
        RequestFrame::Request(ReqFrame {
            attach: fleet::STAGES as u32,
            ..nominal
        }),
        "attach = STAGES",
    );
    attack(
        RequestFrame::Request(ReqFrame {
            arrive_ix: u32::MAX,
            ..nominal
        }),
        "arrive_ix = u32::MAX",
    );

    // The server survives both: a well-behaved client is served in
    // full afterwards.
    let trace = generate(&cfg);
    let frames = request_frames(&trace, &[]);
    let mut client = Client::connect(&ep).expect("connect");
    let responses = client.replay(&frames).expect("replay");
    assert_eq!(responses.len(), frames.len());

    client.shutdown().expect("shutdown");
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.decisions, trace.len() as u64);
    assert_eq!(stats.protocol_errors, 2);
    let _ = std::fs::remove_file(path);
}

/// Read `n` response frames from a raw stream.
fn read_responses(s: &mut UnixStream, n: usize) -> Vec<ResponseFrame> {
    let mut out = Vec::with_capacity(n);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while out.len() < n {
        let got = s.read(&mut chunk).expect("read responses");
        assert!(got > 0, "server closed after {}/{n} responses", out.len());
        buf.extend_from_slice(&chunk[..got]);
        let mut pos = 0;
        while let Some((frame, used)) = decode_response(&buf[pos..]).expect("well-formed response")
        {
            out.push(frame);
            pos += used;
        }
        buf.drain(..pos);
    }
    out
}

/// Reconfiguration sequence numbers are client-chosen: two
/// connections reusing the same value must not collide in the
/// service's seq→tier bookkeeping, or the sidecar snapshot is updated
/// with the wrong connection's tier.
#[test]
fn colliding_reconfig_seqs_across_connections_stay_isolated() {
    let path = uds_path("reconfig-seq");
    let cfg = fleet::request_config(11, 4, 10);
    let ep = Endpoint::Uds(path.clone());
    let server = Server::bind(&ep, &cfg, 2, 4, false).expect("bind uds");
    let handle = std::thread::spawn(move || server.run().expect("event loop"));

    // Both connections use seq 7: `a` derates tenant 1's encrypt
    // stage (tier 0, applied); `b` sends the degenerate zero-rate
    // tier for tenant 3 (rejected). Both frames are in flight before
    // either response is read. A seq-only keyed map would let `b`'s
    // tier-3 entry overwrite `a`'s, mirroring a zero-rate node into
    // tenant 1's sidecar snapshot.
    let mut a = UnixStream::connect(&path).expect("connect a");
    let mut b = UnixStream::connect(&path).expect("connect b");
    let mut wire = Vec::new();
    encode_request(
        &mut wire,
        &RequestFrame::Reconfigure(ReconfigFrame {
            seq: 7,
            tenant: 1,
            stage: 2,
            tier: 0,
        }),
    );
    a.write_all(&wire).expect("write a");
    wire.clear();
    encode_request(
        &mut wire,
        &RequestFrame::Reconfigure(ReconfigFrame {
            seq: 7,
            tenant: 3,
            stage: 2,
            tier: 3,
        }),
    );
    b.write_all(&wire).expect("write b");
    match read_responses(&mut a, 1).remove(0) {
        ResponseFrame::Reconfigured(rc) => {
            assert_eq!((rc.seq, rc.tenant), (7, 1));
            assert!(rc.applied, "tier-0 derate must apply");
        }
        other => panic!("unexpected response on a: {other:?}"),
    }
    match read_responses(&mut b, 1).remove(0) {
        ResponseFrame::Reconfigured(rc) => {
            assert_eq!((rc.seq, rc.tenant), (7, 3));
            assert!(!rc.applied, "zero-rate tier must be rejected");
        }
        other => panic!("unexpected response on b: {other:?}"),
    }

    // The sidecar snapshot must now hold the tier-0 derate of tenant
    // 1 — still partly feasible — not the colliding zero-rate node,
    // which would make every grid point infeasible.
    wire.clear();
    encode_request(
        &mut wire,
        &RequestFrame::WhatIf(WhatIfFrame {
            id: 1,
            tenant: 1,
            points: 8,
        }),
    );
    a.write_all(&wire).expect("write what-if");
    match read_responses(&mut a, 1).remove(0) {
        ResponseFrame::WhatIf(ans) => {
            assert_eq!(ans.tenant, 1);
            assert!(
                ans.feasible > 0,
                "sidecar snapshot mirrored the wrong connection's tier"
            );
        }
        other => panic!("unexpected response on a: {other:?}"),
    }

    drop(a);
    drop(b);
    let mut client = Client::connect(&ep).expect("connect");
    client.shutdown().expect("shutdown");
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.reconfigs, 2);
    assert_eq!(stats.whatifs, 1);
    assert_eq!(stats.protocol_errors, 0);
    let _ = std::fs::remove_file(path);
}

/// Run `body` on a helper thread and fail if it has not finished within
/// [`WATCHDOG`]: an event loop parked past its last wake-up then fails
/// the test instead of hanging it.
fn under_watchdog(body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Err(RecvTimeoutError::Timeout) => {
            panic!("no result after {WATCHDOG:?}: the event loop missed a wake-up")
        }
        // Finished, or panicked (the sender dropped unsent): the join
        // re-raises a panic.
        _ => {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// A client writes many quanta of the canonical trace, with
/// reconfigurations and what-ifs inside the window and `Shutdown` right
/// behind the last frame, before it reads anything. The event loop
/// parks while the shards owe it a quantum and must wake for every
/// shard publication and sidecar answer: every answer arrives, the
/// decisions equal the in-proc oracle, and `run` returns.
#[test]
fn a_pipelined_trace_with_shutdown_behind_it_is_answered_in_full() {
    under_watchdog(|| {
        let path = uds_path("pipelined");
        let cfg = fleet::request_config(11, 4, 15);
        let events = reconfig_events(&cfg, 1, fleet::RECONFIG_TIERS as u32);
        let mut frames = request_frames(&generate(&cfg), &events);
        for (at, id) in [(frames.len() / 3, 1u64), (2 * frames.len() / 3, 2)] {
            let whatif = WhatIfFrame {
                id,
                tenant: id as u32,
                points: 4,
            };
            frames.insert(at, RequestFrame::WhatIf(whatif));
        }
        assert!(frames.len() >= 4 * QUANTUM);
        frames.push(RequestFrame::Shutdown);

        let ep = Endpoint::Uds(path.clone());
        let server = Server::bind(&ep, &cfg, 2, QUANTUM, false).expect("bind uds");
        let handle = std::thread::spawn(move || server.run().expect("event loop"));
        let mut s = UnixStream::connect(&path).expect("connect raw");
        let mut wire = Vec::new();
        for f in &frames {
            encode_request(&mut wire, f);
        }
        s.write_all(&wire).expect("write the whole trace");

        let mut decisions = Vec::new();
        let mut reconfigs = Vec::new();
        let mut whatifs = 0;
        for r in read_responses(&mut s, frames.len() - 1) {
            match r {
                ResponseFrame::Decision(d) => decisions.push(d),
                ResponseFrame::Reconfigured(rc) => reconfigs.push(rc),
                ResponseFrame::WhatIf(_) => whatifs += 1,
            }
        }
        decisions.sort_by_key(|d| d.seq);
        reconfigs.sort_by_key(|rc| rc.seq);
        let want = replay_inproc(&cfg, &events);
        assert_eq!(to_csv(&want.decisions), to_csv(&decisions));
        // `evicted` counts the shard's own model-cache entries, which
        // depend on the shard count; the verdicts do not.
        let verdicts = |rcs: &[ReconfiguredFrame]| -> Vec<(u64, u32, u32, bool)> {
            rcs.iter()
                .map(|rc| (rc.seq, rc.tenant, rc.stage, rc.applied))
                .collect()
        };
        assert_eq!(verdicts(&want.reconfigs), verdicts(&reconfigs));
        assert_eq!(whatifs, 2);

        let stats = handle.join().expect("server thread");
        assert_eq!(stats.decisions, want.decisions.len() as u64);
        assert_eq!(stats.reconfigs, events.len() as u64);
        assert_eq!(stats.protocol_errors, 0);
        let _ = std::fs::remove_file(path);
    });
}

/// A peer pipelines two quanta and then garbage. The server closes it
/// and drops those answers as they arrive, but they still settle what
/// the shards owe: a stale count would park the loop with no
/// publication to come, and the well-behaved replay behind it would
/// never be read.
#[test]
fn answers_for_a_closed_connection_still_settle_what_is_owed() {
    under_watchdog(|| {
        let path = uds_path("owed");
        let cfg = fleet::request_config(11, 2, 10);
        let ep = Endpoint::Uds(path.clone());
        let server = Server::bind(&ep, &cfg, 1, QUANTUM, false).expect("bind uds");
        let handle = std::thread::spawn(move || server.run().expect("event loop"));
        let frames = request_frames(&generate(&cfg), &[]);

        let mut bad = UnixStream::connect(&path).expect("connect raw");
        let mut wire = Vec::new();
        for f in &frames[..2 * QUANTUM] {
            encode_request(&mut wire, f);
        }
        wire.extend_from_slice(&[1, 0, 0, 0, 0xEE]);
        bad.write_all(&wire).expect("write quanta and garbage");
        let mut buf = [0u8; 64];
        while bad.read(&mut buf).expect("read until close") > 0 {}

        let mut client = Client::connect(&ep).expect("connect");
        let responses = client.replay(&frames).expect("replay");
        assert_eq!(responses.len(), frames.len());
        client.shutdown().expect("shutdown");
        let stats = handle.join().expect("server thread");
        // One shard answers in dispatch order, so the closed peer's
        // answers were all drained before the replay's.
        assert_eq!(stats.decisions, (2 * QUANTUM + frames.len()) as u64);
        assert_eq!(stats.protocol_errors, 1);
        let _ = std::fs::remove_file(path);
    });
}
