//! Deterministic replay: the same request trace driven through the
//! wire protocol and shard fleet, or through one in-proc engine — the
//! two must agree byte for byte.
//!
//! [`replay_service`] is the service-side path minus the sockets: every
//! request frame is **encoded to wire bytes and decoded back** before
//! it reaches a shard ring, and every response frame makes the same
//! round trip on the way out, so the measured path includes the full
//! framing cost (the socket loop in `service` adds only the
//! syscalls). [`replay_inproc`] is the oracle: one engine, the merged
//! trace in sequence order, reconfigurations applied at their
//! scheduled positions, through the same per-tenant ledger the shard
//! workers use — so the comparison checks the codec, routing, ring
//! order, batching and shard count, while the committed
//! `results/admission.csv` (written by the `admit` bin through
//! [`replay_service`]) pins the decisions themselves. `perfbase` times
//! [`drive`] (the feed/drain loop against a prebuilt pool) for the
//! throughput and batched-vs-per-request framing rows.

use std::io;
use std::sync::Arc;

use nc_workloads::requests::{generate, ReconfigEvent, ReqKind, Request, RequestConfig};

use crate::fleet;
use crate::proto::{
    decode_request, decode_response, encode_request, encode_response, DecisionFrame, EventKind,
    ReconfigFrame, ReconfiguredFrame, ReqFrame, RequestFrame, ResponseFrame,
};
use crate::shard::{reconfigure, Envelope, Ledger, ShardPool};

/// How the front publishes onto the shard rings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Batching {
    /// Frames are decoded, dispatched, and published in batches of
    /// `quantum` (the `NC_PUB_QUANTUM` regime); responses drain
    /// whenever any are visible.
    Batched {
        /// Ring publication quantum, frames.
        quantum: usize,
    },
    /// Synchronous request/response: every frame is published alone
    /// and the front parks until its response arrives before sending
    /// the next — the per-request framing ablation baseline.
    PerRequest,
}

impl Batching {
    /// The ring quantum this mode configures.
    pub fn quantum(self) -> usize {
        match self {
            Batching::Batched { quantum } => quantum.max(1),
            Batching::PerRequest => 1,
        }
    }
}

/// The merged outcome of a replay, each list sorted by `seq`.
pub struct ServiceReplay {
    /// One decision per trace request.
    pub decisions: Vec<DecisionFrame>,
    /// One response per reconfiguration event.
    pub reconfigs: Vec<ReconfiguredFrame>,
}

/// Write decision frames (already sorted by `seq`) to `out` as the
/// `results/admission.csv` artifact body, row by row.
pub fn write_csv(out: &mut impl io::Write, decisions: &[DecisionFrame]) -> io::Result<()> {
    writeln!(out, "{}", DecisionFrame::csv_header())?;
    for d in decisions {
        d.write_csv(out)?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Render decision frames (already sorted by `seq`) as the
/// `results/admission.csv` artifact body ([`write_csv`] into a
/// `String`).
pub fn to_csv(decisions: &[DecisionFrame]) -> String {
    let mut out = Vec::new();
    write_csv(&mut out, decisions).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("CSV rows are ASCII")
}

fn req_frame(r: &Request) -> ReqFrame {
    ReqFrame {
        seq: r.seq,
        time_s: r.time_s,
        tenant: r.tenant,
        class: r.class,
        attach: r.attach,
        event: match r.kind {
            ReqKind::Arrive => EventKind::Arrive,
            ReqKind::Depart { .. } => EventKind::Depart,
        },
        arrive_ix: r.arrive_ix,
    }
}

/// The dispatch order of a replay: the trace in sequence order with
/// each reconfiguration inserted after its `after_seq` request.
/// Reconfiguration frames are numbered by their ordinal in `reconfigs`
/// (the response key both replay paths share).
pub fn request_frames(trace: &[Request], reconfigs: &[ReconfigEvent]) -> Vec<RequestFrame> {
    let mut frames = Vec::with_capacity(trace.len() + reconfigs.len());
    let mut rc = reconfigs.iter().enumerate().peekable();
    // Events scheduled before any request fire first.
    for r in trace {
        frames.push(RequestFrame::Request(req_frame(r)));
        while let Some(&(ix, e)) = rc.peek() {
            if e.after_seq != r.seq {
                break;
            }
            frames.push(RequestFrame::Reconfigure(ReconfigFrame {
                seq: ix as u64,
                tenant: e.tenant,
                stage: e.stage,
                tier: e.tier,
            }));
            rc.next();
        }
    }
    // A degenerate empty trace: flush the remainder.
    for (ix, e) in rc {
        frames.push(RequestFrame::Reconfigure(ReconfigFrame {
            seq: ix as u64,
            tenant: e.tenant,
            stage: e.stage,
            tier: e.tier,
        }));
    }
    frames
}

/// Replay the trace of `config` (plus `reconfigs`) through **one**
/// in-proc engine in dispatch order — the oracle the service output is
/// byte-compared against. Each tenant's frames go through its own
/// `Ledger`, the request path the shard workers run.
pub fn replay_inproc(config: &RequestConfig, reconfigs: &[ReconfigEvent]) -> ServiceReplay {
    let trace = generate(config);
    let frames = request_frames(&trace, reconfigs);
    let built = fleet::build_shard(config, &(0..config.tenants).collect::<Vec<_>>());
    let mut engine = built.engine;
    let mut ledgers: Vec<Ledger> = (0..config.tenants).map(|_| Ledger::default()).collect();
    let mut decisions = Vec::with_capacity(trace.len());
    let mut out_reconfigs = Vec::with_capacity(reconfigs.len());
    for frame in frames {
        match frame {
            RequestFrame::Request(r) => {
                let tid = built.tenants[r.tenant as usize].1;
                let ledger = &mut ledgers[r.tenant as usize];
                decisions.push(ledger.apply(&mut engine, tid, &built.classes, r));
            }
            RequestFrame::Reconfigure(rc) => {
                let tid = built.tenants[rc.tenant as usize].1;
                out_reconfigs.push(reconfigure(&mut engine, tid, rc).0);
            }
            RequestFrame::WhatIf(_) | RequestFrame::Shutdown => {
                unreachable!("request_frames emits only engine frames")
            }
        }
    }
    ServiceReplay {
        decisions,
        reconfigs: out_reconfigs,
    }
}

/// Feed pre-encoded request frames through the pool with the full wire
/// codec on both directions, returning the decoded responses
/// (unsorted). This is the timed region of the `perfbase` serve rows;
/// the pool must have been built with [`Batching::quantum`].
pub fn drive(
    pool: &mut ShardPool,
    frames: &[RequestFrame],
    batching: Batching,
) -> Vec<ResponseFrame> {
    let gate = Arc::clone(pool.gate());
    let mut responses = Vec::with_capacity(frames.len());
    let mut envelopes: Vec<Envelope<ResponseFrame>> = Vec::new();
    // "Client writes": the next request as wire bytes, encoded just
    // ahead of the feed, so the wire buffers hold one frame and one
    // drain rather than the whole trace.
    let mut wire_in: Vec<u8> = Vec::new();
    let mut wire_out: Vec<u8> = Vec::new();
    let mut sent = 0usize;
    let sync = batching == Batching::PerRequest;
    while responses.len() < frames.len() {
        let seen = gate.generation();
        let mut progress = false;
        // Feed: decode from the wire and dispatch, stopping at
        // backpressure (the frame stays encoded for the next try). In
        // per-request mode a frame is published only once every prior
        // frame's response is already in hand.
        while sent < frames.len() && !(sync && sent > responses.len()) {
            if wire_in.is_empty() {
                encode_request(&mut wire_in, &frames[sent]);
            }
            let frame = match decode_request(&wire_in) {
                Ok(Some((frame, n))) if n == wire_in.len() => frame,
                other => panic!("self-encoded frame failed to decode: {other:?}"),
            };
            let shard = pool.route(frame.tenant().expect("replay sends only engine frames"));
            if pool.backlogged(shard) {
                break;
            }
            pool.send(shard, 0, frame);
            wire_in.clear();
            sent += 1;
            progress = true;
            if sync {
                pool.flush();
            }
        }
        pool.flush();
        // Drain: responses make the same wire round trip back.
        if pool.drain(&mut envelopes) {
            progress = true;
            for env in envelopes.drain(..) {
                encode_response(&mut wire_out, &env.frame);
            }
            let mut out_at = 0;
            while let Some((frame, n)) = decode_response(&wire_out[out_at..])
                .expect("self-encoded response failed to decode")
            {
                responses.push(frame);
                out_at += n;
            }
            assert_eq!(out_at, wire_out.len(), "a drain encodes whole frames");
            wire_out.clear();
        }
        if !progress {
            gate.wait_past(seen);
        }
    }
    responses
}

/// Replay the trace of `config` (plus `reconfigs`) through a
/// `shards`-worker pool with full wire framing, returning the merged,
/// seq-sorted outcome. `verify` enables the post-reconfiguration
/// oracle probes in the workers.
pub fn replay_service(
    config: &RequestConfig,
    shards: usize,
    batching: Batching,
    reconfigs: &[ReconfigEvent],
    verify: bool,
) -> ServiceReplay {
    let frames = request_frames(&generate(config), reconfigs);
    let mut pool = ShardPool::new(config, shards, batching.quantum(), verify);
    let responses = drive(&mut pool, &frames, batching);
    pool.join();
    // Only the responses are needed from here on; dropping the frames
    // keeps them from sharing the peak with the split below.
    drop(frames);
    // Split in place: the few reconfigurations are copied out, then the
    // decisions are collected into the responses' own allocation (std
    // collects a `vec::IntoIter` in place when the new element is no
    // larger and no more aligned), so the trace is never held twice;
    // the shrink returns the unused tail before a caller renders it.
    let mut out_reconfigs: Vec<ReconfiguredFrame> = responses
        .iter()
        .filter_map(|r| match r {
            ResponseFrame::Reconfigured(rc) => Some(*rc),
            _ => None,
        })
        .collect();
    let mut decisions: Vec<DecisionFrame> = responses
        .into_iter()
        .filter_map(|r| match r {
            ResponseFrame::Decision(d) => Some(d),
            ResponseFrame::Reconfigured(_) => None,
            ResponseFrame::WhatIf(_) => panic!("unexpected what-if answer in replay"),
        })
        .collect();
    decisions.shrink_to_fit();
    decisions.sort_by_key(|d| d.seq);
    out_reconfigs.sort_by_key(|r| r.seq);
    ServiceReplay {
        decisions,
        reconfigs: out_reconfigs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::request_config;
    use crate::proto::Outcome;

    #[test]
    fn service_replay_matches_the_inproc_oracle() {
        let cfg = request_config(11, 4, 25);
        let want = replay_inproc(&cfg, &[]);
        let got = replay_service(&cfg, 2, Batching::Batched { quantum: 32 }, &[], false);
        assert_eq!(to_csv(&want.decisions), to_csv(&got.decisions));
        assert!(got.reconfigs.is_empty());
    }

    #[test]
    fn per_request_mode_reproduces_batched_output() {
        let cfg = request_config(11, 2, 15);
        let batched = replay_service(&cfg, 1, Batching::Batched { quantum: 64 }, &[], false);
        let sync = replay_service(&cfg, 1, Batching::PerRequest, &[], false);
        assert_eq!(to_csv(&batched.decisions), to_csv(&sync.decisions));
    }

    #[test]
    fn trace_exercises_admits_and_vacates() {
        let rows = replay_inproc(&request_config(11, 6, 40), &[]).decisions;
        let count = |o: Outcome| rows.iter().filter(|r| r.outcome == o).count();
        assert!(
            count(Outcome::Admit) > 0 && count(Outcome::Vacate) > 0,
            "degenerate trace"
        );
    }

    #[test]
    fn remote_offload_occurs_for_odd_tenants() {
        let rows = replay_inproc(&request_config(11, 2, 400), &[]).decisions;
        let remote: Vec<u32> = rows
            .iter()
            .filter(|r| r.outcome == Outcome::AdmitRemote)
            .map(|r| r.tenant)
            .collect();
        assert!(
            !remote.is_empty(),
            "expected at least one remote offload under overload"
        );
        assert!(
            remote.iter().all(|t| t % 2 == 1),
            "only odd tenants offload"
        );
    }

    /// A worker that panics must fail whatever drives the pool, with
    /// the worker's own message, instead of leaving the driver parked
    /// on the gate. `drive` does not validate frames (the socket front
    /// does), so an out-of-range stage reaches the engine and panics the
    /// worker.
    #[test]
    fn a_panicking_worker_fails_the_driver() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let cfg = request_config(11, 1, 4);
            let mut pool = ShardPool::new(&cfg, 1, 16, false);
            let bad = RequestFrame::Request(ReqFrame {
                seq: 0,
                time_s: 0.0,
                tenant: 0,
                class: 0,
                attach: 99,
                event: EventKind::Arrive,
                arrive_ix: 0,
            });
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drive(&mut pool, &[bad], Batching::Batched { quantum: 16 })
            }));
            let message = outcome.err().map(|p| match p.downcast::<String>() {
                Ok(s) => *s,
                Err(p) => p
                    .downcast_ref::<&str>()
                    .map_or_else(String::new, |s| s.to_string()),
            });
            let _ = done_tx.send(message);
        });
        let message = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the driver still waits on a dead worker after 30 s")
            .expect("the driver returned although its worker panicked");
        helper.join().expect("the helper reports and exits");
        assert!(message.contains("stays in range"), "{message}");
    }

    #[test]
    fn reconfig_frames_interleave_after_their_seq() {
        let trace = generate(&request_config(11, 2, 5));
        let events = [
            ReconfigEvent {
                after_seq: 0,
                tenant: 0,
                stage: 1,
                tier: 2,
            },
            ReconfigEvent {
                after_seq: 3,
                tenant: 1,
                stage: 0,
                tier: 0,
            },
        ];
        let frames = request_frames(&trace, &events);
        assert_eq!(frames.len(), trace.len() + events.len());
        assert!(matches!(frames[0], RequestFrame::Request(r) if r.seq == 0));
        assert!(matches!(
            frames[1],
            RequestFrame::Reconfigure(rc) if rc.seq == 0 && rc.tenant == 0
        ));
        assert!(matches!(frames[5], RequestFrame::Reconfigure(rc) if rc.seq == 1));
    }
}
