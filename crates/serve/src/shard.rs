//! Shard-per-core engine workers behind the service front.
//!
//! Tenants are hash-routed (`tenant % shards`) to a shard; each shard
//! worker owns its own [`AdmissionEngine`] (and therefore its own
//! `ModelCache` and scalar arenas) and is fed over a bounded SPSC ring
//! pair built on [`nc_des::link`] (batched publication, a closed flag,
//! and a spin-then-park gate): requests in, responses out, every ring
//! publishing in batches of the `NC_PUB_QUANTUM` quantum so the hot
//! decision path pays one mutex acquisition and one gate bump per
//! *batch*, not per request.
//!
//! **Determinism.** Decisions are independent across tenants — each
//! tenant has its own path state, and the shared model cache affects
//! only speed, never results — and the front dispatches every frame of
//! a tenant in trace order onto that tenant's (unique) shard ring, an
//! order-preserving SPSC channel. Each tenant therefore observes the
//! identical operation sequence for *any* shard count, and responses
//! keyed by `seq` merge back to the serial output byte for byte — the
//! claim `tests/replay_determinism.rs` pins at 1/2/4 shards.
//!
//! **Reconfiguration under load.** A [`RequestFrame::Reconfigure`]
//! drains through the owning shard's ring like any other frame, so it
//! is serialized between decision batches of that tenant with no
//! cross-shard coordination. With [`ShardPool::new`]'s `verify` flag
//! set (integration tests), the worker re-derives every decision the
//! engine can answer for the reconfigured tenant from scratch through
//! the general curve algebra ([`nc_admit::oracle::decide_full`]) after
//! *every* reconfiguration and asserts equality — the service-level
//! extension of the seeded `stress_reconfig` suite.
//!
//! **One request path.** Every arrival and departure goes through a
//! tenant's `Ledger`, and every reconfiguration through `reconfigure`:
//! the shard worker and the in-proc oracle
//! ([`crate::replay::replay_inproc`]) share both, so they differ only
//! in routing, rings and wire framing.
//!
//! **Worker failure.** A worker that panics drops its response ring,
//! which closes it and wakes the front. The next [`ShardPool::drain`]
//! that finds that ring exhausted before [`ShardPool::close_requests`]
//! re-raises the worker's panic on the caller, so whatever drives the
//! pool fails with the worker's message instead of waiting forever.

use std::collections::HashMap;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::thread::JoinHandle;

use nc_admit::{oracle, AdmissionEngine, ClassId, Decision, FlowClass, Placement, TenantId};
use nc_core::pipeline::{Node, Pipeline};
use nc_des::link::{link, LinkRx, LinkTx, ProgressGate};
use nc_workloads::requests::RequestConfig;

use crate::fleet;
use crate::proto::{
    DecisionFrame, EventKind, Outcome, ReconfigFrame, ReconfiguredFrame, ReqFrame, RequestFrame,
    ResponseFrame,
};

/// Soft capacity of each request/response ring (frames).
pub const RING_CAP: usize = 1 << 14;

/// A frame tagged with the connection slot it belongs to, so responses
/// find their way back to the right client.
#[derive(Clone, Copy, Debug)]
pub struct Envelope<T> {
    /// Connection slot of the originating client (`0` for in-proc
    /// replay).
    pub conn: u32,
    /// The frame.
    pub frame: T,
}

/// The front half of the shard fleet: routing, rings, worker handles.
pub struct ShardPool {
    gate: Arc<ProgressGate>,
    to_shards: Vec<LinkTx<Envelope<RequestFrame>>>,
    from_shards: Vec<LinkRx<Envelope<ResponseFrame>>>,
    /// `None` once joined (or once its panic was re-raised).
    workers: Vec<Option<JoinHandle<()>>>,
    shards: usize,
    /// Publication quantum of every ring, frames.
    quantum: usize,
    /// Frames sent and not yet drained back as responses.
    owed: usize,
    /// Set by [`ShardPool::close_requests`]. Until then a worker exits
    /// only by panicking.
    requests_closed: bool,
}

impl ShardPool {
    /// Spawn `shards` engine workers for the fleet described by
    /// `config`, with ring publication batched at `quantum` frames
    /// (`1` = per-frame publication, the ablation baseline). `verify`
    /// turns on the post-reconfiguration oracle-equality probes
    /// (integration tests only — each probe is a full from-scratch
    /// recompute per class × stage).
    pub fn new(config: &RequestConfig, shards: usize, quantum: usize, verify: bool) -> ShardPool {
        let shards = shards.max(1);
        // The batch the links will use (`LinkTx::set_batch` clamps to
        // the ring capacity), so `quantum()` reports the real one.
        let quantum = quantum.clamp(1, RING_CAP);
        let gate = ProgressGate::new();
        let partitions = fleet::shard_tenants(config.tenants, shards);
        let mut to_shards = Vec::with_capacity(shards);
        let mut from_shards = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (ix, tenant_ixs) in partitions.into_iter().enumerate() {
            let (mut req_tx, req_rx) = link::<Envelope<RequestFrame>>(RING_CAP, &gate);
            let (mut resp_tx, resp_rx) = link::<Envelope<ResponseFrame>>(RING_CAP, &gate);
            req_tx.set_batch(quantum);
            resp_tx.set_batch(quantum);
            let cfg = config.clone();
            let worker_gate = Arc::clone(&gate);
            let handle = std::thread::Builder::new()
                .name(format!("nc-serve-shard-{ix}"))
                .spawn(move || {
                    shard_worker(&cfg, &tenant_ixs, req_rx, resp_tx, &worker_gate, verify)
                })
                .expect("spawn shard worker");
            to_shards.push(req_tx);
            from_shards.push(resp_rx);
            workers.push(Some(handle));
        }
        ShardPool {
            gate,
            to_shards,
            from_shards,
            workers,
            shards,
            quantum,
            owed: 0,
            requests_closed: false,
        }
    }

    /// The progress gate shared by the front and every shard.
    pub fn gate(&self) -> &Arc<ProgressGate> {
        &self.gate
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The ring publication quantum, frames: a shard publishes its
    /// responses every `quantum` frames, and whatever it holds before
    /// it parks.
    pub fn quantum(&self) -> usize {
        self.quantum
    }

    /// Frames sent to the shards whose responses [`ShardPool::drain`]
    /// has not returned yet. While this is at least
    /// [`ShardPool::quantum`], a shard publication — and with it a
    /// gate bump — is at most one quantum of work away.
    pub fn owed(&self) -> usize {
        self.owed
    }

    /// The shard owning a tenant.
    pub fn route(&self, tenant: u32) -> usize {
        tenant as usize % self.shards
    }

    /// `true` when the tenant's request ring is over its soft capacity
    /// — the front should drain responses and park instead of pushing.
    pub fn backlogged(&self, shard: usize) -> bool {
        self.to_shards[shard].backlogged()
    }

    /// Enqueue a frame on a shard's request ring (publishes per the
    /// batching quantum; never blocks).
    pub fn send(&mut self, shard: usize, conn: u32, frame: RequestFrame) {
        self.to_shards[shard].send(Envelope { conn, frame });
        self.owed += 1;
    }

    /// Publish any partially filled request batches. Must be called
    /// before parking on the gate — an unpublished batch would
    /// deadlock the shard waiting for it.
    pub fn flush(&mut self) {
        for tx in &mut self.to_shards {
            tx.flush();
        }
    }

    /// Drain every newly published response into `out`; `true` if any
    /// arrived.
    ///
    /// # Panics
    /// Re-raises a worker's panic once its response ring is exhausted
    /// before [`ShardPool::close_requests`]: the worker's dropped ring
    /// closed itself, and the responses it owes will never come.
    pub fn drain(&mut self, out: &mut Vec<Envelope<ResponseFrame>>) -> bool {
        let mut any = false;
        for (ix, rx) in self.from_shards.iter_mut().enumerate() {
            rx.poll();
            while let Some(env) = rx.pop() {
                out.push(env);
                self.owed -= 1;
                any = true;
            }
            if !self.requests_closed && rx.exhausted() {
                reraise(ix, self.workers[ix].take());
            }
        }
        any
    }

    /// Close every request ring: shards drain what is in flight, emit
    /// their remaining responses, and exit.
    pub fn close_requests(&mut self) {
        self.requests_closed = true;
        for tx in &mut self.to_shards {
            tx.close();
        }
    }

    /// `true` once every shard has exited and all responses are drained.
    pub fn exhausted(&self) -> bool {
        self.from_shards.iter().all(|rx| rx.exhausted())
    }

    /// Close the rings and join the workers, re-raising a worker's
    /// panic (the verify probes assert inside the workers).
    pub fn join(mut self) {
        self.close_requests();
        // Drain any stragglers so no worker parks on a full response
        // ring while we block in join. The exhausted re-check must
        // come *after* the drain's poll and *before* parking: a
        // worker's closing publication may carry no messages (drain
        // reports false), and its bump may predate `seen` — polling
        // refreshes the closed flag, so the transition is never the
        // thing we park waiting for.
        let mut rest = Vec::new();
        loop {
            let seen = self.gate.generation();
            let got = self.drain(&mut rest);
            if self.exhausted() {
                break;
            }
            if !got {
                self.gate.wait_past(seen);
            }
        }
        for h in self.workers.drain(..).flatten() {
            if let Err(payload) = h.join() {
                resume_unwind(payload);
            }
        }
    }
}

/// Re-raise the panic of shard worker `ix`, whose response ring closed
/// before its request ring did.
fn reraise(ix: usize, worker: Option<JoinHandle<()>>) -> ! {
    match worker.map(JoinHandle::join) {
        Some(Err(payload)) => resume_unwind(payload),
        _ => panic!("shard worker {ix} exited before its request ring closed"),
    }
}

/// One tenant's admission ledger: what each arrival admitted, by
/// arrival index. Every arrival and departure the service or its
/// in-proc oracle handles is applied through [`Ledger::apply`].
#[derive(Default)]
pub(crate) struct Ledger {
    /// Admission identity `(class, requested attach, placement)` per
    /// arrival index; `None` = rejected or already vacated.
    admitted: Vec<Option<(ClassId, usize, Placement)>>,
}

impl Ledger {
    /// Apply one arrival or departure of `tenant` to `engine` and
    /// record what it admitted. A departure vacates the flow its
    /// arrival admitted (`noop` if that arrival was rejected or has
    /// already left).
    ///
    /// # Panics
    /// Panics on a class or stage outside the fleet; the socket front
    /// validates every frame before it reaches a shard.
    pub(crate) fn apply(
        &mut self,
        engine: &mut AdmissionEngine,
        tenant: TenantId,
        classes: &[ClassId],
        r: ReqFrame,
    ) -> DecisionFrame {
        let class = classes[r.class as usize];
        let (outcome, bound) = match r.event {
            EventKind::Arrive => {
                let d = engine
                    .decide(tenant, class, r.attach as usize)
                    .expect("validated request stays in range");
                let ix = r.arrive_ix as usize;
                if self.admitted.len() <= ix {
                    self.admitted.resize(ix + 1, None);
                }
                self.admitted[ix] = d.placement().map(|p| (class, r.attach as usize, p));
                (Outcome::from_decision(&d), d.bound())
            }
            EventKind::Depart => match self
                .admitted
                .get_mut(r.arrive_ix as usize)
                .and_then(Option::take)
            {
                Some((c, attach, placement)) => {
                    engine
                        .depart(tenant, c, attach, placement)
                        .expect("resident flow departs cleanly");
                    (Outcome::Vacate, None)
                }
                None => (Outcome::Noop, None),
            },
        };
        DecisionFrame {
            seq: r.seq,
            time_s: r.time_s,
            tenant: r.tenant,
            class: r.class,
            attach: r.attach,
            event: r.event,
            outcome,
            bound,
        }
    }

    /// The resident `(attach, class)` pairs at `placement`, in arrival
    /// order. A remote flow sits at stage 0 of the remote pipeline,
    /// whatever stage it asked for locally.
    pub(crate) fn resident(&self, placement: Placement) -> Vec<(usize, ClassId)> {
        self.admitted
            .iter()
            .flatten()
            .filter(|&&(_, _, p)| p == placement)
            .map(|&(class, attach, p)| (if p == Placement::Local { attach } else { 0 }, class))
            .collect()
    }
}

/// Reprovision stage `rc.stage` of `tenant` at capacity tier `rc.tier`
/// ([`fleet::reconfig_node`]). Returns the response frame, and the new
/// node when the engine accepted it.
pub(crate) fn reconfigure(
    engine: &mut AdmissionEngine,
    tenant: TenantId,
    rc: ReconfigFrame,
) -> (ReconfiguredFrame, Option<Node>) {
    let node = fleet::reconfig_node(rc.tenant as usize, rc.stage as usize, rc.tier as usize);
    let (node, evicted) = match engine.reconfigure_stage(tenant, rc.stage as usize, node.clone()) {
        Ok(evicted) => (Some(node), evicted as u64),
        Err(_) => (None, 0),
    };
    let frame = ReconfiguredFrame {
        seq: rc.seq,
        tenant: rc.tenant,
        stage: rc.stage,
        applied: node.is_some(),
        evicted,
    };
    (frame, node)
}

/// Per-tenant worker-side state: the engine handle, the ledger, and
/// (verify mode) the shadow pipeline the oracle recomputes from.
struct TenantSlot {
    /// Global tenant index.
    global: usize,
    tid: TenantId,
    ledger: Ledger,
    /// Verify mode: the local pipeline as reconfigured so far.
    shadow_local: Option<Pipeline>,
}

fn shard_worker(
    config: &RequestConfig,
    tenant_ixs: &[usize],
    mut rx: LinkRx<Envelope<RequestFrame>>,
    mut tx: LinkTx<Envelope<ResponseFrame>>,
    gate: &Arc<ProgressGate>,
    verify: bool,
) {
    let built = fleet::build_shard(config, tenant_ixs);
    let mut engine = built.engine;
    let classes: Vec<FlowClass> = fleet::flow_classes(config);
    let ids = built.classes;
    let mut slots: Vec<TenantSlot> = built
        .tenants
        .iter()
        .map(|&(global, tid)| TenantSlot {
            global,
            tid,
            ledger: Ledger::default(),
            shadow_local: verify.then(|| fleet::tenant_pipeline(global)),
        })
        .collect();
    let slot_of: HashMap<u32, usize> = slots
        .iter()
        .enumerate()
        .map(|(i, s)| (s.global as u32, i))
        .collect();

    loop {
        let seen = gate.generation();
        rx.poll();
        let mut did = false;
        while !tx.backlogged() {
            let Some(env) = rx.pop() else { break };
            let slot_ix = *env
                .frame
                .tenant()
                .and_then(|t| slot_of.get(&t))
                .expect("engine frame routed to its shard");
            let resp = process(
                &mut engine,
                &mut slots[slot_ix],
                &classes,
                &ids,
                env.frame,
                verify,
            );
            tx.send(Envelope {
                conn: env.conn,
                frame: resp,
            });
            did = true;
        }
        if rx.exhausted() {
            break;
        }
        if !did {
            tx.flush();
            gate.wait_past(seen);
        }
    }
    tx.close();
}

fn process(
    engine: &mut AdmissionEngine,
    slot: &mut TenantSlot,
    classes: &[FlowClass],
    ids: &[ClassId],
    frame: RequestFrame,
    verify: bool,
) -> ResponseFrame {
    match frame {
        RequestFrame::Request(r) => {
            ResponseFrame::Decision(slot.ledger.apply(engine, slot.tid, ids, r))
        }
        RequestFrame::Reconfigure(rc) => {
            let (resp, node) = reconfigure(engine, slot.tid, rc);
            if verify {
                if let (Some(shadow), Some(node)) = (slot.shadow_local.as_mut(), node) {
                    shadow.nodes[rc.stage as usize] = node;
                }
                assert_oracle_equal(
                    engine,
                    slot,
                    classes,
                    ids,
                    &format!(
                        "tenant {} stage {} tier {} ({})",
                        rc.tenant,
                        rc.stage,
                        rc.tier,
                        if resp.applied { "applied" } else { "rejected" }
                    ),
                );
            }
            ResponseFrame::Reconfigured(resp)
        }
        RequestFrame::WhatIf(_) | RequestFrame::Shutdown => {
            unreachable!("service-level frame on a shard ring")
        }
    }
}

/// Every `peek` the engine can answer for this tenant equals a
/// from-scratch recomputation through the general curve algebra on the
/// shadow pipeline and the ledger's resident sets — including the
/// remote-offload fallback, mirrored here exactly as
/// `AdmissionEngine::peek` tries it (remote at attachment 0, no budget,
/// local rejection reason kept).
fn assert_oracle_equal(
    engine: &mut AdmissionEngine,
    slot: &TenantSlot,
    classes: &[FlowClass],
    ids: &[ClassId],
    context: &str,
) {
    let shadow = slot
        .shadow_local
        .as_ref()
        .expect("verify mode keeps a shadow");
    let on_local = slot.ledger.resident(Placement::Local);
    let on_remote = slot.ledger.resident(Placement::Remote);
    let budget = Some(fleet::tenant_budget(slot.global));
    let remote = (slot.global % 2 == 1).then(fleet::remote_pipeline);
    for (ci, &class) in ids.iter().enumerate() {
        for attach in 0..shadow.nodes.len() {
            let got = engine.peek(slot.tid, class, attach).unwrap();
            let want =
                match oracle::decide_full(shadow, budget, classes, &on_local, &classes[ci], attach)
                {
                    Ok(bound) => Decision::Admit { bound },
                    Err(reason) => match &remote {
                        Some(rp) => {
                            match oracle::decide_full(
                                rp,
                                None,
                                classes,
                                &on_remote,
                                &classes[ci],
                                0,
                            ) {
                                Ok(bound) => Decision::AdmitRemote { bound },
                                Err(_) => Decision::Reject { reason },
                            }
                        }
                        None => Decision::Reject { reason },
                    },
                };
            assert_eq!(
                got, want,
                "{context}: class {ci} attach {attach} diverged from the oracle"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::request_config;
    use nc_workloads::requests::{generate, ReqKind};

    /// Push a small trace through a 2-shard pool and check every
    /// request gets exactly one response, seq-complete.
    #[test]
    fn pool_round_trips_a_trace() {
        let cfg = request_config(11, 4, 20);
        let trace = generate(&cfg);
        let mut pool = ShardPool::new(&cfg, 2, 64, false);
        let mut out = Vec::new();
        let gate = Arc::clone(pool.gate());
        let mut fed = 0usize;
        while out.len() < trace.len() {
            let seen = gate.generation();
            let mut progress = false;
            while fed < trace.len() {
                let r = trace[fed];
                let shard = pool.route(r.tenant);
                if pool.backlogged(shard) {
                    break;
                }
                pool.send(
                    shard,
                    0,
                    RequestFrame::Request(ReqFrame {
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
                    }),
                );
                fed += 1;
                progress = true;
            }
            pool.flush();
            progress |= pool.drain(&mut out);
            if !progress {
                gate.wait_past(seen);
            }
        }
        assert_eq!(pool.owed(), 0, "every frame sent was drained back");
        pool.join();
        let mut seqs: Vec<u64> = out
            .iter()
            .map(|e| match e.frame {
                ResponseFrame::Decision(d) => d.seq,
                _ => panic!("unexpected response"),
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..trace.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn slot_bookkeeping_tracks_residency() {
        let cfg = request_config(11, 1, 0);
        let built = fleet::build_shard(&cfg, &[0]);
        let mut engine = built.engine;
        let ids = built.classes;
        let tid = built.tenants[0].1;
        let mut ledger = Ledger::default();
        let arrive = ReqFrame {
            seq: 0,
            time_s: 0.0,
            tenant: 0,
            class: 0,
            attach: 0,
            event: EventKind::Arrive,
            arrive_ix: 0,
        };
        let d = ledger.apply(&mut engine, tid, &ids, arrive);
        assert_eq!(d.outcome, Outcome::Admit);
        assert_eq!(ledger.resident(Placement::Local), vec![(0, ids[0])]);
        assert!(ledger.resident(Placement::Remote).is_empty());
        let depart = ReqFrame {
            event: EventKind::Depart,
            seq: 1,
            ..arrive
        };
        let d = ledger.apply(&mut engine, tid, &ids, depart);
        assert_eq!(d.outcome, Outcome::Vacate);
        assert!(ledger.resident(Placement::Local).is_empty());
        // Departing the same arrival again is a noop.
        let d = ledger.apply(&mut engine, tid, &ids, ReqFrame { seq: 2, ..depart });
        assert_eq!(d.outcome, Outcome::Noop);
    }
}
