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

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use nc_admit::{oracle, AdmissionEngine, ClassId, Decision, FlowClass, Placement, TenantId};
use nc_core::pipeline::Pipeline;
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
    workers: Vec<JoinHandle<()>>,
    shards: usize,
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
        let gate = ProgressGate::new();
        let partitions = fleet::shard_tenants(config.tenants, shards);
        let mut to_shards = Vec::with_capacity(shards);
        let mut from_shards = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (ix, tenant_ixs) in partitions.into_iter().enumerate() {
            let (mut req_tx, req_rx) = link::<Envelope<RequestFrame>>(RING_CAP, &gate);
            let (mut resp_tx, resp_rx) = link::<Envelope<ResponseFrame>>(RING_CAP, &gate);
            req_tx.set_batch(quantum.max(1));
            resp_tx.set_batch(quantum.max(1));
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
            workers.push(handle);
        }
        ShardPool {
            gate,
            to_shards,
            from_shards,
            workers,
            shards,
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
    pub fn drain(&mut self, out: &mut Vec<Envelope<ResponseFrame>>) -> bool {
        let mut any = false;
        for rx in &mut self.from_shards {
            rx.poll();
            while let Some(env) = rx.pop() {
                out.push(env);
                any = true;
            }
        }
        any
    }

    /// Close every request ring: shards drain what is in flight, emit
    /// their remaining responses, and exit.
    pub fn close_requests(&mut self) {
        for tx in &mut self.to_shards {
            tx.close();
        }
    }

    /// `true` once every shard has exited and all responses are drained.
    pub fn exhausted(&self) -> bool {
        self.from_shards.iter().all(|rx| rx.exhausted())
    }

    /// Close the rings and join the workers, propagating panics (the
    /// verify probes assert inside the workers).
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
        for h in self.workers.drain(..) {
            h.join().expect("shard worker panicked");
        }
    }
}

/// Per-tenant worker-side state: the engine handle, the
/// arrival-indexed admission table departures consult, and (verify
/// mode) the shadow state the oracle recomputes from.
struct TenantSlot {
    /// Global tenant index.
    global: usize,
    tid: TenantId,
    /// Admission identity per arrival index (`None` = rejected or
    /// already vacated).
    admitted: Vec<Option<(ClassId, usize, Placement)>>,
    /// Verify mode: the local pipeline as reconfigured so far.
    shadow_local: Option<Pipeline>,
    /// Verify mode: resident `(attach, class)` pairs, local pipeline.
    res_local: Vec<(usize, ClassId)>,
    /// Verify mode: resident `(attach=0, class)` pairs, remote pipeline.
    res_remote: Vec<(usize, ClassId)>,
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
            admitted: Vec::new(),
            shadow_local: verify.then(|| fleet::tenant_pipeline(global)),
            res_local: Vec::new(),
            res_remote: Vec::new(),
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
            let slot_ix = *slot_of
                .get(&tenant_of(&env.frame))
                .expect("frame routed to the wrong shard");
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

fn tenant_of(frame: &RequestFrame) -> u32 {
    match frame {
        RequestFrame::Request(r) => r.tenant,
        RequestFrame::Reconfigure(r) => r.tenant,
        // WhatIf and Shutdown are service-level frames; the front never
        // routes them onto a shard ring.
        RequestFrame::WhatIf(_) | RequestFrame::Shutdown => {
            unreachable!("service-level frame on a shard ring")
        }
    }
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
        RequestFrame::Request(r) => ResponseFrame::Decision(decide_one(engine, slot, ids, r)),
        RequestFrame::Reconfigure(rc) => {
            ResponseFrame::Reconfigured(reconfigure_one(engine, slot, classes, ids, rc, verify))
        }
        RequestFrame::WhatIf(_) | RequestFrame::Shutdown => {
            unreachable!("service-level frame on a shard ring")
        }
    }
}

/// One arrival/departure against the shard's engine — the service-side
/// twin of the in-proc replay loop, producing the identical row.
fn decide_one(
    engine: &mut AdmissionEngine,
    slot: &mut TenantSlot,
    ids: &[ClassId],
    r: ReqFrame,
) -> DecisionFrame {
    let class = ids[r.class as usize];
    let (outcome, bound) = match r.event {
        EventKind::Arrive => {
            let d = engine
                .decide(slot.tid, class, r.attach as usize)
                .expect("validated request stays in range");
            if slot.admitted.len() <= r.arrive_ix as usize {
                slot.admitted.resize(r.arrive_ix as usize + 1, None);
            }
            slot.admitted[r.arrive_ix as usize] =
                d.placement().map(|p| (class, r.attach as usize, p));
            match d.placement() {
                Some(Placement::Local) => slot.res_local.push((r.attach as usize, class)),
                Some(Placement::Remote) => slot.res_remote.push((0, class)),
                None => {}
            }
            (Outcome::from_decision(&d), d.bound())
        }
        EventKind::Depart => match slot
            .admitted
            .get_mut(r.arrive_ix as usize)
            .and_then(Option::take)
        {
            Some((c, attach, placement)) => {
                engine
                    .depart(slot.tid, c, attach, placement)
                    .expect("resident flow departs cleanly");
                let res = match placement {
                    Placement::Local => &mut slot.res_local,
                    Placement::Remote => &mut slot.res_remote,
                };
                let key = (
                    if placement == Placement::Local {
                        attach
                    } else {
                        0
                    },
                    c,
                );
                if let Some(ix) = res.iter().position(|&e| e == key) {
                    res.swap_remove(ix);
                }
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

fn reconfigure_one(
    engine: &mut AdmissionEngine,
    slot: &mut TenantSlot,
    classes: &[FlowClass],
    ids: &[ClassId],
    rc: ReconfigFrame,
    verify: bool,
) -> ReconfiguredFrame {
    let node = fleet::reconfig_node(slot.global, rc.stage as usize, rc.tier as usize);
    let applied = engine.reconfigure_stage(slot.tid, rc.stage as usize, node.clone());
    let (ok, evicted) = match applied {
        Ok(evicted) => {
            if let Some(shadow) = slot.shadow_local.as_mut() {
                shadow.nodes[rc.stage as usize] = node;
            }
            (true, evicted as u64)
        }
        Err(_) => (false, 0),
    };
    if verify {
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
                if ok { "applied" } else { "rejected" }
            ),
        );
    }
    ReconfiguredFrame {
        seq: rc.seq,
        tenant: rc.tenant,
        stage: rc.stage,
        applied: ok,
        evicted,
    }
}

/// Every `peek` the engine can answer for this tenant equals a
/// from-scratch recomputation through the general curve algebra on the
/// shadow pipeline and resident sets — including the remote-offload
/// fallback, mirrored here exactly as `AdmissionEngine::peek` tries it
/// (remote at attachment 0, no budget, local rejection reason kept).
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
    let budget = Some(fleet::tenant_budget(slot.global));
    let remote = (slot.global % 2 == 1).then(fleet::remote_pipeline);
    for (ci, &class) in ids.iter().enumerate() {
        for attach in 0..shadow.nodes.len() {
            let got = engine.peek(slot.tid, class, attach).unwrap();
            let want = match oracle::decide_full(
                shadow,
                budget,
                classes,
                &slot.res_local,
                &classes[ci],
                attach,
            ) {
                Ok(bound) => Decision::Admit { bound },
                Err(reason) => match &remote {
                    Some(rp) => {
                        match oracle::decide_full(
                            rp,
                            None,
                            classes,
                            &slot.res_remote,
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

/// Tenant budget helper shared with the verify probe.
impl TenantSlot {
    #[cfg(test)]
    fn resident_total(&self) -> usize {
        self.res_local.len() + self.res_remote.len()
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
        let mut slot = TenantSlot {
            global: 0,
            tid: built.tenants[0].1,
            admitted: Vec::new(),
            shadow_local: None,
            res_local: Vec::new(),
            res_remote: Vec::new(),
        };
        let arrive = ReqFrame {
            seq: 0,
            time_s: 0.0,
            tenant: 0,
            class: 0,
            attach: 0,
            event: EventKind::Arrive,
            arrive_ix: 0,
        };
        let d = decide_one(&mut engine, &mut slot, &ids, arrive);
        assert_eq!(d.outcome, Outcome::Admit);
        assert_eq!(slot.resident_total(), 1);
        let depart = ReqFrame {
            event: EventKind::Depart,
            seq: 1,
            ..arrive
        };
        let d = decide_one(&mut engine, &mut slot, &ids, depart);
        assert_eq!(d.outcome, Outcome::Vacate);
        assert_eq!(slot.resident_total(), 0);
        // Departing the same arrival again is a noop.
        let d = decide_one(&mut engine, &mut slot, &ids, ReqFrame { seq: 2, ..depart });
        assert_eq!(d.outcome, Outcome::Noop);
    }
}
