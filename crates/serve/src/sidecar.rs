//! What-if sidecar: capacity queries answered off the decision path.
//!
//! A `WhatIf` frame asks "if tenant *t*'s offered load moved, how much
//! headroom is left?". Answering means running an `nc-sweep` grid over
//! the tenant's **current local pipeline** — milliseconds of work that
//! must not stall the shard workers. The sidecar is a single dedicated
//! thread fed over an mpsc channel; the service forwards queries to
//! it, keeps serving decisions, and collects answers from the reply
//! channel whenever its event loop comes around.
//!
//! The sidecar holds its own snapshot of every tenant's local
//! pipeline. The service keeps that snapshot fresh by forwarding each
//! **applied** reconfiguration (the same `fleet::reconfig_node`
//! transform the shard applied), so what-if answers reflect the
//! post-reconfiguration fleet without the sidecar ever touching an
//! engine.
//!
//! Each answer bumps the shard pool's progress gate once it is on the
//! reply channel, so an event loop parked on that gate wakes for it as
//! it would for a shard publication.

use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread;

use nc_core::num::Rat;
use nc_core::pipeline::Pipeline;
use nc_des::link::ProgressGate;
use nc_sweep::{Axis, Param, SweepSpec};
use nc_workloads::requests::RequestConfig;

use crate::fleet;
use crate::proto::{WhatIfAnswer, WhatIfFrame};

/// Grid sizes outside this range are clamped before sweeping.
pub const MAX_POINTS: u32 = 256;

enum Cmd {
    Query { conn: u32, frame: WhatIfFrame },
    Update { tenant: u32, stage: u32, tier: u32 },
    Stop,
}

/// Handle to the sidecar thread.
pub struct Sidecar {
    tx: Sender<Cmd>,
    answers: Receiver<(u32, WhatIfAnswer)>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Sidecar {
    /// Spawn the sidecar with a pipeline snapshot of the fleet
    /// described by `config`. `gate` is bumped after every answer.
    pub fn spawn(config: &RequestConfig, gate: &Arc<ProgressGate>) -> Self {
        let pipelines: Vec<Pipeline> = (0..config.tenants).map(fleet::tenant_pipeline).collect();
        let (tx, rx) = channel::<Cmd>();
        let (ans_tx, answers) = channel();
        let gate = Arc::clone(gate);
        let handle = thread::Builder::new()
            .name("nc-serve-sidecar".into())
            .spawn(move || worker(pipelines, rx, ans_tx, &gate))
            .expect("spawn sidecar thread");
        Sidecar {
            tx,
            answers,
            handle: Some(handle),
        }
    }

    /// Enqueue a what-if query on behalf of connection `conn`.
    pub fn query(&self, conn: u32, frame: WhatIfFrame) {
        let _ = self.tx.send(Cmd::Query { conn, frame });
    }

    /// Mirror an applied reconfiguration into the snapshot.
    pub fn update(&self, tenant: u32, stage: u32, tier: u32) {
        let _ = self.tx.send(Cmd::Update {
            tenant,
            stage,
            tier,
        });
    }

    /// Collect one finished answer, if any.
    ///
    /// # Panics
    /// Panics if the sidecar thread died (a query would otherwise hang
    /// its connection forever).
    pub fn poll(&self) -> Option<(u32, WhatIfAnswer)> {
        match self.answers.try_recv() {
            Ok(hit) => Some(hit),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => panic!("sidecar thread died"),
        }
    }

    /// Stop the thread after it drains pending queries and join it.
    pub fn join(mut self) {
        let _ = self.tx.send(Cmd::Stop);
        if let Some(h) = self.handle.take() {
            h.join().expect("sidecar thread panicked");
        }
    }
}

impl Drop for Sidecar {
    fn drop(&mut self) {
        let _ = self.tx.send(Cmd::Stop);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn worker(
    mut pipelines: Vec<Pipeline>,
    rx: Receiver<Cmd>,
    answers: Sender<(u32, WhatIfAnswer)>,
    gate: &ProgressGate,
) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Query { conn, frame } => {
                let answer = answer(&pipelines, &frame);
                if answers.send((conn, answer)).is_err() {
                    break;
                }
                // After the send: a waiter woken by this bump finds
                // the answer on the channel.
                gate.bump();
            }
            Cmd::Update {
                tenant,
                stage,
                tier,
            } => {
                if let Some(p) = pipelines.get_mut(tenant as usize) {
                    if (stage as usize) < p.nodes.len() {
                        p.nodes[stage as usize] =
                            fleet::reconfig_node(tenant as usize, stage as usize, tier as usize);
                    }
                }
            }
            Cmd::Stop => break,
        }
    }
}

/// Sweep the tenant's offered load over `[½·R, 1½·R]` on a
/// `points`-point grid and summarise feasibility: how many grid points
/// keep the concatenated delay bound finite, and the worst finite
/// bound seen.
pub fn answer(pipelines: &[Pipeline], frame: &WhatIfFrame) -> WhatIfAnswer {
    let points = frame.points.clamp(2, MAX_POINTS);
    let Some(base) = pipelines.get(frame.tenant as usize) else {
        return WhatIfAnswer {
            id: frame.id,
            tenant: frame.tenant,
            points: 0,
            feasible: 0,
            worst_delay: None,
        };
    };
    let rate = base.source.rate;
    // Grid points are snapped to whole bytes/s: `linspace` denominators
    // (n-1 per step) compound through the exact min-plus algebra and
    // can overflow the i128 rationals on deconvolution; whole-number
    // rates keep the curve arithmetic in the same regime as the fleet
    // pipelines themselves.
    let lo = rate * Rat::new(1, 2);
    let hi = rate * Rat::new(3, 2);
    let values: Vec<Rat> = (0..points)
        .map(|k| {
            let v = lo + (hi - lo) * Rat::new(k as i128, (points - 1) as i128);
            Rat::new(v.floor().max(1), 1)
        })
        .collect();
    let spec = SweepSpec {
        base: base.clone(),
        axes: vec![Axis::new(Param::SourceRate, values)],
        horizons: vec![],
        sim: None,
        tail: None,
    };
    let surface = nc_sweep::run(&spec);
    let mut feasible = 0u32;
    let mut worst: Option<Rat> = None;
    for p in &surface.points {
        if let Some(d) = p.delay_concat.as_finite() {
            feasible += 1;
            worst = Some(match worst {
                Some(w) if w >= d => w,
                _ => d,
            });
        }
    }
    WhatIfAnswer {
        id: frame.id,
        tenant: frame.tenant,
        points,
        feasible,
        worst_delay: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::request_config;
    use std::time::{Duration, Instant};

    #[test]
    fn sidecar_answers_and_tracks_reconfigurations() {
        let cfg = request_config(11, 4, 10);
        let sc = Sidecar::spawn(&cfg, &ProgressGate::new());
        sc.query(
            7,
            WhatIfFrame {
                id: 42,
                tenant: 1,
                points: 8,
            },
        );
        let (conn, ans) = loop {
            if let Some(hit) = sc.poll() {
                break hit;
            }
            std::thread::yield_now();
        };
        assert_eq!(conn, 7);
        assert_eq!(ans.id, 42);
        assert_eq!(ans.points, 8);
        // The fleet provisions every tenant feasibly at its nominal
        // rate; at least the low-load half of the grid must hold.
        assert!(ans.feasible >= ans.points / 2, "feasible={}", ans.feasible);
        assert!(ans.worst_delay.is_some());

        // A tier-0 downgrade (0.75x) on the bottleneck stage lowers
        // the feasibility threshold below the nominal rate: the
        // snapshot updates and strictly fewer grid points stay
        // feasible.
        sc.update(1, 2, 0);
        sc.query(
            7,
            WhatIfFrame {
                id: 43,
                tenant: 1,
                points: 8,
            },
        );
        let (_, degraded) = loop {
            if let Some(hit) = sc.poll() {
                break hit;
            }
            std::thread::yield_now();
        };
        assert!(
            degraded.feasible < ans.feasible,
            "downgrade must shrink feasibility: {} vs {}",
            degraded.feasible,
            ans.feasible
        );
        sc.join();
    }

    /// An event loop parked on the pool's gate must wake for an
    /// answer: the generation moves once the answer is sent.
    #[test]
    fn each_answer_bumps_the_gate() {
        let gate = ProgressGate::new();
        let sc = Sidecar::spawn(&request_config(11, 2, 4), &gate);
        let seen = gate.generation();
        sc.query(
            3,
            WhatIfFrame {
                id: 5,
                tenant: 1,
                points: 2,
            },
        );
        let (conn, ans) = loop {
            if let Some(hit) = sc.poll() {
                break hit;
            }
            std::thread::yield_now();
        };
        assert_eq!((conn, ans.id), (3, 5));
        // The bump follows the send; allow the sidecar time to reach
        // it, but fail rather than hang if it never comes.
        let deadline = Instant::now() + Duration::from_secs(60);
        while gate.generation() == seen {
            assert!(
                Instant::now() < deadline,
                "the answer never bumped the gate"
            );
            std::thread::yield_now();
        }
        sc.join();
    }

    #[test]
    fn unknown_tenant_answers_empty() {
        let pipelines = [fleet::tenant_pipeline(0)];
        let ans = answer(
            &pipelines,
            &WhatIfFrame {
                id: 1,
                tenant: 99,
                points: 4,
            },
        );
        assert_eq!(ans.points, 0);
        assert_eq!(ans.feasible, 0);
    }
}
