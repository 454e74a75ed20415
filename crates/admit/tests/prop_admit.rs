//! Property tests for the admission engine.
//!
//! * **Oracle equivalence** — on random pipelines, flow classes, and
//!   request sequences (admits and departs interleaved), every engine
//!   decision (placement, rejection reason, and the exact rational
//!   bound) equals a from-scratch, uncached recomputation through the
//!   general curve algebra ([`nc_admit::oracle::decide_full`]).
//! * **Monotonicity** — a flow admitted at some (rate, burst) is still
//!   admitted after shrinking either parameter, against the same
//!   engine state. The service side is frozen at onboarding, so the
//!   decision is monotone in the arrival envelope (DESIGN.md §13).
//! * **The grid where it can go wrong** — oracle equivalence again, on
//!   stage rates that are not integers (so the rate grid `dr` exceeds
//!   1 and each `m_j` carries the rate's denominator), across a class
//!   registered while flows are resident, and across a stage
//!   reconfigured while flows are resident; both re-grid every path
//!   and rebuild its aggregates from the resident counts.

use nc_admit::{oracle, AdmissionEngine, ClassId, Decision, FlowClass, Placement};
use nc_core::num::{rat, Rat};
use nc_core::pipeline::{Node, NodeKind, Pipeline, Source, StageRates};
use proptest::prelude::*;

fn node(i: usize, rate: i64, job: i64, latency_q: i64) -> Node {
    Node::new(
        format!("s{i}"),
        NodeKind::Compute,
        StageRates::fixed(Rat::int(rate)),
        rat(latency_q as i128, 4),
        Rat::int(job),
        Rat::int(job),
    )
}

/// Strategy: a small random pipeline with integer stage rates, job
/// sizes, and quarter-second dispatch latencies.
fn arb_pipeline() -> impl Strategy<Value = Pipeline> {
    let stage = (4i64..=40, 1i64..=8, 0i64..=4);
    (
        proptest::collection::vec(stage, 1..=4),
        1i64..=10, // source rate
        0i64..=16, // source burst
    )
        .prop_map(|(stages, src_rate, src_burst)| {
            let nodes = stages
                .into_iter()
                .enumerate()
                .map(|(i, (rate, job, lat))| node(i, rate, job, lat))
                .collect();
            Pipeline::new(
                "p",
                Source {
                    rate: Rat::int(src_rate),
                    burst: Rat::int(src_burst),
                },
                nodes,
            )
        })
}

/// Strategy: a flow class with quarter-unit rate/burst and a deadline
/// spanning trivially-met to hopeless.
fn arb_class(i: usize) -> impl Strategy<Value = FlowClass> {
    (1i64..=16, 1i64..=16, 1i64..=64).prop_map(move |(rate_q, burst_q, dl_q)| FlowClass {
        name: format!("c{i}"),
        rate: rat(rate_q as i128, 4),
        burst: rat(burst_q as i128, 4),
        block: rat(1, 4),
        deadline: rat(dl_q as i128, 4),
    })
}

fn arb_classes() -> impl Strategy<Value = Vec<FlowClass>> {
    proptest::collection::vec((1i64..=16, 1i64..=16, 1i64..=64), 1..=4).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (rate_q, burst_q, dl_q))| FlowClass {
                name: format!("c{i}"),
                rate: rat(rate_q as i128, 4),
                burst: rat(burst_q as i128, 4),
                block: rat(1, 4),
                deadline: rat(dl_q as i128, 4),
            })
            .collect()
    })
}

/// One scripted request: admit (class, attach) or depart the i-th
/// oldest resident flow.
#[derive(Clone, Debug)]
enum Req {
    Decide { class: usize, attach: usize },
    Depart { index: usize },
}

fn arb_requests() -> impl Strategy<Value = Vec<Req>> {
    // kind 0 departs, 1..5 decide — an 80/20 mix keeps a resident
    // population around while still exercising the depart path.
    let req = (0usize..5, 0usize..4, 0usize..8).prop_map(|(kind, class, index)| {
        if kind == 0 {
            Req::Depart { index }
        } else {
            Req::Decide {
                class,
                attach: index % 4,
            }
        }
    });
    proptest::collection::vec(req, 1..=16)
}

/// `Option` strategy (the vendored proptest subset has no
/// `proptest::option`): `None` in one case out of three.
fn opt<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (0usize..3, inner).prop_map(|(on, v)| (on > 0).then_some(v))
}

/// The oracle-side composition mirroring `AdmissionEngine::decide`:
/// local first, remote (attach 0) on local rejection.
#[allow(clippy::too_many_arguments)]
fn oracle_decide(
    local: &Pipeline,
    local_budget: Option<Rat>,
    remote: Option<&Pipeline>,
    classes: &[FlowClass],
    local_resident: &[(usize, ClassId)],
    remote_resident: &[(usize, ClassId)],
    candidate: &FlowClass,
    attach: usize,
) -> Decision {
    match oracle::decide_full(
        local,
        local_budget,
        classes,
        local_resident,
        candidate,
        attach,
    ) {
        Ok(bound) => Decision::Admit { bound },
        Err(reason) => {
            if let Some(r) = remote {
                if let Ok(bound) =
                    oracle::decide_full(r, None, classes, remote_resident, candidate, 0)
                {
                    return Decision::AdmitRemote { bound };
                }
            }
            Decision::Reject { reason }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental decisions — placement, reason, and exact bound —
    /// equal full uncached recomputation, across admits and departs.
    #[test]
    fn engine_matches_full_recomputation(
        local in arb_pipeline(),
        remote in opt(arb_pipeline()),
        budget_extra in opt(0i64..=32),
        classes in arb_classes(),
        requests in arb_requests(),
    ) {
        let budget = budget_extra.map(|x| local.source.burst + Rat::int(x));
        let mut engine = AdmissionEngine::new();
        let tenant = engine.add_tenant(local.clone(), budget).unwrap();
        if let Some(r) = &remote {
            engine.set_remote(tenant, r.clone(), None).unwrap();
        }
        let mut ids = Vec::new();
        for c in &classes {
            ids.push(engine.register_class(c.clone()).unwrap());
        }

        // Shadow state for the oracle: resident (attach, class) pairs
        // per path, in admission order.
        let mut local_res: Vec<(usize, ClassId)> = Vec::new();
        let mut remote_res: Vec<(usize, ClassId)> = Vec::new();
        // (attach requested, class, placement) per live flow.
        let mut live: Vec<(usize, ClassId, Placement)> = Vec::new();

        for req in requests {
            match req {
                Req::Decide { class, attach } => {
                    let class = ids[class % ids.len()];
                    let attach = attach % local.nodes.len();
                    let got = engine.decide(tenant, class, attach).unwrap();
                    let want = oracle_decide(
                        &local,
                        budget,
                        remote.as_ref(),
                        &classes,
                        &local_res,
                        &remote_res,
                        &classes[class.0],
                        attach,
                    );
                    prop_assert_eq!(got, want);
                    match got.placement() {
                        Some(Placement::Local) => {
                            local_res.push((attach, class));
                            live.push((attach, class, Placement::Local));
                        }
                        Some(Placement::Remote) => {
                            remote_res.push((0, class));
                            live.push((attach, class, Placement::Remote));
                        }
                        None => {}
                    }
                }
                Req::Depart { index } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (attach, class, placement) = live.remove(index % live.len());
                    engine.depart(tenant, class, attach, placement).unwrap();
                    let shadow = match placement {
                        Placement::Local => &mut local_res,
                        Placement::Remote => &mut remote_res,
                    };
                    let key = if placement == Placement::Local { attach } else { 0 };
                    let pos = shadow.iter().position(|&e| e == (key, class)).unwrap();
                    shadow.remove(pos);
                }
            }
        }
    }

    /// An admitted flow stays admitted when its rate or burst shrinks
    /// (same deadline, same engine state).
    #[test]
    fn admission_is_monotone_in_rate_and_burst(
        local in arb_pipeline(),
        budget_extra in opt(0i64..=32),
        classes in arb_classes(),
        requests in arb_requests(),
        big in arb_class(100),
        shrink_rate_q in 1i64..=16,
        shrink_burst_q in 1i64..=16,
        attach in 0usize..4,
    ) {
        let budget = budget_extra.map(|x| local.source.burst + Rat::int(x));
        let mut engine = AdmissionEngine::new();
        let tenant = engine.add_tenant(local.clone(), budget).unwrap();
        let mut ids = Vec::new();
        for c in &classes {
            ids.push(engine.register_class(c.clone()).unwrap());
        }
        // Load the engine with a random resident population.
        for req in requests {
            if let Req::Decide { class, attach } = req {
                let _ = engine.decide(tenant, ids[class % ids.len()], attach % local.nodes.len());
            }
        }

        let small = FlowClass {
            rate: big.rate.min(rat(shrink_rate_q as i128, 4)),
            burst: big.burst.min(rat(shrink_burst_q as i128, 4)),
            ..big.clone()
        };
        let big_id = engine.register_class(big).unwrap();
        let small_id = engine.register_class(small).unwrap();
        let attach = attach % local.nodes.len();
        let big_decision = engine.peek(tenant, big_id, attach).unwrap();
        if big_decision.is_admitted() {
            let small_decision = engine.peek(tenant, small_id, attach).unwrap();
            prop_assert!(
                small_decision.is_admitted(),
                "big admitted as {:?} but shrunk candidate rejected as {:?}",
                big_decision,
                small_decision
            );
        }
    }
}

/// A stage with rate `rate_q/3` B/s.
fn node_thirds(i: usize, rate_q: i64, job: i64, latency_q: i64) -> Node {
    Node::new(
        format!("s{i}"),
        NodeKind::Compute,
        StageRates::fixed(rat(rate_q as i128, 3)),
        rat(latency_q as i128, 4),
        Rat::int(job),
        Rat::int(job),
    )
}

/// Strategy: as [`arb_pipeline`], with stage rates in thirds of a
/// byte per second (4 to 40 B/s).
fn arb_pipeline_thirds() -> impl Strategy<Value = Pipeline> {
    let stage = (12i64..=120, 1i64..=8, 0i64..=4);
    (
        proptest::collection::vec(stage, 1..=4),
        1i64..=10,
        0i64..=16,
    )
        .prop_map(|(stages, src_rate, src_burst)| {
            let nodes = stages
                .into_iter()
                .enumerate()
                .map(|(i, (rate_q, job, lat))| node_thirds(i, rate_q, job, lat))
                .collect();
            Pipeline::new(
                "p",
                Source {
                    rate: Rat::int(src_rate),
                    burst: Rat::int(src_burst),
                },
                nodes,
            )
        })
}

/// One step of a script that may also reshape the engine while flows
/// are resident.
#[derive(Clone, Debug)]
enum Step {
    Req(Req),
    /// Register a class with rate `rate_q/3`, burst `burst_q/5` and
    /// deadline `dl_q/7`: denominators no earlier class has, so every
    /// path's grid changes.
    Register {
        rate_q: i64,
        burst_q: i64,
        dl_q: i64,
    },
    /// Raise a local stage's rate by `extra_q/7` B/s. Raising it keeps
    /// every resident flow rate-feasible, which the oracle needs.
    Upgrade {
        stage: usize,
        extra_q: i64,
    },
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    arb_requests().prop_map(|reqs| reqs.into_iter().map(Step::Req).collect())
}

/// `before`, then `mid`, then `after`.
fn script(before: Vec<Step>, mid: Step, after: Vec<Step>) -> Vec<Step> {
    before
        .into_iter()
        .chain(std::iter::once(mid))
        .chain(after)
        .collect()
}

/// Run `steps` on a fresh engine and assert that every decision
/// (placement, reason and exact bound) equals the oracle's on the
/// shadow pipeline, classes and resident sets.
fn check_against_oracle(
    mut local: Pipeline,
    remote: Option<Pipeline>,
    budget: Option<Rat>,
    mut classes: Vec<FlowClass>,
    steps: Vec<Step>,
) {
    let mut engine = AdmissionEngine::new();
    let tenant = engine.add_tenant(local.clone(), budget).unwrap();
    if let Some(r) = &remote {
        engine.set_remote(tenant, r.clone(), None).unwrap();
    }
    let mut ids: Vec<ClassId> = classes
        .iter()
        .map(|c| engine.register_class(c.clone()).unwrap())
        .collect();
    let mut local_res: Vec<(usize, ClassId)> = Vec::new();
    let mut remote_res: Vec<(usize, ClassId)> = Vec::new();
    let mut live: Vec<(usize, ClassId, Placement)> = Vec::new();
    for step in steps {
        match step {
            Step::Req(Req::Decide { class, attach }) => {
                let class = ids[class % ids.len()];
                let attach = attach % local.nodes.len();
                let got = engine.decide(tenant, class, attach).unwrap();
                let want = oracle_decide(
                    &local,
                    budget,
                    remote.as_ref(),
                    &classes,
                    &local_res,
                    &remote_res,
                    &classes[class.0],
                    attach,
                );
                assert_eq!(got, want);
                match got.placement() {
                    Some(Placement::Local) => local_res.push((attach, class)),
                    Some(Placement::Remote) => remote_res.push((0, class)),
                    None => continue,
                }
                live.push((attach, class, got.placement().unwrap()));
            }
            Step::Req(Req::Depart { index }) => {
                if live.is_empty() {
                    continue;
                }
                let (attach, class, placement) = live.remove(index % live.len());
                engine.depart(tenant, class, attach, placement).unwrap();
                let (shadow, key) = match placement {
                    Placement::Local => (&mut local_res, attach),
                    Placement::Remote => (&mut remote_res, 0),
                };
                let pos = shadow.iter().position(|&e| e == (key, class)).unwrap();
                shadow.remove(pos);
            }
            Step::Register {
                rate_q,
                burst_q,
                dl_q,
            } => {
                let c = FlowClass {
                    name: format!("late{}", classes.len()),
                    rate: rat(rate_q as i128, 3),
                    burst: rat(burst_q as i128, 5),
                    block: rat(1, 5),
                    deadline: rat(dl_q as i128, 7),
                };
                ids.push(engine.register_class(c.clone()).unwrap());
                classes.push(c);
            }
            Step::Upgrade { stage, extra_q } => {
                let stage = stage % local.nodes.len();
                let mut node = local.nodes[stage].clone();
                node.rates = StageRates::fixed(node.rates.min + rat(extra_q as i128, 7));
                engine
                    .reconfigure_stage(tenant, stage, node.clone())
                    .unwrap();
                local.nodes[stage] = node;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Oracle equivalence on stage rates in thirds, local and remote.
    #[test]
    fn fractional_stage_rates_match_full_recomputation(
        local in arb_pipeline_thirds(),
        remote in opt(arb_pipeline_thirds()),
        budget_extra in opt(0i64..=32),
        classes in arb_classes(),
        steps in arb_steps(),
    ) {
        let budget = budget_extra.map(|x| local.source.burst + Rat::int(x));
        check_against_oracle(local, remote, budget, classes, steps);
    }

    /// Oracle equivalence across a class registered while flows are
    /// resident on both paths.
    #[test]
    fn a_class_registered_with_flows_resident_matches_full_recomputation(
        local in arb_pipeline(),
        remote in opt(arb_pipeline()),
        budget_extra in opt(0i64..=32),
        classes in arb_classes(),
        before in arb_steps(),
        late in (1i64..=12, 1i64..=20, 1i64..=112),
        after in arb_steps(),
    ) {
        let budget = budget_extra.map(|x| local.source.burst + Rat::int(x));
        let (rate_q, burst_q, dl_q) = late;
        let register = Step::Register { rate_q, burst_q, dl_q };
        check_against_oracle(local, remote, budget, classes, script(before, register, after));
    }

    /// Oracle equivalence across a stage reconfiguration made while
    /// flows are resident.
    #[test]
    fn a_reconfiguration_with_flows_resident_matches_full_recomputation(
        local in arb_pipeline(),
        remote in opt(arb_pipeline()),
        budget_extra in opt(0i64..=32),
        classes in arb_classes(),
        before in arb_steps(),
        upgrade in (0usize..4, 1i64..=20),
        after in arb_steps(),
    ) {
        let budget = budget_extra.map(|x| local.source.burst + Rat::int(x));
        let (stage, extra_q) = upgrade;
        let upgrade = Step::Upgrade { stage, extra_q };
        check_against_oracle(local, remote, budget, classes, script(before, upgrade, after));
    }
}
