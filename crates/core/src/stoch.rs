//! Stochastic network calculus: tail SLO bounds (DESIGN.md §15).
//!
//! The deterministic layer answers "what is the worst case?"; this
//! module answers "what holds with probability ≥ 1 − ε?" in the style
//! of Jiang's stochastic service curves (violation-probability
//! envelopes, arXiv:1303.3026): a curve paired with the probability
//! mass on which it may be exceeded, composed across stages by the
//! union bound.
//!
//! [`Pipeline::tail_bounds`] is the service: given a finite-run
//! description ([`StochSpec`]: per-stage job counts and per-stage
//! fault-occurrence probabilities) and a violation budget ε, it
//! produces the tightest closed-form `x` with `P(delay > x) ≤ ε` (and
//! likewise backlog) that the allocation ladder below can certify.
//! Each stage's rewrite is a [`StageEnvelope`] that carries the mass
//! it charges; the union bound is the sum of those charges, and the
//! ladder keeps every candidate's sum within ε.
//!
//! ## The per-stage envelope (why this is exact, not asymptotic)
//!
//! The simulator's `Uniform` service model draws each job's service
//! time independently from `U[b/R_max, b/R_min]`. For a per-job
//! exceedance level θ ∈ [0, 1] the θ-quantile of that distribution is
//! `q_θ(b) = b·((1 − θ)/R_max + θ/R_min)` — *linear in b*, so "every
//! job finishes within its θ-quantile" is exactly the statement that
//! the stage serves at the harmonically interpolated rate
//!
//! ```text
//!   R_eff(θ) = 1 / ((1 − θ)/R_max + θ/R_min)   ∈ [R_min, R_max]
//! ```
//!
//! and `P(one job exceeds q_θ) = 1 − θ` *exactly* (a rational!). Over
//! a finite run with `n` jobs at the stage, the union bound charges
//! `n·(1 − θ)` for the event "some job of this stage exceeds its
//! quantile"; on the complement the run is pathwise contained in the
//! deterministic model built with `R_min := R_eff(θ)` — the same
//! containment argument the cross-model suite already validates for
//! θ = 1. Setting θ = 1 recovers `R_min` and charges ε = 0, so the
//! ε = 0 tail bound is bit-equal to the deterministic bound.
//!
//! ## Probabilistic faults
//!
//! A stage fault ([`crate::fault::FaultModel`]) with occurrence
//! probability `q` (supplied in [`StochSpec::fault_prob`], not stored
//! on the node) may be *cleared* by spending ε = q: the stage is
//! analyzed fault-free, and the union bound charges the probability
//! that the fault occurs after all. Keeping the fault costs nothing.
//! An outage of probability q thus becomes an ε-budgeted derate
//! instead of a worst-case one.
//!
//! ## Budget allocation
//!
//! [`Pipeline::tail_bounds`] minimizes over a ladder of sound
//! allocations: clear the `k` cheapest faults (k = 0, 1, …, while
//! affordable) and spread the leftover budget uniformly over the
//! stages with a nontrivial rate spread. Every candidate is
//! individually a valid `(bound, ε)` certificate, so the pointwise
//! minimum is too; the deterministic candidate is always included, so
//! the tail bound never exceeds the worst-case bound and is monotone
//! non-increasing in ε (a larger budget dominates a smaller one
//! candidate-by-candidate). Bouillard's accuracy-vs-tractability
//! framing (arXiv:2010.09263) motivates the per-stage-sum ablation
//! also reported in [`TailBounds`].

use crate::num::{Rat, Value};
use crate::pipeline::{ModelCache, Pipeline, PipelineModel, StageRates};

/// Description of one finite run of a pipeline, for the union-bound
/// accounting: how many jobs each stage serves, and the occurrence
/// probability of each stage's fault hypothesis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StochSpec {
    /// Jobs served per stage over the run (≥ 1 per stage).
    pub jobs: Vec<i128>,
    /// Per-stage fault-occurrence probability. `Some(q)` marks the
    /// stage's [`crate::fault::FaultModel`] as probabilistic (present
    /// with probability q, clearable by spending ε = q); `None` keeps
    /// it deterministic (always applied, never cleared).
    pub fault_prob: Vec<Option<Rat>>,
}

impl StochSpec {
    /// Spec for a run that pushes `total_input` input-referred bytes
    /// through `p`: stage `i` serves `⌈total / b_in,i⌉` jobs where
    /// `b_in,i` is its input-referred job size. All faults start
    /// deterministic; mark probabilistic ones with
    /// [`StochSpec::with_fault_prob`].
    ///
    /// # Panics
    /// Panics if the pipeline is invalid or `total_input` is 0.
    pub fn for_run(p: &Pipeline, total_input: u64) -> StochSpec {
        assert!(total_input > 0, "a run must carry input");
        if let Err(e) = p.validate() {
            panic!("StochSpec::for_run on invalid pipeline: {e}");
        }
        let total = Rat::new(total_input as i128, 1);
        let jobs = p
            .normalization_factors()
            .iter()
            .zip(&p.nodes)
            .map(|(norm, n)| (total / (n.job_in * *norm)).ceil().max(1))
            .collect();
        StochSpec {
            jobs,
            fault_prob: vec![None; p.nodes.len()],
        }
    }

    /// Mark stage `stage`'s fault as probabilistic with occurrence
    /// probability `q` (builder style).
    ///
    /// # Panics
    /// Panics if the index is out of range or `q ∉ [0, 1]`.
    pub fn with_fault_prob(mut self, stage: usize, q: Rat) -> StochSpec {
        assert!(stage < self.fault_prob.len(), "stage index out of range");
        assert!(
            !q.is_negative() && q <= Rat::ONE,
            "fault probability must be in [0, 1]"
        );
        self.fault_prob[stage] = Some(q);
        self
    }

    /// Check the spec against a pipeline: matching lengths, positive
    /// job counts, and probabilistic marks only on stages that carry a
    /// fault hypothesis.
    pub fn validate(&self, p: &Pipeline) -> Result<(), String> {
        if self.jobs.len() != p.nodes.len() || self.fault_prob.len() != p.nodes.len() {
            return Err("spec length must match the node count".into());
        }
        if self.jobs.iter().any(|&j| j < 1) {
            return Err("every stage serves at least one job".into());
        }
        for (i, q) in self.fault_prob.iter().enumerate() {
            if q.is_some() && p.nodes[i].fault.is_none() {
                return Err(format!(
                    "stage {i} has a fault probability but no fault model"
                ));
            }
        }
        Ok(())
    }
}

/// A per-stage stochastic rewrite, consumed by
/// [`Pipeline::stoch_model`]: the guaranteed min rate the stage is
/// analyzed at (valid outside an event of probability ≤ `eps`) and
/// whether its fault hypothesis is assumed cleared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageEnvelope {
    /// Effective local min rate (replaces `rates.min`; within
    /// `[rates.min, rates.max]`).
    pub rate: Rat,
    /// Analyze the stage fault-free, charging the fault's occurrence
    /// probability to the budget.
    pub assume_no_fault: bool,
    /// Probability mass this stage's rewrite charges to the union
    /// bound (bookkeeping only — not part of the model cache key).
    pub eps: Rat,
}

impl StageEnvelope {
    /// The ε = 0 envelope: nominal min rate, fault kept.
    pub fn deterministic(rates: &StageRates) -> StageEnvelope {
        StageEnvelope {
            rate: rates.min,
            assume_no_fault: false,
            eps: Rat::ZERO,
        }
    }
}

/// The harmonically interpolated service rate certified at per-job
/// exceedance level θ ∈ [0, 1] under the `Uniform` service model:
/// `R_eff(θ) = 1/((1 − θ)/R_max + θ/R_min)`. θ = 1 gives `R_min`
/// (deterministic), θ = 0 gives `R_max`. See the module docs for why
/// this is exact.
pub fn service_level_rate(rates: &StageRates, theta: Rat) -> Rat {
    let theta = theta.clamp(Rat::ZERO, Rat::ONE);
    let inv = (Rat::ONE - theta) / rates.max + theta / rates.min;
    inv.recip()
}

/// Closed-form tail bounds at one violation budget: with probability
/// at least `1 − eps` (over the service-time draws and fault coins of
/// one finite run), the end-to-end delay of every byte is ≤ `delay`
/// and the total resident backlog is ≤ `backlog`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct TailBounds {
    /// The violation budget the bounds are certified at (the mass
    /// actually charged by the chosen allocation is ≤ this).
    pub eps: Rat,
    /// Delay tail bound `x`: `P(delay > x) ≤ eps`. Computed against
    /// the exact concatenated service curve.
    pub delay: Value,
    /// Backlog tail bound, same event.
    pub backlog: Value,
    /// Ablation: the per-stage-sum delay bound (Σ of per-node delay
    /// bounds) under the same allocations — the tractable-but-looser
    /// alternative to the end-to-end concatenation (Bouillard,
    /// arXiv:2010.09263). Always ≥ the concatenated `delay` up to
    /// packetization asymmetries; reported for the tightness table.
    pub delay_stage_sum: Value,
}

/// Sum of per-node delay bounds, `+∞`-absorbing.
fn value_sum(vals: impl Iterator<Item = Value>) -> Value {
    let mut acc = Rat::ZERO;
    for v in vals {
        match v.as_finite() {
            Some(r) => acc += r,
            None => return Value::Infinity,
        }
    }
    Value::finite(acc)
}

/// The candidate allocation ladder described in the module docs. Every
/// returned vector is a sound per-stage rewrite whose total charged
/// mass is ≤ `eps`; the deterministic allocation is always first.
fn allocations(p: &Pipeline, spec: &StochSpec, eps: Rat) -> Vec<Vec<StageEnvelope>> {
    let det: Vec<StageEnvelope> = p
        .nodes
        .iter()
        .map(|n| StageEnvelope::deterministic(&n.rates))
        .collect();
    let mut out = vec![det];
    if !eps.is_positive() {
        return out;
    }

    // Probabilistic faults, cheapest first (greedy clearing ladder).
    let mut faults: Vec<(usize, Rat)> = spec
        .fault_prob
        .iter()
        .enumerate()
        .filter_map(|(i, q)| q.map(|q| (i, q)))
        .collect();
    faults.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));

    // Stages where spending budget on the service envelope can help.
    let eligible: Vec<usize> = p
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.rates.max > n.rates.min)
        .map(|(i, _)| i)
        .collect();

    let mut cleared_cost = Rat::ZERO;
    for k in 0..=faults.len() {
        if k > 0 {
            cleared_cost += faults[k - 1].1;
        }
        if cleared_cost > eps {
            break;
        }
        let leftover = eps - cleared_cost;
        let mut envs = out[0].clone();
        for &(i, q) in &faults[..k] {
            envs[i].assume_no_fault = true;
            envs[i].eps = q;
        }
        if !eligible.is_empty() && leftover.is_positive() {
            let share = leftover / Rat::new(eligible.len() as i128, 1);
            for &i in &eligible {
                let n_jobs = Rat::new(spec.jobs[i], 1);
                let theta = Rat::ONE - share / n_jobs;
                envs[i].rate = service_level_rate(&p.nodes[i].rates, theta);
                envs[i].eps += share;
            }
        }
        out.push(envs);
    }
    out
}

impl Pipeline {
    /// Closed-form tail bounds `P(delay > x) ≤ ε`, `P(backlog > x) ≤ ε`
    /// for one finite run described by `spec`, at violation budget
    /// `eps` — the minimum over the sound allocation ladder (see the
    /// module docs). `eps = 0` is bit-equal to the deterministic
    /// [`PipelineModel::delay_bound_concat`] /
    /// [`PipelineModel::backlog_bound_concat`].
    ///
    /// # Panics
    /// Panics if the pipeline or spec is invalid or `eps ∉ [0, 1)`.
    pub fn tail_bounds(&self, spec: &StochSpec, eps: Rat) -> TailBounds {
        self.tail_bounds_with(spec, eps, &mut |p, envs| p.stoch_model(envs))
    }

    /// [`Pipeline::tail_bounds`] through a [`ModelCache`]: every
    /// candidate model rides the §9 prefix memo (the stage signatures
    /// carry the envelope key), so sweeps and repeated budgets share
    /// all unchanged prefixes. Exactly equal to the direct build.
    ///
    /// # Panics
    /// Panics if the pipeline or spec is invalid or `eps ∉ [0, 1)`.
    pub fn tail_bounds_cached(
        &self,
        spec: &StochSpec,
        eps: Rat,
        cache: &mut ModelCache,
    ) -> TailBounds {
        self.tail_bounds_with(spec, eps, &mut |p, envs| p.stoch_model_cached(envs, cache))
    }

    fn tail_bounds_with(
        &self,
        spec: &StochSpec,
        eps: Rat,
        build: &mut dyn FnMut(&Pipeline, &[StageEnvelope]) -> PipelineModel,
    ) -> TailBounds {
        if let Err(e) = spec.validate(self) {
            panic!("Pipeline::tail_bounds on invalid spec: {e}");
        }
        assert!(
            !eps.is_negative() && eps < Rat::ONE,
            "violation budget must be in [0, 1)"
        );
        let mut best = TailBounds {
            eps,
            delay: Value::Infinity,
            backlog: Value::Infinity,
            delay_stage_sum: Value::Infinity,
        };
        for envs in allocations(self, spec, eps) {
            let m = build(self, &envs);
            best.delay = best.delay.min(m.delay_bound_concat());
            best.backlog = best.backlog.min(m.backlog_bound_concat());
            best.delay_stage_sum = best
                .delay_stage_sum
                .min(value_sum(m.per_node.iter().map(|nm| nm.delay)));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultModel;
    use crate::num::rat;
    use crate::pipeline::{Node, NodeKind, Source};
    use proptest::prelude::*;

    fn spread_node(name: &str, min: i64, max: i64, job: i64) -> Node {
        Node::new(
            name,
            NodeKind::Compute,
            StageRates::new(Rat::int(min), Rat::int((min + max) / 2), Rat::int(max)),
            Rat::ZERO,
            Rat::int(job),
            Rat::int(job),
        )
    }

    fn two_stage() -> Pipeline {
        Pipeline::new(
            "stoch-two-stage",
            Source {
                rate: Rat::int(4),
                burst: Rat::int(8),
            },
            vec![spread_node("a", 10, 14, 8), spread_node("b", 6, 12, 8)],
        )
    }

    #[test]
    fn service_level_rate_interpolates_harmonically() {
        let r = StageRates::new(Rat::int(6), Rat::int(8), Rat::int(12));
        assert_eq!(service_level_rate(&r, Rat::ONE), Rat::int(6));
        assert_eq!(service_level_rate(&r, Rat::ZERO), Rat::int(12));
        // θ = 1/2: 1/(1/24 + 1/12) = 8 — harmonic, not arithmetic (9).
        assert_eq!(service_level_rate(&r, rat(1, 2)), Rat::int(8));
        // Out-of-range θ clamps.
        assert_eq!(service_level_rate(&r, Rat::int(3)), Rat::int(6));
    }

    #[test]
    fn zero_budget_is_bit_equal_to_deterministic() {
        let p = two_stage();
        let spec = StochSpec::for_run(&p, 64);
        let tb = p.tail_bounds(&spec, Rat::ZERO);
        let m = p.build_model();
        assert_eq!(tb.delay, m.delay_bound_concat());
        assert_eq!(tb.backlog, m.backlog_bound_concat());
        assert_eq!(tb.eps, Rat::ZERO);
    }

    #[test]
    fn budget_tightens_and_is_monotone() {
        let p = two_stage();
        let spec = StochSpec::for_run(&p, 64);
        let det = p.tail_bounds(&spec, Rat::ZERO);
        let mid = p.tail_bounds(&spec, rat(1, 100));
        let big = p.tail_bounds(&spec, rat(1, 10));
        assert!(mid.delay <= det.delay);
        assert!(big.delay <= mid.delay);
        assert!(big.backlog <= mid.backlog);
        assert!(mid.backlog <= det.backlog);
        // With a real rate spread and few jobs, the budget buys a
        // strictly better delay bound here.
        assert!(big.delay < det.delay);
    }

    #[test]
    fn clearing_a_probabilistic_fault_beats_keeping_it() {
        let mut p = two_stage();
        p.nodes[1].fault = Some(FaultModel::TransientOutage {
            duration: Rat::int(5),
        });
        let spec = StochSpec::for_run(&p, 64).with_fault_prob(1, rat(1, 200));
        let kept = p.tail_bounds(&spec, Rat::ZERO);
        let cleared = p.tail_bounds(&spec, rat(1, 100));
        // The budget affords clearing the q = 1/200 outage, removing
        // its 5 s latency from the cascade.
        assert!(cleared.delay < kept.delay);
        assert!(cleared.delay.is_finite());
    }

    #[test]
    fn unaffordable_fault_stays_deterministic() {
        let mut p = two_stage();
        p.nodes[1].fault = Some(FaultModel::TransientOutage {
            duration: Rat::int(5),
        });
        let spec = StochSpec::for_run(&p, 64).with_fault_prob(1, rat(1, 2));
        // Budget 1/100 < q = 1/2: the outage cannot be cleared; the
        // bound still reflects the full 5 s.
        let tb = p.tail_bounds(&spec, rat(1, 100));
        let kept = p.tail_bounds(&spec, Rat::ZERO);
        assert!(tb.delay <= kept.delay);
        let fault_free = {
            let mut q = p.clone();
            q.nodes[1].fault = None;
            q.build_model().delay_bound_concat()
        };
        assert!(tb.delay > fault_free);
    }

    #[test]
    fn cached_tail_bounds_match_direct() {
        let mut p = two_stage();
        p.nodes[0].fault = Some(FaultModel::RateDerate { delta: rat(1, 5) });
        let spec = StochSpec::for_run(&p, 64).with_fault_prob(0, rat(1, 50));
        let mut cache = ModelCache::new();
        for eps in [Rat::ZERO, rat(1, 1000), rat(1, 100), rat(1, 10)] {
            let direct = p.tail_bounds(&spec, eps);
            let cached = p.tail_bounds_cached(&spec, eps, &mut cache);
            assert_eq!(direct, cached);
        }
        // Rerunning the whole profile is all prefix hits.
        let before = cache.stats().prefix_misses;
        for eps in [Rat::ZERO, rat(1, 1000), rat(1, 100), rat(1, 10)] {
            let _ = p.tail_bounds_cached(&spec, eps, &mut cache);
        }
        assert_eq!(cache.stats().prefix_misses, before);
    }

    #[test]
    fn stage_sum_is_no_tighter_than_end_to_end_here() {
        let p = two_stage();
        let spec = StochSpec::for_run(&p, 64);
        for eps in [Rat::ZERO, rat(1, 100)] {
            let tb = p.tail_bounds(&spec, eps);
            assert!(tb.delay_stage_sum >= tb.delay);
        }
    }

    #[test]
    fn spec_validation_rejects_mismatches() {
        let p = two_stage();
        let mut spec = StochSpec::for_run(&p, 64);
        spec.jobs.pop();
        assert!(spec.validate(&p).is_err());
        let spec = StochSpec::for_run(&p, 64).with_fault_prob(0, rat(1, 10));
        // Stage 0 has no fault model: probabilistic mark is invalid.
        assert!(spec.validate(&p).is_err());
    }

    #[test]
    fn for_run_counts_input_referred_jobs() {
        let mut p = two_stage();
        // Stage a compresses 4:1 (job 8 → 2); stage b consumes 2-byte
        // jobs, i.e. 8 input-referred bytes per job.
        p.nodes[0].job_out = Rat::int(2);
        p.nodes[1].job_in = Rat::int(2);
        p.nodes[1].job_out = Rat::int(2);
        let spec = StochSpec::for_run(&p, 64);
        assert_eq!(spec.jobs, vec![8, 8]);
    }

    /// Strategy: a 1–4 stage pipeline, its run spec and a budget. Each
    /// stage has a random rate spread (none, so ineligible, when
    /// `spread` is 0) and job count, and carries a fault whose
    /// occurrence probability `1/(8k)` is drawn, or which stays
    /// deterministic (`k = 0`).
    fn arb_ladder_case() -> impl Strategy<Value = (Pipeline, StochSpec, Rat)> {
        let stage = (1i64..=6, 0i64..=4, 1i128..=64, 0i128..=4);
        (proptest::collection::vec(stage, 1..=4), 0i128..1000).prop_map(|(stages, e)| {
            let nodes = stages
                .iter()
                .map(|&(min, spread, _, _)| {
                    let mut n = spread_node("s", min, min + spread, 8);
                    n.fault = Some(FaultModel::RateDerate { delta: rat(1, 4) });
                    n
                })
                .collect();
            let source = Source {
                rate: Rat::ONE,
                burst: Rat::int(8),
            };
            let spec = StochSpec {
                jobs: stages.iter().map(|s| s.2).collect(),
                fault_prob: stages
                    .iter()
                    .map(|s| (s.3 > 0).then(|| rat(1, 8 * s.3)))
                    .collect(),
            };
            (Pipeline::new("ladder", source, nodes), spec, rat(e, 1000))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The union bound where `tail_bounds` charges it: the ladder
        /// opens with the deterministic allocation, no candidate
        /// charges more than ε in total, every rewritten rate stays
        /// within its stage's `[min, max]`, and candidate `k + 1`
        /// clears exactly the `k` cheapest probabilistic faults.
        #[test]
        fn allocations_charge_at_most_eps((p, spec, eps) in arb_ladder_case()) {
            let ladder = allocations(&p, &spec, eps);
            let det: Vec<StageEnvelope> = p
                .nodes
                .iter()
                .map(|n| StageEnvelope::deterministic(&n.rates))
                .collect();
            prop_assert_eq!(&ladder[0], &det);
            let mut faults: Vec<(Rat, usize)> = spec
                .fault_prob
                .iter()
                .enumerate()
                .filter_map(|(i, q)| q.map(|q| (q, i)))
                .collect();
            faults.sort();
            for (c, envs) in ladder.iter().enumerate() {
                let charged = envs.iter().fold(Rat::ZERO, |acc, e| acc + e.eps);
                prop_assert!(charged <= eps, "candidate {} charges {} > {}", c, charged, eps);
                for (e, n) in envs.iter().zip(&p.nodes) {
                    prop_assert!(n.rates.min <= e.rate && e.rate <= n.rates.max);
                }
                let cleared: Vec<usize> = (0..envs.len())
                    .filter(|&i| envs[i].assume_no_fault)
                    .collect();
                let mut cheapest: Vec<usize> = faults[..c.saturating_sub(1)]
                    .iter()
                    .map(|&(_, i)| i)
                    .collect();
                cheapest.sort_unstable();
                prop_assert_eq!(cleared, cheapest);
            }
        }
    }
}
