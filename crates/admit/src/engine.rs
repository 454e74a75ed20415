//! The long-lived admission engine: frozen per-tenant service scalars,
//! incremental per-stage load state, and the allocation-free decision
//! procedure (`DESIGN.md` §13).

use nc_core::bounds;
use nc_core::cache::CurveRef;
use nc_core::num::Rat;
use nc_core::pipeline::{ModelCache, Node, Pipeline};

use crate::{AdmitError, ClassId, Decision, FlowClass, Placement, RejectReason};

/// Handle to an onboarded tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub usize);

/// Decision counters, monotone over the engine's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests answered by [`AdmissionEngine::decide`].
    pub decisions: u64,
    /// Flows admitted on their local pipeline.
    pub admitted: u64,
    /// Flows offloaded to a remote pipeline.
    pub admitted_remote: u64,
    /// Requests rejected on every configured path.
    pub rejected: u64,
    /// Admissions certified by the cheap per-stage bound alone (no
    /// concatenation evaluated).
    pub cheap_admits: u64,
    /// Evaluations that fell through to the tight segmented
    /// concatenation bound.
    pub tight_evals: u64,
    /// Rejections short-circuited by the placement pre-filter's rate
    /// caps.
    pub prefilter_rejects: u64,
}

/// The scalar parameters of one flow-class candidate on the hot path
/// (`Copy`, so no class lookup survives into the per-stage loops).
#[derive(Clone, Copy)]
struct ClassParams {
    rate: Rat,
    burst: Rat,
    deadline: Rat,
}

/// Outcome of a non-committing path evaluation.
struct EvalOut {
    bound: Rat,
    used_tight: bool,
}

/// One admission path (a tenant's local pipeline, or its remote
/// offload pipeline): the frozen service-side scalars plus the
/// incrementally maintained load-side state.
struct PathState {
    pipeline: Pipeline,
    budget: Option<Rat>,

    // ---- frozen at onboarding (service side) ----
    /// Guaranteed service rate `R_j` of each stage's packetized
    /// rate-latency curve (input-referred bytes/s).
    serv_rate: Vec<Rat>,
    /// Effective latency `T_j` of each stage (dispatch + collection +
    /// packetization `l_j/R_j`), seconds.
    serv_lat: Vec<Rat>,
    /// The provisioned source burst, charged as a standing burst
    /// allowance entering stage 0.
    base_burst: Rat,
    /// Placement pre-filter rate caps per attachment stage (`None`
    /// when no backlog budget is configured).
    caps: Vec<Option<Rat>>,
    /// Interned per-stage packetized service curves (shared cache).
    #[allow(dead_code)] // held so the scalars' backing curves stay interned
    service_refs: Vec<CurveRef>,
    /// Interned suffix service concatenations `RL(min R, ΣT)`.
    #[allow(dead_code)] // read in debug assertions; held for interning
    suffix_refs: Vec<CurveRef>,

    // ---- incrementally maintained (load side) ----
    /// Resident flow counts per `[attach stage][class]`.
    counts: Vec<Vec<u32>>,
    /// Σ rates of flows attached at each stage.
    attach_rate: Vec<Rat>,
    /// Σ bursts of flows attached at each stage.
    attach_burst: Vec<Rat>,
    /// Tightest deadline among resident flows per attachment stage.
    slo_min: Vec<Option<Rat>>,
    /// Aggregate arrival rate entering stage `j` (cumulative over
    /// attachment stages `≤ j`).
    r_in: Vec<Rat>,
    /// Aggregate burst entering stage `j` (hop-by-hop inflation
    /// `b → b + r·T` plus newly attached bursts).
    b_in: Vec<Rat>,
    /// Per-stage delay bound `d_j = T_j + b_in[j]/R_j`.
    d_stage: Vec<Rat>,

    // ---- preallocated scratch (allocation-free decide) ----
    s_r: Vec<Rat>,
    s_b: Vec<Rat>,
    s_d: Vec<Rat>,
    s_suffix: Vec<Rat>,
}

impl PathState {
    fn len(&self) -> usize {
        self.serv_rate.len()
    }

    /// Build a path from a pipeline: one cached model build, scalar
    /// extraction, suffix concatenation in closed form, and the
    /// placement pre-filter caps.
    fn onboard(
        pipeline: Pipeline,
        budget: Option<Rat>,
        cache: &mut ModelCache,
    ) -> Result<PathState, AdmitError> {
        pipeline
            .validate()
            .map_err(|e| AdmitError::InvalidPipeline(e.to_string()))?;
        let base_burst = pipeline.source.burst;
        if let Some(bud) = budget {
            // Zero-load backlog is the standing source burst at every
            // stage; a budget below it can never admit anything.
            if base_burst > bud {
                return Err(AdmitError::BudgetInfeasible);
            }
        }
        let model = pipeline.build_model_cached(cache);
        let n = model.per_node.len();
        let mut serv_rate = Vec::with_capacity(n);
        let mut serv_lat = Vec::with_capacity(n);
        let mut service_refs = Vec::with_capacity(n);
        for nm in model.per_node.iter() {
            let (r, t) = nm
                .service
                .as_rate_latency()
                .filter(|(r, _)| r.is_positive())
                .ok_or_else(|| AdmitError::UnsupportedService(nm.name.clone()))?;
            serv_rate.push(r);
            serv_lat.push(t);
            service_refs.push(cache.curves().intern(&nm.service));
        }

        // Suffix service concatenations via the closed form
        // `RL(R₁,T₁) ⊗ RL(R₂,T₂) = RL(min R, T₁+T₂)`, interned through
        // the scalar fast lane — no general ⊗ runs here.
        let mut suffix_refs: Vec<CurveRef> = Vec::with_capacity(n);
        let mut rmin = serv_rate[n - 1];
        let mut tsum = Rat::ZERO;
        for k in (0..n).rev() {
            rmin = rmin.min(serv_rate[k]);
            tsum += serv_lat[k];
            suffix_refs.push(cache.curves().rl_ref(rmin, tsum));
        }
        suffix_refs.reverse();
        // The closed form must agree with the general operator — the
        // identity the whole scalar lane rests on.
        #[cfg(debug_assertions)]
        {
            let mut acc = service_refs[n - 1].clone();
            for j in (0..n - 1).rev() {
                acc = cache.curves().conv_ref(&service_refs[j], &acc);
            }
            debug_assert_eq!(acc.curve(), suffix_refs[0].curve());
        }

        // Placement pre-filter: the largest aggregate rate the suffix
        // concatenation can absorb within the backlog budget. Stage 0
        // additionally takes the whole-pipeline
        // `PipelineModel::max_admissible_rate` cap, which charges the
        // provisioned source burst.
        let caps: Vec<Option<Rat>> = (0..n)
            .map(|k| {
                budget.map(|bud| {
                    let mut cap =
                        bounds::max_admissible_rate(suffix_refs[k].curve(), Rat::ZERO, bud)
                            .expect("zero burst fits any budget");
                    if k == 0 {
                        let whole = model
                            .max_admissible_rate(bud)
                            .expect("zero-load budget feasibility was checked");
                        cap = cap.min(whole);
                    }
                    cap
                })
            })
            .collect();

        let mut path = PathState {
            pipeline,
            budget,
            serv_rate,
            serv_lat,
            base_burst,
            caps,
            service_refs,
            suffix_refs,
            counts: vec![Vec::new(); n],
            attach_rate: vec![Rat::ZERO; n],
            attach_burst: vec![Rat::ZERO; n],
            slo_min: vec![None; n],
            r_in: vec![Rat::ZERO; n],
            b_in: vec![Rat::ZERO; n],
            d_stage: vec![Rat::ZERO; n],
            s_r: vec![Rat::ZERO; n],
            s_b: vec![Rat::ZERO; n],
            s_d: vec![Rat::ZERO; n],
            s_suffix: vec![Rat::ZERO; n],
        };
        path.recompute_suffix(0);
        Ok(path)
    }

    /// Recompute the committed load-side suffix from stage `a` on —
    /// the incremental update: everything before `a` is untouched.
    fn recompute_suffix(&mut self, a: usize) {
        for j in a..self.len() {
            let (prev_r, prev_b) = if j == 0 {
                (Rat::ZERO, self.base_burst)
            } else {
                (
                    self.r_in[j - 1],
                    self.b_in[j - 1] + self.r_in[j - 1] * self.serv_lat[j - 1],
                )
            };
            self.r_in[j] = prev_r + self.attach_rate[j];
            self.b_in[j] = prev_b + self.attach_burst[j];
            self.d_stage[j] = self.serv_lat[j] + self.b_in[j] / self.serv_rate[j];
        }
    }

    /// Evaluate a candidate without committing: the allocation-free
    /// hot path. Returns the certified bound or the first failing
    /// check, in the fixed procedure order (pre-filter, rate
    /// feasibility + budget per stage, cheap deadline pass, tight
    /// fallback).
    fn evaluate(&mut self, p: ClassParams, a: usize) -> Result<EvalOut, RejectReason> {
        let n = self.len();
        debug_assert!(a < n);

        // 1. Placement pre-filter: suffix rate caps (sound fast
        // rejects — a violated cap implies a violated exact check).
        for k in a..n {
            if let Some(cap) = self.caps[k] {
                if self.r_in[k] + p.rate > cap {
                    return Err(RejectReason::PlacementCap);
                }
            }
        }

        // 2. Stage pass over the affected suffix: rates, inflated
        // bursts, per-stage delay bounds, backlog budget.
        for j in a..n {
            let r = self.r_in[j] + p.rate;
            if r > self.serv_rate[j] {
                return Err(RejectReason::RateInfeasible);
            }
            let upstream = if j == 0 {
                self.base_burst
            } else if j == a {
                self.b_in[j - 1] + self.r_in[j - 1] * self.serv_lat[j - 1]
            } else {
                self.s_b[j - 1] + self.s_r[j - 1] * self.serv_lat[j - 1]
            };
            let mut b = upstream + self.attach_burst[j];
            if j == a {
                b += p.burst;
            }
            self.s_r[j] = r;
            self.s_b[j] = b;
            self.s_d[j] = self.serv_lat[j] + b / self.serv_rate[j];
            if let Some(bud) = self.budget {
                if b + r * self.serv_lat[j] > bud {
                    return Err(RejectReason::BudgetExceeded);
                }
            }
        }

        // 3. Cheap bound: suffix sums of per-stage delay bounds
        // (committed below `a`, candidate state at and after).
        let mut acc = Rat::ZERO;
        for j in (0..n).rev() {
            acc += if j >= a { self.s_d[j] } else { self.d_stage[j] };
            self.s_suffix[j] = acc;
        }

        // 4. Deadline checks for the candidate and every protected
        // attachment stage; the tight segmented concatenation bound is
        // evaluated only where the cheap bound fails (cheap ≥ tight,
        // so a cheap pass certifies).
        let mut used_tight = false;
        for k in 0..n {
            let Some(limit) = self.limit_at(k, p, a) else {
                continue;
            };
            if self.s_suffix[k] <= limit {
                continue;
            }
            used_tight = true;
            if self.tight_bound(p, a, k) > limit {
                return Err(RejectReason::DeadlineExceeded);
            }
        }

        let limit_a = self
            .limit_at(a, p, a)
            .expect("candidate stage always has a limit");
        let bound = if self.s_suffix[a] <= limit_a {
            self.s_suffix[a]
        } else {
            self.tight_bound(p, a, a)
        };
        Ok(EvalOut { bound, used_tight })
    }

    /// The deadline limit protecting attachment stage `k` while
    /// deciding a candidate `(p, a)`.
    fn limit_at(&self, k: usize, p: ClassParams, a: usize) -> Option<Rat> {
        let slo = self.slo_min[k];
        if k == a {
            Some(slo.map_or(p.deadline, |s| s.min(p.deadline)))
        } else {
            slo
        }
    }

    /// Tight delay bound from stage `k` to the sink under the
    /// candidate `(p, a)`: the suffix is split into maximal
    /// attachment-free segments; each segment's concatenation
    /// `RL(min R, ΣT)` pays the entry burst once (`d = ΣT + B/R_min`),
    /// and bursts inflate between segments exactly as per stage
    /// (`b → b + r·T` — the rate is constant within a segment).
    fn tight_bound(&self, p: ClassParams, a: usize, k: usize) -> Rat {
        let n = self.len();
        let b_at = |j: usize| if j >= a { self.s_b[j] } else { self.b_in[j] };
        let attach_b = |j: usize| {
            let mut b = self.attach_burst[j];
            if j == a {
                b += p.burst;
            }
            b
        };
        let mut total = Rat::ZERO;
        let mut seg_start = k;
        let mut rmin = self.serv_rate[k];
        let mut t = self.serv_lat[k];
        for j in k + 1..=n {
            if j == n || attach_b(j).is_positive() {
                total = total + t + b_at(seg_start) / rmin;
                if j < n {
                    seg_start = j;
                    rmin = self.serv_rate[j];
                    t = self.serv_lat[j];
                }
            } else {
                rmin = rmin.min(self.serv_rate[j]);
                t += self.serv_lat[j];
            }
        }
        total
    }

    /// Commit an admitted candidate: bump the attachment aggregates
    /// and adopt the suffix that the successful [`PathState::evaluate`]
    /// of the same `(p, a)` just left in the scratch vectors. It ran
    /// the committed recurrence with the candidate added over `a..n`,
    /// and `Rat`s are canonical, so the copy equals a recompute.
    fn commit(&mut self, class: ClassId, p: ClassParams, a: usize) {
        if self.counts[a].len() <= class.0 {
            self.counts[a].resize(class.0 + 1, 0);
        }
        self.counts[a][class.0] += 1;
        self.attach_rate[a] += p.rate;
        self.attach_burst[a] += p.burst;
        self.slo_min[a] = Some(self.slo_min[a].map_or(p.deadline, |s| s.min(p.deadline)));
        self.r_in[a..].copy_from_slice(&self.s_r[a..]);
        self.b_in[a..].copy_from_slice(&self.s_b[a..]);
        self.d_stage[a..].copy_from_slice(&self.s_d[a..]);
        #[cfg(debug_assertions)]
        {
            let (r, b, d) = (self.r_in.clone(), self.b_in.clone(), self.d_stage.clone());
            self.recompute_suffix(a);
            debug_assert!(
                r == self.r_in && b == self.b_in && d == self.d_stage,
                "commit adopted a suffix the recurrence does not produce"
            );
        }
    }

    /// Remove one resident flow of `(class, a)` and refresh the
    /// affected suffix.
    fn depart(
        &mut self,
        classes: &[FlowClass],
        class: ClassId,
        a: usize,
    ) -> Result<(), AdmitError> {
        if a >= self.len() {
            return Err(AdmitError::BadAttach);
        }
        match self.counts[a].get_mut(class.0) {
            Some(slot) if *slot > 0 => *slot -= 1,
            _ => return Err(AdmitError::NoSuchFlow),
        }
        let c = &classes[class.0];
        self.attach_rate[a] -= c.rate;
        self.attach_burst[a] -= c.burst;
        let mut min: Option<Rat> = None;
        for (ci, &cnt) in self.counts[a].iter().enumerate() {
            if cnt > 0 {
                let d = classes[ci].deadline;
                min = Some(min.map_or(d, |m| m.min(d)));
            }
        }
        self.slo_min[a] = min;
        self.recompute_suffix(a);
        Ok(())
    }

    /// Carry resident-flow state over from a pre-reconfiguration path
    /// with the same stage count, then recompute all bounds.
    fn adopt_flows(&mut self, old: &PathState) {
        debug_assert_eq!(self.len(), old.len());
        self.counts = old.counts.clone();
        self.attach_rate = old.attach_rate.clone();
        self.attach_burst = old.attach_burst.clone();
        self.slo_min = old.slo_min.clone();
        self.recompute_suffix(0);
    }

    /// Total resident flows.
    fn resident(&self) -> u64 {
        self.counts
            .iter()
            .flat_map(|per_class| per_class.iter())
            .map(|&c| c as u64)
            .sum()
    }
}

/// The long-lived admission-control engine: a fleet of tenant
/// pipelines sharing one [`ModelCache`], answering
/// admit / reject / admit-remote requests by incremental NC
/// recomputation. See the crate docs for the architecture and
/// `DESIGN.md` §13 for the soundness argument.
pub struct AdmissionEngine {
    classes: Vec<FlowClass>,
    tenants: Vec<Tenant>,
    cache: ModelCache,
    stats: EngineStats,
}

struct Tenant {
    local: PathState,
    remote: Option<PathState>,
}

impl Default for AdmissionEngine {
    fn default() -> Self {
        AdmissionEngine::new()
    }
}

impl AdmissionEngine {
    /// An empty engine.
    pub fn new() -> AdmissionEngine {
        AdmissionEngine {
            classes: Vec::new(),
            tenants: Vec::new(),
            cache: ModelCache::new(),
            stats: EngineStats::default(),
        }
    }

    /// Register a flow class for later requests.
    pub fn register_class(&mut self, class: FlowClass) -> Result<ClassId, AdmitError> {
        class.validate()?;
        self.classes.push(class);
        Ok(ClassId(self.classes.len() - 1))
    }

    /// The registered classes, indexed by [`ClassId`].
    pub fn classes(&self) -> &[FlowClass] {
        &self.classes
    }

    /// Onboard a tenant pipeline: one cached model build (shared
    /// prefixes across structurally equal tenants hit the memo), after
    /// which decisions against this tenant are pure scalar updates.
    /// `budget` is an optional per-stage backlog budget in bytes.
    pub fn add_tenant(
        &mut self,
        pipeline: Pipeline,
        budget: Option<Rat>,
    ) -> Result<TenantId, AdmitError> {
        let local = PathState::onboard(pipeline, budget, &mut self.cache)?;
        self.tenants.push(Tenant {
            local,
            remote: None,
        });
        Ok(TenantId(self.tenants.len() - 1))
    }

    /// Attach a remote offload pipeline to a tenant (the
    /// "stream to the datacenter" alternative: uplink stages first,
    /// then the remote processing stages). Flows rejected locally are
    /// re-evaluated here at attachment stage 0.
    pub fn set_remote(
        &mut self,
        tenant: TenantId,
        pipeline: Pipeline,
        budget: Option<Rat>,
    ) -> Result<(), AdmitError> {
        if self
            .tenants
            .get(tenant.0)
            .ok_or(AdmitError::UnknownTenant)?
            .remote
            .is_some()
        {
            return Err(AdmitError::RemoteConfig);
        }
        let path = PathState::onboard(pipeline, budget, &mut self.cache)?;
        self.tenants[tenant.0].remote = Some(path);
        Ok(())
    }

    fn class_params(&self, class: ClassId) -> Result<ClassParams, AdmitError> {
        let c = self.classes.get(class.0).ok_or(AdmitError::UnknownClass)?;
        Ok(ClassParams {
            rate: c.rate,
            burst: c.burst,
            deadline: c.deadline,
        })
    }

    /// Answer one admission request and commit its effect: a flow of
    /// `class` asking to attach at stage `attach` of `tenant`'s local
    /// pipeline. On local rejection the tenant's remote pipeline (if
    /// configured) is tried at attachment stage 0. Admitted flows stay
    /// resident until [`AdmissionEngine::depart`].
    pub fn decide(
        &mut self,
        tenant: TenantId,
        class: ClassId,
        attach: usize,
    ) -> Result<Decision, AdmitError> {
        let p = self.class_params(class)?;
        let t = self
            .tenants
            .get_mut(tenant.0)
            .ok_or(AdmitError::UnknownTenant)?;
        if attach >= t.local.len() {
            return Err(AdmitError::BadAttach);
        }
        self.stats.decisions += 1;
        match t.local.evaluate(p, attach) {
            Ok(out) => {
                t.local.commit(class, p, attach);
                self.stats.admitted += 1;
                if out.used_tight {
                    self.stats.tight_evals += 1;
                } else {
                    self.stats.cheap_admits += 1;
                }
                Ok(Decision::Admit { bound: out.bound })
            }
            Err(reason) => {
                if let Some(remote) = t.remote.as_mut() {
                    if let Ok(out) = remote.evaluate(p, 0) {
                        remote.commit(class, p, 0);
                        self.stats.admitted_remote += 1;
                        if out.used_tight {
                            self.stats.tight_evals += 1;
                        }
                        return Ok(Decision::AdmitRemote { bound: out.bound });
                    }
                }
                self.stats.rejected += 1;
                if reason == RejectReason::PlacementCap {
                    self.stats.prefilter_rejects += 1;
                }
                Ok(Decision::Reject { reason })
            }
        }
    }

    /// What [`AdmissionEngine::decide`] would answer, without
    /// committing anything (and without touching the counters).
    pub fn peek(
        &mut self,
        tenant: TenantId,
        class: ClassId,
        attach: usize,
    ) -> Result<Decision, AdmitError> {
        let p = self.class_params(class)?;
        let t = self
            .tenants
            .get_mut(tenant.0)
            .ok_or(AdmitError::UnknownTenant)?;
        if attach >= t.local.len() {
            return Err(AdmitError::BadAttach);
        }
        match t.local.evaluate(p, attach) {
            Ok(out) => Ok(Decision::Admit { bound: out.bound }),
            Err(reason) => {
                if let Some(remote) = t.remote.as_mut() {
                    if let Ok(out) = remote.evaluate(p, 0) {
                        return Ok(Decision::AdmitRemote { bound: out.bound });
                    }
                }
                Ok(Decision::Reject { reason })
            }
        }
    }

    /// Remove one resident flow, identified by its admission identity:
    /// tenant, class, *requested* attachment stage, and the placement
    /// the admitting [`Decision`] reported (remote flows are resident
    /// at stage 0 of the remote pipeline regardless of the requested
    /// stage). Flows of one `(class, attach)` pair are fungible.
    pub fn depart(
        &mut self,
        tenant: TenantId,
        class: ClassId,
        attach: usize,
        placement: Placement,
    ) -> Result<(), AdmitError> {
        if class.0 >= self.classes.len() {
            return Err(AdmitError::UnknownClass);
        }
        let classes = &self.classes;
        let t = self
            .tenants
            .get_mut(tenant.0)
            .ok_or(AdmitError::UnknownTenant)?;
        match placement {
            Placement::Local => t.local.depart(classes, class, attach),
            Placement::Remote => t
                .remote
                .as_mut()
                .ok_or(AdmitError::RemoteConfig)?
                .depart(classes, class, 0),
        }
    }

    /// Replace stage `stage` of a tenant's local pipeline (rates,
    /// latency, job sizes — a reprovisioning event). The model cache's
    /// prefixes up to `stage` are reused by the rebuild; the stale
    /// entries past it are evicted via
    /// [`ModelCache::invalidate_suffix`] (returned: the eviction
    /// count). Resident flows are carried over and their bounds
    /// recomputed — the engine does not evict flows whose SLOs the new
    /// provisioning violates, but subsequent decisions hold them to
    /// the recomputed bounds.
    pub fn reconfigure_stage(
        &mut self,
        tenant: TenantId,
        stage: usize,
        node: Node,
    ) -> Result<usize, AdmitError> {
        let (old_pipeline, budget) = {
            let t = self
                .tenants
                .get(tenant.0)
                .ok_or(AdmitError::UnknownTenant)?;
            if stage >= t.local.len() {
                return Err(AdmitError::BadAttach);
            }
            (t.local.pipeline.clone(), t.local.budget)
        };
        let mut pipeline = old_pipeline.clone();
        pipeline.nodes[stage] = node;
        let mut fresh = PathState::onboard(pipeline, budget, &mut self.cache)?;
        let evicted = self.cache.invalidate_suffix(&old_pipeline, stage);
        let t = self.tenants.get_mut(tenant.0).expect("checked above");
        fresh.adopt_flows(&t.local);
        t.local = fresh;
        Ok(evicted)
    }

    /// The placement pre-filter's rate cap for one attachment stage of
    /// a tenant's local pipeline: the largest aggregate arrival rate
    /// the suffix service concatenation can absorb within the backlog
    /// budget (`None` when the tenant has no budget). Derived from
    /// [`nc_core::bounds::max_admissible_rate`] /
    /// [`nc_core::pipeline::PipelineModel::max_admissible_rate`] at
    /// onboarding.
    pub fn placement_cap(
        &self,
        tenant: TenantId,
        attach: usize,
    ) -> Result<Option<Rat>, AdmitError> {
        let t = self
            .tenants
            .get(tenant.0)
            .ok_or(AdmitError::UnknownTenant)?;
        t.local
            .caps
            .get(attach)
            .copied()
            .ok_or(AdmitError::BadAttach)
    }

    /// Resident flow counts `(local, remote)` for a tenant.
    pub fn resident(&self, tenant: TenantId) -> Result<(u64, u64), AdmitError> {
        let t = self
            .tenants
            .get(tenant.0)
            .ok_or(AdmitError::UnknownTenant)?;
        Ok((
            t.local.resident(),
            t.remote.as_ref().map_or(0, |r| r.resident()),
        ))
    }

    /// Decision counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Counters of the shared model cache (interning, memo hits,
    /// prefix reuse).
    pub fn cache_stats(&self) -> nc_core::cache::CacheStats {
        self.cache.stats()
    }

    /// Number of memoized pipeline prefixes currently held by the
    /// shared cache.
    pub fn cache_prefix_entries(&self) -> usize {
        self.cache.prefix_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use nc_core::num::rat;
    use nc_core::pipeline::{NodeKind, Source, StageRates};

    fn node(name: &str, rate: i64, job: i64) -> Node {
        Node::new(
            name,
            NodeKind::Compute,
            StageRates::fixed(Rat::int(rate)),
            Rat::ZERO,
            Rat::int(job),
            Rat::int(job),
        )
    }

    /// Stage services: a = RL(10, 4/5), b = RL(6, 4/3) (packetization
    /// latency l/R; the source burst of 8 covers both jobs, so no
    /// collection latency).
    fn two_stage() -> Pipeline {
        Pipeline::new(
            "local",
            Source {
                rate: Rat::int(4),
                burst: Rat::int(8),
            },
            vec![node("a", 10, 8), node("b", 6, 8)],
        )
    }

    fn fast_remote() -> Pipeline {
        Pipeline::new(
            "remote",
            Source {
                rate: Rat::int(4),
                burst: Rat::int(8),
            },
            vec![node("uplink", 100, 8), node("dc", 100, 8)],
        )
    }

    fn class(rate: i64, burst: i64, deadline: Rat) -> FlowClass {
        FlowClass {
            name: "c".into(),
            rate: Rat::int(rate),
            burst: Rat::int(burst),
            block: Rat::ONE,
            deadline,
        }
    }

    #[test]
    fn class_validation_rejects_bad_parameters() {
        let mut e = AdmissionEngine::new();
        let mut c = class(1, 2, Rat::int(10));
        c.burst = rat(1, 2); // below block
        assert_eq!(e.register_class(c), Err(AdmitError::BadClass));
    }

    #[test]
    fn budget_below_standing_burst_is_infeasible() {
        let mut e = AdmissionEngine::new();
        assert_eq!(
            e.add_tenant(two_stage(), Some(Rat::int(7))),
            Err(AdmitError::BudgetInfeasible)
        );
    }

    #[test]
    fn admits_with_exact_cheap_bound() {
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        let c = e.register_class(class(1, 2, Rat::int(10))).unwrap();
        // b₀ = 8+2 = 10: d₀ = 4/5 + 10/10 = 9/5; b₁ = 10 + 1·(4/5):
        // d₁ = 4/3 + (54/5)/6 = 47/15; cheap = 74/15.
        let d = e.decide(t, c, 0).unwrap();
        assert_eq!(d, Decision::Admit { bound: rat(74, 15) });
        assert_eq!(
            oracle::decide_full(
                &two_stage(),
                None,
                e.classes(),
                &[],
                &class(1, 2, Rat::int(10)),
                0
            ),
            Ok(rat(74, 15))
        );
        let s = e.stats();
        assert_eq!(
            (s.decisions, s.admitted, s.cheap_admits, s.tight_evals),
            (1, 1, 1, 0)
        );
        assert_eq!(e.resident(t).unwrap(), (1, 0));
    }

    #[test]
    fn rejects_rate_infeasible_at_the_bottleneck() {
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        let c = e.register_class(class(7, 8, Rat::int(100))).unwrap();
        assert_eq!(
            e.decide(t, c, 0).unwrap(),
            Decision::Reject {
                reason: RejectReason::RateInfeasible
            }
        );
        assert_eq!(e.resident(t).unwrap(), (0, 0));
    }

    #[test]
    fn tight_bound_rescues_what_the_cheap_bound_rejects() {
        // Cheap bound 74/15 ≈ 4.93; tight (one segment, burst paid
        // once) = 32/15 + 10/6 = 19/5 = 3.8.
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        let c = e.register_class(class(1, 2, rat(19, 5))).unwrap();
        let d = e.decide(t, c, 0).unwrap();
        assert_eq!(d, Decision::Admit { bound: rat(19, 5) });
        assert_eq!(e.stats().tight_evals, 1);
        assert_eq!(
            oracle::decide_full(
                &two_stage(),
                None,
                e.classes(),
                &[],
                &class(1, 2, rat(19, 5)),
                0
            ),
            Ok(rat(19, 5))
        );
    }

    #[test]
    fn rejects_when_even_the_tight_bound_misses_the_deadline() {
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        let c = e.register_class(class(1, 2, rat(37, 10))).unwrap();
        assert_eq!(
            e.decide(t, c, 0).unwrap(),
            Decision::Reject {
                reason: RejectReason::DeadlineExceeded
            }
        );
    }

    #[test]
    fn placement_prefilter_short_circuits() {
        let mut e = AdmissionEngine::new();
        // Budget 10: stage-0 cap = min(suffix cap, whole-pipeline cap
        // (10−8)/(32/15)) = 15/16.
        let t = e.add_tenant(two_stage(), Some(Rat::int(10))).unwrap();
        assert_eq!(e.placement_cap(t, 0).unwrap(), Some(rat(15, 16)));
        let c = e.register_class(class(1, 2, Rat::int(10))).unwrap();
        assert_eq!(
            e.decide(t, c, 0).unwrap(),
            Decision::Reject {
                reason: RejectReason::PlacementCap
            }
        );
        assert_eq!(e.stats().prefilter_rejects, 1);
    }

    #[test]
    fn burst_can_overflow_the_budget_past_the_prefilter() {
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), Some(Rat::int(10))).unwrap();
        let c = e
            .register_class(FlowClass {
                name: "bursty".into(),
                rate: rat(1, 2),
                burst: Rat::int(4),
                block: Rat::ONE,
                deadline: Rat::int(10),
            })
            .unwrap();
        // Rate 1/2 passes the 15/16 cap, but b₀ = 8+4 = 12 > 10.
        assert_eq!(
            e.decide(t, c, 0).unwrap(),
            Decision::Reject {
                reason: RejectReason::BudgetExceeded
            }
        );
    }

    #[test]
    fn local_reject_offloads_to_the_remote_pipeline() {
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        e.set_remote(t, fast_remote(), None).unwrap();
        let c = e.register_class(class(1, 2, rat(37, 10))).unwrap();
        let d = e.decide(t, c, 0).unwrap();
        assert_eq!(
            d,
            Decision::AdmitRemote {
                bound: rat(451, 1250)
            }
        );
        assert_eq!(d.placement(), Some(Placement::Remote));
        assert_eq!(e.resident(t).unwrap(), (0, 1));
        assert_eq!(e.stats().admitted_remote, 1);
        // The remote bound matches the oracle on the remote pipeline.
        assert_eq!(
            oracle::decide_full(
                &fast_remote(),
                None,
                e.classes(),
                &[],
                &class(1, 2, rat(37, 10)),
                0
            ),
            Ok(rat(451, 1250))
        );
    }

    #[test]
    fn depart_restores_admissibility() {
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        let c = e.register_class(class(2, 2, Rat::int(100))).unwrap();
        for _ in 0..3 {
            assert!(e.decide(t, c, 0).unwrap().is_admitted());
        }
        // Aggregate rate would hit 8 > 6 at the bottleneck.
        assert_eq!(
            e.decide(t, c, 0).unwrap(),
            Decision::Reject {
                reason: RejectReason::RateInfeasible
            }
        );
        e.depart(t, c, 0, Placement::Local).unwrap();
        assert_eq!(e.resident(t).unwrap(), (2, 0));
        assert!(e.decide(t, c, 0).unwrap().is_admitted());
        // Nothing left to depart beyond the three resident flows.
        e.depart(t, c, 0, Placement::Local).unwrap();
        e.depart(t, c, 0, Placement::Local).unwrap();
        e.depart(t, c, 0, Placement::Local).unwrap();
        assert_eq!(
            e.depart(t, c, 0, Placement::Local),
            Err(AdmitError::NoSuchFlow)
        );
    }

    #[test]
    fn peek_does_not_commit() {
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        let c = e.register_class(class(1, 2, Rat::int(10))).unwrap();
        let peeked = e.peek(t, c, 0).unwrap();
        assert_eq!(e.resident(t).unwrap(), (0, 0));
        assert_eq!(e.stats().decisions, 0);
        assert_eq!(e.decide(t, c, 0).unwrap(), peeked);
    }

    #[test]
    fn attachment_mid_pipeline_skips_upstream_stages() {
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        let c = e.register_class(class(1, 2, Rat::int(10))).unwrap();
        // Attached at stage 1: b₁ = (8 + 0·4/5) + 2 = 10;
        // bound = 4/3 + 10/6 = 3.
        let d = e.decide(t, c, 1).unwrap();
        assert_eq!(d, Decision::Admit { bound: Rat::int(3) });
        assert_eq!(
            oracle::decide_full(
                &two_stage(),
                None,
                e.classes(),
                &[],
                &class(1, 2, Rat::int(10)),
                1
            ),
            Ok(Rat::int(3))
        );
        assert_eq!(e.decide(t, c, 2).unwrap_err(), AdmitError::BadAttach);
    }

    #[test]
    fn reconfigure_evicts_stale_prefixes_and_applies_new_rates() {
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        let slow = e.register_class(class(7, 8, Rat::int(100))).unwrap();
        let keep = e.register_class(class(1, 2, Rat::int(100))).unwrap();
        assert!(e.decide(t, keep, 0).unwrap().is_admitted());
        assert!(!e.decide(t, slow, 0).unwrap().is_admitted());

        // Upgrade the bottleneck stage; the shared cache held prefixes
        // of lengths 1 and 2, and only the stale length-2 entry goes.
        let entries_before = e.cache_prefix_entries();
        let evicted = e.reconfigure_stage(t, 1, node("b2", 20, 8)).unwrap();
        assert_eq!(evicted, 1);
        assert_eq!(e.cache_prefix_entries(), entries_before); // new len-2 entry replaced the stale one

        // Resident flows survived; the upgraded stage admits what the
        // old one rejected.
        assert_eq!(e.resident(t).unwrap(), (1, 0));
        assert!(e.decide(t, slow, 0).unwrap().is_admitted());
    }

    #[test]
    fn decisions_match_the_oracle_with_resident_flows() {
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        let c0 = e.register_class(class(1, 2, Rat::int(10))).unwrap();
        let c1 = e.register_class(class(2, 3, Rat::int(8))).unwrap();
        let mut resident: Vec<(usize, ClassId)> = Vec::new();
        for (class_id, attach) in [(c0, 0), (c1, 1), (c1, 0), (c0, 1)] {
            let got = e.decide(t, class_id, attach).unwrap();
            let want = oracle::decide_full(
                &two_stage(),
                None,
                e.classes(),
                &resident,
                &e.classes()[class_id.0].clone(),
                attach,
            );
            match (got, want) {
                (Decision::Admit { bound }, Ok(w)) => assert_eq!(bound, w),
                (Decision::Reject { reason }, Err(w)) => assert_eq!(reason, w),
                (g, w) => panic!("engine {g:?} vs oracle {w:?}"),
            }
            if got.is_admitted() {
                resident.push((attach, class_id));
            }
        }
    }
}
