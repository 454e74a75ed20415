//! The long-lived admission engine: frozen per-tenant service scalars,
//! incremental per-stage load state, and the allocation-free decision
//! procedure (`DESIGN.md` §13).

use nc_core::bounds;
use nc_core::cache::CurveRef;
use nc_core::num::{lcm, Rat};
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

/// Outcome of a non-committing path evaluation.
struct EvalOut {
    bound: Rat,
    used_tight: bool,
}

/// One stage's frozen service scalars, exact. Onboarding, re-gridding
/// and [`AdmissionEngine::placement_cap`] read them; decisions read
/// the path's [`Grid`] instead.
#[derive(Clone, Copy)]
struct Service {
    /// Guaranteed service rate `R_j` of the stage's packetized
    /// rate-latency curve (input-referred bytes/s).
    rate: Rat,
    /// Effective latency `T_j` (dispatch + collection + packetization
    /// `l_j/R_j`), seconds.
    lat: Rat,
    /// Placement pre-filter rate cap for attaching here (`None` when no
    /// backlog budget is configured).
    cap: Option<Rat>,
}

/// One stage's constants on its path's [`Grid`].
#[derive(Clone, Copy)]
struct StageGrid {
    /// `R_j·dr`: the rate-feasibility limit.
    rate: i128,
    /// `τ_j = T_j·db/dr`: the hop inflation `b + r·T_j` is `β + ρ·τ_j`.
    tau: i128,
    /// `a_j = T_j·dd`: the stage latency in delay units.
    lat: i128,
    /// `m_j = dd/(db·R_j)`: the stage delay `T_j + b/R_j` is
    /// `a_j + β·m_j`.
    m: i128,
    /// `⌊cap_j·dr⌋`, the placement pre-filter cap.
    cap: Option<i128>,
}

/// A registered flow class on a path's [`Grid`].
#[derive(Clone, Copy)]
struct ClassGrid {
    /// `ρ = r·dr`.
    rate: i128,
    /// `β = b·db`.
    burst: i128,
    /// `⌊deadline·dd⌋`.
    deadline: i128,
}

/// A path's three integer grids (`DESIGN.md` §13): rates in units of
/// `1/dr`, bursts in `1/db`, delays in `1/dd`, chosen once from the
/// frozen service scalars and the registered classes so that every
/// load-side quantity of the path is an integer and the decision path
/// runs on checked `i128` add, multiply and compare only.
///
/// * `dr` = lcm of the denominators of every stage rate and class rate;
/// * `db` = lcm of `dr·dt` (`dt` = lcm of the `T_j` denominators) and
///   the denominators of the source burst and every class burst;
/// * `dd` = `db` × lcm of the stage-rate numerators.
///
/// Thresholds that fall between grid points are stored as floors: for
/// an integer `x`, `x > q ⇔ x > ⌊q⌋` and `x ≤ q ⇔ x ≤ ⌊q⌋`.
struct Grid {
    /// Delay units per second.
    dd: i128,
    /// The provisioned source burst, `b_src·db`.
    base_burst: i128,
    /// The per-stage backlog budget, `⌊bud·db⌋`.
    budget: Option<i128>,
    stages: Vec<StageGrid>,
    /// Indexed by [`ClassId`].
    classes: Vec<ClassGrid>,
}

/// `x·k`, for an integer `k` that `x`'s denominator divides.
fn scaled(x: Rat, k: i128) -> Option<i128> {
    x.numer().checked_mul(k / x.denom())
}

/// `⌊x·k⌋`: one `i128` product and division, cross-reduced through
/// `Rat` only when the product overflows.
fn floor_scaled(x: Rat, k: i128) -> Option<i128> {
    match x.numer().checked_mul(k) {
        Some(xk) => Some(xk.div_euclid(x.denom())),
        None => x.checked_mul(Rat::new(k, 1)).map(Rat::floor),
    }
}

impl Grid {
    /// The grid of a path with service `svc`, source burst
    /// `base_burst` and backlog budget `budget`, for `classes`; `None`
    /// when it does not fit `i128`.
    fn new(
        svc: &[Service],
        base_burst: Rat,
        budget: Option<Rat>,
        classes: &[FlowClass],
    ) -> Option<Grid> {
        let rates = svc
            .iter()
            .map(|s| s.rate)
            .chain(classes.iter().map(|c| c.rate));
        let dr = rates.map(Rat::denom).try_fold(1, lcm)?;
        let dt = svc.iter().map(|s| s.lat.denom()).try_fold(1, lcm)?;
        let bursts = std::iter::once(base_burst).chain(classes.iter().map(|c| c.burst));
        let db = bursts.map(Rat::denom).try_fold(dr.checked_mul(dt)?, lcm)?;
        let rate_nums = svc.iter().map(|s| s.rate.numer()).try_fold(1, lcm)?;
        let dd = db.checked_mul(rate_nums)?;
        let stages = svc
            .iter()
            .map(|s| {
                Some(StageGrid {
                    rate: scaled(s.rate, dr)?,
                    tau: scaled(s.lat, db / dr)?,
                    lat: scaled(s.lat, dd)?,
                    // dd/(db·R) = L·q/p for R = p/q, with p dividing L.
                    m: (rate_nums / s.rate.numer()).checked_mul(s.rate.denom())?,
                    cap: match s.cap {
                        Some(c) => Some(floor_scaled(c, dr)?),
                        None => None,
                    },
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let classes = classes
            .iter()
            .map(|c| {
                Some(ClassGrid {
                    rate: scaled(c.rate, dr)?,
                    burst: scaled(c.burst, db)?,
                    deadline: floor_scaled(c.deadline, dd)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Grid {
            dd,
            base_burst: scaled(base_burst, db)?,
            budget: match budget {
                Some(b) => Some(floor_scaled(b, db)?),
                None => None,
            },
            stages,
            classes,
        })
    }

    /// The tightest deadline among the classes resident at one
    /// attachment stage (`per_class` counts, indexed by class).
    fn slo_min(&self, per_class: &[u32]) -> Option<i128> {
        self.classes
            .iter()
            .zip(per_class)
            .filter(|&(_, &cnt)| cnt > 0)
            .map(|(c, _)| c.deadline)
            .min()
    }

    /// The committed recurrence from stage `a` on, in place: everything
    /// before `a` is untouched. `None` on `i128` overflow.
    fn recompute(&self, load: &mut [Load], a: usize) -> Option<()> {
        for j in a..load.len() {
            let (prev_r, prev_b) = if j == 0 {
                (0, self.base_burst)
            } else {
                let up = load[j - 1];
                let hop = up.r_in.checked_mul(self.stages[j - 1].tau)?;
                (up.r_in, up.b_in.checked_add(hop)?)
            };
            let st = self.stages[j];
            let l = &mut load[j];
            l.r_in = prev_r.checked_add(l.attach_rate)?;
            l.b_in = prev_b.checked_add(l.attach_burst)?;
            l.d = st.lat.checked_add(l.b_in.checked_mul(st.m)?)?;
        }
        Some(())
    }

    /// The load side rebuilt from resident counts: attachment
    /// aggregates, tightest deadlines and the recurrence. `None` on
    /// `i128` overflow.
    fn loads(&self, counts: &[Vec<u32>]) -> Option<Vec<Load>> {
        let mut load = vec![Load::default(); counts.len()];
        for (l, per_class) in load.iter_mut().zip(counts) {
            for (c, &cnt) in self.classes.iter().zip(per_class) {
                let cnt = i128::from(cnt);
                l.attach_rate = l.attach_rate.checked_add(c.rate.checked_mul(cnt)?)?;
                l.attach_burst = l.attach_burst.checked_add(c.burst.checked_mul(cnt)?)?;
            }
            l.slo_min = self.slo_min(per_class);
        }
        self.recompute(&mut load, 0)?;
        Some(load)
    }
}

/// The panic message of decision-time grid overflow.
const OVERFLOW: &str = "admission grid arithmetic overflowed i128";

/// Checked `x + y` on the decision path.
#[inline]
fn add(x: i128, y: i128) -> i128 {
    x.checked_add(y).expect(OVERFLOW)
}

/// Checked `x·y` on the decision path.
#[inline]
fn mul(x: i128, y: i128) -> i128 {
    x.checked_mul(y).expect(OVERFLOW)
}

/// The load-side state of one stage, on the path's grid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Load {
    /// Σ rates of flows attached here.
    attach_rate: i128,
    /// Σ bursts of flows attached here.
    attach_burst: i128,
    /// Tightest deadline among flows attached here.
    slo_min: Option<i128>,
    /// Aggregate arrival rate entering the stage (cumulative over
    /// attachment stages `≤ j`).
    r_in: i128,
    /// Aggregate burst entering the stage (hop-by-hop inflation plus
    /// newly attached bursts).
    b_in: i128,
    /// Stage delay bound `a_j + β_j·m_j`.
    d: i128,
}

/// One stage of a candidate's evaluated suffix (preallocated, so
/// `decide` allocates nothing).
#[derive(Clone, Copy, Default)]
struct Scratch {
    r: i128,
    b: i128,
    d: i128,
    /// Cheap bound from this stage to the sink.
    suffix: i128,
}

/// One admission path (a tenant's local pipeline, or its remote
/// offload pipeline): the frozen service-side scalars, their integer
/// grid, and the incrementally maintained load-side state.
struct PathState {
    pipeline: Pipeline,
    budget: Option<Rat>,

    // ---- frozen at onboarding (service side) ----
    svc: Vec<Service>,
    /// Interned per-stage packetized service curves (shared cache).
    #[allow(dead_code)] // held so the scalars' backing curves stay interned
    service_refs: Vec<CurveRef>,
    /// Interned suffix service concatenations `RL(min R, ΣT)`.
    #[allow(dead_code)] // read in debug assertions; held for interning
    suffix_refs: Vec<CurveRef>,
    /// Rebuilt whenever a class registers or the service changes.
    grid: Grid,

    // ---- incrementally maintained (load side) ----
    /// Resident flow counts per `[attach stage][class]`.
    counts: Vec<Vec<u32>>,
    load: Vec<Load>,
    scratch: Vec<Scratch>,
}

impl PathState {
    fn len(&self) -> usize {
        self.svc.len()
    }

    /// Build a path from a pipeline: one cached model build, scalar
    /// extraction, suffix concatenation in closed form, the placement
    /// pre-filter caps, and the grid for `classes`.
    fn onboard(
        pipeline: Pipeline,
        budget: Option<Rat>,
        classes: &[FlowClass],
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
        let mut svc = Vec::with_capacity(n);
        let mut service_refs = Vec::with_capacity(n);
        for nm in model.per_node.iter() {
            let (rate, lat) = nm
                .service
                .as_rate_latency()
                .filter(|(r, _)| r.is_positive())
                .ok_or_else(|| AdmitError::UnsupportedService(nm.name.clone()))?;
            svc.push(Service {
                rate,
                lat,
                cap: None,
            });
            service_refs.push(cache.curves().intern(&nm.service));
        }

        // Suffix service concatenations via the closed form
        // `RL(R₁,T₁) ⊗ RL(R₂,T₂) = RL(min R, T₁+T₂)`, interned through
        // the scalar fast lane — no general ⊗ runs here.
        let mut suffix_refs: Vec<CurveRef> = Vec::with_capacity(n);
        let mut rmin = svc[n - 1].rate;
        let mut tsum = Rat::ZERO;
        for s in svc.iter().rev() {
            rmin = rmin.min(s.rate);
            tsum += s.lat;
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
        if let Some(bud) = budget {
            for (k, s) in svc.iter_mut().enumerate() {
                let mut cap = bounds::max_admissible_rate(suffix_refs[k].curve(), Rat::ZERO, bud)
                    .expect("zero burst fits any budget");
                if k == 0 {
                    let whole = model
                        .max_admissible_rate(bud)
                        .expect("zero-load budget feasibility was checked");
                    cap = cap.min(whole);
                }
                s.cap = Some(cap);
            }
        }

        let grid = Grid::new(&svc, base_burst, budget, classes).ok_or(AdmitError::Overflow)?;
        let counts = vec![Vec::new(); n];
        let load = grid.loads(&counts).ok_or(AdmitError::Overflow)?;
        Ok(PathState {
            pipeline,
            budget,
            svc,
            service_refs,
            suffix_refs,
            grid,
            counts,
            load,
            scratch: vec![Scratch::default(); n],
        })
    }

    /// The grid and load side this path would have with `classes`
    /// registered, its resident flows carried over exactly.
    fn regrid(&self, classes: &[FlowClass]) -> Result<(Grid, Vec<Load>), AdmitError> {
        let grid = Grid::new(&self.svc, self.pipeline.source.burst, self.budget, classes)
            .ok_or(AdmitError::Overflow)?;
        let load = grid.loads(&self.counts).ok_or(AdmitError::Overflow)?;
        Ok((grid, load))
    }

    /// Evaluate a candidate of `class` at stage `a` without
    /// committing: the allocation-free hot path, on the grid. Returns
    /// the certified bound or the first failing check, in the fixed
    /// procedure order (pre-filter, rate feasibility + budget per
    /// stage, cheap deadline pass, tight fallback).
    fn evaluate(&mut self, class: ClassId, a: usize) -> Result<EvalOut, RejectReason> {
        let n = self.len();
        debug_assert!(a < n);
        let p = self.grid.classes[class.0];
        let (g, load) = (&self.grid, &self.load);

        // 1. Placement pre-filter: suffix rate caps (sound fast
        // rejects — a violated cap implies a violated exact check).
        for (st, l) in g.stages[a..].iter().zip(&load[a..]) {
            if let Some(cap) = st.cap {
                if add(l.r_in, p.rate) > cap {
                    return Err(RejectReason::PlacementCap);
                }
            }
        }

        // 2. Stage pass over the affected suffix: rates, inflated
        // bursts, per-stage delay bounds, backlog budget.
        let s = &mut self.scratch;
        for j in a..n {
            let st = g.stages[j];
            let r = add(load[j].r_in, p.rate);
            if r > st.rate {
                return Err(RejectReason::RateInfeasible);
            }
            let upstream = if j == 0 {
                g.base_burst
            } else {
                let (ur, ub) = if j == a {
                    (load[j - 1].r_in, load[j - 1].b_in)
                } else {
                    (s[j - 1].r, s[j - 1].b)
                };
                add(ub, mul(ur, g.stages[j - 1].tau))
            };
            let mut b = add(upstream, load[j].attach_burst);
            if j == a {
                b = add(b, p.burst);
            }
            s[j].r = r;
            s[j].b = b;
            s[j].d = add(st.lat, mul(b, st.m));
            if let Some(bud) = g.budget {
                if add(b, mul(r, st.tau)) > bud {
                    return Err(RejectReason::BudgetExceeded);
                }
            }
        }

        // 3. Cheap bound: suffix sums of per-stage delay bounds
        // (committed below `a`, candidate state at and after).
        let mut acc = 0;
        for j in (0..n).rev() {
            acc = add(acc, if j >= a { s[j].d } else { load[j].d });
            s[j].suffix = acc;
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
            if self.scratch[k].suffix <= limit {
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
        let delay = if self.scratch[a].suffix <= limit_a {
            self.scratch[a].suffix
        } else {
            self.tight_bound(p, a, a)
        };
        Ok(EvalOut {
            bound: Rat::new(delay, self.grid.dd),
            used_tight,
        })
    }

    /// The deadline floor protecting attachment stage `k` while
    /// deciding a candidate `(p, a)`.
    fn limit_at(&self, k: usize, p: ClassGrid, a: usize) -> Option<i128> {
        let slo = self.load[k].slo_min;
        if k == a {
            Some(slo.map_or(p.deadline, |s| s.min(p.deadline)))
        } else {
            slo
        }
    }

    /// Tight delay bound from stage `k` to the sink under the
    /// candidate `(p, a)`, in delay units: the suffix is split into
    /// maximal attachment-free segments; each segment's concatenation
    /// `RL(min R, ΣT)` pays the entry burst once (`d = ΣT + B/R_min`,
    /// here `Σa_j + β·max m_j`), and bursts inflate between segments
    /// exactly as per stage (`β → β + ρ·τ` — the rate is constant
    /// within a segment).
    fn tight_bound(&self, p: ClassGrid, a: usize, k: usize) -> i128 {
        let n = self.len();
        let st = &self.grid.stages;
        let b_at = |j: usize| {
            if j >= a {
                self.scratch[j].b
            } else {
                self.load[j].b_in
            }
        };
        // Class bursts are positive, so the candidate's stage always
        // carries attached burst.
        debug_assert!(p.burst > 0);
        let attached = |j: usize| j == a || self.load[j].attach_burst > 0;
        let mut total = 0;
        let mut seg_start = k;
        let mut mmax = st[k].m;
        let mut t = st[k].lat;
        #[allow(clippy::needless_range_loop)] // j also marks the sink boundary n
        for j in k + 1..=n {
            if j == n || attached(j) {
                total = add(add(total, t), mul(b_at(seg_start), mmax));
                if j < n {
                    seg_start = j;
                    mmax = st[j].m;
                    t = st[j].lat;
                }
            } else {
                mmax = mmax.max(st[j].m);
                t = add(t, st[j].lat);
            }
        }
        total
    }

    /// Commit an admitted candidate: bump the attachment aggregates
    /// and adopt the suffix that the successful [`PathState::evaluate`]
    /// of the same `(class, a)` just left in the scratch stages. It ran
    /// the committed recurrence with the candidate added over `a..n`
    /// on the same grid, so the copy equals a recompute.
    fn commit(&mut self, class: ClassId, a: usize) {
        if self.counts[a].len() <= class.0 {
            self.counts[a].resize(class.0 + 1, 0);
        }
        self.counts[a][class.0] += 1;
        let p = self.grid.classes[class.0];
        let l = &mut self.load[a];
        l.attach_rate = add(l.attach_rate, p.rate);
        l.attach_burst = add(l.attach_burst, p.burst);
        l.slo_min = Some(l.slo_min.map_or(p.deadline, |s| s.min(p.deadline)));
        for (l, s) in self.load[a..].iter_mut().zip(&self.scratch[a..]) {
            l.r_in = s.r;
            l.b_in = s.b;
            l.d = s.d;
        }
        #[cfg(debug_assertions)]
        {
            let adopted = self.load.clone();
            self.grid.recompute(&mut self.load, a).expect(OVERFLOW);
            debug_assert!(
                adopted == self.load,
                "commit adopted a suffix the recurrence does not produce"
            );
        }
    }

    /// Remove one resident flow of `(class, a)` and refresh the
    /// affected suffix.
    fn depart(&mut self, class: ClassId, a: usize) -> Result<(), AdmitError> {
        if a >= self.len() {
            return Err(AdmitError::BadAttach);
        }
        match self.counts[a].get_mut(class.0) {
            Some(slot) if *slot > 0 => *slot -= 1,
            _ => return Err(AdmitError::NoSuchFlow),
        }
        let c = self.grid.classes[class.0];
        let l = &mut self.load[a];
        l.attach_rate -= c.rate;
        l.attach_burst -= c.burst;
        l.slo_min = self.grid.slo_min(&self.counts[a]);
        self.grid.recompute(&mut self.load, a).expect(OVERFLOW);
        Ok(())
    }

    /// Carry resident flows over from a pre-reconfiguration path with
    /// the same stage count, rebuilding the load side on this path's
    /// grid.
    fn adopt_flows(&mut self, old: &PathState) -> Result<(), AdmitError> {
        debug_assert_eq!(self.len(), old.len());
        self.counts = old.counts.clone();
        self.load = self.grid.loads(&self.counts).ok_or(AdmitError::Overflow)?;
        Ok(())
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

impl Tenant {
    fn paths(&self) -> impl Iterator<Item = &PathState> {
        std::iter::once(&self.local).chain(self.remote.as_ref())
    }

    fn paths_mut(&mut self) -> impl Iterator<Item = &mut PathState> {
        std::iter::once(&mut self.local).chain(self.remote.as_mut())
    }
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

    /// Register a flow class for later requests. Every onboarded path
    /// is re-gridded for it, resident flows carried over exactly; when
    /// some path's grid would not fit `i128` the registration fails
    /// with [`AdmitError::Overflow`] and the engine is left unchanged.
    pub fn register_class(&mut self, class: FlowClass) -> Result<ClassId, AdmitError> {
        class.validate()?;
        self.classes.push(class);
        // Build every path's new grid before swapping any in.
        let regrids: Result<Vec<_>, _> = self
            .tenants
            .iter()
            .flat_map(Tenant::paths)
            .map(|p| p.regrid(&self.classes))
            .collect();
        if regrids.is_err() {
            self.classes.pop();
        }
        let paths = self.tenants.iter_mut().flat_map(Tenant::paths_mut);
        for (p, (grid, load)) in paths.zip(regrids?) {
            p.grid = grid;
            p.load = load;
        }
        Ok(ClassId(self.classes.len() - 1))
    }

    /// The registered classes, indexed by [`ClassId`].
    pub fn classes(&self) -> &[FlowClass] {
        &self.classes
    }

    /// Onboard a tenant pipeline: one cached model build (shared
    /// prefixes across structurally equal tenants hit the memo), after
    /// which decisions against this tenant are pure integer updates on
    /// the path's grid ([`AdmitError::Overflow`] when the grid does
    /// not fit `i128`). `budget` is an optional per-stage backlog
    /// budget in bytes.
    pub fn add_tenant(
        &mut self,
        pipeline: Pipeline,
        budget: Option<Rat>,
    ) -> Result<TenantId, AdmitError> {
        let local = PathState::onboard(pipeline, budget, &self.classes, &mut self.cache)?;
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
        let path = PathState::onboard(pipeline, budget, &self.classes, &mut self.cache)?;
        self.tenants[tenant.0].remote = Some(path);
        Ok(())
    }

    fn check_class(&self, class: ClassId) -> Result<(), AdmitError> {
        if class.0 < self.classes.len() {
            Ok(())
        } else {
            Err(AdmitError::UnknownClass)
        }
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
        self.check_class(class)?;
        let t = self
            .tenants
            .get_mut(tenant.0)
            .ok_or(AdmitError::UnknownTenant)?;
        if attach >= t.local.len() {
            return Err(AdmitError::BadAttach);
        }
        self.stats.decisions += 1;
        match t.local.evaluate(class, attach) {
            Ok(out) => {
                t.local.commit(class, attach);
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
                    if let Ok(out) = remote.evaluate(class, 0) {
                        remote.commit(class, 0);
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
        self.check_class(class)?;
        let t = self
            .tenants
            .get_mut(tenant.0)
            .ok_or(AdmitError::UnknownTenant)?;
        if attach >= t.local.len() {
            return Err(AdmitError::BadAttach);
        }
        match t.local.evaluate(class, attach) {
            Ok(out) => Ok(Decision::Admit { bound: out.bound }),
            Err(reason) => {
                if let Some(remote) = t.remote.as_mut() {
                    if let Ok(out) = remote.evaluate(class, 0) {
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
        self.check_class(class)?;
        let t = self
            .tenants
            .get_mut(tenant.0)
            .ok_or(AdmitError::UnknownTenant)?;
        match placement {
            Placement::Local => t.local.depart(class, attach),
            Placement::Remote => t
                .remote
                .as_mut()
                .ok_or(AdmitError::RemoteConfig)?
                .depart(class, 0),
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
    /// the recomputed bounds. A reprovisioning onboarding rejects,
    /// [`AdmitError::Overflow`] included, leaves the tenant untouched.
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
        let mut fresh = PathState::onboard(pipeline, budget, &self.classes, &mut self.cache)?;
        let t = self.tenants.get_mut(tenant.0).expect("checked above");
        fresh.adopt_flows(&t.local)?;
        t.local = fresh;
        Ok(self.cache.invalidate_suffix(&old_pipeline, stage))
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
            .svc
            .get(attach)
            .map(|s| s.cap)
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

    /// The certified bound, or the rejection, for one class at stage 0
    /// of `two_stage()`, from the engine and from the oracle.
    fn decide_both(c: FlowClass) -> (Decision, Result<Rat, RejectReason>) {
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        let id = e.register_class(c.clone()).unwrap();
        let want = oracle::decide_full(&two_stage(), None, e.classes(), &[], &c, 0);
        (e.decide(t, id, 0).unwrap(), want)
    }

    #[test]
    fn deadlines_within_one_grid_step_of_a_bound_compare_exactly() {
        // The grid of `two_stage()` for an integer class: dr = 1,
        // dt = 15, db = 15, dd = db·lcm(10, 6) = 450; the cheap bound
        // 74/15 and the tight bound 19/5 are grid points.
        let mut e = AdmissionEngine::new();
        let t = e.add_tenant(two_stage(), None).unwrap();
        e.register_class(class(1, 2, Rat::int(10))).unwrap();
        let dd = e.tenants[t.0].local.grid.dd;
        assert_eq!(dd, 450);
        // Half a grid step: deadlines strictly between grid points,
        // where only a floor gives the exact answer.
        let eps = rat(1, 2 * dd);
        let (cheap, tight) = (rat(74, 15), rat(19, 5));
        for (deadline, want) in [
            (cheap + eps, Decision::Admit { bound: cheap }),
            (cheap, Decision::Admit { bound: cheap }),
            // The cheap bound misses by half a step; the tight one
            // certifies.
            (cheap - eps, Decision::Admit { bound: tight }),
            (tight + eps, Decision::Admit { bound: tight }),
            (tight, Decision::Admit { bound: tight }),
            (
                tight - eps,
                Decision::Reject {
                    reason: RejectReason::DeadlineExceeded,
                },
            ),
        ] {
            let (got, oracle) = decide_both(class(1, 2, deadline));
            assert_eq!(got, want, "deadline {deadline}");
            assert_eq!(oracle, want.bound().ok_or(RejectReason::DeadlineExceeded));
        }
    }

    #[test]
    fn a_resident_deadline_within_one_grid_step_protects_its_flow() {
        // A flow resident at stage 1 whose deadline sits half a grid
        // step below the bound a stage-0 candidate would push it to
        // must reject that candidate; at the bound or half a step
        // above, the candidate is admitted. The limit is the last
        // stage's delay with both flows, which the oracle reports as
        // the bound of a stage-1 arrival behind a stage-0 resident.
        let open = class(1, 2, Rat::int(100));
        let limit = oracle::decide_full(
            &two_stage(),
            None,
            std::slice::from_ref(&open),
            &[(0, ClassId(0))],
            &open,
            1,
        )
        .unwrap();
        assert_eq!(limit, rat(52, 15));
        let eps = rat(1, 2 * 450);
        for (slack, admitted) in [(eps, true), (Rat::ZERO, true), (-eps, false)] {
            let mut e = AdmissionEngine::new();
            let t = e.add_tenant(two_stage(), None).unwrap();
            let resident = e.register_class(class(1, 2, limit + slack)).unwrap();
            let cand = e.register_class(open.clone()).unwrap();
            assert_eq!(e.tenants[t.0].local.grid.dd, 450);
            assert!(e.decide(t, resident, 1).unwrap().is_admitted());
            let got = e.decide(t, cand, 0).unwrap();
            assert_eq!(got.is_admitted(), admitted, "slack {slack}: {got:?}");
            let want =
                oracle::decide_full(&two_stage(), None, e.classes(), &[(1, resident)], &open, 0);
            assert_eq!(got.bound().ok_or(RejectReason::DeadlineExceeded), want);
        }
    }

    /// One stage per prime rate (B/s), unit jobs and zero latency:
    /// `T_j = 1/R_j`, so for k primes near 2^31 both `dt` and the lcm
    /// of the rate numerators are near 2^(31k), and `dd` near 2^(62k).
    fn coprime_pipeline(primes: &[i64]) -> Pipeline {
        Pipeline::new(
            "coprime",
            Source {
                rate: Rat::ONE,
                burst: Rat::ONE,
            },
            primes
                .iter()
                .enumerate()
                .map(|(i, &p)| node(&format!("s{i}"), p, 1))
                .collect(),
        )
    }

    #[test]
    fn a_grid_that_does_not_fit_i128_is_an_overflow_error() {
        // Four primes: dd near 2^248.
        let primes = [2147483647, 2147483629, 2147483587, 2147483579];
        let mut e = AdmissionEngine::new();
        e.register_class(class(1, 1, Rat::ONE)).unwrap();
        assert_eq!(
            e.add_tenant(coprime_pipeline(&primes), None),
            Err(AdmitError::Overflow)
        );
        let t = e.add_tenant(two_stage(), None).unwrap();
        assert_eq!(
            e.set_remote(t, coprime_pipeline(&primes), None),
            Err(AdmitError::Overflow)
        );
        assert_eq!(
            e.reconfigure_stage(t, 1, node("wide", 2147483647, 1)),
            Ok(1),
            "one wide stage still fits"
        );
        assert_eq!(
            AdmitError::Overflow.to_string(),
            "admission grid does not fit i128"
        );
    }

    #[test]
    fn a_registration_that_overflows_leaves_the_engine_unchanged() {
        // Two stages at primes near 2^31: dd ≈ 2^124 for integer
        // classes, so a 4 s deadline still fits. A class whose burst
        // brings a new denominator of 1021 pushes dd past i128.
        let mut e = AdmissionEngine::new();
        let c = e.register_class(class(1, 1, Rat::int(4))).unwrap();
        let small = e.add_tenant(two_stage(), None).unwrap();
        let wide = e
            .add_tenant(coprime_pipeline(&[2147483647, 2147483629]), None)
            .unwrap();
        assert!(e.decide(small, c, 0).unwrap().is_admitted());
        let before = (e.peek(small, c, 1).unwrap(), e.peek(wide, c, 0).unwrap());
        let dd = e.tenants[wide.0].local.grid.dd;
        let late = FlowClass {
            burst: rat(1021 * 3 + 1, 1021),
            ..class(1, 1, Rat::int(4))
        };
        assert_eq!(e.register_class(late), Err(AdmitError::Overflow));
        assert_eq!(e.classes().len(), 1);
        assert_eq!(e.tenants[wide.0].local.grid.dd, dd);
        assert_eq!(e.tenants[small.0].local.grid.classes.len(), 1);
        assert_eq!(
            (e.peek(small, c, 1).unwrap(), e.peek(wide, c, 0).unwrap()),
            before
        );
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
