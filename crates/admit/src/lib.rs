//! # nc-admit — the always-on admission-control engine
//!
//! The paper's §3 bounds answer exactly the question a capacity
//! planner asks — *can this flow meet its deadline on this pipeline?*
//! — but a full
//! [`Pipeline::build_model`](nc_core::pipeline::Pipeline::build_model) +
//! bounds pass per question is three orders of magnitude too slow for
//! an online service. This
//! crate packages the analytics as a long-lived [`AdmissionEngine`]
//! holding a fleet of tenant pipelines plus a shared
//! [`ModelCache`](nc_core::pipeline::ModelCache), answering
//! admit / reject / admit-remote requests by **incremental** NC
//! recomputation:
//!
//! * The **service side is frozen at onboarding**: one cached model
//!   build per tenant pipeline extracts each stage's packetized
//!   rate-latency service `β'_n = [R_n(t − T_n) − l_n]⁺ =
//!   RL(R_n, T_n + l_n/R_n)` as a scalar `(R, T)` pair (the
//!   [`Curve::as_rate_latency`](nc_core::curve::Curve::as_rate_latency)
//!   detector), along with suffix concatenations
//!   `RL(min_{j≥k} R_j, Σ_{j≥k} T_j)` interned through the
//!   [`CurveCache`](nc_core::cache::CurveCache) fast lane — the closed
//!   form `RL ⊗ RL = RL(min R, ΣT)` skips the general `⊗` strategy
//!   grid entirely.
//! * The **load side is incremental**: admitting a flow at attachment
//!   stage `a` only touches the suffix `j ≥ a` of the per-stage
//!   aggregate state (rates, inflated bursts, per-stage delay bounds) —
//!   exactly mirroring the pipeline prefix memo, whose entries past an
//!   edited stage are evicted by
//!   [`ModelCache::invalidate_suffix`](nc_core::pipeline::ModelCache::invalidate_suffix)
//!   on reconfiguration.
//! * The **steady-state decision path is allocation-free**: every
//!   bound on the hot path is a leaky-bucket-vs-rate-latency closed
//!   form (`d = T + b/R`, `x = b + r·T`, `α ⊘ β` burst inflation
//!   `b → b + r·T`) evaluated in exact rational arithmetic over
//!   preallocated scratch arrays. The curves backing those scalars
//!   stay interned in the shared cache; no curve is built, hashed, or
//!   cloned per decision.
//!
//! Two sound deadline bounds are combined, following Bouillard's
//! accuracy-vs-tractability analysis (arXiv:2010.09263): a **cheap**
//! sum of per-stage delay bounds (burst paid at every hop), and a
//! **tight** segmented concatenation bound that pays each burst once
//! per maximal attachment-free segment. The cheap bound dominates the
//! tight one, so a cheap pass admits without ever evaluating the
//! concatenation — the tight path is the slow-path fallback. See
//! `DESIGN.md` §13 for the soundness argument.
//!
//! The offload scenario of *"To Stream or Not to Stream"*
//! (arXiv:2509.19532) is modeled per tenant: when the local pipeline
//! rejects a flow, the engine re-evaluates it against the tenant's
//! remote pipeline (uplink stages included) and answers
//! [`Decision::AdmitRemote`] when the remote bound meets the deadline.
//!
//! Every decision is reproducible from scratch: [`oracle`] recomputes
//! the identical procedure through the general curve algebra
//! (convolutions, deconvolutions, horizontal/vertical deviations on
//! piecewise-linear curves, full `build_model` per call) and the
//! property suite asserts decision-and-bound equality on random
//! request sequences — the cold-start ablation baseline of the
//! `perfbase` throughput row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use nc_core::num::Rat;

mod engine;
pub mod oracle;

pub use engine::{AdmissionEngine, EngineStats, TenantId};

/// A heterogeneous flow class: the request-side unit of admission.
///
/// Rates and bursts are input-referred bytes/s and bytes, matching the
/// normalized units of [`nc_core::pipeline::Pipeline`]; `deadline` is
/// the end-to-end delay SLO in seconds from the flow's attachment
/// stage to the pipeline sink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowClass {
    /// Class name (reporting only).
    pub name: String,
    /// Sustained leaky-bucket rate `r` (bytes/s, input-referred).
    pub rate: Rat,
    /// Leaky-bucket burst allowance `b` (bytes). Must cover `block`.
    pub burst: Rat,
    /// Block size: the contiguous unit the flow's consumer needs
    /// delivered to make progress (bytes). The deadline SLO is read as
    /// a block-completion deadline, so admission requires
    /// `burst ≥ block` — the burst envelope must admit a whole block.
    pub block: Rat,
    /// Delay SLO (seconds): the flow's NC delay bound from its
    /// attachment stage must not exceed this.
    pub deadline: Rat,
}

impl FlowClass {
    fn validate(&self) -> Result<(), AdmitError> {
        if !self.rate.is_positive()
            || !self.block.is_positive()
            || self.burst < self.block
            || !self.deadline.is_positive()
        {
            return Err(AdmitError::BadClass);
        }
        Ok(())
    }
}

/// Handle to a registered [`FlowClass`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub usize);

/// Where an admitted flow was placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The tenant's local pipeline, at the requested attachment stage.
    Local,
    /// The tenant's remote pipeline (attachment stage 0, behind the
    /// uplink stages baked into the remote pipeline).
    Remote,
}

/// Why a request was rejected (the first failing check, in procedure
/// order — see `DESIGN.md` §13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The placement pre-filter's rate cap
    /// ([`nc_core::bounds::max_admissible_rate`] over the suffix
    /// service concatenation) excludes the flow outright.
    PlacementCap,
    /// Some stage's aggregate arrival rate would exceed its guaranteed
    /// service rate — the NC bounds past that stage are infinite.
    RateInfeasible,
    /// Some stage's backlog bound would exceed the tenant's per-stage
    /// buffer budget.
    BudgetExceeded,
    /// The candidate's — or an already-admitted flow's — delay bound
    /// would exceed its deadline SLO under both the cheap and the
    /// tight bound.
    DeadlineExceeded,
}

impl RejectReason {
    /// Stable lowercase label (CSV output).
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::PlacementCap => "placement-cap",
            RejectReason::RateInfeasible => "rate-infeasible",
            RejectReason::BudgetExceeded => "budget-exceeded",
            RejectReason::DeadlineExceeded => "deadline-exceeded",
        }
    }
}

/// The engine's answer to one admission request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Admitted on the local pipeline; `bound` is the certified delay
    /// bound (seconds) for the flow from its attachment stage.
    Admit {
        /// Certified delay bound for the admitted flow.
        bound: Rat,
    },
    /// Rejected locally but admitted on the tenant's remote pipeline.
    AdmitRemote {
        /// Certified delay bound on the remote pipeline (uplink
        /// included).
        bound: Rat,
    },
    /// Rejected on the local pipeline and (when configured) the remote
    /// one; carries the *local* rejection reason.
    Reject {
        /// First failing check on the local path.
        reason: RejectReason,
    },
}

impl Decision {
    /// `true` for both local and remote admission.
    pub fn is_admitted(&self) -> bool {
        !matches!(self, Decision::Reject { .. })
    }

    /// The certified delay bound, when admitted.
    pub fn bound(&self) -> Option<Rat> {
        match self {
            Decision::Admit { bound } | Decision::AdmitRemote { bound } => Some(*bound),
            Decision::Reject { .. } => None,
        }
    }

    /// Where the flow was placed, when admitted.
    pub fn placement(&self) -> Option<Placement> {
        match self {
            Decision::Admit { .. } => Some(Placement::Local),
            Decision::AdmitRemote { .. } => Some(Placement::Remote),
            Decision::Reject { .. } => None,
        }
    }
}

/// Errors from engine configuration and flow bookkeeping (never from
/// the steady-state decision path, which answers with
/// [`Decision::Reject`] instead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The tenant pipeline failed [`nc_core::pipeline::Pipeline`]
    /// validation.
    InvalidPipeline(String),
    /// A stage's service curve is not rate-latency shaped, so the
    /// scalar decision lane cannot represent it (cannot happen for
    /// models built by this workspace's packetizer; guards against
    /// future curve families).
    UnsupportedService(String),
    /// The per-stage backlog budget is smaller than the zero-load
    /// backlog bound (the provisioned source burst alone overflows it).
    BudgetInfeasible,
    /// Flow-class parameters violate `rate > 0`, `block > 0`,
    /// `burst ≥ block`, `deadline > 0`.
    BadClass,
    /// Unknown [`TenantId`].
    UnknownTenant,
    /// Unknown [`ClassId`].
    UnknownClass,
    /// Attachment stage index out of range for the pipeline.
    BadAttach,
    /// [`AdmissionEngine::depart`] for a flow that is not resident.
    NoSuchFlow,
    /// [`AdmissionEngine::set_remote`] on a tenant that already has a
    /// remote pipeline, or a remote-path operation without one.
    RemoteConfig,
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::InvalidPipeline(e) => write!(f, "invalid pipeline: {e}"),
            AdmitError::UnsupportedService(s) => {
                write!(f, "stage {s}: service curve is not rate-latency")
            }
            AdmitError::BudgetInfeasible => {
                write!(f, "backlog budget below the zero-load backlog bound")
            }
            AdmitError::BadClass => write!(
                f,
                "flow class must satisfy rate > 0, block > 0, burst >= block, deadline > 0"
            ),
            AdmitError::UnknownTenant => write!(f, "unknown tenant id"),
            AdmitError::UnknownClass => write!(f, "unknown class id"),
            AdmitError::BadAttach => write!(f, "attachment stage out of range"),
            AdmitError::NoSuchFlow => write!(f, "no resident flow with that identity"),
            AdmitError::RemoteConfig => write!(f, "remote pipeline configuration conflict"),
        }
    }
}

impl std::error::Error for AdmitError {}
