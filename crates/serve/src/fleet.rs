//! The canonical admission fleet: heterogeneous tenant edge pipelines,
//! the shared datacenter offload path, and the reconfiguration catalog.
//!
//! This is the single definition of the workload every admission
//! consumer shares — the networked service (`shard`), its in-proc
//! oracle (`replay`), the `admit` bin, and the `perfbase` admission
//! and service rows — so the service replay and the in-proc replay
//! decide against byte-identical models.

use nc_admit::{AdmissionEngine, ClassId, FlowClass, TenantId};
use nc_core::num::Rat;
use nc_core::pipeline::{Node, NodeKind, Pipeline, Source, StageRates};
use nc_core::units::{mib_per_s, micros};
use nc_workloads::requests::RequestConfig;

/// Stage count of every tenant's local pipeline.
pub const STAGES: usize = 4;

/// Stage names of the local pipeline, in order.
const STAGE_NAMES: [&str; STAGES] = ["capture", "compress", "encrypt", "uplink"];
/// Base (tier-1.0) per-stage rates, MiB/s, in stage order.
const STAGE_RATES_MIB: [f64; STAGES] = [96.0, 56.0, 48.0, 64.0];
/// Per-stage dispatch latencies, microseconds.
const STAGE_LATENCY_US: [f64; STAGES] = [20.0, 40.0, 30.0, 120.0];
/// Per-stage job sizes, bytes.
const STAGE_JOBS: [i64; STAGES] = [4 << 10, 4 << 10, 4 << 10, 64 << 10];

fn node(name: &str, rate_mib: f64, latency_us: f64, job: i64) -> Node {
    Node::new(
        name,
        NodeKind::Compute,
        StageRates::fixed(mib_per_s(rate_mib)),
        micros(latency_us),
        Rat::int(job),
        Rat::int(job),
    )
}

/// The capacity tier multiplier of a tenant's pipeline.
pub fn tenant_tier(tenant: usize) -> f64 {
    [1.0, 1.5, 2.25][tenant % 3]
}

/// A tenant's local edge pipeline: capture → compress → encrypt →
/// uplink, in three capacity tiers so the fleet is heterogeneous. All
/// services are packetized rate-latency curves, so the engine's scalar
/// lane represents them exactly.
pub fn tenant_pipeline(tenant: usize) -> Pipeline {
    let tier = tenant_tier(tenant);
    Pipeline::new(
        format!("edge-t{}", tenant % 3),
        Source {
            rate: mib_per_s(48.0 * tier),
            burst: Rat::int(64 << 10),
        },
        (0..STAGES)
            .map(|s| {
                node(
                    STAGE_NAMES[s],
                    STAGE_RATES_MIB[s] * tier,
                    STAGE_LATENCY_US[s],
                    STAGE_JOBS[s],
                )
            })
            .collect(),
    )
}

/// Per-stage backlog budget of a tenant's local pipeline (bytes):
/// tight enough that bursty classes hit it under load.
pub fn tenant_budget(tenant: usize) -> Rat {
    Rat::int((24 << 20) * [1, 2, 3][tenant % 3])
}

/// The shared datacenter offload path: a wide-area uplink into an
/// over-provisioned processing tier — higher capacity, more fixed
/// latency. Every odd tenant gets one.
pub fn remote_pipeline() -> Pipeline {
    Pipeline::new(
        "datacenter",
        Source {
            rate: mib_per_s(256.0),
            burst: Rat::int(256 << 10),
        },
        vec![
            node("wan-uplink", 128.0, 4000.0, 64 << 10),
            node("ingest", 512.0, 200.0, 64 << 10),
            node("process", 256.0, 100.0, 16 << 10),
        ],
    )
}

/// Reconfiguration capacity tiers: the rate multiplier applied on top
/// of the tenant's own tier when a stage is reprovisioned. Tier 3 is
/// the degenerate zero-rate provisioning — the engine must reject it
/// at onboarding and leave the tenant untouched, which the service
/// integration test exercises.
pub const RECONFIG_TIERS: usize = 4;

/// The replacement [`Node`] for reconfiguring `stage` of `tenant`'s
/// local pipeline at capacity `tier` (`0..RECONFIG_TIERS`): a derate
/// (×0.75), the original provisioning (×1), an upgrade (×1.5), or the
/// degenerate zero-rate node (tier 3, rejected by the engine).
pub fn reconfig_node(tenant: usize, stage: usize, tier: usize) -> Node {
    assert!(stage < STAGES, "reconfig stage out of range");
    let factor = [0.75, 1.0, 1.5, 0.0][tier % RECONFIG_TIERS];
    node(
        STAGE_NAMES[stage],
        STAGE_RATES_MIB[stage] * tenant_tier(tenant) * factor,
        STAGE_LATENCY_US[stage],
        STAGE_JOBS[stage],
    )
}

/// The request-trace configuration for `tenants` tenants.
pub fn request_config(seed: u64, tenants: usize, per_tenant: usize) -> RequestConfig {
    RequestConfig::new(seed, tenants, per_tenant, STAGES)
}

/// Map the generator's flow specs to engine flow classes.
pub fn flow_classes(config: &RequestConfig) -> Vec<FlowClass> {
    config
        .specs
        .iter()
        .map(|s| FlowClass {
            name: s.name.into(),
            rate: s.rate,
            burst: s.burst,
            block: s.block,
            deadline: s.deadline,
        })
        .collect()
}

/// An engine loaded with a shard of the tenant fleet.
pub struct Shard {
    /// The engine owning this shard's tenants.
    pub engine: AdmissionEngine,
    /// Engine handle per global tenant index in the shard.
    pub tenants: Vec<(usize, TenantId)>,
    /// Registered class handles, index-aligned with the specs.
    pub classes: Vec<ClassId>,
}

/// Onboard the given tenants (one engine, shared model cache).
pub fn build_shard(config: &RequestConfig, tenant_ixs: &[usize]) -> Shard {
    let mut engine = AdmissionEngine::new();
    let classes = flow_classes(config)
        .into_iter()
        .map(|c| engine.register_class(c).expect("valid class"))
        .collect();
    let tenants = tenant_ixs
        .iter()
        .map(|&ix| {
            let t = engine
                .add_tenant(tenant_pipeline(ix), Some(tenant_budget(ix)))
                .expect("valid tenant pipeline");
            if ix % 2 == 1 {
                engine
                    .set_remote(t, remote_pipeline(), None)
                    .expect("valid remote pipeline");
            }
            (ix, t)
        })
        .collect();
    Shard {
        engine,
        tenants,
        classes,
    }
}

/// Partition tenants round-robin over `workers` shards.
pub fn shard_tenants(tenants: usize, workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1).min(tenants.max(1));
    let mut shards = vec![Vec::new(); workers];
    for t in 0..tenants {
        shards[t % workers].push(t);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconfig_tier_one_restores_the_original_provisioning() {
        for tenant in 0..3 {
            let base = tenant_pipeline(tenant);
            for stage in 0..STAGES {
                let n = reconfig_node(tenant, stage, 1);
                let b = &base.nodes[stage];
                assert_eq!(n.name, b.name);
                assert_eq!(n.rates, b.rates);
                assert_eq!(n.latency, b.latency);
                assert_eq!((n.job_in, n.job_out), (b.job_in, b.job_out));
            }
        }
    }

    #[test]
    fn reconfig_tiers_are_accepted_except_the_degenerate_one() {
        let cfg = request_config(11, 2, 4);
        let mut shard = build_shard(&cfg, &[0]);
        let tid = shard.tenants[0].1;
        for tier in [0, 1, 2] {
            shard
                .engine
                .reconfigure_stage(tid, 1, reconfig_node(0, 1, tier))
                .unwrap_or_else(|e| panic!("tier {tier} rejected: {e}"));
        }
        assert!(shard
            .engine
            .reconfigure_stage(tid, 1, reconfig_node(0, 1, 3))
            .is_err());
    }
}
