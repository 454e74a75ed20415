//! # nc-bench — the reproduction harness
//!
//! One binary per table/figure of the paper:
//!
//! | Binary   | Paper artifact |
//! |----------|----------------|
//! | `fig1`   | Figure 1 — curve geometry (α, β, γ, backlog, delay, α*) |
//! | `table1` | Table 1 — BLAST throughput, plus the §4.2 d/x findings |
//! | `fig4`   | Figure 4 — BLAST curves + simulated stairstep |
//! | `table2` | Table 2 — bump-in-the-wire stage throughputs (our kernels measured in isolation vs the paper's FPGA kernels) |
//! | `table3` | Table 3 — bump-in-the-wire throughput, plus the §5 d/x findings |
//! | `fig10`  | Figure 10 — bump-in-the-wire curves + stairstep |
//! | `repro`  | everything above, writing `results/*.{txt,csv,json}` |
//!
//! The `perfbase` binary is the one performance harness: it times the
//! substrates (curve algebra, the DES kernel, the workload kernels,
//! model construction), the simulators, the sweep engine, the admission
//! engine and its service front, and the repro binaries above, as rows
//! of the [`perf`] schema. [`perf`] also holds the baseline comparison
//! behind `scripts/perfgate.sh`.

#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};

pub mod perf;

/// Resolve (and create) the `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let dir = root.join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a text artifact into `results/`, echoing to stdout.
pub fn emit(name: &str, contents: &str) {
    let path = results_dir().join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("{contents}");
    println!("[written {}]", path.display());
}

/// Serialize a value as pretty JSON into `results/`.
pub fn emit_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let json = serde_json::to_string_pretty(value).expect("serialize");
    fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[written {}]", path.display());
}

/// The tracked BITW sweep workload shared by the `sweep` bin and the
/// `perfbase` cached-vs-uncached ablation: compressor block size
/// 256 B – 4 KiB × PCIe egress rate 16 – 256 MiB/s under the light
/// 40 MiB/s drive (the egress axis crosses the offered load, so the §3
/// regimes flip mid-surface), with throughput rows over a ten-step
/// horizon ladder (10 ms – 2 s, the paper's throughput-vs-window ramp).
/// `nx × ny` grid points, row-major with the egress axis fastest — the
/// varied stage is the last one, so within a row the analysis of the
/// five upstream stages is shared via the prefix memo.
pub fn bitw_sweep_spec(nx: usize, ny: usize) -> nc_sweep::SweepSpec {
    use nc_core::num::Rat;
    use nc_core::units::mib_per_s;
    use nc_sweep::{Axis, Param, SweepSpec};
    let mut base = nc_apps::bitw::pipeline(nc_apps::bitw::Scenario::Pessimistic);
    base.source = nc_apps::bitw::light_source();
    SweepSpec {
        base,
        axes: vec![
            Axis::linspace(Param::BlockSize(0), Rat::int(256), Rat::int(4096), nx),
            Axis::linspace(Param::Rate(5), mib_per_s(16.0), mib_per_s(256.0), ny),
        ],
        horizons: vec![
            Rat::new(1, 100),
            Rat::new(1, 50),
            Rat::new(3, 100),
            Rat::new(1, 20),
            Rat::new(1, 10),
            Rat::new(1, 5),
            Rat::new(3, 10),
            Rat::new(1, 2),
            Rat::int(1),
            Rat::int(2),
        ],
        sim: None,
        tail: None,
    }
}

/// A positive-integer size from the environment variable `name`, or
/// `default` when it is unset. A malformed or zero value warns on
/// stderr and falls back to `default`.
pub fn env_size(name: &str, default: usize) -> usize {
    parse_size(name, std::env::var(name).ok().as_deref(), default)
}

fn parse_size(name: &str, value: Option<&str>, default: usize) -> usize {
    match value.map(|s| s.trim().parse::<usize>()) {
        None => default,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("{name} must be a positive integer; using {default}");
            default
        }
    }
}

/// Format the bounds comparison section shared by `table1`/`table3`.
pub fn format_bounds(app: &str, b: &nc_apps::BoundsReport) -> String {
    use nc_core::num::Rat;
    use nc_core::units::{fmt_bytes, fmt_time};
    use nc_core::Value;
    let t = |x: f64| fmt_time(Value::finite(Rat::from_f64(x)));
    let by = |x: f64| fmt_bytes(Value::finite(Rat::from_f64(x)));
    format!(
        "{app} delay/backlog findings\n\
         \x20 virtual delay bound d        {:>12}   (paper {})\n\
         \x20 backlog bound x              {:>12}   (paper {})\n\
         \x20 sim observed delay           [{} .. {}]   (paper [{} .. {}])\n\
         \x20 sim peak backlog             {:>12}   (paper {})\n\
         \x20 sim within modeled bounds:   {}\n",
        t(b.delay_bound_s),
        t(b.paper_delay_bound_s),
        by(b.backlog_bound_bytes),
        by(b.paper_backlog_bound_bytes),
        t(b.sim_delay_min_s),
        t(b.sim_delay_max_s),
        t(b.paper_sim_delay_s.0),
        t(b.paper_sim_delay_s.1),
        by(b.sim_backlog_bytes),
        by(b.paper_sim_backlog_bytes),
        if b.sim_within_bounds() { "YES" } else { "NO" },
    )
}

pub mod admitload {
    //! The shared admission-control workload: a heterogeneous tenant
    //! fleet of edge pipelines fed by the `nc-workloads` request
    //! generator, replayed through the `nc-admit` engine.
    //!
    //! The fleet builders and the decision-row codec are canonical in
    //! `nc-serve` (the networked front replays the identical workload
    //! over its wire protocol); this module re-exports them and keeps
    //! the sharded in-proc replay used by the `admit` bin and the
    //! `perfbase` admission rows.
    //! Decisions are independent across tenants (each tenant has its
    //! own path state; the model cache is only consulted at
    //! onboarding), so a sharded replay that processes whole tenants
    //! and keys rows by the trace's global [`Request::seq`] reproduces
    //! the serial output byte for byte — for any `NC_THREADS`.
    //!
    //! Rows are [`nc_serve::proto::DecisionFrame`]s: the same struct
    //! the service puts on the wire, so there is exactly one encode
    //! path (`DecisionFrame::to_csv`) behind `results/admission.csv`
    //! no matter which front produced it.

    use nc_admit::{oracle, ClassId, Placement, TenantId};
    use nc_serve::proto::{EventKind, Outcome};
    use nc_workloads::requests::{tenant_requests, ReqKind, Request, RequestConfig};

    pub use nc_serve::fleet::{
        build_shard, flow_classes, remote_pipeline, request_config, shard_tenants, tenant_budget,
        tenant_pipeline, Shard, STAGES,
    };
    pub use nc_serve::proto::DecisionFrame as DecisionRow;

    /// Replay one tenant's request subsequence (trace order) through
    /// the shard's engine, returning one row per request.
    ///
    /// Departures vacate the flow admitted by the referenced arrival
    /// (`noop` if it was rejected); the admission identity — class,
    /// requested attach, placement — is tracked per arrival index.
    pub fn replay_tenant(
        shard: &mut Shard,
        tenant_id: TenantId,
        requests: &[Request],
    ) -> Vec<DecisionRow> {
        let mut admitted: Vec<Option<(ClassId, usize, Placement)>> = Vec::new();
        let mut rows = Vec::with_capacity(requests.len());
        for r in requests {
            let class = shard.classes[r.class as usize];
            let (event, outcome, bound) = match r.kind {
                ReqKind::Arrive => {
                    let d = shard
                        .engine
                        .decide(tenant_id, class, r.attach as usize)
                        .expect("trace stays in range");
                    if admitted.len() <= r.arrive_ix as usize {
                        admitted.resize(r.arrive_ix as usize + 1, None);
                    }
                    admitted[r.arrive_ix as usize] =
                        d.placement().map(|p| (class, r.attach as usize, p));
                    (EventKind::Arrive, Outcome::from_decision(&d), d.bound())
                }
                ReqKind::Depart { arrive_ix } => {
                    match admitted.get_mut(arrive_ix as usize).and_then(Option::take) {
                        Some((c, attach, placement)) => {
                            shard
                                .engine
                                .depart(tenant_id, c, attach, placement)
                                .expect("resident flow departs cleanly");
                            (EventKind::Depart, Outcome::Vacate, None)
                        }
                        None => (EventKind::Depart, Outcome::Noop, None),
                    }
                }
            };
            rows.push(DecisionRow {
                seq: r.seq,
                time_s: r.time_s,
                tenant: r.tenant,
                class: r.class,
                attach: r.attach,
                event,
                outcome,
                bound,
            });
        }
        rows
    }

    /// Replay a shard of the globally sequenced trace (from
    /// [`nc_workloads::requests::generate`]): each listed tenant's
    /// subsequence, rows in shard-local order — merge by
    /// [`DecisionRow::seq`] for the global CSV.
    pub fn replay_shard(
        config: &RequestConfig,
        trace: &[Request],
        tenant_ixs: &[usize],
    ) -> (Vec<DecisionRow>, nc_admit::EngineStats) {
        let mut shard = build_shard(config, tenant_ixs);
        // One pass buckets the trace by tenant, in trace order.
        let mut slot = vec![None; tenant_ixs.iter().max().map_or(0, |&ix| ix + 1)];
        for (k, &ix) in tenant_ixs.iter().enumerate() {
            slot[ix].get_or_insert(k);
        }
        let mut buckets: Vec<Vec<Request>> = vec![Vec::new(); tenant_ixs.len()];
        for r in trace {
            if let Some(&Some(k)) = slot.get(r.tenant as usize) {
                buckets[k].push(*r);
            }
        }
        let mut rows = Vec::with_capacity(buckets.iter().map(Vec::len).sum());
        let pairs: Vec<(usize, TenantId)> = shard.tenants.clone();
        for (ix, tid) in pairs {
            let k = slot[ix].expect("shard tenants come from tenant_ixs");
            rows.extend(replay_tenant(&mut shard, tid, &buckets[k]));
        }
        (rows, shard.engine.stats())
    }

    /// The cold-start baseline as a closure: each call answers one
    /// decision through [`nc_admit::oracle::decide_full`] (full model
    /// rebuild + general curve algebra) for `tenant`, against the
    /// mid-load resident population a shadow replay of its requests
    /// leaves behind.
    pub fn oracle_decision(config: &RequestConfig, tenant: usize) -> impl FnMut() {
        let mut shard = build_shard(config, &[tenant]);
        let tid = shard.tenants[0].1;
        let mut resident: Vec<(usize, ClassId)> = Vec::new();
        for r in tenant_requests(config, tenant) {
            if let ReqKind::Arrive = r.kind {
                let class = shard.classes[r.class as usize];
                if let Ok(d) = shard.engine.decide(tid, class, r.attach as usize) {
                    if d.placement() == Some(Placement::Local) {
                        resident.push((r.attach as usize, class));
                    }
                }
            }
        }
        let pipeline = tenant_pipeline(tenant);
        let budget = Some(tenant_budget(tenant));
        let classes = flow_classes(config);
        move || {
            std::hint::black_box(oracle::decide_full(
                &pipeline,
                budget,
                &classes,
                &resident,
                &classes[0],
                0,
            ))
            .ok();
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn sharded_replay_reproduces_serial_rows() {
            let cfg = request_config(11, 6, 40);
            let trace = nc_workloads::requests::generate(&cfg);
            let (mut serial, _) = replay_shard(&cfg, &trace, &(0..6).collect::<Vec<_>>());
            serial.sort_by_key(|r| r.seq);
            let mut sharded = Vec::new();
            for shard in shard_tenants(6, 3) {
                sharded.extend(replay_shard(&cfg, &trace, &shard).0);
            }
            sharded.sort_by_key(|r| r.seq);
            assert_eq!(serial.len(), sharded.len());
            for (a, b) in serial.iter().zip(&sharded) {
                assert_eq!(a.to_csv(), b.to_csv());
            }
            // The trace actually exercises the interesting outcomes.
            let admits = serial
                .iter()
                .filter(|r| r.outcome.label() == "admit")
                .count();
            let departs = serial
                .iter()
                .filter(|r| r.outcome.label() == "vacate")
                .count();
            assert!(admits > 0 && departs > 0, "degenerate trace");
        }

        #[test]
        fn remote_offload_occurs_for_odd_tenants() {
            let cfg = request_config(11, 2, 400);
            let trace = nc_workloads::requests::generate(&cfg);
            let (rows, stats) = replay_shard(&cfg, &trace, &[1]);
            assert!(stats.decisions > 0);
            assert!(
                rows.iter().any(|r| r.outcome.label() == "admit-remote"),
                "expected at least one remote offload under overload"
            );
        }
    }
}

pub mod fleet {
    //! Striped fleet simulation: many independent seeded tenant
    //! pipelines batch-simulated across `NC_THREADS` OS workers.
    //!
    //! The fleet loop is embarrassingly parallel — each tenant's run
    //! depends only on its own seed — so [`nc_sweep::stripe`] hands each
    //! worker a contiguous run of tenants, each worker owns one pooled
    //! [`SimArena`] (allocations amortize within a stripe exactly as
    //! they do in the serial loop), and the per-tenant rows come back
    //! in tenant order. The merged CSV is therefore **byte identical
    //! for any `NC_THREADS`**, which `scripts/check.sh` asserts; wall
    //! time is the only thing the worker count changes.

    use nc_apps::bitw;
    use nc_streamsim::{simulate_in, SimArena, SimResult};

    use crate::env_size;

    /// Fleet shape, from the environment: `FLEET_TENANTS` (default
    /// 1000) seeded tenants pushing `FLEET_INPUT_KIB` (default 256)
    /// KiB each through the bump-in-the-wire pipeline.
    #[derive(Clone, Copy, Debug)]
    pub struct FleetConfig {
        /// Number of seeded tenants.
        pub tenants: u64,
        /// Input volume per tenant, bytes.
        pub input_bytes: u64,
    }

    impl FleetConfig {
        /// Read the fleet shape from `FLEET_TENANTS`/`FLEET_INPUT_KIB`.
        pub fn from_env() -> Self {
            FleetConfig {
                tenants: env_size("FLEET_TENANTS", 1000) as u64,
                input_bytes: (env_size("FLEET_INPUT_KIB", 256) as u64) << 10,
            }
        }
    }

    /// One tenant's volume/latency observables (the RNG-free fields
    /// plus the delay tally — everything `SimResult` reports that a
    /// fleet operator would chart).
    #[derive(Clone, Debug)]
    pub struct TenantRow {
        /// Tenant index (also seeds the run as `tenant + 1`).
        pub tenant: u64,
        /// Events processed by the engine for this tenant.
        pub events: u64,
        /// Input-referred bytes delivered.
        pub bytes_out: f64,
        /// Last output time, seconds.
        pub makespan: f64,
        /// Mean virtual delay, seconds.
        pub delay_mean: f64,
        /// Peak input-referred backlog, bytes.
        pub peak_backlog: f64,
    }

    impl TenantRow {
        fn from_result(tenant: u64, r: &SimResult) -> Self {
            TenantRow {
                tenant,
                events: r.events,
                bytes_out: r.bytes_out,
                makespan: r.makespan,
                delay_mean: r.delay_mean,
                peak_backlog: r.peak_backlog,
            }
        }

        /// CSV serialization (float `Display` is exact-shortest, so
        /// equal results serialize to equal bytes).
        pub fn to_csv(&self) -> String {
            format!(
                "{},{},{},{},{},{}",
                self.tenant,
                self.events,
                self.bytes_out,
                self.makespan,
                self.delay_mean,
                self.peak_backlog
            )
        }

        /// Header matching [`Self::to_csv`].
        pub fn csv_header() -> &'static str {
            "tenant,events,bytes_out,makespan_s,delay_mean_s,peak_backlog_bytes"
        }
    }

    /// Run the whole fleet striped over `workers` OS threads (one
    /// arena per worker), rows in tenant order.
    pub fn run_striped(cfg: &FleetConfig, workers: usize) -> Vec<TenantRow> {
        let pipeline = bitw::sim_pipeline();
        let tenants: Vec<u64> = (0..cfg.tenants).collect();
        let (rows, _) = nc_sweep::stripe(&tenants, workers, SimArena::default, |arena, &tenant| {
            let mut c = bitw::sim_config(tenant + 1);
            c.trace = false;
            c.total_input = cfg.input_bytes;
            TenantRow::from_result(tenant, &simulate_in(arena, &pipeline, &c))
        });
        rows
    }

    /// Render the merged rows as the `fleet.csv` artifact body.
    pub fn to_csv(rows: &[TenantRow]) -> String {
        let mut out = String::from(TenantRow::csv_header());
        out.push('\n');
        for r in rows {
            out.push_str(&r.to_csv());
            out.push('\n');
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn striped_fleet_is_worker_count_invariant() {
            let cfg = FleetConfig {
                tenants: 7,
                input_bytes: 64 << 10,
            };
            let serial = to_csv(&run_striped(&cfg, 1));
            for workers in [2, 3, 7] {
                assert_eq!(
                    serial,
                    to_csv(&run_striped(&cfg, workers)),
                    "workers={workers}"
                );
            }
        }
    }
}

pub mod tailload {
    //! Monte Carlo workload for the tail-SLO validation (`tail` bin,
    //! EXPERIMENTS.md §E-tail): four scenarios — BITW and BLAST, each
    //! fault-free and faulted — whose analytic
    //! [`Pipeline::tail_bounds`](nc_core::pipeline::Pipeline) are
    //! checked for containment against empirical delay/backlog
    //! quantiles over thousands of independently seeded replicas.
    //!
    //! Each replica draws fresh uniform service times (seed =
    //! `replica + 1`) and, in the faulted scenarios, flips one
    //! Bernoulli coin per *probabilistic* fault hypothesis: with
    //! probability `q` the fault's seeded realization stays in the
    //! schedule, otherwise that stage's entry is cleared to the
    //! fault-free [`StageFault::default`]. Always-on hypotheses (the
    //! periodic stalls) are never cleared — they are the `None` rows of
    //! the [`StochSpec`], kept deterministic by the analysis too.
    //!
    //! Replicas are striped over `NC_THREADS` OS workers exactly like
    //! [`super::fleet`] (one pooled [`SimArena`] per worker, rows in
    //! replica order), so every derived artifact is byte-identical for
    //! every worker count.

    use nc_apps::{bitw, blast};
    use nc_core::num::{rat, Rat};
    use nc_core::pipeline::{Pipeline, Source};
    use nc_core::stoch::StochSpec;
    use nc_core::units::{mib, mib_per_s};
    use nc_streamsim::{simulate_in, FaultSchedule, ServiceModel, SimArena, SimConfig, StageFault};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Salt for the per-replica fault-coin stream; keeps the coins
    /// independent of both the service-time seed (`replica + 1`) and
    /// the fault-placement seed (`replica`).
    const COIN_SALT: u64 = 0x7A11_C0D3_5EED_0001;

    /// One validation scenario: a pipeline, a run volume, and the
    /// probabilistic marks on its fault hypotheses.
    pub struct TailScenario {
        /// Scenario id as it appears in `tail.csv`.
        pub name: &'static str,
        /// The pipeline both the analysis and the simulator run.
        pub pipeline: Pipeline,
        /// Input-referred bytes pushed per replica.
        pub total_input: u64,
        /// Source emission granularity, bytes.
        pub source_chunk: u64,
        /// `(stage, q)` for each probabilistic fault, in stage order —
        /// the coin-draw order, so it must stay sorted by stage.
        pub stoch_faults: Vec<(usize, Rat)>,
    }

    impl TailScenario {
        /// The [`StochSpec`] describing one replica of this scenario.
        pub fn spec(&self) -> StochSpec {
            let mut spec = StochSpec::for_run(&self.pipeline, self.total_input);
            for &(stage, q) in &self.stoch_faults {
                spec = spec.with_fault_prob(stage, q);
            }
            spec
        }

        /// Simulation config for one replica: fresh service-time seed,
        /// seeded fault placements, Bernoulli-gated probabilistic
        /// hypotheses.
        pub fn replica_config(&self, replica: u64) -> SimConfig {
            let mut cfg = SimConfig {
                seed: replica + 1,
                total_input: self.total_input,
                source_chunk: Some(self.source_chunk),
                queue_capacity: None,
                queue_capacities: None,
                trace: false,
                service_model: ServiceModel::Uniform,
                faults: None,
            };
            if self.pipeline.nodes.iter().any(|n| n.fault.is_some()) {
                let horizon = self.total_input as f64 / self.pipeline.source.rate.to_f64();
                let mut schedule = FaultSchedule::from_pipeline(&self.pipeline, replica, horizon);
                let mut coins = ChaCha8Rng::seed_from_u64(
                    COIN_SALT ^ replica.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                for &(stage, q) in &self.stoch_faults {
                    let coin: f64 = coins.gen();
                    if coin >= q.to_f64() {
                        // Hypothesis did not occur in this replica:
                        // clear its realization, keep the stage's
                        // fault-free path.
                        schedule.stages[stage] = StageFault::default();
                    }
                }
                cfg.faults = Some(schedule);
            }
            cfg
        }
    }

    /// The four §E-tail scenarios.
    ///
    /// - `bitw`: the light-drive (40 MiB/s) latency pipeline pushing
    ///   256 KiB in 1 KiB chunks — 256 jobs per stage, no faults.
    /// - `bitw-faulted`: the §E-faults pipeline; the compress stall is
    ///   always-on, the encrypt derate occurs with `q = 1/128` and the
    ///   network outage with `q = 1/16`.
    /// - `blast`: the deployed-timings pipeline at a reduced 300 MiB/s
    ///   drive (the deployed 356 MiB/s drive is *over* the ≈355 MiB/s
    ///   bottleneck — finite tail bounds need an underloaded run),
    ///   32 MiB in 1 MiB chunks.
    /// - `blast-faulted`: the §E-faults pipeline (250 MiB/s drive);
    ///   the compose stall is always-on, the network outage occurs
    ///   with `q = 1/16` and the seed-match derate with `q = 1/128`.
    pub fn scenarios() -> Vec<TailScenario> {
        let blast_light = {
            let mut p = blast::deployed_pipeline();
            p.source = Source {
                rate: mib_per_s(300.0),
                burst: mib(1),
            };
            p
        };
        vec![
            TailScenario {
                name: "bitw",
                pipeline: bitw::light_pipeline(),
                total_input: 256 << 10,
                source_chunk: 1024,
                stoch_faults: vec![],
            },
            TailScenario {
                name: "bitw-faulted",
                pipeline: bitw::faulted_pipeline(),
                total_input: 256 << 10,
                source_chunk: 1024,
                stoch_faults: vec![(1, rat(1, 128)), (2, rat(1, 16))],
            },
            TailScenario {
                name: "blast",
                pipeline: blast_light,
                total_input: 32 << 20,
                source_chunk: 1 << 20,
                stoch_faults: vec![],
            },
            TailScenario {
                name: "blast-faulted",
                pipeline: blast::faulted_pipeline(),
                total_input: 32 << 20,
                source_chunk: 1 << 20,
                stoch_faults: vec![(2, rat(1, 16)), (4, rat(1, 128))],
            },
        ]
    }

    /// One replica's observables: the exact quantities the analytic
    /// tail bounds constrain.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct TailObs {
        /// Replica index (also determines every seed of the run).
        pub replica: u64,
        /// Worst end-to-end virtual delay of the run, seconds.
        pub delay_max: f64,
        /// Peak input-referred resident backlog, bytes.
        pub peak_backlog: f64,
    }

    /// Simulate one replica through a pooled arena.
    fn observe(scenario: &TailScenario, replica: u64, arena: &mut SimArena) -> TailObs {
        let cfg = scenario.replica_config(replica);
        let r = simulate_in(arena, &scenario.pipeline, &cfg);
        TailObs {
            replica,
            delay_max: r.delay_max,
            peak_backlog: r.peak_backlog,
        }
    }

    /// Simulate one stripe of replicas through one pooled arena.
    pub fn replay_stripe(
        scenario: &TailScenario,
        replicas: &[u64],
        arena: &mut SimArena,
    ) -> Vec<TailObs> {
        replicas
            .iter()
            .map(|&replica| observe(scenario, replica, arena))
            .collect()
    }

    /// Run `replicas` independent replicas striped over `workers` OS
    /// threads, observations in replica order — the result is
    /// identical for every worker count.
    pub fn replicate(scenario: &TailScenario, replicas: u64, workers: usize) -> Vec<TailObs> {
        let ids: Vec<u64> = (0..replicas).collect();
        let (obs, _) = nc_sweep::stripe(&ids, workers, SimArena::default, |arena, &replica| {
            observe(scenario, replica, arena)
        });
        obs
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn scenarios_are_well_formed() {
            for s in scenarios() {
                s.pipeline.validate().expect("scenario pipeline valid");
                s.spec().validate(&s.pipeline).expect("scenario spec valid");
                // Probabilistic marks sit on actual fault hypotheses,
                // in stage order (the coin-draw order).
                let stages: Vec<usize> = s.stoch_faults.iter().map(|&(i, _)| i).collect();
                let mut sorted = stages.clone();
                sorted.sort_unstable();
                assert_eq!(stages, sorted, "{}: coin order", s.name);
                let faulted = s.pipeline.nodes.iter().any(|n| n.fault.is_some());
                assert_eq!(
                    s.replica_config(0).faults.is_some(),
                    faulted,
                    "{}: schedule presence",
                    s.name
                );
            }
        }

        #[test]
        fn coin_gating_clears_only_probabilistic_faults() {
            let s = &scenarios()[1]; // bitw-faulted
                                     // Over many replicas the q = 1/16 outage must sometimes
                                     // fire and sometimes not; the always-on stall (stage 0)
                                     // must never be cleared.
            let (mut kept, mut cleared) = (0, 0);
            for replica in 0..64 {
                let cfg = s.replica_config(replica);
                let sched = cfg.faults.expect("faulted scenario");
                assert_ne!(
                    sched.stages[0],
                    StageFault::default(),
                    "always-on stall cleared"
                );
                if sched.stages[2] == StageFault::default() {
                    cleared += 1;
                } else {
                    kept += 1;
                }
            }
            assert!(kept >= 1, "q=1/16 outage never fired in 64 replicas");
            assert!(cleared >= 32, "q=1/16 outage fired implausibly often");
        }

        #[test]
        fn striped_replication_is_worker_count_invariant() {
            let s = &scenarios()[1]; // bitw-faulted: exercises the coins
            let serial = replicate(s, 6, 1);
            for workers in [2, 3, 6] {
                assert_eq!(serial, replicate(s, 6, workers), "workers={workers}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_sizes_warn_and_fall_back() {
        assert_eq!(parse_size("N", None, 7), 7);
        assert_eq!(parse_size("N", Some(" 20 "), 7), 20);
        for bad in ["2O", "", "0", "-3", "1.5"] {
            assert_eq!(parse_size("N", Some(bad), 7), 7, "{bad:?}");
        }
    }

    #[test]
    fn results_dir_exists() {
        let d = results_dir();
        assert!(d.is_dir());
        assert!(d.ends_with("results"));
    }
}
