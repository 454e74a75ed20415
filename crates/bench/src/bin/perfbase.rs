//! The tracked performance baseline, and the repository's one perf
//! harness.
//!
//! Every measurement is a row of the [`nc_bench::perf`] schema, timed by
//! [`perf::time`]. The sections, in run order: the repro binaries end
//! to end; the exact curve algebra and the `Rat` lane, each fast path
//! beside its always-general reference twin; the DES kernel; the
//! workload kernels behind Table 2; model construction, and the
//! closed-form flow-control and tail bounds against the simulations
//! they replace; the simulators at scale; the batch sweep engine; the
//! admission engine; and its service front (`nc-serve`) through the
//! full wire codec. Worker and shard counts above the host's cores are
//! skipped with a notice.
//!
//! Correctness asserts (sweep cached = uncached, service replay =
//! in-proc engine, finite backpressure and tail bounds, every repro
//! binary exiting 0) run before the snapshot is written, so a failed
//! one leaves no snapshot. The snapshot goes to `BENCH_10.json` at the
//! workspace root, next to the earlier baselines. The run then checks
//! its ratio floors and compares its time rows against the newest other
//! `BENCH_*.json` ([`Snapshot::check`]), prints the findings, and exits
//! 1 if one fails the gate.
//!
//! Run with `cargo run --release -p nc-bench --bin perfbase`. Set
//! `PERFBASE_OUT=/path/to.json` to redirect the snapshot
//! (`scripts/perfgate.sh` does, so gate runs never touch the committed
//! baseline).

use std::process::{Command, Stdio};

use nc_admit::{oracle, ClassId, Placement};
use nc_apps::{bitw, blast};
use nc_bench::perf::{self, Row, Snapshot};
use nc_bench::tailload;
use nc_core::curve::{shapes, Curve};
use nc_core::num::{rat, Rat};
use nc_core::ops::{
    horizontal_deviation, min_plus_conv, min_plus_conv_general, min_plus_deconv,
    min_plus_deconv_general, subadditive_closure, vertical_deviation,
};
use nc_core::pipeline::{ModelCache, Node, NodeKind, Pipeline, Source, StageRates};
use nc_core::units::mib_per_s;
use nc_core::{bounds, packetizer};
use nc_des::{ByteQueue, Dist, Sim, SlotAgenda, Span, Time};
use nc_serve::fleet;
use nc_serve::proto::EventKind;
use nc_serve::replay::replay_inproc;
use nc_streamsim::{
    flow_windows, simulate, simulate_in, simulate_reference, ServiceModel, SimArena, SimConfig,
};
use nc_workloads::aes::{cbc_decrypt_raw, cbc_encrypt_raw, Aes256};
use nc_workloads::blast::{blast_search, seed_match, QueryIndex, UngappedParams};
use nc_workloads::fasta::{fa2bit, random_dna};
use nc_workloads::lz4;
use nc_workloads::requests::{tenant_requests, ReqKind, RequestConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const COMMAND: &str = "cargo run --release -p nc-bench --bin perfbase";

/// A section of the run: it measures one layer, recording its rows
/// under the group it is registered with.
type Section = fn(&mut Bench);

/// Every section with its row group, in run order. A later section may
/// read rows of an earlier one: `serve` reads the warm in-proc pair
/// from `admit`.
const SECTIONS: [(&str, Section); 9] = [
    ("bin", bins),
    ("curve", curves),
    ("des", des),
    ("kernel", kernels),
    ("model", models),
    ("sim", sims),
    ("sweep", sweep),
    ("admit", admission),
    ("serve", serve),
];

/// The rows of one run, the group being recorded, and the cores the
/// rows are taken on.
struct Bench {
    host_cpus: usize,
    group: &'static str,
    rows: Vec<Row>,
}

impl Bench {
    /// Record a row in the current group and echo it.
    fn row(&mut self, what: &str, params: &str, metric: &str, value: f64) {
        println!("  {what:<58} {params:<24} {value:>11.4e} {metric}");
        self.rows
            .push(Row::new(self.group, what, params, metric, value));
    }

    /// Time `f` as a seconds-per-run row; returns the seconds.
    fn time<R>(&mut self, what: &str, params: &str, f: impl FnMut() -> R) -> f64 {
        let s = perf::time(f);
        self.row(what, params, "per_run_s", s);
        s
    }

    /// Time `f`, which makes `decisions` decisions per call, as a
    /// seconds-per-decision row; returns the seconds per decision.
    fn time_per_decision<R>(
        &mut self,
        what: &str,
        params: &str,
        decisions: usize,
        f: impl FnMut() -> R,
    ) -> f64 {
        let s = perf::time(f) / decisions as f64;
        self.row(what, params, "per_decision_s", s);
        s
    }

    /// A ratio row: `reference` seconds over `subject` seconds.
    fn speedup(&mut self, what: &str, params: &str, reference: f64, subject: f64) {
        self.row(what, params, "speedup", reference / subject);
    }

    /// The seconds of a time row an earlier section took.
    fn seconds(&self, group: &str, what: &str, params: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.is_time() && (&*r.group, &*r.what, &*r.params) == (group, what, params))
            .unwrap_or_else(|| panic!("no time row {group} | {what} [{params}]"))
            .value
    }

    /// The widths in `axis` this host runs without oversubscription;
    /// the rest are skipped with a notice.
    fn widths(&self, axis: &[usize]) -> Vec<usize> {
        let (fit, skip): (Vec<usize>, Vec<usize>) =
            axis.iter().partition(|&&w| w <= self.host_cpus);
        for w in skip {
            println!("  skipping width {w} (> host_cpus={})", self.host_cpus);
        }
        fit
    }
}

fn main() {
    // Make sure the sibling repro binaries exist (cheap when cached).
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "-p", "nc-bench", "--bins"])
        .status()
        .expect("spawn cargo build");
    assert!(status.success(), "building repro binaries failed");

    let mut b = Bench {
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        group: "",
        rows: Vec::new(),
    };
    for (group, section) in SECTIONS {
        println!("perfbase: {group}");
        b.group = group;
        section(&mut b);
    }
    let snapshot = Snapshot::new(COMMAND, b.host_cpus, b.rows).expect("row keys are unique");

    let root = nc_bench::results_dir()
        .parent()
        .expect("workspace root")
        .to_path_buf();
    let path =
        std::env::var_os("PERFBASE_OUT").map_or_else(|| root.join("BENCH_10.json"), Into::into);
    let json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[written {}: {} rows]", path.display(), snapshot.rows.len());

    let base = perf::newest_baseline(&root, &path).and_then(|p| match Snapshot::load(&p) {
        Ok(s) => Some((p, s)),
        Err(e) => {
            let p = p.display();
            println!("perfbase: baseline {p} not comparable ({e}); checking floors only");
            None
        }
    });
    let report = snapshot.check(base.as_ref().map(|(_, s)| s));
    for f in &report.findings {
        println!("  {f}");
    }
    if let Some((p, _)) = &base {
        let n = report.compared;
        println!("perfbase: compared {n} time rows against {}", p.display());
    }
    if report.failed() {
        println!(
            "perfbase: FAIL — a time row >{}x slower than its baseline, or a ratio row below \
             its floor (above)",
            perf::SLOWDOWN
        );
        std::process::exit(1);
    }
}

/// Wall time of one run of each sibling repro binary. `sweep` and
/// `admit` run at the sizes of their committed `results/` artifacts,
/// so every run rewrites `results/` byte for byte.
fn bins(b: &mut Bench) {
    let exe = std::env::current_exe().expect("current exe");
    let runs: [(&str, &[(&str, &str)]); 8] = [
        ("table1", &[]),
        ("table3", &[]),
        ("fig4", &[]),
        ("fig10", &[]),
        ("montecarlo", &[]),
        ("overload", &[]),
        ("sweep", &[("SWEEP_GRID", "4x4")]),
        ("admit", &[("ADMIT_FLEET", "6"), ("ADMIT_REQS", "40")]),
    ];
    for (bin, env) in runs {
        let params: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let path = exe.with_file_name(bin);
        b.time(bin, &params.join(" "), || {
            let status = Command::new(&path)
                .envs(env.iter().copied())
                .stdout(Stdio::null())
                .status()
                .unwrap_or_else(|e| panic!("spawn {}: {e}", path.display()));
            assert!(status.success(), "{bin} exited with {status}");
        });
    }
}

fn lb(r: i64, b: i64) -> Curve {
    shapes::leaky_bucket(Rat::int(r), Rat::int(b))
}
fn rl(r: i64, t: i64) -> Curve {
    shapes::rate_latency(Rat::int(r), Rat::int(t))
}
/// A staircase-plus-rate curve with `n` breakpoints: neither concave
/// nor convex, so it takes the general paths.
fn stair(n: usize) -> Curve {
    shapes::truncated_staircase(Rat::int(3), Rat::int(2), n)
}

/// Exact min-plus algebra: every dispatched fast path beside its
/// general reference algorithm (`*_general`, equal by `prop_curves`),
/// the operators and bounds the models are built from, and the `Rat`
/// i64 lane beside its checked route.
fn curves(b: &mut Bench) {
    let convex = rl(1, 0).max(&rl(4, 3)).max(&rl(9, 6));
    let convex2 = rl(2, 1).max(&rl(6, 5)).max(&rl(12, 9));
    let concave = lb(2, 5).min(&lb(1, 9));
    let concave2 = lb(3, 4).min(&lb(1, 12));
    let stair16 = stair(16);
    for (what, x, y) in [
        ("conv convex x convex", &convex, &convex2),
        ("conv concave x concave", &concave, &concave2),
        ("conv staircase16 (pruned)", &stair16, &stair16),
    ] {
        let fast = b.time(what, "", || min_plus_conv(x, y));
        let general = b.time(&format!("{what}, general"), "", || {
            min_plus_conv_general(x, y)
        });
        b.speedup(&format!("{what}: fast path vs general"), "", general, fast);
    }
    // Operands are built outside the timed closures.
    let (lb25, lb19, rl34, rl32) = (lb(2, 5), lb(1, 9), rl(3, 4), rl(3, 2));
    let what = "deconv concave / rate-latency";
    let fast = b.time(what, "", || min_plus_deconv(&concave, &rl34));
    let general = b.time(&format!("{what}, general"), "", || {
        min_plus_deconv_general(&concave, &rl34)
    });
    b.speedup(&format!("{what}: fast path vs general"), "", general, fast);

    b.time("conv leaky bucket x leaky bucket", "", || {
        min_plus_conv(&lb25, &lb19)
    });
    let delta = shapes::delta(Rat::int(4));
    b.time("conv rate-latency x delay", "", || {
        min_plus_conv(&rl32, &delta)
    });
    let rl23 = rl(2, 3);
    for n in [2, 4, 8, 16] {
        let x = stair(n);
        let params = format!("n={n}");
        b.time("conv staircase x rate-latency", &params, || {
            min_plus_conv(&x, &rl23)
        });
    }
    b.time("deconv leaky bucket / rate-latency", "", || {
        min_plus_deconv(&lb25, &rl34)
    });
    let rl41 = rl(4, 1);
    for n in [4, 16] {
        let x = stair(n);
        let params = format!("n={n}");
        b.time("deconv staircase / rate-latency", &params, || {
            min_plus_deconv(&x, &rl41)
        });
    }
    let (alpha, beta, gamma) = (lb25, rl34, shapes::constant_rate(Rat::int(4)));
    b.time("backlog bound", "", || bounds::backlog_bound(&alpha, &beta));
    b.time("delay bound", "", || bounds::delay_bound(&alpha, &beta));
    b.time("output bound with max service", "", || {
        bounds::output_bound_with_max(&alpha, &gamma, &beta)
    });
    b.time("packetize", "", || {
        packetizer::packetize(&alpha, &beta, &gamma, Rat::int(3))
    });
    for k in [2, 4, 8, 16] {
        let chain: Vec<Curve> = (0..k).map(|i| rl(10 + i, 1 + i % 3)).collect();
        b.time("concat rate-latency chain", &format!("k={k}"), || {
            chain[1..]
                .iter()
                .fold(chain[0].clone(), |acc, c| min_plus_conv(&acc, c))
        });
    }
    // Exact rational bounds on a capped arrival (DESIGN §6).
    let alpha = lb(2, 5).min(&shapes::constant_rate(Rat::int(7)));
    let beta = rl(3, 4).add(&rl(1, 1));
    b.time("exact backlog + delay", "", || {
        (
            vertical_deviation(&alpha, &beta),
            horizontal_deviation(&alpha, &beta),
        )
    });
    b.time("closure concave", "", || subadditive_closure(&concave, 8));
    b.time("closure rate-latency, 8 iterations", "", || {
        subadditive_closure(&rl32, 8)
    });

    // `black_box` the operands so the sums are not folded at compile
    // time.
    let (ra, rb) = (rat(355, 113), rat(-217, 990));
    let args = || (std::hint::black_box(ra), std::hint::black_box(rb));
    let fast = b.time("Rat add", "", || {
        let (x, y) = args();
        x + y
    });
    let checked = b.time("Rat add, checked", "", || {
        let (x, y) = args();
        x.checked_add(y).unwrap()
    });
    b.speedup("Rat add: i64 lane vs checked", "", checked, fast);
    let fast = b.time("Rat mul", "", || {
        let (x, y) = args();
        x * y
    });
    let checked = b.time("Rat mul, checked", "", || {
        let (x, y) = args();
        x.checked_mul(y).unwrap()
    });
    b.speedup("Rat mul: i64 lane vs checked", "", checked, fast);
    // i64 components whose cross products exceed 2^64: the sum reduces
    // in the gcd kernel's u128 lanes.
    let (wa, wb) = (
        rat(3_000_000_019, 7_000_000_001),
        rat(2_000_000_003, 5_000_000_011),
    );
    b.time("Rat add, wide operands", "", || {
        std::hint::black_box(wa) + std::hint::black_box(wb)
    });
}

/// The DES kernel: calendar structures, queue accounting, sampling, and
/// an M/M/1 run with a realistic event mix.
fn des(b: &mut Bench) {
    fn tick(sim: &mut Sim<u64>) {
        sim.state += 1;
    }
    fn burst(mut sim: Sim<u64>, n: u64) -> Sim<u64> {
        for i in 0..n {
            sim.schedule_at(Time::secs(i as f64 * 1e-6), tick);
        }
        sim.run();
        sim
    }
    for n in [1_000, 10_000, 100_000] {
        let params = format!("events={n}");
        b.time("event burst, fresh calendar", &params, || {
            burst(Sim::new(0), n).state
        });
    }
    fn chain(sim: &mut Sim<u64>) {
        sim.state += 1;
        if sim.state < 50_000 {
            sim.schedule_in(Span::secs(1e-6), chain);
        }
    }
    b.time(
        "self-rescheduling chain, heap calendar",
        "events=50000",
        || {
            let mut sim = Sim::new(0u64);
            sim.schedule_at(Time::ZERO, chain);
            sim.run();
            sim.state
        },
    );
    // The same churn on a 4-slot agenda (a 3-stage pipeline plus its
    // source), the structure on the streamsim hot path.
    b.time(
        "self-rescheduling chain, slot agenda",
        "events=50000",
        || {
            let mut a: SlotAgenda<Time> = SlotAgenda::new(4);
            a.arm(0, Time::ZERO);
            let mut popped = 0u64;
            while let Some((slot, at)) = a.pop() {
                popped += 1;
                if popped >= 50_000 {
                    break;
                }
                a.arm((slot + 1) % 4, at + Span::secs(1e-6));
            }
            popped
        },
    );
    b.time("byte queue put + get", "ops=1000", || {
        let mut q = ByteQueue::bounded(Time::ZERO, 1 << 20);
        for i in 0..1000u64 {
            let t = Time::secs(i as f64 * 1e-6);
            q.put(t, 512);
            q.get(t, 512);
        }
        q.total_out()
    });
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for (what, d) in [
        ("sample uniform", Dist::Uniform { lo: 1.0, hi: 2.0 }),
        ("sample exponential", Dist::Exponential { mean: 1.5 }),
        ("sample constant", Dist::Constant(1.0)),
    ] {
        b.time(what, "", || d.sample(&mut rng));
    }
    b.time("M/M/1 at load 0.5", "jobs=10000", || mm1(10_000));
}

/// An inline M/M/1 queue at load 0.5 run until `jobs` departures:
/// arrivals, departures and state updates in the proportions of a real
/// model.
fn mm1(jobs: u32) -> u32 {
    struct St {
        rng: ChaCha8Rng,
        queued: u32,
        done: u32,
        jobs: u32,
    }
    fn arrive(sim: &mut Sim<St>) {
        sim.state.queued += 1;
        if sim.state.queued == 1 {
            start_service(sim);
        }
        let gap = Dist::Exponential { mean: 2.0 }.sample(&mut sim.state.rng);
        if sim.state.done < sim.state.jobs {
            sim.schedule_in(Span::secs(gap), arrive);
        }
    }
    fn start_service(sim: &mut Sim<St>) {
        let service = Dist::Exponential { mean: 1.0 }.sample(&mut sim.state.rng);
        sim.schedule_in(Span::secs(service), |sim| {
            sim.state.queued -= 1;
            sim.state.done += 1;
            if sim.state.queued > 0 {
                start_service(sim);
            }
        });
    }
    let mut sim = Sim::new(St {
        rng: ChaCha8Rng::seed_from_u64(9),
        queued: 0,
        done: 0,
        jobs,
    });
    sim.schedule_at(Time::ZERO, arrive);
    sim.run();
    sim.state.done
}

/// The workload kernels of Table 2 (its measured side), each on the
/// data it sees in the paper's pipelines.
fn kernels(b: &mut Bench) {
    let aes = Aes256::new(&[7u8; 32]);
    let iv = [1u8; 16];
    for size in [64usize << 10, 1 << 20] {
        let params = format!("bytes={size}");
        let text = text_like(size);
        let packed = lz4::compress(&text);
        b.time("lz4 compress", &params, || lz4::compress(&text));
        b.time("lz4 decompress", &params, || {
            lz4::decompress(&packed, size).unwrap()
        });
        let mut buf = vec![0xA5u8; size];
        b.time("aes-256-cbc encrypt", &params, || {
            cbc_encrypt_raw(&aes, &iv, &mut buf)
        });
        b.time("aes-256-cbc decrypt", &params, || {
            cbc_decrypt_raw(&aes, &iv, &mut buf).unwrap()
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let dna = random_dna(1 << 20, &mut rng);
    b.time("fa2bit pack", "bytes=1048576", || fa2bit(&dna));
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let query = random_dna(512, &mut rng);
    let db = random_dna(1 << 20, &mut rng);
    let (packed_query, packed_db) = (fa2bit(&query), fa2bit(&db));
    b.time("blastn search, 512 b query", "bytes=1048576", || {
        blast_search(&query, &db, &UngappedParams::default())
    });
    let index = QueryIndex::build(&packed_query, query.len());
    b.time("blastn seed match, 512 b query", "bytes=1048576", || {
        seed_match(&packed_db, db.len(), &index)
    });
    b.time("blastn query index build", "bytes=512", || {
        QueryIndex::build(&packed_query, query.len())
    });
}

/// `len` bytes of space-separated words from a small vocabulary: text
/// the compressor finds structure in.
fn text_like(len: usize) -> Vec<u8> {
    let vocab: [&[u8]; 8] = [
        b"stream", b"data", b"node", b"queue", b"rate", b"burst", b"delay", b"curve",
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(vocab[rng.gen_range(0..vocab.len())]);
        v.push(b' ');
    }
    v.truncate(len);
    v
}

/// Model construction and queries, and the two closed forms that stand
/// in for simulation: flow-controlled bounds for bounded queues, and
/// the stochastic tail-bound ladder.
fn models(b: &mut Bench) {
    let isolated = blast::isolated_pipeline();
    b.time("build BLAST isolated", "", || isolated.build_model());
    let scenarios = [
        bitw::Scenario::Pessimistic,
        bitw::Scenario::Average,
        bitw::Scenario::Optimistic,
    ]
    .map(bitw::pipeline);
    b.time("build BITW, 3 scenarios", "", || {
        scenarios.each_ref().map(Pipeline::build_model)
    });
    let model = isolated.build_model();
    b.time("BLAST heuristic backlog + delay", "", || {
        (model.heuristic_backlog(), model.heuristic_delay())
    });
    b.time("BLAST subset analysis, stages 3..5", "", || {
        model.subset(3, 5)
    });

    // Closed-form backpressure bounds vs DES per grid point, on a
    // 16-point overload grid: offered load 40→160 MiB/s against a
    // ~100 MiB/s kernel behind a 4 MiB bounded queue, 16 GiB per point.
    // The closed form evaluates `nc_core::flowctl` on the deterministic
    // twin through one fresh ModelCache per sweep, as `nc_sweep::run`
    // workers do; the reference runs the bounded-queue DES at its best
    // (deterministic cycle-jump on).
    let kernel = Node::new(
        "kernel",
        NodeKind::Compute,
        StageRates::new(mib_per_s(95.0), mib_per_s(100.0), mib_per_s(105.0)),
        Rat::new(1, 1000),
        Rat::int(64 << 10),
        Rat::int(64 << 10),
    );
    let grid: Vec<Pipeline> = (0..16)
        .map(|k| {
            let rate = mib_per_s(40.0 + 120.0 * k as f64 / 15.0);
            let source = Source {
                rate,
                burst: Rat::int(64 << 10),
            };
            Pipeline::new("bp-grid", source, vec![kernel.clone()])
        })
        .collect();
    let cfg = SimConfig {
        seed: 5,
        source_chunk: Some(64 << 10),
        queue_capacities: Some(vec![4 << 20]),
        service_model: ServiceModel::Deterministic,
        ..untraced(16 << 30)
    };
    let closed = b.time("flowctl bounds, 16-point overload grid", "", || {
        let mut cache = ModelCache::new();
        for p in &grid {
            let det = p.deterministic_variant();
            let w = flow_windows(&det, &cfg).expect("valid bounded caps");
            let m = det.flowctl_model_cached(&w, &mut cache);
            assert!(
                m.delay.is_finite() && m.backlog.is_finite(),
                "backpressured bounds must stay finite in overload"
            );
        }
    });
    let simulated = b.time("bounded-queue DES, 16-point overload grid", "", || {
        grid.iter().map(|p| simulate(p, &cfg).events).sum::<u64>()
    });
    b.speedup(
        "flowctl bounds vs DES per point",
        "floor=10",
        simulated,
        closed,
    );

    // Stochastic tail bounds vs the Monte Carlo estimator they certify:
    // the §E-tail budget ladder (ε ∈ {0.1, 0.01, 0.001}) for the
    // faulted BITW scenario through the prefix-memoized closed form,
    // against the 10⁴-replica DES quantile estimator `results/tail.csv`
    // validates the bounds with.
    let scenario = tailload::scenarios()
        .into_iter()
        .find(|s| s.name == "bitw-faulted")
        .expect("bitw-faulted tail scenario");
    let closed = b.time("tail bounds, bitw-faulted, 3 budgets", "", || {
        let mut cache = ModelCache::new();
        let spec = scenario.spec();
        for eps in [rat(1, 10), rat(1, 100), rat(1, 1000)] {
            let tb = scenario.pipeline.tail_bounds_cached(&spec, eps, &mut cache);
            assert!(
                tb.delay.is_finite() && tb.backlog.is_finite(),
                "tail bounds must stay finite for the BITW scenario"
            );
        }
    });
    let mc = b.time(
        "Monte Carlo quantiles, bitw-faulted",
        "replicas=10000",
        || tailload::replicate(&scenario, 10_000, 1),
    );
    b.speedup("tail bounds vs Monte Carlo", "floor=10", mc, closed);
}

/// The BITW simulation configuration with tracing off — the scale
/// setting, where live memory is the in-flight input window.
fn untraced(total_input: u64) -> SimConfig {
    SimConfig {
        trace: false,
        total_input,
        ..bitw::sim_config(1)
    }
}

/// Time `simulate(p, cfg)` as a `sim` row, plus its event count.
fn sim(b: &mut Bench, what: &str, p: &Pipeline, cfg: &SimConfig) -> f64 {
    let mut events = 0;
    let s = b.time(what, "", || events = simulate(p, cfg).events);
    b.row(what, "", "events", events as f64);
    s
}

/// The simulators: pooled arenas vs fresh storage, the thinned engine
/// vs the frozen reference engine (bit-identical, by
/// `prop_engine_equiv`), deterministic cycle-jump vs exact stepping,
/// the scale runs, the queue-discipline and chunk-size sensitivities,
/// and the striped 1000-tenant fleet.
fn sims(b: &mut Bench) {
    let (blast_p, bitw_p) = (blast::deployed_pipeline(), bitw::sim_pipeline());
    let mut arena = SimArena::new();

    let blast_64 = SimConfig {
        total_input: 64 << 20,
        ..blast::sim_config(1)
    };
    let pooled = b.time("streamsim BLAST 64 MiB, pooled arena", "", || {
        simulate_in(&mut arena, &blast_p, &blast_64)
    });
    let fresh = sim(b, "streamsim BLAST 64 MiB", &blast_p, &blast_64);
    b.speedup(
        "BLAST 64 MiB: pooled arena vs fresh storage",
        "",
        fresh,
        pooled,
    );

    let bitw_2 = bitw::sim_config(1);
    let pooled = b.time("streamsim BITW 2 MiB, pooled arena", "", || {
        simulate_in(&mut arena, &bitw_p, &bitw_2)
    });
    let fresh = sim(b, "streamsim BITW 2 MiB", &bitw_p, &bitw_2);
    b.speedup(
        "BITW 2 MiB: pooled arena vs fresh storage",
        "",
        fresh,
        pooled,
    );
    let bitw_2_untraced = SimConfig {
        seed: 3,
        ..untraced(2 << 20)
    };
    b.time("streamsim BITW 2 MiB untraced, pooled arena", "", || {
        simulate_in(&mut arena, &bitw_p, &bitw_2_untraced)
    });

    let bitw_64 = untraced(64 << 20);
    let thinned = sim(b, "streamsim BITW 64 MiB", &bitw_p, &bitw_64);
    let reference = b.time("streamsim BITW 64 MiB, reference engine", "", || {
        simulate_reference(&bitw_p, &bitw_64)
    });
    b.speedup(
        "BITW 64 MiB: thinned vs reference engine",
        "",
        reference,
        thinned,
    );
    let traced = SimConfig {
        total_input: 64 << 20,
        ..bitw::sim_config(1)
    };
    sim(b, "streamsim BITW 64 MiB traced", &bitw_p, &traced);
    sim(b, "streamsim BITW 1 GiB", &bitw_p, &untraced(1 << 30));

    // Deterministic service with bounded queues: the periodic steady
    // state is advanced in closed form by the cycle-jump fast-forward
    // (its `events` count the virtual events skipped). A traced run
    // cannot jump, so it is the exact-stepping twin.
    let det = |total_input: u64, trace: bool| SimConfig {
        service_model: ServiceModel::Deterministic,
        queue_capacities: Some(vec![64 << 10; bitw_p.nodes.len()]),
        trace,
        ..untraced(total_input)
    };
    let jump = sim(
        b,
        "streamsim BITW 1 GiB det, cycle-jump",
        &bitw_p,
        &det(1 << 30, false),
    );
    let exact = sim(
        b,
        "streamsim BITW 1 GiB det, exact stepping (traced)",
        &bitw_p,
        &det(1 << 30, true),
    );
    b.speedup(
        "BITW 1 GiB det: cycle-jump vs exact stepping (traced)",
        "",
        exact,
        jump,
    );
    sim(
        b,
        "streamsim BITW 16 GiB det, cycle-jump",
        &bitw_p,
        &det(16 << 30, false),
    );

    // Queue discipline: the paper's unbounded queues vs backpressure.
    for bounded in [false, true] {
        let kib = [2048u64, 512, 256, 768, 1536, 192, 384, 48];
        let cfg = SimConfig {
            total_input: 32 << 20,
            queue_capacities: bounded.then(|| kib.iter().map(|k| k << 10).collect()),
            ..blast::sim_config(1)
        };
        let params = format!("bounded={}", u8::from(bounded));
        b.time("streamsim BLAST 32 MiB", &params, || {
            simulate(&blast_p, &cfg)
        });
    }
    // Chunk size: smaller chunks mean more events per byte.
    for chunk in [512u64, 1024, 4096] {
        let mut p = bitw::sim_pipeline();
        for n in &mut p.nodes {
            n.job_in = Rat::int(chunk as i64);
            n.job_out = Rat::int(chunk as i64);
        }
        let cfg = SimConfig {
            source_chunk: Some(chunk),
            ..bitw::sim_config(1)
        };
        let params = format!("chunk={chunk}");
        b.time("streamsim BITW 2 MiB, uniform chunks", &params, || {
            simulate(&p, &cfg)
        });
    }

    // 10³ seeded tenants striped over OS workers, one pooled arena per
    // worker (`nc_bench::fleet`; its CSV is byte-identical for any
    // worker count, which check.sh asserts).
    let fleet = nc_bench::fleet::FleetConfig {
        tenants: 1000,
        input_bytes: 256 << 10,
    };
    let what = "streamsim fleet 1000 tenants x 256 KiB";
    let mut events = 0;
    for w in b.widths(&[1, 2, 4]) {
        b.time(what, &format!("workers={w}"), || {
            events = nc_bench::fleet::run_striped(&fleet, w)
                .iter()
                .map(|r| r.events)
                .sum();
        });
    }
    b.row(what, "", "events", events as f64);
}

/// The batch sweep engine, cached and fanned out over `NC_THREADS`
/// workers, against the serial uncached loop on the tracked BITW 16x16
/// surface. Surface equality is asserted before timing.
fn sweep(b: &mut Bench) {
    let spec = nc_bench::bitw_sweep_spec(16, 16);
    let cached = nc_sweep::run(&spec);
    assert_eq!(
        cached.to_csv(),
        nc_sweep::run_serial_uncached(&spec).to_csv(),
        "cached sweep must reproduce the uncached surface exactly"
    );
    let what = "BITW 16x16 block size x PCIe egress rate, 10 horizons";
    let params = format!("workers={}", nc_sweep::workers());
    let fast = b.time(what, &params, || nc_sweep::run(&spec));
    let slow = b.time(what, "uncached serial", || {
        nc_sweep::run_serial_uncached(&spec)
    });
    b.speedup(
        "BITW 16x16: cached parallel vs uncached serial",
        &params,
        slow,
        fast,
    );
    let st = &cached.stats;
    for (metric, n) in [
        ("prefix_hits", st.prefix_hits),
        ("prefix_misses", st.prefix_misses),
        ("op_hits", st.op_hits()),
        ("op_misses", st.op_misses()),
        ("interned", st.interned),
    ] {
        b.row(what, &params, metric, n as f64);
    }
}

const WARM_PAIR: &str = "admit+depart pair, warm engine";

/// The admission engine (DESIGN §13): the warm incremental decision
/// path, full in-proc trace replays (4 tenants, and the benchmark's
/// 1024) with trace generation and onboarding amortized in, and the
/// cold-start oracle (full model rebuild + general curve algebra per
/// decision) it is measured against.
fn admission(b: &mut Bench) {
    let cfg = fleet::request_config(42, 1, 200);
    let mut shard = fleet::build_shard(&cfg, &[0]);
    let (tid, class) = (shard.tenants[0].1, shard.classes[0]);
    let warm = b.time_per_decision(WARM_PAIR, "", 2, || {
        let d = shard.engine.decide(tid, class, 0).expect("in range");
        if let Some(pl) = d.placement() {
            shard
                .engine
                .depart(tid, class, 0, pl)
                .expect("resident flow");
        }
        d
    });
    // The benchmark's fleet (1024 tenants) beside a small one, so the
    // gate tracks the engine cost `serve-saturate` sees.
    for tenants in [4, 1024] {
        let trace_cfg = fleet::request_config(7, tenants, 250);
        let arrivals = replay_inproc(&trace_cfg, &[])
            .decisions
            .iter()
            .filter(|d| d.event == EventKind::Arrive)
            .count();
        let what = format!(
            "in-proc trace replay, {tenants} tenants x 250 arrivals (trace and onboarding \
             included)"
        );
        b.time_per_decision(&what, "", arrivals, || replay_inproc(&trace_cfg, &[]));
    }
    let what = "cold-start full recompute (oracle)";
    let oracle_cfg = fleet::request_config(7, 4, 250);
    let cold = b.time_per_decision(what, "", 1, oracle_decision(&oracle_cfg, 0));
    b.speedup("incremental vs full recompute", "", cold, warm);
}

/// The cold-start baseline as a closure: each call answers one
/// decision through [`nc_admit::oracle::decide_full`] (full model
/// rebuild + general curve algebra) for `tenant`, against the mid-load
/// resident population a shadow replay of its arrivals leaves behind.
fn oracle_decision(config: &RequestConfig, tenant: usize) -> impl FnMut() {
    let mut shard = fleet::build_shard(config, &[tenant]);
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
    let pipeline = fleet::tenant_pipeline(tenant);
    let budget = Some(fleet::tenant_budget(tenant));
    let classes = fleet::flow_classes(config);
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

/// The admission service front (DESIGN §16): the `nc-serve` shard pool
/// behind the full wire codec, every frame encoded and decoded in both
/// directions, so only the socket syscalls are missing. Warm pairs
/// mirror [`WARM_PAIR`], batched and one frame at a time (parking
/// until each response returns); trace rows replay the canonical
/// 8-tenant fleet per shard count, pool spawn and join included, after
/// a byte comparison against the in-proc engine. The socket rows
/// ([`serve_socket`]) add the syscalls back.
fn serve(b: &mut Bench) {
    use nc_serve::proto::{ReqFrame, RequestFrame};
    use nc_serve::replay::{drive, replay_service, to_csv, Batching};
    use nc_serve::ShardPool;

    let frames: Vec<RequestFrame> = (0..4_000u64)
        .map(|seq| {
            let event = [EventKind::Arrive, EventKind::Depart][seq as usize % 2];
            RequestFrame::Request(ReqFrame {
                seq,
                time_s: seq as f64 * 1e-3,
                tenant: 0,
                class: 0,
                attach: 0,
                event,
                arrive_ix: 0,
            })
        })
        .collect();
    let cfg = fleet::request_config(42, 1, 200);
    let batched = Batching::Batched { quantum: 256 };
    let mut per_decision = Vec::new();
    for (what, batching) in [
        ("serve warm pairs, batched framing", batched),
        (
            "serve warm pairs, per-request framing",
            Batching::PerRequest,
        ),
    ] {
        let mut pool = ShardPool::new(&cfg, 1, batching.quantum(), false);
        let params = format!("shards=1 quantum={}", batching.quantum());
        per_decision.push(b.time_per_decision(what, &params, frames.len(), || {
            let r = drive(&mut pool, &frames, batching);
            assert_eq!(r.len(), frames.len(), "lost responses in {what}");
        }));
        pool.join();
    }
    let warm = b.seconds("admit", WARM_PAIR, "");
    let (batched_s, per_request_s) = (per_decision[0], per_decision[1]);
    b.speedup(
        "batched vs per-request framing",
        "floor=5",
        per_request_s,
        batched_s,
    );
    b.speedup("service vs in-proc warm path", "floor=0.5", warm, batched_s);

    let trace_cfg = fleet::request_config(11, 8, 250);
    let want = to_csv(&replay_inproc(&trace_cfg, &[]).decisions);
    for shards in b.widths(&[1, 2, 4]) {
        let got = replay_service(&trace_cfg, shards, batched, &[], false);
        assert_eq!(
            want,
            to_csv(&got.decisions),
            "service replay diverged from the in-proc engine at {shards} shard(s)"
        );
        let what = "serve trace replay, 8 tenants x 250 arrivals";
        let params = format!("shards={shards} quantum=256");
        b.time_per_decision(what, &params, got.decisions.len(), || {
            replay_service(&trace_cfg, shards, batched, &[], false)
        });
    }
    serve_socket(b);
}

/// Name of the thread the socket rows run the service's event loop on.
const SOCKET_LOOP: &str = "perfbase-serve";

/// The socket path: a real `Server` on a Unix socket, its event loop on
/// a [`SOCKET_LOOP`] thread, and `Client::replay` of the canonical
/// trace at 64 tenants, the decisions byte-compared against the in-proc
/// engine once before timing. Every arrival departs within the trace,
/// so each replay leaves the engine as it found it. Two rows per
/// decision: wall time, and the server threads' CPU time averaged over
/// every timed replay ([`server_cpu_ns`]).
fn serve_socket(b: &mut Bench) {
    use nc_serve::replay::{request_frames, to_csv};
    use nc_serve::service::{Client, Endpoint, Server};
    use nc_serve::ResponseFrame;
    use nc_workloads::requests::generate;

    let cfg = fleet::request_config(7, 64, 250);
    let frames = request_frames(&generate(&cfg), &[]);
    let path = std::env::temp_dir().join(format!("nc-perfbase-{}.sock", std::process::id()));
    let ep = Endpoint::Uds(path.clone());
    let server = Server::bind(&ep, &cfg, 1, 256, false).expect("bind the perfbase socket");
    let event_loop = std::thread::Builder::new()
        .name(SOCKET_LOOP.into())
        .spawn(move || server.run().expect("event loop"))
        .expect("spawn the event loop thread");
    let mut client = Client::connect(&ep).expect("connect to the perfbase socket");
    let mut decisions: Vec<_> = client
        .replay(&frames)
        .expect("socket replay")
        .into_iter()
        .map(|r| match r {
            ResponseFrame::Decision(d) => d,
            other => panic!("unexpected response {other:?}"),
        })
        .collect();
    decisions.sort_by_key(|d| d.seq);
    assert_eq!(
        to_csv(&replay_inproc(&cfg, &[]).decisions),
        to_csv(&decisions),
        "socket replay diverged from the in-proc engine"
    );

    let what = "serve socket replay, 64 tenants x 250 arrivals";
    let params = "shards=1 quantum=256";
    let cpu_before = server_cpu_ns();
    let mut replays = 0usize;
    b.time_per_decision(what, params, frames.len(), || {
        replays += 1;
        client.replay(&frames).expect("socket replay")
    });
    let cpu_ns = server_cpu_ns() - cpu_before;
    let per_decision = cpu_ns as f64 * 1e-9 / (replays * frames.len()) as f64;
    b.row(what, params, "server_cpu_s", per_decision);
    client.shutdown().expect("shut the perfbase server down");
    event_loop.join().expect("event loop thread");
    let _ = std::fs::remove_file(path);
}

/// CPU time, ns, this process's server threads have run: the
/// [`SOCKET_LOOP`] thread and the `nc-serve-shard-*` workers (the
/// kernel keeps 15 bytes of a thread name). Sums the first field of
/// each thread's `/proc/self/task/<tid>/schedstat`.
fn server_cpu_ns() -> u64 {
    let mut ns = 0;
    let tasks = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
    for task in tasks {
        let dir = task.expect("read a /proc/self/task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let comm = comm.trim_end();
        if comm == SOCKET_LOOP || comm.starts_with("nc-serve-shard") {
            let stat = std::fs::read_to_string(dir.join("schedstat")).expect("read schedstat");
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|on_cpu| on_cpu.parse::<u64>().ok())
                .expect("schedstat starts with the ns on CPU");
        }
    }
    ns
}
