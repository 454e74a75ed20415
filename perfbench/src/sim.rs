//! The `sim-replicas` workload, run in this process: repeated
//! validation rounds, each calling `tailload::replicate` for the four
//! `tailload::scenarios()` — the `tail` bin's traffic. The stochastic
//! DES does all the work.
//!
//! The timed rounds run at one worker. At two, a round's time followed
//! whether the host ran this machine's two vCPUs side by side (about
//! 3.5 ms) or not (about 6.3 ms), flipping within seconds; one worker's
//! rounds held their speed far longer. The two-worker fan-out is timed
//! in the traced run (`tailload.fanout_eff`) and checked here.
//!
//! The inputs are fixed by the repository (replica ids `0..REPLICAS`
//! inside `replicate`), so the seed does not change them.

use std::hint::black_box;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use nc_bench::tailload::{self, TailObs, TailScenario};
use nc_core::num::Rat;

use crate::stats::{record_setup, vm_hwm_mib, Window, Windows};
use crate::sys::process_cpu_s;
use crate::{Args, Report};

/// Replicas per scenario in one validation round.
pub const REPLICAS: u64 = 32;
/// Workers of the timed rounds.
pub const WORKERS: usize = 1;
/// Fan-out width of the traced run's `replicate` and of the end-of-run
/// identity check: the host's two cores.
pub const FANOUT: usize = 2;
/// Least number of fresh processes timed per run; `setup_s` is the
/// median of their fastest quarter.
pub const COLD_STARTS: usize = 15;
/// Length of one throughput and CPU window.
const WINDOW: Duration = Duration::from_millis(500);

/// Times repeated calls and cuts them into [`WINDOW`]s of this
/// process's work, CPU cost and call latencies.
struct Meter {
    windows: Windows,
    lat: Vec<u64>,
    ops: u64,
    busy_ns: u64,
    calls: usize,
    cpu0: f64,
    start: Instant,
}

impl Meter {
    fn new() -> Meter {
        Meter {
            windows: Windows::default(),
            lat: Vec::new(),
            ops: 0,
            busy_ns: 0,
            calls: 0,
            cpu0: process_cpu_s(),
            start: Instant::now(),
        }
    }

    /// Record one call covering `ops` work items that took `ns`; true
    /// when it closed a window.
    fn call(&mut self, ops: u64, ns: u64) -> bool {
        self.lat.push(ns);
        self.ops += ops;
        self.busy_ns += ns;
        self.calls += 1;
        let full = self.start.elapsed() >= WINDOW;
        if full {
            self.close();
        }
        full
    }

    fn close(&mut self) {
        self.windows.push(Window {
            ops: self.ops,
            ns: self.busy_ns,
            cpu_s: process_cpu_s() - self.cpu0,
            lat: std::mem::take(&mut self.lat),
        });
        (self.ops, self.busy_ns) = (0, 0);
        self.resume();
    }

    /// Start the next window's clocks afresh, leaving out untimed work
    /// done since the last close.
    fn resume(&mut self) {
        self.cpu0 = process_cpu_s();
        self.start = Instant::now();
    }

    /// Record the timing metrics; `what` names one call.
    fn report(mut self, report: &mut Report, what: &str) {
        if self.windows.len() == 0 || self.start.elapsed() >= WINDOW / 2 {
            self.close();
        }
        let windows = self.windows.len();
        let (kept, samples) = self.windows.report(report);
        report.note(format!(
            "{} {what} timed in {windows} windows of {WINDOW:?}; metrics from the {kept} \
             fastest, holding {samples} latency samples",
            self.calls
        ));
    }
}

/// One validation round: every scenario's replicas at [`WORKERS`].
pub fn round(scenarios: &[TailScenario]) -> Vec<Vec<TailObs>> {
    scenarios
        .iter()
        .map(|s| tailload::replicate(s, REPLICAS, WORKERS))
        .collect()
}

/// The ε = 0 (deterministic worst-case) delay and backlog bounds of a
/// scenario, which every replica must lie within; `None` if either is
/// infinite.
pub fn worst_case_bounds(s: &TailScenario) -> Option<(f64, f64)> {
    let tb = s.pipeline.tail_bounds(&s.spec(), Rat::ZERO);
    Some((
        tb.delay.as_finite()?.to_f64(),
        tb.backlog.as_finite()?.to_f64(),
    ))
}

/// Replicas in `got` outside `bounds` or different from `want`.
pub fn bad_replicas(got: &[TailObs], want: &[TailObs], bounds: Option<(f64, f64)>) -> u64 {
    let mut bad = want.len().abs_diff(got.len()) as u64;
    for (g, w) in got.iter().zip(want) {
        let inside = bounds.is_some_and(|(d, b)| g.delay_max <= d && g.peak_backlog <= b);
        bad += u64::from(!inside || g != w);
    }
    bad
}

/// The child side of a cold start: compute the first validation
/// round, say so, exit.
pub fn cold_child() {
    black_box(round(&tailload::scenarios()));
    println!("ready");
}

/// Time one fresh process of this binary, `exe`, from spawn to its
/// first validation round, in seconds.
fn cold_start(exe: &Path) -> io::Result<f64> {
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg("--cold")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut line = String::new();
    if let Some(out) = child.stdout.take() {
        BufReader::new(out).read_line(&mut line)?;
    }
    let dt = t0.elapsed().as_secs_f64();
    let status = child.wait()?;
    if !status.success() || line.trim() != "ready" {
        return Err(io::Error::other(format!("cold start exited with {status}")));
    }
    Ok(dt)
}

/// The untraced end-to-end run of `sim-replicas`. A cold start runs
/// between windows once a second, so `setup_s` samples the whole run,
/// topped up to [`COLD_STARTS`] at the end.
pub fn run(args: &Args, report: &mut Report) -> io::Result<()> {
    let exe = std::env::current_exe()?;
    let scenarios = tailload::scenarios();
    let bounds: Vec<Option<(f64, f64)>> = scenarios.iter().map(worst_case_bounds).collect();
    let per_round = REPLICAS * scenarios.len() as u64;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut meter = Meter::new();
    let mut setups = Vec::new();
    let mut first: Option<Vec<Vec<TailObs>>> = None;
    let mut failed = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        let t = Instant::now();
        let obs = round(&scenarios);
        let closed = meter.call(per_round, t.elapsed().as_nanos() as u64);
        let want = first.get_or_insert_with(|| obs.clone());
        for ((got, want), b) in obs.iter().zip(want.iter()).zip(&bounds) {
            failed += bad_replicas(got, want, *b);
        }
        if closed && meter.windows.len().is_multiple_of(2) {
            setups.push(cold_start(&exe)?);
            meter.resume();
        }
    }
    report.set("rss_peak_mib", vm_hwm_mib("self"));
    while setups.len() < COLD_STARTS {
        setups.push(cold_start(&exe)?);
    }
    record_setup(
        report,
        &mut setups,
        "fresh processes, spawn to first validation round, one a second through the run",
    );
    let rounds = meter.calls as u64;
    // The merged observations are identical at the traced run's fan-out.
    let mut attempted = rounds * per_round;
    if let Some(want) = &first {
        for (s, (w, b)) in scenarios.iter().zip(want.iter().zip(&bounds)) {
            failed += bad_replicas(&tailload::replicate(s, REPLICAS, FANOUT), w, *b);
        }
        attempted += per_round;
    }
    report.check(attempted, failed);
    report.note(format!(
        "{} scenarios x {REPLICAS} replicas per round at {WORKERS} worker; checked once at \
         {FANOUT}",
        scenarios.len()
    ));
    meter.report(report, "rounds");
    Ok(())
}
