//! The perf-row schema, its one timing policy, and the regression gate.
//!
//! Every `perfbase` measurement is a [`Row`] `{group, what, params,
//! metric, value}`; a [`Snapshot`] is the list of rows one run took,
//! stamped with the `host_cpus` it ran on, and is what `BENCH_N.json`
//! holds. A row is keyed by everything but its `value`. `params` is a
//! space-separated `name=value` list (`"workers=2 quantum=256"`). The
//! metric decides how a row is read:
//!
//! * a **time row** has a metric ending in `_s` (seconds per run, per
//!   decision, …) and is measured by [`time`];
//! * a **ratio row** has the metric `speedup`: a reference time over a
//!   subject time, so values below 1 mean slower. A `floor=X` param
//!   makes `X` the smallest acceptable value;
//! * any other metric (`events`, cache counters) is context, never
//!   compared.
//!
//! [`Snapshot::check`] holds the whole gate: it reports every floor the
//! snapshot fails, and compares every time row present in both the
//! snapshot and its baseline, skipping rows whose `workers` or `shards`
//! param exceeds either side's `host_cpus` (those measure
//! oversubscription, not the code).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Schema tag of the snapshots this module writes and reads.
pub const SCHEMA: &str = "nc-perfbase-v10";

/// A time row more than this factor slower than its baseline fails the
/// gate.
pub const SLOWDOWN: f64 = 1.25;

/// Target length of one timed batch in [`time`], seconds.
const BATCH_S: f64 = 0.02;

/// Least time [`time`] spends sampling a row, seconds: a short burst
/// of load from elsewhere on the host then cannot cover every batch.
const SAMPLE_S: f64 = 0.5;

/// One measurement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Subsystem the row measures (`curve`, `sim`, `serve`, …).
    pub group: String,
    /// The workload, in words.
    pub what: String,
    /// Space-separated `name=value` parameters; part of the key.
    pub params: String,
    /// What `value` is: `*_s` seconds, `speedup`, or a count.
    pub metric: String,
    /// The measured value.
    pub value: f64,
}

impl Row {
    /// A row; `params` is a space-separated `name=value` list.
    pub fn new(group: &str, what: &str, params: &str, metric: &str, value: f64) -> Row {
        Row {
            group: group.into(),
            what: what.into(),
            params: params.into(),
            metric: metric.into(),
            value,
        }
    }

    /// The numeric value of param `name`, if the row has it.
    pub fn param(&self, name: &str) -> Option<f64> {
        let (_, value) = self
            .params
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == name)?;
        value.parse().ok()
    }

    /// Whether the row is a time measurement (seconds, lower is
    /// better).
    pub fn is_time(&self) -> bool {
        self.metric.ends_with("_s")
    }

    fn key(&self) -> (&str, &str, &str, &str) {
        (&self.group, &self.what, &self.params, &self.metric)
    }

    fn label(&self) -> String {
        let Row {
            group,
            what,
            params,
            metric,
            ..
        } = self;
        if params.is_empty() {
            format!("{group} | {what} | {metric}")
        } else {
            format!("{group} | {what} [{params}] | {metric}")
        }
    }
}

/// Seconds per call of `f`: the one timing policy behind every time
/// row. Each result goes through [`black_box`], so the work is not
/// optimized away. The call count per batch doubles until a batch lasts
/// `BATCH_S`; those sizing batches also warm caches and allocators.
/// Then enough batches run to span `SAMPLE_S`, at least two, and the
/// fastest is kept. Noise on a shared host only ever adds time, so the
/// fastest batch is the least-contaminated estimate.
pub fn time<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut batch = |iters: u32| {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        t.elapsed().as_secs_f64() / f64::from(iters)
    };
    let mut iters = 1u32;
    let mut per_call = batch(iters);
    while per_call * f64::from(iters) < BATCH_S && iters < 1 << 24 {
        iters *= 2;
        per_call = batch(iters);
    }
    let batches = (SAMPLE_S / (per_call * f64::from(iters))).ceil().max(2.0) as u32;
    (0..batches).fold(f64::INFINITY, |best, _| best.min(batch(iters)))
}

/// All rows of one perfbase run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Snapshot {
    /// [`SCHEMA`].
    pub schema: String,
    /// The command that regenerates the snapshot.
    pub command: String,
    /// Cores available to the run; rows whose `workers` or `shards`
    /// exceed it were not taken.
    pub host_cpus: usize,
    /// Every measurement, in the order taken.
    pub rows: Vec<Row>,
}

impl Snapshot {
    /// Assemble a snapshot, rejecting two rows with the same key.
    pub fn new(command: &str, host_cpus: usize, rows: Vec<Row>) -> Result<Snapshot, String> {
        let mut seen = BTreeSet::new();
        for r in &rows {
            if !seen.insert(r.key()) {
                return Err(format!("duplicate row: {}", r.label()));
            }
        }
        Ok(Snapshot {
            schema: SCHEMA.into(),
            command: command.into(),
            host_cpus,
            rows,
        })
    }

    /// Read a snapshot written under the current [`SCHEMA`].
    pub fn load(path: &Path) -> Result<Snapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let snap: Snapshot =
            serde_json::from_str(&text).map_err(|e| format!("not a {SCHEMA} snapshot ({e})"))?;
        if snap.schema != SCHEMA {
            return Err(format!("schema {}, not {SCHEMA}", snap.schema));
        }
        Ok(snap)
    }

    /// Evaluate this snapshot's floors and, given a baseline, compare
    /// every time row the two share.
    pub fn check(&self, base: Option<&Snapshot>) -> Report {
        let mut findings: Vec<Finding> = self
            .rows
            .iter()
            .filter_map(|r| {
                let floor = r.param("floor")?;
                (r.value < floor).then(|| Finding::BelowFloor {
                    row: r.label(),
                    value: r.value,
                    floor,
                })
            })
            .collect();
        let Some(base) = base else {
            return Report {
                compared: 0,
                findings,
            };
        };
        let (old, new) = (base.time_rows(), self.time_rows());
        let host_cpus = base.host_cpus.min(self.host_cpus);
        let mut compared = 0;
        for (key, was) in &old {
            let Some(now) = new.get(key) else {
                findings.push(Finding::Gone { row: was.label() });
                continue;
            };
            let width = now.param("workers").or_else(|| now.param("shards"));
            if let Some(width) = width.filter(|&w| w > host_cpus as f64) {
                findings.push(Finding::Skipped {
                    row: now.label(),
                    width,
                    host_cpus,
                });
                continue;
            }
            compared += 1;
            if now.value > was.value * SLOWDOWN {
                findings.push(Finding::Slower {
                    row: now.label(),
                    was: was.value,
                    now: now.value,
                });
            }
        }
        for (key, now) in &new {
            if !old.contains_key(key) {
                findings.push(Finding::New { row: now.label() });
            }
        }
        Report { compared, findings }
    }

    fn time_rows(&self) -> BTreeMap<(&str, &str, &str, &str), &Row> {
        self.rows
            .iter()
            .filter(|r| r.is_time())
            .map(|r| (r.key(), r))
            .collect()
    }
}

/// The newest `BENCH_N.json` in `dir` (highest `N`) other than
/// `exclude`: the baseline a fresh snapshot is compared against.
pub fn newest_baseline(dir: &Path, exclude: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let n: u32 = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            (path != exclude).then_some((n, path))
        })
        .max_by_key(|(n, _)| *n)
        .map(|(_, path)| path)
}

/// One outcome of [`Snapshot::check`].
#[derive(Clone, Debug, PartialEq)]
pub enum Finding {
    /// A ratio row below its `floor` param. Fails the gate.
    BelowFloor {
        /// The row.
        row: String,
        /// Its value.
        value: f64,
        /// Its floor.
        floor: f64,
    },
    /// A time row more than [`SLOWDOWN`] times its baseline. Fails the
    /// gate.
    Slower {
        /// The row.
        row: String,
        /// Baseline seconds.
        was: f64,
        /// Current seconds.
        now: f64,
    },
    /// A shared time row run at more workers or shards than one of the
    /// two hosts has cores; not compared.
    Skipped {
        /// The row.
        row: String,
        /// Its `workers` or `shards` param.
        width: f64,
        /// The smaller of the two snapshots' `host_cpus`.
        host_cpus: usize,
    },
    /// A time row with no baseline yet.
    New {
        /// The row.
        row: String,
    },
    /// A baseline time row this run did not take.
    Gone {
        /// The row.
        row: String,
    },
}

impl Finding {
    /// Whether the finding fails the gate (the rest are notes).
    pub fn fails(&self) -> bool {
        matches!(self, Finding::BelowFloor { .. } | Finding::Slower { .. })
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::BelowFloor { row, value, floor } => {
                write!(f, "FLOOR  {row}: {value:.3} < floor {floor}")
            }
            Finding::Slower { row, was, now } => write!(
                f,
                "SLOWER {row}: {was:.3e} -> {now:.3e} ({:.2}x)",
                now / was
            ),
            Finding::Skipped {
                row,
                width,
                host_cpus,
            } => write!(f, "note   {row}: skipped, {width} > host_cpus={host_cpus}"),
            Finding::New { row } => write!(f, "note   {row}: new, no baseline"),
            Finding::Gone { row } => write!(f, "note   {row}: in the baseline only"),
        }
    }
}

/// What [`Snapshot::check`] found.
#[derive(Clone, Debug)]
pub struct Report {
    /// Time rows compared against the baseline.
    pub compared: usize,
    /// Failures and notes, floors first.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Whether any finding fails the gate.
    pub fn failed(&self) -> bool {
        self.findings.iter().any(Finding::fails)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(host_cpus: usize, rows: Vec<Row>) -> Snapshot {
        Snapshot::new("test", host_cpus, rows).expect("unique keys")
    }

    #[test]
    fn twice_as_slow_time_row_is_flagged() {
        let base = snap(2, vec![Row::new("sim", "a", "", "per_run_s", 1.0)]);
        let cur = snap(2, vec![Row::new("sim", "a", "", "per_run_s", 2.0)]);
        let report = cur.check(Some(&base));
        assert_eq!(report.compared, 1);
        assert!(report.failed());
        assert!(matches!(
            report.findings[..],
            [Finding::Slower { was, now, .. }] if was == 1.0 && now == 2.0
        ));
        // Within the slowdown allowance, and faster, pass.
        for ok in [1.2, 0.5] {
            let cur = snap(2, vec![Row::new("sim", "a", "", "per_run_s", ok)]);
            assert!(cur.check(Some(&base)).findings.is_empty(), "{ok}");
        }
    }

    #[test]
    fn rows_wider_than_host_cpus_are_skipped() {
        let rows = |v: f64| {
            vec![
                Row::new("par", "a", "workers=4", "per_run_s", v),
                Row::new("serve", "b", "shards=4 quantum=256", "per_decision_s", v),
                Row::new("par", "a", "workers=2", "per_run_s", 1.0),
            ]
        };
        let base = snap(4, rows(1.0));
        let report = snap(2, rows(3.0)).check(Some(&base));
        assert!(!report.failed(), "{:?}", report.findings);
        assert_eq!(report.compared, 1);
        let skipped = report
            .findings
            .iter()
            .filter(|f| matches!(f, Finding::Skipped { width, host_cpus: 2, .. } if *width == 4.0))
            .count();
        assert_eq!(skipped, 2);
    }

    #[test]
    fn ratio_row_below_its_floor_is_reported() {
        let cur = snap(
            1,
            vec![
                Row::new("serve", "framing", "floor=5", "speedup", 1.59),
                Row::new("model", "flowctl", "floor=10", "speedup", 24.0),
                Row::new("curve", "conv", "", "speedup", 0.8),
            ],
        );
        let report = cur.check(None);
        assert!(report.failed());
        assert_eq!(
            report.findings,
            vec![Finding::BelowFloor {
                row: "serve | framing [floor=5] | speedup".into(),
                value: 1.59,
                floor: 5.0,
            }]
        );
    }

    #[test]
    fn one_sided_rows_are_notes() {
        let base = snap(
            1,
            vec![
                Row::new("sim", "kept", "", "per_run_s", 1.0),
                Row::new("sim", "removed", "", "per_run_s", 1.0),
            ],
        );
        let cur = snap(
            1,
            vec![
                Row::new("sim", "kept", "", "per_run_s", 1.0),
                Row::new("sim", "added", "", "per_run_s", 9.0),
            ],
        );
        let report = cur.check(Some(&base));
        assert!(!report.failed());
        assert_eq!(report.compared, 1);
        assert_eq!(
            report.findings,
            vec![
                Finding::Gone {
                    row: "sim | removed | per_run_s".into()
                },
                Finding::New {
                    row: "sim | added | per_run_s".into()
                },
            ]
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let row = Row::new("sim", "a", "workers=1", "per_run_s", 1.0);
        let err = Snapshot::new("test", 1, vec![row.clone(), row.clone()]).unwrap_err();
        assert!(err.contains("sim | a [workers=1] | per_run_s"), "{err}");
        // A different param or metric makes a different key.
        let other = Row::new("sim", "a", "workers=2", "per_run_s", 1.0);
        let count = Row::new("sim", "a", "workers=1", "events", 7.0);
        assert!(Snapshot::new("test", 1, vec![row, other, count]).is_ok());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let s = snap(
            2,
            vec![Row::new("bin", "sweep", "SWEEP_GRID=4x4", "per_run_s", 0.5)],
        );
        let back: Snapshot = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back.rows, s.rows);
        assert_eq!((back.schema.as_str(), back.host_cpus), (SCHEMA, 2));
        assert_eq!(back.rows[0].param("SWEEP_GRID"), None);
        assert_eq!(
            Row::new("p", "w", "workers=2 floor=0.5", "s", 0.0).param("floor"),
            Some(0.5)
        );
    }
}
