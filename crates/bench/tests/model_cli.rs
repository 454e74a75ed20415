//! The `model` CLI rejects a missing, unparsable or out-of-range flag
//! value with its usage line and exit status 1, never by silently
//! dropping or wrapping the value or by panicking.

use std::process::{Command, Output};

const SPEC: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../specs/example_pipeline.json"
);

fn model(flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_model"))
        .arg(SPEC)
        .args(flags)
        .output()
        .expect("run the model binary")
}

#[test]
fn bad_flag_values_exit_1_with_usage() {
    let cases: [(&[&str], &str); 5] = [
        // Unparsable: used to skip the simulation and keep seed 42.
        (&["--sim", "four", "--seed", "x"], "--sim"),
        (&["--sim", "4", "--seed", "x"], "--seed"),
        // A trailing flag with no value used to be ignored.
        (&["--sim"], "--sim"),
        // 2^44 + 1 MiB used to wrap `mib << 20` to 1 MiB.
        (&["--sim", "17592186044417"], "--sim"),
        // u64::MAX KiB used to cast to -1 and panic in the solver.
        (&["--budget", "18446744073709551615"], "--budget"),
    ];
    for (flags, named) in cases {
        let out = model(flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?} names {named}: {stderr}");
        assert!(stderr.contains("usage: model"), "{flags:?}: {stderr}");
    }
}

#[test]
fn good_flag_values_still_simulate() {
    let out = model(&["--sim", "4", "--budget", "64", "--seed", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("64.00 KiB buffer") || stdout.contains("overflows 64.00 KiB"),
        "{stdout}"
    );
    assert!(stdout.contains("simulation (4 MiB, seed 1):"), "{stdout}");
}
