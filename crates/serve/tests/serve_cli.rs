//! The `serve` CLI rejects a missing or unparsable flag value with its
//! usage line and exit status 1, and a runtime failure with a labelled
//! error and exit status 1, never by panicking; a malformed size knob
//! warns and keeps its default instead of being silently replaced.

use std::process::{Command, Output};

fn serve(flags: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
    cmd.args(flags);
    for key in [
        "ADMIT_FLEET",
        "ADMIT_REQS",
        "ADMIT_RECONFIGS",
        "NC_PUB_QUANTUM",
    ] {
        cmd.env_remove(key);
    }
    cmd.envs(env.iter().copied())
        .output()
        .expect("run the serve binary")
}

#[test]
fn bad_flag_values_exit_1_with_usage() {
    let cases: [(&[&str], &str); 4] = [
        (&["--whatif", "abc", "--inproc"], "--whatif"),
        (&["--whatif"], "--whatif"),
        (&["--listen"], "--listen"),
        (&["--replay", "tcp:nonsense"], "--replay"),
    ];
    for (flags, named) in cases {
        let out = serve(flags, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?} names {named}: {stderr}");
        assert!(stderr.contains("usage: serve"), "{flags:?}: {stderr}");
    }
}

#[test]
fn inproc_writes_the_decision_csv() {
    let out = serve(&["--inproc"], &[("ADMIT_FLEET", "2"), ("ADMIT_REQS", "3")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.starts_with("seq,time_s,tenant,class,attach,event,outcome,bound\n"),
        "{stdout}"
    );
}

#[test]
fn a_malformed_reconfig_count_warns_and_keeps_zero() {
    let env = [("ADMIT_FLEET", "2"), ("ADMIT_REQS", "3")];
    let clean = serve(&["--inproc"], &env);
    // Zero is a valid count: no warning.
    let zero = serve(&["--inproc"], &[env[0], env[1], ("ADMIT_RECONFIGS", "0")]);
    assert!(zero.status.success());
    assert_eq!(String::from_utf8_lossy(&zero.stderr), "");
    let out = serve(&["--inproc"], &[env[0], env[1], ("ADMIT_RECONFIGS", "x")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("ADMIT_RECONFIGS"), "{stderr}");
    assert_eq!(out.stdout, clean.stdout);
}

#[test]
fn runtime_errors_exit_1_without_panicking() {
    let env = [("ADMIT_FLEET", "2"), ("ADMIT_REQS", "3")];
    let scratch = std::env::temp_dir().join(format!("nc-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    // `missing` is never created: nothing listens under it, and no
    // socket can be bound there.
    let sock = scratch.join("missing").join("x.sock");
    let sock = sock.to_str().expect("utf-8 temp path");
    // A regular file where `--out` needs a directory.
    let file = scratch.join("file");
    std::fs::write(&file, "").expect("create scratch file");
    let csv = file.join("x.csv");
    let csv = csv.to_str().expect("utf-8 temp path");
    let cases: [(&[&str], &str); 4] = [
        (&["--shutdown", sock], "serve: connect "),
        (&["--replay", sock], "serve: connect "),
        (&["--listen", sock], "serve: bind "),
        (&["--inproc", "--out", csv], "serve: write "),
    ];
    for (flags, named) in cases {
        let out = serve(flags, &env);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?} says {named:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
