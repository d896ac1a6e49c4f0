//! Pins the batch-mode CLI contract of `run_scenario`: a malformed
//! scenario file reports a line-numbered `ScenarioParseError` on stderr
//! and exits non-zero (nothing is printed to stdout and no artifact is
//! written).

use std::process::Command;

fn bad_scn(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("mint-{name}-{}.scn", std::process::id()));
    std::fs::write(&path, text).expect("write temp scenario");
    path
}

#[test]
fn malformed_scenario_files_exit_nonzero_with_a_line_number() {
    let path = bad_scn(
        "bad-requests",
        "scheme = mint\nworkload = mcf\nrequests = a_lot\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
        .arg(&path)
        .output()
        .expect("spawn run_scenario");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2), "malformed specs exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("scenario line 3") && stderr.contains("bad requests"),
        "stderr names the offending line: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "no table or artifact note on stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn unknown_schemes_are_reported_with_their_line() {
    let path = bad_scn("bad-scheme", "workload = lbm\nscheme = mnit\n");
    let out = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
        .arg(&path)
        .output()
        .expect("spawn run_scenario");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("scenario line 2") && stderr.contains("unknown scheme"),
        "stderr: {stderr}"
    );
}

#[test]
fn grids_that_do_not_fit_their_cores_or_seeds_exit_2() {
    for (name, text, needle) in [
        (
            "grid-per-core",
            "schemes = mint\nworkloads = mcf+lbm\nrequests = 100\n",
            "per-core workloads",
        ),
        (
            "grid-seeds",
            "schemes = mint\nworkloads = mcf lbm\nseeds = 1\nrequests = 100\n",
            "1 seeds for 2 workloads",
        ),
    ] {
        let path = bad_scn(name, text);
        let out = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
            .arg(&path)
            .output()
            .expect("spawn run_scenario");
        std::fs::remove_file(&path).ok();
        assert_eq!(out.status.code(), Some(2), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("scenario:") && stderr.contains(needle),
            "{name}: stderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name}: nothing on stdout");
    }
}

#[test]
fn missing_arguments_print_usage_and_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
        .output()
        .expect("spawn run_scenario");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage:") && stderr.contains("--serve"),
        "{stderr}"
    );
}
