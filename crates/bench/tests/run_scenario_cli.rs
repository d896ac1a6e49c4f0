//! Pins the CLI contract of `run_scenario`. In batch mode a malformed
//! scenario file reports a line-numbered `ScenarioParseError` on stderr
//! and exits non-zero (nothing is printed to stdout and no artifact is
//! written). In `--serve` mode a stream of hostile requests gets one
//! `ok:false` answer per bad line while the valid jobs around them still
//! run, and the service exits cleanly.

use mint_exp::json::Json;
use std::io::Write;
use std::process::{Command, Stdio};

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

/// Ids of the jobs in `hostile.jsonl` that must succeed; every other
/// request line must fail alone. Id 12 is a cancel sent before its
/// submit: acknowledged, then the job runs, because a cancel reaches
/// only jobs already queued or running.
const VALID_IDS: [u64; 4] = [1, 3, 11, 12];

#[test]
fn serve_answers_every_hostile_line_and_keeps_serving() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/hostile.jsonl"
    );
    let file = std::fs::read_to_string(path).expect("read hostile.jsonl");
    let mut requests: Vec<String> = file.lines().map(str::to_owned).collect();
    assert_eq!(
        requests.pop().as_deref(),
        Some(r#"{"v":1,"op":"shutdown"}"#),
        "the stream ends in shutdown"
    );
    // A line nested far deeper than the parser's bound, after the first
    // job so valid jobs run on both sides of it.
    requests.insert(1, "[".repeat(60_000) + &"]".repeat(60_000));
    let input = requests.join("\n") + "\n" + r#"{"v":1,"op":"shutdown"}"# + "\n";

    let mut child = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
        .args(["--serve", "--jobs", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn run_scenario --serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let out = child.wait_with_output().expect("wait for run_scenario");
    writer
        .join()
        .expect("stdin writer")
        .expect("write requests");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8(out.stdout).expect("utf-8 answers");
    let answers: Vec<&str> = stdout.lines().collect();
    assert_eq!(answers.len(), requests.len(), "one answer per request line");
    for (request, answer) in requests.iter().zip(&answers) {
        let req_id = Json::parse(request)
            .ok()
            .and_then(|r| r.get("id").and_then(Json::as_u64));
        let ans = Json::parse(answer).expect("every answer is one JSON object");
        let ans_id = ans.get("id").and_then(Json::as_u64);
        let valid = req_id.is_some_and(|id| VALID_IDS.contains(&id));
        assert_eq!(
            ans.get("ok").and_then(Json::as_bool),
            Some(valid),
            "{answer}"
        );
        // Answers come back in submission order: a line that names a job
        // is answered under that job's id.
        if valid || ans_id.is_some() {
            assert_eq!(ans_id, req_id, "{answer}");
        }
    }
}
