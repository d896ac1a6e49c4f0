//! CI smoke: one tiny workload grid through both scheduling policies
//! (FCFS and FR-FCFS), the same grid scaled to a 2-channel × 2-rank
//! DIMM, a small red-team scheme × pattern grid, the checked-in
//! `ScenarioSpec` grid file, and that same grid again with telemetry on
//! (the obs dump byte-diffed, the perf outcomes pinned to the
//! telemetry-off grid) — each diffed for determinism at jobs 1 vs 4.
//! Two more legs cover the serving layer: the checked-in specs and a
//! cell longer than the service's poll period piped through the
//! resident scenario service (streamed JSON-lines byte-identical at 1
//! vs 4 workers and vs batch) and a midpoint
//! checkpoint/restore whose resumed report must match the straight run
//! byte-for-byte.
//!
//! ```bash
//! cargo run --release -p mint-bench --bin ci_smoke
//! ```
//!
//! Exits non-zero (panics) if any combination produces a result that is
//! not bit-identical to the single-threaded run — the contract the whole
//! `mint-exp` fan-out rests on, checked here in seconds instead of the
//! full test suite's minutes.

use mint_bench::redteam::patterns;
use mint_memsys::{
    parse_any, workload_by_name, Checkpoint, MitigationScheme, NormalizedPerf, Scenario,
    ScenarioGrid, SchedulePolicy, SessionRun, SystemConfig,
};
use mint_redteam::{redteam_sweep, RedteamConfig, RedteamReport};
use mint_serve::{wire, Service};

/// The checked-in spec-driven grid (CI runs exactly what users run).
const SCENARIO_FILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/scenarios/zoo_small.scn"
);

/// The checked-in multi-channel grid, reused as the service's second job.
const MULTICHANNEL_FILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/scenarios/dimm_multichannel.scn"
);

fn tiny_grid(policy: SchedulePolicy) -> Vec<Vec<NormalizedPerf>> {
    let mcf = workload_by_name("mcf").expect("mcf in the suite");
    ScenarioGrid::new(SystemConfig::table6())
        .schemes(&[
            MitigationScheme::Baseline,
            MitigationScheme::Mint,
            MitigationScheme::MintRfm { rfm_th: 16 },
        ])
        .policy(policy)
        .workloads(&[[mcf; 4]])
        .requests_per_core(2_000)
        .seeds(&[77])
        .run()
}

/// The same tiny grid scaled out to a 2-channel × 2-rank DIMM: the
/// multi-channel [`System`](mint_memsys::System) admission loop and the
/// per-channel pipeline fan-out must be just as worker-count-invariant
/// as the single-channel path.
fn tiny_multichannel_grid() -> Vec<Vec<NormalizedPerf>> {
    let mcf = workload_by_name("mcf").expect("mcf in the suite");
    let cfg = SystemConfig {
        channels: 2,
        ranks: 2,
        ..SystemConfig::table6()
    };
    ScenarioGrid::new(cfg)
        .schemes(&[MitigationScheme::Baseline, MitigationScheme::Mint])
        .workloads(&[[mcf; 4]])
        .requests_per_core(2_000)
        .seeds(&[77])
        .run()
}

/// A small scheme × pattern red-team grid (quick config, one scheme per
/// backend family).
fn tiny_redteam() -> RedteamReport {
    let rc = RedteamConfig::quick();
    redteam_sweep(
        &rc,
        &[
            MitigationScheme::Baseline,
            MitigationScheme::Mint,
            MitigationScheme::McPara { p: 1.0 / 40.0 },
        ],
        &patterns(&rc),
    )
}

/// The spec-driven grid: parsed from the shipped `.scn` file, exactly as
/// `run_scenario` would run it.
fn scenario_grid() -> Vec<Vec<NormalizedPerf>> {
    let text = std::fs::read_to_string(SCENARIO_FILE)
        .unwrap_or_else(|e| panic!("cannot read {SCENARIO_FILE}: {e}"));
    match parse_any(&text).unwrap_or_else(|e| panic!("{SCENARIO_FILE}: {e}")) {
        Scenario::Grid(grid) => grid.run(),
        Scenario::Cell(_) => panic!("{SCENARIO_FILE} must be a grid"),
    }
}

fn assert_grids_identical(one: &[Vec<NormalizedPerf>], four: &[Vec<NormalizedPerf>], what: &str) {
    assert_eq!(one.len(), four.len());
    for (ra, rb) in one.iter().zip(four) {
        for (ca, cb) in ra.iter().zip(rb) {
            assert_eq!(
                ca.duration_ps, cb.duration_ps,
                "{what}: duration differs between jobs 1 and 4"
            );
            assert_eq!(
                ca.result, cb.result,
                "{what}: SimResult differs between jobs 1 and 4"
            );
            assert_eq!(
                ca.normalized.to_bits(),
                cb.normalized.to_bits(),
                "{what}: normalized perf differs bitwise between jobs 1 and 4"
            );
        }
    }
}

/// One pass of the resident scenario service over `input`, with the
/// worker pool sized by the ambient `set_jobs` setting (so
/// [`at_jobs_1_and_4`] exercises 1 vs 4 workers).
fn serve_stream(input: &str) -> String {
    let mut out = Vec::new();
    Service::new()
        .serve(std::io::Cursor::new(input.to_string()), &mut out)
        .expect("in-memory serve");
    String::from_utf8(out).expect("utf8 serve output")
}

/// Runs `make` at jobs 1 and jobs 4 and hands both results back.
fn at_jobs_1_and_4<T>(make: impl Fn() -> T) -> (T, T) {
    mint_exp::set_jobs(1);
    let one = make();
    mint_exp::set_jobs(4);
    let four = make();
    mint_exp::set_jobs(0); // restore default resolution
    (one, four)
}

fn main() {
    for policy in [SchedulePolicy::Fcfs, SchedulePolicy::frfcfs()] {
        let (one, four) = at_jobs_1_and_4(|| tiny_grid(policy));
        assert_grids_identical(&one, &four, &policy.label());
        let mint = &one[0][1];
        println!(
            "{}: jobs 1 == jobs 4 ({} requests, MINT normalized {:.6}, row-hit rate {:.4})",
            policy.label(),
            mint.result.requests,
            mint.normalized,
            mint.result.row_hit_rate(),
        );
    }

    let (one, four) = at_jobs_1_and_4(tiny_multichannel_grid);
    assert_grids_identical(&one, &four, "2ch x 2rk system");
    println!(
        "system: jobs 1 == jobs 4 on a 2-channel x 2-rank DIMM ({} requests)",
        one[0][0].result.requests,
    );

    let (one, four) = at_jobs_1_and_4(tiny_redteam);
    assert_eq!(
        one, four,
        "redteam scheme x pattern grid differs between jobs 1 and 4"
    );
    let worst = one
        .cells
        .iter()
        .max_by_key(|c| c.summary.max_hammers)
        .expect("non-empty grid");
    println!(
        "redteam: jobs 1 == jobs 4 ({} cells, worst {} on {} reaching {} hammers)",
        one.cells.len(),
        worst.scheme_label,
        worst.pattern,
        worst.summary.max_hammers,
    );

    let (one, four) = at_jobs_1_and_4(scenario_grid);
    assert_grids_identical(&one, &four, "zoo_small.scn");
    println!(
        "scenario: jobs 1 == jobs 4 ({} x {} spec-driven cells from zoo_small.scn)",
        one.len(),
        one[0].len(),
    );

    // Telemetry leg: the same checked-in grid with the observability
    // subsystem on. The per-cell telemetry dumps must be byte-identical
    // at jobs 1 vs 4, and the perf outcomes must match the telemetry-off
    // grid bit for bit — the obs hooks read the simulator, never drive it.
    let telemetry_dump = || {
        let text = std::fs::read_to_string(SCENARIO_FILE)
            .unwrap_or_else(|e| panic!("cannot read {SCENARIO_FILE}: {e}"));
        let Scenario::Grid(mut grid) =
            parse_any(&text).unwrap_or_else(|e| panic!("{SCENARIO_FILE}: {e}"))
        else {
            panic!("{SCENARIO_FILE} must be a grid");
        };
        grid.telemetry = true;
        let reports = grid.run_reports();
        let mut dump = String::new();
        let mut rows = Vec::new();
        for row in &reports {
            let base = row[0].perf;
            rows.push(
                row.iter()
                    .map(|r| r.perf.normalize(&base))
                    .collect::<Vec<NormalizedPerf>>(),
            );
            for r in row {
                dump.push_str(&r.telemetry.as_ref().expect("telemetry enabled").to_json());
            }
        }
        (dump, rows)
    };
    let (tele_one, tele_four) = at_jobs_1_and_4(telemetry_dump);
    assert_eq!(
        tele_one.0, tele_four.0,
        "telemetry dump differs between jobs 1 and 4"
    );
    assert_grids_identical(&tele_one.1, &one, "telemetry-on vs telemetry-off grid");
    assert!(
        tele_one.0.contains("\"decisions\"") && tele_one.0.contains("\"mitigations\""),
        "telemetry dump must carry scheduler and tracker counters"
    );
    println!(
        "telemetry: jobs 1 == jobs 4 dump ({} bytes), perf bit-identical to the off grid",
        tele_one.0.len(),
    );

    // Serve leg: the two checked-in grid specs and a cell that runs on
    // past a poll (4 x 20,000 requests, more than `CHUNK`) through the
    // resident scenario service. The streamed JSON-lines must be
    // byte-identical at 1 vs 4 workers AND to the batch runner's reports
    // rendered by the same wire formatter.
    let zoo = std::fs::read_to_string(SCENARIO_FILE)
        .unwrap_or_else(|e| panic!("cannot read {SCENARIO_FILE}: {e}"));
    let multi = std::fs::read_to_string(MULTICHANNEL_FILE)
        .unwrap_or_else(|e| panic!("cannot read {MULTICHANNEL_FILE}: {e}"));
    let long = "scheme = MINT\nworkload = mcf\nrequests = 20000\nseed = 77\n".to_string();
    let jobs = [(1u64, &zoo), (2, &multi), (3, &long)];
    let input = jobs
        .iter()
        .map(|&(id, spec)| {
            wire::Envelope::Submit {
                id,
                spec: spec.clone(),
                seed_base: None,
                timeout_ms: None,
            }
            .to_line()
        })
        .chain([wire::Envelope::Shutdown.to_line()])
        .collect::<Vec<_>>()
        .join("\n");
    let (one, four) = at_jobs_1_and_4(|| serve_stream(&input));
    assert_eq!(one, four, "serve stream differs between 1 and 4 workers");
    let mut expected = String::new();
    for (id, text) in jobs {
        match parse_any(text).expect("checked-in spec") {
            Scenario::Grid(grid) => {
                expected.push_str(&wire::ok_grid_line(id, &grid, &grid.run()));
            }
            Scenario::Cell(cell) => {
                let report = cell.run().expect("checked-in cell");
                expected.push_str(&wire::ok_cell_line(id, &cell.scheme.label(), &report));
            }
        }
        expected.push('\n');
    }
    assert_eq!(
        one, expected,
        "serve stream differs from the batch-rendered reports"
    );
    println!("serve: 3 spec jobs streamed byte-identical at 1 vs 4 workers and vs batch");

    // Checkpoint leg: run a cell straight, then split it at the midpoint
    // through the serialized on-disk checkpoint format and resume in a
    // fresh session — the final report rendering must not differ by a
    // byte (and the full RunReport must compare equal).
    let cell_text = "scheme = mint\nworkload = mcf\nrequests = 2000\nseed = 77\n";
    let Scenario::Cell(cell) = parse_any(cell_text).expect("cell spec") else {
        panic!("checkpoint leg needs a cell");
    };
    let straight = cell.run().expect("straight run");
    let total = straight.perf.result.requests;
    let paused = cell
        .to_sim(SystemConfig::table6())
        .expect("sim")
        .build()
        .run_until(total / 2)
        .expect("pause at the midpoint");
    let SessionRun::Paused(checkpoint) = paused else {
        panic!("a midpoint stop must pause, not finish");
    };
    let bytes = checkpoint.to_bytes();
    let restored = Checkpoint::from_bytes(&bytes).expect("decode checkpoint bytes");
    let resumed = cell
        .to_sim(SystemConfig::table6())
        .expect("sim")
        .build()
        .resume(&restored)
        .expect("resume from the midpoint");
    assert_eq!(
        wire::ok_cell_line(0, &cell.scheme.label(), &resumed),
        wire::ok_cell_line(0, &cell.scheme.label(), &straight),
        "resumed report rendering differs from the straight run"
    );
    assert_eq!(
        resumed, straight,
        "full RunReport differs after checkpoint/restore"
    );
    println!(
        "checkpoint: midpoint split at request {} resumed byte-identical ({}-byte checkpoint)",
        total / 2,
        bytes.len(),
    );

    println!(
        "ci_smoke OK: schedulers, redteam grid, scenario file, telemetry dump, serve stream \
         and checkpoint restore bit-identical"
    );
}
