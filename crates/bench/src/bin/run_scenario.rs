//! Runs a declarative scenario file end-to-end: a single `ScenarioSpec`
//! cell or a `schemes × workloads` `ScenarioGrid`, straight through the
//! `Sim` builder (grids fan out through `mint_exp::par_map`, bit-identical
//! for any `--jobs` count).
//!
//! ```bash
//! cargo run --release -p mint-bench --bin run_scenario -- examples/scenarios/zoo_small.scn
//! cargo run --release -p mint-bench --bin run_scenario -- cell.scn --jobs 2 --out report.json
//! ```
//!
//! The file format is documented on `mint_memsys::ScenarioSpec` /
//! `ScenarioGrid` (and in the README); `examples/scenarios/` ships
//! ready-to-run samples. A machine-readable JSON report is written next
//! to the printed table (`SCENARIO_report.json`, redirect with `--out`).
//!
//! With `--serve` the binary becomes a resident scenario service
//! instead: JSON-lines envelopes stream in on stdin (or a unix socket
//! given with `--socket PATH`) and one result line streams out per job,
//! in submission order — see the `mint-serve` crate and the README's
//! "Scenario service" section for the wire format.
//!
//! ```bash
//! cargo run --release -p mint-bench --bin run_scenario -- --serve < jobs.jsonl
//! cargo run --release -p mint-bench --bin run_scenario -- --serve --socket /tmp/mint.sock
//! ```

use mint_analysis::textable::TexTable;
use mint_memsys::{parse_any, RunReport, Scenario, ScenarioGrid};
use mint_serve::Service;

fn main() {
    let cli = mint_exp::cli::parse();
    // `--serve` / `--socket` are free arguments as far as the shared
    // cli parser is concerned; the `--jobs` override is already
    // installed process-wide, so Service::new() sizes its pool from it.
    if cli.free.iter().any(|arg| arg == "--serve") {
        serve(&cli);
        return;
    }
    let telemetry_flag = cli.free.iter().any(|arg| arg == "--telemetry");
    let Some(path) = cli.free.iter().find(|arg| !arg.starts_with("--")) else {
        eprintln!(
            "usage: run_scenario <FILE.scn> [--jobs N] [--out PATH] [--telemetry]\n       \
             run_scenario --serve [--socket PATH] [--jobs N]"
        );
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let scenario = parse_any(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    let json = match scenario {
        Scenario::Cell(mut spec) => {
            spec.telemetry |= telemetry_flag;
            let report = spec.run().unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            });
            print_cell(&spec.scheme.label(), &report);
            if let Some(t) = &report.telemetry {
                cli.write_aux_artifact("SCENARIO_telemetry.json", &t.to_json());
                cli.write_aux_artifact("SCENARIO_telemetry.csv", &t.to_csv());
            }
            cell_json(&spec.scheme.label(), &report)
        }
        Scenario::Grid(mut grid) => {
            grid.telemetry |= telemetry_flag;
            // The telemetry path runs the same deterministic grid and
            // derives the identical normalized rows from the full
            // reports, so `SCENARIO_report.json` stays byte-for-byte
            // what the non-telemetry path writes.
            let rows = if grid.telemetry {
                let reports = grid.run_reports();
                cli.write_aux_artifact(
                    "SCENARIO_telemetry.json",
                    &grid_telemetry_json(&grid, &reports),
                );
                cli.write_aux_artifact(
                    "SCENARIO_telemetry.csv",
                    &grid_telemetry_csv(&grid, &reports),
                );
                normalize_rows(&reports)
            } else {
                grid.run()
            };
            print_grid(&grid, &rows);
            grid_json(&grid, &rows)
        }
    };
    cli.write_artifact("SCENARIO_report.json", &json);
}

/// The per-workload normalization `ScenarioGrid::run` applies, derived
/// from full reports instead of bare perf cells.
fn normalize_rows(reports: &[Vec<RunReport>]) -> Vec<Vec<mint_memsys::NormalizedPerf>> {
    reports
        .iter()
        .map(|row| {
            let base = row[0].perf;
            row.iter().map(|r| r.perf.normalize(&base)).collect()
        })
        .collect()
}

/// One JSON object per grid cell, each embedding its telemetry report.
fn grid_telemetry_json(grid: &ScenarioGrid, reports: &[Vec<RunReport>]) -> String {
    let mut out = String::from("{\n  \"source\": \"run_scenario\",\n  \"cells\": [\n");
    let mut cells = Vec::new();
    for (label, row) in grid.workload_labels.iter().zip(reports) {
        for (scheme, report) in grid.schemes.iter().zip(row) {
            let telemetry = report
                .telemetry
                .as_ref()
                .map_or_else(|| "null".to_owned(), mint_memsys::TelemetryReport::to_json);
            cells.push(format!(
                "    {{\"workload\": \"{}\", \"scheme\": \"{}\", \"telemetry\": {}}}",
                label,
                scheme.label(),
                telemetry.trim_end(),
            ));
        }
    }
    out.push_str(&cells.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The per-cell CSV rows, prefixed with `workload,scheme` columns.
fn grid_telemetry_csv(grid: &ScenarioGrid, reports: &[Vec<RunReport>]) -> String {
    let mut out = String::from("workload,scheme,section,kind,metric,field,value\n");
    for (label, row) in grid.workload_labels.iter().zip(reports) {
        for (scheme, report) in grid.schemes.iter().zip(row) {
            let Some(t) = &report.telemetry else { continue };
            for line in t.to_csv().lines().skip(1) {
                out.push_str(&format!("{label},{},{line}\n", scheme.label()));
            }
        }
    }
    out
}

fn serve(cli: &mint_exp::cli::Cli) {
    let service = Service::new();
    let socket = cli.free.iter().position(|arg| arg == "--socket").map(|i| {
        cli.free.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: --socket requires a path");
            std::process::exit(2);
        })
    });
    let served = match socket {
        Some(path) => service.serve_unix(std::path::Path::new(&path)),
        None => {
            let stdin = std::io::stdin();
            // StdoutLock is not Send; Stdout itself is, and only the
            // emitter thread ever writes.
            service.serve(stdin.lock(), std::io::stdout()).map(|_| ())
        }
    };
    if let Err(e) = served {
        eprintln!("serve: {e}");
        std::process::exit(1);
    }
}

fn print_cell(scheme: &str, report: &RunReport) {
    let mut tab = TexTable::new(vec![
        "Scheme",
        "Duration (ms)",
        "Requests",
        "Row-hit rate",
        "Mitig ACTs",
        "RFM/DRFM",
        "Energy (mJ)",
    ]);
    let r = &report.perf.result;
    tab.row(vec![
        scheme.to_owned(),
        format!("{:.3}", report.perf.duration_ps as f64 / 1e9),
        r.requests.to_string(),
        format!("{:.4}", r.row_hit_rate()),
        r.mitigative_acts.to_string(),
        format!("{}/{}", r.rfm_commands, r.drfm_commands),
        format!("{:.3}", report.energy.total_j() * 1e3),
    ]);
    println!("{}", tab.to_text());
    for (i, c) in report.cores.iter().enumerate() {
        println!(
            "  core {i}: {} requests, finished at {:.3} ms",
            c.requests,
            c.finish_ps as f64 / 1e9
        );
    }
}

fn print_grid(grid: &ScenarioGrid, rows: &[Vec<mint_memsys::NormalizedPerf>]) {
    let mut header = vec!["Workload".to_owned()];
    header.extend(grid.schemes.iter().map(|s| s.label()));
    let mut tab = TexTable::new(header);
    for (label, row) in grid.workload_labels.iter().zip(rows) {
        let mut cells = vec![label.clone()];
        cells.extend(row.iter().map(|c| format!("{:.4}", c.normalized)));
        tab.row(cells);
    }
    println!(
        "scenario grid: {} workloads x {} schemes at {} requests/core (normalized to {})",
        grid.workloads.len(),
        grid.schemes.len(),
        grid.requests_per_core,
        grid.schemes[0].label(),
    );
    println!("{}", tab.to_text());
}

fn cell_json(scheme: &str, report: &RunReport) -> String {
    let r = &report.perf.result;
    format!(
        "{{\n  \"source\": \"run_scenario\",\n  \"scheme\": \"{}\",\n  \
         \"duration_ps\": {},\n  \"requests\": {},\n  \"row_hit_rate\": {:.6},\n  \
         \"mitigative_acts\": {},\n  \"energy_j\": {:.9}\n}}\n",
        scheme,
        report.perf.duration_ps,
        r.requests,
        r.row_hit_rate(),
        r.mitigative_acts,
        report.energy.total_j(),
    )
}

fn grid_json(grid: &ScenarioGrid, rows: &[Vec<mint_memsys::NormalizedPerf>]) -> String {
    let mut out = String::from("{\n  \"source\": \"run_scenario\",\n");
    out.push_str(&format!(
        "  \"requests_per_core\": {},\n",
        grid.requests_per_core
    ));
    out.push_str(&format!(
        "  \"schemes\": [{}],\n",
        grid.schemes
            .iter()
            .map(|s| format!("\"{}\"", s.label()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"rows\": [\n");
    let rendered: Vec<String> = grid
        .workload_labels
        .iter()
        .zip(rows)
        .map(|(label, row)| {
            format!(
                "    {{\"workload\": \"{}\", \"normalized\": [{}], \"duration_ps\": [{}]}}",
                label,
                row.iter()
                    .map(|c| format!("{:.6}", c.normalized))
                    .collect::<Vec<_>>()
                    .join(", "),
                row.iter()
                    .map(|c| c.duration_ps.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
            )
        })
        .collect();
    out.push_str(&rendered.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
