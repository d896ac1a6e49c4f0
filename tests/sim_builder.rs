//! The declarative `ScenarioSpec`/`ScenarioGrid` layer deserializes into
//! the same runs as the `Sim` builder chain it describes, and the
//! checked-in scenario files parse and run as the grid/cell they claim
//! to be.

use mint_rh::memsys::{
    parse_any, read_trace_file, workload_by_name, MitigationScheme, Scenario, ScenarioSpec,
    SchedulePolicy, Sim,
};

const SAMPLE: &str = "examples/traces/sample100.trace";

#[test]
fn scenario_spec_deserializes_into_the_same_run() {
    // A declarative cell is the same run as the builder chain it
    // describes — including a trace frontend on the checked-in sample.
    let spec = ScenarioSpec::parse(
        "scheme = MINT+RFM16\nworkload = mcf\nrequests = 2000\nseed = 31\npolicy = fcfs\n",
    )
    .unwrap();
    let from_spec = spec.run().unwrap();
    let mcf = workload_by_name("mcf").unwrap();
    let direct = Sim::ddr5()
        .scheme(MitigationScheme::MintRfm { rfm_th: 16 })
        .policy(SchedulePolicy::Fcfs)
        .workload(&[mcf; 4], 2_000)
        .seed(31)
        .run();
    assert_eq!(from_spec, direct);

    let trace_spec =
        ScenarioSpec::parse(&format!("scheme = MINT\ntrace = {SAMPLE}\nseed = 42\n")).unwrap();
    let from_spec = trace_spec.run().unwrap();
    let entries = read_trace_file(SAMPLE).unwrap();
    let direct = Sim::ddr5()
        .scheme(MitigationScheme::Mint)
        .trace(&entries)
        .seed(42)
        .run();
    assert_eq!(from_spec, direct);
}

#[test]
fn checked_in_scenario_file_runs_as_a_grid() {
    let text = std::fs::read_to_string("examples/scenarios/zoo_small.scn").unwrap();
    let Scenario::Grid(grid) = parse_any(&text).unwrap() else {
        panic!("zoo_small.scn must parse as a grid");
    };
    assert_eq!(grid.schemes.len(), 3);
    assert_eq!(grid.workload_labels, vec!["lbm", "mcf"]);
    let rows = grid.run();
    assert_eq!(rows.len(), 2);
    assert!((rows[0][0].normalized - 1.0).abs() < 1e-12, "baseline row");
    // MINT rides REF time: identical timeline to Baseline on every row.
    for row in &rows {
        assert_eq!(row[0].duration_ps, row[1].duration_ps);
    }

    let cell = std::fs::read_to_string("examples/scenarios/trace_mint.scn").unwrap();
    let Scenario::Cell(spec) = parse_any(&cell).unwrap() else {
        panic!("trace_mint.scn must parse as a single cell");
    };
    let report = spec.run().unwrap();
    assert_eq!(report.perf.result.requests, 100);
}
