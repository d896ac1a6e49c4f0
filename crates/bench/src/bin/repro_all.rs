//! Regenerates every table and figure of the paper in one run.
//!
//! ```bash
//! cargo run --release -p mint-bench --bin repro_all > results.txt
//! ```
//!
//! Each experiment fans its sweep points / Monte-Carlo trials out through
//! `mint_exp::par_map`. Worker count defaults to
//! `available_parallelism`; pin it with `--jobs N` (also `-j N`) or the
//! `MINT_JOBS` environment variable — results are identical either way:
//!
//! ```bash
//! cargo run --release -p mint-bench --bin repro_all -- --jobs 2
//! MINT_JOBS=1 cargo run --release -p mint-bench --bin repro_all
//! ```

fn main() {
    mint_exp::cli::parse();
    type Render = fn() -> String;
    let experiments: Vec<(&str, Render)> = vec![
        ("table1", mint_bench::params::table1 as Render),
        ("table2", mint_bench::params::table2),
        ("fig3", mint_bench::security::fig3),
        ("fig5", mint_bench::security::fig5),
        ("fig6", mint_bench::security::fig6),
        ("fig10", mint_bench::security::fig10),
        ("fig11", mint_bench::security::fig11),
        ("table3", mint_bench::security::table3),
        ("table4", mint_bench::security::table4),
        ("table5", mint_bench::security::table5),
        ("table6", mint_bench::params::table6),
        ("fig16", mint_bench::perf::fig16),
        ("table7", mint_bench::security::table7),
        ("table8", mint_bench::perf::table8),
        ("fig17", mint_bench::perf::fig17),
        ("table9", mint_bench::security::table9),
        ("tracker_zoo", mint_bench::perf::tracker_zoo),
        ("redteam", mint_bench::redteam::redteam),
        ("fig18", mint_bench::security::fig18),
        ("fig21", mint_bench::security::fig21),
    ];
    let count = experiments.len();
    for (name, run) in experiments {
        eprintln!("[repro_all] running {name} ...");
        println!("{}\n", run());
    }
    eprintln!("[repro_all] done: {count} experiments regenerated");
}
