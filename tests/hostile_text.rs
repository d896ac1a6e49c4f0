//! Property tests: hostile text never panics.
//!
//! Mutated scenario text goes through `parse_any` → `to_sim` → `build`
//! and, capped at 5 requests per core on at most 8 channels × ranks,
//! through `run`. Mutated envelope lines go through
//! `Envelope::parse_line`. Every input must answer `Err` or a result.
//!
//! Cases are generated by the deterministic `mint_exp::prop` driver — case
//! `i` of a suite replays from `derive_seed(suite_seed, i)`.

use mint_rh::exp::prop::{forall, usize_in};
use mint_rh::memsys::{parse_any, Scenario, ScenarioFrontend, SystemConfig};
use mint_rh::rng::Rng64;
use mint_rh::serve::wire::Envelope;

/// Well-formed cells and grids that between them set every key.
const SPECS: &[&str] = &[
    "scheme = mint\nworkload = mcf\nrequests = 3\nseed = 9",
    "scheme = MINT+RFM16\nworkload = mix2\nrequests = 4\npolicy = FCFS\nmapping = ChRaBaRoCo",
    "scheme = mc-para(1/40)\nworkload = mcf+lbm+gcc+bwaves\nrequests = 2\ntelemetry = on",
    "scheme = prct\nworkload = saturate\ncores = 8\nchannels = 2\nranks = 2\nrequests = 5",
    "scheme = graphene\nworkload = lbm\nchannels = 4\nrequests = 1\nseed = 18446744073709551615",
    "schemes = Baseline MINT MINT+RFM32\nworkloads = mcf lbm\nrequests = 3\nseed_base = 5",
    "schemes = zoo\nworkloads = mix1\nrequests = 1\nseeds = 7\npolicy = FR-FCFS(cap4)",
    "schemes = mithril protrr trr pride parfm\nworkloads = saturate\ncores = 2\nranks = 4\nrequests = 2\nmapping = RoCoRaBaCh",
];

/// The settings a mutation writes: a key and the `|`-separated values it
/// picks from, at, inside and past every limit.
const VALUES: &[&str] = &[
    "scheme = MINT+RFM4294967295|MINT+RFM4294967294|MINT+RFM1|MINT+RFM0|prct",
    "scheme = mc-para(1/0)|mc-para(1/1)|mc-para(1/inf)|mc-para(1/NaN)",
    "schemes = zoo|MINT+RFM4294967294 mc-para(1/1)|Baseline mc-para(1/0)",
    "workload = mix0|mix1|mix17|mix18|mcf+lbm|mcf+|saturate",
    "workloads = mix0|mix17 saturate|mcf+lbm+gcc+bwaves lbm",
    "cores = 0|1|2|4|1024|1025|4294967296",
    "channels = 0|1|2|3|8|64|128",
    "ranks = 0|1|2|3|8|16|32",
    "requests = 0|1|4294967295|4294967296",
    "seed = 0|18446744073709551615|-1",
    "seed_base = 18446744073709551615|18446744073709551616",
    "seeds = 1|1 2|1 2 3",
    "policy = FCFS|fr-fcfs(cap0)|fr-fcfs(cap1)",
    "mapping = ChRaBaRoCo|robaracoch|RoBa",
    "telemetry = on|maybe",
];

/// The keys of [`VALUES`] only a cell takes.
const CELL_KEYS: &[&str] = &["scheme", "workload", "seed"];
/// The keys of [`VALUES`] only a grid takes.
const GRID_KEYS: &[&str] = &["schemes", "workloads", "seed_base", "seeds"];

/// Bytes a mutation inserts anywhere in scenario text.
const SPEC_SYNTAX: &[&str] = &["=", "#", "\n", " = ", "+", "\u{0}", "\u{fffd}"];

/// Whitespace-separated tokens a mutation inserts into an envelope line:
/// JSON syntax, escapes, numbers past `u64` and fields of the wrong type.
const ENVELOPE_TOKENS: &str = r#"{ } [ ] " \ , : \u0000 \ud800 \udc00 \u00 true -0 1e
    [[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[ "v":2 "v":1 "op":"cancel" "op":"stats" "id":-1
    "id":18446744073709551616 "id":1.5 "timeout_ms":1e400 "seed_base":null "spec":[]"#;

/// A uniformly chosen element of `items`.
fn pick<'a>(rng: &mut impl Rng64, items: &[&'a str]) -> &'a str {
    items[usize_in(rng, 0, items.len())]
}

/// One byte-level mutation: a bit flip, a deleted byte or an inserted
/// token.
fn mutate_bytes(rng: &mut impl Rng64, bytes: &mut Vec<u8>, tokens: &[&str]) {
    let at = usize_in(rng, 0, bytes.len() + 1);
    match rng.gen_range_u32(3) {
        0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range_u32(8),
        1 if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => {
            bytes.splice(at..at, pick(rng, tokens).bytes());
        }
    }
}

/// One of [`SPECS`] under one to three mutations. Most set a key of
/// [`VALUES`] that the text's kind (cell or grid) takes, on its own line
/// or a new one; the rest mutate a byte. Broken UTF-8 is replaced, as a
/// reader decoding the bytes would.
fn mutated_spec(rng: &mut impl Rng64) -> String {
    let mut text = pick(rng, SPECS).to_owned();
    let foreign = if text.starts_with("schemes") {
        CELL_KEYS
    } else {
        GRID_KEYS
    };
    let values: Vec<(&str, &str)> = VALUES
        .iter()
        .filter_map(|v| v.split_once(" = "))
        .filter(|(key, _)| !foreign.contains(key))
        .collect();
    for _ in 0..usize_in(rng, 1, 4) {
        if rng.gen_range_u32(4) == 0 {
            let mut bytes = text.into_bytes();
            mutate_bytes(rng, &mut bytes, SPEC_SYNTAX);
            text = String::from_utf8_lossy(&bytes).into_owned();
            continue;
        }
        let (key, choices) = values[usize_in(rng, 0, values.len())];
        let choices: Vec<&str> = choices.split('|').collect();
        let line = format!("{key} = {}", pick(rng, &choices));
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let same_key = |l: &&mut String| l.split_once('=').is_some_and(|(k, _)| k.trim() == key);
        match lines.iter_mut().find(same_key) {
            Some(old) => *old = line,
            None => lines.push(line),
        }
        text = lines.join("\n");
    }
    text
}

#[test]
fn mutated_scenario_text_never_panics() {
    let small = |channels: u32, ranks: u32| u64::from(channels) * u64::from(ranks) <= 8;
    let cfg = SystemConfig::table6();
    forall(2_500, 0x4057_11E5, |_case, rng| {
        match parse_any(&mutated_spec(rng)) {
            Err(_) => {}
            // A trace names a host file; the service refuses it unread,
            // and no case here reads one either.
            Ok(Scenario::Cell(spec)) if matches!(spec.frontend, ScenarioFrontend::Trace(_)) => {}
            Ok(Scenario::Cell(mut spec)) => {
                let Ok(sim) = spec.to_sim(cfg) else {
                    return;
                };
                drop(sim.build());
                let (channels, ranks) = (spec.channels, spec.ranks);
                if small(channels.unwrap_or(cfg.channels), ranks.unwrap_or(cfg.ranks)) {
                    spec.requests_per_core = spec.requests_per_core.min(5);
                    let _ = spec.to_sim(cfg).expect("the spec built above").run();
                }
            }
            Ok(Scenario::Grid(mut grid)) => {
                if small(grid.cfg.channels, grid.cfg.ranks) {
                    grid.requests_per_core = grid.requests_per_core.min(5);
                    let _ = grid.run();
                }
            }
        }
    });
}

#[test]
fn mutated_envelope_lines_never_panic() {
    let tokens: Vec<&str> = ENVELOPE_TOKENS.split_whitespace().collect();
    let bases: Vec<&str> = include_str!("../examples/scenarios/hostile.jsonl")
        .lines()
        .chain(include_str!("../examples/scenarios/service_demo.jsonl").lines())
        .collect();
    forall(100_000, 0xE4E1_0FE5, |_case, rng| {
        let mut bytes = pick(rng, &bases).as_bytes().to_vec();
        for _ in 0..usize_in(rng, 1, 5) {
            mutate_bytes(rng, &mut bytes, &tokens);
        }
        let _ = Envelope::parse_line(&String::from_utf8_lossy(&bytes));
    });
}
