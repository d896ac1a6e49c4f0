//! Micro-benchmarks for the disturbance model's two callers: full-tREFW
//! attack runs and a Monte-Carlo failure estimate on the slot engine, and
//! the red-team oracle replaying a channel's event stream. Timed with the
//! dependency-free `mint_exp::stopwatch`.

use mint_attacks::{AccessPattern, Pattern1, Pattern2, SingleSided};
use mint_core::{Mint, MintConfig};
use mint_dram::RowId;
use mint_exp::stopwatch::{black_box, Runner};
use mint_memsys::{ChannelObserver, MemEvent, SystemConfig};
use mint_redteam::GroundTruthOracle;
use mint_rng::Xoshiro256StarStar;
use mint_sim::{estimate_failure_prob, Engine, SimConfig};

/// MaxACT: demand activations per tREFI.
const MAX_ACT: u32 = 73;

/// A quarter tREFW (2,048 tREFI) of pattern-2 at `k = MaxACT` on `bank`,
/// as the channel reports it: a PRE after every ACT, one REF per 73 ACTs,
/// and after each REF two victim refreshes, of the neighbours of one
/// aggressor (rotating through the pattern). The oracle ignores times, so
/// every event carries 0.
fn pattern2_quarter_refw(bank: u32) -> Vec<MemEvent> {
    let mut pattern = Pattern2::new(RowId(4000), MAX_ACT, MAX_ACT);
    let mut events = Vec::new();
    for refi in 0..2048u64 {
        let rows: Vec<u32> = (0..MAX_ACT)
            .map(|slot| {
                pattern
                    .next_act(refi, slot)
                    .expect("k = MaxACT fills every slot")
                    .0
            })
            .collect();
        for &row in &rows {
            events.push(MemEvent::Act {
                bank,
                row,
                at_ps: 0,
            });
            events.push(MemEvent::Pre { bank, at_ps: 0 });
        }
        events.push(MemEvent::Ref {
            bank,
            ref_index: refi + 1,
            at_ps: 0,
        });
        let aggressor = rows[(refi % u64::from(MAX_ACT)) as usize];
        for row in [aggressor - 1, aggressor + 1] {
            events.push(MemEvent::MitigativeRefresh {
                bank,
                row,
                at_ps: 0,
            });
        }
    }
    events
}

fn main() {
    let mut runner = Runner::new("sim_engine");

    runner.bench("mint_single_sided_one_refw", || {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let mut t = Mint::new(MintConfig::ddr5_default(), &mut rng);
        let mut p = SingleSided::new(RowId(1000));
        let mut e = Engine::new(SimConfig::small());
        black_box(e.run(&mut t, &mut p, &mut rng));
    });

    runner.bench("mint_pattern2_one_refw", || {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let mut t = Mint::new(MintConfig::ddr5_default(), &mut rng);
        let mut p = Pattern2::new(RowId(1000), 73, 73);
        let mut e = Engine::new(SimConfig::small());
        black_box(e.run(&mut t, &mut p, &mut rng));
    });

    // 32 one-tREFW trials on a 4,096-row bank: each trial builds its own
    // tracker, pattern and `Bank`, so the per-trial set-up is timed too.
    runner.bench("estimate_failure_prob_32_trials_4k_rows", || {
        let cfg = SimConfig {
            bank_rows: 4096,
            ..SimConfig::small()
        }
        .with_trh(600);
        black_box(estimate_failure_prob(
            cfg,
            32,
            777,
            &|r| Box::new(Mint::new(MintConfig::ddr5_default(), r)),
            &|| Box::new(Pattern1::new(RowId(2000))),
        ));
    });

    let cfg = SystemConfig::table6();
    let events = pattern2_quarter_refw(5);
    runner.bench(
        &format!("oracle_pattern2_quarter_refw_{}_events", events.len()),
        || {
            let mut oracle = GroundTruthOracle::new(&cfg, 5);
            for event in &events {
                oracle.on_event(event);
            }
            black_box(oracle.summary());
        },
    );
}
