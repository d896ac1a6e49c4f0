//! Ablation studies for the design choices worth isolating: DMQ depth,
//! the transitive slot, blast-radius-2 as a (non-)fix for Half-Double,
//! Mithril entry count, and the PrIDE FIFO.

use crate::titled;
use mint_analysis::textable::TexTable;
use mint_attacks::{HalfDouble, PostponementDecoy};
use mint_core::{Dmq, InDramTracker, Mint, MintConfig};
use mint_dram::{RefreshPolicy, RowId};
use mint_exp::par_map;
use mint_rng::Xoshiro256StarStar;
use mint_sim::{Engine, SimConfig};
use mint_trackers::{Mithril, MithrilConfig, Pride};

/// DMQ depth ablation: the §VI-B decoy attack under maximum postponement
/// against MINT+DMQ with FIFO depths 1..=4. DDR5 postpones up to four REFs,
/// so shallower FIFOs drop pseudo-mitigations (overflow) and leak
/// unmitigated activations.
#[must_use]
pub fn dmq_depth() -> String {
    let mut tab = TexTable::new(vec![
        "DMQ depth",
        "Max unmitigated hammers",
        "Overflow drops",
    ]);
    let depths: Vec<usize> = (1..=4).collect();
    for cells in par_map(&depths, |_, &depth| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7000 + depth as u64);
        let inner = Mint::new(MintConfig::ddr5_default(), &mut rng);
        let mut tracker = Dmq::with_depth(inner, 73, depth);
        let mut attack = PostponementDecoy::new(RowId(10_000), RowId(50_000), 73, 5);
        let cfg = SimConfig::small().with_policy(RefreshPolicy::ddr5_max_postpone());
        let report = Engine::new(cfg).run(&mut tracker, &mut attack, &mut rng);
        vec![
            depth.to_string(),
            report.max_hammers.to_string(),
            tracker.overflow_drops().to_string(),
        ]
    }) {
        tab.row(cells);
    }
    titled(
        "Ablation: DMQ depth under max postponement (DDR5 needs 4)",
        &tab.to_text(),
    )
}

/// Transitive-slot ablation: Half-Double against MINT with and without the
/// SAN = 0 slot, and with a blast-radius-2 device instead — reproducing the
/// §V-E claim that refreshing two rows on either side does *not* mitigate
/// transitive attacks (the third row fails instead).
#[must_use]
pub fn transitive_slot() -> String {
    let mut tab = TexTable::new(vec!["Configuration", "Max unmitigated hammers"]);
    let run = |cfg_t: MintConfig, blast: u32, seed: u64| -> u32 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut tracker = Mint::new(cfg_t, &mut rng);
        let mut attack = HalfDouble::new(RowId(10_000));
        let cfg = SimConfig {
            blast_radius: blast,
            ..SimConfig::small()
        };
        Engine::new(cfg)
            .run(&mut tracker, &mut attack, &mut rng)
            .max_hammers
    };
    let configs: Vec<(&str, MintConfig, u32, u64)> = vec![
        (
            "MINT, transitive slot (paper design)",
            MintConfig::ddr5_default(),
            1,
            1,
        ),
        (
            "MINT, no transitive slot",
            MintConfig::ddr5_default().without_transitive(),
            1,
            2,
        ),
        (
            "MINT, no transitive slot, blast radius 2",
            MintConfig::ddr5_default().without_transitive(),
            2,
            3,
        ),
    ];
    for cells in par_map(&configs, |_, &(label, cfg_t, blast, seed)| {
        vec![label.into(), run(cfg_t, blast, seed).to_string()]
    }) {
        tab.row(cells);
    }
    titled(
        "Ablation: Half-Double vs the transitive slot (blast-2 does not fix it, SS V-E)",
        &tab.to_text(),
    )
}

/// Mithril entry-count stress: our behavioural Counter-based-Summary
/// implementation against a rotating multi-row attack sized to its table.
/// More entries → tighter bound (the Table III trade-off, measured).
#[must_use]
pub fn mithril_entries() -> String {
    let mut tab = TexTable::new(vec!["Entries", "Attack rows", "Max unmitigated hammers"]);
    let entry_counts = [32usize, 64, 128, 256, 677];
    for cells in par_map(&entry_counts, |_, &entries| {
        let attack_rows = (entries * 2) as u32; // overflow the table 2:1
        let mut rng = Xoshiro256StarStar::seed_from_u64(8000 + entries as u64);
        let mut tracker = Mithril::new(MithrilConfig { entries });
        let mut attack = mint_attacks::ManySided::new(RowId(10_000), attack_rows);
        let report = Engine::new(SimConfig::small()).run(&mut tracker, &mut attack, &mut rng);
        vec![
            entries.to_string(),
            attack_rows.to_string(),
            report.max_hammers.to_string(),
        ]
    }) {
        tab.row(cells);
    }
    titled(
        "Ablation: Mithril counter-based summary vs entry count (2:1 row overflow)",
        &tab.to_text(),
    )
}

/// PrIDE FIFO-depth ablation (§IX): sample-loss rate vs FIFO depth under
/// fully loaded windows. Paper: ~10% loss with the 4-entry FIFO (its
/// single-register figure of 63% counts overwrite losses of the PARA
/// register, i.e. `1 − E[survival] ≈ 0.37` survive; our drop-on-full
/// accounting measures the complementary 37% at depth 1 — the depth-4
/// point, which is PrIDE's actual design, matches).
#[must_use]
pub fn pride_fifo() -> String {
    let mut tab = TexTable::new(vec!["FIFO depth", "Loss rate", "Paper"]);
    let points = [
        (1usize, "63% (overwrite acct.)"),
        (2, "-"),
        (4, "~10%"),
        (8, "-"),
    ];
    for cells in par_map(&points, |_, &(depth, paper)| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9000 + depth as u64);
        let mut pride = Pride::new(1.0 / 73.0, depth);
        let mut sampled = 0u64;
        for _ in 0..50_000 {
            for k in 0..73u32 {
                let before = pride.queued();
                pride.on_activation(RowId(1000 + k), &mut rng);
                if pride.queued() > before {
                    sampled += 1;
                }
            }
            let _ = pride.on_refresh(&mut rng);
        }
        let total = sampled + pride.lost();
        let loss = pride.lost() as f64 / total as f64;
        vec![
            depth.to_string(),
            format!("{:.1}%", loss * 100.0),
            paper.into(),
        ]
    }) {
        tab.row(cells);
    }
    titled(
        "Ablation: PrIDE FIFO depth vs sample-loss rate (SS IX)",
        &tab.to_text(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dmq_depth_monotone() {
        let s = dmq_depth();
        // Extract the hammer column and check depth 4 ≤ depth 1.
        let vals: Vec<u64> = s
            .lines()
            .skip(3)
            .filter_map(|l| {
                let mut it = l.split_whitespace();
                let _depth = it.next()?;
                it.next()?.parse().ok()
            })
            .collect();
        assert_eq!(vals.len(), 4);
        assert!(
            vals[3] <= vals[0],
            "deeper FIFO must not be worse: {vals:?}"
        );
    }

    #[test]
    fn transitive_ablation_shows_blast2_fails() {
        let s = transitive_slot();
        let vals: Vec<u32> = s
            .lines()
            .filter_map(|l| l.split_whitespace().last()?.parse().ok())
            .collect();
        assert_eq!(vals.len(), 3);
        // Paper design bounded; both ablations leak thousands.
        assert!(vals[0] < 2500, "{vals:?}");
        assert!(vals[1] > 5000, "{vals:?}");
        assert!(vals[2] > 5000, "blast-2 must NOT fix half-double: {vals:?}");
    }

    #[test]
    fn pride_loss_shrinks_with_depth() {
        let s = pride_fifo();
        let rates: Vec<f64> = s
            .lines()
            .filter_map(|l| {
                let c: Vec<&str> = l.split_whitespace().collect();
                if c.len() >= 2 && c[1].ends_with('%') {
                    c[1].trim_end_matches('%').parse().ok()
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(rates.len(), 4);
        assert!(rates[0] > 30.0, "depth-1 drop-on-full loss ≈37%: {rates:?}");
        assert!(rates[2] < 15.0, "depth-4 loss ≈10%: {rates:?}");
        assert!(rates.windows(2).all(|w| w[0] >= w[1] - 0.5), "{rates:?}");
    }
}
