//! Micro-benchmarks: per-tREFI cost of every tracker (73 activations +
//! one refresh decision), in three regimes. Timed with the
//! dependency-free `mint_exp::stopwatch`.
//!
//! * `tracker_per_trefi` — a hot set: the same 73 rows every tREFI, so
//!   no table ever fills and the table trackers time their hit path.
//! * `tracker_per_trefi_full_table` — the table trackers on rows striding
//!   over 4,096, so their tables fill and churn: Mithril replaces its
//!   minimum, ProTRR and Graphene spill, PRCT tracks thousands of rows.
//! * `tracker_per_trefi_fresh_rows` — PRCT on rows it has never seen, at
//!   about 1K, 8K and 64K tracked rows: the table grows by 72 rows per
//!   tREFI, and a copy of its starting table replaces it once it has
//!   doubled. A per-REF cost that grows with the table shows here.

use mint_core::{Dmq, InDramTracker, Mint, MintConfig};
use mint_dram::RowId;
use mint_exp::stopwatch::{black_box, Runner};
use mint_rng::Xoshiro256StarStar;
use mint_trackers::{
    Graphene, GrapheneConfig, InDramPara, InDramParaNoOverwrite, Mithril, MithrilConfig, Parfm,
    Prct, Pride, ProTrr, ProTrrConfig, SimpleTrr,
};

/// Rows the full-table regime cycles through, and the stride it visits
/// them with (odd, so one cycle touches every row).
const CHURN_ROWS: u32 = 4096;
const CHURN_STRIDE: u32 = 677;

/// The fresh-row regime's starting table sizes.
const FRESH_ROWS: [(&str, u32); 3] = [
    ("PRCT-1K", 1 << 10),
    ("PRCT-8K", 1 << 13),
    ("PRCT-64K", 1 << 16),
];

fn hot_trefi(tracker: &mut dyn InDramTracker, rng: &mut Xoshiro256StarStar) {
    for k in 0..73u32 {
        let _ = tracker.on_activation(RowId(1000 + k), rng);
    }
    black_box(tracker.on_refresh(rng));
}

fn churn_trefi(tracker: &mut dyn InDramTracker, rng: &mut Xoshiro256StarStar, next: &mut u32) {
    for _ in 0..73 {
        *next = (*next + CHURN_STRIDE) % CHURN_ROWS;
        let _ = tracker.on_activation(RowId(*next), rng);
    }
    black_box(tracker.on_refresh(rng));
}

/// One tREFI of activations on rows never seen before; `next` is the
/// next fresh row.
fn fresh_trefi(prct: &mut Prct, rng: &mut Xoshiro256StarStar, next: &mut u32) {
    for _ in 0..73 {
        let _ = prct.on_activation(RowId(*next), rng);
        *next += 1;
    }
    black_box(prct.on_refresh(rng));
}

/// Graphene at the zoo's sizing: threshold 1,400 over one tREFW of
/// MaxACT activations.
fn graphene() -> Graphene {
    Graphene::new(GrapheneConfig::for_threshold(1400, 73 * 8192))
}

fn main() {
    let mut runner = Runner::new("tracker_per_trefi");
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);

    let mut mint = Mint::new(MintConfig::ddr5_default(), &mut rng);
    let mut dmq = Dmq::new(Mint::new(MintConfig::ddr5_default(), &mut rng), 73);
    let mut para = InDramPara::new(1.0 / 73.0);
    let mut para_no = InDramParaNoOverwrite::new(1.0 / 73.0);
    let mut parfm = Parfm::new(73);
    let mut prct = Prct::new(128 * 1024);
    let mut mithril = Mithril::new(MithrilConfig::table3());
    let mut protrr = ProTrr::new(ProTrrConfig::default());
    let mut trr = SimpleTrr::new(16);
    let mut pride = Pride::new(1.0 / 73.0, 4);
    let mut graphene_hot = graphene();

    let mut cases: Vec<(&str, &mut dyn InDramTracker)> = vec![
        ("MINT", &mut mint),
        ("MINT+DMQ", &mut dmq),
        ("InDRAM-PARA", &mut para),
        ("InDRAM-PARA-NoOverwrite", &mut para_no),
        ("PARFM", &mut parfm),
        ("PRCT", &mut prct),
        ("Mithril-677", &mut mithril),
        ("ProTRR-677", &mut protrr),
        ("TRR-16", &mut trr),
        ("PrIDE", &mut pride),
        ("Graphene", &mut graphene_hot),
    ];
    for (name, tracker) in &mut cases {
        runner.bench(name, || hot_trefi(&mut **tracker, &mut rng));
    }

    let mut runner = Runner::new("tracker_per_trefi_full_table");
    let mut prct = Prct::new(128 * 1024);
    let mut mithril = Mithril::new(MithrilConfig::table3());
    let mut protrr = ProTrr::new(ProTrrConfig::default());
    let mut graphene = graphene();
    let mut cases: Vec<(&str, &mut dyn InDramTracker)> = vec![
        ("PRCT", &mut prct),
        ("Mithril-677", &mut mithril),
        ("ProTRR-677", &mut protrr),
        ("Graphene", &mut graphene),
    ];
    for (name, tracker) in &mut cases {
        let mut next = 0;
        runner.bench(name, || churn_trefi(&mut **tracker, &mut rng, &mut next));
    }

    let mut runner = Runner::new("tracker_per_trefi_fresh_rows");
    let mut next = 0;
    for (name, rows) in FRESH_ROWS {
        let mut start = Prct::new(128 * 1024);
        for _ in 0..rows {
            let _ = start.on_activation(RowId(next), &mut rng);
            next += 1;
        }
        let mut prct = start.clone();
        runner.bench(name, || {
            if prct.active_rows() >= 2 * rows as usize {
                prct = start.clone();
            }
            fresh_trefi(&mut prct, &mut rng, &mut next);
        });
    }
}
