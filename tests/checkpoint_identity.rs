//! Checkpoint/restore bit-identity, pinned.
//!
//! A run split at request `k` with [`Session::run_until`], serialized to
//! bytes, deserialized (as a fresh process would) and continued with
//! [`Session::resume`] must reproduce the straight [`Session::run`]
//! *byte for byte*: duration, the full `SimResult`, per-core outcomes,
//! the captured event stream, and the energy split to the last f64 bit —
//! the same discipline as `tests/system_identity.rs`.
//!
//! The split points sweep the interesting phase boundaries: `k = 0`
//! (before the first service decision), tiny prefixes (mid-tFAW window,
//! pending requests in flight), the middle of the run (mid-tREFI, REF
//! and mitigation state live), and the penultimate request. Schemes
//! cover the whole zoo — the stateless baseline, MINT's REF-riding
//! sampler, RFM's RAA counters, MC-PARA's per-ACT RNG, the hash-table
//! trackers (Graphene, Mithril, ProTRR, PRCT), TRR's ordered table and
//! the FIFO/buffer trackers (PrIDE, PARFM); topologies cover the Table
//! VI 1×1 DIMM and a 2-channel × 2-rank scale-out. Digest tests pin the
//! `MINTCKPT` bytes themselves, per scheme and topology, not just their
//! round trip.

use mint_memsys::{
    parse_trace, workload_by_name, Checkpoint, MitigationScheme, RunReport, Session, SessionRun,
    Sim, SystemConfig, CHECKPOINT_VERSION,
};

const REQUESTS_PER_CORE: u32 = 700;

fn topology(channels: u32, ranks: u32) -> SystemConfig {
    SystemConfig {
        channels,
        ranks,
        ..SystemConfig::table6()
    }
}

fn session(scheme: MitigationScheme, cfg: SystemConfig) -> Session<'static> {
    let mcf = workload_by_name("mcf").expect("workload in the suite");
    Sim::new(cfg)
        .scheme(scheme)
        .workload(&[mcf; 4], REQUESTS_PER_CORE)
        .seed(23)
        .capture_events()
        .build()
}

/// Every field of the report, to the last bit (f64s via `to_bits`).
fn assert_bits_equal(got: &RunReport, want: &RunReport, what: &str) {
    assert_eq!(
        got.perf.duration_ps, want.perf.duration_ps,
        "{what}: duration"
    );
    assert_eq!(got.perf.result, want.perf.result, "{what}: SimResult");
    assert_eq!(
        got.perf.normalized.to_bits(),
        want.perf.normalized.to_bits(),
        "{what}: normalized"
    );
    assert_eq!(got.cores.len(), want.cores.len(), "{what}: core count");
    for (i, (a, b)) in got.cores.iter().zip(&want.cores).enumerate() {
        assert_eq!(
            (a.finish_ps, a.requests),
            (b.finish_ps, b.requests),
            "{what}: core {i}"
        );
    }
    assert_eq!(
        (got.energy.act_j.to_bits(), got.energy.non_act_j.to_bits()),
        (want.energy.act_j.to_bits(), want.energy.non_act_j.to_bits()),
        "{what}: energy must match to the last f64 bit"
    );
    assert_eq!(got.events, want.events, "{what}: event stream");
}

/// Splits the run at `k`, round-trips the checkpoint through its on-disk
/// byte format, resumes, and compares against the straight run.
fn split_matches(scheme: MitigationScheme, cfg: SystemConfig, k: u64, straight: &RunReport) {
    let what = format!(
        "{scheme:?} {}ch x {}rk split at {k}",
        cfg.channels, cfg.ranks
    );
    match session(scheme, cfg).run_until(k).expect("pausable run") {
        SessionRun::Paused(ckpt) => {
            let revived = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("byte round-trip");
            assert_eq!(revived, ckpt, "{what}: byte round-trip is lossless");
            let resumed = session(scheme, cfg).resume(&revived).expect("resume");
            assert_bits_equal(&resumed, straight, &what);
        }
        SessionRun::Finished(_) => panic!("{what}: paused before the run could finish"),
    }
}

/// The telemetry-enabled counterpart of [`session`]: same traffic, same
/// seed, observability on (and therefore telemetry words in the
/// checkpoint stream).
fn telemetry_session(scheme: MitigationScheme, cfg: SystemConfig) -> Session<'static> {
    let mcf = workload_by_name("mcf").expect("workload in the suite");
    Sim::new(cfg)
        .scheme(scheme)
        .workload(&[mcf; 4], REQUESTS_PER_CORE)
        .seed(23)
        .capture_events()
        .telemetry()
        .build()
}

#[test]
fn telemetry_counters_survive_checkpoint_splits_bit_exactly() {
    // A split-and-resumed telemetry run must reproduce the straight
    // run's whole TelemetryReport — every counter, histogram bucket and
    // time-series point — alongside the usual perf bit-identity. The
    // telemetry words ride the same MINTCKPT byte stream, so the
    // round-trip through `to_bytes` covers their framing too.
    let total = u64::from(REQUESTS_PER_CORE) * 4;
    for &cfg in &[topology(1, 1), topology(2, 2)] {
        for scheme in [
            MitigationScheme::Mint,
            MitigationScheme::MintRfm { rfm_th: 16 },
        ] {
            let straight = telemetry_session(scheme, cfg).run();
            let want = straight.telemetry.as_ref().expect("telemetry enabled");
            assert!(
                want.counter("session", "serviced").unwrap_or(0) == total,
                "straight run must account every serviced request"
            );
            for k in [1, total / 2, total - 1] {
                let what = format!(
                    "{scheme:?} {}ch x {}rk telemetry split at {k}",
                    cfg.channels, cfg.ranks
                );
                let SessionRun::Paused(ckpt) = telemetry_session(scheme, cfg)
                    .run_until(k)
                    .expect("pausable run")
                else {
                    panic!("{what}: finished early");
                };
                let revived = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("byte round-trip");
                let resumed = telemetry_session(scheme, cfg)
                    .resume(&revived)
                    .expect("resume");
                assert_bits_equal(&resumed, &straight, &what);
                assert_eq!(
                    resumed.telemetry.as_ref(),
                    Some(want),
                    "{what}: TelemetryReport"
                );
            }
        }
    }
}

#[test]
fn resume_is_bit_identical_on_the_table6_dimm() {
    let cfg = topology(1, 1);
    let total = u64::from(REQUESTS_PER_CORE) * 4;
    for scheme in MitigationScheme::zoo() {
        let straight = session(scheme, cfg).run();
        for k in [0, 1, 3, total / 2, total - 1] {
            split_matches(scheme, cfg, k, &straight);
        }
    }
}

#[test]
fn resume_is_bit_identical_on_a_two_by_two_dimm() {
    let cfg = topology(2, 2);
    let total = u64::from(REQUESTS_PER_CORE) * 4;
    for scheme in MitigationScheme::zoo() {
        let straight = session(scheme, cfg).run();
        for k in [0, 1, 3, total / 2, total - 1] {
            split_matches(scheme, cfg, k, &straight);
        }
    }
}

#[test]
fn random_double_splits_resume_bit_identically() {
    // Two chained pause points (run_until + resume_until + resume) land
    // on arbitrary service counts — mid-tREFI, mid-tFAW, mid-mitigation,
    // wherever the draw falls — and must still pin the straight run.
    let total = u64::from(REQUESTS_PER_CORE) * 4;
    for &cfg in &[topology(1, 1), topology(2, 2)] {
        let straight = session(MitigationScheme::Mint, cfg).run();
        mint_exp::prop::forall(6, 0x5EED, |case, rng| {
            let k1 = mint_exp::prop::u64_in(rng, 1, total - 1);
            let k2 = mint_exp::prop::u64_in(rng, k1 + 1, total);
            let what = format!(
                "case {case}: {}ch x {}rk double split at {k1}/{k2}",
                cfg.channels, cfg.ranks
            );
            let SessionRun::Paused(first) = session(MitigationScheme::Mint, cfg)
                .run_until(k1)
                .expect("pausable run")
            else {
                panic!("{what}: first split finished early");
            };
            let SessionRun::Paused(second) = session(MitigationScheme::Mint, cfg)
                .resume_until(&first, k2)
                .expect("resumable run")
            else {
                panic!("{what}: second split finished early");
            };
            let resumed = session(MitigationScheme::Mint, cfg)
                .resume(&second)
                .expect("resume");
            assert_bits_equal(&resumed, &straight, &what);
        });
    }
}

#[test]
fn stopping_past_the_end_finishes_identically() {
    let cfg = topology(1, 1);
    let total = u64::from(REQUESTS_PER_CORE) * 4;
    let straight = session(MitigationScheme::Mint, cfg).run();
    match session(MitigationScheme::Mint, cfg)
        .run_until(total + 10)
        .expect("pausable run")
    {
        SessionRun::Finished(report) => assert_bits_equal(&report, &straight, "past-the-end stop"),
        SessionRun::Paused(_) => panic!("a stop point past the end must finish"),
    }
}

#[test]
fn trace_frontends_checkpoint_too() {
    let text: String = (0..600)
        .map(|i| {
            format!(
                "{} {} 0x{:x}\n",
                i % 5,
                if i % 3 == 0 { 'W' } else { 'R' },
                i * 64
            )
        })
        .collect();
    let entries = parse_trace(&text).unwrap();
    let build = || {
        Sim::ddr5()
            .scheme(MitigationScheme::Mint)
            .trace(&entries)
            .seed(3)
            .capture_events()
            .build()
    };
    let straight = build().run();
    for k in [0, 7, 300, 599] {
        match build().run_until(k).expect("pausable run") {
            SessionRun::Paused(ckpt) => {
                let revived = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("byte round-trip");
                let resumed = build().resume(&revived).expect("resume");
                assert_bits_equal(&resumed, &straight, &format!("trace split at {k}"));
            }
            SessionRun::Finished(_) => panic!("trace split at {k} finished early"),
        }
    }
}

/// FNV-1a over the serialized checkpoint: a dependency-free digest that
/// moves with any byte of the layout.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn mintckpt_bytes_of_a_midpoint_pause_are_pinned() {
    // The round-trip tests above would pass for any self-consistent
    // encoding; this pins the bytes themselves. Both digests were
    // recorded with `CHECKPOINT_VERSION` 1: any change to the layout must
    // bump the version and re-record them.
    assert_eq!(CHECKPOINT_VERSION, 1);
    let mcf = workload_by_name("mcf").expect("workload in the suite");
    let pause = |cfg: SystemConfig, capture: bool| {
        let mut sim = Sim::new(cfg)
            .scheme(MitigationScheme::Mint)
            .workload(&[mcf; 4], 2_000)
            .seed(77);
        if capture {
            sim = sim.capture_events();
        }
        let SessionRun::Paused(ckpt) = sim.build().run_until(4_000).expect("pausable run") else {
            panic!("a midpoint stop must pause");
        };
        ckpt.to_bytes()
    };
    // ci_smoke's MINT/mcf cell, paused at its midpoint.
    let bytes = pause(topology(1, 1), false);
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (4_744, 0xd8a3_cfd8_dfa8_7ad5),
        "MINTCKPT layout of the 1ch x 1rk midpoint pause changed"
    );
    // The same cell on a 2-channel x 2-rank DIMM with the event log on.
    let bytes = pause(topology(2, 2), true);
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (225_000, 0x6f8c_eb65_9032_1cc6),
        "MINTCKPT layout of the 2ch x 2rk captured midpoint pause changed"
    );
}

/// A serialized checkpoint's `(byte length, FNV-1a)`.
type Digest = (usize, u64);

/// `(scheme label, digest on 1ch x 1rk, digest on 2ch x 2rk)` of every
/// zoo scheme's midpoint pause of [`session`], recorded with
/// `CHECKPOINT_VERSION` 1: a change to any walk's layout must bump the
/// version and re-record them.
const ZOO_DIGESTS: [(&str, Digest, Digest); 12] = [
    (
        "Baseline",
        (73_576, 0xeae3_07f9_c4a9_9e18),
        (77_608, 0x5b45_33a7_80c2_8dd0),
    ),
    (
        "MINT",
        (75_688, 0xc1cd_92f6_09df_4f58),
        (83_176, 0xb1f6_f6e6_8e57_2fce),
    ),
    (
        "MINT+RFM32",
        (76_648, 0x9d3e_5b85_8fdb_d676),
        (83_560, 0x461d_334a_caf5_8c31),
    ),
    (
        "MINT+RFM16",
        (79_400, 0xc656_cf48_3d2b_32cd),
        (85_096, 0x7e31_a8dc_71ca_be16),
    ),
    (
        "MC-PARA(1/40)",
        (75_880, 0x3518_fcd3_9da0_f09d),
        (81_480, 0x1d6e_c919_3304_52b8),
    ),
    (
        "Graphene",
        (91_016, 0xc519_14aa_5385_e9f6),
        (95_816, 0xe563_a19e_04a6_7f5f),
    ),
    (
        "Mithril",
        (95_784, 0x0cc7_279f_e8f5_646a),
        (105_784, 0xf486_a71f_ad51_6162),
    ),
    (
        "ProTRR",
        (110_984, 0xcb59_6505_8064_43e7),
        (118_968, 0x211c_4f01_7131_e977),
    ),
    (
        "TRR",
        (85_800, 0x1a16_53c5_b30a_f7f2),
        (101_784, 0x835d_5dec_1c10_735a),
    ),
    (
        "PRCT",
        (95_736, 0xe2ec_f2a5_08b3_ab19),
        (105_752, 0xfdc1_7f18_7779_a600),
    ),
    (
        "PrIDE",
        (74_648, 0xb28d_412a_4ace_f5e3),
        (79_984, 0xb5d5_7954_b0c1_4f02),
    ),
    (
        "PARFM",
        (79_072, 0x2c0f_fa9d_4b65_be08),
        (91_488, 0x6ee8_1d81_2d48_3c7d),
    ),
];

#[test]
fn mintckpt_bytes_of_every_zoo_scheme_are_pinned() {
    assert_eq!(CHECKPOINT_VERSION, 1);
    let zoo = MitigationScheme::zoo();
    assert_eq!(zoo.len(), ZOO_DIGESTS.len());
    let total = u64::from(REQUESTS_PER_CORE) * 4;
    for (scheme, &(label, one, two)) in zoo.into_iter().zip(&ZOO_DIGESTS) {
        assert_eq!(scheme.label(), label, "zoo order");
        for (cfg, want) in [(topology(1, 1), one), (topology(2, 2), two)] {
            let SessionRun::Paused(ckpt) = session(scheme, cfg)
                .run_until(total / 2)
                .expect("pausable run")
            else {
                panic!("{label}: a midpoint stop must pause");
            };
            let bytes = ckpt.to_bytes();
            assert_eq!(
                (bytes.len(), fnv1a64(&bytes)),
                want,
                "{label} {}ch x {}rk: MINTCKPT layout of the midpoint pause changed",
                cfg.channels,
                cfg.ranks
            );
        }
    }
}

#[test]
fn mintckpt_bytes_with_telemetry_words_are_pinned() {
    // Telemetry words ride behind each layer's stable layout; these pin
    // them for the one-entry tracker and the largest table tracker.
    let total = u64::from(REQUESTS_PER_CORE) * 4;
    for (scheme, one, two) in [
        (
            MitigationScheme::Mint,
            (5_856, 0x502d_24b2_6a7d_3d4a),
            (15_992, 0x66d3_2c03_09c0_2256),
        ),
        (
            MitigationScheme::Prct,
            (22_960, 0x4dcb_fcec_b6bc_1ddf),
            (31_080, 0xe229_c2f2_89c9_da26),
        ),
    ] {
        for (cfg, want) in [(topology(1, 1), one), (topology(2, 2), two)] {
            let mcf = workload_by_name("mcf").expect("workload in the suite");
            let SessionRun::Paused(ckpt) = Sim::new(cfg)
                .scheme(scheme)
                .workload(&[mcf; 4], REQUESTS_PER_CORE)
                .seed(23)
                .telemetry()
                .build()
                .run_until(total / 2)
                .expect("pausable run")
            else {
                panic!("a midpoint stop must pause");
            };
            let bytes = ckpt.to_bytes();
            assert_eq!(
                (bytes.len(), fnv1a64(&bytes)),
                want,
                "{scheme:?} {}ch x {}rk: telemetry MINTCKPT layout changed",
                cfg.channels,
                cfg.ranks
            );
        }
    }
}

#[test]
fn structurally_incompatible_checkpoints_are_refused() {
    let SessionRun::Paused(ckpt) = session(MitigationScheme::Mint, topology(1, 1))
        .run_until(10)
        .expect("pausable run")
    else {
        panic!("split at 10 must pause");
    };
    // Wrong topology: the 2x2 session has a different channel count.
    let err = session(MitigationScheme::Mint, topology(2, 2))
        .resume(&ckpt)
        .expect_err("wrong topology must be refused");
    assert!(err.contains("channels"), "got: {err}");
    // Truncated bytes: the framing must catch it before any restore.
    let mut bytes = ckpt.to_bytes();
    bytes.truncate(bytes.len() - 3);
    assert!(Checkpoint::from_bytes(&bytes).is_err());
}
