//! Corrupt `MINTCKPT` words must be refused, never crash or run away.
//!
//! A checkpoint is untrusted input: a restore either returns `Err` or
//! yields a session that finishes within its builder's request budget.
//! The census below corrupts every word of a small paused run three ways
//! (flip the low bit, add 97, overwrite with `0xFFFF`) and truncates the
//! word stream at every length. Each case must answer `Err` or a report;
//! none may panic, and none may service more than the budget — the
//! resume stops one request past it, so a runaway stream shows up as a
//! pause instead of a hang. Two cells are censused: the stateless
//! Baseline on the Table VI DIMM, and MINT+RFM16 with telemetry on a
//! 2-channel × 2-rank DIMM (tracker blocks, telemetry words, per-channel
//! readiness caches).

use mint_memsys::{
    workload_by_name, Checkpoint, MitigationScheme, RunReport, Session, SessionRun, Sim,
    SystemConfig,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CORES: usize = 4;
const BUDGET: u32 = 60;
const TOTAL: u64 = CORES as u64 * BUDGET as u64;

/// A censused cell: scheme, `(channels, ranks)`, telemetry.
type Cell = (MitigationScheme, (u32, u32), bool);

const CELLS: [Cell; 2] = [
    (MitigationScheme::Baseline, (1, 1), false),
    (MitigationScheme::MintRfm { rfm_th: 16 }, (2, 2), true),
];

fn session((scheme, (channels, ranks), telemetry): Cell) -> Session<'static> {
    let mcf = workload_by_name("mcf").expect("workload in the suite");
    let cfg = SystemConfig {
        channels,
        ranks,
        ..SystemConfig::table6()
    };
    let sim = Sim::new(cfg)
        .scheme(scheme)
        .workload(&[mcf; CORES], BUDGET)
        .seed(23);
    if telemetry { sim.telemetry() } else { sim }.build()
}

/// The serialized words of the run paused after 40 requests.
fn paused_words(cell: Cell) -> Vec<u64> {
    let SessionRun::Paused(ckpt) = session(cell).run_until(40).expect("pausable run") else {
        panic!("a stop at 40 of {TOTAL} requests must pause");
    };
    let bytes = ckpt.to_bytes();
    // Framing: magic, version, word count, then the words.
    bytes[24..]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// Frames `words` as a checkpoint of the current version.
fn checkpoint(words: &[u64]) -> Checkpoint {
    let mut bytes = b"MINTCKPT".to_vec();
    bytes.extend_from_slice(&mint_memsys::CHECKPOINT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    Checkpoint::from_bytes(&bytes).expect("well-framed bytes")
}

/// Resumes `words` and classifies the outcome; `Err(why)` for a case
/// that breaks the contract.
fn probe(cell: Cell, words: &[u64]) -> Result<Option<RunReport>, String> {
    let ckpt = checkpoint(words);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        session(cell).resume_until(&ckpt, TOTAL + 1)
    }))
    .map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        format!("panicked: {msg}")
    })?;
    match outcome {
        Err(_) => Ok(None),
        Ok(SessionRun::Paused(_)) => Err(format!("serviced more than the {TOTAL}-request budget")),
        Ok(SessionRun::Finished(report)) => {
            if report.perf.result.requests > TOTAL {
                return Err(format!(
                    "reports {} serviced requests",
                    report.perf.result.requests
                ));
            }
            if let Some(c) = report.cores.iter().find(|c| c.requests > u64::from(BUDGET)) {
                return Err(format!("a core reports {} serviced requests", c.requests));
            }
            Ok(Some(report))
        }
    }
}

#[test]
fn every_corrupted_or_truncated_word_is_refused_or_finishes_in_budget() {
    let mut failures = Vec::new();
    for cell in CELLS {
        let words = paused_words(cell);
        assert!(probe(cell, &words).expect("intact").is_some());
        let (mut refused, mut finished) = (0, 0);
        for i in 0..words.len() {
            for (how, corrupt) in [
                ("xor 1", words[i] ^ 1),
                ("+97", words[i].wrapping_add(97)),
                ("= 0xFFFF", 0xFFFF),
            ] {
                let mut bad = words.clone();
                bad[i] = corrupt;
                match probe(cell, &bad) {
                    Ok(None) => refused += 1,
                    Ok(Some(_)) => finished += 1,
                    Err(why) => failures.push(format!("{cell:?} word {i} {how}: {why}")),
                }
            }
        }
        for len in 0..words.len() {
            match probe(cell, &words[..len]) {
                Ok(None) => refused += 1,
                Ok(Some(_)) => failures.push(format!("{cell:?} truncated to {len}: restored")),
                Err(why) => failures.push(format!("{cell:?} truncated to {len}: {why}")),
            }
        }
        assert!(refused + finished + failures.len() >= 4 * words.len());
    }
    assert!(
        failures.is_empty(),
        "{} cases broke the contract:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
