//! Versioned checkpoint serialization for pausable simulation sessions.
//!
//! A [`Checkpoint`] is a flat sequence of `u64` words. Every stateful layer
//! of a running session — scheduler slabs, controller bank state,
//! mitigation trackers, timing rings, RNG stream positions and per-core
//! frontends — states its layout once, as a *walk* through a
//! [`StateCursor`](mint_core::StateCursor): pausing walks each layer with
//! a saving cursor, resuming walks the same code with a loading cursor
//! that checks every word before the session runs on. The byte encoding
//! is an 8-byte magic (`MINTCKPT`), a version word, a length word, and the
//! words in little-endian order, so a checkpoint written by one process
//! can be restored bit-identically in a fresh one (see
//! [`Session::resume`](crate::Session::resume)).
//!
//! The format is intentionally exact rather than canonical: anything whose
//! in-memory order can influence a later decision (the scheduler's slab
//! and active list, PARFM's RNG-indexed buffer, the PrIDE and DMQ FIFOs,
//! TRR's table) is walked in its current order, so the restored process
//! replays the straight run to the last `f64` bit. Hash tables walk their
//! entries sorted by row. A checkpoint is untrusted input: a corrupt or
//! truncated one is refused with an `Err`, never restored into a session
//! that panics, hangs or overruns its request budget
//! (`tests/checkpoint_corruption.rs`).

/// Version word embedded in every serialized checkpoint. Bumped whenever
/// the word layout of any layer changes incompatibly.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Magic prefix identifying a serialized checkpoint.
const MAGIC: &[u8; 8] = b"MINTCKPT";

/// An opaque, restorable capture of a paused session.
///
/// Produced by [`Session::run_until`](crate::Session::run_until); consumed
/// by [`Session::resume`](crate::Session::resume). Serialize with
/// [`to_bytes`](Self::to_bytes) to move it across processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub(crate) words: Vec<u64>,
}

impl Checkpoint {
    /// Serializes the checkpoint: magic, version, word count, then each
    /// word in little-endian order.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 16 + 8 * self.words.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parses a checkpoint previously produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns a description of the first framing problem found: missing or
    /// wrong magic, unsupported version, or a truncated word stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let Some((magic, rest)) = bytes.split_first_chunk::<8>() else {
            return Err("checkpoint shorter than its magic".to_string());
        };
        if magic != MAGIC {
            return Err("not a MINT checkpoint (bad magic)".to_string());
        }
        let Some((version, rest)) = rest.split_first_chunk::<8>() else {
            return Err("checkpoint truncated before version".to_string());
        };
        let version = u64::from_le_bytes(*version);
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        let Some((count, rest)) = rest.split_first_chunk::<8>() else {
            return Err("checkpoint truncated before word count".to_string());
        };
        let count = usize::try_from(u64::from_le_bytes(*count))
            .map_err(|_| "checkpoint word count overflows usize".to_string())?;
        if rest.len() != 8 * count {
            return Err(format!(
                "checkpoint body is {} bytes, expected {} for {count} words",
                rest.len(),
                8 * count
            ));
        }
        let words = rest
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
            .collect();
        Ok(Self { words })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_core::StateCursor;

    #[test]
    fn bytes_round_trip() {
        let ckpt = Checkpoint {
            words: vec![7, 42, 1, u64::MAX, 0, 3],
        };
        let bytes = ckpt.to_bytes();
        assert_eq!(bytes.len(), 24 + 8 * 6);
        assert_eq!(&bytes[..8], MAGIC);
        let back = Checkpoint::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn framing_errors_are_described() {
        assert!(Checkpoint::from_bytes(b"short")
            .unwrap_err()
            .contains("magic"));
        assert!(Checkpoint::from_bytes(b"NOTMAGIC\0\0\0\0\0\0\0\0")
            .unwrap_err()
            .contains("bad magic"));
        let mut bad_version = MAGIC.to_vec();
        bad_version.extend_from_slice(&99u64.to_le_bytes());
        bad_version.extend_from_slice(&0u64.to_le_bytes());
        assert!(Checkpoint::from_bytes(&bad_version)
            .unwrap_err()
            .contains("version 99"));
        let mut truncated = MAGIC.to_vec();
        truncated.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        truncated.extend_from_slice(&4u64.to_le_bytes());
        truncated.extend_from_slice(&1u64.to_le_bytes());
        assert!(Checkpoint::from_bytes(&truncated)
            .unwrap_err()
            .contains("expected 32"));
    }

    #[test]
    fn reader_rejects_malformed_streams() {
        // The framing cannot see a malformed body; the loading walk can.
        let ckpt = Checkpoint::from_bytes(&Checkpoint { words: vec![2, 5] }.to_bytes()).unwrap();
        let mut c = StateCursor::loading(&ckpt.words);
        assert!(c.bool(&mut false).unwrap_err().contains("not a bool"));
        let mut c = StateCursor::loading(&ckpt.words);
        assert!(c.count(0, 8, "list").unwrap_err().contains("past the end"));
        let mut c = StateCursor::loading(&[1 << 32]);
        assert!(c.u32(&mut 0).unwrap_err().contains("exceeds u32"));
        let c = StateCursor::loading(&ckpt.words);
        assert!(c.finish().unwrap_err().contains("trailing"));
    }
}
