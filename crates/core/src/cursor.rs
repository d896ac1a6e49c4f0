//! The checkpoint cursor: every stateful type states its layout once.
//!
//! A checkpoint is a flat stream of `u64` words. Each stateful type moves
//! its part of it with one function, its *walk*, which visits every
//! dynamic field in layout order through a [`StateCursor`]: saving
//! appends each value, loading overwrites it with the next word, checked.
//! Writer and reader cannot drift, and a walk's checks sit next to the
//! fields they guard — they also run when saving, where live state
//! passes them.

/// A position in a checkpoint word stream, saving or loading. Besides
/// the primitives it offers exactly the shapes the layout uses: fixed and
/// counted lists, a length-prefixed block, and two optional forms.
///
/// ```
/// use mint_core::StateCursor;
///
/// fn walk(c: &mut StateCursor, count: &mut u64, flag: &mut bool) -> Result<(), String> {
///     c.u64(count)?;
///     c.bool(flag)
/// }
///
/// let mut save = StateCursor::saving();
/// walk(&mut save, &mut 7, &mut true).unwrap();
/// let words = save.finish().unwrap();
/// assert_eq!(words, [7, 1]);
///
/// let (mut count, mut flag) = (0, false);
/// let mut load = StateCursor::loading(&words);
/// walk(&mut load, &mut count, &mut flag).unwrap();
/// assert_eq!((count, flag), (7, true));
/// ```
#[derive(Debug)]
pub struct StateCursor<'a> {
    words: Words<'a>,
}

#[derive(Debug)]
enum Words<'a> {
    Save(Vec<u64>),
    /// `end` closes the innermost open [`block`](StateCursor::block).
    Load {
        words: &'a [u64],
        pos: usize,
        end: usize,
    },
}

impl<'a> StateCursor<'a> {
    /// A cursor appending every visited value to a fresh word stream.
    #[must_use]
    pub fn saving() -> Self {
        Self {
            words: Words::Save(Vec::new()),
        }
    }

    /// A cursor overwriting every visited value from `words`.
    #[must_use]
    pub fn loading(words: &'a [u64]) -> Self {
        let end = words.len();
        Self {
            words: Words::Load { words, pos: 0, end },
        }
    }

    /// Whether this cursor restores — for walks that rebuild a derived
    /// structure (a hash map from its sorted entries) only then.
    #[must_use]
    pub fn is_loading(&self) -> bool {
        matches!(self.words, Words::Load { .. })
    }

    fn pos(&self) -> usize {
        match &self.words {
            Words::Save(words) => words.len(),
            Words::Load { pos, .. } => *pos,
        }
    }

    /// Visits one word; loading errors past the stream or block end.
    #[inline]
    pub fn u64(&mut self, v: &mut u64) -> Result<(), String> {
        match &mut self.words {
            Words::Save(words) => words.push(*v),
            Words::Load { words, pos, end } => {
                if *pos >= *end {
                    return Err(format!("checkpoint truncated at word {pos}"));
                }
                *v = words[*pos];
                *pos += 1;
            }
        }
        Ok(())
    }

    /// Visits a `u32` widened to one word; loading errors above `u32::MAX`.
    #[inline]
    pub fn u32(&mut self, v: &mut u32) -> Result<(), String> {
        let mut w = u64::from(*v);
        self.u64(&mut w)?;
        *v = u32::try_from(w).map_err(|_| format!("checkpoint word {w:#x} exceeds u32"))?;
        Ok(())
    }

    /// Visits a bool stored as 0/1; loading errors on any other word.
    #[inline]
    pub fn bool(&mut self, v: &mut bool) -> Result<(), String> {
        let mut w = u64::from(*v);
        self.u64(&mut w)?;
        *v = match w {
            0 => false,
            1 => true,
            w => return Err(format!("checkpoint word {w} is not a bool")),
        };
        Ok(())
    }

    /// Visits the length word of a list the configuration sizes; loading
    /// errors when it is not `len`.
    pub fn fixed(&mut self, len: usize, what: &str) -> Result<(), String> {
        let mut n = len as u64;
        self.u64(&mut n)?;
        if n != len as u64 {
            return Err(format!("{what}: checkpoint has {n}, state has {len}"));
        }
        Ok(())
    }

    /// Visits a counted list's length word and returns the length to walk
    /// (`len` when saving); the caller resizes to it and walks each
    /// element. Errors above `max` or — loading — above the words left,
    /// so a hostile length cannot force an allocation.
    pub fn count(&mut self, len: usize, max: usize, what: &str) -> Result<usize, String> {
        let mut n = len as u64;
        self.u64(&mut n)?;
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= max)
            .ok_or_else(|| format!("{what}: {n} entries exceed capacity {max}"))?;
        match self.words {
            Words::Load { pos, end, .. } if n > end - pos => Err(format!(
                "{what}: {n} entries run past the end of the checkpoint at word {pos}"
            )),
            _ => Ok(n),
        }
    }

    /// Visits a length-prefixed block of one nested state, walked by
    /// `walk`; loading confines `walk` to the block and requires it to
    /// consume the block exactly (`name` labels the errors).
    pub fn block(
        &mut self,
        name: &str,
        walk: impl FnOnce(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let at = self.pos();
        let mut len = 0u64;
        self.u64(&mut len)?;
        let mut outer_end = 0;
        if let Words::Load { pos, end, .. } = &mut self.words {
            let inner = usize::try_from(len)
                .ok()
                .filter(|&l| l <= *end - *pos)
                .ok_or_else(|| format!("{name}: state block of {len} words truncated"))?;
            outer_end = std::mem::replace(end, *pos + inner);
        }
        walk(self)?;
        match &mut self.words {
            Words::Save(words) => words[at] = (words.len() - at - 1) as u64,
            Words::Load { pos, end, .. } => {
                let left = *end - *pos;
                *end = outer_end;
                if left as u64 == len && left > 0 {
                    return Err(format!("{name}: expected empty state, got {len} words"));
                }
                if left > 0 {
                    return Err(format!("{name}: {left} of {len} state words left unread"));
                }
            }
        }
        Ok(())
    }

    /// Visits an optional value as a presence flag, then its words — zero
    /// padding when absent (`walk` visits a zero placeholder then).
    /// Returns the presence.
    pub fn padded(
        &mut self,
        present: bool,
        walk: impl FnOnce(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        let mut present = present;
        self.bool(&mut present)?;
        let from = self.pos();
        walk(self)?;
        let padding = match &self.words {
            Words::Save(words) => &words[from..],
            Words::Load { words, pos, .. } => &words[from..*pos],
        };
        if !present && padding.iter().any(|&w| w != 0) {
            return Err(format!("checkpoint padding at word {from} is not zero"));
        }
        Ok(present)
    }

    /// Visits an optional value as a presence flag, then its words only
    /// when present. Returns the presence.
    pub fn opt(
        &mut self,
        present: bool,
        walk: impl FnOnce(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        let mut present = present;
        self.bool(&mut present)?;
        if present {
            walk(self)?;
        }
        Ok(present)
    }

    /// Ends the walk: saving yields the words; loading errors on trailing
    /// words.
    pub fn finish(self) -> Result<Vec<u64>, String> {
        match self.words {
            Words::Save(words) => Ok(words),
            Words::Load { words, pos, .. } if pos == words.len() => Ok(Vec::new()),
            Words::Load { words, pos, .. } => Err(format!(
                "checkpoint has {} unread trailing words",
                words.len() - pos
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[raw, len, list…, flag, padding, flag, value, len, block…]`.
    const WORDS: [u64; 10] = [7, 2, 3, 4, 0, 0, 1, 1, 1, 5];

    /// Walks every shape once over `(raw, list, padded, opt, block)`.
    type Toy = (u64, Vec<u32>, Option<u64>, Option<bool>, Vec<u64>);

    fn walk(c: &mut StateCursor, t: &mut Toy) -> Result<(), String> {
        c.u64(&mut t.0)?;
        let n = c.count(t.1.len(), 8, "list")?;
        t.1.resize(n, 0);
        t.1.iter_mut().try_for_each(|v| c.u32(v))?;
        let mut p = t.2.unwrap_or(0);
        t.2 = c.padded(t.2.is_some(), |c| c.u64(&mut p))?.then_some(p);
        let mut o = t.3.unwrap_or(false);
        t.3 = c.opt(t.3.is_some(), |c| c.bool(&mut o))?.then_some(o);
        let nested = &mut t.4;
        c.block("toy", |c| nested.iter_mut().try_for_each(|v| c.u64(v)))
    }

    fn load(words: &[u64], nested: usize) -> Result<Toy, String> {
        let mut t = (0, Vec::new(), Some(9), None, vec![0; nested]);
        let mut c = StateCursor::loading(words);
        walk(&mut c, &mut t)?;
        c.finish().map(|_| t)
    }

    #[test]
    fn one_walk_saves_and_loads_every_shape() {
        let mut toy = (7, vec![3, 4], None, Some(true), vec![5]);
        let mut c = StateCursor::saving();
        walk(&mut c, &mut toy).unwrap();
        assert_eq!(c.finish().unwrap(), WORDS);
        assert_eq!(load(&WORDS, 1), Ok(toy));
    }

    #[test]
    fn loading_rejects_malformed_streams() {
        let with = |i: usize, w: u64| {
            let mut words = WORDS;
            words[i] = w;
            load(&words, 1).unwrap_err()
        };
        let long = [&WORDS[..8], &[2, 5, 6]].concat();
        for (got, want) in [
            (with(1, 9), "exceed capacity 8"),
            (with(1, u64::MAX), "exceed capacity 8"),
            (with(2, 1 << 32), "exceeds u32"),
            (with(5, 1), "padding at word 5 is not zero"),
            (with(7, 2), "not a bool"),
            (with(8, 2), "block of 2 words truncated"),
            (load(&WORDS[..4], 1).unwrap_err(), "truncated at word 4"),
            (
                load(&[&WORDS[..], &[0]].concat(), 1).unwrap_err(),
                "1 unread",
            ),
            // A block is consumed exactly, and never read past.
            (load(&WORDS, 0).unwrap_err(), "expected empty state, got 1"),
            (load(&WORDS, 2).unwrap_err(), "truncated at word 10"),
            (
                load(&long, 1).unwrap_err(),
                "1 of 2 state words left unread",
            ),
        ] {
            assert!(got.contains(want), "{got:?} lacks {want:?}");
        }
    }
}
