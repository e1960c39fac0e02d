//! The bit set behind the FIRST sets that [`crate::Tables`] exposes.

/// A set of `u32` indices stored as 64-bit words, borrowed from the table
/// set it belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BitSet<'a> {
    words: &'a [u64],
}

impl<'a> BitSet<'a> {
    /// Iterates set indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        bits(self.words)
    }

    /// The set whose backing words are `words`.
    pub(crate) fn from_words(words: &'a [u64]) -> BitSet<'a> {
        BitSet { words }
    }
}

/// The set bits of `words`, ascending.
pub(crate) fn bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                wi as u32 * 64 + b
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_across_words() {
        let s = BitSet::from_words(&[0b1001, 0, 1 << 63 | 1]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 128, 191]);
        assert_eq!(BitSet::from_words(&[0, 0]).iter().count(), 0);
    }
}
