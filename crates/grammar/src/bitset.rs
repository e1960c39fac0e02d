//! The bit set behind the FIRST sets that [`crate::Tables`] exposes.

/// A set of `u32` indices stored as 64-bit words.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Iterates set indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        bits(&self.words)
    }

    /// The backing words (for serialization).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a set from backing words.
    pub(crate) fn from_words(words: Vec<u64>) -> BitSet {
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
        let s = BitSet::from_words(vec![0b1001, 0, 1 << 63 | 1]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 128, 191]);
        assert_eq!(BitSet::from_words(vec![0, 0]).iter().count(), 0);
    }
}
