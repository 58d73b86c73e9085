//! The one state-digest folder of the simulator: FNV-1a over little-endian
//! `u64` words. The engine's configuration digest, its verification
//! checkpoints and the network's and run-time system's state digests all
//! fold through it, so a value folded in one layer means the same thing in
//! every other. Next to it, [`IdHasher`]: the one hasher of the hot maps
//! keyed by simulator-made integers.

use std::hash::Hasher;

/// FNV-1a-style 64-bit folder over little-endian `u64` words. Not
/// cryptographic — it only needs to make accidental divergence visible.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh digest (the FNV offset basis).
    pub const fn new() -> Self {
        Digest(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Fold one word, little-endian byte by byte.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
        self
    }

    /// Fold a string's bytes followed by its length (so adjacent strings
    /// cannot trade characters).
    pub fn str(&mut self, s: &str) -> &mut Self {
        for &b in s.as_bytes() {
            self.byte(b);
        }
        self.u64(s.len() as u64)
    }

    /// Fold a collection whose iteration order is unspecified (a hash
    /// map): each entry is digested on its own from a fresh offset by
    /// `entry`, and the wrapping sum of those digests is folded as one
    /// word, so the result does not depend on the order.
    pub fn unordered<T>(
        &mut self,
        entries: impl IntoIterator<Item = T>,
        mut entry: impl FnMut(&mut Digest, T),
    ) -> &mut Self {
        let sum = entries.into_iter().fold(0u64, |sum, e| {
            let mut d = Digest::new();
            entry(&mut d, e);
            sum.wrapping_add(d.finish())
        });
        self.u64(sum)
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// Hasher for hash tables keyed by integers the simulator makes itself:
/// sequential activity ids, cache-line numbers. One multiply by an odd
/// constant is enough: it keeps consecutive keys in distinct buckets (a
/// bijection on the low bits the table indexes by) and mixes them into the
/// high bits its probe tags read. The keys are not attacker-chosen, so
/// nothing needs SipHash's keyed flood resistance.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("integer keys hash through write_u64");
    }
    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_fold_is_fnv1a_over_le_bytes() {
        // FNV-1a of the eight bytes 01 00 .. 00.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in 1u64.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(Digest::new().u64(1).finish(), h);
    }

    #[test]
    fn unordered_ignores_order_but_not_content() {
        let fold = |xs: &[(u64, u64)]| {
            Digest::new()
                .unordered(xs, |d, &(a, b)| {
                    d.u64(a).u64(b);
                })
                .finish()
        };
        assert_eq!(fold(&[(1, 2), (3, 4)]), fold(&[(3, 4), (1, 2)]));
        assert_ne!(fold(&[(1, 2), (3, 4)]), fold(&[(1, 2), (3, 5)]));
        assert_eq!(fold(&[]), Digest::new().u64(0).finish());
    }

    #[test]
    fn strings_fold_their_length() {
        let two = |a: &str, b: &str| Digest::new().str(a).str(b).finish();
        assert_ne!(two("ab", "c"), two("a", "bc"));
    }
}
