//! The content hasher behind every fingerprint: token trees, grammars and
//! persistent-store keys.
//!
//! Two independently seeded FNV-1a streams combined into a `u128`. FNV is
//! weak alone; two decorrelated 64-bit streams make accidental collisions
//! between real inputs implausible while staying dependency-free and
//! byte-order independent. Everything fed to it is content — lengths,
//! texts, token kinds by name, spans — never a pointer or an interner
//! index, so a fingerprint means the same thing in every process and can
//! key persistent artifacts.

use crate::Span;

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A dual-stream FNV-1a hasher.
pub struct Fnv2 {
    a: u64,
    b: u64,
}

impl Fnv2 {
    /// A hasher in its initial state.
    pub fn new() -> Fnv2 {
        Fnv2 {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    /// Feeds one byte.
    pub fn byte(&mut self, x: u8) {
        self.a = (self.a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        // The second stream sees each byte bit-rotated, so the streams
        // diverge on content, not just on seed.
        self.b = (self.b ^ u64::from(x.rotate_left(3))).wrapping_mul(FNV_PRIME);
    }

    /// Feeds a byte string.
    pub fn bytes(&mut self, bs: &[u8]) {
        for &x in bs {
            self.byte(x);
        }
    }

    /// Feeds a `u32`, little-endian.
    pub fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    /// Feeds a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Feeds a span (file, start, end).
    pub fn span(&mut self, s: Span) {
        self.u32(s.file.0);
        self.u32(s.lo);
        self.u32(s.hi);
    }

    /// The first stream alone (a 64-bit hash).
    pub fn finish64(&self) -> u64 {
        self.a
    }

    /// Both streams, as one 128-bit hash.
    pub fn finish(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

impl Default for Fnv2 {
    fn default() -> Fnv2 {
        Fnv2::new()
    }
}
