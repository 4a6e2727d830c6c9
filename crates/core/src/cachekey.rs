//! Stable 64-bit cache fingerprints for the serving layer.
//!
//! The schedule cache in `scq-serve` is content-addressed: a request's
//! key is a hash over everything its run reads — the normalized IR, the
//! backend, the braid policy, the code distance, the defect
//! specification and the verify flag. This module provides the two
//! halves that belong with the toolflow types themselves:
//!
//! * [`KeyHasher`] — a streaming FNV-1a (64-bit) hasher with typed
//!   `write_*` helpers. FNV-1a is chosen over `std`'s `DefaultHasher`
//!   because its output is *specified*: the same bytes produce the same
//!   key on every platform, toolchain, and run, which is what makes the
//!   keys safe to persist or compare across processes.
//! * [`CacheKeyed`] — the trait a type implements to feed its
//!   schedule-relevant fields into a key. Implementations here cover
//!   the IR ([`Circuit`]), the braid [`Policy`], the [`LayoutStrategy`]
//!   and the placement artifact ([`Layout`]); the defect spec keys
//!   itself beside its own type.
//!
//! Two rules keep the keys honest:
//!
//! 1. **Every schedule-relevant field is written.** A field omitted
//!    from a key is a cache-poisoning bug: two requests that schedule
//!    differently would collide. `scq-serve`'s
//!    `key_sees_every_request_field` flips each request field
//!    individually and asserts the key moves.
//! 2. **Nothing schedule-irrelevant is written.** [`Circuit`]'s key
//!    deliberately excludes the circuit *name*: two textually different
//!    programs with identical gate streams schedule identically, and
//!    normalization should let them share one cache entry.
//!
//! Variable-length sequences are length-prefixed and enum variants are
//! tag-prefixed, so adjacent fields cannot alias each other's bytes
//! (e.g. `[1, 2] ++ [3]` keys differently from `[1] ++ [2, 3]`).

use scq_braid::Policy;
use scq_ir::Circuit;
use scq_layout::{Layout, LayoutStrategy};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a (64-bit) hasher with typed write helpers.
///
/// Deterministic across runs, platforms, and toolchains — unlike
/// `std::collections::hash_map::DefaultHasher`, whose algorithm is
/// unspecified and seeded per process.
///
/// # Examples
///
/// ```
/// use scq_core::KeyHasher;
///
/// let mut h = KeyHasher::new();
/// h.write_u64(42);
/// let a = h.finish();
/// let mut h = KeyHasher::new();
/// h.write_u64(42);
/// assert_eq!(a, h.finish());
/// ```
#[derive(Clone, Debug)]
pub struct KeyHasher {
    state: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

impl KeyHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        KeyHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a length-prefixed string (prefixing prevents adjacent
    /// strings from aliasing each other's bytes).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to 64 bits (so 32- and 64-bit hosts
    /// agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Feeds an `f64` by its IEEE-754 bit pattern (distinguishes `0.02`
    /// from `0.020000001`; `NaN` payloads key as themselves).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated 64-bit key.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// A type whose schedule-relevant content can be folded into a cache
/// key.
///
/// # Examples
///
/// ```
/// use scq_core::CacheKeyed;
/// use scq_braid::Policy;
///
/// assert_ne!(Policy::P0.cache_key(), Policy::P6.cache_key());
/// ```
pub trait CacheKeyed {
    /// Writes every field that can change the emitted schedule.
    fn write_key(&self, h: &mut KeyHasher);

    /// The type's standalone 64-bit fingerprint.
    fn cache_key(&self) -> u64 {
        let mut h = KeyHasher::new();
        self.write_key(&mut h);
        h.finish()
    }
}

impl CacheKeyed for Circuit {
    /// The normalized IR: qubit count plus the exact gate stream
    /// (mnemonic + operand qubits per instruction). The circuit *name*
    /// is deliberately excluded — it never influences scheduling, so
    /// renamed-but-identical programs share a cache entry.
    fn write_key(&self, h: &mut KeyHasher) {
        h.write_str("circuit/v1");
        h.write_u32(self.num_qubits());
        h.write_usize(self.len());
        for inst in self.instructions() {
            h.write_str(inst.gate().mnemonic());
            h.write_usize(inst.qubits().len());
            for q in inst.qubits() {
                h.write_u32(q.raw());
            }
        }
    }
}

impl CacheKeyed for Policy {
    fn write_key(&self, h: &mut KeyHasher) {
        h.write_usize(self.index());
    }
}

impl CacheKeyed for LayoutStrategy {
    fn write_key(&self, h: &mut KeyHasher) {
        match self {
            LayoutStrategy::Linear => h.write_bytes(&[0]),
            LayoutStrategy::Random(seed) => {
                h.write_bytes(&[1]);
                h.write_u64(*seed);
            }
            LayoutStrategy::InteractionAware => h.write_bytes(&[2]),
        }
    }
}

impl CacheKeyed for Layout {
    /// The placement artifact: grid dimensions plus every qubit's tile,
    /// in qubit order. This is the hash the pipeline records for its
    /// `layout` artifact — it moves only when the placement itself
    /// moves, never with the policy index or code distance.
    fn write_key(&self, h: &mut KeyHasher) {
        h.write_str("layout/v1");
        h.write_u32(self.grid_width());
        h.write_u32(self.grid_height());
        h.write_usize(self.num_qubits());
        for t in self.tiles() {
            h.write_u32(t.x);
            h.write_u32(t.y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Circuit {
        let mut b = Circuit::builder("tiny", 3);
        b.h(0).cnot(0, 1).t(2);
        b.finish()
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        // FNV-1a 64 test vectors: "" -> offset basis, "a" -> af63dc4c8601ec8c.
        let h = KeyHasher::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = KeyHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn circuit_key_is_stable_across_rebuilds() {
        assert_eq!(tiny().cache_key(), tiny().cache_key());
    }

    #[test]
    fn circuit_key_ignores_the_name() {
        let mut b = Circuit::builder("renamed-but-identical", 3);
        b.h(0).cnot(0, 1).t(2);
        assert_eq!(b.finish().cache_key(), tiny().cache_key());
    }

    #[test]
    fn circuit_key_sees_gates_operands_and_width() {
        let base = tiny().cache_key();
        let mut b = Circuit::builder("tiny", 3);
        b.h(0).cnot(1, 0).t(2); // swapped cnot operands
        assert_ne!(b.finish().cache_key(), base);
        let mut b = Circuit::builder("tiny", 3);
        b.h(0).cnot(0, 1).tdg(2); // different gate
        assert_ne!(b.finish().cache_key(), base);
        let mut b = Circuit::builder("tiny", 4); // wider register
        b.h(0).cnot(0, 1).t(2);
        assert_ne!(b.finish().cache_key(), base);
    }

    #[test]
    fn length_prefixing_prevents_sequence_aliasing() {
        let mut a = KeyHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = KeyHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
