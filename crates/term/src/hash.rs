//! A fast hasher for tables keyed by interner-assigned ids.
//!
//! The prover's hottest tables are keyed by small integers it assigns
//! itself, or by short slices of them: the term store's hash-consing table
//! and substitution memo, the rewriter's normal-form memo, the size-change
//! graph store and closure indices, and the checker's type cache. std's
//! default SipHash-1-3 spends most of such a lookup resisting keys chosen
//! to collide; these keys need a few multiply-rotate rounds.
//!
//! [`IdHasher`] runs FxHash's round (rotate, xor in one word, multiply by
//! an odd constant). [`Hasher::write`] takes eight bytes per round, so an
//! integer slice, which std hashes as one byte slice, costs one round per
//! eight bytes. [`Hasher::finish`] rotates the well-mixed high bits of the
//! last product down into the low bits, from which hashbrown picks buckets,
//! as rustc-hash 2 does.
//!
//! Every table starts from one seed per process, drawn from std's
//! [`RandomState`]. So no input, a forged certificate included, can aim at
//! a fixed set of colliding keys, and map iteration order varies between
//! runs as it does under std's default. Tables keyed by input text (the
//! signature's name maps, the frontend's environments) keep
//! [`RandomState`].

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A [`HashMap`] keyed by interner-assigned ids, hashed by [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A [`HashSet`] of interner-assigned ids, hashed by [`IdHasher`].
pub type IdHashSet<K> = HashSet<K, IdBuildHasher>;

/// The multiplier of rustc-hash 2: odd, so each round is a bijection of
/// the running state.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Builds [`IdHasher`]s from the process-wide seed.
#[derive(Copy, Clone, Debug)]
pub struct IdBuildHasher {
    seed: u64,
}

impl Default for IdBuildHasher {
    fn default() -> IdBuildHasher {
        static SEED: OnceLock<u64> = OnceLock::new();
        IdBuildHasher {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(0u64)),
        }
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher { hash: self.seed }
    }
}

/// FxHash's multiply-rotate round over 64-bit words (see the module docs).
#[derive(Copy, Clone, Debug)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn round(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.round(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.round(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.round(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.round(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.round(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_of_a_byte_slice_is_hashed() {
        let build = IdBuildHasher::default();
        for len in 0..=17 {
            let mut a = vec![0x5au8; len + 1];
            let mut b = a.clone();
            a[len] = 1;
            b[len] = 2;
            assert_ne!(
                build.hash_one(a.as_slice()),
                build.hash_one(b.as_slice()),
                "slices of length {} differing in their last byte",
                len + 1
            );
            let (mut ha, mut hb) = (build.build_hasher(), build.build_hasher());
            ha.write(&a);
            hb.write(&b);
            assert_ne!(ha.finish(), hb.finish(), "raw write of length {}", len + 1);
        }
    }

    #[test]
    fn one_seed_per_process() {
        let (a, b) = (IdBuildHasher::default(), IdBuildHasher::default());
        assert_eq!(a.hash_one(42u32), b.hash_one(42u32));
        assert_ne!(a.hash_one(42u32), a.hash_one(43u32));
    }
}
