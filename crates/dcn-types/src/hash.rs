//! A small multiplicative hasher for the simulator's integer-keyed maps;
//! see [`FastHasher`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier with well-spread bits (the golden-ratio-derived
/// constant of the Fx family of hashers).
const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

/// A multiplicative [`Hasher`] for small integer keys: each word is folded
/// in with one rotate, xor and multiply, and [`finish`](Hasher::finish)
/// folds the high bits down. Deterministic: there is no random seed.
///
/// The hot maps of the fabric engine are keyed by [`FlowId`](crate::FlowId)
/// and [`Voq`](crate::Voq): one or two machine words, probed hundreds of
/// times per scheduling decision. The standard library's SipHash-1-3 costs
/// tens of nanoseconds per probe on such keys; this hasher costs a few.
///
/// **Not flood-resistant.** Without a secret seed, whoever chooses the
/// keys can make them collide and degrade a map to linear probing. That is
/// acceptable here: the keys are flow ids and pairs of host indices
/// bounded by the topology, no map is shared between runs or callers, and
/// a collision costs time, never correctness. The one place keys come from
/// outside — flow ids fed to a fabric through its online API — lets a
/// caller slow down only its own run. The maps built on this hasher are
/// only probed, never iterated on a path that produces output (the flow
/// table's invariant check walks its VOQ index, but only to find a
/// violation), so it cannot change any output order either.
///
/// # Example
///
/// ```
/// use dcn_types::{FastMap, FlowId, HostId, Voq};
///
/// let mut owner: FastMap<Voq, FlowId> = FastMap::default();
/// owner.insert(Voq::new(HostId::new(0), HostId::new(1)), FlowId::new(7));
/// assert_eq!(owner[&Voq::new(HostId::new(0), HostId::new(1))], FlowId::new(7));
/// assert!(!owner.contains_key(&Voq::new(HostId::new(1), HostId::new(0))));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward only: fold the well-mixed high bits
        // down to where the table takes its bucket index, so keys that
        // differ only in high bits (strided ids) still spread.
        let folded = self.hash ^ (self.hash >> 32);
        folded ^ (folded >> 16)
    }
}

/// A [`HashMap`] hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A [`HashSet`] hashed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowId, HostId, Voq};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_order_matters() {
        let a = Voq::new(HostId::new(3), HostId::new(9));
        assert_eq!(
            hash_of(a),
            hash_of(Voq::new(HostId::new(3), HostId::new(9)))
        );
        assert_ne!(
            hash_of(a),
            hash_of(Voq::new(HostId::new(9), HostId::new(3)))
        );
        assert_ne!(hash_of(FlowId::new(1)), hash_of(FlowId::new(2)));
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        assert_ne!(hash_of([1u8; 9].as_slice()), hash_of([1u8; 8].as_slice()));
    }

    #[test]
    fn structured_keys_spread_over_low_bits() {
        // Sequential and strided flow ids and a dense VOQ grid must not
        // pile into a few buckets of a small table (the low bits pick the
        // bucket). A uniform hash fills about 1 - 1/e ≈ 63 % of them.
        let spread = |hashes: &mut dyn Iterator<Item = u64>| {
            hashes.map(|h| h & 1023).collect::<FastSet<u64>>().len()
        };
        let sequential = spread(&mut (0..1024).map(|id| hash_of(FlowId::new(id))));
        let strided = spread(&mut (0..1024).map(|id| hash_of(FlowId::new(id << 16))));
        let grid = spread(
            &mut (0..1024).map(|i| hash_of(Voq::new(HostId::new(i / 32), HostId::new(i % 32)))),
        );
        for (keys, buckets) in [
            ("sequential", sequential),
            ("strided", strided),
            ("grid", grid),
        ] {
            assert!(
                buckets > 512,
                "{keys} keys fill only {buckets} of 1024 buckets"
            );
        }
    }
}
