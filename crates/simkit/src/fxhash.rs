//! Deterministic, fast hashing for simulation-internal maps.
//!
//! `std`'s default hasher is SipHash behind a per-process random seed —
//! robust against adversarial keys, but slow for the small integer/tuple
//! keys the hot paths use (per-packet link lookups, per-slot wake
//! tables), and randomly ordered between processes. Simulation state is
//! never attacker-controlled, so these maps use the rustc-style "Fx"
//! multiply-xor hash instead: a few cycles per key, **no random state**,
//! so iteration order — like everything else here — is a pure function
//! of the inputs.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by the deterministic Fx hash.
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed by the deterministic Fx hash.
#[allow(clippy::disallowed_types)]
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// The rustc Fx word hasher: `state = rotl5(state) ^ word, * K`.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
        // Length fold keeps `"ab" + "c"` and `"a" + "bc"` distinct.
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(&(3usize, 7usize)), hash_of(&(3usize, 7usize)));
        assert_eq!(hash_of(&"delta_n"), hash_of(&"delta_n"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let keys: Vec<u64> = (0..1000).map(|i| hash_of(&(i as usize, 0usize))).collect();
        let distinct: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "no collisions on a dense range");
    }

    #[test]
    fn byte_stream_chunking_is_length_stable() {
        // Same concatenated bytes split differently must differ (the
        // length fold), same split must agree.
        assert_ne!(hash_of(&("ab", "c")), hash_of(&("a", "bc")));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<(usize, usize), u64> = FxHashMap::default();
        m.insert((1, 2), 3);
        assert_eq!(m.get(&(1, 2)), Some(&3));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(9);
        assert!(s.contains(&9));
    }
}
