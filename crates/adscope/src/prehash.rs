//! Keys that carry their hash, so each per-record key is SipHashed once.
//!
//! A record's URL is looked up in two referrer-map tables and inserted into
//! one, and every time a per-user table grows, std's `HashMap` hashes each
//! stored key again. Here a key is hashed once, when it is made, with one
//! process-wide keyed SipHash (std's [`RandomState`], so the HashDoS
//! resistance stays), and tables built over [`PassThrough`] read that hash
//! back instead of hashing: growth moves stored hashes and never re-hashes a
//! URL. The extractor's ⟨IP, UA⟩ user table keys its index on the same hash.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

/// The keyed SipHash of `value`, under one key for the whole process: equal
/// values hash equally wherever and whenever they are hashed.
pub(crate) fn hash_one(value: impl Hash) -> u64 {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new).hash_one(value)
}

/// The hasher of a table whose keys carry their hash: it hands back the one
/// `u64` a key writes. Asked to hash bytes, it panics — that would be a key
/// being hashed again.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassThrough;

/// [`PassThrough`]'s hasher.
#[derive(Debug, Default)]
pub(crate) struct StoredHash(u64);

impl Hasher for StoredHash {
    fn write(&mut self, bytes: &[u8]) {
        panic!("a pre-hashed key was asked to hash {} bytes", bytes.len());
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl BuildHasher for PassThrough {
    type Hasher = StoredHash;

    fn build_hasher(&self) -> StoredHash {
        StoredHash::default()
    }
}

/// A scheme-less URL (a handle on its `Url`'s buffer) with its hash.
#[derive(Debug, Clone)]
pub(crate) struct UrlKey {
    hash: u64,
    text: Arc<str>,
}

impl UrlKey {
    /// Hash `text` and keep the hash beside it.
    pub(crate) fn new(text: Arc<str>) -> UrlKey {
        UrlKey {
            hash: hash_one(&*text),
            text,
        }
    }

    /// The URL.
    pub(crate) fn text(&self) -> &Arc<str> {
        &self.text
    }
}

impl PartialEq for UrlKey {
    fn eq(&self, other: &UrlKey) -> bool {
        self.hash == other.hash && self.text == other.text
    }
}

impl Eq for UrlKey {}

impl Hash for UrlKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A table keyed by [`UrlKey`]s, hashed by their stored hash.
pub(crate) type UrlMap<V> = HashMap<UrlKey, V, PassThrough>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8, u32),
        Remove(u8),
        Get(u8),
        /// Keep the entries whose value is divisible by this.
        Retain(u32),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..48, 0u32..1000).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u8..48).prop_map(Op::Remove),
            (0u8..48).prop_map(Op::Get),
            (2u32..5).prop_map(Op::Retain),
        ]
    }

    proptest! {
        /// A `UrlMap` answers every operation as a plain map over the URLs.
        #[test]
        fn a_url_map_behaves_as_a_plain_map(ops in proptest::collection::vec(op(), 1..200)) {
            let mut keyed: UrlMap<u32> = UrlMap::default();
            let mut plain: HashMap<Arc<str>, u32> = HashMap::new();
            let url = |k: u8| -> Arc<str> { format!("host{}.example/p/{k}", k % 7).into() };
            for op in ops {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(
                        keyed.insert(UrlKey::new(url(k)), v),
                        plain.insert(url(k), v)
                    ),
                    Op::Remove(k) => prop_assert_eq!(
                        keyed.remove(&UrlKey::new(url(k))),
                        plain.remove(&url(k))
                    ),
                    Op::Get(k) => prop_assert_eq!(
                        keyed.get(&UrlKey::new(url(k))),
                        plain.get(&url(k))
                    ),
                    Op::Retain(d) => {
                        keyed.retain(|_, v| *v % d == 0);
                        plain.retain(|_, v| *v % d == 0);
                    }
                }
                prop_assert_eq!(keyed.len(), plain.len());
            }
            for (k, v) in &keyed {
                prop_assert_eq!(plain.get(k.text()), Some(v));
            }
        }
    }

    /// Growth from empty to 10 000 entries moves the stored hashes: the
    /// pass-through hasher, which panics on bytes, is never asked to hash.
    #[test]
    fn a_growing_url_map_never_hashes_a_url_again() {
        let mut map: UrlMap<usize> = UrlMap::default();
        for i in 0..10_000 {
            map.insert(UrlKey::new(format!("a.example/{i}").into()), i);
        }
        assert_eq!(map.len(), 10_000);
        assert_eq!(map.get(&UrlKey::new("a.example/4242".into())), Some(&4242));
        map.retain(|_, i| *i % 2 == 0);
        map.shrink_to_fit();
        assert_eq!(map.len(), 5_000);
    }
}
