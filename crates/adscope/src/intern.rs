//! Content-Type interning for the extraction hot path.
//!
//! A residential trace carries a handful of distinct Content-Type strings
//! repeated across millions of requests (the paper's Table 4 prints ten
//! MIME types). Owning a fresh `String` per request for values drawn from
//! such a tiny alphabet is pure allocator churn, and cloning them again
//! into [`crate::pipeline::ClassifiedRequest`] doubles it. Interning turns
//! each distinct value into one shared `Arc<str>`; every later occurrence
//! and every downstream clone is a refcount bump.
//!
//! The User-Agent is not interned here: it is part of the user key, and the
//! extractor's user table (`crate::extract::Extractor`) shares one UA per
//! ⟨IP, UA⟩ user out of the same lookup that numbers the user.

use std::collections::HashSet;
use std::sync::Arc;

/// A per-trace string interner. Not thread-safe by design: extraction is
/// sequential (it assigns the global record order everything downstream
/// keys off), and the produced `Arc<str>`s are freely shared across the
/// classification shards afterwards.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    set: HashSet<Arc<str>>,
}

impl Interner {
    /// The shared copy of `s`, allocating only on first sight.
    pub(crate) fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(existing) = self.set.get(s) {
            existing.clone()
        } else {
            let shared: Arc<str> = Arc::from(s);
            self.set.insert(shared.clone());
            shared
        }
    }

    /// Like [`Interner::intern`] for optional values.
    pub(crate) fn intern_opt(&mut self, s: Option<&str>) -> Option<Arc<str>> {
        s.map(|s| self.intern(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_values_share_one_allocation() {
        let mut i = Interner::default();
        let a = i.intern("text/html");
        let b = i.intern("text/html");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(i.set.len(), 1);
    }

    #[test]
    fn distinct_values_stay_distinct() {
        let mut i = Interner::default();
        let a = i.intern("text/html");
        let c = i.intern("image/gif");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(&*c, "image/gif");
        assert_eq!(i.set.len(), 2);
    }

    #[test]
    fn optional_interning() {
        let mut i = Interner::default();
        assert_eq!(i.intern_opt(None), None);
        let v = i.intern_opt(Some("UA/1.0")).unwrap();
        assert_eq!(&*v, "UA/1.0");
        assert!(!i.set.is_empty());
    }
}
