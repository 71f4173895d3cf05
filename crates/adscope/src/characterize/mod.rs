//! Ad-traffic characterization: the analyses of §6–§8, each an exact,
//! mergeable fold over classified requests, gathered in [`Figures`].
//!
//! **A figure is added here**: a fold (a struct with `observe`, `merge` and
//! the accessor that reads its typed result out) in a module of its own, and
//! a field of [`Figures`] with one line in each of its `observe` and `merge`.
//! No pipeline stage, option or checkpoint code knows what is folded: the
//! stream engine takes the whole set as its [`Fold`] argument. What is kept
//! per ⟨IP, UA⟩ user, and §6.2's download indicator, are not figures here:
//! the engine keeps them once per run, in its user table and its planes,
//! checkpoints them, and reports them beside the fold
//! ([`crate::stream::StreamReport`]); over a materialized trace they are
//! [`crate::users::aggregate_users`] and the download set [`crate::infer`]
//! finds in its flows. Table 3, Figures 3–4, §6.3 and the threshold sweep
//! read those. Nor are Figures 5a and 5b: they are read off the engine's
//! hourly window plane ([`timeseries`] over a [`crate::window`] report),
//! which a checkpoint carries, so they survive a kill.

pub mod ases;
pub mod content;
pub mod rtb;
pub mod servers;
pub mod sizes;
pub mod timeseries;
pub mod whitelist;

use crate::pipeline::ClassifiedRequest;
use crate::stream::Fold;
use std::collections::HashMap;
use std::hash::Hash;

/// Requests and bytes, all and ads: the counters Tables 2, 4 and 5 and §8.1
/// share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// All requests.
    pub requests: u64,
    /// All bytes.
    pub bytes: u64,
    /// Ad requests under the paper's full definition.
    pub ad_requests: u64,
    /// Their bytes.
    pub ad_bytes: u64,
}

impl Traffic {
    fn observe(&mut self, r: &ClassifiedRequest) {
        self.requests += 1;
        self.bytes += r.bytes;
        if r.label.is_ad() {
            self.ad_requests += 1;
            self.ad_bytes += r.bytes;
        }
    }

    fn merge(&mut self, other: &Traffic) {
        self.requests += other.requests;
        self.bytes += other.bytes;
        self.ad_requests += other.ad_requests;
        self.ad_bytes += other.ad_bytes;
    }
}

/// The counters of `key`, zero the first time it is seen: a request whose
/// key is known allocates nothing.
fn counters<'m, V: Default>(map: &'m mut HashMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("just inserted")
}

/// Add another part's map in, key by key.
fn merge_maps<K: Clone + Eq + Hash, V: Default>(
    mine: &mut HashMap<K, V>,
    theirs: &HashMap<K, V>,
    add: impl Fn(&mut V, &V),
) {
    for (key, v) in theirs {
        add(mine.entry(key.clone()).or_default(), v);
    }
}

/// Every table and figure of §6–§8 but the per-user ones, folded in one
/// pass: whatever order the requests arrive in, and however they are split
/// into parts that are merged afterwards, the result is the same.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Figures {
    /// Per-server counters: §8.1, and Table 5 through [`ases::as_table`].
    pub servers: servers::ServerStudy,
    /// Table 4; its [`content::ContentTypes::total`] is Table 2's row.
    pub content: content::ContentTypes,
    /// Figure 6.
    pub sizes: sizes::Sizes,
    /// Figure 7.
    pub rtb: rtb::Handshakes,
    /// §7.3.
    pub whitelist: whitelist::Whitelist,
}

impl Figures {
    /// Nothing folded yet.
    pub fn new() -> Figures {
        Figures::default()
    }

    /// The figures of a materialized trace: the fold over its requests.
    #[cfg(test)]
    pub(crate) fn of_trace(trace: &crate::pipeline::ClassifiedTrace) -> Figures {
        let mut figures = Figures::new();
        for (pos, r) in trace.requests.iter().enumerate() {
            figures.observe(pos as u64, r);
        }
        figures
    }
}

impl Fold for Figures {
    fn observe(&mut self, _pos: u64, r: &ClassifiedRequest) {
        self.servers.observe(r);
        self.content.observe(r);
        self.sizes.observe(r);
        self.rtb.observe(r);
        self.whitelist.observe(r);
    }

    fn merge(&mut self, other: Figures) {
        self.servers.merge(&other.servers);
        self.content.merge(&other.content);
        self.sizes.merge(&other.sizes);
        self.rtb.merge(&other.rtb);
        self.whitelist.merge(&other.whitelist);
    }
}
