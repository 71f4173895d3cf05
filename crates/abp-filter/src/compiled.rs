//! The compiled filter engine: arena-backed, fingerprint-prefiltered
//! matching at EasyList scale.
//!
//! [`CompiledEngine::from_lists`] lowers parsed filter lists, and
//! [`CompiledEngine::compile`] a loaded [`Engine`], through one routine
//! into flat arrays:
//!
//! * every literal's bytes live in one byte arena, every pattern is a span
//!   of compact [`CompiledSegment`]s, and every `$domain=` list is a span
//!   of FNV-64 hashes — a [`CompiledRule`] is a few words of indices, so
//!   the match path never chases per-rule `String`/`Vec` allocations;
//! * the `HashMap<token, Vec<Entry>>` index becomes a sorted flat
//!   token→bucket table probed by binary search, with a per-candidate
//!   64-bit *required-token fingerprint* (and the AND over each bucket):
//!   a candidate whose required tokens are not all present in the URL's
//!   token signature is rejected without touching rule memory;
//! * every bucket entry whose index token is *sealed* inside its literal
//!   carries a [`LiteralAlignment`]: the literal must then sit around one
//!   of the token's occurrences in the URL. Each bucket groups these
//!   entries by [`Shape`] and sorts them by literal bytes, so a visit
//!   binary-searches the URL window at `occurrence − offset` once per
//!   shape instead of comparing every entry — what keeps a bucket of
//!   hundreds of rules sharing one token (`&ads_id=1`, `&ads_id=2`, …)
//!   cheap;
//! * `$document` exceptions reuse the host-keyed layout of the reference
//!   engine as a sorted flat table over rule ids.
//!
//! The verdict is **byte-identical** to [`Engine::classify`] — including
//! `first_match_depth` (pre-filter-rejected candidates still count: they
//! were surfaced, they just provably cannot match) and per-list attribution
//! order. The differential proptest suite and the adscope equivalence
//! harness pin this.

use crate::engine::{
    host_key, host_suffix_hashes, write_lower_url, Classification, ClassifyScratch, Engine,
    FilterRef, ListId, Request,
};
use crate::matcher::{host_span, is_separator};
use crate::options::{FilterOptions, PartyConstraint};
use crate::rule::{Anchor, NetFilter, Pattern, Segment};
use crate::subscription::FilterList;
use crate::tokenizer::{
    filter_index_token, fnv_step, hash_token, url_tokens_with_starts_into, IndexToken, FNV_OFFSET,
    MIN_TOKEN_LEN,
};
use http_model::{is_third_party, ContentCategory};
use std::cell::OnceCell;
use std::sync::Arc;

/// One pattern segment, with literal bytes referenced by arena span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompiledSegment {
    /// Literal bytes at `lit_arena[offset..offset + len]`.
    Lit(u32, u32),
    /// `*` — any run of characters (including empty).
    Star,
    /// `^` — a single separator character, or the end of the URL.
    Sep,
}

/// One flattened rule: indices into the shared arenas, no owned data.
#[derive(Debug, Clone, Copy, Default)]
struct CompiledRule {
    list: u32,
    anchor: Anchor,
    end_anchor: bool,
    type_mask: u16,
    party: PartyConstraint,
    /// Span into the segment arena.
    seg: (u32, u32),
    /// `$domain=` include hashes: span into the domain arena.
    include: (u32, u32),
    /// `$domain=~` exclude hashes: span into the domain arena.
    exclude: (u32, u32),
}

/// Where a bucket entry's index token sits inside its literal. Recorded
/// only when that run is sealed (see [`prefilter`]): every URL the rule
/// matches then has the run as one of its own tokens, with the literal
/// around it. Compile time only: the index keeps it as the entry's
/// [`Shape`] and [`Member`].
#[derive(Debug, Clone, Copy)]
struct LiteralAlignment {
    /// Start of the literal in the literal arena.
    lit: u32,
    /// Length of the literal.
    len: u16,
    /// Offset of the index token within the literal.
    off: u16,
}

/// One shape of a bucket's entries: the aligned entries whose index token
/// sits at offset `off` of a literal `len` bytes long, sorted by literal
/// bytes — or, with `len == 0`, the bucket's unaligned entries (an
/// unsealed run, the untokenized tail, a literal longer than `u16`), which
/// every visit passes.
#[derive(Debug, Clone, Copy)]
struct Shape {
    off: u16,
    len: u16,
    /// The shape's first member; the next shape's `start` ends them.
    start: u32,
}

/// One entry of a [`Shape`]: the start of its literal in the literal
/// arena (unused in an unaligned shape) and its position in `entries`.
#[derive(Debug, Clone, Copy)]
struct Member {
    lit: u32,
    pos: u32,
}

/// Sorted flat token table: `keys[i]` owns `entries[buckets[i].0 ..
/// buckets[i].1]`; `bucket_fp[i]` is the AND of those entries'
/// fingerprints, so a whole bucket can be rejected with one mask test.
/// The untokenized tail is one more bucket, at index `keys.len()`.
/// Lookup goes through `slots`, an open-addressed probe table over the
/// (already FNV-mixed) token hashes — one or two cache lines per probe
/// instead of the ~15 dependent loads of a binary search at EasyList
/// scale. `keys` stays sorted so bucket order (and with it the compile
/// layout) is deterministic.
#[derive(Debug, Default, Clone)]
struct CompiledIndex {
    keys: Vec<u64>,
    buckets: Vec<(u32, u32)>,
    bucket_fp: Vec<u64>,
    /// Open-addressed `(token, bucket index)` slots; `u32::MAX` = empty.
    /// Power-of-two length, ≤50% load.
    slots: Vec<(u64, u32)>,
    /// One bit per 2× slot position: a membership pre-filter small enough
    /// to stay L1-resident at EasyList scale, so the (cache-cold) probe
    /// table is only touched for tokens that are plausibly present.
    bloom: Vec<u64>,
    /// Per-bucket mask of the lists its entries belong to (bit = `ListId`;
    /// ids ≥ 64 poison the mask to "all lists"). When every list in a
    /// bucket has already recorded a blocking match, the whole bucket is
    /// dup-list-skippable and only contributes to the candidate count.
    bucket_lists: Vec<u64>,
    /// List mask of the untokenized tail.
    untok_lists: u64,
    /// Rule ids, bucket by bucket, untokenized tail last.
    entries: Vec<u32>,
    /// Required-token fingerprints parallel to `entries`.
    fps: Vec<u64>,
    /// Bucket `b`'s shapes are `shapes[bucket_shapes[b]..bucket_shapes[b +
    /// 1]]`, its unaligned shape (if any) first.
    bucket_shapes: Vec<u32>,
    /// Every bucket's shapes, then a sentinel whose `start` ends the last.
    shapes: Vec<Shape>,
    members: Vec<Member>,
}

impl CompiledIndex {
    /// The bucket index of the untokenized tail.
    #[inline]
    fn tail(&self) -> usize {
        self.keys.len()
    }

    /// Visit bucket `b`'s `survivors` (see [`CompiledEngine::survivors`])
    /// in bucket order — `visit` gets each one's position in the bucket and
    /// its rule id — until `visit` returns `Some`. Every entry before that
    /// point (all of them, if it never does) that did not survive adds one
    /// to `rejects`.
    fn walk<R>(
        &self,
        b: usize,
        survivors: &[u32],
        rejects: &mut u64,
        mut visit: impl FnMut(u64, u32) -> Option<R>,
    ) -> Option<R> {
        let (start, end) = self.buckets[b];
        for (passed, &j) in survivors.iter().enumerate() {
            let pos = u64::from(j - start);
            if let Some(r) = visit(pos, self.entries[j as usize]) {
                *rejects += pos - passed as u64;
                return Some(r);
            }
        }
        *rejects += u64::from(end - start) - survivors.len() as u64;
        None
    }

    /// The members of shape `k`.
    #[inline]
    fn members(&self, k: usize) -> &[Member] {
        &self.members[self.shapes[k].start as usize..self.shapes[k + 1].start as usize]
    }

    /// Close a bucket [`Builder::index`] filled — `(key, first entry, AND of
    /// fingerprints, list mask)`, key `None` for the untokenized tail —
    /// with its `loose` and `aligned` entries, and clear those for the next.
    fn close_bucket(
        &mut self,
        (key, start, and_fp, lists): (Option<u64>, u32, u64, u64),
        loose: &mut Vec<u32>,
        aligned: &mut Vec<(LiteralAlignment, u32)>,
        lit_arena: &[u8],
    ) {
        self.push_bucket(start, loose, aligned, lit_arena);
        loose.clear();
        aligned.clear();
        match key {
            Some(key) => {
                self.keys.push(key);
                self.bucket_fp.push(and_fp);
                self.bucket_lists.push(lists);
            }
            None => self.untok_lists = lists,
        }
    }

    /// Close the bucket whose entries start at `start`: record its span and
    /// its shapes, the `loose` (unaligned) entries first, then the
    /// `aligned` ones grouped by (offset, length) and sorted by literal.
    fn push_bucket(
        &mut self,
        start: u32,
        loose: &[u32],
        aligned: &mut [(LiteralAlignment, u32)],
        lit_arena: &[u8],
    ) {
        self.buckets.push((start, self.entries.len() as u32));
        self.bucket_shapes.push(self.shapes.len() as u32);
        if !loose.is_empty() {
            self.shapes.push(Shape {
                off: 0,
                len: 0,
                start: self.members.len() as u32,
            });
            self.members
                .extend(loose.iter().map(|&pos| Member { lit: 0, pos }));
        }
        let bytes = |a: &LiteralAlignment| &lit_arena[a.lit as usize..][..usize::from(a.len)];
        aligned.sort_unstable_by(|(a, i), (b, j)| {
            (a.off, a.len, bytes(a), i).cmp(&(b.off, b.len, bytes(b), j))
        });
        for (i, &(a, pos)) in aligned.iter().enumerate() {
            if i == 0 || (aligned[i - 1].0.off, aligned[i - 1].0.len) != (a.off, a.len) {
                self.shapes.push(Shape {
                    off: a.off,
                    len: a.len,
                    start: self.members.len() as u32,
                });
            }
            self.members.push(Member { lit: a.lit, pos });
        }
    }

    /// Build the probe table and bloom from the sorted `keys`.
    fn build_slots(&mut self) {
        let cap = (self.keys.len() * 2).next_power_of_two().max(8);
        self.slots = vec![(0, u32::MAX); cap];
        self.bloom = vec![0u64; (cap * 4).div_ceil(64)];
        let mask = cap - 1;
        for (bi, &k) in self.keys.iter().enumerate() {
            let mut i = (k as usize) & mask;
            while self.slots[i].1 != u32::MAX {
                i = (i + 1) & mask;
            }
            self.slots[i] = (k, bi as u32);
            let (b1, b2) = bloom_bits(k, self.bloom.len());
            self.bloom[b1 >> 6] |= 1u64 << (b1 & 63);
            self.bloom[b2 >> 6] |= 1u64 << (b2 & 63);
        }
    }

    #[inline]
    fn bucket(&self, token: u64) -> Option<usize> {
        // The bloom indexes on high hash bits (the slots use low bits), so
        // a miss here is resolved without touching the (much larger, and
        // usually cache-cold) probe table.
        let (b1, b2) = bloom_bits(token, self.bloom.len());
        if self.bloom[b1 >> 6] & (1u64 << (b1 & 63)) == 0
            || self.bloom[b2 >> 6] & (1u64 << (b2 & 63)) == 0
        {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (token as usize) & mask;
        loop {
            let (t, b) = self.slots[i];
            if b == u32::MAX {
                return None;
            }
            if t == token {
                return Some(b as usize);
            }
            i = (i + 1) & mask;
        }
    }
}

/// Two bloom bit positions drawn from distinct high windows of the token
/// hash (`words` is the bloom length in `u64`s, a power of two).
#[inline]
fn bloom_bits(token: u64, words: usize) -> (usize, usize) {
    let bit_mask = words * 64 - 1;
    (
        (token as usize >> 32) & bit_mask,
        (token as usize >> 45) & bit_mask,
    )
}

/// Host-keyed `$document` exception table (see `engine::host_key`): a
/// sorted flat map from host-suffix hash to rule ids, plus the linear
/// fallback for prefix-shaped rules.
#[derive(Debug, Default, Clone)]
struct CompiledDocIndex {
    keys: Vec<u64>,
    buckets: Vec<(u32, u32)>,
    entries: Vec<u32>,
    fallback: Vec<u32>,
}

/// Compile-time figures, exported as gauges and printed by the
/// experiments metrics table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Total rules lowered (blocking + exceptions + `$document`).
    pub rules: usize,
    /// Token buckets across the blocking and exception tables.
    pub buckets: usize,
    /// Bytes across the literal/segment/domain/entry/pre-filter arenas.
    pub arena_bytes: usize,
}

/// Metric handles for the compiled match path; local tallies are flushed
/// as one atomic add per counter per classify call.
#[derive(Debug, Clone)]
struct CompiledMetrics {
    requests: obs::Counter,
    rules_evaluated: obs::Counter,
    tokenizer_hits: obs::Counter,
    whitelist_overrides: obs::Counter,
    first_match_depth: obs::Histogram,
    /// Candidates surfaced by the token table (including rejected ones).
    candidates: obs::Counter,
    /// Candidates rejected by a pre-filter (required-token fingerprint or
    /// literal alignment) before the pattern matcher runs.
    prefilter_rejects: obs::Counter,
}

impl CompiledMetrics {
    fn bind(registry: &obs::Registry) -> CompiledMetrics {
        CompiledMetrics {
            requests: registry.counter("abp_requests_total"),
            rules_evaluated: registry.counter("abp_rules_evaluated_total"),
            tokenizer_hits: registry.counter("abp_tokenizer_hits_total"),
            whitelist_overrides: registry.counter("abp_whitelist_overrides_total"),
            first_match_depth: registry.histogram("abp_first_match_depth"),
            candidates: registry.counter("abp_candidates_total"),
            prefilter_rejects: registry.counter("abp_prefilter_rejects_total"),
        }
    }
}

/// The compiled engine. Build once with [`CompiledEngine::from_lists`] or
/// [`CompiledEngine::compile`]; all classify state lives in the caller's
/// [`ClassifyScratch`], so one engine serves any number of threads.
#[derive(Debug, Clone)]
pub struct CompiledEngine {
    rules: Vec<CompiledRule>,
    /// Raw rule text per rule id, shared with handed-out [`FilterRef`]s.
    raw: Vec<Arc<str>>,
    segs: Vec<CompiledSegment>,
    lit_arena: Vec<u8>,
    domain_arena: Vec<u64>,
    blocking: CompiledIndex,
    exceptions: CompiledIndex,
    doc: CompiledDocIndex,
    stats: CompileStats,
    metrics: CompiledMetrics,
}

/// The table a rule lowers into. Rule ids follow this order: the blocking
/// table's rules, then the exceptions', then the `$document` rules.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Table {
    Blocking,
    Exceptions,
    Document,
}

/// One lowered rule: its id, key, list, required-token fingerprint and
/// alignment. In a token table the key is the rule's bucket (`None` in the
/// untokenized tail); for a `$document` rule it is its host key's hash
/// (`None` on the linear fallback).
struct Lowered {
    id: u32,
    key: Option<u64>,
    list: ListId,
    fp: u64,
    align: Option<LiteralAlignment>,
}

/// A rule's share of the segment, literal and domain arenas: counted by
/// the first pass of [`Builder::lower`], rewritten in place as the rule's
/// offsets, read by the second.
#[derive(Clone, Copy, Default)]
struct Extent {
    segs: u32,
    lits: u32,
    domains: u32,
}

/// The engine's rules and arenas, sized once and filled by
/// [`Builder::lower`].
struct Builder {
    rules: Vec<CompiledRule>,
    raw: Vec<Arc<str>>,
    segs: Vec<CompiledSegment>,
    lit_arena: Vec<u8>,
    domain_arena: Vec<u64>,
}

impl Builder {
    /// The one lowering routine. `rules` yields every rule with its table
    /// and list, in load order; it is read twice, both times in that order,
    /// so each rule's own allocations are visited once a pass and in the
    /// order the parser made them:
    ///
    /// 1. The first pass keys each rule (its index token, or its host key
    ///    in the `$document` table), takes its pre-filters, locates the
    ///    literal of a sealed index token within the rule's own literal
    ///    bytes, and counts its segments, literal bytes and domains.
    /// 2. The rules are then put in id order — the tables in [`Table`]
    ///    order, each token table stable-sorted by index token with the
    ///    untokenized rules last, the `$document` rules as given — and
    ///    prefix sums over that order turn every rule's counts into its
    ///    offsets, so each arena is allocated once, at its final size.
    /// 3. The second pass writes each rule's [`CompiledRule`], text,
    ///    segments, literal bytes and domain hashes at its place.
    ///
    /// Returns the filled arenas, the lowered rules in id order and the
    /// ids where the exceptions and the `$document` rules start: what
    /// [`Self::finish`] builds the tables from. Beside the lowered rules
    /// it holds one [`Extent`] a rule, and while it orders them, before any
    /// arena is allocated, one 16-byte sort entry.
    fn lower<'a>(
        rules: impl Iterator<Item = (Table, ListId, &'a NetFilter)> + Clone,
    ) -> (Builder, Vec<Lowered>, [usize; 2]) {
        let n = rules.clone().count();
        let mut lowered = Vec::with_capacity(n);
        let mut extents = Vec::with_capacity(n);
        // `(key, position, class)`, to be sorted by class, key and position:
        // a stable sort by table and key, with the untokenized rules (odd
        // class) last in each token table and the `$document` rules (class
        // 4) in the order given. Each entry carries its key, so the sort
        // looks nothing up.
        let mut order: Vec<(u64, u32, u8)> = Vec::with_capacity(n);
        let mut in_table = [0usize; 3];
        for (table, list, f) in rules.clone() {
            in_table[table as usize] += 1;
            let lits: usize = f.pattern.literals().map(str::len).sum();
            let domains = f.options.include_domains.len() + f.options.exclude_domains.len();
            extents.push(Extent {
                segs: f.pattern.segments.len() as u32,
                lits: lits as u32,
                domains: domains as u32,
            });
            let (key, fp, align) = if table == Table::Document {
                let key = host_key(&f.pattern).map(|k| hash_token(k.as_bytes()));
                (key, 0, None)
            } else {
                // The same function `TokenIndex::insert` keys an entry with,
                // so the alignment describes the bucket's own run.
                let index = filter_index_token(f.pattern.literals());
                let (fp, index_sealed) = prefilter(&f.pattern, index);
                let align = index
                    .filter(|_| index_sealed)
                    .and_then(|t| alignment(&f.pattern, t));
                (index.map(|t| t.hash), fp, align)
            };
            let (sort_key, class) = match table {
                Table::Document => (0, 4),
                _ => (key.unwrap_or(0), 2 * table as u8 + u8::from(key.is_none())),
            };
            order.push((sort_key, lowered.len() as u32, class));
            lowered.push(Lowered {
                id: 0,
                key,
                list,
                fp,
                align,
            });
        }

        let starts = [in_table[0], in_table[0] + in_table[1]];
        order.sort_unstable_by_key(|&(key, at, class)| (class, key, at));
        let mut total = Extent::default();
        for (id, &(_, i, _)) in order.iter().enumerate() {
            lowered[i as usize].id = id as u32;
            let counts = std::mem::replace(&mut extents[i as usize], total);
            total.segs += counts.segs;
            total.lits += counts.lits;
            total.domains += counts.domains;
        }
        drop(order);

        let mut b = Builder {
            rules: vec![CompiledRule::default(); n],
            raw: vec![Arc::from(""); n],
            segs: vec![CompiledSegment::Star; total.segs as usize],
            lit_arena: vec![0; total.lits as usize],
            domain_arena: vec![0; total.domains as usize],
        };
        for ((_, list, f), (e, &at)) in rules.zip(lowered.iter_mut().zip(&extents)) {
            b.place(e.id, list, f, at);
            if let Some(a) = &mut e.align {
                a.lit += at.lits;
            }
        }
        drop(extents);
        lowered.sort_unstable_by_key(|e| e.id);
        (b, lowered, starts)
    }

    /// Write rule `id` — segments, literal bytes and domain hashes at the
    /// offsets `at` — into the arenas.
    fn place(&mut self, id: u32, list: ListId, f: &NetFilter, at: Extent) {
        let mut lit = at.lits;
        let segs = &mut self.segs[at.segs as usize..][..f.pattern.segments.len()];
        for (slot, s) in segs.iter_mut().zip(&f.pattern.segments) {
            *slot = match s {
                Segment::Literal(l) => {
                    let (off, len) = (lit, l.len() as u32);
                    self.lit_arena[off as usize..][..l.len()].copy_from_slice(l.as_bytes());
                    lit += len;
                    CompiledSegment::Lit(off, len)
                }
                Segment::Star => CompiledSegment::Star,
                Segment::Separator => CompiledSegment::Sep,
            };
        }
        let opts = &f.options;
        let domains = opts.include_domains.iter().chain(&opts.exclude_domains);
        let slots = &mut self.domain_arena[at.domains as usize..];
        for (slot, d) in slots.iter_mut().zip(domains) {
            *slot = hash_token(d.as_bytes());
        }
        let inc_end = at.domains + opts.include_domains.len() as u32;
        self.rules[id as usize] = CompiledRule {
            list: list.0 as u32,
            anchor: f.pattern.anchor,
            end_anchor: f.pattern.end_anchor,
            type_mask: opts.type_mask_bits(),
            party: opts.party,
            seg: (at.segs, at.segs + f.pattern.segments.len() as u32),
            include: (at.domains, inc_end),
            exclude: (inc_end, inc_end + opts.exclude_domains.len() as u32),
        };
        self.raw[id as usize] = Arc::clone(&f.raw);
    }

    /// Build one token table from its [`Self::lower`]ed entries, in id
    /// order: buckets, shapes, probe slots and bloom.
    fn index(&self, lowered: &[Lowered]) -> CompiledIndex {
        let mut out = CompiledIndex {
            entries: Vec::with_capacity(lowered.len()),
            fps: Vec::with_capacity(lowered.len()),
            ..CompiledIndex::default()
        };
        let (mut loose, mut aligned) = (Vec::new(), Vec::new());
        // The bucket being filled: its key (`None` for the untokenized
        // tail), first entry, AND of fingerprints and list mask.
        let mut open: Option<(Option<u64>, u32, u64, u64)> = None;
        for e in lowered {
            if open.is_none_or(|(k, ..)| k != e.key) {
                if let Some(bucket) = open.take() {
                    debug_assert!(bucket.0.is_some_and(|k| e.key.is_none_or(|key| k < key)));
                    out.close_bucket(bucket, &mut loose, &mut aligned, &self.lit_arena);
                }
                open = Some((e.key, out.entries.len() as u32, !0, 0));
            }
            let pos = out.entries.len() as u32;
            out.entries.push(e.id);
            out.fps.push(e.fp);
            match e.align {
                Some(a) => aligned.push((a, pos)),
                None => loose.push(pos),
            }
            if let Some((_, _, and_fp, lists)) = &mut open {
                *and_fp &= e.fp;
                *lists |= list_bit(e.list.0);
            }
        }
        let tail = match open {
            Some(bucket @ (Some(_), ..)) => {
                out.close_bucket(bucket, &mut loose, &mut aligned, &self.lit_arena);
                (None, out.entries.len() as u32, !0, 0)
            }
            Some(tail) => tail,
            None => (None, 0, !0, 0),
        };
        out.close_bucket(tail, &mut loose, &mut aligned, &self.lit_arena);
        out.bucket_shapes.push(out.shapes.len() as u32);
        out.shapes.push(Shape {
            off: 0,
            len: 0,
            start: out.members.len() as u32,
        });
        out.build_slots();
        out
    }

    /// Assemble the engine from the [`Self::lower`]ed rules: the two token
    /// tables, then the `$document` table from ids `starts[1]` on.
    fn finish(self, lowered: &[Lowered], starts: [usize; 2]) -> CompiledEngine {
        let blocking = self.index(&lowered[..starts[0]]);
        let exceptions = self.index(&lowered[starts[0]..starts[1]]);
        let doc = doc_index(&lowered[starts[1]..]);
        let stats = CompileStats {
            rules: self.rules.len(),
            buckets: blocking.keys.len() + exceptions.keys.len(),
            arena_bytes: self.lit_arena.len()
                + self.segs.len() * std::mem::size_of::<CompiledSegment>()
                + self.domain_arena.len() * 8
                + (blocking.entries.len() + exceptions.entries.len() + doc.entries.len()) * 4
                + (blocking.fps.len() + exceptions.fps.len()) * 8
                + (blocking.bucket_shapes.len() + exceptions.bucket_shapes.len()) * 4
                + (blocking.shapes.len() + exceptions.shapes.len()) * std::mem::size_of::<Shape>()
                + (blocking.members.len() + exceptions.members.len())
                    * std::mem::size_of::<Member>()
                + (blocking.slots.len() + exceptions.slots.len())
                    * std::mem::size_of::<(u64, u32)>(),
        };
        let engine = CompiledEngine {
            rules: self.rules,
            raw: self.raw,
            segs: self.segs,
            lit_arena: self.lit_arena,
            domain_arena: self.domain_arena,
            blocking,
            exceptions,
            doc,
            stats,
            metrics: CompiledMetrics::bind(obs::global()),
        };
        engine.publish_stats(obs::global());
        engine
    }
}

/// The `$document` table over its lowered rules, given in id (= load)
/// order: host-keyed buckets in key order, each in id order, so sorted
/// candidate ids replay the linear scan; unkeyed rules on the fallback.
fn doc_index(lowered: &[Lowered]) -> CompiledDocIndex {
    let mut keyed: Vec<(u64, u32)> = lowered
        .iter()
        .filter_map(|e| Some((e.key?, e.id)))
        .collect();
    keyed.sort_unstable();
    let mut doc = CompiledDocIndex {
        fallback: lowered
            .iter()
            .filter(|e| e.key.is_none())
            .map(|e| e.id)
            .collect(),
        ..CompiledDocIndex::default()
    };
    for (key, id) in keyed {
        let at = doc.entries.len() as u32;
        if doc.keys.last() != Some(&key) {
            doc.keys.push(key);
            doc.buckets.push((at, at));
        }
        doc.entries.push(id);
        doc.buckets.last_mut().expect("bucket opened above").1 = at + 1;
    }
    doc
}

/// Where the sealed index token `t` sits: the start of its literal among
/// the pattern's literal bytes (the rule's own share of the literal arena),
/// the literal's length and the token's offset in it. `None` when the
/// literal or the offset exceeds the stored width.
fn alignment(pattern: &Pattern, t: IndexToken) -> Option<LiteralAlignment> {
    let mut lit = 0u32;
    for (k, l) in pattern.literals().enumerate() {
        if k == t.literal {
            return Some(LiteralAlignment {
                lit,
                len: u16::try_from(l.len()).ok()?,
                off: u16::try_from(t.offset).ok()?,
            });
        }
        lit += l.len() as u32;
    }
    None
}

/// One scan of a pattern for both pre-filters, under one sealedness rule.
///
/// An alphanumeric run of a literal is *sealed* when it is bounded on both
/// sides by a non-alphanumeric byte within the literal, an anchor, or a `^`
/// separator: the literal's bytes appear verbatim in any matching URL, so
/// a sealed run is a maximal run there too and the URL tokenizer is
/// guaranteed to emit it. Runs touching a `*` (or an unanchored pattern
/// edge) may be embedded in a longer URL run and are not sealed.
///
/// Returns the required-token fingerprint — one bit (of 64) per sealed run
/// of at least [`MIN_TOKEN_LEN`] bytes — and whether the run `index` names
/// is sealed, i.e. whether the entry may carry a [`LiteralAlignment`].
fn prefilter(pattern: &Pattern, index: Option<IndexToken>) -> (u64, bool) {
    let mut fp = 0u64;
    let mut index_sealed = false;
    let mut literal = 0usize;
    for (si, seg) in pattern.segments.iter().enumerate() {
        let Segment::Literal(l) = seg else { continue };
        let bytes = l.as_bytes();
        let start_sealed = match si.checked_sub(1).map(|p| &pattern.segments[p]) {
            Some(Segment::Separator) => true,
            Some(_) => false,
            None => pattern.anchor != Anchor::None,
        };
        let end_sealed = match pattern.segments.get(si + 1) {
            Some(Segment::Separator) => true,
            Some(_) => false,
            None => pattern.end_anchor,
        };
        let mut run_start: Option<usize> = None;
        for i in 0..=bytes.len() {
            let alnum = i < bytes.len() && bytes[i].is_ascii_alphanumeric();
            if alnum {
                if run_start.is_none() {
                    run_start = Some(i);
                }
            } else if let Some(s) = run_start.take() {
                let sealed_left = s > 0 || start_sealed;
                let sealed_right = i < bytes.len() || end_sealed;
                if i - s >= MIN_TOKEN_LEN && sealed_left && sealed_right {
                    fp |= 1u64 << (hash_token(&bytes[s..i]) & 63);
                    if index.is_some_and(|t| t.literal == literal && t.offset == s) {
                        index_sealed = true;
                    }
                }
            }
        }
        literal += 1;
    }
    (fp, index_sealed)
}

/// One mask bit per [`ListId`]; ids beyond 64 poison the mask to "all
/// lists" so the fully-matched-bucket shortcut safely disables itself.
#[inline]
fn list_bit(list: usize) -> u64 {
    if list < 64 {
        1u64 << list
    } else {
        !0u64
    }
}

/// The URL's token signature: one bit per token hash, the superset mask
/// fingerprints are tested against.
#[inline]
fn signature(tokens: &[u64]) -> u64 {
    let mut sig = 0u64;
    for &t in tokens {
        sig |= 1u64 << (t & 63);
    }
    sig
}

impl CompiledEngine {
    /// Lower a loaded engine into the flat compiled form. The source
    /// engine stays usable (and is the reference the differential suite
    /// compares against).
    pub fn compile(engine: &Engine) -> CompiledEngine {
        let token_tables = [
            (Table::Blocking, &engine.blocking),
            (Table::Exceptions, &engine.exceptions),
        ];
        let documents = engine.document_exceptions.entries.iter();
        let rules = token_tables
            .into_iter()
            .flat_map(|(table, index)| index.entries().map(move |e| (table, e)))
            .chain(documents.map(|e| (Table::Document, e)))
            .map(|(table, e)| (table, e.list, &e.filter));
        let (b, lowered, starts) = Builder::lower(rules);
        b.finish(&lowered, starts)
    }

    /// Lower filter lists straight into the compiled form, without an
    /// [`Engine`] between: the same engine [`Self::compile`] makes of the
    /// lists loaded in this order, holding the lists' own rule texts. The
    /// parsed rules are dropped once lowered, before any table's buckets,
    /// shapes and probe slots are built, so the index never sits beside
    /// them; element-hiding rules are not kept.
    pub fn from_lists(lists: Vec<FilterList>) -> CompiledEngine {
        let tables: Vec<_> = lists
            .into_iter()
            .map(|l| (l.blocking, l.exceptions))
            .collect();
        let rules = tables
            .iter()
            .enumerate()
            .flat_map(|(i, (blocking, exceptions))| {
                let exceptions = exceptions.iter().map(|f| match f.options.document {
                    true => (Table::Document, f),
                    false => (Table::Exceptions, f),
                });
                (blocking.iter().map(|f| (Table::Blocking, f)))
                    .chain(exceptions)
                    .map(move |(table, f)| (table, ListId(i), f))
            });
        let (b, lowered, starts) = Builder::lower(rules);
        drop(tables);
        b.finish(&lowered, starts)
    }

    /// Compile-time figures (rules, buckets, arena bytes).
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// Every stored literal alignment, as `(bucket key, literal, offset of
    /// the index token within it)` — what the index-token audit in
    /// `tests/engine_differential.rs` checks against [`hash_token`].
    #[doc(hidden)]
    pub fn alignment_records(&self) -> impl Iterator<Item = (u64, &[u8], usize)> + '_ {
        [&self.blocking, &self.exceptions]
            .into_iter()
            .flat_map(move |idx| {
                idx.keys.iter().enumerate().flat_map(move |(b, &key)| {
                    let shapes = idx.bucket_shapes[b] as usize..idx.bucket_shapes[b + 1] as usize;
                    shapes
                        .filter(|&k| idx.shapes[k].len != 0)
                        .flat_map(move |k| {
                            let Shape { off, len, .. } = idx.shapes[k];
                            idx.members(k).iter().map(move |m| {
                                (key, self.lit(m.lit, usize::from(len)), usize::from(off))
                            })
                        })
                })
            })
    }

    /// An FNV-1a digest of the engine's `Debug` rendering without its
    /// metric handles: every rule, text, arena, bucket, shape, probe slot
    /// and the compile figures. Two builds with one digest hold the same
    /// arrays; `tests/engine_differential.rs` compares [`Self::from_lists`]
    /// with [`Self::compile`] through it.
    #[doc(hidden)]
    pub fn layout_digest(&self) -> u64 {
        struct Fnv(u64);
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0 = s.bytes().fold(self.0, fnv_step);
                Ok(())
            }
        }
        let mut digest = Fnv(FNV_OFFSET);
        let layout = (
            (&self.rules, &self.raw, &self.segs),
            (&self.lit_arena, &self.domain_arena),
            (&self.blocking, &self.exceptions, &self.doc, &self.stats),
        );
        std::fmt::Write::write_fmt(&mut digest, format_args!("{layout:?}"))
            .expect("the digest accepts every byte");
        digest.0
    }

    /// Rebind metric handles to an explicit registry (hermetic tests;
    /// per-shard registries) and publish the compile-stat gauges there.
    pub fn bind_metrics(&mut self, registry: &obs::Registry) {
        self.metrics = CompiledMetrics::bind(registry);
        self.publish_stats(registry);
    }

    /// Set the compile-stat gauges on a registry.
    pub fn publish_stats(&self, registry: &obs::Registry) {
        registry
            .gauge("abp_compiled_rules")
            .set(self.stats.rules as f64);
        registry
            .gauge("abp_compiled_buckets")
            .set(self.stats.buckets as f64);
        registry
            .gauge("abp_compiled_arena_bytes")
            .set(self.stats.arena_bytes as f64);
    }

    /// Classify a request. Byte-identical to [`Engine::classify_in`] on
    /// the engine this was compiled from; allocation-free apart from the
    /// returned [`Classification`]'s own vectors.
    pub fn classify(&self, req: &Request<'_>, scratch: &mut ClassifyScratch) -> Classification {
        write_lower_url(req.url, &mut scratch.url_buf);
        url_tokens_with_starts_into(
            &scratch.url_buf,
            &mut scratch.tokens,
            &mut scratch.token_starts,
        );
        let url = scratch.url_buf.as_bytes();
        let (hs, he) = host_span(&scratch.url_buf);
        let page_host = req.source_url.map(|u| u.host());
        let ctx = RequestCtx {
            url,
            hs,
            he,
            sig: signature(&scratch.tokens),
            category: req.category,
            host: req.url.host(),
            page_host,
            third_party: OnceCell::new(),
            page_hashes: match page_host {
                Some(h) => scratch.page_memo.hashes(h),
                None => &[],
            },
        };
        let tokens = scratch.tokens.as_slice();
        let starts = scratch.token_starts.as_slice();
        let occ = &mut scratch.occurrences;
        let survivors = &mut scratch.survivors;

        let mut tally = Tally::default();

        // Blocking: record at most one match per list; candidate order is
        // URL tokens in order → bucket in insertion order → untokenized
        // tail, exactly the reference enumeration. The pre-filters only
        // skip evaluation of provably non-matching candidates, so the
        // surfaced-candidate count (and with it `first_match_depth`) is
        // unchanged.
        let mut blocking: Vec<FilterRef> = Vec::new();
        let mut matched_mask = 0u64;
        for &t in tokens {
            if let Some(bi) = self.blocking.bucket(t) {
                let (start, end) = self.blocking.buckets[bi];
                // A bucket whose every list already recorded a match is
                // fully dup-list-skippable: it can only contribute to the
                // candidate count (depth was fixed at the first match).
                if matched_mask != 0 && self.blocking.bucket_lists[bi] & !matched_mask == 0 {
                    tally.candidates += u64::from(end - start);
                    continue;
                }
                if self.blocking.bucket_fp[bi] & !ctx.sig != 0 {
                    let n = u64::from(end - start);
                    tally.candidates += n;
                    tally.prefilter_rejects += n;
                    continue;
                }
                occurrences_into(t, tokens, starts, occ);
                let before = blocking.len();
                self.block_span(bi, occ, &ctx, survivors, &mut blocking, &mut tally);
                for f in &blocking[before..] {
                    matched_mask |= list_bit(f.list.0);
                }
            }
        }
        let tail = self.blocking.tail();
        let (ustart, uend) = self.blocking.buckets[tail];
        if matched_mask != 0 && self.blocking.untok_lists & !matched_mask == 0 {
            tally.candidates += u64::from(uend - ustart);
        } else {
            self.block_span(tail, &[], &ctx, survivors, &mut blocking, &mut tally);
        }
        blocking.sort_by_key(|f| f.list);
        let tokenizer_hits = tally.candidates.saturating_sub(u64::from(uend - ustart));

        // Exceptions against the request URL: first applicable wins.
        let mut exception: Option<FilterRef> = 'exceptions: {
            for &t in tokens {
                if let Some(bi) = self.exceptions.bucket(t) {
                    let (start, end) = self.exceptions.buckets[bi];
                    if self.exceptions.bucket_fp[bi] & !ctx.sig != 0 {
                        tally.prefilter_rejects += u64::from(end - start);
                        continue;
                    }
                    occurrences_into(t, tokens, starts, occ);
                    if let Some(f) = self.exception_span(bi, occ, &ctx, survivors, &mut tally) {
                        break 'exceptions Some(f);
                    }
                }
            }
            let tail = self.exceptions.tail();
            self.exception_span(tail, &[], &ctx, survivors, &mut tally)
        };

        // `$document` exceptions against the page URL (and, for document
        // requests, the request itself): host-keyed candidates evaluated
        // in insertion (= rule id) order.
        let mut page_whitelisted = false;
        if exception.is_none() && !(self.doc.keys.is_empty() && self.doc.fallback.is_empty()) {
            let is_doc = req.category == ContentCategory::Document;
            // Candidate discovery needs only the target's host-suffix
            // hashes: non-document requests reuse the page hashes of the
            // context (`hash_token` case-folds, so raw and lowered hosts
            // hash alike); document requests hash their own host, already
            // lowered in the URL buffer.
            let target_hashes = if is_doc {
                host_suffix_hashes(
                    &scratch.url_buf[hs..he.min(url.len())],
                    &mut scratch.host_hashes,
                );
                Some(scratch.host_hashes.as_slice())
            } else {
                ctx.page_host.map(|_| ctx.page_hashes)
            };
            if let Some(target_hashes) = target_hashes {
                scratch.candidates.clear();
                scratch.candidates.extend_from_slice(&self.doc.fallback);
                for h in target_hashes {
                    if let Ok(i) = self.doc.keys.binary_search(h) {
                        let (s, e) = self.doc.buckets[i];
                        scratch
                            .candidates
                            .extend_from_slice(&self.doc.entries[s as usize..e as usize]);
                    }
                }
                scratch.candidates.sort_unstable();
                scratch.candidates.dedup();
                if !scratch.candidates.is_empty() {
                    // Only a live candidate needs the target's lowered
                    // text; document requests already have it in the URL
                    // buffer, page targets lower lazily here.
                    let (page_bytes, phs, phe) = if is_doc {
                        (url, hs, he)
                    } else {
                        let page = req.source_url.expect("has_page implies source_url");
                        write_lower_url(page, &mut scratch.page_buf);
                        let (phs, phe) = host_span(&scratch.page_buf);
                        (scratch.page_buf.as_bytes(), phs, phe)
                    };
                    for &id in &scratch.candidates {
                        let rule = &self.rules[id as usize];
                        if self.match_pattern(rule, page_bytes, phs, phe) {
                            exception = Some(FilterRef {
                                list: ListId(rule.list as usize),
                                filter: Arc::clone(&self.raw[id as usize]),
                            });
                            page_whitelisted = !is_doc;
                            break;
                        }
                    }
                }
            }
        }

        self.metrics.requests.inc();
        self.metrics.rules_evaluated.add(tally.rules_evaluated);
        self.metrics.tokenizer_hits.add(tokenizer_hits);
        self.metrics.candidates.add(tally.candidates);
        self.metrics.prefilter_rejects.add(tally.prefilter_rejects);
        if let Some(depth) = tally.first_match_depth {
            self.metrics.first_match_depth.record(depth);
        }
        if exception.is_some() && !blocking.is_empty() {
            self.metrics.whitelist_overrides.inc();
        }

        Classification {
            blocking,
            exception,
            page_whitelisted,
            first_match_depth: tally
                .first_match_depth
                .map(|d| d.min(u64::from(u32::MAX)) as u32),
        }
    }

    /// `len` literal bytes at `lit` in the literal arena.
    #[inline]
    fn lit(&self, lit: u32, len: usize) -> &[u8] {
        &self.lit_arena[lit as usize..lit as usize + len]
    }

    /// Gather into `out`, ascending, the positions of bucket `b`'s entries
    /// that pass both pre-filters: the required-token fingerprint, and for
    /// an aligned entry a literal equal to the URL window at `occurrence −
    /// off` for one of the token's occurrences `occ`. One binary search per
    /// occurrence and shape finds every such entry, so a fat bucket costs
    /// its shapes, not its entries.
    fn survivors(
        &self,
        idx: &CompiledIndex,
        b: usize,
        occ: &[usize],
        ctx: &RequestCtx<'_>,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let fp_ok = |m: &&Member| idx.fps[m.pos as usize] & !ctx.sig == 0;
        for k in idx.bucket_shapes[b] as usize..idx.bucket_shapes[b + 1] as usize {
            let members = idx.members(k);
            let Shape { off, len, .. } = idx.shapes[k];
            if len == 0 {
                out.extend(members.iter().filter(fp_ok).map(|m| m.pos));
                continue;
            }
            let (off, len) = (usize::from(off), usize::from(len));
            for &at in occ {
                let Some(window) = at.checked_sub(off).and_then(|w| ctx.url.get(w..w + len)) else {
                    continue;
                };
                let same = |m: &&Member| self.lit(m.lit, len) == window;
                let Ok(hit) = members.binary_search_by(|m| self.lit(m.lit, len).cmp(window)) else {
                    continue;
                };
                // Entries sharing one literal (several options or lists)
                // sit side by side.
                let lo = hit - members[..hit].iter().rev().take_while(same).count();
                let hi = hit + 1 + members[hit + 1..].iter().take_while(same).count();
                out.extend(members[lo..hi].iter().filter(fp_ok).map(|m| m.pos));
            }
        }
        if out.len() > 1 {
            out.sort_unstable();
            out.dedup();
        }
    }

    /// Evaluate blocking bucket `b`: at most one match per list, the
    /// depth of the first counting every candidate before it.
    fn block_span(
        &self,
        b: usize,
        occ: &[usize],
        ctx: &RequestCtx<'_>,
        survivors: &mut Vec<u32>,
        blocking: &mut Vec<FilterRef>,
        tally: &mut Tally,
    ) {
        let (start, end) = self.blocking.buckets[b];
        let before = tally.candidates;
        tally.candidates += u64::from(end - start);
        let Tally {
            prefilter_rejects,
            rules_evaluated,
            first_match_depth,
            ..
        } = tally;
        self.survivors(&self.blocking, b, occ, ctx, survivors);
        self.blocking
            .walk(b, survivors, prefilter_rejects, |pos, id| {
                let rule = &self.rules[id as usize];
                if blocking.iter().any(|f| f.list.0 == rule.list as usize) {
                    return None::<()>;
                }
                *rules_evaluated += 1;
                if self.rule_applies(rule, ctx) {
                    first_match_depth.get_or_insert(before + pos);
                    blocking.push(FilterRef {
                        list: ListId(rule.list as usize),
                        filter: Arc::clone(&self.raw[id as usize]),
                    });
                }
                None
            });
    }

    /// Evaluate exception bucket `b`; `Some` on the first match.
    fn exception_span(
        &self,
        b: usize,
        occ: &[usize],
        ctx: &RequestCtx<'_>,
        survivors: &mut Vec<u32>,
        tally: &mut Tally,
    ) -> Option<FilterRef> {
        let Tally {
            prefilter_rejects,
            rules_evaluated,
            ..
        } = tally;
        self.survivors(&self.exceptions, b, occ, ctx, survivors);
        self.exceptions
            .walk(b, survivors, prefilter_rejects, |_, id| {
                let rule = &self.rules[id as usize];
                *rules_evaluated += 1;
                self.rule_applies(rule, ctx).then(|| FilterRef {
                    list: ListId(rule.list as usize),
                    filter: Arc::clone(&self.raw[id as usize]),
                })
            })
    }

    /// The compiled form of the reference `applies` closure: type mask,
    /// hashed domain sets, party constraint, then the pattern.
    fn rule_applies(&self, rule: &CompiledRule, ctx: &RequestCtx<'_>) -> bool {
        if rule.type_mask & FilterOptions::type_bit(ctx.category) == 0 {
            return false;
        }
        if !self.domain_applies(rule, ctx.page_host.is_some(), ctx.page_hashes) {
            return false;
        }
        let party_ok = match rule.party {
            PartyConstraint::Any => true,
            PartyConstraint::ThirdOnly => ctx.third_party(),
            PartyConstraint::FirstOnly => !ctx.third_party(),
        };
        party_ok && self.match_pattern(rule, ctx.url, ctx.hs, ctx.he)
    }

    /// `FilterOptions::applies_on_domain` over flat hash spans: exclusion
    /// first, then include-empty-or-any, against the page host's
    /// dot-suffix hashes.
    fn domain_applies(&self, rule: &CompiledRule, has_page: bool, page_hashes: &[u64]) -> bool {
        let include = &self.domain_arena[rule.include.0 as usize..rule.include.1 as usize];
        if !has_page {
            return include.is_empty();
        }
        let exclude = &self.domain_arena[rule.exclude.0 as usize..rule.exclude.1 as usize];
        if exclude.iter().any(|d| page_hashes.contains(d)) {
            return false;
        }
        include.is_empty() || include.iter().any(|d| page_hashes.contains(d))
    }

    /// `matcher::matches` ported to arena segments.
    fn match_pattern(&self, rule: &CompiledRule, url: &[u8], hs: usize, he: usize) -> bool {
        let segs = &self.segs[rule.seg.0 as usize..rule.seg.1 as usize];
        match rule.anchor {
            Anchor::Start => self.match_here(segs, url, 0, rule.end_anchor),
            Anchor::Hostname => {
                if self.match_here(segs, url, hs, rule.end_anchor) {
                    return true;
                }
                let host = &url[hs..he.min(url.len())];
                for (i, &b) in host.iter().enumerate() {
                    if b == b'.' && self.match_here(segs, url, hs + i + 1, rule.end_anchor) {
                        return true;
                    }
                }
                false
            }
            Anchor::None => match segs.first() {
                Some(&CompiledSegment::Lit(off, len)) => {
                    let fl = &self.lit_arena[off as usize..(off + len) as usize];
                    if fl.is_empty() {
                        return self.match_anywhere(segs, url, rule.end_anchor);
                    }
                    let mut from = 0;
                    while let Some(pos) = find(url, fl, from) {
                        if self.match_here(segs, url, pos, rule.end_anchor) {
                            return true;
                        }
                        from = pos + 1;
                    }
                    false
                }
                _ => self.match_anywhere(segs, url, rule.end_anchor),
            },
        }
    }

    fn match_anywhere(&self, segs: &[CompiledSegment], bytes: &[u8], end_anchor: bool) -> bool {
        (0..=bytes.len()).any(|i| self.match_here(segs, bytes, i, end_anchor))
    }

    /// Match the segment list starting exactly at byte offset `at` —
    /// segment-for-segment the reference `matcher::match_here`.
    fn match_here(
        &self,
        segs: &[CompiledSegment],
        bytes: &[u8],
        at: usize,
        end_anchor: bool,
    ) -> bool {
        match segs.split_first() {
            None => !end_anchor || at == bytes.len(),
            Some((&CompiledSegment::Lit(off, len), rest)) => {
                let lb = &self.lit_arena[off as usize..(off + len) as usize];
                if at + lb.len() > bytes.len() || &bytes[at..at + lb.len()] != lb {
                    return false;
                }
                self.match_here(rest, bytes, at + lb.len(), end_anchor)
            }
            Some((CompiledSegment::Sep, rest)) => {
                if at == bytes.len() {
                    return rest
                        .iter()
                        .all(|s| matches!(s, CompiledSegment::Star | CompiledSegment::Sep));
                }
                if !is_separator(bytes[at]) {
                    return false;
                }
                self.match_here(rest, bytes, at + 1, end_anchor)
            }
            Some((CompiledSegment::Star, rest)) => {
                if rest.is_empty() {
                    return true;
                }
                (at..=bytes.len()).any(|i| self.match_here(rest, bytes, i, end_anchor))
            }
        }
    }
}

/// What every candidate of one request is evaluated against.
struct RequestCtx<'a> {
    /// The lowercased request URL and its host span.
    url: &'a [u8],
    hs: usize,
    he: usize,
    /// Token signature of the URL.
    sig: u64,
    category: ContentCategory,
    /// The request's and the page's host, as parsed.
    host: &'a str,
    page_host: Option<&'a str>,
    /// `$third-party`-ness, resolved by the first candidate with a party
    /// constraint that gets that far; most requests never need it.
    third_party: OnceCell<bool>,
    /// Dot-suffix hashes of the page host (empty without a page).
    page_hashes: &'a [u64],
}

impl RequestCtx<'_> {
    /// Are request and page on different registrable domains? False
    /// without a page, as in the reference engine.
    fn third_party(&self) -> bool {
        *self.third_party.get_or_init(|| {
            self.page_host
                .is_some_and(|page| is_third_party(self.host, page))
        })
    }
}

/// Gather into `occ` the start offset of every occurrence of `token` among
/// the URL's tokens — where an aligned literal of that token's bucket has
/// to sit.
#[inline]
fn occurrences_into(token: u64, tokens: &[u64], starts: &[usize], occ: &mut Vec<usize>) {
    occ.clear();
    occ.extend(
        tokens
            .iter()
            .zip(starts)
            .filter(|(&t, _)| t == token)
            .map(|(_, &s)| s),
    );
}

/// Per-classify local tallies, flushed once into the metric handles.
#[derive(Default)]
struct Tally {
    candidates: u64,
    prefilter_rejects: u64,
    rules_evaluated: u64,
    first_match_depth: Option<u64>,
}

/// Byte-slice substring search starting at `from`.
fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() {
        return Some(from.min(haystack.len()));
    }
    if from + needle.len() > haystack.len() {
        return None;
    }
    // First-byte scan, then memcmp the rest: most positions are rejected
    // on the single-byte probe without a per-window slice compare.
    let first = needle[0];
    let rest = &needle[1..];
    for i in from..=haystack.len() - needle.len() {
        if haystack[i] == first && &haystack[i + 1..i + needle.len()] == rest {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::FilterList;
    use http_model::Url;

    fn engines(lists: &[(&str, &str)]) -> (Engine, CompiledEngine) {
        let mut e = Engine::new();
        for (name, text) in lists {
            e.add_list(FilterList::parse(name, text));
        }
        let c = CompiledEngine::compile(&e);
        (e, c)
    }

    fn assert_same(
        e: &Engine,
        c: &CompiledEngine,
        url: &str,
        page: Option<&str>,
        cat: ContentCategory,
    ) -> Classification {
        let u = Url::parse(url).unwrap();
        let p = page.map(|p| Url::parse(p).unwrap());
        let req = Request {
            url: &u,
            source_url: p.as_ref(),
            category: cat,
        };
        let mut scratch = ClassifyScratch::new();
        let reference = e.classify(&req);
        let compiled = c.classify(&req, &mut scratch);
        assert_eq!(reference, compiled, "diverged on {url} from {page:?}");
        compiled
    }

    const LISTS: &[(&str, &str)] = &[
        (
            "easylist",
            "||ads.example^\n/banner/*/img^$image\n||track.example^$third-party\n\
             /sponsor^$domain=news.example|~shop.news.example\n|http://exact.example/x|\n\
             /a^\nads$script,domain=tech.example\n",
        ),
        ("easyprivacy", "/pixel?id=\n||beacon.example^\n"),
        (
            "acceptable-ads",
            "@@||niceads.example^\n@@||portal.example^$document\n@@/allowed/*$image\n",
        ),
    ];

    const URLS: &[(&str, Option<&str>, ContentCategory)] = &[
        (
            "http://ads.example/banner.gif",
            Some("http://pub.com/"),
            ContentCategory::Image,
        ),
        (
            "http://x.com/banner/foo/img?x",
            Some("http://pub.com/"),
            ContentCategory::Image,
        ),
        (
            "http://x.com/banner/foo/img?x",
            Some("http://pub.com/"),
            ContentCategory::Script,
        ),
        (
            "http://track.example/t.js",
            Some("http://pub.com/"),
            ContentCategory::Script,
        ),
        (
            "http://track.example/t.js",
            Some("http://www.track.example/"),
            ContentCategory::Script,
        ),
        (
            "http://cdn.example/sponsor/x.png",
            Some("http://news.example/"),
            ContentCategory::Image,
        ),
        (
            "http://cdn.example/sponsor/x.png",
            Some("http://shop.news.example/"),
            ContentCategory::Image,
        ),
        (
            "http://cdn.example/sponsor/x.png",
            None,
            ContentCategory::Image,
        ),
        ("http://exact.example/x", None, ContentCategory::Document),
        (
            "http://x.com/a/",
            Some("http://pub.com/"),
            ContentCategory::Image,
        ),
        (
            "http://srv.example/ads",
            Some("http://tech.example/"),
            ContentCategory::Script,
        ),
        (
            "http://p.example/pixel?id=7",
            Some("http://pub.com/"),
            ContentCategory::Image,
        ),
        (
            "http://niceads.example/b.gif",
            Some("http://pub.com/"),
            ContentCategory::Image,
        ),
        (
            "http://third.party/adframe.js",
            Some("http://sub.portal.example/page"),
            ContentCategory::Script,
        ),
        (
            "http://portal.example/index.html",
            None,
            ContentCategory::Document,
        ),
        (
            "http://x.com/allowed/banner.gif",
            Some("http://pub.com/"),
            ContentCategory::Image,
        ),
        (
            "http://clean.example/logo.svg",
            Some("http://pub.com/"),
            ContentCategory::Image,
        ),
        (
            "HTTP://ADS.EXAMPLE/UPPER.GIF",
            Some("http://pub.com/"),
            ContentCategory::Image,
        ),
    ];

    #[test]
    fn compiled_matches_reference_on_fixture() {
        let (e, c) = engines(LISTS);
        for &(url, page, cat) in URLS {
            assert_same(&e, &c, url, page, cat);
        }
    }

    #[test]
    fn from_lists_lowers_what_compile_lowers() {
        let (e, c) = engines(LISTS);
        let lists = LISTS.iter().map(|(n, t)| FilterList::parse(n, t)).collect();
        let lowered = CompiledEngine::from_lists(lists);
        assert_eq!(lowered.layout_digest(), c.layout_digest());
        assert_eq!(lowered.stats(), c.stats());
        assert_eq!(lowered.raw, c.raw);
        assert!(lowered.alignment_records().eq(c.alignment_records()));
        for &(url, page, cat) in URLS {
            assert_same(&e, &lowered, url, page, cat);
        }
    }

    #[test]
    fn first_match_depth_identical_with_prefilter() {
        // Several same-bucket rules where only a late one matches: the
        // pre-filter may reject earlier ones, but the depth must still
        // count them as surfaced candidates.
        let (e, c) = engines(&[(
            "easylist",
            "/bannerxyz/one^\n/bannerxyz/two^\n/bannerxyz/\n",
        )]);
        let verdict = assert_same(
            &e,
            &c,
            "http://x.com/bannerxyz/three.gif",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert_eq!(verdict.first_match_depth, Some(2));
    }

    #[test]
    fn fingerprint_soundness_boundary_runs() {
        // `lick.net` embeds its first run inside a longer URL run — the
        // fingerprint must not require "lick" (the URL tokenizes
        // "doubleclick"), or the compiled engine would wrongly reject.
        let (e, c) = engines(&[("easylist", "lick.net^\n")]);
        let verdict = assert_same(
            &e,
            &c,
            "http://doubleclick.net/ad.js",
            Some("http://pub.com/"),
            ContentCategory::Script,
        );
        // The reference engine *indexes* this rule under "lick", so the
        // URL never surfaces it — equivalence, not a block, is the pin.
        assert!(!verdict.would_block());
        // When the run is genuinely maximal, both engines block.
        assert_same(
            &e,
            &c,
            "http://x.com/lick.net/f.js",
            Some("http://pub.com/"),
            ContentCategory::Script,
        );
    }

    /// Both engines on hermetic registries. Asserts identical verdicts and
    /// identical token-index hit counts, and returns the compiled verdict
    /// with `(candidates surfaced, candidates pre-filter rejected)`.
    fn audited(
        lists: &[(&str, &str)],
        url: &str,
        page: Option<&str>,
        cat: ContentCategory,
    ) -> (Classification, u64, u64) {
        let (mut e, mut c) = engines(lists);
        let (ref_reg, comp_reg) = (obs::Registry::new(), obs::Registry::new());
        e.bind_metrics(&ref_reg);
        c.bind_metrics(&comp_reg);
        let verdict = assert_same(&e, &c, url, page, cat);
        let (r, s) = (ref_reg.snapshot(), comp_reg.snapshot());
        assert_eq!(
            r.counter("abp_tokenizer_hits_total", &[]),
            s.counter("abp_tokenizer_hits_total", &[]),
            "surfaced candidates diverged on {url}"
        );
        (
            verdict,
            s.counter("abp_candidates_total", &[]),
            s.counter("abp_prefilter_rejects_total", &[]),
        )
    }

    /// The stored alignment of the blocking rule with this raw text, as
    /// `(literal, offset of the index token)`.
    fn alignment_of(c: &CompiledEngine, raw: &str) -> Option<(String, usize)> {
        let idx = &c.blocking;
        let j = (0..idx.entries.len())
            .find(|&j| &*c.raw[idx.entries[j] as usize] == raw)
            .expect("rule is in the blocking index");
        let k = (0..idx.shapes.len() - 1)
            .find(|&k| idx.members(k).iter().any(|m| m.pos as usize == j))
            .expect("every entry is a member of one shape");
        let Shape { off, len, .. } = idx.shapes[k];
        let m = idx.members(k).iter().find(|m| m.pos as usize == j).unwrap();
        (len != 0).then(|| {
            let lit = c.lit(m.lit, usize::from(len)).to_vec();
            (String::from_utf8(lit).unwrap(), usize::from(off))
        })
    }

    /// One hand-worked row: a single rule, the alignment it must carry,
    /// and probes `(url, blocks, candidates surfaced, pre-filter rejects)`.
    struct AlignCase {
        rule: &'static str,
        alignment: Option<(&'static str, usize)>,
        probes: &'static [(&'static str, bool, u64, u64)],
    }

    const ALIGN_CASES: &[AlignCase] = &[
        // Token at the literal start, sealed on the left by `||`.
        AlignCase {
            rule: "||tracker.io^",
            alignment: Some(("tracker.io", 0)),
            probes: &[
                ("http://tracker.io/x.js", true, 1, 0),
                ("http://sub.tracker.io/x.js", true, 1, 0),
                // Right token, wrong bytes after it.
                ("http://x.com/tracker/io", false, 1, 1),
                // Literal in place, but not at a host boundary: the
                // alignment passes and the matcher says no.
                ("http://x.com/tracker.io/", false, 1, 0),
            ],
        },
        // Token at the literal start, sealed on the left by `|`.
        AlignCase {
            rule: "|http://cdn.",
            alignment: Some(("http://cdn.", 0)),
            probes: &[
                ("http://cdn.example/a", true, 1, 0),
                // Two occurrences of `http`, neither with the literal.
                ("http://x.com/http/", false, 2, 2),
            ],
        },
        // Index token in the second literal, sealed on the left by `^`.
        AlignCase {
            rule: "x^bannerzone/",
            alignment: Some(("bannerzone/", 0)),
            probes: &[
                ("http://a.com/x/bannerzone/1.gif", true, 1, 0),
                ("http://a.com/x/bannerzone.gif", false, 1, 1),
                // Aligned, but the first literal is missing before `^`.
                ("http://a.com/y/bannerzone/1.gif", false, 1, 0),
            ],
        },
        // Token at the literal end, sealed on the right by `^`.
        AlignCase {
            rule: "/promo^",
            alignment: Some(("/promo", 1)),
            probes: &[
                ("http://a.com/promo/x", true, 1, 0),
                ("http://a.com/promo", true, 1, 0),
                ("http://a.com/x.promo/", false, 1, 1),
                // Three occurrences: the bucket is visited (and counted)
                // three times, and matches on the first visit through the
                // second occurrence.
                ("http://promo.example/promo/?promo", true, 3, 0),
                ("http://a.promo.example/x-promo/?promo", false, 3, 3),
            ],
        },
        // Token at the literal end, sealed on the right by the `|` anchor.
        AlignCase {
            rule: ".swf|",
            alignment: Some((".swf", 1)),
            probes: &[
                ("http://a.com/movie.swf", true, 1, 0),
                ("http://a.com/swf/movie", false, 1, 1),
                ("http://a.com/movie.swf?x=1", false, 1, 0),
                ("http://a.com/swf/movie.swf", true, 2, 0),
            ],
        },
        // Unsealed at an unanchored pattern edge: the run may be embedded
        // in a longer URL token, so the entry carries no alignment. Here
        // the bucket is surfaced by the query's `ads`, and the rule matches
        // inside `loads_id=`.
        AlignCase {
            rule: "ads_id=",
            alignment: None,
            probes: &[
                ("http://x/loads_id=5?ads=1", true, 1, 0),
                ("http://x/ads_id=5", true, 1, 0),
                ("http://x/loads_id=5", false, 0, 0),
            ],
        },
        // Unsealed next to `*`.
        AlignCase {
            rule: "/x*adzone",
            alignment: None,
            probes: &[
                ("http://a.com/x/myadzone?adzone", true, 1, 0),
                ("http://a.com/y/adzone", false, 1, 0),
            ],
        },
        // The literal would start before the URL does, or end after it.
        AlignCase {
            rule: "-.-.-.-.-.http:",
            alignment: Some(("-.-.-.-.-.http:", 10)),
            probes: &[("http://a.com/", false, 1, 1)],
        },
        AlignCase {
            rule: "/promo/-/-/-/-/-/",
            alignment: Some(("/promo/-/-/-/-/-/", 1)),
            probes: &[
                ("http://a.com/promo/-/-", false, 1, 1),
                ("http://a.com/promo/-/-/-/-/-/", true, 1, 0),
            ],
        },
        // `$match-case` keeps the literal's upper-case bytes; URLs are
        // lowered before matching, so it can never compare equal — in
        // either engine.
        AlignCase {
            rule: "/BannerAd/$match-case",
            alignment: Some(("/BannerAd/", 1)),
            probes: &[
                ("http://a.com/BannerAd/1.gif", false, 1, 1),
                ("http://a.com/bannerad/1.gif", false, 1, 1),
            ],
        },
        AlignCase {
            rule: "/bannerad/$match-case",
            alignment: Some(("/bannerad/", 1)),
            probes: &[("http://a.com/BannerAd/1.gif", true, 1, 0)],
        },
    ];

    #[test]
    fn alignment_soundness_table() {
        for case in ALIGN_CASES {
            let lists = [("easylist", case.rule)];
            let (_, c) = engines(&lists);
            assert_eq!(
                alignment_of(&c, case.rule),
                case.alignment.map(|(l, o)| (l.to_string(), o)),
                "alignment of {}",
                case.rule
            );
            for &(url, blocks, candidates, rejects) in case.probes {
                let (verdict, cands, rej) =
                    audited(&lists, url, Some("http://pub.com/"), ContentCategory::Image);
                assert_eq!(verdict.would_block(), blocks, "{} on {url}", case.rule);
                assert_eq!(cands, candidates, "candidates of {} on {url}", case.rule);
                assert_eq!(rej, rejects, "rejects of {} on {url}", case.rule);
            }
        }
    }

    #[test]
    fn alignment_rejects_still_count_toward_depth() {
        // One fat bucket (`ads`) over two lists; the URL carries the token
        // twice, so the bucket is visited twice. Only `&ads_id=7` has its
        // literal around an occurrence.
        let lists = [
            ("easylist", "&ads_id=1\n&ads_id=2\n&ads_id=7\n&ads_id=9\n"),
            ("easyprivacy", "&ads_id=3\n/ads/x\n"),
        ];
        let (verdict, cands, rej) = audited(
            &lists,
            "http://ads.example/p?a=1&ads_id=7",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert_eq!(verdict.blocking.len(), 1);
        assert_eq!(&*verdict.blocking[0].filter, "&ads_id=7");
        assert_eq!(verdict.first_match_depth, Some(2));
        // 6 entries × 2 visits; all but the match are rejected, twice over
        // (the second visit meets `&ads_id=7` as a dup-list skip, after
        // its alignment passed again).
        assert_eq!((cands, rej), (12, 10));
    }

    #[test]
    fn exception_rejects_stop_at_the_match() {
        // The exception bucket `ads` holds `&ads_id=7` twice: the first
        // passes both pre-filters but not its `$script`, the second
        // matches. Only `&ads_id=1`, between them, is rejected; `&ads_id=9`
        // after the match is never reached.
        let lists = [
            ("easylist", "/ads/x\n"),
            (
                "acceptable-ads",
                "@@&ads_id=7$script\n@@&ads_id=1\n@@&ads_id=7\n@@&ads_id=9\n",
            ),
        ];
        let (verdict, cands, rej) = audited(
            &lists,
            "http://x.com/ads/x?a&ads_id=7",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert_eq!(verdict.blocking.len(), 1);
        assert_eq!(
            verdict.exception.map(|f| f.filter),
            Some("@@&ads_id=7".into())
        );
        // `/ads/x` once per occurrence of `ads`, the second visit skipped
        // as fully matched.
        assert_eq!((cands, rej), (2, 1));
    }

    #[test]
    fn alignment_absent_for_literal_longer_than_stored_width() {
        // 66 K bytes of short runs, then the (longest, hence index) token.
        let rule = format!("/{}longesttoken/", "ab/".repeat(22_000));
        let lists = [("easylist", rule.as_str())];
        let (_, c) = engines(&lists);
        assert_eq!(alignment_of(&c, &rule), None);
        let hit = format!("http://a.com{rule}x.gif");
        let (verdict, cands, rej) = audited(
            &lists,
            &hit,
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert!(verdict.would_block());
        assert_eq!((cands, rej), (1, 0));
        let (miss, _, _) = audited(
            &lists,
            "http://a.com/ab/longesttoken/",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert!(!miss.would_block());
    }

    #[test]
    fn stats_populated() {
        let (_, c) = engines(LISTS);
        let s = c.stats();
        assert!(s.rules >= 12, "all rules lowered: {s:?}");
        assert!(s.buckets > 0);
        assert!(s.arena_bytes > 0);
    }

    #[test]
    fn scratch_reuse_across_requests() {
        let (e, c) = engines(LISTS);
        let mut scratch = ClassifyScratch::new();
        for _ in 0..3 {
            for &(url, page, cat) in URLS {
                let u = Url::parse(url).unwrap();
                let p = page.map(|p| Url::parse(p).unwrap());
                let req = Request {
                    url: &u,
                    source_url: p.as_ref(),
                    category: cat,
                };
                assert_eq!(e.classify(&req), c.classify(&req, &mut scratch));
            }
        }
    }
}
