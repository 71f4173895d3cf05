//! Base-URL normalization (§3.1, "Base URL").
//!
//! Dynamic query values (cache busters, session ids) make URLs unique per
//! visit and can spuriously match — or fail to match — filter rules whose
//! patterns reference query fragments of an *earlier* request embedded in
//! the current one. The paper normalizes query strings by replacing dynamic
//! values, but takes care **not** to rewrite values that appear in filter
//! rules (e.g. `@@*jsp?callback=aslHandleAds*`), which would break those
//! rules. Every classify path normalizes, with the one normalizer its
//! classifier builds from its query literals
//! ([`PassiveClassifier::normalizer`](crate::PassiveClassifier::normalizer)).
//!
//! Whether a rule mentions a `key=value` pair is answered from a
//! `ProtectedIndex` built once per normalizer, so the cost per pair does
//! not grow with the number of literals the lists carry (DESIGN.md §18).

use http_model::Url;
use std::collections::HashSet;

/// The replacement token for dynamic values.
const PLACEHOLDER: &str = "X";

/// One `=` of one protected literal.
#[derive(Debug, Clone)]
struct EqSite {
    /// Where the literal starts in [`ProtectedIndex::text`].
    lit_start: usize,
    /// Where this `=` sits.
    eq: usize,
    /// Where the literal's value after this `=` ends: at the first `&` or
    /// `?`, else at `lit_end`.
    val_end: usize,
    /// Where the literal ends.
    lit_end: usize,
    /// A key at least this long has no earlier `key=` in the literal, so
    /// this site is the one a left-to-right search for `key=` finds. One
    /// more than the longest suffix the text before this `=` shares with
    /// the text before an earlier `=`; 0 for the literal's first `=`.
    first_from: usize,
}

/// The filter lists' query literals, arranged so that the places a query
/// key can match are found by binary search instead of by reading every
/// literal.
///
/// A literal protects `key=value` in one of two ways, both over the
/// literal's bytes as they are and the ASCII-lowercased key and value:
///
/// * **pair** — the literal contains `key=value`. The literal may run on
///   past the value: `track?id=777` protects `id=77`, as the rule it came
///   from would match `id=77…` too.
/// * **prefix** — the literal's *first* `key=` is followed by a non-empty
///   value, read up to `&` or `?`, that the actual value starts with:
///   `jsp?callback=aslhandleads` protects `callback=aslHandleAds123`.
///
/// Both find `key=` as a substring, so `uid=5` protects `id=5`. The
/// verdicts the goldens pin were recorded with that quirk, and it errs on
/// the side of not rewriting; it is kept.
///
/// Either way the literal has an `=` with the key right before it. The
/// index holds one [`EqSite`] per `=`, sorted by the text before the `=`
/// read backwards, so the sites whose preceding text ends with a given key
/// are one contiguous run, starting at the key's lower bound.
#[derive(Debug, Clone)]
struct ProtectedIndex {
    /// The distinct literals that contain `=`, concatenated.
    text: Vec<u8>,
    sites: Vec<EqSite>,
}

/// `lit == raw.to_ascii_lowercase()`, without building the right side.
fn eq_lowered(lit: &[u8], raw: &[u8]) -> bool {
    lit.len() == raw.len()
        && lit
            .iter()
            .zip(raw)
            .all(|(l, r)| *l == r.to_ascii_lowercase())
}

fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

impl ProtectedIndex {
    fn build(literals: &[String]) -> ProtectedIndex {
        let mut seen: HashSet<&str> = HashSet::with_capacity(literals.len());
        let mut text = Vec::new();
        let mut sites: Vec<EqSite> = Vec::new();
        for lit in literals.iter().map(String::as_str) {
            // A literal without `=` contains no `key=`: it protects
            // nothing. One seen before protects nothing new.
            if !lit.contains('=') || !seen.insert(lit) {
                continue;
            }
            let lit_start = text.len();
            text.extend_from_slice(lit.as_bytes());
            let lit_end = text.len();
            let first_site = sites.len();
            for eq in (lit_start..lit_end).filter(|&i| text[i] == b'=') {
                let before = &text[lit_start..eq];
                let first_from = sites[first_site..]
                    .iter()
                    .map(|s| common_suffix(before, &text[s.lit_start..s.eq]) + 1)
                    .max()
                    .unwrap_or(0);
                let val_end = (eq + 1..lit_end)
                    .find(|&i| matches!(text[i], b'&' | b'?'))
                    .unwrap_or(lit_end);
                sites.push(EqSite {
                    lit_start,
                    eq,
                    val_end,
                    lit_end,
                    first_from,
                });
            }
        }
        sites.sort_unstable_by(|a, b| {
            let a = text[a.lit_start..a.eq].iter().rev();
            let b = text[b.lit_start..b.eq].iter().rev();
            a.cmp(b)
        });
        ProtectedIndex { text, sites }
    }

    /// Is this `key=value` pair protected by some literal?
    fn protects(&self, key: &str, value: &str) -> bool {
        let (key, value) = (key.as_bytes(), value.as_bytes());
        let before = |s: &EqSite| &self.text[s.lit_start..s.eq];
        let lowered_key_backwards = || key.iter().rev().map(u8::to_ascii_lowercase);
        let run_start = self
            .sites
            .partition_point(|s| before(s).iter().rev().copied().lt(lowered_key_backwards()));
        self.sites[run_start..]
            .iter()
            .take_while(|s| {
                let before = before(s);
                before.len() >= key.len() && eq_lowered(&before[before.len() - key.len()..], key)
            })
            .any(|s| {
                let tail = &self.text[s.eq + 1..s.lit_end];
                let lit_value = &self.text[s.eq + 1..s.val_end];
                let pair = tail.len() >= value.len() && eq_lowered(&tail[..value.len()], value);
                pair || {
                    key.len() >= s.first_from
                        && !lit_value.is_empty()
                        && value.len() >= lit_value.len()
                        && eq_lowered(lit_value, &value[..lit_value.len()])
                }
            })
    }
}

/// A normalizer carrying the filter lists' query literals.
#[derive(Debug, Clone)]
pub struct UrlNormalizer {
    protected: ProtectedIndex,
}

impl UrlNormalizer {
    /// Build from the filter lists' query literals
    /// ([`PassiveClassifier::query_literals`](crate::PassiveClassifier::query_literals)):
    /// the normalizer every classify path runs with.
    pub fn from_literals(literals: &[String]) -> UrlNormalizer {
        UrlNormalizer {
            protected: ProtectedIndex::build(literals),
        }
    }

    /// [`Self::from_literals`] over an engine's query literals.
    pub fn from_engine(engine: &abp_filter::Engine) -> UrlNormalizer {
        UrlNormalizer::from_literals(engine.query_literals())
    }

    /// Does a value look dynamic? Numeric runs, long tokens, mixed
    /// hex/base64-looking strings.
    fn is_dynamic(value: &str) -> bool {
        let (mut digits, mut len) = (0usize, 0usize);
        for c in value.chars() {
            len += 1;
            digits += usize::from(c.is_ascii_digit());
        }
        // Mostly digits, or long opaque tokens.
        digits * 2 > len || len >= 16
    }

    /// Normalize one URL: dynamic query values become `X` unless protected.
    pub fn normalize(&self, url: &Url) -> Url {
        self.rewritten(url, None, &mut String::new())
            .unwrap_or_else(|| url.clone())
    }

    /// [`normalize`](Self::normalize) for a caller that owns the URL and
    /// keeps `scratch` from one call to the next: an untouched URL is
    /// handed back as it came, a rewritten one is built in `scratch` and
    /// copied out once.
    pub(crate) fn normalize_owned(&self, url: Url, scratch: &mut String) -> Url {
        self.rewritten(&url, None, scratch).unwrap_or(url)
    }

    /// Like [`normalize`](Self::normalize), also reporting which query
    /// keys were rewritten. Only the provenance layer calls this, for
    /// `explain_trace` — the hot path never pays for the key list.
    pub(crate) fn normalize_explain(&self, url: &Url) -> (Url, Vec<String>) {
        let mut rewrites = Vec::new();
        let out = self
            .rewritten(url, Some(&mut rewrites), &mut String::new())
            .unwrap_or_else(|| url.clone());
        (out, rewrites)
    }

    /// The URL with its query rewritten, or `None` when nothing changes
    /// (no query, nothing dynamic, or everything protected).
    fn rewritten(
        &self,
        url: &Url,
        mut rewrites: Option<&mut Vec<String>>,
        scratch: &mut String,
    ) -> Option<Url> {
        url.rewrite_query(scratch, |query, out| {
            // `query[..copied]` is in `out`.
            let mut copied = 0;
            let mut next = 0;
            let mut changed = false;
            for kv in query.split('&') {
                let start = next;
                next += kv.len() + 1;
                let Some((k, v)) = kv.split_once('=') else {
                    continue;
                };
                if !Self::is_dynamic(v) || self.protected.protects(k, v) {
                    continue;
                }
                let value_start = start + k.len() + 1;
                out.push_str(&query[copied..value_start]);
                out.push_str(PLACEHOLDER);
                copied = start + kv.len();
                changed = true;
                if let Some(keys) = rewrites.as_deref_mut() {
                    keys.push(k.to_string());
                }
            }
            if changed {
                out.push_str(&query[copied..]);
            }
            changed
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use http_model::url::Scheme;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The normalizer as it was before the index, kept verbatim as the
    /// oracle: per pair, two `format!`s and a substring scan of every
    /// literal.
    struct LinearScan {
        protected: Vec<String>,
    }

    impl LinearScan {
        fn is_protected(&self, key: &str, value: &str) -> bool {
            if self.protected.is_empty() {
                return false;
            }
            let kv = format!(
                "{}={}",
                key.to_ascii_lowercase(),
                value.to_ascii_lowercase()
            );
            let keq = format!("{}=", key.to_ascii_lowercase());
            self.protected.iter().any(|lit| {
                lit.contains(&kv) || {
                    lit.find(&keq).is_some_and(|pos| {
                        let tail = &lit[pos + keq.len()..];
                        let lit_val: String = tail
                            .chars()
                            .take_while(|c| *c != '&' && *c != '?')
                            .collect();
                        !lit_val.is_empty() && value.to_ascii_lowercase().starts_with(&lit_val)
                    })
                }
            })
        }

        fn is_dynamic(value: &str) -> bool {
            if value.is_empty() {
                return false;
            }
            let digits = value.chars().filter(|c| c.is_ascii_digit()).count();
            let len = value.chars().count();
            digits * 2 > len || len >= 16
        }

        fn normalize_explain(&self, url: &Url) -> (Url, Vec<String>) {
            let mut rewrites = Vec::new();
            let Some(query) = url.query() else {
                return (url.clone(), rewrites);
            };
            let mut changed = false;
            let parts: Vec<String> = query
                .split('&')
                .map(|kv| {
                    let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                    if v.is_empty() {
                        kv.to_string()
                    } else if Self::is_dynamic(v) && !self.is_protected(k, v) {
                        changed = true;
                        rewrites.push(k.to_string());
                        format!("{k}={PLACEHOLDER}")
                    } else {
                        kv.to_string()
                    }
                })
                .collect();
            if !changed {
                return (url.clone(), rewrites);
            }
            (url.with_query(Some(parts.join("&"))), rewrites)
        }
    }

    /// Every public entry point against the oracle, byte for byte.
    fn assert_same_as_oracle(n: &UrlNormalizer, oracle: &LinearScan, url: &Url) {
        let expected = oracle.normalize_explain(url);
        assert_eq!(n.normalize_explain(url), expected, "{url}");
        assert_eq!(n.normalize(url), expected.0, "{url}");
        assert_eq!(
            n.normalize_owned(url.clone(), &mut String::new()),
            expected.0,
            "{url}"
        );
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn scale_list() -> &'static webgen::ScaleList {
        static LIST: OnceLock<webgen::ScaleList> = OnceLock::new();
        LIST.get_or_init(|| {
            webgen::easylist_scale(webgen::ScaleConfig {
                rules: 40_000,
                seed: 0xEA5E,
            })
        })
    }

    /// The query literals of the EasyList-scale list, as the engine
    /// exports them (duplicates and all), plus the paper's example and a
    /// `$match-case` rule.
    fn scale_literals() -> &'static [String] {
        static LITERALS: OnceLock<Vec<String>> = OnceLock::new();
        LITERALS.get_or_init(|| {
            let mut engine = abp_filter::Engine::new();
            engine.add_list(abp_filter::FilterList::parse(
                "easylist-scale",
                &scale_list().text,
            ));
            engine.add_list(abp_filter::FilterList::parse(
                "extras",
                "@@*jsp?callback=aslHandleAds*\n/Track?UID=7&Sid=$match-case\n",
            ));
            engine.query_literals().to_vec()
        })
    }

    #[test]
    fn replaces_dynamic_values() {
        let n = UrlNormalizer::from_literals(&[]);
        let u = n.normalize(&url("http://a.example/x?cb=123456&ord=99887766"));
        assert_eq!(u.query(), Some("cb=X&ord=X"));
    }

    #[test]
    fn keeps_static_values() {
        let n = UrlNormalizer::from_literals(&[]);
        let u = n.normalize(&url("http://a.example/x?lang=en&page=two"));
        assert_eq!(u.query(), Some("lang=en&page=two"));
    }

    #[test]
    fn long_opaque_tokens_are_dynamic() {
        let n = UrlNormalizer::from_literals(&[]);
        let u = n.normalize(&url("http://a.example/x?sid=deadbeefcafe1234deadbeef"));
        assert_eq!(u.query(), Some("sid=X"));
    }

    #[test]
    fn protected_values_preserved() {
        // The paper's example: @@*jsp?callback=aslHandleAds* — the callback
        // value must survive normalization even though it is 16+ chars.
        let n = UrlNormalizer::from_literals(&["jsp?callback=aslhandleads".to_string()]);
        let u = n.normalize(&url(
            "http://a.example/page.jsp?callback=aslHandleAdsXYZ123&cb=123456",
        ));
        assert_eq!(u.query(), Some("callback=aslHandleAdsXYZ123&cb=X"));
    }

    #[test]
    fn exact_protected_pair_preserved() {
        let n = UrlNormalizer::from_literals(&["track?id=777777".to_string()]);
        let u = n.normalize(&url("http://a.example/track?id=777777"));
        assert_eq!(u.query(), Some("id=777777"));
        // A different numeric id is not protected.
        let v = n.normalize(&url("http://a.example/track?id=999999"));
        assert_eq!(v.query(), Some("id=X"));
    }

    #[test]
    fn explain_lists_rewritten_keys() {
        let n = UrlNormalizer::from_literals(&[]);
        let (u, keys) =
            n.normalize_explain(&url("http://a.example/x?cb=123456&lang=en&ord=987654"));
        assert_eq!(u.query(), Some("cb=X&lang=en&ord=X"));
        assert_eq!(keys, vec!["cb".to_string(), "ord".to_string()]);
        let (_, none) = n.normalize_explain(&url("http://a.example/x?lang=en"));
        assert!(none.is_empty());
    }

    #[test]
    fn no_query_untouched() {
        let n = UrlNormalizer::from_literals(&[]);
        let u = url("http://a.example/path.js");
        assert_eq!(n.normalize(&u), u);
    }

    #[test]
    fn valueless_params_kept() {
        let n = UrlNormalizer::from_literals(&[]);
        let u = n.normalize(&url("http://a.example/x?flag&cb=123456"));
        assert_eq!(u.query(), Some("flag&cb=X"));
    }

    #[test]
    fn from_literals_protects_the_classifier_literals() {
        let classifier = crate::PassiveClassifier::new(vec![abp_filter::FilterList::parse(
            "el",
            "@@*jsp?callback=aslHandleAds*\n",
        )]);
        let n = UrlNormalizer::from_literals(classifier.query_literals());
        let u = n.normalize(&url(
            "http://a.example/p.jsp?callback=aslHandleAds12345678&cb=123456",
        ));
        assert_eq!(u.query(), Some("callback=aslHandleAds12345678&cb=X"));
    }

    #[test]
    fn index_drops_duplicates_and_literals_without_equals() {
        let index = ProtectedIndex::build(&strings(&[
            "&ads_id=7",
            "page?print",
            "&ads_id=7",
            "a=1&b=2",
        ]));
        assert_eq!(index.text, b"&ads_id=7a=1&b=2");
        assert_eq!(index.sites.len(), 3);
    }

    /// The cases the index has to get right one by one, each checked
    /// against the oracle and against the answer worked out by hand.
    #[test]
    fn protection_cases_match_the_linear_scan() {
        let literals = strings(&[
            "uid=5",             // a key inside a longer key
            "a=1&b=2",           // two `=`
            "sid=1&xsid=2&id=3", // `id=` recurs: prefix reads the first only
            "?=v",               // empty key
            "q=a=b?c&d",         // value with `=`, `?`, `&` after it
            "Track?UID=7",       // `$match-case` literal: upper case kept
            "clé=värde",         // non-ASCII
            "noequals",
        ]);
        let index = ProtectedIndex::build(&literals);
        let oracle = LinearScan {
            protected: literals,
        };
        for (key, value, expected) in [
            ("id", "5", true),       // `uid=5` contains `id=5`
            ("id", "5x", true),      // first `id=` (inside `uid=`) reads `5`
            ("d", "5", true),        // any suffix of the key's text
            ("uid", "6", false),     //
            ("b", "2", true),        // second `=` of its literal, pair
            ("b", "2x", true),       // and its first `b=`, prefix
            ("b", "3", false),       //
            ("id", "3", true),       // pair at the third `=`
            ("id", "3x", false),     // prefix reads `sid=1`, not `id=3`
            ("id", "1x", true),      //
            ("id", "2x", false),     // `xsid=2` is not the first `id=`
            ("xsid", "2x", true),    // but it is the first `xsid=`
            ("sid", "2x", false),    //
            ("", "v", true),         // `?=v`
            ("", "vv", true),        //
            ("", "w", false),        //
            ("q", "a=b?c", true),    // pair spans `=` and `?`
            ("q", "a=b?c&d", true),  // and `&`, if a caller ever passes one
            ("q", "a=bzz", true),    // prefix value stops at `?`: `a=b`
            ("q", "a=", true),       // pair: the literal may run on past it
            ("q", "b", false),       //
            ("a", "b", true),        // `q=a=b`: `a=` inside a value
            ("UID", "7", false),     // the key is lowered, the literal is not
            ("uid", "7", false),     //
            ("ID", "5", true),       // mixed-case keys and values are lowered
            ("Q", "A=B?C", true),    //
            ("clé", "värde", true),  //
            ("clé", "VÄRDE", false), // only ASCII is lowered
            ("lé", "vä", true),      //
            ("é", "värde1", true),   //
            ("noequals", "", false), //
        ] {
            assert_eq!(
                index.protects(key, value),
                oracle.is_protected(key, value),
                "{key}={value}"
            );
            assert_eq!(index.protects(key, value), expected, "{key}={value}");
        }
    }

    #[test]
    fn empty_index_protects_nothing() {
        let index = ProtectedIndex::build(&[]);
        assert!(!index.protects("id", "5"));
        assert!(!index.protects("", ""));
    }

    /// `ScaleList::sample_urls` as generated (no query strings: the
    /// untouched path), and the same URLs carrying the query shapes a
    /// trace does: literal keys with protected and unprotected values,
    /// cache busters, opaque tokens, static values.
    #[test]
    fn whole_urls_match_the_old_implementation_at_easylist_scale() {
        let literals = scale_literals();
        let n = UrlNormalizer::from_literals(literals);
        let oracle = LinearScan {
            protected: literals.to_vec(),
        };
        let words = ["ads", "track", "click", "pixel", "xads", "uid", ""];
        let mut rewritten = 0;
        for (i, raw) in scale_list()
            .sample_urls(600, 0.3, 0xBE7C)
            .iter()
            .enumerate()
        {
            let plain = url(raw);
            assert_same_as_oracle(&n, &oracle, &plain);
            let w = words[i % words.len()];
            let query = match i % 4 {
                0 => format!("{w}_id={}&cb={}&lang=en", i % 97, i * 7919),
                1 => format!(
                    "cb={}&{w}_ID={}7&sid=deadbeefcafe1234deadbeef",
                    i * 31,
                    i % 89
                ),
                2 => format!("callback=aslHandleAds{i}&flag&=5{i}&id={}", i % 120),
                _ => format!("{w}_id=&d={}&UID=7{i}&q={i}={i}?{i}", i % 89),
            };
            let decorated = plain.with_query(Some(query));
            assert_same_as_oracle(&n, &oracle, &decorated);
            rewritten += usize::from(n.normalize(&decorated) != decorated);
        }
        assert!(rewritten > 300, "only {rewritten} of 600 rewritten");
    }

    /// Keys and values cut out of the literals themselves, then bent a
    /// little: most probes land on or next to a protected pair.
    fn scale_probe() -> impl Strategy<Value = (String, String)> {
        (
            0..scale_literals().len(),
            0..6usize,
            0..6usize,
            "[0-9a-zA-Z_=?]{0,2}",
            "[0-9a-zA-Z_=?&]{0,2}",
        )
            .prop_map(|(lit, key_len, value_len, key_end, value_end)| {
                let lit = &scale_literals()[lit];
                let (before, after) = lit.split_once('=').unwrap_or((lit, ""));
                let key_start = (0..=before.len())
                    .rev()
                    .filter(|&i| before.is_char_boundary(i))
                    .nth(key_len)
                    .unwrap_or(0);
                let value_stop = (0..=after.len())
                    .filter(|&i| after.is_char_boundary(i))
                    .nth(value_len)
                    .unwrap_or(after.len());
                // Bend the far ends only, so the `key=value` joint survives.
                (
                    format!("{key_end}{}", &before[key_start..]),
                    format!("{}{value_end}", &after[..value_stop]),
                )
            })
    }

    /// Literals over a handful of letters, so that keys recur inside keys,
    /// inside values, within one literal and across literals: free-form
    /// ones, and ones shaped like the `k=v&k=v` a rule carries.
    fn small_literal() -> impl Strategy<Value = String> {
        prop_oneof![
            "[abAB1é=?&=]{0,9}",
            proptest::collection::vec(("[abA]{0,2}", "[ab1]{0,2}", "[&?a]{0,1}"), 1..5).prop_map(
                |pairs| {
                    pairs
                        .iter()
                        .map(|(k, v, end)| format!("{k}={v}{end}"))
                        .collect::<String>()
                }
            ),
        ]
    }

    proptest! {
        #[test]
        fn index_agrees_with_linear_scan(
            literals in proptest::collection::vec(small_literal(), 0..6),
            probes in proptest::collection::vec(("[abAB1é?=&]{0,3}", "[abAB1é?=&]{0,4}"), 1..12),
            plain_probes in proptest::collection::vec(("[ab]{0,2}", "[ab1]{1,3}"), 1..12),
        ) {
            let probes = probes.into_iter().chain(plain_probes).collect::<Vec<_>>();
            let index = ProtectedIndex::build(&literals);
            let oracle = LinearScan { protected: literals };
            for (key, value) in &probes {
                prop_assert_eq!(
                    index.protects(key, value),
                    oracle.is_protected(key, value),
                    "{}={} against {:?}", key, value, oracle.protected
                );
            }
        }

        #[test]
        fn index_agrees_with_linear_scan_on_easylist_scale_literals(probe in scale_probe()) {
            static INDEX: OnceLock<ProtectedIndex> = OnceLock::new();
            let index = INDEX.get_or_init(|| ProtectedIndex::build(scale_literals()));
            let oracle = LinearScan { protected: scale_literals().to_vec() };
            let (key, value) = &probe;
            prop_assert_eq!(
                index.protects(key, value),
                oracle.is_protected(key, value),
                "{}={}", key, value
            );
        }

        /// Whole query strings, empty pairs and stray separators included:
        /// the spliced query equals the old split-map-join one.
        #[test]
        fn rewrite_agrees_with_old_implementation(
            literals in proptest::collection::vec("[ab1=?&]{0,7}", 0..4),
            query in "[ab1=&?AXé]{1,24}",
            long in "[a-f0-9]{16,20}",
        ) {
            let n = UrlNormalizer::from_literals(&literals);
            let oracle = LinearScan { protected: literals };
            for query in [query.clone(), format!("{query}&a={long}&b1={long}=")] {
                let u = Url::from_parts(Scheme::Http, "h.example", "/p", Some(&query));
                let expected = oracle.normalize_explain(&u);
                prop_assert_eq!(n.normalize_explain(&u), expected.clone());
                prop_assert_eq!(
                    n.normalize_owned(u.clone(), &mut String::new()),
                    expected.0.clone()
                );
                prop_assert_eq!(n.normalize(&u), expected.0);
            }
        }

        #[test]
        fn one_pass_is_dynamic_agrees(value in "[0-9a-fé]{0,20}") {
            prop_assert_eq!(
                UrlNormalizer::is_dynamic(&value),
                LinearScan::is_dynamic(&value)
            );
        }
    }
}
