//! Token extraction for the fast filter index.
//!
//! The engine indexes every filter under one *distinguishing token* — a
//! literal alphanumeric run that any matching URL must contain. At
//! classification time the URL is tokenized once and only filters indexed
//! under one of its tokens are evaluated. This is the standard design of
//! production ad-block engines and turns an O(rules) scan into a handful of
//! hash lookups; `bench/ablation` measures the difference.

/// Minimum token length worth indexing. Shorter runs are too common to
/// discriminate.
#[doc(hidden)]
pub const MIN_TOKEN_LEN: usize = 3;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step.
#[inline]
pub(crate) fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

/// FNV-1a hash of an alphanumeric token, ASCII case-folded: `ADS` and
/// `ads` hash alike.
#[inline]
#[doc(hidden)]
pub fn hash_token(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| fnv_step(h, b.to_ascii_lowercase()))
}

/// The one pass over a URL's tokens: calls `emit(hash, start)` for every
/// maximal alphanumeric run of length >= [`MIN_TOKEN_LEN`], in URL order,
/// with the run's byte offset. Each run's FNV-1a hash is folded in while
/// the run is scanned, without [`hash_token`]'s case fold, so no byte is
/// visited twice; `url` must be lowercased already (both engines tokenize
/// their lowered URL buffer), which makes it the run's [`hash_token`].
#[inline]
fn for_each_url_token(url: &str, mut emit: impl FnMut(u64, usize)) {
    debug_assert!(!url.bytes().any(|b| b.is_ascii_uppercase()), "{url}");
    let mut start = 0;
    let mut h = FNV_OFFSET;
    for (i, &b) in url.as_bytes().iter().enumerate() {
        if b.is_ascii_alphanumeric() {
            h = fnv_step(h, b);
        } else {
            if i - start >= MIN_TOKEN_LEN {
                emit(h, start);
            }
            start = i + 1;
            h = FNV_OFFSET;
        }
    }
    if url.len() - start >= MIN_TOKEN_LEN {
        emit(h, start);
    }
}

/// Allocation-free variant of [`url_tokens`]: clears `out` and appends the
/// token hashes, reusing the caller's buffer across requests.
pub(crate) fn url_tokens_into(url: &str, out: &mut Vec<u64>) {
    out.clear();
    for_each_url_token(url, |hash, _| out.push(hash));
}

/// [`url_tokens_into`] that also records where each token starts:
/// `starts[i]` is the byte offset in `url` of the run hashed as `tokens[i]`.
#[doc(hidden)]
pub fn url_tokens_with_starts_into(url: &str, tokens: &mut Vec<u64>, starts: &mut Vec<usize>) {
    tokens.clear();
    starts.clear();
    for_each_url_token(url, |hash, start| {
        tokens.push(hash);
        starts.push(start);
    });
}

/// A filter's index token — the run [`filter_token`] keys it under — with
/// where that run sits in the pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[doc(hidden)]
pub struct IndexToken {
    /// [`hash_token`] of the run: the bucket key.
    pub hash: u64,
    /// Which literal holds the run, counting the pattern's literals in order.
    pub literal: usize,
    /// Byte offset of the run within that literal.
    pub offset: usize,
    /// Length of the run in bytes.
    pub len: usize,
}

/// Choose the best indexing token of a filter literal set: the *longest*
/// alphanumeric run across all literal segments (the first of equally long
/// ones). Returns `None` when the filter has no usable token (it must then
/// live in the always-checked bucket).
///
/// Boundary subtlety: a literal's first/last run still has to appear
/// verbatim in a matching URL (wildcards/separators only add characters
/// *around* literals, never inside them), so every full run inside a literal
/// is a sound choice.
#[doc(hidden)]
pub fn filter_index_token<'a, I: Iterator<Item = &'a str>>(literals: I) -> Option<IndexToken> {
    let mut best: Option<IndexToken> = None;
    for (literal, lit) in literals.enumerate() {
        let bytes = lit.as_bytes();
        let mut start = None;
        let mut consider = |s: usize, e: usize| {
            let len = e - s;
            if len >= MIN_TOKEN_LEN && best.is_none_or(|b| len > b.len) {
                best = Some(IndexToken {
                    hash: hash_token(&bytes[s..e]),
                    literal,
                    offset: s,
                    len,
                });
            }
        };
        for (i, &b) in bytes.iter().enumerate() {
            if b.is_ascii_alphanumeric() {
                if start.is_none() {
                    start = Some(i);
                }
            } else if let Some(s) = start.take() {
                consider(s, i);
            }
        }
        if let Some(s) = start {
            consider(s, bytes.len());
        }
    }
    best
}

/// The hash of [`filter_index_token`]'s run: the key a filter is indexed
/// under.
#[doc(hidden)]
pub fn filter_token<'a, I: Iterator<Item = &'a str>>(literals: I) -> Option<u64> {
    filter_index_token(literals).map(|t| t.hash)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Iterate the token hashes of a lowercased URL string: every maximal
    /// alphanumeric run of length >= [`MIN_TOKEN_LEN`].
    fn url_tokens(url: &str) -> Vec<u64> {
        let mut out = Vec::with_capacity(16);
        url_tokens_into(url, &mut out);
        out
    }

    #[test]
    fn url_tokens_basic() {
        let toks = url_tokens("http://ads.example.com/banner.gif?id=12345");
        // http, ads, example, com, banner, gif, 12345 — "id" too short.
        assert_eq!(toks.len(), 7);
        assert!(toks.contains(&hash_token(b"banner")));
        assert!(!toks.contains(&hash_token(b"id")));
    }

    #[test]
    fn url_tokens_case_insensitive_hash() {
        assert_eq!(hash_token(b"BANNER"), hash_token(b"banner"));
    }

    #[test]
    fn filter_token_prefers_longest() {
        let t = filter_token(["ads.doubleclick"].into_iter()).unwrap();
        assert_eq!(t, hash_token(b"doubleclick"));
    }

    #[test]
    fn filter_token_across_segments() {
        let t = filter_token(["ad", "trackingpixel"].into_iter()).unwrap();
        assert_eq!(t, hash_token(b"trackingpixel"));
    }

    #[test]
    fn index_token_locates_the_run() {
        let lits = ["ad", "x/trackingpixel?", "/banner"];
        let t = filter_index_token(lits.into_iter()).unwrap();
        assert_eq!((t.literal, t.offset, t.len), (1, 2, 13));
        assert_eq!(t.hash, hash_token(b"trackingpixel"));
        assert_eq!(
            hash_token(&lits[t.literal].as_bytes()[t.offset..t.offset + t.len]),
            filter_token(lits.into_iter()).unwrap()
        );
        // Equally long runs: the first one wins, as the bucket key does.
        let tie = filter_index_token(["/abc/xyz"].into_iter()).unwrap();
        assert_eq!((tie.offset, tie.hash), (1, hash_token(b"abc")));
    }

    #[test]
    fn url_token_starts_point_at_the_runs() {
        let url = "http://ads.example.com/banner.gif?id=12345";
        let (mut tokens, mut starts) = (Vec::new(), Vec::new());
        url_tokens_with_starts_into(url, &mut tokens, &mut starts);
        assert_eq!(tokens, url_tokens(url));
        assert_eq!(starts, vec![0, 7, 11, 19, 23, 30, 37]);
        for (&t, &s) in tokens.iter().zip(&starts) {
            let run = url.as_bytes()[s..]
                .iter()
                .take_while(|b| b.is_ascii_alphanumeric())
                .count();
            assert_eq!(hash_token(&url.as_bytes()[s..s + run]), t);
        }
    }

    #[test]
    fn filter_token_none_when_all_short() {
        assert_eq!(filter_token(["a", "&&", "x1"].into_iter()), None);
        assert_eq!(filter_token(std::iter::empty::<&str>()), None);
    }

    #[test]
    fn indexed_filter_matches_its_urls_token_set() {
        // Soundness: a URL matching the filter must contain the filter's
        // token. Use a realistic rule/URL pair.
        let filter_lit = "/adserver/banner";
        let tok = filter_token([filter_lit].into_iter()).unwrap();
        let url = "http://x.com/adserver/banner.gif";
        assert!(url_tokens(url).contains(&tok));
    }

    #[test]
    fn trailing_token_counted() {
        let toks = url_tokens("abc");
        assert_eq!(toks, vec![hash_token(b"abc")]);
        let toks2 = url_tokens("ab");
        assert!(toks2.is_empty());
    }
}
