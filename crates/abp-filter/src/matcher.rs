//! Pattern matching of compiled filters against URL strings.

use crate::rule::{Anchor, Pattern, Segment};

/// Characters the `^` separator matches: anything that is not a letter,
/// digit, or one of `_ - . %` (Adblock Plus definition). `^` also matches
/// the end of the URL.
#[inline]
pub(crate) fn is_separator(c: u8) -> bool {
    !(c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' || c == b'%')
}

/// Match a pattern against a URL.
///
/// `url` must be the *full* URL string (e.g. `http://host/path?query`);
/// `host_start`/`host_end` delimit the host within it so that `||` anchors
/// can enumerate subdomain boundaries. For case-insensitive rules the caller
/// passes the lowercased URL (patterns are lowercased at compile time).
pub fn matches(pattern: &Pattern, url: &str, host_start: usize, host_end: usize) -> bool {
    let bytes = url.as_bytes();
    match pattern.anchor {
        Anchor::Start => match_here(&pattern.segments, bytes, 0, pattern.end_anchor),
        Anchor::Hostname => {
            // Candidate positions: the host start and every position right
            // after a '.' within the host.
            if match_here(&pattern.segments, bytes, host_start, pattern.end_anchor) {
                return true;
            }
            let host = &bytes[host_start..host_end.min(bytes.len())];
            for (i, &b) in host.iter().enumerate() {
                if b == b'.'
                    && match_here(
                        &pattern.segments,
                        bytes,
                        host_start + i + 1,
                        pattern.end_anchor,
                    )
                {
                    return true;
                }
            }
            false
        }
        Anchor::None => {
            // Try every start position; the usual fast path is finding the
            // first literal. We optimize by scanning for the first literal
            // segment when the pattern starts with one.
            match pattern.segments.first() {
                Some(Segment::Literal(first)) => {
                    let fl = first.as_bytes();
                    if fl.is_empty() {
                        return match_anywhere(&pattern.segments, bytes, pattern.end_anchor);
                    }
                    let mut from = 0;
                    while let Some(pos) = find(bytes, fl, from) {
                        if match_here(&pattern.segments, bytes, pos, pattern.end_anchor) {
                            return true;
                        }
                        from = pos + 1;
                    }
                    false
                }
                _ => match_anywhere(&pattern.segments, bytes, pattern.end_anchor),
            }
        }
    }
}

fn match_anywhere(segments: &[Segment], bytes: &[u8], end_anchor: bool) -> bool {
    (0..=bytes.len()).any(|i| match_here(segments, bytes, i, end_anchor))
}

/// Match the segment list starting exactly at byte offset `at`.
fn match_here(segments: &[Segment], bytes: &[u8], at: usize, end_anchor: bool) -> bool {
    match segments.split_first() {
        None => !end_anchor || at == bytes.len(),
        Some((Segment::Literal(lit), rest)) => {
            let lb = lit.as_bytes();
            if at + lb.len() > bytes.len() || &bytes[at..at + lb.len()] != lb {
                return false;
            }
            match_here(rest, bytes, at + lb.len(), end_anchor)
        }
        Some((Segment::Separator, rest)) => {
            if at == bytes.len() {
                // '^' at the end of the URL matches the end position; any
                // remaining segments are only satisfiable at the end when
                // they are stars/separators (which also match there). The
                // end anchor is trivially satisfied at the end position.
                return rest
                    .iter()
                    .all(|s| matches!(s, Segment::Star | Segment::Separator));
            }
            if !is_separator(bytes[at]) {
                return false;
            }
            match_here(rest, bytes, at + 1, end_anchor)
        }
        Some((Segment::Star, rest)) => {
            if rest.is_empty() {
                // A trailing star consumes to the end, satisfying any end
                // anchor along the way.
                return true;
            }
            // Try all split points; prefer the shortest consumption for
            // typical short literals (left-to-right scan).
            (at..=bytes.len()).any(|i| match_here(rest, bytes, i, end_anchor))
        }
    }
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

/// Locate the host within a full URL string: returns `(host_start, host_end)`.
/// Assumes the URL has a scheme (`http://`, `https://`).
///
/// Two forward byte scans: the host starts after the first `://` (or at 0)
/// and ends at the next `/`, `?` or `:` (or at the end). Every delimiter is
/// ASCII, so byte positions are the `str::find` positions.
#[doc(hidden)]
pub fn host_span(url: &str) -> (usize, usize) {
    let bytes = url.as_bytes();
    let start = (0..bytes.len())
        .find(|&i| bytes[i] == b':' && bytes[i + 1..].starts_with(b"//"))
        .map_or(0, |p| p + 3);
    let end = bytes[start..]
        .iter()
        .position(|&b| matches!(b, b'/' | b'?' | b':'))
        .map_or(bytes.len(), |p| p + start);
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Pattern;

    fn m(pattern: &str, anchor: Anchor, end: bool, url: &str) -> bool {
        let p = Pattern::compile(pattern, anchor, end, false);
        let lower = url.to_ascii_lowercase();
        let (hs, he) = host_span(&lower);
        matches(&p, &lower, hs, he)
    }

    #[test]
    fn plain_substring() {
        assert!(m(
            "/ads/",
            Anchor::None,
            false,
            "http://x.com/ads/banner.gif"
        ));
        assert!(!m("/ads/", Anchor::None, false, "http://x.com/content/"));
    }

    #[test]
    fn case_insensitive_default() {
        assert!(m("/ads/", Anchor::None, false, "http://x.com/ADS/a.gif"));
    }

    #[test]
    fn case_sensitive_with_match_case() {
        let p = Pattern::compile("/ADS/", Anchor::None, false, true);
        let url = "http://x.com/ADS/a.gif";
        let (hs, he) = host_span(url);
        assert!(matches(&p, url, hs, he));
        let url2 = "http://x.com/ads/a.gif";
        let (hs2, he2) = host_span(url2);
        assert!(!matches(&p, url2, hs2, he2));
    }

    #[test]
    fn start_anchor() {
        assert!(m(
            "http://bad.",
            Anchor::Start,
            false,
            "http://bad.example/x"
        ));
        assert!(!m("bad.", Anchor::Start, false, "http://bad.example/x"));
    }

    #[test]
    fn end_anchor() {
        assert!(m(".swf", Anchor::None, true, "http://x.com/movie.swf"));
        assert!(!m(".swf", Anchor::None, true, "http://x.com/movie.swf?x=1"));
    }

    #[test]
    fn hostname_anchor_exact_and_subdomain() {
        assert!(m(
            "example.com^",
            Anchor::Hostname,
            false,
            "http://example.com/"
        ));
        assert!(m(
            "example.com^",
            Anchor::Hostname,
            false,
            "http://ads.example.com/"
        ));
        // Must not match inside a label.
        assert!(!m(
            "example.com^",
            Anchor::Hostname,
            false,
            "http://notexample.com/"
        ));
        // Must not match the domain appearing in the path.
        assert!(!m(
            "example.com^",
            Anchor::Hostname,
            false,
            "http://other.com/example.com/"
        ));
    }

    #[test]
    fn hostname_anchor_with_path_tail() {
        assert!(m(
            "ads.example.com/banner",
            Anchor::Hostname,
            false,
            "http://ads.example.com/banner.gif"
        ));
    }

    #[test]
    fn separator_semantics() {
        // '^' matches '/', '?', ':', end — not letters/digits/._-%
        assert!(m(
            "example.com^",
            Anchor::Hostname,
            false,
            "http://example.com/"
        ));
        assert!(m(
            "example.com^",
            Anchor::Hostname,
            false,
            "http://example.com:8080/"
        ));
        assert!(m(
            "example.com^",
            Anchor::Hostname,
            false,
            "http://example.com"
        ));
        assert!(!m(
            "example.com^",
            Anchor::Hostname,
            false,
            "http://example.comx/"
        ));
        assert!(!m(
            "example.com^",
            Anchor::Hostname,
            false,
            "http://example.com-evil.net/"
        ));
        assert!(!m(
            "example.com^",
            Anchor::Hostname,
            false,
            "http://example.com.evil.net/"
        ));
    }

    #[test]
    fn wildcard() {
        assert!(m(
            "/banner/*/img^",
            Anchor::None,
            false,
            "http://example.com/banner/foo/img?x"
        ));
        assert!(m(
            "/banner/*/img^",
            Anchor::None,
            false,
            "http://example.com/banner/a/b/img"
        ));
        assert!(!m(
            "/banner/*/img^",
            Anchor::None,
            false,
            "http://example.com/banner/img"
        ));
    }

    #[test]
    fn star_matches_empty() {
        assert!(m("a*b", Anchor::None, false, "http://x.com/ab"));
    }

    #[test]
    fn multiple_first_literal_occurrences() {
        // The first occurrence fails, a later one succeeds — matcher must
        // keep scanning.
        assert!(m("ad*gif", Anchor::None, false, "http://x.com/adx/ad.gif"));
        assert!(m("ads/x", Anchor::None, false, "http://x.com/ads/ads/x"));
    }

    #[test]
    fn separator_at_end_with_trailing_star() {
        assert!(m("com^*", Anchor::None, false, "http://example.com"));
    }

    #[test]
    fn host_span_variants() {
        assert_eq!(host_span("http://example.com/x"), (7, 18));
        assert_eq!(host_span("https://a.b/"), (8, 11));
        assert_eq!(host_span("http://h.com"), (7, 12));
        assert_eq!(host_span("http://h.com:81/"), (7, 12));
        assert_eq!(host_span("http://h.com?q"), (7, 12));
    }

    #[test]
    fn empty_pattern_with_hostname_anchor_matches_any_host_start() {
        // `||` alone is trivial but parser rejects it; matcher-level check:
        let p = Pattern::compile("", Anchor::Hostname, false, false);
        let url = "http://x.com/";
        let (hs, he) = host_span(url);
        assert!(matches(&p, url, hs, he));
    }
}
