//! Parsed network-filter representation.

use crate::options::FilterOptions;
use std::sync::Arc;

/// Where the pattern is anchored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Anchor {
    /// Unanchored: the pattern may match anywhere in the URL.
    #[default]
    None,
    /// `|pattern`: must match at the very start of the URL.
    Start,
    /// `||pattern`: must match at the start of the host or at a subdomain
    /// boundary within it.
    Hostname,
}

/// One segment of a compiled pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// Literal text (lowercased unless `$match-case`).
    Literal(String),
    /// `*` — any run of characters (including empty).
    Star,
    /// `^` — a single separator character, or the end of the URL.
    Separator,
}

/// A compiled filter pattern.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pattern {
    /// Start anchoring.
    pub anchor: Anchor,
    /// `pattern|`: must match at the very end of the URL.
    pub end_anchor: bool,
    /// Compiled segments.
    pub segments: Vec<Segment>,
}

impl Pattern {
    /// Compile raw pattern text (the filter line minus `@@`, anchors already
    /// stripped by the parser are passed via `anchor`/`end_anchor`).
    /// `match_case` controls literal case folding. The segments and each
    /// literal are allocated at their final size: a rule's pattern is held
    /// until the rule is lowered, so at EasyList scale slack here is
    /// megabytes at the build's peak.
    pub fn compile(text: &str, anchor: Anchor, end_anchor: bool, match_case: bool) -> Pattern {
        let mut segments = Vec::with_capacity(pieces(text).count());
        segments.extend(pieces(text).map(|piece| match piece {
            Piece::Literal(l) => {
                let mut lit = l.to_owned();
                if !match_case {
                    lit.make_ascii_lowercase();
                }
                Segment::Literal(lit)
            }
            Piece::Star => Segment::Star,
            Piece::Separator => Segment::Separator,
        }));
        // A trailing star makes an end anchor meaningless; drop it.
        let end_anchor = end_anchor && segments.last() != Some(&Segment::Star);
        Pattern {
            anchor,
            end_anchor,
            segments,
        }
    }

    /// The literal segments of the pattern, in order.
    pub fn literals(&self) -> impl Iterator<Item = &str> {
        self.segments.iter().filter_map(|s| match s {
            Segment::Literal(l) => Some(l.as_str()),
            _ => None,
        })
    }

    /// True when the pattern has no constraining content at all (would match
    /// every URL).
    pub(crate) fn is_trivial(&self) -> bool {
        self.segments.is_empty()
            || (self.segments.iter().all(|s| *s == Segment::Star)
                && self.anchor == Anchor::None
                && !self.end_anchor)
    }
}

/// One segment of pattern text, its literal borrowed from the text.
#[derive(Clone, Copy, PartialEq)]
enum Piece<'a> {
    Literal(&'a str),
    Star,
    Separator,
}

/// The segments of pattern text in order: the non-empty literal runs
/// between `*` and `^`, with consecutive stars collapsed.
fn pieces(text: &str) -> impl Iterator<Item = Piece<'_>> {
    let mut after_star = false;
    text.split_inclusive(['*', '^'])
        .flat_map(|run| {
            let (lit, special) = match run.as_bytes()[run.len() - 1] {
                b'*' => (&run[..run.len() - 1], Some(Piece::Star)),
                b'^' => (&run[..run.len() - 1], Some(Piece::Separator)),
                _ => (run, None),
            };
            (!lit.is_empty())
                .then_some(Piece::Literal(lit))
                .into_iter()
                .chain(special)
        })
        .filter(move |&piece| {
            let repeat = after_star && piece == Piece::Star;
            after_star = piece == Piece::Star;
            !repeat
        })
}

/// A parsed network filter (blocking or exception).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFilter {
    /// The original filter line, for reporting (the paper prints matched
    /// rules like `@@*jsp?callback=aslHandleAds*`). Shared, not copied, by
    /// every engine the filter is loaded into and every match reported.
    pub raw: Arc<str>,
    /// True for `@@` exception rules.
    pub is_exception: bool,
    /// Compiled pattern.
    pub pattern: Pattern,
    /// `$` options.
    pub options: FilterOptions,
}

impl NetFilter {
    /// Literal strings of the query-string parts of this filter — the
    /// values the URL normalizer of §3.1 must *not* rewrite. E.g. for
    /// `@@*jsp?callback=aslHandleAds*` this yields `jsp?callback=aslhandleads`.
    pub fn query_literals(&self) -> Vec<&str> {
        self.pattern
            .literals()
            .filter(|l| l.contains('?') || l.contains('='))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_plain_literal() {
        let p = Pattern::compile("/ads/banner", Anchor::None, false, false);
        assert_eq!(
            p.segments,
            vec![Segment::Literal("/ads/banner".to_string())]
        );
        assert!(!p.is_trivial());
    }

    #[test]
    fn compile_lowercases_by_default() {
        let p = Pattern::compile("/ADS/Banner", Anchor::None, false, false);
        assert_eq!(
            p.segments,
            vec![Segment::Literal("/ads/banner".to_string())]
        );
        let c = Pattern::compile("/ADS/Banner", Anchor::None, false, true);
        assert_eq!(
            c.segments,
            vec![Segment::Literal("/ADS/Banner".to_string())]
        );
    }

    #[test]
    fn compile_wildcards_and_separators() {
        let p = Pattern::compile("ad^*.gif", Anchor::None, false, false);
        assert_eq!(
            p.segments,
            vec![
                Segment::Literal("ad".to_string()),
                Segment::Separator,
                Segment::Star,
                Segment::Literal(".gif".to_string()),
            ]
        );
    }

    #[test]
    fn consecutive_stars_collapse() {
        let p = Pattern::compile("a**b", Anchor::None, false, false);
        assert_eq!(
            p.segments,
            vec![
                Segment::Literal("a".to_string()),
                Segment::Star,
                Segment::Literal("b".to_string()),
            ]
        );
    }

    #[test]
    fn trailing_star_drops_end_anchor() {
        let p = Pattern::compile("ads*", Anchor::None, true, false);
        assert!(!p.end_anchor);
        let q = Pattern::compile("ads", Anchor::None, true, false);
        assert!(q.end_anchor);
    }

    #[test]
    fn trivial_patterns() {
        assert!(Pattern::compile("", Anchor::None, false, false).is_trivial());
        assert!(Pattern::compile("*", Anchor::None, false, false).is_trivial());
        assert!(!Pattern::compile("*", Anchor::Hostname, false, false).is_trivial());
        assert!(!Pattern::compile("a", Anchor::None, false, false).is_trivial());
    }

    #[test]
    fn literals_iterator() {
        let p = Pattern::compile("a*b^c", Anchor::None, false, false);
        let lits: Vec<&str> = p.literals().collect();
        assert_eq!(lits, vec!["a", "b", "c"]);
    }

    #[test]
    fn query_literals() {
        let f = NetFilter {
            raw: Arc::from("@@*jsp?callback=aslHandleAds*"),
            is_exception: true,
            pattern: Pattern::compile("jsp?callback=aslHandleAds", Anchor::None, false, false),
            options: FilterOptions::default(),
        };
        assert_eq!(f.query_literals(), vec!["jsp?callback=aslhandleads"]);
    }
}
