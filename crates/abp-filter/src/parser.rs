//! The EasyList filter-syntax parser.
//!
//! Grammar (the subset the Adblock Plus core actually evaluates for network
//! requests plus element hiding):
//!
//! ```text
//! line        := comment | elem-hide | net-filter | blank
//! comment     := "!" .*   |  "[Adblock" .*
//! elem-hide   := [domains] ("##" | "#@#") selector
//! net-filter  := ["@@"] ["||" | "|"] body ["|"] ["$" options]
//! body        := (literal | "*" | "^")+
//! ```

use crate::hiding::HidingRule;
use crate::options::FilterOptions;
use crate::rule::{Anchor, NetFilter, Pattern};
use std::sync::Arc;

/// The result of parsing one filter-list line.
#[derive(Debug, Clone, PartialEq)]
#[doc(hidden)]
pub enum ParsedLine {
    /// Blank line or comment.
    Ignored,
    /// A network (blocking or exception) filter.
    Net(NetFilter),
    /// An element-hiding rule (or hiding exception).
    Hiding(HidingRule),
    /// A line we could not parse (kept for diagnostics; real-world lists
    /// always contain a few).
    Invalid {
        /// The offending line.
        line: String,
        /// Why it failed.
        reason: String,
    },
}

/// Parse a single filter-list line.
#[doc(hidden)]
pub fn parse_line(line: &str) -> ParsedLine {
    let line = line.trim();
    parse_trimmed(line, || line.into())
}

/// Parse a trimmed line; a network filter's `raw` text comes from `raw`,
/// called once the filter is known to be valid.
fn parse_trimmed(line: &str, raw: impl FnOnce() -> Arc<str>) -> ParsedLine {
    if line.is_empty() || line.starts_with('!') || line.starts_with("[Adblock") {
        return ParsedLine::Ignored;
    }
    // Element hiding: domains##selector / domains#@#selector. Check before
    // network parsing because selectors may contain every special char.
    if let Some(idx) = find_hiding_separator(line) {
        let (sep_len, is_exception) = if line[idx..].starts_with("#@#") {
            (3, true)
        } else {
            (2, false)
        };
        let domains_part = &line[..idx];
        let selector = &line[idx + sep_len..];
        if selector.is_empty() {
            return ParsedLine::Invalid {
                line: line.to_string(),
                reason: "empty element-hiding selector".to_string(),
            };
        }
        return ParsedLine::Hiding(HidingRule::new(domains_part, selector, is_exception));
    }
    parse_net_filter(line, raw)
}

/// Locate `##` or `#@#` outside of any other context. EasyList guarantees
/// the separator appears at most once; we take the first occurrence.
fn find_hiding_separator(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b'#'
            && (bytes[i + 1] == b'#'
                || (bytes[i + 1] == b'@' && i + 2 < bytes.len() && bytes[i + 2] == b'#'))
        {
            return Some(i);
        }
        i += 1;
    }
    None
}

fn parse_net_filter(line: &str, raw: impl FnOnce() -> Arc<str>) -> ParsedLine {
    let (is_exception, rest) = match line.strip_prefix("@@") {
        Some(r) => (true, r),
        None => (false, line),
    };
    // Split off $options — the LAST '$' that is followed by a plausible
    // option list. EasyList conventions make the last '$' the separator
    // unless it is part of a regex (which we do not support) .
    let (body, options) = match rest.rfind('$') {
        Some(idx) if idx + 1 < rest.len() && looks_like_options(&rest[idx + 1..]) => {
            match FilterOptions::parse(&rest[idx + 1..]) {
                Ok(o) => (&rest[..idx], o),
                Err(e) => {
                    return ParsedLine::Invalid {
                        line: line.to_string(),
                        reason: e.to_string(),
                    }
                }
            }
        }
        _ => (rest, FilterOptions::default()),
    };
    // Anchors.
    let (anchor, body) = if let Some(b) = body.strip_prefix("||") {
        (Anchor::Hostname, b)
    } else if let Some(b) = body.strip_prefix('|') {
        (Anchor::Start, b)
    } else {
        (Anchor::None, body)
    };
    let (end_anchor, body) = match body.strip_suffix('|') {
        Some(b) => (true, b),
        None => (false, body),
    };
    let pattern = Pattern::compile(body, anchor, end_anchor, options.match_case);
    if pattern.is_trivial() && options.is_unrestricted() && !options.document {
        return ParsedLine::Invalid {
            line: line.to_string(),
            reason: "filter matches everything".to_string(),
        };
    }
    ParsedLine::Net(NetFilter {
        raw: raw(),
        is_exception,
        pattern,
        options,
    })
}

/// Heuristic: does the text after a `$` look like an option list rather than
/// part of the URL pattern? Option lists contain only option-ish characters.
fn looks_like_options(s: &str) -> bool {
    s.split(',').all(|tok| {
        let tok = tok.trim();
        !tok.is_empty()
            && tok
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "~-=.|_".contains(c))
    })
}

/// Parse a whole filter-list document, returning valid rules and counting
/// invalid ones.
///
/// The network rules' `raw` texts are allocated last, in one run in load
/// order (blocking, then exceptions), once every pattern is parsed. The
/// texts outlive the parsed rules — every engine the rules are lowered into
/// shares them — while the patterns are freed by lowering, so the texts sit
/// together above that freed heap instead of pinning it into small holes.
pub(crate) fn parse_document(text: &str) -> ParsedDocument {
    let mut doc = ParsedDocument::default();
    // Until the texts are allocated, every rule holds this one placeholder,
    // and each table its rules' trimmed lines.
    let placeholder: Arc<str> = Arc::from("");
    let (mut blocking, mut exceptions) = (Vec::new(), Vec::new());
    for line in text.lines() {
        let line = line.trim();
        match parse_trimmed(line, || Arc::clone(&placeholder)) {
            ParsedLine::Ignored => doc.ignored += 1,
            ParsedLine::Net(f) => {
                if f.is_exception {
                    doc.exceptions.push(f);
                    exceptions.push(line);
                } else {
                    doc.blocking.push(f);
                    blocking.push(line);
                }
            }
            ParsedLine::Hiding(h) => doc.hiding.push(h),
            ParsedLine::Invalid { line, reason } => doc.invalid.push((line, reason)),
        }
    }
    let rules = doc.blocking.iter_mut().chain(&mut doc.exceptions);
    for (f, line) in rules.zip(blocking.into_iter().chain(exceptions)) {
        f.raw = Arc::from(line);
    }
    doc
}

/// All rules parsed from one filter-list document.
#[derive(Debug, Clone, Default)]
pub(crate) struct ParsedDocument {
    /// Blocking network filters.
    pub blocking: Vec<NetFilter>,
    /// Exception (`@@`) network filters.
    pub exceptions: Vec<NetFilter>,
    /// Element-hiding rules.
    pub hiding: Vec<HidingRule>,
    /// Unparseable lines with reasons.
    pub invalid: Vec<(String, String)>,
    /// Comment/blank lines skipped.
    pub ignored: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::PartyConstraint;
    use crate::rule::Segment;
    use http_model::ContentCategory;

    fn net(line: &str) -> NetFilter {
        match parse_line(line) {
            ParsedLine::Net(f) => f,
            other => panic!("expected net filter for {line:?}, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank() {
        assert_eq!(parse_line("! comment"), ParsedLine::Ignored);
        assert_eq!(parse_line(""), ParsedLine::Ignored);
        assert_eq!(parse_line("   "), ParsedLine::Ignored);
        assert_eq!(parse_line("[Adblock Plus 2.0]"), ParsedLine::Ignored);
    }

    #[test]
    fn plain_blocking_filter() {
        let f = net("&ad_box_");
        assert!(!f.is_exception);
        assert_eq!(f.pattern.anchor, Anchor::None);
        assert_eq!(
            f.pattern.segments,
            vec![Segment::Literal("&ad_box_".to_string())]
        );
    }

    #[test]
    fn hostname_anchor() {
        let f = net("||ads.example.com^");
        assert_eq!(f.pattern.anchor, Anchor::Hostname);
        assert_eq!(
            f.pattern.segments,
            vec![
                Segment::Literal("ads.example.com".to_string()),
                Segment::Separator
            ]
        );
    }

    #[test]
    fn start_and_end_anchor() {
        let f = net("|http://baddomain.example/|");
        assert_eq!(f.pattern.anchor, Anchor::Start);
        assert!(f.pattern.end_anchor);
    }

    #[test]
    fn exception_with_document_option() {
        let f = net("@@||gstatic.com^$document");
        assert!(f.is_exception);
        assert!(f.options.document);
        assert_eq!(f.pattern.anchor, Anchor::Hostname);
    }

    #[test]
    fn options_parsing() {
        let f = net("||tracker.example^$script,third-party,domain=news.com|~sports.news.com");
        assert!(f.options.applies_to_type(ContentCategory::Script));
        assert!(!f.options.applies_to_type(ContentCategory::Image));
        assert_eq!(f.options.party, PartyConstraint::ThirdOnly);
        assert!(f.options.applies_on_domain(Some("news.com")));
        assert!(!f.options.applies_on_domain(Some("sports.news.com")));
    }

    #[test]
    fn dollar_in_pattern_not_options() {
        // A '$' not followed by something shaped like an option list is part
        // of the pattern.
        let f = net("/page$/ad");
        assert_eq!(
            f.pattern.segments,
            vec![Segment::Literal("/page$/ad".to_string())]
        );
    }

    #[test]
    fn invalid_option_rejected() {
        match parse_line("||x.com^$bogusoption") {
            // "bogusoption" looks like an option token, so it must error.
            ParsedLine::Invalid { reason, .. } => assert!(reason.contains("bogusoption")),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn trivial_filter_rejected() {
        assert!(matches!(parse_line("*"), ParsedLine::Invalid { .. }));
    }

    #[test]
    fn element_hiding_rules() {
        match parse_line("example.com##.ad-banner") {
            ParsedLine::Hiding(h) => {
                assert!(!h.is_exception);
                assert_eq!(h.selector, ".ad-banner");
                assert!(h.applies_to("example.com"));
                assert!(!h.applies_to("other.com"));
            }
            other => panic!("got {other:?}"),
        }
        match parse_line("##.generic-ad") {
            ParsedLine::Hiding(h) => {
                assert!(h.applies_to("anything.com"));
            }
            other => panic!("got {other:?}"),
        }
        match parse_line("example.com#@#.ad-banner") {
            ParsedLine::Hiding(h) => assert!(h.is_exception),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn empty_selector_invalid() {
        assert!(matches!(
            parse_line("example.com##"),
            ParsedLine::Invalid { .. }
        ));
    }

    #[test]
    fn parse_document_buckets() {
        let doc = parse_document(
            "! EasyList excerpt\n\
             [Adblock Plus 2.0]\n\
             ||ads.example^\n\
             @@||good.example^$document\n\
             example.com##.ad\n\
             totally&&valid_pattern\n\
             *\n",
        );
        assert_eq!(doc.blocking.len(), 2);
        assert_eq!(doc.exceptions.len(), 1);
        assert_eq!(doc.hiding.len(), 1);
        assert_eq!(doc.invalid.len(), 1);
        assert_eq!(doc.ignored, 2);
    }

    #[test]
    fn patterns_and_domain_lists_allocate_exactly() {
        let doc = parse_document(
            "||ads.example^*banner**.gif^$domain=News.com|~sports.news.com|~x.org|y.net\n\
             |http://a.example/*x^|\n\
             @@*jsp?callback=aslHandleAds*$script,domain=~Shop.example\n\
             /trailing/literal\n\
             ^^sep**\n",
        );
        let rules: Vec<&NetFilter> = doc.blocking.iter().chain(&doc.exceptions).collect();
        assert_eq!(rules.len(), 5);
        for f in rules {
            let segments = &f.pattern.segments;
            assert_eq!(segments.capacity(), segments.len(), "{}", f.raw);
            for s in segments {
                if let Segment::Literal(l) = s {
                    assert_eq!(l.capacity(), l.len(), "{}: {l}", f.raw);
                }
            }
            for domains in [&f.options.include_domains, &f.options.exclude_domains] {
                assert_eq!(domains.capacity(), domains.len(), "{}", f.raw);
                for d in domains {
                    assert_eq!(d.capacity(), d.len(), "{}: {d}", f.raw);
                }
            }
        }
        let f = &doc.blocking[0];
        assert_eq!(
            f.pattern.segments,
            vec![
                Segment::Literal("ads.example".to_string()),
                Segment::Separator,
                Segment::Star,
                Segment::Literal("banner".to_string()),
                Segment::Star,
                Segment::Literal(".gif".to_string()),
                Segment::Separator,
            ]
        );
        assert_eq!(f.options.include_domains, ["news.com", "y.net"]);
        assert_eq!(f.options.exclude_domains, ["sports.news.com", "x.org"]);
        assert_eq!(doc.exceptions[0].options.exclude_domains, ["shop.example"]);
        assert!(doc.blocking[1].pattern.end_anchor);
        assert_eq!(
            doc.blocking[3].pattern.segments,
            [
                Segment::Separator,
                Segment::Separator,
                Segment::Literal("sep".to_string()),
                Segment::Star
            ]
        );
    }

    #[test]
    fn raw_texts_are_the_trimmed_lines_in_load_order() {
        let text = "! comment\n\
                    \t||ads.example^  \n\
                    @@||good.example^$document\n\
                    example.com##.ad\n\
                    \x20/banners/*.gif\n\
                    ||x.com^$bogusoption\n\
                    @@*jsp?callback=aslHandleAds*\r\n\
                    |http://a.example/|\n";
        let doc = parse_document(text);
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        let net = |exception: bool| -> Vec<&str> {
            lines
                .iter()
                .copied()
                .filter(
                    |l| matches!(parse_line(l), ParsedLine::Net(f) if f.is_exception == exception),
                )
                .collect()
        };
        let raw = |rules: &[NetFilter]| -> Vec<String> {
            rules.iter().map(|f| f.raw.to_string()).collect()
        };
        assert_eq!(
            net(false),
            ["||ads.example^", "/banners/*.gif", "|http://a.example/|"]
        );
        assert_eq!(raw(&doc.blocking), net(false));
        assert_eq!(
            net(true),
            [
                "@@||good.example^$document",
                "@@*jsp?callback=aslHandleAds*"
            ]
        );
        assert_eq!(raw(&doc.exceptions), net(true));
        // The same rules `parse_line` gives, texts included.
        for (f, line) in doc.blocking.iter().zip(net(false)) {
            assert_eq!(parse_line(line), ParsedLine::Net(f.clone()));
        }
    }

    #[test]
    fn query_string_exception_filter() {
        // The normalization-conflict example from §3.1 of the paper.
        let f = net("@@*jsp?callback=aslHandleAds*");
        assert!(f.is_exception);
        let lits: Vec<&str> = f.pattern.literals().collect();
        assert_eq!(lits, vec!["jsp?callback=aslhandleads"]);
    }
}
