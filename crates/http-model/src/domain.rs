//! Registrable-domain logic with an embedded mini public-suffix list.
//!
//! Adblock Plus filter options like `$domain=example.com` and `$third-party`
//! compare *registrable* domains (one label below the public suffix), not
//! raw hosts. A full public-suffix list is thousands of entries; the
//! synthetic ad-scape only uses the common suffixes embedded here, which is
//! documented as a substitution in DESIGN.md.

/// Two-level public suffixes checked before the single-level fallback.
const TWO_LEVEL_SUFFIXES: &[&str] = &[
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "co.jp", "ne.jp", "or.jp", "com.au", "net.au",
    "org.au", "com.br", "net.br", "com.cn", "net.cn", "org.cn", "co.in", "com.mx", "com.tr",
    "com.ar", "co.nz", "co.za", "com.sg", "com.hk",
];

/// Return the registrable domain (eTLD+1) of a host, or the host itself when
/// it has no dot / is an IP-like literal.
///
/// ```
/// use http_model::registrable_domain;
/// assert_eq!(registrable_domain("ads.tracker.example.com"), "example.com");
/// assert_eq!(registrable_domain("news.bbc.co.uk"), "bbc.co.uk");
/// assert_eq!(registrable_domain("localhost"), "localhost");
/// ```
pub fn registrable_domain(host: &str) -> &str {
    let host = host.trim_end_matches('.');
    // IP literals have no registrable domain.
    if host.bytes().all(|b| b.is_ascii_digit() || b == b'.') {
        return host;
    }
    // The last two labels, then (behind a two-level suffix) the last
    // three: found by scanning back for dots, never by splitting.
    let Some(last) = host.rfind('.') else {
        return host;
    };
    let after = |dot: Option<usize>| dot.map_or(host, |d| &host[d + 1..]);
    let second = host[..last].rfind('.');
    let last2 = after(second);
    match second {
        Some(d) if TWO_LEVEL_SUFFIXES.contains(&last2) => after(host[..d].rfind('.')),
        _ => last2,
    }
}

/// True when `host` equals `domain` or is a subdomain of it. This is the
/// matching rule for `||` anchors and `$domain=` options.
///
/// ```
/// use http_model::is_subdomain_or_same;
/// assert!(is_subdomain_or_same("a.ads.example.com", "example.com"));
/// assert!(is_subdomain_or_same("example.com", "example.com"));
/// assert!(!is_subdomain_or_same("notexample.com", "example.com"));
/// ```
pub fn is_subdomain_or_same(host: &str, domain: &str) -> bool {
    if host.len() < domain.len() {
        return false;
    }
    if !host.ends_with(domain) {
        return false;
    }
    host.len() == domain.len() || host.as_bytes()[host.len() - domain.len() - 1] == b'.'
}

/// True when a request to `request_host` from a page on `page_host` is a
/// third-party request (different registrable domains) — the semantics of
/// the `$third-party` filter option.
pub fn is_third_party(request_host: &str, page_host: &str) -> bool {
    registrable_domain(request_host) != registrable_domain(page_host)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registrable_basic() {
        assert_eq!(registrable_domain("example.com"), "example.com");
        assert_eq!(registrable_domain("www.example.com"), "example.com");
        assert_eq!(registrable_domain("a.b.c.example.org"), "example.org");
    }

    #[test]
    fn registrable_two_level_suffix() {
        assert_eq!(registrable_domain("www.bbc.co.uk"), "bbc.co.uk");
        assert_eq!(registrable_domain("bbc.co.uk"), "bbc.co.uk");
        // Host that IS a public suffix: returned unchanged.
        assert_eq!(registrable_domain("co.uk"), "co.uk");
    }

    #[test]
    fn registrable_bare_and_ip() {
        assert_eq!(registrable_domain("localhost"), "localhost");
        assert_eq!(registrable_domain("10.2.3.4"), "10.2.3.4");
        assert_eq!(registrable_domain(""), "");
        assert_eq!(registrable_domain("example.com."), "example.com");
    }

    #[test]
    fn subdomain_matching() {
        assert!(is_subdomain_or_same("example.com", "example.com"));
        assert!(is_subdomain_or_same("sub.example.com", "example.com"));
        assert!(!is_subdomain_or_same("xexample.com", "example.com"));
        assert!(!is_subdomain_or_same("example.com", "sub.example.com"));
        assert!(!is_subdomain_or_same("com", "example.com"));
    }

    #[test]
    fn third_party() {
        assert!(is_third_party("ads.doubleclick.net", "news.example.com"));
        assert!(!is_third_party("static.example.com", "www.example.com"));
        assert!(!is_third_party("example.com", "example.com"));
    }
}
