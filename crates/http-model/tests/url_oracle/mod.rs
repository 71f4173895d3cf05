//! Test-only oracle: `http_model::Url` as it was before it became one
//! shared buffer — three owned `String`s and derived `Debug`/`==`/`Hash`.
//! The differential suites hold the live type to this one, accessor by
//! accessor.
#![allow(dead_code)]

use http_model::url::{Scheme, UrlError};

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    scheme: Scheme,
    host: String,
    port: Option<u16>,
    path: String,
    query: Option<String>,
}

impl Url {
    /// Parse a URL string. The host is lowercased; a missing path becomes
    /// `/`; any `#fragment` is dropped.
    pub fn parse(input: &str) -> Result<Url, UrlError> {
        Url::parse_inner(input)
    }

    fn parse_inner(input: &str) -> Result<Url, UrlError> {
        let input = input.trim();
        let (scheme, rest) = if let Some(rest) = strip_prefix_ci(input, "http://") {
            (Scheme::Http, rest)
        } else if let Some(rest) = strip_prefix_ci(input, "https://") {
            (Scheme::Https, rest)
        } else if let Some(rest) = input.strip_prefix("//") {
            // Protocol-relative: treat as HTTP, the dominant scheme in the
            // paper's header traces.
            (Scheme::Http, rest)
        } else if let Some(pos) = input.find("://") {
            (Scheme::Other, &input[pos + 3..])
        } else {
            return Err(UrlError::MissingScheme);
        };
        // Split host[:port] from path?query#fragment.
        let end_of_authority = rest.find(['/', '?', '#']).unwrap_or(rest.len());
        let authority = &rest[..end_of_authority];
        let tail = &rest[end_of_authority..];
        // Drop userinfo if present (never appears in our traces).
        let authority = authority.rsplit('@').next().unwrap_or(authority);
        let (host_raw, port) = match authority.rsplit_once(':') {
            Some((h, p)) if !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()) => {
                (h, Some(p.parse::<u16>().map_err(|_| UrlError::BadPort)?))
            }
            Some((_, p)) if p.chars().any(|c| !c.is_ascii_digit()) => (authority, None),
            _ => (authority, None),
        };
        if host_raw.is_empty() {
            return Err(UrlError::EmptyHost);
        }
        let host = host_raw.to_ascii_lowercase();
        // Split path from query, dropping fragments.
        let tail = tail.split('#').next().unwrap_or("");
        let (path, query) = match tail.split_once('?') {
            Some((p, q)) => {
                let p = if p.is_empty() { "/" } else { p };
                (
                    p.to_string(),
                    if q.is_empty() {
                        None
                    } else {
                        Some(q.to_string())
                    },
                )
            }
            None => (
                if tail.is_empty() {
                    "/".to_string()
                } else {
                    tail.to_string()
                },
                None,
            ),
        };
        Ok(Url {
            scheme,
            host,
            port,
            path,
            query,
        })
    }

    /// Build a URL from parts without string parsing (used heavily by the
    /// page generator). `path` is given with a leading `/`.
    pub fn from_parts(scheme: Scheme, host: &str, path: &str, query: Option<&str>) -> Url {
        Url {
            scheme,
            host: host.to_ascii_lowercase(),
            port: None,
            path: if path.is_empty() {
                "/".to_string()
            } else {
                path.to_string()
            },
            query: query.map(|q| q.to_string()),
        }
    }

    /// The scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Lowercased host.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Explicit port, if any.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// Effective port (explicit or scheme default).
    pub fn effective_port(&self) -> u16 {
        self.port.unwrap_or_else(|| self.scheme.default_port())
    }

    /// Path starting with `/`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Raw query string without the leading `?`, if present.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// A copy with the query string replaced (used by the URL normalizer
    /// in `adscope`). The old query is not cloned on the way.
    pub fn with_query(&self, query: Option<String>) -> Url {
        Url {
            scheme: self.scheme,
            host: self.host.clone(),
            port: self.port,
            path: self.path.clone(),
            query,
        }
    }

    /// Iterate `(key, value)` pairs of the query string. Pairs without `=`
    /// yield an empty value.
    pub fn query_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.query
            .as_deref()
            .unwrap_or("")
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
    }

    /// The last path segment, e.g. `banner.gif` for `/x/banner.gif`.
    pub fn filename(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or("")
    }

    /// The file extension of the last path segment (lowercased), if any.
    pub fn extension(&self) -> Option<String> {
        let name = self.filename();
        let (stem, ext) = name.rsplit_once('.')?;
        if stem.is_empty() || ext.is_empty() || ext.len() > 8 {
            return None;
        }
        Some(ext.to_ascii_lowercase())
    }

    /// Render the URL back to a string.
    pub fn as_string(&self) -> String {
        let mut s = String::with_capacity(
            self.host.len() + self.path.len() + self.query.as_deref().map_or(0, str::len) + 12,
        );
        self.write_into(&mut s);
        s
    }

    /// Serialize into a caller-provided buffer (cleared first) — the
    /// allocation-free form of [`Url::as_string`] for hot paths that reuse
    /// one buffer across many URLs.
    pub fn write_into(&self, s: &mut String) {
        use std::fmt::Write as _;
        s.clear();
        s.push_str(self.scheme.prefix());
        s.push_str(&self.host);
        if let Some(p) = self.port {
            let _ = write!(s, ":{p}");
        }
        s.push_str(&self.path);
        if let Some(q) = &self.query {
            s.push('?');
            s.push_str(q);
        }
    }

    /// Host + path + query — the portion filter rules match against when the
    /// scheme is irrelevant.
    pub fn without_scheme(&self) -> String {
        let mut s = String::new();
        s.push_str(&self.host);
        s.push_str(&self.path);
        if let Some(q) = &self.query {
            s.push('?');
            s.push_str(q);
        }
        s
    }
}

/// The one departure from the old code, which sliced `s[..prefix.len()]`
/// and panicked when that was not a char boundary; wherever it did not
/// panic the verdict is the same.
fn strip_prefix_ci<'a>(s: &'a str, prefix: &str) -> Option<&'a str> {
    if s.len() >= prefix.len()
        && s.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
    {
        Some(&s[prefix.len()..])
    } else {
        None
    }
}
