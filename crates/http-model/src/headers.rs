//! The HTTP header fields the methodology consumes.
//!
//! Bro's HTTP analyzer — as extended by the paper — exports five fields per
//! transaction: `Host` + URI (request), `Referer` (request), `Content-Type`
//! (response), `Content-Length` (response) and `Location` (response, the
//! paper's extension for redirect repair). This module models just those.

/// Request-side header fields visible in a header-only trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestHeaders {
    /// `Host` header value.
    pub host: String,
    /// Request URI (path + query as sent on the request line).
    pub uri: String,
    /// `Referer` header value, when present.
    pub referer: Option<String>,
    /// `User-Agent` header value, when present.
    pub user_agent: Option<String>,
}

/// Response-side header fields visible in a header-only trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResponseHeaders {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value, when present.
    pub content_type: Option<String>,
    /// `Content-Length` header value, when present and parseable.
    pub content_length: Option<u64>,
    /// `Location` header value for 3xx responses (the Bro extension of §3).
    pub location: Option<String>,
}
