//! One reconstructed HTTP transaction — the record unit of the pipeline.

use crate::headers::{RequestHeaders, ResponseHeaders};
use crate::url::Url;

/// HTTP request method. The traces are overwhelmingly GET; POST appears for
/// beacons and RTB callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// HEAD
    Head,
}

impl Method {
    /// Canonical method string.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        }
    }
}

/// A single HTTP transaction extracted from a trace, in the shape the Bro
/// HTTP analyzer (plus the paper's `Location` extension) produces.
///
/// Client identity is an *anonymized* IP (u32 label) — real addresses never
/// exist in this system, mirroring the capture-time anonymization of §5 —
/// plus the `User-Agent` string that the paper uses to split devices behind
/// NAT (Maier et al.).
#[derive(Debug, Clone, PartialEq)]
pub struct HttpTransaction {
    /// Seconds since trace start at which the request was seen.
    pub ts: f64,
    /// Anonymized client address label.
    pub client_ip: u32,
    /// Server address label.
    pub server_ip: u32,
    /// Server TCP port (80 for HTTP in the DAG-style port classification).
    pub server_port: u16,
    /// Request method.
    pub method: Method,
    /// Request headers (Host, URI, Referer, User-Agent).
    pub request: RequestHeaders,
    /// Response headers (status, Content-Type, Content-Length, Location).
    pub response: ResponseHeaders,
    /// TCP handshake time in milliseconds (SYN-ACK − SYN), the RTT proxy of
    /// §8.2.
    pub tcp_handshake_ms: f64,
    /// HTTP handshake time in milliseconds (first response byte − first
    /// request byte).
    pub http_handshake_ms: f64,
}

impl HttpTransaction {
    /// Reassemble the full request URL from Host + URI.
    pub fn url(&self) -> Option<Url> {
        let (host, uri) = (&self.request.host, &self.request.uri);
        // Room for the `http://` and `/` a host that needs the parser gets.
        let mut scratch = String::with_capacity(host.len() + uri.len() + 8);
        Url::from_host_and_uri(host, uri, &mut scratch)
    }

    /// The back-office latency proxy of §8.2: HTTP handshake minus TCP
    /// handshake, clamped at zero.
    pub fn backend_gap_ms(&self) -> f64 {
        (self.http_handshake_ms - self.tcp_handshake_ms).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::RequestHeaders;

    fn tx(host: &str, uri: &str) -> HttpTransaction {
        HttpTransaction {
            ts: 0.0,
            client_ip: 1,
            server_ip: 2,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.to_string(),
                uri: uri.to_string(),
                referer: None,
                user_agent: None,
            },
            response: ResponseHeaders::default(),
            tcp_handshake_ms: 10.0,
            http_handshake_ms: 130.0,
        }
    }

    #[test]
    fn url_reassembly() {
        let t = tx("example.com", "/a/b?x=1");
        assert_eq!(t.url().unwrap().as_string(), "http://example.com/a/b?x=1");
    }

    #[test]
    fn url_without_leading_slash() {
        let t = tx("example.com", "img.gif");
        assert_eq!(t.url().unwrap().path(), "/img.gif");
    }

    #[test]
    fn url_empty_host() {
        let t = tx("", "/x");
        assert!(t.url().is_none());
    }

    #[test]
    fn backend_gap() {
        let t = tx("e.com", "/");
        assert!((t.backend_gap_ms() - 120.0).abs() < 1e-9);
        let mut t2 = tx("e.com", "/");
        t2.http_handshake_ms = 5.0;
        assert_eq!(t2.backend_gap_ms(), 0.0);
    }

    #[test]
    fn method_strings() {
        assert_eq!(Method::Get.as_str(), "GET");
        assert_eq!(Method::Post.as_str(), "POST");
        assert_eq!(Method::Head.as_str(), "HEAD");
    }
}
