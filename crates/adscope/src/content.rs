//! Content-type inference (§3.1, "Content Type").
//!
//! The rule of thumb from the paper: trust the file extension when it
//! determines a type; otherwise fall back to the `Content-Type` response
//! header reduced to its general category. Both signals always run, in that
//! order. Redirect-type backfill (the third signal) is applied by the
//! pipeline using the referrer map's backfill instructions.

use http_model::extension::category_for_extension;
use http_model::{ContentCategory, Url};

/// No options: inference always tries the extension, then the header.
/// Kept, empty, for the e2e harness alone, which passes
/// `PipelineOptions::content` to [`infer_category_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContentOptions {}

/// Which signal decided a request's content category — the inference
/// path the verdict-provenance layer exports (§3.1 lists three: file
/// extension, Content-Type header, redirect propagation; the last is
/// applied by the pipeline's backfill pass, which upgrades the source to
/// [`ContentSource::Redirect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentSource {
    /// The file-extension map decided.
    Extension,
    /// The Content-Type response header decided.
    Header,
    /// The type was propagated back across a redirect (backfill pass).
    Redirect,
    /// No signal applied; the category is `Other`.
    None,
}

impl ContentSource {
    /// Stable lowercase label for provenance output.
    pub fn label(self) -> &'static str {
        match self {
            ContentSource::Extension => "extension",
            ContentSource::Header => "header",
            ContentSource::Redirect => "redirect",
            ContentSource::None => "none",
        }
    }
}

/// Infer the general content category of a request from its URL and
/// response Content-Type.
pub fn infer_category(url: &Url, content_type: Option<&str>) -> ContentCategory {
    infer_category_traced(url, content_type, ContentOptions::default()).0
}

/// Like [`infer_category`], also reporting which signal decided. The
/// source is a `Copy` byte, so the traced variant costs nothing extra —
/// the pipeline always calls it and only keeps the source when tracing.
/// `_opts` is ignored; the e2e harness passes it.
pub fn infer_category_traced(
    url: &Url,
    content_type: Option<&str>,
    _opts: ContentOptions,
) -> (ContentCategory, ContentSource) {
    if let Some(cat) = url.extension_str().and_then(category_for_mixed_case) {
        return (cat, ContentSource::Extension);
    }
    if let Some(ct) = content_type {
        let cat = ContentCategory::from_mime(ct);
        if cat != ContentCategory::Other {
            return (cat, ContentSource::Header);
        }
    }
    (ContentCategory::Other, ContentSource::None)
}

/// [`category_for_extension`] for an extension as written in the URL
/// (`GIF`, `Js`): lowercased on the stack. `Url::extension_str` yields at
/// most 8 bytes.
fn category_for_mixed_case(ext: &str) -> Option<ContentCategory> {
    let mut lower = [0u8; 8];
    let lower = lower.get_mut(..ext.len())?;
    lower.copy_from_slice(ext.as_bytes());
    lower.make_ascii_lowercase();
    category_for_extension(std::str::from_utf8(lower).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn extension_wins_over_header() {
        // A .js served as text/html (the §4.2 mislabeling) is still script.
        let cat = infer_category(&url("http://x.example/app.js"), Some("text/html"));
        assert_eq!(cat, ContentCategory::Script);
    }

    #[test]
    fn header_fallback_when_no_extension() {
        let cat = infer_category(&url("http://x.example/api/suggest"), Some("text/plain"));
        assert_eq!(cat, ContentCategory::Xhr);
    }

    #[test]
    fn unknown_everything_is_other() {
        let cat = infer_category(&url("http://x.example/mystery"), None);
        assert_eq!(cat, ContentCategory::Other);
        let cat2 = infer_category(
            &url("http://x.example/mystery.weirdext"),
            Some("application/octet-stream"),
        );
        assert_eq!(cat2, ContentCategory::Other);
    }

    #[test]
    fn traced_variant_reports_the_deciding_signal() {
        let opts = ContentOptions::default();
        let (cat, src) = infer_category_traced(&url("http://x.example/a.gif"), None, opts);
        assert_eq!(
            (cat, src),
            (ContentCategory::Image, ContentSource::Extension)
        );
        let (cat, src) =
            infer_category_traced(&url("http://x.example/api"), Some("text/plain"), opts);
        assert_eq!((cat, src), (ContentCategory::Xhr, ContentSource::Header));
        let (cat, src) = infer_category_traced(&url("http://x.example/mystery"), None, opts);
        assert_eq!((cat, src), (ContentCategory::Other, ContentSource::None));
    }

    #[test]
    fn paper_extension_list_respected() {
        for (path, want) in [
            ("/a.png", ContentCategory::Image),
            ("/a.css", ContentCategory::Stylesheet),
            ("/a.js", ContentCategory::Script),
            ("/a.mp4", ContentCategory::Media),
            ("/a.avi", ContentCategory::Media),
            // As written in the wild: the map is keyed lowercase.
            ("/A.PNG", ContentCategory::Image),
            ("/a.Js", ContentCategory::Script),
            ("/a.WOFF2", ContentCategory::Font),
            ("/a.ÉÉ", ContentCategory::Other),
        ] {
            let got = infer_category(&url(&format!("http://x.example{path}")), None);
            assert_eq!(got, want, "{path}");
        }
    }
}
