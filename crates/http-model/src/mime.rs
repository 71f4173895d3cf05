//! MIME types and Adblock Plus content categories.

use std::fmt;

/// `(type, subtypes, category)` rows of [`ContentCategory::from_mime`]: an
/// empty subtype list takes every subtype, and anything no row names is
/// `Other` — `application/octet-stream`, and the paper's misclassification
/// example, Bro reporting `text/x-c` for a JavaScript object: a general
/// category mapper cannot know better, so `x-*` text subtypes become
/// `Other`.
const MIME_CATEGORIES: &[(&str, &[&str], ContentCategory)] = &[
    ("image", &[], ContentCategory::Image),
    ("video", &[], ContentCategory::Media),
    ("audio", &[], ContentCategory::Media),
    ("font", &[], ContentCategory::Font),
    ("text", &["html"], ContentCategory::Document),
    ("text", &["css"], ContentCategory::Stylesheet),
    (
        "text",
        &["javascript", "ecmascript"],
        ContentCategory::Script,
    ),
    ("text", &["plain"], ContentCategory::Xhr),
    (
        "application",
        &["javascript", "x-javascript", "ecmascript", "json"],
        ContentCategory::Script,
    ),
    ("application", &["xhtml+xml"], ContentCategory::Document),
    (
        "application",
        &["xml", "rss+xml", "atom+xml"],
        ContentCategory::Xhr,
    ),
    (
        "application",
        &["x-shockwave-flash"],
        ContentCategory::Object,
    ),
    (
        "application",
        &["font-woff", "font-woff2", "x-font-ttf", "x-font-opentype"],
        ContentCategory::Font,
    ),
];

/// The general content categories the Adblock Plus matcher distinguishes.
///
/// The paper (§3.1) feeds libadblockplus one of `document`, `script`,
/// `stylesheet`, `image`, `media` or `object`; we add `Subdocument`, `Xhr`,
/// `Font` and `Other` which appear in real filter options and in the
/// synthetic ad-scape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContentCategory {
    /// Top-level HTML document.
    Document,
    /// Embedded frame/iframe document.
    Subdocument,
    /// JavaScript.
    Script,
    /// CSS.
    Stylesheet,
    /// Any raster/vector image.
    Image,
    /// Audio/video.
    Media,
    /// Plugin object (Flash et al.).
    Object,
    /// Fetch/XHR-style data transfer (JSON, plain text beacons).
    Xhr,
    /// Web font.
    Font,
    /// Everything else.
    Other,
}

impl ContentCategory {
    /// All categories, for iteration in tests and generators.
    pub const ALL: [ContentCategory; 10] = [
        ContentCategory::Document,
        ContentCategory::Subdocument,
        ContentCategory::Script,
        ContentCategory::Stylesheet,
        ContentCategory::Image,
        ContentCategory::Media,
        ContentCategory::Object,
        ContentCategory::Xhr,
        ContentCategory::Font,
        ContentCategory::Other,
    ];

    /// The canonical filter-option keyword (e.g. `script` for `$script`).
    pub fn keyword(self) -> &'static str {
        match self {
            ContentCategory::Document => "document",
            ContentCategory::Subdocument => "subdocument",
            ContentCategory::Script => "script",
            ContentCategory::Stylesheet => "stylesheet",
            ContentCategory::Image => "image",
            ContentCategory::Media => "media",
            ContentCategory::Object => "object",
            ContentCategory::Xhr => "xmlhttprequest",
            ContentCategory::Font => "font",
            ContentCategory::Other => "other",
        }
    }

    /// Parse a filter-option keyword back into a category.
    pub fn from_keyword(kw: &str) -> Option<ContentCategory> {
        Some(match kw {
            "document" => ContentCategory::Document,
            "subdocument" => ContentCategory::Subdocument,
            "script" => ContentCategory::Script,
            "stylesheet" => ContentCategory::Stylesheet,
            "image" => ContentCategory::Image,
            "media" => ContentCategory::Media,
            "object" => ContentCategory::Object,
            "xmlhttprequest" | "xhr" => ContentCategory::Xhr,
            "font" => ContentCategory::Font,
            "other" => ContentCategory::Other,
            _ => return None,
        })
    }

    /// Map a raw `Content-Type` header value (e.g. `image/gif;charset=x`) to
    /// a general category. Mismatches *within* a category (jpeg vs png) are
    /// harmless per Schneider et al. and §3.1 of the paper; this function
    /// implements exactly the general-category reduction the paper relies on.
    ///
    /// Type and subtype are compared ASCII-case-insensitively in place, so
    /// a call allocates nothing.
    pub fn from_mime(mime: &str) -> ContentCategory {
        let essence = mime.split(';').next().unwrap_or("").trim();
        let Some((top, sub)) = essence.split_once('/') else {
            return ContentCategory::Other;
        };
        MIME_CATEGORIES
            .iter()
            .find(|(t, subs, _)| {
                top.eq_ignore_ascii_case(t)
                    && (subs.is_empty() || subs.iter().any(|s| sub.eq_ignore_ascii_case(s)))
            })
            .map_or(ContentCategory::Other, |&(_, _, cat)| cat)
    }
}

impl fmt::Display for ContentCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mime_general_categories() {
        assert_eq!(
            ContentCategory::from_mime("image/gif"),
            ContentCategory::Image
        );
        assert_eq!(
            ContentCategory::from_mime("image/png"),
            ContentCategory::Image
        );
        assert_eq!(
            ContentCategory::from_mime("video/mp4"),
            ContentCategory::Media
        );
        assert_eq!(
            ContentCategory::from_mime("video/x-flv"),
            ContentCategory::Media
        );
        assert_eq!(
            ContentCategory::from_mime("text/html"),
            ContentCategory::Document
        );
        assert_eq!(
            ContentCategory::from_mime("text/css"),
            ContentCategory::Stylesheet
        );
        assert_eq!(
            ContentCategory::from_mime("application/javascript"),
            ContentCategory::Script
        );
        assert_eq!(
            ContentCategory::from_mime("application/x-shockwave-flash"),
            ContentCategory::Object
        );
        assert_eq!(
            ContentCategory::from_mime("text/plain"),
            ContentCategory::Xhr
        );
    }

    #[test]
    fn mime_with_parameters_and_case() {
        assert_eq!(
            ContentCategory::from_mime("Image/GIF; charset=binary"),
            ContentCategory::Image
        );
        assert_eq!(
            ContentCategory::from_mime(" text/html ;x=1"),
            ContentCategory::Document
        );
    }

    #[test]
    fn mime_unknowns() {
        assert_eq!(ContentCategory::from_mime(""), ContentCategory::Other);
        assert_eq!(
            ContentCategory::from_mime("garbage"),
            ContentCategory::Other
        );
        // The paper's §4.2 example: text/x-c reported for a JS object.
        assert_eq!(
            ContentCategory::from_mime("text/x-c"),
            ContentCategory::Other
        );
    }

    #[test]
    fn keyword_roundtrip() {
        for c in ContentCategory::ALL {
            assert_eq!(ContentCategory::from_keyword(c.keyword()), Some(c));
        }
        assert_eq!(ContentCategory::from_keyword("bogus"), None);
        assert_eq!(
            ContentCategory::from_keyword("xhr"),
            Some(ContentCategory::Xhr)
        );
    }
}
