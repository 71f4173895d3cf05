//! The in-browser ad-blocker plugin interface.

use http_model::{ContentCategory, Url};

/// A filter-list download the plugin wants to perform (over HTTPS, to the
/// Adblock Plus servers) — the traffic behind the paper's second inference
/// indicator (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ListDownload {
    /// List identifier (e.g. `easylist`).
    pub list: String,
    /// Approximate download size in bytes.
    pub bytes: u64,
}

/// A browser extension consulted before every network request.
///
/// Implementations see the *true* page context and content category — the
/// plugin runs inside the browser with full DOM knowledge, which is exactly
/// the information advantage over the passive observer that the paper's
/// validation (§4) quantifies.
pub trait Plugin: Send {
    /// Short name for reports, e.g. `adblock-plus`.
    fn name(&self) -> &str;

    /// Should this request be blocked (never issued)?
    fn blocks(&mut self, url: &Url, page: &Url, category: ContentCategory) -> bool;

    /// Does the plugin hide embedded (in-HTML) text ads via element hiding?
    fn hides_embedded_ads(&self, page_host: &str) -> bool;

    /// Called at browser bootstrap / session start: which filter lists are
    /// due for re-download at simulation time `now` (seconds)?
    fn due_downloads(&mut self, now: f64) -> Vec<ListDownload>;
}

/// The absence of a plugin, as a unit struct (avoids `Option` plumbing in
/// the browser).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPlugin;

impl Plugin for NoPlugin {
    fn name(&self) -> &str {
        "none"
    }

    fn blocks(&mut self, _url: &Url, _page: &Url, _category: ContentCategory) -> bool {
        false
    }

    fn hides_embedded_ads(&self, _page_host: &str) -> bool {
        false
    }

    fn due_downloads(&mut self, _now: f64) -> Vec<ListDownload> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plugin_is_inert() {
        let mut p = NoPlugin;
        let url = Url::parse("http://ads.example/banner.gif").unwrap();
        let page = Url::parse("http://pub.example/").unwrap();
        assert!(!p.blocks(&url, &page, ContentCategory::Image));
        assert!(!p.hides_embedded_ads("pub.example"));
        assert!(p.due_downloads(0.0).is_empty());
        assert_eq!(p.name(), "none");
    }
}
