//! Publishers: site categories and their traffic/ad profiles.

/// Site categories, following the categorization the paper applies to
/// publishers in §7.3 (dating, shopping, translation, audio/video
/// streaming, mixed content, adult, file sharing, news, tech).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteCategory {
    /// News sites: object-heavy, ad-heavy pages.
    News,
    /// Video streaming: many large chunk requests, few ads.
    VideoStreaming,
    /// Audio streaming.
    AudioStreaming,
    /// Online shopping.
    Shopping,
    /// Social network.
    Social,
    /// Search engine (embedded text ads — element hiding, not blocking).
    Search,
    /// Adult content: ad-heavy, never in the acceptable-ads programme.
    Adult,
    /// File sharing / one-click hosters.
    FileSharing,
    /// Technology/Internet site (one of them operates its own ad platform,
    /// §7.3's 94 %-whitelisted example).
    Tech,
    /// Dating.
    Dating,
    /// Translation and other utility services.
    Translation,
    /// Everything else.
    Mixed,
}

impl SiteCategory {
    /// All categories.
    pub const ALL: [SiteCategory; 12] = [
        SiteCategory::News,
        SiteCategory::VideoStreaming,
        SiteCategory::AudioStreaming,
        SiteCategory::Shopping,
        SiteCategory::Social,
        SiteCategory::Search,
        SiteCategory::Adult,
        SiteCategory::FileSharing,
        SiteCategory::Tech,
        SiteCategory::Dating,
        SiteCategory::Translation,
        SiteCategory::Mixed,
    ];

    /// Relative frequency of the category among publishers (sums to ~1).
    pub(crate) fn prevalence(self) -> f64 {
        match self {
            SiteCategory::News => 0.15,
            SiteCategory::VideoStreaming => 0.11,
            SiteCategory::AudioStreaming => 0.03,
            SiteCategory::Shopping => 0.13,
            SiteCategory::Social => 0.05,
            SiteCategory::Search => 0.02,
            SiteCategory::Adult => 0.08,
            SiteCategory::FileSharing => 0.04,
            SiteCategory::Tech => 0.10,
            SiteCategory::Dating => 0.03,
            SiteCategory::Translation => 0.02,
            SiteCategory::Mixed => 0.24,
        }
    }

    /// Typical number of non-ad objects per page (min, max).
    pub(crate) fn object_range(self) -> (usize, usize) {
        match self {
            SiteCategory::News => (35, 75),
            SiteCategory::VideoStreaming => (14, 30),
            SiteCategory::AudioStreaming => (12, 24),
            SiteCategory::Shopping => (28, 60),
            SiteCategory::Social => (20, 45),
            SiteCategory::Search => (6, 12),
            SiteCategory::Adult => (18, 40),
            SiteCategory::FileSharing => (10, 20),
            SiteCategory::Tech => (22, 45),
            SiteCategory::Dating => (16, 32),
            SiteCategory::Translation => (8, 16),
            SiteCategory::Mixed => (16, 40),
        }
    }

    /// Typical number of third-party display/video ads per page (min, max).
    pub(crate) fn ad_range(self) -> (usize, usize) {
        match self {
            SiteCategory::News => (3, 7),
            SiteCategory::VideoStreaming => (1, 2),
            SiteCategory::AudioStreaming => (1, 2),
            SiteCategory::Shopping => (2, 4),
            SiteCategory::Social => (1, 3),
            SiteCategory::Search => (0, 1),
            SiteCategory::Adult => (3, 6),
            SiteCategory::FileSharing => (2, 5),
            SiteCategory::Tech => (2, 4),
            SiteCategory::Dating => (2, 4),
            SiteCategory::Translation => (1, 2),
            SiteCategory::Mixed => (1, 3),
        }
    }

    /// Typical number of trackers/analytics per page (min, max).
    pub(crate) fn tracker_range(self) -> (usize, usize) {
        match self {
            SiteCategory::News => (3, 6),
            SiteCategory::VideoStreaming => (1, 3),
            SiteCategory::Search => (1, 2),
            SiteCategory::Adult => (2, 4),
            _ => (1, 4),
        }
    }

    /// Number of embedded text ads in the main HTML (min, max) — element
    /// hiding targets.
    pub(crate) fn text_ad_range(self) -> (usize, usize) {
        match self {
            SiteCategory::Search => (2, 5),
            SiteCategory::News => (0, 2),
            _ => (0, 1),
        }
    }

    /// Whether publishers of this category may use acceptable-ads
    /// (whitelisted) networks at all. Adult and file-sharing publishers are
    /// excluded from the programme — matching the paper's observation that
    /// sites without whitelisted requests were dominated by the adult
    /// category.
    pub(crate) fn may_use_acceptable_ads(self) -> bool {
        !matches!(self, SiteCategory::Adult | SiteCategory::FileSharing)
    }

    /// Does the category mainly serve video chunks?
    pub(crate) fn is_streaming(self) -> bool {
        matches!(
            self,
            SiteCategory::VideoStreaming | SiteCategory::AudioStreaming
        )
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            SiteCategory::News => "news",
            SiteCategory::VideoStreaming => "video-streaming",
            SiteCategory::AudioStreaming => "audio-streaming",
            SiteCategory::Shopping => "shopping",
            SiteCategory::Social => "social",
            SiteCategory::Search => "search",
            SiteCategory::Adult => "adult",
            SiteCategory::FileSharing => "file-sharing",
            SiteCategory::Tech => "technology/internet",
            SiteCategory::Dating => "dating",
            SiteCategory::Translation => "translation",
            SiteCategory::Mixed => "mixed-content",
        }
    }
}

/// One publisher site.
#[derive(Debug, Clone, PartialEq)]
pub struct Publisher {
    /// Index into the ecosystem's publisher vector (also its Alexa-style
    /// rank order before popularity shuffling).
    pub id: usize,
    /// Registrable domain, e.g. `dailyherald1.example`.
    pub domain: String,
    /// `www.` host serving the main documents.
    pub www_host: String,
    /// Static-asset host (may be CDN-hosted).
    pub asset_host: String,
    /// Category.
    pub category: SiteCategory,
    /// Ad-tech companies (indices) whose display ads this site embeds.
    pub ad_companies: Vec<usize>,
    /// Trackers/analytics (indices) present on this site.
    pub trackers: Vec<usize>,
    /// True when the site is a regional (non-English) publisher whose ads
    /// are only covered by the language-derivative list, not core EasyList.
    pub regional: bool,
    /// True when the site hosts its own first-party ads under an ad path
    /// (self-hosted ad platform; the Tech example of §7.3).
    pub self_hosted_ads: bool,
    /// Page templates of the site.
    pub pages: Vec<crate::page::PageTemplate>,
}

impl Publisher {
    /// A page template chosen by index (wraps around).
    pub fn page(&self, idx: usize) -> &crate::page::PageTemplate {
        &self.pages[idx % self.pages.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prevalence_sums_to_one() {
        let sum: f64 = SiteCategory::ALL.iter().map(|c| c.prevalence()).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn ranges_are_ordered() {
        for c in SiteCategory::ALL {
            let (lo, hi) = c.object_range();
            assert!(lo <= hi && lo > 0);
            let (alo, ahi) = c.ad_range();
            assert!(alo <= ahi);
            let (tlo, thi) = c.tracker_range();
            assert!(tlo <= thi);
        }
    }

    #[test]
    fn news_is_heavier_than_search() {
        assert!(SiteCategory::News.object_range().0 > SiteCategory::Search.object_range().1 / 2);
        assert!(SiteCategory::News.ad_range().1 > SiteCategory::Search.ad_range().1);
    }

    #[test]
    fn acceptable_ads_policy() {
        assert!(!SiteCategory::Adult.may_use_acceptable_ads());
        assert!(!SiteCategory::FileSharing.may_use_acceptable_ads());
        assert!(SiteCategory::News.may_use_acceptable_ads());
    }

    #[test]
    fn streaming_predicate() {
        assert!(SiteCategory::VideoStreaming.is_streaming());
        assert!(!SiteCategory::News.is_streaming());
    }
}
