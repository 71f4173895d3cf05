//! Page templates and the objects a page load fetches.

use http_model::ContentCategory;
use netsim::rtt::lognormal;
use rand::Rng;

/// Size regime of an object. Each class has a characteristic distribution,
/// which is what makes Figure 6 ("ad-related objects exhibit characteristic
/// sizes") reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// 1×1 tracking pixel: exactly 43 bytes (the classic minimal GIF the
    /// paper calls out).
    TrackingPixel,
    /// Small ad creative (GIF banner).
    AdBanner,
    /// Ad-serving JavaScript (smaller than application bundles).
    AdScript,
    /// Regular content image (JPEG/PNG photo).
    ContentImage,
    /// JavaScript file.
    Script,
    /// Stylesheet.
    Stylesheet,
    /// HTML document.
    Html,
    /// Small dynamic text response (autocomplete, beacons, RTB payloads).
    TextChunk,
    /// A chunk of a regular (chunked) streaming video.
    VideoChunk,
    /// A complete, un-chunked video advertisement (15–45 s spot).
    AdVideo,
    /// Flash object.
    Flash,
    /// XML/JSON feed.
    Feed,
}

impl SizeClass {
    /// Sample a body size in bytes.
    pub fn sample_bytes<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        let ln = |rng: &mut R, median: f64, sigma: f64| -> u64 {
            (median * lognormal(rng, 0.0, sigma)).round().max(1.0) as u64
        };
        match self {
            SizeClass::TrackingPixel => 43,
            SizeClass::AdBanner => ln(rng, 4_000.0, 0.8),
            SizeClass::AdScript => ln(rng, 8_000.0, 0.7),
            SizeClass::ContentImage => ln(rng, 40_000.0, 1.0),
            SizeClass::Script => ln(rng, 25_000.0, 0.9),
            SizeClass::Stylesheet => ln(rng, 15_000.0, 0.8),
            SizeClass::Html => ln(rng, 30_000.0, 0.9),
            SizeClass::TextChunk => ln(rng, 900.0, 1.0),
            SizeClass::VideoChunk => ln(rng, 700_000.0, 0.6),
            SizeClass::AdVideo => ln(rng, 1_500_000.0, 0.5),
            SizeClass::Flash => ln(rng, 40_000.0, 0.9),
            SizeClass::Feed => ln(rng, 4_000.0, 0.9),
        }
    }
}

/// Ground-truth role of an object — what the generator *knows* it is, which
/// the passive methodology must then rediscover from headers alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectKind {
    /// Regular first- or third-party content.
    Content,
    /// A display/video ad served by ad-tech company `company`.
    Ad {
        /// Index of the serving [`crate::AdTechCompany`].
        company: usize,
    },
    /// A tracking pixel/beacon from tracker `company`.
    Tracker {
        /// Index of the serving [`crate::AdTechCompany`].
        company: usize,
    },
    /// A text ad embedded in the main HTML — *not* a separate request; the
    /// template records it so element-hiding behaviour (and the passive
    /// methodology's blindness to it, §10) can be evaluated.
    EmbeddedTextAd,
}

impl ObjectKind {
    /// Is this ad-related ground truth (ad or tracker)?
    pub fn is_ad_related(&self) -> bool {
        matches!(self, ObjectKind::Ad { .. } | ObjectKind::Tracker { .. })
    }
}

/// One object in a page template.
#[derive(Debug, Clone, PartialEq)]
pub struct PageObject {
    /// Hostname serving the object.
    pub host: String,
    /// URL path (fixed per template; query strings are added per visit).
    pub path: String,
    /// True content category.
    pub category: ContentCategory,
    /// Size regime.
    pub size: SizeClass,
    /// Ground-truth role.
    pub kind: ObjectKind,
    /// Whether each visit appends a dynamic cache-buster query parameter —
    /// the behaviour that motivates the URL normalization step of §3.1.
    pub dynamic_query: bool,
    /// When set, the request first hits this host and is HTTP-302-redirected
    /// to the object (ad click/impression redirectors) — the referrer-map
    /// repair case of §3.1.
    pub redirect_via: Option<String>,
    /// Mis-declared Content-Type: probability that the response header lies
    /// about the type (e.g. JavaScript served as `text/html`, the paper's
    /// main false-positive source in §4.2).
    pub mislabel_prob: f64,
    /// Omit the Content-Type header entirely with this probability
    /// (Table 4's "-" row).
    pub missing_ct_prob: f64,
}

impl PageObject {
    /// Convenience constructor for plain content objects.
    pub fn content(host: &str, path: &str, category: ContentCategory, size: SizeClass) -> Self {
        PageObject {
            host: host.to_string(),
            path: path.to_string(),
            category,
            size,
            kind: ObjectKind::Content,
            dynamic_query: false,
            redirect_via: None,
            mislabel_prob: 0.0,
            missing_ct_prob: 0.0,
        }
    }
}

/// A page template: the main document plus its object list.
#[derive(Debug, Clone, PartialEq)]
pub struct PageTemplate {
    /// Path of the main HTML document on the publisher host.
    pub path: String,
    /// Objects fetched when rendering the page (excluding the main
    /// document itself).
    pub objects: Vec<PageObject>,
    /// Number of embedded text ads inside the main HTML (element-hiding
    /// targets; no network requests of their own).
    pub embedded_text_ads: usize,
}

impl PageTemplate {
    /// Count of ground-truth ad-related objects (ads + trackers).
    #[cfg(test)]
    pub(crate) fn ad_related_count(&self) -> usize {
        self.objects
            .iter()
            .filter(|o| o.kind.is_ad_related())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tracking_pixel_is_43_bytes() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(SizeClass::TrackingPixel.sample_bytes(&mut rng), 43);
        }
    }

    #[test]
    fn ad_video_bigger_than_video_chunk() {
        let mut rng = StdRng::seed_from_u64(2);
        let med = |c: SizeClass, rng: &mut StdRng| -> u64 {
            let mut v: Vec<u64> = (0..500).map(|_| c.sample_bytes(rng)).collect();
            v.sort_unstable();
            v[250]
        };
        let ad = med(SizeClass::AdVideo, &mut rng);
        let chunk = med(SizeClass::VideoChunk, &mut rng);
        assert!(ad > 1_000_000, "ad video median {ad}");
        assert!(chunk < 1_000_000, "video chunk median {chunk}");
        assert!(ad > chunk * 2);
    }

    #[test]
    fn content_image_bigger_than_ad_banner() {
        let mut rng = StdRng::seed_from_u64(3);
        let mean = |c: SizeClass, rng: &mut StdRng| -> f64 {
            (0..500).map(|_| c.sample_bytes(rng) as f64).sum::<f64>() / 500.0
        };
        assert!(mean(SizeClass::ContentImage, &mut rng) > mean(SizeClass::AdBanner, &mut rng));
    }

    #[test]
    fn all_sizes_positive() {
        let mut rng = StdRng::seed_from_u64(4);
        for c in [
            SizeClass::TrackingPixel,
            SizeClass::AdBanner,
            SizeClass::AdScript,
            SizeClass::ContentImage,
            SizeClass::Script,
            SizeClass::Stylesheet,
            SizeClass::Html,
            SizeClass::TextChunk,
            SizeClass::VideoChunk,
            SizeClass::AdVideo,
            SizeClass::Flash,
            SizeClass::Feed,
        ] {
            for _ in 0..50 {
                assert!(c.sample_bytes(&mut rng) >= 1);
            }
        }
    }

    #[test]
    fn object_kind_predicates() {
        assert!(ObjectKind::Ad { company: 0 }.is_ad_related());
        assert!(ObjectKind::Tracker { company: 1 }.is_ad_related());
        assert!(!ObjectKind::Content.is_ad_related());
        assert!(!ObjectKind::EmbeddedTextAd.is_ad_related());
    }

    #[test]
    fn template_counts_ad_related() {
        let t = PageTemplate {
            path: "/index.html".into(),
            objects: vec![
                PageObject::content(
                    "pub.example",
                    "/style.css",
                    ContentCategory::Stylesheet,
                    SizeClass::Stylesheet,
                ),
                PageObject {
                    kind: ObjectKind::Ad { company: 0 },
                    ..PageObject::content(
                        "ads.example",
                        "/adserve/b.gif",
                        ContentCategory::Image,
                        SizeClass::AdBanner,
                    )
                },
            ],
            embedded_text_ads: 2,
        };
        assert_eq!(t.ad_related_count(), 1);
    }
}
