//! Object-size distributions by MIME class, ads vs non-ads (Figure 6).

use crate::pipeline::ClassifiedRequest;
use stats::LogDensity;

/// The four MIME classes of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MimeClass {
    /// gif/jpeg/png images.
    Image,
    /// html/plain text.
    Text,
    /// mp4/flv video.
    Video,
    /// xml + flash applications.
    App,
}

impl MimeClass {
    /// All classes.
    pub const ALL: [MimeClass; 4] = [
        MimeClass::Image,
        MimeClass::Text,
        MimeClass::Video,
        MimeClass::App,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            MimeClass::Image => "Image",
            MimeClass::Text => "Text",
            MimeClass::Video => "Video",
            MimeClass::App => "App",
        }
    }

    /// Classify a raw MIME type into a figure class.
    pub fn from_mime(mime: &str) -> Option<MimeClass> {
        let essence = mime.split(';').next().unwrap_or("").trim();
        Some(match essence {
            "image/gif" | "image/jpeg" | "image/png" => MimeClass::Image,
            "text/html" | "text/plain" => MimeClass::Text,
            "video/mp4" | "video/x-flv" => MimeClass::Video,
            "application/xml" | "application/x-shockwave-flash" => MimeClass::App,
            _ => return None,
        })
    }
}

/// The densities of one population (ads or non-ads), over the paper's axis
/// of 1 B .. 100 MB.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeDensities([LogDensity; 4]);

impl Default for SizeDensities {
    fn default() -> SizeDensities {
        SizeDensities(MimeClass::ALL.map(|_| LogDensity::new(0.0, 8.0, 160, 0.12)))
    }
}

impl SizeDensities {
    /// Density of a class.
    pub fn class(&self, class: MimeClass) -> &LogDensity {
        // `MimeClass::ALL` is in declaration order.
        &self.0[class as usize]
    }
}

/// The Figure 6 fold: 6a (ads) and 6b (non-ads).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sizes {
    /// Figure 6a.
    pub ads: SizeDensities,
    /// Figure 6b.
    pub nonads: SizeDensities,
}

impl Sizes {
    /// Fold one classified request (one of a figure class, that is).
    pub fn observe(&mut self, r: &ClassifiedRequest) {
        let Some(class) = r.content_type.as_deref().and_then(MimeClass::from_mime) else {
            return;
        };
        let target = if r.label.is_ad() {
            &mut self.ads
        } else {
            &mut self.nonads
        };
        target.0[class as usize].add(r.bytes as f64);
    }

    /// Add another part's samples in.
    pub fn merge(&mut self, other: &Sizes) {
        for (mine, theirs) in [
            (&mut self.ads, &other.ads),
            (&mut self.nonads, &other.nonads),
        ] {
            for (mine, theirs) in mine.0.iter_mut().zip(&theirs.0) {
                mine.merge(theirs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::Figures;
    use crate::classify::PassiveClassifier;
    use crate::pipeline::{classify_trace, PipelineOptions};
    use abp_filter::FilterList;
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::Method;
    use http_model::HttpTransaction;
    use netsim::record::{Trace, TraceMeta, TraceRecord};

    fn tx(uri: &str, ct: &str, bytes: u64) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts: 0.0,
            client_ip: 1,
            server_ip: 1,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: "x.example".into(),
                uri: uri.into(),
                referer: Some("http://pub.example/".into()),
                user_agent: Some("UA".into()),
            },
            response: ResponseHeaders {
                status: 200,
                content_type: Some(ct.into()),
                content_length: Some(bytes),
                location: None,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 2.0,
        })
    }

    fn classified(records: Vec<TraceRecord>) -> Sizes {
        let trace = Trace {
            meta: TraceMeta {
                name: "t".into(),
                duration_secs: 10.0,
                subscribers: 1,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        };
        let c = PassiveClassifier::new(vec![FilterList::parse("easylist", "/banners/\n")]);
        Figures::of_trace(&classify_trace(&trace, &c, PipelineOptions::default())).sizes
    }

    #[test]
    fn mime_class_mapping() {
        assert_eq!(MimeClass::from_mime("image/gif"), Some(MimeClass::Image));
        assert_eq!(MimeClass::from_mime("text/plain"), Some(MimeClass::Text));
        assert_eq!(MimeClass::from_mime("video/x-flv"), Some(MimeClass::Video));
        assert_eq!(
            MimeClass::from_mime("application/x-shockwave-flash"),
            Some(MimeClass::App)
        );
        assert_eq!(MimeClass::from_mime("font/woff2"), None);
    }

    #[test]
    fn ad_pixels_produce_low_image_mode() {
        let mut records = Vec::new();
        for _ in 0..200 {
            records.push(tx("/banners/p.gif", "image/gif", 43));
        }
        for _ in 0..200 {
            records.push(tx("/photo.jpg", "image/jpeg", 40_000));
        }
        let t = classified(records);
        let Sizes { ads, nonads } = t;
        let ad_mode = ads.class(MimeClass::Image).modes(0.5);
        let nonad_mode = nonads.class(MimeClass::Image).modes(0.5);
        assert!(!ad_mode.is_empty() && ad_mode[0] < 200.0, "{ad_mode:?}");
        assert!(
            !nonad_mode.is_empty() && nonad_mode[0] > 5_000.0,
            "{nonad_mode:?}"
        );
    }

    #[test]
    fn missing_content_type_skipped() {
        let t = classified(vec![TraceRecord::Http(HttpTransaction {
            response: ResponseHeaders {
                status: 200,
                content_type: None,
                content_length: Some(100),
                location: None,
            },
            ..match tx("/x", "image/gif", 1) {
                TraceRecord::Http(h) => h,
                _ => unreachable!(),
            }
        })]);
        let Sizes { ads, nonads } = t;
        let total: u64 = MimeClass::ALL
            .iter()
            .map(|&c| ads.class(c).total() + nonads.class(c).total())
            .sum();
        assert_eq!(total, 0);
    }
}
