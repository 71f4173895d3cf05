//! Non-browser devices behind the NAT: apps, consoles, smart TVs,
//! updaters, media players.
//!
//! §6 of the paper finds far more ⟨IP, User-Agent⟩ pairs than households —
//! consoles, smart TVs, mobile apps and update tools all speak HTTP with
//! custom UA strings. The analysis must discard them (they do not render
//! web ads the way browsers do), which is why the device simulator matters:
//! it creates the noise the annotation step of §6.1 has to cut through.

use http_model::transaction::Method;
use http_model::url::Scheme;
use http_model::{DeviceClass, Url, UserAgent};
use netsim::RequestEvent;
use rand::Rng;
use webgen::page::SizeClass;
use webgen::Ecosystem;

/// A non-browser device generating background HTTP traffic.
pub struct Device {
    /// Household public address.
    pub client_addr: u32,
    /// Device class (determines UA and traffic shape).
    pub class: DeviceClass,
    /// The UA string.
    pub user_agent: UserAgent,
    /// Mean requests per hour while the household is awake.
    pub requests_per_hour: f64,
    /// True for mobile apps that fetch in-app ads (they request ad-network
    /// URLs but are excluded from the paper's browser-focused analysis).
    pub fetches_in_app_ads: bool,
}

impl Device {
    /// Create a device of a class with a UA variant.
    pub fn new(client_addr: u32, class: DeviceClass, variant: u32) -> Device {
        let (rph, in_app_ads) = match class {
            DeviceClass::MobileApp => (70.0, true),
            DeviceClass::GameConsole => (25.0, false),
            DeviceClass::SmartTv => (55.0, false),
            DeviceClass::SoftwareUpdater => (4.0, false),
            DeviceClass::MediaPlayer => (35.0, false),
            _ => (8.0, false),
        };
        Device {
            client_addr,
            class,
            user_agent: UserAgent::non_browser(class, variant),
            requests_per_hour: rph,
            fetches_in_app_ads: in_app_ads,
        }
    }

    /// Emit one burst of device requests at time `ts`.
    pub(crate) fn burst<R: Rng + ?Sized>(
        &self,
        eco: &Ecosystem,
        ts: f64,
        rng: &mut R,
    ) -> Vec<RequestEvent> {
        let n = rng.gen_range(1..=4);
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            let t = ts + k as f64 * rng.gen_range(0.05..0.5);
            let ev = if self.fetches_in_app_ads && rng.gen_bool(0.35) {
                // In-app ad request straight to an ad network.
                let c = &eco.companies[rng.gen_range(0..eco.companies.len())];
                let url = Url::from_parts(
                    Scheme::Http,
                    c.primary_domain(),
                    &format!("/adserve/app{k}"),
                    Some(&format!("sdk=3&ord={}", rng.gen_range(0..1_000_000u32))),
                );
                self.event(
                    eco,
                    t,
                    &url,
                    SizeClass::TextChunk.sample_bytes(rng),
                    Some("text/plain"),
                    rng,
                )
            } else {
                // API/media traffic against a publisher host.
                let pub_idx = eco.top_sites.sample(rng);
                let p = &eco.publishers[pub_idx];
                let (path, ct, size) = match self.class {
                    DeviceClass::SmartTv | DeviceClass::MediaPlayer => {
                        (format!("/chunks/dev{k}.ts"), None, SizeClass::VideoChunk)
                    }
                    DeviceClass::SoftwareUpdater => (
                        format!("/api/update{k}"),
                        Some("application/octet-stream"),
                        SizeClass::Script,
                    ),
                    _ => (
                        format!("/api/v1/data{k}"),
                        Some("text/plain"),
                        SizeClass::TextChunk,
                    ),
                };
                let url = Url::from_parts(Scheme::Http, &p.asset_host, &path, None);
                self.event(eco, t, &url, size.sample_bytes(rng), ct, rng)
            };
            out.push(ev);
        }
        out
    }

    fn event<R: Rng + ?Sized>(
        &self,
        eco: &Ecosystem,
        ts: f64,
        url: &Url,
        bytes: u64,
        content_type: Option<&str>,
        _rng: &mut R,
    ) -> RequestEvent {
        let server = eco
            .server_for(url.host(), self.client_addr as u64)
            .expect("device target host resolves");
        RequestEvent {
            ts,
            client_addr: self.client_addr,
            server_addr: server.ip,
            https: false,
            method: Method::Get,
            host: url.host().to_string(),
            uri: match url.query() {
                Some(q) => format!("{}?{}", url.path(), q),
                None => url.path().to_string(),
            },
            referer: None,
            user_agent: Some(self.user_agent.raw.clone()),
            status: 200,
            content_type: content_type.map(str::to_string),
            content_length: Some(bytes),
            location: None,
            region: server.region,
            backend: server.backend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use webgen::EcosystemConfig;

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig {
            publishers: 30,
            ad_companies: 6,
            trackers: 6,
            cdn_edges: 6,
            hosting_servers: 8,
            seed: 5,
            ..Default::default()
        })
    }

    #[test]
    fn devices_have_non_browser_uas() {
        for class in [
            DeviceClass::MobileApp,
            DeviceClass::GameConsole,
            DeviceClass::SmartTv,
            DeviceClass::SoftwareUpdater,
            DeviceClass::MediaPlayer,
        ] {
            let d = Device::new(1, class, 2);
            assert_eq!(d.user_agent.device_class(), class);
            assert!(!d.user_agent.device_class().is_browser());
        }
    }

    #[test]
    fn bursts_resolve_and_carry_ua() {
        let eco = eco();
        let mut rng = StdRng::seed_from_u64(1);
        for class in [DeviceClass::MobileApp, DeviceClass::SmartTv] {
            let d = Device::new(9, class, 1);
            let events = d.burst(&eco, 100.0, &mut rng);
            assert!(!events.is_empty());
            for e in &events {
                assert_eq!(e.client_addr, 9);
                assert!(e.user_agent.is_some());
                assert!(!e.https);
            }
        }
    }

    #[test]
    fn apps_fetch_in_app_ads_sometimes() {
        let eco = eco();
        let mut rng = StdRng::seed_from_u64(2);
        let d = Device::new(9, DeviceClass::MobileApp, 1);
        let mut ad_requests = 0;
        for i in 0..50 {
            for e in d.burst(&eco, i as f64, &mut rng) {
                if e.uri.contains("/adserve/") {
                    ad_requests += 1;
                }
            }
        }
        assert!(ad_requests > 5, "in-app ads: {ad_requests}");
    }

    #[test]
    fn updaters_are_quiet() {
        let d = Device::new(1, DeviceClass::SoftwareUpdater, 1);
        let tv = Device::new(1, DeviceClass::SmartTv, 1);
        assert!(d.requests_per_hour < tv.requests_per_hour);
    }
}
