//! The seeded generator tying ASes, servers, ad-tech, publishers and filter
//! lists into one consistent synthetic ad-scape.

use crate::adtech::{AdTechCompany, AdTechKind};
use crate::alexa::TopSites;
use crate::asn::{AsKind, AsRegistry};
use crate::filterlists::GeneratedLists;
use crate::infra::{Server, ServerRegistry};
use crate::page::{ObjectKind, PageObject, PageTemplate, SizeClass};
use crate::publisher::{Publisher, SiteCategory};
use http_model::ContentCategory;
use netsim::latency::BackendClass;
use netsim::Region;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Size knobs of the generated ecosystem. The defaults produce a world that
/// a laptop can simulate at trace scale in seconds; the experiment harness
/// scales some of them up.
#[derive(Debug, Clone, PartialEq)]
pub struct EcosystemConfig {
    /// Number of publisher sites.
    pub publishers: usize,
    /// Number of ad networks/exchanges (besides the search giant).
    pub ad_companies: usize,
    /// Number of trackers/analytics companies.
    pub trackers: usize,
    /// Page templates per publisher.
    pub pages_per_site: usize,
    /// CDN edge servers shared across hostnames.
    pub cdn_edges: usize,
    /// Hosting servers for the publisher long tail.
    pub hosting_servers: usize,
    /// Fraction of ad companies in the acceptable-ads programme.
    pub acceptable_fraction: f64,
    /// Fraction of publishers that are regional (non-English): their
    /// self-hosted ads are only covered by the language-derivative list.
    pub regional_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EcosystemConfig {
    fn default() -> Self {
        EcosystemConfig {
            publishers: 400,
            ad_companies: 28,
            trackers: 36,
            pages_per_site: 4,
            cdn_edges: 48,
            hosting_servers: 160,
            acceptable_fraction: 0.10,
            regional_fraction: 0.22,
            seed: 0x5eed,
        }
    }
}

/// The generated ecosystem.
#[derive(Debug, Clone)]
pub struct Ecosystem {
    /// Generation knobs used.
    pub config: EcosystemConfig,
    /// AS registry.
    pub asns: AsRegistry,
    /// Server registry with all hostname bindings.
    pub servers: ServerRegistry,
    /// Ad-tech companies. Index 0 is always the search giant's exchange,
    /// index 1 its analytics arm.
    pub companies: Vec<AdTechCompany>,
    /// Publisher sites.
    pub publishers: Vec<Publisher>,
    /// Popularity ranking over publishers.
    pub top_sites: TopSites,
    /// Hostname of the Adblock Plus download servers.
    pub abp_host: String,
    /// Server IPs of the Adblock Plus download infrastructure — what the
    /// paper obtains via DNS resolution (§3.2).
    pub abp_ips: Vec<u32>,
    /// The generated filter lists (text + parsed).
    pub lists: GeneratedLists,
    /// Index of the tech publisher operating its own whitelisted ad
    /// platform (§7.3's 94 % example).
    pub self_platform_publisher: usize,
    /// Indices of popular news publishers with *no* whitelisted requests
    /// (§7.3's surprising finding).
    pub unwhitelisted_news: Vec<usize>,
}

/// Index of the search giant's exchange in `companies`.
pub const GIANT_EXCHANGE: usize = 0;
/// Index of the search giant's analytics arm in `companies`.
pub const GIANT_ANALYTICS: usize = 1;

impl Ecosystem {
    /// Generate an ecosystem from a config.
    pub fn generate(config: EcosystemConfig) -> Ecosystem {
        let mut span = obs::global().span("webgen_generate");
        span.count("publishers", config.publishers as u64);
        span.count("ad_companies", config.ad_companies as u64);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let asns = AsRegistry::standard();
        let mut servers = ServerRegistry::new();

        let cdn_pool = build_cdn_pool(&config, &asns, &mut servers);
        let companies = build_companies(&config, &asns, &mut servers, &cdn_pool, &mut rng);
        let (mut publishers, self_platform_publisher) = build_publishers(
            &config,
            &asns,
            &mut servers,
            &companies,
            &cdn_pool,
            &mut rng,
        );
        build_all_pages(&mut publishers, &companies, &mut rng);

        // Popularity ranking: boost News/Video/Search/Social toward the top.
        let mut order: Vec<(f64, usize)> = publishers
            .iter()
            .map(|p| {
                let boost = match p.category {
                    SiteCategory::Search => 0.08,
                    SiteCategory::Social => 0.15,
                    SiteCategory::VideoStreaming => 0.2,
                    SiteCategory::News => 0.35,
                    _ => 1.0,
                };
                (rng.gen_range(0.0..1.0f64) * boost, p.id)
            })
            .collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let ranked: Vec<usize> = order.into_iter().map(|(_, id)| id).collect();
        let top_sites = TopSites::new(ranked, 0.9);

        // Adblock Plus download infrastructure: two servers in a hosting AS.
        let hosting = asns.first_of(AsKind::Hosting).expect("hosting AS");
        let abp_host = "downloads.adblockplus.example".to_string();
        let abp_ips = vec![
            servers.add_server(hosting, Region::European, BackendClass::Static),
            servers.add_server(hosting, Region::European, BackendClass::Static),
        ];
        servers.bind_host(&abp_host, abp_ips.clone());

        // Popular news sites that opted out of (or were dropped from) the
        // acceptable-ads programme entirely: strip whitelisted companies.
        let mut unwhitelisted_news = Vec::new();
        let news_ranked: Vec<usize> = top_sites
            .top(60)
            .iter()
            .copied()
            .filter(|&id| publishers[id].category == SiteCategory::News)
            .take(3)
            .collect();
        for id in news_ranked {
            let pub_ = &mut publishers[id];
            pub_.ad_companies
                .retain(|&c| !companies[c].acceptable || c == GIANT_EXCHANGE);
            // Their giant-exchange traffic runs through the non-whitelisted
            // doubleklick domain; mark via regional=false trick is wrong, so
            // instead we simply drop the giant too for a clean "no
            // whitelisted requests" profile.
            pub_.ad_companies.retain(|&c| c != GIANT_EXCHANGE);
            if pub_.ad_companies.is_empty() {
                pub_.ad_companies
                    .push(pick_weighted_company(&companies, &mut rng, |c| {
                        c.kind == AdTechKind::AdNetwork && !c.acceptable
                    }));
            }
            unwhitelisted_news.push(id);
        }
        // Rebuild pages of the modified publishers so templates reflect the
        // new company sets.
        for &id in &unwhitelisted_news {
            let pages = build_pages_for(
                &publishers[id],
                &companies,
                &mut rng,
                publishers[id].pages.len().max(2),
            );
            publishers[id].pages = pages;
        }

        let lists = GeneratedLists::generate(&companies, &publishers, self_platform_publisher);

        span.count("servers", servers.len() as u64);
        drop(span);

        Ecosystem {
            config,
            asns,
            servers,
            companies,
            publishers,
            top_sites,
            abp_host,
            abp_ips,
            lists,
            self_platform_publisher,
            unwhitelisted_news,
        }
    }

    /// Resolve a hostname to a server, with a salt for farm spreading.
    pub fn server_for(&self, host: &str, salt: u64) -> Option<&Server> {
        self.servers.resolve(host, salt)
    }

    /// The publisher by id.
    pub fn publisher(&self, id: usize) -> &Publisher {
        &self.publishers[id]
    }

    /// Ground truth: is this company whitelisted by the acceptable-ads
    /// programme?
    pub fn is_acceptable_company(&self, idx: usize) -> bool {
        self.companies[idx].acceptable
    }

    /// The filter-list-lag scenario: the ad ecosystem moves on while the
    /// subscription stands still.
    ///
    /// The `delist` highest-weight non-acceptable ad networks and
    /// exchanges rotate to fresh serving domains (a sibling label, so
    /// the stale `||old-domain^` rules cannot anchor-match) on freshly
    /// bound servers, and drop off the lists' radar (`listed = false`,
    /// so rebuilt pages use `/native/` and `/promo/` path markers no
    /// generic rule covers). Every publisher's pages are rebuilt against
    /// the evolved companies. **`lists` is deliberately left at the
    /// base ecosystem's generation** — it *is* the stale subscription a
    /// lagging ad-block user keeps matching against, which is exactly
    /// what makes the blocked share drop at the cut-over. The drop is
    /// partial by construction: RTB bid calls keep the `/adserve/` path
    /// the generic rule covers, and `/adframe/` iframes stay covered
    /// regardless of listing — generic rules are exactly the part of a
    /// stale list that survives a domain rotation.
    ///
    /// Returns the evolved ecosystem plus the rotated company indices.
    pub fn evolve_list_lag(&self, delist: usize) -> (Ecosystem, Vec<usize>) {
        let mut eco = self.clone();
        let mut rng = StdRng::seed_from_u64(eco.config.seed ^ 0x1a9_1a9);
        // Highest-weight companies first: the rotation must move enough
        // ad traffic off the lists for the drop to be visible.
        let mut candidates: Vec<usize> = eco
            .companies
            .iter()
            .filter(|c| {
                matches!(c.kind, AdTechKind::AdNetwork | AdTechKind::Exchange)
                    && !c.acceptable
                    && c.listed
            })
            .map(|c| c.id)
            .collect();
        candidates.sort_by(|&a, &b| {
            eco.companies[b]
                .weight
                .partial_cmp(&eco.companies[a].weight)
                .expect("finite weights")
        });
        candidates.truncate(delist);
        let clouds = eco.asns.of_kind(AsKind::Cloud);
        for &id in &candidates {
            let c = &mut eco.companies[id];
            c.listed = false;
            for d in c.domains.iter_mut() {
                // `ads.adnetNN.example` → `ads2.adnetNN.example`: a new
                // host (not a subdomain of the old one), so the frozen
                // `||ads.adnetNN.example^` rule no longer matches.
                let rotated = match d.split_once('.') {
                    Some((label, rest)) => format!("{label}2.{rest}"),
                    None => format!("{d}2"),
                };
                let asn = clouds[id % clouds.len()];
                let ips: Vec<u32> = (0..3)
                    .map(|_| {
                        eco.servers
                            .add_server(asn, Region::European, BackendClass::Dynamic)
                    })
                    .collect();
                eco.servers.bind_host(&rotated, ips);
                *d = rotated;
            }
        }
        // Rebuild every page against the evolved companies — rotated
        // domains and unlisted path markers included.
        for i in 0..eco.publishers.len() {
            let n = eco.publishers[i].pages.len().max(2);
            eco.publishers[i].pages =
                build_pages_for(&eco.publishers[i], &eco.companies, &mut rng, n);
        }
        (eco, candidates)
    }
}

fn build_companies(
    config: &EcosystemConfig,
    asns: &AsRegistry,
    servers: &mut ServerRegistry,
    cdn_pool: &[u32],
    rng: &mut StdRng,
) -> Vec<AdTechCompany> {
    let giant_as = asns.first_of(AsKind::SearchGiant).expect("giant AS");
    let clouds = asns.of_kind(AsKind::Cloud);
    let cdns = asns.of_kind(AsKind::Cdn);
    let adtech_as = asns.of_kind(AsKind::AdTech);
    let portal = asns.first_of(AsKind::Portal).expect("portal AS");

    let mut companies = Vec::new();

    // --- The search giant (Google analogue) ---
    // Exchange: doubleklick (never whitelisted) + adservice (whitelisted).
    let mut giant_domains = vec![
        "doubleklick.gigglesearch.example".to_string(),
        "adservice.gigglesearch.example".to_string(),
        "static.gigglesearch-cdn.example".to_string(), // gstatic analogue
    ];
    companies.push(AdTechCompany {
        id: 0,
        name: "Gigglesearch Ads".to_string(),
        kind: AdTechKind::Exchange,
        domains: giant_domains.clone(),
        acceptable: true, // partially — the list whitelists adservice+static
        rtb: true,
        listed: true,
        weight: 10.0,
    });
    companies.push(AdTechCompany {
        id: 1,
        name: "Gigglesearch Analytics".to_string(),
        kind: AdTechKind::Analytics,
        domains: vec!["analytics.gigglesearch.example".to_string()],
        acceptable: true,
        rtb: false,
        listed: true,
        weight: 3.0,
    });
    giant_domains.push("analytics.gigglesearch.example".to_string());
    // Server farm for all giant domains: dynamic for ads (RTB for the
    // exchange domain), static for the gstatic analogue.
    let mut giant_rtb = Vec::new();
    let mut giant_dyn = Vec::new();
    let mut giant_static = Vec::new();
    for _ in 0..20 {
        giant_rtb.push(servers.add_server(giant_as, Region::European, BackendClass::RtbAuction));
    }
    for _ in 0..24 {
        giant_dyn.push(servers.add_server(giant_as, Region::European, BackendClass::Dynamic));
    }
    for _ in 0..16 {
        giant_static.push(servers.add_server(giant_as, Region::IspCache, BackendClass::Static));
    }
    servers.bind_host("doubleklick.gigglesearch.example", giant_rtb.clone());
    servers.bind_host("adservice.gigglesearch.example", giant_dyn.clone());
    servers.bind_host("analytics.gigglesearch.example", giant_dyn.clone());
    servers.bind_host("static.gigglesearch-cdn.example", giant_static.clone());
    // The giant's content properties (search + video) — used by publishers
    // of the Search/VideoStreaming categories below.
    servers.bind_host("www.gigglesearch.example", giant_dyn.clone());
    servers.bind_host("vid.gigglesearch.example", giant_static);

    // --- Independent ad networks & exchanges ---
    let exchange_names = ["Mopubble", "Rubiconda", "Pubmatcha", "AOLadWorks"];
    for i in 0..config.ad_companies {
        let id = companies.len();
        let is_exchange = i < exchange_names.len();
        // The last two exchanges live in the dedicated ad-tech ASes
        // (AppNexoid / Criterion analogues), AOLadWorks in the portal AS.
        let (asn, nservers, region) = if is_exchange {
            match i {
                0 => (adtech_as[0], 18, Region::UsEast),   // AppNexoid AS
                1 => (adtech_as[1], 12, Region::European), // Criterion AS
                2 => (clouds[i % clouds.len()], 14, Region::UsEast),
                _ => (portal, 10, Region::UsEast),
            }
        } else {
            let asn = clouds[i % clouds.len()];
            let region = if i % 3 == 0 {
                Region::European
            } else if i % 3 == 1 {
                Region::UsEast
            } else {
                Region::UsWest
            };
            (asn, rng.gen_range(2..8), region)
        };
        let name = if is_exchange {
            exchange_names[i].to_string()
        } else {
            format!("AdNet{:02}", i)
        };
        let domain = if is_exchange {
            format!("bid.{}.example", name.to_ascii_lowercase())
        } else {
            format!("ads.adnet{:02}.example", i)
        };
        // Exchanges answer auctions on the bid domain but deliver the won
        // creative from a plain static CDN domain — only the auction call
        // carries the ~100 ms hold (Figure 7's shape).
        let creative_domain = if is_exchange {
            Some(format!("cdn.{}.example", name.to_ascii_lowercase()))
        } else {
            None
        };
        let backend = if is_exchange {
            BackendClass::RtbAuction
        } else if rng.gen_bool(0.5) {
            BackendClass::Dynamic
        } else {
            BackendClass::Static
        };
        // ~40% of plain ad networks deliver creatives straight from CDN
        // edges — sharing front-ends with regular content, one of §8.1's
        // findings.
        let ips: Vec<u32> = if !is_exchange && rng.gen_bool(0.4) && !cdn_pool.is_empty() {
            (0..nservers.min(4))
                .map(|_| cdn_pool[rng.gen_range(0..cdn_pool.len())])
                .collect()
        } else {
            (0..nservers)
                .map(|_| servers.add_server(asn, region, backend))
                .collect()
        };
        servers.bind_host(&domain, ips);
        let mut domains = vec![domain];
        if let Some(cd) = creative_domain {
            let static_ips: Vec<u32> = (0..4)
                .map(|_| servers.add_server(asn, region, BackendClass::Static))
                .collect();
            servers.bind_host(&cd, static_ips);
            domains.push(cd);
        }
        let acceptable = !is_exchange && rng.gen_bool(config.acceptable_fraction);
        // A fraction of the small networks is too new/obscure for the lists.
        let listed = is_exchange || !rng.gen_bool(0.12);
        companies.push(AdTechCompany {
            id,
            name,
            kind: if is_exchange {
                AdTechKind::Exchange
            } else {
                AdTechKind::AdNetwork
            },
            domains,
            acceptable,
            rtb: is_exchange,
            listed,
            weight: if is_exchange {
                3.0
            } else {
                12.0 / (i + 2) as f64 + 0.3
            },
        });
    }

    // --- Trackers & analytics ---
    for i in 0..config.trackers {
        let id = companies.len();
        let kind = if i % 3 == 0 {
            AdTechKind::Analytics
        } else {
            AdTechKind::Tracker
        };
        let domain = match kind {
            AdTechKind::Analytics => format!("metrics.analytico{:02}.example", i),
            _ => format!("t.tracker{:02}.example", i),
        };
        // Trackers live in clouds and CDNs; a few run RTB-adjacent sync
        // endpoints (cookie matching) with dynamic backends.
        let hostings = asns.of_kind(AsKind::Hosting);
        let asn = if i % 4 == 0 {
            cdns[i % cdns.len()]
        } else if i % 3 == 0 {
            hostings[i % hostings.len()]
        } else {
            clouds[i % clouds.len()]
        };
        let nservers = rng.gen_range(1..4);
        let ips: Vec<u32> = (0..nservers)
            .map(|_| servers.add_server(asn, Region::European, BackendClass::Dynamic))
            .collect();
        servers.bind_host(&domain, ips);
        companies.push(AdTechCompany {
            id,
            name: format!("Tracker{:02}", i),
            kind,
            domains: vec![domain],
            acceptable: false,
            rtb: false,
            listed: i % 11 != 10,
            weight: 10.0 / (i + 2) as f64 + 0.2,
        });
    }
    companies
}

/// Shared CDN edges: each hosts many hostnames (publisher assets *and* some
/// ad-network creative hosts) — the "same infrastructure serves ad and
/// regular content" phenomenon.
fn build_cdn_pool(
    config: &EcosystemConfig,
    asns: &AsRegistry,
    servers: &mut ServerRegistry,
) -> Vec<u32> {
    let cdns = asns.of_kind(AsKind::Cdn);
    (0..config.cdn_edges)
        .map(|i| {
            let asn = cdns[i % cdns.len()];
            let region = if i % 3 == 0 {
                Region::IspCache
            } else {
                Region::European
            };
            let backend = if i % 12 == 0 {
                BackendClass::CdnMiss
            } else {
                BackendClass::Static
            };
            servers.add_server(asn, region, backend)
        })
        .collect()
}

fn build_publishers(
    config: &EcosystemConfig,
    asns: &AsRegistry,
    servers: &mut ServerRegistry,
    companies: &[AdTechCompany],
    cdn_pool: &[u32],
    rng: &mut StdRng,
) -> (Vec<Publisher>, usize) {
    let giant_as = asns.first_of(AsKind::SearchGiant).expect("giant");
    // Long-tail hosting servers, shared by several small publishers each.
    // Publisher content lives in hosting ASes *and* in general-purpose
    // clouds — the same clouds that host mid-tier ad-tech, which is why the
    // paper finds mixed per-AS ad ratios for EC2/Hetzner-style players.
    let mut host_ases = asns.of_kind(AsKind::Hosting);
    host_ases.extend(asns.of_kind(AsKind::Cloud));
    host_ases.extend(asns.of_kind(AsKind::Cloud)); // clouds twice as likely
    let hosting_pool: Vec<u32> = (0..config.hosting_servers)
        .map(|i| {
            servers.add_server(
                host_ases[i % host_ases.len()],
                Region::European,
                BackendClass::Dynamic,
            )
        })
        .collect();

    // Category assignment honoring prevalences.
    let mut categories = Vec::with_capacity(config.publishers);
    for cat in SiteCategory::ALL {
        let n = (cat.prevalence() * config.publishers as f64).round() as usize;
        categories.extend(std::iter::repeat_n(cat, n));
    }
    while categories.len() < config.publishers {
        categories.push(SiteCategory::Mixed);
    }
    categories.truncate(config.publishers);
    categories.shuffle(rng);
    // Guarantee at least one Tech publisher for the self-platform role and
    // a few News sites.
    if !categories.contains(&SiteCategory::Tech) {
        categories[0] = SiteCategory::Tech;
    }

    let mut publishers = Vec::with_capacity(config.publishers);
    let mut self_platform_publisher = None;
    for (id, &category) in categories.iter().enumerate() {
        let domain = format!("{}{:03}.example", category_stem(category), id);
        let www_host = format!("www.{domain}");
        let asset_host = format!("assets.{domain}");
        // The most popular video platform belongs to the search giant.
        let giant_owned = matches!(
            category,
            SiteCategory::VideoStreaming | SiteCategory::Search
        ) && id % 2 == 0;
        let www_ips: Vec<u32> = if giant_owned {
            (0..4)
                .map(|_| servers.add_server(giant_as, Region::European, BackendClass::Dynamic))
                .collect()
        } else {
            vec![hosting_pool[rng.gen_range(0..hosting_pool.len())]]
        };
        servers.bind_host(&www_host, www_ips);
        // Assets: giant-owned platforms serve chunks from the giant's own
        // farm; otherwise ~60 % CDN-hosted, rest on the hosting machine.
        let asset_ips: Vec<u32> = if giant_owned {
            (0..6)
                .map(|_| servers.add_server(giant_as, Region::IspCache, BackendClass::Static))
                .collect()
        } else if rng.gen_bool(0.6) {
            let k = rng.gen_range(1..4);
            (0..k)
                .map(|_| cdn_pool[rng.gen_range(0..cdn_pool.len())])
                .collect()
        } else {
            vec![hosting_pool[rng.gen_range(0..hosting_pool.len())]]
        };
        servers.bind_host(&asset_host, asset_ips);

        let regional = rng.gen_bool(config.regional_fraction);
        let self_hosted_ads = (category == SiteCategory::Tech && self_platform_publisher.is_none())
            || (regional && rng.gen_bool(0.3))
            || rng.gen_bool(0.18);
        let is_self_platform = category == SiteCategory::Tech && self_platform_publisher.is_none();
        if is_self_platform {
            self_platform_publisher = Some(id);
        }

        // Ad companies: 1–4 weighted picks; adult/file-sharing sites cannot
        // use acceptable networks. The self-platform tech site sells its own
        // inventory and embeds no third parties (§7.3's 94% example).
        let n_ad = if is_self_platform {
            0
        } else {
            rng.gen_range(1..=4usize)
        };
        let mut ad_companies = Vec::new();
        for _ in 0..n_ad {
            let pick = pick_weighted_company(companies, rng, |c| {
                matches!(c.kind, AdTechKind::AdNetwork | AdTechKind::Exchange)
                    && (category.may_use_acceptable_ads() || !c.acceptable)
            });
            if !ad_companies.contains(&pick) {
                ad_companies.push(pick);
            }
        }
        // Trackers: 2–6 weighted picks.
        let (tlo, thi) = category.tracker_range();
        let n_tr = rng.gen_range(tlo..=thi.max(tlo));
        let mut trackers = Vec::new();
        for _ in 0..n_tr {
            let pick = pick_weighted_company(companies, rng, |c| c.is_privacy_target());
            if !trackers.contains(&pick) {
                trackers.push(pick);
            }
        }

        publishers.push(Publisher {
            id,
            domain,
            www_host,
            asset_host,
            category,
            ad_companies,
            trackers,
            regional,
            self_hosted_ads,
            pages: Vec::new(),
        });
    }
    (
        publishers,
        self_platform_publisher.expect("at least one tech publisher"),
    )
}

fn category_stem(cat: SiteCategory) -> &'static str {
    match cat {
        SiteCategory::News => "dailyherald",
        SiteCategory::VideoStreaming => "vidstream",
        SiteCategory::AudioStreaming => "tunecast",
        SiteCategory::Shopping => "shopmart",
        SiteCategory::Social => "friendly",
        SiteCategory::Search => "findit",
        SiteCategory::Adult => "nightowl",
        SiteCategory::FileSharing => "fileshed",
        SiteCategory::Tech => "technewsy",
        SiteCategory::Dating => "matchmake",
        SiteCategory::Translation => "translingo",
        SiteCategory::Mixed => "portalmix",
    }
}

fn pick_weighted_company<F: Fn(&AdTechCompany) -> bool>(
    companies: &[AdTechCompany],
    rng: &mut StdRng,
    filter: F,
) -> usize {
    let eligible: Vec<&AdTechCompany> = companies.iter().filter(|c| filter(c)).collect();
    assert!(!eligible.is_empty(), "no eligible ad-tech company");
    let total: f64 = eligible.iter().map(|c| c.weight).sum();
    let mut x = rng.gen_range(0.0..total);
    for c in &eligible {
        x -= c.weight;
        if x <= 0.0 {
            return c.id;
        }
    }
    eligible.last().expect("non-empty").id
}

fn build_all_pages(publishers: &mut [Publisher], companies: &[AdTechCompany], rng: &mut StdRng) {
    for p in publishers.iter_mut() {
        let n = p.pages.capacity().clamp(4, 6);
        p.pages = build_pages_for(p, companies, rng, n);
    }
}

/// Build `n` page templates for a publisher.
fn build_pages_for(
    p: &Publisher,
    companies: &[AdTechCompany],
    rng: &mut StdRng,
    n: usize,
) -> Vec<PageTemplate> {
    let mut pages = Vec::with_capacity(n);
    for page_idx in 0..n {
        let mut objects = Vec::new();
        let (olo, ohi) = p.category.object_range();
        let n_obj = rng.gen_range(olo..=ohi);
        // --- Regular content ---
        for k in 0..n_obj {
            let obj = if p.category.is_streaming() && k % 3 != 2 {
                // Streaming chunk: big, often without Content-Type.
                PageObject {
                    missing_ct_prob: 0.6,
                    dynamic_query: true,
                    ..PageObject::content(
                        &p.asset_host,
                        &format!("/chunks/v{page_idx}_{k}.ts"),
                        ContentCategory::Media,
                        SizeClass::VideoChunk,
                    )
                }
            } else {
                match k % 8 {
                    0 | 6 => PageObject::content(
                        &p.asset_host,
                        &format!("/img/photo{page_idx}_{k}.jpg"),
                        ContentCategory::Image,
                        SizeClass::ContentImage,
                    ),
                    1 => PageObject {
                        mislabel_prob: 0.05,
                        ..PageObject::content(
                            &p.asset_host,
                            &format!("/js/app{k}.js"),
                            ContentCategory::Script,
                            SizeClass::Script,
                        )
                    },
                    2 => PageObject::content(
                        &p.asset_host,
                        &format!("/css/style{k}.css"),
                        ContentCategory::Stylesheet,
                        SizeClass::Stylesheet,
                    ),
                    3 => PageObject {
                        // Interactive endpoints: small text, dynamic.
                        dynamic_query: true,
                        missing_ct_prob: 0.35,
                        ..PageObject::content(
                            &p.www_host,
                            &format!("/api/suggest{k}"),
                            ContentCategory::Xhr,
                            SizeClass::TextChunk,
                        )
                    },
                    4 => PageObject {
                        missing_ct_prob: 0.45,
                        ..PageObject::content(
                            &p.asset_host,
                            &format!("/img/icon{k}.png"),
                            ContentCategory::Image,
                            SizeClass::ContentImage,
                        )
                    },
                    5 if k == 5 && page_idx % 2 == 0 => PageObject::content(
                        // Web fonts from the giant's static CDN — perfectly
                        // ordinary content that the overly-broad whitelist
                        // rule of §7.3 nevertheless covers.
                        "static.gigglesearch-cdn.example",
                        &format!("/fonts/face{}.woff2", k % 5),
                        ContentCategory::Font,
                        SizeClass::Stylesheet,
                    ),
                    5 => PageObject::content(
                        &p.www_host,
                        &format!("/feeds/section{k}.xml"),
                        ContentCategory::Xhr,
                        SizeClass::Feed,
                    ),
                    _ => PageObject::content(
                        &p.www_host,
                        &format!("/fragment{page_idx}_{k}.html"),
                        ContentCategory::Subdocument,
                        SizeClass::Html,
                    ),
                }
            };
            objects.push(obj);
        }
        // --- Ads ---
        let (alo, ahi) = p.category.ad_range();
        let n_ads = rng.gen_range(alo..=ahi.max(alo));
        if !p.ad_companies.is_empty() {
            for a in 0..n_ads {
                let company_idx = p.ad_companies[a % p.ad_companies.len()];
                let c = &companies[company_idx];
                push_ad_objects(&mut objects, p, c, company_idx, page_idx, a, rng);
            }
        }
        // Self-hosted first-party ads (the tech self-platform and some
        // regional publishers).
        if p.self_hosted_ads {
            let n_house = if p.ad_companies.is_empty() { 6 } else { 3 };
            for a in 0..rng.gen_range(2..n_house.max(3)) {
                objects.push(PageObject {
                    dynamic_query: true,
                    kind: ObjectKind::Ad {
                        company: usize::MAX, // first-party: no ad-tech company
                    },
                    ..PageObject::content(
                        &p.www_host,
                        &format!("/sponsor/self{page_idx}_{a}.gif"),
                        ContentCategory::Image,
                        SizeClass::AdBanner,
                    )
                });
            }
        }
        // --- Trackers ---
        for (t, &tracker_idx) in p.trackers.iter().enumerate() {
            let c = &companies[tracker_idx];
            push_tracker_objects(&mut objects, c, tracker_idx, page_idx, t, rng);
        }
        let (xlo, xhi) = p.category.text_ad_range();
        pages.push(PageTemplate {
            path: if page_idx == 0 {
                "/".to_string()
            } else {
                format!("/page{page_idx}.html")
            },
            objects,
            embedded_text_ads: rng.gen_range(xlo..=xhi.max(xlo)),
        });
    }
    pages
}

fn push_ad_objects(
    objects: &mut Vec<PageObject>,
    p: &Publisher,
    c: &AdTechCompany,
    company_idx: usize,
    page_idx: usize,
    slot: usize,
    rng: &mut StdRng,
) {
    let host = c.primary_domain().to_string();
    // Multi-domain companies (the search giant) answer RTB on the primary
    // domain but serve creatives from a secondary one — which is exactly
    // where partial whitelisting bites (adservice whitelisted, doubleklick
    // not).
    let creative_host = if c.domains.len() > 1 && !c.domains[1].contains("-cdn.") {
        c.domains[1].clone()
    } else {
        host.clone()
    };
    // 1. The ad call: a script or (for exchanges) an RTB bid request.
    if c.rtb {
        // Exchanges are always listed at generation time, so the `/rtb/`
        // arm only appears after `evolve_list_lag` delists one: the
        // rotated exchange ships a new bid API path the stale generic
        // `/adserve/` rule no longer covers.
        let bid_marker = if c.listed { "adserve" } else { "rtb" };
        objects.push(PageObject {
            host: host.clone(),
            path: format!("/{bid_marker}/bid{page_idx}_{slot}"),
            category: ContentCategory::Xhr,
            size: SizeClass::TextChunk,
            kind: ObjectKind::Ad {
                company: company_idx,
            },
            dynamic_query: true,
            redirect_via: None,
            mislabel_prob: 0.0,
            missing_ct_prob: 0.15,
        });
    } else if rng.gen_bool(0.5) {
        // Ad scripts are often served from extension-less URLs, so the
        // passive methodology must fall back to the (sometimes lying)
        // Content-Type header — §4.2's false-positive source. Unlisted
        // networks use path markers no filter rule covers.
        let marker = if c.listed { "adserve" } else { "native" };
        let extensionless = rng.gen_bool(0.4);
        objects.push(PageObject {
            host: creative_host.clone(),
            path: if extensionless {
                format!("/{marker}/show{slot}")
            } else {
                format!("/{marker}/show{slot}.js")
            },
            category: ContentCategory::Script,
            size: SizeClass::AdScript,
            kind: ObjectKind::Ad {
                company: company_idx,
            },
            dynamic_query: true,
            redirect_via: None,
            mislabel_prob: 0.12, // JS served as text/html: §4.2's FP source
            missing_ct_prob: 0.0,
        });
    }
    // 2. The creative: a pre-roll video spot on some streaming page loads,
    // display formats everywhere else.
    let video_ad = p.category.is_streaming() && slot == 0 && rng.gen_bool(0.25);
    if video_ad {
        objects.push(PageObject {
            host: creative_host.clone(),
            path: format!("/banners/spot{page_idx}.mp4"),
            category: ContentCategory::Media,
            size: SizeClass::AdVideo,
            kind: ObjectKind::Ad {
                company: company_idx,
            },
            dynamic_query: true,
            redirect_via: None,
            mislabel_prob: 0.0,
            missing_ct_prob: 0.1,
        });
    } else {
        // Mostly GIF banners; some flash; some iframes (text/html).
        let (banner_marker, serve_marker) = if c.listed {
            ("banners", "adserve")
        } else {
            ("promo", "native")
        };
        let (path, category, size, mislabel) = match slot % 5 {
            0 | 1 => (
                format!("/{banner_marker}/b{page_idx}_{slot}.gif"),
                ContentCategory::Image,
                SizeClass::AdBanner,
                0.0,
            ),
            2 => (
                format!("/adframe/frame{slot}.html"),
                ContentCategory::Subdocument,
                SizeClass::Html,
                0.0,
            ),
            3 => (
                format!("/{banner_marker}/rich{slot}.swf"),
                ContentCategory::Object,
                SizeClass::Flash,
                0.0,
            ),
            _ => (
                format!("/{serve_marker}/meta{slot}.xml"),
                ContentCategory::Xhr,
                SizeClass::Feed,
                0.0,
            ),
        };
        // Some creatives are fetched via a redirector (impression counter),
        // producing the broken-referrer case of §3.1.
        let redirect_via = if rng.gen_bool(0.25) && c.rtb {
            Some(c.primary_domain().to_string())
        } else if rng.gen_bool(0.12) {
            Some(host.clone())
        } else {
            None
        };
        objects.push(PageObject {
            host: creative_host.clone(),
            path,
            category,
            size,
            kind: ObjectKind::Ad {
                company: company_idx,
            },
            dynamic_query: true,
            redirect_via,
            mislabel_prob: mislabel,
            missing_ct_prob: 0.08,
        });
    }
    // 3. Impression pixel.
    if rng.gen_bool(0.35) {
        let marker = if c.listed { "adserve" } else { "native" };
        objects.push(PageObject {
            host: creative_host.clone(),
            path: format!("/{marker}/imp{page_idx}_{slot}.gif"),
            category: ContentCategory::Image,
            size: SizeClass::TrackingPixel,
            kind: ObjectKind::Ad {
                company: company_idx,
            },
            dynamic_query: true,
            redirect_via: None,
            mislabel_prob: 0.0,
            missing_ct_prob: 0.0,
        });
    }
}

fn push_tracker_objects(
    objects: &mut Vec<PageObject>,
    c: &AdTechCompany,
    tracker_idx: usize,
    page_idx: usize,
    slot: usize,
    rng: &mut StdRng,
) {
    let host = c.primary_domain().to_string();
    match c.kind {
        AdTechKind::Analytics => {
            // Analytics: a script plus a beacon.
            objects.push(PageObject {
                host: host.clone(),
                path: "/collect/analytics.js".to_string(),
                category: ContentCategory::Script,
                size: SizeClass::Script,
                kind: ObjectKind::Tracker {
                    company: tracker_idx,
                },
                dynamic_query: false,
                redirect_via: None,
                mislabel_prob: 0.08,
                missing_ct_prob: 0.0,
            });
            objects.push(PageObject {
                host,
                path: format!("/collect/hit{page_idx}"),
                category: ContentCategory::Xhr,
                size: SizeClass::TextChunk,
                kind: ObjectKind::Tracker {
                    company: tracker_idx,
                },
                dynamic_query: true,
                redirect_via: None,
                mislabel_prob: 0.0,
                missing_ct_prob: 0.3,
            });
        }
        _ => {
            // Plain tracker: a 43-byte pixel, sometimes a beacon text call.
            let marker = if c.listed { "pixel" } else { "stats" };
            objects.push(PageObject {
                host: host.clone(),
                path: format!("/{marker}/p{page_idx}_{slot}.gif"),
                category: ContentCategory::Image,
                size: SizeClass::TrackingPixel,
                kind: ObjectKind::Tracker {
                    company: tracker_idx,
                },
                dynamic_query: true,
                redirect_via: None,
                mislabel_prob: 0.0,
                missing_ct_prob: 0.0,
            });
            if rng.gen_bool(0.3) {
                objects.push(PageObject {
                    host,
                    path: format!("/beacon/sync{slot}"),
                    category: ContentCategory::Xhr,
                    size: SizeClass::TextChunk,
                    kind: ObjectKind::Tracker {
                        company: tracker_idx,
                    },
                    dynamic_query: true,
                    redirect_via: None,
                    mislabel_prob: 0.0,
                    missing_ct_prob: 0.25,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig {
            publishers: 60,
            ad_companies: 10,
            trackers: 12,
            pages_per_site: 3,
            cdn_edges: 10,
            hosting_servers: 20,
            seed: 42,
            ..Default::default()
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.publishers.len(), b.publishers.len());
        for (pa, pb) in a.publishers.iter().zip(&b.publishers) {
            assert_eq!(pa.domain, pb.domain);
            assert_eq!(pa.ad_companies, pb.ad_companies);
            assert_eq!(pa.pages.len(), pb.pages.len());
        }
    }

    #[test]
    fn every_object_host_resolves() {
        let eco = small();
        for p in &eco.publishers {
            assert!(eco.server_for(&p.www_host, 0).is_some(), "{}", p.www_host);
            assert!(eco.server_for(&p.asset_host, 0).is_some());
            for page in &p.pages {
                for o in &page.objects {
                    assert!(
                        eco.server_for(&o.host, 0).is_some(),
                        "unresolvable host {}",
                        o.host
                    );
                    if let Some(via) = &o.redirect_via {
                        assert!(eco.server_for(via, 0).is_some());
                    }
                }
            }
        }
        assert!(eco.server_for(&eco.abp_host, 1).is_some());
    }

    #[test]
    fn giant_is_first_company() {
        let eco = small();
        assert_eq!(eco.companies[GIANT_EXCHANGE].name, "Gigglesearch Ads");
        assert!(eco.companies[GIANT_EXCHANGE].rtb);
        assert_eq!(eco.companies[GIANT_ANALYTICS].kind, AdTechKind::Analytics);
    }

    #[test]
    fn adult_sites_avoid_acceptable_networks() {
        let eco = small();
        for p in eco
            .publishers
            .iter()
            .filter(|p| p.category == SiteCategory::Adult)
        {
            for &c in &p.ad_companies {
                assert!(
                    !eco.companies[c].acceptable,
                    "adult site {} uses acceptable network {}",
                    p.domain, eco.companies[c].name
                );
            }
        }
    }

    #[test]
    fn pages_contain_ads_and_trackers() {
        let eco = small();
        let mut total_ads = 0;
        let mut total_objects = 0;
        for p in &eco.publishers {
            assert!(!p.pages.is_empty());
            for page in &p.pages {
                total_ads += page.ad_related_count();
                total_objects += page.objects.len();
            }
        }
        let ratio = total_ads as f64 / total_objects as f64;
        assert!(
            (0.10..0.45).contains(&ratio),
            "ad-related object ratio {ratio}"
        );
    }

    #[test]
    fn unwhitelisted_news_have_no_acceptable_companies() {
        let eco = small();
        for &id in &eco.unwhitelisted_news {
            let p = &eco.publishers[id];
            assert_eq!(p.category, SiteCategory::News);
            for &c in &p.ad_companies {
                assert!(!eco.companies[c].acceptable);
            }
        }
    }

    #[test]
    fn abp_infrastructure_exists() {
        let eco = small();
        assert_eq!(eco.abp_ips.len(), 2);
        let s = eco.server_for(&eco.abp_host, 7).unwrap();
        assert!(eco.abp_ips.contains(&s.ip));
    }

    #[test]
    fn self_platform_publisher_is_tech_with_self_ads() {
        let eco = small();
        let p = &eco.publishers[eco.self_platform_publisher];
        assert_eq!(p.category, SiteCategory::Tech);
        assert!(p.self_hosted_ads);
    }

    #[test]
    fn list_lag_rotates_domains_off_the_stale_rules() {
        let eco = small();
        let (evolved, rotated) = eco.evolve_list_lag(4);
        assert_eq!(rotated.len(), 4);
        for &id in &rotated {
            let before = &eco.companies[id];
            let after = &evolved.companies[id];
            assert!(before.listed && !after.listed);
            assert_ne!(before.domains, after.domains);
            for d in &after.domains {
                // New hosts resolve, and the frozen list has no rule
                // anchored on them.
                assert!(evolved.server_for(d, 0).is_some(), "unbound {d}");
                assert!(
                    !eco.lists.easylist_text.contains(d.as_str()),
                    "stale list already covers {d}"
                );
            }
        }
        // The stale subscription is kept verbatim — that is the lag.
        assert_eq!(eco.lists.easylist_text, evolved.lists.easylist_text);
        // Rebuilt pages reference the rotated domains.
        let uses_rotated = evolved.publishers.iter().any(|p| {
            p.pages.iter().any(|pg| {
                pg.objects.iter().any(|o| {
                    rotated
                        .iter()
                        .any(|&id| evolved.companies[id].domains.contains(&o.host))
                })
            })
        });
        assert!(uses_rotated, "no page uses a rotated domain");
    }

    #[test]
    fn top_sites_cover_all_publishers() {
        let eco = small();
        let mut seen: Vec<usize> = eco.top_sites.top(eco.publishers.len()).to_vec();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..eco.publishers.len()).collect();
        assert_eq!(seen, expected);
    }
}
