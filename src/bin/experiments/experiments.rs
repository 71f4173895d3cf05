//! One function per paper artifact. Each returns a printable section that
//! states what the paper reported and what this reproduction measures.

use crate::world::{Rbn, Scale, World};
use adscope::characterize::servers::ServerStudy;
use adscope::characterize::{ases, rtb, sizes, timeseries, whitelist, Figures};
use adscope::infer::{self, UserClass, ACTIVE_USER_MIN_REQUESTS, AD_RATIO_THRESHOLD_PCT};
use adscope::users::annotation_summary;
use adscope::StreamOptions;
use annoyed_users::prelude::*;
use browsersim::drive::{drive, drive_stream, DriveOutput};
use obs::SampleValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stats::render;
use stats::table::{fmt_bytes, fmt_count, fmt_pct};
use stats::{BoxPlot, Ecdf, HeatMap2d, TextTable, TimeSeries};
use std::fmt::Write as _;

/// All experiment ids in paper order (plus beyond-the-paper checks).
pub const ALL_IDS: [&str; 19] = [
    "table1",
    "fig2",
    "table2",
    "fig3",
    "fig4",
    "table3",
    "sec63",
    "fig5a",
    "fig5b",
    "table4",
    "fig6",
    "sec73",
    "sec81",
    "table5",
    "fig7",
    "sensitivity",
    "validation",
    "robustness",
    "metrics",
];

/// Dispatch one experiment.
pub fn run(id: &str, world: &World) -> Option<String> {
    Some(match id {
        "table1" => table1(world),
        "fig2" => fig2(world),
        "table2" => table2(world),
        "fig3" => fig3(world),
        "fig4" => fig4(world),
        "table3" => table3(world),
        "sec63" => sec63(world),
        "fig5a" => fig5a(world),
        "fig5b" => fig5b(world),
        "table4" => table4(world),
        "fig6" => fig6(world),
        "sec73" => sec73(world),
        "sec81" => sec81(world),
        "table5" => table5(world),
        "fig7" => fig7(world),
        "sensitivity" => sensitivity(world),
        "validation" => validation(world),
        "robustness" => robustness(world),
        "metrics" => metrics(world),
        _ => return None,
    })
}

/// Classify one active-crawl profile trace and count EL/EP hits.
fn classify_profile(world: &World, trace: &Trace) -> (usize, usize, u64, u64) {
    let classified =
        adscope::pipeline::classify_trace(trace, &world.classifier, PipelineOptions::default());
    let (el, ep) = list_hits(&Figures::of_trace(&classified).servers);
    (trace.https_count(), trace.http_count(), el, ep)
}

/// EasyList (or derivative) and EasyPrivacy hits, summed over the servers.
fn list_hits(servers: &ServerStudy) -> (u64, u64) {
    let servers = servers.servers.values();
    let el = servers.clone().map(|s| s.easylist_objects).sum();
    (el, servers.map(|s| s.easyprivacy_objects).sum())
}

fn table1(world: &World) -> String {
    let active = world.active();
    let mut t = TextTable::new(
        "Table 1 — Active measurements: aggregate results per browser mode",
        &["Browser Mode", "#HTTPS", "#HTTP", "ELhits", "EPhits"],
    );
    let mut summary = String::new();
    let mut vanilla_http = 0u64;
    let mut adbp_pa_http = 0u64;
    for run in &active.runs {
        let (https, http, el, ep) = classify_profile(world, &run.trace);
        if run.profile == BrowserProfile::Vanilla {
            vanilla_http = http as u64;
        }
        if run.profile == BrowserProfile::AdbpParanoia {
            adbp_pa_http = http as u64;
        }
        t.row(&[
            run.profile.label().to_string(),
            fmt_count(https as u64),
            fmt_count(http as u64),
            fmt_count(el),
            fmt_count(ep),
        ]);
    }
    let _ = writeln!(
        summary,
        "\nPaper: AdBP-Paranoia issues ~80% of Vanilla's HTTP requests; blockers'\n\
         own EL/EP hit counts collapse to near zero in the blocked dimension.\n\
         Measured: AdBP-Pa/Vanilla HTTP ratio = {:.1}%",
        stats::pct(adbp_pa_http, vanilla_http)
    );
    format!("{}{}", t.render(), summary)
}

fn fig2(world: &World) -> String {
    // Per-visit (total, ad) counts per profile: visits are 12 s apart in the
    // crawl, so bin classified requests by floor(ts / 12).
    let profiles = [
        BrowserProfile::Vanilla,
        BrowserProfile::AdbpParanoia,
        BrowserProfile::GhosteryParanoia,
    ];
    let mut out = String::from("## Figure 2 — Ratio of ad requests per browser configuration\n");
    let mut per_profile: Vec<(BrowserProfile, Vec<(u64, u64)>)> = Vec::new();
    let active = world.active();
    for run in active.runs.iter().filter(|r| profiles.contains(&r.profile)) {
        let trace = &run.trace;
        let classified =
            adscope::pipeline::classify_trace(trace, &world.classifier, PipelineOptions::default());
        let n_visits = (trace.meta.duration_secs / 12.0).ceil() as usize;
        let mut visits = vec![(0u64, 0u64); n_visits.max(1)];
        for r in &classified.requests {
            let v = ((r.ts / 12.0) as usize).min(visits.len() - 1);
            visits[v].0 += 1;
            if r.label.is_ad() {
                visits[v].1 += 1;
            }
        }
        per_profile.push((run.profile, visits));
    }
    let mut rng = StdRng::seed_from_u64(0xF162);
    for &loads in &[1usize, 5, 10] {
        let _ = writeln!(out, "\n{loads} page load(s), 1000 iterations:");
        let mut boxes: Vec<(BrowserProfile, BoxPlot)> = Vec::new();
        for (profile, visits) in &per_profile {
            let samples: Vec<f64> = (0..1000)
                .map(|_| {
                    let mut tot = 0u64;
                    let mut ads = 0u64;
                    for _ in 0..loads {
                        let (t, a) = visits[rng.gen_range(0..visits.len())];
                        tot += t;
                        ads += a;
                    }
                    stats::pct(ads, tot)
                })
                .collect();
            let b = BoxPlot::from_samples(&samples).expect("non-empty");
            let _ = writeln!(
                out,
                "  {:<12} med={:5.1}%  [q1={:4.1}% q3={:4.1}%]  {}",
                profile.label(),
                b.median,
                b.q1,
                b.q3,
                render::boxplot_row(&b, 0.0, 50.0, 50)
            );
            boxes.push((*profile, b));
        }
        let vanilla = &boxes[0].1;
        let adbp = &boxes[1].1;
        let separated = adbp.box_below(vanilla);
        let _ = writeln!(
            out,
            "  AdBP-Pa box below Vanilla box: {} (paper: separation appears once \
             users are active enough)",
            separated
        );
    }
    out.push_str(
        "\nPaper: with 10 page loads the configurations separate cleanly,\n\
         motivating the 5% ratio threshold for active users.\n",
    );
    out
}

fn table2(world: &World) -> String {
    let mut t = TextTable::new(
        "Table 2 — Data sets (scaled reproduction)",
        &["Trace", "Duration", "Subscribers", "HTTPbytes", "HTTPreqs"],
    );
    // Build both traces.
    let r1 = world.rbn(Rbn::One);
    t.row(&[
        "RBN-1".to_string(),
        format!("{:.1} days", r1.report.meta.duration_secs / 86_400.0),
        fmt_count(r1.households as u64),
        fmt_bytes(r1.figures.content.total.bytes),
        fmt_count(r1.report.requests),
    ]);
    let r2 = world.rbn(Rbn::Two);
    t.row(&[
        "RBN-2".to_string(),
        format!("{:.1} hours", r2.report.meta.duration_secs / 3600.0),
        fmt_count(r2.households as u64),
        fmt_bytes(r2.figures.content.total.bytes),
        fmt_count(r2.report.requests),
    ]);
    format!(
        "{}\nPaper: RBN-1 = 4 days / 7.5K subscribers / 18.8TB / 131.95M reqs;\n\
         RBN-2 = 15.5h / 19.7K / 11.4TB / 85.09M. We run the same shapes at\n\
         reduced subscriber scale (see DESIGN.md).\n",
        t.render()
    )
}

fn fig3(world: &World) -> String {
    let users = &world.rbn(Rbn::Two).report.user_table;
    let mut heat = HeatMap2d::new(0.0, 5.0, 56, 0.0, 4.0, 24);
    for u in users {
        heat.add(u.counters.requests as f64, u.counters.ad_requests as f64);
    }
    let total_reqs: u64 = users.iter().map(|u| u.counters.requests).sum();
    let total_ads: u64 = users.iter().map(|u| u.counters.ad_requests).sum();
    let summary = annotation_summary(users, world.active_threshold());
    let mut out = String::from(
        "## Figure 3 — RBN-2 heat map: total requests vs ad requests per (IP, User-Agent) pair\n",
    );
    let _ = writeln!(
        out,
        "pairs={}  browsers={} (desktop {} / mobile {})  active={}  ad-request share={}",
        fmt_count(users.len() as u64),
        summary.browsers,
        summary.desktop,
        summary.mobile,
        summary.active,
        fmt_pct(stats::pct(total_ads, total_reqs)),
    );
    out.push_str("x: total requests 10^0..10^5, y: ad requests 10^0..10^4 (log-log)\n");
    out.push_str(&render::heatmap_grid(&heat));
    // The ad-blocker-candidate mass: many requests, hardly any ads.
    let candidates = heat.frac_region(1_000.0, 10.0);
    let _ = writeln!(
        out,
        "pairs with >=1000 requests but <=10 ad requests: {:.1}% of all pairs\n\
         Paper: a substantial lower-right mass exists (likely ad-blockers),\n\
         overall ad request share 18.89%.",
        candidates * 100.0
    );
    out
}

fn fig4(world: &World) -> String {
    let threshold = world.active_threshold();
    let users = &world.rbn(Rbn::Two).report.user_table;
    let mut out =
        String::from("## Figure 4 — ECDF of % ad requests per active browser, by family\n");
    let families = [
        BrowserFamily::Firefox,
        BrowserFamily::Safari,
        BrowserFamily::Chrome,
        BrowserFamily::InternetExplorer,
        BrowserFamily::Mobile,
    ];
    for fam in families {
        let ratios: Vec<f64> = users
            .iter()
            .filter(|u| u.family == fam && u.is_active(threshold))
            .map(|u| u.easylist_ratio_pct())
            .collect();
        if ratios.is_empty() {
            let _ = writeln!(
                out,
                "{:<14} (no active browsers at this scale)",
                fam.label()
            );
            continue;
        }
        let ecdf = Ecdf::from_samples(ratios);
        let below1 = ecdf.frac_below(1.0) * 100.0;
        let below5 = ecdf.eval(5.0) * 100.0;
        let _ = writeln!(
            out,
            "{:<14} n={:<5} <1% ads: {:5.1}%   <=5% ads: {:5.1}%",
            fam.label(),
            ecdf.len(),
            below1,
            below5
        );
        for (x, y) in ecdf.curve_log(7, 0.05) {
            let _ = writeln!(out, "    x={:8.2}%  F={:.2}", x, y);
        }
    }
    out.push_str(
        "\nPaper: ~40% of Firefox/Chrome actives issue <1% ad requests;\n\
         only 18% of Safari and 8% of IE instances fall below the threshold.\n",
    );
    out
}

fn table3(world: &World) -> String {
    let threshold = world.active_threshold();
    let r2 = world.rbn(Rbn::Two);
    let (users, downloads) = (&r2.report.user_table, &r2.report.households);
    let inferred = infer::classify_users(users, downloads, AD_RATIO_THRESHOLD_PCT, threshold);
    let (total_reqs, total_ads) = (r2.report.requests, r2.report.ad_requests);
    let active = inferred.len() as u64;
    let mut t = TextTable::new(
        "Table 3 — Ad-blocker usage classes (active browsers)",
        &[
            "Type",
            "Ratio",
            "EasyList",
            "Instances",
            "% requests",
            "% ad reqs",
        ],
    );
    for row in infer::table3(users, &inferred) {
        let (ratio, easylist) = match row.class {
            UserClass::A => ("high", "no"),
            UserClass::B => ("high", "yes"),
            UserClass::C => ("low", "yes"),
            UserClass::D => ("low", "no"),
        };
        t.row(&[
            row.class.label().to_string(),
            ratio.to_string(),
            easylist.to_string(),
            format!(
                "{} ({})",
                fmt_pct(stats::pct(row.instances, active)),
                row.instances
            ),
            fmt_pct(stats::pct(row.requests, total_reqs)),
            fmt_pct(stats::pct(row.ad_requests, total_ads)),
        ]);
    }
    // Ground-truth check (beyond the paper: we know who really runs ABP).
    // Join through the capture's raw→anonymized address mapping.
    let mut c_correct = 0usize;
    let mut c_total = 0usize;
    for iu in &inferred {
        if iu.class == UserClass::C {
            c_total += 1;
            let u = &users[iu.user_idx];
            let really_abp = r2.truth.iter().any(|t| {
                r2.addr_map.get(&t.client_addr) == Some(&u.key.ip)
                    && t.user_agent == u.key.user_agent
                    && t.plugin_name == "adblock-plus"
            });
            if really_abp {
                c_correct += 1;
            }
        }
    }
    format!(
        "{}\nPaper: A=46.8% B=15.7% C=22.2% D=15.3%; C carries 12.9% of requests\n\
         but only 6.5% of ad requests. Active threshold here: {} requests\n\
         (paper: {}). Ground truth: {}/{} type-C users really run Adblock Plus.\n",
        t.render(),
        threshold,
        ACTIVE_USER_MIN_REQUESTS,
        c_correct,
        c_total
    )
}

fn sec63(world: &World) -> String {
    let threshold = world.active_threshold();
    let r2 = world.rbn(Rbn::Two);
    let (users, downloads) = (&r2.report.user_table, &r2.report.households);
    let inferred = infer::classify_users(users, downloads, AD_RATIO_THRESHOLD_PCT, threshold);
    let strict = infer::subscription_estimates(users, &inferred, 0, 0);
    let tolerant = infer::subscription_estimates(users, &inferred, 10, 10);
    format!(
        "## §6.3 — Adblock Plus configurations\n\
         EasyPrivacy estimate (type-C users with 0 tracker hits):      {:.1}%  (baseline non-adblock: {:.1}%)\n\
         EasyPrivacy estimate (<=10 tracker hits tolerance):           {:.1}%  (baseline: {:.1}%)\n\
         Acceptable-ads opt-out (type-C users with 0 whitelist hits):  {:.1}%  (baseline: {:.1}%)\n\
         Acceptable-ads opt-out (<=10 hits tolerance):                 {:.1}%  (baseline: {:.1}%)\n\n\
         Paper: 5.1% of ABP users show zero tracker contact (13.1% at the\n\
         tolerant threshold) vs 0.1% baseline => >=85% skip EasyPrivacy.\n\
         11.8% of ABP users show no whitelisted requests vs 6.1% baseline\n\
         => at most ~20% disable acceptable ads.\n",
        strict.easyprivacy_pct,
        strict.easyprivacy_baseline_pct,
        tolerant.easyprivacy_pct,
        tolerant.easyprivacy_baseline_pct,
        strict.acceptable_optout_pct,
        strict.acceptable_optout_baseline_pct,
        tolerant.acceptable_optout_pct,
        tolerant.acceptable_optout_baseline_pct,
    )
}

fn fig5a(world: &World) -> String {
    let r1 = world.rbn(Rbn::One);
    let ts = r1.figures.time.request_series(&r1.report.meta);
    let mut out = String::from("## Figure 5a — Requests over time (1 h bins, RBN-1)\n");
    for (i, name) in ts.names().iter().enumerate() {
        let _ = writeln!(out, "{:<14} {}", name, render::sparkline(ts.values(i)));
    }
    let nonad = ts.values(timeseries::series::NON_AD);
    let peak_hour = nonad
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| (i as u32 + r1.report.meta.start_hour) % 24)
        .unwrap_or(0);
    let trough_hour = nonad
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0.0)
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| (i as u32 + r1.report.meta.start_hour) % 24)
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "non-ad peak hour (wall clock): {:02}:00, trough: {:02}:00\n\
         Paper: evening peak before midnight, night trough, lunch bump,\n\
         weekend (especially Saturday) lower than weekdays.",
        peak_hour, trough_hour
    );
    out
}

fn fig5b(world: &World) -> String {
    let r1 = world.rbn(Rbn::One);
    let shares = r1.figures.time.share_series(&r1.report.meta);
    let combined = timeseries::combined_ad_share(&shares);
    let mut out =
        String::from("## Figure 5b — % ad requests and bytes over time (EL vs EP, RBN-1)\n");
    let _ = writeln!(
        out,
        "EL req %      {}",
        render::sparkline(&shares.easylist_req_pct)
    );
    let _ = writeln!(
        out,
        "EP req %      {}",
        render::sparkline(&shares.easyprivacy_req_pct)
    );
    let _ = writeln!(
        out,
        "EL bytes %    {}",
        render::sparkline(&shares.easylist_bytes_pct)
    );
    let _ = writeln!(
        out,
        "EP bytes %    {}",
        render::sparkline(&shares.easyprivacy_bytes_pct)
    );
    if let Some((lo, hi)) = TimeSeries::swing(&shares.easylist_req_pct) {
        let _ = writeln!(
            out,
            "EasyList request share swings between {:.1}% and {:.1}%",
            lo, hi
        );
    }
    if let Some((lo, hi)) = TimeSeries::swing(&shares.easyprivacy_req_pct) {
        let _ = writeln!(
            out,
            "EasyPrivacy request share swings between {:.1}% and {:.1}%",
            lo, hi
        );
    }
    if let Some((lo, hi)) = TimeSeries::swing(&combined) {
        let _ = writeln!(
            out,
            "combined EL+EP share swings between {:.1}% and {:.1}%\n\
             Paper: each series is itself diurnal, the EasyList one ranging\n\
             roughly 6-12% instead of holding a constant rate.",
            lo, hi
        );
    }
    out
}

fn table4(world: &World) -> String {
    let r1 = world.rbn(Rbn::One);
    let rows = r1.figures.content.table(10);
    let mut t = TextTable::new(
        "Table 4 — RBN-1 ad traffic by Content-Type",
        &[
            "Content-type",
            "Ads Reqs",
            "Ads Bytes",
            "NonAd Reqs",
            "NonAd Bytes",
        ],
    );
    for r in &rows {
        t.row(&[
            r.mime.clone(),
            fmt_pct(r.ad_req_pct),
            fmt_pct(r.ad_bytes_pct),
            fmt_pct(r.nonad_req_pct),
            fmt_pct(r.nonad_bytes_pct),
        ]);
    }
    let total = &r1.figures.content.total;
    format!(
        "{}\nOverall ad share: {} of requests, {} of bytes\n\
         Paper: 17.25% of requests / 1.13% of bytes are ads; ads dominated by\n\
         image/gif + text/plain requests; ad video bytes large but rare.\n",
        t.render(),
        fmt_pct(stats::pct(total.ad_requests, total.requests)),
        fmt_pct(stats::pct(total.ad_bytes, total.bytes)),
    )
}

fn fig6(world: &World) -> String {
    let r1 = world.rbn(Rbn::One);
    let sizes::Sizes { ads, nonads } = &r1.figures.sizes;
    let mut out = String::from("## Figure 6 — Object-size distributions by MIME class\n");
    for (name, pop) in [("Ads (6a)", ads), ("Non-ads (6b)", nonads)] {
        let _ = writeln!(out, "{name}:");
        for class in sizes::MimeClass::ALL {
            let d = pop.class(class);
            let modes = d.modes(0.4);
            let modestr: Vec<String> = modes.iter().map(|m| fmt_bytes(*m as u64)).collect();
            let _ = writeln!(
                out,
                "  {:<6} n={:<8} modes at: {}",
                class.label(),
                d.total(),
                if modestr.is_empty() {
                    "-".to_string()
                } else {
                    modestr.join(", ")
                }
            );
        }
    }
    // Headline shape checks.
    let ad_img_modes = ads.class(sizes::MimeClass::Image).modes(0.4);
    let ad_vid = ads.class(sizes::MimeClass::Video);
    let nonad_vid = nonads.class(sizes::MimeClass::Video);
    let _ = writeln!(
        out,
        "\nChecks: ad-image mode <100B (tracking pixels): {};\n\
         ad videos >=1MB share: {:.0}%, non-ad videos >=1MB share: {:.0}%\n\
         Paper: ad images are tiny (43 B pixels); ad videos are un-chunked\n\
         (>1MB) while regular video is chunked smaller.",
        ad_img_modes.first().map(|&m| m < 100.0).unwrap_or(false),
        ad_vid.frac_at_least(1e6) * 100.0,
        nonad_vid.frac_at_least(1e6) * 100.0,
    );
    out
}

fn sec73(world: &World) -> String {
    let r2 = world.rbn(Rbn::Two);
    let wl = &r2.figures.whitelist;
    let shares = wl.shares();
    let pub_benefits = wl.entity_benefits(whitelist::EntityKey::Publisher, 50);
    let adtech_benefits = wl.entity_benefits(whitelist::EntityKey::AdHost, 100);
    let mut out = String::from("## §7.3 — Non-intrusive advertisements\n");
    let _ = writeln!(
        out,
        "whitelisted share of all ad requests:        {:.1}%  (paper: 9.2%)\n\
         whitelisted share of EasyList-scope ads:     {:.1}%  (paper: 15.3%)\n\
         whitelisted requests matching a blacklist:   {:.1}%  (paper: 57.3%)\n\
         of those, blacklisted (only) by EasyPrivacy: {:.1}%  (paper: 23.2%)",
        shares.of_all_ads_pct,
        shares.of_easylist_scope_pct,
        shares.overriding_block_pct,
        shares.overridden_privacy_pct,
    );
    out.push_str("\nTop publisher beneficiaries (of their blacklisted requests):\n");
    for b in pub_benefits.iter().take(5) {
        let _ = writeln!(
            out,
            "  {:<28} {:>6.1}%  ({} blacklisted reqs)",
            b.entity,
            b.benefit_pct(),
            b.blacklisted
        );
    }
    let zero: Vec<&whitelist::EntityBenefit> =
        pub_benefits.iter().filter(|b| b.whitelisted == 0).collect();
    let _ = writeln!(
        out,
        "publishers with ZERO whitelisted requests: {} of {} (paper: dominated\n\
         by adult/file-sharing, but includes popular news sites)",
        zero.len(),
        pub_benefits.len()
    );
    // Name the news outliers explicitly.
    for b in zero.iter().take(4) {
        let _ = writeln!(out, "  no-whitelist example: {}", b.entity);
    }
    out.push_str("\nTop ad-tech beneficiaries:\n");
    for b in adtech_benefits.iter().take(6) {
        let _ = writeln!(
            out,
            "  {:<34} {:>6.1}%  ({} blacklisted reqs)",
            b.entity,
            b.benefit_pct(),
            b.blacklisted
        );
    }
    // The self-platform tech publisher (94% analogue).
    let tech = &world.eco.publishers[world.eco.self_platform_publisher];
    if let Some(b) = adtech_benefits
        .iter()
        .chain(pub_benefits.iter())
        .find(|b| b.entity == tech.domain)
    {
        let _ = writeln!(
            out,
            "self-platform tech site {}: {:.1}% whitelisted (paper: 94%)",
            tech.domain,
            b.benefit_pct()
        );
    }
    out
}

fn sec81(world: &World) -> String {
    let r1 = world.rbn(Rbn::One);
    let study = &r1.figures.servers;
    let dist = study.easylist_distribution();
    let ex = study.exclusive_servers();
    let mut out = String::from("## §8.1 — Server-side ad infrastructure (RBN-1)\n");
    let _ = writeln!(
        out,
        "servers total: {}   EasyList-serving: {}   EasyPrivacy-serving: {}   both: {}",
        study.total_servers(),
        study.easylist_servers(),
        study.easyprivacy_servers(),
        study.both_lists_servers()
    );
    let _ = writeln!(
        out,
        "servers with >=1 ad object: {} ({:.1}% of all; paper: 21.1%)",
        study.servers_with_ads(),
        stats::pct(
            study.servers_with_ads() as u64,
            study.total_servers() as u64
        )
    );
    let _ = writeln!(
        out,
        "non-ad objects from ad-serving infrastructure: {:.1}% (paper: 54.3%)",
        study.nonad_share_of_ad_serving_infra()
    );
    let _ = writeln!(
        out,
        "EasyList objects per server: median={:.0} mean={:.0} p90={:.0} p95={:.0} p99={:.0}\n\
         (paper: median 7, mean 438, p90/p95/p99 = 320/1.1K/6.8K)",
        dist.median, dist.mean, dist.p90, dist.p95, dist.p99
    );
    let _ = writeln!(
        out,
        ">=90% ad servers: {} delivering {:.1}% of ads (paper: 10.1K servers, 32.7%)\n\
         >=90% tracking servers: {} delivering {:.1}% of EP objects (paper: 3.3K, 18.8%)",
        ex.ad_servers, ex.ad_object_share_pct, ex.tracking_servers, ex.tracking_object_share_pct
    );
    if let Some((ip, n)) = study.busiest_ad_server() {
        let asn = world.as_name_of(ip).unwrap_or_else(|| "?".into());
        let _ = writeln!(
            out,
            "busiest ad server: ip#{} ({}) with {} ad requests (paper: a Liverail\n\
             server with 312.3K)",
            ip,
            asn,
            fmt_count(n)
        );
    }
    out
}

fn table5(world: &World) -> String {
    let r1 = world.rbn(Rbn::One);
    let (rows, coverage) = ases::as_table(&r1.figures.servers, |ip| world.as_name_of(ip), 10);
    let mut t = TextTable::new(
        "Table 5 — RBN-1 ad traffic by AS (top 10)",
        &[
            "AS",
            "%ads Reqs",
            "%ads Bytes",
            "per-AS Reqs",
            "per-AS Bytes",
        ],
    );
    for r in &rows {
        t.row(&[
            r.name.clone(),
            fmt_pct(r.ads_req_pct),
            fmt_pct(r.ads_bytes_pct),
            fmt_pct(r.per_as_req_pct),
            fmt_pct(r.per_as_bytes_pct),
        ]);
    }
    let giant_leads = rows
        .first()
        .map(|r| r.name.contains("Giggle"))
        .unwrap_or(false);
    let adtech_high_ratio = rows
        .iter()
        .filter(|r| r.name.contains("Criterion") || r.name.contains("AppNexoid"))
        .all(|r| r.per_as_req_pct > 25.0);
    format!(
        "{}\ntop-10 AS coverage of ad objects: {:.1}% (paper: 56.8%)\n\
         search giant leads: {}; ad-tech ASes show the highest per-AS ad\n\
         ratios: {} (paper: Google 21%/33.9%; Criteo 78.1%/88.2% per-AS)\n",
        t.render(),
        coverage,
        giant_leads,
        adtech_high_ratio
    )
}

fn fig7(world: &World) -> String {
    let r2 = world.rbn(Rbn::Two);
    let rtb::Handshakes { ads, rest, .. } = &r2.figures.rtb;
    let orgs = r2.figures.rtb.organizations(6);
    let mut out =
        String::from("## Figure 7 — HTTP−TCP handshake difference density: ads vs rest\n");
    let ad_modes = ads.density.modes(0.25);
    let rest_modes = rest.density.modes(0.25);
    let fmt_modes = |m: &[f64]| -> String {
        m.iter()
            .map(|x| format!("{:.1}ms", x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(out, "ad-request modes:  {}", fmt_modes(&ad_modes));
    let _ = writeln!(out, "rest modes:        {}", fmt_modes(&rest_modes));
    let _ = writeln!(
        out,
        "share with gap >=100ms: ads {:.1}% vs rest {:.1}%",
        ads.high_latency_pct(),
        rest.high_latency_pct()
    );
    out.push_str("organizations behind >=90ms ad responses:\n");
    for (org, pct) in &orgs {
        let _ = writeln!(out, "  {:<34} {:>5.1}%", org, pct);
    }
    out.push_str(
        "\nPaper: modes at ~1ms, ~10ms and ~120ms; ads strongly overrepresented\n\
         beyond 100ms; DoubleClick contributes 14.5% of the >=90ms ads, with\n\
         Mopub/Rubicon/Pubmatic/Criteo ~5% each.\n",
    );
    out
}

fn sensitivity(world: &World) -> String {
    // Section 4.3: "Using a slightly higher or lower threshold does not
    // alter the results significantly." Sweep the ratio threshold and
    // report the class shares plus the ground-truth precision of type C.
    let activity = world.active_threshold();
    let r2 = world.rbn(Rbn::Two);
    let (users, downloads) = (&r2.report.user_table, &r2.report.households);
    let mut out = String::from(
        "## Threshold sensitivity - the 5% ratio cut of Sections 4.3/6.2\n\
         threshold   A%     B%     C%     D%   C-precision\n",
    );
    for threshold in [1.0, 2.0, 3.0, 5.0, 7.0, 10.0] {
        let inferred = infer::classify_users(users, downloads, threshold, activity);
        let share = |class: UserClass| {
            stats::pct(
                inferred.iter().filter(|u| u.class == class).count() as u64,
                inferred.len() as u64,
            )
        };
        let mut c_total = 0u64;
        let mut c_real = 0u64;
        for iu in &inferred {
            if iu.class != UserClass::C {
                continue;
            }
            c_total += 1;
            let u = &users[iu.user_idx];
            if r2.truth.iter().any(|t| {
                t.plugin_name == "adblock-plus"
                    && r2.addr_map.get(&t.client_addr) == Some(&u.key.ip)
                    && t.user_agent == u.key.user_agent
            }) {
                c_real += 1;
            }
        }
        let _ = writeln!(
            out,
            "  {:>4.0}%   {:>5.1}  {:>5.1}  {:>5.1}  {:>5.1}   {:>6.1}%",
            threshold,
            share(UserClass::A),
            share(UserClass::B),
            share(UserClass::C),
            share(UserClass::D),
            stats::pct(c_real, c_total),
        );
    }
    out.push_str(
        "\nPaper: results are stable around the 5% threshold. The sweep shows\n\
         the class shares move slowly between 3% and 10% while type-C\n\
         precision stays high - the indicator is threshold-robust.\n",
    );
    out
}

fn robustness(world: &World) -> String {
    // Beyond the paper: how stable are the headline numbers when the input
    // trace degrades the way real captures do (drops, truncation, garbling,
    // header loss, clock skew)? Sweep a uniform fault rate through both the
    // in-memory fault model and the NDJSON wire level, recover with the
    // lossy reader, and re-run the full pipeline each time. Nothing is held
    // but one serialized trace: every rate generates the clean capture anew,
    // a slice at a time through the in-memory faults into its wire form, and
    // the stream engine reads that through the wire faults (`WireFaults`).
    use netsim::faults::{FaultInjector, FaultProfile};
    use netsim::stream::{ChunkReader, TraceWriter};

    let (households, hours) = match world.scale {
        Scale::Small => (40, 3.0),
        Scale::Medium | Scale::Large => (120, 6.0),
    };
    let config = DriveConfig::rbn2(hours);
    let meta = config.meta(households);
    // A fixed activity cut for this shorter trace keeps class shares
    // comparable across fault rates.
    let activity = 100u64;
    let opts = StreamOptions {
        threads: world.threads,
        abp_ips: world.eco.abp_ips.clone(),
        ..StreamOptions::default()
    };

    let mut out = String::from(
        "## Robustness — headline metrics under injected trace corruption\n\
         Faults are applied twice per rate: in memory (header drops, length\n\
         zeroing, timestamp skew) and on the NDJSON wire (record drop/\n\
         truncate/garble/duplicate), then the lossy reader recovers what it\n\
         can and the full pipeline re-runs.\n\n\
         rate    records    ad%      EL       EP      A%    B%    C%    D%   skipped  degraded\n",
    );
    const IN_MEMORY: &str = "writing to and streaming from memory cannot fail";
    let mut bytes = Vec::new();
    let mut baseline_ad_pct = 0.0f64;
    let mut worst_drift = 0.0f64;
    let mut last_detail = String::new();
    for &rate in &[0.0, 0.005, 0.01, 0.02, 0.05, 0.10] {
        let mut injector =
            FaultInjector::new(FaultProfile::uniform(rate), 0xFA17 ^ (rate * 1e4) as u64);
        let mut pop = Population::generate(
            &world.eco,
            &PopulationConfig {
                households,
                seed: 0xFA17,
                ..Default::default()
            },
        );
        bytes.clear();
        let mut writer = TraceWriter::new(&mut bytes, &meta).expect(IN_MEMORY);
        drive_stream(
            &world.eco,
            &mut pop,
            &ActivityProfile::default(),
            &config,
            |records| {
                let slice = Trace {
                    meta: meta.clone(),
                    records,
                };
                for r in &injector.corrupt_trace(&slice).records {
                    writer.write_record(r).expect(IN_MEMORY);
                }
            },
        );
        writer.finish().expect(IN_MEMORY);
        let wire = WireFaults {
            injector: &mut injector,
            lines: bytes.split(|&b| b == b'\n').enumerate(),
            line: Vec::new(),
            at: 0,
        };
        let reader =
            ChunkReader::new(wire, opts.chunk_records).expect("lossy reader absorbs corruption");
        let meta = reader.meta().clone();
        let (report, figures) = adscope::classify_stream_chunks(
            reader,
            meta,
            &world.classifier,
            &opts,
            obs::global(),
            Figures::new(),
        )
        .expect(IN_MEMORY);
        let ad_pct = stats::pct(report.ad_requests, report.requests);
        let (el, ep) = list_hits(&figures.servers);
        let (users, downloads) = (&report.user_table, &report.households);
        let inferred = infer::classify_users(users, downloads, AD_RATIO_THRESHOLD_PCT, activity);
        let share = |class: UserClass| {
            stats::pct(
                inferred.iter().filter(|u| u.class == class).count() as u64,
                inferred.len() as u64,
            )
        };
        if rate == 0.0 {
            baseline_ad_pct = ad_pct;
        } else {
            worst_drift = worst_drift.max((ad_pct - baseline_ad_pct).abs());
        }
        let _ = writeln!(
            out,
            " {:>4.1}%  {:>8}  {:>5.1}%  {:>7}  {:>7}  {:>4.1}  {:>4.1}  {:>4.1}  {:>4.1}  {:>7}  {:>8}",
            rate * 100.0,
            fmt_count(report.requests),
            ad_pct,
            fmt_count(el),
            fmt_count(ep),
            share(UserClass::A),
            share(UserClass::B),
            share(UserClass::C),
            share(UserClass::D),
            fmt_count(report.codec.total_skipped() as u64),
            fmt_count(report.degradation.total() as u64),
        );
        last_detail = format!(
            "at {:.1}% faults: injected [{}]\n\
             codec: {}\n\
             pipeline: {}\n",
            rate * 100.0,
            injector.counts(),
            report.codec,
            report.degradation
        );
    }
    let _ = writeln!(
        out,
        "\nworst ad-ratio drift vs clean baseline: {:.2} percentage points\n\
         ({:.1}% clean). Detail of the heaviest sweep point:\n{}",
        worst_drift, baseline_ad_pct, last_detail
    );
    out.push_str(
        "The methodology degrades gracefully: every record the lossy reader\n\
         salvages is classified, losses are accounted (never panics), and the\n\
         headline ratios move far less than the injected fault rate.\n",
    );
    out
}

/// A serialized trace read through an injector's wire faults: what
/// `corrupt_bytes` returns, a line at a time and never held whole.
struct WireFaults<'a, L> {
    injector: &'a mut netsim::faults::FaultInjector,
    lines: L,
    line: Vec<u8>,
    at: usize,
}

impl<'a, L: Iterator<Item = (usize, &'a [u8])>> std::io::Read for WireFaults<'_, L> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        while self.at == self.line.len() {
            let Some((i, line)) = self.lines.next() else {
                return Ok(0);
            };
            self.line.clear();
            self.at = 0;
            self.injector.corrupt_line(i, line, &mut self.line);
        }
        let n = (&self.line[self.at..]).read(buf)?;
        self.at += n;
        Ok(n)
    }
}

fn validation(world: &World) -> String {
    // Beyond the paper: with generator ground truth we can compute the
    // passive classifier's precision/recall directly.
    let r2 = world.rbn(Rbn::Two);
    let [[tn, fp], [fn_, tp]] = r2.confusion;
    let precision = stats::pct(tp, tp + fp);
    let recall = stats::pct(tp, tp + fn_);
    // The passive observer's structural blind spots, from simulation ground
    // truth: requests blocked in-browser (never on the wire) and embedded
    // text ads (transferred inside HTML, hidden at render time — §10).
    let blocked: u64 = r2.ground.iter().map(|g| g.blocked).sum();
    let hidden_text: u64 = r2.ground.iter().map(|g| g.hidden_text_ads).sum();
    let issued: u64 = r2.ground.iter().map(|g| g.issued).sum();
    format!(
        "## Validation — passive classifier vs generator ground truth (RBN-2)\n\
         TP={} FP={} FN={} TN={}\n\
         precision: {:.2}%   recall: {:.2}%\n\
         in-browser blocked requests (never captured): {} ({:.1}% of issued)\n\
         embedded text ads hidden via element hiding:  {} (invisible to the\n\
         passive methodology by construction, as §10 states)\n\n\
         The paper can only validate indirectly (Table 1 false positives);\n\
         the synthetic substrate exposes the oracle. Recall <100% reflects\n\
         exactly the blind spots §10 discusses (header-only reconstruction);\n\
         precision <100% reflects mislabeled Content-Types (§4.2).\n",
        fmt_count(tp),
        fmt_count(fp),
        fmt_count(fn_),
        fmt_count(tn),
        precision,
        recall,
        fmt_count(blocked),
        stats::pct(blocked, issued + blocked),
        fmt_count(hidden_text),
    )
}

/// Beyond the paper: the observability exposition. Runs the standard
/// world under the global `obs` registry (webgen + the ABP engine were
/// exercised at world construction; RBN-2 covers the stream engine; a
/// four-household drive covers browsersim, and its codec round-trip the
/// netsim reader and writer), prints the stage table `/profile` serves
/// (one row per span histogram) and the counter tables, and writes
/// `metrics.prom` + `events.ndjson` under `target/experiments/`.
fn metrics(world: &World) -> String {
    let mut pop = Population::generate(
        &world.eco,
        &PopulationConfig {
            households: 4,
            seed: 0xC0DEC,
            ..Default::default()
        },
    );
    let DriveOutput { trace, .. } = drive(
        &world.eco,
        &mut pop,
        &ActivityProfile::default(),
        &DriveConfig::rbn2(0.25),
    );
    let mut encoded = Vec::new();
    netsim::codec::write_trace(&trace, &mut encoded).expect("in-memory trace write");
    let (reread, stats) =
        netsim::codec::read_trace_lossy(&encoded[..]).expect("round-trip trace read");
    assert_eq!(
        stats.total_skipped(),
        0,
        "codec round-trip must skip nothing"
    );
    assert_eq!(
        reread.records.len(),
        trace.records.len(),
        "codec round-trip must preserve record count"
    );

    let registry = obs::global();

    // Alert plane: run the built-in rule pack over the RBN-2 windows and
    // publish before the snapshot, so the `obs_alerts_*` samples land in
    // the tables and the exposition artifact alike.
    let alert_engine = adscope::alerts::evaluate(
        &world.rbn(Rbn::Two).report.windows,
        adscope::alerts::rule_pack(),
    );
    alert_engine.publish(registry);

    let snap = registry.snapshot();

    let mut counters = TextTable::new("Counters", &["Counter", "Value"]);
    for (key, value) in &snap.samples {
        let SampleValue::Counter(v) = value else {
            continue;
        };
        let mut label = key.name.clone();
        if !key.labels.is_empty() {
            label.push('{');
            for (i, (lk, lv)) in key.labels.iter().enumerate() {
                if i > 0 {
                    label.push(',');
                }
                let _ = write!(label, "{lk}={lv}");
            }
            label.push('}');
        }
        counters.row(&[label, fmt_count(*v)]);
    }

    // The classifier's compiled-engine layout, from its compile stats.
    let mut engine_tbl = TextTable::new("Filter engine", &["Stat", "Value"]);
    if let Some(compiled) = world.classifier.compiled() {
        let s = compiled.stats();
        engine_tbl.row(&["rules".to_string(), fmt_count(s.rules as u64)]);
        engine_tbl.row(&["token buckets".to_string(), fmt_count(s.buckets as u64)]);
        engine_tbl.row(&[
            "arena".to_string(),
            format!("{:.1} KiB", s.arena_bytes as f64 / 1024.0),
        ]);
    }

    // Per-rule alert lifecycle over the same trace the stage tables
    // describe: a steady RBN-2 replay should leave every rule idle.
    let mut alerts_tbl = TextTable::new(
        "Alerts (built-in rule pack)",
        &["Rule", "Series", "Detector", "Severity", "Phase", "Events"],
    );
    let phases = alert_engine.phases();
    for (i, rule) in alert_engine.rules().iter().enumerate() {
        let events = alert_engine.events().iter().filter(|e| e.rule == i).count();
        alerts_tbl.row(&[
            rule.name.clone(),
            rule.series.render(),
            rule.detector.render(),
            rule.severity.as_str().to_string(),
            phases[i].as_str().to_string(),
            fmt_count(events as u64),
        ]);
    }

    // Process-level gauges, refreshed at render time so the table and
    // the exposition artifact agree on the same reading.
    obs::record_process(registry);
    let mut process = TextTable::new("Process", &["Gauge", "Value"]);
    process.row(&[
        "process_peak_rss_bytes".to_string(),
        match obs::peak_rss_bytes() {
            Some(b) => format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)),
            None => "n/a (no /proc)".to_string(),
        },
    ]);
    process.row(&[
        "process_start_time_seconds".to_string(),
        match obs::start_time_seconds() {
            Some(s) => format!("{s} (unix)"),
            None => "n/a (no /proc)".to_string(),
        },
    ]);
    process.row(&[
        "process_open_fds".to_string(),
        match obs::open_fds() {
            Some(n) => n.to_string(),
            None => "n/a (no /proc)".to_string(),
        },
    ]);

    // The two sink artifacts, validated before they are written: the
    // exposition by obs's own parser, the event log line-by-line with
    // netsim's strict JSON parser (the escaping-compatibility contract).
    let prom = registry.render_prometheus();
    let samples =
        obs::validate_exposition(&prom).expect("Prometheus exposition must be well-formed");
    let ndjson = registry.events_ndjson();
    let events =
        crate::manifest::check_ndjson(&ndjson).expect("every NDJSON event line must parse as JSON");
    let dir = crate::manifest::out_dir();
    crate::manifest::write_artifact(&dir.join("metrics.prom"), &prom);
    crate::manifest::write_artifact(&dir.join("events.ndjson"), &ndjson);

    format!(
        "## Metrics — per-stage observability exposition\n\
         ## Stages (wall time, span histograms)\n{}\n{}\n{}\n{}\n{}\n\
         exposition: VALID ({samples} samples) -> {dir}/metrics.prom\n\
         event log:  VALID ({events} events)   -> {dir}/events.ndjson\n",
        obs::span::render_stages(&snap),
        counters.render(),
        engine_tbl.render(),
        alerts_tbl.render(),
        process.render(),
        dir = dir.display(),
    )
}
