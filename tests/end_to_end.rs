//! End-to-end integration: ecosystem → population → capture → passive
//! pipeline → inference, asserting the paper-shaped invariants.

use annoyed_users::prelude::*;
use browsersim::drive::drive;

fn small_world() -> (Ecosystem, Population) {
    let eco = Ecosystem::generate(EcosystemConfig {
        publishers: 100,
        ad_companies: 12,
        trackers: 14,
        cdn_edges: 10,
        hosting_servers: 16,
        seed: 0xE2E,
        ..Default::default()
    });
    let pop = Population::generate(
        &eco,
        &PopulationConfig {
            households: 60,
            seed: 0xE2F,
            ..Default::default()
        },
    );
    (eco, pop)
}

fn classify(eco: &Ecosystem, trace: &Trace) -> ClassifiedTrace {
    let classifier = PassiveClassifier::new(vec![
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ]);
    adscope::pipeline::classify_trace(trace, &classifier, PipelineOptions::default())
}

fn evening_drive(
    eco: &Ecosystem,
    pop: &mut Population,
    seed: u64,
) -> browsersim::drive::DriveOutput {
    drive(
        eco,
        pop,
        &ActivityProfile::default(),
        &DriveConfig {
            name: "e2e".into(),
            duration_secs: 4.0 * 3600.0,
            start_hour: 18,
            start_weekday: 2,
            slice_secs: 600.0,
            seed,
        },
    )
}

#[test]
fn ad_share_lands_in_paper_band() {
    let (eco, mut pop) = small_world();
    let out = evening_drive(&eco, &mut pop, 1);
    let classified = classify(&eco, &out.trace);
    assert!(classified.requests.len() > 10_000, "enough traffic");
    let share = classified.ad_request_count() as f64 / classified.requests.len() as f64;
    // Paper: 17-19% of requests. We accept a generous band around it.
    assert!(
        (0.10..0.35).contains(&share),
        "ad request share {share:.3} out of band"
    );
    // Bytes: ads are a tiny share (paper: ~1%).
    let ad_bytes: u64 = classified
        .requests
        .iter()
        .filter(|r| r.label.is_ad())
        .map(|r| r.bytes)
        .sum();
    let total: u64 = classified.requests.iter().map(|r| r.bytes).sum();
    let byte_share = ad_bytes as f64 / total as f64;
    assert!(byte_share < 0.12, "ad byte share {byte_share:.3} too high");
}

#[test]
fn abp_users_have_lower_easylist_ratio() {
    let (eco, mut pop) = small_world();
    let out = evening_drive(&eco, &mut pop, 2);
    let classified = classify(&eco, &out.trace);
    let users = adscope::users::aggregate_users(&classified);
    // Join ground truth through the address map.
    let mut abp_ratios = Vec::new();
    let mut plain_ratios = Vec::new();
    for u in &users {
        if !u.is_browser() || u.counters.requests < 300 {
            continue;
        }
        let truth = pop.truth.iter().find(|t| {
            out.addr_map.get(&t.client_addr) == Some(&u.key.ip) && t.user_agent == u.key.user_agent
        });
        match truth.map(|t| t.plugin_name.as_str()) {
            Some("adblock-plus") => abp_ratios.push(u.easylist_ratio_pct()),
            Some("none") => plain_ratios.push(u.easylist_ratio_pct()),
            _ => {}
        }
    }
    assert!(
        abp_ratios.len() >= 3,
        "need active ABP users ({})",
        abp_ratios.len()
    );
    assert!(plain_ratios.len() >= 10);
    let abp_med = stats::percentile(&abp_ratios, 50.0);
    let plain_med = stats::percentile(&plain_ratios, 50.0);
    assert!(
        abp_med < 5.0 && plain_med > 5.0,
        "ABP median {abp_med:.2}% vs plain {plain_med:.2}%"
    );
}

#[test]
fn download_indicator_matches_ground_truth_households() {
    let (eco, mut pop) = small_world();
    // Long enough that every ABP browser phones home at least once.
    let out = drive(
        &eco,
        &mut pop,
        &ActivityProfile::default(),
        &DriveConfig {
            name: "e2e-long".into(),
            duration_secs: 30.0 * 3600.0,
            start_hour: 12,
            start_weekday: 0,
            slice_secs: 900.0,
            seed: 3,
        },
    );
    let classified = classify(&eco, &out.trace);
    let observed = adscope::infer::households_with_downloads(&classified.https_flows, &eco.abp_ips);
    // Every household with an ABP browser that was active should be seen.
    let mut abp_households_seen = 0;
    let mut abp_households = 0;
    for (truth, ground) in pop.truth.iter().zip(&out.ground_truth) {
        if truth.plugin_name == "adblock-plus" && ground.issued > 0 {
            abp_households += 1;
            if let Some(anon) = out.addr_map.get(&truth.client_addr) {
                if observed.contains(anon) {
                    abp_households_seen += 1;
                }
            }
        }
    }
    assert!(abp_households > 0);
    let frac = abp_households_seen as f64 / abp_households as f64;
    assert!(
        frac > 0.9,
        "only {frac:.2} of active ABP households visible"
    );
    // And no household without any blocker-plugin browser shows downloads.
    for (truth, _) in pop.truth.iter().zip(&out.ground_truth) {
        if truth.plugin_name == "none" {
            // A vanilla browser's own traffic never reaches ABP servers;
            // its *household* may still show downloads via a sibling.
            continue;
        }
    }
}

#[test]
fn type_c_users_are_real_abp_users() {
    let (eco, mut pop) = small_world();
    let out = drive(
        &eco,
        &mut pop,
        &ActivityProfile::default(),
        &DriveConfig {
            name: "e2e-c".into(),
            duration_secs: 12.0 * 3600.0,
            start_hour: 14,
            start_weekday: 1,
            slice_secs: 600.0,
            seed: 4,
        },
    );
    let classified = classify(&eco, &out.trace);
    let users = adscope::users::aggregate_users(&classified);
    let downloads =
        adscope::infer::households_with_downloads(&classified.https_flows, &eco.abp_ips);
    let inferred = adscope::infer::classify_users(&users, &downloads, 5.0, 400);
    let mut c_total = 0;
    let mut c_real = 0;
    for iu in &inferred {
        if iu.class != adscope::infer::UserClass::C {
            continue;
        }
        c_total += 1;
        let u = &users[iu.user_idx];
        let is_abp = pop.truth.iter().any(|t| {
            t.plugin_name == "adblock-plus"
                && out.addr_map.get(&t.client_addr) == Some(&u.key.ip)
                && t.user_agent == u.key.user_agent
        });
        if is_abp {
            c_real += 1;
        }
    }
    assert!(c_total >= 3, "need type-C users, got {c_total}");
    let precision = c_real as f64 / c_total as f64;
    assert!(precision >= 0.8, "type-C precision {precision:.2}");
}

#[test]
fn attribution_split_matches_paper_ordering() {
    // §7.1: EasyList attribution > EasyPrivacy attribution > non-intrusive.
    let (eco, mut pop) = small_world();
    let out = evening_drive(&eco, &mut pop, 5);
    let classified = classify(&eco, &out.trace);
    let mut el = 0u64;
    let mut ep = 0u64;
    let mut ni = 0u64;
    for r in &classified.requests {
        match r.label.attribution() {
            Some(Attribution::EasyList) => el += 1,
            Some(Attribution::EasyPrivacy) => ep += 1,
            Some(Attribution::NonIntrusive) => ni += 1,
            None => {}
        }
    }
    assert!(el > ep, "EasyList {el} vs EasyPrivacy {ep}");
    assert!(ep > ni, "EasyPrivacy {ep} vs non-intrusive {ni}");
}

#[test]
fn trace_roundtrip_preserves_classification() {
    let (eco, mut pop) = small_world();
    let out = drive(
        &eco,
        &mut pop,
        &ActivityProfile::default(),
        &DriveConfig {
            name: "e2e-rt".into(),
            duration_secs: 1800.0,
            start_hour: 20,
            start_weekday: 4,
            slice_secs: 600.0,
            seed: 6,
        },
    );
    let mut buf = Vec::new();
    netsim::codec::write_trace(&out.trace, &mut buf).expect("write");
    let back = netsim::codec::read_trace(buf.as_slice()).expect("read");
    assert_eq!(back, out.trace);
    let a = classify(&eco, &out.trace);
    let b = classify(&eco, &back);
    assert_eq!(a.requests.len(), b.requests.len());
    assert_eq!(a.ad_request_count(), b.ad_request_count());
}
