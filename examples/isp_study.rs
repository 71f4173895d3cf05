//! The full ISP passive-measurement study in miniature: simulate a
//! residential broadband population, capture an anonymized header trace,
//! run the paper's methodology, and print the §6 inference results with
//! ground-truth verification (which the paper could never do).
//!
//! ```sh
//! cargo run --release --example isp_study -- [households] [hours]
//! ```

use annoyed_users::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let households: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(150);
    let hours: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8.0);

    let eco = Ecosystem::generate(EcosystemConfig {
        publishers: 250,
        seed: 0x157,
        ..Default::default()
    });
    let mut population = Population::generate(
        &eco,
        &PopulationConfig {
            households,
            seed: 0x90b,
            ..Default::default()
        },
    );
    let truth_abp: Vec<bool> = population
        .truth
        .iter()
        .map(|t| t.plugin_name == "adblock-plus")
        .collect();
    println!(
        "simulating {households} households / {} browsers ({} with Adblock Plus) for {hours} h...",
        population.browsers.len(),
        truth_abp.iter().filter(|&&b| b).count()
    );
    let out = browsersim::drive::drive(
        &eco,
        &mut population,
        &ActivityProfile::default(),
        &DriveConfig {
            name: "isp-study".into(),
            duration_secs: hours * 3600.0,
            start_hour: 15,
            start_weekday: 1,
            slice_secs: 600.0,
            seed: 0xd01,
        },
    );
    println!(
        "captured {} HTTP transactions + {} HTTPS flows",
        out.trace.http_count(),
        out.trace.https_count()
    );

    let classifier = PassiveClassifier::new(vec![
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ]);
    let classified =
        adscope::pipeline::classify_trace(&out.trace, &classifier, PipelineOptions::default());
    let users = adscope::users::aggregate_users(&classified);
    let summary = adscope::users::annotation_summary(&users, 500);
    println!(
        "\n{} (IP, UA) pairs; {} browsers; {} active (>=500 requests); \
         ad share {:.1}%",
        users.len(),
        summary.browsers,
        summary.active,
        stats::pct(
            classified.ad_request_count() as u64,
            classified.requests.len() as u64
        )
    );

    let downloads =
        adscope::infer::households_with_downloads(&classified.https_flows, &eco.abp_ips);
    let inferred = adscope::infer::classify_users(&users, &downloads, 5.0, 500);
    let (requests, ads) = (
        classified.requests.len() as u64,
        classified.ad_request_count() as u64,
    );
    println!("\nTable-3-style classification of active browsers:");
    println!("  type  instances  %reqs  %ad-reqs");
    for row in adscope::infer::table3(&users, &inferred) {
        println!(
            "  {:>4}  {:>9}  {:>5.1}  {:>8.1}",
            row.class.label(),
            row.instances,
            stats::pct(row.requests, requests),
            stats::pct(row.ad_requests, ads)
        );
    }

    // Ground truth: how many type-C verdicts are real ABP users? The join
    // goes through the capture's raw->anonymized address mapping, which is
    // only available to the simulation side.
    let mut correct = 0;
    let mut total = 0;
    for iu in &inferred {
        if iu.class != adscope::infer::UserClass::C {
            continue;
        }
        total += 1;
        let u = &users[iu.user_idx];
        let is_abp = population.truth.iter().zip(&truth_abp).any(|(t, &abp)| {
            abp && out.addr_map.get(&t.client_addr) == Some(&u.key.ip)
                && t.user_agent == u.key.user_agent
        });
        if is_abp {
            correct += 1;
        }
    }
    println!("\nground truth: {correct}/{total} type-C verdicts are real Adblock Plus users");
}
