//! Real-time-bidding detection from passive timing (§8.2 / Figure 7):
//! isolate the server-side delay as `HTTP handshake − TCP handshake` and
//! show that ad requests carry the distinctive ~100 ms auction hold that
//! ordinary content does not.
//!
//! ```sh
//! cargo run --release --example rtb_detection
//! ```

use adscope::characterize::Figures;
use adscope::{classify_stream_chunks, StreamOptions};
use annoyed_users::prelude::*;
use browsersim::drive::drive_pull;
use netsim::stream::SliceChunks;

fn main() {
    let eco = Ecosystem::generate(EcosystemConfig {
        publishers: 200,
        seed: 0x47b,
        ..Default::default()
    });
    let mut population = Population::generate(
        &eco,
        &PopulationConfig {
            households: 100,
            seed: 2,
            ..Default::default()
        },
    );
    let config = DriveConfig {
        name: "rtb".into(),
        duration_secs: 4.0 * 3600.0,
        start_hour: 19,
        start_weekday: 3,
        slice_secs: 600.0,
        seed: 3,
    };
    let classifier = PassiveClassifier::new(vec![
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ]);
    // The stream engine folds the figures as the generator drains its slices.
    let meta = config.meta(population.households);
    let (opts, registry) = (StreamOptions::default(), obs::Registry::new());
    let profile = ActivityProfile::default();
    let (_, classified) = drive_pull(&eco, &mut population, &profile, &config, |slices| {
        let chunks = SliceChunks(slices);
        classify_stream_chunks(chunks, meta, &classifier, &opts, &registry, Figures::new())
    });
    let (_, figures) = classified.expect("no checkpoint, so nothing to refuse");
    let rtb = figures.rtb;
    println!("density of HTTP−TCP handshake difference (log ms axis):\n");
    println!(
        "ads:  modes at {:?} ms",
        round_all(&rtb.ads.density.modes(0.25))
    );
    println!(
        "rest: modes at {:?} ms",
        round_all(&rtb.rest.density.modes(0.25))
    );

    let (ads_high, rest_high) = (rtb.ads.high_latency_pct(), rtb.rest.high_latency_pct());
    println!(
        "\nshare of requests with >=100 ms server-side delay: ads {ads_high:.1}% vs rest {rest_high:.1}%"
    );

    println!("\norganizations behind the slow (>=90 ms) ad responses:");
    for (org, pct) in rtb.organizations(8) {
        println!("  {org:<36} {pct:>5.1}%");
    }
    println!(
        "\nThe paper finds modes at ~1/10/120 ms with ad-tech RTB exchanges\n\
         (DoubleClick, Mopub, Rubicon, Pubmatic, Criteo) behind the slow tail."
    );
}

fn round_all(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 10.0).round() / 10.0).collect()
}
