//! Filter-engine playground: parse EasyList-syntax rules and classify URLs
//! interactively from the command line.
//!
//! ```sh
//! cargo run --example filter_playground -- 'http://ads.tracker.example/pixel/p.gif'
//! ```
//!
//! Without arguments it runs a demonstration over a hand-written list,
//! showing blocking, whitelisting, `$document` page whitelisting, type
//! options, and element hiding. Requests are classified by
//! `CompiledEngine`, the matcher every production path runs (the reference
//! `abp_filter::Engine` is the oracle the differential suites hold it to);
//! element hiding is resolved by `hiding::selectors_for`.

use annoyed_users::abp_filter::hiding::selectors_for;
use annoyed_users::abp_filter::ClassifyScratch;
use annoyed_users::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Hand-written rules demonstrating the full syntax surface.
    let easylist = FilterList::parse(
        "easylist",
        "! Demonstration list (EasyList syntax)\n\
         ||adserver.example^$third-party\n\
         /banners/*.gif\n\
         |http://exact.example/ad.js|\n\
         ||media.example^$media,domain=~whitelisted-site.example\n\
         &ad_box_\n\
         @@||adserver.example/required-assets/\n\
         example.com##.ad-sidebar\n\
         ##.generic-ad\n",
    );
    let acceptable = FilterList::parse(
        "acceptable-ads",
        "@@||nice-ads.example^\n@@||partner-cdn.example^$document\n",
    );
    let names = [easylist.name.clone(), acceptable.name.clone()];
    let hiding: Vec<_> = [&easylist, &acceptable]
        .into_iter()
        .flat_map(|l| l.hiding.clone())
        .collect();
    let engine = CompiledEngine::from_lists(vec![easylist, acceptable]);
    println!(
        "engine: {} network filters loaded into lists {names:?}",
        engine.stats().rules
    );
    let mut scratch = ClassifyScratch::new();

    let page = Url::parse("http://news.site.example/article").unwrap();
    let demos = if args.is_empty() {
        vec![
            (
                "http://adserver.example/serve?slot=1",
                ContentCategory::Script,
            ),
            (
                "http://cdn.site.example/banners/top.gif",
                ContentCategory::Image,
            ),
            ("http://exact.example/ad.js", ContentCategory::Script),
            ("http://media.example/spot.mp4", ContentCategory::Media),
            (
                "http://site.example/page?&ad_box_=1",
                ContentCategory::Document,
            ),
            (
                "http://adserver.example/required-assets/f.css",
                ContentCategory::Stylesheet,
            ),
            ("http://nice-ads.example/banner.gif", ContentCategory::Image),
            ("http://plain.example/logo.png", ContentCategory::Image),
        ]
        .into_iter()
        .map(|(u, c)| (u.to_string(), c))
        .collect()
    } else {
        args.into_iter()
            .map(|u| (u, ContentCategory::Other))
            .collect::<Vec<_>>()
    };

    println!("\npage context: {page}\n");
    for (url_str, category) in demos {
        match Url::parse(&url_str) {
            Ok(url) => {
                let req = Request {
                    url: &url,
                    source_url: Some(&page),
                    category,
                };
                let verdict = engine.classify(&req, &mut scratch);
                let outcome = if verdict.would_block() {
                    "BLOCKED"
                } else if verdict.exception.is_some() {
                    "WHITELISTED"
                } else {
                    "allowed"
                };
                print!("{outcome:<12} {url_str}");
                if let Some(hit) = verdict.blocking.first() {
                    print!("   [rule: {}]", hit.filter);
                }
                if let Some(exc) = &verdict.exception {
                    print!("   [exception: {}]", exc.filter);
                }
                println!();
            }
            Err(e) => println!("unparseable  {url_str}: {e}"),
        }
    }

    println!(
        "\nelement hiding on example.com: {:?}",
        selectors_for(&hiding, "example.com")
    );
    println!(
        "element hiding elsewhere:      {:?}",
        selectors_for(&hiding, "other.org")
    );
}
