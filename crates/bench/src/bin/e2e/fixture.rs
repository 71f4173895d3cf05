//! The benchmark's inputs, generated from `--seed` into a work directory.
//! The system under test only ever sees the files written here: two trace
//! files (clean and fault-injected), five filter-list texts, and the
//! Adblock Plus server addresses.

use abp_filter::FilterList;
use browsersim::{drive_stream, ActivityProfile, DriveConfig, Population, PopulationConfig};
use netsim::codec::write_trace;
use netsim::faults::{FaultInjector, FaultProfile};
use netsim::record::{Trace, TraceMeta};
use netsim::stream::TraceWriter;
use std::fs::{self, File};
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use webgen::filterlists::names;
use webgen::{easylist_scale, Ecosystem, EcosystemConfig, ScaleConfig};

/// Every size the fixture depends on. Echoed in the output of each run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `Scale::Small` ecosystem knobs of the `experiments` binary.
    pub publishers: usize,
    pub ad_companies: usize,
    pub trackers: usize,
    /// DSL lines simulated.
    pub households: usize,
    /// Hours of RBN-2-shaped traffic (`DriveConfig::rbn2`). Households
    /// times hours is capped by the contract's time cap at about 26 K
    /// records (an EasyList-scale rep costs 0.13 ms per record, and a run
    /// has about 45 s for set-up, reference, warm-up and ten or so timed
    /// reps). Spent on many households for a short time, not few for long:
    /// activity per user is heavy-tailed, and the contract refuses a
    /// benchmark whose metrics spread over ten seeds by more than their
    /// bound. At 10 households x 6 h the two shards of `easylist_w2` split
    /// so unevenly from seed to seed that its wall time spread by 27 %.
    pub hours: f64,
    /// Rules in the EasyList-scale list.
    pub scale_rules: usize,
    /// `FaultProfile::uniform` rate of the dirty copy.
    pub fault_rate: f64,
}

/// The comparable fixture: about 26 K records from about 470 users, in 13
/// chunks and 6 windows at the workloads' chunk size and window width.
pub const FULL: Sizes = Sizes {
    publishers: 120,
    ad_companies: 14,
    trackers: 16,
    households: 144,
    hours: 0.5,
    scale_rules: 40_000,
    fault_rate: 0.02,
};

/// `--quick`: same code paths on about 10 K records and a tenth of the
/// rules. Its numbers are not comparable with anything.
pub const QUICK: Sizes = Sizes {
    households: 72,
    scale_rules: 4_000,
    ..FULL
};

/// Which trace file a workload reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Input {
    Clean,
    Dirty,
}

/// Which filter lists a workload loads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ListSet {
    /// The ecosystem's four lists (a few hundred rules, 1 query literal).
    Small,
    /// Those four plus the EasyList-scale list.
    Easylist,
}

const ECOSYSTEM_LISTS: [&str; 4] = [
    names::EASYLIST,
    names::REGIONAL,
    names::EASYPRIVACY,
    names::ACCEPTABLE,
];
const SCALE_LIST: &str = "easylist-scale";

/// The ecosystem is the one generator `--seed` does not reach. Its 14 ad
/// companies and 16 trackers are too few to average out: their URL
/// templates decide how many dynamic query values a record carries and
/// under which keys, which is what the normalizer's scan of the query
/// literals costs, so from one ecosystem to the next `easylist_w1` moved
/// between 91 and 127 us per record (seeds 101-110, spread 19 %; dynamic
/// values per record x literals: 2982-3721) while ten runs of one seed
/// spread by 4 %. The contract's ten runs take ten seeds, and a web whose
/// cost per record differs by a third is another benchmark, not another
/// sample of this one. With the ecosystem held, the same product reads
/// 3152-3464 over seeds 101-112. Users, browsing, faults and the
/// EasyList-scale list still come from `--seed`.
const ECOSYSTEM_SEED: u64 = 20_150_811;

/// SplitMix64 of `seed` offset by a per-generator tag: every generator
/// gets its own stream, all of them but the ecosystem's fixed by `--seed`.
fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed.wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generated fixture on disk.
#[derive(Debug, Clone)]
pub struct Fixture {
    pub dir: PathBuf,
}

/// What generation saw go by (echoed in the output).
#[derive(Debug, Clone, Copy)]
pub struct FixtureInfo {
    pub records: u64,
    pub clean_bytes: u64,
    pub dirty_bytes: u64,
    pub scale_rules_text_bytes: u64,
}

impl Fixture {
    pub fn trace_path(&self, input: Input) -> PathBuf {
        self.dir.join(match input {
            Input::Clean => "trace.clean.ndjson",
            Input::Dirty => "trace.dirty.ndjson",
        })
    }

    fn list_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("list.{name}.txt"))
    }

    /// Read and parse a list set, EasyList first like the paper.
    pub fn load_lists(&self, set: ListSet) -> io::Result<Vec<FilterList>> {
        let mut names: Vec<&str> = ECOSYSTEM_LISTS.to_vec();
        if set == ListSet::Easylist {
            names.push(SCALE_LIST);
        }
        names
            .into_iter()
            .map(|name| {
                Ok(FilterList::parse(
                    name,
                    &fs::read_to_string(self.list_path(name))?,
                ))
            })
            .collect()
    }

    /// Addresses of the filter-list download servers, one per line.
    pub fn abp_ips(&self) -> io::Result<Vec<u32>> {
        let text = fs::read_to_string(self.dir.join("abp_ips.txt"))?;
        text.lines()
            .map(|l| l.parse().map_err(io::Error::other))
            .collect()
    }

    /// Generate everything into `dir` (created; existing files are
    /// overwritten).
    pub fn generate(dir: &Path, seed: u64, sizes: &Sizes) -> io::Result<(Fixture, FixtureInfo)> {
        fs::create_dir_all(dir)?;
        let fx = Fixture {
            dir: dir.to_path_buf(),
        };
        let codec_err = |e: netsim::codec::CodecError| io::Error::other(e.to_string());

        let eco = Ecosystem::generate(EcosystemConfig {
            publishers: sizes.publishers,
            ad_companies: sizes.ad_companies,
            trackers: sizes.trackers,
            seed: derive(ECOSYSTEM_SEED, 1),
            ..Default::default()
        });
        let mut pop = Population::generate(
            &eco,
            &PopulationConfig {
                households: sizes.households,
                seed: derive(seed, 2),
                ..Default::default()
            },
        );
        let config = DriveConfig {
            seed: derive(seed, 3),
            ..DriveConfig::rbn2(sizes.hours)
        };
        let meta = TraceMeta {
            name: config.name.clone(),
            duration_secs: config.duration_secs,
            subscribers: sizes.households,
            start_hour: config.start_hour,
            start_weekday: config.start_weekday,
        };

        // Clean trace: straight to disk slice by slice, as `experiments
        // stream --write-trace` does. The records are also kept, because
        // the semantic faults of the dirty copy apply to decoded records.
        let clean = File::create(fx.trace_path(Input::Clean))?;
        let mut writer = TraceWriter::new(BufWriter::new(clean), &meta).map_err(codec_err)?;
        let mut records = Vec::new();
        let mut write_err = None;
        drive_stream(
            &eco,
            &mut pop,
            &ActivityProfile::default(),
            &config,
            |batch| {
                for r in &batch {
                    if write_err.is_none() {
                        write_err = writer.write_record(r).err();
                    }
                }
                records.extend(batch);
            },
        );
        if let Some(e) = write_err {
            return Err(codec_err(e));
        }
        let (n_records, clean_bytes) = writer.finish().map_err(codec_err)?;

        // Dirty copy: semantic faults on the records, then wire faults on
        // the encoded bytes.
        let mut faults =
            FaultInjector::new(FaultProfile::uniform(sizes.fault_rate), derive(seed, 4));
        let degraded = faults.corrupt_trace(&Trace { meta, records });
        let mut encoded = Vec::with_capacity(clean_bytes as usize);
        write_trace(&degraded, &mut encoded).map_err(codec_err)?;
        let dirty = faults.corrupt_bytes(&encoded);
        fs::write(fx.trace_path(Input::Dirty), &dirty)?;

        let scale = easylist_scale(ScaleConfig {
            rules: sizes.scale_rules,
            seed: derive(seed, 5),
        });
        for (name, text) in [
            (names::EASYLIST, &eco.lists.easylist_text),
            (names::REGIONAL, &eco.lists.regional_text),
            (names::EASYPRIVACY, &eco.lists.easyprivacy_text),
            (names::ACCEPTABLE, &eco.lists.acceptable_text),
            (SCALE_LIST, &scale.text),
        ] {
            fs::write(fx.list_path(name), text)?;
        }
        let ips: String = eco.abp_ips.iter().map(|ip| format!("{ip}\n")).collect();
        fs::write(fx.dir.join("abp_ips.txt"), ips)?;

        let info = FixtureInfo {
            records: n_records,
            clean_bytes,
            dirty_bytes: dirty.len() as u64,
            scale_rules_text_bytes: scale.text.len() as u64,
        };
        Ok((fx, info))
    }
}
