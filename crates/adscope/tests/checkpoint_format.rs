//! The persisted checkpoint format, held from three sides.
//!
//! * **The committed log** (`tests/fixtures/checkpoint/`): a trace, the
//!   segment log a 3-thread run wrote when it was stopped after 8 of 19
//!   chunks, and the uninterrupted run's `render()`. Today's code must resume
//!   from those bytes — at 1 and at 3 threads — to the same report, byte for
//!   byte. The equivalence suites write and read a checkpoint with the same
//!   build, so they cannot see a format change that is symmetric in writer
//!   and reader; this can.
//! * **Every kill point** of one 19-chunk trace, at four thread-count changes
//!   and two checkpoint cadences, instead of the handful the proptests sample;
//!   and **every prefix** of a killed run's segment log, and a bit flip in
//!   each of its segments: each resumes to the same report or is refused.
//! * **Refusal**: a checkpoint of another format version is refused, naming
//!   it; a persisted value that does not fit its type is refused with an
//!   error that names where it sits, never narrowed into a different number.

use abp_filter::FilterList;
use adscope::classify::PassiveClassifier;
use adscope::population::PopulationOptions;
use adscope::stream::{
    classify_stream_file, CheckpointOptions, StreamError, StreamOptions, StreamReport,
    CHECKPOINT_FILE,
};
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use netsim::codec::write_trace;
use netsim::record::{TlsConnection, Trace, TraceMeta, TraceRecord};
use obs::{AlertRule, DetectorSpec, Direction, SeriesSpec, Severity};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Records per chunk; [`RECORDS`] of them make 19 chunks.
const CHUNK: usize = 16;
const RECORDS: usize = 300;
const CHUNKS: u64 = 19;
/// Where the fixture run was stopped.
const FIXTURE_KILL: u64 = 8;
/// The filter-list download server of the generated trace.
const ABP_IP: u32 = 900;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint")
}

/// The quarantine sidecar of the stopped run the committed log is from.
fn fixture_sidecar() -> Vec<u8> {
    std::fs::read(fixture_dir().join("quarantine.ndjson")).unwrap()
}

fn classifier() -> PassiveClassifier {
    PassiveClassifier::new(vec![
        FilterList::parse(
            "easylist",
            "||ads.example^$third-party\n/banners/\n@@*callback=ok*\n",
        ),
        FilterList::parse("easyprivacy", "/pixel/\n"),
        FilterList::parse("acceptable-ads", "@@||nice.example^\n"),
    ])
}

/// Detector shapes of the production pack with evidence floors a 300-record
/// trace can clear, so the timeline has events on both sides of a kill point.
fn pack() -> Vec<AlertRule> {
    let share = |name: &str, num: &str, detector, direction, threshold| AlertRule {
        name: name.into(),
        series: SeriesSpec::Share {
            num: vec![num.into()],
            den: "requests".into(),
        },
        detector,
        direction,
        threshold,
        for_windows: 1,
        min_den: 5,
        severity: Severity::Warn,
    };
    vec![
        share(
            "blocked_share_drop",
            "blocked_easylist",
            DetectorSpec::Cusum { drift: 0.02 },
            Direction::Down,
            0.05,
        ),
        share(
            "ad_share_jump",
            "ads",
            DetectorSpec::EwmaZ { alpha: 0.3 },
            Direction::Up,
            3.0,
        ),
        AlertRule {
            name: "req_burst".into(),
            series: SeriesSpec::Counter("requests".into()),
            detector: DetectorSpec::RateOfChange,
            direction: Direction::Up,
            threshold: 0.5,
            for_windows: 1,
            min_den: 0,
            severity: Severity::Page,
        },
    ]
}

/// Trace time of record `i`: two minutes apart, except that records 60–119
/// arrive four times as fast (the request burst the pack fires on).
fn ts_of(i: usize) -> f64 {
    match i {
        0..=59 => i as f64 * 120.0,
        60..=119 => 7200.0 + (i - 60) as f64 * 30.0,
        _ => 9000.0 + (i - 120) as f64 * 120.0,
    }
}

/// A deterministic trace in which six ⟨IP, UA⟩ users (a browser, a UA that
/// needs JSON escaping, and no UA at all) each walk the same ten-step cycle,
/// offset from each other, so that at any kill point some user is mid-way
/// through each of the stream engine's order-sensitive paths: a redirect
/// whose target arrives one step later (held, then backfilled), a redirect
/// to one never-requested target (held until the next one displaces it),
/// pages, referer chains, quarantined records and HTTPS flows with and
/// without the download signal.
fn messy_trace(n: usize) -> Trace {
    let browser = http_model::UserAgent::desktop(
        http_model::BrowserFamily::Firefox,
        http_model::useragent::Os::Windows,
        38,
    )
    .raw;
    let agents = [Some(browser.as_str()), Some("UA \"quoted\"/2.0"), None];
    let page = Some("http://pub.example/");
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let (user, step) = (i % 6, i / 6);
        let client = 1 + (user % 3) as u32;
        let ua = agents[(user + user / 3) % 3];
        let http = |host: &str,
                    uri: String,
                    referer: Option<&str>,
                    location: Option<String>,
                    ct: Option<&str>| {
            TraceRecord::Http(HttpTransaction {
                ts: ts_of(i),
                client_ip: client,
                server_ip: 10 + (i % 7) as u32,
                server_port: 80,
                method: Method::Get,
                request: RequestHeaders {
                    host: host.into(),
                    uri,
                    referer: referer.map(str::to_string),
                    user_agent: ua.map(str::to_string),
                },
                response: ResponseHeaders {
                    status: if location.is_some() { 302 } else { 200 },
                    content_type: ct.map(str::to_string),
                    content_length: Some(100 + 37 * (i as u64 % 50)),
                    location,
                },
                tcp_handshake_ms: 1.0 + (i % 4) as f64 * 0.25,
                http_handshake_ms: 4.0 + (i % 11) as f64 * 7.5,
            })
        };
        records.push(match (step + user) % 10 {
            0 => http("pub.example", "/".into(), None, None, Some("text/html")),
            1 => http(
                "r.example",
                format!("/go?id={step}"),
                page,
                Some(format!("http://ads.example/banner{step}.gif")),
                None,
            ),
            2 => http(
                "ads.example",
                format!("/banner{}.gif", step.wrapping_sub(1)),
                None,
                None,
                Some("image/gif"),
            ),
            3 => http(
                "x.example",
                format!("/banners/{i}.gif"),
                page,
                None,
                Some("image/gif"),
            ),
            4 => http("", "/unparseable".into(), None, None, None),
            5 => TraceRecord::Https(TlsConnection {
                ts: ts_of(i),
                client_ip: client,
                server_ip: if user % 2 == 0 { ABP_IP } else { 9 },
                server_port: 443,
                bytes: 4242,
            }),
            6 => http(
                "r.example",
                format!("/again?n={i}"),
                page,
                Some("http://never.example/same.gif".to_string()),
                None,
            ),
            7 => http(
                "track.example",
                format!("/pixel/{i}?callback=ok"),
                None,
                None,
                None,
            ),
            8 => http(
                "cdn.example",
                format!("/lib{i}.js"),
                page,
                None,
                Some("application/javascript"),
            ),
            _ => http(
                "nice.example",
                format!("/ad{i}.png"),
                page,
                None,
                Some("image/png"),
            ),
        });
    }
    Trace {
        meta: TraceMeta {
            name: "checkpoint-v1".into(),
            duration_secs: ts_of(n),
            subscribers: 3,
            start_hour: 3,
            start_weekday: 1,
        },
        records,
    }
}

/// A fresh temp directory, unique across parallel test threads.
fn temp_dir(tag: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let n = SERIAL.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("adscope-ckfmt-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every plane on: population, the alert pack, the download indicator and the
/// quarantine sidecar, so a checkpoint carries every manifest block (and the
/// render an alert timeline to get wrong).
fn opts(threads: usize, dir: &Path, every_chunks: u64, resume: bool) -> StreamOptions {
    let mut o = StreamOptions {
        threads,
        chunk_records: CHUNK,
        checkpoint: Some(CheckpointOptions {
            dir: dir.join("ck"),
            every_chunks,
            resume,
        }),
        quarantine_path: Some(dir.join("quarantine.ndjson")),
        abp_ips: vec![ABP_IP],
        alerts: pack(),
        ..StreamOptions::default()
    };
    o.pipeline.population = PopulationOptions {
        enabled: true,
        active_min_requests: 3,
    };
    o
}

fn run(trace: &Path, o: &StreamOptions) -> Result<StreamReport, StreamError> {
    classify_stream_file(trace, &classifier(), o, &obs::Registry::new())
}

/// The segments of a log, read here independently of the crate's
/// reader: in order, up to the first whose trailer does not count and
/// checksum (`obs::sum64`) the lines before it, each as the byte range of
/// its lines, trailer included.
fn segments(log: &[u8]) -> Vec<std::ops::Range<usize>> {
    let (mut out, mut start, mut at, mut lines) = (Vec::new(), 0, 0, 0u64);
    for line in log.split_inclusive(|&b| b == b'\n') {
        let Some(text) = line.strip_suffix(b"\n") else {
            break;
        };
        let end = at + line.len();
        if text.starts_with(b"{\"segment\":") {
            let trailer = std::str::from_utf8(text).map(netsim::json::parse);
            let count = |k: &str| {
                trailer
                    .as_ref()
                    .ok()?
                    .as_ref()
                    .ok()?
                    .get("segment")?
                    .get(k)?
                    .as_u64()
            };
            let body = &log[start..at];
            let valid = lines > 0
                && count("lines") == Some(lines)
                && count("bytes") == Some(body.len() as u64)
                && count("sum") == Some(obs::sum64(body));
            if !valid {
                break;
            }
            out.push(start..end);
            (start, lines) = (end, 0);
        } else {
            lines += 1;
        }
        at = end;
    }
    out
}

/// The log at `path` as (manifest line, user lines), as resume reads it: the
/// manifest is its last valid segment's, and its users the lines of every
/// valid segment, in order.
fn read_checkpoint(path: &Path) -> (String, Vec<String>) {
    let log = std::fs::read(path).unwrap();
    let mut manifest = String::new();
    let mut users = Vec::new();
    for range in segments(&log) {
        let text = std::str::from_utf8(&log[range]).unwrap();
        let mut lines = text.lines().filter(|l| !l.starts_with("{\"segment\":"));
        manifest = lines.next().expect("manifest line").to_string();
        users.extend(lines.map(str::to_string));
    }
    (manifest, users)
}

/// `manifest` with its `"config":` value replaced by the hash today's code
/// computes for [`opts`], so a later `PipelineOptions` field (which changes
/// every hash) does not strand a fixture. `config_hash` is private; a
/// one-chunk run writes it for us.
fn with_todays_config(manifest: &str) -> String {
    static TODAYS: OnceLock<String> = OnceLock::new();
    let config = |manifest: &str| {
        let from = manifest.find("\"config\":").expect("config key") + "\"config\":".len();
        let len = manifest[from..].find(',').unwrap();
        format!("\"config\":{}", &manifest[from..from + len])
    };
    let todays = TODAYS.get_or_init(|| {
        let dir = temp_dir("probe");
        let mut probe = opts(1, &dir, 1, false);
        probe.stop_after_chunks = Some(1);
        run(&fixture_dir().join("trace.ndjson"), &probe).unwrap();
        let (probe_manifest, _) = read_checkpoint(&dir.join("ck").join(CHECKPOINT_FILE));
        let _ = std::fs::remove_dir_all(&dir);
        config(&probe_manifest)
    });
    manifest.replacen(&config(manifest), todays, 1)
}

/// The committed log with each segment's manifest passed through `manifest`
/// after its config is patched to today's, each user line through `user`,
/// and each segment's trailer recomputed over the bytes that result.
fn fixture_log(manifest: impl Fn(String) -> String, user: impl Fn(String) -> String) -> Vec<u8> {
    let log = std::fs::read(fixture_dir().join(CHECKPOINT_FILE)).unwrap();
    let mut out = Vec::new();
    for range in segments(&log) {
        let text = std::str::from_utf8(&log[range]).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert!(lines.pop().unwrap().starts_with("{\"segment\":"));
        let users = lines.split_off(1);
        lines[0] = manifest(with_todays_config(&lines[0]));
        lines.extend(users.into_iter().map(&user));
        let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
        out.extend_from_slice(body.as_bytes());
        let trailer = format!(
            "{{\"segment\":{{\"lines\":{},\"bytes\":{},\"sum\":{}}}}}\n",
            lines.len(),
            body.len(),
            obs::sum64(body.as_bytes())
        );
        out.extend_from_slice(trailer.as_bytes());
    }
    out
}

/// How a resumed run goes on: its threads, records a chunk (which must be
/// the killed run's), checkpoint cadence, and where it stops, if it does.
#[derive(Clone, Copy)]
struct Resume {
    threads: usize,
    chunk: usize,
    every: u64,
    stop: Option<u64>,
}

impl Resume {
    /// At `threads`, the fixture's chunk size and cadence, to the end.
    fn at(threads: usize) -> Resume {
        Resume {
            threads,
            chunk: CHUNK,
            every: 1,
            stop: None,
        }
    }
}

/// Resume the fixture trace in `dir`, which holds the checkpoint and the
/// sidecar as a killed run left them.
fn resume_in(dir: &Path, r: Resume) -> Result<StreamReport, StreamError> {
    let mut o = opts(r.threads, dir, r.every, true);
    o.chunk_records = r.chunk;
    o.stop_after_chunks = r.stop;
    let result = run(&fixture_dir().join("trace.ndjson"), &o);
    if let Ok(report) = &result {
        let sidecar = std::fs::read_to_string(dir.join("quarantine.ndjson")).unwrap();
        assert_eq!(
            sidecar.lines().count(),
            report.degradation.quarantined(),
            "one sidecar line per quarantined record across the resume"
        );
    }
    result
}

/// A fresh directory holding `checkpoint` and `sidecar` as a killed run left
/// them.
fn killed_dir(checkpoint: &[u8], sidecar: &[u8]) -> PathBuf {
    let dir = temp_dir("resume");
    std::fs::create_dir_all(dir.join("ck")).unwrap();
    std::fs::write(dir.join("ck").join(CHECKPOINT_FILE), checkpoint).unwrap();
    std::fs::write(dir.join("quarantine.ndjson"), sidecar).unwrap();
    dir
}

/// [`resume_in`] a [`killed_dir`].
fn resume_from(checkpoint: &[u8], sidecar: &[u8], r: Resume) -> Result<StreamReport, StreamError> {
    let dir = killed_dir(checkpoint, sidecar);
    let result = resume_in(&dir, r);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The committed log resumes to the uninterrupted run's report at 1 and 3
/// threads. The alert plane persists nothing: the timeline is recomputed
/// from the restored `windows` at the first merge, so no `alerts` key is
/// written, and what guards the rule pack is the config hash.
#[test]
fn the_committed_log_resumes_byte_identically() {
    let (manifest, users) = read_checkpoint(&fixture_dir().join(CHECKPOINT_FILE));
    // Not vacuous: the checkpoint holds work in flight on every plane.
    for (what, block) in [
        ("held record", "\"held\":[{"),
        ("pending redirect", "\"pending\":[["),
        ("counter block", "\"counters\":["),
        ("user without a UA", "\"user_agent\":null"),
    ] {
        assert!(users.iter().any(|u| u.contains(block)), "no {what}");
    }
    for block in ["\"population\":{", "\"households\":[1"] {
        assert!(manifest.contains(block), "manifest lacks {block}");
    }
    // The households are the run's, not the population plane's: they sit
    // before its block, which closes the manifest.
    let households = manifest.find("\"households\":[").unwrap();
    assert!(households < manifest.find("\"population\":{").unwrap());
    assert!(
        !manifest.contains("\"quarantine_bytes\":0,"),
        "quarantine off"
    );
    assert!(manifest.contains(&format!("\"chunks\":{FIXTURE_KILL},")));

    let log = fixture_log(|m| m, |u| u);
    let want = std::fs::read_to_string(fixture_dir().join("render.txt")).unwrap();
    assert!(
        want.contains("rule req_burst firing"),
        "no timeline to lose"
    );
    for threads in [1, 3] {
        let got = resume_from(&log, &fixture_sidecar(), Resume::at(threads)).unwrap();
        assert!(got.resumed_from.is_some());
        assert_eq!(got.chunks, CHUNKS);
        assert_eq!(got.render(), want, "threads={threads}");
    }

    let dir = temp_dir("no-alerts-key");
    let mut killed = opts(3, &dir, 1, false);
    killed.stop_after_chunks = Some(FIXTURE_KILL);
    run(&fixture_dir().join("trace.ndjson"), &killed).unwrap();
    let written = std::fs::read_to_string(dir.join("ck").join(CHECKPOINT_FILE)).unwrap();
    assert!(written.contains("\"population\":{") && !written.contains("\"alerts\""));
    assert!(!log.windows(8).any(|w| w == b"\"alerts\""));
    let _ = std::fs::remove_dir_all(&dir);
    // The committed log, one threshold moved: refused by the config hash.
    let dir = killed_dir(&log, &fixture_sidecar());
    let mut other = opts(2, &dir, 1, true);
    other.alerts[2].threshold = 0.75;
    match run(&fixture_dir().join("trace.ndjson"), &other) {
        Err(StreamError::Checkpoint(msg)) => assert!(msg.contains("configuration"), "{msg}"),
        other => panic!("expected a refusal, loaded: {}", other.is_ok()),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume reads only the format version this build writes. A file with no
/// trailer (the shape of version 1), and the committed log with its
/// manifests' version set to 2, 3 and 5 (trailers valid), are each refused
/// naming their version; the sidecar, which a resume truncates only once the
/// load succeeds, is left as it was.
#[test]
fn a_checkpoint_of_another_format_version_is_refused_naming_it() {
    let version =
        |v: u64| move |m: String| m.replacen("\"version\":4,", &format!("\"version\":{v},"), 1);
    let (manifest, users) = read_checkpoint(&fixture_dir().join(CHECKPOINT_FILE));
    let trailerless = format!(
        "{}\n{}\n",
        version(1)(with_todays_config(&manifest)),
        users.join("\n")
    );
    let sidecar = fixture_sidecar();
    for (v, checkpoint) in [
        (1, trailerless.into_bytes()),
        (2, fixture_log(version(2), |u| u)),
        (3, fixture_log(version(3), |u| u)),
        (5, fixture_log(version(5), |u| u)),
    ] {
        let dir = killed_dir(&checkpoint, &sidecar);
        match run(&fixture_dir().join("trace.ndjson"), &opts(2, &dir, 1, true)) {
            Err(StreamError::Checkpoint(msg)) => assert_eq!(
                msg,
                format!("checkpoint format version {v}; this build reads 4")
            ),
            other => panic!("version {v}: expected a refusal, loaded: {}", other.is_ok()),
        }
        let left = std::fs::read(dir.join("quarantine.ndjson")).unwrap();
        assert!(left == sidecar, "version {v}: the sidecar changed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Today's writer against the committed generator: the trace the sweep
/// below runs on is the fixture's, byte for byte.
#[test]
fn fixture_trace_is_the_generated_one() {
    let mut bytes = Vec::new();
    write_trace(&messy_trace(RECORDS), &mut bytes).unwrap();
    let committed = std::fs::read(fixture_dir().join("trace.ndjson")).unwrap();
    assert!(bytes == committed, "generator or trace writer drifted");
}

/// Every kill point × four thread-count changes × two cadences. At cadence
/// 2 a kill after an odd chunk loses that chunk's work and replays it; a
/// kill before the first checkpoint leaves nothing to resume and says so.
#[test]
fn every_kill_point_resumes_byte_identically() {
    let trace = fixture_dir().join("trace.ndjson");
    let dir = temp_dir("sweep-full");
    let mut full = opts(2, &dir, 1, false);
    full.checkpoint = None;
    let want = run(&trace, &full).unwrap();
    assert_eq!(want.chunks, CHUNKS);
    let want = want.render();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        want,
        std::fs::read_to_string(fixture_dir().join("render.txt")).unwrap()
    );

    for every in [1u64, 2] {
        for (before, after) in [(1, 2), (2, 1), (3, 4), (4, 3)] {
            for kill in 1..CHUNKS {
                let dir = temp_dir("sweep");
                let mut killed = opts(before, &dir, every, false);
                killed.stop_after_chunks = Some(kill);
                let partial = run(&trace, &killed).unwrap();
                assert!(partial.stopped_early);
                assert_eq!(partial.checkpoints_written, kill / every);

                let resumed = run(&trace, &opts(after, &dir, every, true));
                let case = format!("every={every} {before}->{after} kill={kill}");
                if kill < every {
                    assert!(
                        matches!(resumed, Err(StreamError::Checkpoint(_))),
                        "{case}: no checkpoint yet"
                    );
                } else {
                    let got = resumed.unwrap();
                    assert!(got.resumed_from.is_some(), "{case}");
                    assert_eq!(got.render(), want, "{case}");
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// The spec every persisted byte answers to, held over the segment log:
/// the fixture trace run at cadence 1 on 2 threads and killed at the first
/// chunk whose log holds a whole-state segment and `appended` ones after
/// it; that log cut at every line boundary, one byte either side of each
/// and at 256 seeded offsets, and, apart, with one seeded bit flipped in
/// each segment. A damaged log that still holds its first segment whole
/// resumes, from the last segment it holds whole up to the first damaged
/// one, to the uninterrupted run's report, byte for byte (`render.txt` at
/// the fixture's chunk size); one that does not is refused with
/// `StreamError::Checkpoint`. Nothing panics, nothing renders another
/// report. After a resume from a torn tail, a second kill and resume
/// renders the same report too.
///
/// At the fixture's 16 records a chunk every user is touched between any
/// two barriers, so each append is a whole state's worth and the 2× rule
/// rewrites the log at the third barrier: it never holds more than one
/// appended segment. At 2 records a chunk a barrier touches one or two of
/// the six users, and the log holds two appended segments and more.
#[test]
fn every_log_prefix_resumes_or_refuses() {
    let trace = fixture_dir().join("trace.ndjson");
    for (chunk, appended) in [(CHUNK, 1), (2, 2)] {
        let dir = temp_dir("prefix-kill");
        let mut full = opts(2, &dir, 1, false);
        (full.checkpoint, full.chunk_records) = (None, chunk);
        let want = run(&trace, &full).unwrap().render();
        if chunk == CHUNK {
            let committed = std::fs::read_to_string(fixture_dir().join("render.txt")).unwrap();
            assert_eq!(want, committed);
        }
        let (log, sidecar) = (1..)
            .find_map(|kill| {
                let mut killed = opts(2, &dir, 1, false);
                (killed.chunk_records, killed.stop_after_chunks) = (chunk, Some(kill));
                assert!(run(&trace, &killed).unwrap().stopped_early, "chunk {chunk}");
                let log = std::fs::read(dir.join("ck").join(CHECKPOINT_FILE)).unwrap();
                let sidecar = std::fs::read(dir.join("quarantine.ndjson")).unwrap();
                (segments(&log).len() > appended).then_some((log, sidecar))
            })
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let segments = segments(&log);
        assert_eq!(segments.last().unwrap().end, log.len(), "the log validates");
        let check = |case: String, damaged: &[u8], resumes: bool| {
            let case = format!("chunk {chunk}, {case}");
            // Checkpointing nothing: the cadence is not part of the config.
            let r = Resume {
                chunk,
                every: u64::MAX,
                ..Resume::at(2)
            };
            match resume_from(damaged, &sidecar, r) {
                Ok(got) if resumes => assert_eq!(got.render(), want, "{case}"),
                Err(StreamError::Checkpoint(_)) if !resumes => {}
                Ok(_) => panic!("{case}: resumed from a log without a whole segment"),
                Err(e) => panic!("{case}: {e}"),
            }
        };

        let mut state = 0x2545_F491_4F6C_DD1Du64 ^ chunk as u64;
        let mut seeded = move |below: usize| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % below as u64) as usize
        };
        let newlines = log.iter().enumerate().filter(|(_, &b)| b == b'\n');
        let boundaries = std::iter::once(0).chain(newlines.map(|(i, _)| i + 1));
        let mut cuts: std::collections::BTreeSet<usize> = boundaries
            .flat_map(|b| [b.saturating_sub(1), b, (b + 1).min(log.len())])
            .collect();
        cuts.extend((0..256).map(|_| seeded(log.len())));
        for cut in cuts {
            let whole = cut >= segments[0].end;
            check(format!("cut at {cut}"), &log[..cut], whole);
        }
        for (i, segment) in segments.iter().enumerate() {
            let mut flipped = log.clone();
            let at = segment.start + seeded(segment.len());
            flipped[at] ^= 1 << seeded(8);
            check(format!("bit flipped at {at}, segment {i}"), &flipped, i > 0);
        }

        // A torn last segment: resumed from the one before it, killed again
        // after the resumed run's first (rewritten) and second (appended)
        // checkpoints, and resumed again.
        let last = segments.last().unwrap();
        let dir = temp_dir("torn");
        std::fs::create_dir_all(dir.join("ck")).unwrap();
        let torn = &log[..(last.start + last.end) / 2];
        std::fs::write(dir.join("ck").join(CHECKPOINT_FILE), torn).unwrap();
        std::fs::write(dir.join("quarantine.ndjson"), &sidecar).unwrap();
        let r = Resume {
            chunk,
            ..Resume::at(2)
        };
        let stop = Resume { stop: Some(2), ..r };
        assert!(resume_in(&dir, stop).unwrap().stopped_early);
        let log = std::fs::read(dir.join("ck").join(CHECKPOINT_FILE)).unwrap();
        assert_eq!(self::segments(&log).len(), 2, "rewritten, then appended to");
        let got = resume_in(&dir, r).unwrap();
        assert_eq!(
            got.render(),
            want,
            "chunk {chunk}: second resume after a torn tail"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Replace the JSON token that follows the first `anchor` in `text`.
fn mutate(text: &str, anchor: &str, replacement: &str) -> String {
    let at = text.find(anchor).unwrap_or_else(|| panic!("no {anchor}")) + anchor.len();
    let len = text[at..].find([',', ']', '}']).unwrap();
    format!("{}{replacement}{}", &text[..at], &text[at + len..])
}

/// Drop the last element of the first array that closes after the first
/// `anchor` in `text`.
fn drop_last(text: &str, anchor: &str) -> String {
    let from = text.find(anchor).unwrap_or_else(|| panic!("no {anchor}"));
    let close = from + text[from..].find(']').unwrap();
    let comma = text[..close].rfind(',').unwrap();
    format!("{}{}", &text[..comma], &text[close..])
}

/// One persisted value per case pushed out of its type's range (or shape),
/// in every manifest or every user line of the committed log. Each loaded
/// "successfully" as some other number before the typed decoder; each must
/// now be refused, naming where the value sits.
#[test]
fn out_of_range_values_are_refused_with_their_path() {
    type Edit = Box<dyn Fn(String) -> String>;
    let (manifest, _) = read_checkpoint(&fixture_dir().join(CHECKPOINT_FILE));
    let first_buckets = {
        let from = manifest.find("\"object_bytes\":").unwrap();
        let from = from + manifest[from..].find("\"buckets\":").unwrap();
        let to = from + manifest[from..].find("]]").unwrap() + 2;
        manifest[from..to].to_string()
    };
    let keep = || -> Edit { Box::new(|line| line) };
    let cases: Vec<(&str, Edit, Edit, &str)> = vec![
        (
            "a distinct-count register of 300",
            Box::new(|m| mutate(&m, "\"users\":[", "300")),
            keep(),
            "population.users[0]: expected u8",
        ),
        (
            "a quantile bucket index of 2^31",
            Box::new(|m| {
                let anchor = "\"object_bytes\":{\"zero\":0,\"buckets\":[[";
                mutate(&m, anchor, "2147483648")
            }),
            keep(),
            "population.object_bytes.buckets[0][0]: expected i32",
        ),
        (
            "a window index of 2^63",
            Box::new(|m| mutate(&m, "\"windows\":[{\"index\":", "9223372036854775808")),
            keep(),
            "windows.windows[0].index: expected i64",
        ),
        (
            "a boolean spelled as a string",
            Box::new(|m| {
                let yes = "\"header_recovered\":\"yes\"";
                m.replacen("\"header_recovered\":false", yes, 1)
            }),
            keep(),
            "codec.header_recovered: expected bool",
        ),
        (
            "quantile bucket counts that overflow u64",
            Box::new(move |m| {
                let overflow = "\"buckets\":[[1,18446744073709551615],[2,2]]";
                m.replacen(&first_buckets, overflow, 1)
            }),
            keep(),
            "population.object_bytes.buckets: counts overflow u64",
        ),
        (
            "a histogram one bucket short",
            Box::new(|m| m.replacen("{\"buckets\":[0,", "{\"buckets\":[", 1)),
            keep(),
            "windows.windows[0].hists.rtb_gap_ms.buckets: expected 65 buckets",
        ),
        (
            "a `page_of` entry of arity 3 (its hop count dropped)",
            keep(),
            Box::new(|u| drop_last(&u, "\"page_of\":[[")),
            "page_of[0]: expected array of 4",
        ),
        (
            "a counter block one counter short",
            keep(),
            Box::new(|u| drop_last(&u, "\"counters\":[")),
            "counters: expected array of 8",
        ),
        (
            "a counter block one counter long",
            keep(),
            Box::new(|u| u.replacen("\"counters\":[", "\"counters\":[0,", 1)),
            "counters: expected array of 8",
        ),
    ];
    let as_committed = fixture_log(|m| m, |u| u);
    for (what, manifest, user, path) in cases {
        let log = fixture_log(manifest, user);
        assert!(log != as_committed, "{what}: mutation did not apply");
        match resume_from(&log, &fixture_sidecar(), Resume::at(2)) {
            Err(StreamError::Checkpoint(msg)) => assert_eq!(msg, path, "{what}"),
            other => panic!("{what}: expected a refusal, loaded: {}", other.is_ok()),
        }
    }
}

/// A sidecar shorter than the manifest's `quarantine_bytes` has lost lines
/// the report counts. `set_len` used to pad it back with NUL bytes and the
/// resume went on to a report counting records the sidecar no longer held;
/// it is refused, naming both lengths.
#[test]
fn a_lost_or_short_sidecar_is_refused() {
    let (manifest, _) = read_checkpoint(&fixture_dir().join(CHECKPOINT_FILE));
    let sidecar = fixture_sidecar();
    let recorded = sidecar.len();
    assert!(manifest.contains(&format!("\"quarantine_bytes\":{recorded},")));
    let checkpoint = fixture_log(|m| m, |u| u);
    let short = &sidecar[..recorded - 1];
    for (what, on_disk) in [("missing", None), ("one byte short", Some(short))] {
        let dir = temp_dir("sidecar");
        std::fs::create_dir_all(dir.join("ck")).unwrap();
        std::fs::write(dir.join("ck").join(CHECKPOINT_FILE), &checkpoint).unwrap();
        if let Some(bytes) = on_disk {
            std::fs::write(dir.join("quarantine.ndjson"), bytes).unwrap();
        }
        let held = on_disk.map_or(0, <[u8]>::len);
        match run(&fixture_dir().join("trace.ndjson"), &opts(2, &dir, 1, true)) {
            Err(StreamError::Checkpoint(msg)) => assert!(
                msg.contains(&format!("holds {held} bytes"))
                    && msg.contains(&format!("recorded {recorded}")),
                "{what}: {msg}"
            ),
            other => panic!("{what}: expected a refusal, loaded: {}", other.is_ok()),
        }
        let left = std::fs::read(dir.join("quarantine.ndjson")).unwrap();
        assert!(!left.contains(&0), "{what}: sidecar was zero-filled");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
