//! Streaming fault-tolerant classification — the bounded-memory dataflow.
//!
//! The materialized pipeline ([`crate::pipeline`]) decodes the whole
//! trace into a `Vec` before classifying. At the paper's scale (RBN-1:
//! 4 days, 131.95 M requests; RBN-2: 15.5 h, 85.09 M) that footprint is
//! the limiting factor, and a fault anywhere loses the whole run. This
//! module restructures the same stages as a streaming dataflow:
//!
//! ```text
//!   ChunkSource ──► router (caller thread)             ┌► worker 0 ─┐
//!     lends each     extract + out-of-order pre-pass ──┼► worker 1 ─┼─► merge
//!     record as a    + decode windows + shard routing  └► worker N ─┘
//!     RecordView     (view → WebObject, nothing owned
//!     of its line     in between)
//! ```
//!
//! * **Bounded memory.** Records flow through [`parallel::bounded`]
//!   channels of four batches each; a full queue blocks the router
//!   (backpressure) instead of buffering. A batch holds at most 256
//!   records, sent mid-chunk once full, so resident state is the per-user
//!   referrer maps plus at most six batches per worker — flat in trace
//!   length and in `chunk_records`.
//! * **Identical output.** Workers run the exact sequential per-user
//!   stage logic. The one order-sensitive structure — redirect type
//!   backfill, which the materialized path resolves in a second pass —
//!   becomes a *held-record* protocol: a redirecting record is held by
//!   its worker until its pending entry is consumed (backfill applies),
//!   displaced, or past its horizon (released as-is), mirroring pass-2
//!   semantics record for record. Windows close only at the end of a run,
//!   so partition merges are grouping-independent.
//! * **Poison quarantine.** With a sidecar configured, each record is
//!   processed under `catch_unwind`: a panicking record is appended to
//!   `quarantine.ndjson` (one trace-codec line, replayable) and counted
//!   in [`DegradationReport::poisoned_records`] instead of aborting.
//!   Unparseable-URL records are quarantined to the same sidecar
//!   verbatim.
//! * **Checkpoint/resume.** Every N chunks the router injects a barrier,
//!   announcing whether it rewrites the log: workers ack their cut deltas,
//!   each on a channel of its own (a worker that died is a closed channel,
//!   not a hang), then render the lines of the users a record reached since
//!   the last barrier — a delta of the `page_of` entries it wrote, or the
//!   user whole (every user, at a rewrite) — while the router merges the deltas,
//!   encodes the manifest and *parks* the checkpoint. It goes into the
//!   append-only log `checkpoint.ndjson` right after the next chunk's
//!   batches are sent, or after the loop when it ends on a barrier: one
//!   segment — manifest line, user lines, a checksummed trailer — appended
//!   with one `sync_data`, or, at a run's first barrier and at a compaction,
//!   the whole log rewritten (temp file, fsync, rename, directory fsync). A
//!   killed run resumes from the last segment that validates, applying each
//!   user's lines in log order — at *any* thread count, since restored users
//!   re-route by the same `shard_of` hash ([`crate::shard`]) — and produces
//!   a final report byte-identical to an uninterrupted run. A run holds the
//!   directory's `checkpoint.lock` while it is live, so a second one is
//!   refused ([`StreamError::Locked`]); a quarantine sidecar shorter than the
//!   checkpoint recorded is refused, and so is a trace shorter than its
//!   offset or whose header is not the manifest's; temp files a killed run
//!   left in the checkpoint directory are swept when the next one opens it.
//!
//! Four modules: this one holds the options, the report and the two entry
//! points; `worker` the quarantine sidecar, the held-record protocol and
//! the per-shard worker; `router` the run state and the route / barrier /
//! finalize steps that advance it; `checkpoint` the persisted format.
//!
//! What is folded per record is declared in [`crate::planes`]: workers and
//! router each observe a `Planes`, a cut of either is one, and so is the
//! run's cumulative state. **A plane is added in `planes.rs`** (a field, one
//! `observe` line and one `merge` line) **and in `checkpoint`** (its encode /
//! decode pair).
//! What is counted per user is the user's [`crate::users::UserTally`], kept
//! in its worker state and its checkpoint line; the router sums the users'
//! counters into the run's user table ([`StreamReport::user_table`]).
//!
//! Beside the planes a run folds what its caller passes it, a [`Fold`] over
//! the requests: [`crate::characterize::Figures`], the §6–§8 analyses of the
//! paper, is one; `()` folds nothing.

mod checkpoint;
mod router;
mod worker;

pub use checkpoint::CHECKPOINT_FILE;

use crate::classify::PassiveClassifier;
use crate::degrade::DegradationReport;
use crate::pipeline::{ClassifiedRequest, PipelineOptions};
use crate::population::PopulationReport;
use crate::users::UserAggregate;
use netsim::codec::CodecStats;
use netsim::record::TraceMeta;
use netsim::stream::{ChunkReader, OwnedChunks, StreamChunk};
use obs::window::WindowReport;
use router::{run_stream, RunState};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Errors from the streaming pipeline.
#[derive(Debug)]
pub enum StreamError {
    /// I/O failure on the trace, checkpoint, or quarantine sidecar.
    Io(io::Error),
    /// Trace header decode failure.
    Codec(netsim::codec::CodecError),
    /// Checkpoint missing, malformed, or from an incompatible config.
    Checkpoint(String),
    /// Another live run checkpoints into this directory (it holds the
    /// directory's `checkpoint.lock`).
    Locked(PathBuf),
    /// Invalid option combination.
    Config(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream i/o: {e}"),
            StreamError::Codec(e) => write!(f, "stream codec: {e}"),
            StreamError::Checkpoint(m) => write!(f, "checkpoint: {m}"),
            StreamError::Locked(dir) => write!(
                f,
                "checkpoint: another live run checkpoints into {}",
                dir.display()
            ),
            StreamError::Config(m) => write!(f, "stream config: {m}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<netsim::codec::CodecError> for StreamError {
    fn from(e: netsim::codec::CodecError) -> Self {
        StreamError::Codec(e)
    }
}

fn ck_err(msg: impl Into<String>) -> StreamError {
    StreamError::Checkpoint(msg.into())
}

/// Checkpoint/resume configuration.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory holding `checkpoint.ndjson` (created if missing).
    pub dir: PathBuf,
    /// Write a checkpoint every this many chunks.
    pub every_chunks: u64,
    /// Resume from the directory's checkpoint instead of starting fresh.
    pub resume: bool,
}

impl CheckpointOptions {
    /// Checkpoint into `dir` every 64 chunks, no resume.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointOptions {
        CheckpointOptions {
            dir: dir.into(),
            every_chunks: 64,
            resume: false,
        }
    }
}

/// A caller's mergeable fold over the requests a run classifies. The engine
/// clones the (empty) fold it is handed once per worker; each worker folds the
/// requests it finalizes, and the parts come back merged in worker-index
/// order — so the result must not depend on which part saw which request, in
/// what order, or on the grouping.
pub trait Fold: Clone + Send {
    /// A checkpoint carries nothing of a fold, so a resumed run hands back
    /// only what was folded after it: `true` promises that this loses
    /// nothing — the fold keeps no result, here or anywhere else — and only
    /// then is [`StreamOptions::checkpoint`] accepted beside it.
    const STATELESS: bool = false;
    /// One classified request and its position in the trace's request
    /// order (workers finalize held records out of it).
    fn observe(&mut self, pos: u64, req: &ClassifiedRequest);
    /// Add another part in.
    fn merge(&mut self, part: Self);
}

impl Fold for () {
    const STATELESS: bool = true;
    fn observe(&mut self, _pos: u64, _req: &ClassifiedRequest) {}
    fn merge(&mut self, _part: ()) {}
}

impl<A: Fold, B: Fold> Fold for (A, B) {
    const STATELESS: bool = A::STATELESS && B::STATELESS;
    fn observe(&mut self, pos: u64, req: &ClassifiedRequest) {
        self.0.observe(pos, req);
        self.1.observe(pos, req);
    }
    fn merge(&mut self, part: (A, B)) {
        self.0.merge(part.0);
        self.1.merge(part.1);
    }
}

/// Streaming pipeline configuration.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Stage options, shared with the materialized pipeline.
    pub pipeline: PipelineOptions,
    /// Worker count (0 = available parallelism). Workers and shards are
    /// one-to-one; the count does not affect output.
    pub threads: usize,
    /// Records per decoded chunk (the unit of routing and
    /// checkpointing).
    pub chunk_records: usize,
    /// Checkpoint/resume; requires a seekable trace file.
    pub checkpoint: Option<CheckpointOptions>,
    /// Sidecar for quarantined records (unparseable URLs verbatim,
    /// poisoned records re-encoded from their extracted form). Enables
    /// the per-record panic guard. Line order across workers is not
    /// deterministic.
    pub quarantine_path: Option<PathBuf>,
    /// Stop (as if killed) after this many chunks *this run* — the
    /// kill-and-resume tests' deterministic kill switch.
    pub stop_after_chunks: Option<u64>,
    /// Sleep this long after each chunk (lets external kill tests aim).
    pub throttle_ms: u64,
    /// Test hook: records for this host panic mid-worker, exercising the
    /// poison path.
    pub poison_host: Option<String>,
    /// Server addresses hosting filter-list downloads — the §6.2
    /// download-indicator input: HTTPS flows to these addresses on port 443
    /// mark the client household as a list-downloading one
    /// ([`StreamReport::households`]; Table 3 classes B/C).
    pub abp_ips: Vec<u32>,
    /// Alert rules evaluated over the merged window report at every
    /// checkpoint barrier and at the final merge (empty = alerting off).
    /// Evaluation is a full recompute over the merged report (see
    /// [`obs::AlertEngine::eval_report`]), so the alert timeline is
    /// byte-identical at any thread count, chunk size, or kill/resume
    /// schedule — and identical to the materialized path's. A checkpoint
    /// carries none of it: the config hash covers the pack, and the first
    /// merge after a resume recomputes the timeline from the restored
    /// windows.
    pub alerts: Vec<obs::AlertRule>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            pipeline: PipelineOptions::default(),
            threads: 0,
            chunk_records: 8192,
            checkpoint: None,
            quarantine_path: None,
            stop_after_chunks: None,
            throttle_ms: 0,
            poison_host: None,
            abp_ips: Vec::new(),
            alerts: Vec::new(),
        }
    }
}

/// What a streaming run produces: the same totals, degradation and
/// window series as a materialized [`crate::pipeline::ClassifiedTrace`],
/// without materializing the requests.
#[derive(Debug)]
pub struct StreamReport {
    /// Trace metadata (header or checkpoint).
    pub meta: TraceMeta,
    /// Decode accounting, cumulative across resumes.
    pub codec: CodecStats,
    /// Degradation accounting, cumulative across resumes.
    pub degradation: DegradationReport,
    /// Adscope window series.
    pub windows: WindowReport,
    /// Decode-side window series (records/http/https/bytes per hour).
    pub decode_windows: WindowReport,
    /// Requests classified.
    pub requests: u64,
    /// Ad requests among them.
    pub ad_requests: u64,
    /// Opaque HTTPS flows seen.
    pub https_flows: u64,
    /// Distinct ⟨client IP, User-Agent⟩ users, a missing and an empty UA
    /// apart (the referrer map's users).
    pub users: u64,
    /// The user table: one row per ⟨client IP, User-Agent⟩ user, a missing
    /// UA the empty one, with its exact counters, busiest first —
    /// [`crate::users::aggregate_users`]' table of the same requests, at any
    /// thread count, chunk size or kill/resume schedule. Table 3, Figures
    /// 3–4, §6.3 and the threshold sweep read it.
    pub user_table: Vec<UserAggregate>,
    /// Households (client IPs) seen in a flow to one of
    /// [`StreamOptions::abp_ips`] ([`crate::infer::is_list_download`]).
    pub households: HashSet<u32>,
    /// Chunks processed, cumulative across resumes.
    pub chunks: u64,
    /// Checkpoints written this run.
    pub checkpoints_written: u64,
    /// Byte offset this run resumed from, if it did.
    pub resumed_from: Option<u64>,
    /// True when `stop_after_chunks` fired: the report is partial.
    pub stopped_early: bool,
    /// Population analytics (`None` unless
    /// [`crate::population::PopulationOptions::enabled`]). Built by the
    /// same [`crate::population::PopulationSketches::finish`] as the
    /// materialized path, over the sketches merged in worker-index order, the
    /// households and the user table, so it renders byte-identically at any
    /// thread count, chunk size, or kill/resume schedule.
    pub population: Option<PopulationReport>,
    /// The alert engine after the final evaluation (`None` unless
    /// [`StreamOptions::alerts`] named rules). Its timeline is a pure
    /// function of [`StreamReport::windows`].
    pub alerts: Option<obs::AlertEngine>,
}

impl StreamReport {
    /// Deterministic text rendering: identical for an uninterrupted run
    /// and a kill-and-resume run over the same trace (run-local fields —
    /// checkpoints written, resume offset — are deliberately excluded).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} subscribers {} duration {:.1}s",
            self.meta.name, self.meta.subscribers, self.meta.duration_secs
        );
        let c = &self.codec;
        let _ = writeln!(
            out,
            "codec: records {} skipped {} (json {} schema {} utf8 {} oversize {} io {}) blank {} header_recovered {}",
            c.records_read,
            c.total_skipped(),
            c.skipped_bad_json,
            c.skipped_bad_schema,
            c.skipped_non_utf8,
            c.skipped_oversize,
            c.io_errors,
            c.blank_lines,
            c.header_recovered
        );
        let _ = writeln!(
            out,
            "requests {} ads {} https {} users {} chunks {}",
            self.requests, self.ad_requests, self.https_flows, self.users, self.chunks
        );
        let _ = writeln!(out, "degradation: {}", self.degradation);
        out.push_str("windows adscope:\n");
        out.push_str(&self.windows.render_ndjson("adscope"));
        out.push_str("windows decode:\n");
        out.push_str(&self.decode_windows.render_ndjson("decode"));
        if let Some(p) = &self.population {
            out.push_str("population:\n");
            out.push_str(&p.render());
        }
        if let Some(a) = &self.alerts {
            out.push_str("alerts:\n");
            out.push_str(&a.render_text());
        }
        out
    }
}

/// Stream-classify a trace file, with checkpoint/resume support.
/// Metrics land in `registry`.
pub fn classify_stream_file(
    path: &Path,
    classifier: &PassiveClassifier,
    opts: &StreamOptions,
    registry: &obs::Registry,
) -> Result<StreamReport, StreamError> {
    classify_stream_file_with(path, classifier, opts, registry, ()).map(|(report, ())| report)
}

/// [`classify_stream_file`] folding `fold` (empty as passed) beside the
/// planes. Together with [`StreamOptions::checkpoint`] a fold that is not
/// [`Fold::STATELESS`] is refused.
pub fn classify_stream_file_with<F: Fold>(
    path: &Path,
    classifier: &PassiveClassifier,
    opts: &StreamOptions,
    registry: &obs::Registry,
    fold: F,
) -> Result<(StreamReport, F), StreamError> {
    if opts.checkpoint.is_some() && !F::STATELESS {
        return Err(StreamError::Config(
            "a fold is not checkpointed: checkpointing requires a stateless fold".into(),
        ));
    }
    stream_file(path, classifier, opts, registry, fold)
}

/// [`classify_stream_file_with`] behind its refusal: the resume test folds
/// a collector over a resumed run to see exactly the part a checkpoint drops.
///
/// A resume refuses a trace that cannot be the one the checkpoint was cut
/// from: a file shorter than the checkpoint's offset, or one whose header
/// names other trace metadata than the manifest's. Two traces whose headers
/// are byte-identical are still not told apart.
fn stream_file<F: Fold>(
    path: &Path,
    classifier: &PassiveClassifier,
    opts: &StreamOptions,
    registry: &obs::Registry,
    fold: F,
) -> Result<(StreamReport, F), StreamError> {
    let total_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    // Held until the run returns, and taken first: a second live run on
    // the directory is refused before it could sweep this one's temp file
    // or replace its log.
    let _lock = match &opts.checkpoint {
        Some(ck) => {
            let lock = checkpoint::lock_dir(&ck.dir)?;
            // What a run killed mid-rewrite left behind: one log-sized temp
            // file per kill, which nothing else ever removes.
            obs::sweep_temp_files(&ck.dir.join(CHECKPOINT_FILE))?;
            Some(lock)
        }
        None => None,
    };
    let (reader, state) = match &opts.checkpoint {
        Some(ck) if ck.resume => {
            let state = checkpoint::load_checkpoint(&ck.dir, opts)?;
            let mut f = File::open(path)?;
            let len = f.metadata()?.len();
            if len < state.offset {
                let at = state.offset;
                return Err(ck_err(format!(
                    "the trace holds {len} bytes, the checkpoint resumes at {at}"
                )));
            }
            if *ChunkReader::with_registry(&f, 1, registry)?.meta() != state.meta {
                return Err(ck_err("the trace's header is not the checkpointed trace's"));
            }
            f.seek(SeekFrom::Start(state.offset))?;
            let (meta, at) = (state.meta.clone(), state.offset);
            // A checkpoint is cut on a chunk boundary: the next chunk's
            // sequence number is the count of chunks done.
            let reader =
                ChunkReader::resume(f, meta, at, state.chunks, opts.chunk_records, registry);
            (reader, state)
        }
        _ => {
            let reader =
                ChunkReader::with_registry(File::open(path)?, opts.chunk_records, registry)?;
            let state = RunState::new(reader.meta().clone(), opts);
            (reader, state)
        }
    };
    run_stream(reader, state, classifier, opts, registry, total_bytes, fold)
}

/// Stream-classify an in-memory chunk source (e.g. a generator bridge),
/// folding `fold` (empty as passed) beside the planes. Checkpointing
/// requires byte offsets, so it is rejected here.
pub fn classify_stream_chunks<I, F>(
    chunks: I,
    meta: TraceMeta,
    classifier: &PassiveClassifier,
    opts: &StreamOptions,
    registry: &obs::Registry,
    fold: F,
) -> Result<(StreamReport, F), StreamError>
where
    I: Iterator<Item = StreamChunk>,
    F: Fold,
{
    if opts.checkpoint.is_some() {
        return Err(StreamError::Config(
            "checkpointing requires a seekable trace file".into(),
        ));
    }
    let (source, state) = (OwnedChunks(chunks), RunState::new(meta, opts));
    run_stream(source, state, classifier, opts, registry, 0, fold)
}

/// Trace builders and option presets the in-file tests of this module
/// and its children share.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::pipeline::classify_trace;
    use abp_filter::FilterList;
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::{HttpTransaction, Method};
    use netsim::record::{Trace, TraceRecord};

    pub(crate) fn classifier() -> PassiveClassifier {
        PassiveClassifier::new(vec![
            FilterList::parse(
                "easylist",
                "||ads.example^$third-party\n/banners/\n@@*callback=ok*\n",
            ),
            FilterList::parse("easyprivacy", "/pixel/\n"),
        ])
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tx(
        ts: f64,
        client: u32,
        ua: Option<&str>,
        host: &str,
        uri: &str,
        referer: Option<&str>,
        location: Option<&str>,
        ct: Option<&str>,
    ) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts,
            client_ip: client,
            server_ip: 1,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.into(),
                uri: uri.into(),
                referer: referer.map(str::to_string),
                user_agent: ua.map(str::to_string),
            },
            response: ResponseHeaders {
                status: if location.is_some() { 302 } else { 200 },
                content_type: ct.map(str::to_string),
                content_length: Some(100),
                location: location.map(str::to_string),
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 4.0,
        })
    }

    /// A trace exercising every held-record path: referer chains,
    /// redirect repair (consumed, displaced, and never-arriving),
    /// missing content types, unparseable URLs, and multiple users.
    pub(crate) fn messy_trace(n: usize) -> Trace {
        let mut records = Vec::new();
        for i in 0..n {
            let t = i as f64 * 0.37;
            let client = (i % 5) as u32;
            let ua = match i % 3 {
                0 => Some("UA-A"),
                1 => Some("UA-B"),
                _ => None,
            };
            match i % 8 {
                0 => records.push(tx(
                    t,
                    client,
                    ua,
                    "pub.example",
                    "/",
                    None,
                    None,
                    Some("text/html"),
                )),
                1 => records.push(tx(
                    t,
                    client,
                    ua,
                    "exchange.example",
                    &format!("/r?id={i}"),
                    Some("http://pub.example/"),
                    Some(&format!("http://ads.example/banner{}.gif", i % 16)),
                    None,
                )),
                2 => records.push(tx(
                    t,
                    client,
                    ua,
                    "ads.example",
                    &format!("/banner{}.gif", (i.wrapping_sub(8)) % 16),
                    None,
                    None,
                    None,
                )),
                3 => records.push(tx(
                    t,
                    client,
                    ua,
                    "x.example",
                    &format!("/banners/{i}.gif"),
                    Some("http://pub.example/"),
                    None,
                    Some("image/gif"),
                )),
                4 => records.push(tx(t, client, ua, "", "/unparseable", None, None, None)),
                5 => records.push(netsim::record::TraceRecord::Https(
                    netsim::record::TlsConnection {
                        ts: t,
                        client_ip: client,
                        server_ip: 9,
                        server_port: 443,
                        bytes: 4242,
                    },
                )),
                6 => records.push(tx(
                    t,
                    client,
                    ua,
                    "cdn.example",
                    &format!("/lib{i}.js"),
                    Some("http://pub.example/"),
                    None,
                    Some("application/javascript"),
                )),
                _ => records.push(tx(
                    t,
                    client,
                    ua,
                    "track.example",
                    &format!("/pixel/{i}?callback=ok"),
                    None,
                    None,
                    None,
                )),
            }
        }
        Trace {
            meta: TraceMeta {
                name: "stream-t".into(),
                duration_secs: n as f64 * 0.37,
                subscribers: 5,
                start_hour: 3,
                start_weekday: 1,
            },
            records,
        }
    }

    pub(crate) fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("adscope-stream-{}-{tag}", std::process::id()));
        p
    }

    pub(crate) fn write_trace_file(trace: &Trace, tag: &str) -> PathBuf {
        let path = temp_path(tag);
        let f = File::create(&path).unwrap();
        netsim::codec::write_trace(trace, f).unwrap();
        path
    }

    /// The materialized reference under default options.
    pub(crate) fn reference(trace: &Trace) -> crate::pipeline::ClassifiedTrace {
        classify_trace(trace, &classifier(), PipelineOptions::default())
    }

    pub(crate) fn stream_opts(threads: usize, chunk: usize) -> StreamOptions {
        StreamOptions {
            threads,
            chunk_records: chunk,
            ..StreamOptions::default()
        }
    }

    /// Every request a run finalized, by trace position.
    #[derive(Clone, Default)]
    pub(crate) struct Collect(pub(crate) Vec<(u64, ClassifiedRequest)>);

    impl Fold for Collect {
        fn observe(&mut self, pos: u64, req: &ClassifiedRequest) {
            self.0.push((pos, req.clone()));
        }
        fn merge(&mut self, part: Collect) {
            self.0.extend(part.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::characterize::Figures;
    use crate::infer::households_with_downloads;
    use crate::users::aggregate_users;
    use std::fs;

    #[test]
    fn streaming_matches_materialized_at_any_thread_count() {
        let trace = messy_trace(240);
        let seq = reference(&trace);
        let path = write_trace_file(&trace, "equiv");
        let want = Figures::of_trace(&seq);
        for threads in [1usize, 2, 4] {
            let reg = obs::Registry::new();
            let opts = StreamOptions {
                abp_ips: vec![9],
                ..stream_opts(threads, 17)
            };
            let (rep, got) =
                classify_stream_file_with(&path, &classifier(), &opts, &reg, Figures::new())
                    .unwrap();
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(rep.user_table, aggregate_users(&seq), "threads={threads}");
            let households = households_with_downloads(&seq.https_flows, &[9]);
            assert_eq!(rep.households, households, "threads={threads}");
            assert_eq!(rep.degradation, seq.degradation, "threads={threads}");
            assert_eq!(rep.windows, seq.windows, "threads={threads}");
            assert_eq!(rep.https_flows as usize, seq.https_flows.len());
            assert_eq!(rep.requests as usize, seq.requests.len());
        }
        let _ = fs::remove_file(&path);
    }
    #[test]
    fn generator_chunk_source_classifies_without_a_file() {
        let trace = messy_trace(120);
        let seq = reference(&trace);
        let meta = trace.meta.clone();
        let records = trace.records;
        let chunks = records
            .chunks(13)
            .enumerate()
            .map(|(i, batch)| StreamChunk::in_memory(i as u64, batch.to_vec()));
        let mut o = StreamOptions {
            abp_ips: vec![9],
            ..stream_opts(4, 13)
        };
        let reg = obs::Registry::new();
        let (rep, got) =
            classify_stream_chunks(chunks, meta, &classifier(), &o, &reg, Figures::new()).unwrap();
        assert_eq!(got, Figures::of_trace(&seq));
        assert_eq!(rep.user_table, aggregate_users(&seq));
        let households = households_with_downloads(&seq.https_flows, &[9]);
        assert_eq!(rep.households, households);
        assert_eq!(rep.windows, seq.windows);

        // ... but checkpointing without a file is refused, and so is a fold
        // that holds state together with a checkpoint.
        o.checkpoint = Some(CheckpointOptions::new(temp_path("nope")));
        let path = write_trace_file(&messy_trace(8), "fold-ck");
        let err = classify_stream_file_with(&path, &classifier(), &o, &reg, Figures::new());
        assert!(matches!(err, Err(StreamError::Config(_))));
        let _ = fs::remove_file(&path);
        let err = classify_stream_chunks(
            std::iter::empty(),
            TraceMeta {
                name: "x".into(),
                duration_secs: 0.0,
                subscribers: 0,
                start_hour: 0,
                start_weekday: 0,
            },
            &classifier(),
            &o,
            &reg,
            (),
        );
        assert!(matches!(err, Err(StreamError::Config(_))));
    }

    /// Windows close only at the end of a run, in the oracle as in the
    /// stream: under default options a record more than an hour behind the
    /// highest timestamp lands in its window on both paths.
    #[test]
    fn the_oracle_under_default_options_windows_like_the_stream() {
        let mut trace = messy_trace(120);
        let page = |ts, client| {
            tx(
                ts,
                client,
                Some("UA-A"),
                "pub.example",
                "/",
                None,
                None,
                Some("text/html"),
            )
        };
        trace.records.push(page(10_000.0, 1));
        trace.records.push(page(1.0, 2));
        let seq =
            crate::pipeline::classify_trace(&trace, &classifier(), PipelineOptions::default());
        let path = write_trace_file(&trace, "late-by-an-hour");
        let rep = classify_stream_file(
            &path,
            &classifier(),
            &stream_opts(2, 16),
            &obs::Registry::new(),
        )
        .unwrap();
        assert_eq!(rep.windows, seq.windows);
        assert_eq!(seq.windows.late, 0);
        assert_eq!(seq.windows.total("requests") as usize, seq.requests.len());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn stream_metrics_and_window_publish() {
        let trace = messy_trace(96);
        let path = write_trace_file(&trace, "metrics");
        let reg = obs::Registry::new();
        let rep = classify_stream_file(&path, &classifier(), &stream_opts(2, 8), &reg).unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("adscope_requests_classified_total", &[]),
            rep.requests
        );
        let windows = rep.windows.render_ndjson("adscope");
        let body = windows + &rep.decode_windows.render_ndjson("decode");
        assert_eq!(reg.body("/windows"), body);
        let _ = fs::remove_file(&path);
    }
    /// A resume refuses a trace that is not the checkpoint's: the same trace
    /// cut short of the checkpoint's offset, and another trace, whose header
    /// differs. Each used to resume to a report of some other trace.
    #[test]
    fn resume_refuses_a_trace_that_is_not_the_checkpoints() {
        let path = write_trace_file(&messy_trace(300), "wrong-trace");
        let dir = temp_path("wrong-trace-ck");
        let _ = fs::remove_dir_all(&dir);
        let mut o = stream_opts(2, 16);
        o.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 1,
            resume: false,
        });
        o.stop_after_chunks = Some(8);
        classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap();
        (o.stop_after_chunks, o.checkpoint.as_mut().unwrap().resume) = (None, true);

        let bytes = fs::read(&path).unwrap();
        let cut = temp_path("wrong-trace-cut");
        fs::write(&cut, &bytes[..bytes.len() / 4]).unwrap();
        let other = write_trace_file(&messy_trace(400), "wrong-trace-other");
        for (what, trace, says) in [
            ("cut to a quarter", &cut, "the checkpoint resumes at"),
            ("another trace", &other, "header"),
        ] {
            match classify_stream_file(trace, &classifier(), &o, &obs::Registry::new()) {
                Err(StreamError::Checkpoint(msg)) => assert!(msg.contains(says), "{what}: {msg}"),
                got => panic!("{what}: resumed to {:?}", got.map(|r| r.requests)),
            }
        }
        // The checkpoint's own trace still resumes.
        let got = classify_stream_file(&path, &classifier(), &o, &obs::Registry::new());
        assert!(got.unwrap().resumed_from.is_some());
        let _ = fs::remove_dir_all(&dir);
        for f in [path, cut, other] {
            let _ = fs::remove_file(f);
        }
    }

    /// A referer that is valid UTF-8 and valid JSON but has a multi-byte
    /// char where the scheme test ends used to panic `Url::parse` on the
    /// router thread; it is one unparseable referer.
    #[test]
    fn multibyte_char_at_the_scheme_boundary_is_an_unparseable_referer() {
        let mut trace = messy_trace(40);
        let before = reference(&trace).degradation.unparseable_referers;
        trace.records.push(tx(
            99.0,
            1,
            Some("UA-A"),
            "www.friendly025.example",
            "/",
            Some("http:/é/www.friendly025.example/"),
            None,
            Some("text/html"),
        ));
        let path = write_trace_file(&trace, "multibyte-referer");
        let rep = classify_stream_file(
            &path,
            &classifier(),
            &stream_opts(1, 16),
            &obs::Registry::new(),
        )
        .unwrap();
        let seq = reference(&trace);
        assert_eq!(rep.degradation.unparseable_referers, before + 1);
        assert_eq!(rep.degradation, seq.degradation);
        assert_eq!(rep.requests as usize, seq.requests.len());
        let _ = fs::remove_file(&path);
    }
}
