//! Streaming fault-tolerant classification — the bounded-memory dataflow.
//!
//! The materialized pipeline ([`crate::pipeline`]) decodes the whole
//! trace into a `Vec` before classifying. At the
//! paper's scale (RBN-2: ~3 weeks of DSL traffic) that footprint is the
//! limiting factor, and a fault anywhere loses the whole run. This
//! module restructures the same stages as a streaming dataflow:
//!
//! ```text
//!   ChunkReader ──► router (caller thread)             ┌► worker 0 ─┐
//!     decode         extract + out-of-order pre-pass ──┼► worker 1 ─┼─► merge
//!     chunk-by-      + decode windows + shard routing  └► worker N ─┘
//!     chunk
//! ```
//!
//! * **Bounded memory.** Records flow through [`parallel::bounded`]
//!   channels of a few chunks each; a full queue blocks the router
//!   (backpressure) instead of buffering, so resident state is the
//!   per-user referrer maps plus a few in-flight chunks — flat in trace
//!   length.
//! * **Identical output.** Workers run the exact sequential per-user
//!   stage logic. The one order-sensitive structure — redirect type
//!   backfill, which the materialized path resolves in a second pass —
//!   becomes a *held-record* protocol: a redirecting record is held by
//!   its worker until its pending entry is consumed (backfill applies),
//!   displaced, or evicted (released as-is), mirroring pass-2 semantics
//!   record for record. Streaming windows always run with an infinite
//!   watermark so partition merges are grouping-independent; compare
//!   against a materialized run configured the same way.
//! * **Poison quarantine.** With a sidecar configured, each record is
//!   processed under `catch_unwind`: a panicking record is appended to
//!   `quarantine.ndjson` (one trace-codec line, replayable) and counted
//!   in [`DegradationReport::poisoned_records`] instead of aborting.
//!   Unparseable-URL records are quarantined to the same sidecar
//!   verbatim.
//! * **Checkpoint/resume.** Every N chunks the router injects a barrier:
//!   workers cut their window deltas and serialize per-user state; the
//!   router writes `checkpoint.ndjson` (manifest line + one line per
//!   user) atomically via rename. A killed run resumes from the last
//!   checkpoint — at *any* thread count, since restored users re-route
//!   by the same [`crate::shard::shard_of`] hash — and produces a final
//!   report byte-identical to an uninterrupted run.

use crate::classify::PassiveClassifier;
use crate::content::infer_category_traced;
use crate::degrade::DegradationReport;
use crate::extract::{extract_one, WebObject};
use crate::intern::Interner;
use crate::normalize::UrlNormalizer;
use crate::pipeline::{ClassifiedRequest, PipelineOptions};
use crate::population::{self, PopulationReport, PopulationSketches, UserTally};
use crate::refmap::{RefMap, RefMapOptions};
use crate::shard::shard_of;
use crate::window::{WindowAggregator, COUNTERS as ADSCOPE_COUNTERS, RTB_HIST};
use http_model::{ContentCategory, Url};
use netsim::codec::{record_to_json, CodecStats, DecodeWindows, FORMAT_VERSION};
use netsim::json::{self, Value};
use netsim::record::{TraceMeta, TraceRecord};
use netsim::stream::{ChunkReader, StreamChunk};
use obs::sketch::{Distinct64, QuantileSketch, TopK, QUANTILE_GAMMA};
use obs::window::{ClosedWindow, WindowReport};
use obs::HistogramSnapshot;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Checkpoint file name inside the checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.ndjson";
/// Manifest schema version (bumped on incompatible layout changes).
const CHECKPOINT_VERSION: u64 = 1;
/// Manifest `kind` tag.
const CHECKPOINT_KIND: &str = "annoyed-users-checkpoint";
/// Counter series a decode window carries (mirrors
/// `netsim::codec::DecodeWindows`; checkpoint deserialization maps names
/// back onto these statics).
const DECODE_COUNTERS: &[&str] = &["records", "http", "https", "bytes"];

/// Errors from the streaming pipeline.
#[derive(Debug)]
pub enum StreamError {
    /// I/O failure on the trace, checkpoint, or quarantine sidecar.
    Io(io::Error),
    /// Trace header decode failure.
    Codec(netsim::codec::CodecError),
    /// Checkpoint missing, malformed, or from an incompatible config.
    Checkpoint(String),
    /// Invalid option combination.
    Config(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream i/o: {e}"),
            StreamError::Codec(e) => write!(f, "stream codec: {e}"),
            StreamError::Checkpoint(m) => write!(f, "checkpoint: {m}"),
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

/// Streaming pipeline configuration.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Stage options, shared with the materialized pipeline. The window
    /// watermark is forced to infinity in streaming mode (see module
    /// docs).
    pub pipeline: PipelineOptions,
    /// Worker count (0 = available parallelism). Workers and shards are
    /// one-to-one; the count does not affect output.
    pub threads: usize,
    /// Records per decoded chunk (the unit of routing and
    /// checkpointing).
    pub chunk_records: usize,
    /// Bounded channel capacity, in batches, per worker. A full queue
    /// blocks the router — this is the backpressure knob.
    pub channel_capacity: usize,
    /// Checkpoint/resume; requires a seekable trace file.
    pub checkpoint: Option<CheckpointOptions>,
    /// Sidecar for quarantined records (unparseable URLs verbatim,
    /// poisoned records re-encoded from their extracted form). Enables
    /// the per-record panic guard. Line order across workers is not
    /// deterministic.
    pub quarantine_path: Option<PathBuf>,
    /// Collect `(position, request)` pairs into the report (equivalence
    /// tests; defeats bounded memory).
    pub collect_requests: bool,
    /// Stop (as if killed) after this many chunks *this run* — the
    /// kill-and-resume tests' deterministic kill switch.
    pub stop_after_chunks: Option<u64>,
    /// Sleep this long after each chunk (lets external kill tests aim).
    pub throttle_ms: u64,
    /// Test hook: records for this host panic mid-worker, exercising the
    /// poison path.
    pub poison_host: Option<String>,
    /// Test hook: after routing this many chunks, the router sleeps
    /// [`StreamOptions::stall_ms`] once — a deterministic injected
    /// stall for the health-plane watchdog checks.
    pub stall_after_chunks: Option<u64>,
    /// How long the injected stall lasts (milliseconds).
    pub stall_ms: u64,
    /// Server addresses hosting filter-list downloads — the §6.2
    /// download-indicator input. Only consulted when
    /// [`crate::population::PopulationOptions::enabled`]: HTTPS flows to
    /// these addresses on port 443 mark the client household as a
    /// list-downloading one (Table 3 classes B/C).
    pub abp_ips: Vec<u32>,
    /// Alert rules evaluated over the merged window report at every
    /// checkpoint barrier and at the final merge (empty = alerting off).
    /// Evaluation is a full recompute over the merged report (see
    /// [`obs::AlertEngine::eval_report`]), so the alert timeline is
    /// byte-identical at any thread count, chunk size, or kill/resume
    /// schedule — and identical to the materialized path's.
    pub alerts: Vec<obs::AlertRule>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            pipeline: PipelineOptions::default(),
            threads: 0,
            chunk_records: 8192,
            channel_capacity: 4,
            checkpoint: None,
            quarantine_path: None,
            collect_requests: false,
            stop_after_chunks: None,
            throttle_ms: 0,
            poison_host: None,
            stall_after_chunks: None,
            stall_ms: 0,
            abp_ips: Vec::new(),
            alerts: Vec::new(),
        }
    }
}

/// What a streaming run produces: the same totals, degradation and
/// window series as a materialized [`crate::pipeline::ClassifiedTrace`],
/// without materializing the requests (unless
/// [`StreamOptions::collect_requests`] asked for them).
#[derive(Debug)]
pub struct StreamReport {
    /// Trace metadata (header or checkpoint).
    pub meta: TraceMeta,
    /// Decode accounting, cumulative across resumes.
    pub codec: CodecStats,
    /// Degradation accounting, cumulative across resumes.
    pub degradation: DegradationReport,
    /// Adscope window series (infinite watermark).
    pub windows: WindowReport,
    /// Decode-side window series (records/http/https/bytes per hour).
    pub decode_windows: WindowReport,
    /// Requests classified.
    pub requests: u64,
    /// Ad requests among them.
    pub ad_requests: u64,
    /// Opaque HTTPS flows seen.
    pub https_flows: u64,
    /// Distinct ⟨client IP, User-Agent⟩ users.
    pub users: u64,
    /// Chunks processed, cumulative across resumes.
    pub chunks: u64,
    /// Checkpoints written this run.
    pub checkpoints_written: u64,
    /// Byte offset this run resumed from, if it did.
    pub resumed_from: Option<u64>,
    /// True when `stop_after_chunks` fired: the report is partial.
    pub stopped_early: bool,
    /// Classified requests tagged with global position, sorted, when
    /// collection was requested.
    pub collected: Option<Vec<(u64, ClassifiedRequest)>>,
    /// Population analytics (`None` unless
    /// [`crate::population::PopulationOptions::enabled`]). Built by the
    /// same [`crate::population::finish`] as the materialized path, over
    /// sketch/tally state merged in worker-index order, so it renders
    /// byte-identically at any thread count, chunk size, or
    /// kill/resume schedule.
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

// ---------------------------------------------------------------------------
// Quarantine sidecar
// ---------------------------------------------------------------------------

struct QuarantineInner {
    w: BufWriter<File>,
    bytes: u64,
}

/// Shared append-only sidecar of quarantined records. Byte length is
/// tracked so the checkpoint manifest can record a truncation point:
/// resume truncates back to it, so replayed chunks cannot duplicate
/// lines.
struct Quarantine {
    inner: Mutex<QuarantineInner>,
}

impl Quarantine {
    fn open(path: &Path, truncate_to: u64) -> io::Result<Quarantine> {
        // Not truncated wholesale: resume truncates to the recorded
        // length via `set_len` below.
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        f.set_len(truncate_to)?;
        f.seek(SeekFrom::Start(truncate_to))?;
        Ok(Quarantine {
            inner: Mutex::new(QuarantineInner {
                w: BufWriter::new(f),
                bytes: truncate_to,
            }),
        })
    }

    /// Append one record line. Sidecar write failures are swallowed (the
    /// run must not die trying to report a record that already failed).
    fn write_line(&self, line: &str) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if g.w
            .write_all(line.as_bytes())
            .and_then(|()| g.w.write_all(b"\n"))
            .is_ok()
        {
            g.bytes += line.len() as u64 + 1;
        }
    }

    /// Flush and return the durable byte length (checkpoint barriers).
    fn flush_bytes(&self) -> io::Result<u64> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.w.flush()?;
        Ok(g.bytes)
    }
}

/// Re-encode an extracted object as a trace record for the quarantine
/// sidecar. Lossy where extraction was (method, server port), but
/// replayable through the trace codec.
fn reconstruct_record(obj: &WebObject) -> TraceRecord {
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::{HttpTransaction, Method};
    let uri = match obj.url.query() {
        Some(q) => format!("{}?{}", obj.url.path(), q),
        None => obj.url.path().to_string(),
    };
    TraceRecord::Http(HttpTransaction {
        ts: obj.ts,
        client_ip: obj.client_ip,
        server_ip: obj.server_ip,
        server_port: 80,
        method: Method::Get,
        request: RequestHeaders {
            host: obj.url.host().to_string(),
            uri,
            referer: obj.referer.as_ref().map(Url::as_string),
            user_agent: obj.user_agent.as_deref().map(str::to_string),
        },
        response: ResponseHeaders {
            status: obj.status,
            content_type: obj.content_type.as_deref().map(str::to_string),
            content_length: Some(obj.bytes),
            location: obj.location.as_ref().map(Url::as_string),
        },
        tcp_handshake_ms: obj.tcp_handshake_ms,
        http_handshake_ms: obj.http_handshake_ms,
    })
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// A record held by its worker pending redirect-type backfill: the
/// record inserted a pending redirect, so a later record may overwrite
/// its category (sequential pass-2 semantics, resolved incrementally).
struct HeldRecord {
    pos: u64,
    page: Option<Url>,
    category: ContentCategory,
    obj: WebObject,
}

struct UserState {
    map: RefMap,
    held: HashMap<usize, HeldRecord>,
}

impl UserState {
    fn fresh(opts: RefMapOptions) -> UserState {
        UserState {
            // `restore` with empty state is `new` plus release tracking,
            // which the held-record protocol needs.
            map: RefMap::restore(opts, HashMap::new(), HashMap::new(), None, 0, 0, true),
            held: HashMap::new(),
        }
    }
}

/// The classify half of a worker, split from the user-state map so
/// borrow of one user's state and the shared counters can coexist.
struct Core<'a> {
    classifier: &'a PassiveClassifier,
    normalizer: &'a UrlNormalizer,
    opts: PipelineOptions,
    windows: WindowAggregator,
    refmap_misses: u64,
    content_type_fallbacks: u64,
    poisoned: u64,
    requests: u64,
    ads: u64,
    collect: bool,
    collected: Vec<(u64, ClassifiedRequest)>,
    /// Population sketch + exact per-user tally state (present only
    /// when [`crate::population::PopulationOptions::enabled`]).
    population: Option<PopulationState>,
    /// Reusable classify scratch: the match path allocates nothing per
    /// record under the compiled engine.
    scratch: abp_filter::ClassifyScratch,
}

/// A worker's population-analytics accumulator: the mergeable sketches
/// plus the exact per-⟨IP, UA⟩ tallies behind Table 3. Tally keys use
/// the interned UA handle so per-record upkeep is a refcount bump, not a
/// string allocation; absent UAs share one empty handle to keep the
/// `aggregate_users` merge semantics (None and "" are the same user).
struct PopulationState {
    sketches: PopulationSketches,
    tallies: HashMap<(u32, std::sync::Arc<str>), UserTally>,
    empty_ua: std::sync::Arc<str>,
}

impl PopulationState {
    fn new(opts: crate::population::PopulationOptions) -> PopulationState {
        PopulationState {
            sketches: PopulationSketches::new(opts),
            tallies: HashMap::new(),
            empty_ua: std::sync::Arc::from(""),
        }
    }

    fn observe(&mut self, req: &ClassifiedRequest) {
        self.sketches.observe(req);
        let ua = match &req.user_agent {
            Some(ua) => std::sync::Arc::clone(ua),
            None => std::sync::Arc::clone(&self.empty_ua),
        };
        self.tallies
            .entry((req.client_ip, ua))
            .or_insert_with(|| UserTally::for_agent(req.user_agent.as_deref().unwrap_or("")))
            .observe(req);
    }

    /// Take the delta since the last cut, leaving fresh state behind.
    fn cut(&mut self, opts: crate::population::PopulationOptions) -> PopulationDelta {
        PopulationDelta {
            sketches: std::mem::replace(&mut self.sketches, PopulationSketches::new(opts)),
            tallies: self.tallies.drain().collect(),
        }
    }
}

impl Core<'_> {
    /// Classify a record whose category is now final and fold it into
    /// the worker's totals. Every record passes here exactly once.
    fn finalize(&mut self, h: HeldRecord) {
        if h.obj.content_type.is_none() && h.category != ContentCategory::Other {
            self.content_type_fallbacks += 1;
        }
        let url = self.normalizer.normalize_owned(h.obj.url);
        let (label, c) = self.classifier.classify_traced_in(
            &url,
            h.page.as_ref(),
            h.category,
            &mut self.scratch,
        );
        let rule = self.classifier.primary_rule(&c);
        let req = ClassifiedRequest {
            ts: h.obj.ts,
            client_ip: h.obj.client_ip,
            server_ip: h.obj.server_ip,
            url,
            page: h.page,
            category: h.category,
            content_type: h.obj.content_type,
            bytes: h.obj.bytes,
            user_agent: h.obj.user_agent,
            tcp_handshake_ms: h.obj.tcp_handshake_ms,
            http_handshake_ms: h.obj.http_handshake_ms,
            label,
            rule,
        };
        self.requests += 1;
        if req.label.is_ad() {
            self.ads += 1;
        }
        self.windows.observe(&req);
        if let Some(pop) = &mut self.population {
            pop.observe(&req);
        }
        if self.collect {
            self.collected.push((h.pos, req));
        }
    }
}

enum ToWorker {
    /// `(global position, object)` pairs, in global time order
    /// restricted to this worker's users.
    Batch(Vec<(u64, WebObject)>),
    /// Checkpoint barrier: cut windows, serialize state, ack.
    Barrier(u64),
}

/// A worker's population delta since its last cut: sketch state plus
/// the drained per-user tallies. Deltas merge additively on the router,
/// mirroring the window-delta protocol.
struct PopulationDelta {
    sketches: PopulationSketches,
    tallies: Vec<((u32, Arc<str>), UserTally)>,
}

/// Barrier ack: window delta since the last cut, counter totals since
/// worker start, and the serialized per-user state lines.
struct WorkerAck {
    windows: WindowReport,
    refmap_misses: u64,
    content_type_fallbacks: u64,
    poisoned: u64,
    requests: u64,
    ads: u64,
    state_lines: Vec<String>,
    population: Option<PopulationDelta>,
}

/// End-of-stream result: residual window delta, counter totals, and the
/// state-derived tallies (users, broken chains).
struct WorkerFinal {
    windows: WindowReport,
    refmap_misses: u64,
    content_type_fallbacks: u64,
    poisoned: u64,
    requests: u64,
    ads: u64,
    users: u64,
    broken_redirect_chains: u64,
    collected: Vec<(u64, ClassifiedRequest)>,
    population: Option<PopulationDelta>,
}

struct Worker<'a> {
    users: HashMap<(u32, Option<Arc<str>>), UserState>,
    core: Core<'a>,
    quarantine: Option<Arc<Quarantine>>,
    poison_host: Option<&'a str>,
}

impl<'a> Worker<'a> {
    fn new(
        classifier: &'a PassiveClassifier,
        normalizer: &'a UrlNormalizer,
        opts: PipelineOptions,
        collect: bool,
        quarantine: Option<Arc<Quarantine>>,
        poison_host: Option<&'a str>,
        restored: Vec<RestoredUser>,
    ) -> Worker<'a> {
        let mut users = HashMap::with_capacity(restored.len());
        for u in restored {
            let mut held = HashMap::with_capacity(u.held.len());
            for h in u.held {
                held.insert(h.obj.idx, h);
            }
            users.insert((u.client_ip, u.user_agent), UserState { map: u.map, held });
        }
        Worker {
            users,
            core: Core {
                classifier,
                normalizer,
                opts,
                windows: WindowAggregator::new(opts.window),
                refmap_misses: 0,
                content_type_fallbacks: 0,
                poisoned: 0,
                requests: 0,
                ads: 0,
                collect,
                collected: Vec::new(),
                population: opts
                    .population
                    .enabled
                    .then(|| PopulationState::new(opts.population)),
                scratch: abp_filter::ClassifyScratch::new(),
            },
            quarantine,
            poison_host,
        }
    }

    /// One record through refmap → category → held-record resolution.
    /// Mirrors the materialized passes 1+2 incrementally (see module
    /// docs); the equivalence suite pins the two together.
    fn process_record(&mut self, pos: u64, obj: WebObject) {
        if let Some(ph) = self.poison_host {
            assert!(obj.url.host() != ph, "poison host hit: {}", obj.url.host());
        }
        let refmap_opts = self.core.opts.refmap;
        let key = (obj.client_ip, obj.user_agent.clone());
        let state = self
            .users
            .entry(key)
            .or_insert_with(|| UserState::fresh(refmap_opts));
        let entry = state.map.process(&obj);
        let released = state.map.take_released();
        let (cat, _src) = infer_category_traced(
            &obj.url,
            obj.content_type.as_deref(),
            self.core.opts.content,
        );
        if entry.ctx.page.is_none() {
            self.core.refmap_misses += 1;
        }
        // Consume: this record stitched a redirect chain — backfill the
        // held redirecting record with this record's provisional
        // category and finalize it.
        if let Some(idx) = entry.backfill_type_to {
            if let Some(mut h) = state.held.remove(&idx) {
                if cat != ContentCategory::Other {
                    h.category = cat;
                }
                self.core.finalize(h);
            }
        }
        // Displaced or evicted pendings can never be backfilled —
        // release their holds as-is.
        for idx in released {
            if let Some(h) = state.held.remove(&idx) {
                self.core.finalize(h);
            }
        }
        let rec = HeldRecord {
            pos,
            page: entry.ctx.page,
            category: cat,
            obj,
        };
        if refmap_opts.redirect_repair && rec.obj.location.is_some() {
            state.held.insert(rec.obj.idx, rec);
        } else {
            self.core.finalize(rec);
        }
    }

    /// Process with the poison guard when quarantine or the poison hook
    /// is active; otherwise the bare hot path (no clone, no landing
    /// pad).
    fn handle(&mut self, pos: u64, obj: WebObject) {
        if self.quarantine.is_none() && self.poison_host.is_none() {
            self.process_record(pos, obj);
            return;
        }
        let ts = obj.ts;
        let backup = self.quarantine.as_ref().map(|_| obj.clone());
        let res = catch_unwind(AssertUnwindSafe(|| self.process_record(pos, obj)));
        if res.is_err() {
            self.core.poisoned += 1;
            self.core.windows.observe_quarantined(ts);
            if let (Some(q), Some(b)) = (self.quarantine.as_ref(), backup) {
                q.write_line(&record_to_json(&reconstruct_record(&b)));
            }
        }
    }

    fn barrier_ack(&mut self) -> WorkerAck {
        let mut state_lines = Vec::with_capacity(self.users.len());
        for (key, st) in &self.users {
            state_lines.push(serialize_user(key, st));
        }
        let popts = self.core.opts.population;
        WorkerAck {
            windows: self.core.windows.cut(),
            refmap_misses: self.core.refmap_misses,
            content_type_fallbacks: self.core.content_type_fallbacks,
            poisoned: self.core.poisoned,
            requests: self.core.requests,
            ads: self.core.ads,
            state_lines,
            population: self.core.population.as_mut().map(|p| p.cut(popts)),
        }
    }

    fn finish(mut self) -> WorkerFinal {
        // End of stream: held records whose backfill never came are
        // finalized as-is (their chains stayed broken), in position
        // order.
        let mut leftovers: Vec<HeldRecord> = self
            .users
            .values_mut()
            .flat_map(|s| s.held.drain().map(|(_, h)| h))
            .collect();
        leftovers.sort_by_key(|h| h.pos);
        for h in leftovers {
            self.core.finalize(h);
        }
        let mut broken = 0u64;
        for st in self.users.values() {
            broken += (st.map.redirects_inserted() - st.map.redirects_consumed()) as u64;
        }
        let popts = self.core.opts.population;
        WorkerFinal {
            windows: self.core.windows.cut(),
            refmap_misses: self.core.refmap_misses,
            content_type_fallbacks: self.core.content_type_fallbacks,
            poisoned: self.core.poisoned,
            requests: self.core.requests,
            ads: self.core.ads,
            users: self.users.len() as u64,
            broken_redirect_chains: broken,
            collected: self.core.collected,
            population: self.core.population.as_mut().map(|p| p.cut(popts)),
        }
    }
}

fn worker_loop(
    mut w: Worker<'_>,
    rx: parallel::Receiver<ToWorker>,
    ack_tx: mpsc::Sender<(usize, u64, WorkerAck)>,
    id: usize,
    slot: Arc<obs::health::WorkerHealth>,
    registry: &obs::Registry,
) -> WorkerFinal {
    for msg in rx {
        match msg {
            ToWorker::Batch(batch) => {
                let n = batch.len() as u64;
                for (pos, obj) in batch {
                    w.handle(pos, obj);
                }
                slot.beat(registry.elapsed_ns(), n);
            }
            ToWorker::Barrier(seq) => {
                let ack = w.barrier_ack();
                if ack_tx.send((id, seq, ack)).is_err() {
                    break;
                }
            }
        }
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Checkpoint serialization
// ---------------------------------------------------------------------------

/// Hash of everything that must match between the checkpointing run and
/// the resuming run for the state to be meaningful. Thread count is
/// deliberately excluded: restored users re-route by `shard_of`.
fn config_hash(opts: &StreamOptions) -> u64 {
    let s = format!(
        "{:?}|{}|{}|{:?}|{:?}",
        opts.pipeline, opts.chunk_records, FORMAT_VERSION, opts.abp_ips, opts.alerts
    );
    obs::fnv64(s.as_bytes())
}

fn push_json_f64(out: &mut String, v: f64) {
    json::write_f64(out, v);
}

fn window_report_to_json(out: &mut String, r: &WindowReport) {
    out.push_str("{\"width\":");
    push_json_f64(out, r.width_secs);
    let _ = write!(out, ",\"late\":{},\"windows\":[", r.late);
    for (i, w) in r.windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"index\":{},\"start\":", w.index);
        push_json_f64(out, w.start_secs);
        out.push_str(",\"width\":");
        push_json_f64(out, w.width_secs);
        out.push_str(",\"counters\":{");
        for (j, (name, v)) in w.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"hists\":{");
        for (j, (name, h)) in w.hists.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"buckets\":[");
            for (k, b) in h.buckets.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            let _ = write!(out, "],\"sum\":{}}}", h.sum);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
}

fn field<'a, 'b>(v: &'a Value<'b>, k: &str) -> Result<&'a Value<'b>, StreamError> {
    v.get(k)
        .ok_or_else(|| ck_err(format!("missing field `{k}`")))
}

fn field_u64(v: &Value<'_>, k: &str) -> Result<u64, StreamError> {
    field(v, k)?
        .as_u64()
        .ok_or_else(|| ck_err(format!("field `{k}` is not a u64")))
}

fn field_usize(v: &Value<'_>, k: &str) -> Result<usize, StreamError> {
    Ok(field_u64(v, k)? as usize)
}

fn field_f64(v: &Value<'_>, k: &str) -> Result<f64, StreamError> {
    field(v, k)?
        .as_f64()
        .ok_or_else(|| ck_err(format!("field `{k}` is not a number")))
}

fn field_str<'a>(v: &'a Value<'_>, k: &str) -> Result<&'a str, StreamError> {
    field(v, k)?
        .as_str()
        .ok_or_else(|| ck_err(format!("field `{k}` is not a string")))
}

fn field_array<'a, 'b>(v: &'a Value<'b>, k: &str) -> Result<&'a [Value<'b>], StreamError> {
    match field(v, k)? {
        Value::Array(a) => Ok(a),
        _ => Err(ck_err(format!("field `{k}` is not an array"))),
    }
}

fn field_object<'a, 'b>(
    v: &'a Value<'b>,
    k: &str,
) -> Result<&'a [(std::borrow::Cow<'b, str>, Value<'b>)], StreamError> {
    match field(v, k)? {
        Value::Object(o) => Ok(o),
        _ => Err(ck_err(format!("field `{k}` is not an object"))),
    }
}

/// Map a serialized series name back onto the `&'static` name table the
/// window engine uses. An unknown name means the checkpoint came from a
/// different schema — refuse rather than misattribute.
fn static_name(table: &'static [&'static str], s: &str) -> Result<&'static str, StreamError> {
    table
        .iter()
        .find(|n| **n == s)
        .copied()
        .ok_or_else(|| ck_err(format!("unknown window series `{s}`")))
}

fn window_report_from_value(
    v: &Value<'_>,
    counters: &'static [&'static str],
    hists: &'static [&'static str],
) -> Result<WindowReport, StreamError> {
    let width_secs = field_f64(v, "width")?;
    let late = field_u64(v, "late")?;
    let mut windows = Vec::new();
    for w in field_array(v, "windows")? {
        let index = match field(w, "index")? {
            Value::Int(i) => *i as i64,
            _ => return Err(ck_err("window index is not an integer")),
        };
        let start_secs = field_f64(w, "start")?;
        let wwidth = field_f64(w, "width")?;
        let mut cs: Vec<(&'static str, u64)> = Vec::new();
        for (name, val) in field_object(w, "counters")? {
            let n = static_name(counters, name)?;
            let v = val
                .as_u64()
                .ok_or_else(|| ck_err(format!("counter `{n}` is not a u64")))?;
            cs.push((n, v));
        }
        cs.sort_by_key(|(n, _)| *n);
        let mut hs: Vec<(&'static str, HistogramSnapshot)> = Vec::new();
        for (name, val) in field_object(w, "hists")? {
            let n = static_name(hists, name)?;
            let mut buckets = Vec::new();
            for b in field_array(val, "buckets")? {
                buckets.push(
                    b.as_u64()
                        .ok_or_else(|| ck_err("histogram bucket is not a u64"))?,
                );
            }
            let sum = field_u64(val, "sum")?;
            hs.push((n, HistogramSnapshot { buckets, sum }));
        }
        hs.sort_by_key(|(n, _)| *n);
        windows.push(ClosedWindow {
            index,
            start_secs,
            width_secs: wwidth,
            counters: cs,
            hists: hs,
        });
    }
    windows.sort_by_key(|w| w.index);
    Ok(WindowReport {
        width_secs,
        windows,
        late,
    })
}

/// Append `url` as a JSON string, rendered through `scratch` so one
/// buffer serves every URL of a checkpoint line.
fn write_url(out: &mut String, scratch: &mut String, url: &Url) {
    url.write_into(scratch);
    json::write_str(out, scratch);
}

fn serialize_user(key: &(u32, Option<Arc<str>>), st: &UserState) -> String {
    let mut out = String::with_capacity(256);
    let mut scratch = String::new();
    let _ = write!(out, "{{\"client_ip\":{},\"user_agent\":", key.0);
    json::write_opt_str(&mut out, key.1.as_deref());
    let _ = write!(
        out,
        ",\"inserted\":{},\"consumed\":{},\"last_page\":",
        st.map.redirects_inserted(),
        st.map.redirects_consumed()
    );
    match &st.map.last_page {
        Some((url, ts)) => {
            out.push('[');
            write_url(&mut out, &mut scratch, url);
            out.push(',');
            push_json_f64(&mut out, *ts);
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"page_of\":[");
    for (i, (k, (root, ts, hops))) in st.map.page_of.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json::write_str(&mut out, k);
        out.push(',');
        write_url(&mut out, &mut scratch, root);
        out.push(',');
        push_json_f64(&mut out, *ts);
        let _ = write!(out, ",{hops}]");
    }
    out.push_str("],\"pending\":[");
    for (i, (k, (root, idx, ts, hops))) in st.map.pending_redirects.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json::write_str(&mut out, k);
        out.push(',');
        match root {
            Some(u) => write_url(&mut out, &mut scratch, u),
            None => out.push_str("null"),
        }
        let _ = write!(out, ",{idx},");
        push_json_f64(&mut out, *ts);
        let _ = write!(out, ",{hops}]");
    }
    out.push_str("],\"held\":[");
    for (i, h) in st.held.values().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"pos\":{},\"idx\":{},\"ts\":", h.pos, h.obj.idx);
        push_json_f64(&mut out, h.obj.ts);
        let _ = write!(out, ",\"server_ip\":{},\"url\":", h.obj.server_ip);
        write_url(&mut out, &mut scratch, &h.obj.url);
        out.push_str(",\"page\":");
        match &h.page {
            Some(u) => write_url(&mut out, &mut scratch, u),
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"cat\":\"{}\",\"ct\":", h.category.keyword());
        json::write_opt_str(&mut out, h.obj.content_type.as_deref());
        let _ = write!(
            out,
            ",\"bytes\":{},\"status\":{},\"tcp\":",
            h.obj.bytes, h.obj.status
        );
        push_json_f64(&mut out, h.obj.tcp_handshake_ms);
        out.push_str(",\"http\":");
        push_json_f64(&mut out, h.obj.http_handshake_ms);
        out.push('}');
    }
    out.push_str("]}");
    out
}

struct RestoredUser {
    client_ip: u32,
    user_agent: Option<Arc<str>>,
    map: RefMap,
    held: Vec<HeldRecord>,
}

fn parse_url(s: &str) -> Result<Url, StreamError> {
    Url::parse(s).map_err(|e| ck_err(format!("bad url in checkpoint: {e}")))
}

fn user_from_line(line: &str, opts: RefMapOptions) -> Result<RestoredUser, StreamError> {
    let v = json::parse(line).map_err(|e| ck_err(format!("bad user line: {e}")))?;
    let client_ip = field(&v, "client_ip")?
        .as_u32()
        .ok_or_else(|| ck_err("client_ip is not a u32"))?;
    let user_agent: Option<Arc<str>> = match field(&v, "user_agent")? {
        Value::Null => None,
        Value::Str(s) => Some(Arc::from(&**s)),
        _ => return Err(ck_err("user_agent is neither string nor null")),
    };
    let inserted = field_usize(&v, "inserted")?;
    let consumed = field_usize(&v, "consumed")?;
    let last_page = match field(&v, "last_page")? {
        Value::Null => None,
        Value::Array(a) if a.len() == 2 => {
            let url = parse_url(a[0].as_str().ok_or_else(|| ck_err("last_page url"))?)?;
            let ts = a[1].as_f64().ok_or_else(|| ck_err("last_page ts"))?;
            Some((url, ts))
        }
        _ => return Err(ck_err("malformed last_page")),
    };
    let mut page_of = HashMap::new();
    for e in field_array(&v, "page_of")? {
        let Value::Array(a) = e else {
            return Err(ck_err("page_of entry is not an array"));
        };
        if a.len() != 4 {
            return Err(ck_err("page_of entry arity"));
        }
        let key = a[0].as_str().ok_or_else(|| ck_err("page_of key"))?;
        let root = parse_url(a[1].as_str().ok_or_else(|| ck_err("page_of root"))?)?;
        let ts = a[2].as_f64().ok_or_else(|| ck_err("page_of ts"))?;
        let hops = a[3].as_u16().ok_or_else(|| ck_err("page_of hops"))?;
        page_of.insert(Arc::from(key), (root, ts, hops));
    }
    let mut pending = HashMap::new();
    for e in field_array(&v, "pending")? {
        let Value::Array(a) = e else {
            return Err(ck_err("pending entry is not an array"));
        };
        if a.len() != 5 {
            return Err(ck_err("pending entry arity"));
        }
        let key = a[0].as_str().ok_or_else(|| ck_err("pending key"))?;
        let root = match &a[1] {
            Value::Null => None,
            Value::Str(s) => Some(parse_url(s)?),
            _ => return Err(ck_err("pending root")),
        };
        let idx = a[2].as_u64().ok_or_else(|| ck_err("pending idx"))? as usize;
        let ts = a[3].as_f64().ok_or_else(|| ck_err("pending ts"))?;
        let hops = a[4].as_u16().ok_or_else(|| ck_err("pending hops"))?;
        pending.insert(Arc::from(key), (root, idx, ts, hops));
    }
    let mut held = Vec::new();
    for e in field_array(&v, "held")? {
        let pos = field_u64(e, "pos")?;
        let idx = field_usize(e, "idx")?;
        let ts = field_f64(e, "ts")?;
        let server_ip = field(e, "server_ip")?
            .as_u32()
            .ok_or_else(|| ck_err("held server_ip"))?;
        let url = parse_url(field_str(e, "url")?)?;
        let page = match field(e, "page")? {
            Value::Null => None,
            Value::Str(s) => Some(parse_url(s)?),
            _ => return Err(ck_err("held page")),
        };
        let category = ContentCategory::from_keyword(field_str(e, "cat")?)
            .ok_or_else(|| ck_err("held category keyword"))?;
        let content_type: Option<Arc<str>> = match field(e, "ct")? {
            Value::Null => None,
            Value::Str(s) => Some(Arc::from(&**s)),
            _ => return Err(ck_err("held content type")),
        };
        let bytes = field_u64(e, "bytes")?;
        let status = field(e, "status")?
            .as_u16()
            .ok_or_else(|| ck_err("held status"))?;
        let tcp = field_f64(e, "tcp")?;
        let http = field_f64(e, "http")?;
        held.push(HeldRecord {
            pos,
            page,
            category,
            obj: WebObject {
                idx,
                ts,
                client_ip,
                server_ip,
                url,
                // Referer and location were consumed when the record was
                // first processed; the held copy never re-reads them.
                referer: None,
                content_type,
                bytes,
                status,
                location: None,
                user_agent: user_agent.clone(),
                tcp_handshake_ms: tcp,
                http_handshake_ms: http,
            },
        });
    }
    Ok(RestoredUser {
        client_ip,
        user_agent,
        map: RefMap::restore(opts, page_of, pending, last_page, inserted, consumed, true),
        held,
    })
}

/// Cumulative run totals a checkpoint snapshots (and resume restores).
struct Progress {
    offset: u64,
    chunks: u64,
    seq: u64,
    next_pos: u64,
    next_http_idx: u64,
    prev_ts: f64,
    codec: CodecStats,
    degradation: DegradationReport,
    requests: u64,
    ads: u64,
    https_flows: u64,
    quarantine_bytes: u64,
}

/// Router-side cumulative population state: worker deltas merged at
/// each barrier (acks arrive indexed, so the merge runs in worker-index
/// order — the canonical order the determinism contract names), plus
/// the download households the router collects from HTTPS flows.
/// Checkpointed whole in the manifest and restored verbatim on resume.
struct PopulationCum {
    sketches: PopulationSketches,
    tallies: HashMap<(u32, String), UserTally>,
    households: HashSet<u32>,
}

impl PopulationCum {
    fn new(opts: crate::population::PopulationOptions) -> PopulationCum {
        PopulationCum {
            sketches: PopulationSketches::new(opts),
            tallies: HashMap::new(),
            households: HashSet::new(),
        }
    }

    fn merge_delta(&mut self, d: &PopulationDelta) {
        self.sketches.merge(&d.sketches);
        for ((ip, ua), t) in &d.tallies {
            self.tallies
                .entry((*ip, ua.to_string()))
                .or_default()
                .merge(t);
        }
    }

    fn finish(&self, opts: crate::population::PopulationOptions) -> PopulationReport {
        population::finish(&self.sketches, &self.tallies, &self.households, opts)
    }
}

fn population_to_json(out: &mut String, p: &PopulationCum) {
    let s = &p.sketches;
    let _ = write!(
        out,
        ",\"population\":{{\"requests\":{},\"ad_requests\":{}",
        s.requests, s.ad_requests
    );
    let topk = |out: &mut String, name: &str, t: &TopK| {
        let _ = write!(
            out,
            ",\"{name}\":{{\"capacity\":{},\"entries\":[",
            t.capacity()
        );
        for (i, (k, c, e)) in t.state_lines().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            json::write_str(out, k);
            let _ = write!(out, ",{c},{e}]");
        }
        out.push_str("]}");
    };
    topk(out, "ad_domains", &s.ad_domains);
    topk(out, "rules", &s.rules);
    let regs = |out: &mut String, name: &str, d: &Distinct64| {
        let _ = write!(out, ",\"{name}\":[");
        for (i, r) in d.state().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{r}");
        }
        out.push(']');
    };
    regs(out, "users", &s.users);
    regs(out, "sites", &s.sites);
    let qs = |out: &mut String, name: &str, q: &QuantileSketch| {
        let (zero, buckets) = q.state();
        let _ = write!(out, ",\"{name}\":{{\"zero\":{zero},\"buckets\":[");
        for (i, (b, c)) in buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{b},{c}]");
        }
        out.push_str("]}");
    };
    qs(out, "object_bytes", &s.object_bytes);
    qs(out, "rtb_gap_ms", &s.rtb_gap_ms);
    let mut rows: Vec<(&(u32, String), &UserTally)> = p.tallies.iter().collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    out.push_str(",\"tallies\":[");
    for (i, ((ip, ua), t)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{ip},");
        json::write_str(out, ua);
        let _ = write!(
            out,
            ",{},{},{},{}]",
            t.requests,
            t.ad_requests,
            t.easylist_blockable,
            u8::from(t.is_browser)
        );
    }
    out.push_str("],\"households\":[");
    let mut hh: Vec<u32> = p.households.iter().copied().collect();
    hh.sort_unstable();
    for (i, ip) in hh.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{ip}");
    }
    out.push_str("]}");
}

fn population_from_value(
    v: &Value<'_>,
    opts: crate::population::PopulationOptions,
) -> Result<PopulationCum, StreamError> {
    let _ = opts;
    let topk = |k: &str| -> Result<TopK, StreamError> {
        let tv = field(v, k)?;
        let capacity = field_usize(tv, "capacity")?;
        let mut lines = Vec::new();
        for e in field_array(tv, "entries")? {
            let Value::Array(a) = e else {
                return Err(ck_err("topk entry is not an array"));
            };
            if a.len() != 3 {
                return Err(ck_err("topk entry arity"));
            }
            lines.push((
                a[0].as_str().ok_or_else(|| ck_err("topk key"))?.to_string(),
                a[1].as_u64().ok_or_else(|| ck_err("topk count"))?,
                a[2].as_u64().ok_or_else(|| ck_err("topk error"))?,
            ));
        }
        Ok(TopK::from_state(capacity, lines))
    };
    let regs = |k: &str| -> Result<Distinct64, StreamError> {
        let a = field_array(v, k)?;
        if a.len() != 64 {
            return Err(ck_err("distinct register arity"));
        }
        let mut r = [0u8; 64];
        for (i, e) in a.iter().enumerate() {
            r[i] = e.as_u64().ok_or_else(|| ck_err("distinct register"))? as u8;
        }
        Ok(Distinct64::from_state(r))
    };
    let qs = |k: &str| -> Result<QuantileSketch, StreamError> {
        let qv = field(v, k)?;
        let zero = field_u64(qv, "zero")?;
        let mut buckets = Vec::new();
        for e in field_array(qv, "buckets")? {
            let Value::Array(a) = e else {
                return Err(ck_err("quantile bucket is not an array"));
            };
            if a.len() != 2 {
                return Err(ck_err("quantile bucket arity"));
            }
            let idx = match &a[0] {
                Value::Int(i) => *i as i32,
                _ => return Err(ck_err("quantile bucket index")),
            };
            buckets.push((
                idx,
                a[1].as_u64()
                    .ok_or_else(|| ck_err("quantile bucket count"))?,
            ));
        }
        Ok(QuantileSketch::from_state(QUANTILE_GAMMA, zero, buckets))
    };
    let mut sketches = PopulationSketches::new(opts);
    sketches.ad_domains = topk("ad_domains")?;
    sketches.rules = topk("rules")?;
    sketches.users = regs("users")?;
    sketches.sites = regs("sites")?;
    sketches.object_bytes = qs("object_bytes")?;
    sketches.rtb_gap_ms = qs("rtb_gap_ms")?;
    sketches.requests = field_u64(v, "requests")?;
    sketches.ad_requests = field_u64(v, "ad_requests")?;
    let mut tallies = HashMap::new();
    for e in field_array(v, "tallies")? {
        let Value::Array(a) = e else {
            return Err(ck_err("tally row is not an array"));
        };
        if a.len() != 6 {
            return Err(ck_err("tally row arity"));
        }
        let ip = a[0].as_u32().ok_or_else(|| ck_err("tally ip"))?;
        let ua = a[1].as_str().ok_or_else(|| ck_err("tally ua"))?.to_string();
        tallies.insert(
            (ip, ua),
            UserTally {
                requests: a[2].as_u64().ok_or_else(|| ck_err("tally requests"))?,
                ad_requests: a[3].as_u64().ok_or_else(|| ck_err("tally ads"))?,
                easylist_blockable: a[4].as_u64().ok_or_else(|| ck_err("tally blockable"))?,
                is_browser: a[5].as_u64().ok_or_else(|| ck_err("tally browser"))? != 0,
            },
        );
    }
    let mut households = HashSet::new();
    for e in field_array(v, "households")? {
        households.insert(e.as_u32().ok_or_else(|| ck_err("household ip"))?);
    }
    Ok(PopulationCum {
        sketches,
        tallies,
        households,
    })
}

/// Alert-event kind keywords, as the `&'static` table
/// [`obs::AlertEngineState`] events reference (checkpoint decode maps
/// parsed strings back onto it).
const ALERT_KINDS: &[&str] = &["pending", "firing", "resolved"];

fn alerts_to_json(out: &mut String, st: &obs::AlertEngineState) {
    let _ = write!(
        out,
        ",\"alerts\":{{\"rules_fnv\":{},\"updates\":{},\"detectors\":[",
        st.rules_fnv, st.updates
    );
    for (i, words) in st.detectors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, w) in words.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{w}");
        }
        out.push(']');
    }
    out.push_str("],\"phases\":[");
    for (i, (p, breach, clear, since)) in st.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{p},{breach},{clear},{since}]");
    }
    out.push_str("],\"events\":[");
    for (i, (rule, window, kind, value, score)) in st.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{rule},{window},\"{kind}\",{value},{score}]");
    }
    out.push_str("]}");
}

fn alerts_from_value(v: &Value<'_>) -> Result<obs::AlertEngineState, StreamError> {
    let rules_fnv = field_u64(v, "rules_fnv")?;
    let updates = field_u64(v, "updates")?;
    let mut detectors = Vec::new();
    for words in field_array(v, "detectors")? {
        let Value::Array(a) = words else {
            return Err(ck_err("detector state is not an array"));
        };
        let mut ws = Vec::with_capacity(a.len());
        for w in a {
            ws.push(w.as_u64().ok_or_else(|| ck_err("detector state word"))?);
        }
        detectors.push(ws);
    }
    let mut phases = Vec::new();
    for e in field_array(v, "phases")? {
        let Value::Array(a) = e else {
            return Err(ck_err("alert phase is not an array"));
        };
        if a.len() != 4 {
            return Err(ck_err("alert phase arity"));
        }
        let p = a[0].as_u64().ok_or_else(|| ck_err("alert phase tag"))? as u8;
        let breach = a[1].as_u64().ok_or_else(|| ck_err("alert breach streak"))? as u32;
        let clear = a[2].as_u64().ok_or_else(|| ck_err("alert clear streak"))? as u32;
        let since = match &a[3] {
            Value::Int(i) => *i as i64,
            _ => return Err(ck_err("alert since index")),
        };
        phases.push((p, breach, clear, since));
    }
    let mut events = Vec::new();
    for e in field_array(v, "events")? {
        let Value::Array(a) = e else {
            return Err(ck_err("alert event is not an array"));
        };
        if a.len() != 5 {
            return Err(ck_err("alert event arity"));
        }
        let rule = a[0].as_u64().ok_or_else(|| ck_err("alert event rule"))?;
        let window = match &a[1] {
            Value::Int(i) => *i as i64,
            _ => return Err(ck_err("alert event window")),
        };
        let kind = static_name(
            ALERT_KINDS,
            a[2].as_str().ok_or_else(|| ck_err("alert kind"))?,
        )?;
        let value = a[3].as_u64().ok_or_else(|| ck_err("alert value bits"))?;
        let score = a[4].as_u64().ok_or_else(|| ck_err("alert score bits"))?;
        events.push((rule, window, kind, value, score));
    }
    Ok(obs::AlertEngineState {
        rules_fnv,
        detectors,
        phases,
        events,
        updates,
    })
}

fn manifest_to_json(
    hash: u64,
    meta: &TraceMeta,
    p: &Progress,
    windows: &WindowReport,
    decode_windows: &WindowReport,
    population: Option<&PopulationCum>,
    alerts: Option<&obs::AlertEngineState>,
) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"kind\":\"{CHECKPOINT_KIND}\",\"version\":{CHECKPOINT_VERSION},\"config\":{hash},\"meta\":{{\"name\":"
    );
    json::write_str(&mut out, &meta.name);
    out.push_str(",\"duration\":");
    push_json_f64(&mut out, meta.duration_secs);
    let _ = write!(
        out,
        ",\"subscribers\":{},\"start_hour\":{},\"start_weekday\":{}}}",
        meta.subscribers, meta.start_hour, meta.start_weekday
    );
    let _ = write!(
        out,
        ",\"offset\":{},\"chunks\":{},\"seq\":{},\"next_pos\":{},\"next_http_idx\":{},\"prev_ts\":",
        p.offset, p.chunks, p.seq, p.next_pos, p.next_http_idx
    );
    // write_f64 renders non-finite as null; parse maps null back to -inf.
    push_json_f64(&mut out, p.prev_ts);
    let _ = write!(
        out,
        ",\"requests\":{},\"ads\":{},\"https_flows\":{},\"quarantine_bytes\":{}",
        p.requests, p.ads, p.https_flows, p.quarantine_bytes
    );
    let c = &p.codec;
    let _ = write!(
        out,
        ",\"codec\":{{\"records_read\":{},\"blank_lines\":{},\"bad_json\":{},\"bad_schema\":{},\"non_utf8\":{},\"oversize\":{},\"io_errors\":{},\"header_recovered\":{}}}",
        c.records_read,
        c.blank_lines,
        c.skipped_bad_json,
        c.skipped_bad_schema,
        c.skipped_non_utf8,
        c.skipped_oversize,
        c.io_errors,
        c.header_recovered
    );
    out.push_str(",\"degradation\":{");
    for (i, (name, v)) in p.degradation.counts().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push_str("},\"windows\":");
    window_report_to_json(&mut out, windows);
    out.push_str(",\"decode_windows\":");
    window_report_to_json(&mut out, decode_windows);
    if let Some(p) = population {
        population_to_json(&mut out, p);
    }
    if let Some(a) = alerts {
        alerts_to_json(&mut out, a);
    }
    out.push('}');
    out
}

/// State loaded back from a checkpoint file.
struct ResumeState {
    meta: TraceMeta,
    progress: Progress,
    windows: WindowReport,
    decode_windows: WindowReport,
    users: Vec<RestoredUser>,
    population: Option<PopulationCum>,
    alerts: Option<obs::AlertEngineState>,
}

fn load_checkpoint(dir: &Path, opts: &StreamOptions) -> Result<ResumeState, StreamError> {
    let path = dir.join(CHECKPOINT_FILE);
    let text = fs::read_to_string(&path)
        .map_err(|e| ck_err(format!("cannot read {}: {e}", path.display())))?;
    let mut lines = text.lines();
    let manifest_line = lines.next().ok_or_else(|| ck_err("empty checkpoint"))?;
    let m = json::parse(manifest_line).map_err(|e| ck_err(format!("bad manifest: {e}")))?;
    if field_str(&m, "kind")? != CHECKPOINT_KIND {
        return Err(ck_err("not an annoyed-users checkpoint"));
    }
    if field_u64(&m, "version")? != CHECKPOINT_VERSION {
        return Err(ck_err("unsupported checkpoint version"));
    }
    if field_u64(&m, "config")? != config_hash(opts) {
        return Err(ck_err(
            "checkpoint was written under a different pipeline configuration",
        ));
    }
    let mv = field(&m, "meta")?;
    let meta = TraceMeta {
        name: field_str(mv, "name")?.to_string(),
        duration_secs: field_f64(mv, "duration")?,
        subscribers: field_usize(mv, "subscribers")?,
        start_hour: field(mv, "start_hour")?
            .as_u32()
            .ok_or_else(|| ck_err("meta start_hour"))?,
        start_weekday: field(mv, "start_weekday")?
            .as_u32()
            .ok_or_else(|| ck_err("meta start_weekday"))?,
    };
    let cv = field(&m, "codec")?;
    let codec = CodecStats {
        records_read: field_usize(cv, "records_read")?,
        blank_lines: field_usize(cv, "blank_lines")?,
        skipped_bad_json: field_usize(cv, "bad_json")?,
        skipped_bad_schema: field_usize(cv, "bad_schema")?,
        skipped_non_utf8: field_usize(cv, "non_utf8")?,
        skipped_oversize: field_usize(cv, "oversize")?,
        io_errors: field_usize(cv, "io_errors")?,
        header_recovered: matches!(field(cv, "header_recovered")?, Value::Bool(true)),
    };
    let dv = field(&m, "degradation")?;
    let degradation = DegradationReport {
        unparseable_urls: field_usize(dv, "unparseable_urls")?,
        unparseable_referers: field_usize(dv, "unparseable_referers")?,
        unparseable_locations: field_usize(dv, "unparseable_locations")?,
        missing_content_type: field_usize(dv, "missing_content_type")?,
        missing_user_agent: field_usize(dv, "missing_user_agent")?,
        content_type_fallbacks: field_usize(dv, "content_type_fallbacks")?,
        refmap_misses: field_usize(dv, "refmap_misses")?,
        // Derived from the restored per-user counters at report time.
        broken_redirect_chains: 0,
        out_of_order_records: field_usize(dv, "out_of_order_records")?,
        poisoned_records: field_usize(dv, "poisoned_records")?,
    };
    let prev_ts = match field(&m, "prev_ts")? {
        Value::Null => f64::NEG_INFINITY,
        other => other.as_f64().ok_or_else(|| ck_err("prev_ts"))?,
    };
    let progress = Progress {
        offset: field_u64(&m, "offset")?,
        chunks: field_u64(&m, "chunks")?,
        seq: field_u64(&m, "seq")?,
        next_pos: field_u64(&m, "next_pos")?,
        next_http_idx: field_u64(&m, "next_http_idx")?,
        prev_ts,
        codec,
        degradation,
        requests: field_u64(&m, "requests")?,
        ads: field_u64(&m, "ads")?,
        https_flows: field_u64(&m, "https_flows")?,
        quarantine_bytes: field_u64(&m, "quarantine_bytes")?,
    };
    let windows = window_report_from_value(field(&m, "windows")?, ADSCOPE_COUNTERS, HIST_TABLE)?;
    let decode_windows =
        window_report_from_value(field(&m, "decode_windows")?, DECODE_COUNTERS, &[])?;
    let population = match m.get("population") {
        Some(pv) => Some(population_from_value(pv, opts.pipeline.population)?),
        None => None,
    };
    let alerts = match m.get("alerts") {
        Some(av) => Some(alerts_from_value(av)?),
        None => None,
    };
    let mut users = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        users.push(user_from_line(line, opts.pipeline.refmap)?);
    }
    Ok(ResumeState {
        meta,
        progress,
        windows,
        decode_windows,
        users,
        population,
        alerts,
    })
}

/// Histogram series an adscope window may carry.
const HIST_TABLE: &[&str] = &[RTB_HIST];

fn write_checkpoint(dir: &Path, manifest: &str, acks: &[WorkerAck]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    obs::atomic_write_with(&dir.join(CHECKPOINT_FILE), |file| {
        let mut f = BufWriter::new(file);
        f.write_all(manifest.as_bytes())?;
        f.write_all(b"\n")?;
        for ack in acks {
            for line in &ack.state_lines {
                f.write_all(line.as_bytes())?;
                f.write_all(b"\n")?;
            }
        }
        f.flush()
    })
}

// ---------------------------------------------------------------------------
// Entry points and router
// ---------------------------------------------------------------------------

/// Stream-classify a trace file, with checkpoint/resume support.
/// Metrics land in `registry`.
pub fn classify_stream_file(
    path: &Path,
    classifier: &PassiveClassifier,
    opts: &StreamOptions,
    registry: &obs::Registry,
) -> Result<StreamReport, StreamError> {
    let resume = match &opts.checkpoint {
        Some(ck) if ck.resume => Some(load_checkpoint(&ck.dir, opts)?),
        _ => None,
    };
    let total_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    match resume {
        Some(state) => {
            let mut f = File::open(path)?;
            f.seek(SeekFrom::Start(state.progress.offset))?;
            let reader = ChunkReader::resume(
                f,
                state.meta.clone(),
                state.progress.offset,
                state.progress.seq,
                opts.chunk_records,
                registry,
            );
            let meta = state.meta.clone();
            run_stream(
                reader,
                meta,
                Some(state),
                classifier,
                opts,
                registry,
                total_bytes,
            )
        }
        None => {
            let reader =
                ChunkReader::with_registry(File::open(path)?, opts.chunk_records, registry)?;
            let meta = reader.meta().clone();
            run_stream(reader, meta, None, classifier, opts, registry, total_bytes)
        }
    }
}

/// Stream-classify an in-memory chunk source (e.g. a generator bridge).
/// Checkpointing requires byte offsets, so it is rejected here.
pub fn classify_stream_chunks<I>(
    chunks: I,
    meta: TraceMeta,
    classifier: &PassiveClassifier,
    opts: &StreamOptions,
    registry: &obs::Registry,
) -> Result<StreamReport, StreamError>
where
    I: Iterator<Item = StreamChunk>,
{
    if opts.checkpoint.is_some() {
        return Err(StreamError::Config(
            "checkpointing requires a seekable trace file".into(),
        ));
    }
    run_stream(chunks, meta, None, classifier, opts, registry, 0)
}

fn run_stream<I>(
    mut chunks: I,
    meta: TraceMeta,
    resume: Option<ResumeState>,
    classifier: &PassiveClassifier,
    opts: &StreamOptions,
    registry: &obs::Registry,
    total_bytes: u64,
) -> Result<StreamReport, StreamError>
where
    I: Iterator<Item = StreamChunk>,
{
    let nworkers = if opts.threads == 0 {
        parallel::available_parallelism()
    } else {
        opts.threads
    }
    .max(1);
    let normalizer = UrlNormalizer::for_classifier(classifier, opts.pipeline.normalize);
    // Streaming windows merge across partitions and checkpoint cuts;
    // only an infinite watermark makes those merges grouping-independent
    // (module docs), so it is forced here.
    let mut popts = opts.pipeline;
    popts.window.watermark_secs = f64::INFINITY;

    let resumed_from = resume.as_ref().map(|r| r.progress.offset);
    let quarantine = match &opts.quarantine_path {
        Some(p) => {
            let base = resume.as_ref().map_or(0, |r| r.progress.quarantine_bytes);
            Some(Arc::new(Quarantine::open(p, base)?))
        }
        None => None,
    };

    // Split the resume state into router progress, merged-window bases,
    // worker counter bases, and the per-worker user state.
    let (
        mut progress,
        mut windows_cum,
        mut decode_cum,
        restored_users,
        resumed_population,
        resumed_alerts,
    ) = match resume {
        Some(r) => (
            r.progress,
            r.windows,
            r.decode_windows,
            r.users,
            r.population,
            r.alerts,
        ),
        None => (
            Progress {
                offset: 0,
                chunks: 0,
                seq: 0,
                next_pos: 0,
                next_http_idx: 0,
                prev_ts: f64::NEG_INFINITY,
                codec: CodecStats::default(),
                degradation: DegradationReport::default(),
                requests: 0,
                ads: 0,
                https_flows: 0,
                quarantine_bytes: 0,
            },
            WindowReport::default(),
            WindowReport::default(),
            Vec::new(),
            None,
            None,
        ),
    };
    // Cumulative population state lives on the router (workers send
    // deltas); a resumed run picks up the checkpointed state verbatim.
    let mut population_cum = if popts.population.enabled {
        Some(resumed_population.unwrap_or_else(|| PopulationCum::new(popts.population)))
    } else {
        None
    };
    // The alert engine lives on the router and re-evaluates the merged
    // report at every barrier — full recompute, so where the barriers
    // fall cannot change the timeline. A resumed run restores the
    // checkpointed image (the pack hash guards compatibility).
    let mut alert_engine = if opts.alerts.is_empty() {
        None
    } else {
        Some(match resumed_alerts {
            Some(st) => obs::AlertEngine::from_state(opts.alerts.clone(), st).map_err(ck_err)?,
            None => obs::AlertEngine::new(opts.alerts.clone()),
        })
    };
    // Unparseable records never reach a worker, so the router counts
    // them into the `quarantined` window series itself; the cuts merge
    // into the cumulative report exactly like worker deltas.
    let mut router_windows = WindowAggregator::new(popts.window);
    let abp_set: HashSet<u32> = opts.abp_ips.iter().copied().collect();
    // Worker counters restart at zero each run; the manifest values
    // become the base the totals add onto.
    let base_refmap = progress.degradation.refmap_misses;
    let base_ctf = progress.degradation.content_type_fallbacks;
    let base_poisoned = progress.degradation.poisoned_records;
    let base_requests = progress.requests;
    let base_ads = progress.ads;

    let mut per_worker_restores: Vec<Vec<RestoredUser>> =
        (0..nworkers).map(|_| Vec::new()).collect();
    for u in restored_users {
        let s = shard_of(u.client_ip, u.user_agent.as_deref(), nworkers as u64);
        per_worker_restores[s].push(u);
    }

    let hash = config_hash(opts);
    let mut decode_engine = DecodeWindows::hourly();
    let mut interner = Interner::new();
    let checkpoint_every = opts.checkpoint.as_ref().map(|c| c.every_chunks.max(1));

    // The live health plane: the router advances the progress ledger
    // per chunk, each worker beats its slot per batch, and /statusz on
    // the serve listener renders the picture while the run is going.
    let health = registry.health();
    let run_label = match resumed_from {
        Some(off) => format!("{} (resumed @ {off})", meta.name),
        None => meta.name.clone(),
    };
    health.begin_run(&run_label, total_bytes, registry.elapsed_ns());
    if progress.offset > 0 {
        // A resumed run starts its ledger at the checkpointed offset.
        health.advance(registry.elapsed_ns(), progress.offset, 0, 0);
    }

    let c_chunks = registry.counter("adscope_stream_chunks_total");
    let c_records = registry.counter("adscope_stream_records_total");
    let c_checkpoints = registry.counter("adscope_stream_checkpoints_total");
    let worker_labels: Vec<String> = (0..nworkers).map(|i| i.to_string()).collect();
    let mut last_stalls = vec![0u64; nworkers];

    std::thread::scope(|scope| -> Result<StreamReport, StreamError> {
        let (ack_tx, ack_rx) = mpsc::channel::<(usize, u64, WorkerAck)>();
        let mut senders: Vec<parallel::Sender<ToWorker>> = Vec::with_capacity(nworkers);
        let mut handles = Vec::with_capacity(nworkers);
        let normalizer = &normalizer;
        for (id, init) in per_worker_restores.into_iter().enumerate() {
            let (tx, rx) = parallel::bounded::<ToWorker>(opts.channel_capacity);
            let ack_tx = ack_tx.clone();
            let q = quarantine.clone();
            let poison = opts.poison_host.as_deref();
            let collect = opts.collect_requests;
            let slot = health.worker(id as u64);
            handles.push(scope.spawn(move || {
                let w = Worker::new(classifier, normalizer, popts, collect, q, poison, init);
                worker_loop(w, rx, ack_tx, id, slot, registry)
            }));
            senders.push(tx);
        }
        drop(ack_tx);

        let mut checkpoints_written = 0u64;
        let mut stopped_early = false;
        let mut run_chunks = 0u64;

        // The router loop proper. Errors return through `loop_result` so
        // the senders are always dropped (and the workers joined) before
        // this scope exits — an early `?` here would deadlock the scope
        // on workers still blocked in `recv`.
        let mut loop_result: Result<(), StreamError> = Ok(());
        for chunk in chunks.by_ref() {
            let end_offset = chunk.end_offset;
            progress.codec.merge(&chunk.stats);
            let n_records = chunk.records.len() as u64;
            for rec in &chunk.records {
                decode_engine.observe(rec);
            }
            let mut batches: Vec<Vec<(u64, WebObject)>> = vec![Vec::new(); nworkers];
            for rec in chunk.records {
                match rec {
                    TraceRecord::Http(tx) => {
                        let idx = progress.next_http_idx as usize;
                        progress.next_http_idx += 1;
                        match extract_one(idx, &tx, &mut progress.degradation, &mut interner) {
                            Some(obj) => {
                                if obj.ts < progress.prev_ts {
                                    progress.degradation.out_of_order_records += 1;
                                }
                                progress.prev_ts = obj.ts;
                                let pos = progress.next_pos;
                                progress.next_pos += 1;
                                let s = shard_of(
                                    obj.client_ip,
                                    obj.user_agent.as_deref(),
                                    nworkers as u64,
                                );
                                batches[s].push((pos, obj));
                            }
                            None => {
                                progress.degradation.unparseable_urls += 1;
                                router_windows.observe_quarantined(tx.ts);
                                if let Some(q) = &quarantine {
                                    q.write_line(&record_to_json(&TraceRecord::Http(tx)));
                                }
                            }
                        }
                    }
                    TraceRecord::Https(conn) => {
                        progress.https_flows += 1;
                        if let Some(cum) = &mut population_cum {
                            if conn.server_port == 443 && abp_set.contains(&conn.server_ip) {
                                cum.households.insert(conn.client_ip);
                            }
                        }
                    }
                }
            }
            let mut send_failed = false;
            for (widx, batch) in batches.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                // A blocking send against a full queue is the
                // backpressure point; stalls and depth surface as
                // metrics.
                if senders[widx].send(ToWorker::Batch(batch)).is_err() {
                    send_failed = true;
                    break;
                }
                let stats = senders[widx].stats();
                registry
                    .gauge_with(
                        "adscope_stream_queue_depth",
                        &[("worker", &worker_labels[widx])],
                    )
                    .set(stats.depth() as f64);
                let stalls = stats.send_stalls();
                if stalls > last_stalls[widx] {
                    registry
                        .counter_with(
                            "adscope_stream_send_stalls_total",
                            &[("worker", &worker_labels[widx])],
                        )
                        .add(stalls - last_stalls[widx]);
                    last_stalls[widx] = stalls;
                }
            }
            if send_failed {
                // A dead receiver means the worker panicked outside the
                // guard; drop the senders and let the join below
                // propagate the panic.
                break;
            }
            progress.chunks += 1;
            progress.offset = end_offset;
            run_chunks += 1;
            c_chunks.add(1);
            c_records.add(n_records);
            health.advance(registry.elapsed_ns(), end_offset, n_records, 1);

            if let (Some(every), Some(ck)) = (checkpoint_every, opts.checkpoint.as_ref()) {
                if progress.chunks % every == 0 {
                    progress.seq = progress.chunks;
                    match run_barrier(&senders, &ack_rx) {
                        Ok(acks) => {
                            let dw = std::mem::replace(&mut decode_engine, DecodeWindows::hourly())
                                .finish();
                            decode_cum.merge(&dw);
                            for a in &acks {
                                windows_cum.merge(&a.windows);
                            }
                            windows_cum.merge(&router_windows.cut());
                            if let Some(eng) = &mut alert_engine {
                                eng.eval_report(&windows_cum);
                                eng.publish(registry);
                            }
                            if let Some(cum) = &mut population_cum {
                                for a in &acks {
                                    if let Some(d) = &a.population {
                                        cum.merge_delta(d);
                                    }
                                }
                                // The live annoyance plane: every
                                // barrier republishes the
                                // population-so-far, so /population and
                                // the class gauges move while the run
                                // is going.
                                cum.finish(popts.population).publish(registry);
                            }
                            progress.degradation.refmap_misses = base_refmap
                                + acks.iter().map(|a| a.refmap_misses as usize).sum::<usize>();
                            progress.degradation.content_type_fallbacks = base_ctf
                                + acks
                                    .iter()
                                    .map(|a| a.content_type_fallbacks as usize)
                                    .sum::<usize>();
                            progress.degradation.poisoned_records = base_poisoned
                                + acks.iter().map(|a| a.poisoned as usize).sum::<usize>();
                            progress.requests =
                                base_requests + acks.iter().map(|a| a.requests).sum::<u64>();
                            progress.ads = base_ads + acks.iter().map(|a| a.ads).sum::<u64>();
                            progress.quarantine_bytes = match &quarantine {
                                Some(q) => match q.flush_bytes() {
                                    Ok(b) => b,
                                    Err(e) => {
                                        loop_result = Err(e.into());
                                        break;
                                    }
                                },
                                None => 0,
                            };
                            let alert_state = alert_engine.as_ref().map(obs::AlertEngine::state);
                            let manifest = manifest_to_json(
                                hash,
                                &meta,
                                &progress,
                                &windows_cum,
                                &decode_cum,
                                population_cum.as_ref(),
                                alert_state.as_ref(),
                            );
                            if let Err(e) = write_checkpoint(&ck.dir, &manifest, &acks) {
                                loop_result = Err(e.into());
                                break;
                            }
                            checkpoints_written += 1;
                            c_checkpoints.add(1);
                        }
                        Err(e) => {
                            loop_result = Err(e);
                            break;
                        }
                    }
                }
            }
            if let Some(n) = opts.stop_after_chunks {
                if run_chunks >= n {
                    stopped_early = true;
                    break;
                }
            }
            if opts.throttle_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(opts.throttle_ms));
            }
            if opts.stall_after_chunks == Some(run_chunks) && opts.stall_ms > 0 {
                // Injected stall: the router (and, once their queues
                // drain, the workers) goes quiet for long enough that a
                // watchdog with a smaller budget must flag it.
                std::thread::sleep(std::time::Duration::from_millis(opts.stall_ms));
            }
        }

        drop(senders);
        let mut finals = Vec::with_capacity(nworkers);
        for h in handles {
            match h.join() {
                Ok(f) => finals.push(f),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        health.finish_run(registry.elapsed_ns());
        loop_result?;

        // Final merge: residual window deltas, counter totals over the
        // manifest base, and the state-derived tallies.
        let dw = decode_engine.finish();
        decode_cum.merge(&dw);
        for f in &finals {
            windows_cum.merge(&f.windows);
        }
        windows_cum.merge(&router_windows.finish());
        let mut degradation = progress.degradation;
        degradation.refmap_misses = base_refmap
            + finals
                .iter()
                .map(|f| f.refmap_misses as usize)
                .sum::<usize>();
        degradation.content_type_fallbacks = base_ctf
            + finals
                .iter()
                .map(|f| f.content_type_fallbacks as usize)
                .sum::<usize>();
        degradation.poisoned_records =
            base_poisoned + finals.iter().map(|f| f.poisoned as usize).sum::<usize>();
        degradation.broken_redirect_chains = finals
            .iter()
            .map(|f| f.broken_redirect_chains as usize)
            .sum::<usize>();
        let requests = base_requests + finals.iter().map(|f| f.requests).sum::<u64>();
        let ad_requests = base_ads + finals.iter().map(|f| f.ads).sum::<u64>();
        let users = finals.iter().map(|f| f.users).sum::<u64>();

        if let Some(q) = &quarantine {
            let _ = q.flush_bytes();
        }

        // Same metric bridge as the materialized path, over the
        // cumulative totals (a resumed run republishes the whole
        // logical stream's counts, so /metrics describes the trace, not
        // the fraction this process happened to run).
        registry
            .counter("adscope_requests_classified_total")
            .add(requests);
        registry
            .counter("adscope_ad_requests_total")
            .add(ad_requests);
        for (reason, count) in degradation.counts() {
            registry
                .counter_with("adscope_degradation_total", &[("reason", reason)])
                .add(count as u64);
        }
        crate::window::publish(&windows_cum, registry);
        publish_decode_windows(&decode_cum, registry);

        // Final alert evaluation over the fully merged report — the
        // timeline every render and endpoint serves from here on.
        if let Some(eng) = &mut alert_engine {
            eng.eval_report(&windows_cum);
            eng.publish(registry);
        }

        // Final population report: residual worker deltas merged in
        // worker-index order, then the shared `finish` over the
        // cumulative state — the same function the materialized path
        // calls, on identical merged inputs.
        let population = population_cum.map(|mut cum| {
            for f in &finals {
                if let Some(d) = &f.population {
                    cum.merge_delta(d);
                }
            }
            let report = cum.finish(popts.population);
            report.publish(registry);
            report
        });

        let collected = if opts.collect_requests {
            let mut v: Vec<(u64, ClassifiedRequest)> =
                finals.into_iter().flat_map(|f| f.collected).collect();
            v.sort_by_key(|(pos, _)| *pos);
            Some(v)
        } else {
            None
        };

        Ok(StreamReport {
            meta: meta.clone(),
            codec: progress.codec,
            degradation,
            windows: windows_cum,
            decode_windows: decode_cum,
            requests,
            ad_requests,
            https_flows: progress.https_flows,
            users,
            chunks: progress.chunks,
            checkpoints_written,
            resumed_from,
            stopped_early,
            collected,
            population,
            alerts: alert_engine,
        })
    })
}

/// Inject a barrier and collect one ack per worker, in worker order.
fn run_barrier(
    senders: &[parallel::Sender<ToWorker>],
    ack_rx: &mpsc::Receiver<(usize, u64, WorkerAck)>,
) -> Result<Vec<WorkerAck>, StreamError> {
    for s in senders {
        if s.send(ToWorker::Barrier(0)).is_err() {
            return Err(ck_err("a worker exited before the barrier"));
        }
    }
    let mut acks: Vec<Option<WorkerAck>> = senders.iter().map(|_| None).collect();
    let mut got = 0;
    while got < senders.len() {
        let (w, _seq, ack) = ack_rx
            .recv()
            .map_err(|_| ck_err("workers hung up during the barrier"))?;
        if acks[w].replace(ack).is_none() {
            got += 1;
        }
    }
    Ok(acks
        .into_iter()
        .map(|a| a.expect("all acks seen"))
        .collect())
}

/// Publish the decode-side window series: the rendered lines into the
/// registry's window log under the `decode` scope, plus the closed and
/// late counters.
fn publish_decode_windows(report: &WindowReport, registry: &obs::Registry) {
    if report.late > 0 {
        registry.counter("obs_window_late_total").add(report.late);
    }
    if report.windows.is_empty() {
        return;
    }
    for line in report.render_ndjson("decode").lines() {
        registry.windows().push(line.to_string());
    }
    registry
        .counter("netsim_decode_windows_closed_total")
        .add(report.windows.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::classify_trace_in;
    use crate::window::WindowOptions;
    use abp_filter::FilterList;
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::{HttpTransaction, Method};
    use netsim::record::Trace;

    fn classifier() -> PassiveClassifier {
        PassiveClassifier::new(vec![
            FilterList::parse(
                "easylist",
                "||ads.example^$third-party\n/banners/\n@@*callback=ok*\n",
            ),
            FilterList::parse("easyprivacy", "/pixel/\n"),
        ])
    }

    #[allow(clippy::too_many_arguments)]
    fn tx(
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
    fn messy_trace(n: usize) -> Trace {
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

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("adscope-stream-{}-{tag}", std::process::id()));
        p
    }

    fn write_trace_file(trace: &Trace, tag: &str) -> PathBuf {
        let path = temp_path(tag);
        let f = File::create(&path).unwrap();
        netsim::codec::write_trace(trace, f).unwrap();
        path
    }

    /// Materialized reference with the streaming window semantics
    /// (infinite watermark).
    fn reference(trace: &Trace) -> crate::pipeline::ClassifiedTrace {
        let mut opts = PipelineOptions::default();
        opts.window.watermark_secs = f64::INFINITY;
        classify_trace_in(trace, &classifier(), opts, &obs::Registry::new())
    }

    fn stream_opts(threads: usize, chunk: usize) -> StreamOptions {
        let mut o = StreamOptions {
            threads,
            chunk_records: chunk,
            collect_requests: true,
            ..StreamOptions::default()
        };
        o.pipeline.window = WindowOptions::default();
        o
    }

    #[test]
    fn streaming_matches_materialized_at_any_thread_count() {
        let trace = messy_trace(240);
        let seq = reference(&trace);
        let path = write_trace_file(&trace, "equiv");
        for threads in [1usize, 2, 4] {
            let reg = obs::Registry::new();
            let rep = classify_stream_file(&path, &classifier(), &stream_opts(threads, 17), &reg)
                .unwrap();
            let got: Vec<ClassifiedRequest> = rep
                .collected
                .as_ref()
                .unwrap()
                .iter()
                .map(|(_, r)| r.clone())
                .collect();
            assert_eq!(got, seq.requests, "threads={threads}");
            assert_eq!(rep.degradation, seq.degradation, "threads={threads}");
            assert_eq!(rep.windows, seq.windows, "threads={threads}");
            assert_eq!(rep.https_flows as usize, seq.https_flows.len());
            assert_eq!(rep.requests as usize, seq.requests.len());
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let trace = messy_trace(300);
        let path = write_trace_file(&trace, "resume");
        let dir = temp_path("resume-ck");
        let _ = fs::remove_dir_all(&dir);

        // Uninterrupted run.
        let mut full = stream_opts(3, 16);
        full.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 4,
            resume: false,
        });
        let want =
            classify_stream_file(&path, &classifier(), &full, &obs::Registry::new()).unwrap();
        let _ = fs::remove_dir_all(&dir);

        // Killed run: checkpoints every 2 chunks, stops after 7.
        let mut killed = stream_opts(3, 16);
        killed.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 2,
            resume: false,
        });
        killed.stop_after_chunks = Some(7);
        let partial =
            classify_stream_file(&path, &classifier(), &killed, &obs::Registry::new()).unwrap();
        assert!(partial.stopped_early);
        assert!(partial.checkpoints_written >= 3);

        // Resume at a *different* thread count.
        let mut resumed = stream_opts(2, 16);
        resumed.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 2,
            resume: true,
        });
        let got =
            classify_stream_file(&path, &classifier(), &resumed, &obs::Registry::new()).unwrap();
        assert!(got.resumed_from.unwrap() > 0);
        assert_eq!(got.render(), want.render(), "resumed render differs");
        // `collected` is a this-run vector: the resumed process only sees
        // requests finalized after the checkpoint. Each one must match the
        // uninterrupted run's request at the same global position, and
        // together with the manifest base they must account for every
        // request.
        let want_all = want.collected.as_ref().unwrap();
        let got_part = got.collected.as_ref().unwrap();
        assert!(!got_part.is_empty());
        for (pos, req) in got_part {
            let i = want_all
                .binary_search_by_key(pos, |(p, _)| *p)
                .expect("resumed position exists in the full run");
            assert_eq!(&want_all[i].1, req, "request at pos {pos} differs");
        }
        assert_eq!(
            got.requests as usize,
            want_all.len(),
            "cumulative totals must cover the whole trace"
        );
        assert_eq!(got.degradation, want.degradation);
        assert_eq!(got.codec, want.codec);
        assert_eq!(got.chunks, want.chunks);

        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_config_mismatch() {
        // The hash is stored in every checkpoint: a different value for
        // the same options would strand checkpoints written before it.
        assert_eq!(
            config_hash(&StreamOptions::default()),
            0x9fb9_64c8_47b6_4d7d
        );
        let trace = messy_trace(64);
        let path = write_trace_file(&trace, "mismatch");
        let dir = temp_path("mismatch-ck");
        let _ = fs::remove_dir_all(&dir);
        let mut o = stream_opts(2, 8);
        o.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 1,
            resume: false,
        });
        classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap();
        let mut other = o.clone();
        other.pipeline.refmap.redirect_repair = false;
        other.checkpoint.as_mut().unwrap().resume = true;
        let err = classify_stream_file(&path, &classifier(), &other, &obs::Registry::new());
        assert!(matches!(err, Err(StreamError::Checkpoint(_))));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn poison_records_are_quarantined_not_fatal() {
        let trace = messy_trace(160);
        let path = write_trace_file(&trace, "poison");
        let qpath = temp_path("poison-q");
        let mut o = stream_opts(2, 16);
        o.quarantine_path = Some(qpath.clone());
        o.poison_host = Some("track.example".into());
        let rep = classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap();
        assert!(rep.degradation.poisoned_records > 0);

        // The sidecar holds the unparseable-URL records verbatim plus a
        // replayable reconstruction of each poisoned record.
        let sidecar = fs::read_to_string(&qpath).unwrap();
        let lines: Vec<&str> = sidecar.lines().collect();
        assert_eq!(
            lines.len(),
            rep.degradation.quarantined(),
            "one sidecar line per quarantined record"
        );
        let mut poisoned_seen = 0;
        for line in &lines {
            let v = json::parse(line).expect("sidecar lines are valid JSON");
            assert!(v.get("Http").is_some(), "sidecar lines are trace records");
            if line.contains("track.example") {
                poisoned_seen += 1;
            }
        }
        assert_eq!(poisoned_seen, rep.degradation.poisoned_records);

        // Everything else classified exactly as if the poisoned records
        // were unparseable — totals reconcile.
        let seq = reference(&trace);
        assert!(rep.requests as usize + rep.degradation.poisoned_records == seq.requests.len());
        let _ = fs::remove_file(&qpath);
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
            .map(|(i, batch)| StreamChunk {
                seq: i as u64,
                records: batch.to_vec(),
                stats: CodecStats {
                    records_read: batch.len(),
                    ..CodecStats::default()
                },
                end_offset: 0,
            });
        let mut o = stream_opts(4, 13);
        let reg = obs::Registry::new();
        let rep = classify_stream_chunks(chunks, meta, &classifier(), &o, &reg).unwrap();
        let got: Vec<ClassifiedRequest> = rep
            .collected
            .as_ref()
            .unwrap()
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(got, seq.requests);
        assert_eq!(rep.windows, seq.windows);

        // ... but checkpointing without a file is refused.
        o.checkpoint = Some(CheckpointOptions::new(temp_path("nope")));
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
        );
        assert!(matches!(err, Err(StreamError::Config(_))));
    }

    #[test]
    fn stream_metrics_and_window_publish() {
        let trace = messy_trace(96);
        let path = write_trace_file(&trace, "metrics");
        let reg = obs::Registry::new();
        let rep = classify_stream_file(&path, &classifier(), &stream_opts(2, 8), &reg).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("adscope_stream_chunks_total", &[]), rep.chunks);
        assert_eq!(
            snap.counter("adscope_requests_classified_total", &[]),
            rep.requests
        );
        assert!(reg.windows_ndjson().contains("\"scope\":\"adscope\""));
        assert!(reg.windows_ndjson().contains("\"scope\":\"decode\""));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn user_state_round_trips_through_serialization() {
        let opts = RefMapOptions::default();
        let mut st = UserState::fresh(opts);
        let mk = |idx: usize, ts: f64, url: &str, loc: Option<&str>| WebObject {
            idx,
            ts,
            client_ip: 7,
            server_ip: 3,
            url: Url::parse(url).unwrap(),
            referer: None,
            content_type: Some(Arc::from("text/html")),
            bytes: 10,
            status: if loc.is_some() { 302 } else { 200 },
            location: loc.map(|l| Url::parse(l).unwrap()),
            user_agent: Some(Arc::from("UA \"quoted\"")),
            tcp_handshake_ms: 0.25,
            http_handshake_ms: 1.5,
        };
        let doc = mk(0, 0.125, "http://pub.example/", None);
        st.map.process(&doc);
        let redir = mk(
            1,
            0.5,
            "http://r.example/go?x=1",
            Some("http://t.example/b.gif"),
        );
        let entry = st.map.process(&redir);
        st.held.insert(
            1,
            HeldRecord {
                pos: 1,
                page: entry.ctx.page.clone(),
                category: ContentCategory::Other,
                obj: redir,
            },
        );
        let key = (7u32, Some(Arc::from("UA \"quoted\"")));
        let line = serialize_user(&key, &st);
        let back = user_from_line(&line, opts).unwrap();
        assert_eq!(back.client_ip, 7);
        assert_eq!(back.user_agent.as_deref(), Some("UA \"quoted\""));
        assert_eq!(back.map.page_of.len(), st.map.page_of.len());
        assert_eq!(back.map.pending_redirects.len(), 1);
        assert_eq!(back.map.redirects_inserted(), st.map.redirects_inserted());
        assert_eq!(back.held.len(), 1);
        assert_eq!(back.held[0].obj.ts, 0.5);
        assert_eq!(
            back.held[0].page.as_ref().map(Url::as_string),
            st.held[&1].page.as_ref().map(Url::as_string)
        );

        // The restored map (keys rebuilt from the checkpoint's strings)
        // goes on exactly as the live one: the redirect target is
        // stitched, a child finds its root through a restored key, a URL
        // seen before the checkpoint is updated and not duplicated.
        let mut restored = back.map;
        let mut target = mk(2, 0.75, "http://t.example/b.gif", None);
        let mut child = mk(3, 1.0, "http://cdn.example/a.js", None);
        child.referer = Some(Url::parse("https://r.example/go?x=1").unwrap());
        target.content_type = Some(Arc::from("image/gif"));
        let again = mk(4, 1.5, "http://pub.example/", None);
        let orphan = mk(5, 2.0, "http://beacon.example/p.gif", None);
        for obj in [&target, &child, &again, &orphan] {
            assert_eq!(restored.process(obj), st.map.process(obj), "{}", obj.url);
        }
        assert_eq!(restored.page_of, st.map.page_of);
        assert_eq!(restored.pending_redirects, st.map.pending_redirects);
        assert_eq!(restored.last_page, st.map.last_page);
        assert_eq!(restored.redirects_consumed(), 1);
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

    #[test]
    fn window_report_round_trips_through_json() {
        let trace = messy_trace(128);
        let seq = reference(&trace);
        let mut s = String::new();
        window_report_to_json(&mut s, &seq.windows);
        let v = json::parse(&s).unwrap();
        let back = window_report_from_value(&v, ADSCOPE_COUNTERS, HIST_TABLE).unwrap();
        assert_eq!(back, seq.windows);
    }
}
