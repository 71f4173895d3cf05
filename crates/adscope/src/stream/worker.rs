//! The worker side of the stream engine: the quarantine sidecar, the
//! held-record protocol, and the per-shard [`Worker`] that runs the
//! sequential per-user stages, folds every finished request into its
//! [`Planes`] (cut whenever the router asks), into its user's counters and
//! into its copy of the run's [`Fold`] (handed back at end of stream).

use super::checkpoint::serialize_user;
use super::{ck_err, Fold, StreamError};
use crate::classify::PassiveClassifier;
use crate::content::infer_category_traced;
use crate::extract::{UserId, WebObject};
use crate::normalize::UrlNormalizer;
use crate::pipeline::{ClassifiedRequest, PipelineOptions};
use crate::planes::{PlaneTotals, Planes};
use crate::refmap::RefMap;
use crate::users::UserTally;
use http_model::{ContentCategory, Url};
use netsim::codec::record_to_json;
use netsim::record::TraceRecord;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

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
pub(super) struct Quarantine {
    inner: Mutex<QuarantineInner>,
}

impl Quarantine {
    /// Open the sidecar at `path`, cut back to the `truncate_to` bytes the
    /// checkpoint being resumed recorded (0 for a fresh run). A file
    /// shorter than that has lost lines the checkpoint counts — `set_len`
    /// would pad it with zeros — and is refused.
    pub(super) fn open(path: &Path, truncate_to: u64) -> Result<Quarantine, StreamError> {
        // Not truncated wholesale: resume truncates to the recorded
        // length via `set_len` below.
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        let on_disk = f.metadata()?.len();
        if on_disk < truncate_to {
            return Err(ck_err(format!(
                "quarantine sidecar {} holds {on_disk} bytes, the checkpoint recorded {truncate_to}",
                path.display()
            )));
        }
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
    pub(super) fn write_line(&self, line: &str) {
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
    pub(super) fn flush_bytes(&self) -> io::Result<u64> {
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
pub(super) struct HeldRecord {
    pub(super) pos: u64,
    pub(super) page: Option<Url>,
    pub(super) category: ContentCategory,
    pub(super) obj: WebObject,
}

/// One ⟨IP, UA⟩ user's live state: its key, its referrer map, the records
/// it is holding and its counters. A checkpoint persists exactly this, one
/// line per user.
pub(super) struct UserState {
    pub(super) client_ip: u32,
    pub(super) user_agent: Option<Arc<str>>,
    pub(super) map: RefMap,
    /// Held records by their `idx`.
    pub(super) held: HashMap<usize, HeldRecord>,
    /// Cumulative over the user's finalized requests.
    pub(super) counters: UserTally,
    /// The checkpoint line the last barrier rendered from this state, while
    /// no record has touched it since: a barrier re-renders only the users
    /// a record reached. Never set in a run that does not checkpoint (no
    /// barrier runs).
    line: Option<Arc<str>>,
}

impl UserState {
    /// A user as a checkpoint line holds it, with no line rendered yet.
    pub(super) fn new(
        client_ip: u32,
        user_agent: Option<Arc<str>>,
        map: RefMap,
        held: HashMap<usize, HeldRecord>,
        counters: UserTally,
    ) -> UserState {
        UserState {
            client_ip,
            user_agent,
            map,
            held,
            counters,
            line: None,
        }
    }

    /// The state of a user met for the first time.
    pub(super) fn fresh(
        client_ip: u32,
        user_agent: Option<Arc<str>>,
        opts: PipelineOptions,
    ) -> UserState {
        // `restore` with empty state is `new` plus release tracking, which
        // the held-record protocol needs.
        let map = RefMap::restore(
            opts.refmap,
            HashMap::new(),
            HashMap::new(),
            None,
            0,
            0,
            true,
        );
        let counters = UserTally::default();
        UserState::new(client_ip, user_agent, map, HashMap::new(), counters)
    }
}

/// The classify half of a worker, split from the user-state map so
/// borrow of one user's state and the shared counters can coexist.
struct Core<'a, F> {
    classifier: &'a PassiveClassifier,
    normalizer: &'a UrlNormalizer,
    opts: PipelineOptions,
    /// Everything folded since the last cut. A worker counts `refmap_misses`,
    /// `content_type_fallbacks` and `poisoned_records` into its degradation.
    planes: Planes,
    fold: F,
    /// Reusable classify scratch: the match path allocates nothing per
    /// record under the compiled engine.
    scratch: abp_filter::ClassifyScratch,
    /// Reusable buffer the normalizer builds a rewritten URL in.
    query_buf: String,
}

impl<F: Fold> Core<'_, F> {
    /// Classify a record whose category is now final and fold it into the
    /// worker's planes, its `user`'s counters and the fold. Every record
    /// passes here exactly once.
    fn finalize(&mut self, h: HeldRecord, user: &mut UserTally) {
        if h.obj.content_type.is_none() && h.category != ContentCategory::Other {
            self.planes.degradation().content_type_fallbacks += 1;
        }
        let url = self
            .normalizer
            .normalize_owned(h.obj.url, &mut self.query_buf);
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
        self.planes.observe_user(&req, user);
        self.fold.observe(h.pos, &req);
    }
}

pub(super) enum ToWorker {
    /// `(global position, object)` pairs, in global time order
    /// restricted to this worker's users.
    Batch(Vec<(u64, WebObject)>),
    /// Checkpoint barrier: cut a delta, serialize state, ack.
    Barrier,
}

/// Barrier ack: the worker's planes cut since its last ack — the same
/// [`PlaneTotals`] the end-of-stream result carries, absorbed by the router
/// with the same code — plus every user's serialized state line, shared
/// with the worker's per-user cache, and the counters of the users rendered.
pub(super) struct WorkerAck {
    pub(super) delta: PlaneTotals,
    /// The lines rendered at this barrier: the users a record touched since
    /// the last one (every user, at a worker's first barrier). An appended
    /// checkpoint segment holds these.
    pub(super) rendered: Vec<Arc<str>>,
    /// The other users' lines, as the barrier that rendered them left them.
    pub(super) kept: Vec<Arc<str>>,
    /// The counters of the rendered users: only a record can move them.
    pub(super) counters: Vec<(UserId, UserTally)>,
}

/// End-of-stream result: the residual delta (the one that adds the
/// state-derived `broken_redirect_chains`), every user's counters, and the
/// worker's part of the run's fold.
pub(super) struct WorkerFinal<F> {
    pub(super) delta: PlaneTotals,
    pub(super) counters: Vec<(UserId, UserTally)>,
    pub(super) fold: F,
}

pub(super) struct Worker<'a, F> {
    /// Indexed by [`UserId`]: this worker's users hold their slots, the
    /// other workers' are `None`.
    users: Vec<Option<UserState>>,
    core: Core<'a, F>,
    quarantine: Option<Arc<Quarantine>>,
    poison_host: Option<&'a str>,
}

impl<'a, F: Fold> Worker<'a, F> {
    pub(super) fn new(
        classifier: &'a PassiveClassifier,
        normalizer: &'a UrlNormalizer,
        opts: PipelineOptions,
        fold: F,
        quarantine: Option<Arc<Quarantine>>,
        poison_host: Option<&'a str>,
        restored: Vec<(UserId, UserState)>,
    ) -> Worker<'a, F> {
        let mut users = Vec::new();
        for (id, state) in restored {
            *slot(&mut users, id) = Some(state);
        }
        Worker {
            users,
            core: Core {
                classifier,
                normalizer,
                opts,
                planes: Planes::new(opts, &[]),
                fold,
                scratch: abp_filter::ClassifyScratch::new(),
                query_buf: String::new(),
            },
            quarantine,
            poison_host,
        }
    }

    /// One record through refmap → category → held-record resolution.
    /// Mirrors the materialized passes 1+2 incrementally (see module
    /// docs); the equivalence suite pins the two together.
    fn process_record(&mut self, pos: u64, obj: WebObject) {
        let opts = self.core.opts;
        let state = slot(&mut self.users, obj.user)
            .get_or_insert_with(|| UserState::fresh(obj.client_ip, obj.user_agent.clone(), opts));
        // First, before anything below can unwind (the poison hook stands
        // for a panic anywhere in here): a record that dies half-way
        // through must not leave a line rendered before it.
        state.line = None;
        if let Some(ph) = self.poison_host {
            assert!(obj.url.host() != ph, "poison host hit: {}", obj.url.host());
        }
        let entry = state.map.process(&obj);
        let released = state.map.take_released();
        let (cat, _src) =
            infer_category_traced(&obj.url, obj.content_type.as_deref(), opts.content);
        if entry.ctx.page.is_none() {
            self.core.planes.degradation().refmap_misses += 1;
        }
        // Consume: this record stitched a redirect chain — backfill the
        // held redirecting record with this record's provisional
        // category and finalize it.
        if let Some(idx) = entry.backfill_type_to {
            if let Some(mut h) = state.held.remove(&idx) {
                if cat != ContentCategory::Other {
                    h.category = cat;
                }
                self.core.finalize(h, &mut state.counters);
            }
        }
        // Displaced or evicted pendings can never be backfilled —
        // release their holds as-is.
        for idx in released {
            if let Some(h) = state.held.remove(&idx) {
                self.core.finalize(h, &mut state.counters);
            }
        }
        let rec = HeldRecord {
            pos,
            page: entry.ctx.page,
            category: cat,
            obj,
        };
        if opts.refmap.redirect_repair && rec.obj.location.is_some() {
            state.held.insert(rec.obj.idx, rec);
        } else {
            self.core.finalize(rec, &mut state.counters);
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
            self.core.planes.degradation().poisoned_records += 1;
            self.core.planes.observe_quarantined(ts);
            if let (Some(q), Some(b)) = (self.quarantine.as_ref(), backup) {
                q.write_line(&record_to_json(&reconstruct_record(&b)));
            }
        }
    }

    /// This worker's users, with their ids.
    fn users(&self) -> impl Iterator<Item = (UserId, &UserState)> {
        let users = self.users.iter().enumerate();
        users.filter_map(|(id, st)| st.as_ref().map(|st| (id as UserId, st)))
    }

    fn barrier_ack(&mut self) -> WorkerAck {
        let (mut rendered, mut kept, mut counters) = (Vec::new(), Vec::new(), Vec::new());
        for (id, st) in self.users.iter_mut().enumerate() {
            let Some(st) = st else { continue };
            match &st.line {
                Some(line) => kept.push(Arc::clone(line)),
                None => {
                    let line = st.line.insert(serialize_user(st).into());
                    rendered.push(Arc::clone(line));
                    counters.push((id as UserId, st.counters));
                }
            }
        }
        WorkerAck {
            delta: self.core.planes.cut(),
            rendered,
            kept,
            counters,
        }
    }

    fn finish(mut self) -> WorkerFinal<F> {
        // End of stream: held records whose backfill never came are
        // finalized as-is (their chains stayed broken), in position
        // order.
        let mut leftovers: Vec<HeldRecord> = self
            .users
            .iter_mut()
            .flatten()
            .flat_map(|s| s.held.drain().map(|(_, h)| h))
            .collect();
        leftovers.sort_by_key(|h| h.pos);
        for h in leftovers {
            let user = self.users[h.obj.user as usize].as_mut();
            let user = user.expect("a held record's user is this worker's");
            self.core.finalize(h, &mut user.counters);
        }
        let mut delta = self.core.planes.cut();
        let mut counters = Vec::new();
        for (id, st) in self.users() {
            delta.degradation.broken_redirect_chains +=
                st.map.redirects_inserted() - st.map.redirects_consumed();
            counters.push((id, st.counters));
        }
        WorkerFinal {
            delta,
            counters,
            fold: self.core.fold,
        }
    }
}

/// `user`'s slot in a table indexed by [`UserId`], grown to hold it.
fn slot<T>(table: &mut Vec<Option<T>>, user: UserId) -> &mut Option<T> {
    let at = user as usize;
    if at >= table.len() {
        table.resize_with(at + 1, || None);
    }
    &mut table[at]
}

pub(super) fn worker_loop<F: Fold>(
    mut w: Worker<'_, F>,
    rx: parallel::Receiver<ToWorker>,
    ack_tx: mpsc::Sender<(usize, WorkerAck)>,
    id: usize,
    slot: Arc<obs::health::WorkerHealth>,
    registry: &obs::Registry,
) -> WorkerFinal<F> {
    for msg in rx {
        match msg {
            ToWorker::Batch(batch) => {
                let n = batch.len() as u64;
                for (pos, obj) in batch {
                    w.handle(pos, obj);
                }
                slot.beat(registry.elapsed_ns(), n);
            }
            ToWorker::Barrier => {
                if ack_tx.send((id, w.barrier_ack())).is_err() {
                    break;
                }
            }
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::classify_stream_file;
    use crate::stream::testutil::*;
    use netsim::json;
    use std::fs;

    fn obj(idx: usize, client: u32, url: &str, location: Option<&str>) -> WebObject {
        WebObject {
            idx,
            user: client,
            ts: idx as f64 * 0.5,
            client_ip: client,
            server_ip: 9,
            url: Url::parse(url).unwrap(),
            referer: None,
            content_type: None,
            bytes: 100,
            status: if location.is_some() { 302 } else { 200 },
            location: location.map(|l| Url::parse(l).unwrap()),
            user_agent: Some(Arc::from("UA")),
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 4.0,
        }
    }

    /// Three users, each with a page, a held redirect and a pending entry.
    fn feed_three_users(w: &mut Worker<'_, ()>) {
        for (i, client) in [1u32, 2, 3, 1, 2, 3].into_iter().enumerate() {
            let o = match i / 3 {
                0 => obj(i, client, "http://pub.example/", None),
                _ => obj(
                    i,
                    client,
                    "http://r.example/go",
                    Some("http://ads.example/b.gif"),
                ),
            };
            w.handle(i as u64, o);
        }
    }

    /// The barrier's line for `client`, found by the key every line opens with.
    fn line_of(ack: &WorkerAck, client: u32) -> &Arc<str> {
        let opens = format!("{{\"client_ip\":{client},");
        let lines = ack.rendered.iter().chain(&ack.kept);
        let mut hits = lines.filter(|l| l.starts_with(&opens));
        let line = hits.next().expect("one line per user");
        assert!(hits.next().is_none(), "two lines for client {client}");
        line
    }

    /// Every line a barrier acks is what `serialize_user` renders from the
    /// live state right now, cached or not.
    fn assert_lines_are_live(w: &Worker<'_, ()>, ack: &WorkerAck) {
        assert_eq!(ack.rendered.len() + ack.kept.len(), w.users().count());
        for (_, st) in w.users() {
            assert_eq!(**line_of(ack, st.client_ip), *serialize_user(st));
        }
    }

    #[test]
    fn a_barrier_renders_only_the_users_a_record_touched() {
        let (classifier, popts) = (classifier(), stream_opts(1, 16).pipeline);
        let normalizer = UrlNormalizer::for_classifier(&classifier, popts.normalize);
        let mut w = Worker::new(&classifier, &normalizer, popts, (), None, None, vec![]);
        feed_three_users(&mut w);

        // No record between two barriers: every line is the same allocation.
        let first = w.barrier_ack();
        let second = w.barrier_ack();
        assert_eq!((first.rendered.len(), second.rendered.len()), (3, 0));
        assert_lines_are_live(&w, &first);
        for client in 1..=3 {
            assert!(line_of(&first, client).contains("\"held\":[{"));
            assert!(Arc::ptr_eq(
                line_of(&first, client),
                line_of(&second, client)
            ));
        }

        // One record for one user: exactly that user's line is rendered anew.
        w.handle(6, obj(6, 2, "http://ads.example/b.gif", None));
        let third = w.barrier_ack();
        assert_eq!(third.rendered.len(), 1);
        assert_lines_are_live(&w, &third);
        for client in 1..=3 {
            let shared = Arc::ptr_eq(line_of(&second, client), line_of(&third, client));
            assert_eq!(shared, client != 2, "client {client}");
        }
        assert_ne!(line_of(&second, 2), line_of(&third, 2));
    }

    /// A record that panics inside `process_record` may have got half-way
    /// through its user's state: the line rendered before it is dropped.
    #[test]
    fn a_poisoned_record_invalidates_its_users_line() {
        let (classifier, popts) = (classifier(), stream_opts(1, 16).pipeline);
        let normalizer = UrlNormalizer::for_classifier(&classifier, popts.normalize);
        let poison = Some("track.example");
        let mut w = Worker::new(&classifier, &normalizer, popts, (), None, poison, vec![]);
        feed_three_users(&mut w);
        let before = w.barrier_ack();
        w.handle(6, obj(6, 3, "http://track.example/pixel/1", None));
        assert_eq!(w.core.planes.degradation().poisoned_records, 1);
        let after = w.barrier_ack();
        assert_lines_are_live(&w, &after);
        for client in 1..=3 {
            let shared = Arc::ptr_eq(line_of(&before, client), line_of(&after, client));
            assert_eq!(shared, client != 3, "client {client}");
        }
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
}
