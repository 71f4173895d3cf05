//! The worker side of the stream engine: the quarantine sidecar, the
//! held-record protocol, and the per-shard [`Worker`] that runs the
//! sequential per-user stages, folds every finished request into its
//! [`Planes`] (cut whenever the router asks), into its user's counters and
//! into its copy of the run's [`Fold`] (handed back at end of stream).

use super::checkpoint::{write_user, LineScratch};
use super::{ck_err, Fold, StreamError};
use crate::classify::PassiveClassifier;
use crate::content::{infer_category_traced, ContentOptions};
use crate::extract::{UserId, WebObject};
use crate::pipeline::{ClassifiedRequest, PipelineOptions};
use crate::planes::Planes;
use crate::refmap::{RefMap, SWEEP_EVERY_SECS};
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
    /// A record reached this user since its last line: the next barrier
    /// renders one.
    dirty: bool,
    /// On the worker's list of the users a sweep visits.
    listed: bool,
}

impl UserState {
    /// The state of a user met for the first time.
    pub(super) fn fresh(client_ip: u32, user_agent: Option<Arc<str>>) -> UserState {
        UserState {
            client_ip,
            user_agent,
            map: RefMap::releasing(),
            held: HashMap::new(),
            counters: UserTally::default(),
            dirty: false,
            listed: false,
        }
    }
}

/// The classify half of a worker, split from the user-state map so
/// borrow of one user's state and the shared counters can coexist.
struct Core<'a, F> {
    classifier: &'a PassiveClassifier,
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
    /// Finalize `user`'s held records whose pending redirects died
    /// unconsumed, as they are, in `idx` order.
    fn release(&mut self, user: &mut UserState, mut released: Vec<usize>) {
        released.sort_unstable();
        for idx in released {
            if let Some(h) = user.held.remove(&idx) {
                self.finalize(h, &mut user.counters);
            }
        }
    }

    /// Classify a record whose category is now final and fold it into the
    /// worker's planes, its `user`'s counters and the fold. Every record
    /// passes here exactly once.
    fn finalize(&mut self, h: HeldRecord, user: &mut UserTally) {
        if h.obj.content_type.is_none() && h.category != ContentCategory::Other {
            self.planes.degradation.content_type_fallbacks += 1;
        }
        let normalizer = self.classifier.normalizer();
        let url = normalizer.normalize_owned(h.obj.url, &mut self.query_buf);
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
        self.planes.observe(&req);
        user.observe(&req);
        self.fold.observe(h.pos, &req);
    }
}

pub(super) enum ToWorker {
    /// `(global position, object)` pairs, in global time order
    /// restricted to this worker's users.
    Batch(Vec<(u64, WebObject)>),
    /// Checkpoint barrier: cut a delta and ack it, then render the users'
    /// lines and send them. Set for a rewrite of the log, which renders
    /// every user whole.
    Barrier(bool),
}

/// Barrier ack: the worker's planes cut since its last ack — absorbed by the
/// router with the same code as the end-of-stream result's — and the
/// counters of the users the barrier renders.
/// It goes before any line is rendered, so the router moves on meanwhile.
pub(super) struct WorkerAck {
    pub(super) delta: Planes,
    /// The counters of the users rendered: only a record can move them.
    pub(super) counters: Vec<(UserId, UserTally)>,
    /// The `page_of` entries of every user of the worker, rendered or not:
    /// what the router estimates a whole-state segment from.
    pub(super) entries: u64,
}

/// The user lines a barrier rendered, each ending in a newline, and how many.
pub(super) type WorkerLines = (String, u64);

/// End-of-stream result: the residual delta (the one that adds the
/// state-derived `broken_redirect_chains`), every user's counters, and the
/// worker's part of the run's fold.
pub(super) struct WorkerFinal<F> {
    pub(super) delta: Planes,
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
    /// The barrier epoch: a record stamps the `page_of` entries it writes
    /// with it, a barrier's deltas hold the entries stamped with it, and
    /// every barrier moves it on. Restored entries carry 0.
    epoch: u32,
    /// The clock of the last object this worker saw ([`WebObject::clock`]),
    /// and the clock of its last sweep.
    clock: f64,
    swept: f64,
    /// The users a sweep visits: every user whose map may hold an entry,
    /// that is, one a record reached since a sweep left its map empty. A
    /// sweep of an empty map changes nothing, so the others can wait.
    listed: Vec<UserId>,
    scratch: LineScratch,
}

impl<'a, F: Fold> Worker<'a, F> {
    pub(super) fn new(
        classifier: &'a PassiveClassifier,
        opts: PipelineOptions,
        fold: F,
        quarantine: Option<Arc<Quarantine>>,
        poison_host: Option<&'a str>,
        restored: Vec<(UserId, UserState)>,
    ) -> Worker<'a, F> {
        let (mut users, mut listed) = (Vec::new(), Vec::new());
        for (id, mut state) in restored {
            state.listed = true;
            listed.push(id);
            *slot(&mut users, id) = Some(state);
        }
        Worker {
            users,
            core: Core {
                classifier,
                planes: Planes::new(opts),
                fold,
                scratch: abp_filter::ClassifyScratch::new(),
                query_buf: String::new(),
            },
            quarantine,
            poison_host,
            epoch: 1,
            clock: 0.0,
            swept: 0.0,
            listed,
            scratch: LineScratch::default(),
        }
    }

    /// One record through refmap → category → held-record resolution.
    /// Mirrors the materialized passes 1+2 incrementally (see module
    /// docs); the equivalence suite pins the two together.
    fn process_record(&mut self, pos: u64, obj: WebObject) {
        let state = slot(&mut self.users, obj.user)
            .get_or_insert_with(|| UserState::fresh(obj.client_ip, obj.user_agent.clone()));
        // First, before anything below can unwind: a record that dies
        // half-way through may have written to the map all the same, and
        // the next barrier must render what it wrote.
        state.dirty = true;
        if !state.listed {
            state.listed = true;
            self.listed.push(obj.user);
        }
        state.map.epoch = self.epoch;
        let entry = state.map.process(&obj);
        let released = state.map.take_released();
        // The poison hook stands for a panic anywhere past this point.
        if let Some(ph) = self.poison_host {
            assert!(obj.url.host() != ph, "poison host hit: {}", obj.url.host());
        }
        let (cat, _src) = infer_category_traced(
            &obj.url,
            obj.content_type.as_deref(),
            ContentOptions::default(),
        );
        if entry.ctx.page.is_none() {
            self.core.planes.degradation.refmap_misses += 1;
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
        // Displaced or expired pendings can never be backfilled —
        // release their holds as-is.
        self.core.release(state, released);
        let rec = HeldRecord {
            pos,
            page: entry.ctx.page,
            category: cat,
            obj,
        };
        if rec.obj.location.is_some() {
            state.held.insert(rec.obj.idx, rec);
        } else {
            self.core.finalize(rec, &mut state.counters);
        }
    }

    /// Process with the poison guard when quarantine or the poison hook
    /// is active; otherwise the bare hot path (no clone, no landing
    /// pad).
    fn handle(&mut self, pos: u64, obj: WebObject) {
        self.clock = obj.clock;
        if self.quarantine.is_none() && self.poison_host.is_none() {
            self.process_record(pos, obj);
            return;
        }
        let ts = obj.ts;
        let backup = self.quarantine.as_ref().map(|_| obj.clone());
        let res = catch_unwind(AssertUnwindSafe(|| self.process_record(pos, obj)));
        if res.is_err() {
            self.core.planes.degradation.poisoned_records += 1;
            self.core.planes.observe_quarantined(ts);
            if let (Some(q), Some(b)) = (self.quarantine.as_ref(), backup) {
                q.write_line(&record_to_json(&reconstruct_record(&b)));
            }
        }
    }

    /// Once the clock of the last object seen has moved
    /// [`SWEEP_EVERY_SECS`] since the last time, the cadence at which a map
    /// sweeps itself, sweep the map of every listed user at it, idle users'
    /// too, finalize the held records whose pending redirects it let go,
    /// and unlist the users it left empty. A user it released a record of
    /// renders a line at the next barrier: its held records, pending
    /// redirects and counters moved.
    fn sweep(&mut self) {
        if self.clock - self.swept < SWEEP_EVERY_SECS {
            return;
        }
        let (clock, users, core) = (self.clock, &mut self.users, &mut self.core);
        self.swept = clock;
        self.listed.retain(|&user| {
            let Some(st) = users[user as usize].as_mut() else {
                return false;
            };
            st.map.sweep(clock);
            let released = st.map.take_released();
            if !released.is_empty() {
                st.dirty = true;
                core.release(st, released);
            }
            st.listed = !st.map.is_empty();
            st.listed
        });
    }

    /// This worker's users, with their ids.
    fn users(&self) -> impl Iterator<Item = (UserId, &UserState)> {
        let users = self.users.iter().enumerate();
        users.filter_map(|(id, st)| st.as_ref().map(|st| (id as UserId, st)))
    }

    /// A barrier's ack: the planes' cut, the counters of the users it
    /// renders — every user for a `rewrite`, else those a record reached
    /// since the last barrier — and the live `page_of` entries.
    fn barrier_ack(&mut self, rewrite: bool) -> WorkerAck {
        let (mut counters, mut entries) = (Vec::new(), 0);
        for (id, st) in self.users() {
            entries += st.map.page_of.len() as u64;
            if rewrite || st.dirty {
                counters.push((id, st.counters));
            }
        }
        WorkerAck {
            delta: self.core.planes.cut(),
            counters,
            entries,
        }
    }

    /// Then the same users' lines. The epoch moves on.
    fn barrier_lines(&mut self, rewrite: bool) -> WorkerLines {
        let (mut lines, mut users) = (String::new(), 0);
        for st in self.users.iter_mut().flatten() {
            if !std::mem::take(&mut st.dirty) && !rewrite {
                continue;
            }
            let whole = std::mem::take(&mut st.map.whole) || rewrite;
            let delta = (!whole).then_some(self.epoch);
            write_user(&mut lines, st, delta, &mut self.scratch);
            users += 1;
        }
        self.epoch = self.epoch.wrapping_add(1);
        (lines, users)
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
    ack_tx: mpsc::Sender<WorkerAck>,
    lines_tx: mpsc::Sender<WorkerLines>,
    slot: Arc<obs::health::WorkerHealth>,
    registry: &obs::Registry,
) -> WorkerFinal<F> {
    for msg in rx {
        match msg {
            ToWorker::Batch(batch) => {
                let n = batch.len() as u64;
                w.sweep();
                for (pos, obj) in batch {
                    w.handle(pos, obj);
                }
                slot.beat(registry.elapsed_ns(), n);
            }
            ToWorker::Barrier(rewrite) => {
                if ack_tx.send(w.barrier_ack(rewrite)).is_err()
                    || lines_tx.send(w.barrier_lines(rewrite)).is_err()
                {
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
            clock: idx as f64 * 0.5,
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

    /// One barrier, both halves: the ack, and the lines with their count.
    fn barrier(w: &mut Worker<'_, ()>, rewrite: bool) -> (WorkerAck, String, u64) {
        let ack = w.barrier_ack(rewrite);
        let (lines, users) = w.barrier_lines(rewrite);
        assert_eq!(ack.counters.len() as u64, users, "one counter block a line");
        (ack, lines, users)
    }

    /// The barrier's line for `client`, found by the key every line opens
    /// with, if it rendered one.
    fn line_of(lines: &str, client: u32) -> Option<json::Value<'_>> {
        let opens = format!("{{\"client_ip\":{client},");
        let mut hits = lines.lines().filter(|l| l.starts_with(&opens));
        let line = hits.next().map(|l| json::parse(l).unwrap());
        assert!(hits.next().is_none(), "two lines for client {client}");
        line
    }

    /// Whether `client`'s line is whole, and the keys of its `page_of`.
    fn page_of(lines: &str, client: u32) -> (bool, Vec<String>) {
        let line = line_of(lines, client).expect("a line for the client");
        let entries: Vec<(String, usize, String, u16)> = line.field("page_of").unwrap();
        let keys = entries.into_iter().map(|(k, ..)| k).collect();
        (line.field("full").unwrap(), keys)
    }

    fn worker<'a>(classifier: &'a PassiveClassifier, poison: Option<&'a str>) -> Worker<'a, ()> {
        let popts = stream_opts(1, 16).pipeline;
        Worker::new(classifier, popts, (), None, poison, vec![])
    }

    #[test]
    fn a_barrier_renders_only_the_users_a_record_touched() {
        let classifier = classifier();
        let mut w = worker(&classifier, None);
        feed_three_users(&mut w);

        // A rewrite renders every user whole; with no record since, the next
        // barrier renders nobody.
        let (first, lines, users) = barrier(&mut w, true);
        assert_eq!(users, 3);
        for client in 1..=3 {
            let line = line_of(&lines, client).unwrap();
            assert!(line.field::<bool>("full").unwrap());
            let held = line.get("held");
            assert!(matches!(held, Some(json::Value::Array(h)) if !h.is_empty()));
        }
        let (second, lines, users) = barrier(&mut w, false);
        assert_eq!((users, lines.as_str()), (0, ""));
        assert_eq!(second.entries, first.entries);

        // One record for one user: exactly that user's line, a delta.
        w.handle(6, obj(6, 2, "http://ads.example/b.gif", None));
        let (_, lines, users) = barrier(&mut w, false);
        assert_eq!(users, 1);
        assert!(!page_of(&lines, 2).0);
        assert!(line_of(&lines, 1).is_none() && line_of(&lines, 3).is_none());

        // A user first met after the rewrite renders whole: the log holds no
        // line of it to update.
        w.handle(7, obj(7, 4, "http://pub.example/", None));
        assert!(page_of(&barrier(&mut w, false).1, 4).0);
        // And a rewrite renders everybody whole again.
        let (_, lines, users) = barrier(&mut w, true);
        assert_eq!(users, 4);
        assert!((1..=4).all(|client| page_of(&lines, client).0));
    }

    /// A delta holds the `page_of` entries a record wrote since the user's
    /// last line, not the user's whole map, and a record that panics after
    /// the map took it still leaves its user to render what it wrote.
    #[test]
    fn a_barrier_renders_only_the_entries_a_record_touched() {
        let classifier = classifier();
        let mut w = worker(&classifier, Some("track.example"));
        let mut page = obj(0, 1, "http://pub.example/", None);
        page.content_type = Some(Arc::from("text/html"));
        w.handle(0, page);
        let child = |i: usize, url: &str| {
            let mut o = obj(i, 1, url, None);
            o.referer = Some(Url::parse("http://pub.example/").unwrap());
            o
        };
        for i in 1..40 {
            w.handle(i as u64, child(i, &format!("http://cdn.example/{i}.js")));
        }
        let (_, whole, _) = barrier(&mut w, true);
        let (full, keys) = page_of(&whole, 1);
        assert!(full && keys.len() == 40, "{} entries", keys.len());
        // Every entry names the one page root, written once.
        let roots: Vec<String> = line_of(&whole, 1).unwrap().field("roots").unwrap();
        assert_eq!(roots, ["http://pub.example/"]);

        // One record at one URL seen before: its entry alone.
        w.handle(40, child(40, "http://cdn.example/7.js"));
        let (_, lines, _) = barrier(&mut w, false);
        assert_eq!(page_of(&lines, 1), (false, vec!["cdn.example/7.js".into()]));

        // A record that panics once the map has taken it: quarantined, and
        // its entry is in the user's next line all the same.
        w.handle(41, child(41, "http://track.example/pixel/1"));
        assert_eq!(w.core.planes.degradation.poisoned_records, 1);
        let (_, lines, _) = barrier(&mut w, false);
        let poisoned = vec!["track.example/pixel/1".to_string()];
        assert_eq!(page_of(&lines, 1), (false, poisoned));
    }

    /// A sweep reaches every user whose map holds an entry, idle users too,
    /// at the clock of the last object seen: a held redirect whose horizon
    /// passed while its user was idle is finalized, and that user renders a
    /// line at the next barrier (a resumed run must not find the record
    /// still held). The users it left empty drop off its list.
    #[test]
    fn a_batch_sweeps_idle_users_and_renders_what_it_released() {
        let classifier = classifier();
        let mut w = worker(&classifier, None);
        // Three users each load a page and follow a redirect off it.
        for (i, client) in [1u32, 2, 3, 1, 2, 3].into_iter().enumerate() {
            let mut o = match i / 3 {
                0 => obj(i, client, "http://pub.example/", None),
                _ => obj(
                    i,
                    client,
                    "http://r.example/go",
                    Some("http://ads.example/b.gif"),
                ),
            };
            o.content_type = (i < 3).then(|| Arc::from("text/html"));
            o.referer = (i >= 3).then(|| Url::parse("http://pub.example/").unwrap());
            w.handle(i as u64, o);
        }
        let (first, ..) = barrier(&mut w, true);
        assert_eq!(first.entries, 6);
        // User 4 alone is busy, 200 s of trace later: the others are idle.
        let mut late = obj(6, 4, "http://pub.example/", None);
        (late.ts, late.clock) = (200.0, 200.0);
        late.content_type = Some(Arc::from("text/html"));
        w.handle(6, late);
        assert_eq!(w.listed, [1, 2, 3, 4]);
        w.sweep();
        assert_eq!(w.listed, [4]);
        for client in 1..=3 {
            let st = w.users[client].as_ref().unwrap();
            assert!(st.held.is_empty() && st.map.pending_redirects.is_empty());
            assert!(st.map.page_of.is_empty(), "client {client}");
        }
        // Since the barrier's cut: the three released records and the page.
        assert_eq!(w.core.planes.requests, 4);
        let (ack, lines, users) = barrier(&mut w, false);
        assert_eq!((users, ack.entries), (4, 1));
        for client in 1..=3 {
            let line = line_of(&lines, client).unwrap();
            assert!(matches!(line.get("held"), Some(json::Value::Array(h)) if h.is_empty()));
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
