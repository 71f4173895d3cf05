//! The persisted checkpoint: `checkpoint.ndjson`, an append-only log of
//! segments (format version 8). A segment is one manifest line (the
//! [`RunState`], plane totals included, and no fact twice: nothing the
//! config hash or a window's index fixes, and the population block carries
//! no count the manifest does), the lines of the users a record touched
//! since the segment before it, and a trailer
//! `{"segment":{"lines":n,"bytes":b,"sum":s}}` that counts and checksums
//! those lines ([`obs::Sum64`]). A user line is whole, or a delta whose
//! `page_of` holds only the entries written since the user's last line; the
//! page roots it names are listed once each, by index. A run's
//! first barrier, and a compaction the router announces
//! ([`CheckpointLog::rewrites`]), rewrites the log as one segment of whole
//! lines (`obs::atomic_write_with`); every other barrier appends one and
//! `sync_data`s it. Resume reads the segments up to the first that does not
//! validate, takes the last manifest and applies each user's lines in log
//! order. Every `f64` is its bit image in 16 hex digits, so a resumed run
//! starts from exactly the bits it held.
//!
//! Resume reads only the version this build writes: a checkpoint of any
//! other format version is refused, naming it. This is the only module in
//! this crate that names a checkpoint JSON key, so a plane added to
//! `crate::planes` gets its encode / decode pair here.
//!
//! Writers are hand-written `write!` chains (the per-user line is the
//! checkpointing run's hottest loop and must not allocate per field).
//! Readers go through [`netsim::json::FromJson`]: every integer is
//! range-checked into its own type, every fixed-arity array is a tuple of
//! exactly that arity, and a value that does not fit is refused with the
//! path to it (`population.sites[7]: expected u8`) instead of being
//! narrowed into a different number.

use super::router::RunState;
use super::worker::{HeldRecord, UserState};
use super::{ck_err, StreamError, StreamOptions};
use crate::degrade::DegradationReport;
use crate::extract::WebObject;
use crate::population::{PopulationOptions, PopulationSketches};
use crate::prehash::UrlKey;
use crate::users::UserTally;
use http_model::{ContentCategory, Url};
use netsim::codec::{CodecStats, FORMAT_VERSION};
use netsim::json::{self, DecodeError, FromJson, Value};
use netsim::record::TraceMeta;
use obs::sketch::{Distinct64, QuantileSketch, TopK, QUANTILE_GAMMA};
use obs::window::{WindowReport, WindowSeries};
use obs::HistogramSnapshot;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::{Display, Write as _};
use std::fs::{self, File, OpenOptions};
use std::hash::{BuildHasher, Hash};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Checkpoint file name inside the checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.ndjson";
/// Lock file inside the checkpoint directory, locked for as long as a run
/// checkpointing there is live.
pub(super) const LOCK_FILE: &str = "checkpoint.lock";
/// Manifest schema version (bumped on incompatible layout changes).
const CHECKPOINT_VERSION: u64 = 9;
/// A barrier rewrites the log once appending would take it past this many
/// times the bytes of a whole-state segment, and past
/// [`COMPACT_FLOOR_BYTES`].
const COMPACT_RATIO: u64 = 2;
/// A log is not compacted below this many bytes: when the whole state is
/// small, an append of the lines a chunk touched is nearly a whole segment,
/// and the ratio alone would rewrite the log at every other barrier.
const COMPACT_FLOOR_BYTES: u64 = 1 << 20;
/// What a segment's trailer line opens with. No other line can: a manifest
/// opens with `{"kind":`, a user line with `{"client_ip":`.
const TRAILER: &[u8] = b"{\"segment\":";
/// Manifest `kind` tag.
const CHECKPOINT_KIND: &str = "annoyed-users-checkpoint";

/// Hash of everything that must match between the checkpointing run and
/// the resuming run for the state to be meaningful. Thread count is
/// deliberately excluded: restored users are numbered again and re-route by
/// `shard_of`.
pub(super) fn config_hash(opts: &StreamOptions) -> u64 {
    let s = format!(
        "{:?}|{}|{}|{:?}|{:?}",
        opts.pipeline, opts.chunk_records, FORMAT_VERSION, opts.abp_ips, opts.alerts
    );
    obs::fnv64(s.as_bytes())
}

/// Take `dir`'s lock, creating the directory, or refuse: another live run
/// checkpoints there. The lock lives as long as the returned file, and the
/// OS drops it when its holder exits, however it exits, so a lock file a
/// finished or killed run left behind blocks nothing.
pub(super) fn lock_dir(dir: &Path) -> Result<File, StreamError> {
    fs::create_dir_all(dir)?;
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join(LOCK_FILE))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(fs::TryLockError::WouldBlock) => Err(StreamError::Locked(dir.to_path_buf())),
        Err(fs::TryLockError::Error(e)) => Err(e.into()),
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Append `f` as its bit image: a JSON string of exactly 16 lowercase hex
/// digits. Exact, fixed-width, and without the shortest-decimal search
/// `{:?}` runs or a decimal's division chain.
fn write_bits(out: &mut String, f: f64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bits = f.to_bits();
    let mut image = [b'"'; 18];
    for (i, digit) in image[1..17].iter_mut().enumerate() {
        *digit = HEX[(bits >> (60 - 4 * i)) as usize & 0xf];
    }
    out.push_str(std::str::from_utf8(&image).expect("ASCII hex"));
}

fn write_nums<T: Display>(out: &mut String, nums: impl IntoIterator<Item = T>) {
    json::write_seq(out, nums, |out, n| {
        let _ = write!(out, "{n}");
    });
}

/// A window report without its width, which the config hash covers, or
/// each window's start, which is its index times that width.
fn window_report_to_json(out: &mut String, r: &WindowReport) {
    let _ = write!(out, "{{\"late\":{},\"windows\":[", r.late);
    json::write_seq(out, &r.windows, |out, w| {
        let _ = write!(out, "{{\"index\":{},\"counters\":{{", w.index);
        json::write_seq(out, &w.counters, |out, (name, v)| {
            let _ = write!(out, "\"{name}\":{v}");
        });
        out.push_str("},\"hists\":{");
        json::write_seq(out, &w.hists, |out, (name, h)| {
            let _ = write!(out, "\"{name}\":{{\"buckets\":[");
            write_nums(out, &h.buckets);
            let _ = write!(out, "],\"sum\":{}}}", h.sum);
        });
        out.push_str("}}");
    });
    out.push_str("]}");
}

/// What rendering one user line after another reuses: a URL buffer, and the
/// roots the line has named, in order, each with its index in the line's
/// `"roots"` list. A root is found by the address of its buffer (clones
/// share it), and on a miss by its text, so a page loaded twice (two `Url`
/// buffers) is named once while each buffer's text is hashed once a line.
#[derive(Default)]
pub(super) struct LineScratch {
    url: String,
    roots: Vec<Url>,
    by_buffer: HashMap<usize, u64>,
    by_text: HashMap<Url, u64>,
}

/// Append `st`'s line to `out`, newline included. Whole (`"full":true`), or,
/// given the worker's barrier `epoch`, a delta (`"full":false`) whose
/// `page_of` holds only the entries stamped with it: the ones a record wrote
/// since the user's last line. Every other field is whole either way. Page
/// roots are written once, in the `"roots"` list that closes the line, and
/// named by their index in it.
pub(super) fn write_user(
    out: &mut String,
    st: &UserState,
    delta: Option<u32>,
    s: &mut LineScratch,
) {
    s.roots.clear();
    s.by_buffer.clear();
    s.by_text.clear();
    // Integers go through `json::write_u64`, not `write!`: there are several
    // per `page_of` entry, and this is the checkpointing run's hottest loop.
    let num = |out: &mut String, key: &str, n: u64| {
        out.push_str(key);
        json::write_u64(out, n);
    };
    // A root's index in the line's `"roots"` list, added to it if new.
    let root = |out: &mut String, s: &mut LineScratch, url: Option<&Url>| {
        let Some(url) = url else {
            return out.push_str("null");
        };
        // `st` is borrowed for the whole line, so no buffer is freed and
        // its address reused before the map is cleared.
        let buffer = url.schemeless().as_ptr() as usize;
        let at = match s.by_buffer.get(&buffer) {
            Some(&at) => at,
            None => {
                let next = s.roots.len() as u64;
                let at = *s.by_text.entry(url.clone()).or_insert(next);
                if at == next {
                    s.roots.push(url.clone());
                }
                s.by_buffer.insert(buffer, at);
                at
            }
        };
        debug_assert!(s.roots[at as usize] == *url);
        json::write_u64(out, at);
    };
    num(out, "{\"client_ip\":", st.client_ip.into());
    out.push_str(",\"user_agent\":");
    json::write_opt_str(out, st.user_agent.as_deref());
    let _ = write!(out, ",\"full\":{}", delta.is_none());
    // `UserTally`'s fields, in declaration order.
    let c = &st.counters;
    num(out, ",\"counters\":[", c.requests);
    for n in [
        c.bytes,
        c.ad_requests,
        c.easylist_blockable,
        c.easylist_hits,
        c.regional_hits,
        c.easyprivacy_hits,
        c.whitelist_hits,
    ] {
        num(out, ",", n);
    }
    out.push(']');
    num(out, ",\"inserted\":", st.map.redirects_inserted() as u64);
    num(out, ",\"consumed\":", st.map.redirects_consumed() as u64);
    out.push_str(",\"last_page\":");
    match &st.map.last_page {
        Some((url, ts)) => {
            out.push('[');
            root(out, s, Some(url));
            out.push(',');
            write_bits(out, *ts);
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"page_of\":[");
    let written = st.map.page_of.iter();
    let written = written.filter(|(_, (.., stamp))| delta.is_none_or(|epoch| *stamp == epoch));
    json::write_seq(out, written, |out, (k, (url, ts, hops, _))| {
        out.push('[');
        json::write_str(out, k.text());
        out.push(',');
        root(out, s, Some(url));
        out.push(',');
        write_bits(out, *ts);
        num(out, ",", (*hops).into());
        out.push(']');
    });
    out.push_str("],\"pending\":[");
    let pending = &st.map.pending_redirects;
    json::write_seq(out, pending, |out, (k, (url, idx, ts, hops))| {
        out.push('[');
        json::write_str(out, k.text());
        out.push(',');
        root(out, s, url.as_ref());
        num(out, ",", *idx as u64);
        out.push(',');
        write_bits(out, *ts);
        num(out, ",", (*hops).into());
        out.push(']');
    });
    out.push_str("],\"held\":[");
    json::write_seq(out, st.held.values(), |out, h| {
        num(out, "{\"pos\":", h.pos);
        num(out, ",\"idx\":", h.obj.idx as u64);
        out.push_str(",\"ts\":");
        write_bits(out, h.obj.ts);
        num(out, ",\"server_ip\":", h.obj.server_ip.into());
        out.push_str(",\"url\":");
        h.obj.url.write_into(&mut s.url);
        json::write_str(out, &s.url);
        out.push_str(",\"page\":");
        root(out, s, h.page.as_ref());
        out.push_str(",\"cat\":\"");
        out.push_str(h.category.keyword());
        out.push_str("\",\"ct\":");
        json::write_opt_str(out, h.obj.content_type.as_deref());
        num(out, ",\"bytes\":", h.obj.bytes);
        num(out, ",\"status\":", h.obj.status.into());
        out.push_str(",\"tcp\":");
        write_bits(out, h.obj.tcp_handshake_ms);
        out.push_str(",\"http\":");
        write_bits(out, h.obj.http_handshake_ms);
        out.push('}');
    });
    out.push_str("],\"roots\":[");
    json::write_seq(out, &s.roots, |out, url| {
        url.write_into(&mut s.url);
        json::write_str(out, &s.url);
    });
    out.push_str("]}\n");
}

fn population_to_json(out: &mut String, s: &PopulationSketches) {
    out.push_str(",\"population\":{\"sites\":[");
    write_nums(out, s.sites.state());
    out.push(']');
    for (name, t) in [("ad_domains", &s.ad_domains), ("rules", &s.rules)] {
        let _ = write!(
            out,
            ",\"{name}\":{{\"capacity\":{},\"entries\":[",
            t.capacity()
        );
        json::write_seq(out, t.state_lines(), |out, (k, c, e)| {
            out.push('[');
            json::write_str(out, &k);
            let _ = write!(out, ",{c},{e}]");
        });
        out.push_str("]}");
    }
    for (name, q) in [
        ("object_bytes", &s.object_bytes),
        ("rtb_gap_ms", &s.rtb_gap_ms),
    ] {
        let (zero, buckets) = q.state();
        let _ = write!(out, ",\"{name}\":{{\"zero\":{zero},\"buckets\":[");
        json::write_seq(out, buckets, |out, (b, c)| {
            let _ = write!(out, "[{b},{c}]");
        });
        out.push_str("]}");
    }
    out.push('}');
}

/// The manifest line: the whole [`RunState`] under the config `hash`.
pub(super) fn manifest_to_json(hash: u64, st: &RunState) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"kind\":\"{CHECKPOINT_KIND}\",\"version\":{CHECKPOINT_VERSION},\"config\":{hash},\"meta\":{{\"name\":"
    );
    json::write_str(&mut out, &st.meta.name);
    out.push_str(",\"duration\":");
    write_bits(&mut out, st.meta.duration_secs);
    let _ = write!(
        out,
        ",\"subscribers\":{},\"start_hour\":{},\"start_weekday\":{}}}",
        st.meta.subscribers, st.meta.start_hour, st.meta.start_weekday
    );
    let _ = write!(
        out,
        ",\"offset\":{},\"chunks\":{},\"next_pos\":{},\"next_http_idx\":{},\"prev_ts\":",
        st.offset, st.chunks, st.next_pos, st.next_http_idx
    );
    // −∞ before the first record: a bit pattern like any other.
    write_bits(&mut out, st.prev_ts);
    out.push_str(",\"clock\":");
    write_bits(&mut out, st.clock);
    let t = &st.totals;
    let _ = write!(
        out,
        ",\"requests\":{},\"ads\":{},\"https_flows\":{},\"quarantine_bytes\":{}",
        t.requests, t.ads, t.https_flows, st.quarantine_bytes
    );
    let c = &st.codec;
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
    json::write_seq(&mut out, t.degradation.counts(), |out, (name, v)| {
        let _ = write!(out, "\"{name}\":{v}");
    });
    out.push_str("},\"windows\":");
    window_report_to_json(&mut out, &t.windows.report());
    out.push_str(",\"decode_windows\":");
    window_report_to_json(&mut out, &t.decode_windows.report());
    out.push_str(",\"households\":[");
    let mut households: Vec<u32> = t.households.iter().copied().collect();
    households.sort_unstable();
    write_nums(&mut out, households);
    out.push(']');
    if let Some(p) = &t.population {
        population_to_json(&mut out, p);
    }
    out.push('}');
    out
}

/// The log a run writes, as far as it has written it: what the next
/// barrier's announcement — append, or rewrite — is decided from.
#[derive(Default)]
pub(super) struct CheckpointLog {
    /// The log's length, once this run has written it.
    bytes: Option<u64>,
    /// The last segment's manifest bytes, and the bytes of the last append
    /// since the last rewrite (0 if none).
    last: (u64, u64),
    /// The user-line bytes and the live `page_of` entries of the last rewrite.
    rewrite: (u64, u64),
    /// Live `page_of` entries at the last barrier.
    entries: u64,
}

impl CheckpointLog {
    /// Whether the next barrier rewrites the log: it is announced before a
    /// line is rendered, so it is decided from what the log knows. A run's
    /// first barrier does. A later one does when an append the size of the
    /// last would take the log past [`COMPACT_RATIO`] times a whole-state
    /// segment, estimated as the last manifest plus the last rewrite's
    /// user-line bytes per live `page_of` entry times the entries live now,
    /// and past [`COMPACT_FLOOR_BYTES`]. An append larger than the last can
    /// pass that by the difference; the barrier after it rewrites.
    pub(super) fn rewrites(&self) -> bool {
        let Some(log) = self.bytes else { return true };
        let ((manifest, appended), (lines, then)) = (self.last, self.rewrite);
        let users = u128::from(lines) * u128::from(self.entries) / u128::from(then.max(1));
        let next = u128::from(log + appended);
        next > u128::from(COMPACT_FLOOR_BYTES)
            && next > u128::from(COMPACT_RATIO) * (u128::from(manifest) + users)
    }

    /// Put one checkpoint into `dir`'s log: the manifest and the `users`
    /// blocks of newline-terminated lines (`lines` of them), taken with
    /// `entries` live `page_of` entries, as one segment — appended and
    /// `sync_data`'d, or, for a `rewrite`, as the whole log, replaced through
    /// `obs::atomic_write_with`.
    pub(super) fn write(
        &mut self,
        dir: &Path,
        rewrite: bool,
        manifest: &str,
        users: &[String],
        (lines, entries): (u64, u64),
    ) -> io::Result<()> {
        let path = dir.join(CHECKPOINT_FILE);
        let mut written = 0;
        let mut segment = |file: &File| {
            let mut w = BufWriter::new(file);
            written += write_segment(&mut w, manifest, users, lines)?;
            w.flush()
        };
        match self.bytes {
            Some(log) if !rewrite => {
                let file = OpenOptions::new().append(true).open(&path)?;
                segment(&file)?;
                file.sync_data()?;
                written += log;
            }
            _ => {
                fs::create_dir_all(dir)?;
                obs::atomic_write_with(&path, |file| segment(file))?;
            }
        }
        let user_bytes = users.iter().map(|b| b.len() as u64).sum();
        let manifest = manifest.len() as u64 + 1;
        self.bytes = Some(written);
        self.last = (manifest, if rewrite { 0 } else { manifest + user_bytes });
        if rewrite {
            self.rewrite = (user_bytes, entries);
        }
        self.entries = entries;
        Ok(())
    }
}

/// Write one segment to `w`: the `manifest` line, the `users` blocks of
/// newline-terminated user lines (`lines` of them in all) and the trailer
/// that counts and checksums them, the sum folded as the bytes go out.
/// Returns the bytes written.
fn write_segment(
    w: &mut impl Write,
    manifest: &str,
    users: &[String],
    lines: u64,
) -> io::Result<u64> {
    let (mut sum, mut bytes) = (obs::Sum64::default(), 0);
    for part in [manifest, "\n"]
        .into_iter()
        .chain(users.iter().map(String::as_str))
    {
        w.write_all(part.as_bytes())?;
        sum.update(part.as_bytes());
        bytes += part.len() as u64;
    }
    let trailer = format!(
        "{{\"segment\":{{\"lines\":{},\"bytes\":{bytes},\"sum\":{}}}}}\n",
        lines + 1,
        sum.finish()
    );
    w.write_all(trailer.as_bytes())?;
    Ok(bytes + trailer.len() as u64)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

impl From<DecodeError> for StreamError {
    fn from(e: DecodeError) -> Self {
        StreamError::Checkpoint(e.to_string())
    }
}

/// An `f64` read from its bit image: a string of exactly 16 hex digits.
struct Bits(f64);

impl FromJson for Bits {
    fn from_json(v: &Value<'_>) -> Result<Bits, DecodeError> {
        let hex = |s: &&str| s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit());
        let bits = v
            .as_str()
            .filter(hex)
            .and_then(|s| u64::from_str_radix(s, 16).ok());
        let image = || DecodeError::new("expected a bit image of 16 hex digits");
        bits.map(|b| Bits(f64::from_bits(b))).ok_or_else(image)
    }
}

/// Add each `"name": value` of the object under `key` into its cell: the
/// name's position in `names`, the schema's table of that kind of series. An
/// unknown name means the checkpoint came from a different schema — refuse
/// rather than misattribute — and a name given twice would add its values.
fn cells(
    w: &Value<'_>,
    key: &str,
    names: &[&str],
    mut add: impl FnMut(usize, &Value<'_>) -> Result<(), DecodeError>,
) -> Result<(), DecodeError> {
    w.field_with(key, |obj| {
        let Value::Object(fields) = obj else {
            return Err(DecodeError::new("expected object"));
        };
        let mut seen = vec![false; names.len()];
        for (name, v) in fields {
            let unknown = || DecodeError::new(format!("unknown window series `{name}`"));
            let at = names.iter().position(|n| n == name).ok_or_else(unknown)?;
            if std::mem::replace(&mut seen[at], true) {
                return Err(DecodeError::new("series named twice").at_key(name));
            }
            add(at, v).map_err(|e| e.at_key(name))?;
        }
        Ok(())
    })
}

/// Add a persisted window report into `into`, a fresh series of the run's
/// schema and width. Its windows come in increasing index order, as a report
/// holds them.
fn window_series_from_value(v: &Value<'_>, into: &mut WindowSeries) -> Result<(), DecodeError> {
    into.late = v.field("late")?;
    let (counters, hists) = (into.counter_names(), into.hist_names());
    let mut last = None;
    v.field_with("windows", |ws| {
        ws.each(|w| {
            let index: i64 = w.field("index")?;
            if last >= Some(index) {
                let order = DecodeError::new("expected an index above the previous window's");
                return Err(order.at_key("index"));
            }
            last = Some(index);
            let mut window = into.window(index);
            cells(w, "counters", counters, |at, n| {
                window.count(at, u64::from_json(n)?);
                Ok(())
            })?;
            cells(w, "hists", hists, |at, h| {
                let buckets: Vec<u64> = h.field("buckets")?;
                // `HistogramSnapshot::merge` zips bucket vectors: a short one
                // would silently drop the other side's tail.
                if buckets.len() != obs::BUCKETS {
                    let what = format!("expected {} buckets", obs::BUCKETS);
                    return Err(DecodeError::new(what).at_key("buckets"));
                }
                let sum = h.field("sum")?;
                window.merge_hist(at, &HistogramSnapshot { buckets, sum });
                Ok(())
            })
        })
    })?;
    Ok(())
}

/// `entries` as a map, refusing a key named twice: a line that named it
/// twice would mean whichever value came last (`page_of[3]: key named twice`).
fn unique<K: Hash + Eq, V, S: BuildHasher + Default>(
    entries: Vec<(K, V)>,
    field: &str,
    what: &str,
) -> Result<HashMap<K, V, S>, DecodeError> {
    let mut map = HashMap::with_capacity_and_hasher(entries.len(), S::default());
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if map.insert(k, v).is_some() {
            let twice = DecodeError::new(format!("{what} named twice"));
            return Err(twice.at_index(i).at_key(field));
        }
    }
    Ok(map)
}

/// One user line: whether it is whole, and the user's state as it holds it
/// (a delta's `page_of` holds only the entries it updates).
fn user_from_line(line: &str) -> Result<(bool, UserState), DecodeError> {
    let v = json::parse(line).map_err(|e| DecodeError::new(format!("bad user line: {e}")))?;
    let client_ip = v.field("client_ip")?;
    let user_agent: Option<Arc<str>> = v.field("user_agent")?;
    let mut st = UserState::fresh(client_ip, user_agent.clone());
    let (
        requests,
        bytes,
        ad_requests,
        easylist_blockable,
        easylist_hits,
        regional_hits,
        easyprivacy_hits,
        whitelist_hits,
    ) = v.field("counters")?;
    st.counters = UserTally {
        requests,
        bytes,
        ad_requests,
        easylist_blockable,
        easylist_hits,
        regional_hits,
        easyprivacy_hits,
        whitelist_hits,
    };
    let roots: Vec<Url> = v.field("roots")?;
    let root = |i: usize| {
        let n = roots.len();
        let what = || DecodeError::new(format!("expected an index below {n}, the number of roots"));
        roots.get(i).cloned().ok_or_else(what)
    };
    let category = |c: &Value<'_>| {
        let known = c.as_str().and_then(ContentCategory::from_keyword);
        known.ok_or_else(|| DecodeError::new("expected category keyword"))
    };
    let held_record = |e: &Value<'_>| {
        let idx = e.field("idx")?;
        let page = e.field_with("page", |p| Option::from_json(p)?.map(root).transpose())?;
        let h = HeldRecord {
            pos: e.field("pos")?,
            page,
            category: e.field_with("cat", category)?,
            obj: WebObject {
                idx,
                // Numbered when the run restores the user.
                user: 0,
                ts: e.field::<Bits>("ts")?.0,
                // Read by the referrer map alone, which a held copy is past.
                clock: 0.0,
                client_ip,
                server_ip: e.field("server_ip")?,
                url: e.field("url")?,
                // Referer and location were consumed when the record was
                // first processed; the held copy never re-reads them.
                referer: None,
                content_type: e.field("ct")?,
                bytes: e.field("bytes")?,
                status: e.field("status")?,
                location: None,
                user_agent: user_agent.clone(),
                tcp_handshake_ms: e.field::<Bits>("tcp")?.0,
                http_handshake_ms: e.field::<Bits>("http")?.0,
            },
        };
        Ok((idx, h))
    };
    st.held = unique(
        v.field_with("held", |h| h.each(held_record))?,
        "held",
        "idx",
    )?;
    // `[key, root, ts, hops]` and `[key, root, backfill idx, ts, hops]`.
    let page_of = v.field_with("page_of", |p| {
        p.each(|e| {
            let (k, r, ts, hops): (Arc<str>, _, Bits, u16) = FromJson::from_json(e)?;
            let url = root(r).map_err(|e| e.at_index(1))?;
            Ok((UrlKey::new(k), (url, ts.0, hops, 0)))
        })
    })?;
    st.map.page_of = unique(page_of, "page_of", "key")?;
    let pending = v.field_with("pending", |p| {
        p.each(|e| {
            let (k, r, idx, ts, hops): (Arc<str>, Option<usize>, _, Bits, _) =
                FromJson::from_json(e)?;
            let url = r.map(root).transpose().map_err(|e| e.at_index(1))?;
            Ok((UrlKey::new(k), (url, idx, ts.0, hops)))
        })
    })?;
    st.map.pending_redirects = unique(pending, "pending", "key")?;
    st.map.last_page = v.field_with("last_page", |p| {
        let Some((r, ts)) = Option::<(usize, Bits)>::from_json(p)? else {
            return Ok(None);
        };
        Ok(Some((root(r).map_err(|e| e.at_index(0))?, ts.0)))
    })?;
    st.map.redirects_inserted = v.field("inserted")?;
    st.map.redirects_consumed = v.field("consumed")?;
    Ok((v.field("full")?, st))
}

fn population_from_value(
    v: &Value<'_>,
    opts: PopulationOptions,
) -> Result<PopulationSketches, DecodeError> {
    let topk = |k: &str| {
        v.field_with(k, |t| {
            let entries: Vec<(String, u64, u64)> = t.field("entries")?;
            Ok(TopK::from_state(t.field("capacity")?, entries))
        })
    };
    let sites = <[u8; 64]>::try_from(v.field::<Vec<u8>>("sites")?);
    let sites = sites.map_err(|_| DecodeError::new("expected 64 registers").at_key("sites"))?;
    let qs = |k: &str| {
        v.field_with(k, |q| {
            let buckets: Vec<(i32, u64)> = q.field("buckets")?;
            QuantileSketch::from_state(QUANTILE_GAMMA, q.field("zero")?, buckets)
                .ok_or_else(|| DecodeError::new("counts overflow u64").at_key("buckets"))
        })
    };
    let mut sketches = PopulationSketches::new(opts);
    sketches.ad_domains = topk("ad_domains")?;
    sketches.rules = topk("rules")?;
    sketches.sites = Distinct64::from_state(sites);
    sketches.object_bytes = qs("object_bytes")?;
    sketches.rtb_gap_ms = qs("rtb_gap_ms")?;
    Ok(sketches)
}

/// The [`RunState`] a manifest line holds. Starts from the fresh state
/// `opts` asks for, so a plane that is on has a value either way.
fn manifest_from_value(m: &Value<'_>, opts: &StreamOptions) -> Result<RunState, DecodeError> {
    let meta = m.field_with("meta", |v| {
        Ok(TraceMeta {
            name: v.field("name")?,
            duration_secs: v.field::<Bits>("duration")?.0,
            subscribers: v.field("subscribers")?,
            start_hour: v.field("start_hour")?,
            start_weekday: v.field("start_weekday")?,
        })
    })?;
    let mut st = RunState::new(meta, opts);
    st.offset = m.field("offset")?;
    st.resumed_from = Some(st.offset);
    st.chunks = m.field("chunks")?;
    st.next_pos = m.field("next_pos")?;
    st.next_http_idx = m.field("next_http_idx")?;
    st.prev_ts = m.field::<Bits>("prev_ts")?.0;
    st.clock = m.field::<Bits>("clock")?.0;
    st.quarantine_bytes = m.field("quarantine_bytes")?;
    st.codec = m.field_with("codec", |v| {
        Ok(CodecStats {
            records_read: v.field("records_read")?,
            blank_lines: v.field("blank_lines")?,
            skipped_bad_json: v.field("bad_json")?,
            skipped_bad_schema: v.field("bad_schema")?,
            skipped_non_utf8: v.field("non_utf8")?,
            skipped_oversize: v.field("oversize")?,
            io_errors: v.field("io_errors")?,
            header_recovered: v.field("header_recovered")?,
        })
    })?;
    let t = &mut st.totals;
    t.requests = m.field("requests")?;
    t.ads = m.field("ads")?;
    t.https_flows = m.field("https_flows")?;
    t.degradation = m.field_with("degradation", |v| {
        Ok(DegradationReport {
            unparseable_urls: v.field("unparseable_urls")?,
            unparseable_referers: v.field("unparseable_referers")?,
            unparseable_locations: v.field("unparseable_locations")?,
            missing_content_type: v.field("missing_content_type")?,
            missing_user_agent: v.field("missing_user_agent")?,
            content_type_fallbacks: v.field("content_type_fallbacks")?,
            refmap_misses: v.field("refmap_misses")?,
            // Derived from the restored per-user counters at report time.
            broken_redirect_chains: 0,
            out_of_order_records: v.field("out_of_order_records")?,
            poisoned_records: v.field("poisoned_records")?,
        })
    })?;
    m.field_with("windows", |v| window_series_from_value(v, &mut t.windows))?;
    m.field_with("decode_windows", |v| {
        window_series_from_value(v, &mut t.decode_windows)
    })?;
    t.households = m.field::<Vec<u32>>("households")?.into_iter().collect();
    // The config hash covers which planes are on, so a plane that is on
    // was on when the checkpoint was written and its block is required.
    // The alert plane has none: its timeline is recomputed from `windows`
    // at the next merge.
    if let Some(p) = &mut t.population {
        *p = m.field_with("population", |v| {
            population_from_value(v, opts.pipeline.population)
        })?;
    }
    Ok(st)
}

/// The run state a manifest and its user lines hold. The users are in the
/// order they first come off the log. A whole line replaces its user's state;
/// a delta upserts its `page_of` entries into the state the lines before it
/// left and replaces the rest. A delta for a user no whole line has named
/// yet is refused.
fn decode(m: &Value<'_>, lines: &[&str], opts: &StreamOptions) -> Result<RunState, DecodeError> {
    let mut state = manifest_from_value(m, opts)?;
    let mut at: HashMap<_, usize> = HashMap::with_capacity(lines.len());
    let mut users: Vec<UserState> = Vec::with_capacity(lines.len());
    for line in lines {
        let (full, mut user) = user_from_line(line)?;
        match at.entry((user.client_ip, user.user_agent.clone())) {
            Entry::Occupied(seen) => {
                let before = &mut users[*seen.get()];
                if !full {
                    let mut page_of = std::mem::take(&mut before.map.page_of);
                    page_of.extend(user.map.page_of.drain());
                    user.map.page_of = page_of;
                }
                *before = user;
            }
            Entry::Vacant(new) if full => {
                new.insert(users.len());
                users.push(user);
            }
            Entry::Vacant(_) => {
                let orphan = DecodeError::new("a delta for a user no whole line names before it");
                return Err(orphan.at_key("full"));
            }
        }
    }
    state.restored = users;
    Ok(state)
}

/// The segments of a segment log that validate, in file order, each as
/// the bytes of its lines up to its trailer. Reading stops at the first one
/// that does not: a segment holds only the users a record touched since
/// the one before it, so nothing past a torn or damaged one applies.
fn valid_segments(log: &[u8]) -> Vec<&[u8]> {
    let (mut segments, mut start, mut lines, mut at) = (Vec::new(), 0, 0u64, 0);
    while let Some(len) = obs::find_newline(&log[at..]) {
        let line = &log[at..at + len];
        if line.starts_with(TRAILER) {
            let body = &log[start..at];
            let want = (lines, body.len() as u64, obs::sum64(body));
            if lines == 0 || trailer_counts(line) != Some(want) {
                break;
            }
            segments.push(body);
            (start, lines) = (at + len + 1, 0);
        } else {
            lines += 1;
        }
        at += len + 1;
    }
    segments
}

/// A trailer line's line count, byte count and sum.
fn trailer_counts(line: &[u8]) -> Option<(u64, u64, u64)> {
    let v = json::parse(std::str::from_utf8(line).ok()?).ok()?;
    let counts = |s: &Value<'_>| Ok((s.field("lines")?, s.field("bytes")?, s.field("sum")?));
    v.field_with("segment", counts).ok()
}

/// The manifest line of `log`'s last valid segment: what a resume from it
/// would start from.
#[cfg(test)]
pub(super) fn last_manifest(log: &[u8]) -> Option<&str> {
    lines_of(valid_segments(log).last()?).next()?.ok()
}

/// The lines of a segment (or of a file without one), without their
/// newlines.
fn lines_of(bytes: &[u8]) -> impl Iterator<Item = Result<&str, StreamError>> {
    let body = bytes.strip_suffix(b"\n").unwrap_or(bytes);
    let line = |l| std::str::from_utf8(l).map_err(|_| ck_err("checkpoint line is not UTF-8"));
    body.split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(line)
}

/// Read `dir`'s checkpoint back: the run state, every user's state in it.
/// The log resumes from its last valid segment. A checkpoint of another
/// format version is refused, naming it, and so is a file with no valid
/// segment.
pub(super) fn load_checkpoint(dir: &Path, opts: &StreamOptions) -> Result<RunState, StreamError> {
    let path = dir.join(CHECKPOINT_FILE);
    let bytes =
        fs::read(&path).map_err(|e| ck_err(format!("cannot read {}: {e}", path.display())))?;
    let segments = valid_segments(&bytes);
    // Each segment opens with its manifest: the last one's is the run state,
    // and every other line is a user's. A file with no valid segment is read
    // whole, for its first line to name its version.
    let torn = segments.is_empty();
    let parts = if torn { vec![&bytes[..]] } else { segments };
    let (mut manifest, mut users) = (None, Vec::new());
    for part in parts {
        let mut lines = lines_of(part);
        manifest = lines.next().transpose()?;
        for line in lines {
            users.push(line?);
        }
    }
    let manifest = manifest.ok_or_else(|| ck_err("empty checkpoint"))?;
    let m = json::parse(manifest).map_err(|e| ck_err(format!("bad manifest: {e}")))?;
    if m.field::<String>("kind")? != CHECKPOINT_KIND {
        return Err(ck_err("not an annoyed-users checkpoint"));
    }
    let version = m.field::<u64>("version")?;
    if version != CHECKPOINT_VERSION {
        return Err(ck_err(format!(
            "checkpoint format version {version}; this build reads {CHECKPOINT_VERSION}"
        )));
    }
    if torn {
        return Err(ck_err("no segment of the checkpoint log validates"));
    }
    if m.field::<u64>("config")? != config_hash(opts) {
        return Err(ck_err(
            "checkpoint was written under a different pipeline configuration",
        ));
    }
    Ok(decode(&m, &users, opts)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ClassifiedRequest;
    use crate::refmap::RefMap;
    use crate::stream::router::run_stream;
    use crate::stream::testutil::*;
    use crate::stream::{classify_stream_file, stream_file, CheckpointOptions, Fold};
    use netsim::stream::SliceChunks;
    use std::path::PathBuf;

    #[test]
    fn resume_refuses_config_mismatch() {
        // The hash is stored in every checkpoint: a different value for
        // the same options would strand checkpoints written before it.
        assert_eq!(
            config_hash(&StreamOptions::default()),
            0x6bfb_ee8f_513e_11a5
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
        other.pipeline.window.width_secs /= 2.0;
        other.checkpoint.as_mut().unwrap().resume = true;
        let err = classify_stream_file(&path, &classifier(), &other, &obs::Registry::new());
        assert!(matches!(err, Err(StreamError::Checkpoint(_))));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&path);
    }
    #[test]
    fn user_state_round_trips_through_serialization() {
        let ua: Option<Arc<str>> = Some(Arc::from("UA \"quoted\""));
        let mut st = UserState::fresh(7, ua.clone());
        // Each counter its own value, so a swapped pair shows.
        st.counters = UserTally {
            requests: 3,
            bytes: 5,
            ad_requests: 7,
            easylist_blockable: 11,
            easylist_hits: 13,
            regional_hits: 17,
            easyprivacy_hits: 19,
            whitelist_hits: 23,
        };
        let mk = |idx: usize, ts: f64, url: &str, loc: Option<&str>| WebObject {
            idx,
            user: 0,
            ts,
            clock: ts,
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
        let mut line = String::new();
        write_user(&mut line, &st, None, &mut LineScratch::default());
        let (full, back) = user_from_line(line.trim_end()).unwrap();
        assert!(full);
        assert_eq!(back.client_ip, 7);
        assert_eq!(back.user_agent, ua);
        assert_eq!(back.counters, st.counters);
        assert_eq!(back.map.page_of.len(), st.map.page_of.len());
        assert_eq!(back.map.pending_redirects.len(), 1);
        assert_eq!(back.map.redirects_inserted(), st.map.redirects_inserted());
        assert_eq!(back.held.len(), 1);
        assert_eq!(back.held[&1].obj.ts, 0.5);
        assert_eq!(
            back.held[&1].page.as_ref().map(Url::as_string),
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
        let entries = |m: &RefMap| -> Vec<(String, (Url, f64, u16))> {
            let mut v: Vec<_> = m
                .page_of
                .iter()
                .map(|(k, (url, ts, hops, _))| (k.text().to_string(), (url.clone(), *ts, *hops)))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        assert_eq!(entries(&restored), entries(&st.map));
        assert_eq!(restored.pending_redirects, st.map.pending_redirects);
        assert_eq!(restored.last_page, st.map.last_page);
        assert_eq!(restored.redirects_consumed(), 1);
    }
    proptest::proptest! {
        /// Totals → manifest line → totals is the identity, for every plane
        /// at once: a cut part-way, the whole stream's sum, and nothing
        /// (`broken_redirect_chains`, derived at end of stream rather than
        /// persisted, is 0 in all three, as at any barrier). Each user's
        /// counters ride in its line, and the manifest carries none.
        #[test]
        fn totals_round_trip_through_the_checkpoint_manifest(
            n in 1usize..160,
            cut in 0usize..160,
            population in 0u8..2,
        ) {
            let trace = messy_trace(n);
            let mut opts = stream_opts(1, 16);
            opts.pipeline.population.enabled = population == 1;
            opts.pipeline.population.active_min_requests = 2;
            opts.abp_ips = vec![9];
            let mut planes = crate::planes::Planes::new(opts.pipeline);
            let requests = reference(&trace).requests;
            let (first, rest) = requests.split_at(cut.min(requests.len()));
            planes.fold(first, &[0.5]);
            planes.degradation.unparseable_urls += 1;
            let part = planes.cut();
            for rec in &trace.records {
                planes.observe_record(&netsim::record::RecordView::of(rec), &[9].into());
            }
            planes.fold(rest, &[]);
            let mut whole = part.clone();
            whole.merge(&planes.cut());
            let nothing = crate::planes::Planes::new(opts.pipeline);
            for totals in [part, whole, nothing] {
                let mut st = RunState::new(trace.meta.clone(), &opts);
                st.totals = totals;
                let line = manifest_to_json(config_hash(&opts), &st);
                let back = manifest_from_value(&json::parse(&line).unwrap(), &opts);
                proptest::prop_assert_eq!(back.map(|st| st.totals), Ok(st.totals));
            }
        }
    }

    #[test]
    fn window_report_round_trips_through_json() {
        let trace = messy_trace(128);
        let seq = reference(&trace);
        let mut s = String::new();
        window_report_to_json(&mut s, &seq.windows);
        let v = json::parse(&s).unwrap();
        let mut back = crate::window::series(Default::default());
        window_series_from_value(&v, &mut back).unwrap();
        assert_eq!(back.report(), seq.windows);
    }

    /// A window given twice, or a series given twice in one window, would
    /// add up: each is refused with its path.
    #[test]
    fn a_window_or_series_given_twice_is_refused() {
        let decode = |windows: &str| {
            let v = format!(r#"{{"late":0,"windows":[{windows}]}}"#);
            let mut into = crate::window::series(Default::default());
            let v = json::parse(&v).unwrap();
            window_series_from_value(&v, &mut into).map_err(|e| e.to_string())
        };
        let window = |index: usize, counters: &str| {
            format!(r#"{{"index":{index},"counters":{{{counters}}},"hists":{{}}}}"#)
        };
        let (zero, one) = (window(0, r#""requests":1"#), window(1, r#""ads":1"#));
        assert_eq!(decode(&format!("{zero},{one}")), Ok(()));
        let order = "windows[1].index: expected an index above the previous window's";
        assert_eq!(decode(&format!("{one},{zero}")), Err(order.into()));
        let twice = "windows[0].counters.requests: series named twice";
        assert_eq!(
            decode(&window(0, r#""requests":1,"requests":2"#)),
            Err(twice.into())
        );
    }

    /// A run's first barrier rewrites the log whole; the next ones append
    /// in place, leaving the bytes before them alone, each a segment of the
    /// lines of the users a record reached (deltas, for users the log names
    /// already), until one would take the log past twice the estimated
    /// whole-state segment and past the floor, which rewrites it again: one
    /// segment, every line whole. A run whose log stays under the floor
    /// rewrites it at its first barrier alone.
    #[test]
    fn the_log_appends_until_it_would_pass_twice_a_whole_segment() {
        // A 100 kB manifest and 400 kB of users at 10 entries: twice the
        // whole is 1 MB, under the floor, which binds; at 20 live entries it
        // is 1.8 MB, which does. The last append, 50 kB, is what the next is
        // expected to weigh.
        let log = |bytes, entries| CheckpointLog {
            bytes: Some(bytes),
            last: (100_000, 50_000),
            rewrite: (400_000, 10),
            entries,
        };
        assert!(CheckpointLog::default().rewrites(), "a run's first barrier");
        let floor = COMPACT_FLOOR_BYTES - 50_000;
        assert!(!log(floor, 10).rewrites() && log(floor + 1, 10).rewrites());
        assert!(!log(1_750_000, 20).rewrites() && log(1_750_001, 20).rewrites());

        let trace = messy_trace(480);
        let dir = temp_path("log-ck");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join(CHECKPOINT_FILE);
        let mut o = stream_opts(2, 4);
        o.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 1,
            resume: false,
        });
        // The log as the router finds it when it asks for each chunk: the
        // barrier of chunk k is on disk when chunk k + 2 is read.
        let mut logs = Vec::new();
        let chunks = trace.records.chunks(4).inspect(|_| {
            logs.push(fs::read(&path).unwrap_or_default());
        });
        let state = RunState::new(trace.meta.clone(), &o);
        let registry = obs::Registry::new();
        run_stream(
            SliceChunks(chunks),
            state,
            &classifier(),
            &o,
            &registry,
            0,
            (),
        )
        .unwrap();
        logs.push(fs::read(&path).unwrap());

        let (mut rewrites, mut appends, mut deltas) = (0, 0, 0);
        for pair in logs.windows(2).filter(|p| p[0] != p[1]) {
            let (before, after) = (&pair[0], &pair[1]);
            let segments = valid_segments(after);
            let last: Vec<&str> = lines_of(segments.last().unwrap())
                .skip(1)
                .map(Result::unwrap)
                .collect();
            if !before.is_empty() && after.starts_with(before) {
                appends += 1;
                // The run's last two land together: one when the last chunk
                // is sent, one when the loop ends.
                assert!(segments.len() > valid_segments(before).len());
                deltas += last.iter().filter(|l| l.contains("\"full\":false")).count();
            } else {
                rewrites += 1;
                assert_eq!(segments.len(), 1, "a rewrite is one segment");
                assert!(last.len() > 3);
                assert!(last.iter().all(|l| l.contains("\"full\":true")));
            }
        }
        assert!(logs.last().unwrap().len() < COMPACT_FLOOR_BYTES as usize);
        assert_eq!(rewrites, 1, "compacted under the floor");
        assert!(
            appends > 10 && deltas > 0,
            "{appends} appends, {deltas} deltas"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A fold a worker of a live run calls: once the run's log exists, it
    /// starts a fresh and a resuming run on the live run's directory and
    /// notes whether each was refused as locked and whether the directory
    /// was left alone. The live run writes its log meanwhile, so what a run
    /// that got past the lock would have touched first is planted: a temp
    /// file as a killed run leaves one, which that run would sweep.
    #[derive(Clone)]
    struct Intruder {
        trace: PathBuf,
        opts: StreamOptions,
        seen: Vec<(bool, bool)>,
    }

    impl Fold for Intruder {
        fn observe(&mut self, _pos: u64, _req: &ClassifiedRequest) {
            let dir = self.opts.checkpoint.as_ref().unwrap().dir.clone();
            if !self.seen.is_empty() || !dir.join(CHECKPOINT_FILE).exists() {
                return;
            }
            let orphan = dir.join(format!("{CHECKPOINT_FILE}.4242.7.tmp"));
            fs::write(&orphan, b"left by a killed run").unwrap();
            for resume in [false, true] {
                let mut o = self.opts.clone();
                o.checkpoint.as_mut().unwrap().resume = resume;
                let got =
                    classify_stream_file(&self.trace, &classifier(), &o, &obs::Registry::new());
                let locked = matches!(got, Err(StreamError::Locked(ref d)) if *d == dir);
                self.seen.push((locked, orphan.exists()));
            }
        }
        fn merge(&mut self, part: Intruder) {
            self.seen.extend(part.seen);
        }
    }

    #[test]
    fn a_second_run_on_a_live_runs_directory_is_refused() {
        let trace = messy_trace(96);
        let path = write_trace_file(&trace, "locked");
        let dir = temp_path("locked-ck");
        let _ = fs::remove_dir_all(&dir);
        let mut o = stream_opts(1, 16);
        o.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 1,
            resume: false,
        });
        let intruder = Intruder {
            trace: path.clone(),
            opts: o.clone(),
            seen: Vec::new(),
        };
        let (rep, got) =
            stream_file(&path, &classifier(), &o, &obs::Registry::new(), intruder).unwrap();
        assert_eq!(
            got.seen,
            [(true, true), (true, true)],
            "fresh, then resuming"
        );
        assert_eq!(rep.checkpoints_written, rep.chunks);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&path);
    }

    /// The lock goes with its holder: the `checkpoint.lock` a finished run,
    /// or one stopped part-way, left behind blocks no resume. (The OS drops
    /// a SIGKILLed holder's lock the same way; ci.sh kills a run with
    /// `kill -9` and resumes it.)
    #[test]
    fn a_lock_left_by_a_finished_or_stopped_run_does_not_block_resume() {
        let trace = messy_trace(160);
        let path = write_trace_file(&trace, "stale-lock");
        let dir = temp_path("stale-lock-ck");
        let mut o = stream_opts(2, 16);
        let want = classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap();
        for stop in [None, Some(3)] {
            let _ = fs::remove_dir_all(&dir);
            o.checkpoint = Some(CheckpointOptions {
                dir: dir.clone(),
                every_chunks: 2,
                resume: false,
            });
            o.stop_after_chunks = stop;
            classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap();
            assert!(dir.join(LOCK_FILE).exists(), "stop {stop:?}");
            o.checkpoint.as_mut().unwrap().resume = true;
            o.stop_after_chunks = None;
            let got = classify_stream_file(&path, &classifier(), &o, &obs::Registry::new());
            let got = got.unwrap_or_else(|e| panic!("stop {stop:?}: {e}"));
            assert!(got.resumed_from.is_some());
            assert_eq!(got.render(), want.render(), "stop {stop:?}");
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&path);
    }
}
