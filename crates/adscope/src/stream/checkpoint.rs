//! The persisted checkpoint: `checkpoint.ndjson`, an append-only log of
//! segments (format version 4). A segment is one manifest line (the
//! [`RunState`], plane totals included), the lines of the users a record
//! touched since the segment before it (each user's counters, referrer map
//! and held records), and a trailer
//! `{"segment":{"lines":n,"bytes":b,"sum":s}}` that counts and checksums
//! those lines ([`obs::Sum64`]). A run's first barrier, and any barrier
//! after which the log would pass [`COMPACT_RATIO`] times the bytes of a
//! whole-state segment, rewrites the log as one segment holding every user
//! (`obs::atomic_write_with`); every other barrier appends one and
//! `sync_data`s it. So a run only ever appends to a log it created. Resume
//! reads the segments in order up to the first that does not validate, and
//! takes the last one's manifest and each user's last line. Every `f64` is
//! stored as the integer of its bit pattern, so a resumed run starts from
//! exactly the bits the checkpointing run held.
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
//! path to it (`population.users[7]: expected u8`) instead of being
//! narrowed into a different number.

use super::router::RunState;
use super::worker::{HeldRecord, UserState};
use super::{ck_err, StreamError, StreamOptions};
use crate::degrade::DegradationReport;
use crate::extract::WebObject;
use crate::population::{PopulationOptions, PopulationSketches};
use crate::refmap::RefMap;
use crate::users::UserTally;
use crate::window::{COUNTERS as ADSCOPE_COUNTERS, RTB_HIST};
use http_model::{ContentCategory, Url};
use netsim::codec::{CodecStats, DECODE_COUNTERS, FORMAT_VERSION};
use netsim::json::{self, DecodeError, FromJson, Value};
use netsim::record::TraceMeta;
use obs::sketch::{Distinct64, QuantileSketch, TopK, QUANTILE_GAMMA};
use obs::window::{ClosedWindow, WindowReport};
use obs::HistogramSnapshot;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::{Display, Write as _};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Checkpoint file name inside the checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.ndjson";
/// Lock file inside the checkpoint directory, locked for as long as a run
/// checkpointing there is live.
pub(super) const LOCK_FILE: &str = "checkpoint.lock";
/// Manifest schema version (bumped on incompatible layout changes).
const CHECKPOINT_VERSION: u64 = 4;
/// A barrier rewrites the log once appending would take it past this many
/// times the bytes of a whole-state segment.
const COMPACT_RATIO: u64 = 2;
/// What a segment's trailer line opens with. No other line can: a manifest
/// opens with `{"kind":`, a user line with `{"client_ip":`.
const TRAILER: &[u8] = b"{\"segment\":";
/// Manifest `kind` tag.
const CHECKPOINT_KIND: &str = "annoyed-users-checkpoint";
/// Histogram series an adscope window may carry.
const HIST_TABLE: &[&str] = &[RTB_HIST];

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

/// Append `f` as the integer of its bit pattern: exact, and without the
/// shortest-decimal search `{:?}` runs.
fn write_bits(out: &mut String, f: f64) {
    json::write_u64(out, f.to_bits());
}

fn write_nums<T: Display>(out: &mut String, nums: impl IntoIterator<Item = T>) {
    json::write_seq(out, nums, |out, n| {
        let _ = write!(out, "{n}");
    });
}

fn window_report_to_json(out: &mut String, r: &WindowReport) {
    out.push_str("{\"width\":");
    write_bits(out, r.width_secs);
    let _ = write!(out, ",\"late\":{},\"windows\":[", r.late);
    json::write_seq(out, &r.windows, |out, w| {
        let _ = write!(out, "{{\"index\":{},\"start\":", w.index);
        write_bits(out, w.start_secs);
        out.push_str(",\"width\":");
        write_bits(out, w.width_secs);
        out.push_str(",\"counters\":{");
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

/// Append `url` as a JSON string, rendered through `scratch` so one
/// buffer serves every URL of a checkpoint line; `None` is `null`.
fn write_url(out: &mut String, scratch: &mut String, url: Option<&Url>) {
    match url {
        Some(url) => {
            url.write_into(scratch);
            json::write_str(out, scratch);
        }
        None => out.push_str("null"),
    }
}

pub(super) fn serialize_user(st: &UserState) -> String {
    let mut out = String::with_capacity(256);
    let mut scratch = String::new();
    // Integers go through `json::write_u64`, not `write!`: there is one per
    // `page_of` entry, and this is the checkpointing run's hottest loop.
    let num = |out: &mut String, key: &str, n: u64| {
        out.push_str(key);
        json::write_u64(out, n);
    };
    num(&mut out, "{\"client_ip\":", st.client_ip.into());
    out.push_str(",\"user_agent\":");
    json::write_opt_str(&mut out, st.user_agent.as_deref());
    // `UserTally`'s fields, in declaration order.
    let c = &st.counters;
    num(&mut out, ",\"counters\":[", c.requests);
    for n in [
        c.bytes,
        c.ad_requests,
        c.easylist_blockable,
        c.easylist_hits,
        c.regional_hits,
        c.easyprivacy_hits,
        c.whitelist_hits,
    ] {
        num(&mut out, ",", n);
    }
    out.push(']');
    num(
        &mut out,
        ",\"inserted\":",
        st.map.redirects_inserted() as u64,
    );
    num(
        &mut out,
        ",\"consumed\":",
        st.map.redirects_consumed() as u64,
    );
    out.push_str(",\"last_page\":");
    match &st.map.last_page {
        Some((url, ts)) => {
            out.push('[');
            write_url(&mut out, &mut scratch, Some(url));
            out.push(',');
            write_bits(&mut out, *ts);
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"page_of\":[");
    json::write_seq(&mut out, &st.map.page_of, |out, (k, (root, ts, hops))| {
        out.push('[');
        json::write_str(out, k.text());
        out.push(',');
        write_url(out, &mut scratch, Some(root));
        out.push(',');
        write_bits(out, *ts);
        num(out, ",", (*hops).into());
        out.push(']');
    });
    out.push_str("],\"pending\":[");
    let pending = &st.map.pending_redirects;
    json::write_seq(&mut out, pending, |out, (k, (root, idx, ts, hops))| {
        out.push('[');
        json::write_str(out, k.text());
        out.push(',');
        write_url(out, &mut scratch, root.as_ref());
        num(out, ",", *idx as u64);
        out.push(',');
        write_bits(out, *ts);
        num(out, ",", (*hops).into());
        out.push(']');
    });
    out.push_str("],\"held\":[");
    json::write_seq(&mut out, st.held.values(), |out, h| {
        num(out, "{\"pos\":", h.pos);
        num(out, ",\"idx\":", h.obj.idx as u64);
        out.push_str(",\"ts\":");
        write_bits(out, h.obj.ts);
        num(out, ",\"server_ip\":", h.obj.server_ip.into());
        out.push_str(",\"url\":");
        write_url(out, &mut scratch, Some(&h.obj.url));
        out.push_str(",\"page\":");
        write_url(out, &mut scratch, h.page.as_ref());
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
    out.push_str("]}");
    out
}

fn population_to_json(out: &mut String, s: &PopulationSketches) {
    let _ = write!(
        out,
        ",\"population\":{{\"requests\":{},\"ad_requests\":{}",
        s.requests, s.ad_requests
    );
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
    for (name, d) in [("users", &s.users), ("sites", &s.sites)] {
        let _ = write!(out, ",\"{name}\":[");
        write_nums(out, d.state());
        out.push(']');
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
    // `seq`, the next chunk's sequence number, is the chunk count: a
    // checkpoint is cut on a chunk boundary. Written for the format's sake.
    let _ = write!(
        out,
        ",\"offset\":{},\"chunks\":{},\"seq\":{},\"next_pos\":{},\"next_http_idx\":{},\"prev_ts\":",
        st.offset, st.chunks, st.chunks, st.next_pos, st.next_http_idx
    );
    // −∞ before the first record: a bit pattern like any other.
    write_bits(&mut out, st.prev_ts);
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
    window_report_to_json(&mut out, &t.windows);
    out.push_str(",\"decode_windows\":");
    window_report_to_json(&mut out, &t.decode_windows);
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

/// Write one segment to `w`: the `manifest` line, the `users` lines and the
/// trailer that counts and checksums them, the sum folded line by line as
/// the bytes go out (nothing of the segment is assembled in memory).
/// Returns the bytes written.
fn write_segment<'a>(
    w: &mut impl Write,
    manifest: &str,
    users: impl IntoIterator<Item = &'a Arc<str>>,
) -> io::Result<u64> {
    let mut sum = obs::Sum64::default();
    let (mut lines, mut bytes) = (0u64, 0u64);
    for line in std::iter::once(manifest).chain(users.into_iter().map(|l| &**l)) {
        for part in [line.as_bytes(), b"\n"] {
            w.write_all(part)?;
            sum.update(part);
        }
        lines += 1;
        bytes += line.len() as u64 + 1;
    }
    let trailer = format!(
        "{{\"segment\":{{\"lines\":{lines},\"bytes\":{bytes},\"sum\":{}}}}}\n",
        sum.finish()
    );
    w.write_all(trailer.as_bytes())?;
    Ok(bytes + trailer.len() as u64)
}

/// Put one checkpoint into `dir`'s log and return the log's new length
/// (`log_bytes` is its length once this run has written it). The manifest
/// and the users `rendered` at this barrier are appended as one segment and
/// `sync_data`'d — unless this is the run's first checkpoint, or the append
/// would take the log past [`COMPACT_RATIO`] times a whole-state segment:
/// then the log is rewritten through `obs::atomic_write_with` as one
/// segment holding the `kept` users too.
pub(super) fn write_checkpoint(
    dir: &Path,
    log_bytes: Option<u64>,
    manifest: &str,
    rendered: &[Arc<str>],
    kept: &[Arc<str>],
) -> io::Result<u64> {
    let size = |lines: &[Arc<str>]| lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
    let appended = manifest.len() as u64 + 1 + size(rendered);
    let whole = appended + size(kept);
    let path = dir.join(CHECKPOINT_FILE);
    match log_bytes {
        Some(log) if log + appended <= COMPACT_RATIO * whole => {
            let file = OpenOptions::new().append(true).open(&path)?;
            let mut w = BufWriter::new(&file);
            let written = write_segment(&mut w, manifest, rendered)?;
            w.flush()?;
            file.sync_data()?;
            Ok(log + written)
        }
        _ => {
            fs::create_dir_all(dir)?;
            let mut written = 0;
            obs::atomic_write_with(&path, |file| {
                let mut w = BufWriter::new(file);
                written = write_segment(&mut w, manifest, rendered.iter().chain(kept))?;
                w.flush()
            })?;
            Ok(written)
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

impl From<DecodeError> for StreamError {
    fn from(e: DecodeError) -> Self {
        StreamError::Checkpoint(e.to_string())
    }
}

/// An `f64` read from the integer of its bit pattern.
struct Bits(f64);

impl FromJson for Bits {
    fn from_json(v: &Value<'_>) -> Result<Bits, DecodeError> {
        u64::from_json(v).map(|bits| Bits(f64::from_bits(bits)))
    }
}

/// Map a serialized series name back onto the `&'static` name table the
/// window engine uses. An unknown name means the checkpoint came from a
/// different schema — refuse rather than misattribute.
fn static_name(table: &'static [&'static str], s: &str) -> Result<&'static str, DecodeError> {
    let known = table.iter().find(|n| **n == s).copied();
    known.ok_or_else(|| DecodeError::new(format!("unknown window series `{s}`")))
}

/// The `{"name": value, …}` object under `key`, as the name-sorted pairs
/// a [`ClosedWindow`] holds.
fn series<T>(
    w: &Value<'_>,
    key: &str,
    table: &'static [&'static str],
    decode: impl Fn(&Value<'_>) -> Result<T, DecodeError>,
) -> Result<Vec<(&'static str, T)>, DecodeError> {
    w.field_with(key, |obj| {
        let Value::Object(fields) = obj else {
            return Err(DecodeError::new("expected object"));
        };
        let mut out = Vec::with_capacity(fields.len());
        for (name, v) in fields {
            let name = static_name(table, name)?;
            out.push((name, decode(v).map_err(|e| e.at_key(name))?));
        }
        out.sort_by_key(|(name, _)| *name);
        Ok(out)
    })
}

fn window_report_from_value(
    v: &Value<'_>,
    counters: &'static [&'static str],
    hists: &'static [&'static str],
) -> Result<WindowReport, DecodeError> {
    let hist = |h: &Value<'_>| {
        let buckets: Vec<u64> = h.field("buckets")?;
        // `HistogramSnapshot::merge` zips bucket vectors: a short one
        // would silently drop the other side's tail.
        if buckets.len() != obs::BUCKETS {
            let what = format!("expected {} buckets", obs::BUCKETS);
            return Err(DecodeError::new(what).at_key("buckets"));
        }
        let sum = h.field("sum")?;
        Ok(HistogramSnapshot { buckets, sum })
    };
    let window = |w: &Value<'_>| {
        Ok(ClosedWindow {
            index: w.field("index")?,
            start_secs: w.field::<Bits>("start")?.0,
            width_secs: w.field::<Bits>("width")?.0,
            counters: series(w, "counters", counters, u64::from_json)?,
            hists: series(w, "hists", hists, hist)?,
        })
    };
    let mut windows = v.field_with("windows", |ws| ws.each(window))?;
    windows.sort_by_key(|w| w.index);
    Ok(WindowReport {
        width_secs: v.field::<Bits>("width")?.0,
        windows,
        late: v.field("late")?,
    })
}

/// One user line.
fn user_from_line(line: &str) -> Result<UserState, DecodeError> {
    let v = json::parse(line).map_err(|e| DecodeError::new(format!("bad user line: {e}")))?;
    let client_ip = v.field("client_ip")?;
    let user_agent: Option<Arc<str>> = v.field("user_agent")?;
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
    let counters = UserTally {
        requests,
        bytes,
        ad_requests,
        easylist_blockable,
        easylist_hits,
        regional_hits,
        easyprivacy_hits,
        whitelist_hits,
    };
    let category = |c: &Value<'_>| {
        let known = c.as_str().and_then(ContentCategory::from_keyword);
        known.ok_or_else(|| DecodeError::new("expected category keyword"))
    };
    let held_record = |e: &Value<'_>| {
        let idx = e.field("idx")?;
        let h = HeldRecord {
            pos: e.field("pos")?,
            page: e.field("page")?,
            category: e.field_with("cat", category)?,
            obj: WebObject {
                idx,
                // Numbered when the run restores the user.
                user: 0,
                ts: e.field::<Bits>("ts")?.0,
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
    let held = v.field_with("held", |h| h.each(held_record))?;
    // `[key, root, ts, hops]` and `[key, root, backfill idx, ts, hops]`:
    // the other element types come from the maps `restore` takes.
    let page_of: Vec<(_, _, Bits, _)> = v.field("page_of")?;
    let pending: Vec<(_, _, _, Bits, _)> = v.field("pending")?;
    let last_page: Option<(_, Bits)> = v.field("last_page")?;
    let map = RefMap::restore(
        page_of
            .into_iter()
            .map(|(k, r, t, h)| (k, (r, t.0, h)))
            .collect(),
        pending
            .into_iter()
            .map(|(k, r, i, t, h)| (k, (r, i, t.0, h)))
            .collect(),
        last_page.map(|(url, t)| (url, t.0)),
        v.field("inserted")?,
        v.field("consumed")?,
        true,
    );
    let held = held.into_iter().collect();
    Ok(UserState::new(client_ip, user_agent, map, held, counters))
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
    let regs = |k: &str| {
        let regs = <[u8; 64]>::try_from(v.field::<Vec<u8>>(k)?);
        let regs = regs.map_err(|_| DecodeError::new("expected 64 registers").at_key(k))?;
        Ok::<_, DecodeError>(Distinct64::from_state(regs))
    };
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
    sketches.users = regs("users")?;
    sketches.sites = regs("sites")?;
    sketches.object_bytes = qs("object_bytes")?;
    sketches.rtb_gap_ms = qs("rtb_gap_ms")?;
    sketches.requests = v.field("requests")?;
    sketches.ad_requests = v.field("ad_requests")?;
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
    t.windows = m.field_with("windows", |v| {
        window_report_from_value(v, ADSCOPE_COUNTERS, HIST_TABLE)
    })?;
    t.decode_windows = m.field_with("decode_windows", |v| {
        window_report_from_value(v, &DECODE_COUNTERS, &[])
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
/// order they first come off the log, each the state of its last line.
fn decode(m: &Value<'_>, lines: &[&str], opts: &StreamOptions) -> Result<RunState, DecodeError> {
    let mut state = manifest_from_value(m, opts)?;
    let mut at = HashMap::with_capacity(lines.len());
    let mut users: Vec<UserState> = Vec::with_capacity(lines.len());
    for line in lines {
        let user = user_from_line(line)?;
        match at.entry((user.client_ip, user.user_agent.clone())) {
            Entry::Occupied(seen) => users[*seen.get()] = user,
            Entry::Vacant(new) => {
                new.insert(users.len());
                users.push(user);
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
    use crate::stream::testutil::*;
    use crate::stream::{classify_stream_file, stream_file, CheckpointOptions, Fold};
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
        let line = serialize_user(&st);
        let back = user_from_line(&line).unwrap();
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
        assert_eq!(restored.page_of, st.map.page_of);
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
            let mut planes = crate::planes::Planes::new(opts.pipeline, &opts.abp_ips);
            let requests = reference(&trace).requests;
            let (first, rest) = requests.split_at(cut.min(requests.len()));
            planes.fold(first, &[0.5]);
            planes.degradation().unparseable_urls += 1;
            let part = planes.cut();
            for rec in &trace.records {
                planes.observe_record(&netsim::record::RecordView::of(rec));
            }
            planes.fold(rest, &[]);
            let mut whole = part.clone();
            whole.merge(&planes.cut());
            let nothing = crate::planes::PlaneTotals::new(opts.pipeline.population);
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
        let back = window_report_from_value(&v, ADSCOPE_COUNTERS, HIST_TABLE).unwrap();
        assert_eq!(back, seq.windows);
    }

    /// A run's first write rewrites the log whole; the next ones append in
    /// place, leaving the bytes before them alone, until one would take the
    /// log past twice a whole-state segment, which rewrites it again. Read
    /// back, the last segment's manifest and each user's last line are the
    /// live state.
    #[test]
    fn the_log_appends_until_it_would_pass_twice_a_whole_segment() {
        let dir = temp_path("log-ck");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let line = |u: usize, rev: usize| -> Arc<str> {
            format!("{{\"client_ip\":{u},\"rev\":{rev}}}").into()
        };
        let size = |lines: &[Arc<str>]| lines.iter().map(|l| l.len() + 1).sum::<usize>();
        let mut users: Vec<Arc<str>> = (0..8).map(|u| line(u, 0)).collect();
        let (mut log_bytes, mut rewrites) = (None, 0);
        for barrier in 0..16 {
            // Each barrier after the first touches two of the eight users.
            let touched = |u: usize| barrier == 0 || u == barrier % 8 || u == (barrier + 3) % 8;
            for (u, l) in users.iter_mut().enumerate().filter(|(u, _)| touched(*u)) {
                *l = line(u, barrier);
            }
            let (rendered, kept): (Vec<_>, Vec<_>) = (0..8).partition(|&u| touched(u));
            let rendered: Vec<Arc<str>> = rendered.iter().map(|&u| users[u].clone()).collect();
            let kept: Vec<Arc<str>> = kept.iter().map(|&u| users[u].clone()).collect();
            let manifest = format!("{{\"barrier\":{barrier}}}");
            let before = fs::read(&path).unwrap_or_default();
            let appended = manifest.len() + 1 + size(&rendered);
            let whole = appended + size(&kept);
            let append = log_bytes.is_some() && before.len() + appended <= 2 * whole;

            let len = write_checkpoint(&dir, log_bytes, &manifest, &rendered, &kept).unwrap();
            let after = fs::read(&path).unwrap();
            assert_eq!(len, after.len() as u64, "barrier {barrier}");
            let segments = valid_segments(&after);
            if append {
                assert!(
                    after.starts_with(&before),
                    "barrier {barrier}: not appended"
                );
                assert_eq!(segments.len(), valid_segments(&before).len() + 1);
            } else {
                rewrites += 1;
                assert_eq!(segments.len(), 1, "barrier {barrier}: not rewritten");
            }
            let mut last = HashMap::new();
            let mut manifests = Vec::new();
            for segment in &segments {
                let mut lines = lines_of(segment).map(Result::unwrap);
                manifests.push(lines.next().unwrap());
                for l in lines {
                    last.insert(
                        json::parse(l).unwrap().field::<u32>("client_ip").unwrap(),
                        l,
                    );
                }
            }
            assert_eq!(manifests.last(), Some(&manifest.as_str()));
            let live: Vec<&str> = (0..8).map(|u| last[&(u as u32)]).collect();
            assert_eq!(live, users.iter().map(|l| &**l).collect::<Vec<_>>());
            log_bytes = Some(len);
        }
        assert!(rewrites > 1, "never compacted");
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
