//! The persisted checkpoint: `checkpoint.ndjson`, one manifest line (the
//! [`RunState`], plane totals included) and one line per live user — the
//! only module in this crate that names a checkpoint JSON key, so a plane
//! added to `crate::planes` gets its encode / decode pair here.
//!
//! Writers are hand-written `write!` chains (the per-user line is the
//! checkpointing run's hottest loop and must not allocate per field).
//! Readers go through [`netsim::json::FromJson`]: every integer is
//! range-checked into its own type, every fixed-arity array is a tuple of
//! exactly that arity, and a value that does not fit is refused with the
//! path to it (`population.users[7]: expected u8`) instead of being
//! narrowed into a different number.

use super::router::RunState;
use super::worker::{HeldRecord, RestoredUser, UserState};
use super::{ck_err, StreamError, StreamOptions};
use crate::degrade::DegradationReport;
use crate::extract::WebObject;
use crate::population::{Population, PopulationOptions, UserTally};
use crate::refmap::{RefMap, RefMapOptions};
use crate::window::{COUNTERS as ADSCOPE_COUNTERS, RTB_HIST};
use http_model::{ContentCategory, Url};
use netsim::codec::{CodecStats, DECODE_COUNTERS, FORMAT_VERSION};
use netsim::json::{self, DecodeError, FromJson, Value};
use netsim::record::TraceMeta;
use obs::sketch::{Distinct64, QuantileSketch, TopK, QUANTILE_GAMMA};
use obs::window::{ClosedWindow, WindowReport};
use obs::HistogramSnapshot;
use std::fmt::{Display, Write as _};
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Checkpoint file name inside the checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.ndjson";
/// Manifest schema version (bumped on incompatible layout changes).
const CHECKPOINT_VERSION: u64 = 1;
/// Manifest `kind` tag.
const CHECKPOINT_KIND: &str = "annoyed-users-checkpoint";
/// Histogram series an adscope window may carry.
const HIST_TABLE: &[&str] = &[RTB_HIST];

/// Hash of everything that must match between the checkpointing run and
/// the resuming run for the state to be meaningful. Thread count is
/// deliberately excluded: restored users re-route by `shard_of`.
pub(super) fn config_hash(opts: &StreamOptions) -> u64 {
    let s = format!(
        "{:?}|{}|{}|{:?}|{:?}",
        opts.pipeline, opts.chunk_records, FORMAT_VERSION, opts.abp_ips, opts.alerts
    );
    obs::fnv64(s.as_bytes())
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn write_nums<T: Display>(out: &mut String, nums: impl IntoIterator<Item = T>) {
    json::write_seq(out, nums, |out, n| {
        let _ = write!(out, "{n}");
    });
}

fn window_report_to_json(out: &mut String, r: &WindowReport) {
    out.push_str("{\"width\":");
    json::write_f64(out, r.width_secs);
    let _ = write!(out, ",\"late\":{},\"windows\":[", r.late);
    json::write_seq(out, &r.windows, |out, w| {
        let _ = write!(out, "{{\"index\":{},\"start\":", w.index);
        json::write_f64(out, w.start_secs);
        out.push_str(",\"width\":");
        json::write_f64(out, w.width_secs);
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

pub(super) fn serialize_user(key: &(u32, Option<Arc<str>>), st: &UserState) -> String {
    let mut out = String::with_capacity(256);
    let mut scratch = String::new();
    // Integers go through `json::write_u64`, not `write!`: there is one per
    // `page_of` entry, and this is the checkpointing run's hottest loop.
    let num = |out: &mut String, key: &str, n: u64| {
        out.push_str(key);
        json::write_u64(out, n);
    };
    num(&mut out, "{\"client_ip\":", key.0.into());
    out.push_str(",\"user_agent\":");
    json::write_opt_str(&mut out, key.1.as_deref());
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
            json::write_f64(&mut out, *ts);
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"page_of\":[");
    json::write_seq(&mut out, &st.map.page_of, |out, (k, (root, ts, hops))| {
        out.push('[');
        json::write_str(out, k);
        out.push(',');
        write_url(out, &mut scratch, Some(root));
        out.push(',');
        json::write_f64(out, *ts);
        num(out, ",", (*hops).into());
        out.push(']');
    });
    out.push_str("],\"pending\":[");
    let pending = &st.map.pending_redirects;
    json::write_seq(&mut out, pending, |out, (k, (root, idx, ts, hops))| {
        out.push('[');
        json::write_str(out, k);
        out.push(',');
        write_url(out, &mut scratch, root.as_ref());
        num(out, ",", *idx as u64);
        out.push(',');
        json::write_f64(out, *ts);
        num(out, ",", (*hops).into());
        out.push(']');
    });
    out.push_str("],\"held\":[");
    json::write_seq(&mut out, st.held.values(), |out, h| {
        num(out, "{\"pos\":", h.pos);
        num(out, ",\"idx\":", h.obj.idx as u64);
        out.push_str(",\"ts\":");
        json::write_f64(out, h.obj.ts);
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
        json::write_f64(out, h.obj.tcp_handshake_ms);
        out.push_str(",\"http\":");
        json::write_f64(out, h.obj.http_handshake_ms);
        out.push('}');
    });
    out.push_str("]}");
    out
}

fn population_to_json(out: &mut String, p: &Population) {
    let s = &p.sketches;
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
    let mut rows: Vec<(&(u32, Arc<str>), &UserTally)> = p.tallies.iter().collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    out.push_str(",\"tallies\":[");
    json::write_seq(out, rows, |out, ((ip, ua), t)| {
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
    });
    out.push_str("],\"households\":[");
    let mut hh: Vec<u32> = p.households.iter().copied().collect();
    hh.sort_unstable();
    write_nums(out, hh);
    out.push_str("]}");
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
    json::write_f64(&mut out, st.meta.duration_secs);
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
    // write_f64 renders non-finite as null; parse maps null back to -inf.
    json::write_f64(&mut out, st.prev_ts);
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
    if let Some(p) = &t.population {
        population_to_json(&mut out, p);
    }
    out.push('}');
    out
}

pub(super) fn write_checkpoint(dir: &Path, manifest: &str, users: &[Arc<str>]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    obs::atomic_write_with(&dir.join(CHECKPOINT_FILE), |file| {
        let mut f = BufWriter::new(file);
        f.write_all(manifest.as_bytes())?;
        f.write_all(b"\n")?;
        for line in users {
            f.write_all(line.as_bytes())?;
            f.write_all(b"\n")?;
        }
        f.flush()
    })
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

impl From<DecodeError> for StreamError {
    fn from(e: DecodeError) -> Self {
        StreamError::Checkpoint(e.to_string())
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
            start_secs: w.field("start")?,
            width_secs: w.field("width")?,
            counters: series(w, "counters", counters, u64::from_json)?,
            hists: series(w, "hists", hists, hist)?,
        })
    };
    let mut windows = v.field_with("windows", |ws| ws.each(window))?;
    windows.sort_by_key(|w| w.index);
    Ok(WindowReport {
        width_secs: v.field("width")?,
        windows,
        late: v.field("late")?,
    })
}

fn user_from_line(line: &str, opts: RefMapOptions) -> Result<RestoredUser, DecodeError> {
    let v = json::parse(line).map_err(|e| DecodeError::new(format!("bad user line: {e}")))?;
    let client_ip = v.field("client_ip")?;
    let user_agent: Option<Arc<str>> = v.field("user_agent")?;
    let category = |c: &Value<'_>| {
        let known = c.as_str().and_then(ContentCategory::from_keyword);
        known.ok_or_else(|| DecodeError::new("expected category keyword"))
    };
    let held_record = |e: &Value<'_>| {
        Ok(HeldRecord {
            pos: e.field("pos")?,
            page: e.field("page")?,
            category: e.field_with("cat", category)?,
            obj: WebObject {
                idx: e.field("idx")?,
                ts: e.field("ts")?,
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
                tcp_handshake_ms: e.field("tcp")?,
                http_handshake_ms: e.field("http")?,
            },
        })
    };
    let held = v.field_with("held", |h| h.each(held_record))?;
    // `[key, root, ts, hops]` and `[key, root, backfill idx, ts, hops]`:
    // the element types come from the maps `restore` takes.
    let page_of = v.field::<Vec<_>>("page_of")?.into_iter();
    let pending = v.field::<Vec<_>>("pending")?.into_iter();
    let map = RefMap::restore(
        opts,
        page_of.map(|(k, r, t, h)| (k, (r, t, h))).collect(),
        pending.map(|(k, r, i, t, h)| (k, (r, i, t, h))).collect(),
        v.field("last_page")?,
        v.field("inserted")?,
        v.field("consumed")?,
        true,
    );
    Ok(RestoredUser {
        client_ip,
        user_agent,
        map,
        held,
    })
}

fn population_from_value(
    v: &Value<'_>,
    opts: PopulationOptions,
) -> Result<Population, DecodeError> {
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
    let mut pop = Population::new(opts);
    let sketches = &mut pop.sketches;
    sketches.ad_domains = topk("ad_domains")?;
    sketches.rules = topk("rules")?;
    sketches.users = regs("users")?;
    sketches.sites = regs("sites")?;
    sketches.object_bytes = qs("object_bytes")?;
    sketches.rtb_gap_ms = qs("rtb_gap_ms")?;
    sketches.requests = v.field("requests")?;
    sketches.ad_requests = v.field("ad_requests")?;
    let tallies: Vec<(u32, Arc<str>, u64, u64, u64, u64)> = v.field("tallies")?;
    let tally = |(ip, ua, requests, ad_requests, easylist_blockable, browser)| {
        let t = UserTally {
            requests,
            ad_requests,
            easylist_blockable,
            is_browser: browser != 0,
        };
        ((ip, ua), t)
    };
    pop.tallies = tallies.into_iter().map(tally).collect();
    pop.households = v.field::<Vec<u32>>("households")?.into_iter().collect();
    Ok(pop)
}

/// The [`RunState`] a manifest line holds. Starts from the fresh state
/// `opts` asks for, so a plane that is on has a value either way.
fn manifest_from_value(m: &Value<'_>, opts: &StreamOptions) -> Result<RunState, DecodeError> {
    let meta = m.field_with("meta", |v| {
        Ok(TraceMeta {
            name: v.field("name")?,
            duration_secs: v.field("duration")?,
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
    let prev_ts: Option<f64> = m.field("prev_ts")?;
    st.prev_ts = prev_ts.unwrap_or(f64::NEG_INFINITY);
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
    // The config hash covers which planes are on, so a plane that is on
    // was on when the checkpoint was written and its block is required.
    // The alert plane has none: its timeline is recomputed from `windows`
    // at the next merge (an `alerts` key in an older file is not looked up).
    if let Some(p) = &mut t.population {
        *p = m.field_with("population", |v| {
            population_from_value(v, opts.pipeline.population)
        })?;
    }
    Ok(st)
}

/// Read `dir`'s checkpoint back: the run state, every user's state in it.
pub(super) fn load_checkpoint(dir: &Path, opts: &StreamOptions) -> Result<RunState, StreamError> {
    let path = dir.join(CHECKPOINT_FILE);
    let text = fs::read_to_string(&path)
        .map_err(|e| ck_err(format!("cannot read {}: {e}", path.display())))?;
    let mut lines = text.lines();
    let manifest_line = lines.next().ok_or_else(|| ck_err("empty checkpoint"))?;
    let m = json::parse(manifest_line).map_err(|e| ck_err(format!("bad manifest: {e}")))?;
    if m.field::<String>("kind")? != CHECKPOINT_KIND {
        return Err(ck_err("not an annoyed-users checkpoint"));
    }
    if m.field::<u64>("version")? != CHECKPOINT_VERSION {
        return Err(ck_err("unsupported checkpoint version"));
    }
    if m.field::<u64>("config")? != config_hash(opts) {
        return Err(ck_err(
            "checkpoint was written under a different pipeline configuration",
        ));
    }
    let mut state = manifest_from_value(&m, opts)?;
    for line in lines.filter(|l| !l.is_empty()) {
        let user = user_from_line(line, opts.pipeline.refmap)?;
        state.restored.push(user);
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::testutil::*;
    use crate::stream::{classify_stream_file, CheckpointOptions};

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
    proptest::proptest! {
        /// Totals → manifest line → totals is the identity, for every plane
        /// at once: a cut part-way, the whole stream's sum, and nothing
        /// (`broken_redirect_chains`, derived at end of stream rather than
        /// persisted, is 0 in all three, as at any barrier).
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
}
