//! Deterministic fault injection for traces.
//!
//! The paper's data comes from a live ISP monitor, where degradation is
//! the norm, not the exception: DAG cards drop records under load, lines
//! get truncated at snap length, headers the analysis depends on
//! (`Referer`, `Content-Type`, `Location`, `User-Agent`) are simply
//! absent for a sizeable fraction of transactions, and timestamps wander
//! when capture buffers flush out of order. This module reproduces those
//! degradations on demand so the rest of the pipeline can be tested and
//! benchmarked against them.
//!
//! Two corruption domains, matching the two places faults happen in a
//! real deployment:
//!
//! * [`FaultInjector::corrupt_trace`] — *semantic* faults applied to an
//!   in-memory [`Trace`]: record loss, per-header drops, `Content-Length`
//!   zeroing, timestamp skew (which also reorders), duplication.
//! * [`FaultInjector::corrupt_bytes`] — *wire* faults applied to the
//!   serialized NDJSON: line drops, truncation, byte garbling,
//!   duplication. These are what the lossy [`crate::stream::ChunkReader`]
//!   must survive.
//!
//! Everything is driven by a seeded [`rand::rngs::StdRng`], so a given
//! `(profile, seed, input)` triple always produces the same corrupted
//! output — experiments and failing tests are exactly reproducible. Every
//! injected fault is tallied in [`FaultCounts`] so downstream accounting
//! ([`crate::codec::CodecStats`], adscope's degradation report) can be
//! reconciled against ground truth.

use crate::record::{Trace, TraceRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-fault-class probabilities, each in `[0, 1]` and applied
/// independently per record (or per line for the wire faults).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Drop the record / line entirely (capture loss).
    pub record_drop: f64,
    /// Truncate the serialized line at a random byte (snap length).
    pub line_truncation: f64,
    /// Overwrite a few random bytes of the line (bit rot, DMA errors).
    pub byte_garble: f64,
    /// Duplicate the record / line (retransmission seen twice).
    pub record_duplication: f64,
    /// Remove the `Referer` request header.
    pub drop_referer: f64,
    /// Remove the `Content-Type` response header.
    pub drop_content_type: f64,
    /// Remove the `Location` response header (breaks redirect repair).
    pub drop_location: f64,
    /// Remove the `User-Agent` request header (breaks NAT device split).
    pub drop_user_agent: f64,
    /// Zero the `Content-Length` (volume accounting loss).
    pub zero_content_length: f64,
    /// Skew the record timestamp by up to [`FaultProfile::max_skew_secs`]
    /// in either direction, which also reorders the stream.
    pub timestamp_skew: f64,
    /// Maximum absolute skew applied when a timestamp is perturbed.
    pub max_skew_secs: f64,
}

impl FaultProfile {
    /// No faults at all; `corrupt_*` become identity functions.
    pub fn clean() -> FaultProfile {
        FaultProfile {
            record_drop: 0.0,
            line_truncation: 0.0,
            byte_garble: 0.0,
            record_duplication: 0.0,
            drop_referer: 0.0,
            drop_content_type: 0.0,
            drop_location: 0.0,
            drop_user_agent: 0.0,
            zero_content_length: 0.0,
            timestamp_skew: 0.0,
            max_skew_secs: 5.0,
        }
    }

    /// Every fault class at the same rate — the knob the robustness sweep
    /// turns from 0 to 10%.
    pub fn uniform(rate: f64) -> FaultProfile {
        let rate = rate.clamp(0.0, 1.0);
        FaultProfile {
            record_drop: rate,
            line_truncation: rate,
            byte_garble: rate,
            record_duplication: rate,
            drop_referer: rate,
            drop_content_type: rate,
            drop_location: rate,
            drop_user_agent: rate,
            zero_content_length: rate,
            timestamp_skew: rate,
            max_skew_secs: 5.0,
        }
    }
}

/// Ground-truth tally of every fault actually injected. Header-field
/// drops count only when the field was present to drop, so the totals
/// reconcile exactly with the difference between input and output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Records or lines removed.
    pub records_dropped: usize,
    /// Lines truncated (wire domain only).
    pub lines_truncated: usize,
    /// Lines garbled (wire domain only).
    pub lines_garbled: usize,
    /// Records or lines emitted twice.
    pub records_duplicated: usize,
    /// `Referer` headers removed.
    pub referers_dropped: usize,
    /// `Content-Type` headers removed.
    pub content_types_dropped: usize,
    /// `Location` headers removed.
    pub locations_dropped: usize,
    /// `User-Agent` headers removed.
    pub user_agents_dropped: usize,
    /// `Content-Length` values zeroed (counted when non-zero before).
    pub content_lengths_zeroed: usize,
    /// Timestamps skewed.
    pub timestamps_skewed: usize,
}

impl FaultCounts {
    /// Total faults injected across all classes.
    pub fn total(&self) -> usize {
        self.records_dropped
            + self.lines_truncated
            + self.lines_garbled
            + self.records_duplicated
            + self.referers_dropped
            + self.content_types_dropped
            + self.locations_dropped
            + self.user_agents_dropped
            + self.content_lengths_zeroed
            + self.timestamps_skewed
    }

    /// Record (or record-line) count the output must have, given the
    /// input had `original` records: drops remove one each, duplications
    /// add one each.
    #[cfg(test)]
    fn expected_records(&self, original: usize) -> usize {
        original - self.records_dropped + self.records_duplicated
    }
}

impl std::fmt::Display for FaultCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dropped {}, truncated {}, garbled {}, duplicated {}, \
             hdr-referer {}, hdr-ctype {}, hdr-location {}, hdr-ua {}, \
             cl-zeroed {}, ts-skewed {}",
            self.records_dropped,
            self.lines_truncated,
            self.lines_garbled,
            self.records_duplicated,
            self.referers_dropped,
            self.content_types_dropped,
            self.locations_dropped,
            self.user_agents_dropped,
            self.content_lengths_zeroed,
            self.timestamps_skewed
        )
    }
}

/// Seeded corruption engine; see the module docs for the fault model.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    profile: FaultProfile,
    rng: StdRng,
    counts: FaultCounts,
}

impl FaultInjector {
    /// Build an injector; the same `(profile, seed)` pair replays the
    /// same fault sequence on the same input.
    pub fn new(profile: FaultProfile, seed: u64) -> FaultInjector {
        FaultInjector {
            profile,
            rng: StdRng::seed_from_u64(seed),
            counts: FaultCounts::default(),
        }
    }

    /// Faults injected so far.
    pub fn counts(&self) -> &FaultCounts {
        &self.counts
    }

    /// The driving profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Apply semantic faults to an in-memory trace. Records are dropped,
    /// mutated (header drops, `Content-Length` zeroing, timestamp skew)
    /// and duplicated; skewed timestamps are deliberately *not* re-sorted
    /// — out-of-order delivery is part of the fault model.
    pub fn corrupt_trace(&mut self, trace: &Trace) -> Trace {
        let mut records = Vec::with_capacity(trace.records.len());
        for record in &trace.records {
            if self.rng.gen_bool(self.profile.record_drop) {
                self.counts.records_dropped += 1;
                continue;
            }
            let mut record = record.clone();
            self.mutate_record(&mut record);
            let duplicate = self.rng.gen_bool(self.profile.record_duplication);
            if duplicate {
                self.counts.records_duplicated += 1;
                records.push(record.clone());
            }
            records.push(record);
        }
        Trace {
            meta: trace.meta.clone(),
            records,
        }
    }

    fn mutate_record(&mut self, record: &mut TraceRecord) {
        if let TraceRecord::Http(t) = record {
            if t.request.referer.is_some() && self.rng.gen_bool(self.profile.drop_referer) {
                t.request.referer = None;
                self.counts.referers_dropped += 1;
            }
            if t.request.user_agent.is_some() && self.rng.gen_bool(self.profile.drop_user_agent) {
                t.request.user_agent = None;
                self.counts.user_agents_dropped += 1;
            }
            if t.response.content_type.is_some()
                && self.rng.gen_bool(self.profile.drop_content_type)
            {
                t.response.content_type = None;
                self.counts.content_types_dropped += 1;
            }
            if t.response.location.is_some() && self.rng.gen_bool(self.profile.drop_location) {
                t.response.location = None;
                self.counts.locations_dropped += 1;
            }
            if t.response.content_length.unwrap_or(0) > 0
                && self.rng.gen_bool(self.profile.zero_content_length)
            {
                t.response.content_length = Some(0);
                self.counts.content_lengths_zeroed += 1;
            }
        }
        if self.rng.gen_bool(self.profile.timestamp_skew) {
            let skew = self
                .rng
                .gen_range(-self.profile.max_skew_secs..=self.profile.max_skew_secs);
            match record {
                TraceRecord::Http(t) => t.ts = (t.ts + skew).max(0.0),
                TraceRecord::Https(t) => t.ts = (t.ts + skew).max(0.0),
            }
            self.counts.timestamps_skewed += 1;
        }
    }

    /// Apply wire faults to a serialized NDJSON trace. At most one fault
    /// is applied per record line (drop, else truncate, else garble, else
    /// duplicate), so the line-level accounting stays reconcilable:
    /// output record lines = input − dropped + duplicated, and every
    /// truncated line is guaranteed unparseable (a strict prefix of a
    /// JSON object never parses). The header line is left untouched —
    /// header corruption is exercised separately via
    /// [`crate::stream::ChunkReader`]'s recovery path.
    pub fn corrupt_bytes(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(bytes.len());
        // The lines of `bytes.split(|&b| b == b'\n')`, the empty one after
        // a final newline included, framed eight bytes at a time.
        let (mut i, mut rest) = (0, bytes);
        while let Some(n) = obs::find_newline(rest) {
            self.corrupt_line(i, &rest[..n], &mut out);
            (i, rest) = (i + 1, &rest[n + 1..]);
        }
        self.corrupt_line(i, rest, &mut out);
        out
    }

    /// What [`FaultInjector::corrupt_bytes`] makes of line `i` of a trace,
    /// appended to `out`: for a caller that cannot hold the corrupted copy
    /// whole and feeds the lines in order itself.
    pub fn corrupt_line(&mut self, i: usize, line: &[u8], out: &mut Vec<u8>) {
        if i == 0 {
            out.extend_from_slice(line);
            out.push(b'\n');
            return;
        }
        if line.is_empty() {
            return;
        }
        if self.rng.gen_bool(self.profile.record_drop) {
            self.counts.records_dropped += 1;
            return;
        }
        if line.len() > 1 && self.rng.gen_bool(self.profile.line_truncation) {
            let cut = self.rng.gen_range(1..line.len());
            out.extend_from_slice(&line[..cut]);
            out.push(b'\n');
            self.counts.lines_truncated += 1;
            return;
        }
        if self.rng.gen_bool(self.profile.byte_garble) {
            let mut garbled = line.to_vec();
            let hits = self.rng.gen_range(1..=8usize.min(garbled.len()));
            for _ in 0..hits {
                let pos = self.rng.gen_range(0..garbled.len());
                // Never write a newline: that would split the line and
                // break the one-fault-per-line accounting.
                let mut b = self.rng.gen_range(0..=254u32) as u8;
                if b == b'\n' {
                    b = b'\xff';
                }
                garbled[pos] = b;
            }
            out.extend_from_slice(&garbled);
            out.push(b'\n');
            self.counts.lines_garbled += 1;
            return;
        }
        if self.rng.gen_bool(self.profile.record_duplication) {
            out.extend_from_slice(line);
            out.push(b'\n');
            self.counts.records_duplicated += 1;
        }
        out.extend_from_slice(line);
        out.push(b'\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_trace_lossy, write_trace};
    use crate::record::{TlsConnection, TraceMeta};
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::{HttpTransaction, Method};

    fn sample_trace(n: usize) -> Trace {
        let records = (0..n)
            .map(|i| {
                if i % 4 == 3 {
                    TraceRecord::Https(TlsConnection {
                        ts: i as f64,
                        client_ip: i as u32 % 7,
                        server_ip: 100 + i as u32,
                        server_port: 443,
                        bytes: 5000,
                    })
                } else {
                    TraceRecord::Http(HttpTransaction {
                        ts: i as f64,
                        client_ip: i as u32 % 7,
                        server_ip: 200 + i as u32 % 13,
                        server_port: 80,
                        method: Method::Get,
                        request: RequestHeaders {
                            host: format!("host{}.example", i % 5),
                            uri: format!("/path/{i}?q=1"),
                            referer: Some(format!("http://host{}.example/", (i + 1) % 5)),
                            user_agent: Some("Mozilla/5.0".to_string()),
                        },
                        response: ResponseHeaders {
                            status: if i % 9 == 0 { 302 } else { 200 },
                            content_type: Some("text/html".to_string()),
                            content_length: Some(1000 + i as u64),
                            location: (i % 9 == 0).then(|| "http://redirect.example/".to_string()),
                        },
                        tcp_handshake_ms: 15.0,
                        http_handshake_ms: 90.0,
                    })
                }
            })
            .collect();
        Trace {
            meta: TraceMeta {
                name: "FAULT-T".into(),
                duration_secs: n as f64,
                subscribers: 7,
                start_hour: 12,
                start_weekday: 2,
            },
            records,
        }
    }

    #[test]
    fn clean_profile_is_identity() {
        let trace = sample_trace(50);
        let mut inj = FaultInjector::new(FaultProfile::clean(), 1);
        assert_eq!(inj.corrupt_trace(&trace), trace);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        assert_eq!(inj.corrupt_bytes(&buf), buf);
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn same_seed_same_corruption() {
        let trace = sample_trace(80);
        let mut a = FaultInjector::new(FaultProfile::uniform(0.1), 42);
        let mut b = FaultInjector::new(FaultProfile::uniform(0.1), 42);
        assert_eq!(a.corrupt_trace(&trace), b.corrupt_trace(&trace));
        assert_eq!(a.counts(), b.counts());
        let mut c = FaultInjector::new(FaultProfile::uniform(0.1), 43);
        assert_ne!(a.corrupt_trace(&trace), c.corrupt_trace(&trace));
    }

    #[test]
    fn in_memory_counts_reconcile() {
        let trace = sample_trace(400);
        let mut inj = FaultInjector::new(FaultProfile::uniform(0.05), 7);
        let out = inj.corrupt_trace(&trace);
        let c = *inj.counts();
        assert_eq!(out.records.len(), c.expected_records(trace.records.len()));
        assert!(c.total() > 0, "5% over 400 records should inject something");

        // Header drops reconcile with the actual field population change.
        let referers = |t: &Trace| {
            t.records
                .iter()
                .filter(|r| matches!(r, TraceRecord::Http(t) if t.request.referer.is_some()))
                .count()
        };
        // Count on the pre-duplication population: rebuild without dups by
        // comparing totals instead. Dropped records may also carry
        // referers, so check the inequality direction only.
        assert!(referers(&out) <= referers(&trace) + c.records_duplicated);
    }

    #[test]
    fn skew_clamps_at_zero_and_counts() {
        let trace = sample_trace(100);
        let mut profile = FaultProfile::clean();
        profile.timestamp_skew = 1.0;
        profile.max_skew_secs = 1e6;
        let mut inj = FaultInjector::new(profile, 3);
        let out = inj.corrupt_trace(&trace);
        assert_eq!(inj.counts().timestamps_skewed, 100);
        assert!(out
            .records
            .iter()
            .all(|r| r.ts() >= 0.0 && r.ts().is_finite()));
    }

    #[test]
    fn wire_faults_reconcile_with_lossy_reader() {
        let trace = sample_trace(300);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let mut inj = FaultInjector::new(FaultProfile::uniform(0.03), 11);
        let corrupted = inj.corrupt_bytes(&buf);
        let c = *inj.counts();

        let (out, stats) = read_trace_lossy(corrupted.as_slice()).unwrap();
        assert!(!stats.header_recovered, "header line must stay intact");
        // Every surviving line is either decoded or counted as skipped.
        assert_eq!(
            stats.lines_seen(),
            c.expected_records(trace.records.len()),
            "lossy reader accounting must match injector ground truth"
        );
        // Truncation always breaks a line; garbling usually does but can
        // by chance leave a decodable record, so only a lower bound holds.
        assert!(stats.total_skipped() >= c.lines_truncated);
        assert!(
            out.records.len()
                >= trace.records.len() - c.records_dropped - c.lines_truncated - c.lines_garbled
        );
    }

    #[test]
    fn heavy_corruption_still_reads_without_panic() {
        let trace = sample_trace(200);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        for seed in 0..5 {
            let mut inj = FaultInjector::new(FaultProfile::uniform(0.5), seed);
            let corrupted = inj.corrupt_bytes(&buf);
            let (out, stats) = read_trace_lossy(corrupted.as_slice()).unwrap();
            assert_eq!(
                stats.lines_seen(),
                inj.counts().expected_records(trace.records.len())
            );
            assert!(out.records.len() <= trace.records.len() + inj.counts().records_duplicated);
        }
    }

    #[test]
    fn uniform_profile_clamps() {
        let p = FaultProfile::uniform(7.5);
        assert_eq!(p.record_drop, 1.0);
        let p = FaultProfile::uniform(-1.0);
        assert_eq!(p, FaultProfile::uniform(0.0));
    }
}
