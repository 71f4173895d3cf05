//! The structured event log: a bounded in-memory ring of timestamped
//! events, rendered as NDJSON (one JSON object per line).
//!
//! [`write_json_str`] is the workspace's one JSON string escaper: `obs`
//! cannot depend on `netsim` (the dependency points the other way), so it
//! lives here and `netsim::json::write_str` delegates to it. So does the
//! word-at-a-time byte search it shares with the trace scanner
//! ([`find_string_stop`], [`find_newline`]). Everything this sink writes
//! must round-trip through `netsim::json::parse`, which the integration
//! tests enforce.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default event-log capacity. Old events are dropped (and counted) once
/// the ring is full, so a long run cannot grow memory without bound.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One typed field value on an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string field.
    Str(String),
    /// An unsigned integer field.
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A floating-point field.
    F64(f64),
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> FieldValue {
        FieldValue::Str(s.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> FieldValue {
        FieldValue::Str(s)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

/// One structured event: a name, a registry-relative timestamp, and a
/// small set of typed fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the owning registry was created.
    pub ts_ns: u64,
    /// Event name (e.g. `span` or `codec_resync`).
    pub name: &'static str,
    /// Typed payload fields, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Render this event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"ts_ns\":");
        let _ = write!(out, "{}", self.ts_ns);
        out.push_str(",\"event\":");
        write_json_str(&mut out, self.name);
        for (k, v) in &self.fields {
            out.push(',');
            write_json_str(&mut out, k);
            out.push(':');
            match v {
                FieldValue::Str(s) => write_json_str(&mut out, s),
                FieldValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                FieldValue::I64(n) => {
                    let _ = write!(out, "{n}");
                }
                FieldValue::F64(f) => {
                    if f.is_finite() {
                        let _ = write!(out, "{f:?}");
                    } else {
                        out.push_str("null");
                    }
                }
            }
        }
        out.push('}');
        out
    }
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// High bit set in every byte lane of `w` that is zero. Borrows only
/// travel upward, so lanes above the first zero lane may be flagged
/// falsely but the lowest flagged lane is exact — and with a
/// little-endian load the lowest lane is the first byte in memory.
#[inline]
fn zero_lanes(w: u64) -> u64 {
    w.wrapping_sub(ONES) & !w & HIGHS
}

/// High bit set in every lane of `w` below `0x20`; lowest flagged lane
/// exact, for the same reason.
#[inline]
fn control_lanes(w: u64) -> u64 {
    w.wrapping_sub(ONES * 0x20) & !w & HIGHS
}

/// First index in `hay` whose word-wise `lanes` test (or, in the tail
/// shorter than a word, byte-wise `byte` test) fires.
#[inline]
fn find_by(hay: &[u8], lanes: impl Fn(u64) -> u64, byte: impl Fn(u8) -> bool) -> Option<usize> {
    let mut words = hay.chunks_exact(8);
    let mut base = 0;
    for word in words.by_ref() {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        let hit = lanes(w);
        if hit != 0 {
            return Some(base + (hit.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    let tail = words.remainder();
    tail.iter().position(|&b| byte(b)).map(|i| base + i)
}

/// `hay.iter().position(|&b| b == b'\n')`, eight bytes at a time: the
/// line framer of the trace readers and the checkpoint reader use it.
#[inline]
pub fn find_newline(hay: &[u8]) -> Option<usize> {
    find_by(
        hay,
        |w| zero_lanes(w ^ (ONES * u64::from(b'\n'))),
        |b| b == b'\n',
    )
}

/// First byte in `hay` that ends or disqualifies an escape-free JSON string
/// body — `"`, `\`, or a control byte below `0x20` — tested eight bytes at
/// a time. [`write_json_str`] and the trace scanner's string reader share it.
#[inline]
pub fn find_string_stop(hay: &[u8]) -> Option<usize> {
    find_by(
        hay,
        |w| {
            zero_lanes(w ^ (ONES * u64::from(b'"')))
                | zero_lanes(w ^ (ONES * u64::from(b'\\')))
                | control_lanes(w)
        },
        |b| b == b'"' || b == b'\\' || b < 0x20,
    )
}

/// Append a JSON string literal for `s`: the workspace's one string
/// escaper (`netsim::json::write_str` is this function). Escape-free runs
/// are found by [`find_string_stop`] and copied whole. `"`, `\` and bytes
/// below 0x20 are all ASCII, so every cut falls on a character boundary.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut clean_from = 0;
    while let Some(at) = find_string_stop(&s.as_bytes()[clean_from..]) {
        let i = clean_from + at;
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        match s.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

/// A bounded, thread-safe event ring with drop-oldest overflow.
#[derive(Debug)]
pub struct EventLog {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog::with_capacity(DEFAULT_CAPACITY)
    }
}

impl EventLog {
    /// A log holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> EventLog {
        EventLog {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append an event, evicting the oldest if full.
    pub fn push(&self, event: Event) {
        let mut ring = self.ring.lock().expect("event log poisoned");
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("event log poisoned").len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events were evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the held events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("event log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Render the current contents as NDJSON, one event per line. If any
    /// events were evicted, the first line is an `events_dropped` marker
    /// so readers know the log is a suffix, not the whole story.
    pub fn render_ndjson(&self) -> String {
        let events = self.snapshot();
        let dropped = self.dropped();
        let mut out = String::with_capacity(events.len() * 96 + 1);
        if dropped > 0 {
            let _ = writeln!(
                out,
                "{{\"ts_ns\":0,\"event\":\"events_dropped\",\"count\":{dropped}}}"
            );
        }
        for e in &events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> Event {
        Event {
            ts_ns: ts,
            name: "span",
            fields: vec![
                ("stage", FieldValue::from("extract")),
                ("records", FieldValue::from(42u64)),
                ("delta", FieldValue::I64(-3)),
                ("ratio", FieldValue::F64(0.5)),
            ],
        }
    }

    #[test]
    fn event_renders_stable_json() {
        assert_eq!(
            ev(7).to_json(),
            r#"{"ts_ns":7,"event":"span","stage":"extract","records":42,"delta":-3,"ratio":0.5}"#
        );
    }

    #[test]
    fn strings_are_escaped_like_netsim_json() {
        let e = Event {
            ts_ns: 0,
            name: "t",
            fields: vec![("msg", FieldValue::from("a\"b\\c\nd\u{1}"))],
        };
        assert_eq!(
            e.to_json(),
            "{\"ts_ns\":0,\"event\":\"t\",\"msg\":\"a\\\"b\\\\c\\nd\\u0001\"}"
        );
    }

    /// The writer this crate and `netsim::json` each carried before the
    /// run-copying one: a `char` at a time. Kept as the oracle.
    fn write_json_str_charwise(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn assert_matches_charwise(s: &str) {
        let (mut got, mut want) = (String::new(), String::new());
        write_json_str(&mut got, s);
        write_json_str_charwise(&mut want, s);
        assert_eq!(got, want, "input {s:?}");
    }

    /// Every byte that must stop the scan, and DEL and the characters just
    /// past 0x7f that must not, alone and with a multi-byte character
    /// directly before and after.
    #[test]
    fn run_copying_writer_matches_charwise_at_every_stop_byte() {
        let specials = (0u8..0x20).chain([b'"', b'\\', 0x7f]).map(char::from);
        for c in specials.chain(['\u{80}', '\u{7ff}', '\u{ffff}', '\u{10000}']) {
            for (before, after) in [("", ""), ("é", "中"), ("🦀", "\u{80}"), ("ab", "cd")] {
                assert_matches_charwise(&format!("{before}{c}{after}"));
                assert_matches_charwise(&format!("{before}{c}{c}{after}{c}"));
            }
        }
        assert_matches_charwise("");
    }

    /// Strings cut from clean runs, stop bytes and multi-byte characters in
    /// any order.
    fn mixed_string() -> impl proptest::prelude::Strategy<Value = String> {
        use proptest::prelude::*;
        let piece = prop_oneof![
            "[ -~]{0,12}",
            (0u8..0x20).prop_map(|b| char::from(b).to_string()),
            prop_oneof![Just("\""), Just("\\"), Just("\u{7f}")].prop_map(str::to_string),
            prop_oneof![Just("é"), Just("\u{80}"), Just("中"), Just("🦀")].prop_map(str::to_string),
        ];
        proptest::collection::vec(piece, 0..12).prop_map(|pieces| pieces.concat())
    }

    proptest::proptest! {
        #[test]
        fn run_copying_writer_matches_charwise(plain in "\\PC{0,60}", mixed in mixed_string()) {
            assert_matches_charwise(&plain);
            assert_matches_charwise(&mixed);
        }
    }

    /// The word-wise search against `position`, at every alignment of a
    /// 48-byte backing buffer and every length 0–40, with the needle at
    /// every position and absent.
    #[test]
    fn find_newline_matches_position_at_every_alignment_and_length() {
        let mut backing = [0u8; 48];
        for offset in 0..8 {
            for len in 0..=40 {
                for needle in 0..=len {
                    for filler in [b'a', 0x0b, 0x8a, 0xff] {
                        let hay = &mut backing[offset..offset + len];
                        hay.fill(filler);
                        if needle < len {
                            hay[needle] = b'\n';
                            // A second newline later must not win.
                            if needle + 3 < len {
                                hay[needle + 3] = b'\n';
                            }
                        }
                        let want = hay.iter().position(|&b| b == b'\n');
                        assert_eq!(
                            find_newline(hay),
                            want,
                            "offset {offset} len {len} needle {needle} filler {filler:#x}"
                        );
                    }
                }
            }
        }
    }

    /// Same for the string-stop search: every stop byte, every
    /// position, surrounded by bytes one off from each stop class (`!`, `#`,
    /// `[`, `]`, 0x20) and by high bytes whose low bits look like a stop byte.
    #[test]
    fn find_string_stop_matches_position() {
        let is_stop = |b: u8| b == b'"' || b == b'\\' || b < 0x20;
        let fillers = [b'!', b'#', b'[', b']', 0x20, 0x7f, 0xa2, 0xdc, 0x80, 0x9f];
        for len in 0..=40usize {
            for at in 0..=len {
                for stop in [b'"', b'\\', 0x00, 0x0a, 0x1f] {
                    for &filler in &fillers {
                        let mut hay = vec![filler; len];
                        if at < len {
                            hay[at] = stop;
                        }
                        let want = hay.iter().position(|&b| is_stop(b));
                        assert_eq!(
                            find_string_stop(&hay),
                            want,
                            "len {len} at {at} stop {stop:#x} filler {filler:#x}"
                        );
                    }
                }
            }
        }
        // Every byte value on its own, in the first and the last lane.
        for b in 0..=255u8 {
            for lane in [0usize, 7] {
                let mut hay = [b'x'; 8];
                hay[lane] = b;
                assert_eq!(find_string_stop(&hay), is_stop(b).then_some(lane), "{b:#x}");
            }
        }
    }

    /// The word-wise writer against the char-wise oracle at every alignment
    /// of the string in its buffer and every length 0–40, with each stop
    /// byte at every position (and a second one three later), among ASCII
    /// fillers one off from a stop class and high-byte (multi-byte) ones.
    #[test]
    fn word_wise_writer_matches_charwise_at_every_alignment_and_length() {
        let fillers = [
            '!', '#', '[', ']', ' ', '\u{7f}', 'é', '\u{dc}', '\u{80}', '中',
        ];
        for offset in 0..8 {
            for len in 0..=40usize {
                for at in 0..=len {
                    for stop in ['"', '\\', '\u{0}', '\n', '\u{1f}'] {
                        for filler in fillers {
                            let mut chars = vec![filler; len];
                            if at < len {
                                chars[at] = stop;
                                if at + 3 < len {
                                    chars[at + 3] = stop;
                                }
                            }
                            let backing: String = "x".repeat(offset) + &String::from_iter(chars);
                            assert_matches_charwise(&backing[offset..]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event {
            ts_ns: 0,
            name: "t",
            fields: vec![("x", FieldValue::F64(f64::NAN))],
        };
        assert!(e.to_json().ends_with("\"x\":null}"));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let log = EventLog::with_capacity(3);
        for i in 0..5 {
            log.push(ev(i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let snap = log.snapshot();
        assert_eq!(snap[0].ts_ns, 2);
        assert_eq!(snap[2].ts_ns, 4);
        let ndjson = log.render_ndjson();
        let mut lines = ndjson.lines();
        assert!(lines.next().unwrap().contains("events_dropped"));
        assert_eq!(ndjson.lines().count(), 4);
    }
}
