//! JSON text helpers shared across the workspace.
//!
//! [`write_json_str`] is the workspace's one JSON string escaper: `obs`
//! cannot depend on `netsim` (the dependency points the other way), so it
//! lives here and `netsim::json::write_str` delegates to it. So does the
//! word-at-a-time byte search it shares with the trace scanner
//! ([`find_string_stop`], [`find_newline`]). Everything written with it
//! must round-trip through `netsim::json::parse`, which the integration
//! tests enforce.

use std::fmt::Write as _;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
