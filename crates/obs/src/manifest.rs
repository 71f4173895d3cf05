//! Run manifests: every experiment run self-describing and re-checkable.
//!
//! A [`RunManifest`] records everything needed to regenerate a run's
//! artifacts and detect drift: the subcommand and its literal argv, a
//! canonical *replay* argv (the deterministic uninterrupted re-run), the
//! configuration key/value set and its FNV-64 hash, the input dataset's
//! content hash, the filter-list hash, crate versions, start/end logical
//! clock, and an FNV-64 digest of every emitted artifact.
//!
//! Digest modes, because not every artifact is byte-reproducible:
//!
//! * [`DigestMode::Exact`] — the bytes must reproduce on replay
//!   (reports, windows NDJSON, written traces).
//! * [`DigestMode::Lines`] — the *set of lines* must reproduce; the
//!   digest is the XOR of per-line FNV-64 hashes, so worker-order
//!   nondeterminism (the quarantine sidecar) doesn't matter.
//! * [`DigestMode::Recorded`] — the digest is stamped for
//!   tamper-evidence only; replay comparison is skipped (timing-bearing
//!   artifacts like `metrics.prom`, checkpoints).
//!
//! The manifest is rendered as a single deterministic JSON object
//! (strings through [`write_json_str`]; `experiments verify` parses it
//! back with `netsim::json::parse`) and written atomically —
//! tmp file, then rename — so a crashed run never leaves a torn
//! manifest next to a complete artifact.

use crate::json::write_json_str;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Read, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_fold(FNV_OFFSET, bytes)
}

/// Fold `bytes` into a running FNV-1a 64-bit state `h` — the crate's one
/// copy of the loop (trace and span ids, sketch keys, file digests).
#[inline]
pub(crate) fn fnv64_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Seeds of [`Sum64`]'s four lanes (hex digits of π).
const SUM_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
/// What each word is XORed with before it is multiplied, and the multiplier
/// (the next digits of π, the multiplier's low bit set).
const SUM_KEY: u64 = 0x4528_21e6_38d0_1377;
const SUM_MUL: u64 = 0xbe54_66cf_34e9_0c6d;

/// The 128-bit product of `a` and `b`, its halves XORed together.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Fold one 32-byte block into the lanes, one little-endian word each.
/// A lane's update is a bijection of its old value, so a difference in
/// earlier bytes is never absorbed by later ones.
#[inline]
fn sum_block(lanes: &mut [u64; 4], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        *lane = lane
            .rotate_left(23)
            .wrapping_add(folded_multiply(w ^ SUM_KEY, SUM_MUL));
    }
}

/// A running 64-bit checksum of a byte stream, for detecting a torn or
/// damaged file rather than for hashing keys: four independent lanes take
/// eight bytes a word each through a folded multiply (≈0.08 ns a byte on a
/// 2-vCPU Xeon VM, where serial FNV-1a takes ≈1.3). The sum depends only on
/// the bytes, not on how [`Sum64::update`] calls cut them.
#[derive(Debug, Clone)]
pub struct Sum64 {
    lanes: [u64; 4],
    /// The bytes of a block not yet complete, `pending` of them.
    block: [u8; 32],
    pending: usize,
    len: u64,
}

impl Default for Sum64 {
    fn default() -> Sum64 {
        Sum64 {
            lanes: SUM_SEEDS,
            block: [0; 32],
            pending: 0,
            len: 0,
        }
    }
}

impl Sum64 {
    /// Fold `bytes` in.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending > 0 {
            let take = bytes.len().min(32 - self.pending);
            self.block[self.pending..self.pending + take].copy_from_slice(&bytes[..take]);
            self.pending += take;
            bytes = &bytes[take..];
            if self.pending < 32 {
                return;
            }
            let block = self.block;
            sum_block(&mut self.lanes, &block);
            self.pending = 0;
        }
        let mut blocks = bytes.chunks_exact(32);
        for block in blocks.by_ref() {
            sum_block(&mut self.lanes, block);
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
        self.pending = rest.len();
    }

    /// The checksum of everything folded in: the last, zero-padded block,
    /// then the lanes and the length (which tells trailing zeros apart).
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.pending > 0 {
            let mut last = [0u8; 32];
            last[..self.pending].copy_from_slice(&self.block[..self.pending]);
            sum_block(&mut lanes, &last);
        }
        lanes
            .iter()
            .fold(self.len, |h, &lane| folded_multiply(h ^ lane, SUM_MUL))
    }
}

/// [`Sum64`] of `bytes`.
pub fn sum64(bytes: &[u8]) -> u64 {
    let mut sum = Sum64::default();
    sum.update(bytes);
    sum.finish()
}

/// Replace `path` with `bytes` so that a reader sees the old file or the
/// whole new one, never a torn one: see [`atomic_write_with`].
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |f| f.write_all(bytes))
}

/// Replace `path` with whatever `fill` writes: into a temp file beside it,
/// fsynced, then renamed over `path` (and the directory fsynced, so the
/// rename survives a crash too). The temp name carries the pid and a
/// process-wide counter, so writers of one path, in one process or in
/// several, never share a temp file; the last rename wins. The directory
/// must exist. On an error the temp file is removed; a writer killed
/// mid-write leaves it behind, for [`sweep_temp_files`].
pub fn atomic_write_with(
    path: &Path,
    fill: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let Some(name) = path.file_name() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("atomic_write: {} has no file name", path.display()),
        ));
    };
    let mut tmp_name = name.to_os_string();
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = File::create(&tmp).and_then(|mut f| {
        fill(&mut f)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    });
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Remove the temp files [`atomic_write_with`] left beside `path` when their
/// writer was killed mid-write: every sibling named
/// `<file name>.<pid>.<seq>.tmp`. Returns how many went. Anything else in
/// the directory, `path` itself included, is left alone, and a directory
/// that does not exist yet holds nothing to sweep. For the start of a run
/// that owns `path`: a second live writer of the same path would lose its
/// temp file to this, so the caller must hold a lock on the directory (the
/// stream engine's checkpoint directory has one).
pub fn sweep_temp_files(path: &Path) -> io::Result<usize> {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return Ok(0);
    };
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let is_number = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let mut removed = 0;
    for entry in entries {
        let entry = entry?;
        let file_name = entry.file_name();
        let pid_seq = file_name
            .to_str()
            .and_then(|f| {
                f.strip_prefix(name)?
                    .strip_prefix('.')?
                    .strip_suffix(".tmp")
            })
            .and_then(|middle| middle.split_once('.'));
        if pid_seq.is_some_and(|(pid, seq)| is_number(pid) && is_number(seq)) {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// FNV-1a 64-bit hash of a file's bytes, streamed in 64 KiB blocks
/// (never materializes the file). Returns `(digest, byte_length)`.
pub fn fnv64_file(path: &Path) -> io::Result<(u64, u64)> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = [0u8; 65536];
    let mut h = FNV_OFFSET;
    let mut len = 0u64;
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        len += n as u64;
        h = fnv64_fold(h, &buf[..n]);
    }
    Ok((h, len))
}

/// Order-insensitive digest of a file's lines: XOR of each line's
/// FNV-64 (trailing `\n` excluded from each line). Two files with the
/// same multiset of lines in any order digest identically — the
/// property the quarantine sidecar needs, whose line order across
/// workers is not deterministic. Returns `(digest, byte_length)`.
pub fn fnv64_lines_unordered(path: &Path) -> io::Result<(u64, u64)> {
    let text = std::fs::read_to_string(path)?;
    let mut h = 0u64;
    for line in text.lines() {
        h ^= fnv64(line.as_bytes());
    }
    Ok((h, text.len() as u64))
}

/// How an artifact's digest participates in `verify` replay comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestMode {
    /// Bytes must reproduce exactly on replay.
    Exact,
    /// The unordered line set must reproduce on replay.
    Lines,
    /// Digest recorded for drift detection only; replay skips it.
    Recorded,
}

impl DigestMode {
    /// Wire name used in the manifest JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            DigestMode::Exact => "exact",
            DigestMode::Lines => "lines",
            DigestMode::Recorded => "recorded",
        }
    }

    /// Parse a wire name back (`None` for unknown strings).
    pub fn parse(s: &str) -> Option<DigestMode> {
        match s {
            "exact" => Some(DigestMode::Exact),
            "lines" => Some(DigestMode::Lines),
            "recorded" => Some(DigestMode::Recorded),
            _ => None,
        }
    }
}

/// One emitted artifact: its role name, path, size, digest and mode.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Stable role name (`report`, `windows`, `quarantine`, ...); unique
    /// within a manifest, used by `verify` to map replay outputs.
    pub name: String,
    /// Path the artifact was written to.
    pub path: String,
    /// Byte length at stamp time.
    pub bytes: u64,
    /// FNV-64 digest (per `mode`).
    pub fnv: u64,
    /// How `verify` compares this artifact on replay.
    pub mode: DigestMode,
}

/// The input dataset's identity: path and content hash.
#[derive(Debug, Clone)]
pub struct DatasetRef {
    /// Path of the input trace file.
    pub path: String,
    /// Byte length.
    pub bytes: u64,
    /// FNV-64 of the file bytes.
    pub fnv: u64,
}

/// A deterministic, self-describing record of one experiment run.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// The `experiments` subcommand that produced this run.
    pub subcommand: String,
    /// The literal argv the run was invoked with (after the subcommand).
    pub args: Vec<String>,
    /// Canonical deterministic re-run argv (including the subcommand).
    /// Empty means the run is not replayable (`verify` does disk checks
    /// only).
    pub replay: Vec<String>,
    /// The experiments output directory in effect at stamp time.
    pub out_dir: String,
    /// Configuration key/value pairs (seed, scale, topology), sorted by
    /// key before rendering so the config hash is stable.
    pub config: Vec<(String, String)>,
    /// Input dataset content hash, when the run read a trace file.
    pub dataset: Option<DatasetRef>,
    /// FNV-64 over the classifier's filter-list rule text, when one was
    /// built.
    pub filter_fnv: Option<u64>,
    /// `(crate, version)` pairs of the code that produced the run.
    pub crates: Vec<(String, String)>,
    /// Registry logical clock (ns) when the run began.
    pub start_ns: u64,
    /// Registry logical clock (ns) when the manifest was stamped.
    pub end_ns: u64,
    /// Every emitted artifact, in emission order.
    pub artifacts: Vec<Artifact>,
}

/// Manifest format version (bump on schema change).
pub(crate) const MANIFEST_VERSION: u64 = 1;

impl RunManifest {
    /// A fresh manifest for `subcommand` with the logical start clock.
    pub fn new(subcommand: &str, start_ns: u64) -> RunManifest {
        RunManifest {
            subcommand: subcommand.to_string(),
            start_ns,
            ..RunManifest::default()
        }
    }

    /// Add a config pair (kept sorted by key for hash stability).
    pub fn config(&mut self, key: &str, value: impl std::fmt::Display) {
        self.config.push((key.to_string(), value.to_string()));
        self.config.sort();
    }

    /// FNV-64 over the canonical config string
    /// (`subcommand|k=v|k=v|...` with sorted keys): the run's identity
    /// hash, joinable from bench history rows.
    pub fn config_fnv(&self) -> u64 {
        let mut s = self.subcommand.clone();
        for (k, v) in &self.config {
            let _ = write!(s, "|{k}={v}");
        }
        fnv64(s.as_bytes())
    }

    /// Digest `path` under `mode` and append it as artifact `name`.
    /// Missing files are an error — a stamped artifact must exist.
    pub fn add_artifact(&mut self, name: &str, path: &Path, mode: DigestMode) -> io::Result<()> {
        let (fnv, bytes) = match mode {
            DigestMode::Lines => fnv64_lines_unordered(path)?,
            _ => fnv64_file(path)?,
        };
        self.artifacts.push(Artifact {
            name: name.to_string(),
            path: path.display().to_string(),
            bytes,
            fnv,
            mode,
        });
        Ok(())
    }

    /// Hash the input dataset at `path` and record it.
    pub fn set_dataset(&mut self, path: &Path) -> io::Result<()> {
        let (fnv, bytes) = fnv64_file(path)?;
        self.dataset = Some(DatasetRef {
            path: path.display().to_string(),
            bytes,
            fnv,
        });
        Ok(())
    }

    /// Render the manifest as one deterministic JSON object (trailing
    /// newline included).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"kind\":\"annoyed-users-run\",\"version\":");
        let _ = write!(out, "{MANIFEST_VERSION}");
        out.push_str(",\"subcommand\":");
        write_json_str(&mut out, &self.subcommand);
        out.push_str(",\"args\":");
        write_str_array(&mut out, &self.args);
        out.push_str(",\"replay\":");
        write_str_array(&mut out, &self.replay);
        out.push_str(",\"out_dir\":");
        write_json_str(&mut out, &self.out_dir);
        out.push_str(",\"config\":{");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(&mut out, k);
            out.push(':');
            write_json_str(&mut out, v);
        }
        out.push('}');
        let _ = write!(out, ",\"config_fnv\":{}", self.config_fnv());
        out.push_str(",\"dataset\":");
        match &self.dataset {
            Some(d) => {
                out.push_str("{\"path\":");
                write_json_str(&mut out, &d.path);
                let _ = write!(out, ",\"bytes\":{},\"fnv\":{}}}", d.bytes, d.fnv);
            }
            None => out.push_str("null"),
        }
        match self.filter_fnv {
            Some(h) => {
                let _ = write!(out, ",\"filter_fnv\":{h}");
            }
            None => out.push_str(",\"filter_fnv\":null"),
        }
        out.push_str(",\"crates\":{");
        for (i, (k, v)) in self.crates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(&mut out, k);
            out.push(':');
            write_json_str(&mut out, v);
        }
        out.push('}');
        let _ = write!(
            out,
            ",\"clock\":{{\"start_ns\":{},\"end_ns\":{}}}",
            self.start_ns, self.end_ns
        );
        out.push_str(",\"artifacts\":[");
        for (i, a) in self.artifacts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_str(&mut out, &a.name);
            out.push_str(",\"path\":");
            write_json_str(&mut out, &a.path);
            let _ = write!(out, ",\"bytes\":{},\"fnv\":{},\"mode\":", a.bytes, a.fnv);
            write_json_str(&mut out, a.mode.as_str());
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Write the manifest through [`atomic_write`], creating its
    /// directory first. A reader never observes a torn manifest.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        atomic_write(path, self.to_json().as_bytes())
    }
}

fn write_str_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, s);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    /// A seeded 4 KiB buffer: every single-bit flip and every truncation
    /// changes its checksum, and the sum does not depend on how the updates
    /// cut the bytes.
    #[test]
    fn sum64_changes_under_every_bit_flip_and_truncation() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4096)
            .map(|_| {
                // SplitMix64, one byte of each output.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (z ^ (z >> 27)) as u8
            })
            .collect();
        let whole = sum64(&buf);
        let mut flipped = buf.clone();
        for bit in 0..buf.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(sum64(&flipped), whole, "bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let mut seen: Vec<u64> = (0..=buf.len()).map(|n| sum64(&buf[..n])).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), buf.len() + 1, "two truncations share a sum");
        assert_ne!(sum64(&[0; 31]), sum64(&[0; 32]), "trailing zeros count");
        for cut in [1, 7, 31, 32, 33, 100] {
            let mut sum = Sum64::default();
            for piece in buf.chunks(cut) {
                sum.update(piece);
            }
            assert_eq!(sum.finish(), whole, "pieces of {cut}");
        }
    }

    #[test]
    fn file_digest_streams_and_matches_in_memory() {
        let dir = std::env::temp_dir().join("obs_manifest_test_file");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("blob.bin");
        let payload: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        std::fs::write(&p, &payload).unwrap();
        let (h, len) = fnv64_file(&p).unwrap();
        assert_eq!(len, payload.len() as u64);
        assert_eq!(h, fnv64(&payload));
    }

    #[test]
    fn unordered_line_digest_is_order_insensitive() {
        let dir = std::env::temp_dir().join("obs_manifest_test_lines");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.ndjson");
        let b = dir.join("b.ndjson");
        std::fs::write(&a, "one\ntwo\nthree\n").unwrap();
        std::fs::write(&b, "three\none\ntwo\n").unwrap();
        assert_eq!(
            fnv64_lines_unordered(&a).unwrap().0,
            fnv64_lines_unordered(&b).unwrap().0
        );
        let c = dir.join("c.ndjson");
        std::fs::write(&c, "one\ntwo\nfour\n").unwrap();
        assert_ne!(
            fnv64_lines_unordered(&a).unwrap().0,
            fnv64_lines_unordered(&c).unwrap().0
        );
    }

    #[test]
    fn config_fnv_is_order_insensitive_and_value_sensitive() {
        let mut a = RunManifest::new("stream", 0);
        a.config("seed", 7);
        a.config("scale", "small");
        let mut b = RunManifest::new("stream", 99);
        b.config("scale", "small");
        b.config("seed", 7);
        assert_eq!(a.config_fnv(), b.config_fnv(), "insertion order irrelevant");
        let mut c = RunManifest::new("stream", 0);
        c.config("seed", 8);
        c.config("scale", "small");
        assert_ne!(a.config_fnv(), c.config_fnv());
    }

    #[test]
    fn json_rendering_is_deterministic_and_atomic_write_lands() {
        let dir = std::env::temp_dir().join("obs_manifest_test_json");
        std::fs::create_dir_all(&dir).unwrap();
        let art = dir.join("report.txt");
        std::fs::write(&art, "hello report\n").unwrap();

        let mut m = RunManifest::new("stream", 10);
        m.args = vec!["--rbn1".into(), "--seed".into(), "7".into()];
        m.replay = vec!["stream".into(), "--rbn1".into()];
        m.out_dir = "target/experiments".into();
        m.config("seed", 7);
        m.crates.push(("obs".into(), "0.1.0".into()));
        m.filter_fnv = Some(42);
        m.end_ns = 20;
        m.add_artifact("report", &art, DigestMode::Exact).unwrap();

        let j1 = m.to_json();
        let j2 = m.to_json();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"kind\":\"annoyed-users-run\""));
        assert!(j1.contains("\"mode\":\"exact\""));
        assert!(j1.ends_with("]}\n"));

        let out = dir.join("manifest.json");
        m.write_atomic(&out).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), j1);
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(left.is_empty(), "temp files renamed away: {left:?}");
    }

    /// The tier-1 flake: two writers of one path used to share
    /// `<path>.tmp`, and the slower one's rename found it gone.
    #[test]
    fn concurrent_atomic_writes_of_one_path_all_succeed() {
        let dir = std::env::temp_dir().join(format!("obs-atomic-write-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.manifest.json");
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..50 {
                        atomic_write(path, &[b'a' + t; 4096]).expect("no writer loses its temp");
                        let seen = std::fs::read(path).expect("a whole file is always there");
                        assert_eq!(seen.len(), 4096, "torn write");
                        assert!(seen.iter().all(|b| *b == seen[0]), "mixed writers");
                    }
                });
            }
        });
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, vec![std::ffi::OsString::from("shared.manifest.json")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_atomic_write_leaves_no_temp_and_keeps_the_old_file() {
        let dir = std::env::temp_dir().join(format!("obs-atomic-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("port");
        atomic_write(&path, b"old\n").unwrap();
        let err = atomic_write_with(&path, |f| {
            f.write_all(b"half")?;
            Err(io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(std::fs::read(&path).unwrap(), b"old\n");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        assert!(atomic_write(Path::new("/"), b"x").is_err(), "no file name");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_orphaned_temp_files_and_nothing_else() {
        let dir = std::env::temp_dir().join(format!("obs-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("checkpoint.ndjson");
        assert_eq!(sweep_temp_files(&path).unwrap(), 0, "no directory yet");
        std::fs::create_dir_all(&dir).unwrap();
        atomic_write(&path, b"the real one\n").unwrap();
        let keep = [
            "checkpoint.ndjson",
            "notes.tmp",
            "checkpoint.ndjson.tmp",
            "checkpoint.ndjson.bak.1.tmp",
            "checkpoint.ndjson.7.tmp",
            "checkpoint.ndjson.7.8.tmp.old",
            "other.ndjson.7.8.tmp",
        ];
        for decoy in &keep[1..] {
            std::fs::write(dir.join(decoy), b"decoy").unwrap();
        }
        std::fs::write(dir.join("checkpoint.ndjson.4242.0.tmp"), b"orphan").unwrap();
        std::fs::write(dir.join("checkpoint.ndjson.1.17.tmp"), b"orphan").unwrap();

        assert_eq!(sweep_temp_files(&path).unwrap(), 2);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        let mut want = keep.map(str::to_string).to_vec();
        want.sort();
        assert_eq!(left, want);
        assert_eq!(std::fs::read(&path).unwrap(), b"the real one\n");
        assert_eq!(sweep_temp_files(&path).unwrap(), 0, "nothing left to sweep");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_artifact_is_an_error() {
        let mut m = RunManifest::new("stream", 0);
        let err = m.add_artifact(
            "report",
            Path::new("/nonexistent/definitely/not/here"),
            DigestMode::Exact,
        );
        assert!(err.is_err());
        assert!(m.artifacts.is_empty());
    }
}
