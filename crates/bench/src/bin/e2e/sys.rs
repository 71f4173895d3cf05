//! Process-level readings the harness takes about itself: CPU time, peak
//! resident set, and two fixed pieces of work that tell a slow box from a
//! slow program (a calibration loop reported as it reads, and the reference
//! job the end-to-end timings are scaled by).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// `/proc/self/stat` reports CPU time in USER_HZ ticks, which Linux fixes
/// at 100 per second for every userspace ABI.
const NS_PER_TICK: u64 = 10_000_000;

/// User + system CPU time of this process, all threads (exited ones
/// included), in nanoseconds at 10 ms granularity. 0 where `/proc` is
/// missing.
pub fn cpu_time_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The comm field is an arbitrary string in parentheses; numeric fields
    // start after the last ')'. utime and stime are fields 14 and 15,
    // i.e. positions 11 and 12 counting from field 3.
    let Some(close) = stat.rfind(')') else {
        return 0;
    };
    let mut fields = stat[close + 1..].split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) * NS_PER_TICK
}

/// Peak resident set (`VmHWM`) of this process in MiB. 0 where `/proc` is
/// missing.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall time, in milliseconds, of FNV-1a over 64 MiB (a 64 KiB buffer
/// hashed 1024 times, so the loop itself adds nothing to peak RSS). The
/// work is fixed: a different reading means a different machine state.
pub fn calib_ms() -> f64 {
    let buf: Vec<u8> = (0..65_536u32)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    let t = Instant::now();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..1024 {
        for &b in black_box(&buf) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    black_box(h);
    t.elapsed().as_secs_f64() * 1e3
}

/// How many times slower than the reference machine this CPU runs right
/// now. The reference machine does a fixed job in one millisecond; the job
/// is made of the two kinds of work the pipeline does, sized to take half
/// a millisecond each on this box when it is undisturbed and at its
/// fastest clock. One half hashes 2 MiB in eight independent FNV-1a lanes
/// (byte scanning, as wide as the core issues); the other builds 5 200
/// `String` keys into a `HashMap` (allocation, hashing, cache misses). The
/// fastest of three goes counts, so that an interrupt inside one of them
/// does not read as a slow machine. A run divides each timing by the
/// readings around it: see the README, "The reference job".
pub fn slowdown() -> f64 {
    let buf: Vec<u8> = (0..65_536u32)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let mut lanes = [0xcbf2_9ce4_8422_2325u64; 8];
        for _ in 0..32 {
            for chunk in black_box(&buf).chunks_exact(8) {
                for (h, &b) in lanes.iter_mut().zip(chunk) {
                    *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        black_box(lanes);
        let mut map: HashMap<String, u64> = HashMap::new();
        for i in 0..5_200u64 {
            *map.entry(format!("key-{}-{}", i % 997, i % 13))
                .or_insert(0) += i;
        }
        black_box(&map);
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best / REFERENCE_JOB_MS
}

const REFERENCE_JOB_MS: f64 = 1.0;

/// A CPU affinity mask in the kernel's layout (`cpu_set_t`: 1024 bits).
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
mod affinity {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the kernel writes at most `cpusetsize` bytes to `mask`,
        // which points at a live, aligned array of exactly that size;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: the kernel reads `cpusetsize` bytes from `mask`, a live,
        // aligned array of exactly that size; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    use super::CpuSet;
    pub fn get() -> Option<CpuSet> {
        None
    }
    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

/// Run `f` with the calling thread, and every thread it spawns meanwhile,
/// restricted to one CPU (the highest-numbered one allowed); the previous
/// affinity is restored afterwards. Where affinity cannot be read or set,
/// `f` runs unrestricted and the second value is false.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> (T, bool) {
    let Some(before) = affinity::get() else {
        return (f(), false);
    };
    let mut one = CpuSet([0; 16]);
    if let Some((word, bits)) = before.0.iter().enumerate().rev().find(|(_, w)| **w != 0) {
        one.0[word] = 1 << (63 - bits.leading_zeros());
    }
    let pinned = affinity::set(&one);
    let out = f();
    if pinned {
        affinity::set(&before);
    }
    (out, pinned)
}
