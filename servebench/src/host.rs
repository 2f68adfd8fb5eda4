//! Host-side plumbing: process CPU time and peak RSS (`getrusage`),
//! order statistics, the provenance stamp and a tiny JSON writer.

use std::fmt::Write as _;
use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("servebench reads CPU time and peak RSS through 64-bit Linux getrusage(2)");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (checked by the `compile_error!` gate above), and
    // RUSAGE_SELF is a valid `who`; getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    usage
}

/// User + system CPU seconds consumed by every thread of this process so
/// far (exited threads included).
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().maxrss_kib as f64 / 1024.0
}

/// Median of `values` (NaN when empty). Sorts a copy.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by linear interpolation between order statistics
/// (NaN when empty).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.25), quantile(&v, 0.5), quantile(&v, 0.75))
}

/// The `q`-quantile of an ascending slice, interpolated (NaN when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail percentile a sample of `n` supports: the highest of 99, 98,
/// … whole percent that leaves at least ten samples beyond it (50 at
/// worst, so tiny samples still report their median).
pub fn supported_percentile(n: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
        .unwrap_or(50)
}

/// Where this result came from: box shape, build, fleet knobs, code
/// identity, seed.
pub struct Provenance {
    pub nproc: usize,
    pub threads: usize,
    pub workers: usize,
    pub seed: u64,
    pub held_out: bool,
}

impl Provenance {
    /// One JSON object.
    pub fn to_json(&self, workload: &str, trace: bool) -> String {
        let mut o = JsonObject::new();
        o.str("workload", workload);
        o.num("seed", self.seed as f64);
        o.str(
            "seed_set",
            if self.held_out {
                "held-out"
            } else {
                "development"
            },
        );
        o.bool("trace", trace);
        o.num("nproc", self.nproc as f64);
        o.str("arch", std::env::consts::ARCH);
        o.str("os", std::env::consts::OS);
        o.str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
        o.num("fleet_threads", self.threads as f64);
        o.num("fleet_workers", self.workers as f64);
        o.str(
            "git_commit",
            &git_commit().unwrap_or_else(|| "unknown".into()),
        );
        o.str("source_fnv64", &format!("{:016x}", source_fingerprint()));
        o.finish()
    }
}

/// The commit `HEAD` names, read straight from `.git` in the working
/// directory (no subprocess; `None` outside a git checkout).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            let loose = std::fs::read_to_string(Path::new(".git").join(reference)).ok();
            let packed = || {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            };
            loose.map(|s| s.trim().to_string()).or_else(packed)
        }
        None => Some(head.to_string()),
    }
}

/// FNV-1a over every `.rs`/`Cargo.toml` file under `crates/` and
/// `servebench/src/` (sorted paths): identifies the measured code even
/// where no git metadata exists.
pub fn source_fingerprint() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "servebench/src"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        fnv1a(&mut hash, file.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&file) {
            fnv1a(&mut hash, &bytes);
        }
    }
    hash
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// FNV-1a step.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// A flat JSON object writer (keys are emitted in insertion order).
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    pub fn new() -> JsonObject {
        JsonObject {
            body: String::new(),
        }
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "{}: ", quote(key));
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.body.push_str(&quote(value));
    }

    /// A number with every digit `f64`'s shortest round-trip form has;
    /// non-finite values (never expected) become `null`.
    pub fn num(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value}");
        } else {
            self.body.push_str("null");
        }
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
    }

    /// A pre-rendered JSON value.
    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key);
        self.body.push_str(json);
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_like_the_usual_definition() {
        let (q1, m, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q1, m, q3), (2.0, 3.0, 4.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(1000), 99);
        assert_eq!(supported_percentile(999), 98);
        assert_eq!(supported_percentile(200), 95);
        assert_eq!(supported_percentile(5), 50);
    }

    #[test]
    fn cpu_clock_and_rss_are_live() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn json_object_escapes_and_orders_keys() {
        let mut o = JsonObject::new();
        o.str("a", "x\"y");
        o.num("b", 1.5);
        o.bool("c", true);
        o.num("d", f64::NAN);
        assert_eq!(
            o.finish(),
            r#"{"a": "x\"y", "b": 1.5, "c": true, "d": null}"#
        );
    }
}
