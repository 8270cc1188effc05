//! Small statistics, seeding and process helpers shared by the workloads.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// splitmix64: the benchmark's only source of randomness, so one `--seed`
/// fixes every generated input. It is the benchmark's own rather than the
/// program's `gen::Rng`, so no change to the program can change the inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quantile `q` estimated as the mean of the samples ranked within five
/// percentiles of it. A single order statistic of the grid's cell times
/// jumps from one cell to the next as speed drifts; the band's mean moves
/// with the speed instead.
pub fn band_quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().saturating_sub(1) as f64;
    let lo = ((q - 0.05).max(0.0) * last).ceil() as usize;
    let hi = ((q + 0.05).min(1.0) * last).floor() as usize;
    match sorted.get(lo..=hi) {
        Some(band) if !band.is_empty() => band.iter().sum::<f64>() / band.len() as f64,
        _ => quantile(values, q),
    }
}

/// Geometric mean of positive `values` (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time in seconds. Set-up takes about a millisecond, so one
/// timing of it is mostly noise; the median of several is not.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(std::hint::black_box(setup()));
        times.push(t.elapsed().as_secs_f64());
    }
    let value = last.expect("at least one set-up repetition");
    (value, median(&times))
}

/// Keys the reference loop inserts, then looks up.
const REFERENCE_KEYS: usize = 20_000;
/// The reference loop's time on a quiet 2-vCPU Xeon VM, in ms: a timing
/// made while the loop runs this fast is left as measured.
const REFERENCE_MS: f64 = 5.5;
/// Time between two runs of the reference loop.
const REFERENCE_EVERY_MS: f64 = 150.0;

/// The host-speed reference: a fixed loop, independent of the program,
/// timed every [`REFERENCE_EVERY_MS`] between the workload's operations.
///
/// On a shared host the same cell's time drifts by up to 1.7x within a
/// minute, with the load other tenants put on the core's caches, and a
/// dependent multiply chain does not follow it. The reference builds and
/// probes a `BTreeMap` of 20,000 keys, allocation-heavy and branchy like
/// the scheduler, and its slowdown tracks the cells': over 15 s and 40 s
/// stretches of a 6-minute trace, cell time divided by reference time
/// spread 2-3x less than cell time alone (0.022-0.042 against
/// 0.054-0.107).
pub struct Reference {
    times_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            times_ms: Vec::new(),
            last: None,
        }
    }

    /// Runs and times the loop if [`REFERENCE_EVERY_MS`] has passed since
    /// it last ended (or it never ran).
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| ms_since(t) < REFERENCE_EVERY_MS) {
            return;
        }
        let t = Instant::now();
        std::hint::black_box(reference_loop());
        self.times_ms.push(ms_since(t));
        self.last = Some(Instant::now());
    }

    /// Takes in the times of a reference run on another thread.
    pub fn merge(&mut self, other: Reference) {
        self.times_ms.extend(other.times_ms);
    }

    /// Median time of the loop in ms over every run so far.
    pub fn median_ms(&self) -> f64 {
        median(&self.times_ms)
    }

    /// How many times the loop ran.
    pub fn runs(&self) -> usize {
        self.times_ms.len()
    }

    /// The factor that brings a time measured alongside these runs to the
    /// reference speed: [`REFERENCE_MS`] over the loop's median time.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }
}

/// Inserts [`REFERENCE_KEYS`] seeded keys into a fresh `BTreeMap` and
/// looks up as many more: the same work on every call.
fn reference_loop() -> u64 {
    let mut rng = Rng::new(0x5eed);
    let mut map = std::collections::BTreeMap::new();
    for _ in 0..REFERENCE_KEYS {
        map.insert(rng.next_u64() % 1_000_000, 1u64);
    }
    let mut found = map.len() as u64;
    for _ in 0..REFERENCE_KEYS {
        found += map.get(&(rng.next_u64() % 1_000_000)).copied().unwrap_or(0);
    }
    found
}

/// A fresh directory for this process's journals under `.bench_tmp/` in
/// the working directory.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Removes a [`scratch_dir`], and `.bench_tmp/` with it once empty.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}
