//! Host speed, measured with a fixed reference kernel so that timings can
//! be stated at one nominal speed.
//!
//! The 2-vCPU host this benchmark runs on shares its cores with other
//! tenants. Each vCPU switches on its own, uncorrelated with the other,
//! between a quiet speed and one about 1.7x slower, every few seconds, and
//! busy and quiet periods last minutes; thread CPU time slows with it (the
//! code runs slower, no time is stolen). Between runs of the same code,
//! wall-clock throughput then moved by up to half its median, which
//! measures the neighbours, not the program.
//!
//! So a measured run does its work in rounds of a second or a few, and
//! pauses after each for a pass of reference work on every CPU at once
//! ([`Speed`]), code of this benchmark that no change to the program can
//! touch. Each workload does nearly all its work on one thread (the
//! trainer, the filler, the server's batcher) that stays on one vCPU for
//! seconds at a time, so a round is judged by the passes before and after
//! it on the vCPU its busiest thread ran on, read from `/proc/self/task`,
//! and its durations are restated at the nominal speed: multiplied by
//! `NOMINAL_PASS_S / pass`. A start-up is bracketed the same way by passes
//! on its own thread ([`timed`]). A program change moves the restated
//! figures as it moves the wall time; a host that runs everything slower
//! moves the work and the passes alike. Each run's record keeps the
//! wall-time figures and every pass.

use std::sync::Barrier;
use std::time::Instant;

use rpt_json::Json;

/// Seconds one pass of the reference work takes on one CPU at the nominal
/// speed: its time on a quiet vCPU of the 2-vCPU Xeon host (AVX2) this
/// benchmark was built on, where a busy one takes 15-18 ms. A constant, so
/// figures from different runs and commits are in one unit.
pub const NOMINAL_PASS_S: f64 = 0.010;

/// Rounds of the fixed work in one pass.
const PASS_ROUNDS: usize = 120;

/// Runs the reference work once on each of `cpus`, all at once (one thread
/// pinned to each), and returns each CPU's seconds; with no CPUs known, one
/// pass on this thread.
fn cpu_passes(cpus: &[usize]) -> Vec<f64> {
    if cpus.is_empty() {
        return vec![pass_here()];
    }
    let start = Barrier::new(cpus.len());
    std::thread::scope(|s| {
        let threads: Vec<_> = cpus
            .iter()
            .map(|&cpu| {
                let start = &start;
                s.spawn(move || {
                    pin_to(cpu);
                    start.wait();
                    pass_here()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a reference pass never panics"))
            .collect()
    })
}

/// Most CPUs a pass runs on.
const MAX_CPUS: usize = 8;

#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on (the first [`MAX_CPUS`]), or none when
/// the mask cannot be read.
fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable mask of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..64 * set.0.len())
        .filter(|&cpu| set.0[cpu / 64] >> (cpu % 64) & 1 == 1)
        .take(MAX_CPUS)
        .collect()
}

/// Pins the calling thread to `cpu`; a thread that cannot be pinned runs
/// its pass wherever the scheduler puts it.
fn pin_to(cpu: usize) {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a live mask of the size passed; pid 0 is this thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// The reference work once on this thread; its wall seconds. The work
/// resembles the program's: a small f32 matrix product (the decode-step
/// shapes), a softmax, a scan-and-hash over request-like bytes, and short
/// allocations. Its result is folded into a black box so none of it can be
/// optimised away.
fn pass_here() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    for round in 0..PASS_ROUNDS {
        acc = acc.wrapping_add(reference_round(round));
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

const ROWS: usize = 16;
const INNER: usize = 64;
const COLS: usize = 256;

fn reference_round(round: usize) -> u64 {
    let a: Vec<f32> = (0..ROWS * INNER)
        .map(|i| ((i * 7 + round) % 13) as f32 * 0.05 - 0.3)
        .collect();
    let b: Vec<f32> = (0..INNER * COLS)
        .map(|i| ((i * 11 + round) % 17) as f32 * 0.02 - 0.16)
        .collect();
    let mut c = vec![0f32; ROWS * COLS];
    matmul(&a, &b, &mut c);
    let mut h = 0u64;
    for row in c.chunks_exact_mut(COLS) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0f32;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        h = h.wrapping_mul(31).wrapping_add((sum * 1e3) as u64);
    }
    let text: Vec<u8> = (0..4096)
        .map(|i| b"{\"tokens\": [17, 204, 9], \"op\": \"clean\"}, "[(i + round) % 41])
        .collect();
    for _ in 0..4 {
        h = h.wrapping_add(scan(&text));
    }
    let mut pieces: Vec<Vec<u32>> = Vec::new();
    for i in 0..256 {
        pieces.push((0..(i % 48) as u32 + 8).collect());
        if pieces.len() > 16 {
            h = h.wrapping_add(pieces.swap_remove(i % 16).len() as u64);
        }
    }
    h
}

/// `c += a · b` for row-major `ROWS × INNER` and `INNER × COLS`, with AVX2
/// and FMA when the CPU has them, as the program's kernels do.
fn matmul(a: &[f32], b: &[f32], c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU supports the features the function is compiled for.
        unsafe { matmul_avx2(a, b, c) };
        return;
    }
    matmul_plain(a, b, c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul_avx2(a: &[f32], b: &[f32], c: &mut [f32]) {
    matmul_plain(a, b, c);
}

#[inline(always)]
fn matmul_plain(a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..ROWS {
        let out = &mut c[i * COLS..(i + 1) * COLS];
        for k in 0..INNER {
            let x = a[i * INNER + k];
            let row = &b[k * COLS..(k + 1) * COLS];
            for (o, &w) in out.iter_mut().zip(row) {
                *o += x * w;
            }
        }
    }
}

/// FNV-1a over each run of bytes between delimiters, plus the digits read
/// as numbers: the shape of request parsing.
fn scan(text: &[u8]) -> u64 {
    let (mut h, mut total, mut num) = (0xcbf2_9ce4_8422_2325u64, 0u64, 0u64);
    for &byte in text {
        match byte {
            b'0'..=b'9' => num = num * 10 + u64::from(byte - b'0'),
            b',' | b' ' | b'[' | b']' | b'{' | b'}' | b':' | b'"' => {
                total = total.wrapping_add(h ^ num);
                h = 0xcbf2_9ce4_8422_2325;
                num = 0;
            }
            _ => h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3),
        }
    }
    total
}

/// One thread of this process as `/proc/self/task/<tid>/stat` shows it.
#[derive(Clone, Copy)]
struct Thread {
    tid: u64,
    /// The CPU it last ran on.
    cpu: usize,
    /// User + system CPU time, in clock ticks.
    ticks: u64,
}

/// Every thread of this process, or none when `/proc` cannot be read.
fn threads() -> Vec<Thread> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let tid = entry.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
            // Fields after the parenthesised name, from field 3 (state) on.
            let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
            let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
            Some(Thread {
                tid,
                cpu: field(39)? as usize,
                ticks: field(14)? + field(15)?,
            })
        })
        .collect()
}

/// Host speed over one run: its rounds, reference passes on every CPU
/// between them, and where the process's threads stood at each pass.
#[derive(Default)]
pub struct Speed {
    cpus: Vec<usize>,
    /// Per pass, each CPU's seconds in `cpus` order.
    passes: Vec<Vec<f64>>,
    /// Per pass, the process's threads just before it.
    threads: Vec<Vec<Thread>>,
    /// Per round, its wall seconds and its latency samples in milliseconds.
    rounds: Vec<(f64, Vec<f64>)>,
}

impl Speed {
    /// Takes the pass before the first round.
    pub fn start() -> Speed {
        let mut speed = Speed {
            cpus: allowed_cpus(),
            ..Speed::default()
        };
        speed.sample();
        speed
    }

    /// Records a round that took `seconds` and saw `latencies_ms`, then
    /// takes the pass after it.
    pub fn end_round(&mut self, seconds: f64, latencies_ms: Vec<f64>) {
        self.rounds.push((seconds, latencies_ms));
        self.sample();
    }

    fn sample(&mut self) {
        self.threads.push(threads());
        self.passes.push(cpu_passes(&self.cpus));
    }

    /// Seconds of pass `i` on `cpu`; the mean over the CPUs when `cpu` is
    /// not one of them.
    fn pass_on(&self, i: usize, cpu: usize) -> f64 {
        let pass = &self.passes[i];
        match self.cpus.iter().position(|&c| c == cpu) {
            Some(k) => pass[k],
            None => pass.iter().sum::<f64>() / pass.len() as f64,
        }
    }

    /// For each round, the pass seconds on the CPUs its busiest thread ran
    /// on: the mean of the passes before and after it on the CPU where the
    /// thread stood at each end.
    fn round_passes(&self) -> Vec<f64> {
        (1..self.passes.len())
            .map(|i| {
                let busiest = self.threads[i]
                    .iter()
                    .filter_map(|t| {
                        let before = self.threads[i - 1].iter().find(|b| b.tid == t.tid)?;
                        Some((t.ticks.saturating_sub(before.ticks), before.cpu, t.cpu))
                    })
                    .max_by_key(|&(ticks, _, _)| ticks);
                let (a, b) = busiest.map_or((usize::MAX, usize::MAX), |(_, a, b)| (a, b));
                (self.pass_on(i - 1, a)
                    + self.pass_on(i, a)
                    + self.pass_on(i - 1, b)
                    + self.pass_on(i, b))
                    / 4.0
            })
            .collect()
    }

    /// The rounds' total seconds and every latency sample, in wall time.
    pub fn wall(&self) -> (f64, Vec<f64>) {
        let seconds = self.rounds.iter().map(|r| r.0).sum();
        let latencies = self.rounds.iter().flat_map(|r| r.1.iter().copied());
        (seconds, latencies.collect())
    }

    /// The same, restated at the nominal speed round by round: each round's
    /// durations times `NOMINAL_PASS_S` over its pass seconds.
    pub fn restated(&self) -> (f64, Vec<f64>) {
        let factors: Vec<f64> = self
            .round_passes()
            .iter()
            .map(|p| NOMINAL_PASS_S / p)
            .collect();
        let seconds = self.rounds.iter().zip(&factors).map(|(r, f)| r.0 * f).sum();
        let latencies = self
            .rounds
            .iter()
            .zip(&factors)
            .flat_map(|(r, &f)| r.1.iter().map(move |ms| ms * f));
        (seconds, latencies.collect())
    }

    /// The passes for the run's record.
    pub fn record(&self) -> Json {
        let list = |v: &[f64]| Json::Array(v.iter().map(|&x| Json::from(x)).collect());
        rpt_json::json!({
            "cpus": Json::Array(self.cpus.iter().map(|&c| Json::from(c)).collect()),
            "by_cpu_s": Json::Array(self.passes.iter().map(|p| list(p)).collect()),
            "round_s": list(&self.round_passes()),
        })
    }
}

/// Times `f` between two reference passes on the calling thread, the one
/// that does the start-up work, and returns its result with its duration at
/// the nominal speed and its raw wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    // The first pass in a process pays its page faults and cold caches.
    pass_here();
    let before = pass_here();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    let after = pass_here();
    (out, wall * NOMINAL_PASS_S * 2.0 / (before + after), wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed() {
        assert_eq!(reference_round(0), reference_round(0));
        assert_ne!(reference_round(0), reference_round(1));
    }

    #[test]
    fn rounds_are_restated_by_the_busiest_threads_cpu() {
        let t = |tid, cpu, ticks| Thread { tid, cpu, ticks };
        let speed = Speed {
            cpus: vec![0, 1],
            passes: vec![vec![0.010, 0.020], vec![0.010, 0.020], vec![0.010, 0.030]],
            threads: vec![
                vec![t(1, 0, 0), t(2, 1, 0)],
                vec![t(1, 0, 90), t(2, 1, 5)],
                vec![t(1, 0, 95), t(2, 1, 100)],
            ],
            rounds: vec![(1.0, vec![4.0]), (2.0, vec![5.0, 10.0])],
        };
        // Round 1 ran thread 1 on CPU 0 (10 ms passes), round 2 thread 2 on
        // CPU 1 (20 and 30 ms).
        let passes = speed.round_passes();
        assert!((passes[0] - 0.010).abs() < 1e-12 && (passes[1] - 0.025).abs() < 1e-12);
        assert_eq!(speed.wall(), (3.0, vec![4.0, 5.0, 10.0]));
        let (seconds, latencies) = speed.restated();
        assert!((seconds - (1.0 + 2.0 * 0.4)).abs() < 1e-12);
        assert_eq!(latencies.len(), 3);
        assert!((latencies[0] - 4.0).abs() < 1e-12);
        assert!((latencies[2] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn this_process_shows_its_threads() {
        let me = threads();
        assert!(!me.is_empty());
        assert!(allowed_cpus().len() >= 1);
    }
}
