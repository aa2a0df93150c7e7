//! `maco-perfbench`: one run of one workload of the layer-attributed MACO
//! benchmark. `perfbench/run.py` builds and drives it; `perfbench/README.md`
//! lists every metric, the layer → metric → workload map and the reason for
//! each workload.
//!
//! ```text
//! maco-perfbench --workload <kernels|fig7_gemm|fleet_micro|fleet_burst>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up several times, then repeats untraced
//! episodes for `--seconds` and prints the end-to-end metrics, with host
//! rates in reference seconds (see [`Reference`]). `--trace 1`
//! runs the workload's episodes once untraced and then traced, timing calls
//! into each layer from outside, and prints the per-layer metrics. Both modes check
//! every output; the last line of stdout is the JSON result, and the exit code
//! is non-zero when any check failed.

mod fig7;
mod fleet;
mod kernels;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use maco_sim::SplitMix64;

/// End-to-end metrics, `(name, unit)`, in report order. Simulated
/// quantities carry a `sim` unit so they are never mistaken for host time;
/// host rates carry `ref-s`, reference seconds (see [`Reference`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_gflop_per_s", "GFLOP/ref-s"),
    ("requests_per_s", "1/ref-s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "share"),
    ("sim_eff_gap_pp", "pp"),
    ("sim_scaling_gap_pp", "pp"),
    ("sim_gflops", "GFLOP/sim-s"),
    ("sim_latency_p50_us", "sim-us"),
    ("sim_latency_tail_us", "sim-us"),
    ("sim_interconnect_bytes_per_job", "B"),
];

/// Per-layer metrics of the traced run, `(name, unit)`, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("kernels.fp64_ms", "ms"),
    ("kernels.fp32_ms", "ms"),
    ("kernels.fp16_ms", "ms"),
    ("kernels.int8_ms", "ms"),
    ("kernels.fp64_gflop_per_s", "GFLOP/s"),
    ("kernels.fp32_gflop_per_s", "GFLOP/s"),
    ("kernels.fp16_gflop_per_s", "GFLOP/s"),
    ("kernels.int8_gflop_per_s", "GFLOP/s"),
    ("core.new_ms", "ms"),
    ("core.map_gemm_ms", "ms"),
    ("core.step_gemm_calls", "count"),
    ("core.step_gemm_ms", "ms"),
    ("core.ns_per_tile_step", "ns"),
    ("core.ns_per_page", "ns"),
    ("xlate.pages", "count"),
    ("xlate.tlb_hits", "count"),
    ("xlate.matlb_hits", "count"),
    ("xlate.demand_walks", "count"),
    ("vm.stlb_lookups", "count"),
    ("vm.stlb_misses", "count"),
    ("vm.stlb_hit_rate", "share"),
    ("serve.advance_calls", "count"),
    ("serve.advance_ms", "ms"),
    ("serve.ns_per_advance", "ns"),
    ("serve.advances_per_job", "count"),
    ("cluster.new_ms", "ms"),
    ("cluster.run_trace_ms", "ms"),
    ("cluster.self_ms", "ms"),
    ("cluster.jobs_routed", "count"),
    ("cluster.migrations", "count"),
    ("cluster.splits", "count"),
    ("cluster.replaced", "count"),
    ("cluster.interconnect_bytes", "B"),
    ("noc.hop_flits", "count"),
    ("noc.bytes", "B"),
    ("dram.bytes", "B"),
    ("ccm.bytes", "B"),
    ("ccm.busy_ns", "sim-ns"),
    ("report.to_json_ms", "ms"),
    ("report.fleet_stats_ms", "ms"),
    ("host.cpu_share", "share"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
];

/// How often each run repeats the workload's set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 21;

/// End-to-end host rates: measured per host second, reported per reference
/// second.
const HOST_RATES: &[&str] = &["host_gflop_per_s", "requests_per_s"];

/// Words the memory reference streams through: 32 MiB, more than a core's
/// share of a shared last-level cache.
const STREAM_WORDS: usize = 1 << 22;
/// Read-modify-write passes over the words per memory reference sample.
const STREAM_PASSES: usize = 4;
/// Edge of the vector reference's single-precision matrices (192 KiB for
/// all three, inside a core's L2).
const SIMD_EDGE: usize = 128;
/// Matrix products per vector reference sample.
const SIMD_PRODUCTS: usize = 40;
/// Least host time between two reference samples.
const REFERENCE_EVERY_S: f64 = 0.5;

/// Value an end-to-end metric reads on a workload it does not apply to (see
/// the README's applicability table). Constant, so it can never regress, and
/// not zero, because regressions are judged relative to the median.
const NOT_APPLICABLE: f64 = 1.0;

/// Failure lines printed before the rest are summarised as a count.
const MAX_PRINTED_FAILURES: usize = 20;

/// What one run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: GEMM calls, node tasks or trace requests.
    pub attempted: u64,
    /// Failed checks plus rejected and lost requests.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Metrics the workload measured; the rest are filled in by `main`.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context printed above the result.
    pub notes: Vec<String>,
    /// Simulated fingerprints and work counters. They must repeat exactly
    /// across runs of the same seed; `run.py` compares them between runs.
    pub guard: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, what());
        }
    }

    /// Counts `n` failed operations.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        self.failures.push(what);
    }

    /// Records a deterministic value for the cross-run guard.
    pub fn guard(&mut self, name: &'static str, value: impl ToString) {
        self.guard.insert(name, value.to_string());
    }

    /// Records a work counter both as a per-layer metric and in the guard.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.set(name, value as f64);
        self.guard(name, value);
    }
}

/// Times `f` in seconds of host wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// A fixed loop of the benchmark's own that scales a workload's host rates
/// (see [`Reference`]).
#[derive(Clone, Copy)]
pub enum ReferenceLoop {
    /// Read-modify-write passes over 32 MiB: memory bandwidth and a shared
    /// last-level cache, which the simulator workloads lean on.
    Stream,
    /// A naive single-precision matrix product in L2 that the compiler
    /// vectorises: the vector units, which `kernels` leans on.
    Simd,
}

impl ReferenceLoop {
    /// A typical sample time on the build host, a shared 2-core Intel Xeon.
    /// A run whose median sample time equals it reports its host rates
    /// unscaled.
    fn nominal_s(self) -> f64 {
        match self {
            ReferenceLoop::Stream => 0.018,
            ReferenceLoop::Simd => 0.011,
        }
    }
}

/// Host-speed reference for the end-to-end host rates.
///
/// On a shared host, neighbours change the simulator's speed by up to half
/// within minutes, for the same work. The reference is a fixed loop of the
/// benchmark's own, which no change to the program touches. It is timed
/// between a run's samples, and the run's host rates are multiplied by its
/// median time over [`ReferenceLoop::nominal_s`]: drift that slows both
/// cancels, and a change to the program still moves the rates in full.
pub struct Reference {
    kind: ReferenceLoop,
    words: Vec<u64>,
    matrices: [Vec<f32>; 3],
    times: Vec<f64>,
    last: Instant,
}

impl Reference {
    /// Allocates and touches the loop's data.
    fn new(kind: ReferenceLoop) -> Self {
        let (words, matrices) = match kind {
            ReferenceLoop::Stream => (vec![1; STREAM_WORDS], Default::default()),
            ReferenceLoop::Simd => {
                let n = SIMD_EDGE * SIMD_EDGE;
                let a = (0..n).map(|i| (i % 7) as f32 * 0.1 - 0.3).collect();
                let b = (0..n).map(|i| (i % 5) as f32 * 0.1 - 0.2).collect();
                (Vec::new(), [a, b, vec![0.0; n]])
            }
        };
        Reference {
            kind,
            words,
            matrices,
            times: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Times one reference sample, unless one ran in the last
    /// [`REFERENCE_EVERY_S`]. Called between a run's timed samples.
    pub fn tick(&mut self) {
        if !self.times.is_empty() && self.last.elapsed().as_secs_f64() < REFERENCE_EVERY_S {
            return;
        }
        let ((), s) = match self.kind {
            ReferenceLoop::Stream => {
                let words = &mut self.words;
                timed(|| {
                    for _ in 0..STREAM_PASSES {
                        for w in words.iter_mut() {
                            *w = w.wrapping_mul(3).wrapping_add(1);
                        }
                        black_box(&mut *words);
                    }
                })
            }
            ReferenceLoop::Simd => {
                let [a, b, c] = &mut self.matrices;
                let n = SIMD_EDGE;
                c.fill(0.0);
                timed(|| {
                    for _ in 0..SIMD_PRODUCTS {
                        for (a_row, c_row) in a.chunks_exact(n).zip(c.chunks_exact_mut(n)) {
                            for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                                for (cij, &bkj) in c_row.iter_mut().zip(b_row) {
                                    *cij += aik * bkj;
                                }
                            }
                        }
                        black_box(&mut *c);
                    }
                })
            }
        };
        self.times.push(s);
        self.last = Instant::now();
    }

    /// The median reference time over [`ReferenceLoop::nominal_s`].
    fn slowdown(&self) -> f64 {
        median(&mut self.times.clone()) / self.kind.nominal_s()
    }

    /// Resident size of the loop's data in MB.
    fn mb(&self) -> f64 {
        let bytes = std::mem::size_of_val(self.words.as_slice())
            + self
                .matrices
                .iter()
                .map(|m| std::mem::size_of_val(m.as_slice()))
                .sum::<usize>();
        bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Runs the workload's set-up [`SETUP_REPS`] times; returns the last inputs
/// and the median set-up time in seconds.
pub fn setup_median<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous inputs first, so peak memory holds one copy.
        drop(last.take());
        let (inputs, s) = timed(&mut setup);
        times.push(s);
        last = Some(inputs);
    }
    (last.expect("SETUP_REPS > 0"), median(&mut times))
}

/// `n` input seeds derived from the workload seed. They are SplitMix64
/// outputs, not arithmetic on the seed: the generators seed SplitMix64
/// streams, and seeds a multiple of its increment apart give overlapping,
/// shifted streams.
pub fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Median of `v` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles a tail may be reported at, highest last.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// One exact percentile of a sample.
pub struct Percentile {
    /// The percentile, e.g. 99.0.
    pub pct: f64,
    /// The sample at that rank.
    pub value: u64,
    /// Samples strictly above the rank.
    pub beyond: usize,
}

/// Exact nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[u64], pct: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Percentile {
        pct,
        value: sorted[rank - 1],
        beyond: sorted.len() - rank,
    }
}

/// The highest of [`TAIL_PERCENTILES`] with at least ten samples beyond it
/// (the median when the sample is too small for any).
pub fn tail_percentile(sorted: &[u64]) -> Percentile {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .map(|&p| percentile(sorted, p))
        .find(|p| p.beyond >= 10)
        .unwrap_or_else(|| percentile(sorted, 50.0))
}

/// On-CPU time of the calling thread in nanoseconds, from
/// `/proc/thread-self/schedstat` (0 where that file is unavailable).
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("maco-perfbench: {e}");
        std::process::exit(2);
    });
    let mut reference = Reference::new(match args.workload.as_str() {
        "kernels" => ReferenceLoop::Simd,
        _ => ReferenceLoop::Stream,
    });
    let (wall0, cpu0) = (Instant::now(), thread_cpu_ns());
    let (seed, seconds, rf) = (args.seed, args.seconds, &mut reference);
    let mut out = match (args.workload.as_str(), args.trace) {
        ("kernels", false) => kernels::measure(seed, seconds, rf),
        ("kernels", true) => kernels::traced(seed),
        ("fig7_gemm", false) => fig7::measure(seconds, rf),
        ("fig7_gemm", true) => fig7::traced(),
        ("fleet_micro", false) => fleet::measure(fleet::Kind::Micro, seed, seconds, rf),
        ("fleet_micro", true) => fleet::traced(fleet::Kind::Micro, seed),
        ("fleet_burst", false) => fleet::measure(fleet::Kind::Burst, seed, seconds, rf),
        ("fleet_burst", true) => fleet::traced(fleet::Kind::Burst, seed),
        (other, _) => {
            eprintln!("maco-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let wall = wall0.elapsed().as_secs_f64();
    let cpu = (thread_cpu_ns() - cpu0) as f64 * 1e-9;

    let (catalogue, absent) = if args.trace {
        out.set("host.cpu_share", cpu / wall);
        (PER_LAYER, 0.0)
    } else {
        let slowdown = reference.slowdown();
        for &name in HOST_RATES {
            if let Some(rate) = out.metrics.get_mut(name) {
                out.notes.push(format!(
                    "{name}: {rate:.6} per host second, x{slowdown:.4} per reference second"
                ));
                *rate *= slowdown;
            }
        }
        out.notes.push(format!(
            "host reference: {} samples, median {:.3} ms, nominal {:.3} ms",
            reference.times.len(),
            slowdown * reference.kind.nominal_s() * 1e3,
            reference.kind.nominal_s() * 1e3
        ));
        // The reference's data stay resident all run; they are not the
        // program's.
        out.set("peak_rss_mb", peak_rss_mb() - reference.mb());
        let ok = out.attempted.saturating_sub(out.failed);
        out.set("success_rate", ok as f64 / out.attempted.max(1) as f64);
        (END_TO_END, NOT_APPLICABLE)
    };
    println!(
        "maco-perfbench workload={} seed={} trace={}",
        args.workload, args.seed, args.trace as u8
    );
    println!(
        "host time: wall {wall:.3} s, on-CPU {cpu:.3} s ({:.1}% of wall)",
        100.0 * cpu / wall
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    let non_finite: Vec<&str> = out
        .metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(k, _)| *k)
        .collect();
    for name in non_finite {
        out.fail(1, format!("{name} is not a finite number (printed as -1)"));
    }
    for f in out.failures.iter().take(MAX_PRINTED_FAILURES) {
        println!("FAILED: {f}");
    }
    if out.failures.len() > MAX_PRINTED_FAILURES {
        let more = out.failures.len() - MAX_PRINTED_FAILURES;
        println!("FAILED: ... and {more} more");
    }
    let mut json_metrics = Vec::new();
    for &(name, unit) in catalogue {
        let (value, tag) = match out.metrics.get(name) {
            Some(&v) => (v, ""),
            None if args.trace => (absent, "  (not measured on this workload)"),
            None => (absent, "  (n/a on this workload)"),
        };
        println!("  {name:<32} {value:>18.6} {unit}{tag}");
        json_metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { -1.0 }
        ));
    }
    let guard: Vec<String> = out
        .guard
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!("guard: {{{}}}", guard.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        json_metrics.join(", ")
    );
    if out.failed > 0 {
        std::process::exit(1);
    }
}
