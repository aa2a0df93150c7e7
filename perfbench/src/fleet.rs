//! `fleet_micro` and `fleet_burst`: traces served by a four-machine fleet
//! through `Cluster::run_trace`, with the report read back through
//! `ClusterReport::to_json` and `fleet_stats`.
//!
//! Simulated traffic is open-loop: arrivals follow the `TraceConfig`
//! schedule whatever the service time. On the host each episode is one call,
//! one at a time, on a fresh fleet (fresh systems, empty TLBs and caches).
//!
//! * `fleet_micro` streams 10⁵ micro requests through
//!   `ClusterSpec::streaming(4, 4, ·)`: tenant-affinity routing, no splits,
//!   no interconnect traffic. Per-event cost in router and engine dominates
//!   and translation reuse is low.
//! * `fleet_burst` sends `TraceConfig::fleet` bursts (32 GPT-3-heavy
//!   single-layer requests) to `ClusterSpec::bandwidth_constrained(4, 4)`
//!   while machine 1 fails for good and machine 2 fails and recovers: few
//!   heavy gang jobs and the split, migrate, evict and re-place paths.
//!
//! Episodes run one at a time, cycling through the workload's episodes;
//! host rates are medians over episode runs.

use std::hint::black_box;
use std::time::Instant;

use maco_cluster::{Cluster, ClusterReport, ClusterSpec, FaultSpec};
use maco_core::system::MacoSystem;
use maco_serve::{Engine, JobSpec, Tenant};
use maco_sim::{fold_fingerprint, SimDuration, SimTime, SplitMix64, Stats};
use maco_workloads::trace::{self, ModelKind, TraceConfig, TraceRequest};

use crate::fig7::machine_counters;
use crate::{median, setup_median, tail_percentile, timed, Outcome, Reference};

/// Which of the two fleet workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Micro,
    Burst,
}

const MICRO_REQUESTS: usize = 100_000;
/// Bursts of `fleet_burst`, each from its own seed derived from the
/// workload seed. Pooling them gives the latency tail enough samples and
/// keeps the simulated metrics from swinging with a single 32-request draw.
const BURST_EPISODES: usize = 16;
/// GPT-3 requests in every `fleet_burst` burst (the mean of a 32-request
/// `TraceConfig::fleet` draw is 10.7). The GPT-3 heads carry almost all the
/// flops and the host time, so a free count would make a seed change the
/// amount of work by ±25 % per burst; with it fixed, a seed changes which
/// requests arrive when, for which tenant, and not how much there is to do.
const BURST_GPT3: usize = 11;

impl Kind {
    fn trace_config(self, seed: u64) -> TraceConfig {
        match self {
            Kind::Micro => TraceConfig::micro(seed, MICRO_REQUESTS),
            Kind::Burst => TraceConfig::fleet(seed),
        }
    }

    fn spec(self, config: &TraceConfig) -> ClusterSpec {
        match self {
            Kind::Micro => ClusterSpec::streaming(4, 4, config.requests),
            Kind::Burst => {
                // Arrivals are ~10 µs apart: machine 1 dies for good a
                // quarter into the arrival span, machine 2 dies halfway
                // and is back 100 µs later.
                let span = config.mean_interarrival.as_fs() * config.requests as u64;
                let at = |f: u64| SimTime::ZERO + SimDuration::from_fs(span / f);
                let faults = FaultSpec::none().with_failure(1, at(4), None).with_failure(
                    2,
                    at(2),
                    Some(at(2) + SimDuration::from_us(100)),
                );
                ClusterSpec::bandwidth_constrained(4, 4).with_faults(faults)
            }
        }
    }
}

/// One episode's inputs: the generated trace and the fleet that serves it.
struct Episode {
    trace: Vec<TraceRequest>,
    spec: ClusterSpec,
    tenants: Vec<Tenant>,
}

impl Episode {
    /// The workload's episodes for `seed`. Seeds are SplitMix64 outputs of
    /// the workload seed (see `crate::sub_seeds`); `fleet_burst` skips
    /// bursts whose GPT-3 count is not [`BURST_GPT3`] until it has
    /// [`BURST_EPISODES`].
    fn all(kind: Kind, seed: u64) -> Vec<Self> {
        let mut rng = SplitMix64::new(seed);
        let mut episodes = Vec::new();
        match kind {
            Kind::Micro => episodes.push(Episode::new(kind, rng.next_u64())),
            Kind::Burst => {
                while episodes.len() < BURST_EPISODES {
                    let ep = Episode::new(kind, rng.next_u64());
                    let gpt3 = ep.trace.iter().filter(|r| r.model == ModelKind::Gpt3);
                    if gpt3.count() == BURST_GPT3 {
                        episodes.push(ep);
                    }
                }
            }
        }
        episodes
    }

    fn new(kind: Kind, seed: u64) -> Self {
        let config = kind.trace_config(seed);
        Episode {
            trace: trace::generate(&config),
            spec: kind.spec(&config),
            tenants: Tenant::fleet(config.tenants),
        }
    }

    fn cluster(&self) -> Cluster {
        Cluster::new(self.spec.clone(), self.tenants.clone())
    }
}

/// The workload's set-up: traces generated and fleets instantiated.
fn setup(kind: Kind, seed: u64) -> Vec<(Episode, Cluster)> {
    Episode::all(kind, seed)
        .into_iter()
        .map(|ep| {
            let cluster = ep.cluster();
            (ep, cluster)
        })
        .collect()
}

/// What a user of the fleet does per episode: serve the trace, then read
/// the report out. Returns the report and the host seconds it all took.
fn serve(cluster: &mut Cluster, ep: &Episode) -> (Option<ClusterReport>, f64) {
    let (report, s) = timed(|| {
        let report = cluster.run_trace(&ep.trace).ok()?;
        black_box(report.to_json());
        black_box(report.fleet_stats());
        Some(report)
    });
    (report, s)
}

fn episode_fingerprint(r: &ClusterReport) -> u64 {
    let fp = fold_fingerprint(r.fingerprint, r.fault.fingerprint);
    fold_fingerprint(fp, r.interconnect_fingerprint)
}

/// Output checks on one episode: conservation of requests and flops, and
/// no rejected or lost job.
fn check(kind: Kind, ep: &Episode, report: Option<&ClusterReport>, out: &mut Outcome) {
    let requests = ep.trace.len() as u64;
    out.attempted += requests;
    let Some(r) = report else {
        out.fail(requests, "run_trace returned an error".into());
        return;
    };
    let (completed, rejected, lost) = (r.jobs_completed, r.jobs_rejected, r.fault.jobs_lost);
    if rejected + lost > 0 {
        out.fail(rejected + lost, format!("{rejected} rejected, {lost} lost"));
    }
    out.check(completed + rejected + lost == requests, || {
        format!("{completed} completed + {rejected} rejected + {lost} lost != {requests} requests")
    });
    let trace_flops: u64 = ep.trace.iter().map(TraceRequest::flops).sum();
    let job_flops: u64 = r.jobs.iter().map(|j| j.flops).sum();
    out.check(
        job_flops == r.total_flops && r.total_flops == trace_flops,
        || {
            format!(
                "flops not conserved: jobs {job_flops}, total {}, trace {trace_flops}",
                r.total_flops
            )
        },
    );
    out.check(r.diagnostics.outstanding_clamps == 0, || {
        "router flop ledger clamped".into()
    });
    if kind == Kind::Burst {
        out.check(r.fault.failures == 2 && r.fault.recoveries == 1, || {
            format!(
                "expected 2 failures and 1 recovery, saw {} and {}",
                r.fault.failures, r.fault.recoveries
            )
        });
    }
}

/// Folds the episodes' fingerprints in order.
fn episodes_fingerprint(reports: &[ClusterReport]) -> u64 {
    reports
        .iter()
        .fold(0, |fp, r| fold_fingerprint(fp, episode_fingerprint(r)))
}

/// The simulated outcome pooled over the episodes, and the
/// deterministic counters the cross-run guard pins.
fn simulated(kind: Kind, reports: &[ClusterReport], out: &mut Outcome) {
    let flops: u64 = reports.iter().map(|r| r.total_flops).sum();
    let makespan_ns: f64 = reports.iter().map(|r| r.makespan.as_ns()).sum();
    out.set("sim_gflops", flops as f64 / makespan_ns);
    let mut latencies: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.jobs.iter().filter_map(|j| j.latency()))
        .map(SimDuration::as_fs)
        .collect();
    latencies.sort_unstable();
    if !latencies.is_empty() {
        let fs_to_us = |fs: u64| fs as f64 / (maco_sim::time::FS_PER_NS as f64 * 1e3);
        let p50 = crate::percentile(&latencies, 50.0);
        let tail = tail_percentile(&latencies);
        out.set("sim_latency_p50_us", fs_to_us(p50.value));
        out.set("sim_latency_tail_us", fs_to_us(tail.value));
        out.notes.push(format!(
            "sim latency from {} job records: p50 {:.3} us, tail = p{} ({} jobs beyond) {:.3} us",
            latencies.len(),
            fs_to_us(p50.value),
            tail.pct,
            tail.beyond,
            fs_to_us(tail.value),
        ));
    }
    let routed: u64 = reports
        .iter()
        .map(|r| r.jobs.len() as u64 - r.jobs_rejected)
        .sum();
    let attributed: u64 = reports
        .iter()
        .flat_map(|r| &r.jobs)
        .map(|j| j.interconnect_bytes)
        .sum();
    if kind == Kind::Burst {
        out.set(
            "sim_interconnect_bytes_per_job",
            attributed as f64 / routed.max(1) as f64,
        );
    }
    out.guard(
        "fingerprint",
        format!("{:016x}", episodes_fingerprint(reports)),
    );
    out.guard("sim.total_flops", flops);
    out.guard(
        "sim.jobs_completed",
        reports.iter().map(|r| r.jobs_completed).sum::<u64>(),
    );
    let mut stats = Stats::new();
    for r in reports {
        stats.merge(&r.fleet_stats());
    }
    for (name, v) in stats.counters() {
        out.guard(name, v);
    }
}

/// Untraced: episodes one after another, cycling through the workload's
/// episodes, until every episode has run and `seconds` are up. Rates are
/// medians over episode runs; simulated metrics come from each episode's
/// first run.
pub fn measure(kind: Kind, seed: u64, seconds: f64, reference: &mut Reference) -> Outcome {
    let mut out = Outcome::default();
    let (mut inputs, setup_s) = setup_median(|| setup(kind, seed));
    out.set("setup_s", setup_s);

    let start = Instant::now();
    let n = inputs.len();
    let mut first: Vec<Option<u64>> = vec![None; n];
    let mut reports = Vec::with_capacity(n);
    let (mut req_rates, mut gflop_rates) = (Vec::new(), Vec::new());
    let mut runs = 0;
    while runs < n || start.elapsed().as_secs_f64() < seconds {
        let i = runs % n;
        runs += 1;
        let (ep, cluster) = &mut inputs[i];
        let (report, s) = serve(cluster, ep);
        reference.tick();
        check(kind, ep, report.as_ref(), &mut out);
        // The next run of this episode starts from a fresh fleet (built
        // untimed).
        *cluster = ep.cluster();
        let Some(report) = report else { continue };
        req_rates.push(ep.trace.len() as f64 / s);
        gflop_rates.push(report.total_flops as f64 / s * 1e-9);
        let fp = episode_fingerprint(&report);
        match first[i] {
            None => {
                first[i] = Some(fp);
                reports.push(report);
            }
            Some(f) => out.check(fp == f, || {
                format!("a rerun of episode {i} differs from its first run")
            }),
        }
    }
    // Every run failing is already counted; there is no rate to report.
    if !req_rates.is_empty() {
        out.set("requests_per_s", median(&mut req_rates));
        out.set("host_gflop_per_s", median(&mut gflop_rates));
    }
    simulated(kind, &reports, &mut out);
    out.notes.push(format!(
        "{runs} runs of {n} episode(s); rates are medians over runs"
    ));
    out
}

/// Host time of each fleet-level entry point over the traced episodes.
#[derive(Default)]
struct FleetSpans {
    generate_s: f64,
    new_s: f64,
    run_trace_s: f64,
    to_json_s: f64,
    fleet_stats_s: f64,
}

/// Engine-level attribution of one fleet episode (see [`replay`]).
#[derive(Default)]
struct Replay {
    wall_s: f64,
    core_new_s: f64,
    advance_s: f64,
    advances: u64,
}

/// Replays each machine's routed jobs through its own `Engine` on a fresh
/// `MacoSystem`, exactly as the fleet drove it: the engine is advanced
/// while its next event precedes the next fleet arrival, bounded by that
/// arrival, and a job is pushed when its arrival is routed. Machines share
/// no simulated hardware, so each replay must reproduce the machine's
/// schedule fingerprint bit for bit. Valid only for episodes with no split
/// and no fault (the router's reductions and evictions are not replayed).
fn replay(ep: &Episode, report: &ClusterReport, out: &mut Outcome) -> Replay {
    let mut rep = Replay::default();
    let t0 = Instant::now();
    let mut order: Vec<usize> = (0..ep.trace.len()).collect();
    order.sort_by_key(|&i| ep.trace[i].arrival);
    let mut record_of = vec![None; order.len()];
    for rec in &report.jobs {
        record_of[rec.index] = Some(rec);
    }
    for (m, mspec) in ep.spec.machines.iter().enumerate() {
        let (mut sys, s) = timed(|| MacoSystem::new(mspec.system.clone()));
        rep.core_new_s += s;
        sys.reset_shared_resources();
        let mut engine = Engine::new(mspec.system.nodes, &ep.tenants, &mspec.serve);
        let mut advance = |engine: &mut Engine, sys: &mut MacoSystem, bound| {
            let (r, s) = timed(|| engine.advance(sys, bound));
            rep.advance_s += s;
            rep.advances += 1;
            r.is_ok()
        };
        let mut ok = true;
        for (pos, &ti) in order.iter().enumerate() {
            let at = ep.trace[ti].arrival;
            while ok && engine.next_event().is_some_and(|t| t < at) {
                ok = advance(&mut engine, &mut sys, Some(at));
            }
            if let Some(rec) = record_of[pos].filter(|r| r.machines == [m]) {
                let mut spec = JobSpec::from_request(&ep.trace[ti]);
                spec.arrival = rec.effective_arrival;
                engine.push(spec);
            }
        }
        while ok && engine.next_event().is_some() {
            ok = advance(&mut engine, &mut sys, None);
        }
        let fp = engine.finish(&sys).fingerprint;
        out.check(ok && fp == report.machines[m].serve.fingerprint, || {
            format!("engine replay of machine {m} does not reproduce its fleet schedule")
        });
    }
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep
}

/// Traced: the episodes once untraced, once with spans around every
/// fleet-level call, then (`fleet_micro`) the per-machine engine replay.
pub fn traced(kind: Kind, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = FleetSpans::default();
    let (episodes, generate_s) = timed(|| Episode::all(kind, seed));
    spans.generate_s = generate_s;

    // Untraced twin: the same episodes with no span inside them.
    let mut untraced_s = 0.0;
    let mut untraced = Vec::new();
    for ep in &episodes {
        let (report, s) = serve(&mut ep.cluster(), ep);
        untraced_s += s;
        check(kind, ep, report.as_ref(), &mut out);
        untraced.extend(report);
    }

    let t0 = Instant::now();
    let mut reports = Vec::new();
    for ep in &episodes {
        let (mut cluster, s) = timed(|| ep.cluster());
        spans.new_s += s;
        let (report, s) = timed(|| cluster.run_trace(&ep.trace));
        spans.run_trace_s += s;
        let Ok(report) = report else {
            out.fail(
                ep.trace.len() as u64,
                "traced run_trace returned an error".into(),
            );
            continue;
        };
        let (json, s) = timed(|| report.to_json());
        spans.to_json_s += s;
        black_box(json);
        let (stats, s) = timed(|| report.fleet_stats());
        spans.fleet_stats_s += s;
        black_box(stats);
        reports.push(report);
    }
    let traced_s = t0.elapsed().as_secs_f64();
    out.check(
        episodes_fingerprint(&reports) == episodes_fingerprint(&untraced),
        || "traced fleet episodes differ from the untraced ones".into(),
    );
    simulated(kind, &reports, &mut out);

    let sum = |f: fn(&ClusterReport) -> u64| reports.iter().map(f).sum::<u64>();
    out.counter(
        "cluster.jobs_routed",
        sum(|r| r.jobs.iter().filter(|j| !j.machines.is_empty()).count() as u64),
    );
    out.counter("cluster.migrations", sum(|r| r.migrations));
    out.counter("cluster.splits", sum(|r| r.splits));
    out.counter("cluster.replaced", sum(|r| r.fault.jobs_replaced));
    out.counter("cluster.interconnect_bytes", sum(|r| r.interconnect_bytes));
    let mut stats = Stats::new();
    for r in &reports {
        stats.merge(&r.fleet_stats());
    }
    machine_counters(&stats, &mut out);
    out.set("workloads.generate_ms", spans.generate_s * 1e3);
    out.set("cluster.new_ms", spans.new_s * 1e3);
    out.set("cluster.run_trace_ms", spans.run_trace_s * 1e3);
    out.set("report.to_json_ms", spans.to_json_s * 1e3);
    out.set("report.fleet_stats_ms", spans.fleet_stats_s * 1e3);
    let spanned = spans.new_s + spans.run_trace_s + spans.to_json_s + spans.fleet_stats_s;

    let replayable = reports
        .iter()
        .all(|r| r.splits == 0 && r.fault.failures == 0);
    if kind == Kind::Micro && replayable {
        let mut rep = Replay::default();
        for (ep, report) in episodes.iter().zip(&reports) {
            let r = replay(ep, report, &mut out);
            rep.wall_s += r.wall_s;
            rep.core_new_s += r.core_new_s;
            rep.advance_s += r.advance_s;
            rep.advances += r.advances;
        }
        let jobs = sum(|r| r.jobs_completed);
        let self_s = spans.run_trace_s - rep.advance_s;
        out.set("core.new_ms", rep.core_new_s * 1e3);
        out.counter("serve.advance_calls", rep.advances);
        out.set("serve.advance_ms", rep.advance_s * 1e3);
        out.set(
            "serve.ns_per_advance",
            rep.advance_s * 1e9 / rep.advances.max(1) as f64,
        );
        out.set(
            "serve.advances_per_job",
            rep.advances as f64 / jobs.max(1) as f64,
        );
        out.set("cluster.self_ms", self_s * 1e3);
        // The traced episode is the engine replay plus the router's own
        // time, with the reporting spans as measured.
        let traced_episode = rep.wall_s + self_s + spans.to_json_s + spans.fleet_stats_s;
        out.set("trace.overhead_ms", (traced_episode - untraced_s) * 1e3);
        out.set(
            "trace.unattributed_ms",
            (traced_s - spanned + rep.wall_s - rep.core_new_s - rep.advance_s) * 1e3,
        );
    } else {
        out.notes.push(
            "cluster.run_trace_ms is undivided: the episode splits jobs or injects faults, \
             which a per-machine engine replay cannot reproduce, so serve.* and \
             cluster.self_ms read 0"
                .into(),
        );
        // Fleet construction is set-up, outside the untraced twin's timing.
        out.set(
            "trace.overhead_ms",
            (traced_s - spans.new_s - untraced_s) * 1e3,
        );
        out.set("trace.unattributed_ms", (traced_s - spanned) * 1e3);
    }
    out
}
