//! `fig7_gemm`: the paper's Fig. 7 grid. Every node of a 1/2/4/8/16-node
//! system runs the same independent FP64 GEMM, for every Fig. 7 size, on a
//! fresh system with empty TLBs and caches. Core tile stepping and resource
//! pricing dominate; every node repeats one shape, so translation reuse is
//! high. Serving and the fleet are bypassed. The simulated timing does not
//! depend on matrix contents, so the seed changes nothing here.

use std::time::Instant;

use maco_core::system::{MacoSystem, NodeReport, SystemConfig};
use maco_isa::Precision;
use maco_mmae::StreamTranslation;
use maco_sim::{fold_fingerprint, SimTime, Stats};
use maco_workloads::gemm::{fig7_node_counts, fig7_sizes};

use crate::{setup_median, timed, Outcome, Reference};

/// The paper's reported Fig. 7 figures: ~90 % mean per-node efficiency and
/// ~10 points of efficiency lost from 1 to 16 nodes. They are the only
/// reference the repository holds; the model is not validated on hardware.
const PAPER_EFFICIENCY_PCT: f64 = 90.0;
const PAPER_SCALING_LOSS_PP: f64 = 10.0;

struct Point {
    size: u64,
    nodes: usize,
}

fn grid() -> Vec<Point> {
    let mut points = Vec::new();
    for size in fig7_sizes() {
        for nodes in fig7_node_counts() {
            points.push(Point { size, nodes });
        }
    }
    points
}

fn system(nodes: usize) -> MacoSystem {
    MacoSystem::new(SystemConfig {
        nodes,
        ..SystemConfig::default()
    })
}

/// Fresh systems for one pass over the grid: the workload's set-up, timed
/// on its own (each episode builds its system again, untimed).
fn setup(points: &[Point]) -> Vec<MacoSystem> {
    points.iter().map(|p| system(p.nodes)).collect()
}

/// What one grid point produced.
struct PointResult {
    efficiency: f64,
    flops: u64,
    fingerprint: u64,
    translation: StreamTranslation,
}

/// Folds a point's node reports the way `perf_baseline` does, and checks
/// that every node finished its whole GEMM.
fn point_result(p: &Point, nodes: &[NodeReport], out: &mut Outcome) -> PointResult {
    out.attempted += p.nodes as u64;
    let want = 2 * p.size * p.size * p.size;
    let done = nodes.iter().filter(|n| n.flops == want).count();
    out.check(done == p.nodes, || {
        format!(
            "{}^3 on {} nodes: {done} nodes retired {want} flops",
            p.size, p.nodes
        )
    });
    let makespan = nodes.iter().map(|n| n.elapsed).max().unwrap_or_default();
    let mut fp = fold_fingerprint(0, makespan.as_fs());
    let mut translation = StreamTranslation::default();
    for n in nodes {
        fp = fold_fingerprint(fp, n.elapsed.as_fs());
        fp = fold_fingerprint(fp, n.translation.pages);
        accumulate(&mut translation, &n.translation);
    }
    PointResult {
        efficiency: nodes.iter().map(NodeReport::efficiency).sum::<f64>() / nodes.len() as f64,
        flops: nodes.iter().map(|n| n.flops).sum(),
        fingerprint: fp,
        translation,
    }
}

/// Folds a whole grid pass into one fingerprint.
fn grid_fingerprint(results: &[PointResult]) -> u64 {
    results
        .iter()
        .fold(0, |fp, r| fold_fingerprint(fp, r.fingerprint))
}

/// The model's error against the paper's Fig. 7 figures, in points.
fn paper_gaps(points: &[Point], results: &[PointResult], out: &mut Outcome) {
    let mean_eff = 100.0 * results.iter().map(|r| r.efficiency).sum::<f64>() / results.len() as f64;
    let eff_at = |size: u64, nodes: usize| {
        points
            .iter()
            .zip(results)
            .find(|(p, _)| p.size == size && p.nodes == nodes)
            .map(|(_, r)| r.efficiency)
            .expect("grid holds every size at 1 and 16 nodes")
    };
    let sizes = fig7_sizes();
    let loss = 100.0
        * sizes
            .iter()
            .map(|&s| eff_at(s, 1) - eff_at(s, 16))
            .sum::<f64>()
        / sizes.len() as f64;
    out.set("sim_eff_gap_pp", (mean_eff - PAPER_EFFICIENCY_PCT).abs());
    out.set("sim_scaling_gap_pp", (loss - PAPER_SCALING_LOSS_PP).abs());
    out.notes.push(format!(
        "model: mean efficiency {mean_eff:.2}% (paper ~{PAPER_EFFICIENCY_PCT}%), 1->16-node \
         loss {loss:.2} pp (paper ~{PAPER_SCALING_LOSS_PP} pp); paper figures are the only \
         reference"
    ));
}

/// Untraced: whole passes over the grid through `run_parallel_gemm` while
/// another pass as long as the last one fits in `seconds` (at least one);
/// the rate is total simulated flops over the host time spent inside
/// `run_parallel_gemm`.
pub fn measure(seconds: f64, reference: &mut Reference) -> Outcome {
    let mut out = Outcome::default();
    let points = grid();
    let (_, setup_s) = setup_median(|| setup(&points));
    out.set("setup_s", setup_s);

    let start = Instant::now();
    let mut first: Option<Vec<PointResult>> = None;
    let (mut flops, mut host_s, mut passes) = (0u64, 0.0, 0);
    let mut pass_s = 0.0;
    while first.is_none() || start.elapsed().as_secs_f64() + pass_s <= seconds {
        let pass_start = Instant::now();
        let mut results = Vec::with_capacity(points.len());
        for p in &points {
            // A fresh system per episode, built outside the timed call.
            let mut sys = system(p.nodes);
            let (report, s) =
                timed(|| sys.run_parallel_gemm(p.size, p.size, p.size, Precision::Fp64));
            host_s += s;
            reference.tick();
            match report {
                Ok(r) => results.push(point_result(p, &r.nodes, &mut out)),
                Err(e) => out.fail(p.nodes as u64, format!("{}^3: {e:?}", p.size)),
            }
        }
        flops += results.iter().map(|r| r.flops).sum::<u64>();
        passes += 1;
        pass_s = pass_start.elapsed().as_secs_f64();
        match &first {
            None => first = Some(results),
            Some(f) => out.check(grid_fingerprint(f) == grid_fingerprint(&results), || {
                "a grid pass differs from the first pass".into()
            }),
        }
    }
    let first = first.expect("one pass ran");
    out.set("host_gflop_per_s", flops as f64 / host_s * 1e-9);
    if first.len() == points.len() {
        paper_gaps(&points, &first, &mut out);
    }
    guard_results(&first, &mut out);
    out.notes.push(format!(
        "{passes} passes over {} grid points, {:.2} s inside run_parallel_gemm",
        points.len(),
        host_s
    ));
    out
}

/// Adds the page-touch counters of `t` to `total`.
fn accumulate(total: &mut StreamTranslation, t: &StreamTranslation) {
    total.pages += t.pages;
    total.tlb_hits += t.tlb_hits;
    total.matlb_hits += t.matlb_hits;
    total.demand_walks += t.demand_walks;
}

/// The grid fingerprint and translation counters, as work counters.
fn guard_results(results: &[PointResult], out: &mut Outcome) {
    let mut t = StreamTranslation::default();
    for r in results {
        accumulate(&mut t, &r.translation);
    }
    out.guard("fingerprint", format!("{:016x}", grid_fingerprint(results)));
    out.counter("xlate.pages", t.pages);
    out.counter("xlate.tlb_hits", t.tlb_hits);
    out.counter("xlate.matlb_hits", t.matlb_hits);
    out.counter("xlate.demand_walks", t.demand_walks);
}

/// Host time of each core entry point over one traced grid pass.
#[derive(Default)]
struct CoreSpans {
    new_s: f64,
    map_s: f64,
    step_s: f64,
    steps: u64,
}

/// Drives one grid point down through the core's public stepping API:
/// every node begins its task at time zero and the benchmark steps the
/// task with the minimum `(now, node)` one tile step at a time, the order
/// `run_parallel_gemm` uses internally.
fn drive_down(
    p: &Point,
    spans: &mut CoreSpans,
    stats: &mut Stats,
    out: &mut Outcome,
) -> Option<PointResult> {
    let (mut sys, s) = timed(|| system(p.nodes));
    spans.new_s += s;
    sys.reset_shared_resources();
    let (params, s) = timed(|| sys.map_gemm(p.size, p.size, p.size, Precision::Fp64));
    spans.map_s += s;
    let params = match params {
        Ok(params) => params,
        Err(e) => {
            out.fail(p.nodes as u64, format!("map_gemm {}^3: {e:?}", p.size));
            return None;
        }
    };
    let mut tasks = Vec::with_capacity(p.nodes);
    for node in 0..p.nodes {
        match sys.begin_gemm(node, sys.node_asid(node), params, SimTime::ZERO) {
            Ok(task) => tasks.push(task),
            Err(e) => {
                out.fail(p.nodes as u64, format!("begin_gemm node {node}: {e}"));
                return None;
            }
        }
    }
    let mut reports: Vec<Option<NodeReport>> = vec![None; p.nodes];
    loop {
        let next = (0..p.nodes)
            .filter(|&i| reports[i].is_none())
            .min_by_key(|&i| (tasks[i].now(), i));
        let Some(i) = next else { break };
        let (step, s) = timed(|| sys.step_gemm(&mut tasks[i]));
        spans.step_s += s;
        spans.steps += 1;
        match step {
            Ok(done) => reports[i] = done,
            Err(e) => {
                out.fail(p.nodes as u64, format!("step_gemm {}^3: {e:?}", p.size));
                return None;
            }
        }
    }
    stats.merge(&sys.stats_snapshot());
    let nodes: Vec<NodeReport> = reports
        .into_iter()
        .map(|r| r.expect("stepped to completion"))
        .collect();
    Some(point_result(p, &nodes, out))
}

/// Traced: one untraced grid pass, then the step-by-step drive-down of the
/// same grid, which must reproduce the untraced fingerprint exactly.
pub fn traced() -> Outcome {
    let mut out = Outcome::default();
    let points = grid();
    let (untraced, untraced_s) = timed(|| {
        let mut results = Vec::with_capacity(points.len());
        for p in &points {
            match system(p.nodes).run_parallel_gemm(p.size, p.size, p.size, Precision::Fp64) {
                Ok(r) => results.push(point_result(p, &r.nodes, &mut out)),
                Err(e) => out.fail(p.nodes as u64, format!("{}^3: {e:?}", p.size)),
            }
        }
        results
    });
    let untraced_fp = grid_fingerprint(&untraced);

    let mut spans = CoreSpans::default();
    let mut stats = Stats::new();
    let (results, traced_s) = timed(|| {
        points
            .iter()
            .filter_map(|p| drive_down(p, &mut spans, &mut stats, &mut out))
            .collect::<Vec<_>>()
    });
    out.check(grid_fingerprint(&results) == untraced_fp, || {
        "step_gemm drive-down does not reproduce run_parallel_gemm's fingerprint".into()
    });
    guard_results(&results, &mut out);
    let pages: u64 = results.iter().map(|r| r.translation.pages).sum();
    out.set("core.new_ms", spans.new_s * 1e3);
    out.set("core.map_gemm_ms", spans.map_s * 1e3);
    out.counter("core.step_gemm_calls", spans.steps);
    out.set("core.step_gemm_ms", spans.step_s * 1e3);
    out.set(
        "core.ns_per_tile_step",
        spans.step_s * 1e9 / spans.steps.max(1) as f64,
    );
    out.set("core.ns_per_page", spans.step_s * 1e9 / pages.max(1) as f64);
    machine_counters(&stats, &mut out);
    out.set("trace.overhead_ms", (traced_s - untraced_s) * 1e3);
    out.set(
        "trace.unattributed_ms",
        (traced_s - spans.new_s - spans.map_s - spans.step_s) * 1e3,
    );
    out
}

/// The vm/noc/dram/ccm counters of a merged `stats_snapshot`.
///
/// `stats_snapshot` files the sTLB's *hit* count under `stlb.lookups`
/// (it reads `Mmu::stlb_stats`, which returns `(hits, misses)`), so lookups
/// are that counter plus the misses.
pub fn machine_counters(stats: &Stats, out: &mut Outcome) {
    let hits = stats.get("stlb.lookups");
    let misses = stats.get("stlb.misses");
    out.counter("vm.stlb_lookups", hits + misses);
    out.counter("vm.stlb_misses", misses);
    if hits + misses > 0 {
        out.set("vm.stlb_hit_rate", hits as f64 / (hits + misses) as f64);
    }
    out.counter("noc.hop_flits", stats.get("noc.hop_flits"));
    out.counter("noc.bytes", stats.get("noc.bytes"));
    out.counter("dram.bytes", stats.get("dram.bytes"));
    out.counter("ccm.bytes", stats.get("ccm.bytes"));
    out.counter("ccm.busy_ns", stats.get("ccm.busy_ns"));
}
