//! The fleet: a front-end router over many machines, composed onto one
//! global virtual-time timeline.
//!
//! Every machine runs the *same* co-simulation a standalone
//! [`maco_serve::Server`] runs — a [`maco_serve::Engine`] driving that
//! machine's [`MacoSystem`] through the reentrant
//! `begin_gemm`/`step_gemm` core API — and the cluster merges the
//! machines' event streams with its own. The global loop merges exactly
//! two sources:
//!
//! * the **router queue**, one [`maco_sim::EventQueue`] holding the fault
//!   schedule, the next unrouted fleet arrival (only the next one: the
//!   rest of the sorted stream waits outside the queue) and pending
//!   re-placements, ordered by the queue's `(time, class, seq)` law with
//!   class fault (0) < arrival (1) < re-placement (2) and FIFO within a
//!   class;
//! * the **machine cursors**, a lazy-deletion min-heap of `(time,
//!   machine)` re-keyed only for machines whose event stream actually
//!   changed (the one just advanced, the ones just routed to); a popped
//!   cursor is valid iff it still equals its machine's
//!   [`Engine::next_event`], so stale entries cost one O(log n) discard
//!   instead of a per-step fleet scan.
//!
//! The router queue wins a tie with a machine cursor, so fault and
//! routing state are current before any same-instant machine step.
//! Machines share no simulated hardware, so advancing one machine never perturbs
//! another; all cross-machine coupling flows through the interconnect
//! cost model (migration transfers delay arrivals, k-split all-reduces
//! delay completions) and through the router's load accounting, both of
//! which are pure functions of previously processed events. That is what
//! makes the fleet fingerprint byte-identical across same-seed runs.
//!
//! Multi-machine engines admit work at the *router's horizon*, the router
//! queue's next event time: a completion whose simulated time leaps past
//! it stops its queued-arrival drain there (see [`Engine::advance`]'s
//! `bound`), so machine-local admission order always equals `(arrival,
//! push order)`;
//! arrivals beyond the horizon are admitted later at their own event
//! times, with the time-aware node pool keeping freed nodes invisible
//! before their free instants. A one-machine fault-free cluster skips the
//! horizon entirely — with no placement freedom the router routes eagerly
//! — and is therefore bit-identical to a standalone
//! [`maco_serve::Server`] (tested, including under timestamp tie storms).
//!
//! # Failure model
//!
//! A [`crate::spec::FaultSpec`] schedules deterministic fail-stops,
//! recoveries and interconnect degradation windows as first-class events
//! on the global timeline, processed *before* same-instant arrivals. A
//! fail-stop evicts the machine's in-flight and queued jobs (an
//! [`maco_serve::EvictedJob`] carries the un-served remainder: a DNN
//! stream restarts from its last completed layer, a split part from its
//! layer start), retires the engine incarnation, and re-places each
//! remainder on a surviving machine after charging the state transfer
//! (migration context + remaining weight bytes) through the
//! interconnect. Completions the event core already committed stand even
//! when timestamped past the fail instant — the core processes a gang's
//! completion batch atomically, exactly as it leaps past routing
//! horizons. The fail-stop contract is that **no admitted job is ever
//! lost**: [`crate::report::FaultReport::jobs_lost`] is always 0, and
//! the fault layer folds every event into its own fingerprint (separate
//! from the schedule fingerprint, which stays bit-identical for
//! fault-free runs). An optional [`AutoscalerSpec`] grows/shrinks the
//! *active* placement set against sliding arrival-rate and deadline-miss
//! windows; draining a machine only stops new placements — queued work
//! finishes where it is.
//!
//! Placement has one path: every policy picks among the *eligible*
//! machines (alive and active). On a healthy fleet every machine is
//! eligible and the restricted policy is the unrestricted one, so there is
//! no separate full-fleet fast path.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use maco_core::system::MacoSystem;
use maco_noc::sfc::hilbert_order;
use maco_noc::topology::MeshShape;
use maco_serve::{validate_spec, Engine, JobOutcome, JobSpec, ServeReport, Tenant};
use maco_sim::{EventQueue, FxHashMap, LatencyBandwidthResource, SimDuration, SimTime};
use maco_telemetry::{Log2Histogram, TraceSink, ROUTER_TRACK, SCHED_ROW};
use maco_workloads::trace::TraceRequest;

use crate::report::{
    fold_fingerprint, merge_serve_reports, ClusterDiagnostics, ClusterReport, FaultReport,
    JobRecord, MachineReport, ScaleEvent,
};
use crate::spec::{AutoscalerSpec, ClusterSpec, DegradationWindow, Placement};
use crate::split::split_job;

/// Errors a fleet episode can surface (the per-machine co-simulation's).
pub type ClusterError = maco_serve::ServeError;

/// The fleet: a [`ClusterSpec`] instantiated into real machines plus the
/// fleet-wide tenant registry (every tenant is registered on every
/// machine; placement decides where its jobs actually run).
pub struct Cluster {
    spec: ClusterSpec,
    tenants: Vec<Tenant>,
    systems: Vec<MacoSystem>,
    sink: TraceSink,
}

impl Cluster {
    /// Instantiates the fleet.
    ///
    /// # Panics
    ///
    /// Panics on an empty machine list or tenant fleet (and propagates the
    /// machine configurations' own validation).
    pub fn new(spec: ClusterSpec, tenants: Vec<Tenant>) -> Self {
        assert!(!spec.machines.is_empty(), "need at least one machine");
        assert!(!tenants.is_empty(), "need at least one tenant");
        let systems = spec
            .machines
            .iter()
            .map(|m| MacoSystem::new(m.system.clone()))
            .collect();
        Cluster {
            spec,
            tenants,
            systems,
            sink: TraceSink::off(),
        }
    }

    /// Attaches a telemetry sink recording fleet events (routing,
    /// migrations, faults, evictions, re-placements, autoscaling) and
    /// every machine engine's job-lifecycle events onto one shared,
    /// globally-ordered record stream. [`TraceSink::off`] (the default)
    /// records nothing; tracing never perturbs simulated outcomes — the
    /// schedule and fault fingerprints are bit-identical either way.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// The `(track id, display name)` pairs for Chrome-trace export
    /// ([`maco_telemetry::Trace::to_chrome_json`]): one track per machine
    /// (by fleet index, named from the spec) plus the router track.
    pub fn track_labels(&self) -> Vec<(u32, String)> {
        let mut tracks: Vec<(u32, String)> = self
            .spec
            .machines
            .iter()
            .enumerate()
            .map(|(i, m)| (i as u32, m.name.clone()))
            .collect();
        tracks.push((ROUTER_TRACK, "router".to_string()));
        tracks
    }

    /// The fleet declaration.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The fleet-wide tenant registry.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.systems.len()
    }

    /// Total compute nodes across the fleet.
    pub fn total_nodes(&self) -> usize {
        self.spec.total_nodes()
    }

    /// Serves a generated trace (see [`maco_workloads::trace`]) across the
    /// fleet: converts each request into a job and runs the episode to
    /// completion.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterError`]s from the per-machine co-simulations.
    pub fn run_trace(&mut self, trace: &[TraceRequest]) -> Result<ClusterReport, ClusterError> {
        self.run_jobs(trace.iter().map(JobSpec::from_request).collect())
    }

    /// Runs one fleet episode over `specs` (arrival-sorted internally)
    /// until every routed job has completed on its machine(s), every
    /// pending reduction has drained, every scheduled fault event has
    /// been processed and every evicted remainder has been re-placed and
    /// finished.
    ///
    /// Each machine's [`maco_serve::ServeConfig::queue_capacity`] must
    /// accommodate its routed backlog: a machine-level admission overflow
    /// would desynchronise the fleet's job accounting, so capacities are
    /// validated *before* the episode starts, and an undersized machine is a
    /// clear, early panic naming the machine — never a mid-episode
    /// accounting desync. (Re-placement cannot exceed the bound: a job
    /// occupies one machine's queue at a time.)
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterError`]s from the per-machine co-simulations.
    ///
    /// # Panics
    ///
    /// Panics when a machine's queue capacity cannot hold the worst-case
    /// routed backlog (naming the offending machine), when the
    /// [`crate::spec::FaultSpec`] or [`AutoscalerSpec`] is invalid for
    /// this fleet, or when every machine is dead with no scheduled
    /// recovery while work is still pending.
    pub fn run_jobs(&mut self, mut specs: Vec<JobSpec>) -> Result<ClusterReport, ClusterError> {
        specs.sort_by_key(|s| s.arrival);
        self.validate_capacity(&specs);
        self.spec.faults.validate(self.spec.machines.len());
        if let Some(a) = self.spec.autoscaler {
            a.validate(self.spec.machines.len());
        }
        let machines = self.systems.len();
        for sys in &mut self.systems {
            sys.reset_shared_resources();
        }
        let mut engines: Vec<Engine> = self
            .spec
            .machines
            .iter()
            .map(|m| Engine::new(m.system.nodes, &self.tenants, &m.serve))
            .collect();
        for (i, engine) in engines.iter_mut().enumerate() {
            engine.set_trace(self.sink.clone(), i as u32);
        }
        let mut ep = FleetEpisode::new(&self.spec, self.tenants.len());
        ep.sink = self.sink.clone();

        // A fault-free fleet of one has no routing freedom: every job
        // lands on machine 0, nothing migrates, nothing splits, nothing
        // is ever evicted. Routing eagerly is therefore
        // decision-identical to lazy routing — and it lets the engine run
        // with no external horizon, which makes the one-machine cluster
        // reproduce the standalone `Server` schedule bit for bit (the
        // contract the equivalence tests pin) even at the contention
        // corners where a bounded arrival drain would reorder scheduling
        // attempts.
        let mut arrivals = specs.into_iter().enumerate();
        if machines == 1 && self.spec.faults.is_empty() && self.spec.autoscaler.is_none() {
            for (index, spec) in arrivals.by_ref() {
                ep.route(&self.spec, &self.tenants, &mut engines, spec, index);
            }
        }
        // The router queue holds only the *next* fleet arrival: the rest
        // of the stream stays in the sorted spec list, so the queue stays
        // small however long the trace.
        if let Some((index, spec)) = arrivals.next() {
            ep.schedule(spec.arrival, RouterEvent::Arrival(index, spec));
        }

        // The global event merge of two sources: the router queue (fault
        // events, the next fleet arrival, re-placements, ordered by the
        // queue's `(time, class, seq)` law) and the machine cursors. The
        // router wins ties, so router state is current before any
        // same-instant machine step.
        loop {
            let machine = loop {
                match ep.cursors.peek() {
                    None => break None,
                    Some(&Reverse(cur @ (t, m))) => {
                        if engines[m].next_event() == Some(t) {
                            break Some(cur);
                        }
                        ep.cursors.pop();
                    }
                }
            };
            let router = ep.events.peek_time();
            if router.is_some_and(|t| machine.is_none_or(|(mt, _)| t <= mt)) {
                let (key, event) = ep.events.pop().expect("peeked above");
                let at = key.time;
                match event {
                    RouterEvent::Fail(i) => ep.fail(
                        &self.spec,
                        &self.tenants,
                        &mut engines,
                        &mut self.systems,
                        i,
                        at,
                    ),
                    RouterEvent::Recover(i) => ep.recover(i, at),
                    RouterEvent::DegradeStart(d) => ep.degrade(d, true, at),
                    RouterEvent::DegradeEnd(d) => ep.degrade(d, false, at),
                    RouterEvent::Arrival(index, spec) => {
                        if let Some((next, next_spec)) = arrivals.next() {
                            ep.schedule(next_spec.arrival, RouterEvent::Arrival(next, next_spec));
                        }
                        ep.route(&self.spec, &self.tenants, &mut engines, spec, index);
                    }
                    RouterEvent::Replace(r) => ep.replace(&self.spec, &mut engines, at, r),
                }
            } else if let Some((_, i)) = machine {
                ep.cursors.pop();
                if let Some(outcome) = engines[i].advance(&mut self.systems[i], router)? {
                    ep.complete(i, outcome);
                }
                ep.rekey(&engines[i], i);
            } else {
                break;
            }
        }
        debug_assert!(ep.reductions.is_empty(), "unfinished reductions");

        let mut retired = std::mem::take(&mut ep.retired);
        let machine_reports: Vec<MachineReport> = engines
            .into_iter()
            .enumerate()
            .zip(&self.systems)
            .zip(&self.spec.machines)
            .map(|(((i, engine), system), mspec)| {
                let mut incs = std::mem::take(&mut retired[i]);
                incs.push(engine.finish(system));
                MachineReport {
                    name: mspec.name.clone(),
                    nodes: mspec.system.nodes,
                    incarnations: incs.len() as u32,
                    serve: merge_serve_reports(incs),
                }
            })
            .collect();
        let mut fp = ep.fingerprint;
        let mut makespan = ep.last_finish;
        for m in &machine_reports {
            fp = fold_fingerprint(fp, m.serve.fingerprint);
            makespan = makespan.max(SimTime::ZERO + m.serve.makespan);
        }
        fp = fold_fingerprint(fp, makespan.as_fs());

        // Availability: alive machine-time over makespan × fleet size,
        // open downtime intervals (no recovery) clipped at the makespan.
        let span = makespan.since(SimTime::ZERO);
        let mut down_total: u128 = 0;
        for md in &ep.downs {
            for &(start, end) in md {
                let e = end.map_or(makespan, |t| t.max(SimTime::ZERO).min(makespan));
                let s = start.min(makespan);
                down_total += u128::from(e.saturating_since(s).as_fs());
            }
        }
        let availability = if span.is_zero() {
            1.0
        } else {
            let capacity = u128::from(span.as_fs()) * machines as u128;
            (1.0 - down_total as f64 / capacity as f64).clamp(0.0, 1.0)
        };
        let (rl_max, rl_mean) = if ep.recovery_latencies.is_empty() {
            (SimDuration::ZERO, SimDuration::ZERO)
        } else {
            let max = ep
                .recovery_latencies
                .iter()
                .copied()
                .fold(SimDuration::ZERO, SimDuration::max);
            let sum: u64 = ep.recovery_latencies.iter().map(|d| d.as_fs()).sum();
            (
                max,
                SimDuration::from_fs(sum / ep.recovery_latencies.len() as u64),
            )
        };
        let jobs_lost = ep.records.len() as u64 - ep.jobs_completed - ep.jobs_rejected;
        let mut latency_hist = Log2Histogram::new();
        for rec in &ep.records {
            if let Some(lat) = rec.latency() {
                latency_hist.record(lat.as_fs() / maco_sim::time::FS_PER_NS);
            }
        }
        let fault = FaultReport {
            failures: ep.failures,
            recoveries: ep.recoveries,
            jobs_replaced: ep.jobs_replaced,
            replaced_bytes: ep.replaced_bytes,
            jobs_lost,
            availability,
            recovery_latency_max: rl_max,
            recovery_latency_mean: rl_mean,
            goodput_flops: ep.goodput_flops,
            deadline_misses: ep.deadline_misses,
            scale_events: ep.scale_events,
            peak_active: ep.peak_active,
            fingerprint: ep.fault_fp,
        };
        // The byte-metric fingerprint: every job's attributed bytes in
        // record order, then every machine's total — pinned by the
        // `placement_sfc` perf scenario.
        let mut icn_fp = 0u64;
        for rec in &ep.records {
            icn_fp = fold_fingerprint(icn_fp, rec.interconnect_bytes);
        }
        for &b in &ep.machine_bytes {
            icn_fp = fold_fingerprint(icn_fp, b);
        }
        Ok(ClusterReport {
            jobs: ep.records,
            jobs_completed: ep.jobs_completed,
            jobs_rejected: ep.jobs_rejected,
            makespan: span,
            total_flops: machine_reports.iter().map(|m| m.serve.total_flops).sum(),
            interconnect_bytes: ep.icn.bandwidth().bytes_transferred(),
            interconnect_busy: ep.icn.bandwidth().busy_time(),
            machine_interconnect_bytes: ep.machine_bytes,
            interconnect_fingerprint: icn_fp,
            migrations: ep.migrations,
            splits: ep.splits,
            machines: machine_reports,
            fault,
            diagnostics: ep.diagnostics,
            latency_hist,
            fingerprint: fp,
        })
    }

    /// Pre-flight admission-capacity check: every machine must be able to
    /// hold the worst-case routed backlog, i.e. every admissible job in
    /// the episode (placement is load-dependent, so LeastLoaded and
    /// spilling TenantAffinity can in principle send *all* jobs to one
    /// machine; a split contributes at most one part per machine per
    /// job, and a re-placed remainder occupies only one machine at a
    /// time). An undersized queue would otherwise surface as a
    /// machine-level admission rejection deep inside the episode, where
    /// it desynchronises the slot accounting — here it is an early,
    /// attributable error instead.
    ///
    /// # Panics
    ///
    /// Panics naming the first offending machine.
    fn validate_capacity(&self, specs: &[JobSpec]) {
        let admissible = specs
            .iter()
            .filter(|s| validate_spec(self.tenants.len(), s).is_ok())
            .count();
        for (i, m) in self.spec.machines.iter().enumerate() {
            assert!(
                m.serve.queue_capacity >= admissible,
                "machine {i} ({}) queue_capacity {} cannot hold the episode's worst-case \
                 routed backlog of {admissible} jobs; raise ServeConfig::queue_capacity on \
                 that machine or shard the trace",
                m.name,
                m.serve.queue_capacity,
            );
        }
    }
}

/// An unfinished data-parallel reduction barrier.
struct Reduction {
    parts_left: usize,
    /// Latest part completion so far.
    end: SimTime,
    /// All-reduce bytes charged when the barrier clears (zero = m-split).
    reduce_bytes: u64,
}

/// One event in the router queue. Its queue class ranks simultaneous
/// events: fault events (0) before the next fleet arrival (1) before
/// re-placements (2), so a fail-stop at an arrival's instant is seen by
/// its routing, and a recovery at the instant a deferred re-placement
/// wakes is processed first (the deferral's termination argument).
enum RouterEvent {
    /// Machine fail-stop.
    Fail(usize),
    /// Machine recovery (fresh, cold incarnation rejoins the fleet).
    Recover(usize),
    /// Degradation window (by index into the spec) opens.
    DegradeStart(usize),
    /// Degradation window (by index into the spec) closes.
    DegradeEnd(usize),
    /// The next fleet arrival: its position in the sorted stream and spec.
    Arrival(usize, JobSpec),
    /// A pending re-placement.
    Replace(ReRoute),
}

impl RouterEvent {
    fn class(&self) -> u8 {
        match self {
            RouterEvent::Fail(_)
            | RouterEvent::Recover(_)
            | RouterEvent::DegradeStart(_)
            | RouterEvent::DegradeEnd(_) => 0,
            RouterEvent::Arrival(..) => 1,
            RouterEvent::Replace(_) => 2,
        }
    }
}

/// A pending re-placement: an evicted remainder (or a deferred arrival
/// that found no eligible machine) waiting in the router queue for its
/// effective re-arrival instant.
struct ReRoute {
    rec: usize,
    spec: JobSpec,
    /// `(source machine, wire bytes)` of the eviction state transfer
    /// that produced this re-route — attributed (link-weighted) once the
    /// destination is known in `replace()`. `None` for deferred
    /// arrivals, which moved no state.
    xfer: Option<(usize, u64)>,
}

/// Per-machine mapping from the engine's admission-ordered job ids back
/// to fleet record indices.
///
/// Routed jobs enter the `pending` queue keyed `(effective arrival,
/// route order)` — exactly the order the machine engine admits them in
/// (its push contract guarantees no pushed arrival predates an admitted
/// one, so queue order *is* admission order). Ranks are materialised
/// lazily: when job `i` completes, the queue is drained up to slot `i`.
/// Every job with id ≤ `i` was already routed by then, and any later
/// route keys strictly after the drained prefix, so the prefix is final —
/// each slot costs one O(log n) pop.
#[derive(Default)]
struct SlotMap {
    /// Routed-but-not-ranked record indices, by `(effective arrival,
    /// route order)`.
    pending: EventQueue<usize>,
    /// Slot `i` = the machine engine's job `i`: `(effective arrival,
    /// record index)`.
    assigned: Vec<(SimTime, usize)>,
}

impl SlotMap {
    /// The `(effective arrival, record)` of machine-local job `id`,
    /// materialising ranks up to `id` on demand.
    ///
    /// # Panics
    ///
    /// Panics if the engine reports a job that was never routed.
    fn resolve(&mut self, id: usize) -> (SimTime, usize) {
        while self.assigned.len() <= id {
            let (key, rec) = self
                .pending
                .pop()
                .expect("engine completed a job that was never routed");
            self.assigned.push((key.time, rec));
        }
        self.assigned[id]
    }
}

/// Ranks `machines` fleet positions along a generalized Hilbert curve
/// over the near-square grid `cols × rows` with `cols = ⌈√machines⌉`
/// (machine `m` at grid cell `(m % cols, m / cols)` — rack/row order).
/// Returns `(rank, order, cols)`: `rank[m]` is machine `m`'s curve
/// position, `order[r]` the machine at curve position `r`, and `cols`
/// the grid width (the byte metrics count link crossings on this same
/// grid). Cells past the last machine are skipped, so rank and order
/// are permutations of `0..machines`.
fn fleet_curve(machines: usize) -> (Vec<usize>, Vec<usize>, usize) {
    let mut cols: usize = 1;
    while cols * cols < machines {
        cols += 1;
    }
    let rows = machines.div_ceil(cols.max(1)).max(1);
    let (Ok(c), Ok(r)) = (u8::try_from(cols), u8::try_from(rows)) else {
        // Fleets beyond a 255-wide grid keep identity order.
        let id: Vec<usize> = (0..machines).collect();
        return (id.clone(), id, cols);
    };
    let mut rank = vec![0usize; machines];
    let mut order = Vec::with_capacity(machines);
    for cell in hilbert_order(MeshShape::new(c, r)) {
        let m = usize::from(cell.y) * cols + usize::from(cell.x);
        if m < machines {
            rank[m] = order.len();
            order.push(m);
        }
    }
    (rank, order, cols)
}

/// Mutable router state of one fleet episode.
struct FleetEpisode {
    icn: LatencyBandwidthResource,
    /// Per machine: routed-minus-completed GEMM flops.
    outstanding: Vec<u64>,
    /// Per tenant: the machine its latest job ran on.
    tenant_home: Vec<Option<usize>>,
    /// Round-robin cursor.
    rr: usize,
    /// Per machine: the admission-slot → fleet-record mapping (reset on
    /// fail-stop together with the engine incarnation).
    slots: Vec<SlotMap>,
    /// Lazy-deletion min-heap of machine cursors `(next event, machine)`
    /// driving the global merge; see [`FleetEpisode::rekey`].
    cursors: BinaryHeap<Reverse<(SimTime, usize)>>,
    records: Vec<JobRecord>,
    /// Per record: the job's relative deadline (parallel to `records`),
    /// for fleet-level SLO/goodput accounting.
    deadlines: Vec<Option<SimDuration>>,
    /// Record index → pending reduction barrier, for split jobs.
    reductions: FxHashMap<usize, Reduction>,
    jobs_completed: u64,
    jobs_rejected: u64,
    migrations: u64,
    splits: u64,
    /// Per machine: attributed interconnect traffic in byte·link
    /// crossings over the fleet grid, charged to the transfer's hub —
    /// the old home for a migration, the scatter / all-reduce anchor,
    /// the failed machine for an eviction. Sums to the per-job totals
    /// in `records`.
    machine_bytes: Vec<u64>,
    /// Per machine: its rank along the fleet space-filling curve (a
    /// generalized Hilbert walk of the near-square machine grid). Pure
    /// precomputed data, consulted only by [`Placement::SfcLocality`].
    sfc_rank: Vec<usize>,
    /// Curve position → machine (inverse permutation of `sfc_rank`).
    sfc_order: Vec<usize>,
    /// Width of the near-square machine grid behind `sfc_rank` — also
    /// the topology the byte metrics count link crossings on.
    grid_cols: usize,
    last_finish: SimTime,
    fingerprint: u64,

    /// The router queue: unprocessed fault events, the next fleet
    /// arrival and pending re-placements (see [`RouterEvent`]).
    events: EventQueue<RouterEvent>,

    // ---- failure / elasticity state ----
    /// The spec's degradation windows (by index).
    degradations: Vec<DegradationWindow>,
    /// Which degradation windows are currently open.
    win_active: Vec<bool>,
    /// Product of open windows' latency multipliers (1 = pristine).
    lat_mult: u64,
    /// Product of open windows' bandwidth divisors (1 = pristine).
    bw_div: u64,
    /// Per machine: not currently failed.
    alive: Vec<bool>,
    /// Per machine: in the autoscaler's active placement set (all true
    /// without an autoscaler).
    active: Vec<bool>,
    /// Per machine: serve reports of retired (failed) incarnations.
    retired: Vec<Vec<ServeReport>>,
    /// Per machine: downtime intervals `(failed_at, recovered_at)`;
    /// `None` end = still down at episode end (clipped to makespan).
    downs: Vec<Vec<(SimTime, Option<SimTime>)>>,
    failures: u64,
    recoveries: u64,
    jobs_replaced: u64,
    replaced_bytes: u64,
    /// Per processed fail-stop: fail instant → last evicted remainder's
    /// effective re-arrival (zero when nothing was evicted).
    recovery_latencies: Vec<SimDuration>,
    goodput_flops: u64,
    deadline_misses: u64,
    scaler: Option<AutoscalerSpec>,
    /// Sliding window of routed-arrival instants (autoscaler only).
    win_arrivals: VecDeque<SimTime>,
    /// Sliding window of fleet-level deadline-miss instants.
    win_misses: VecDeque<SimTime>,
    /// Last autoscaler action (cooldown gate; capacity replacement after
    /// a failure bypasses it).
    last_scale: Option<SimTime>,
    scale_events: Vec<ScaleEvent>,
    peak_active: usize,
    diagnostics: ClusterDiagnostics,
    /// The failure layer's own order-sensitive event fold.
    fault_fp: u64,
    /// Telemetry sink for router/fleet events (off by default; overwritten
    /// with the cluster's sink at episode start). Purely observational —
    /// never consulted for any routing or fault decision.
    sink: TraceSink,
}

impl FleetEpisode {
    /// Fresh episode state for one `run_jobs` call: schedules the fault
    /// spec into the router queue (spec order breaks equal times) and
    /// initialises the autoscaler's active set (`min_machines` actives;
    /// the rest standby).
    fn new(spec: &ClusterSpec, tenants: usize) -> Self {
        let machines = spec.machines.len();
        let (sfc_rank, sfc_order, grid_cols) = fleet_curve(machines);
        let scaler = spec.autoscaler;
        let active: Vec<bool> = (0..machines)
            .map(|m| scaler.is_none_or(|a| m < a.min_machines))
            .collect();
        let active_n = active.iter().filter(|&&a| a).count();
        let mut ep = FleetEpisode {
            icn: LatencyBandwidthResource::new(spec.interconnect.latency, spec.interconnect.gbps),
            outstanding: vec![0; machines],
            tenant_home: vec![None; tenants],
            rr: 0,
            slots: (0..machines).map(|_| SlotMap::default()).collect(),
            cursors: BinaryHeap::new(),
            records: Vec::new(),
            deadlines: Vec::new(),
            reductions: FxHashMap::default(),
            jobs_completed: 0,
            jobs_rejected: 0,
            migrations: 0,
            splits: 0,
            machine_bytes: vec![0; machines],
            sfc_rank,
            sfc_order,
            grid_cols,
            last_finish: SimTime::ZERO,
            fingerprint: 0,
            events: EventQueue::new(),
            degradations: spec.faults.degradations.clone(),
            win_active: vec![false; spec.faults.degradations.len()],
            lat_mult: 1,
            bw_div: 1,
            alive: vec![true; machines],
            active,
            retired: vec![Vec::new(); machines],
            downs: vec![Vec::new(); machines],
            failures: 0,
            recoveries: 0,
            jobs_replaced: 0,
            replaced_bytes: 0,
            recovery_latencies: Vec::new(),
            goodput_flops: 0,
            deadline_misses: 0,
            scaler,
            win_arrivals: VecDeque::new(),
            win_misses: VecDeque::new(),
            last_scale: None,
            scale_events: Vec::new(),
            peak_active: active_n,
            diagnostics: ClusterDiagnostics::default(),
            fault_fp: 0,
            sink: TraceSink::off(),
        };
        for f in &spec.faults.machine_faults {
            ep.schedule(f.at, RouterEvent::Fail(f.machine));
            if let Some(r) = f.recover_at {
                ep.schedule(r, RouterEvent::Recover(f.machine));
            }
        }
        for (d, w) in spec.faults.degradations.iter().enumerate() {
            ep.schedule(w.from, RouterEvent::DegradeStart(d));
            ep.schedule(w.until, RouterEvent::DegradeEnd(d));
        }
        ep
    }

    /// A machine can receive new placements iff it is alive and in the
    /// active set.
    fn eligible(&self, m: usize) -> bool {
        self.alive[m] && self.active[m]
    }

    fn eligible_count(&self) -> usize {
        (0..self.alive.len()).filter(|&m| self.eligible(m)).count()
    }

    /// Queues a router event under its class.
    fn schedule(&mut self, at: SimTime, event: RouterEvent) {
        self.events.schedule(at, event.class(), event);
    }

    /// Earliest still-scheduled recovery — the wake instant for work that
    /// finds every machine dead.
    fn next_recovery(&self) -> Option<SimTime> {
        self.events
            .iter()
            .filter(|(_, e)| matches!(e, RouterEvent::Recover(_)))
            .map(|(k, _)| k.time)
            .min()
    }

    /// Appends a record and its (parallel) deadline entry.
    fn push_record(&mut self, record: JobRecord, deadline: Option<SimDuration>) {
        self.records.push(record);
        self.deadlines.push(deadline);
    }

    /// One interconnect transfer under the current degradation state:
    /// pristine fabric takes the exact pre-fault path; open windows
    /// stretch serialisation by the bandwidth divisor and add the extra
    /// latency multiples on top of the pipelined base latency.
    fn icn_access(&mut self, at: SimTime, bytes: u64) -> SimTime {
        if self.lat_mult == 1 && self.bw_div == 1 {
            self.icn.access(at, bytes)
        } else {
            let service = self.icn.service_time(bytes) * self.bw_div;
            self.icn.access_train(at, service, bytes) + self.icn.latency() * (self.lat_mult - 1)
        }
    }

    /// Fleet links a transfer between machines `a` and `b` crosses: the
    /// Manhattan distance on the near-square machine grid (`grid_cols`
    /// wide, machine `m` at `(m % cols, m / cols)`) — the same grid the
    /// SFC walks. The byte *metrics* weight every transfer by this
    /// factor; the shared-bus *timing* model ([`FleetEpisode::icn_access`])
    /// stays distance-free, so attribution never moves an event.
    fn fleet_hops(&self, a: usize, b: usize) -> u64 {
        let c = self.grid_cols;
        ((a % c).abs_diff(b % c) + (a / c).abs_diff(b / c)) as u64
    }

    /// Attributes `link_bytes` byte·link-crossings to job record `rec`
    /// and its hub machine. Pure bookkeeping: no event moves, so every
    /// pre-existing fingerprint is unchanged.
    fn attribute(&mut self, rec: usize, hub: usize, link_bytes: u64) {
        self.records[rec].interconnect_bytes += link_bytes;
        self.machine_bytes[hub] += link_bytes;
    }

    /// Link-crossing bytes of a `total`-byte fan (split scatter or
    /// all-reduce) between `machines[0]` — the hub — and the remotes:
    /// the payload is an even per-remote share (remainder spread over
    /// the first remotes), each share weighted by the links between the
    /// hub and that remote. Compact fan-outs therefore cross fewer
    /// links for the same wire bytes.
    fn fan_link_bytes(&self, total: u64, machines: &[usize]) -> u64 {
        let Some((&hub, remotes)) = machines.split_first() else {
            return 0;
        };
        if remotes.is_empty() {
            return 0;
        }
        let n = remotes.len() as u64;
        let (base, rem) = (total / n, total % n);
        remotes
            .iter()
            .enumerate()
            .map(|(j, &m)| (base + u64::from((j as u64) < rem)) * self.fleet_hops(hub, m))
            .sum()
    }

    /// Distance between two machines along the fleet curve (consulted by
    /// [`Placement::SfcLocality`] only).
    fn curve_dist(&self, a: usize, b: usize) -> usize {
        self.sfc_rank[a].abs_diff(self.sfc_rank[b])
    }

    /// The SFC policy's home machine for `tenant`: its current home if
    /// that machine can still take work — the home *follows* the weights,
    /// so a spilled tenant is not dragged back just to migrate out again —
    /// else the tenant's static curve slot.
    fn sfc_home(&self, tenant: usize, machines: usize) -> usize {
        match self.tenant_home[tenant] {
            Some(h) if self.eligible(h) => h,
            _ => self.sfc_order[tenant % machines],
        }
    }

    /// Opens/closes degradation window `d` and recomputes the combined
    /// multipliers (products over open windows, saturating).
    fn degrade(&mut self, d: usize, start: bool, at: SimTime) {
        let code: u64 = if start { 0xF3 } else { 0xF4 };
        self.fault_fp = fold_fingerprint(self.fault_fp, code);
        self.fault_fp = fold_fingerprint(self.fault_fp, d as u64);
        self.fault_fp = fold_fingerprint(self.fault_fp, at.as_fs());
        let name = if start {
            "degrade/start"
        } else {
            "degrade/end"
        };
        self.sink.instant(name, ROUTER_TRACK, 0, at, d as u64, 0);
        self.win_active[d] = start;
        let mut lat: u64 = 1;
        let mut bw: u64 = 1;
        for (w, &on) in self.degradations.iter().zip(&self.win_active) {
            if on {
                lat = lat.saturating_mul(u64::from(w.latency_mult));
                bw = bw.saturating_mul(u64::from(w.bandwidth_div));
            }
        }
        self.lat_mult = lat;
        self.bw_div = bw;
    }

    /// Fail-stop of machine `i` at `at`: evict everything un-finished,
    /// retire the engine incarnation (its report is merged into the
    /// machine's final view), cold-restart system and slot map, and queue
    /// every evicted remainder for re-placement after charging its state
    /// transfer through the interconnect. Completions the engine already
    /// committed (even ones timestamped past `at`) stand.
    fn fail(
        &mut self,
        cspec: &ClusterSpec,
        tenants: &[Tenant],
        engines: &mut [Engine],
        systems: &mut [MacoSystem],
        i: usize,
        at: SimTime,
    ) {
        self.fault_fp = fold_fingerprint(self.fault_fp, 0xF1);
        self.fault_fp = fold_fingerprint(self.fault_fp, i as u64);
        self.fault_fp = fold_fingerprint(self.fault_fp, at.as_fs());
        if !self.alive[i] {
            return;
        }
        self.sink
            .instant("fault/fail", i as u32, SCHED_ROW, at, i as u64, 0);
        self.alive[i] = false;
        self.downs[i].push((at, None));
        self.failures += 1;
        let was_active = self.active[i];

        let evicted = engines[i].evict_all(at);
        let mspec = &cspec.machines[i];
        let old = std::mem::replace(
            &mut engines[i],
            Engine::new(mspec.system.nodes, tenants, &mspec.serve),
        );
        // The fresh incarnation records onto the same shared sink/track as
        // the retired one — trace coverage survives the fail-stop.
        engines[i].set_trace(self.sink.clone(), i as u32);
        self.retired[i].push(old.finish(&systems[i]));
        systems[i] = MacoSystem::new(mspec.system.clone());
        systems[i].reset_shared_resources();
        // The old slot map resolves the evicted ids (including synthetic
        // ids for never-admitted queued arrivals — the engine numbers
        // them in admission order, which is exactly the slot map's heap
        // order); the fresh incarnation starts with a fresh map.
        let mut old_slots = std::mem::take(&mut self.slots[i]);
        self.outstanding[i] = 0;

        let mut latest = at;
        for ej in evicted {
            let (slot_arrival, rec) = old_slots.resolve(ej.id.0 as usize);
            assert!(
                slot_arrival == ej.spec.arrival && self.records[rec].tenant == ej.spec.tenant,
                "machine {i} eviction desync: evicted job does not match its routed record"
            );
            let weight_bytes: u64 = ej
                .spec
                .layers
                .iter()
                .map(|l| l.k * l.n * l.precision.bytes())
                .sum();
            let bytes = cspec.interconnect.migration_bytes + weight_bytes;
            // State transfer is charged exactly once, *here* at eviction;
            // `replace()` only *attributes* it (the link weight needs the
            // destination) and adds no wire bytes — deferral costs
            // waiting, not bytes (differential-tested against a
            // hand-computed total in `two_kill_storm_bytes_match_the_
            // hand_computed_total`).
            let effective = self.icn_access(at, bytes);
            self.replaced_bytes += bytes;
            self.jobs_replaced += 1;
            self.records[rec].requeues += 1;
            self.fault_fp = fold_fingerprint(self.fault_fp, 0xF7);
            self.fault_fp = fold_fingerprint(self.fault_fp, rec as u64);
            self.fault_fp = fold_fingerprint(self.fault_fp, ej.completed_layers as u64);
            self.fault_fp = fold_fingerprint(self.fault_fp, effective.as_fs());
            self.schedule(
                effective,
                RouterEvent::Replace(ReRoute {
                    rec,
                    spec: ej.spec,
                    xfer: Some((i, bytes)),
                }),
            );
            latest = latest.max(effective);
        }
        self.recovery_latencies.push(latest.since(at));

        // An autoscaled fleet replaces lost *capacity* immediately: the
        // failed active machine's slot goes to the lowest-index alive
        // standby, bypassing the cooldown (this is repair, not demand).
        if self.scaler.is_some() && was_active {
            self.active[i] = false;
            if let Some(s) = (0..self.alive.len()).find(|&m| self.alive[m] && !self.active[m]) {
                self.active[s] = true;
                self.scale(at, true, s);
            }
        }
    }

    /// Recovery of machine `i` at `at`: the machine rejoins the fleet as
    /// a cold, empty incarnation (its fresh engine was installed at the
    /// fail-stop). Under an autoscaler it rejoins as *standby* — unless
    /// the fleet is otherwise empty, in which case it is force-activated
    /// so deferred work can make progress.
    fn recover(&mut self, i: usize, at: SimTime) {
        self.fault_fp = fold_fingerprint(self.fault_fp, 0xF2);
        self.fault_fp = fold_fingerprint(self.fault_fp, i as u64);
        self.fault_fp = fold_fingerprint(self.fault_fp, at.as_fs());
        if self.alive[i] {
            return;
        }
        self.sink
            .instant("fault/recover", i as u32, SCHED_ROW, at, i as u64, 0);
        self.alive[i] = true;
        if let Some(last) = self.downs[i].last_mut() {
            last.1 = Some(at);
        }
        self.recoveries += 1;
        if self.scaler.is_some() {
            if self.eligible_count() == 0 {
                self.active[i] = true;
                self.scale(at, true, i);
            } else {
                self.active[i] = false;
            }
        }
    }

    /// Records one autoscaler action on machine `m` (activation or
    /// drain), folding it into the fault fingerprint.
    fn scale(&mut self, at: SimTime, grew: bool, m: usize) {
        let after = self.eligible_count();
        self.scale_events.push(ScaleEvent {
            at,
            grew,
            active_after: after,
        });
        self.peak_active = self.peak_active.max(after);
        self.fault_fp = fold_fingerprint(self.fault_fp, 0xF5);
        self.fault_fp = fold_fingerprint(self.fault_fp, u64::from(grew));
        self.fault_fp = fold_fingerprint(self.fault_fp, m as u64);
        self.fault_fp = fold_fingerprint(self.fault_fp, after as u64);
        self.fault_fp = fold_fingerprint(self.fault_fp, at.as_fs());
        let name = if grew { "scale/grow" } else { "scale/shrink" };
        self.sink.instant(name, ROUTER_TRACK, 0, at, m as u64, 0);
    }

    /// One autoscaler decision at a routed arrival: slide the windows,
    /// then grow (arrival rate above `grow_per_machine` per active
    /// machine, or misses over budget) or shrink (no misses and rate
    /// comfortably below `shrink_per_machine` per remaining machine),
    /// subject to the cooldown. Draining only removes the machine from
    /// the placement set — its queued work finishes where it is.
    fn autoscale(&mut self, t: SimTime) {
        let Some(a) = self.scaler else { return };
        self.win_arrivals.push_back(t);
        let cutoff = if t.since(SimTime::ZERO) > a.window {
            t - a.window
        } else {
            SimTime::ZERO
        };
        while self.win_arrivals.front().is_some_and(|&x| x < cutoff) {
            self.win_arrivals.pop_front();
        }
        while self.win_misses.front().is_some_and(|&x| x < cutoff) {
            self.win_misses.pop_front();
        }
        if let Some(last) = self.last_scale {
            if t.since(last) < a.cooldown {
                return;
            }
        }
        let active_n = self.eligible_count() as u64;
        let rate = self.win_arrivals.len() as u64;
        let misses = self.win_misses.len() as u64;
        if rate > u64::from(a.grow_per_machine) * active_n || misses > u64::from(a.miss_budget) {
            if let Some(s) = (0..self.alive.len()).find(|&m| self.alive[m] && !self.active[m]) {
                self.active[s] = true;
                self.last_scale = Some(t);
                self.scale(t, true, s);
            }
        } else if active_n > a.min_machines as u64
            && misses == 0
            && rate < u64::from(a.shrink_per_machine) * (active_n - 1)
        {
            if let Some(s) = (0..self.alive.len())
                .rev()
                .find(|&m| self.alive[m] && self.active[m])
            {
                self.active[s] = false;
                self.last_scale = Some(t);
                self.scale(t, false, s);
            }
        }
    }

    /// Routes one arrival: validates, takes the autoscaler decision,
    /// picks machine(s) among the eligible set, charges the
    /// interconnect, pushes the job (or its parts) into the machine
    /// engine(s). With zero eligible machines the arrival is deferred to
    /// the next scheduled recovery.
    fn route(
        &mut self,
        spec: &ClusterSpec,
        tenants: &[Tenant],
        engines: &mut [Engine],
        job: JobSpec,
        index: usize,
    ) {
        let machines = engines.len();
        self.fingerprint = fold_fingerprint(self.fingerprint, index as u64);
        if validate_spec(tenants.len(), &job).is_err() {
            self.jobs_rejected += 1;
            self.sink.instant(
                "route/reject",
                ROUTER_TRACK,
                0,
                job.arrival,
                index as u64,
                job.tenant as u32,
            );
            let deadline = job.deadline;
            self.push_record(
                JobRecord {
                    index,
                    tenant: job.tenant,
                    arrival: job.arrival,
                    effective_arrival: job.arrival,
                    machines: Vec::new(),
                    split: None,
                    migrated: false,
                    requeues: 0,
                    finished_at: None,
                    flops: job.flops(),
                    interconnect_bytes: 0,
                },
                deadline,
            );
            return;
        }
        let flops = job.flops();
        self.autoscale(job.arrival);

        // Every machine dead: defer to the next scheduled recovery (the
        // fault-first tie order guarantees the recovery is processed
        // before the deferred re-route at the same instant).
        let eligible = self.eligible_count();
        if eligible == 0 {
            let wake = self
                .next_recovery()
                .expect("every machine is dead with no scheduled recovery: the fleet cannot serve this arrival");
            let rec = self.records.len();
            let deadline = job.deadline;
            self.push_record(
                JobRecord {
                    index,
                    tenant: job.tenant,
                    arrival: job.arrival,
                    effective_arrival: job.arrival,
                    machines: Vec::new(),
                    split: None,
                    migrated: false,
                    requeues: 0,
                    finished_at: None,
                    flops,
                    interconnect_bytes: 0,
                },
                deadline,
            );
            self.sink.instant(
                "route/defer",
                ROUTER_TRACK,
                0,
                job.arrival,
                index as u64,
                job.tenant as u32,
            );
            self.schedule(
                wake,
                RouterEvent::Replace(ReRoute {
                    rec,
                    spec: job,
                    xfer: None,
                }),
            );
            return;
        }

        // Data-parallel split: single-layer jobs above the threshold fan
        // out across the least-loaded eligible machines; whole DNN
        // streams always stay machine-affine.
        let want_ways = spec.split.max_ways.min(eligible);
        if job.layers.len() == 1 && flops >= spec.split.min_flops && want_ways >= 2 {
            let split = split_job(&job, spec.split.kind, want_ways);
            if split.parts.len() >= 2 {
                let mut order: Vec<usize> = (0..machines).filter(|&m| self.eligible(m)).collect();
                if spec.placement == Placement::SfcLocality {
                    // Curve-compact fan-out anchored on the tenant's home:
                    // the anchor stays `targets[0]` (so the home does not
                    // churn to the least-loaded machine and pay a
                    // migration on the tenant's next affine job) and the
                    // remaining parts pack along the curve.
                    let anchor = self.sfc_home(job.tenant, machines);
                    order.sort_by_key(|&m| (self.curve_dist(m, anchor), self.outstanding[m], m));
                } else {
                    order.sort_by_key(|&m| (self.outstanding[m], m));
                }
                let targets: Vec<usize> = order[..split.parts.len()].to_vec();
                // Link-weighted scatter traffic, attributed to the job
                // and its anchor machine (the hub the operands fan out
                // from): a curve-compact fan-out crosses fewer links for
                // the same wire bytes.
                let scatter_link = self.fan_link_bytes(split.scatter_bytes, &targets);
                let effective = if split.scatter_bytes > 0 {
                    self.machine_bytes[targets[0]] += scatter_link;
                    self.icn_access(job.arrival, split.scatter_bytes)
                } else {
                    job.arrival
                };
                if spec.placement == Placement::SfcLocality {
                    self.sink.instant(
                        "place/sfc",
                        ROUTER_TRACK,
                        0,
                        effective,
                        index as u64,
                        targets[0] as u32,
                    );
                }
                for (part, &m) in split.parts.into_iter().zip(&targets) {
                    // Built field by field: the part owns its single
                    // layer, so no clone of the parent layer stream.
                    let part_spec = JobSpec {
                        tenant: job.tenant,
                        layers: vec![part.task],
                        arrival: effective,
                        priority: job.priority,
                        deadline: job.deadline,
                        gang_width: job.gang_width,
                    };
                    self.outstanding[m] += part_spec.flops();
                    self.push_slot(m, effective, index);
                    engines[m].push(part_spec);
                    self.rekey(&engines[m], m);
                    self.fingerprint = fold_fingerprint(self.fingerprint, m as u64);
                }
                self.fingerprint = fold_fingerprint(self.fingerprint, effective.as_fs());
                self.sink.instant(
                    "route/split",
                    ROUTER_TRACK,
                    0,
                    effective,
                    index as u64,
                    job.tenant as u32,
                );
                self.reductions.insert(
                    index,
                    Reduction {
                        parts_left: targets.len(),
                        end: SimTime::ZERO,
                        reduce_bytes: split.reduce_bytes,
                    },
                );
                self.splits += 1;
                // The split's primary machine becomes the tenant's home
                // (the scatter already priced the operand movement, so no
                // separate migration charge).
                self.tenant_home[job.tenant] = Some(targets[0]);
                self.push_record(
                    JobRecord {
                        index,
                        tenant: job.tenant,
                        arrival: job.arrival,
                        effective_arrival: effective,
                        machines: targets,
                        split: Some(spec.split.kind),
                        migrated: false,
                        requeues: 0,
                        finished_at: None,
                        flops,
                        interconnect_bytes: scatter_link,
                    },
                    job.deadline,
                );
                return;
            }
        }

        // Machine-affine placement.
        let m = self.place(spec.placement, machines, job.tenant);
        if spec.placement == Placement::SfcLocality {
            self.sink.instant(
                "place/sfc",
                ROUTER_TRACK,
                0,
                job.arrival,
                index as u64,
                m as u32,
            );
        }
        let home = self.tenant_home[job.tenant];
        let migrated = home.is_some_and(|h| h != m);
        let mut link_bytes = 0;
        let effective = if migrated {
            // The tenant's context and this job's weights move over the
            // interconnect before the job can start on the new machine.
            // Attributed (link-weighted) to the job and the old home —
            // the hub the state streams off.
            let weight_bytes: u64 = job
                .layers
                .iter()
                .map(|l| l.k * l.n * l.precision.bytes())
                .sum();
            self.migrations += 1;
            let bytes = spec.interconnect.migration_bytes + weight_bytes;
            let h = home.expect("migrated implies a previous home");
            link_bytes = bytes * self.fleet_hops(h, m);
            self.machine_bytes[h] += link_bytes;
            self.icn_access(job.arrival, bytes)
        } else {
            job.arrival
        };
        self.tenant_home[job.tenant] = Some(m);
        self.outstanding[m] += flops;
        self.push_slot(m, effective, index);
        let tenant = job.tenant;
        let arrival = job.arrival;
        let deadline = job.deadline;
        // The routed job moves into the machine engine whole — the layer
        // stream is never cloned on the routing path.
        engines[m].push(JobSpec {
            arrival: effective,
            ..job
        });
        self.rekey(&engines[m], m);
        self.fingerprint = fold_fingerprint(self.fingerprint, m as u64);
        self.fingerprint = fold_fingerprint(self.fingerprint, effective.as_fs());
        let name = if migrated { "route/migrate" } else { "route" };
        self.sink.instant(
            name,
            ROUTER_TRACK,
            0,
            effective,
            index as u64,
            tenant as u32,
        );
        self.push_record(
            JobRecord {
                index,
                tenant,
                arrival,
                effective_arrival: effective,
                machines: vec![m],
                split: None,
                migrated,
                requeues: 0,
                finished_at: None,
                flops,
                interconnect_bytes: link_bytes,
            },
            deadline,
        );
    }

    /// Re-places one evicted remainder (or deferred arrival) on an
    /// eligible machine. With none eligible it re-defers to the next
    /// scheduled recovery (state transfer was already charged at
    /// eviction — deferral costs waiting, not bytes).
    fn replace(&mut self, spec: &ClusterSpec, engines: &mut [Engine], at: SimTime, r: ReRoute) {
        if self.eligible_count() == 0 {
            let wake = self
                .next_recovery()
                .expect("every machine is dead with no scheduled recovery: evicted work cannot be re-placed");
            self.schedule(wake.max(at), RouterEvent::Replace(r));
            return;
        }
        let machines = engines.len();
        let m = self.place(spec.placement, machines, r.spec.tenant);
        if spec.placement == Placement::SfcLocality {
            self.sink
                .instant("place/sfc", ROUTER_TRACK, 0, at, r.rec as u64, m as u32);
        }
        // The eviction's wire bytes were charged at fail(); now that the
        // destination is known, weight them by the links crossed and
        // attribute them to the job and the failed (hub) machine.
        if let Some((src, bytes)) = r.xfer {
            let link = bytes * self.fleet_hops(src, m);
            self.attribute(r.rec, src, link);
        }
        self.tenant_home[r.spec.tenant] = Some(m);
        self.outstanding[m] += r.spec.flops();
        self.push_slot(m, at, r.rec);
        let rec = r.rec;
        engines[m].push(JobSpec {
            arrival: at,
            ..r.spec
        });
        self.rekey(&engines[m], m);
        self.fault_fp = fold_fingerprint(self.fault_fp, 0xF6);
        self.fault_fp = fold_fingerprint(self.fault_fp, m as u64);
        self.fault_fp = fold_fingerprint(self.fault_fp, rec as u64);
        self.fault_fp = fold_fingerprint(self.fault_fp, at.as_fs());
        self.sink.instant(
            "replace",
            m as u32,
            SCHED_ROW,
            at,
            rec as u64,
            self.records[rec].tenant as u32,
        );
        if self.records[rec].machines.is_empty() {
            // A deferred arrival is only now effectively admitted.
            self.records[rec].effective_arrival = at;
        }
        self.records[rec].machines.push(m);
    }

    /// Re-keys one machine in the global-merge cursor heap: pushes the
    /// machine's *current* next event. Called after every operation that
    /// can change a machine's event stream (an [`Engine::push`] during
    /// routing, an [`Engine::advance`]); superseded entries are left in
    /// the heap and discarded lazily when popped, so every machine with a
    /// pending event always has one current cursor and the heap top's
    /// first valid entry is the true fleet minimum.
    fn rekey(&mut self, engine: &Engine, machine: usize) {
        if let Some(t) = engine.next_event() {
            self.cursors.push(Reverse((t, machine)));
        }
    }

    /// The machine-affine placement decision, restricted to the eligible
    /// machines (on a fleet where every machine is eligible this is the
    /// unrestricted policy).
    fn place(&mut self, placement: Placement, machines: usize, tenant: usize) -> usize {
        let least_eligible = |ep: &Self| {
            (0..machines)
                .filter(|&m| ep.eligible(m))
                .min_by_key(|&m| (ep.outstanding[m], m))
                .expect("at least one eligible machine")
        };
        match placement {
            Placement::RoundRobin => {
                let k = self.rr % self.eligible_count();
                self.rr += 1;
                (0..machines)
                    .filter(|&m| self.eligible(m))
                    .nth(k)
                    .expect("k < eligible count")
            }
            Placement::LeastLoaded => least_eligible(self),
            Placement::TenantAffinity { spill } => {
                let home = self.tenant_home[tenant].unwrap_or(tenant % machines);
                if !self.eligible(home) {
                    return least_eligible(self);
                }
                let total: u64 = self.outstanding.iter().sum();
                // Spill when the home's load exceeds `spill`× the fleet
                // average: home·machines > spill·total, cross-multiplied
                // so the comparison stays in integers.
                let overloaded = total > 0
                    && (self.outstanding[home] as u128 * machines as u128)
                        > (spill as u128 * total as u128);
                if overloaded {
                    least_eligible(self)
                } else {
                    home
                }
            }
            Placement::SfcLocality => {
                let home = self.sfc_home(tenant, machines);
                if !self.eligible(home) {
                    // The static curve slot is down/drained: snap to the
                    // curve-nearest eligible machine.
                    return (0..machines)
                        .filter(|&m| self.eligible(m))
                        .min_by_key(|&m| (self.curve_dist(m, home), self.outstanding[m], m))
                        .expect("at least one eligible machine");
                }
                if self.sfc_overloaded(home, machines) {
                    // Spill along the curve: the nearest other machine (by
                    // curve distance, then load) keeps the tenant's
                    // traffic mesh-compact.
                    (0..machines)
                        .filter(|&m| self.eligible(m) && m != home)
                        .min_by_key(|&m| (self.curve_dist(m, home), self.outstanding[m], m))
                        .unwrap_or(home)
                } else {
                    home
                }
            }
        }
    }

    /// [`Placement::SfcLocality`]'s overload test: the home spills when
    /// its outstanding flops exceed twice the fleet average — the same
    /// cross-multiplied integer comparison `TenantAffinity { spill: 2 }`
    /// uses, so the two policies differ only in *where* they spill.
    fn sfc_overloaded(&self, home: usize, machines: usize) -> bool {
        let total: u64 = self.outstanding.iter().sum();
        total > 0 && (self.outstanding[home] as u128 * machines as u128) > (2 * total as u128)
    }

    /// Registers one routed job with the machine's [`SlotMap`], mirroring
    /// [`Engine::push`] ordering: the engine admits pushed jobs in
    /// `(arrival, push order)` order, and pushes never predate an
    /// already-admitted arrival, so the slot map's rank `i` is the
    /// engine's job `i` by the time it can complete.
    fn push_slot(&mut self, machine: usize, at: SimTime, record: usize) {
        self.slots[machine].pending.schedule(at, 0, record);
    }

    /// Processes one machine-level job completion: load accounting, split
    /// reduction barriers, fleet-level completion records and SLO/goodput
    /// accounting.
    fn complete(&mut self, machine: usize, outcome: JobOutcome) {
        let (slot_arrival, rec) = self.slots[machine].resolve(outcome.job.0 as usize);
        // The slot map assumes the engine admitted every routed job: a
        // machine-level admission rejection (queue overflow) would shift
        // all later machine-local job ids off their slots. Fail loudly
        // instead of attributing completions to the wrong records.
        assert!(
            slot_arrival == outcome.arrival && self.records[rec].tenant == outcome.tenant,
            "machine {machine} admission desync (queue overflow?): routed jobs must fit \
             the machine's ServeConfig::queue_capacity"
        );
        // Outstanding flops are a strict routed-minus-completed ledger; a
        // completion exceeding what was routed means the accounting is
        // corrupt and every load-aware placement decision after it would
        // be skewed. Debug builds fail loudly; release builds clamp —
        // and *count* the clamp, so the desync is never silent.
        self.outstanding[machine] = match self.outstanding[machine].checked_sub(outcome.flops) {
            Some(rest) => rest,
            None => {
                self.diagnostics.outstanding_clamps += 1;
                if cfg!(debug_assertions) {
                    panic!(
                        "machine {machine} outstanding-flops underflow: completed {} flops \
                         with only {} outstanding — routed/completed accounting desynced",
                        outcome.flops, self.outstanding[machine]
                    );
                }
                0
            }
        };
        self.fingerprint = fold_fingerprint(self.fingerprint, machine as u64);
        self.fingerprint = fold_fingerprint(self.fingerprint, outcome.finished_at.as_fs());
        let finished = match self.reductions.get_mut(&rec) {
            Some(red) => {
                red.parts_left -= 1;
                red.end = red.end.max(outcome.finished_at);
                if red.parts_left > 0 {
                    return;
                }
                // Barrier cleared: the k-split pays its all-reduce on the
                // interconnect; the m-split completes with its last part.
                let red = self.reductions.remove(&rec).expect("present");
                if red.reduce_bytes > 0 {
                    // Link-weighted all-reduce traffic, attributed to
                    // the job and its anchor (first target) machine —
                    // the hub the partial results stream into.
                    let parts = std::mem::take(&mut self.records[rec].machines);
                    let link = self.fan_link_bytes(red.reduce_bytes, &parts);
                    self.records[rec].machines = parts;
                    self.attribute(rec, self.records[rec].machines[0], link);
                    self.icn_access(red.end, red.reduce_bytes)
                } else {
                    red.end
                }
            }
            None => outcome.finished_at,
        };
        self.records[rec].finished_at = Some(finished);
        self.jobs_completed += 1;
        self.last_finish = self.last_finish.max(finished);
        self.fingerprint = fold_fingerprint(self.fingerprint, finished.as_fs());
        self.sink.instant(
            "job/done",
            ROUTER_TRACK,
            0,
            finished,
            self.records[rec].index as u64,
            self.records[rec].tenant as u32,
        );
        // Fleet-level SLO accounting: a job is good throughput iff it
        // finished within its (router-arrival-relative) deadline;
        // deadline-less jobs always count.
        let missed =
            self.deadlines[rec].is_some_and(|d| finished.since(self.records[rec].arrival) > d);
        if missed {
            self.deadline_misses += 1;
            if self.scaler.is_some() {
                self.win_misses.push_back(finished);
            }
        } else {
            self.goodput_flops += self.records[rec].flops;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maco_serve::JobId;
    use maco_sim::SimDuration;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    fn episode(machines: usize) -> FleetEpisode {
        FleetEpisode::new(&ClusterSpec::uniform(machines, 2), 4)
    }

    /// The lazily drained slot map materialises machine-local job ids in
    /// `(effective arrival, route order)` rank — the engine's admission
    /// order — regardless of resolution order.
    #[test]
    fn slot_map_resolves_in_arrival_then_route_order() {
        let mut sm = SlotMap::default();
        sm.pending.schedule(t(5), 0, 10);
        sm.pending.schedule(t(1), 0, 11);
        sm.pending.schedule(t(5), 0, 12);
        // Rank 0 is the earliest arrival; equal arrivals rank by route
        // order. Out-of-order resolution still lands on the same ranks.
        assert_eq!(sm.resolve(2), (t(5), 12));
        assert_eq!(sm.resolve(0), (t(1), 11));
        assert_eq!(sm.resolve(1), (t(5), 10));
    }

    /// Regression: a completion reporting more flops than its machine has
    /// outstanding is a corrupted routed-minus-completed ledger and must
    /// fail loudly in debug builds — `saturating_sub` used to mask it and
    /// silently skew every load-aware placement decision afterwards.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outstanding-flops underflow")]
    fn outstanding_underflow_panics_in_debug() {
        let mut ep = episode(1);
        ep.outstanding[0] = 10;
        ep.push_record(
            JobRecord {
                index: 0,
                tenant: 0,
                arrival: t(0),
                effective_arrival: t(0),
                machines: vec![0],
                split: None,
                migrated: false,
                requeues: 0,
                finished_at: None,
                flops: 100,
                interconnect_bytes: 0,
            },
            None,
        );
        ep.push_slot(0, t(0), 0);
        ep.complete(
            0,
            JobOutcome {
                job: JobId(0),
                tenant: 0,
                arrival: t(0),
                finished_at: t(7),
                flops: 100,
            },
        );
    }

    /// In release builds the same underflow clamps to zero *and* counts
    /// in the diagnostics, so every healthy-episode test can pin the
    /// counter at 0 and a desync can never pass silently.
    #[cfg(not(debug_assertions))]
    #[test]
    fn outstanding_underflow_clamps_and_counts_in_release() {
        let mut ep = episode(1);
        ep.outstanding[0] = 10;
        ep.push_record(
            JobRecord {
                index: 0,
                tenant: 0,
                arrival: t(0),
                effective_arrival: t(0),
                machines: vec![0],
                split: None,
                migrated: false,
                requeues: 0,
                finished_at: None,
                flops: 100,
                interconnect_bytes: 0,
            },
            None,
        );
        ep.push_slot(0, t(0), 0);
        ep.complete(
            0,
            JobOutcome {
                job: JobId(0),
                tenant: 0,
                arrival: t(0),
                finished_at: t(7),
                flops: 100,
            },
        );
        assert_eq!(ep.outstanding[0], 0);
        assert_eq!(ep.diagnostics.outstanding_clamps, 1);
    }
}
