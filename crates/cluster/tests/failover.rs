//! Failure and elasticity invariants of the fleet layer (128 cases each
//! under the vendored proptest), plus the deterministic edge-case suite.
//!
//! The contracts under test:
//!
//! * **no job is ever lost** — kill half the fleet mid-burst and every
//!   admitted job still runs to completion
//!   ([`maco_cluster::FaultReport::jobs_lost`] is 0, always);
//! * **flops conservation under failure** — evicted remainders restart
//!   from their last completed layer and interrupted layers re-run, so
//!   the fleet serves *exactly* the flops a no-failure serial run serves
//!   (a layer is credited once, at its completion barrier, on whichever
//!   machine completes it);
//! * **determinism under failure** — same seed, same fault schedule,
//!   byte-identical schedule *and* fault fingerprints, on a reused
//!   cluster and on a freshly built one;
//! * **edge cases** — failure before the first arrival, failure of an
//!   idle machine (recovery latency exactly zero), all-but-one machines
//!   dead, mid-k-split failure (the reduction resumes, numerics proven
//!   bit-identical in the split property suite), total outage with
//!   arrivals deferred to a scheduled recovery;
//! * **elasticity** — the autoscaler grows under a burst, shrinks when
//!   the window drains, and never scales below `min_machines`; an
//!   interconnect degradation window makes every charged transfer
//!   strictly slower;
//! * **tie law** — simultaneous router events process fault before
//!   arrival before re-placement.

use proptest::prelude::*;

use maco_cluster::{
    AutoscalerSpec, Cluster, ClusterSpec, DegradationWindow, FaultSpec, Placement, SplitKind,
    SplitSpec,
};
use maco_core::gemm_plus::GemmPlusTask;
use maco_core::system::{MacoSystem, SystemConfig};
use maco_isa::Precision;
use maco_serve::{JobSpec, Policy, ServeConfig, Server, Tenant};
use maco_sim::{SimDuration, SimTime};
use maco_telemetry::TraceSink;

/// The serve suite's synthetic job generator, shape for shape, so failure
/// episodes replay the same inputs the healthy property suite pins.
fn synthetic_jobs(raw: &[(u64, u64, u64, u64, u64)], tenants: usize) -> Vec<JobSpec> {
    let mut arrival = SimTime::ZERO;
    raw.iter()
        .map(|&(tenant, dim, layers, width, gap)| {
            arrival += SimDuration::from_ns(200 + gap);
            let d = 32 * (1 + dim);
            JobSpec {
                tenant: tenant as usize % tenants,
                layers: (0..1 + layers)
                    .map(|i| GemmPlusTask::gemm(d, d + 32 * i, d, Precision::Fp32))
                    .collect(),
                arrival,
                priority: (tenant % 4) as u8,
                deadline: None,
                gang_width: 1 + width as usize,
            }
        })
        .collect()
}

fn placement_of(idx: u64) -> Placement {
    Placement::ALL[idx as usize % Placement::ALL.len()]
}

fn fleet_spec(machines: usize, nodes_each: usize, placement: u64, split: bool) -> ClusterSpec {
    let mut spec =
        ClusterSpec::uniform(machines, nodes_each).with_placement(placement_of(placement));
    if split {
        spec = spec.with_split(SplitSpec::new(
            SplitKind::KSplit,
            2 * 64 * 64 * 64,
            machines,
        ));
    }
    spec
}

/// One big job the healthy fleet runs long enough that a mid-makespan
/// fail-stop is guaranteed to catch it in flight.
fn one_heavy_job(layers: usize) -> Vec<JobSpec> {
    vec![JobSpec {
        tenant: 0,
        layers: (0..layers)
            .map(|_| GemmPlusTask::gemm(256, 256, 256, Precision::Fp32))
            .collect(),
        arrival: SimTime::ZERO,
        priority: 0,
        deadline: None,
        gang_width: 2,
    }]
}

proptest! {
    /// Kill half the fleet mid-burst (storm times drawn inside the
    /// healthy run's makespan, with and without recovery): zero lost
    /// jobs, flops conserved against the no-failure serial run, and the
    /// whole episode — schedule and fault layer both — byte-identical
    /// across a reused cluster and a fresh one.
    #[test]
    fn killing_half_the_fleet_loses_nothing(
        raw in proptest::collection::vec((0u64..6, 0u64..3, 0u64..2, 0u64..4, 0u64..2000), 2..6),
        machines in 2usize..5,
        nodes in 2usize..4,
        placement in 0u64..3,
        split in 0u64..2,
        storm_seed in 0u64..10_000,
        recover in 0u64..2,
    ) {
        let specs = synthetic_jobs(&raw, 4);
        let base = fleet_spec(machines, nodes, placement, split == 1);

        // Probe the healthy makespan so the storm lands mid-burst.
        let mut healthy = Cluster::new(base.clone(), Tenant::fleet(4));
        let h = healthy.run_jobs(specs.clone()).expect("healthy episode completes");
        prop_assert!(h.makespan > SimDuration::ZERO);
        let outage = (recover == 1).then_some(h.makespan);
        let faults = FaultSpec::storm(
            storm_seed,
            machines,
            machines / 2,
            SimTime::ZERO,
            SimTime::ZERO + h.makespan,
            outage,
        );
        let spec = base.with_faults(faults);

        let mut fleet = Cluster::new(spec.clone(), Tenant::fleet(4));
        let r = fleet.run_jobs(specs.clone()).expect("storm episode completes");
        prop_assert_eq!(r.fault.jobs_lost, 0, "fail-stop lost admitted jobs");
        prop_assert_eq!(r.jobs_completed as usize, raw.len());
        prop_assert_eq!(r.fault.failures as usize, machines / 2);
        prop_assert_eq!(r.diagnostics.outstanding_clamps, 0);
        prop_assert!(r.fault.availability < 1.0, "downtime must show");
        prop_assert!(r.fault.fingerprint != 0, "fault layer saw events");

        // Flops conserved vs the no-failure serial run: re-placement
        // re-executes interrupted layers but credits each exactly once.
        let mut serial = Server::new(
            MacoSystem::new(SystemConfig { nodes, ..SystemConfig::default() }),
            Tenant::fleet(4),
            ServeConfig::with_policy(Policy::Fifo),
        );
        let serial_flops = serial.run_jobs(specs.clone()).expect("serial completes").total_flops;
        prop_assert_eq!(r.total_flops, serial_flops);
        let submitted: u64 = specs.iter().map(JobSpec::flops).sum();
        prop_assert_eq!(r.total_flops, submitted);

        // Same seed, same storm — byte for byte, reused and fresh.
        let r2 = fleet.run_jobs(specs.clone()).expect("repeat completes");
        prop_assert_eq!(r.fingerprint, r2.fingerprint, "reused cluster diverged");
        prop_assert_eq!(r.fault.fingerprint, r2.fault.fingerprint);
        let mut fresh = Cluster::new(spec, Tenant::fleet(4));
        let r3 = fresh.run_jobs(specs).expect("fresh completes");
        prop_assert_eq!(r.fingerprint, r3.fingerprint, "fresh cluster diverged");
        prop_assert_eq!(r.fault.fingerprint, r3.fault.fingerprint);
        prop_assert_eq!(r.makespan, r3.makespan);
    }
}

/// A machine that dies before the first arrival simply never receives
/// work: nothing is evicted (recovery latency exactly zero), the router
/// places everything on the survivor, and availability still records the
/// downtime.
#[test]
fn failure_before_first_arrival_routes_around_the_dead_machine() {
    let raw: Vec<(u64, u64, u64, u64, u64)> = (0..6).map(|i| (i, 1, 1, 1, 400)).collect();
    let specs = synthetic_jobs(&raw, 4);
    let spec = ClusterSpec::uniform(2, 2)
        .with_placement(Placement::LeastLoaded)
        .with_faults(FaultSpec::none().with_failure(
            0,
            SimTime::ZERO + SimDuration::from_ns(100),
            None,
        ));
    let mut fleet = Cluster::new(spec, Tenant::fleet(4));
    let r = fleet.run_jobs(specs).expect("episode completes");
    assert_eq!(r.jobs_completed, 6);
    assert_eq!(r.fault.jobs_lost, 0);
    assert_eq!(r.fault.failures, 1);
    assert_eq!(r.fault.jobs_replaced, 0, "nothing to evict before arrivals");
    assert_eq!(r.fault.recovery_latency_max, SimDuration::ZERO);
    assert!(r.fault.availability < 1.0);
    assert_eq!(r.diagnostics.outstanding_clamps, 0);
    for job in &r.jobs {
        assert_eq!(job.machines.as_slice(), &[1], "all work on the survivor");
        assert_eq!(job.requeues, 0);
    }
}

/// Killing a machine that holds no work evicts nothing: the fail-stop is
/// bookkeeping only (incarnation bump, downtime interval, zero recovery
/// latency), and the busy machine is untouched.
#[test]
fn idle_machine_failure_evicts_nothing() {
    let raw: Vec<(u64, u64, u64, u64, u64)> = (0..5).map(|i| (0, 2, 1, 1, 300 + i)).collect();
    let specs = synthetic_jobs(&raw, 4);
    // Tenant affinity with a huge spill threshold pins every job (all
    // tenant 0) to its home machine 0; machine 1 stays idle for the
    // whole episode.
    let base = ClusterSpec::uniform(2, 2).with_placement(Placement::TenantAffinity { spill: 1000 });
    let mut healthy = Cluster::new(base.clone(), Tenant::fleet(4));
    let h = healthy.run_jobs(specs.clone()).expect("healthy completes");
    let kill_at = SimTime::ZERO + SimDuration::from_fs(h.makespan.as_fs() / 2);
    let spec = base.with_faults(FaultSpec::none().with_failure(1, kill_at, None));
    let mut fleet = Cluster::new(spec, Tenant::fleet(4));
    let r = fleet.run_jobs(specs).expect("episode completes");
    assert_eq!(r.jobs_completed, 5);
    assert_eq!(r.fault.failures, 1);
    assert_eq!(r.fault.jobs_replaced, 0);
    assert_eq!(r.fault.recovery_latency_max, SimDuration::ZERO);
    assert_eq!(
        r.machines[1].incarnations, 2,
        "engine retired and restarted"
    );
    assert_eq!(r.machines[0].incarnations, 1);
    assert_eq!(
        r.fingerprint, h.fingerprint,
        "idle failure leaves the schedule untouched"
    );
    assert_eq!(r.diagnostics.outstanding_clamps, 0);
}

/// Kill every machine but one mid-run: the in-flight job is evicted,
/// checkpointed at its last completed layer, and finishes on the last
/// survivor — flops conserved, bytes charged, requeue recorded.
#[test]
fn all_but_one_machine_dead_still_serves_everything() {
    let specs = one_heavy_job(3);
    let base = ClusterSpec::uniform(3, 2).with_placement(Placement::LeastLoaded);
    let mut healthy = Cluster::new(base.clone(), Tenant::fleet(1));
    let h = healthy.run_jobs(specs.clone()).expect("healthy completes");
    let half = SimTime::ZERO + SimDuration::from_fs(h.makespan.as_fs() / 2);
    let spec = base.with_faults(
        FaultSpec::none()
            .with_failure(0, half, None)
            .with_failure(1, half, None),
    );
    let mut fleet = Cluster::new(spec, Tenant::fleet(1));
    let r = fleet.run_jobs(specs.clone()).expect("episode completes");
    assert_eq!(r.jobs_completed, 1);
    assert_eq!(r.fault.jobs_lost, 0);
    assert_eq!(r.fault.failures, 2);
    assert_eq!(
        r.fault.jobs_replaced, 1,
        "the in-flight job was evicted once"
    );
    assert!(r.fault.replaced_bytes > 0, "state transfer was charged");
    assert!(r.fault.recovery_latency_max > SimDuration::ZERO);
    assert_eq!(r.jobs[0].requeues, 1);
    assert_eq!(
        r.jobs[0].machines.as_slice(),
        &[0, 2],
        "placed on 0, finished on the survivor"
    );
    assert_eq!(
        r.total_flops,
        specs[0].flops(),
        "flops conserved under eviction"
    );
    assert!(r.makespan > h.makespan, "re-execution costs time");
    assert_eq!(r.diagnostics.outstanding_clamps, 0);
}

/// A machine failure mid-k-split: the lost part re-places (the surviving
/// machine resumes the reduction — numerics proven bit-identical in the
/// split suite), the reduction barrier still clears, and flops are
/// conserved.
#[test]
fn mid_ksplit_failure_resumes_the_reduction() {
    let specs = vec![JobSpec {
        tenant: 0,
        layers: vec![GemmPlusTask::gemm(256, 256, 512, Precision::Fp32)],
        arrival: SimTime::ZERO,
        priority: 0,
        deadline: None,
        gang_width: 2,
    }];
    let base = ClusterSpec::uniform(2, 2).with_split(SplitSpec::new(
        SplitKind::KSplit,
        2 * 64 * 64 * 64,
        2,
    ));
    let mut healthy = Cluster::new(base.clone(), Tenant::fleet(1));
    let h = healthy.run_jobs(specs.clone()).expect("healthy completes");
    assert_eq!(h.splits, 1, "the heavy layer splits");
    let half = SimTime::ZERO + SimDuration::from_fs(h.makespan.as_fs() / 2);
    let spec = base.with_faults(FaultSpec::none().with_failure(1, half, None));
    let mut fleet = Cluster::new(spec, Tenant::fleet(1));
    let r = fleet.run_jobs(specs.clone()).expect("episode completes");
    assert_eq!(r.splits, 1);
    assert_eq!(r.jobs_completed, 1);
    assert_eq!(r.fault.jobs_lost, 0);
    assert_eq!(r.fault.jobs_replaced, 1, "the lost part re-placed");
    assert_eq!(r.jobs[0].requeues, 1);
    assert_eq!(
        r.total_flops,
        specs[0].flops(),
        "split + failover conserves flops"
    );
    assert_eq!(r.diagnostics.outstanding_clamps, 0);
}

/// A recovered machine rejoins the placement set as a cold incarnation
/// and serves post-recovery arrivals; the whole episode stays
/// deterministic.
#[test]
fn recovered_machine_rejoins_and_serves() {
    let mut specs = one_heavy_job(2);
    // Late wave, far past the recovery instant, alternating round-robin.
    for i in 0..4 {
        specs.push(JobSpec {
            tenant: (i % 2) + 1,
            layers: vec![GemmPlusTask::gemm(64, 64, 64, Precision::Fp32)],
            arrival: SimTime::ZERO + SimDuration::from_us(40_000) + SimDuration::from_ns(i as u64),
            priority: 0,
            deadline: None,
            gang_width: 1,
        });
    }
    let spec = ClusterSpec::uniform(2, 2)
        .with_placement(Placement::RoundRobin)
        .with_faults(FaultSpec::none().with_failure(
            1,
            SimTime::ZERO + SimDuration::from_us(1_000),
            Some(SimTime::ZERO + SimDuration::from_us(2_000)),
        ));
    let mut fleet = Cluster::new(spec.clone(), Tenant::fleet(3));
    let r = fleet.run_jobs(specs.clone()).expect("episode completes");
    assert_eq!(r.jobs_completed, 5);
    assert_eq!(r.fault.jobs_lost, 0);
    assert_eq!(r.fault.failures, 1);
    assert_eq!(r.fault.recoveries, 1);
    assert_eq!(r.machines[1].incarnations, 2);
    let late_on_recovered = r
        .jobs
        .iter()
        .filter(|j| j.index >= 1 && j.machines.contains(&1))
        .count();
    assert!(
        late_on_recovered >= 1,
        "round-robin must use the recovered machine for the late wave"
    );
    let mut fresh = Cluster::new(spec, Tenant::fleet(3));
    let r2 = fresh.run_jobs(specs).expect("repeat completes");
    assert_eq!(r.fingerprint, r2.fingerprint);
    assert_eq!(r.fault.fingerprint, r2.fault.fingerprint);
    assert_eq!(r.diagnostics.outstanding_clamps, 0);
}

/// Arrivals during a total outage defer to the scheduled recovery: the
/// job is admitted with its effective arrival at the recovery instant
/// and nothing is lost.
#[test]
fn arrivals_during_total_outage_wait_for_recovery() {
    let down = SimTime::ZERO + SimDuration::from_us(1);
    let up = SimTime::ZERO + SimDuration::from_us(9);
    let specs = vec![JobSpec {
        tenant: 0,
        layers: vec![GemmPlusTask::gemm(64, 64, 64, Precision::Fp32)],
        arrival: SimTime::ZERO + SimDuration::from_us(5),
        priority: 0,
        deadline: None,
        gang_width: 1,
    }];
    let spec =
        ClusterSpec::uniform(1, 2).with_faults(FaultSpec::none().with_failure(0, down, Some(up)));
    let mut fleet = Cluster::new(spec, Tenant::fleet(1));
    let r = fleet.run_jobs(specs).expect("episode completes");
    assert_eq!(r.jobs_completed, 1);
    assert_eq!(r.fault.jobs_lost, 0);
    assert_eq!(r.jobs[0].effective_arrival, up, "deferred to the recovery");
    assert_eq!(r.jobs[0].machines.as_slice(), &[0]);
    assert_eq!(r.diagnostics.outstanding_clamps, 0);
}

/// A total outage with no scheduled recovery cannot serve pending work —
/// the episode must fail loudly, not hang or drop the job.
#[test]
#[should_panic(expected = "no scheduled recovery")]
fn total_outage_without_recovery_panics() {
    let specs = vec![JobSpec {
        tenant: 0,
        layers: vec![GemmPlusTask::gemm(64, 64, 64, Precision::Fp32)],
        arrival: SimTime::ZERO + SimDuration::from_us(5),
        priority: 0,
        deadline: None,
        gang_width: 1,
    }];
    let spec = ClusterSpec::uniform(1, 2).with_faults(FaultSpec::none().with_failure(
        0,
        SimTime::ZERO + SimDuration::from_us(1),
        None,
    ));
    let mut fleet = Cluster::new(spec, Tenant::fleet(1));
    let _ = fleet.run_jobs(specs);
}

/// The autoscaler grows the active set under a dense burst, shrinks it
/// again when the window drains, and never goes below `min_machines`.
/// Standby machines receive no placements while inactive.
#[test]
fn autoscaler_grows_under_burst_and_shrinks_when_idle() {
    let mut specs: Vec<JobSpec> = Vec::new();
    // Dense burst: 20 arrivals 500 ns apart — far above the conservative
    // policy's 8-per-machine window rate.
    for i in 0..20u64 {
        specs.push(JobSpec {
            tenant: (i % 4) as usize,
            layers: vec![GemmPlusTask::gemm(64, 64, 64, Precision::Fp32)],
            arrival: SimTime::ZERO + SimDuration::from_ns(500 * (i + 1)),
            priority: 0,
            deadline: None,
            gang_width: 1,
        });
    }
    // Sparse tail: arrivals 2 ms apart, so the 1 ms window empties
    // between them and the shrink condition holds.
    for i in 0..3u64 {
        specs.push(JobSpec {
            tenant: (i % 4) as usize,
            layers: vec![GemmPlusTask::gemm(64, 64, 64, Precision::Fp32)],
            arrival: SimTime::ZERO + SimDuration::from_us(2_000 * (i + 1)),
            priority: 0,
            deadline: None,
            gang_width: 1,
        });
    }
    let spec = ClusterSpec::uniform(3, 2)
        .with_placement(Placement::LeastLoaded)
        .with_autoscaler(AutoscalerSpec::conservative(1));
    let mut fleet = Cluster::new(spec.clone(), Tenant::fleet(4));
    let r = fleet.run_jobs(specs.clone()).expect("episode completes");
    assert_eq!(r.jobs_completed, 23);
    assert_eq!(r.fault.jobs_lost, 0);
    assert!(r.fault.peak_active >= 2, "the burst must trigger a grow");
    assert!(
        r.fault.scale_events.iter().any(|e| e.grew),
        "no grow event recorded"
    );
    assert!(
        r.fault.scale_events.iter().any(|e| !e.grew),
        "no shrink event recorded"
    );
    assert!(
        r.fault.scale_events.iter().all(|e| e.active_after >= 1),
        "scaled below min_machines"
    );
    // Machines outside the peak active set never received work.
    for job in &r.jobs {
        assert!(job.machines.iter().all(|&m| m < r.fault.peak_active));
    }
    let mut fresh = Cluster::new(spec, Tenant::fleet(4));
    let r2 = fresh.run_jobs(specs).expect("repeat completes");
    assert_eq!(r.fingerprint, r2.fingerprint);
    assert_eq!(r.fault.fingerprint, r2.fault.fingerprint);
    assert_eq!(r.diagnostics.outstanding_clamps, 0);
}

/// An interconnect degradation window makes every transfer charged inside
/// it strictly slower: same trace, same placements, larger interconnect
/// busy time and a later first-migration effective arrival.
#[test]
fn degradation_window_slows_state_transfer() {
    // Round-robin over two machines with one tenant: every other job
    // migrates and pays the interconnect.
    let specs: Vec<JobSpec> = (0..4u64)
        .map(|i| JobSpec {
            tenant: 0,
            layers: vec![GemmPlusTask::gemm(128, 128, 128, Precision::Fp32)],
            arrival: SimTime::ZERO + SimDuration::from_us(i),
            priority: 0,
            deadline: None,
            gang_width: 1,
        })
        .collect();
    let base = ClusterSpec::uniform(2, 2).with_placement(Placement::RoundRobin);
    let mut pristine = Cluster::new(base.clone(), Tenant::fleet(1));
    let p = pristine
        .run_jobs(specs.clone())
        .expect("pristine completes");
    assert!(p.migrations > 0, "round-robin must migrate the tenant");

    let window = DegradationWindow {
        from: SimTime::ZERO,
        until: SimTime::ZERO + SimDuration::from_us(100_000),
        latency_mult: 3,
        bandwidth_div: 4,
    };
    let spec = base.with_faults(FaultSpec::none().with_degradation(window));
    let mut degraded = Cluster::new(spec, Tenant::fleet(1));
    let d = degraded.run_jobs(specs).expect("degraded completes");
    assert_eq!(d.migrations, p.migrations);
    assert!(
        d.interconnect_busy > p.interconnect_busy,
        "divided bandwidth must serialise longer ({:?} vs {:?})",
        d.interconnect_busy,
        p.interconnect_busy
    );
    let first_migrated_p = p.jobs.iter().find(|j| j.migrated).expect("migration");
    let first_migrated_d = d.jobs.iter().find(|j| j.migrated).expect("migration");
    assert!(
        first_migrated_d.effective_arrival > first_migrated_p.effective_arrival,
        "degraded transfer must deliver later"
    );
    assert!(
        d.fault.fingerprint != 0,
        "window events fold into the fault fingerprint"
    );
    assert_eq!(d.fault.jobs_lost, 0);
    assert_eq!(d.diagnostics.outstanding_clamps, 0);
}

/// One 64³ job of `tenant` arriving at `at`.
fn light_job(tenant: usize, at: SimTime) -> JobSpec {
    JobSpec {
        tenant,
        layers: vec![GemmPlusTask::gemm(64, 64, 64, Precision::Fp32)],
        arrival: at,
        priority: 0,
        deadline: None,
        gang_width: 1,
    }
}

/// Tie law, fault before arrival: a fail-stop at the exact instant of an
/// arrival is processed first, so the arrival is routed around the dead
/// machine instead of landing on it and being evicted at once.
#[test]
fn fail_stop_at_an_arrival_instant_routes_around_the_dead_machine() {
    let at = SimTime::ZERO + SimDuration::from_us(5);
    // Least-loaded on an idle fleet picks machine 0 unless it is dead.
    let spec = ClusterSpec::uniform(2, 2)
        .with_placement(Placement::LeastLoaded)
        .with_faults(FaultSpec::none().with_failure(0, at, None));
    let mut fleet = Cluster::new(spec, Tenant::fleet(1));
    let r = fleet
        .run_jobs(vec![light_job(0, at)])
        .expect("episode completes");
    assert_eq!(r.jobs_completed, 1);
    assert_eq!(r.jobs[0].machines.as_slice(), &[1]);
    assert_eq!(r.jobs[0].requeues, 0, "never placed on the dead machine");
    assert_eq!(r.fault.jobs_replaced, 0);
    assert_eq!(r.jobs[0].effective_arrival, at);
}

/// Tie law, recovery before re-placement: an arrival deferred by a total
/// outage wakes at the first scheduled recovery; that recovery is
/// processed first at the same instant, so the job lands on the recovered
/// machine right then.
#[test]
fn recovery_at_a_deferred_arrivals_wake_is_processed_first() {
    let down = SimTime::ZERO + SimDuration::from_us(1);
    let up = SimTime::ZERO + SimDuration::from_us(9);
    let spec = ClusterSpec::uniform(2, 2)
        .with_placement(Placement::LeastLoaded)
        .with_faults(
            FaultSpec::none()
                .with_failure(0, down, None)
                .with_failure(1, down, Some(up)),
        );
    let sink = TraceSink::on();
    let mut fleet = Cluster::new(spec, Tenant::fleet(1));
    fleet.set_trace_sink(sink.clone());
    let arrival = SimTime::ZERO + SimDuration::from_us(5);
    let r = fleet
        .run_jobs(vec![light_job(0, arrival)])
        .expect("episode completes");
    assert_eq!(r.jobs_completed, 1);
    assert_eq!(r.fault.jobs_lost, 0);
    assert_eq!(r.jobs[0].effective_arrival, up, "placed at the recovery");
    assert_eq!(
        r.jobs[0].machines.as_slice(),
        &[1],
        "on the recovered machine"
    );
    let trace = sink.drain().expect("sink is on");
    let at = |name: &str| {
        trace
            .records
            .iter()
            .position(|rec| rec.name == name)
            .unwrap_or_else(|| panic!("no {name} record"))
    };
    assert!(
        at("fault/recover") < at("replace"),
        "the recovery must be processed before the re-placement"
    );
    assert_eq!(trace.records[at("replace")].start, up);
}

/// Tie law, arrival before re-placement: an arrival at the very instant
/// an evicted remainder re-arrives is routed first. Least-loaded with two
/// idle survivors sends the first-processed job to machine 1 and the
/// second to machine 2.
#[test]
fn arrival_at_a_replacement_instant_is_routed_first() {
    let heavy = one_heavy_job(3);
    let base = ClusterSpec::uniform(3, 2).with_placement(Placement::LeastLoaded);
    let mut healthy = Cluster::new(base.clone(), Tenant::fleet(2));
    let h = healthy.run_jobs(heavy.clone()).expect("healthy completes");
    let kill = SimTime::ZERO + SimDuration::from_fs(h.makespan.as_fs() / 2);
    let spec = base.with_faults(FaultSpec::none().with_failure(0, kill, None));

    // The eviction alone fixes the re-placement instant.
    let mut probe = Cluster::new(spec.clone(), Tenant::fleet(2));
    let p = probe.run_jobs(heavy.clone()).expect("probe completes");
    assert_eq!(
        p.fault.jobs_replaced, 1,
        "the heavy job is caught in flight"
    );
    let replace_at = kill + p.fault.recovery_latency_max;
    assert!(replace_at > kill, "the state transfer takes time");

    let mut specs = heavy;
    specs.push(light_job(1, replace_at));
    let mut fleet = Cluster::new(spec, Tenant::fleet(2));
    let r = fleet.run_jobs(specs).expect("episode completes");
    assert_eq!(r.jobs_completed, 2);
    assert_eq!(r.fault.jobs_replaced, 1);
    assert_eq!(r.fault.recovery_latency_max, p.fault.recovery_latency_max);
    assert_eq!(r.jobs[1].effective_arrival, replace_at);
    assert_eq!(
        r.jobs[1].machines.as_slice(),
        &[1],
        "the arrival went first"
    );
    assert_eq!(
        r.jobs[0].machines.as_slice(),
        &[0, 2],
        "the re-placement second"
    );
}
