use super::*;
use crate::config::ScrubConfig;
use crate::loss::assess_second_failure;
use crate::report::LossCause;
use decluster_core::design::BlockDesign;
use decluster_core::layout::{DeclusteredLayout, Raid5Layout};
use decluster_core::recon::ReconAlgorithm;

fn small_layout(g: u16) -> Arc<dyn ParityLayout> {
    Arc::new(DeclusteredLayout::new(BlockDesign::complete(5, g).unwrap()).unwrap())
}

fn tiny_cfg() -> ArrayConfig {
    ArrayConfig::scaled(40)
}

/// A builder pre-scaled like [`tiny_cfg`], for tests that tweak knobs.
fn tiny_builder() -> crate::config::ArrayConfigBuilder {
    ArrayConfig::builder().cylinders(40)
}

fn sim(g: u16, spec: WorkloadSpec) -> ArraySim {
    ArraySim::new(small_layout(g), tiny_cfg(), spec, 1).unwrap()
}

#[test]
fn fault_free_light_reads_have_low_response() {
    let s = sim(4, WorkloadSpec::all_reads(10.0));
    let report = s.run_for(SimTime::from_secs(60), SimTime::from_secs(5));
    assert!(report.requests_measured > 400, "{report:?}");
    // A lightly-loaded single random read averages ~22 ms service and
    // little queueing.
    assert!(
        report.ops.all.mean_ms() > 5.0 && report.ops.all.mean_ms() < 40.0,
        "mean {}",
        report.ops.all.mean_ms()
    );
    assert_eq!(
        report.ops.reads.count() + report.ops.writes.count(),
        report.ops.all.count()
    );
    assert_eq!(report.ops.writes.count(), 0);
}

#[test]
fn writes_cost_more_than_reads() {
    let read_report = sim(4, WorkloadSpec::all_reads(10.0))
        .run_for(SimTime::from_secs(60), SimTime::from_secs(5));
    let write_report = sim(4, WorkloadSpec::all_writes(10.0))
        .run_for(SimTime::from_secs(60), SimTime::from_secs(5));
    assert!(
        write_report.ops.all.mean_ms() > read_report.ops.all.mean_ms() * 1.5,
        "writes {} vs reads {}",
        write_report.ops.all.mean_ms(),
        read_report.ops.all.mean_ms()
    );
}

#[test]
fn degraded_reads_slower_than_fault_free() {
    let ff = sim(4, WorkloadSpec::all_reads(20.0))
        .run_for(SimTime::from_secs(60), SimTime::from_secs(5));
    let mut s = sim(4, WorkloadSpec::all_reads(20.0));
    s.fail_disk(0).unwrap();
    let deg = s.run_for(SimTime::from_secs(60), SimTime::from_secs(5));
    assert!(
        deg.ops.all.mean_ms() > ff.ops.all.mean_ms(),
        "degraded {} vs fault-free {}",
        deg.ops.all.mean_ms(),
        ff.ops.all.mean_ms()
    );
}

#[test]
fn reconstruction_completes_and_accounts_every_unit() {
    let mut s = sim(4, WorkloadSpec::half_and_half(10.0));
    s.fail_disk(2).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
        .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    assert!(report.reconstruction_time.is_some(), "{report:?}");
    assert_eq!(
        report.units_swept + report.units_by_users,
        report.units_total
    );
    // Baseline sends no user work to the replacement.
    assert_eq!(report.units_by_users, 0);
    assert!(report.cycles.read_ms.count() > 0);
    assert!(report.survivor_utilization > 0.0);
    assert!(report.replacement_utilization > 0.0);
}

#[test]
fn user_writes_rebuild_some_units() {
    let mut s = sim(4, WorkloadSpec::all_writes(30.0));
    s.fail_disk(2).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::UserWrites))
        .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    assert!(report.reconstruction_time.is_some());
    assert!(
        report.units_by_users > 0,
        "direct writes should pre-rebuild units: {report:?}"
    );
    assert_eq!(
        report.units_swept + report.units_by_users,
        report.units_total
    );
}

#[test]
fn parallel_reconstruction_is_faster() {
    let recon_time = |processes| {
        let mut s = sim(4, WorkloadSpec::half_and_half(10.0));
        s.fail_disk(1).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(processes))
            .unwrap();
        s.run_until_reconstructed(SimTime::from_secs(100_000))
            .reconstruction_secs()
            .unwrap()
    };
    let single = recon_time(1);
    let eight = recon_time(8);
    assert!(
        eight < single * 0.5,
        "8-way {eight} not much faster than single {single}"
    );
}

#[test]
fn throttled_reconstruction_is_slower_but_gentler() {
    let run = |throttle_us| {
        let cfg = tiny_builder().recon_throttle_us(throttle_us).build();
        let mut s =
            ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(30.0), 1).unwrap();
        s.fail_disk(1).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
            .unwrap();
        s.run_until_reconstructed(SimTime::from_secs(200_000))
    };
    let fast = run(0);
    let slow = run(100_000); // 100 ms between cycles
    let (t_fast, t_slow) = (
        fast.reconstruction_secs().unwrap(),
        slow.reconstruction_secs().unwrap(),
    );
    assert!(
        t_slow > t_fast * 1.5,
        "throttle had no effect: {t_fast} vs {t_slow}"
    );
    assert!(
        slow.ops.all.mean_ms() < fast.ops.all.mean_ms(),
        "throttling should lower user response time: {} vs {}",
        slow.ops.all.mean_ms(),
        fast.ops.all.mean_ms()
    );
}

#[test]
fn recon_limit_reports_incomplete() {
    let mut s = sim(4, WorkloadSpec::half_and_half(10.0));
    s.fail_disk(0).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
        .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_ms(200));
    assert_eq!(report.reconstruction_time, None);
}

#[test]
fn raid5_reconstruction_works() {
    let layout = Arc::new(Raid5Layout::new(5).unwrap());
    let mut s = ArraySim::new(layout, tiny_cfg(), WorkloadSpec::half_and_half(10.0), 1).unwrap();
    s.fail_disk(4).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Redirect))
        .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    assert!(report.reconstruction_time.is_some());
    assert_eq!(
        report.units_swept + report.units_by_users,
        report.units_total
    );
}

#[test]
fn same_seed_reproduces_exactly() {
    let run = || {
        let mut s = sim(4, WorkloadSpec::half_and_half(15.0));
        s.fail_disk(3).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Redirect).processes(2))
            .unwrap();
        s.run_until_reconstructed(SimTime::from_secs(100_000))
    };
    let a = run();
    let b = run();
    assert_eq!(a.reconstruction_time, b.reconstruction_time);
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.units_swept, b.units_swept);
}

#[test]
fn recon_without_failure_is_rejected() {
    let err = sim(4, WorkloadSpec::all_reads(1.0))
        .start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
        .unwrap_err();
    assert!(err.to_string().contains("requires a failed disk"), "{err}");
}

#[test]
fn double_immediate_failure_is_rejected() {
    // At most one disk may be failed *before* the run; further
    // failures are scheduled so their loss impact can be assessed.
    let mut s = sim(4, WorkloadSpec::all_reads(1.0));
    s.fail_disk(0).unwrap();
    let err = s.fail_disk(1).unwrap_err();
    assert!(err.to_string().contains("already failed"), "{err}");
    assert!(s.fail_disk(9).is_err(), "out-of-range disk accepted");
}

#[test]
fn duplicate_scheduled_failure_is_rejected() {
    let mut s = sim(4, WorkloadSpec::all_reads(1.0));
    s.fail_disk_at(2, SimTime::from_secs(1)).unwrap();
    assert!(s.fail_disk_at(2, SimTime::from_secs(5)).is_err());
    assert!(s.fail_disk(2).is_err(), "disk 2 is already doomed");
    // A different disk is fine: that is the double-failure scenario.
    s.fail_disk(0).unwrap();
    assert!(s.fail_disk_at(0, SimTime::from_secs(9)).is_err());
}

#[test]
fn second_failure_in_degraded_mode_ends_run_with_loss() {
    let mut s = sim(4, WorkloadSpec::all_reads(10.0));
    s.fail_disk(0).unwrap();
    let plan = FaultPlan::new().fail_at(1, SimTime::from_secs(20));
    s.inject_faults(&plan).unwrap();
    let mapping_stripes: Vec<u64> = {
        let m = s.mapping();
        (0..m.stripes())
            .filter(|&st| {
                m.is_mapped(st) && {
                    let units = m.stripe_units(st);
                    units.iter().any(|u| u.disk == 0) && units.iter().any(|u| u.disk == 1)
                }
            })
            .collect()
    };
    let report = s.run_for(SimTime::from_secs(60), SimTime::from_secs(5));
    assert_eq!(
        report.elapsed,
        SimTime::from_secs(20),
        "run ends at the loss"
    );
    assert_eq!(
        report.data_loss.second_failure,
        Some((1, SimTime::from_secs(20)))
    );
    let ids: Vec<u64> = report.data_loss.stripes.iter().map(|l| l.stripe).collect();
    assert_eq!(ids, mapping_stripes, "exact lost-stripe set");
    assert_eq!(report.data_loss.rebuilt_before_loss, None);
}

#[test]
fn second_failure_mid_rebuild_truncates_loss_by_progress() {
    let mut s = sim(4, WorkloadSpec::all_reads(5.0));
    s.fail_disk(0).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(4))
        .unwrap();
    // First find how long an unmolested rebuild takes.
    let clean = {
        let mut c = sim(4, WorkloadSpec::all_reads(5.0));
        c.fail_disk(0).unwrap();
        c.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(4))
            .unwrap();
        c.run_until_reconstructed(SimTime::from_secs(100_000))
    };
    let t = clean.reconstruction_secs().unwrap();
    let mid = SimTime::from_secs_f64(t * 0.5);
    s.inject_faults(&FaultPlan::new().fail_at(2, mid)).unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    assert_eq!(report.reconstruction_time, None, "rebuild was cut short");
    let loss = &report.data_loss;
    assert_eq!(loss.second_failure, Some((2, mid)));
    let frac = loss.rebuilt_fraction_before_loss().unwrap();
    assert!(frac > 0.1 && frac < 0.9, "half-way failure, got {frac}");
    assert!(
        !loss.is_empty(),
        "mid-rebuild double failure must lose data"
    );
    // Fewer stripes lost than a no-rebuild double failure would lose.
    let worst = assess_second_failure(s_mapping(), Some(0), 2, None, None).len();
    assert!(
        loss.stripes.len() < worst,
        "{} !< {worst}",
        loss.stripes.len()
    );
}

/// Mapping of the standard `small_layout(4)` + `tiny_cfg()` sim, for
/// assertions that need it after the sim was consumed.
fn s_mapping() -> &'static ArrayMapping {
    use std::sync::OnceLock;
    static MAPPING: OnceLock<ArrayMapping> = OnceLock::new();
    MAPPING.get_or_init(|| {
        ArraySim::new(small_layout(4), tiny_cfg(), WorkloadSpec::all_reads(1.0), 1)
            .unwrap()
            .mapping
    })
}

#[test]
fn second_failure_after_completion_loses_nothing() {
    // Acceptance criterion: once the replacement is fully rebuilt the
    // array tolerates a fresh failure with zero data loss.
    let clean = {
        let mut c = sim(4, WorkloadSpec::all_reads(5.0));
        c.fail_disk(0).unwrap();
        c.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(4))
            .unwrap();
        c.run_until_reconstructed(SimTime::from_secs(100_000))
    };
    let t = clean.reconstruction_secs().unwrap();
    let mut s = sim(4, WorkloadSpec::all_reads(5.0));
    s.fail_disk(0).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(4))
        .unwrap();
    let late = SimTime::from_secs_f64(t * 1.5);
    s.inject_faults(&FaultPlan::new().fail_at(3, late)).unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    assert!(
        report.reconstruction_time.is_some(),
        "rebuild completed first"
    );
    assert!(report.data_loss.is_empty(), "{:?}", report.data_loss);
    assert_eq!(report.data_loss.second_failure, Some((3, late)));
    assert_eq!(
        report.data_loss.rebuilt_before_loss,
        Some((report.units_total, report.units_total))
    );
}

#[test]
fn second_failure_is_deterministic() {
    let run = || {
        let mut s = sim(4, WorkloadSpec::half_and_half(15.0));
        s.fail_disk(0).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Redirect).processes(2))
            .unwrap();
        s.inject_faults(&FaultPlan::new().fail_at(1, SimTime::from_secs(30)))
            .unwrap();
        s.run_until_reconstructed(SimTime::from_secs(100_000))
    };
    let a = run();
    let b = run();
    assert_eq!(a.data_loss, b.data_loss);
    assert_eq!(a.units_swept, b.units_swept);
}

#[test]
fn latent_media_errors_during_rebuild_are_accounted() {
    // A high latent-error rate guarantees some reconstruction cycles
    // hit unreadable survivors: those stripes are lost, the offsets
    // resolve as lost, and the accounting identity still holds.
    let cfg = tiny_builder()
        .media_faults(decluster_disk::MediaFaultConfig::none().with_latent_rate(2e-4))
        .build();
    let mut s = ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(10.0), 1).unwrap();
    s.fail_disk(2).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(2))
        .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    assert!(report.reconstruction_time.is_some(), "sweep must terminate");
    assert_eq!(
        report.units_swept + report.units_by_users + report.units_lost,
        report.units_total
    );
    assert!(report.units_lost > 0, "2e-4 latent rate should lose units");
    assert!(!report.data_loss.is_empty());
    assert!(report
        .data_loss
        .stripes
        .iter()
        .all(|l| matches!(l.cause, LossCause::MediaError { .. })));
}

#[test]
fn transient_errors_only_slow_the_array_down() {
    // Pure transient faults (no latent errors) retry and succeed:
    // nothing is lost, but response time goes up.
    let faulty_cfg = tiny_builder()
        .media_faults(decluster_disk::MediaFaultConfig::none().with_transient_rate(0.05))
        .build();
    let clean = sim(4, WorkloadSpec::all_reads(15.0))
        .run_for(SimTime::from_secs(40), SimTime::from_secs(4));
    let faulty = ArraySim::new(
        small_layout(4),
        faulty_cfg,
        WorkloadSpec::all_reads(15.0),
        1,
    )
    .unwrap()
    .run_for(SimTime::from_secs(40), SimTime::from_secs(4));
    assert!(faulty.data_loss.is_empty());
    assert_eq!(clean.requests_measured, faulty.requests_measured);
    assert!(
        faulty.ops.all.mean_ms() > clean.ops.all.mean_ms(),
        "retries should cost latency: {} vs {}",
        faulty.ops.all.mean_ms(),
        clean.ops.all.mean_ms()
    );
}

#[test]
fn multi_unit_accesses_complete_and_measure_once() {
    let spec = WorkloadSpec::half_and_half(10.0).with_access_units(3);
    let s = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1).unwrap();
    let report = s.run_for(SimTime::from_secs(30), SimTime::from_secs(3));
    assert!(report.requests_measured > 100);
    // One response per request, even though each request spans units.
    assert_eq!(
        report.ops.reads.count() + report.ops.writes.count(),
        report.ops.all.count()
    );
}

#[test]
fn full_stripe_writes_beat_unit_writes_per_byte() {
    // At equal *byte* throughput, stripe-aligned 3-unit writes on a
    // G=4 layout cost G accesses per stripe instead of 12, so the
    // array sustains them with lower disk utilization.
    let unit_spec = WorkloadSpec::all_writes(30.0);
    let stripe_spec = WorkloadSpec::all_writes(10.0).with_access_units(3);
    let unit_run = ArraySim::new(small_layout(4), tiny_cfg(), unit_spec, 1)
        .unwrap()
        .run_for(SimTime::from_secs(30), SimTime::from_secs(3));
    let stripe_run = ArraySim::new(small_layout(4), tiny_cfg(), stripe_spec, 1)
        .unwrap()
        .run_for(SimTime::from_secs(30), SimTime::from_secs(3));
    assert!(
        stripe_run.mean_disk_utilization < unit_run.mean_disk_utilization * 0.7,
        "large writes should use far less disk time: {} vs {}",
        stripe_run.mean_disk_utilization,
        unit_run.mean_disk_utilization
    );
}

#[test]
fn multi_unit_degraded_reconstruction_still_completes() {
    let spec = WorkloadSpec::half_and_half(10.0).with_access_units(3);
    let mut s = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1).unwrap();
    s.fail_disk(2).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::UserWrites).processes(2))
        .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    assert!(report.reconstruction_time.is_some());
    assert_eq!(
        report.units_swept + report.units_by_users,
        report.units_total
    );
}

#[test]
fn distributed_sparing_completes_without_a_replacement() {
    let cfg = tiny_builder().distributed_spares(900).build();
    let mut s = ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(10.0), 1).unwrap();
    s.fail_disk(2).unwrap();
    s.start_reconstruction(
        ReconOptions::new(ReconAlgorithm::Redirect)
            .processes(4)
            .distributed(),
    )
    .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    assert!(report.reconstruction_time.is_some(), "{report:?}");
    assert_eq!(
        report.units_swept + report.units_by_users,
        report.units_total
    );
    // No replacement disk exists.
    assert_eq!(report.replacement_utilization, 0.0);
}

#[test]
fn distributed_sparing_crossover_with_parallelism() {
    // The repair-organization trade-off: a dedicated replacement
    // absorbs reconstruction writes for free while its (sequential)
    // write stream keeps up, but it is a *single* disk — with enough
    // parallel processes it saturates while distributed sparing keeps
    // scaling by spreading writes over all survivors. On a wide
    // low-alpha array (21 disks, G = 4) the crossover sits between
    // 8- and 32-way.
    let recon = |distributed: bool, processes: usize| {
        let layout = decluster_core::layout::DeclusteredLayout::new(
            decluster_core::design::appendix::design_for_group_size(4).unwrap(),
        )
        .unwrap();
        let layout: Arc<dyn ParityLayout> = Arc::new(layout);
        let cfg = if distributed {
            tiny_builder().distributed_spares(200).build()
        } else {
            ArrayConfig::scaled(40)
        };
        let mut s = ArraySim::new(layout, cfg, WorkloadSpec::half_and_half(105.0), 1).unwrap();
        s.fail_disk(0).unwrap();
        if distributed {
            s.start_reconstruction(
                ReconOptions::new(ReconAlgorithm::Baseline)
                    .processes(processes)
                    .distributed(),
            )
            .unwrap();
        } else {
            s.start_reconstruction(
                ReconOptions::new(ReconAlgorithm::Baseline).processes(processes),
            )
            .unwrap();
        }
        s.run_until_reconstructed(SimTime::from_secs(100_000))
            .reconstruction_secs()
            .unwrap()
    };
    // Low parallelism: dedicated wins (its writes are free sequential
    // bandwidth; spare writes burden the survivors).
    assert!(recon(false, 8) < recon(true, 8));
    // High parallelism: the replacement saturates; distributed wins.
    assert!(recon(true, 32) < recon(false, 32));
}

#[test]
fn distributed_sparing_serves_redirected_reads_from_spares() {
    // After rebuild completes mid-run, redirected reads hit spare
    // slots; correctness here is "the run completes and measures
    // responses" — address-level checks live in the planner tests.
    let cfg = tiny_builder().distributed_spares(900).build();
    let mut s = ArraySim::new(small_layout(4), cfg, WorkloadSpec::all_reads(20.0), 1).unwrap();
    s.fail_disk(0).unwrap();
    s.start_reconstruction(
        ReconOptions::new(ReconAlgorithm::RedirectPiggyback)
            .processes(8)
            .distributed(),
    )
    .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    assert!(report.reconstruction_time.is_some());
    assert!(report.ops.all.count() > 0);
}

#[test]
fn distributed_sparing_needs_reservation() {
    let mut s =
        ArraySim::new(small_layout(4), tiny_cfg(), WorkloadSpec::all_reads(1.0), 1).unwrap();
    s.fail_disk(0).unwrap();
    let err = s
        .start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).distributed())
        .unwrap_err();
    assert!(
        err.to_string().contains("requires reserved spare space"),
        "{err}"
    );
}

#[test]
fn mid_run_failure_transitions_to_degraded() {
    // Fail disk 1 at t = 15 s of a 40 s run: every request completes
    // (retried if its accesses were lost) and the response-time mean
    // lands between the pure fault-free and pure degraded values.
    let spec = WorkloadSpec::all_reads(30.0);
    let fault_free = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1)
        .unwrap()
        .run_for(SimTime::from_secs(40), SimTime::from_secs(4));
    let mut deg_sim = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1).unwrap();
    deg_sim.fail_disk(1).unwrap();
    let degraded = deg_sim.run_for(SimTime::from_secs(40), SimTime::from_secs(4));
    let mut mid_sim = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1).unwrap();
    mid_sim.fail_disk_at(1, SimTime::from_secs(15)).unwrap();
    let mid = mid_sim.run_for(SimTime::from_secs(40), SimTime::from_secs(4));
    // Same arrival stream in all three runs: every measured request
    // completed despite the transition.
    assert_eq!(mid.requests_measured, fault_free.requests_measured);
    assert!(
        mid.ops.all.mean_ms() >= fault_free.ops.all.mean_ms() * 0.95,
        "mid {} vs fault-free {}",
        mid.ops.all.mean_ms(),
        fault_free.ops.all.mean_ms()
    );
    assert!(
        mid.ops.all.mean_ms() <= degraded.ops.all.mean_ms() * 1.15,
        "mid {} vs degraded {}",
        mid.ops.all.mean_ms(),
        degraded.ops.all.mean_ms()
    );
}

#[test]
fn mid_run_failure_with_multi_unit_requests() {
    let spec = WorkloadSpec::half_and_half(20.0).with_access_units(3);
    let mut s = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1).unwrap();
    s.fail_disk_at(0, SimTime::from_secs(10)).unwrap();
    let report = s.run_for(SimTime::from_secs(30), SimTime::from_secs(2));
    assert!(report.requests_measured > 100);
    assert_eq!(
        report.ops.reads.count() + report.ops.writes.count(),
        report.ops.all.count()
    );
}

#[test]
fn mid_run_failure_is_deterministic() {
    let run = || {
        let mut s = ArraySim::new(
            small_layout(4),
            tiny_cfg(),
            WorkloadSpec::half_and_half(25.0),
            3,
        )
        .unwrap();
        s.fail_disk_at(2, SimTime::from_secs(12)).unwrap();
        s.run_for(SimTime::from_secs(30), SimTime::from_secs(2))
    };
    assert_eq!(run(), run());
}

#[test]
fn fault_injection_is_rejected_after_run_start() {
    let mut s = sim(4, WorkloadSpec::all_reads(1.0));
    s.fail_disk(0).unwrap();
    let report = {
        let mut probe = sim(4, WorkloadSpec::all_reads(1.0));
        probe.started = true;
        assert!(probe.fail_disk(0).is_err());
        assert!(probe.fail_disk_at(1, SimTime::from_secs(1)).is_err());
        assert!(probe
            .inject_faults(&FaultPlan::new().fail_at(1, SimTime::from_secs(1)))
            .is_err());
        s.run_for(SimTime::from_secs(5), SimTime::from_secs(1))
    };
    assert!(report.data_loss.is_empty());
}

#[test]
fn trace_replay_matches_synthetic_run() {
    // Recording the synthetic stream and replaying it must produce a
    // bit-identical simulation.
    use decluster_workload::trace::Trace;
    let spec = WorkloadSpec::half_and_half(20.0);
    let synthetic = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1)
        .unwrap()
        .run_for(SimTime::from_secs(20), SimTime::from_secs(2));

    let mapping_units = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1)
        .unwrap()
        .mapping()
        .data_units();
    let mut gen = decluster_workload::Workload::new(
        spec,
        mapping_units,
        tiny_cfg().seed ^ 1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let trace = Trace::record(&mut gen, SimTime::from_secs(20));
    let replayed = ArraySim::with_trace(small_layout(4), tiny_cfg(), trace)
        .unwrap()
        .run_for(SimTime::from_secs(20), SimTime::from_secs(2));
    assert_eq!(synthetic.ops, replayed.ops);
    assert_eq!(synthetic.requests_measured, replayed.requests_measured);
}

#[test]
fn trace_beyond_capacity_is_rejected() {
    use decluster_workload::trace::Trace;
    let trace: Trace = "0 R 999999999 1".parse().unwrap();
    let err = ArraySim::with_trace(small_layout(4), tiny_cfg(), trace);
    assert!(err.is_err());
}

#[test]
fn hot_spot_workload_runs() {
    use decluster_workload::Locality;
    let spec = WorkloadSpec::half_and_half(20.0).with_locality(Locality::eighty_twenty());
    let report = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1)
        .unwrap()
        .run_for(SimTime::from_secs(20), SimTime::from_secs(2));
    assert!(report.requests_measured > 200);
}

#[test]
fn progress_trajectory_is_monotone_and_complete() {
    let mut s = sim(4, WorkloadSpec::half_and_half(10.0));
    s.fail_disk(1).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(2))
        .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    let progress = &report.progress;
    assert!(progress.len() >= 100, "only {} samples", progress.len());
    for pair in progress.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "time went backwards");
        assert!(pair[0].1 < pair[1].1, "fraction not increasing");
    }
    assert!((progress.last().unwrap().1 - 1.0).abs() < 1e-12);
    assert!((progress.last().unwrap().0 - report.reconstruction_secs().unwrap()).abs() < 1e-9);
}

#[test]
fn recon_priority_protects_user_response() {
    let run = |priority| {
        let cfg = tiny_builder().recon_priority(priority).build();
        let mut s =
            ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(40.0), 1).unwrap();
        s.fail_disk(1).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(8))
            .unwrap();
        s.run_until_reconstructed(SimTime::from_secs(200_000))
    };
    let plain = run(false);
    let prioritized = run(true);
    assert!(
        prioritized.ops.all.mean_ms() < plain.ops.all.mean_ms(),
        "priority scheduling should lower user response: {} vs {}",
        prioritized.ops.all.mean_ms(),
        plain.ops.all.mean_ms()
    );
    assert!(
        prioritized.reconstruction_secs().unwrap() >= plain.reconstruction_secs().unwrap(),
        "priority scheduling cannot speed reconstruction up"
    );
}

#[test]
#[should_panic(expected = "steady-state")]
fn run_for_rejects_reconstruction() {
    let mut s = sim(4, WorkloadSpec::all_reads(1.0));
    s.fail_disk(0).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
        .unwrap();
    s.run_for(SimTime::from_secs(1), SimTime::ZERO);
}

fn latent_cfg(scrub: ScrubConfig) -> ArrayConfig {
    tiny_builder()
        .media_faults(decluster_disk::MediaFaultConfig::none().with_latent_rate(2e-4))
        .scrub(scrub)
        .build()
}

#[test]
fn scrubber_heals_latent_defects() {
    let run = |scrub| {
        ArraySim::new(
            small_layout(4),
            latent_cfg(scrub),
            WorkloadSpec::all_reads(2.0),
            1,
        )
        .unwrap()
        .run_for(SimTime::from_secs(60), SimTime::from_secs(5))
    };
    let unscrubbed = run(ScrubConfig::off());
    assert!(unscrubbed.scrub.is_none(), "scrub off reports no scrub");
    let baseline = unscrubbed.exposed_defects.expect("faults are active");
    assert!(baseline > 0, "2e-4 latent rate should seed defects");

    let scrubbed = run(ScrubConfig::on().with_interval_us(500));
    let report = scrubbed.scrub.expect("scrub on reports the patrol");
    assert!(report.stripes_scanned > 0, "{report:?}");
    assert!(report.units_read >= report.stripes_scanned * 3);
    assert!(report.errors_found > 0, "patrol must hit latent defects");
    assert_eq!(
        report.errors_found, report.errors_repaired,
        "fault-free stripes always repair from parity"
    );
    let exposed = scrubbed.exposed_defects.expect("faults are active");
    assert!(
        exposed < baseline,
        "patrol should shrink exposure: {exposed} vs {baseline}"
    );
}

#[test]
fn scrubber_backs_off_under_load_and_is_bounded() {
    let cfg = tiny_builder().scrub(ScrubConfig::on()).build();
    let report = ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(60.0), 1)
        .unwrap()
        .run_for(SimTime::from_secs(30), SimTime::from_secs(3));
    let scrub = report.scrub.expect("scrub on");
    assert!(
        scrub.backoffs > 0,
        "a busy array must force backoffs: {scrub:?}"
    );
}

#[test]
fn scrub_accounting_identity_holds_during_rebuild() {
    let cfg = latent_cfg(ScrubConfig::on().with_interval_us(500));
    let mut s = ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(10.0), 1).unwrap();
    s.fail_disk(2).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(2))
        .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    assert!(report.reconstruction_time.is_some(), "sweep must terminate");
    assert_eq!(
        report.units_swept + report.units_by_users + report.units_lost,
        report.units_total,
        "scrub traffic must not leak into sweep accounting"
    );
    let scrub = report.scrub.expect("scrub on");
    assert!(scrub.stripes_scanned > 0);
}

#[test]
fn crash_mid_run_classifies_torn_and_dirty_stripes() {
    // Near-saturating write load: the disk queues are never empty, so
    // the cut is guaranteed to land amid half-applied parity updates.
    let mut s = sim(4, WorkloadSpec::all_writes(55.0));
    s.inject_crash(&CrashPlan::at(SimTime::from_secs(5)))
        .unwrap();
    let report = s.run_for(SimTime::from_secs(60), SimTime::ZERO);
    let crash = report.crash.expect("planned crash must fire");
    assert_eq!(crash.at, SimTime::from_secs(5));
    assert_eq!(crash.failed_disk, None);
    assert!(
        !crash.dirty_stripes.is_empty(),
        "a saturating write load always has writes in flight"
    );
    for torn in &crash.torn_stripes {
        assert!(
            crash.dirty_stripes.contains(torn),
            "torn stripe {torn} missing from dirty set"
        );
    }
    // The cut ends the run: nothing arrives after it.
    assert!(report.elapsed <= SimTime::from_secs(5));
}

#[test]
fn crash_during_rebuild_ends_the_run_with_a_report() {
    let mut s = sim(4, WorkloadSpec::half_and_half(10.0));
    s.fail_disk(1).unwrap();
    s.inject_crash(&CrashPlan::at(SimTime::from_secs(10)))
        .unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(2))
        .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    let crash = report.crash.as_ref().expect("planned crash must fire");
    assert_eq!(crash.failed_disk, Some(1));
    assert!(
        report.reconstruction_time.is_none(),
        "power cut mid-rebuild leaves the sweep unfinished"
    );
    assert!(
        !crash.dirty_stripes.is_empty(),
        "rebuild writes were in flight"
    );
}

#[test]
fn crash_injection_is_rejected_after_start_or_twice() {
    let mut s = sim(4, WorkloadSpec::all_reads(5.0));
    s.inject_crash(&CrashPlan::at(SimTime::from_secs(2)))
        .unwrap();
    assert!(
        s.inject_crash(&CrashPlan::at(SimTime::from_secs(3)))
            .is_err(),
        "double crash plan accepted"
    );
}

#[test]
fn crash_report_feeds_recovery_end_to_end() {
    let mut s = sim(4, WorkloadSpec::all_writes(55.0));
    s.inject_crash(&CrashPlan::at(SimTime::from_secs(5)))
        .unwrap();
    let report = s.run_for(SimTime::from_secs(60), SimTime::ZERO);
    let crash = report.crash.expect("planned crash must fire");
    assert!(
        !crash.torn_stripes.is_empty(),
        "a saturated cut tears writes"
    );
    let full = crate::recovery::recover(
        small_layout(4),
        &tiny_cfg(),
        &crash,
        crate::report::RecoveryPolicy::FullResync,
    )
    .unwrap();
    let drl = crate::recovery::recover(
        small_layout(4),
        &tiny_cfg(),
        &crash,
        crate::report::RecoveryPolicy::DirtyRegionLog,
    )
    .unwrap();
    assert_eq!(full.torn_found, crash.torn_stripes.len() as u64);
    assert_eq!(drl.torn_found, full.torn_found);
    assert_eq!(drl.torn_repaired, drl.torn_found);
    assert!(drl.resync_units_read < full.resync_units_read);
}

#[test]
fn scrub_off_is_byte_identical_to_no_scrub_config() {
    // The master switch must cost nothing: a disabled scrubber cannot
    // perturb the event sequence.
    let a = sim(4, WorkloadSpec::half_and_half(20.0))
        .run_for(SimTime::from_secs(20), SimTime::from_secs(2));
    let b = ArraySim::new(
        small_layout(4),
        tiny_builder()
            .scrub(ScrubConfig::off().with_interval_us(1))
            .build(),
        WorkloadSpec::half_and_half(20.0),
        1,
    )
    .unwrap()
    .run_for(SimTime::from_secs(20), SimTime::from_secs(2));
    assert_eq!(a.ops.all.mean_ms(), b.ops.all.mean_ms());
    assert_eq!(a.requests_measured, b.requests_measured);
}

#[test]
fn recorder_probe_observes_without_perturbing() {
    use decluster_sim::Recorder;
    let spec = WorkloadSpec::half_and_half(20.0);
    let plain = sim(4, spec).run_for(SimTime::from_secs(30), SimTime::from_secs(3));
    let probed = ArraySim::new_probed(small_layout(4), tiny_cfg(), spec, 1, Recorder::new())
        .unwrap()
        .run_for(SimTime::from_secs(30), SimTime::from_secs(3));
    // Instrumentation is read-only: every simulated quantity matches.
    assert_eq!(plain.ops, probed.ops);
    assert_eq!(plain.events_processed, probed.events_processed);
    assert!(plain.observations.is_none());
    let obs = probed.observations.expect("recorder must report");
    let reads = obs.class(OpClass::UserRead).expect("all classes present");
    assert_eq!(reads.count(), probed.ops.reads.count());
    assert!((reads.mean_ms() - probed.ops.reads.mean_ms()).abs() < 1e-9);
    // One utilization timeline per disk, with samples in [0, 1].
    assert_eq!(obs.timelines.len(), 5);
    for tl in &obs.timelines {
        assert!(!tl.samples.is_empty(), "disk {} never sampled", tl.disk);
        for s in &tl.samples {
            assert!((0.0..=1.0).contains(&s.utilization));
        }
    }
}

#[test]
fn recorder_probe_sees_recon_scrub_and_progress() {
    use decluster_sim::Recorder;
    let mut s = ArraySim::new_probed(
        small_layout(4),
        latent_cfg(ScrubConfig::on().with_interval_us(50_000)),
        WorkloadSpec::half_and_half(10.0),
        1,
        Recorder::new(),
    )
    .unwrap();
    s.fail_disk(1).unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Redirect).processes(2))
        .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
    assert!(report.reconstruction_time.is_some());
    let obs = report.observations.expect("recorder must report");
    assert!(obs.class(OpClass::ReconRead).unwrap().count() > 0);
    assert!(obs.class(OpClass::ReconWrite).unwrap().count() > 0);
    assert!(obs.class(OpClass::Scrub).unwrap().count() > 0);
    assert_eq!(obs.recon_total, report.units_total);
    assert!(!obs.recon_progress.is_empty());
    for pair in obs.recon_progress.windows(2) {
        assert!(pair[0].t_us <= pair[1].t_us);
        assert!(pair[0].rebuilt < pair[1].rebuilt);
    }
    assert_eq!(
        obs.recon_progress.last().unwrap().rebuilt,
        report.units_total
    );
}

#[test]
fn event_queue_never_regrows_mid_run() {
    // The scrubber's backoff re-arm (and injected faults, crashes,
    // recon kicks) must all fit in the capacity reserved before the
    // first event pops; regrowth mid-run would mean the reservation
    // undercounts an event source.
    let mut s = ArraySim::new(
        small_layout(4),
        latent_cfg(ScrubConfig::on().with_interval_us(20_000)),
        WorkloadSpec::half_and_half(30.0),
        1,
    )
    .unwrap();
    s.fail_disk_at(2, SimTime::from_secs(4)).unwrap();
    s.measure_from = SimTime::from_secs(1);
    s.arrival_cutoff = SimTime::from_secs(20);
    s.prepare_run();
    let reserved = s.queue.capacity();
    while let Some((now, event)) = s.queue.pop() {
        s.dispatch(now, event);
        if s.terminal_at.is_some() {
            break;
        }
    }
    assert!(s.events_processed > 1_000, "run was non-trivial");
    assert_eq!(
        s.queue.capacity(),
        reserved,
        "event heap regrew past its up-front reservation"
    );
}
