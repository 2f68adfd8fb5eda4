//! The seal-farm regression suite: pre-sealing a cold-start wave through
//! [`sofia::fleet::SealFarm`] is a host-side optimisation only. For a
//! wave of K distinct tenants (plus duplicate submissions within and
//! across tenants), farm-sealed batches must be **bit-identical** to the
//! serial reference, where one worker seals on the calling thread —
//! records, per-tenant statistics, virtual-time ticks, per-job cache
//! attribution and the image cache's own counters — at every worker
//! count and in both scheduling modes.

use sofia::crypto::KeySet;
use sofia::fleet::{
    AsyncConfig, AsyncFleet, ClassId, Fleet, FleetConfig, JobRecord, JobSpec, SchedMode, TenantId,
};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// K distinct tenants, each submitting one program cold, plus repeat
/// submissions — a provider-side cold-start wave.
fn wave_jobs(tenants: usize) -> (Vec<(TenantId, KeySet)>, Vec<JobSpec>) {
    let keys: Vec<(TenantId, KeySet)> = (0..tenants)
        .map(|t| (TenantId(t as u32 + 1), KeySet::from_seed(0xFA12 + t as u64)))
        .collect();
    let mut jobs = Vec::new();
    for (i, (id, _)) in keys.iter().enumerate() {
        let n = 6 + i as u32;
        let src = format!(
            "main: li t0, {n}
                   li t1, 1
             loop: mul t1, t1, t0
                   subi t0, t0, 1
                   bnez t0, loop
                   li a0, 0xFFFF0000
                   sw t1, 0(a0)
                   halt"
        );
        jobs.push(JobSpec::new(*id, src.clone(), 1_000_000));
        // Duplicate submission of the same image in the same wave: the
        // farm's single-flight must collapse it, attribution must not.
        if i % 2 == 0 {
            jobs.push(JobSpec::new(*id, src, 1_000_000));
        }
    }
    // One program two tenants share by *source* — never by image.
    for (id, _) in keys.iter().take(2) {
        jobs.push(JobSpec::new(*id, "main: li t2, 3\n halt", 1_000));
    }
    (keys, jobs)
}

type WaveResult = (
    Vec<JobRecord>,
    sofia::fleet::FleetStats,
    sofia::transform::cache::ImageCacheStats,
);

fn run_wave(workers: usize, mode: SchedMode) -> WaveResult {
    let (tenants, jobs) = wave_jobs(6);
    let mut fleet = Fleet::new(FleetConfig {
        workers,
        mode,
        ..Default::default()
    });
    for (id, keys) in &tenants {
        fleet.register_tenant(*id, keys.clone()).unwrap();
    }
    for job in jobs {
        fleet.submit(job).unwrap();
    }
    let records = fleet.run_batch();
    (records, fleet.stats(), fleet.seal_cache_stats())
}

/// The same wave on the driver with one host thread and `workers`
/// lanes: every seal runs on the calling thread.
fn run_wave_on_one_thread(
    workers: usize,
    mode: SchedMode,
) -> (
    Vec<JobRecord>,
    std::collections::BTreeMap<u32, sofia::fleet::TenantStats>,
) {
    let (tenants, jobs) = wave_jobs(6);
    let mut fleet = AsyncFleet::new(AsyncConfig {
        threads: 1,
        workers,
        mode,
        park_after: None,
        ..Default::default()
    });
    for (id, keys) in &tenants {
        fleet
            .register_tenant(*id, keys.clone(), ClassId(0))
            .unwrap();
    }
    for job in jobs {
        fleet.submit(job).unwrap();
    }
    fleet.run_until_idle();
    let mut records = fleet.drain_finished();
    records.sort_by_key(|r| r.job);
    (records, fleet.tenant_stats())
}

/// Per-job `seal_cache_hit` must match too: the farm assigns it
/// deterministically (the first job of an image in submission order is
/// the miss) at every worker count.
fn assert_identical(a: &WaveResult, b: &WaveResult, label: &str) {
    assert_eq!(a.0.len(), b.0.len(), "{label}: record count");
    for (x, y) in a.0.iter().zip(&b.0) {
        assert_eq!(x.job, y.job, "{label}");
        assert_eq!(x.tenant, y.tenant, "{label}");
        assert_eq!(x.outcome, y.outcome, "{label}: {:?}", x.job);
        assert_eq!(x.out_words, y.out_words, "{label}: {:?}", x.job);
        assert_eq!(x.violations, y.violations, "{label}: {:?}", x.job);
        assert_eq!(x.stats, y.stats, "{label}: {:?}", x.job);
        assert_eq!(
            x.seal_cache_hit, y.seal_cache_hit,
            "{label}: cache attribution of {:?}",
            x.job
        );
        assert_eq!(x.slices, y.slices, "{label}: {:?}", x.job);
        assert_eq!(x.slice_cycles, y.slice_cycles, "{label}: {:?}", x.job);
    }
    // Queue latency is summed start ticks — priced per worker count,
    // so it is pinned separately at matching counts below.
    let detick = |m: &std::collections::BTreeMap<u32, sofia::fleet::TenantStats>| {
        let mut m = m.clone();
        for s in m.values_mut() {
            s.queue_latency_ticks = 0;
        }
        m
    };
    assert_eq!(
        detick(&a.1.tenants),
        detick(&b.1.tenants),
        "{label}: per-tenant stats"
    );
    assert_eq!(
        (a.2.hits, a.2.misses, a.2.entries),
        (b.2.hits, b.2.misses, b.2.entries),
        "{label}: image cache counters"
    );
}

/// The tentpole invariant: the farm path is bit-identical to the serial
/// reference (one worker sealing on the calling thread) at every worker
/// count, in both scheduling modes — same records, same per-job cache
/// attribution, same per-tenant stats, same cache counters.
#[test]
fn farm_wave_is_bit_identical_to_inline_at_any_worker_count() {
    for mode in [
        SchedMode::RunToCompletion,
        SchedMode::FuelSliced { slice: 300 },
    ] {
        let reference = run_wave(1, mode);
        for workers in WORKER_COUNTS {
            let farm = run_wave(workers, mode);
            assert_identical(&farm, &reference, &format!("farm w{workers} {mode:?}"));
            // Virtual-time ticks are priced per worker count, so they
            // are pinned against the one-thread driver at the *same*
            // lane count: sealing on other threads must not move
            // simulated admission.
            let (inline, inline_tenants) = run_wave_on_one_thread(workers, mode);
            for (x, y) in farm.0.iter().zip(&inline) {
                assert_eq!(
                    (x.start_tick, x.end_tick, x.seal_cache_hit),
                    (y.start_tick, y.end_tick, y.seal_cache_hit),
                    "w{workers} {mode:?}: ticks of {:?}",
                    x.job
                );
            }
            for (tenant, stats) in &farm.1.tenants {
                assert_eq!(
                    stats.queue_latency_ticks, inline_tenants[tenant].queue_latency_ticks,
                    "w{workers} {mode:?}: queue latency of tenant#{tenant}"
                );
            }
        }
    }
}

/// Cold-wave accounting: K distinct tenants (each with 2 distinct-by-key
/// images for the shared trailer program) seal exactly once per image,
/// and only the first job of each image is a miss.
#[test]
fn cold_wave_seals_each_distinct_image_exactly_once() {
    for workers in WORKER_COUNTS {
        let (records, _, cache) = run_wave(workers, SchedMode::RunToCompletion);
        // 6 tenants × 1 program + 2 tenants × shared-source trailer
        // (distinct keys ⇒ distinct images) = 8 distinct images.
        assert_eq!(cache.misses, 8, "w{workers}");
        assert_eq!(cache.entries, 8, "w{workers}");
        let misses = records.iter().filter(|r| !r.seal_cache_hit).count();
        assert_eq!(misses, 8, "w{workers}: one attributed miss per image");
        assert!(records.iter().all(|r| r.outcome.is_halted()), "w{workers}");
    }
}

/// Seal failures flow through the farm unchanged: the bad program fails
/// at one worker and at four alike, is not cached, and healthy jobs in
/// the same wave are untouched.
#[test]
fn farm_preserves_seal_failures_bit_for_bit() {
    for workers in [1, 4] {
        let mut fleet = Fleet::new(FleetConfig {
            workers,
            ..Default::default()
        });
        let good = TenantId(1);
        let bad = TenantId(2);
        fleet.register_tenant(good, KeySet::from_seed(1)).unwrap();
        fleet.register_tenant(bad, KeySet::from_seed(2)).unwrap();
        fleet
            .submit(JobSpec::new(good, "main: li t0, 4\n halt", 1_000))
            .unwrap();
        fleet
            .submit(JobSpec::new(bad, "main: bogus t9", 1_000))
            .unwrap();
        let records = fleet.run_batch();
        assert!(records[0].outcome.is_halted(), "w{workers}");
        let sofia::fleet::JobOutcome::SealFailed(msg) = &records[1].outcome else {
            panic!(
                "w{workers}: expected SealFailed, got {:?}",
                records[1].outcome
            );
        };
        assert!(msg.contains("parse"), "w{workers}: {msg}");
        assert_eq!(fleet.seal_cache_stats().entries, 1, "w{workers}");
    }
}
