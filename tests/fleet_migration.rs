//! Integration: job migration across fleets. A mixed 3-tenant job mix
//! is run partway in one fleet, checkpointed mid-flight, carried as
//! bytes, and adopted by a **freshly constructed** second fleet at a
//! different worker count — and every job finishes with
//! bit-identical outcome, output, violations, statistics (simulated
//! cycles included) and per-slice virtual-time costs to a run that
//! never migrated. A tampered tenant's job that migrates *before* its
//! violation fires still traps in the adopting fleet and quarantines
//! only its tenant there. The same holds for a parked job of the async
//! driver, and virtual time prices only the quanta each fleet serves.

use sofia::attacks::victims::control_loop_victim;
use sofia::crypto::KeySet;
use sofia::fleet::{AsyncConfig, AsyncFleet, ClassId, JobCheckpoint, JobId, JobRecord, Sabotage};
use sofia::prelude::*;
use sofia::transform::Transformer;

const SLICE: u64 = 150;

fn tenant_seed(id: u32) -> u64 {
    0xF1EE7 + id as u64
}

fn fleet_with_tenants(workers: usize) -> Fleet {
    let mut fleet = Fleet::new(FleetConfig {
        workers,
        mode: SchedMode::FuelSliced { slice: SLICE },
        ..Default::default()
    });
    for id in 1..=3u32 {
        fleet
            .register_tenant(TenantId(id), KeySet::from_seed(tenant_seed(id)))
            .unwrap();
    }
    fleet
}

fn loop_job(n: u32) -> String {
    format!(
        "main: li t0, {n}
               li t1, 0
         loop: add t1, t1, t0
               subi t0, t0, 1
               bnez t0, loop
               li a0, 0xFFFF0000
               sw t1, 0(a0)
               halt"
    )
}

/// ROM word index inside the block holding the `done` epilogue of
/// [`control_loop_victim`] — the late tamper point a migrating job only
/// reaches in the adopting fleet.
fn epilogue_word(n: u32) -> usize {
    let keys = KeySet::from_seed(tenant_seed(3));
    let image = Transformer::new(keys)
        .transform(&asm::parse(&control_loop_victim(n)).unwrap())
        .unwrap();
    ((image.symbols["done"] - image.text_base) / 4) as usize
}

/// The job mix: per tenant one short job (finishes inside the first
/// quantum) and one long job (suspends and migrates); tenant 3's long
/// job additionally carries a late-block sabotage.
fn submit_mix(fleet: &mut Fleet) -> usize {
    let tampered_word = epilogue_word(40);
    for tenant in 1..=3u32 {
        fleet
            .submit(JobSpec::new(
                TenantId(tenant),
                loop_job(8 + tenant),
                100_000,
            ))
            .unwrap();
        let long = if tenant == 3 {
            JobSpec::new(TenantId(3), control_loop_victim(40), 100_000).with_sabotage(
                Sabotage::FlipRomWord {
                    word: tampered_word,
                    mask: 0x8000_0001,
                },
            )
        } else {
            JobSpec::new(TenantId(tenant), loop_job(180 + tenant), 100_000)
        };
        fleet.submit(long).unwrap();
    }
    6
}

/// The migration-invariant record surface: everything except the
/// adopting fleet's seal-cache attribution and its batch-local ticks.
type RecordEssence = (
    TenantId,
    String,
    Vec<u32>,
    Vec<Violation>,
    String,
    bool,
    u32,
    Vec<u64>,
);

fn essence(r: &JobRecord) -> RecordEssence {
    (
        r.tenant,
        format!("{:?}", r.outcome),
        r.out_words.clone(),
        r.violations.clone(),
        format!("{:?}", r.stats),
        r.retried,
        r.slices,
        r.slice_cycles.clone(),
    )
}

#[test]
fn migrated_mix_finishes_bit_identical_across_fleets() {
    // Reference: the same mix, never migrated.
    let mut reference = fleet_with_tenants(4);
    let n = submit_mix(&mut reference);
    let ref_records = reference.run_batch();
    assert_eq!(ref_records.len(), n);

    for workers2 in [1usize, 2, 7] {
        // Fleet 1 serves exactly one quantum per job, then holds the
        // survivors.
        let mut fleet1 = fleet_with_tenants(4);
        submit_mix(&mut fleet1);
        let finished1 = fleet1.run_batch_capped(1);
        let suspended = fleet1.queued_jobs();
        assert!(
            !finished1.is_empty() && suspended.len() >= 3,
            "mix must split: {} finished, {} suspended",
            finished1.len(),
            suspended.len()
        );
        // The tampered long job must be among the migrants — its
        // violation fires only in the adopting fleet.
        assert!(
            finished1.iter().all(|r| r.violations.is_empty()),
            "tampered job violated before migrating"
        );
        assert_eq!(
            fleet1.tenant_state(TenantId(3)),
            Some(sofia::fleet::TenantState::Active)
        );

        // Checkpoint each survivor, carry it as bytes, adopt it in a
        // freshly constructed fleet with a different worker count.
        let mut fleet2 = fleet_with_tenants(workers2);
        for &id in &suspended {
            let ckpt = fleet1.checkpoint_job(id).unwrap();
            let bytes = ckpt.to_bytes();
            let decoded = JobCheckpoint::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, ckpt, "checkpoint byte roundtrip");
            fleet2.adopt_job(decoded).unwrap();
        }
        assert_eq!(fleet1.pending_jobs(), 0);
        let finished2 = fleet2.run_batch();
        assert_eq!(finished1.len() + finished2.len(), n);

        // Reassemble in original submission order: fleet-1 ids are the
        // submission indices; fleet-2 records are in adoption order,
        // which is the suspended jobs' submission order.
        let mut merged: Vec<Option<&JobRecord>> = vec![None; n];
        for r in &finished1 {
            merged[r.job.0 as usize] = Some(r);
        }
        for (slot, r) in suspended.iter().zip(&finished2) {
            merged[slot.0 as usize] = Some(r);
        }
        for (i, (got, want)) in merged.iter().zip(&ref_records).enumerate() {
            let got = got.expect("every job accounted for");
            assert_eq!(
                essence(got),
                essence(want),
                "job {i} diverged after migrating to {workers2} workers"
            );
        }

        // Work conservation across the split: the virtual-time cost of
        // the whole mix is preserved, so fleet accounting stays honest.
        let cost = |rs: &[JobRecord]| rs.iter().flat_map(|r| r.slice_cycles.iter()).sum::<u64>();
        assert_eq!(
            cost(&finished1) + cost(&finished2),
            cost(&ref_records),
            "virtual-time cycles lost or invented by the migration"
        );

        // Containment lands in the adopting fleet, on the right tenant,
        // and nowhere else.
        use sofia::fleet::TenantState;
        assert_eq!(
            fleet2.tenant_state(TenantId(3)),
            Some(TenantState::Suspended)
        );
        assert_eq!(fleet2.tenant_state(TenantId(1)), Some(TenantState::Active));
        assert_eq!(fleet2.tenant_state(TenantId(2)), Some(TenantState::Active));
        let tampered = finished2
            .iter()
            .find(|r| r.tenant == TenantId(3) && !r.violations.is_empty())
            .expect("tampered job finished in fleet 2");
        assert!(
            matches!(
                tampered.outcome,
                JobOutcome::Completed(sofia::core::machine::RunOutcome::ViolationStop(
                    Violation::MacMismatch { .. }
                ))
            ),
            "{:?}",
            tampered.outcome
        );
    }
}

/// A job checkpointed before its first quantum carries no machine
/// snapshot and adopts as a fresh submission — same verdict, same
/// output.
#[test]
fn never_served_jobs_checkpoint_without_a_machine() {
    let mut fleet1 = fleet_with_tenants(2);
    let id = fleet1
        .submit(JobSpec::new(TenantId(1), loop_job(12), 50_000))
        .unwrap();
    let ckpt = fleet1.checkpoint_job(id).unwrap();
    assert!(ckpt.machine.is_none());
    assert_eq!(ckpt.remaining, 50_000);
    let decoded = JobCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
    let mut fleet2 = fleet_with_tenants(1);
    fleet2.adopt_job(decoded).unwrap();
    let records = fleet2.run_batch();
    assert!(records[0].outcome.is_halted());
    assert_eq!(records[0].out_words, vec![(1..=12).sum::<u32>()]);
    // Checkpointing removed the job from fleet 1 entirely.
    assert_eq!(fleet1.pending_jobs(), 0);
    assert!(matches!(
        fleet1.checkpoint_job(id),
        Err(sofia::fleet::FleetError::UnknownJob(_))
    ));
}

/// Adoption is gated by the adopting fleet's tenant registry: unknown
/// and quarantined tenants are refused, and a checkpoint restored
/// against a *different* key registration simply re-seals and runs
/// under those keys (key domains stay structural).
#[test]
fn adoption_respects_the_tenant_registry() {
    let mut fleet1 = fleet_with_tenants(1);
    fleet1
        .submit(JobSpec::new(TenantId(1), loop_job(200), 100_000))
        .unwrap();
    fleet1.run_batch_capped(1);
    let id = fleet1.queued_jobs()[0];
    let ckpt = fleet1.checkpoint_job(id).unwrap();

    // Unknown tenant.
    let mut empty = Fleet::new(FleetConfig::default());
    assert!(matches!(
        empty.adopt_job(ckpt.clone()),
        Err(sofia::fleet::AdoptError::Fleet(
            sofia::fleet::FleetError::UnknownTenant(_)
        ))
    ));

    // Same tenant id, same keys, different fleet: adoption works and
    // the job finishes with the right output.
    let mut fleet2 = fleet_with_tenants(3);
    fleet2.adopt_job(ckpt).unwrap();
    let records = fleet2.run_batch();
    assert!(records[0].outcome.is_halted());
    assert_eq!(records[0].out_words, vec![(1..=200).sum::<u32>()]);
}

/// Virtual time prices quanta when they are served: the makespans of
/// successive capped batches add up to the cycles the job was served,
/// and a fleet that adopts the job mid-flight accounts only for the
/// quanta it ran itself.
#[test]
fn capped_batches_and_adoption_price_only_the_quanta_they_serve() {
    const CAP: u32 = 3;
    let program = sofia_workloads::kernels::fib(800).source;
    let single = |slice: u64| {
        let mut fleet = Fleet::new(FleetConfig {
            workers: 1,
            mode: SchedMode::FuelSliced { slice },
            ..Default::default()
        });
        fleet
            .register_tenant(TenantId(1), KeySet::from_seed(tenant_seed(1)))
            .unwrap();
        fleet
    };
    let sum = |cycles: &[u64]| cycles.iter().sum::<u64>();

    // Two batches on one fleet: the capped one, then the rest.
    let mut fleet = single(500);
    fleet
        .submit(JobSpec::new(TenantId(1), program.clone(), 1_000_000))
        .unwrap();
    assert!(fleet.run_batch_capped(CAP).is_empty(), "job must be held");
    let capped = fleet.stats();
    assert_eq!(capped.last_ticks, CAP as u64);
    assert!(
        capped.last_makespan_cycles > 0,
        "served quanta were not priced"
    );
    let r = fleet.run_batch().remove(0);
    assert!(r.outcome.is_halted());
    let rest = fleet.stats();
    let served = r.slices - CAP;
    assert!(served > 0);
    assert_eq!(
        capped.last_makespan_cycles,
        sum(&r.slice_cycles[..CAP as usize])
    );
    assert_eq!(
        rest.last_makespan_cycles,
        sum(&r.slice_cycles[CAP as usize..])
    );
    assert_eq!(
        capped.last_makespan_cycles + rest.last_makespan_cycles,
        sum(&r.slice_cycles),
        "per-batch makespans must sum to the cycles served"
    );
    assert_eq!(rest.last_ticks, served as u64);
    // The record reports on the second batch's own clock.
    assert_eq!((r.arrival_tick, r.start_tick), (0, 0));
    assert_eq!(r.end_tick, served as u64);
    assert_eq!(r.sojourn_cycles, rest.last_makespan_cycles);

    // The same job, carried to a second fleet after the capped batch.
    let mut source = single(500);
    let id = source
        .submit(JobSpec::new(TenantId(1), program, 1_000_000))
        .unwrap();
    assert!(source.run_batch_capped(CAP).is_empty());
    let bytes = source.checkpoint_job(id).unwrap().to_bytes();
    let mut adopter = single(500);
    adopter
        .adopt_job(JobCheckpoint::from_bytes(&bytes).unwrap())
        .unwrap();
    let adopted = adopter.run_batch().remove(0);
    assert_eq!(essence(&adopted), essence(&r));
    let stats = adopter.stats();
    assert_eq!(stats.last_ticks, served as u64);
    assert_eq!(
        stats.last_makespan_cycles,
        sum(&adopted.slice_cycles[CAP as usize..]),
        "the adopting fleet priced quanta it never ran"
    );
    assert_eq!(
        source.stats().last_makespan_cycles + stats.last_makespan_cycles,
        sum(&adopted.slice_cycles)
    );
}

fn async_with_tenants(threads: usize, workers: usize) -> AsyncFleet {
    let mut fleet = AsyncFleet::new(AsyncConfig {
        threads,
        workers,
        mode: SchedMode::FuelSliced { slice: SLICE },
        park_after: Some(1),
        ..Default::default()
    });
    for id in 1..=3u32 {
        fleet
            .register_tenant(TenantId(id), KeySet::from_seed(tenant_seed(id)), ClassId(0))
            .unwrap();
    }
    fleet
}

/// Migration works for async tenants too: a job the driver has parked
/// to `SOFS1` bytes checkpoints, travels as `SOFJ1` bytes, and finishes
/// in a second driver with different threads and lanes exactly as it
/// would have at home. A forged resume edge is caught on resume.
#[test]
fn parked_async_job_migrates_bit_identical_and_forged_edges_are_caught() {
    let long = JobSpec::new(TenantId(1), loop_job(181), 100_000);
    let short = JobSpec::new(TenantId(2), loop_job(90), 100_000);

    // Reference: the same two jobs, never migrated.
    let mut home = async_with_tenants(1, 1);
    home.submit(long.clone()).unwrap();
    home.submit(short.clone()).unwrap();
    home.run_until_idle();
    let reference = home.drain_finished();
    let ref_long = reference.iter().find(|r| r.job == JobId(0)).unwrap();
    assert!(ref_long.outcome.is_halted() && ref_long.slices > 1);

    // One lane: the long job runs a quantum, re-queues behind the short
    // one, and parks at the end of the tick.
    let mut source = async_with_tenants(1, 1);
    let id = source.submit(long).unwrap();
    source.submit(short).unwrap();
    source.tick();
    assert_eq!(source.parked_jobs(), 1);
    let ckpt = source.checkpoint_job(id).unwrap();
    assert!(ckpt.machine.is_some(), "the parked machine travels");
    assert_eq!(ckpt.slices, 1);
    assert!(matches!(
        source.checkpoint_job(id),
        Err(sofia::fleet::FleetError::UnknownJob(_))
    ));
    let bytes = ckpt.to_bytes();

    let mut adopter = async_with_tenants(2, 3);
    let adopted_id = adopter
        .adopt_job(JobCheckpoint::from_bytes(&bytes).unwrap())
        .unwrap();
    adopter.run_until_idle();
    let adopted = adopter.drain_finished();
    assert_eq!(adopted.len(), 1);
    assert_eq!(adopted[0].job, adopted_id);
    assert_eq!(essence(&adopted[0]), essence(ref_long));

    // The source keeps serving what stayed behind.
    source.run_until_idle();
    let stayed = source.drain_finished();
    assert_eq!(stayed.len(), 1);
    assert_eq!(stayed[0].out_words, vec![(1..=90).sum::<u32>()]);

    // A forged resume edge in the same bytes.
    let mut forged = JobCheckpoint::from_bytes(&bytes).unwrap();
    if let Some(snap) = forged.machine.as_mut() {
        snap.prev_pc ^= 4;
    }
    let mut victim = async_with_tenants(2, 2);
    victim.adopt_job(forged).unwrap();
    victim.run_until_idle();
    let r = victim.drain_finished().remove(0);
    assert!(
        r.outcome.is_violation() && !r.violations.is_empty(),
        "forged edge must be detected on resume, got {:?}",
        r.outcome
    );
    assert_eq!(
        victim.tenant_state(TenantId(1)),
        Some(sofia::fleet::TenantState::Suspended)
    );
}
