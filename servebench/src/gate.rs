//! The correctness gate.
//!
//! * Every program's golden output is checked against a serial
//!   `SofiaMachine::run` reference, whose simulated cycles and retired
//!   instructions every fleet record must then match exactly.
//! * A deterministic gate job set runs on fresh fleets at 1 host thread
//!   and at `threads` host threads; the two must agree record for record
//!   (outputs, cycles, virtual-time fields), and their summed simulated
//!   cycles are the `sim_cycles_total` metric.

use std::collections::HashMap;

use sofia_core::machine::SofiaMachine;
use sofia_fleet::JobRecord;
use sofia_transform::Transformer;

use crate::host::fnv1a;
use crate::workload::{Job, Plan, JOB_FUEL};

/// A program's serial reference run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    pub cycles: u64,
    pub instret: u64,
}

/// Seals and runs every program of the plan serially (under the first
/// tenant's keys and the plan's machine configuration) and checks its
/// output against the golden model.
pub fn references(plan: &Plan) -> Result<Vec<Reference>, String> {
    let keys = &plan.tenants[0].keys;
    plan.programs
        .iter()
        .enumerate()
        .map(|(i, program)| {
            let module = sofia_isa::asm::parse(&program.source)
                .map_err(|e| format!("program {i} does not parse: {e}"))?;
            let image = Transformer::new(keys.clone())
                .transform(&module)
                .map_err(|e| format!("program {i} does not seal: {e:?}"))?;
            let mut m = SofiaMachine::with_config(&image, keys, &plan.config.sofia);
            let outcome = m
                .run(JOB_FUEL)
                .map_err(|t| format!("program {i} traps: {t}"))?;
            if !outcome.is_halted() {
                return Err(format!("program {i} did not halt: {outcome:?}"));
            }
            if m.mem().mmio.out_words != program.expected {
                return Err(format!(
                    "program {i}: serial output {:?} != golden {:?}",
                    m.mem().mmio.out_words,
                    program.expected
                ));
            }
            let stats = m.stats();
            Ok(Reference {
                cycles: stats.exec.cycles,
                instret: stats.exec.instret,
            })
        })
        .collect()
}

/// Checks one fleet record of `job` against the golden output and the
/// serial reference.
pub fn check(plan: &Plan, refs: &[Reference], job: Job, record: &JobRecord) -> Result<(), String> {
    let want = refs[job.program];
    if !record.outcome.is_halted() {
        return Err(format!("{}: outcome {:?}", record.job, record.outcome));
    }
    if record.out_words != plan.programs[job.program].expected {
        return Err(format!(
            "{}: output {:?} != golden {:?}",
            record.job, record.out_words, plan.programs[job.program].expected
        ));
    }
    let got = Reference {
        cycles: record.stats.exec.cycles,
        instret: record.stats.exec.instret,
    };
    if got != want {
        return Err(format!(
            "{}: cycles/instret {got:?} != serial reference {want:?}",
            record.job
        ));
    }
    Ok(())
}

/// What the gate found.
#[derive(Debug)]
pub struct GateReport {
    /// Summed simulated cycles of the gate job set.
    pub sim_cycles_total: u64,
    /// Records checked (across both thread counts).
    pub checked: usize,
    /// Every mismatch, described.
    pub failures: Vec<String>,
}

/// Runs the gate job set at 1 and at `threads` host threads.
pub fn run(plan: &Plan, refs: &[Reference], threads: usize) -> GateReport {
    let mut failures = Vec::new();
    let mut checked = 0;
    let mut runs = Vec::new();
    for t in [1, threads.max(1)] {
        let mut fleet = crate::drive::build_fleet(plan, t);
        let mut jobs = HashMap::new();
        for &job in &plan.gate {
            match fleet.submit(plan.spec(job)) {
                Ok(id) => {
                    jobs.insert(id.0, job);
                }
                Err(e) => failures.push(format!("gate job refused at {t} threads: {e}")),
            }
        }
        fleet.run_until_idle();
        let records = fleet.drain_finished();
        let (digest, cycles) = digest(&records);
        for record in &records {
            checked += 1;
            match jobs.get(&record.job.0) {
                Some(&job) => {
                    if let Err(e) = check(plan, refs, job, record) {
                        failures.push(format!("gate at {t} threads: {e}"));
                    }
                }
                None => failures.push(format!("gate: unknown {}", record.job)),
            }
        }
        if records.len() != plan.gate.len() {
            failures.push(format!(
                "gate at {t} threads finished {} of {} jobs",
                records.len(),
                plan.gate.len()
            ));
        }
        runs.push((t, digest, cycles, fleet.stats()));
    }
    let (t0, d0, c0, s0) = runs[0];
    for &(t, d, c, s) in &runs[1..] {
        if (d, c) != (d0, c0) || s != s0 {
            failures.push(format!(
                "gate: {t0} vs {t} threads differ (digest {d0:016x}/{d:016x}, \
                 sim cycles {c0}/{c})"
            ));
        }
    }
    GateReport {
        sim_cycles_total: c0,
        checked,
        failures,
    }
}

/// FNV-1a over every determinism-invariant field of the records, in
/// completion order, plus their summed simulated cycles.
fn digest(records: &[JobRecord]) -> (u64, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut cycles = 0u64;
    for r in records {
        cycles += r.stats.exec.cycles;
        for word in [
            r.job.0,
            r.tenant.0 as u64,
            r.stats.exec.cycles,
            r.stats.exec.instret,
            r.start_tick,
            r.end_tick,
            r.sojourn_cycles,
            r.slices as u64,
        ] {
            fnv1a(&mut hash, &word.to_le_bytes());
        }
        fnv1a(&mut hash, format!("{:?}", r.outcome).as_bytes());
        for w in &r.out_words {
            fnv1a(&mut hash, &w.to_le_bytes());
        }
    }
    (hash, cycles)
}

/// Whether a record came from one of this fleet's own warm-up jobs.
pub fn is_warm_record(record: &JobRecord) -> bool {
    matches!(
        record.outcome,
        sofia_fleet::JobOutcome::Completed(sofia_core::machine::RunOutcome::OutOfFuel)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scale, Workload};

    #[test]
    fn the_gate_flags_wrong_outputs_and_cycle_drift() {
        let plan = Plan::new(Workload::WfqPark, 1, Scale::Smoke);
        let refs = references(&plan).expect("smoke programs match their golden outputs");
        let clean = run(&plan, &refs, 2);
        assert!(clean.failures.is_empty(), "{:?}", clean.failures);
        assert!(clean.sim_cycles_total > 0);

        let mut drifted = refs.clone();
        drifted[plan.gate[0].program].cycles += 1;
        assert!(!run(&plan, &drifted, 2).failures.is_empty());

        let mut wrong = plan.clone();
        wrong.programs[0].expected[0] ^= 1;
        assert!(references(&wrong).is_err());
    }
}
