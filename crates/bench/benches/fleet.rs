//! The fleet scaling experiment, plus the `BENCH_fleet.json` trajectory
//! record.
//!
//! Criterion measures *host* throughput of the worker pool (how fast this
//! machine simulates the batch — interesting locally, meaningless on a
//! single-core CI box); the JSON records the **virtual-time** metrics
//! (makespan in simulated cycles on the deterministic tick-synchronous
//! schedule model, jobs/sec at the Table I SOFIA clock), which are
//! host-independent and reproduce bit-for-bit. The file is written on
//! every invocation, including the smoke run `cargo test` performs, so
//! the record can never go stale; a failed write panics.

use criterion::{black_box, criterion_group, Criterion, Throughput};
use sofia_bench::{
    async_wfq_report, fleet_json, fleet_mix, fleet_mix_tenants, fleet_scaling_series,
    FLEET_BENCH_SLICE,
};
use sofia_fleet::{Fleet, FleetConfig, SchedMode};

/// Tenants the async serving section runs with — the 1k point of the
/// ISSUE's 1k–10k range; `repro -- fleet` sweeps further.
const ASYNC_TENANTS: usize = 1_000;

fn bench_fleet(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet");
    g.throughput(Throughput::Elements(fleet_mix().len() as u64));
    for workers in [1usize, 2, 4] {
        for (label, mode) in [
            ("rtc", SchedMode::RunToCompletion),
            (
                "sliced",
                SchedMode::FuelSliced {
                    slice: FLEET_BENCH_SLICE,
                },
            ),
        ] {
            g.bench_function(format!("mix24/{label}/w{workers}"), |b| {
                b.iter(|| {
                    let mut fleet = Fleet::new(FleetConfig {
                        workers,
                        mode,
                        ..Default::default()
                    });
                    fleet_mix_tenants(&mut fleet);
                    for spec in fleet_mix() {
                        fleet.submit(black_box(spec)).unwrap();
                    }
                    let records = fleet.run_batch();
                    assert_eq!(records.len(), 24);
                    fleet.stats().total().cycles
                })
            });
        }
    }
    g.finish();
}

fn emit_bench_json() {
    let workers = [1usize, 2, 4, 8];
    let rtc = fleet_scaling_series(&workers, SchedMode::RunToCompletion);
    let sliced = fleet_scaling_series(
        &workers,
        SchedMode::FuelSliced {
            slice: FLEET_BENCH_SLICE,
        },
    );
    // The determinism invariant, checked on every emission: total work is
    // worker-count-invariant, and throughput scales monotonically 1 -> 4.
    for series in [&rtc, &sliced] {
        for pair in series.windows(2) {
            assert_eq!(pair[0].total_cycles, pair[1].total_cycles);
            if pair[1].workers <= 4 {
                assert!(
                    pair[1].jobs_per_sec > pair[0].jobs_per_sec,
                    "jobs/sec not monotone: {pair:?}"
                );
            }
        }
    }
    // The async serving section, with its own determinism gate: the
    // full report — per-class p50/p99, driver counters, and the FNV
    // digest over every record and rejection — must be bit-identical
    // across host thread counts before it is allowed into the record.
    let wfq_serial = async_wfq_report(ASYNC_TENANTS, 1);
    let wfq = async_wfq_report(ASYNC_TENANTS, 4);
    assert_eq!(
        (&wfq_serial.stats, &wfq_serial.classes, wfq_serial.digest),
        (&wfq.stats, &wfq.classes, wfq.digest),
        "async driver results depend on the host thread count"
    );
    assert!(
        wfq.stats.rejected > 0,
        "no admission backpressure exercised"
    );
    let json = fleet_json(&rtc, &sliced, &wfq);
    // The workspace root, so the trajectory file sits next to CHANGES.md.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    if let Err(e) = std::fs::write(path, &json) {
        panic!("{path} not written: {e}");
    }
    println!("wrote {path}");
}

criterion_group!(benches, bench_fleet);

fn main() {
    emit_bench_json();
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
