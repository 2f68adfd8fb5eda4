//! `servebench` — host wall-clock serving benchmark for the SOFIA fleet.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload <warm-exec|wfq-park> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! One run: generate the workload from the seed, set the fleet up, check
//! every program against a serial reference and the gate job set at 1 vs
//! `threads` host threads, warm up, then drive the fleet through the timed
//! phase. With `--trace 0` it prints the end-to-end metrics and times
//! further set-ups, each in a fresh process (`--setup-only 1`); with
//! `--trace 1` it splits the time into an untraced and a traced half,
//! replays the traced half's jobs serially through each layer and prints
//! the per-layer metrics. The last stdout line is one JSON object; the
//! exit code is non-zero on any wrong output. See `servebench/README.md`.

mod drive;
mod gate;
mod host;
mod layers;
mod metrics;
mod workload;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use drive::{Generator, PhaseStats};
use host::{median, quantile, JsonObject, Provenance};
use layers::{Budget, Micro};
use workload::{Plan, Scale, Workload, HELD_OUT_FLOOR};

const USAGE: &str = "usage: servebench --workload <warm-exec|wfq-park> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups timed after the timed phase of an untraced run, each in a
/// fresh process (`--setup-only 1`); `setup_s` is their median. A fresh
/// process starts every set-up from the same allocator state: repeated in
/// one process, set-ups that build ≈1,400 machines of 1 MiB RAM each
/// drift between the allocator's mmap and heap paths. They run after
/// the timed phase, on a host already at its sustained speed.
const SETUP_PROBES: usize = 9;
/// Latency samples per window: `jobs_per_s`, `job_p50_ms` and
/// `job_p99_ms` are medians over consecutive windows of this many jobs,
/// so a burst of host noise moves one window, not the result. 1000
/// leaves ten samples beyond each window's p99.
const WINDOW_SAMPLES: usize = 1000;
/// Unmeasured load before the timed phase, so it starts at the host's
/// sustained speed.
const WARM_UP_S: f64 = 3.0;
/// Tolerance of the traced run's reconciliation: traced busy time per
/// job may differ from the untraced run's by at most this share, and the
/// busy time no replayed layer explains (`fleet.unattributed_ms`, either
/// sign) may be at most this share of the traced busy time.
const RECONCILE_TOLERANCE: f64 = 0.25;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Time one set-up and exit (the fresh-process set-up probe).
    setup_only: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut setup_only = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad("expected 0 < seconds <= 3600"));
                    }
                    seconds = Some(s);
                }
                "--trace" | "--setup-only" => {
                    let on = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    };
                    if flag == "--trace" {
                        trace = Some(on);
                    } else {
                        setup_only = on;
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            setup_only,
        })
    }
}

/// Everything one run produced.
struct Outcome {
    /// Informational stdout lines, printed before the result.
    lines: Vec<String>,
    /// `(name, unit, value)` in output order.
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failures: Vec<String>,
    spans: Vec<drive::Span>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn result_json(&self) -> String {
        let mut metrics = JsonObject::new();
        for &(name, unit, value) in &self.metrics {
            let mut m = JsonObject::new();
            m.num("value", value);
            m.str("unit", unit);
            metrics.raw(name, &m.finish());
        }
        let mut o = JsonObject::new();
        o.bool("correct", self.correct());
        o.num("attempted", self.attempted.max(1) as f64);
        o.num("failed", self.failures.len() as f64);
        o.raw("metrics", &metrics.finish());
        o.finish()
    }
}

fn push(
    out: &mut Vec<(&'static str, &'static str, f64)>,
    table: &[(&'static str, &'static str)],
    name: &'static str,
    value: f64,
) {
    let unit = metrics::unit(table, name).unwrap_or_else(|| panic!("{name} is not declared"));
    out.push((name, unit, value));
}

/// Input generation, fleet build, tenant registration and the warm-up
/// seals; returns the seconds they took, the plan and the fleet.
fn set_up(
    args: &Args,
    scale: Scale,
    threads: usize,
) -> (f64, Plan, Result<sofia_fleet::AsyncFleet, String>) {
    let t = Instant::now();
    let plan = Plan::new(args.workload, args.seed, scale);
    let fleet = drive::setup(&plan, threads);
    (t.elapsed().as_secs_f64(), plan, fleet)
}

/// Times one set-up in a fresh process running this binary with
/// `--setup-only 1`, and waits for it to exit.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("setup probe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .args(["--seconds", "1", "--trace", "0", "--setup-only", "1"])
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(seconds)) if out.status.success() => Ok(seconds),
        _ => Err(format!(
            "setup probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One run. `probe` times one further set-up for `setup_s`.
fn run(args: &Args, scale: Scale, probe: &dyn Fn() -> Result<f64, String>) -> Outcome {
    let nproc = nproc();
    // One host thread per core: the fleet shape every workload runs.
    let threads = nproc;
    let mut lines = Vec::new();

    let (first_setup_s, plan, fleet) = set_up(args, scale, threads);
    let provenance = Provenance {
        nproc,
        threads,
        workers: plan.config.workers,
        seed: args.seed,
        held_out: args.seed >= HELD_OUT_FLOOR,
    };
    lines.push(format!(
        "provenance {}",
        provenance.to_json(args.workload.name(), args.trace)
    ));
    let (fleet, refs) = match fleet.and_then(|f| Ok((f, gate::references(&plan)?))) {
        Ok(ready) => ready,
        Err(e) => {
            return Outcome {
                lines,
                metrics: Vec::new(),
                attempted: 1,
                failures: vec![e],
                spans: Vec::new(),
            };
        }
    };
    let gate = gate::run(&plan, &refs, threads);
    let mut failures = gate.failures.clone();
    lines.push(format!(
        "gate {{\"jobs\": {}, \"records_checked\": {}, \"threads\": [1, {threads}], \"sim_cycles_total\": {}, \"failures\": {}}}",
        plan.gate.len(),
        gate.checked,
        gate.sim_cycles_total,
        gate.failures.len()
    ));

    let mut generator = Generator::start(&plan, &refs, fleet);
    let warm = generator.run((args.seconds / 10.0).clamp(0.2, WARM_UP_S), false);
    failures.extend(warm.failures);

    let mut metrics = Vec::new();
    let mut attempted;
    let mut spans = Vec::new();
    if !args.trace {
        let phase = generator.run(args.seconds, false);
        drop(generator);
        attempted = phase.completed + phase.refused;
        let e2e = metrics::END_TO_END;
        let windows = phase.windows(WINDOW_SAMPLES);
        let over =
            |f: fn(&drive::Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
        let mut w = JsonObject::new();
        w.num("windows", windows.len() as f64);
        w.raw(
            "window_samples",
            &format!(
                "{:?}",
                windows.iter().map(|w| w.samples).collect::<Vec<_>>()
            ),
        );
        w.raw(
            "tail_percentiles",
            &format!(
                "{:?}",
                windows
                    .iter()
                    .map(|w| w.tail_percentile)
                    .collect::<Vec<_>>()
            ),
        );
        w.num("seconds", phase.wall_s);
        w.num("completed", phase.completed as f64);
        w.num("refused", phase.refused as f64);
        w.num("unfinished", phase.unfinished as f64);
        lines.push(format!("samples {}", w.finish()));
        push(&mut metrics, e2e, "jobs_per_s", over(|w| w.jobs_per_s));
        push(&mut metrics, e2e, "job_p50_ms", over(|w| w.p50_ms));
        push(&mut metrics, e2e, "job_p99_ms", over(|w| w.tail_ms));
        push(
            &mut metrics,
            e2e,
            "ok_ratio",
            phase.ok as f64 / attempted.max(1) as f64,
        );
        push(
            &mut metrics,
            e2e,
            "cpu_ms_per_job",
            phase.cpu_s * 1e3 / phase.completed.max(1) as f64,
        );
        push(&mut metrics, e2e, "peak_rss_mib", host::peak_rss_mib());
        let mut setup_s = Vec::with_capacity(SETUP_PROBES);
        for _ in 0..SETUP_PROBES {
            match probe() {
                Ok(seconds) => setup_s.push(seconds),
                Err(e) => failures.push(e),
            }
        }
        lines.push(format!(
            "setup {{\"first_s\": {first_setup_s}, \"probes_s\": {setup_s:?}}}"
        ));
        push(&mut metrics, e2e, "setup_s", median(&setup_s));
        push(
            &mut metrics,
            e2e,
            "sim_cycles_total",
            gate.sim_cycles_total as f64,
        );
        failures.extend(phase.failures);
    } else {
        let untraced = generator.run(args.seconds / 2.0, false);
        let traced = generator.run(args.seconds / 2.0, true);
        drop(generator);
        attempted = untraced.completed + untraced.refused + traced.completed + traced.refused;
        let micro = Micro::measure(&plan);
        let replay = layers::replay(&plan, &traced.served, traced.fleet.parks > 0);
        per_layer(
            &plan,
            &untraced,
            &traced,
            &micro,
            &replay,
            &mut metrics,
            &mut lines,
        );
        failures.extend(untraced.failures);
        failures.extend(traced.failures);
        spans = traced.spans;
    }
    attempted += warm.completed + warm.refused;
    Outcome {
        lines,
        metrics,
        attempted,
        failures,
        spans,
    }
}

/// The traced run's metrics, budget and reconciliation.
fn per_layer(
    plan: &Plan,
    untraced: &PhaseStats,
    traced: &PhaseStats,
    micro: &Micro,
    replay: &layers::Replay,
    metrics: &mut Vec<(&'static str, &'static str, f64)>,
    lines: &mut Vec<String>,
) {
    let pl = metrics::PER_LAYER;
    let f = &traced.fleet;
    let busy_ms = traced.cpu_s * 1e3;
    let budget = Budget::new(replay, micro, f.parks, f.revives, busy_ms);
    let per_job = |p: &PhaseStats| p.cpu_s * 1e3 / p.completed.max(1) as f64;
    let traced_per_job = per_job(traced);
    let untraced_per_job = per_job(untraced);
    let gap = (traced_per_job - untraced_per_job).abs() / untraced_per_job;
    let unexplained = budget.fleet_unattributed.abs() / busy_ms;
    let reconciled = gap <= RECONCILE_TOLERANCE && unexplained <= RECONCILE_TOLERANCE;
    let expected = match plan.workload {
        Workload::WarmExec => "fetch",
        Workload::WfqPark => "park",
    };
    let dominant_ok = budget.dominant() == expected;
    let span_us = |name: &str| -> Vec<f64> {
        let mut v: Vec<f64> = traced
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let ticks = span_us("tick");
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let us = 1e-3;
    let cache_lookups = (traced.cache.hits + traced.cache.misses).max(1) as f64;
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let values: [(&'static str, f64); 48] = [
        ("isa.parse_us", micro.parse.median * us),
        ("cfg.build_us", micro.cfg.median * us),
        ("transform.seal_us", micro.transform.median * us),
        ("transform.images_sealed", traced.cache.misses as f64),
        (
            "transform.cache_hit_ratio",
            traced.cache.hits as f64 / cache_lookups,
        ),
        ("crypto.refill_keystream_ns", micro.refill.median),
        ("crypto.cbc_mac_ns", micro.cbc_mac.median),
        (
            "crypto.bulk_keystream_ns_per_block",
            micro.bulk_per_block.median,
        ),
        ("crypto.ctr_ops", replay.ctr_ops),
        ("crypto.cbc_ops", replay.cbc_ops),
        ("cpu.exec_ns_per_instr", micro.exec_ns_per_instr),
        (
            "core.run_ns_per_instr",
            replay.run_ns / replay.instret.max(1.0),
        ),
        (
            "core.fetch_ns_per_block",
            (replay.run_ns - replay.vanilla_ns) / replay.blocks.max(1.0),
        ),
        ("core.blocks", replay.blocks),
        (
            "core.vcache_hit_ratio",
            replay.vcache_hits / replay.vcache_lookups.max(1.0),
        ),
        ("core.machine_new_us", micro.machine_new.median * us),
        (
            "core.snapshot_capture_us",
            micro.snapshot_capture.median * us,
        ),
        ("core.snapshot_encode_us", micro.snapshot_encode.median * us),
        ("core.snapshot_decode_us", micro.snapshot_decode.median * us),
        ("core.restore_us", micro.restore.median * us),
        ("core.snapshot_bytes", micro.snapshot_bytes as f64),
        ("fleet.tick_us_p50", quantile(&ticks, 0.5)),
        ("fleet.tick_us_p99", quantile(&ticks, 0.99)),
        ("fleet.ticks", f.ticks as f64),
        ("fleet.quanta", f.quanta as f64),
        ("fleet.parks", f.parks as f64),
        ("fleet.revives", f.revives as f64),
        ("fleet.admitted", f.admitted as f64),
        ("fleet.rejected", f.rejected as f64),
        (
            "fleet.peak_resident_machines",
            f.peak_resident_machines as f64,
        ),
        (
            "fleet.queue_wait_ms_p50",
            quantile(&sorted(&traced.queue_wait_ms), 0.5),
        ),
        ("fleet.submit_us", quantile(&span_us("submit"), 0.5)),
        ("fleet.drain_us", quantile(&span_us("drain"), 0.5)),
        ("fleet.unattributed_ms", budget.fleet_unattributed),
        (
            "gen.lag_ms_p99",
            if traced.gen_lag_ms.is_empty() {
                0.0
            } else {
                quantile(&sorted(&traced.gen_lag_ms), 0.99)
            },
        ),
        ("self.isa_ms", budget.isa),
        ("self.cfg_ms", budget.cfg),
        ("self.transform_ms", budget.transform),
        ("self.crypto_ms", budget.crypto),
        ("self.cpu_ms", budget.cpu),
        ("self.core_ms", budget.core),
        ("trace.busy_ms_per_job", traced_per_job),
        ("trace.untraced_busy_ms_per_job", untraced_per_job),
        (
            "trace.overhead_ms_per_job",
            traced_per_job - untraced_per_job,
        ),
        ("trace.reconcile_gap", gap),
        (
            "trace.unattributed_share",
            budget.fleet_unattributed / busy_ms,
        ),
        ("trace.reconciled", flag(reconciled)),
        ("trace.dominant_ok", flag(dominant_ok)),
    ];
    for (name, value) in values {
        push(metrics, pl, name, value);
    }

    let mut m = JsonObject::new();
    for (name, d) in [
        ("refill_keystream_ns", micro.refill),
        ("cbc_mac_ns", micro.cbc_mac),
        ("bulk_keystream_ns_per_block", micro.bulk_per_block),
        ("parse_ns", micro.parse),
        ("cfg_build_ns", micro.cfg),
        ("transform_ns", micro.transform),
        ("machine_new_ns", micro.machine_new),
        ("snapshot_capture_ns", micro.snapshot_capture),
        ("snapshot_encode_ns", micro.snapshot_encode),
        ("snapshot_decode_ns", micro.snapshot_decode),
        ("restore_ns", micro.restore),
    ] {
        m.raw(name, &d.json());
    }
    m.num("replay_park_ns", replay.per_park_ns(micro));
    m.num("replay_revive_ns", replay.per_revive_ns(micro));
    m.num("replay_parks_timed", replay.park_ns.len() as f64);
    lines.push(format!("micro {}", m.finish()));

    let mut b = JsonObject::new();
    for (name, v) in [
        ("isa", budget.isa),
        ("cfg", budget.cfg),
        ("transform", budget.transform),
        ("crypto", budget.crypto),
        ("cpu", budget.cpu),
        ("core", budget.core),
        ("fleet_unattributed", budget.fleet_unattributed),
        ("busy", busy_ms),
    ] {
        b.num(name, v);
    }
    b.num("jobs", traced.completed as f64);
    b.num("replayed_jobs", replay.replayed as f64);

    lines.push(format!("budget_ms {}", b.finish()));

    let mut r = JsonObject::new();
    r.num("traced_busy_ms_per_job", traced_per_job);
    r.num("untraced_busy_ms_per_job", untraced_per_job);
    r.num("gap", gap);
    r.num("tolerance", RECONCILE_TOLERANCE);
    r.bool("reconciled", reconciled);
    r.str("dominant", budget.dominant());
    r.str("expected_dominant", expected);
    r.bool("dominant_ok", dominant_ok);
    r.num(
        "fleet_unattributed_share",
        budget.fleet_unattributed / busy_ms,
    );
    lines.push(format!("reconcile {}", r.finish()));
    if !reconciled {
        eprintln!(
            "servebench: traced run does not reconcile (gap {gap:.3}, unexplained share {unexplained:.3}, tolerance {RECONCILE_TOLERANCE})"
        );
    }
}

/// Writes the traced run's spans as JSON lines under the build
/// directory; returns the path.
fn write_spans(args: &Args, spans: &[drive::Span]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(
        &std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("servebench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (i, s) in spans.iter().enumerate() {
        let mut o = JsonObject::new();
        o.num("id", i as f64);
        o.str("name", s.name);
        o.num("start_ns", s.start_ns as f64);
        o.num("end_ns", s.end_ns as f64);
        o.num("parent", s.parent as f64);
        match s.job {
            Some(job) => o.num("job", job as f64),
            None => o.raw("job", "null"),
        }
        writeln!(w, "{}", o.finish())?;
    }
    w.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let (seconds, _, fleet) = set_up(&args, Scale::Full, nproc());
        return match fleet {
            Ok(_) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("servebench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut outcome = run(&args, Scale::Full, &|| setup_probe(&args));
    if args.trace {
        match write_spans(&args, &outcome.spans) {
            Ok(path) => outcome.lines.push(format!(
                "spans {{\"count\": {}, \"file\": \"{}\"}}",
                outcome.spans.len(),
                path.display()
            )),
            Err(e) => outcome.failures.push(format!("writing spans: {e}")),
        }
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    for failure in outcome.failures.iter().take(20) {
        eprintln!("servebench: FAIL {failure}");
    }
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 0.6,
            trace,
            setup_only: false,
        }
    }

    #[test]
    fn any_failure_makes_the_result_incorrect() {
        let out = Outcome {
            lines: Vec::new(),
            metrics: vec![("ok_ratio", "ratio", 0.5)],
            attempted: 2,
            failures: vec!["job#1: output [1] != golden [2]".into()],
            spans: Vec::new(),
        };
        assert!(!out.correct());
        assert_eq!(
            out.result_json(),
            r#"{"correct": false, "attempted": 2, "failed": 1, "metrics": {"ok_ratio": {"value": 0.5, "unit": "ratio"}}}"#
        );
    }

    #[test]
    fn cli_parses_the_contract_and_rejects_the_rest() {
        let ok = Args::parse(
            "--workload wfq-park --seed 3 --seconds 10 --trace 1"
                .split(' ')
                .map(String::from),
        );
        assert_eq!(
            ok,
            Ok(Args {
                workload: Workload::WfqPark,
                seed: 3,
                seconds: 10.0,
                trace: true,
                setup_only: false,
            })
        );
        let probe = Args::parse(
            "--workload warm-exec --seed 3 --seconds 1 --trace 0 --setup-only 1"
                .split(' ')
                .map(String::from),
        );
        assert!(probe.is_ok_and(|a| a.setup_only));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload warm-exec --seed x --seconds 10 --trace 0",
            "--workload warm-exec --seed 3 --seconds 0 --trace 0",
            "--workload warm-exec --seed 3 --seconds 10 --trace 2",
            "--workload warm-exec --seed 3 --seconds 10",
            "--workload warm-exec --seed 3 --seconds 10 --trace 0 --threads 1",
            "--workload warm-exec --seed 3 --seconds 10 --trace 0 --setup-only 2",
        ] {
            assert!(
                Args::parse(bad.split(' ').map(String::from)).is_err(),
                "{bad}"
            );
        }
    }

    /// Every workload, small, end to end in both modes: the gate passes
    /// and exactly the declared metrics come out, in order.
    #[test]
    fn smoke_every_workload_passes_the_gate_and_emits_declared_metrics() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let a = args(workload, trace);
                let probe = || {
                    let (seconds, _, fleet) = set_up(&a, Scale::Smoke, 2);
                    fleet.map(|_| seconds)
                };
                let out = run(&a, Scale::Smoke, &probe);
                assert!(out.correct(), "{workload:?}: {:?}", out.failures);
                assert!(out.attempted > 0, "{workload:?} did no work");
                let table = if trace {
                    metrics::PER_LAYER
                } else {
                    metrics::END_TO_END
                };
                let emitted: Vec<(&str, &str)> =
                    out.metrics.iter().map(|&(n, u, _)| (n, u)).collect();
                assert_eq!(emitted, table.to_vec(), "{workload:?} trace={trace}");
                let json = out.result_json();
                assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
                if !trace {
                    for &(name, _, value) in &out.metrics {
                        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
                    }
                }
            }
        }
    }
}
