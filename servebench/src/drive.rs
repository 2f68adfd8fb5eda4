//! Driving the fleet: set-up, and the timed phases on one host thread.
//!
//! The load generator runs on the benchmark's main thread, interleaved with
//! `AsyncFleet::tick`: before each tick it submits every open-loop
//! arrival that has come due on the wall clock, after each tick it
//! drains the finished records, checks them, and resubmits each
//! closed-loop client's next job. When nothing is queued it sleeps until
//! the next arrival instead of spinning.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sofia_fleet::{AsyncFleet, AsyncStats, JobSpec};
use sofia_transform::cache::ImageCacheStats;

use crate::gate::{self, Reference};
use crate::host::{cpu_seconds, quantile, supported_percentile};
use crate::workload::{Job, Load, Plan};

/// A fresh fleet for `plan` at `threads` host threads, tenants
/// registered, nothing sealed.
pub fn build_fleet(plan: &Plan, threads: usize) -> AsyncFleet {
    let mut fleet = AsyncFleet::new(sofia_fleet::AsyncConfig {
        threads,
        ..plan.config.clone()
    });
    for t in &plan.tenants {
        fleet
            .register_tenant(t.id, t.keys.clone(), t.class)
            .unwrap_or_else(|e| panic!("plan tenants are distinct: {e}"));
    }
    fleet
}

/// [`build_fleet`] plus the warm-up seals: one one-slot job per warm
/// (tenant, program) pair, run to idle. Returns the fleet, or why a warm
/// job failed.
pub fn setup(plan: &Plan, threads: usize) -> Result<AsyncFleet, String> {
    let mut fleet = build_fleet(plan, threads);
    for &job in &plan.warm {
        let spec = JobSpec {
            fuel: 1,
            ..plan.spec(job)
        };
        fleet
            .submit(spec)
            .map_err(|e| format!("warm-up job refused: {e}"))?;
    }
    fleet.run_until_idle();
    for record in fleet.drain_finished() {
        if !gate::is_warm_record(&record) {
            return Err(format!("warm-up {}: {:?}", record.job, record.outcome));
        }
    }
    Ok(fleet)
}

/// One span of the traced run: a call into the fleet's public API (or
/// one job's life), relative to the phase start.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span (0 = the phase span itself).
    pub parent: u32,
    /// The job the span belongs to, if any.
    pub job: Option<u64>,
}

/// One served job, for the serial layer replay.
#[derive(Clone, Copy, Debug)]
pub struct Served {
    pub job: Job,
    /// Whether the fleet sealed the image for this job.
    pub fresh_seal: bool,
}

/// One job's latency sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the sample was taken, seconds into the phase.
    pub at_s: f64,
    /// Due (open loop) or submitted (closed loop) → drained. Infinite for
    /// a refused job; for a job still in flight at the end of the phase,
    /// due → phase end (a lower bound).
    pub latency_ms: f64,
    /// Drained with the golden output.
    pub ok: bool,
}

/// Latency and throughput over one window of consecutive samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    pub samples: usize,
    pub jobs_per_s: f64,
    pub p50_ms: f64,
    /// The highest whole percentile with ten samples beyond it.
    pub tail_percentile: u32,
    pub tail_ms: f64,
}

/// Everything measured in one phase.
#[derive(Debug, Default)]
pub struct PhaseStats {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// One per drained, refused or unfinished job, in time order.
    pub samples: Vec<Sample>,
    /// Records drained.
    pub completed: u64,
    /// Records drained that passed the gate.
    pub ok: u64,
    pub refused: u64,
    /// Jobs still in flight when the phase ended.
    pub unfinished: u64,
    pub failures: Vec<String>,
    /// How late each open-loop arrival was submitted.
    pub gen_lag_ms: Vec<f64>,
    pub fleet: AsyncStats,
    pub cache: ImageCacheStats,
    /// Traced phases only.
    pub spans: Vec<Span>,
    pub served: Vec<Served>,
    /// Due → wall start of the record's first tick (traced phases).
    pub queue_wait_ms: Vec<f64>,
}

impl PhaseStats {
    /// Splits the samples into consecutive windows of `size` (the short
    /// remainder joins the last window) and measures each. A window's
    /// time runs from the end of the previous one to its last sample.
    pub fn windows(&self, size: usize) -> Vec<Window> {
        let size = size.max(1);
        let count = (self.samples.len() / size).max(1);
        let mut out = Vec::with_capacity(count);
        let mut from_s = 0.0;
        for w in 0..count {
            let end = if w + 1 == count {
                self.samples.len()
            } else {
                (w + 1) * size
            };
            let chunk = &self.samples[w * size..end];
            let mut lat: Vec<f64> = chunk.iter().map(|s| s.latency_ms).collect();
            lat.sort_by(f64::total_cmp);
            let to_s = chunk.last().map_or(self.wall_s, |s| s.at_s);
            let tail_percentile = supported_percentile(lat.len());
            out.push(Window {
                samples: chunk.len(),
                jobs_per_s: chunk.iter().filter(|s| s.ok).count() as f64
                    / (to_s - from_s).max(1e-9),
                p50_ms: quantile(&lat, 0.5),
                tail_percentile,
                tail_ms: quantile(&lat, tail_percentile as f64 / 100.0),
            });
            from_s = to_s;
        }
        out
    }
}

struct InFlight {
    job: Job,
    due: Instant,
    /// The closed-loop client waiting on this job.
    client: Option<usize>,
}

/// The load generator plus the fleet it drives.
pub struct Generator<'a> {
    plan: &'a Plan,
    refs: &'a [Reference],
    fleet: AsyncFleet,
    /// Time zero of the open-loop schedule.
    epoch: Instant,
    inflight: HashMap<u64, InFlight>,
    rounds: Vec<u64>,
    next_open: u64,
    /// Seconds after `epoch` at which arrival `next_open` is due.
    next_open_due: f64,
}

/// Recording state of the current phase.
struct Recorder {
    start: Instant,
    trace: bool,
    stats: PhaseStats,
    /// Wall offset (ns) at which each tick of the phase began.
    tick_start_ns: HashMap<u64, u64>,
}

impl Recorder {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start).as_nanos() as u64
    }

    fn sample(&mut self, at: Instant, latency: Duration, ok: bool) {
        self.stats.samples.push(Sample {
            at_s: at.saturating_duration_since(self.start).as_secs_f64(),
            latency_ms: latency.as_secs_f64() * 1e3,
            ok,
        });
    }

    fn span(&mut self, name: &'static str, from: Instant, to: Instant, job: Option<u64>) {
        if self.trace {
            let span = Span {
                name,
                start_ns: self.ns(from),
                end_ns: self.ns(to),
                parent: 0,
                job,
            };
            self.stats.spans.push(span);
        }
    }
}

impl<'a> Generator<'a> {
    /// Takes a set-up fleet and starts every closed-loop client.
    pub fn start(plan: &'a Plan, refs: &'a [Reference], fleet: AsyncFleet) -> Generator<'a> {
        let clients = match plan.load {
            Load::Closed { clients } | Load::Mixed { clients, .. } => clients,
        };
        let mut generator = Generator {
            plan,
            refs,
            fleet,
            epoch: Instant::now(),
            inflight: HashMap::new(),
            rounds: vec![0; clients],
            next_open: 0,
            next_open_due: 0.0,
        };
        if let Some((_, gap)) = plan.open_arrival(0) {
            generator.next_open_due = gap;
        }
        let mut scratch = Recorder {
            start: generator.epoch,
            trace: false,
            stats: PhaseStats::default(),
            tick_start_ns: HashMap::new(),
        };
        for client in 0..clients {
            generator.submit_closed(client, &mut scratch);
        }
        generator
    }

    fn submit(&mut self, job: Job, due: Instant, client: Option<usize>, rec: &mut Recorder) {
        let spec = self.plan.spec(job);
        let t0 = Instant::now();
        let result = self.fleet.submit(spec);
        let t1 = Instant::now();
        match result {
            Ok(id) => {
                rec.span("submit", t0, t1, Some(id.0));
                self.inflight.insert(id.0, InFlight { job, due, client });
            }
            Err(e) => {
                rec.stats.refused += 1;
                rec.stats.failures.push(format!(
                    "refused {:?}: {e}",
                    self.plan.tenants[job.tenant].id
                ));
                // A refused job misses every latency limit.
                rec.sample(t1, Duration::MAX, false);
            }
        }
    }

    fn submit_closed(&mut self, client: usize, rec: &mut Recorder) {
        let job = self.plan.closed_job(client, self.rounds[client]);
        self.rounds[client] += 1;
        self.submit(job, Instant::now(), Some(client), rec);
    }

    /// Submits every open-loop arrival due by `now`; returns when the
    /// next one is due.
    fn submit_open(&mut self, now: Instant, rec: &mut Recorder) -> Option<Instant> {
        loop {
            let (job, _) = self.plan.open_arrival(self.next_open)?;
            let due = self.epoch + Duration::from_secs_f64(self.next_open_due);
            if due > now {
                return Some(due);
            }
            rec.stats
                .gen_lag_ms
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            self.submit(job, due, None, rec);
            self.next_open += 1;
            if let Some((_, gap)) = self.plan.open_arrival(self.next_open) {
                self.next_open_due += gap;
            }
        }
    }

    /// Drives the fleet for `seconds` of wall time, measuring every
    /// completion. With `trace`, calls into the fleet are also recorded
    /// as spans and served jobs are kept for the layer replay. Every
    /// drained record is checked.
    pub fn run(&mut self, seconds: f64, trace: bool) -> PhaseStats {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut rec = Recorder {
            start,
            trace,
            stats: PhaseStats::default(),
            tick_start_ns: HashMap::new(),
        };
        let stats0 = self.fleet.stats();
        let cache0 = self.fleet.seal_cache_stats();
        let cpu0 = cpu_seconds();
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let next_due = self.submit_open(now, &mut rec);
            if self.fleet.queued_jobs() == 0 && self.fleet.pending_arrivals() == 0 {
                let wake = next_due.unwrap_or(end).min(end);
                std::thread::sleep(wake.saturating_duration_since(Instant::now()));
                continue;
            }
            let tick = self.fleet.now();
            let t0 = Instant::now();
            self.fleet.tick();
            let t1 = Instant::now();
            if trace {
                let at = rec.ns(t0);
                rec.tick_start_ns.insert(tick, at);
            }
            rec.span("tick", t0, t1, None);
            let records = self.fleet.drain_finished();
            let t2 = Instant::now();
            rec.span("drain", t1, t2, None);
            for record in records {
                let Some(flight) = self.inflight.remove(&record.job.0) else {
                    rec.stats
                        .failures
                        .push(format!("record for unknown {}", record.job));
                    continue;
                };
                rec.span("job", flight.due.max(start), t2, Some(record.job.0));
                let ok = match gate::check(self.plan, self.refs, flight.job, &record) {
                    Ok(()) => true,
                    Err(e) => {
                        rec.stats.failures.push(e);
                        false
                    }
                };
                rec.sample(t2, t2.saturating_duration_since(flight.due), ok);
                rec.stats.completed += 1;
                rec.stats.ok += u64::from(ok);
                if trace {
                    rec.stats.served.push(Served {
                        job: flight.job,
                        fresh_seal: !record.seal_cache_hit,
                    });
                    if let Some(&tick_ns) = rec.tick_start_ns.get(&record.start_tick) {
                        let due_ns = rec.ns(flight.due);
                        if flight.due >= start {
                            rec.stats
                                .queue_wait_ms
                                .push(tick_ns.saturating_sub(due_ns) as f64 / 1e6);
                        }
                    }
                }
                if let Some(client) = flight.client {
                    self.submit_closed(client, &mut rec);
                }
            }
        }
        // Jobs still in flight have waited at least until now: count them,
        // so a growing backlog shows in the tail.
        let now = Instant::now();
        let mut waiting: Vec<Duration> = self
            .inflight
            .values()
            .map(|f| now.saturating_duration_since(f.due))
            .collect();
        waiting.sort_unstable();
        for latency in waiting {
            rec.sample(now, latency, false);
        }
        let mut stats = rec.stats;
        stats.unfinished = self.inflight.len() as u64;
        stats.wall_s = start.elapsed().as_secs_f64();
        stats.cpu_s = cpu_seconds() - cpu0;
        stats.fleet = delta(stats0, self.fleet.stats());
        let cache1 = self.fleet.seal_cache_stats();
        stats.cache = ImageCacheStats {
            hits: cache1.hits - cache0.hits,
            misses: cache1.misses - cache0.misses,
            entries: cache1.entries,
        };
        if trace {
            stats.spans.insert(
                0,
                Span {
                    name: "phase",
                    start_ns: 0,
                    end_ns: (stats.wall_s * 1e9) as u64,
                    parent: 0,
                    job: None,
                },
            );
        }
        stats
    }
}

/// Counter deltas between two readings (peak resident machines is a
/// high-water mark and is kept as read at the end).
fn delta(a: AsyncStats, b: AsyncStats) -> AsyncStats {
    AsyncStats {
        ticks: b.ticks - a.ticks,
        makespan_cycles: b.makespan_cycles - a.makespan_cycles,
        admitted: b.admitted - a.admitted,
        finished: b.finished - a.finished,
        rejected: b.rejected - a.rejected,
        quanta: b.quanta - a.quanta,
        parks: b.parks - a.parks,
        revives: b.revives - a.revives,
        worker_panics: b.worker_panics - a.worker_panics,
        revival_failures: b.revival_failures - a.revival_failures,
        peak_resident_machines: b.peak_resident_machines,
        quarantines: b.quarantines - a.quarantines,
        evictions: b.evictions - a.evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_split_consecutive_samples_and_keep_the_remainder() {
        let samples: Vec<Sample> = (0..2500)
            .map(|i| Sample {
                at_s: (i + 1) as f64 * 0.01,
                latency_ms: (i % 100) as f64,
                ok: i % 10 != 0,
            })
            .collect();
        let phase = PhaseStats {
            wall_s: 25.0,
            samples,
            ..PhaseStats::default()
        };
        let w = phase.windows(1000);
        assert_eq!(
            w.iter().map(|w| w.samples).collect::<Vec<_>>(),
            [1000, 1500]
        );
        // 900 ok jobs over the first 10 s, 1350 over the next 15 s.
        assert!((w[0].jobs_per_s - 90.0).abs() < 1e-9, "{:?}", w[0]);
        assert!((w[1].jobs_per_s - 90.0).abs() < 1e-9, "{:?}", w[1]);
        assert_eq!(w[0].p50_ms, 49.5);
        assert_eq!(w[0].tail_percentile, 99);
        assert!(w[0].tail_ms >= 98.0);
        // Too few samples for two windows: one window over all of them.
        let short = PhaseStats {
            wall_s: 1.0,
            samples: phase.samples[..30].to_vec(),
            ..PhaseStats::default()
        };
        assert_eq!(short.windows(1000).len(), 1);
    }
}
