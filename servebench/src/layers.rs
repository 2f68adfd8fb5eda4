//! Per-layer costs, measured from outside the crates.
//!
//! * [`Micro`]: each layer's public entry point timed in isolation at the
//!   call shape the datapath uses (median and quartiles over batches,
//!   never best-of-N).
//! * [`replay`]: the traced phase's served jobs re-run serially through
//!   the layer entry points in the order the fleet calls them — parse →
//!   CFG → transform for every fresh seal, machine build, then the job's
//!   quanta (`run_slice`).
//! * [`Budget`]: the two combined into self times per layer that, with
//!   the fleet's unattributed remainder, add up to the phase's busy time.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use sofia_cfg::Cfg;
use sofia_core::machine::{SliceOutcome, SofiaMachine};
use sofia_core::MachineSnapshot;
use sofia_cpu::machine::VanillaMachine;
use sofia_crypto::{ctr, mac, CounterBlock, KeySet};
use sofia_fleet::SchedMode;
use sofia_isa::asm::Module;
use sofia_transform::{BlockFormat, BlockKind, SecureImage, Transformer};

use crate::drive::Served;
use crate::host::quartiles;
use crate::workload::{permute, Job, Plan, JOB_FUEL};

/// Per-call cost distribution, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dist {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Dist {
    pub fn json(&self) -> String {
        format!(
            "{{\"q1\": {}, \"median\": {}, \"q3\": {}}}",
            self.q1, self.median, self.q3
        )
    }
}

/// Times `f` over `batches` batches, each repeating it enough times to
/// last at least `min_batch_ns`, and returns the per-call distribution.
fn per_call(batches: usize, min_batch_ns: u128, mut f: impl FnMut()) -> Dist {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1);
    let reps = (min_batch_ns / once).clamp(1, 1_000_000) as u32;
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    let (q1, median, q3) = quartiles(&samples);
    Dist { q1, median, q3 }
}

/// Batches per micro-benchmark and minimum batch length.
const BATCHES: usize = 21;
const MIN_BATCH_NS: u128 = 1_000_000;

/// Programs sampled for the install and execute-floor micro-benchmarks.
const MICRO_PROGRAMS: usize = 8;

/// The isolated per-call costs of one workload's layers.
#[derive(Clone, Debug, Default)]
pub struct Micro {
    /// 8-counter `ctr::pads`: one block's refill keystream.
    pub refill: Dist,
    /// 6-word `mac::mac_words`: one exec block's CBC-MAC.
    pub cbc_mac: Dist,
    /// `ctr::pads` over a seal-sized batch, per counter.
    pub bulk_per_block: Dist,
    pub parse: Dist,
    pub cfg: Dist,
    pub transform: Dist,
    pub machine_new: Dist,
    pub snapshot_capture: Dist,
    pub snapshot_encode: Dist,
    pub snapshot_decode: Dist,
    pub restore: Dist,
    pub snapshot_bytes: usize,
    /// `VanillaMachine::run` time per retired instruction over the
    /// workload's programs — the execute floor.
    pub exec_ns_per_instr: f64,
}

fn seal(keys: &KeySet, source: &str) -> SecureImage {
    let module = sofia_isa::asm::parse(source).expect("plan programs parse");
    Transformer::new(keys.clone())
        .transform(&module)
        .expect("plan programs seal")
}

fn slice_of(plan: &Plan) -> u64 {
    match plan.config.mode {
        SchedMode::FuelSliced { slice } => slice,
        SchedMode::RunToCompletion => JOB_FUEL,
    }
}

/// Every `stride`-th program of the plan, at most [`MICRO_PROGRAMS`].
fn sampled_programs(plan: &Plan) -> Vec<usize> {
    let stride = plan.programs.len().div_ceil(MICRO_PROGRAMS).max(1);
    (0..plan.programs.len()).step_by(stride).collect()
}

impl Micro {
    /// Measures every micro-layer at `plan`'s call shapes: the machine
    /// and snapshot costs on the first closed-loop client's program,
    /// mid-run after one quantum.
    pub fn measure(plan: &Plan) -> Micro {
        let job = plan.closed_job(0, 0);
        let keys = plan.tenants[job.tenant].keys.clone();
        let expanded = keys.expand();
        let format = BlockFormat::default();
        let source = &plan.programs[job.program].source;
        let image = seal(&keys, source);

        let nonce = image.nonce;
        let base = image.text_base;
        let counters: Vec<CounterBlock> = (0..format.block_words() as u32)
            .map(|w| CounterBlock::from_edge(nonce, base + 4 * w, base + 4 * (w + 1)))
            .collect();
        let refill = per_call(BATCHES, MIN_BATCH_NS, || {
            black_box(ctr::pads(&expanded.ctr, black_box(&counters)));
        });
        let mac_len = format.mac_padded_words(BlockKind::Exec);
        let words: Vec<u32> = (0..mac_len as u32)
            .map(|w| w.wrapping_mul(0x9E37_79B9))
            .collect();
        let cbc_mac = per_call(BATCHES, MIN_BATCH_NS, || {
            black_box(mac::mac_words(
                &expanded.mac_exec,
                black_box(&words),
                mac_len,
            ));
        });
        let bulk: Vec<CounterBlock> = (0..image.ctext.len().max(64) as u32)
            .map(|w| CounterBlock::from_edge(nonce, base + 4 * w, base + 4 * (w + 1)))
            .collect();
        let bulk_total = per_call(BATCHES, MIN_BATCH_NS, || {
            black_box(ctr::pads(&expanded.ctr, black_box(&bulk)));
        });
        let n = bulk.len() as f64;
        let bulk_per_block = Dist {
            q1: bulk_total.q1 / n,
            median: bulk_total.median / n,
            q3: bulk_total.q3 / n,
        };

        let programs = sampled_programs(plan);
        let modules: Vec<(&str, Module)> = programs
            .iter()
            .map(|&p| {
                let src = plan.programs[p].source.as_str();
                (
                    src,
                    sofia_isa::asm::parse(src).expect("plan programs parse"),
                )
            })
            .collect();
        // Per program: the per-call distribution; across programs: the
        // median of each quartile.
        let install = |f: &dyn Fn(&str, &Module)| -> Dist {
            let per_program: Vec<Dist> = modules
                .iter()
                .map(|(src, module)| per_call(5, MIN_BATCH_NS / 4, || f(src, module)))
                .collect();
            let pick = |g: fn(&Dist) -> f64| {
                crate::host::median(&per_program.iter().map(g).collect::<Vec<_>>())
            };
            Dist {
                q1: pick(|d| d.q1),
                median: pick(|d| d.median),
                q3: pick(|d| d.q3),
            }
        };
        let parse = install(&|src, _| {
            black_box(sofia_isa::asm::parse(black_box(src)).ok());
        });
        let cfg = install(&|_, module| {
            black_box(Cfg::build(black_box(module)).ok());
        });
        let transform = install(&|_, module| {
            black_box(
                Transformer::new(keys.clone())
                    .transform(black_box(module))
                    .ok(),
            );
        });

        let config = plan.config.sofia;
        let machine_new = per_call(BATCHES, MIN_BATCH_NS, || {
            black_box(SofiaMachine::with_config(black_box(&image), &keys, &config));
        });
        let mut m = SofiaMachine::with_config(&image, &keys, &config);
        let run = m
            .run_slice(slice_of(plan))
            .expect("plan programs do not trap");
        let remaining = JOB_FUEL - run.consumed;
        let snapshot_capture = per_call(BATCHES, MIN_BATCH_NS, || {
            black_box(m.snapshot(black_box(remaining)));
        });
        let snap = m.snapshot(remaining);
        let snapshot_encode = per_call(BATCHES, MIN_BATCH_NS, || {
            black_box(snap.to_bytes());
        });
        let bytes = snap.to_bytes();
        let snapshot_decode = per_call(BATCHES, MIN_BATCH_NS, || {
            black_box(MachineSnapshot::from_bytes(black_box(&bytes)).ok());
        });
        let restore = per_call(BATCHES, MIN_BATCH_NS, || {
            black_box(SofiaMachine::restore(&image, &keys, black_box(&snap)).ok());
        });

        Micro {
            refill,
            cbc_mac,
            bulk_per_block,
            parse,
            cfg,
            transform,
            machine_new,
            snapshot_capture,
            snapshot_encode,
            snapshot_decode,
            restore,
            snapshot_bytes: bytes.len(),
            exec_ns_per_instr: vanilla_floor(plan, &programs).0,
        }
    }
}

/// `VanillaMachine::run` over `programs` (median of 5 passes): ns per
/// retired instruction, and per-program run time in ns.
fn vanilla_floor(plan: &Plan, programs: &[usize]) -> (f64, HashMap<usize, f64>) {
    let mut per_program = HashMap::new();
    let (mut ns, mut instret) = (0.0, 0u64);
    for &p in programs {
        let assembly =
            sofia_isa::asm::assemble(&plan.programs[p].source).expect("plan programs assemble");
        let mut times = Vec::new();
        let mut retired = 0;
        for _ in 0..5 {
            let mut m = VanillaMachine::new(&assembly);
            let t = Instant::now();
            black_box(m.run(JOB_FUEL).ok());
            times.push(t.elapsed().as_nanos() as f64);
            retired = m.stats().instret;
        }
        let median = crate::host::median(&times);
        per_program.insert(p, median);
        ns += median;
        instret += retired;
    }
    (ns / instret.max(1) as f64, per_program)
}

/// Totals of the serial replay, scaled from the replayed sample up to
/// every served job of the phase.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    pub served: usize,
    pub replayed: usize,
    pub fresh_seals: f64,
    pub parse_ns: f64,
    pub cfg_ns: f64,
    /// `Transformer::transform` (which builds its own CFG).
    pub transform_ns: f64,
    /// Ciphertext words of the freshly sealed images.
    pub seal_words: f64,
    pub machine_new_ns: f64,
    /// `run_slice` time over every quantum.
    pub run_ns: f64,
    /// The same jobs on `VanillaMachine` (the execute floor).
    pub vanilla_ns: f64,
    pub instret: f64,
    pub blocks: f64,
    pub vcache_hits: f64,
    pub vcache_lookups: f64,
    pub ctr_ops: f64,
    pub cbc_ops: f64,
    /// Per-call park (capture + encode + drop) and revive (decode +
    /// restore) costs, timed on the replayed jobs' own mid-run states
    /// when the fleet parked; empty otherwise.
    pub park_ns: Vec<f64>,
    pub revive_ns: Vec<f64>,
}

/// Cap on replayed jobs and replay time; beyond either, a uniform sample
/// is replayed and scaled up.
const REPLAY_CAP: usize = 4000;
const REPLAY_BUDGET_S: f64 = 3.0;

impl Replay {
    /// Median park cost: timed in the replay when the fleet parked,
    /// else the isolated capture + encode.
    pub fn per_park_ns(&self, m: &Micro) -> f64 {
        if self.park_ns.is_empty() {
            m.snapshot_capture.median + m.snapshot_encode.median
        } else {
            crate::host::median(&self.park_ns)
        }
    }

    /// Median revive cost: timed in the replay when the fleet parked,
    /// else the isolated decode + restore.
    pub fn per_revive_ns(&self, m: &Micro) -> f64 {
        if self.revive_ns.is_empty() {
            m.snapshot_decode.median + m.restore.median
        } else {
            crate::host::median(&self.revive_ns)
        }
    }
}

/// Most park/revive pairs timed during one replay.
const PARK_SAMPLES: usize = 4000;

/// Re-runs `served` serially through the public layer entry points;
/// with `park`, every preemption also parks and revives the machine.
pub fn replay(plan: &Plan, served: &[Served], park: bool) -> Replay {
    let slice = slice_of(plan);
    let mut images: HashMap<Job, SecureImage> = HashMap::new();
    let distinct: Vec<usize> = {
        let mut p: Vec<usize> = served.iter().map(|s| s.job.program).collect();
        p.sort_unstable();
        p.dedup();
        p
    };
    let (_, vanilla) = vanilla_floor(plan, &distinct);
    let mut r = Replay {
        served: served.len(),
        ..Replay::default()
    };
    let started = Instant::now();
    // Visit the jobs in a fixed pseudo-random order, so stopping at the
    // cap or the time budget leaves a uniform sample of the phase.
    for k in 0..served.len() as u64 {
        if r.replayed >= REPLAY_CAP || started.elapsed().as_secs_f64() > REPLAY_BUDGET_S {
            break;
        }
        let s = &served[permute(0x5E4E_D0DE, k, served.len() as u64) as usize];
        r.replayed += 1;
        let keys = &plan.tenants[s.job.tenant].keys;
        let source = &plan.programs[s.job.program].source;
        let image = if s.fresh_seal {
            let t0 = Instant::now();
            let module = sofia_isa::asm::parse(source).expect("plan programs parse");
            let t1 = Instant::now();
            black_box(Cfg::build(&module).ok());
            let t2 = Instant::now();
            let image = Transformer::new(keys.clone())
                .transform(&module)
                .expect("plan programs seal");
            let t3 = Instant::now();
            r.fresh_seals += 1.0;
            r.parse_ns += (t1 - t0).as_nanos() as f64;
            r.cfg_ns += (t2 - t1).as_nanos() as f64;
            r.transform_ns += (t3 - t2).as_nanos() as f64;
            r.seal_words += image.ctext.len() as f64;
            images.insert(s.job, image);
            &images[&s.job]
        } else {
            images.entry(s.job).or_insert_with(|| seal(keys, source))
        };
        let t0 = Instant::now();
        let mut m = SofiaMachine::with_config(image, keys, &plan.config.sofia);
        let t1 = Instant::now();
        let mut remaining = JOB_FUEL;
        let mut parked_ns = 0.0;
        loop {
            let run = m
                .run_slice(slice.min(remaining))
                .expect("plan programs do not trap");
            remaining = remaining.saturating_sub(run.consumed);
            if matches!(run.outcome, SliceOutcome::Done(_)) || remaining == 0 {
                break;
            }
            if park && r.park_ns.len() < PARK_SAMPLES {
                // Park and revive between quanta exactly as the fleet
                // does; timed apart from the quanta.
                let p0 = Instant::now();
                let bytes = m.snapshot(remaining).to_bytes();
                drop(m);
                let p1 = Instant::now();
                let snap = MachineSnapshot::from_bytes(&bytes).expect("own snapshot decodes");
                m = SofiaMachine::restore(image, keys, &snap).expect("own snapshot restores");
                let p2 = Instant::now();
                r.park_ns.push((p1 - p0).as_nanos() as f64);
                r.revive_ns.push((p2 - p1).as_nanos() as f64);
                parked_ns += (p2 - p0).as_nanos() as f64;
            }
        }
        let t2 = Instant::now();
        let stats = m.stats();
        r.machine_new_ns += (t1 - t0).as_nanos() as f64;
        r.run_ns += (t2 - t1).as_nanos() as f64 - parked_ns;
        r.vanilla_ns += vanilla.get(&s.job.program).copied().unwrap_or(0.0);
        r.instret += stats.exec.instret as f64;
        r.blocks += stats.blocks as f64;
        r.vcache_hits += stats.vcache_hits as f64;
        r.vcache_lookups += (stats.vcache_hits + stats.vcache_misses) as f64;
        r.ctr_ops += stats.ctr_ops as f64;
        r.cbc_ops += stats.cbc_ops as f64;
    }
    let scale = r.served as f64 / r.replayed.max(1) as f64;
    for v in [
        &mut r.fresh_seals,
        &mut r.parse_ns,
        &mut r.cfg_ns,
        &mut r.transform_ns,
        &mut r.seal_words,
        &mut r.machine_new_ns,
        &mut r.run_ns,
        &mut r.vanilla_ns,
        &mut r.instret,
        &mut r.blocks,
        &mut r.vcache_hits,
        &mut r.vcache_lookups,
        &mut r.ctr_ops,
        &mut r.cbc_ops,
    ] {
        *v *= scale;
    }
    r
}

/// Self time per layer over one traced phase, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    pub isa: f64,
    pub cfg: f64,
    /// Lower/pack/mux/seal: transform minus its CFG build and its bulk
    /// keystream.
    pub transform: f64,
    /// Bulk seal keystream plus every uncached fetch's refill + MAC.
    pub crypto: f64,
    pub cpu: f64,
    /// Fetch/decode beyond crypto, machine builds, park and revive.
    pub core: f64,
    /// Busy time no replayed layer accounts for: coordinator, pool and
    /// generator overhead.
    pub fleet_unattributed: f64,
    /// Breakdown for the dominance check.
    pub install: f64,
    pub fetch: f64,
    pub park: f64,
}

impl Budget {
    /// Combines the replay with the micro costs and the fleet's own
    /// park/revive counts; `busy_ms` is the phase's process CPU time.
    pub fn new(r: &Replay, m: &Micro, parks: u64, revives: u64, busy_ms: f64) -> Budget {
        let ms = 1e-6;
        let bulk = r.seal_words * m.bulk_per_block.median;
        let verified = r.blocks - r.vcache_hits;
        let fetch_crypto = verified * (m.refill.median + m.cbc_mac.median);
        let park = parks as f64 * r.per_park_ns(m) + revives as f64 * r.per_revive_ns(m);
        let core_fetch = r.run_ns - r.vanilla_ns - fetch_crypto;
        let b = Budget {
            isa: r.parse_ns * ms,
            cfg: r.cfg_ns * ms,
            transform: (r.transform_ns - r.cfg_ns - bulk) * ms,
            crypto: (bulk + fetch_crypto) * ms,
            cpu: r.vanilla_ns * ms,
            core: (core_fetch + r.machine_new_ns + park) * ms,
            fleet_unattributed: 0.0,
            install: (r.parse_ns + r.transform_ns) * ms,
            fetch: (r.run_ns - r.vanilla_ns) * ms,
            park: (park + r.machine_new_ns) * ms,
        };
        Budget {
            fleet_unattributed: busy_ms - b.layers(),
            ..b
        }
    }

    /// Sum of the replayed layers' self times.
    pub fn layers(&self) -> f64 {
        self.isa + self.cfg + self.transform + self.crypto + self.cpu + self.core
    }

    /// The largest replayed group: install, fetch, execute or park.
    pub fn dominant(&self) -> &'static str {
        [
            ("install", self.install),
            ("fetch", self.fetch),
            ("execute", self.cpu),
            ("park", self.park),
        ]
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(name, _)| name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scale, Workload};

    /// `cfg.build_us` times `Cfg::build` on the parsed programs; that is
    /// only the CFG layer's cost if the build succeeds on them.
    #[test]
    fn cfg_builds_on_every_parsed_program() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 1, Scale::Smoke);
            for p in &plan.programs {
                let module = sofia_isa::asm::parse(&p.source).expect("plan programs parse");
                assert!(Cfg::build(&module).is_ok(), "{workload:?}: {}", p.source);
            }
        }
    }
}
