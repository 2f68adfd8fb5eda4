//! The workloads, generated from the seed.
//!
//! A [`Plan`] is everything the fleet will be asked to do: tenants and
//! their device keys, the distinct programs with their golden outputs,
//! the seals to warm before timing, the deterministic gate job set, and
//! the rules that name the next job of every client. The program under
//! test sees only the [`JobSpec`]s built from it.

use sofia_core::SofiaConfig;
use sofia_crypto::KeySet;
use sofia_fleet::{
    AdmissionConfig, AsyncConfig, ClassConfig, ClassId, JobSpec, SchedMode, TenantId,
};
use sofia_workloads::{adpcm, kernels};

/// Instruction-slot budget of every job: far above the longest program.
pub const JOB_FUEL: u64 = 50_000_000;

/// Seeds at or above this value are held out: tuning the benchmark (and
/// any change measured with it) uses smaller seeds, so a gain can be
/// rechecked on inputs nobody tuned against.
pub const HELD_OUT_FLOOR: u64 = 1_000_000;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over a fixed golden set, vcache off, seals warm: the
    /// uncached fetch path (keystream + CBC-MAC + decode) dominates.
    WarmExec,
    /// The 1k-tenant WFQ shape at `slice: 150`: open-loop interactive and
    /// best-effort arrivals, closed-loop batch tenants; parking and tick
    /// coordination dominate.
    WfqPark,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::WarmExec, Workload::WfqPark];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmExec => "warm-exec",
            Workload::WfqPark => "wfq-park",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full-size runs or the small shapes the smoke tests drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Constructed by the smoke tests only.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// One distinct program of the plan.
#[derive(Clone, Debug)]
pub struct Program {
    pub source: String,
    /// Words the program must emit (the workload's golden model).
    pub expected: Vec<u32>,
}

/// One registered tenant.
#[derive(Clone, Debug)]
pub struct Tenant {
    pub id: TenantId,
    pub keys: KeySet,
    pub class: ClassId,
}

/// A job the plan asks for: which tenant runs which program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Job {
    pub tenant: usize,
    pub program: usize,
}

/// Who keeps the fleet busy.
#[derive(Clone, Debug)]
pub enum Load {
    /// `clients` closed-loop clients; client `c`'s `k`-th job is
    /// `plan.closed_job(c, k)`.
    Closed { clients: usize },
    /// Closed-loop clients (as above) plus an open-loop Poisson stream of
    /// `rate_per_s` arrivals over the open tenants.
    Mixed {
        clients: usize,
        rate_per_s: f64,
        open_tenants: Vec<usize>,
    },
}

/// Everything generated from `(workload, seed, scale)`.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Fleet configuration; `threads` is set by the caller.
    pub config: AsyncConfig,
    pub tenants: Vec<Tenant>,
    pub programs: Vec<Program>,
    /// Seals made before the timed phase (one tiny-fuel job each).
    pub warm: Vec<Job>,
    /// The deterministic gate job set, all submitted at tick 0.
    pub gate: Vec<Job>,
    pub load: Load,
    /// Per closed-loop client, the programs its rounds cycle over (used
    /// by `wfq-park`'s batch tenants only).
    rounds: Vec<Vec<usize>>,
    /// Per tenant, the program its open-loop arrivals run (`wfq-park`).
    open_program: Vec<usize>,
}

/// SplitMix64 finaliser: a well-mixed hash of one word.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic hash of `(seed, a, b)`.
pub fn draw(seed: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed) ^ a) ^ b.rotate_left(32))
}

/// The summing loop every WFQ job runs: emits `n (n + 1) / 2`.
fn sum_loop(n: u32) -> Program {
    Program {
        source: format!(
            "main: li t0, {n}
                   li t1, 0
             loop: add t1, t1, t0
                   subi t0, t0, 1
                   bnez t0, loop
                   li a0, 0xFFFF0000
                   sw t1, 0(a0)
                   halt"
        ),
        expected: vec![n * (n + 1) / 2],
    }
}

fn kernel(w: sofia_workloads::Workload) -> Program {
    Program {
        source: w.source,
        expected: w.expected,
    }
}

fn tenants(seed: u64, n: usize, class_of: impl Fn(usize) -> u8) -> Vec<Tenant> {
    (0..n)
        .map(|i| Tenant {
            id: TenantId(i as u32 + 1),
            keys: KeySet::from_seed(draw(seed, 0x7E4A_4175, i as u64)),
            class: ClassId(class_of(i)),
        })
        .collect()
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Plan {
        match workload {
            Workload::WarmExec => warm_exec(seed, scale),
            Workload::WfqPark => wfq_park(seed, scale),
        }
    }

    /// The job spec the fleet receives for `job`.
    pub fn spec(&self, job: Job) -> JobSpec {
        JobSpec::new(
            self.tenants[job.tenant].id,
            self.programs[job.program].source.clone(),
            JOB_FUEL,
        )
    }

    /// Closed-loop client `client`'s `round`-th job: a pure function of
    /// the seed, so the input sequence never depends on timing.
    pub fn closed_job(&self, client: usize, round: u64) -> Job {
        match self.workload {
            // Client = tenant; its rounds cycle through the golden set
            // from a seeded starting point, so every seed runs the same
            // program mix.
            Workload::WarmExec => {
                let n = self.programs.len() as u64;
                Job {
                    tenant: client,
                    program: ((draw(self.seed, client as u64, 0) + round) % n) as usize,
                }
            }
            // Batch tenants cycle through their own three programs.
            Workload::WfqPark => {
                let rounds = &self.rounds[client];
                Job {
                    tenant: self.batch_tenant(client),
                    program: rounds[(round % rounds.len() as u64) as usize],
                }
            }
        }
    }

    fn batch_tenant(&self, client: usize) -> usize {
        self.tenants
            .iter()
            .position(|t| t.class == ClassId(1))
            .map_or(client, |first| first + client)
    }

    /// The `i`-th open-loop arrival: its job and its gap (seconds) after
    /// the previous arrival — exponential, so arrivals are Poisson.
    pub fn open_arrival(&self, i: u64) -> Option<(Job, f64)> {
        let Load::Mixed {
            rate_per_s,
            ref open_tenants,
            ..
        } = self.load
        else {
            return None;
        };
        let tenant =
            open_tenants[(draw(self.seed, 0x0A11, i) % open_tenants.len() as u64) as usize];
        let u = (draw(self.seed, 0x6A9, i) >> 11) as f64 / (1u64 << 53) as f64;
        let gap = -(1.0 - u).ln() / rate_per_s;
        Some((
            Job {
                tenant,
                program: self.open_program[tenant],
            },
            gap,
        ))
    }
}

/// A seeded bijection on `0..n` (`index` is taken mod `n`): an
/// invertible xorshift-multiply mix on the next power of two, cycle-walked
/// back into range.
pub fn permute(seed: u64, index: u64, n: u64) -> u64 {
    let bits = n.next_power_of_two().trailing_zeros().max(1);
    let mask = (1u64 << bits) - 1;
    let (k1, k2) = (draw(seed, 1, 0) | 1, draw(seed, 2, 0));
    let mut x = index % n;
    loop {
        for _ in 0..3 {
            x = (x ^ k2) & mask;
            x = x.wrapping_mul(k1) & mask;
            x ^= x >> (bits / 2).max(1);
        }
        if x < n {
            return x;
        }
    }
}

fn sliced(slice: u64, workers: usize, sofia: SofiaConfig) -> AsyncConfig {
    AsyncConfig {
        workers,
        mode: SchedMode::FuelSliced { slice },
        sofia,
        ..AsyncConfig::default()
    }
}

/// `warm-exec`: 16 tenants, each with its own keys, resubmitting on
/// completion; programs from a fixed golden set of ≈22k instructions
/// each; vcache off (the fleet default); every seal warmed in set-up.
fn warm_exec(seed: u64, scale: Scale) -> Plan {
    let (n_tenants, golden) = match scale {
        Scale::Full => (
            16,
            [
                kernels::fib(2000),
                kernels::crc32(128),
                adpcm::workload(120),
            ],
        ),
        Scale::Smoke => (4, [kernels::fib(40), kernels::crc32(4), adpcm::workload(4)]),
    };
    let programs: Vec<Program> = golden.into_iter().map(kernel).collect();
    let tenants = tenants(seed, n_tenants, |_| 0);
    let warm = (0..n_tenants)
        .flat_map(|tenant| (0..programs.len()).map(move |program| Job { tenant, program }))
        .collect();
    let gate = (0..n_tenants)
        .map(|tenant| Job {
            tenant,
            program: tenant % programs.len(),
        })
        .collect();
    Plan {
        workload: Workload::WarmExec,
        seed,
        config: sliced(2_000, 4, SofiaConfig::default()),
        tenants,
        programs,
        warm,
        gate,
        load: Load::Closed { clients: n_tenants },
        rounds: Vec::new(),
        open_program: Vec::new(),
    }
}

/// Offered open-loop rate of `wfq-park` (interactive + best-effort
/// arrivals per host second). Well below what the fleet serves on a
/// 2-core box (≈ 250–350 jobs/s), so the open-loop backlog stays bounded
/// and the open-loop jobs stay well under half of all samples: at 200/s
/// they were about half, and `job_p50_ms` jumped between the open-loop
/// latency (≈ 20 ms) and the batch latency (≈ 0.7 s) with host speed.
pub const WFQ_OPEN_RATE: f64 = 100.0;

/// `wfq-park`: the 1k-tenant WFQ shape — 70/20/10 interactive / batch /
/// best-effort tenants at weights 8/2/1, `slice: 150`, 8 lanes, default
/// `park_after`. Interactive and best-effort jobs arrive open-loop
/// (Poisson, wall clock); every batch tenant is a closed-loop client.
fn wfq_park(seed: u64, scale: Scale) -> Plan {
    let (n, rate) = match scale {
        Scale::Full => (1000, WFQ_OPEN_RATE),
        Scale::Smoke => (40, 50.0),
    };
    let n_interactive = n * 7 / 10;
    let n_batch = n * 2 / 10;
    let class_of = |i: usize| -> u8 {
        if i < n_interactive {
            0
        } else if i < n_interactive + n_batch {
            1
        } else {
            2
        }
    };
    let tenants = tenants(seed, n, class_of);
    let mut programs = Vec::new();
    let mut index_of = std::collections::BTreeMap::new();
    let mut program = |loop_n: u32| {
        *index_of.entry(loop_n).or_insert_with(|| {
            programs.push(sum_loop(loop_n));
            programs.len() - 1
        })
    };
    let mut open_program = vec![usize::MAX; n];
    let mut rounds = Vec::new();
    let mut warm = Vec::new();
    for (i, open) in open_program.iter_mut().enumerate() {
        let id = i as u32 + 1;
        match class_of(i) {
            1 => {
                let r: Vec<usize> = (0..3)
                    .map(|round| program(120 + (id % 7) * 10 + round * 3))
                    .collect();
                warm.extend(r.iter().map(|&program| Job { tenant: i, program }));
                rounds.push(r);
            }
            class => {
                let p = program(if class == 0 {
                    8 + id % 16
                } else {
                    40 + id % 11
                });
                *open = p;
                warm.push(Job {
                    tenant: i,
                    program: p,
                });
            }
        }
    }
    let open_tenants: Vec<usize> = (0..n).filter(|&i| class_of(i) != 1).collect();
    let batch_first = n_interactive;
    let gate = (0..n_interactive.min(40))
        .map(|t| Job {
            tenant: t,
            program: open_program[t],
        })
        .chain((0..n_batch.min(16)).map(|c| Job {
            tenant: batch_first + c,
            program: rounds[c][0],
        }))
        .chain((n_interactive + n_batch..n).take(8).map(|t| Job {
            tenant: t,
            program: open_program[t],
        }))
        .collect();
    let mut admission = AdmissionConfig::default();
    for (class, weight) in [(0u8, 8u64), (1, 2), (2, 1)] {
        admission.classes.insert(
            class,
            ClassConfig {
                weight,
                ..ClassConfig::default()
            },
        );
    }
    Plan {
        workload: Workload::WfqPark,
        seed,
        config: AsyncConfig {
            admission,
            ..sliced(150, 8, SofiaConfig::default())
        },
        tenants,
        programs,
        warm,
        gate,
        load: Load::Mixed {
            clients: n_batch,
            rate_per_s: rate,
            open_tenants,
        },
        rounds,
        open_program,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the fleet would be asked to do: every tenant's keys, every
    /// program, and the first jobs of each input stream.
    fn inputs(plan: &Plan) -> Vec<String> {
        let mut out: Vec<String> = plan
            .tenants
            .iter()
            .map(|t| format!("{:?} {:?} {:?}", t.id, t.keys, t.class))
            .chain(plan.programs.iter().map(|p| p.source.clone()))
            .collect();
        let clients = match plan.load {
            Load::Closed { clients } | Load::Mixed { clients, .. } => clients,
        };
        for round in 0..4 {
            for client in 0..clients {
                out.push(format!("{:?}", plan.closed_job(client, round)));
            }
        }
        for i in 0..64 {
            out.push(format!("{:?}", plan.open_arrival(i)));
        }
        out.extend(plan.gate.iter().chain(&plan.warm).map(|j| format!("{j:?}")));
        out
    }

    #[test]
    fn the_generator_is_deterministic_per_seed() {
        for workload in Workload::ALL {
            let a = inputs(&Plan::new(workload, 11, Scale::Smoke));
            assert_eq!(a, inputs(&Plan::new(workload, 11, Scale::Smoke)));
            assert_ne!(a, inputs(&Plan::new(workload, 12, Scale::Smoke)));
        }
    }

    #[test]
    fn permute_is_a_bijection() {
        for n in [1u64, 2, 7, 192, 1000, 4096] {
            let mut seen: Vec<u64> = (0..n).map(|i| permute(99, i, n)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn warm_exec_clients_cycle_through_the_whole_golden_set() {
        let plan = Plan::new(Workload::WarmExec, 3, Scale::Smoke);
        let n = plan.programs.len() as u64;
        for client in 0..plan.tenants.len() {
            let mut programs: Vec<usize> =
                (0..n).map(|r| plan.closed_job(client, r).program).collect();
            programs.sort_unstable();
            assert_eq!(programs, (0..n as usize).collect::<Vec<_>>());
        }
    }

    #[test]
    fn wfq_park_splits_tenants_70_20_10() {
        let plan = Plan::new(Workload::WfqPark, 1, Scale::Full);
        let count = |c: u8| {
            plan.tenants
                .iter()
                .filter(|t| t.class == ClassId(c))
                .count()
        };
        assert_eq!((count(0), count(1), count(2)), (700, 200, 100));
        let (job, gap) = plan.open_arrival(0).expect("wfq-park has an open loop");
        assert_ne!(plan.tenants[job.tenant].class, ClassId(1));
        assert!(gap > 0.0);
    }
}
