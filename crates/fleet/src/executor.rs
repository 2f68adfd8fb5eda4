//! The fleet driver: thousands of tenant jobs multiplexed over a few OS
//! threads.
//!
//! [`AsyncFleet`] is the one fleet driver; the batch [`crate::Fleet`] is
//! a thin facade over it (one class, unbounded admission, no parking).
//! It is a hand-rolled executor (no external runtime) with one
//! persistent thread pool, built on three existing seams:
//!
//! * **Yield point** — the engine's fuel-slice seam
//!   ([`sofia_core::SofiaMachine::run_slice`] / cooperative preemption
//!   on [`sofia_core::ResumeEdge`]): a job runs one quantum, then the
//!   driver decides who runs next. No job ever owns an OS thread.
//! * **Cold parking** — a job that waits too long has its machine
//!   serialised to `SOFS1` snapshot bytes
//!   ([`sofia_core::MachineSnapshot`]) and dropped; it revives on its
//!   next quantum. Suspend→restore is bit-identical to uninterrupted
//!   execution (pinned by the snapshot differential suite), so parking
//!   is invisible to results — it only trades revive latency for
//!   resident memory.
//! * **Virtual time** — the virtual clock is driven entirely by the
//!   recorded per-quantum simulated cycle costs, which the determinism
//!   invariant fixes for any thread count: each tick serves up to
//!   `workers` lanes in lock-step, like a barrier-synchronous
//!   accelerator dispatch, and costs the **maximum** quantum cost among
//!   them. Quanta are priced as they are served, so p50/p99 sojourn per
//!   class, and a batch's makespan, are deterministic, host-independent
//!   numbers.
//!
//! ## Scheduling
//!
//! Each tick the driver admits due arrivals (typed backpressure — see
//! [`crate::admission`]), then fills up to `workers` **lanes** by
//! weighted fair queueing across tenant classes: repeatedly pick the
//! backlogged class with the least weighted virtual service
//! (`vservice / weight`, compared exactly via u128 cross-multiply),
//! take the head of its FIFO, and charge it provisionally; after the
//! lanes run, charges are trued up with the actual simulated cycles.
//! Classes are FIFO inside, fair across — a weight-4 class gets 4× the
//! service of a weight-1 class while both are backlogged.
//!
//! ## Determinism
//!
//! `threads` (host parallelism) and `workers` (virtual lanes per tick)
//! are deliberately separate knobs. Everything that affects results —
//! admission, lane selection, tick pricing, the fold order of finished
//! records — is computed on the coordinator from queue state alone;
//! host threads only execute the selected quanta, each on a job-owned
//! machine. The async ≡ serial bit-identity invariant therefore holds
//! at any thread count *by construction*, and the `fleet_async` suite
//! pins it.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use sofia_core::MachineSnapshot;
use sofia_crypto::KeySet;
use sofia_transform::cache::{image_key, ImageCache, ImageKey};

use crate::admission::{AdmissionConfig, AdmitError, ClassId, Rejection};
use crate::chaos::{ChaosPlan, InjectedFault, Seam};
use crate::checkpoint::{AdoptError, JobCheckpoint};
use crate::fleet::{
    catch_quantum, finish, lock_clean, needs_containment, restore_against, FleetConfig, FleetError,
    JobRun, SchedMode,
};
use crate::job::{JobId, JobOutcome, JobRecord, JobSpec, TenantId};
use crate::quarantine::{fold_policy, QuarantinePolicy, TenantState};
use crate::resilience::{ResilienceConfig, ResilienceEvent, ResilienceState, ResilienceStats};
use crate::seal_farm::{SealFarm, SealVerdict};
use crate::stats::TenantStats;

/// Full configuration of an [`AsyncFleet`].
#[derive(Clone, Debug)]
pub struct AsyncConfig {
    /// Host OS threads executing quanta (clamped to ≥ 1). Pure host
    /// parallelism: provably cannot affect results, records or virtual
    /// time — only wall-clock.
    pub threads: usize,
    /// Virtual lanes served per tick (clamped to ≥ 1) — the async
    /// analogue of [`FleetConfig::workers`]. Part of the deterministic
    /// surface: changing it changes the schedule (but never what any
    /// job computes).
    pub workers: usize,
    /// Scheduling discipline. [`SchedMode::FuelSliced`] is the point of
    /// the async driver; run-to-completion still works (each quantum is
    /// a whole job).
    pub mode: SchedMode,
    /// Containment for violating (or worker-crashing) tenants.
    pub quarantine: QuarantinePolicy,
    /// The SOFIA machine configuration every job runs under.
    pub sofia: sofia_core::SofiaConfig,
    /// Admission policy: queue caps, class weights, fuel quotas.
    pub admission: AdmissionConfig,
    /// Park a waiting job's machine to `SOFS1` bytes after this many
    /// consecutive unserved ticks (`None` = never park). Parking is
    /// invisible to results; it bounds resident machines.
    pub park_after: Option<u64>,
    /// Seeded host-fault injection. [`ChaosPlan::none`] (the default)
    /// is bit-for-bit invisible — the chaos suite pins this.
    pub chaos: ChaosPlan,
    /// Recovery policy: deadlines, retry budgets, circuit breaking,
    /// graceful degradation. [`ResilienceConfig::default`] (the
    /// default) turns all of it off.
    pub resilience: ResilienceConfig,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            threads: 4,
            workers: 4,
            mode: SchedMode::FuelSliced { slice: 500 },
            quarantine: QuarantinePolicy::default(),
            sofia: sofia_core::SofiaConfig::default(),
            admission: AdmissionConfig::default(),
            park_after: Some(8),
            chaos: ChaosPlan::none(),
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Driver-level counters (host-independent, deterministic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AsyncStats {
    /// Ticks driven so far.
    pub ticks: u64,
    /// Sum of tick costs so far — the virtual clock, in simulated
    /// cycles.
    pub makespan_cycles: u64,
    /// Jobs admitted (immediately or at their arrival tick) or adopted
    /// from another driver.
    pub admitted: u64,
    /// Jobs that finished with a record.
    pub finished: u64,
    /// Jobs refused by admission control at their arrival tick.
    pub rejected: u64,
    /// Scheduler quanta served.
    pub quanta: u64,
    /// Machines parked to snapshot bytes.
    pub parks: u64,
    /// Machines revived from snapshot bytes.
    pub revives: u64,
    /// Jobs that ended in [`JobOutcome::WorkerPanic`].
    pub worker_panics: u64,
    /// Jobs whose parked snapshot failed revival
    /// ([`JobOutcome::RevivalFailed`]) — counted at the settle that
    /// produced the record, whether or not a retry then rescued the job.
    pub revival_failures: u64,
    /// Peak count of live (unparked) machines resident across queued
    /// jobs at a tick boundary.
    pub peak_resident_machines: u64,
    /// Tenants newly suspended by the quarantine fold (`Suspend` and
    /// post-retry `RetryWithReboot` containments).
    pub quarantines: u64,
    /// Tenants evicted by the quarantine fold.
    pub evictions: u64,
}

/// One queued job plus its async bookkeeping. Travels whole to a pool
/// thread for its quantum and comes back in the lane's result.
struct Pending {
    run: JobRun,
    /// `SOFS1` bytes of the parked machine (`run.machine` is `None`
    /// while this is `Some`).
    parked: Option<Vec<u8>>,
    class: ClassId,
    arrival_tick: u64,
    /// Virtual-clock reading at admission — the sojourn baseline.
    arrival_cycles: u64,
    start_tick: Option<u64>,
    /// Consecutive ticks queued without service (parking trigger).
    idle_ticks: u64,
}

/// Per-class WFQ state.
struct ClassState {
    /// Total virtual service charged, in simulated cycles.
    vservice: u64,
    queue: VecDeque<Pending>,
}

struct AsyncTenant {
    keys: KeySet,
    class: ClassId,
    state: TenantState,
    stats: TenantStats,
    /// Fuel budgets of the tenant's queued + running jobs (the quota
    /// admission gate).
    outstanding_fuel: u64,
}

/// A job scheduled for a future tick, awaiting admission.
struct Arrival {
    job: JobId,
    spec: JobSpec,
}

/// One lane's work for a tick.
struct LaneTask {
    pending: Pending,
    /// The WFQ charge applied at selection, to true up after the run.
    provisional: u64,
    /// The fault the chaos plan assigned to this lane, if any. Decided
    /// on the coordinator (deterministic), applied on the lane runner.
    fault: Option<InjectedFault>,
}

struct LaneResult {
    pending: Pending,
    provisional: u64,
    record: Option<JobRecord>,
    revived: bool,
}

/// Revives a parked run in place. Any failure is a *host* fault (the
/// snapshot was produced by this very driver, so corruption means the
/// bytes rotted in storage or transit), reported as the typed
/// [`JobOutcome::RevivalFailed`] — never a security verdict.
fn revive(run: &mut JobRun, bytes: &[u8]) -> Result<(), String> {
    let snap = MachineSnapshot::from_bytes(bytes).map_err(|e| format!("revive decode: {e}"))?;
    let Some(image) = run.image.clone() else {
        return Err("parked job lost its sealed image".to_string());
    };
    let machine = restore_against(&image, &run.keys, &snap, run.spec.sabotage)
        .map_err(|e| format!("revive restore: {e:?}"))?;
    run.machine = Some(machine);
    Ok(())
}

/// Serves one lane: revive if parked, apply any injected fault, then
/// one quantum through the panic barrier. Runs on a pool thread (or
/// inline when `threads == 1`).
fn run_lane(mut task: LaneTask, config: &FleetConfig, cache: &ImageCache) -> LaneResult {
    let run = &mut task.pending.run;
    let mut revived = false;
    if let Some(bytes) = task.pending.parked.take() {
        match revive(run, &bytes) {
            Ok(()) => revived = true,
            Err(msg) => {
                // Mirror a seal failure's accounting: one zero-cost
                // quantum, so the tick is still priced.
                run.slices += 1;
                run.slice_cycles.push(0);
                let record = finish(run, JobOutcome::RevivalFailed(msg));
                return LaneResult {
                    pending: task.pending,
                    provisional: task.provisional,
                    record: Some(record),
                    revived: false,
                };
            }
        }
    }
    let record = match task.fault.take() {
        // An injected farm fault: the job's fresh seal "failed" — the
        // same typed, zero-cost-quantum shape as a real seal error.
        Some(InjectedFault::SealFault) => {
            run.slices += 1;
            run.slice_cycles.push(0);
            Some(finish(
                run,
                JobOutcome::SealFailed("chaos: injected seal-farm fault".to_string()),
            ))
        }
        // An injected worker death: no real panic ever unwinds (the
        // "never a panic" contract) — the machine is dropped and the
        // same typed record a caught panic would produce is emitted.
        Some(InjectedFault::WorkerPanic) => {
            run.machine = None;
            run.slices += 1;
            run.slice_cycles.push(0);
            Some(finish(
                run,
                JobOutcome::WorkerPanic("chaos: injected worker fault".to_string()),
            ))
        }
        // An injected stall: the quantum runs normally, then its lane
        // cost is taxed in *virtual* cycles, so the virtual clock (and
        // every sojourn derived from it) prices the slow host. The
        // machine's own simulated cycles are untouched — a stall is
        // scheduler time, not device work.
        Some(InjectedFault::Stall { cycles }) => {
            let mut record = catch_quantum(run, config, cache);
            match record.as_mut() {
                Some(r) => {
                    if let Some(last) = r.slice_cycles.last_mut() {
                        *last = last.saturating_add(cycles);
                    }
                }
                None => {
                    if let Some(last) = run.slice_cycles.last_mut() {
                        *last = last.saturating_add(cycles);
                    }
                }
            }
            record
        }
        None => catch_quantum(run, config, cache),
    };
    LaneResult {
        pending: task.pending,
        provisional: task.provisional,
        record,
        revived,
    }
}

// ---------------------------------------------------------------------
// The persistent thread pool.
// ---------------------------------------------------------------------

/// Shared state between the coordinator and the pool threads. One
/// dispatch wave at a time: the coordinator publishes `tasks`, workers
/// claim indices, the coordinator blocks on `done` until every lane
/// settles. Poisoning is shrugged off everywhere ([`lock_clean`]) — a
/// panicking quantum is already contained by [`catch_quantum`], and a
/// poisoned flag must not take the driver down (the whole point of the
/// panic-isolation fix).
struct PoolShared {
    config: FleetConfig,
    cache: Arc<ImageCache>,
    state: Mutex<PoolState>,
    /// Signalled when a wave is published or on shutdown.
    work: Condvar,
    /// Signalled when the last lane of a wave settles.
    done: Condvar,
}

#[derive(Default)]
struct PoolState {
    tasks: Vec<Option<LaneTask>>,
    next: usize,
    settled: usize,
    results: Vec<Option<LaneResult>>,
    shutdown: bool,
}

struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    fn new(threads: usize, config: FleetConfig, cache: Arc<ImageCache>) -> Pool {
        let shared = Arc::new(PoolShared {
            config,
            cache,
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Pool { shared, handles }
    }

    /// Runs one wave of lanes and returns their results in lane order.
    fn dispatch(&self, tasks: Vec<LaneTask>) -> Vec<LaneResult> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let mut state = lock_clean(&self.shared.state);
        state.tasks = tasks.into_iter().map(Some).collect();
        state.results = (0..n).map(|_| None).collect();
        state.next = 0;
        state.settled = 0;
        self.shared.work.notify_all();
        while state.settled < n {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        state.tasks.clear();
        let results = std::mem::take(&mut state.results);
        results.into_iter().flatten().collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = lock_clean(&self.shared.state);
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker that somehow died outside the quantum barrier
            // has nothing left to tell us; the driver is shutting down.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut state = lock_clean(&shared.state);
    loop {
        if state.shutdown {
            return;
        }
        if state.next < state.tasks.len() {
            let i = state.next;
            state.next += 1;
            let Some(task) = state.tasks[i].take() else {
                continue;
            };
            drop(state);
            let result = run_lane(task, &shared.config, &shared.cache);
            state = lock_clean(&shared.state);
            state.results[i] = Some(result);
            state.settled += 1;
            if state.settled == state.tasks.len() {
                shared.done.notify_all();
            }
        } else {
            // Checked `next < tasks.len()` under the same lock the
            // dispatcher publishes under — no lost wakeup.
            state = shared
                .work
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

// ---------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------

/// The multi-tenant fleet driver. See the [module docs](self) for the
/// architecture: register, submit, drive, drain, with a virtual clock
/// ([`AsyncFleet::tick`] / [`AsyncFleet::now`]), scheduled arrivals
/// with deferred typed rejection ([`AsyncFleet::submit_at`] /
/// [`AsyncFleet::drain_rejected`]), and job migration between drivers
/// ([`AsyncFleet::checkpoint_job`] / [`AsyncFleet::adopt_job`]).
///
/// # Examples
///
/// ```
/// use sofia_crypto::KeySet;
/// use sofia_fleet::{AsyncConfig, AsyncFleet, ClassId, JobSpec, TenantId};
///
/// let mut fleet = AsyncFleet::new(AsyncConfig {
///     threads: 2,
///     workers: 2,
///     ..Default::default()
/// });
/// let alice = TenantId(1);
/// fleet.register_tenant(alice, KeySet::from_seed(0xA11CE), ClassId(0))?;
/// fleet.submit(JobSpec::new(
///     alice,
///     "main: li t0, 6
///            li t1, 7
///            mul t2, t0, t1
///            li a0, 0xFFFF0000
///            sw t2, 0(a0)
///            halt",
///     10_000,
/// ))?;
/// fleet.run_until_idle();
/// let records = fleet.drain_finished();
/// assert_eq!(records[0].out_words, vec![42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct AsyncFleet {
    config: AsyncConfig,
    /// The per-quantum configuration every lane runs under.
    fleet_config: FleetConfig,
    cache: Arc<ImageCache>,
    /// Lazily spawned on the first multi-threaded dispatch.
    pool: Option<Pool>,
    tenants: BTreeMap<u32, AsyncTenant>,
    classes: BTreeMap<u8, ClassState>,
    /// Future arrivals, keyed by arrival tick (FIFO within a tick).
    arrivals: BTreeMap<u64, Vec<Arrival>>,
    next_job: u64,
    now: u64,
    finished: Vec<JobRecord>,
    rejected: Vec<Rejection>,
    stats: AsyncStats,
    /// The active fault-injection plan (swappable mid-run via
    /// [`AsyncFleet::set_chaos_plan`] — an operator seam, and what the
    /// warm-then-storm chaos tests drive).
    chaos: ChaosPlan,
    /// The recovery state machine: retry ledgers, breaker window,
    /// degradation rungs, the typed event log.
    res: ResilienceState,
    /// Jobs [`AsyncFleet::run_batch_capped`] held back at their quantum
    /// cap, in hold order; the next capped batch re-admits them.
    held: Vec<Pending>,
    /// The per-job quantum cap of the batch being driven, if any.
    quantum_cap: Option<u32>,
}

impl AsyncFleet {
    /// An empty driver.
    pub fn new(config: AsyncConfig) -> AsyncFleet {
        let fleet_config = FleetConfig {
            workers: config.workers.max(1),
            mode: config.mode,
            quarantine: config.quarantine,
            sofia: config.sofia,
        };
        let chaos = config.chaos.clone();
        let res = ResilienceState::new(config.resilience.clone());
        AsyncFleet {
            config,
            fleet_config,
            cache: Arc::new(ImageCache::default()),
            pool: None,
            tenants: BTreeMap::new(),
            classes: BTreeMap::new(),
            arrivals: BTreeMap::new(),
            next_job: 0,
            now: 0,
            finished: Vec::new(),
            rejected: Vec::new(),
            stats: AsyncStats::default(),
            chaos,
            res,
            held: Vec::new(),
            quantum_cap: None,
        }
    }

    /// Registers a tenant's device keys into service class `class`.
    ///
    /// # Errors
    ///
    /// [`FleetError::TenantExists`] if the id is taken.
    pub fn register_tenant(
        &mut self,
        id: TenantId,
        keys: KeySet,
        class: ClassId,
    ) -> Result<(), FleetError> {
        if self.tenants.contains_key(&id.0) {
            return Err(FleetError::TenantExists(id));
        }
        self.tenants.insert(
            id.0,
            AsyncTenant {
                keys,
                class,
                state: TenantState::Active,
                stats: TenantStats::default(),
                outstanding_fuel: 0,
            },
        );
        self.class_state(class);
        Ok(())
    }

    /// Submits a job arriving *now*: admission is decided immediately.
    ///
    /// # Errors
    ///
    /// The typed [`AdmitError`] backpressure signal — the job was not
    /// queued.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, AdmitError> {
        let job = JobId(self.next_job);
        self.admit(job, spec)?;
        self.next_job += 1;
        Ok(job)
    }

    /// Schedules a job to arrive at virtual `tick` (clamped to the
    /// present). Admission is decided when the tick is driven; a refusal
    /// surfaces as a [`Rejection`] via [`AsyncFleet::drain_rejected`].
    /// This is the open-loop seam: the bench's arrival generators
    /// pre-load thousands of these.
    pub fn submit_at(&mut self, spec: JobSpec, tick: u64) -> JobId {
        let job = JobId(self.next_job);
        self.next_job += 1;
        self.arrivals
            .entry(tick.max(self.now))
            .or_default()
            .push(Arrival { job, spec });
        job
    }

    /// The virtual clock: ticks driven so far.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The virtual clock in simulated cycles (sum of tick costs).
    pub fn clock_cycles(&self) -> u64 {
        self.stats.makespan_cycles
    }

    /// Jobs currently queued across all classes.
    pub fn queued_jobs(&self) -> usize {
        self.classes.values().map(|c| c.queue.len()).sum()
    }

    /// Jobs currently parked as `SOFS1` bytes.
    pub fn parked_jobs(&self) -> usize {
        self.classes
            .values()
            .flat_map(|c| c.queue.iter())
            .filter(|p| p.parked.is_some())
            .count()
    }

    /// Arrivals scheduled for future ticks.
    pub fn pending_arrivals(&self) -> usize {
        self.arrivals.values().map(Vec::len).sum()
    }

    /// Driver counters.
    pub fn stats(&self) -> AsyncStats {
        self.stats
    }

    /// Resilience counters: faults injected, retries, sheds, breaker
    /// transitions, degradations. All zeros unless chaos or a
    /// non-default [`ResilienceConfig`] is active.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.res.stats
    }

    /// Takes every typed fault/recovery event since the last drain, in
    /// coordinator (deterministic) order.
    pub fn drain_resilience_events(&mut self) -> Vec<ResilienceEvent> {
        self.res.drain_events()
    }

    /// The active fault-injection plan.
    pub fn chaos_plan(&self) -> &ChaosPlan {
        &self.chaos
    }

    /// Swaps the fault-injection plan from the next tick on — the
    /// operator seam for drills ("warm the fleet, then storm it").
    /// Installing [`ChaosPlan::none`] stops injection immediately.
    pub fn set_chaos_plan(&mut self, plan: ChaosPlan) {
        self.chaos = plan;
    }

    /// Records a fault the *harness* drew (the stream-scoped seams —
    /// [`Seam::Checkpoint`] truncation, [`Seam::Storm`] bursts — are
    /// injected outside the driver, but their typed events belong in
    /// the same ledger as the driver's own strikes, so "every fault has
    /// exactly one typed event" holds across the whole experiment).
    pub fn note_harness_fault(&mut self, seam: Seam, job: Option<JobId>, tenant: Option<TenantId>) {
        let now = self.now;
        self.res.note_fault(now, seam, job, tenant);
    }

    /// Per-tenant roll-ups, keyed by raw tenant id.
    pub fn tenant_stats(&self) -> BTreeMap<u32, TenantStats> {
        self.tenants.iter().map(|(id, t)| (*id, t.stats)).collect()
    }

    /// A tenant's service state.
    pub fn tenant_state(&self, id: TenantId) -> Option<TenantState> {
        self.tenants.get(&id.0).map(|t| t.state)
    }

    /// Lifts a suspension. Returns whether the tenant went back to
    /// [`TenantState::Active`] (evicted tenants never do).
    pub fn release(&mut self, id: TenantId) -> bool {
        match self.tenants.get_mut(&id.0) {
            Some(t) if t.state == TenantState::Suspended => {
                t.state = TenantState::Active;
                true
            }
            _ => false,
        }
    }

    /// Takes every record finished since the last drain, in completion
    /// order (deterministic: tick order, lane order within a tick).
    pub fn drain_finished(&mut self) -> Vec<JobRecord> {
        std::mem::take(&mut self.finished)
    }

    /// Takes every deferred admission rejection since the last drain.
    pub fn drain_rejected(&mut self) -> Vec<Rejection> {
        std::mem::take(&mut self.rejected)
    }

    /// Seal-cache counters (shared across all tenants of this driver).
    pub fn seal_cache_stats(&self) -> sofia_transform::cache::ImageCacheStats {
        self.cache.stats()
    }

    /// Drives ticks until no job is queued and no arrival is scheduled.
    /// Returns the number of jobs finished along the way.
    pub fn run_until_idle(&mut self) -> usize {
        let mut finished = 0;
        while self.queued_jobs() > 0 || !self.arrivals.is_empty() {
            finished += self.tick();
        }
        finished
    }

    /// Drives one capped batch: re-admits the jobs the previous capped
    /// batch held (in id order, ahead of everything queued since, arriving
    /// now), then drives ticks until idle with every job limited to
    /// `max_quanta` (clamped to ≥ 1) quanta counted from now. A job
    /// still runnable at its cap is held — machine intact, between
    /// blocks — for the next call or for [`AsyncFleet::checkpoint_job`].
    pub(crate) fn run_batch_capped(&mut self, max_quanta: u32) {
        let mut held = std::mem::take(&mut self.held);
        held.sort_by_key(|p| p.run.id);
        let (now, clock) = (self.now, self.stats.makespan_cycles);
        for mut pending in held.into_iter().rev() {
            pending.arrival_tick = now;
            pending.arrival_cycles = clock;
            pending.start_tick = None;
            self.class_state(pending.class).queue.push_front(pending);
        }
        for pending in self.classes.values_mut().flat_map(|c| c.queue.iter_mut()) {
            pending.run.quanta_this_batch = 0;
        }
        self.quantum_cap = Some(max_quanta.max(1));
        self.run_until_idle();
        self.quantum_cap = None;
    }

    /// Ids of every queued job: held jobs in id order, then each class
    /// queue in service order.
    pub(crate) fn queued_ids(&self) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self.held.iter().map(|p| p.run.id).collect();
        ids.sort();
        ids.extend(
            self.classes
                .values()
                .flat_map(|c| c.queue.iter().map(|p| p.run.id)),
        );
        ids
    }

    /// Removes a queued job — waiting, parked, or held by a capped batch
    /// — and packages everything another driver needs to finish it: the
    /// spec (tenant, source, fuel, sabotage), the accumulated scheduling
    /// history, and — if the job has already run — the suspended machine
    /// as a [`MachineSnapshot`] (a parked job's `SOFS1` bytes are
    /// decoded). The ciphertext stays behind: the adopting driver
    /// re-seals the source from its tenant's [`KeySet`] through its own
    /// image cache, and the image MACs cover the code in transit.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownJob`] if `id` is not queued (it finished,
    /// was already checkpointed, has not arrived yet, or never existed).
    /// A parked job whose snapshot bytes no longer decode is refused the
    /// same way and stays queued: its next quantum finishes it as the
    /// typed [`JobOutcome::RevivalFailed`].
    pub fn checkpoint_job(&mut self, id: JobId) -> Result<JobCheckpoint, FleetError> {
        let unknown = FleetError::UnknownJob(id);
        let queued = self
            .held
            .iter()
            .chain(self.classes.values().flat_map(|c| c.queue.iter()))
            .find(|p| p.run.id == id)
            .ok_or(unknown)?;
        let machine = match (&queued.run.machine, &queued.parked) {
            (Some(m), _) => Some(m.snapshot(queued.run.remaining)),
            (None, Some(bytes)) => Some(MachineSnapshot::from_bytes(bytes).map_err(|_| unknown)?),
            (None, None) => None,
        };
        let pending = match self.held.iter().position(|p| p.run.id == id) {
            Some(i) => self.held.remove(i),
            None => self
                .classes
                .values_mut()
                .find_map(|c| {
                    let i = c.queue.iter().position(|p| p.run.id == id)?;
                    c.queue.remove(i)
                })
                .ok_or(unknown)?,
        };
        let run = pending.run;
        if let Some(t) = self.tenants.get_mut(&run.spec.tenant.0) {
            t.outstanding_fuel = t.outstanding_fuel.saturating_sub(run.spec.fuel);
        }
        self.res.finish_job(id);
        Ok(JobCheckpoint {
            tenant: run.spec.tenant,
            source: run.spec.source,
            fuel: run.spec.fuel,
            sabotage: run.spec.sabotage,
            remaining: run.remaining,
            retried: run.retried,
            prior: run.prior,
            slices: run.slices,
            slice_cycles: run.slice_cycles,
            machine,
        })
    }

    /// Adopts a job checkpointed out of another driver: re-seals the
    /// tenant's program through this driver's [`ImageCache`] (the tenant
    /// must be registered here with the same device keys for the resumed
    /// edge to verify), restores the suspended machine against the
    /// freshly sealed image, and queues the job in the tenant's class,
    /// arriving now. Returns the job's id in *this* driver.
    ///
    /// Adoption moves work that was admitted at its origin, so only the
    /// tenant registry gates it, not the queue caps or fuel quotas. Only
    /// the quanta this driver serves are priced on its clock; the
    /// checkpoint's history rides along in the record.
    ///
    /// Restoration re-verifies every warm verified-block-cache line
    /// against the re-sealed image, so a checkpoint cannot smuggle
    /// unverified plaintext between drivers; a tampered resume point is
    /// caught by edge verification on the job's first resumed fetch.
    ///
    /// # Errors
    ///
    /// [`AdoptError`]: unknown/quarantined/evicted tenant, seal failure,
    /// or a snapshot that fails restoration.
    pub fn adopt_job(&mut self, ckpt: JobCheckpoint) -> Result<JobId, AdoptError> {
        let Some(tenant) = self.tenants.get_mut(&ckpt.tenant.0) else {
            return Err(AdoptError::Fleet(FleetError::UnknownTenant(ckpt.tenant)));
        };
        match tenant.state {
            TenantState::Active => {}
            TenantState::Suspended => {
                return Err(AdoptError::Fleet(FleetError::Quarantined(ckpt.tenant)))
            }
            TenantState::Evicted => {
                return Err(AdoptError::Fleet(FleetError::Evicted(ckpt.tenant)))
            }
        }
        let id = JobId(self.next_job);
        let spec = JobSpec {
            tenant: ckpt.tenant,
            source: ckpt.source,
            fuel: ckpt.fuel,
            sabotage: ckpt.sabotage,
        };
        let mut run = JobRun::new(id, tenant.keys.clone(), spec);
        if let Some(snap) = &ckpt.machine {
            let (image, hit) = self
                .cache
                .get_or_seal_traced(&run.keys, &run.spec.source)
                .map_err(AdoptError::Seal)?;
            let machine = restore_against(&image, &run.keys, snap, run.spec.sabotage)
                .map_err(AdoptError::Restore)?;
            run.image = Some(image);
            run.machine = Some(machine);
            run.seal_cache_hit = hit;
        }
        run.remaining = ckpt.remaining;
        run.retried = ckpt.retried;
        run.prior = ckpt.prior;
        run.slices = ckpt.slices;
        run.slice_cycles = ckpt.slice_cycles;
        tenant.outstanding_fuel = tenant.outstanding_fuel.saturating_add(run.spec.fuel);
        let class = tenant.class;
        self.enqueue(run, class);
        self.next_job += 1;
        Ok(id)
    }

    /// Drives one virtual tick: run the resilience pass (breaker
    /// cooldown, deadline sheds), admit due arrivals, WFQ-select up to
    /// `workers` lanes, draw the chaos plan against them, execute their
    /// quanta (in parallel over the host pool — results provably
    /// independent of `threads`), price the tick, fold finished records
    /// (intercepting retryable faults), park the cold. Returns the
    /// number of jobs that finished this tick (shed jobs included —
    /// they finish with a typed [`JobOutcome::DeadlineMissed`] record).
    pub fn tick(&mut self) -> usize {
        let now = self.now;
        let shed = self.resilience_pass(now);
        self.admit_due(now);
        let mut lanes = self.select_lanes();
        self.inject_faults(now, &mut lanes);
        let results = self.execute(lanes);
        let finished = self.settle(now, results);
        self.park_pass();
        self.now += 1;
        self.stats.ticks += 1;
        shed + finished
    }

    /// The per-tick recovery pass, run before admissions so a breaker
    /// close (or a deadline shed freeing queue room) takes effect for
    /// this tick's arrivals: closes the breaker when its cooldown has
    /// elapsed, then sheds every queued job whose virtual-time wait has
    /// exceeded its class deadline. Shed jobs finish with a typed
    /// [`JobOutcome::DeadlineMissed`] record — no quarantine (the job
    /// never ran; the fleet was slow, not the tenant hostile).
    fn resilience_pass(&mut self, now: u64) -> usize {
        self.res.breaker_tick(now);
        if self.res.config.deadlines.is_empty() {
            return 0;
        }
        let clock = self.stats.makespan_cycles;
        let mut shed: Vec<(Pending, u64, u64)> = Vec::new();
        for (&class_id, state) in self.classes.iter_mut() {
            let Some(deadline) = self.res.deadline(ClassId(class_id)) else {
                continue;
            };
            let mut kept = VecDeque::with_capacity(state.queue.len());
            for pending in state.queue.drain(..) {
                let waited = clock.saturating_sub(pending.arrival_cycles);
                if waited > deadline {
                    shed.push((pending, waited, deadline));
                } else {
                    kept.push_back(pending);
                }
            }
            state.queue = kept;
        }
        let count = shed.len();
        for (mut pending, waited, deadline) in shed {
            let job = pending.run.id;
            let tenant = pending.run.spec.tenant;
            self.res
                .note_deadline_shed(now, job, tenant, waited, deadline);
            self.res.finish_job(job);
            // The record of a job that never ran: empty outputs, zero
            // machine work, sojourn = the wait that killed it.
            pending.run.machine = None;
            let record = JobRecord {
                job,
                tenant,
                outcome: JobOutcome::DeadlineMissed {
                    deadline_cycles: deadline,
                },
                out_words: Vec::new(),
                violations: Vec::new(),
                stats: Default::default(),
                seal_cache_hit: false,
                retried: false,
                slices: pending.run.slices,
                slice_cycles: std::mem::take(&mut pending.run.slice_cycles),
                start_tick: pending.start_tick.unwrap_or(now),
                end_tick: now,
                arrival_tick: pending.arrival_tick,
                sojourn_cycles: waited,
            };
            self.fold_finished(&record, pending.run.spec.fuel);
            self.finished.push(record);
        }
        self.stats.finished += count as u64;
        count
    }

    /// Draws the chaos plan against this tick's selected lanes, on the
    /// coordinator — the decisions are functions of `(seed, tick, job)`
    /// only, so they replay identically at any thread count. At most
    /// one fault strikes a lane per tick (seam priority: snapshot →
    /// seal → panic → stall), and every strike lands exactly one typed
    /// [`ResilienceEvent::FaultInjected`].
    fn inject_faults(&mut self, now: u64, lanes: &mut [LaneTask]) {
        if self.chaos.is_none() {
            return;
        }
        for task in lanes.iter_mut() {
            let job = task.pending.run.id;
            let tenant = task.pending.run.spec.tenant;
            if task.pending.parked.is_some() && self.chaos.strikes(Seam::Snapshot, now, job.0) {
                if let Some(bytes) = task.pending.parked.as_mut() {
                    self.chaos.corrupt_snapshot(bytes, now, job.0);
                }
                self.res
                    .note_fault(now, Seam::Snapshot, Some(job), Some(tenant));
                continue;
            }
            // Seal faults strike only *fresh* transforms: a lane whose
            // image is already sealed (or cached) has no farm work for
            // the fault to hit — which is exactly why a 100%-seal-fault
            // storm still serves warm tenants.
            let cold = task.pending.run.machine.is_none() && task.pending.run.image.is_none();
            if cold
                && !self.cache.contains(&image_key(
                    &task.pending.run.keys,
                    &task.pending.run.spec.source,
                ))
                && self.chaos.strikes(Seam::Seal, now, job.0)
            {
                task.fault = Some(InjectedFault::SealFault);
                let actions = self
                    .res
                    .note_fault(now, Seam::Seal, Some(job), Some(tenant));
                if actions.engage_scalar {
                    self.cache.set_engine(sofia_crypto::CryptoEngine::Scalar);
                }
                continue;
            }
            if self.chaos.strikes(Seam::Panic, now, job.0) {
                task.fault = Some(InjectedFault::WorkerPanic);
                self.res
                    .note_fault(now, Seam::Panic, Some(job), Some(tenant));
                continue;
            }
            if self.chaos.strikes(Seam::Stall, now, job.0) {
                task.fault = Some(InjectedFault::Stall {
                    cycles: self.chaos.stall_cycles,
                });
                self.res
                    .note_fault(now, Seam::Stall, Some(job), Some(tenant));
            }
        }
    }

    /// Admission gate for one job at the current tick.
    fn admit(&mut self, job: JobId, spec: JobSpec) -> Result<(), AdmitError> {
        let queued_total: usize = self.classes.values().map(|c| c.queue.len()).sum();
        let Some(tenant) = self.tenants.get_mut(&spec.tenant.0) else {
            return Err(AdmitError::UnknownTenant(spec.tenant));
        };
        match tenant.state {
            TenantState::Active => {}
            TenantState::Suspended => return Err(AdmitError::Quarantined(spec.tenant)),
            TenantState::Evicted => return Err(AdmitError::Evicted(spec.tenant)),
        }
        let class = tenant.class;
        let budget = *self.config.admission.class(class);
        if self.res.sheds(budget.weight.max(1)) {
            // The circuit breaker is open and this class is light
            // enough to shed: refuse before any queue/fuel accounting.
            self.res.note_load_shed(self.now, spec.tenant, class);
            return Err(AdmitError::LoadShed {
                tenant: spec.tenant,
                class,
            });
        }
        if queued_total >= self.config.admission.global_queue_cap {
            return Err(AdmitError::QueueFull {
                queued: queued_total,
                cap: self.config.admission.global_queue_cap,
            });
        }
        let class_queued = self
            .classes
            .get(&class.0)
            .map(|c| c.queue.len())
            .unwrap_or(0);
        if class_queued >= budget.queue_cap {
            return Err(AdmitError::ClassQueueFull {
                class,
                queued: class_queued,
                cap: budget.queue_cap,
            });
        }
        if tenant.outstanding_fuel.saturating_add(spec.fuel) > budget.tenant_fuel_quota {
            return Err(AdmitError::OverFuelQuota {
                tenant: spec.tenant,
                outstanding: tenant.outstanding_fuel,
                requested: spec.fuel,
                quota: budget.tenant_fuel_quota,
            });
        }
        tenant.outstanding_fuel += spec.fuel;
        let run = JobRun::new(job, tenant.keys.clone(), spec);
        self.enqueue(run, class);
        Ok(())
    }

    /// Queues an admitted run at the back of `class`, arriving now.
    fn enqueue(&mut self, mut run: JobRun, class: ClassId) {
        if self.res.vcache_degraded(run.spec.tenant) {
            // Degradation rung: this tenant's snapshots kept failing
            // revival, so its machines run vcache-off — less parked
            // state to rot, at re-verification cost. Correctness is
            // untouched (the vcache is a performance memo).
            let mut sofia = self.config.sofia;
            sofia.vcache.enabled = false;
            run.sofia_override = Some(sofia);
        }
        let (arrival_tick, arrival_cycles) = (self.now, self.stats.makespan_cycles);
        let floor = self.backlog_vservice_floor();
        let weight = self.config.admission.class(class).weight.max(1);
        let state = self.class_state(class);
        if state.queue.is_empty() {
            // WFQ catch-up: a class going idle must not bank unbounded
            // credit against classes that kept working. On re-backlog
            // its virtual service jumps forward to the working floor.
            if let Some(floor) = floor {
                state.vservice = state.vservice.max(floor.saturating_mul(weight));
            }
        }
        state.queue.push_back(Pending {
            run,
            parked: None,
            class,
            arrival_tick,
            arrival_cycles,
            start_tick: None,
            idle_ticks: 0,
        });
        self.stats.admitted += 1;
    }

    /// The WFQ state of `class` (created empty on first use;
    /// [`AsyncFleet::register_tenant`] creates it for every tenant).
    fn class_state(&mut self, class: ClassId) -> &mut ClassState {
        self.classes.entry(class.0).or_insert_with(|| ClassState {
            vservice: 0,
            queue: VecDeque::new(),
        })
    }

    /// Minimum weighted virtual service (`vservice / weight`) among the
    /// currently backlogged classes, or `None` if none are.
    fn backlog_vservice_floor(&self) -> Option<u64> {
        self.classes
            .iter()
            .filter(|(_, c)| !c.queue.is_empty())
            .map(|(id, c)| {
                let weight = self.config.admission.class(ClassId(*id)).weight.max(1);
                c.vservice / weight
            })
            .min()
    }

    /// Admits every arrival scheduled at or before `now`, in tick order
    /// then submission order; refusals become [`Rejection`]s.
    fn admit_due(&mut self, now: u64) {
        let due: Vec<u64> = self.arrivals.range(..=now).map(|(tick, _)| *tick).collect();
        for tick in due {
            let Some(batch) = self.arrivals.remove(&tick) else {
                continue;
            };
            for arrival in batch {
                let tenant = arrival.spec.tenant;
                if let Err(error) = self.admit(arrival.job, arrival.spec) {
                    self.stats.rejected += 1;
                    self.rejected.push(Rejection {
                        job: arrival.job,
                        tenant,
                        tick: now,
                        error,
                    });
                }
            }
        }
    }

    /// WFQ lane selection: fills up to `workers` lanes, cheapest
    /// weighted class first, FIFO within a class. The provisional
    /// charge (the quantum's fuel ceiling) is applied at selection so
    /// one tick's picks rotate across classes instead of draining the
    /// cheapest one; it is trued up with actual cycles in
    /// [`AsyncFleet::settle`].
    fn select_lanes(&mut self) -> Vec<LaneTask> {
        let workers = self.config.workers.max(1);
        let mut lanes: Vec<LaneTask> = Vec::new();
        for _ in 0..workers {
            let Some(class_id) = self.cheapest_backlogged_class() else {
                break;
            };
            let Some(state) = self.classes.get_mut(&class_id) else {
                break;
            };
            let Some(pending) = state.queue.pop_front() else {
                break;
            };
            let provisional = match self.config.mode {
                SchedMode::FuelSliced { slice } => slice.max(1).min(pending.run.remaining.max(1)),
                SchedMode::RunToCompletion => pending.run.remaining.max(1),
            };
            state.vservice = state.vservice.saturating_add(provisional);
            lanes.push(LaneTask {
                pending,
                provisional,
                fault: None,
            });
        }
        lanes
    }

    /// The backlogged class with minimum `vservice / weight`, compared
    /// exactly (u128 cross-multiply); ties break to the lower class id.
    fn cheapest_backlogged_class(&self) -> Option<u8> {
        let mut best: Option<(u8, u64, u64)> = None;
        for (&id, state) in &self.classes {
            if state.queue.is_empty() {
                continue;
            }
            let weight = self.config.admission.class(ClassId(id)).weight.max(1);
            let better = match best {
                None => true,
                Some((_, best_vs, best_w)) => {
                    (state.vservice as u128) * (best_w as u128)
                        < (best_vs as u128) * (weight as u128)
                }
            };
            if better {
                best = Some((id, state.vservice, weight));
            }
        }
        best.map(|(id, _, _)| id)
    }

    /// Runs the selected lanes' quanta: pre-seals the wave's distinct
    /// cold images through the [`SealFarm`] (deterministic attribution,
    /// claimed in lane order), then executes each lane on the host pool.
    /// Results come back in lane order regardless of thread
    /// interleaving.
    fn execute(&mut self, mut lanes: Vec<LaneTask>) -> Vec<LaneResult> {
        if lanes.is_empty() {
            return Vec::new();
        }
        if !self.res.inline_seal_engaged() {
            self.preseal_wave(&mut lanes);
        }
        let threads = self.config.threads.max(1);
        if threads <= 1 || lanes.len() <= 1 {
            return lanes
                .into_iter()
                .map(|t| run_lane(t, &self.fleet_config, &self.cache))
                .collect();
        }
        if self.pool.is_none() {
            self.pool = Some(Pool::new(
                threads,
                self.fleet_config,
                Arc::clone(&self.cache),
            ));
        }
        match &self.pool {
            Some(pool) => pool.dispatch(lanes),
            // Assigned just above; kept total rather than panicking.
            None => Vec::new(),
        }
    }

    /// Farm-seals the wave's distinct cold images before dispatch: the
    /// first lane of each freshly sealed image adopts it (fresh/shared
    /// verdict as its attribution); duplicates and failures fall
    /// through to the job path, which the farm just made warm (or which
    /// fails identically — seals are deterministic). This keeps
    /// `seal_cache_hit` a lane-order function, independent of thread
    /// timing.
    fn preseal_wave(&mut self, lanes: &mut [LaneTask]) {
        let requests: Vec<(&KeySet, &str)> = lanes
            .iter()
            // A lane marked with an injected seal fault must not be
            // pre-sealed — its transform is the thing that "failed".
            .filter(|t| t.fault != Some(InjectedFault::SealFault))
            .filter(|t| t.pending.run.machine.is_none() && t.pending.run.image.is_none())
            .map(|t| (&t.pending.run.keys, t.pending.run.spec.source.as_str()))
            .collect();
        if requests.is_empty() {
            return;
        }
        let farm = SealFarm::new(&self.cache, self.config.threads.max(1));
        let wave = farm.seal_wave(&requests);
        let mut claimed: HashSet<ImageKey> = HashSet::new();
        for task in lanes.iter_mut() {
            if task.fault == Some(InjectedFault::SealFault) {
                continue;
            }
            let run = &mut task.pending.run;
            if run.machine.is_some() || run.image.is_some() {
                continue;
            }
            let key = image_key(&run.keys, &run.spec.source);
            if !claimed.insert(key) {
                continue;
            }
            if let Some(SealVerdict {
                image: Ok(image),
                fresh,
            }) = wave.verdicts.get(&key)
            {
                run.image = Some(Arc::clone(image));
                run.seal_cache_hit = !fresh;
            }
        }
    }

    /// Prices the tick and folds its lane results, in lane order:
    /// finished records gain their arrival/sojourn fields and fold into
    /// stats + quarantine; preempted runs re-queue FIFO in their class,
    /// or are held if a capped batch's quantum cap is reached.
    fn settle(&mut self, now: u64, results: Vec<LaneResult>) -> usize {
        // Tick cost: max quantum cost among the served lanes — the
        // barrier-synchronous pricing rule (see the module docs).
        let lane_cost = |r: &LaneResult| match &r.record {
            Some(record) => record.slice_cycles.last().copied().unwrap_or(0),
            None => r.pending.run.slice_cycles.last().copied().unwrap_or(0),
        };
        let tick_cost = results.iter().map(lane_cost).max().unwrap_or(0);
        self.stats.makespan_cycles += tick_cost;
        let clock = self.stats.makespan_cycles;

        let mut finished = 0usize;
        for result in results {
            self.stats.quanta += 1;
            self.stats.revives += result.revived as u64;
            let actual = lane_cost(&result);
            let mut pending = result.pending;
            if let Some(state) = self.classes.get_mut(&pending.class.0) {
                // True up the WFQ charge with the quantum's actual cost.
                state.vservice = state
                    .vservice
                    .saturating_add(actual)
                    .saturating_sub(result.provisional);
            }
            pending.idle_ticks = 0;
            if pending.start_tick.is_none() {
                pending.start_tick = Some(now);
            }
            match result.record {
                Some(mut record) => {
                    record.arrival_tick = pending.arrival_tick;
                    record.start_tick = pending.start_tick.unwrap_or(now);
                    record.end_tick = now + 1;
                    record.sojourn_cycles = clock.saturating_sub(pending.arrival_cycles);
                    let infra_fault = matches!(
                        record.outcome,
                        JobOutcome::SealFailed(_)
                            | JobOutcome::WorkerPanic(_)
                            | JobOutcome::RevivalFailed(_)
                    );
                    match &record.outcome {
                        JobOutcome::WorkerPanic(_) => self.stats.worker_panics += 1,
                        JobOutcome::RevivalFailed(_) => {
                            self.stats.revival_failures += 1;
                            self.res.note_revival_failure(now, record.tenant);
                        }
                        _ => {}
                    }
                    if infra_fault {
                        // One breaker feed per fault *record* — retried
                        // or not, the infrastructure failed once.
                        self.res.feed_breaker(now);
                        if let Some(attempt) = self.res.take_retry(now, record.job, record.tenant) {
                            // Retry instead of finishing: release the
                            // fuel claim (the retry arrival re-charges
                            // it) and re-queue the job with backoff +
                            // seeded jitter. The record is discarded —
                            // its fault is already accounted for by the
                            // typed FaultInjected/RetryScheduled events
                            // and the breaker feed.
                            if let Some(t) = self.tenants.get_mut(&record.tenant.0) {
                                t.outstanding_fuel =
                                    t.outstanding_fuel.saturating_sub(pending.run.spec.fuel);
                            }
                            let base = self.res.config.backoff_base_ticks.max(1);
                            let backoff = base
                                .checked_shl(attempt.saturating_sub(1))
                                .unwrap_or(u64::MAX);
                            let jitter = self.chaos.jitter(
                                self.res.config.backoff_jitter_ticks,
                                now,
                                record.job.0 ^ ((attempt as u64) << 48),
                            );
                            let resume = now
                                .saturating_add(1)
                                .saturating_add(backoff)
                                .saturating_add(jitter);
                            self.res.note_retry_scheduled(
                                now,
                                record.job,
                                record.tenant,
                                attempt,
                                resume,
                            );
                            self.arrivals.entry(resume).or_default().push(Arrival {
                                job: record.job,
                                spec: pending.run.spec.clone(),
                            });
                            continue;
                        }
                    }
                    self.res.finish_job(record.job);
                    if let Some(deadline) = self.res.deadline(pending.class) {
                        if record.sojourn_cycles > deadline {
                            self.res.note_deadline_late(
                                now,
                                record.job,
                                record.tenant,
                                record.sojourn_cycles,
                                deadline,
                            );
                        }
                    }
                    self.fold_finished(&record, pending.run.spec.fuel);
                    self.finished.push(record);
                    finished += 1;
                }
                None if self
                    .quantum_cap
                    .is_some_and(|cap| pending.run.quanta_this_batch >= cap) =>
                {
                    self.held.push(pending);
                }
                None => self.class_state(pending.class).queue.push_back(pending),
            }
        }
        self.stats.finished += finished as u64;
        finished
    }

    /// Stats + quarantine fold for one finished record (deterministic:
    /// called in tick order, lane order). Containment is an admission
    /// decision: jobs already admitted still run — their results stay
    /// bit-identical to serial execution — and only *future* admission
    /// is refused, with the typed [`AdmitError`].
    fn fold_finished(&mut self, record: &JobRecord, fuel: u64) {
        let Some(tenant) = self.tenants.get_mut(&record.tenant.0) else {
            debug_assert!(false, "record for unregistered {}", record.tenant);
            return;
        };
        tenant.stats.absorb(record);
        tenant.outstanding_fuel = tenant.outstanding_fuel.saturating_sub(fuel);
        let fold = fold_policy(
            self.config.quarantine,
            &mut tenant.state,
            needs_containment(record),
        );
        if fold.suspended_now {
            self.stats.quarantines += 1;
        }
        if fold.evicted_now {
            self.stats.evictions += 1;
        }
        if fold.purge {
            // Re-purge on *every* evicted-tenant record: jobs admitted
            // before the eviction keep running (their results stay
            // bit-identical to serial execution), and any of them can
            // re-seal the tenant's image into the shared cache after the
            // eviction-time purge. Without this, a stale image of an
            // evicted tenant would outlive the fold.
            self.cache.purge(&tenant.keys);
        }
    }

    /// Ages the still-queued jobs and parks the cold ones to `SOFS1`
    /// bytes. Also tracks the peak count of resident live machines —
    /// the number the "thousands of tenants on a few threads" claim
    /// stands on.
    fn park_pass(&mut self) {
        let park_after = self.config.park_after;
        let mut resident = 0u64;
        let mut parks = 0u64;
        for state in self.classes.values_mut() {
            for pending in state.queue.iter_mut() {
                pending.idle_ticks += 1;
                let cold = park_after.is_some_and(|after| pending.idle_ticks >= after);
                if cold {
                    if let Some(machine) = pending.run.machine.take() {
                        let snap = machine.snapshot(pending.run.remaining);
                        pending.parked = Some(snap.to_bytes());
                        parks += 1;
                    }
                } else if pending.run.machine.is_some() {
                    resident += 1;
                }
            }
        }
        self.stats.parks += parks;
        self.stats.peak_resident_machines = self.stats.peak_resident_machines.max(resident);
    }
}

// Compile-time guarantee: the driver crosses thread boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<AsyncFleet>();
};
