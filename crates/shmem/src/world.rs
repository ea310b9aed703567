//! The SPMD world and per-PE handles.
//!
//! [`run_spmd`] is the `coprsh -np N` / `aprun -n N` analog: it builds a
//! [`World`] (the job), launches one OS thread per PE, hands each a
//! [`Pe`] handle (its window onto the partitioned global address
//! space), and joins the results. A panic on any PE aborts the whole
//! job — waiters notice promptly via the shared abort flag instead of
//! hanging, and the failure is reported as a [`SpmdError`] naming the
//! first PE that died.

use crate::barrier::{BarrierKind, CentralBarrier, DisseminationBarrier, SpinGuard};
use crate::diag::{self, panic_message};
use crate::heap::{f64_to_word, i64_to_word, word_to_f64, word_to_i64, Heap, SymAddr};
use crate::latency::LatencyModel;
use crate::lock::{LockKind, LockWords, LOCK_WORDS};
use crate::pad::CachePadded;
use crate::rng::PeRng;
use crate::stats::{CommStats, StatCells};
use crate::WaitCmp;
use lol_trace::{ClockMode, EventKind, PeTrace, TraceBuffer, VIRT_BARRIER_NS, VIRT_OP_NS};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Job configuration (the "machine" we simulate).
#[derive(Clone, Debug)]
pub struct ShmemConfig {
    /// Number of processing elements (`MAH FRENZ`).
    pub n_pes: usize,
    /// Words of symmetric heap per PE.
    pub heap_words: usize,
    /// Remote-access latency model.
    pub latency: LatencyModel,
    /// Barrier algorithm for `HUGZ`.
    pub barrier: BarrierKind,
    /// Lock algorithm for `IM MESIN WIF`.
    pub lock: LockKind,
    /// Deadlock watchdog: how long a PE may wait before the job is
    /// declared wedged.
    pub timeout: Duration,
    /// Base seed for per-PE RNG (`WHATEVR` / `WHATEVAR`).
    pub seed: u64,
    /// Which clock latency models charge against: busy-wait real time
    /// ([`ClockMode::Wall`]) or advance a deterministic per-PE logical
    /// clock ([`ClockMode::Virtual`]).
    pub clock: ClockMode,
    /// Record communication events into per-PE trace buffers.
    pub trace: bool,
    /// Per-PE trace buffer bound (events beyond it are counted, not
    /// stored).
    pub trace_capacity: usize,
    /// Trace-sampling stride: only PEs with `id % trace_stride == 0`
    /// get real buffers; the rest record nothing but still count every
    /// event as dropped, so the accounting stays truthful. Mega-scale
    /// jobs set this so tracing a million PEs doesn't OOM.
    pub trace_stride: usize,
    /// Worker shards for the discrete-event simulator (`lol-sim`):
    /// `0` = auto (use the host's parallelism on jobs big enough to
    /// shard, see `crate::shard::effective_jobs`), `1` = the exact
    /// sequential scheduler, `N` = force `N` shard workers. The
    /// threaded world ignores it (its parallelism is thread-per-PE).
    pub sim_jobs: usize,
}

impl ShmemConfig {
    /// A sensible default job with `n_pes` PEs.
    pub fn new(n_pes: usize) -> Self {
        ShmemConfig {
            n_pes,
            heap_words: 1 << 16,
            latency: LatencyModel::Off,
            barrier: BarrierKind::Centralized,
            lock: LockKind::SpinCas,
            timeout: Duration::from_secs(30),
            seed: 0xC47_F00D,
            clock: ClockMode::Wall,
            trace: false,
            trace_capacity: 1 << 16,
            trace_stride: 1,
            sim_jobs: 0,
        }
    }

    /// Set the symmetric heap size (in 8-byte words).
    pub fn heap_words(mut self, words: usize) -> Self {
        self.heap_words = words;
        self
    }

    /// Set the latency model.
    pub fn latency(mut self, m: LatencyModel) -> Self {
        self.latency = m;
        self
    }

    /// Set the barrier algorithm.
    pub fn barrier(mut self, b: BarrierKind) -> Self {
        self.barrier = b;
        self
    }

    /// Set the lock algorithm.
    pub fn lock(mut self, l: LockKind) -> Self {
        self.lock = l;
        self
    }

    /// Set the deadlock watchdog timeout.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.timeout = t;
        self
    }

    /// Set the RNG base seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Select the clock latency models charge against (wall busy-wait
    /// vs. deterministic virtual time).
    pub fn clock(mut self, c: ClockMode) -> Self {
        self.clock = c;
        self
    }

    /// Enable (or disable) communication-event tracing.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Bound each PE's trace buffer at `cap` events.
    pub fn trace_capacity(mut self, cap: usize) -> Self {
        self.trace_capacity = cap;
        self
    }

    /// Sample traces: give real buffers only to every `stride`-th PE
    /// (the rest count their events as dropped). A stride of 0 is
    /// treated as 1 (trace everyone).
    pub fn trace_stride(mut self, stride: usize) -> Self {
        self.trace_stride = stride.max(1);
        self
    }

    /// Set the simulator's worker-shard count (`0` = auto).
    pub fn sim_jobs(mut self, jobs: usize) -> Self {
        self.sim_jobs = jobs;
        self
    }

    /// Does `pe` get a real trace buffer under the sampling stride?
    pub fn traces_pe(&self, pe: usize) -> bool {
        pe.is_multiple_of(self.trace_stride.max(1))
    }

    /// Check the whole configuration before a job is built: PE count,
    /// heap size and latency-model parameters. [`World::new`] enforces
    /// this, and driver layers call it to surface the error without
    /// panicking.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_pes == 0 {
            return Err("O NOES! [RUN0121] A JOB NEEDS AT LEAST ONE PE".to_string());
        }
        if self.heap_words == 0 {
            return Err("O NOES! [RUN0122] DA SYMMETRIC HEAP CANNOT BE EMPTY".to_string());
        }
        self.latency.validate()
    }
}

/// Reduction operators for [`Pe::reduce_i64`] / [`Pe::reduce_f64`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Wrapping sum (`shmem_sum_reduce`).
    Sum,
    /// Wrapping product (`shmem_prod_reduce`).
    Prod,
    /// Minimum (`shmem_min_reduce`).
    Min,
    /// Maximum (`shmem_max_reduce`).
    Max,
}

/// The shared state of one SPMD job.
pub struct World {
    cfg: ShmemConfig,
    heaps: Box<[Heap]>,
    central: CentralBarrier,
    dissem: DisseminationBarrier,
    /// One scratch slot per PE for collectives.
    coll: Box<[CachePadded<AtomicU64>]>,
    /// Set when any PE fails; spinners notice and bail out.
    abort: AtomicBool,
    /// Collective-allocation validation: words requested per call index.
    alloc_log: Mutex<Vec<u32>>,
    /// Virtual-clock publication slots, double-buffered by barrier
    /// parity: at barrier episode `k`, every PE publishes its logical
    /// clock to `vclock_pub[k % 2][pe]`, waits, then adopts the
    /// maximum. The parity buffer stops episode `k+1`'s stores from
    /// racing episode `k`'s reads.
    vclock_pub: [Box<[CachePadded<AtomicU64>]>; 2],
    /// Job start (wall-clock trace timestamps are offsets from this).
    t0: Instant,
}

impl World {
    /// Build the job state. (Usually called through [`run_spmd`].)
    pub fn new(cfg: ShmemConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let heaps = (0..cfg.n_pes).map(|_| Heap::new(cfg.heap_words)).collect();
        let slots = || (0..cfg.n_pes).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
        World {
            central: CentralBarrier::new(cfg.n_pes),
            dissem: DisseminationBarrier::new(cfg.n_pes),
            coll: (0..cfg.n_pes).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            abort: AtomicBool::new(false),
            alloc_log: Mutex::new(Vec::new()),
            vclock_pub: [slots(), slots()],
            t0: Instant::now(),
            heaps,
            cfg,
        }
    }

    /// The job configuration.
    pub fn config(&self) -> &ShmemConfig {
        &self.cfg
    }

    /// Create the handle for one PE. Each PE id must be used by exactly
    /// one thread.
    pub fn pe(&self, id: usize) -> Pe<'_> {
        assert!(id < self.cfg.n_pes, "PE id {id} out of range");
        Pe {
            id,
            world: self,
            sense: Cell::new(false),
            generation: Cell::new(0),
            heap_cursor: Cell::new(0),
            alloc_seq: Cell::new(0),
            rng: RefCell::new(PeRng::seed_from_u64(
                self.cfg.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )),
            stats: StatCells::default(),
            vclock: Cell::new(0),
            bar_parity: Cell::new(false),
            tracer: RefCell::new(if self.cfg.trace {
                // Sampled-out PEs get a zero-capacity buffer: they
                // record nothing but count every event as dropped.
                let cap = if self.cfg.traces_pe(id) { self.cfg.trace_capacity } else { 0 };
                Some(TraceBuffer::new(id, cap))
            } else {
                None
            }),
        }
    }

    /// Mark the job failed (spinning PEs will bail out promptly).
    pub fn abort_job(&self) {
        self.abort.store(true, Ordering::SeqCst);
    }

    /// Has the job been aborted?
    pub fn is_aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }
}

/// Error from a failed SPMD job: the first PE that panicked and its
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmdError {
    /// The first PE that panicked.
    pub pe: usize,
    /// The panic message (usually an `O NOES! [RUNxxxx]` diagnostic).
    pub message: String,
}

impl std::fmt::Display for SpmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PE {} FAILED: {}", self.pe, self.message)
    }
}

impl std::error::Error for SpmdError {}

/// Launch `cfg.n_pes` threads running `body` SPMD-style and collect
/// their results in PE order.
///
/// ```
/// use lol_shmem::{run_spmd, ShmemConfig};
///
/// let squares = run_spmd(ShmemConfig::new(4), |pe| pe.id() * pe.id()).unwrap();
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
pub fn run_spmd<R, F>(cfg: ShmemConfig, body: F) -> Result<Vec<R>, SpmdError>
where
    R: Send,
    F: Fn(&Pe<'_>) -> R + Sync,
{
    let world = World::new(cfg);
    let n = world.cfg.n_pes;
    let body = &body;
    let world_ref = &world;
    let mut outcomes: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|id| {
                std::thread::Builder::new()
                    .name(format!("PE{id}"))
                    .stack_size(16 << 20)
                    .spawn_scoped(s, move || {
                        let pe = world_ref.pe(id);
                        let r = catch_unwind(AssertUnwindSafe(|| body(&pe)));
                        r.map_err(|payload| {
                            world_ref.abort_job();
                            panic_message(payload)
                        })
                    })
                    .expect("failed to spawn PE thread")
            })
            .collect();
        for (id, h) in handles.into_iter().enumerate() {
            outcomes[id] = Some(h.join().expect("PE thread panicked outside catch_unwind"));
        }
    });

    let mut results = Vec::with_capacity(n);
    let mut root_cause: Option<SpmdError> = None;
    let mut bystander: Option<SpmdError> = None;
    for (id, o) in outcomes.into_iter().enumerate() {
        match o.expect("missing PE outcome") {
            Ok(r) => results.push(r),
            Err(message) => {
                // RUN0190 is the "another PE already failed" secondary
                // panic: report the PE that actually caused the abort.
                let slot =
                    if message.contains("[RUN0190]") { &mut bystander } else { &mut root_cause };
                if slot.is_none() {
                    *slot = Some(SpmdError { pe: id, message });
                }
            }
        }
    }
    match root_cause.or(bystander) {
        Some(e) => Err(e),
        None => Ok(results),
    }
}

/// One processing element's handle onto the job: its identity, its RNG,
/// and its window onto the partitioned global address space.
///
/// `Pe` is intentionally `!Sync` (interior `Cell`s): exactly one thread
/// drives each PE, as in SPMD.
pub struct Pe<'w> {
    id: usize,
    world: &'w World,
    sense: Cell<bool>,
    generation: Cell<u64>,
    heap_cursor: Cell<usize>,
    alloc_seq: Cell<usize>,
    rng: RefCell<PeRng>,
    stats: StatCells,
    /// Per-PE logical clock (ns), advanced only under
    /// [`ClockMode::Virtual`].
    vclock: Cell<u64>,
    /// Barrier-episode parity for the double-buffered virtual-clock
    /// publication slots.
    bar_parity: Cell<bool>,
    /// Event recorder, present only when the config enables tracing
    /// (taken by [`Pe::take_trace`]).
    tracer: RefCell<Option<TraceBuffer>>,
}

impl<'w> Pe<'w> {
    // ------------------------------------------------------------------
    // Identity (ME / MAH FRENZ)
    // ------------------------------------------------------------------

    /// This PE's id (`ME`).
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total number of PEs (`MAH FRENZ`).
    #[inline]
    pub fn n_pes(&self) -> usize {
        self.world.cfg.n_pes
    }

    /// The world this PE belongs to.
    #[inline]
    pub fn world(&self) -> &'w World {
        self.world
    }

    fn guard(&self, what: &'static str) -> SpinGuard<'w> {
        SpinGuard::new(&self.world.abort, self.world.cfg.timeout, self.id, what)
    }

    // ------------------------------------------------------------------
    // Clock + trace plumbing
    // ------------------------------------------------------------------

    /// This PE's current timestamp on the job's clock: ns since launch
    /// ([`ClockMode::Wall`]) or the logical clock ([`ClockMode::Virtual`]).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match self.world.cfg.clock {
            ClockMode::Wall => self.world.t0.elapsed().as_nanos() as u64,
            ClockMode::Virtual => self.vclock.get(),
        }
    }

    /// This PE's virtual clock (0 unless the job runs under
    /// [`ClockMode::Virtual`]).
    #[inline]
    pub fn virtual_ns(&self) -> u64 {
        self.vclock.get()
    }

    /// Pay the interconnect cost of touching `target`: busy-wait the
    /// latency model's delay on the wall clock, or account it
    /// (deterministically) on the virtual clock. Local accesses are
    /// free on both clocks.
    #[inline]
    fn charge(&self, target: usize) {
        match self.world.cfg.clock {
            ClockMode::Wall => self.world.cfg.latency.charge(self.id, target),
            ClockMode::Virtual => {
                if target != self.id {
                    let delay = self.world.cfg.latency.delay_ns(self.id, target);
                    self.vclock.set(self.vclock.get() + delay + VIRT_OP_NS);
                }
            }
        }
    }

    /// Record one event (no-op unless the config enables tracing).
    #[inline]
    fn trace(&self, kind: EventKind, peer: usize, addr: SymAddr, bytes: u32) {
        if self.world.cfg.trace {
            let now = self.now_ns();
            if let Some(buf) = self.tracer.borrow_mut().as_mut() {
                buf.record(kind, peer, addr.0, bytes, now);
            }
        }
    }

    /// Take this PE's completed event stream (once; `None` when the
    /// job doesn't trace or the stream was already taken). Call at the
    /// end of the SPMD body — the stream is stamped with the PE's
    /// final clock value.
    pub fn take_trace(&self) -> Option<PeTrace> {
        let end = self.now_ns();
        self.tracer.borrow_mut().take().map(|buf| buf.finish(end))
    }

    /// Abort the whole job and panic with `msg` (runtime-error path).
    pub fn fail(&self, msg: String) -> ! {
        self.world.abort_job();
        panic!("{msg}");
    }

    // ------------------------------------------------------------------
    // Symmetric allocation (shmem_malloc analog; collective)
    // ------------------------------------------------------------------

    /// Collectively allocate `words` symmetric words. Every PE must
    /// call `shmalloc` with the same sizes in the same order; debug
    /// validation catches divergence. Includes a barrier, like
    /// `shmem_malloc`.
    pub fn shmalloc(&self, words: usize) -> SymAddr {
        let seq = self.alloc_seq.get();
        {
            // `unwrap_or_else(into_inner)`: a PE that fails validation
            // panics while holding the lock; later PEs must still read
            // the (consistent) log rather than propagate the poison.
            let mut log = self.world.alloc_log.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(&prev) = log.get(seq) {
                if prev as usize != words {
                    self.world.abort_job();
                    panic!("{}", diag::alloc_mismatch(seq, self.id, words, prev as usize));
                }
            } else {
                log.push(words as u32);
            }
        }
        self.alloc_seq.set(seq + 1);
        let offset = self.heap_cursor.get();
        let end = offset + words;
        if end > self.world.cfg.heap_words {
            self.world.abort_job();
            panic!("{}", diag::heap_exhausted(self.id, end, self.world.cfg.heap_words));
        }
        self.heap_cursor.set(end);
        // Internal fence: counted in the stats (it *is* a barrier), but
        // untraced and free in virtual time — the C backend's one
        // registration barrier behaves identically, so event streams
        // and virtual walls stay backend-equivalent.
        self.barrier_episode(false);
        SymAddr(offset as u32)
    }

    /// Allocate a lock's worth of symmetric words (collective).
    pub fn shmalloc_lock(&self) -> SymAddr {
        self.shmalloc(LOCK_WORDS)
    }

    // ------------------------------------------------------------------
    // One-sided remote access (shmem_p / shmem_g analogs)
    // ------------------------------------------------------------------

    #[inline]
    fn word(&self, target: usize, addr: SymAddr) -> &'w AtomicU64 {
        debug_assert!(target < self.n_pes(), "PE {target} out of range");
        self.world.heaps[target].word(addr)
    }

    /// Store a raw word into `target`'s instance of `addr`.
    #[inline]
    pub fn put_u64(&self, addr: SymAddr, target: usize, value: u64) {
        StatCells::bump(if target == self.id {
            &self.stats.local_puts
        } else {
            &self.stats.remote_puts
        });
        self.charge(target);
        self.word(target, addr).store(value, Ordering::Relaxed);
        if target != self.id {
            self.trace(EventKind::Put, target, addr, 8);
        }
    }

    /// Load a raw word from `target`'s instance of `addr`.
    #[inline]
    pub fn get_u64(&self, addr: SymAddr, target: usize) -> u64 {
        StatCells::bump(if target == self.id {
            &self.stats.local_gets
        } else {
            &self.stats.remote_gets
        });
        self.charge(target);
        let v = self.word(target, addr).load(Ordering::Relaxed);
        if target != self.id {
            self.trace(EventKind::Get, target, addr, 8);
        }
        v
    }

    /// Typed put: `i64`.
    #[inline]
    pub fn put_i64(&self, addr: SymAddr, target: usize, value: i64) {
        self.put_u64(addr, target, i64_to_word(value));
    }

    /// Typed get: `i64`.
    #[inline]
    pub fn get_i64(&self, addr: SymAddr, target: usize) -> i64 {
        word_to_i64(self.get_u64(addr, target))
    }

    /// Typed put: `f64` (bit pattern).
    #[inline]
    pub fn put_f64(&self, addr: SymAddr, target: usize, value: f64) {
        self.put_u64(addr, target, f64_to_word(value));
    }

    /// Typed get: `f64`.
    #[inline]
    pub fn get_f64(&self, addr: SymAddr, target: usize) -> f64 {
        word_to_f64(self.get_u64(addr, target))
    }

    /// Block put: contiguous words (one latency charge per call — block
    /// transfers pipeline on real interconnects).
    pub fn put_block(&self, addr: SymAddr, target: usize, values: &[u64]) {
        StatCells::add(&self.stats.block_put_words, values.len() as u64);
        self.charge(target);
        for (i, &v) in values.iter().enumerate() {
            self.word(target, addr.offset(i)).store(v, Ordering::Relaxed);
        }
        if target != self.id {
            self.trace(EventKind::BlockPut, target, addr, (values.len() * 8) as u32);
        }
    }

    /// Block get: contiguous words into `out`.
    pub fn get_block(&self, addr: SymAddr, target: usize, out: &mut [u64]) {
        StatCells::add(&self.stats.block_get_words, out.len() as u64);
        self.charge(target);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.word(target, addr.offset(i)).load(Ordering::Relaxed);
        }
        if target != self.id {
            self.trace(EventKind::BlockGet, target, addr, (out.len() * 8) as u32);
        }
    }

    // ------------------------------------------------------------------
    // Atomic memory operations (shmem_atomic_* analogs; SeqCst like
    // SHMEM AMOs, which are strongly ordered among themselves)
    // ------------------------------------------------------------------

    /// Atomic fetch-add on `target`'s word, returning the old value.
    #[inline]
    pub fn fetch_add_i64(&self, addr: SymAddr, target: usize, delta: i64) -> i64 {
        StatCells::bump(&self.stats.amos);
        self.charge(target);
        let old =
            word_to_i64(self.word(target, addr).fetch_add(i64_to_word(delta), Ordering::SeqCst));
        if target != self.id {
            self.trace(EventKind::Amo, target, addr, 8);
        }
        old
    }

    /// Atomic compare-and-swap; returns the previous value.
    #[inline]
    pub fn cswap_u64(&self, addr: SymAddr, target: usize, expected: u64, desired: u64) -> u64 {
        StatCells::bump(&self.stats.amos);
        self.charge(target);
        let old = match self.word(target, addr).compare_exchange(
            expected,
            desired,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(old) | Err(old) => old,
        };
        if target != self.id {
            self.trace(EventKind::Amo, target, addr, 8);
        }
        old
    }

    /// Atomic unconditional swap; returns the previous value.
    #[inline]
    pub fn swap_u64(&self, addr: SymAddr, target: usize, value: u64) -> u64 {
        StatCells::bump(&self.stats.amos);
        self.charge(target);
        let old = self.word(target, addr).swap(value, Ordering::SeqCst);
        if target != self.id {
            self.trace(EventKind::Amo, target, addr, 8);
        }
        old
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Collective barrier (`HUGZ` / `shmem_barrier_all`). Traced as a
    /// [`EventKind::BarrierEnter`]/[`EventKind::BarrierExit`] pair —
    /// the gap between the two timestamps is this PE's wait.
    pub fn barrier_all(&self) {
        self.trace(EventKind::BarrierEnter, self.id, SymAddr(0), 0);
        self.barrier_episode(true);
        self.trace(EventKind::BarrierExit, self.id, SymAddr(0), 0);
    }

    /// One barrier episode. `explicit` distinguishes user-visible
    /// `HUGZ` barriers (which cost [`VIRT_BARRIER_NS`] in virtual
    /// time) from internal fences like the collective-allocation
    /// barrier (which synchronize the virtual clocks but add nothing,
    /// so a replayed trace reproduces the virtual wall exactly).
    fn barrier_episode(&self, explicit: bool) {
        StatCells::bump(&self.stats.barriers);
        let virt = self.world.cfg.clock == ClockMode::Virtual;
        let parity = self.bar_parity.get() as usize;
        if virt {
            self.world.vclock_pub[parity][self.id].store(self.vclock.get(), Ordering::Release);
        }
        std::sync::atomic::fence(Ordering::SeqCst);
        match self.world.cfg.barrier {
            BarrierKind::Centralized => {
                let mut sense = self.sense.get();
                self.world.central.wait(&mut sense, self.guard(diag::BARRIER_WAIT));
                self.sense.set(sense);
            }
            BarrierKind::Dissemination => {
                let mut gen = self.generation.get();
                let mut guard = self.guard(diag::BARRIER_WAIT);
                self.world.dissem.wait(self.id, &mut gen, &mut guard);
                self.generation.set(gen);
            }
        }
        std::sync::atomic::fence(Ordering::SeqCst);
        if virt {
            let mut sync = 0u64;
            for pe in 0..self.n_pes() {
                sync = sync.max(self.world.vclock_pub[parity][pe].load(Ordering::Acquire));
            }
            self.vclock.set(sync + if explicit { VIRT_BARRIER_NS } else { 0 });
            self.bar_parity.set(!self.bar_parity.get());
        }
    }

    /// Complete outstanding puts (`shmem_quiet`). With atomic words
    /// this is a fence.
    #[inline]
    pub fn quiet(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Spin until **this PE's** instance of `addr` satisfies
    /// `cmp value` (`shmem_wait_until` — point-to-point sync).
    pub fn wait_until(&self, addr: SymAddr, cmp: WaitCmp, value: i64) -> i64 {
        let mut guard = self.guard("WAIT UNTIL");
        loop {
            let cur = word_to_i64(self.word(self.id, addr).load(Ordering::Acquire));
            if cmp.test(cur, value) {
                self.trace(EventKind::Wait, self.id, addr, 0);
                return cur;
            }
            guard.tick();
        }
    }

    // ------------------------------------------------------------------
    // Global locks (shmem_set_lock / test / clear analogs)
    // ------------------------------------------------------------------

    fn lock_words(&self, addr: SymAddr, target: usize) -> LockWords<'w> {
        LockWords {
            owner: self.word(target, addr),
            next: self.word(target, addr.offset(1)),
            serving: self.word(target, addr.offset(2)),
        }
    }

    /// Blocking acquire of the lock at `target`'s instance of `addr`.
    pub fn lock(&self, addr: SymAddr, target: usize) {
        StatCells::bump(&self.stats.lock_acquires);
        self.charge(target);
        self.lock_words(addr, target).acquire(
            self.world.cfg.lock,
            self.id,
            self.guard(diag::LOCK_WAIT),
        );
        self.trace(EventKind::LockAcquire, target, addr, 0);
    }

    /// Non-blocking acquire; true on success.
    pub fn try_lock(&self, addr: SymAddr, target: usize) -> bool {
        StatCells::bump(&self.stats.lock_tries);
        self.charge(target);
        let got = self.lock_words(addr, target).try_acquire(self.world.cfg.lock, self.id);
        self.trace(EventKind::LockTry, target, addr, got as u32);
        got
    }

    /// Release; panics if this PE does not hold the lock.
    pub fn unlock(&self, addr: SymAddr, target: usize) {
        StatCells::bump(&self.stats.lock_releases);
        self.charge(target);
        self.lock_words(addr, target).release(self.world.cfg.lock, self.id);
        self.trace(EventKind::LockRelease, target, addr, 0);
    }

    /// Is the lock held right now (diagnostic snapshot)?
    pub fn lock_is_held(&self, addr: SymAddr, target: usize) -> bool {
        self.lock_words(addr, target).is_held()
    }

    // ------------------------------------------------------------------
    // Collectives (used implicitly by the language backend)
    // ------------------------------------------------------------------

    /// Broadcast a word from `root` to every PE. Collective.
    pub fn broadcast_u64(&self, root: usize, value: u64) -> u64 {
        if self.id == root {
            self.world.coll[root].store(value, Ordering::Release);
        }
        self.barrier_all();
        let out = self.world.coll[root].load(Ordering::Acquire);
        self.barrier_all();
        out
    }

    /// All-reduce over one `i64` per PE. Collective.
    pub fn reduce_i64(&self, value: i64, op: ReduceOp) -> i64 {
        self.world.coll[self.id].store(i64_to_word(value), Ordering::Release);
        self.barrier_all();
        let mut acc = word_to_i64(self.world.coll[0].load(Ordering::Acquire));
        for pe in 1..self.n_pes() {
            let v = word_to_i64(self.world.coll[pe].load(Ordering::Acquire));
            acc = match op {
                ReduceOp::Sum => acc.wrapping_add(v),
                ReduceOp::Prod => acc.wrapping_mul(v),
                ReduceOp::Min => acc.min(v),
                ReduceOp::Max => acc.max(v),
            };
        }
        self.barrier_all();
        acc
    }

    /// All-reduce over one `f64` per PE. Collective.
    pub fn reduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        self.world.coll[self.id].store(f64_to_word(value), Ordering::Release);
        self.barrier_all();
        let mut acc = word_to_f64(self.world.coll[0].load(Ordering::Acquire));
        for pe in 1..self.n_pes() {
            let v = word_to_f64(self.world.coll[pe].load(Ordering::Acquire));
            acc = match op {
                ReduceOp::Sum => acc + v,
                ReduceOp::Prod => acc * v,
                ReduceOp::Min => acc.min(v),
                ReduceOp::Max => acc.max(v),
            };
        }
        self.barrier_all();
        acc
    }

    // ------------------------------------------------------------------
    // Randomness (WHATEVR / WHATEVAR; per-PE deterministic streams)
    // ------------------------------------------------------------------

    /// `WHATEVR`: uniform integer in `[0, 2^31)` (libc `rand()` analog).
    pub fn rand_i64(&self) -> i64 {
        self.rng.borrow_mut().gen_i64_below(1i64 << 31)
    }

    /// `WHATEVAR`: uniform float in `[0, 1)` (`randf()` analog).
    pub fn rand_f64(&self) -> f64 {
        self.rng.borrow_mut().gen_unit_f64()
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Snapshot of this PE's communication statistics (counts since
    /// the PE handle was created). Great for showing students the
    /// communication volume of their algorithm.
    pub fn stats(&self) -> CommStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize) -> ShmemConfig {
        ShmemConfig::new(n).timeout(Duration::from_secs(10))
    }

    #[test]
    fn identities() {
        let r = run_spmd(cfg(4), |pe| (pe.id(), pe.n_pes())).unwrap();
        assert_eq!(r, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn single_pe_job() {
        let r = run_spmd(cfg(1), |pe| {
            let a = pe.shmalloc(4);
            pe.put_i64(a, 0, 7);
            pe.barrier_all();
            pe.get_i64(a, 0)
        })
        .unwrap();
        assert_eq!(r, vec![7]);
    }

    #[test]
    fn symmetric_alloc_agrees_across_pes() {
        let r = run_spmd(cfg(4), |pe| {
            let a = pe.shmalloc(10);
            let b = pe.shmalloc(3);
            (a, b)
        })
        .unwrap();
        for (a, b) in r {
            assert_eq!(a, SymAddr(0));
            assert_eq!(b, SymAddr(10));
        }
    }

    #[test]
    fn put_get_ring() {
        // Section VI.A shape: everyone puts to the right neighbour.
        let n = 8;
        let r = run_spmd(cfg(n), |pe| {
            let a = pe.shmalloc(1);
            let next = (pe.id() + 1) % pe.n_pes();
            pe.put_i64(a, next, pe.id() as i64 * 100);
            pe.barrier_all();
            pe.get_i64(a, pe.id())
        })
        .unwrap();
        for (me, got) in r.into_iter().enumerate() {
            let left = (me + n - 1) % n;
            assert_eq!(got, left as i64 * 100);
        }
    }

    #[test]
    fn figure2_symmetric_data_movement() {
        // Figure 2: UR b R MAH a; HUGZ; c R SUM OF a AN b.
        let n = 6;
        let r = run_spmd(cfg(n), |pe| {
            let a = pe.shmalloc(1);
            let b = pe.shmalloc(1);
            pe.put_i64(a, pe.id(), pe.id() as i64 + 1); // a = me+1
            pe.barrier_all();
            let k = (pe.id() + 1) % pe.n_pes();
            let my_a = pe.get_i64(a, pe.id());
            pe.put_i64(b, k, my_a); // UR b R MAH a
            pe.barrier_all(); // HUGZ
            pe.get_i64(a, pe.id()) + pe.get_i64(b, pe.id())
        })
        .unwrap();
        for (me, c) in r.into_iter().enumerate() {
            let left = (me + n - 1) % n;
            assert_eq!(c, (me as i64 + 1) + (left as i64 + 1));
        }
    }

    #[test]
    fn block_transfers() {
        let r = run_spmd(cfg(4), |pe| {
            let a = pe.shmalloc(32);
            let vals: Vec<u64> = (0..32).map(|i| (pe.id() as u64) << 32 | i).collect();
            pe.put_block(a, pe.id(), &vals);
            pe.barrier_all();
            let next = (pe.id() + 1) % pe.n_pes();
            let mut out = vec![0u64; 32];
            pe.get_block(a, next, &mut out);
            out
        })
        .unwrap();
        for (me, out) in r.into_iter().enumerate() {
            let next = (me + 1) % 4;
            for (i, w) in out.into_iter().enumerate() {
                assert_eq!(w, (next as u64) << 32 | i as u64);
            }
        }
    }

    #[test]
    fn amo_fetch_add_counts_correctly() {
        let n = 8;
        let iters = 1000;
        let r = run_spmd(cfg(n), |pe| {
            let a = pe.shmalloc(1);
            for _ in 0..iters {
                pe.fetch_add_i64(a, 0, 1);
            }
            pe.barrier_all();
            pe.get_i64(a, 0)
        })
        .unwrap();
        for v in r {
            assert_eq!(v, (n * iters) as i64);
        }
    }

    #[test]
    fn cswap_and_swap() {
        let r = run_spmd(cfg(2), |pe| {
            let a = pe.shmalloc(1);
            pe.barrier_all();
            if pe.id() == 0 {
                let old = pe.cswap_u64(a, 1, 0, 42);
                assert_eq!(old, 0);
                let old2 = pe.cswap_u64(a, 1, 0, 99); // fails: now 42
                assert_eq!(old2, 42);
            }
            pe.barrier_all();
            pe.get_u64(a, pe.id())
        })
        .unwrap();
        assert_eq!(r[1], 42);
        let r2 = run_spmd(cfg(2), |pe| {
            let a = pe.shmalloc(1);
            pe.put_u64(a, pe.id(), 5);
            pe.barrier_all();
            if pe.id() == 1 {
                assert_eq!(pe.swap_u64(a, 0, 7), 5);
            }
            pe.barrier_all();
            pe.get_u64(a, pe.id())
        })
        .unwrap();
        assert_eq!(r2[0], 7);
    }

    #[test]
    fn wait_until_point_to_point() {
        let r = run_spmd(cfg(2), |pe| {
            let flag = pe.shmalloc(1);
            if pe.id() == 0 {
                // Give PE 1 a moment to start waiting, then signal.
                std::thread::sleep(Duration::from_millis(10));
                pe.put_i64(flag, 1, 99);
                0
            } else {
                pe.wait_until(flag, WaitCmp::Eq, 99)
            }
        })
        .unwrap();
        assert_eq!(r[1], 99);
    }

    #[test]
    fn locks_protect_read_modify_write() {
        for kind in [LockKind::SpinCas, LockKind::Ticket] {
            let n = 8;
            let iters = 200;
            let r = run_spmd(cfg(n).lock(kind), |pe| {
                let lk = pe.shmalloc_lock();
                let x = pe.shmalloc(1);
                for _ in 0..iters {
                    pe.lock(lk, 0);
                    // Unprotected read-modify-write, safe only under
                    // the lock.
                    let v = pe.get_i64(x, 0);
                    pe.put_i64(x, 0, v + 1);
                    pe.unlock(lk, 0);
                }
                pe.barrier_all();
                pe.get_i64(x, 0)
            })
            .unwrap();
            for v in r {
                assert_eq!(v, (n * iters) as i64, "{kind:?} lost updates");
            }
        }
    }

    #[test]
    fn trylock_then_lock_pattern() {
        // The Section V pattern: trylock, fall back to blocking lock.
        let r = run_spmd(cfg(4), |pe| {
            let lk = pe.shmalloc_lock();
            let x = pe.shmalloc(1);
            for _ in 0..100 {
                if !pe.try_lock(lk, 0) {
                    pe.lock(lk, 0);
                }
                let v = pe.get_i64(x, 0);
                pe.put_i64(x, 0, v + 1);
                pe.unlock(lk, 0);
            }
            pe.barrier_all();
            pe.get_i64(x, 0)
        })
        .unwrap();
        assert_eq!(r[0], 400);
    }

    #[test]
    fn per_instance_locks_are_independent() {
        // Locking PE 0's instance does not block PE 1's instance.
        run_spmd(cfg(2), |pe| {
            let lk = pe.shmalloc_lock();
            pe.lock(lk, pe.id()); // everyone locks their own instance
            pe.barrier_all(); // both hold simultaneously: no deadlock
            pe.unlock(lk, pe.id());
        })
        .unwrap();
    }

    #[test]
    fn broadcast_from_each_root() {
        let r = run_spmd(cfg(4), |pe| {
            let mut got = Vec::new();
            for root in 0..pe.n_pes() {
                let v = pe.broadcast_u64(root, (root as u64 + 1) * 11);
                got.push(v);
            }
            got
        })
        .unwrap();
        for row in r {
            assert_eq!(row, vec![11, 22, 33, 44]);
        }
    }

    #[test]
    fn reductions() {
        let r = run_spmd(cfg(5), |pe| {
            let me = pe.id() as i64;
            (
                pe.reduce_i64(me, ReduceOp::Sum),
                pe.reduce_i64(me, ReduceOp::Min),
                pe.reduce_i64(me, ReduceOp::Max),
                pe.reduce_i64(me + 1, ReduceOp::Prod),
                pe.reduce_f64(0.5, ReduceOp::Sum),
            )
        })
        .unwrap();
        for (sum, min, max, prod, fsum) in r {
            assert_eq!(sum, 10);
            assert_eq!(min, 0);
            assert_eq!(max, 4);
            assert_eq!(prod, 120);
            assert!((fsum - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn dissemination_barrier_end_to_end() {
        let r = run_spmd(cfg(7).barrier(BarrierKind::Dissemination), |pe| {
            let a = pe.shmalloc(1);
            pe.put_i64(a, pe.id(), pe.id() as i64);
            pe.barrier_all();
            let mut sum = 0;
            for t in 0..pe.n_pes() {
                sum += pe.get_i64(a, t);
            }
            sum
        })
        .unwrap();
        for v in r {
            assert_eq!(v, 21);
        }
    }

    #[test]
    fn rand_is_deterministic_per_seed_and_pe() {
        let a = run_spmd(cfg(4).seed(42), |pe| (pe.rand_i64(), pe.rand_f64())).unwrap();
        let b = run_spmd(cfg(4).seed(42), |pe| (pe.rand_i64(), pe.rand_f64())).unwrap();
        let c = run_spmd(cfg(4).seed(43), |pe| (pe.rand_i64(), pe.rand_f64())).unwrap();
        assert_eq!(a, b, "same seed must reproduce");
        assert_ne!(a, c, "different seed must differ");
        // PEs get distinct streams.
        assert_ne!(a[0], a[1]);
        for (i, f) in a.iter().enumerate() {
            assert!(f.0 >= 0 && f.0 < (1 << 31), "WHATEVR out of range on PE {i}");
            assert!(f.1 >= 0.0 && f.1 < 1.0, "WHATEVAR out of range on PE {i}");
        }
    }

    #[test]
    fn failing_pe_reports_spmd_error() {
        let err = run_spmd(cfg(4), |pe| {
            if pe.id() == 2 {
                pe.fail("O NOES! [TEST] PE 2 HAZ A SAD".to_string());
            }
            pe.id()
        })
        .unwrap_err();
        assert_eq!(err.pe, 2);
        assert!(err.message.contains("HAZ A SAD"));
    }

    #[test]
    fn failing_pe_releases_barrier_waiters() {
        // PE 1 panics; PEs waiting in HUGZ must abort, not hang.
        let err = run_spmd(cfg(4).timeout(Duration::from_secs(20)), |pe| {
            if pe.id() == 1 {
                panic!("O NOES! EARLY EXIT");
            }
            pe.barrier_all(); // would deadlock without abort propagation
        })
        .unwrap_err();
        assert_eq!(err.pe, 1);
    }

    #[test]
    fn missing_barrier_participant_trips_watchdog() {
        let err = run_spmd(cfg(2).timeout(Duration::from_millis(200)), |pe| {
            if pe.id() == 0 {
                pe.barrier_all(); // PE 1 never joins
            }
        })
        .unwrap_err();
        assert!(
            err.message.contains("RUN0191") || err.message.contains("RUN0190"),
            "unexpected: {}",
            err.message
        );
    }

    #[test]
    fn alloc_mismatch_is_diagnosed() {
        let err = run_spmd(cfg(2).timeout(Duration::from_secs(5)), |pe| {
            if pe.id() == 0 {
                pe.shmalloc(4);
            } else {
                pe.shmalloc(8);
            }
        })
        .unwrap_err();
        assert!(err.message.contains("RUN0110"), "{}", err.message);
    }

    #[test]
    fn heap_exhaustion_is_diagnosed() {
        let err = run_spmd(cfg(2).heap_words(16).timeout(Duration::from_secs(5)), |pe| {
            pe.shmalloc(32);
        })
        .unwrap_err();
        assert!(err.message.contains("RUN0111"), "{}", err.message);
    }

    #[test]
    fn latency_model_slows_remote_access() {
        use std::time::Instant;
        let lat = LatencyModel::Uniform { remote_ns: 50_000 };
        let r = run_spmd(cfg(2).latency(lat), |pe| {
            let a = pe.shmalloc(1);
            pe.barrier_all();
            let other = 1 - pe.id();
            let t0 = Instant::now();
            for _ in 0..20 {
                pe.get_i64(a, other);
            }
            let remote = t0.elapsed();
            let t1 = Instant::now();
            for _ in 0..20 {
                pe.get_i64(a, pe.id());
            }
            let local = t1.elapsed();
            (local, remote)
        })
        .unwrap();
        for (local, remote) in r {
            assert!(remote > local, "remote ({remote:?}) should cost more than local ({local:?})");
            assert!(remote >= Duration::from_micros(20 * 50));
        }
    }

    #[test]
    fn tracing_records_remote_ops_and_explicit_barriers_only() {
        let traces = run_spmd(cfg(2).trace(true), |pe| {
            let a = pe.shmalloc(2); // internal barrier: must NOT be traced
            let other = 1 - pe.id();
            pe.put_i64(a, pe.id(), 7); // local: not traced
            pe.put_i64(a, other, 9); // remote put
            pe.barrier_all(); // explicit: enter+exit
            let _ = pe.get_i64(a.offset(1), other); // remote get
            pe.take_trace().expect("tracing enabled")
        })
        .unwrap();
        for (id, t) in traces.iter().enumerate() {
            let sig = t.signature();
            let peer = (1 - id) as u32;
            assert_eq!(
                sig,
                vec![
                    ('P', peer, 0, 8),
                    ('B', id as u32, 0, 0),
                    ('b', id as u32, 0, 0),
                    ('G', peer, 1, 8)
                ],
                "PE {id}"
            );
            assert_eq!(t.dropped, 0);
            // Wall timestamps are monotone per PE.
            let times: Vec<u64> = t.events.iter().map(|e| e.t_ns).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        }
    }

    #[test]
    fn trace_buffer_bound_drops_and_counts() {
        let traces = run_spmd(cfg(2).trace(true).trace_capacity(3), |pe| {
            let a = pe.shmalloc(1);
            let other = 1 - pe.id();
            for _ in 0..10 {
                pe.put_i64(a, other, 1);
            }
            pe.take_trace().unwrap()
        })
        .unwrap();
        for t in traces {
            assert_eq!(t.events.len(), 3);
            assert_eq!(t.dropped, 7);
        }
    }

    #[test]
    fn trace_stride_samples_pes_but_counts_drops() {
        let traces = run_spmd(cfg(4).trace(true).trace_stride(2), |pe| {
            let a = pe.shmalloc(1);
            let other = (pe.id() + 1) % pe.n_pes();
            pe.put_i64(a, other, 1);
            pe.take_trace().unwrap()
        })
        .unwrap();
        for (id, t) in traces.iter().enumerate() {
            if id % 2 == 0 {
                assert_eq!(t.events.len(), 1, "sampled PE {id} records its event");
                assert_eq!(t.dropped, 0);
            } else {
                assert!(t.events.is_empty(), "sampled-out PE {id} stores nothing");
                assert_eq!(t.dropped, 1, "…but still counts the event as dropped");
            }
        }
    }

    #[test]
    fn untraced_job_returns_no_trace() {
        let r = run_spmd(cfg(2), |pe| pe.take_trace()).unwrap();
        assert!(r.into_iter().all(|t| t.is_none()));
    }

    #[test]
    fn virtual_clock_accounts_instead_of_spinning() {
        use lol_trace::{VIRT_BARRIER_NS, VIRT_OP_NS};
        let lat = LatencyModel::Uniform { remote_ns: 1_000_000_000 }; // 1s per remote op!
        let t0 = std::time::Instant::now();
        let clocks = run_spmd(cfg(2).latency(lat).clock(ClockMode::Virtual), |pe| {
            let a = pe.shmalloc(1);
            let other = 1 - pe.id();
            for _ in 0..5 {
                pe.put_i64(a, other, 1);
            }
            pe.get_i64(a, pe.id()); // local: free in virtual time
            pe.barrier_all();
            pe.virtual_ns()
        })
        .unwrap();
        // 10 virtual seconds of modelled latency finished ~instantly.
        assert!(t0.elapsed() < Duration::from_secs(2), "virtual mode must not busy-wait");
        let expect = 5 * (1_000_000_000 + VIRT_OP_NS) + VIRT_BARRIER_NS;
        assert_eq!(clocks, vec![expect, expect], "barrier syncs both clocks to the max");
    }

    #[test]
    fn virtual_walls_are_deterministic_and_model_dependent() {
        let body = |pe: &Pe<'_>| {
            let a = pe.shmalloc(4);
            // Nearest-neighbour ring: cheap on a mesh, flat on Uniform.
            let next = (pe.id() + 1) % pe.n_pes();
            for i in 0..8 {
                pe.put_i64(a.offset(i % 4), next, i as i64);
            }
            pe.barrier_all();
            pe.virtual_ns()
        };
        let run = |lat: LatencyModel| {
            run_spmd(cfg(4).latency(lat).clock(ClockMode::Virtual), body).unwrap()
        };
        let mesh = LatencyModel::Mesh2D { width: 2, base_ns: 50, hop_ns: 11 };
        let flat = LatencyModel::Uniform { remote_ns: 1000 };
        assert_eq!(run(mesh), run(mesh), "virtual walls must reproduce exactly");
        assert_eq!(run(flat), run(flat));
        assert_ne!(run(mesh)[0], run(flat)[0], "models must order differently");
    }

    #[test]
    fn results_come_back_in_pe_order() {
        let r = run_spmd(cfg(16), |pe| pe.id()).unwrap();
        assert_eq!(r, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn oversubscribed_many_pes_still_complete() {
        // 64 PEs on a small host: yields in the spin guard must let
        // everyone through.
        let r = run_spmd(cfg(64), |pe| {
            let a = pe.shmalloc(1);
            pe.put_i64(a, pe.id(), 1);
            for _ in 0..5 {
                pe.barrier_all();
            }
            let mut sum = 0;
            for t in 0..pe.n_pes() {
                sum += pe.get_i64(a, t);
            }
            sum
        })
        .unwrap();
        for v in r {
            assert_eq!(v, 64);
        }
    }
}
