//! The per-PE core both schedulers share.
//!
//! One SoA lane table ([`Lanes`]) holds every per-PE field; one
//! generic substrate ([`Lane`]) charges, traces, counts and parks PEs
//! on it; and the routines that resume a PE, settle collective
//! allocations, diagnose deadlock and assemble the report are written
//! once here. The sequential scheduler keeps one table over all PEs,
//! the sharded one a table per shard. Only where heap words live and
//! how locks hand off differ between them, behind [`World`].

use crate::{SchedStats, SimReport};
use lol_shmem::diag;
use lol_shmem::rng::PeRng;
use lol_shmem::substrate::{Progress, Substrate};
use lol_shmem::{CommStats, PeTrace, ShmemConfig, SpmdError, SymAddr, TraceBuffer};
use lol_trace::{EventKind, VIRT_BARRIER_NS, VIRT_OP_NS};
use lol_vm::machine::{Machine, Step};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a PE is not currently runnable (or how its pending call ended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Block {
    /// Runnable; no substrate call outstanding.
    Run,
    /// Parked inside a barrier episode (explicit or allocation fence).
    BarrierWait,
    /// The episode completed; the next re-issued call consumes this.
    BarrierDone,
    /// Parked on a lock waiter queue.
    LockWait,
    /// The lock was granted; the re-issued `lock` call consumes this.
    LockDone,
}

/// One collective allocation call a PE parked on: `(seq, pe, words)`.
pub(crate) type AllocReq = (u32, usize, usize);

/// Barrier arrivals since the last release — O(1) per arrival: a
/// count, a running clock max, and the episode kind.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Arrivals {
    pub(crate) count: usize,
    max: u64,
    /// The first arrival `(pe, explicit)`; SPMD programs cannot mix
    /// barrier kinds within one episode, so its kind is the episode's.
    first: Option<(usize, bool)>,
}

impl Arrivals {
    /// Fold in another table's arrivals. The lower PE's kind wins, as
    /// the canonical ascending-PE order would have seen it first.
    pub(crate) fn merge(&mut self, other: Arrivals) {
        self.count += other.count;
        self.max = self.max.max(other.max);
        if let Some(a) = other.first {
            if self.first.is_none_or(|b| a.0 < b.0) {
                self.first = Some(a);
            }
        }
    }

    /// The synchronized clock the completed episode releases its
    /// cohort at: the latest arrival, plus the barrier cost for an
    /// explicit `HUGZ` (allocation fences are free in virtual time).
    pub(crate) fn release_time(&self) -> u64 {
        let explicit = self.first.is_some_and(|(_, e)| e);
        self.max + if explicit { VIRT_BARRIER_NS } else { 0 }
    }
}

/// Per-PE bookkeeping for a set of PEs, as parallel arrays indexed by
/// lane (SoA, so a million idle PEs stay cache- and footprint-cheap),
/// plus what the lanes left for the scheduler to settle: barrier
/// arrivals and collective allocation requests.
pub(crate) struct Lanes {
    /// The PE behind each lane, ascending.
    pub(crate) pes: Vec<usize>,
    pub(crate) vclock: Vec<u64>,
    stats: Vec<CommStats>,
    rng: Vec<PeRng>,
    /// One buffer per PE when tracing is on (zero-capacity for
    /// sampled-out PEs so their events still *count* as dropped);
    /// empty when tracing is off — no per-PE `Option` overhead.
    tracers: Vec<TraceBuffer>,
    pub(crate) block: Vec<Block>,
    alloc_seq: Vec<u32>,
    outputs: Vec<String>,
    pub(crate) done: Vec<bool>,
    pub(crate) done_count: usize,
    pub(crate) arrivals: Arrivals,
    /// At most one per lane between settlements (`shmalloc` parks),
    /// in lane order.
    pub(crate) alloc_reqs: Vec<AllocReq>,
}

impl Lanes {
    /// Fresh lanes for `pes` (ascending), seeded and traced the same
    /// way on every scheduler.
    pub(crate) fn new(cfg: &ShmemConfig, pes: Vec<usize>) -> Self {
        let k = pes.len();
        let tracers = if cfg.trace {
            let cap = |pe| if cfg.traces_pe(pe) { cfg.trace_capacity } else { 0 };
            pes.iter().map(|&pe| TraceBuffer::new(pe, cap(pe))).collect()
        } else {
            Vec::new()
        };
        Lanes {
            vclock: vec![0; k],
            stats: vec![CommStats::default(); k],
            rng: pes
                .iter()
                .map(|&pe| {
                    PeRng::seed_from_u64(cfg.seed ^ (pe as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                })
                .collect(),
            tracers,
            block: vec![Block::Run; k],
            alloc_seq: vec![0; k],
            outputs: vec![String::new(); k],
            done: vec![false; k],
            done_count: 0,
            arrivals: Arrivals::default(),
            alloc_reqs: Vec::new(),
            pes,
        }
    }

    /// Wake every lane out of the completed episode and start counting
    /// the next one.
    pub(crate) fn release(&mut self) {
        self.block.fill(Block::BarrierDone);
        self.arrivals = Arrivals::default();
    }
}

/// What the schedulers' worlds do differently: where heap words live
/// and how locks hand off. Everything else a PE does is [`Lane`]'s.
pub(crate) trait World {
    /// Load `target`'s instance of `addr` (`RUN0100` past the heap).
    fn load(&self, target: usize, addr: SymAddr) -> u64;
    /// Store into `target`'s instance of `addr` (`RUN0100` past the
    /// heap).
    fn store(&self, target: usize, addr: SymAddr, value: u64);
    /// The offset collective allocation call `seq` resolved to.
    fn alloc_offset(&self, seq: usize) -> u32;
    /// One blocking-acquire attempt; on failure `me` queues as a
    /// waiter.
    fn acquire(&self, me: usize, target: usize, addr: SymAddr) -> bool;
    /// Acquire only if the lock is immediately available.
    fn try_acquire(&self, me: usize, target: usize, addr: SymAddr) -> bool;
    /// Release (`RUN0180`/`RUN0181` if `me` does not hold the lock),
    /// handing it to the next waiter in `lanes`.
    fn release(&self, lanes: &mut Lanes, me: usize, target: usize, addr: SymAddr);
}

/// One PE's substrate handle: lane `li` of `lanes`, which is PE `pe`.
pub(crate) struct Lane<'a, W> {
    pub(crate) world: &'a W,
    pub(crate) cfg: &'a ShmemConfig,
    pub(crate) lanes: &'a RefCell<Lanes>,
    pub(crate) li: usize,
    pub(crate) pe: usize,
}

impl<W: World> Lane<'_, W> {
    /// Advance this PE's logical clock for touching `target` — the
    /// exact accounting rule of the threaded world's virtual mode.
    /// The simulator always accounts on the logical clock (event
    /// ordering needs it); under `ClockMode::Wall` the engine reports
    /// the resulting makespan as the simulated wall time.
    fn charge(&self, l: &mut Lanes, target: usize) {
        if target != self.pe {
            let delay = self.cfg.latency.delay_ns(self.pe, target);
            l.vclock[self.li] += delay + VIRT_OP_NS;
        }
    }

    fn trace(&self, l: &mut Lanes, kind: EventKind, peer: usize, addr: SymAddr, bytes: u32) {
        if l.tracers.is_empty() {
            return;
        }
        let now = l.vclock[self.li];
        l.tracers[self.li].record(kind, peer, addr.0, bytes, now);
    }

    /// Join the current barrier episode. The PE always parks — even
    /// the last arriver — so the event accounting is identical on
    /// every scheduler; the scheduler completes the episode once all
    /// `n` have arrived.
    fn arrive(&self, l: &mut Lanes, explicit: bool) {
        l.stats[self.li].barriers += 1;
        let a = &mut l.arrivals;
        debug_assert!(
            a.first.is_none_or(|(_, e)| e == explicit),
            "SPMD programs cannot mix barrier kinds within one episode"
        );
        a.count += 1;
        a.max = a.max.max(l.vclock[self.li]);
        a.first.get_or_insert((self.pe, explicit));
        l.block[self.li] = Block::BarrierWait;
    }
}

impl<W: World> Substrate for Lane<'_, W> {
    fn id(&self) -> usize {
        self.pe
    }

    fn n_pes(&self) -> usize {
        self.cfg.n_pes
    }

    fn shmalloc(&self, words: usize) -> Progress<SymAddr> {
        let mut l = self.lanes.borrow_mut();
        if l.block[self.li] == Block::BarrierDone {
            // Re-issued after the allocation fence released us: the
            // offset for our call is in the shared allocation log.
            l.block[self.li] = Block::Run;
            let seq = l.alloc_seq[self.li] as usize - 1;
            return Progress::Ready(SymAddr(self.world.alloc_offset(seq)));
        }
        // First attempt: leave the request for the scheduler to settle
        // (see `AllocLog::settle`) and enter the allocation fence —
        // counted in the barrier stats, untraced, free in virtual
        // time, identical to the threaded world.
        let seq = l.alloc_seq[self.li];
        l.alloc_seq[self.li] = seq + 1;
        l.alloc_reqs.push((seq, self.pe, words));
        self.arrive(&mut l, false);
        Progress::Pending
    }

    fn put_u64(&self, addr: SymAddr, target: usize, value: u64) {
        let mut l = self.lanes.borrow_mut();
        if target == self.pe {
            l.stats[self.li].local_puts += 1;
        } else {
            l.stats[self.li].remote_puts += 1;
        }
        self.charge(&mut l, target);
        self.world.store(target, addr, value);
        if target != self.pe {
            self.trace(&mut l, EventKind::Put, target, addr, 8);
        }
    }

    fn get_u64(&self, addr: SymAddr, target: usize) -> u64 {
        let mut l = self.lanes.borrow_mut();
        if target == self.pe {
            l.stats[self.li].local_gets += 1;
        } else {
            l.stats[self.li].remote_gets += 1;
        }
        self.charge(&mut l, target);
        let v = self.world.load(target, addr);
        if target != self.pe {
            self.trace(&mut l, EventKind::Get, target, addr, 8);
        }
        v
    }

    fn barrier(&self) -> Progress<()> {
        let mut l = self.lanes.borrow_mut();
        if l.block[self.li] == Block::BarrierDone {
            l.block[self.li] = Block::Run;
            self.trace(&mut l, EventKind::BarrierExit, self.pe, SymAddr(0), 0);
            return Progress::Ready(());
        }
        self.trace(&mut l, EventKind::BarrierEnter, self.pe, SymAddr(0), 0);
        self.arrive(&mut l, true);
        Progress::Pending
    }

    fn lock(&self, addr: SymAddr, target: usize) -> Progress<()> {
        let mut l = self.lanes.borrow_mut();
        if l.block[self.li] == Block::LockDone {
            // Granted while parked; the clock does not advance while
            // waiting (same as the threaded virtual accounting).
            l.block[self.li] = Block::Run;
            self.trace(&mut l, EventKind::LockAcquire, target, addr, 0);
            return Progress::Ready(());
        }
        l.stats[self.li].lock_acquires += 1;
        self.charge(&mut l, target);
        if self.world.acquire(self.pe, target, addr) {
            self.trace(&mut l, EventKind::LockAcquire, target, addr, 0);
            Progress::Ready(())
        } else {
            l.block[self.li] = Block::LockWait;
            Progress::Pending
        }
    }

    fn try_lock(&self, addr: SymAddr, target: usize) -> bool {
        let mut l = self.lanes.borrow_mut();
        l.stats[self.li].lock_tries += 1;
        self.charge(&mut l, target);
        let got = self.world.try_acquire(self.pe, target, addr);
        self.trace(&mut l, EventKind::LockTry, target, addr, got as u32);
        got
    }

    fn unlock(&self, addr: SymAddr, target: usize) {
        let mut l = self.lanes.borrow_mut();
        l.stats[self.li].lock_releases += 1;
        self.charge(&mut l, target);
        self.world.release(&mut l, self.pe, target, addr);
        self.trace(&mut l, EventKind::LockRelease, target, addr, 0);
    }

    fn rand_i64(&self) -> i64 {
        self.lanes.borrow_mut().rng[self.li].gen_i64_below(1i64 << 31)
    }

    fn rand_f64(&self) -> f64 {
        self.lanes.borrow_mut().rng[self.li].gen_unit_f64()
    }
}

/// Resume `machine` (the PE behind `lane`) until it blocks or
/// finishes, after max-syncing its clock to `sync_ns` — the release
/// time of the episode it resumes from; re-synchronizing lazily here
/// is what keeps an episode's release O(1). Substrate diagnostics
/// (heap bounds, lock misuse) panic exactly like the threaded world;
/// they and runtime faults come back as the PE's error.
///
/// Inlined into each scheduler's loop: on barrier-heavy jobs a whole
/// step costs a few tens of nanoseconds, so a call is measurable.
#[inline]
pub(crate) fn step<W: World>(
    machine: &mut Machine<'_>,
    lane: &Lane<'_, W>,
    sync_ns: u64,
) -> Result<(), SpmdError> {
    {
        let mut l = lane.lanes.borrow_mut();
        l.vclock[lane.li] = l.vclock[lane.li].max(sync_ns);
    }
    let fail = |message| Err(SpmdError { pe: lane.pe, message });
    match catch_unwind(AssertUnwindSafe(|| machine.resume(lane))) {
        Err(payload) => fail(diag::panic_message(payload)),
        Ok(Err(e)) => fail(e.to_string()),
        Ok(Ok(Step::Done)) => {
            let out = machine.take_output();
            let mut l = lane.lanes.borrow_mut();
            l.outputs[lane.li] = out;
            l.done[lane.li] = true;
            l.done_count += 1;
            Ok(())
        }
        Ok(Ok(Step::Blocked)) => {
            debug_assert_ne!(
                lane.lanes.borrow().block[lane.li],
                Block::Run,
                "machine blocked but the substrate did not park PE {}",
                lane.pe
            );
            Ok(())
        }
    }
}

/// The job's collective allocations: words agreed per call index, the
/// offset each call resolved to, and the shared allocation cursor
/// (identical on every PE).
#[derive(Default)]
pub(crate) struct AllocLog {
    words: Vec<u32>,
    offsets: Vec<u32>,
    pub(crate) cursor: usize,
}

impl AllocLog {
    /// Validate parked allocation requests in the order given — the
    /// canonical PE order, so attribution matches on every scheduler —
    /// claiming an offset for each call the job makes for the first
    /// time. The first mismatch (`RUN0110`) or overflow of
    /// `heap_words` (`RUN0111`) is the requesting PE's error.
    pub(crate) fn settle(&mut self, reqs: &[AllocReq], heap_words: usize) -> Result<(), SpmdError> {
        for &(seq, pe, words) in reqs {
            let seq = seq as usize;
            if let Some(&agreed) = self.words.get(seq) {
                if agreed as usize != words {
                    let message = diag::alloc_mismatch(seq, pe, words, agreed as usize);
                    return Err(SpmdError { pe, message });
                }
            } else {
                self.words.push(words as u32);
            }
            if self.offsets.get(seq).is_none() {
                let end = self.cursor + words;
                if end > heap_words {
                    return Err(SpmdError {
                        pe,
                        message: diag::heap_exhausted(pe, end, heap_words),
                    });
                }
                self.offsets.push(self.cursor as u32);
                self.cursor = end;
            }
        }
        Ok(())
    }

    /// The offset allocation call `seq` resolved to.
    pub(crate) fn offset(&self, seq: usize) -> u32 {
        self.offsets[seq]
    }
}

/// `RUN0191` for a job that can never make progress again — detected
/// *exactly*, instead of by the threaded world's watchdog: reported at
/// the first unfinished PE, naming what it is parked on.
pub(crate) fn deadlock<'a>(tables: impl IntoIterator<Item = &'a Lanes>) -> SpmdError {
    let (pe, block) = tables
        .into_iter()
        .flat_map(|l| {
            let parked = l.pes.iter().zip(&l.block).zip(&l.done).filter(|(_, &done)| !done);
            parked.map(|((&pe, &block), _)| (pe, block))
        })
        .min_by_key(|&(pe, _)| pe)
        .expect("a deadlocked job has an unfinished PE");
    let what = match block {
        Block::LockWait | Block::LockDone => diag::LOCK_WAIT,
        _ => diag::BARRIER_WAIT,
    };
    SpmdError { pe, message: diag::deadlock(pe, what) }
}

/// The report of a finished job, from lane tables that together cover
/// every PE exactly once.
pub(crate) fn assemble<'a>(
    n: usize,
    tables: impl IntoIterator<Item = &'a mut Lanes>,
    events: u64,
    sched: SchedStats,
) -> SimReport {
    let mut outputs = vec![String::new(); n];
    let mut stats = vec![CommStats::default(); n];
    let mut virtual_ns = vec![0u64; n];
    let mut traces: Vec<Option<PeTrace>> = (0..n).map(|_| None).collect();
    for l in tables {
        for (li, &pe) in l.pes.iter().enumerate() {
            outputs[pe] = std::mem::take(&mut l.outputs[li]);
            stats[pe] = l.stats[li];
            virtual_ns[pe] = l.vclock[li];
        }
        for (buf, &pe) in std::mem::take(&mut l.tracers).into_iter().zip(&l.pes) {
            traces[pe] = Some(buf.finish(virtual_ns[pe]));
        }
    }
    let makespan_ns = virtual_ns.iter().copied().max().unwrap_or(0);
    SimReport { outputs, stats, traces, virtual_ns, makespan_ns, events, sched }
}
