//! The sequential scheduler: a lock-wake event heap plus a cohort
//! release cursor for barrier episodes, over one lane table holding
//! every PE. Handles every program (including locks) and any
//! tie-break order.

use crate::lane::{assemble, deadlock, step, AllocLog, Block, Lane, Lanes, World};
use crate::{SchedStats, SimReport};
use lol_shmem::{diag, LockKind, ShmemConfig, SpmdError, SymAddr};
use lol_vm::machine::Machine;
use lol_vm::Module;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Owner-word encoding shared with the threaded lock implementation:
/// 0 = free, `pe + 1` = held by `pe`.
#[inline]
fn encode(pe: usize) -> u64 {
    pe as u64 + 1
}

/// PEs waiting on one lock instance, in arrival order; ticket-lock
/// waiters carry their ticket so releases can grant by serving order.
type LockQueue = VecDeque<(usize, Option<u64>)>;

/// The world state every PE shares (single-threaded, so one `RefCell`
/// suffices).
struct SeqState {
    heap_words: usize,
    /// Per-PE symmetric heaps, grown lazily on first touch.
    heaps: Vec<Vec<u64>>,
    alloc: AllocLog,
    /// FIFO waiter queues per lock instance `(owner_pe, word_offset)`.
    lock_waiters: HashMap<(usize, u32), LockQueue>,
    /// Lock-grant wake-ups scheduled during the current resume,
    /// drained into the event queue by the engine after each step.
    wakes: Vec<(u64, usize)>,
}

impl SeqState {
    /// The heap word at `target`'s instance of `addr`, growing the
    /// heap to the allocation cursor on first touch. Panics with the
    /// same `RUN0100` diagnostic as the threaded heap on addresses
    /// beyond the configured bound.
    fn word(&mut self, target: usize, addr: SymAddr) -> &mut u64 {
        let idx = addr.index();
        if idx >= self.heap_words {
            panic!("{}", diag::heap_bound(addr, self.heap_words));
        }
        let need = self.alloc.cursor.max(idx + 1);
        let h = &mut self.heaps[target];
        if h.len() < need {
            h.resize(need, 0);
        }
        &mut h[idx]
    }

    /// One acquisition attempt for a *blocking* lock; on failure the
    /// PE is enqueued as a waiter. Mirrors the threaded algorithms:
    /// ticket acquirers always take a ticket, CAS acquirers just look
    /// at the owner word.
    fn blocking_acquire(
        &mut self,
        kind: LockKind,
        me: usize,
        target: usize,
        addr: SymAddr,
    ) -> bool {
        match kind {
            LockKind::SpinCas => {
                if *self.word(target, addr) == 0 {
                    *self.word(target, addr) = encode(me);
                    true
                } else {
                    self.lock_waiters.entry((target, addr.0)).or_default().push_back((me, None));
                    false
                }
            }
            LockKind::Ticket => {
                let t = *self.word(target, addr.offset(1));
                *self.word(target, addr.offset(1)) = t + 1;
                if *self.word(target, addr.offset(2)) == t {
                    *self.word(target, addr) = encode(me);
                    true
                } else {
                    self.lock_waiters.entry((target, addr.0)).or_default().push_back((me, Some(t)));
                    false
                }
            }
        }
    }

    /// Trylock: succeeds only when the lock is immediately available
    /// (a ticket trylock refuses to queue, like the threaded one).
    fn try_acquire(&mut self, kind: LockKind, me: usize, target: usize, addr: SymAddr) -> bool {
        match kind {
            LockKind::SpinCas => {
                if *self.word(target, addr) == 0 {
                    *self.word(target, addr) = encode(me);
                    true
                } else {
                    false
                }
            }
            LockKind::Ticket => {
                let next = *self.word(target, addr.offset(1));
                let serving = *self.word(target, addr.offset(2));
                if next == serving {
                    *self.word(target, addr.offset(1)) = next + 1;
                    *self.word(target, addr) = encode(me);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Release, with the threaded world's `RUN0180`/`RUN0181`
    /// diagnostics; returns the PE the lock was handed to, if any.
    fn release(
        &mut self,
        kind: LockKind,
        me: usize,
        target: usize,
        addr: SymAddr,
    ) -> Option<usize> {
        let holder = *self.word(target, addr);
        if holder != encode(me) {
            panic!("{}", diag::unlock_not_held(me, holder));
        }
        *self.word(target, addr) = 0;
        match kind {
            LockKind::SpinCas => {
                let g = self.lock_waiters.get_mut(&(target, addr.0)).and_then(|q| q.pop_front());
                if let Some((g, _)) = g {
                    *self.word(target, addr) = encode(g);
                    return Some(g);
                }
                None
            }
            LockKind::Ticket => {
                let serving = *self.word(target, addr.offset(2)) + 1;
                *self.word(target, addr.offset(2)) = serving;
                let g = self.lock_waiters.get_mut(&(target, addr.0)).and_then(|q| {
                    // serving - 1 is the ticket now being served (the
                    // counter we just advanced past was the holder's).
                    q.iter()
                        .position(|&(_, t)| t == Some(serving - 1))
                        .and_then(|pos| q.remove(pos))
                });
                if let Some((g, _)) = g {
                    *self.word(target, addr) = encode(g);
                    return Some(g);
                }
                None
            }
        }
    }
}

/// The sequential world: plain heaps and FIFO lock hand-off.
struct SeqWorld {
    lock: LockKind,
    state: RefCell<SeqState>,
}

impl World for SeqWorld {
    fn load(&self, target: usize, addr: SymAddr) -> u64 {
        *self.state.borrow_mut().word(target, addr)
    }

    fn store(&self, target: usize, addr: SymAddr, value: u64) {
        *self.state.borrow_mut().word(target, addr) = value;
    }

    fn alloc_offset(&self, seq: usize) -> u32 {
        self.state.borrow().alloc.offset(seq)
    }

    fn acquire(&self, me: usize, target: usize, addr: SymAddr) -> bool {
        self.state.borrow_mut().blocking_acquire(self.lock, me, target, addr)
    }

    fn try_acquire(&self, me: usize, target: usize, addr: SymAddr) -> bool {
        self.state.borrow_mut().try_acquire(self.lock, me, target, addr)
    }

    /// The lane table holds every PE, so lanes are PE ids here.
    fn release(&self, lanes: &mut Lanes, me: usize, target: usize, addr: SymAddr) {
        let mut st = self.state.borrow_mut();
        if let Some(g) = st.release(self.lock, me, target, addr) {
            lanes.block[g] = Block::LockDone;
            // The grantee resumes at the hand-off, but its own clock
            // is untouched — waiting is free in virtual time.
            let t = lanes.vclock[g].max(lanes.vclock[me]);
            st.wakes.push((t, g));
        }
    }
}

/// Run the job sequentially; `order = None` is the canonical
/// ascending-PE tie-break.
pub(crate) fn run_sequential(
    module: &Module,
    cfg: &ShmemConfig,
    input: &[String],
    order: Option<&dyn Fn(usize) -> u64>,
) -> Result<SimReport, SpmdError> {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let n = cfg.n_pes;
    let world = SeqWorld {
        lock: cfg.lock,
        state: RefCell::new(SeqState {
            heap_words: cfg.heap_words,
            heaps: (0..n).map(|_| Vec::new()).collect(),
            alloc: AllocLog::default(),
            lock_waiters: HashMap::new(),
            wakes: Vec::new(),
        }),
    };
    let lanes = RefCell::new(Lanes::new(cfg, (0..n).collect()));
    let key = |pe: usize| order.map_or(pe as u64, |f| f(pe));
    let mut machines: Vec<Machine<'_>> = (0..n).map(|_| Machine::new(module, input)).collect();
    let mut events = 0u64;
    // The cohort: PEs released together by a completed barrier
    // episode (program start is episode zero at t = 0). All of them
    // resume at the same synchronized time, so the canonical order is
    // just ascending PE — one cursor, no heap traffic. A custom
    // tie-break re-sorts once (test-only path).
    let mut cohort: Vec<usize> = (0..n).collect();
    if order.is_some() {
        cohort.sort_by_key(|&p| (key(p), p));
    }
    let mut cohort_time = 0u64;
    let mut cohort_next = 0usize;
    let mut sched = SchedStats::default();
    // Min-heap over (t_ns, tie, pe) — lock hand-offs only.
    let mut queue: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    loop {
        // Next event: the smaller of the cohort cursor and the heap
        // head, compared on the same (t_ns, tie, pe) key.
        let cohort_key = (cohort_next < cohort.len()).then(|| {
            let p = cohort[cohort_next];
            (cohort_time, key(p), p)
        });
        let queue_key = queue.peek().map(|&Reverse(k)| k);
        let (pe, sync_ns) = match (cohort_key, queue_key) {
            (None, None) => break,
            (Some(ck), qk) if qk.is_none() || ck <= qk.unwrap() => {
                cohort_next += 1;
                (ck.2, cohort_time)
            }
            _ => (queue.pop().expect("peeked").0 .2, 0),
        };
        events += 1;
        step(&mut machines[pe], &Lane { world: &world, cfg, lanes: &lanes, li: pe, pe }, sync_ns)?;
        let mut l = lanes.borrow_mut();
        let st = &mut *world.state.borrow_mut();
        // The first segment to fail aborts the job, so an allocation
        // is settled as soon as its PE parks.
        if !l.alloc_reqs.is_empty() {
            st.alloc.settle(&l.alloc_reqs, cfg.heap_words)?;
            l.alloc_reqs.clear();
        }
        for (t, p) in st.wakes.drain(..) {
            queue.push(Reverse((t, key(p), p)));
        }
        sched.heap_peak = sched.heap_peak.max(queue.len() as u64);
        if l.arrivals.count == n {
            // All n PEs arrived, which means every prior release was
            // consumed and no lock hand-off can be pending: release
            // the whole cohort with one cursor reset.
            sched.barrier_episodes += 1;
            debug_assert!(queue.is_empty() && cohort_next == cohort.len());
            cohort_time = l.arrivals.release_time();
            l.release();
            cohort_next = 0;
        }
    }
    let mut lanes = lanes.into_inner();
    if lanes.done_count < n {
        // The queue drained with parked PEs left.
        return Err(deadlock([&lanes]));
    }
    Ok(assemble(n, [&mut lanes], events, sched))
}
