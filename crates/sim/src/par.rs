//! The sharded scheduler: barrier-to-barrier windows in parallel.
//!
//! ## Why whole windows are safe to parallelize
//!
//! Corpus programs are compute → remote-ops → barrier structured, and
//! the simulator's virtual clocks never gate heap visibility (a put
//! lands when the event executes, not when its latency elapses — the
//! same contract as the threaded world). So the conservative
//! time-window of classic parallel discrete-event simulation
//! degenerates here to the *barrier episode*: between two episode
//! boundaries no PE can be woken by another (locks are excluded, see
//! below), which makes every PE's segment independent of the others'
//! scheduling inside the window.
//!
//! Each phase runs one segment per live PE, sharded across workers by
//! a [`ShardPlan`], each shard over its own lane table; a
//! single-threaded merge then settles the window boundary: it
//! validates collective allocations in canonical PE order, advances
//! the release clock, and re-opens every shard. The merge sees what
//! each shard left — arrivals and allocation requests in its lane
//! table, the phase's first error — and processes them in canonical
//! `(t_ns, tie, pe)` order, which within a window (all arrivals share
//! the window's release time, and the tie-break is the PE id) is just
//! ascending PE. That makes every merge decision — error attribution,
//! allocation offsets, the episode's synchronized clock — identical
//! to the sequential scheduler's, which is how `jobs = N` stays
//! byte-identical to `jobs = 1`.
//!
//! ## Determinism argument
//!
//! On a data-race-free program no PE reads a word written by another
//! PE in the same episode, so each segment's observables (output,
//! stats, trace events, clock advance) are a pure function of the
//! heap state at the window boundary plus the PE's own state — both
//! independent of worker interleaving. Racy programs get the threaded
//! world's contract instead: unspecified *values*, never tearing,
//! never undefined behaviour (the heap is `AtomicU64`, this crate
//! stays `forbid(unsafe_code)`).
//!
//! ## Locks
//!
//! Lock hand-off order is defined by the *global* event order, which
//! workers cannot observe mid-window, so modules containing lock
//! opcodes never take this path — [`crate::run_module`] detects them
//! statically and uses the sequential scheduler, whatever `sim_jobs`
//! says.

use crate::lane::{assemble, deadlock, step, AllocLog, Arrivals, Block, Lane, Lanes, World};
use crate::{SchedStats, SimReport};
use lol_shmem::shard::ShardPlan;
use lol_shmem::{diag, ShmemConfig, SpmdError, SymAddr};
use lol_vm::machine::Machine;
use lol_vm::Module;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Heap state shared by every worker during a phase; mutated only by
/// the single-threaded merge between phases.
struct ParWorld {
    heap_words: usize,
    /// Per-PE symmetric heaps, sized to the allocation cursor at the
    /// last merge. Word-granular `Relaxed` atomics — the exact memory
    /// model of the threaded world's heap.
    heaps: Vec<Box<[AtomicU64]>>,
    /// Sidecar for addresses beyond the cursor (legal, like the
    /// sequential heap's lazy growth); entries migrate into `heaps`
    /// when a merge advances the cursor past them.
    overflow: Mutex<HashMap<(u32, u32), u64>>,
    /// Read-only during phases, settled at merges.
    alloc: AllocLog,
    /// The synchronized clock of the last completed episode; every PE
    /// lazily max-syncs to it at its next segment.
    release_time: u64,
}

impl ParWorld {
    fn check(&self, addr: SymAddr) -> usize {
        let idx = addr.index();
        if idx >= self.heap_words {
            panic!("{}", diag::heap_bound(addr, self.heap_words));
        }
        idx
    }

    /// Resize every heap to the (grown) cursor and migrate overflow
    /// words the cursor has caught up with. Merge-only.
    fn grow_heaps(&mut self) {
        let cur = self.alloc.cursor;
        for h in &mut self.heaps {
            if h.len() < cur {
                let mut grown: Vec<AtomicU64> = Vec::with_capacity(cur);
                for w in h.iter() {
                    grown.push(AtomicU64::new(w.load(Ordering::Relaxed)));
                }
                grown.resize_with(cur, || AtomicU64::new(0));
                *h = grown.into_boxed_slice();
            }
        }
        let mut ov = self.overflow.lock().unwrap();
        let caught: Vec<(u32, u32)> =
            ov.keys().copied().filter(|&(_, idx)| (idx as usize) < cur).collect();
        for key in caught {
            let v = ov.remove(&key).expect("key was just listed");
            self.heaps[key.0 as usize][key.1 as usize].store(v, Ordering::Relaxed);
        }
    }
}

impl World for ParWorld {
    fn load(&self, pe: usize, addr: SymAddr) -> u64 {
        let idx = self.check(addr);
        if let Some(w) = self.heaps[pe].get(idx) {
            w.load(Ordering::Relaxed)
        } else {
            *self.overflow.lock().unwrap().get(&(pe as u32, idx as u32)).unwrap_or(&0)
        }
    }

    fn store(&self, pe: usize, addr: SymAddr, value: u64) {
        let idx = self.check(addr);
        if let Some(w) = self.heaps[pe].get(idx) {
            w.store(value, Ordering::Relaxed);
        } else {
            self.overflow.lock().unwrap().insert((pe as u32, idx as u32), value);
        }
    }

    fn alloc_offset(&self, seq: usize) -> u32 {
        self.alloc.offset(seq)
    }

    fn acquire(&self, _me: usize, _target: usize, _addr: SymAddr) -> bool {
        unreachable!("lock-using modules are routed to the sequential scheduler")
    }

    fn try_acquire(&self, _me: usize, _target: usize, _addr: SymAddr) -> bool {
        unreachable!("lock-using modules are routed to the sequential scheduler")
    }

    fn release(&self, _lanes: &mut Lanes, _me: usize, _target: usize, _addr: SymAddr) {
        unreachable!("lock-using modules are routed to the sequential scheduler")
    }
}

/// One shard: its machines and lane table (members ascending), plus
/// what its last phase leaves for the merge. Owned by the
/// orchestrator, lent to one worker per phase.
struct Shard<'m> {
    /// Created inside the shard's first phase so mega-scale machine
    /// construction parallelizes too.
    machines: Vec<Machine<'m>>,
    lanes: RefCell<Lanes>,
    segments: u64,
    error: Option<SpmdError>,
}

/// One shard's phase: run one segment per live member, in ascending
/// member order, stopping at the first error.
fn run_phase<'m>(
    shard: &mut Shard<'m>,
    world: &ParWorld,
    cfg: &ShmemConfig,
    module: &'m Module,
    input: &'m [String],
) {
    let k = shard.lanes.get_mut().pes.len();
    if shard.machines.is_empty() {
        shard.machines = (0..k).map(|_| Machine::new(module, input)).collect();
    }
    shard.segments = 0;
    for li in 0..k {
        let l = shard.lanes.get_mut();
        if l.done[li] {
            continue;
        }
        let pe = l.pes[li];
        debug_assert!(
            matches!(l.block[li], Block::Run | Block::BarrierDone),
            "PE {pe} entered a phase still parked"
        );
        shard.segments += 1;
        let lane = Lane { world, cfg, lanes: &shard.lanes, li, pe };
        if let Err(e) = step(&mut shard.machines[li], &lane, world.release_time) {
            shard.error = Some(e);
            break;
        }
    }
}

/// Run `module` under `plan`, one worker thread per shard per phase.
/// Callers guarantee `plan.jobs() > 1` and a lock-free module.
pub(crate) fn run_sharded(
    module: &Module,
    cfg: &ShmemConfig,
    input: &[String],
    plan: &ShardPlan,
) -> Result<SimReport, SpmdError> {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let n = cfg.n_pes;
    debug_assert_eq!(plan.n_pes(), n);
    debug_assert!(plan.jobs() > 1);
    let mut world = ParWorld {
        heap_words: cfg.heap_words,
        heaps: (0..n).map(|_| Vec::new().into_boxed_slice()).collect(),
        overflow: Mutex::new(HashMap::new()),
        alloc: AllocLog::default(),
        release_time: 0,
    };
    let mut shards: Vec<Shard<'_>> = (0..plan.jobs())
        .map(|s| Shard {
            machines: Vec::new(),
            lanes: RefCell::new(Lanes::new(cfg, plan.members(s).to_vec())),
            segments: 0,
            error: None,
        })
        .collect();
    let mut events = 0u64;
    let mut sched = SchedStats::default();
    loop {
        // ---- phase: one segment per live PE, sharded ----
        std::thread::scope(|scope| {
            let world = &world;
            for shard in shards.iter_mut().filter(|s| !s.lanes.borrow().pes.is_empty()) {
                scope.spawn(move || run_phase(shard, world, cfg, module, input));
            }
        });
        // ---- merge: settle the window boundary, single-threaded ----
        sched.merge_windows += 1;
        let mut arrivals = Arrivals::default();
        let mut done = 0usize;
        let mut errors: Vec<SpmdError> = Vec::new();
        let mut reqs = Vec::new();
        for shard in &mut shards {
            events += shard.segments;
            errors.extend(shard.error.take());
            let l = shard.lanes.get_mut();
            arrivals.merge(l.arrivals);
            done += l.done_count;
            reqs.append(&mut l.alloc_reqs);
        }
        // Allocation requests settle in canonical PE order — the exact
        // call order the sequential scheduler would have seen, so
        // mismatch/exhaustion diagnostics attribute identically.
        reqs.sort_unstable_by_key(|&(_, pe, _)| pe);
        errors.extend(world.alloc.settle(&reqs, cfg.heap_words).err());
        // A phase error surfaces at its PE's segment, an allocation
        // error at the requesting PE's — canonical order picks the
        // smaller PE, like the sequential scheduler aborting at the
        // first erroring segment.
        if let Some(e) = errors.into_iter().min_by_key(|e| e.pe) {
            return Err(e);
        }
        if done == n {
            break;
        }
        if arrivals.count != n {
            // Partial arrival with unfinished PEs: the job can never
            // make progress again — the sequential scheduler's
            // drained-queue deadlock, at the same first unfinished PE.
            return Err(deadlock(shards.iter_mut().map(|s| &*s.lanes.get_mut())));
        }
        // Episode complete: grow the shared heaps to the new cursor,
        // then release every PE through the window clock.
        debug_assert_eq!(done, 0, "a done PE cannot also arrive");
        sched.barrier_episodes += 1;
        world.grow_heaps();
        world.release_time = arrivals.release_time();
        for shard in &mut shards {
            shard.lanes.get_mut().release();
        }
    }
    Ok(assemble(n, shards.iter_mut().map(|s| s.lanes.get_mut()), events, sched))
}
