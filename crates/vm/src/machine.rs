//! The resumable stack machine executing compiled modules over any
//! [`Substrate`].
//!
//! Historically the VM ran each PE as a recursive `exec` loop directly
//! against the threaded [`lol_shmem::Pe`] handle — blocking operations
//! simply blocked the OS thread. That shape cannot scale past a few
//! thousand PEs, so the execution loop lives here as an *explicit*
//! machine: frames are a heap-allocated stack (no host recursion), the
//! program counter is data, and every potentially-blocking substrate
//! call ([`Substrate::shmalloc`], [`Substrate::barrier`],
//! [`Substrate::lock`]) may return [`Progress::Pending`], in which
//! case [`Machine::resume`] rewinds the instruction and yields
//! [`Step::Blocked`]. The caller re-invokes `resume` when the
//! substrate says the PE can make progress:
//!
//! * the threaded backends (`run_on_pe`) call it in a loop — the
//!   threaded substrate never pends, so the loop runs each PE to
//!   completion exactly as before;
//! * the discrete-event engine (`lol-sim`) parks the machine and
//!   re-resumes it from a binary-heap event queue, which is what makes
//!   million-PE jobs possible on one thread.
//!
//! # Hot-path layout
//!
//! [`Machine::resume`] destructures `self` into disjoint field borrows
//! and holds `&mut Frame` for the whole frame activation, so a slot or
//! register access is one bounds-checked index — not a
//! `frames[fi].slots[s]` double hop — and `pc` lives in a register,
//! written back only at control transfers (call, return, block).
//!
//! A frame has three tables: value slots (`Vec<Value>`, slot 0 is `IT`)
//! for untyped locals, local arrays, and a bank of raw 64-bit registers
//! (`Vec<u64>`) for the values the compiler typed NUMBR (`i64`), NUMBAR
//! (an `f64`'s bits) or TROOF (0 or 1). A register op reads and writes
//! 8-byte words in place: no operand stack, no tag to check, no 16-byte
//! [`Value`] to move. NUMBR, NUMBAR and TROOF local arrays hold the same
//! raw words, and the symmetric heap already stores them. A frame's
//! bank starts as a copy of its chunk's (constants included), so a
//! chunk without typed values allocates none. The stack ops and their
//! superinstructions (see [`Op`]) run everything else.
//!
//! Internal invariant violations (operand-stack underflow, slot or
//! constant indices out of range — only reachable with a malformed
//! [`Module`], i.e. a compiler bug) surface as the stable `RUN0192`
//! error code through the normal [`RResult`] channel instead of a
//! panic, so a bad module produces a structured `O NOES!` diagnostic
//! and a FAILED sweep entry rather than tearing down the job with an
//! opaque unwind. After an `Err` the machine is dead: `resume` must
//! not be called again (the `pc` is mid-instruction).
//!
//! The instruction semantics are a line-for-line port of the old
//! recursive loop; the differential tests in `lib.rs` pin VM output to
//! the interpreter's byte-for-byte.

use crate::ops::{is_raw, ArrId, ArrLoc, Chunk, Cmp, Module, Op};
use crate::profile::VmProfile;
use lol_ast::LolType;
use lol_interp::value::{arith, arith_int, cast, compare, default_for, RResult, RunError, Value};
use lol_shmem::substrate::{Progress, Substrate};
use lol_shmem::SymAddr;
use std::collections::VecDeque;

const MAX_CALL_DEPTH: usize = 200;

/// What a call to [`Machine::resume`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The program ran to completion; collect the output with
    /// [`Machine::take_output`].
    Done,
    /// The PE would block (allocation fence, barrier, or lock). The
    /// substrate has parked it; resume again once it is woken.
    Blocked,
}

/// Internal-invariant violation: only a malformed module (a compiler
/// bug) can reach these, so they carry a dedicated stable code instead
/// of panicking across the substrate.
#[cold]
fn vmbug(what: &str) -> RunError {
    RunError::new("RUN0192", format!("INTERNAL VM BUG: {what} — DIS IZ NOT UR PROGRAMZ FAULT"))
}

/// A local (`I HAS A ... LOTZ`) array: NUMBR, NUMBAR and TROOF arrays
/// hold raw register words, YARN and NOOB arrays hold values.
#[derive(Debug, Clone)]
enum LocalArr {
    Raw { elems: Vec<u64>, ty: LolType },
    Boxed { elems: Vec<Value>, ty: LolType },
}

impl LocalArr {
    fn new(ty: LolType, n: usize) -> Self {
        if is_raw(ty) {
            // Every raw default (0, 0.0, FAIL) is word 0.
            LocalArr::Raw { elems: vec![0; n], ty }
        } else {
            LocalArr::Boxed { elems: vec![default_for(ty); n], ty }
        }
    }

    fn len(&self) -> usize {
        match self {
            LocalArr::Raw { elems, .. } => elems.len(),
            LocalArr::Boxed { elems, .. } => elems.len(),
        }
    }

    /// Element `i` (in range) as a value.
    fn get(&self, i: usize) -> Value {
        match self {
            LocalArr::Raw { elems, ty } => boxed(elems[i], *ty),
            LocalArr::Boxed { elems, .. } => elems[i].clone(),
        }
    }

    /// Store `v` at `i` (in range), cast to the element type unless the
    /// compiler proved it has it (`cast == false`).
    fn set(&mut self, i: usize, v: Value, cast_it: bool) -> RResult<()> {
        match self {
            LocalArr::Raw { elems, ty } => elems[i] = unboxed(&v, *ty)?,
            LocalArr::Boxed { elems, ty } => elems[i] = if cast_it { cast(&v, *ty)? } else { v },
        }
        Ok(())
    }

    fn values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Replace the whole array by `values`, each cast to the element
    /// type.
    fn assign(&mut self, values: &[Value]) -> RResult<()> {
        match self {
            LocalArr::Raw { elems, ty } => {
                *elems = values.iter().map(|v| unboxed(v, *ty)).collect::<RResult<_>>()?
            }
            LocalArr::Boxed { elems, ty } => {
                *elems = values.iter().map(|v| cast(v, *ty)).collect::<RResult<_>>()?
            }
        }
        Ok(())
    }
}

/// A raw register word as a `ty` value.
#[inline]
fn boxed(w: u64, ty: LolType) -> Value {
    match ty {
        LolType::Numbar => Value::Numbar(f64::from_bits(w)),
        LolType::Troof => Value::Troof(w != 0),
        _ => Value::Numbr(w as i64),
    }
}

/// `v` cast to the raw type `ty` exactly as [`cast`] does (same
/// faults), as a register word.
#[inline]
fn unboxed(v: &Value, ty: LolType) -> RResult<u64> {
    Ok(match ty {
        LolType::Numbr => v.to_numbr()? as u64,
        LolType::Numbar => v.to_numbar()?.to_bits(),
        LolType::Troof => v.to_troof() as u64,
        _ => return Err(vmbug("UNBOX TO A TYPE WITH NO REGISTER FORM")),
    })
}

/// Which chunk a frame executes.
#[derive(Debug, Clone, Copy)]
enum ChunkRef {
    Main,
    Func(u16),
}

#[derive(Debug)]
struct Frame {
    chunk: ChunkRef,
    pc: usize,
    /// Scalar slots (slot 0 = IT).
    slots: Vec<Value>,
    /// The raw register bank (see [`Chunk::regs`]).
    regs: Vec<u64>,
    /// Local arrays (separate index space); `None` until `LocalArrNew`.
    arrays: Vec<Option<LocalArr>>,
}

/// How a frame activation ended (other than blocking or erroring).
enum Xfer {
    /// Pop the frame; push the value for the caller (Noob for implicit
    /// returns and `Halt`). If it was the last frame, the program is
    /// done.
    Unwind(Value),
    /// Push the callee frame and enter it.
    Call(Frame),
}

/// One PE's complete execution state, decoupled from any thread.
///
/// Memory footprint is deliberately lean — a fresh machine is a few
/// empty `Vec`s plus the main frame's slots — because the simulator
/// keeps one `Machine` per PE and a million of them must fit in RAM.
pub struct Machine<'a> {
    module: &'a Module,
    base: SymAddr,
    /// Set once the startup allocation (if any) has completed.
    started: bool,
    frames: Vec<Frame>,
    stack: Vec<Value>,
    bff: Vec<usize>,
    out: String,
    input: VecDeque<String>,
    /// Opt-in per-op execution counters; `None` (the default) keeps
    /// the dispatch loop's profiling cost to one predictable branch.
    prof: Option<Box<VmProfile>>,
}

impl<'a> Machine<'a> {
    /// A machine ready to run `module` from the beginning.
    pub fn new(module: &'a Module, input: &[String]) -> Self {
        Machine {
            module,
            base: SymAddr(0),
            started: false,
            frames: Vec::new(),
            // Deliberately empty: a mega-scale simulation holds one
            // Machine per PE, so a fresh machine must cost no heap at
            // all — the stack grows on first use instead of reserving
            // 16 slots (384 bytes) per idle PE.
            stack: Vec::new(),
            bff: Vec::new(),
            out: String::new(),
            input: input.iter().cloned().collect(),
            prof: None,
        }
    }

    /// The captured `VISIBLE` output (call after [`Step::Done`]).
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.out)
    }

    /// Turn on bytecode profiling: every subsequently dispatched op is
    /// counted into a [`VmProfile`] (collect it with
    /// [`Machine::take_profile`]). Call before the first
    /// [`Machine::resume`] for a whole-run profile.
    pub fn enable_profile(&mut self) {
        if self.prof.is_none() {
            self.prof = Some(Box::new(VmProfile::for_module(self.module)));
        }
    }

    /// Detach the collected profile (`None` if profiling was never
    /// enabled). Profiling stops until re-enabled.
    pub fn take_profile(&mut self) -> Option<VmProfile> {
        self.prof.take().map(|b| *b)
    }

    /// Run until the program completes or the PE would block.
    ///
    /// On [`Step::Blocked`] the machine has already rewound to re-issue
    /// the same substrate call; calling `resume` again retries it.
    /// Stats and latency accounting stay exact because substrates
    /// charge them on the first attempt only. On `Err` the machine is
    /// dead and must not be resumed.
    pub fn resume<S: Substrate + ?Sized>(&mut self, sub: &S) -> RResult<Step> {
        let module = self.module;
        if !self.started {
            if module.shared_words > 0 {
                match sub.shmalloc(module.shared_words) {
                    Progress::Ready(a) => self.base = a,
                    Progress::Pending => return Ok(Step::Blocked),
                }
            }
            self.started = true;
            self.frames.push(new_frame(ChunkRef::Main, &module.main));
        }
        let base = self.base;
        // Split `self` into disjoint borrows so the dispatch loop can
        // hold `&mut Frame` (from `frames`) alongside the operand
        // stack and output buffer without going through `self`.
        let Machine { frames, stack, bff, out, input, prof, .. } = self;
        let mut prof = prof.as_deref_mut();
        if let Some(p) = prof.as_deref_mut() {
            // A sample left open when the last `resume` returned would
            // charge the caller's time to an opcode.
            p.pause();
        }
        // Outer loop: one iteration per frame activation. The inner
        // loop keeps `pc` and `chunk` in locals — `chunk` borrows from
        // `module` (not `self`) — and breaks with the control transfer
        // once the activation ends.
        loop {
            let depth = frames.len();
            let Some(frame) = frames.last_mut() else { return Ok(Step::Done) };
            let chunk = chunk_of(module, frame.chunk);
            // Heat-plane index for this activation (0 = main,
            // i + 1 = funcs[i]) — hoisted so the profiled inner loop
            // pays two array increments per op and nothing more.
            let ci = match frame.chunk {
                ChunkRef::Main => 0,
                ChunkRef::Func(i) => i as usize + 1,
            };
            let mut pc = frame.pc;
            let xfer = loop {
                let Some(op) = chunk.code.get(pc) else {
                    // Fell off the end of the chunk: implicit return.
                    break Xfer::Unwind(Value::Noob);
                };
                pc += 1;
                // One predictable branch when profiling is off; the
                // counters live outside the match so every opcode —
                // including superinstructions — is counted exactly once.
                if let Some(p) = prof.as_deref_mut() {
                    p.hit(ci, pc - 1, op.profile_index());
                }
                match op {
                    Op::Const(k) => {
                        let v = konst(module, *k)?.clone();
                        stack.push(v);
                    }
                    Op::LoadLocal(s) => {
                        let v = slot(frame, *s)?.clone();
                        stack.push(v);
                    }
                    Op::StoreLocal(s) => {
                        let v = pop(stack)?;
                        *slot_mut(frame, *s)? = v;
                    }
                    Op::Cast(ty) => {
                        let v = pop(stack)?;
                        stack.push(cast(&v, *ty)?);
                    }
                    Op::Pop => {
                        pop(stack)?;
                    }
                    Op::SharedLoad { off, ty, remote } => {
                        let t = target(bff, sub, *remote)?;
                        let v = shared_read(base, sub, *off, 0, *ty, t);
                        stack.push(v);
                    }
                    Op::SharedStore { off, ty, remote } => {
                        let t = target(bff, sub, *remote)?;
                        let v = pop(stack)?;
                        shared_write(base, sub, *off, 0, *ty, t, &v)?;
                    }
                    Op::SharedLoadIdx { off, len, ty, remote } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(
                            index(&pop(stack)?)?,
                            *len as usize,
                            chunk,
                            ArrId::Shared(*off),
                        )?;
                        let v = shared_read(base, sub, *off, i, *ty, t);
                        stack.push(v);
                    }
                    Op::SharedStoreIdx { off, len, ty, remote } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(
                            index(&pop(stack)?)?,
                            *len as usize,
                            chunk,
                            ArrId::Shared(*off),
                        )?;
                        let v = pop(stack)?;
                        shared_write(base, sub, *off, i, *ty, t, &v)?;
                    }
                    Op::LocalArrNew { arr, ty } => {
                        let n = pop(stack)?.to_numbr()?;
                        if n <= 0 {
                            return Err(RunError::new(
                                "RUN0014",
                                format!("ARRAY SIZE MUST BE POSITIVE, NOT {n}"),
                            ));
                        }
                        *frame
                            .arrays
                            .get_mut(*arr as usize)
                            .ok_or_else(|| vmbug("ARRAY SLOT OUT OF RANGE"))? =
                            Some(LocalArr::new(*ty, n as usize));
                    }
                    Op::LocalArrLoad { arr: a } => {
                        let i = index(&pop(stack)?)?;
                        let la = arr(frame, *a)?;
                        let v = la.get(bounds(i, la.len(), chunk, ArrId::Local(*a))?);
                        stack.push(v);
                    }
                    Op::LocalArrStore { arr: a, cast: c } => {
                        let i = index(&pop(stack)?)?;
                        let v = pop(stack)?;
                        let la = arr_mut(frame, *a)?;
                        la.set(bounds(i, la.len(), chunk, ArrId::Local(*a))?, v, *c)?;
                    }
                    Op::ArrayCopy { dst, src } => {
                        array_copy(frame, sub, base, bff, chunk, dst, src)?
                    }
                    Op::Bin(op) => {
                        let b = pop(stack)?;
                        let a = pop(stack)?;
                        let r = binop(*op, &a, &b)?;
                        stack.push(r);
                    }
                    Op::Un(op) => {
                        let v = pop(stack)?;
                        let r = unop(*op, &v)?;
                        stack.push(r);
                    }
                    Op::BinLL { op, a, b } => {
                        let r = binop(*op, slot(frame, *a)?, slot(frame, *b)?)?;
                        stack.push(r);
                    }
                    Op::BinLC { op, a, k } => {
                        let r = binop(*op, slot(frame, *a)?, konst(module, *k)?)?;
                        stack.push(r);
                    }
                    Op::BinSL { op, b } => {
                        let va = pop(stack)?;
                        let r = binop(*op, &va, slot(frame, *b)?)?;
                        stack.push(r);
                    }
                    Op::BinSC { op, k } => {
                        let va = pop(stack)?;
                        let r = binop(*op, &va, konst(module, *k)?)?;
                        stack.push(r);
                    }
                    Op::BinLLS { op, a, b, dst } => {
                        let r = binop(*op, slot(frame, *a)?, slot(frame, *b)?)?;
                        *slot_mut(frame, *dst)? = r;
                    }
                    Op::BinLCS { op, a, k, dst } => {
                        let r = binop(*op, slot(frame, *a)?, konst(module, *k)?)?;
                        *slot_mut(frame, *dst)? = r;
                    }
                    Op::JumpIfLocalEqConst { slot: s, k, target } => {
                        if slot(frame, *s)?.saem(konst(module, *k)?) {
                            pc = *target as usize;
                        }
                    }
                    Op::JumpIfLocalEqLocal { a, b, target } => {
                        if slot(frame, *a)?.saem(slot(frame, *b)?) {
                            pc = *target as usize;
                        }
                    }
                    Op::JumpIfLocalFalse { slot: s, target } => {
                        if !slot(frame, *s)?.to_troof() {
                            pc = *target as usize;
                        }
                    }
                    Op::LocalArrLoadL { arr: a, idx } => {
                        let i = index(slot(frame, *idx)?)?;
                        let la = arr(frame, *a)?;
                        let v = la.get(bounds(i, la.len(), chunk, ArrId::Local(*a))?);
                        stack.push(v);
                    }
                    Op::LocalArrStoreL { arr: a, idx, cast: c } => {
                        let i = index(slot(frame, *idx)?)?;
                        let v = pop(stack)?;
                        let la = arr_mut(frame, *a)?;
                        la.set(bounds(i, la.len(), chunk, ArrId::Local(*a))?, v, *c)?;
                    }
                    Op::SharedLoadIdxL { off, len, ty, remote, idx } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(
                            index(slot(frame, *idx)?)?,
                            *len as usize,
                            chunk,
                            ArrId::Shared(*off),
                        )?;
                        let v = shared_read(base, sub, *off, i, *ty, t);
                        stack.push(v);
                    }
                    Op::SharedStoreIdxL { off, len, ty, remote, idx } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(
                            index(slot(frame, *idx)?)?,
                            *len as usize,
                            chunk,
                            ArrId::Shared(*off),
                        )?;
                        let v = pop(stack)?;
                        shared_write(base, sub, *off, i, *ty, t, &v)?;
                    }
                    Op::Smoosh(n) => {
                        let at = stack_base(stack, *n)?;
                        let mut s = String::new();
                        for v in &stack[at..] {
                            v.push_yarn(&mut s)?;
                        }
                        stack.truncate(at);
                        stack.push(Value::yarn(s));
                    }
                    Op::SmooshInto { slot: s, n } => {
                        let at = stack_base(stack, *n)?;
                        let buf = slot_mut(frame, *s)?.yarn_mut()?;
                        for v in &stack[at..] {
                            v.push_yarn(buf)?;
                        }
                        stack.truncate(at);
                    }
                    Op::AllOf(n) => {
                        let at = stack_base(stack, *n)?;
                        let r = stack[at..].iter().all(|v| v.to_troof());
                        stack.truncate(at);
                        stack.push(Value::Troof(r));
                    }
                    Op::AnyOf(n) => {
                        let at = stack_base(stack, *n)?;
                        let r = stack[at..].iter().any(|v| v.to_troof());
                        stack.truncate(at);
                        stack.push(Value::Troof(r));
                    }
                    Op::Jump(t) => pc = *t as usize,
                    Op::JumpIfFalse(t) => {
                        let v = pop(stack)?;
                        if !v.to_troof() {
                            pc = *t as usize;
                        }
                    }
                    Op::Call { func, argc } => {
                        // depth - 1 = number of active calls.
                        if depth > MAX_CALL_DEPTH {
                            return Err(RunError::new(
                                "RUN0130",
                                format!("2 MUCH RECURSHUN (DEPTH {MAX_CALL_DEPTH})"),
                            ));
                        }
                        let (_, chunk, arity) = module
                            .funcs
                            .get(*func as usize)
                            .ok_or_else(|| vmbug("FUNKSHUN INDEX OUT OF RANGE"))?;
                        debug_assert_eq!(*arity, *argc, "arity checked by sema");
                        let mut callee = new_frame(ChunkRef::Func(*func), chunk);
                        // Args were pushed left-to-right: pop into reverse.
                        for i in (0..*argc).rev() {
                            let v = pop(stack)?;
                            *callee
                                .slots
                                .get_mut(1 + i as usize)
                                .ok_or_else(|| vmbug("ARG SLOT OUT OF RANGE"))? = v;
                        }
                        frame.pc = pc;
                        break Xfer::Call(callee);
                    }
                    Op::Ret => {
                        let v = pop(stack)?;
                        break Xfer::Unwind(v);
                    }
                    Op::Visible { argc, newline } => {
                        let at = stack_base(stack, *argc)?;
                        for v in &stack[at..] {
                            v.push_yarn(out)?;
                        }
                        stack.truncate(at);
                        if *newline {
                            out.push('\n');
                        }
                    }
                    Op::ReadLine => {
                        let line = input.pop_front().ok_or_else(|| {
                            RunError::new("RUN0140", "GIMMEH BUT THERES NO MOAR INPUT")
                        })?;
                        stack.push(Value::yarn(line));
                    }
                    Op::Barrier => {
                        if let Progress::Pending = sub.barrier() {
                            frame.pc = pc - 1;
                            return Ok(Step::Blocked);
                        }
                    }
                    Op::LockAcquire { off, remote } => {
                        let t = target(bff, sub, *remote)?;
                        if let Progress::Pending = sub.lock(base.offset(*off as usize), t) {
                            frame.pc = pc - 1;
                            return Ok(Step::Blocked);
                        }
                    }
                    Op::LockTry { off, remote } => {
                        let t = target(bff, sub, *remote)?;
                        let got = sub.try_lock(base.offset(*off as usize), t);
                        stack.push(Value::Troof(got));
                    }
                    Op::LockRelease { off, remote } => {
                        let t = target(bff, sub, *remote)?;
                        sub.unlock(base.offset(*off as usize), t);
                    }
                    Op::PushBff => {
                        let k = pop(stack)?.to_numbr()?;
                        if k < 0 || k as usize >= sub.n_pes() {
                            return Err(RunError::new(
                                "RUN0017",
                                format!(
                                    "PE {k} IZ NOT MAH FREN (THERE R ONLY {} OF US)",
                                    sub.n_pes()
                                ),
                            ));
                        }
                        bff.push(k as usize);
                    }
                    Op::PopBff => {
                        bff.pop();
                    }
                    Op::Me => stack.push(Value::Numbr(sub.id() as i64)),
                    Op::MahFrenz => stack.push(Value::Numbr(sub.n_pes() as i64)),
                    Op::RandI => stack.push(Value::Numbr(sub.rand_i64())),
                    Op::RandF => stack.push(Value::Numbar(sub.rand_f64())),
                    Op::Mov { d, s } => {
                        let w = reg(frame, *s)?;
                        set_reg(frame, *d, w)?;
                    }
                    Op::Box { s, ty } => stack.push(boxed(reg(frame, *s)?, *ty)),
                    Op::Unbox { d, ty } => {
                        let w = unboxed(&pop(stack)?, *ty)?;
                        set_reg(frame, *d, w)?;
                    }
                    Op::AddI { d, a, b } => {
                        let w = int(frame, *a)?.wrapping_add(int(frame, *b)?);
                        set_reg(frame, *d, w as u64)?;
                    }
                    Op::SubI { d, a, b } => {
                        let w = int(frame, *a)?.wrapping_sub(int(frame, *b)?);
                        set_reg(frame, *d, w as u64)?;
                    }
                    Op::MulI { d, a, b } => {
                        let w = int(frame, *a)?.wrapping_mul(int(frame, *b)?);
                        set_reg(frame, *d, w as u64)?;
                    }
                    Op::ArithI { op, d, a, b } => {
                        let w = arith_int(*op, int(frame, *a)?, int(frame, *b)?)?;
                        set_reg(frame, *d, w as u64)?;
                    }
                    Op::AddD { d, a, b } => {
                        let f = flt(frame, *a)? + flt(frame, *b)?;
                        set_reg(frame, *d, f.to_bits())?;
                    }
                    Op::SubD { d, a, b } => {
                        let f = flt(frame, *a)? - flt(frame, *b)?;
                        set_reg(frame, *d, f.to_bits())?;
                    }
                    Op::MulD { d, a, b } => {
                        let f = flt(frame, *a)? * flt(frame, *b)?;
                        set_reg(frame, *d, f.to_bits())?;
                    }
                    Op::DivD { d, a, b } => {
                        let f = flt(frame, *a)? / flt(frame, *b)?;
                        set_reg(frame, *d, f.to_bits())?;
                    }
                    Op::ArithD { op, d, a, b } => {
                        let (x, y) =
                            (Value::Numbar(flt(frame, *a)?), Value::Numbar(flt(frame, *b)?));
                        let w = unboxed(&arith(*op, &x, &y)?, LolType::Numbar)?;
                        set_reg(frame, *d, w)?;
                    }
                    Op::SqrtD { d, s } => {
                        let f = flt(frame, *s)?.sqrt();
                        set_reg(frame, *d, f.to_bits())?;
                    }
                    Op::RecipD { d, s } => {
                        let f = 1.0 / flt(frame, *s)?;
                        set_reg(frame, *d, f.to_bits())?;
                    }
                    Op::I2D { d, s } => {
                        let f = int(frame, *s)? as f64;
                        set_reg(frame, *d, f.to_bits())?;
                    }
                    Op::CmpI { cmp, d, a, b } => {
                        let r = cmp_i(*cmp, int(frame, *a)?, int(frame, *b)?);
                        set_reg(frame, *d, r as u64)?;
                    }
                    Op::CmpD { cmp, d, a, b } => {
                        let r = cmp_d(*cmp, flt(frame, *a)?, flt(frame, *b)?);
                        set_reg(frame, *d, r as u64)?;
                    }
                    Op::JumpCmpI { cmp, when, set_it, a, b, target } => {
                        let r = cmp_i(*cmp, int(frame, *a)?, int(frame, *b)?);
                        if *set_it {
                            *slot_mut(frame, 0)? = Value::Troof(r);
                        }
                        if r == *when {
                            pc = *target as usize;
                        }
                    }
                    Op::JumpCmpD { cmp, when, set_it, a, b, target } => {
                        let r = cmp_d(*cmp, flt(frame, *a)?, flt(frame, *b)?);
                        if *set_it {
                            *slot_mut(frame, 0)? = Value::Troof(r);
                        }
                        if r == *when {
                            pc = *target as usize;
                        }
                    }
                    Op::ArrLoadR { d, arr: a, idx } => {
                        let i = int(frame, *idx)?;
                        let elems = raw_arr(frame, *a)?;
                        let w = elems[bounds(i, elems.len(), chunk, ArrId::Local(*a))?];
                        set_reg(frame, *d, w)?;
                    }
                    Op::ArrStoreR { s, arr: a, idx } => {
                        let (i, w) = (int(frame, *idx)?, reg(frame, *s)?);
                        let elems = raw_arr_mut(frame, *a)?;
                        let i = bounds(i, elems.len(), chunk, ArrId::Local(*a))?;
                        elems[i] = w;
                    }
                    Op::SharedLoadIdxR { d, off, len, ty, remote, idx } => {
                        let t = target(bff, sub, *remote)?;
                        let i =
                            bounds(int(frame, *idx)?, *len as usize, chunk, ArrId::Shared(*off))?;
                        let w = sub.get_u64(base.offset(*off as usize + i), t);
                        // A TROOF cell reads as WIN when nonzero.
                        let w = if *ty == LolType::Troof { (w != 0) as u64 } else { w };
                        set_reg(frame, *d, w)?;
                    }
                    Op::SharedStoreIdxR { s, off, len, remote, idx, .. } => {
                        let t = target(bff, sub, *remote)?;
                        let i =
                            bounds(int(frame, *idx)?, *len as usize, chunk, ArrId::Shared(*off))?;
                        sub.put_u64(base.offset(*off as usize + i), t, reg(frame, *s)?);
                    }
                    Op::Halt => {
                        // Halt inside a function behaves like falling off
                        // the end: the call produced no value.
                        break Xfer::Unwind(Value::Noob);
                    }
                }
            };
            match xfer {
                Xfer::Unwind(v) => {
                    frames.pop();
                    if frames.is_empty() {
                        return Ok(Step::Done);
                    }
                    stack.push(v);
                }
                Xfer::Call(callee) => frames.push(callee),
            }
        }
    }
}

fn chunk_of(module: &Module, c: ChunkRef) -> &Chunk {
    match c {
        ChunkRef::Main => &module.main,
        ChunkRef::Func(i) => &module.funcs[i as usize].1,
    }
}

#[inline]
fn pop(stack: &mut Vec<Value>) -> RResult<Value> {
    stack.pop().ok_or_else(|| vmbug("OPERAND STACK UNDERFLOW"))
}

/// Start index of the top `n` stack values (for n-ary ops).
#[inline]
fn stack_base(stack: &[Value], n: u8) -> RResult<usize> {
    stack.len().checked_sub(n as usize).ok_or_else(|| vmbug("OPERAND STACK UNDERFLOW"))
}

#[inline]
fn slot(frame: &Frame, s: u16) -> RResult<&Value> {
    frame.slots.get(s as usize).ok_or_else(|| vmbug("SCALAR SLOT OUT OF RANGE"))
}

#[inline]
fn slot_mut(frame: &mut Frame, s: u16) -> RResult<&mut Value> {
    frame.slots.get_mut(s as usize).ok_or_else(|| vmbug("SCALAR SLOT OUT OF RANGE"))
}

#[inline(always)]
fn reg(frame: &Frame, r: u16) -> RResult<u64> {
    frame.regs.get(r as usize).copied().ok_or_else(|| vmbug("REGISTER OUT OF RANGE"))
}

/// A NUMBR (or TROOF) register.
#[inline(always)]
fn int(frame: &Frame, r: u16) -> RResult<i64> {
    reg(frame, r).map(|w| w as i64)
}

/// A NUMBAR register.
#[inline(always)]
fn flt(frame: &Frame, r: u16) -> RResult<f64> {
    reg(frame, r).map(f64::from_bits)
}

#[inline(always)]
fn set_reg(frame: &mut Frame, r: u16, w: u64) -> RResult<()> {
    *frame.regs.get_mut(r as usize).ok_or_else(|| vmbug("REGISTER OUT OF RANGE"))? = w;
    Ok(())
}

/// A comparison of NUMBR (or TROOF) registers: equality is exact,
/// `BIGGER`/`SMALLR` compare in the float domain like [`compare`].
#[inline(always)]
fn cmp_i(cmp: Cmp, a: i64, b: i64) -> bool {
    match cmp {
        Cmp::Eq => a == b,
        Cmp::Ne => a != b,
        Cmp::Gt => a as f64 > b as f64,
        Cmp::Lt => (a as f64) < b as f64,
    }
}

#[inline(always)]
fn cmp_d(cmp: Cmp, a: f64, b: f64) -> bool {
    match cmp {
        Cmp::Eq => a == b,
        Cmp::Ne => a != b,
        Cmp::Gt => a > b,
        Cmp::Lt => a < b,
    }
}

#[inline]
fn konst(module: &Module, k: u16) -> RResult<&Value> {
    module.consts.get(k as usize).ok_or_else(|| vmbug("CONSTANT INDEX OUT OF RANGE"))
}

fn arr(frame: &Frame, a: u16) -> RResult<&LocalArr> {
    frame
        .arrays
        .get(a as usize)
        .ok_or_else(|| vmbug("ARRAY SLOT OUT OF RANGE"))?
        .as_ref()
        .ok_or_else(|| RunError::new("RUN0122", "NOT LOTZ A THINGZ"))
}

fn arr_mut(frame: &mut Frame, a: u16) -> RResult<&mut LocalArr> {
    frame
        .arrays
        .get_mut(a as usize)
        .ok_or_else(|| vmbug("ARRAY SLOT OUT OF RANGE"))?
        .as_mut()
        .ok_or_else(|| RunError::new("RUN0122", "NOT LOTZ A THINGZ"))
}

/// A local array the compiler typed NUMBR, NUMBAR or TROOF.
fn raw_arr(frame: &Frame, a: u16) -> RResult<&Vec<u64>> {
    match arr(frame, a)? {
        LocalArr::Raw { elems, .. } => Ok(elems),
        LocalArr::Boxed { .. } => Err(vmbug("REGISTER ACCESS TO A YARN OR NOOB ARRAY")),
    }
}

fn raw_arr_mut(frame: &mut Frame, a: u16) -> RResult<&mut Vec<u64>> {
    match arr_mut(frame, a)? {
        LocalArr::Raw { elems, .. } => Ok(elems),
        LocalArr::Boxed { .. } => Err(vmbug("REGISTER ACCESS TO A YARN OR NOOB ARRAY")),
    }
}

fn target<S: Substrate + ?Sized>(bff: &[usize], sub: &S, remote: bool) -> RResult<usize> {
    if remote {
        bff.last().copied().ok_or_else(|| {
            RunError::new("RUN0120", "UR OUTSIDE TXT MAH BFF — WHOS ADDRESS SPACE IZ DIS?")
        })
    } else {
        Ok(sub.id())
    }
}

fn shared_read<S: Substrate + ?Sized>(
    base: SymAddr,
    sub: &S,
    off: u32,
    index: usize,
    ty: LolType,
    target: usize,
) -> Value {
    let addr = base.offset(off as usize + index);
    match ty {
        LolType::Numbar => Value::Numbar(sub.get_f64(addr, target)),
        LolType::Troof => Value::Troof(sub.get_u64(addr, target) != 0),
        _ => Value::Numbr(sub.get_i64(addr, target)),
    }
}

fn shared_write<S: Substrate + ?Sized>(
    base: SymAddr,
    sub: &S,
    off: u32,
    index: usize,
    ty: LolType,
    target: usize,
    v: &Value,
) -> RResult<()> {
    let addr = base.offset(off as usize + index);
    match ty {
        LolType::Numbar => sub.put_f64(addr, target, v.to_numbar()?),
        LolType::Troof => sub.put_u64(addr, target, v.to_troof() as u64),
        _ => sub.put_i64(addr, target, v.to_numbr()?),
    }
    Ok(())
}

/// An array index: a NUMBR (every index the compiler types as one) is
/// read in place; anything else coerces like `MAEK .. A NUMBR`.
#[inline(always)]
fn index(v: &Value) -> RResult<i64> {
    match v {
        Value::Numbr(i) => Ok(*i),
        _ => v.to_numbr(),
    }
}

/// The bounds check of every indexed access; only the fault reads
/// the array's name out of `chunk`.
#[inline(always)]
fn bounds(idx: i64, len: usize, chunk: &Chunk, arr: ArrId) -> RResult<usize> {
    if idx < 0 || idx as u64 >= len as u64 {
        Err(out_of_bounds(idx, len, chunk, arr))
    } else {
        Ok(idx as usize)
    }
}

#[cold]
fn out_of_bounds(idx: i64, len: usize, chunk: &Chunk, arr: ArrId) -> RunError {
    let name = chunk.arr_name(arr);
    RunError::new("RUN0123", format!("INDEX {idx} IZ OUTSIDE {name} (IT HAS {len} THINGZ)"))
}

fn array_copy<S: Substrate + ?Sized>(
    frame: &mut Frame,
    sub: &S,
    base: SymAddr,
    bff: &[usize],
    chunk: &Chunk,
    dst: &ArrLoc,
    src: &ArrLoc,
) -> RResult<()> {
    let values: Vec<Value> = match src {
        ArrLoc::Local { arr: a } => arr(frame, *a)?.values(),
        ArrLoc::Shared { off, len, ty, remote } => {
            let t = target(bff, sub, *remote)?;
            (0..*len as usize).map(|i| shared_read(base, sub, *off, i, *ty, t)).collect()
        }
    };
    match dst {
        ArrLoc::Local { arr: a } => arr_mut(frame, *a)?.assign(&values),
        ArrLoc::Shared { off, len, ty, remote } => {
            if values.len() != *len as usize {
                let name = chunk.arr_name(ArrId::Shared(*off));
                return Err(RunError::new(
                    "RUN0013",
                    format!(
                        "ARRAY COPY SIZE MISMATCH: {name} HAS {len} THINGZ, SOURCE HAS {}",
                        values.len()
                    ),
                ));
            }
            let t = target(bff, sub, *remote)?;
            for (i, v) in values.iter().enumerate() {
                shared_write(base, sub, *off, i, *ty, t, v)?;
            }
            Ok(())
        }
    }
}

#[inline]
fn binop(op: lol_ast::BinOp, a: &Value, b: &Value) -> RResult<Value> {
    use lol_ast::BinOp::*;
    match op {
        Sum | Diff | Produkt | Quoshunt | Mod | BiggrOf | SmallrOf => arith(op, a, b),
        Bigger | Smallr => compare(op, a, b),
        BothSaem => Ok(Value::Troof(a.saem(b))),
        Diffrint => Ok(Value::Troof(!a.saem(b))),
        BothOf => Ok(Value::Troof(a.to_troof() && b.to_troof())),
        EitherOf => Ok(Value::Troof(a.to_troof() || b.to_troof())),
        WonOf => Ok(Value::Troof(a.to_troof() ^ b.to_troof())),
    }
}

#[inline]
fn unop(op: lol_ast::UnOp, v: &Value) -> RResult<Value> {
    use lol_ast::UnOp::*;
    match op {
        Not => Ok(Value::Troof(!v.to_troof())),
        Squar => arith(lol_ast::BinOp::Produkt, v, v),
        Unsquar => Ok(Value::Numbar(v.to_numbar()?.sqrt())),
        Flip => Ok(Value::Numbar(1.0 / v.to_numbar()?)),
    }
}

fn new_frame(cref: ChunkRef, chunk: &Chunk) -> Frame {
    Frame {
        chunk: cref,
        pc: 0,
        slots: vec![Value::Noob; chunk.n_slots as usize],
        regs: chunk.regs.clone(),
        arrays: vec![None; chunk.n_arrays as usize],
    }
}
