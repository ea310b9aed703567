//! AST → bytecode compiler.
//!
//! Resolution that the tree-walker repeats on every execution happens
//! exactly once here: variable names become frame slots, shared names
//! become heap offsets, pinned (`ITZ SRSLY A`) types become explicit
//! `Cast` instructions, and control flow becomes jumps. The dynamic
//! constructs that cannot be resolved statically (`SRS`) are rejected
//! with a compile error — the documented compiled-subset restriction
//! (docs/LANGUAGE.md).
//!
//! # Typed lowering
//!
//! [`FnCompiler::ty`] gives each expression's static type ([`Ty`]),
//! and the compiler emits no coercion the types prove redundant. The
//! type facts are literals, pinned locals (sema's SEM0024 forbids
//! retyping them), unpinned locals sema's inference found one type for
//! ([`Analysis::local_ty`]: every store to them has it), local-array
//! elements (every store casts to the element type), symmetric scalars
//! and arrays (typed as `shared_read` materializes them), `MAEK`,
//! arithmetic promotion, the TROOF/YARN/NUMBAR results of the logic,
//! `SMOOSH` and root/reciprocal operators, `ME`/`MAH FRENZ`/`WHATEVR`/
//! `WHATEVAR`, and counted-loop counters whose every store is a NUMBR.
//! Calls, parameters, `IT` and the other unpinned locals are unknown.
//! The expression walk ([`lol_sema::types::expr_ty`]) and the operator,
//! symmetric-read and counter rules live in [`lol_sema::types`], shared
//! with sema's inference and the C emitter's typed lowering.
//!
//! Values proven NUMBR, NUMBAR or TROOF live in raw registers of the
//! frame's bank, not in value slots: pinned and inferred locals of those
//! types, counters whose loop guard compares on registers too, constants (a
//! register per distinct literal word, filled in before the frame
//! runs) and the temporaries of typed subexpressions. [`FnCompiler::rexpr`] emits a typed expression as
//! three-address ops over them (`AddI d a b`, `MulD`, `SqrtD`, `I2D`,
//! typed comparisons, and loads and stores of raw local arrays and
//! the symmetric heap), writing only its last op to the destination
//! register, so `x R SUM OF x AN y` is one `AddD`. Conditions on a typed
//! comparison become one compare-and-branch (`JumpCmpI`/`JumpCmpD`),
//! which for an `O RLY?` also stores `IT`.
//!
//! Everything else keeps the stack path: unknown types, YARN and NOOB
//! values, the logic operators, and leaves the stack loads as cheaply
//! (`ME`, symmetric scalars). `Box` and `Unbox` cross between the two
//! paths only at that boundary. A store into a register from a value of
//! another type converts by `I2D` when that cannot fault, and otherwise
//! casts on the stack first, and an array store whose cast could fault
//! stays a stack op, so every fault keeps its order. On `nbody_bench`
//! an interaction takes 21 dispatches instead of 32 (see docs/PERF.md).

use crate::ops::{is_raw, ArrId, ArrLoc, Chunk, Cmp, Module, Op};
use lol_ast::diag::Diagnostic;
use lol_ast::*;
use lol_interp::Value;
use lol_sema::types::{expr_ty, shared_ty, shared_var_ty, Ty, VarTy};
use lol_sema::{Analysis, SharedKind, SharedVar};
use std::collections::HashMap;

type CResult<T> = Result<T, Diagnostic>;

/// Compile an analyzed program to bytecode.
pub fn compile(program: &Program, analysis: &Analysis) -> CResult<Module> {
    let mut module = Module::default();
    let mut func_ids: HashMap<Symbol, u16> = HashMap::new();
    for (i, f) in program.funcs.iter().enumerate() {
        func_ids.insert(f.name.sym, i as u16);
    }

    // Main chunk.
    {
        let mut c = FnCompiler::new(analysis, &func_ids, &mut module.consts, false);
        c.enter_scope();
        c.stmts(&program.body)?;
        c.leave_scope();
        c.code.push(Op::Halt);
        module.main = c.finish();
    }

    // Function chunks.
    for f in &program.funcs {
        let mut c = FnCompiler::new(analysis, &func_ids, &mut module.consts, true);
        c.enter_scope();
        for p in &f.params {
            let slot = c.alloc_slot(p.sym, SlotKind::UNTYPED);
            debug_assert!(slot >= 1);
        }
        c.stmts(&f.body)?;
        c.leave_scope();
        // Fall-through returns IT.
        c.code.push(Op::LoadLocal(0));
        c.code.push(Op::Ret);
        module.funcs.push((f.name.sym.as_str().to_string(), c.finish(), f.params.len() as u8));
    }

    module.shared_words = analysis.shared.total_words;
    Ok(module)
}

#[derive(Clone)]
enum SlotKind {
    /// A value slot. `ty` is the type every value in the slot has,
    /// when known; `pinned` slots (`ITZ SRSLY A`) coerce every store
    /// to it.
    Scalar { ty: Ty, pinned: bool },
    /// A raw register holding a NUMBR, NUMBAR or TROOF: a pinned or
    /// inferred local of that type, or a counter its loop body never
    /// stores to.
    Reg { ty: LolType },
    /// A local array; its elements are always of type `elem`.
    Array { elem: LolType },
}

impl SlotKind {
    const UNTYPED: SlotKind = SlotKind::Scalar { ty: None, pinned: false };
}

#[derive(Clone)]
struct LocalSlot {
    /// The slot, register or array index, by `kind`.
    slot: u16,
    kind: SlotKind,
}

/// The register domain a typed operator computes in.
#[derive(Clone, Copy, PartialEq)]
enum Dom {
    /// NUMBR (TROOF operands are 0/1 NUMBRs here).
    I,
    /// NUMBAR.
    D,
}

/// Where `a op b` runs on registers, if it can: arithmetic on numbers,
/// and comparisons whose stack semantics the register ops reproduce
/// (`BIGGER`/`SMALLR` compare every number and TROOF as a NUMBAR;
/// `SAEM` of a TROOF and a number is not one of them).
fn bin_dom(op: BinOp, a: Ty, b: Ty) -> Option<Dom> {
    use LolType::{Numbar, Numbr, Troof};
    let (a, b) = (a?, b?);
    match op {
        BinOp::Sum
        | BinOp::Diff
        | BinOp::Produkt
        | BinOp::Quoshunt
        | BinOp::Mod
        | BinOp::BiggrOf
        | BinOp::SmallrOf => match (a, b) {
            (Numbr, Numbr) => Some(Dom::I),
            (Numbr | Numbar, Numbr | Numbar) => Some(Dom::D),
            _ => None,
        },
        BinOp::BothSaem | BinOp::Diffrint => match (a, b) {
            (Numbr, Numbr) | (Troof, Troof) => Some(Dom::I),
            (Numbr | Numbar, Numbr | Numbar) => Some(Dom::D),
            _ => None,
        },
        BinOp::Bigger | BinOp::Smallr => match (a, b) {
            (Numbr | Troof, Numbr | Troof) => Some(Dom::I),
            (Numbr | Numbar | Troof, Numbr | Numbar | Troof) => Some(Dom::D),
            _ => None,
        },
        BinOp::BothOf | BinOp::EitherOf | BinOp::WonOf => None,
    }
}

/// The register comparison for a comparison operator.
fn cmp_of(op: BinOp) -> Option<Cmp> {
    match op {
        BinOp::BothSaem => Some(Cmp::Eq),
        BinOp::Diffrint => Some(Cmp::Ne),
        BinOp::Bigger => Some(Cmp::Gt),
        BinOp::Smallr => Some(Cmp::Lt),
        _ => None,
    }
}

/// Does a `from` value convert to `to` without a fault, as a register
/// op? Same type, TROOF to NUMBR (the same 0/1 word) and NUMBR or TROOF
/// to NUMBAR (`I2D`).
fn converts(from: Ty, to: LolType) -> bool {
    use LolType::{Numbar, Numbr, Troof};
    from == Some(to) || matches!((from, to), (Some(Troof), Numbr) | (Some(Numbr | Troof), Numbar))
}

struct FnCompiler<'a> {
    analysis: &'a Analysis,
    func_ids: &'a HashMap<Symbol, u16>,
    consts: &'a mut Vec<Value>,
    code: Vec<Op>,
    /// Every local binding in scope, innermost last per name.
    bindings: HashMap<Symbol, Vec<LocalSlot>>,
    /// The names each open scope bound, innermost scope last.
    scopes: Vec<Vec<Symbol>>,
    n_slots: u16,
    n_arrays: u16,
    /// See [`Chunk::arr_names`].
    arr_names: Vec<(ArrId, Symbol)>,
    /// The register bank's starting contents (see [`Chunk::regs`]).
    regs: Vec<u64>,
    /// Constant register per literal word.
    kregs: HashMap<u64, u16>,
    /// Temporary registers in use, innermost last, and free ones.
    live_temps: Vec<u16>,
    free_temps: Vec<u16>,
    /// Jump indices to patch per open loop/switch.
    break_frames: Vec<Vec<usize>>,
    in_function: bool,
}

impl<'a> FnCompiler<'a> {
    fn new(
        analysis: &'a Analysis,
        func_ids: &'a HashMap<Symbol, u16>,
        consts: &'a mut Vec<Value>,
        in_function: bool,
    ) -> Self {
        FnCompiler {
            analysis,
            func_ids,
            consts,
            code: Vec::new(),
            bindings: HashMap::new(),
            scopes: vec![],
            n_slots: 1, // slot 0 = IT
            n_arrays: 0,
            arr_names: analysis
                .shared
                .iter()
                .filter(|sv| matches!(sv.kind, SharedKind::Array { .. }))
                .map(|sv| (ArrId::Shared(sv.addr), sv.name))
                .collect(),
            regs: Vec::new(),
            kregs: HashMap::new(),
            live_temps: Vec::new(),
            free_temps: Vec::new(),
            break_frames: Vec::new(),
            in_function,
        }
    }

    fn finish(self) -> Chunk {
        Chunk {
            code: peephole(self.code),
            n_slots: self.n_slots,
            n_arrays: self.n_arrays,
            regs: self.regs,
            arr_names: self.arr_names,
        }
    }

    // -- helpers -------------------------------------------------------

    fn enter_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    fn leave_scope(&mut self) {
        for name in self.scopes.pop().unwrap_or_default() {
            if let Some(stack) = self.bindings.get_mut(&name) {
                stack.pop();
            }
        }
    }

    /// Allocate a slot index in the space matching `kind` (scalars,
    /// registers and arrays index disjoint per-frame tables).
    fn alloc_slot(&mut self, name: Symbol, kind: SlotKind) -> u16 {
        let slot = match kind {
            SlotKind::Scalar { .. } => {
                self.n_slots += 1;
                self.n_slots - 1
            }
            SlotKind::Reg { .. } => self.new_reg(),
            SlotKind::Array { .. } => {
                self.arr_names.push((ArrId::Local(self.n_arrays), name));
                self.n_arrays += 1;
                self.n_arrays - 1
            }
        };
        self.bind(name, LocalSlot { slot, kind });
        slot
    }

    /// Bind `name` in the innermost scope (a redeclaration there
    /// replaces the binding).
    fn bind(&mut self, name: Symbol, ls: LocalSlot) {
        let scope = self.scopes.last_mut().expect("scope");
        let stack = self.bindings.entry(name).or_default();
        match stack.last_mut() {
            Some(top) if scope.contains(&name) => *top = ls,
            _ => {
                scope.push(name);
                stack.push(ls);
            }
        }
    }

    fn lookup(&self, name: Symbol) -> Option<LocalSlot> {
        if let Some(ls) = self.bindings.get(&name).and_then(|stack| stack.last()) {
            return Some(ls.clone());
        }
        // `IT` is implicitly slot 0 of every frame.
        if name == Symbol::it() {
            return Some(LocalSlot { slot: 0, kind: SlotKind::UNTYPED });
        }
        None
    }

    /// The local a reference names (`UR` references are never local).
    fn local(&self, vr: &VarRef) -> Option<LocalSlot> {
        match &vr.name {
            VarName::Named(id) if vr.locality != Locality::Ur => self.lookup(id.sym),
            _ => None,
        }
    }

    fn konst(&mut self, v: Value) -> u16 {
        // Linear dedup is fine at compile time for teaching programs.
        if let Some(i) = self.consts.iter().position(|c| c == &v) {
            return i as u16;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u16
    }

    fn emit_const(&mut self, v: Value) {
        let k = self.konst(v);
        self.code.push(Op::Const(k));
    }

    /// Coerce stack-top, of static type `src`, to `ty` — unless it
    /// already is one.
    fn coerce(&mut self, src: Ty, ty: LolType) {
        if src != Some(ty) {
            self.code.push(Op::Cast(ty));
        }
    }

    fn here(&self) -> usize {
        self.code.len()
    }

    fn emit_jump_placeholder(&mut self, op: fn(u32) -> Op) -> usize {
        let at = self.here();
        self.code.push(op(u32::MAX));
        at
    }

    fn patch_jump(&mut self, at: usize) {
        let target = self.here() as u32;
        match &mut self.code[at] {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::JumpCmpI { target: t, .. }
            | Op::JumpCmpD { target: t, .. } => *t = target,
            other => panic!("not a jump at {at}: {other:?}"),
        }
    }

    fn err(&self, code: &'static str, msg: String, span: Span) -> Diagnostic {
        Diagnostic::error(code, msg, span)
    }

    fn shared(&self, name: Symbol) -> Option<&'a SharedVar> {
        self.analysis.shared.get(name)
    }

    fn named(&self, vr: &VarRef) -> CResult<Symbol> {
        match &vr.name {
            VarName::Named(id) => Ok(id.sym),
            VarName::Srs(_) => Err(self.err(
                "VMC0001",
                "SRS IZ 2 DYNAMIC 4 DA COMPILER — RUN DIS WIF DA INTERPRETER".to_string(),
                vr.span,
            )),
        }
    }

    /// Is this reference an array (in its locality)?
    fn is_array_ref(&self, vr: &VarRef) -> CResult<bool> {
        let name = self.named(vr)?;
        if let Some(ls) = self.local(vr) {
            return Ok(matches!(ls.kind, SlotKind::Array { .. }));
        }
        Ok(self.shared(name).map(|sv| matches!(sv.kind, SharedKind::Array { .. })).unwrap_or(false))
    }

    fn arr_loc(&self, vr: &VarRef) -> CResult<ArrLoc> {
        let name = self.named(vr)?;
        if let Some(LocalSlot { slot, kind: SlotKind::Array { .. } }) = self.local(vr) {
            return Ok(ArrLoc::Local { arr: slot });
        }
        let sv = self.shared(name).ok_or_else(|| {
            self.err("VMC0002", format!("{name} IZ NOT AN ARRAY I KNOW"), vr.span)
        })?;
        match sv.kind {
            SharedKind::Array { len } => Ok(ArrLoc::Shared {
                off: sv.addr,
                len: len as u32,
                ty: sv.ty,
                remote: vr.locality == Locality::Ur,
            }),
            SharedKind::Scalar => Err(self.err("VMC0002", format!("{name} IZ A SCALAR"), vr.span)),
        }
    }

    /// The shared array a reference names, when it is not a local.
    fn shared_array(&self, vr: &VarRef) -> Option<(&'a SharedVar, u32)> {
        if self.local(vr).is_some() {
            return None;
        }
        let VarName::Named(id) = &vr.name else { return None };
        let sv = self.shared(id.sym)?;
        match sv.kind {
            SharedKind::Array { len } => Some((sv, len as u32)),
            SharedKind::Scalar => None,
        }
    }

    // -- registers -----------------------------------------------------

    fn new_reg(&mut self) -> u16 {
        self.regs.push(0);
        (self.regs.len() - 1) as u16
    }

    /// The constant register holding `word` (one per distinct word).
    fn kreg(&mut self, word: u64) -> u16 {
        if let Some(&r) = self.kregs.get(&word) {
            return r;
        }
        let r = self.new_reg();
        self.regs[r as usize] = word;
        self.kregs.insert(word, r);
        r
    }

    /// A temporary register, live until [`FnCompiler::release`].
    fn temp(&mut self) -> u16 {
        let r = self.free_temps.pop().unwrap_or_else(|| self.new_reg());
        self.live_temps.push(r);
        r
    }

    /// Free every temporary taken since `mark` (a `live_temps` length).
    fn release(&mut self, mark: usize) {
        self.free_temps.extend(self.live_temps.drain(mark..));
    }

    // -- static types --------------------------------------------------

    /// The static type of `e`'s value: the type [`FnCompiler::expr`]
    /// returns after emitting it, computed without emitting anything.
    fn ty(&self, e: &Expr) -> Ty {
        expr_ty(e, &|vr: &VarRef| self.var_ty(vr))
    }

    /// What a reference names here, for [`expr_ty`].
    fn var_ty(&self, vr: &VarRef) -> Option<VarTy> {
        match self.local(vr).map(|ls| ls.kind) {
            Some(SlotKind::Scalar { ty, .. }) => Some(VarTy::Scalar(ty)),
            Some(SlotKind::Reg { ty }) => Some(VarTy::Scalar(Some(ty))),
            Some(SlotKind::Array { elem }) => Some(VarTy::Array(Some(elem))),
            None => {
                let VarName::Named(id) = &vr.name else { return None };
                self.shared(id.sym).map(shared_var_ty)
            }
        }
    }

    /// Does `e` compute on registers itself (rather than reading a
    /// leaf the stack path loads as cheaply)?
    fn reg_native(&self, e: &Expr) -> bool {
        // Each case implies a NUMBR, NUMBAR or TROOF result.
        match &e.kind {
            ExprKind::Index { arr, idx } => self.reg_index(arr, idx),
            ExprKind::Bin { op, lhs, rhs } => bin_dom(*op, self.ty(lhs), self.ty(rhs)).is_some(),
            ExprKind::Un { op, expr } => {
                *op != UnOp::Not && matches!(self.ty(expr), Some(LolType::Numbr | LolType::Numbar))
            }
            ExprKind::Cast { expr, ty } => is_raw(*ty) && converts(self.ty(expr), *ty),
            _ => false,
        }
    }

    /// Does `arr'Z idx` run on registers: a raw local or a shared
    /// array, indexed by a NUMBR?
    fn reg_index(&self, arr: &VarRef, idx: &Expr) -> bool {
        let raw_array = match self.local(arr).map(|ls| ls.kind) {
            Some(SlotKind::Array { elem }) => is_raw(elem),
            Some(_) => false,
            None => self.shared_array(arr).is_some(),
        };
        raw_array && self.ty(idx) == Some(LolType::Numbr)
    }

    // -- register expressions ------------------------------------------

    /// Emit `e`, whose static type must be NUMBR, NUMBAR or TROOF, into
    /// a register: `dst` when given, else the variable or constant
    /// register that already holds it, else a temporary. Only the last
    /// op emitted writes `dst`, so `e` may read the variable `dst`
    /// holds.
    fn rexpr(&mut self, e: &Expr, dst: Option<u16>) -> CResult<u16> {
        debug_assert!(self.ty(e).is_some_and(is_raw), "rexpr on a non-raw expression");
        let held = match &e.kind {
            ExprKind::Lit(Lit::Numbr(n)) => Some(self.kreg(*n as u64)),
            ExprKind::Lit(Lit::Numbar(f)) => Some(self.kreg(f.to_bits())),
            ExprKind::Lit(Lit::Troof(b)) => Some(self.kreg(*b as u64)),
            ExprKind::Var(vr) => match self.local(vr) {
                Some(LocalSlot { slot, kind: SlotKind::Reg { .. } }) => Some(slot),
                _ => None,
            },
            ExprKind::Cast { expr, ty } if self.ty(expr) == Some(*ty) => {
                return self.rexpr(expr, dst)
            }
            _ => None,
        };
        if let Some(r) = held {
            return Ok(match dst {
                Some(d) if d != r => {
                    self.code.push(Op::Mov { d, s: r });
                    d
                }
                _ => r,
            });
        }
        if !self.reg_native(e) {
            // Stack-only leaf or operator: compute it there and unbox.
            self.stack_node(e)?;
            let d = dst.unwrap_or_else(|| self.temp());
            self.code.push(Op::Unbox { d, ty: self.ty(e).unwrap_or(LolType::Noob) });
            return Ok(d);
        }
        let mark = self.live_temps.len();
        let d;
        let op = match &e.kind {
            ExprKind::Index { arr, idx } => {
                let i = self.rexpr(idx, None)?;
                d = self.dest(mark, dst);
                match self.local(arr) {
                    Some(ls) => Op::ArrLoadR { d, arr: ls.slot, idx: i },
                    None => {
                        let (sv, len) = self.shared_array(arr).expect("checked by reg_index");
                        Op::SharedLoadIdxR {
                            d,
                            off: sv.addr,
                            len,
                            ty: sv.ty,
                            remote: arr.locality == Locality::Ur,
                            idx: i,
                        }
                    }
                }
            }
            ExprKind::Bin { op, lhs, rhs } => {
                let dom = bin_dom(*op, self.ty(lhs), self.ty(rhs)).expect("checked by reg_native");
                let a = self.rexpr_in(lhs, dom)?;
                let b = self.rexpr_in(rhs, dom)?;
                d = self.dest(mark, dst);
                match (cmp_of(*op), dom) {
                    (Some(cmp), Dom::I) => Op::CmpI { cmp, d, a, b },
                    (Some(cmp), Dom::D) => Op::CmpD { cmp, d, a, b },
                    (None, Dom::I) => match op {
                        BinOp::Sum => Op::AddI { d, a, b },
                        BinOp::Diff => Op::SubI { d, a, b },
                        BinOp::Produkt => Op::MulI { d, a, b },
                        _ => Op::ArithI { op: *op, d, a, b },
                    },
                    (None, Dom::D) => match op {
                        BinOp::Sum => Op::AddD { d, a, b },
                        BinOp::Diff => Op::SubD { d, a, b },
                        BinOp::Produkt => Op::MulD { d, a, b },
                        BinOp::Quoshunt => Op::DivD { d, a, b },
                        _ => Op::ArithD { op: *op, d, a, b },
                    },
                }
            }
            ExprKind::Un { op, expr } => {
                let int = self.ty(expr) == Some(LolType::Numbr);
                let s = match op {
                    UnOp::Squar => self.rexpr(expr, None)?,
                    _ => self.rexpr_in(expr, Dom::D)?,
                };
                d = self.dest(mark, dst);
                match op {
                    UnOp::Squar if int => Op::MulI { d, a: s, b: s },
                    UnOp::Squar => Op::MulD { d, a: s, b: s },
                    UnOp::Unsquar => Op::SqrtD { d, s },
                    _ => Op::RecipD { d, s },
                }
            }
            ExprKind::Cast { expr, ty } => {
                // A conversion `converts` allows that is not the same
                // type: TROOF to NUMBR keeps the word, the rest widen.
                if *ty == LolType::Numbr {
                    return self.rexpr(expr, dst);
                }
                let s = self.rexpr(expr, None)?;
                d = self.dest(mark, dst);
                Op::I2D { d, s }
            }
            _ => unreachable!("reg_native covers only these"),
        };
        self.code.push(op);
        Ok(d)
    }

    /// The destination of a register op whose operands are in
    /// registers: `dst`, or a temporary once the operands' own ones are
    /// free (the op reads them before it writes).
    fn dest(&mut self, mark: usize, dst: Option<u16>) -> u16 {
        self.release(mark);
        dst.unwrap_or_else(|| self.temp())
    }

    /// [`FnCompiler::rexpr`] into a register, converted to `dom` (a
    /// NUMBR literal promotes at compile time).
    fn rexpr_in(&mut self, e: &Expr, dom: Dom) -> CResult<u16> {
        if let (Dom::D, ExprKind::Lit(Lit::Numbr(n))) = (dom, &e.kind) {
            return Ok(self.kreg((*n as f64).to_bits()));
        }
        let r = self.rexpr(e, None)?;
        if dom == Dom::D && self.ty(e) != Some(LolType::Numbar) {
            let d = self.temp();
            self.code.push(Op::I2D { d, s: r });
            return Ok(d);
        }
        Ok(r)
    }

    /// `e` as a `want` in a register (`dst` when given), when the
    /// conversion cannot fault (see [`converts`]); `None`, having
    /// emitted nothing, otherwise.
    fn rexpr_as(&mut self, e: &Expr, want: LolType, dst: Option<u16>) -> CResult<Option<u16>> {
        let t = self.ty(e);
        if !converts(t, want) {
            return Ok(None);
        }
        if want != LolType::Numbar || t == Some(LolType::Numbar) {
            return self.rexpr(e, dst).map(Some);
        }
        let s = self.rexpr(e, None)?;
        let d = dst.unwrap_or_else(|| self.temp());
        self.code.push(Op::I2D { d, s });
        Ok(Some(d))
    }

    /// Store `e` into register `d` of type `ty`, coercing it as a
    /// pinned store does.
    fn store_reg(&mut self, e: &Expr, d: u16, ty: LolType) -> CResult<()> {
        let mark = self.live_temps.len();
        if self.rexpr_as(e, ty, Some(d))?.is_none() {
            let src = self.expr(e)?;
            self.coerce(src, ty);
            self.code.push(Op::Unbox { d, ty });
        }
        self.release(mark);
        Ok(())
    }

    /// If `e` is a comparison that runs on registers, emit a typed
    /// compare-and-branch taken when its result is `when` (storing the
    /// result in `IT` first with `set_it`) and return the jump's index;
    /// emit nothing otherwise.
    fn cmp_branch(&mut self, e: &Expr, when: bool, set_it: bool) -> CResult<Option<usize>> {
        let Some((cmp, dom, lhs, rhs)) = self.reg_cmp(e) else { return Ok(None) };
        let mark = self.live_temps.len();
        let a = self.rexpr_in(lhs, dom)?;
        let b = self.rexpr_in(rhs, dom)?;
        self.release(mark);
        let at = self.here();
        let target = u32::MAX;
        self.code.push(match dom {
            Dom::I => Op::JumpCmpI { cmp, when, set_it, a, b, target },
            Dom::D => Op::JumpCmpD { cmp, when, set_it, a, b, target },
        });
        Ok(Some(at))
    }

    /// `e` as a comparison that runs on registers, if it is one.
    fn reg_cmp<'e>(&self, e: &'e Expr) -> Option<(Cmp, Dom, &'e Expr, &'e Expr)> {
        let ExprKind::Bin { op, lhs, rhs } = &e.kind else { return None };
        Some((cmp_of(*op)?, bin_dom(*op, self.ty(lhs), self.ty(rhs))?, lhs, rhs))
    }

    /// Emit a jump taken when `cond`'s truth is `when`; returns its
    /// index for patching.
    fn branch(&mut self, cond: &Expr, when: bool) -> CResult<usize> {
        if let Some(at) = self.cmp_branch(cond, when, false)? {
            return Ok(at);
        }
        self.expr(cond)?;
        if when {
            self.code.push(Op::Un(UnOp::Not));
        }
        Ok(self.emit_jump_placeholder(Op::JumpIfFalse))
    }

    // -- expressions ---------------------------------------------------

    /// Emit `e` onto the stack and return its static type.
    fn expr(&mut self, e: &Expr) -> CResult<Ty> {
        let ty = self.ty(e);
        match ty {
            Some(ty) if self.reg_native(e) => {
                let mark = self.live_temps.len();
                let s = self.rexpr(e, None)?;
                self.code.push(Op::Box { s, ty });
                self.release(mark);
            }
            _ => self.stack_node(e)?,
        }
        Ok(ty)
    }

    /// Emit `e`'s own operator on the stack path (its operands through
    /// [`FnCompiler::expr`]).
    fn stack_node(&mut self, e: &Expr) -> CResult<()> {
        let op = match &e.kind {
            ExprKind::Lit(l) => return self.literal(l, e.span).map(drop),
            ExprKind::Var(vr) => return self.var_read(vr).map(drop),
            ExprKind::Index { arr, idx } => {
                let name = self.named(arr)?;
                if let Some(ls) = self.local(arr) {
                    let SlotKind::Array { .. } = ls.kind else {
                        return Err(self.err(
                            "VMC0002",
                            format!("{name} IZ NOT LOTZ A THINGZ"),
                            arr.span,
                        ));
                    };
                    self.expr(idx)?;
                    Op::LocalArrLoad { arr: ls.slot }
                } else {
                    let sv = self
                        .shared(name)
                        .ok_or_else(|| self.err("VMC0002", format!("WHO IZ {name}?"), arr.span))?;
                    let SharedKind::Array { len } = sv.kind else {
                        return Err(self.err("VMC0002", format!("{name} IZ A SCALAR"), arr.span));
                    };
                    self.expr(idx)?;
                    Op::SharedLoadIdx {
                        off: sv.addr,
                        len: len as u32,
                        ty: sv.ty,
                        remote: arr.locality == Locality::Ur,
                    }
                }
            }
            ExprKind::Bin { op, lhs, rhs } => {
                self.expr(lhs)?;
                self.expr(rhs)?;
                Op::Bin(*op)
            }
            ExprKind::Un { op, expr } => {
                self.expr(expr)?;
                Op::Un(*op)
            }
            ExprKind::Nary { op, args } => {
                for a in args {
                    self.expr(a)?;
                }
                let n = args.len() as u8;
                match op {
                    NaryOp::AllOf => Op::AllOf(n),
                    NaryOp::AnyOf => Op::AnyOf(n),
                    NaryOp::Smoosh => Op::Smoosh(n),
                }
            }
            ExprKind::Cast { expr, ty } => {
                let src = self.expr(expr)?;
                self.coerce(src, *ty);
                return Ok(());
            }
            ExprKind::Call { name, args } => {
                let Some(&func) = self.func_ids.get(&name.sym) else {
                    return Err(self.err(
                        "VMC0003",
                        format!("I DUNNO HOW IZ I {}", name.sym),
                        name.span,
                    ));
                };
                for a in args {
                    self.expr(a)?;
                }
                Op::Call { func, argc: args.len() as u8 }
            }
            ExprKind::Me => Op::Me,
            ExprKind::MahFrenz => Op::MahFrenz,
            ExprKind::Whatevr => Op::RandI,
            ExprKind::Whatevar => Op::RandF,
        };
        self.code.push(op);
        Ok(())
    }

    fn literal(&mut self, l: &Lit, span: Span) -> CResult<Ty> {
        let (v, ty) = match l {
            Lit::Numbr(n) => (Value::Numbr(*n), LolType::Numbr),
            Lit::Numbar(f) => (Value::Numbar(*f), LolType::Numbar),
            Lit::Troof(b) => (Value::Troof(*b), LolType::Troof),
            Lit::Noob => (Value::Noob, LolType::Noob),
            Lit::Yarn(parts) => {
                // Pure text folds to one constant; interpolation
                // becomes loads + SMOOSH.
                let needs_interp = parts.iter().any(|p| matches!(p, YarnPart::Var(_)));
                if !needs_interp {
                    let text: String = parts
                        .iter()
                        .map(|p| match p {
                            YarnPart::Text(t) => t.as_str(),
                            YarnPart::Var(_) => unreachable!(),
                        })
                        .collect();
                    (Value::yarn(text), LolType::Yarn)
                } else {
                    let mut n = 0u8;
                    for p in parts {
                        match p {
                            YarnPart::Text(t) => {
                                self.emit_const(Value::yarn(t.clone()));
                            }
                            YarnPart::Var(id) => {
                                let vr = VarRef::named(*id);
                                let vr = VarRef { span, ..vr };
                                let t = self.var_read(&vr)?;
                                self.coerce(t, LolType::Yarn);
                            }
                        }
                        n += 1;
                    }
                    self.code.push(Op::Smoosh(n));
                    return Ok(Some(LolType::Yarn));
                }
            }
        };
        self.emit_const(v);
        Ok(Some(ty))
    }

    fn var_read(&mut self, vr: &VarRef) -> CResult<Ty> {
        let name = self.named(vr)?;
        if let Some(ls) = self.local(vr) {
            return match ls.kind {
                SlotKind::Scalar { ty, .. } => {
                    self.code.push(Op::LoadLocal(ls.slot));
                    Ok(ty)
                }
                SlotKind::Reg { ty } => {
                    self.code.push(Op::Box { s: ls.slot, ty });
                    Ok(Some(ty))
                }
                SlotKind::Array { .. } => Err(self.err(
                    "VMC0004",
                    format!("{name} IZ A WHOLE ARRAY, NOT A VALUE"),
                    vr.span,
                )),
            };
        }
        let Some(sv) = self.shared(name) else {
            return Err(self.err("VMC0005", format!("WHO IZ {name}?"), vr.span));
        };
        match sv.kind {
            SharedKind::Scalar => {
                self.code.push(Op::SharedLoad {
                    off: sv.addr,
                    ty: sv.ty,
                    remote: vr.locality == Locality::Ur,
                });
                Ok(Some(shared_ty(sv.ty)))
            }
            SharedKind::Array { .. } => {
                Err(self.err("VMC0004", format!("{name} IZ A WHOLE ARRAY, NOT A VALUE"), vr.span))
            }
        }
    }

    /// Store the value on top of the stack, of static type `src`, into
    /// a scalar variable.
    fn var_store(&mut self, vr: &VarRef, src: Ty) -> CResult<()> {
        let name = self.named(vr)?;
        if let Some(ls) = self.local(vr) {
            return match ls.kind {
                SlotKind::Scalar { ty, pinned } => {
                    if let (true, Some(ty)) = (pinned, ty) {
                        self.coerce(src, ty);
                    }
                    self.code.push(Op::StoreLocal(ls.slot));
                    Ok(())
                }
                SlotKind::Reg { ty } => {
                    self.coerce(src, ty);
                    self.code.push(Op::Unbox { d: ls.slot, ty });
                    Ok(())
                }
                SlotKind::Array { .. } => Err(self.err(
                    "VMC0004",
                    format!("{name} IZ A WHOLE ARRAY — ASSIGN ELEMENTS"),
                    vr.span,
                )),
            };
        }
        let Some(sv) = self.shared(name) else {
            return Err(self.err("VMC0005", format!("WHO IZ {name}?"), vr.span));
        };
        match sv.kind {
            SharedKind::Scalar => {
                self.code.push(Op::SharedStore {
                    off: sv.addr,
                    ty: sv.ty,
                    remote: vr.locality == Locality::Ur,
                });
                Ok(())
            }
            SharedKind::Array { .. } => Err(self.err(
                "VMC0004",
                format!("{name} IZ A WHOLE ARRAY — ASSIGN ELEMENTS"),
                vr.span,
            )),
        }
    }

    /// Store stack-top, of static type `src`, into an lvalue. For
    /// indexed stores the compiler pushes value first, then the index.
    fn store_lvalue(&mut self, lv: &LValue, src: Ty) -> CResult<()> {
        match lv {
            LValue::Var(vr) => self.var_store(vr, src),
            LValue::Index { arr, idx, .. } => {
                let name = self.named(arr)?;
                self.expr(idx)?;
                if let Some(ls) = self.local(arr) {
                    return match ls.kind {
                        SlotKind::Array { elem } => {
                            // The cast (when needed) stays inside the
                            // op, after the index check, so faults keep
                            // their order.
                            let cast = src != Some(elem);
                            self.code.push(Op::LocalArrStore { arr: ls.slot, cast });
                            Ok(())
                        }
                        _ => Err(self.err(
                            "VMC0002",
                            format!("{name} IZ NOT LOTZ A THINGZ"),
                            arr.span,
                        )),
                    };
                }
                let sv = self
                    .shared(name)
                    .ok_or_else(|| self.err("VMC0005", format!("WHO IZ {name}?"), arr.span))?;
                let SharedKind::Array { len } = sv.kind else {
                    return Err(self.err("VMC0002", format!("{name} IZ A SCALAR"), arr.span));
                };
                self.code.push(Op::SharedStoreIdx {
                    off: sv.addr,
                    len: len as u32,
                    ty: sv.ty,
                    remote: arr.locality == Locality::Ur,
                });
                Ok(())
            }
        }
    }

    /// `arr'Z idx R value` on registers, when the value converts to the
    /// element without a fault (a cast that could fault must come after
    /// the index check, inside the stack op). Returns whether it did.
    fn store_index_reg(&mut self, arr: &VarRef, idx: &Expr, value: &Expr) -> CResult<bool> {
        if !self.reg_index(arr, idx) {
            return Ok(false);
        }
        let local = self.local(arr);
        let elem = match (&local, self.shared_array(arr)) {
            (Some(LocalSlot { kind: SlotKind::Array { elem }, .. }), _) => *elem,
            (_, Some((sv, _))) => shared_ty(sv.ty),
            _ => return Ok(false),
        };
        let mark = self.live_temps.len();
        let Some(s) = self.rexpr_as(value, elem, None)? else { return Ok(false) };
        let i = self.rexpr(idx, None)?;
        self.release(mark);
        self.code.push(match local {
            Some(ls) => Op::ArrStoreR { s, arr: ls.slot, idx: i },
            None => {
                let (sv, len) = self.shared_array(arr).expect("checked above");
                Op::SharedStoreIdxR {
                    s,
                    off: sv.addr,
                    len,
                    ty: sv.ty,
                    remote: arr.locality == Locality::Ur,
                    idx: i,
                }
            }
        });
        Ok(true)
    }

    // -- statements ----------------------------------------------------

    fn block(&mut self, b: &Block) -> CResult<()> {
        self.enter_scope();
        self.stmts(b)?;
        self.leave_scope();
        Ok(())
    }

    /// A statement list. A comparison statement that an `O RLY?` tests
    /// becomes one typed compare-and-branch that also stores `IT`.
    fn stmts(&mut self, list: &[Stmt]) -> CResult<()> {
        let mut i = 0;
        while i < list.len() {
            if let (StmtKind::ExprStmt(e), Some(StmtKind::If(ifs))) =
                (&list[i].kind, list.get(i + 1).map(|s| &s.kind))
            {
                if let Some(at) = self.cmp_branch(e, false, true)? {
                    self.if_stmt(ifs, Some(at))?;
                    i += 2;
                    continue;
                }
            }
            self.stmt(&list[i])?;
            i += 1;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> CResult<()> {
        match &s.kind {
            StmtKind::Declare(d) => self.decl(d),
            StmtKind::Assign { target, value } => self.assign(s, target, value),
            StmtKind::ExprStmt(e) => {
                self.expr(e)?;
                self.code.push(Op::StoreLocal(0));
                Ok(())
            }
            StmtKind::Visible { args, newline } => {
                // Each operand prints as soon as it is evaluated, as on
                // the other engines: a later operand's call prints, and
                // its fault ends the run, after the earlier ones print.
                let Some((last, init)) = args.split_last() else {
                    self.code.push(Op::Visible { argc: 0, newline: *newline });
                    return Ok(());
                };
                for a in init {
                    self.expr(a)?;
                    self.code.push(Op::Visible { argc: 1, newline: false });
                }
                self.expr(last)?;
                self.code.push(Op::Visible { argc: 1, newline: *newline });
                Ok(())
            }
            StmtKind::Gimmeh(lv) => {
                self.code.push(Op::ReadLine);
                self.store_lvalue(lv, Some(LolType::Yarn))
            }
            StmtKind::If(ifs) => self.if_stmt(ifs, None),
            StmtKind::Switch(sw) => self.switch(sw),
            StmtKind::Loop(lp) => self.loop_stmt(lp),
            StmtKind::Gtfo => {
                if !self.break_frames.is_empty() {
                    let at = self.here();
                    self.code.push(Op::Jump(u32::MAX));
                    self.break_frames.last_mut().expect("checked").push(at);
                } else if self.in_function {
                    self.emit_const(Value::Noob);
                    self.code.push(Op::Ret);
                } else {
                    return Err(self.err("VMC0006", "GTFO OF WHERE?".to_string(), s.span));
                }
                Ok(())
            }
            StmtKind::FoundYr(e) => {
                self.expr(e)?;
                if !self.in_function {
                    return Err(self.err(
                        "VMC0006",
                        "FOUND YR OUTSIDE A FUNKSHUN".to_string(),
                        s.span,
                    ));
                }
                self.code.push(Op::Ret);
                Ok(())
            }
            StmtKind::IsNowA { target, ty } => match target {
                LValue::Var(vr) => {
                    let name = self.named(vr)?;
                    // Pinned slots never get here (sema's SEM0024), and
                    // typed lowering relies on that.
                    match self.lookup(name) {
                        Some(LocalSlot { slot, kind: SlotKind::Scalar { pinned: false, .. } }) => {
                            self.code.push(Op::LoadLocal(slot));
                            self.code.push(Op::Cast(*ty));
                            self.code.push(Op::StoreLocal(slot));
                            Ok(())
                        }
                        _ => Err(self.err(
                            "VMC0007",
                            format!("{name} CANT CHANGE TYPE (SRSLY/SHARED/ARRAY TYPES R FIXED)"),
                            vr.span,
                        )),
                    }
                }
                LValue::Index { span, .. } => Err(self.err(
                    "VMC0007",
                    "ARRAY ELEMENTS KEEP DA ARRAY'S TYPE".to_string(),
                    *span,
                )),
            },
            StmtKind::Hugz => {
                self.code.push(Op::Barrier);
                Ok(())
            }
            StmtKind::LockAcquire(vr) => {
                let (off, remote) = self.lock_cell(vr)?;
                self.code.push(Op::LockAcquire { off, remote });
                self.emit_const(Value::Troof(true));
                self.code.push(Op::StoreLocal(0));
                Ok(())
            }
            StmtKind::LockTry(vr) => {
                let (off, remote) = self.lock_cell(vr)?;
                self.code.push(Op::LockTry { off, remote });
                self.code.push(Op::StoreLocal(0));
                Ok(())
            }
            StmtKind::LockRelease(vr) => {
                let (off, remote) = self.lock_cell(vr)?;
                self.code.push(Op::LockRelease { off, remote });
                Ok(())
            }
            StmtKind::TxtStmt { pe, stmt } => {
                self.expr(pe)?;
                self.code.push(Op::PushBff);
                self.stmt(stmt)?;
                self.code.push(Op::PopBff);
                Ok(())
            }
            StmtKind::TxtBlock { pe, body } => {
                self.expr(pe)?;
                self.code.push(Op::PushBff);
                self.block(body)?;
                self.code.push(Op::PopBff);
                Ok(())
            }
        }
    }

    fn lock_cell(&mut self, vr: &VarRef) -> CResult<(u32, bool)> {
        let name = self.named(vr)?;
        let sv = self
            .shared(name)
            .ok_or_else(|| self.err("VMC0005", format!("{name} IZ NOT SHARED"), vr.span))?;
        let off = sv.lock.ok_or_else(|| {
            self.err(
                "VMC0008",
                format!("{name} HAS NO LOCK — DECLARE IT WIF AN IM SHARIN IT"),
                vr.span,
            )
        })?;
        Ok((off, vr.locality == Locality::Ur))
    }

    fn decl(&mut self, d: &Decl) -> CResult<()> {
        match d.scope {
            DeclScope::We => {
                // Layout is static; compile the per-PE initializer.
                if let Some(init) = &d.init {
                    if let Some(sv) = self.shared(d.name.sym) {
                        if matches!(sv.kind, SharedKind::Scalar) {
                            self.expr(init)?;
                            self.code.push(Op::SharedStore {
                                off: sv.addr,
                                ty: sv.ty,
                                remote: false,
                            });
                        }
                    }
                }
                Ok(())
            }
            DeclScope::I => {
                if let Some(size) = &d.array_size {
                    self.expr(size)?;
                    let elem = d.ty.unwrap_or(LolType::Noob);
                    let arr = self.alloc_slot(d.name.sym, SlotKind::Array { elem });
                    self.code.push(Op::LocalArrNew { arr, ty: elem });
                    return Ok(());
                }
                let ty = self.analysis.local_ty(d);
                if let Some(ty) = ty.filter(|t| is_raw(*t)) {
                    // A pinned or inferred NUMBR/NUMBAR/TROOF lives in a
                    // register. The initializer still sees any outer
                    // binding of the name: bind only after it.
                    let r = self.new_reg();
                    match &d.init {
                        Some(init) => self.store_reg(init, r, ty)?,
                        // Every raw default (0, 0.0, FAIL) is word 0.
                        None => {
                            let s = self.kreg(0);
                            self.code.push(Op::Mov { d: r, s });
                        }
                    }
                    self.bind(d.name.sym, LocalSlot { slot: r, kind: SlotKind::Reg { ty } });
                    return Ok(());
                }
                match (&d.init, d.ty) {
                    (Some(init), Some(ty)) => {
                        let src = self.expr(init)?;
                        self.coerce(src, ty);
                    }
                    (Some(init), None) => {
                        self.expr(init)?;
                    }
                    (None, Some(ty)) => {
                        let v = lol_interp::value::default_for(ty);
                        self.emit_const(v);
                    }
                    (None, None) => self.emit_const(Value::Noob),
                }
                let kind = SlotKind::Scalar { ty, pinned: d.srsly };
                let slot = self.alloc_slot(d.name.sym, kind);
                self.code.push(Op::StoreLocal(slot));
                Ok(())
            }
        }
    }

    fn assign(&mut self, s: &Stmt, target: &LValue, value: &Expr) -> CResult<()> {
        if let LValue::Var(dst) = target {
            if let ExprKind::Var(src) = &value.kind {
                let d_arr = self.is_array_ref(dst)?;
                let s_arr = self.is_array_ref(src)?;
                match (d_arr, s_arr) {
                    (true, true) => {
                        let dst = self.arr_loc(dst)?;
                        let src = self.arr_loc(src)?;
                        self.code.push(Op::ArrayCopy { dst, src });
                        return Ok(());
                    }
                    (true, false) | (false, true) => {
                        return Err(self.err(
                            "VMC0009",
                            "U CANT MIX A WHOLE ARRAY AN A SCALAR IN ONE ASSIGNMENT".to_string(),
                            s.span,
                        ))
                    }
                    (false, false) => {}
                }
            } else if self.is_array_ref(dst)? {
                return Err(self.err(
                    "VMC0009",
                    "AN ARRAY CAN ONLY BE ASSIGNED FROM ANOTHER ARRAY".to_string(),
                    s.span,
                ));
            }
            if let Some(LocalSlot { slot, kind: SlotKind::Reg { ty } }) = self.local(dst) {
                return self.store_reg(value, slot, ty);
            }
            if self.append_in_place(dst, value)? {
                return Ok(());
            }
        }
        if let LValue::Index { arr, idx, .. } = target {
            if self.store_index_reg(arr, idx, value)? {
                return Ok(());
            }
        }
        let src = self.expr(value)?;
        self.store_lvalue(target, src)
    }

    /// `x R SMOOSH x AN … MKAY`, with `x` an unpinned or YARN-pinned
    /// local value slot, as the other operands and one `SmooshInto`
    /// that appends them to `x`'s buffer. The operands cannot store to
    /// `x`, and `x` still renders first, after they have run, as the
    /// stack form's `Smoosh` renders it. Returns whether it did.
    fn append_in_place(&mut self, dst: &VarRef, value: &Expr) -> CResult<bool> {
        let ExprKind::Nary { op: NaryOp::Smoosh, args } = &value.kind else { return Ok(false) };
        let Some(LocalSlot { slot, kind: SlotKind::Scalar { ty: None | Some(LolType::Yarn), .. } }) =
            self.local(dst)
        else {
            return Ok(false);
        };
        let first_is_dst = match args.first().map(|a| &a.kind) {
            Some(ExprKind::Var(vr)) => matches!(
                self.local(vr),
                Some(LocalSlot { slot: s, kind: SlotKind::Scalar { .. } }) if s == slot
            ),
            _ => false,
        };
        if !first_is_dst {
            return Ok(false);
        }
        for a in &args[1..] {
            self.expr(a)?;
        }
        self.code.push(Op::SmooshInto { slot, n: (args.len() - 1) as u8 });
        Ok(true)
    }

    /// `O RLY?` on `IT`. `head` is the typed compare-and-branch a
    /// fused comparison statement already emitted in place of the test.
    fn if_stmt(&mut self, ifs: &IfStmt, head: Option<usize>) -> CResult<()> {
        // IT is the scrutinee. An arm jumps to the end only when another
        // arm follows it: the last one falls through.
        let n_arms = 1 + ifs.mebbes.len() + ifs.else_block.is_some() as usize;
        let to_next = match head {
            Some(at) => at,
            None => {
                self.code.push(Op::LoadLocal(0));
                self.emit_jump_placeholder(Op::JumpIfFalse)
            }
        };
        self.block(&ifs.then_block)?;
        let mut to_end = Vec::new();
        if n_arms > 1 {
            to_end.push(self.emit_jump_placeholder(Op::Jump));
        }
        self.patch_jump(to_next);
        for (i, m) in ifs.mebbes.iter().enumerate() {
            let skip = self.branch(&m.cond, false)?;
            self.block(&m.body)?;
            if i + 2 < n_arms {
                to_end.push(self.emit_jump_placeholder(Op::Jump));
            }
            self.patch_jump(skip);
        }
        if let Some(e) = &ifs.else_block {
            self.block(e)?;
        }
        for j in to_end {
            self.patch_jump(j);
        }
        Ok(())
    }

    fn switch(&mut self, sw: &SwitchStmt) -> CResult<()> {
        // Dispatch: compare IT to each arm literal in turn; on match
        // jump to that arm's body. Bodies are contiguous (fallthrough);
        // GTFO patches to the end.
        self.break_frames.push(Vec::new());
        let mut body_entries = Vec::new();
        for arm in &sw.arms {
            self.code.push(Op::LoadLocal(0));
            self.literal(&arm.value, Span::DUMMY)?;
            self.code.push(Op::Bin(BinOp::BothSaem));
            let no = self.emit_jump_placeholder(Op::JumpIfFalse);
            let to_body = self.emit_jump_placeholder(Op::Jump);
            body_entries.push(to_body);
            self.patch_jump(no);
        }
        // No match: jump to default (or end).
        let to_default = self.emit_jump_placeholder(Op::Jump);
        for (arm, entry) in sw.arms.iter().zip(body_entries) {
            self.patch_jump(entry);
            self.block(&arm.body)?;
            // falls through into the next arm's body
        }
        self.patch_jump(to_default);
        if let Some(d) = &sw.default {
            self.block(d)?;
        }
        let breaks = self.break_frames.pop().expect("switch break frame");
        for b in breaks {
            self.patch_jump(b);
        }
        Ok(())
    }

    fn loop_stmt(&mut self, lp: &LoopStmt) -> CResult<()> {
        self.enter_scope();
        // A counter inference types is a NUMBR. It lives in a
        // register when its guard then compares on registers (against
        // a literal, `MAH FRENZ` or a typed local): a guard against an
        // unknown value would box it on every iteration, so such a
        // counter stays a (typed) value slot, as does any other.
        let counter = match &lp.update {
            Some((dir, var)) => {
                let ty = self.analysis.counter_ty(lp);
                let is_reg = ty.is_some() && {
                    let probe =
                        LocalSlot { slot: u16::MAX, kind: SlotKind::Reg { ty: LolType::Numbr } };
                    self.bind(var.sym, probe);
                    lp.guard.as_ref().is_some_and(|(_, g)| self.reg_cmp(g).is_some())
                };
                let slot = if is_reg {
                    let r = self.alloc_slot(var.sym, SlotKind::Reg { ty: LolType::Numbr });
                    let s = self.kreg(0);
                    self.code.push(Op::Mov { d: r, s });
                    r
                } else {
                    let slot = self.alloc_slot(var.sym, SlotKind::Scalar { ty, pinned: false });
                    self.emit_const(Value::Numbr(0));
                    self.code.push(Op::StoreLocal(slot));
                    slot
                };
                Some((*dir, slot, is_reg))
            }
            None => None,
        };
        self.break_frames.push(Vec::new());
        let start = self.here() as u32;
        let mut guard_exit = None;
        if let Some((kind, guard)) = &lp.guard {
            guard_exit = Some(self.branch(guard, matches!(kind, GuardKind::Til))?);
        }
        self.stmts(&lp.body)?;
        if let Some((dir, slot, is_reg)) = counter {
            let op = match dir {
                LoopDir::Uppin => BinOp::Sum,
                LoopDir::Nerfin => BinOp::Diff,
            };
            if is_reg {
                let one = self.kreg(1);
                self.code.push(match dir {
                    LoopDir::Uppin => Op::AddI { d: slot, a: slot, b: one },
                    LoopDir::Nerfin => Op::SubI { d: slot, a: slot, b: one },
                });
            } else {
                self.code.push(Op::LoadLocal(slot));
                self.emit_const(Value::Numbr(1));
                self.code.push(Op::Bin(op));
                self.code.push(Op::StoreLocal(slot));
            }
        }
        self.code.push(Op::Jump(start));
        if let Some(g) = guard_exit {
            self.patch_jump(g);
        }
        let breaks = self.break_frames.pop().expect("loop break frame");
        for b in breaks {
            self.patch_jump(b);
        }
        self.leave_scope();
        Ok(())
    }
}

/// Fuse common instruction idioms into superinstructions.
///
/// The fuser works on fully patched code (absolute jump targets). Two
/// rules keep it exactly semantics-preserving:
///
/// 1. a fusion window never covers an *interior* jump target — the
///    window's first instruction may be jumped to, the rest may not
///    (otherwise a jump would land mid-superinstruction);
/// 2. after fusion every jump target is remapped through the old→new
///    pc table.
///
/// Each superinstruction performs the identical value operations (same
/// errors, in the same order) as the sequence it replaces, so fused
/// and unfused code are byte-identical in output, stats, and traces.
fn peephole(code: Vec<Op>) -> Vec<Op> {
    let n = code.len();
    let mut is_target = vec![false; n + 1];
    for op in &code {
        match op {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::JumpCmpI { target: t, .. }
            | Op::JumpCmpD { target: t, .. } => is_target[*t as usize] = true,
            _ => {}
        }
    }

    let mut out: Vec<Op> = Vec::with_capacity(n);
    // Old pc → new pc, for every instruction boundary (+ end-of-code,
    // a legal jump target for loop exits at the end of a chunk).
    let mut map = vec![0u32; n + 1];
    let mut i = 0;
    while i < n {
        map[i] = out.len() as u32;
        // No interior instruction of the window [i, i+len) is a target.
        let free = |len: usize| !is_target[i + 1..i + len].iter().any(|&b| b);
        let fused: Option<(Op, usize)> = match &code[i..] {
            // Counted-loop guards (both the TIL and WILE DIFFRINT
            // shapes reduce to "jump out when var SAEMs the bound"),
            // with constant or variable bounds.
            [Op::LoadLocal(s), Op::Const(k), Op::Bin(BinOp::BothSaem), Op::Un(UnOp::Not), Op::JumpIfFalse(t), ..]
                if free(5) =>
            {
                Some((Op::JumpIfLocalEqConst { slot: *s, k: *k, target: *t }, 5))
            }
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::Bin(BinOp::BothSaem), Op::Un(UnOp::Not), Op::JumpIfFalse(t), ..]
                if free(5) =>
            {
                Some((Op::JumpIfLocalEqLocal { a: *a, b: *b, target: *t }, 5))
            }
            [Op::LoadLocal(s), Op::Const(k), Op::Bin(BinOp::Diffrint), Op::JumpIfFalse(t), ..]
                if free(4) =>
            {
                Some((Op::JumpIfLocalEqConst { slot: *s, k: *k, target: *t }, 4))
            }
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::Bin(BinOp::Diffrint), Op::JumpIfFalse(t), ..]
                if free(4) =>
            {
                Some((Op::JumpIfLocalEqLocal { a: *a, b: *b, target: *t }, 4))
            }
            // Compute-and-store: reductions (`acc R SUM OF acc AN x`)
            // and loop increments / index arithmetic.
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::Bin(op), Op::StoreLocal(d), ..] if free(4) => {
                Some((Op::BinLLS { op: *op, a: *a, b: *b, dst: *d }, 4))
            }
            [Op::LoadLocal(a), Op::Const(k), Op::Bin(op), Op::StoreLocal(d), ..] if free(4) => {
                Some((Op::BinLCS { op: *op, a: *a, k: *k, dst: *d }, 4))
            }
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::Bin(op), ..] if free(3) => {
                Some((Op::BinLL { op: *op, a: *a, b: *b }, 3))
            }
            [Op::LoadLocal(a), Op::Const(k), Op::Bin(op), ..] if free(3) => {
                Some((Op::BinLC { op: *op, a: *a, k: *k }, 3))
            }
            // Array / symmetric-heap accesses indexed by a variable.
            [Op::LoadLocal(idx), Op::LocalArrLoad { arr }, ..] if free(2) => {
                Some((Op::LocalArrLoadL { arr: *arr, idx: *idx }, 2))
            }
            [Op::LoadLocal(idx), Op::LocalArrStore { arr, cast }, ..] if free(2) => {
                Some((Op::LocalArrStoreL { arr: *arr, idx: *idx, cast: *cast }, 2))
            }
            [Op::LoadLocal(idx), Op::SharedLoadIdx { off, len, ty, remote }, ..] if free(2) => {
                Some((
                    Op::SharedLoadIdxL {
                        off: *off,
                        len: *len,
                        ty: *ty,
                        remote: *remote,
                        idx: *idx,
                    },
                    2,
                ))
            }
            [Op::LoadLocal(idx), Op::SharedStoreIdx { off, len, ty, remote }, ..] if free(2) => {
                Some((
                    Op::SharedStoreIdxL {
                        off: *off,
                        len: *len,
                        ty: *ty,
                        remote: *remote,
                        idx: *idx,
                    },
                    2,
                ))
            }
            // `O RLY?` dispatch on IT (or any branch on a local).
            [Op::LoadLocal(s), Op::JumpIfFalse(t), ..] if free(2) => {
                Some((Op::JumpIfLocalFalse { slot: *s, target: *t }, 2))
            }
            [Op::LoadLocal(b), Op::Bin(op), ..] if free(2) => {
                Some((Op::BinSL { op: *op, b: *b }, 2))
            }
            [Op::Const(k), Op::Bin(op), ..] if free(2) => Some((Op::BinSC { op: *op, k: *k }, 2)),
            _ => None,
        };
        match fused {
            Some((op, len)) => {
                for j in 1..len {
                    map[i + j] = out.len() as u32;
                }
                out.push(op);
                i += len;
            }
            None => {
                out.push(code[i].clone());
                i += 1;
            }
        }
    }
    map[n] = out.len() as u32;

    for op in &mut out {
        match op {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::JumpIfLocalEqConst { target: t, .. }
            | Op::JumpIfLocalEqLocal { target: t, .. }
            | Op::JumpIfLocalFalse { target: t, .. }
            | Op::JumpCmpI { target: t, .. }
            | Op::JumpCmpD { target: t, .. } => {
                *t = map[*t as usize];
            }
            _ => {}
        }
    }
    out
}
