//! AST → bytecode compiler.
//!
//! Resolution that the tree-walker repeats on every execution happens
//! exactly once here: variable names become frame slots, shared names
//! become heap offsets, pinned (`ITZ SRSLY A`) types become explicit
//! `Cast` instructions, and control flow becomes jumps. The dynamic
//! constructs that cannot be resolved statically (`SRS`) are rejected
//! with a compile error — the documented compiled-subset restriction
//! (DESIGN.md §3.11).
//!
//! # Typed lowering
//!
//! [`FnCompiler::expr`] returns each expression's static type ([`Ty`])
//! bottom-up in the same pass that emits it, and the compiler emits no
//! coercion the types prove redundant: the `Cast` before a pinned store
//! or a typed declaration's initializer, the per-element cast of a
//! local-array store, and interpolation's `Cast(Yarn)`. The type facts
//! are literals, pinned locals (sema's SEM0024 forbids retyping them),
//! local-array elements (every store casts to the element type),
//! symmetric scalars and arrays (typed as `shared_read` materializes
//! them), `MAEK`, arithmetic promotion, the TROOF/YARN/NUMBAR results of
//! the logic, `SMOOSH` and root/reciprocal operators, `ME`/`MAH FRENZ`/
//! `WHATEVR`/`WHATEVAR`, and counted-loop counters the loop body never
//! stores to. Calls, parameters and unpinned locals are unknown. The
//! operator, symmetric-read and counter rules live in
//! [`lol_sema::types`], shared with the C emitter's typed lowering. On
//! `nbody_bench` this leaves no cast in any innermost loop and cuts a
//! 1-PE run from 8.80M to 8.08M dispatches (see docs/PERF.md).

use crate::ops::{ArrLoc, Chunk, Module, Op};
use lol_ast::diag::Diagnostic;
use lol_ast::*;
use lol_interp::Value;
use lol_sema::types::{bin_ty, counter_ty, shared_ty, un_ty, Ty};
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
        for s in &program.body {
            c.stmt(s)?;
        }
        c.leave_scope();
        c.code.push(Op::Halt);
        module.main = Chunk { code: peephole(c.code), n_slots: c.n_slots, n_arrays: c.n_arrays };
    }

    // Function chunks.
    for f in &program.funcs {
        let mut c = FnCompiler::new(analysis, &func_ids, &mut module.consts, true);
        c.enter_scope();
        for p in &f.params {
            let slot = c.alloc_slot(p.sym, SlotKind::UNTYPED);
            debug_assert!(slot >= 1);
        }
        for s in &f.body {
            c.stmt(s)?;
        }
        c.leave_scope();
        // Fall-through returns IT.
        c.code.push(Op::LoadLocal(0));
        c.code.push(Op::Ret);
        module.funcs.push((
            f.name.sym.as_str().to_string(),
            Chunk { code: peephole(c.code), n_slots: c.n_slots, n_arrays: c.n_arrays },
            f.params.len() as u8,
        ));
    }

    module.shared_words = analysis.shared.total_words;
    Ok(module)
}

#[derive(Clone)]
enum SlotKind {
    /// `ty` is the type every value in the slot has, when known;
    /// `pinned` slots (`ITZ SRSLY A`) coerce every store to it.
    Scalar { ty: Ty, pinned: bool },
    /// A local array; its elements are always of type `elem`.
    Array { elem: LolType },
}

impl SlotKind {
    const UNTYPED: SlotKind = SlotKind::Scalar { ty: None, pinned: false };
}

#[derive(Clone)]
struct LocalSlot {
    slot: u16,
    kind: SlotKind,
}

struct FnCompiler<'a> {
    analysis: &'a Analysis,
    func_ids: &'a HashMap<Symbol, u16>,
    consts: &'a mut Vec<Value>,
    code: Vec<Op>,
    scopes: Vec<HashMap<Symbol, LocalSlot>>,
    n_slots: u16,
    n_arrays: u16,
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
            scopes: vec![],
            n_slots: 1, // slot 0 = IT
            n_arrays: 0,
            break_frames: Vec::new(),
            in_function,
        }
    }

    // -- helpers -------------------------------------------------------

    fn enter_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn leave_scope(&mut self) {
        self.scopes.pop();
    }

    /// Allocate a slot index in the space matching `kind` (scalars and
    /// arrays index disjoint per-frame tables).
    fn alloc_slot(&mut self, name: Symbol, kind: SlotKind) -> u16 {
        let counter = match kind {
            SlotKind::Scalar { .. } => &mut self.n_slots,
            SlotKind::Array { .. } => &mut self.n_arrays,
        };
        let slot = *counter;
        *counter += 1;
        self.scopes.last_mut().expect("scope").insert(name, LocalSlot { slot, kind });
        slot
    }

    fn lookup(&self, name: Symbol) -> Option<LocalSlot> {
        if let Some(ls) = self.scopes.iter().rev().find_map(|s| s.get(&name)) {
            return Some(ls.clone());
        }
        // `IT` is implicitly slot 0 of every frame.
        if name == Symbol::it() {
            return Some(LocalSlot { slot: 0, kind: SlotKind::UNTYPED });
        }
        None
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

    /// Emit `op`, whose result has type `ty`.
    fn typed(&mut self, op: Op, ty: LolType) -> Ty {
        self.code.push(op);
        Some(ty)
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
            Op::Jump(t) | Op::JumpIfFalse(t) => *t = target,
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
        if vr.locality != Locality::Ur {
            if let Some(ls) = self.lookup(name) {
                return Ok(matches!(ls.kind, SlotKind::Array { .. }));
            }
        }
        Ok(self.shared(name).map(|sv| matches!(sv.kind, SharedKind::Array { .. })).unwrap_or(false))
    }

    fn arr_loc(&self, vr: &VarRef) -> CResult<ArrLoc> {
        let name = self.named(vr)?;
        if vr.locality != Locality::Ur {
            if let Some(ls) = self.lookup(name) {
                if matches!(ls.kind, SlotKind::Array { .. }) {
                    return Ok(ArrLoc::Local { arr: ls.slot });
                }
            }
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

    // -- expressions ---------------------------------------------------

    /// Emit `e` and return its static type.
    fn expr(&mut self, e: &Expr) -> CResult<Ty> {
        Ok(match &e.kind {
            ExprKind::Lit(l) => self.literal(l, e.span)?,
            ExprKind::Var(vr) => self.var_read(vr)?,
            ExprKind::Index { arr, idx } => {
                let name = self.named(arr)?;
                if arr.locality != Locality::Ur {
                    if let Some(ls) = self.lookup(name) {
                        match ls.kind {
                            SlotKind::Array { elem } => {
                                self.expr(idx)?;
                                self.code.push(Op::LocalArrLoad { arr: ls.slot });
                                return Ok(Some(elem));
                            }
                            SlotKind::Scalar { .. } => {
                                return Err(self.err(
                                    "VMC0002",
                                    format!("{name} IZ NOT LOTZ A THINGZ"),
                                    arr.span,
                                ))
                            }
                        }
                    }
                }
                let sv = self
                    .shared(name)
                    .ok_or_else(|| self.err("VMC0002", format!("WHO IZ {name}?"), arr.span))?;
                let SharedKind::Array { len } = sv.kind else {
                    return Err(self.err("VMC0002", format!("{name} IZ A SCALAR"), arr.span));
                };
                self.expr(idx)?;
                self.code.push(Op::SharedLoadIdx {
                    off: sv.addr,
                    len: len as u32,
                    ty: sv.ty,
                    remote: arr.locality == Locality::Ur,
                });
                Some(shared_ty(sv.ty))
            }
            ExprKind::Bin { op, lhs, rhs } => {
                let a = self.expr(lhs)?;
                let b = self.expr(rhs)?;
                self.code.push(Op::Bin(*op));
                bin_ty(*op, a, b)
            }
            ExprKind::Un { op, expr } => {
                let t = self.expr(expr)?;
                self.code.push(Op::Un(*op));
                un_ty(*op, t)
            }
            ExprKind::Nary { op, args } => {
                for a in args {
                    self.expr(a)?;
                }
                let n = args.len() as u8;
                match op {
                    NaryOp::AllOf => self.typed(Op::AllOf(n), LolType::Troof),
                    NaryOp::AnyOf => self.typed(Op::AnyOf(n), LolType::Troof),
                    NaryOp::Smoosh => self.typed(Op::Smoosh(n), LolType::Yarn),
                }
            }
            ExprKind::Cast { expr, ty } => {
                let src = self.expr(expr)?;
                self.coerce(src, *ty);
                Some(*ty)
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
                self.code.push(Op::Call { func, argc: args.len() as u8 });
                None
            }
            ExprKind::Me => self.typed(Op::Me, LolType::Numbr),
            ExprKind::MahFrenz => self.typed(Op::MahFrenz, LolType::Numbr),
            ExprKind::Whatevr => self.typed(Op::RandI, LolType::Numbr),
            ExprKind::Whatevar => self.typed(Op::RandF, LolType::Numbar),
        })
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
        if vr.locality != Locality::Ur {
            if let Some(ls) = self.lookup(name) {
                return match ls.kind {
                    SlotKind::Scalar { ty, .. } => {
                        self.code.push(Op::LoadLocal(ls.slot));
                        Ok(ty)
                    }
                    SlotKind::Array { .. } => Err(self.err(
                        "VMC0004",
                        format!("{name} IZ A WHOLE ARRAY, NOT A VALUE"),
                        vr.span,
                    )),
                };
            }
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
        if vr.locality != Locality::Ur {
            if let Some(ls) = self.lookup(name) {
                return match ls.kind {
                    SlotKind::Scalar { ty, pinned } => {
                        if let (true, Some(ty)) = (pinned, ty) {
                            self.coerce(src, ty);
                        }
                        self.code.push(Op::StoreLocal(ls.slot));
                        Ok(())
                    }
                    SlotKind::Array { .. } => Err(self.err(
                        "VMC0004",
                        format!("{name} IZ A WHOLE ARRAY — ASSIGN ELEMENTS"),
                        vr.span,
                    )),
                };
            }
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
                if arr.locality != Locality::Ur {
                    if let Some(ls) = self.lookup(name) {
                        return match ls.kind {
                            SlotKind::Array { elem } => {
                                // The cast (when needed) stays inside the
                                // op, after the index check, so faults
                                // keep their order.
                                let cast = src != Some(elem);
                                self.code.push(Op::LocalArrStore { arr: ls.slot, cast });
                                Ok(())
                            }
                            SlotKind::Scalar { .. } => Err(self.err(
                                "VMC0002",
                                format!("{name} IZ NOT LOTZ A THINGZ"),
                                arr.span,
                            )),
                        };
                    }
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

    // -- statements ----------------------------------------------------

    fn block(&mut self, b: &Block) -> CResult<()> {
        self.enter_scope();
        for s in b {
            self.stmt(s)?;
        }
        self.leave_scope();
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
                for a in args {
                    self.expr(a)?;
                }
                self.code.push(Op::Visible { argc: args.len() as u8, newline: *newline });
                Ok(())
            }
            StmtKind::Gimmeh(lv) => {
                self.code.push(Op::ReadLine);
                self.store_lvalue(lv, Some(LolType::Yarn))
            }
            StmtKind::If(ifs) => self.if_stmt(ifs),
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
                    Ok(())
                } else {
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
                    let pinned = if d.srsly { d.ty } else { None };
                    let kind = SlotKind::Scalar { ty: pinned, pinned: pinned.is_some() };
                    let slot = self.alloc_slot(d.name.sym, kind);
                    self.code.push(Op::StoreLocal(slot));
                    Ok(())
                }
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
        }
        let src = self.expr(value)?;
        self.store_lvalue(target, src)
    }

    fn if_stmt(&mut self, ifs: &IfStmt) -> CResult<()> {
        // IT is the scrutinee. An arm jumps to the end only when another
        // arm follows it: the last one falls through.
        let n_arms = 1 + ifs.mebbes.len() + ifs.else_block.is_some() as usize;
        self.code.push(Op::LoadLocal(0));
        let to_next = self.emit_jump_placeholder(Op::JumpIfFalse);
        self.block(&ifs.then_block)?;
        let mut to_end = Vec::new();
        if n_arms > 1 {
            to_end.push(self.emit_jump_placeholder(Op::Jump));
        }
        self.patch_jump(to_next);
        for (i, m) in ifs.mebbes.iter().enumerate() {
            self.expr(&m.cond)?;
            let skip = self.emit_jump_placeholder(Op::JumpIfFalse);
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
        let update_slot = match &lp.update {
            Some((_, var)) => {
                let ty = counter_ty(lp);
                let slot = self.alloc_slot(var.sym, SlotKind::Scalar { ty, pinned: false });
                self.emit_const(Value::Numbr(0));
                self.code.push(Op::StoreLocal(slot));
                Some(slot)
            }
            None => None,
        };
        self.break_frames.push(Vec::new());
        let start = self.here() as u32;
        let mut guard_exit = None;
        if let Some((kind, guard)) = &lp.guard {
            self.expr(guard)?;
            if matches!(kind, GuardKind::Til) {
                self.code.push(Op::Un(UnOp::Not));
            }
            guard_exit = Some(self.emit_jump_placeholder(Op::JumpIfFalse));
        }
        for st in &lp.body {
            self.stmt(st)?;
        }
        if let (Some(slot), Some((dir, _))) = (update_slot, &lp.update) {
            self.code.push(Op::LoadLocal(slot));
            self.emit_const(Value::Numbr(1));
            self.code.push(Op::Bin(match dir {
                LoopDir::Uppin => BinOp::Sum,
                LoopDir::Nerfin => BinOp::Diff,
            }));
            self.code.push(Op::StoreLocal(slot));
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
            Op::Jump(t) | Op::JumpIfFalse(t) => is_target[*t as usize] = true,
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
            // Stores to pinned (`ITZ SRSLY A`) variables.
            [Op::Cast(ty), Op::StoreLocal(s), ..] if free(2) => {
                Some((Op::CastStore { ty: *ty, slot: *s }, 2))
            }
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
            | Op::JumpIfLocalFalse { target: t, .. } => {
                *t = map[*t as usize];
            }
            _ => {}
        }
    }
    out
}
