//! The SPMD tree-walking interpreter.
//!
//! One `Interp` runs per PE (per thread); they share the immutable AST
//! and analysis and communicate only through the symmetric heap, which
//! is exactly the paper's execution model: same program, multiple data.

use crate::env::{Env, Slot};
use crate::value::{arith, cast, compare, default_for, RResult, RunError, Value};
use lol_ast::*;
use lol_sema::{Analysis, SharedKind, SharedVar};
use lol_shmem::{Pe, SymAddr};
use std::collections::{HashMap, VecDeque};

/// Control flow escaping a statement.
pub(crate) enum Flow {
    Normal,
    /// `GTFO` — stops the innermost loop or switch.
    Break,
    /// `FOUND YR v` (or function-level `GTFO` with NOOB).
    Return(Value),
}

/// Maximum call depth (`I IZ ... MKAY` recursion guard).
const MAX_CALL_DEPTH: usize = 200;

pub(crate) struct Interp<'a, 'w> {
    analysis: &'a Analysis,
    pe: &'a Pe<'w>,
    /// Base of the program's symmetric segment.
    base: SymAddr,
    env: Env,
    /// Predication stack (`TXT MAH BFF`): innermost BFF last.
    bff: Vec<usize>,
    out: String,
    input: VecDeque<String>,
    funcs: HashMap<Symbol, &'a FuncDef>,
    call_depth: usize,
}

impl<'a, 'w> Interp<'a, 'w> {
    pub(crate) fn new(
        program: &'a Program,
        analysis: &'a Analysis,
        pe: &'a Pe<'w>,
        input: &[String],
    ) -> Self {
        let funcs = program.funcs.iter().map(|f| (f.name.sym, f)).collect();
        // Collectively allocate the symmetric segment (all PEs execute
        // this constructor, so the allocation sequence is uniform).
        let total = analysis.shared.total_words;
        let base = if total > 0 { pe.shmalloc(total) } else { SymAddr(0) };
        Interp {
            analysis,
            pe,
            base,
            env: Env::new(),
            bff: Vec::new(),
            out: String::new(),
            input: input.iter().cloned().collect(),
            funcs,
            call_depth: 0,
        }
    }

    /// Execute the whole program body; returns captured output.
    pub(crate) fn run(mut self, program: &'a Program) -> RResult<String> {
        for s in &program.body {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                Flow::Break | Flow::Return(_) => {
                    return Err(RunError::new("RUN0019", "GTFO/FOUND YR ESCAPED DA PROGRAM BODY"))
                }
            }
        }
        Ok(self.out)
    }

    // ------------------------------------------------------------------
    // Name / locality resolution
    // ------------------------------------------------------------------

    fn resolve_name(&mut self, vr: &VarRef) -> RResult<Symbol> {
        match &vr.name {
            VarName::Named(id) => Ok(id.sym),
            VarName::Srs(e) => {
                let v = self.eval(e)?;
                let s = v.to_yarn()?;
                Ok(Symbol::intern(&s))
            }
        }
    }

    /// Which PE's address space a reference with `locality` touches.
    fn target_pe(&self, locality: Locality) -> RResult<usize> {
        match locality {
            Locality::Ur => self.bff.last().copied().ok_or_else(|| {
                RunError::new("RUN0120", "UR OUTSIDE TXT MAH BFF — WHOS ADDRESS SPACE IZ DIS?")
            }),
            Locality::Mah | Locality::Unqualified => Ok(self.pe.id()),
        }
    }

    fn shared(&self, name: Symbol) -> Option<&'a SharedVar> {
        self.analysis.shared.get(name)
    }

    fn shared_or_err(&self, name: Symbol) -> RResult<&'a SharedVar> {
        self.shared(name).ok_or_else(|| {
            RunError::new(
                "RUN0121",
                format!("{name} IZ NOT SHARED — ONLY WE HAS A VARIABLES R REMOTE"),
            )
        })
    }

    // ------------------------------------------------------------------
    // Symmetric word <-> Value
    // ------------------------------------------------------------------

    fn shared_read(&self, sv: &SharedVar, index: usize, target: usize) -> Value {
        let addr = self.base.offset(sv.addr as usize + index);
        match sv.ty {
            LolType::Numbar => Value::Numbar(self.pe.get_f64(addr, target)),
            LolType::Troof => Value::Troof(self.pe.get_u64(addr, target) != 0),
            _ => Value::Numbr(self.pe.get_i64(addr, target)),
        }
    }

    fn shared_write(&self, sv: &SharedVar, index: usize, target: usize, v: &Value) -> RResult<()> {
        let addr = self.base.offset(sv.addr as usize + index);
        match sv.ty {
            LolType::Numbar => self.pe.put_f64(addr, target, v.to_numbar()?),
            LolType::Troof => self.pe.put_u64(addr, target, v.to_troof() as u64),
            _ => self.pe.put_i64(addr, target, v.to_numbr()?),
        }
        Ok(())
    }

    fn shared_len(sv: &SharedVar) -> RResult<usize> {
        match sv.kind {
            SharedKind::Array { len } => Ok(len),
            SharedKind::Scalar => {
                Err(RunError::new("RUN0122", format!("{} IZ A SCALAR, NOT LOTZ A THINGZ", sv.name)))
            }
        }
    }

    fn check_bounds(name: Symbol, idx: i64, len: usize) -> RResult<usize> {
        if idx < 0 || idx as usize >= len {
            Err(RunError::new(
                "RUN0123",
                format!("INDEX {idx} IZ OUTSIDE {name} (IT HAS {len} THINGZ)"),
            ))
        } else {
            Ok(idx as usize)
        }
    }

    // ------------------------------------------------------------------
    // Reads / writes
    // ------------------------------------------------------------------

    fn read_var(&mut self, vr: &VarRef) -> RResult<Value> {
        let name = self.resolve_name(vr)?;
        if vr.locality == Locality::Ur {
            let sv = self.shared_or_err(name)?;
            if matches!(sv.kind, SharedKind::Array { .. }) {
                return Err(RunError::new(
                    "RUN0011",
                    format!("{name} IZ A WHOLE ARRAY, NOT A VALUE"),
                ));
            }
            let target = self.target_pe(vr.locality)?;
            return Ok(self.shared_read(sv, 0, target));
        }
        // One scan of the environment (not contains + read).
        match self.env.get(name) {
            Some(Slot::Scalar { value, .. }) => return Ok(value.clone()),
            Some(Slot::Array { .. }) => {
                return Err(RunError::new(
                    "RUN0011",
                    format!("{name} IZ A WHOLE ARRAY, NOT A VALUE"),
                ))
            }
            None => {}
        }
        if let Some(sv) = self.shared(name) {
            if matches!(sv.kind, SharedKind::Array { .. }) {
                return Err(RunError::new(
                    "RUN0011",
                    format!("{name} IZ A WHOLE ARRAY, NOT A VALUE"),
                ));
            }
            return Ok(self.shared_read(sv, 0, self.pe.id()));
        }
        Err(RunError::new("RUN0010", format!("WHO IZ {name}?")))
    }

    fn write_var(&mut self, vr: &VarRef, v: Value) -> RResult<()> {
        let name = self.resolve_name(vr)?;
        if vr.locality == Locality::Ur {
            let sv = self.shared_or_err(name)?;
            if matches!(sv.kind, SharedKind::Array { .. }) {
                return Err(RunError::new(
                    "RUN0011",
                    format!("{name} IZ A WHOLE ARRAY — ASSIGN ELEMENTS OR COPY AN ARRAY"),
                ));
            }
            let target = self.target_pe(vr.locality)?;
            return self.shared_write(sv, 0, target, &v);
        }
        match self.env.get_mut(name) {
            Some(Slot::Scalar { value, pinned }) => {
                *value = match pinned {
                    Some(ty) => cast(&v, *ty)?,
                    None => v,
                };
                return Ok(());
            }
            Some(Slot::Array { .. }) => {
                return Err(RunError::new(
                    "RUN0011",
                    format!("{name} IZ A WHOLE ARRAY — ASSIGN ELEMENTS WIF {name}'Z idx"),
                ))
            }
            None => {}
        }
        if let Some(sv) = self.shared(name) {
            if matches!(sv.kind, SharedKind::Array { .. }) {
                return Err(RunError::new(
                    "RUN0011",
                    format!("{name} IZ A WHOLE ARRAY — ASSIGN ELEMENTS OR COPY AN ARRAY"),
                ));
            }
            return self.shared_write(sv, 0, self.pe.id(), &v);
        }
        Err(RunError::new("RUN0010", format!("WHO IZ {name}?")))
    }

    fn read_index(&mut self, arr: &VarRef, idx: &Expr) -> RResult<Value> {
        let name = self.resolve_name(arr)?;
        let i = self.eval(idx)?.to_numbr()?;
        if arr.locality != Locality::Ur {
            match self.env.get(name) {
                Some(Slot::Array { elems, .. }) => {
                    let i = Self::check_bounds(name, i, elems.len())?;
                    return Ok(elems[i].clone());
                }
                Some(Slot::Scalar { .. }) => {
                    return Err(RunError::new("RUN0122", format!("{name} IZ NOT LOTZ A THINGZ")))
                }
                None => {}
            }
        }
        let sv = self.shared_or_err(name)?;
        let len = Self::shared_len(sv)?;
        let i = Self::check_bounds(name, i, len)?;
        let target = self.target_pe(arr.locality)?;
        Ok(self.shared_read(sv, i, target))
    }

    fn write_index(&mut self, arr: &VarRef, idx: &Expr, v: Value) -> RResult<()> {
        let name = self.resolve_name(arr)?;
        let i = self.eval(idx)?.to_numbr()?;
        if arr.locality != Locality::Ur {
            match self.env.get_mut(name) {
                Some(Slot::Array { elems, ty }) => {
                    let i = Self::check_bounds(name, i, elems.len())?;
                    elems[i] = cast(&v, *ty)?;
                    return Ok(());
                }
                Some(Slot::Scalar { .. }) => {
                    return Err(RunError::new("RUN0122", format!("{name} IZ NOT LOTZ A THINGZ")))
                }
                None => {}
            }
        }
        let sv = self.shared_or_err(name)?;
        let len = Self::shared_len(sv)?;
        let i = Self::check_bounds(name, i, len)?;
        let target = self.target_pe(arr.locality)?;
        self.shared_write(sv, i, target, &v)
    }

    /// Does this reference name an array (in its locality)?
    fn is_array_ref(&mut self, vr: &VarRef) -> RResult<bool> {
        let name = self.resolve_name(vr)?;
        if vr.locality != Locality::Ur {
            if let Some(slot) = self.env.get(name) {
                return Ok(matches!(slot, Slot::Array { .. }));
            }
        }
        Ok(self.shared(name).map(|sv| matches!(sv.kind, SharedKind::Array { .. })).unwrap_or(false))
    }

    /// Whole-array copy: `MAH array R UR array` (Section VI.A).
    fn array_copy(&mut self, dst: &VarRef, src: &VarRef) -> RResult<()> {
        // Read the source into values.
        let src_name = self.resolve_name(src)?;
        let local_src = if src.locality != Locality::Ur {
            match self.env.get(src_name) {
                Some(Slot::Array { elems, .. }) => Some(elems.clone()),
                Some(Slot::Scalar { .. }) => {
                    return Err(RunError::new(
                        "RUN0122",
                        format!("{src_name} IZ NOT LOTZ A THINGZ"),
                    ))
                }
                None => None,
            }
        } else {
            None
        };
        let values: Vec<Value> = match local_src {
            Some(v) => v,
            None => {
                let sv = self.shared_or_err(src_name)?;
                let len = Self::shared_len(sv)?;
                let target = self.target_pe(src.locality)?;
                (0..len).map(|i| self.shared_read(sv, i, target)).collect()
            }
        };

        // Write into the destination.
        let dst_name = self.resolve_name(dst)?;
        if dst.locality != Locality::Ur {
            match self.env.get_mut(dst_name) {
                Some(Slot::Array { elems, ty }) => {
                    let converted: RResult<Vec<Value>> =
                        values.iter().map(|v| cast(v, *ty)).collect();
                    *elems = converted?;
                    return Ok(());
                }
                Some(Slot::Scalar { .. }) => {
                    return Err(RunError::new(
                        "RUN0122",
                        format!("{dst_name} IZ NOT LOTZ A THINGZ"),
                    ))
                }
                None => {}
            }
        }
        {
            let sv = self.shared_or_err(dst_name)?;
            let len = Self::shared_len(sv)?;
            if len != values.len() {
                return Err(RunError::new(
                    "RUN0013",
                    format!(
                        "ARRAY COPY SIZE MISMATCH: {dst_name} HAS {len} THINGZ, SOURCE HAS {}",
                        values.len()
                    ),
                ));
            }
            let target = self.target_pe(dst.locality)?;
            for (i, v) in values.iter().enumerate() {
                self.shared_write(sv, i, target, v)?;
            }
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    pub(crate) fn eval(&mut self, e: &Expr) -> RResult<Value> {
        match &e.kind {
            ExprKind::Lit(l) => self.literal(l),
            ExprKind::Var(vr) => self.read_var(vr),
            ExprKind::Index { arr, idx } => self.read_index(arr, idx),
            ExprKind::Bin { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                self.binop(*op, a, b)
            }
            ExprKind::Un { op, expr } => {
                let v = self.eval(expr)?;
                self.unop(*op, v)
            }
            ExprKind::Nary { op, args } => self.naryop(*op, args),
            ExprKind::Cast { expr, ty } => {
                let v = self.eval(expr)?;
                cast(&v, *ty)
            }
            ExprKind::Call { name, args } => self.call(name.sym, args),
            ExprKind::Me => Ok(Value::Numbr(self.pe.id() as i64)),
            ExprKind::MahFrenz => Ok(Value::Numbr(self.pe.n_pes() as i64)),
            ExprKind::Whatevr => Ok(Value::Numbr(self.pe.rand_i64())),
            ExprKind::Whatevar => Ok(Value::Numbar(self.pe.rand_f64())),
        }
    }

    fn literal(&mut self, l: &Lit) -> RResult<Value> {
        Ok(match l {
            Lit::Numbr(n) => Value::Numbr(*n),
            Lit::Numbar(f) => Value::Numbar(*f),
            Lit::Troof(b) => Value::Troof(*b),
            Lit::Noob => Value::Noob,
            Lit::Yarn(parts) => {
                let mut s = String::new();
                for p in parts {
                    match p {
                        YarnPart::Text(t) => s.push_str(t),
                        YarnPart::Var(id) => {
                            let vr = VarRef::named(*id);
                            self.read_var(&vr)?.push_yarn(&mut s)?;
                        }
                    }
                }
                Value::yarn(s)
            }
        })
    }

    fn binop(&mut self, op: BinOp, a: Value, b: Value) -> RResult<Value> {
        use BinOp::*;
        match op {
            Sum | Diff | Produkt | Quoshunt | Mod | BiggrOf | SmallrOf => arith(op, &a, &b),
            Bigger | Smallr => compare(op, &a, &b),
            BothSaem => Ok(Value::Troof(a.saem(&b))),
            Diffrint => Ok(Value::Troof(!a.saem(&b))),
            BothOf => Ok(Value::Troof(a.to_troof() && b.to_troof())),
            EitherOf => Ok(Value::Troof(a.to_troof() || b.to_troof())),
            WonOf => Ok(Value::Troof(a.to_troof() ^ b.to_troof())),
        }
    }

    fn unop(&mut self, op: UnOp, v: Value) -> RResult<Value> {
        match op {
            UnOp::Not => Ok(Value::Troof(!v.to_troof())),
            // Table III: SQUAR OF = v*v (preserves NUMBR-ness).
            UnOp::Squar => arith(BinOp::Produkt, &v, &v),
            UnOp::Unsquar => Ok(Value::Numbar(v.to_numbar()?.sqrt())),
            UnOp::Flip => {
                let f = v.to_numbar()?;
                Ok(Value::Numbar(1.0 / f))
            }
        }
    }

    fn naryop(&mut self, op: NaryOp, args: &[Expr]) -> RResult<Value> {
        match op {
            NaryOp::AllOf => {
                let mut acc = true;
                for a in args {
                    acc &= self.eval(a)?.to_troof();
                }
                Ok(Value::Troof(acc))
            }
            NaryOp::AnyOf => {
                let mut acc = false;
                for a in args {
                    acc |= self.eval(a)?.to_troof();
                }
                Ok(Value::Troof(acc))
            }
            NaryOp::Smoosh => {
                // Every operand runs before any renders, as on the
                // other engines: a NOOB operand faults only after the
                // calls among the later ones.
                let vals = args.iter().map(|a| self.eval(a)).collect::<RResult<Vec<_>>>()?;
                let mut s = String::new();
                for v in &vals {
                    v.push_yarn(&mut s)?;
                }
                Ok(Value::yarn(s))
            }
        }
    }

    fn call(&mut self, name: Symbol, args: &[Expr]) -> RResult<Value> {
        let Some(fd) = self.funcs.get(&name).copied() else {
            return Err(RunError::new("RUN0018", format!("I DUNNO HOW IZ I {name}")));
        };
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(RunError::new(
                "RUN0130",
                format!("2 MUCH RECURSHUN IN {name} (DEPTH {MAX_CALL_DEPTH})"),
            ));
        }
        if fd.params.len() != args.len() {
            return Err(RunError::new(
                "RUN0131",
                format!("{name} TAKES {} ARGS, GOT {}", fd.params.len(), args.len()),
            ));
        }
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a)?);
        }
        // Fresh frame: functions see params + IT (+ shared vars, which
        // bypass the environment entirely). The frame floor hides every
        // caller binding without allocating a new environment.
        self.env.push_frame();
        for (p, v) in fd.params.iter().zip(argv) {
            self.env.declare(p.sym, Slot::Scalar { value: v, pinned: None });
        }
        self.call_depth += 1;
        let mut result: Option<RResult<Value>> = None;
        for s in &fd.body {
            match self.exec_stmt(s) {
                Ok(Flow::Normal) => {}
                Ok(Flow::Return(v)) => {
                    result = Some(Ok(v));
                    break;
                }
                Ok(Flow::Break) => {
                    // GTFO at function level returns NOOB (LOLCODE 1.2).
                    result = Some(Ok(Value::Noob));
                    break;
                }
                Err(e) => {
                    result = Some(Err(e));
                    break;
                }
            }
        }
        // Fall-through returns the function's IT (LOLCODE 1.2) — read
        // it before the frame unwinds.
        let result = result.unwrap_or_else(|| self.env.read_scalar(Symbol::it()));
        self.call_depth -= 1;
        self.env.pop_frame();
        result
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    pub(crate) fn exec_stmt(&mut self, s: &Stmt) -> RResult<Flow> {
        match &s.kind {
            StmtKind::Declare(d) => {
                self.exec_decl(d)?;
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, value } => {
                self.exec_assign(target, value)?;
                Ok(Flow::Normal)
            }
            StmtKind::ExprStmt(e) => {
                let v = self.eval(e)?;
                self.env.assign_scalar(Symbol::it(), v)?;
                Ok(Flow::Normal)
            }
            StmtKind::Visible { args, newline } => {
                for a in args {
                    self.eval(a)?.push_yarn(&mut self.out)?;
                }
                if *newline {
                    self.out.push('\n');
                }
                Ok(Flow::Normal)
            }
            StmtKind::Gimmeh(lv) => {
                let line = self
                    .input
                    .pop_front()
                    .ok_or_else(|| RunError::new("RUN0140", "GIMMEH BUT THERES NO MOAR INPUT"))?;
                let v = Value::yarn(line);
                self.write_lvalue(lv, v)?;
                Ok(Flow::Normal)
            }
            StmtKind::If(ifs) => self.exec_if(ifs),
            StmtKind::Switch(sw) => self.exec_switch(sw),
            StmtKind::Loop(lp) => self.exec_loop(lp),
            StmtKind::Gtfo => Ok(Flow::Break),
            StmtKind::FoundYr(e) => {
                let v = self.eval(e)?;
                Ok(Flow::Return(v))
            }
            StmtKind::IsNowA { target, ty } => {
                self.exec_is_now_a(target, *ty)?;
                Ok(Flow::Normal)
            }
            StmtKind::Hugz => {
                self.pe.barrier_all();
                Ok(Flow::Normal)
            }
            StmtKind::LockAcquire(vr) => {
                let (addr, target) = self.lock_target(vr)?;
                self.pe.lock(addr, target);
                self.env.assign_scalar(Symbol::it(), Value::Troof(true))?;
                Ok(Flow::Normal)
            }
            StmtKind::LockTry(vr) => {
                let (addr, target) = self.lock_target(vr)?;
                let got = self.pe.try_lock(addr, target);
                self.env.assign_scalar(Symbol::it(), Value::Troof(got))?;
                Ok(Flow::Normal)
            }
            StmtKind::LockRelease(vr) => {
                let (addr, target) = self.lock_target(vr)?;
                self.pe.unlock(addr, target);
                Ok(Flow::Normal)
            }
            StmtKind::TxtStmt { pe, stmt } => {
                let k = self.eval_bff(pe)?;
                self.bff.push(k);
                let r = self.exec_stmt(stmt);
                self.bff.pop();
                r
            }
            StmtKind::TxtBlock { pe, body } => {
                let k = self.eval_bff(pe)?;
                self.bff.push(k);
                self.env.push_scope();
                let mut flow = Flow::Normal;
                let mut err = None;
                for st in body {
                    match self.exec_stmt(st) {
                        Ok(Flow::Normal) => {}
                        Ok(f) => {
                            flow = f;
                            break;
                        }
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    }
                }
                self.env.pop_scope();
                self.bff.pop();
                match err {
                    Some(e) => Err(e),
                    None => Ok(flow),
                }
            }
        }
    }

    fn eval_bff(&mut self, pe_expr: &Expr) -> RResult<usize> {
        let k = self.eval(pe_expr)?.to_numbr()?;
        if k < 0 || k as usize >= self.pe.n_pes() {
            return Err(RunError::new(
                "RUN0017",
                format!("PE {k} IZ NOT MAH FREN (THERE R ONLY {} OF US)", self.pe.n_pes()),
            ));
        }
        Ok(k as usize)
    }

    fn lock_target(&mut self, vr: &VarRef) -> RResult<(SymAddr, usize)> {
        let name = self.resolve_name(vr)?;
        let sv = self.shared_or_err(name)?;
        let Some(lock_off) = sv.lock else {
            return Err(RunError::new(
                "RUN0016",
                format!("{name} HAS NO LOCK — DECLARE IT WIF AN IM SHARIN IT"),
            ));
        };
        let target = self.target_pe(vr.locality)?;
        Ok((self.base.offset(lock_off as usize), target))
    }

    fn exec_decl(&mut self, d: &Decl) -> RResult<()> {
        match d.scope {
            DeclScope::We => {
                // Storage was laid out statically; run the initializer
                // (own instance only).
                if let Some(init) = &d.init {
                    let v = self.eval(init)?;
                    let sv = self.shared_or_err(d.name.sym)?;
                    if matches!(sv.kind, SharedKind::Scalar) {
                        self.shared_write(sv, 0, self.pe.id(), &v)?;
                    }
                }
                Ok(())
            }
            DeclScope::I => {
                if let Some(size) = &d.array_size {
                    let n = self.eval(size)?.to_numbr()?;
                    if n <= 0 {
                        return Err(RunError::new(
                            "RUN0014",
                            format!("ARRAY SIZE MUST BE POSITIVE, NOT {n}"),
                        ));
                    }
                    let ty = d.ty.unwrap_or(LolType::Noob);
                    self.env.declare(
                        d.name.sym,
                        Slot::Array { elems: vec![default_for(ty); n as usize], ty },
                    );
                } else {
                    let value = match (&d.init, d.ty) {
                        (Some(init), Some(ty)) => cast(&self.eval(init)?, ty)?,
                        (Some(init), None) => self.eval(init)?,
                        (None, Some(ty)) => default_for(ty),
                        (None, None) => Value::Noob,
                    };
                    let pinned = if d.srsly { d.ty } else { None };
                    self.env.declare(d.name.sym, Slot::Scalar { value, pinned });
                }
                Ok(())
            }
        }
    }

    fn exec_assign(&mut self, target: &LValue, value: &Expr) -> RResult<()> {
        match target {
            LValue::Var(dst) => {
                // Whole-array copy path (Section VI.A: MAH array R UR
                // array).
                if let ExprKind::Var(src) = &value.kind {
                    let d_arr = self.is_array_ref(dst)?;
                    let s_arr = self.is_array_ref(src)?;
                    match (d_arr, s_arr) {
                        (true, true) => return self.array_copy(dst, src),
                        (true, false) | (false, true) => {
                            return Err(RunError::new(
                                "RUN0012",
                                "U CANT MIX A WHOLE ARRAY AN A SCALAR IN ONE ASSIGNMENT",
                            ))
                        }
                        (false, false) => {}
                    }
                } else if self.is_array_ref(dst)? {
                    return Err(RunError::new(
                        "RUN0012",
                        "AN ARRAY CAN ONLY BE ASSIGNED FROM ANOTHER ARRAY",
                    ));
                }
                let v = self.eval(value)?;
                self.write_var(dst, v)
            }
            LValue::Index { arr, idx, .. } => {
                let v = self.eval(value)?;
                self.write_index(arr, idx, v)
            }
        }
    }

    fn write_lvalue(&mut self, lv: &LValue, v: Value) -> RResult<()> {
        match lv {
            LValue::Var(vr) => self.write_var(vr, v),
            LValue::Index { arr, idx, .. } => self.write_index(arr, idx, v),
        }
    }

    fn exec_is_now_a(&mut self, target: &LValue, ty: LolType) -> RResult<()> {
        match target {
            LValue::Var(vr) => {
                let name = self.resolve_name(vr)?;
                if vr.locality != Locality::Ur {
                    match self.env.get_mut(name) {
                        Some(Slot::Scalar { value, pinned }) => {
                            *value = cast(value, ty)?;
                            if pinned.is_some() {
                                *pinned = Some(ty);
                            }
                            return Ok(());
                        }
                        Some(Slot::Array { .. }) => {
                            return Err(RunError::new(
                                "RUN0011",
                                format!("{name} IZ A WHOLE ARRAY, NOT A VALUE"),
                            ))
                        }
                        None => {}
                    }
                }
                Err(RunError::new(
                    "RUN0015",
                    format!("{name} LIVES IN SYMMETRIC MEMORY — ITS TYPE IZ FIXED 4EVER"),
                ))
            }
            LValue::Index { .. } => {
                Err(RunError::new("RUN0015", "ARRAY ELEMENTS KEEP DA ARRAY'S TYPE"))
            }
        }
    }

    fn exec_if(&mut self, ifs: &IfStmt) -> RResult<Flow> {
        let it = self.env.read_scalar(Symbol::it())?;
        if it.to_troof() {
            return self.exec_block(&ifs.then_block);
        }
        for m in &ifs.mebbes {
            let c = self.eval(&m.cond)?;
            if c.to_troof() {
                return self.exec_block(&m.body);
            }
        }
        if let Some(e) = &ifs.else_block {
            return self.exec_block(e);
        }
        Ok(Flow::Normal)
    }

    fn exec_switch(&mut self, sw: &SwitchStmt) -> RResult<Flow> {
        let it = self.env.read_scalar(Symbol::it())?;
        // Find the first matching arm.
        let mut start = None;
        for (i, arm) in sw.arms.iter().enumerate() {
            let lit_v = self.literal(&arm.value)?;
            if it.saem(&lit_v) {
                start = Some(i);
                break;
            }
        }
        match start {
            Some(i) => {
                // Fallthrough: run arms i.. then default, until GTFO.
                for arm in &sw.arms[i..] {
                    match self.exec_block(&arm.body)? {
                        Flow::Normal => {}
                        Flow::Break => return Ok(Flow::Normal),
                        f @ Flow::Return(_) => return Ok(f),
                    }
                }
                if let Some(d) = &sw.default {
                    match self.exec_block(d)? {
                        Flow::Normal | Flow::Break => {}
                        f @ Flow::Return(_) => return Ok(f),
                    }
                }
                Ok(Flow::Normal)
            }
            None => {
                if let Some(d) = &sw.default {
                    match self.exec_block(d)? {
                        Flow::Normal | Flow::Break => Ok(Flow::Normal),
                        f @ Flow::Return(_) => Ok(f),
                    }
                } else {
                    Ok(Flow::Normal)
                }
            }
        }
    }

    fn exec_loop(&mut self, lp: &LoopStmt) -> RResult<Flow> {
        self.env.push_scope();
        if let Some((_, var)) = &lp.update {
            self.env.declare(var.sym, Slot::Scalar { value: Value::Numbr(0), pinned: None });
        }
        let mut out = Flow::Normal;
        loop {
            // Guard first (TIL stops when WIN, WILE stops when FAIL).
            if let Some((kind, guard)) = &lp.guard {
                let g = match self.eval(guard) {
                    Ok(v) => v.to_troof(),
                    Err(e) => {
                        self.env.pop_scope();
                        return Err(e);
                    }
                };
                let stop = match kind {
                    GuardKind::Til => g,
                    GuardKind::Wile => !g,
                };
                if stop {
                    break;
                }
            }
            // Body.
            let mut broke = false;
            for st in &lp.body {
                match self.exec_stmt(st) {
                    Ok(Flow::Normal) => {}
                    Ok(Flow::Break) => {
                        broke = true;
                        break;
                    }
                    Ok(f @ Flow::Return(_)) => {
                        self.env.pop_scope();
                        return Ok(f);
                    }
                    Err(e) => {
                        self.env.pop_scope();
                        return Err(e);
                    }
                }
            }
            if broke {
                break;
            }
            // Update clause.
            if let Some((dir, var)) = &lp.update {
                let cur = match self.env.read_scalar(var.sym) {
                    Ok(v) => v,
                    Err(e) => {
                        self.env.pop_scope();
                        return Err(e);
                    }
                };
                let delta = Value::Numbr(1);
                let op = match dir {
                    LoopDir::Uppin => BinOp::Sum,
                    LoopDir::Nerfin => BinOp::Diff,
                };
                let next = match arith(op, &cur, &delta) {
                    Ok(v) => v,
                    Err(e) => {
                        self.env.pop_scope();
                        return Err(e);
                    }
                };
                if let Err(e) = self.env.assign_scalar(var.sym, next) {
                    self.env.pop_scope();
                    return Err(e);
                }
            } else if lp.guard.is_none() {
                // Infinite loop without GTFO would spin forever; that is
                // the program's own business (matches lci).
            }
            out = Flow::Normal;
        }
        self.env.pop_scope();
        Ok(out)
    }

    fn exec_block(&mut self, b: &Block) -> RResult<Flow> {
        self.env.push_scope();
        let mut flow = Flow::Normal;
        for st in b {
            match self.exec_stmt(st) {
                Ok(Flow::Normal) => {}
                Ok(f) => {
                    flow = f;
                    break;
                }
                Err(e) => {
                    self.env.pop_scope();
                    return Err(e);
                }
            }
        }
        self.env.pop_scope();
        Ok(flow)
    }
}
