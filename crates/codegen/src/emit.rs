//! The C emitter: analyzed AST → one C99 translation unit.
//!
//! Mirrors the paper's `lcc`: shared declarations become static
//! symmetric objects, remote references become `shmem_*_g`/`shmem_*_p`
//! calls, and `HUGZ` becomes `shmem_barrier_all()`. User identifiers
//! are prefixed (`v_`, `g_`, `f_`) so they can never collide with
//! C keywords or the runtime.
//!
//! # Typed lowering
//!
//! [`CEmitter::expr`] returns each expression's C code together with
//! its static type ([`Ty`]), inferred bottom-up with the rules of
//! [`lol_sema::types`] that the bytecode compiler uses too. A NUMBR,
//! NUMBAR or TROOF value is a native `long long`, `double` or `int`
//! (0/1) C expression. Pinned (`ITZ SRSLY A`) scalar locals, unpinned
//! ones and counted-loop counters whose every store has the one type
//! sema's inference found ([`Analysis::local_ty`],
//! [`Analysis::counter_ty`]), the elements of NUMBR/NUMBAR/TROOF local
//! arrays and symmetric cells are native variables. Everything else — YARNs,
//! NOOBs, the other unpinned locals, parameters, call results and
//! `IT` — rides on the runtime's tagged `lol_value_t`, and a native
//! value is boxed only where such a consumer (`VISIBLE`, `SMOOSH`, a
//! call, a store to `IT`) takes it. The native operations keep the Rust
//! engines' semantics (the runtime's `lol_add_i` … `lol_dbl_to_int`),
//! and the emitted expression keeps the source's tree, fully
//! parenthesised, so floating-point results are bit-identical.
//!
//! # YARN ownership
//!
//! The runtime's rule is "slots own, values borrow" (see `lol_value_t`
//! in [`LOL_RUNTIME_H`]). Each dynamic local `v_x` is declared with its
//! buffer `k_x`, freed with the local arrays when control leaves the C
//! block (at its end, or at the `break` or `return` that leaves it). A
//! store that may be a YARN goes through `lol_store`, and
//! `x R SMOOSH x AN … MKAY` through `lol_append`. A statement, loop
//! guard or condition whose C calls something that can take scratch
//! arena memory (see [`allocates`]) is followed by a release to the
//! function's entry mark `__m`; typed numeric code calls nothing of
//! the kind and gets none.

use crate::runtime::LOL_RUNTIME_H;
use lol_ast::diag::Diagnostic;
use lol_ast::*;
use lol_sema::types::{bin_ty, shared_ty, un_ty, Ty};
use lol_sema::{Analysis, SharedKind, SharedVar};
use std::collections::HashMap;
use std::fmt::Write as _;

type CResult<T> = Result<T, Diagnostic>;

/// How a name resolves for the emitter.
#[derive(Clone, Copy)]
enum CKind {
    /// A scalar local whose values all have static type `ty` when it is
    /// `Some`: pinned locals cast every store to it, and every store to
    /// an inferred local or counter has it. A native type lives in a
    /// native C variable, anything else in a `lol_value_t`.
    Scalar { ty: Ty },
    /// A local array whose elements are always of type `elem`.
    Array { elem: LolType },
}

/// A C expression and its static type: a native `long long`, `double`
/// or `int` for a NUMBR, NUMBAR or TROOF, a `lol_value_t` otherwise.
struct CExpr {
    code: String,
    ty: Ty,
}

/// The native C type of values of static type `ty`, if they have one.
fn native(ty: Ty) -> Option<&'static str> {
    match ty? {
        LolType::Numbr => Some("long long"),
        LolType::Numbar => Some("double"),
        LolType::Troof => Some("int"),
        LolType::Yarn | LolType::Noob => None,
    }
}

impl CExpr {
    fn new(code: impl Into<String>, ty: Ty) -> Self {
        CExpr { code: code.into(), ty }
    }

    fn of(code: impl Into<String>, ty: LolType) -> Self {
        CExpr::new(code, Some(ty))
    }

    /// The value as a `lol_value_t`.
    fn boxed(self) -> String {
        match self.ty {
            Some(LolType::Numbr) => format!("lol_from_int({})", self.code),
            Some(LolType::Numbar) => format!("lol_from_dbl({})", self.code),
            Some(LolType::Troof) => format!("lol_from_bool({})", self.code),
            _ => self.code,
        }
    }

    /// The value converted to a NUMBR, as a `long long`.
    fn int(self) -> String {
        match self.ty {
            Some(LolType::Numbr) => self.code,
            Some(LolType::Numbar) => format!("lol_dbl_to_int({})", self.code),
            Some(LolType::Troof) => format!("(long long){}", self.code),
            _ => format!("lol_to_int({})", self.code),
        }
    }

    /// The value converted to a NUMBAR, as a `double`.
    fn dbl(self) -> String {
        match self.ty {
            Some(LolType::Numbar) => self.code,
            Some(LolType::Numbr | LolType::Troof) => format!("(double){}", self.code),
            _ => format!("lol_to_dbl({})", self.code),
        }
    }

    /// The value's truth, as an `int` that is 0 or 1.
    fn truth(self) -> String {
        match self.ty {
            Some(LolType::Troof) => self.code,
            Some(LolType::Numbr) => format!("({} != 0)", self.code),
            Some(LolType::Numbar) => format!("({} != 0.0)", self.code),
            _ => format!("lol_to_bool({})", self.code),
        }
    }

    /// The value cast to `ty`, with the runtime's `lol_cast` semantics.
    fn cast(self, ty: LolType) -> CExpr {
        if self.ty == Some(ty) {
            return self;
        }
        let code = match ty {
            LolType::Numbr => self.int(),
            LolType::Numbar => self.dbl(),
            LolType::Troof => self.truth(),
            LolType::Yarn | LolType::Noob => {
                format!("lol_cast({}, {})", self.boxed(), lol_ty_enum(ty))
            }
        };
        CExpr::of(code, ty)
    }
}

/// Where an array's elements live.
enum ArrPlace {
    /// A local array `data`: elements `data.e` and length `data.n`,
    /// native when `elem` has a native type, else `lol_value_t`s of a
    /// `lol_arr_t`.
    Local { data: String, elem: LolType, name: Symbol },
    /// A symmetric array, on this PE or on the remote PE `pe`.
    Shared { data: String, ty: LolType, len: usize, pe: Option<String>, name: Symbol },
}

impl ArrPlace {
    /// The element count, as a C expression.
    fn len(&self) -> String {
        match self {
            ArrPlace::Local { data, .. } => format!("{data}.n"),
            ArrPlace::Shared { len, .. } => len.to_string(),
        }
    }

    /// The element storage, as a C array expression.
    fn elems(&self) -> String {
        match self {
            ArrPlace::Local { data, .. } => format!("{data}.e"),
            ArrPlace::Shared { data, .. } => data.clone(),
        }
    }

    /// The array's LOLCODE name, as a C string literal (the index
    /// fault names it).
    fn name(&self) -> String {
        let (ArrPlace::Local { name, .. } | ArrPlace::Shared { name, .. }) = self;
        format!("\"{name}\"")
    }

    /// The bounds-checked cell at `idx` (a `long long` C expression) of
    /// native storage.
    fn cell(&self, idx: &str) -> String {
        format!("{}[lol_idx({idx}, {}, {})]", self.elems(), self.len(), self.name())
    }

    fn read(&self, idx: &str) -> CExpr {
        match self {
            ArrPlace::Local { data, elem, .. } => match native(Some(*elem)) {
                Some(_) => CExpr::of(self.cell(idx), *elem),
                None => CExpr::of(format!("lol_arr_get(&{data}, {idx}, {})", self.name()), *elem),
            },
            ArrPlace::Shared { ty, pe, .. } => shared_value(*ty, self.cell(idx), pe.as_deref()),
        }
    }

    /// The C statement storing `val` at `idx`. A value of unknown type
    /// converts after the index check, as on the other engines.
    fn write(&self, idx: &str, val: CExpr) -> String {
        if let ArrPlace::Local { data, elem, .. } = self {
            if native(Some(*elem)).is_none() {
                return format!("lol_arr_set(&{data}, {idx}, {}, {});", val.boxed(), self.name());
            }
        }
        if native(val.ty).is_some() {
            return self.store(self.cell(idx), val);
        }
        let checked = format!("long long __k = lol_idx({idx}, {}, {});", self.len(), self.name());
        let store = self.store(format!("{}[__k]", self.elems()), CExpr::new("__v", val.ty));
        format!("{{ lol_value_t __v = {}; {checked} {store} }}", val.code)
    }

    /// The C statement storing `val` into the native `cell`.
    fn store(&self, cell: String, val: CExpr) -> String {
        match self {
            ArrPlace::Local { elem, .. } => format!("{cell} = {};", val.cast(*elem).code),
            ArrPlace::Shared { ty, pe, .. } => shared_store(*ty, cell, pe.as_deref(), val),
        }
    }
}

/// A C block: the names it declares and the C statements that free
/// what they own.
#[derive(Default)]
struct Scope {
    names: HashMap<Symbol, CKind>,
    frees: Vec<String>,
}

pub(crate) struct CEmitter<'a> {
    analysis: &'a Analysis,
    out: String,
    indent: usize,
    /// C variable names holding the active `TXT MAH BFF` targets.
    bff: Vec<String>,
    /// The scope depth at each open loop or switch (GTFO → `break`,
    /// which leaves the scopes above it).
    breakable: Vec<usize>,
    in_function: bool,
    scopes: Vec<Scope>,
    tmp: usize,
    /// The temporaries of the C function being emitted, with their C
    /// types, declared at its top.
    temps: Vec<(String, &'static str)>,
    /// Whether the C function being emitted releases the arena to its
    /// entry mark `__m`, taken at its top.
    marked: bool,
}

impl<'a> CEmitter<'a> {
    pub(crate) fn new(analysis: &'a Analysis) -> Self {
        CEmitter {
            analysis,
            out: String::new(),
            indent: 0,
            bff: Vec::new(),
            breakable: Vec::new(),
            in_function: false,
            scopes: vec![Scope::default()],
            tmp: 0,
            temps: Vec::new(),
            marked: false,
        }
    }

    pub(crate) fn emit_program(mut self, program: &Program) -> CResult<String> {
        self.line("/* generated by lcc — parallel LOLCODE to C + OpenSHMEM */");
        self.out.push_str(LOL_RUNTIME_H);
        self.out.push('\n');

        // Symmetric data segment (Figure 1): one static object per
        // WE HAS A declaration, plus lock cells. `LOL_SYMMETRIC` is
        // empty under a real OpenSHMEM library (process-per-PE) and
        // `__thread` under the pthread stub (thread-per-PE), so every
        // PE owns its copy either way.
        let shared: Vec<SharedVar> = self.analysis.shared.iter().cloned().collect();
        if !shared.is_empty() {
            self.line("/* ---- symmetric data segment ---- */");
            for sv in &shared {
                let cty = c_type(sv.ty);
                match sv.kind {
                    SharedKind::Scalar => {
                        self.line(&format!("static LOL_SYMMETRIC {cty} g_{};", sv.name));
                    }
                    SharedKind::Array { len } => {
                        self.line(&format!("static LOL_SYMMETRIC {cty} g_{}[{len}];", sv.name));
                    }
                }
                if sv.lock.is_some() {
                    // Three symmetric longs per lock — [owner,
                    // next_ticket, now_serving] — so both lock
                    // algorithms (see LOL_LOCK_KIND) fit one layout.
                    self.line(&format!("static LOL_SYMMETRIC long g_{}__lock[3];", sv.name));
                }
            }
            self.out.push('\n');
        }

        // Function prototypes, then definitions.
        for f in &program.funcs {
            self.line(&format!("static lol_value_t {};", self.fn_sig(f)));
        }
        if !program.funcs.is_empty() {
            self.out.push('\n');
        }
        for f in &program.funcs {
            self.emit_function(f)?;
        }

        // The SPMD body: transparent shmem_init per Section VI.A. Each
        // PE registers its symmetric objects in program order — the
        // pthread stub uses the registry to translate remote
        // addresses; real OpenSHMEM builds compile it away.
        self.line("static int lol_main(void) {");
        self.indent += 1;
        self.line("shmem_init();");
        for sv in &shared {
            let sym = match sv.kind {
                SharedKind::Scalar => format!("&g_{}", sv.name),
                SharedKind::Array { .. } => format!("g_{}", sv.name),
            };
            self.line(&format!("LOL_SYM_REG({sym}, sizeof g_{});", sv.name));
            if sv.lock.is_some() {
                self.line(&format!("LOL_SYM_REG(g_{0}__lock, sizeof g_{0}__lock);", sv.name));
            }
        }
        self.line("LOL_SYM_REG_DONE();");
        self.line("LOL_SRAND(1337u + (unsigned)shmem_my_pe());");
        self.line("lol_pe_begin();");
        self.scopes.push(Scope::default());
        self.line("lol_value_t v_IT = lol_noob(); (void)v_IT;");
        self.slot_buffer(Symbol::it());
        self.body(&program.body)?;
        self.close_scope();
        self.line("lol_pe_end();");
        self.line("shmem_finalize();");
        self.line("return 0;");
        self.indent -= 1;
        self.line("}");
        self.out.push('\n');
        // Real main: one process-wide entry. Under the stub the driver
        // macro fans lol_main out over LOL_STUB_NPES threads.
        self.line("int main(void) { return LOL_MAIN_DRIVER(lol_main); }");
        Ok(self.out)
    }

    fn fn_sig(&self, f: &FuncDef) -> String {
        let params: Vec<String> =
            f.params.iter().map(|p| format!("lol_value_t v_{}", p.sym)).collect();
        let params = if params.is_empty() { "void".to_string() } else { params.join(", ") };
        format!("f_{}({})", f.name.sym, params)
    }

    fn emit_function(&mut self, f: &FuncDef) -> CResult<()> {
        self.line(&format!("static lol_value_t {} {{", self.fn_sig(f)));
        self.indent += 1;
        self.line("lol_value_t v_IT = lol_noob(); (void)v_IT;");
        self.in_function = true;
        self.scopes.push(Scope::default());
        // IT and the parameters own buffers like any dynamic slot; an
        // argument still borrows until the first YARN store copies it.
        self.slot_buffer(Symbol::it());
        for p in &f.params {
            self.declare(p.sym, CKind::Scalar { ty: None });
            self.slot_buffer(p.sym);
        }
        self.body(&f.body)?;
        self.ret(CExpr::new("v_IT", None));
        self.scopes.pop();
        self.in_function = false;
        self.indent -= 1;
        self.line("}");
        self.out.push('\n');
        Ok(())
    }

    /// The statements of a C function body, preceded by the declaration
    /// of the temporaries they use and, if they release the arena, by
    /// its entry mark.
    fn body(&mut self, stmts: &Block) -> CResult<()> {
        let at = self.out.len();
        for s in stmts {
            self.stmt(s)?;
        }
        let mut decl = String::new();
        if std::mem::take(&mut self.marked) {
            decl += &format!("{}lol_mark_t __m = lol_mark();\n", "    ".repeat(self.indent));
        }
        // One declaration per C type, in order of first use.
        let temps = std::mem::take(&mut self.temps);
        let mut types: Vec<&str> = temps.iter().map(|(_, t)| *t).collect();
        types.dedup();
        for (i, ty) in types.iter().enumerate() {
            if types[..i].contains(ty) {
                continue;
            }
            let names: Vec<&str> =
                temps.iter().filter(|(_, t)| t == ty).map(|(n, _)| n.as_str()).collect();
            decl += &format!("{}{ty} {};\n", "    ".repeat(self.indent), names.join(", "));
        }
        self.out.insert_str(at, &decl);
        Ok(())
    }

    // -- plumbing --------------------------------------------------------

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn fresh(&mut self, base: &str) -> String {
        self.tmp += 1;
        format!("__{base}{}", self.tmp)
    }

    fn err(&self, code: &'static str, msg: String, span: Span) -> Diagnostic {
        Diagnostic::error(code, msg, span)
    }

    fn declare(&mut self, name: Symbol, kind: CKind) {
        self.scopes.last_mut().expect("scope").names.insert(name, kind);
    }

    /// Free `what` (a C statement) when control leaves the current
    /// scope.
    fn free_on_exit(&mut self, what: String) {
        self.scopes.last_mut().expect("scope").frees.push(what);
    }

    /// Declare the buffer `k_<name>` of the dynamic slot `name`, owned
    /// by the current scope.
    fn slot_buffer(&mut self, name: Symbol) {
        self.line(&format!("lol_buf_t k_{name} = {{NULL, 0}};"));
        self.free_on_exit(format!("free(k_{name}.p);"));
    }

    /// The frees of the scopes from `depth` up, innermost first: what
    /// leaving them owes.
    fn frees_from(&self, depth: usize) -> Vec<String> {
        self.scopes[depth..].iter().rev().flat_map(|s| s.frees.iter().rev().cloned()).collect()
    }

    /// Close the current scope, freeing what it owns.
    fn close_scope(&mut self) {
        let scope = self.scopes.pop().expect("scope");
        for f in scope.frees.iter().rev() {
            self.line(f);
        }
    }

    /// Return `v` from the C function, freeing its frame (the scopes
    /// above the unit's) first. A YARN that may borrow from the frame
    /// moves to the arena before that.
    fn ret(&mut self, v: CExpr) {
        let frees = self.frees_from(1);
        let r = if may_yarn(v.ty) { format!("lol_ret({})", v.code) } else { v.boxed() };
        self.line("{");
        self.indent += 1;
        self.line(&format!("lol_value_t __r = {r};"));
        for f in &frees {
            self.line(f);
        }
        self.line("return __r;");
        self.indent -= 1;
        self.line("}");
    }

    /// Release the arena if the C written since `at` may have used it.
    fn release_since(&mut self, at: usize) {
        if allocates(&self.out[at..]) {
            self.marked = true;
            self.line("lol_release(__m);");
        }
    }

    /// The truth `cond` (a C `int` expression), releasing the arena
    /// after computing it if computing it may have used the arena.
    fn released(&mut self, cond: String) -> String {
        if !allocates(&cond) {
            return cond;
        }
        self.marked = true;
        let tmp = self.fresh("c");
        self.temps.push((tmp.clone(), "int"));
        format!("({tmp} = {cond}, lol_release(__m), {tmp})")
    }

    fn lookup(&self, name: Symbol) -> Option<CKind> {
        let local = self.scopes.iter().rev().find_map(|s| s.names.get(&name)).copied();
        // `IT` is every frame's implicit `lol_value_t v_IT`.
        local.or_else(|| (name == Symbol::it()).then_some(CKind::Scalar { ty: None }))
    }

    fn shared(&self, name: Symbol) -> Option<&'a SharedVar> {
        self.analysis.shared.get(name)
    }

    fn named(&self, vr: &VarRef) -> CResult<Symbol> {
        match &vr.name {
            VarName::Named(id) => Ok(id.sym),
            VarName::Srs(_) => Err(self.err(
                "CGC0001",
                "SRS IZ 2 DYNAMIC 4 DA C BACKEND — RUN DIS WIF DA INTERPRETER".to_string(),
                vr.span,
            )),
        }
    }

    /// The C expression for the current remote target PE.
    fn bff_expr(&self, vr: &VarRef) -> CResult<String> {
        if vr.locality == Locality::Ur {
            self.bff
                .last()
                .cloned()
                .ok_or_else(|| self.err("CGC0002", "UR OUTSIDE TXT MAH BFF".to_string(), vr.span))
        } else {
            Ok("shmem_my_pe()".to_string())
        }
    }

    /// The remote PE a `UR` reference targets, `None` for a local one.
    fn remote_pe(&self, vr: &VarRef) -> CResult<Option<String>> {
        if vr.locality == Locality::Ur {
            self.bff_expr(vr).map(Some)
        } else {
            Ok(None)
        }
    }

    // -- expressions -----------------------------------------------------

    fn expr(&mut self, e: &Expr) -> CResult<CExpr> {
        Ok(match &e.kind {
            ExprKind::Lit(l) => self.literal(l)?,
            ExprKind::Var(vr) => self.var_read(vr)?,
            ExprKind::Index { arr, idx } => {
                let i = self.expr(idx)?.int();
                self.arr_place(arr)?.read(&i)
            }
            ExprKind::Bin { op, lhs, rhs } => match op {
                BinOp::BothOf => self.logical_of(lhs, rhs, " & ")?,
                BinOp::EitherOf => self.logical_of(lhs, rhs, " | ")?,
                BinOp::WonOf => self.logical_of(lhs, rhs, " ^ ")?,
                _ => {
                    let (mut parts, seq) = self.operands(&[lhs, rhs])?;
                    let b = parts.pop().expect("two operands");
                    let a = parts.pop().expect("two operands");
                    sequenced(seq, binary(*op, a, b))
                }
            },
            ExprKind::Un { op, expr } => unary(*op, self.expr(expr)?),
            ExprKind::Nary { op: NaryOp::Smoosh, args } => {
                let (parts, seq) = self.operands(&args.iter().collect::<Vec<_>>())?;
                sequenced(seq, smoosh(parts))
            }
            ExprKind::Nary { op, args } => {
                let parts = args.iter().map(|a| self.expr(a)).collect::<CResult<Vec<_>>>()?;
                match op {
                    NaryOp::AllOf => self.logical(parts, " & "),
                    _ => self.logical(parts, " | "),
                }
            }
            ExprKind::Cast { expr, ty } => self.expr(expr)?.cast(*ty),
            ExprKind::Call { name, args } => {
                let (parts, seq) = self.operands(&args.iter().collect::<Vec<_>>())?;
                let parts: Vec<String> = parts.into_iter().map(CExpr::boxed).collect();
                let call = CExpr::new(format!("f_{}({})", name.sym, parts.join(", ")), None);
                sequenced(seq, call)
            }
            ExprKind::Me => CExpr::of("(long long)shmem_my_pe()", LolType::Numbr),
            ExprKind::MahFrenz => CExpr::of("(long long)shmem_n_pes()", LolType::Numbr),
            ExprKind::Whatevr => CExpr::of("lol_whatevr()", LolType::Numbr),
            ExprKind::Whatevar => CExpr::of("lol_whatevar()", LolType::Numbar),
        })
    }

    /// `exprs` emitted in order. C leaves the order of operator and
    /// function arguments open, so when any of them contains a call
    /// (which may print, fault or write shared state) each is first
    /// stored, left to right, in a typed temporary: the stores come
    /// back for [`sequenced`] and the temporaries stand in for the
    /// values. Call-free operands stay inline.
    fn operands(&mut self, exprs: &[&Expr]) -> CResult<(Vec<CExpr>, Vec<String>)> {
        let parts = exprs.iter().map(|e| self.expr(e)).collect::<CResult<Vec<_>>>()?;
        if !exprs.iter().any(|e| has_call(e)) {
            return Ok((parts, Vec::new()));
        }
        let mut seq = Vec::new();
        let mut temps = Vec::new();
        for p in parts {
            let tmp = self.fresh("t");
            seq.push(format!("{tmp} = {}", p.code));
            self.temps.push((tmp.clone(), native(p.ty).unwrap_or("lol_value_t")));
            temps.push(CExpr::new(tmp, p.ty));
        }
        Ok((temps, seq))
    }

    /// [`CEmitter::logical`] of two operands.
    fn logical_of(&mut self, lhs: &Expr, rhs: &Expr, op: &str) -> CResult<CExpr> {
        let parts = vec![self.expr(lhs)?, self.expr(rhs)?];
        Ok(self.logical(parts, op))
    }

    /// The truths of `parts` joined by the C operator `op`. Every operand
    /// is evaluated, in source order as on the other engines: C leaves
    /// the operands of `&`, `|` and `^` unsequenced, so all but the last
    /// go through `int` temporaries first.
    fn logical(&mut self, parts: Vec<CExpr>, op: &str) -> CExpr {
        let mut truths: Vec<String> = parts.into_iter().map(CExpr::truth).collect();
        let last = truths.pop().unwrap_or_default();
        let mut seq = Vec::new();
        for t in &mut truths {
            let tmp = self.fresh("t");
            seq.push(format!("{tmp} = {t}"));
            self.temps.push((tmp.clone(), "int"));
            *t = tmp;
        }
        truths.push(last);
        seq.push(truths.join(op));
        CExpr::of(format!("({})", seq.join(", ")), LolType::Troof)
    }

    fn literal(&mut self, l: &Lit) -> CResult<CExpr> {
        Ok(match l {
            Lit::Numbr(n) => CExpr::of(c_int(*n), LolType::Numbr),
            Lit::Numbar(f) => CExpr::of(format!("{f:?}"), LolType::Numbar),
            Lit::Troof(b) => CExpr::of((*b as i32).to_string(), LolType::Troof),
            Lit::Noob => CExpr::of("lol_noob()", LolType::Noob),
            Lit::Yarn(parts) => {
                let mut pieces = Vec::new();
                for p in parts {
                    pieces.push(match p {
                        YarnPart::Text(t) => {
                            CExpr::of(format!("lol_from_str(\"{}\")", c_escape(t)), LolType::Yarn)
                        }
                        YarnPart::Var(id) => {
                            self.var_read(&VarRef::named(*id))?.cast(LolType::Yarn)
                        }
                    });
                }
                smoosh(pieces)
            }
        })
    }

    /// Read a scalar variable.
    fn var_read(&mut self, vr: &VarRef) -> CResult<CExpr> {
        let name = self.named(vr)?;
        if vr.locality != Locality::Ur {
            if let Some(k) = self.lookup(name) {
                return match k {
                    CKind::Scalar { ty } => Ok(CExpr::new(format!("v_{name}"), ty)),
                    CKind::Array { .. } => {
                        Err(self.err("CGC0003", format!("{name} IZ A WHOLE ARRAY"), vr.span))
                    }
                };
            }
        }
        let sv = self.shared_scalar(vr, name)?;
        Ok(shared_value(sv.ty, format!("g_{name}"), self.remote_pe(vr)?.as_deref()))
    }

    /// Emit a store of `val` into a scalar variable.
    fn var_store(&mut self, vr: &VarRef, val: CExpr) -> CResult<()> {
        let name = self.named(vr)?;
        if vr.locality != Locality::Ur {
            if let Some(k) = self.lookup(name) {
                return match k {
                    CKind::Scalar { ty } => {
                        let val = match ty {
                            Some(ty) => val.cast(ty),
                            None => val,
                        };
                        let rhs = if native(ty).is_some() {
                            val.code
                        } else if may_yarn(val.ty) {
                            format!("lol_store(&k_{name}, {})", val.code)
                        } else {
                            val.boxed()
                        };
                        self.line(&format!("v_{name} = {rhs};"));
                        Ok(())
                    }
                    CKind::Array { .. } => {
                        Err(self.err("CGC0003", format!("{name} IZ A WHOLE ARRAY"), vr.span))
                    }
                };
            }
        }
        let sv = self.shared_scalar(vr, name)?;
        let stmt = shared_store(sv.ty, format!("g_{name}"), self.remote_pe(vr)?.as_deref(), val);
        self.line(&stmt);
        Ok(())
    }

    fn shared_scalar(&self, vr: &VarRef, name: Symbol) -> CResult<&'a SharedVar> {
        let sv = self
            .shared(name)
            .ok_or_else(|| self.err("CGC0004", format!("WHO IZ {name}?"), vr.span))?;
        if matches!(sv.kind, SharedKind::Array { .. }) {
            return Err(self.err("CGC0003", format!("{name} IZ A WHOLE ARRAY"), vr.span));
        }
        Ok(sv)
    }

    /// Resolve an array reference.
    fn arr_place(&self, arr: &VarRef) -> CResult<ArrPlace> {
        let name = self.named(arr)?;
        if arr.locality != Locality::Ur {
            match self.lookup(name) {
                Some(CKind::Array { elem }) => {
                    return Ok(ArrPlace::Local { data: format!("v_{name}"), elem, name });
                }
                Some(CKind::Scalar { .. }) => {
                    return Err(self.err(
                        "CGC0005",
                        format!("{name} IZ NOT LOTZ A THINGZ"),
                        arr.span,
                    ))
                }
                None => {}
            }
        }
        let sv = self
            .shared(name)
            .ok_or_else(|| self.err("CGC0004", format!("WHO IZ {name}?"), arr.span))?;
        let SharedKind::Array { len } = sv.kind else {
            return Err(self.err("CGC0005", format!("{name} IZ A SCALAR"), arr.span));
        };
        let pe = self.remote_pe(arr)?;
        Ok(ArrPlace::Shared { data: format!("g_{name}"), ty: sv.ty, len, pe, name })
    }

    fn is_array_ref(&self, vr: &VarRef) -> CResult<bool> {
        let name = self.named(vr)?;
        if vr.locality != Locality::Ur {
            if let Some(k) = self.lookup(name) {
                return Ok(matches!(k, CKind::Array { .. }));
            }
        }
        Ok(self.shared(name).map(|sv| matches!(sv.kind, SharedKind::Array { .. })).unwrap_or(false))
    }

    /// Declare the local array `data` of `n` (a C `long long`
    /// expression) elements of type `elem`.
    fn local_array_decl(&mut self, data: &str, elem: LolType, n: &str) {
        let decl = match elem {
            LolType::Numbr => "lol_arr_numbr",
            LolType::Numbar => "lol_arr_numbar",
            LolType::Troof => "lol_arr_troof",
            LolType::Yarn | LolType::Noob => {
                let ty = lol_ty_enum(elem);
                self.line(&format!("lol_arr_t {data} = lol_arr_new({n}, {ty});"));
                return;
            }
        };
        self.line(&format!(
            "{decl} {data}; {data}.n = {n}; {data}.e = lol_arr_alloc({data}.n, sizeof *{data}.e);"
        ));
    }

    // -- statements ------------------------------------------------------

    fn block(&mut self, b: &Block) -> CResult<()> {
        self.line("{");
        self.indent += 1;
        self.scoped(b)?;
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    /// `b`'s statements in a scope of their own.
    fn scoped(&mut self, b: &Block) -> CResult<()> {
        self.scopes.push(Scope::default());
        for s in b {
            self.stmt(s)?;
        }
        self.close_scope();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> CResult<()> {
        let at = self.out.len();
        match &s.kind {
            StmtKind::Declare(d) => self.decl(d)?,
            StmtKind::Assign { target, value } => self.assign(s, target, value)?,
            StmtKind::ExprStmt(e) => {
                let v = self.expr(e)?;
                let rhs = if may_yarn(v.ty) {
                    format!("lol_store(&k_IT, {})", v.code)
                } else {
                    v.boxed()
                };
                self.line(&format!("v_IT = {rhs};"));
            }
            StmtKind::Visible { args, newline } => {
                for a in args {
                    let v = self.expr(a)?.boxed();
                    self.line(&format!("lol_print({v});"));
                }
                if *newline {
                    self.line("LOL_PUTS(\"\\n\");");
                }
            }
            StmtKind::Gimmeh(lv) => {
                self.store_lvalue(lv, CExpr::of("lol_gimmeh()", LolType::Yarn))?
            }
            StmtKind::IsNowA { target, ty } => self.is_now_a(target, *ty)?,
            _ => return self.compound(s),
        }
        self.release_since(at);
        Ok(())
    }

    /// A statement that holds blocks or ends its block: it releases the
    /// arena after each of its own conditions, and its blocks after
    /// their statements.
    fn compound(&mut self, s: &Stmt) -> CResult<()> {
        match &s.kind {
            StmtKind::If(ifs) => {
                self.line("if (lol_to_bool(v_IT))");
                self.block(&ifs.then_block)?;
                for m in &ifs.mebbes {
                    let c = self.expr(&m.cond)?.truth();
                    let c = self.released(c);
                    self.line(&format!("else if ({c})"));
                    self.block(&m.body)?;
                }
                if let Some(e) = &ifs.else_block {
                    self.line("else");
                    self.block(e)?;
                }
                Ok(())
            }
            StmtKind::Switch(sw) => self.switch(sw),
            StmtKind::Loop(lp) => self.loop_stmt(lp),
            StmtKind::Gtfo => {
                if let Some(&depth) = self.breakable.last() {
                    for f in self.frees_from(depth) {
                        self.line(&f);
                    }
                    self.line("break;");
                } else if self.in_function {
                    self.ret(CExpr::of("lol_noob()", LolType::Noob));
                } else {
                    return Err(self.err("CGC0006", "GTFO OF WHERE?".to_string(), s.span));
                }
                Ok(())
            }
            StmtKind::FoundYr(e) => {
                let v = self.expr(e)?;
                self.ret(v);
                Ok(())
            }
            StmtKind::Hugz => {
                self.line("shmem_barrier_all();");
                Ok(())
            }
            StmtKind::LockAcquire(vr) => {
                let (cell, pe) = self.lock_cell(vr)?;
                self.line(&format!("lol_lock_acquire({cell}, {pe});"));
                self.line("v_IT = lol_from_bool(1);");
                Ok(())
            }
            StmtKind::LockTry(vr) => {
                let (cell, pe) = self.lock_cell(vr)?;
                self.line(&format!("v_IT = lol_from_bool(lol_lock_try({cell}, {pe}));"));
                Ok(())
            }
            StmtKind::LockRelease(vr) => {
                let (cell, pe) = self.lock_cell(vr)?;
                self.line(&format!("lol_lock_release({cell}, {pe});"));
                Ok(())
            }
            // A predicated statement opens no C block: what it declares
            // stays in scope after it, as in the LOLCODE scope.
            StmtKind::TxtStmt { pe, stmt } => {
                self.txt_target(pe)?;
                self.stmt(stmt)?;
                self.bff.pop();
                Ok(())
            }
            StmtKind::TxtBlock { pe, body } => {
                self.txt_target(pe)?;
                self.block(body)?;
                self.bff.pop();
                Ok(())
            }
            _ => unreachable!("a simple statement: CEmitter::stmt"),
        }
    }

    /// `target IS NOW A ty`.
    fn is_now_a(&mut self, target: &LValue, ty: LolType) -> CResult<()> {
        match target {
            LValue::Var(vr) => {
                let name = self.named(vr)?;
                // Only untyped scalars can change type: sema rejects
                // retyping a pinned local, and inference leaves a local
                // or counter that is retyped dynamic.
                match self.lookup(name) {
                    Some(CKind::Scalar { ty: None }) => {
                        let cast = CExpr::new(format!("v_{name}"), None).cast(ty);
                        self.var_store(vr, cast)
                    }
                    _ => Err(self.err("CGC0007", format!("{name} CANT CHANGE TYPE"), vr.span)),
                }
            }
            LValue::Index { span, .. } => {
                Err(self.err("CGC0007", "ARRAY ELEMENTS KEEP DA ARRAY'S TYPE".to_string(), *span))
            }
        }
    }

    /// Enter a `TXT MAH BFF`: the checked target, declared in the
    /// current C block, is the active target until the caller pops it.
    fn txt_target(&mut self, pe: &Expr) -> CResult<()> {
        let k = self.expr(pe)?.int();
        let var = self.fresh("bff");
        let at = self.out.len();
        self.line(&format!("const int {var} = lol_pe({k});"));
        self.release_since(at);
        self.bff.push(var);
        Ok(())
    }

    fn lock_cell(&mut self, vr: &VarRef) -> CResult<(String, String)> {
        let name = self.named(vr)?;
        let sv = self
            .shared(name)
            .ok_or_else(|| self.err("CGC0004", format!("{name} IZ NOT SHARED"), vr.span))?;
        if sv.lock.is_none() {
            return Err(self.err(
                "CGC0008",
                format!("{name} HAS NO LOCK — DECLARE IT WIF AN IM SHARIN IT"),
                vr.span,
            ));
        }
        let pe = self.bff_expr(vr)?;
        Ok((format!("g_{name}__lock"), pe))
    }

    fn decl(&mut self, d: &Decl) -> CResult<()> {
        match d.scope {
            DeclScope::We => {
                // Static storage already emitted; run the initializer.
                if let Some(init) = &d.init {
                    let v = self.expr(init)?;
                    if let Some(sv) = self.shared(d.name.sym) {
                        if matches!(sv.kind, SharedKind::Scalar) {
                            let stmt = shared_store(sv.ty, format!("g_{}", d.name.sym), None, v);
                            self.line(&stmt);
                        }
                    }
                }
                Ok(())
            }
            DeclScope::I => {
                if let Some(size) = &d.array_size {
                    let n = self.expr(size)?.int();
                    let elem = d.ty.unwrap_or(LolType::Noob);
                    let name = d.name.sym;
                    let data = format!("v_{name}");
                    self.local_array_decl(&data, elem, &n);
                    self.free_on_exit(free_array(&data, elem));
                    self.declare(name, CKind::Array { elem });
                } else {
                    let init = match (&d.init, d.ty) {
                        (Some(i), Some(ty)) => Some(self.expr(i)?.cast(ty)),
                        (Some(i), None) => Some(self.expr(i)?),
                        (None, Some(ty)) => Some(default_value(ty)),
                        (None, None) => None,
                    };
                    // A pinned or inferred NUMBR, NUMBAR or TROOF is a
                    // native variable.
                    let ty = self.analysis.local_ty(d);
                    let name = d.name.sym;
                    let (cty, init) = match (native(ty).zip(ty), init) {
                        (Some((cty, ty)), Some(v)) => (cty, v.cast(ty).code),
                        (_, v) => {
                            self.slot_buffer(name);
                            let init = match v {
                                Some(v) if may_yarn(v.ty) => {
                                    format!("lol_store(&k_{name}, {})", v.code)
                                }
                                Some(v) => v.boxed(),
                                None => "lol_noob()".to_string(),
                            };
                            ("lol_value_t", init)
                        }
                    };
                    self.line(&format!("{cty} v_{name} = {init};"));
                    self.declare(name, CKind::Scalar { ty });
                }
                Ok(())
            }
        }
    }

    fn assign(&mut self, s: &Stmt, target: &LValue, value: &Expr) -> CResult<()> {
        if let LValue::Var(dst) = target {
            if let ExprKind::Var(src) = &value.kind {
                let (da, sa) = (self.is_array_ref(dst)?, self.is_array_ref(src)?);
                match (da, sa) {
                    (true, true) => return self.array_copy(dst, src),
                    (true, false) | (false, true) => {
                        return Err(self.err(
                            "CGC0009",
                            "U CANT MIX A WHOLE ARRAY AN A SCALAR".to_string(),
                            s.span,
                        ))
                    }
                    (false, false) => {}
                }
            } else if self.is_array_ref(dst)? {
                return Err(self.err(
                    "CGC0009",
                    "AN ARRAY CAN ONLY BE ASSIGNED FROM ANOTHER ARRAY".to_string(),
                    s.span,
                ));
            }
        }
        if let Some(name) = self.appends_to_itself(target, value)? {
            return self.append(name, value);
        }
        let v = self.expr(value)?;
        self.store_lvalue(target, v)
    }

    /// The dynamic local `x` of `x R SMOOSH x AN … MKAY`, whose value
    /// is a YARN after the store: `None` for any other assignment.
    fn appends_to_itself(&self, target: &LValue, value: &Expr) -> CResult<Option<Symbol>> {
        let (LValue::Var(dst), ExprKind::Nary { op: NaryOp::Smoosh, args }) = (target, &value.kind)
        else {
            return Ok(None);
        };
        let Some(ExprKind::Var(src)) = args.first().map(|a| &a.kind) else { return Ok(None) };
        if dst.locality == Locality::Ur || src.locality == Locality::Ur {
            return Ok(None);
        }
        let name = self.named(dst)?;
        let slot =
            matches!(self.lookup(name), Some(CKind::Scalar { ty: None | Some(LolType::Yarn) }));
        Ok((slot && self.named(src)? == name).then_some(name))
    }

    /// `x R SMOOSH x AN … MKAY`: the other operands rendered onto the
    /// end of `x`'s buffer (`lol_append`).
    fn append(&mut self, name: Symbol, value: &Expr) -> CResult<()> {
        let ExprKind::Nary { args, .. } = &value.kind else { unreachable!("a SMOOSH") };
        let (parts, seq) = self.operands(&args.iter().collect::<Vec<_>>())?;
        let mut parts = parts.into_iter().map(CExpr::boxed);
        let first = parts.next().expect("the slot itself");
        let rest: Vec<String> = parts.collect();
        let rest = match rest.len() {
            0 => "0, NULL".to_string(),
            n => format!("{n}, (lol_value_t[]){{{}}}", rest.join(", ")),
        };
        let call = CExpr::of(format!("lol_append(&k_{name}, {first}, {rest})"), LolType::Yarn);
        self.line(&format!("v_{name} = {};", sequenced(seq, call).code));
        Ok(())
    }

    fn store_lvalue(&mut self, lv: &LValue, val: CExpr) -> CResult<()> {
        match lv {
            LValue::Var(vr) => self.var_store(vr, val),
            LValue::Index { arr, idx, .. } => {
                let i = self.expr(idx)?.int();
                let stmt = self.arr_place(arr)?.write(&i, val);
                self.line(&stmt);
                Ok(())
            }
        }
    }

    /// `MAH array R UR array` — element-wise copy loop.
    fn array_copy(&mut self, dst: &VarRef, src: &VarRef) -> CResult<()> {
        let src = self.arr_place(src)?;
        let dst = self.arr_place(dst)?;
        let n = src.len();
        let i = self.fresh("i");
        self.line("{");
        self.indent += 1;
        // A local destination adopts the source length (dynamic arrays):
        // the copy fills fresh storage that then replaces its own.
        let fresh = match &dst {
            ArrPlace::Local { elem, name, .. } => {
                let data = self.fresh("a");
                self.local_array_decl(&data, *elem, &n);
                Some(ArrPlace::Local { data, elem: *elem, name: *name })
            }
            ArrPlace::Shared { len, .. } => {
                self.line(&format!(
                    "if ({n} != {len}) lol_die(\"RUN0013\", \"ARRAY COPY SIZE MISMATCH: %s HAS \
                     %d THINGZ, SOURCE HAS %lld\", {}, {len}, (long long){n});",
                    dst.name()
                ));
                None
            }
        };
        let target = fresh.as_ref().unwrap_or(&dst);
        self.line(&format!("for (long long {i} = 0; {i} < {n}; {i}++)"));
        self.line(&format!("    {}", target.write(&i, src.read(&i))));
        if let (ArrPlace::Local { data, elem, .. }, Some(ArrPlace::Local { data: d, .. })) =
            (&dst, &fresh)
        {
            self.line(&free_array(data, *elem));
            self.line(&format!("{data} = {d};"));
        }
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    fn switch(&mut self, sw: &SwitchStmt) -> CResult<()> {
        let arm = self.fresh("arm");
        self.line("do {");
        self.indent += 1;
        self.line(&format!("int {arm} = -1;"));
        let at = self.out.len();
        for (i, a) in sw.arms.iter().enumerate() {
            let k = self.literal(&a.value)?.boxed();
            let prefix = if i == 0 { "if" } else { "else if" };
            self.line(&format!("{prefix} (lol_saem(v_IT, {k})) {arm} = {i};"));
        }
        self.release_since(at);
        self.line(&format!("switch ({arm}) {{"));
        self.breakable.push(self.scopes.len());
        // Each arm is a C block, so that a declaration may open it.
        for (i, a) in sw.arms.iter().enumerate() {
            self.line(&format!("case {i}: {{"));
            self.indent += 1;
            self.scoped(&a.body)?;
            self.indent -= 1;
            self.line("} /* fallthrough */");
        }
        if let Some(d) = &sw.default {
            self.line("default: {");
            self.indent += 1;
            self.scoped(d)?;
            self.line("break;");
            self.indent -= 1;
            self.line("}");
        } else {
            self.line("default: break;");
        }
        self.breakable.pop();
        self.line("}");
        self.indent -= 1;
        self.line("} while (0);");
        Ok(())
    }

    fn loop_stmt(&mut self, lp: &LoopStmt) -> CResult<()> {
        self.scopes.push(Scope::default());
        // The counter lives in the `for` header, outside the body's
        // block, so a declaration in the body never shadows it. A
        // dynamic counter's buffer lives in a block around the loop.
        let wrapped = lp.update.is_some() && self.analysis.counter_ty(lp).is_none();
        if wrapped {
            self.line("{");
            self.indent += 1;
        }
        let header = match &lp.update {
            Some((dir, var)) => {
                let ty = self.analysis.counter_ty(lp);
                if ty.is_none() {
                    self.slot_buffer(var.sym);
                }
                let v = format!("v_{}", var.sym);
                let op = match dir {
                    LoopDir::Uppin => BinOp::Sum,
                    LoopDir::Nerfin => BinOp::Diff,
                };
                let one = CExpr::of("1LL", LolType::Numbr);
                let step = binary(op, CExpr::new(v.clone(), ty), one);
                let zero = CExpr::of("0LL", LolType::Numbr);
                let (cty, init, step) = match native(ty) {
                    Some(cty) => (cty, zero.code, step.code),
                    None => ("lol_value_t", zero.boxed(), step.boxed()),
                };
                self.declare(var.sym, CKind::Scalar { ty });
                format!("for ({cty} {v} = {init};; {v} = {step}) {{")
            }
            None => "for (;;) {".to_string(),
        };
        self.line(&header);
        self.indent += 1;
        if let Some((kind, guard)) = &lp.guard {
            let g = self.expr(guard)?.truth();
            let g = self.released(g);
            match kind {
                GuardKind::Til => self.line(&format!("if ({g}) break;")),
                GuardKind::Wile => self.line(&format!("if (!{g}) break;")),
            }
        }
        self.breakable.push(self.scopes.len());
        self.scoped(&lp.body)?;
        self.breakable.pop();
        self.indent -= 1;
        self.line("}");
        self.close_scope();
        if wrapped {
            self.indent -= 1;
            self.line("}");
        }
        Ok(())
    }
}

// ---- expression lowering ------------------------------------------------

/// `e` after the operand stores `seq` (none: `e` itself), as one C
/// comma expression.
fn sequenced(seq: Vec<String>, e: CExpr) -> CExpr {
    if seq.is_empty() {
        return e;
    }
    CExpr::new(format!("({}, {})", seq.join(", "), e.code), e.ty)
}

/// Does `e` contain a call?
fn has_call(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Call { .. } => true,
        ExprKind::Index { idx, .. } => has_call(idx),
        ExprKind::Bin { lhs, rhs, .. } => has_call(lhs) || has_call(rhs),
        ExprKind::Un { expr, .. } | ExprKind::Cast { expr, .. } => has_call(expr),
        ExprKind::Nary { args, .. } => args.iter().any(has_call),
        _ => false,
    }
}

/// `a op b`, natively where [`bin_ty`] and the operand types allow.
fn binary(op: BinOp, a: CExpr, b: CExpr) -> CExpr {
    let ty = bin_ty(op, a.ty, b.ty);
    let code = match op {
        BinOp::Sum
        | BinOp::Diff
        | BinOp::Produkt
        | BinOp::Quoshunt
        | BinOp::Mod
        | BinOp::BiggrOf
        | BinOp::SmallrOf => {
            let (int_fn, dbl_op, dyn_fn) = arith_fns(op);
            match ty {
                Some(LolType::Numbr) => format!("{int_fn}({}, {})", a.code, b.code),
                Some(LolType::Numbar) if dbl_op.starts_with('f') => {
                    format!("{dbl_op}({}, {})", a.dbl(), b.dbl())
                }
                Some(LolType::Numbar) => format!("({} {dbl_op} {})", a.dbl(), b.dbl()),
                _ => format!("{dyn_fn}({}, {})", a.boxed(), b.boxed()),
            }
        }
        // Comparison is float-domain on every engine, NUMBRs included.
        BinOp::Bigger => format!("({} > {})", a.dbl(), b.dbl()),
        BinOp::Smallr => format!("({} < {})", a.dbl(), b.dbl()),
        BinOp::BothSaem | BinOp::Diffrint => {
            let eq = if op == BinOp::BothSaem { "==" } else { "!=" };
            match (a.ty, b.ty) {
                (x, y) if x == y && native(x).is_some() => format!("({} {eq} {})", a.code, b.code),
                (Some(LolType::Numbr), Some(LolType::Numbar))
                | (Some(LolType::Numbar), Some(LolType::Numbr)) => {
                    format!("({} {eq} {})", a.dbl(), b.dbl())
                }
                _ if op == BinOp::BothSaem => format!("lol_saem({}, {})", a.boxed(), b.boxed()),
                _ => format!("(!lol_saem({}, {}))", a.boxed(), b.boxed()),
            }
        }
        BinOp::BothOf | BinOp::EitherOf | BinOp::WonOf => {
            unreachable!("lowered by CEmitter::logical")
        }
    };
    CExpr::new(code, ty)
}

/// An arithmetic operator's native NUMBR function, its NUMBAR operator
/// (or C99 function), and the runtime's dynamic function.
fn arith_fns(op: BinOp) -> (&'static str, &'static str, &'static str) {
    match op {
        BinOp::Sum => ("lol_add_i", "+", "lol_sum"),
        BinOp::Diff => ("lol_sub_i", "-", "lol_diff"),
        BinOp::Produkt => ("lol_mul_i", "*", "lol_produkt"),
        BinOp::Quoshunt => ("lol_quo_i", "/", "lol_quoshunt"),
        BinOp::Mod => ("lol_mod_i", "fmod", "lol_mod"),
        // fmax/fmin return the non-NaN operand, like f64::max/min.
        BinOp::BiggrOf => ("lol_max_i", "fmax", "lol_biggr"),
        BinOp::SmallrOf => ("lol_min_i", "fmin", "lol_smallr"),
        _ => unreachable!("not an arithmetic operator: {op:?}"),
    }
}

/// `op v`, natively where [`un_ty`] allows.
fn unary(op: UnOp, v: CExpr) -> CExpr {
    let ty = un_ty(op, v.ty);
    let code = match op {
        UnOp::Not => format!("(!{})", v.truth()),
        UnOp::Squar => match ty {
            Some(LolType::Numbr) => format!("lol_sq_i({})", v.code),
            Some(LolType::Numbar) => format!("lol_sq_d({})", v.code),
            _ => format!("lol_squar({})", v.boxed()),
        },
        UnOp::Unsquar => format!("sqrt({})", v.dbl()),
        UnOp::Flip => format!("(1.0 / {})", v.dbl()),
    };
    CExpr::new(code, ty)
}

/// `SMOOSH` (and YARN interpolation): the concatenated renderings, as
/// one YARN in the arena.
fn smoosh(mut parts: Vec<CExpr>) -> CExpr {
    let code = match parts.len() {
        0 => "lol_from_str(\"\")".to_string(),
        1 => return parts.pop().expect("one part").cast(LolType::Yarn),
        n => {
            let parts: Vec<String> = parts.into_iter().map(CExpr::boxed).collect();
            format!("lol_smoosh_n({n}, (lol_value_t[]){{{}}})", parts.join(", "))
        }
    };
    CExpr::of(code, LolType::Yarn)
}

/// Whether a value of static type `ty` may be a YARN, and so needs
/// `lol_store` to enter a slot.
fn may_yarn(ty: Ty) -> bool {
    matches!(ty, None | Some(LolType::Yarn))
}

/// Whether the C code `c` calls something that can take memory from
/// the scratch arena: a SMOOSH, a cast to YARN, GIMMEH or a function
/// (whose result may be a YARN in the arena).
fn allocates(c: &str) -> bool {
    let call = c
        .match_indices("f_")
        .any(|(at, _)| !c[..at].ends_with(|ch: char| ch.is_ascii_alphanumeric() || ch == '_'));
    call || ["lol_smoosh_n(", "lol_cast(", "lol_gimmeh("].iter().any(|f| c.contains(f))
}

/// The C statement freeing the local array `data` of `elem`s.
fn free_array(data: &str, elem: LolType) -> String {
    match native(Some(elem)) {
        Some(_) => format!("free({data}.e);"),
        None => format!("lol_arr_free(&{data});"),
    }
}

// ---- small helpers -----------------------------------------------------

/// The value of a symmetric cell (`cell` on this PE, or fetched from
/// `pe`): NUMBAR cells are doubles, every other cell a `long long`, and
/// a TROOF cell holds 0 or 1.
fn shared_value(ty: LolType, cell: String, pe: Option<&str>) -> CExpr {
    let cell = match pe {
        Some(pe) => format!("{}(&{cell}, {pe})", shmem_get(ty)),
        None => cell,
    };
    match shared_ty(ty) {
        LolType::Troof => CExpr::of(format!("({cell} != 0)"), LolType::Troof),
        ty => CExpr::of(cell, ty),
    }
}

/// The C statement storing `val` into a symmetric cell.
fn shared_store(ty: LolType, cell: String, pe: Option<&str>, val: CExpr) -> String {
    let v = val.cast(shared_ty(ty)).code;
    match pe {
        Some(pe) => format!("{}(&{cell}, {v}, {pe});", shmem_put(ty)),
        None => format!("{cell} = {v};"),
    }
}

fn c_type(ty: LolType) -> &'static str {
    match ty {
        LolType::Numbar => "double",
        // NUMBR and TROOF both travel as long long in symmetric memory.
        _ => "long long",
    }
}

fn shmem_get(ty: LolType) -> &'static str {
    match ty {
        LolType::Numbar => "shmem_double_g",
        _ => "shmem_longlong_g",
    }
}

fn shmem_put(ty: LolType) -> &'static str {
    match ty {
        LolType::Numbar => "shmem_double_p",
        _ => "shmem_longlong_p",
    }
}

/// A NUMBR literal as a C `long long` constant.
fn c_int(n: i64) -> String {
    if n == i64::MIN {
        "(-9223372036854775807LL - 1)".to_string()
    } else {
        format!("{n}LL")
    }
}

/// The value a typed declaration without an initializer starts with.
fn default_value(ty: LolType) -> CExpr {
    let code = match ty {
        LolType::Noob => "lol_noob()",
        LolType::Troof => "0",
        LolType::Numbr => "0LL",
        LolType::Numbar => "0.0",
        LolType::Yarn => "lol_from_str(\"\")",
    };
    CExpr::of(code, ty)
}

fn lol_ty_enum(ty: LolType) -> &'static str {
    match ty {
        LolType::Noob => "LOL_NOOB",
        LolType::Troof => "LOL_TROOF",
        LolType::Numbr => "LOL_NUMBR",
        LolType::Numbar => "LOL_NUMBAR",
        LolType::Yarn => "LOL_YARN",
    }
}

fn c_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\x07' => out.push_str("\\a"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\x{:02x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_escape_covers_specials() {
        assert_eq!(c_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(c_escape("bell\x07"), "bell\\a");
        assert_eq!(c_escape("ctrl\x01"), "ctrl\\x01");
    }

    #[test]
    fn type_mapping() {
        assert_eq!(c_type(LolType::Numbar), "double");
        assert_eq!(c_type(LolType::Numbr), "long long");
        assert_eq!(c_type(LolType::Troof), "long long");
        assert_eq!(shmem_get(LolType::Numbar), "shmem_double_g");
        assert_eq!(shmem_put(LolType::Numbr), "shmem_longlong_p");
        assert_eq!(native(Some(LolType::Numbr)), Some("long long"));
        assert_eq!(native(Some(LolType::Numbar)), Some("double"));
        assert_eq!(native(Some(LolType::Troof)), Some("int"));
        assert_eq!(native(Some(LolType::Yarn)), None);
        assert_eq!(native(None), None);
    }

    #[test]
    fn wrapping_round_trip_shapes() {
        let v = shared_value(LolType::Numbr, "g_x".into(), None);
        assert_eq!((v.code.as_str(), v.ty), ("g_x", Some(LolType::Numbr)));
        assert_eq!(v.boxed(), "lol_from_int(g_x)");
        let t = shared_value(LolType::Troof, "g_t".into(), Some("__bff1"));
        assert_eq!(t.code, "(shmem_longlong_g(&g_t, __bff1) != 0)");
        let dynamic = CExpr::new("v", None);
        assert_eq!(
            shared_store(LolType::Numbar, "g_y".into(), None, dynamic),
            "g_y = lol_to_dbl(v);"
        );
        let flag = CExpr::of("1", LolType::Troof);
        assert_eq!(shared_store(LolType::Troof, "g_t".into(), None, flag), "g_t = 1;");
    }

    #[test]
    fn conversions_follow_the_runtime_casts() {
        let d = || CExpr::of("v_d", LolType::Numbar);
        assert_eq!(d().int(), "lol_dbl_to_int(v_d)");
        assert_eq!(d().truth(), "(v_d != 0.0)");
        assert_eq!(d().cast(LolType::Yarn).code, "lol_cast(lol_from_dbl(v_d), LOL_YARN)");
        assert_eq!(CExpr::of("v_i", LolType::Numbr).dbl(), "(double)v_i");
        assert_eq!(CExpr::new("v", None).cast(LolType::Numbr).code, "lol_to_int(v)");
        assert_eq!(c_int(i64::MIN), "(-9223372036854775807LL - 1)");
    }

    #[test]
    fn operators_lower_natively_when_typed() {
        let i = |c: &str| CExpr::of(c, LolType::Numbr);
        let f = |c: &str| CExpr::of(c, LolType::Numbar);
        let sum = binary(BinOp::Sum, i("a"), i("b"));
        assert_eq!((sum.code.as_str(), sum.ty), ("lol_add_i(a, b)", Some(LolType::Numbr)));
        assert_eq!(binary(BinOp::Diff, f("a"), i("b")).code, "(a - (double)b)");
        assert_eq!(binary(BinOp::BiggrOf, f("a"), f("b")).code, "fmax(a, b)");
        assert_eq!(binary(BinOp::Bigger, i("a"), i("b")).code, "((double)a > (double)b)");
        assert_eq!(binary(BinOp::BothSaem, i("a"), i("b")).code, "(a == b)");
        assert_eq!(binary(BinOp::Diffrint, i("a"), f("b")).code, "((double)a != b)");
        let t = CExpr::of("1", LolType::Troof);
        assert_eq!(
            binary(BinOp::BothSaem, t, i("1LL")).code,
            "lol_saem(lol_from_bool(1), lol_from_int(1LL))"
        );
        let dynamic = binary(BinOp::Mod, CExpr::new("v", None), i("2LL"));
        assert_eq!((dynamic.code.as_str(), dynamic.ty), ("lol_mod(v, lol_from_int(2LL))", None));
        assert_eq!(unary(UnOp::Squar, f("x")).code, "lol_sq_d(x)");
        assert_eq!(unary(UnOp::Flip, i("x")).code, "(1.0 / (double)x)");
    }
}
