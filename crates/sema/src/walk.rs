//! The semantic checker: a context-carrying walk over the AST.

use crate::const_eval::const_eval_i64;
use crate::layout::{SharedKind, SharedLayout};
use crate::{Analysis, Features, FuncSig};
use lol_ast::diag::{Diagnostic, Diagnostics};
use lol_ast::*;
use std::collections::HashMap;

/// What the checker knows about a variable in scope.
#[derive(Debug, Clone)]
struct VarInfo {
    shared: bool,
    /// Has an implicit lock (`AN IM SHARIN IT`).
    sharin: bool,
    is_array: bool,
    /// Array length when statically known.
    array_len: Option<usize>,
    /// Statically typed (`ITZ SRSLY A`): the type is fixed forever.
    pinned: bool,
}

impl VarInfo {
    fn scalar(shared: bool, sharin: bool) -> Self {
        VarInfo { shared, sharin, is_array: false, array_len: None, pinned: false }
    }
}

pub(crate) struct Checker {
    diags: Diagnostics,
    shared: SharedLayout,
    funcs: HashMap<Symbol, FuncSig>,
    features: Features,
    /// Scope stack; `scopes[0]` holds globals (shared vars, `IT`).
    scopes: Vec<HashMap<Symbol, VarInfo>>,
    txt_depth: usize,
    loop_depth: usize,
    switch_depth: usize,
    cond_depth: usize,
    in_function: bool,
    /// Directly in the main body (where `WE HAS A` is legal).
    at_top_level: bool,
}

impl Checker {
    pub(crate) fn run(program: &Program) -> Analysis {
        let mut c = Checker {
            diags: Diagnostics::new(),
            shared: SharedLayout::default(),
            funcs: HashMap::new(),
            features: Features::default(),
            scopes: vec![HashMap::new()],
            txt_depth: 0,
            loop_depth: 0,
            switch_depth: 0,
            cond_depth: 0,
            in_function: false,
            at_top_level: true,
        };
        // IT is predeclared.
        c.scopes[0].insert(Symbol::it(), VarInfo::scalar(false, false));

        // Functions are hoisted: collect signatures first.
        for f in &program.funcs {
            let sig = FuncSig { name: f.name.sym, arity: f.params.len() };
            if c.funcs.insert(f.name.sym, sig).is_some() {
                c.diags.push(Diagnostic::error(
                    "SEM0011",
                    format!("U ALREADY TOLD ME HOW IZ I {}", f.name.sym),
                    f.name.span,
                ));
            }
        }

        // Main body.
        c.scopes.push(HashMap::new());
        for s in &program.body {
            c.check_stmt(s);
        }
        c.scopes.pop();

        // Function bodies: fresh scope stack over globals only.
        for f in &program.funcs {
            c.in_function = true;
            c.at_top_level = false;
            c.scopes.push(HashMap::new());
            for p in &f.params {
                c.declare(p.sym, VarInfo::scalar(false, false), p.span);
            }
            for s in &f.body {
                c.check_stmt(s);
            }
            c.scopes.pop();
            c.in_function = false;
        }

        Analysis {
            shared: c.shared,
            funcs: c.funcs,
            features: c.features,
            diags: c.diags,
            inferred: HashMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Scope helpers
    // ------------------------------------------------------------------

    fn declare(&mut self, name: Symbol, info: VarInfo, span: Span) {
        let top = self.scopes.last_mut().expect("scope stack never empty");
        match top.entry(name) {
            std::collections::hash_map::Entry::Occupied(_) => self.diags.push(
                Diagnostic::error("SEM0016", format!("U ALREADY HAS A {name} IN DIS SCOPE"), span)
                    .with_note("shadowing is allowed in a nested scope, not the same one"),
            ),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(info);
            }
        }
    }

    fn resolve(&self, name: Symbol) -> Option<VarInfo> {
        for scope in self.scopes.iter().rev() {
            if let Some(i) = scope.get(&name) {
                return Some(i.clone());
            }
        }
        None
    }

    fn in_scope<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.scopes.push(HashMap::new());
        let out = f(self);
        self.scopes.pop();
        out
    }

    /// Enter a nested (non-top-level) region.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let was_top = self.at_top_level;
        self.at_top_level = false;
        let out = self.in_scope(f);
        self.at_top_level = was_top;
        out
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn check_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Declare(d) => self.check_decl(d),
            StmtKind::Assign { target, value } => {
                self.check_expr(value);
                let tinfo = self.check_lvalue(target);
                // Whole-array copy vs scalar assignment shape checks.
                let vinfo = match &value.kind {
                    ExprKind::Var(vr) => self.varref_info(vr),
                    _ => None,
                };
                let target_is_plain_var = matches!(target, LValue::Var(_));
                let target_is_array =
                    target_is_plain_var && tinfo.as_ref().map(|i| i.is_array).unwrap_or(false);
                let value_is_array = vinfo.as_ref().map(|i| i.is_array).unwrap_or(false);
                match (target_is_array, value_is_array) {
                    (true, true) => {
                        if let (Some(a), Some(b)) = (
                            tinfo.as_ref().and_then(|i| i.array_len),
                            vinfo.as_ref().and_then(|i| i.array_len),
                        ) {
                            if a != b {
                                self.diags.push(Diagnostic::error(
                                    "SEM0014",
                                    format!("ARRAY SIZES DONT MATCH: {a} ELEMENTS CANT HOLD {b}"),
                                    s.span,
                                ));
                            }
                        }
                    }
                    (true, false) | (false, true) => {
                        self.diags.push(Diagnostic::error(
                            "SEM0015",
                            "U CANT MIX A WHOLE ARRAY AN A SCALAR IN ONE ASSIGNMENT".to_string(),
                            s.span,
                        ));
                    }
                    (false, false) => {}
                }
            }
            StmtKind::ExprStmt(e) => self.check_expr(e),
            StmtKind::Visible { args, .. } => {
                for a in args {
                    self.check_expr(a);
                }
            }
            StmtKind::Gimmeh(lv) => {
                self.features.uses_gimmeh = true;
                self.check_lvalue(lv);
            }
            StmtKind::If(ifs) => {
                self.cond_depth += 1;
                self.nested(|c| {
                    for st in &ifs.then_block {
                        c.check_stmt(st);
                    }
                });
                for m in &ifs.mebbes {
                    self.check_expr(&m.cond);
                    self.nested(|c| {
                        for st in &m.body {
                            c.check_stmt(st);
                        }
                    });
                }
                if let Some(e) = &ifs.else_block {
                    self.nested(|c| {
                        for st in e {
                            c.check_stmt(st);
                        }
                    });
                }
                self.cond_depth -= 1;
            }
            StmtKind::Switch(sw) => {
                self.cond_depth += 1;
                self.switch_depth += 1;
                for arm in &sw.arms {
                    self.nested(|c| {
                        for st in &arm.body {
                            c.check_stmt(st);
                        }
                    });
                }
                if let Some(d) = &sw.default {
                    self.nested(|c| {
                        for st in d {
                            c.check_stmt(st);
                        }
                    });
                }
                self.switch_depth -= 1;
                self.cond_depth -= 1;
            }
            StmtKind::Loop(lp) => {
                self.loop_depth += 1;
                self.nested(|c| {
                    if let Some((_, var)) = &lp.update {
                        c.declare(var.sym, VarInfo::scalar(false, false), var.span);
                    }
                    if let Some((_, guard)) = &lp.guard {
                        c.check_expr(guard);
                    }
                    for st in &lp.body {
                        c.check_stmt(st);
                    }
                });
                self.loop_depth -= 1;
            }
            StmtKind::Gtfo => {
                if self.loop_depth == 0 && self.switch_depth == 0 && !self.in_function {
                    self.diags.push(Diagnostic::error(
                        "SEM0009",
                        "GTFO OF WHERE? THERES NO LOOP, SWITCH OR FUNKSHUN HERE".to_string(),
                        s.span,
                    ));
                }
            }
            StmtKind::FoundYr(e) => {
                self.check_expr(e);
                if !self.in_function {
                    self.diags.push(Diagnostic::error(
                        "SEM0010",
                        "FOUND YR ONLY WORKS INSIDE A FUNKSHUN".to_string(),
                        s.span,
                    ));
                }
            }
            StmtKind::IsNowA { target, .. } => {
                let info = self.check_lvalue(target);
                // A SRSLY-typed (or shared) variable's type is part of
                // its compiled layout and cannot change at runtime.
                if let Some(i) = info {
                    if i.pinned || i.shared {
                        self.diags.push(
                            Diagnostic::error(
                                "SEM0024",
                                "SRSLY TYPED AN SHARED VARIABLES KEEP THEIR TYPE 4EVER".to_string(),
                                target.span(),
                            )
                            .with_note("drop SRSLY if u wants dynamic retyping"),
                        );
                    }
                }
            }
            StmtKind::Hugz => {
                self.features.uses_parallel = true;
                if self.cond_depth > 0 {
                    self.diags.push(
                        Diagnostic::warning(
                            "SEM0012",
                            "HUGZ INSIDE A CONDITIONAL — IF NOT ALL PEs TAKE DIS BRANCH UR PROGRAM HANGZ FOREVER"
                                .to_string(),
                            s.span,
                        )
                        .with_note("barriers are collective: every PE must reach them"),
                    );
                }
                if self.txt_depth > 0 {
                    self.diags.push(Diagnostic::warning(
                        "SEM0023",
                        "HUGZ INSIDE TXT MAH BFF DOES NOT TARGET DA BFF — BARRIERS R ALWAYS COLLECTIVE"
                            .to_string(),
                        s.span,
                    ));
                }
            }
            StmtKind::LockAcquire(v) | StmtKind::LockTry(v) | StmtKind::LockRelease(v) => {
                self.features.uses_parallel = true;
                self.check_varref(v);
                if let Some(info) = self.varref_info(v) {
                    if !info.sharin {
                        self.diags.push(
                            Diagnostic::error(
                                "SEM0006",
                                "U CANT MESIN WIF DIS — NOBODY IZ SHARIN IT".to_string(),
                                v.span,
                            )
                            .with_note("declare it WE HAS A ... AN IM SHARIN IT"),
                        );
                    }
                }
            }
            StmtKind::TxtStmt { pe, stmt } => {
                self.features.uses_parallel = true;
                self.check_expr(pe);
                if self.txt_depth > 0 {
                    self.diags.push(Diagnostic::warning(
                        "SEM0019",
                        "TXT MAH BFF INSIDE TXT MAH BFF — DA INNER BFF WINS".to_string(),
                        s.span,
                    ));
                }
                self.txt_depth += 1;
                self.check_stmt(stmt);
                self.txt_depth -= 1;
            }
            StmtKind::TxtBlock { pe, body } => {
                self.features.uses_parallel = true;
                self.check_expr(pe);
                if self.txt_depth > 0 {
                    self.diags.push(Diagnostic::warning(
                        "SEM0019",
                        "TXT MAH BFF INSIDE TXT MAH BFF — DA INNER BFF WINS".to_string(),
                        s.span,
                    ));
                }
                self.txt_depth += 1;
                self.nested(|c| {
                    for st in body {
                        c.check_stmt(st);
                    }
                });
                self.txt_depth -= 1;
            }
        }
    }

    fn check_decl(&mut self, d: &Decl) {
        // Walk size/init expressions first (self-reference is invalid).
        if let Some(sz) = &d.array_size {
            self.check_expr(sz);
        }
        if let Some(init) = &d.init {
            self.check_expr(init);
        }

        match d.scope {
            DeclScope::We => {
                self.features.uses_parallel = true;
                if self.in_function || !self.at_top_level {
                    self.diags.push(
                        Diagnostic::error(
                            "SEM0005",
                            "WE HAS A MUST BE AT DA TOP LEVEL — SYMMETRIC ALLOCASHUN IZ COLLECTIVE"
                                .to_string(),
                            d.span,
                        )
                        .with_note("every PE must execute the declaration in the same order"),
                    );
                    return;
                }
                let Some(ty) = d.ty else {
                    self.diags.push(
                        Diagnostic::error(
                            "SEM0003",
                            format!(
                                "SHARED VARIABLE {} NEEDS A TYPE (NUMBR, NUMBAR OR TROOF)",
                                d.name.sym
                            ),
                            d.span,
                        )
                        .with_note(
                            "symmetric memory is laid out statically, like the paper's C backend",
                        ),
                    );
                    return;
                };
                if !ty.is_word_sized() {
                    self.diags.push(Diagnostic::error(
                        "SEM0003",
                        format!("{} CANT BE SHARED — ONLY WORD-SIZED TYPES (NUMBR, NUMBAR, TROOF) LIV IN SYMMETRIC MEMORY", ty),
                        d.span,
                    ));
                    return;
                }
                let kind = match &d.array_size {
                    None => SharedKind::Scalar,
                    Some(sz) => match const_eval_i64(sz) {
                        Some(n) if n > 0 => SharedKind::Array { len: n as usize },
                        _ => {
                            self.diags.push(
                                Diagnostic::error(
                                    "SEM0004",
                                    "SHARED ARRAY SIZE MUST BE A POSITIVE CONSTANT".to_string(),
                                    sz.span,
                                )
                                .with_note("the symmetric heap is laid out at compile time"),
                            );
                            return;
                        }
                    },
                };
                if self.shared.push(d.name.sym, ty, kind, d.sharin, d.span).is_none() {
                    self.diags.push(Diagnostic::error(
                        "SEM0016",
                        format!("WE ALREADY HAS A {}", d.name.sym),
                        d.span,
                    ));
                    return;
                }
                // Shared vars live in the global scope.
                let info = VarInfo {
                    shared: true,
                    sharin: d.sharin,
                    is_array: matches!(kind, SharedKind::Array { .. }),
                    array_len: match kind {
                        SharedKind::Array { len } => Some(len),
                        SharedKind::Scalar => None,
                    },
                    pinned: true,
                };
                self.scopes[0].insert(d.name.sym, info);
            }
            DeclScope::I => {
                if d.sharin {
                    self.diags.push(
                        Diagnostic::error(
                            "SEM0013",
                            "U CANT BE SHARIN A PRIVATE VARIABLE — USE WE HAS A".to_string(),
                            d.span,
                        )
                        .with_note("locks belong to symmetric shared data (Table II)"),
                    );
                }
                let is_array = d.array_size.is_some();
                let array_len = d.array_size.as_ref().and_then(const_eval_i64).and_then(|n| {
                    if n > 0 {
                        Some(n as usize)
                    } else {
                        None
                    }
                });
                self.declare(
                    d.name.sym,
                    VarInfo {
                        shared: false,
                        sharin: false,
                        is_array,
                        array_len,
                        pinned: d.srsly && !is_array,
                    },
                    d.name.span,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions / references
    // ------------------------------------------------------------------

    fn check_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Lit(Lit::Yarn(parts)) => {
                for p in parts {
                    if let YarnPart::Var(id) = p {
                        if self.resolve(id.sym).is_none() {
                            self.diags.push(Diagnostic::error(
                                "SEM0001",
                                format!("WHO IZ {}? (IN A :{{...}} INTERPOLASHUN)", id.sym),
                                id.span,
                            ));
                        }
                    }
                }
            }
            ExprKind::Lit(_) => {}
            ExprKind::Var(vr) => {
                self.check_varref(vr);
            }
            ExprKind::Index { arr, idx } => {
                self.check_varref(arr);
                if let Some(info) = self.varref_info(arr) {
                    if !info.is_array {
                        self.diags.push(Diagnostic::error(
                            "SEM0022",
                            "DIS IZ NOT AN ARRAY — 'Z ONLY WORKS ON LOTZ A THINGZ".to_string(),
                            arr.span,
                        ));
                    }
                }
                self.check_expr(idx);
            }
            ExprKind::Bin { lhs, rhs, .. } => {
                self.check_expr(lhs);
                self.check_expr(rhs);
            }
            ExprKind::Un { expr, .. } => self.check_expr(expr),
            ExprKind::Nary { args, .. } => {
                for a in args {
                    self.check_expr(a);
                }
            }
            ExprKind::Cast { expr, .. } => self.check_expr(expr),
            ExprKind::Call { name, args } => {
                for a in args {
                    self.check_expr(a);
                }
                match self.funcs.get(&name.sym) {
                    None => self.diags.push(Diagnostic::error(
                        "SEM0007",
                        format!("I DUNNO HOW IZ I {}", name.sym),
                        name.span,
                    )),
                    Some(sig) if sig.arity != args.len() => {
                        self.diags.push(Diagnostic::error(
                            "SEM0008",
                            format!(
                                "{} TAKES {} ARGUMENT(S) BUT I GOTZ {}",
                                name.sym,
                                sig.arity,
                                args.len()
                            ),
                            name.span,
                        ));
                    }
                    Some(_) => {}
                }
            }
            ExprKind::Me | ExprKind::MahFrenz => {
                self.features.uses_parallel = true;
            }
            ExprKind::Whatevr | ExprKind::Whatevar => {}
        }
    }

    fn check_lvalue(&mut self, lv: &LValue) -> Option<VarInfo> {
        match lv {
            LValue::Var(vr) => {
                self.check_varref(vr);
                self.varref_info(vr)
            }
            LValue::Index { arr, idx, .. } => {
                self.check_varref(arr);
                if let Some(info) = self.varref_info(arr) {
                    if !info.is_array {
                        self.diags.push(Diagnostic::error(
                            "SEM0022",
                            "DIS IZ NOT AN ARRAY — 'Z ONLY WORKS ON LOTZ A THINGZ".to_string(),
                            arr.span,
                        ));
                    }
                }
                self.check_expr(idx);
                // Indexed element is scalar-shaped.
                None
            }
        }
    }

    /// Locality + existence checks for a variable reference.
    fn check_varref(&mut self, vr: &VarRef) {
        match vr.locality {
            Locality::Ur => {
                self.features.uses_parallel = true;
                if self.txt_depth == 0 {
                    self.diags.push(
                        Diagnostic::error(
                            "SEM0002",
                            "UR ONLY MAKES SENSE INSIDE TXT MAH BFF — WHOS ADDRESS SPACE IZ DIS?"
                                .to_string(),
                            vr.span,
                        )
                        .with_note("predicate the statement: TXT MAH BFF <pe>, ..."),
                    );
                }
            }
            Locality::Mah => {
                if self.txt_depth == 0 {
                    self.diags.push(Diagnostic::warning(
                        "SEM0018",
                        "MAH OUTSIDE TXT MAH BFF IZ REDUNDANT (EVERYTHIN IZ ALREADY YOURS)"
                            .to_string(),
                        vr.span,
                    ));
                }
            }
            Locality::Unqualified => {}
        }
        match &vr.name {
            VarName::Named(id) => match self.resolve(id.sym) {
                None => self.diags.push(
                    Diagnostic::error("SEM0001", format!("WHO IZ {}?", id.sym), id.span)
                        .with_note("declare it wif I HAS A (or WE HAS A for shared)"),
                ),
                Some(info) => {
                    if vr.locality == Locality::Ur && !info.shared {
                        self.diags.push(
                            Diagnostic::error(
                                "SEM0017",
                                format!(
                                    "{} IZ PRIVATE — ONLY WE HAS A VARIABLES R REMOTELY VISIBLE",
                                    id.sym
                                ),
                                vr.span,
                            )
                            .with_note("the PGAS model shares only symmetric allocations"),
                        );
                    }
                }
            },
            VarName::Srs(e) => {
                self.features.uses_srs = true;
                self.check_expr(e);
            }
        }
    }

    /// Resolve a reference to its VarInfo (named refs only).
    fn varref_info(&self, vr: &VarRef) -> Option<VarInfo> {
        match &vr.name {
            VarName::Named(id) => self.resolve(id.sym),
            VarName::Srs(_) => None,
        }
    }
}
