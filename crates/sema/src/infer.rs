//! Inference of the one static type of each unpinned local.
//!
//! A flow-insensitive, optimistic fixed point. Every unpinned scalar
//! `I HAS A` whose initial type is a NUMBR, NUMBAR or TROOF starts as a
//! candidate of that type: `T` for `ITZ A T` (its default) and
//! `ITZ A T AN ITZ e` (coerced), else the type of `ITZ e`. Each pass
//! walks the program with its scopes, re-types every `R` store to a
//! candidate under the current assumptions and drops the candidate when
//! the store's type is not exactly its own (a NUMBR into a NUMBAR
//! local is a mismatch too). Passes repeat until one drops nothing.
//! Types only get lost when an operand becomes unknown, so this ends,
//! and then every value a surviving local can hold has its type.
//!
//! A counted loop's counter is a candidate too: it starts at NUMBR 0
//! and steps by NUMBR 1.
//!
//! A candidate is dropped outright when it is the target of `GIMMEH` or
//! `IS NOW A`, when its name is declared again (or reused as a loop
//! counter) while it is in scope, or when its own declaration shadows
//! another local. The compilers lower a local that keeps its type
//! exactly as they lower a pinned one, without the pin's cast.

use crate::types::{expr_ty, shared_var_ty, Ty, VarTy};
use crate::SharedLayout;
use lol_ast::*;
use std::collections::{HashMap, HashSet};

/// What a local name is bound to.
#[derive(Clone, Copy)]
enum Bind {
    /// An unpinned scalar declaration or a loop counter, by its name's
    /// span.
    Unpinned(Span),
    /// Anything else: a pinned local, an array, a parameter.
    Fixed(VarTy),
}

/// The inferred type of every unpinned local scalar and loop counter
/// that has one, keyed by the span of its name where it is declared.
pub(crate) fn local_types(program: &Program, shared: &SharedLayout) -> HashMap<Span, LolType> {
    let mut inf = Infer {
        shared,
        scopes: Vec::new(),
        live: HashMap::new(),
        dropped: HashSet::new(),
        changed: false,
    };
    loop {
        inf.changed = false;
        inf.unit(&[], &program.body);
        for f in &program.funcs {
            inf.unit(&f.params, &f.body);
        }
        if !inf.changed {
            return inf.live;
        }
    }
}

struct Infer<'a> {
    shared: &'a SharedLayout,
    scopes: Vec<HashMap<Symbol, Bind>>,
    /// The candidates still standing, with their types.
    live: HashMap<Span, LolType>,
    /// The declarations that have no one static type.
    dropped: HashSet<Span>,
    /// Whether this pass dropped a candidate: the stores it typed
    /// before that may have assumed it.
    changed: bool,
}

impl Infer<'_> {
    /// The main body, or a function's.
    fn unit(&mut self, params: &[Ident], body: &Block) {
        self.scopes.push(HashMap::new());
        for p in params {
            self.bind(p.sym, Bind::Fixed(VarTy::Scalar(None)));
        }
        self.stmts(body);
        self.scopes.pop();
    }

    fn block(&mut self, body: &Block) {
        self.scopes.push(HashMap::new());
        self.stmts(body);
        self.scopes.pop();
    }

    fn stmts(&mut self, body: &Block) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Declare(d) if d.scope == DeclScope::I => self.decl(d),
            StmtKind::Assign { target: LValue::Var(vr), value } => {
                if let Some(span) = self.unpinned(vr) {
                    let ty = self.ty(value);
                    self.store(span, ty);
                }
            }
            StmtKind::Gimmeh(LValue::Var(vr))
            | StmtKind::IsNowA { target: LValue::Var(vr), .. } => {
                if let Some(span) = self.unpinned(vr) {
                    self.drop(span);
                }
            }
            StmtKind::If(ifs) => {
                self.block(&ifs.then_block);
                for m in &ifs.mebbes {
                    self.block(&m.body);
                }
                if let Some(e) = &ifs.else_block {
                    self.block(e);
                }
            }
            StmtKind::Switch(sw) => {
                for arm in &sw.arms {
                    self.block(&arm.body);
                }
                if let Some(d) = &sw.default {
                    self.block(d);
                }
            }
            StmtKind::Loop(lp) => {
                // The counter, guard and body share one scope. The
                // counter starts at NUMBR 0 and steps by NUMBR 1; `IT`
                // takes every expression statement's value instead.
                self.scopes.push(HashMap::new());
                if let Some((_, var)) = &lp.update {
                    if var.sym == Symbol::it() {
                        self.drop(var.span);
                    } else {
                        self.candidate(var.span, Some(LolType::Numbr));
                    }
                    self.bind(var.sym, Bind::Unpinned(var.span));
                }
                self.stmts(&lp.body);
                self.scopes.pop();
            }
            StmtKind::TxtStmt { stmt, .. } => self.stmt(stmt),
            StmtKind::TxtBlock { body, .. } => self.block(body),
            _ => {}
        }
    }

    fn decl(&mut self, d: &Decl) {
        let name = d.name.sym;
        let bind = if d.array_size.is_some() {
            Bind::Fixed(VarTy::Array(Some(d.ty.unwrap_or(LolType::Noob))))
        } else if d.srsly {
            Bind::Fixed(VarTy::Scalar(d.ty))
        } else {
            // The initializer sees the bindings outside the declaration.
            let ty = match (&d.init, d.ty) {
                (_, Some(ty)) => Some(ty),
                (Some(e), None) => self.ty(e),
                (None, None) => Some(LolType::Noob),
            };
            let span = d.name.span;
            if name == Symbol::it() || self.lookup(name).is_some() {
                self.drop(span);
            } else {
                self.candidate(span, ty);
            }
            Bind::Unpinned(span)
        };
        self.bind(name, bind);
    }

    /// The binding at `span` starts with a value of type `ty`: a new
    /// candidate on the first pass, and like a store on later ones.
    fn candidate(&mut self, span: Span, ty: Ty) {
        if self.live.contains_key(&span) || self.dropped.contains(&span) {
            self.store(span, ty);
        } else if let Some(t) = ty.filter(|t| t.is_word_sized()) {
            self.live.insert(span, t);
        } else {
            self.dropped.insert(span);
        }
    }

    /// Bind `name` in the innermost scope. A local it shadows or
    /// redeclares loses its candidacy.
    fn bind(&mut self, name: Symbol, bind: Bind) {
        if let Some(Bind::Unpinned(span)) = self.lookup(name) {
            self.drop(span);
        }
        self.scopes.last_mut().expect("a scope").insert(name, bind);
    }

    fn lookup(&self, name: Symbol) -> Option<Bind> {
        self.scopes.iter().rev().find_map(|s| s.get(&name)).copied()
    }

    /// The unpinned local declaration a reference names, if it does.
    fn unpinned(&self, vr: &VarRef) -> Option<Span> {
        match (&vr.name, vr.locality) {
            (_, Locality::Ur) | (VarName::Srs(_), _) => None,
            (VarName::Named(id), _) => match self.lookup(id.sym)? {
                Bind::Unpinned(span) => Some(span),
                Bind::Fixed(_) => None,
            },
        }
    }

    /// A store of a value of type `ty` to the candidate at `span`.
    fn store(&mut self, span: Span, ty: Ty) {
        if self.live.get(&span).is_some_and(|t| Some(*t) != ty) {
            self.drop(span);
        }
    }

    fn drop(&mut self, span: Span) {
        self.changed |= self.live.remove(&span).is_some();
        self.dropped.insert(span);
    }

    /// `e`'s static type under the current assumptions.
    fn ty(&self, e: &Expr) -> Ty {
        expr_ty(e, &|vr: &VarRef| {
            let VarName::Named(id) = &vr.name else { return None };
            if vr.locality != Locality::Ur {
                match self.lookup(id.sym) {
                    Some(Bind::Unpinned(span)) => {
                        return Some(VarTy::Scalar(self.live.get(&span).copied()))
                    }
                    Some(Bind::Fixed(t)) => return Some(t),
                    None => {}
                }
            }
            self.shared.get(id.sym).map(shared_var_ty)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze;
    use lol_ast::visit::{walk_decl, walk_stmt, Visitor};
    use lol_ast::{Decl, DeclScope, LolType, LoopStmt, Stmt, StmtKind};
    use lol_parser::parse;
    use LolType::{Numbar, Numbr, Troof};

    /// Every `I HAS A` scalar of `body` (wrapped in `HAI`/`KTHXBYE`), in
    /// source order, with the type `local_ty` gives it.
    fn local_tys(body: &str) -> Vec<(String, Option<LolType>)> {
        struct Decls(Vec<Decl>);
        impl Visitor for Decls {
            fn visit_decl(&mut self, d: &Decl) {
                if d.scope == DeclScope::I && d.array_size.is_none() {
                    self.0.push(d.clone());
                }
                walk_decl(self, d);
            }
        }
        let src = format!("HAI 1.2\n{body}\nKTHXBYE\n");
        let p = parse(&src).expect_program(&src);
        let a = analyze(&p);
        assert!(a.is_ok(), "sema errors: {:?}", a.diags.iter().collect::<Vec<_>>());
        let mut decls = Decls(Vec::new());
        decls.visit_program(&p);
        decls.0.iter().map(|d| (d.name.sym.to_string(), a.local_ty(d))).collect()
    }

    fn ty_of(body: &str, name: &str) -> Option<LolType> {
        let tys = local_tys(body);
        let found: Vec<_> = tys.iter().filter(|(n, _)| n == name).collect();
        assert_eq!(found.len(), 1, "one declaration of {name} in {tys:?}");
        found[0].1
    }

    #[test]
    fn initial_types_come_from_the_declaration() {
        let tys = local_tys(
            "I HAS A a ITZ A NUMBR AN ITZ \"7\"\nI HAS A b ITZ A NUMBAR\nI HAS A c ITZ 2.5\n\
             I HAS A d ITZ BOTH SAEM 1 AN 2\nI HAS A e ITZ SUM OF a AN 1\nI HAS A f\n\
             I HAS A g ITZ \"x\"\nI HAS A h ITZ A YARN\nI HAS A i ITZ SRSLY A YARN",
        );
        let want = [
            ("a", Some(Numbr)),
            ("b", Some(Numbar)),
            ("c", Some(Numbar)),
            ("d", Some(Troof)),
            ("e", Some(Numbr)),
            // NOOB and YARN locals stay dynamic; a pin is its own type.
            ("f", None),
            ("g", None),
            ("h", None),
            ("i", Some(LolType::Yarn)),
        ];
        let want: Vec<_> = want.iter().map(|(n, t)| (n.to_string(), *t)).collect();
        assert_eq!(tys, want);
    }

    #[test]
    fn stores_of_the_same_type_keep_the_type() {
        let body = "I HAS A h ITZ A NUMBR AN ITZ 5\nI HAS A f ITZ 0.5\nI HAS A t ITZ WIN\n\
                    IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\n\
                    h R MOD OF SUM OF PRODUKT OF h AN 48271 AN i AN 2147483647\n\
                    f R QUOSHUNT OF f AN h\nt R NOT BOTH SAEM h AN 0\n\
                    IM OUTTA YR l";
        assert_eq!(ty_of(body, "h"), Some(Numbr));
        assert_eq!(ty_of(body, "f"), Some(Numbar));
        assert_eq!(ty_of(body, "t"), Some(Troof));
    }

    #[test]
    fn a_store_of_another_type_disqualifies() {
        // Promotion is a mismatch in both directions.
        assert_eq!(ty_of("I HAS A x ITZ 1\nx R 2.5", "x"), None);
        assert_eq!(ty_of("I HAS A x ITZ 1.5\nx R 2", "x"), None);
        assert_eq!(ty_of("I HAS A x ITZ 1\nx R \"2\"", "x"), None);
        assert_eq!(ty_of("I HAS A x ITZ WIN\nx R 1", "x"), None);
        // Only a dynamic operand loses the type of arithmetic.
        assert_eq!(ty_of("I HAS A y\nI HAS A x ITZ 1\nx R SUM OF x AN y", "x"), None);
    }

    #[test]
    fn gimmeh_disqualifies() {
        assert_eq!(ty_of("I HAS A x ITZ 1\nGIMMEH x", "x"), None);
    }

    #[test]
    fn is_now_a_disqualifies() {
        assert_eq!(ty_of("I HAS A x ITZ 1\nx IS NOW A NUMBR", "x"), None);
    }

    #[test]
    fn a_call_result_disqualifies() {
        let body = "HOW IZ I f\nFOUND YR 1\nIF U SAY SO\nI HAS A x ITZ 1\nx R I IZ f MKAY";
        assert_eq!(ty_of(body, "x"), None);
        assert_eq!(
            ty_of("HOW IZ I f\nFOUND YR 1\nIF U SAY SO\nI HAS A x ITZ I IZ f MKAY", "x"),
            None
        );
    }

    #[test]
    fn shadowing_disqualifies_both_declarations() {
        let tys = local_tys(
            "I HAS A x ITZ 1\nIM IN YR l UPPIN YR i TIL BOTH SAEM i AN 2\n\
             I HAS A x ITZ 2\nVISIBLE x\nIM OUTTA YR l",
        );
        assert_eq!(tys, [("x".to_string(), None), ("x".to_string(), None)]);
        // A local that shadows a parameter is dynamic too.
        assert_eq!(
            ty_of("HOW IZ I f YR p\nWIN, O RLY?\nYA RLY\nI HAS A p ITZ 1\nOIC\nIF U SAY SO", "p"),
            None
        );
    }

    #[test]
    fn declarations_in_sibling_scopes_are_independent() {
        let tys = local_tys(
            "WIN, O RLY?\nYA RLY\nI HAS A t ITZ 1\nt R 2\nNO WAI\nI HAS A t ITZ 1\nt R 0.5\nOIC",
        );
        assert_eq!(tys, [("t".to_string(), Some(Numbr)), ("t".to_string(), None)]);
    }

    #[test]
    fn reuse_as_a_loop_counter_disqualifies() {
        let body = "I HAS A i ITZ 0\nIM IN YR l UPPIN YR i TIL BOTH SAEM i AN 2\nIM OUTTA YR l";
        assert_eq!(ty_of(body, "i"), None);
    }

    #[test]
    fn stores_resolve_by_scope() {
        // Outside the local's block, `x` is the symmetric NUMBAR.
        let body = "WE HAS A x ITZ SRSLY A NUMBAR\nI HAS A k ITZ 0\nTXT MAH BFF k AN STUFF\n\
                    I HAS A x ITZ 1\nx R 3\nTTYL\nx R 2.5\nTXT MAH BFF k, UR x R 0.5";
        assert_eq!(ty_of(body, "x"), Some(Numbr));
        // `MAH x` is the local.
        let body = "I HAS A k ITZ 0\nI HAS A x ITZ 1\nTXT MAH BFF k, MAH x R 2.5";
        assert_eq!(ty_of(body, "x"), None);
    }

    #[test]
    fn a_mutual_dependency_stays_typed() {
        // Each store's type depends on the other local's: the optimistic
        // fixed point keeps both.
        let body = "I HAS A a ITZ 0\nI HAS A b ITZ 1\n\
                    IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5\n\
                    a R SUM OF b AN 1\nb R PRODUKT OF a AN 2\nIM OUTTA YR l";
        assert_eq!(ty_of(body, "a"), Some(Numbr));
        assert_eq!(ty_of(body, "b"), Some(Numbr));
        // Breaking `b` after `a`'s store was typed takes `a` down too.
        let broken = format!("{body}\nb R 0.5");
        assert_eq!(ty_of(&broken, "a"), None);
        assert_eq!(ty_of(&broken, "b"), None);
    }

    #[test]
    fn function_locals_are_inferred_and_parameters_are_not() {
        let body = "HOW IZ I f YR p\nI HAS A n ITZ 0\nn R SUM OF n AN 1\nI HAS A q ITZ p\n\
                    FOUND YR n\nIF U SAY SO";
        assert_eq!(ty_of(body, "n"), Some(Numbr));
        assert_eq!(ty_of(body, "q"), None);
    }

    /// Each counted loop's counter in `body`, in source order, with the
    /// type `counter_ty` gives it.
    fn counter_tys(body: &str) -> Vec<(String, Option<LolType>)> {
        struct Loops(Vec<LoopStmt>);
        impl Visitor for Loops {
            fn visit_stmt(&mut self, s: &Stmt) {
                if let StmtKind::Loop(lp) = &s.kind {
                    self.0.push(lp.clone());
                }
                walk_stmt(self, s);
            }
        }
        let src = format!("HAI 1.2\n{body}\nKTHXBYE\n");
        let p = parse(&src).expect_program(&src);
        let a = analyze(&p);
        let mut loops = Loops(Vec::new());
        loops.visit_program(&p);
        let name =
            |lp: &LoopStmt| lp.update.as_ref().map_or(String::new(), |(_, v)| v.sym.to_string());
        loops.0.iter().map(|lp| (name(lp), a.counter_ty(lp))).collect()
    }

    #[test]
    fn counters_are_numbrs_while_their_stores_are() {
        let l = |var: &str, body: &str| {
            format!("IM IN YR l UPPIN YR {var} TIL BOTH SAEM {var} AN 9\n{body}\nIM OUTTA YR l")
        };
        let n = |name: &str| (name.to_string(), Some(Numbr));
        let dynamic = |name: &str| (name.to_string(), None);
        assert_eq!(counter_tys(&l("i", "VISIBLE i")), [n("i")]);
        assert_eq!(counter_tys(&l("i", "i R SUM OF i AN 2")), [n("i")]);
        assert_eq!(counter_tys(&l("i", "i R MAEK i A NUMBAR")), [dynamic("i")]);
        assert_eq!(counter_tys(&l("i", "i IS NOW A NUMBR")), [dynamic("i")]);
        // A nested loop reusing the name takes the outer counter down,
        // and keeps its own.
        assert_eq!(counter_tys(&l("i", &l("i", "VISIBLE i"))), [dynamic("i"), n("i")]);
        // IT takes every expression statement's value.
        assert_eq!(counter_tys(&l("IT", "VISIBLE IT")), [dynamic("IT")]);
    }

    #[test]
    fn nothing_is_inferred_in_a_program_that_uses_srs() {
        assert_eq!(ty_of("I HAS A x ITZ 1\nSRS \"x\" R \"a\"", "x"), None);
    }
}
