//! Static type rules shared by the two compilers.
//!
//! The bytecode compiler (`lol-vm`) and the C emitter (`lol-c-codegen`)
//! both infer each expression's static type bottom-up while they emit
//! it, and both drop the coercions those types prove redundant. The
//! rules that are not a plain literal or declaration fact live here, so
//! the two backends can never disagree about what a value is.

use lol_ast::visit::{walk_stmt, Visitor};
use lol_ast::*;

/// The static type of an expression's value: `Some(ty)` when every
/// evaluation that yields a value yields a `ty` (one that faults yields
/// none), `None` when unknown.
pub type Ty = Option<LolType>;

/// How a read materializes an element of a symmetric variable of
/// declared type `ty`: NUMBAR and TROOF cells keep their type, every
/// other cell holds a NUMBR.
pub fn shared_ty(ty: LolType) -> LolType {
    match ty {
        LolType::Numbar | LolType::Troof => ty,
        _ => LolType::Numbr,
    }
}

/// The static result type of `a op b`: arithmetic promotes NUMBR×NUMBR
/// to NUMBR and NUMBAR with any number to NUMBAR (TROOF and YARN
/// operands coerce at run time, so their result is unknown); every
/// other binary operator yields a TROOF.
pub fn bin_ty(op: BinOp, a: Ty, b: Ty) -> Ty {
    use LolType::{Numbar, Numbr};
    match op {
        BinOp::Sum
        | BinOp::Diff
        | BinOp::Produkt
        | BinOp::Quoshunt
        | BinOp::Mod
        | BinOp::BiggrOf
        | BinOp::SmallrOf => match (a?, b?) {
            (Numbr, Numbr) => Some(Numbr),
            (Numbar, Numbr | Numbar) | (Numbr, Numbar) => Some(Numbar),
            _ => None,
        },
        _ => Some(LolType::Troof),
    }
}

/// The static result type of `op t`: `NOT` yields a TROOF, `SQUAR`
/// types like `PRODUKT OF t AN t`, and the root and reciprocal always
/// yield a NUMBAR.
pub fn un_ty(op: UnOp, t: Ty) -> Ty {
    match op {
        UnOp::Not => Some(LolType::Troof),
        UnOp::Squar => bin_ty(BinOp::Produkt, t, t),
        UnOp::Unsquar | UnOp::Flip => Some(LolType::Numbar),
    }
}

/// The static type of a counted loop's counter: it starts at NUMBR 0
/// and only ever steps by NUMBR 1, so it stays a NUMBR unless the body
/// may store to it (or it is `IT`, which every expression statement
/// stores to).
pub fn counter_ty(lp: &LoopStmt) -> Ty {
    let (_, var) = lp.update.as_ref()?;
    (var.sym != Symbol::it() && !may_store(&lp.body, var.sym)).then_some(LolType::Numbr)
}

/// May `body` store to the local `name`? A conservative syntactic scan:
/// `name` is the target of `R`, `GIMMEH` or `IS NOW A`, is redeclared,
/// or is reused as a nested loop's counter. Expressions cannot store to
/// a local, so the scan never descends into them.
pub fn may_store(body: &Block, name: Symbol) -> bool {
    struct Scan {
        name: Symbol,
        hit: bool,
    }
    impl Visitor for Scan {
        fn visit_stmt(&mut self, s: &Stmt) {
            let names = |lv: &LValue| match lv {
                LValue::Var(vr) | LValue::Index { arr: vr, .. } => {
                    matches!(&vr.name, VarName::Named(id) if id.sym == self.name)
                }
            };
            self.hit |= match &s.kind {
                StmtKind::Declare(d) => d.name.sym == self.name,
                StmtKind::Assign { target: lv, .. }
                | StmtKind::Gimmeh(lv)
                | StmtKind::IsNowA { target: lv, .. } => names(lv),
                StmtKind::Loop(lp) => lp.update.as_ref().is_some_and(|(_, v)| v.sym == self.name),
                _ => false,
            };
            walk_stmt(self, s);
        }
        fn visit_expr(&mut self, _: &Expr) {}
    }
    let mut scan = Scan { name, hit: false };
    scan.visit_block(body);
    scan.hit
}
