//! Static type rules shared by the two compilers and the inference of
//! unpinned locals' types.
//!
//! The bytecode compiler (`lol-vm`) and the C emitter (`lol-c-codegen`)
//! both infer each expression's static type bottom-up while they emit
//! it, and both drop the coercions those types prove redundant. The
//! rules live here, so the two backends and sema's own inference
//! ([`crate::Analysis::local_ty`]) can never disagree about what a value
//! is: [`expr_ty`] types a whole expression given what its variables
//! hold.

use crate::{SharedKind, SharedVar};
use lol_ast::*;

/// The static type of an expression's value: `Some(ty)` when every
/// evaluation that yields a value yields a `ty` (one that faults yields
/// none), `None` when unknown.
pub type Ty = Option<LolType>;

/// What a variable reference names, for typing it: a scalar whose
/// values all have the static type, or an array whose elements do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarTy {
    Scalar(Ty),
    Array(Ty),
}

/// The static type of `e`'s value. `resolve` says what each variable
/// reference names where `e` reads it (`None` when nothing typed).
pub fn expr_ty(e: &Expr, resolve: &impl Fn(&VarRef) -> Option<VarTy>) -> Ty {
    match &e.kind {
        ExprKind::Lit(l) => Some(match l {
            Lit::Numbr(_) => LolType::Numbr,
            Lit::Numbar(_) => LolType::Numbar,
            Lit::Troof(_) => LolType::Troof,
            Lit::Noob => LolType::Noob,
            Lit::Yarn(_) => LolType::Yarn,
        }),
        ExprKind::Var(vr) => match resolve(vr)? {
            VarTy::Scalar(ty) => ty,
            VarTy::Array(_) => None,
        },
        ExprKind::Index { arr, .. } => match resolve(arr)? {
            VarTy::Array(ty) => ty,
            VarTy::Scalar(_) => None,
        },
        ExprKind::Bin { op, lhs, rhs } => bin_ty(*op, expr_ty(lhs, resolve), expr_ty(rhs, resolve)),
        ExprKind::Un { op, expr } => un_ty(*op, expr_ty(expr, resolve)),
        ExprKind::Nary { op: NaryOp::Smoosh, .. } => Some(LolType::Yarn),
        ExprKind::Nary { .. } => Some(LolType::Troof),
        ExprKind::Cast { ty, .. } => Some(*ty),
        ExprKind::Call { .. } => None,
        ExprKind::Me | ExprKind::MahFrenz | ExprKind::Whatevr => Some(LolType::Numbr),
        ExprKind::Whatevar => Some(LolType::Numbar),
    }
}

/// What a symmetric variable's name names, for [`expr_ty`]: its reads
/// are typed as [`shared_ty`] materializes them.
pub fn shared_var_ty(sv: &SharedVar) -> VarTy {
    let ty = Some(shared_ty(sv.ty));
    match sv.kind {
        SharedKind::Scalar => VarTy::Scalar(ty),
        SharedKind::Array { .. } => VarTy::Array(ty),
    }
}

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
