//! The abstract syntax tree for parallel LOLCODE.
//!
//! Covers the full surface of the paper:
//!
//! * Table I — LOLCODE 1.2 basics (declarations, `VISIBLE`/`GIMMEH`,
//!   operators, casts, `O RLY?`, `WTF?`, `IM IN YR` loops, functions,
//!   statement separators and continuations),
//! * Table II — parallel/distributed extensions (`ME`, `MAH FRENZ`,
//!   `HUGZ`, locks, `TXT MAH BFF` predication, `UR`/`MAH` locality
//!   qualifiers, shared/static declarations, `'Z` indexing),
//! * Table III — convenience extensions (`WHATEVR`, `WHATEVAR`,
//!   `SQUAR OF`, `UNSQUAR OF`, `FLIP OF`).
//!
//! Every node carries a [`Span`]; structural equality for tests that
//! compare trees modulo positions is provided by [`Program::eq_modulo_spans`]
//! via the pretty-printer (two trees are equal iff their canonical
//! printouts match).

use crate::intern::Symbol;
use crate::span::Span;
use crate::types::LolType;

/// A whole program: `HAI [version] ... KTHXBYE` plus hoisted functions.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The version literal after `HAI`, if present (e.g. `1.2`).
    pub version: Option<String>,
    /// `CAN HAS <lib>?` includes, recorded in order.
    pub includes: Vec<Include>,
    /// Top-level statements between `HAI` and `KTHXBYE`.
    pub body: Block,
    /// `HOW IZ I` function definitions (top level only, like lci).
    pub funcs: Vec<FuncDef>,
}

/// `CAN HAS STDIO?` — the paper keeps these as no-op imports.
#[derive(Debug, Clone, PartialEq)]
pub struct Include {
    pub lib: Ident,
    pub span: Span,
}

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// An identifier with its source position.
///
/// Equality and hashing consider only the symbol, not the span, so two
/// references to the same name compare equal wherever they appear.
#[derive(Debug, Clone, Copy, Eq)]
pub struct Ident {
    pub sym: Symbol,
    pub span: Span,
}

impl PartialEq for Ident {
    fn eq(&self, other: &Self) -> bool {
        self.sym == other.sym
    }
}

impl std::hash::Hash for Ident {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sym.hash(state);
    }
}

impl Ident {
    pub fn new(sym: impl Into<Symbol>, span: Span) -> Self {
        Ident { sym: sym.into(), span }
    }

    /// Synthesized identifier with a dummy span (tests, desugaring).
    pub fn synthetic(name: &str) -> Self {
        Ident { sym: Symbol::intern(name), span: Span::DUMMY }
    }
}

/// `UR x` / `MAH x` / bare `x` — where a variable reference resolves
/// under `TXT MAH BFF` predication (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Locality {
    /// No qualifier: the local instance (docs/LANGUAGE.md, "Symmetric
    /// (shared) data").
    #[default]
    Unqualified,
    /// `MAH x` — explicitly the local instance.
    Mah,
    /// `UR x` — the instance of the current BFF (predicated PE).
    Ur,
}

/// How a variable is named: statically, or dynamically via `SRS expr`.
#[derive(Debug, Clone, PartialEq)]
pub enum VarName {
    /// An ordinary identifier.
    Named(Ident),
    /// `SRS expr` — the YARN value of `expr` names the variable.
    Srs(Box<Expr>),
}

impl VarName {
    /// The static symbol, if this is not an `SRS` reference.
    pub fn as_named(&self) -> Option<Ident> {
        match self {
            VarName::Named(id) => Some(*id),
            VarName::Srs(_) => None,
        }
    }
}

/// A (possibly qualified) variable reference.
#[derive(Debug, Clone, PartialEq)]
pub struct VarRef {
    pub name: VarName,
    pub locality: Locality,
    pub span: Span,
}

impl VarRef {
    /// Unqualified reference to a named variable.
    pub fn named(id: Ident) -> Self {
        VarRef { name: VarName::Named(id), locality: Locality::Unqualified, span: id.span }
    }
}

/// The target of an assignment or `GIMMEH`.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar (or whole-array: `MAH array R UR array`) variable.
    Var(VarRef),
    /// `arr'Z idx` — an array element (Table II).
    Index { arr: VarRef, idx: Box<Expr>, span: Span },
}

impl LValue {
    pub fn span(&self) -> Span {
        match self {
            LValue::Var(v) => v.span,
            LValue::Index { span, .. } => *span,
        }
    }
}

/// Binary prefix operators (`SUM OF x AN y`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `SUM OF` — addition.
    Sum,
    /// `DIFF OF` — subtraction.
    Diff,
    /// `PRODUKT OF` — multiplication.
    Produkt,
    /// `QUOSHUNT OF` — division (integer when both NUMBRs).
    Quoshunt,
    /// `MOD OF` — modulo.
    Mod,
    /// `BIGGR OF` — max (LOLCODE 1.2).
    BiggrOf,
    /// `SMALLR OF` — min (LOLCODE 1.2).
    SmallrOf,
    /// `BOTH SAEM` — equality.
    BothSaem,
    /// `DIFFRINT` — inequality.
    Diffrint,
    /// `BIGGER` — greater-than (paper, Table I).
    Bigger,
    /// `SMALLR` — less-than (paper, Table I).
    Smallr,
    /// `BOTH OF` — logical and.
    BothOf,
    /// `EITHER OF` — logical or.
    EitherOf,
    /// `WON OF` — logical xor.
    WonOf,
}

impl BinOp {
    /// Canonical source spelling.
    pub fn keyword(self) -> &'static str {
        match self {
            BinOp::Sum => "SUM OF",
            BinOp::Diff => "DIFF OF",
            BinOp::Produkt => "PRODUKT OF",
            BinOp::Quoshunt => "QUOSHUNT OF",
            BinOp::Mod => "MOD OF",
            BinOp::BiggrOf => "BIGGR OF",
            BinOp::SmallrOf => "SMALLR OF",
            BinOp::BothSaem => "BOTH SAEM",
            BinOp::Diffrint => "DIFFRINT",
            BinOp::Bigger => "BIGGER",
            BinOp::Smallr => "SMALLR",
            BinOp::BothOf => "BOTH OF",
            BinOp::EitherOf => "EITHER OF",
            BinOp::WonOf => "WON OF",
        }
    }

    /// Is this an arithmetic operator (operands coerced to numbers)?
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Sum
                | BinOp::Diff
                | BinOp::Produkt
                | BinOp::Quoshunt
                | BinOp::Mod
                | BinOp::BiggrOf
                | BinOp::SmallrOf
        )
    }

    /// Is this a comparison (result TROOF)?
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::BothSaem | BinOp::Diffrint | BinOp::Bigger | BinOp::Smallr)
    }

    /// Is this a boolean connective (operands coerced to TROOF)?
    pub fn is_boolean(self) -> bool {
        matches!(self, BinOp::BothOf | BinOp::EitherOf | BinOp::WonOf)
    }
}

/// Unary prefix operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `NOT` — logical negation.
    Not,
    /// `SQUAR OF` — x*x (Table III).
    Squar,
    /// `UNSQUAR OF` — sqrt(x) (Table III).
    Unsquar,
    /// `FLIP OF` — 1/x (Table III).
    Flip,
}

impl UnOp {
    pub fn keyword(self) -> &'static str {
        match self {
            UnOp::Not => "NOT",
            UnOp::Squar => "SQUAR OF",
            UnOp::Unsquar => "UNSQUAR OF",
            UnOp::Flip => "FLIP OF",
        }
    }
}

/// Variadic operators terminated by `MKAY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NaryOp {
    /// `ALL OF a AN b ... MKAY` — n-ary and.
    AllOf,
    /// `ANY OF a AN b ... MKAY` — n-ary or.
    AnyOf,
    /// `SMOOSH a AN b ... MKAY` — string concatenation.
    Smoosh,
}

impl NaryOp {
    pub fn keyword(self) -> &'static str {
        match self {
            NaryOp::AllOf => "ALL OF",
            NaryOp::AnyOf => "ANY OF",
            NaryOp::Smoosh => "SMOOSH",
        }
    }
}

/// A piece of a YARN literal: either raw text or a `:{var}` interpolation.
#[derive(Debug, Clone, PartialEq)]
pub enum YarnPart {
    /// Literal text (escapes already resolved).
    Text(String),
    /// `:{name}` — interpolate the named variable at runtime.
    Var(Ident),
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer literal.
    Numbr(i64),
    /// Float literal.
    Numbar(f64),
    /// String literal with optional interpolations.
    Yarn(Vec<YarnPart>),
    /// `WIN` / `FAIL`.
    Troof(bool),
    /// `NOOB`.
    Noob,
}

impl Lit {
    /// A YARN literal with no interpolation.
    pub fn yarn(s: impl Into<String>) -> Lit {
        Lit::Yarn(vec![YarnPart::Text(s.into())])
    }
}

/// Expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

impl Expr {
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// A literal.
    Lit(Lit),
    /// Variable read (includes `IT`).
    Var(VarRef),
    /// `arr'Z idx` — array element read.
    Index { arr: VarRef, idx: Box<Expr> },
    /// Binary prefix operation `OP lhs AN rhs`.
    Bin { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// Unary prefix operation.
    Un { op: UnOp, expr: Box<Expr> },
    /// Variadic operation terminated by `MKAY`.
    Nary { op: NaryOp, args: Vec<Expr> },
    /// `MAEK expr A type` — cast.
    Cast { expr: Box<Expr>, ty: LolType },
    /// `I IZ name [YR a [AN YR b ...]] MKAY` — function call.
    Call { name: Ident, args: Vec<Expr> },
    /// `ME` — this PE's id (Table II).
    Me,
    /// `MAH FRENZ` — total number of PEs (Table II).
    MahFrenz,
    /// `WHATEVR` — random integer (Table III).
    Whatevr,
    /// `WHATEVAR` — random float in [0,1) (Table III).
    Whatevar,
}

/// Kind of loop update clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopDir {
    /// `UPPIN` — increment by one.
    Uppin,
    /// `NERFIN` — decrement by one.
    Nerfin,
}

/// `TIL` / `WILE` guard flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardKind {
    /// `TIL expr` — loop until expr becomes WIN.
    Til,
    /// `WILE expr` — loop while expr stays WIN.
    Wile,
}

/// `IM IN YR label [UPPIN|NERFIN YR var [TIL|WILE expr]] ... IM OUTTA YR label`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopStmt {
    pub label: Ident,
    /// Update clause, if present.
    pub update: Option<(LoopDir, Ident)>,
    /// Guard clause, if present.
    pub guard: Option<(GuardKind, Expr)>,
    pub body: Block,
}

/// One `MEBBE expr ... ` arm of an `O RLY?`.
#[derive(Debug, Clone, PartialEq)]
pub struct MebbeArm {
    pub cond: Expr,
    pub body: Block,
}

/// `expr, O RLY? YA RLY ... [MEBBE ...] [NO WAI ...] OIC`.
#[derive(Debug, Clone, PartialEq)]
pub struct IfStmt {
    /// YA RLY branch.
    pub then_block: Block,
    /// MEBBE branches in order.
    pub mebbes: Vec<MebbeArm>,
    /// NO WAI branch.
    pub else_block: Option<Block>,
}

/// One `OMG literal` arm of a `WTF?`.
#[derive(Debug, Clone, PartialEq)]
pub struct OmgArm {
    pub value: Lit,
    pub body: Block,
}

/// `WTF? OMG v ... [OMGWTF ...] OIC`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchStmt {
    pub arms: Vec<OmgArm>,
    pub default: Option<Block>,
}

/// Declaration scope: `I HAS A` (private) vs `WE HAS A` (symmetric shared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclScope {
    /// `I HAS A` — per-PE private variable.
    I,
    /// `WE HAS A` — symmetric shared variable (PGAS, Table II).
    We,
}

/// A variable or array declaration with the paper's multi-clause
/// extensions.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub scope: DeclScope,
    pub name: Ident,
    /// Declared type, from `ITZ A t` or `ITZ SRSLY A t`.
    pub ty: Option<LolType>,
    /// `SRSLY` — statically typed (paper extension).
    pub srsly: bool,
    /// `LOTZ A <type>S AN THAR IZ <size>` — array with element count.
    pub array_size: Option<Expr>,
    /// `ITZ value` / `AN ITZ value` initializer.
    pub init: Option<Expr>,
    /// `AN IM SHARIN IT` — attach an implicit lock (Table II).
    pub sharin: bool,
    pub span: Span,
}

/// `HOW IZ I name [YR p [AN YR q ...]] ... IF U SAY SO`.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    pub name: Ident,
    pub params: Vec<Ident>,
    pub body: Block,
    pub span: Span,
}

/// Statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

impl Stmt {
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span }
    }
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Variable/array declaration.
    Declare(Decl),
    /// `target R value` (also whole-array copy).
    Assign { target: LValue, value: Expr },
    /// Bare expression: evaluates into `IT`.
    ExprStmt(Expr),
    /// `VISIBLE a b c [!]` — print; `newline == false` when `!`-suffixed.
    Visible { args: Vec<Expr>, newline: bool },
    /// `GIMMEH var` — read a line of input into var (as YARN).
    Gimmeh(LValue),
    /// `O RLY?` conditional on `IT`.
    If(IfStmt),
    /// `WTF?` switch on `IT`.
    Switch(SwitchStmt),
    /// `IM IN YR ...` loop.
    Loop(LoopStmt),
    /// `GTFO` — break from loop/switch, or return NOOB from a function.
    Gtfo,
    /// `FOUND YR expr` — return a value from a function.
    FoundYr(Expr),
    /// `var IS NOW A type` — in-place cast.
    IsNowA { target: LValue, ty: LolType },
    /// `HUGZ` — collective barrier (Table II).
    Hugz,
    /// `IM SRSLY MESIN WIF var` — blocking lock acquire (Table II).
    LockAcquire(VarRef),
    /// `IM MESIN WIF var` — non-blocking trylock; sets `IT` (Table II).
    LockTry(VarRef),
    /// `DUN MESIN WIF var` — lock release (Table II).
    LockRelease(VarRef),
    /// `TXT MAH BFF expr, stmt` — single-statement predication.
    TxtStmt { pe: Expr, stmt: Box<Stmt> },
    /// `TXT MAH BFF expr AN STUFF ... TTYL` — block predication.
    TxtBlock { pe: Expr, body: Block },
}

impl Program {
    /// Compare two programs ignoring spans, by canonical printing.
    ///
    /// The pretty-printer emits a normal form (one statement per line, no
    /// comments, canonical keyword spellings), so textual equality of the
    /// printouts is exactly structural equality modulo spans.
    pub fn eq_modulo_spans(&self, other: &Program) -> bool {
        crate::pretty::print_program(self) == crate::pretty::print_program(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(n: i64) -> Expr {
        Expr::new(ExprKind::Lit(Lit::Numbr(n)), Span::DUMMY)
    }

    #[test]
    fn build_simple_program() {
        let prog = Program {
            version: Some("1.2".into()),
            includes: vec![],
            body: vec![Stmt::new(
                StmtKind::Visible { args: vec![num(42)], newline: true },
                Span::DUMMY,
            )],
            funcs: vec![],
        };
        assert_eq!(prog.body.len(), 1);
        assert!(prog.eq_modulo_spans(&prog.clone()));
    }

    #[test]
    fn binop_classification_is_partitioned() {
        let all = [
            BinOp::Sum,
            BinOp::Diff,
            BinOp::Produkt,
            BinOp::Quoshunt,
            BinOp::Mod,
            BinOp::BiggrOf,
            BinOp::SmallrOf,
            BinOp::BothSaem,
            BinOp::Diffrint,
            BinOp::Bigger,
            BinOp::Smallr,
            BinOp::BothOf,
            BinOp::EitherOf,
            BinOp::WonOf,
        ];
        for op in all {
            let classes =
                [op.is_arith(), op.is_comparison(), op.is_boolean()].iter().filter(|&&b| b).count();
            assert_eq!(classes, 1, "{op:?} must belong to exactly one class");
        }
    }

    #[test]
    fn keywords_are_distinct() {
        use std::collections::HashSet;
        let kws: HashSet<&str> = [
            BinOp::Sum,
            BinOp::Diff,
            BinOp::Produkt,
            BinOp::Quoshunt,
            BinOp::Mod,
            BinOp::BiggrOf,
            BinOp::SmallrOf,
            BinOp::BothSaem,
            BinOp::Diffrint,
            BinOp::Bigger,
            BinOp::Smallr,
            BinOp::BothOf,
            BinOp::EitherOf,
            BinOp::WonOf,
        ]
        .iter()
        .map(|o| o.keyword())
        .collect();
        assert_eq!(kws.len(), 14);
    }

    #[test]
    fn lvalue_span_delegates() {
        let v = VarRef::named(Ident::synthetic("x"));
        assert_eq!(LValue::Var(v.clone()).span(), Span::DUMMY);
        let idx = LValue::Index { arr: v, idx: Box::new(num(1)), span: Span::new(3, 9) };
        assert_eq!(idx.span(), Span::new(3, 9));
    }

    #[test]
    fn varname_as_named() {
        let named = VarName::Named(Ident::synthetic("x"));
        assert!(named.as_named().is_some());
        let srs = VarName::Srs(Box::new(num(1)));
        assert!(srs.as_named().is_none());
    }

    #[test]
    fn lit_yarn_helper() {
        assert_eq!(Lit::yarn("HAI"), Lit::Yarn(vec![YarnPart::Text("HAI".into())]));
    }
}
