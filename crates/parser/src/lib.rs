//! # lol-parser — recursive-descent parser for parallel LOLCODE
//!
//! The paper built its grammar with `yacc`; we use a hand-written
//! recursive-descent parser over the word tokens produced by
//! [`lol_lexer`]. LOLCODE keywords are multi-word phrases, so the parser
//! matches phrases contextually (`SUM OF`, `IM SRSLY MESIN WIF`,
//! `TXT MAH BFF ... AN STUFF`), which also keeps keywords usable as
//! identifiers wherever the grammar is unambiguous — exactly the
//! behaviour of the original `lci` interpreter.
//!
//! The full surface parsed here is Tables I, II and III of the paper;
//! see `lol-ast` for the tree it produces and docs/LANGUAGE.md for the
//! dialect as implemented.

mod expr;

use lol_ast::diag::{Diagnostic, Diagnostics};
use lol_ast::*;
use lol_lexer::{describe, lex, Token, TokenKind};

/// Result of a parse: a program (present even when recoverable errors
/// occurred — missing pieces are dropped) plus diagnostics.
pub struct ParseOutput {
    pub program: Option<Program>,
    pub diags: Diagnostics,
}

impl ParseOutput {
    /// The program, or a rendered diagnostic panic. Test convenience.
    pub fn expect_program(self, src: &str) -> Program {
        if self.diags.has_errors() {
            let sm = SourceMap::new(src);
            panic!("parse failed:\n{}", self.diags.render_all(&sm));
        }
        self.program.expect("no program despite no errors")
    }
}

/// Parse LOLCODE source text into a [`Program`].
pub fn parse(src: &str) -> ParseOutput {
    parse_tokens(lex(src))
}

/// Parse an already-lexed token stream — the [`parse`] pipeline minus
/// lexing, for callers that time (or cache) the two phases separately.
/// Lex diagnostics short-circuit exactly as in [`parse`].
pub fn parse_tokens(lexed: lol_lexer::LexOutput) -> ParseOutput {
    let mut diags = lexed.diags;
    if diags.has_errors() {
        return ParseOutput { program: None, diags };
    }
    let mut p = Parser::new(lexed.tokens);
    let program = p.parse_program();
    for d in p.diags.into_vec() {
        diags.push(d);
    }
    ParseOutput { program: if diags.has_errors() { None } else { program }, diags }
}

/// A multi-word stop phrase (e.g. `["IM", "OUTTA", "YR"]`).
type Phrase = &'static [&'static str];

/// Maximum statement/expression nesting. Recursive descent uses the
/// call stack; beyond this we emit PAR0030 instead of overflowing.
const MAX_DEPTH: usize = 150;

pub(crate) struct Parser {
    toks: Vec<Token>,
    pos: usize,
    pub(crate) diags: Diagnostics,
    pub(crate) depth: usize,
}

impl Parser {
    fn new(toks: Vec<Token>) -> Self {
        Parser { toks, pos: 0, diags: Diagnostics::new(), depth: 0 }
    }

    /// Guard recursive entry points against pathological nesting.
    pub(crate) fn enter(&mut self) -> bool {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.error_here(
                "PAR0030",
                format!("UR PROGRAM IZ NESTED 2 DEEP (MOAR THAN {MAX_DEPTH} LEVELS)"),
            );
            false
        } else {
            true
        }
    }

    pub(crate) fn leave(&mut self) {
        self.depth -= 1;
    }

    // ------------------------------------------------------------------
    // Token-level helpers
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    #[inline]
    pub(crate) fn peek_at(&self, ahead: usize) -> &Token {
        &self.toks[(self.pos + ahead).min(self.toks.len() - 1)]
    }

    #[inline]
    pub(crate) fn bump(&mut self) -> Token {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Does the upcoming token stream spell out `phrase`?
    pub(crate) fn at_phrase(&self, phrase: Phrase) -> bool {
        phrase.iter().enumerate().all(|(i, w)| self.peek_at(i).is_word(w))
    }

    /// Consume `phrase` if present.
    pub(crate) fn eat_phrase(&mut self, phrase: Phrase) -> bool {
        if self.at_phrase(phrase) {
            for _ in 0..phrase.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    /// Consume `phrase` or record an error.
    pub(crate) fn expect_phrase(&mut self, phrase: Phrase, ctx: &str) {
        if !self.eat_phrase(phrase) {
            let got = describe(&self.peek().kind);
            let span = self.peek().span;
            self.diags.push(Diagnostic::error(
                "PAR0001",
                format!("I EXPECTED \"{}\" {ctx} BUT I GOTZ {got}", phrase.join(" ")),
                span,
            ));
        }
    }

    pub(crate) fn at_separator(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Separator | TokenKind::Eof)
    }

    /// Skip any separators.
    pub(crate) fn skip_separators(&mut self) {
        while matches!(self.peek().kind, TokenKind::Separator) {
            self.bump();
        }
    }

    /// Expect end-of-statement (separator or EOF); recover by syncing.
    fn expect_separator(&mut self, ctx: &str) {
        if matches!(self.peek().kind, TokenKind::Separator) {
            self.bump();
        } else if !matches!(self.peek().kind, TokenKind::Eof) {
            let got = describe(&self.peek().kind);
            let span = self.peek().span;
            self.diags.push(Diagnostic::error(
                "PAR0002",
                format!("I EXPECTED DA END OF DA STATEMENT {ctx} BUT I GOTZ {got}"),
                span,
            ));
            self.sync_to_separator();
        }
    }

    /// Error recovery: drop tokens until after the next separator.
    fn sync_to_separator(&mut self) {
        while !matches!(self.peek().kind, TokenKind::Separator | TokenKind::Eof) {
            self.bump();
        }
        if matches!(self.peek().kind, TokenKind::Separator) {
            self.bump();
        }
    }

    /// Expect an identifier word.
    pub(crate) fn expect_ident(&mut self, ctx: &str) -> Option<Ident> {
        match self.peek().kind {
            TokenKind::Word(sym) => {
                let span = self.peek().span;
                self.bump();
                Some(Ident::new(sym, span))
            }
            _ => {
                let got = describe(&self.peek().kind);
                let span = self.peek().span;
                self.diags.push(Diagnostic::error(
                    "PAR0003",
                    format!("I EXPECTED A NAME {ctx} BUT I GOTZ {got}"),
                    span,
                ));
                None
            }
        }
    }

    pub(crate) fn error_here(&mut self, code: &'static str, msg: String) {
        let span = self.peek().span;
        self.diags.push(Diagnostic::error(code, msg, span));
    }

    // ------------------------------------------------------------------
    // Program structure
    // ------------------------------------------------------------------

    fn parse_program(&mut self) -> Option<Program> {
        self.skip_separators();
        self.expect_phrase(&["HAI"], "AT DA START OF DA PROGRAM");
        let version = match self.peek().kind {
            TokenKind::Numbar(f) => {
                self.bump();
                Some(format!("{f:?}"))
            }
            TokenKind::Numbr(n) => {
                self.bump();
                Some(n.to_string())
            }
            _ => None,
        };
        self.expect_separator("AFTER HAI");

        let mut includes = Vec::new();
        let mut body = Vec::new();
        let mut funcs = Vec::new();
        let mut saw_end = false;

        self.skip_separators();
        while !matches!(self.peek().kind, TokenKind::Eof) {
            if self.at_phrase(&["KTHXBYE"]) {
                self.bump();
                saw_end = true;
                self.skip_separators();
                if !matches!(self.peek().kind, TokenKind::Eof) {
                    self.error_here(
                        "PAR0004",
                        "STUFF AFTER KTHXBYE? DATS NOT HOW DIS WORKS".into(),
                    );
                }
                break;
            }
            if self.at_phrase(&["CAN", "HAS"]) {
                let start = self.peek().span;
                self.bump();
                self.bump();
                if let Some(lib) = self.expect_ident("AFTER CAN HAS") {
                    if !matches!(self.peek().kind, TokenKind::Question) {
                        self.error_here("PAR0005", "CAN HAS NEEDS A ? AT DA END".into());
                    } else {
                        self.bump();
                    }
                    includes.push(Include { lib, span: start.to(self.peek().span) });
                }
                self.expect_separator("AFTER CAN HAS");
                self.skip_separators();
                continue;
            }
            if self.at_phrase(&["HOW", "IZ", "I"]) {
                if let Some(f) = self.parse_func() {
                    funcs.push(f);
                }
                self.skip_separators();
                continue;
            }
            let before = self.pos;
            if let Some(s) = self.parse_stmt() {
                body.push(s);
            } else if self.pos == before {
                self.bump();
                self.sync_to_separator();
            }
            self.skip_separators();
        }
        if !saw_end {
            self.error_here("PAR0006", "WHERES MAH KTHXBYE? PROGRAM MUST END WIF IT".into());
        }
        Some(Program { version, includes, body, funcs })
    }

    fn parse_func(&mut self) -> Option<FuncDef> {
        let start = self.peek().span;
        self.expect_phrase(&["HOW", "IZ", "I"], "");
        let name = self.expect_ident("FOR DA FUNKSHUN NAME")?;
        let mut params = Vec::new();
        if self.eat_phrase(&["YR"]) {
            if let Some(p) = self.expect_ident("FOR DA FIRST PARAMETER") {
                params.push(p);
            }
            while self.at_phrase(&["AN", "YR"]) {
                self.bump();
                self.bump();
                if let Some(p) = self.expect_ident("FOR A PARAMETER") {
                    params.push(p);
                }
            }
        }
        self.expect_separator("AFTER DA FUNKSHUN HEADER");
        let body = self.parse_block(&[&["IF", "U", "SAY", "SO"]]);
        self.expect_phrase(&["IF", "U", "SAY", "SO"], "TO END DA FUNKSHUN");
        let span = start.to(self.peek().span);
        self.expect_separator("AFTER IF U SAY SO");
        Some(FuncDef { name, params, body, span })
    }

    /// Parse statements until one of the stop phrases (not consumed) or
    /// EOF (reported as an error).
    fn parse_block(&mut self, stops: &[Phrase]) -> Block {
        let mut out = Vec::new();
        loop {
            self.skip_separators();
            if matches!(self.peek().kind, TokenKind::Eof) {
                self.error_here(
                    "PAR0007",
                    format!(
                        "I RAN OUT OF PROGRAM LOOKIN FOR {}",
                        stops.iter().map(|p| p.join(" ")).collect::<Vec<_>>().join(" OR ")
                    ),
                );
                return out;
            }
            if stops.iter().any(|p| self.at_phrase(p)) {
                return out;
            }
            let before = self.pos;
            if let Some(s) = self.parse_stmt() {
                out.push(s);
            } else if self.pos == before {
                // Error without progress: skip the offending token so we
                // cannot loop forever.
                self.bump();
                self.sync_to_separator();
            }
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn parse_stmt(&mut self) -> Option<Stmt> {
        if !self.enter() {
            return None;
        }
        let out = self.parse_stmt_inner();
        self.leave();
        out
    }

    fn parse_stmt_inner(&mut self) -> Option<Stmt> {
        let start = self.peek().span;

        // Declarations: I HAS A / WE HAS A.
        if self.at_phrase(&["I", "HAS", "A"]) || self.at_phrase(&["WE", "HAS", "A"]) {
            return self.parse_decl();
        }
        // VISIBLE.
        if self.at_phrase(&["VISIBLE"]) {
            self.bump();
            let mut args = Vec::new();
            while !self.at_separator() && !matches!(self.peek().kind, TokenKind::Bang) {
                // Optional AN between printed args.
                if self.at_phrase(&["AN"]) && !args.is_empty() {
                    self.bump();
                    continue;
                }
                args.push(self.parse_expr()?);
            }
            let newline = if matches!(self.peek().kind, TokenKind::Bang) {
                self.bump();
                false
            } else {
                true
            };
            let stmt = Stmt::new(StmtKind::Visible { args, newline }, start.to(self.peek().span));
            self.expect_separator("AFTER VISIBLE");
            return Some(stmt);
        }
        // GIMMEH.
        if self.at_phrase(&["GIMMEH"]) {
            self.bump();
            let lv = self.parse_lvalue()?;
            let stmt = Stmt::new(StmtKind::Gimmeh(lv), start.to(self.peek().span));
            self.expect_separator("AFTER GIMMEH");
            return Some(stmt);
        }
        // HUGZ — the collective barrier.
        if self.at_phrase(&["HUGZ"]) {
            self.bump();
            let stmt = Stmt::new(StmtKind::Hugz, start);
            self.expect_separator("AFTER HUGZ");
            return Some(stmt);
        }
        // Locks (Table II). Order matters: SRSLY variant first.
        if self.at_phrase(&["IM", "SRSLY", "MESIN", "WIF"]) {
            self.bump();
            self.bump();
            self.bump();
            self.bump();
            let v = self.parse_varref()?;
            let stmt = Stmt::new(StmtKind::LockAcquire(v), start.to(self.peek().span));
            self.expect_separator("AFTER IM SRSLY MESIN WIF");
            return Some(stmt);
        }
        if self.at_phrase(&["IM", "MESIN", "WIF"]) {
            self.bump();
            self.bump();
            self.bump();
            let v = self.parse_varref()?;
            let stmt = Stmt::new(StmtKind::LockTry(v), start.to(self.peek().span));
            self.expect_separator("AFTER IM MESIN WIF");
            return Some(stmt);
        }
        if self.at_phrase(&["DUN", "MESIN", "WIF"]) {
            self.bump();
            self.bump();
            self.bump();
            let v = self.parse_varref()?;
            let stmt = Stmt::new(StmtKind::LockRelease(v), start.to(self.peek().span));
            self.expect_separator("AFTER DUN MESIN WIF");
            return Some(stmt);
        }
        // TXT MAH BFF — thread predication.
        if self.at_phrase(&["TXT", "MAH", "BFF"]) {
            self.bump();
            self.bump();
            self.bump();
            let pe = self.parse_expr()?;
            if self.at_phrase(&["AN", "STUFF"]) {
                self.bump();
                self.bump();
                self.expect_separator("AFTER AN STUFF");
                let body = self.parse_block(&[&["TTYL"]]);
                self.expect_phrase(&["TTYL"], "TO END DA TXT BLOCK");
                let span = start.to(self.peek().span);
                self.expect_separator("AFTER TTYL");
                return Some(Stmt::new(StmtKind::TxtBlock { pe, body }, span));
            }
            // Single-statement form: `TXT MAH BFF k, stmt`.
            self.skip_separators();
            let inner = self.parse_stmt()?;
            if !is_simple_stmt(&inner.kind) {
                self.diags.push(Diagnostic::error(
                    "PAR0008",
                    "ONLY SIMPLE STATEMENTS CAN FOLLOW TXT MAH BFF — USE AN STUFF ... TTYL FOR BLOCKS".to_string(),
                    inner.span,
                ));
                return None;
            }
            let span = start.to(inner.span);
            return Some(Stmt::new(StmtKind::TxtStmt { pe, stmt: Box::new(inner) }, span));
        }
        // Loops.
        if self.at_phrase(&["IM", "IN", "YR"]) {
            return self.parse_loop();
        }
        // O RLY? conditional (on IT).
        if self.at_phrase(&["O", "RLY"]) {
            return self.parse_if();
        }
        // WTF? switch (on IT).
        if self.at_phrase(&["WTF"]) && matches!(self.peek_at(1).kind, TokenKind::Question) {
            return self.parse_switch();
        }
        // GTFO.
        if self.at_phrase(&["GTFO"]) {
            self.bump();
            let stmt = Stmt::new(StmtKind::Gtfo, start);
            self.expect_separator("AFTER GTFO");
            return Some(stmt);
        }
        // FOUND YR.
        if self.at_phrase(&["FOUND", "YR"]) {
            self.bump();
            self.bump();
            let e = self.parse_expr()?;
            let stmt = Stmt::new(StmtKind::FoundYr(e), start.to(self.peek().span));
            self.expect_separator("AFTER FOUND YR");
            return Some(stmt);
        }
        // Nested function definitions are top-level only.
        if self.at_phrase(&["HOW", "IZ", "I"]) {
            self.error_here("PAR0009", "FUNKSHUNS GO AT DA TOP LEVEL ONLY".into());
            self.sync_to_separator();
            return None;
        }

        // Everything else starts with an expression / lvalue:
        //   lv R expr            assignment
        //   lv IS NOW A type     re-cast
        //   expr                 expression statement (sets IT)
        let e = self.parse_expr()?;
        if self.at_phrase(&["R"]) {
            self.bump();
            let target = self.expr_to_lvalue(e)?;
            let value = self.parse_expr()?;
            let span = start.to(value.span);
            self.expect_separator("AFTER DA ASSIGNMENT");
            return Some(Stmt::new(StmtKind::Assign { target, value }, span));
        }
        if self.at_phrase(&["IS", "NOW", "A"]) {
            self.bump();
            self.bump();
            self.bump();
            let target = self.expr_to_lvalue(e)?;
            let ty = self.parse_type()?;
            let span = start.to(self.peek().span);
            self.expect_separator("AFTER IS NOW A");
            return Some(Stmt::new(StmtKind::IsNowA { target, ty }, span));
        }
        let span = e.span;
        self.expect_separator("AFTER DA EXPRESSION");
        Some(Stmt::new(StmtKind::ExprStmt(e), span))
    }

    fn parse_decl(&mut self) -> Option<Stmt> {
        let start = self.peek().span;
        let scope = if self.peek().is_word("WE") { DeclScope::We } else { DeclScope::I };
        self.bump(); // I | WE
        self.bump(); // HAS
        self.bump(); // A
        let name = self.expect_ident("FOR DA VARIABLE NAME")?;

        let mut ty: Option<LolType> = None;
        let mut srsly = false;
        let mut array_size: Option<Expr> = None;
        let mut init: Option<Expr> = None;
        let mut sharin = false;

        // Clause list: `ITZ ...` first, then `AN ...` separated clauses.
        // A leading `AN` is also tolerated (`I HAS A x AN IM SHARIN IT`).
        let mut first = true;
        loop {
            let has_clause = self.eat_phrase(&["AN"]) || (first && self.at_phrase(&["ITZ"]));
            if !has_clause {
                break;
            }
            first = false;
            if self.at_phrase(&["IM", "SHARIN", "IT"]) {
                self.bump();
                self.bump();
                self.bump();
                sharin = true;
                continue;
            }
            // All other clauses start with ITZ.
            if !self.eat_phrase(&["ITZ"]) {
                self.error_here(
                    "PAR0010",
                    "I EXPECTED ITZ ... OR IM SHARIN IT IN DIS DECLARASHUN".into(),
                );
                self.sync_to_separator();
                return None;
            }
            let clause_srsly = self.eat_phrase(&["SRSLY"]);
            srsly |= clause_srsly;
            if self.eat_phrase(&["LOTZ", "A"]) {
                // Array: LOTZ A <TYPE>S AN THAR IZ <size>.
                let ty_word = self.expect_ident("FOR DA ARRAY TYPE")?;
                match LolType::from_plural_keyword(ty_word.sym.as_str()) {
                    Some(t) => ty = Some(t),
                    None => {
                        self.diags.push(Diagnostic::error(
                            "PAR0011",
                            format!(
                                "\"{}\" IZ NOT A TYPE I KNOW (TRY NUMBRS, NUMBARS, YARNS, TROOFS)",
                                ty_word.sym
                            ),
                            ty_word.span,
                        ));
                        return None;
                    }
                }
                self.expect_phrase(&["AN", "THAR", "IZ"], "FOR DA ARRAY SIZE");
                array_size = Some(self.parse_expr()?);
            } else if self.eat_phrase(&["A"]) {
                ty = Some(self.parse_type()?);
            } else {
                // Plain initializer: ITZ <expr>.
                init = Some(self.parse_expr()?);
            }
        }

        let span = start.to(self.peek().span);
        let decl = Decl { scope, name, ty, srsly, array_size, init, sharin, span };
        self.expect_separator("AFTER DA DECLARASHUN");
        Some(Stmt::new(StmtKind::Declare(decl), span))
    }

    fn parse_loop(&mut self) -> Option<Stmt> {
        let start = self.peek().span;
        self.expect_phrase(&["IM", "IN", "YR"], "");
        let label = self.expect_ident("FOR DA LOOP LABEL")?;
        let mut update = None;
        if self.at_phrase(&["UPPIN", "YR"]) || self.at_phrase(&["NERFIN", "YR"]) {
            let dir = if self.peek().is_word("UPPIN") { LoopDir::Uppin } else { LoopDir::Nerfin };
            self.bump();
            self.bump();
            let var = self.expect_ident("FOR DA LOOP VARIABLE")?;
            update = Some((dir, var));
        }
        let mut guard = None;
        if self.at_phrase(&["TIL"]) || self.at_phrase(&["WILE"]) {
            let kind = if self.peek().is_word("TIL") { GuardKind::Til } else { GuardKind::Wile };
            self.bump();
            let e = self.parse_expr()?;
            guard = Some((kind, e));
        }
        self.expect_separator("AFTER DA LOOP HEADER");
        let body = self.parse_block(&[&["IM", "OUTTA", "YR"]]);
        self.expect_phrase(&["IM", "OUTTA", "YR"], "TO END DA LOOP");
        if let Some(end_label) = self.expect_ident("FOR DA CLOSIN LOOP LABEL") {
            if end_label.sym != label.sym {
                self.diags.push(
                    Diagnostic::error(
                        "PAR0012",
                        format!(
                            "LOOP LABEL MISMATCH: OPENED {} BUT CLOSED {}",
                            label.sym, end_label.sym
                        ),
                        end_label.span,
                    )
                    .with_note("IM OUTTA YR must name the innermost open loop"),
                );
            }
        }
        let span = start.to(self.peek().span);
        self.expect_separator("AFTER IM OUTTA YR");
        Some(Stmt::new(StmtKind::Loop(LoopStmt { label, update, guard, body }), span))
    }

    fn parse_if(&mut self) -> Option<Stmt> {
        let start = self.peek().span;
        self.expect_phrase(&["O", "RLY"], "");
        if matches!(self.peek().kind, TokenKind::Question) {
            self.bump();
        } else {
            self.error_here("PAR0013", "O RLY NEEDS ITS ? BACK".into());
        }
        self.expect_separator("AFTER O RLY?");
        self.skip_separators();
        // `YA RLY` is optional: the paper's own trylock listing
        // (Section V) jumps straight to `NO WAI`.
        let then_block = if self.eat_phrase(&["YA", "RLY"]) {
            self.expect_separator("AFTER YA RLY");
            self.parse_block(&[&["MEBBE"], &["NO", "WAI"], &["OIC"]])
        } else {
            Vec::new()
        };
        let mut mebbes = Vec::new();
        while self.at_phrase(&["MEBBE"]) {
            self.bump();
            let cond = self.parse_expr()?;
            self.expect_separator("AFTER MEBBE");
            let body = self.parse_block(&[&["MEBBE"], &["NO", "WAI"], &["OIC"]]);
            mebbes.push(MebbeArm { cond, body });
        }
        let else_block = if self.at_phrase(&["NO", "WAI"]) {
            self.bump();
            self.bump();
            self.expect_separator("AFTER NO WAI");
            Some(self.parse_block(&[&["OIC"]]))
        } else {
            None
        };
        self.expect_phrase(&["OIC"], "TO END DA O RLY?");
        let span = start.to(self.peek().span);
        self.expect_separator("AFTER OIC");
        Some(Stmt::new(StmtKind::If(IfStmt { then_block, mebbes, else_block }), span))
    }

    fn parse_switch(&mut self) -> Option<Stmt> {
        let start = self.peek().span;
        self.bump(); // WTF
        self.bump(); // ?
        self.expect_separator("AFTER WTF?");
        self.skip_separators();
        let mut arms = Vec::new();
        while self.at_phrase(&["OMG"]) && !self.at_phrase(&["OMGWTF"]) {
            self.bump();
            let value = self.parse_lit_token()?;
            self.expect_separator("AFTER OMG");
            let body = self.parse_block(&[&["OMG"], &["OMGWTF"], &["OIC"]]);
            arms.push(OmgArm { value, body });
        }
        let default = if self.at_phrase(&["OMGWTF"]) {
            self.bump();
            self.expect_separator("AFTER OMGWTF");
            Some(self.parse_block(&[&["OIC"]]))
        } else {
            None
        };
        self.expect_phrase(&["OIC"], "TO END DA WTF?");
        let span = start.to(self.peek().span);
        self.expect_separator("AFTER OIC");
        Some(Stmt::new(StmtKind::Switch(SwitchStmt { arms, default }), span))
    }

    /// A literal token for `OMG` arms (no general expressions per spec).
    fn parse_lit_token(&mut self) -> Option<Lit> {
        let t = self.peek().clone();
        match t.kind {
            TokenKind::Numbr(n) => {
                self.bump();
                Some(Lit::Numbr(n))
            }
            TokenKind::Numbar(f) => {
                self.bump();
                Some(Lit::Numbar(f))
            }
            TokenKind::Yarn(parts) => {
                self.bump();
                Some(Lit::Yarn(parts))
            }
            TokenKind::Word(w) if w.as_str() == "WIN" => {
                self.bump();
                Some(Lit::Troof(true))
            }
            TokenKind::Word(w) if w.as_str() == "FAIL" => {
                self.bump();
                Some(Lit::Troof(false))
            }
            TokenKind::Word(w) if w.as_str() == "NOOB" => {
                self.bump();
                Some(Lit::Noob)
            }
            _ => {
                self.error_here("PAR0014", "OMG NEEDS A LITERAL VALUE".into());
                None
            }
        }
    }

    pub(crate) fn parse_type(&mut self) -> Option<LolType> {
        let id = self.expect_ident("FOR DA TYPE")?;
        match LolType::from_keyword(id.sym.as_str()) {
            Some(t) => Some(t),
            None => {
                self.diags.push(Diagnostic::error(
                    "PAR0015",
                    format!(
                        "\"{}\" IZ NOT A TYPE I KNOW (TRY NUMBR, NUMBAR, YARN, TROOF, NOOB)",
                        id.sym
                    ),
                    id.span,
                ));
                None
            }
        }
    }

    /// Reinterpret a parsed expression as an assignment target.
    fn expr_to_lvalue(&mut self, e: Expr) -> Option<LValue> {
        match e.kind {
            ExprKind::Var(v) => Some(LValue::Var(v)),
            ExprKind::Index { arr, idx } => Some(LValue::Index { arr, idx, span: e.span }),
            _ => {
                self.diags.push(Diagnostic::error(
                    "PAR0016",
                    "DIS IZ NOT SOMETHIN U CAN ASSIGN TO".to_string(),
                    e.span,
                ));
                None
            }
        }
    }
}

/// Statements allowed after single-statement `TXT MAH BFF expr,`.
fn is_simple_stmt(k: &StmtKind) -> bool {
    matches!(
        k,
        StmtKind::Assign { .. }
            | StmtKind::ExprStmt(_)
            | StmtKind::Visible { .. }
            | StmtKind::Gimmeh(_)
            | StmtKind::Declare(_)
            | StmtKind::LockAcquire(_)
            | StmtKind::LockTry(_)
            | StmtKind::LockRelease(_)
            | StmtKind::IsNowA { .. }
    )
}

#[cfg(test)]
mod tests;
