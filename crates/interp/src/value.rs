//! Runtime values and LOLCODE 1.2 coercion semantics.
//!
//! The five types (`NOOB`, `TROOF`, `NUMBR`, `NUMBAR`, `YARN`) coerce
//! the way the original `lci` interpreter does:
//!
//! * arithmetic promotes NUMBR→NUMBAR when either side is (or parses
//!   as) a float; NUMBR÷NUMBR is integer division,
//! * casting NUMBAR to YARN keeps two decimal places (the `%.2f` of the
//!   reference implementation),
//! * `NOOB` casts implicitly only to TROOF (`FAIL`); any other cast of
//!   an uninitialized value is a runtime error,
//! * YARNs coerce numerically by parsing (`"3"` → 3, `"3.5"` → 3.5).

use std::fmt::{self, Write as _};
use std::sync::Arc;

/// A runtime LOLCODE value: 16 bytes, a tag and one word.
///
/// A YARN is a shared, growable buffer: clones share it, and
/// [`Value::yarn_mut`] appends in place when the buffer has one owner
/// (copying it first otherwise), so `s R SMOOSH s AN … MKAY` on the VM
/// costs no new string.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Noob,
    Troof(bool),
    Numbr(i64),
    Numbar(f64),
    Yarn(Arc<String>),
}

/// A runtime error with a stable code (rendered LOLCODE-style by the
/// driver).
#[derive(Debug, Clone, PartialEq)]
pub struct RunError {
    pub code: &'static str,
    pub message: String,
}

impl RunError {
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        RunError { code, message: message.into() }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O NOES! [{}] {}", self.code, self.message)
    }
}

impl std::error::Error for RunError {}

/// Result alias used throughout the interpreter.
pub type RResult<T> = Result<T, RunError>;

/// A number: integer or float, after numeric coercion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    I(i64),
    F(f64),
}

impl Num {
    pub fn as_f64(self) -> f64 {
        match self {
            Num::I(i) => i as f64,
            Num::F(f) => f,
        }
    }
}

impl Value {
    /// Make a YARN value.
    pub fn yarn(s: impl Into<String>) -> Value {
        Value::Yarn(Arc::new(s.into()))
    }

    /// The type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Noob => "NOOB",
            Value::Troof(_) => "TROOF",
            Value::Numbr(_) => "NUMBR",
            Value::Numbar(_) => "NUMBAR",
            Value::Yarn(_) => "YARN",
        }
    }

    /// Coerce to TROOF (always succeeds): empty/zero/NOOB are FAIL.
    pub fn to_troof(&self) -> bool {
        match self {
            Value::Noob => false,
            Value::Troof(b) => *b,
            Value::Numbr(n) => *n != 0,
            Value::Numbar(f) => *f != 0.0,
            Value::Yarn(s) => !s.is_empty(),
        }
    }

    /// Coerce to a number for arithmetic.
    pub fn to_num(&self) -> RResult<Num> {
        match self {
            Value::Noob => Err(RunError::new(
                "RUN0002",
                "CANT DO MATHS WIF NOOB (DECLARE AN INITIALIZE UR VARIABLE)",
            )),
            Value::Troof(b) => Ok(Num::I(*b as i64)),
            Value::Numbr(n) => Ok(Num::I(*n)),
            Value::Numbar(f) => Ok(Num::F(*f)),
            Value::Yarn(s) => parse_yarn_number(s),
        }
    }

    /// Explicit cast to NUMBR.
    pub fn to_numbr(&self) -> RResult<i64> {
        match self.to_num()? {
            Num::I(i) => Ok(i),
            Num::F(f) => Ok(f as i64),
        }
    }

    /// Explicit cast to NUMBAR.
    pub fn to_numbar(&self) -> RResult<f64> {
        Ok(self.to_num()?.as_f64())
    }

    /// Coerce to YARN (printing rules; NUMBAR keeps 2 decimals like lci).
    pub fn to_yarn(&self) -> RResult<String> {
        let mut s = String::new();
        self.push_yarn(&mut s)?;
        Ok(s)
    }

    /// Append this value's YARN rendering (the [`Value::to_yarn`]
    /// text) to `out`, formatting numbers straight into it.
    pub fn push_yarn(&self, out: &mut String) -> RResult<()> {
        match self {
            Value::Noob => return Err(RunError::new("RUN0003", "CANT MAKE A YARN OUT OF NOOB")),
            Value::Troof(b) => out.push_str(if *b { "WIN" } else { "FAIL" }),
            Value::Numbr(n) => {
                // Writing to a `String` cannot fail.
                let _ = write!(out, "{n}");
            }
            Value::Numbar(f) => push_numbar(out, *f),
            Value::Yarn(s) => out.push_str(s),
        }
        Ok(())
    }

    /// Make this value a YARN (faulting exactly as [`Value::to_yarn`]
    /// does) and return its buffer for appending: the buffer itself
    /// when this value is its only owner, else a fresh copy, so no
    /// other holder of the YARN sees the change.
    pub fn yarn_mut(&mut self) -> RResult<&mut String> {
        if !matches!(self, Value::Yarn(_)) {
            *self = Value::yarn(self.to_yarn()?);
        }
        match self {
            Value::Yarn(s) => Ok(Arc::make_mut(s)),
            _ => unreachable!("made a YARN above"),
        }
    }

    /// `BOTH SAEM` equality: NUMBR/NUMBAR pairs compare numerically,
    /// otherwise same-type comparison; mixed types are FAIL.
    pub fn saem(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Noob, Noob) => true,
            (Troof(a), Troof(b)) => a == b,
            (Numbr(a), Numbr(b)) => a == b,
            (Numbar(a), Numbar(b)) => a == b,
            (Numbr(a), Numbar(b)) | (Numbar(b), Numbr(a)) => *a as f64 == *b,
            (Yarn(a), Yarn(b)) => a == b,
            _ => false,
        }
    }
}

/// Append a NUMBAR's YARN rendering to `out`: two decimals for finite
/// values (the `%.2f` of the reference implementation), and the
/// C-library-style lowercase spellings for the non-finite ones.
///
/// All four backends share this rendering. The sign of a NaN is
/// deliberately dropped: IEEE leaves it unspecified (x86 SSE produces
/// `-nan` for `0.0/0.0` where Rust's formatter says `NaN`), so pinning
/// a plain `nan` on every backend is the only portable choice.
fn push_numbar(out: &mut String, f: f64) {
    if f.is_finite() {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{f:.2}");
    } else if f.is_nan() {
        out.push_str("nan");
    } else if f > 0.0 {
        out.push_str("inf");
    } else {
        out.push_str("-inf");
    }
}

/// Parse a YARN as NUMBR or NUMBAR (decimal point / exponent → float).
fn parse_yarn_number(s: &str) -> RResult<Num> {
    let t = s.trim();
    if t.contains('.') || t.contains('e') || t.contains('E') {
        t.parse::<f64>()
            .map(Num::F)
            .map_err(|_| RunError::new("RUN0004", format!("\"{s}\" IZ NOT A NUMBAR")))
    } else {
        t.parse::<i64>()
            .map(Num::I)
            .map_err(|_| RunError::new("RUN0004", format!("\"{s}\" IZ NOT A NUMBR")))
    }
}

/// Integer arithmetic (wrapping, like the reference C backend's
/// two's-complement behavior; division checks for zero).
#[inline]
pub fn arith_int(op: lol_ast::BinOp, x: i64, y: i64) -> RResult<i64> {
    use lol_ast::BinOp::*;
    let r = match op {
        Sum => x.wrapping_add(y),
        Diff => x.wrapping_sub(y),
        Produkt => x.wrapping_mul(y),
        Quoshunt => {
            if y == 0 {
                return Err(RunError::new("RUN0001", "DIVIDIN BY ZERO IZ NOT ALLOWED"));
            }
            x.wrapping_div(y)
        }
        Mod => {
            if y == 0 {
                return Err(RunError::new("RUN0001", "MOD BY ZERO IZ NOT ALLOWED"));
            }
            x.wrapping_rem(y)
        }
        BiggrOf => x.max(y),
        SmallrOf => x.min(y),
        _ => unreachable!("not an arithmetic op: {op:?}"),
    };
    Ok(r)
}

/// Float arithmetic (IEEE — division by zero is inf/nan, not a fault).
#[inline]
fn arith_float(op: lol_ast::BinOp, x: f64, y: f64) -> Value {
    use lol_ast::BinOp::*;
    let r = match op {
        Sum => x + y,
        Diff => x - y,
        Produkt => x * y,
        Quoshunt => x / y,
        Mod => x % y,
        BiggrOf => x.max(y),
        SmallrOf => x.min(y),
        _ => unreachable!("not an arithmetic op: {op:?}"),
    };
    Value::Numbar(r)
}

/// Apply a LOLCODE arithmetic operator with promotion rules.
///
/// The all-NUMBR and all-NUMBAR cases — the only ones hot loops hit —
/// dispatch without constructing [`Num`] intermediates; the mixed and
/// coercing cases (TROOF/YARN operands) fall back to [`Value::to_num`].
#[inline]
pub fn arith(op: lol_ast::BinOp, a: &Value, b: &Value) -> RResult<Value> {
    match (a, b) {
        (Value::Numbr(x), Value::Numbr(y)) => arith_int(op, *x, *y).map(Value::Numbr),
        (Value::Numbar(x), Value::Numbar(y)) => Ok(arith_float(op, *x, *y)),
        (Value::Numbr(x), Value::Numbar(y)) => Ok(arith_float(op, *x as f64, *y)),
        (Value::Numbar(x), Value::Numbr(y)) => Ok(arith_float(op, *x, *y as f64)),
        _ => match (a.to_num()?, b.to_num()?) {
            (Num::I(x), Num::I(y)) => arith_int(op, x, y).map(Value::Numbr),
            (na, nb) => Ok(arith_float(op, na.as_f64(), nb.as_f64())),
        },
    }
}

/// Apply a comparison operator (`BIGGER` / `SMALLR`).
#[inline]
pub fn compare(op: lol_ast::BinOp, a: &Value, b: &Value) -> RResult<Value> {
    use lol_ast::BinOp::*;
    // Comparison is float-domain on every backend (the C runtime
    // compares via `lol_to_dbl` too), so NUMBRs beyond 2^53 must keep
    // rounding identically here — no integer special case.
    let (x, y) = match (a, b) {
        (Value::Numbr(x), Value::Numbr(y)) => (*x as f64, *y as f64),
        (Value::Numbar(x), Value::Numbar(y)) => (*x, *y),
        _ => (a.to_num()?.as_f64(), b.to_num()?.as_f64()),
    };
    let r = match op {
        Bigger => x > y,
        Smallr => x < y,
        _ => unreachable!("not a comparison: {op:?}"),
    };
    Ok(Value::Troof(r))
}

/// Default value for a declared (typed) variable.
pub fn default_for(ty: lol_ast::LolType) -> Value {
    use lol_ast::LolType;
    match ty {
        LolType::Noob => Value::Noob,
        LolType::Troof => Value::Troof(false),
        LolType::Numbr => Value::Numbr(0),
        LolType::Numbar => Value::Numbar(0.0),
        LolType::Yarn => Value::yarn(""),
    }
}

/// Explicit cast (`MAEK`, `IS NOW A`).
pub fn cast(v: &Value, ty: lol_ast::LolType) -> RResult<Value> {
    use lol_ast::LolType;
    Ok(match ty {
        LolType::Noob => Value::Noob,
        LolType::Troof => Value::Troof(v.to_troof()),
        LolType::Numbr => Value::Numbr(v.to_numbr()?),
        LolType::Numbar => Value::Numbar(v.to_numbar()?),
        // A YARN is immutable once shared, so casting one shares it.
        LolType::Yarn if matches!(v, Value::Yarn(_)) => v.clone(),
        LolType::Yarn => Value::yarn(v.to_yarn()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lol_ast::BinOp;

    #[test]
    fn troof_coercions() {
        assert!(!Value::Noob.to_troof());
        assert!(Value::Troof(true).to_troof());
        assert!(!Value::Numbr(0).to_troof());
        assert!(Value::Numbr(-3).to_troof());
        assert!(!Value::Numbar(0.0).to_troof());
        assert!(Value::Numbar(0.1).to_troof());
        assert!(!Value::yarn("").to_troof());
        assert!(Value::yarn("x").to_troof());
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let v = arith(BinOp::Quoshunt, &Value::Numbr(7), &Value::Numbr(2)).unwrap();
        assert_eq!(v, Value::Numbr(3), "NUMBR division truncates");
        let v = arith(BinOp::Sum, &Value::Numbr(2), &Value::Numbr(3)).unwrap();
        assert_eq!(v, Value::Numbr(5));
        let v = arith(BinOp::Mod, &Value::Numbr(7), &Value::Numbr(4)).unwrap();
        assert_eq!(v, Value::Numbr(3));
    }

    #[test]
    fn float_promotion() {
        let v = arith(BinOp::Sum, &Value::Numbr(1), &Value::Numbar(0.5)).unwrap();
        assert_eq!(v, Value::Numbar(1.5));
        let v = arith(BinOp::Quoshunt, &Value::Numbar(7.0), &Value::Numbr(2)).unwrap();
        assert_eq!(v, Value::Numbar(3.5));
    }

    #[test]
    fn yarn_numeric_coercion() {
        let v = arith(BinOp::Sum, &Value::yarn("3"), &Value::Numbr(4)).unwrap();
        assert_eq!(v, Value::Numbr(7));
        let v = arith(BinOp::Sum, &Value::yarn("3.5"), &Value::Numbr(1)).unwrap();
        assert_eq!(v, Value::Numbar(4.5));
        assert!(arith(BinOp::Sum, &Value::yarn("fish"), &Value::Numbr(1)).is_err());
    }

    #[test]
    fn troof_is_numeric_01() {
        let v = arith(BinOp::Sum, &Value::Troof(true), &Value::Troof(true)).unwrap();
        assert_eq!(v, Value::Numbr(2));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = arith(BinOp::Quoshunt, &Value::Numbr(1), &Value::Numbr(0)).unwrap_err();
        assert_eq!(e.code, "RUN0001");
        let e = arith(BinOp::Mod, &Value::Numbr(1), &Value::Numbr(0)).unwrap_err();
        assert_eq!(e.code, "RUN0001");
        // Float division by zero is IEEE.
        let v = arith(BinOp::Quoshunt, &Value::Numbar(1.0), &Value::Numbar(0.0)).unwrap();
        assert_eq!(v, Value::Numbar(f64::INFINITY));
    }

    #[test]
    fn noob_math_errors() {
        let e = arith(BinOp::Sum, &Value::Noob, &Value::Numbr(1)).unwrap_err();
        assert_eq!(e.code, "RUN0002");
    }

    #[test]
    fn biggr_smallr_of_are_min_max() {
        assert_eq!(
            arith(BinOp::BiggrOf, &Value::Numbr(3), &Value::Numbr(7)).unwrap(),
            Value::Numbr(7)
        );
        assert_eq!(
            arith(BinOp::SmallrOf, &Value::Numbr(3), &Value::Numbr(7)).unwrap(),
            Value::Numbr(3)
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            compare(BinOp::Bigger, &Value::Numbr(4), &Value::Numbr(3)).unwrap(),
            Value::Troof(true)
        );
        assert_eq!(
            compare(BinOp::Smallr, &Value::Numbar(1.5), &Value::Numbr(2)).unwrap(),
            Value::Troof(true)
        );
        assert_eq!(
            compare(BinOp::Bigger, &Value::Numbr(3), &Value::Numbr(3)).unwrap(),
            Value::Troof(false)
        );
    }

    #[test]
    fn saem_semantics() {
        assert!(Value::Numbr(1).saem(&Value::Numbr(1)));
        assert!(Value::Numbr(1).saem(&Value::Numbar(1.0)), "NUMBR widens to NUMBAR");
        assert!(!Value::Numbr(1).saem(&Value::yarn("1")), "no implicit yarn compare");
        assert!(Value::yarn("a").saem(&Value::yarn("a")));
        assert!(Value::Noob.saem(&Value::Noob));
        assert!(!Value::Noob.saem(&Value::Numbr(0)));
        assert!(!Value::Troof(false).saem(&Value::Numbr(0)));
    }

    #[test]
    fn yarn_casting_rules() {
        assert_eq!(Value::Numbr(42).to_yarn().unwrap(), "42");
        assert_eq!(Value::Numbar(1.23456).to_yarn().unwrap(), "1.23", "lci keeps 2 decimals");
        assert_eq!(Value::Numbar(2.0).to_yarn().unwrap(), "2.00");
        assert_eq!(Value::Troof(true).to_yarn().unwrap(), "WIN");
        assert!(Value::Noob.to_yarn().is_err());
    }

    #[test]
    fn non_finite_numbars_render_c_style() {
        // One spelling on all four backends: lowercase, sign-stripped
        // NaN (IEEE leaves the NaN sign unspecified across dividers).
        assert_eq!(Value::Numbar(f64::INFINITY).to_yarn().unwrap(), "inf");
        assert_eq!(Value::Numbar(f64::NEG_INFINITY).to_yarn().unwrap(), "-inf");
        assert_eq!(Value::Numbar(f64::NAN).to_yarn().unwrap(), "nan");
        assert_eq!(Value::Numbar(-f64::NAN).to_yarn().unwrap(), "nan");
    }

    #[test]
    fn a_value_is_two_words() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn push_yarn_appends_the_to_yarn_text() {
        for v in [
            Value::Troof(false),
            Value::Numbr(-42),
            Value::Numbar(2.5),
            Value::Numbar(f64::NAN),
            Value::Numbar(f64::NEG_INFINITY),
            Value::yarn("cat"),
        ] {
            let mut out = "x".to_string();
            v.push_yarn(&mut out).unwrap();
            assert_eq!(out, format!("x{}", v.to_yarn().unwrap()), "{v:?}");
        }
        assert_eq!(Value::Noob.push_yarn(&mut String::new()).unwrap_err().code, "RUN0003");
    }

    #[test]
    fn yarn_mut_copies_a_shared_buffer_and_reuses_a_sole_one() {
        let mut s = Value::yarn("ab");
        let alias = s.clone();
        s.yarn_mut().unwrap().push('c');
        assert_eq!(alias, Value::yarn("ab"), "the alias keeps its text");
        assert_eq!(s, Value::yarn("abc"));
        let Value::Yarn(before) = &s else { unreachable!() };
        let before = Arc::as_ptr(before);
        s.yarn_mut().unwrap().push('d');
        let Value::Yarn(after) = &s else { unreachable!() };
        assert_eq!(Arc::as_ptr(after), before, "a sole owner appends in place");

        let mut n = Value::Numbr(7);
        n.yarn_mut().unwrap().push('!');
        assert_eq!(n, Value::yarn("7!"));
        assert_eq!(Value::Noob.yarn_mut().unwrap_err().code, "RUN0003");
    }

    #[test]
    fn casting_a_yarn_to_yarn_shares_it() {
        use lol_ast::LolType;
        let v = Value::yarn("meow");
        let (Value::Yarn(a), Value::Yarn(b)) = (&v, &cast(&v, LolType::Yarn).unwrap()) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn explicit_casts() {
        use lol_ast::LolType;
        assert_eq!(cast(&Value::yarn("3"), LolType::Numbr).unwrap(), Value::Numbr(3));
        assert_eq!(cast(&Value::Numbar(3.9), LolType::Numbr).unwrap(), Value::Numbr(3));
        assert_eq!(cast(&Value::Numbr(3), LolType::Numbar).unwrap(), Value::Numbar(3.0));
        assert_eq!(cast(&Value::Noob, LolType::Troof).unwrap(), Value::Troof(false));
        assert!(cast(&Value::Noob, LolType::Numbr).is_err());
        assert_eq!(cast(&Value::Numbr(0), LolType::Troof).unwrap(), Value::Troof(false));
    }

    #[test]
    fn defaults() {
        use lol_ast::LolType;
        assert_eq!(default_for(LolType::Numbr), Value::Numbr(0));
        assert_eq!(default_for(LolType::Numbar), Value::Numbar(0.0));
        assert_eq!(default_for(LolType::Troof), Value::Troof(false));
        assert_eq!(default_for(LolType::Yarn), Value::yarn(""));
        assert_eq!(default_for(LolType::Noob), Value::Noob);
    }

    #[test]
    fn wrapping_not_panicking() {
        // Overflow wraps (teaching simulator, not UB).
        let v = arith(BinOp::Sum, &Value::Numbr(i64::MAX), &Value::Numbr(1)).unwrap();
        assert_eq!(v, Value::Numbr(i64::MIN));
    }
}
