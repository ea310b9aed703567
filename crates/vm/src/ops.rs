//! The bytecode instruction set.
//!
//! Two value paths share one instruction stream:
//!
//! * the **stack path**: expressions of unknown static type leave
//!   [`Value`]s on the operand stack, and untyped locals live in a
//!   per-frame slot array (slot 0 is `IT`);
//! * the **register path**: values the compiler proves NUMBR, NUMBAR or
//!   TROOF live in a per-frame bank of raw 64-bit registers (an `i64`,
//!   an `f64`'s bits, or 0/1), and three-address ops (`AddI d a b`,
//!   `MulD`, typed compare-and-branch, typed array loads and stores)
//!   compute on them without touching the stack. [`Op::Box`] and
//!   [`Op::Unbox`] cross between the two.
//!
//! Shared (symmetric) accesses carry their resolved heap offset, type
//! and length — everything the semantic analysis could pin down ahead
//! of time.

use lol_ast::{BinOp, LolType, Symbol, UnOp};
use lol_interp::Value;

/// Does a `ty` value live in a raw register word (NUMBR, NUMBAR and
/// TROOF do; YARN and NOOB stay values)?
pub fn is_raw(ty: LolType) -> bool {
    matches!(ty, LolType::Numbr | LolType::Numbar | LolType::Troof)
}

/// Where an array lives, for whole-array copies.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrLoc {
    /// A frame-local array (index into the frame's array table, a
    /// separate space from scalar slots).
    Local { arr: u16 },
    /// A symmetric array; `remote` selects the current BFF instead of
    /// the own instance.
    Shared { off: u32, len: u32, ty: LolType, remote: bool },
}

/// A typed comparison: `BOTH SAEM`, `DIFFRINT`, `BIGGER`, `SMALLR`.
/// On NUMBR registers `Gt`/`Lt` compare in the float domain, as every
/// backend does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Eq,
    Ne,
    Gt,
    Lt,
}

/// One instruction. `d`, `s`, `a`, `b` and `idx` of the register ops
/// name registers of the frame's raw bank.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push constant `k`.
    Const(u16),
    /// Push local slot.
    LoadLocal(u16),
    /// Pop into local slot.
    StoreLocal(u16),
    /// Pop, cast, push (for `MAEK` / pinned stores / `IS NOW A`).
    Cast(LolType),
    /// Pop and discard.
    Pop,

    /// Load a shared scalar (own or BFF instance).
    SharedLoad {
        off: u32,
        ty: LolType,
        remote: bool,
    },
    /// Pop value, store to a shared scalar.
    SharedStore {
        off: u32,
        ty: LolType,
        remote: bool,
    },
    /// Pop index, push element of a shared array.
    SharedLoadIdx {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
    },
    /// Pop index then value, store element of a shared array.
    SharedStoreIdx {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
    },

    /// Pop size, create local array `arr`.
    LocalArrNew {
        arr: u16,
        ty: LolType,
    },
    /// Pop index, push element of local array `arr`.
    LocalArrLoad {
        arr: u16,
    },
    /// Pop index then value, store element of local array `arr`,
    /// cast to the element type after the index check unless the
    /// compiler proved the value already has it (`cast == false`).
    LocalArrStore {
        arr: u16,
        cast: bool,
    },
    /// Whole-array copy (Section VI.A).
    ArrayCopy {
        dst: ArrLoc,
        src: ArrLoc,
    },

    /// Binary operator on the top two values (lhs below rhs).
    Bin(BinOp),
    /// Unary operator on the top value.
    Un(UnOp),

    // Superinstructions — peephole fusions of the idioms the compiler
    // emits for loop guards, stencil index arithmetic and reductions.
    // Each is exactly equivalent to the op sequence it replaces; the
    // fuser never folds across an interior jump target.
    /// `LoadLocal a; LoadLocal b; Bin(op)`.
    BinLL {
        op: BinOp,
        a: u16,
        b: u16,
    },
    /// `LoadLocal a; Const k; Bin(op)`.
    BinLC {
        op: BinOp,
        a: u16,
        k: u16,
    },
    /// `LoadLocal b; Bin(op)` — rhs from a slot, lhs on the stack.
    BinSL {
        op: BinOp,
        b: u16,
    },
    /// `Const k; Bin(op)` — rhs from the pool, lhs on the stack.
    BinSC {
        op: BinOp,
        k: u16,
    },
    /// `LoadLocal a; LoadLocal b; Bin(op); StoreLocal dst` — the
    /// reduction idiom (`acc R SUM OF acc AN x`).
    BinLLS {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `LoadLocal a; Const k; Bin(op); StoreLocal dst` — counted-loop
    /// increments and index arithmetic.
    BinLCS {
        op: BinOp,
        a: u16,
        k: u16,
        dst: u16,
    },
    /// Counted-loop guard: jump when `slots[slot]` SAEMs `consts[k]`.
    /// Fuses both guard shapes the compiler emits (`TIL BOTH SAEM`
    /// via `Bin(BothSaem); Un(Not); JumpIfFalse` and `WILE DIFFRINT`
    /// via `Bin(Diffrint); JumpIfFalse`).
    JumpIfLocalEqConst {
        slot: u16,
        k: u16,
        target: u32,
    },
    /// Same guard shapes with a variable bound: jump when `slots[a]`
    /// SAEMs `slots[b]`.
    JumpIfLocalEqLocal {
        a: u16,
        b: u16,
        target: u32,
    },
    /// `LoadLocal slot; JumpIfFalse target` — `O RLY?` on `IT`.
    JumpIfLocalFalse {
        slot: u16,
        target: u32,
    },
    /// `LoadLocal idx; LocalArrLoad { arr }` — stencil reads.
    LocalArrLoadL {
        arr: u16,
        idx: u16,
    },
    /// `LoadLocal idx; LocalArrStore { arr, cast }` — stencil writes.
    LocalArrStoreL {
        arr: u16,
        idx: u16,
        cast: bool,
    },
    /// `LoadLocal idx; SharedLoadIdx { .. }` — symmetric-array reads
    /// indexed by a loop variable.
    SharedLoadIdxL {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
        idx: u16,
    },
    /// `LoadLocal idx; SharedStoreIdx { .. }`.
    SharedStoreIdxL {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
        idx: u16,
    },
    /// N-ary string concat.
    Smoosh(u8),
    /// `slot R SMOOSH slot AN … MKAY`: pop the `n` other operands and
    /// append them to the YARN in value slot `slot`, in place when the
    /// slot is its buffer's only owner (see [`Value::yarn_mut`]).
    SmooshInto {
        slot: u16,
        n: u8,
    },
    /// N-ary AND / OR.
    AllOf(u8),
    AnyOf(u8),

    /// Unconditional jump (absolute pc).
    Jump(u32),
    /// Pop; jump when FAIL-y.
    JumpIfFalse(u32),

    /// Call function `func` with `argc` stack arguments.
    Call {
        func: u16,
        argc: u8,
    },
    /// Return the top of stack from the current function.
    Ret,

    /// Pop `argc` printed values (pushed left-to-right), emit.
    Visible {
        argc: u8,
        newline: bool,
    },
    /// Push one input line as a YARN.
    ReadLine,

    /// `HUGZ`.
    Barrier,
    /// Locks on the resolved lock cell.
    LockAcquire {
        off: u32,
        remote: bool,
    },
    /// Pushes WIN/FAIL.
    LockTry {
        off: u32,
        remote: bool,
    },
    LockRelease {
        off: u32,
        remote: bool,
    },

    /// Pop PE number, validate, push onto the BFF (predication) stack.
    PushBff,
    /// Pop the BFF stack.
    PopBff,

    /// Environment queries / randomness.
    Me,
    MahFrenz,
    RandI,
    RandF,

    // Register ops: three-address code over the frame's raw bank.
    /// `regs[d] = regs[s]`.
    Mov {
        d: u16,
        s: u16,
    },
    /// Push `regs[s]` as a `ty` value.
    Box {
        s: u16,
        ty: LolType,
    },
    /// Pop a value and store it raw as a `ty` in `regs[d]`. The
    /// compiler emits it only on values already of type `ty` (a pinned
    /// store from an unproven value casts first); any other value
    /// converts as [`Op::Cast`] would.
    Unbox {
        d: u16,
        ty: LolType,
    },
    /// NUMBR `SUM OF` (wrapping).
    AddI {
        d: u16,
        a: u16,
        b: u16,
    },
    /// NUMBR `DIFF OF` (wrapping).
    SubI {
        d: u16,
        a: u16,
        b: u16,
    },
    /// NUMBR `PRODUKT OF` (wrapping).
    MulI {
        d: u16,
        a: u16,
        b: u16,
    },
    /// The other NUMBR arithmetic operators (`QUOSHUNT`, `MOD`,
    /// `BIGGR`, `SMALLR`), with the stack path's faults.
    ArithI {
        op: BinOp,
        d: u16,
        a: u16,
        b: u16,
    },
    /// NUMBAR `SUM OF`.
    AddD {
        d: u16,
        a: u16,
        b: u16,
    },
    /// NUMBAR `DIFF OF`.
    SubD {
        d: u16,
        a: u16,
        b: u16,
    },
    /// NUMBAR `PRODUKT OF`.
    MulD {
        d: u16,
        a: u16,
        b: u16,
    },
    /// NUMBAR `QUOSHUNT OF`.
    DivD {
        d: u16,
        a: u16,
        b: u16,
    },
    /// The other NUMBAR arithmetic operators (`MOD`, `BIGGR`,
    /// `SMALLR`).
    ArithD {
        op: BinOp,
        d: u16,
        a: u16,
        b: u16,
    },
    /// NUMBAR `UNSQUAR OF`.
    SqrtD {
        d: u16,
        s: u16,
    },
    /// NUMBAR `FLIP OF`.
    RecipD {
        d: u16,
        s: u16,
    },
    /// NUMBR (or TROOF) to NUMBAR.
    I2D {
        d: u16,
        s: u16,
    },
    /// `regs[d]` = the TROOF `a cmp b` over NUMBR (or TROOF) registers.
    CmpI {
        cmp: Cmp,
        d: u16,
        a: u16,
        b: u16,
    },
    /// `regs[d]` = the TROOF `a cmp b` over NUMBAR registers.
    CmpD {
        cmp: Cmp,
        d: u16,
        a: u16,
        b: u16,
    },
    /// Typed compare-and-branch over NUMBR (or TROOF) registers: jump
    /// when `a cmp b` is `when`; with `set_it`, first store the result
    /// in `IT` (an `O RLY?` on a comparison statement).
    JumpCmpI {
        cmp: Cmp,
        when: bool,
        set_it: bool,
        a: u16,
        b: u16,
        target: u32,
    },
    /// [`Op::JumpCmpI`] over NUMBAR registers.
    JumpCmpD {
        cmp: Cmp,
        when: bool,
        set_it: bool,
        a: u16,
        b: u16,
        target: u32,
    },
    /// `regs[d]` = element `regs[idx]` of the raw local array `arr`.
    ArrLoadR {
        d: u16,
        arr: u16,
        idx: u16,
    },
    /// Element `regs[idx]` of the raw local array `arr` = `regs[s]`.
    ArrStoreR {
        s: u16,
        arr: u16,
        idx: u16,
    },
    /// `regs[d]` = element `regs[idx]` of a shared array.
    SharedLoadIdxR {
        d: u16,
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
        idx: u16,
    },
    /// Element `regs[idx]` of a shared array = `regs[s]`, which already
    /// has the array's element representation.
    SharedStoreIdxR {
        s: u16,
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
        idx: u16,
    },

    /// End of the main chunk.
    Halt,
}

/// Stable profile names, indexed by [`Op::profile_index`]. Kept in the
/// enum's declaration order, superinstructions contiguous (see
/// [`Op::is_superinstruction`]).
const PROFILE_NAMES: [&str; Op::COUNT] = [
    "Const",
    "LoadLocal",
    "StoreLocal",
    "Cast",
    "Pop",
    "SharedLoad",
    "SharedStore",
    "SharedLoadIdx",
    "SharedStoreIdx",
    "LocalArrNew",
    "LocalArrLoad",
    "LocalArrStore",
    "ArrayCopy",
    "Bin",
    "Un",
    "BinLL",
    "BinLC",
    "BinSL",
    "BinSC",
    "BinLLS",
    "BinLCS",
    "JumpIfLocalEqConst",
    "JumpIfLocalEqLocal",
    "JumpIfLocalFalse",
    "LocalArrLoadL",
    "LocalArrStoreL",
    "SharedLoadIdxL",
    "SharedStoreIdxL",
    "Smoosh",
    "SmooshInto",
    "AllOf",
    "AnyOf",
    "Jump",
    "JumpIfFalse",
    "Call",
    "Ret",
    "Visible",
    "ReadLine",
    "Barrier",
    "LockAcquire",
    "LockTry",
    "LockRelease",
    "PushBff",
    "PopBff",
    "Me",
    "MahFrenz",
    "RandI",
    "RandF",
    "Mov",
    "Box",
    "Unbox",
    "AddI",
    "SubI",
    "MulI",
    "ArithI",
    "AddD",
    "SubD",
    "MulD",
    "DivD",
    "ArithD",
    "SqrtD",
    "RecipD",
    "I2D",
    "CmpI",
    "CmpD",
    "JumpCmpI",
    "JumpCmpD",
    "ArrLoadR",
    "ArrStoreR",
    "SharedLoadIdxR",
    "SharedStoreIdxR",
    "Halt",
];

/// Profile indices `15..28` are the superinstructions.
const SUPER_FIRST: usize = 15;
const SUPER_LAST: usize = 27;
/// Profile indices `48..71` are the register ops; `Box` and `Unbox`
/// among them cross to the stack.
const REG_FIRST: usize = 48;
const REG_LAST: usize = 70;
const BOX: usize = 49;
const UNBOX: usize = 50;

impl Op {
    /// Number of distinct opcodes (the length of a per-opcode profile
    /// counter array).
    pub const COUNT: usize = 72;

    /// This op's dense profile index (`0..Op::COUNT`), operand-blind:
    /// every `Bin` counts in the same cell regardless of operator.
    /// [`Op::profile_name`] maps it back to the opcode name.
    #[inline]
    pub fn profile_index(&self) -> usize {
        match self {
            Op::Const(_) => 0,
            Op::LoadLocal(_) => 1,
            Op::StoreLocal(_) => 2,
            Op::Cast(_) => 3,
            Op::Pop => 4,
            Op::SharedLoad { .. } => 5,
            Op::SharedStore { .. } => 6,
            Op::SharedLoadIdx { .. } => 7,
            Op::SharedStoreIdx { .. } => 8,
            Op::LocalArrNew { .. } => 9,
            Op::LocalArrLoad { .. } => 10,
            Op::LocalArrStore { .. } => 11,
            Op::ArrayCopy { .. } => 12,
            Op::Bin(_) => 13,
            Op::Un(_) => 14,
            Op::BinLL { .. } => 15,
            Op::BinLC { .. } => 16,
            Op::BinSL { .. } => 17,
            Op::BinSC { .. } => 18,
            Op::BinLLS { .. } => 19,
            Op::BinLCS { .. } => 20,
            Op::JumpIfLocalEqConst { .. } => 21,
            Op::JumpIfLocalEqLocal { .. } => 22,
            Op::JumpIfLocalFalse { .. } => 23,
            Op::LocalArrLoadL { .. } => 24,
            Op::LocalArrStoreL { .. } => 25,
            Op::SharedLoadIdxL { .. } => 26,
            Op::SharedStoreIdxL { .. } => 27,
            Op::Smoosh(_) => 28,
            Op::SmooshInto { .. } => 29,
            Op::AllOf(_) => 30,
            Op::AnyOf(_) => 31,
            Op::Jump(_) => 32,
            Op::JumpIfFalse(_) => 33,
            Op::Call { .. } => 34,
            Op::Ret => 35,
            Op::Visible { .. } => 36,
            Op::ReadLine => 37,
            Op::Barrier => 38,
            Op::LockAcquire { .. } => 39,
            Op::LockTry { .. } => 40,
            Op::LockRelease { .. } => 41,
            Op::PushBff => 42,
            Op::PopBff => 43,
            Op::Me => 44,
            Op::MahFrenz => 45,
            Op::RandI => 46,
            Op::RandF => 47,
            Op::Mov { .. } => 48,
            Op::Box { .. } => 49,
            Op::Unbox { .. } => 50,
            Op::AddI { .. } => 51,
            Op::SubI { .. } => 52,
            Op::MulI { .. } => 53,
            Op::ArithI { .. } => 54,
            Op::AddD { .. } => 55,
            Op::SubD { .. } => 56,
            Op::MulD { .. } => 57,
            Op::DivD { .. } => 58,
            Op::ArithD { .. } => 59,
            Op::SqrtD { .. } => 60,
            Op::RecipD { .. } => 61,
            Op::I2D { .. } => 62,
            Op::CmpI { .. } => 63,
            Op::CmpD { .. } => 64,
            Op::JumpCmpI { .. } => 65,
            Op::JumpCmpD { .. } => 66,
            Op::ArrLoadR { .. } => 67,
            Op::ArrStoreR { .. } => 68,
            Op::SharedLoadIdxR { .. } => 69,
            Op::SharedStoreIdxR { .. } => 70,
            Op::Halt => 71,
        }
    }

    /// The opcode name for a profile index (inverse of
    /// [`Op::profile_index`]).
    pub fn profile_name(idx: usize) -> &'static str {
        PROFILE_NAMES[idx]
    }

    /// Is profile index `idx` a superinstruction (a peephole fusion of
    /// several plain ops)?
    pub fn is_superinstruction(idx: usize) -> bool {
        (SUPER_FIRST..=SUPER_LAST).contains(&idx)
    }

    /// Is profile index `idx` a register op (one that computes on the
    /// raw bank without touching the operand stack)?
    pub fn is_register_op(idx: usize) -> bool {
        (REG_FIRST..=REG_LAST).contains(&idx) && idx != BOX && idx != UNBOX
    }
}

/// An array an indexing op reads or writes: a frame-local array slot
/// or a symmetric array's word offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrId {
    Local(u16),
    Shared(u32),
}

/// A compiled chunk: code plus frame size.
#[derive(Debug, Clone, Default)]
pub struct Chunk {
    pub code: Vec<Op>,
    /// Number of scalar slots (slot 0 = IT).
    pub n_slots: u16,
    /// Number of local-array slots (a separate index space, so scalar
    /// loads never branch on an array/scalar discriminant).
    pub n_arrays: u16,
    /// The raw register bank every activation starts from: its length
    /// is the bank size, and the constant registers hold their
    /// literals' bits (every other register starts at 0). Empty for a
    /// chunk without typed values, which then allocates no bank.
    pub regs: Vec<u64>,
    /// The LOLCODE name of every array the chunk can index, read only
    /// by the out-of-bounds fault, so no op carries a name.
    pub arr_names: Vec<(ArrId, Symbol)>,
}

impl Chunk {
    /// The name of array `id` in a fault message.
    pub fn arr_name(&self, id: ArrId) -> String {
        match self.arr_names.iter().find(|(a, _)| *a == id) {
            Some((_, name)) => name.to_string(),
            None => "DA ARRAY".to_string(),
        }
    }
}

/// A compiled module: main chunk, function chunks, constant pool.
#[derive(Debug, Clone, Default)]
pub struct Module {
    pub consts: Vec<Value>,
    pub main: Chunk,
    /// Function chunks; `funcs[i].1.n_slots` includes IT + params.
    pub funcs: Vec<(String, Chunk, u8)>,
    /// Symmetric words to allocate at startup (from the sema layout).
    pub shared_words: usize,
}

impl Module {
    /// Total instruction count (diagnostics / tests).
    pub fn code_len(&self) -> usize {
        self.main.code.len() + self.funcs.iter().map(|(_, c, _)| c.code.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_small() {
        // The dispatch loop copies ops; keep them cache-friendly.
        assert!(std::mem::size_of::<Op>() <= 48, "Op grew to {} bytes", std::mem::size_of::<Op>());
    }

    #[test]
    fn module_code_len_counts_everything() {
        let mut m = Module::default();
        m.main.code = vec![Op::Halt];
        m.funcs.push((
            "f".into(),
            Chunk { code: vec![Op::Ret, Op::Ret], n_slots: 1, ..Default::default() },
            0,
        ));
        assert_eq!(m.code_len(), 3);
    }
}
