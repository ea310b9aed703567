//! The PGAS runtime diagnostics, written once.
//!
//! The threaded world and the discrete-event simulator (`lol-sim`)
//! must report the same fault with the same bytes, so every engine
//! builds these messages here instead of spelling them out again.

use crate::heap::SymAddr;

/// What a PE waiting at a barrier is waiting at, as named in
/// [`deadlock`].
pub const BARRIER_WAIT: &str = "HUGZ (barrier)";

/// What a PE waiting for a lock is waiting at, as named in
/// [`deadlock`].
pub const LOCK_WAIT: &str = "IM SRSLY MESIN WIF (lock)";

/// `RUN0100`: a symmetric access past the configured heap.
pub fn heap_bound(addr: SymAddr, heap_words: usize) -> String {
    format!(
        "O NOES! [RUN0100] SYMMETRIC ADDRESS {} IZ OUTSIDE DA HEAP ({heap_words} WORDS)",
        addr.0
    )
}

/// `RUN0110`: PE `pe`'s allocation call `seq` asks for a size other
/// than the one the job already agreed on.
pub fn alloc_mismatch(seq: usize, pe: usize, words: usize, agreed: usize) -> String {
    format!(
        "O NOES! [RUN0110] COLLECTIVE ALLOCASHUN MISMATCH AT CALL #{seq}: \
         PE {pe} WANTS {words} WORDS BUT DA JOB ALREADY AGREED ON {agreed}"
    )
}

/// `RUN0111`: an allocation would end at word `end`, past the
/// configured `heap_words`.
pub fn heap_exhausted(pe: usize, end: usize, heap_words: usize) -> String {
    format!(
        "O NOES! [RUN0111] NOT ENUF SYMMETRIC HEAP: PE {pe} NEEDS {end} WORDS \
         BUT ONLY HAS {heap_words} (GROW heap_words)"
    )
}

/// `RUN0180`/`RUN0181`: PE `me` released a lock it does not hold.
/// `owner` is the lock's owner word: 0 when free, `pe + 1` when held
/// by `pe`.
pub fn unlock_not_held(me: usize, owner: u64) -> String {
    match owner.checked_sub(1) {
        None => format!("O NOES! [RUN0180] PE {me} DID DUN MESIN WIF BUT NOBODY WUZ MESIN WIF IT"),
        Some(h) => {
            format!("O NOES! [RUN0181] PE {me} TRIED TO DUN MESIN WIF A LOCK HELD BY PE {h}")
        }
    }
}

/// `RUN0191`: PE `pe` waits at `what` ([`BARRIER_WAIT`],
/// [`LOCK_WAIT`], ...) for a PE that will never come.
pub fn deadlock(pe: usize, what: &str) -> String {
    format!(
        "O NOES! [RUN0191] PE {pe} WAITED 2 LONG AT {what} — SUM PE NEVER SHOWED UP (DEADLOCK?)"
    )
}

/// The message a PE's panic carried (the diagnostics above travel as
/// panic payloads).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "PE panicked with a non-string payload".to_string()
    }
}
