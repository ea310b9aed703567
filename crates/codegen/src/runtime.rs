//! The C runtime and the multi-PE OpenSHMEM stub, each split into a
//! header and a source.
//!
//! * [`LOL_RUNTIME_H`] opens every unit [`emit_c`][crate::emit_c]
//!   writes. It holds the value types, the backend hooks, `extern`
//!   declarations, and the `static inline` helpers that the emitted
//!   code calls inside loops (native arithmetic, boxing, truth, the
//!   index check), so `cc -O1` inlines them exactly as it did when the
//!   whole runtime was one translation unit.
//! * [`LOL_RUNTIME_C`] holds everything else: faults, YARN parsing and
//!   rendering, casts, input, array allocation and the locks.
//! * [`SHMEM_STUB_H`] and [`SHMEM_STUB_C`] split the pthread stub the
//!   same way: the header keeps `shmem_my_pe`/`shmem_n_pes` and the
//!   local fast paths of `shmem_*_g`/`_p` inline, the source holds
//!   the remote paths, barriers, latency models, tracing and launch.
//!
//! The [`driver`][crate::driver] compiles the two sources into one
//! object once per compiler and flag set, and each program compiles
//! only the headers plus its own code. `lcc` writes the same constants
//! concatenated ([`standalone`][crate::standalone],
//! [`standalone_stub`][crate::standalone_stub]), so its output
//! still builds on its own with `cc -std=c99 -I. out.c -lm -pthread`.

/// The runtime header: the first thing in every generated unit.
pub const LOL_RUNTIME_H: &str = r#"/* ---- parallel LOLCODE runtime (generated, do not edit) ---- */
#include <ctype.h>
#include <errno.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <shmem.h>

/* Backend hooks. A stub shmem.h (see lcc --stub) may define these
   before this point to intercept symmetric storage, I/O and RNG; a
   build against a real OpenSHMEM library leaves them unset and gets
   the pass-through defaults. */
#ifndef LOL_SYMMETRIC
#define LOL_SYMMETRIC
#endif
#ifndef LOL_SYM_REG
#define LOL_SYM_REG(p, n) ((void)0)
#define LOL_SYM_REG_DONE() ((void)0)
#endif
#ifndef LOL_MAIN_DRIVER
#define LOL_MAIN_DRIVER(fn) fn()
#endif
#ifndef LOL_PUTS
#define LOL_PUTS(s) fputs((s), stdout)
#endif
#ifndef LOL_GETS
#define LOL_GETS(buf, n) fgets((buf), (n), stdin)
#endif
#ifndef LOL_SRAND
#define LOL_SRAND(seed) srand(seed)
#define LOL_RAND() rand()
#endif
#ifndef LOL_LOCK_KIND
#define LOL_LOCK_KIND 0 /* 0 = CAS spin lock, 1 = FIFO ticket lock */
#endif
#ifndef LOL_LOCK_RELAX
#define LOL_LOCK_RELAX() ((void)0) /* back off inside lock spin loops */
#endif
#ifndef LOL_LOCK_TRACE
/* lock-event trace hook: kind char ('L'/'T'/'U'), lock cell, target PE,
   result byte. The stub wires it to its event recorder. */
#define LOL_LOCK_TRACE(k, cell, pe, b) ((void)0)
#endif
#ifndef LOL_LOCK_ENTER
/* lock-op cost hooks: the stub's virtual clock charges each lock
   operation exactly once (like the Rust substrate's Pe::lock) and
   suppresses the per-AMO charge inside the op — spin retries must not
   advance deterministic time. */
#define LOL_LOCK_ENTER(pe) ((void)0)
#define LOL_LOCK_EXIT() ((void)0)
#endif
#ifndef LOL_FAULT
/* fault hook: print the fault line and end the job. The stub instead
   ends only the failing PE's thread, and reports the lowest failing
   PE's line once every PE has stopped, as the Rust engines do. */
#define LOL_FAULT(line) (fprintf(stderr, "%s\n", (line)), exit(1))
#endif
#ifndef LOL_PER_PE
/* per-PE runtime state (the scratch arena): a plain static when each
   PE is a process, as under OpenSHMEM; the stub makes it thread-local */
#define LOL_PER_PE
#endif
#ifdef __GNUC__
#define LOL_NORETURN __attribute__((noreturn))
#else
#define LOL_NORETURN
#endif

typedef enum { LOL_NOOB, LOL_TROOF, LOL_NUMBR, LOL_NUMBAR, LOL_YARN } lol_type_t;
/* YARNs have no length cap, and their storage follows one rule: slots
   own, values borrow. A YARN value is `s`, pointing at `i` bytes and a
   NUL, and copies of it are free. The bytes belong to one of:
   * a slot's growable buffer (lol_buf_t): every dynamic local, IT,
     every parameter, and each element of a YARN array. A
     store copies a YARN into the slot's buffer (lol_store); the buffer
     is freed when the slot's C block is left;
   * the per-PE scratch arena: SMOOSH, cast and GIMMEH results and
     returned YARNs. The emitted code releases it to the function's
     entry mark after each statement, loop guard and condition that
     may have used it;
   * static storage: literals (lol_from_str).
   A value never outlives its storage: stores copy, nothing the callee
   can reach rebinds the slots its arguments borrow from, and FOUND YR
   copies a YARN out to the arena (lol_ret) before the frame is freed. */
typedef struct {
    lol_type_t t;
    long long i;
    double f;
    char *s;
} lol_value_t;

/* a slot's YARN buffer: cap bytes at p, NULL until the first YARN store */
typedef struct { char *p; size_t cap; } lol_buf_t;

/* scratch big enough for any numeric rendering (%.2f of 1e308) */
#define LOL_NUM_BUF 400

/* the scratch arena: a chain of blocks that are never moved, so arena
   YARNs stay put while it grows; a mark is a position to release to */
typedef struct lol_blk { struct lol_blk *next; size_t cap, used; char *data; } lol_blk_t;
typedef struct { lol_blk_t *b; size_t used; } lol_mark_t;
extern LOL_PER_PE lol_blk_t *lol_arena; /* the block allocations come from */

/* the native local arrays: elements e[0..n) */
typedef struct { long long *e; long long n; } lol_arr_numbr;
typedef struct { double *e; long long n; } lol_arr_numbar;
typedef struct { int *e; long long n; } lol_arr_troof;

/* local arrays of YARNs and NOOBs: dynamic values, cast to the element
   type on every store, starting out as "" or NOOB; a YARN array's
   element i owns the buffer k[i] */
typedef struct {
    lol_value_t *e;
    long long n;
    lol_type_t ty;
    lol_buf_t *k;
} lol_arr_t;

/* -- out of line, in the runtime source -- */

/* fault with the line "O NOES! [code] <fmt...>" (see LOL_FAULT) */
LOL_NORETURN void lol_die(const char *code, const char *fmt, ...);
LOL_NORETURN void lol_die_idx(long long i, long long len, const char *name);
int lol_numeric_slow(lol_value_t v, long long *out_i, double *out_f);
size_t lol_fmt_dbl(lol_value_t v, char *dst);
size_t lol_render(char *dst, lol_value_t v);
lol_value_t lol_cast(lol_value_t v, lol_type_t ty);
lol_value_t lol_gimmeh(void);
void lol_buf_grow(lol_buf_t *k, size_t need);
char *lol_arena_more(size_t n);
void lol_pe_begin(void);
void lol_pe_end(void);
void *lol_arr_alloc(long long n, size_t size);
lol_arr_t lol_arr_new(long long n, lol_type_t ty);
void lol_arr_free(lol_arr_t *a);
void lol_lock_acquire(long *cell, int target);
int lol_lock_try(long *cell, int target);
void lol_lock_release(long *cell, int target);

/* -- inline: what the emitted code calls in its loops -- */

/* Native NUMBR operations with the Rust engines' semantics: + - * wrap
   (in unsigned arithmetic, where overflow is defined), QUOSHUNT and MOD
   fault on zero and wrap MIN / -1, and NUMBAR -> NUMBR saturates, NaN
   giving 0. Typed code calls them directly, the dynamic operators too. */
#define LOL_WRAP(NAME, OP)                                                     \
    static inline long long NAME(long long a, long long b) {                   \
        return (long long)((unsigned long long)a OP (unsigned long long)b);    \
    }
LOL_WRAP(lol_add_i, +)
LOL_WRAP(lol_sub_i, -)
LOL_WRAP(lol_mul_i, *)
static inline long long lol_quo_i(long long a, long long b) {
    if (b == 0) lol_die("RUN0001", "DIVIDIN BY ZERO IZ NOT ALLOWED");
    return b == -1 ? lol_sub_i(0, a) : a / b;
}
static inline long long lol_mod_i(long long a, long long b) {
    if (b == 0) lol_die("RUN0001", "MOD BY ZERO IZ NOT ALLOWED");
    return b == -1 ? 0 : a % b;
}
static inline long long lol_max_i(long long a, long long b) { return a > b ? a : b; }
static inline long long lol_min_i(long long a, long long b) { return a < b ? a : b; }
static inline long long lol_sq_i(long long a) { return lol_mul_i(a, a); }
static inline double lol_sq_d(double a) { return a * a; }
static inline long long lol_dbl_to_int(double f) {
    if (f != f) return 0;
    if (f >= 9223372036854775807.0) return 9223372036854775807LL;
    if (f <= -9223372036854775808.0) return -9223372036854775807LL - 1;
    return (long long)f;
}

static inline lol_value_t lol_noob(void) { lol_value_t v; memset(&v, 0, sizeof v); v.t = LOL_NOOB; return v; }
static inline lol_value_t lol_from_int(long long i) { lol_value_t v = lol_noob(); v.t = LOL_NUMBR; v.i = i; return v; }
static inline lol_value_t lol_from_dbl(double f) { lol_value_t v = lol_noob(); v.t = LOL_NUMBAR; v.f = f; return v; }
static inline lol_value_t lol_from_bool(int b) { lol_value_t v = lol_noob(); v.t = LOL_TROOF; v.i = b ? 1 : 0; return v; }
static inline lol_value_t lol_yarn(char *s, size_t n) {
    lol_value_t v = lol_noob();
    v.t = LOL_YARN;
    v.i = (long long)n;
    v.s = s;
    return v;
}
/* a literal: the value borrows its static storage */
static inline lol_value_t lol_from_str(const char *s) { return lol_yarn((char *)s, strlen(s)); }

static inline int lol_to_bool(lol_value_t v) {
    switch (v.t) {
    case LOL_NOOB: return 0;
    case LOL_TROOF: return v.i != 0;
    case LOL_NUMBR: return v.i != 0;
    case LOL_NUMBAR: return v.f != 0.0;
    case LOL_YARN: return v.i != 0;
    }
    return 0;
}

/* numeric coercion: 0 = int (out_i), 1 = float (out_f); NOOBs fault
   and YARNs parse out of line */
static inline int lol_numeric(lol_value_t v, long long *out_i, double *out_f) {
    switch (v.t) {
    case LOL_TROOF: *out_i = v.i; return 0;
    case LOL_NUMBR: *out_i = v.i; return 0;
    case LOL_NUMBAR: *out_f = v.f; return 1;
    default: return lol_numeric_slow(v, out_i, out_f);
    }
}

static inline long long lol_to_int(lol_value_t v) {
    long long i = 0; double f = 0.0;
    if (lol_numeric(v, &i, &f)) return lol_dbl_to_int(f);
    return i;
}

static inline double lol_to_dbl(lol_value_t v) {
    long long i = 0; double f = 0.0;
    if (lol_numeric(v, &i, &f)) return f;
    return (double)i;
}

/* dynamic arithmetic: NUMBR op NUMBR stays a NUMBR (IOP is the native
   NUMBR operation above), anything involving a NUMBAR is a NUMBAR; fmax
   and fmin return the non-NaN operand, like Rust's f64::max and min */
#define LOL_ARITH(NAME, IOP, FOP)                                              \
    static inline lol_value_t NAME(lol_value_t a, lol_value_t b) {             \
        long long ia = 0, ib = 0; double fa = 0.0, fb = 0.0;                   \
        int af = lol_numeric(a, &ia, &fa), bf = lol_numeric(b, &ib, &fb);      \
        if (!af && !bf) return lol_from_int(IOP(ia, ib));                      \
        fa = af ? fa : (double)ia;                                             \
        fb = bf ? fb : (double)ib;                                             \
        return lol_from_dbl(FOP);                                              \
    }

LOL_ARITH(lol_sum, lol_add_i, fa + fb)
LOL_ARITH(lol_diff, lol_sub_i, fa - fb)
LOL_ARITH(lol_produkt, lol_mul_i, fa * fb)
LOL_ARITH(lol_quoshunt, lol_quo_i, fa / fb)
LOL_ARITH(lol_mod, lol_mod_i, fmod(fa, fb))
LOL_ARITH(lol_biggr, lol_max_i, fmax(fa, fb))
LOL_ARITH(lol_smallr, lol_min_i, fmin(fa, fb))

static inline int lol_saem(lol_value_t a, lol_value_t b) {
    if (a.t == LOL_NOOB && b.t == LOL_NOOB) return 1;
    if (a.t == LOL_TROOF && b.t == LOL_TROOF) return a.i == b.i;
    if (a.t == LOL_NUMBR && b.t == LOL_NUMBR) return a.i == b.i;
    if (a.t == LOL_YARN && b.t == LOL_YARN) return a.i == b.i && memcmp(a.s, b.s, (size_t)a.i) == 0;
    if ((a.t == LOL_NUMBR || a.t == LOL_NUMBAR) && (b.t == LOL_NUMBR || b.t == LOL_NUMBAR))
        return lol_to_dbl(a) == lol_to_dbl(b);
    return 0;
}

static inline lol_value_t lol_squar(lol_value_t v) { return lol_produkt(v, v); }

/* -- the scratch arena and the slots' buffers -- */

static inline lol_mark_t lol_mark(void) {
    lol_mark_t m;
    m.b = lol_arena;
    m.used = lol_arena->used;
    return m;
}
/* drop every arena allocation made since the mark m */
static inline void lol_release(lol_mark_t m) {
    lol_arena = m.b;
    m.b->used = m.used;
}
static inline char *lol_alloc(size_t n) {
    lol_blk_t *b = lol_arena;
    if (b->cap - b->used < n) return lol_arena_more(n);
    b->used += n;
    return b->data + b->used - n;
}
/* a copy of s[0..n) and a NUL in the arena */
static inline char *lol_strdup(const char *s, size_t n) {
    char *d = lol_alloc(n + 1);
    memcpy(d, s, n);
    d[n] = '\0';
    return d;
}

/* x R v into a dynamic slot with buffer k: a YARN's bytes are copied
   into k, reusing its capacity; any other value leaves k parked */
static inline lol_value_t lol_store(lol_buf_t *k, lol_value_t v) {
    if (v.t != LOL_YARN || v.s == k->p) return v;
    if ((size_t)v.i >= k->cap) lol_buf_grow(k, (size_t)v.i + 1);
    memcpy(k->p, v.s, (size_t)v.i + 1);
    v.s = k->p;
    return v;
}

/* FOUND YR: a YARN moves to the arena, out of the frame's slots */
static inline lol_value_t lol_ret(lol_value_t v) {
    if (v.t == LOL_YARN) v.s = lol_strdup(v.s, (size_t)v.i);
    return v;
}

/* -- rendering (VISIBLE, SMOOSH and casts to YARN) -- */

/* bytes the rendering of v can take */
static inline size_t lol_len_bound(lol_value_t v) {
    return v.t == LOL_YARN ? (size_t)v.i : LOL_NUM_BUF;
}

/* SMOOSH p[0] AN … AN p[n-1]: one arena YARN. Every operand has been
   evaluated before any renders, as on the other engines. */
static inline lol_value_t lol_smoosh_n(int n, const lol_value_t *p) {
    size_t cap = 1, len = 0;
    char *d;
    int j;
    for (j = 0; j < n; j++) cap += lol_len_bound(p[j]);
    d = lol_alloc(cap);
    for (j = 0; j < n; j++) len += lol_render(d + len, p[j]);
    d[len] = '\0';
    lol_arena->used -= cap - len - 1; /* the unused tail goes back */
    return lol_yarn(d, len);
}

/* x R SMOOSH x AN p[0] AN … MKAY for a dynamic slot x (value v, buffer
   k): the renderings are appended to k in place. An operand that is x
   itself keeps pointing at x's text if the buffer moves. */
static inline lol_value_t lol_append(lol_buf_t *k, lol_value_t v, int n, lol_value_t *p) {
    char *old = k->p;
    size_t need = lol_len_bound(v) + 1, len;
    int j;
    for (j = 0; j < n; j++) need += lol_len_bound(p[j]);
    if (need > k->cap) {
        lol_buf_grow(k, need);
        if (v.t == LOL_YARN && v.s == old) v.s = k->p;
        for (j = 0; j < n; j++)
            if (p[j].t == LOL_YARN && p[j].s == old) p[j].s = k->p;
    }
    len = v.t == LOL_YARN && v.s == k->p ? (size_t)v.i : lol_render(k->p, v);
    for (j = 0; j < n; j++) len += lol_render(k->p + len, p[j]);
    k->p[len] = '\0';
    return lol_yarn(k->p, len);
}

static inline void lol_print(lol_value_t v) {
    char b[LOL_NUM_BUF + 1];
    if (v.t != LOL_YARN) b[lol_render(b, v)] = '\0';
    LOL_PUTS(v.t == LOL_YARN ? v.s : b);
}

/* the bounds check of every indexed access; `name` is the array's
   LOLCODE name, for the fault message */
static inline long long lol_idx(long long i, long long len, const char *name) {
    if (i < 0 || i >= len) lol_die_idx(i, len, name);
    return i;
}

/* the target PE of TXT MAH BFF */
static inline int lol_pe(long long k) {
    if (k < 0 || k >= shmem_n_pes())
        lol_die("RUN0017", "PE %lld IZ NOT MAH FREN (THERE R ONLY %d OF US)", k, shmem_n_pes());
    return (int)k;
}

static inline lol_value_t lol_arr_get(lol_arr_t *a, long long i, const char *name) {
    return a->e[lol_idx(i, a->n, name)];
}
static inline void lol_arr_set(lol_arr_t *a, long long i, lol_value_t v, const char *name) {
    long long j = lol_idx(i, a->n, name);
    lol_buf_t *k;
    if (a->ty != LOL_YARN) {
        a->e[j] = lol_noob();
        return;
    }
    /* rendered straight into the element's buffer */
    k = &a->k[j];
    if (v.t == LOL_YARN) {
        a->e[j] = lol_store(k, v);
        return;
    }
    if (k->cap <= LOL_NUM_BUF) lol_buf_grow(k, LOL_NUM_BUF + 1);
    a->e[j] = lol_yarn(k->p, lol_render(k->p, v));
    k->p[a->e[j].i] = '\0';
}

static inline long long lol_whatevr(void) { return LOL_RAND(); }
static inline double lol_whatevar(void) { return (double)LOL_RAND() / ((double)RAND_MAX + 1.0); }
/* ---- end runtime ---- */
"#;

/// The runtime source: the out-of-line half of [`LOL_RUNTIME_H`],
/// which must precede it in the same translation unit.
pub const LOL_RUNTIME_C: &str = r#"/* ---- parallel LOLCODE runtime source (generated, do not edit) ---- */
void lol_die(const char *code, const char *fmt, ...) {
    va_list ap;
    char *line;
    int n;
    va_start(ap, fmt);
    n = vsnprintf(NULL, 0, fmt, ap);
    va_end(ap);
    line = (char *)malloc(strlen(code) + (size_t)(n > 0 ? n : 0) + 16);
    if (!line) {
        fprintf(stderr, "O NOES! [%s]\n", code);
        exit(1);
    }
    n = sprintf(line, "O NOES! [%s] ", code);
    va_start(ap, fmt);
    vsprintf(line + n, fmt, ap);
    va_end(ap);
    LOL_FAULT(line);
    exit(1); /* LOL_FAULT does not return */
}

void lol_die_idx(long long i, long long len, const char *name) {
    lol_die("RUN0123", "INDEX %lld IZ OUTSIDE %s (IT HAS %lld THINGZ)", i, name, len);
}

/* -- the per-PE scratch arena (see lol_blk_t) -- */

LOL_PER_PE lol_blk_t *lol_arena;
static LOL_PER_PE lol_blk_t *lol_arena_first;
static LOL_PER_PE lol_buf_t lol_line; /* GIMMEH's line buffer */

static lol_blk_t *lol_blk_new(size_t cap, lol_blk_t *next) {
    lol_blk_t *b = (lol_blk_t *)malloc(sizeof *b + cap);
    if (!b) lol_die("RUN0150", "OUT OF MEMOREZ FOR A YARN");
    b->next = next;
    b->cap = cap;
    b->used = 0;
    b->data = (char *)(b + 1);
    return b;
}

/* lol_alloc's slow path: n bytes from the next block, made (at least
   twice the current one's size) if the chain has none big enough.
   Blocks past the current one hold nothing live, and a released
   arena reuses them, so a loop stops allocating once warm. */
char *lol_arena_more(size_t n) {
    lol_blk_t *b = lol_arena;
    if (!b->next || b->next->cap < n) b->next = lol_blk_new(n > 2 * b->cap ? n : 2 * b->cap, b->next);
    lol_arena = b->next;
    lol_arena->used = n;
    return lol_arena->data;
}

/* the start and end of a PE's run (lol_main): the arena is made, and
   it and the GIMMEH buffer are freed */
void lol_pe_begin(void) { lol_arena = lol_arena_first = lol_blk_new(4096, NULL); }
void lol_pe_end(void) {
    while (lol_arena_first) {
        lol_blk_t *next = lol_arena_first->next;
        free(lol_arena_first);
        lol_arena_first = next;
    }
    lol_arena = NULL;
    free(lol_line.p);
    lol_line.p = NULL;
    lol_line.cap = 0;
}

/* grow a slot's buffer to at least `need` bytes (doubling), keeping
   its contents */
void lol_buf_grow(lol_buf_t *k, size_t need) {
    size_t cap = k->cap ? 2 * k->cap : 16;
    char *p;
    while (cap < need) cap *= 2;
    p = (char *)realloc(k->p, cap);
    if (!p) lol_die("RUN0150", "OUT OF MEMOREZ FOR A YARN");
    k->p = p;
    k->cap = cap;
}

/* lol_numeric's NOOB and YARN cases. YARNs parse as strictly as on the
   Rust engines: surrounding whitespace is ignored, a decimal point or
   exponent makes a NUMBAR, and anything else left over is an error. */
int lol_numeric_slow(lol_value_t v, long long *out_i, double *out_f) {
    const char *b, *e, *mark;
    char *end;
    if (v.t == LOL_NOOB)
        lol_die("RUN0002", "CANT DO MATHS WIF NOOB (DECLARE AN INITIALIZE UR VARIABLE)");
    b = v.s;
    e = v.s + strlen(v.s);
    while (isspace((unsigned char)*b)) b++;
    while (e > b && isspace((unsigned char)e[-1])) e--;
    mark = strpbrk(b, ".eE");
    errno = 0;
    if (mark && mark < e) {
        *out_f = strtod(b, &end);
        if (b == e || end != e || strpbrk(b, "xX(") != NULL)
            lol_die("RUN0004", "\"%s\" IZ NOT A NUMBAR", v.s);
        return 1;
    }
    *out_i = strtoll(b, &end, 10);
    if (b == e || end != e || errno == ERANGE) lol_die("RUN0004", "\"%s\" IZ NOT A NUMBR", v.s);
    return 0;
}

/* NUMBAR rendering at dst (LOL_NUM_BUF bytes of room), as %.2f. The
   non-finite spellings are pinned across backends: lowercase, and NaN
   renders unsigned (glibc would print "-nan" for a sign-bit NaN; the
   Rust engines can't see that sign portably). */
size_t lol_fmt_dbl(lol_value_t v, char *dst) {
    if (isnan(v.f)) return (size_t)snprintf(dst, LOL_NUM_BUF, "nan");
    if (isinf(v.f)) return (size_t)snprintf(dst, LOL_NUM_BUF, v.f > 0 ? "inf" : "-inf");
    return (size_t)snprintf(dst, LOL_NUM_BUF, "%.2f", v.f);
}

/* NUMBR i in decimal, written backwards so that it ends just before
   `end`; returns its first byte. LLONG_MIN's magnitude is taken in
   unsigned arithmetic, where it fits. */
static char *lol_fmt_int(long long i, char *end) {
    unsigned long long u = i < 0 ? 0ULL - (unsigned long long)i : (unsigned long long)i;
    do {
        *--end = (char)('0' + (int)(u % 10));
        u /= 10;
    } while (u);
    if (i < 0) *--end = '-';
    return end;
}

/* render v at dst, which has room for lol_len_bound(v) bytes; returns
   the byte count (no NUL is written) */
size_t lol_render(char *dst, lol_value_t v) {
    char b[24], *s;
    switch (v.t) {
    case LOL_YARN: memcpy(dst, v.s, (size_t)v.i); return (size_t)v.i;
    case LOL_NUMBR:
        s = lol_fmt_int(v.i, b + sizeof b);
        memcpy(dst, s, (size_t)(b + sizeof b - s));
        return (size_t)(b + sizeof b - s);
    case LOL_TROOF:
        memcpy(dst, v.i ? "WIN" : "FAIL", v.i ? 3 : 4);
        return v.i ? 3 : 4;
    case LOL_NUMBAR: return lol_fmt_dbl(v, dst);
    case LOL_NOOB: break;
    }
    lol_die("RUN0003", "CANT MAKE A YARN OUT OF NOOB");
    return 0;
}

lol_value_t lol_cast(lol_value_t v, lol_type_t ty) {
    switch (ty) {
    case LOL_NOOB: return lol_noob();
    case LOL_TROOF: return lol_from_bool(lol_to_bool(v));
    case LOL_NUMBR: return lol_from_int(lol_to_int(v));
    case LOL_NUMBAR: return lol_from_dbl(lol_to_dbl(v));
    case LOL_YARN: return v.t == LOL_YARN ? v : lol_smoosh_n(1, &v);
    }
    return lol_noob();
}

/* Read one whole input line of any length: it is gathered in a per-PE
   buffer, kept for the next line, and returned in the arena. */

lol_value_t lol_gimmeh(void) {
    size_t len = 0, n;
    char chunk[256];
    int got = 0;
    for (;;) {
        if (!LOL_GETS(chunk, sizeof chunk)) break;
        got = 1;
        n = strlen(chunk);
        if (len + n + 1 > lol_line.cap) lol_buf_grow(&lol_line, len + n + 1);
        memcpy(lol_line.p + len, chunk, n + 1);
        len += n;
        if (n > 0 && chunk[n - 1] == '\n') break; /* full line read */
        if (n + 1 < sizeof chunk) break; /* short read, no newline: EOF */
    }
    if (!got) lol_die("RUN0140", "GIMMEH BUT THERES NO MOAR INPUT");
    len = strcspn(lol_line.p, "\r\n");
    return lol_yarn(lol_strdup(lol_line.p, len), len);
}

/* Element storage of a local array: zeroed, which is 0, 0.0 and FAIL
   for the NUMBR, NUMBAR and TROOF arrays that store native elements. */
void *lol_arr_alloc(long long n, size_t size) {
    void *p;
    if (n <= 0) lol_die("RUN0014", "ARRAY SIZE MUST BE POSITIVE, NOT %lld", n);
    p = calloc((size_t)n, size);
    if (!p) lol_die("RUN0150", "OUT OF MEMOREZ FOR AN ARRAY");
    return p;
}

lol_arr_t lol_arr_new(long long n, lol_type_t ty) {
    lol_arr_t a;
    a.e = (lol_value_t *)lol_arr_alloc(n, sizeof(lol_value_t));
    a.n = n;
    a.ty = ty;
    a.k = ty == LOL_YARN ? (lol_buf_t *)lol_arr_alloc(n, sizeof(lol_buf_t)) : NULL;
    for (long long i = 0; i < n; i++) a.e[i] = ty == LOL_YARN ? lol_from_str("") : lol_noob();
    return a;
}

void lol_arr_free(lol_arr_t *a) {
    if (a->k)
        for (long long i = 0; i < a->n; i++) free(a->k[i].p);
    free(a->k);
    free(a->e);
}

/* per-instance global locks over OpenSHMEM atomics (Table II locks).
   Each lock is three symmetric longs — [owner, next_ticket, now_serving]
   — mirroring the Rust substrate's LOCK_WORDS layout. The CAS algorithm
   uses only cell[0]; the ticket algorithm queues on cell[1]/cell[2].
   LOL_LOCK_KIND selects the algorithm (the stub wires it to the
   LOL_STUB_LOCK env var; real-OpenSHMEM builds can -DLOL_LOCK_KIND=1). */
void lol_lock_acquire(long *cell, int target) {
    long me1 = (long)shmem_my_pe() + 1;
    LOL_LOCK_ENTER(target);
    if (LOL_LOCK_KIND == 1) {
        long t = shmem_long_atomic_fetch_inc(&cell[1], target);
        while (shmem_long_atomic_fetch(&cell[2], target) != t) LOL_LOCK_RELAX();
        shmem_long_atomic_swap(&cell[0], me1, target);
    } else {
        while (shmem_long_atomic_compare_swap(&cell[0], 0, me1, target) != 0) LOL_LOCK_RELAX();
    }
    LOL_LOCK_EXIT();
    LOL_LOCK_TRACE('L', cell, target, 0);
}
int lol_lock_try(long *cell, int target) {
    long me1 = (long)shmem_my_pe() + 1;
    int got;
    LOL_LOCK_ENTER(target);
    if (LOL_LOCK_KIND == 1) {
        /* queue empty iff next == serving: claim ticket t only if it is
           already being served (no waiting, like the Rust try_acquire) */
        long t = shmem_long_atomic_fetch(&cell[2], target);
        got = shmem_long_atomic_compare_swap(&cell[1], t, t + 1, target) == t;
        if (got) shmem_long_atomic_swap(&cell[0], me1, target);
    } else {
        got = shmem_long_atomic_compare_swap(&cell[0], 0, me1, target) == 0;
    }
    LOL_LOCK_EXIT();
    LOL_LOCK_TRACE('T', cell, target, (unsigned)got);
    return got;
}
void lol_lock_release(long *cell, int target) {
    LOL_LOCK_ENTER(target);
    shmem_long_atomic_swap(&cell[0], 0, target);
    if (LOL_LOCK_KIND == 1) shmem_long_atomic_fetch_inc(&cell[2], target);
    LOL_LOCK_EXIT();
    LOL_LOCK_TRACE('U', cell, target, 0);
}
/* ---- end runtime source ---- */
"#;

/// The header of a multi-PE OpenSHMEM stub over POSIX threads, good
/// enough to compile and *run* the generated C with any C99 compiler
/// when no real OpenSHMEM library is installed (`lcc --stub` writes it
/// as `shmem.h`, followed by [`SHMEM_STUB_C`]; the
/// [`driver`][crate::driver] runs the C backend on it as an engine).
/// This is the "simulate what you don't have" substitution (see
/// docs/ARCHITECTURE.md, "The C backend"), upgraded from the original
/// single-PE stub:
///
/// * every `WE HAS A` object is thread-local (`LOL_SYMMETRIC`), so each
///   PE thread owns its copy of the symmetric segment;
/// * each thread registers its copies in program order
///   (`LOL_SYM_REG`), and remote `shmem_*_g`/`_p`/atomics translate an
///   address through the (index, offset) pair into the target PE's
///   copy;
/// * the PE count, RNG seed and per-PE output capture come from the
///   `LOL_STUB_NPES` / `LOL_STUB_SEED` / `LOL_STUB_OUT` environment
///   variables. Without them the binary behaves like the old stub: one
///   PE, stdout, streaming stdin;
/// * the interconnect latency model, barrier algorithm and lock
///   algorithm come from `LOL_STUB_LATENCY` (`off` / `flat:NS` /
///   `mesh:W:BASE:HOP` / `torus:WxH:BASE:HOP` — the same tokens the
///   Rust substrate's `LatencyModel` round-trips), `LOL_STUB_BARRIER`
///   (`central` / `dissem`) and `LOL_STUB_LOCK` (`cas` / `ticket`).
///   The latency charge sits in `lol_stub_xlate`, the single remote-
///   access choke point, so every remote get/put/atomic pays the
///   modelled delay exactly once. Wall-mode busy-waits subtract the
///   measured `clock_gettime` overhead (calibrated at startup) so the
///   injected delays stay accurate on fast hosts;
/// * `LOL_STUB_CLOCK=virtual` switches the latency charge from
///   busy-waiting to *accounting* on a per-PE logical clock (delay +
///   1ns per remote op; barriers max-sync the clocks, explicit ones
///   adding 10ns) — mirroring the Rust substrate's `ClockMode::Virtual`
///   so virtual walls agree across backends. Final per-PE clocks ride
///   the stats file's 8th column;
/// * `LOL_STUB_TRACE=<cap>` records up to `cap` communication events
///   per PE (remote get/put `G`/`P`, explicit barriers `B`/`b`, lock
///   ops `L`/`T`/`U` via the `LOL_LOCK_TRACE` hook) and writes them to
///   `<out>.pe<N>.trace` as `<code> <peer> <word-addr> <bytes> <t_ns>`
///   lines plus a `= <dropped> <end_ns>` trailer. Word addresses are
///   cumulative over the registration order, matching the Rust
///   substrate's symmetric layout, so traces diff across backends.
///
/// The header keeps inline what the emitted code calls per element:
/// `shmem_my_pe`, `shmem_n_pes`, and the local (same-PE) halves of
/// `shmem_*_g`/`_p`. Everything else is declared here and defined in
/// [`SHMEM_STUB_C`].
pub const SHMEM_STUB_H: &str = r#"/* multi-PE OpenSHMEM stub over pthreads, for toolchains without SHMEM */
#ifndef LOL_SHMEM_STUB_H
#define LOL_SHMEM_STUB_H
#include <stddef.h>

#define LOL_STUB_MAX_PES 256
#define LOL_STUB_MAX_SYMS 256
/* ceil(log2(LOL_STUB_MAX_PES)): dissemination-barrier rounds */
#define LOL_STUB_MAX_ROUNDS 8

/* hooks consumed by the generated runtime (see LOL_RUNTIME_H) */
#define LOL_SYMMETRIC __thread
#define LOL_PER_PE __thread
#define LOL_SYM_REG(p, n) lol_stub_sym_reg((void *)(p), (n))
#define LOL_SYM_REG_DONE() lol_stub_sym_done()
#define LOL_MAIN_DRIVER(fn) lol_stub_launch(fn)
#define LOL_PUTS(s) lol_stub_puts(s)
#define LOL_GETS(buf, n) lol_stub_gets((buf), (n))
#define LOL_SRAND(seed) lol_stub_srand((unsigned long long)(seed))
#define LOL_RAND() lol_stub_rand()
#define LOL_LOCK_KIND lol_stub_lock_kind
#define LOL_LOCK_RELAX() lol_stub_relax()
#define LOL_LOCK_TRACE(k, cell, pe, b) lol_stub_trace_ev((k), (pe), (const void *)(cell), (b))
#define LOL_LOCK_ENTER(pe) lol_stub_lock_enter(pe)
#define LOL_LOCK_EXIT() lol_stub_lock_exit()
#define LOL_FAULT(line) lol_stub_fault(line)

typedef struct {
    unsigned long long local_gets, remote_gets, local_puts, remote_puts, amos, barriers;
} lol_stub_stats_t;
typedef int (*lol_stub_main_fn)(void);

extern int lol_stub_lock_kind; /* 0 = cas, 1 = ticket (LOL_STUB_LOCK) */
extern int lol_stub_npes;
extern __thread int lol_stub_me;
extern lol_stub_stats_t lol_stub_stats[LOL_STUB_MAX_PES];

void lol_stub_sym_reg(void *p, size_t n);
void lol_stub_sym_done(void);
int lol_stub_launch(lol_stub_main_fn fn);
void lol_stub_puts(const char *s);
char *lol_stub_gets(char *buf, int n);
void lol_stub_srand(unsigned long long seed);
int lol_stub_rand(void);
void lol_stub_relax(void);
void lol_stub_trace_ev(char kind, int peer, const void *addr, unsigned bytes);
void lol_stub_lock_enter(int pe);
void lol_stub_lock_exit(void);
void lol_stub_fault(char *line);
void lol_stub_barrier_all(void);
/* the remote halves of shmem_*_g/_p */
long long lol_stub_longlong_g(const long long *src, int pe);
void lol_stub_longlong_p(long long *dst, long long v, int pe);
double lol_stub_double_g(const double *src, int pe);
void lol_stub_double_p(double *dst, double v, int pe);

/* -- the OpenSHMEM surface the generated code uses -- */

static inline void shmem_init(void) {}
static inline void shmem_finalize(void) {}
static inline int shmem_my_pe(void) { return lol_stub_me; }
static inline int shmem_n_pes(void) { return lol_stub_npes; }
static inline void shmem_barrier_all(void) { lol_stub_barrier_all(); }

static inline long long shmem_longlong_g(const long long *src, int pe) {
    if (pe == lol_stub_me) { lol_stub_stats[pe].local_gets++; return *src; }
    return lol_stub_longlong_g(src, pe);
}
static inline void shmem_longlong_p(long long *dst, long long v, int pe) {
    if (pe == lol_stub_me) { lol_stub_stats[pe].local_puts++; *dst = v; return; }
    lol_stub_longlong_p(dst, v, pe);
}
static inline double shmem_double_g(const double *src, int pe) {
    if (pe == lol_stub_me) { lol_stub_stats[pe].local_gets++; return *src; }
    return lol_stub_double_g(src, pe);
}
static inline void shmem_double_p(double *dst, double v, int pe) {
    if (pe == lol_stub_me) { lol_stub_stats[pe].local_puts++; *dst = v; return; }
    lol_stub_double_p(dst, v, pe);
}

long shmem_long_atomic_compare_swap(long *target, long cond, long value, int pe);
long shmem_long_atomic_swap(long *target, long value, int pe);
long shmem_long_atomic_fetch(const long *target, int pe);
long shmem_long_atomic_fetch_inc(long *target, int pe);
#endif
"#;

/// The stub's source: the out-of-line half of [`SHMEM_STUB_H`], which
/// must precede it in the same translation unit.
pub const SHMEM_STUB_C: &str = r#"/* multi-PE OpenSHMEM stub source */
#ifndef LOL_SHMEM_STUB_C
#define LOL_SHMEM_STUB_C
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

int lol_stub_lock_kind = 0;
/* >0 while inside a lol_lock_* op: virtual-clock charging is then done
   once at LOL_LOCK_ENTER (mirroring the Rust substrate's one charge
   per lock op) and suppressed for the AMOs the op spins on — retries
   are scheduling-dependent and must not advance deterministic time. */
static __thread int lol_stub_lock_depth = 0;

typedef struct { char *addr; size_t size; } lol_stub_sym_t;

int lol_stub_npes = 1;
static int lol_stub_passthrough = 1; /* old single-PE behavior: no env, no capture */
__thread int lol_stub_me = 0;
static lol_stub_sym_t lol_stub_syms[LOL_STUB_MAX_PES][LOL_STUB_MAX_SYMS];
static int lol_stub_nsyms[LOL_STUB_MAX_PES];
lol_stub_stats_t lol_stub_stats[LOL_STUB_MAX_PES];
static FILE *lol_stub_cap[LOL_STUB_MAX_PES]; /* per-PE capture files, or NULL */
/* -- clocks: wall trace epoch + the virtual-time logical clock -- */

static int lol_stub_clock_virtual = 0; /* LOL_STUB_CLOCK=virtual */
static __thread unsigned long long lol_stub_vclock = 0;
static __thread int lol_stub_bar_parity = 0;
/* double-buffered per-barrier clock publication (parity stops episode
   k+1's stores racing episode k's reads — same scheme as the Rust
   substrate's World::vclock_pub) */
static unsigned long long lol_stub_vpub[2][LOL_STUB_MAX_PES];
static unsigned long long lol_stub_vclock_final[LOL_STUB_MAX_PES];
static unsigned long long lol_stub_end_ns[LOL_STUB_MAX_PES];
static unsigned long long lol_stub_epoch = 0; /* wall ns at launch */
static unsigned long long lol_stub_clk_overhead = 0; /* calibrated clock_gettime cost */

static unsigned long long lol_stub_wall_raw(void) {
#ifdef CLOCK_MONOTONIC
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (unsigned long long)ts.tv_sec * 1000000000ull + (unsigned long long)ts.tv_nsec;
#else
    return 0;
#endif
}

/* this PE's timestamp on the job's clock (wall offset or virtual) */
static unsigned long long lol_stub_now_ns(void) {
    if (lol_stub_clock_virtual) return lol_stub_vclock;
    return lol_stub_wall_raw() - lol_stub_epoch;
}

/* Measure the floor cost of one clock_gettime call (min of many
   back-to-back pairs). Wall-mode busy-waits subtract it so the
   injected latency is accurate even when the delay is only a few
   clock-read costs long (fast machines, ~10ns models). */
static void lol_stub_calibrate_clock(void) {
#ifdef CLOCK_MONOTONIC
    unsigned long long best = (unsigned long long)-1, a, b;
    int i;
    for (i = 0; i < 128; i++) {
        a = lol_stub_wall_raw();
        b = lol_stub_wall_raw();
        if (b > a && b - a < best) best = b - a;
    }
    if (best != (unsigned long long)-1) lol_stub_clk_overhead = best;
#endif
}

/* -- bounded per-PE event recorder (LOL_STUB_TRACE=<cap>) -- */

typedef struct {
    char kind;
    int peer;
    unsigned addr, bytes;
    unsigned long long t;
} lol_stub_ev_t;

static unsigned lol_stub_trace_cap = 0; /* 0 = tracing off */
static lol_stub_ev_t *lol_stub_evs[LOL_STUB_MAX_PES];
static unsigned lol_stub_nevs[LOL_STUB_MAX_PES];
static unsigned long long lol_stub_evdrop[LOL_STUB_MAX_PES];

/* Word offset of a symmetric address in the job-wide layout:
   cumulative over registration order, which matches the Rust
   substrate's SharedLayout (data cell then lock cell, declaration
   order) — so the same program yields the same addresses on every
   backend. */
static unsigned lol_stub_word_addr(const void *p) {
    int me = lol_stub_me, i;
    unsigned base = 0;
    for (i = 0; i < lol_stub_nsyms[me]; i++) {
        char *a = lol_stub_syms[me][i].addr;
        if ((const char *)p >= a && (const char *)p < a + lol_stub_syms[me][i].size)
            return base + (unsigned)(((const char *)p - a) / 8);
        base += (unsigned)(lol_stub_syms[me][i].size / 8);
    }
    return 0;
}

void lol_stub_trace_ev(char kind, int peer, const void *addr, unsigned bytes) {
    int me = lol_stub_me;
    unsigned n;
    if (lol_stub_trace_cap == 0) return;
    if (!lol_stub_evs[me]) {
        lol_stub_evs[me] = (lol_stub_ev_t *)malloc(sizeof(lol_stub_ev_t) * lol_stub_trace_cap);
        if (!lol_stub_evs[me]) { lol_stub_evdrop[me]++; return; }
    }
    n = lol_stub_nevs[me];
    if (n >= lol_stub_trace_cap) { lol_stub_evdrop[me]++; return; }
    lol_stub_evs[me][n].kind = kind;
    lol_stub_evs[me][n].peer = peer;
    lol_stub_evs[me][n].addr = addr ? lol_stub_word_addr(addr) : 0;
    lol_stub_evs[me][n].bytes = bytes;
    lol_stub_evs[me][n].t = lol_stub_now_ns();
    lol_stub_nevs[me] = n + 1;
}

static void lol_stub_fatal(const char *msg) {
    fprintf(stderr, "lol-stub: %s\n", msg);
    exit(2);
}

/* -- faults: like the Rust substrate's run_spmd, a failing PE ends its
   own thread, PEs waiting on it give up, and the launcher reports the
   lowest failing PE's line once every PE has stopped -- */

static int lol_stub_aborted = 0;
static char *lol_stub_faults[LOL_STUB_MAX_PES];
static void lol_stub_give_up(void);

void lol_stub_fault(char *line) {
    if (lol_stub_passthrough) {
        fprintf(stderr, "%s\n", line);
        exit(1);
    }
    lol_stub_faults[lol_stub_me] = line;
    lol_stub_give_up();
}

/* Briefly back off in a spin loop: oversubscribed PE threads (more PEs
   than cores) must let the thread they wait on run. Guarded on
   CLOCK_MONOTONIC because nanosleep comes from the same POSIX level;
   without it (strict-C99 build) the loop degrades to a pure spin. */
static __thread unsigned lol_stub_spin_count = 0;
void lol_stub_relax(void) {
    if (__atomic_load_n(&lol_stub_aborted, __ATOMIC_ACQUIRE)) lol_stub_give_up();
#ifdef CLOCK_MONOTONIC
    if ((++lol_stub_spin_count & 0xFF) == 0) {
        struct timespec ts;
        ts.tv_sec = 0;
        ts.tv_nsec = 10000; /* 10us */
        nanosleep(&ts, NULL);
    }
#else
    ++lol_stub_spin_count;
#endif
}

/* -- barrier algorithms (LOL_STUB_BARRIER: central | dissem) -- */

/* mutex+cond centralized barrier: pthread_barrier_t is optional under
   -std=c99, and one shared generation counter is the teaching-friendly
   default (the analog of the Rust substrate's CentralBarrier) */
static pthread_mutex_t lol_stub_bar_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t lol_stub_bar_cv = PTHREAD_COND_INITIALIZER;
static int lol_stub_bar_waiting = 0;
static unsigned long long lol_stub_bar_gen = 0;
static int lol_stub_bar_kind = 0; /* 0 = central, 1 = dissem */

/* End this PE's thread because the job failed, waking every barrier
   waiter so that it gives up too. */
static void lol_stub_give_up(void) {
    __atomic_store_n(&lol_stub_aborted, 1, __ATOMIC_RELEASE);
    pthread_mutex_lock(&lol_stub_bar_mu);
    pthread_cond_broadcast(&lol_stub_bar_cv);
    pthread_mutex_unlock(&lol_stub_bar_mu);
    pthread_exit(NULL);
}

/* dissemination barrier: log2(npes) rounds of pairwise signalling on
   per-(round, PE) generation counters, like DisseminationBarrier */
static int lol_stub_dissem_rounds = 0;
static unsigned long long lol_stub_dissem_flags[LOL_STUB_MAX_ROUNDS][LOL_STUB_MAX_PES];
static __thread unsigned long long lol_stub_dissem_gen = 0;

static void lol_stub_dissem_wait(void) {
    int r;
    unsigned long long g = ++lol_stub_dissem_gen;
    for (r = 0; r < lol_stub_dissem_rounds; r++) {
        int partner = (lol_stub_me + (1 << r)) % lol_stub_npes;
        __atomic_add_fetch(&lol_stub_dissem_flags[r][partner], 1, __ATOMIC_ACQ_REL);
        while (__atomic_load_n(&lol_stub_dissem_flags[r][lol_stub_me], __ATOMIC_ACQUIRE) < g)
            lol_stub_relax();
    }
}

/* One barrier episode. `explicit_` = user-visible HUGZ (costs 10
   virtual ns); the registration fence passes 0 (clock-sync only), so
   virtual walls match the Rust substrate's barrier accounting. */
static void lol_stub_barrier_wait(int explicit_) {
    int parity = lol_stub_bar_parity;
    if (lol_stub_clock_virtual)
        __atomic_store_n(&lol_stub_vpub[parity][lol_stub_me], lol_stub_vclock, __ATOMIC_RELEASE);
    if (lol_stub_npes > 1) {
        if (lol_stub_bar_kind == 1) {
            lol_stub_dissem_wait();
        } else {
            pthread_mutex_lock(&lol_stub_bar_mu);
            {
                unsigned long long gen = lol_stub_bar_gen;
                if (++lol_stub_bar_waiting == lol_stub_npes) {
                    lol_stub_bar_waiting = 0;
                    lol_stub_bar_gen++;
                    pthread_cond_broadcast(&lol_stub_bar_cv);
                } else {
                    while (gen == lol_stub_bar_gen) {
                        if (__atomic_load_n(&lol_stub_aborted, __ATOMIC_ACQUIRE)) {
                            pthread_mutex_unlock(&lol_stub_bar_mu);
                            lol_stub_give_up();
                        }
                        pthread_cond_wait(&lol_stub_bar_cv, &lol_stub_bar_mu);
                    }
                }
            }
            pthread_mutex_unlock(&lol_stub_bar_mu);
        }
    }
    if (lol_stub_clock_virtual) {
        unsigned long long sync = 0, v;
        int pe;
        for (pe = 0; pe < lol_stub_npes; pe++) {
            v = __atomic_load_n(&lol_stub_vpub[parity][pe], __ATOMIC_ACQUIRE);
            if (v > sync) sync = v;
        }
        lol_stub_vclock = sync + (explicit_ ? 10 : 0);
        lol_stub_bar_parity ^= 1;
    }
}

/* -- interconnect latency model (LOL_STUB_LATENCY) --
   Canonical tokens, same grammar the Rust substrate's LatencyModel
   round-trips: off | flat:<ns> | mesh:<w>[:<base>:<hop>] |
   torus:<w>[x<h>][:<base>:<hop>] */

static int lol_stub_lat_kind = 0; /* 0 off, 1 flat, 2 mesh, 3 torus */
static int lol_stub_lat_w = 1, lol_stub_lat_h = 1;
static unsigned long long lol_stub_lat_base = 0, lol_stub_lat_hop = 0;

static void lol_stub_parse_latency(const char *s) {
    char *end;
    if (!s || !*s || strcmp(s, "off") == 0) { lol_stub_lat_kind = 0; return; }
    if (strncmp(s, "flat", 4) == 0) {
        lol_stub_lat_kind = 1;
        lol_stub_lat_base = s[4] == ':' ? strtoull(s + 5, NULL, 10) : 1000;
        return;
    }
    if (strncmp(s, "mesh", 4) == 0 || strncmp(s, "torus", 5) == 0) {
        int torus = s[0] == 't';
        const char *p = s + (torus ? 5 : 4);
        lol_stub_lat_kind = torus ? 3 : 2;
        lol_stub_lat_w = 4; /* bare mesh/torus = the 4x4 Epiphany-shaped default */
        lol_stub_lat_h = 4;
        lol_stub_lat_base = 50;
        lol_stub_lat_hop = 11;
        if (*p == ':') {
            lol_stub_lat_w = (int)strtoul(p + 1, &end, 10);
            lol_stub_lat_h = lol_stub_lat_w;
            if (torus && *end == 'x') lol_stub_lat_h = (int)strtoul(end + 1, &end, 10);
            if (*end == ':') {
                lol_stub_lat_base = strtoull(end + 1, &end, 10);
                if (*end == ':') lol_stub_lat_hop = strtoull(end + 1, &end, 10);
            }
        }
        lol_stub_lat_h = torus ? lol_stub_lat_h : lol_stub_lat_w;
        if (lol_stub_lat_w < 1 || lol_stub_lat_h < 1)
            lol_stub_fatal("latency grid dimensions must be >= 1");
        return;
    }
    lol_stub_fatal("unknown LOL_STUB_LATENCY model (off|flat:NS|mesh:W:B:H|torus:WxH:B:H)");
}

static unsigned long long lol_stub_delay_ns(int from, int to) {
    int fx, fy, tx, ty, dx, dy;
    if (from == to || lol_stub_lat_kind == 0) return 0;
    if (lol_stub_lat_kind == 1) return lol_stub_lat_base;
    fx = from % lol_stub_lat_w; fy = from / lol_stub_lat_w;
    tx = to % lol_stub_lat_w;   ty = to / lol_stub_lat_w;
    if (lol_stub_lat_kind == 3) { fy %= lol_stub_lat_h; ty %= lol_stub_lat_h; }
    dx = fx > tx ? fx - tx : tx - fx;
    dy = fy > ty ? fy - ty : ty - fy;
    if (lol_stub_lat_kind == 3) { /* wraparound links halve worst-case hops */
        if (lol_stub_lat_w - dx < dx) dx = lol_stub_lat_w - dx;
        if (lol_stub_lat_h - dy < dy) dy = lol_stub_lat_h - dy;
    }
    return lol_stub_lat_base + (unsigned long long)(dx + dy) * lol_stub_lat_hop;
}

/* Pay the modelled delay for touching `pe`. Virtual mode *accounts*
   it (delay + 1ns per remote op, like the Rust substrate); wall mode
   busy-waits it out (sub-microsecond delays need spinning, not
   sleeping), minus the calibrated clock-read overhead so the injected
   latency stays accurate on fast machines. Degrades to zero cost when
   time.h has no monotonic clock (strict C99 without POSIX). */
static void lol_stub_charge(int pe) {
    unsigned long long ns = lol_stub_delay_ns(lol_stub_me, pe);
    if (lol_stub_clock_virtual) {
        if (pe != lol_stub_me && !lol_stub_lock_depth) lol_stub_vclock += ns + 1;
        return;
    }
    if (ns == 0) return;
#ifdef CLOCK_MONOTONIC
    {
        unsigned long long t0, now;
        /* The loop's final clock read lands ~one read-cost past the
           deadline on average; shrinking the target by the calibrated
           floor cost centers the error instead of always overshooting. */
        if (ns <= lol_stub_clk_overhead) return;
        ns -= lol_stub_clk_overhead;
        t0 = lol_stub_wall_raw();
        do {
            now = lol_stub_wall_raw();
        } while (now - t0 < ns);
    }
#endif
}

/* One fixed virtual charge per lock operation (acquire/try/release),
   paid up front like the Rust substrate's Pe::lock; the AMOs inside
   the op then charge nothing (see lol_stub_charge). Wall mode is
   untouched: it busy-waits per AMO, which is what a real spinning
   lock over a slow interconnect feels like. */
void lol_stub_lock_enter(int pe) {
    if (lol_stub_clock_virtual && pe != lol_stub_me)
        lol_stub_vclock += lol_stub_delay_ns(lol_stub_me, pe) + 1;
    lol_stub_lock_depth++;
}
void lol_stub_lock_exit(void) { lol_stub_lock_depth--; }

/* -- symmetric segment: per-thread registry + address translation -- */

void lol_stub_sym_reg(void *p, size_t n) {
    int me = lol_stub_me;
    if (lol_stub_nsyms[me] >= LOL_STUB_MAX_SYMS) lol_stub_fatal("too many symmetric objects");
    lol_stub_syms[me][lol_stub_nsyms[me]].addr = (char *)p;
    lol_stub_syms[me][lol_stub_nsyms[me]].size = n;
    lol_stub_nsyms[me]++;
}

/* all PEs must finish registering before anyone translates (internal
   fence: untraced, free in virtual time — like the Rust substrate's
   collective-allocation barrier) */
void lol_stub_sym_done(void) { lol_stub_barrier_wait(0); }

/* The single remote-access choke point: every remote get/put/atomic
   translates through here, so charging the interconnect model here
   covers the whole SHMEM surface (mirroring the Rust substrate, which
   charges in each Pe accessor). */
static void *lol_stub_xlate(const void *p, int pe) {
    int me = lol_stub_me;
    int i;
    if (pe == me) return (void *)p;
    if (pe < 0 || pe >= lol_stub_npes) lol_stub_fatal("PE out of range");
    lol_stub_charge(pe);
    for (i = 0; i < lol_stub_nsyms[me]; i++) {
        char *base = lol_stub_syms[me][i].addr;
        if ((const char *)p >= base && (const char *)p < base + lol_stub_syms[me][i].size)
            return lol_stub_syms[pe][i].addr + ((const char *)p - base);
    }
    lol_stub_fatal("address is not symmetric");
    return NULL;
}

/* -- the out-of-line OpenSHMEM surface: barriers, remote gets and
   puts (the header inlines the local halves) and the atomics -- */

void lol_stub_barrier_all(void) {
    lol_stub_stats[lol_stub_me].barriers++;
    lol_stub_trace_ev('B', lol_stub_me, NULL, 0);
    lol_stub_barrier_wait(1);
    lol_stub_trace_ev('b', lol_stub_me, NULL, 0);
}

long long lol_stub_longlong_g(const long long *src, int pe) {
    long long v;
    lol_stub_stats[lol_stub_me].remote_gets++;
    __atomic_load((long long *)lol_stub_xlate(src, pe), &v, __ATOMIC_SEQ_CST);
    lol_stub_trace_ev('G', pe, src, 8);
    return v;
}
void lol_stub_longlong_p(long long *dst, long long v, int pe) {
    lol_stub_stats[lol_stub_me].remote_puts++;
    __atomic_store((long long *)lol_stub_xlate(dst, pe), &v, __ATOMIC_SEQ_CST);
    lol_stub_trace_ev('P', pe, dst, 8);
}
double lol_stub_double_g(const double *src, int pe) {
    double v;
    lol_stub_stats[lol_stub_me].remote_gets++;
    __atomic_load((double *)lol_stub_xlate(src, pe), &v, __ATOMIC_SEQ_CST);
    lol_stub_trace_ev('G', pe, src, 8);
    return v;
}
void lol_stub_double_p(double *dst, double v, int pe) {
    lol_stub_stats[lol_stub_me].remote_puts++;
    __atomic_store((double *)lol_stub_xlate(dst, pe), &v, __ATOMIC_SEQ_CST);
    lol_stub_trace_ev('P', pe, dst, 8);
}
long shmem_long_atomic_compare_swap(long *target, long cond, long value, int pe) {
    long *t = (long *)lol_stub_xlate(target, pe);
    long expected = cond;
    lol_stub_stats[lol_stub_me].amos++;
    __atomic_compare_exchange_n(t, &expected, value, 0, __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST);
    return expected;
}
long shmem_long_atomic_swap(long *target, long value, int pe) {
    long *t = (long *)lol_stub_xlate(target, pe);
    lol_stub_stats[lol_stub_me].amos++;
    return __atomic_exchange_n(t, value, __ATOMIC_SEQ_CST);
}
long shmem_long_atomic_fetch(const long *target, int pe) {
    long v;
    lol_stub_stats[lol_stub_me].amos++;
    __atomic_load((long *)lol_stub_xlate(target, pe), &v, __ATOMIC_SEQ_CST);
    return v;
}
long shmem_long_atomic_fetch_inc(long *target, int pe) {
    lol_stub_stats[lol_stub_me].amos++;
    return __atomic_fetch_add((long *)lol_stub_xlate(target, pe), 1, __ATOMIC_SEQ_CST);
}

/* -- per-PE output capture (VISIBLE) -- */

void lol_stub_puts(const char *s) {
    FILE *f = lol_stub_cap[lol_stub_me];
    fputs(s, f ? f : stdout);
}

/* -- per-PE stdin replay (GIMMEH): every PE sees the whole stream -- */

static pthread_mutex_t lol_stub_in_mu = PTHREAD_MUTEX_INITIALIZER;
static char *lol_stub_in_buf = NULL;
static size_t lol_stub_in_len = 0;
static int lol_stub_in_ready = 0;
static __thread size_t lol_stub_in_pos = 0;

static void lol_stub_slurp(void) {
    pthread_mutex_lock(&lol_stub_in_mu);
    if (!lol_stub_in_ready) {
        size_t cap = 4096, n;
        lol_stub_in_buf = (char *)malloc(cap);
        if (!lol_stub_in_buf) lol_stub_fatal("out of memory");
        while ((n = fread(lol_stub_in_buf + lol_stub_in_len, 1, cap - lol_stub_in_len, stdin)) > 0) {
            lol_stub_in_len += n;
            if (lol_stub_in_len == cap) {
                cap *= 2;
                lol_stub_in_buf = (char *)realloc(lol_stub_in_buf, cap);
                if (!lol_stub_in_buf) lol_stub_fatal("out of memory");
            }
        }
        lol_stub_in_ready = 1;
    }
    pthread_mutex_unlock(&lol_stub_in_mu);
}

char *lol_stub_gets(char *buf, int n) {
    int i = 0;
    if (lol_stub_passthrough) return fgets(buf, n, stdin);
    lol_stub_slurp();
    if (lol_stub_in_pos >= lol_stub_in_len) return NULL;
    while (i < n - 1 && lol_stub_in_pos < lol_stub_in_len) {
        char c = lol_stub_in_buf[lol_stub_in_pos++];
        buf[i++] = c;
        if (c == '\n') break;
    }
    buf[i] = '\0';
    return buf;
}

/* -- per-PE deterministic RNG (xorshift64*) -- */

static unsigned long long lol_stub_seed0 = 0;
static __thread unsigned long long lol_stub_rng_state = 0x853c49e6748fea9bULL;

void lol_stub_srand(unsigned long long seed) {
    lol_stub_rng_state = (seed ^ lol_stub_seed0) * 0x9E3779B97F4A7C15ULL + 0x853c49e6748fea9bULL
        + (unsigned long long)lol_stub_me;
    /* xorshift's zero state is absorbing; the mix above is invertible,
       so some seed lands exactly on it */
    if (lol_stub_rng_state == 0) lol_stub_rng_state = 0x853c49e6748fea9bULL;
}
int lol_stub_rand(void) {
    unsigned long long x = lol_stub_rng_state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    lol_stub_rng_state = x;
    return (int)(((x * 0x2545F4914F6CDD1DULL) >> 33) & 0x7fffffff);
}

/* -- SPMD launch: LOL_STUB_NPES threads, each running lol_main -- */

static lol_stub_main_fn lol_stub_fn;

static void *lol_stub_thread(void *arg) {
    int rc;
    lol_stub_me = (int)(size_t)arg;
    rc = lol_stub_fn();
    lol_stub_vclock_final[lol_stub_me] = lol_stub_vclock;
    lol_stub_end_ns[lol_stub_me] = lol_stub_now_ns();
    return (void *)(size_t)(unsigned)rc;
}

int lol_stub_launch(lol_stub_main_fn fn) {
    pthread_t tid[LOL_STUB_MAX_PES];
    const char *np = getenv("LOL_STUB_NPES");
    const char *seed = getenv("LOL_STUB_SEED");
    const char *out = getenv("LOL_STUB_OUT");
    const char *lat = getenv("LOL_STUB_LATENCY");
    const char *bar = getenv("LOL_STUB_BARRIER");
    const char *lock = getenv("LOL_STUB_LOCK");
    const char *clk = getenv("LOL_STUB_CLOCK");
    const char *trace = getenv("LOL_STUB_TRACE");
    int pe, rc = 0;
    lol_stub_npes = np ? atoi(np) : 1;
    if (lol_stub_npes < 1) lol_stub_npes = 1;
    if (lol_stub_npes > LOL_STUB_MAX_PES) lol_stub_fatal("too many PEs (max 256)");
    if (seed) lol_stub_seed0 = strtoull(seed, NULL, 10);
    if (lat) lol_stub_parse_latency(lat);
    if (bar) {
        if (strcmp(bar, "central") == 0) lol_stub_bar_kind = 0;
        else if (strcmp(bar, "dissem") == 0) lol_stub_bar_kind = 1;
        else lol_stub_fatal("unknown LOL_STUB_BARRIER (central|dissem)");
    }
    if (lock) {
        if (strcmp(lock, "cas") == 0) lol_stub_lock_kind = 0;
        else if (strcmp(lock, "ticket") == 0) lol_stub_lock_kind = 1;
        else lol_stub_fatal("unknown LOL_STUB_LOCK (cas|ticket)");
    }
    if (clk) {
        if (strcmp(clk, "wall") == 0) lol_stub_clock_virtual = 0;
        else if (strcmp(clk, "virtual") == 0) lol_stub_clock_virtual = 1;
        else lol_stub_fatal("unknown LOL_STUB_CLOCK (wall|virtual)");
    }
    if (trace) lol_stub_trace_cap = (unsigned)strtoul(trace, NULL, 10);
    if (!lol_stub_clock_virtual && lol_stub_lat_kind != 0) lol_stub_calibrate_clock();
    lol_stub_epoch = lol_stub_wall_raw();
    while ((1 << lol_stub_dissem_rounds) < lol_stub_npes) lol_stub_dissem_rounds++;
    lol_stub_passthrough = (lol_stub_npes == 1 && !out);
    if (lol_stub_passthrough) return fn();
    if (out) {
        char path[4096];
        for (pe = 0; pe < lol_stub_npes; pe++) {
            snprintf(path, sizeof path, "%s.pe%d.out", out, pe);
            lol_stub_cap[pe] = fopen(path, "w");
            if (!lol_stub_cap[pe]) lol_stub_fatal("cannot open per-PE capture file");
        }
    }
    lol_stub_fn = fn;
    for (pe = 0; pe < lol_stub_npes; pe++)
        if (pthread_create(&tid[pe], NULL, lol_stub_thread, (void *)(size_t)pe) != 0)
            lol_stub_fatal("pthread_create failed");
    for (pe = 0; pe < lol_stub_npes; pe++) {
        void *ret = NULL;
        pthread_join(tid[pe], &ret);
        if ((int)(size_t)ret != 0) rc = (int)(size_t)ret;
    }
    for (pe = 0; pe < lol_stub_npes; pe++) {
        if (lol_stub_faults[pe]) {
            if (out) {
                /* the driver reads the failing PE from here */
                char path[4096];
                FILE *f;
                snprintf(path, sizeof path, "%s.fault", out);
                f = fopen(path, "w");
                if (f) {
                    fprintf(f, "%d\n", pe);
                    fclose(f);
                }
            }
            fprintf(stderr, "%s\n", lol_stub_faults[pe]);
            exit(1);
        }
    }
    if (out) {
        char path[4096];
        FILE *f;
        for (pe = 0; pe < lol_stub_npes; pe++) fclose(lol_stub_cap[pe]);
        snprintf(path, sizeof path, "%s.stats", out);
        f = fopen(path, "w");
        if (f) {
            for (pe = 0; pe < lol_stub_npes; pe++) {
                lol_stub_stats_t *s = &lol_stub_stats[pe];
                /* 8th column: the PE's final virtual clock (0 on wall) */
                fprintf(f, "%d %llu %llu %llu %llu %llu %llu %llu\n", pe, s->local_gets,
                        s->remote_gets, s->local_puts, s->remote_puts, s->amos, s->barriers,
                        lol_stub_vclock_final[pe]);
            }
            fclose(f);
        }
        if (lol_stub_trace_cap > 0) {
            unsigned i;
            for (pe = 0; pe < lol_stub_npes; pe++) {
                snprintf(path, sizeof path, "%s.pe%d.trace", out, pe);
                f = fopen(path, "w");
                if (!f) continue;
                for (i = 0; i < lol_stub_nevs[pe]; i++) {
                    lol_stub_ev_t *e = &lol_stub_evs[pe][i];
                    fprintf(f, "%c %d %u %u %llu\n", e->kind, e->peer, e->addr, e->bytes, e->t);
                }
                /* trailer: dropped count + the PE's final clock */
                fprintf(f, "= %llu %llu\n", lol_stub_evdrop[pe], lol_stub_end_ns[pe]);
                fclose(f);
            }
        }
    }
    return rc;
}
#endif
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_has_the_key_pieces() {
        let runtime = format!("{LOL_RUNTIME_H}{LOL_RUNTIME_C}");
        for needle in [
            "lol_value_t",
            "lol_sum",
            "lol_quoshunt",
            "lol_saem",
            "lol_lock_acquire",
            "shmem_long_atomic_compare_swap",
            "%.2f",       // NUMBAR printing matches the interpreter
            "isnan(v.f)", // non-finite NUMBARs render nan/inf/-inf everywhere
            "lol_arr_new",
            // the TXT MAH BFF target check
            "k >= shmem_n_pes())",
            "lol_die(\"RUN0017\"",
            // the hook macros a stub shmem.h may override
            "#ifndef LOL_SYMMETRIC",
            "#ifndef LOL_SYM_REG",
            "#ifndef LOL_MAIN_DRIVER",
            "#ifndef LOL_PUTS",
            "#ifndef LOL_GETS",
            "#ifndef LOL_SRAND",
            "#ifndef LOL_LOCK_KIND",
            "#ifndef LOL_LOCK_RELAX",
            "#ifndef LOL_LOCK_TRACE",
            // YARNs are heap-allocated (no 256-byte cap)
            "char *s;",
            "lol_strdup",
        ] {
            assert!(runtime.contains(needle), "runtime lacks {needle}");
        }
        assert!(!runtime.contains("char s[256]"), "the YARN cap is supposed to be gone");
    }

    #[test]
    fn stub_covers_the_runtime_calls() {
        // Every shmem_* symbol the runtime/emitter uses must exist in
        // the stub.
        let stub = format!("{SHMEM_STUB_H}{SHMEM_STUB_C}");
        for needle in [
            "shmem_init",
            "shmem_finalize",
            "shmem_my_pe",
            "shmem_n_pes",
            "shmem_barrier_all",
            "shmem_longlong_g",
            "shmem_longlong_p",
            "shmem_double_g",
            "shmem_double_p",
            "shmem_long_atomic_compare_swap",
            "shmem_long_atomic_swap",
            // every hook the runtime leaves overridable must be defined
            "#define LOL_SYMMETRIC",
            "#define LOL_SYM_REG",
            "#define LOL_SYM_REG_DONE",
            "#define LOL_MAIN_DRIVER",
            "#define LOL_PUTS",
            "#define LOL_GETS",
            "#define LOL_SRAND",
            "#define LOL_RAND",
            "#define LOL_LOCK_KIND",
            "#define LOL_LOCK_RELAX",
            "#define LOL_PER_PE",
            // the ticket-lock AMOs the runtime's lock functions use
            "shmem_long_atomic_fetch",
            "shmem_long_atomic_fetch_inc",
            // the engine-driver env protocol
            "LOL_STUB_NPES",
            "LOL_STUB_SEED",
            "LOL_STUB_OUT",
            "LOL_STUB_LATENCY",
            "LOL_STUB_BARRIER",
            "LOL_STUB_LOCK",
            // the trace + virtual-clock protocol
            "LOL_STUB_CLOCK",
            "LOL_STUB_TRACE",
            "#define LOL_LOCK_TRACE",
            "lol_stub_trace_ev",
            "lol_stub_word_addr",
            "lol_stub_vclock",
            "lol_stub_vpub",
            "lol_stub_calibrate_clock",
            // latency models charge at the remote-access choke point
            "lol_stub_charge",
            "lol_stub_delay_ns",
            // both barrier algorithms exist
            "lol_stub_dissem_wait",
        ] {
            assert!(stub.contains(needle), "stub lacks {needle}");
        }
    }

    #[test]
    fn braces_balance() {
        for (name, text) in [
            ("runtime header", LOL_RUNTIME_H),
            ("runtime source", LOL_RUNTIME_C),
            ("stub header", SHMEM_STUB_H),
            ("stub source", SHMEM_STUB_C),
        ] {
            let open = text.matches('{').count();
            let close = text.matches('}').count();
            assert_eq!(open, close, "{name} braces unbalanced");
        }
    }
}
