"""Build and load the native message-kernel library.

The C source below is the whole library: one function executing a full
Hugin message (marginalize → normalize → ratio → absorb) over contiguous
float64 tables through precomputed int64 index maps, its batched
table-major variant, the compiled-schedule runner built on it, and the
whole-case entry point ``fbni_infer_cases``, which walks strided loops
over each table's free axes instead of maps.
It is compiled on first use with whatever C compiler
the system provides (``cc``/``gcc``/``clang``; :data:`CFLAGS`) into
a shared object cached under a **content-hash key** — the SHA-256 of the
source text, the compiler path and the flags — so a source, toolchain
or flag change can never pick up a stale binary, and repeat runs
(including separate worker processes) just ``dlopen`` the cached file.

Cache location: ``$REPRO_NATIVE_CACHE`` if set, else
``$XDG_CACHE_HOME/fastbni/native``, else ``~/.cache/fastbni/native``.
Builds are atomic (compile into a tempdir, ``os.replace`` into place), so
concurrent first-use from several processes is safe.

Failure is a *value*, not an exception: :func:`load_library` returns
``(lib, path, None)`` on success and ``(None, None, reason)`` when there
is no compiler, the compile fails, or ``REPRO_NATIVE_DISABLE`` is set.
The registry (:func:`repro.exec.kernels.get_kernels`) turns that reason
into a logged fallback to the ``fused`` backend.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

#: Set to any non-empty value to force the fused fallback (lets tests and
#: compiler-less CI runners exercise the degradation path deterministically).
DISABLE_ENV = "REPRO_NATIVE_DISABLE"
#: Overrides the compile-cache directory.
CACHE_ENV = "REPRO_NATIVE_CACHE"

C_SOURCE = r"""
/* fastbni native message kernels.
 *
 * One whole junction-tree message per call: scatter-marginalize the
 * source clique onto the separator through its index map, normalize
 * (scaled propagation), divide by the old separator with the x/0 = 0
 * convention written as new/(old + (old==0)) -- valid because separator
 * zeros only ever grow during propagation, so old==0 implies new==0 --
 * then gather-absorb the ratio into the destination clique and overwrite
 * the separator.  Matches the Python `fused` backend to float64
 * round-off.
 *
 * The optional run lists ([start, end) int64 pairs) name the only
 * stretches of a table a loop need visit: entries whose CPT-product base
 * is zero contribute nothing to a marginal and stay zero under the
 * multiply-only updates calibration performs, so the calibrated prior
 * keeps them.
 *
 * The whole-case call (fbni_infer_cases) reads no index map and no run
 * list: it walks each table as a strided loop over its free axes.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t i64;

/* `body` over every [lo, hi) of a run list, or once over [0, size) when
 * there is none.  A dense table keeps its own plain counted loop -- the
 * one the compiler vectorises -- instead of going through a one-run
 * list. */
#define OVER(runs, n_runs, size, body)                                  \
    do {                                                                \
        if (runs) {                                                     \
            for (i64 r_ = 0; r_ < (n_runs); ++r_) {                     \
                i64 lo = (runs)[2 * r_], hi = (runs)[2 * r_ + 1];       \
                body;                                                   \
            }                                                           \
        } else {                                                        \
            i64 lo = 0, hi = (size);                                    \
            body;                                                       \
        }                                                               \
    } while (0)

static void fill_range(double *values, double value, i64 lo, i64 hi)
{
    for (i64 i = lo; i < hi; ++i)
        values[i] = value;
}

/* Four accumulators: the compiler will not vectorise one FP chain. */
static double sum_range(const double *values, i64 lo, i64 hi)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    i64 i = lo;
    for (; i + 4 <= hi; i += 4) {
        s0 += values[i];
        s1 += values[i + 1];
        s2 += values[i + 2];
        s3 += values[i + 3];
    }
    for (; i < hi; ++i)
        s0 += values[i];
    return (s0 + s1) + (s2 + s3);
}

/* scratch must hold 2 * sep_size doubles (new separator + ratio).
 * Returns the message total; a total <= 0 signals impossible evidence
 * and leaves dst/sep untouched.  Each of the three tables takes a run
 * list or NULL (visit everything); separator entries outside sep_runs
 * are neither read nor written, so every src/dst run must map inside
 * them. */
double fbni_message(const double *src, double *dst, double *sep,
                    const i64 *m_marg, const i64 *m_abs,
                    i64 src_size, i64 dst_size, i64 sep_size,
                    double *scratch,
                    const i64 *src_runs, i64 n_src_runs,
                    const i64 *dst_runs, i64 n_dst_runs,
                    const i64 *sep_runs, i64 n_sep_runs)
{
    double *new_sep = scratch;
    double *ratio = scratch + sep_size;
    double total = 0.0;
    OVER(sep_runs, n_sep_runs, sep_size, fill_range(new_sep, 0.0, lo, hi));
    OVER(src_runs, n_src_runs, src_size,
         for (i64 i = lo; i < hi; ++i)
             new_sep[m_marg[i]] += src[i]);
    OVER(sep_runs, n_sep_runs, sep_size, total += sum_range(new_sep, lo, hi));
    if (!(total > 0.0))
        return total;
    OVER(sep_runs, n_sep_runs, sep_size,
         for (i64 j = lo; j < hi; ++j) {
             double ns = new_sep[j] / total;
             double old = sep[j];
             ratio[j] = ns / (old + (old == 0.0 ? 1.0 : 0.0));
             sep[j] = ns;
         });
    OVER(dst_runs, n_dst_runs, dst_size,
         for (i64 i = lo; i < hi; ++i)
             dst[i] *= ratio[m_abs[i]]);
    return total;
}

/* Table-major batch: src is (k, src_size) row-major contiguous, etc.
 * totals[c] receives each case's message total.  Returns the first case
 * index whose message came up empty (total <= 0), or -1 when all k
 * cases normalised cleanly. */
i64 fbni_message_batch(const double *src, double *dst, double *sep,
                       const i64 *m_marg, const i64 *m_abs,
                       i64 src_size, i64 dst_size, i64 sep_size, i64 k,
                       double *scratch, double *totals)
{
    for (i64 c = 0; c < k; ++c) {
        double total = fbni_message(src + c * src_size,
                                    dst + c * dst_size,
                                    sep + c * sep_size,
                                    m_marg, m_abs,
                                    src_size, dst_size, sep_size,
                                    scratch, 0, 0, 0, 0, 0, 0);
        totals[c] = total;
        if (!(total > 0.0))
            return c;
    }
    return -1;
}

/* The whole calibration as one foreign call over two flat i64 tables.
 * Tables, FBNI_TABLE_STRIDE words each, cliques first, then separators,
 * in arena order:
 *
 *   [0] arena offset (entries) [1] size
 *   [2] first row in `axes`    [3] number of axes
 *   [4] nonzero-runs address (0 = dense)        [5] run count
 *
 * and the compiled schedule, FBNI_META_STRIDE words per message:
 *
 *   [0] upward flag            [1] marginalize-map address
 *   [2] absorb-map address     [3] src table id
 *   [4] dst table id           [5] sep table id
 *   [6]-[8] the slots of the message's loops (whole cases, below)
 *
 * Map/run addresses are raw pointers to int64 arrays the caller keeps
 * alive; table operands are located by offset from the state's arena
 * base, so one compiled schedule serves every per-case arena.  This
 * runner walks the maps and each table's nonzero runs.  Returns the
 * accumulated log-normalisation constant of the collect messages;
 * status[0] receives -1, or the index of the message whose total came
 * up empty (impossible evidence). */
#define FBNI_TABLE_STRIDE 6
#define FBNI_META_STRIDE 9

double fbni_run_schedule(double *arena, const i64 *meta, i64 n_messages,
                         double *scratch, const i64 *tables, i64 *status)
{
    double log_norm = 0.0;
    for (i64 m = 0; m < n_messages; ++m) {
        const i64 *e = meta + m * FBNI_META_STRIDE;
        const i64 *t[3];  /* src, dst, sep */
        for (int k = 0; k < 3; ++k)
            t[k] = tables + e[3 + k] * FBNI_TABLE_STRIDE;
        double total = fbni_message(
            arena + t[0][0], arena + t[1][0], arena + t[2][0],
            (const i64 *)(uintptr_t)e[1], (const i64 *)(uintptr_t)e[2],
            t[0][1], t[1][1], t[2][1], scratch,
            (const i64 *)(uintptr_t)t[0][4], t[0][5],
            (const i64 *)(uintptr_t)t[1][4], t[1][5], 0, 0);
        if (!(total > 0.0)) {
            status[0] = m;
            return 0.0;
        }
        if (e[0])
            log_norm += log(total);
    }
    status[0] = -1;
    return log_norm;
}

/* Strided loops.  A table's axes are FBNI_AXIS_STRIDE words each,
 * outermost first: [0] variable id, [1] stride, [2] cardinality (always
 * > 1: a one-state variable has no axis); the strides tile the table
 * row-major.  A loop walks the entries of a table the case's evidence
 * leaves possible and carries, alongside, the index of each entry in a
 * second table, the target: the message's separator, a read's marginal
 * or, with no axes, a single total.  An axis whose variable is observed
 * is pinned: it adds state * stride to the table offset, state * its
 * target stride (0 when the target lacks the variable) to the target
 * offset, and leaves the loop -- the entries evidence rules out are
 * never initialised, read or written.  The free axes left are merged
 * wherever they stay contiguous in both tables, into FBNI_DIM_STRIDE
 * rows of (count, stride, target stride), outermost first.  This is the
 * paper's stride-triple mapping computed as the loop goes. */
#define FBNI_AXIS_STRIDE 3
#define FBNI_DIM_STRIDE 3
#define FBNI_MAX_AXES 64

typedef struct {
    const i64 *dims;  /* n rows */
    i64 n, off, target_off;
} loop_t;

/* The loop of the table with axes `axes` against the target with axes
 * `target`, both in increasing variable id order; observed[v] is
 * variable v's state, or -1.  dims receives the rows and must hold
 * n_axes of them. */
static void pin(const i64 *axes, i64 n_axes, const i64 *target,
                i64 n_target, const i64 *observed, i64 *dims, loop_t *loop)
{
    i64 n = 0, off = 0, target_off = 0;
    i64 b = 0;
    for (i64 a = 0; a < n_axes; ++a) {
        const i64 *axis = axes + a * FBNI_AXIS_STRIDE;
        while (b < n_target && target[b * FBNI_AXIS_STRIDE] < axis[0])
            ++b;
        i64 tstride = b < n_target && target[b * FBNI_AXIS_STRIDE] == axis[0]
                      ? target[b * FBNI_AXIS_STRIDE + 1] : 0;
        i64 state = observed[axis[0]];
        if (state >= 0) {
            off += state * axis[1];
            target_off += state * tstride;
            continue;
        }
        i64 *dim = dims + n * FBNI_DIM_STRIDE;
        if (n > 0 && dim[-2] == axis[1] * axis[2]
                && dim[-1] == tstride * axis[2]) {
            dim -= FBNI_DIM_STRIDE;  /* contiguous with the row before */
            dim[0] *= axis[2];
        } else {
            dim[0] = axis[2];
            ++n;
        }
        dim[1] = axis[1];
        dim[2] = tstride;
    }
    loop->dims = dims;
    loop->n = n;
    loop->off = off;
    loop->target_off = target_off;
}

/* BODY once per joint state of all but the two innermost rows, with i_
 * and j_ the table and target index it starts at: a body is the nested
 * loops of those two rows (inner_rows), the rest an odometer, so a small
 * table pays no odometer step per run. */
#define WALK(loop, ...)                                                 \
    do {                                                                \
        const i64 *d_ = (loop)->dims;                                   \
        i64 n_ = (loop)->n, i_ = (loop)->off, j_ = (loop)->target_off;  \
        i64 digit_[FBNI_MAX_AXES];                                      \
        for (i64 a_ = 0; a_ < n_ - 2; ++a_)                             \
            digit_[a_] = 0;                                             \
        for (;;) {                                                      \
            __VA_ARGS__;                                                \
            i64 a_ = n_ - 3;                                            \
            for (; a_ >= 0; --a_) {                                     \
                const i64 *dim_ = d_ + a_ * FBNI_DIM_STRIDE;            \
                if (++digit_[a_] < dim_[0]) {                           \
                    i_ += dim_[1];                                      \
                    j_ += dim_[2];                                      \
                    break;                                              \
                }                                                       \
                digit_[a_] = 0;                                         \
                i_ -= (dim_[0] - 1) * dim_[1];                          \
                j_ -= (dim_[0] - 1) * dim_[2];                          \
            }                                                           \
            if (a_ < 0)                                                 \
                break;                                                  \
        }                                                               \
    } while (0)

/* The two innermost rows, padded with count-1 rows. */
static void inner_rows(const loop_t *loop, i64 *mid, i64 *in)
{
    static const i64 one[FBNI_DIM_STRIDE] = {1, 0, 0};
    i64 n = loop->n;
    memcpy(in, n > 0 ? loop->dims + (n - 1) * FBNI_DIM_STRIDE : one,
           sizeof one);
    memcpy(mid, n > 1 ? loop->dims + (n - 2) * FBNI_DIM_STRIDE : one,
           sizeof one);
}

static i64 loop_entries(const loop_t *loop)
{
    i64 entries = 1;
    for (i64 a = 0; a < loop->n; ++a)
        entries *= loop->dims[a * FBNI_DIM_STRIDE];
    return entries;
}

/* Dispatch on the innermost run length so the common short ones are
 * compile-time constants the compiler unrolls. */
#define BY_LENGTH(n, BODY)                                              \
    switch (n) {                                                        \
    case 2: BODY(2); break;                                             \
    case 3: BODY(3); break;                                             \
    case 4: BODY(4); break;                                             \
    default: BODY(n);                                                   \
    }

/* target[j] += table[i] over the loop.  The innermost row's runs are
 * reduced into one target entry, added elementwise (in registers when
 * the middle row sums into the same entries) or strided; the choice is
 * made once per loop. */
static void marginalize(const loop_t *loop, const double *restrict table,
                        double *restrict target)
{
    i64 mid[FBNI_DIM_STRIDE], in[FBNI_DIM_STRIDE];
    inner_rows(loop, mid, in);
    const i64 c = mid[0], s = mid[1], t = mid[2], n = in[0];
#define REDUCE(N) WALK(loop,                                            \
    for (i64 m = 0; m < c; ++m)                                         \
        target[j_ + m * t] += sum_range(table, i_ + m * s, i_ + m * s + (N)))
#define ADD(N) WALK(loop,                                               \
    for (i64 m = 0; m < c; ++m)                                         \
        for (i64 k = 0; k < (N); ++k)                                   \
            target[j_ + m * t + k] += table[i_ + m * s + k])
#define ACCUMULATE(N) WALK(loop,                                        \
    double acc[N] = {0};                                                \
    for (i64 m = 0; m < c; ++m)                                         \
        for (i64 k = 0; k < (N); ++k)                                   \
            acc[k] += table[i_ + m * s + k];                            \
    for (i64 k = 0; k < (N); ++k)                                       \
        target[j_ + k] += acc[k])
    if (in[1] == 1 && in[2] == 0) {
        BY_LENGTH(n, REDUCE);
    } else if (in[1] == 1 && in[2] == 1 && t == 0 && n <= 4) {
        switch (n) {
        case 1: ACCUMULATE(1); break;
        case 2: ACCUMULATE(2); break;
        case 3: ACCUMULATE(3); break;
        default: ACCUMULATE(4);
        }
    } else if (in[1] == 1 && in[2] == 1) {
        BY_LENGTH(n, ADD);
    } else {
        WALK(loop,
             for (i64 m = 0; m < c; ++m)
                 for (i64 k = 0; k < n; ++k)
                     target[j_ + m * t + k * in[2]]
                         += table[i_ + m * s + k * in[1]]);
    }
#undef REDUCE
#undef ADD
#undef ACCUMULATE
}

/* table[i] = src[i] * ratio[j] over the loop; src is table or the
 * prior.  The innermost row's runs are scaled by one ratio entry,
 * multiplied elementwise or strided. */
static void absorb(const loop_t *loop, double *table, const double *src,
                   const double *restrict ratio)
{
    i64 mid[FBNI_DIM_STRIDE], in[FBNI_DIM_STRIDE];
    inner_rows(loop, mid, in);
    const i64 c = mid[0], s = mid[1], t = mid[2], n = in[0];
#define SCALE(N) WALK(loop,                                             \
    for (i64 m = 0; m < c; ++m) {                                       \
        double r = ratio[j_ + m * t];                                   \
        for (i64 k = 0; k < (N); ++k)                                   \
            table[i_ + m * s + k] = src[i_ + m * s + k] * r;            \
    })
#define MUL(N) WALK(loop,                                               \
    for (i64 m = 0; m < c; ++m)                                         \
        for (i64 k = 0; k < (N); ++k)                                   \
            table[i_ + m * s + k] = src[i_ + m * s + k]                 \
                                    * ratio[j_ + m * t + k])
    if (in[1] == 1 && in[2] == 0) {
        BY_LENGTH(n, SCALE);
    } else if (in[1] == 1 && in[2] == 1) {
        BY_LENGTH(n, MUL);
    } else {
        WALK(loop,
             for (i64 m = 0; m < c; ++m)
                 for (i64 k = 0; k < n; ++k)
                     table[i_ + m * s + k * in[1]]
                         = src[i_ + m * s + k * in[1]]
                           * ratio[j_ + m * t + k * in[2]]);
    }
#undef SCALE
#undef MUL
}

/* The loop primitives on their own (a test surface): marginalize adds
 * each free entry of table into out, absorb writes in * ratio over them
 * (in is table, or another array); out and ratio are laid out as the
 * target.  n_axes <= FBNI_MAX_AXES. */
void fbni_pinned_marginalize(const double *table, const i64 *axes,
                             i64 n_axes, const i64 *target, i64 n_target,
                             const i64 *observed, double *out)
{
    i64 dims[FBNI_MAX_AXES * FBNI_DIM_STRIDE];
    loop_t loop;
    pin(axes, n_axes, target, n_target, observed, dims, &loop);
    marginalize(&loop, table, out);
}

void fbni_pinned_absorb(double *table, const double *in, const i64 *axes,
                        i64 n_axes, const i64 *target, i64 n_target,
                        const i64 *observed, const double *ratio)
{
    i64 dims[FBNI_MAX_AXES * FBNI_DIM_STRIDE];
    loop_t loop;
    pin(axes, n_axes, target, n_target, observed, dims, &loop);
    absorb(&loop, table, in, ratio);
}

/* Whole cases in one foreign call, case after case over one single-case
 * scratch arena (so a case's tables stay cache-resident and a block of
 * cases needs no more memory than one).
 *
 * prior is the plan's arena after one no-evidence calibration, every
 * table normalised to sum 1 (clique C holds P(C), separator S P(S)).  A
 * message whose inputs the case leaves at the prior changes nothing, so
 * only these run: a collect message iff its child's subtree holds an
 * observed clique, a distribute message iff that subtree holds a read
 * clique and some observed clique lies outside it.  A skipped collect
 * message's total is 1, so log P(e) is the sum of log totals over the
 * collect messages run plus the log of the root total.
 *
 * The prior is read in place: a table nobody has written in this case is
 * read from prior, the first separator update reads its old values
 * there, and the first absorb into a clique writes prior * ratio over
 * its free entries; from then on the arena copy is current.  Every loop
 * -- both clique loops and the three separator loops of a message, the
 * root total and the reads -- walks the table's free entries only.
 *
 * A message's three loops (its src and dst clique and its separator,
 * each against the separator) sit in loops, a slot each, named by words
 * [6], [7], [8] of the message; the two messages of an edge share its
 * three slots.  A slot is a head row, (rows, 0, 0), then the rows of the
 * loop with nothing pinned, built when the plan is lowered, in room for
 * as many rows as its table has axes.  When the case's evidence pins the
 * table, pin() derives the loop from the axes instead, once per case,
 * into the case's copy of the slot, whose head row then reads (rows,
 * table offset, separator offset), or -1 rows before the case derives
 * it.  The root total's and the reads' loops are derived per case.
 *
 * Variables are FBNI_VAR_STRIDE words each: [0] the table id of the
 * variable's clique, [1] its stride there, [2] its cardinality.
 *
 * words is FBNI_CASE_STRIDE words per table (the observed cliques in
 * the subtree a clique roots, FBNI_* flags), a need word per message
 * (collect phase first, children before parents), then the case's copy
 * of loops.  Tables 0 ..
 * n_cliques - 1 are the cliques.  evidence is (n_cases, n_vars)
 * row-major, a state index or -1 per variable; reads holds n_reads
 * (variable id, offset into the output row) pairs; out is (n_cases,
 * out_entries + 1): row c receives each read's normalised marginal at
 * its offset and, last, log P(e).
 *
 * status[0] = -1 on success.  Otherwise the call stops at the first
 * failing case c with status[0] = c and status[1] = the index of the
 * message that came up empty, n_messages when the root total is zero
 * (both: impossible evidence, found before any read), or -(1 + r) when
 * read r could not be normalised, its total left in the row's last slot.
 * status[2] - [4] sum over the cases the clique entries the messages run
 * walked, those every message of the schedule would walk dense, and the
 * messages run. */
#define FBNI_VAR_STRIDE 3
#define FBNI_CASE_STRIDE 2
#define FBNI_READ 1      /* the subtree a clique roots holds a read clique */
#define FBNI_PINNED 2    /* the case observes a variable of the table */
#define FBNI_WRITTEN 4   /* the arena copy is current, not the prior */
#define FAIL(c, why) do { status[0] = (c); status[1] = (why); return; } while (0)

/* need[m] for every message (the rule above), and no slot derived yet.
 * The collect pass sums, per clique, the observed cliques and the read
 * flags of the subtree it roots before any distribute message asks
 * about them. */
static void select_messages(const i64 *meta, i64 n_messages, i64 *words,
                            i64 observed_cliques, i64 *need, i64 *rows)
{
    for (i64 m = 0; m < n_messages; ++m) {
        const i64 *e = meta + m * FBNI_META_STRIDE;
        for (int k = 0; k < 3; ++k)
            rows[e[6 + k] * FBNI_DIM_STRIDE] = -1;
        i64 *src = words + e[3] * FBNI_CASE_STRIDE;
        i64 *dst = words + e[4] * FBNI_CASE_STRIDE;
        if (e[0]) {
            need[m] = src[0] > 0;
            dst[0] += src[0];
            dst[1] |= src[1] & FBNI_READ;
        } else {
            need[m] = (dst[1] & FBNI_READ) && observed_cliques > dst[0];
        }
    }
}

/* The separator passes of a message, over the separator's own loop:
 * zero new_sep, sum it, or normalise it by total, writing its ratio to
 * the old copy into ratio and the new separator into out (which may be
 * old). */
enum { SEP_ZERO, SEP_SUM, SEP_UPDATE };

static double sep_pass(int pass, const loop_t *sep, double *restrict new_sep,
                       const double *old, double *restrict ratio,
                       double *out, double total)
{
    i64 mid[FBNI_DIM_STRIDE], in[FBNI_DIM_STRIDE];
    inner_rows(sep, mid, in);
    const i64 c = mid[0], s = mid[1], n = in[0], step = in[1];
    double sum = 0.0;
#define EACH(OP)                                                        \
    if (step == 1)                                                      \
        WALK(sep, for (i64 m = 0; m < c; ++m)                           \
                      for (i64 k = i_ + m * s; k < i_ + m * s + n; ++k) \
                          OP);                                          \
    else                                                                \
        WALK(sep, for (i64 m = 0; m < c; ++m)                           \
                      for (i64 q = 0, k = i_ + m * s; q < n;            \
                           ++q, k += step)                              \
                          OP)
    if (pass == SEP_ZERO) {
        EACH(new_sep[k] = 0.0);
    } else if (pass == SEP_SUM) {
        if (step == 1)
            WALK(sep, for (i64 m = 0; m < c; ++m)
                          sum += sum_range(new_sep, i_ + m * s,
                                           i_ + m * s + n));
        else
            EACH(sum += new_sep[k]);
    } else {
        EACH({
            double ns = new_sep[k] / total;
            ratio[k] = ns / (old[k] + (old[k] == 0.0 ? 1.0 : 0.0));
            out[k] = ns;
        });
    }
#undef EACH
    return sum;
}

struct case_ctx {
    const i64 *tables, *axes, *loops, *observed;
    i64 *words, *rows;
    const double *prior;
    double *arena;
};

/* A table's current copy: the arena once written, else the prior. */
static const double *current(const struct case_ctx *x, i64 t)
{
    const i64 *row = x->tables + t * FBNI_TABLE_STRIDE;
    return (x->words[t * FBNI_CASE_STRIDE + 1] & FBNI_WRITTEN
            ? x->arena : x->prior) + row[0];
}

/* Table t's loop against target table u (u < 0: a single total). */
static void table_loop(const struct case_ctx *x, i64 t, i64 u, i64 *dims,
                       loop_t *loop)
{
    const i64 *row = x->tables + t * FBNI_TABLE_STRIDE;
    const i64 *target = u < 0 ? NULL : x->tables + u * FBNI_TABLE_STRIDE;
    pin(x->axes + row[2] * FBNI_AXIS_STRIDE, row[3],
        target ? x->axes + target[2] * FBNI_AXIS_STRIDE : NULL,
        target ? target[3] : 0, x->observed, dims, loop);
}

/* Loop k of message e (0 src, 1 dst, 2 the separator), against the
 * separator. */
static loop_t message_loop(const struct case_ctx *x, const i64 *e, int k)
{
    i64 t = e[k < 2 ? 3 + k : 5], slot = e[6 + k] * FBNI_DIM_STRIDE;
    if (!(x->words[t * FBNI_CASE_STRIDE + 1] & FBNI_PINNED))
        return (loop_t){x->loops + slot + FBNI_DIM_STRIDE, x->loops[slot],
                        0, 0};
    i64 *head = x->rows + slot;
    loop_t loop = {head + FBNI_DIM_STRIDE, head[0], head[1], head[2]};
    if (head[0] < 0) {
        table_loop(x, t, e[5], head + FBNI_DIM_STRIDE, &loop);
        head[0] = loop.n;
        head[1] = loop.off;
        head[2] = loop.target_off;
    }
    return loop;
}

/* One message of a case; returns its total, adding the clique entries
 * it walked to *walked (a total <= 0: impossible evidence). */
static double case_message(const struct case_ctx *x, const i64 *e,
                           double *scratch, i64 *walked)
{
    loop_t src = message_loop(x, e, 0), dst = message_loop(x, e, 1),
           sep = message_loop(x, e, 2);
    i64 sep_size = x->tables[e[5] * FBNI_TABLE_STRIDE + 1];
    double *new_sep = scratch, *ratio = scratch + sep_size;
    sep_pass(SEP_ZERO, &sep, new_sep, NULL, NULL, NULL, 0.0);
    marginalize(&src, current(x, e[3]), new_sep);
    double total = sep_pass(SEP_SUM, &sep, new_sep, NULL, NULL, NULL, 0.0);
    if (!(total > 0.0))
        return total;
    sep_pass(SEP_UPDATE, &sep, new_sep, current(x, e[5]), ratio,
             x->arena + x->tables[e[5] * FBNI_TABLE_STRIDE], total);
    x->words[e[5] * FBNI_CASE_STRIDE + 1] |= FBNI_WRITTEN;
    /* A clique's first write is prior * ratio (a likelihood block for the
     * clique would be multiplied in here); later ones update in place. */
    absorb(&dst, x->arena + x->tables[e[4] * FBNI_TABLE_STRIDE],
           current(x, e[4]), ratio);
    x->words[e[4] * FBNI_CASE_STRIDE + 1] |= FBNI_WRITTEN;
    *walked += loop_entries(&src) + loop_entries(&dst);
    return total;
}

void fbni_infer_cases(const double *prior, i64 n_cliques, double *arena,
                      const i64 *meta, i64 n_messages, double *scratch,
                      const i64 *tables, i64 n_tables, const i64 *axes,
                      const i64 *loops, i64 *words,
                      const i64 *vars, i64 n_vars,
                      const i64 *evidence, i64 n_cases,
                      const i64 *reads, i64 n_reads, i64 root,
                      double *out, i64 out_entries, i64 *status)
{
    i64 *need = words + FBNI_CASE_STRIDE * n_tables;
    i64 dims[FBNI_MAX_AXES * FBNI_DIM_STRIDE];
    loop_t loop;
    struct case_ctx x = {tables, axes, loops, NULL, words,
                         need + n_messages, prior, arena};
    status[0] = status[1] = -1;
    status[2] = status[3] = status[4] = 0;
    for (i64 c = 0; c < n_cases; ++c) {
        x.observed = evidence + c * n_vars;
        i64 observed_cliques = 0;
        for (i64 t = 0; t < n_tables; ++t) {
            const i64 *row = tables + t * FBNI_TABLE_STRIDE;
            i64 *mine = words + FBNI_CASE_STRIDE * t;
            mine[0] = mine[1] = 0;
            for (i64 a = row[2]; a < row[2] + row[3]; ++a)
                if (x.observed[axes[a * FBNI_AXIS_STRIDE]] >= 0)
                    mine[1] = FBNI_PINNED;
            if (mine[1] && t < n_cliques)
                observed_cliques += mine[0] = 1;
        }
        for (i64 r = 0; r < n_reads; ++r)
            words[FBNI_CASE_STRIDE * vars[reads[2 * r] * FBNI_VAR_STRIDE]
                  + 1] |= FBNI_READ;
        select_messages(meta, n_messages, words, observed_cliques, need,
                        x.rows);
        double log_norm = 0.0;
        for (i64 m = 0; m < n_messages; ++m) {
            const i64 *e = meta + m * FBNI_META_STRIDE;
            status[3] += tables[e[3] * FBNI_TABLE_STRIDE + 1]
                         + tables[e[4] * FBNI_TABLE_STRIDE + 1];
            if (!need[m])
                continue;
            double total = case_message(&x, e, scratch, status + 2);
            if (!(total > 0.0))
                FAIL(c, m);
            if (e[0])
                log_norm += log(total);
            ++status[4];
        }
        double root_total = 0.0;
        table_loop(&x, root, -1, dims, &loop);
        marginalize(&loop, current(&x, root), &root_total);
        if (!(root_total > 0.0))
            FAIL(c, n_messages);
        double *row = out + c * (out_entries + 1);
        for (i64 r = 0; r < n_reads; ++r) {
            const i64 *var = vars + reads[2 * r] * FBNI_VAR_STRIDE;
            const i64 *table = tables + var[0] * FBNI_TABLE_STRIDE;
            const i64 target[FBNI_AXIS_STRIDE] = {reads[2 * r], 1, var[2]};
            double *marg = row + reads[2 * r + 1];
            fill_range(marg, 0.0, 0, var[2]);
            pin(axes + table[2] * FBNI_AXIS_STRIDE, table[3], target, 1,
                x.observed, dims, &loop);
            marginalize(&loop, current(&x, var[0]), marg);
            double total = sum_range(marg, 0, var[2]);
            if (!(total > 0.0) || isinf(total)) {
                row[out_entries] = total;
                FAIL(c, -(1 + r));
            }
            for (i64 d = 0; d < var[2]; ++d)
                marg[d] /= total;
        }
        row[out_entries] = log_norm + log(root_total);
    }
}

/* Pure-ALU spin used only by the parallel-headroom probe: two threads
 * calling this concurrently measure how much genuine parallelism the
 * machine can express through GIL-free ctypes calls (shared/stolen vCPUs
 * and single-core boxes show ~1.0x).  The result feeds the honest-skip
 * logic of the thread-scaling benchmark gate. */
double fbni_probe_spin(i64 n)
{
    double acc = 0.0;
    for (i64 i = 0; i < n; ++i)
        acc += (double)(i & 1023) * 1e-9;
    return acc;
}
"""

#: i64 words per message, variable, table, table axis, loop row and
#: per-case table, and the most axes a table may have (all mirror the
#: FBNI_* macros).
META_STRIDE, VAR_STRIDE, TABLE_STRIDE, AXIS_STRIDE, DIM_STRIDE = 9, 3, 6, 3, 3
CASE_STRIDE, MAX_AXES = 2, 64

#: The compiler flags of the shared object; part of its cache key.
CFLAGS = ("-O3", "-fPIC", "-shared")


def cache_dir() -> Path:
    """The compile-cache directory (see the module docstring)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "fastbni" / "native"


def find_compiler() -> str | None:
    """First usable C compiler on PATH, or ``None``."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def source_key(compiler: str) -> str:
    """Content-hash cache key: source text, compiler path and flags."""
    digest = hashlib.sha256()
    for part in (C_SOURCE, compiler, *CFLAGS):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _declare(lib: ctypes.CDLL) -> None:
    # Pointers are passed as raw addresses (ndarray.ctypes.data) to keep
    # per-call argument marshalling at integer cost.
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    lib.fbni_message.argtypes = [ptr, ptr, ptr, ptr, ptr, i64, i64, i64, ptr,
                                 ptr, i64, ptr, i64, ptr, i64]
    lib.fbni_message.restype = ctypes.c_double
    lib.fbni_message_batch.argtypes = [ptr, ptr, ptr, ptr, ptr,
                                       i64, i64, i64, i64, ptr, ptr]
    lib.fbni_message_batch.restype = i64
    lib.fbni_run_schedule.argtypes = [ptr, ptr, i64, ptr, ptr, ptr]
    lib.fbni_run_schedule.restype = ctypes.c_double
    lib.fbni_pinned_marginalize.argtypes = [ptr, ptr, i64, ptr, i64, ptr, ptr]
    lib.fbni_pinned_marginalize.restype = None
    lib.fbni_pinned_absorb.argtypes = [ptr, ptr, ptr, i64, ptr, i64, ptr, ptr]
    lib.fbni_pinned_absorb.restype = None
    lib.fbni_infer_cases.argtypes = [ptr, i64, ptr, ptr, i64, ptr,
                                     ptr, i64, ptr, ptr, ptr,
                                     ptr, i64, ptr, i64, ptr, i64, i64,
                                     ptr, i64, ptr]
    lib.fbni_infer_cases.restype = None
    lib.fbni_probe_spin.argtypes = [i64]
    lib.fbni_probe_spin.restype = ctypes.c_double


def load_library() -> tuple[ctypes.CDLL | None, Path | None, str | None]:
    """Compile (if needed) and load the kernel library.

    Returns ``(lib, so_path, None)`` on success, ``(None, None, reason)``
    on any failure — callers fall back to the fused backend and surface
    the reason.
    """
    if os.environ.get(DISABLE_ENV):
        return None, None, f"disabled via {DISABLE_ENV}"
    compiler = find_compiler()
    if compiler is None:
        return None, None, "no C compiler found on PATH (tried cc, gcc, clang)"
    directory = cache_dir()
    so_path = directory / f"fbni_kernels_{source_key(compiler)}.so"
    if not so_path.exists():
        try:
            directory.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=directory) as tmp:
                c_file = Path(tmp) / "fbni_kernels.c"
                c_file.write_text(C_SOURCE)
                tmp_so = Path(tmp) / "fbni_kernels.so"
                cmd = [compiler, *CFLAGS, "-o", str(tmp_so), str(c_file),
                       "-lm"]
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=120)
                if proc.returncode != 0:
                    detail = (proc.stderr or proc.stdout).strip()[:500]
                    return None, None, f"compile failed ({compiler}): {detail}"
                os.replace(tmp_so, so_path)
        except (OSError, subprocess.SubprocessError) as exc:
            return None, None, f"could not build native library: {exc}"
    try:
        lib = ctypes.CDLL(str(so_path))
        _declare(lib)
    except (OSError, AttributeError) as exc:
        return None, None, f"could not load {so_path}: {exc}"
    return lib, so_path, None


def probe_parallel_headroom(lib: ctypes.CDLL, threads: int = 2,
                            spin: int = 12_000_000, repeats: int = 5) -> float:
    """How much parallel speedup this machine can express right now.

    Runs ``threads`` concurrent GIL-free ``fbni_probe_spin`` calls against
    the same work executed serially (best-of-``repeats`` each, after a
    warm-up) and returns serial/parallel wall-clock.  ~``threads``x on a
    box with that many idle cores; ~1.0x on one core, and anywhere in
    between on shared/stolen vCPUs.  Gates (tests, ``check_bench``) use
    this to enforce the thread-scaling floor only where the hardware can
    express it, and to skip with an honest reason where it can't.
    """
    import threading
    import time

    fn = lib.fbni_probe_spin
    fn(spin)  # warm

    def serial() -> float:
        start = time.perf_counter()
        for _ in range(threads):
            fn(spin)
        return time.perf_counter() - start

    def parallel() -> float:
        workers = [threading.Thread(target=fn, args=(spin,))
                   for _ in range(threads)]
        start = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return time.perf_counter() - start

    serial(); parallel()  # warm both shapes
    best_serial = min(serial() for _ in range(repeats))
    best_parallel = min(parallel() for _ in range(repeats))
    return best_serial / best_parallel
