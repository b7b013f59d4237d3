"""Build and load the native message-kernel library.

The C source below is the whole library.  It has one message
formulation: a Hugin message (marginalize → normalize → ratio → absorb)
walks each of its three float64 tables as a strided loop over the
table's free axes, computing the paper's stride-triple index mapping as
the loop goes — no index map, no run list.  Three entry points run that
one message body: ``fbni_message`` (one message, its loop rows handed
in), ``fbni_run_schedule`` (a whole calibration of a plan-shaped arena,
nothing pinned) and ``fbni_infer_cases`` (whole cases from the
calibrated prior: one at a time with evidence pinning axes, or, for
blocks of :data:`BLOCK` cases on small plans, table-major with every
entry step :data:`BLOCK` cases wide).

It is compiled on first use with whatever C compiler the system
provides (``cc``/``gcc``/``clang``; :data:`CFLAGS`) into a shared
object cached under a **content-hash key** — the SHA-256 of the
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
 * One formulation: a junction-tree message walks each of its three
 * tables as a strided loop over the table's free axes (below), so no
 * index map and no run list is ever built.  A message marginalizes the
 * source clique onto the separator, normalizes it (scaled propagation),
 * divides by the old separator with the x/0 = 0 convention written as
 * new/(old + (old==0)) -- valid because separator zeros only ever grow
 * during propagation, so old==0 implies new==0 -- then absorbs the ratio
 * into the destination clique and overwrites the separator.  Matches
 * the Python `fused` backend to float64 round-off.
 *
 * Three entry points run messages: fbni_message (one message, the loop
 * rows handed in), fbni_run_schedule (a whole calibration over a plan's
 * arena, nothing pinned) and fbni_infer_cases (whole cases from the
 * calibrated prior, evidence pinning axes, or in table-major blocks
 * that run each message's loops FBNI_BLOCK cases wide: block_message,
 * the one message body's lane-wise twin).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t i64;

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

/* A plan's tables, FBNI_TABLE_STRIDE words each, cliques first, then
 * separators, in arena order:
 *
 *   [0] arena offset (entries) [1] size
 *   [2] first row in `axes`    [3] number of axes
 *
 * and its compiled schedule, FBNI_META_STRIDE words per message:
 *
 *   [0] upward flag            [1] src table id
 *   [2] dst table id           [3] sep table id
 *   [4]-[6] the slots of the message's loops (slot_loop, below)
 *
 * Tables are located by offset from an arena base, so one compiled
 * schedule serves every per-case arena. */
#define FBNI_TABLE_STRIDE 4
#define FBNI_META_STRIDE 7

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
 * variable v's state, or -1 (observed NULL: nothing pinned).  dims
 * receives the rows and must hold n_axes of them. */
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
        i64 state = observed ? observed[axis[0]] : -1;
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

/* The one message body.  src, dst and sep are the loops of the source
 * clique, the destination clique and the separator, each against the
 * separator.  The source is read from src_in, the old separator from
 * sep_old and the destination from dst_in; the new separator goes to
 * sep_out and dst_in * ratio to dst_out (each in place, or out of the
 * calibrated prior).  scratch holds 2 * sep_size doubles (new separator
 * + ratio).  Returns the message total; a total <= 0 signals impossible
 * evidence and leaves the destination and the separator untouched. */
static double message(const loop_t *src, const loop_t *dst, const loop_t *sep,
                      const double *src_in, const double *dst_in,
                      double *dst_out, const double *sep_old, double *sep_out,
                      i64 sep_size, double *scratch)
{
    double *new_sep = scratch, *ratio = scratch + sep_size;
    sep_pass(SEP_ZERO, sep, new_sep, NULL, NULL, NULL, 0.0);
    marginalize(src, src_in, new_sep);
    double total = sep_pass(SEP_SUM, sep, new_sep, NULL, NULL, NULL, 0.0);
    if (!(total > 0.0))
        return total;
    sep_pass(SEP_UPDATE, sep, new_sep, sep_old, ratio, sep_out, total);
    absorb(dst, dst_out, dst_in, ratio);
    return total;
}

/* One message over caller-held tables, each updated in place: rows holds
 * the loop rows of src (n_src of them), then dst's, then sep's, nothing
 * pinned (each n <= FBNI_MAX_AXES + 2). */
double fbni_message(const double *src, double *dst, double *sep,
                    const i64 *rows, i64 n_src, i64 n_dst, i64 n_sep,
                    i64 sep_size, double *scratch)
{
    loop_t s = {rows, n_src, 0, 0};
    loop_t d = {rows + n_src * FBNI_DIM_STRIDE, n_dst, 0, 0};
    loop_t p = {rows + (n_src + n_dst) * FBNI_DIM_STRIDE, n_sep, 0, 0};
    return message(&s, &d, &p, src, dst, dst, sep, sep, sep_size, scratch);
}

/* A message's three loops (its src and dst clique and its separator,
 * each against the separator) sit in a plan's loop table, a slot each,
 * named by words [4], [5], [6] of the message; the two messages of an
 * edge share its three slots.  A slot is a head row, (rows, 0, 0), then
 * the rows of the loop with nothing pinned, built when the plan is
 * lowered, in room for as many rows as its table has axes. */
static loop_t slot_loop(const i64 *loops, i64 slot)
{
    const i64 *head = loops + slot * FBNI_DIM_STRIDE;
    return (loop_t){head + FBNI_DIM_STRIDE, head[0], 0, 0};
}

/* The whole calibration of a plan-shaped arena as one foreign call:
 * every message in schedule order, nothing pinned, each table read and
 * updated in place.  Returns the accumulated log-normalisation constant
 * of the collect messages; status[0] receives -1, or the index of the
 * message whose total came up empty (impossible evidence). */
double fbni_run_schedule(double *arena, const i64 *meta, i64 n_messages,
                         double *scratch, const i64 *tables, const i64 *loops,
                         i64 *status)
{
    double log_norm = 0.0;
    for (i64 m = 0; m < n_messages; ++m) {
        const i64 *e = meta + m * FBNI_META_STRIDE;
        loop_t src = slot_loop(loops, e[4]), dst = slot_loop(loops, e[5]),
               sep = slot_loop(loops, e[6]);
        const i64 *s = tables + e[3] * FBNI_TABLE_STRIDE;
        double *d = arena + tables[e[2] * FBNI_TABLE_STRIDE];
        double total = message(&src, &dst, &sep,
                               arena + tables[e[1] * FBNI_TABLE_STRIDE], d, d,
                               arena + s[0], arena + s[0], s[1], scratch);
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

/* Whole cases in one foreign call.  Cases run case-major, one after the
 * other over one single-case scratch arena (so a case's tables stay
 * cache-resident), unless the caller hands in a block arena: then every
 * full block of FBNI_BLOCK cases runs table-major (below) and only the
 * cases left over run case-major.
 *
 * prior is the plan's arena after one no-evidence calibration, every
 * table normalised to sum 1 (clique C holds P(C), separator S P(S)).  A
 * message whose inputs the case leaves at the prior changes nothing, so
 * a case-major case runs only these: a collect message iff its child's
 * subtree holds an observed clique, a distribute message iff that
 * subtree holds a read clique and some observed clique lies outside it.
 * A skipped collect message's total is 1, so log P(e) is the sum of log
 * totals over the collect messages run plus the log of the root total.
 *
 * The prior is read in place: a table nobody has written in this case is
 * read from prior, the first separator update reads its old values
 * there, and the first absorb into a clique writes prior * ratio over
 * its free entries; from then on the arena copy is current.  Every loop
 * -- both clique loops and the three separator loops of a message, the
 * root total and the reads -- walks the table's free entries only.
 *
 * A table the case leaves unpinned is walked by its slot's loop.  When
 * the case's evidence pins it, pin() derives the loop from the axes
 * instead, once per case, into the case's copy of the slot, whose head
 * row then reads (rows, table offset, separator offset), or -1 rows
 * before the case derives it.  The root total's and the reads' loops
 * are derived per case.
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
 * its offset and, last, log P(e).  block, when not NULL, holds
 * FBNI_BLOCK doubles per arena entry and block_scratch FBNI_BLOCK times
 * the larger of 2 * (largest separator) and the largest cardinality
 * read.
 *
 * status[0] = -1 on success.  Otherwise the call stops at the first
 * failing case c with status[0] = c and status[1] = the index of the
 * message that came up empty, n_messages when the root total is zero
 * (both: impossible evidence, found before any read), or -(1 + r) when
 * read r could not be normalised, its total left in the row's last slot.
 * status[2] - [4] sum over the cases the clique entries the messages run
 * walked, those every message of the schedule would walk dense, and the
 * messages run; a table-major block runs every message dense, so it adds
 * the dense count to both and every message for each of its cases. */
#define FBNI_VAR_STRIDE 3
#define FBNI_CASE_STRIDE 2
#define FBNI_READ 1      /* the subtree a clique roots holds a read clique */
#define FBNI_PINNED 2    /* the case observes a variable of the table */
#define FBNI_WRITTEN 4   /* the arena copy is current, not the prior */
#define FAIL(c, why) do { status[0] = (c); status[1] = (why); return 0; } while (0)

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
            rows[e[4 + k] * FBNI_DIM_STRIDE] = -1;
        i64 *src = words + e[1] * FBNI_CASE_STRIDE;
        i64 *dst = words + e[2] * FBNI_CASE_STRIDE;
        if (e[0]) {
            need[m] = src[0] > 0;
            dst[0] += src[0];
            dst[1] |= src[1] & FBNI_READ;
        } else {
            need[m] = (dst[1] & FBNI_READ) && observed_cliques > dst[0];
        }
    }
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

/* Variable var's loop in its clique against its own marginal. */
static void read_loop(const struct case_ctx *x, i64 v, const i64 *var,
                      i64 *dims, loop_t *loop)
{
    const i64 *table = x->tables + var[0] * FBNI_TABLE_STRIDE;
    const i64 target[FBNI_AXIS_STRIDE] = {v, 1, var[2]};
    pin(x->axes + table[2] * FBNI_AXIS_STRIDE, table[3], target, 1,
        x->observed, dims, loop);
}

/* Loop k of message e (0 src, 1 dst, 2 the separator), against the
 * separator. */
static loop_t message_loop(const struct case_ctx *x, const i64 *e, int k)
{
    i64 t = e[1 + k];
    if (!(x->words[t * FBNI_CASE_STRIDE + 1] & FBNI_PINNED))
        return slot_loop(x->loops, e[4 + k]);
    i64 *head = x->rows + e[4 + k] * FBNI_DIM_STRIDE;
    loop_t loop = {head + FBNI_DIM_STRIDE, head[0], head[1], head[2]};
    if (head[0] < 0) {
        table_loop(x, t, e[3], head + FBNI_DIM_STRIDE, &loop);
        head[0] = loop.n;
        head[1] = loop.off;
        head[2] = loop.target_off;
    }
    return loop;
}

/* One message of a case; returns its total, adding the clique entries
 * it walked to *walked (a total <= 0: impossible evidence).  A clique's
 * first write is prior * ratio; later ones update in place. */
static double case_message(const struct case_ctx *x, const i64 *e,
                           double *scratch, i64 *walked)
{
    loop_t src = message_loop(x, e, 0), dst = message_loop(x, e, 1),
           sep = message_loop(x, e, 2);
    const i64 *s = x->tables + e[3] * FBNI_TABLE_STRIDE;
    double total = message(
        &src, &dst, &sep, current(x, e[1]), current(x, e[2]),
        x->arena + x->tables[e[2] * FBNI_TABLE_STRIDE], current(x, e[3]),
        x->arena + s[0], s[1], scratch);
    if (!(total > 0.0))
        return total;
    x->words[e[3] * FBNI_CASE_STRIDE + 1] |= FBNI_WRITTEN;
    x->words[e[2] * FBNI_CASE_STRIDE + 1] |= FBNI_WRITTEN;
    *walked += loop_entries(&src) + loop_entries(&dst);
    return total;
}

/* One call's arguments, shared by both bodies. */
struct call {
    struct case_ctx x;
    const i64 *meta, *vars, *evidence, *reads;
    i64 n_cliques, n_messages, n_tables, n_vars, n_reads, root, out_entries;
    double *scratch, *out, *block, *block_scratch;
    i64 *status;
};

/* Case c, case-major; 0 when it failed (status says why). */
static int case_major(struct call *call, i64 c)
{
    struct case_ctx *x = &call->x;
    const i64 *tables = x->tables, *axes = x->axes, *meta = call->meta;
    const i64 *vars = call->vars, *reads = call->reads;
    i64 *words = x->words, *status = call->status;
    i64 n_messages = call->n_messages, n_tables = call->n_tables;
    i64 *need = words + FBNI_CASE_STRIDE * n_tables;
    i64 dims[FBNI_MAX_AXES * FBNI_DIM_STRIDE];
    loop_t loop;
    x->observed = call->evidence + c * call->n_vars;
    i64 observed_cliques = 0;
    for (i64 t = 0; t < n_tables; ++t) {
        const i64 *row = tables + t * FBNI_TABLE_STRIDE;
        i64 *mine = words + FBNI_CASE_STRIDE * t;
        mine[0] = mine[1] = 0;
        for (i64 a = row[2]; a < row[2] + row[3]; ++a)
            if (x->observed[axes[a * FBNI_AXIS_STRIDE]] >= 0)
                mine[1] = FBNI_PINNED;
        if (mine[1] && t < call->n_cliques)
            observed_cliques += mine[0] = 1;
    }
    for (i64 r = 0; r < call->n_reads; ++r)
        words[FBNI_CASE_STRIDE * vars[reads[2 * r] * FBNI_VAR_STRIDE]
              + 1] |= FBNI_READ;
    select_messages(meta, n_messages, words, observed_cliques, need, x->rows);
    double log_norm = 0.0;
    for (i64 m = 0; m < n_messages; ++m) {
        const i64 *e = meta + m * FBNI_META_STRIDE;
        status[3] += tables[e[1] * FBNI_TABLE_STRIDE + 1]
                     + tables[e[2] * FBNI_TABLE_STRIDE + 1];
        if (!need[m])
            continue;
        double total = case_message(x, e, call->scratch, status + 2);
        if (!(total > 0.0))
            FAIL(c, m);
        if (e[0])
            log_norm += log(total);
        ++status[4];
    }
    double root_total = 0.0;
    table_loop(x, call->root, -1, dims, &loop);
    marginalize(&loop, current(x, call->root), &root_total);
    if (!(root_total > 0.0))
        FAIL(c, n_messages);
    double *row = call->out + c * (call->out_entries + 1);
    for (i64 r = 0; r < call->n_reads; ++r) {
        const i64 *var = vars + reads[2 * r] * FBNI_VAR_STRIDE;
        double *marg = row + reads[2 * r + 1];
        fill_range(marg, 0.0, 0, var[2]);
        read_loop(x, reads[2 * r], var, dims, &loop);
        marginalize(&loop, current(x, var[0]), marg);
        double total = sum_range(marg, 0, var[2]);
        if (!(total > 0.0) || isinf(total)) {
            row[call->out_entries] = total;
            FAIL(c, -(1 + r));
        }
        for (i64 d = 0; d < var[2]; ++d)
            marg[d] /= total;
    }
    row[call->out_entries] = log_norm + log(root_total);
    return 1;
}

/* Table-major blocks.  FBNI_BLOCK cases share one block arena laid out
 * entry-major, case-minor: entry e of the block's case k is
 * block[e * FBNI_BLOCK + k], so every entry step of a loop is an
 * FBNI_BLOCK-wide run (LANES) the compiler vectorises, and each message
 * of the schedule runs once for the block instead of once per case.  A
 * block starts from the calibrated prior, zeroes in each case's lane
 * the entries of its observed variables' home cliques that the finding
 * rules out, and runs every message dense over its slot loops (nothing
 * pinned); the root total, log P(e) and the reads are then per lane.
 * For one case a dense walk covers more entries than the pinned one, so
 * a block needs the case axis to pay; cases left over after the full
 * blocks run case-major. */
#define FBNI_BLOCK 16
#define LANES for (int k = 0; k < FBNI_BLOCK; ++k)

/* target[j] += table[i] over the loop, lane by lane. */
static void block_marginalize(const loop_t *loop,
                              const double *restrict table,
                              double *restrict target)
{
    i64 mid[FBNI_DIM_STRIDE], in[FBNI_DIM_STRIDE];
    inner_rows(loop, mid, in);
    const i64 c = mid[0], s = mid[1], t = mid[2], n = in[0];
    WALK(loop,
         for (i64 m = 0; m < c; ++m)
             for (i64 q = 0; q < n; ++q) {
                 const double *a = table
                     + (i_ + m * s + q * in[1]) * FBNI_BLOCK;
                 double *b = target + (j_ + m * t + q * in[2]) * FBNI_BLOCK;
                 LANES b[k] += a[k];
             });
}

/* table[i] *= ratio[j] over the loop, lane by lane. */
static void block_absorb(const loop_t *loop, double *restrict table,
                         const double *restrict ratio)
{
    i64 mid[FBNI_DIM_STRIDE], in[FBNI_DIM_STRIDE];
    inner_rows(loop, mid, in);
    const i64 c = mid[0], s = mid[1], t = mid[2], n = in[0];
    WALK(loop,
         for (i64 m = 0; m < c; ++m)
             for (i64 q = 0; q < n; ++q) {
                 double *a = table + (i_ + m * s + q * in[1]) * FBNI_BLOCK;
                 const double *r = ratio
                     + (j_ + m * t + q * in[2]) * FBNI_BLOCK;
                 LANES a[k] *= r[k];
             });
}

/* One message for the whole block, the message body of message() lane
 * by lane over the separator's sep_size entries; adds each lane's log
 * total to log_norm (unless NULL).  0 when a lane's total is empty,
 * leaving the block half-updated. */
static int block_message(const loop_t *src, const loop_t *dst,
                         const double *restrict src_t,
                         double *restrict dst_t, double *restrict sep,
                         i64 sep_size, double *restrict scratch,
                         double *log_norm)
{
    double *restrict new_sep = scratch;
    double *restrict ratio = scratch + sep_size * FBNI_BLOCK;
    double total[FBNI_BLOCK] = {0};
    int empty = 0;
    fill_range(new_sep, 0.0, 0, sep_size * FBNI_BLOCK);
    block_marginalize(src, src_t, new_sep);
    for (i64 j = 0; j < sep_size * FBNI_BLOCK; j += FBNI_BLOCK)
        LANES total[k] += new_sep[j + k];
    LANES empty |= !(total[k] > 0.0);
    if (empty)
        return 0;
    for (i64 j = 0; j < sep_size * FBNI_BLOCK; j += FBNI_BLOCK)
        LANES {
            double ns = new_sep[j + k] / total[k];
            double old = sep[j + k];
            ratio[j + k] = ns / (old + (old == 0.0 ? 1.0 : 0.0));
            sep[j + k] = ns;
        }
    block_absorb(dst, dst_t, ratio);
    if (log_norm)
        LANES log_norm[k] += log(total[k]);
    return 1;
}

/* The paper's reduction in lane k: zero the entries of table row where
 * variable v is not in state (nothing when the table has no axis of v). */
static void block_reduce(double *block, const i64 *row, const i64 *axes,
                         i64 v, i64 state, int k)
{
    for (i64 a = row[2]; a < row[2] + row[3]; ++a) {
        const i64 *axis = axes + a * FBNI_AXIS_STRIDE;
        if (axis[0] != v)
            continue;
        const i64 stride = axis[1], card = axis[2];
        for (i64 b = row[0]; b < row[0] + row[1]; b += stride * card)
            for (i64 d = 0; d < card; ++d)
                if (d != state)
                    for (i64 q = 0; q < stride; ++q)
                        block[(b + d * stride + q) * FBNI_BLOCK + k] = 0.0;
    }
}

/* Cases c .. c + FBNI_BLOCK - 1, table-major; 0 when any of them came
 * up empty (a message, the root or a read total), nothing in status
 * changed. */
static int table_major(struct call *call, i64 c)
{
    struct case_ctx *x = &call->x;
    const i64 *tables = x->tables, *meta = call->meta, *vars = call->vars;
    const i64 *reads = call->reads;
    double *block = call->block, *scratch = call->block_scratch;
    i64 dims[FBNI_MAX_AXES * FBNI_DIM_STRIDE];
    loop_t loop;
    for (i64 t = 0; t < call->n_tables; ++t) {
        const i64 *row = tables + t * FBNI_TABLE_STRIDE;
        for (i64 e = row[0]; e < row[0] + row[1]; ++e) {
            const double p = x->prior[e];
            LANES block[e * FBNI_BLOCK + k] = p;
        }
    }
    for (int k = 0; k < FBNI_BLOCK; ++k) {
        const i64 *observed = call->evidence + (c + k) * call->n_vars;
        for (i64 v = 0; v < call->n_vars; ++v)
            if (observed[v] >= 0)
                block_reduce(block,
                             tables + vars[v * FBNI_VAR_STRIDE]
                                      * FBNI_TABLE_STRIDE,
                             x->axes, v, observed[v], k);
    }
    double log_norm[FBNI_BLOCK] = {0}, root_total[FBNI_BLOCK] = {0};
    for (i64 m = 0; m < call->n_messages; ++m) {
        const i64 *e = meta + m * FBNI_META_STRIDE;
        loop_t src = slot_loop(x->loops, e[4]),
               dst = slot_loop(x->loops, e[5]);
        const i64 *s = tables + e[3] * FBNI_TABLE_STRIDE;
        if (!block_message(
                &src, &dst,
                block + tables[e[1] * FBNI_TABLE_STRIDE] * FBNI_BLOCK,
                block + tables[e[2] * FBNI_TABLE_STRIDE] * FBNI_BLOCK,
                block + s[0] * FBNI_BLOCK, s[1], scratch,
                e[0] ? log_norm : NULL))
            return 0;
    }
    x->observed = NULL;  /* the root total and the reads walk dense */
    table_loop(x, call->root, -1, dims, &loop);
    block_marginalize(&loop,
                      block + tables[call->root * FBNI_TABLE_STRIDE]
                              * FBNI_BLOCK,
                      root_total);
    int empty = 0;
    LANES empty |= !(root_total[k] > 0.0);
    if (empty)
        return 0;
    const i64 width = call->out_entries + 1;
    double *rows = call->out + c * width;
    for (i64 r = 0; r < call->n_reads; ++r) {
        const i64 *var = vars + reads[2 * r] * FBNI_VAR_STRIDE;
        const i64 card = var[2];
        fill_range(scratch, 0.0, 0, card * FBNI_BLOCK);
        read_loop(x, reads[2 * r], var, dims, &loop);
        block_marginalize(&loop,
                          block + tables[var[0] * FBNI_TABLE_STRIDE]
                                  * FBNI_BLOCK,
                          scratch);
        double total[FBNI_BLOCK] = {0};
        for (i64 d = 0; d < card; ++d)
            LANES total[k] += scratch[d * FBNI_BLOCK + k];
        LANES empty |= !(total[k] > 0.0) || isinf(total[k]);
        if (empty)
            return 0;
        for (int k = 0; k < FBNI_BLOCK; ++k) {
            double *marg = rows + k * width + reads[2 * r + 1];
            for (i64 d = 0; d < card; ++d)
                marg[d] = scratch[d * FBNI_BLOCK + k] / total[k];
        }
    }
    LANES rows[k * width + call->out_entries] = log_norm[k]
                                                + log(root_total[k]);
    return 1;
}

void fbni_infer_cases(const double *prior, i64 n_cliques, double *arena,
                      const i64 *meta, i64 n_messages, double *scratch,
                      const i64 *tables, i64 n_tables, const i64 *axes,
                      const i64 *loops, i64 *words,
                      const i64 *vars, i64 n_vars,
                      const i64 *evidence, i64 n_cases,
                      const i64 *reads, i64 n_reads, i64 root,
                      double *out, i64 out_entries, double *block,
                      double *block_scratch, i64 *status)
{
    i64 *need = words + FBNI_CASE_STRIDE * n_tables;
    struct call call = {
        {tables, axes, loops, NULL, words, need + n_messages, prior, arena},
        meta, vars, evidence, reads, n_cliques, n_messages, n_tables, n_vars,
        n_reads, root, out_entries, scratch, out, block, block_scratch,
        status};
    i64 dense = 0;
    for (i64 m = 0; m < n_messages; ++m) {
        const i64 *e = meta + m * FBNI_META_STRIDE;
        dense += tables[e[1] * FBNI_TABLE_STRIDE + 1]
                 + tables[e[2] * FBNI_TABLE_STRIDE + 1];
    }
    status[0] = status[1] = -1;
    status[2] = status[3] = status[4] = 0;
    i64 c = 0;
    for (; block && c + FBNI_BLOCK <= n_cases; c += FBNI_BLOCK) {
        if (table_major(&call, c)) {
            status[2] += FBNI_BLOCK * dense;
            status[3] += FBNI_BLOCK * dense;
            status[4] += FBNI_BLOCK * n_messages;
            continue;
        }
        /* Some case came up empty: find the lowest one case-major. */
        for (i64 d = c; d < c + FBNI_BLOCK; ++d)
            if (!case_major(&call, d))
                return;
    }
    for (; c < n_cases; ++c)
        if (!case_major(&call, c))
            return;
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
#: per-case table, the most axes a table may have and the cases of a
#: table-major block (all mirror the FBNI_* macros).
META_STRIDE, VAR_STRIDE, TABLE_STRIDE, AXIS_STRIDE, DIM_STRIDE = 7, 3, 4, 3, 3
CASE_STRIDE, MAX_AXES, BLOCK = 2, 64, 16

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
    lib.fbni_message.argtypes = [ptr, ptr, ptr, ptr, i64, i64, i64, i64, ptr]
    lib.fbni_message.restype = ctypes.c_double
    lib.fbni_run_schedule.argtypes = [ptr, ptr, i64, ptr, ptr, ptr, ptr]
    lib.fbni_run_schedule.restype = ctypes.c_double
    lib.fbni_pinned_marginalize.argtypes = [ptr, ptr, i64, ptr, i64, ptr, ptr]
    lib.fbni_pinned_marginalize.restype = None
    lib.fbni_pinned_absorb.argtypes = [ptr, ptr, ptr, i64, ptr, i64, ptr, ptr]
    lib.fbni_pinned_absorb.restype = None
    lib.fbni_infer_cases.argtypes = [ptr, i64, ptr, ptr, i64, ptr,
                                     ptr, i64, ptr, ptr, ptr,
                                     ptr, i64, ptr, i64, ptr, i64, i64,
                                     ptr, i64, ptr, ptr, ptr]
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
