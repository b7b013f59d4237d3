"""Build and load the native message-kernel library.

The C source below is the whole library: one function executing a full
Hugin message (marginalize → normalize → ratio → absorb) over contiguous
float64 tables through precomputed int64 index maps, its batched
table-major variant, the compiled-schedule runner built on it, and the
whole-case entry point (``fbni_infer_cases``: per-case evidence run
lists, the schedule over them, posterior reads and log P(e) for a block
of cases in one call).
It is compiled on first use with whatever C compiler
the system provides (``cc``/``gcc``/``clang``; ``-O3 -fPIC -shared``) into
a shared object cached under a **content-hash key** — the SHA-256 of the
source text plus the compiler path — so a source or toolchain change can
never pick up a stale binary, and repeat runs (including separate worker
processes) just ``dlopen`` the cached file.

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
 * stretches of a table a loop need visit.  Two sources, one format:
 * entries whose CPT-product base is zero (a zero contributes nothing to
 * a marginal and stays zero under the multiply-only updates calibration
 * performs), and, on the whole-case path, entries the case's evidence
 * rules out: they are never initialised, read or written, in any table
 * that holds an observed variable (a finding is a 0/1 factor, so
 * applying it in all of them gives the distribution applying it in one
 * does).
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

static double sum_range(const double *values, i64 lo, i64 hi)
{
    double total = 0.0;
    for (i64 i = lo; i < hi; ++i)
        total += values[i];
    return total;
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
 *   [6] entries those runs cover (= size when dense)
 *
 * and the compiled schedule, FBNI_META_STRIDE words per message:
 *
 *   [0] upward flag            [1] marginalize-map address
 *   [2] absorb-map address     [3] src table id
 *   [4] dst table id           [5] sep table id
 *
 * Map/run addresses are raw pointers to int64 arrays the caller keeps
 * alive; table operands are located by offset from the state's arena
 * base, so one compiled schedule serves every per-case arena.  A table
 * is walked through words [4]-[6] of its row, or, when walks is given,
 * through the 3 words it holds per table instead (same meaning);
 * visited, when given, grows by the clique entries the messages walked
 * ([0]) and would have walked with no run list ([1]).  Returns the
 * accumulated log-normalisation constant of the collect phase;
 * status[0] receives -1, or the index of the message whose total came
 * up empty (impossible evidence). */
#define FBNI_TABLE_STRIDE 7
#define FBNI_META_STRIDE 6

double fbni_run_schedule(double *arena, const i64 *meta, i64 n_messages,
                         double *scratch, const i64 *tables,
                         const i64 *walks, i64 *visited, i64 *status)
{
    double log_norm = 0.0;
    for (i64 m = 0; m < n_messages; ++m) {
        const i64 *e = meta + m * FBNI_META_STRIDE;
        const i64 *t[3], *w[3];  /* src, dst, sep: table row and walk */
        for (int k = 0; k < 3; ++k) {
            t[k] = tables + e[3 + k] * FBNI_TABLE_STRIDE;
            w[k] = walks ? walks + e[3 + k] * 3 : t[k] + 4;
        }
        double total = fbni_message(
            arena + t[0][0], arena + t[1][0], arena + t[2][0],
            (const i64 *)(uintptr_t)e[1], (const i64 *)(uintptr_t)e[2],
            t[0][1], t[1][1], t[2][1], scratch,
            (const i64 *)(uintptr_t)w[0][0], w[0][1],
            (const i64 *)(uintptr_t)w[1][0], w[1][1],
            (const i64 *)(uintptr_t)w[2][0], w[2][1]);
        if (!(total > 0.0)) {
            status[0] = m;
            return 0.0;
        }
        if (e[0])
            log_norm += log(total);
        if (visited) {
            visited[0] += w[0][2] + w[1][2];
            visited[1] += t[0][1] + t[1][1];
        }
    }
    status[0] = -1;
    return log_norm;
}

/* The runs of a table one case's evidence leaves possible.
 *
 * axes holds the table's n_axes axes outermost first, FBNI_AXIS_STRIDE
 * words each: [0] variable id, [1] stride, [2] cardinality; the strides
 * tile the table row-major.  observed[v] is variable v's state, or -1.
 * An axis is pinned when its variable is observed and has more than one
 * state (a one-state variable constrains nothing).  The consistent
 * entries are runs as long as the innermost pinned axis' stride, one
 * per joint state of the free axes outside it: a mixed-radix odometer
 * over those emits them in increasing order, at a cost proportional to
 * runs, not entries.  clip, when given, is an increasing run list to
 * intersect with: the two lists advance together and only the overlaps
 * are written.
 *
 * Writes [start, end) pairs to out and returns their number; -1 when
 * no axis is pinned (nothing written: the table is as dense as clip
 * says); FBNI_RUNS_FULL rather than exceed out's capacity (in words).
 * Runs are disjoint, non-empty and consistent, and a pinned axis leaves
 * at most half a table consistent, so 2 * runs <= table size: a word
 * per arena entry holds the lists of every table of a case. */
#define FBNI_AXIS_STRIDE 3
#define FBNI_MAX_AXES 64
#define FBNI_RUNS_FULL INT64_MIN

i64 fbni_evidence_runs(const i64 *axes, i64 n_axes, const i64 *observed,
                       const i64 *clip, i64 n_clip, i64 *out, i64 capacity)
{
    i64 card[FBNI_MAX_AXES], stride[FBNI_MAX_AXES], digit[FBNI_MAX_AXES];
    i64 start = 0, length = 0, depth = 0, pending = 0;
    for (i64 a = 0; a < n_axes; ++a) {
        const i64 *axis = axes + a * FBNI_AXIS_STRIDE;
        if (axis[2] > 1 && observed[axis[0]] >= 0) {
            start += observed[axis[0]] * axis[1];
            length = axis[1];
            depth += pending;  /* free axes so far lie outside this one */
            pending = 0;
        } else if (axis[2] > 1) {
            stride[depth + pending] = axis[1];
            card[depth + pending] = axis[2];
            digit[depth + pending] = 0;
            ++pending;
        }
    }
    if (length == 0)
        return -1;
    static const i64 everything[2] = {0, INT64_MAX};
    if (!clip) {
        clip = everything;
        n_clip = 1;
    }
    i64 n = 0, k = 0;
    for (;;) {
        i64 end = start + length;
        for (; k < n_clip && clip[2 * k] < end; ++k) {
            i64 lo = clip[2 * k] > start ? clip[2 * k] : start;
            i64 hi = clip[2 * k + 1] < end ? clip[2 * k + 1] : end;
            if (lo < hi) {
                if (2 * n + 2 > capacity)
                    return FBNI_RUNS_FULL;
                out[2 * n] = lo;
                out[2 * n + 1] = hi;
                ++n;
            }
            if (clip[2 * k + 1] > end)
                break;  /* this clip run reaches into the next one */
        }
        i64 d = depth - 1;
        for (; d >= 0; --d) {
            if (++digit[d] < card[d]) {
                start += stride[d];
                break;
            }
            start -= (card[d] - 1) * stride[d];
            digit[d] = 0;
        }
        if (d < 0)
            return n;
    }
}

/* Whole cases in one foreign call: the evidence run lists, the base
 * copy, the compiled schedule, the posterior reads and log P(e), case
 * after case over one single-case scratch arena (so a case's tables and
 * index maps stay cache-resident and a block of cases needs no more
 * memory than one).
 *
 * Per case and per table (cliques and separators alike)
 * fbni_evidence_runs lists the consistent entries, clipped to the
 * clique's nonzero runs, and the base copy, every loop of every
 * message, the reads and the root total walk those lists.  A table with
 * no observed variable keeps its static list, or none: the dense loops.
 *
 * Variables are FBNI_VAR_STRIDE words each: [0] the table id of the
 * variable's clique, [1] its stride there, [2] its cardinality, so that
 * the clique is size / (stride * cardinality) blocks of `cardinality`
 * segments of `stride` contiguous entries, one state per segment.
 *
 * runs is run_words of scratch: 3 words per table (the case's list
 * address, run count and entries covered), then the lists themselves.
 * evidence is (n_cases, n_vars) row-major, a state index or -1 per
 * variable; reads holds n_reads (variable id, offset into the output
 * row) pairs; out is (n_cases, out_entries + 1): row c receives each
 * read's normalised marginal at its offset and, in its last slot,
 * log P(e) of case c (-inf when the calibrated root is empty).
 *
 * status[0] = -1 on success.  Otherwise the call stops at the first
 * failing case c with status[0] = c and status[1] = the index of the
 * message that came up empty (impossible evidence), -(1 + r) when read
 * r could not be normalised, its total left in the row's last slot, or
 * FBNI_RUNS_FULL when the run scratch is too small.  status[2] and [3]
 * count the clique entries the messages walked, and would have walked
 * with no run list at all. */
#define FBNI_VAR_STRIDE 3
#define FAIL(c, why) do { status[0] = (c); status[1] = (why); return; } while (0)

static double marginal_var(const double *table, i64 size, i64 stride, i64 card,
                           double *marg, const i64 *runs, i64 n_runs)
{
    for (i64 d = 0; d < card; ++d)
        marg[d] = 0.0;
    if (!runs) {
        for (i64 o = 0; o < size; o += stride * card)
            for (i64 d = 0; d < card; ++d)
                marg[d] += sum_range(table, o + d * stride,
                                     o + (d + 1) * stride);
        return sum_range(marg, 0, card);
    }
    /* Segment [seg_end - stride, seg_end) holds state d; runs increase,
     * so the segment only ever steps forward. */
    i64 seg_end = stride, d = 0;
    for (i64 r = 0; r < n_runs; ++r) {
        i64 i = runs[2 * r], hi = runs[2 * r + 1];
        while (i < hi) {
            while (i >= seg_end) {
                seg_end += stride;
                if (++d == card)
                    d = 0;
            }
            i64 stop = seg_end < hi ? seg_end : hi;
            marg[d] += sum_range(table, i, stop);
            i = stop;
        }
    }
    return sum_range(marg, 0, card);
}

/* Arena entries [lo, hi) as a case finds them: cliques at their CPT
 * products, separators at one.  A run of a table at a time, or a whole
 * stretch of tables the case's evidence leaves alone. */
static void init_entries(double *arena, const double *base, i64 lo, i64 hi,
                         i64 clique_entries)
{
    i64 mid = hi < clique_entries ? hi : clique_entries;
    if (lo < mid)
        memcpy(arena + lo, base + lo, (size_t)(mid - lo) * sizeof(double));
    fill_range(arena, 1.0, lo > mid ? lo : mid, hi);
}

void fbni_infer_cases(const double *base, i64 clique_entries,
                      double *arena, i64 arena_entries,
                      const i64 *meta, i64 n_messages, double *scratch,
                      const i64 *tables, i64 n_tables,
                      const i64 *axes, i64 *runs, i64 run_words,
                      const i64 *vars, i64 n_vars,
                      const i64 *evidence, i64 n_cases,
                      const i64 *reads, i64 n_reads, i64 root,
                      double *out, i64 out_entries, i64 *status)
{
    i64 *lists = runs + 3 * n_tables, capacity = run_words - 3 * n_tables;
    status[0] = status[1] = -1;
    status[2] = status[3] = 0;
    for (i64 c = 0; c < n_cases; ++c) {
        const i64 *observed = evidence + c * n_vars;
        i64 used = 0, whole = 0;
        for (i64 t = 0; t < n_tables; ++t) {
            const i64 *row = tables + t * FBNI_TABLE_STRIDE;
            i64 *mine = runs + 3 * t;
            i64 n = fbni_evidence_runs(
                axes + row[2] * FBNI_AXIS_STRIDE, row[3], observed,
                (const i64 *)(uintptr_t)row[4], row[5],
                lists + used, capacity - used);
            if (n == FBNI_RUNS_FULL)
                FAIL(c, FBNI_RUNS_FULL);
            if (n < 0) {  /* left alone: its static list, a whole init */
                memcpy(mine, row + 4, 3 * sizeof(i64));
                continue;
            }
            const i64 *list = lists + used;
            used += 2 * n;
            mine[0] = (i64)(uintptr_t)list;
            mine[1] = n;
            mine[2] = 0;
            init_entries(arena, base, whole, row[0], clique_entries);
            whole = row[0] + row[1];
            for (i64 r = 0; r < n; ++r) {
                mine[2] += list[2 * r + 1] - list[2 * r];
                init_entries(arena, base, row[0] + list[2 * r],
                             row[0] + list[2 * r + 1], clique_entries);
            }
        }
        init_entries(arena, base, whole, arena_entries, clique_entries);
        i64 bad = -1;
        double log_norm = fbni_run_schedule(arena, meta, n_messages, scratch,
                                            tables, runs, status + 2, &bad);
        if (bad >= 0)
            FAIL(c, bad);
        double *row = out + c * (out_entries + 1);
        for (i64 r = 0; r < n_reads; ++r) {
            const i64 *var = vars + reads[2 * r] * FBNI_VAR_STRIDE;
            const i64 *table = tables + var[0] * FBNI_TABLE_STRIDE;
            const i64 *mine = runs + 3 * var[0];
            double *marg = row + reads[2 * r + 1];
            double total = marginal_var(arena + table[0], table[1], var[1],
                                        var[2], marg,
                                        (const i64 *)(uintptr_t)mine[0],
                                        mine[1]);
            if (!(total > 0.0) || isinf(total)) {
                row[out_entries] = total;
                FAIL(c, -(1 + r));
            }
            for (i64 d = 0; d < var[2]; ++d)
                marg[d] /= total;
        }
        const i64 *table = tables + root * FBNI_TABLE_STRIDE;
        const i64 *mine = runs + 3 * root;
        double root_total = 0.0;
        OVER((const i64 *)(uintptr_t)mine[0], mine[1], table[1],
             root_total += sum_range(arena + table[0], lo, hi));
        row[out_entries] = root_total > 0.0 ? log_norm + log(root_total)
                                            : -INFINITY;
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

#: i64 words per message, variable, table and table axis; the most axes a
#: table may have; ``fbni_evidence_runs`` / ``status[1]`` when the run
#: scratch is too small (all mirror the FBNI_* macros).
META_STRIDE, VAR_STRIDE, TABLE_STRIDE, AXIS_STRIDE = 6, 3, 7, 3
MAX_AXES, RUNS_FULL = 64, -2**63


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
    """Content-hash cache key: source text + compiler path."""
    digest = hashlib.sha256()
    digest.update(C_SOURCE.encode())
    digest.update(b"\0")
    digest.update(compiler.encode())
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
    lib.fbni_run_schedule.argtypes = [ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr]
    lib.fbni_run_schedule.restype = ctypes.c_double
    lib.fbni_evidence_runs.argtypes = [ptr, i64, ptr, ptr, i64, ptr, i64]
    lib.fbni_evidence_runs.restype = i64
    lib.fbni_infer_cases.argtypes = [ptr, i64, ptr, i64, ptr, i64, ptr,
                                     ptr, i64, ptr, ptr, i64,
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
                cmd = [compiler, "-O3", "-fPIC", "-shared",
                       "-o", str(tmp_so), str(c_file), "-lm"]
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
