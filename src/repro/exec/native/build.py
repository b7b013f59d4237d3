"""Build and load the native message-kernel library.

The C source below is the whole library: one function executing a full
Hugin message (marginalize → normalize → ratio → absorb) over contiguous
float64 tables through precomputed int64 index maps, its batched
table-major variant, the compiled-schedule runners built on it, and the
whole-case entry point (``fbni_infer_cases``: evidence reduction, the
schedule, posterior reads and log P(e) for a block of cases in one call).
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
 * The optional run lists ([start, end) int64 pairs) skip stretches of
 * the source/destination tables whose CPT-product base entries are zero:
 * a zero contributes nothing to a marginal and stays zero under the
 * multiply-only updates calibration performs, so both loops may jump
 * over them.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t i64;

static void marg_range(const double *src, const i64 *map, double *acc,
                       i64 lo, i64 hi)
{
    for (i64 i = lo; i < hi; ++i)
        acc[map[i]] += src[i];
}

static void absorb_range(double *dst, const double *ratio, const i64 *map,
                         i64 lo, i64 hi)
{
    for (i64 i = lo; i < hi; ++i)
        dst[i] *= ratio[map[i]];
}

/* scratch must hold 2 * sep_size doubles (new separator + ratio).
 * Returns the message total; a total <= 0 signals impossible evidence
 * and leaves dst/sep untouched. */
double fbni_message(const double *src, double *dst, double *sep,
                    const i64 *m_marg, const i64 *m_abs,
                    i64 src_size, i64 dst_size, i64 sep_size,
                    double *scratch,
                    const i64 *src_runs, i64 n_src_runs,
                    const i64 *dst_runs, i64 n_dst_runs)
{
    double *new_sep = scratch;
    double *ratio = scratch + sep_size;
    memset(new_sep, 0, (size_t)sep_size * sizeof(double));
    if (src_runs) {
        for (i64 r = 0; r < n_src_runs; ++r)
            marg_range(src, m_marg, new_sep,
                       src_runs[2 * r], src_runs[2 * r + 1]);
    } else {
        marg_range(src, m_marg, new_sep, 0, src_size);
    }
    double total = 0.0;
    for (i64 j = 0; j < sep_size; ++j)
        total += new_sep[j];
    if (!(total > 0.0))
        return total;
    for (i64 j = 0; j < sep_size; ++j) {
        double ns = new_sep[j] / total;
        double old = sep[j];
        ratio[j] = ns / (old + (old == 0.0 ? 1.0 : 0.0));
        sep[j] = ns;
    }
    if (dst_runs) {
        for (i64 r = 0; r < n_dst_runs; ++r)
            absorb_range(dst, ratio, m_abs,
                         dst_runs[2 * r], dst_runs[2 * r + 1]);
    } else {
        absorb_range(dst, ratio, m_abs, 0, dst_size);
    }
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
                                    scratch, 0, 0, 0, 0);
        totals[c] = total;
        if (!(total > 0.0))
            return c;
    }
    return -1;
}

/* The whole calibration as one foreign call: the compiled schedule is
 * handed over as a flat i64 metadata table, FBNI_META_STRIDE words per
 * message:
 *
 *   [0] upward flag            [1] src arena offset (entries)
 *   [2] dst arena offset       [3] sep arena offset
 *   [4] src size               [5] dst size
 *   [6] sep size               [7] marginalize-map address
 *   [8] absorb-map address     [9] src nonzero-runs address (0 = dense)
 *   [10] src run count         [11] dst nonzero-runs address (0 = dense)
 *   [12] dst run count
 *
 * Map/run addresses are raw pointers to int64 arrays the caller keeps
 * alive; table operands are located by offset from the state's arena
 * base, so one compiled schedule serves every per-case arena.  Returns
 * the accumulated log-normalisation constant of the collect phase;
 * status[0] receives -1, or the index of the message whose total came
 * up empty (impossible evidence). */
#define FBNI_META_STRIDE 13

double fbni_run_schedule(double *arena, const i64 *meta, i64 n_messages,
                         double *scratch, i64 *status)
{
    double log_norm = 0.0;
    for (i64 m = 0; m < n_messages; ++m) {
        const i64 *e = meta + m * FBNI_META_STRIDE;
        double total = fbni_message(
            arena + e[1], arena + e[2], arena + e[3],
            (const i64 *)(uintptr_t)e[7], (const i64 *)(uintptr_t)e[8],
            e[4], e[5], e[6], scratch,
            (const i64 *)(uintptr_t)e[9], e[10],
            (const i64 *)(uintptr_t)e[11], e[12]);
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

/* Calibrate many caller-held single-case arenas in one foreign call,
 * used by thread-dispatched case chunks so each worker
 * spends milliseconds GIL-free instead of re-entering the interpreter
 * per case.  arena_addrs holds the raw base address of each case's
 * arena; log_norms[c] receives case c's collect-phase constant.  On an
 * empty message, status[0] = failing case index, status[1] = failing
 * message index and the remaining cases are left uncalibrated. */
void fbni_run_schedules(const i64 *arena_addrs, i64 n_arenas,
                        const i64 *meta, i64 n_messages,
                        double *scratch, double *log_norms, i64 *status)
{
    for (i64 c = 0; c < n_arenas; ++c) {
        i64 bad = -1;
        log_norms[c] = fbni_run_schedule((double *)(uintptr_t)arena_addrs[c],
                                         meta, n_messages, scratch, &bad);
        if (bad >= 0) {
            status[0] = c;
            status[1] = bad;
            return;
        }
    }
    status[0] = -1;
    status[1] = -1;
}

/* Whole cases in one foreign call: evidence reduction, the compiled
 * schedule, the posterior reads and log P(e), case after case over one
 * single-case scratch arena (so a case's tables and index maps stay
 * cache-resident and a block of cases needs no more memory than one).
 *
 * Variables are described by FBNI_VAR_STRIDE i64 words each:
 *
 *   [0] arena offset of the variable's clique   [1] that clique's size
 *   [2] the variable's stride in the clique     [3] its cardinality
 *
 * so entry i of the clique holds state (i / stride) % cardinality of the
 * variable: the clique is size / (stride * cardinality) blocks of
 * `cardinality` runs of `stride` contiguous entries, which is all that
 * reduction and marginalization onto one variable need.
 *
 * evidence is (n_cases, n_vars) row-major, a state index or -1 per
 * variable; reads holds n_reads (variable id, offset into the output
 * row) pairs; out is (n_cases, out_entries + 1): row c receives each
 * read's normalised marginal at its offset and, in its last slot,
 * log P(e) of case c (-inf when the calibrated root is empty).
 *
 * status[0] = -1 on success.  Otherwise the call stops at the first
 * failing case c with status[0] = c and status[1] = the index of the
 * message that came up empty (impossible evidence), or -(1 + r) when
 * read r could not be normalised, its total left in the row's last
 * slot. */
#define FBNI_VAR_STRIDE 4

static void reduce_var(double *table, const i64 *var, i64 state)
{
    i64 size = var[1], stride = var[2], block = var[2] * var[3];
    for (i64 o = 0; o < size; o += block) {
        memset(table + o, 0, (size_t)(state * stride) * sizeof(double));
        memset(table + o + (state + 1) * stride, 0,
               (size_t)(block - (state + 1) * stride) * sizeof(double));
    }
}

static double marginal_var(const double *table, const i64 *var, double *marg)
{
    i64 size = var[1], stride = var[2], card = var[3];
    for (i64 d = 0; d < card; ++d)
        marg[d] = 0.0;
    for (i64 o = 0; o < size; o += stride * card)
        for (i64 d = 0; d < card; ++d) {
            const double *run = table + o + d * stride;
            double acc = 0.0;
            for (i64 j = 0; j < stride; ++j)
                acc += run[j];
            marg[d] += acc;
        }
    double total = 0.0;
    for (i64 d = 0; d < card; ++d)
        total += marg[d];
    return total;
}

void fbni_infer_cases(const double *base, i64 clique_entries,
                      double *arena, i64 arena_entries,
                      const i64 *meta, i64 n_messages, double *scratch,
                      const i64 *vars, i64 n_vars,
                      const i64 *evidence, i64 n_cases,
                      const i64 *reads, i64 n_reads,
                      i64 root_offset, i64 root_size,
                      double *out, i64 out_entries, i64 *status)
{
    for (i64 c = 0; c < n_cases; ++c) {
        memcpy(arena, base, (size_t)clique_entries * sizeof(double));
        for (i64 i = clique_entries; i < arena_entries; ++i)
            arena[i] = 1.0;
        const i64 *observed = evidence + c * n_vars;
        for (i64 v = 0; v < n_vars; ++v)
            if (observed[v] >= 0) {
                const i64 *var = vars + v * FBNI_VAR_STRIDE;
                reduce_var(arena + var[0], var, observed[v]);
            }
        i64 bad = -1;
        double log_norm = fbni_run_schedule(arena, meta, n_messages,
                                            scratch, &bad);
        if (bad >= 0) {
            status[0] = c;
            status[1] = bad;
            return;
        }
        double *row = out + c * (out_entries + 1);
        for (i64 r = 0; r < n_reads; ++r) {
            const i64 *var = vars + reads[2 * r] * FBNI_VAR_STRIDE;
            double *marg = row + reads[2 * r + 1];
            double total = marginal_var(arena + var[0], var, marg);
            if (!(total > 0.0) || isinf(total)) {
                row[out_entries] = total;
                status[0] = c;
                status[1] = -(1 + r);
                return;
            }
            for (i64 d = 0; d < var[3]; ++d)
                marg[d] /= total;
        }
        double root_total = 0.0;
        for (i64 i = 0; i < root_size; ++i)
            root_total += arena[root_offset + i];
        row[out_entries] = root_total > 0.0 ? log_norm + log(root_total)
                                            : -INFINITY;
    }
    status[0] = -1;
    status[1] = -1;
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

#: i64 words of schedule metadata per message (mirrors FBNI_META_STRIDE).
META_STRIDE = 13
#: i64 words of geometry per variable (mirrors FBNI_VAR_STRIDE).
VAR_STRIDE = 4


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
    lib.fbni_message.argtypes = [ptr, ptr, ptr, ptr, ptr,
                                 i64, i64, i64, ptr, ptr, i64, ptr, i64]
    lib.fbni_message.restype = ctypes.c_double
    lib.fbni_message_batch.argtypes = [ptr, ptr, ptr, ptr, ptr,
                                       i64, i64, i64, i64, ptr, ptr]
    lib.fbni_message_batch.restype = i64
    lib.fbni_run_schedule.argtypes = [ptr, ptr, i64, ptr, ptr]
    lib.fbni_run_schedule.restype = ctypes.c_double
    lib.fbni_run_schedules.argtypes = [ptr, i64, ptr, i64, ptr, ptr, ptr]
    lib.fbni_run_schedules.restype = None
    lib.fbni_infer_cases.argtypes = [ptr, i64, ptr, i64, ptr, i64, ptr,
                                     ptr, i64, ptr, i64, ptr, i64, i64, i64,
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
