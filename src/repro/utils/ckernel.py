"""Compiled kernels of the two tight loops NumPy cannot batch well.

Two entry points share one small C library:

* ``scan_merge`` — the scan-order merge walk of the inference engine
  (see :mod:`repro.inference.engine.speculative`): a data-dependent
  loop, per position a handful of multiply-adds over the claim's
  evidence rows, that the interpreter dominates on dense corpora.
* ``trust_signals`` — the coupling sums of the CRF's indirect relation
  (:meth:`repro.crf.model.CrfModel.trust_signals`) for every row of a
  K×n block of marginals.  Per row it accumulates ``A_s`` over the pair
  rows in row order (what ``np.bincount`` does) and then
  ``2·B·(A_s − own)/max(n_s, 1)`` per claim in row order (what
  ``np.add.at`` does).  It uses only + − × ÷; the logistic and the entropies stay in
  NumPy, so the ``exp``/``log`` they call does not change.

The library is compiled with whatever C compiler the host already has
(``cc``/``gcc``/``clang``), once per process by whichever thread asks
first, loaded via :mod:`ctypes`, and its build directory is removed
immediately (the mapping survives on POSIX).  No third-party dependency
is introduced.  Calls release the GIL and touch only the arrays they are
given, so concurrent callers need no lock.

Bit-for-bit contract: the kernels perform the same float64 operations in
the same order as their NumPy/Python twins — ``scan_merge`` recomputes
the logistic with the two-branch stable form backed by libm's ``exp``
(the function CPython's ``math.exp`` wraps), and the build passes
``-ffp-contract=off`` so the compiler cannot fuse multiply-adds into
differently-rounded FMAs.  ``tests/test_engine.py`` and
``tests/test_meanfield_block.py`` assert the equivalence.

Any build failure caches ``None``: callers fall back to their NumPy or
Python paths, which give identical results.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

static double sigmoid_stable(double value)
{
    if (value >= 0.0)
        return 1.0 / (1.0 + exp(-value));
    double exp_value = exp(value);
    return exp_value / (1.0 + exp_value);
}

int64_t scan_merge(
    int64_t n,
    const int64_t *order,
    const double *thresholds,
    const double *logits,
    const double *tentative,
    const uint8_t *flip,
    double two_gamma,
    const int64_t *row_ptr,
    const int64_t *col,
    const double *coef,
    const double *stance,
    double *spins,
    double *dstats)
{
    int64_t changed = 0;
    for (int64_t position = 0; position < n; position++) {
        int64_t j = order[position];
        int64_t row_start = row_ptr[j], row_end = row_ptr[j + 1];
        double correction = 0.0;
        for (int64_t row = row_start; row < row_end; row++)
            correction += coef[row] * dstats[col[row]];
        double old_spin = spins[j];
        double new_spin;
        if (correction == 0.0) {
            if (!flip[j])
                continue;
            new_spin = tentative[j];
        } else {
            double probability =
                sigmoid_stable(logits[j] + two_gamma * correction);
            new_spin = thresholds[j] < probability ? 1.0 : -1.0;
            if (new_spin == old_spin)
                continue;
        }
        double delta = new_spin - old_spin;
        for (int64_t row = row_start; row < row_end; row++)
            dstats[col[row]] += stance[row] * delta;
        spins[j] = new_spin;
        changed++;
    }
    return changed;
}

/* Trust signals of every row of a K x n block of marginals over
   `num_pairs` pair rows in pair-table order: claim, compact source id,
   stance B and max(n_s, 1) per row.  `stats` is caller-owned scratch of
   `num_sources` slots; `signals` is K x n and zero on entry.  A claim's
   terms are summed in a register while its rows run, which adds them in
   the same order as accumulating in memory. */
void trust_signals(
    int64_t num_rows,
    int64_t n,
    int64_t num_pairs,
    int64_t num_sources,
    const int64_t *claim,
    const int64_t *source,
    const double *stance,
    const double *denom,
    const double *probabilities,
    double *stats,
    double *signals)
{
    for (int64_t k = 0; k < num_rows; k++) {
        const double *p = probabilities + k * n;
        double *out = signals + k * n;
        for (int64_t s = 0; s < num_sources; s++)
            stats[s] = 0.0;
        for (int64_t i = 0; i < num_pairs; i++)
            stats[source[i]] += stance[i] * (2.0 * p[claim[i]] - 1.0);
        int64_t current = -1;
        double sum = 0.0;
        for (int64_t i = 0; i < num_pairs; i++) {
            int64_t c = claim[i];
            double excluded =
                stats[source[i]] - stance[i] * (2.0 * p[c] - 1.0);
            double term = 2.0 * stance[i] * excluded / denom[i];
            if (c != current) {
                if (current >= 0)
                    out[current] = sum;
                current = c;
                sum = out[c];
            }
            sum += term;
        }
        if (current >= 0)
            out[current] = sum;
    }
}
"""


class Kernel(NamedTuple):
    """The loaded library's entry points."""

    scan_merge: Callable[..., int]
    trust_signals: Callable[..., None]


_UNSET = object()
_KERNEL = _UNSET
_BUILD_LOCK = threading.Lock()


def load_kernel() -> Optional[Kernel]:
    """The compiled entry points, or ``None``.

    Compiled at most once per process, by whichever thread asks first;
    every failure mode (no compiler, compile error, unloadable library)
    caches ``None`` so callers fall back to their uncompiled paths.
    """
    global _KERNEL
    if _KERNEL is _UNSET:
        with _BUILD_LOCK:
            if _KERNEL is _UNSET:
                _KERNEL = _build()
    return _KERNEL


def kernel_loaded() -> bool:
    """Whether this process has the compiled kernel loaded.

    Does not build it: ``False`` until the first caller that needs the
    kernel has asked for it, and ``False`` for good when that build
    failed and the uncompiled paths run instead.
    """
    return _KERNEL is not _UNSET and _KERNEL is not None


def _build() -> Optional[Kernel]:
    compiler = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if compiler is None:
        return None
    build_dir = tempfile.mkdtemp(prefix="repro-kernel-")
    try:
        source_path = os.path.join(build_dir, "kernel.c")
        library_path = os.path.join(build_dir, "kernel.so")
        with open(source_path, "w") as handle:
            handle.write(_SOURCE)
        subprocess.run(
            [
                compiler, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
                "-o", library_path, source_path, "-lm",
            ],
            check=True,
            capture_output=True,
        )
        library = ctypes.CDLL(library_path)
        scan_merge = library.scan_merge
        scan_merge.restype = ctypes.c_longlong
        scan_merge.argtypes = (
            [ctypes.c_longlong]
            + [ctypes.c_void_p] * 5
            + [ctypes.c_double]
            + [ctypes.c_void_p] * 6
        )
        trust_signals = library.trust_signals
        trust_signals.restype = None
        trust_signals.argtypes = (
            [ctypes.c_longlong] * 4 + [ctypes.c_void_p] * 7
        )
        return Kernel(scan_merge, trust_signals)
    except Exception:
        return None
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)


def run_scan_merge(
    kernel: Kernel,
    order: np.ndarray,
    thresholds: np.ndarray,
    logits: np.ndarray,
    tentative: np.ndarray,
    flip: np.ndarray,
    two_gamma: float,
    row_ptr: np.ndarray,
    col: np.ndarray,
    coef: np.ndarray,
    stance: np.ndarray,
    spins_free: np.ndarray,
    dstats: np.ndarray,
) -> int:
    """Invoke ``scan_merge``; mutates ``spins_free``/``dstats`` in place.

    Callers guarantee C-contiguous arrays of the declared dtypes
    (int64 index arrays, float64 value arrays, uint8 flags).
    """
    return int(
        kernel.scan_merge(
            order.size,
            order.ctypes.data,
            thresholds.ctypes.data,
            logits.ctypes.data,
            tentative.ctypes.data,
            flip.ctypes.data,
            two_gamma,
            row_ptr.ctypes.data,
            col.ctypes.data,
            coef.ctypes.data,
            stance.ctypes.data,
            spins_free.ctypes.data,
            dstats.ctypes.data,
        )
    )


def kernel_addresses(
    arrays: Sequence[np.ndarray], dtypes: Sequence[type]
) -> Tuple[int, ...]:
    """Data addresses of arrays the kernel may read, after checking that
    each is a C-contiguous buffer of its ``dtype``.

    The caller keeps the arrays alive, and unchanged in place, for as
    long as it passes the addresses.
    """
    addresses = []
    for array, dtype in zip(arrays, dtypes):
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise ValueError(
                f"kernel arrays must be C-contiguous {np.dtype(dtype).name}, "
                f"got {array.dtype} (contiguous={array.flags.c_contiguous})"
            )
        addresses.append(array.__array_interface__["data"][0])
    return tuple(addresses)


def run_trust_signals(
    kernel: Kernel,
    pairs: Tuple[int, ...],
    num_pairs: int,
    num_sources: int,
    probabilities: np.ndarray,
) -> np.ndarray:
    """Invoke ``trust_signals`` on a K×n block; returns a new K×n block.

    ``pairs`` are the :func:`kernel_addresses` of the claim, compact
    source (int64), stance and denominator (float64) arrays of
    ``num_pairs`` pair rows — a :class:`~repro.crf.model.CouplingPairs`'s
    ``addresses``.  Its claim indices must be below ``n`` and its source
    ids below ``num_sources``, which the structure it was gathered from
    guarantees.  The scratch and the output are allocated per call.
    """
    if probabilities.dtype != np.float64 or not probabilities.flags.c_contiguous:
        raise ValueError("the block must be a C-contiguous float64 array")
    num_rows, n = probabilities.shape
    signals = np.zeros((num_rows, n))
    stats = np.empty(num_sources)
    kernel.trust_signals(
        num_rows, n, num_pairs, num_sources, *pairs,
        probabilities.__array_interface__["data"][0],
        stats.__array_interface__["data"][0],
        signals.__array_interface__["data"][0],
    )
    return signals
