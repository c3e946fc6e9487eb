"""Compiled scan-merge kernel of the engine's merge walk.

The scan-order merge walk (see :mod:`.speculative`) is a tight
data-dependent loop — per position a handful of multiply-adds over the
claim's evidence rows — that the interpreter dominates on dense corpora.
This module compiles the identical loop to native code with whatever C
compiler the host already has (``cc``/``gcc``/``clang``), loads it via
:mod:`ctypes`, and removes the build directory immediately (the mapping
survives on POSIX).  No third-party dependency is introduced.

Bit-for-bit contract: the kernel performs the same float64 operations in
the same order as the Python walk — the correction accumulates row by
row, the recomputed logistic uses the two-branch stable form backed by
libm's ``exp`` (the same function CPython's ``math.exp`` wraps), and the
build passes ``-ffp-contract=off`` so the compiler cannot fuse the
multiply-adds into differently-rounded FMAs.  ``tests/test_engine.py``
asserts the equivalence empirically.

Any build failure degrades silently to the Python walk.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import threading

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
"""

_UNSET = object()
_KERNEL = _UNSET
_BUILD_LOCK = threading.Lock()


def load_kernel():
    """The compiled ``scan_merge`` entry point, or ``None``.

    Compiled at most once per process, by whichever thread asks first;
    every failure mode (no compiler, compile error, unloadable library)
    caches ``None`` so callers fall back to the Python walk.
    """
    global _KERNEL
    if _KERNEL is _UNSET:
        with _BUILD_LOCK:
            if _KERNEL is _UNSET:
                _KERNEL = _build()
    return _KERNEL


def _build():
    compiler = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if compiler is None:
        return None
    build_dir = tempfile.mkdtemp(prefix="repro-scan-merge-")
    try:
        source_path = os.path.join(build_dir, "scan_merge.c")
        library_path = os.path.join(build_dir, "scan_merge.so")
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
        kernel = library.scan_merge
        kernel.restype = ctypes.c_longlong
        kernel.argtypes = (
            [ctypes.c_longlong]
            + [ctypes.c_void_p] * 5
            + [ctypes.c_double]
            + [ctypes.c_void_p] * 6
        )
        return kernel
    except Exception:
        return None
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)


def run_scan_merge(
    kernel,
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
    """Invoke the kernel; mutates ``spins_free``/``dstats`` in place.

    Callers guarantee C-contiguous arrays of the declared dtypes
    (int64 index arrays, float64 value arrays, uint8 flags).
    """
    return int(
        kernel(
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
