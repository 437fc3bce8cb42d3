"""The environment a benchmark result was measured in."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

import numpy as np
import scipy

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MEASUREMENT_NOTE = ("the benchmark pins no CPU and controls neither frequency nor caches; "
                    "on shared cores other tenants' load shows up in the timings, and "
                    "medians over many calls only dampen it")


def _openblas():
    """(configuration string, runtime thread count) of numpy's bundled OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            get_threads = lib.scipy_openblas_get_num_threads64_
            get_config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return get_config().decode(), get_threads()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}", None


def _git_revision(root: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_hash(src: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "nsp_lab", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def environment(root: str, src: str) -> dict:
    config, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads_runtime": threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_revision": _git_revision(root),
        "source_sha256": _source_hash(src),
        "note": MEASUREMENT_NOTE,
    }
