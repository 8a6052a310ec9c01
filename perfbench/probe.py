"""Child-process probes of the benchmark: environment, set-up, and per-call microbenchmarks.

Usage:
  python3 perfbench/probe.py env
  python3 perfbench/probe.py setup WORKLOAD SEED
  python3 perfbench/probe.py micro SEED CHANNELS_NPY [--k64-only]

Each prints one JSON object on stdout. The parent times ``setup`` from spawn
to exit, so interpreter start and imports count as set-up.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from workloads import POOL, SNR_DB

MICRO_KS = (8, 32, 64)
BATCHES = 9
BATCH_TARGET_S = 0.02


def _openblas_threads(numpy) -> int | None:
    """Thread count numpy's bundled OpenBLAS reports, or None if it cannot be asked."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _env() -> dict:
    import mimoshare  # noqa: F401  (first, as in the CLI: it may set thread variables)
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in sorted(os.environ)
                       if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "openblas_threads_effective": _openblas_threads(numpy),
    }


def _default_pool(seed: int, subsample: bool = True):
    import mimoshare.cli  # noqa: F401  (set-up covers importing the CLI)
    from mimoshare import ScenarioConfig, generate_synthetic, normalize_to_snr, subsample_pool

    dataset = normalize_to_snr(generate_synthetic(ScenarioConfig(seed=seed)), SNR_DB)
    return subsample_pool(dataset, POOL, seed=seed) if subsample else dataset


def _setup(workload: str, seed: int) -> dict:
    """Build the in-memory dataset the workload's first CLI step starts from."""
    data = _default_pool(seed, subsample=workload != "capture")
    result = {"records": len(data)}
    if workload != "capture":
        result["pool_fingerprint"] = data.fingerprint()
    return result


def _per_call_us(fn) -> float:
    """Median over batches of the per-call time, batch size chosen to last ~20 ms."""
    fn()
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    n = max(1, int(BATCH_TARGET_S / once))
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples) * 1e6


def _micro(seed: int, channels_path: str, k64_only: bool) -> dict:
    # mimoshare first, as in the CLI, so a thread setting it makes reaches BLAS
    from mimoshare import sinr, sus_select, zf_combiner

    import numpy as np

    if k64_only:
        channels = np.load(channels_path)
        return {"zf_combiner_k64_us": _per_call_us(lambda: zf_combiner(channels))}
    pool = _default_pool(seed)
    schedule = sus_select(pool, 64)
    channels = pool.channels_for(schedule.chosen)
    np.save(channels_path, channels)
    result = {"sus_pick_us": _per_call_us(lambda: sus_select(pool, 1))}
    for k in MICRO_KS:
        sub = np.ascontiguousarray(channels[:k])
        result[f"zf_combiner_k{k}_us"] = _per_call_us(lambda: zf_combiner(sub))
    combiner = zf_combiner(channels)
    result["sinr_k64_us"] = _per_call_us(
        lambda: sinr(combiner, channels, 1.0, pool.noise_power)
    )
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["env"]:
        out = _env()
    elif argv[:1] == ["setup"] and len(argv) == 3:
        out = _setup(argv[1], int(argv[2]))
    elif argv[:1] == ["micro"] and len(argv) in (3, 4):
        out = _micro(int(argv[1]), argv[2], argv[3:] == ["--k64-only"])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
