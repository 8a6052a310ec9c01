"""Workload definitions and the child-process runner shared by every benchmark script.

Each workload is a sequence of real ``mimoshare`` CLI invocations, run one
child process at a time from the checkout's ``src/`` tree. The child
environment drops every BLAS/OpenMP thread variable, so the program runs with
the thread count a user's shell gives it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".perfbench_out"

# Default scenario: 2 layers x 28,321 samples, 8x8 array, 36/28 pool, 20 dB.
RECORDS_PER_DATASET = 56_642
POOL = (36, 28)  # (terrestrial, aerial) candidate-pool sizes
SNR_DB = 20.0
# Every third quota of the CLI's default ranges 0:36 x 0:28, both ends kept, so
# the grid spans the same quotas (and fallback share) as the full one in a
# seventh of its rows; a run short enough to repeat within --seconds.
GRID_GROUND = tuple(range(0, POOL[0] + 1, 3))
GRID_AERIAL = (*range(0, POOL[1], 3), POOL[1])
GRID_ROWS = len(GRID_GROUND) * len(GRID_AERIAL) - 1  # every cell except (0, 0)
TOTAL_K = 64
TOTAL_TRIALS = 4
TOTAL_ROWS = TOTAL_K * TOTAL_TRIALS + TOTAL_K  # random trials plus one SUS row per k

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

WORKLOADS = ("grid", "total", "capture")


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload."""

    name: str
    args: tuple[str, ...]


def steps_for(workload: str, seed: int, out: Path) -> list[Step]:
    """The CLI invocations of one workload run, writing under ``out``."""
    s = str(seed)
    if workload == "grid":
        return [
            Step(
                "sweep-grid",
                ("sweep-grid", "--ground-range", ",".join(map(str, GRID_GROUND)),
                 "--aerial-range", ",".join(map(str, GRID_AERIAL)), "--seed", s,
                 "--out", str(out)),
            )
        ]
    if workload == "total":
        return [
            Step(
                "sweep-total",
                ("sweep-total", "--k-range", f"1:{TOTAL_K}", "--trials", str(TOTAL_TRIALS),
                 "--seed", s, "--out", str(out)),
            )
        ]
    if workload == "capture":
        cap = out / "capture"
        bins = f"{cap / 'terrestrial.bin'},{cap / 'aerial.bin'}"
        return [
            Step("generate", ("generate", "--seed", s, "--out", str(cap))),
            Step("ingest", ("ingest", "--csi", bins, "--seed", s, "--out", str(out / "ingest"))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def items_per_run(workload: str) -> int:
    """Sweep rows written, or for capture records encoded plus records decoded."""
    return {"grid": GRID_ROWS, "total": TOTAL_ROWS, "capture": 2 * RECORDS_PER_DATASET}[workload]


def child_env(blas_threads: str | None = None) -> dict[str, str]:
    """Environment for a program child: the checkout's src/ first, no thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    started_at: float  # perf_counter just before spawn
    wall_s: float
    cpu_s: float  # user + sys of the child, from wait4
    peak_rss_mb: float  # ru_maxrss of the child
    stdout: str
    stderr: str


def run_child(argv: list[str], env: dict[str, str], timeout_s: float = 170.0) -> ChildResult:
    """Run one child to completion and return its wall time and rusage.

    Output goes to files, not pipes, so the child never blocks on a full pipe
    while the parent waits in wait4.
    """
    OUT_ROOT.mkdir(exist_ok=True)
    out_path = OUT_ROOT / f".child-{os.getpid()}.out"
    err_path = OUT_ROOT / f".child-{os.getpid()}.err"
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    out_path.unlink()
    err_path.unlink()
    return ChildResult(
        returncode=proc.returncode,
        started_at=start,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


def cli_argv(step: Step) -> list[str]:
    return [sys.executable, "-m", "mimoshare.cli", *step.args]


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return head.stdout.strip()
