"""mimoshare benchmark: time real CLI workloads, check their outputs, trace their layers.

Usage:
  python3 perfbench/run.py --workload {grid,total,capture,all} --seed N \\
      [--seconds S] [--trace 0|1]

--trace 0 (default) prints the end-to-end metrics of BENCHMARK.json: medians
over the workload runs and set-up children that fit in --seconds, the two
alternating (at least one of each). --trace 1 runs the workload once
untraced and once under perfbench/tracer.py, adds the per-call
microbenchmarks, and prints the per-layer metrics. Either way the outputs are checked, and the last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every check passed; a checkout without src/
exits 2 and prints no result. Run files (spans, results) go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from layers import layer_metrics
from workloads import (
    BENCH_DIR,
    OUT_ROOT,
    ROOT,
    SRC,
    WORKLOADS,
    child_env,
    cli_argv,
    git_sha,
    items_per_run,
    run_child,
    steps_for,
)

MAX_RUNS = 50
MAX_FAILURES_SHOWN = 12


@dataclass
class Invocation:
    """One run of a workload: its CLI children back to back."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)  # one record per traced command


def _run_json(script: str, args: list[str], env: dict) -> tuple[dict | list | None, float, str]:
    """Run a benchmark script as a child; its last stdout line is JSON."""
    result = run_child([sys.executable, str(BENCH_DIR / script), *args], env)
    if result.returncode != 0:
        return None, result.wall_s, (result.stderr.strip().splitlines() or ["no diagnostic"])[-1]
    return json.loads(result.stdout.strip().splitlines()[-1]), result.wall_s, ""


def _with_process_span(record: dict, result) -> dict:
    """Wrap a traced command's spans in the process span, spawn to exit as the parent saw it.

    Interpreter start before the tracer's first line and interpreter exit after
    its spans are written are the CLI process's own time, so they count as
    ``cli`` self time.
    """
    spans = [dict(s, parent=0 if s["parent"] is None else s["parent"] + 1)
             for s in record["spans"]]
    process = {"name": "cli.process", "layer": "cli", "start": result.started_at,
               "end": result.started_at + result.wall_s, "parent": None,
               "run": record["run"], "counts": {}}
    return dict(record, spans=[process, *spans])


def run_invocation(workload: str, seed: int, out: Path, env: dict,
                   spans_dir: Path | None = None) -> Invocation:
    inv = Invocation()
    for n, step in enumerate(steps_for(workload, seed, out)):
        argv = cli_argv(step)
        if spans_dir is not None:
            spans = spans_dir / f"{out.name}-{n}-{step.name}.json"
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans),
                    f"{workload}-{seed}-{step.name}", "--", *step.args]
        result = run_child(argv, env)
        if spans_dir is not None:
            if spans.exists():
                inv.spans.append(_with_process_span(json.loads(spans.read_text()), result))
            else:
                inv.failures.append(f"{step.name} wrote no spans")
        inv.wall_s += result.wall_s
        inv.cpu_s += result.cpu_s
        inv.peak_rss_mb = max(inv.peak_rss_mb, result.peak_rss_mb)
        if result.returncode != 0:
            last = (result.stderr.strip().splitlines() or ["no diagnostic"])[-1]
            inv.failures.append(f"{step.name} exited {result.returncode}: {last}")
            break
    return inv


class Gate:
    """Checks every run's outputs; a seed without reference digests gets the deep checks."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.reference = checks.reference_for(workload, seed)
        self.first_out: Path | None = None
        self.first_digests: dict | None = None

    def check(self, inv: Invocation, out: Path) -> None:
        if inv.failures:
            return
        try:
            digests = checks.output_digests(self.workload, out)
        except (OSError, KeyError, ValueError) as exc:
            inv.failures.append(f"missing or unreadable output: {exc}")
            return
        expected = self.reference or self.first_digests
        if expected is not None and digests != expected:
            source = "reference" if self.reference else "the first run"
            bad = sorted(k for k in digests if digests[k] != expected.get(k))
            inv.failures.append(f"{', '.join(bad)}: digest differs from {source}")
        if self.first_out is None:
            self.first_out, self.first_digests = out, digests

    def deep_check(self) -> list[str]:
        """Structural checks always; literal re-evaluation when the seed has no reference."""
        if self.first_out is None:
            return []
        try:
            failures = checks.structural_failures(self.workload, self.first_out)
        except (OSError, KeyError, ValueError) as exc:
            failures = [f"output check could not run: {exc}"]
        if self.reference is None:
            literal, _, err = _run_json(
                "checks.py", [self.workload, str(self.seed), str(self.first_out)], child_env())
            failures += [f"literal re-evaluation could not run: {err}"] if literal is None else literal
        return failures


def _environment(env_info: dict | None, loadavg: tuple[float, ...]) -> dict:
    """The child's view (nproc, versions, BLAS build and threads) plus the run's own."""
    info = dict(env_info or {})
    info["loadavg_at_start"] = loadavg
    info["git_sha"] = git_sha()
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "mimoshare").rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = src_digest.hexdigest()
    return info


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Untraced run: CLI runs and set-up children in turn for ``seconds``; end-to-end metrics.

    Alternating the two makes both sample the same stretch of host time, so a
    host that speeds up or slows down during the run moves them alike.
    """
    env = child_env()
    gate = Gate(workload, seed)
    failures: list[str] = []
    setup_walls, setups = [], []
    invocations: list[Invocation] = []
    start = time.perf_counter()
    while len(invocations) < MAX_RUNS:
        out = work / f"run-{len(invocations)}"
        inv = run_invocation(workload, seed, out, env)
        gate.check(inv, out)
        invocations.append(inv)
        if out != gate.first_out:
            shutil.rmtree(out, ignore_errors=True)
        setup, wall, err = _run_json("probe.py", ["setup", workload, str(seed)], env)
        setup_walls.append(wall)
        setups.append(setup)
        if setup is None:
            failures.append(f"set-up child failed: {err}")
        cycle = statistics.median(i.wall_s for i in invocations) + statistics.median(setup_walls)
        if time.perf_counter() - start + cycle > seconds:
            break
    invocations[0].failures.extend(gate.deep_check())
    setup_failed = len(failures)
    if gate.first_out is not None and workload != "capture":
        # set-up must build the very pool the sweep starts from
        recorded = json.loads((gate.first_out / "meta.json").read_text())["dataset_fingerprint"]
        for out in setups:
            if out is not None and out["pool_fingerprint"] != recorded:
                failures.append(f"set-up pool {out['pool_fingerprint']} != sweep pool {recorded}")
                setup_failed += 1
    failed = sum(1 for i in invocations if i.failures)
    failures += [f for i in invocations for f in i.failures]
    items = items_per_run(workload)
    metrics = {
        "wall_s": statistics.median(i.wall_s for i in invocations),
        "setup_s": statistics.median(setup_walls),
        "cpu_s": statistics.median(i.cpu_s for i in invocations),
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in invocations),
        "items_per_s": statistics.median(items / i.wall_s for i in invocations),
    }
    return {
        "attempted": len(invocations) + len(setups),
        "failed": failed + setup_failed,
        "failures": failures,
        "metrics": metrics,
        "samples": {"runs": len(invocations), "setups": len(setups)},
        "sample_values": {"wall_s": [i.wall_s for i in invocations], "setup_s": setup_walls},
    }


def trace(workload: str, seed: int, work: Path) -> dict:
    """One untraced and one traced run plus microbenchmarks; per-layer metrics."""
    env = child_env()
    gate = Gate(workload, seed)
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True)
    plain_out, traced_out = work / "plain", work / "traced"
    plain = run_invocation(workload, seed, plain_out, env)
    gate.check(plain, plain_out)
    traced = run_invocation(workload, seed, traced_out, env, spans_dir=spans_dir)
    gate.check(traced, traced_out)
    plain.failures.extend(gate.deep_check())

    npy = work / "sus_k64_channels.npy"
    micro, _, err = _run_json("probe.py", ["micro", str(seed), str(npy)], env)
    micro_one, _, err_one = _run_json("probe.py", ["micro", str(seed), str(npy), "--k64-only"],
                                   child_env(blas_threads="1"))
    micro_failures = [f"microbenchmark child failed: {e}" for e in (err, err_one) if e]

    span_files = traced.spans
    metrics = layer_metrics(span_files)
    metrics["cli.bytes_out"] = _dir_bytes(traced_out) if traced_out.exists() else 0
    metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    if micro and micro_one:
        metrics["sched.sus_pick_us"] = micro.pop("sus_pick_us")
        metrics.update({f"zfmetrics.{k}": v for k, v in micro.items()})
        metrics["zfmetrics.blas_thread_cost"] = (
            micro["zf_combiner_k64_us"] / micro_one["zf_combiner_k64_us"])
    spans_out = OUT_ROOT / f"spans-{workload}-seed{seed}.json"
    spans_out.write_text(json.dumps(span_files))
    failures = plain.failures + traced.failures + micro_failures
    return {
        "attempted": 4,
        "failed": sum(1 for i in (plain, traced) if i.failures) + len(micro_failures),
        "failures": failures,
        "metrics": metrics,
        "samples": {"untraced_runs": 1, "traced_runs": 1},
        "spans_file": str(spans_out.relative_to(ROOT)),
    }


def run_one(workload: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    work = OUT_ROOT / f"work-{workload}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    loadavg = os.getloadavg()
    env_info, _, _ = _run_json("probe.py", ["env"], child_env())
    try:
        result = trace(workload, seed, work) if traced else measure(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    missing = [name for name in declared if name not in result["metrics"]]
    if missing:
        result["failures"].append(f"metrics not measured: {', '.join(missing)}")
        result["failed"] += 1
    # a workload outside BENCHMARK.json also reports its undeclared metrics (csi stage times)
    extra = {} if workload in {w["name"] for w in spec["workloads"]} else {
        name: "s" for name in result["metrics"] if name not in declared}
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in {**declared, **extra}.items() if name in result["metrics"]
    }
    result["error_rate"] = result["failed"] / result["attempted"]
    if checks.reference_for(workload, seed) is None:
        result["warnings"] = [f"seed {seed} has no reference digests: outputs get the "
                              "structural and literal checks only"]
    result["environment"] = _environment(env_info, loadavg)
    result.update({"workload": workload, "seed": seed, "trace": int(traced)})
    (OUT_ROOT / f"result-{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def _report(result: dict) -> None:
    samples = ", ".join(f"{v} {k}" for k, v in result["samples"].items())
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} ({samples})")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':32s} {result['error_rate']:>14.6g} "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    for warning in result.get("warnings", []):
        print(f"  WARNING: {warning}")
    for failure in result["failures"][:MAX_FAILURES_SHOWN]:
        print(f"  FAILED: {failure}")
    if len(result["failures"]) > MAX_FAILURES_SHOWN:
        print(f"  ... {len(result['failures']) - MAX_FAILURES_SHOWN} more failed checks")
    print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")


def main() -> int:
    parser = argparse.ArgumentParser(description="mimoshare CLI benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mimoshare" / "cli.py").is_file():
        print(f"error: no mimoshare sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        results.append(run_one(workload, args.seed, seconds, bool(args.trace), spec))
        _report(results[-1])
    prefix = len(results) > 1
    summary = {
        "correct": all(not r["failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): metric
            for r in results for name, metric in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
