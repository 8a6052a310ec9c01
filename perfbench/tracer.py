"""Run one mimoshare CLI command with spans recorded at the public call boundaries.

Usage: python3 perfbench/tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...

Spans are recorded from this file only: it wraps the public functions that
``mimoshare.cli`` and ``mimoshare.sweeps`` import from the other modules, plus
the public methods ``CsiDataset.fingerprint`` and ``SweepTable.csv_text``.
The program itself is not changed. Attribution therefore follows the public
call boundary: code that stops calling a wrapped public function moves its
time into the caller's self time.

A span is (name, layer, start, end, parent, run id, counts). Spans stay in
memory and are written once, when the command ends. The root span
``cli.main`` starts before mimoshare is imported, so import time is the
CLI's own; the benchmark wraps it in a ``cli.process`` span, spawn to exit.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# module name -> layer that owns it
LAYER_OF_MODULE = {
    "mimoshare.csi": "csi",
    "mimoshare.sched": "sched",
    "mimoshare.zfmetrics": "zfmetrics",
    "mimoshare.sweeps": "sweeps",
}
COMPLEX_BYTES = 16


class Recorder:
    """Holds the spans of one traced command and the stack of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = [
            {"name": "cli.main", "layer": "cli", "start": _T0, "end": None, "parent": None,
             "run": run_id, "counts": {}}
        ]
        self.stack = [0]

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer, "start": None, "end": None,
                    "parent": self.stack[-1], "run": self.run_id, "counts": {}}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["end"] = time.perf_counter()
                span["counts"] = {"error": type(exc).__name__}
                raise
            finally:
                self.stack.pop()
            span["end"] = time.perf_counter()
            span["counts"] = _counts(layer, name, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        self.spans[0]["end"] = time.perf_counter()
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


def _dataset_bytes(ds) -> int:
    return len(ds) * ds.m_antennas * COMPLEX_BYTES


def _counts(layer: str, name: str, args: tuple, result) -> dict:
    """Work counts read from a call's arguments and result (never from program internals)."""
    if layer == "sched":
        return {"users": len(result.chosen), "fallback": result.fallback_used_from is not None}
    if layer == "zfmetrics":
        pool = args[0] if args else None
        return {"users": len(result.per_user_se), "m": getattr(pool, "m_antennas", 0)}
    if layer == "sweeps" and hasattr(result, "rows"):
        return {"rows": len(result.rows)}
    if layer == "csi":
        counts = {"bytes": 0}
        if isinstance(result, (bytes, bytearray)):
            counts["bytes"] = len(result)
        elif hasattr(result, "m_antennas") and hasattr(result, "records"):
            counts["bytes"] = _dataset_bytes(result)
            if name in ("generate_synthetic", "load_csi_binary", "load_capture"):
                counts["records"] = len(result)
        if name == "fingerprint":
            counts["bytes"] = _dataset_bytes(args[0])
        if name in ("load_csi_binary", "load_capture") and args:
            counts["bytes"] += os.path.getsize(args[0])
        return counts
    return {}


def _wrap_imported_names(recorder: Recorder, module) -> None:
    """Wrap every function ``module`` imported from another traced mimoshare module."""
    for attr, obj in list(vars(module).items()):
        owner = getattr(obj, "__module__", None)
        if owner == module.__name__ or owner not in LAYER_OF_MODULE:
            continue
        if callable(obj) and not isinstance(obj, type) and hasattr(obj, "__code__"):
            setattr(module, attr, recorder.wrap(LAYER_OF_MODULE[owner], attr, obj))


def install(recorder: Recorder) -> None:
    import mimoshare.cli as cli
    import mimoshare.csi as csi
    import mimoshare.sweeps as sweeps

    _wrap_imported_names(recorder, cli)
    _wrap_imported_names(recorder, sweeps)
    csi.CsiDataset.fingerprint = recorder.wrap("csi", "fingerprint", csi.CsiDataset.fingerprint)
    sweeps.SweepTable.csv_text = recorder.wrap("sweeps", "csv_text", sweeps.SweepTable.csv_text)


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    recorder = Recorder(run_id)
    install(recorder)
    from mimoshare.cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
