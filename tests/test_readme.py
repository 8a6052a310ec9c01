"""README's library examples run as written."""

import re
from pathlib import Path

import mimoshare as ms
from mimoshare.cli import main

README = Path(__file__).parent.parent / "README.md"
MINI_CFG = str(Path(__file__).parent / "data" / "mini_grid.cfg")


def python_examples() -> list[str]:
    """The ```python blocks of README, in order."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_the_library_example_runs(capsys):
    # it schedules, evaluates and sweeps the default pool, and asserts that a
    # table's SUS row holds the evaluation of the schedule sus_select returns
    namespace = {}
    exec(compile(python_examples()[0], "README.md", "exec"), namespace)
    assert len(namespace["table"]) == 64 * 21
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_the_capture_example_runs_on_generated_captures(tmp_path, monkeypatch):
    # the captures are the mini config's, in the directory the example reads
    assert main(["generate", "--config", MINI_CFG, "--out", str(tmp_path)]) == 0
    monkeypatch.chdir(tmp_path)
    namespace = {"ms": ms}  # imported by the first example
    exec(compile(python_examples()[1], "README.md", "exec"), namespace)
    assert namespace["pool"].layer_counts() == {ms.Layer.TERRESTRIAL: 36, ms.Layer.AERIAL: 28}
