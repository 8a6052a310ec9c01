import os
import subprocess
import sys

import pytest

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PROBE = "import os, mimoshare; print(os.environ['OPENBLAS_NUM_THREADS'])"


def openblas_threads_after_import(preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_defaults_openblas_to_one_thread_unless_set(preset, expected):
    assert openblas_threads_after_import(preset) == expected
