"""Uplink massive-MIMO spectrum-sharing simulator.

Pipeline: build a candidate pool of per-timestep channel vectors (measured
capture or synthetic two-layer geometry), normalize it to a target average
SNR, schedule users (random / semi-orthogonal / layered-quota), and evaluate
zero-forcing SINR and spectral efficiency, with sweep harnesses over schedule
sizes and per-layer quotas.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless it is already
set: every matrix here is at most 64 x 64, where OpenBLAS spends more time
starting threads than computing. This takes effect only if numpy has not
been imported yet.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .csi import (
    CaptureError,
    CsiDataset,
    CsiRecord,
    FixedPointFormat,
    Layer,
    PoolPolicy,
    ScenarioConfig,
    encode_csi_binary,
    generate_synthetic,
    load_capture,
    load_csi_binary,
    merge_datasets,
    normalize_to_snr,
    subsample_pool,
)
from .sched import (
    SelectionError,
    SelectionMethod,
    SelectionResult,
    SusParams,
    random_select,
    sus_select,
    sus_select_layered,
)
from .sweeps import (
    SweepRow,
    SweepTable,
    find_peak,
    max_users_for_min_se,
    sweep_layer_grid,
    sweep_total_users,
)
from .zfmetrics import (
    IllConditionedError,
    SeReport,
    evaluate_selection,
    sinr,
    spectral_efficiency,
    sum_se,
    zf_combiner,
)

__version__ = "0.1.0"
