"""The determinism contract for committed records (docs/ROBUSTNESS.md).

Within one environment every run is bit-identical: modes, worker counts and
resumes are compared with exact ``==`` in-session by the parity suites.
Across environments the floating-point path may differ in the last bits:
OpenBLAS builds with DYNAMIC_ARCH pick their kernels by CPU, and a GEMM
rounds differently at different BLAS thread counts.  A committed record is
therefore checked in two parts:

* :func:`assert_within_record`: losses within :data:`LOSS_RTOL`,
  accuracies exact, in any environment;
* :func:`assert_record_digests`: sha256 digests, enforced only when the
  record's environment fingerprint equals :func:`environment_fingerprint`
  (otherwise the test skips and names both fingerprints).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

import numpy as np
import pytest
import scipy

LOSS_RTOL = 1e-9


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# OpenBLAS sizes its thread pool from these when numpy is imported, capped
# by the CPUs the process may run on; a GEMM's blocking, and so its
# rounding, depends on the thread count.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _thread_inputs() -> str:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        cpus = os.cpu_count() or 0
    settings = [f"{name}={os.environ.get(name, 'unset')}" for name in _THREAD_VARS]
    return " ".join(settings + [f"cpus={cpus}"])


def environment_fingerprint() -> Dict[str, str]:
    """What decides the floating-point path: numpy, scipy, the BLAS build,
    the CPU (model plus the SIMD extensions numpy detected) and the BLAS
    thread count (its environment settings and the CPUs this process may
    use)."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {}).get("found", [])
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": " ".join(
            str(part)
            for part in (blas.get("name"), blas.get("version"), blas.get("openblas configuration"))
            if part
        ),
        "cpu": f"{platform.machine()} {_cpu_model()} [{' '.join(simd)}]",
        "threads": _thread_inputs(),
    }


def load_run_record(path: Path) -> Dict:
    """Per-phase losses and accuracies of a committed JSONL run record."""
    events = [json.loads(line) for line in path.read_text().strip().split("\n")]
    losses: Dict[str, list] = {"explainable": [], "predictive": []}
    for event in events:
        if event["event"] == "epoch":
            losses[event["phase"]].append(event["loss"])
    run_end = [event for event in events if event["event"] == "run_end"][0]
    return {
        "phase1_loss": losses["explainable"],
        "phase2_loss": losses["predictive"],
        "test_accuracy": run_end["test_accuracy"],
        "val_accuracy": run_end["val_accuracy"],
    }


def assert_within_record(
    record: Mapping,
    losses: Mapping[str, Sequence[float]],
    accuracies: Mapping[str, float],
) -> None:
    """Losses agree with ``record`` to :data:`LOSS_RTOL`; accuracies exactly."""
    for key, values in losses.items():
        assert len(values) == len(record[key]), key
        np.testing.assert_allclose(values, record[key], rtol=LOSS_RTOL, atol=0.0, err_msg=key)
    for key, value in accuracies.items():
        assert value == record[key], key


def assert_record_digests(record: Mapping, digests: Mapping[str, str]) -> None:
    """Digests equal the record's, in the environment that wrote it only."""
    recorded: Optional[Mapping] = record.get("environment")
    current = environment_fingerprint()
    if recorded != current:
        pytest.skip(
            "digests are enforced only in the recording environment; "
            f"record fingerprint: {recorded or 'not recorded'}; "
            f"this environment: {current}"
        )
    for key, digest in digests.items():
        assert digest == record[key], key


def sha256_arrays(arrays: Mapping[str, np.ndarray]) -> str:
    """Digest of named arrays in name order (model state dicts)."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return digest.hexdigest()
