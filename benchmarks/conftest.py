"""The benchmark harness's one helper: report lines past pytest's capture.

The paper's figures are not run here: they are cases of the fidelity
matrix (``python -m repro bench``, :mod:`repro.bench`), rendered from
``BENCH_perf.json`` by :mod:`repro.analysis`.
"""

from __future__ import annotations

_CONFIG = None


def pytest_configure(config):
    global _CONFIG
    _CONFIG = config


def emit(*args: object) -> None:
    """Print a report line past pytest's capture.

    The rendered tables are the benchmark suite's payload; they must
    reach the console (and a teed output file) even without ``-s``.
    """
    capman = _CONFIG.pluginmanager.getplugin("capturemanager") if _CONFIG else None
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(*args, flush=True)
    else:  # pragma: no cover - plain python execution
        print(*args, flush=True)
