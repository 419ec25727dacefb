"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import pathlib

import pytest

import repro
from repro.config import itanium2_smp, sgi_altix
from repro.cpu import Machine


@pytest.fixture
def smp2() -> Machine:
    """A small two-CPU SMP machine (fast for protocol tests)."""
    return Machine(itanium2_smp(2))


@pytest.fixture
def smp4() -> Machine:
    return Machine(itanium2_smp(4))


@pytest.fixture
def altix4() -> Machine:
    """A two-node cc-NUMA machine."""
    return Machine(sgi_altix(4))


@pytest.fixture(scope="session")
def child_env():
    """``child_env(**overrides)``: the environment of a fresh interpreter.

    It finds the package under test by absolute path wherever pytest was
    started from, and is pinned the way ``benchmarks/e2e`` pins its own
    children: hash seed fixed, every ``REPRO_*`` and the CLI's BLAS
    default (``OPENBLAS_NUM_THREADS``) removed.
    """
    src = str(pathlib.Path(repro.__file__).parent.parent)

    def make(**overrides: str) -> dict[str, str]:
        env = {
            k: v for k, v in os.environ.items()
            if not k.startswith("REPRO_") and k != "OPENBLAS_NUM_THREADS"
        }
        return {**env, "PYTHONHASHSEED": "0", "PYTHONPATH": src, **overrides}

    return make
