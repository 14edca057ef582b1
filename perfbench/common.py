"""Repository layout, child processes, memory readings and run records."""

from __future__ import annotations

import os
import platform
import re
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

#: The checkout the benchmark measures: the directory holding perfbench/.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent


class LayoutError(RuntimeError):
    """The checkout does not hold the program's source tree."""


def require_source_tree() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise LayoutError(
            f"no program source under {SRC}: run from the root of a full "
            "checkout (src/repro must exist next to perfbench/)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """The environment for program child processes: this checkout's src."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(SRC) if not existing
                         else str(SRC) + os.pathsep + existing)
    env["PYTHONUNBUFFERED"] = "1"
    return env


@dataclass(frozen=True)
class RunSpec:
    """One benchmark run's settings."""

    #: Seeds what the benchmark itself generates (the serve traffic).
    seed: int
    #: The program's own ``--seed`` (its world); None keeps its default.
    world_seed: int | None
    seconds: float
    trace: bool
    #: Scratch directory of this run, inside the checkout.
    work: Path

    def world_flags(self) -> list[str]:
        return [] if self.world_seed is None else ["--seed",
                                                   str(self.world_seed)]


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


#: Starts ``argv[2:]`` from a bare interpreter and writes its peak RSS
#: (kB) to ``argv[1]``.  Linux charges a forked or vforked child with
#: its parent's high-water RSS until it execs, so a program started
#: straight from the benchmark process would report at least the
#: benchmark's own peak.
_LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as out:
    out.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_child(argv: list[str], work: Path, timeout: float) -> ChildRun:
    """Run ``argv`` to completion; wall time and its own peak RSS."""
    err_path, rss_path = work / "child.err", work / "child.rss"
    rss_path.unlink(missing_ok=True)
    timed_out = threading.Event()
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-S", "-I", "-c", _LAUNCHER, str(rss_path),
             *argv],
            stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT,
            start_new_session=True)

        def kill() -> None:
            timed_out.set()
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        wall = perf_counter() - start
    peak_kb = int(rss_path.read_text()) if rss_path.exists() else 0
    return ChildRun(
        returncode=proc.returncode, wall_s=wall,
        peak_rss_mb=peak_kb / 1024.0,
        timed_out=timed_out.is_set(),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"))


def reset_peak_rss(pid: int | str = "self") -> bool:
    """Restart a process's peak-RSS counter (Linux ``clear_refs`` 5)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) since start or the last reset."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", handle.read(), re.M)
    if match is None:
        raise OSError(f"no VmHWM in /proc/{pid}/status")
    return int(match.group(1)) / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What a result must carry to be compared with another one."""
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name, "unset") for name in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: metric name -> value; units come from BENCHMARK.json.
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Descriptions of failed output checks (empty when all passed).
    problems: list[str] = field(default_factory=list)
    #: Input sizes; results from different sizes are not comparable.
    sizes: dict = field(default_factory=dict)
    #: Per-repetition raw timings, kept with the record.
    samples: dict[str, list[float]] = field(default_factory=dict)

    def check(self, passed: bool, problem: str) -> bool:
        """Count one output check; a failed one is a failed operation."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.problems.append(problem)
        return passed
