"""raster._keep_freed_memory, and the fresh pages of the two loops that call it."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from panfuse import raster

INT_MAX = 2**31 - 1


class FakeLibc:
    """A stand-in for ``ctypes.CDLL(None)``: records each mallopt call, and
    answers ``took`` for the mmap threshold and 1 for anything else."""

    def __init__(self):
        self.calls, self.took = [], 1

        def mallopt(param, value):
            self.calls.append((param, value))
            return self.took if param == raster._M_MMAP_THRESHOLD else 1

        self.mallopt = mallopt


@pytest.fixture
def libc(monkeypatch):
    """A glibc whose mallopt is a FakeLibc, in a process that has not yet
    called _keep_freed_memory."""
    fake = FakeLibc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: fake)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    raster._keep_freed_memory.cache_clear()
    yield fake
    raster._keep_freed_memory.cache_clear()


class TestKeepFreedMemory:
    def test_sets_the_mmap_then_the_trim_threshold(self, libc):
        raster._keep_freed_memory()
        assert libc.calls == [(raster._M_MMAP_THRESHOLD, INT_MAX),
                              (raster._M_TRIM_THRESHOLD, INT_MAX)]

    def test_runs_once_per_process(self, libc):
        for _ in range(3):
            raster._keep_freed_memory()
        assert len(libc.calls) == 2

    def test_no_trim_threshold_when_the_mmap_threshold_is_refused(self, libc):
        # the trim threshold alone fixes the mmap threshold at 128 KiB
        libc.took = 0
        raster._keep_freed_memory()
        assert libc.calls == [(raster._M_MMAP_THRESHOLD, INT_MAX)]

    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_no_op_when_confstr_raises(self, libc, monkeypatch, error):
        def confstr(name):
            raise error(name)

        monkeypatch.setattr(os, "confstr", confstr)
        raster._keep_freed_memory()
        assert libc.calls == []

    def test_no_op_without_confstr(self, libc, monkeypatch):
        monkeypatch.delattr(os, "confstr")
        raster._keep_freed_memory()
        assert libc.calls == []

    @pytest.mark.parametrize("answer", [None, "", "musl 1.2.4"])
    def test_no_op_when_confstr_names_no_glibc(self, libc, monkeypatch, answer):
        monkeypatch.setattr(os, "confstr", lambda name: answer)
        raster._keep_freed_memory()
        assert libc.calls == []


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def minor_faults(script: str) -> int:
    """The minor page faults of ``measured()`` in ``script``, run in a fresh
    interpreter after one warm call of ``warm()``, on one BLAS thread."""
    src = str(Path(raster.__file__).resolve().parent.parent)
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = {**os.environ, **threads,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    runner = (
        "import resource\n"
        f"{script}\n"
        "warm()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "measured()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", runner], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    return int(proc.stdout)


# Fresh pages the kernel zeroes once a loop's working set has been built: a
# loop that keeps its freed memory takes tens at most where one that hands it
# back takes thousands.
@pytest.mark.skipif(not _on_glibc(), reason="the setting is glibc's; elsewhere nothing is set")
class TestNoFreshPages:
    def test_training_iterations(self):
        faults = minor_faults(
            "from panfuse import gan, harness\n"
            "s = harness.synth_scene(7, 64, 64, 4, 4)\n"
            "def warm():\n"
            "    gan.train(s.ms, s.pan, gan.TrainingConfig(iterations=2, seed=7, ratio=4))\n"
            "def measured():\n"
            "    gan.train(s.ms, s.pan, gan.TrainingConfig(iterations=6, seed=7, ratio=4))\n"
        )
        assert faults <= 300, faults

    def test_run_experiment_without_training(self):
        faults = minor_faults(
            "from panfuse import harness, metrics\n"
            "s = harness.synth_scene(7, 128, 128, 4, 4)\n"
            "cfg = metrics.MetricConfig(window=32, stride=4)\n"
            "def warm():\n"
            "    harness.run_experiment(s, ('exp', 'cs', 'glp'), cfg)\n"
            "def measured():\n"
            "    for _ in range(2):\n"
            "        harness.run_experiment(s, ('exp', 'cs', 'glp'), cfg)\n"
        )
        assert faults <= 200, faults
