"""Run one panfuse workload in this fresh process and print its result as JSON.

Started by ``run.py``, never by hand; the parent sets ``OMP_NUM_THREADS=1``
and passes ``--t0``, its ``time.monotonic()`` just before the spawn, so the
reported set-up time includes interpreter start and import.

A run sets up, then repeats the workload's step until ``--seconds`` have
passed (at least twice, so repeat checks have a pair).  With ``--trace 1``
steps alternate untraced and traced; the per-layer values come from the
traced steps and the gap between the two medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import panfuse  # noqa: E402
from panfuse import autodiff, cli, gan, harness, metrics, raster  # noqa: E402
from pngenc import encode_gray16  # noqa: E402
from probes import Tracer  # noqa: E402

MIN_STEPS = 2
TRAIN_SIZE, TRAIN_ITERS = 256, 5
COMPARE_SIZE, COMPARE_METHODS = 256, ("exp", "cs", "glp")
COMPARE_CFG = dict(window=32, stride=4)
SCENE_SIZE, CKPT_SIZE, CKPT_ITERS = 1024, 64, 20
BANDS, RATIO = 4, 4

# must equal FROZEN_FIXTURE_VALUES in tests/test_acceptance.py (seed-7 fixture,
# default MetricConfig); the benchmark fails if the baselines drift from them
FROZEN_SEED = 7
FROZEN_FIXTURE_VALUES = {
    "exp": {"ERGAS": 1.1547766511890896, "QNR": 0.9818017176397178},
    "cs": {"ERGAS": 0.6215064787107801, "QNR": 0.9982486760527364},
    "glp": {"ERGAS": 0.5822696043592985, "QNR": 0.9940839905836566},
}


class Checks:
    """Counts attempted operations and correctness checks, and the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _report_ok(entries: dict) -> bool:
    finite = all(math.isfinite(v) for v in entries.values())
    return finite and 0.0 <= entries.get("QNR", 0.0) <= 1.0


class Workload:
    """Set up in __init__; step() returns (wall seconds, workload-specific named values)."""

    units_per_step = 1  # work units (iterations, experiments, passes) per step
    checkpoint_hash = None

    def finish(self):
        """Checks made once after the timed steps."""


class TrainWorkload(Workload):
    """gan.train(TRAIN_ITERS) on the 256² scene; the unit is one iteration."""

    units_per_step = TRAIN_ITERS

    def __init__(self, seed, work, checks):
        self.checks = checks
        self.scene = harness.synth_scene(seed, TRAIN_SIZE, TRAIN_SIZE, BANDS, RATIO)
        self.cfg = gan.TrainingConfig(iterations=TRAIN_ITERS, seed=seed, ratio=RATIO)
        self.first = None
        self.sizes = {"pan": TRAIN_SIZE, "bands": BANDS, "ratio": RATIO, "iterations": TRAIN_ITERS}

    def step(self):
        t0 = time.perf_counter()
        params, log = gan.train(self.scene.ms, self.scene.pan, self.cfg)
        wall = time.perf_counter() - t0
        outcome = (log.to_csv(), gan.checkpoint_hash(params))
        self.checks.check(all(math.isfinite(v) for row in log.rows for v in row),
                          "training log has non-finite losses")
        if self.first is None:
            self.first = outcome
        else:
            self.checks.check(outcome[0] == self.first[0], "repeated gan.train gave another loss log")
            self.checks.check(outcome[1] == self.first[1], "repeated gan.train gave another checkpoint_hash")
        return wall, {"train_iter_ms": wall / TRAIN_ITERS * 1e3}


class CompareWorkload(Workload):
    """harness.run_experiment for exp, cs and glp at window 32 / stride 4."""

    def __init__(self, seed, work, checks):
        self.checks = checks
        self.scene = harness.synth_scene(seed, COMPARE_SIZE, COMPARE_SIZE, BANDS, RATIO)
        self.cfg = metrics.MetricConfig(**COMPARE_CFG)
        self.workers = min(harness.worker_threads(), len(COMPARE_METHODS))
        self.first = None
        self.sizes = {"pan": COMPARE_SIZE, "bands": BANDS, "ratio": RATIO,
                      "methods": list(COMPARE_METHODS), **COMPARE_CFG, "workers": self.workers}

    def step(self):
        t0 = time.perf_counter()
        results = harness.run_experiment(self.scene, COMPARE_METHODS, self.cfg)
        wall = time.perf_counter() - t0
        for res in results:
            if self.checks.check(res.report is not None, f"{res.method}/{res.mode}: {res.error}"):
                self.checks.check(_report_ok(res.report.entries),
                                  f"{res.method}/{res.mode} report not finite or QNR outside [0, 1]")
        outcome = [(r.method, r.mode, r.report and r.report.entries) for r in results]
        if self.first is None:
            self.first = outcome
        else:
            self.checks.check(outcome == self.first, "repeated run_experiment gave other values")
        # both modes of a method share one cell's wall_time; count it once
        busy = sum({r.method: r.wall_time for r in results}.values())
        return wall, {"experiment_s": wall, "parallel_efficiency": busy / (self.workers * wall)}

    def finish(self):
        """Baselines on the seed-7 fixture at the default MetricConfig match the
        frozen acceptance values."""
        scene = harness.synth_scene(FROZEN_SEED, 256, 256, BANDS, RATIO)
        cfg = metrics.MetricConfig()
        pan_low = raster.mtf_degrade(scene.pan, scene.ratio)
        for method, frozen in FROZEN_FIXTURE_VALUES.items():
            product = harness.baseline_fuse(method, scene.ms, scene.pan, scene.ratio)
            reduced = metrics.evaluate_reduced(product, scene.gt_hrms, cfg)
            full = metrics.evaluate_full(product, scene.ms, scene.pan, pan_low, cfg)
            self.checks.check(_close(reduced.entries["ERGAS"], frozen["ERGAS"], 1e-6),
                              f"{method} ERGAS {reduced.entries['ERGAS']!r} drifted")
            self.checks.check(_close(full.entries["QNR"], frozen["QNR"], 1e-6),
                              f"{method} QNR {full.entries['QNR']!r} drifted")


class SceneWorkload(Workload):
    """The panfuse CLI, stage by stage, on a 1024² scene; the unit is one pass."""

    def __init__(self, seed, work, checks):
        self.checks = checks
        self.seed = seed
        self.work = work
        os.makedirs(work, exist_ok=True)
        small = harness.synth_scene(seed, CKPT_SIZE, CKPT_SIZE, BANDS, RATIO)
        params, _ = gan.train(small.ms, small.pan,
                              gan.TrainingConfig(iterations=CKPT_ITERS, seed=seed, ratio=RATIO))
        self.checkpoint = os.path.join(work, "checkpoint.pfck")
        autodiff.save_checkpoint(params, self.checkpoint)
        self.checkpoint_hash = gan.checkpoint_hash(params)
        self.first = None
        self.sizes = {"pan": SCENE_SIZE, "bands": BANDS, "ratio": RATIO,
                      "checkpoint_scene": CKPT_SIZE, "checkpoint_iterations": CKPT_ITERS}

    def _cli(self, times, stage, *argv):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", self.work])
        times[stage] = times.get(stage, 0.0) + time.perf_counter() - t0
        self.checks.check(code == 0, f"panfuse {' '.join(argv)} exited {code}")

    def step(self):
        w = self.work.rstrip("/") + "/"
        times = {}
        self._cli(times, "synth", "synth", "--seed", str(self.seed), "--size", str(SCENE_SIZE),
                  "--bands", str(BANDS), "--ratio", str(RATIO))
        self._cli(times, "degrade", "degrade")
        full_inputs = ("--ms", w + "ms.pfr", "--pan", w + "pan.pfr")
        for method in ("exp", "cs", "glp"):
            self._cli(times, "fuse", "fuse", "--method", method, *full_inputs)
        self._cli(times, "fuse_gan", "fuse", "--method", "gan", "--checkpoint", self.checkpoint,
                  *full_inputs)
        for method in ("exp", "cs", "glp", "gan"):
            fused = ("--fused", f"{w}fused_{method}.pfr")
            self._cli(times, "eval", "eval", "--mode", "reduced", *fused, "--gt", w + "gt.pfr")
            self._cli(times, "eval", "eval", "--mode", "full", *fused, *full_inputs)
        self._cli(times, "report", "report")

        # PAN as a 16-bit PNG (encoding is not timed), then timed ingestion
        pan = np.fromfile(w + "pan.pfr", dtype="<f4", offset=16).astype(np.float64)
        quantized = np.round(np.clip(pan, 0.0, 1.0) * 65535.0).astype(np.uint16)
        quantized = quantized.reshape(SCENE_SIZE, SCENE_SIZE)
        with open(w + "pan16.png", "wb") as fh:
            fh.write(encode_gray16(quantized))
        t0 = time.perf_counter()
        raster.load_raster(w + "gt.pfr")
        png = raster.load_raster(w + "pan16.png")
        times["ingest"] = time.perf_counter() - t0
        self.checks.check(np.array_equal(png.data, quantized.astype(np.float64) / 65535.0),
                          "PNG decode differs from the encoded samples")

        for name in sorted(os.listdir(w)):
            if name.startswith("eval_") and name.endswith(".kv"):
                with open(w + name, encoding="utf-8") as fh:
                    report = metrics.QualityReport.parse_kv(fh.read())
                self.checks.check(_report_ok(report.entries),
                                  f"{name} not finite or QNR outside [0, 1]")
        digests = {}
        for name in sorted(os.listdir(w)):
            with open(w + name, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        if self.first is None:
            self.first = digests
        else:
            for name, digest in self.first.items():
                self.checks.check(digests.get(name) == digest,
                                  f"{name} differs after the stages were repeated")
        wall = sum(times.values())
        named = {
            "synth_s": times["synth"],
            "degrade_s": times["degrade"],
            "fuse_s": times["fuse"],
            "fuse_gan_s": times["fuse_gan"],
            "eval_s": times["eval"],
            "report_s": times["report"],
            "ingest_s": times["ingest"],
        }
        return wall, named


WORKLOADS = {"train-256": TrainWorkload, "compare-256": CompareWorkload,
             "scene-1024": SceneWorkload}


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "panfuse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def manifest(args, sizes) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "sizes": sizes,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "panfuse": panfuse.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PANFUSE_THREADS": os.environ.get("PANFUSE_THREADS"),
        "panfuse_worker_threads": harness.worker_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, args.work, checks)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "checkpoint_hash": workload.checkpoint_hash}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = Tracer() if args.trace else None
    plain, traced, named = [], [], {}
    start = time.perf_counter()
    while len(plain) + len(traced) < MIN_STEPS or time.perf_counter() - start < args.seconds:
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.install(panfuse)
        try:
            wall, values = workload.step()
        except panfuse.PanfuseError as exc:
            checks.check(False, f"step raised {type(exc).__name__}: {exc}")
            break
        finally:
            if trace_this:
                tracer.uninstall()
        if trace_this:
            traced.append(wall / workload.units_per_step)
            continue
        plain.append(wall / workload.units_per_step)
        for key, value in values.items():
            named.setdefault(key, []).append(value)
    workload.finish()

    result.update(
        manifest=manifest(args, workload.sizes),
        steps=len(plain) + len(traced),
        unit_s=plain,
        named={key: statistics.median(vals) for key, vals in named.items()},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures[:20],
    )
    if tracer is not None and traced:
        layers = tracer.per_unit(len(traced) * workload.units_per_step)
        untraced = statistics.median(plain)
        overhead = statistics.median(traced) - untraced
        layers["trace.overhead_ms"] = overhead * 1e3
        layers["trace.overhead_pct"] = 100.0 * overhead / untraced
        if "parallel_efficiency" in result["named"]:
            layers["harness.parallel_efficiency"] = result["named"]["parallel_efficiency"]
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
