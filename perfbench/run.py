"""The panfuse benchmark: one command, each workload in its own fresh process.

    python3 perfbench/run.py --workload train-256 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py                    # every workload, seed 7
    python3 perfbench/run.py --write-benchmark-json

Run it from the root of a checkout that holds ``src/panfuse``.  For each
workload it starts SETUP_SAMPLES fresh processes (``child.py``): the first
ones only set up, the last one also measures.  Set-up time is the median over
all of them.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer ones (see NOTES.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 0 only if every operation and correctness
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probes import per_layer_metrics  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 20,
    "workloads": [
        {"name": "train-256",
         "why": "gan.train on the 256x256 scene: autodiff and gan forward and backward passes, "
                "almost no metrics or raster work"},
        {"name": "compare-256",
         "why": "run_experiment for exp, cs and glp at window 32 / stride 4: the Python window "
                "loops of metrics and the harness thread pool; no autodiff"},
        {"name": "scene-1024",
         "why": "the CLI stage by stage on a 1024x1024 scene: synthesis, raster IO and PNG ingest, "
                "forward-only gan inference and metrics at the coarse default stride"},
    ],
    "end_to_end": [
        {"name": "step_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    ],
    "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_metrics()],
}
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# workload-specific names, printed for people but not part of the JSON result
NAMED_UNITS = {
    "train_iter_ms": "ms", "experiment_s": "s", "parallel_efficiency": "ratio",
    "synth_s": "s", "degrade_s": "s", "fuse_s": "s", "fuse_gan_s": "s",
    "eval_s": "s", "report_s": "s", "ingest_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(args, work: Path, setup_only: bool) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(HERE / "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen([*argv, "--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload} child exceeded {CHILD_TIMEOUT_S:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} child exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    """Run one workload; print the human summary and return the result object."""
    work = HERE / f".work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = [_child(args, work / f"setup{i}", True) for i in range(SETUP_SAMPLES - 1)]
        measured = _child(args, work / "measured", False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(measured)
    if not measured["unit_s"]:
        raise BenchError(f"{args.workload}: no step completed: {measured['failures']}")
    attempted, failed = measured["attempted"], measured["failed"]
    failures = list(measured["failures"])
    hashes = {s["checkpoint_hash"] for s in setups}
    if hashes != {None}:
        attempted += 1
        if len(hashes) != 1:
            failed += 1
            failures.append(f"set-up processes trained different checkpoints: {sorted(hashes)}")

    if args.trace:
        values = dict.fromkeys((m["name"] for m in BENCHMARK["per_layer"]), 0.0)
        layers = measured.get("layers", {})
        unknown = set(layers) - set(values)
        if unknown:
            raise BenchError(f"child reported unknown per-layer metrics {sorted(unknown)}")
        values.update(layers)
    else:
        values = {
            "step_s": statistics.median(measured["unit_s"]),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": measured["peak_rss_mb"],
        }

    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{measured['steps']} steps, {len(setups)} set-ups")
    print("manifest " + json.dumps(measured["manifest"], sort_keys=True))
    for name, value in measured["named"].items():
        print(f"  {name:<28} {value:>12.4f} {NAMED_UNITS.get(name, '')}  (median of "
              f"{len(measured['unit_s'])} untraced steps)")
    print(f"  {'fail_ratio':<28} {failed / attempted:>12.4f} ratio  ({failed}/{attempted})")
    for name in sorted(values) if args.trace else values:
        print(f"  {name:<28} {values[name]:>12.4f} {UNITS[name]}")
    for what in failures:
        print(f"  FAILED: {what}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(BENCHMARK, indent=2, ensure_ascii=False) + "\n")
        return 0
    if not (ROOT / "src" / "panfuse" / "__init__.py").is_file():
        print(f"perfbench: no src/panfuse under {ROOT}; run from a panfuse checkout",
              file=sys.stderr)
        return 2

    ok = True
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
