"""nvrp benchmark: time one workload end to end, check its outputs, print metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload angle-sweep --seed 1 --seconds 14 --trace 0

``--workload all`` runs the four workloads in turn.  With ``--trace 0`` the
metrics are the end-to-end ones (setup_s, run_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones from a traced run.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Every measurement runs in a fresh child process (``child.py``) whose
environment pins BLAS to one thread.  The checks run in this process
after the child has ended, outside every timed region.
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
WORKLOADS = ("angle-sweep", "ensemble", "large-system", "preset-mix")
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: fresh processes whose set-up time is measured; the timed child is one of them
SETUP_RUNS = 3
#: every child must end before this many seconds have passed since the start
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _child(root: Path, workload: str, seed: int, mode: str, seconds: float, out: Path, deadline: float) -> dict:
    env = dict(os.environ, **BLAS_PINS)
    cmd = [sys.executable, str(HERE / "child.py"), str(root), workload, str(seed), mode, str(seconds), str(out)]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} child ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _operations(main: dict, labels: list[str], check_failures: dict[str, list[str]]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every repetition of every experiment.

    An operation fails when cli.run raised, when the first repetition's
    output of that experiment failed a check, or when its CSVs differ
    from the first repetition's.  correct is False when any completed
    output failed a check or differed from the first repetition's.
    """
    raised = {(e["rep"], e["label"]) for e in main["errors"]}
    first = main["hashes"][0]
    attempted = failed = 0
    correct = not any(check_failures.values())
    for rep, hashes in enumerate(main["hashes"]):
        for label in labels:
            attempted += 1
            if (rep, label) in raised or (0, label) in raised:
                failed += 1
            elif check_failures.get(label) or hashes.get(label) != first.get(label):
                failed += 1
                correct = False
    return attempted, failed, correct


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The result line of one workload, and with tracing every per-layer value."""
    deadline = time.monotonic() + DEADLINE_S
    out = root / OUT_DIR / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # set-up children before and after the timed one sample the machine at different times
    setups = [] if trace else [_child(root, name, seed, "setup", seconds, out, deadline)["setup_s"]]
    main = _child(root, name, seed, "trace" if trace else "time", seconds, out, deadline)
    setups.append(main["setup_s"])
    if not trace:
        setups += [
            _child(root, name, seed, "setup", seconds, out, deadline)["setup_s"] for _ in range(SETUP_RUNS - 2)
        ]

    import checks
    import workloads

    workload = workloads.build(name, seed)
    labels = [label for label, _ in workload.experiments]
    raised_first = {e["label"] for e in main["errors"] if e["rep"] == 0}
    check_failures = checks.check_workload(workload, out / "rep0", seed, raised_first)
    attempted, failed, correct = _operations(main, labels, check_failures)

    if trace:
        import tracer

        layers = {k: v for k, v in main["layers"].items() if k not in ("traced_run_s", "missing_bindings")}
        metrics = {k: v for k, v in layers.items() if tracer.in_result_line(k)}
        units = {k: _layer_unit(k) for k in layers}
        printed_only = {k: {"value": v, "unit": units[k]} for k, v in layers.items() if k not in metrics}
    else:
        layers = {}
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(main["run_s"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = END_TO_END_UNITS

    _report(name, main, setups, check_failures, attempted, failed, trace)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    _print_metrics(name, result["metrics"])
    if trace:
        _print_metrics(name, printed_only)
    return result, layers


def _layer_unit(name: str) -> str:
    if name.endswith(".call_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("ratio") or name.endswith("share"):
        return "ratio"
    return "count"


def _report(name, main, setups, check_failures, attempted, failed, trace) -> None:
    print(f"[{name}] environment {json.dumps(main['env'], sort_keys=True)}")
    print(f"[{name}] set-up runs (s): {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"[{name}] repetitions (s): {', '.join(f'{s:.3f}' for s in main['run_s'])}")
    if trace:
        layers = main["layers"]
        print(f"[{name}] traced repetitions (s): {', '.join(f'{s:.3f}' for s in layers['traced_run_s'])}")
        if layers["missing_bindings"]:
            print(f"[{name}] bindings not found, not traced: {', '.join(layers['missing_bindings'])}")
    for e in main["errors"]:
        print(f"[{name}] rep {e['rep']} {e['label']} raised:\n{e['error']}")
    for label, failures in check_failures.items():
        for f in failures:
            print(f"[{name}] CHECK FAILED {label}: {f}")
        if not failures:
            print(f"[{name}] checks passed: {label}")
    print(f"[{name}] operations attempted {attempted}, failed {failed}")


def _print_metrics(name: str, metrics: dict) -> None:
    for key, m in metrics.items():
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")


def _stage_table(stages: dict[str, dict]) -> None:
    """Per-call medians (ms) of the stage layers at each dimension, per workload."""
    import tracer

    print("stage table: median self time per call, ms (workload: assembly / make_propagator / integrated_observables)")
    for dim in tracer.STAGE_DIMS:
        cells = []
        for name, layers in stages.items():
            values = [layers[f"{layer}.d{dim}.call_ms"] for layer in tracer.STAGE_LAYERS]
            if any(values):
                cells.append(f"{name}: " + " / ".join(f"{v:.3f}" if v else "-" for v in values))
        print(f"  d = {dim:4d}  " + ("; ".join(cells) if cells else "no calls"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "nvrp" / "__init__.py").is_file():
        print(f"no nvrp sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    # the checks below import numpy in this process: pin its BLAS first
    os.environ.update(BLAS_PINS)
    sys.path.insert(0, str(root / "src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, stages = {}, {}
    try:
        for name in names:
            results[name], stages[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        _stage_table(stages)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
