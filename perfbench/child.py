"""One workload in a fresh process: set up, then time warm repetitions.

Usage: python3 perfbench/child.py <checkout> <workload> <seed> <mode> <seconds> <out_dir>

mode is "setup" (set up and stop), "time" (warm repetitions with
tracing off) or "trace" (untraced and traced repetitions in turn).  The
last line of standard output is one JSON object.  The parent sets the
BLAS thread pins in this process's environment.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _import_program(checkout: Path) -> None:
    sys.path.insert(0, str(checkout / "src"))
    import nvrp

    origin = Path(nvrp.__file__).resolve()
    if checkout / "src" not in origin.parents:
        raise SystemExit(f"nvrp imported from {origin}, not from {checkout / 'src'}")


def _environment(workload) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "threads": workload.threads,
        "cpu_count": os.cpu_count(),
    }


def _csv_hashes(directory: Path) -> dict[str, dict[str, str]]:
    """sha256 of every CSV, grouped by experiment label."""
    out: dict[str, dict[str, str]] = {}
    for path in sorted(directory.glob("*/*.csv")):
        out.setdefault(path.parent.name, {})[path.name] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    return out


class Repetitions:
    """Whole repetitions of a workload, their times, CSV hashes and errors."""

    def __init__(self, cli, workload, out_dir: Path):
        self.cli, self.workload, self.out_dir = cli, workload, out_dir
        self.times: list[float] = []
        self.hashes: list[dict] = []
        self.errors: list[dict] = []

    def run_one(self) -> float:
        """Run every experiment once; keep the first repetition's outputs only."""
        rep = len(self.hashes)
        rep_dir = self.out_dir / f"rep{rep}"
        t0 = time.perf_counter()
        for label, cfg in self.workload.experiments:
            try:
                self.cli.run(cfg, rep_dir / label, threads=self.workload.threads)
            except Exception:  # every failure is counted, the run goes on
                self.errors.append({"rep": rep, "label": label, "error": traceback.format_exc(limit=3)})
        elapsed = time.perf_counter() - t0
        self.hashes.append(_csv_hashes(rep_dir))
        if rep > 0:
            shutil.rmtree(rep_dir)
        return elapsed


def _timed(reps: Repetitions, seconds: float) -> list[float]:
    """As many repetitions as fit in `seconds`, judged by the first; at least two."""
    times = [reps.run_one()]
    while len(times) < max(2, round(seconds / times[0])):
        times.append(reps.run_one())
    return times


def main(argv: list[str]) -> None:
    checkout, name, seed, mode, seconds, out_dir = argv
    checkout, out_dir, seed, seconds = Path(checkout), Path(out_dir), int(seed), float(seconds)
    _import_program(checkout)
    import workloads
    from nvrp import cli, spincore

    workload = workloads.build(name, seed)
    cold = workloads.cold_calls(workload)
    setup_s = time.perf_counter() - STARTED
    setup_misses = spincore.site_operators.cache_info().misses
    result = {"setup_s": setup_s, "cold_calls": cold}
    if mode == "setup":
        print(json.dumps(result))
        return

    reps = Repetitions(cli, workload, out_dir)
    if mode == "time":
        result["run_s"] = _timed(reps, seconds)
    else:
        result["run_s"], result["layers"] = _traced(reps, spincore, seconds, setup_misses)
    result.update(
        hashes=reps.hashes,
        errors=reps.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=_environment(workload),
    )
    print(json.dumps(result))


def _cache_counts(spincore, hamiltonian) -> dict[str, int]:
    """Per-layout cache counters; a cache that a later version drops reads 0."""
    site = spincore.site_operators.cache_info()
    products = getattr(hamiltonian, "_hyperfine_products", None)
    return {
        "spincore.site_operators.hits": site.hits,
        "hamiltonian.hyperfine_products.misses": (
            products.cache_info().misses if products is not None else 0
        ),
    }


def _traced(reps: Repetitions, spincore, seconds: float, setup_misses: int):
    """Untraced and traced repetitions in turn, as many pairs as fit in `seconds`.

    Returns the untraced times and the per-layer metrics: medians over the
    traced repetitions, plus per-call medians at each stage dimension.
    """
    import tracer

    from nvrp import hamiltonian

    tr = tracer.Tracer()
    untraced, traced, per_rep, spans = [], [], [], []
    while not traced or len(traced) < max(1, round(seconds / (untraced[0] + traced[0]))):
        untraced.append(reps.run_one())
        before = _cache_counts(spincore, hamiltonian)
        tr.install()
        try:
            traced.append(reps.run_one())
        finally:
            tr.uninstall()
        after = _cache_counts(spincore, hamiltonian)
        rep_spans = tr.take()
        metrics = tracer.repetition_metrics(rep_spans, reps.workload.threads)
        metrics.update({k: after[k] - before[k] for k in after})
        metrics["layers.self_share"] = metrics["layers.self_sum_s"] / (reps.workload.threads * traced[-1])
        per_rep.append(metrics)
        spans += rep_spans
    layers = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    layers.update(tracer.stage_call_ms(spans))
    layers["spincore.site_operators.misses"] = setup_misses
    layers["tracing_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    layers["traced_run_s"] = traced
    layers["missing_bindings"] = tr.missing
    (reps.out_dir / "spans.json").write_text(json.dumps(tracer.spans_to_json(spans)))
    return untraced, layers


if __name__ == "__main__":
    main(sys.argv[1:])
