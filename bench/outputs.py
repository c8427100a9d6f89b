"""Compare the shipped outputs of this tree with those of another checkout, CSV by CSV.

Usage (from the root of a checkout; ``--out`` is required, so that no run
overwrites a record by default):

    python3 bench/outputs.py --against ../parent --out /tmp/outputs.json
    python3 bench/outputs.py --against ../parent --out /tmp/o.json --runs fig3-coupling-map

The set is 17 runs and 21 CSVs: every preset but fig5, a reduced fig5 (4
realizations x 5 molecules at 3 fields, the benchmark's ensemble) and the
three configs under this tree's ``configs/``.  Each tree runs the set
through its own ``nvrp.cli.main`` with ``--threads 1``, in one fresh
interpreter with BLAS pinned to one thread (the bytes depend on the BLAS
thread count).

Per CSV the record reads "identical", or gives for each column that differs
the largest |this - against| relative to the column's max|value| over both
trees: inf where a cell is not a number in both or the shapes differ, and a
"comments" entry where the comment blocks differ.  Per run it lists every
difference between the two manifests but ``wall_time_s``.  The exit status is
1 when any CSV differs or is missing from either tree, or a run exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from kernels import BLAS_PINS, ROOT, commit  # noqa: E402

#: every preset but fig5, whose 1,000 Haar molecules take minutes
PRESETS = (
    "fig3-coupling-map", "fig4a-time-trace", "fig4c-field-sweep", "fig4e-angle-sweep",
    "fig6c-peak-count", "fig7-hyperfine-anisotropy", "fig8-exchange-sweep",
    "fig9-lifetime-sweep",
    *(f"fig7-hyperfine-anisotropy-{case}" for case in ("iso", "axial1", "axial2", "axial3",
                                                       "rhombic")),
)

#: fig5 at the size of the benchmark's ensemble workload
REDUCED_FIG5 = {
    "kind": "ensemble",
    "params": {"system": "fadtrp-2n", "b_grid": [0.1, 5.0, 3], "n_realizations": 4,
               "n_molecules": 5},
}

#: runs every label of its argv list through one tree's ``nvrp.cli.main``; prints the exit codes
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import nvrp
from nvrp.cli import main
if not nvrp.__file__.startswith(sys.argv[1]):
    raise SystemExit(f"nvrp imported from {nvrp.__file__}, not from {sys.argv[1]}")
codes = {label: main(argv + ["--threads", "1", "--out", f"{sys.argv[3]}/{label}"])
         for label, argv in json.loads(sys.argv[2])}
print(json.dumps(codes))
"""


def runs(work: Path) -> dict[str, list[str]]:
    """label -> the command-line arguments of each run; writes the reduced fig5's config."""
    fig5 = work / "fig5-ensemble-reduced.json"
    fig5.write_text(json.dumps(REDUCED_FIG5))
    out = {name: ["--preset", name] for name in PRESETS}
    out["fig5-ensemble-reduced"] = ["--config", str(fig5)]
    for path in sorted((ROOT / "configs").glob("*.json")):
        out[path.stem] = ["--config", str(path)]
    return out


def run_tree(checkout: Path, jobs: dict[str, list[str]], out_dir: Path) -> dict[str, int]:
    """Run ``jobs`` on the checkout in one fresh interpreter; each run's exit code."""
    src = str((checkout / "src").resolve())
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, src, json.dumps(list(jobs.items())), str(out_dir)],
        capture_output=True, text=True, env=os.environ | BLAS_PINS,
    )
    if result.returncode != 0:
        raise SystemExit(f"{checkout}: the runs failed\n{result.stderr}")
    return json.loads(result.stdout.splitlines()[-1])


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    """The comment lines and the rows (header first) of a CSV."""
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    return comments, [line.split(",") for line in lines if not line.startswith("#")]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(this: Path, against: Path) -> str | dict[str, float]:
    """ "identical", or the relative deviation of each column that differs (see the module)."""
    if this.read_bytes() == against.read_bytes():
        return "identical"
    (c1, rows1), (c2, rows2) = _table(this), _table(against)
    out: dict[str, float] = {"comments": math.inf} if c1 != c2 else {}
    if rows1[0] != rows2[0] or len(rows1) != len(rows2):
        return out | {"shape": math.inf}
    for j, name in enumerate(rows1[0]):
        cells = [(r1[j], r2[j]) for r1, r2 in zip(rows1[1:], rows2[1:])]
        if all(a == b for a, b in cells):
            continue
        pairs = [(_number(a), _number(b)) for a, b in cells]
        if any(a is None or b is None for a, b in pairs):
            out[name] = math.inf
            continue
        scale = max(max(abs(a), abs(b)) for a, b in pairs)
        worst = max(abs(a - b) for a, b in pairs)
        out[name] = worst / scale if scale > 0 and math.isfinite(worst) else math.inf
    return out


def diff_manifests(this, against, key: str = "") -> list[dict]:
    """Every leaf where two manifests differ, ``wall_time_s`` left out."""
    if isinstance(this, dict) and isinstance(against, dict):
        return [d for k in sorted(set(this) | set(against)) if k != "wall_time_s"
                for d in diff_manifests(this.get(k, "(absent)"), against.get(k, "(absent)"),
                                        f"{key}.{k}")]
    if isinstance(this, list) and isinstance(against, list) and len(this) == len(against):
        return [d for i, (a, b) in enumerate(zip(this, against))
                for d in diff_manifests(a, b, f"{key}[{i}]")]
    return [] if this == against else [{"key": key, "this": this, "against": against}]


def compare(against: Path, labels: list[str] | None = None) -> dict:
    """Run the set (or its ``labels``) on both trees and compare every CSV and manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs = runs(work)
        jobs = {label: jobs[label] for label in (labels or jobs)}
        codes = {side: run_tree(root, jobs, work / side)
                 for side, root in (("this", ROOT), ("against", against))}
        record = {}
        for label in jobs:
            a, b = work / "this" / label, work / "against" / label
            names = sorted({p.name for p in a.glob("*.csv")} | {p.name for p in b.glob("*.csv")})
            csvs = {n: compare_csv(a / n, b / n) if (a / n).exists() and (b / n).exists()
                    else "missing" for n in names}
            manifests = [json.loads(m.read_text()) if m.exists() else None
                         for m in (a / "manifest.json", b / "manifest.json")]
            record[label] = {"exit": [codes["this"][label], codes["against"][label]],
                             "csv": csvs, "manifest": diff_manifests(*manifests)}
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True, help="the checkout to compare with")
    parser.add_argument("--out", type=Path, required=True, help="the JSON record to write")
    parser.add_argument("--runs", nargs="+", default=None, help="labels to run (default: all)")
    args = parser.parse_args(argv)
    if not (args.against / "src" / "nvrp" / "__init__.py").is_file():
        parser.error(f"--against {args.against}: no src/nvrp/__init__.py there")
    record = compare(args.against.resolve(), args.runs)
    csvs = [(f"{label}/{name}", r) for label, run in record.items()
            for name, r in run["csv"].items()]
    for name, r in csvs:
        print(f"{name}: {r if isinstance(r, str) else f'deviates by {max(r.values()):.3g}'}")
    result = {
        "benchmark": "bench/outputs.py",
        "trees": {"this": {"path": str(ROOT), "commit": commit(ROOT)},
                  "against": {"path": str(args.against.resolve()), "commit": commit(args.against)}},
        "blas_pins": BLAS_PINS,
        "runs": record,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    differing = [name for name, r in csvs if r != "identical"]
    failed = [label for label, run in record.items() if run["exit"] != [0, 0]]
    print(f"{len(csvs) - len(differing)} of {len(csvs)} CSVs identical; runs failed: {failed}")
    return 1 if differing or failed else 0


if __name__ == "__main__":
    sys.exit(main())
