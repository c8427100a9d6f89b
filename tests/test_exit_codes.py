"""The exit-code contract under single-leaf mutations of small config files.

Every input ends in exit 0, 2 (configuration), 3 (physics) or 4 (numerics), never in
a traceback; an exit-0 run writes only finite cells outside ``cli.NAN_COLUMNS``, and
any other exit leaves the output directory without a file.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from nvrp import cli

#: a one-nucleus axial3 pair, d = 12
_PAIR = {
    "nuclei_radical1": [
        {"label": "N5", "spin": 1.0, "tensor_mT": [[-0.39, 0, 0], [0, -0.39, 0], [0, 0, 1.76]]}
    ],
    "j_exchange_mT": 0.25,
    "lifetime_us": 5.0,
}
_SENSOR = {"t2": 1e-5, "r1_nm": 5.0, "r2_nm": 20.0, "density_per_nm3": 0.05}

#: one small config per kind that runs a pair: d = 12, grids of at most 3 points
_CONFIGS = {
    "angle-sweep": {"b_mT": 0.05, "theta_deg": [0.0, 90.0, 3], "r_nm": 10.0},
    "field-sweep": {"b_grid": [0.1, 1.0, 2], "r_nm": 10.0},
    "time-trace": {"b_mT": 0.5, "n_samples": 256, "r_nm": 10.0},
    "peak-count": {"b_grid": [0.5, 1.0, 2], "r_nm": 5.0},
    "ensemble": {"b_grid": [0.5, 1.0, 2], "n_realizations": 1, "n_molecules": 2},
}

#: the values each leaf is set to, one at a time
_VALUES = (
    0, -0.0, -1, 1e300, -1e300, 1e200, 1e30, 1e-30, 1e-300, math.nan, math.inf, 2**63,
    "x", True, None, [], {},
)


def _payload(kind):
    return {"kind": kind, "seed": 0, "radical_pair": copy.deepcopy(_PAIR),
            "sensor": dict(_SENSOR), "params": copy.deepcopy(_CONFIGS[kind])}


def _leaves(node, path=()):
    """The key paths of every value in ``node`` that is neither a dict nor a list."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]
    return [path]


#: (kind, leaf path) for every leaf of every config: 116 over the 5 configs
_CASES = [(kind, path) for kind in _CONFIGS for path in _leaves(_payload(kind))]


def _non_finite_cells(path: Path) -> list[str]:
    """``column:row`` of every inf or NaN cell of a CSV outside ``cli.NAN_COLUMNS``."""
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = rows[0].split(",")
    bad = []
    for i, row in enumerate(rows[1:]):
        for name, cell in zip(header, row.split(",")):
            if name not in cli.NAN_COLUMNS and cell.lower() in ("nan", "inf", "-inf"):
                bad.append(f"{name}:{i}")
    return bad


#: 1,200 of the 3,944 (case, value, --threads) runs: about 7 s on two cores
@given(st.sampled_from(_CASES), st.sampled_from(_VALUES), st.sampled_from([1, 2]))
@settings(max_examples=1200, deadline=None, derandomize=True)
def test_one_leaf_mutation_keeps_the_exit_code_contract(case, value, threads):
    kind, path = case
    payload = _payload(kind)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(config), "--out", str(out), "--threads", str(threads)])
        assert code in (0, 2, 3, 4), (case, value, code)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            for csv in out.glob("*.csv"):
                assert not _non_finite_cells(csv), (case, value, csv.name)
        else:
            assert not list(out.glob("*")), (case, value, code)
