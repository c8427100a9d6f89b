"""CLI behaviour: presets, config files, exit codes, determinism."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from nvrp import cli, config, dynamics, signal
from nvrp.cli import experiment_from_preset, main, run
from nvrp.config import (
    KINDS,
    MAX_GRID_POINTS,
    MAX_REALIZATIONS,
    MAX_SAMPLES,
    MAX_WINDOW_S,
    PARAMS,
    ExperimentConfig,
    _canonical_value,
    load_config,
    parse_experiment,
    read_params,
)
from nvrp.dynamics import singlet_yield_mean
from nvrp.ensemble import MAX_MOLECULES
from nvrp.errors import ConfigError, NumericalError
from nvrp.hamiltonian import FieldConfig, SensorParams
from nvrp.presets import ALIASES, PRESETS, get_preset, one_nucleus_config
from nvrp.signal import solve_pair, with_exchange

from conftest import count_propagators, skew_null_pair


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _read_csv_rows(path: Path) -> list[str]:
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


# -- listing and lookup -------------------------------------------------------


def test_list_exits_zero(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "fig3-coupling-map",
        "fig4a-time-trace",
        "fig4c-field-sweep",
        "fig4e-angle-sweep",
        "fig5-ensemble",
        "fig6c-peak-count",
        "fig7-hyperfine-anisotropy",
        "fig8-exchange-sweep",
        "fig9-lifetime-sweep",
    ):
        assert name in out


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "fig4c-field-sweep" in capsys.readouterr().out


def test_unknown_preset_suggests_and_exits_2(capsys):
    code = main(["--preset", "fig4c-field-sweeep", "--out", "/tmp/nvrp-nope"])
    assert code == 2
    assert "did you mean" in capsys.readouterr().err


def test_aliases_resolve():
    assert get_preset("appendix-iso").name == "fig7-hyperfine-anisotropy-iso"
    assert get_preset("fig9-lifetime").kind == "lifetime-sweep"


def test_every_preset_validates():
    for name in list(PRESETS) + list(ALIASES):
        cfg = experiment_from_preset(get_preset(name), seed=None)
        # re-parse the canonical form: the schema round-trips
        reparsed = parse_experiment(json.loads(json.dumps(cfg.canonical_dict())))
        assert reparsed.kind == cfg.kind
        assert reparsed.config_hash() == cfg.config_hash()


#: config_hash() of every preset and shipped config file, computed before the
#: params were typed through config.PARAMS; the hash heads every CSV and manifest
_PINNED_HASHES = {
    "fig3-coupling-map": "155dd3b257e7e2fe31b92cb572b4bfebeb9250b8792a164c77a543cca31a7db5",
    "fig4a-time-trace": "f0402408283bb38a99c055e803de9d9feca648e50690edb82eb25057d6f295e1",
    "fig4c-field-sweep": "3fc0db51ae55038fe23d4c16782c26678b1b4a1a75f857bcf43beaa615c49119",
    "fig4e-angle-sweep": "14e6e66b15c5997d2c2b9f1a8da5eeb0ce13b146d0122333de111aa3ef274bd3",
    "fig5-ensemble": "b347e6ae687a9d951591cba7f205bebea0b589418ee2cd818fd3b228cdb16ff1",
    "fig6c-peak-count": "5a1fd3b0d26ee42d04612e552013dfd03d34238b012c1d020fc9523902bb07eb",
    "fig7-hyperfine-anisotropy": "d43594ecce6399a3dc70dbb3fcb35b58c771c09755bc9033d7dcb863574a4b3e",
    "fig8-exchange-sweep": "58ce2f5812492a5c631c314e6643575023be289aa3fe2046e4410406c42a542d",
    "fig9-lifetime-sweep": "e0bde6e98669be8b50ab3e1bd5022652192c25ee161512342eaeb0e53056732f",
    "fig7-hyperfine-anisotropy-iso": "8dfdf7489500584151d2c79c6c6dc0e5ed5173d9251e27c8c1ad5065b06b8e33",
    "fig7-hyperfine-anisotropy-axial1": "c7b67542db57de53638759de9b7d438a30aa80394ddb872cebf39ae0b8aa5acf",
    "fig7-hyperfine-anisotropy-axial2": "77e5a899c11d67cb6dc14cafb9d29cd7e9fbd14072f859712b74ae2bf1875449",
    "fig7-hyperfine-anisotropy-axial3": "6ad66cde7baac0ae02f740f415f7b9a2850d50e11805f0b25e78bf4b1c45cbd9",
    "fig7-hyperfine-anisotropy-rhombic": "ca278ee0dd7a6fe731909456da396edb99626cf1c31cbbac5a8f5cf11213c401",
    "fadtrp_2n_angle_sweep.json": "6381fb0a04f0ec1fbe38b9cce070a0ea2d1f39a4678709d63a72d35633365863",
    "fadtrp_2n_field_sweep.json": "50fe64419031bf190fc5e777f7102f28639560b60815ca039e1db7d6ad8ebebc",
    "pydma_angle_sweep.json": "201b283c197ff66a0117c4e89c6f6ada100cabfd4e6a6792d8fb69757ef3854d",
}


def test_config_hashes_are_pinned():
    hashes = {name: experiment_from_preset(p, seed=None).config_hash() for name, p in PRESETS.items()}
    for path in sorted(CONFIG_DIR.glob("*.json")):
        hashes[path.name] = load_config(path).config_hash()
    assert hashes == _PINNED_HASHES


# -- config files ---------------------------------------------------------------


def _write_config(tmp_path: Path, payload: dict) -> Path:
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(payload))
    return p


def _minimal_angle_sweep(**overrides) -> dict:
    payload = {
        "kind": "angle-sweep",
        "radical_pair": {
            "nuclei_radical1": [
                {
                    "label": "N5",
                    "spin": 1.0,
                    "tensor_mT": [[-0.39, 0, 0], [0, -0.39, 0], [0, 0, 1.76]],
                }
            ],
            "j_exchange_mT": 0.25,
            "lifetime_us": 5.0,
        },
        "params": {"b_mT": 0.05, "theta_deg": [0.0, 180.0, 19], "r_nm": 10.0},
    }
    payload.update(overrides)
    return payload


def test_config_round_trip(tmp_path):
    path = _write_config(tmp_path, _minimal_angle_sweep())
    cfg = load_config(path)
    canonical = cfg.canonical_dict()
    reparsed = parse_experiment(json.loads(json.dumps(canonical)))
    assert reparsed.canonical_dict() == canonical


def test_unknown_key_rejected_with_path(tmp_path):
    payload = _minimal_angle_sweep()
    payload["radical_pair"]["exchanje"] = 1.0
    path = _write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match=r"radical_pair\.exchanje"):
        load_config(path)


def test_bad_type_diagnostic(tmp_path):
    payload = _minimal_angle_sweep()
    payload["radical_pair"]["j_exchange_mT"] = "strong"
    path = _write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match=r"radical_pair\.j_exchange_mT"):
        load_config(path)


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), True], ids=["nan", "inf", "bool"])
@pytest.mark.parametrize("key", ["nuclei_radical1[0].tensor_mT", "dipolar_tensor_mT"])
def test_bad_tensor_entry_exits_2(tmp_path, capsys, key, entry):
    payload = _minimal_angle_sweep()
    rp = payload["radical_pair"]
    rp["dipolar_tensor_mT"] = [[0.1, 0, 0], [0, 0.1, 0], [0, 0, -0.2]]
    owner = rp if key == "dipolar_tensor_mT" else rp["nuclei_radical1"][0]
    owner[key.split(".")[-1]][1][2] = entry
    path = _write_config(tmp_path, payload)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"radical_pair.{key}[1][2]: expected a" in capsys.readouterr().err


def test_overflowing_tensor_entry_exits_4(tmp_path, capsys):
    """A finite entry whose H has an infinite norm fails the numerical checks."""
    payload = _minimal_angle_sweep()
    payload["radical_pair"]["nuclei_radical1"][0]["tensor_mT"][0][0] = 1e200
    path = _write_config(tmp_path, payload)
    with pytest.warns(RuntimeWarning, match="overflow"):  # numpy's, from the norm
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "||H|| = inf is not finite" in capsys.readouterr().err


def test_schema_error_exit_code(tmp_path, capsys):
    # field sweeps run on the sensor axis, so they take no field angles
    field_sweep = _minimal_angle_sweep(
        kind="field-sweep", params={"b_grid": [0.1, 1.0, 3], "theta_deg": 60}
    )
    # the top-level seed is the only seed
    ensemble = _minimal_angle_sweep(kind="ensemble", params={"n_molecules": 1, "seed": 3})
    # the sensor depth reaches no output, so it is not a key
    depth = _minimal_angle_sweep(sensor={"t2": 1e-5, "depth_nm": 5.0})
    # one reader serves every section: wrong types and absent required keys
    not_a_list, no_spin, zero_lifetime = (_minimal_angle_sweep() for _ in range(3))
    not_a_list["radical_pair"]["nuclei_radical1"] = 5
    del no_spin["radical_pair"]["nuclei_radical1"][0]["spin"]
    zero_lifetime["radical_pair"]["lifetime_us"] = 0.0
    # distances whose cube in m^3 overflows or underflows
    near_pair = _minimal_angle_sweep()
    near_pair["radical_pair"]["r_rp_nm"] = 1e-300
    for payload, key in (
        ({"kind": "angle-sweep", "bogus": 1}, "bogus"),
        (field_sweep, "params.theta_deg"),
        (ensemble, "params.seed"),
        (depth, "sensor.depth_nm"),
        (not_a_list, "radical_pair.nuclei_radical1:"),
        (no_spin, "radical_pair.nuclei_radical1[0].spin:"),
        (zero_lifetime, "radical_pair.lifetime_us:"),
        (_minimal_angle_sweep(sensor={"t2": "long"}), "sensor.t2:"),
        (_minimal_angle_sweep(sensor={"r1_nm": 1e200, "r2_nm": 2e200}), "sensor.r1_nm:"),
        (_minimal_angle_sweep(sensor={"r2_nm": 1e200}), "sensor.r2_nm:"),
        (near_pair, "radical_pair.r_rp_nm:"),
    ):
        path = _write_config(tmp_path, payload)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, params, rate, message",
    [
        ("angle-sweep", None, -1.0, "recombination"),
        ("peak-count", {"b_grid": [0.05, 1.0, 3], "r_nm": 5.0}, 0.0, "decay rate"),
    ],
    ids=["negative-rate", "peak-count-zero-rate"],
)
def test_physics_error_exit_code(tmp_path, capsys, kind, params, rate, message):
    payload = _minimal_angle_sweep(kind=kind)
    if params is not None:
        payload["params"] = params
    payload["radical_pair"]["recombination_rate"] = rate
    del payload["radical_pair"]["lifetime_us"]
    path = _write_config(tmp_path, payload)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert message in capsys.readouterr().err.lower()


@pytest.mark.parametrize("rate", [1e-300, 4e-300])
def test_non_finite_sample_count_exits_4(tmp_path, capsys, monkeypatch, rate):
    """No finite sample count resolves the spectrum over a window T = 5 / rate, given as
    ``params.t_max_us``: a numerical failure naming the window and the spread.  The window
    cap turns such a config into exit 2 (``test_window_beyond_its_cap_exits_2``), so the cap
    is lifted here to reach the guard of ``dynamics.nyquist_samples`` behind it.

    At 4e-300 /s the count 1.05 T spread / pi would be 1.6e308, finite, and the power of two above
    it 2^1024, not; the product 1.05 T spread overflows first, as it does at 1e-300 /s.
    """
    monkeypatch.setattr(config, "MAX_WINDOW_S", math.inf)
    payload = _minimal_angle_sweep()
    payload["params"]["t_max_us"] = 5.0 / rate * 1e6
    path = _write_config(tmp_path, payload)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "window" in err and "spectral spread" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, code",
    [("recombination_rate", 1e-300, 2), ("recombination_rate", 4.99, 2),
     ("recombination_rate", 5.0, 0), ("lifetime_us", 2e5, 0), ("lifetime_us", 2.01e5, 2),
     ("lifetime_us", 1e300, 2), ("lifetime_us", 1e-320, 2)],
)
def test_decay_window_beyond_its_cap_exits_2(tmp_path, capsys, key, value, code):
    """A decay rate whose window T = 5/k exceeds ``MAX_WINDOW_S`` (1 s), is not finite, or is
    0 (a lifetime of 1e-320 us, whose rate overflows), exits 2 naming its key, in the shipped
    fadtrp-2n field sweep (reduced to one field)."""
    payload = json.loads((CONFIG_DIR / "fadtrp_2n_field_sweep.json").read_text())
    payload["params"].update(b_grid=[1.0, 1.0, 1], densify=False)
    del payload["radical_pair"]["recombination_rate"]
    payload["radical_pair"][key] = value
    path = _write_config(tmp_path, payload)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert f"radical_pair.{key}: the signal window 5/k" in err and "in (0, 1] s" in err
        assert not list((tmp_path / "o").glob("*"))
    assert MAX_WINDOW_S == 5.0 / 5.0  # rate 5 /s and lifetime 2e5 us sit on the cap


@pytest.mark.parametrize(
    "tau_us, code",
    [(2e5, 0), (2.01e5, 2), (1e300, 2), (1e-310, 2), (1e-320, 2)],
)
def test_lifetime_scan_window_beyond_its_cap_exits_2(tmp_path, capsys, tau_us, code):
    """A lifetime scan checks the window T = 5/k of every ``params.tau_us`` entry as a pair's
    ``lifetime_us`` is checked: beyond ``MAX_WINDOW_S`` (1 s), or 0 (a lifetime whose rate
    overflows, 1e-310 us, or whose product tau * 1e-6 underflows, 1e-320 us), it exits 2
    naming the entry and writes nothing.  tau = 1e300 us exited 0 with a singlet yield of
    2.758; 2e5 us sits on the cap.  The scan's first entry is 1 us, or the value itself where
    it is larger, so that the list increases."""
    taus = [1.0, tau_us] if tau_us > 1.0 else [tau_us, 1.0]
    payload = {"kind": "lifetime-sweep", "params": {"tau_us": taus, "theta_deg": [0.0, 90.0, 2]}}
    path = _write_config(tmp_path, payload)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == code
    if code == 2:
        where = f"params.tau_us[{taus.index(tau_us)}]"
        assert f"{where}: the signal window 5/k" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*"))
    else:
        summary = (tmp_path / "o" / "lifetime_summary.csv").read_text().splitlines()[-1]
        assert 0.0 <= float(summary.split(",")[2]) <= 1.0


@pytest.mark.parametrize(
    "t_max_us, code", [(1e6, 0), (1.01e6, 2), (1e300, 2), (1e-320, 2)],
)
def test_window_beyond_its_cap_exits_2(tmp_path, capsys, t_max_us, code):
    """``params.t_max_us`` sets the window T itself, and it must lie in (0, ``MAX_WINDOW_S``]
    as a decay's 5/k must: beyond 1 s, or 0 (1e-320 us underflows), exits 2 naming the key
    and writes nothing.  1e300 us exited 4 on the sample count without naming it; 1e6 us
    sits on the cap (d = 12 angle sweep, two angles)."""
    payload = _minimal_angle_sweep()
    payload["params"].update(t_max_us=t_max_us, theta_deg=[0.0, 90.0, 2])
    path = _write_config(tmp_path, payload)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == code
    if code == 2:
        assert "params.t_max_us: the signal window t_max" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*"))


#: runs with non-finite outputs, and the CSV and column the failure names: ensemble molecules at
#: the smallest accepted distance square a summed signal of about 1e276 T into inf, and a
#: peak-count run whose contrast traces are made NaN in the test
_NON_FINITE_RUNS = {
    "ensemble": (
        {"kind": "ensemble",
         "params": {"b_grid": [0.5, 1.0, 2], "n_realizations": 2, "n_molecules": 2,
                    "r_range_nm": [1e-93, 2e-93]}},
        "ensemble.csv", "var_X_z_I",
    ),
    "peak-count": (
        {"kind": "peak-count", "params": {"b_grid": [0.5, 1.0, 2], "r_nm": 5.0}},
        "peak_contrast.csv", "C_0",
    ),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_RUNS))
def test_non_finite_output_exits_4(tmp_path, capsys, monkeypatch, case):
    """A CSV column with inf, or NaN outside the normalised columns, is a numerical failure
    that names the file and the column; no file is written, the run's other CSVs included."""
    overrides, csv_name, column = _NON_FINITE_RUNS[case]
    payload = _minimal_angle_sweep(**overrides)
    if case == "peak-count":  # no config reaches it: a window that could is capped (exit 2)
        contrast = cli.peak_contrast
        monkeypatch.setattr(cli, "peak_contrast", lambda *args: contrast(*args) * np.nan)
    path = _write_config(tmp_path, payload)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert f"{csv_name}: column {column} holds" in err and "Traceback" not in err
    assert not list((tmp_path / "o").glob("*"))


#: a small run of each kind that takes params.t_max_us, and the CSV it writes
_WINDOWED = {
    "time-trace": ({"b_mT": 0.05, "n_samples": 1024}, "time_trace.csv", 1024),
    "field-sweep": ({"b_grid": [0.1, 1.0, 2]}, "field_sweep.csv", 2),
    "angle-sweep": ({"b_mT": 0.05, "theta_deg": [0.0, 90.0, 3]}, "angle_sweep.csv", 3),
}


@pytest.mark.parametrize("kind", list(_WINDOWED))
@pytest.mark.parametrize("t_max_us, code", [(1.0, 0), (None, 2)], ids=["t-max", "no-t-max"])
def test_time_trace_zero_rate(tmp_path, capsys, t_max_us, code, kind):
    # every kind that takes params.t_max_us needs it when the pair does not decay
    params, csv_name, rows = _WINDOWED[kind]
    payload = _minimal_angle_sweep(kind=kind, params=dict(params))
    if t_max_us is not None:
        payload["params"]["t_max_us"] = t_max_us
    payload["radical_pair"]["recombination_rate"] = 0.0
    del payload["radical_pair"]["lifetime_us"]
    path = _write_config(tmp_path, payload)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == code
    if code == 0:
        assert len(_read_csv_rows(tmp_path / "o" / csv_name)) == 1 + rows
    else:
        assert "params.t_max_us" in capsys.readouterr().err


def _orthogonality_loss(tmp_path, capsys, monkeypatch, theta_deg, skew):
    """Run a Zeeman-only angle sweep with ``skew`` over ``_eigh``; the dtypes it returned.

    The pair has two zero levels, whose mixing the residual cannot see.  At
    phi = 0 the Hamiltonian is real, so the corrupted V is real too.
    """
    payload = {
        "kind": "angle-sweep",
        "radical_pair": {"j_exchange_mT": 0.0, "lifetime_us": 5.0},
        "params": {"b_mT": 0.05, "theta_deg": theta_deg, "r_nm": 10.0},
    }
    path = _write_config(tmp_path, payload)
    corrupted = skew(dynamics._eigh)
    dtypes = []

    def recording(h):
        w, v = corrupted(h)
        dtypes.append(v.dtype)
        return w, v

    monkeypatch.setattr(dynamics, "_eigh", recording)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "orthogonality" in capsys.readouterr().err
    return dtypes


def test_orthogonality_loss_exits_4(tmp_path, capsys, monkeypatch):
    # At theta = 0 the pair splits into {T+, T-} and {T0, S}, one _eigh call
    # each; only the block of the two exactly zero levels T0, S is skewed.
    skew = lambda eigh: skew_null_pair(eigh, null=0.0)  # noqa: E731
    dtypes = _orthogonality_loss(tmp_path, capsys, monkeypatch, [0.0, 180.0, 3], skew)
    assert dtypes == [np.float64, np.float64]


def test_orthogonality_loss_exits_4_with_one_block(tmp_path, capsys, monkeypatch):
    # at theta = 90 degrees the field is off the z axis, so H is one block
    dtypes = _orthogonality_loss(tmp_path, capsys, monkeypatch, [90.0, 180.0, 2], skew_null_pair)
    assert dtypes == [np.float64]


@pytest.mark.parametrize("sector", [0, 1], ids=["even", "odd"])
def test_residual_in_either_sector_of_a_split_point_exits_4(tmp_path, capsys, monkeypatch, sector):
    """A field sweep on the sensor axis diagonalises each parity block of its batch by itself;
    one eigenvalue off by 1e-6 ||H_b|| at the first point, in either block, fails the run."""
    params = {"b_grid": [0.1, 1.0, 2], "r_nm": 10.0}
    path = _write_config(tmp_path, _minimal_angle_sweep(kind="field-sweep", params=params))
    eigh, shapes = dynamics._eigh, []

    def corrupted(h):
        w, v = eigh(h)
        if len(shapes) == sector:
            w = w.copy()
            w[0, 0] += 1e-6 * np.linalg.norm(h[0])
        shapes.append(h.shape)
        return w, v

    monkeypatch.setattr(dynamics, "_eigh", corrupted)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert shapes == [(2, 6, 6), (2, 6, 6)]  # both fields, one stack per parity block
    err = capsys.readouterr().err
    assert "residual" in err and "at point 0 of a batch of 2" in err
    assert not list((tmp_path / "o").glob("*"))


def test_residual_at_one_point_of_a_stack_exits_4(tmp_path, capsys, monkeypatch):
    """A decomposition that misses the residual bound at one point of a batch fails the run.

    The 19-point sweep diagonalises theta = 0 alone and the 9 points 10 to 90 degrees as
    one stack; the fourth of them gets one eigenvalue off by 1e-6 ||H_p||.
    """
    path = _write_config(tmp_path, _minimal_angle_sweep())
    eigh, stacks = dynamics._eigh, []

    def corrupted(h):
        w, v = eigh(h)
        stacks.append(h.shape[0])
        if h.shape[0] > 1:
            w = w.copy()
            w[3, 0] += 1e-6 * np.linalg.norm(h[3])
        return w, v

    monkeypatch.setattr(dynamics, "_eigh", corrupted)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert stacks == [1, 1, 9]  # theta = 0 per parity sector, then the stack
    err = capsys.readouterr().err
    assert "residual" in err and "at point 3 of a batch of 9" in err


@pytest.mark.parametrize(
    "kind, key, params",
    [
        ("peak-count", "b_grid", {"r_nm": 5.0, "b_grid": [0.5, 1.0, 0]}),
        ("field-sweep", "b_grid", {"r_nm": 10.0, "b_grid": [0.5, 1.0, 0]}),
        ("coupling-map", "r_nm", {"r_nm": [5, 30, 0]}),
    ],
    ids=["peak-count", "field-sweep", "coupling-map"],
)
def test_empty_grid_exits_2(tmp_path, capsys, kind, key, params):
    path = _write_config(tmp_path, _minimal_angle_sweep(kind=kind, params=params))
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"params.{key}" in err and str(params[key]) in err


#: (kind, params, the key the diagnostic must name): wrong types and out-of-range values
_BAD_PARAMS = [
    ("time-trace", {"r_nm": [1, 2]}, "r_nm"),
    ("time-trace", {"theta_deg": [0, 90, 3]}, "theta_deg"),
    ("exchange-sweep", {"j_grid_mT": []}, "j_grid_mT"),
    ("anisotropy-sweep", {"cases": ["nope"]}, "cases"),
    ("coupling-map", {"r_nm": [5, 30, 0]}, "r_nm"),
    ("angle-sweep", {"normalize": "false"}, "normalize"),
    ("field-sweep", {"densify": "no"}, "densify"),
    ("ensemble", {"n_realizations": 2.7}, "n_realizations"),
    ("angle-sweep", {"b_mT": None}, "b_mT"),
    ("angle-sweep", {"theta_deg": [0, 180, 2.5]}, "theta_deg"),
    ("angle-sweep", {"theta_deg": [0, 180]}, "theta_deg"),
    ("angle-sweep", {"system": "nope"}, "system"),
    ("angle-sweep", {"t_max_us": 0.0}, "t_max_us"),
    ("time-trace", {"n_samples": 1}, "n_samples"),
    ("time-trace", {"r_nm": 0.0}, "r_nm"),
    ("field-sweep", {"b_grid": [0.0, 1.0, 3]}, "b_grid"),
    ("field-sweep", {"scale": "huge"}, "scale"),
    ("ensemble", {"n_molecules": 0}, "n_molecules"),
    ("ensemble", {"n_realizations": 0}, "n_realizations"),
    ("ensemble", {"r_range_nm": [5.0]}, "r_range_nm"),
    ("ensemble", {"r_range_nm": [-5.0, 20.0]}, "r_range_nm"),
    ("ensemble", {"r_range_nm": [20.0, 5.0]}, "r_range_nm"),
    ("peak-count", {"r_nm": -5.0}, "r_nm"),
    ("coupling-map", {"theta_deg": ["a", 90, 3]}, "theta_deg"),
    ("anisotropy-sweep", {"cases": "iso"}, "cases"),
    ("exchange-sweep", {"case": "nope"}, "case"),
    ("exchange-sweep", {"r_rp_nm": -1.0}, "r_rp_nm"),
    ("exchange-sweep", {"j_grid_mT": [0.0, True]}, "j_grid_mT"),
    ("lifetime-sweep", {"tau_us": [5.0, 2.5]}, "tau_us"),
    ("lifetime-sweep", {"tau_us": [0.0, 2.5]}, "tau_us"),
    ("anisotropy-sweep", {"b_mT": float("nan")}, "b_mT"),
    ("coupling-map", {"r_nm": [5.0, float("inf"), 3]}, "r_nm"),
    ("angle-sweep", {"theta_deg": [0, 200, 3]}, "theta_deg"),
    ("time-trace", {"theta_deg": -10}, "theta_deg"),
    ("lifetime-sweep", {"b_mT": -1.0}, "b_mT"),
    ("peak-count", {"phi_deg": 360}, "phi_deg"),
    ("ensemble", {"n_molecules": MAX_MOLECULES + 1}, "n_molecules"),
    # distances whose cube in m^3 underflows (ZeroDivisionError) or overflows
    ("time-trace", {"r_nm": 1e-300}, "r_nm"),
    ("time-trace", {"r_nm": 1e200}, "r_nm"),
    ("coupling-map", {"r_nm": [1e-300, 1.0, 3]}, "r_nm"),
    ("exchange-sweep", {"r_rp_nm": 1e-300}, "r_rp_nm"),
    ("ensemble", {"r_range_nm": [1.0, 1e200], "n_molecules": 1}, "r_range_nm"),
]


def _bad_config_exits_2(tmp_path, capsys, kind, params, key):
    path = _write_config(tmp_path, _minimal_angle_sweep(kind=kind, params=params))
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2, (kind, params)
    assert f"params.{key}" in capsys.readouterr().err, (kind, params)


@pytest.mark.parametrize("kind, params, key", _BAD_PARAMS)
def test_bad_param_value_exits_2(tmp_path, capsys, kind, params, key):
    _bad_config_exits_2(tmp_path, capsys, kind, params, key)


@pytest.mark.parametrize(
    "kind, params, key",
    [
        ("coupling-map", {"r_nm": [5.0, 30.0, MAX_GRID_POINTS + 1]}, "r_nm"),
        ("coupling-map", {"theta_deg": [0.0, 90.0, 2**62]}, "theta_deg"),
        ("field-sweep", {"b_grid": [0.1, 1.0, 2**63]}, "b_grid"),
        ("time-trace", {"n_samples": MAX_SAMPLES + 1}, "n_samples"),
        ("time-trace", {"n_samples": 2**63}, "n_samples"),
        ("ensemble", {"n_realizations": MAX_REALIZATIONS + 1}, "n_realizations"),
        ("ensemble", {"n_realizations": 2**63}, "n_realizations"),
    ],
)
def test_count_above_its_cap_exits_2_at_config_read(
    tmp_path, capsys, monkeypatch, kind, params, key
):
    """Rejected while the config is read: no run starts, so no time grid is allocated and no
    generator spawned.  A grid count of 2**62 or 2**63 fails inside np.linspace or
    np.logspace unless it is checked first."""

    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", refuse)
    _bad_config_exits_2(tmp_path, capsys, kind, params, key)


def test_every_param_rejects_a_wrong_type(tmp_path, capsys):
    # an object is a valid value of no parameter
    for kind in KINDS:
        for key in PARAMS[kind]:
            _bad_config_exits_2(tmp_path, capsys, kind, {key: {"lo": 1}}, key)


def test_params_system_resolves_like_a_preset(tmp_path, capsys):
    fig4e = get_preset("fig4e-angle-sweep")
    small = dataclasses.replace(fig4e, params=dict(fig4e.params, theta_deg=[0.0, 180.0, 7]))
    run(experiment_from_preset(small, seed=None), tmp_path / "preset")
    path = _write_config(tmp_path, {"kind": small.kind, "params": small.params})
    assert main(["--config", str(path), "--out", str(tmp_path / "file")]) == 0
    csv_name = "angle_sweep.csv"
    assert (tmp_path / "file" / csv_name).read_bytes() == (
        tmp_path / "preset" / csv_name
    ).read_bytes()
    # a radical_pair section must be the pair params.system names
    payload = _minimal_angle_sweep()
    payload["params"]["system"] = "fadtrp-2n"
    path = _write_config(tmp_path, payload)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "params.system" in capsys.readouterr().err


def test_exchange_sweep_runner(tmp_path):
    cfg = parse_experiment(
        {
            "kind": "exchange-sweep",
            "params": {"j_grid_mT": [0.0, 0.5], "theta_deg": [0.0, 180.0, 5]},
        }
    )
    run(cfg, tmp_path)
    rows = _read_csv_rows(tmp_path / "exchange_sweep.csv")
    assert rows[0].split(",")[0] == "j_mT"
    assert len(rows) == 1 + 2 * 5
    summary = _read_csv_rows(tmp_path / "exchange_summary.csv")
    assert summary[0] == "j_mT,max_abs_X_I,singlet_yield_theta0"
    base = one_nucleus_config("axial3", r_rp_nm=2.5)
    for row, j in zip(summary[1:], (0.0, 0.5)):
        rp = with_exchange(base, j)
        prop = solve_pair(rp, FieldConfig(0.05, 0.0, 0.0))
        k = rp.effective_decay_rate
        t_max = 5.0 / k
        y = singlet_yield_mean(prop, rp.initial_state, t_max)
        assert row.split(",")[2] == f"{y:.12g}"


#: preset params replaced for a short run: fig5 with 4 realizations x 5 molecules at 3 fields
_REDUCED_PARAMS = {
    "fig5-ensemble": {"n_realizations": 4, "n_molecules": 5, "b_grid": [0.1, 5.0, 3]},
}


@pytest.mark.parametrize(
    "name, propagators",
    [
        ("fig4e-angle-sweep", 91),
        ("fig7-hyperfine-anisotropy", 455),
        ("fig8-exchange-sweep", 124),
        ("fig9-lifetime-sweep", 31),
        ("pydma_angle_sweep.json", 46),
        ("fadtrp_2n_angle_sweep.json", 91),
        ("fadtrp_2n_field_sweep.json", 68),
        ("fig5-ensemble", 63),
    ],
)
def test_propagators_per_run(tmp_path, monkeypatch, name, propagators):
    """Diagonalised matrices per run: angle sweeps diagonalise theta <= pi/2 only, the scans'
    yields reuse theta = 0, and fig9's five lifetimes share one eigensystem per batch.  The
    reduced fig5 diagonalises each Haar molecule's 3 fields and the aligned grid once:
    (4 x 5 + 1) x 3."""
    if name.endswith(".json"):
        cfg = load_config(CONFIG_DIR / name)
    else:
        preset = get_preset(name)
        params = dict(preset.params, **_REDUCED_PARAMS.get(name, {}))
        cfg = experiment_from_preset(dataclasses.replace(preset, params=params), seed=None)
    built = count_propagators(monkeypatch)
    run(cfg, tmp_path)
    assert len(built) == propagators


def test_scan_yield_off_a_grid_without_theta0(tmp_path, monkeypatch):
    """A grid that starts off theta = 0 solves the yield's pair itself, with the same bytes."""
    params = {"j_grid_mT": [0.0, 0.5], "theta_deg": [0.0, 180.0, 5]}
    run(parse_experiment({"kind": "exchange-sweep", "params": params}), tmp_path / "at0")
    built = count_propagators(monkeypatch)
    params["theta_deg"] = [10.0, 170.0, 5]  # 10, 50 and 90 computed; 130 and 170 mirrored
    run(parse_experiment({"kind": "exchange-sweep", "params": params}), tmp_path / "off0")
    assert len(built) == 2 * (3 + 1)
    yields = [
        [row.split(",")[2] for row in _read_csv_rows(tmp_path / d / "exchange_summary.csv")]
        for d in ("at0", "off0")
    ]
    assert yields[0] == yields[1]


def test_run_angle_sweep_config(tmp_path):
    path = _write_config(tmp_path, _minimal_angle_sweep())
    code = main(["--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 0
    rows = _read_csv_rows(tmp_path / "o" / "angle_sweep.csv")
    assert rows[0].split(",")[0] == "sweep_value"
    assert len(rows) == 1 + 19
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert "config_hash" in manifest and "wall_time_s" in manifest


# -- determinism -----------------------------------------------------------------


def test_same_seed_byte_identical(tmp_path):
    cfg = parse_experiment(
        {
            "kind": "ensemble",
            "radical_pair": _minimal_angle_sweep()["radical_pair"],
            "seed": 42,
            "params": {
                "b_grid": [0.2, 2.0, 3],
                "n_realizations": 3,
                "n_molecules": 2,
            },
        }
    )
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "ensemble.csv").read_bytes() == (
        tmp_path / "b" / "ensemble.csv"
    ).read_bytes()


@pytest.mark.parametrize("name", ["fig7-hyperfine-anisotropy", "fig9-lifetime-sweep"])
def test_scans_byte_identical_across_threads(tmp_path, name):
    """The batches follow the grid alone, so the worker count changes no byte."""
    for threads in (1, 2):
        out = tmp_path / str(threads)
        assert main(["--preset", name, "--out", str(out), "--threads", str(threads)]) == 0
    csvs = sorted(p.name for p in (tmp_path / "1").glob("*.csv"))
    assert csvs
    for csv_name in csvs:
        assert (tmp_path / "1" / csv_name).read_bytes() == (tmp_path / "2" / csv_name).read_bytes()


def test_seed_option_reaches_ensemble(tmp_path, monkeypatch):
    # fig5-ensemble with a reduced sampling plan, run through --preset
    fig5 = get_preset("fig5-ensemble")
    small = dataclasses.replace(
        fig5, params=dict(fig5.params, b_grid=[0.5, 1.0, 2], n_realizations=2, n_molecules=1)
    )
    monkeypatch.setattr(cli, "get_preset", lambda name: small)
    bodies = []
    for seed in ("5", "6"):
        out = tmp_path / seed
        assert main(["--preset", "fig5-ensemble", "--seed", seed, "--out", str(out)]) == 0
        text = (out / "ensemble.csv").read_text()
        assert f"# seed: {seed}\n" in text
        rows = [r.split(",") for r in _read_csv_rows(out / "ensemble.csv")[1:]]
        assert {r[-1] for r in rows} == {seed}
        bodies.append([r[:-1] for r in rows])
    assert bodies[0] != bodies[1]


class _RecordingParams(dict):
    """The reader's typed params, recording the keys read from them into ``read``."""

    def __init__(self, params, read):
        super().__init__(params)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


#: a small run of every experiment kind
_SMALL_PARAMS = {
    "coupling-map": {"r_nm": [5.0, 10.0, 2], "theta_deg": [0.0, 90.0, 2]},
    "time-trace": {"n_samples": 1024, "t_max_us": 0.5},
    "field-sweep": {"b_grid": [0.1, 1.0, 2]},
    "angle-sweep": {"theta_deg": [0.0, 90.0, 2]},
    "ensemble": {"b_grid": [0.5, 1.0, 2], "n_realizations": 1, "n_molecules": 1},
    "peak-count": {"b_grid": [0.5, 1.0, 2]},
    "anisotropy-sweep": {"cases": ["iso"], "theta_deg": [0.0, 90.0, 2]},
    "exchange-sweep": {"j_grid_mT": [0.0], "theta_deg": [0.0, 90.0, 2]},
    "lifetime-sweep": {"tau_us": [5.0], "theta_deg": [0.0, 90.0, 2]},
}


def test_runners_cover_kinds_and_read_their_params(tmp_path, monkeypatch):
    assert set(cli._RUNNERS) == set(KINDS) == set(_SMALL_PARAMS)
    read = set()
    monkeypatch.setattr(
        cli, "read_params", lambda kind, params: _RecordingParams(read_params(kind, params), read)
    )
    for kind in KINDS:
        read.clear()
        cfg = ExperimentConfig(
            kind=kind, radical_pair=one_nucleus_config("axial3"), sensor=SensorParams(),
            params=_SMALL_PARAMS[kind],
        )
        run(cfg, tmp_path / kind)
        # "system" is resolved into the radical pair before the runner starts
        assert read == set(PARAMS[kind]) - {"system"}, kind


def test_threads_do_not_change_output(tmp_path):
    cfg = parse_experiment(
        {
            "kind": "angle-sweep",
            "radical_pair": _minimal_angle_sweep()["radical_pair"],
            "params": {"b_mT": 0.05, "theta_deg": [0.0, 180.0, 13], "r_nm": 10.0},
        }
    )
    run(cfg, tmp_path / "a", threads=1)
    run(cfg, tmp_path / "b", threads=4)
    assert (tmp_path / "a" / "angle_sweep.csv").read_bytes() == (
        tmp_path / "b" / "angle_sweep.csv"
    ).read_bytes()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    out = tmp_path / "o"
    assert main(["--preset", "fig3-coupling-map", "--threads", threads, "--out", str(out)]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


# -- documented spec defect -------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the isotropic one-nucleus system with nonzero exchange in a nonzero "
        "field has no exact signal null under this Hamiltonian (electron-only "
        "Zeeman); the null requires J = 0 or B = 0"
    ),
)
def test_appendix_iso_columns_zero(tmp_path):
    cfg = experiment_from_preset(get_preset("appendix-iso"), seed=None)
    run(cfg, tmp_path)
    rows = _read_csv_rows(tmp_path / "anisotropy_sweep.csv")
    body = np.array([r.split(",")[1:5] for r in rows[1:]], dtype=float)
    assert np.max(np.abs(body[:, 1])) < 1e-12  # X_x_I
    assert np.max(np.abs(body[:, 3])) < 1e-12  # X_z_I


def test_fig9_monotone_lifetime_grid(tmp_path):
    cfg = experiment_from_preset(get_preset("fig9-lifetime"), seed=None)
    run(cfg, tmp_path)
    rows = _read_csv_rows(tmp_path / "lifetime_summary.csv")
    taus = [float(r.split(",")[0]) for r in rows[1:]]
    assert taus == sorted(taus)
    assert len(set(taus)) == len(taus)
    # one block of angle rows per lifetime value
    sweep_rows = _read_csv_rows(tmp_path / "lifetime_sweep.csv")
    tags = {r.split(",")[0] for r in sweep_rows[1:]}
    assert len(tags) == len(taus)


# -- oracle mode -------------------------------------------------------------------


def test_oracle_mode(tmp_path, capsys):
    cfg = experiment_from_preset(get_preset("fig7-hyperfine-anisotropy-axial3"), seed=None)
    files = run(cfg, tmp_path, oracle=True)
    assert any(f.name == "oracle_check.csv" for f in files)
    rows = _read_csv_rows(tmp_path / "oracle_check.csv")
    deviation = float(rows[1].split(",")[0])
    assert deviation < 1e-6


def test_oracle_checks_the_blocked_path(tmp_path, monkeypatch):
    # the oracle's pair sits at theta = 0, where H splits into the two parity sectors
    blocks, make_propagator = [], signal.make_propagator

    def spy(*args):
        prop = make_propagator(*args)
        blocks.append(len(prop.blocks))
        return prop

    monkeypatch.setattr(signal, "make_propagator", spy)
    cfg = experiment_from_preset(get_preset("fig9-lifetime-sweep"), seed=None)
    run(cfg, tmp_path, oracle=True)
    assert blocks == [2]
    rows = _read_csv_rows(tmp_path / "oracle_check.csv")
    assert float(rows[1].split(",")[0]) < 1e-6


@pytest.mark.parametrize("name", ["fig8-exchange-sweep", "fig9-lifetime-sweep"])
def test_oracle_checks_the_first_pair_the_scan_runs(tmp_path, monkeypatch, name):
    cfg = experiment_from_preset(get_preset(name), seed=None)
    swept, checked = [], []
    scan, build = cli.scan_field_angle, cli.build_rp_hamiltonian

    def recording_scan(rps, **kwargs):
        swept.extend((_canonical_value(rp), kwargs["b_mT"]) for rp in rps)
        return scan(rps, **kwargs)

    def recording_build(rp, field):
        checked.append((_canonical_value(rp), field.magnitude_mT))
        return build(rp, field)

    monkeypatch.setattr(cli, "scan_field_angle", recording_scan)
    monkeypatch.setattr(cli, "build_rp_hamiltonian", recording_build)
    run(cfg, tmp_path / "run")
    run(cfg, tmp_path / "oracle", oracle=True)
    assert checked == swept[:1]


def test_oracle_disagreement_exits_4_and_writes_nothing(tmp_path, capsys, monkeypatch):
    """A deviation above 1e-6 is a numerical failure raised before any file is written."""
    rk4 = cli.rk4_evolve

    def off(*args, **kwargs):
        res = rk4(*args, **kwargs)
        return dataclasses.replace(res, observables=res.observables + 2e-6)

    monkeypatch.setattr(cli, "rk4_evolve", off)
    out = tmp_path / "o"
    argv = ["--preset", "fig7-hyperfine-anisotropy-axial3", "--oracle", "--out", str(out)]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert "oracle cross-check: max observable deviation 2.0" in captured.out
    assert "RK4 oracle disagree" in captured.err
    assert not list(out.glob("*"))


def test_oracle_without_a_pair_exits_2(tmp_path, capsys):
    assert main(["--preset", "fig3-coupling-map", "--oracle", "--out", str(tmp_path)]) == 2
    assert "coupling-map" in capsys.readouterr().err


def test_readme_params_table_names_every_key():
    """README's params table under "Configuration files" names exactly config.PARAMS."""
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    section = readme.split("### Configuration files", 1)[1].split("\n## ", 1)[0]
    documented = {kind: set() for kind in KINDS}
    kinds = []
    for line in section.splitlines():
        if line.startswith("|"):
            # a row's first cell names its kinds; an empty one continues the row above
            first, keys = (re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:3])
            kinds = first or kinds
            for kind in kinds:
                documented.setdefault(kind, set()).update(keys)
    assert documented == {kind: set(PARAMS[kind]) for kind in KINDS}


def test_shipped_example_configs_load():
    files = sorted(CONFIG_DIR.glob("*.json"))
    assert files, "example config files are missing"
    for f in files:
        cfg = load_config(f)
        assert cfg.kind in ("angle-sweep", "field-sweep")
        assert "REPRESENTATIVE" in f.read_text()


def test_missing_radical_pair_is_config_error(tmp_path, capsys):
    path = _write_config(tmp_path, {"kind": "time-trace", "params": {"b_mT": 0.5}})
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "radical_pair" in capsys.readouterr().err


def test_write_csv_matches_row_writer(tmp_path):
    """Column-wise formatting writes the bytes of csv.writer over the per-value rule.

    Columns: signed zeros, NaN (in a normalised column, the only kind that may hold
    it), +-1e-300, -1e300; a column of mixed -0.0 and +0.0 and one of -0.0 alone (each the
    literal "0" in a block's template); a normalised column of NaN alone; and one that is
    zero in the first block only.  Two tables: float columns alone (the stacked path), and
    the same with ints, the fig5 mode strings and a list of Python ints (the per-cell path),
    each over one block and five rows of the next.  A -0.0 (e.g. d_ci = 0 times a negative
    mean) carries only the sign of round-off and is written "0".  An infinity fails before
    the file is opened.
    """
    import csv

    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return "0" if value == 0 else f"{value:.12g}"
        return str(value)

    comments = {"kind": "test", "units": "none"}
    for width in (6, 9):
        rows = cli.CSV_BLOCK_CELLS // width
        n = rows + 5
        rng = np.random.default_rng(3)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        floats[:9] = [-0.0, 0.0, np.nan, 1e-300, -1e300, 1.0 / 3.0, -1e-300, -0.25, 0.0 * -1.5e-9]
        signed_zeros = np.where(rng.integers(0, 2, n) == 1, -0.0, 0.0)
        late = np.where(np.arange(n) < rows, -0.0, rng.standard_normal(n))
        columns = [floats, signed_zeros, np.full(n, np.nan), late, np.full(n, -0.0), 2 * late]
        header = ["X_x_I_norm", "signed_zeros", "X_z_I_norm", "late", "zero", "twice_late"]
        if width == 9:
            ints = rng.integers(-5, 40, n)
            ints[0] = -3
            modes = np.array(["aligned", "haar"])[rng.integers(0, 2, n)]
            columns += [ints, list(modes), [7] * n]
            header += ["count", "mode", "seed"]
        assert len(columns) == width

        path = cli.write_csv(tmp_path / "new.csv", comments, header, columns)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            for key, value in comments.items():
                fh.write(f"# {key}: {value}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in zip(*columns):
                writer.writerow([fmt(v) for v in row])
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        floats[4] = -np.inf
        with pytest.raises(NumericalError, match="column X_x_I_norm holds 1 non-finite"):
            cli.write_csv(tmp_path / "inf.csv", comments, header, columns)
        assert not (tmp_path / "inf.csv").exists()


def test_write_csv_mixes_kinds_in_one_block(tmp_path):
    """One short block whose row template holds float and str cells: NaN, +-1e308, -0.0,
    numpy and Python ints and strings, written as csv.writer writes the per-value rule."""
    import csv

    columns = [
        np.array([np.nan, 1e308, -1e308, -0.0, 2.5e-7]),
        np.array([3, -1, 0, 7, 12]),
        ["aligned", "haar", "aligned", "haar", "x%sy"],
        [5, 5, 5, 5, 5],
        [0.0, -0.0, 1.0 / 3.0, -2.0, 1e300],
    ]
    header = ["X_z_I_norm", "i", "mode", "seed", "g"]
    path = cli.write_csv(tmp_path / "new.csv", {"kind": "test"}, header, columns)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        fh.write("# kind: test\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow(
                ["0" if v == 0 else f"{v:.12g}" if isinstance(v, float) else str(v) for v in row]
            )
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
