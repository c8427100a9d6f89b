"""CLI behaviour: presets, config files, exit codes, determinism."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from nvrp import cli, dynamics, signal
from nvrp.cli import _fmt, experiment_from_preset, main, run
from nvrp.config import (
    KINDS,
    PARAMS,
    ExperimentConfig,
    _canonical_value,
    load_config,
    parse_experiment,
    read_params,
)
from nvrp.dynamics import nyquist_samples, singlet_yield_mean
from nvrp.errors import ConfigError
from nvrp.hamiltonian import FieldConfig, SensorParams
from nvrp.presets import ALIASES, PRESETS, get_preset, one_nucleus_config
from nvrp.signal import solve_pair, with_exchange

from conftest import skew_null_pair


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
    for payload, key in (
        ({"kind": "angle-sweep", "bogus": 1}, "bogus"),
        (field_sweep, "params.theta_deg"),
        (ensemble, "params.seed"),
        (depth, "sensor.depth_nm"),
        (not_a_list, "radical_pair.nuclei_radical1:"),
        (no_spin, "radical_pair.nuclei_radical1[0].spin:"),
        (zero_lifetime, "radical_pair.lifetime_us:"),
        (_minimal_angle_sweep(sensor={"t2": "long"}), "sensor.t2:"),
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
    monkeypatch.setattr(dynamics, "BLOCK_MIN_DIM", 0)
    skew = lambda eigh: skew_null_pair(eigh, null=0.0)  # noqa: E731
    dtypes = _orthogonality_loss(tmp_path, capsys, monkeypatch, [0.0, 180.0, 3], skew)
    assert dtypes == [np.float64, np.float64]


def test_orthogonality_loss_exits_4_with_one_block(tmp_path, capsys, monkeypatch):
    # at theta = 90 degrees the field is off the z axis, so H is one block
    dtypes = _orthogonality_loss(tmp_path, capsys, monkeypatch, [90.0, 180.0, 2], skew_null_pair)
    assert dtypes == [np.float64]


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
]


def _bad_config_exits_2(tmp_path, capsys, kind, params, key):
    path = _write_config(tmp_path, _minimal_angle_sweep(kind=kind, params=params))
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2, (kind, params)
    assert f"params.{key}" in capsys.readouterr().err, (kind, params)


@pytest.mark.parametrize("kind, params, key", _BAD_PARAMS)
def test_bad_param_value_exits_2(tmp_path, capsys, kind, params, key):
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


def test_fmt_writes_signed_zero_as_zero():
    assert _fmt(-0.0) == "0"
    assert _fmt(np.float64(-0.0)) == "0"
    assert _fmt(0.0 * -1.5e-9) == "0"
    assert _fmt(-1e-300) == "-1e-300"
    assert _fmt(-0.25) == "-0.25"
    assert _fmt(1.0 / 3.0) == "0.333333333333"
    assert _fmt(-3) == "-3"


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
        y = singlet_yield_mean(prop, rp.initial_state, t_max, nyquist_samples(prop, t_max))
        assert row.split(",")[2] == f"{y:.12g}"


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
    monkeypatch.setattr(dynamics, "BLOCK_MIN_DIM", 0)
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
    sweep, build = cli.sweep_field_angle, cli.build_rp_hamiltonian

    def recording_sweep(rp, **kwargs):
        swept.append((_canonical_value(rp), kwargs["b_mT"]))
        return sweep(rp, **kwargs)

    def recording_build(rp, field):
        checked.append((_canonical_value(rp), field.magnitude_mT))
        return build(rp, field)

    monkeypatch.setattr(cli, "sweep_field_angle", recording_sweep)
    monkeypatch.setattr(cli, "build_rp_hamiltonian", recording_build)
    run(cfg, tmp_path / "run")
    run(cfg, tmp_path / "oracle", oracle=True)
    assert checked == swept[:1]


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

    Mixed columns: signed zeros, NaN, infinities, 1e-300, ints and the
    fig5 mode strings, over more rows than one block.
    """
    import csv

    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return "0" if value == 0 else f"{value:.12g}"
        return str(value)

    n = cli.CSV_BLOCK_ROWS + 5
    rng = np.random.default_rng(3)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    floats[:6] = [-0.0, 0.0, np.nan, 1e-300, -np.inf, 1.0 / 3.0]
    ints = rng.integers(-5, 40, n)
    modes = np.array(["aligned", "haar"])[rng.integers(0, 2, n)]
    seeds = [7] * n
    columns = [floats, ints, list(modes), seeds, np.full(n, -0.0)]
    header = ["x", "count", "mode", "seed", "zero"]
    comments = {"kind": "test", "units": "none"}

    path = cli.write_csv(tmp_path / "new.csv", comments, header, columns)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        for key, value in comments.items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([fmt(v) for v in row])
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
