"""CLI behaviour: presets, config files, exit codes, determinism."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from nvrp import cli, dynamics
from nvrp.cli import _fmt, experiment_from_preset, main, run
from nvrp.config import _KIND_PARAMS, KINDS, ExperimentConfig, load_config, parse_experiment
from nvrp.dynamics import nyquist_samples, singlet_yield_mean
from nvrp.errors import ConfigError
from nvrp.hamiltonian import FieldConfig, SensorParams
from nvrp.presets import ALIASES, PRESETS, get_preset, one_nucleus_config
from nvrp.signal import solve_pair, with_exchange

from conftest import skew_null_pair


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


def test_schema_error_exit_code(tmp_path, capsys):
    # field sweeps run on the sensor axis, so they take no field angles
    field_sweep = _minimal_angle_sweep(
        kind="field-sweep", params={"b_grid": [0.1, 1.0, 3], "theta_deg": 60}
    )
    # the top-level seed is the only seed
    ensemble = _minimal_angle_sweep(kind="ensemble", params={"n_molecules": 1, "seed": 3})
    # the sensor depth reaches no output, so it is not a key
    depth = _minimal_angle_sweep(sensor={"t2": 1e-5, "depth_nm": 5.0})
    for payload, key in (
        ({"kind": "angle-sweep", "bogus": 1}, "bogus"),
        (field_sweep, "params.theta_deg"),
        (ensemble, "params.seed"),
        (depth, "sensor.depth_nm"),
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


@pytest.mark.parametrize("t_max_us, code", [(1.0, 0), (None, 2)], ids=["t-max", "no-t-max"])
def test_time_trace_zero_rate(tmp_path, capsys, t_max_us, code):
    payload = _minimal_angle_sweep(kind="time-trace")
    payload["params"] = {"b_mT": 0.05, "n_samples": 1024}
    if t_max_us is not None:
        payload["params"]["t_max_us"] = t_max_us
    payload["radical_pair"]["recombination_rate"] = 0.0
    del payload["radical_pair"]["lifetime_us"]
    path = _write_config(tmp_path, payload)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == code
    if code == 0:
        assert len(_read_csv_rows(tmp_path / "o" / "time_trace.csv")) == 1 + 1024
    else:
        assert "t_max_us" in capsys.readouterr().err


def test_orthogonality_loss_exits_4(tmp_path, capsys, monkeypatch):
    # Zeeman-only pair: two zero levels, whose mixing the residual cannot see.
    # At phi = 0 the Hamiltonian is real, so the corrupted V is real too.
    payload = {
        "kind": "angle-sweep",
        "radical_pair": {"j_exchange_mT": 0.0, "lifetime_us": 5.0},
        "params": {"b_mT": 0.05, "theta_deg": [0.0, 180.0, 3], "r_nm": 10.0},
    }
    path = _write_config(tmp_path, payload)
    corrupted = skew_null_pair(dynamics._eigh)
    dtypes = []

    def recording(h):
        w, v = corrupted(h)
        dtypes.append(v.dtype)
        return w, v

    monkeypatch.setattr(dynamics, "_eigh", recording)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "orthogonality" in capsys.readouterr().err
    assert dtypes == [np.float64]


@pytest.mark.parametrize(
    "kind, params",
    [
        ("peak-count", {"r_nm": 5.0, "b_grid": [0.5, 1.0, 0]}),
        ("field-sweep", {"r_nm": 10.0, "b_grid": [0.5, 1.0, 0]}),
    ],
    ids=["peak-count", "field-sweep"],
)
def test_empty_grid_exits_2(tmp_path, capsys, kind, params):
    path = _write_config(tmp_path, _minimal_angle_sweep(kind=kind, params=params))
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "params.b_grid" in err and "[0.5, 1.0, 0]" in err


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
        prop, _ = solve_pair(rp, FieldConfig(0.05, 0.0, 0.0))
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
    """A params mapping that records the keys read through ``get``."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


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


def test_runners_cover_kinds_and_read_their_params(tmp_path):
    assert set(cli._RUNNERS) == set(KINDS) == set(_SMALL_PARAMS)
    for kind in KINDS:
        params = _RecordingParams(_SMALL_PARAMS[kind])
        cfg = ExperimentConfig(
            kind=kind, radical_pair=one_nucleus_config("axial3"), sensor=SensorParams(),
            params=params,
        )
        run(cfg, tmp_path / kind)
        # "system" is resolved by presets before the runner starts
        assert params.read == set(_KIND_PARAMS[kind]) - {"system"}, kind


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


def test_shipped_example_configs_load():
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "configs"
    files = sorted(root.glob("*.json"))
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
