"""Every output check passes on real nvrp output and fails on one injected corruption.

Outputs come from ``nvrp.cli.run`` on small configurations of the same
experiment kinds the workloads run.  A corruption is one sign flipped or
one value moved by 1e-6 of itself.  Where the checked value is exactly 0
it moves by 1e-6 of its column's scale instead, and a bound or range
check gets one value 1e-6 past its limit.
"""

import math

import numpy as np
import pytest
from nvrp import cli
from nvrp.config import ExperimentConfig
from nvrp.hamiltonian import FieldConfig, SensorParams
from nvrp.presets import STRONG_SENSOR, one_nucleus_config, strongcoupling_config
from nvrp.signal import integrated_observables
from nvrp.spincore import Rotation

import checks
import reference as ref
import run
from workloads import pair_configs

AXIAL3 = one_nucleus_config("axial3")
SPEC = ref.spec_from_config(AXIAL3)

CONFIGS = {
    "angle": ExperimentConfig(
        "angle-sweep", AXIAL3, SensorParams(),
        {"b_mT": 0.05, "theta_deg": [0.0, 180.0, 9], "normalize": True, "r_nm": 10.0},
    ),
    "field": ExperimentConfig(
        "field-sweep", AXIAL3, SensorParams(),
        {"b_grid": [0.1, 2.0, 3], "scale": "single_molecule", "r_nm": 10.0},
    ),
    "ensemble": ExperimentConfig(
        "ensemble", AXIAL3, SensorParams(),
        {"b_grid": [0.1, 2.0, 3], "n_realizations": 3, "n_molecules": 2, "seed": 5},
    ),
    "coupling": ExperimentConfig(
        "coupling-map", None, SensorParams(), {"r_nm": [5.0, 10.0, 3], "theta_deg": [0.0, 180.0, 5]}
    ),
    "trace": ExperimentConfig(
        "time-trace", AXIAL3, SensorParams(),
        {"b_mT": 0.05, "theta_deg": 30.0, "r_nm": 10.0, "n_samples": 8192},
    ),
    "peaks": ExperimentConfig(
        "peak-count", strongcoupling_config(), STRONG_SENSOR, {"r_nm": 5.0, "b_grid": [0.5, 2.0, 2]}
    ),
    "exchange": ExperimentConfig(
        "exchange-sweep", None, SensorParams(),
        {"case": "axial3", "j_grid_mT": [0.25, 0.5], "r_rp_nm": 2.5, "b_mT": 0.05,
         "theta_deg": [0.0, 180.0, 7], "r_nm": 10.0},
    ),
    "lifetime": ExperimentConfig(
        "lifetime-sweep", None, SensorParams(),
        {"case": "axial3", "tau_us": [2.5, 5.0], "b_mT": 0.05, "theta_deg": [0.0, 180.0, 5], "r_nm": 10.0},
    ),
}


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    for name, cfg in CONFIGS.items():
        cli.run(cfg, root / name)
    return root


def table(out, name, csv_name):
    return checks.read_table(out / name / f"{csv_name}.csv")


def largest(values) -> int:
    return int(np.argmax(np.abs(values)))


def copied(t):
    return checks.Table(dict(t.comments), {k: v.copy() for k, v in t.columns.items()})


def moved(t, column, row, factor=1.0 + 1e-6, value=None):
    bad = copied(t)
    bad.columns[column][row] = value if value is not None else bad.columns[column][row] * factor
    return bad


def flipped(t, column, row):
    return moved(t, column, row, factor=-1.0)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_every_experiment_passes_all_its_checks(out, name):
    assert checks.check_experiment(CONFIGS[name], out / name, np.random.default_rng(0)) == []


def test_zero_columns(out):
    t = table(out, "angle", "angle_sweep")
    assert checks.zero_columns(t, ("X_y_I",)) == []
    scale = np.max(np.abs(t["X_z_I"]))
    assert checks.zero_columns(moved(t, "X_y_I", 3, value=1e-6 * scale), ("X_y_I",))
    f = table(out, "field", "field_sweep")
    assert checks.zero_columns(moved(f, "X_x_I", 1, value=1e-6 * scale), ("X_x_I", "X_y_I"))


def test_antisymmetry(out):
    t = table(out, "angle", "angle_sweep")
    assert checks.antisymmetry(t) == []
    assert checks.antisymmetry(flipped(t, "X_z_I", 1))
    assert checks.antisymmetry(moved(t, "X_x_I", largest(t["X_x_I"])))


def test_normalized_columns(out):
    t = table(out, "angle", "angle_sweep")
    grid = checks.theta_grid([0.0, 180.0, 9])
    assert checks.normalized_columns(t, True, grid) == []
    row = largest(np.nan_to_num(t["X_x_I_norm"]))
    assert checks.normalized_columns(moved(t, "X_x_I_norm", row), True, grid)
    assert checks.normalized_columns(flipped(t, "X_z_I_norm", 2), True, grid)
    middle = t["sweep_value"].shape[0] // 2  # theta = pi/2, where d_cx = 0
    assert checks.normalized_columns(moved(t, "X_x_I_norm", middle, value=1e-3), True, grid)
    s = table(out, "exchange", "exchange_sweep").where("j_mT", 0.25)
    grid = checks.theta_grid([0.0, 180.0, 7])
    assert checks.normalized_columns(s, False, grid) == []
    assert checks.normalized_columns(moved(s, "X_z_I_norm", 0, value=0.0), False, grid)


def test_reference_rows_of_an_angle_sweep(out):
    t = table(out, "angle", "angle_sweep")
    grid = checks.theta_grid([0.0, 180.0, 9])
    rows = [1, 2, 4]
    assert checks.reference_rows(t, rows, SPEC, 10.0, grid, 0.05) == []
    assert checks.reference_rows(moved(t, "X_z_I", 2), rows, SPEC, 10.0, grid, 0.05)
    assert checks.reference_rows(flipped(t, "X_x_I", 1), rows, SPEC, 10.0, grid, 0.05)
    assert checks.reference_rows(moved(t, "sweep_value", 3), rows, SPEC, 10.0, grid, 0.05)


def test_reference_rows_of_a_field_sweep(out):
    t = table(out, "field", "field_sweep")
    grid = checks.field_grid([0.1, 2.0, 3])
    assert checks.reference_rows(t, [0, 2], SPEC, 10.0, grid) == []
    assert checks.reference_rows(moved(t, "X_z_I", 2), [0, 2], SPEC, 10.0, grid)


def test_aligned_ensemble_checks(out):
    t = table(out, "ensemble", "ensemble")
    aligned_row = int(np.flatnonzero(t["mode"] == "aligned")[1])
    assert checks.aligned_scale(t, SPEC, 2, (5.0, 20.0)) == []
    assert checks.aligned_scale(moved(t, "mean_X_z_I", aligned_row), SPEC, 2, (5.0, 20.0))
    unit_error = copied(t)
    unit_error.columns["mean_X_z_I"] *= 1e3  # consistent across fields, out of bounds
    assert checks.aligned_scale(unit_error, SPEC, 2, (5.0, 20.0))
    assert checks.aligned_relative_variance(t) == []
    assert checks.aligned_relative_variance(moved(t, "var_X_z_I", aligned_row))
    scale = np.max(np.abs(t["mean_X_z_I"]))
    assert checks.zero_columns(t, ("mean_X_x_I", "var_X_x_I")) == []
    assert checks.zero_columns(moved(t, "mean_X_x_I", 4, value=1e-6 * scale), ("mean_X_x_I",))


def test_rotated_points():
    points = checks.haar_points(np.random.default_rng(1), [0.1, 2.0], 2)
    values = [
        integrated_observables(AXIAL3, FieldConfig(b, theta, 0.0), Rotation(rot))
        for b, theta, rot in points
    ]
    assert checks.rotated_points(values, points, SPEC) == []
    bad = [v.copy() for v in values]
    bad[1][2] *= 1.0 + 1e-6
    assert checks.rotated_points(bad, points, SPEC)
    bad = [v.copy() for v in values]
    bad[0][0] *= -1.0
    assert checks.rotated_points(bad, points, SPEC)


def test_haar_rotation_is_proper():
    rot = checks.haar_rotation(np.random.default_rng(7))
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-14)
    assert np.linalg.det(rot) == pytest.approx(1.0)


def test_coupling_map(out):
    t = table(out, "coupling", "coupling_map")
    assert checks.coupling_map(t) == []
    assert checks.coupling_map(moved(t, "g_eff_over_2pi_hz", 7))


def test_trace_checks(out):
    trace = table(out, "trace", "time_trace")
    spectrum = table(out, "trace", "spectrum")
    scale = np.max(np.abs(trace["X_z_T"]))
    assert checks.trace_start(trace) == []
    assert checks.trace_start(moved(trace, "X_z_T", 0, value=1e-6 * scale))

    k, theta = SPEC.k_eff, math.radians(30.0)
    assert checks.trace_bound(trace, k, 10.0, theta) == []
    row = 100
    limit = ref.single_molecule_scale(10.0) * abs(ref.angular_factors(theta)[0]) * math.exp(-k * trace["t_s"][row])
    assert checks.trace_bound(moved(trace, "X_x_T", row, value=limit * (1 + 1e-6)), k, 10.0, theta)

    assert checks.spectrum_zero_bin(trace, spectrum) == []
    assert checks.spectrum_zero_bin(trace, moved(spectrum, "mag_z", 0))

    rows = [5, 4000]
    assert checks.trace_reference(trace, rows, SPEC, 0.05, theta, 10.0) == []
    assert checks.trace_reference(moved(trace, "X_z_T", 4000), rows, SPEC, 0.05, theta, 10.0)
    assert checks.trace_reference(flipped(trace, "X_x_T", 5), rows, SPEC, 0.05, theta, 10.0)


def test_peak_checks(out):
    counts = table(out, "peaks", "peak_count")
    assert checks.multiplicities(counts, 64) == []
    assert checks.multiplicities(moved(counts, "multiplicity", 0, value=counts["multiplicity"][0] + 1), 64)
    contrast = table(out, "peaks", "peak_contrast")
    assert checks.contrast_sums(contrast) == []
    row = 10
    column = max((k for k in contrast.columns if k.startswith("C_")), key=lambda k: abs(contrast[k][row]))
    assert checks.contrast_sums(moved(contrast, column, row))


@pytest.mark.parametrize("name", ["exchange", "lifetime"])
def test_yield_checks(out, name):
    summary = table(out, name, f"{name}_summary")
    specs = [ref.spec_from_config(rp) for rp in pair_configs(CONFIGS[name])]
    assert checks.yield_range(summary) == []
    assert checks.yield_range(moved(summary, "singlet_yield_theta0", 0, value=1.0 + 1e-6))
    assert checks.yield_reference(summary, specs, 0.05) == []
    assert checks.yield_reference(moved(summary, "singlet_yield_theta0", 1), specs, 0.05)


def test_repetitions_must_write_identical_csvs():
    same = {"fig": {"a.csv": "1"}}
    main = {"errors": [], "hashes": [same, same, {"fig": {"a.csv": "2"}}]}
    assert run._operations(main, ["fig"], {"fig": []}) == (3, 1, False)
    main["hashes"][2] = same
    assert run._operations(main, ["fig"], {"fig": []}) == (3, 0, True)
    main["errors"] = [{"rep": 1, "label": "fig", "error": ""}]
    assert run._operations(main, ["fig"], {"fig": []}) == (3, 1, True)
