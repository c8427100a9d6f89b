"""Command-line runner: presets, config files, CSV and manifest emission.

Exit codes: 0 success, 2 configuration error, 3 infeasible physics,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config, validate_params
from .dynamics import _expectation_series, _pair_spin_ops, nyquist_samples, singlet_yield_mean
from .ensemble import EnsembleSpec, OrientationMode, ensemble_sweep
from .errors import ConfigError, NumericalError, PhysicsError
from .hamiltonian import (
    FieldConfig,
    RadicalPairConfig,
    SensorParams,
    build_rp_hamiltonian,
    coupling_geometry,
)
from .oracle import MAX_DIM, rk4_evolve
from .presets import (
    Preset,
    get_preset,
    grid_from_spec,
    list_presets,
    one_nucleus_config,
    system_config,
    two_nucleus_config,
)
from .signal import (
    _default_t_max,
    aligned_prefactor,
    observable_series,
    signal_single_molecule,
    single_molecule_prefactor,
    solve_pair,
    spectrum,
    sweep_field_angle,
    sweep_field_magnitude,
    with_exchange,
    with_lifetime,
)
from .strongcoupling import count_resolved_peaks, level_structure, peak_contrast


def _fmt(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        # -0.0 (e.g. d_ci = 0 times a negative mean) carries only the sign of round-off
        return "0" if value == 0 else f"{value:.12g}"
    return str(value)


#: rows formatted and written at a time by :func:`write_csv`
CSV_BLOCK_ROWS = 4096


def _format_column(values: Any) -> list[str]:
    """``_fmt`` of every value; float arrays are formatted whole."""
    col = np.asarray(values)
    if col.dtype.kind != "f":
        return [_fmt(v) for v in values]
    # + 0.0 turns -0.0 into 0.0, which ".12g" writes as "0"
    return [format(v, ".12g") for v in (col + 0.0).tolist()]


def write_csv(
    path: Path,
    comments: dict[str, Any],
    header: Sequence[str],
    columns: Sequence[Any],
) -> Path:
    """CSV with a leading '# key: value' comment block; one entry of ``columns`` per header.

    Rows are formatted and written ``CSV_BLOCK_ROWS`` at a time.
    """
    n = len(columns[0])
    with open(path, "w", newline="") as fh:
        for key, value in comments.items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, n, CSV_BLOCK_ROWS):
            block = [_format_column(col[lo : lo + CSV_BLOCK_ROWS]) for col in columns]
            writer.writerows(zip(*block))
    return path


def _base_comments(cfg: ExperimentConfig) -> dict[str, Any]:
    return {
        "generator": f"nvrp {__version__}",
        "kind": cfg.kind,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "units": "fields mT, angles rad unless noted, signals Tesla",
    }


def _theta_grid(params: dict, default: list[float] | None = None) -> np.ndarray:
    spec = params.get("theta_deg", default or [0.0, 180.0, 181])
    return np.deg2rad(grid_from_spec(spec))


def _prefactor(cfg: ExperimentConfig) -> float:
    scale = cfg.params.get("scale", "single_molecule")
    if scale == "single_molecule":
        return single_molecule_prefactor(float(cfg.params.get("r_nm", 10.0)))
    if scale == "max_aligned":
        return aligned_prefactor(cfg.sensor)
    raise ConfigError(f"params.scale: unknown scale {scale!r}")


def _require_rp(cfg: ExperimentConfig) -> RadicalPairConfig:
    if cfg.radical_pair is None:
        raise ConfigError(
            f"radical_pair: required for kind {cfg.kind!r} "
            "(give the section or params.system in a preset)"
        )
    return cfg.radical_pair


def _sweep_columns(result) -> list[np.ndarray]:
    """The columns of ``_SWEEP_HEADER``; the normalised ones are NaN when absent."""
    x = result.x_integrated
    norm = result.normalized
    if norm is None:
        norm = np.full_like(x, np.nan)
    return [result.grid, x[0], x[1], x[2], norm[0], norm[2]]


def _concat_columns(parts: Sequence[Sequence[Any]]) -> list[np.ndarray]:
    """Stack column sets: column i of the result is column i of every part in turn."""
    return [np.concatenate(cols) for cols in zip(*parts)]


_SWEEP_HEADER = ["sweep_value", "X_x_I", "X_y_I", "X_z_I", "X_x_I_norm", "X_z_I_norm"]


def run_coupling_map(cfg: ExperimentConfig, out: Path, threads: int) -> list[Path]:
    r_lo, r_hi, nr = cfg.params.get("r_nm", [5.0, 30.0, 26])
    radii = np.linspace(r_lo, r_hi, int(nr))
    thetas = np.deg2rad(grid_from_spec(cfg.params.get("theta_deg", [0.0, 180.0, 37])))
    r_col, th_col = (a.ravel() for a in np.meshgrid(radii, thetas, indexing="ij"))
    g_col = [coupling_geometry(float(r), float(th), 0.0).g_eff / (2 * np.pi)
             for r, th in zip(r_col, th_col)]
    header = ["r_nm", "theta_rad", "g_eff_over_2pi_hz"]
    comments = _base_comments(cfg) | {"columns": ", ".join(header)}
    return [write_csv(out / "coupling_map.csv", comments, header, [r_col, th_col, g_col])]


def _t_max(cfg: ExperimentConfig) -> float | None:
    value = cfg.params.get("t_max_us")
    return None if value is None else float(value) * 1e-6


def run_time_trace(cfg: ExperimentConfig, out: Path, threads: int) -> list[Path]:
    rp = _require_rp(cfg)
    b = float(cfg.params.get("b_mT", 1.16))
    theta = np.deg2rad(float(cfg.params.get("theta_deg", 0.0)))
    phi = np.deg2rad(float(cfg.params.get("phi_deg", 0.0)))
    r_nm = float(cfg.params.get("r_nm", 10.0))
    n = int(cfg.params.get("n_samples", 32768))
    t_max = _t_max(cfg)
    if t_max is None:
        if rp.effective_decay_rate == 0:
            raise ConfigError("params.t_max_us: required when the decay rate is zero")
        t_max = _default_t_max(rp)
    t_grid = np.linspace(0.0, t_max, n, endpoint=False)
    series = observable_series(rp, FieldConfig(b, theta, phi), t_grid)
    trace = signal_single_molecule(series, r_nm)
    spec = spectrum(trace)
    comments = _base_comments(cfg) | {"b_mT": b, "r_nm": r_nm}
    header = ["t_s", "X_x_T", "X_y_T", "X_z_T"]
    p1 = write_csv(out / "time_trace.csv", comments, header, [t_grid, *trace.x])
    comments |= {"note": "one-sided DFT magnitude, Tesla*s"}
    header = ["freq_hz", "mag_x", "mag_y", "mag_z"]
    p2 = write_csv(out / "spectrum.csv", comments, header, [spec.freq_hz, *spec.magnitude])
    return [p1, p2]


def run_field_sweep(cfg: ExperimentConfig, out: Path, threads: int) -> list[Path]:
    rp = _require_rp(cfg)
    grid = grid_from_spec(cfg.params.get("b_grid", [0.01, 50.0, 60]), log=True)
    result = sweep_field_magnitude(
        rp,
        b_grid_mT=grid,
        prefactor=_prefactor(cfg),
        t_max=_t_max(cfg),
        densify=bool(cfg.params.get("densify", False)),
        threads=threads,
    )
    comments = _base_comments(cfg) | {"sweep": "field magnitude, mT"}
    return [write_csv(out / "field_sweep.csv", comments, _SWEEP_HEADER, _sweep_columns(result))]


def run_angle_sweep(cfg: ExperimentConfig, out: Path, threads: int) -> list[Path]:
    rp = _require_rp(cfg)
    b = float(cfg.params.get("b_mT", 1.16))
    thetas = _theta_grid(cfg.params)
    result = sweep_field_angle(
        rp,
        b_mT=b,
        theta_grid=thetas,
        phi=np.deg2rad(float(cfg.params.get("phi_deg", 0.0))),
        prefactor=_prefactor(cfg),
        t_max=_t_max(cfg),
        normalize=bool(cfg.params.get("normalize", True)),
        threads=threads,
    )
    comments = _base_comments(cfg) | {"sweep": "field polar angle, rad", "b_mT": b}
    return [write_csv(out / "angle_sweep.csv", comments, _SWEEP_HEADER, _sweep_columns(result))]


def run_ensemble(cfg: ExperimentConfig, out: Path, threads: int) -> list[Path]:
    rp = _require_rp(cfg)
    grid = grid_from_spec(cfg.params.get("b_grid", [0.05, 10.0, 10]), log=True)
    n_real = int(cfg.params.get("n_realizations", 50))
    n_mol = cfg.params.get("n_molecules")
    r_range = tuple(cfg.params.get("r_range_nm", (cfg.sensor.r1_nm, cfg.sensor.r2_nm)))
    parts = []
    for mode in (OrientationMode.ALIGNED, OrientationMode.HAAR):
        spec = EnsembleSpec(
            n_realizations=n_real,
            orientation_mode=mode,
            r_range_nm=r_range,
            seed=cfg.seed,
            density_per_nm3=None if n_mol is not None else cfg.sensor.density_per_nm3,
            n_molecules=None if n_mol is None else int(n_mol),
        )
        stats = ensemble_sweep(rp, spec, b_grid_mT=grid, threads=threads)
        n = len(stats.grid)
        parts.append([stats.grid, stats.mean[0], stats.variance[0], stats.mean[2],
                      stats.variance[2], [mode.value] * n, [cfg.seed] * n])
    comments = _base_comments(cfg) | {"sweep": "field magnitude, mT"}
    header = ["sweep_value", "mean_X_x_I", "var_X_x_I", "mean_X_z_I", "var_X_z_I", "mode", "seed"]
    return [write_csv(out / "ensemble.csv", comments, header, _concat_columns(parts))]


def run_peak_count(cfg: ExperimentConfig, out: Path, threads: int) -> list[Path]:
    rp = _require_rp(cfg)
    r_nm = float(cfg.params.get("r_nm", 5.0))
    theta = np.deg2rad(float(cfg.params.get("theta_deg", 0.0)))
    phi = np.deg2rad(float(cfg.params.get("phi_deg", 0.0)))
    grid = grid_from_spec(cfg.params.get("b_grid", [0.05, 10.0, 24]), log=True)
    t_max = _default_t_max(rp)
    gamma = cfg.sensor.gamma_hz
    geom = coupling_geometry(r_nm, theta, phi)
    i_mid = len(grid) // 2  # the contrast traces are taken at the central field point
    parts = []
    for i, b in enumerate(grid):
        levels = level_structure(rp, FieldConfig(float(b), theta, phi), geom, cfg.sensor)
        if i == i_mid:
            mid_levels = levels
        peaks = count_resolved_peaks(levels.transition_freqs_hz, gamma)
        parts.append([np.full(peaks.count, b), peaks.centers_hz, peaks.multiplicities])
    comments = _base_comments(cfg) | {"gamma_hz": gamma, "r_nm": r_nm}
    header = ["b_mT", "peak_center_offset_hz", "multiplicity"]
    p1 = write_csv(out / "peak_count.csv", comments, header, _concat_columns(parts))
    b_mid = float(grid[i_mid])
    t_grid = np.linspace(0.0, t_max, 2048, endpoint=False)
    contrasts = peak_contrast(mid_levels, rp.initial_state, t_grid)
    comments = _base_comments(cfg) | {"b_mT": b_mid, "note": "C_n(t) per transition"}
    header = ["t_s"] + [f"C_{n}" for n in range(contrasts.shape[0])]
    p2 = write_csv(out / "peak_contrast.csv", comments, header, [t_grid, *contrasts])
    return [p1, p2]


def _anisotropy_cases(params: dict) -> tuple[list, dict[str, Any]]:
    j = float(params.get("j_mT", 0.25))
    cases = params.get("cases", ["iso", "axial1", "axial2", "axial3", "rhombic"])
    pairs = [(case, one_nucleus_config(case, j_exchange_mT=j)) for case in cases]
    return pairs, {"j_mT": j, "sweep": "theta, rad"}


def _exchange_cases(params: dict) -> tuple[list, dict[str, Any]]:
    case = params.get("case", "axial3")
    r_rp = params.get("r_rp_nm", 2.5)
    base = one_nucleus_config(case, r_rp_nm=r_rp)
    j_grid = [float(j) for j in params.get("j_grid_mT", [0.0, 0.25, 0.5, 1.0])]
    return [(j, with_exchange(base, j)) for j in j_grid], {"case": case, "r_rp_nm": r_rp}


def _lifetime_cases(params: dict) -> tuple[list, dict[str, Any]]:
    case = params.get("case", "axial3")
    taus_us = [float(t) for t in params.get("tau_us", [1.0, 2.5, 5.0, 10.0, 25.0])]
    if any(t2 <= t1 for t1, t2 in zip(taus_us, taus_us[1:])):
        raise ConfigError("params.tau_us: lifetime grid must be strictly increasing")
    base = two_nucleus_config(case)
    return [(tau, with_lifetime(base, tau * 1e-6)) for tau in taus_us], {"case": case}


#: kind -> (scanned column, its (value, pair) list and comments from params,
#: default theta grid, write a summary CSV instead of normalising)
_SCANS = {
    "anisotropy-sweep": ("case", _anisotropy_cases, [0.0, 180.0, 181], False),
    "exchange-sweep": ("j_mT", _exchange_cases, [0.0, 180.0, 61], True),
    "lifetime-sweep": ("tau_us", _lifetime_cases, [0.0, 180.0, 61], True),
}


def _yield_at_theta0(rp: RadicalPairConfig, b_mT: float) -> float:
    prop, _ = solve_pair(rp, FieldConfig(b_mT, 0.0, 0.0))
    t_max = _default_t_max(rp)
    n = nyquist_samples(prop, t_max)
    return singlet_yield_mean(prop, rp.initial_state, t_max, n)


def run_parameter_scan(cfg: ExperimentConfig, out: Path, threads: int) -> list[Path]:
    """One angle sweep per value of a scanned pair parameter (see ``_SCANS``)."""
    column, make_cases, theta_default, summarize = _SCANS[cfg.kind]
    pairs, scan_comments = make_cases(cfg.params)
    b = float(cfg.params.get("b_mT", 0.05))
    thetas = _theta_grid(cfg.params, theta_default)
    pref = single_molecule_prefactor(float(cfg.params.get("r_nm", 10.0)))
    parts, summary = [], []
    for value, rp in pairs:
        result = sweep_field_angle(
            rp, b_mT=b, theta_grid=thetas, phi=0.0, prefactor=pref,
            normalize=not summarize, threads=threads,
        )
        parts.append([[value] * len(thetas), *_sweep_columns(result)])
        if summarize:
            peak = float(np.max(np.abs(result.x_integrated)))
            summary.append([[value], [peak], [_yield_at_theta0(rp, b)]])
    stem = cfg.kind.removesuffix("-sweep")
    comments = _base_comments(cfg) | {"b_mT": b} | scan_comments
    header = [column] + _SWEEP_HEADER
    files = [write_csv(out / f"{stem}_sweep.csv", comments, header, _concat_columns(parts))]
    if summarize:
        note = {"note": "max over theta grid and both components"}
        header = [column, "max_abs_X_I", "singlet_yield_theta0"]
        path = out / f"{stem}_summary.csv"
        files.append(write_csv(path, _base_comments(cfg) | note, header, _concat_columns(summary)))
    return files


_RUNNERS = {
    "coupling-map": run_coupling_map,
    "time-trace": run_time_trace,
    "field-sweep": run_field_sweep,
    "angle-sweep": run_angle_sweep,
    "ensemble": run_ensemble,
    "peak-count": run_peak_count,
    "anisotropy-sweep": run_parameter_scan,
    "exchange-sweep": run_parameter_scan,
    "lifetime-sweep": run_parameter_scan,
}


def run_oracle_check(cfg: ExperimentConfig, out: Path) -> list[Path]:
    """Cross-check the eigen-propagator against the RK4 reference."""
    rp = cfg.radical_pair
    if rp is None:
        rp = one_nucleus_config(cfg.params.get("cases", ["axial3"])[0])
    layout = rp.layout()
    if layout.total_dimension > MAX_DIM:
        raise PhysicsError(
            f"oracle cross-check handles dim <= {MAX_DIM}, system has "
            f"{layout.total_dimension}"
        )
    b = float(cfg.params.get("b_mT", 0.05))
    field = FieldConfig(b, 0.0, 0.0)
    prop, rho0 = solve_pair(rp, field)
    h = build_rp_hamiltonian(rp, field)  # RK4 integrates H itself

    lam_max = float(np.max(np.abs(prop.eigenvalues)))
    dt = 0.02 / max(lam_max, rp.effective_decay_rate, 1.0)
    t_max = 2e-6
    n_steps = max(int(round(t_max / dt)), 100)
    dt = t_max / n_steps
    ops = _pair_spin_ops(layout)
    res = rk4_evolve(rho0, h, rp.effective_decay_rate, dt, t_max, observables=ops)
    exact = _expectation_series(prop, rho0, ops, res.t_grid)
    deviation = float(np.max(np.abs(exact - res.observables)))
    path = write_csv(
        out / "oracle_check.csv",
        _base_comments(cfg) | {"dt_s": dt, "t_max_s": t_max},
        ["max_abs_deviation", "dt_s", "n_steps"],
        [[deviation], [dt], [n_steps]],
    )
    print(f"oracle cross-check: max observable deviation {deviation:.3e}")
    if deviation > 1e-6:
        raise NumericalError(
            f"eigen-propagator and RK4 oracle disagree: {deviation:.3e} > 1e-6"
        )
    return [path]


def experiment_from_preset(preset: Preset, seed: int | None) -> ExperimentConfig:
    params = dict(preset.params)
    validate_params(preset.kind, params)
    rp = system_config(params["system"]) if "system" in params else None
    return ExperimentConfig(
        kind=preset.kind,
        radical_pair=rp,
        sensor=preset.sensor if preset.sensor is not None else SensorParams(),
        params=params,
        seed=seed if seed is not None else 0,
    )


def run(
    cfg: ExperimentConfig, out_dir: str | Path, threads: int = 1, oracle: bool = False
) -> list[Path]:
    """Execute one experiment; returns the list of written files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    if oracle:
        files = run_oracle_check(cfg, out)
    else:
        files = _RUNNERS[cfg.kind](cfg, out, threads)
    manifest = {
        "config_hash": cfg.config_hash(),
        "config": cfg.canonical_dict(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": round(time.time() - started, 3),
        "outputs": [f.name for f in files],
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return files + [manifest_path]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nvrp",
        description="Radical-pair spin dynamics and sensor-detectable signal sweeps",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--preset", help="named experiment preset")
    group.add_argument("--config", help="JSON experiment file")
    group.add_argument("--list", action="store_true", help="list presets and exit")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    parser.add_argument(
        "--oracle", action="store_true", help="run the RK4 cross-check instead of the experiment"
    )
    args = parser.parse_args(argv)

    try:
        if args.list or (args.preset is None and args.config is None):
            for name, desc in list_presets():
                print(f"{name:36s} {desc}")
            return 0
        if args.preset:
            try:
                preset = get_preset(args.preset)
            except KeyError as exc:
                raise ConfigError(str(exc.args[0])) from exc
            cfg = experiment_from_preset(preset, args.seed)
        else:
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
        files = run(cfg, args.out, threads=args.threads, oracle=args.oracle)
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for f in files:
        print(f"wrote {f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
