"""Command-line runner: presets, config files, CSV and manifest emission.

Exit codes: 0 success, 2 configuration error, 3 infeasible physics,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .config import ExperimentConfig, build_experiment, load_config, read_params
from .dynamics import _expectation_series, initial_state, singlet_yield_mean
from .ensemble import EnsembleSpec, OrientationMode, ensemble_sweep
from .errors import ConfigError, NumericalError, PhysicsError
from .hamiltonian import (
    ELECTRON_PAIR_SPIN,
    FieldConfig,
    RadicalPairConfig,
    SensorParams,
    build_rp_hamiltonian,
    coupling_geometry,
)
from .oracle import MAX_DIM, rk4_evolve
from .presets import (
    EARTH_FIELD_MT,
    Preset,
    get_preset,
    list_presets,
    one_nucleus_config,
    two_nucleus_config,
)
from .signal import (
    _default_t_max,
    aligned_prefactor,
    observable_series,
    single_molecule_prefactor,
    solve_pair,
    spectrum,
    sweep_field_angle,
    sweep_field_magnitude,
    with_exchange,
    with_lifetime,
)
from .strongcoupling import count_resolved_peaks, level_structure, peak_contrast


#: rows formatted and written at a time by :func:`write_csv`
CSV_BLOCK_ROWS = 4096


def _format_column(values: Any) -> list[str]:
    """Every value as text: floats with 12 significant digits, anything else by ``str``."""
    col = np.asarray(values)
    if col.dtype.kind != "f":
        return [str(v) for v in values]
    # + 0.0 turns -0.0 (e.g. d_ci = 0 times a negative mean), which carries only the sign
    # of round-off, into 0.0, which ".12g" writes as "0"
    return [format(v, ".12g") for v in (col + 0.0).tolist()]


def write_csv(
    path: Path,
    comments: dict[str, Any],
    header: Sequence[str],
    columns: Sequence[Any],
) -> Path:
    """CSV with a leading '# key: value' comment block; one entry of ``columns`` per header.

    Rows are formatted and written ``CSV_BLOCK_ROWS`` at a time, as the
    bytes ``csv.writer`` would write: comma-separated, CRLF-terminated.
    No field is quoted; numbers never need it, and the only string
    columns hold names from fixed option sets (``config.PARAMS``).
    """
    n = len(columns[0])
    with open(path, "w", newline="") as fh:
        for key, value in comments.items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            block = [_format_column(col[lo : lo + CSV_BLOCK_ROWS]) for col in columns]
            fh.writelines(",".join(row) + "\r\n" for row in zip(*block))
    return path


def _base_comments(cfg: ExperimentConfig) -> dict[str, Any]:
    return {
        "generator": f"nvrp {__version__}",
        "kind": cfg.kind,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "units": "fields mT, angles rad unless noted, signals Tesla",
    }


#: an experiment's params as ``config.read_params`` returns them
Params = dict[str, Any]


def _prefactor(cfg: ExperimentConfig, p: Params) -> float:
    if p["scale"] == "max_aligned":
        return aligned_prefactor(cfg.sensor)
    return single_molecule_prefactor(p["r_nm"])


def _window(rp: RadicalPairConfig, p: Params) -> float:
    """The signal window T in s: ``params.t_max_us`` if the kind takes and gives it, else 5/k."""
    if "t_max_us" in p:
        if p["t_max_us"] is not None:
            return p["t_max_us"] * 1e-6
        if rp.effective_decay_rate == 0:
            raise ConfigError("params.t_max_us: required when the decay rate is zero")
    return _default_t_max(rp)


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


def run_coupling_map(cfg: ExperimentConfig, p: Params, out: Path, threads: int) -> list[Path]:
    thetas = np.deg2rad(p["theta_deg"])
    r_col, th_col = (a.ravel() for a in np.meshgrid(p["r_nm"], thetas, indexing="ij"))
    g_col = [coupling_geometry(float(r), float(th), 0.0).g_eff / (2 * np.pi)
             for r, th in zip(r_col, th_col)]
    header = ["r_nm", "theta_rad", "g_eff_over_2pi_hz"]
    comments = _base_comments(cfg) | {"columns": ", ".join(header)}
    return [write_csv(out / "coupling_map.csv", comments, header, [r_col, th_col, g_col])]


def run_time_trace(cfg: ExperimentConfig, p: Params, out: Path, threads: int) -> list[Path]:
    rp = cfg.radical_pair
    b, r_nm = p["b_mT"], p["r_nm"]
    theta, phi = np.deg2rad(p["theta_deg"]), np.deg2rad(p["phi_deg"])
    t_grid = np.linspace(0.0, _window(rp, p), p["n_samples"], endpoint=False)
    x = single_molecule_prefactor(r_nm) * observable_series(rp, FieldConfig(b, theta, phi), t_grid)
    freq_hz, magnitude = spectrum(t_grid, x)
    comments = _base_comments(cfg) | {"b_mT": b, "r_nm": r_nm}
    header = ["t_s", "X_x_T", "X_y_T", "X_z_T"]
    p1 = write_csv(out / "time_trace.csv", comments, header, [t_grid, *x])
    comments |= {"note": "one-sided DFT magnitude, Tesla*s"}
    header = ["freq_hz", "mag_x", "mag_y", "mag_z"]
    p2 = write_csv(out / "spectrum.csv", comments, header, [freq_hz, *magnitude])
    return [p1, p2]


def run_field_sweep(cfg: ExperimentConfig, p: Params, out: Path, threads: int) -> list[Path]:
    rp = cfg.radical_pair
    result = sweep_field_magnitude(
        rp,
        b_grid_mT=p["b_grid"],
        prefactor=_prefactor(cfg, p),
        t_max=_window(rp, p),
        densify=p["densify"],
        threads=threads,
    )
    comments = _base_comments(cfg) | {"sweep": "field magnitude, mT"}
    return [write_csv(out / "field_sweep.csv", comments, _SWEEP_HEADER, _sweep_columns(result))]


def run_angle_sweep(cfg: ExperimentConfig, p: Params, out: Path, threads: int) -> list[Path]:
    rp = cfg.radical_pair
    b = p["b_mT"]
    result = sweep_field_angle(
        rp,
        b_mT=b,
        theta_grid=np.deg2rad(p["theta_deg"]),
        phi=np.deg2rad(p["phi_deg"]),
        prefactor=_prefactor(cfg, p),
        t_max=_window(rp, p),
        normalize=p["normalize"],
        threads=threads,
    )
    comments = _base_comments(cfg) | {"sweep": "field polar angle, rad", "b_mT": b}
    return [write_csv(out / "angle_sweep.csv", comments, _SWEEP_HEADER, _sweep_columns(result))]


def run_ensemble(cfg: ExperimentConfig, p: Params, out: Path, threads: int) -> list[Path]:
    n_mol = p["n_molecules"]
    r_range = tuple(p["r_range_nm"] or (cfg.sensor.r1_nm, cfg.sensor.r2_nm))
    parts = []
    for mode in (OrientationMode.ALIGNED, OrientationMode.HAAR):
        spec = EnsembleSpec(
            n_realizations=p["n_realizations"],
            orientation_mode=mode,
            r_range_nm=r_range,
            seed=cfg.seed,
            density_per_nm3=None if n_mol is not None else cfg.sensor.density_per_nm3,
            n_molecules=n_mol,
        )
        stats = ensemble_sweep(cfg.radical_pair, spec, b_grid_mT=p["b_grid"], threads=threads)
        n = len(stats.grid)
        parts.append([stats.grid, stats.mean[0], stats.variance[0], stats.mean[2],
                      stats.variance[2], [mode.value] * n, [cfg.seed] * n])
    comments = _base_comments(cfg) | {"sweep": "field magnitude, mT"}
    header = ["sweep_value", "mean_X_x_I", "var_X_x_I", "mean_X_z_I", "var_X_z_I", "mode", "seed"]
    return [write_csv(out / "ensemble.csv", comments, header, _concat_columns(parts))]


def run_peak_count(cfg: ExperimentConfig, p: Params, out: Path, threads: int) -> list[Path]:
    rp = cfg.radical_pair
    r_nm, grid = p["r_nm"], p["b_grid"]
    theta, phi = np.deg2rad(p["theta_deg"]), np.deg2rad(p["phi_deg"])
    t_max = _window(rp, p)
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
    step = t_grid[1] * mid_levels.propagator.spectral_spread / np.pi
    comments = _base_comments(cfg) | {
        "b_mT": b_mid,
        "note": "C_n(t) per transition",
        "sampling": f"t_s step {step:.3g}x the Nyquist interval pi/spread: the samples are "
        "exact, but above 1x C_n aliases under a Fourier transform",
    }
    header = ["t_s"] + [f"C_{n}" for n in range(contrasts.shape[0])]
    p2 = write_csv(out / "peak_contrast.csv", comments, header, [t_grid, *contrasts])
    return [p1, p2]


def _anisotropy_cases(p: Params) -> tuple[list, dict[str, Any]]:
    j = p["j_mT"]
    pairs = [(case, one_nucleus_config(case, j_exchange_mT=j)) for case in p["cases"]]
    return pairs, {"j_mT": j, "sweep": "theta, rad"}


def _exchange_cases(p: Params) -> tuple[list, dict[str, Any]]:
    case, r_rp = p["case"], p["r_rp_nm"]
    base = one_nucleus_config(case, r_rp_nm=r_rp)
    return [(j, with_exchange(base, j)) for j in p["j_grid_mT"]], {"case": case, "r_rp_nm": r_rp}


def _lifetime_cases(p: Params) -> tuple[list, dict[str, Any]]:
    base = two_nucleus_config(p["case"])
    pairs = [(tau, with_lifetime(base, tau * 1e-6)) for tau in p["tau_us"]]
    return pairs, {"case": p["case"]}


#: kind -> (scanned column, its (value, pair) list and comments from params,
#: write a summary CSV instead of normalising)
_SCANS = {
    "anisotropy-sweep": ("case", _anisotropy_cases, False),
    "exchange-sweep": ("j_mT", _exchange_cases, True),
    "lifetime-sweep": ("tau_us", _lifetime_cases, True),
}


def run_parameter_scan(cfg: ExperimentConfig, p: Params, out: Path, threads: int) -> list[Path]:
    """One angle sweep per value of a scanned pair parameter (see ``_SCANS``)."""
    column, make_cases, summarize = _SCANS[cfg.kind]
    pairs, scan_comments = make_cases(p)
    b = p["b_mT"]
    thetas = np.deg2rad(p["theta_deg"])
    pref = single_molecule_prefactor(p["r_nm"])
    parts, summary = [], []
    for value, rp in pairs:
        t_max = _window(rp, p)
        result = sweep_field_angle(
            rp, b_mT=b, theta_grid=thetas, phi=0.0, prefactor=pref, t_max=t_max,
            normalize=not summarize, threads=threads,
        )
        parts.append([[value] * len(thetas), *_sweep_columns(result)])
        if summarize:
            peak = float(np.max(np.abs(result.x_integrated)))
            prop = solve_pair(rp, FieldConfig(b, 0.0, 0.0))  # the singlet yield at theta = 0
            phi_s = singlet_yield_mean(prop, rp.initial_state, t_max)
            summary.append([[value], [peak], [phi_s]])
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
    **dict.fromkeys(_SCANS, run_parameter_scan),
}


def run_oracle_check(cfg: ExperimentConfig, p: Params, out: Path) -> list[Path]:
    """Cross-check the eigen-propagator against the RK4 reference.

    The pair checked is the first one the experiment runs, at its ``b_mT``
    (the Earth's field for kinds without one), with the field on the z axis.
    """
    if cfg.kind in _SCANS:
        pairs, _ = _SCANS[cfg.kind][1](p)
        rp = pairs[0][1]
    elif "system" in p:
        rp = cfg.radical_pair
    else:
        raise ConfigError(f"--oracle: kind {cfg.kind!r} runs no radical pair")
    layout = rp.layout()
    if layout.total_dimension > MAX_DIM:
        raise PhysicsError(
            f"oracle cross-check handles dim <= {MAX_DIM}, system has "
            f"{layout.total_dimension}"
        )
    field = FieldConfig(p.get("b_mT", EARTH_FIELD_MT), 0.0, 0.0)
    prop = solve_pair(rp, field)
    h = build_rp_hamiltonian(rp, field)  # RK4 integrates H itself

    lam_max = float(np.max(np.abs(prop.eigenvalues)))
    dt = 0.02 / max(lam_max, rp.effective_decay_rate, 1.0)
    t_max = 2e-6
    n_steps = max(int(round(t_max / dt)), 100)
    dt = t_max / n_steps
    rho0 = initial_state(rp.initial_state, layout)
    ops = [np.kron(o, np.eye(layout.nuclear_dimension)) for o in ELECTRON_PAIR_SPIN]
    res = rk4_evolve(rho0, h, rp.effective_decay_rate, dt, t_max, observables=ops)
    exact = _expectation_series(prop, rp.initial_state, ELECTRON_PAIR_SPIN, res.t_grid)
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
    sensor = preset.sensor if preset.sensor is not None else SensorParams()
    return build_experiment(preset.kind, None, sensor, preset.params, seed or 0)


def run(
    cfg: ExperimentConfig, out_dir: str | Path, threads: int = 1, oracle: bool = False
) -> list[Path]:
    """Execute one experiment; returns the list of written files."""
    started = time.time()
    p = read_params(cfg.kind, cfg.params)
    if "system" in p and cfg.radical_pair is None:
        raise ConfigError(
            f"radical_pair: required for kind {cfg.kind!r} (give the section or params.system)"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if oracle:
        files = run_oracle_check(cfg, p, out)
    else:
        files = _RUNNERS[cfg.kind](cfg, p, out, threads)
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
    if args.threads < 1:
        print(f"config error: --threads must be at least 1, got {args.threads}", file=sys.stderr)
        return 2

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
