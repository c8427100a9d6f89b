"""Checks of every CSV the workloads write, made apart from the program.

Each check returns a list of failure messages; an empty list passes.  The
checks compare against the independent reference in ``reference.py`` on
rows the seed picks, and test properties that hold exactly:

* angle sweeps: X_y^I = 0 at phi = 0, and X(pi - theta) = -X(theta) in
  both components.  Every shipped tensor is diagonal in one molecular
  frame, so a pi rotation about x maps H(theta) onto H(pi - theta) and
  leaves the singlet start unchanged;
* normalised columns are NaN exactly where |d_ci| <= 1e-3;
* a magnitude sweep at theta = 0 has X_x^I = X_y^I = 0;
* an aligned ensemble is one scalar times the single-molecule signal, so
  mean / reference and variance / mean^2 are the same at every field;
* the coupling map follows g_eff / 2 pi = 2 |D_r| sqrt(d_cx^2 + d_cz^2) / 2 pi;
* a singlet start has zero total spin, |X_i(t)| <= scale |d_ci| e^{-k t},
  and the spectrum's zero bin is duration * |mean of the trace|;
* peak multiplicities add up to the Hilbert dimension and every contrast
  row sums to zero, because both projector sets are complete;
* singlet yields lie in [0, 1] and match the reference.

No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from nvrp.hamiltonian import FieldConfig
from nvrp.signal import integrated_observables
from nvrp.spincore import Rotation

import reference as ref
from workloads import pair_configs

#: reference comparisons: rtol on the value plus atol in units of scale * |d_ci|
REF_RTOL = 1e-9
REF_ATOL = 1e-11
#: exact identities checked on CSV values written with 12 significant digits
EXACT_RTOL = 1e-9
EXACT_ATOL = 1e-11
#: normalised columns are defined where |d_ci| exceeds this (nvrp's documented guard)
NORMALIZE_EPS = 1e-3


@dataclass(frozen=True)
class Table:
    """A CSV written by nvrp: '# key: value' comments and named columns."""

    comments: dict[str, str]
    columns: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def where(self, name: str, value) -> "Table":
        keep = self.columns[name] == value
        return Table(self.comments, {k: v[keep] for k, v in self.columns.items()})


def read_table(path: Path) -> Table:
    comments, body = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(": ")
                comments[key] = value
            else:
                body.append(line)
    reader = csv.reader(body)
    header = next(reader)
    rows = list(reader)
    columns = {}
    for i, name in enumerate(header):
        values = [r[i] for r in rows]
        try:
            columns[name] = np.array([float(v) for v in values])
        except ValueError:
            columns[name] = np.array(values, dtype=object)
    return Table(comments, columns)


def _rows(bad: np.ndarray) -> str:
    return str(np.flatnonzero(bad)[:5].tolist())


# -- exact properties -------------------------------------------------------


def zero_columns(t: Table, names: tuple[str, ...]) -> list[str]:
    """Each named column is exactly 0."""
    return [f"{n} is not exactly 0 at rows {_rows(t[n] != 0.0)}" for n in names if np.any(t[n] != 0.0)]


def antisymmetry(t: Table) -> list[str]:
    """X_c(pi - theta) = -X_c(theta) for c in x, z on a grid symmetric about pi/2."""
    theta = t["sweep_value"]
    out = []
    if not np.allclose(theta + theta[::-1], math.pi, rtol=0.0, atol=1e-11):
        out.append("theta grid is not symmetric about pi/2")
    for name in ("X_x_I", "X_z_I"):
        x = t[name]
        err = np.abs(x + x[::-1])
        tol = EXACT_RTOL * np.maximum(np.abs(x), np.abs(x[::-1])) + EXACT_ATOL * np.max(np.abs(x))
        if np.any(err > tol):
            out.append(f"{name}(pi - theta) != -{name}(theta) at rows {_rows(err > tol)}")
    return out


def normalized_columns(t: Table, normalize: bool, grid: np.ndarray) -> list[str]:
    """NaN exactly where |d_ci| <= 1e-3 and X_c / d_ci elsewhere; all NaN unnormalised.

    ``grid`` holds the sweep's angles at full precision.
    """
    d_c = np.array([ref.angular_factors(th) for th in grid])
    out = []
    for name, i in (("X_x_I", 0), ("X_z_I", 2)):
        norm = t[f"{name}_norm"]
        if not normalize:
            if not np.all(np.isnan(norm)):
                out.append(f"{name}_norm should be NaN everywhere in an unnormalised sweep")
            continue
        defined = np.abs(d_c[:, i]) > NORMALIZE_EPS
        if np.any(np.isnan(norm) == defined):
            out.append(f"{name}_norm is NaN where |d_c| > 1e-3 or finite where not")
            continue
        want = t[name][defined] / d_c[defined, i]
        err = np.abs(norm[defined] - want)
        tol = EXACT_RTOL * np.abs(want) + EXACT_ATOL * np.max(np.abs(want))
        if np.any(err > tol):
            out.append(f"{name}_norm != {name} / d_c at defined rows {_rows(err > tol)}")
    return out


def aligned_scale(t: Table, spec: ref.PairSpec, n_mol: int, r_range: tuple[float, float]) -> list[str]:
    """Aligned mean_z(B) / x_z^ref(B) is one scalar within the shell's bounds."""
    aligned = t.where("mode", "aligned")
    d_cz = ref.angular_factors(0.0)[2]
    ratios = np.array([
        mean / (d_cz * ref.Reference(spec, ref.field_vector(b, 0.0)).mean_pair_spin()[2])
        for b, mean in zip(aligned["sweep_value"], aligned["mean_X_z_I"])
    ])
    c_bar = float(np.mean(ratios))
    out = []
    if np.max(np.abs(ratios - c_bar)) > EXACT_RTOL * abs(c_bar):
        out.append(f"aligned mean / reference varies across fields: {ratios.tolist()}")
    lo = n_mol * ref.single_molecule_scale(r_range[1])
    hi = n_mol * ref.single_molecule_scale(r_range[0])
    if not lo <= c_bar <= hi:
        out.append(f"aligned scale {c_bar:.6e} outside [{lo:.6e}, {hi:.6e}]")
    return out


def aligned_relative_variance(t: Table) -> list[str]:
    """Aligned var_z / mean_z^2 is the same at every field."""
    aligned = t.where("mode", "aligned")
    rel = aligned["var_X_z_I"] / aligned["mean_X_z_I"] ** 2
    if np.max(np.abs(rel - np.mean(rel))) > EXACT_RTOL * abs(np.mean(rel)):
        return [f"aligned var / mean^2 varies across fields: {rel.tolist()}"]
    return []


def coupling_map(t: Table) -> list[str]:
    """g_eff / 2 pi = 2 |D_r| sqrt(d_cx^2 + d_cz^2) / 2 pi at phi = 0."""
    want = np.array([
        2 * abs(ref.point_dipole_rad(r)) * math.hypot(*ref.angular_factors(th)[[0, 2]]) / (2 * math.pi)
        for r, th in zip(t["r_nm"], t["theta_rad"])
    ])
    err = np.abs(t["g_eff_over_2pi_hz"] - want)
    bad = err > EXACT_RTOL * np.abs(want)
    return [f"g_eff / 2 pi differs from the closed form at rows {_rows(bad)}"] if np.any(bad) else []


def trace_start(trace: Table) -> list[str]:
    """X(0) = 0: the singlet start has zero total spin."""
    scale = max(np.max(np.abs(trace[c])) for c in ("X_x_T", "X_y_T", "X_z_T"))
    start = np.array([trace[c][0] for c in ("X_x_T", "X_y_T", "X_z_T")])
    if trace["t_s"][0] != 0.0 or np.any(np.abs(start) > EXACT_ATOL * scale):
        return [f"X(0) = {start.tolist()} is not 0 (trace scale {scale:.3e})"]
    return []


def trace_bound(trace: Table, k_eff: float, r_nm: float, theta: float) -> list[str]:
    """|X_i(t)| <= scale |d_ci| exp(-k t), since |<S1i + S2i>| <= Tr rho(t)."""
    envelope = ref.single_molecule_scale(r_nm) * np.exp(-k_eff * trace["t_s"])
    out = []
    for name, d in zip(("X_x_T", "X_y_T", "X_z_T"), ref.angular_factors(theta)):
        bad = np.abs(trace[name]) > abs(d) * envelope * (1.0 + EXACT_RTOL)
        if np.any(bad):
            out.append(f"|{name}| exceeds scale |d_c| e^(-k t) at rows {_rows(bad)}")
    return out


def spectrum_zero_bin(trace: Table, spectrum: Table) -> list[str]:
    """The zero-frequency magnitude is duration * |mean of the trace|."""
    t = trace["t_s"]
    duration = t.shape[0] * (t[1] - t[0])
    out = [] if spectrum["freq_hz"][0] == 0.0 else ["first spectrum bin is not at 0 Hz"]
    for trace_col, mag_col in (("X_x_T", "mag_x"), ("X_y_T", "mag_y"), ("X_z_T", "mag_z")):
        x = trace[trace_col]
        want = duration * abs(np.mean(x))
        tol = EXACT_RTOL * want + EXACT_ATOL * duration * np.max(np.abs(x))
        if abs(spectrum[mag_col][0] - want) > tol:
            out.append(f"{mag_col}[0] = {spectrum[mag_col][0]:.12g}, duration * |mean| = {want:.12g}")
    return out


def multiplicities(t: Table, dim: int) -> list[str]:
    """At every field the multiplicities sum to the dimension; at most dim peaks."""
    out = []
    for b in np.unique(t["b_mT"]):
        at = t.where("b_mT", b)
        if at["multiplicity"].sum() != dim or at["multiplicity"].shape[0] > dim:
            out.append(f"B = {b:.6g} mT: multiplicities sum to {at['multiplicity'].sum():g}, not {dim}")
    return out


def contrast_sums(t: Table) -> list[str]:
    """Every contrast row sums to 0 (to 1e-9 of the row's largest |C_n|)."""
    c = np.stack([v for k, v in t.columns.items() if k.startswith("C_")], axis=1)
    bad = np.abs(c.sum(axis=1)) > EXACT_RTOL * np.max(np.abs(c), axis=1)
    return [f"contrast rows {_rows(bad)} do not sum to 0"] if np.any(bad) else []


def yield_range(summary: Table) -> list[str]:
    y = summary["singlet_yield_theta0"]
    bad = (y < 0.0) | (y > 1.0)
    return [f"singlet yields outside [0, 1] at rows {_rows(bad)}"] if np.any(bad) else []


# -- comparisons with the reference -----------------------------------------


def _compare(label: str, got: np.ndarray, want: np.ndarray, atol: np.ndarray) -> list[str]:
    err = np.abs(np.asarray(got) - want)
    if np.any(err > REF_RTOL * np.abs(want) + atol):
        return [f"{label}: program {np.asarray(got).tolist()} vs reference {want.tolist()}"]
    return []


def reference_rows(t: Table, rows, spec, r_nm: float, grid: np.ndarray, b_mT: float | None = None) -> list[str]:
    """Sampled rows of a sweep against the reference.

    ``grid`` holds the sweep values at full precision; the CSV's copy,
    written with 12 digits, must match it.  With ``b_mT`` the sweep is
    over theta at that field; without, over the field magnitude at
    theta = 0.
    """
    if t["sweep_value"].shape != grid.shape or np.any(
        np.abs(t["sweep_value"] - grid) > 1e-11 * np.max(np.abs(grid))
    ):
        return ["sweep column is not the configured grid"]
    scale = ref.single_molecule_scale(r_nm)
    out = []
    for i in rows:
        b, theta = (b_mT, grid[i]) if b_mT is not None else (grid[i], 0.0)
        d_c = ref.angular_factors(theta)
        want = scale * d_c * ref.Reference(spec, ref.field_vector(b, theta)).mean_pair_spin()
        got = np.array([t["X_x_I"][i], t["X_y_I"][i], t["X_z_I"][i]])
        out += _compare(f"row {i} (sweep value {grid[i]:.6g})", got, want, REF_ATOL * scale * np.abs(d_c))
    return out


def trace_reference(
    trace: Table, rows, spec, b_mT: float, theta: float, r_nm: float, t_max: float | None = None
) -> list[str]:
    """Sampled times of a trace against the reference, on the exact time grid.

    The grid is j * t_max / n with t_max = 5 / k_eff unless given.
    """
    n = trace["t_s"].shape[0]
    times = np.linspace(0.0, t_max or 5.0 / spec.k_eff, n, endpoint=False)
    if np.any(np.abs(trace["t_s"] - times) > 1e-11 * times[-1]):
        return ["time column is not the grid j * t_max / n"]
    scale = ref.single_molecule_scale(r_nm)
    d_c = ref.angular_factors(theta)
    series = ref.Reference(spec, ref.field_vector(b_mT, theta)).series(times[rows])
    out = []
    for j, i in enumerate(rows):
        got = np.array([trace[c][i] for c in ("X_x_T", "X_y_T", "X_z_T")])
        out += _compare(f"t = {times[i]:.6g} s", got, scale * d_c * series[:, j], REF_ATOL * scale * np.abs(d_c))
    return out


def yield_reference(summary: Table, specs, b_mT: float) -> list[str]:
    out = []
    for y, spec in zip(summary["singlet_yield_theta0"], specs):
        want = ref.Reference(spec, ref.field_vector(b_mT, 0.0)).singlet_yield()
        out += _compare("singlet yield", np.array([y]), np.array([want]), np.array([REF_ATOL]))
    return out


def haar_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-random proper rotation: QR of a Gaussian matrix with fixed signs."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q * np.array([1.0, 1.0, np.linalg.det(q)])


def haar_points(rng: np.random.Generator, fields, count: int):
    """(B mT, theta, R) triples: a field of the sweep, a polar angle, a rotation."""
    return [
        (float(rng.choice(fields)), float(rng.uniform(0.1, math.pi - 0.1)), haar_rotation(rng))
        for _ in range(count)
    ]


def rotated_points(values, points, spec) -> list[str]:
    """Program d_c * <S1 + S2> for rotated molecules against the rotated-tensor reference."""
    out = []
    for got, (b, theta, rot) in zip(values, points):
        d_c = ref.angular_factors(theta)
        want = d_c * ref.Reference(spec, ref.field_vector(b, theta), rot).mean_pair_spin()
        out += _compare(f"rotated molecule at B = {b:.4g} mT", got, want, REF_ATOL * np.abs(d_c))
    return out


# -- per experiment kind -----------------------------------------------------

ROWS_PER_SWEEP = 2
ROWS_FIG4E = 3
TIMES_FIG4A = 4
HAAR_POINTS = 2


def _pick(rng: np.random.Generator, n: int, k: int) -> list[int]:
    return sorted(rng.choice(n, size=min(k, n), replace=False).tolist())


def theta_grid(spec) -> np.ndarray:
    """[lo, hi, n] in degrees to radians, as the sweeps build it."""
    lo, hi, n = spec
    return np.deg2rad(np.linspace(lo, hi, int(n)))


def field_grid(spec) -> np.ndarray:
    """[lo, hi, n] in mT to the logarithmic grid of magnitude sweeps."""
    lo, hi, n = spec
    return np.logspace(math.log10(lo), math.log10(hi), int(n))


def _named(name: str, failures: list[str]) -> list[str]:
    return [f"{name}: {f}" for f in failures]


def _angle_sweep_checks(t: Table, normalize: bool, grid: np.ndarray) -> list[str]:
    return (
        _named("X_y = 0", zero_columns(t, ("X_y_I",)))
        + _named("antisymmetry", antisymmetry(t))
        + _named("normalised NaN", normalized_columns(t, normalize, grid))
    )


def check_experiment(cfg, directory: Path, rng: np.random.Generator) -> list[str]:
    """Every check of one experiment's outputs; an empty list passes."""
    p = cfg.params
    if cfg.kind == "coupling-map":
        return _named("g_eff", coupling_map(read_table(directory / "coupling_map.csv")))
    r_nm = float(p.get("r_nm", 10.0))
    specs = [ref.spec_from_config(rp) for rp in pair_configs(cfg)]
    kind = cfg.kind
    if kind == "angle-sweep":
        t = read_table(directory / "angle_sweep.csv")
        rows = _pick(rng, t["sweep_value"].shape[0], ROWS_FIG4E)
        grid = theta_grid(p["theta_deg"])
        return _angle_sweep_checks(t, bool(p.get("normalize", True)), grid) + _named(
            "reference", reference_rows(t, rows, specs[0], r_nm, grid, float(p["b_mT"]))
        )
    if kind == "field-sweep":
        t = read_table(directory / "field_sweep.csv")
        rows = _pick(rng, t["sweep_value"].shape[0], 1)
        grid = field_grid(p["b_grid"])
        return _named("X_x = X_y = 0", zero_columns(t, ("X_x_I", "X_y_I"))) + _named(
            "reference", reference_rows(t, rows, specs[0], r_nm, grid)
        )
    if kind == "ensemble":
        return _ensemble_checks(cfg, directory, specs[0], rng)
    if kind == "time-trace":
        trace = read_table(directory / "time_trace.csv")
        theta = math.radians(float(p.get("theta_deg", 0.0)))
        times = _pick(rng, trace["t_s"].shape[0], TIMES_FIG4A)
        t_max = float(p["t_max_us"]) * 1e-6 if "t_max_us" in p else None
        return (
            _named("X(0) = 0", trace_start(trace))
            + _named("decay bound", trace_bound(trace, specs[0].k_eff, r_nm, theta))
            + _named("zero bin", spectrum_zero_bin(trace, read_table(directory / "spectrum.csv")))
            + _named("reference", trace_reference(trace, times, specs[0], float(p["b_mT"]), theta, r_nm, t_max))
        )
    if kind == "peak-count":
        return _named("multiplicities", multiplicities(read_table(directory / "peak_count.csv"), specs[0].dim)) + _named(
            "contrast sums", contrast_sums(read_table(directory / "peak_contrast.csv"))
        )
    if kind == "anisotropy-sweep":
        t = read_table(directory / "anisotropy_sweep.csv")
        return _per_parameter(t, "case", p["cases"], specs, r_nm, float(p["b_mT"]), p["theta_deg"], True, rng)
    if kind in ("exchange-sweep", "lifetime-sweep"):
        stem, column, grid = (
            ("exchange", "j_mT", p["j_grid_mT"]) if kind == "exchange-sweep" else ("lifetime", "tau_us", p["tau_us"])
        )
        t = read_table(directory / f"{stem}_sweep.csv")
        summary = read_table(directory / f"{stem}_summary.csv")
        b = float(p["b_mT"])
        return (
            _per_parameter(t, column, [float(v) for v in grid], specs, r_nm, b, p["theta_deg"], False, rng)
            + _named("yield range", yield_range(summary))
            + _named("yield reference", yield_reference(summary, specs, b))
        )
    return [f"no checks for experiment kind {kind!r}"]


def _per_parameter(t, column, values, specs, r_nm, b_mT, theta_deg, normalize, rng) -> list[str]:
    out = []
    for value, spec in zip(values, specs):
        part = t.where(column, value)
        rows = _pick(rng, part["sweep_value"].shape[0], ROWS_PER_SWEEP)
        grid = theta_grid(theta_deg)
        out += _named(f"{column} = {value}", _angle_sweep_checks(part, normalize, grid))
        out += _named(f"{column} = {value} reference", reference_rows(part, rows, spec, r_nm, grid, b_mT))
    return out


def _ensemble_checks(cfg, directory: Path, spec, rng) -> list[str]:
    p = cfg.params
    t = read_table(directory / "ensemble.csv")
    r_range = tuple(p.get("r_range_nm", (cfg.sensor.r1_nm, cfg.sensor.r2_nm)))
    points = haar_points(rng, np.unique(t["sweep_value"]), HAAR_POINTS)
    values = [
        integrated_observables(cfg.radical_pair, FieldConfig(b, theta, 0.0), Rotation(rot))
        for b, theta, rot in points
    ]
    return (
        _named("X_x = 0", zero_columns(t, ("mean_X_x_I", "var_X_x_I")))
        + _named("aligned scale", aligned_scale(t, spec, int(p["n_molecules"]), r_range))
        + _named("aligned var / mean^2", aligned_relative_variance(t))
        + _named("rotated reference", rotated_points(values, points, spec))
    )


def check_workload(workload, rep_dir: Path, seed: int, skip: set[str]) -> dict[str, list[str]]:
    """Failures per experiment label for one repetition's outputs.

    Experiments in ``skip`` (their run raised) are not checked.  An
    exception inside a check, such as a missing or malformed file, is
    reported as that experiment's failure.
    """
    rng = np.random.default_rng([seed, 2209])
    out = {}
    for label, cfg in workload.experiments:
        if label in skip:
            continue
        try:
            out[label] = check_experiment(cfg, rep_dir / label, rng)
        except Exception:  # a malformed output is a failed check, not a crash
            out[label] = [f"check raised: {traceback.format_exc(limit=2)}"]
    return out
