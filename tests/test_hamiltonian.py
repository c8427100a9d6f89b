"""Hamiltonian builders, coupling geometry, and regime classification."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nvrp.config import load_config
from nvrp.constants import GAMMA_E, MT_TO_RAD_PER_S, dipolar_prefactor
from nvrp.ensemble import random_rotation
from nvrp.errors import PhysicsError
from nvrp.hamiltonian import (
    FieldConfig,
    Nucleus,
    RadicalPairConfig,
    Regime,
    SensorParams,
    _assemble,
    _rp_terms,
    build_coupling_hamiltonian,
    build_rp_hamiltonian,
    classify_regime,
    coupling_geometry,
    mirror_symmetric,
)
from nvrp.oracle import rk4_evolve
from nvrp.presets import ANISOTROPY_CASES, SYSTEMS, one_nucleus_config, two_nucleus_config
from nvrp.signal import with_lifetime
from nvrp.spincore import (
    Rotation,
    SpinSpecies,
    add_two_site,
    isotropic_tensor,
    parity_sectors,
    site_operators,
    spin_matrices,
)
from nvrp.strongcoupling import count_resolved_peaks

from conftest import make_pair, rotation_xyz

ANGLES = st.floats(0.0, np.pi, allow_nan=False)


# -- radical-pair Hamiltonian ----------------------------------------------


def test_nucleus_stores_the_symmetric_part_read_only():
    n14 = SpinSpecies("N", 1.0)
    t = np.arange(9.0).reshape(3, 3)
    nuc = Nucleus(n14, t)
    assert np.array_equal(nuc.tensor_mT, 0.5 * (t + t.T))
    assert not nuc.tensor_mT.flags.writeable
    near = np.diag([1.0, 2.0, 3.0])
    near[0, 1] = 1e-13  # within the 1e-12 tolerance: kept as given
    assert np.array_equal(Nucleus(n14, near).tensor_mT, near)


def test_stored_tensors_leave_the_callers_arrays_writeable():
    """Each config freezes its own copy; the caller may go on writing to its float64 arrays."""
    t = np.diag([1.0, 2.0, 3.0])
    nuc = Nucleus(SpinSpecies("H", 0.5), t)
    d = np.diag([-1.0, -1.0, 2.0])
    cfg = RadicalPairConfig(nuclei_radical1=(nuc,), dipolar_tensor_mT=d)
    assert t.flags.writeable and d.flags.writeable
    assert not nuc.tensor_mT.flags.writeable and not cfg.dipolar_tensor_mT.flags.writeable
    t[0, 0] = d[0, 0] = 5.0
    assert nuc.tensor_mT[0, 0] == 1.0 and cfg.dipolar_tensor_mT[0, 0] == -1.0


def test_empty_hamiltonian_is_zero():
    cfg = make_pair()
    h = build_rp_hamiltonian(cfg, FieldConfig(0.0, 0.0, 0.0))
    assert np.linalg.norm(h) == 0.0


def test_zeeman_only_spectrum():
    cfg = make_pair()
    b = 1.3
    h = build_rp_hamiltonian(cfg, FieldConfig(b, 0.0, 0.0))
    w = np.sort(np.linalg.eigvalsh(h))
    omega = GAMMA_E * b * 1e-3
    assert np.allclose(w, [-omega, 0.0, 0.0, omega], atol=1e-6)


def test_one_nucleus_isotropic_spectrum():
    # only a S1.I1 acting: eigenvalues a/4 (x6) and -3a/4 (x2) in rad/s
    a = 0.5
    cfg = make_pair(tensors1=[isotropic_tensor(a)], spins1=[0.5])
    h = build_rp_hamiltonian(cfg, FieldConfig(0.0, 0.0, 0.0))
    w = np.sort(np.linalg.eigvalsh(h)) / MT_TO_RAD_PER_S
    expected = np.sort([a / 4] * 6 + [-3 * a / 4] * 2)
    assert np.allclose(w, expected, atol=1e-12)


def test_mismatched_tensor_shape_rejected():
    with pytest.raises(PhysicsError, match="3x3"):
        make_pair(tensors1=[np.eye(2)], spins1=[0.5])


@given(
    st.floats(0.0, 5.0),
    ANGLES,
    st.floats(0.0, 2 * np.pi, exclude_max=True),
    st.floats(-1.0, 1.0),
)
@settings(max_examples=20, deadline=None)
def test_rp_hamiltonian_hermitian(b, theta, phi, j):
    cfg = make_pair(
        tensors1=[np.array([[0.1, 0.02, 0.0], [0.02, -0.3, 0.01], [0.0, 0.01, 1.2]])],
        spins1=[1.0],
        j_mT=j,
        r_rp_nm=2.0,
    )
    h = build_rp_hamiltonian(cfg, FieldConfig(b, theta, phi))
    n = np.linalg.norm(h)
    if n > 0:
        assert np.linalg.norm(h - h.conj().T) < 1e-10 * n


def test_rotation_preserves_spectrum():
    cfg = make_pair(
        tensors1=[np.diag([-0.39, -0.39, 1.76])], spins1=[1.0], j_mT=0.25, r_rp_nm=2.0
    )
    field = FieldConfig(0.0, 0.0, 0.0)  # zero field: rotating tensors is a unitary change
    h0 = build_rp_hamiltonian(cfg, field)
    h1 = build_rp_hamiltonian(cfg, field, rotation_xyz(0.3, 1.1, -0.7))
    assert np.allclose(
        np.linalg.eigvalsh(h0), np.linalg.eigvalsh(h1), atol=1e-9 * np.linalg.norm(h0)
    )


def _bilinear(t, ops_a, ops_b):
    """Dense sum_ab T_ab A_a B_b of two embedded spin vectors."""
    return sum(t[a, b] * (ops_a[a] @ ops_b[b]) for a in range(3) for b in range(3))


@given(
    hnp.arrays(float, (5, 3, 3), elements=st.floats(-2.0, 2.0)),
    st.tuples(ANGLES, ANGLES, ANGLES),
    st.floats(0.0, 5.0),
    ANGLES,
    st.floats(0.0, 2 * np.pi, exclude_max=True),
    st.floats(-1.0, 1.0),
)
@settings(max_examples=10, deadline=None)
def test_assembly_matches_dense_definition(raw, euler, b, theta, phi, j):
    # mixed spins and sites: radical 1 = (H, N14), radical 2 = (N14, H), d = 144
    t = 0.5 * (raw + raw.transpose(0, 2, 1))
    proton, n14 = SpinSpecies("H", 0.5), SpinSpecies("N14", 1.0)
    cfg = RadicalPairConfig(
        nuclei_radical1=(Nucleus(proton, t[0]), Nucleus(n14, t[1])),
        nuclei_radical2=(Nucleus(n14, t[2]), Nucleus(proton, t[3])),
        j_exchange_mT=j,
        dipolar_tensor_mT=t[4],
    )
    rot = rotation_xyz(*euler)
    field = FieldConfig(b, theta, phi)
    layout = cfg.layout()
    assert layout.total_dimension == 144
    s1, s2 = site_operators(layout, 0), site_operators(layout, 1)
    r = rot.matrix
    b_rad = field.vector_mT() * MT_TO_RAD_PER_S
    dip = r @ t[4] @ r.T * MT_TO_RAD_PER_S
    exchange = -2.0 * j * MT_TO_RAD_PER_S * _bilinear(np.eye(3), s1, s2)
    zeeman = -sum(b_rad[i] * (s1[i] + s2[i]) for i in range(3))

    expected = zeeman + exchange + _bilinear(dip, s1, s2)
    for idx, electron in enumerate((s1, s1, s2, s2)):
        a_rad = r @ t[idx] @ r.T * MT_TO_RAD_PER_S
        expected = expected + _bilinear(a_rad, electron, site_operators(layout, 2 + idx))
    h = build_rp_hamiltonian(cfg, field, rot)
    assert np.linalg.norm(h - expected) <= 1e-13 * np.linalg.norm(expected)

    geom = coupling_geometry(6.0, theta, phi)
    expected_c = geom.d_r * sum(geom.d_c[i] * (s1[i] + s2[i]) for i in range(3))
    h_c = build_coupling_hamiltonian(geom, layout)
    assert np.linalg.norm(h_c - expected_c) <= 1e-13 * np.linalg.norm(expected_c)


#: every spin system a preset or shipped config runs
SHIPPED_SYSTEMS = {
    **SYSTEMS,
    **{case: (lambda c=case: one_nucleus_config(c)) for case in ANISOTROPY_CASES},
    "axial3-2n": lambda: two_nucleus_config("axial3"),
}


def _complex_assembly(cfg, field, rotation=None):
    layout = cfg.layout()
    h = np.zeros((1,) + (layout.total_dimension,) * 2, dtype=complex)
    for local, site_a, site_b in _rp_terms(cfg, [field], rotation):
        add_two_site(h, local, site_a, site_b, layout)
    return h[0]


@pytest.mark.parametrize("name", sorted(SHIPPED_SYSTEMS))
def test_real_terms_assemble_in_float64(name):
    """float64 exactly when every local term is real: phi = 0, identity orientation."""
    cfg = SHIPPED_SYSTEMS[name]()
    for field in (FieldConfig(1.16, 0.0, 0.0), FieldConfig(0.05, 0.7, 0.0), FieldConfig(0.0)):
        h = build_rp_hamiltonian(cfg, field)
        assert h.dtype == np.float64
        assert np.array_equal(h, _complex_assembly(cfg, field).real)
    rotated = (FieldConfig(1.16, 0.0, 0.0), random_rotation(np.random.default_rng(len(name))))
    for field, rot in ((FieldConfig(1.16, 0.7, 0.5), None), rotated):
        h = build_rp_hamiltonian(cfg, field, rot)
        assert h.dtype == np.complex128 and h.imag.any()
        assert np.array_equal(h, _complex_assembly(cfg, field, rot))


#: the pairs of the three shipped configs
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIG_SYSTEMS = {
    path.stem: (lambda path=path: load_config(path).radical_pair)
    for path in sorted(CONFIG_DIR.glob("*.json"))
}

#: (field (b, theta, phi), seed of a Haar rotation or None): the sensor axis, off it at
#: phi = 0 and at phi = 1.1, and a Haar-rotated molecule on the axis
BLOCK_POINTS = [
    ((1.16, 0.0, 0.0), None), ((1.16, 0.6, 0.0), None), ((1.16, 0.6, 1.1), None),
    ((1.16, 0.0, 0.0), 7),
]


@pytest.mark.parametrize("name", sorted({**SHIPPED_SYSTEMS, **CONFIG_SYSTEMS}))
def test_blocks_are_the_whole_matrix_on_their_rows(name):
    """The split assembly's blocks equal the whole H on their rows bit for bit, and H splits
    exactly where its cross blocks are exactly zero: on the axis, in the molecular frame."""
    cfg = {**SHIPPED_SYSTEMS, **CONFIG_SYSTEMS}[name]()
    layout = cfg.layout()
    even, odd = parity_sectors(layout)
    assert len(CONFIG_SYSTEMS) == 3
    for (b, theta, phi), seed in BLOCK_POINTS:
        fields = [FieldConfig(b, theta, phi)]
        rotation = None if seed is None else random_rotation(np.random.default_rng(seed))
        blocks = _assemble(_rp_terms(cfg, fields, rotation), layout, split=True)
        h = build_rp_hamiltonian(cfg, fields, rotation)
        cross_zero = not h[:, even[:, None], odd].any()
        assert len(blocks) == (2 if cross_zero else 1)
        assert cross_zero == (theta == 0.0 and seed is None)
        for rows, block in blocks:
            want = h[:, rows[:, None], rows]
            assert block.dtype == want.dtype and block.tobytes() == want.tobytes()
        rows = np.concatenate([rows for rows, _ in blocks])
        assert np.array_equal(np.sort(rows), np.arange(layout.total_dimension))


@pytest.mark.parametrize("entry", [(0, 2), (1, 2)], ids=["xz", "yz"])
@pytest.mark.parametrize("where", ["hyperfine", "dipolar"])
def test_a_tensor_coupling_z_to_x_or_y_keeps_one_block(entry, where):
    """One tensor entry between z and x (or y) at theta = 0 leaves H one block: its cross
    blocks are nonzero at every field of the stack."""
    t = np.diag([-0.39, -0.39, 1.76])
    t[entry] = t[entry[::-1]] = 0.05
    cfg = make_pair(tensors1=[t if where == "hyperfine" else np.diag([-0.39, -0.39, 1.76])],
                    spins1=[1.0], j_mT=0.25)
    if where == "dipolar":
        cfg = dataclasses.replace(cfg, dipolar_tensor_mT=t)
    fields = [FieldConfig(b, 0.0, 0.0) for b in (0.05, 1.16)]
    ((rows, h),) = _assemble(_rp_terms(cfg, fields, None), cfg.layout(), split=True)
    even, odd = parity_sectors(cfg.layout())
    assert np.array_equal(rows, np.arange(12))
    assert h[:, even[:, None], odd].any(axis=(1, 2)).all()
    t[entry] = t[entry[::-1]] = 0.0  # without the entry the same pair splits
    plain = make_pair(tensors1=[t], spins1=[1.0], j_mT=0.25)
    assert len(_assemble(_rp_terms(plain, fields, None), cfg.layout(), split=True)) == 2


def _pi_about_x(layout):
    """exp(-i pi sum_k S_x^k): the pi rotation of every spin about x, on the full space."""
    u = np.ones((1, 1))
    for species in layout.species:
        u = np.kron(u, scipy.linalg.expm(-1j * np.pi * spin_matrices(species)[0]))
    return u


def _mirror_error(cfg, theta):
    """max |U H(theta) U^dag - H(pi - theta)| / max |H(theta)|, U the pi rotation about x."""
    u = _pi_about_x(cfg.layout())
    h = build_rp_hamiltonian(cfg, FieldConfig(1.16, theta, 0.0))
    mirrored = build_rp_hamiltonian(cfg, FieldConfig(1.16, np.pi - theta, 0.0))
    return np.max(np.abs(u @ h @ u.conj().T - mirrored)) / np.max(np.abs(h))


@pytest.mark.parametrize("name", sorted(SHIPPED_SYSTEMS))
def test_shipped_systems_are_mirror_symmetric(name):
    """At phi = 0 the pi rotation of every spin about x takes H(theta) to H(pi - theta)."""
    cfg = SHIPPED_SYSTEMS[name]()
    assert mirror_symmetric(cfg, 0.0)
    # exact: at phi = pi, sin(pi) != 0 gives B a y component
    assert not mirror_symmetric(cfg, np.pi) and not mirror_symmetric(cfg, 0.3)
    for theta in (0.0, 0.4, np.pi / 2):
        assert _mirror_error(cfg, theta) <= 1e-12


@pytest.mark.parametrize("entry, symmetric", [((1, 2), True), ((0, 1), False), ((0, 2), False)])
def test_mirror_symmetry_reads_every_tensor(entry, symmetric):
    """An xy or xz entry of a hyperfine or a given dipolar tensor breaks it; a yz entry does not."""
    diag, off = np.diag([-0.39, -0.39, 1.76]), np.zeros((3, 3))
    off[entry] = off[entry[::-1]] = 0.3
    hyperfine = make_pair([diag + off], spins1=[1.0], j_mT=0.25, r_rp_nm=2.5)
    dipolar = dataclasses.replace(
        make_pair([diag], spins1=[1.0], j_mT=0.25),
        dipolar_tensor_mT=np.diag([-1.0, -1.0, 2.0]) + off,
    )
    for cfg in (hyperfine, dipolar):
        assert mirror_symmetric(cfg, 0.0) == symmetric
        assert (_mirror_error(cfg, 0.4) <= 1e-12) == symmetric


# -- secular electron-pair terms ----------------------------------------------


def test_secular_diagonal_in_singlet_triplet_basis():
    # no nuclei and the field on z: Zeeman, exchange and the point-dipole
    # pattern are all secular, so H_RP is diagonal in {T+, T0, T-, S0}
    cfg = make_pair(j_mT=0.4, r_rp_nm=2.0)
    h = build_rp_hamiltonian(cfg, FieldConfig(1.0, 0.0, 0.0))
    s2 = 1 / np.sqrt(2)
    u_e = np.array(
        [
            [1, 0, 0, 0],
            [0, s2, s2, 0],
            [0, 0, 0, 1],
            [0, s2, -s2, 0],
        ]
    ).T
    transformed = u_e.conj().T @ h @ u_e
    off = transformed - np.diag(np.diag(transformed))
    assert np.linalg.norm(off) < 1e-9 * np.linalg.norm(h)


def test_secular_dipolar_strength_at_2nm():
    # |D_s| / 2 pi at r_RP = 2 nm is about 6.5 MHz
    cfg = make_pair(r_rp_nm=2.0)
    h = build_rp_hamiltonian(cfg, FieldConfig(0.0, 0.0, 0.0))
    # pull D_s back out of the operator: <T+| pattern |T+> = D_s / 2
    w = np.linalg.eigvalsh(h)
    d_s = 2.0 * np.max(np.abs(w)) / 2.0  # pattern eigenvalues are {D_s/2, -D_s}
    assert np.max(np.abs(w)) / (2 * np.pi) == pytest.approx(6.5046e6, rel=2e-2)
    assert d_s > 0


# -- coupling geometry ------------------------------------------------------


def test_magic_angle_kills_dcz():
    g = coupling_geometry(10.0, np.arccos(1 / np.sqrt(3)), 0.0)
    assert abs(g.d_cz) < 1e-12


def test_axial_geometry():
    g = coupling_geometry(10.0, 0.0, 0.0)
    assert g.d_cx == 0.0 and g.d_cy == 0.0
    assert g.g_eff == pytest.approx(4 * abs(g.d_r), rel=1e-12)


def test_coupling_scale_at_10nm():
    # point-dipole prefactor at 10 nm sits in the tens of kHz
    g = coupling_geometry(10.0, 0.0, 0.0)
    assert 20e3 < abs(g.d_r) / (2 * np.pi) < 100e3
    assert abs(g.d_r) / (2 * np.pi) == pytest.approx(52.04e3, rel=1e-2)


def test_geff_r_cubed_scaling():
    g1 = coupling_geometry(7.0, 0.4, 0.0)
    g2 = coupling_geometry(14.0, 0.4, 0.0)
    assert g2.g_eff == pytest.approx(g1.g_eff / 8.0, rel=1e-12)


def test_nan_field_magnitude_rejected():
    with pytest.raises(PhysicsError, match="field magnitude"):
        FieldConfig(float("nan"))


NAN = float("nan")


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: SensorParams(t2=NAN), PhysicsError),
        (lambda: SensorParams(r1_nm=NAN), PhysicsError),
        (lambda: SensorParams(r2_nm=NAN), PhysicsError),
        (lambda: SensorParams(density_per_nm3=NAN), PhysicsError),
        (lambda: RadicalPairConfig(recombination_rate=NAN), PhysicsError),
        (lambda: RadicalPairConfig(r_rp_nm=NAN), PhysicsError),
        (lambda: coupling_geometry(NAN, 0.0), PhysicsError),
        (lambda: coupling_geometry(10.0, NAN), PhysicsError),
        (lambda: coupling_geometry(10.0, 0.3, NAN), PhysicsError),
        (lambda: with_lifetime(make_pair(), NAN), PhysicsError),
        (lambda: dipolar_prefactor(NAN), ValueError),
        (lambda: rk4_evolve(np.eye(4) / 4, np.zeros((4, 4)), NAN, 1e-9, 1e-8, observables=[]),
         PhysicsError),
        (lambda: Rotation(np.full((3, 3), NAN)), ValueError),
        (lambda: count_resolved_peaks(np.array([0.0, 1e3]), NAN), PhysicsError),
    ],
    ids=["t2", "r1", "r2", "density", "recombination_rate", "r_rp", "geometry_r",
         "geometry_theta", "geometry_phi",
         "lifetime", "dipolar_prefactor", "rk4_k", "rotation", "peak_resolution"],
)
def test_nan_rejected(make, error):
    """Each check is written so that NaN fails it, with the check's own exception type."""
    with pytest.raises(error):
        make()


def test_zero_distance_rejected():
    with pytest.raises(PhysicsError, match="positive"):
        coupling_geometry(0.0, 0.0, 0.0)


def test_infinite_angle_rejected():
    with pytest.raises(PhysicsError, match="finite"):
        coupling_geometry(10.0, 0.3, float("inf"))


# -- coupling Hamiltonian ---------------------------------------------------


def test_coupling_axial_keeps_only_z_term():
    from nvrp.spincore import SpinSystemLayout, site_operators

    layout = SpinSystemLayout.for_radical_pair()
    g = coupling_geometry(10.0, 0.0, 0.0)
    h = build_coupling_hamiltonian(g, layout)
    s1 = site_operators(layout, 0)
    s2 = site_operators(layout, 1)
    expected = g.d_r * g.d_cz * (s1[2] + s2[2])
    assert np.allclose(h, expected)


@given(ANGLES, st.floats(0.0, 2 * np.pi, exclude_max=True))
@settings(max_examples=25, deadline=None)
def test_coupling_trace_norm_matches_geff(theta, phi):
    from nvrp.spincore import SpinSystemLayout

    layout = SpinSystemLayout.for_radical_pair()
    g = coupling_geometry(8.0, theta, phi)
    h = build_coupling_hamiltonian(g, layout)
    trace_norm = np.sum(np.abs(np.linalg.eigvalsh(h)))
    assert trace_norm == pytest.approx(g.g_eff, rel=1e-10, abs=1e-12)


def test_coupling_is_float64_exactly_where_phi_is_zero():
    """Only S_y is imaginary, so d_cy = 0 leaves a float64 operator, and fig6c's sum too."""
    cfg = one_nucleus_config("axial3")
    h0 = build_rp_hamiltonian(cfg, FieldConfig(1.0, 0.0, 0.0))
    for phi, dtype in ((0.0, np.float64), (0.3, np.complex128)):
        h = build_coupling_hamiltonian(coupling_geometry(5.0, 0.7, phi), cfg.layout())
        assert h.dtype == dtype and (h0 + h).dtype == dtype
    assert h.imag.any()


def test_coupling_annihilates_singlet():
    from nvrp.dynamics import electron_pair_state
    from nvrp.hamiltonian import InitialElectronState
    from nvrp.spincore import SpinSystemLayout

    layout = SpinSystemLayout.for_radical_pair()
    g = coupling_geometry(8.0, 0.7, 0.3)
    h = build_coupling_hamiltonian(g, layout)
    singlet = electron_pair_state(InitialElectronState.SINGLET)
    assert np.linalg.norm(h @ singlet) < 1e-9 * abs(g.d_r)


# -- regime classification --------------------------------------------------


def test_classify_weak():
    sensor = SensorParams(t2=10e-6)  # Gamma ~ 31.8 kHz
    assert classify_regime(2 * np.pi * 1e3, sensor) is Regime.WEAK


def test_classify_strong():
    sensor = SensorParams(t2=1e-3)  # Gamma ~ 318 Hz
    assert classify_regime(2 * np.pi * 10e3, sensor) is Regime.STRONG


def test_classify_compares_g_eff_over_2pi_with_gamma():
    """g_eff is in rad/s and Gamma in Hz: weak iff g_eff / 2pi <= Gamma."""
    sensor = SensorParams(t2=10e-6)  # Gamma ~ 31.8 kHz
    geom = coupling_geometry(20.0, 0.0)  # g_eff / 2pi ~ 26.0 kHz, g_eff ~ 1.6e5 rad/s
    assert classify_regime(geom.g_eff, sensor) is Regime.WEAK
    boundary = 2 * np.pi * sensor.gamma_hz
    assert classify_regime(boundary * (1 - 1e-9), sensor) is Regime.WEAK
    assert classify_regime(boundary * (1 + 1e-9), sensor) is Regime.STRONG


def test_nondipolar_secular_remainder_vanishes():
    # no hyperfine, field along z, point-dipole coupling: H_RP is exactly
    # -gamma_e B (S1z + S2z) - 2 J S1.S2 + D_s (3 S1z S2z - S1.S2)
    cfg = make_pair(j_mT=0.5, r_rp_nm=2.0)
    b = 1.0
    h = build_rp_hamiltonian(cfg, FieldConfig(b, 0.0, 0.0))
    layout = cfg.layout()
    s1, s2 = site_operators(layout, 0), site_operators(layout, 1)
    s1s2 = _bilinear(np.eye(3), s1, s2)
    d_s = dipolar_prefactor(2.0)
    secular = (
        -b * MT_TO_RAD_PER_S * (s1[2] + s2[2])
        - 2.0 * 0.5 * MT_TO_RAD_PER_S * s1s2
        + d_s * (3.0 * s1[2] @ s2[2] - s1s2)
    )
    assert np.linalg.norm(h - secular) < 1e-12 * np.linalg.norm(h)


def test_layout_is_one_cached_instance_per_species(axial3_pair):
    """A pair's layout is built once per species tuple, so per-layout caches hit."""
    import dataclasses

    from nvrp.dynamics import initial_state
    from nvrp.hamiltonian import InitialElectronState
    from nvrp.spincore import parity_sectors

    layout = axial3_pair.layout()
    assert axial3_pair.layout() is layout
    assert dataclasses.replace(axial3_pair, j_exchange_mT=0.7).layout() is layout
    assert one_nucleus_config("rhombic").layout() is layout  # the same species, other tensors
    state = InitialElectronState.SINGLET
    parity_sectors(layout), initial_state(state, layout)
    hits = parity_sectors.cache_info().hits, initial_state.cache_info().hits
    assert parity_sectors(axial3_pair.layout()) is parity_sectors(layout)
    assert initial_state(state, axial3_pair.layout()) is initial_state(state, layout)
    assert parity_sectors.cache_info().hits == hits[0] + 2
    assert initial_state.cache_info().hits == hits[1] + 2
