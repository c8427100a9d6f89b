"""Spin matrices, embedding, and tensor rotation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvrp.spincore import (
    Rotation,
    SpinSpecies,
    SpinSystemLayout,
    add_two_site,
    diagonal_tensor,
    embed,
    isotropic_tensor,
    rotate_tensor,
    spin_matrices,
)

from conftest import rotation_xyz

ANGLES = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@pytest.mark.parametrize("spin", [0.5, 1.0])
def test_su2_commutators(spin):
    sx, sy, sz = spin_matrices(SpinSpecies("s", spin))
    for a, b, c in [(sx, sy, sz), (sy, sz, sx), (sz, sx, sy)]:
        assert np.linalg.norm(a @ b - b @ a - 1j * c) < 1e-12


def test_spin_half_sz_eigenvalues():
    _, _, sz = spin_matrices(SpinSpecies("e", 0.5))
    assert np.allclose(np.sort(np.linalg.eigvalsh(sz)), [-0.5, 0.5])


def test_spin_one_sz_is_diag():
    _, _, sz = spin_matrices(SpinSpecies("N", 1.0))
    assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))


@pytest.mark.parametrize("spin", [0.5, 1.0])
def test_casimir(spin):
    sx, sy, sz = spin_matrices(SpinSpecies("s", spin))
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(casimir, spin * (spin + 1) * np.eye(casimir.shape[0]))


def test_unsupported_spin_rejected():
    with pytest.raises(ValueError, match="unsupported spin"):
        SpinSpecies("bad", 1.5)


def test_layout_requires_electrons_first():
    with pytest.raises(ValueError, match="spin-1/2 electrons"):
        SpinSystemLayout((SpinSpecies("N", 1.0), SpinSpecies.electron()))


def test_layout_dimensions():
    layout = SpinSystemLayout.for_radical_pair(
        (SpinSpecies("N5", 1.0),), (SpinSpecies("H1", 0.5),)
    )
    assert layout.total_dimension == 2 * 2 * 3 * 2
    assert layout.nuclear_dimension == 6


def test_embed_sz_site0_two_electrons():
    layout = SpinSystemLayout.for_radical_pair()
    _, _, sz = spin_matrices(SpinSpecies.electron())
    embedded = embed(sz, 0, layout)
    assert np.allclose(embedded, np.diag([0.5, 0.5, -0.5, -0.5]))


def test_embedded_disjoint_sites_commute():
    layout = SpinSystemLayout.for_radical_pair((SpinSpecies("N", 1.0),))
    sx0 = embed(spin_matrices(layout.species[0])[0], 0, layout)
    sy2 = embed(spin_matrices(layout.species[2])[1], 2, layout)
    assert np.linalg.norm(sx0 @ sy2 - sy2 @ sx0) == 0.0


def test_embed_traceless():
    layout = SpinSystemLayout.for_radical_pair((SpinSpecies("N", 1.0),))
    sz0 = embed(spin_matrices(layout.species[0])[2], 0, layout)
    assert abs(np.trace(sz0)) < 1e-12


def test_embed_preserves_spectrum():
    layout = SpinSystemLayout.for_radical_pair((SpinSpecies("H", 0.5),))
    local = spin_matrices(SpinSpecies("H", 0.5))[0]
    embedded = embed(local, 2, layout)
    expected = np.sort(np.concatenate([np.linalg.eigvalsh(local)] * 4))
    assert np.allclose(np.sort(np.linalg.eigvalsh(embedded)), expected)


def test_embed_dimension_mismatch_rejected():
    layout = SpinSystemLayout.for_radical_pair()
    with pytest.raises(ValueError, match="does not fit"):
        embed(np.eye(3), 0, layout)


def _unit(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def test_add_two_site_matches_embedded_products():
    # non-adjacent sites (e2 and H1): a spin-1 site between, a spin-1/2 site after
    layout = SpinSystemLayout.for_radical_pair(
        (SpinSpecies("N", 1.0), SpinSpecies("H1", 0.5)), (SpinSpecies("H2", 0.5),)
    )
    rng = np.random.default_rng(1)
    local = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = np.ones((layout.total_dimension,) * 2, dtype=complex)
    add_two_site(h, local, 1, 3, layout)
    blocks = local.reshape(2, 2, 2, 2)
    expected = np.ones_like(h) + sum(
        blocks[i, k, j, l] * (embed(_unit(2, i, j), 1, layout) @ embed(_unit(2, k, l), 3, layout))
        for i in range(2) for j in range(2) for k in range(2) for l in range(2)
    )
    assert np.array_equal(h, expected)


@pytest.mark.parametrize(
    "site_a, site_b, local_dim, h_order, match",
    [
        (2, 0, 6, "C", "must satisfy"),
        (0, 2, 4, "C", "does not fit"),
        (0, 2, 6, "F", "C-contiguous"),
    ],
)
def test_add_two_site_rejects_bad_input(site_a, site_b, local_dim, h_order, match):
    layout = SpinSystemLayout.for_radical_pair((SpinSpecies("N", 1.0),))
    h = np.zeros((12, 12), dtype=complex, order=h_order)
    with pytest.raises(ValueError, match=match):
        add_two_site(h, np.eye(local_dim), site_a, site_b, layout)


def test_rotation_rejects_reflection():
    with pytest.raises(ValueError, match="determinant"):
        Rotation(np.diag([1.0, 1.0, -1.0]))


def test_identity_is_shared_and_read_only():
    r = Rotation.identity()
    assert r is Rotation.identity()
    assert np.array_equal(r.matrix, np.eye(3))
    assert not r.matrix.flags.writeable


def test_rotate_tensor_identity():
    t = diagonal_tensor(1.0, 2.0, 3.0)
    assert np.allclose(rotate_tensor(Rotation.identity(), t), t)


@given(ANGLES, ANGLES, ANGLES)
@settings(max_examples=25, deadline=None)
def test_rotate_isotropic_invariant(a, b, g):
    t = isotropic_tensor(0.7)
    assert np.allclose(rotate_tensor(rotation_xyz(a, b, g), t), t, atol=1e-12)


def test_rotate_axial_quarter_turn_swaps_zz_xx():
    # R = Ry(pi/2) carries the z axis onto x: diag(a, a, c) -> diag(c, a, a)
    t = diagonal_tensor(-0.39, -0.39, 1.76)
    rotated = rotate_tensor(rotation_xyz(0.0, np.pi / 2, 0.0), t)
    assert np.allclose(rotated, diagonal_tensor(1.76, -0.39, -0.39), atol=1e-12)


@given(ANGLES, ANGLES, ANGLES)
@settings(max_examples=25, deadline=None)
def test_rotate_preserves_principal_components(a, b, g):
    t = diagonal_tensor(-0.2, 0.1, 1.5)
    rotated = rotate_tensor(rotation_xyz(a, b, g), t)
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(rotated)), np.sort(np.diag(t)), atol=1e-10
    )


@given(ANGLES, ANGLES, ANGLES, ANGLES, ANGLES, ANGLES)
@settings(max_examples=25, deadline=None)
def test_rotate_tensor_group_action(a1, b1, g1, a2, b2, g2):
    t = diagonal_tensor(0.3, -0.8, 1.1)
    r1 = rotation_xyz(a1, b1, g1)
    r2 = rotation_xyz(a2, b2, g2)
    chained = rotate_tensor(r2, rotate_tensor(r1, t))
    composed = rotate_tensor(Rotation(r2.matrix @ r1.matrix), t)
    assert np.allclose(chained, composed, atol=1e-10)
