import math

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from mslwave import (MslCoefficients, PartitionError, ShPiezoParams,
                     linear_form_amplitudes, make_quantum_medium,
                     make_scalar_medium, make_sh_piezo_medium,
                     partition_modes, secular_matrix,
                     sh_piezo_expected_wavenumbers, solve_qep)
from mslwave.errors import PointFailures
from mslwave.media import MediumStack
from mslwave.qep import mode_source, solve_qep_stack
from conftest import random_hermitian_medium, random_partitionable_medium


def test_secular_matrix_closed_forms():
    evanescent = make_scalar_medium(1, 0, 0, -1)
    assert secular_matrix(evanescent, 1j)[0, 0] == pytest.approx(0.0)
    propagating = make_scalar_medium(1, 0, 0, 4)
    assert secular_matrix(propagating, 0.0)[0, 0] == pytest.approx(4.0)


def test_secular_matrix_sh_piezo_root():
    params = ShPiezoParams(rho=7500.0, c44=2.56e10, e15=12.7, eps11=6.46e-9,
                           omega=1.0e8, kappa_x=1.0e8 / 1800.0)
    m = make_sh_piezo_medium(params)
    theta = secular_matrix(m, -1j * params.kappa_x)
    assert abs(np.linalg.det(theta)) <= 1e-10 * np.linalg.norm(theta, 2) ** 2


def test_solve_qep_partition_convention():
    basis = solve_qep(make_scalar_medium(1, 0, 0, -1))
    assert [md.k for md in basis.plus] == pytest.approx([1j])
    assert [md.k for md in basis.minus] == pytest.approx([-1j])
    basis = solve_qep(make_scalar_medium(1, 0, 0, 4))
    assert [md.k for md in basis.plus] == pytest.approx([2.0])
    assert [md.k for md in basis.minus] == pytest.approx([-2.0])


def test_solve_qep_sh_piezo_reproduces_printed_modes():
    params = ShPiezoParams(rho=7500.0, c44=2.56e10, e15=12.7, eps11=6.46e-9,
                           omega=2 * math.pi * 123.1e6,
                           kappa_x=2 * math.pi * 123.1e6 / 2000.0)
    m = make_sh_piezo_medium(params)
    basis = solve_qep(m)
    k1, k3 = sh_piezo_expected_wavenumbers(params)
    got = sorted(basis.ks, key=lambda k: (round(k.imag, 9), k.real))
    want = sorted([k1, -k1, k3, -k3], key=lambda k: (round(k.imag, 9), k.real))
    scale = max(abs(k) for k in want)
    assert np.allclose(got, want, rtol=0, atol=1e-10 * scale)
    # electrostatic pair carries the (0, 1) shape, the elastic pair
    # (1, e15/eps11) after normalization
    for md in basis.modes:
        if abs(md.k - k1) < 1e-6 * scale or abs(md.k + k1) < 1e-6 * scale:
            expected = np.array([0.0, 1.0])
        else:
            expected = np.array([1.0, params.e15 / params.eps11])
            expected = expected / np.linalg.norm(expected)
        overlap = abs(np.vdot(expected, md.f0))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_mode_residual_invariant_random_media(rng):
    for n in (1, 2, 3):
        for _ in range(8):
            m = random_hermitian_medium(rng, n)
            basis = solve_qep(m)
            for md in basis.modes:
                theta = secular_matrix(m, md.k)
                assert np.linalg.norm(theta @ md.f0) <= \
                    1e-9 * max(1.0, np.linalg.norm(theta, 2))
                assert np.linalg.norm(md.f0) == pytest.approx(1.0)


def _multisets_match(xs, ys, atol):
    ys = list(ys)
    for x in xs:
        dists = [abs(x - y) for y in ys]
        i = int(np.argmin(dists))
        if dists[i] > atol:
            return False
        ys.pop(i)
    return True


def test_conjugate_pairing_for_hermitian_media(rng):
    for n in (1, 2, 3):
        for _ in range(8):
            m = random_hermitian_medium(rng, n)
            ks = solve_qep(m).ks
            atol = 1e-9 * max(1.0, float(np.max(np.abs(ks))))
            assert _multisets_match(ks, ks.conj(), atol)


def test_linear_form_amplitudes_closed_form():
    m = make_scalar_medium(1, 0, 0, -1)
    a0 = linear_form_amplitudes(m, np.array([1j]), np.array([[1.0]]))
    assert a0[0, 0] == pytest.approx(-1.0)
    m4 = make_scalar_medium(1, 0, 0, 4)
    a0 = linear_form_amplitudes(m4, np.array([2.0]), np.array([[1.0]]))
    assert a0[0, 0] == pytest.approx(2j)


def test_partition_degenerate_double_roots():
    # block-diagonal free N=2 medium: k in {+2, +2, -2, -2}
    m = MslCoefficients(b=np.eye(2), p=np.zeros((2, 2)), y=np.zeros((2, 2)),
                        w=4.0 * np.eye(2))
    basis = solve_qep(m)
    assert basis.degenerate
    assert sorted(md.k.real for md in basis.plus) == pytest.approx([2.0, 2.0])
    assert sorted(md.k.real for md in basis.minus) == pytest.approx([-2.0, -2.0])


def test_partition_error_on_one_sided_spectrum():
    # -k^2 + 10k - 1 = 0 has two positive real roots; the formal split
    # into right/left-going modes cannot balance
    m = MslCoefficients(b=[[1.0]], p=[[5.0j]], y=[[5.0j]], w=[[-1.0]])
    ks = np.array([0.1010205144336438, 9.8989794855663561])
    with pytest.raises(PartitionError):
        partition_modes(m, ks, np.array([[1.0, 1.0]], dtype=complex))


def test_partition_stability_under_tiny_perturbation(rng):
    m = random_hermitian_medium(rng, 2)
    base = solve_qep(m)
    anchor = [md.k for md in base.plus if abs(md.k.imag) > 1e-6]
    b2 = np.array(m.b) * (1 + 1e-13)
    m2 = MslCoefficients(b=b2, p=m.p, y=m.y, w=m.w)
    jittered = solve_qep(m2)
    for k in anchor:
        dists = [abs(k - md.k) for md in jittered.plus]
        assert min(dists) < 1e-6 * max(1.0, abs(k))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mode_source_stacks_equal_one_medium_solves(rng, n):
    # three media joined into one solve: each medium's stack is the one
    # its own solve gives, bit for bit
    g, keys = 5, ("a", "b", "c")
    media = {key: MediumStack(*(
        np.stack([getattr(m, c) for m in draws]) for c in "bpyw"))
        for key, draws in ((key, [random_partitionable_medium(rng, n)[0]
                                  for _ in range(g)]) for key in keys)}
    fails = PointFailures(g)
    modes_of = mode_source(media, keys, fails)
    for key in keys:
        alone = PointFailures(g)
        want = solve_qep_stack(media[key], alone)
        got = modes_of(key)
        assert not alone.failed.any()
        for field in ("ks", "f0", "a0", "degenerate"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert not fails.failed.any()


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3))
def test_mode_basis_is_a_view_of_its_one_point_stack(seed, n):
    # solve_qep's basis holds the G = 1 stack solve bit for bit, and its
    # modes, wavenumbers and blocks are that stack's columns in order:
    # the N plus modes, then the N minus modes
    m, basis = random_partitionable_medium(np.random.default_rng(seed), n)
    fails = PointFailures(1)
    want = solve_qep_stack(MediumStack.of(m), fails)
    assert not fails.failed.any()
    for field in ("ks", "f0", "a0", "degenerate"):
        assert (getattr(basis.stack, field).tobytes()
                == getattr(want, field).tobytes())
    ks, f0, a0 = want.ks[0], want.f0[0], want.a0[0]
    assert basis.n == n
    assert basis.degenerate == bool(want.degenerate[0])
    assert basis.ks.tobytes() == ks.tobytes()
    assert len(basis.modes) == 2 * n
    for j, md in enumerate(basis.modes):
        assert md.k == ks[j]
        assert md.f0.tobytes() == f0[:, j].tobytes()
        assert md.a0.tobytes() == a0[:, j].tobytes()
    for modes, cols in ((basis.plus, range(n)), (basis.minus, range(n, 2 * n))):
        assert [md.k for md in modes] == [ks[j] for j in cols]
        assert all(md.f0.tobytes() == f0[:, j].tobytes()
                   for md, j in zip(modes, cols))
    for block, u, cols in ((basis.f0_plus, f0, slice(0, n)),
                           (basis.a0_plus, a0, slice(0, n)),
                           (basis.f0_minus, f0, slice(n, 2 * n)),
                           (basis.a0_minus, a0, slice(n, 2 * n))):
        assert block.shape == (n, n)
        np.testing.assert_array_equal(block, u[:, cols])
