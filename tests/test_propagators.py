import math
import warnings

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from mslwave import (BlockMatrix, IllConditionedError, Layer,
                     LayeredStructure, MatrixOverflowError, MslError,
                     ShPiezoParams, SingularMatrixError, Variant, VariantError,
                     antidiagonal_identity, e_from_t, e_single_stable,
                     gamma_blocks, h_from_t, h_single_stable, invert_variant,
                     k_matrix, make_quantum_medium, make_scalar_medium,
                     make_sh_piezo_medium,
                     q_matrix, reblock_family, s_from_k, solve_qep,
                     structure_propagator, t_det_drift, t_partitions, t_single)
from mslwave._linalg import (CONDITION_LIMIT, condition_gate,
                             right_solve_stack, scaled_cond, scaled_cond_stack)
from mslwave.compose import fold_stack, interface_stack
from mslwave.errors import PointFailures
from mslwave.propagators import (_q_condition_error, _reference_phases,
                                 single_stack)
from mslwave.qep import ModeBasis, ModeStack
from conftest import random_evanescent_medium, random_partitionable_medium

EVANESCENT = make_scalar_medium(1, 0, 0, -1)
PROPAGATING = make_scalar_medium(1, 0, 0, 4)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# --- T -----------------------------------------------------------------

def test_t_single_evanescent_closed_form():
    t = t_single(EVANESCENT, 1.0)
    want = np.array([[math.cosh(1.0), math.sinh(1.0)],
                     [math.sinh(1.0), math.cosh(1.0)]])
    assert np.allclose(t.data, want, atol=1e-12)
    assert np.allclose(t.data.real, [[1.5430806, 1.1752012],
                                     [1.1752012, 1.5430806]], atol=5e-8)


def test_t_single_propagating_closed_form():
    t = t_single(PROPAGATING, math.pi / 4.0)
    want = np.array([[0.0, 0.5], [-2.0, 0.0]])
    assert np.allclose(t.data, want, atol=1e-12)


def test_t_single_zero_thickness_is_identity():
    t = t_single(EVANESCENT, 0.0)
    assert np.allclose(t.data, np.eye(2), atol=1e-14)


def test_t_single_overflow_carries_omega_d():
    with pytest.raises(MatrixOverflowError) as err:
        t_single(EVANESCENT, 800.0)
    assert err.value.omega_d == pytest.approx(800.0)


def test_t_single_mode_product_overflow_is_typed():
    # |Im k| d = 709.5 passes the exp check, but exp(|Im k| d) times the
    # mode amplitude |a0| = 10 overflows: the typed error carries omega_d
    # and no floating-point warning escapes
    barrier = make_quantum_medium(1.0, 100.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MatrixOverflowError) as err:
            t_single(barrier, 70.95)
    assert err.value.omega_d == pytest.approx(709.5)
    assert "non-finite" in str(err.value)


def test_t_chain_rule_random(rng):
    for n in (1, 2, 3):
        for _ in range(6):
            m, basis = random_partitionable_medium(rng, n)
            im = basis.max_abs_im_k()
            total = 8.0 / im if im > 1e-9 else 2.0
            d1, d2 = 0.4 * total, 0.6 * total
            t_whole = t_single(m, total)
            t_split = t_single(m, d2).data @ t_single(m, d1).data
            assert rel_err(t_split, t_whole.data) < 1e-10


def test_t_det_drift_regimes_random_evanescent(rng):
    for n in (1, 2, 3):
        m = random_evanescent_medium(rng, n)
        basis = solve_qep(m)
        d = 10.0 / basis.max_abs_im_k()
        t = t_single(m, d)
        assert t_det_drift([(m, d)], t.data, {m: basis}) <= 1e-10


# --- Appendix-style partitions ----------------------------------------

def test_gamma_blocks_scalar_evanescent():
    basis = solve_qep(EVANESCENT)
    g = gamma_blocks(basis)
    # f0 = 1, a0 = -1 (plus) / +1 (minus): gamma_11 = 1 - 1*(1)^-1*(-1) = 2
    assert g.g11[0, 0] == pytest.approx(2.0)
    assert g.g12[0, 0] == pytest.approx(2.0)
    assert g.g21[0, 0] == pytest.approx(-2.0)
    assert g.g22[0, 0] == pytest.approx(2.0)


def test_t_partitions_match_t_single_random(rng):
    count = 0
    for n in (1, 2, 3):
        while count < 20 * n // 3 + 6:
            m, basis = random_partitionable_medium(rng, n)
            im = basis.max_abs_im_k()
            d = 3.0 / im if im > 1e-9 else 1.0
            (t11, t12, t21, t22), _ = t_partitions(basis, d)
            whole = np.block([[t11, t12], [t21, t22]])
            assert rel_err(whole, t_single(m, d).data) < 1e-10
            count += 1


def test_t_partitions_zero_thickness():
    basis = solve_qep(EVANESCENT)
    (t11, t12, t21, t22), _ = t_partitions(basis, 0.0)
    assert np.allclose(t11, [[1.0]]) and np.allclose(t22, [[1.0]])
    assert np.allclose(t12, [[0.0]], atol=1e-15)
    assert np.allclose(t21, [[0.0]], atol=1e-15)


# --- H -----------------------------------------------------------------

def test_h_from_t_closed_form():
    h = h_from_t(t_single(EVANESCENT, 1.0))
    want = np.array([[-math.tanh(1.0), 1 / math.cosh(1.0)],
                     [1 / math.cosh(1.0), math.tanh(1.0)]])
    assert np.allclose(h.data, want, atol=1e-12)
    assert np.allclose(h.data.real, [[-0.7615942, 0.6480543],
                                     [0.6480543, 0.7615942]], atol=5e-8)


def test_h_of_identity_t_is_antidiagonal():
    n = 2
    t = BlockMatrix(Variant.T, np.eye(2 * n, dtype=complex))
    h = h_from_t(t)
    assert np.allclose(h.data, antidiagonal_identity(n).data, atol=1e-15)


def test_h_routes_agree_moderate_thickness(rng):
    for n in (1, 2, 3):
        for _ in range(6):
            m, basis = random_partitionable_medium(rng, n)
            im = basis.max_abs_im_k()
            d = 4.0 / im if im > 1e-9 else 1.0
            h_direct = h_single_stable(m, d)
            h_via_t = h_from_t(t_single(m, d))
            assert rel_err(h_via_t.data, h_direct.data) < 1e-9


def test_h_single_stable_large_thickness_limits():
    h = h_single_stable(EVANESCENT, 50.0)
    sech50 = 1 / math.cosh(50.0)
    assert h.data[0, 0] == pytest.approx(-1.0, rel=1e-13)
    assert h.data[1, 1] == pytest.approx(1.0, rel=1e-13)
    assert abs(h.data[0, 1] - sech50) <= 1e-15
    assert abs(h.data[1, 0] - sech50) <= 1e-15


def test_h_zero_thickness_is_antidiagonal_identity():
    h = h_single_stable(EVANESCENT, 0.0)
    assert np.max(np.abs(h.data - antidiagonal_identity(1).data)) <= 1e-14


def test_h_large_d_limits_random_evanescent(rng):
    for n in (1, 2, 3):
        m = random_evanescent_medium(rng, n)
        basis = solve_qep(m)
        d = 40.0 / min(np.abs(basis.ks.imag))
        h = h_single_stable(m, d)
        scale = np.linalg.norm(h.data, 2)
        assert np.linalg.norm(h.b12, 2) <= 1e-15 * scale
        assert np.linalg.norm(h.b21, 2) <= 1e-15 * scale
        h11_limit = basis.f0_plus @ np.linalg.inv(basis.a0_plus)
        h22_limit = basis.a0_minus @ np.linalg.inv(basis.f0_minus)
        assert rel_err(h.b11, h11_limit) < 1e-12
        assert rel_err(h.b22, h22_limit) < 1e-12


def test_h_base_independence_under_rescaling(rng):
    _, basis = random_partitionable_medium(rng, 2)
    d = 3.0
    scales = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    st = basis.stack
    rebased = ModeBasis(ModeStack(st.ks, st.f0 * scales, st.a0 * scales,
                                  st.degenerate))
    fails = PointFailures(1)
    h1, _ = single_stack(Variant.H, basis.stack, d, fails)
    h2, _ = single_stack(Variant.H, rebased.stack, d, fails)
    assert not fails.failed.any()
    assert rel_err(h2, h1) < 1e-12


# --- E -----------------------------------------------------------------

def test_e_from_t_closed_form():
    e = e_from_t(t_single(EVANESCENT, 1.0))
    coth1 = math.cosh(1.0) / math.sinh(1.0)
    csch1 = 1 / math.sinh(1.0)
    want = np.array([[-coth1, csch1], [-csch1, coth1]])
    assert np.allclose(e.data, want, atol=1e-12)
    assert np.allclose(e.data.real, [[-1.3130353, 0.8509181],
                                     [-0.8509181, 1.3130353]], atol=5e-8)


def test_e_from_t_zero_thickness_fails():
    with pytest.raises(SingularMatrixError):
        e_from_t(t_single(EVANESCENT, 0.0))


def test_e_single_stable_large_thickness():
    e = e_single_stable(EVANESCENT, 50.0)
    assert e.data[0, 0] == pytest.approx(-1.0, rel=1e-13)
    assert e.data[1, 1] == pytest.approx(1.0, rel=1e-13)
    assert abs(e.data[0, 1]) < 1e-21
    assert abs(e.data[1, 0]) < 1e-21
    # E11 -> A+ F+^{-1} = -1 for the evanescent scalar medium
    basis = solve_qep(EVANESCENT)
    assert basis.a0_plus[0, 0] / basis.f0_plus[0, 0] == pytest.approx(-1.0)


def test_e_routes_agree_moderate_thickness():
    e1 = e_single_stable(EVANESCENT, 1.0)
    e2 = e_from_t(t_single(EVANESCENT, 1.0))
    assert rel_err(e1.data, e2.data) < 1e-10


def test_e_single_stable_small_thickness_raises():
    with pytest.raises(IllConditionedError) as err:
        e_single_stable(EVANESCENT, 1e-12)
    assert err.value.estimate > 1e12


def test_e_large_d_limits_random_evanescent(rng):
    for n in (1, 2, 3):
        m = random_evanescent_medium(rng, n)
        basis = solve_qep(m)
        d = 40.0 / min(np.abs(basis.ks.imag))
        e = e_single_stable(m, d)
        scale = np.linalg.norm(e.data, 2)
        assert np.linalg.norm(e.b12, 2) <= 1e-15 * scale
        assert np.linalg.norm(e.b21, 2) <= 1e-15 * scale
        e11_limit = basis.a0_plus @ np.linalg.inv(basis.f0_plus)
        e22_limit = basis.a0_minus @ np.linalg.inv(basis.f0_minus)
        assert rel_err(e.b11, e11_limit) < 1e-12
        assert rel_err(e.b22, e22_limit) < 1e-12


# --- the condition gate ----------------------------------------------

def _exact_gate(a, fails, make_error):
    """The condition gate as the exact rule states it: the scaled
    condition of every point."""
    cond = scaled_cond_stack(a)
    fails.add(cond > CONDITION_LIMIT, lambda i: make_error(i, float(cond[i])))


def _single_error(variant, layer_index):
    """The make_error of single_stack's gate on U^AF (H) or U^FF (E)."""
    name, why = (("U^AF", "hybrid matrix pole") if variant is Variant.H
                 else ("U^FF", "stiffness matrix is not computable at small "
                       "thickness"))
    return lambda i, cond: IllConditionedError(
        f"{name} condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e} ({why})",
        estimate=cond, layer_index=layer_index)


def _exact_single_solve(variant, num, den, fails, layer_index):
    """The single-layer solve as the exact rule states it: the scaled
    condition of every point's den, then the right solve."""
    _exact_gate(den, fails, _single_error(variant, layer_index))
    data = right_solve_stack(den, num, fails,
                             "U^AF" if variant is Variant.H else "U^FF")
    fails.add(~np.isfinite(data).all(axis=(1, 2)), lambda i:
              MatrixOverflowError(f"{variant} matrix contains non-finite entries",
                                  layer_index=layer_index))
    fails.patch(data)
    return data


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _gate_den(rng, kind: str, n: int) -> np.ndarray:
    """One n x n den of the given kind, its rows and columns scaled by up
    to 1e3 either way as mixed physical units would."""
    if kind == "near_limit":
        # singular values from 1 down to 1/kappa, kappa in [LIMIT/64, 4 LIMIT]
        kappa = CONDITION_LIMIT * 2.0 ** rng.uniform(-6.0, 2.0)
        u = np.linalg.qr(_complex_normal(rng, (n, n)))[0]
        v = np.linalg.qr(_complex_normal(rng, (n, n)))[0]
        a = (u * np.geomspace(1.0, 1.0 / kappa, n)) @ v.conj().T
    else:
        a = _complex_normal(rng, (n, n))
    a *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    a *= 10.0 ** rng.uniform(-3.0, 3.0, (1, n))
    i, j = rng.integers(n, size=2)
    if kind == "singular":
        a[(i + 1) % n] = 2.0 * a[i]
    elif kind == "zero_row":
        a[i] = 0.0
    elif kind == "zero_col":
        a[:, j] = 0.0
    elif kind == "nan":
        a[i, j] = np.nan
    elif kind == "inf":
        a[i, j] = rng.choice([np.inf, -np.inf, 1j * np.inf])
    return a


GATE_KINDS = ("well", "near_limit", "near_limit", "near_limit", "singular",
              "zero_row", "zero_col", "nan", "inf")


@hyp.settings(max_examples=150, deadline=None, derandomize=True)
@hyp.given(seed=st.integers(0, 2 ** 32 - 1), big_n=st.integers(1, 3),
           g=st.integers(1, 24),
           make_error=st.sampled_from([_single_error(Variant.H, None),
                                       _single_error(Variant.E, 3),
                                       _q_condition_error]))
def test_condition_gate_decides_every_point_as_the_exact_condition(
        seed, big_n, g, make_error):
    # the bound-gated refusal fails and names every point exactly as the
    # exact scaled condition does, on matrices placed on both sides of
    # CONDITION_LIMIT and on singular, zero and non-finite ones, with the
    # errors of the single-layer factors and of a basis Q (no layer index)
    rng = np.random.default_rng(seed)
    n = 2 * big_n
    den = np.stack([_gate_den(rng, GATE_KINDS[k], n)
                    for k in rng.integers(len(GATE_KINDS), size=g)])
    earlier = rng.random(g) < 0.1
    runs = []
    for gate in (condition_gate, _exact_gate):
        fails = PointFailures(g)
        fails.add(earlier, lambda i: MslError("failed upstream"))
        a = den.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gate(a, fails, make_error)
        assert np.array_equal(a, den, equal_nan=True)
        runs.append(fails)
    fails, want = runs
    assert np.array_equal(fails.failed, want.failed)
    for i, exc in want.errors.items():
        got = fails.errors[i]
        assert type(got) is type(exc) and str(got) == str(exc)
        for attr in ("estimate", "layer_index"):
            assert getattr(got, attr, None) == getattr(exc, attr, None)


def test_single_stack_of_zero_wavenumbers_solves_its_den():
    # with k = 0 the H factor is U^AF = [A0; F0]: the public stacked call
    # fails and solves exactly as the exact rule on that den
    rng = np.random.default_rng(7)
    for big_n, kinds in ((1, ("well", "near_limit", "singular", "zero_row")),
                         (2, ("near_limit", "well", "zero_col"))):
        den = np.stack([_gate_den(rng, kind, 2 * big_n)
                        for kind in kinds * 4])
        g = len(den)
        modes = ModeStack(np.zeros((g, 2 * big_n)), den[:, big_n:],
                          den[:, :big_n], np.zeros(g, dtype=bool))
        fails, want = PointFailures(g), PointFailures(g)
        data, factor = single_stack(Variant.H, modes, 1.0, fails,
                                    layer_index=2)
        num = np.concatenate([den[:, big_n:], den[:, :big_n]], axis=1)
        want_data = _exact_single_solve(Variant.H, num, den, want, 2)
        assert np.array_equal(factor, den)
        assert np.array_equal(fails.failed, want.failed)
        assert want.failed.any() and not want.failed.all()
        assert data.tobytes() == want_data.tobytes()
        assert [str(e) for e in fails.errors.values()] == \
            [str(e) for e in want.errors.values()]


def test_scaled_cond_of_a_non_finite_matrix_is_inf():
    a = np.array([[[np.nan, 1.0], [0.0, 1.0]], [[np.inf, 1.0], [0.0, 1.0]],
                  [[1.0, 2.0], [3.0, 4.0]]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cond = scaled_cond_stack(a)
    assert cond[0] == cond[1] == np.inf
    assert cond[2] == scaled_cond(a[2])


def _inverted_factor(variant: Variant, m, d: float) -> np.ndarray:
    """U^AF (H) or U^FF (E) of one layer, built from its definition."""
    modes = solve_qep(m).stack
    at_z0, at_z = _reference_phases(modes, d)
    top, bottom = ((modes.a0, modes.f0) if variant is Variant.H
                   else (modes.f0, modes.f0))
    return np.concatenate([top * at_z0, bottom * at_z], axis=1)[0]


def test_well_conditioned_single_layers_run_no_svd(monkeypatch, rng):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    stacks = [([solve_qep(m).stack for m in media], g) for media, g in (
        ((EVANESCENT, PROPAGATING), 16),
        ((random_evanescent_medium(rng, 2), random_evanescent_medium(rng, 2)),
         8))]
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for (modes, other), g in stacks:
        d = np.linspace(0.5, 3.0, g)
        for variant in (Variant.H, Variant.E):
            fails = PointFailures(g)
            single_stack(variant, modes, d, fails, layer_index=0)
            assert not fails.failed.any()
        # the S interfaces gate their bases Q(R) and Q(L) alike
        fails = PointFailures(g)
        interface_stack(other, modes, fails)
        fold_stack([("M", d)], Variant.S, {"M": modes, "O": other}.get,
                   fails, modes.n, ends=("O", "M"))
        assert not fails.failed.any()
    assert calls == []
    # the one-layer matrices still report the exact scaled condition
    m, d = random_evanescent_medium(rng, 2), 0.7
    assert h_single_stable(m, d).conditioning == scaled_cond(
        _inverted_factor(Variant.H, m, d))
    fold, _ = structure_propagator(
        LayeredStructure(left=m, layers=(Layer(m, d),), right=m), "E")
    assert fold.conditioning == scaled_cond(_inverted_factor(Variant.E, m, d))
    assert calls


# --- Q and K -----------------------------------------------------------

def test_q_matrix_reduced_base_scalar():
    basis = solve_qep(EVANESCENT)
    q = q_matrix(basis)
    assert np.allclose(q.data, [[1, 1], [-1, 1]], atol=1e-14)
    assert np.allclose(q.data @ np.linalg.inv(q.data), np.eye(2), atol=1e-12)


def test_q_matrix_origin_shift_is_noop():
    basis = solve_qep(EVANESCENT)
    q0 = q_matrix(basis, z=0.0, references=0.0)
    q5 = q_matrix(basis, z=5.0, references=5.0)
    assert np.array_equal(q0.data, q5.data)


def test_q_matrix_sh_piezo_columns_match_paper_shapes():
    params = ShPiezoParams(rho=7500.0, c44=2.56e10, e15=12.7, eps11=6.46e-9,
                           omega=1.0e8, kappa_x=1.0e8 / 1900.0)
    m = make_sh_piezo_medium(params)
    basis = solve_qep(m)
    q = q_matrix(basis)
    electro = np.array([0.0, 1.0])
    elastic = np.array([1.0, params.e15 / params.eps11])
    elastic = elastic / np.linalg.norm(elastic)
    k1 = -1j * params.kappa_x
    for j, md in enumerate(basis.modes):
        f_col = q.data[:2, j]
        target = electro if min(abs(md.k - k1), abs(md.k + k1)) \
            < 1e-6 * abs(k1) else elastic
        assert abs(np.vdot(target, f_col)) == pytest.approx(1.0, abs=1e-9)


def test_q_matrix_ill_conditioned_degenerate():
    from mslwave import make_quantum_medium
    m = make_quantum_medium(1.0, 4.0, 4.0)  # double root k = 0
    basis = solve_qep(m)
    with pytest.raises((IllConditionedError, SingularMatrixError)):
        q_matrix(basis)


def test_k_matrix_identity_sandwich():
    basis = solve_qep(EVANESCENT)
    q = q_matrix(basis)
    t = BlockMatrix(Variant.T, np.eye(2, dtype=complex))
    k = k_matrix(q, t, q)
    assert np.allclose(k.data, np.eye(2), atol=1e-13)


def test_k_matrix_zero_thickness_is_basis_change(rng):
    m1, b1 = random_partitionable_medium(rng, 2)
    m2, b2 = random_partitionable_medium(rng, 2)
    q_l, q_r = q_matrix(b1), q_matrix(b2)
    t = BlockMatrix(Variant.T, np.eye(4, dtype=complex))
    k = k_matrix(q_r, t, q_l)
    assert rel_err(k.data, np.linalg.solve(q_r.data, q_l.data)) < 1e-12


def test_k_matrix_determinant_multiplicativity(rng):
    m, basis = random_partitionable_medium(rng, 2)
    im = basis.max_abs_im_k()
    d = 2.0 / im if im > 1e-9 else 1.0
    t = t_single(m, d)
    q = q_matrix(basis)
    k = k_matrix(q, t, q)
    want = np.linalg.det(t.data) / np.linalg.det(q.data) * np.linalg.det(q.data)
    assert np.linalg.det(k.data) == pytest.approx(want, rel=1e-9)


# --- S -----------------------------------------------------------------

def test_s_from_identity_k():
    k = BlockMatrix(Variant.K, np.eye(4, dtype=complex))
    s = s_from_k(k)
    assert np.allclose(s.data, antidiagonal_identity(2).data, atol=1e-15)


def test_s_thick_barrier_transmission_vanishes():
    basis = solve_qep(EVANESCENT)
    q = q_matrix(basis)
    t = t_single(EVANESCENT, 30.0)
    s = s_from_k(k_matrix(q, t, q))
    assert abs(s.data[0, 1]) < 1e-12   # transmission R -> L
    assert abs(s.data[1, 0]) < 1e-12   # transmission L -> R
    assert np.all(np.isfinite(s.data))


def test_s_unitary_for_lossless_slab_flux_normalized():
    # half-spaces k0 = 1, slab k = 2: flux-normalized columns (f0, a0)/sqrt(k)
    outside = make_scalar_medium(1, 0, 0, 1)
    slab = make_scalar_medium(1, 0, 0, 4)
    k0 = 1.0
    q = BlockMatrix(Variant.Q, np.array([[1, 1], [1j * k0, -1j * k0]],
                                        dtype=complex) / math.sqrt(k0))
    t = t_single(slab, 0.7)
    s = s_from_k(k_matrix(q, t, q))
    assert np.allclose(s.data.conj().T @ s.data, np.eye(2), atol=1e-12)


# --- permutation family and inverses -----------------------------------

def test_reblock_round_trips_are_identity(rng):
    data = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x = BlockMatrix(Variant.X, data)
    for target in (Variant.Y, Variant.Z, Variant.R):
        back = reblock_family(reblock_family(x, target), Variant.X)
        assert np.array_equal(back.data, x.data)


def test_reblock_identity_chains(rng):
    data = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = BlockMatrix(Variant.X, data)
    y = reblock_family(x, Variant.Y)
    z = reblock_family(x, Variant.Z)
    r = reblock_family(x, Variant.R)
    assert np.array_equal(x.b11, y.b21)
    assert np.array_equal(x.b11, r.b22)
    assert np.array_equal(x.b11, z.b12)
    assert np.array_equal(x.b12, y.b22)
    assert np.array_equal(x.b12, r.b21)
    assert np.array_equal(x.b12, z.b11)
    assert np.array_equal(x.b21, y.b11)
    assert np.array_equal(x.b21, r.b12)
    assert np.array_equal(x.b21, z.b22)
    assert np.array_equal(x.b22, y.b12)
    assert np.array_equal(x.b22, r.b11)
    assert np.array_equal(x.b22, z.b21)


def test_reblock_block_multisets_equal(rng):
    data = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = BlockMatrix(Variant.X, data)
    blocks = lambda m: sorted(m.data.flatten().tolist(), key=lambda c: (c.real, c.imag))
    for target in (Variant.Y, Variant.Z, Variant.R):
        assert blocks(reblock_family(x, target)) == blocks(x)


def test_reblock_rejects_unsupported_variants():
    t = t_single(EVANESCENT, 1.0)
    with pytest.raises(VariantError):
        reblock_family(t, Variant.Y)


def test_invert_t_is_negative_thickness():
    t = t_single(EVANESCENT, 1.0)
    t_inv = invert_variant(t)
    assert t_inv.variant is Variant.T
    assert np.allclose(t_inv.data @ t.data, np.eye(2), atol=1e-10)
    # equals T(-d): closed form with d -> -1
    want = np.array([[math.cosh(1.0), -math.sinh(1.0)],
                     [-math.sinh(1.0), math.cosh(1.0)]])
    assert np.allclose(t_inv.data, want, atol=1e-12)


def test_invert_h_round_trip():
    h = h_single_stable(EVANESCENT, 1.0)
    h_inv = invert_variant(h)
    assert h_inv.variant is Variant.X
    assert np.allclose(h_inv.data @ h.data, np.eye(2), atol=1e-12)
    assert invert_variant(h_inv).variant is Variant.H


def test_invert_e_is_compliance_from_swapped_rows():
    m, d = EVANESCENT, 1.0
    e = e_single_stable(m, d)
    c = invert_variant(e)
    assert c.variant is Variant.C
    # compliance built directly: rows (F(z0); F(z)) over (A(z0); A(z))
    modes = solve_qep(m).stack
    at_z0, at_z = _reference_phases(modes, d)
    f_z0, f_z = (modes.f0 * at_z0)[0], (modes.f0 * at_z)[0]
    a_z0, a_z = (modes.a0 * at_z0)[0], (modes.a0 * at_z)[0]
    u_ff = np.vstack([f_z0, f_z])
    u_aa = np.vstack([a_z0, a_z])
    direct = u_ff @ np.linalg.inv(u_aa)
    assert rel_err(c.data, direct) < 1e-10


def test_invert_rejects_s_and_q():
    basis = solve_qep(EVANESCENT)
    with pytest.raises(VariantError):
        invert_variant(q_matrix(basis))
