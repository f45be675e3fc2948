import math
import warnings

import numpy as np
import pytest

from mslwave import (BlockMatrix, IllConditionedError, Layer,
                     LayeredStructure, MatrixOverflowError, MslError, Variant,
                     antidiagonal_identity, compose_e, compose_h, compose_t,
                     e_from_t, e_single_stable, h_single_stable, k_matrix,
                     make_quantum_medium, make_scalar_medium, q_matrix,
                     s_from_k, s_identity, solve_qep, star_product,
                     structure_propagator, t_det_drift, t_single,
                     variant_comparison_report)
from mslwave.compose import _compose_traced, fold_stack
from mslwave.errors import PointFailures
from mslwave.media import MediumStack
from mslwave.qep import solve_qep_stack
from conftest import random_partitionable_medium

EVANESCENT = make_scalar_medium(1, 0, 0, -1)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def random_contractive_s(rng, n):
    data = rng.standard_normal((2 * n, 2 * n)) \
        + 1j * rng.standard_normal((2 * n, 2 * n))
    data *= 0.9 / np.linalg.norm(data, 2)
    return BlockMatrix(Variant.S, data)


# --- T composition ------------------------------------------------------

def test_compose_t_halves_equal_whole():
    t_half = t_single(EVANESCENT, 0.5)
    t_whole = t_single(EVANESCENT, 1.0)
    assert rel_err(compose_t(t_half, t_half).data, t_whole.data) < 1e-10


def test_compose_t_identity_neutral():
    t = t_single(EVANESCENT, 1.3)
    eye = BlockMatrix(Variant.T, np.eye(2, dtype=complex))
    assert np.allclose(compose_t(t, eye).data, t.data)
    assert np.allclose(compose_t(eye, t).data, t.data)


def test_compose_t_associative(rng):
    m, basis = random_partitionable_medium(rng, 2)
    ts = [t_single(m, d, basis) for d in (0.3, 0.5, 0.7)]
    left = compose_t(compose_t(ts[2], ts[1]), ts[0])
    right = compose_t(ts[2], compose_t(ts[1], ts[0]))
    assert rel_err(left.data, right.data) < 1e-10


# --- H composition ------------------------------------------------------

def test_compose_h_halves_equal_whole():
    h_half = h_single_stable(EVANESCENT, 0.5)
    whole = h_single_stable(EVANESCENT, 1.0)
    assert rel_err(compose_h(h_half, h_half).data, whole.data) < 1e-10


def test_compose_h_neutral_element_both_sides():
    ident = antidiagonal_identity(1)
    h = h_single_stable(EVANESCENT, 0.8)
    assert np.allclose(compose_h(ident, h).data, h.data, atol=1e-15)
    assert np.allclose(compose_h(h, ident).data, h.data, atol=1e-15)


def test_compose_h_hundred_layer_stack_stays_finite():
    # per-layer |Im k| d = 2; transmission-like block must decay, never blow
    h_layer = h_single_stable(EVANESCENT, 2.0)
    acc = h_layer
    off_norms = [abs(acc.data[0, 1])]
    for _ in range(99):
        acc = compose_h(h_layer, acc)
        off_norms.append(abs(acc.data[0, 1]))
    assert np.all(np.isfinite(acc.data))
    assert all(b < a for a, b in zip(off_norms, off_norms[1:]))
    assert acc.data[0, 0] == pytest.approx(-1.0, rel=1e-12)
    assert acc.data[1, 1] == pytest.approx(1.0, rel=1e-12)


# --- E composition ------------------------------------------------------

def test_compose_e_halves_equal_whole():
    e_half = e_single_stable(EVANESCENT, 0.5)
    whole = e_single_stable(EVANESCENT, 1.0)
    assert rel_err(compose_e(e_half, e_half).data, whole.data) < 1e-9


def test_compose_e_matches_t_route(rng):
    m, basis = random_partitionable_medium(rng, 2)
    im = basis.max_abs_im_k()
    d = 2.0 / im if im > 1e-9 else 1.0
    e_fold = compose_e(e_single_stable(m, 0.5 * d, basis),
                       e_single_stable(m, 0.5 * d, basis))
    e_t = e_from_t(compose_t(t_single(m, 0.5 * d, basis),
                             t_single(m, 0.5 * d, basis)))
    assert rel_err(e_fold.data, e_t.data) < 1e-9


def test_compose_e_thin_layer_inner_norm_reported():
    d = 1e-10
    e_thin = e_single_stable(EVANESCENT, d)
    _, step = _compose_traced(Variant.E, e_thin, e_thin, 0)
    # inner factor is E^rest_11 - E^m_22 ~ -2/d for thin evanescent layers
    assert step.factor_norm > 1e10


# --- star product -------------------------------------------------------

def test_star_identity_element(rng):
    s = random_contractive_s(rng, 2)
    ident = s_identity(2)
    assert np.allclose(star_product(s, ident).data, s.data, atol=1e-15)
    assert np.allclose(star_product(ident, s).data, s.data, atol=1e-15)


def test_star_associative(rng):
    a, b, c = (random_contractive_s(rng, 2) for _ in range(3))
    left = star_product(star_product(c, b), a)
    right = star_product(c, star_product(b, a))
    assert rel_err(left.data, right.data) < 1e-10


def test_star_thick_barriers_kill_transmission():
    basis = solve_qep(EVANESCENT)
    q = q_matrix(basis)
    s_barrier = s_from_k(k_matrix(q, t_single(EVANESCENT, 25.0), q))
    stacked = star_product(s_barrier, s_barrier)
    assert abs(stacked.data[0, 1]) < 1e-18
    assert abs(stacked.data[1, 0]) < 1e-18
    assert np.all(np.isfinite(stacked.data))


# --- structure folds ----------------------------------------------------

def _sandwich(medium, layers):
    return LayeredStructure(left=medium, layers=tuple(layers), right=medium)


def test_single_layer_fold_matches_single():
    s = _sandwich(EVANESCENT, [Layer(EVANESCENT, 1.0)])
    for variant, single in ((Variant.T, t_single), (Variant.H, h_single_stable),
                            (Variant.E, e_single_stable)):
        folded, trace = structure_propagator(s, variant)
        assert rel_err(folded.data, single(EVANESCENT, 1.0).data) < 1e-12
        assert len(trace) == 0


def test_zero_thickness_layer_is_neutral(rng):
    m_a, _ = random_partitionable_medium(rng, 2)
    m_b, _ = random_partitionable_medium(rng, 2)
    with_b = _sandwich(m_a, [Layer(m_a, 0.4), Layer(m_b, 0.0), Layer(m_a, 0.6)])
    merged = _sandwich(m_a, [Layer(m_a, 0.4), Layer(m_a, 0.6)])
    for variant in (Variant.T, Variant.H, Variant.E, Variant.S):
        got, _ = structure_propagator(with_b, variant)
        want, _ = structure_propagator(merged, variant)
        assert rel_err(got.data, want.data) < 1e-10


def test_cross_route_t_vs_h_fold(rng):
    from mslwave import h_from_t
    media = []
    rng2 = np.random.default_rng(7)
    for _ in range(3):
        m, basis = random_partitionable_medium(rng2, 2)
        media.append((m, basis))
    total_im = sum(b.max_abs_im_k() for _, b in media)
    d_each = 6.0 / max(total_im, 1.0)
    s = _sandwich(media[0][0], [Layer(m, d_each) for m, _ in media])
    t_fold, _ = structure_propagator(s, Variant.T)
    h_fold, _ = structure_propagator(s, Variant.H)
    assert rel_err(h_from_t(t_fold).data, h_fold.data) < 1e-9


def test_cross_route_t_vs_e_and_s_fold(rng):
    m, basis = random_partitionable_medium(rng, 2)
    im = max(basis.max_abs_im_k(), 1.0)
    s = _sandwich(m, [Layer(m, 2.0 / im), Layer(m, 1.0 / im)])
    t_fold, _ = structure_propagator(s, Variant.T)
    e_fold, _ = structure_propagator(s, Variant.E)
    assert rel_err(e_from_t(t_fold).data, e_fold.data) < 1e-8
    s_fold, _ = structure_propagator(s, Variant.S)
    q = q_matrix(basis)
    s_direct = s_from_k(k_matrix(q, t_fold, q))
    assert rel_err(s_fold.data, s_direct.data) < 1e-8


def test_fold_trace_lengths():
    s = _sandwich(EVANESCENT, [Layer(EVANESCENT, 0.5)] * 4)
    _, trace_h = structure_propagator(s, Variant.H)
    assert len(trace_h) == 3
    _, trace_t = structure_propagator(s, Variant.T)
    assert len(trace_t) == 3
    _, trace_s = structure_propagator(s, Variant.S)
    assert len(trace_s) == 8  # one propagation + one interface per layer


def test_stability_contrast_large_total_omega_d():
    # 40 layers of |Im k| d = 2 each: total 80. H and S stay finite while
    # the T product's determinant is garbage.
    s = _sandwich(EVANESCENT, [Layer(EVANESCENT, 2.0)] * 40)
    h_fold, _ = structure_propagator(s, Variant.H)
    s_fold, _ = structure_propagator(s, Variant.S)
    assert np.all(np.isfinite(h_fold.data))
    assert np.all(np.isfinite(s_fold.data))
    try:
        t_fold, _ = structure_propagator(s, Variant.T)
        det = np.linalg.det(t_fold.data)
        drift = np.inf if det == 0 else max(abs(det - 1), abs(1 / det - 1))
        assert drift > 1e3
    except MatrixOverflowError:
        pass


def test_t_det_drift_of_huge_products_raises_no_warning():
    # the stack above, and a 40-layer well/barrier stack whose T product
    # stays finite while its determinant leaves the double range: the
    # drift comes from slogdet, so no floating-point warning escapes and
    # a drift past the double range reads inf
    evanescent = _sandwich(EVANESCENT, [Layer(EVANESCENT, 2.0)] * 40)
    well = make_quantum_medium(1.0, 0.0, 2.0)
    barrier = make_quantum_medium(1.0, 10.0, 2.0)
    wells = _sandwich(barrier, [Layer(well if i % 2 == 0 else barrier, 1.0)
                                for i in range(40)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        t_fold, _ = structure_propagator(evanescent, Variant.T)
        reports = [variant_comparison_report(s, [1.0, 4.0, 8.0, 8.8])
                   for s in (evanescent, wells)]
    assert t_det_drift([(ly.medium, ly.thickness) for ly in evanescent.layers],
                       t_fold.data) > 1e3
    for report in reports:
        assert [row[2] for row in report.rows] == ["ok"] * 4
        drifts = [row[3] for row in report.rows]
        assert all(d > 1e3 for d in drifts)
    drifts = [row[3] for row in reports[1].rows]
    assert np.isfinite(drifts[:2]).all() and np.isinf(drifts[2:]).all()


def test_t_fold_overflow_names_layer():
    s = _sandwich(EVANESCENT, [Layer(EVANESCENT, 400.0), Layer(EVANESCENT, 400.0)])
    with pytest.raises(MatrixOverflowError) as err:
        structure_propagator(s, Variant.T)
    assert err.value.layer_index is not None


def test_empty_region_folds():
    s = _sandwich(EVANESCENT, [])
    t, _ = structure_propagator(s, Variant.T)
    assert np.allclose(t.data, np.eye(2))
    h, _ = structure_propagator(s, Variant.H)
    assert np.allclose(h.data, antidiagonal_identity(1).data)


# --- stacked folds against single points -----------------------------------

BARRIER = make_quantum_medium(1.0, 100.0, 0.0)  # |Im k| = 10, |a0| = 10


def assert_fold_matches_points(left, media, thicknesses, right, variant):
    """fold_stack over G points with per-point thicknesses (G, L) against
    structure_propagator of each point: data and trace to rtol 1e-12,
    identical masks, identical errors (class, message, attributes)."""
    bases = {m: solve_qep(m) for m in [left, right, *media]}
    g = len(thicknesses)
    fails = PointFailures(g)
    data, cond, steps = fold_stack(
        [(m, thicknesses[:, j]) for j, m in enumerate(media)], variant,
        lambda m: bases[m].stack, fails, trace=True, ends=(left, right))
    for i in range(g):
        s = LayeredStructure(left=left, right=right, layers=tuple(
            Layer(m, float(d)) for m, d in zip(media, thicknesses[i])))
        try:
            want, trace = structure_propagator(s, variant, bases)
        except MslError as exc:
            got = fails.errors[i]
            assert (type(got), str(got)) == (type(exc), str(exc))
            for attr in ("layer_index", "omega_d", "estimate", "sigma_min"):
                assert getattr(got, attr, None) == getattr(exc, attr, None)
            continue
        assert not fails.failed[i]
        np.testing.assert_allclose(data[i], want.data, rtol=1e-12, atol=0)
        if want.conditioning is not None:
            assert cond[i] == pytest.approx(want.conditioning, rel=1e-12)
        assert len(steps) == len(trace)
        for sv, step in zip(steps, trace.steps):
            assert sv[i, 0] == pytest.approx(step.factor_norm, rel=1e-12)
            assert sv[i, -1] == pytest.approx(step.factor_sigma_min,
                                              rel=1e-12, abs=1e-300)
    return fails


def test_fold_stack_t_overflow_points_keep_layer_index():
    # per point: live; the middle layer's exp(|Im k| d) past the double
    # range; its exp times |a0| = 10 past it; the product past it at
    # layer 0; live again
    thicknesses = np.array([[1.0, 1.0, 1.0], [1.0, 71.0, 1.0],
                            [1.0, 70.95, 1.0], [400.0, 35.0, 1.0],
                            [300.0, 30.0, 2.0]])
    media = [EVANESCENT, BARRIER, EVANESCENT]
    fails = assert_fold_matches_points(EVANESCENT, media, thicknesses,
                                       EVANESCENT, Variant.T)
    assert fails.failed.tolist() == [False, True, True, True, False]
    assert [fails.errors[i].layer_index for i in (1, 2, 3)] == [1, 1, 0]
    for variant in (Variant.H, Variant.S, Variant.E):
        assert not assert_fold_matches_points(EVANESCENT, media, thicknesses,
                                              EVANESCENT, variant).failed.any()


def test_fold_stack_e_thin_layer_points():
    thicknesses = np.array([[0.5, 1.0], [1e-12, 1.0], [0.7, 1e-13],
                            [2.0, 0.3]])
    fails = assert_fold_matches_points(EVANESCENT, [EVANESCENT, BARRIER],
                                       thicknesses, BARRIER, Variant.E)
    assert fails.failed.tolist() == [False, True, True, False]
    assert all(isinstance(fails.errors[i], IllConditionedError)
               for i in (1, 2))
    for variant in (Variant.T, Variant.H, Variant.S):
        assert_fold_matches_points(EVANESCENT, [EVANESCENT, BARRIER],
                                   thicknesses, BARRIER, variant)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fold_stack_matches_single_points_random_media(rng, n):
    media = [random_partitionable_medium(rng, n)[0] for _ in range(5)]
    thicknesses = rng.uniform(0.2, 2.0, (6, 3))
    for variant in (Variant.T, Variant.H, Variant.E, Variant.S):
        assert_fold_matches_points(media[0], media[1:4], thicknesses,
                                   media[4], variant)
    single = thicknesses[:, :1]
    for variant in (Variant.T, Variant.H, Variant.E, Variant.S):
        assert_fold_matches_points(media[0], media[1:2], single, media[4],
                                   variant)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fold_stack_matches_single_points_per_point_media(rng, n):
    # every point draws its own media, so the S interfaces differ from
    # point to point
    g, keys = 6, ("left", "a", "b", "right")
    draws = [[random_partitionable_medium(rng, n)[0] for _ in keys]
             for _ in range(g)]
    layers = [("a", 0.7), ("b", 1.3)]
    for variant in (Variant.S, Variant.T, Variant.H, Variant.E):
        fails = PointFailures(g)
        modes = {key: solve_qep_stack(MediumStack(*(
            np.stack([getattr(point[j], c) for point in draws])
            for c in "bpyw")), fails) for j, key in enumerate(keys)}
        data, _, _ = fold_stack(layers, variant, modes.__getitem__, fails,
                                ends=("left", "right"))
        assert not fails.failed.any()
        for i, (left, a, b, right) in enumerate(draws):
            s = LayeredStructure(left=left, right=right, layers=tuple(
                Layer(m, d) for m, (_, d) in zip((a, b), layers)))
            want, _ = structure_propagator(s, variant)
            np.testing.assert_allclose(data[i], want.data, rtol=1e-12, atol=0)


def test_e_fold_thin_layer_error_names_the_layer():
    # the second layer is too thin for E: both the stacked fold and the
    # G = 1 fold name it; the message is the single-layer one
    s = _sandwich(EVANESCENT, [Layer(EVANESCENT, 1.0), Layer(BARRIER, 1e-13)])
    with pytest.raises(IllConditionedError) as err:
        structure_propagator(s, Variant.E)
    assert err.value.layer_index == 1
    with pytest.raises(IllConditionedError) as single:
        e_single_stable(BARRIER, 1e-13)
    assert str(err.value) == str(single.value)
    assert single.value.layer_index is None
    fails = PointFailures(2)
    fold_stack([(EVANESCENT, np.array([1.0, 1.0])),
                (BARRIER, np.array([0.5, 1e-13]))],
               Variant.E, lambda m: solve_qep(m).stack, fails)
    assert fails.failed.tolist() == [False, True]
    assert fails.errors[1].layer_index == 1


@pytest.mark.parametrize("d_thin", [80.0, 1e-13])
def test_fold_stack_mixes_shared_and_per_point_thicknesses(d_thin):
    # the first layer's thickness and modes are shared by both points,
    # the second's thickness is per point; at the second point T
    # overflows (80) or E is not computable (1e-13). Every variant's fold
    # gives each point's G = 1 fold bit for bit, or its error
    d = np.array([0.5, d_thin])
    bases = {m: solve_qep(m) for m in (EVANESCENT, BARRIER)}
    for variant in (Variant.T, Variant.H, Variant.E, Variant.S):
        fails = PointFailures(2)
        data, _, _ = fold_stack([(EVANESCENT, 1.0), (BARRIER, d)], variant,
                                lambda m: bases[m].stack, fails,
                                ends=(EVANESCENT, BARRIER))
        for i in range(2):
            s = LayeredStructure(left=EVANESCENT, right=BARRIER, layers=(
                Layer(EVANESCENT, 1.0), Layer(BARRIER, float(d[i]))))
            try:
                want, _ = structure_propagator(s, variant, bases)
            except MslError as exc:
                got = fails.errors[i]
                assert ((type(got), str(got), got.layer_index)
                        == (type(exc), str(exc), exc.layer_index))
                continue
            assert not fails.failed[i]
            assert data[i].tobytes() == want.data.tobytes()
