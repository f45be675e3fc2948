import math

import mpmath
import numpy as np
import pytest

from mslwave import (Layer, LayeredStructure, MatrixOverflowError, MslError,
                     MslCoefficients, PartitionError, SingularMatrixError,
                     default_c_estimate, det_unimodularity_scan,
                     expm_propagator, first_order_matrix, make_scalar_medium,
                     rk4_propagator, roundoff_bound, solve_qep,
                     structure_propagator, t_det_drift, t_single,
                     variant_comparison_report)
from mslwave._linalg import UNIT_ROUNDOFF, det_drift
from conftest import random_hermitian_medium, random_partitionable_medium

EVANESCENT = make_scalar_medium(1, 0, 0, -1)
PROPAGATING = make_scalar_medium(1, 0, 0, 4)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# --- first-order form ----------------------------------------------------

def test_first_order_matrix_evanescent():
    sys_m = first_order_matrix(EVANESCENT)
    assert np.allclose(sys_m.m, [[0, 1], [1, 0]])


def test_first_order_matrix_propagating():
    sys_m = first_order_matrix(PROPAGATING)
    assert np.allclose(sys_m.m, [[0, 1], [-4, 0]])


def test_first_order_matrix_p_y_zero_general(rng):
    b = np.array([[2.0, 0.5], [0.5, 3.0]], dtype=complex)
    w = np.array([[1.0, 0.2], [0.2, -1.0]], dtype=complex)
    z = np.zeros((2, 2))
    from mslwave import MslCoefficients
    m = MslCoefficients(b=b, p=z, y=z, w=w)
    sys_m = first_order_matrix(m)
    assert np.allclose(sys_m.m[:2, 2:], np.linalg.inv(b))
    assert np.allclose(sys_m.m[2:, :2], -w)
    assert np.allclose(sys_m.m[:2, :2], 0.0)
    assert np.allclose(sys_m.m[2:, 2:], 0.0)


def test_first_order_round_trip(rng):
    m, _ = random_partitionable_medium(rng, 3)
    b, p, y, w = first_order_matrix(m).reconstruct_coefficients()
    assert rel_err(b, m.b) < 1e-12
    assert rel_err(p, m.p) < 1e-12 or np.linalg.norm(m.p) < 1e-12
    assert rel_err(y, m.y) < 1e-12 or np.linalg.norm(m.y) < 1e-12
    assert rel_err(w, m.w) < 1e-12


# --- exponential oracle --------------------------------------------------

def test_expm_closed_form_evanescent():
    t = expm_propagator(EVANESCENT, 1.0)
    want = np.array([[math.cosh(1.0), math.sinh(1.0)],
                     [math.sinh(1.0), math.cosh(1.0)]])
    assert np.allclose(t.data, want, atol=1e-12)


def test_expm_zero_thickness_exact_identity():
    t = expm_propagator(PROPAGATING, 0.0)
    assert np.array_equal(t.data, np.eye(2).astype(complex))


def test_expm_matches_t_single_random_hermitian(rng):
    m, basis = random_partitionable_medium(rng, 3)
    im = basis.max_abs_im_k()
    d = 3.0 / im if im > 1e-9 else 1.0
    t_modal = t_single(m, d, basis)
    t_oracle = expm_propagator(m, d)
    assert rel_err(t_modal.data, t_oracle.data) < 1e-8


def test_rk4_secondary_cross_check():
    t = rk4_propagator(EVANESCENT, 1.0, steps=2000)
    want = expm_propagator(EVANESCENT, 1.0)
    assert rel_err(t.data, want.data) < 1e-10


# --- unimodularity scan --------------------------------------------------

def test_det_scan_regimes():
    report = det_unimodularity_scan(EVANESCENT, [1.0, 50.0, 800.0])
    rows = {row[0]: row for row in report.rows}
    assert rows[1.0][2] <= 1e-12 and rows[1.0][3] is False
    assert rows[50.0][2] >= 1e3
    assert rows[800.0][3] is True and rows[800.0][2] is None


def test_det_scan_csv_shape():
    report = det_unimodularity_scan(EVANESCENT, [0.5, 1.0])
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("# unit_roundoff")
    assert lines[1] == "d,omega_d,det_drift,overflow"
    assert len(lines) == 4


# --- roundoff bound ------------------------------------------------------

def test_unit_roundoff_detection():
    assert 1.0 + UNIT_ROUNDOFF != 1.0
    assert 1.0 + UNIT_ROUNDOFF / 2.0 == 1.0


def test_roundoff_bound_zero_thickness():
    basis = solve_qep(EVANESCENT)
    assert roundoff_bound(EVANESCENT, 0.0, c_estimate=1.0, basis=basis) \
        == pytest.approx(UNIT_ROUNDOFF)


def test_roundoff_bound_at_50():
    got = roundoff_bound(EVANESCENT, 50.0, c_estimate=1.0)
    assert got == pytest.approx(math.exp(50.0) * UNIT_ROUNDOFF)
    assert got == pytest.approx(1.15e6, rel=2e-2)


def test_roundoff_bound_monotone():
    vals = [roundoff_bound(EVANESCENT, d, c_estimate=1.0)
            for d in (0.0, 1.0, 5.0, 20.0, 100.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_default_c_estimate_positive(rng):
    _, basis = random_partitionable_medium(rng, 2)
    assert default_c_estimate(basis) > 0


def test_drift_exceeds_bound_floor():
    # the measured breakdown should not undershoot the predicted
    # mechanism by more than three orders of magnitude
    basis = solve_qep(EVANESCENT)
    t = t_single(EVANESCENT, 50.0, basis)
    bound = roundoff_bound(EVANESCENT, 50.0, basis=basis)
    drift = t_det_drift([(EVANESCENT, 50.0)], t.data, {EVANESCENT: basis})
    assert drift >= bound / 1e3


def test_t_det_drift_regimes_evanescent():
    # one hermitian layer: the 64-bit drift resolves the roundoff growth
    # that the float64 determinant of the same T buries at moderate
    # Omega d, and reads huge or inf once T is numerically singular
    basis = solve_qep(EVANESCENT)
    prec = mpmath.mp.prec

    def drifts(omega_d):
        d = omega_d / basis.max_abs_im_k()
        t = t_single(EVANESCENT, d, basis).data
        return t_det_drift([(EVANESCENT, d)], t, {EVANESCENT: basis}), \
            det_drift(t)

    assert drifts(1.0)[0] <= 1e-15
    extended, plain = drifts(10.0)
    assert 1e-12 <= extended <= 1e-10 and plain > 1e-9
    assert 1e-4 <= drifts(20.0)[0] <= 1e-2
    assert drifts(50.0)[0] >= 1e3
    assert mpmath.mp.prec == prec


# --- variant comparison report -------------------------------------------

def _evanescent_stack(n_layers, d_each):
    return LayeredStructure(left=EVANESCENT,
                            layers=tuple(Layer(EVANESCENT, d_each)
                                         for _ in range(n_layers)),
                            right=EVANESCENT)


def test_report_stability_contrast():
    s = _evanescent_stack(10, 1.0)  # total Omega d = 10 * scale
    report = variant_comparison_report(s, [0.1, 1.0, 10.0])
    cols = {name: i for i, name in enumerate(report.columns)}
    by_scale = {row[0]: row for row in report.rows}
    # moderate: everything fine
    assert by_scale[0.1][cols["t_status"]] == "ok"
    assert by_scale[0.1][cols["t_det_drift"]] < 1e-8
    # total Omega d = 100: T drifts or dies, H and S stay finite
    bad = by_scale[10.0]
    t_failed = bad[cols["t_status"]] != "ok" or bad[cols["t_det_drift"]] > 1e3
    assert t_failed
    assert bad[cols["h_status"]] == "ok"
    assert bad[cols["s_status"]] == "ok"
    assert bad[cols["h_max_block_norm"]] < 10.0
    assert bad[cols["h_offdiag_norm"]] < 1e-15 * bad[cols["h_max_block_norm"]] \
        or bad[cols["h_offdiag_norm"]] < 1e-10


def test_report_thin_layer_e_conditioning():
    s = _evanescent_stack(1, 1.0)
    report = variant_comparison_report(s, [1e-2, 1e-6, 1e-10])
    cols = {name: i for i, name in enumerate(report.columns)}
    e_cond = [row[cols["e_conditioning"]] for row in report.rows]
    h_stat = [row[cols["h_status"]] for row in report.rows]
    assert e_cond[0] < e_cond[1] < e_cond[2]
    assert e_cond[2] > 1e9
    assert all(st == "ok" for st in h_stat)


def test_report_zero_length_sweep():
    s = _evanescent_stack(1, 1.0)
    report = variant_comparison_report(s, [])
    assert report.rows == ()
    text = report.to_csv(include_meta=False)
    assert text.strip().splitlines() == [",".join(report.columns)]


def test_report_raises_the_mode_error_of_the_first_medium_read():
    # two media whose QEP fails with different errors, one a layer and
    # one the left half-space: the layer's error is raised, because the
    # media are read layers first, then the ends; swapping them swaps it
    singular_b = MslCoefficients(b=[[0.0]], p=[[0.0]], y=[[0.0]], w=[[1.0]])
    one_sided = MslCoefficients(b=[[1.0]], p=[[5.0j]], y=[[5.0j]],
                                w=[[-1.0]])
    for layer, left, error in ((singular_b, one_sided, SingularMatrixError),
                               (one_sided, singular_b, PartitionError)):
        s = LayeredStructure(left=left, layers=(Layer(layer, 1.0),),
                             right=EVANESCENT)
        with pytest.raises(error) as err:
            variant_comparison_report(s, [1.0])
        with pytest.raises(error) as alone:
            solve_qep(layer)
        assert str(err.value) == str(alone.value)


def per_scale_rows(s, scales):
    """The report computed scale by scale through structure_propagator
    (the reference the stacked report must reproduce exactly)."""
    rows = []
    for scale in scales:
        scaled = LayeredStructure(left=s.left, right=s.right, layers=tuple(
            Layer(ly.medium, ly.thickness * scale) for ly in s.layers))
        bases = {m: solve_qep(m)
                 for m in [s.left, s.right] + [ly.medium for ly in s.layers]}
        row = [float(scale), float(sum(bases[ly.medium].max_abs_im_k()
                                       * ly.thickness for ly in scaled.layers))]
        for variant in "THSE":
            try:
                m, trace = structure_propagator(scaled, variant, bases)
            except MslError as exc:
                row += [type(exc).__name__] + [None] * {"T": 1, "H": 3,
                                                        "S": 2, "E": 2}[variant]
                continue
            norms = [np.linalg.norm(m.block(i, j), 2)
                     for i in (1, 2) for j in (1, 2)]
            row += {"T": lambda: ["ok", t_det_drift(
                        [(ly.medium, ly.thickness) for ly in scaled.layers
                         if ly.thickness > 0.0], m.data, bases)],
                    "H": lambda: ["ok", float(max(norms)),
                                  float(norms[1] + norms[2]),
                                  float(trace.max_conditioning())],
                    "S": lambda: ["ok", float(max(norms)),
                                  float(trace.max_conditioning())],
                    "E": lambda: ["ok", m.conditioning,
                                  float(trace.max_factor_norm())]}[variant]()
        row.append(float(max((roundoff_bound(ly.medium, ly.thickness,
                                             basis=bases[ly.medium])
                              for ly in scaled.layers), default=0.0)))
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("layers,scales", [
    # one hermitian layer: t_det_drift is the 64-bit mpmath drift; the
    # thinnest scale fails E, the thickest overflows T
    ([(EVANESCENT, 1.0)], [1e-13, 0.5, 30.0, 800.0]),
    # well/barrier stack with a zero-thickness layer: the drift of the
    # product comes from slogdet; scale 0 folds the bare interface
    ([(PROPAGATING, 0.7), (EVANESCENT, 2.0), (PROPAGATING, 0.0),
      (EVANESCENT, 1.5)], [0.0, 0.2, 1.0, 10.0, 120.0, 250.0]),
])
def test_report_matches_per_scale_folds(layers, scales):
    s = LayeredStructure(left=EVANESCENT, right=PROPAGATING, layers=tuple(
        Layer(m, d) for m, d in layers))
    report = variant_comparison_report(s, scales)
    assert report.rows == per_scale_rows(s, scales)
    statuses = {cell for row in report.rows for cell in row
                if isinstance(cell, str)}
    assert {"ok", "MatrixOverflowError"} <= statuses


def test_t_det_drift_measures_det_t_against_liouville():
    # det T = exp(sum_i d_i tr M_i): this medium has tr M != 0, so det T
    # is far from 1 at Omega d = 0.5 although T is accurate
    m, basis = random_partitionable_medium(np.random.default_rng(5), 2)
    d = 0.5 / basis.max_abs_im_k()
    phi = np.trace(first_order_matrix(m).m) * d
    t = t_single(m, d, basis).data
    assert abs(np.linalg.det(t) - np.exp(phi)) < 1e-12
    assert abs(np.linalg.det(t) - 1.0) > 0.1
    assert t_det_drift([(m, d)], t, {m: basis}) < 1e-12
    s = LayeredStructure(left=m, right=m, layers=(Layer(m, d), Layer(m, d)))
    t2, _ = structure_propagator(s, "T")
    assert t_det_drift([(m, d), (m, d)], t2.data) < 1e-12


def test_t_det_drift_of_quantum_media_is_the_drift_from_one():
    # p = y = 0 gives tr M = 0 exactly: the drift is the one of det T
    # from 1, bit for bit
    s = LayeredStructure(left=EVANESCENT, right=EVANESCENT, layers=(
        Layer(EVANESCENT, 3.0), Layer(PROPAGATING, 0.7), Layer(EVANESCENT, 2.0)))
    t, _ = structure_propagator(s, "T")
    layers = [(ly.medium, ly.thickness) for ly in s.layers]
    assert t_det_drift(layers, t.data) == det_drift(t.data)
