import cmath
import copy
import dataclasses
import json
import math
from unittest import mock

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.optimize

from mslwave import (Layer, LayeredStructure, ModelingError, ModelingWarning,
                     MslError, QuantumLayer, Variant, band_scans,
                     band_structure, connect_bands, escape_energy_scan,
                     escape_secular, finite_well_oracle,
                     kronig_penney_period, kronig_penney_residuals,
                     make_quantum_medium, make_scalar_medium, parse_structure,
                     periodic_dispersion, scan_and_refine, sh_wave_speeds,
                     structure_propagator, t_det_drift)
from mslwave.errors import (IllConditionedError, MatrixOverflowError,
                            PointFailures, StructuralError)
from mslwave.media import MediumStack, StackedStructure
from mslwave import qep, solvers
from mslwave.solvers import (SCAN_BLOCK, _bloch_residuals, _bound_stacked,
                             escape_secular_stack, periodic_dispersion_stack)
from mslwave.structure_io import StructureDefinition
from conftest import random_hermitian_medium


def quantum_defn(entries, left, right, layers):
    doc = {"materials": {name: {"kind": "quantum", "mass": m, "potential": v}
                         for name, (m, v) in entries.items()},
           "left": left, "right": right,
           "layers": [{"material": nm, "thickness": d} for nm, d in layers]}
    return parse_structure(json.dumps(doc))


WELL_DEFN = quantum_defn({"well": (1.0, 0.0), "wall": (1.0, 10.0)},
                         "wall", "wall", [("well", 2.0)])


def textbook_kp_expression(e, q, a, b, v0, m_a=1.0, m_b=1.0, h2=1.0):
    """Independent oracle: the classical two-medium dispersion relation,
    cos(kA a)cos(kB b) - (kA/kB + kB/kA)/2 sin(kA a)sin(kB b) = cos(qd)
    for equal masses (effective-mass weights restore generality)."""
    k_a = cmath.sqrt(e * m_a / h2)
    k_b = cmath.sqrt((e - v0) * m_b / h2)
    ra = (k_a / m_a) / (k_b / m_b)
    val = (cmath.cos(k_a * a) * cmath.cos(k_b * b)
           - 0.5 * (ra + 1.0 / ra) * cmath.sin(k_a * a) * cmath.sin(k_b * b))
    return val - math.cos(q * (a + b))


# --- scan machinery -------------------------------------------------------

def test_scan_simple_quadratic_root():
    scan = scan_and_refine(lambda x: complex(x * x - 2.0),
                           np.linspace(0.0, 2.0, 41), tol=1e-12)
    assert scan.mode == "sign"
    assert len(scan.roots) == 1
    assert scan.roots[0].value == pytest.approx(math.sqrt(2.0), abs=1e-11)


def test_scan_refiner_reuses_grid_values():
    # each evaluation is a grid point, a refinement point strictly inside
    # the bracket or the one accepting evaluation of the refined root;
    # the bracket's end values come from the grid
    calls = []

    def f(x):
        calls.append(x)
        return complex(x * x - 2.0)

    grid = np.linspace(0.0, 2.0, 41)
    scan = scan_and_refine(f, grid, tol=1e-12)
    (root,) = scan.roots
    assert root.value == pytest.approx(math.sqrt(2.0), abs=1e-12)
    lo, hi = root.bracket
    refine = calls[len(grid):-1]
    assert calls[:len(grid)] == grid.tolist()
    assert all(lo < x < hi for x in refine)
    assert len(refine) <= 12
    assert calls[-1] == root.value


@pytest.mark.parametrize("p", [0.7314159, 1.2004, 1.6496])
@pytest.mark.parametrize("f", [lambda x, p: 1.0 / (x - p),
                               lambda x, p: math.copysign(1.0 + x, x - p)],
                         ids=["pole", "jump"])
def test_scan_drops_non_root_crossings_early(f, p):
    # a pole or a jump flips the sign without a zero: its bracket is
    # dropped once it has shrunk to 1/64 of its cell with |f| rising,
    # long before it closes to tol (bisection takes 36 rounds)
    calls = []

    def g(x):
        calls.append(x)
        return complex(f(x, p))

    grid = np.linspace(0.0, 2.0, 41)
    scan = scan_and_refine(g, grid, tol=1e-12)
    (lo, hi), = scan.brackets
    assert lo < p < hi
    assert scan.roots == ()
    assert len(calls) - len(grid) <= 12


@pytest.mark.parametrize("f, r", [
    # a root within 1e-3 of either grid end of its cell
    (lambda x: math.expm1(x - 1.2004) * (2.0 + x), 1.2004),
    (lambda x: math.expm1(x - 1.2496) * (2.0 + x), 1.2496),
    # a steep root: |f| saturates at 1 over nearly all of the cell
    (lambda x: math.tanh(1e4 * (x - 1.234567)), 1.234567),
    # values near the double range must not overflow the crossing test
    (lambda x: 1e308 * math.tanh(x - 1.234567), 1.234567),
], ids=["near-lo", "near-hi", "steep", "huge"])
def test_scan_keeps_roots_near_cell_ends_and_steep_roots(f, r):
    tol = 1e-12
    scan = scan_and_refine(lambda x: complex(f(x)), np.linspace(0.0, 2.0, 41),
                           tol=tol)
    (root,) = scan.roots
    assert abs(root.value - r) <= tol


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(cells=st.lists(st.tuples(st.integers(0, 63),
                                    st.floats(0.001, 0.999)),
                          min_size=1, max_size=20,
                          unique_by=lambda c: c[0]))
# pairs of roots close across a grid point, which make |f| in a cell
# rise and fall again, or both of its grid-end values small
@hyp.example(cells=[(0, 0.6875), (1, 0.001)])
@hyp.example(cells=[(0, 0.96875), (1, 0.001953125)])
@hyp.example(cells=[(0, 0.015625), (1, 0.001953125)])
def test_lockstep_refinement_matches_single_brackets_and_brentq(cells):
    # up to 20 simple roots, at most one per cell: refining all brackets
    # in lockstep gives bit for bit the x of refining each bracket alone,
    # and brentq's root within tol. The residual test is off: |f| of a
    # degree-20 polynomial spans too many decades for a limit relative to
    # its median, and only the refiner's drops are under test here.
    tol = 1e-10
    grid = np.linspace(0.0, 4.0, 65)
    zeros = [grid[i] + u * (grid[i + 1] - grid[i]) for i, u in cells]

    def f(x):
        return complex(math.prod(x - z for z in zeros))

    def scan(xs):
        with mock.patch.object(solvers, "ROOT_RESIDUAL_RFRAC", math.inf):
            return scan_and_refine(f, xs, tol=tol)

    roots = scan(grid).roots
    assert len(roots) == len(zeros)
    for root in roots:
        lo, hi = root.bracket
        (alone,) = scan([lo, hi]).roots
        assert alone.value == root.value
        want = scipy.optimize.brentq(lambda x: f(x).real, lo, hi, xtol=1e-15)
        assert abs(root.value - want) <= tol


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_every_scan_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # a NaN tol would close no bracket and drop every root, and a tol <= 0
    # would refine every bracket for _MAX_REFINE rounds; each scan entry
    # rejects it before it evaluates anything
    def f(x):
        raise AssertionError("evaluated")

    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        scan_and_refine(f, np.linspace(0.0, 2.0, 21), tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        escape_energy_scan(WELL_DEFN, np.linspace(0.5, 9.5, 40), tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        band_scans(KP_DEFN, [0.3], (0.05, 5.0), e_count=40, tol=tol)


def test_scan_masks_error_points_and_skips_brackets():
    def f(x):
        if 0.9 < x < 1.1:
            raise ModelingError("masked region")
        return complex(x - 1.0)

    scan = scan_and_refine(f, np.linspace(0.0, 2.0, 21), tol=1e-10)
    assert np.any(scan.masked)
    # the only sign change straddles the masked region: no bracket spans it
    for lo, hi in scan.brackets:
        assert not (lo < 1.0 < hi)


def test_scan_keeps_exact_zeros_without_a_usable_right_neighbour():
    # an exact zero on the last grid point, before a masked point or
    # before an overflowed value is its own bracket, as one on the
    # first grid point is
    def masked_above(x):
        if x > 0.9:
            raise StructuralError("masked region")
        return x - 0.5

    cases = [(lambda x: x - 0.0, [0.0, 0.5, 1.0], 0.0),
             (lambda x: x - 1.0, [0.0, 0.5, 1.0], 1.0),
             (masked_above, [0.0, 0.25, 0.5, 1.0], 0.5),
             (lambda x: x - 0.5 if x < 0.9 else math.inf,
              [0.0, 0.25, 0.5, 1.0], 0.5)]
    for f, grid, root in cases:
        scan = scan_and_refine(f, grid)
        assert scan.brackets == ((root, root),)
        assert [(r.value, r.residual) for r in scan.roots] == [(root, 0.0)]


def test_scan_minimum_mode_for_complex_values():
    scan = scan_and_refine(lambda x: complex(x - 1.5) * cmath.exp(1j * x),
                           np.linspace(0.0, 3.0, 61), tol=1e-12)
    assert scan.mode == "minimum"
    assert len(scan.roots) == 1
    assert scan.roots[0].value == pytest.approx(1.5, abs=1e-10)


def test_scan_rejects_pole_crossings():
    scan = scan_and_refine(lambda x: complex(math.tan(x)),
                           np.linspace(0.2, 2.9, 57), tol=1e-12)
    # tan has a sign flip through the pole at pi/2 and a zero at pi... the
    # only accepted root in (0.2, 2.9) must be far from pi/2
    for root in scan.root_values():
        assert abs(root - math.pi / 2.0) > 0.5


# --- finite well oracle ---------------------------------------------------

def test_finite_well_oracle_count_and_parity():
    levels = finite_well_oracle(10.0, 2.0)
    assert len(levels) == 3
    # frozen from the transcendental solve itself (independent brentq route)
    assert levels[0] == pytest.approx(1.4072147247701607, abs=1e-11)
    assert levels[1] == pytest.approx(5.3758059136702165, abs=1e-11)
    assert levels[2] == pytest.approx(9.995980737546672, abs=1e-11)


def test_finite_well_shallow_always_binds_once():
    levels = finite_well_oracle(1e-4, 2.0)
    assert len(levels) == 1
    assert 0.0 < levels[0] < 1e-4


def test_finite_well_levels_ordered_below_v0(rng):
    for _ in range(10):
        v0 = float(rng.uniform(0.5, 30.0))
        width = float(rng.uniform(0.5, 4.0))
        levels = finite_well_oracle(v0, width)
        assert all(0.0 < e < v0 for e in levels)
        assert sorted(levels) == list(levels)


# --- escape problem -------------------------------------------------------

def test_escape_well_has_exactly_three_states_matching_oracle():
    scan = escape_energy_scan(WELL_DEFN, np.linspace(1e-4, 9.99999, 2000),
                              Variant.H, tol=1e-12)
    levels = finite_well_oracle(10.0, 2.0)
    assert len(scan.roots) == 3
    for root, level in zip(scan.root_values(), levels):
        assert root == pytest.approx(level, abs=1e-8)


def test_escape_h_and_e_variants_agree():
    grid = np.linspace(1e-3, 9.999, 1500)
    roots_h = escape_energy_scan(WELL_DEFN, grid, Variant.H,
                                 tol=1e-12).root_values()
    roots_e = escape_energy_scan(WELL_DEFN, grid, Variant.E,
                                 tol=1e-12).root_values()
    assert len(roots_h) == len(roots_e) == 3
    for a, b in zip(roots_h, roots_e):
        assert a == pytest.approx(b, abs=1e-8)


def test_escape_deep_well_approaches_infinite_well():
    # E1 -> (pi/2)^2 for width 2 as V0 -> inf; the approach rate is
    # 2/sqrt(V0) relative, so V0 = 1e6 sits at 2.0e-3
    defn = quantum_defn({"well": (1.0, 0.0), "wall": (1.0, 1e6)},
                        "wall", "wall", [("well", 2.0)])
    scan = escape_energy_scan(defn, np.linspace(2.0, 3.0, 800), tol=1e-12)
    e1 = scan.root_values()[0]
    e_inf = (math.pi / 2.0) ** 2
    assert abs(e1 - e_inf) / e_inf < 2.5e-3
    assert abs(e1 - e_inf) / e_inf > 1e-3  # genuine finite-depth shift


def test_escape_bound_state_flag_rejects_propagating_exterior():
    defn = quantum_defn({"well": (1.0, 0.0), "wall": (1.0, 10.0)},
                        "well", "well", [("well", 2.0)])
    s = defn.bind(energy=4.0)  # exterior wavenumbers real: no decay
    with pytest.raises(ModelingError):
        escape_secular(s, Variant.H, bound_state=True)


def test_escape_count_matches_oracle_randomized(rng):
    # the full 50-well sweep lives in the acceptance suite; this spot
    # check keeps the module suite fast
    matched = 0
    for _ in range(12):
        v0 = float(rng.uniform(0.5, 30.0))
        width = float(rng.uniform(0.5, 4.0))
        levels = finite_well_oracle(v0, width)
        # skip draws with a level hugging a scan endpoint (unresolvable)
        if levels and (min(levels) < 1e-3 * v0 or max(levels) > v0 * (1 - 1e-6)):
            continue
        defn = quantum_defn({"well": (1.0, 0.0), "wall": (1.0, v0)},
                            "wall", "wall", [("well", width)])
        scan = escape_energy_scan(defn,
                                  np.linspace(v0 * 1e-4, v0 * (1 - 1e-7), 1000),
                                  tol=1e-10)
        assert len(scan.roots) == len(levels)
        matched += 1
    assert matched >= 9


# Seed-601 instance-0 structure of the benchmark's escape workload: five
# wells and five barriers between walls, scanned on the workload's grid.
MULTIWELL_DEFN = quantum_defn(
    {"wall": (1.0, 9.92206782480334), "well": (1.0, 0.0),
     "barrier": (1.0, 7.847922190210106)}, "wall", "wall",
    [("well", 1.310965429206454), ("barrier", 0.5477059052682248),
     ("well", 1.120337558537338), ("barrier", 0.41197986137844156),
     ("well", 1.2040056846946159), ("barrier", 0.5147189819280228),
     ("well", 1.222180541988246), ("barrier", 0.4119011292474111),
     ("well", 1.114783682489606), ("barrier", 0.4020786517954649)])
MULTIWELL_GRID = np.linspace(0.05, 9.425964433563173, 400)


def test_escape_multiwell_h_roots_are_e_roots_and_wall_jump_is_dropped():
    scan_h = escape_energy_scan(MULTIWELL_DEFN, MULTIWELL_GRID, Variant.H)
    roots_e = escape_energy_scan(MULTIWELL_DEFN, MULTIWELL_GRID,
                                 Variant.E).root_values()
    # E also finds 3.16328, which H misses: a pole shares its grid cell
    assert scan_h.roots
    for root in scan_h.root_values():
        assert min(abs(root - e) for e in roots_e) <= 1e-8
    # with the unit N = 1 shape f0 = 1, det Ms keeps its phase where
    # |k_wall| = 1 (E = V_wall - 1): no jump there, so no bracket
    assert not [b for b in scan_h.brackets if b[0] < 8.92 < b[1]]


# --- periodic dispersion ----------------------------------------------------

FREE_DEFN = quantum_defn({"q": (1.0, 0.0)}, "q", "q", [("q", 1.0)])


def test_free_medium_h_form_band_edge_roots():
    # the zone-boundary roots sit at (pi/d)^2 (2n+1)^2; they are double
    # roots of the underlying Bloch relation, so their float64 location
    # carries a sqrt(u)-scale jitter; tolerances reflect that floor
    def f(e):
        return periodic_dispersion(FREE_DEFN.bind(energy=e), Variant.H,
                                   math.pi)

    lowest = scan_and_refine(f, np.linspace(6.0, 13.0, 400), tol=1e-13)
    assert len(lowest.roots) == 1
    assert abs(lowest.roots[0].value - math.pi ** 2) < 1e-6
    second = scan_and_refine(f, np.linspace(80.0, 97.0, 400), tol=1e-13)
    assert len(second.roots) == 1
    assert abs(second.roots[0].value - 9 * math.pi ** 2) < 1e-5


def test_periodic_variants_agree_on_kp_roots():
    well = QuantumLayer(1.0, 0.0, 1.0)
    barrier = QuantumLayer(1.0, 10.0, 1.0)
    grid = np.linspace(0.05, 18.0, 1200)
    root_sets = {}
    for variant in (Variant.T, Variant.H, Variant.E, Variant.S):
        scan = kp_scan(well, barrier, 1.1, variant, grid, tol=1e-12)
        root_sets[variant] = scan.root_values()
    for variant in (Variant.H, Variant.E, Variant.S):
        assert len(root_sets[variant]) == len(root_sets[Variant.T])
        for a, b in zip(root_sets[variant], root_sets[Variant.T]):
            assert a == pytest.approx(b, abs=1e-8)


def test_periodic_dispersion_through_structure_matches_scalar_kp():
    well = QuantumLayer(1.0, 0.0, 1.0)
    barrier = QuantumLayer(1.0, 10.0, 1.0)
    q = 0.9
    for e in (2.3, 6.7):
        period = kronig_penney_period(well, barrier, e)
        res_t = periodic_dispersion(period, Variant.T, q)
        # det[T - I e^{iqd}] = e^{iqd} (2cos(qd) - tr T) for a unimodular
        # 2x2 T, so the scalar relation is the determinant form rescaled
        scalar = kronig_penney_residuals(well, barrier, e, q, Variant.T)
        phase = cmath.exp(1j * q * period.total_thickness)
        assert res_t == pytest.approx(2.0 * phase * scalar, rel=1e-9)


def test_t_form_unusable_at_huge_barrier_while_stable_forms_work():
    well = QuantumLayer(1.0, 0.0, 1.0)
    barrier = QuantumLayer(1.0, 10.0, 25.0)   # kappa_B b ~ 60 at low E
    e, q = 2.0, 0.7
    period = kronig_penney_period(well, barrier, e)
    t, _ = structure_propagator(period, Variant.T)
    drift = t_det_drift([(ly.medium, ly.thickness) for ly in period.layers],
                        t.data)
    assert drift is not None and drift > 1e3
    for variant in (Variant.H, Variant.E, Variant.S):
        res = kronig_penney_residuals(well, barrier, e, q, variant)
        assert np.isfinite(res.real) and np.isfinite(res.imag)


# --- Kronig-Penney scalar relations ----------------------------------------

def kp_scan(well, barrier, q, variant, grid, tol):
    """The Kronig-Penney residual scanned over energy by the scan entry,
    one kernel call per block."""
    def evaluate(energies):
        fails = PointFailures(len(energies))
        return (solvers._kronig_penney_stack(well, barrier, energies, q,
                                             variant, fails), fails.failed)
    return solvers._scan(evaluate, grid, tol, "x")


def test_kp_t_form_matches_textbook_pointwise():
    well = QuantumLayer(1.0, 0.0, 1.0)
    barrier = QuantumLayer(1.0, 10.0, 1.0)
    for e, q in [(0.5, 0.1), (2.0, 0.7), (7.3, 2.2), (12.5, 1.1), (25.0, 3.0)]:
        got = kronig_penney_residuals(well, barrier, e, q, Variant.T)
        want = -textbook_kp_expression(e, q, 1.0, 1.0, 10.0)
        assert abs(got - want) < 1e-12


def test_kp_free_limit_reduces_to_cos_identity():
    well = QuantumLayer(1.0, 0.0, 1.0)
    barrier = QuantumLayer(1.0, 0.0, 1.0)
    # kd = pi at E = (pi/d)^2 with d = 2: residual of qd = pi vanishes
    e = (math.pi / 2.0) ** 2
    res = kronig_penney_residuals(well, barrier, e, math.pi / 2.0, Variant.T)
    assert abs(res) < 1e-12


def test_kp_unequal_masses_variants_share_roots():
    well = QuantumLayer(1.0, 0.0, 1.2)
    barrier = QuantumLayer(1.7, 8.0, 0.8)
    grid = np.linspace(0.05, 15.0, 1000)
    base = kp_scan(well, barrier, 0.8, Variant.T, grid,
                   tol=1e-12).root_values()
    assert base
    for variant in (Variant.H, Variant.E, Variant.S):
        other = kp_scan(well, barrier, 0.8, variant, grid,
                        tol=1e-12).root_values()
        assert len(other) == len(base)
        for a, b in zip(other, base):
            assert a == pytest.approx(b, abs=1e-8)


def test_kp_isolated_well_limit_h_form():
    v0, a = 10.0, 2.0
    levels = finite_well_oracle(v0, a)
    kappa_min = math.sqrt(v0 - levels[-1])
    b = 40.0 / kappa_min
    well = QuantumLayer(1.0, 0.0, a)
    barrier = QuantumLayer(1.0, v0, b)
    scan = kp_scan(well, barrier, 0.0, Variant.H,
                   np.linspace(0.2, 9.9999, 4000), tol=1e-12)
    assert len(scan.roots) == len(levels)
    for root, level in zip(scan.root_values(), levels):
        assert abs(root - level) < 1e-6


@pytest.mark.parametrize("variant", ["T", "H", "E", "S"])
def test_kp_kernel_on_a_block_is_its_g1_call(variant):
    # the fold fails at E = 0 (k_A = 0) and E = V_B (k_B = 0); the live
    # points equal the scalar call bit for bit, a failed one is NaN and
    # holds the error the scalar call raises
    well = QuantumLayer(1.0, 0.0, 1.0)
    barrier = QuantumLayer(1.0, 10.0, 1.0)
    energies = np.array([0.0, 0.5, 3.3, 10.0, 12.5, 7.3, 25.0, 9.99])
    fails = PointFailures(len(energies))
    values = solvers._kronig_penney_stack(well, barrier, energies, 0.9,
                                          variant, fails)
    np.testing.assert_array_equal(np.flatnonzero(fails.failed), [0, 3])
    for i, e in enumerate(energies):
        if fails.failed[i]:
            assert np.isnan(values[i])
            with pytest.raises(MslError) as raised:
                kronig_penney_residuals(well, barrier, e, 0.9, variant)
            assert type(raised.value) is type(fails.errors[i])
            assert str(raised.value) == str(fails.errors[i])
        else:
            scalar = kronig_penney_residuals(well, barrier, e, 0.9, variant)
            assert np.array(scalar).tobytes() == values[i].tobytes()


def test_kp_residual_even_in_q():
    well = QuantumLayer(1.0, 0.0, 1.0)
    barrier = QuantumLayer(1.0, 10.0, 1.0)
    for variant in (Variant.T, Variant.H, Variant.E, Variant.S):
        plus = kronig_penney_residuals(well, barrier, 3.3, 0.9, variant)
        minus = kronig_penney_residuals(well, barrier, 3.3, -0.9, variant)
        assert plus == minus


# --- band structure ---------------------------------------------------------

def test_band_structure_free_parabola():
    bands = band_structure(FREE_DEFN, np.linspace(0.4, 2.6, 5), (0.05, 55.0),
                           Variant.H, e_count=700, tol=1e-12)
    assert bands
    for band in bands:
        for (q, e, _res) in band.points:
            err = min(abs(e - (q + 2 * math.pi * n) ** 2)
                      for n in range(-3, 4))
            assert err < 1e-8
        assert band.discontinuities == ()


def test_band_structure_flags_join_across_window_edge():
    # at q=1.5 the band from 44.665 has left the top of the window and
    # the q**2 band has entered at the bottom, so that branch joins the
    # wrong band; the (q - 2 pi)**2 branch joins its own band
    bands = band_structure(FREE_DEFN, [0.4, 1.5], (2.0, 50.0), Variant.H,
                           e_count=700)
    ends = {(round(b.points[0][1], 3), round(b.points[-1][1], 3)):
            b.discontinuities for b in bands}
    assert ends == {(34.612, 22.879): (), (44.665, 2.25): (1,)}


def test_connect_bands_keeps_branches_across_a_missed_root():
    # without the q**2 root at q = 1.5 a greedy join sent branch 0 down
    # the (q - 2 pi)**2 band; the assignment keeps every branch on one
    q_grid = np.linspace(0.4, 2.6, 5)
    scans = band_scans(FREE_DEFN, q_grid, (0.05, 55.0), Variant.H,
                       e_count=700, tol=1e-12)
    kept = tuple(r for r in scans[2].roots if abs(r.value - 1.5 ** 2) > 1e-6)
    assert len(kept) == len(scans[2].roots) - 1
    scans[2] = dataclasses.replace(scans[2], roots=kept)

    def band_index(q, e):
        return min(range(-3, 4),
                   key=lambda n: abs(e - (q + 2 * math.pi * n) ** 2))

    for band in connect_bands(q_grid, scans):
        assert len({band_index(q, e) for q, e, _ in band.points}) == 1


def test_band_structure_kp_edges_match_oracle():
    defn = quantum_defn({"a": (1.0, 0.0), "b": (1.0, 10.0)}, "b", "a",
                        [("a", 1.0), ("b", 1.0)])
    d = 2.0
    for q in (0.0, math.pi / d):
        bands = band_structure(defn, [q], (0.05, 18.0),
                               Variant.T, e_count=1500, tol=1e-12)
        got = sorted(e for band in bands for (_q, e, _r) in band.points)
        # oracle roots from the independently coded textbook expression
        grid = np.linspace(0.05, 18.0, 4000)
        want = scan_and_refine(
            lambda e: textbook_kp_expression(e, q, 1.0, 1.0, 10.0),
            grid, tol=1e-12).root_values()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, abs=1e-8)


def test_band_gap_closes_with_vanishing_potential():
    e0 = (math.pi / 2.0) ** 2
    window = np.linspace(e0 - 0.05, e0 + 0.05, 3000)

    def gap(v0):
        barrier = QuantumLayer(1.0, v0, 1.0)
        scan = kp_scan(QuantumLayer(1.0, 0.0, 1.0), barrier, math.pi / 2.0,
                       Variant.T, window, tol=1e-13)
        roots = scan.root_values()
        if len(roots) >= 2:
            return max(roots) - min(roots)
        return 0.0  # below sign-change resolution: gap closed numerically

    g2, g4, g8 = gap(1e-2), gap(1e-4), gap(1e-8)
    assert g2 == pytest.approx(2e-2 / math.pi, rel=1e-3)  # weak-potential 2 V0 / pi
    assert g4 < g2 and g4 == pytest.approx(2e-4 / math.pi, rel=1e-2)
    assert g8 < 1e-6


# --- SH piezo surface waves -------------------------------------------------

PZT_A = {"kind": "sh_piezo", "rho": 7500.0, "c44": 2.56e10,
         "e15": 12.7, "eps11": 6.46e-9}
PZT_B = {"kind": "sh_piezo", "rho": 7750.0, "c44": 2.11e10,
         "e15": 12.3, "eps11": 8.11e-9}


def piezo_defn(layer_names, h):
    doc = {"materials": {"A": PZT_A, "B": PZT_B}, "left": "A", "right": "A",
           "layers": [{"material": nm, "thickness": h} for nm in layer_names]}
    return parse_structure(json.dumps(doc))


def _bulk_speed(mat):
    return math.sqrt((mat["c44"] + mat["e15"] ** 2 / mat["eps11"]) / mat["rho"])


def test_sh_wave_uniform_sandwich_has_no_guided_modes():
    defn = piezo_defn(["A"], 20e-6)
    v_a = _bulk_speed(PZT_A)
    scan = sh_wave_speeds(defn, 2 * math.pi * 60e6,
                          np.linspace(0.75 * v_a, 0.995 * v_a, 400), tol=1e-6)
    assert scan.roots == ()


def test_sh_wave_guided_modes_exist_between_bulk_speeds():
    defn = piezo_defn(["B"], 20e-6)
    v_a, v_b = _bulk_speed(PZT_A), _bulk_speed(PZT_B)
    scan = sh_wave_speeds(defn, 2 * math.pi * 60e6,
                          np.linspace(v_b * 1.001, v_a * 0.999, 900), tol=1e-6)
    assert len(scan.roots) >= 1
    assert all(v_b < r < v_a for r in scan.root_values())


def test_sh_wave_n9_converges_to_n3_with_frequency():
    n3 = piezo_defn(["B"], 20e-6)
    n9 = piezo_defn(["B", "A", "B", "A", "B", "A", "B"], 20e-6)
    v_a, v_b = _bulk_speed(PZT_A), _bulk_speed(PZT_B)
    grid = np.linspace(v_b * 1.001, v_a * 0.999, 900)
    dists = []
    for f_mhz in (20.0, 60.0, 150.0):
        omega = 2 * math.pi * f_mhz * 1e6
        r3 = sh_wave_speeds(n3, omega, grid, tol=1e-6).root_values()
        r9 = sh_wave_speeds(n9, omega, grid, tol=1e-6).root_values()
        assert r3 and r9
        dists.append(max(min(abs(a - b) for b in r9) for a in r3))
    assert dists[0] > dists[1] > dists[2]


def test_sh_wave_warns_above_bulk_speed():
    defn = piezo_defn(["B"], 20e-6)
    v_a = _bulk_speed(PZT_A)
    with pytest.warns(ModelingWarning):
        sh_wave_speeds(defn, 2 * math.pi * 60e6,
                       np.linspace(0.9 * v_a, 1.1 * v_a, 50), tol=1e-6)


def test_sh_scan_serialization_round_trip():
    defn = piezo_defn(["B"], 20e-6)
    v_a, v_b = _bulk_speed(PZT_A), _bulk_speed(PZT_B)
    scan = sh_wave_speeds(defn, 2 * math.pi * 60e6,
                          np.linspace(v_b * 1.001, v_a * 0.999, 300), tol=1e-6)
    doc = scan.to_json_dict()
    assert doc["param_name"] == "v_s"
    assert len(doc["grid"]) == 300
    csv_text = scan.to_csv(variant="h")
    assert csv_text.splitlines()[1] == "v_s,root,residual,variant"


# --- stacked evaluation against single points --------------------------------

def single_point_dets(structures, variant, bound_state=False):
    values, masked = [], []
    for s in structures:
        try:
            ms = escape_secular(s, variant, bound_state=bound_state)
            values.append(complex(np.linalg.det(ms)))
            masked.append(False)
        except MslError:
            values.append(complex(np.nan))
            masked.append(True)
    return np.array(values), np.array(masked)


def assert_same_points(values, masked, want_values, want_masked):
    np.testing.assert_array_equal(masked, want_masked)
    np.testing.assert_allclose(values[~masked], want_values[~masked],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("variant", [Variant.H, Variant.E])
def test_stacked_escape_scan_matches_single_points(variant):
    # the wall is at 10: points above it have propagating exteriors and
    # are masked by the bound-state check, inside blocks of mixed status
    grid = np.linspace(0.5, 14.0, 3 * SCAN_BLOCK + 3)
    scan = escape_energy_scan(WELL_DEFN, grid, variant)
    want = single_point_dets([WELL_DEFN.bind(energy=e) for e in grid],
                             variant, bound_state=True)
    assert_same_points(scan.values, scan.masked, *want)
    blocks = scan.masked[:len(grid) // SCAN_BLOCK * SCAN_BLOCK].reshape(
        -1, SCAN_BLOCK)
    assert np.any(np.any(blocks, axis=1) & ~np.all(blocks, axis=1))


def test_stacked_piezo_scan_matches_single_points():
    defn = piezo_defn(["B", "A", "B"], 20e-6)
    v_a, v_b = _bulk_speed(PZT_A), _bulk_speed(PZT_B)
    omega = 2 * math.pi * 60e6
    grid = np.linspace(v_b * 1.001, v_a * 0.999, 2 * SCAN_BLOCK + 5)
    scan = sh_wave_speeds(defn, omega, grid)
    want = single_point_dets([defn.bind(omega=omega, kappa_x=omega / v)
                              for v in grid], Variant.H)
    assert not np.any(want[1])
    assert_same_points(scan.values, scan.masked, *want)


def test_layerless_escape_secular_stack_matches_single_points():
    # no layers between the half-spaces: the H region is the antidiagonal
    # identity at every point, and the E region is not computable
    defn = quantum_defn({"wall": (1.0, 10.0), "out": (1.2, 6.0)},
                        "wall", "out", [])
    energies = np.linspace(0.5, 5.0, SCAN_BLOCK + 1)
    fails = PointFailures(len(energies))
    ms = escape_secular_stack(defn.bind_stack(fails, energy=energies),
                              Variant.H, fails)
    assert not fails.failed.any()
    for e, got in zip(energies, ms):
        np.testing.assert_allclose(
            got, escape_secular(defn.bind(energy=e), Variant.H),
            rtol=1e-12, atol=0)

    fails = PointFailures(len(energies))
    escape_secular_stack(defn.bind_stack(fails, energy=energies), Variant.E,
                         fails)
    assert fails.failed.all()
    with pytest.raises(IllConditionedError) as single:
        escape_secular(defn.bind(energy=energies[0]), Variant.E)
    assert all((type(err), str(err)) == (IllConditionedError,
                                         str(single.value))
               for err in fails.errors.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_escape_secular_matches_single_points_random_media(rng, n):
    # every point draws its own left, middle and right media; the layers
    # are (middle, left) with thicknesses shared by all points
    g = 2 * SCAN_BLOCK
    d_mid, d_left = (float(d) for d in rng.uniform(0.2, 2.0, 2))
    draws = [tuple(random_hermitian_medium(rng, n) for _ in range(3))
             for _ in range(g)]
    structures = [LayeredStructure(left=left,
                                   layers=(Layer(mid, d_mid),
                                           Layer(left, d_left)),
                                   right=right)
                  for left, mid, right in draws]
    media = {key: MediumStack(*(np.stack([getattr(point[j], c)
                                          for point in draws])
                                for c in "bpyw"))
             for j, key in enumerate(("left", "mid", "right"))}
    st = StackedStructure(media=media, left="left", right="right",
                          layers=(("mid", d_mid), ("left", d_left)))
    for variant in (Variant.H, Variant.E):
        fails = PointFailures(g)
        values = np.linalg.det(escape_secular_stack(st, variant, fails))
        assert_same_points(values, fails.failed,
                           *single_point_dets(structures, variant))


def stack_of(media):
    """The MediumStack holding one medium per point."""
    return MediumStack(*(np.stack([getattr(m, c) for m in media])
                         for c in "bpyw"))


# -k^2 - 4k - 1 = 0: two negative real roots, no 1/1 plus/minus split
ONE_SIDED = make_scalar_medium(1.0, 2.0j, 2.0j, -1.0)


def test_escape_secular_stack_records_each_points_single_point_error():
    # the layer medium "bad" fails its mode solve at points 1, 3 and 5;
    # above the wall (points 2 and 3) the exterior propagates and fails
    # the bound-state check, which is read first, so point 3 reports it
    energies = [1.0, 3.0, 12.0, 14.0, 5.0, 2.0]
    wall = [make_quantum_medium(1.0, 10.0, e) for e in energies]
    well = [make_quantum_medium(1.0, 0.0, e) for e in energies]
    bad = [ONE_SIDED if i in (1, 3, 5) else make_quantum_medium(1.0, 6.0, e)
           for i, e in enumerate(energies)]
    layers = (("well", 1.0), ("bad", 0.5), ("well", 1.2))
    st = StackedStructure(media={"wall": stack_of(wall), "well": stack_of(well),
                                 "bad": stack_of(bad)},
                          left="wall", right="wall", layers=layers)
    for variant in (Variant.H, Variant.E):
        fails = PointFailures(len(energies))
        escape_secular_stack(st, variant, fails, bound_state=True)
        for i in range(len(energies)):
            media = {"well": well[i], "bad": bad[i]}
            s = LayeredStructure(left=wall[i], right=wall[i], layers=tuple(
                Layer(media[key], d) for key, d in layers))
            try:
                escape_secular(s, variant, bound_state=True)
            except MslError as exc:
                got = fails.errors[i]
                assert (type(got), str(got)) == (type(exc), str(exc))
            else:
                assert not fails.failed[i]
        assert sorted(fails.errors) == [1, 2, 3, 5]
        assert isinstance(fails.errors[3], ModelingError)


def test_media_that_no_layer_reads_mask_no_point():
    # "lost" fails its mode solve everywhere but nothing reads it; "gap"
    # fails everywhere too but fills only a zero-thickness layer
    energies = np.linspace(1.0, 9.0, 5)
    st = WELL_DEFN.bind_stack(PointFailures(len(energies)), energy=energies)
    failing = stack_of([ONE_SIDED] * len(energies))
    padded = StackedStructure(
        media={**st.media, "lost": failing, "gap": failing}, left=st.left,
        right=st.right, layers=st.layers + (("gap", 0.0),))
    for variant in (Variant.H, Variant.E):
        fails = PointFailures(len(energies))
        escape_secular_stack(padded, variant, fails, bound_state=True)
        assert not fails.failed.any()
    for variant in (Variant.T, Variant.H, Variant.E, Variant.S):
        want, fails = PointFailures(len(energies)), PointFailures(len(energies))
        periodic_dispersion_stack(st, variant, 0.4, want)
        periodic_dispersion_stack(padded, variant, 0.4, fails)
        assert fails.failed.tolist() == want.failed.tolist()
    evanescent = make_scalar_medium(1.0, 0.0, 0.0, -1.0)
    s = LayeredStructure(left=evanescent, right=evanescent, layers=(
        Layer(evanescent, 1.0), Layer(ONE_SIDED, 0.0)))
    for variant in (Variant.T, Variant.H, Variant.E, Variant.S):
        structure_propagator(s, variant)


def test_escape_secular_stack_solves_every_medium_in_one_call(monkeypatch):
    calls = []
    solve = qep.solve_qep_stack

    def counted(media, fails):
        calls.append(media.g)
        return solve(media, fails)

    monkeypatch.setattr(qep, "solve_qep_stack", counted)
    defn = quantum_defn({"wall": (1.0, 10.0), "well": (1.0, 0.0),
                         "barrier": (1.0, 8.0)}, "wall", "wall",
                        [("well", 1.2), ("barrier", 0.5), ("well", 1.1)])
    fails = PointFailures(SCAN_BLOCK)
    st = defn.bind_stack(fails, energy=np.linspace(0.5, 7.5, SCAN_BLOCK))
    escape_secular_stack(st, Variant.H, fails, bound_state=True)
    assert calls == [3 * SCAN_BLOCK]
    assert not fails.failed.any()


def single_point_dispersion(periods, variant, q):
    values, errors = [], {}
    for i, s in enumerate(periods):
        try:
            values.append(periodic_dispersion(s, variant, q))
        except MslError as exc:
            values.append(complex(np.nan))
            errors[i] = exc
    return np.array(values), errors


def assert_same_dispersion(st, periods, variant, q):
    fails = PointFailures(len(periods))
    values = periodic_dispersion_stack(st, variant, q, fails)
    want, errors = single_point_dispersion(periods, variant, q)
    assert_same_points(values, fails.failed, want, np.isin(
        np.arange(len(periods)), list(errors)))
    assert np.all(np.isnan(values[fails.failed]))
    for i, exc in errors.items():
        assert type(fails.errors[i]) is type(exc)
        assert str(fails.errors[i]) == str(exc)
    return fails


KP_DEFN = quantum_defn({"a": (1.0, 0.0), "b": (1.3, 10.0)}, "b", "a",
                       [("a", 1.1), ("b", 0.9)])


@pytest.mark.parametrize("variant", [Variant.H, Variant.E, Variant.T,
                                     Variant.S])
def test_periodic_dispersion_stack_matches_single_points_kp(variant):
    energies = np.linspace(0.05, 18.0, 2 * SCAN_BLOCK + 5)
    for q in (0.0, 0.7, math.pi / 2.0):
        fails = PointFailures(len(energies))
        st = KP_DEFN.bind_stack(fails, energy=energies)
        assert not fails.failed.any()
        periods = [KP_DEFN.bind(energy=e) for e in energies]
        assert not assert_same_dispersion(st, periods, variant,
                                          q).failed.any()


def random_periods(rng, n, g, **kwargs):
    """G two-layer periods [a, b] of random hermitian media, as single
    structures and as one stack; the thicknesses are shared."""
    d_a, d_b = (float(d) for d in rng.uniform(0.2, 2.0, 2))
    draws = [tuple(random_hermitian_medium(rng, n, **kwargs)
                   for _ in range(2)) for _ in range(g)]
    periods = [LayeredStructure(left=b, layers=(Layer(a, d_a), Layer(b, d_b)),
                                right=a) for a, b in draws]
    media = {key: MediumStack(*(np.stack([getattr(point[j], c)
                                          for point in draws])
                                for c in "bpyw"))
             for j, key in enumerate("ab")}
    st = StackedStructure(media=media, left="b", right="a",
                          layers=(("a", d_a), ("b", d_b)))
    return st, periods


@pytest.mark.parametrize("n", [1, 2, 3])
def test_periodic_dispersion_stack_matches_single_points_random_media(rng, n):
    st, periods = random_periods(rng, n, 2 * SCAN_BLOCK)
    for variant in (Variant.H, Variant.E, Variant.T, Variant.S):
        assert_same_dispersion(st, periods, variant, 0.8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_periodic_dispersion_stack_mixed_block_keeps_typed_errors(rng, n):
    # a strong drift term gives media whose modes do not split N/N, so
    # the block mixes failed and live points; a failed point carries the
    # error the single-point call raises
    st, periods = random_periods(rng, n, 2 * SCAN_BLOCK, p_scale=2.0)
    for variant in (Variant.H, Variant.E, Variant.T, Variant.S):
        fails = assert_same_dispersion(st, periods, variant, 1.3)
        assert fails.failed.any() and not fails.failed.all()



def test_periodic_dispersion_stack_t_masks_points_in_mixed_blocks():
    # the barrier's mode entry a0 = -kappa_B b times exp(kappa_B 250)
    # leaves the double range below e_edge, so the T fold of the
    # 250-thick barrier fails below it and lives above it, within one
    # block; the stable forms fail nowhere
    defn = quantum_defn({"a": (1.0, 0.0), "b": (1.2, 10.0)}, "b", "a",
                        [("a", 1.0), ("b", 250.0)])
    m_b, v_b = 1.2, 10.0
    kappa_b = scipy.optimize.brentq(
        lambda kappa: 250.0 * kappa + math.log(kappa / m_b)
        - math.log(np.finfo(float).max), 1.0, 4.0, xtol=1e-15)
    e_edge = v_b - kappa_b ** 2 / m_b
    energies = np.linspace(3.0, 3.6, 2 * SCAN_BLOCK + 5)
    periods = [defn.bind(energy=e) for e in energies]
    fails = {}
    for variant in (Variant.T, Variant.H, Variant.E, Variant.S):
        st = defn.bind_stack(PointFailures(len(energies)), energy=energies)
        fails[variant] = assert_same_dispersion(st, periods, variant, 0.3)
    t_fails = fails.pop(Variant.T)
    assert not any(f.failed.any() for f in fails.values())
    np.testing.assert_array_equal(t_fails.failed, energies < e_edge)
    assert all(type(exc) is MatrixOverflowError and exc.layer_index == 1
               for exc in t_fails.errors.values())
    blocks = t_fails.failed[:2 * SCAN_BLOCK].reshape(-1, SCAN_BLOCK)
    assert np.any(np.any(blocks, axis=1) & ~np.all(blocks, axis=1))


# --- one fold of the period for every q -------------------------------------

BLOCH_VARIANTS = (Variant.T, Variant.H, Variant.E, Variant.S)
# the 250-thick barrier of tests/test_cli.py: the T fold fails below
# E = 3.299, so its band scans mask grid energies
THICK_DEFN = quantum_defn({"a": (1.0, 0.0), "b": (1.2, 10.0)}, "b", "a",
                          [("a", 1.0), ("b", 250.0)])


def bloch_qs(st):
    d = sum(d for _, d in st.layers)
    return [0.0, 0.3, 1.1, math.pi / d, -0.4]


def assert_same_failures(fails, want):
    np.testing.assert_array_equal(fails.failed, want.failed)
    assert sorted(fails.errors) == sorted(want.errors)
    for i, exc in want.errors.items():
        assert type(fails.errors[i]) is type(exc)
        assert str(fails.errors[i]) == str(exc)


def assert_bloch_residuals_match_one_q(make):
    """``make()`` gives a fresh (stack, failures) pair of one block."""
    for variant in BLOCH_VARIANTS:
        st, fails = make()
        qs = bloch_qs(st)
        residuals = _bloch_residuals(st, variant, qs, fails)
        assert len(residuals) == len(qs)
        q_records = [id(fails)] + [id(q_fails) for _, q_fails in residuals]
        assert len(set(q_records)) == len(qs) + 1
        for q, (values, q_fails) in zip(qs, residuals):
            st, want = make()
            want_values = periodic_dispersion_stack(st, variant, q, want)
            np.testing.assert_array_equal(values, want_values)
            assert_same_failures(q_fails, want)
            # the fold's failures are shared, the closures' are not
            assert not (fails.failed & ~q_fails.failed).any()


@pytest.mark.parametrize("defn,energies", [
    (KP_DEFN, np.linspace(0.05, 18.0, 2 * SCAN_BLOCK + 5)),
    (THICK_DEFN, np.linspace(3.0, 3.6, 2 * SCAN_BLOCK + 5))],
    ids=["kp", "thick"])
def test_bloch_residuals_match_one_q_dispersion_kp(defn, energies):
    def make():
        fails = PointFailures(len(energies))
        return defn.bind_stack(fails, energy=energies), fails
    assert_bloch_residuals_match_one_q(make)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p_scale", [0.4, 2.0])
def test_bloch_residuals_match_one_q_dispersion_random_media(rng, n, p_scale):
    # p_scale = 2.0 gives blocks that mix failed and live points
    st, _ = random_periods(rng, n, 2 * SCAN_BLOCK, p_scale=p_scale)
    assert_bloch_residuals_match_one_q(
        lambda: (copy.deepcopy(st), PointFailures(st.g)))


def test_point_failures_copy_is_independent():
    fails = PointFailures(4)
    fails.add(np.array([False, True, False, False]),
              lambda i: MslError(f"point {i}"))
    other = fails.copy()
    other.add(np.array([True, True, False, False]),
              lambda i: ModelingError(f"later {i}"))
    np.testing.assert_array_equal(fails.failed, [False, True, False, False])
    assert list(fails.errors) == [1]
    np.testing.assert_array_equal(other.failed, [True, True, False, False])
    assert str(other.errors[1]) == "point 1"
    assert str(other.errors[0]) == "later 0"


def one_q_scan(defn, q, e_grid, variant):
    """The energy scan at one q by the scan entry over one-q blocks."""
    evaluate = _bound_stacked(
        defn, lambda energies: {"energy": energies},
        lambda st, fails: (periodic_dispersion_stack(st, variant, q, fails),
                           fails.failed))
    return solvers._scan(evaluate, e_grid, 1e-10, "energy")


@pytest.mark.parametrize("defn,e_range", [(KP_DEFN, (0.05, 18.0)),
                                          (THICK_DEFN, (0.05, 3.32))],
                         ids=["kp", "thick"])
def test_band_scans_match_per_q_scans(defn, e_range):
    q_grid = [0.0, 0.45, 0.9, math.pi / 2.0]
    e_count = 150
    e_grid = np.linspace(*e_range, e_count)
    masked_any = False
    for variant in BLOCH_VARIANTS:
        scans = band_scans(defn, q_grid, e_range, variant, e_count=e_count)
        assert len(scans) == len(q_grid)
        for q, scan in zip(q_grid, scans):
            want = one_q_scan(defn, q, e_grid, variant)
            np.testing.assert_array_equal(scan.grid, want.grid)
            np.testing.assert_array_equal(scan.values, want.values)
            np.testing.assert_array_equal(scan.masked, want.masked)
            assert scan.brackets == want.brackets
            assert scan.roots == want.roots
            assert scan.mode == want.mode
            masked_any |= bool(scan.masked.any())
    assert masked_any == (defn is THICK_DEFN)


def test_band_scans_bind_each_grid_block_once_for_all_q(monkeypatch):
    # the grid is bound and folded once per block whatever the number of
    # q; only the refinement binds more as q is added
    calls = {"bind": 0, "at_refine": None}
    bind_stack = StructureDefinition.bind_stack
    refine = solvers._refine_samples

    def counting_bind_stack(self, *args, **kwargs):
        calls["bind"] += 1
        return bind_stack(self, *args, **kwargs)

    def first_refine(*args, **kwargs):
        if calls["at_refine"] is None:
            calls["at_refine"] = calls["bind"]
        return refine(*args, **kwargs)

    monkeypatch.setattr(StructureDefinition, "bind_stack", counting_bind_stack)
    monkeypatch.setattr(solvers, "_refine_samples", first_refine)

    def counts(q_grid):
        calls.update(bind=0, at_refine=None)
        band_scans(KP_DEFN, q_grid, (0.05, 18.0), Variant.H, e_count=100)
        return calls["at_refine"], calls["bind"] - calls["at_refine"]

    blocks = math.ceil(100 / SCAN_BLOCK)
    q_grid = [0.2, 0.7, 1.1, 1.5]
    refine_per_q = []
    for q in q_grid:
        grid, refines = counts([q])
        assert grid == blocks
        refine_per_q.append(refines)
    assert min(refine_per_q) > 0
    assert counts(q_grid) == (blocks, sum(refine_per_q))


def scan_fields(scan):
    """Every field of a SecularScan, with the arrays as their bytes."""
    return (scan.param_name, scan.grid.tobytes(), scan.values.tobytes(),
            scan.masked.tobytes(), scan.brackets, scan.roots, scan.mode)


def test_scans_do_not_depend_on_the_block_size(monkeypatch):
    # the block size is a performance choice only: an N = 1 escape scan,
    # an N = 2 SH-wave scan, band scans, and a T band scan that masks
    # the energies below its overflow edge are bit for bit the same in
    # blocks of 1, 5 and 16 points (1, 2 and 8 for N = 2)
    piezo = piezo_defn(["B", "A", "B"], 20e-6)
    v_grid = np.linspace(_bulk_speed(PZT_B) * 1.001,
                         _bulk_speed(PZT_A) * 0.999, 41)
    omega = 2 * math.pi * 60e6

    def scans():
        return [escape_energy_scan(MULTIWELL_DEFN, MULTIWELL_GRID[::4],
                                   Variant.H),
                sh_wave_speeds(piezo, omega, v_grid),
                *band_scans(KP_DEFN, [0.3, 1.1], (0.05, 18.0), Variant.H,
                            e_count=60),
                *band_scans(THICK_DEFN, [0.3], (3.0, 3.6), Variant.T,
                            e_count=40)]

    got = []
    for size in (1, 5, 16):
        monkeypatch.setattr(solvers, "SCAN_BLOCK", size)
        got.append([scan_fields(scan) for scan in scans()])
    assert got[0] == got[1] == got[2]
    assert all(fields[5] for fields in got[0][:-1])
    masked = np.frombuffer(got[0][-1][3], dtype=bool)
    assert masked.any() and not masked.all()
