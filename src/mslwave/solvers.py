"""Boundary-value solvers built on the stable matrix variants.

Covers the escape problem (bound/guided states of an L-M-R sandwich,
zeros of det Ms), Bloch dispersion of periodic stacks in all four
variants, the scalar Kronig-Penney specializations, a transcendental
finite-well oracle, and the secular-scan machinery shared by all of
them.

The escape, SH-wave and band scans evaluate their secular determinant
through the stacked kernels (:func:`escape_secular_stack`,
:func:`periodic_dispersion_stack`, the latter in all four variants) in
blocks of SCAN_BLOCK // N parameter points for N x N media: 16 points
for the scalar (N = 1) escape and band scans, 8 for the N = 2 SH-wave
scans (``BENCH_22.json``). The block size is a performance choice
only: each point's value does not depend on the points it is
evaluated with. Each block evaluation solves the modes of every medium
it reads (the half-spaces and the layers of nonzero thickness) in one
QEP call (:func:`mslwave.qep.mode_source`), and a medium nothing reads
is never solved. Every scan runs through one entry, :func:`_scan`,
given an evaluator: a stacked one for the escape and SH-wave scans
(:func:`_bound_stacked`, which splits its points into blocks), or, from
:func:`scan_and_refine`, a plain callable looped point by point. It
refines all brackets of a scan in lockstep, so refinement runs in
blocks too: sign changes by Illinois regula falsi, which drops pole and
jump crossings after a few rounds, and minima of |f| by golden
section. A band scan samples its energy grid once for all q: the
period's matrix depends on the energy only, so each block is folded
once and closed with every q's e^{iqd}; each q's brackets are then
refined on their own, as :func:`_scan` refines them. The
Kronig-Penney residuals are the G = 1 case of one kernel that folds the
two-layer period at a block of energies (both layers' modes from one
QEP call) and applies the paper's relations elementwise.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from ._linalg import solve_stack
from ._table import csv_text
from .compose import fold_stack
from .errors import (ModelingError, MslError, PointFailures, StructuralError,
                     VariantError)
from .media import (Layer, LayeredStructure, StackedStructure,
                    make_quantum_medium, quantum_coefficients)
from .propagators import Variant, mode_matrix, s_from_k_stack
# solve_qep is bound here for perfbench/smoke_test.py, which checks that
# the tracer patches and restores it in every module
from .qep import mode_source, solve_qep  # noqa: F401
from .structure_io import StructureDefinition

# |f(root)| above this fraction of the scan's typical magnitude marks a
# pole crossing (sign flip through infinity), not a zero.
ROOT_RESIDUAL_RFRAC = 1e-3
# Parameter points per stacked evaluation, times the system size N: a
# scan of N x N media is evaluated in blocks of SCAN_BLOCK // N points.
# Larger blocks amortize more per-call overhead but raise a scan's peak
# memory, which grows with N; BENCH_22.json has the measurement behind
# the choice (16 points for N = 1, 8 for N = 2).
SCAN_BLOCK = 16
# Iteration cap of the Illinois and golden-section refiners.
_MAX_REFINE = 4096
# The Illinois refiner bisects a bracket that this many rounds failed to
# halve, so a bracket halves at least once in every this many + 1 rounds.
_HALVING_ROUNDS = 3
# The Illinois refiner drops a sign-change bracket as a pole or a jump
# crossing once it has shrunk to _CROSSING_SHRINK of its grid cell while
# its |f| per unit width has grown past _CROSSING_SLOPE times the cell's
# (and two more tests hold; see _illinois_all).
_CROSSING_SHRINK = 1.0 / 64.0
_CROSSING_SLOPE = 8.0


class ModelingWarning(UserWarning):
    """The requested scan leaves the regime the model assumes."""


def _decays(ks: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Whether every wavenumber of each row of a (G, N) array decays."""
    scale = np.maximum(1.0, np.max(np.abs(ks), axis=1, keepdims=True))
    return (np.abs(ks.imag) > tol * scale).all(axis=1)


@dataclass(frozen=True)
class RootRecord:
    value: float
    residual: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class SecularScan:
    """A sampled secular function with brackets and refined roots."""

    param_name: str
    grid: np.ndarray
    values: np.ndarray
    masked: np.ndarray
    brackets: tuple[tuple[float, float], ...]
    roots: tuple[RootRecord, ...]
    mode: str

    def root_values(self) -> list[float]:
        return [r.value for r in self.roots]

    def root_table(self, variant: str = "") -> tuple[tuple, list]:
        """The columns and rows of the roots, one row per root."""
        return ((self.param_name, "root", "residual", "variant"),
                [(r.value, r.value, r.residual, variant) for r in self.roots])

    def to_csv(self, variant: str = "", include_meta: bool = True) -> str:
        meta = f"scan,{self.param_name},{self.mode}" if include_meta else None
        return csv_text(meta, *self.root_table(variant))

    def to_json_dict(self) -> dict:
        return {
            "param_name": self.param_name,
            "mode": self.mode,
            "grid": [float(g) for g in self.grid],
            "values": [None if m else [float(v.real), float(v.imag)]
                       for v, m in zip(self.values, self.masked)],
            "brackets": [list(b) for b in self.brackets],
            "roots": [{"value": r.value, "residual": r.residual,
                       "bracket": list(r.bracket)} for r in self.roots],
        }


def _pointwise(func):
    """Evaluator looping a scalar callable; a library error masks the
    point."""
    def evaluate(xs):
        values = np.full(len(xs), np.nan, dtype=complex)
        masked = np.zeros(len(xs), dtype=bool)
        for i, x in enumerate(xs):
            try:
                values[i] = complex(func(float(x)))
            except MslError:
                masked[i] = True
        return values, masked
    return evaluate


def _illinois_all(evaluate, lo, hi, flo, fhi, tol: float):
    """Illinois regula falsi on the real part of every bracket, in lockstep.

    ``flo`` and ``fhi`` are the real values at the ends, of opposite
    signs. Each round evaluates one point inside every unfinished
    bracket at once: the secant point of the two end values, where the
    value of an end kept twice in a row is halved (Illinois), or the
    midpoint when the last _HALVING_ROUNDS rounds failed to halve the
    bracket or the last step's |f| rose over that of the end it
    replaced. Steps stay tol/2 inside the ends, so a bracket closes under
    ``hi - lo <= tol``.

    Close to a simple zero a step only lowers |f|, and the ends' |f|
    shrinks with the bracket. A bracket is a pole or a jump crossing,
    not a zero, and is dropped, once it has shrunk to _CROSSING_SHRINK
    of its grid cell and
    - its last step raised |f|,
    - its ends' smaller |f| exceeds the smaller |f| at its grid ends,
      which no f monotone in the cell allows, and
    - its ends' summed |f| per unit width exceeds _CROSSING_SLOPE times
      that of its grid ends, which no zero does whose slope is less
      steep than that multiple of the cell's secant slope.

    Returns (x, fx): x is NaN where an evaluation inside the bracket was
    masked or the bracket was dropped; fx is the value at x when it was
    met exactly (a zero step) and NaN when x still needs evaluating.
    """
    lo, hi, flo, fhi = lo.copy(), hi.copy(), flo.copy(), fhi.copy()
    n = len(lo)
    lo_neg = flo < 0.0
    # true |f| at the ends; flo and fhi carry the Illinois-scaled values
    alo, ahi = np.abs(flo), np.abs(fhi)
    cell_floor = np.minimum(alo, ahi)
    # near the double range the slopes overflow to inf, which keeps a
    # bracket whose grid ends are huge and drops one whose own ends are
    with np.errstate(over="ignore", invalid="ignore"):
        cell_slope = (alo + ahi) / (hi - lo)
    crossing_width = _CROSSING_SHRINK * (hi - lo)
    # the end the last step replaced: -1 lo, +1 hi, 0 none yet
    last = np.zeros(n, dtype=np.int8)
    rose = np.zeros(n, dtype=bool)
    bisect = np.zeros(n, dtype=bool)
    # bracket widths of the last _HALVING_ROUNDS rounds, oldest first
    widths = [hi - lo] * _HALVING_ROUNDS
    x = np.full(n, np.nan)
    fx = np.full(n, np.nan, dtype=complex)
    active = np.ones(n, dtype=bool)
    for _ in range(_MAX_REFINE):
        width = hi - lo
        done = active & (width <= tol)
        x[done] = 0.5 * (lo[done] + hi[done])
        active &= ~done
        with np.errstate(over="ignore", invalid="ignore"):
            active &= ~(rose & (width <= crossing_width)
                        & (np.minimum(alo, ahi) > cell_floor)
                        & (alo + ahi > _CROSSING_SLOPE * cell_slope * width))
        idx = np.flatnonzero(active)
        if not len(idx):
            break
        a, b = lo[idx], hi[idx]
        # scaled to the larger end value, so the difference cannot
        # overflow; ua - ub has magnitude at least 1
        big = np.maximum(np.abs(flo[idx]), np.abs(fhi[idx]))
        ua, ub = flo[idx] / big, fhi[idx] / big
        step = np.where(bisect[idx], 0.5 * (a + b),
                        a + ua / (ua - ub) * (b - a))
        step = np.minimum(np.maximum(step, a + 0.5 * tol), b - 0.5 * tol)
        f, masked = evaluate(step)
        masked |= ~np.isfinite(f)
        fs = f.real
        zero = ~masked & (fs == 0.0)
        x[idx[zero]] = step[zero]
        fx[idx[zero]] = f[zero]
        active[idx[masked | zero]] = False
        moved = ~masked & ~zero
        on_lo = moved & (lo_neg[idx] == (fs < 0.0))
        on_hi = moved & ~on_lo
        il, ih = idx[on_lo], idx[on_hi]
        afs = np.abs(fs)
        rose[idx] = np.where(on_lo, afs > alo[idx], afs > ahi[idx])
        # Illinois: an end kept for the second round running has its
        # value halved
        fhi[il[last[il] == -1]] *= 0.5
        flo[ih[last[ih] == 1]] *= 0.5
        lo[il], flo[il], alo[il] = step[on_lo], fs[on_lo], afs[on_lo]
        hi[ih], fhi[ih], ahi[ih] = step[on_hi], fs[on_hi], afs[on_hi]
        last[il], last[ih] = -1, 1
        widths.append(hi - lo)
        bisect[idx] = rose[idx] | (widths[-1][idx]
                                   > 0.5 * widths.pop(0)[idx])
    x[active] = 0.5 * (lo[active] + hi[active])
    return x, fx


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _abs_values(evaluate, xs) -> np.ndarray:
    """|f| at ``xs``, inf at masked points and at non-finite values."""
    f, masked = evaluate(xs)
    return np.where(masked | ~np.isfinite(f), np.inf, np.abs(f))


def _golden_all(evaluate, a, c, tol: float):
    """Golden-section minimization of |f| on every triplet, in lockstep.

    Returns (x, |f(x)|) per triplet; |f| is inf where x was masked.
    """
    a, c = a.copy(), c.copy()
    k = len(a)
    x1 = c - _GOLDEN * (c - a)
    x2 = a + _GOLDEN * (c - a)
    mags = _abs_values(evaluate, np.concatenate([x1, x2]))
    f1, f2 = mags[:k], mags[k:]
    active = np.ones(k, dtype=bool)
    for _ in range(_MAX_REFINE):
        active &= ~(c - a <= tol)
        idx = np.flatnonzero(active)
        if not len(idx):
            break
        left = f1[idx] < f2[idx]
        il, ir = idx[left], idx[~left]
        c[il], x2[il], f2[il] = x2[il], x1[il], f1[il]
        x1[il] = c[il] - _GOLDEN * (c[il] - a[il])
        a[ir], x1[ir], f1[ir] = x1[ir], x2[ir], f2[ir]
        x2[ir] = a[ir] + _GOLDEN * (c[ir] - a[ir])
        fnew = _abs_values(evaluate, np.where(left, x1[idx], x2[idx]))
        f1[il], f2[ir] = fnew[left], fnew[~left]
    first = f1 < f2
    return np.where(first, x1, x2), np.where(first, f1, f2)


def scan_and_refine(func, grid, tol: float = 1e-10,
                    param_name: str = "x") -> SecularScan:
    """Sample a secular function, bracket its zeros, and refine them.

    Points where ``func`` raises a library error are masked; brackets
    never span masked points, and never end at a non-finite value
    (refinement treats one as masked). When the sampled values are real
    up to noise the zeros are bracketed by sign changes and refined by
    Illinois regula falsi, which gives up early on a bracket whose |f|
    does not fall as it shrinks (a pole or a jump); otherwise local
    minima of |f| are refined by golden section. Refined candidates
    whose residual stays a sizable fraction of the scan's typical
    magnitude are pole crossings or shallow dips, not roots, and are
    dropped.

    All brackets are refined in lockstep, one evaluation of ``func`` at
    each bracket's step per round.
    """
    return _scan(_pointwise(func), grid, tol, param_name)


def _scan(evaluate, grid, tol: float, param_name: str) -> SecularScan:
    """:func:`scan_and_refine` through the evaluator ``evaluate``:
    ``evaluate(xs)`` returns the (values, masked) arrays of the 1-D
    ``xs``."""
    grid = _scan_grid(grid, tol)
    values, masked = evaluate(grid)
    return _refine_samples(evaluate, grid, values, masked, tol, param_name)


def _scan_grid(grid, tol: float) -> np.ndarray:
    """``grid`` as a float array, checked to be a scan grid, once ``tol``
    is checked to be a refinement tolerance (:func:`_check_tol`)."""
    _check_tol(tol)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    return grid


def _check_tol(tol) -> float:
    """``tol`` as a float, checked to be finite and > 0: a refinement
    closes a bracket once it is at most ``tol`` wide, so a NaN ``tol``
    loses every root and a ``tol`` <= 0 runs every bracket for
    _MAX_REFINE rounds."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    return tol


def _refine_samples(evaluate, grid: np.ndarray, values: np.ndarray,
                    masked: np.ndarray, tol: float,
                    param_name: str) -> SecularScan:
    """The scan of :func:`scan_and_refine` from the sampled ``values``
    and ``masked`` of its ``grid``: bracket, refine through the
    evaluator ``evaluate`` and test the residuals."""
    # an overflowed value (inf or NaN) has no usable sign or size: it
    # neither ends a bracket nor sets the residual scale, though its
    # point is not masked, since its evaluation did not fail
    usable = ~masked & np.isfinite(values)

    finite = values[usable]
    mode = "sign"
    if len(finite):
        scale = float(np.max(np.abs(finite)))
        imag_frac = (float(np.max(np.abs(finite.imag))) / scale
                     if scale > 0 else 0.0)
        mode = "sign" if imag_frac <= 1e-9 else "minimum"

    value_scale = float(np.median(np.abs(finite))) if len(finite) else 0.0
    residual_limit = max(ROOT_RESIDUAL_RFRAC * value_scale, 1e-280)

    if mode == "sign":
        re = values.real
        # a usable exact zero is its own bracket, whatever its neighbours
        at_zero = usable & (re == 0.0)
        # compare signs: the product of two huge values overflows, and
        # that of inf and 0 at an unusable pair is invalid
        signs = np.sign(re)
        flips = usable[:-1] & usable[1:] & (signs[:-1] * signs[1:] < 0)
        starts = np.flatnonzero(at_zero | np.append(flips, False))
        at_zero = at_zero[starts]
        ends = np.where(at_zero, starts, starts + 1)
        sign = starts[~at_zero]
        x = grid[starts]
        res = np.abs(values[starts])
        xs, fx = _illinois_all(evaluate, grid[sign], grid[sign + 1],
                               re[sign], re[sign + 1], tol)
        need = np.isnan(fx) & ~np.isnan(xs)
        f, f_masked = evaluate(xs[need])
        fx[need] = np.where(f_masked, np.nan, f)
        x[~at_zero], res[~at_zero] = xs, np.abs(fx)
    else:
        mag = np.abs(values)
        inner = usable[:-2] & usable[1:-1] & usable[2:]
        centers = 1 + np.flatnonzero(inner & (mag[1:-1] <= mag[:-2])
                                     & (mag[1:-1] <= mag[2:]))
        starts, ends = centers - 1, centers + 1
        x, res = _golden_all(evaluate, grid[starts], grid[ends], tol)

    brackets = tuple((float(grid[i]), float(grid[j]))
                     for i, j in zip(starts, ends))
    # NaN x or residual (masked) fails the residual test
    roots = [RootRecord(value=float(xv), residual=float(r), bracket=br)
             for xv, r, br in zip(x, res, brackets) if r <= residual_limit]
    roots.sort(key=lambda r: r.value)
    return SecularScan(param_name=param_name, grid=grid, values=values,
                       masked=masked, brackets=brackets,
                       roots=tuple(roots), mode=mode)


def _det_live(m: np.ndarray, fails: PointFailures) -> np.ndarray:
    """det of every live matrix of a (G, n, n) stack; NaN at failed
    points."""
    values = np.full(len(m), np.nan, dtype=complex)
    ok = ~fails.failed
    values[ok] = np.linalg.det(m[ok])
    return values


def _bound_stacked(defn: StructureDefinition, bind, secular,
                   lead: tuple = ()):
    """Evaluator of ``secular(st, fails)``, the (*lead, G) secular values
    and masks of ``defn`` bound at a block's G points by ``bind(points)``,
    called in blocks of SCAN_BLOCK // N points for N x N media."""
    size = max(1, SCAN_BLOCK // defn.materials[defn.left].n)

    def evaluate_block(xs):
        fails = PointFailures(len(xs))
        st = defn.bind_stack(fails, **bind(xs))
        if fails.all_failed:
            shape = lead + (len(xs),)
            return (np.full(shape, np.nan, dtype=complex),
                    np.ones(shape, dtype=bool))
        return secular(st, fails)

    def evaluate(xs):
        values = np.empty(lead + (len(xs),), dtype=complex)
        masked = np.empty(values.shape, dtype=bool)
        for s in range(0, len(xs), size):
            block = slice(s, s + size)
            values[..., block], masked[..., block] = evaluate_block(xs[block])
        return values, masked

    return evaluate


def escape_secular_stack(st: StackedStructure, variant: Variant | str,
                         fails: PointFailures,
                         bound_state: bool = False) -> np.ndarray:
    """Escape secular matrices Ms of G bound points, (G, 2N, 2N).

    The stacked form of :func:`escape_secular`: a point that fails
    anywhere (mode solve, decay check, single layer, fold) is recorded
    in ``fails``; its Ms is not meaningful.
    """
    variant = Variant(variant)
    if variant not in (Variant.H, Variant.E):
        raise VariantError(f"escape problem supports H or E, got {variant}")
    g, n = st.g, st.n
    layers = [(key, d) for key, d in st.layers if d > 0.0]
    modes_of = mode_source(st.media, [st.left, st.right] + [
        key for key, _ in layers], fails)
    left, right = modes_of(st.left), modes_of(st.right)
    if bound_state:
        fails.add(~(_decays(left.ks[:, n:]) & _decays(right.ks[:, :n])),
                  lambda i: ModelingError(
                      "bound-state problem requires decaying outgoing modes "
                      "in both half-spaces (propagating mode found)"))

    inner = fold_stack(layers, variant, modes_of, fails, n)[0]
    if inner is None:
        return np.full((g, 2 * n, 2 * n), np.nan, dtype=complex)
    h11, h12 = inner[:, :n, :n], inner[:, :n, n:]
    h21, h22 = inner[:, n:, :n], inner[:, n:, n:]
    # outgoing waves only: minus modes of L, plus modes of R
    li_l_f, li_l_a = left.f0[:, :, n:], left.a0[:, :, n:]
    li_r_f, li_r_a = right.f0[:, :, :n], right.a0[:, :, :n]
    ms = np.empty((g, 2 * n, 2 * n), dtype=complex)
    if variant is Variant.H:
        ms[:, :n, :n] = -li_l_f + h11 @ li_l_a
        ms[:, n:, :n] = h21 @ li_l_a
    else:
        ms[:, :n, :n] = h11 @ li_l_f - li_l_a
        ms[:, n:, :n] = h21 @ li_l_f
    ms[:, :n, n:] = h12 @ li_r_f
    ms[:, n:, n:] = h22 @ li_r_f - li_r_a
    return ms


def escape_secular(s: LayeredStructure, variant: Variant | str = Variant.H,
                   bound_state: bool = False) -> np.ndarray:
    """Secular matrix Ms of the escape problem, det Ms = 0 at eigenstates.

    Only outgoing waves are kept in the half-spaces: the minus modes of
    L and the plus modes of R, stacked into LI matrices. The inner
    region enters through its H (or E) matrix:

        Ms = [[-I  H11] LI_l,  [H12  0] LI_r],
             [[ 0  H21] LI_l,  [H22 -I] LI_r]]

    and analogously with (E11 - I / E12 / E21 / E22 - I) for E. With the
    ``bound_state`` flag every outgoing mode must genuinely decay. This
    is the G = 1 case of :func:`escape_secular_stack`; failures raise.
    """
    fails = PointFailures(1)
    ms = escape_secular_stack(StackedStructure.of(s), variant, fails,
                              bound_state)
    fails.raise_first()
    return ms[0]


def _escape_scan(defn: StructureDefinition, grid, variant, tol: float,
                 param_name: str, bound_state: bool, bind) -> SecularScan:
    """Scan det Ms with ``defn`` bound by ``bind(points)`` per block."""

    def secular(st, fails):
        return _det_live(escape_secular_stack(st, variant, fails,
                                              bound_state=bound_state),
                         fails), fails.failed

    return _scan(_bound_stacked(defn, bind, secular), grid, tol, param_name)


def escape_energy_scan(defn: StructureDefinition, e_grid,
                       variant: Variant | str = Variant.H,
                       tol: float = 1e-10,
                       bound_state: bool = True) -> SecularScan:
    """Scan det Ms over energy for a quantum structure definition."""
    return _escape_scan(defn, e_grid, variant, tol, "energy", bound_state,
                        lambda energies: {"energy": energies})


def periodic_dispersion_stack(st: StackedStructure, variant: Variant | str,
                              q: float, fails: PointFailures) -> np.ndarray:
    """Bloch secular residuals of G bound periods at one q, shape (G,).

    The residual of the Bloch condition F(z+d) = F(z) e^{iqd} in the
    determinant form of the chosen variant, with the period's T, H, E or
    S matrix folded for all points at once. A T determinant past the
    double range comes back inf or NaN, without a floating-point
    warning. The S form folds between, and expands the boundary values
    in the reduced bases of, the media that flank the period boundaries
    under periodic continuation (the last layer's medium on the left,
    the first layer's on the right). A point that fails anywhere (mode
    solve, single layer, fold, a secular solve) is recorded in ``fails``
    and its value is NaN. This is the one-q case of
    :func:`_bloch_residuals`.
    """
    (values, q_fails), = _bloch_residuals(st, variant, [q], fails)
    fails.add(q_fails.failed, q_fails.errors.__getitem__)
    return values


def _bloch_residuals(st: StackedStructure, variant: Variant | str, qs,
                     fails: PointFailures
                     ) -> list[tuple[np.ndarray, PointFailures]]:
    """The residuals of :func:`periodic_dispersion_stack` at every q of
    ``qs``, from one fold of the period: one ((G,) values, failures) pair
    per q.

    The period's matrix depends on the energy only, so it is folded once
    for the G points, its failures recorded in ``fails``; each q then
    applies the Bloch closure with e^{iqd} to it, recording the failures
    of its own secular solves in a copy of ``fails``.
    """
    variant = Variant(variant)
    if variant not in (Variant.T, Variant.H, Variant.E, Variant.S):
        raise VariantError(
            f"periodic dispersion supports T/H/E/S, got {variant}")
    n = st.n
    period = float(sum(d for _, d in st.layers))
    layers = [(key, d) for key, d in st.layers if d > 0.0]
    keys = [key for key, _ in layers]
    modes_of = mode_source(st.media, keys, fails)
    ends = (keys[-1], keys[0]) if keys else None
    if variant is Variant.S and not keys:
        fails.add(np.ones(st.g, dtype=bool), lambda i: ModelingError(
            "periodic S form needs a non-empty period"))
    inner = fold_stack(layers, variant, modes_of, fails, n, ends=ends)[0]
    if inner is None:
        return [(np.full(st.g, np.nan, dtype=complex), fails.copy())
                for _ in qs]
    if variant is Variant.S:
        ql, qr = (mode_matrix(modes_of(key)) for key in ends)
    b11, b12 = inner[:, :n, :n], inner[:, :n, n:]
    b21, b22 = inner[:, n:, :n], inner[:, n:, n:]
    eye = np.eye(n, dtype=complex)

    def closure(q: float, q_fails: PointFailures) -> np.ndarray:
        phase = cmath.exp(1j * q * period)
        if variant is Variant.T:
            # a finite T can have a determinant past the double range; it
            # comes back inf or NaN, which scan_and_refine never brackets
            with np.errstate(over="ignore", invalid="ignore"):
                return _det_live(inner - np.eye(2 * n) * phase, q_fails)
        if variant is Variant.S:
            return _s_form_residual(inner, ql, qr, phase, q_fails)
        if variant is Variant.H:
            # Bloch conditions in the H relation give
            #   A(z) = [I - H21 e^{-iqd}]^{-1} H22 F(z) = H11^{-1} [I - H12 e^{iqd}] F(z);
            # multiplying through by [I - H21 e^{-iqd}] avoids its poles.
            # For N = 1 this reduces exactly to
            # 2 cos(qd) H12 = 1 - H11 H22 + H12^2.
            rhs = solve_stack(b11, eye - b12 * phase, q_fails, "H11")
            secular = b22 - (eye - b21 / phase) @ rhs
        else:
            secular = (b11 + b12 * phase) - (b21 / phase + b22)
        return _det_live(secular, q_fails)

    residuals = []
    for q in qs:
        q_fails = fails.copy()
        residuals.append((closure(q, q_fails), q_fails))
    return residuals


def _s_form_residual(s: np.ndarray, ql: np.ndarray, qr: np.ndarray,
                     phase: complex, fails: PointFailures) -> np.ndarray:
    """det of the S-form Bloch secular matrices of a (G, 2N, 2N) S stack
    for the given end-domain bases."""
    n = s.shape[-1] // 2
    s11, s12, s21, s22 = s[:, :n, :n], s[:, :n, n:], s[:, n:, :n], s[:, n:, n:]
    ql11, ql12 = ql[:, :n, :n], ql[:, :n, n:]
    ql21, ql22 = ql[:, n:, :n], ql[:, n:, n:]
    qr11, qr12 = qr[:, :n, :n], qr[:, :n, n:]
    qr21, qr22 = qr[:, n:, :n], qr[:, n:, n:]
    m1 = solve_stack(qr11 @ s21 - ql11 * phase - ql12 @ s11 * phase,
                     ql12 @ s12 * phase - qr11 @ s22 - qr12, fails,
                     "S-form row-1 factor")
    m2 = solve_stack(qr21 @ s21 - ql21 * phase - ql22 @ s11 * phase,
                     ql22 @ s12 * phase - qr21 @ s22 - qr22, fails,
                     "S-form row-2 factor")
    return _det_live(m1 - m2, fails)


def periodic_dispersion(period: LayeredStructure, variant: Variant | str,
                        q: float) -> complex:
    """Secular residual of the Bloch condition F(z+d) = F(z) e^{iqd}.

    The G = 1 case of :func:`periodic_dispersion_stack`, which describes
    the four determinant forms; failures raise.
    """
    fails = PointFailures(1)
    value = periodic_dispersion_stack(StackedStructure.of(period), variant,
                                      q, fails)
    fails.raise_first()
    return complex(value[0])


@dataclass(frozen=True)
class QuantumLayer:
    """Mass, potential and thickness of one effective-mass layer."""

    mass: float
    potential: float
    thickness: float


def _kronig_penney_stack(well: QuantumLayer, barrier: QuantumLayer,
                         energies, q: float, variant: Variant | str,
                         fails: PointFailures,
                         hbar2_over_2: float = 1.0) -> np.ndarray:
    """:func:`kronig_penney_residuals` at G energies, from one QEP call
    and one fold of the period; a point that fails anywhere is recorded
    in ``fails`` and its value is NaN."""
    variant = Variant(variant)
    if variant not in (Variant.T, Variant.H, Variant.E, Variant.S):
        raise VariantError(f"Kronig-Penney supports T/H/E/S, got {variant}")
    h2, roles = hbar2_over_2, (("well", well), ("barrier", barrier))
    cos_qd = math.cos(q * (well.thickness + barrier.thickness))
    energies = np.array(energies, dtype=float)
    fails.add(~np.isfinite(energies), lambda i: StructuralError(
        "w contains non-finite entries"))
    fails.patch(energies)
    # keyed by role: two equal layers would share a medium key
    media = {key: quantum_coefficients(ly.mass, ly.potential, energies, h2)
             for key, ly in roles}
    for _, ly in roles:
        if not math.isfinite(ly.thickness) or ly.thickness < 0.0:
            raise StructuralError("layer thickness must be finite and >= 0, "
                                  f"got {ly.thickness}")
    if not fails.all_failed:
        cell = fold_stack([(key, float(ly.thickness)) for key, ly in roles],
                          Variant.T if variant is Variant.S else variant,
                          mode_source(media, list(media), fails), fails, 1)[0]
    if variant is Variant.S and not fails.all_failed:
        # S from K = diag(1, 1/beta_A) T diag(1, beta_B); k = 0 only at
        # failed points
        k_a, k_b = (np.sqrt(media[key].w[:, 0, 0] * ly.mass / h2)
                    for key, ly in roles)
        fails.patch(k_a, k_b)
        cell[:, :, 1] *= (h2 / barrier.mass) * k_b[:, None]
        cell[:, 1, :] /= (h2 / well.mass) * k_a[:, None]
        cell = s_from_k_stack(cell, fails)
    if fails.all_failed:
        return np.full(len(energies), np.nan, dtype=complex)
    (x11, x12), (x21, x22) = np.moveaxis(cell, 0, -1)
    if variant is Variant.T:
        res = cos_qd - 0.5 * (x11 + x22)
    elif variant is Variant.H:
        res = 2 * cos_qd * x12 - (1 - x11 * x22 + x12 ** 2)
    elif variant is Variant.E:
        res = 2 * cos_qd * x12 - (x22 - x11)
    else:
        ratio = (k_b * well.mass) / (k_a * barrier.mass)
        res = 2 * cos_qd * x21 - (ratio * (x21 * x12 - x11 * x22) + 1.0)
    return np.where(fails.failed, np.nan, res)


def kronig_penney_residuals(well: QuantumLayer, barrier: QuantumLayer,
                            energy: float, q: float,
                            variant: Variant | str = Variant.T,
                            hbar2_over_2: float = 1.0) -> complex:
    """Scalar dispersion residual of the two-layer superlattice cell.

    The period is [well, barrier] with d = a + b. Residuals (LHS - RHS):

        T:  cos(qd) - (T11 + T22)/2
        H:  2 cos(qd) H12 - (1 - H11 H22 + H12^2)
        E:  2 cos(qd) E12 - (E22 - E11)
        S:  2 cos(qd) t   - (r (t s - S11 S22) + 1)

    with r = k_B m_A / (k_A m_B). The T, H and E entries come from one
    fold of the two layers, whose media are keyed by role ("well",
    "barrier"), so equal layers still fold as two media. The S relation
    is evaluated in the sine/cosine bases of the media flanking the
    period boundaries (barrier on the left, well on the right), from the
    folded T; ``t`` is the left-to-right transmission block and ``s``
    the right-to-left one. Complex k_B below the barrier is handled by
    analytic continuation of cos/sin. The G = 1 case of
    :func:`_kronig_penney_stack`; failures raise.
    """
    fails = PointFailures(1)
    value = _kronig_penney_stack(well, barrier, [energy], q, variant, fails,
                                 hbar2_over_2)
    fails.raise_first()
    return complex(value[0])


def kronig_penney_period(well: QuantumLayer, barrier: QuantumLayer,
                         energy: float,
                         hbar2_over_2: float = 1.0) -> LayeredStructure:
    """The [well, barrier] period as a structure at one energy."""
    medium_a = make_quantum_medium(well.mass, well.potential, energy,
                                   hbar2_over_2)
    medium_b = make_quantum_medium(barrier.mass, barrier.potential, energy,
                                   hbar2_over_2)
    return LayeredStructure(left=medium_b,
                            layers=(Layer(medium_a, well.thickness),
                                    Layer(medium_b, barrier.thickness)),
                            right=medium_a)


def finite_well_oracle(v0: float, width: float, mass: float = 1.0,
                       hbar2_over_2: float = 1.0) -> tuple[float, ...]:
    """Bound-state energies of the symmetric rectangular well.

    Independent transcendental oracle: with z = k width/2 and
    z0 = sqrt(V0 m / (hbar^2/2)) width / 2, even states solve
    z tan z = sqrt(z0^2 - z^2) and odd states -z cot z = sqrt(z0^2 - z^2),
    one root per continuous branch.
    """
    if v0 <= 0:
        raise ValueError("well depth must be positive")
    z0 = math.sqrt(v0 * mass / hbar2_over_2) * width / 2.0

    def sqrt_term(z: float) -> float:
        return math.sqrt(max(z0 * z0 - z * z, 0.0))

    energies: list[float] = []
    eps = 1e-13 * max(1.0, z0)

    def branch_roots(offset: float, func) -> None:
        n = 0
        while True:
            lo = n * math.pi + offset
            hi = lo + math.pi / 2.0
            if lo >= z0:
                break
            lo_in, hi_in = lo + eps, min(hi - eps, z0 - eps)
            if hi_in <= lo_in:
                break
            flo, fhi = func(lo_in), func(hi_in)
            if flo == 0.0:
                z = lo_in
            elif flo * fhi < 0.0:
                z = scipy.optimize.brentq(func, lo_in, hi_in, xtol=1e-12)
            else:
                n += 1
                continue
            k = 2.0 * z / width
            energies.append(k * k * hbar2_over_2 / mass)
            n += 1

    branch_roots(0.0, lambda z: z * math.tan(z) - sqrt_term(z))
    branch_roots(math.pi / 2.0, lambda z: -z / math.tan(z) - sqrt_term(z))
    return tuple(sorted(energies))


@dataclass(frozen=True)
class Band:
    """One connected dispersion branch (q, E, residual) with flags."""

    branch: int
    points: tuple[tuple[float, float, float], ...]
    discontinuities: tuple[int, ...] = ()


def _predict_energy(points, q: float) -> float:
    """A branch's E at q: linear from its last two points, else its last E."""
    if len(points) < 2 or points[-2][0] == points[-1][0]:
        return points[-1][1]
    (q0, e0, _), (q1, e1, _) = points[-2], points[-1]
    return e1 + (e1 - e0) * (q - q1) / (q1 - q0)


def band_scans(period: StructureDefinition, q_grid, e_range,
               variant: Variant | str = Variant.H, e_count: int = 600,
               tol: float = 1e-10) -> list[SecularScan]:
    """The energy scan of the periodic dispersion at every q of
    ``q_grid``, on ``e_count`` energies spanning ``e_range``.

    The period's matrix depends on the energy only, so the grid is
    sampled once for all q: each block of SCAN_BLOCK // N energies is
    bound and folded once, and every q's Bloch closure is applied to that
    fold (:func:`_bloch_residuals`). Each q's brackets are then refined as
    :func:`_scan` refines them, through
    :func:`periodic_dispersion_stack` at that q, so every scan equals
    the one-q scan bit for bit. Each scan's ``masked`` array marks the
    grid energies where its evaluation failed.
    """
    variant = Variant(variant)
    e_grid = np.linspace(float(e_range[0]), float(e_range[1]), e_count)
    qs = [float(q) for q in np.asarray(q_grid, dtype=float)]
    if not qs:
        return []
    e_grid = _scan_grid(e_grid, tol)

    def bound(secular, lead=()):
        return _bound_stacked(period, lambda energies: {"energy": energies},
                              secular, lead)

    def sample(st, fails):
        residuals = _bloch_residuals(st, variant, qs, fails)
        return (np.array([values for values, _ in residuals]),
                np.array([q_fails.failed for _, q_fails in residuals]))

    def at_q(q: float):
        return bound(lambda st, fails: (
            periodic_dispersion_stack(st, variant, q, fails), fails.failed))

    values, masked = bound(sample, (len(qs),))(e_grid)
    return [_refine_samples(at_q(q), e_grid, values[i], masked[i], tol,
                            "energy")
            for i, q in enumerate(qs)]


def connect_bands(q_grid, scans) -> list[Band]:
    """Join the roots of per-q scans into branches by continuity in E.

    At each q the open branches and the roots are matched one to one so
    that the summed distance |E_root - E_predicted| is least (an
    assignment, not a greedy pass); a branch left without a root closes,
    and a root left without a branch opens a new one. A branch predicts
    its E at the new q by linear extrapolation from its last two points,
    or as its last E when it has only one. A discontinuity marks a join
    that may be wrong: the q index at which another open branch's
    predicted E lies closer to the joined root than this branch's own
    prediction does.
    """
    bands: list[dict] = []
    open_bands: list[dict] = []
    for iq, (q, scan) in enumerate(zip(np.asarray(q_grid, dtype=float),
                                       scans)):
        roots = [(r.value, r.residual) for r in scan.roots]
        predicted = [_predict_energy(band["points"], q) for band in open_bands]
        cost = np.abs(np.array([e for e, _ in roots])[None, :]
                      - np.array(predicted)[:, None])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        next_open: list[dict] = []
        for i, j in zip(rows, cols):
            band, (e_val, res) = open_bands[i], roots[j]
            own = abs(e_val - predicted[i])
            if any(abs(e_val - p) < own for p in predicted):
                band["disc"].append(iq)
            band["points"].append((float(q), float(e_val), float(res)))
            next_open.append(band)
        taken = set(cols.tolist())
        for j, (e_val, res) in enumerate(roots):
            if j not in taken:
                band = {"id": len(bands), "points": [(float(q), float(e_val),
                                                      float(res))], "disc": []}
                bands.append(band)
                next_open.append(band)
        open_bands = next_open

    return [Band(branch=band["id"], points=tuple(band["points"]),
                 discontinuities=tuple(band["disc"]))
            for band in sorted(bands, key=lambda b: b["id"])]


def band_structure(period: StructureDefinition, q_grid, e_range,
                   variant: Variant | str = Variant.H,
                   e_count: int = 600, tol: float = 1e-10) -> list[Band]:
    """Roots of the periodic dispersion over a (q, E) window, connected
    into branches by continuity in E.

    The roots come from :func:`band_scans` (every variant stacked over
    blocks of energies) and are joined by
    :func:`connect_bands`, whose docstring gives the joining rule and
    what a discontinuity flag marks.
    """
    return connect_bands(q_grid, band_scans(period, q_grid, e_range, variant,
                                            e_count, tol))


def sh_wave_speeds(defn: StructureDefinition, omega: float, v_grid,
                   tol: float = 1e-6) -> SecularScan:
    """Guided SH-wave speeds of a piezoelectric stack at one frequency.

    For each trial speed v the media are bound at kappa_x = omega / v
    and the escape secular determinant (H form) is scanned. Confined
    modes need the trial speed below the outer half-spaces' bulk SH
    speed so the outgoing waves are evanescent; scanning above that
    speed only earns a warning, since the determinant still exists.
    """
    if defn.kinds - {"sh_piezo"}:
        raise ModelingError("sh_wave_speeds needs an all-piezo structure")
    v_grid = np.asarray(v_grid, dtype=float)

    def bulk_speed(name: str) -> float:
        f = defn.materials[name].fields
        return math.sqrt((f["c44"] + f["e15"] ** 2 / f["eps11"]) / f["rho"])

    v_outer = min(bulk_speed(defn.left), bulk_speed(defn.right))
    if float(np.max(v_grid)) >= v_outer:
        warnings.warn(
            f"scan extends to v >= outer bulk SH speed {v_outer:.6g}; "
            "outgoing waves are not evanescent there", ModelingWarning,
            stacklevel=2)

    return _escape_scan(defn, v_grid, Variant.H, tol, "v_s", False,
                        lambda speeds: {"omega": omega,
                                        "kappa_x": omega / speeds})
