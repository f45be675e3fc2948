"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PointFailures, SingularMatrixError

def unit_roundoff() -> float:
    """Empirically detect the unit roundoff.

    Halve a probe until adding it to 1.0 no longer changes the value;
    the last effective probe is the classical machine epsilon.
    """
    u = 1.0
    while 1.0 + u / 2.0 != 1.0:
        u /= 2.0
    return u


UNIT_ROUNDOFF = unit_roundoff()
_LOG_DOUBLE_MAX = float(np.log(np.finfo(float).max))


def cond_estimate(a: np.ndarray) -> float:
    """2-norm condition number (exact SVD; matrices here are tiny)."""
    return float(cond_stack(np.asarray(a)[None])[0])


def cond_stack(a: np.ndarray) -> np.ndarray:
    """:func:`cond_estimate` of each matrix of a (G, n, n) stack; a
    singular matrix gives inf."""
    return sv_ratio(np.linalg.svd(a, compute_uv=False))


def sv_ratio(s: np.ndarray) -> np.ndarray:
    """Largest over smallest of each row of (G, n) descending singular
    values; inf where the smallest is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s[:, 0] / s[:, -1]
    ratio[s[:, -1] == 0.0] = np.inf
    return ratio


def scaled_cond(a: np.ndarray) -> float:
    """Condition number after row and column equilibration.

    Rows and columns of mixed physical units (fields against linear
    forms) can make a perfectly usable basis look singular; dividing
    each row and then each column by its largest magnitude leaves the
    genuine degeneracy measure (collinearity) behind.
    """
    return float(scaled_cond_stack(np.asarray(a)[None])[0])


def scaled_cond_stack(a: np.ndarray) -> np.ndarray:
    """:func:`scaled_cond` of each matrix of a (G, n, n) stack; a zero
    row or column, or a non-finite entry, gives inf."""
    row_max = np.max(np.abs(a), axis=-1, keepdims=True)
    ok = ((row_max != 0.0) & (row_max < np.inf)).all(axis=(-2, -1))
    row_max[row_max == 0.0] = 1.0
    # a non-finite entry gives inf / inf; its matrix is replaced below
    with np.errstate(invalid="ignore"):
        b = a / row_max
        col_max = np.max(np.abs(b), axis=-2, keepdims=True)
        ok &= (col_max != 0.0).all(axis=(-2, -1))
        col_max[col_max == 0.0] = 1.0
        b /= col_max
    if not ok.all():
        b[~ok] = np.eye(a.shape[-1])
    s = np.linalg.svd(b, compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = s[:, 0] / s[:, -1]
    cond[~ok] = np.inf
    return cond


CONDITION_LIMIT = 1e12


def condition_gate(a: np.ndarray, fails, make_error) -> None:
    """Refuse the matrices of a (G, n, n) stack whose scaled condition
    (:func:`scaled_cond_stack`) exceeds CONDITION_LIMIT: each such live
    point is recorded in ``fails`` as ``make_error(i, cond)``.

    The exact condition, an equilibration and an SVD, runs only at the
    points a cheap upper bound cannot clear. With r_i the row maxima and
    c_j the column maxima of the equilibration, B = diag(1/r) a diag(1/c)
    has |b_ij| <= 1 and c_j <= 1, so

        cond_2(B) <= ||B||_F ||B^{-1}||_F <= n ||a^{-1} diag(r)||_F.

    A point passes when that bound is at most CONDITION_LIMIT / 16; the
    margin covers the rounding of ``inv`` and of the SVD's sigma_min, so
    no point is decided otherwise than by the exact condition. A point
    whose bound is larger or NaN, or whose matrix ``inv`` finds singular,
    gets the exact condition.
    """
    g, n = a.shape[:2]
    singular = PointFailures(g)
    inv = stacked_call(np.linalg.inv, singular, lambda i, exc: exc, a)
    # a huge or non-finite matrix gives inf, or inf * 0 = NaN, here; both
    # fail the test below
    with np.errstate(over="ignore", invalid="ignore"):
        inv *= np.abs(a).max(axis=-1)[:, None, :]
        parts = inv.view(float)
        bound_sq = np.einsum("gij,gij->g", parts, parts)
    cleared = bound_sq <= (CONDITION_LIMIT / (16 * n)) ** 2
    if cleared.all() and not singular.failed.any():
        return
    exact = (~cleared | singular.failed) & ~fails.failed
    cond = np.zeros(g)
    cond[exact] = scaled_cond_stack(a[exact])
    fails.add(cond > CONDITION_LIMIT, lambda i: make_error(i, float(cond[i])))


def det_drift(a: np.ndarray, log_det: complex = 0.0) -> float:
    """Distance of det ``a`` from its exact value e^``log_det``:
    max(|r - 1|, |1/r - 1|) with r = det e^-``log_det``.

    The determinant is taken from ``slogdet`` and formed as
    sign * exp(log|det| - Re log_det), as ``np.linalg.det`` forms it, so
    a drift in the double range is the one ``det`` gives, while a finite
    but huge matrix no longer overflows (and warns) inside ``det``. The
    drift is inf when det is 0 or when the drift itself exceeds the
    double range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sign, logabs = np.linalg.slogdet(a)
    logabs = logabs - log_det.real
    if not np.isfinite(logabs) or abs(logabs) >= _LOG_DOUBLE_MAX:
        return float("inf")
    det = complex(sign) * math.exp(logabs)
    if log_det.imag:
        det *= cmath.exp(-1j * log_det.imag)
    return float(max(abs(det - 1.0), abs(1.0 / det - 1.0)))


def smallest_singular_value(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def solve_checked(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """``np.linalg.solve`` with the LinAlgError mapped to a typed error."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{what} is singular") from exc


def stacked_call(fn, fails, make_error, a: np.ndarray, *rest: np.ndarray):
    """``fn(a, *rest)`` for a batched ``numpy.linalg`` call over (G, ...)
    stacks.

    LAPACK failures (a singular matrix, an eigensolve that does not
    converge) raise for the whole stack, so on ``LinAlgError`` the call
    is repeated point by point: the points that raise are recorded in
    ``fails`` as ``make_error(i, exc)`` and evaluated on the identity
    instead, and the stack is called once more.
    """
    try:
        return fn(a, *rest)
    except np.linalg.LinAlgError:
        pass
    errors = {}
    for i in range(len(a)):
        try:
            fn(a[i:i + 1], *(r[i:i + 1] for r in rest))
        except np.linalg.LinAlgError as exc:
            errors[i] = exc
    bad = np.zeros(len(a), dtype=bool)
    bad[list(errors)] = True
    fails.add(bad, lambda i: make_error(i, errors[i]))
    a = a.copy()
    a[bad] = np.eye(a.shape[-1])
    return fn(a, *rest)


def solve_stack(a: np.ndarray, b: np.ndarray, fails, what: str) -> np.ndarray:
    """Batched ``solve``; a singular point fails with the error of
    :func:`solve_checked`."""
    return stacked_call(np.linalg.solve, fails,
                        lambda i, exc: SingularMatrixError(f"{what} is singular"),
                        a, b)


def right_solve_stack(a: np.ndarray, b: np.ndarray, fails,
                      what: str) -> np.ndarray:
    """Batched ``b @ inv(a)`` without forming the inverse, failing points
    as :func:`solve_stack`."""
    return np.swapaxes(solve_stack(np.swapaxes(a, -1, -2),
                                   np.swapaxes(b, -1, -2), fails, what), -1, -2)
