"""Small dense linear-algebra helpers shared across modules.

Includes a pivoted-elimination determinant/solve that also works for
extended-precision complex dtypes (``np.complex256`` where the platform
provides it), which LAPACK does not cover.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularMatrixError

# Extended-precision complex dtype for the determinant-drift diagnostic.
# x86-64 Linux exposes complex256 (80-bit extended); elsewhere fall back
# to complex128 and accept a coarser diagnostic floor.
EXTENDED_COMPLEX = getattr(np, "complex256", np.complex128)
HAS_EXTENDED = EXTENDED_COMPLEX is not np.complex128


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


def right_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return ``b @ inv(a)`` without forming the inverse."""
    return np.linalg.solve(a.T, b.T).T


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
    row or column gives inf."""
    row_max = np.max(np.abs(a), axis=-1, keepdims=True)
    ok = (row_max != 0.0).all(axis=(-2, -1))
    row_max[row_max == 0.0] = 1.0
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


def det_drift(a: np.ndarray) -> float:
    """Distance of det ``a`` from 1: max(|det - 1|, |1/det - 1|).

    The determinant is taken from ``slogdet`` and formed as
    sign * exp(log|det|), as ``np.linalg.det`` forms it, so a drift in
    the double range is the one ``det`` gives, while a finite but huge
    matrix no longer overflows (and warns) inside ``det``. The drift is
    inf when det is 0 or when the drift itself exceeds the double range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sign, logabs = np.linalg.slogdet(a)
    if not np.isfinite(logabs) or abs(logabs) >= _LOG_DOUBLE_MAX:
        return float("inf")
    det = complex(sign) * math.exp(logabs)
    return float(max(abs(det - 1.0), abs(1.0 / det - 1.0)))


def smallest_singular_value(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def det_pivoted(a: np.ndarray) -> complex:
    """Determinant by Gaussian elimination with partial pivoting.

    Works for any complex dtype, including extended precision.
    """
    a = np.array(a, copy=True)
    n = a.shape[0]
    det = a.dtype.type(1.0)
    for j in range(n):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        if a[p, j] == 0:
            return complex(0.0)
        if p != j:
            a[[j, p]] = a[[p, j]]
            det = -det
        det = det * a[j, j]
        factors = a[j + 1:, j] / a[j, j]
        a[j + 1:, j:] -= np.outer(factors, a[j, j:])
    return complex(det)


def inv_pivoted(a: np.ndarray) -> np.ndarray:
    """Inverse by Gauss-Jordan elimination with partial pivoting.

    Dtype-generic companion of :func:`det_pivoted`.
    """
    a = np.asarray(a)
    n = a.shape[0]
    aug = np.hstack([a.astype(a.dtype, copy=True), np.eye(n, dtype=a.dtype)])
    for j in range(n):
        p = j + int(np.argmax(np.abs(aug[j:, j])))
        if aug[p, j] == 0:
            raise SingularMatrixError("matrix is singular to working precision")
        if p != j:
            aug[[j, p]] = aug[[p, j]]
        aug[j] = aug[j] / aug[j, j]
        for i in range(n):
            if i != j:
                aug[i] = aug[i] - aug[i, j] * aug[j]
    return aug[:, n:]


def solve_checked(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """``np.linalg.solve`` with the LinAlgError mapped to a typed error."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{what} is singular") from exc


def right_solve_checked(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    try:
        return right_solve(a, b)
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
    """Batched ``b @ inv(a)``, failing points as :func:`right_solve_checked`."""
    return np.swapaxes(solve_stack(np.swapaxes(a, -1, -2),
                                   np.swapaxes(b, -1, -2), fails, what), -1, -2)
