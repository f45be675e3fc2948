"""Independent oracles for the benchmark's output checks.

None of these share code with the modal (QEP) construction that the
library's solvers use:

* escape and SH-piezo roots: the layer exponentials expm(M d) of the
  first-order system applied to the decaying eigenvectors of the left
  half-space M and closed by those of the right one, scanned on a grid
  ten times finer than the library's and refined with ``brentq``;
* Kronig-Penney bands: the textbook two-medium dispersion relation;
* stability sweeps: the expected status and bound pattern.

First-order matrices are built here from the structure-file material
parameters, stacked over the scan parameter, so one oracle scan is a
handful of batched LAPACK calls.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.optimize

ROOT_RTOL = 1e-8
FINE = 10


def quantum_m(mass: float, potential: float, hbar2_over_2: float = 1.0):
    """M(E) = [[0, m / (hbar^2/2)], [V - E, 0]] of d/dz (psi; b psi')."""
    def m_of(energy: np.ndarray) -> np.ndarray:
        out = np.zeros((len(energy), 2, 2))
        out[:, 0, 1] = mass / hbar2_over_2
        out[:, 1, 0] = potential - energy
        return out
    return m_of


def sh_piezo_m(mat: dict, omega: float):
    """M(v) = [[0, B^-1], [-W, 0]] of the SH-piezo layer at trace speed v,
    with B = [[c44, e15], [e15, -eps11]] and W at kappa_x = omega / v."""
    b_inv = np.linalg.inv(np.array([[mat["c44"], mat["e15"]],
                                    [mat["e15"], -mat["eps11"]]]))

    def m_of(speed: np.ndarray) -> np.ndarray:
        kx2 = (omega / speed) ** 2
        out = np.zeros((len(speed), 4, 4))
        out[:, :2, 2:] = b_inv
        out[:, 2, 0] = -(mat["rho"] * omega ** 2 - mat["c44"] * kx2)
        out[:, 2, 1] = mat["e15"] * kx2
        out[:, 3, 0] = mat["e15"] * kx2
        out[:, 3, 1] = -mat["eps11"] * kx2
        return out
    return m_of


def layer_expm(m_of, thickness: float, x: np.ndarray) -> np.ndarray:
    return scipy.linalg.expm(m_of(x) * thickness)


def _decaying(m: np.ndarray, sign: float) -> np.ndarray:
    """Decaying half-space solutions as [I; Y] (G x 2N x N).

    ``sign`` +1 keeps the N modes with Re(mu) > 0 (decay towards -inf,
    the left half-space), -1 those with Re(mu) < 0 (the right one).
    """
    n = m.shape[-1] // 2
    mu, vec = np.linalg.eig(m)
    order = np.argsort(-sign * mu.real, axis=-1)[:, :n]
    v = np.take_along_axis(vec, order[:, None, :], axis=2)
    return v @ np.linalg.inv(v[:, :n, :])


def escape_det(left, layer_ms, right, x: np.ndarray) -> np.ndarray:
    """det [T V_L, V_R] up to a positive factor: zero exactly when a
    state decays on both sides.

    T V_L is carried through the layers one exponential at a time and
    re-orthonormalized after each (Q R), so the growing mode cannot
    swamp the others; the dropped factor is |det R| of every step.
    """
    sign = np.ones(len(x))
    basis = _decaying(left(x), 1.0)
    for m_of, d in layer_ms:
        basis, r = np.linalg.qr(layer_expm(m_of, d, x) @ basis)
        sign *= np.sign(np.linalg.det(r).real)
    v_r = _decaying(right(x), -1.0)
    return sign * np.linalg.det(np.concatenate([basis, v_r], axis=2)).real


def _sign_change_roots(func, grid: np.ndarray, values: np.ndarray) -> list:
    roots = []
    for i in range(len(grid) - 1):
        a, b = float(grid[i]), float(grid[i + 1])
        if values[i] == 0.0:
            roots.append(a)
        elif values[i] * values[i + 1] < 0.0:
            roots.append(scipy.optimize.brentq(
                func, a, b, xtol=1e-14 * max(1.0, abs(b)), rtol=1e-14))
    return roots


def _balanced(left, layer_ms, right, x_mid: float):
    """The same problem in variables D^-1 (F; A), with the diagonal D
    that balances the left half-space M at ``x_mid``. Fields and linear
    forms differ by up to 1e17 in SI units (SH piezo); unbalanced, the
    orthonormalization would lose the smaller ones to roundoff."""
    _, (d, _) = scipy.linalg.matrix_balance(left(np.array([x_mid]))[0],
                                            permute=False, separate=True)
    ratio = d[None, :] / d[:, None]

    def bal(m_of):
        return lambda x: m_of(x) * ratio
    return bal(left), [(bal(m_of), t) for m_of, t in layer_ms], bal(right)


def escape_roots(left, layer_ms, right, grid: np.ndarray) -> list:
    left, layer_ms, right = _balanced(left, layer_ms, right,
                                      float(grid[len(grid) // 2]))
    fine = np.linspace(grid[0], grid[-1], FINE * (len(grid) - 1) + 1)
    values = escape_det(left, layer_ms, right, fine)
    return _sign_change_roots(
        lambda x: float(escape_det(left, layer_ms, right, np.array([x]))[0]),
        fine, values)


def kronig_penney_residual(a, b, v0, m_b, q, energy):
    """cos(kA a) cos(kB b) - (r + 1/r)/2 sin(kA a) sin(kB b) - cos(q d),
    r = (kA / mA) / (kB / mB), for well mass 1 and potential 0."""
    k_a = np.sqrt(energy + 0j)
    k_b = np.sqrt((energy - v0) * m_b + 0j)
    r = k_a * m_b / k_b
    val = (np.cos(k_a * a) * np.cos(k_b * b)
           - 0.5 * (r + 1.0 / r) * np.sin(k_a * a) * np.sin(k_b * b))
    return (val - math.cos(q * (a + b))).real


def kronig_penney_roots(a, b, v0, m_b, q, e_range, count) -> list:
    fine = np.linspace(e_range[0], e_range[1], FINE * (count - 1) + 1)
    values = kronig_penney_residual(a, b, v0, m_b, q, fine)
    return _sign_change_roots(
        lambda e: float(kronig_penney_residual(a, b, v0, m_b, q, e)),
        fine, values)


def match_roots(oracle_roots, scan_roots):
    """Pair roots within ROOT_RTOL; return (missed, spurious, rel. errors)."""
    left = sorted(scan_roots)
    missed, errs = [], []
    for r in sorted(oracle_roots):
        best = min(range(len(left)), key=lambda i: abs(left[i] - r),
                   default=None)
        if best is not None and abs(left[best] - r) <= ROOT_RTOL * abs(r):
            errs.append(abs(left.pop(best) - r) / abs(r))
        else:
            missed.append(r)
    return missed, left, errs


def stability_pattern(report, targets, q):
    """H and S fold on every row; T fails exactly on the rows whose
    growth leaves the double range; the roundoff bound is finite,
    positive and nondecreasing in the scale."""
    cols = report.columns
    status_cols = [cols.index(c) for c in
                   ("t_status", "h_status", "s_status", "e_status")]
    t_col, h_col, s_col = status_cols[:3]
    bound_col = cols.index("roundoff_bound")
    if len(report.rows) != len(targets):
        q.fail(f"{len(report.rows)} rows for {len(targets)} scales")
        return q
    last_bound = 0.0
    for row, target in zip(report.rows, targets):
        for c in status_cols:
            q.attempted += 1
            q.failed += row[c] != "ok"
        for c in (h_col, s_col):
            if row[c] != "ok":
                q.fail(f"{cols[c]} {row[c]} at scale {row[0]!r}")
        want_t = "ok" if target < 1.0 else "MatrixOverflowError"
        if row[t_col] != want_t:
            q.fail(f"t_status {row[t_col]} at growth {target:.3f} x double range")
        bound = row[bound_col]
        if not (math.isfinite(bound) and bound > 0.0 and bound >= last_bound):
            q.fail(f"roundoff bound {bound!r} after {last_bound!r}")
        last_bound = bound
    return q
