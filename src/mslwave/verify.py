"""Independent oracles and roundoff diagnostics.

The backbone cross-check: rewriting the second-order system in first
order form and exponentiating gives the transfer matrix by a route that
shares nothing with the modal construction. The rest of the module
quantifies the roundoff amplification (unit roundoff, drift sweeps,
error-bound estimates) and emits machine-readable stability reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._linalg import (_LOG_DOUBLE_MAX, UNIT_ROUNDOFF, det_drift, solve_checked,
                      sv_ratio)
from ._table import csv_text
from .errors import MatrixOverflowError, PointFailures
from .media import Layer, LayeredStructure, MslCoefficients, StackedStructure
from .propagators import (BlockMatrix, Variant, gamma_blocks, mode_matrix,
                          t_single_stack)
from .compose import fold_stack
from .qep import ModeBasis, mode_source, solve_qep


@dataclass(frozen=True)
class FirstOrderSystem:
    """2N x 2N first-order form d/dz (F; A) = M (F; A)."""

    m: np.ndarray
    medium: MslCoefficients

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def reconstruct_coefficients(self) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray]:
        """Recover (B, P, Y, W) from the blocks (round-trip check)."""
        n = self.medium.n
        m12 = self.m[:n, n:]
        b = np.linalg.inv(m12)
        p = -b @ self.m[:n, :n]
        y = -self.m[n:, n:] @ b
        w = y @ np.linalg.solve(b, p) - self.m[n:, :n]
        return b, p, y, w


def first_order_matrix(m: MslCoefficients) -> FirstOrderSystem:
    """M = [[-B^{-1}P, B^{-1}], [Y B^{-1} P - W, -Y B^{-1}]]."""
    n = m.n
    binv = solve_checked(m.b, np.eye(n, dtype=complex), "B")
    binv_p = binv @ m.p
    y_binv = m.y @ binv
    blocks = np.block([[-binv_p, binv],
                       [m.y @ binv_p - m.w, -y_binv]])
    return FirstOrderSystem(m=blocks, medium=m)


def expm_propagator(m: MslCoefficients, d: float) -> BlockMatrix:
    """Oracle transfer matrix: expm(M d) of the first-order system.

    Scaling-and-squaring Pade exponential; agrees with the modal
    t_single in the stable regime by an entirely independent route.
    """
    if d < 0:
        raise ValueError("thickness must be >= 0")
    omega_d = solve_qep(m).max_abs_im_k() * d
    if omega_d > _LOG_DOUBLE_MAX:
        raise MatrixOverflowError(
            f"expm growth |Im k| d = {omega_d:.3g} exceeds double range",
            omega_d=omega_d)
    sys_m = first_order_matrix(m)
    data = scipy.linalg.expm(sys_m.m * d)
    return BlockMatrix(variant=Variant.T, data=data)


def rk4_propagator(m: MslCoefficients, d: float, steps: int = 4096) -> BlockMatrix:
    """Secondary cross-check: fixed-step classical RK4 on the first-order
    system, integrating the identity across the layer.

    Slower and less accurate than the exponential; kept behind this
    explicit call as an arms-length second opinion.
    """
    sys_m = first_order_matrix(m).m
    h = d / steps
    y = np.eye(sys_m.shape[0], dtype=complex)
    for _ in range(steps):
        k1 = sys_m @ y
        k2 = sys_m @ (y + 0.5 * h * k1)
        k3 = sys_m @ (y + 0.5 * h * k2)
        k4 = sys_m @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return BlockMatrix(variant=Variant.T, data=y)


@dataclass(frozen=True)
class StabilityReport:
    """Tabular sweep results with the unit roundoff used."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    unit_roundoff: float = UNIT_ROUNDOFF

    def to_csv(self, include_meta: bool = True) -> str:
        meta = f"unit_roundoff,{self.unit_roundoff!r}" if include_meta else None
        return csv_text(meta, self.columns, self.rows)


def _log_det_t(layers) -> complex:
    """phi = sum_i d_i tr M_i over (medium, thickness) pairs: the exact
    T of the layers has det T = e^phi."""
    traces = {}
    for m, _ in layers:
        if m not in traces:
            traces[m] = complex(np.trace(first_order_matrix(m).m))
    return sum(traces[m] * d for m, d in layers)


def t_det_drift(layers, t: np.ndarray,
                bases: dict[MslCoefficients, ModeBasis] | None = None) -> float:
    """Unimodularity drift of a T matrix: max(|r - 1|, |1/r - 1|), with
    r = det T e^-phi the ratio of det T to its exact value e^phi. By
    Liouville's formula phi = sum_i d_i tr M_i, M being the
    :func:`first_order_matrix` of each layer; phi = 0 for the quantum
    media, whose T is unimodular.

    ``t`` is the 2N x 2N T data folded from ``layers``, a list of
    (medium, thickness) pairs; ``bases`` maps media to their mode bases
    (solved when missing). The drift is reported symmetrically because
    at large |Im k| d the decaying channel drops below one ulp of the
    growing one and the determinant collapses toward zero, which is as
    much a unimodularity failure as a huge value.

    For a single formally hermitian layer, T = Q0 diag(exp(i k_j d))
    Q0^{-1} is formed again from the modes and its determinant taken
    with a 64-bit mantissa in mpmath, the same on every platform: the
    determinant of the float64 data would bury the moderate-Omega-d
    drift under its own storage noise (~ u cond T). A singular Q0 or a
    determinant of 0 gives inf. Every other T takes the drift of its
    float64 data from ``slogdet``.
    """
    phi = _log_det_t(layers)
    if len(layers) == 1 and layers[0][0].is_formally_hermitian():
        # imported here: only a reported single-layer drift needs mpmath
        import mpmath
        m, d = layers[0]
        basis = bases[m] if bases and m in bases else solve_qep(m)
        mp = mpmath.MPContext()
        mp.prec = 64
        q0 = mp.matrix(mode_matrix(basis.stack)[0].tolist())
        phases = mp.diag([mp.exp(1j * mp.mpc(k) * float(d)) for k in basis.ks])
        try:
            det = mp.det(q0 * phases * mp.inverse(q0))
        except ZeroDivisionError:
            return float("inf")
        if det == 0:
            return float("inf")
        if phi:
            det *= mp.exp(-mp.mpc(phi))
        return float(max(abs(det - 1), abs(1 / det - 1)))
    return det_drift(t, phi)


def det_unimodularity_scan(m: MslCoefficients, d_grid) -> StabilityReport:
    """Drift of det T(d) from e^(d tr M) over a thickness grid, with
    overflow flagged.

    Overflow points are recorded, not fatal; the drift column is
    :func:`t_det_drift` of each single-layer T. Every T comes from one
    :func:`mslwave.propagators.t_single_stack` call over the grid; a
    negative thickness or any other failure raises, at the first
    thickness where it occurs.
    """
    d_grid = np.asarray(d_grid, dtype=float)
    basis = solve_qep(m)
    fails = PointFailures(len(d_grid))
    ts = t_single_stack(basis.stack, d_grid, fails)
    rows = []
    for i, (d, t) in enumerate(zip(d_grid, ts)):
        if d < 0:
            raise ValueError("thickness must be >= 0")
        omega_d = basis.max_abs_im_k() * d
        err = fails.errors.get(i)
        if err is None:
            rows.append((float(d), float(omega_d),
                         t_det_drift([(m, d)], t, {m: basis}), False))
        elif isinstance(err, MatrixOverflowError):
            rows.append((float(d), float(omega_d), None, True))
        else:
            raise err
    return StabilityReport(columns=("d", "omega_d", "det_drift", "overflow"),
                           rows=tuple(rows))


def default_c_estimate(basis: ModeBasis) -> float:
    """Prefactor proxy for the roundoff bound.

    Largest 2-norm among the mode-matrix / gamma-inverse products that
    form the T partitions at d = 0. A documented estimate of the
    element-wise coefficients, not a certified bound.
    """
    g = gamma_blocks(basis)
    out = 0.0
    for num in (basis.f0_plus, basis.f0_minus, basis.a0_plus, basis.a0_minus):
        for den in (g.g11, g.g12, g.g21, g.g22):
            out = max(out, float(np.linalg.norm(
                np.linalg.solve(den.T, num.T).T, 2)))
    return out


def roundoff_bound(m: MslCoefficients, d,
                   c_estimate: float | None = None,
                   basis: ModeBasis | None = None):
    """Estimated roundoff error c * max_j exp(|Im k_j| d) * u.

    ``u`` is the empirically detected unit roundoff. The default
    prefactor comes from :func:`default_c_estimate`. Monotone
    nondecreasing in d; equals c * u at d = 0. For an array of
    thicknesses ``d`` the bound is the array of their bounds. A negative
    or non-finite thickness raises ``ValueError``.
    """
    d = np.asarray(d, dtype=float)
    if not (np.isfinite(d) & (d >= 0.0)).all():
        raise ValueError("thickness must be finite and >= 0")
    if basis is None:
        basis = solve_qep(m)
    if c_estimate is None:
        c_estimate = default_c_estimate(basis)
    growth = np.exp(np.minimum(basis.max_abs_im_k() * d, 709.0))
    # u first: u * growth cannot overflow where c * growth can, and
    # scaling by the power of two u is exact, so no finite bound changes
    bound = c_estimate * (UNIT_ROUNDOFF * growth)
    return float(bound) if np.ndim(d) == 0 else bound


_REPORT_COLUMNS = (
    "scale", "total_omega_d",
    "t_status", "t_det_drift",
    "h_status", "h_max_block_norm", "h_offdiag_norm", "h_max_step_cond",
    "s_status", "s_max_block_norm", "s_max_step_cond",
    "e_status", "e_conditioning", "e_max_inner_norm",
    "roundoff_bound",
)


def _scaled_thicknesses(s: LayeredStructure, scales: np.ndarray) -> np.ndarray:
    """Layer thicknesses at each scale, (G, L); a scaled thickness that
    is negative or not finite raises as :class:`Layer` does."""
    d = np.array([ly.thickness for ly in s.layers])[None, :] * scales[:, None]
    bad = ~np.isfinite(d) | (d < 0.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        Layer(s.layers[j].medium, float(d[i, j]))
    return d


def _max_over(values, default: float, g: int) -> np.ndarray:
    """Pointwise maximum of a list of (g,) arrays; ``default`` when the
    list is empty (a fold without steps)."""
    return np.max(values, axis=0) if values else np.full(g, default)


def _live_cells(variant: Variant, layers, bases, data, cond, steps,
                ok: np.ndarray) -> list[list]:
    """The value cells of one variant at the points ``ok`` that folded."""
    if not len(ok):
        return []
    if variant is Variant.T:
        return [[t_det_drift([(m, d[i]) for m, d in layers], data[i], bases)]
                for i in ok]
    if variant is Variant.E:
        inner = _max_over([sv[ok, 0] for sv in steps], 0.0, len(ok))
        return [[None if cond is None else float(cond[i]), float(inner[k])]
                for k, i in enumerate(ok)]
    n = data.shape[-1] // 2
    norms = [np.linalg.norm(data[ok, r:r + n, c:c + n], 2, axis=(1, 2))
             for r in (0, n) for c in (0, n)]
    conds = _max_over([sv_ratio(sv[ok]) for sv in steps], 1.0, len(ok))
    cells = []
    for k in range(len(ok)):
        cell = [float(max(nrm[k] for nrm in norms))]
        if variant is Variant.H:
            cell.append(float(norms[1][k] + norms[2][k]))
        cells.append(cell + [float(conds[k])])
    return cells


_CELL_WIDTH = {Variant.T: 1, Variant.H: 3, Variant.S: 2, Variant.E: 2}


def variant_comparison_report(s: LayeredStructure, scales) -> StabilityReport:
    """Fold the structure at each thickness scale in all four variants.

    Failures are recorded as data (status columns), never raised, so a
    sweep can cross from the stable into the overflow regime and back.
    Each variant is folded once, with the scales as the G points of
    :func:`mslwave.compose.fold_stack` (per-point thicknesses); the
    cells are those of per-scale
    :func:`mslwave.compose.structure_propagator` calls, and the T drift
    is :func:`t_det_drift` of each folded T. Per-medium facts (mode bases,
    max |Im k|, the roundoff prefactor) are computed once per medium,
    the mode bases in one :func:`mslwave.qep.mode_source` call.
    """
    media = [ly.medium for ly in s.layers] + [s.left, s.right]
    fails = PointFailures(1)
    modes_of = mode_source(StackedStructure.of(s).media, media, fails)
    bases = {m: ModeBasis(modes_of(m)) for m in media}
    fails.raise_first()
    scales = np.asarray(scales, dtype=float)
    g = len(scales)
    if not g:
        return StabilityReport(columns=_REPORT_COLUMNS, rows=())
    d = _scaled_thicknesses(s, scales)
    im_k = {m: basis.max_abs_im_k() for m, basis in bases.items()}
    total_omega_d, columns = np.zeros(g), {}
    for j, ly in enumerate(s.layers):
        total_omega_d = total_omega_d + im_k[ly.medium] * d[:, j]
        columns.setdefault(ly.medium, []).append(j)
    bounds = [roundoff_bound(m, d[:, js], basis=bases[m]).max(axis=1)
              for m, js in columns.items()]
    rows = [[float(scale), float(omega_d)]
            for scale, omega_d in zip(scales, total_omega_d)]

    # points whose scaled layers vanish alike fold together
    present = d > 0.0
    for pattern in np.unique(present, axis=0):
        points = np.flatnonzero((present == pattern).all(axis=1))
        layers = [(s.layers[j].medium, d[points, j])
                  for j in np.flatnonzero(pattern)]
        for variant in (Variant.T, Variant.H, Variant.S, Variant.E):
            fails = PointFailures(len(points))
            data, cond, steps = fold_stack(
                layers, variant, lambda m: bases[m].stack, fails, s.n,
                trace=variant is not Variant.T, ends=(s.left, s.right))
            ok = np.flatnonzero(~fails.failed)
            live = dict(zip(ok, _live_cells(variant, layers, bases, data,
                                            cond, steps, ok)))
            for k, i in enumerate(points):
                rows[i] += (["ok", *live[k]] if k in live else
                            [type(fails.errors[k]).__name__]
                            + [None] * _CELL_WIDTH[variant])
    for row, b in zip(rows, _max_over(bounds, 0.0, g)):
        row.append(float(b))
    return StabilityReport(columns=_REPORT_COLUMNS,
                           rows=tuple(tuple(row) for row in rows))
