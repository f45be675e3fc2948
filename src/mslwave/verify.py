"""Independent oracles and roundoff diagnostics.

The backbone cross-check: rewriting the second-order system in first
order form and exponentiating gives the transfer matrix by a route that
shares nothing with the modal construction. The rest of the module
quantifies the roundoff amplification (unit roundoff, drift sweeps,
error-bound estimates) and emits machine-readable stability reports.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._linalg import UNIT_ROUNDOFF, det_drift, solve_checked
from .errors import MatrixOverflowError, MslError
from .media import LayeredStructure, MslCoefficients
from .propagators import (BlockMatrix, Variant, gamma_blocks, t_single)
from .compose import structure_propagator
from .qep import ModeBasis, solve_qep


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


def expm_propagator(m: MslCoefficients, d: float,
                    basis: ModeBasis | None = None) -> BlockMatrix:
    """Oracle transfer matrix: expm(M d) of the first-order system.

    Scaling-and-squaring Pade exponential; agrees with the modal
    t_single in the stable regime by an entirely independent route.
    """
    if d < 0:
        raise ValueError("thickness must be >= 0")
    if basis is None:
        basis = solve_qep(m)
    omega_d = basis.max_abs_im_k() * d
    if omega_d > np.log(np.finfo(float).max):
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
        buf = io.StringIO()
        if include_meta:
            buf.write(f"# unit_roundoff,{self.unit_roundoff!r}\r\n")
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float)
                             else v for v in row])
        return buf.getvalue()


def det_unimodularity_scan(m: MslCoefficients, d_grid) -> StabilityReport:
    """|det T(d) - 1| over a thickness grid, with overflow flagged.

    Overflow points are recorded, not fatal; the drift column carries
    the extended-precision symmetric diagnostic attached by t_single.
    """
    basis = solve_qep(m)
    rows = []
    for d in np.asarray(d_grid, dtype=float):
        omega_d = basis.max_abs_im_k() * d
        try:
            t = t_single(m, float(d), basis)
            rows.append((float(d), float(omega_d), t.det_drift, False))
        except MatrixOverflowError:
            rows.append((float(d), float(omega_d), None, True))
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


def roundoff_bound(m: MslCoefficients, d: float,
                   c_estimate: float | None = None,
                   basis: ModeBasis | None = None) -> float:
    """Estimated roundoff error c * max_j exp(|Im k_j| d) * u.

    ``u`` is the empirically detected unit roundoff. The default
    prefactor comes from :func:`default_c_estimate`. Monotone
    nondecreasing in d; equals c * u at d = 0.
    """
    if basis is None:
        basis = solve_qep(m)
    if c_estimate is None:
        c_estimate = default_c_estimate(basis)
    growth = float(np.exp(min(basis.max_abs_im_k() * d, 709.0)))
    return c_estimate * growth * UNIT_ROUNDOFF


_REPORT_COLUMNS = (
    "scale", "total_omega_d",
    "t_status", "t_det_drift",
    "h_status", "h_max_block_norm", "h_offdiag_norm", "h_max_step_cond",
    "s_status", "s_max_block_norm", "s_max_step_cond",
    "e_status", "e_conditioning", "e_max_inner_norm",
    "roundoff_bound",
)


def _scaled(s: LayeredStructure, scale: float) -> LayeredStructure:
    from .media import Layer
    return LayeredStructure(
        left=s.left,
        layers=tuple(Layer(ly.medium, ly.thickness * scale) for ly in s.layers),
        right=s.right)


def variant_comparison_report(s: LayeredStructure, scales) -> StabilityReport:
    """Fold the structure at each thickness scale in all four variants.

    Failures are recorded as data (status columns), never raised, so a
    sweep can cross from the stable into the overflow regime and back.
    """
    bases = {}

    def basis_of(m):
        if m not in bases:
            bases[m] = solve_qep(m)
        return bases[m]

    for ly in s.layers:
        basis_of(ly.medium)
    basis_of(s.left)
    basis_of(s.right)

    rows = []
    for scale in np.asarray(scales, dtype=float):
        scaled = _scaled(s, float(scale))
        total_omega_d = sum(basis_of(ly.medium).max_abs_im_k() * ly.thickness
                            for ly in scaled.layers)
        row: list = [float(scale), float(total_omega_d)]

        try:
            t_total, _ = structure_propagator(scaled, Variant.T, bases)
            drift = t_total.det_drift
            if drift is None:
                drift = det_drift(t_total.data)
            row += ["ok", drift]
        except MslError as exc:
            row += [type(exc).__name__, None]

        try:
            h_total, h_trace = structure_propagator(scaled, Variant.H, bases)
            block_norms = [np.linalg.norm(h_total.block(i, j), 2)
                           for i in (1, 2) for j in (1, 2)]
            offdiag = float(np.linalg.norm(h_total.b12, 2)
                            + np.linalg.norm(h_total.b21, 2))
            row += ["ok", float(max(block_norms)), offdiag,
                    float(h_trace.max_conditioning())]
        except MslError as exc:
            row += [type(exc).__name__, None, None, None]

        try:
            s_total, s_trace = structure_propagator(scaled, Variant.S, bases)
            block_norms = [np.linalg.norm(s_total.block(i, j), 2)
                           for i in (1, 2) for j in (1, 2)]
            row += ["ok", float(max(block_norms)),
                    float(s_trace.max_conditioning())]
        except MslError as exc:
            row += [type(exc).__name__, None, None]

        try:
            e_total, e_trace = structure_propagator(scaled, Variant.E, bases)
            row += ["ok", e_total.conditioning,
                    float(e_trace.max_factor_norm())]
        except MslError as exc:
            row += [type(exc).__name__, None, None]

        bound = max((roundoff_bound(ly.medium, ly.thickness,
                                    basis=basis_of(ly.medium))
                     for ly in scaled.layers), default=0.0)
        row.append(float(bound))
        rows.append(tuple(row))

    return StabilityReport(columns=_REPORT_COLUMNS, rows=tuple(rows))
