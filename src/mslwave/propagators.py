"""Per-layer propagator matrices and conversions between variants.

For one homogeneous layer of thickness d the associated transfer matrix
T(d) maps (F, A) across the layer; H, E, K and S rearrange the same
linear relation so that no growing exponential is ever formed:

    T: (F(z0), A(z0)) -> (F(z),  A(z))      unstable for large |Im k| d
    H: (A(z0), F(z))  -> (F(z0), A(z))      stable for every thickness
    E: (F(z0), F(z))  -> (A(z0), A(z))      stable for large d only
    K: mode coefficients L -> R              basis-dependent
    S: incoming -> outgoing coefficients     stable for every thickness

The stable single-layer constructions reference each plus mode at the
left edge and each minus mode at the right edge, which keeps every
exponential entering the defining matrices at magnitude <= 1. That
referencing choice is the load-bearing trick; the matrices themselves
are independent of per-mode rescalings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._linalg import (cond_estimate, right_solve_checked, right_solve_stack,
                      scaled_cond, scaled_cond_stack, solve_checked,
                      solve_stack, stacked_call)
from .errors import (DegenerateModeError, IllConditionedError,
                     MatrixOverflowError, PointFailures, SingularMatrixError,
                     VariantError)
from .media import MslCoefficients
from .qep import ModeBasis, ModeStack, solve_qep

# exp(x) overflows double just above 709.78
_EXP_OVERFLOW = float(np.log(np.finfo(float).max))
CONDITION_LIMIT = 1e12


class Variant(str, enum.Enum):
    Q = "Q"
    T = "T"
    H = "H"
    E = "E"
    K = "K"
    S = "S"
    C = "C"  # compliance, E^{-1}
    X = "X"  # Appendix-style permutation family; X is H^{-1}
    Y = "Y"
    Z = "Z"
    R = "R"

    def __str__(self) -> str:  # cleaner error messages
        return self.value


@dataclass(frozen=True)
class BlockMatrix:
    """A 2N x 2N complex matrix tagged with its variant.

    Blocks are addressed as (1, 1) ... (2, 2), each N x N. Entries must
    be finite; anything else raises instead of propagating Inf/NaN.
    ``conditioning`` is a diagnostic attached by the constructors; the
    unimodularity drift of a T is computed on request by
    :func:`mslwave.verify.t_det_drift`.
    """

    variant: Variant
    data: np.ndarray
    conditioning: float | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] % 2:
            raise VariantError(f"block matrix must be 2N x 2N, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise MatrixOverflowError(
                f"{self.variant} matrix contains non-finite entries")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "variant", Variant(self.variant))

    @property
    def n(self) -> int:
        return self.data.shape[0] // 2

    def block(self, i: int, j: int) -> np.ndarray:
        if i not in (1, 2) or j not in (1, 2):
            raise IndexError("block indices are (1|2, 1|2)")
        n = self.n
        return self.data[(i - 1) * n:i * n, (j - 1) * n:j * n]

    @property
    def b11(self) -> np.ndarray:
        return self.block(1, 1)

    @property
    def b12(self) -> np.ndarray:
        return self.block(1, 2)

    @property
    def b21(self) -> np.ndarray:
        return self.block(2, 1)

    @property
    def b22(self) -> np.ndarray:
        return self.block(2, 2)


def from_blocks(variant: Variant, b11, b12, b21, b22,
                conditioning: float | None = None) -> BlockMatrix:
    n = np.shape(b11)[0]
    data = np.empty((2 * n, 2 * n), dtype=complex)
    data[:n, :n], data[:n, n:] = b11, b12
    data[n:, :n], data[n:, n:] = b21, b22
    return BlockMatrix(variant=variant, data=data, conditioning=conditioning)


def _assemble(variant: Variant, b11, b12, b21, b22,
              fails: PointFailures) -> np.ndarray:
    """(G, 2N, 2N) data from four (G, N, N) blocks; a point with a
    non-finite entry is recorded in ``fails``."""
    n = b11.shape[-1]
    data = np.empty(b11.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    data[:, :n, :n], data[:, :n, n:] = b11, b12
    data[:, n:, :n], data[:, n:, n:] = b21, b22
    fails.add(~np.isfinite(data).all(axis=(1, 2)), lambda i:
              MatrixOverflowError(f"{variant} matrix contains non-finite entries"))
    fails.patch(data)
    return data


def antidiagonal_identity(n: int) -> BlockMatrix:
    """H(0) = S-identity = [[0, I], [I, 0]] in block form (H-tagged)."""
    z = np.zeros((n, n))
    i = np.eye(n)
    return from_blocks(Variant.H, z, i, i, z)


def _basis_for(m: MslCoefficients, basis: ModeBasis | None) -> ModeBasis:
    return basis if basis is not None else solve_qep(m)


def _check_overflow(basis: ModeBasis, d: float):
    omega_d = basis.max_abs_im_k() * d
    if omega_d > _EXP_OVERFLOW:
        raise MatrixOverflowError(
            f"exp(|Im k| d) with |Im k| d = {omega_d:.3g} exceeds the "
            "representable range", omega_d=omega_d)


def _q_condition_error(cond: float) -> IllConditionedError:
    """The error of a solution basis Q whose scaled condition ``cond``
    exceeds CONDITION_LIMIT."""
    return IllConditionedError(
        f"Q(z) basis condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e}",
        estimate=cond)


def q_matrix(basis: ModeBasis, z: float = 0.0,
             references=None) -> BlockMatrix:
    """Solution-basis matrix Q(z): column j is (F_j(z); A_j(z)).

    ``references`` gives each mode's reference point r_j, so
    F_j(z) = f0_j exp(i k_j (z - r_j)). The default (None) is the
    reduced base, r_j = z for every mode, in which the columns are just
    (f0_j; a0_j).
    """
    n = basis.n
    ks = basis.ks
    if references is None:
        refs = np.full(2 * n, z, dtype=float)
    else:
        refs = np.broadcast_to(np.asarray(references, dtype=float), (2 * n,))
    phases = np.exp(1j * ks * (z - refs))
    if not np.all(np.isfinite(phases)):
        raise MatrixOverflowError(
            "mode exponential overflowed in Q(z)",
            omega_d=float(np.max(np.abs(ks.imag) * np.abs(z - refs))))
    data = mode_matrix(basis.stack)[0] * phases[None, :]
    cond = scaled_cond(data)
    if cond > CONDITION_LIMIT:
        raise _q_condition_error(cond)
    return BlockMatrix(variant=Variant.Q, data=data, conditioning=cond)


def mode_matrix(modes: ModeStack) -> np.ndarray:
    """Q0 of every point: the reduced mode columns (f0_j; a0_j), (G, 2N, 2N)."""
    return np.concatenate([modes.f0, modes.a0], axis=1)


def _per_point(d):
    """A thickness, or a (G,) array of them as a (G, 1) column that
    broadcasts against (G, 2N) wavenumbers."""
    return d[:, None] if getattr(d, "ndim", 0) else d


def t_single_stack(modes: ModeStack, d, fails: PointFailures,
                   layer_index: int | None = None) -> np.ndarray:
    """Stacked :func:`t_single`: the (G, 2N, 2N) data of
    Q0 diag(exp(i k_j d)) Q0^{-1} at every point.

    ``d`` is one thickness or a (G,) array of per-point thicknesses, and
    ``modes`` has G points or one point shared by all. A point fails with
    :class:`MatrixOverflowError`, carrying omega_d = max_j |Im k_j| d,
    when exp(omega_d) leaves the double range or when
    Q0 diag(exp(i k d)) or the result is not finite, and with
    :class:`DegenerateModeError` when Q0 is singular. With a
    ``layer_index`` the overflow errors name that layer of a fold.
    """
    prefix = "" if layer_index is None else f"T overflow at layer {layer_index}: "
    omega_d = np.broadcast_to(np.max(np.abs(modes.ks.imag), axis=1) * d,
                              fails.failed.shape)

    def overflow(message: str):
        return lambda i: MatrixOverflowError(
            prefix + message.format(float(omega_d[i])),
            omega_d=float(omega_d[i]), layer_index=layer_index)

    fails.add(omega_d > _EXP_OVERFLOW, overflow(
        "exp(|Im k| d) with |Im k| d = {:.3g} exceeds the representable range"))
    q0 = np.broadcast_to(mode_matrix(modes), fails.failed.shape
                         + (2 * modes.n, 2 * modes.n))
    # exp(|Im k| d) just inside the double range still overflows once it
    # multiplies a mode entry larger than 1
    with np.errstate(over="ignore", invalid="ignore"):
        num = q0 * np.exp(1j * modes.ks * _per_point(d))[:, None, :]
    non_finite = overflow("T matrix contains non-finite entries")
    fails.add(~np.isfinite(num).all(axis=(1, 2)), non_finite)
    fails.patch(num)
    data = np.swapaxes(stacked_call(
        np.linalg.solve, fails, lambda i, exc: DegenerateModeError(
            "mode matrix is singular (defective basis): "
            "mode matrix Q0 is singular"),
        np.swapaxes(q0, -1, -2), np.swapaxes(num, -1, -2)), -1, -2)
    fails.add(~np.isfinite(data).all(axis=(1, 2)), non_finite)
    fails.patch(data)
    return data


def t_single(m: MslCoefficients, d: float,
             basis: ModeBasis | None = None) -> BlockMatrix:
    """Associated transfer matrix of one homogeneous layer.

    T(d) = Q0 diag(exp(i k_j d)) Q0^{-1} over the mode basis; the G = 1
    case of :func:`t_single_stack`, whose failures it raises. Its
    unimodularity drift, whose breakdown is exactly the phenomenon the
    stable variants exist to avoid, is not attached: it is reported by
    :func:`mslwave.verify.t_det_drift`.
    """
    if d < 0:
        raise ValueError("thickness must be >= 0")
    basis = _basis_for(m, basis)
    fails = PointFailures(1)
    data = t_single_stack(basis.stack, d, fails)
    fails.raise_first()
    return BlockMatrix(variant=Variant.T, data=data[0],
                       conditioning=cond_estimate(mode_matrix(basis.stack)[0]))


@dataclass(frozen=True)
class GammaBlocks:
    """Schur-type combinations of the partitioned mode matrices."""

    g11: np.ndarray
    g12: np.ndarray
    g21: np.ndarray
    g22: np.ndarray


def gamma_blocks(basis: ModeBasis) -> GammaBlocks:
    """gamma_11 = F+ - F- A-^{-1} A+ and its three siblings."""
    f_p, f_m = basis.f0_plus, basis.f0_minus
    a_p, a_m = basis.a0_plus, basis.a0_minus
    try:
        g11 = f_p - f_m @ solve_checked(a_m, a_p, "A0 minus block")
        g12 = f_m - f_p @ solve_checked(a_p, a_m, "A0 plus block")
        g21 = a_p - a_m @ solve_checked(f_m, f_p, "F0 minus block")
        g22 = a_m - a_p @ solve_checked(f_p, f_m, "F0 plus block")
    except SingularMatrixError as exc:
        raise DegenerateModeError(f"gamma blocks undefined: {exc}") from exc
    return GammaBlocks(g11=g11, g12=g12, g21=g21, g22=g22)


def t_partitions(basis: ModeBasis, d: float) -> tuple[
        tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], GammaBlocks]:
    """The four N x N partitions of T(d) through the gamma blocks.

    T11 = F+ Pi+(d) g11^{-1} + F- Pi-(d) g12^{-1}, and so on with A in
    the second row and (g21, g22) in the second column.
    """
    _check_overflow(basis, d)
    g = gamma_blocks(basis)
    n = basis.n
    pi_p = np.exp(1j * basis.ks[:n] * d)
    pi_m = np.exp(1j * basis.ks[n:] * d)
    try:
        gi11 = np.linalg.inv(g.g11)
        gi12 = np.linalg.inv(g.g12)
        gi21 = np.linalg.inv(g.g21)
        gi22 = np.linalg.inv(g.g22)
    except np.linalg.LinAlgError as exc:
        raise DegenerateModeError(f"singular gamma block: {exc}") from exc
    fp_pi = basis.f0_plus * pi_p[None, :]
    fm_pi = basis.f0_minus * pi_m[None, :]
    ap_pi = basis.a0_plus * pi_p[None, :]
    am_pi = basis.a0_minus * pi_m[None, :]
    t11 = fp_pi @ gi11 + fm_pi @ gi12
    t12 = fp_pi @ gi21 + fm_pi @ gi22
    t21 = ap_pi @ gi11 + am_pi @ gi12
    t22 = ap_pi @ gi21 + am_pi @ gi22
    return (t11, t12, t21, t22), g


def h_from_t(t: BlockMatrix) -> BlockMatrix:
    """H = [[-T11^{-1} T12, T11^{-1}], [T22 - T21 T11^{-1} T12, T21 T11^{-1}]]."""
    if t.variant is not Variant.T:
        raise VariantError(f"h_from_t needs a T matrix, got {t.variant}")
    t11, t12, t21, t22 = t.b11, t.b12, t.b21, t.b22
    t11_inv_t12 = solve_checked(t11, t12, "T11")
    h11 = -t11_inv_t12
    h12 = solve_checked(t11, np.eye(t.n, dtype=complex), "T11")
    h21 = t22 - t21 @ t11_inv_t12
    h22 = right_solve_checked(t11, t21, "T11")
    return from_blocks(Variant.H, h11, h12, h21, h22,
                       conditioning=cond_estimate(t11))


def e_from_t(t: BlockMatrix) -> BlockMatrix:
    """E = [[-T12^{-1} T11, T12^{-1}], [T21 - T22 T12^{-1} T11, T22 T12^{-1}]].

    T12 vanishes at d = 0, where E is not numerically computable.
    """
    if t.variant is not Variant.T:
        raise VariantError(f"e_from_t needs a T matrix, got {t.variant}")
    t11, t12, t21, t22 = t.b11, t.b12, t.b21, t.b22
    t12_inv_t11 = solve_checked(t12, t11, "T12")
    e11 = -t12_inv_t11
    e12 = solve_checked(t12, np.eye(t.n, dtype=complex), "T12")
    e21 = t21 - t22 @ t12_inv_t11
    e22 = right_solve_checked(t12, t22, "T12")
    return from_blocks(Variant.E, e11, e12, e21, e22,
                       conditioning=cond_estimate(t12))


def _reference_phases(modes: ModeStack, d: float):
    """Column factors (G, 1, 2N) taking the referenced modes to z0 and z."""
    n = modes.n
    # exp(i k d) for the plus modes and exp(-i k d) for the minus modes:
    # |.| <= 1 for Im k >= 0 and Im k <= 0 respectively
    e = np.exp(1j * np.concatenate([modes.ks[:, :n], -modes.ks[:, n:]],
                                   axis=1) * _per_point(d))[:, None, :]
    at_z0, at_z = e.copy(), e
    at_z0[..., :n] = 1.0
    at_z[..., n:] = 1.0
    return at_z0, at_z


def single_stack(variant: Variant, modes: ModeStack, d, fails: PointFailures,
                 layer_index: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked :func:`h_single_stable` or :func:`e_single_stable`: the
    (G, 2N, 2N) data and the conditioning of every point.

    ``d`` is one thickness or a (G,) array of per-point thicknesses, and
    ``modes`` has G points or one point shared by all.

    H = U^{FA} [U^{AF}]^{-1} and E = U^{AA} [U^{FF}]^{-1}; a point whose
    scaled condition of the inverted factor exceeds CONDITION_LIMIT, or
    whose result is not finite, is recorded in ``fails``. With a
    ``layer_index`` those errors name that layer of a fold.
    """
    n = modes.n
    at_z0, at_z = _reference_phases(modes, d)
    # numerator and denominator rows: (F(z0); A(z)) over (A(z0); F(z))
    # for H, (A(z0); A(z)) over (F(z0); F(z)) for E
    num = np.empty(fails.failed.shape + (2 * n, 2 * n), dtype=complex)
    den = np.empty_like(num)
    if variant is Variant.H:
        num[:, :n], num[:, n:] = modes.f0 * at_z0, modes.a0 * at_z
        den[:, :n], den[:, n:] = modes.a0 * at_z0, modes.f0 * at_z
        name, why = "U^AF", "hybrid matrix pole"
    else:
        num[:, :n], num[:, n:] = modes.a0 * at_z0, modes.a0 * at_z
        den[:, :n], den[:, n:] = modes.f0 * at_z0, modes.f0 * at_z
        name, why = "U^FF", "stiffness matrix is not computable at small thickness"
    cond = scaled_cond_stack(den)
    fails.add(cond > CONDITION_LIMIT, lambda i: IllConditionedError(
        f"{name} condition {cond[i]:.3e} exceeds {CONDITION_LIMIT:.0e} "
        f"({why})", estimate=float(cond[i]), layer_index=layer_index))
    data = right_solve_stack(den, num, fails, name)
    fails.add(~np.isfinite(data).all(axis=(1, 2)), lambda i:
              MatrixOverflowError(f"{variant} matrix contains non-finite entries",
                                  layer_index=layer_index))
    fails.patch(data)
    return data, cond


def _single(variant: Variant, m: MslCoefficients, d: float,
            basis: ModeBasis | None) -> BlockMatrix:
    if d < 0:
        raise ValueError("thickness must be >= 0")
    fails = PointFailures(1)
    data, cond = single_stack(variant, _basis_for(m, basis).stack, d, fails)
    fails.raise_first()
    return BlockMatrix(variant=variant, data=data[0],
                       conditioning=float(cond[0]))


def h_single_stable(m: MslCoefficients, d: float,
                    basis: ModeBasis | None = None) -> BlockMatrix:
    """Single-layer hybrid matrix built without growing exponentials.

    H = U^{FA} [U^{AF}]^{-1} with U^{FA} stacking (F_j(z0); A_j(z)) and
    U^{AF} stacking (A_j(z0); F_j(z)) over the referenced mode columns.
    Column rescalings cancel in the product, so the result is base
    independent, and all entries stay finite for arbitrarily large d.
    """
    return _single(Variant.H, m, d, basis)


def e_single_stable(m: MslCoefficients, d: float,
                    basis: ModeBasis | None = None) -> BlockMatrix:
    """Single-layer stiffness matrix from referenced mode columns.

    E = U^{AA} [U^{FF}]^{-1}; stable for large d (the blocks tend to the
    one-sided limits A+ F+^{-1} and A- F-^{-1}), but the U^{FF} columns
    collide as d -> 0, where construction is refused with a conditioning
    error: this small-thickness breakdown is intrinsic to E.
    """
    return _single(Variant.E, m, d, basis)


def k_matrix(q_right: BlockMatrix, t: BlockMatrix,
             q_left: BlockMatrix) -> BlockMatrix:
    """Coefficients transfer matrix K = Q_R^{-1} T Q_L."""
    if q_right.variant is not Variant.Q or q_left.variant is not Variant.Q:
        raise VariantError("k_matrix needs Q-variant half-space bases")
    data = solve_checked(q_right.data, t.data @ q_left.data, "Q(R)")
    return BlockMatrix(variant=Variant.K, data=data,
                       conditioning=cond_estimate(q_right.data))


def s_from_k_stack(k: np.ndarray, fails: PointFailures) -> np.ndarray:
    """Stacked :func:`s_from_k` over (G, 2N, 2N) K data. A point whose
    K22 is singular, or whose S is not finite, is recorded in ``fails``."""
    n = k.shape[-1] // 2
    k11, k12, k21, k22 = k[:, :n, :n], k[:, :n, n:], k[:, n:, :n], k[:, n:, n:]
    k22_inv_k21 = solve_stack(k22, k21, fails, "K22")
    eye = np.broadcast_to(np.eye(n, dtype=complex), k22.shape)
    return _assemble(Variant.S, -k22_inv_k21,
                     solve_stack(k22, eye, fails, "K22"),
                     k11 - k12 @ k22_inv_k21,
                     right_solve_stack(k22, k12, fails, "K22"), fails)


def s_from_k(k: BlockMatrix) -> BlockMatrix:
    """S = [[-K22^{-1} K21, K22^{-1}], [K11 - K12 K22^{-1} K21, K12 K22^{-1}]].

    The G = 1 case of :func:`s_from_k_stack`, whose failures it raises.
    """
    if k.variant is not Variant.K:
        raise VariantError(f"s_from_k needs a K matrix, got {k.variant}")
    fails = PointFailures(1)
    data = s_from_k_stack(k.data[None], fails)
    fails.raise_first()
    return BlockMatrix(variant=Variant.S, data=data[0],
                       conditioning=cond_estimate(k.b22))


# The permutation family: matrices whose definitions differ only by
# swapping the two stacked vectors on one side of the relation. With X
# as reference, Y swaps the left-hand vectors (row blocks), Z swaps the
# right-hand vectors (column blocks) and R swaps both, which yields the
# block identity chains X11 = Y21 = R22 = Z12 etc.
_FAMILY_POSITION = {
    Variant.X: (0, 0),
    Variant.Y: (1, 0),
    Variant.Z: (0, 1),
    Variant.R: (1, 1),
}


def reblock_family(m: BlockMatrix, target: Variant | str) -> BlockMatrix:
    """Map a matrix between the X/Y/Z/R permutation-family positions."""
    target = Variant(target)
    if m.variant not in _FAMILY_POSITION or target not in _FAMILY_POSITION:
        raise VariantError(
            f"reblock_family maps among X/Y/Z/R, got {m.variant} -> {target}")
    row_bit, col_bit = _FAMILY_POSITION[m.variant]
    trow_bit, tcol_bit = _FAMILY_POSITION[target]
    n = m.n
    data = np.array(m.data, copy=True)
    if row_bit != trow_bit:
        data = np.vstack([data[n:], data[:n]])
    if col_bit != tcol_bit:
        data = np.hstack([data[:, n:], data[:, :n]])
    return BlockMatrix(variant=target, data=data)


_INVERSE_VARIANT = {
    Variant.T: Variant.T,  # T^{-1} is T(-d) for the same medium
    Variant.H: Variant.X,  # H^{-1}: (F(z0), A(z)) -> (A(z0), F(z))
    Variant.X: Variant.H,
    Variant.E: Variant.C,  # compliance matrix
    Variant.C: Variant.E,
}


def invert_variant(m: BlockMatrix) -> BlockMatrix:
    """Inverse of T, H or E (and back from X or C).

    Inverting H or E amounts to swapping the roles of F and A in the
    construction, so the results are exactly as stable as the originals.
    """
    if m.variant not in _INVERSE_VARIANT:
        raise VariantError(
            f"inverse of variant {m.variant} is not part of the catalog")
    try:
        data = np.linalg.inv(m.data)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{m.variant} matrix is singular") from exc
    return BlockMatrix(variant=_INVERSE_VARIANT[m.variant], data=data,
                       conditioning=cond_estimate(m.data))
