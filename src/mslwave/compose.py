"""Composition rules: combining per-layer matrices into structure matrices.

T composes by plain matrix product. H, E and S compose by the block
recursions below, whose only inverses act on inner factors that stay
regular for arbitrarily thick stacks (H, S) or arbitrarily thick but not
arbitrarily thin ones (E). Each fold records a per-step conditioning
trace so the regularity claim is checkable rather than assumed.

The H and E rules and folds also run stacked over G parameter points
(:func:`compose_h_stack`, :func:`compose_e_stack`, :func:`fold_stack`),
recording failures per point; the single-matrix functions are their
G = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import det_drift, smallest_singular_value, stacked_call
from .errors import (IllConditionedError, MatrixOverflowError, PointFailures,
                     ResonanceError, StructuralError, VariantError)
from .media import LayeredStructure, MslCoefficients
from .propagators import (BlockMatrix, Variant, antidiagonal_identity,
                          from_blocks, k_matrix, q_matrix, s_from_k,
                          single_stack, t_single)
from .qep import ModeBasis, solve_qep


@dataclass(frozen=True)
class CompositionStep:
    """Conditioning record for one fold step."""

    index: int
    factor_norm: float
    factor_sigma_min: float

    @property
    def conditioning(self) -> float:
        if self.factor_sigma_min == 0.0:
            return np.inf
        return self.factor_norm / self.factor_sigma_min


@dataclass(frozen=True)
class CompositionTrace:
    steps: tuple[CompositionStep, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def max_factor_norm(self) -> float:
        return max((s.factor_norm for s in self.steps), default=0.0)

    def max_conditioning(self) -> float:
        return max((s.conditioning for s in self.steps), default=1.0)


def _step(index: int, factor: np.ndarray) -> CompositionStep:
    return CompositionStep(index=index,
                           factor_norm=float(np.linalg.norm(factor, 2)),
                           factor_sigma_min=smallest_singular_value(factor))


def compose_t(t2: BlockMatrix, t1: BlockMatrix) -> BlockMatrix:
    """T across two adjacent regions: plain product t2 . t1 (t1 leftmost)."""
    if t2.variant is not Variant.T or t1.variant is not Variant.T:
        raise VariantError("compose_t needs two T matrices")
    if t2.n != t1.n:
        raise StructuralError("system sizes differ")
    # overflowing products become the typed error via the constructor
    with np.errstate(over="ignore", invalid="ignore"):
        data = t2.data @ t1.data
    return BlockMatrix(variant=Variant.T, data=data)


def _inner_solve(factor: np.ndarray, rhs: np.ndarray, rule: str) -> np.ndarray:
    try:
        return np.linalg.solve(factor, rhs)
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(
            f"singular inner factor in the {rule} composition rule "
            f"(sigma_min = {smallest_singular_value(factor):.3e})",
            sigma_min=smallest_singular_value(factor)) from exc


def _inner_solve_stack(factor: np.ndarray, rhs: np.ndarray, rule: str,
                      fails: PointFailures) -> np.ndarray:
    def resonance(i: int, exc) -> ResonanceError:
        sigma_min = smallest_singular_value(factor[i])
        return ResonanceError(
            f"singular inner factor in the {rule} composition rule "
            f"(sigma_min = {sigma_min:.3e})", sigma_min=sigma_min)
    return stacked_call(np.linalg.solve, fails, resonance, factor, rhs)


def _assemble(variant: Variant, b11, b12, b21, b22,
              fails: PointFailures) -> np.ndarray:
    n = b11.shape[-1]
    data = np.empty(b11.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    data[:, :n, :n], data[:, :n, n:] = b11, b12
    data[:, n:, :n], data[:, n:, n:] = b21, b22
    fails.add(~np.isfinite(data).all(axis=(1, 2)), lambda i:
              MatrixOverflowError(f"{variant} matrix contains non-finite entries"))
    fails.patch(data)
    return data


def compose_h_stack(h_m: np.ndarray, h_rest: np.ndarray, fails: PointFailures,
                    trace: bool = False):
    """Stacked :func:`compose_h` over (G, 2N, 2N) arrays.

    Returns the joined data and, with ``trace``, the singular values of
    each point's inner factor G (for :class:`CompositionStep`). A point
    with a singular inner factor fails with :class:`ResonanceError`.
    """
    n = h_m.shape[-1] // 2
    m11, m12, m21, m22 = (h_m[:, :n, :n], h_m[:, :n, n:],
                          h_m[:, n:, :n], h_m[:, n:, n:])
    r11, r12, r21, r22 = (h_rest[:, :n, :n], h_rest[:, :n, n:],
                          h_rest[:, n:, :n], h_rest[:, n:, n:])
    eye = np.eye(n, dtype=complex)
    g = eye - m22 @ r11
    sv = np.linalg.svd(g, compute_uv=False) if trace else None
    ginv = _inner_solve_stack(g, h_m[:, n:, :], "H", fails)
    ginv_h21, ginv_h22 = ginv[..., :n], ginv[..., n:]
    data = _assemble(Variant.H,
                     m11 + m12 @ r11 @ ginv_h21,
                     m12 @ (eye + r11 @ ginv_h22) @ r12,
                     r21 @ ginv_h21,
                     r22 + r21 @ ginv_h22 @ r12, fails)
    return data, sv


def compose_e_stack(e_m: np.ndarray, e_rest: np.ndarray, fails: PointFailures,
                    trace: bool = False):
    """Stacked :func:`compose_e` over (G, 2N, 2N) arrays; see
    :func:`compose_h_stack`. The inner factor is D = E^rest_11 - E^m_22."""
    n = e_m.shape[-1] // 2
    m11, m12, m21, m22 = (e_m[:, :n, :n], e_m[:, :n, n:],
                          e_m[:, n:, :n], e_m[:, n:, n:])
    r11, r12, r21, r22 = (e_rest[:, :n, :n], e_rest[:, :n, n:],
                          e_rest[:, n:, :n], e_rest[:, n:, n:])
    d_factor = r11 - m22
    sv = np.linalg.svd(d_factor, compute_uv=False) if trace else None
    dinv = _inner_solve_stack(d_factor, np.concatenate([m21, r12], axis=-1),
                              "E", fails)
    dinv_e21, dinv_e12rest = dinv[..., :n], dinv[..., n:]
    data = _assemble(Variant.E,
                     m11 + m12 @ dinv_e21,
                     -m12 @ dinv_e12rest,
                     r21 @ dinv_e21,
                     r22 - r21 @ dinv_e12rest, fails)
    return data, sv


def _step_of(index: int, singular_values: np.ndarray) -> CompositionStep:
    return CompositionStep(index=index,
                           factor_norm=float(singular_values[0]),
                           factor_sigma_min=float(singular_values[-1]))


def _compose_traced(variant: Variant, m: BlockMatrix, rest: BlockMatrix,
                    index: int) -> tuple[BlockMatrix, CompositionStep]:
    if m.variant is not variant or rest.variant is not variant:
        raise VariantError(f"compose_{variant.value.lower()} needs two "
                           f"{variant} matrices")
    fails = PointFailures(1)
    compose = compose_h_stack if variant is Variant.H else compose_e_stack
    data, sv = compose(m.data[None], rest.data[None], fails, trace=True)
    fails.raise_first()
    return BlockMatrix(variant=variant, data=data[0]), _step_of(index, sv[0])


def _compose_h_traced(h_m: BlockMatrix, h_rest: BlockMatrix,
                      index: int) -> tuple[BlockMatrix, CompositionStep]:
    return _compose_traced(Variant.H, h_m, h_rest, index)


def _compose_e_traced(e_m: BlockMatrix, e_rest: BlockMatrix,
                      index: int) -> tuple[BlockMatrix, CompositionStep]:
    return _compose_traced(Variant.E, e_m, e_rest, index)


def compose_h(h_m: BlockMatrix, h_rest: BlockMatrix) -> BlockMatrix:
    """Hybrid matrix of layer m joined with the stack to its right.

    Inner factor G = I - H^m_22 H^rest_11 stays regular for thicknesses
    from zero to infinity; a singular G marks a physical resonance and
    raises so root finders can bracket it.
    """
    return _compose_h_traced(h_m, h_rest, 0)[0]


def compose_e(e_m: BlockMatrix, e_rest: BlockMatrix) -> BlockMatrix:
    """Stiffness matrix of layer m joined with the stack to its right.

    Inner factor D = E^rest_11 - E^m_22 is regular for thick stacks but
    its norm grows like 1/d for thin layers; the trace records that
    growth (the roundoff-accumulation regime).
    """
    return _compose_e_traced(e_m, e_rest, 0)[0]


def fold_stack(layers, variant: Variant, modes_of, fails: PointFailures,
               trace: bool = False):
    """Fold single-layer H or E matrices of G points, right to left.

    ``layers`` lists (key, thickness) with every thickness > 0 and at
    least one layer; ``modes_of(key)`` gives that medium's
    :class:`ModeStack`. Returns the (G, 2N, 2N) data, the conditioning
    of the single layer when there is only one (else None), and, with
    ``trace``, the singular values of every step's inner factor. The
    fold stops early once every point has failed.
    """
    compose = compose_h_stack if variant is Variant.H else compose_e_stack
    key, d = layers[-1]
    acc, cond = single_stack(variant, modes_of(key), d, fails)
    steps = []
    for key, d in layers[-2::-1]:
        if fails.all_failed:
            break
        m_single, _ = single_stack(variant, modes_of(key), d, fails)
        acc, sv = compose(m_single, acc, fails, trace)
        steps.append(sv)
    return acc, (cond if len(layers) == 1 else None), steps


def star_product(y: BlockMatrix, x: BlockMatrix) -> BlockMatrix:
    """Redheffer star product Z = Y (*) X, with X nearer the left end.

    Identity element: [[0, I], [I, 0]].
    """
    m, step = _star_traced(y, x, 0)
    return m


def _star_traced(y: BlockMatrix, x: BlockMatrix,
                 index: int) -> tuple[BlockMatrix, CompositionStep]:
    if y.variant is not Variant.S or x.variant is not Variant.S:
        raise VariantError("star_product needs two S matrices")
    n = x.n
    eye = np.eye(n, dtype=complex)
    g = eye - x.b22 @ y.b11
    step = _step(index, g)
    ginv_x21 = _inner_solve(g, x.b21, "S")
    ginv_x22 = _inner_solve(g, x.b22, "S")
    z11 = x.b11 + x.b12 @ y.b11 @ ginv_x21
    z12 = x.b12 @ y.b12 + x.b12 @ y.b11 @ ginv_x22 @ y.b12
    z21 = y.b21 @ ginv_x21
    z22 = y.b22 + y.b21 @ ginv_x22 @ y.b12
    return from_blocks(Variant.S, z11, z12, z21, z22), step


def s_identity(n: int) -> BlockMatrix:
    m = antidiagonal_identity(n)
    return BlockMatrix(variant=Variant.S, data=m.data)


def interface_scattering(basis_left: ModeBasis,
                         basis_right: ModeBasis) -> BlockMatrix:
    """S matrix of a bare interface from the two reduced mode bases."""
    k = k_matrix(q_matrix(basis_right), t_identity(basis_left.n),
                 q_matrix(basis_left))
    return s_from_k(k)


def t_identity(n: int) -> BlockMatrix:
    return BlockMatrix(variant=Variant.T, data=np.eye(2 * n, dtype=complex))


def propagation_scattering(basis: ModeBasis, d: float) -> BlockMatrix:
    """S matrix of propagation across one layer in its own mode basis.

    Shifting the reference point by d multiplies plus coefficients by
    exp(i k d) and minus ones by exp(-i k d); in scattering arrangement
    both diagonals carry only decaying exponentials.
    """
    k_p = np.array([md.k for md in basis.plus])
    k_m = np.array([md.k for md in basis.minus])
    z = np.zeros((basis.n, basis.n), dtype=complex)
    return from_blocks(Variant.S,
                       z, np.diag(np.exp(-1j * k_m * d)),
                       np.diag(np.exp(1j * k_p * d)), z)


def structure_propagator(s: LayeredStructure, variant: Variant | str,
                         bases: dict[MslCoefficients, ModeBasis] | None = None
                         ) -> tuple[BlockMatrix, CompositionTrace]:
    """Fold the per-layer matrices of region M under one variant's rule.

    The fold runs from the rightmost layer toward the left, matching the
    recursion the composition rules are written in. Layers of zero
    thickness are skipped (they are exact neutral elements). For the S
    variant the half-space media provide the end-domain reduced bases
    and the fold alternates interface and propagation factors.
    """
    variant = Variant(variant)
    if variant not in (Variant.T, Variant.H, Variant.E, Variant.S):
        raise VariantError(f"structure folds support T/H/E/S, got {variant}")
    cache: dict[MslCoefficients, ModeBasis] = dict(bases or {})

    def basis_of(m: MslCoefficients) -> ModeBasis:
        if m not in cache:
            cache[m] = solve_qep(m)
        return cache[m]

    layers = [ly for ly in s.layers if ly.thickness > 0.0]
    n = s.n
    steps: list[CompositionStep] = []

    if variant is Variant.S:
        media = [s.left] + [ly.medium for ly in layers] + [s.right]
        acc = interface_scattering(basis_of(media[-2]), basis_of(s.right))
        for idx in range(len(layers) - 1, -1, -1):
            ly = layers[idx]
            acc, step = _star_traced(acc, propagation_scattering(
                basis_of(ly.medium), ly.thickness), len(steps))
            steps.append(step)
            acc, step = _star_traced(acc, interface_scattering(
                basis_of(media[idx]), basis_of(ly.medium)), len(steps))
            steps.append(step)
        return acc, CompositionTrace(steps=tuple(steps))

    if not layers:
        if variant is Variant.T:
            return t_identity(n), CompositionTrace()
        if variant is Variant.H:
            return antidiagonal_identity(n), CompositionTrace()
        raise IllConditionedError(
            "E matrix of a zero-thickness region is not computable")

    if variant is Variant.T:
        acc = None
        for idx in range(len(layers) - 1, -1, -1):
            ly = layers[idx]
            try:
                t_m = t_single(ly.medium, ly.thickness, basis_of(ly.medium))
                if acc is None:
                    acc = t_m
                else:
                    acc = compose_t(acc, t_m)
                    steps.append(_step(len(steps), acc.data))
            except MatrixOverflowError as exc:
                raise MatrixOverflowError(
                    f"T overflow at layer {idx}: {exc}",
                    omega_d=exc.omega_d, layer_index=idx) from None
        if len(layers) > 1 and all(
                ly.medium.is_formally_hermitian() for ly in layers):
            acc = BlockMatrix(variant=Variant.T, data=acc.data,
                              det_drift=det_drift(acc.data))
        return acc, CompositionTrace(steps=tuple(steps))

    fails = PointFailures(1)
    data, cond, svs = fold_stack([(ly.medium, ly.thickness) for ly in layers],
                                 variant,
                                 lambda m: basis_of(m).stack, fails, trace=True)
    fails.raise_first()
    steps = [_step_of(i, sv[0]) for i, sv in enumerate(svs)]
    return (BlockMatrix(variant=variant, data=data[0],
                        conditioning=None if cond is None else float(cond[0])),
            CompositionTrace(steps=tuple(steps)))
