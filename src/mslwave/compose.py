"""Composition rules: combining per-layer matrices into structure matrices.

T composes by plain matrix product. H, E and S compose by the block
recursions below, whose only inverses act on inner factors that stay
regular for arbitrarily thick stacks (H, S) or arbitrarily thick but not
arbitrarily thin ones (E). Each fold records a per-step conditioning
trace so the regularity claim is checkable rather than assumed.

All four folds run stacked over G parameter points (:func:`fold_stack`,
with the H, E and S rules :func:`compose_h_stack`,
:func:`compose_e_stack` and :func:`star_stack`, and the S interfaces
:func:`interface_stack`), recording failures per point. Each point may
carry its own thicknesses and its own media, so one fold covers a
thickness or an energy sweep. :func:`structure_propagator`,
:func:`compose_h`, :func:`compose_e`, :func:`star_product` and
:func:`interface_scattering` are their G = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (cond_stack, scaled_cond_stack, smallest_singular_value,
                      solve_stack, stacked_call)
from .errors import (IllConditionedError, MatrixOverflowError,
                     PointFailures, ResonanceError, StructuralError,
                     VariantError)
from .media import LayeredStructure, MslCoefficients, StackedStructure
from .propagators import (CONDITION_LIMIT, BlockMatrix, Variant, _assemble,
                          _per_point, _q_condition_error, antidiagonal_identity,
                          mode_matrix, s_from_k_stack, single_stack,
                          t_single_stack)
# solve_qep is bound here for perfbench/smoke_test.py, which checks that
# the tracer patches and restores it in every module
from .qep import ModeBasis, ModeStack, mode_source, solve_qep  # noqa: F401


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


def _inner_solve_stack(factor: np.ndarray, rhs: np.ndarray, rule: str,
                      fails: PointFailures) -> np.ndarray:
    def resonance(i: int, exc) -> ResonanceError:
        sigma_min = smallest_singular_value(factor[i])
        return ResonanceError(
            f"singular inner factor in the {rule} composition rule "
            f"(sigma_min = {sigma_min:.3e})", sigma_min=sigma_min)
    return stacked_call(np.linalg.solve, fails, resonance, factor, rhs)


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


def compose_h(h_m: BlockMatrix, h_rest: BlockMatrix) -> BlockMatrix:
    """Hybrid matrix of layer m joined with the stack to its right.

    Inner factor G = I - H^m_22 H^rest_11 stays regular for thicknesses
    from zero to infinity; a singular G marks a physical resonance and
    raises so root finders can bracket it.
    """
    return _compose_traced(Variant.H, h_m, h_rest, 0)[0]


def compose_e(e_m: BlockMatrix, e_rest: BlockMatrix) -> BlockMatrix:
    """Stiffness matrix of layer m joined with the stack to its right.

    Inner factor D = E^rest_11 - E^m_22 is regular for thick stacks but
    its norm grows like 1/d for thin layers; the trace records that
    growth (the roundoff-accumulation regime).
    """
    return _compose_traced(Variant.E, e_m, e_rest, 0)[0]


def star_stack(y: np.ndarray, x: np.ndarray, fails: PointFailures,
               trace: bool = False):
    """Stacked :func:`star_product` Z = Y (*) X over (G, 2N, 2N) arrays
    (X nearer the left end); see :func:`compose_h_stack`. The inner
    factor is G = I - X22 Y11; a point where it is singular fails with
    :class:`ResonanceError`."""
    n = x.shape[-1] // 2
    x11, x12, x21, x22 = x[:, :n, :n], x[:, :n, n:], x[:, n:, :n], x[:, n:, n:]
    y11, y12, y21, y22 = y[:, :n, :n], y[:, :n, n:], y[:, n:, :n], y[:, n:, n:]
    g = np.eye(n, dtype=complex) - x22 @ y11
    sv = np.linalg.svd(g, compute_uv=False) if trace else None
    ginv_x21 = _inner_solve_stack(g, x21, "S", fails)
    fails.patch(g)
    ginv_x22 = _inner_solve_stack(g, x22, "S", fails)
    data = _assemble(Variant.S,
                     x11 + x12 @ y11 @ ginv_x21,
                     x12 @ y12 + x12 @ y11 @ ginv_x22 @ y12,
                     y21 @ ginv_x21,
                     y22 + y21 @ ginv_x22 @ y12, fails)
    return data, sv


def star_product(y: BlockMatrix, x: BlockMatrix) -> BlockMatrix:
    """Redheffer star product Z = Y (*) X, with X nearer the left end.

    Identity element: [[0, I], [I, 0]].
    """
    if y.variant is not Variant.S or x.variant is not Variant.S:
        raise VariantError("star_product needs two S matrices")
    fails = PointFailures(1)
    data, _ = star_stack(y.data[None], x.data[None], fails)
    fails.raise_first()
    return BlockMatrix(variant=Variant.S, data=data[0])


def s_identity(n: int) -> BlockMatrix:
    m = antidiagonal_identity(n)
    return BlockMatrix(variant=Variant.S, data=m.data)


def interface_stack(left: ModeStack, right: ModeStack,
                    fails: PointFailures) -> np.ndarray:
    """Stacked :func:`interface_scattering`, (G, 2N, 2N): K = Q_R^{-1} Q_L
    over the reduced bases, turned into S. Each medium has G points or
    one point shared by all. A point fails where Q_R or Q_L is
    ill-conditioned, Q_R or K22 is singular, or K or S is not finite."""
    shape = fails.failed.shape + (2 * left.n, 2 * left.n)
    q_right, q_left = (np.broadcast_to(mode_matrix(m), shape)
                       for m in (right, left))
    for q in (q_right, q_left):
        cond = scaled_cond_stack(q)
        fails.add(cond > CONDITION_LIMIT,
                  lambda i: _q_condition_error(float(cond[i])))
    k = solve_stack(q_right, q_left, fails, "Q(R)")
    fails.add(~np.isfinite(k).all(axis=(1, 2)), lambda i:
              MatrixOverflowError("K matrix contains non-finite entries"))
    fails.patch(k)
    return s_from_k_stack(k, fails)


def interface_scattering(basis_left: ModeBasis,
                         basis_right: ModeBasis) -> BlockMatrix:
    """S matrix of a bare interface from the two reduced mode bases; the
    G = 1 case of :func:`interface_stack`, whose failures it raises."""
    fails = PointFailures(1)
    data = interface_stack(basis_left.stack, basis_right.stack, fails)
    fails.raise_first()
    return BlockMatrix(variant=Variant.S, data=data[0])


def t_identity(n: int) -> BlockMatrix:
    return BlockMatrix(variant=Variant.T, data=np.eye(2 * n, dtype=complex))


def propagation_stack(modes: ModeStack, d) -> np.ndarray:
    """Stacked :func:`propagation_scattering`, (G, 2N, 2N); ``d`` and
    ``modes`` as in :func:`single_stack`."""
    n = modes.n
    ks = modes.ks
    d = _per_point(d)
    plus = np.exp(1j * ks[:, :n] * d)
    minus = np.exp(-1j * ks[:, n:] * d)
    data = np.zeros(plus.shape[:1] + (2 * n, 2 * n), dtype=complex)
    diag = np.arange(n)
    data[:, diag, n + diag] = minus
    data[:, n + diag, diag] = plus
    return data


def propagation_scattering(basis: ModeBasis, d: float) -> BlockMatrix:
    """S matrix of propagation across one layer in its own mode basis.

    Shifting the reference point by d multiplies plus coefficients by
    exp(i k d) and minus ones by exp(-i k d); in scattering arrangement
    both diagonals carry only decaying exponentials.
    """
    return BlockMatrix(variant=Variant.S,
                       data=propagation_stack(basis.stack, d)[0])


def _fold_t(layers, modes_of, fails: PointFailures, trace: bool):
    """T fold of :func:`fold_stack`: the plain product, with the running
    product's singular values as the trace. A point fails at the layer
    whose single matrix or product step leaves the double range."""
    last = len(layers) - 1
    acc = t_single_stack(modes_of(layers[last][0]), layers[last][1], fails,
                         layer_index=last)
    steps = []
    for idx in range(last - 1, -1, -1):
        if fails.all_failed:
            break
        key, d = layers[idx]
        t_m = t_single_stack(modes_of(key), d, fails, layer_index=idx)
        # an overflowing product becomes the typed error below
        with np.errstate(over="ignore", invalid="ignore"):
            acc = acc @ t_m
        fails.add(~np.isfinite(acc).all(axis=(1, 2)), lambda i:
                  MatrixOverflowError(f"T overflow at layer {idx}: T matrix "
                                      "contains non-finite entries",
                                      layer_index=idx))
        fails.patch(acc)
        if trace and not fails.all_failed:
            steps.append(np.linalg.svd(acc, compute_uv=False))
    cond = None
    if len(layers) == 1:
        cond = np.broadcast_to(cond_stack(mode_matrix(modes_of(layers[0][0]))),
                               fails.failed.shape)
    return acc, cond, steps


def _fold_s(layers, ends, modes_of, fails: PointFailures, trace: bool):
    """S fold of :func:`fold_stack`: propagation and interface factors
    alternate from the right half-space toward the left. The interface
    of each adjacent pair of media is computed once per fold."""
    media = [ends[0]] + [key for key, _ in layers] + [ends[1]]
    cache = {}

    def interface(i: int) -> np.ndarray:
        pair = media[i], media[i + 1]
        if pair not in cache:
            cache[pair] = interface_stack(*map(modes_of, pair), fails)
        return cache[pair]

    acc, steps = interface(len(layers)), []
    for idx in range(len(layers) - 1, -1, -1):
        if fails.all_failed:
            break
        key, d = layers[idx]
        acc, sv = star_stack(acc, propagation_stack(modes_of(key), d), fails,
                             trace)
        steps.append(sv)
        if fails.all_failed:
            break
        acc, sv = star_stack(acc, interface(idx), fails, trace)
        steps.append(sv)
    return acc, None, steps


def fold_stack(layers, variant: Variant, modes_of, fails: PointFailures,
               trace: bool = False, ends=None):
    """Fold the single-layer matrices of G points under one variant's
    rule, right to left.

    ``layers`` lists (key, d) with at least one layer; each d is either
    one thickness > 0 shared by all points or a (G,) array of per-point
    thicknesses > 0. ``modes_of(key)`` gives that medium's
    :class:`ModeStack`, of G points or of one point shared by all; it is
    called as the fold reaches each layer or end, right to left, so a
    :func:`mslwave.qep.mode_source` records each medium's failures in
    ``fails`` in the order the fold reads the media. The overflow and
    conditioning errors of a T, H or E single-layer matrix carry that
    layer's ``layer_index`` in ``layers``. T
    composes by the plain product, H and E by their inner-factor rules,
    and S alternates propagation and interface factors between the
    half-spaces ``ends`` = (left key, right key).

    Returns the (G, 2N, 2N) data; the conditioning of the single layer
    when there is only one (T: the 2-norm condition of Q0; H and E: that
    of the inverted factor; else None); and, with ``trace``, the
    singular values at every step of the inner factor (H, E, S) or of
    the running product (T). The fold stops early once every point has
    failed.
    """
    if variant is Variant.T:
        return _fold_t(layers, modes_of, fails, trace)
    if variant is Variant.S:
        return _fold_s(layers, ends, modes_of, fails, trace)
    compose = compose_h_stack if variant is Variant.H else compose_e_stack
    last = len(layers) - 1
    acc, cond = single_stack(variant, modes_of(layers[last][0]),
                             layers[last][1], fails, layer_index=last)
    steps = []
    for idx in range(last - 1, -1, -1):
        if fails.all_failed:
            break
        key, d = layers[idx]
        m_single, _ = single_stack(variant, modes_of(key), d, fails,
                                   layer_index=idx)
        acc, sv = compose(m_single, acc, fails, trace)
        steps.append(sv)
    return acc, (cond if len(layers) == 1 else None), steps


def structure_propagator(s: LayeredStructure, variant: Variant | str,
                         bases: dict[MslCoefficients, ModeBasis] | None = None
                         ) -> tuple[BlockMatrix, CompositionTrace]:
    """Fold the per-layer matrices of region M under one variant's rule.

    The G = 1 case of :func:`fold_stack`, whose failures it raises. The
    fold runs from the rightmost layer toward the left, matching the
    recursion the composition rules are written in. Layers of zero
    thickness are skipped (they are exact neutral elements). For the S
    variant the half-space media provide the end-domain reduced bases
    and the fold alternates interface and propagation factors. The
    unimodularity drift of a T fold is reported by
    :func:`mslwave.verify.t_det_drift`, not attached. The modes of the
    media the fold reads (the layers of nonzero thickness, and the
    half-spaces for S) come from one QEP call, with ``bases`` used where
    given; the first error the fold records, a mode solve's included,
    is raised.
    """
    variant = Variant(variant)
    if variant not in (Variant.T, Variant.H, Variant.E, Variant.S):
        raise VariantError(f"structure folds support T/H/E/S, got {variant}")
    layers = [(ly.medium, ly.thickness) for ly in s.layers
              if ly.thickness > 0.0]
    ends = (s.left, s.right)
    keys = [key for key, _ in layers]
    if variant is Variant.S:
        keys += ends
    fails = PointFailures(1)
    modes_of = mode_source(StackedStructure.of(s).media, keys, fails, {
        m: basis.stack for m, basis in (bases or {}).items()})
    n = s.n
    if not layers:
        if variant is Variant.T:
            return t_identity(n), CompositionTrace()
        if variant is Variant.H:
            return antidiagonal_identity(n), CompositionTrace()
        if variant is Variant.S:
            left, right = map(modes_of, ends)
            fails.raise_first()
            return (interface_scattering(ModeBasis(left, s.left),
                                         ModeBasis(right, s.right)),
                    CompositionTrace())
        raise IllConditionedError(
            "E matrix of a zero-thickness region is not computable")

    data, cond, svs = fold_stack(layers, variant, modes_of, fails, trace=True,
                                 ends=ends)
    fails.raise_first()
    steps = [_step_of(i, sv[0]) for i, sv in enumerate(svs)]
    return (BlockMatrix(variant=variant, data=data[0],
                        conditioning=None if cond is None else float(cond[0])),
            CompositionTrace(steps=tuple(steps)))
