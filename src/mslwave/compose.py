"""Composition rules: combining per-layer matrices into structure matrices.

T composes by plain matrix product, H and S by one star kernel
(:func:`star_stack`) and E by :func:`compose_e_stack`; the only inverses
of H, E and S act on inner factors that stay regular for arbitrarily
thick stacks (H, S) or arbitrarily thick but not arbitrarily thin ones
(E). Each kernel returns, with its result, the matrix whose singular
values a fold step records: the inner factor (H, E, S) or the running
product (T). A fold can record that per-step conditioning trace, so the
regularity claim is checkable rather than assumed.

Every variant folds through one entry (:func:`fold_stack`) stacked over
G parameter points, recording failures per point. Each point may carry
its own thicknesses and its own media, so one fold covers a thickness or
an energy sweep, and a region without layers is folded there too.
:func:`structure_propagator`, :func:`compose_t`, :func:`compose_h`,
:func:`compose_e`, :func:`star_product` and :func:`interface_scattering`
are their G = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (cond_stack, condition_gate, scaled_cond_stack,
                      smallest_singular_value, solve_stack, stacked_call)
from .errors import (IllConditionedError, MatrixOverflowError,
                     PointFailures, ResonanceError, StructuralError,
                     VariantError)
from .media import LayeredStructure, StackedStructure
from .propagators import (BlockMatrix, Variant, _assemble, _per_point,
                          _q_condition_error, antidiagonal_identity,
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


def t_product_stack(t2: np.ndarray, t1: np.ndarray, fails: PointFailures,
                    layer_index: int | None = None):
    """Stacked :func:`compose_t`, returning the product twice: as the
    result and as the matrix a fold step traces. An overflowing point
    fails, naming ``layer_index`` when given."""
    # an overflowing product becomes the typed error below
    with np.errstate(over="ignore", invalid="ignore"):
        data = t2 @ t1
    where = ("" if layer_index is None
             else f"T overflow at layer {layer_index}: ")
    fails.add(~np.isfinite(data).all(axis=(1, 2)), lambda i:
              MatrixOverflowError(where + "T matrix contains non-finite "
                                  "entries", layer_index=layer_index))
    fails.patch(data)
    return data, data


def compose_t(t2: BlockMatrix, t1: BlockMatrix) -> BlockMatrix:
    """T across two adjacent regions: plain product t2 . t1 (t1 leftmost)."""
    if t2.variant is not Variant.T or t1.variant is not Variant.T:
        raise VariantError("compose_t needs two T matrices")
    if t2.n != t1.n:
        raise StructuralError("system sizes differ")
    fails = PointFailures(1)
    data, _ = t_product_stack(t2.data[None], t1.data[None], fails)
    fails.raise_first()
    return BlockMatrix(variant=Variant.T, data=data[0])


def _inner_solve_stack(factor: np.ndarray, rhs: np.ndarray, rule: Variant,
                      fails: PointFailures) -> np.ndarray:
    def resonance(i: int, exc) -> ResonanceError:
        sigma_min = smallest_singular_value(factor[i])
        return ResonanceError(
            f"singular inner factor in the {rule} composition rule "
            f"(sigma_min = {sigma_min:.3e})", sigma_min=sigma_min)
    return stacked_call(np.linalg.solve, fails, resonance, factor, rhs)


def compose_e_stack(e_m: np.ndarray, e_rest: np.ndarray,
                    fails: PointFailures):
    """Stacked :func:`compose_e` over (G, 2N, 2N) arrays; see
    :func:`star_stack`. The inner factor is D = E^rest_11 - E^m_22."""
    n = e_m.shape[-1] // 2
    m11, m12, m21, m22 = (e_m[:, :n, :n], e_m[:, :n, n:],
                          e_m[:, n:, :n], e_m[:, n:, n:])
    r11, r12, r21, r22 = (e_rest[:, :n, :n], e_rest[:, :n, n:],
                          e_rest[:, n:, :n], e_rest[:, n:, n:])
    d_factor = r11 - m22
    dinv = _inner_solve_stack(d_factor, np.concatenate([m21, r12], axis=-1),
                              Variant.E, fails)
    dinv_e21, dinv_e12rest = dinv[..., :n], dinv[..., n:]
    data = _assemble(Variant.E,
                     m11 + m12 @ dinv_e21,
                     -m12 @ dinv_e12rest,
                     r21 @ dinv_e21,
                     r22 - r21 @ dinv_e12rest, fails)
    return data, d_factor


def compose_h(h_m: BlockMatrix, h_rest: BlockMatrix) -> BlockMatrix:
    """Hybrid matrix of layer m joined with the stack to its right.

    It is the star product H^rest (*) H^m (:func:`star_stack`). Inner
    factor G = I - H^m_22 H^rest_11 stays regular for thicknesses from
    zero to infinity; a singular G marks a physical resonance and raises
    so root finders can bracket it.
    """
    if h_m.variant is not Variant.H or h_rest.variant is not Variant.H:
        raise VariantError("compose_h needs two H matrices")
    fails = PointFailures(1)
    data, _ = star_stack(h_rest.data[None], h_m.data[None], fails, Variant.H)
    fails.raise_first()
    return BlockMatrix(variant=Variant.H, data=data[0])


def compose_e(e_m: BlockMatrix, e_rest: BlockMatrix) -> BlockMatrix:
    """Stiffness matrix of layer m joined with the stack to its right.

    Inner factor D = E^rest_11 - E^m_22 is regular for thick stacks but
    its norm grows like 1/d for thin layers; the trace of a fold
    (:func:`structure_propagator`) records that growth (the
    roundoff-accumulation regime).
    """
    if e_m.variant is not Variant.E or e_rest.variant is not Variant.E:
        raise VariantError("compose_e needs two E matrices")
    fails = PointFailures(1)
    data, _ = compose_e_stack(e_m.data[None], e_rest.data[None], fails)
    fails.raise_first()
    return BlockMatrix(variant=Variant.E, data=data[0])


def star_stack(y: np.ndarray, x: np.ndarray, fails: PointFailures,
               variant: Variant):
    """Stacked star product Z = Y (*) X over (G, 2N, 2N) arrays (X nearer
    the left end): the one kernel of the H and S rules, which compose
    alike (Ko & Inkson, PRB 38, 9945, 1988). ``variant`` (H or S) only
    names the rule in error messages.

    Returns the joined data and each point's inner factor
    G = I - X22 Y11. A point with a singular G fails with
    :class:`ResonanceError`.
    """
    n = x.shape[-1] // 2
    x11, x12 = x[:, :n, :n], x[:, :n, n:]
    y11, y12, y21, y22 = y[:, :n, :n], y[:, :n, n:], y[:, n:, :n], y[:, n:, n:]
    eye = np.eye(n, dtype=complex)
    g = eye - x[:, n:, n:] @ y11
    ginv = _inner_solve_stack(g, x[:, n:, :], variant, fails)
    ginv_x21, ginv_x22 = ginv[..., :n], ginv[..., n:]
    data = _assemble(variant,
                     x11 + x12 @ y11 @ ginv_x21,
                     x12 @ (eye + y11 @ ginv_x22) @ y12,
                     y21 @ ginv_x21,
                     y22 + y21 @ ginv_x22 @ y12, fails)
    return data, g


def star_product(y: BlockMatrix, x: BlockMatrix) -> BlockMatrix:
    """Redheffer star product Z = Y (*) X, with X nearer the left end.

    Identity element: [[0, I], [I, 0]].
    """
    if y.variant is not Variant.S or x.variant is not Variant.S:
        raise VariantError("star_product needs two S matrices")
    fails = PointFailures(1)
    data, _ = star_stack(y.data[None], x.data[None], fails, Variant.S)
    fails.raise_first()
    return BlockMatrix(variant=Variant.S, data=data[0])


def s_identity(n: int) -> BlockMatrix:
    m = antidiagonal_identity(n)
    return BlockMatrix(variant=Variant.S, data=m.data)


def interface_stack(left: ModeStack, right: ModeStack,
                    fails: PointFailures) -> np.ndarray:
    """Stacked :func:`interface_scattering`, (G, 2N, 2N): K = Q_R^{-1} Q_L
    over the reduced bases, turned into S. Each medium has G points or
    one point shared by all. A point fails where Q_R or Q_L fails the
    condition gate (:func:`mslwave._linalg.condition_gate`), Q_R or K22
    is singular, or K or S is not finite."""
    shape = fails.failed.shape + (2 * left.n, 2 * left.n)
    q_right, q_left = (np.broadcast_to(mode_matrix(m), shape)
                       for m in (right, left))
    for q in (q_right, q_left):
        condition_gate(q, fails, _q_condition_error)
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


def propagation_stack(modes: ModeStack, d) -> np.ndarray:
    """S matrices of propagation across one layer in its own mode basis,
    (G, 2N, 2N); ``d`` and ``modes`` as in :func:`single_stack`.

    Shifting the reference point by d multiplies plus coefficients by
    exp(i k d) and minus ones by exp(-i k d); in scattering arrangement
    both diagonals carry only decaying exponentials.
    """
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


def _single_factors(layers, variant: Variant, modes_of,
                    fails: PointFailures):
    """The single-layer matrices of a T, H or E fold, right to left, each
    with its conditioning in a one-layer fold only (T: that of Q0; H and
    E: the scaled condition of the inverted factor)."""
    for idx in range(len(layers) - 1, -1, -1):
        key, d = layers[idx]
        modes = modes_of(key)
        if variant is not Variant.T:
            data, den = single_stack(variant, modes, d, fails, layer_index=idx)
            cond = None if len(layers) > 1 else scaled_cond_stack(den)
            # drop den now, and data once the fold has combined it, so that
            # neither stays alive while the next layer is built
            del den
            yield data, cond
            del data
            continue
        cond = None if len(layers) > 1 else np.broadcast_to(
            cond_stack(mode_matrix(modes)), fails.failed.shape)
        yield t_single_stack(modes, d, fails, layer_index=idx), cond


def _s_factors(layers, ends, modes_of, fails: PointFailures):
    """The factors of an S fold, right to left: the interface into the
    right half-space, then each layer's propagation and the interface on
    its left, each interface of adjacent media computed once."""
    media = [ends[0]] + [key for key, _ in layers] + [ends[1]]
    cache = {}

    def interface(i: int) -> np.ndarray:
        pair = media[i], media[i + 1]
        if pair not in cache:
            cache[pair] = interface_stack(*map(modes_of, pair), fails)
        return cache[pair]

    yield interface(len(layers)), None
    for idx in range(len(layers) - 1, -1, -1):
        key, d = layers[idx]
        yield propagation_stack(modes_of(key), d), None
        yield interface(idx), None


def fold_stack(layers, variant: Variant, modes_of, fails: PointFailures,
               n: int, trace: bool = False, ends=None):
    """Fold the factors of a region of G points of system size ``n``
    under one variant's rule, right to left, in one loop:
    acc = combine(acc, factor).

    ``layers`` lists (key, d), possibly none; each d is either one
    thickness > 0 shared by all points or a (G,) array of per-point
    thicknesses > 0. ``modes_of(key)`` gives that medium's
    :class:`ModeStack`, of G points or of one point shared by all; it is
    called as the fold reaches each layer or end, right to left, so a
    :func:`mslwave.qep.mode_source` records each medium's failures in
    ``fails`` in the order the fold reads the media. The factors are the
    single-layer matrices (T, H, E), whose errors carry that layer's
    ``layer_index`` in ``layers``, or (S) each layer's propagation
    between the interfaces of adjacent media, from the half-spaces
    ``ends`` = (left key, right key). ``combine`` is
    :func:`t_product_stack` (T), :func:`star_stack` (H, S) or
    :func:`compose_e_stack` (E).

    A region without layers is the identity (T), the antidiagonal
    identity (H) or the bare interface between ``ends`` (S); under E it
    is not computable, and every point fails with
    :class:`IllConditionedError`.

    Returns the (G, 2N, 2N) data, None once every point has failed; the
    conditioning of the single layer when there is only one, else None
    (T: the 2-norm condition of Q0; H and E: the exact scaled condition
    of the inverted factor U^AF or U^FF, which :func:`single_stack`
    itself only bounds); and, with ``trace``, the singular values at
    every step of the matrix the kernel returns with its result: the
    inner factor (H, E, S) or the running product (T). A step is traced
    while some point is live after it. The fold stops once every point
    has failed, before it builds the next factor.
    """
    if not layers and variant is Variant.E:
        fails.add(np.ones(fails.failed.shape, dtype=bool), lambda i:
                  IllConditionedError(
                      "E matrix of a zero-thickness region is not computable"))
    if fails.all_failed:
        return None, None, []
    if not layers and variant is not Variant.S:
        empty = (np.eye(2 * n, dtype=complex) if variant is Variant.T
                 else antidiagonal_identity(n).data)
        return np.tile(empty, (len(fails.failed), 1, 1)), None, []
    if variant is Variant.S:
        factors = _s_factors(layers, ends, modes_of, fails)
        count = 2 * len(layers) + 1
    else:
        factors = _single_factors(layers, variant, modes_of, fails)
        count = len(layers)

    def combine(acc, factor, idx):
        if variant is Variant.T:
            return t_product_stack(acc, factor, fails, layer_index=idx)
        if variant is Variant.E:
            return compose_e_stack(factor, acc, fails)
        return star_stack(acc, factor, fails, variant)

    acc, cond = next(factors)
    steps = []
    # idx counts factors from the left: the layer index under T, H and E
    for idx in range(count - 2, -1, -1):
        if fails.all_failed:
            break
        acc, traced = combine(acc, next(factors)[0], idx)
        if trace and not fails.all_failed:
            steps.append(np.linalg.svd(traced, compute_uv=False))
    return ((None if fails.all_failed else acc),
            (cond if count == 1 else None), steps)


def structure_propagator(s: LayeredStructure, variant: Variant | str
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
    half-spaces for S) come from one :func:`mslwave.qep.mode_source`
    call; the first error the fold records, a mode solve's included, is
    raised.
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
    modes_of = mode_source(StackedStructure.of(s).media, keys, fails)
    data, cond, svs = fold_stack(layers, variant, modes_of, fails, s.n,
                                 trace=True, ends=ends)
    fails.raise_first()
    steps = [CompositionStep(index=i, factor_norm=float(sv[0, 0]),
                             factor_sigma_min=float(sv[0, -1]))
             for i, sv in enumerate(svs)]
    return (BlockMatrix(variant=variant, data=data[0],
                        conditioning=None if cond is None else float(cond[0])),
            CompositionTrace(steps=tuple(steps)))
