"""Quadratic eigenvalue problem of a homogeneous medium.

The linearly independent solutions of the homogeneous system are
F(z) = f0 exp(i k z) with the 2N wavenumbers k given by the zeros of

    det Theta(k),   Theta(k) = -k^2 b + i k (p + y) + w,

and mode shapes Theta(k) f0 = 0. The basis is split into N "plus" modes
(Im k > 0, or right-going when k is real) and N "minus" modes; all the
stable matrix constructions downstream rely on that split.

The modes are held once, as arrays: a :class:`ModeStack` has the 2N
modes of one medium at G parameter points, and a :class:`ModeBasis`,
the modes of one medium, is a view of a one-point stack whose
:class:`Mode` objects are built only when asked for.

:func:`solve_qep_stack` solves a stack of media at once, one per
parameter point, and records failures per point; :func:`solve_qep` is
its G = 1 case. :func:`mode_source` is the one solver of several media:
it solves every medium a block evaluation (or a stability report)
reads in one :func:`solve_qep_stack` call, so a block pays the fixed
per-call cost once rather than once per medium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import solve_stack, stacked_call
from .errors import EigensolveError, PartitionError, PointFailures
from .media import MediumStack, MslCoefficients

RESIDUAL_RTOL = 1e-9
DEGENERACY_RTOL = 1e-8
# |Im k| below this (relative to the eigenvalue scale) counts as real.
REAL_K_RTOL = 1e-9


def _theta(b, py, w, k):
    """Theta(k) = -k^2 b + i k (p + y) + w, broadcast over leading axes."""
    return -k ** 2 * b + 1j * k * py + w


def secular_matrix(m: MslCoefficients, k: complex) -> np.ndarray:
    """Theta(k) = -k^2 b + i k (p + y) + w."""
    return _theta(m.b, m.p + m.y, m.w, k)


@dataclass(frozen=True)
class Mode:
    """One eigenpair: wavenumber, unit-norm shape, linear-form amplitude."""

    k: complex
    f0: np.ndarray
    a0: np.ndarray

    def __post_init__(self):
        f0 = np.asarray(self.f0, dtype=complex)
        a0 = np.asarray(self.a0, dtype=complex)
        f0.setflags(write=False)
        a0.setflags(write=False)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "a0", a0)


@dataclass(frozen=True)
class ModeStack:
    """The 2N modes of one medium at G parameter points, as arrays.

    Columns 0..N-1 are the plus modes and N..2N-1 the minus modes, each
    set in :class:`ModeBasis` order: ``ks`` is (G, 2N), the shapes
    ``f0`` and amplitudes ``a0`` are (G, N, 2N), ``degenerate`` is (G,).
    """

    ks: np.ndarray
    f0: np.ndarray
    a0: np.ndarray
    degenerate: np.ndarray

    @property
    def n(self) -> int:
        return self.f0.shape[1]


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """The 2N modes of a medium, partitioned into plus and minus sets: a
    view of the one-point :class:`ModeStack` ``stack``.

    The wavenumbers, the N x N mode blocks and the degeneracy flag read
    the stack; :class:`Mode` objects are built only when asked for.
    Bases compare by identity, as arrays have no truth value.
    """

    stack: ModeStack
    medium: MslCoefficients

    @property
    def n(self) -> int:
        return self.stack.n

    @property
    def degenerate(self) -> bool:
        return bool(self.stack.degenerate[0])

    @property
    def ks(self) -> np.ndarray:
        return self.stack.ks[0]

    @property
    def modes(self) -> tuple[Mode, ...]:
        st = self.stack
        return tuple(Mode(k=complex(st.ks[0, j]), f0=st.f0[0, :, j],
                          a0=st.a0[0, :, j]) for j in range(2 * self.n))

    @property
    def plus(self) -> tuple[Mode, ...]:
        return self.modes[:self.n]

    @property
    def minus(self) -> tuple[Mode, ...]:
        return self.modes[self.n:]

    @property
    def f0_plus(self) -> np.ndarray:
        """N x N matrix whose columns are the plus-mode shapes."""
        return self.stack.f0[0, :, :self.n]

    @property
    def a0_plus(self) -> np.ndarray:
        return self.stack.a0[0, :, :self.n]

    @property
    def f0_minus(self) -> np.ndarray:
        return self.stack.f0[0, :, self.n:]

    @property
    def a0_minus(self) -> np.ndarray:
        return self.stack.a0[0, :, self.n:]

    def max_abs_im_k(self) -> float:
        return float(np.max(np.abs(self.ks.imag)))


def linear_form_amplitudes(m: MslCoefficients, ks: np.ndarray,
                           f0s: np.ndarray) -> np.ndarray:
    """a0_j = (i k_j b + p) f0_j for mode shapes stacked as columns."""
    return _amplitudes(m.b, m.p, np.asarray(ks), np.asarray(f0s))


def _amplitudes(b, p, ks, f0s):
    # in place, each product keeping the operand order of
    # 1j k (b f0) + p f0: complex multiplies are not bitwise commutative
    a = b @ f0s
    np.multiply(1j * ks[..., None, :], a, out=a)
    a += p @ f0s
    return a


def _theta_scales(media: MediumStack, py: np.ndarray) -> np.ndarray:
    """2-norms of b, p + y and w of each point, as a (3, G, 1) array."""
    return np.linalg.svd(np.stack([media.b, py, media.w]),
                         compute_uv=False)[..., :1]


def _residuals(media: MediumStack, py, norms, ks, f0s) -> np.ndarray:
    """Backward errors ||Theta(k_j) f0_j|| / max(1, scale_j), (G, 2N).

    ||Theta(k)|| itself vanishes at eigenvalues, so the residual is
    measured against |k|^2 ||b|| + |k| ||p+y|| + ||w||, the size of the
    terms that formed it.
    """
    # Theta(k) f0 = -k^2 (b f0) + i k ((p+y) f0) + w f0, formed in place
    k = ks[:, None, :]
    r = media.b @ f0s
    np.multiply(-k ** 2, r, out=r)
    t = py @ f0s
    np.multiply(1j * k, t, out=t)
    r += t
    np.matmul(media.w, f0s, out=t)
    r += t
    del t
    ak = np.abs(ks)
    scale = ak * ak * norms[0] + ak * norms[1] + norms[2]
    return np.linalg.norm(r, axis=1) / np.maximum(1.0, scale)


def _refine_shapes(media: MediumStack, py, ks, f0s, redo) -> None:
    """Replace each flagged shape with the right singular vector of the
    smallest sigma of Theta(k), in place.

    One residual-based refinement: for the computed k this minimizes
    ||Theta(k) f0|| over unit vectors, cleaning up linearization noise.
    The phase is kept close to the original shape for determinism.
    """
    gi, ji = np.nonzero(redo)
    theta = _theta(media.b[gi], py[gi], media.w[gi], ks[gi, ji][:, None, None])
    cand = np.linalg.svd(theta)[2][:, -1, :].conj()
    overlap = np.sum(cand.conj() * f0s[gi, :, ji], axis=-1)
    mag = np.abs(overlap)
    phase = np.where(mag > 0, overlap / np.where(mag > 0, mag, 1.0), 1.0)
    f0s[gi, :, ji] = cand * phase[:, None]


def _precedes(*keys) -> np.ndarray:
    """(G, M, M) mask: entry [i, j] is whether i sorts before j by the
    (G, M) keys compared lexicographically, ties broken by index."""
    m = keys[0].shape[1]
    before = np.tri(m, k=-1, dtype=bool).T  # i < j
    for key in reversed(keys):
        a, b = key[:, :, None], key[:, None, :]
        before = (a < b) | ((a == b) & before)
    return before


def _partition_stack(b, p, ks, f0s, fails: PointFailures,
                     real_k_rtol: float = REAL_K_RTOL) -> ModeStack:
    """Split each point's 2N eigenpairs into plus and minus sets."""
    n = ks.shape[1] // 2
    tol = real_k_rtol * np.maximum(1.0, np.max(np.abs(ks), axis=1,
                                                keepdims=True))
    im, re = ks.imag, ks.real
    real_zone = ~((im > tol) | (im < -tol))
    plus = (im > tol) | (real_zone & (re > tol))
    undecided = real_zone & ~(re > tol) & ~(re < -tol)
    # undecided eigenvalues fill the plus set first, in index order
    room = n - np.sum(plus, axis=1, keepdims=True)
    plus |= undecided & (np.cumsum(undecided, axis=1) <= room)
    fails.add(np.sum(plus, axis=1) != n, lambda i: PartitionError(
        f"cannot split eigenvalues into {n}/{n} plus/minus sets: "
        f"{np.array2string(ks[i], precision=6)}"))

    # a pair i < j of eigenvalues closer than DEGENERACY_RTOL of the
    # larger |k| (at least 1)
    ak = np.abs(ks)
    lo, hi = np.triu_indices(2 * n, 1)
    pair_scale = np.maximum(ak[:, lo], ak[:, hi])
    np.maximum(1.0, pair_scale, out=pair_scale)
    pair_scale *= DEGENERACY_RTOL
    degenerate = (undecided.any(axis=1)
                  | (np.abs(ks[:, lo] - ks[:, hi]) < pair_scale).any(axis=1))

    # plus set first; within a set by decreasing Im k, then increasing
    # Re k, then index: j's position is the number of modes before it
    order = np.argsort(np.sum(_precedes(~plus, -im, re), axis=1), axis=1)
    rows = np.arange(len(ks))[:, None]
    ks[:] = ks[rows, order]
    f0s[:] = np.swapaxes(np.swapaxes(f0s, 1, 2)[rows, order], 1, 2)
    norms = np.linalg.norm(f0s, axis=1)
    zero = norms == 0
    fails.add(zero.any(axis=1), lambda i: EigensolveError(
        "zero mode shape from eigensolve"))
    f0s /= np.where(zero, 1.0, norms)[:, None, :]
    return ModeStack(ks=ks, f0=f0s, a0=_amplitudes(b, p, ks, f0s),
                     degenerate=degenerate)


def partition_modes(m: MslCoefficients, ks: np.ndarray, f0s: np.ndarray,
                    real_k_rtol: float = REAL_K_RTOL) -> ModeBasis:
    """Split 2N eigenpairs into plus (Im k > 0) and minus (Im k < 0) sets.

    Real eigenvalues (propagating modes) are assigned by the sign of
    Re k: right-going joins the plus set. Eigenvalues too close to zero
    to classify are distributed to balance the sets, with the basis
    flagged degenerate. Failure to reach an N/N split raises.
    """
    ks = np.array(ks, dtype=complex)  # copies: sorted in place below
    f0s = np.array(f0s, dtype=complex)
    n = m.n
    if ks.shape[0] != 2 * n or f0s.shape != (n, 2 * n):
        raise PartitionError(
            f"expected 2N = {2 * n} eigenpairs, got {ks.shape[0]}")
    fails = PointFailures(1)
    modes = _partition_stack(m.b[None], m.p[None], ks[None], f0s[None],
                             fails, real_k_rtol)
    fails.raise_first()
    return ModeBasis(modes, m)


def _companion_modes(media: MediumStack, py: np.ndarray,
                     fails: PointFailures) -> tuple[np.ndarray, np.ndarray]:
    """Wavenumbers (G, 2N) and unit shapes (G, N, 2N) from the companion
    eigensolve."""
    n = media.n
    companion = np.zeros((media.g, 2 * n, 2 * n), dtype=complex)
    companion[:, :n, n:] = np.eye(n)
    np.negative(solve_stack(media.b, np.concatenate([media.w, py], axis=-1),
                            fails, "B"), out=companion[:, n:, :])
    mu, vectors = stacked_call(
        np.linalg.eig, fails,
        lambda i, exc: EigensolveError(f"companion eigensolve failed: {exc}"),
        companion)
    del companion
    ks = np.multiply(-1j, mu, out=mu)
    # companion eigenvectors can have a vanishing F part only for
    # infinite eigenvalues, which a regular b excludes; still normalize
    # and refine the shapes against Theta(k).
    f0s = vectors[:, :n, :]
    norms = np.linalg.norm(f0s, axis=1)
    tiny = norms < 1e-300

    def no_field(i: int) -> EigensolveError:
        j = int(np.argmax(tiny[i]))
        return EigensolveError(
            f"eigenvector {j} has no field component (k = {ks[i, j]:.6g})")

    fails.add(tiny.any(axis=1), no_field)
    return ks, f0s / np.where(tiny, 1.0, norms)[:, None, :]


def solve_qep_stack(media: MediumStack, fails: PointFailures,
                    residual_rtol: float = RESIDUAL_RTOL) -> ModeStack:
    """Solve the quadratic eigenproblems of a stack of media by
    companion linearization.

    The stack's points are independent problems: G points of one medium,
    or several media joined along the point axis (:func:`mode_source`),
    are solved in one call, and each point's modes and failure do not
    depend on the other points.

    Pairs (F, i k F) so each problem becomes a standard eigenproblem for
    mu = i k:

        mu [f; h] = [[0, I], [-b^{-1} w, -b^{-1}(p + y)]] [f; h].

    Shapes whose residual exceeds half of ``residual_rtol`` get one
    SVD-based refinement; a point whose worst residual (relative to the
    size of Theta(k)) stays above ``residual_rtol``, whose b is
    singular, or whose modes do not split N/N is recorded in ``fails``.
    """
    py = media.p + media.y
    ks, f0s = _companion_modes(media, py, fails)
    theta_norms = _theta_scales(media, py)
    redo = _residuals(media, py, theta_norms, ks, f0s) > 0.5 * residual_rtol
    if redo.any():
        _refine_shapes(media, py, ks, f0s, redo)

    modes = _partition_stack(media.b, media.p, ks, f0s, fails)
    worst = np.max(_residuals(media, py, theta_norms, modes.ks, modes.f0),
                   axis=1)
    fails.add(worst > residual_rtol, lambda i: EigensolveError(
        f"QEP residual {worst[i]:.3e} exceeds tolerance {residual_rtol:.1e}"))
    fails.patch(modes.ks, modes.f0, modes.a0, modes.degenerate)
    return modes


def mode_source(media: dict, keys, fails: PointFailures,
                known: dict | None = None):
    """``modes_of(key)``: the :class:`ModeStack` of ``media[key]``, for
    every key of ``keys``.

    ``known`` maps keys to stacks already solved; every other key of
    ``keys`` is solved here in one :func:`solve_qep_stack` call, the
    media joined along the point axis, with failures kept in a scratch
    record. The first ``modes_of(key)`` copies that medium's failures
    into ``fails`` and patches its own arrays, so failures are recorded
    in the order the caller reads the media, exactly as a solve on
    first read would record them; a medium never read masks no point.
    """
    known = dict(known or {})
    todo = [key for key in dict.fromkeys(keys) if key not in known]
    parts, start = {}, 0
    if todo:
        stacks = [media[key] for key in todo]
        joined = stacks[0] if len(stacks) == 1 else MediumStack(
            *(np.concatenate([getattr(st, f) for st in stacks])
              for f in ("b", "p", "y", "w")))
        scratch = PointFailures(joined.g)
        modes = solve_qep_stack(joined, scratch)
        for key, st in zip(todo, stacks):
            parts[key] = slice(start, start + st.g)
            start += st.g

    def modes_of(key):
        if key not in known:
            part = parts[key]
            stack = ModeStack(ks=modes.ks[part], f0=modes.f0[part],
                              a0=modes.a0[part],
                              degenerate=modes.degenerate[part])
            fails.add(scratch.failed[part],
                      lambda i: scratch.errors[part.start + i])
            fails.patch(stack.ks, stack.f0, stack.a0, stack.degenerate)
            known[key] = stack
        return known[key]
    return modes_of


def solve_qep(m: MslCoefficients,
              residual_rtol: float = RESIDUAL_RTOL) -> ModeBasis:
    """Solve the quadratic eigenproblem of one medium (the G = 1 case of
    :func:`solve_qep_stack`); failures raise."""
    fails = PointFailures(1)
    modes = solve_qep_stack(MediumStack.of(m), fails, residual_rtol)
    fails.raise_first()
    return ModeBasis(modes, m)
