"""Domain types and builders for matrix Sturm-Liouville media.

A homogeneous medium is described by four N x N complex coefficient
matrices (b, p, y, w) entering

    d/dz [ b F'(z) + p F(z) ] + y F'(z) + w F(z) = 0,

with the linear differential form  a(z) = b F'(z) + p F(z)  continuous
across interfaces. ``b`` must be regular. Formally hermitian media have
b = b^H, w = w^H and y = -p^H; for these the wavenumber spectrum is real
or closed under conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularMatrixError, StructuralError

HERMITICITY_RTOL = 1e-12

# Regularity threshold for b: condition numbers beyond 1/eps are
# indistinguishable from singular in double precision.
_B_COND_LIMIT = 1.0 / np.finfo(float).eps


def _as_complex_matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise StructuralError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise StructuralError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MslCoefficients:
    """The four coefficient matrices of one homogeneous medium."""

    b: np.ndarray
    p: np.ndarray
    y: np.ndarray
    w: np.ndarray
    label: str = ""

    def __post_init__(self):
        b = _as_complex_matrix(self.b, "b")
        n = b.shape[0]
        object.__setattr__(self, "b", b)
        for name in ("p", "y", "w"):
            m = _as_complex_matrix(getattr(self, name), name)
            if m.shape != (n, n):
                raise StructuralError(
                    f"{name} has shape {m.shape}, expected ({n}, {n})")
            object.__setattr__(self, name, m)
        # the arrays are read-only, so a medium hashes once
        object.__setattr__(self, "_hash", hash(tuple(
            getattr(self, name).tobytes() for name in "bpyw")))

    @property
    def n(self) -> int:
        """System size N (number of coupled second-order equations)."""
        return self.b.shape[0]

    def is_formally_hermitian(self, rtol: float = HERMITICITY_RTOL) -> bool:
        return validate_coefficients(self, hermitian_expected=True,
                                     rtol=rtol).passed

    def __eq__(self, other) -> bool:
        if not isinstance(other, MslCoefficients):
            return NotImplemented
        return (np.array_equal(self.b, other.b)
                and np.array_equal(self.p, other.p)
                and np.array_equal(self.y, other.y)
                and np.array_equal(self.w, other.w))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Violation:
    """One failed validation condition and the size of the violation."""

    condition: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...] = ()

    def messages(self) -> list[str]:
        return [f"{v.condition} (violation {v.magnitude:.3e})"
                for v in self.violations]


def _rel_deviation(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / scale)


def equilibrated_cond(b: np.ndarray) -> float:
    """Condition number after symmetric row/column equilibration.

    Physical units can spread the raw entries of b over many decades
    (elastic constants in Pa against dielectric ones in F/m) without b
    being anywhere near singular; scaling both sides by the square root
    of the dominant row entry measures regularity, not unit choice.
    """
    b = np.asarray(b)
    row_max = np.max(np.abs(b), axis=1)
    if np.any(row_max == 0.0):
        return float("inf")
    d = 1.0 / np.sqrt(row_max)
    return float(np.linalg.cond(b * np.outer(d, d)))


def validate_coefficients(m: MslCoefficients,
                          hermitian_expected: bool = True,
                          rtol: float = HERMITICITY_RTOL) -> ValidationReport:
    """Check regularity of b and, optionally, formal hermiticity.

    The report lists every violated condition with its magnitude; it
    passes only if all checks are within ``rtol`` relative.
    """
    violations: list[Violation] = []

    cond_b = equilibrated_cond(m.b)
    if not np.isfinite(cond_b) or cond_b > _B_COND_LIMIT:
        violations.append(Violation("B singular", float(cond_b)))

    if hermitian_expected:
        dev = _rel_deviation(m.b, m.b.conj().T)
        if dev > rtol:
            violations.append(Violation("B != B^H", dev))
        dev = _rel_deviation(m.w, m.w.conj().T)
        if dev > rtol:
            violations.append(Violation("W != W^H", dev))
        dev = _rel_deviation(m.y, -m.p.conj().T)
        if dev > rtol:
            violations.append(Violation("Y != -P^H", dev))

    return ValidationReport(passed=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class Layer:
    """One finite slab: a medium plus its thickness (length units)."""

    medium: MslCoefficients
    thickness: float

    def __post_init__(self):
        d = float(self.thickness)
        if not math.isfinite(d) or d < 0.0:
            raise StructuralError(
                f"layer thickness must be finite and >= 0, got {self.thickness}")
        object.__setattr__(self, "thickness", d)


@dataclass(frozen=True)
class LayeredStructure:
    """Left half-space, ordered finite layers, right half-space.

    Interface coordinates are derived from the thicknesses with the
    left boundary pinned at z = 0; only thickness differences enter any
    transfer matrix, so the origin choice is observationally irrelevant.
    """

    left: MslCoefficients
    layers: tuple[Layer, ...]
    right: MslCoefficients

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        n = self.left.n
        if self.right.n != n or any(ly.medium.n != n for ly in self.layers):
            sizes = {self.left.n, self.right.n} | {ly.medium.n for ly in self.layers}
            raise StructuralError(f"all media must share the same N, got {sorted(sizes)}")

    @property
    def n(self) -> int:
        return self.left.n

    @property
    def interfaces(self) -> np.ndarray:
        """Coordinates z_l, z_1, ..., z_r (z_l = 0 by convention)."""
        return np.concatenate([[0.0], np.cumsum([ly.thickness for ly in self.layers])])

    @property
    def total_thickness(self) -> float:
        return float(sum(ly.thickness for ly in self.layers))


@dataclass(frozen=True)
class MediumStack:
    """One medium's coefficient matrices at G parameter points.

    ``b``, ``p``, ``y`` and ``w`` are (G, N, N) complex arrays; point g
    is the medium ``MslCoefficients(b[g], p[g], y[g], w[g])``.
    """

    b: np.ndarray
    p: np.ndarray
    y: np.ndarray
    w: np.ndarray

    @classmethod
    def of(cls, m: MslCoefficients) -> "MediumStack":
        return cls(m.b[None], m.p[None], m.y[None], m.w[None])

    @property
    def g(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[-1]


@dataclass(frozen=True)
class StackedStructure:
    """A layered structure bound at G parameter points.

    ``media`` maps a key (a material name, or the medium itself for a
    single bound structure) to its :class:`MediumStack`; ``left``,
    ``right`` and the layers refer to media by key.
    """

    media: dict
    left: object
    right: object
    layers: tuple[tuple[object, float], ...]

    @classmethod
    def of(cls, s: LayeredStructure) -> "StackedStructure":
        """The G = 1 stack of a bound structure, keyed by medium."""
        media = {m: MediumStack.of(m)
                 for m in [s.left, s.right] + [ly.medium for ly in s.layers]}
        return cls(media=media, left=s.left, right=s.right,
                   layers=tuple((ly.medium, ly.thickness) for ly in s.layers))

    @property
    def g(self) -> int:
        return self.media[self.left].g

    @property
    def n(self) -> int:
        return self.media[self.left].n


@dataclass(frozen=True)
class ShPiezoParams:
    """Constants of a shear-horizontal piezoelectric layer problem.

    The field has two components (transverse displacement and electric
    potential), so the resulting medium has N = 2. ``kappa_x`` is the
    in-plane wavenumber and ``omega`` the angular frequency.
    """

    rho: float
    c44: float
    e15: float
    eps11: float
    omega: float
    kappa_x: float

    def __post_init__(self):
        if self.rho <= 0 or self.c44 <= 0:
            raise StructuralError("rho and c44 must be positive")
        if self.eps11 <= 0:
            raise SingularMatrixError(
                "eps11 must be positive (B matrix degenerates otherwise)")

    @property
    def v_surface(self) -> float:
        """Trace speed omega / kappa_x of the wave being sought."""
        return self.omega / self.kappa_x

    @property
    def v_bulk(self) -> float:
        """Bulk SH speed sqrt((c44 + e15^2/eps11) / rho)."""
        return math.sqrt((self.c44 + self.e15 ** 2 / self.eps11) / self.rho)


def make_scalar_medium(b: complex, p: complex = 0.0, y: complex = 0.0,
                       w: complex = 0.0, label: str = "") -> MslCoefficients:
    """N = 1 convenience constructor."""
    if b == 0:
        raise SingularMatrixError("scalar coefficient b must be nonzero")
    return MslCoefficients(b=[[b]], p=[[p]], y=[[y]], w=[[w]], label=label)


def quantum_coefficients(mass: float, potential: float, energy,
                         hbar2_over_2: float = 1.0) -> MediumStack:
    """Effective-mass Schroedinger media at an array of G energies.

    b = hbar^2/(2 m), p = y = 0, w = E - V, so the wavenumbers are
    +-sqrt(2 m (E - V))/hbar (imaginary below the potential).
    """
    if mass <= 0:
        raise StructuralError("mass must be positive")
    if hbar2_over_2 <= 0:
        raise StructuralError("hbar2_over_2 must be positive")
    energy = np.asarray(energy, dtype=float).reshape(-1, 1, 1)
    zero = np.zeros(energy.shape, dtype=complex)
    return MediumStack(b=np.full(energy.shape, hbar2_over_2 / mass,
                                 dtype=complex),
                       p=zero, y=zero, w=(energy - potential).astype(complex))


def make_quantum_medium(mass: float, potential: float, energy: float,
                        hbar2_over_2: float = 1.0,
                        label: str = "") -> MslCoefficients:
    """Effective-mass Schroedinger medium at one energy (see
    :func:`quantum_coefficients`)."""
    st = quantum_coefficients(mass, potential, energy, hbar2_over_2)
    return MslCoefficients(b=st.b[0], p=st.p[0], y=st.y[0], w=st.w[0],
                           label=label)


def sh_piezo_coefficients(rho: float, c44: float, e15: float, eps11: float,
                          omega, kappa_x) -> MediumStack:
    """Shear-horizontal piezoelectric media at G (omega, kappa_x) pairs.

    With F = (u, phi) the coupled equations reduce to

        b = [[c44, e15], [e15, -eps11]],  p = y = 0,
        w = [[rho w^2 - c44 kx^2, -e15 kx^2], [-e15 kx^2, eps11 kx^2]].
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    kx2 = np.atleast_1d(np.asarray(kappa_x, dtype=float)) ** 2
    w = np.empty((max(len(omega), len(kx2)), 2, 2), dtype=complex)
    w[:, 0, 0] = rho * omega ** 2 - c44 * kx2
    w[:, 0, 1] = w[:, 1, 0] = -e15 * kx2
    w[:, 1, 1] = eps11 * kx2
    b = np.repeat(np.array([[[c44, e15], [e15, -eps11]]], dtype=complex),
                  len(w), axis=0)
    zero = np.zeros(w.shape, dtype=complex)
    return MediumStack(b=b, p=zero, y=zero, w=w)


def make_sh_piezo_medium(params: ShPiezoParams, label: str = "") -> MslCoefficients:
    """Coefficient matrices of a shear-horizontal piezoelectric layer.

    See :func:`sh_piezo_coefficients`. The wavenumber spectrum is
    {-i kx, +i kx, k3, -k3} with
    k3^2 = -kx^2 + w^2 rho / (c44 + e15^2/eps11), and the mode shapes are
    (0, 1) for the electrostatic pair and (1, e15/eps11) for the other.
    """
    st = sh_piezo_coefficients(params.rho, params.c44, params.e15,
                               params.eps11, params.omega, params.kappa_x)
    return MslCoefficients(b=st.b[0], p=st.p[0], y=st.y[0], w=st.w[0],
                           label=label)


def sh_piezo_expected_wavenumbers(params: ShPiezoParams) -> tuple[complex, complex]:
    """Closed-form (k1, k3) of the SH-piezo quadratic eigenproblem.

    k1 = -i kappa_x; k3 = -sqrt(-kappa_x^2 + omega^2 rho / c_bar) with
    c_bar = c44 + e15^2/eps11 (principal branch; imaginary when the trace
    speed is below the bulk SH speed). k2 = -k1 and k4 = -k3.
    """
    k1 = -1j * params.kappa_x
    c_bar = params.c44 + params.e15 ** 2 / params.eps11
    k3 = -np.sqrt(complex(-params.kappa_x ** 2
                          + params.omega ** 2 * params.rho / c_bar))
    return k1, complex(k3)
