"""Exception types raised by the library.

Every numerical failure mode gets its own class so that scan drivers can
mask individual grid points (catching :class:`MslError`) while genuine
usage errors keep propagating as standard Python exceptions.
"""

from __future__ import annotations

import numpy as np


class MslError(Exception):
    """Base class for all library-specific errors."""


class StructuralError(MslError):
    """Inconsistent shapes or incompatible system sizes."""


class SingularMatrixError(MslError):
    """A matrix that must be regular is singular (B, T11, T12, K22, ...)."""


class DegenerateModeError(SingularMatrixError):
    """A gamma block or mode matrix is singular because modes coincide."""


class IllConditionedError(MslError):
    """A solve was refused because the condition estimate is too large.

    ``layer_index`` names the layer of a fold whose single-layer matrix
    was refused, when known.
    """

    def __init__(self, message: str, estimate: float | None = None,
                 layer_index: int | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.layer_index = layer_index


class MatrixOverflowError(MslError):
    """An intermediate exceeded the representable floating-point range.

    ``omega_d`` carries max_j |Im k_j| * d when known, distinguishing the
    hard overflow regime from ordinary roundoff degradation.
    """

    def __init__(self, message: str, omega_d: float | None = None,
                 layer_index: int | None = None):
        super().__init__(message)
        self.omega_d = omega_d
        self.layer_index = layer_index


class PartitionError(MslError):
    """Eigenvalues could not be split into N right-going and N left-going."""


class EigensolveError(MslError):
    """The quadratic eigensolve failed or left residuals above tolerance."""


class ResonanceError(MslError):
    """A composition inner factor is singular (physical resonance)."""

    def __init__(self, message: str, sigma_min: float | None = None):
        super().__init__(message)
        self.sigma_min = sigma_min


class ModelingError(MslError):
    """The requested boundary problem is inconsistent with the media."""


class VariantError(MslError):
    """An operation was asked for a block-matrix variant it does not support."""


class StructureFileError(MslError):
    """A structure file failed to parse or validate.

    ``location`` names the offending field (JSON path) or line/column.
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None
                         else f"{message} (at {location})")
        self.location = location


class PointFailures:
    """Per-point status of a stacked evaluation over G parameter points.

    Stacked kernels record the first library error of each point here
    instead of raising, so one failing point masks only itself.
    ``failed`` is the status array; ``errors`` maps a failed point's
    index to its error, exactly as the single-point call would raise it.
    """

    def __init__(self, g: int):
        self.failed = np.zeros(g, dtype=bool)
        self.errors: dict[int, MslError] = {}

    @property
    def all_failed(self) -> bool:
        return bool(self.failed.all())

    def copy(self) -> "PointFailures":
        """An independent record with the same failed points and errors."""
        other = PointFailures(len(self.failed))
        other.failed[:] = self.failed
        other.errors = dict(self.errors)
        return other

    def add(self, mask, make_error) -> None:
        """Record ``make_error(i)`` for every point of the boolean array
        ``mask`` that has not failed yet; earlier failures take
        precedence."""
        if not mask.any():
            return
        for i in np.flatnonzero(mask & ~self.failed):
            self.errors[int(i)] = make_error(int(i))
            self.failed[i] = True

    def raise_first(self) -> None:
        """Raise the error of the lowest failed point (G = 1 wrappers)."""
        if self.errors:
            raise self.errors[min(self.errors)]

    def patch(self, *arrays: np.ndarray) -> None:
        """Overwrite the failed points of each (G, ...) array in place
        with the first live point, so later batched calls stay well posed
        (their results at failed points are never read)."""
        if not self.failed.any() or self.failed.all():
            return
        live = int(np.argmin(self.failed))
        for a in arrays:
            a[self.failed] = a[live]
