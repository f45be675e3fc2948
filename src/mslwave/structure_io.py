"""Structure-file ingestion and serialization.

Files are UTF-8 JSON with four top-level keys::

    {
      "materials": {
        "A": {"kind": "msl", "b": [[[1.0, 0.0]]], "p": ..., "y": ..., "w": ...},
        "Q": {"kind": "quantum", "mass": 1.0, "potential": 0.0},
        "Z": {"kind": "sh_piezo", "rho": 7500.0, "c44": 2.56e10,
               "e15": 12.7, "eps11": 6.46e-9}
      },
      "left": "A",
      "right": "A",
      "layers": [{"material": "Q", "thickness": 1.0}, ...]
    }

Complex matrix entries are nested arrays of ``[re, im]`` pairs; bare
numbers are read as real. Units are documented per problem class, not
enforced. ``quantum`` materials need an energy to become concrete media
and ``sh_piezo`` materials need (omega, kappa_x); both are supplied at
bind time so solvers can sweep them, a whole array of points at once
(:meth:`StructureDefinition.bind_stack`) or one point, its G = 1 case
(:meth:`StructureDefinition.bind`).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import PointFailures, StructuralError, StructureFileError
from .media import (Layer, LayeredStructure, MediumStack, MslCoefficients,
                    StackedStructure, quantum_coefficients,
                    sh_piezo_coefficients)

_KINDS = ("msl", "quantum", "sh_piezo")


def _is_number(v) -> bool:
    # json reads true and false as bool, a subclass of int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v, what: str, where: str) -> float:
    """The JSON number ``v`` as a float, if it lies in the double range."""
    # json reads NaN, Infinity and 1e999 as floats, and an integer may
    # lie past the double range
    if not abs(v) <= sys.float_info.max:
        raise StructureFileError(f"{what} must be finite", where)
    return float(v)


def _complex_entry(value, where: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if not all(map(_is_number, parts)):
        raise StructureFileError(
            "matrix entries must be numbers or [re, im] pairs", where)
    return complex(*(_finite(v, "matrix entries", where) for v in parts))


def _complex_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise StructureFileError("expected a nested array matrix", where)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise StructureFileError("expected a matrix row", f"{where}[{i}]")
        rows.append([_complex_entry(e, f"{where}[{i}][{j}]")
                     for j, e in enumerate(row)])
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise StructureFileError("matrix must be square", where)
    return np.array(rows, dtype=complex)


def _require_number(entry: dict, key: str, where: str) -> float:
    if key not in entry:
        raise StructureFileError(f"missing field '{key}'", where)
    v = entry[key]
    if not _is_number(v):
        raise StructureFileError(f"field '{key}' must be a number", f"{where}.{key}")
    return _finite(v, f"field '{key}'", f"{where}.{key}")


@dataclass(frozen=True)
class MaterialDef:
    """A parsed material entry, not yet bound to scan parameters."""

    name: str
    kind: str
    n: int
    fields: dict

    def bind_stack(self, energy: np.ndarray, omega: np.ndarray,
                   kappa_x: np.ndarray) -> MediumStack:
        """The medium at G points given as equally long 1-D arrays."""
        if self.kind == "msl":
            g = len(energy)
            return MediumStack(*(np.repeat(self.fields[key][None], g, axis=0)
                                 for key in ("b", "p", "y", "w")))
        if self.kind == "quantum":
            return quantum_coefficients(
                self.fields["mass"], self.fields["potential"], energy,
                self.fields["hbar2_over_2"])
        return sh_piezo_coefficients(
            self.fields["rho"], self.fields["c44"], self.fields["e15"],
            self.fields["eps11"], omega, kappa_x)


@dataclass(frozen=True)
class StructureDefinition:
    """Validated structure file: materials table plus the layer stack."""

    materials: dict[str, MaterialDef]
    left: str
    right: str
    layers: tuple[tuple[str, float], ...]

    @property
    def kinds(self) -> set[str]:
        return {m.kind for m in self.materials.values()}

    def bind(self, energy: float = 0.0, omega: float = 1.0,
             kappa_x: float = 1.0) -> LayeredStructure:
        """Build concrete media and return the bound structure.

        The one-point case of :meth:`bind_stack`, whose first failure it
        raises; each medium is labelled with its material name.
        """
        fails = PointFailures(1)
        st = self.bind_stack(fails, energy, omega, kappa_x)
        fails.raise_first()
        media = {name: MslCoefficients(m.b[0], m.p[0], m.y[0], m.w[0],
                                       label=name)
                 for name, m in st.media.items()}
        return LayeredStructure(
            left=media[self.left],
            layers=tuple(Layer(media[name], d) for name, d in self.layers),
            right=media[self.right])

    def bind_stack(self, fails: PointFailures, energy=0.0, omega=1.0,
                   kappa_x=1.0) -> StackedStructure:
        """Bind every material at G points at once.

        ``energy``, ``omega`` and ``kappa_x`` broadcast to one 1-D array
        of G points; media are keyed by material name. A point whose
        media have non-finite coefficients is recorded in ``fails``; a
        material that cannot bind at all fails every point and is left
        out.
        """
        points = [np.atleast_1d(np.asarray(v, dtype=float))
                  for v in (energy, omega, kappa_x)]
        g = max(len(v) for v in points)
        energy, omega, kappa_x = (v if len(v) == g else np.full(g, v.item())
                                  for v in points)
        media = {}
        for name, mat in self.materials.items():
            try:
                st = mat.bind_stack(energy, omega, kappa_x)
            except StructuralError as exc:
                fails.add(np.ones(g, dtype=bool),
                          lambda i, exc=exc: exc)
                continue
            for key in ("b", "p", "y", "w"):
                fails.add(~np.isfinite(getattr(st, key)).all(axis=(1, 2)),
                          lambda i, key=key: StructuralError(
                              f"{key} contains non-finite entries"))
            media[name] = st
        for st in media.values():
            fails.patch(st.b, st.p, st.y, st.w)
        return StackedStructure(media=media, left=self.left, right=self.right,
                                layers=self.layers)


def _parse_material(name: str, entry, where: str) -> MaterialDef:
    if not isinstance(entry, dict):
        raise StructureFileError("material entry must be an object", where)
    kind = entry.get("kind")
    if kind not in _KINDS:
        raise StructureFileError(
            f"material kind must be one of {_KINDS}, got {kind!r}", f"{where}.kind")
    if kind == "msl":
        mats = {}
        for key in ("b", "p", "y", "w"):
            if key not in entry:
                raise StructureFileError(f"missing matrix '{key}'", where)
            mats[key] = _complex_matrix(entry[key], f"{where}.{key}")
        n = mats["b"].shape[0]
        if any(m.shape != (n, n) for m in mats.values()):
            raise StructureFileError("b, p, y, w must share one size", where)
        return MaterialDef(name, "msl", n, mats)
    if kind == "quantum":
        fields = {
            "mass": _require_number(entry, "mass", where),
            "potential": _require_number(entry, "potential", where),
            "hbar2_over_2": (_require_number(entry, "hbar2_over_2", where)
                             if "hbar2_over_2" in entry else 1.0),
        }
        if fields["mass"] <= 0:
            raise StructureFileError("mass must be positive", f"{where}.mass")
        return MaterialDef(name, "quantum", 1, fields)
    fields = {key: _require_number(entry, key, where)
              for key in ("rho", "c44", "e15", "eps11")}
    for key in ("rho", "c44", "eps11"):
        if fields[key] <= 0:
            raise StructureFileError(f"{key} must be positive", f"{where}.{key}")
    return MaterialDef(name, "sh_piezo", 2, fields)


def parse_structure(text: str) -> StructureDefinition:
    """Parse and validate structure-file text (see module docstring)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureFileError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    if not isinstance(doc, dict):
        raise StructureFileError("top level must be an object", "$")

    mats_entry = doc.get("materials")
    if not isinstance(mats_entry, dict) or not mats_entry:
        raise StructureFileError("missing or empty 'materials' table", "materials")
    materials = {name: _parse_material(name, entry, f"materials.{name}")
                 for name, entry in mats_entry.items()}

    def _material_ref(key: str) -> str:
        name = doc.get(key)
        if not isinstance(name, str):
            raise StructureFileError(f"'{key}' must name a material", key)
        if name not in materials:
            raise StructureFileError(f"unknown material {name!r}", key)
        return name

    left = _material_ref("left")
    right = _material_ref("right")

    layers_entry = doc.get("layers")
    if not isinstance(layers_entry, list):
        raise StructureFileError("'layers' must be a list", "layers")
    layers: list[tuple[str, float]] = []
    for i, item in enumerate(layers_entry):
        where = f"layers[{i}]"
        if not isinstance(item, dict):
            raise StructureFileError("layer must be an object", where)
        name = item.get("material")
        if not isinstance(name, str) or name not in materials:
            raise StructureFileError(f"unknown material {name!r}", f"{where}.material")
        d = _require_number(item, "thickness", where)
        if d < 0:
            raise StructureFileError("negative thickness", f"{where}.thickness")
        layers.append((name, d))

    sizes = {m.n for m in materials.values()
             if m.name in {left, right} | {nm for nm, _ in layers}}
    if len(sizes) > 1:
        raise StructureFileError(
            f"mixed system sizes N in one structure: {sorted(sizes)}", "materials")

    return StructureDefinition(materials=materials, left=left, right=right,
                               layers=tuple(layers))


def load_structure(source, energy: float = 0.0, omega: float = 1.0,
                   kappa_x: float = 1.0) -> LayeredStructure:
    """Load and bind a structure from text or a file path."""
    text = source
    if hasattr(source, "read_text"):
        text = source.read_text(encoding="utf-8")
    elif isinstance(source, str) and "\n" not in source and not source.lstrip().startswith("{"):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    return parse_structure(text).bind(energy=energy, omega=omega, kappa_x=kappa_x)


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


def serialize_structure(s: LayeredStructure) -> str:
    """Serialize a bound structure to structure-file text.

    All media are emitted as explicit ``msl`` entries, so the result
    round-trips to an equal structure regardless of how the media were
    originally built.
    """
    media: list[MslCoefficients] = []
    names: dict[int, str] = {}

    def register(m: MslCoefficients) -> str:
        for i, seen in enumerate(media):
            if seen == m:
                return names[i]
        j = len(media)
        name = m.label or f"M{j}"
        # a label may be another medium's name: take the first free M<j>
        while name in names.values():
            name, j = f"M{j}", j + 1
        names[len(media)] = name
        media.append(m)
        return name

    left = register(s.left)
    right = register(s.right)
    layers = [{"material": register(ly.medium), "thickness": ly.thickness}
              for ly in s.layers]
    doc = {
        "materials": {
            names[i]: {"kind": "msl",
                       "b": _matrix_to_json(m.b), "p": _matrix_to_json(m.p),
                       "y": _matrix_to_json(m.y), "w": _matrix_to_json(m.w)}
            for i, m in enumerate(media)
        },
        "left": left,
        "right": right,
        "layers": layers,
    }
    return json.dumps(doc, indent=2)
