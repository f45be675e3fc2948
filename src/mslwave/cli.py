"""Command-line front end.

Commands: ``validate``, ``bands``, ``escape``, ``stability``. Output is
CSV by default (JSON mirrors the same records); all data rows are
deterministic, and the single metadata comment line carries only the
tool version so repeated runs are byte-identical.

Exit codes: 0 success, 1 usage, 2 input invalid, 3 validation failure,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from ._table import csv_text
from .errors import MslError, StructureFileError, StructuralError
from .media import validate_coefficients
from .propagators import Variant
from .solvers import (_check_tol, band_scans, connect_bands,
                      escape_energy_scan, sh_wave_speeds)
from .structure_io import parse_structure
from .verify import variant_comparison_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Write ``--grid -1.5:1.5:3`` as ``--grid=-1.5:1.5:3``: argparse
    reads a separate value that starts with '-' (a q grid across the
    Brillouin zone, a range below zero) as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--grid", "--range") and arg.startswith("-"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--grid must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _UsageError(f"bad --grid value {text!r}: {exc}") from None
    if count < 0:
        raise _UsageError("--grid count must be >= 0")
    return np.linspace(start, stop, count)


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"--range must be lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise _UsageError(f"bad --range value {text!r}: {exc}") from None
    if not hi > lo:
        raise _UsageError("--range needs hi > lo")
    return lo, hi


def _parse_tol(text: str) -> float:
    """--tol as the scans check it; argparse reports a rejected value as
    a usage error."""
    try:
        return _check_tol(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_structure(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructureFileError(f"cannot read {path}: {exc}") from exc
    return parse_structure(text)


def _emit(columns, rows, args, meta_extra: str = "") -> None:
    if args.format == "json":
        doc = {"columns": list(columns), "rows": [list(r) for r in rows]}
        if not args.no_meta:
            doc["meta"] = {"tool": "mslwave", "version": __version__}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = csv_text(None if args.no_meta
                        else f"mslwave,{__version__}{meta_extra}", columns, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    try:
        defn = _read_structure(args.structure)
        bound = defn.bind()
    except (StructureFileError, StructuralError) as exc:
        print(f"invalid structure: {exc}", file=sys.stderr)
        return EXIT_INPUT
    hard = lossy = False
    media = [("left", bound.left), ("right", bound.right)] + [
        (f"layer {i} ({ly.medium.label or 'unnamed'})", ly.medium)
        for i, ly in enumerate(bound.layers)]
    for where, medium in media:
        report = validate_coefficients(medium)
        for violation, msg in zip(report.violations, report.messages()):
            print(f"{where}: {msg}", file=sys.stderr)
            if violation.condition == "B singular":
                hard = True
            else:
                lossy = True
    if hard:
        return EXIT_VALIDATION
    if lossy and not args.allow_lossy:
        print("non-hermitian media present (pass --allow-lossy to accept)",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_bands(args) -> int:
    defn = _read_structure(args.structure)
    if "quantum" not in defn.kinds:
        raise StructureFileError(
            "bands scans energy; the structure needs quantum materials")
    q_grid = _parse_grid(args.grid)
    e_range = _parse_range(args.range)
    variant = Variant(args.variant.upper())
    scans = band_scans(defn, q_grid, e_range, variant, tol=args.tol)
    rows = [(q, e_val, res, band.branch, "ok")
            for band in connect_bands(q_grid, scans)
            for (q, e_val, res) in band.points]
    # a q whose scan masked a grid energy gets one overflow row
    rows += [(float(q), None, None, None, "overflow")
             for q, scan in zip(q_grid, scans) if scan.masked.any()]
    rows.sort(key=lambda r: (r[0], r[1] if r[1] is not None else np.inf))
    _emit(("q", "energy", "residual", "branch", "status"), rows, args)
    return EXIT_OK


def _cmd_escape(args) -> int:
    defn = _read_structure(args.structure)
    grid = _parse_grid(args.grid)
    if len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise _UsageError("escape --grid must be increasing with count >= 2, "
                          f"got {args.grid!r}")
    variant = Variant(args.variant.upper())
    if "sh_piezo" in defn.kinds:
        if args.omega is None:
            raise _UsageError("piezo escape scans need --omega <rad/s>")
        if variant is not Variant.H:
            raise _UsageError("piezo escape scans use the H variant only, "
                              f"got --variant {args.variant}")
        scan = sh_wave_speeds(defn, omega=args.omega, v_grid=grid,
                              tol=args.tol)
    else:
        if variant not in (Variant.H, Variant.E):
            raise _UsageError("energy escape scans use the H or E variant, "
                              f"got --variant {args.variant}")
        scan = escape_energy_scan(defn, grid, variant, tol=args.tol)
    _emit(*scan.root_table(args.variant), args)
    return EXIT_OK


def _cmd_stability(args) -> int:
    defn = _read_structure(args.structure)
    if args.energy is None and "quantum" in defn.kinds:
        # no default energy serves every quantum structure: at E = 0 a
        # well of potential 0 has k = 0 and no mode basis
        raise _UsageError("stability of a structure with quantum materials "
                          "needs --energy <E>")
    bound = defn.bind(energy=0.0 if args.energy is None else args.energy,
                      omega=1.0 if args.omega is None else args.omega)
    grid = _parse_grid(args.grid)
    if len(grid) and np.all(grid > 0) and grid[0] != grid[-1] \
            and max(grid[0], grid[-1]) / min(grid[0], grid[-1]) > 100.0:
        grid = np.geomspace(grid[0], grid[-1], len(grid))
    report = variant_comparison_report(bound, grid)
    meta = f",unit_roundoff={report.unit_roundoff!r}"
    _emit(report.columns, report.rows, args, meta_extra=meta)
    return EXIT_OK


# every option of the commands, in the order --help lists them
_OPTIONS = {
    "--structure": dict(required=True, help="structure file path"),
    "--grid": dict(required=True, help="start:stop:count"),
    "--range": dict(required=True, help="lo:hi"),
    "--variant": dict(choices=("t", "h", "e", "s"), default="h"),
    "--tol": dict(type=_parse_tol, default=1e-10),
    "--out": dict(default=None, help="output path (default stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--allow-lossy": dict(action="store_true"),
    "--no-meta": dict(action="store_true"),
    "--omega": dict(type=float, default=None,
                    help="angular frequency (piezo problems)"),
    "--energy": dict(type=float, default=None,
                     help="binding energy for quantum media (stability)"),
}
_OUTPUT = ("--out", "--format", "--no-meta")
# each command takes only the options its handler reads
_COMMANDS = {
    "validate": ("validate a structure file", ("--allow-lossy",)),
    "bands": ("Bloch band structure",
              ("--grid", "--range", "--variant", "--tol") + _OUTPUT),
    "escape": ("escape/bound-state roots",
               ("--grid", "--variant", "--tol", "--omega") + _OUTPUT),
    "stability": ("variant stability sweep",
                  ("--grid", "--omega", "--energy") + _OUTPUT),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="mslwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, kwargs in _OPTIONS.items():
            if flag == "--structure" or flag in options:
                p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(
            sys.argv[1:] if argv is None else argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {"validate": _cmd_validate, "bands": _cmd_bands,
                "escape": _cmd_escape, "stability": _cmd_stability}
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StructureFileError, StructuralError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MslError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
