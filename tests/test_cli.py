import csv
import functools
import json
import math
import warnings

import numpy as np
import pytest

from mslwave import (Variant, __version__, band_scans, band_structure, cli,
                     connect_bands, parse_structure, variant_comparison_report)


def kp_doc(barrier_thickness):
    return {"materials": {"a": {"kind": "quantum", "mass": 1.0,
                                "potential": 0.0},
                          "b": {"kind": "quantum", "mass": 1.2,
                                "potential": 10.0}},
            "left": "b", "right": "a",
            "layers": [{"material": "a", "thickness": 1.0},
                       {"material": "b", "thickness": barrier_thickness}]}


# (barrier thickness, --grid, --range) per case; the T scans evaluate
# one energy at a time, so their grids are kept short
THIN = (1.0, "0.2:1.4:3", (0.05, 12.0))
THIN_T = (1.0, "0.7:0.7:1", (0.05, 12.0))
# kappa_B b exceeds the double range below E = 3.28, so the T scan of
# every q masks all but its top few grid energies
THICK = (250.0, "0.3:1.1:2", (0.05, 3.32))


def q_values(grid):
    start, stop, count = grid.split(":")
    return np.linspace(float(start), float(stop), int(count))


def run_bands(tmp_path, case, variant, fmt):
    barrier, grid, (lo, hi) = case
    path = tmp_path / "period.json"
    path.write_text(json.dumps(kp_doc(barrier)), encoding="utf-8")
    out = tmp_path / f"bands.{fmt}"
    argv = ["bands", "--structure", str(path), "--grid", grid,
            "--range", f"{lo!r}:{hi!r}", "--variant", variant,
            "--format", fmt, "--no-meta", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        doc = json.loads(text)
        return doc["columns"], [tuple(row) for row in doc["rows"]]
    header, *rows = csv.reader(text.splitlines())
    return header, [(float(q), float(e) if e else None,
                     float(r) if r else None, int(b) if b else None, status)
                    for q, e, r, b, status in rows]


def ok_rows(bands):
    return sorted((q, e, r, band.branch, "ok")
                  for band in bands for (q, e, r) in band.points)


@functools.lru_cache(maxsize=None)
def library_bands(case, variant):
    barrier, grid, e_range = case
    return ok_rows(band_structure(parse_structure(json.dumps(kp_doc(barrier))),
                                  q_values(grid), e_range, variant))


@functools.lru_cache(maxsize=None)
def library_scans(case, variant):
    barrier, grid, e_range = case
    return band_scans(parse_structure(json.dumps(kp_doc(barrier))),
                      q_values(grid), e_range, variant)


def split_rows(rows):
    ok = sorted(row for row in rows if row[4] == "ok")
    overflow = [row for row in rows if row[4] == "overflow"]
    assert len(ok) + len(overflow) == len(rows)
    return ok, overflow


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("variant,case", [("h", THIN), ("t", THIN_T)])
def test_cli_bands_emits_band_structure_points(tmp_path, variant, case, fmt):
    header, rows = run_bands(tmp_path, case, variant, fmt)
    assert header == ["q", "energy", "residual", "branch", "status"]
    ok, overflow = split_rows(rows)
    want = library_bands(case, Variant(variant.upper()))
    assert len(want) >= len(q_values(case[1]))
    assert ok == want
    assert overflow == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_bands_overflow_rows_name_masked_scans(tmp_path, fmt):
    assert math.sqrt(1.2 * (10.0 - 3.28)) * THICK[0] > 709.78
    scans = library_scans(THICK, Variant.T)
    q_grid = q_values(THICK[1])
    masked_qs = [float(q) for q, scan in zip(q_grid, scans)
                 if scan.masked.any()]
    assert masked_qs == list(q_grid)
    assert not all(scan.masked.all() for scan in scans)

    _, rows = run_bands(tmp_path, THICK, "t", fmt)
    ok, overflow = split_rows(rows)
    assert ok == ok_rows(connect_bands(q_grid, scans))
    assert [row[0] for row in overflow] == masked_qs
    assert all(row[1:4] == (None, None, None) for row in overflow)
    # rows are in q order, the overflow row after the roots of its q
    assert [row[0] for row in rows] == sorted(row[0] for row in rows)
    for q in masked_qs:
        assert [row[4] for row in rows if row[0] == q][-1] == "overflow"

    # the H scans of the same period mask nothing
    _, h_rows = run_bands(tmp_path, THICK, "h", fmt)
    assert split_rows(h_rows)[1] == []


# the 250-thick barrier of THICK, heavier (m = 1.3) and after a wider
# well (d = 1.1): its T scan has inf next to exact 0.0 values
HEAVY_DOC = {"materials": {"a": {"kind": "quantum", "mass": 1.0,
                                 "potential": 0.0},
                           "b": {"kind": "quantum", "mass": 1.3,
                                 "potential": 10.0}},
             "left": "b", "right": "a",
             "layers": [{"material": "a", "thickness": 1.1},
                        {"material": "b", "thickness": THICK[0]}]}


@pytest.mark.parametrize("doc,q", [(kp_doc(THICK[0]), 0.3), (HEAVY_DOC, 0.7)],
                         ids=["thick", "heavy"])
def test_t_band_scan_brackets_only_finite_values(doc, q):
    # above E = 3.28 the T matrix of the 250-thick barrier is finite but
    # its Bloch determinant leaves the double range; such values must
    # not bracket roots (the T scan once returned 303 roots here, where
    # H finds one) and must raise no floating-point warning
    defn = parse_structure(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scan, = band_scans(defn, [q], (0.05, 8.0), Variant.T)
    assert not np.isfinite(scan.values[~scan.masked]).all()
    ends = np.searchsorted(scan.grid, np.array(scan.brackets).reshape(-1))
    assert np.isfinite(scan.values[ends]).all()
    assert all(math.isfinite(r.residual) for r in scan.roots)


def test_cli_takes_grid_and_range_values_that_start_with_minus(tmp_path):
    # a q grid across the Brillouin zone starts below zero; given as a
    # separate argument it must not be read as an option
    path = tmp_path / "period.json"
    path.write_text(json.dumps(kp_doc(1.0)), encoding="utf-8")
    out = tmp_path / "bands.csv"

    def bands(*args):
        assert cli.main(["bands", "--structure", str(path), "--out", str(out),
                         *args]) == cli.EXIT_OK
        return out.read_bytes()

    spaced = bands("--grid", "-1.5:1.5:3", "--range", "0.05:5")
    assert spaced == bands("--grid=-1.5:1.5:3", "--range", "0.05:5")
    assert spaced.count(b"\r\n-1.5,") >= 1
    below = bands("--grid", "-1.5:1.5:3", "--range", "-0.5:5")
    assert below == bands("--grid=-1.5:1.5:3", "--range=-0.5:5")


def run_escape(tmp_path, doc, *args):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "escape.csv"
    code = cli.main(["escape", "--structure", str(path), "--no-meta",
                     "--out", str(out), *args])
    return code, out


@pytest.mark.parametrize("grid", ["0.1:5:1", "5:0.1:50"])
def test_cli_escape_rejects_a_grid_that_cannot_be_scanned(tmp_path, capsys,
                                                          grid):
    # one point, or points in descending order, is a usage error and
    # not a traceback out of the scan
    code, out = run_escape(tmp_path, kp_doc(1.0), "--grid", grid)
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "1e-400"])
@pytest.mark.parametrize("command,args", [
    ("escape", ["--grid", "0.1:5:10"]),
    ("bands", ["--grid", "0.7:0.7:1", "--range", "0.05:5"])])
def test_cli_scans_reject_a_tol_that_is_not_finite_and_positive(
        tmp_path, capsys, command, args, tol):
    # a NaN --tol used to print only the header, dropping every root, and
    # --tol <= 0 refined every bracket for thousands of rounds
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(kp_doc(1.0)), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main([command, "--structure", str(path), "--out", str(out),
                     f"--tol={tol}", *args]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --tol: tol must be finite "
                          "and > 0, got ")
    assert not out.exists()


def _bad_number_docs():
    nan_thickness = kp_doc(1.0)
    nan_thickness["layers"][0]["thickness"] = float("nan")
    string_hbar2 = kp_doc(1.0)
    string_hbar2["materials"]["a"]["hbar2_over_2"] = "x"
    return [(nan_thickness, "layers[0].thickness"),
            (string_hbar2, "materials.a.hbar2_over_2")]


@pytest.mark.parametrize("command,args", [
    ("escape", ["--grid", "0.1:5:10"]), ("validate", []),
    ("bands", ["--grid", "0.7:0.7:1", "--range", "0.05:5"]),
    ("stability", ["--grid", "0.5:1:2", "--energy", "2.0"])])
@pytest.mark.parametrize("doc,where", _bad_number_docs(),
                         ids=["nan-thickness", "string-hbar2"])
def test_cli_rejects_numbers_that_are_not_finite(tmp_path, capsys, command,
                                                 args, doc, where):
    # every command rejects the file as invalid input, naming the field,
    # rather than dropping the layer or ending in a traceback
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main([command, "--structure", str(path), *args]) \
        == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"(at {where})\n")


PZT = {"A": {"kind": "sh_piezo", "rho": 7500.0, "c44": 2.56e10,
             "e15": 12.7, "eps11": 6.46e-9},
       "B": {"kind": "sh_piezo", "rho": 7750.0, "c44": 2.11e10,
             "e15": 12.3, "eps11": 8.11e-9}}
PIEZO_DOC = {"materials": PZT, "left": "A", "right": "A",
             "layers": [{"material": "B", "thickness": 20e-6}]}


@pytest.mark.parametrize("variant", ["t", "e", "s"])
def test_cli_piezo_escape_rejects_variants_other_than_h(tmp_path, capsys,
                                                        variant):
    # piezo speeds are scanned in the H form only, so another variant
    # would label H roots with its name
    code, out = run_escape(tmp_path, PIEZO_DOC, "--grid", "2000:2500:8",
                           "--omega", "3.8e8", "--variant", variant)
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("variant", ["t", "s"])
def test_cli_energy_escape_rejects_variants_other_than_h_and_e(
        tmp_path, capsys, variant):
    # the escape secular determinant has an H and an E form only
    code, out = run_escape(tmp_path, kp_doc(1.0), "--grid", "0.1:5:10",
                           "--variant", variant)
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage error: energy escape scans use the H or E variant, "
        f"got --variant {variant}\n")
    assert not out.exists()


def test_cli_piezo_escape_runs_the_h_variant(tmp_path):
    code, out = run_escape(tmp_path, PIEZO_DOC, "--grid", "2270:2590:40",
                           "--omega", "3.8e8", "--variant", "h",
                           "--tol", "1e-6")
    assert code == cli.EXIT_OK
    header, *rows = csv.reader(out.read_text(encoding="utf-8").splitlines())
    assert header == ["v_s", "root", "residual", "variant"]
    assert rows and all(row[3] == "h" for row in rows)


def msl_doc(b, w, name="m"):
    return {"materials": {name: {"kind": "msl", "b": [[b]], "p": [[0.0]],
                                 "y": [[0.0]], "w": [[w]]}},
            "left": name, "right": name,
            "layers": [{"material": name, "thickness": 1.0}]}


@pytest.mark.parametrize("doc,args,code", [
    (kp_doc(1.0), [], cli.EXIT_OK),
    ("{", [], cli.EXIT_INPUT),
    # a complex w is lossy: W != W^H
    (msl_doc(1.0, [1.0, 0.5]), [], cli.EXIT_VALIDATION),
    (msl_doc(1.0, [1.0, 0.5]), ["--allow-lossy"], cli.EXIT_OK),
    # the material name is printed, but a failure is classed by its
    # condition alone
    (msl_doc(1.0, [1.0, 0.5], name="nonsingular"), ["--allow-lossy"],
     cli.EXIT_OK),
    # a singular b fails whatever is allowed
    (msl_doc(0.0, 1.0), ["--allow-lossy"], cli.EXIT_VALIDATION),
], ids=["valid", "unparseable", "lossy", "lossy-allowed",
        "lossy-allowed-named-singular", "singular"])
def test_cli_validate_exit_codes(tmp_path, capsys, doc, args, code):
    path = tmp_path / "structure.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc),
                    encoding="utf-8")
    assert cli.main(["validate", "--structure", str(path), *args]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("pass --allow-lossy" in captured.err) == (
        code == cli.EXIT_VALIDATION and not args)


@pytest.mark.parametrize("grid,scales", [
    ("0.5:3:4", np.linspace(0.5, 3.0, 4)),
    # a grid spanning more than a factor 100 is sampled geometrically
    ("0.01:3:4", np.geomspace(0.01, 3.0, 4)),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_stability_rows_are_the_report(tmp_path, fmt, grid, scales):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(kp_doc(1.0)), encoding="utf-8")
    out = tmp_path / f"stability.{fmt}"
    assert cli.main(["stability", "--structure", str(path), "--grid", grid,
                     "--energy", "2.0", "--format", fmt,
                     "--out", str(out)]) == cli.EXIT_OK
    report = variant_comparison_report(
        parse_structure(json.dumps(kp_doc(1.0))).bind(energy=2.0), scales)
    assert [row[0] for row in report.rows] == list(scales)
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        doc = json.loads(text)
        assert doc["meta"] == {"tool": "mslwave", "version": __version__}
        assert doc["columns"] == list(report.columns)
        assert doc["rows"] == [list(row) for row in report.rows]
        return
    meta, header, *rows = csv.reader(text.splitlines())
    assert meta == ["# mslwave", __version__,
                    f"unit_roundoff={report.unit_roundoff!r}"]
    assert header == list(report.columns)
    assert rows == [["" if v is None else repr(v) if isinstance(v, float)
                     else v for v in row] for row in report.rows]


def test_cli_stability_rejects_an_unreadable_structure(tmp_path, capsys):
    code = cli.main(["stability", "--structure", str(tmp_path / "none.json"),
                     "--grid", "0.5:3:4"])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("invalid input: ")


def test_cli_stability_of_quantum_structures_needs_an_energy(tmp_path,
                                                             capsys):
    # at E = 0 the well of potential 0 has k = 0 and no mode basis, so a
    # quantum structure gets no default energy
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(kp_doc(1.0)), encoding="utf-8")
    argv = ["stability", "--structure", str(path), "--grid", "0.5:1:2"]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert "--energy" in captured.err
    # media that do not read the energy are bound as before
    path.write_text(json.dumps(msl_doc(1.0, -1.0)), encoding="utf-8")
    assert cli.main(argv) == cli.EXIT_OK
    plain = capsys.readouterr().out
    assert cli.main(argv + ["--energy", "0.0"]) == cli.EXIT_OK
    assert capsys.readouterr().out == plain


def test_cli_stability_binds_at_omega_zero(tmp_path, capsys):
    # --omega 0 is a frequency like any other; only an absent --omega
    # binds at 1
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(PIEZO_DOC), encoding="utf-8")
    argv = ["stability", "--structure", str(path), "--grid", "0.5:2:3",
            "--no-meta"]
    out = {}
    for omega in (None, 0.0, 1.0):
        assert cli.main(argv + ([] if omega is None else
                                ["--omega", str(omega)])) == cli.EXIT_OK
        out[omega] = capsys.readouterr().out
        report = variant_comparison_report(parse_structure(json.dumps(
            PIEZO_DOC)).bind(omega=1.0 if omega is None else omega),
            np.linspace(0.5, 2.0, 3))
        assert out[omega] == report.to_csv(include_meta=False)
    assert out[None] == out[1.0] != out[0.0]


# options that a command does not read, with a value where one is taken
@pytest.mark.parametrize("command,option", [
    ("validate", ["--tol", "1e-8"]), ("validate", ["--out", "x.csv"]),
    ("validate", ["--format", "json"]), ("validate", ["--no-meta"]),
    ("validate", ["--omega", "1.0"]), ("validate", ["--energy", "1.0"]),
    ("bands", ["--allow-lossy"]), ("bands", ["--omega", "1.0"]),
    ("bands", ["--energy", "1.0"]),
    ("escape", ["--allow-lossy"]), ("escape", ["--energy", "1.0"]),
    ("stability", ["--tol", "1e-8"]), ("stability", ["--allow-lossy"]),
])
def test_cli_rejects_options_the_command_does_not_read(tmp_path, capsys,
                                                       command, option):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(kp_doc(1.0)), encoding="utf-8")
    argv = [command, "--structure", str(path), *{
        "validate": [],
        "bands": ["--grid", "0.7:0.7:1", "--range", "0.05:5"],
        "escape": ["--grid", "0.1:5:10"],
        "stability": ["--grid", "0.5:1:2", "--energy", "2.0"]}[command]]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(argv + option) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and option[0] in err
