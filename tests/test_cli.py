import csv
import functools
import json
import math
import warnings

import numpy as np
import pytest

from mslwave import (Variant, band_scans, band_structure, cli, connect_bands,
                     parse_structure)


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


def test_t_band_scan_brackets_only_finite_values():
    # above E = 3.28 the T matrix of the 250-thick barrier is finite but
    # its Bloch determinant leaves the double range; such values must
    # not bracket roots (the T scan once returned 303 roots here, where
    # H finds one) and must raise no floating-point warning
    defn = parse_structure(json.dumps(kp_doc(THICK[0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scan, = band_scans(defn, [0.3], (0.05, 8.0), Variant.T)
    assert not np.isfinite(scan.values[~scan.masked]).all()
    ends = np.searchsorted(scan.grid, np.array(scan.brackets).reshape(-1))
    assert np.isfinite(scan.values[ends]).all()
    assert all(math.isfinite(r.residual) for r in scan.roots)
