"""The four benchmark workloads: seeded inputs, the timed call, checks.

Each workload turns a seed into a few independent instances
(``make``), makes them ready to run (``prepare``: parsing structures or
writing structure files), runs one instance through the public
``mslwave`` API (``run``, the timed part) and checks one output against
an independent oracle (``check``, untimed). ``thin`` gives a smaller
call on the same structure for the traced-memory measurement: the
first tenth of the scan grid or energy range (of the first q point for
``bands``), or every 4th scale. The library only ever sees the
generated inputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

# Two PZT ceramics with the slower one (B) inside the faster one (A),
# so guided SH speeds exist between the two bulk speeds.
PZT_A = {"rho": 7500.0, "c44": 2.56e10, "e15": 12.7, "eps11": 6.46e-9}
PZT_B = {"rho": 7750.0, "c44": 2.11e10, "e15": 12.3, "eps11": 8.11e-9}
PIEZO_OMEGA = 2.0 * math.pi * 60e6

BANDS_E_RANGE = (0.05, 40.0)
# T overflows once its growth leaves the double range: exp(709.78).
LOG_DOUBLE_MAX = math.log(np.finfo(float).max)
# Target total growth of the stability rows, as multiples of
# LOG_DOUBLE_MAX. The ratio 1.25 between rows keeps every row at least
# 9% away from 1; the T fold of these stacks overflows between 1.00 and
# 1.03, so the expected T status of every row is unambiguous.
STABILITY_GROWTH = 2.2 / 1.25 ** np.arange(19, -1, -1)


@dataclass
class Quality:
    """Oracle comparison of one workload output."""

    attempted: int = 0          # grid points, band rows or variant folds
    failed: int = 0             # masked points, overflow rows, non-ok folds
    oracle_roots: int = 0
    scan_roots: int = 0
    missed: int = 0
    spurious: int = 0
    check_fail: int = 0
    root_errs: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add_roots(self, oracle_roots, scan_roots) -> None:
        missed, spurious, errs = oracles.match_roots(oracle_roots, scan_roots)
        self.oracle_roots += len(oracle_roots)
        self.scan_roots += len(scan_roots)
        self.missed += len(missed)
        self.spurious += len(spurious)
        self.root_errs += errs
        self.notes += [f"missed {r!r}" for r in missed]
        self.notes += [f"spurious {r!r}" for r in spurious]

    def fail(self, why: str) -> None:
        self.check_fail += 1
        self.notes.append(f"check failed: {why}")

    def merge(self, other: "Quality", label: str) -> None:
        for key in ("attempted", "failed", "oracle_roots", "scan_roots",
                    "missed", "spurious", "check_fail"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        self.root_errs += other.root_errs
        self.notes += [f"{label}: {note}" for note in other.notes]


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), index])


def _quantum(mass: float, potential: float) -> dict:
    return {"kind": "quantum", "mass": mass, "potential": potential}


def _structure_doc(materials, left, right, layers) -> dict:
    return {"materials": materials, "left": left, "right": right,
            "layers": [{"material": nm, "thickness": d} for nm, d in layers]}


def _scan_quality(scan, oracle_roots) -> Quality:
    q = Quality(attempted=len(scan.grid), failed=int(np.sum(scan.masked)))
    q.add_roots(oracle_roots, scan.root_values())
    return q


def _check_expm_layers(q: Quality, defn, layer_ms, bind_kwargs, x) -> None:
    """Cross-check the oracle's own layer exponentials against
    ``verify.expm_propagator`` on the library's bound media at ``x``."""
    from mslwave import expm_propagator
    bound = defn.bind(**bind_kwargs(x))
    for (mfun, d), layer in zip(layer_ms, bound.layers):
        want = oracles.layer_expm(mfun, d, np.array([x]))[0]
        got = expm_propagator(layer.medium, layer.thickness).data
        if np.max(np.abs(got - want)) > 1e-9 * max(1.0, np.max(np.abs(want))):
            q.fail(f"oracle layer expm disagrees with expm_propagator at {x!r}")
            return


class Escape:
    """10-layer coupled multi-well: 5 wells and 5 barriers between walls,
    scanned for bound states with the H variant."""

    name = "escape"
    grid_points = {"full": 400, "tiny": 40}
    wells = {"full": 5, "tiny": 2}

    def make(self, seed: int, index: int, size: str) -> dict:
        rng = _rng(seed, self.name, index)
        v_wall = float(rng.uniform(9.8, 10.2))
        v_barrier = float(rng.uniform(7.6, 8.4))
        layers = []
        for _ in range(self.wells[size]):
            layers.append(("well", float(rng.uniform(1.0, 1.4))))
            layers.append(("barrier", float(rng.uniform(0.4, 0.6))))
        doc = _structure_doc({"wall": _quantum(1.0, v_wall),
                              "well": _quantum(1.0, 0.0),
                              "barrier": _quantum(1.0, v_barrier)},
                             "wall", "wall", layers)
        return {"doc": doc, "grid": (0.05, 0.95 * v_wall,
                                     self.grid_points[size])}

    def prepare(self, spec: dict, workdir: str):
        from mslwave import parse_structure
        lo, hi, n = spec["grid"]
        return spec, parse_structure(json.dumps(spec["doc"])), \
            np.linspace(lo, hi, n)

    def run(self, ready):
        from mslwave import escape_energy_scan
        _, defn, grid = ready
        return escape_energy_scan(defn, grid, "H")

    def points(self, ready) -> int:
        return len(ready[2])

    def thin(self, ready):
        spec, defn, grid = ready
        return spec, defn, grid[:len(grid) // 10]

    def check(self, ready, scan) -> Quality:
        spec, defn, grid = ready
        mats = spec["doc"]["materials"]
        ms = {nm: oracles.quantum_m(m["mass"], m["potential"])
              for nm, m in mats.items()}
        layer_ms = [(ms[ly["material"]], ly["thickness"])
                    for ly in spec["doc"]["layers"]]
        roots = oracles.escape_roots(ms["wall"], layer_ms, ms["wall"], grid)
        q = _scan_quality(scan, roots)
        _check_expm_layers(q, defn, layer_ms, lambda e: {"energy": e},
                           float(grid[len(grid) // 2]))
        return q


class Bands:
    """``mslwave bands`` through ``cli.main`` on a Kronig-Penney period:
    structure file in, CSV file out, parsed back."""

    name = "bands"
    q_points = {"full": 2, "tiny": 1}

    def make(self, seed: int, index: int, size: str) -> dict:
        rng = _rng(seed, self.name, index)
        a, b = (float(x) for x in rng.uniform(0.8, 1.2, 2))
        m_b = float(rng.uniform(0.8, 1.2))
        v0 = float(rng.uniform(8.0, 12.0))
        nq = self.q_points[size]
        qd = np.sort(rng.uniform(0.1, 0.9, nq)) * math.pi
        qs = [float(x) / (a + b) for x in qd]
        if nq == 1:
            qs = qs * 2
        doc = _structure_doc({"W": _quantum(1.0, 0.0), "B": _quantum(m_b, v0)},
                             "B", "W", [("W", a), ("B", b)])
        return {"doc": doc, "kp": (a, b, v0, m_b), "q": (qs[0], qs[-1], nq),
                "index": index}

    def prepare(self, spec: dict, workdir: str):
        tag = spec["index"]
        path = os.path.join(workdir, f"kp-{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec["doc"], fh)
        q0, q1, nq = spec["q"]
        lo, hi = BANDS_E_RANGE
        argv = ["bands", "--structure", path, "--grid", f"{q0!r}:{q1!r}:{nq}",
                "--range", f"{lo!r}:{hi!r}",
                "--out", os.path.join(workdir, f"bands-{tag}.csv")]
        return spec, argv

    def run(self, ready):
        from mslwave import cli
        _, argv = ready
        code = cli.main(argv)
        with open(argv[-1], encoding="utf-8", newline="") as fh:
            text = fh.read()
        os.remove(argv[-1])
        return code, text

    def points(self, ready) -> int:
        return 600 * ready[0]["q"][2]

    def thin(self, ready):
        spec, argv = ready
        q0 = spec["q"][0]
        lo, hi = BANDS_E_RANGE
        argv = list(argv)
        argv[argv.index("--grid") + 1] = f"{q0!r}:{q0!r}:1"
        argv[argv.index("--range") + 1] = f"{lo!r}:{lo + (hi - lo) / 10!r}"
        return spec, argv

    def check(self, ready, output) -> Quality:
        spec, _ = ready
        code, text = output
        q = Quality()
        if code != 0:
            q.fail(f"cli exit code {code}")
            return q
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# mslwave"):
            q.fail("missing metadata line")
            return q
        rows = list(csv.reader(lines[1:]))
        if not rows or rows[0] != ["q", "energy", "residual", "branch",
                                   "status"]:
            q.fail("unexpected header")
            return q
        q0, q1, nq = spec["q"]
        q_grid = [float(x) for x in np.linspace(q0, q1, nq)]
        found = {qv: [] for qv in q_grid}
        for row in rows[1:]:
            try:
                qv = float(row[0])
                status = row[4]
                energy = float(row[1]) if status == "ok" else None
            except (IndexError, ValueError):
                q.fail(f"unparseable row {row!r}")
                continue
            q.attempted += 1
            if qv not in found or status not in ("ok", "overflow"):
                q.fail(f"unexpected row {row!r}")
            elif status == "overflow":
                q.failed += 1
            else:
                found[qv].append(energy)
        a, b, v0, m_b = spec["kp"]
        for qv, energies in found.items():
            q.add_roots(oracles.kronig_penney_roots(a, b, v0, m_b, qv,
                                                    BANDS_E_RANGE, 600),
                        energies)
        return q


def _bulk_speed(m: dict) -> float:
    return math.sqrt((m["c44"] + m["e15"] ** 2 / m["eps11"]) / m["rho"])


class Piezo:
    """Guided SH-wave speeds of a 7-layer PZT stack (N = 2)."""

    name = "piezo"
    grid_points = {"full": 600, "tiny": 60}
    layers = {"full": 7, "tiny": 3}

    def make(self, seed: int, index: int, size: str) -> dict:
        rng = _rng(seed, self.name, index)
        mats = {}
        for nm, base in (("A", PZT_A), ("B", PZT_B)):
            mats[nm] = {"kind": "sh_piezo"}
            mats[nm].update({k: float(v * rng.uniform(0.98, 1.02))
                             for k, v in base.items()})
        layers = [("B" if i % 2 == 0 else "A", float(rng.uniform(15e-6, 25e-6)))
                  for i in range(self.layers[size])]
        doc = _structure_doc(mats, "A", "A", layers)
        grid = (1.001 * _bulk_speed(mats["B"]), 0.999 * _bulk_speed(mats["A"]),
                self.grid_points[size])
        return {"doc": doc, "grid": grid}

    def prepare(self, spec: dict, workdir: str):
        from mslwave import parse_structure
        lo, hi, n = spec["grid"]
        return spec, parse_structure(json.dumps(spec["doc"])), \
            np.linspace(lo, hi, n)

    def run(self, ready):
        from mslwave import sh_wave_speeds
        _, defn, grid = ready
        return sh_wave_speeds(defn, PIEZO_OMEGA, grid)

    def points(self, ready) -> int:
        return len(ready[2])

    def thin(self, ready):
        spec, defn, grid = ready
        return spec, defn, grid[:len(grid) // 10]

    def check(self, ready, scan) -> Quality:
        spec, defn, grid = ready
        mats = spec["doc"]["materials"]
        ms = {nm: oracles.sh_piezo_m(m, PIEZO_OMEGA) for nm, m in mats.items()}
        layer_ms = [(ms[ly["material"]], ly["thickness"])
                    for ly in spec["doc"]["layers"]]
        roots = oracles.escape_roots(ms["A"], layer_ms, ms["A"], grid)
        q = _scan_quality(scan, roots)
        _check_expm_layers(
            q, defn, layer_ms,
            lambda v: {"omega": PIEZO_OMEGA, "kappa_x": PIEZO_OMEGA / v},
            float(grid[len(grid) // 2]))
        return q


class Stability:
    """``variant_comparison_report`` on a 40-layer stack over thickness
    scales that carry T from the stable regime into overflow."""

    name = "stability"
    layers = {"full": 40, "tiny": 6}
    scales = {"full": 20, "tiny": 5}

    def make(self, seed: int, index: int, size: str) -> dict:
        rng = _rng(seed, self.name, index)
        v_barrier = float(rng.uniform(8.0, 12.0))
        energy = float(rng.uniform(1.0, 3.0))
        layers = [("well" if i % 2 == 0 else "barrier",
                   float(rng.uniform(0.5, 1.5)))
                  for i in range(self.layers[size])]
        doc = _structure_doc({"well": _quantum(1.0, 0.0),
                              "barrier": _quantum(1.0, v_barrier)},
                             "barrier", "barrier", layers)
        # growth of T at scale 1: sum of kappa d over the barriers
        kappa = math.sqrt(v_barrier - energy)
        growth = sum(kappa * d for nm, d in layers if nm == "barrier")
        targets = STABILITY_GROWTH[-self.scales[size]:]
        return {"doc": doc, "energy": energy,
                "scales": [float(t * LOG_DOUBLE_MAX / growth) for t in targets],
                "targets": [float(t) for t in targets]}

    def prepare(self, spec: dict, workdir: str):
        from mslwave import parse_structure
        defn = parse_structure(json.dumps(spec["doc"]))
        return spec, defn.bind(energy=spec["energy"]), np.array(spec["scales"])

    def run(self, ready):
        from mslwave import variant_comparison_report
        _, structure, scales = ready
        return variant_comparison_report(structure, scales)

    def points(self, ready) -> int:
        return len(ready[2])

    def thin(self, ready):
        spec, structure, scales = ready
        return spec, structure, scales[::4]

    def check(self, ready, report) -> Quality:
        spec, _, _ = ready
        return oracles.stability_pattern(report, spec["targets"], Quality())


WORKLOADS = {w.name: w for w in (Escape(), Bands(), Piezo(), Stability())}
