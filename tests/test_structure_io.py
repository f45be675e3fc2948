import json

import numpy as np
import pytest

from mslwave import (Layer, LayeredStructure, StructuralError,
                     StructureFileError, load_structure, make_scalar_medium,
                     parse_structure, serialize_structure)
from mslwave.errors import PointFailures

ABA = """
{
  "materials": {
    "A": {"kind": "msl", "b": [[[1.0, 0.0]]], "p": [[[0.0, 0.0]]],
           "y": [[[0.0, 0.0]]], "w": [[[-1.0, 0.0]]]},
    "B": {"kind": "msl", "b": [[1.0]], "p": [[0.0]],
           "y": [[0.0]], "w": [[4.0]]}
  },
  "left": "A",
  "right": "A",
  "layers": [
    {"material": "A", "thickness": 1.0},
    {"material": "B", "thickness": 0.5},
    {"material": "A", "thickness": 1.0}
  ]
}
"""


def test_load_aba_structure():
    s = load_structure(ABA)
    assert len(s.layers) == 3
    assert [ly.medium.label for ly in s.layers] == ["A", "B", "A"]
    assert s.layers[1].medium.w[0, 0] == 4.0
    assert s.left.w[0, 0] == -1.0


def test_load_from_path(tmp_path):
    path = tmp_path / "aba.json"
    path.write_text(ABA, encoding="utf-8")
    s = load_structure(str(path))
    assert len(s.layers) == 3


def test_negative_thickness_diagnostic():
    doc = json.loads(ABA)
    doc["layers"][1]["thickness"] = -1.0
    with pytest.raises(StructureFileError, match="negative thickness") as err:
        parse_structure(json.dumps(doc))
    assert "layers[1]" in str(err.value)


def test_unknown_material_diagnostic():
    doc = json.loads(ABA)
    doc["layers"][0]["material"] = "C"
    with pytest.raises(StructureFileError, match="unknown material"):
        parse_structure(json.dumps(doc))


def test_unknown_half_space_material():
    doc = json.loads(ABA)
    doc["left"] = "Z"
    with pytest.raises(StructureFileError, match="unknown material"):
        parse_structure(json.dumps(doc))


def test_mixed_n_rejected():
    doc = json.loads(ABA)
    doc["materials"]["P"] = {"kind": "sh_piezo", "rho": 7500.0,
                             "c44": 2.56e10, "e15": 12.7, "eps11": 6.46e-9}
    doc["layers"].append({"material": "P", "thickness": 1.0})
    with pytest.raises(StructureFileError, match="mixed system sizes"):
        parse_structure(json.dumps(doc))


def test_parse_error_carries_location():
    with pytest.raises(StructureFileError, match="line"):
        parse_structure("{ not json }")


def test_bad_matrix_entry_location():
    doc = json.loads(ABA)
    doc["materials"]["A"]["b"] = [["oops"]]
    with pytest.raises(StructureFileError) as err:
        parse_structure(json.dumps(doc))
    assert "materials.A.b[0][0]" in str(err.value)


def test_quantum_material_binds_energy():
    text = """
    {
      "materials": {"Q": {"kind": "quantum", "mass": 1.0, "potential": 10.0}},
      "left": "Q", "right": "Q",
      "layers": [{"material": "Q", "thickness": 2.0}]
    }
    """
    defn = parse_structure(text)
    s = defn.bind(energy=4.0)
    assert s.left.w[0, 0] == pytest.approx(-6.0)
    s2 = defn.bind(energy=12.0)
    assert s2.left.w[0, 0] == pytest.approx(2.0)


MIXED = {
    "materials": {
        "M": {"kind": "msl", "b": [[[2.0, 0.0]]], "p": [[[0.0, 0.5]]],
              "y": [[[0.0, 0.5]]], "w": [[[-3.0, 0.0]]]},
        "Q": {"kind": "quantum", "mass": 1.3, "potential": 4.0,
              "hbar2_over_2": 0.7},
        "Z": {"kind": "sh_piezo", "rho": 7500.0, "c44": 2.56e10,
              "e15": 12.7, "eps11": 6.46e-9},
    },
    "left": "M", "right": "M", "layers": [],
}


def _with(path, value):
    """MIXED with one layer, and ``value`` at ``path``."""
    doc = json.loads(json.dumps(MIXED))
    doc["layers"] = [{"material": "M", "thickness": 1.0}]
    *keys, last = path
    entry = doc
    for key in keys:
        entry = entry[key]
    entry[last] = value
    return json.dumps(doc)


@pytest.mark.parametrize("path,value,location", [
    (("layers", 0, "thickness"), float("nan"), "layers[0].thickness"),
    (("layers", 0, "thickness"), float("inf"), "layers[0].thickness"),
    (("layers", 0, "thickness"), 10 ** 400, "layers[0].thickness"),
    (("materials", "Q", "mass"), float("inf"), "materials.Q.mass"),
    (("materials", "Q", "potential"), -float("inf"),
     "materials.Q.potential"),
    (("materials", "Q", "hbar2_over_2"), float("nan"),
     "materials.Q.hbar2_over_2"),
    (("materials", "Z", "e15"), float("nan"), "materials.Z.e15"),
    (("materials", "M", "w"), [[[float("nan"), 0.0]]], "materials.M.w[0][0]"),
    (("materials", "M", "b"), [[[2.0, float("inf")]]], "materials.M.b[0][0]"),
    (("materials", "M", "p"), [[-float("inf")]], "materials.M.p[0][0]"),
    (("materials", "M", "y"), [[0.0, 1.0], [10 ** 400, 0.0]],
     "materials.M.y[1][0]"),
], ids=["thickness-nan", "thickness-inf", "thickness-huge-int", "mass-inf",
        "potential-minus-inf", "hbar2-nan", "e15-nan", "msl-w-pair-nan",
        "msl-b-pair-inf", "msl-p-minus-inf", "msl-y-huge-int"])
def test_parse_rejects_numbers_that_are_not_finite_doubles(path, value,
                                                          location):
    # json reads NaN and Infinity, and a NaN thickness would make
    # escape scans drop its layer
    with pytest.raises(StructureFileError, match="must be finite") as err:
        parse_structure(_with(path, value))
    assert err.value.location == location


@pytest.mark.parametrize("path,value,location,message", [
    (("layers", 0, "thickness"), True, "layers[0].thickness",
     "field 'thickness' must be a number"),
    (("materials", "Q", "mass"), False, "materials.Q.mass",
     "field 'mass' must be a number"),
    (("materials", "M", "w"), [[True]], "materials.M.w[0][0]",
     "matrix entries must be numbers or [re, im] pairs"),
    (("materials", "M", "b"), [[[2.0, False]]], "materials.M.b[0][0]",
     "matrix entries must be numbers or [re, im] pairs"),
], ids=["thickness-true", "mass-false", "msl-w-true", "msl-b-pair-false"])
def test_parse_rejects_json_booleans_as_numbers(path, value, location,
                                                message):
    # bool is a subclass of int, so true would otherwise read as 1.0
    with pytest.raises(StructureFileError) as err:
        parse_structure(_with(path, value))
    assert err.value.location == location
    assert str(err.value) == f"{message} (at {location})"


def test_parse_rejects_an_hbar2_over_2_that_is_not_a_number():
    with pytest.raises(StructureFileError, match="must be a number") as err:
        parse_structure(_with(("materials", "Q", "hbar2_over_2"), "x"))
    assert err.value.location == "materials.Q.hbar2_over_2"


@pytest.mark.parametrize("name", ["M", "Q", "Z"])
def test_bind_is_row_zero_of_bind_stack(name):
    doc = dict(MIXED, left=name, right=name,
               layers=[{"material": name, "thickness": 1.0}])
    defn = parse_structure(json.dumps(doc))
    point = {"energy": 2.5, "omega": 3.8e8, "kappa_x": 1.6e5}
    s = defn.bind(**point)
    fails = PointFailures(1)
    st = defn.bind_stack(fails, **point)
    assert not fails.failed.any()
    for medium in (s.left, s.right, s.layers[0].medium):
        assert medium.label == name
        for key in "bpyw":
            got, want = getattr(medium, key), getattr(st.media[name], key)[0]
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("doc,point,message", [
    (dict(MIXED, left="Q", right="Q"), {"energy": float("inf")},
     "w contains non-finite entries"),
    (dict(MIXED, left="Z", right="Z"), {"omega": float("nan")},
     "w contains non-finite entries"),
    ({"materials": {"L": {"kind": "quantum", "mass": 1e-310,
                          "potential": 0.0}},
      "left": "L", "right": "L", "layers": []}, {},
     "b contains non-finite entries"),
    ({"materials": {"H": {"kind": "quantum", "mass": 1.0, "potential": 0.0,
                          "hbar2_over_2": -1.0}},
      "left": "H", "right": "H", "layers": []}, {},
     "hbar2_over_2 must be positive"),
])
def test_bind_rejects_media_it_cannot_build(doc, point, message):
    defn = parse_structure(json.dumps(doc))
    with pytest.raises(StructuralError) as err:
        defn.bind(**point)
    assert str(err.value) == message


def test_round_trip_serialization():
    s = load_structure(ABA)
    text = serialize_structure(s)
    s2 = load_structure(text)
    assert s2.left == s.left
    assert s2.right == s.right
    assert len(s2.layers) == len(s.layers)
    for la, lb in zip(s.layers, s2.layers):
        assert la.medium == lb.medium
        assert la.thickness == lb.thickness
    # serializing the reloaded structure is byte-stable
    assert serialize_structure(s2) == serialize_structure(load_structure(text))


def test_round_trip_keeps_media_whose_names_collide():
    # the unlabelled layer medium is the second one registered, whose
    # default name M1 is the half-spaces' label
    outer = make_scalar_medium(1, 0, 0, -1, label="M1")
    inner = make_scalar_medium(1, 0, 0, 4)
    s = LayeredStructure(left=outer, right=outer,
                         layers=(Layer(inner, 0.5),))
    s2 = load_structure(serialize_structure(s))
    assert s2.left == outer and s2.right == outer
    assert s2.layers[0].medium == inner


def test_complex_entries_round_trip():
    text = """
    {
      "materials": {"M": {"kind": "msl",
         "b": [[[2.0, 0.0], [0.5, -0.25]], [[0.5, 0.25], [3.0, 0.0]]],
         "p": [[[0.0, 0.1], [0.0, 0.0]], [[0.0, 0.0], [0.0, -0.1]]],
         "y": [[[0.0, 0.1], [0.0, 0.0]], [[0.0, 0.0], [0.0, -0.1]]],
         "w": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}},
      "left": "M", "right": "M",
      "layers": [{"material": "M", "thickness": 0.75}]
    }
    """
    s = load_structure(text)
    assert s.left.b[0, 1] == pytest.approx(0.5 - 0.25j)
    s2 = load_structure(serialize_structure(s))
    assert np.array_equal(s2.left.b, s.left.b)


def test_cli_threads_flag_is_a_usage_error(capsys):
    from mslwave import cli
    argv = ["escape", "--structure", "unused.json", "--grid", "0.1:1:3",
            "--threads", "2"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "--threads" in capsys.readouterr().err
