import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genus_forge
from genus_forge import modular
from genus_forge.cli import main
from genus_forge.coadjoint import (OrbitSpec, RootSystem, grassmannian_orbit,
                                  orbit_fixed_points)
from genus_forge.fixedpoints import FixedPointData, brief
from genus_forge.localization import (Relation, build_relation, cpn_fixed_points,
                                      divides_chi_y)
from genus_forge.modular import eisenstein_qexp, series_to_json
from genus_forge.polytope import FHVectors
from genus_forge.series import TruncSeries
from genus_forge.sparsepoly import SparsePoly


def _write_cp2(tmp_path, weights=(1, 3)):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(cpn_fixed_points(2, weights).to_json()))
    return str(path)


def test_eisenstein_text(capsys):
    assert main(["eisenstein", "3", "2", "--prec", "6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("G[3,2] = 0 + O(q^6)")


def test_eisenstein_json_roundtrip(capsys):
    assert main(["eisenstein", "4", "3", "--prec", "8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"series": series_to_json(eisenstein_qexp(4, 3, 8))}


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["eisenstein", "0", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eisenstein", "2", "1"])   # level must be >= 2
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_qn_output(capsys):
    assert main(["qn", "2", "--x-order", "4", "--prec", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("a_0 = 1")
    assert lines[1].startswith("a_1 = 0")   # odd coefficients vanish at level 2


def test_qn_smallest_request(capsys):
    assert main(["qn", "2", "--x-order", "1", "--prec", "1"]) == 0
    assert capsys.readouterr().out == "a_0 = 1 + O(q^1)\n"


def test_genus_routes_agree(tmp_path, capsys):
    path = _write_cp2(tmp_path)
    assert main(["genus", path, "2", "--prec", "8"]) == 0
    out = capsys.readouterr().out
    assert "routes agree: yes" in out


def _refuse(*args):
    raise AssertionError("the output form that was not asked for was built")


def _counted(monkeypatch, cls, name):
    """Wrap cls.name so that each call is recorded; the list of calls."""
    calls, real = [], getattr(cls, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


# each request with its exit code; the relations request is Gr(2,4) at level
# 12, which divides g = 12 but not the index 4: a k = n genus line, two
# "0 = 0" lines and two FAILED lines, each printing its residual
_ONE_FORM = [(0, ["eisenstein", "1", "12", "--prec", "24"]),
             (0, ["qn", "3", "--x-order", "4", "--prec", "6"]),
             (0, ["genus", "{cp2}", "3", "--prec", "6"]),
             (1, ["relations", "{gr24}", "12", "4", "8", "--verify", "--prec", "20"]),
             (0, ["chiy", "{cp3}", "--k0", "4"]),
             (0, ["hilbert", "{cp2}", "3"]),
             (0, ["coadjoint", "A", "3", "--xi", "4", "-2", "1", "7",
                  "--partition", "4", "2", "1", "1"]),
             (1, ["polytope", "{cube}", "--k0", "3"])]
# what only the JSON form builds, what only the text form builds, and what
# either form computes at most once per object
_JSON_ONLY = [(modular, "series_to_json"), (Relation, "to_json"), (OrbitSpec, "to_json"),
              (FixedPointData, "to_json"), (FHVectors, "describe")]
_TEXT_ONLY = [(TruncSeries, "__str__"), (OrbitSpec, "__repr__")]
_ONCE = [(SparsePoly, "__str__"), (FHVectors, "palindromic")]


def _counted_once(monkeypatch):
    """Count the _ONCE calls; a check that no object met one of them twice."""
    calls = [_counted(monkeypatch, cls, name) for cls, name in _ONCE]
    return lambda: all(len({id(args[0]) for args in c}) == len(c) for c in calls)


@pytest.mark.parametrize("code,argv", _ONE_FORM,
                         ids=[argv[0] for _, argv in _ONE_FORM])
def test_text_output_builds_no_json(code, argv, tmp_path, monkeypatch, capsys):
    # no JSON form is built, each relation is rendered once, and each
    # series and polynomial once, where it is printed
    argv = [arg.format(**_golden_inputs(tmp_path)) for arg in argv]
    assert main(argv) == code
    want = capsys.readouterr().out
    for owner, name in _JSON_ONLY:
        monkeypatch.setattr(owner, name, _refuse)
    renders = _counted(monkeypatch, Relation, "render")
    texts = _counted(monkeypatch, TruncSeries, "__str__")
    once = _counted_once(monkeypatch)
    assert main(argv) == code
    assert capsys.readouterr().out == want
    assert len(renders) == sum(line.startswith("k=") for line in want.splitlines())
    assert len(texts) == want.count(" + O(")
    assert once()


@pytest.mark.parametrize("code,argv", _ONE_FORM,
                         ids=[argv[0] for _, argv in _ONE_FORM])
def test_json_output_builds_no_text(code, argv, tmp_path, monkeypatch, capsys):
    # no series or orbit text is built, each relation is rendered once, for
    # its "display", and each polynomial once
    argv = [arg.format(**_golden_inputs(tmp_path)) for arg in argv] + ["--json"]
    assert main(argv) == code
    want = capsys.readouterr().out
    for owner, name in _TEXT_ONLY:
        monkeypatch.setattr(owner, name, _refuse)
    renders = _counted(monkeypatch, Relation, "render")
    once = _counted_once(monkeypatch)
    assert main(argv) == code
    assert capsys.readouterr().out == want
    assert len(renders) == want.count('"display": ')
    assert once()


def test_chiy_divisibility_exit_codes(tmp_path, capsys):
    path = _write_cp2(tmp_path)
    assert main(["chiy", path, "--k0", "3"]) == 0
    out = capsys.readouterr().out
    assert "chi_y = y^2 - y + 1" in out
    assert main(["chiy", path, "--k0", "2"]) == 1
    assert "NOT divisible" in capsys.readouterr().out


def test_chiy_divisor_longer_than_chi_y(tmp_path, capsys):
    # a divisor of degree K - 1 > deg chi_y leaves chi_y as the remainder,
    # whether K is n + 2 or far too large to build the divisor for
    path = _write_cp2(tmp_path)
    y = SparsePoly.variable("y", ("y",))
    chi = y ** 2 - y + 1
    divisor = SparsePoly(("y",), {(j,): (-1) ** j for j in range(4)})
    assert chi.divmod_by(divisor) == (SparsePoly.zero(("y",)), chi)
    outputs = []
    for k0 in (4, 10 ** 18):
        assert divides_chi_y(chi, k0) == {"divisible": False, "remainder": str(chi)}
        assert main(["chiy", path, "--k0", str(k0)]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "NOT divisible: remainder y^2 - y + 1" in outputs[0]


def test_relations_verified(tmp_path, capsys):
    # from k = n = 2: the level-3 genus of CP^2 vanishes, so its line
    # verifies like the relations above it
    path = _write_cp2(tmp_path)
    assert main(["relations", path, "3", "2", "5", "--verify",
                 "--prec", "10"]) == 0
    assert capsys.readouterr().out == (
        "k=2: G[1,3]^2 + G[2,3] = 0   [verified to q^10]\n"
        "k=3: 0 = 0   [verified to q^10]\n"
        "k=4: 4*G[1,3]*G[3,3] + G[2,3]^2 + 5*G[4,3] = 0   [verified to q^10]\n"
        "k=5: -G[2,3]*G[3,3] + G[5,3] = 0   [verified to q^10]\n")


def test_relations_failure_names_the_first_coefficient(tmp_path, capsys):
    # without an asserted index, level 2 is accepted on the projective plane
    # (index 3) with weights 2 and 6, where g = 6, and the k = 4 relation
    # fails first at q^1
    data = cpn_fixed_points(2, (2, 6)).to_json()
    del data["asserted_index"]
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(data))
    assert main(["relations", str(path), "2", "4", "4", "--verify",
                 "--prec", "4"]) == 1
    assert capsys.readouterr().out == (
        "k=4: 4*G[1,2]*G[3,2] + G[2,2]^2 + 5*G[4,2] = 0   [FAILED: q^1 "
        "coefficient (2) @ Q(zeta_2); residual 2*q + 16*q^2 + 56*q^3 + O(q^4)]\n")


def test_relations_at_k_equal_n_report_the_genus_on_the_quadric(tmp_path, capsys):
    # Q^3 has index 3, and its level-3 genus is nonzero: the k = n line is
    # labelled as the genus and does not fail the run; k > n all verify
    data = orbit_fixed_points(grassmannian_orbit(2), (5, 2)).to_json()
    path = tmp_path / "q3.json"
    path.write_text(json.dumps({**data, "asserted_index": 3}))
    assert main(["relations", str(path), "3", "3", "7", "--verify",
                 "--prec", "15"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"k={k}" for k in range(3, 8)]
    assert lines[0] == (
        "k=3: -2*G[1,3]^3 - 6*G[1,3]*G[2,3] + 3*G[3,3] = 0   [k = n: the "
        "level-N genus (up to scale), nonzero at q^0: (-1/18 - 1/9*z) @ "
        "Q(zeta_3); N | index does not imply that it vanishes]")
    assert all(line.endswith("   [verified to q^15]") for line in lines[1:])
    assert main(["relations", str(path), "3", "3", "4", "--verify", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)["relations"]
    assert [(e["k"], e["verified"], e.get("nonzero_genus")) for e in entries] == [
        (3, False, True), (4, True, None)]
    assert main(["genus", str(path), "3", "--prec", "6"]) == 0
    out = capsys.readouterr().out
    assert "routes agree: yes" in out
    assert out.startswith("genus (localization)  = (1/9 + 2/9*z) + ")


def test_relations_raw_differs_from_primitive(tmp_path, capsys):
    path = _write_cp2(tmp_path)
    assert main(["relations", path, "3", "4", "4"]) == 0
    primitive = capsys.readouterr().out
    assert main(["relations", path, "3", "4", "4", "--raw"]) == 0
    raw = capsys.readouterr().out
    assert primitive != raw


def test_relations_json_roundtrip(tmp_path, capsys):
    path = _write_cp2(tmp_path)
    assert main(["relations", path, "3", "4", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["k"] for entry in payload["relations"]] == [4, 5, 6]
    fpd = cpn_fixed_points(2, (1, 3))
    for entry in payload["relations"]:
        rel = build_relation(fpd, 3, entry["k"]).primitive()
        assert entry["relation"] == rel.to_json()
        assert entry["display"] == rel.render()


def test_relations_bad_range(tmp_path, capsys):
    path = _write_cp2(tmp_path)
    assert main(["relations", path, "3", "5", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_and_malformed_files(tmp_path, capsys):
    assert main(["genus", str(tmp_path / "nope.json"), "2"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["genus", str(bad), "2"]) == 2
    capsys.readouterr()
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"n": 1, "points": [
        {"label": "P", "weights": [0]}], "asserted_index": 1}))
    assert main(["genus", str(zero), "2"]) == 2
    assert "zero weight" in capsys.readouterr().err
    cp1 = cpn_fixed_points(1, (1,)).to_json()
    # each used to raise a traceback, or (a float, bool or string weight)
    # to be coerced by int() and reported as agreeing
    for data in ([], {**cp1, "points": [{"weights": None}]},
                 {**cp1, "asserted_index": "2"},
                 {**cp1, "points": [{"weights": [1.5]}, {"weights": [-1]}]},
                 {**cp1, "points": [{"weights": [True]}, {"weights": [-1]}]},
                 {**cp1, "points": [{"weights": ["1"]}, {"weights": [-1]}]},
                 {**cp1, "n": 1.0}, {**cp1, "points": [5]}):
        bad.write_text(json.dumps(data))
        for argv in (["genus", str(bad), "2"],
                     ["relations", str(bad), "2", "1", "2", "--verify"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ["genus", "{}", "2"], ["relations", "{}", "2", "1", "2", "--verify"],
    ["chiy", "{}"], ["hilbert", "{}", "2"], ["polytope", "{}"]], ids=lambda c: c[0])
def test_unreadable_input_paths_exit_2(command, tmp_path, capsys):
    # a directory raised IsADirectoryError, and a document nested deeper
    # than the parser's recursion limit a RecursionError: each a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for path in (tmp_path, deep):
        assert main([arg.format(path) for arg in command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(path) in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("change, named", [
    ({"asserted_index": 0}, "asserted_index must be positive, got 0"),
    ({"asserted_index": -2}, "asserted_index must be positive, got -2"),
    ({"points": [{"label": 5, "weights": [1]}, {"weights": [-1]}]},
     "point 0 label must be a string, got 5"),
    ({"points": [{"weights": [1]}, {"label": None, "weights": [-1]}]},
     "point 1 label must be a string, got null"),
])
def test_bad_index_or_label_is_rejected_at_load(tmp_path, capsys, change, named):
    # an index of 0 used to "divide" every level, so relations --verify
    # recorded a divisibility and failed with exit 1 instead of exit 2
    path = tmp_path / "cp1.json"
    path.write_text(json.dumps({**cpn_fixed_points(1, (1,)).to_json(), **change}))
    for argv in (["genus", str(path), "2"],
                 ["relations", str(path), "3", "1", "2", "--verify"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err


def test_non_manifold_data_is_rejected(tmp_path, capsys):
    # q_[1] = 2 != 0, so no manifold has these fixed points
    path = tmp_path / "fake.json"
    path.write_text(json.dumps({"n": 2, "points": [{"weights": [1, 1]},
                                                   {"weights": [-1, 1]}]}))
    for argv in (["genus", str(path), "2"],
                 ["relations", str(path), "2", "2", "3", "--verify"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "q_[1] = 2" in captured.err


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_closed_stdout_pipe_exits_2(failing, tmp_path, monkeypatch, capsys):
    # a short output can sit in the buffer until the final flush
    class ClosedPipe(io.StringIO):
        def fileno(self):
            return fd

    def broken(*args):
        raise BrokenPipeError(32, "Broken pipe")

    stdout = ClosedPipe()
    setattr(stdout, failing, broken)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["eisenstein", "3", "2"]) == 2
        # the descriptor now points at the null device, so the flush at exit
        # cannot raise again
        assert os.fstat(fd).st_rdev == os.stat(os.devnull).st_rdev
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_hilbert(tmp_path, capsys):
    path = tmp_path / "cp1.json"
    path.write_text(json.dumps(cpn_fixed_points(1, (1,)).to_json()))
    assert main(["hilbert", str(path), "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("H_0(x) =")
    assert main(["hilbert", str(path), "2", "--m", "5"]) == 2


def test_hilbert_level_must_divide_the_asserted_index(tmp_path, capsys):
    path = tmp_path / "cp3.json"
    path.write_text(json.dumps(cpn_fixed_points(3, (1, 2, 3)).to_json()))
    assert main(["hilbert", str(path), "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: N=3 does not divide the asserted index 4\n"
    for level in ("2", "4"):
        assert main(["hilbert", str(path), level]) == 0


def test_asserted_index_must_divide_the_index_bound(tmp_path, capsys):
    # g = 4 on CP^3 with weights 1, 2, 3, so no manifold with these fixed
    # points has index 8; every subcommand that reads the file refuses it
    path = tmp_path / "cp3.json"
    path.write_text(json.dumps({**cpn_fixed_points(3, (1, 2, 3)).to_json(),
                                "asserted_index": 8}))
    for argv in (["genus", str(path), "2"], ["chiy", str(path), "--k0", "8"],
                 ["relations", str(path), "2", "3", "4"], ["hilbert", str(path), "2"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: asserted index 8 does not divide g = 4, ")


def test_level_must_divide_the_index_bound(tmp_path, capsys):
    # Gr(2,4) at xi = (1, 2, 3, 4) carries no index, and g = 4 there: level 3
    # used to print H_0(x) = 64/243*x^4 - ... with exit 0
    path = tmp_path / "gr24.json"
    path.write_text(json.dumps(orbit_fixed_points(OrbitSpec(RootSystem("A", 3), (1, 3)),
                                                  (1, 2, 3, 4)).to_json()))
    for argv in (["hilbert", str(path), "3"], ["relations", str(path), "3", "4", "5"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: N=3 does not divide g = 4, ")
    for level in ("2", "4"):
        assert main(["hilbert", str(path), level]) == 0
    # genus keeps every level
    assert main(["genus", str(path), "3", "--prec", "2"]) == 0


def test_coadjoint_crosscheck(capsys):
    assert main(["coadjoint", "--cpn", "2", "--xi", "1", "5", "-3",
                 "--crosscheck"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out and "[ok]" in out


def test_coadjoint_fixed_points_json(capsys):
    assert main(["coadjoint", "--grassmannian", "2", "--xi", "5", "2",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    points = [tuple(p["weights"]) for p in payload["fixed_points"]["points"]]
    assert points == [(3, 7, 5), (-3, 7, 2), (-7, 3, -2), (-7, -3, -5)]


def test_coadjoint_usage_errors(capsys):
    assert main(["coadjoint"]) == 2
    capsys.readouterr()
    assert main(["coadjoint", "--cpn", "2", "--crosscheck"]) == 2
    capsys.readouterr()
    assert main(["coadjoint", "--cpn", "2", "--xi", "1", "1", "5"]) == 2
    assert "non-generic" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["A", "3", "--cpn", "2"], "give only one of"),
    (["--cpn", "2", "--grassmannian", "2"], "give only one of"),
    (["B", "2", "--grassmannian", "2", "--J", "1"], "give only one of"),
    (["--cpn", "2", "--J", "1"], "--J needs family and rank"),
    (["--grassmannian", "2", "--J"], "--J needs family and rank")])
def test_coadjoint_takes_one_orbit_selector(argv, message, capsys):
    assert main(["coadjoint", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


def _exit_code(argv) -> int:
    """main's exit code, whether it returns it or argparse raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_XI = "--xi 1 3 -2 7 -5"
# (the cap and its limit, a request at the limit, a request one past it);
# "{cp2}" and the like name the files of _golden_inputs, and "{cp8}" one
# past QSERIES_MAX_DIM.  Caps on one argument leave through argparse.
_CAPS = [
    ("QSERIES_MAX_PREC = 60", "eisenstein 3 2 --prec 60", "eisenstein 3 2 --prec 61"),
    ("QSERIES_MAX_PREC = 60", "qn 2 --x-order 1 --prec 60", "qn 2 --x-order 1 --prec 61"),
    ("QSERIES_MAX_PREC = 60", "genus {cp2} 2 --prec 60", "genus {cp2} 2 --prec 61"),
    ("QSERIES_MAX_PREC = 60", "relations {cp2} 3 4 4 --verify --prec 60",
     "relations {cp2} 3 4 4 --verify --prec 61"),
    ("QSERIES_MAX_LEVEL = 12", "eisenstein 3 12 --prec 2", "eisenstein 3 13 --prec 2"),
    ("QSERIES_MAX_LEVEL = 12", "qn 12 --x-order 1 --prec 2", "qn 13 --x-order 1 --prec 2"),
    ("QSERIES_MAX_LEVEL = 12", "genus {cp4} 12 --prec 2", "genus {cp4} 13 --prec 2"),
    ("QSERIES_MAX_LEVEL = 12", "relations {gr24} 12 4 4 --prec 2",   # g = 12
     "relations {gr24} 13 4 4 --prec 2"),
    ("QSERIES_MAX_WEIGHT = 20", "eisenstein 20 3 --prec 2", "eisenstein 21 3 --prec 2"),
    ("QSERIES_MAX_WEIGHT = 20", "relations {cp2} 3 20 20 --prec 2",
     "relations {cp2} 3 4 21 --prec 2"),
    ("QSERIES_MAX_DIM = 7", "genus {cp7} 3 --prec 2", "genus {cp8} 3 --prec 2"),
    ("QSERIES_MAX_DIM = 7", "relations {cp7} 2 7 7 --prec 2", "relations {cp8} 3 8 8 --prec 2"),
    ("QSERIES_MAX_DIM = 7", "chiy {cp7}", "chiy {cp8}"),
    ("QSERIES_MAX_DIM = 7", "chiy {cp7} --k0 4", "chiy {cp8} --k0 3"),
    ("QSERIES_MAX_DIM = 7", "hilbert {cp7} 2", "hilbert {cp8} 2"),
    ("QSERIES_MAX_DIM = 7", "hilbert {cp7} 2 --m 0", "hilbert {cp8} 2 --m 0"),
    ("QN_MAX_X_ORDER = 10", "qn 2 --x-order 10 --prec 2", "qn 2 --x-order 11 --prec 2"),
    # phi(11) = 10, so level 11 admits the default precision 15 and not 16
    ("QN_MAX_PHI_PREC = 150", "qn 11 --x-order 1", "qn 11 --x-order 1 --prec 16"),
    ("COADJOINT_MAX_EXTRA_DEGREES = 2", "coadjoint A 2 --xi 1 2 3 --crosscheck --extra-degrees 2",
     "coadjoint A 2 --xi 1 2 3 --crosscheck --extra-degrees 3"),
    # a negative value used to exit 0 after checking nothing
    ("COADJOINT_MAX_EXTRA_DEGREES = 2", "coadjoint A 2 --xi 1 2 3 --crosscheck --extra-degrees 0",
     "coadjoint A 2 --xi 1 2 3 --crosscheck --extra-degrees -1"),
    # A2 has n = 3, so |I| may reach 3 + 2 = 5
    ("COADJOINT_MAX_EXTRA_DEGREES = 2", "coadjoint A 2 --partition 3 2",
     "coadjoint A 2 --partition 3 2 1"),
    ("COADJOINT_MAX_RANK['A'] = 6", "coadjoint A 6", "coadjoint A 7"),
    ("COADJOINT_MAX_RANK['B'] = 5", "coadjoint B 5", "coadjoint B 6"),
    ("COADJOINT_MAX_RANK['A'] = 6", "coadjoint --cpn 6", "coadjoint --cpn 7"),
    ("COADJOINT_MAX_RANK['B'] = 5", "coadjoint --grassmannian 5", "coadjoint --grassmannian 6"),
    # A4 has n = 8 with J = [1, 3] and n = 9 with J = [1]; the cap applies
    # only to q_I work
    ("COADJOINT_MAX_ORBIT_DIM = 8", "coadjoint A 4 --J 1 3 --partition 8",
     "coadjoint A 4 --J 1 --partition 5 4"),
    ("COADJOINT_MAX_ORBIT_DIM = 8", f"coadjoint A 4 --J 1 3 {_XI} --crosscheck --extra-degrees 0",
     f"coadjoint A 4 --J 1 {_XI} --crosscheck"),
    ("COADJOINT_MAX_ORBIT_DIM = 8", f"coadjoint A 4 --J 1 {_XI}",
     f"coadjoint A 4 --J 1 {_XI} --partition 5 4"),
]
# what some requests at the limit print
_SHOWN = {"eisenstein 3 2 --prec 60": "O(q^60)", "coadjoint --grassmannian 5": "n=9",
          "coadjoint A 2 --xi 1 2 3 --crosscheck --extra-degrees 0": "[ok]",
          "coadjoint A 4 --J 1 3 --partition 8": "q_[8] = "}


@pytest.mark.parametrize("cap, at, past", _CAPS, ids=[re.sub("[{}]", "", past).replace(" ", "_")
                                                      for _, _, past in _CAPS])
def test_request_caps(cap, at, past, tmp_path, capsys):
    # at the limit a request runs; one past it exits 2 with nothing on stdout
    # and names the cap and its limit on stderr
    paths = _golden_inputs(tmp_path)
    paths["cp8"] = tmp_path / "cp8.json"
    paths["cp8"].write_text(json.dumps(cpn_fixed_points(8, range(1, 9)).to_json()))
    assert _exit_code([arg.format(**paths) for arg in at.split()]) == 0
    assert _SHOWN.get(at, "") in capsys.readouterr().out
    assert _exit_code([arg.format(**paths) for arg in past.split()]) == 2
    out, err = capsys.readouterr()
    assert out == "" and cap in err


_DATA = Path(__file__).parent / "data"

# Recorded stdout, one file per (stem, format) in tests/data/, as
# {stem: (exit code, argv)}.  The coadjoint files were recorded before the
# orbit layer was optimized: word order, coset order and every q_I must not
# drift; the two --partition files print a q_I polynomial of degree 2.  The
# others pin every subcommand's text and JSON form, among them negative
# leading coefficients and non-rational Q(zeta_N) coefficients, so the
# rendering of signs is pinned too.  relations_gr24_12 pins relations whose
# q_I are all zero ("0 = 0") and failed residuals over Q(zeta_12), on
# Gr(2,4) at a level that divides g = 12 but not the index 4; relations_cp4_3
# pins that a level that does not divide g (CP^4 has g = 5) prints nothing.
# "{cp2}" and the like name the input files written by _golden_inputs.
_GOLDEN = {
    "coadjoint_cpn4": (0, ["coadjoint", "--cpn", "4", "--xi", "5", "1", "-2",
                           "3", "-4", "--crosscheck"]),
    "coadjoint_b3_j12": (0, ["coadjoint", "B", "3", "--J", "1", "2", "--xi", "3",
                             "-1", "2", "--crosscheck", "--extra-degrees", "1"]),
    "coadjoint_a3": (0, ["coadjoint", "A", "3", "--xi", "4", "-2", "1", "7",
                         "--crosscheck"]),
    "coadjoint_a3_q4211": (0, ["coadjoint", "A", "3", "--partition", "4", "2",
                               "1", "1"]),
    "coadjoint_b3_j12_q32111": (0, ["coadjoint", "B", "3", "--J", "1", "2",
                                    "--partition", "3", "2", "1", "1", "1"]),
    "eisenstein_3_5": (0, ["eisenstein", "3", "5", "--prec", "4"]),
    "qn_5": (0, ["qn", "5", "--x-order", "3", "--prec", "3"]),
    "qn_12": (0, ["qn", "12", "--x-order", "5", "--prec", "12"]),
    "qn_6": (0, ["qn", "6", "--x-order", "10", "--prec", "60"]),
    "genus_cp2_4": (0, ["genus", "{cp2}", "4", "--prec", "4"]),
    "genus_cp3_5": (0, ["genus", "{cp3}", "5", "--prec", "3"]),
    "genus_gr24_12": (0, ["genus", "{gr24}", "12", "--prec", "20"]),
    "genus_cp7_11": (0, ["genus", "{cp7}", "11", "--prec", "60"]),
    "chiy_cp3_k4": (0, ["chiy", "{cp3}", "--k0", "4"]),
    "chiy_cp3_k3": (1, ["chiy", "{cp3}", "--k0", "3"]),
    "relations_cp2": (0, ["relations", "{cp2}", "3", "4", "7", "--verify",
                          "--prec", "8"]),
    "relations_cp2_raw": (0, ["relations", "{cp2}", "3", "4", "5", "--verify",
                              "--raw", "--prec", "6"]),
    "relations_cp4_3": (2, ["relations", "{cp4}", "3", "4", "10", "--verify",
                            "--prec", "30"]),
    "relations_gr24_12": (1, ["relations", "{gr24}", "12", "5", "8", "--verify",
                              "--prec", "20"]),
    "hilbert_cp1": (0, ["hilbert", "{cp1}", "2"]),
    "hilbert_cp2": (0, ["hilbert", "{cp2}", "3"]),
    "hilbert_q3": (0, ["hilbert", "{q3}", "3"]),
    "hilbert_cp7": (0, ["hilbert", "{cp7}", "2"]),
    "polytope_simplex": (0, ["polytope", "{simplex}"]),
    "polytope_cube_k3": (1, ["polytope", "{cube}", "--k0", "3"]),
}


def _golden_inputs(tmp_path) -> dict:
    from genus_forge.polytope import cube_f_vector, simplex_edges, simplex_f_vector
    data = {"cp1": cpn_fixed_points(1, (1,)).to_json(),
            "cp2": cpn_fixed_points(2, (1, 3)).to_json(),
            "cp3": cpn_fixed_points(3, (1, 2, 5)).to_json(),
            "cp4": FixedPointData(4, cpn_fixed_points(4, (1, 2, 3, 4)).points).to_json(),
            "cp7": cpn_fixed_points(7, (1, 2, 3, 4, 5, 6, 7)).to_json(),
            "q3": orbit_fixed_points(grassmannian_orbit(2), (5, 2)).to_json(),
            "gr24": orbit_fixed_points(OrbitSpec(RootSystem("A", 3), (1, 3)),
                                       (4, -2, 1, 7)).to_json(),
            "simplex": {"f": simplex_f_vector(2),
                        "edges": simplex_edges(2, dilation=3)},
            "cube": {"f": cube_f_vector(2)}}
    paths = {}
    for name, payload in data.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    return paths


def _check_golden(stem, fmt, capsys, paths=None):
    code, argv = _GOLDEN[stem]
    argv = [arg.format(**(paths or {})) for arg in argv]
    assert main(argv + (["--json"] if fmt == "json" else [])) == code
    golden = _DATA / f"{stem}.{fmt}"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(stem.removeprefix("coadjoint_")
                                        for stem in _GOLDEN
                                        if stem.startswith("coadjoint_")))
def test_coadjoint_golden_output(name, fmt, capsys):
    _check_golden(f"coadjoint_{name}", fmt, capsys)


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("stem", sorted(stem for stem in _GOLDEN
                                        if not stem.startswith("coadjoint_")))
def test_golden_output(stem, fmt, tmp_path, capsys):
    _check_golden(stem, fmt, capsys, _golden_inputs(tmp_path))


def test_polytope_simplex(tmp_path, capsys):
    from genus_forge.polytope import simplex_edges, simplex_f_vector
    data = {"f": simplex_f_vector(2),
            "edges": simplex_edges(2, dilation=3)}
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(data))
    assert main(["polytope", str(path)]) == 0
    out = capsys.readouterr().out
    assert "combinatorial index = 3" in out
    assert "quotient [1]" in out


def test_polytope_divisibility_failure(tmp_path, capsys):
    from genus_forge.polytope import cube_f_vector
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"f": cube_f_vector(2)}))
    assert main(["polytope", str(path), "--k0", "3"]) == 1
    assert "NOT divisible" in capsys.readouterr().out


def test_polytope_huge_k0_is_not_divisible(tmp_path, capsys):
    # the divisor 1 + ... + y^(k0-1) is never built, so a k0 far beyond
    # memory reports the h-vector itself as the remainder
    from genus_forge.polytope import simplex_f_vector
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"f": simplex_f_vector(2)}))
    assert main(["polytope", str(path), "--k0", str(10 ** 18)]) == 1
    captured = capsys.readouterr()
    assert "NOT divisible by 1 + ... + y^999999999999999999: remainder [1, 1, 1]" \
        in captured.out
    assert captured.err == ""


def test_polytope_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.json"
    # the edge [[], []] used to raise IndexError; most later inputs raised a
    # traceback ({"f": []} an IndexError), and a float or bool entry of "f"
    # was coerced by int()
    for data in ({}, {"edges": [[[], []]]}, [], "edges", {"edges": 5},
                 {"edges": [[[0], [1], [2]]]}, {"edges": [[[0], [1.5]]]},
                 {"f": []}, {"f": 3}, {"f": [1.5, 1]}, {"f": [True, 1]}):
        path.write_text(json.dumps(data))
        assert main(["polytope", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("data", [list(range(200_000)),
                                  {"edges": list(range(200_000))}],
                         ids=["list", "edges"])
def test_polytope_error_line_leaves_the_input_out(tmp_path, capsys, data):
    # both lines used to print the whole value: 1.5 MB for these inputs
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    assert main(["polytope", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200
    assert "Traceback" not in captured.err


def _with_first_point(**change):
    data = cpn_fixed_points(1, (1,)).to_json()
    data["points"][0].update(change)
    return data


@pytest.mark.parametrize("command, data", [
    ("polytope", {"f": [list(range(200_000))]}),
    ("genus", _with_first_point(weights=[list(range(200_000))])),
    ("genus", _with_first_point(weights="1" * 200_000)),
    ("genus", _with_first_point(label=list(range(100_000)))),
], ids=["nested-f", "nested-weights", "string-weights", "list-label"])
def test_json_error_line_names_the_type_of_a_long_value(tmp_path, capsys, command, data):
    # each line used to print the whole value: 0.2 to 1.5 MB for these inputs
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + (["2"] if command == "genus" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200
    assert "Traceback" not in captured.err


def _cp1(**change):
    return {**cpn_fixed_points(1, (1,)).to_json(), **change}


@pytest.mark.parametrize("argv, data, shown", [
    (["genus"], _with_first_point(label="x" * 200_000, weights=[0]),
     "point 0: zero weight in slot 1"),
    (["genus"], _with_first_point(label="x" * 200_000, weights=[1, 2]),
     "point 0: expected 1 weights, got 2"),
    (["genus"], _cp1(asserted_index=-10 ** 4000),
     "got a negative 4001-digit integer"),
    (["relations", "2", "1", "2"], _cp1(asserted_index=10 ** 4000 + 1),
     "index a positive 4001-digit integer"),
    (["genus"], _cp1(n=10 ** 4000), "expected a positive 4001-digit integer weights"),
    (["genus"], {"n": 1, "points": [{"weights": [10 ** 4000]}]},
     "q_[] = a positive fraction of 1 over 4001 digits"),
], ids=["label-zero-weight", "label-weight-count", "negative-index",
        "index-not-divisible", "huge-n", "huge-weight"])
def test_error_line_gives_a_long_value_by_its_size(tmp_path, capsys, argv, data, shown):
    # each line used to print the whole label or number: 4 to 200 kB
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    assert main([argv[0], str(path)] + (argv[1:] or ["2"])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200
    assert "Traceback" not in captured.err
    assert shown in captured.err


@pytest.mark.parametrize("value, shown", [
    (-(10 ** 38), "-1" + "0" * 38),
    (10 ** 39, "a positive 40-digit integer"),
    (10 ** 39 - 1, "9" * 39),
    (-(10 ** 5000) + 1, "a negative 5000-digit integer"),
    (Fraction(1, 10 ** 9000), "a positive fraction of 1 over 9001 digits"),
    (Fraction(-3, 7), "-3/7"),
    ("P" * 40, "P" * 40),
    ("P" * 41, "a long value"),
], ids=["39-digits", "40-digits", "39-nines", "5000-digits", "9001-digit-denominator",
        "short-fraction", "40-characters", "41-characters"])
def test_brief_counts_digits_past_the_str_limit(value, shown):
    # str() refuses an int of more than 4 300 digits
    assert brief(value) == shown


_WRONG_TYPE = st.sampled_from([None, 1.5, "1", True, [], {}])


def _json_paths(doc, prefix=()):
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


@st.composite
def _maybe_wrong_type(draw, doc):
    """doc, or (one time in three) doc with one value, possibly doc itself,
    of the wrong type."""
    if draw(st.integers(0, 2)):
        return doc
    path = draw(st.sampled_from(list(_json_paths(doc))))
    if not path:
        return draw(_WRONG_TYPE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(_WRONG_TYPE)
    return doc


@st.composite
def _fixed_point_json(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    if n and draw(st.booleans()):
        # projective space, so that most requests get past the load checks
        ws = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=n,
                           max_size=n, unique=True))
        return draw(_maybe_wrong_type(cpn_fixed_points(n, ws).to_json()))
    weights = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    doc = {"n": n, "points": [{"weights": w} for w in draw(
        st.lists(weights, min_size=1, max_size=5))]}
    if draw(st.booleans()):
        doc["asserted_index"] = draw(st.integers(-2, 5))
    return draw(_maybe_wrong_type(doc))


@st.composite
def _polytope_json(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    point = st.lists(st.integers(-9, 9), min_size=d, max_size=d)
    doc = {}
    if draw(st.booleans()):
        doc["f"] = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5))
    if draw(st.booleans()):
        doc["edges"] = [list(e) for e in draw(
            st.lists(st.tuples(point, point), max_size=4))]
    return draw(_maybe_wrong_type(doc))


@st.composite
def _coadjoint_argv(draw):
    family = draw(st.sampled_from("AB"))
    rank = draw(st.integers(min_value=1, max_value=4))
    dim = rank + 1 if family == "A" else rank
    J = draw(st.lists(st.sampled_from(range(rank + 2)), max_size=rank, unique=True))
    size = draw(st.sampled_from([dim, dim, dim - 1, dim + 1]))
    xi = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    return ["coadjoint", family, str(rank), "--J", *map(str, J),
            "--xi", *map(str, xi), *draw(st.sampled_from([[], ["--json"]]))]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_inputs_keep_the_exit_code_contract(data):
    # every request exits 0, 1 or 2 and none raises, whatever its input
    level = str(data.draw(st.integers(min_value=2, max_value=4)))
    k = sorted(str(data.draw(st.integers(min_value=1, max_value=4))) for _ in "ab")
    with tempfile.TemporaryDirectory() as tmp:
        fixed, poly = Path(tmp) / "fixed.json", Path(tmp) / "polytope.json"
        fixed.write_text(json.dumps(data.draw(_fixed_point_json())))
        poly.write_text(json.dumps(data.draw(_polytope_json())))
        for argv in (["genus", str(fixed), level, "--prec", "3"],
                     ["relations", str(fixed), level, *k, "--verify", "--prec", "3"],
                     ["chiy", str(fixed), "--k0", level],
                     ["hilbert", str(fixed), k[0]],
                     ["polytope", str(poly)],
                     data.draw(_coadjoint_argv())):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue()


def test_precision_ignores_the_environment(monkeypatch, capsys):
    # the default q-precision is a constant; no environment variable sets it
    for value in ("abc", "61"):
        monkeypatch.setenv("GENUS_FORGE_PREC", value)
        assert main(["eisenstein", "3", "2"]) == 0
        assert "O(q^15)" in capsys.readouterr().out
        assert main(["coadjoint", "A", "2"]) == 0
        capsys.readouterr()


def test_selftest(capsys):
    # the report goes to stdout, one timing line per criterion to stderr
    assert main(["selftest"]) == 0
    captured = capsys.readouterr()
    out = captured.out
    assert out.count("PASS") == 10 and "FAIL" not in out
    assert out == (_DATA / "selftest.txt").read_text(encoding="utf-8")
    lines = captured.err.splitlines()
    assert len(lines) == 10
    for number, line in enumerate(lines, 1):
        assert re.fullmatch(rf"criterion {number}: \d+\.\d{{3}} s", line)


def test_selftest_default_seed_is_2026(capsys):
    from genus_forge import acceptance
    from genus_forge.cli import build_parser
    assert build_parser().parse_args(["selftest"]).seed == acceptance.DEFAULT_SEED == 2026
    assert main(["selftest"]) == 0
    default = capsys.readouterr().out
    assert main(["selftest", "--seed", "2026"]) == 0
    assert capsys.readouterr().out == default


# Each request imports only the modules it runs: the exact genus_forge
# modules that one request leaves in sys.modules of a fresh interpreter,
# keyed by a stem of _GOLDEN (None: importing the CLI and building its
# parser, as the benchmark's start-up does).  A module-level import added
# to the CLI or to a library module changes some set here.
_CLI = {"genus_forge", "genus_forge.cli"}
_QSERIES = _CLI | {f"genus_forge.{m}" for m in ("cyclotomic", "modular", "series", "text")}
_FIXED_POINTS = {f"genus_forge.{m}" for m in ("fixedpoints", "symfunc", "sparsepoly", "text")}
_LOCALIZATION = _QSERIES | _FIXED_POINTS | {"genus_forge.localization"}
_CHIY = _CLI | _FIXED_POINTS | {"genus_forge.localization"}
_HILBERT = _CHIY | {f"genus_forge.{m}" for m in ("cyclotomic", "series")}
_ORBITS = _CLI | _FIXED_POINTS | {"genus_forge.coadjoint"}
_IMPORTED = {
    None: _CLI,
    "eisenstein_3_5": _QSERIES,
    "qn_5": _QSERIES,
    "genus_cp2_4": _LOCALIZATION,
    "relations_cp2": _LOCALIZATION,
    "chiy_cp3_k3": _CHIY,                # no q-series module
    "hilbert_q3": _HILBERT,              # s-series, no modular
    "coadjoint_a3": _ORBITS,             # --xi and --crosscheck
    "coadjoint_a3_q4211": _ORBITS,       # no --xi
    "polytope_cube_k3": _CLI | {"genus_forge.fixedpoints", "genus_forge.polytope"},
    "selftest": _LOCALIZATION | _ORBITS | {"genus_forge.acceptance",
                                           "genus_forge.polytope"},
}
_REQUEST = """
import json, sys
from genus_forge import cli
out, argv = sys.argv[1], sys.argv[2:]
if argv:
    code = cli.main(argv)
else:
    cli.build_parser()
    code = 0
with open(out, "w") as fh:
    json.dump(sorted(m for m in sys.modules if m.partition(".")[0] == "genus_forge"), fh)
sys.exit(code)
"""


@pytest.mark.parametrize("stem", list(_IMPORTED), ids=str)
def test_each_request_imports_only_the_modules_it_runs(stem, tmp_path):
    if stem is None:
        code, argv, golden = 0, [], ""
    elif stem == "selftest":
        code, argv = 0, ["selftest"]
        golden = (_DATA / "selftest.txt").read_text(encoding="utf-8")
    else:
        code, argv = _GOLDEN[stem]
        argv = [arg.format(**_golden_inputs(tmp_path)) for arg in argv]
        golden = (_DATA / f"{stem}.txt").read_text(encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GENUS_FORGE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(genus_forge.__file__).parent.parent), env.get("PYTHONPATH", "")])
    out = tmp_path / "modules.json"
    proc = subprocess.run([sys.executable, "-c", _REQUEST, str(out), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, golden), proc.stderr
    assert set(json.loads(out.read_text())) == _IMPORTED[stem]
