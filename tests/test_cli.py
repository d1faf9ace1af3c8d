"""Command line round trips: exit codes, payload shapes, and byte-level
determinism of stdout.

Everything runs in-process through click's CliRunner, asserting on
result.stdout only: reports go there as sorted JSON, while timing and error
lines go to stderr, so stdout can be compared byte for byte across runs.
"""

import ast
import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from hallcontract import HallContext, HeartContext, char_function
from hallcontract import cartan as ct
from hallcontract import hall
from hallcontract import quiver as qv
from hallcontract.cache import OrbitCache
from hallcontract.cli import main
from hallcontract.ffalg import Field
from hallcontract.repspace import RepSpace

from conftest import (double_orbit_datum, kronecker_datum, mixed_orbit_datum,
                      packed_index)

runner = CliRunner()

A1 = {"vertices": ["1"], "edges": []}
JORDAN = {"vertices": ["1"],
          "edges": [{"id": "l", "source": "1", "target": "1"}]}
KRON = {"vertices": ["p", "m"],
        "edges": [{"id": "e", "source": "p", "target": "m"},
                  {"id": "f", "source": "p", "target": "m"}]}


# a valid datum whose realized graph has 2 * 10^9 vertices and as many edges
HUGE_DATUM = {"labels": ["a", "b"],
              "form": [[2 * 10**9, -2 * 10**9], [-2 * 10**9, 2 * 10**9]],
              "phi1": [10**9, 10**9], "phi2": [0, 0]}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def payload_of(result):
    return json.loads(result.stdout)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_hallc(argv, seconds):
    """hallc argv in a child process held to 1.5 GB of address space and
    killed after `seconds`: (exit code, stderr, the wall time it reported)."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hallcontract.cli", *argv],
                          capture_output=True, text=True, timeout=seconds,
                          preexec_fn=limit_memory,
                          env=dict(os.environ, PYTHONPATH=path))
    wall = re.search(r"^wall time: ([0-9.]+)s$", proc.stderr, re.MULTILINE)
    return proc.returncode, proc.stderr, float(wall.group(1)) if wall else None


def a1_context(q=2):
    quiver, _ = qv.Quiver.from_dict(A1)
    return HallContext(quiver, q, cache=OrbitCache())


# ---------------------------------------------------------------------------
# cartan


def test_cartan_validate_accepts_and_rejects(tmp_path):
    good = write_json(tmp_path, "good.json", kronecker_datum().to_dict())
    r = runner.invoke(main, ["cartan", "validate", good])
    assert r.exit_code == 0
    assert payload_of(r) == {"command": "cartan validate",
                             "status": "pass", "violations": []}

    bad = write_json(tmp_path, "bad.json", {
        "labels": ["a", "b"], "form": [[2, -1], [0, 2]],
        "phi1": {"a": 1, "b": 1}, "phi2": {"a": 0, "b": 0}})
    r = runner.invoke(main, ["cartan", "validate", bad])
    assert r.exit_code == 1
    p = payload_of(r)
    assert p["status"] == "fail"
    assert any("symmetric" in v for v in p["violations"])


def test_unreadable_input_exits_4(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    r = runner.invoke(main, ["cartan", "validate", str(broken)])
    assert r.exit_code == 4
    assert r.stdout == ""
    assert "error:" in r.stderr

    r = runner.invoke(main, ["cartan", "validate", str(tmp_path / "absent.json")])
    assert r.exit_code == 4

    # well-formed JSON that is not a datum
    stub = write_json(tmp_path, "stub.json", {"labels": ["a"]})
    r = runner.invoke(main, ["cartan", "validate", stub])
    assert r.exit_code == 4

    # not UTF-8, nested deeper than the parser goes, a directory, a path
    # under a file
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"labels": ["\u00e9"]}'.encode("latin-1"))
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    for path in (latin1, nested, tmp_path, latin1 / "datum.json"):
        r = runner.invoke(main, ["cartan", "validate", str(path)])
        assert r.exit_code == 4, (path, r.exception)
        assert r.stdout == "" and f"error: cannot read {path}" in r.stderr


def test_unknown_command_exits_2(tmp_path):
    assert runner.invoke(main, ["frobnicate"]).exit_code == 2
    datum = write_json(tmp_path, "d.json", kronecker_datum().to_dict())
    r = runner.invoke(main, ["hall", "verify", "nonsense", datum, "--q", "2"])
    assert r.exit_code == 2


def test_cartan_contract_cli(tmp_path):
    datum = write_json(tmp_path, "kron.json", kronecker_datum().to_dict())
    r = runner.invoke(main, ["cartan", "contract", datum,
                             "--plus", "i+", "--minus", "i-"])
    assert r.exit_code == 0
    assert payload_of(r) == {"labels": ["i++i-"], "form": [[0]],
                             "phi1": {"i++i-": 1}, "phi2": {"i++i-": 1}}

    mixed = write_json(tmp_path, "mixed.json", mixed_orbit_datum().to_dict())
    r = runner.invoke(main, ["cartan", "contract", mixed,
                             "--plus", "a", "--minus", "c"])
    assert r.exit_code == 1
    assert payload_of(r)["violations"]


def assert_refused(argv):
    r = runner.invoke(main, argv)
    assert r.exit_code == 4, (argv, r.stdout, r.exception)
    assert r.stdout == "" and "error:" in r.stderr
    assert "Traceback" not in r.stderr


def test_non_integer_datum_entries_exit_4(tmp_path):
    """A form or weight entry that is a float or a bool is refused, not
    truncated to an integer datum that then validates or contracts."""
    good = kronecker_datum().to_dict()
    bad = [dict(good, form=[[2, -1.9], [-1.9, 2]]),
           dict(good, form=[[2.0, -2], [-2, 2]]),
           dict(good, phi1={"i+": True, "i-": 1}),
           dict(good, phi2={"i+": 0, "i-": 0.0})]
    for k, payload in enumerate(bad):
        path = write_json(tmp_path, f"bad{k}.json", payload)
        assert_refused(["cartan", "validate", path])
        assert_refused(["cartan", "contract", path,
                        "--plus", "i+", "--minus", "i-"])


def test_weyl_search_refuses_malformed_targets(tmp_path):
    datum = kronecker_datum()
    datum_file = write_json(tmp_path, "kron.json", datum.to_dict())
    labels = list(datum.labels)
    targets = [[[-1, 1.9], [0, 1]], [[True, 0], [0, 1]],
               [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]], [[1], [0]]]
    for k, matrix in enumerate(targets):
        target = write_json(tmp_path, f"target{k}.json",
                            {"labels": labels, "matrix": matrix})
        assert_refused(["weyl", "search", datum_file, "--target", target,
                        "--depth", "2"])


def test_cartan_realize_out_file_roundtrips(tmp_path):
    datum = write_json(tmp_path, "kron.json", kronecker_datum().to_dict())
    out = tmp_path / "realized.json"
    r = runner.invoke(main, ["cartan", "realize", datum, "--out", str(out)])
    assert r.exit_code == 0
    assert r.stdout == ""
    realized = json.loads(out.read_text())
    assert len(realized["vertices"]) == 2
    assert len(realized["edges"]) == 2
    assert "automorphism" not in realized

    r = runner.invoke(main, ["quiver", "cartan", str(out)])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["labels"] == ["i+@0", "i-@0"]
    assert p["form"] == [[2, -2], [-2, 2]]
    assert p["phi2"] == {"i+@0": 0, "i-@0": 0}


def test_cartan_realize_is_bounded(tmp_path, monkeypatch):
    # refused before any vertex or edge is built
    huge = write_json(tmp_path, "huge.json", HUGE_DATUM)
    r = runner.invoke(main, ["cartan", "realize", huge])
    assert r.exit_code == 3
    assert r.stdout == "" and "error:" in r.stderr
    assert "Traceback" not in r.stderr

    # two vertices plus 8 or 9 edges against a bound of 10
    monkeypatch.setattr(ct, "DEFAULT_MAX_POINTS", 10)
    for edges, code in ((8, 0), (9, 3)):
        datum = write_json(tmp_path, f"d{edges}.json", {
            "labels": ["a", "b"], "form": [[2, -edges], [-edges, 2]],
            "phi1": [1, 1], "phi2": [0, 0]})
        r = runner.invoke(main, ["cartan", "realize", datum])
        assert r.exit_code == code, edges
        if code == 0:
            assert len(payload_of(r)["edges"]) == edges


# ---------------------------------------------------------------------------
# weyl


def test_weyl_check_psi_cli(tmp_path):
    datum = write_json(tmp_path, "kron.json", kronecker_datum().to_dict())
    r = runner.invoke(main, ["weyl", "check-psi", datum,
                             "--plus", "i+", "--minus", "i-"])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["holds"] is True
    assert p["status"] == "pass"
    assert p["lhs"] == p["rhs"]

    r = runner.invoke(main, ["weyl", "check-psi", datum,
                             "--plus", "zz", "--minus", "i-"])
    assert r.exit_code == 4


def test_weyl_search_cli(tmp_path):
    datum = kronecker_datum()
    datum_file = write_json(tmp_path, "kron.json", datum.to_dict())
    rd = ct.build_root_datum(datum)

    gen = write_json(tmp_path, "gen.json", ct.reflection(rd, "i+").to_dict())
    r = runner.invoke(main, ["weyl", "search", datum_file,
                             "--target", gen, "--depth", "2"])
    assert r.exit_code == 0
    assert payload_of(r) == {"command": "weyl search", "depth": 2,
                             "found": True, "word": ["i+"]}

    one = ct.WeylElement(datum.labels, ((1, 0), (0, 1)))
    ident = write_json(tmp_path, "ident.json", one.to_dict())
    r = runner.invoke(main, ["weyl", "search", datum_file,
                             "--target", ident, "--depth", "2"])
    assert payload_of(r)["word"] == []

    # both generators are congruent to the identity mod 2, this matrix is not
    absent = ct.WeylElement(datum.labels, ((1, 1), (0, 1)))
    absent_file = write_json(tmp_path, "absent.json", absent.to_dict())
    r = runner.invoke(main, ["weyl", "search", datum_file,
                             "--target", absent_file, "--depth", "3"])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["found"] is False
    assert p["word"] is None


def test_weyl_search_cli_bounds_the_enumeration(tmp_path, monkeypatch):
    """An unreachable target exits 3 once the search passes the element
    bound (lowered here so the test stays small); a negative depth is a
    usage error."""
    datum = mixed_orbit_datum()
    datum_file = write_json(tmp_path, "mixed.json", datum.to_dict())
    # determinant 2: no product of reflections (determinant +-1) reaches it
    target = ct.WeylElement(datum.labels, ((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    target_file = write_json(tmp_path, "target.json", target.to_dict())
    argv = ["weyl", "search", datum_file, "--target", target_file]

    r = runner.invoke(main, argv + ["--depth", "6"])
    assert r.exit_code == 0
    assert payload_of(r)["found"] is False

    monkeypatch.setattr(ct, "DEFAULT_MAX_POINTS", 1000)
    r = runner.invoke(main, argv + ["--depth", "20"])
    assert r.exit_code == 3
    assert r.stdout == ""
    assert "more than 1000 Weyl group elements" in r.stderr

    r = runner.invoke(main, argv + ["--depth", "-1"])
    assert r.exit_code == 2
    assert r.stdout == ""


# ---------------------------------------------------------------------------
# quiver


def test_quiver_cartan_cli(tmp_path):
    quiver_file = write_json(tmp_path, "kron.json", KRON)
    r = runner.invoke(main, ["quiver", "cartan", quiver_file])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["labels"] == ["p", "m"]
    assert p["form"] == [[2, -2], [-2, 2]]
    assert p["phi2"] == {"p": 0, "m": 0}

    swapped = dict(KRON)
    swapped["automorphism"] = {"vertices": {"p": "m", "m": "p"},
                               "edges": {"e": "f", "f": "e"}}
    swapped_file = write_json(tmp_path, "swapped.json", swapped)
    r = runner.invoke(main, ["quiver", "cartan", swapped_file])
    assert r.exit_code == 1
    assert any("inside one vertex orbit" in v
               for v in payload_of(r)["violations"])


def test_quiver_contract_cli(tmp_path):
    quiver_file = write_json(tmp_path, "kron.json", KRON)
    r = runner.invoke(main, ["quiver", "contract", quiver_file,
                             "--plus-orbit", "p", "--minus-orbit", "m"])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["vertices"] == ["p"]
    assert p["edges"] == [{"id": "~e*f", "source": "p", "target": "p"}]
    assert p["provenance"] == {"~e*f": ["pre", "e", "f"]}
    assert p["contraction_edges"] == ["e"]
    assert p["role_swapped"] is False

    r = runner.invoke(main, ["quiver", "contract", quiver_file,
                             "--plus-orbit", "m", "--minus-orbit", "p"])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["role_swapped"] is True
    assert p["vertices"] == ["p"]

    r = runner.invoke(main, ["quiver", "contract", quiver_file,
                             "--plus-orbit", "p", "--minus-orbit", "m",
                             "--edge", "zz"])
    assert r.exit_code == 4


def test_quiver_verify_l14_cli(tmp_path):
    quiver_file = write_json(tmp_path, "kron.json", KRON)
    r = runner.invoke(main, ["quiver", "verify-l14", quiver_file,
                             "--plus-orbit", "p", "--minus-orbit", "m"])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["agree"] is True
    assert p["status"] == "pass"
    assert p["label_mapping"]
    assert p["contract_then_cartan"]["labels"]
    assert p["cartan_then_contract"]["labels"]

    # the datum side cannot name the merged label "p+m": it is taken
    taken = write_json(tmp_path, "taken.json", dict(KRON, vertices=["p", "m", "p+m"]))
    r = runner.invoke(main, ["quiver", "verify-l14", taken,
                             "--plus-orbit", "p", "--minus-orbit", "m", "--edge", "e"])
    assert r.exit_code == 4, r.exc_info
    assert "already a label" in r.stderr


def test_quiver_site_violations_are_reported(tmp_path):
    """A loop on the minus vertex breaks a contraction assumption, and the
    vertex swap of the Kronecker quiver is not admissible: contract and
    verify-l14 print the violations report and exit 1."""
    looped = write_json(tmp_path, "looped.json", dict(
        KRON, edges=KRON["edges"] + [{"id": "l", "source": "m", "target": "m"}]))
    swapped = write_json(tmp_path, "swapped.json", dict(
        KRON, automorphism={"vertices": {"p": "m", "m": "p"},
                            "edges": {"e": "f", "f": "e"}}))
    for command in ("contract", "verify-l14"):
        for path, violation in ((looped, "loop l sits on contracted vertex m"),
                                (swapped, "inside one vertex orbit")):
            r = runner.invoke(main, ["quiver", command, path,
                                     "--plus-orbit", "p", "--minus-orbit", "m"])
            assert r.exit_code == 1, (command, path, r.exc_info)
            p = payload_of(r)
            assert (p["command"], p["status"]) == (f"quiver {command}", "fail")
            assert any(violation in v for v in p["violations"]), p


def test_quiver_verify_l14_fails_on_a_contraction_right_only_up_to_relabeling(
        tmp_path, monkeypatch):
    """With the merged label put in the minus label's slot, the loop of
    p⇉m lands on a instead of the merged vertex; some relabeling still
    matches the graph side, the contraction's own label map does not."""
    def merged_in_minus_slot(labels, pair):
        i0 = ct.merged_label(pair)
        return tuple(i0 if x == pair.minus else x for x in labels if x != pair.plus)

    monkeypatch.setattr(ct, "_merged_labels", merged_in_minus_slot)
    quiver_file = write_json(tmp_path, "pam.json", {
        "vertices": ["p", "a", "m"],
        "edges": KRON["edges"] + [{"id": "g", "source": "a", "target": "p"},
                                  {"id": "h", "source": "a", "target": "m"}]})
    r = runner.invoke(main, ["quiver", "verify-l14", quiver_file,
                             "--plus-orbit", "p", "--minus-orbit", "m"])
    assert r.exit_code == 1, r.exc_info
    p = payload_of(r)
    assert p["agree"] is False and p["status"] == "fail"
    assert p["label_mapping"] is None
    assert p["cartan_then_contract"]["labels"] == ["a", "p+m"]


# ---------------------------------------------------------------------------
# hall


def test_hall_orbits_cli(tmp_path):
    quiver_file = write_json(tmp_path, "jordan.json", JORDAN)
    r = runner.invoke(main, ["hall", "orbits", quiver_file,
                             "--dim", "2", "--q", "2"])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["count"] == 6
    assert p["total_points"] == 16
    assert p["dims"] == {"1": 2}
    assert "seed" not in p
    assert p["quiver"] == qv.Quiver.from_dict(JORDAN)[0].content_hash()
    assert [o["id"] for o in p["orbits"]] == [f"o{k}" for k in range(6)]
    assert [o["size"] for o in p["orbits"]] == [1, 6, 3, 3, 2, 1]
    assert p["orbits"][0]["representative"] == {"l": [[0, 0], [0, 0]]}
    assert p["orbits"][2]["representative"] == {"l": [[0, 0], [1, 0]]}

    # the orbit table is exhaustive, so there is no seed to accept
    r = runner.invoke(main, ["hall", "orbits", quiver_file,
                             "--dim", "2", "--q", "2", "--seed", "7"])
    assert r.exit_code == 2


def test_hall_orbits_named_dims_and_determinism(tmp_path):
    quiver_file = write_json(tmp_path, "jordan.json", JORDAN)
    r1 = runner.invoke(main, ["hall", "orbits", quiver_file,
                              "--dim", "1=2", "--q", "2"])
    r2 = runner.invoke(main, ["hall", "orbits", quiver_file,
                              "--dim", "2", "--q", "2"])
    r3 = runner.invoke(main, ["hall", "orbits", quiver_file,
                              "--dim", "2", "--q", "2"])
    assert r1.exit_code == r2.exit_code == r3.exit_code == 0
    assert r1.stdout == r2.stdout == r3.stdout


def test_hall_orbits_failure_modes(tmp_path):
    # a quiver no other test touches, so the bound check runs cold
    loop = write_json(tmp_path, "loop.json", {
        "vertices": ["z"],
        "edges": [{"id": "zz", "source": "z", "target": "z"}]})
    r = runner.invoke(main, ["hall", "orbits", loop, "--dim", "2", "--q", "2",
                             "--bounds", "1"])
    assert r.exit_code == 3
    assert "error:" in r.stderr

    for bounds in ("0", "1,10000"):
        r = runner.invoke(main, ["hall", "orbits", loop, "--dim", "2",
                                 "--q", "2", "--bounds", bounds])
        assert r.exit_code == 4, bounds

    jordan = write_json(tmp_path, "jordan.json", JORDAN)
    r = runner.invoke(main, ["hall", "orbits", jordan,
                             "--dim", "1,2", "--q", "2"])
    assert r.exit_code == 4
    r = runner.invoke(main, ["hall", "orbits", jordan,
                             "--dim", "p=2", "--q", "2"])
    assert r.exit_code == 4
    # a vertex named twice is refused, whichever value would have won
    kron = write_json(tmp_path, "kron.json", KRON)
    for spec in ("p=1,m=1,p=2", "p=1,m=1,m=0", "m=0, m=0,p=1"):
        assert_refused(["hall", "orbits", kron, "--dim", spec, "--q", "2"])
    for q in ("6", "1", "0", "-2", str(10**400)):
        r = runner.invoke(main, ["hall", "orbits", jordan,
                                 "--dim", "1", "--q", q])
        assert r.exit_code == 4, (q, r.exception)
        assert r.stdout == "" and "error:" in r.stderr

    swapped = dict(KRON)
    swapped["automorphism"] = {"vertices": {"p": "m", "m": "p"},
                               "edges": {"e": "f", "f": "e"}}
    swapped_file = write_json(tmp_path, "swapped.json", swapped)
    r = runner.invoke(main, ["hall", "orbits", swapped_file,
                             "--dim", "1,1", "--q", "2"])
    assert r.exit_code == 4


def test_malformed_quiver_json_exits_4(tmp_path):
    edge = {"id": "e", "source": "a", "target": "b"}
    malformed = [
        {"vertices": "ab", "edges": []},
        {"vertices": ["a", 1], "edges": []},
        {"vertices": {"a": 1}, "edges": []},
        {"vertices": ["a", "b"], "edges": "e"},
        {"vertices": ["a", "b"], "edges": [["e", "a", "b"]]},
        {"vertices": ["a", "b"], "edges": [dict(edge, id=7)]},
        {"vertices": ["a", "b"], "edges": [dict(edge, source=None)]},
        {"vertices": ["a", "b"], "edges": [{"id": "e", "source": "a"}]},
        ["a", "b"],
    ]
    for k, payload in enumerate(malformed):
        path = write_json(tmp_path, f"bad{k}.json", payload)
        r = runner.invoke(main, ["hall", "orbits", path, "--dim", "1,1", "--q", "2"])
        assert r.exit_code == 4, (payload, r.exception)
        assert r.stdout == "" and "error:" in r.stderr


def test_a_field_size_without_a_modulus_exits_4_at_once(tmp_path):
    """Field sizes are looked up, not factored: a prime q of ten digits
    is refused as fast as q = 6."""
    kron = write_json(tmp_path, "kron.json", KRON)
    code, stderr, wall = run_hallc(["hall", "orbits", kron, "--dim", "1,1",
                                    "--q", "1000000007"], seconds=20)
    assert code == 4 and "error: no modulus on file" in stderr
    assert wall < 1.0


def test_hall_orbits_recomputes_a_forged_cache_entry(tmp_path):
    env = {"HALL_CACHE_DIR": str(tmp_path / "cache")}
    quiver, _ = qv.Quiver.from_dict(KRON)
    space = RepSpace(quiver, Field(2), {"p": 1, "m": 1})
    # well-formed, but claims the four points form one orbit, and 4 does not
    # divide the order 1 of GL_1(F_2) x GL_1(F_2)
    OrbitCache(env["HALL_CACHE_DIR"]).store(
        space.cache_key(),
        {"index": packed_index([0] * 4), "sizes": [4], "rep_ranks": [0]})
    kron = write_json(tmp_path, "kron.json", KRON)
    r = runner.invoke(main, ["hall", "orbits", kron, "--dim", "1,1", "--q", "2"],
                      env=env)
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["count"] == 4
    assert [o["size"] for o in p["orbits"]] == [1, 1, 1, 1]


def test_unreadable_cache_entries_are_misses(tmp_path):
    """An entry that is not UTF-8 or nests past the parser is recomputed:
    stdout as on a cold run, the entry rewritten; cache info lists it."""
    env = {"HALL_CACHE_DIR": str(tmp_path / "cache")}
    argv = ["hall", "orbits", write_json(tmp_path, "kron.json", KRON),
            "--dim", "1,1", "--q", "3"]
    cold = runner.invoke(main, argv, env=env)
    assert cold.exit_code == 0
    (entry,) = (tmp_path / "cache").iterdir()
    good = entry.read_bytes()
    for bad in (b"\xff" + good, b"[" * 100_000 + b"]" * 100_000):
        entry.write_bytes(bad)
        info = payload_of(runner.invoke(main, ["cache", "info"], env=env))
        assert (info["entries"], info["bytes"]) == (1, 0)
        r = runner.invoke(main, argv, env=env)
        assert r.exit_code == 0, r.exception
        assert r.stdout == cold.stdout
        assert entry.read_bytes() == good


def test_a_cache_that_cannot_be_written_exits_4(tmp_path):
    """$HALL_CACHE_DIR naming a file, and a directory at an entry's path:
    exit 4 naming the directory and the reason, and no temp file left."""
    kron = write_json(tmp_path, "kron.json", KRON)
    argv = ["hall", "orbits", kron, "--dim", "1,1", "--q", "2"]
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cache = tmp_path / "cache"
    runner.invoke(main, argv, env={"HALL_CACHE_DIR": str(cache)})
    (entry,) = cache.iterdir()
    entry.unlink()
    entry.mkdir()
    for directory, reason in ((blocker, "File exists"), (cache, "Is a directory")):
        r = runner.invoke(main, argv, env={"HALL_CACHE_DIR": str(directory)})
        assert r.exit_code == 4, (directory, r.exception)
        assert r.stdout == ""
        assert f"error: cannot write the cache {directory}: {reason}" in r.stderr
    assert list(cache.iterdir()) == [entry]
    info = payload_of(runner.invoke(main, ["cache", "info"],
                                    env={"HALL_CACHE_DIR": str(cache)}))
    assert (info["entries"], info["bytes"]) == (1, 0)


def test_an_out_path_that_cannot_be_written_exits_4(tmp_path):
    """--out under a missing directory and under a regular file: exit 4 with
    one error line naming the path and the reason, nothing on stdout, and
    nothing created."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    env = {"HALL_CACHE_DIR": str(tmp_path / "cache")}
    for out, reason in ((tmp_path / "missing" / "x.json", "No such file or directory"),
                        (blocker / "x.json", "Not a directory")):
        r = runner.invoke(main, ["cache", "info", "--out", str(out)], env=env)
        assert r.exit_code == 4, (out, r.exception)
        assert r.stdout == ""
        assert [line for line in r.stderr.splitlines()
                if not line.startswith("wall time:")] == [
            f"error: cannot write {out}: {reason}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
    assert blocker.read_text() == ""


def test_cache_purge_removes_regular_files_only(tmp_path):
    """A stale temp file goes with the entry; directories under names the
    cache owns stay."""
    cache = tmp_path / "cache"
    env = {"HALL_CACHE_DIR": str(cache)}
    runner.invoke(main, ["hall", "orbits", write_json(tmp_path, "kron.json", KRON),
                         "--dim", "1,1", "--q", "2"], env=env)
    dir_entry = "0" * 64 + ".json"
    (cache / "hallcache-stale.tmp").write_text("")
    (cache / dir_entry).mkdir()
    (cache / "hallcache-dir.tmp").mkdir()
    r = runner.invoke(main, ["cache", "purge"], env=env)
    assert r.exit_code == 0, r.exception
    assert payload_of(r)["removed"] == 2
    assert sorted(p.name for p in cache.iterdir()) == [dir_entry, "hallcache-dir.tmp"]


def test_cache_commands_leave_files_the_cache_does_not_own(tmp_path):
    """With the cache in a directory of quiver and note files, cache info
    counts only the entry and cache purge removes only it."""
    env = {"HALL_CACHE_DIR": str(tmp_path)}
    kron = write_json(tmp_path, "kron.json", KRON)
    write_json(tmp_path, "notes.json", {"note": "not a cache entry"})
    others = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    r = runner.invoke(main, ["hall", "orbits", kron, "--dim", "1,1", "--q", "2"],
                      env=env)
    assert r.exit_code == 0, r.exception
    info = payload_of(runner.invoke(main, ["cache", "info"], env=env))
    assert info["entries"] == 1
    r = runner.invoke(main, ["cache", "purge"], env=env)
    assert r.exit_code == 0, r.exception
    assert payload_of(r)["removed"] == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == others


def test_hall_mult_cli(tmp_path):
    quiver_file = write_json(tmp_path, "a1.json", A1)
    ctx = a1_context()
    theta1 = write_json(tmp_path, "theta1.json",
                        char_function(ctx, (1,), 0).to_json())
    r = runner.invoke(main, ["hall", "mult", quiver_file, theta1, theta1,
                             "--q", "2"])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["q"] == 2
    assert p["quiver"] == ctx.quiver.content_hash()
    assert p["terms"] == [{"coeff": {"a": "0", "b": "3/2"},
                           "dim": {"1": 2}, "orbit": "o0"}]

    # same element serialized over q = 3 cannot be loaded into a q = 2 run
    wrong_q = write_json(tmp_path, "theta1q3.json",
                         char_function(a1_context(3), (1,), 0).to_json())
    r = runner.invoke(main, ["hall", "mult", quiver_file, theta1, wrong_q,
                             "--q", "2"])
    assert r.exit_code == 4


def test_huge_dims_exit_3_without_counting_points(tmp_path):
    """3^9800 points cannot even be printed as an int, and 3^72000000 takes
    minutes to compute; the bound refuses both from the exponent. On A1
    every dimension passes the point bound, but the graded subspaces of a
    product or a restriction at dim 300 number about 2^22500, and the
    bound message writes that count by its bit length."""
    quiver_file = write_json(tmp_path, "kron.json", KRON)
    for dims in ("70,70", "6000,6000"):
        r = runner.invoke(main, ["hall", "orbits", quiver_file, "--dim", dims,
                                 "--q", "3"])
        assert r.exit_code == 3, (dims, r.exception)
        assert f"3^{2 * int(dims.split(',')[0]) ** 2} points" in r.stderr
        assert "Traceback" not in r.stderr
    element = write_json(tmp_path, "big.json", {
        "q": 3, "quiver": qv.Quiver.from_dict(KRON)[0].content_hash(),
        "terms": [{"dim": {"p": 70, "m": 70}, "orbit": "o0",
                   "coeff": {"a": "1", "b": "0"}}]})
    r = runner.invoke(main, ["hall", "mult", quiver_file, element, element,
                             "--q", "3"])
    assert r.exit_code == 3, r.exception
    assert "Traceback" not in r.stderr
    a1_file = write_json(tmp_path, "a1.json", A1)

    def a1_element(d):
        return write_json(tmp_path, f"f{d}.json", {
            "q": 2, "quiver": qv.Quiver.from_dict(A1)[0].content_hash(),
            "terms": [{"dim": {"1": d}, "orbit": "o0", "coeff": {"a": "1", "b": "0"}}]})
    for args in (["mult", a1_file, a1_element(150), a1_element(150)],
                 ["res", a1_file, a1_element(300), "--tau", "1=150", "--omega", "1=150"]):
        r = runner.invoke(main, ["hall", *args, "--q", "2"])
        assert r.exit_code == 3, (args[0], r.exception)
        assert r.stdout == "" and "error: at least 2^" in r.stderr
        assert "Traceback" not in r.stderr


def test_verify_bialgebra_bounds_its_grade_keys_before_listing_them(tmp_path):
    """(max_dim + 1)^2 keys at --max-dim 100000 are refused from the count,
    before any list of them is built."""
    kron = write_json(tmp_path, "kron.json", KRON)
    code, stderr, wall = run_hallc(["hall", "verify", "bialgebra", kron,
                                    "--q", "2", "--max-dim", "100000"], seconds=20)
    assert code == 3 and "grade keys exceed the bound" in stderr
    assert wall < 1.0


def test_an_output_coefficient_too_long_to_write_exits_3(tmp_path):
    """A 4,000-digit coefficient is read, but its square has more digits
    than str writes."""
    quiver_file = write_json(tmp_path, "a1.json", A1)
    good = char_function(a1_context(), (1,), 0).to_json()
    (term,) = good["terms"]
    f = write_json(tmp_path, "big.json", dict(good, terms=[
        dict(term, coeff={"a": "1" + "0" * 3999, "b": "0"})]))
    r = runner.invoke(main, ["hall", "mult", quiver_file, f, f, "--q", "2"])
    assert r.exit_code == 3, r.exception
    assert r.stdout == "" and "too long to write" in r.stderr


def test_malformed_element_json_exits_4(tmp_path):
    quiver_file = write_json(tmp_path, "a1.json", A1)
    good = char_function(a1_context(), (1,), 0).to_json()
    (term,) = good["terms"]
    malformed = [
        [],
        dict(good, terms=[dict(term, orbit=0)]),
        dict(good, terms=[dict(term, coeff={"a": "1/0", "b": "0"})]),
        dict(good, terms=[dict(term, coeff={"a": 0.1, "b": "0"})]),
        dict(good, terms=[dict(term, coeff={"a": True, "b": "0"})]),
        # exponent notation, which Fraction would expand to 10**exponent
        dict(good, terms=[dict(term, coeff={"a": "1e5", "b": "0"})]),
        dict(good, terms=[dict(term, coeff={"a": "0", "b": "2E-3"})]),
        dict(good, terms=[dict(term, coeff={"a": "-1.5e1", "b": "0"})]),
        # orbit o0 spelled other than canonically
        dict(good, terms=[dict(term, orbit="o00")]),
        dict(good, terms=[dict(term, orbit="o+0")]),
        dict(good, terms=[dict(term, orbit="o 0")]),
    ]
    for k, payload in enumerate(malformed):
        path = write_json(tmp_path, f"bad{k}.json", payload)
        r = runner.invoke(main, ["hall", "mult", quiver_file, path, path,
                                 "--q", "2"])
        assert r.exit_code == 4, (payload, r.exception)
        assert r.stdout == "" and "error:" in r.stderr


def test_hall_res_cli(tmp_path):
    quiver_file = write_json(tmp_path, "a1.json", A1)
    ctx = a1_context()
    theta2 = write_json(tmp_path, "theta2.json",
                        char_function(ctx, (2,), 0).to_json())

    r = runner.invoke(main, ["hall", "res", quiver_file, theta2, "--q", "2"])
    assert r.exit_code == 0
    assert payload_of(r)["terms"] == [
        {"coeff": {"a": "1", "b": "0"},
         "left": {"dim": {"1": 0}, "orbit": "o0"},
         "right": {"dim": {"1": 2}, "orbit": "o0"}},
        {"coeff": {"a": "0", "b": "1"},
         "left": {"dim": {"1": 1}, "orbit": "o0"},
         "right": {"dim": {"1": 1}, "orbit": "o0"}},
        {"coeff": {"a": "1", "b": "0"},
         "left": {"dim": {"1": 2}, "orbit": "o0"},
         "right": {"dim": {"1": 0}, "orbit": "o0"}},
    ]

    r = runner.invoke(main, ["hall", "res", quiver_file, theta2, "--q", "2",
                             "--tau", "1", "--omega", "1"])
    assert r.exit_code == 0
    assert payload_of(r)["terms"] == [
        {"coeff": {"a": "0", "b": "1"},
         "left": {"dim": {"1": 1}, "orbit": "o0"},
         "right": {"dim": {"1": 1}, "orbit": "o0"}}]

    r = runner.invoke(main, ["hall", "res", quiver_file, theta2, "--q", "2",
                             "--tau", "2", "--omega", "2"])
    assert r.exit_code == 4
    r = runner.invoke(main, ["hall", "res", quiver_file, theta2, "--q", "2",
                             "--tau", "1"])
    assert r.exit_code == 4
    # the last value would give the valid split 1 + 1
    assert_refused(["hall", "res", quiver_file, theta2, "--q", "2",
                    "--tau", "1=2,1=1", "--omega", "1"])


def test_hall_psi_cli(tmp_path):
    quiver_file = write_json(tmp_path, "kron.json", KRON)
    quiver, _ = qv.Quiver.from_dict(KRON)
    ctx = HallContext(quiver, 2, cache=OrbitCache())
    heart = HeartContext(ctx, "p", "m", "e")
    fhat = write_json(tmp_path, "fhat.json",
                      char_function(heart.hat, (1,), 0).to_json())

    r = runner.invoke(main, ["hall", "psi", quiver_file, fhat, "--q", "2",
                             "--plus", "p", "--minus", "m", "--edge", "e"])
    assert r.exit_code == 0
    assert payload_of(r)["terms"] == [{"coeff": {"a": "0", "b": "1/2"},
                                       "dim": {"m": 1, "p": 1},
                                       "orbit": "o2"}]

    r = runner.invoke(main, ["hall", "psi", quiver_file, fhat, "--q", "2"])
    assert r.exit_code == 4
    assert "--plus and --minus" in r.stderr

    r = runner.invoke(main, ["hall", "psi", quiver_file, fhat, "--q", "2",
                             "--plus", "p", "--minus", "m", "--edge", "zz"])
    assert r.exit_code == 4
    assert "unknown edge" in r.stderr


@pytest.mark.parametrize("bad", [True, 1.0])
@pytest.mark.parametrize("bad_first", [True, False])
def test_non_integer_element_dims_exit_4(tmp_path, bad, bad_first):
    """A bool or float dimension is refused whether or not its grade's
    orbit table is already memoized by an earlier term."""
    quiver_file = write_json(tmp_path, "kron.json", KRON)
    quiver, _ = qv.Quiver.from_dict(KRON)
    heart = HeartContext(HallContext(quiver, 2, cache=OrbitCache()), "p", "m", "e")
    good = char_function(heart.hat, (1,), 0).to_json()
    (term,) = good["terms"]
    odd = dict(term, dim={v: bad for v in term["dim"]})
    terms = [odd, term] if bad_first else [term, odd]
    f = write_json(tmp_path, "f.json", dict(good, terms=terms))
    assert_refused(["hall", "psi", quiver_file, f, "--q", "2",
                    "--plus", "p", "--minus", "m"])


def test_rep_space_refuses_bool_dims():
    quiver, _ = qv.Quiver.from_dict(KRON)
    with pytest.raises(ValueError, match="nonnegative integer"):
        RepSpace(quiver, Field(2), {"p": True, "m": 1})


def test_hall_verify_cli(tmp_path):
    quiver_file = write_json(tmp_path, "kron.json", KRON)
    r = runner.invoke(main, ["hall", "verify", "embedding", quiver_file,
                             "--q", "2", "--max-dim", "1",
                             "--plus", "p", "--minus", "m"])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["status"] == "pass"
    assert p["failures"] == 0
    assert "seed" not in p["config"]
    assert p["config"]["bounds"] == {"max_points": 1 << 20}
    assert "embedding-multiplicative" in {c["check_id"] for c in p["checks"]}

    # the suites are exhaustive, so there is no seed to accept
    r = runner.invoke(main, ["hall", "verify", "embedding", quiver_file,
                             "--q", "2", "--max-dim", "1",
                             "--plus", "p", "--minus", "m", "--seed", "7"])
    assert r.exit_code == 2

    r = runner.invoke(main, ["hall", "verify", "comult-compat", quiver_file,
                             "--q", "2", "--max-dim", "1",
                             "--plus", "p", "--minus", "m"])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["status"] == "observed"
    assert p["cases"]

    a1_file = write_json(tmp_path, "a1.json", A1)
    r = runner.invoke(main, ["hall", "verify", "bialgebra", a1_file,
                             "--q", "2", "--max-dim", "1"])
    assert r.exit_code == 0
    assert payload_of(r)["status"] == "pass"

    # a negative depth would run zero checks and report them as a pass
    r = runner.invoke(main, ["hall", "verify", "bialgebra", a1_file,
                             "--q", "2", "--max-dim", "-1"])
    assert r.exit_code == 2
    assert r.stdout == ""

    r = runner.invoke(main, ["hall", "verify", "embedding", quiver_file,
                             "--q", "2", "--max-dim", "1"])
    assert r.exit_code == 4
    assert "--plus and --minus" in r.stderr


def _swap_complement_split(monkeypatch):
    real = hall.complement_split
    monkeypatch.setattr(hall, "complement_split", lambda hc, f: real(hc, f)[::-1])


def _double_contracted_twist(monkeypatch):
    # the contracted Kronecker quiver is the one-vertex Jordan loop
    real = hall._product_grade

    def doubled(ctx, tkey, wkey):
        nk, twist = real(ctx, tkey, wkey)
        return nk, twist * 2 if len(ctx.quiver.vertices) == 1 else twist
    monkeypatch.setattr(hall, "_product_grade", doubled)


def _double_untwisted_transport(monkeypatch):
    real = hall.mu_star

    def doubled(hc, fhat, twisted=True):
        out = real(hc, fhat, twisted)
        return out if twisted else out.scale(2)
    monkeypatch.setattr(hall, "mu_star", doubled)


def _untwisted_psi(monkeypatch):
    monkeypatch.setattr(
        hall, "psi", lambda hc, f: hall.j_shriek(hc, hall.mu_star(hc, f, twisted=False)))


def _double_extension_by_zero(monkeypatch):
    real = hall.j_shriek
    monkeypatch.setattr(hall, "j_shriek", lambda hc, f: real(hc, f).scale(2))


def _double_pushforward(monkeypatch):
    real = hall.mu_lower_star
    monkeypatch.setattr(hall, "mu_lower_star", lambda hc, f: real(hc, f).scale(2))


def _identity_restriction(monkeypatch):
    monkeypatch.setattr(hall, "j_star", lambda hc, f: f)


def _double_tensor_product(monkeypatch):
    real = hall.tensor_mult
    monkeypatch.setattr(hall, "tensor_mult", lambda t1, t2: real(t1, t2).scale(2))


def _grade_scaled_restriction(monkeypatch):
    # 2^{|tau|} is additive in the grade, so the coproduct stays
    # multiplicative, but the two ways of splitting three times disagree
    real = hall._res
    monkeypatch.setattr(hall, "_res",
                        lambda f, tk, wk: real(f, tk, wk).scale(2 ** sum(tk)))


NEGATIVE_CONTROLS = [
    ("ideal", "complement-two-sided-ideal", _swap_complement_split, 4),
    ("embedding", "embedding-multiplicative", _double_contracted_twist, 5),
    ("pbw", "pbw-transport-untwisted", _double_untwisted_transport, 3),
    ("pbw", "pbw-transport-twisted", _untwisted_psi, 2),
    ("ses", "heart-subalgebra-split", _swap_complement_split, 5),
    ("ses", "restrict-after-extend", _double_extension_by_zero, 3),
    ("ses", "restriction-kernel", _identity_restriction, 6),
    ("embedding", "embedding-injective-roundtrip", _double_pushforward, 3),
    ("ses", "quotient-algebra-map", _double_pushforward, 5),
    ("bialgebra", "coproduct-algebra-map", _double_tensor_product, 49),
    ("bialgebra", "coproduct-coassociative", _grade_scaled_restriction, 6),
]


@pytest.mark.parametrize("suite, check_id, mutate, failures", NEGATIVE_CONTROLS,
                         ids=[control[1] for control in NEGATIVE_CONTROLS])
def test_negative_controls_fail_their_check(tmp_path, monkeypatch, suite,
                                            check_id, mutate, failures):
    """A mutation of what a check guards makes that check, and no other,
    fail: the report's status is fail and the command exits 1."""
    quiver_file = write_json(tmp_path, "kron.json", KRON)
    mutate(monkeypatch)
    r = runner.invoke(main, ["hall", "verify", suite, quiver_file, "--q", "2",
                             "--max-dim", "1", "--plus", "p", "--minus", "m"])
    assert r.exit_code == 1
    p = payload_of(r)
    assert p["status"] == "fail" and p["failures"] == failures
    assert [c["check_id"] for c in p["checks"]
            if c["status"] == "fail"] == [check_id] * failures


# check ids no negative control reaches yet; each leaves this list once
# it gets a parameter above. contraction-twist-exponent reads m_omega, as
# circ does, so a wrong exponent on the contracted quiver also fails
# embedding-multiplicative: the check is evidence about circ only while it
# reads that same exponent. The "j* keeps heart" restriction-kernel site
# has no control of its own either: restrict-after-extend on the same
# vector implies it, because j_shriek returns f unchanged, so a j_star
# that drops a heart term fails both and no mutation fails it alone.
UNCONTROLLED_CHECK_IDS = {"contraction-twist-exponent"}


def test_every_check_id_has_a_negative_control_or_is_listed():
    """The literal check_id of every _check(...) call in hall.py, read from
    its syntax tree so that a name split over lines is still found, is
    either forced to fail by a negative control or listed as uncontrolled."""
    tree = ast.parse(Path(hall.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_check"]
    assert all(isinstance(call.args[1], ast.Constant) for call in calls)
    found = {call.args[1].value for call in calls}
    controlled = {control[1] for control in NEGATIVE_CONTROLS}
    assert not controlled & UNCONTROLLED_CHECK_IDS
    assert found == controlled | UNCONTROLLED_CHECK_IDS


def test_vacuous_check_sweep_patches_each_site_once():
    """scripts/vacuous_checks.py finds every _check(...) call in hall.py,
    and its patch of each one lands at exactly that call."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "vacuous_checks.py"
    spec = importlib.util.spec_from_file_location("vacuous_checks", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    source = Path(hall.__file__).read_text()
    sites = sweep.sites(source)
    assert len(sites) == source.count("_check(") - 1  # every call, not the def
    calls = sorted((node for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_check"),
                   key=lambda node: (node.lineno, node.col_offset))
    assert [(s.call, s.passed) for s in sites] == [
        (ast.get_source_segment(source, c), ast.get_source_segment(source, c.args[2]))
        for c in calls]
    for k, site in enumerate(sites):
        expected = [s.passed for s in sites]
        expected[k] = f"True or ({site.passed})"
        assert [s.passed for s in sweep.sites(sweep.patch(source, site))] == expected


def test_verify_that_decides_no_check_does_not_pass(tmp_path):
    # at depth 0 every orbit is in the heart, so the ideal suite has no case
    quiver_file = write_json(tmp_path, "kron.json", KRON)
    argv = ["hall", "verify", "ideal", quiver_file, "--q", "2", "--max-dim", "0",
            "--plus", "p", "--minus", "m"]
    r = runner.invoke(main, argv)
    assert r.exit_code == 1
    p = payload_of(r)
    assert p["checks"] == [] and p["failures"] == 0
    assert p["status"] == "empty"

    r = runner.invoke(main, argv + ["--format", "table"])
    assert r.exit_code == 1
    assert r.stdout.strip() == "0 failed / 0 checks"


def test_hall_verify_table_format(tmp_path):
    quiver_file = write_json(tmp_path, "kron.json", KRON)
    r = runner.invoke(main, ["hall", "verify", "embedding", quiver_file,
                             "--q", "2", "--max-dim", "1",
                             "--plus", "p", "--minus", "m",
                             "--format", "table"])
    assert r.exit_code == 0
    lines = r.stdout.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert any("embedding-multiplicative" in line for line in lines)
    assert re.fullmatch(r"0 failed / \d+ checks", lines[-1])


# ---------------------------------------------------------------------------
# cache


def test_cache_commands_honor_cache_dir(tmp_path):
    env = {"HALL_CACHE_DIR": str(tmp_path / "cache")}

    r = runner.invoke(main, ["cache", "info"], env=env)
    assert r.exit_code == 0
    assert payload_of(r) == {"command": "cache info",
                             "directory": str(tmp_path / "cache"),
                             "entries": 0, "bytes": 0}

    jordan = write_json(tmp_path, "jordan.json", JORDAN)
    r = runner.invoke(main, ["hall", "orbits", jordan,
                             "--dim", "2", "--q", "2"], env=env)
    assert r.exit_code == 0

    r = runner.invoke(main, ["cache", "info"], env=env)
    p = payload_of(r)
    assert p["entries"] >= 1
    assert p["bytes"] > 0

    r = runner.invoke(main, ["cache", "purge"], env=env)
    assert r.exit_code == 0
    assert payload_of(r)["removed"] == p["entries"]

    r = runner.invoke(main, ["cache", "info"], env=env)
    assert payload_of(r)["entries"] == 0


# ---------------------------------------------------------------------------
# the contract every command shares


COMMANDS = [
    ["cartan", "validate", "{datum}"],
    ["cartan", "contract", "{datum}", "--plus", "i+", "--minus", "i-"],
    ["cartan", "realize", "{datum}"],
    ["weyl", "check-psi", "{datum}", "--plus", "i+", "--minus", "i-"],
    ["weyl", "search", "{datum}", "--target", "{target}", "--depth", "2"],
    ["quiver", "cartan", "{kron}"],
    ["quiver", "contract", "{kron}", "--plus-orbit", "p", "--minus-orbit", "m"],
    ["quiver", "verify-l14", "{kron}", "--plus-orbit", "p", "--minus-orbit", "m"],
    ["hall", "orbits", "{kron}", "--dim", "1,1", "--q", "2"],
    ["hall", "mult", "{kron}", "{element}", "{element}", "--q", "2"],
    ["hall", "res", "{kron}", "{element}", "--q", "2"],
    ["hall", "psi", "{kron}", "{hat_element}", "--q", "2",
     "--plus", "p", "--minus", "m"],
    ["hall", "verify", "comult-compat", "{kron}", "--q", "2", "--max-dim", "1",
     "--plus", "p", "--minus", "m"],
    ["cache", "info"],
    ["cache", "purge"],
]


@pytest.fixture(scope="module")
def command_files(tmp_path_factory):
    """One minimal valid input of each kind the commands in COMMANDS read."""
    root = tmp_path_factory.mktemp("commands")
    kron2 = HallContext(qv.Quiver.from_dict(KRON)[0], 2, cache=OrbitCache())
    hat2 = HeartContext(kron2, "p", "m", "e").hat
    rd = ct.build_root_datum(kronecker_datum())
    return {"datum": write_json(root, "datum.json", kronecker_datum().to_dict()),
            "target": write_json(root, "target.json", ct.reflection(rd, "i+").to_dict()),
            "kron": write_json(root, "kron.json", KRON),
            "element": write_json(root, "f.json",
                                  char_function(kron2, (1, 0), 0).to_json()),
            "hat_element": write_json(root, "fhat.json",
                                      char_function(hat2, (1,), 0).to_json())}


def test_commands_cover_the_command_line():
    leaves = {(name, sub) for name, group in main.commands.items()
              for sub in group.commands}
    assert leaves == {tuple(argv[:2]) for argv in COMMANDS}


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_every_command_keeps_the_output_contract(command_files, tmp_path, argv):
    """--out writes the bytes stdout would show, the wall time is stderr's
    last line, and --format table prints a report without checks as JSON."""
    argv = [a.format(**command_files) for a in argv]
    env = {"HALL_CACHE_DIR": str(tmp_path / "cache")}
    r = runner.invoke(main, argv, env=env)
    assert r.exit_code == 0, r.stderr
    assert r.stderr.splitlines()[-1].startswith("wall time:")
    assert "checks" not in payload_of(r)

    out = tmp_path / "report.json"
    r_out = runner.invoke(main, argv + ["--out", str(out)], env=env)
    assert r_out.exit_code == 0
    assert r_out.stdout == ""
    assert out.read_bytes() == r.stdout_bytes
    assert r_out.stderr.splitlines()[-1].startswith("wall time:")

    r_table = runner.invoke(main, argv + ["--format", "table"], env=env)
    assert r_table.exit_code == 0
    assert r_table.stdout == r.stdout


# ---------------------------------------------------------------------------
# fuzzing the documented commands


AUTOM_KRON = dict(KRON, automorphism={"vertices": {"p": "p", "m": "m"},
                                      "edges": {"e": "f", "f": "e"}})
SWAPPED_KRON = dict(KRON, automorphism={"vertices": {"p": "m", "m": "p"},
                                        "edges": {"e": "f", "f": "e"}})
BAD_QUIVERS = [
    "{oops", "[]", "null", '"kron"',
    # not UTF-8, and nested past the parser
    '{"vertices": ["\u00e9"], "edges": []}'.encode("latin-1"),
    "[" * 100_000 + "]" * 100_000,
    {"vertices": "ab", "edges": []},
    {"vertices": ["a", "a"], "edges": []},
    {"vertices": ["a"], "edges": [{"id": "e", "source": "a", "target": "z"}]},
    {"vertices": ["a"], "edges": [{"id": "e", "source": "a", "target": "a"},
                                  {"id": "e", "source": "a", "target": "a"}]},
    {"vertices": ["a"], "edges": [], "automorphism": 5},
    {"vertices": ["a"], "edges": [], "automorphism": {"vertices": {"a": "b"}}},
]


def _bad_elements(a1_hash: str) -> list:
    def term(**fields):
        return dict({"dim": {"1": 1}, "orbit": "o0",
                     "coeff": {"a": "1", "b": "0"}}, **fields)

    def element(*terms, q=2, quiver=a1_hash):
        return {"q": q, "quiver": quiver, "terms": list(terms)}

    return [
        "{oops", "[]", "null", {}, {"q": 2}, {"q": "2", "quiver": a1_hash},
        {"q": 2, "quiver": a1_hash, "terms": 3},
        {"q": 2, "quiver": a1_hash, "terms": [3]},
        element(q=2, quiver="0000000000000000"),
        element(term(orbit="o9")), element(term(orbit="x")),
        element(term(orbit="o00")),
        element(term(orbit=0)), element(term(dim={"1": -1})),
        element(term(dim={"1": "a"})), element(term(dim={"2": 1})),
        element(term(dim=[1])), element(term(dim={"1": 60})),
        element(term(coeff={"a": "1/0", "b": "0"})),
        element(term(coeff={"a": "1e5", "b": "0"})),
        element(term(coeff={"a": "x"})), element(term(coeff="1")),
        element(term(), term()),
    ]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Quiver and element files, well formed and not: "families" pairs each
    well-formed quiver and q with elements over them; "quivers" and
    "elements" list every file of their kind."""
    root = tmp_path_factory.mktemp("fuzz")

    def put(name, payload):
        path = root / name
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    paths = {name: put(f"{name}.json", payload) for name, payload in (
        ("a1", A1), ("jordan", JORDAN), ("kron", KRON))}
    bad_quivers = [put("kron-autom.json", AUTOM_KRON),
                   put("kron-swapped.json", SWAPPED_KRON),
                   str(root / "absent.json")]
    bad_quivers += [put(f"bad-quiver{k}.json", p) for k, p in enumerate(BAD_QUIVERS)]

    # the Kronecker family's last elements are over the contracted quiver,
    # for hall psi
    a1_2, a1_3 = a1_context(2), a1_context(3)
    jordan2 = HallContext(qv.Quiver.from_dict(JORDAN)[0], 2, cache=OrbitCache())
    kron2 = HallContext(qv.Quiver.from_dict(KRON)[0], 2, cache=OrbitCache())
    hat2 = HeartContext(kron2, "p", "m", "e").hat
    families = []
    for name, ctx, pieces in (
            ("a1", a1_2, ((a1_2, (1,)), (a1_2, (2,)))),
            ("a1", a1_3, ((a1_3, (1,)),)),
            ("jordan", jordan2, ((jordan2, (1,)), (jordan2, (2,)))),
            ("kron", kron2, ((kron2, (1, 0)), (kron2, (1, 1)), (hat2, (1,))))):
        elements = []
        for ectx, dims in pieces:
            for o in range(ectx.table(dims).count)[:2]:
                elements.append(put(f"{name}-q{ctx.q}-el{len(elements)}.json",
                                    char_function(ectx, dims, o).to_json()))
        families.append((paths[name], str(ctx.q), elements))
    a1_hash = qv.Quiver.from_dict(A1)[0].content_hash()
    bad_elements = [put(f"bad-element{k}.json", p)
                    for k, p in enumerate(_bad_elements(a1_hash))]
    return {"families": families,
            "quivers": sorted(paths.values()) + bad_quivers,
            "elements": [e for _, _, els in families for e in els] + bad_elements}


# (usual values, unusual ones): malformed, or valid but rare like q = 4.
# Dims stay <= 2 and verify depths <= 1, so that no command builds a space of
# more than 65,536 points (the Jordan square at (4,), Kronecker (2,2) at q=4);
# the unusual 70 and 70,70 must be refused by the point bound before any
# point is counted, or give the edgeless A1 its single point.
DIMS = (["0", "1", "2", "1,1", "2,0", "0,2", "1=2", "p=1,m=1"],
        ["-1", "1,2,3", "p=1", "", "a", "1,,1", "p=x", "1=1,1=2", "70", "70,70"])
QS = (["2", "3"], ["0", "1", "4", "6", "-2", "x"])
MAX_DIMS = (["0", "1"], ["-1", "x"])
BOUNDS = ([None, "4096"], ["1", "0", "-5", "a", "100", "4096,10000", "1,2,3"])
SITES = ([("p", "m"), ("m", "p")], [None, ("p", "p"), ("1", "m"), ("zz", "m")])
EDGES = ([None, "e", "f"], ["zz"])
CHECKS = ["embedding", "pbw", "ideal", "ses", "bialgebra", "comult-compat"]


@st.composite
def cli_argv(draw, files):
    usual = draw(st.booleans())

    def pick(values):
        return draw(st.sampled_from(values[0] if usual else values[0] + values[1]))

    if usual:
        # a quiver with elements over it and its q, so commands get past parsing
        quiver, q, elements = draw(st.sampled_from(files["families"]))
    else:
        quiver, q = draw(st.sampled_from(files["quivers"])), pick(QS)
        elements = files["elements"]
    q, element = ["--q", q], st.sampled_from(elements)
    plus_minus, edge = pick(SITES), pick(EDGES)
    site = [] if plus_minus is None else ["--plus", plus_minus[0],
                                          "--minus", plus_minus[1]]
    site += [] if edge is None else ["--edge", edge]
    command = draw(st.sampled_from(["orbits", "mult", "res", "psi", "verify",
                                    "cartan", "contract", "verify-l14"]))
    if command == "orbits":
        argv = ["hall", "orbits", quiver, "--dim", pick(DIMS)] + q
    elif command == "mult":
        argv = ["hall", "mult", quiver, draw(element), draw(element)] + q
    elif command == "res":
        argv = ["hall", "res", quiver, draw(element)] + q
        for flag in draw(st.sampled_from([[], ["--tau"], ["--tau", "--omega"]])):
            argv += [flag, pick(DIMS)]
    elif command == "psi":
        argv = ["hall", "psi", quiver, draw(element)] + q + site
    elif command == "verify":
        argv = (["hall", "verify", draw(st.sampled_from(CHECKS)), quiver,
                 "--max-dim", pick(MAX_DIMS)] + q + site
                + ["--format", draw(st.sampled_from(["json", "table"]))])
    else:
        argv = ["quiver", command, quiver]
        if command != "cartan":
            plus, minus = plus_minus or ("p", "zz")
            argv += ["--plus-orbit", plus, "--minus-orbit", minus]
    bounds = pick(BOUNDS)
    if argv[0] == "hall" and bounds is not None:
        argv += ["--bounds", bounds]
    return argv


@given(data=st.data())
def test_fuzzed_commands_keep_the_exit_code_contract(fuzz_files, data):
    """Any documented command over fuzzed flags and files exits 0-4 through
    the CLI's own handlers, never with a traceback, and a verify report that
    decided no check never passes."""
    argv = data.draw(cli_argv(fuzz_files), label="argv")
    r = runner.invoke(main, argv)
    assert r.exception is None or isinstance(r.exception, SystemExit), (
        argv, r.exc_info)
    assert r.exit_code in range(5), (argv, r.exit_code)
    assert "Traceback" not in r.stderr
    if argv[:2] == ["hall", "verify"] and r.exit_code in (0, 1):
        if "table" in argv:
            if r.stdout.rstrip().endswith("/ 0 checks"):
                assert r.exit_code == 1, argv
        else:
            report = json.loads(r.stdout)
            if "checks" in report and not report["checks"]:
                assert report["status"] != "pass", argv
                assert r.exit_code == 1, argv


# A valid datum whose pair (i+, i-) would merge into a label it already has.
COLLIDING_DATUM = {"labels": ["i+", "i-", "i++i-"],
                   "form": [[2, -2, 0], [-2, 2, 0], [0, 0, 2]],
                   "phi1": [1, 1, 1], "phi2": [0, 0, 0]}
BAD_DATA = [
    "{oops", "[]", "null", "5", {}, {"labels": ["a"]},
    {"labels": "ab", "form": [[2, 0], [0, 2]], "phi1": [1, 1], "phi2": [0, 0]},
    {"labels": ["a", "b"], "form": [[2]], "phi1": [1], "phi2": [0]},
    {"labels": ["a", "b"], "form": [[2, -1], [-1, 2]], "phi1": [1], "phi2": [0, 0]},
    {"labels": ["a", "b"], "form": [[2, -1], [-1, 2]], "phi1": [1, 1], "phi2": [0]},
    {"labels": ["a", "b"], "form": [[2, -1], [-1]], "phi1": [1, 1], "phi2": [0, 0]},
    {"labels": ["a", "a"], "form": [[2, -1], [-1, 2]], "phi1": [1, 1], "phi2": [0, 0]},
    {"labels": ["a", "b"], "form": [[2, -1], [0, 2]], "phi1": [1, 1], "phi2": [0, 0]},
    {"labels": ["a", "b"], "form": [[0, 0], [0, 0]], "phi1": [0, -1], "phi2": [1, 0]},
    {"labels": ["a", "b"], "form": [[2, 1], [1, 2]], "phi1": [1, 1], "phi2": [0, 0]},
    {"labels": ["a", "b"], "form": [["x", 0], [0, 2]], "phi1": [1, 1], "phi2": [0, 0]},
    {"labels": ["a", "b"], "form": [[[2], 0], [0, 2]], "phi1": [1, 1], "phi2": [0, 0]},
    {"labels": ["a", "b"], "form": 7, "phi1": [1, 1], "phi2": [0, 0]},
    {"labels": ["a", "b"], "form": [[2, -2], [-2, 2]], "phi1": {"a": 1},
     "phi2": {"a": 0, "b": 0}},
    {"labels": ["a", "b"], "form": [[2, -2], [-2, 2]], "phi1": None, "phi2": [0, 0]},
    {"labels": ["a", "b"], "form": [[4, -3], [-3, 2]], "phi1": [2, 1], "phi2": [0, 0]},
]
BAD_TARGETS = ["{oops", "[]", "null", {}, {"labels": 5, "matrix": []},
               {"labels": ["i+", "i-"], "matrix": [[1, 0]]},
               {"labels": ["i+", "i-"], "matrix": [[1, "x"], [0, 1]]},
               {"labels": ["i+", "i-"], "matrix": 3},
               {"labels": ["a"], "matrix": [[1]]}]


@pytest.fixture(scope="module")
def datum_files(tmp_path_factory):
    """Datum and Weyl-element files: "families" pairs each well-formed datum
    with its labels and with targets over it (each simple reflection, the
    identity and a non-element); "data" and "targets" list every file."""
    root = tmp_path_factory.mktemp("datum-fuzz")

    def put(name, payload):
        path = root / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    families = []
    for k, datum in enumerate([kronecker_datum(), mixed_orbit_datum(),
                               double_orbit_datum(),
                               ct.CartanDatum.from_dict(COLLIDING_DATUM)]):
        rd = ct.build_root_datum(datum)
        n = len(datum.labels)
        elements = [ct.reflection(rd, lab) for lab in datum.labels]
        elements += [ct.WeylElement.identity(datum.labels),
                     ct.WeylElement(datum.labels, tuple(
                         tuple(2 * int(i == j) for j in range(n)) for i in range(n)))]
        targets = [put(f"datum{k}-target{t}.json", e.to_dict())
                   for t, e in enumerate(elements)]
        families.append((put(f"datum{k}.json", datum.to_dict()),
                         list(datum.labels), targets))
    data = [f for f, _, _ in families] + [str(root / "absent.json"),
                                          put("huge-datum.json", HUGE_DATUM)]
    data += [put(f"bad-datum{k}.json", p) for k, p in enumerate(BAD_DATA)]
    targets = [t for _, _, ts in families for t in ts]
    targets += [put(f"bad-target{k}.json", p) for k, p in enumerate(BAD_TARGETS)]
    return {"families": families, "data": data, "targets": targets}


LABELS = ["i+", "i-", "a", "b", "c", "i++i-", "zz", ""]
DEPTHS = (["0", "1", "2", "3"], ["-1", "x", "", "2.5"])


@st.composite
def datum_argv(draw, files):
    usual = draw(st.booleans())
    if usual:
        # a well-formed datum with its own labels and targets
        datum, labels, targets = draw(st.sampled_from(files["families"]))
    else:
        datum, labels = draw(st.sampled_from(files["data"])), LABELS
        targets = files["targets"]
    depths = DEPTHS[0] if usual else DEPTHS[0] + DEPTHS[1]
    command = draw(st.sampled_from(["validate", "contract", "realize",
                                    "check-psi", "search"]))
    if command in ("validate", "realize"):
        argv = ["cartan", command, datum]
    elif command == "search":
        argv = ["weyl", "search", datum, "--target", draw(st.sampled_from(targets)),
                "--depth", draw(st.sampled_from(depths))]
    else:
        argv = ["cartan" if command == "contract" else "weyl", command, datum,
                "--plus", draw(st.sampled_from(labels)),
                "--minus", draw(st.sampled_from(labels))]
    return argv + ["--format", draw(st.sampled_from(["json", "table"]))]


@given(data=st.data())
def test_fuzzed_datum_commands_keep_the_exit_code_contract(datum_files, data):
    """cartan validate|contract|realize and weyl check-psi|search over fuzzed
    datum and target files, labels and depths exit 0-4 through the CLI's own
    handlers, never with a traceback; exit 0 and 1 print a JSON report."""
    argv = data.draw(datum_argv(datum_files), label="argv")
    r = runner.invoke(main, argv)
    assert r.exception is None or isinstance(r.exception, SystemExit), (
        argv, r.exc_info)
    assert r.exit_code in range(5), (argv, r.exit_code)
    assert "Traceback" not in r.stderr
    if r.exit_code in (0, 1):
        json.loads(r.stdout)
