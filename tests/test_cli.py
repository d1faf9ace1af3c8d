"""Command line round trips: exit codes, payload shapes, and byte-level
determinism of stdout.

Everything runs in-process through click's CliRunner, asserting on
result.stdout only: reports go there as sorted JSON, while timing and error
lines go to stderr, so stdout can be compared byte for byte across runs.
"""

import json
import re

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from hallcontract import HallContext, HeartContext, char_function
from hallcontract import cartan as ct
from hallcontract import quiver as qv
from hallcontract.cache import OrbitCache
from hallcontract.cli import main
from hallcontract.ffalg import Field
from hallcontract.repspace import RepSpace

from conftest import double_orbit_datum, kronecker_datum, mixed_orbit_datum

runner = CliRunner()

A1 = {"vertices": ["1"], "edges": []}
JORDAN = {"vertices": ["1"],
          "edges": [{"id": "l", "source": "1", "target": "1"}]}
KRON = {"vertices": ["p", "m"],
        "edges": [{"id": "e", "source": "p", "target": "m"},
                  {"id": "f", "source": "p", "target": "m"}]}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def payload_of(result):
    return json.loads(result.stdout)


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
    assert p["seed"] == 0
    assert p["quiver"] == qv.Quiver.from_dict(JORDAN)[0].content_hash()
    assert [o["id"] for o in p["orbits"]] == [f"o{k}" for k in range(6)]
    assert [o["size"] for o in p["orbits"]] == [1, 6, 3, 3, 2, 1]
    assert p["orbits"][0]["representative"] == {"l": [[0, 0], [0, 0]]}
    assert p["orbits"][2]["representative"] == {"l": [[0, 0], [1, 0]]}


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
                             "--bounds", "1,10000"])
    assert r.exit_code == 3
    assert "error:" in r.stderr

    r = runner.invoke(main, ["hall", "orbits", loop, "--dim", "2", "--q", "2",
                             "--bounds", "0,5"])
    assert r.exit_code == 4

    jordan = write_json(tmp_path, "jordan.json", JORDAN)
    r = runner.invoke(main, ["hall", "orbits", jordan,
                             "--dim", "1,2", "--q", "2"])
    assert r.exit_code == 4
    r = runner.invoke(main, ["hall", "orbits", jordan,
                             "--dim", "p=2", "--q", "2"])
    assert r.exit_code == 4
    for q in ("6", "1", "0"):
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


def test_hall_orbits_recomputes_a_forged_cache_entry(tmp_path):
    env = {"HALL_CACHE_DIR": str(tmp_path / "cache")}
    quiver, _ = qv.Quiver.from_dict(KRON)
    space = RepSpace(quiver, Field(2), {"p": 1, "m": 1})
    # well-formed, but claims the four points form one orbit
    OrbitCache(env["HALL_CACHE_DIR"]).store(
        space.cache_key(), {"index": [0] * 4, "sizes": [4], "rep_ranks": [0]})
    kron = write_json(tmp_path, "kron.json", KRON)
    r = runner.invoke(main, ["hall", "orbits", kron, "--dim", "1,1", "--q", "2"],
                      env=env)
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["count"] == 4
    assert [o["size"] for o in p["orbits"]] == [1, 1, 1, 1]


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


def test_hall_verify_cli(tmp_path):
    quiver_file = write_json(tmp_path, "kron.json", KRON)
    r = runner.invoke(main, ["hall", "verify", "embedding", quiver_file,
                             "--q", "2", "--max-dim", "1",
                             "--plus", "p", "--minus", "m", "--seed", "7"])
    assert r.exit_code == 0
    p = payload_of(r)
    assert p["status"] == "pass"
    assert p["failures"] == 0
    assert p["config"]["seed"] == 7
    assert set(p["config"]["bounds"]) == {"max_points", "max_group"}
    assert "embedding-multiplicative" in {c["check_id"] for c in p["checks"]}

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
# fuzzing the documented commands


AUTOM_KRON = dict(KRON, automorphism={"vertices": {"p": "p", "m": "m"},
                                      "edges": {"e": "f", "f": "e"}})
SWAPPED_KRON = dict(KRON, automorphism={"vertices": {"p": "m", "m": "p"},
                                        "edges": {"e": "f", "f": "e"}})
BAD_QUIVERS = [
    "{oops", "[]", "null", '"kron"',
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
# more than 65,536 points (the Jordan square at (4,), Kronecker (2,2) at q=4).
DIMS = (["0", "1", "2", "1,1", "2,0", "0,2", "1=2", "p=1,m=1"],
        ["-1", "1,2,3", "p=1", "", "a", "1,,1", "p=x", "1=1,1=2"])
QS = (["2", "3"], ["0", "1", "4", "6", "-2", "x"])
MAX_DIMS = (["0", "1"], ["-1", "x"])
BOUNDS = ([None, "4096,10000"], ["1,1", "0,5", "5", "a,b", "100,2", "1,2,3"])
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
    data = [f for f, _, _ in families] + [str(root / "absent.json")]
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
