"""Command line round trips: exit codes, payload shapes, and byte-level
determinism of stdout.

Everything runs in-process through click's CliRunner, asserting on
result.stdout only: reports go there as sorted JSON, while timing and error
lines go to stderr, so stdout can be compared byte for byte across runs.
"""

import json
import re

from click.testing import CliRunner

from hallcontract import HallContext, HeartContext, char_function
from hallcontract import cartan as ct
from hallcontract import quiver as qv
from hallcontract.cache import OrbitCache
from hallcontract.cli import main

from conftest import kronecker_datum, mixed_orbit_datum

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
