"""The examples in README.md stay true to the library."""

import json
import os
import re
import shlex

from click.testing import CliRunner

from hallcontract import HallContext, HallElement, Quiver
from hallcontract.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_text():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def json_blocks():
    return [json.loads(block)
            for block in re.findall(r"```json\n(.*?)```", readme_text(), re.DOTALL)]


def quiver_example():
    (quiver_payload,) = [b for b in json_blocks() if "vertices" in b]
    return quiver_payload


def test_hall_element_example_names_the_quiver_example():
    (element,) = [b for b in json_blocks() if "terms" in b]
    quiver, _ = Quiver.from_dict(quiver_example())
    assert element["quiver"] == quiver.content_hash() == "9c88aa25cf1e97a1"
    ctx = HallContext(quiver, element["q"])
    assert HallElement.from_json(ctx, element).to_json() == element


def test_python_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", readme_text(), re.DOTALL)
    monkeypatch.setenv("HALL_CACHE_DIR", str(tmp_path))
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert all(line.startswith("HallElement(") for line in printed)
    assert any(name.endswith(".json") for name in os.listdir(tmp_path))


def test_quiver_contract_example_matches_the_output(tmp_path):
    (command, expected) = re.findall(
        r"```\n\$ (hallc quiver contract kron\.json[^\n]*)\n(.*?)```",
        readme_text(), re.DOTALL)[0]
    # kron.json is the quiver example with its optional automorphism left out
    payload = {k: v for k, v in quiver_example().items() if k != "automorphism"}
    (tmp_path / "kron.json").write_text(json.dumps(payload))
    argv = shlex.split(command)[1:]
    argv[argv.index("kron.json")] = str(tmp_path / "kron.json")
    r = CliRunner().invoke(main, argv)
    assert r.exit_code == 0
    assert json.loads(r.stdout) == json.loads(expected)


def test_quiver_example_with_its_automorphism_exits_4(tmp_path):
    """The README says why kron.json drops the example's automorphism."""
    path = tmp_path / "kron-autom.json"
    path.write_text(json.dumps(quiver_example()))
    for argv in (["quiver", "contract", str(path), "--plus-orbit", "p",
                  "--minus-orbit", "m"],
                 ["hall", "orbits", str(path), "--dim", "1,1", "--q", "2"]):
        r = CliRunner().invoke(main, argv)
        assert r.exit_code == 4
        assert r.stdout == ""


def test_verify_table_example_matches_the_output(tmp_path):
    (command, expected) = re.findall(
        r"```\n\$ (hallc hall verify embedding kron\.json[^\n]*)\n(.*?)```",
        readme_text(), re.DOTALL)[0]
    payload = {k: v for k, v in quiver_example().items() if k != "automorphism"}
    (tmp_path / "kron.json").write_text(json.dumps(payload))
    argv = shlex.split(command)[1:]
    argv[argv.index("kron.json")] = str(tmp_path / "kron.json")
    r = CliRunner().invoke(main, argv)
    assert r.exit_code == 0
    actual = r.stdout.splitlines()
    shown = [line for line in expected.splitlines() if line != "..."]
    # the shown lines appear in the output in the same order, and the
    # closing total is the output's last line
    rest = iter(actual)
    assert all(line in rest for line in shown), shown
    assert shown[-1] == actual[-1] == "0 failed / 36 checks"
