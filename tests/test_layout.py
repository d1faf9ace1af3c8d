"""Production modules define only what production runs: every function,
class and method defined in src/hallcontract/ is named outside its own body
somewhere in src/hallcontract/ or bench/, read from the syntax tree. The
package's __init__.py does not count: re-exporting a name runs nothing. A
helper that only tests call belongs in the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hallcontract"
BENCH = ROOT / "bench"

#: Definitions kept although no production module names them.
ALLOWED = {
    # The reference test_ffalg checks enumerate_subspaces' canonical bases
    # against.
    "spanned_by",
    # Python API that the README documents.
    "sym_pairing",
    "value_at",
}


def _references(tree: ast.AST) -> Counter:
    """How often the tree reads each name: as a plain name, an attribute or
    an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def _is_click_command(node) -> bool:
    """Decorated with some group's .command(...): click calls it."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def _unreferenced():
    """(file name, definition) of every definition in src/hallcontract/
    whose name src/hallcontract/ (but for __init__.py) and bench/ read
    nowhere outside its own body."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    definitions = [(path.name, node)
                   for path, tree in trees.items() if path.parent == PACKAGE
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))]
    references = sum((_references(tree) for path, tree in trees.items()
                      if path != PACKAGE / "__init__.py"), Counter())
    return [(name, node) for name, node in definitions
            if references[node.name] == _references(node)[node.name]]


def test_every_production_definition_is_named_by_production():
    unreferenced = sorted(
        f"{name}:{node.name}" for name, node in _unreferenced()
        if node.name not in ALLOWED
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not _is_click_command(node))
    assert not unreferenced, ("defined in src/, named by no production code: "
                              + ", ".join(unreferenced))


def test_the_allow_list_names_only_unreferenced_definitions():
    assert ALLOWED <= {node.name for _, node in _unreferenced()}
