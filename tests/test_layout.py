"""Production modules define only what production runs: every function,
class and method defined in src/hallcontract/ is named outside its own body
somewhere in src/hallcontract/ or bench/, read from the syntax tree. The
package's __init__.py does not count: re-exporting a name runs nothing. A
name that a function binds itself (a parameter, an assignment or loop
target, an import) is its local, not a reference. Otherwise a function or
class is named by a plain name, an import or an attribute of an imported
name (hall.circ), and a method only by an attribute, never of a
standard-library module (operator.mul names no Field.mul). A helper that
only tests call belongs in the tests."""

import ast
import sys
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(scope) -> set:
    """The names a function binds itself: its parameters, its assignment and
    loop targets, and its imports (not those of functions nested in it)."""
    args = scope.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if a is not None}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _imports(trees) -> tuple[set, set]:
    """The names the trees' imports bind, and those of them bound to a
    standard-library module."""
    bound, stdlib = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    bound.add(alias.asname or top)
                    if isinstance(node, ast.Import) and top in sys.stdlib_module_names:
                        stdlib.add(alias.asname or top)
    return bound, stdlib


def _root(node: ast.Attribute):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _references(tree: ast.AST, imported: set, stdlib: set) -> tuple[Counter, Counter]:
    """How often the tree names each function or class, and each method.
    A function or class is named by a plain name read that is not a local of
    the innermost function around it, by an import, or as an attribute of an
    imported name (hall.circ); a method by an attribute of anything but a
    standard-library module."""
    names, methods = Counter(), Counter()

    def visit(node, local):
        if isinstance(node, _SCOPES):
            local = _bound(node)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id not in local):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            if _root(node) in imported:
                names[node.attr] += 1
            if not (isinstance(node.value, ast.Name) and node.value.id in stdlib):
                methods[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, set())
    return names, methods


def _is_click_command(node) -> bool:
    """Decorated with some group's .command(...): click calls it."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def _unreferenced():
    """(file name, definition) of every definition in src/hallcontract/
    whose name src/hallcontract/ (but for __init__.py) and bench/ read
    nowhere outside its own body; a method counts only attribute reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    definitions = [(path.name, node, isinstance(parent, ast.ClassDef))
                   for path, tree in trees.items() if path.parent == PACKAGE
                   for parent in ast.walk(tree)
                   for node in ast.iter_child_nodes(parent)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))]
    imports = _imports(trees.values())
    names, methods = Counter(), Counter()
    for path, tree in trees.items():
        if path != PACKAGE / "__init__.py":
            tree_names, tree_methods = _references(tree, *imports)
            names += tree_names
            methods += tree_methods
    return [(name, node) for name, node, is_method in definitions
            if (methods if is_method else names)[node.name]
            == _references(node, *imports)[is_method][node.name]]


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


def _naming(module: str, functions, names: set) -> set:
    """The offenders "function:name": each function or method of the module
    that functions(its name) selects, with each of names it names as a
    plain name or an attribute."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    offenders = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and functions(node.name)):
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name in names:
                    offenders.add(f"{node.name}:{name}")
    return offenders


#: The Mat group and flag geometry, which only the Hall layer's oracle reads.
ORACLE_ONLY = {"group_order", "enumerate_group", "act", "stable_subspaces",
               "quotient_point", "sub_point"}
ORACLE_FUNCTIONS = {"diagram_star_oracle", "_oracle_flags", "_group_profile"}


def test_only_the_oracle_names_the_group_or_the_flag_geometry():
    """No function or method of hall.py but the oracle's three names a group
    order, a group element or a Mat flag, as a plain name or an attribute:
    the production product reads orbit sizes and subspace counts only."""
    offenders = _naming("hall.py", lambda name: name not in ORACLE_FUNCTIONS,
                        ORACLE_ONLY)
    assert not offenders, "names oracle-only geometry: " + ", ".join(sorted(offenders))


#: The point-code kernel of repspace.py: orbit tables, their cached form,
#: extension counts and the subspace count bound.
CODE_KERNEL = {"_columns", "_generator_slots", "_generator_tables",
               "_close_orbits", "_block_places", "_placed",
               "extension_code_counts", "graded_subspace_count", "orbits",
               "_cached_table", "_cached_payload"}
#: The point-level Mat routes, which the kernel never takes.
POINT_ROUTES = {"act", "enumerate_group", "group_order", "enumerate_points",
                "stable_subspaces", "is_stable", "quotient_point", "sub_point",
                "extensions_over", "point_from_rank"}


def test_the_code_kernel_names_no_point_route():
    """No function of repspace.py's code kernel names a group element, a
    point enumeration, a Mat flag or a decoded point: it reads codes and
    compiled tables only."""
    tree = ast.parse((PACKAGE / "repspace.py").read_text(encoding="utf-8"))
    assert CODE_KERNEL <= {node.name for node in tree.body
                           if isinstance(node, ast.FunctionDef)}
    offenders = _naming("repspace.py", CODE_KERNEL.__contains__, POINT_ROUTES)
    assert not offenders, "the code kernel names a point route: " + ", ".join(
        sorted(offenders))
