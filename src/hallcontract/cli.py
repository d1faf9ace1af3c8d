"""Command line front end: JSON in, JSON (or a table) out.

Exit codes: 0 all checks pass, 1 a check failed or a verify suite decided
no check, 2 unknown command or bad usage, 3 an enumeration bound was
exceeded, 4 unreadable or invalid input.
Reports are deterministic; wall time goes to stderr so stdout stays
byte-for-byte reproducible.
"""

from __future__ import annotations

import json
import sys
import time

import click

from . import cartan as ct
from . import hall
from . import quiver as qv
from . import repspace as rs
from .cache import OrbitCache
from .ffalg import DEFAULT_MAX_POINTS, EnumerationBoundError, UnsupportedFieldError


class InputError(Exception):
    """Unreadable file, malformed JSON, or a value outside the contract."""


def _dispatch(body, out, fmt):
    t0 = time.perf_counter()
    try:
        payload, code = body()
    except EnumerationBoundError as exc:
        click.echo(f"error: {exc}", err=True)
        code = 3
    except (InputError, rs.UnsupportedAutomorphismError,
            UnsupportedFieldError) as exc:
        click.echo(f"error: {exc}", err=True)
        code = 4
    else:
        if payload is not None:
            _emit(payload, out, fmt)
    click.echo(f"wall time: {time.perf_counter() - t0:.3f}s", err=True)
    sys.exit(code)


def _emit(payload, out, fmt):
    if fmt == "table":
        text = _as_table(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _as_table(payload) -> str:
    checks = payload.get("checks") if isinstance(payload, dict) else None
    if checks is None:
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = []
    for c in checks:
        lines.append(f"{c['status'].upper():<5} {c['check_id']:<32} {c['name']}")
    lines.append(f"{payload.get('failures', 0)} failed / {len(checks)} checks")
    return "\n".join(lines)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_datum(path) -> ct.CartanDatum:
    try:
        return ct.CartanDatum.from_dict(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a Cartan datum: {exc}") from None


def _load_quiver(path):
    try:
        return qv.Quiver.from_dict(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a quiver: {exc}") from None


def _parse_dims(spec: str, quiver: qv.Quiver) -> dict:
    try:
        if "=" in spec:
            dims = {}
            for part in spec.split(","):
                name, _, val = part.partition("=")
                dims[name.strip()] = int(val)
        else:
            values = [int(p) for p in spec.split(",")]
            if len(values) != len(quiver.vertices):
                raise InputError(
                    f"--dim {spec!r} has {len(values)} entries for "
                    f"{len(quiver.vertices)} vertices (order: "
                    f"{', '.join(quiver.vertices)})")
            dims = dict(zip(quiver.vertices, values))
    except ValueError as exc:
        raise InputError(f"cannot parse dimension vector {spec!r}: {exc}") from None
    if set(dims) != set(quiver.vertices):
        raise InputError(f"--dim {spec!r} does not cover exactly the vertices "
                         f"{', '.join(quiver.vertices)}")
    if any(n < 0 for n in dims.values()):
        raise InputError("dimensions must be nonnegative")
    return dims


def _parse_bounds(spec: str | None) -> tuple[int, int]:
    if spec is None:
        return DEFAULT_MAX_POINTS, 10_000
    try:
        parts = [int(p) for p in spec.split(",")]
    except ValueError as exc:
        raise InputError(f"cannot parse --bounds {spec!r}: {exc}") from None
    if len(parts) != 2 or any(p <= 0 for p in parts):
        raise InputError("--bounds must be two positive integers: "
                         "max_points,max_group")
    return parts[0], parts[1]


def _context(quiver_path: str, q: int, bounds: str | None) -> hall.HallContext:
    quiver, autom = _load_quiver(quiver_path)
    if not autom.is_identity(quiver):
        raise rs.UnsupportedAutomorphismError(
            "representation spaces are only defined over the identity "
            "automorphism; contract the graph level first")
    max_points, group_bound = _parse_bounds(bounds)
    return hall.HallContext(quiver, q, cache=OrbitCache(),
                            max_points=max_points, oracle_bound=group_bound)


def _heart(ctx: hall.HallContext, plus: str | None, minus: str | None,
           edge: str | None) -> hall.HeartContext:
    if plus is None or minus is None:
        raise InputError("--plus and --minus are required for this command")
    try:
        return hall.HeartContext(ctx, plus, minus, edge)
    except (KeyError, ValueError) as exc:
        # unknown vertex or edge names surface as KeyError
        raise InputError(exc.args[0] if exc.args else str(exc)) from None


def _load_element(ctx: hall.HallContext, path: str) -> hall.HallElement:
    payload = _load_json(path)
    try:
        return hall.HallElement.from_json(ctx, payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not an element over this context: {exc}") from None


def _io_options(f):
    f = click.option("--format", "fmt", type=click.Choice(["json", "table"]),
                     default="json", help="Output format.")(f)
    f = click.option("--out", type=click.Path(), default=None,
                     help="Write the report here instead of stdout.")(f)
    return f


def _run_options(f):
    f = click.option("--bounds", default=None,
                     help="Enumeration bounds as max_points,max_group.")(f)
    f = click.option("--seed", type=int, default=0, show_default=True,
                     help="Recorded in the report for replay.")(f)
    return f


@click.group()
def main():
    """Edge contraction of quivers and exact Hall-algebra verification."""


# ---------------------------------------------------------------------------
# cartan


@main.group("cartan")
def cartan_group():
    """Generalized Cartan data."""


@cartan_group.command("validate")
@click.argument("file", type=click.Path())
@_io_options
def cartan_validate(file, out, fmt):
    """Check the two datum conditions; list every violation."""
    def body():
        datum = _load_datum(file)
        problems = ct.validate_cartan(datum)
        payload = {"command": "cartan validate", "violations": problems,
                   "status": "pass" if not problems else "fail"}
        return payload, 0 if not problems else 1
    _dispatch(body, out, fmt)


@cartan_group.command("contract")
@click.argument("file", type=click.Path())
@click.option("--plus", required=True)
@click.option("--minus", required=True)
@_io_options
def cartan_contract(file, plus, minus, out, fmt):
    """Contract one label pair and print the new datum."""
    def body():
        datum = _load_datum(file)
        pair = ct.ContractionPair(plus, minus)
        problems = ct.validate_cartan(datum) + ct.validate_pair(datum, pair)
        if problems:
            return ({"command": "cartan contract", "violations": problems,
                     "status": "fail"}, 1)
        return ct.contract_cartan(datum, pair).to_dict(), 0
    _dispatch(body, out, fmt)


@cartan_group.command("realize")
@click.argument("file", type=click.Path())
@_io_options
def cartan_realize(file, out, fmt):
    """Build a graph with automorphism whose orbit data match the datum."""
    def body():
        datum = _load_datum(file)
        try:
            quiver, autom = ct.realize_graph(datum)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        return quiver.to_dict(autom), 0
    _dispatch(body, out, fmt)


# ---------------------------------------------------------------------------
# weyl


@main.group("weyl")
def weyl_group():
    """Root data and Weyl group checks."""


@weyl_group.command("check-psi")
@click.argument("file", type=click.Path())
@click.option("--plus", required=True)
@click.option("--minus", required=True)
@_io_options
def weyl_check_psi(file, plus, minus, out, fmt):
    """Verify the contracted reflection factors through the original group."""
    def body():
        datum = _load_datum(file)
        try:
            holds, lhs, rhs = ct.check_psi_identity(
                datum, ct.ContractionPair(plus, minus))
        except ValueError as exc:
            raise InputError(str(exc)) from None
        payload = {"command": "weyl check-psi", "holds": holds,
                   "lhs": lhs.to_dict(), "rhs": rhs.to_dict(),
                   "status": "pass" if holds else "fail"}
        return payload, 0 if holds else 1
    _dispatch(body, out, fmt)


@weyl_group.command("search")
@click.argument("file", type=click.Path())
@click.option("--target", "target_file", required=True, type=click.Path(),
              help="JSON file with the target element's labels and matrix.")
@click.option("--depth", type=click.IntRange(min=0), required=True)
@_io_options
def weyl_search(file, target_file, depth, out, fmt):
    """Breadth-first search for the target as a word in simple reflections."""
    def body():
        datum = _load_datum(file)
        try:
            target = ct.WeylElement.from_dict(_load_json(target_file))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{target_file} is not a Weyl element: {exc}") from None
        try:
            word = ct.weyl_word_search(datum, target, depth)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        payload = {"command": "weyl search", "depth": depth,
                   "found": word is not None, "word": word}
        return payload, 0
    _dispatch(body, out, fmt)


# ---------------------------------------------------------------------------
# quiver


@main.group("quiver")
def quiver_group():
    """Graphs with admissible automorphisms."""


@quiver_group.command("cartan")
@click.argument("file", type=click.Path())
@_io_options
def quiver_cartan(file, out, fmt):
    """Print the Cartan datum attached to the orbit data."""
    def body():
        quiver, autom = _load_quiver(file)
        problems = qv.check_admissible(quiver, autom)
        if problems:
            return ({"command": "quiver cartan", "violations": problems,
                     "status": "fail"}, 1)
        return qv.cartan_of(quiver, autom).to_dict(), 0
    _dispatch(body, out, fmt)


def _orbit_pair(quiver, autom, plus, minus, edge):
    try:
        return qv.make_orbit_pair(quiver, autom, plus, minus, edge)
    except (KeyError, ValueError) as exc:
        raise InputError(exc.args[0] if exc.args else str(exc)) from None


@quiver_group.command("contract")
@click.argument("file", type=click.Path())
@click.option("--plus-orbit", "plus", required=True,
              help="Any vertex of the plus orbit.")
@click.option("--minus-orbit", "minus", required=True,
              help="Any vertex of the minus orbit.")
@click.option("--edge", default=None,
              help="Contraction edge; defaults to the unique candidate.")
@_io_options
def quiver_contract(file, plus, minus, edge, out, fmt):
    """Contract an orbit pair along an edge orbit and print the new graph."""
    def body():
        quiver, autom = _load_quiver(file)
        problems = qv.check_admissible(quiver, autom)
        if problems:
            return ({"command": "quiver contract", "violations": problems,
                     "status": "fail"}, 1)
        pair = _orbit_pair(quiver, autom, plus, minus, edge)
        problems = qv.check_contraction_assumptions(quiver, autom, pair)
        if problems:
            return ({"command": "quiver contract", "violations": problems,
                     "status": "fail"}, 1)
        con = qv.contract_quiver(quiver, autom, pair)
        payload = con.quiver.to_dict(con.autom)
        payload["provenance"] = {k: list(v) for k, v in sorted(con.provenance.items())}
        payload["contraction_edges"] = list(con.contraction_edges)
        payload["role_swapped"] = pair.swapped
        return payload, 0
    _dispatch(body, out, fmt)


@quiver_group.command("verify-l14")
@click.argument("file", type=click.Path())
@click.option("--plus-orbit", "plus", required=True)
@click.option("--minus-orbit", "minus", required=True)
@click.option("--edge", default=None)
@_io_options
def quiver_verify_l14(file, plus, minus, edge, out, fmt):
    """Check contraction commutes with taking the Cartan datum."""
    def body():
        quiver, autom = _load_quiver(file)
        problems = qv.check_admissible(quiver, autom)
        if problems:
            return ({"command": "quiver verify-l14", "violations": problems,
                     "status": "fail"}, 1)
        pair = _orbit_pair(quiver, autom, plus, minus, edge)
        problems = qv.check_contraction_assumptions(quiver, autom, pair)
        if problems:
            return ({"command": "quiver verify-l14", "violations": problems,
                     "status": "fail"}, 1)
        try:
            agree, mapping, via_graph, via_cartan = qv.cartan_contraction_commutes(
                quiver, autom, pair)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        payload = {"command": "quiver verify-l14", "agree": agree,
                   "label_mapping": mapping,
                   "contract_then_cartan": via_graph.to_dict(),
                   "cartan_then_contract": via_cartan.to_dict(),
                   "status": "pass" if agree else "fail"}
        return payload, 0 if agree else 1
    _dispatch(body, out, fmt)


# ---------------------------------------------------------------------------
# hall


@main.group("hall")
def hall_group():
    """Hall algebra computations over a finite field."""


@hall_group.command("orbits")
@click.argument("quiver_file", type=click.Path())
@click.option("--dim", "dim_spec", required=True,
              help="Dimension vector: one int per vertex, comma separated, "
                   "or name=value pairs.")
@click.option("--q", "q", type=int, required=True)
@_run_options
@_io_options
def hall_orbits(quiver_file, dim_spec, q, seed, bounds, out, fmt):
    """List the orbits of the group action on a representation space."""
    def body():
        ctx = _context(quiver_file, q, bounds)
        dims = _parse_dims(dim_spec, ctx.quiver)
        table = ctx.table(dims)
        space = ctx.space(dims)
        orbits_out = []
        for k in range(table.count):
            orbits_out.append({
                "id": f"o{k}", "size": table.sizes[k],
                "representative": space.point_to_dict(table.representative(k))})
        payload = {"command": "hall orbits", "q": q,
                   "quiver": ctx.quiver.content_hash(), "dims": dims,
                   "total_points": space.total_points,
                   "count": table.count, "orbits": orbits_out, "seed": seed}
        return payload, 0
    _dispatch(body, out, fmt)


@hall_group.command("mult")
@click.argument("quiver_file", type=click.Path())
@click.argument("f_file", type=click.Path())
@click.argument("g_file", type=click.Path())
@click.option("--q", "q", type=int, required=True)
@_run_options
@_io_options
def hall_mult(quiver_file, f_file, g_file, q, seed, bounds, out, fmt):
    """Hall product of two elements (the twisted convolution)."""
    def body():
        ctx = _context(quiver_file, q, bounds)
        f = _load_element(ctx, f_file)
        g = _load_element(ctx, g_file)
        return hall.circ(f, g).to_json(), 0
    _dispatch(body, out, fmt)


@hall_group.command("res")
@click.argument("quiver_file", type=click.Path())
@click.argument("f_file", type=click.Path())
@click.option("--q", "q", type=int, required=True)
@click.option("--tau", "tau_spec", default=None,
              help="Quotient grade of the split; with --omega, restrict to "
                   "one split instead of the full coproduct.")
@click.option("--omega", "omega_spec", default=None,
              help="Sub grade of the split.")
@_run_options
@_io_options
def hall_res(quiver_file, f_file, q, tau_spec, omega_spec, seed, bounds, out, fmt):
    """Restriction to one split of the grade, or the full coproduct."""
    def body():
        ctx = _context(quiver_file, q, bounds)
        f = _load_element(ctx, f_file)
        if (tau_spec is None) != (omega_spec is None):
            raise InputError("--tau and --omega must be given together")
        if tau_spec is None:
            return hall.coproduct(f).to_json(), 0
        tau = _parse_dims(tau_spec, ctx.quiver)
        omega = _parse_dims(omega_spec, ctx.quiver)
        try:
            return hall.res(f, tau, omega).to_json(), 0
        except ValueError as exc:
            raise InputError(str(exc)) from None
    _dispatch(body, out, fmt)


@hall_group.command("psi")
@click.argument("quiver_file", type=click.Path())
@click.argument("f_file", type=click.Path())
@click.option("--q", "q", type=int, required=True)
@click.option("--plus", default=None, help="Plus vertex of the contraction.")
@click.option("--minus", default=None, help="Minus vertex of the contraction.")
@click.option("--edge", default=None)
@_run_options
@_io_options
def hall_psi(quiver_file, f_file, q, plus, minus, edge, seed, bounds, out, fmt):
    """Embed an element of the contracted quiver's algebra into the original.

    QUIVER_FILE is the original (uncontracted) quiver; F_FILE holds an
    element over the contracted quiver, which the contraction site determines.
    """
    def body():
        ctx = _context(quiver_file, q, bounds)
        hc = _heart(ctx, plus, minus, edge)
        f = _load_element(hc.hat, f_file)
        return hall.psi(hc, f).to_json(), 0
    _dispatch(body, out, fmt)


_VERIFY_DISPATCH = {
    "embedding": (hall.verify_embedding, True),
    "pbw": (hall.verify_pbw, True),
    "ideal": (hall.verify_ideal, True),
    "ses": (hall.verify_ses, True),
    "bialgebra": (hall.verify_bialgebra, False),
    "comult-compat": (hall.comult_compat, True),
}


@hall_group.command("verify")
@click.argument("check", type=click.Choice(sorted(_VERIFY_DISPATCH)))
@click.argument("quiver_file", type=click.Path())
@click.option("--q", "q", type=int, required=True)
@click.option("--max-dim", type=click.IntRange(min=0), default=2,
              show_default=True)
@click.option("--plus", default=None)
@click.option("--minus", default=None)
@click.option("--edge", default=None)
@_run_options
@_io_options
def hall_verify(check, quiver_file, q, max_dim, plus, minus, edge, seed,
                bounds, out, fmt):
    """Run one verification suite and report each check."""
    def body():
        ctx = _context(quiver_file, q, bounds)
        fn, needs_site = _VERIFY_DISPATCH[check]
        if needs_site:
            report = fn(_heart(ctx, plus, minus, edge), max_dim=max_dim)
        else:
            report = fn(ctx, max_dim=max_dim)
        max_points, group_bound = _parse_bounds(bounds)
        report["config"].update({
            "seed": seed,
            "bounds": {"max_points": max_points, "max_group": group_bound}})
        return report, 0 if report["status"] in ("pass", "observed") else 1
    _dispatch(body, out, fmt)


# ---------------------------------------------------------------------------
# cache


@main.group("cache")
def cache_group():
    """The on-disk orbit table cache (HALL_CACHE_DIR)."""


@cache_group.command("info")
@_io_options
def cache_info(out, fmt):
    """Show the cache directory and its contents."""
    def body():
        cache = OrbitCache()
        entries = cache.entries()
        payload = {"command": "cache info", "directory": str(cache.directory),
                   "entries": len(entries),
                   "bytes": sum(e["bytes"] for e in entries)}
        return payload, 0
    _dispatch(body, out, fmt)


@cache_group.command("purge")
@_io_options
def cache_purge(out, fmt):
    """Delete every cached table."""
    def body():
        cache = OrbitCache()
        removed = cache.purge()
        payload = {"command": "cache purge",
                   "directory": str(cache.directory), "removed": removed}
        return payload, 0
    _dispatch(body, out, fmt)


if __name__ == "__main__":
    main()
