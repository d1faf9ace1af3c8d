"""Command line front end: JSON in, JSON (or a table) out.

Exit codes: 0 all checks pass, 1 a check failed or a verify suite decided
no check, 2 unknown command or bad usage, 3 an enumeration bound was
exceeded, 4 unreadable or invalid input.
Reports are deterministic; wall time goes to stderr so stdout stays
byte-for-byte reproducible.

Each command returns (payload, exit code); `_command` applies the contract,
and any error not named by an `_invalid_input` block stays a traceback.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import click

from . import cartan as ct
from . import hall
from . import quiver as qv
from .cache import FileError, OrbitCache, read_json
from .ffalg import DEFAULT_MAX_POINTS, EnumerationBoundError, UnsupportedFieldError
from .repspace import grade_key


class InputError(Exception):
    """A value outside the contract: a flag, or JSON that is not what the
    command reads."""


def _command(fn):
    """Run fn(**params) -> (payload, exit code) under the command-line
    contract: add --format/--out, emit the payload, map an exceeded bound to
    exit 3 and invalid input (or a file that cannot be read or written,
    --out included) to exit 4, and write the wall time to stderr."""
    @click.option("--out", type=click.Path(), default=None,
                  help="Write the report here instead of stdout.")
    @click.option("--format", "fmt", type=click.Choice(["json", "table"]),
                  default="json", help="Output format.")
    @functools.wraps(fn)
    def run(out, fmt, **params):
        t0 = time.perf_counter()
        try:
            payload, code = fn(**params)
            _emit(payload, out, fmt)
        except EnumerationBoundError as exc:
            click.echo(f"error: {exc}", err=True)
            code = 3
        except (InputError, FileError, UnsupportedFieldError) as exc:
            click.echo(f"error: {exc}", err=True)
            code = 4
        click.echo(f"wall time: {time.perf_counter() - t0:.3f}s", err=True)
        sys.exit(code)
    return run


@contextmanager
def _invalid_input(*kinds):
    """Re-raise an exception of one of `kinds` as InputError, keeping its
    message; anything else (a program bug) propagates unchanged."""
    try:
        yield
    except kinds as exc:
        raise InputError(exc.args[0] if exc.args else str(exc)) from None


def _emit(payload, out, fmt):
    """Write the payload to the file out, or to stdout; a file that cannot
    be written raises FileError."""
    if fmt == "table":
        text = _as_table(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise FileError(f"cannot write {out}: {exc.strerror or exc}") from None
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


def _parse(path, build, what: str):
    """build() applied to the file's JSON; a KeyError, TypeError or
    ValueError from it means the file is not `what`."""
    payload = read_json(path)
    try:
        return build(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not {what}: {exc}") from None


def _load_datum(path) -> ct.CartanDatum:
    return _parse(path, ct.CartanDatum.from_dict, "a Cartan datum")


def _load_quiver(path):
    return _parse(path, qv.Quiver.from_dict, "a quiver")


def _violations(command: str, problems: list[str]):
    payload = {"command": command, "violations": problems,
               "status": "fail" if problems else "pass"}
    return payload, 1 if problems else 0


def _parse_dims(spec: str, quiver: qv.Quiver) -> tuple:
    """The grade key of a spec: one int per vertex in vertex order, or
    name=value pairs that name each vertex once; grade_key checks it."""
    try:
        if "=" not in spec:
            return grade_key(quiver, [int(p) for p in spec.split(",")])
        dims = {}
        for part in spec.split(","):
            name, _, val = (s.strip() for s in part.partition("="))
            if name in dims:
                raise ValueError(f"vertex {name!r} is named twice")
            dims[name] = int(val)
        return grade_key(quiver, dims)
    except ValueError as exc:
        raise InputError(f"bad dimension vector {spec!r}: {exc}") from None


def _parse_bounds(spec: str | None) -> int:
    if spec is None:
        return DEFAULT_MAX_POINTS
    try:
        max_points = int(spec)
    except ValueError as exc:
        raise InputError(f"cannot parse --bounds {spec!r}: {exc}") from None
    if max_points <= 0:
        raise InputError("--bounds must be one positive integer: max_points")
    return max_points


def _context(quiver_path: str, q: int, bounds: str | None) -> hall.HallContext:
    quiver, autom = _load_quiver(quiver_path)
    if not autom.is_identity(quiver):
        raise InputError(
            "representation spaces are only defined over the identity "
            "automorphism; contract the graph level first")
    return hall.HallContext(quiver, q, cache=OrbitCache(),
                            max_points=_parse_bounds(bounds))


def _heart(ctx: hall.HallContext, plus: str | None, minus: str | None,
           edge: str | None) -> hall.HeartContext:
    if plus is None or minus is None:
        raise InputError("--plus and --minus are required for this command")
    # unknown vertex or edge names surface as KeyError
    with _invalid_input(KeyError, ValueError):
        return hall.HeartContext(ctx, plus, minus, edge)


def _load_element(ctx: hall.HallContext, path: str) -> hall.HallElement:
    return _parse(path, lambda payload: hall.HallElement.from_json(ctx, payload),
                  "an element over this context")


_bounds_option = click.option(
    "--bounds", default=None,
    help="Enumeration bound: max_points, a positive integer.")


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
@_command
def cartan_validate(file):
    """Check the two datum conditions; list every violation."""
    return _violations("cartan validate", ct.validate_cartan(_load_datum(file)))


@cartan_group.command("contract")
@click.argument("file", type=click.Path())
@click.option("--plus", required=True)
@click.option("--minus", required=True)
@_command
def cartan_contract(file, plus, minus):
    """Contract one label pair and print the new datum."""
    datum = _load_datum(file)
    pair = ct.ContractionPair(plus, minus)
    problems = ct.validate_cartan(datum) + ct.validate_pair(datum, pair)
    if problems:
        return _violations("cartan contract", problems)
    return ct.contract_cartan(datum, pair).to_dict(), 0


@cartan_group.command("realize")
@click.argument("file", type=click.Path())
@_command
def cartan_realize(file):
    """Build a graph with automorphism whose orbit data match the datum."""
    datum = _load_datum(file)
    with _invalid_input(ValueError):
        quiver, autom = ct.realize_graph(datum)
    return quiver.to_dict(autom), 0


# ---------------------------------------------------------------------------
# weyl


@main.group("weyl")
def weyl_group():
    """Root data and Weyl group checks."""


@weyl_group.command("check-psi")
@click.argument("file", type=click.Path())
@click.option("--plus", required=True)
@click.option("--minus", required=True)
@_command
def weyl_check_psi(file, plus, minus):
    """Verify the contracted reflection factors through the original group."""
    datum = _load_datum(file)
    with _invalid_input(ValueError):
        holds, lhs, rhs = ct.check_psi_identity(
            datum, ct.ContractionPair(plus, minus))
    payload = {"command": "weyl check-psi", "holds": holds,
               "lhs": lhs.to_dict(), "rhs": rhs.to_dict(),
               "status": "pass" if holds else "fail"}
    return payload, 0 if holds else 1


@weyl_group.command("search")
@click.argument("file", type=click.Path())
@click.option("--target", "target_file", required=True, type=click.Path(),
              help="JSON file with the target element's labels and matrix.")
@click.option("--depth", type=click.IntRange(min=0), required=True)
@_command
def weyl_search(file, target_file, depth):
    """Breadth-first search for the target as a word in simple reflections."""
    datum = _load_datum(file)
    target = _parse(target_file, ct.WeylElement.from_dict, "a Weyl element")
    with _invalid_input(ValueError):
        word = ct.weyl_word_search(datum, target, depth)
    payload = {"command": "weyl search", "depth": depth,
               "found": word is not None, "word": word}
    return payload, 0


# ---------------------------------------------------------------------------
# quiver


@main.group("quiver")
def quiver_group():
    """Graphs with admissible automorphisms."""


@quiver_group.command("cartan")
@click.argument("file", type=click.Path())
@_command
def quiver_cartan(file):
    """Print the Cartan datum attached to the orbit data."""
    quiver, autom = _load_quiver(file)
    problems = qv.check_admissible(quiver, autom)
    if problems:
        return _violations("quiver cartan", problems)
    return qv.cartan_of(quiver, autom).to_dict(), 0


def _contraction_site(file, plus, minus, edge):
    """(quiver, autom, pair, problems): problems lists the violations of
    admissibility (pair is then None) or of the contraction assumptions."""
    quiver, autom = _load_quiver(file)
    problems = qv.check_admissible(quiver, autom)
    if problems:
        return quiver, autom, None, problems
    with _invalid_input(KeyError, ValueError):
        pair = qv.make_orbit_pair(quiver, autom, plus, minus, edge)
    return (quiver, autom, pair,
            qv.check_contraction_assumptions(quiver, autom, pair))


@quiver_group.command("contract")
@click.argument("file", type=click.Path())
@click.option("--plus-orbit", "plus", required=True,
              help="Any vertex of the plus orbit.")
@click.option("--minus-orbit", "minus", required=True,
              help="Any vertex of the minus orbit.")
@click.option("--edge", default=None,
              help="Contraction edge; defaults to the unique candidate.")
@_command
def quiver_contract(file, plus, minus, edge):
    """Contract an orbit pair along an edge orbit and print the new graph."""
    quiver, autom, pair, problems = _contraction_site(file, plus, minus, edge)
    if problems:
        return _violations("quiver contract", problems)
    con = qv.contract_quiver(quiver, autom, pair)
    payload = con.quiver.to_dict(con.autom)
    payload["provenance"] = {k: list(v) for k, v in sorted(con.provenance.items())}
    payload["contraction_edges"] = list(con.contraction_edges)
    payload["role_swapped"] = pair.swapped
    return payload, 0


@quiver_group.command("verify-l14")
@click.argument("file", type=click.Path())
@click.option("--plus-orbit", "plus", required=True)
@click.option("--minus-orbit", "minus", required=True)
@click.option("--edge", default=None)
@_command
def quiver_verify_l14(file, plus, minus, edge):
    """Check contraction commutes with taking the Cartan datum."""
    quiver, autom, pair, problems = _contraction_site(file, plus, minus, edge)
    if problems:
        return _violations("quiver verify-l14", problems)
    with _invalid_input(ValueError):
        agree, mapping, via_graph, via_cartan = qv.cartan_contraction_commutes(
            quiver, autom, pair)
    payload = {"command": "quiver verify-l14", "agree": agree,
               "label_mapping": mapping,
               "contract_then_cartan": via_graph.to_dict(),
               "cartan_then_contract": via_cartan.to_dict(),
               "status": "pass" if agree else "fail"}
    return payload, 0 if agree else 1


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
@_bounds_option
@_command
def hall_orbits(quiver_file, dim_spec, q, bounds):
    """List the orbits of the group action on a representation space."""
    ctx = _context(quiver_file, q, bounds)
    table = ctx.table(_parse_dims(dim_spec, ctx.quiver))
    space = table.space
    orbits_out = []
    for k in range(table.count):
        orbits_out.append({
            "id": table.orbit_id(k), "size": table.sizes[k],
            "representative": space.point_to_dict(table.representative(k))})
    payload = {"command": "hall orbits", "q": q,
               "quiver": ctx.quiver.content_hash(), "dims": space.dims,
               "total_points": space.total_points,
               "count": table.count, "orbits": orbits_out}
    return payload, 0


@hall_group.command("mult")
@click.argument("quiver_file", type=click.Path())
@click.argument("f_file", type=click.Path())
@click.argument("g_file", type=click.Path())
@click.option("--q", "q", type=int, required=True)
@_bounds_option
@_command
def hall_mult(quiver_file, f_file, g_file, q, bounds):
    """Hall product of two elements (the twisted convolution)."""
    ctx = _context(quiver_file, q, bounds)
    f = _load_element(ctx, f_file)
    g = _load_element(ctx, g_file)
    return hall.circ(f, g).to_json(), 0


@hall_group.command("res")
@click.argument("quiver_file", type=click.Path())
@click.argument("f_file", type=click.Path())
@click.option("--q", "q", type=int, required=True)
@click.option("--tau", "tau_spec", default=None,
              help="Quotient grade of the split; with --omega, restrict to "
                   "one split instead of the full coproduct.")
@click.option("--omega", "omega_spec", default=None,
              help="Sub grade of the split.")
@_bounds_option
@_command
def hall_res(quiver_file, f_file, q, tau_spec, omega_spec, bounds):
    """Restriction to one split of the grade, or the full coproduct."""
    ctx = _context(quiver_file, q, bounds)
    f = _load_element(ctx, f_file)
    if (tau_spec is None) != (omega_spec is None):
        raise InputError("--tau and --omega must be given together")
    if tau_spec is None:
        return hall.coproduct(f).to_json(), 0
    tau = _parse_dims(tau_spec, ctx.quiver)
    omega = _parse_dims(omega_spec, ctx.quiver)
    with _invalid_input(ValueError):
        return hall.res(f, tau, omega).to_json(), 0


@hall_group.command("psi")
@click.argument("quiver_file", type=click.Path())
@click.argument("f_file", type=click.Path())
@click.option("--q", "q", type=int, required=True)
@click.option("--plus", default=None, help="Plus vertex of the contraction.")
@click.option("--minus", default=None, help="Minus vertex of the contraction.")
@click.option("--edge", default=None)
@_bounds_option
@_command
def hall_psi(quiver_file, f_file, q, plus, minus, edge, bounds):
    """Embed an element of the contracted quiver's algebra into the original.

    QUIVER_FILE is the original (uncontracted) quiver; F_FILE holds an
    element over the contracted quiver, which the contraction site determines.
    """
    ctx = _context(quiver_file, q, bounds)
    hc = _heart(ctx, plus, minus, edge)
    f = _load_element(hc.hat, f_file)
    return hall.psi(hc, f).to_json(), 0


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
@_bounds_option
@_command
def hall_verify(check, quiver_file, q, max_dim, plus, minus, edge, bounds):
    """Run one verification suite and report each check."""
    ctx = _context(quiver_file, q, bounds)
    fn, needs_site = _VERIFY_DISPATCH[check]
    if needs_site:
        report = fn(_heart(ctx, plus, minus, edge), max_dim=max_dim)
    else:
        report = fn(ctx, max_dim=max_dim)
    report["config"]["bounds"] = {"max_points": ctx.max_points}
    return report, 0 if report["status"] in ("pass", "observed") else 1


# ---------------------------------------------------------------------------
# cache


@main.group("cache")
def cache_group():
    """The on-disk orbit table cache (HALL_CACHE_DIR)."""


@cache_group.command("info")
@_command
def cache_info():
    """Show the cache directory and its contents."""
    cache = OrbitCache()
    entries = cache.entries()
    payload = {"command": "cache info", "directory": str(cache.directory),
               "entries": len(entries),
               "bytes": sum(e["bytes"] for e in entries)}
    return payload, 0


@cache_group.command("purge")
@_command
def cache_purge():
    """Delete every cached table."""
    cache = OrbitCache()
    removed = cache.purge()
    payload = {"command": "cache purge",
               "directory": str(cache.directory), "removed": removed}
    return payload, 0


if __name__ == "__main__":
    main()
