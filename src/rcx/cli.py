"""Command-line front end: generate, build, verify, and report.

Every subcommand reads and writes only the files named on its command
line, prints a one-line summary, and returns 0 when the requested
computation succeeded, 1 when a verification legitimately answered
"failed"/"invalid"/"not separable", and 2 on usage or resource errors.
Reports are deterministic JSON (no timestamps), so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import cache

from . import fileio
from .errors import TooLarge
from .families import FAMILIES, _arity, generate
from .hiding import (build_arb_hiding, build_diff_hiding, build_parity_hiding,
                     build_perm_hiding, build_tjoin_hiding, build_tsp_hiding,
                     max_hiding_in_box, verify_hiding)
from .relaxations import (build_conn_cut_relaxation, build_cube_relaxation,
                          build_rado_permutahedron, build_subtour_relaxation,
                          irredundant_count, verify_relaxation)
from .separation import bound_report, jeroslow_index, rationalize_halfspace


@dataclass(frozen=True)
class CommandResult:
    """One finished invocation: exit code, report file (if any), one line."""

    exit_code: int
    report_path: str | None
    summary: str


def _int_param(tok):
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"parameter {tok!r} is not an integer") from None


def _params(tokens):
    """Positional family parameters: integers, commas make integer tuples."""
    out = []
    for tok in tokens:
        if "," in tok:
            out.append(tuple(_int_param(t) for t in tok.split(",") if t))
        else:
            out.append(_int_param(tok))
    return out


def _parse_box(text):
    """'lo:hi,lo:hi,...' into a (lows, highs) pair of integer tuples."""
    lows, highs = [], []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ValueError(f"box part {part!r} is not 'lo:hi'")
        lows.append(_int_param(pieces[0]))
        highs.append(_int_param(pieces[1]))
    return tuple(lows), tuple(highs)


# each handler returns (exit code, document, summary); run writes the
# document to the one output option, ns.path, when it is given
def _cmd_gen(ns):
    kwargs = {} if ns.max_candidates is None else {"max_candidates": ns.max_candidates}
    params = _arity(ns.family, FAMILIES.get(ns.family), _params(ns.params),
                    "max_candidates", bool(kwargs))
    X = generate(ns.family, *params, **kwargs)
    return (0, fileio.pointset_doc(X),
            f"{ns.family}: {len(X.points)} points, dim {X.dim} -> {ns.path}")


# builders take the parsed options, then the named positionals
_HIDING_BUILDERS = {
    "tsp": lambda ns, N: build_tsp_hiding(N, directed=not ns.undirected),
    "arb": lambda ns, N: build_arb_hiding(N, directed=not ns.undirected),
    "diff": lambda ns, n: build_diff_hiding(n),
    "perm": lambda ns, n: build_perm_hiding(n),
    "parity": lambda ns, n: build_parity_hiding(n),
    "tjoin": lambda ns, n, terminals: build_tjoin_hiding(n, terminals)[ns.part - 1],
}


def _cmd_hiding_build(ns):
    kind = ns.construction
    build = _HIDING_BUILDERS[kind]
    H = build(ns, *_arity(kind, build, _params(ns.params), "ns"))
    return (0, fileio.pointset_doc(H),
            f"{kind}: {len(H.points)} points, dim {H.dim} -> {ns.path}")


def _cmd_hiding_verify(ns):
    H = fileio.read_pointset(ns.hiding)
    X = fileio.read_pointset(ns.points)
    cert = verify_hiding(H, X)
    status = "valid" if cert.valid else "invalid"
    wit = {"hiding_digest": cert.h_digest, "target_digest": cert.x_digest}
    if cert.failure is not None:
        wit["failure"] = cert.failure
    doc = fileio.report_doc("hiding verify", status,
                            bound=cert.rc_lower_bound, witnesses=wit)
    if cert.valid:
        return 0, doc, f"valid hiding set, bound {cert.bound}"
    return 1, doc, f"invalid hiding set: {cert.failure[0]}"


def _cmd_hiding_max(ns):
    X = fileio.read_pointset(ns.points)
    box = _parse_box(ns.box)
    size, witness = max_hiding_in_box(X, box, max_candidates=ns.max_lattice)
    doc = fileio.report_doc(
        "hiding max", "ok", bound=size,
        witnesses={"points": witness.points})
    return 0, doc, f"largest hiding set in the box: {size} points"


_RELAX_BUILDERS = {
    "cube": lambda ns, d: build_cube_relaxation(d),
    "subtour": lambda ns, n: build_subtour_relaxation(n, directed=ns.directed),
    "conncut": lambda ns, n: build_conn_cut_relaxation(n),
    "rado": lambda ns, n: build_rado_permutahedron(n),
}


def _cmd_relax_build(ns):
    try:
        builder = _RELAX_BUILDERS[ns.name]
    except KeyError:
        raise ValueError(f"unknown relaxation {ns.name!r}") from None
    P = builder(ns, *_arity(ns.name, builder, _params(ns.params), "ns"))
    return (0, fileio.polyhedron_doc(P),
            f"{ns.name}: {len(P.constraints)} rows, dim {P.dim} -> {ns.path}")


def _cmd_relax_verify(ns):
    P = fileio.parse_polyhedron(fileio.read_doc(ns.polyhedron))
    X = fileio.read_pointset(ns.points)
    rep = verify_relaxation(P, X, max_points=ns.max_lattice)
    doc = fileio.report_doc(
        "relax verify", rep.status,
        bound=rep.lattice_count, witnesses={"reason": rep.reason})
    if rep.status == "verified":
        return 0, doc, f"verified, {rep.lattice_count} lattice points"
    return 1, doc, f"failed: {rep.reason[0]}"


def _cmd_relax_irredundant(ns):
    P = fileio.parse_polyhedron(fileio.read_doc(ns.polyhedron))
    kept, redundant = irredundant_count(P)
    doc = fileio.report_doc(
        "relax irredundant", "ok", bound=kept,
        witnesses={"redundant_rows": list(redundant)})
    return 0, doc, f"{kept} irredundant inequality rows ({len(redundant)} redundant)"


def _cmd_index(ns):
    X = fileio.read_pointset(ns.points)
    k, system = jeroslow_index(X, limit=ns.limit, max_complement=ns.max_subsets)
    doc = fileio.report_doc(
        "index", "ok", bound=k,
        witnesses={"rows": [fileio.row_doc(h) for h in system.halfspaces],
                   "target_digest": system.target})
    return 0, doc, f"index {k}"


def _cmd_rationalize(ns):
    X = fileio.read_pointset(ns.points)
    h = rationalize_halfspace(X)
    if h is None:
        doc = fileio.report_doc("rationalize", "not_separable", witnesses=None)
        return 1, doc, "not separable by a single row"
    doc = fileio.report_doc("rationalize", "separable",
                            witnesses={"row": fileio.row_doc(h)})
    lhs = ", ".join(fileio.format_rational(v) for v in h.a)
    return 0, doc, f"separable: ({lhs}) . x {h.sense} {fileio.format_rational(h.rhs)}"


def _cmd_report(ns):
    box = _parse_box(ns.box) if ns.box else None
    r = bound_report(ns.family, *_params(ns.params), box=box)
    doc = fileio.report_doc("report", "ok", **vars(r))
    low = "certified" if r.lower_certified else "uncertified"
    high = "certified" if r.upper_certified else "uncertified"
    return (0, doc, f"{r.family}: floor {r.lower_bound} ({low}), "
                    f"ceiling {r.upper_bound} ({high})")


@cache
def _build_parser():
    top = argparse.ArgumentParser(
        prog="rcx",
        description="exact toolkit for integer point families, hiding-set "
                    "bounds, and explicit relaxations")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a point family")
    gen.add_argument("family")
    gen.add_argument("params", nargs="*")
    gen.add_argument("-o", "--out", dest="path", required=True)
    gen.add_argument("--max-candidates", type=int, default=None)
    gen.set_defaults(handler=_cmd_gen)

    hiding = sub.add_parser("hiding", help="hiding-set constructions and checks")
    hsub = hiding.add_subparsers(dest="subcommand", required=True)
    hb = hsub.add_parser("build")
    hb.add_argument("construction", choices=tuple(_HIDING_BUILDERS))
    hb.add_argument("params", nargs="*")
    hb.add_argument("-o", "--out", dest="path", required=True)
    hb.add_argument("--undirected", action="store_true")
    hb.add_argument("--part", type=int, choices=(1, 2), default=1)
    hb.set_defaults(handler=_cmd_hiding_build)
    hv = hsub.add_parser("verify")
    hv.add_argument("hiding")
    hv.add_argument("points")
    hv.add_argument("--report", dest="path")
    hv.set_defaults(handler=_cmd_hiding_verify)
    hm = hsub.add_parser("max")
    hm.add_argument("points")
    hm.add_argument("--box", required=True)
    hm.add_argument("--max-lattice", type=int, default=None)
    hm.add_argument("--report", dest="path")
    hm.set_defaults(handler=_cmd_hiding_max)

    relax = sub.add_parser("relax", help="explicit relaxations and checks")
    rsub = relax.add_subparsers(dest="subcommand", required=True)
    rb = rsub.add_parser("build")
    rb.add_argument("name")
    rb.add_argument("params", nargs="*")
    rb.add_argument("-o", "--out", dest="path", required=True)
    rb.add_argument("--directed", action="store_true")
    rb.set_defaults(handler=_cmd_relax_build)
    rv = rsub.add_parser("verify")
    rv.add_argument("polyhedron")
    rv.add_argument("points")
    rv.add_argument("--max-lattice", type=int, default=None)
    rv.add_argument("--report", dest="path")
    rv.set_defaults(handler=_cmd_relax_verify)
    ri = rsub.add_parser("irredundant")
    ri.add_argument("polyhedron")
    ri.add_argument("--report", dest="path")
    ri.set_defaults(handler=_cmd_relax_irredundant)

    idx = sub.add_parser("index", help="exact minimum cube-separating system")
    idx.add_argument("points")
    idx.add_argument("--limit", type=int, default=4)
    idx.add_argument("--max-subsets", type=int, default=16)
    idx.add_argument("--report", dest="path")
    idx.set_defaults(handler=_cmd_index)

    rat = sub.add_parser("rationalize", help="single separating row, if any")
    rat.add_argument("points")
    rat.add_argument("--report", dest="path")
    rat.set_defaults(handler=_cmd_rationalize)

    rep = sub.add_parser("report", help="floor/ceiling size report for a family")
    rep.add_argument("family")
    rep.add_argument("params", nargs="*")
    rep.add_argument("--box", default=None)
    rep.add_argument("-o", "--out", "--report", dest="path")
    rep.set_defaults(handler=_cmd_report)

    return top


def run(argv):
    """Parse argv, run one subcommand, and never raise on bad input."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, None, "" if code == 0 else "usage error")
    try:
        code, doc, summary = ns.handler(ns)
        if ns.path is not None:
            fileio.write_doc(ns.path, doc)
    except TooLarge as exc:
        return CommandResult(2, None, f"too large: {exc}")
    except (ValueError, TypeError, OSError) as exc:
        return CommandResult(2, None, f"error: {exc}")
    return CommandResult(code, ns.path, summary)


def main(argv=None):
    result = run(sys.argv[1:] if argv is None else list(argv))
    if result.summary:
        stream = sys.stderr if result.exit_code == 2 else sys.stdout
        print(result.summary, file=stream)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
