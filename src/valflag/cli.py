"""Command-line interface.

All file inputs are JSON with scalar-grammar strings; polynomials and
terms are passed inline.  Exit codes: 0 success, 1 negative decision
(Distinguished, non-member, counterexample), 2 usage or parse error,
3 domain or precondition error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import filters, polyhedra, prime
from .errors import ParseError, ValflagError
from .prime import CONT, DefiningMatrix, Prime
from .polyhedra import GammaPolyhedralSet, GammaPolyhedron
from .scalars import Scalar, format_scalar, parse_scalar
from .tropical import check_names, format_exponent, parse_poly, parse_term


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 (byte {e.start}: {e.reason})")


def _load_json(path: str) -> object:
    text = _read(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: {e.msg}", text, e.pos)


def _read_at(where: str, read, value):
    """read(value); a ParseError is prefixed with where value is in a file."""
    try:
        return read(value)
    except ParseError as e:
        raise ParseError(f"{where}: {e}") from None


def load_matrix(path: str) -> tuple[list[str], Prime]:
    """Matrix file {"vars": [...], "rows": [[scalar strings]]}; the matrix
    is canonicalized on load.  The vars are distinct identifiers other
    than t, so that terms over them read back."""
    data = _load_json(path)
    if (
        not isinstance(data, dict)
        or not isinstance(data.get("vars"), list)
        or not isinstance(data.get("rows"), list)
    ):
        raise ParseError(f'{path}: expected {{"vars": [...], "rows": [...]}}')
    names = _read_at(path, check_names, data["vars"])
    n = len(names)
    rows = []
    for i, row in enumerate(data["rows"], 1):
        if not isinstance(row, list) or len(row) != n + 1:
            raise ParseError(
                f"{path}: each row needs {n + 1} entries "
                "(coefficient column first)"
            )
        rows.append([
            _read_at(f"{path}: row {i}, entry {j}", parse_scalar, str(x))
            for j, x in enumerate(row, 1)
        ])
    return names, prime.canonicalize(DefiningMatrix(rows, n=n))


def _polyhedron_from_data(data: object, n: int, path: str) -> GammaPolyhedron:
    """One polyhedron of the file path; path also names the piece when the
    file holds several."""
    if not isinstance(data, dict) or not isinstance(data.get("ineqs"), list):
        raise ParseError(f'{path}: expected {{"ineqs": [...]}}')
    rows = []
    for i, item in enumerate(data["ineqs"], 1):
        where = f"{path}: inequality {i}"
        if (
            not isinstance(item, dict)
            or not isinstance(item.get("u"), list)
            or "gamma" not in item
        ):
            raise ParseError(f'{where} needs "u" and "gamma"')
        u = item["u"]
        if not all(type(x) is int for x in u):
            raise ParseError(
                f"{where}: normals must be JSON integers, got {json.dumps(u)}"
            )
        gamma = _read_at(f"{where}, gamma", parse_scalar, str(item["gamma"]))
        if not gamma.is_rational():
            raise ParseError(
                f"{where}: right-hand sides must be rational, got {item['gamma']}"
            )
        rows.append((u, gamma.as_rational()))
    return GammaPolyhedron(n, rows)


def load_polyset(path: str, n: int) -> GammaPolyhedralSet:
    """Polyhedral-set file {"pieces": [...]}; a bare polyhedron
    {"ineqs": [...]} is accepted as a single piece."""
    data = _load_json(path)
    pieces = [data]
    if isinstance(data, dict) and "pieces" in data:
        pieces = data["pieces"]
        if not isinstance(pieces, list) or not pieces:
            raise ParseError(f'{path}: "pieces" must be a nonempty list')
    return GammaPolyhedralSet([
        _polyhedron_from_data(p, n, f"{path}: piece {k}" if len(pieces) > 1 else path)
        for k, p in enumerate(pieces, 1)
    ])


def matrix_json(names: Sequence[str], matrix: DefiningMatrix) -> str:
    return json.dumps(
        {
            "vars": list(names),
            "rows": [[format_scalar(x) for x in row] for row in matrix.rows],
        }
    )


def polyhedron_json(U: GammaPolyhedron) -> str:
    return json.dumps(
        {
            "ineqs": [
                {"u": list(u), "gamma": format_scalar(Scalar.rational(g))}
                for u, g in U.rows
            ]
        }
    )


def _approx(x: Scalar) -> str:
    return f"{x.approx():.12g}"


def _scalar_pair(x: Scalar) -> dict:
    return {"exact": format_scalar(x), "approx": _approx(x)}


_NAME = re.compile(r"[^\W\d]\w*")


def infer_vars(texts: Sequence[str]) -> list[str]:
    """Variable names appearing in term strings, alphabetically; `t` is the
    term grammar's one keyword, not a variable."""
    names = {match.group(0) for text in texts for match in _NAME.finditer(text)}
    return sorted(names - {"t"})


# -- verb handlers ------------------------------------------------------------


def _cmd_canon(args) -> int:
    names, P = load_matrix(args.matrix)
    print(matrix_json(names, P.matrix))
    return 0


def _cmd_eq(args) -> int:
    names_a, A = load_matrix(args.matrix_a)
    names_b, B = load_matrix(args.matrix_b)
    verdict = prime.decide_equal(A, B)
    if verdict.equal:
        print("Equal")
        return 0
    print(f"Distinguished: {format_exponent(verdict.witness, names_a)}")
    return 1


def _cmd_classify(args) -> int:
    _, P = load_matrix(args.matrix)
    kind = prime.classify(P)
    print(kind)
    print(f"is_order: {'true' if prime.is_order(P) else 'false'}")
    print(f"height: {prime.height(P)}")
    if kind == CONT:
        print(f"min_filter_dim: {prime.min_filter_dim(P)}")
    else:
        print("min_filter_dim: null")
    return 0


def _cmd_flag(args) -> int:
    _, P = load_matrix(args.matrix)
    kind = None if args.kind == "auto" else args.kind
    F = polyhedra.flag_from_matrix(P, kind)
    base_key = "vertex" if F.kind == "polyhedra" else "base"
    print(
        json.dumps(
            {
                "kind": F.kind,
                base_key: [format_scalar(x) for x in F.base],
                "dirs": [[format_scalar(x) for x in v] for v in F.dirs],
            }
        )
    )
    return 0


def _cmd_member(args) -> int:
    _, P = load_matrix(args.matrix)
    U = load_polyset(args.polyset, P.n)
    answer = filters.filter_member(P, U)
    print(
        json.dumps({"member": answer.member, "piece_index": answer.piece_index})
    )
    return 0 if answer.member else 1


def _cmd_cert(args) -> int:
    if args.homog:
        print(
            "error: certificates are established for the affine sets R only; "
            "no analogue is offered for the homogeneous sets R~, "
            "so --homog is rejected",
            file=sys.stderr,
        )
        return 3
    texts = [args.target] + list(args.constraints)
    names = args.vars.split(",") if args.vars else infer_vars(texts)
    target = parse_term(args.target, names)
    constraints = [parse_term(c, names) for c in args.constraints]
    result = filters.farkas_certify(constraints, target)
    if isinstance(result, filters.FarkasCertificate):
        print(
            json.dumps(
                {
                    "m": result.m,
                    "m_l": list(result.m_l),
                    "b": format_scalar(Scalar.rational(result.b)),
                }
            )
        )
        return 0
    print(
        json.dumps({"point": [format_scalar(x) for x in result.point]})
    )
    return 1


def _cmd_cmp(args) -> int:
    names, P = load_matrix(args.matrix)
    f = parse_poly(args.f, names)
    g = parse_poly(args.g, names)
    print(prime.compare(P, f, g))
    return 0


def _cmd_mindim(args) -> int:
    _, P = load_matrix(args.matrix)
    print(polyhedron_json(filters.mindim_witness(P)))
    return 0


def _cmd_plot(args) -> int:
    names, P = load_matrix(args.matrix)
    if P.n != 2:
        print("error: plot data is produced for n = 2 only", file=sys.stderr)
        return 2
    F = polyhedra.flag_from_matrix(P, "polyhedra")
    box = [
        Scalar.rational(x) for pair in filters._vertex_box(F) for x in pair
    ]
    print(
        json.dumps(
            {
                "vertex": [_scalar_pair(x) for x in F.base],
                "dirs": [[_scalar_pair(x) for x in v] for v in F.dirs],
                "box": [_scalar_pair(x) for x in box],
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valflag",
        description=(
            "Classify valuated term preorders: canonical defining matrices, "
            "equality with witnesses, flags, filter membership, and "
            "multiplicative certificates."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("canon", help="canonical form of a defining matrix")
    p.add_argument("matrix", help="matrix JSON file")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("eq", help="do two matrices define the same prime?")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.set_defaults(func=_cmd_eq)

    p = sub.add_parser(
        "classify", help="cont / coefficient_blind / non_continuous + stats"
    )
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("flag", help="simplicial flag of a matrix")
    p.add_argument("matrix")
    p.add_argument(
        "--kind",
        choices=["auto", "polyhedra", "cones"],
        default="auto",
        help="flag kind; auto picks polyhedra for cont primes",
    )
    p.set_defaults(func=_cmd_flag)

    p = sub.add_parser(
        "member", help="is a polyhedral set in the prime's filter?"
    )
    p.add_argument("matrix")
    p.add_argument("polyset", help="polyhedral-set JSON file")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser(
        "cert",
        help="Farkas certificate for containment of half-space intersections",
    )
    p.add_argument("target", help="target term, e.g. t^-2*x*y")
    p.add_argument("constraints", nargs="+", help="constraint terms")
    p.add_argument(
        "--vars",
        default="",
        help="comma-separated variable names (default: inferred, sorted)",
    )
    p.add_argument(
        "--homog",
        action="store_true",
        help="request the homogeneous variant (always rejected)",
    )
    p.set_defaults(func=_cmd_cert)

    p = sub.add_parser("cmp", help="compare two polynomials under a prime")
    p.add_argument("matrix")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_cmp)

    p = sub.add_parser(
        "mindim", help="minimum-dimension member polyhedron of the filter"
    )
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_mindim)

    p = sub.add_parser("plot", help="2-D plot data: vertex, directions, box")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_plot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call to main, not at import, and reused: parsing
    # leaves the parser unchanged, and each call gets a fresh namespace.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one verb; the parser is built once per process."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValflagError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
