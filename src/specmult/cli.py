"""Command-line interface.

Subcommands: analyze (structural report), mult (eigenvalue multiplicity),
classify (one-deficiency verdict), check (single lemma relation), verify
(enumeration campaign). All machine output is JSON with sorted keys, so a
repeated invocation is byte-identical. Domain errors print one JSON object
on stderr and exit 1; usage errors exit 2; verify exits 3 when any
discrepancy was recorded.

Eigenvalues: --lambda takes an exact rational ("3", "-5/2", "1.25"; use
--lambda=-5/2 for negatives so the shell parser does not eat the dash).
Algebraic eigenvalues take --lambda-minpoly "c0,c1,...,cd" (integer
coefficients, lowest degree first; any squarefree polynomial with the
eigenvalue as a root) with --near FLOAT to pick a real root when the
polynomial has several: the root whose certified isolating interval holds
FLOAT. A polynomial that is not squarefree, or a locator midway between two
roots, is refused.

check reads every relation off the matrix in S(G) (--matrix FILE, or the
adjacency matrix): gain-cycle takes alpha from its constant diagonal and
the unit gains from its edge entries, and guvh takes the join to be the
one edge leaving --left-part.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import ParameterOutOfRange, PatternMismatch, SpecmultError
from .graphs import Graph, parse_graph
from .hermitian import (
    HermitianMatrix,
    adjacency_matrix,
    parse_matrix,
    validate_pattern,
)
from .oracle import CAMPAIGNS, CampaignConfig, run_campaign
from .spectra import AlgebraicEigenvalue, IntPolynomial, multiplicity
from .structure import structure_report
from .theorems import (
    RELATIONS,
    RelationProbe,
    conclusion_classifier,
    lemma_relation_checks,
)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def _load_matrix(args, g: Graph) -> HermitianMatrix:
    if getattr(args, "matrix", None):
        m = parse_matrix(_read(args.matrix))
        # parsing put m in S(m.pattern), so it is in S(g) exactly when the
        # patterns agree; validate_pattern still names an order mismatch
        if m.pattern != g and not validate_pattern(m, g):
            raise PatternMismatch("matrix file is not in S(G) for the supplied graph")
        return m
    return adjacency_matrix(g)


def _parse_lambda(args):
    if getattr(args, "lambda_minpoly", None):
        try:
            coeffs = tuple(int(t) for t in args.lambda_minpoly.split(","))
        except ValueError:
            raise ParameterOutOfRange(
                "--lambda-minpoly wants comma-separated integers"
            ) from None
        return AlgebraicEigenvalue.real_root(IntPolynomial(coeffs), args.near)
    raw = getattr(args, "lam", None)
    if raw is None:
        raise ParameterOutOfRange("an eigenvalue is required (--lambda or --lambda-minpoly)")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ParameterOutOfRange(f"cannot parse eigenvalue {raw!r}") from None


def _add_lambda_flags(sp) -> None:
    sp.add_argument("--lambda", dest="lam", metavar="VALUE", help="exact rational eigenvalue")
    sp.add_argument(
        "--lambda-minpoly",
        metavar="C0,C1,...",
        help="integer minimal polynomial, lowest coefficient first",
    )
    sp.add_argument("--near", type=float, help="root locator for --lambda-minpoly")


def _add_matrix_flags(sp) -> None:
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--matrix", metavar="FILE", help="matrix file in S(G)")
    grp.add_argument(
        "--adjacency", action="store_true", help="use the adjacency matrix (default)"
    )


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="specmult",
        description="Eigenvalue multiplicities of Hermitian matrices with a prescribed graph pattern",
    )
    ap.add_argument("--version", action="version", version="%(prog)s 1.0.0")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("analyze", help="structural report for a graph")
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("mult", help="multiplicity of an eigenvalue")
    sp.add_argument("--graph", required=True, metavar="FILE")
    _add_matrix_flags(sp)
    _add_lambda_flags(sp)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="require an exact method")
    mode.add_argument("--numeric", action="store_true", help="force numeric clustering")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("classify", help="one-deficiency verdict for (graph, eigenvalue)")
    sp.add_argument("--graph", required=True, metavar="FILE")
    _add_matrix_flags(sp)
    _add_lambda_flags(sp)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("check", help="run a single lemma relation")
    sp.add_argument("--relation", required=True, choices=sorted(RELATIONS))
    sp.add_argument("--graph", required=True, metavar="FILE")
    _add_matrix_flags(sp)
    _add_lambda_flags(sp)
    sp.add_argument("--vertex", type=int, help="witness vertex (interlace-v, pendant-cycle)")
    sp.add_argument("--edge", metavar="U,V", help="witness edge (interlace-e)")
    sp.add_argument("--left-part", metavar="V1,V2,...", help="left vertex set, one edge out (guvh)")
    sp.add_argument("--path", metavar="V1,V2,...", help="path vertices, leaf first (path-removal)")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("verify", help="run an enumeration campaign")
    sp.add_argument("--campaign", required=True, choices=CAMPAIGNS)
    sp.add_argument("--cap", type=int)
    sp.add_argument("--seeds", type=int, default=16)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--max-instances", type=int)
    sp.add_argument("--only", metavar="KEY", help="replay a single instance key")
    sp.add_argument("--out", metavar="FILE", help="append discrepancies as JSON lines")
    return ap


def _int_list(raw: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in raw.split(","))
    except ValueError:
        raise ParameterOutOfRange(f"{what} wants comma-separated integers") from None


def _cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    report = structure_report(g)
    if args.json:
        print(_dump(report))
    else:
        fam = report["family"]
        famtxt = f"{fam['kind']}{tuple(fam['params'])}" if fam else "disconnected"
        print(
            f"n={report['n']} edges={report['m']} theta={report['theta']} "
            f"p={report['p']} omega={report['omega']} family={famtxt}"
        )
        print(f"majors X={report['X']} off-cycle majors M={report['M']}")
    return 0


def _cmd_mult(args) -> int:
    g = _load_graph(args.graph)
    b = _load_matrix(args, g)
    lam = _parse_lambda(args)
    if args.exact and not b.is_exact:
        raise ParameterOutOfRange("--exact requires an exact matrix")
    if args.numeric:
        from .spectra import eigenvalue_float, multiplicity_numeric

        res = multiplicity_numeric(b, eigenvalue_float(lam), args.tol)
    else:
        res = multiplicity(b, lam, args.tol)
        if args.exact and res.method == "NumericCluster":
            raise ParameterOutOfRange("no exact method applies to this input")
    if args.json:
        print(_dump(res.as_json()))
    else:
        print(f"multiplicity {res.multiplicity} (method {res.method})")
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    b = _load_matrix(args, g)
    lam = _parse_lambda(args)
    out = conclusion_classifier(g, b, lam, args.tol)
    if args.json:
        print(_dump(out.as_json()))
    else:
        ev = out.evidence
        print(
            f"verdict {out.verdict} (multiplicity {ev['multiplicity']}, "
            f"bound {ev['bound']}, form {ev['form']})"
        )
        if ev["violations"]:
            for v in ev["violations"]:
                print(f"violation: {v}")
    return 0


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    b = _load_matrix(args, g)
    lam = _parse_lambda(args)
    kw = {"tol": args.tol}
    if args.vertex is not None:
        kw["vertex"] = args.vertex
    if args.edge:
        e = _int_list(args.edge, "--edge")
        if len(e) != 2:
            raise ParameterOutOfRange("--edge wants exactly two vertices")
        kw["edge"] = e
    if args.left_part:
        kw["left_part"] = _int_list(args.left_part, "--left-part")
    if args.path:
        kw["path"] = _int_list(args.path, "--path")
    probe = RelationProbe(args.relation, **kw)
    rep = lemma_relation_checks(g, b, lam, probe)
    if args.json:
        print(_dump(rep.as_json()))
    else:
        word = "holds" if rep.holds else "FAILS"
        print(f"{rep.name}: {word} (lhs {rep.lhs}, rhs {rep.rhs})")
    return 0


def _cmd_verify(args) -> int:
    cfg = CampaignConfig(
        campaign=args.campaign,
        cap=args.cap,
        seeds=args.seeds,
        tol=args.tol,
        max_instances=args.max_instances,
        only=args.only,
    )
    summary, discrepancies = run_campaign(cfg)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for d in discrepancies:
                fh.write(json.dumps(d.as_json(), sort_keys=True) + "\n")
    print(_dump(summary))
    return 3 if discrepancies else 0


_HANDLERS = {
    "analyze": _cmd_analyze,
    "classify": _cmd_classify,
    "check": _cmd_check,
    "mult": _cmd_mult,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except SpecmultError as exc:
        print(json.dumps(exc.payload(), sort_keys=True), file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            json.dumps({"error": "IOError", "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
