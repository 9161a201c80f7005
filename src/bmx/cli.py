"""Command-line front end.

Exit codes: 0 success/verified, 1 verified-false or non-certified search,
2 usage error, 3 capacity/budget error.  ``-`` means standard input for
any file argument.  Every subcommand accepts ``--format text|json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bmx import __version__
from bmx.catalog import Catalog
from bmx.errors import CapacityError, UsageError
from bmx.extremal import Family, decomposition_family, ex_search, nearest_bose_burton
from bmx.graphs import (
    SimpleGraph,
    chromatic_number,
    cubic_remark_data,
    min_forest_drop,
    parse_edgelist,
    parse_graph6,
)
from bmx.matroid import (
    LiftSpec,
    Matroid,
    ag,
    bb,
    chi,
    circuit,
    free,
    from_bm1,
    from_compact,
    graphic,
    lift,
    pg,
    to_bm1,
    to_compact,
)
from bmx.morphism import canonical_key, contains, count_restrictions, isomorphic
from bmx import verify as verify_mod

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

SCHEMA = 1


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"no such file: {path}")
    return p.read_text()


def _read_matroid(path: str) -> Matroid:
    text = _read_text(path)
    if text.lstrip().startswith("bm:"):
        return from_compact(text)
    return from_bm1(text)


def _read_graph(path: str, fmt: str) -> SimpleGraph:
    text = _read_text(path)
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "edgelist":
        return parse_edgelist(text)
    # auto: an edge list line has two whitespace-separated fields
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            if len(line.split()) == 2 and not line.startswith(">>"):
                return parse_edgelist(text)
            return parse_graph6(text)
    raise UsageError("empty graph input")


def _emit(args, text: str, obj: dict) -> None:
    if args.format == "json":
        obj = {"schema": SCHEMA, "version": __version__, **obj}
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _matroid_obj(m: Matroid) -> dict:
    return {"compact": to_compact(m), "dim": m.dim, "size": m.size}


def _cmd_construct(args) -> int:
    kind = args.what
    if kind == "pg":
        m = pg(args.t)
    elif kind == "ag":
        m = ag(args.t)
    elif kind == "bb":
        m = bb(args.n, args.t)
    elif kind == "free":
        m = free(args.t)
    elif kind == "circuit":
        m = circuit(args.m)
    elif kind == "graphic":
        m = graphic(_read_graph(args.file, args.graph_format))
    elif kind == "lift":
        m = lift(LiftSpec(_read_matroid(args.file), args.n, args.t))
    else:  # pragma: no cover - argparse gates this
        raise UsageError(f"unknown construction {kind!r}")
    _emit(args, to_bm1(m), {"kind": "matroid", **_matroid_obj(m)})
    return EXIT_OK


def _cmd_stat(args) -> int:
    m = _read_matroid(args.file)
    c = chi(m)
    text = f"dim {m.dim}\nsize {m.size}\nrank {m.rank}\nchi {c}\n"
    _emit(args, text, {"kind": "stat", "dim": m.dim, "size": m.size,
                       "rank": m.rank, "chi": c})
    return EXIT_OK


def _cmd_contains(args) -> int:
    host = _read_matroid(args.host)
    pattern = _read_matroid(args.pattern)
    res = contains(host, pattern)
    _emit(args, "true" if res else "false",
          {"kind": "contains", "result": res})
    return EXIT_OK if res else EXIT_FALSE


def _cmd_iso(args) -> int:
    a = _read_matroid(args.a)
    b = _read_matroid(args.b)
    res = isomorphic(a, b)
    _emit(args, "true" if res else "false", {"kind": "iso", "result": res})
    return EXIT_OK if res else EXIT_FALSE


def _cmd_canon(args) -> int:
    m = _read_matroid(args.file)
    key = canonical_key(m)
    _emit(args, f"dim {key.dim}\nkey {key.bits}\n",
          {"kind": "canon", "dim": key.dim, "key": key.bits})
    return EXIT_OK


def _cmd_count(args) -> int:
    host = _read_matroid(args.host)
    pattern = _read_matroid(args.pattern)
    n = count_restrictions(host, pattern)
    _emit(args, str(n), {"kind": "count-restrictions", "count": n})
    return EXIT_OK


def _family_from_files(paths) -> Family:
    return Family.from_matroids(_read_matroid(p) for p in paths)


def _cmd_decompose(args) -> int:
    fam = _family_from_files(args.files)
    dfam = decomposition_family(fam)
    text = "\n".join(to_bm1(m) for m in dfam.members)
    _emit(args, text, {"kind": "decomposition",
                       "members": [to_compact(m) for m in dfam.members]})
    return EXIT_OK


def _cert_text(cert) -> str:
    lines = [
        "family " + " ".join(to_compact(m) for m in cert.family),
        f"n {cert.n}",
        f"value {cert.value}",
        f"witness {to_compact(cert.witness)}",
        f"method {cert.method}",
        f"certified {'true' if cert.certified else 'false'}",
        f"nodes {cert.nodes}",
        f"elapsed_ms {cert.elapsed_ms}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_ex(args) -> int:
    fam = _family_from_files(args.files)
    cat = Catalog(args.cache_dir) if args.cache_dir else None
    cert = None
    if cat is not None:
        hit = cat.lookup(fam, args.n)
        if hit is not None:
            cert = hit.certificate
    if cert is None:
        cert = ex_search(fam, args.n, time_limit=args.time_limit)
        if cat is not None and cert.certified:
            cat.put(cert)
    _emit(args, _cert_text(cert), {"kind": "turan", **cert.to_json_dict()})
    return EXIT_OK if cert.certified else EXIT_FALSE


def _cmd_nearest_bb(args) -> int:
    m = _read_matroid(args.file)
    rep = nearest_bose_burton(m, args.k)
    funs = list(rep.functionals)
    text = (
        f"distance {rep.distance}\n"
        f"density {rep.density}\n"
        f"functionals {' '.join(map(str, funs))}\n"
        f"bose_burton {to_compact(rep.bose_burton)}\n"
    )
    _emit(args, text, {
        "kind": "nearest-bb", "distance": rep.distance,
        "density": rep.density, "functionals": funs,
        "bose_burton": to_compact(rep.bose_burton),
    })
    return EXIT_OK


def _cmd_graph(args) -> int:
    g = _read_graph(args.file, args.graph_format)
    if args.what == "chi":
        c = chromatic_number(g)
        _emit(args, str(c), {"kind": "graph-chi", "chi": c})
        return EXIT_OK
    if args.what == "forest":
        cert = min_forest_drop(g, args.target)
        if cert is None:
            _emit(args, "none", {"kind": "graph-forest", "forest": None})
            return EXIT_FALSE
        edges = [list(e) for e in cert.forest]
        text = (f"forest {' '.join(f'{u}-{v}' for u, v in cert.forest)}\n"
                f"size {len(cert.forest)}\nchi_after {cert.chi_after}\n")
        _emit(args, text, {"kind": "graph-forest", "forest": edges,
                           "size": len(edges), "chi_after": cert.chi_after,
                           "target": cert.target})
        return EXIT_OK
    if args.what == "cubic":
        nu, const = cubic_remark_data(g)
        _emit(args, f"nu {nu}\nconstant {const}\n",
              {"kind": "graph-cubic", "nu": nu, "constant": const})
        return EXIT_OK
    raise UsageError(f"unknown graph command {args.what!r}")


def _cmd_verify(args) -> int:
    rows = verify_mod.run_suite(args.suite, max_n=args.max_n,
                                time_limit=args.time_limit)
    ok = bool(rows) and all(r.ok for r in rows)  # no rows proves nothing
    lines = [f"{'PASS' if r.ok else 'FAIL'}  {r.label}: {r.detail}"
             for r in rows]
    lines.append(
        f"RESULT {'PASS' if ok else 'FAIL'} "
        f"({sum(r.ok for r in rows)}/{len(rows)})"
    )
    _emit(args, "\n".join(lines) + "\n", {
        "kind": "verify", "suite": args.suite, "pass": ok,
        "rows": [{"label": r.label, "ok": r.ok, "detail": r.detail}
                 for r in rows],
    })
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_cache(args) -> int:
    cat = Catalog(args.cache_dir)
    report = cat.verify_all()
    lines = [f"checked {report.checked}", f"ok {len(report.ok)}"]
    for key, diag in report.failures:
        lines.append(f"quarantined {key}: {diag}")
    _emit(args, "\n".join(lines) + "\n", {
        "kind": "cache-verify", "checked": report.checked,
        "ok": list(report.ok),
        "failures": [{"key": k, "diagnostic": d} for k, d in report.failures],
    })
    return EXIT_OK if not report.failures else EXIT_FALSE


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_graph_format(p) -> None:
    p.add_argument("--graph-format", choices=("auto", "graph6", "edgelist"),
                   default="auto")


def _register_construct(sub) -> None:
    c = sub.add_parser("construct", help="emit a standard matroid as BM1")
    cs = c.add_subparsers(dest="what", required=True)
    for name in ("pg", "ag", "free"):
        p = cs.add_parser(name)
        p.add_argument("--t", type=int, required=True)
        _add_format(p)
    p = cs.add_parser("bb")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    _add_format(p)
    p = cs.add_parser("circuit")
    p.add_argument("--m", type=int, required=True)
    _add_format(p)
    p = cs.add_parser("graphic")
    p.add_argument("file")
    _add_graph_format(p)
    _add_format(p)
    p = cs.add_parser("lift")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    _add_format(p)
    c.set_defaults(func=_cmd_construct)


def _register_stat(sub) -> None:
    p = sub.add_parser("stat", help="dim, size, rank, chi of a matroid")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=_cmd_stat)


def _register_contains(sub) -> None:
    p = sub.add_parser("contains", help="host has a pattern-restriction?")
    p.add_argument("host")
    p.add_argument("pattern")
    _add_format(p)
    p.set_defaults(func=_cmd_contains)


def _register_iso(sub) -> None:
    p = sub.add_parser("iso", help="are two matroids isomorphic?")
    p.add_argument("a")
    p.add_argument("b")
    _add_format(p)
    p.set_defaults(func=_cmd_iso)


def _register_canon(sub) -> None:
    p = sub.add_parser("canon", help="canonical key of a matroid")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=_cmd_canon)


def _register_count(sub) -> None:
    p = sub.add_parser("count-restrictions",
                       help="number of distinct pattern-restrictions")
    p.add_argument("host")
    p.add_argument("pattern")
    _add_format(p)
    p.set_defaults(func=_cmd_count)


def _register_decompose(sub) -> None:
    p = sub.add_parser("decompose", help="decomposition family as BM1 blocks")
    p.add_argument("files", nargs="+")
    _add_format(p)
    p.set_defaults(func=_cmd_decompose)


def _register_ex(sub) -> None:
    p = sub.add_parser("ex", help="exact Turan number with certificate")
    p.add_argument("files", nargs="+")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--cache-dir", default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_ex)


def _register_nearest_bb(sub) -> None:
    p = sub.add_parser("nearest-bb", help="nearest Bose-Burton geometry")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_nearest_bb)


def _register_graph(sub) -> None:
    p = sub.add_parser("graph", help="graph computations")
    gs = p.add_subparsers(dest="what", required=True)
    for name in ("chi", "forest", "cubic"):
        gp = gs.add_parser(name)
        gp.add_argument("file")
        if name == "forest":
            gp.add_argument("--target", type=int, default=2)
        _add_graph_format(gp)
        _add_format(gp)
    p.set_defaults(func=_cmd_graph)


def _register_verify(sub) -> None:
    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=verify_mod.SUITES)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_verify)


def _register_cache(sub) -> None:
    p = sub.add_parser("cache", help="catalog maintenance")
    cs2 = p.add_subparsers(dest="what", required=True)
    vp = cs2.add_parser("verify")
    vp.add_argument("--cache-dir", required=True)
    _add_format(vp)
    p.set_defaults(func=_cmd_cache)


# top-level command -> the function that adds its subparser, in help order
COMMANDS = {
    "construct": _register_construct,
    "stat": _register_stat,
    "contains": _register_contains,
    "iso": _register_iso,
    "canon": _register_canon,
    "count-restrictions": _register_count,
    "decompose": _register_decompose,
    "ex": _register_ex,
    "nearest-bb": _register_nearest_bb,
    "graph": _register_graph,
    "verify": _register_verify,
    "cache": _register_cache,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The bmx parser with every command, or with only ``command``'s
    subparser, which is all that parsing a call to that command needs.
    The usage line names every command either way."""
    ap = argparse.ArgumentParser(
        prog="bmx",
        description="Exact computation with simple binary matroids over GF(2).",
    )
    ap.add_argument("--version", action="version", version=__version__)
    # a pruned tree names every command in its usage line by hand; the
    # full one leaves that to argparse, which then calls a missing
    # command "command" in its error
    names = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=names)
    for name, register in COMMANDS.items():
        if command in (None, name):
            register(sub)
    return ap


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only a call that names a command can skip the other subparsers;
    # --help, --version, no argument and a typo need the full tree
    command = argv[0] if argv and argv[0] in COMMANDS else None
    ap = build_parser(command)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
