"""Command-line front end.

Exit codes: 0 success/verified, 1 verified-false or non-certified search,
2 usage error, 3 capacity/budget error.  ``-`` means standard input for
any file argument.  Every subcommand accepts ``--format text|json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

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
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise UsageError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _read_matroid(path: str) -> Matroid:
    text = _read_text(path)
    if text.lstrip().startswith("bm:"):
        return from_compact(text)
    return from_bm1(text)


def _read_graph(path: str) -> SimpleGraph:
    text = _read_text(path)
    # an edge list line has two whitespace-separated fields
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            if len(line.split()) == 2 and not line.startswith(">>"):
                return parse_edgelist(text)
            return parse_graph6(text)
    raise UsageError("empty graph input")


def _emit(args, text: str | None, obj: dict) -> None:
    """Print ``obj`` as JSON, or ``text``; a ``text`` of None is one
    ``field value`` line per field of ``obj`` after ``kind``, with lists
    space-joined and booleans written true/false."""
    if args.format == "json":
        obj = {"schema": SCHEMA, "version": __version__, **obj}
        print(json.dumps(obj, sort_keys=True))
        return
    if text is None:
        lines = []
        for field, value in list(obj.items())[1:]:
            words = value if isinstance(value, list) else [value]
            lines.append(f"{field} " + " ".join(
                str(w).lower() if isinstance(w, bool) else str(w)
                for w in words))
        text = "\n".join(lines)
    print(text, end="" if text.endswith("\n") else "\n")


def _construct(build: Callable[[argparse.Namespace], Matroid]):
    """A ``construct`` leaf: print the matroid ``build(args)`` makes."""
    def cmd(args) -> int:
        m = build(args)
        # the BM1 text of a large PG costs seconds, and JSON does not print it
        text = to_bm1(m) if args.format == "text" else None
        _emit(args, text, {"kind": "matroid", "compact": to_compact(m),
                           "dim": m.dim, "size": m.size})
        return EXIT_OK
    return cmd


def _cmd_stat(args) -> int:
    m = _read_matroid(args.file)
    _emit(args, None, {"kind": "stat", "dim": m.dim, "size": m.size,
                       "rank": m.rank, "chi": chi(m)})
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
    _emit(args, None, {"kind": "canon", "dim": m.dim, "key": key.bits})
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


def _cmd_ex(args) -> int:
    if args.cache_dir and os.path.exists(args.cache_dir):
        _check_cache_dir(args.cache_dir)  # a new one is made on the first put
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
    _emit(args, None, {"kind": "turan", **cert.to_json_dict()})
    return EXIT_OK if cert.certified else EXIT_FALSE


def _cmd_nearest_bb(args) -> int:
    m = _read_matroid(args.file)
    rep = nearest_bose_burton(m, args.k)
    _emit(args, None, {
        "kind": "nearest-bb", "distance": rep.distance,
        "density": rep.density, "functionals": list(rep.functionals),
        "bose_burton": to_compact(rep.bose_burton),
    })
    return EXIT_OK


def _graph_chi(args) -> int:
    c = chromatic_number(_read_graph(args.file))
    _emit(args, str(c), {"kind": "graph-chi", "chi": c})
    return EXIT_OK


def _graph_forest(args) -> int:
    cert = min_forest_drop(_read_graph(args.file), args.target)
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


def _graph_cubic(args) -> int:
    nu, const = cubic_remark_data(_read_graph(args.file))
    _emit(args, None, {"kind": "graph-cubic", "nu": nu, "constant": const})
    return EXIT_OK


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


def _check_cache_dir(path: str) -> None:
    if not os.path.isdir(path):
        raise UsageError(f"not a directory: {path}")


def _cmd_cache(args) -> int:
    _check_cache_dir(args.cache_dir)
    report = Catalog(args.cache_dir).verify_all()
    lines = [f"checked {report.checked}", f"ok {len(report.ok)}"]
    for key, diag in report.failures:
        lines.append(f"quarantined {key}: {diag}")
    _emit(args, "\n".join(lines) + "\n", {
        "kind": "cache-verify", "checked": report.checked,
        "ok": list(report.ok),
        "failures": [{"key": k, "diagnostic": d} for k, d in report.failures],
    })
    return EXIT_OK if not report.failures else EXIT_FALSE


def _time_limit(text: str) -> float:
    """A ``--time-limit`` in seconds: a number >= 0, ``inf`` for none.  A
    NaN deadline would never pass, so it is refused with the negatives."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError("time limit must be >= 0")
    return value


class Pos(NamedTuple):
    """A positional argument: one word, or one or more for nargs "+"."""
    dest: str
    nargs: str | None = None
    choices: object = None


class Opt(NamedTuple):
    """An option: ``flag`` and one value, read by ``type``."""
    flag: str
    type: Callable[[str], object] = str
    choices: object = None
    default: object = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


FILE, FILES = Pos("file"), Pos("files", "+")
HOST_PATTERN = (Pos("host"), Pos("pattern"))
N, T = Opt("--n", int, required=True), Opt("--t", int, required=True)
TIME_LIMIT = Opt("--time-limit", _time_limit)
FORMAT = Opt("--format", choices=("text", "json"), default="text")

# command -> (help line, its leaf), in help order; a leaf is (the function
# it runs, its arguments), and a command with subcommands has a dict from
# each subcommand (kept as ``what``) to its leaf.  Every leaf also takes
# FORMAT, after its own arguments.  build_parser and _read both read this
# table.
COMMANDS = {
    "construct": ("emit a standard matroid as BM1", {
        "pg": (_construct(lambda a: pg(a.t)), (T,)),
        "ag": (_construct(lambda a: ag(a.t)), (T,)),
        "free": (_construct(lambda a: free(a.t)), (T,)),
        "bb": (_construct(lambda a: bb(a.n, a.t)), (N, T)),
        "circuit": (_construct(lambda a: circuit(a.m)),
                    (Opt("--m", int, required=True),)),
        "graphic": (_construct(lambda a: graphic(_read_graph(a.file))),
                    (FILE,)),
        "lift": (_construct(lambda a: lift(LiftSpec(
            _read_matroid(a.file), a.n, a.t))), (FILE, N, T))}),
    "stat": ("dim, size, rank, chi of a matroid", (_cmd_stat, (FILE,))),
    "contains": ("host has a pattern-restriction?",
                 (_cmd_contains, HOST_PATTERN)),
    "iso": ("are two matroids isomorphic?", (_cmd_iso, (Pos("a"), Pos("b")))),
    "canon": ("canonical key of a matroid", (_cmd_canon, (FILE,))),
    "count-restrictions": ("number of distinct pattern-restrictions",
                           (_cmd_count, HOST_PATTERN)),
    "decompose": ("decomposition family as BM1 blocks",
                  (_cmd_decompose, (FILES,))),
    "ex": ("exact Turan number with certificate",
           (_cmd_ex, (FILES, N, TIME_LIMIT, Opt("--cache-dir")))),
    "nearest-bb": ("nearest Bose-Burton geometry",
                   (_cmd_nearest_bb, (FILE, Opt("--k", int, required=True)))),
    "graph": ("graph computations", {
        "chi": (_graph_chi, (FILE,)),
        "forest": (_graph_forest, (FILE, Opt("--target", int, default=2))),
        "cubic": (_graph_cubic, (FILE,))}),
    "verify": ("run a verification suite",
               (_cmd_verify, (Pos("suite", choices=verify_mod.SUITES),
                              Opt("--max-n", int), TIME_LIMIT))),
    "cache": ("catalog maintenance", {
        "verify": (_cmd_cache, (Opt("--cache-dir", required=True),))}),
}


def _add_leaf(p: argparse.ArgumentParser, leaf: tuple) -> None:
    func, args = leaf
    p.set_defaults(func=func)
    for a in (*args, FORMAT):
        if isinstance(a, Pos):
            p.add_argument(a.dest, nargs=a.nargs, choices=a.choices)
        else:
            p.add_argument(a.flag, type=a.type, choices=a.choices,
                           default=a.default, required=a.required)


def build_parser() -> argparse.ArgumentParser:
    """The bmx parser with every command."""
    ap = argparse.ArgumentParser(
        prog="bmx",
        description="Exact computation with simple binary matroids over GF(2).",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, leaf) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(leaf, dict):
            ps = p.add_subparsers(dest="what", required=True)
            for what, sub_leaf in leaf.items():
                _add_leaf(ps.add_parser(what), sub_leaf)
        else:
            _add_leaf(p, leaf)
    return ap


def _read(argv: list[str]) -> argparse.Namespace | None:
    """``argv`` read off ``COMMANDS`` when it is a well-formed call: a
    command (and its subcommand), then exact flags, each followed by a
    value that does not start with ``-``, around one run of positionals
    (``-`` among them).  The Namespace is the one the full tree returns;
    any other argv gives None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    leaf, rest = COMMANDS[argv[0]][1], argv[1:]
    ns = {"command": argv[0]}
    if isinstance(leaf, dict):
        if not rest or rest[0] not in leaf:
            return None
        ns["what"] = rest[0]
        leaf, rest = leaf[rest[0]], rest[1:]
    ns["func"], spec = leaf
    spec = (*spec, FORMAT)
    opts = {a.flag: a for a in spec if isinstance(a, Opt)}
    words: list[str] = []
    i = end = 0  # end: the index just past the run of positionals
    while i < len(rest):
        if rest[i][:1] != "-" or rest[i] == "-":
            if words and end != i:
                return None
            words.append(rest[i])
            i = end = i + 1
            continue
        opt = opts.get(rest[i])
        if (opt is None or opt.dest in ns or i + 1 == len(rest)
                or rest[i + 1][:1] == "-"):
            return None
        try:
            value = opt.type(rest[i + 1])
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        ns[opt.dest] = value
        i += 2
    for a in spec:
        if isinstance(a, Opt):
            if a.dest not in ns:
                if a.required:
                    return None
                ns[a.dest] = a.default
            continue
        take = words if a.nargs == "+" else words[:1]
        if not take or any(a.choices and w not in a.choices for w in take):
            return None
        ns[a.dest] = take if a.nargs == "+" else take[0]
        words = words[len(take):]
    return None if words else argparse.Namespace(**ns)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the full tree does.  A well-formed call is read
    off ``COMMANDS`` without building a parser; the full tree parses
    every other argv, so help, usage errors and exit codes are its own."""
    return _read(argv) or build_parser().parse_args(argv)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
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
