"""Command-line front end.

Subcommands:
  info         ground set, rank, counts, number of standard orderings
  hvector      face and h-vectors plus facet count of the broken circuit complex
  lsop         the distinguished linear system and the quotient generators
  nbc check    decide a single ordering
  nbc search   scan many orderings (policies, workers, shards, checkpoints)
  gen          emit fixture matroids as JSON (theta SIZES, phi SIZES, named NAME)
  verify       run the built-in acceptance suite

Matroids are read from --input PATH or stdin, either as a bare matroid
object or wrapped as {"matroid": ..., "ordering": [...]}; gen emits the
wrapped form so its output pipes straight into the other subcommands.

Exit codes: 0 success (for nbc: a basis ordering was confirmed or found),
1 for a completed check with no basis, 2 for usage or input errors.
Reports are JSON on stdout with sorted keys and a trailing newline, byte
stable for fixed inputs and seeds; wall-clock fields appear only under
--timing.  The only environment variable consulted is MATROIDLAB_WORKERS
(a default worker count); everything else is flags.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .complexes import Ordering, f_h_vectors, standard_ordering
from .engine import (
    candidate_monomials,
    count_standard_orderings,
    dj_values,
    lsop,
    nbc_check,
    order_ideals,
    search_orderings,
)
from .errors import BadParams, MatroidlabError
from .families import (
    describe_named,
    list_named,
    named_matroid,
    phi_matroid,
    theta_matroid,
)
from .fields import field_from_name
from .matroids import Matroid, _str_or_int, matroid_from_json
from .polynomials import METHODS, groebner_basis, standard_monomials
from . import verify as _verify


def _emit(obj, path: str | None = None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_matroid(path: str) -> tuple:
    """(matroid, embedded ordering or None) from a file or stdin.  An
    ordering item is a label: a string, or an integer standing for its
    decimal string."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad bytes or JSON, or past the parser's limits
        raise BadParams(f"bad JSON input: {exc}") from None
    if not isinstance(data, dict):
        raise MatroidlabError("input must be a JSON object")
    if "matroid" in data:
        ordering = data.get("ordering")
        if ordering is not None:
            if not isinstance(ordering, list):
                raise BadParams("embedded ordering must be a list of labels")
            bad = [x for x in ordering if not _str_or_int(x)]
            if bad:
                raise BadParams(f"ordering item {bad[0]!r} is not a string or an integer")
            ordering = [str(x) for x in ordering]
        return matroid_from_json(data["matroid"]), ordering
    return matroid_from_json(data), None


def _pick_labels(m: Matroid, flag: str | None, embedded) -> tuple:
    """Ordering precedence: --ordering flag, then embedded, then natural."""
    if flag:
        return tuple(t.strip() for t in flag.split(",") if t.strip())
    if embedded:
        return tuple(embedded)
    return m.ground


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input", default="-", metavar="PATH",
        help="matroid JSON file ('-' = stdin, the default)",
    )


def _add_field(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--field", default="gf2", metavar="NAME",
        help="coefficient field: gf2 (default), q, or gfP for prime P",
    )


def _add_ordering(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--ordering", default=None, metavar="CSV",
        help="comma-separated ground labels, overriding any embedded ordering",
    )


# -- subcommand bodies ----------------------------------------------------------


def _cmd_info(args) -> int:
    m, _ = _load_matroid(args.input)
    out = {
        "elements": len(m.ground),
        "ground": list(m.ground),
        "rank": m.rank(),
        "corank": len(m.ground) - m.rank(),
        "bases": len(m.bases()),
        "circuits": len(m.circuits()),
        "cocircuits": len(m.cocircuits()),
        "loops": sorted(m.loops(), key=m.position.get),
        "coloops": sorted(m.coloops(), key=m.position.get),
        "standard_orderings": count_standard_orderings(m),
    }
    _emit(out)
    return 0


def _cmd_hvector(args) -> int:
    m, embedded = _load_matroid(args.input)
    o = Ordering(_pick_labels(m, args.ordering, embedded))
    o.validate_for(m)
    f, h = f_h_vectors(m, o)
    # the complex is pure, so its facets are its faces of the top size
    _emit({"f": list(f), "h": list(h.entries), "facets": f[-1]})
    return 0


def _cmd_lsop(args) -> int:
    m, embedded = _load_matroid(args.input)
    field = field_from_name(args.field)
    std = standard_ordering(m, _pick_labels(m, args.ordering, embedded))
    th = lsop(m, std, field)
    pos = std.ordering.position
    n, t = len(std.labels), len(std.labels) - std.rank
    upper, lower = order_ideals(m, std)
    out = {
        "ordering": list(std.labels),
        "basis": list(std.basis),
        "field": field.name,
        "forms": [p.show() for p in th.forms],
        "substitution": {
            f"x{j}": th.substitution[j].show() for j in range(t + 1, n + 1)
        },
        "generators": [
            {"circuit": sorted(c, key=pos), "polynomial": p.show()}
            for c, p in th.generators
        ],
        "d": list(dj_values(m, std)),
        "candidates": [
            {"circuit": sorted(c, key=pos), "monomial": mon.show()}
            for c, mon in candidate_monomials(m, std)
        ],
        "upper_generators": sorted(x.show() for x in upper),
        "lower": sorted(x.show() for x in lower),
        "valid": th.valid,
        "invalid_facet": sorted(th.invalid_facet, key=pos) if th.invalid_facet else None,
    }
    if args.standard_monomials:
        gb = groebner_basis(th.ideal, args.order)
        sm = standard_monomials(gb, th.ideal.nvars, args.order)
        out["groebner_standard_monomials"] = sorted(x.show() for x in sm)
        out["term_order"] = args.order
    _emit(out)
    return 0


def _nbc_json(rep) -> dict:
    return {
        "ordering": list(rep.ordering),
        "field": rep.field,
        "h": list(rep.h.entries),
        "l_size": rep.l_size,
        "l": list(rep.l_monomials),
        "quotient_dim": rep.quotient_dim,
        "cardinality_ok": rep.cardinality_ok,
        "lsop_valid": rep.lsop_valid,
        "independent": rep.independent,
        "verdict": rep.verdict,
        "reason": rep.reason,
        "witness": rep.witness,
    }


def _cmd_nbc_check(args) -> int:
    m, embedded = _load_matroid(args.input)
    field = field_from_name(args.field)
    std = standard_ordering(m, _pick_labels(m, args.ordering, embedded))
    t0 = time.perf_counter()
    rep = nbc_check(m, std, field, method=args.method)
    out = _nbc_json(rep)
    if args.timing:
        out["timing_seconds"] = time.perf_counter() - t0
    _emit(out)
    return 0 if rep.is_basis else 1


def _cmd_nbc_search(args) -> int:
    m, _ = _load_matroid(args.input)
    field = field_from_name(args.field)
    rep = search_orderings(
        m,
        field,
        policy=args.policy,
        workers=args.workers,
        shard=args.shard,
        checkpoint_path=args.resume,
        checkpoint_every=args.checkpoint_every,
    )
    out = {
        "policy": rep.policy,
        "field": rep.field,
        "shard": rep.shard,
        "total_orderings": rep.total_orderings,
        "domain": rep.domain,
        "checked": rep.checked,
        "tallies": dict(sorted(rep.tallies.items())),
        "basis_indices": list(rep.basis_indices),
        "first_basis": rep.first_basis,
        "completed": rep.completed,
    }
    _emit(out)
    return 0 if rep.tallies.get("basis", 0) else 1


def _parse_sizes(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.replace(" ", "").split(",") if t)
    except ValueError:
        raise MatroidlabError(f"sizes must be comma-separated integers, got {text!r}")


def _wrap(m: Matroid, ordering, name: str) -> dict:
    return {"matroid": m.to_json(), "ordering": list(ordering), "name": name}


def _cmd_gen(args) -> int:
    if args.family == "list":
        _emit({name: describe_named(name) for name in list_named()})
        return 0
    if args.family == "named":
        m = named_matroid(args.arg)
        std = _verify._any_standard(m)
        _emit(_wrap(m, std.labels, args.arg), args.out)
        return 0
    sizes = _parse_sizes(args.arg)
    build = theta_matroid if args.family == "theta" else phi_matroid
    m, std = build(sizes)
    name = f"{args.family}({','.join(map(str, sizes))})"
    _emit(_wrap(m, std.labels, name), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.criterion is not None:
        results = [
            _verify.run_criterion(
                args.criterion,
                r10_exhaustive=args.exhaustive_r10,
                workers=args.workers,
            )
        ]
    else:
        results = _verify.run_all(
            r10_exhaustive=args.exhaustive_r10, workers=args.workers
        )
    for r in results:
        print(r.line(), file=sys.stderr)
    out = [
        {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
        for r in results
    ]
    if args.timing:
        for row, r in zip(out, results):
            row["elapsed_seconds"] = round(r.elapsed, 3)
    _emit(out)
    return 0 if all(r.passed for r in results) else 1


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="matroidlab",
        description="exact broken-circuit-complex and quotient-basis computations",
    )
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("info", help="summarize a matroid")
    _add_input(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("hvector", help="face counts of the broken circuit complex")
    _add_input(p)
    _add_ordering(p)
    p.set_defaults(func=_cmd_hvector)

    p = sub.add_parser("lsop", help="linear system, quotient generators, candidates")
    _add_input(p)
    _add_field(p)
    _add_ordering(p)
    p.add_argument(
        "--standard-monomials", action="store_true",
        help="also list the staircase monomials of a reduced Groebner basis",
    )
    p.add_argument(
        "--order", default="grlex", choices=("grlex", "lex"),
        help="term order for --standard-monomials (default grlex)",
    )
    p.set_defaults(func=_cmd_lsop)

    p = sub.add_parser("nbc", help="quotient-basis decisions")
    nsub = p.add_subparsers(dest="nbc_command", required=True, metavar="ACTION")

    pc = nsub.add_parser("check", help="decide one ordering")
    _add_input(pc)
    _add_field(pc)
    _add_ordering(pc)
    pc.add_argument(
        "--method", default="macaulay", choices=METHODS,
        help="independence path (default macaulay)",
    )
    pc.add_argument("--timing", action="store_true", help="include wall-clock time")
    pc.set_defaults(func=_cmd_nbc_check)

    ps = nsub.add_parser("search", help="scan standard orderings")
    _add_input(ps)
    _add_field(ps)
    ps.add_argument(
        "--policy", default="exhaustive", metavar="POLICY",
        help="exhaustive (default), first-hit, or sample:COUNT:SEED",
    )
    ps.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: MATROIDLAB_WORKERS or 1)",
    )
    ps.add_argument(
        "--shard", default=None, metavar="I/M",
        help="process only the I-th of M contiguous index blocks",
    )
    ps.add_argument(
        "--resume", default=None, metavar="STATE.json",
        help="checkpoint file to resume from and write to",
    )
    ps.add_argument(
        "--checkpoint-every", type=int, default=5000, metavar="N",
        help="orderings between checkpoint writes (default 5000)",
    )
    ps.set_defaults(func=_cmd_nbc_search)

    p = sub.add_parser("gen", help="emit fixture matroids as JSON")
    p.add_argument(
        "family", choices=("theta", "phi", "named", "list"),
        help="theta SIZES | phi SIZES | named NAME | list",
    )
    p.add_argument(
        "arg", nargs="?", default=None,
        help="comma-separated sizes for theta/phi, fixture name for named",
    )
    p.add_argument("--out", default=None, metavar="PATH", help="write here instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run the built-in acceptance suite")
    p.add_argument("target", choices=("paper",), help="which suite to run")
    p.add_argument(
        "--criterion", type=int, default=None, metavar="N",
        help="run a single criterion instead of all nine",
    )
    p.add_argument(
        "--exhaustive-r10", action="store_true",
        help="also run the full 2,332,800-ordering scan (about 5 CPU-minutes)",
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for the R10 sample and exhaustive scan"
        " (default: MATROIDLAB_WORKERS or 1)",
    )
    p.add_argument("--timing", action="store_true", help="include elapsed seconds")
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and args.family != "list" and not args.arg:
        parser.error("gen theta/phi/named needs an argument")
    try:
        return args.func(args)
    except (MatroidlabError, OSError) as exc:
        print(f"matroidlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
