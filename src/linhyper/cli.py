"""Command-line front end producing machine-readable reports.

Exit codes: 0 on success, 2 on user or input errors (any library error but
an identity violation), 1 for a bug: an internal counting identity that
fails, or any other exception, reported as an internal error.  Randomized
commands embed the effective seed in their output; replaying with the same
seed and worker count reproduces the report byte for byte.

Only ``sample`` and ``girth`` import ``sampler`` and with it numpy, and the
process pool is imported only when ``--workers`` starts one, so the other
commands start without either.

JSON reports are written by ``_json_text``, whose text is byte for byte that
of ``json.dumps(obj, indent=2, allow_nan=False)``.  It writes the exact types
the commands emit itself and joins a list of ints, or of [int, int] pairs
(a sampled graph's edges), in one step instead of one encoder call per leaf,
so a ``sample`` report costs a fraction of the walk that drew it.  Any other
object, and every error, is left to ``json.dumps``.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import secrets
import sys
import traceback
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import isfinite

from .asymptotics import (
    estimate_bigraph,
    estimate_linear,
    estimate_simple,
    girth6_probability,
    switching_ratio,
)
from .bigraph_core import BipartiteGraph, classify
from .degree_model import (
    DegreeSequence,
    degree_sequence_from_json,
    new_degree_sequence,
)
from .errors import InputError, InvariantViolation, LinhyperError, NotASwitching
from .exact_oracle import (
    DEFAULT_MAX_SPACE,
    _first_switchable,
    canonical_battery,
    full_report,
)
from .switching_engine import (
    _forward_tuples,
    apply_forward,
    apply_reverse,
    derive_degree_sequence,
)


def _add_ds_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("-r", type=int, help="uniform edge size")
    sp.add_argument("-k", type=str, help="comma-separated degrees (overrides --input)")
    sp.add_argument(
        "--input",
        type=str,
        help='degree-sequence JSON file: {"r": <int>, "k": [<int>, ...]}',
    )


class NonNegativeInt(argparse.Action):
    """Int option that must be >= 0; a smaller value is an InputError naming
    the option, which ``main`` returns as exit 2 (not the parser's SystemExit)."""

    minimum, wanted = 0, "non-negative"

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.minimum:
            raise InputError(
                f"argument {option_string}: must be a {self.wanted} integer, got {value}"
            )
        setattr(namespace, self.dest, value)


class PositiveInt(NonNegativeInt):
    """Int option that must be >= 1, rejected like ``NonNegativeInt``."""

    minimum, wanted = 1, "positive"


def _inline_ds(args) -> DegreeSequence:
    """The degree sequence given by ``-r`` and ``-k``; every comma-separated
    field must be an integer, so an empty one is rejected, not dropped."""
    if args.r is None:
        raise InputError("-r is required when -k is given")
    try:
        k = [int(part) for part in args.k.split(",")]
    except ValueError:
        raise InputError(
            f"argument -k: expected comma-separated integers, got {args.k!r}"
        ) from None
    return new_degree_sequence(k, args.r)


def _read_json(path: str, parse):
    """``parse`` applied to the JSON document in the file at ``path``.  A
    document that does not parse, or does not fit the schema ``parse``
    reads, is an InputError; a file that cannot be read stays an OSError."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(
                f"invalid input file {path}: {type(exc).__name__}: {exc}"
            ) from exc


def _resolve_ds(args) -> DegreeSequence:
    if args.k is not None:
        return _inline_ds(args)
    if args.input:
        return _read_json(args.input, degree_sequence_from_json)
    raise InputError("provide a degree sequence with -r/-k or --input")


class _Unwritten(Exception):
    """Raised by ``_text`` at a value it does not write itself."""


def _text(obj, nl: str) -> str:
    """The text ``json.dumps(obj, indent=2)`` gives ``obj`` at the level
    whose newline and indent is ``nl``.  Only the exact types the commands
    emit are written: dict with str keys, list, str, int, finite float,
    True, False and None.  At anything else (a subclass, a tuple, a non-str
    key, NaN or ±inf) it raises _Unwritten.

    A list of ints, or of [int, int] pairs (a graph's edges), is joined
    with one indent string or template, not written leaf by leaf."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is float and isfinite(obj):
        return float.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is not list and kind is not dict:
        raise _Unwritten
    if not obj:
        return "[]" if kind is list else "{}"
    inner = nl + "  "
    sep = "," + inner
    if kind is dict:
        if set(map(type, obj)) != {str}:
            raise _Unwritten
        items = sep.join([f"{encode_basestring_ascii(key)}: {_text(value, inner)}"
                          for key, value in obj.items()])
        return f"{{{inner}{items}{nl}}}"
    kinds = set(map(type, obj))
    pairs = kinds == {list} and set(map(len, obj)) == {2}
    flat = tuple(chain.from_iterable(obj)) if pairs else ()
    if kinds == {int}:
        items = sep.join(map(int.__repr__, obj))
    elif pairs and set(map(type, flat)) == {int}:
        items = sep.join([f"[{inner}  %d,{inner}  %d{inner}]"] * len(obj)) % flat
    else:
        items = sep.join([_text(item, inner) for item in obj])
    return f"[{inner}{items}{nl}]"


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte: written
    by ``_text``, or else by ``json.dumps`` itself, which also raises its
    errors.  ``_text`` leaves to it what it does not write, an int too long
    to print (ValueError) and a container inside itself (RecursionError,
    where json.dumps raises ValueError)."""
    try:
        return _text(obj, "\n")
    except (_Unwritten, ValueError, RecursionError):
        return json.dumps(obj, indent=2, allow_nan=False)


def _emit_json(obj) -> None:
    print(_json_text(obj))


def _cell(v) -> str:
    """One CSV cell: a float as .12g (-0.0 as 0), a list space-joined,
    None empty."""
    if isinstance(v, float):
        return f"{v + 0.0:.12g}"
    if isinstance(v, list):
        return " ".join(str(x) for x in v)
    return "" if v is None else str(v)


def _emit_csv(header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    sys.stdout.write(buf.getvalue())


def cmd_exact(args) -> int:
    ds = _resolve_ds(args)
    if args.format == "csv":
        raise InputError("exact emits JSON only")
    report = full_report(ds, max_space=args.max_space, workers=args.workers)
    out = {"r": ds.r, "k": list(ds.k)}
    out.update(report.to_json_dict())
    _emit_json(out)
    return 0


def cmd_estimate(args) -> int:
    ds = _resolve_ds(args)
    estimates = {
        "linear": estimate_linear(ds),
        "simple": estimate_simple(ds),
        "bigraph": estimate_bigraph(ds),
        "girth6": girth6_probability(ds),
    }
    if args.format == "csv":
        rows = [
            [name, est.log_value, est.value, est.error_scale]
            for name, est in estimates.items()
        ]
        _emit_csv(["formula", "log_value", "value", "error_scale"], rows)
    else:
        _emit_json(
            {
                "r": ds.r,
                "k": list(ds.k),
                "estimates": {n: e.to_json_dict() for n, e in estimates.items()},
            }
        )
    return 0


def cmd_classify(args) -> int:
    if not args.input:
        raise InputError("classify requires --input with a bipartite-graph JSON file")
    graph = _read_json(args.input, BipartiteGraph.from_json_dict)
    if args.k is not None:
        ds = _inline_ds(args)
    else:
        ds = derive_degree_sequence(graph)
        if args.r is not None and args.r != ds.r:
            raise InputError(f"-r {args.r} disagrees with the graph's right degree {ds.r}")
    cls = classify(graph, ds)
    _emit_json(
        {
            "d": cls.d,
            "in_b0": cls.in_b0,
            "in_bplus": cls.in_bplus,
            "failed_properties": sorted(cls.failed_properties),
            "four_cycles": [
                {
                    "left": [j + 1 for j in c.left_pair],
                    "right": [i + 1 for i in c.right_pair],
                }
                for c in cls.four_cycles
            ],
        }
    )
    return 0


def cmd_sample(args) -> int:
    import numpy as np

    from .sampler import sample_no4cycle

    ds = _resolve_ds(args)
    seed = args.seed if args.seed is not None else secrets.randbits(32)
    rng = np.random.default_rng(seed)
    res = sample_no4cycle(ds, rng)
    _emit_json(
        {
            "graph": res.graph.to_json_dict(),
            "meta": {
                "seed": seed,
                "steps": res.steps,
                "rejections": res.pairing_rejections,
                "bplus_rejections": res.bplus_rejections,
                "restarts": res.restarts,
                "d_trajectory": list(res.d_trajectory),
            },
        }
    )
    return 0


def cmd_girth(args) -> int:
    from .sampler import monte_carlo_girth

    ds = _resolve_ds(args)
    seed = args.seed if args.seed is not None else secrets.randbits(32)
    est = monte_carlo_girth(ds, seed=seed, trials=args.trials, workers=args.workers)
    out = {
        "p_hat": est.p_hat,
        "ci_halfwidth": est.ci_halfwidth,
        "trials": est.trials,
        "predicted": est.predicted,
        "seed": seed,
        "workers": args.workers,
        "rejections": est.rejections,
    }
    if args.format == "csv":
        _emit_csv(
            ["p_hat", "ci_halfwidth", "trials", "predicted", "seed"],
            [[est.p_hat, est.ci_halfwidth, est.trials, est.predicted, seed]],
        )
    else:
        _emit_json(out)
    return 0


def _involution_spot_check(ds: DegreeSequence, max_space: int, limit: int = 10) -> int:
    """Round-trip the first applicable switch on up to ``limit`` graphs.

    The graphs are the first ``limit`` well-behaved labeled graphs with a
    4-cycle in ``enumerate_bigraphs``' visiting order, the lexicographic order
    of their columns' candidate indices.  They are taken without a labeled
    enumeration: a sweep rooted at each candidate in turn keeps the rooted
    multisets passing the battery with d >= 1 until they hold ``limit``
    graphs, the smallest orderings of which are wanted
    (``exact_oracle._first_switchable``).  One graph per multiset would
    check other graphs, and fewer: 5 rather than 8 on k=(3,2,2,2,2,1), r=3,
    the only r=3 battery instance where a switch applies.  Each graph is
    well-behaved with a 4-cycle, so it is not classified again: its 4-cycles
    come from ``BipartiteGraph.four_cycles``, the lister ``classify`` reads,
    and its candidates, those of ``forward_candidates``, are listed lazily
    (``_forward_tuples``) up to the first switching.  A candidate that is
    not a switching is skipped.  Returns the number of round trips; raises
    InvariantViolation if one fails to restore its graph.

    Nothing the sweep or the lister hands over is checked again.  The
    sweep's columns conform to ``ds``, so each is an r-subset of its n left
    vertices and the graph is built with ``BipartiteGraph._unchecked``; the
    tuples ``_forward_tuples`` yields are suitable by construction
    (``SwitchTuple``).  ``apply_forward`` and ``apply_reverse`` still check
    the range of each tuple and the presence of its edges.

    A switching trades two edges of a 4-cycle for edges w1-g1 and w2-g2 to
    two distinct columns on no 4-cycle.  The d 4-cycles of a well-behaved
    graph have pairwise disjoint right pairs (iii), so m - 2d of its columns
    are free, and a graph with d > (m - 2) / 2 yields no candidate.
    ``cmd_verify`` therefore calls this only where some well-behaved graph
    has 1 <= d <= (m - 2) / 2 (its ``cd_profile`` says so); graphs with no
    room among the ``limit`` are not skipped, they just add no round trip.
    """
    m = ds.edge_count()
    checks = 0
    for cols in _first_switchable(ds, limit, max_space):
        graph = BipartiteGraph._unchecked(ds.n, m, tuple(cols))
        for t in _forward_tuples(graph, graph.four_cycles()):
            try:
                switched = apply_forward(graph, t)
            except NotASwitching:
                continue
            back = apply_reverse(switched, t)
            if back != graph:
                raise InvariantViolation(
                    "switch round trip failed to restore the graph"
                )
            checks += 1
            break
    return checks


def cmd_verify(args) -> int:
    r = args.r if args.r is not None else 3
    battery = canonical_battery(rs=(r,), max_space=args.max_space)
    if not battery:
        raise InputError(
            f"verification battery is empty for r={r}, max_space={args.max_space}"
        )
    rows = []
    spot_checks = 0
    for ds in battery:
        report = full_report(ds, max_space=args.max_space, workers=args.workers)
        est = estimate_linear(ds)
        row = {
            "k": list(ds.k),
            "r": ds.r,
            "count_l": str(report.count_l),
            "estimate_linear": est.value,
            "ratio": (report.count_l / est.value) if est.value > 0 else None,
            "error_scale": est.error_scale,
        }
        if args.ratio_check:
            c0, c1 = report.cd_profile[0], report.cd_profile[1]
            row["c0"] = str(c0)
            row["c1"] = str(c1)
            row["ratio_c1_c0"] = (c1 / c0) if c0 > 0 else None
            row["switching_ratio_d1"] = switching_ratio(ds, 1)
        rows.append(row)
        # only a well-behaved graph with 1 <= d <= (m - 2) / 2 keeps the two
        # columns off its 4-cycles that a switching needs (m - 2d are free)
        m = ds.edge_count()
        if any(report.cd_profile[1 : (m - 2) // 2 + 1]):
            spot_checks += _involution_spot_check(ds, args.max_space)
    out = {
        "instances": len(rows),
        "identities": "ok",
        "involution_spot_checks": spot_checks,
        "rows": rows,
    }
    if args.format == "csv":
        _emit_csv(list(rows[0]), [list(row.values()) for row in rows])
    else:
        _emit_json(out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="linhyper",
        description=(
            "Enumerate, estimate, classify and sample uniform hypergraphs "
            "with given degrees via their bipartite incidence graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact counts by exhaustive search")
    _add_ds_args(p_exact)
    p_exact.add_argument(
        "--max-space", type=int, default=DEFAULT_MAX_SPACE, action=NonNegativeInt
    )
    p_exact.add_argument("--workers", type=int, default=1, action=PositiveInt)
    p_exact.add_argument("--format", choices=("json", "csv"), default="json")
    p_exact.set_defaults(func=cmd_exact)

    p_est = sub.add_parser("estimate", help="closed-form estimates")
    _add_ds_args(p_est)
    p_est.add_argument("--format", choices=("json", "csv"), default="json")
    p_est.set_defaults(func=cmd_estimate)

    p_cls = sub.add_parser("classify", help="classify a bipartite graph JSON")
    p_cls.add_argument("-r", type=int, help="uniform edge size of the -k degrees "
                       "(without -k: must equal the graph's right degree)")
    p_cls.add_argument("-k", type=str, help="comma-separated degrees to check the "
                       "graph against (default: the graph's own)")
    p_cls.add_argument("--input", type=str, help="bipartite-graph JSON file, 1-based: "
                       '{"n_left": <int>, "n_right": <int>, '
                       '"edges": [[<left>, <right>], ...]}')
    p_cls.set_defaults(func=cmd_classify)

    p_sample = sub.add_parser("sample", help="sample a 4-cycle-free graph")
    _add_ds_args(p_sample)
    p_sample.add_argument("--seed", type=int, default=None, action=NonNegativeInt)
    p_sample.set_defaults(func=cmd_sample)

    p_girth = sub.add_parser("girth", help="Monte Carlo girth-6 probability")
    _add_ds_args(p_girth)
    p_girth.add_argument("--seed", type=int, default=None, action=NonNegativeInt)
    p_girth.add_argument("--trials", type=int, default=1000, action=PositiveInt)
    p_girth.add_argument("--workers", type=int, default=1, action=PositiveInt)
    p_girth.add_argument("--format", choices=("json", "csv"), default="json")
    p_girth.set_defaults(func=cmd_girth)

    p_verify = sub.add_parser(
        "verify", help="run the small-instance identity battery"
    )
    p_verify.add_argument("-r", type=int, default=None)
    p_verify.add_argument(
        "--max-space", type=int, default=DEFAULT_MAX_SPACE, action=NonNegativeInt
    )
    p_verify.add_argument("--workers", type=int, default=1, action=PositiveInt)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--ratio-check", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvariantViolation as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 1
    except (LinhyperError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # not an input the library rejects, so a bug: keep its traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
