"""Command-line driver: compose, check, burnside, eval, validate.

All output is deterministic for fixed inputs and seeds; JSON output uses
sorted keys.  Exit status: 0 success / all checks passed, 1 a check suite
or a cross-check failed, 2 bad input.  Malformed inputs produce a
structured error object, never a bare traceback.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Callable, Optional

from . import __version__
from .errors import ResourceLimit, SpanPolyError
from .finact import terminal_gset
from .mackey import (
    BurnsideMackey,
    FixedPointMackey,
    burnside_table,
    burnside_table_bruteforce,
    eval_span,
)
from .poly import compose_poly
from .report import Report, merge_reports
from .semirings import builtin_semiring
from .spans import compose_spans, span_canonical_form
from .workspace import (
    Workspace,
    builtin_workspace,
    dump_json,
    load_dir,
    poly_to_obj,
    span_to_obj,
)

# the names of `suites.SUITES`, sorted: the parser offers them without
# importing the suites, which only `check` runs
SUITE_NAMES = ("cb", "compat", "distlaw", "lextensive", "mackey", "objective",
               "plycorrespondence", "protocalib", "span-laws", "tambara")


def _workspace(args) -> Workspace:
    if getattr(args, "workspace", None):
        return load_dir(args.workspace)
    return builtin_workspace()


def _emit(args, text: Callable[[], str], obj: Callable[[], dict]) -> None:
    """Write the rendering `--format` asks for; only that one is built."""
    if args.format == "json":
        sys.stdout.write(dump_json(obj()))
    else:
        sys.stdout.write(text() + "\n")


def _emit_report(args, rep: Report) -> int:
    _emit(args, rep.render_text, rep.to_dict)
    return 0 if rep.passed else 1


def cmd_validate(args) -> int:
    ws = _workspace(args)
    for x in ws.gsets.values():
        x.validate()
    for f in ws.gmaps.values():
        f.validate()
    counts = {k: len(getattr(ws, k)) for k in
              ("groups", "gsets", "gmaps", "spans", "polys", "classes")}
    _emit(args, lambda: "workspace ok: " +
          ", ".join(f"{v} {k}" for k, v in sorted(counts.items())),
          lambda: {"ok": True, "counts": counts})
    return 0


def cmd_compose(args) -> int:
    ws = _workspace(args)
    if args.kind == "span":
        p, q = ws.span(args.lhs), ws.span(args.rhs)
        out = compose_spans(p, q)
        obj = span_to_obj(out)
        obj["canonical_form"] = span_canonical_form(out)
        text = (f"composed span: {out.src.size} <- {out.apex.size} -> {out.tgt.size}\n"
                f"canonical form: {obj['canonical_form']}")
    else:
        p, q = ws.poly(args.lhs), ws.poly(args.rhs)
        out, transcript = compose_poly(p, q)
        obj = poly_to_obj(out)
        obj["transcript"] = transcript
        text = (f"composed polynomial: {out.src.size} <- {out.r.dom.size} "
                f"-> {out.n.cod.size} -> {out.tgt.size}\n"
                + "\n".join(f"  {s['rule']} @ {s['pos']}: {' '.join(s['after'])}"
                            for s in transcript))
    encoded = dump_json(obj) if args.out or args.format == "json" else ""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(encoded)
        except OSError as exc:
            raise SpanPolyError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    sys.stdout.write(encoded if args.format == "json" else text + "\n")
    return 0


def cmd_check(args) -> int:
    from .suites import run_suite
    if args.max_size < 0:
        raise SpanPolyError(f"--max-size must be >= 0, not {args.max_size}")
    ws = _workspace(args)
    group = ws.group(args.group)
    rclass = None
    if args.morphism_class:
        if args.suite not in ("protocalib", "all"):
            raise SpanPolyError("--class applies only to --suite protocalib or all, "
                                f"not {args.suite}")
        rclass = ws.morphism_class(args.morphism_class)
    if args.suite == "all":
        reps = [run_suite(name, group, args.seed, args.max_size, rclass)
                for name in SUITE_NAMES]
        return _emit_report(args, merge_reports("all-suites", reps))
    return _emit_report(args, run_suite(args.suite, group, args.seed,
                                        args.max_size, rclass))


def _emit_error(args, kind: str, message: str, **fields) -> None:
    """The error as text, or as a JSON object carrying fields beside type and message."""
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(dump_json({"error": {"type": kind, "message": message, **fields}}))
    else:
        sys.stdout.write(f"error [{kind}]: {message}\n")


def cmd_burnside(args) -> int:
    group = _workspace(args).group(args.group)
    table = burnside_table(group)
    if args.cross_check:
        other = burnside_table_bruteforce(group)
        names = table.atom_names
        bad = [(i, j) for i, row in enumerate(table.entries)
               for j, v in enumerate(row) if v != other.entries[i][j]]
        if bad:
            # a failed check on valid input: exit 1, not the bad-input 2
            i, j = bad[0]
            _emit_error(args, "CrossCheckFailed",
                        f"burnside table routes disagree at {names[i]} x {names[j]}: "
                        f"engine {list(table.entries[i][j])}, "
                        f"orbit oracle {list(other.entries[i][j])}")
            return 1
    _emit(args, table.render_text, table.to_dict)
    return 0


_NATURAL_INPUT = ("integers >= 0", lambda v: type(v) is int and v >= 0)
_BOOLEAN_INPUT = ("true/false values", lambda v: type(v) is bool)


def _vector(value, length: int, domain=_NATURAL_INPUT) -> tuple:
    """The --input value as a vector of length values in the functor's domain."""
    name, member = domain
    if not isinstance(value, list) or not all(map(member, value)):
        raise SpanPolyError(f"--input must be a JSON list of {name}, not {value!r}")
    if len(value) != length:
        raise SpanPolyError(f"--input has {len(value)} values, expected {length}")
    return tuple(value)


def _over(group, kind: str, name: str, value):
    """value, the span, polynomial or G-set called name, if it lives over group."""
    if value.group != group:
        raise SpanPolyError(f"{kind} {name!r} is over {value.group.name}, "
                            f"not over --group {group.name}")
    return value


def cmd_eval(args) -> int:
    ws = _workspace(args)
    group = ws.group(args.group)
    if args.functor != "tambara-burnside":
        if args.input is None:
            raise SpanPolyError("this functor needs --input with a JSON value vector")
        value = json.loads(args.input)
    if args.functor == "burnside":
        m = BurnsideMackey(group)
    elif args.functor == "fixed-point":
        coords = (_over(group, "G-set", args.module, ws.gset(args.module)) if args.module
                  else terminal_gset(group))
        m = FixedPointMackey(group, coords)
    elif args.functor in ("semiring:naturals", "semiring:booleans"):
        if not args.poly:
            raise SpanPolyError("semiring evaluation needs --poly")
        from .tambara import SemiringTambara, eval_poly
        sr = builtin_semiring(args.functor.split(":", 1)[1])
        t = SemiringTambara(sr)
        p = _over(group, "polynomial", args.poly, ws.poly(args.poly))
        domain = _BOOLEAN_INPUT if args.functor == "semiring:booleans" else _NATURAL_INPUT
        out = eval_poly(t, p, _vector(value, p.src.size, domain))
        _emit(args, lambda: f"value: {list(out)}", lambda: {"value": list(out)})
        return 0
    elif args.functor == "tambara-burnside":
        if not args.poly or not args.slice_input:
            raise SpanPolyError(
                "tambara-burnside evaluation needs --poly and --slice-input <gmap name>")
        from .tambara import BurnsideTambara, eval_poly
        t = BurnsideTambara(group)
        p = _over(group, "polynomial", args.poly, ws.poly(args.poly))
        probe = ws.gmap(args.slice_input)
        if probe.cod != p.src:
            raise SpanPolyError("slice input must map into the polynomial's source")
        from .finact import SliceObject as _Slice, slice_canonical_form
        from .mackey import canonical_slice
        out = eval_poly(t, p, canonical_slice(_Slice(probe)))
        form = slice_canonical_form(out)
        _emit(args, lambda: f"value class: {form}",
              lambda: {"value_class": form, "total_size": out.size})
        return 0
    if not args.span:
        raise SpanPolyError("mackey evaluation needs --span")
    p = _over(group, "span", args.span, ws.span(args.span))
    mat = eval_span(m, p)
    vec = mat(_vector(value, mat.src))
    gens = m.value_gens(p.tgt)
    _emit(args, lambda: f"value: {list(vec)} over generators {list(map(str, gens))}",
          lambda: {"value": list(vec), "generators": [str(g) for g in gens]})
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="spanpoly",
        description="spans, polynomials, and functor evaluation over finite group actions")
    ap.add_argument("--version", action="version", version=f"spanpoly {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workspace", help="directory of JSON definition files")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="load and validate a workspace")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("compose", help="compose two named spans or polynomials")
    common(p)
    p.add_argument("--kind", choices=("span", "poly"), required=True)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--out", help="write the composite (and transcript) to a JSON file")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("check", help="run a law-check suite")
    common(p)
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument("--group", default="C2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--class", dest="morphism_class", default=None,
                   help="extra morphism class to certify (builtin or workspace name);"
                        " protocalib and all only")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("burnside", help="multiplication table of the Burnside ring")
    common(p)
    p.add_argument("--group", default="C2")
    p.add_argument("--cross-check", action="store_true",
                   help="recompute by raw orbit counting and compare")
    p.set_defaults(fn=cmd_burnside)

    p = sub.add_parser("eval", help="evaluate a functor on a span or polynomial")
    common(p)
    p.add_argument("--functor", required=True,
                   choices=("burnside", "fixed-point", "semiring:naturals",
                            "semiring:booleans", "tambara-burnside"))
    p.add_argument("--group", default="C2")
    p.add_argument("--span", help="span name (mackey functors)")
    p.add_argument("--poly", help="polynomial name (semiring and tambara-burnside functors)")
    p.add_argument("--module", help="coordinate G-set name for fixed-point")
    p.add_argument("--input", help="JSON value vector")
    p.add_argument("--slice-input", dest="slice_input",
                   help="gmap name whose slice class is the probe (tambara-burnside)")
    p.set_defaults(fn=cmd_eval)
    return ap


_GUARD_FIELDS = ("construction", "sizes", "projected", "limit")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SpanPolyError, json.JSONDecodeError) as exc:
        fields = ({name: getattr(exc, name) for name in _GUARD_FIELDS}
                  if isinstance(exc, ResourceLimit) else {})
        _emit_error(args, type(exc).__name__, str(exc), **fields)
        return 2


if __name__ == "__main__":
    sys.exit(main())
