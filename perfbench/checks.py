"""Output checks that share no code with the engine.

Each check takes the op's exit code and parsed JSON output and returns None
when the output is right, or a (error type, detail) pair naming the failure.
Only the standard library is used: the checks read plain tables out of the
JSON and recompute what they assert.
"""
from __future__ import annotations

import itertools
import json
import random
from typing import Optional

Failure = Optional[tuple[str, str]]


def exit_failure(rc: int, obj) -> Failure:
    """The failure named by a nonzero exit: the CLI's error type, or the failed checks."""
    if rc == 0:
        return None
    if isinstance(obj, dict) and "error" in obj:
        return obj["error"]["type"], obj["error"]["message"]
    if rc == 1 and isinstance(obj, dict) and "checks" in obj:
        bad = [c["name"] for c in obj["checks"] if not c["passed"]]
        return "CheckFailed", ", ".join(bad)
    return f"Exit{rc}", "no structured output"


def check_suite_report(op: dict, obj) -> Failure:
    """`check`: exit 0 and every listed check passed."""
    if not obj.get("passed") or not all(c["passed"] for c in obj["checks"]):
        bad = [c["name"] for c in obj["checks"] if not c["passed"]]
        return "CheckFailed", ", ".join(bad) or "report not passed"
    if not obj["checks"]:
        return "EmptyReport", "suite ran no checks"
    return None


# ---------------------------------------------------------------------------
# burnside
# ---------------------------------------------------------------------------

# Conjugacy classes of subgroups, from the standard tables (C2^4 has 67
# subgroups, all normal).  S4xC2 (order 48) is checked by the ring identities.
TEXTBOOK_CLASS_COUNTS = {"S4": 11, "A4": 5, "D8": 8, "C2^4": 67, "A5": 9}


def check_burnside(op: dict, obj) -> Failure:
    """Ring identities on the table and the textbook count of transitive actions."""
    sizes = [a["size"] for a in obj["atoms"]]
    table = obj["table"]
    n = len(sizes)
    want = TEXTBOOK_CLASS_COUNTS.get(op["group"])
    if want is not None and n != want:
        return "WrongAtomCount", f"{n} atoms, expected {want}"
    if len(table) != n or any(len(row) != n or any(len(v) != n for v in row) for row in table):
        return "BadShape", "table is not n x n x n"
    prods = [[{k: c for k, c in enumerate(table[i][j]) if c} for j in range(n)]
             for i in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        if table[i][j] != table[j][i]:
            return "NotCommutative", f"atoms {i}, {j}"
        if sum(c * sizes[k] for k, c in prods[i][j].items()) != sizes[i] * sizes[j]:
            return "WrongCardinality", f"|a{i} x a{j}| != {sizes[i]} * {sizes[j]}"
    units = [i for i in range(n) if sizes[i] == 1]
    if len(units) != 1:
        return "NoUnit", f"{len(units)} atoms of size 1"
    u = units[0]
    for j in range(n):
        if prods[u][j] != {j: 1}:
            return "NotUnital", f"unit times atom {j}"

    def times(vec: dict, l: int) -> dict:
        out: dict = {}
        for k, c in vec.items():
            for m, d in prods[k][l].items():
                out[m] = out.get(m, 0) + c * d
        return {m: c for m, c in out.items() if c}

    # With commutativity checked, associativity holds iff the three bracketings
    # (ij)l, (jl)i and (il)j agree on every multiset {i, j, l}.
    for i, j, l in itertools.combinations_with_replacement(range(n), 3):
        a = times(prods[i][j], l)
        if a != times(prods[j][l], i) or a != times(prods[i][l], j):
            return "NotAssociative", f"atoms {i}, {j}, {l}"
    return None


# ---------------------------------------------------------------------------
# compose --kind poly
# ---------------------------------------------------------------------------

def _eval_sum_of_products(r: list[int], n: list[int], t: list[int], n_b: int, n_y: int,
                          family: list[int]) -> list[int]:
    """Value at y: sum over b in t^-1(y) of the product over a in n^-1(b) of family[r(a)]."""
    prod_at_b = [1] * n_b
    for a, b in enumerate(n):
        prod_at_b[b] *= family[r[a]]
    out = [0] * n_y
    for b, y in enumerate(t):
        out[y] += prod_at_b[b]
    return out


def _eval_tables(poly: dict, family: list[int]) -> list[int]:
    return _eval_sum_of_products(poly["r"]["table"], poly["n"]["table"], poly["t"]["table"],
                                 poly["n"]["cod"], poly["t"]["cod"], family)


def check_compose_poly(op: dict, obj) -> Failure:
    """Forget the action: the composite must evaluate like q after p, pointwise.

    Forgetting the group action preserves restriction, dependent sum and
    dependent product, so the composite's underlying polynomial, evaluated
    by a sum-of-products over the natural numbers, must agree with
    evaluating p and then q on every input family.
    """
    p, q = op["p"], op["q"]
    comp = {leg: {"table": obj[leg]["table"], "dom": obj[leg]["dom"]["size"],
                  "cod": obj[leg]["cod"]["size"]} for leg in "rnt"}
    if comp["r"]["cod"] != p["r"]["cod"] or comp["t"]["cod"] != q["t"]["cod"]:
        return "WrongBoundary", "composite source or target size differs from the inputs"
    if (comp["r"]["dom"] != comp["n"]["dom"] or comp["n"]["cod"] != comp["t"]["dom"]
            or len(comp["r"]["table"]) != comp["r"]["dom"]):
        return "BadShape", "composite legs do not chain"
    n_x = p["r"]["cod"]
    rng = random.Random(op["key"])
    families = [[1] * n_x] + [[rng.randrange(4) for _ in range(n_x)] for _ in range(3)]
    for fam in families:
        want = _eval_tables(q, _eval_tables(p, fam))
        got = _eval_tables(comp, fam)
        if got != want:
            return "WrongComposite", f"family {fam}: composite {got[:4]} vs steps {want[:4]}"
    return None


# ---------------------------------------------------------------------------
# compose --kind span
# ---------------------------------------------------------------------------

def _leg_counts(left: list[int], right: list[int]) -> dict:
    counts: dict = {}
    for u, v in zip(left, right):
        counts[u, v] = counts.get((u, v), 0) + 1
    return counts


def check_compose_span(op: dict, obj) -> Failure:
    """The apex is the set of matching pairs, and its legs count them by endpoint."""
    p, q = op["p"], op["q"]
    pc = _leg_counts(p["left"]["table"], p["right"]["table"])
    qc = _leg_counts(q["left"]["table"], q["right"]["table"])
    want: dict = {}
    for (u, v), c in pc.items():
        for (v2, w), d in qc.items():
            if v == v2:
                want[u, w] = want.get((u, w), 0) + c * d
    pairs = sum(want.values())
    apex = obj["left"]["dom"]["size"]
    if apex != pairs:
        return "WrongApex", f"apex has {apex} points, {pairs} matching pairs"
    if obj["left"]["cod"]["size"] != p["left"]["cod"] or obj["right"]["cod"]["size"] != q["right"]["cod"]:
        return "WrongBoundary", "composite legs land in the wrong G-sets"
    if _leg_counts(obj["left"]["table"], obj["right"]["table"]) != want:
        return "WrongLegs", "composite leg counts differ from the matched pairs"
    return None


def check_validate(op: dict, obj) -> Failure:
    """`validate`: the workspace loaded and its groups are all there."""
    if obj.get("ok") is not True or obj["counts"]["groups"] < 1:
        return "NotValid", json.dumps(obj)[:160]
    return None


CHECKS = {"check": check_suite_report, "validate": check_validate, "burnside": check_burnside,
          "compose-poly": check_compose_poly, "compose-span": check_compose_span}


def check_output(op: dict, rc: int, obj) -> Failure:
    failure = exit_failure(rc, obj)
    if failure is not None:
        return failure
    if not isinstance(obj, dict):
        return "BadOutput", "output is not a JSON object"
    try:
        return CHECKS[op["kind"]](op, obj)
    except (KeyError, IndexError, TypeError) as exc:
        return "BadOutput", f"{type(exc).__name__}: {exc}"
