"""Golden outputs of the orbit-label and coset-building core.

The literals below pin the atom generators printed by the CLI, the three
canonical-form strings, the point tables of canonical slice and span
representatives, and the coset G-sets of S4.  A G-set is pinned by its size
and the rows of the group's generators, which determine a valid action.
Inputs are built explicitly (no sampler) and relabelled, so that the
canonical outputs do not simply echo their input.
"""
import contextlib
import io
import itertools
import json
import random

from spanpoly.cli import main
from spanpoly.finact import (
    GMap,
    SliceObject,
    canonical_form,
    coproduct,
    count_equivariant_maps,
    coset_gset,
    equivariant_maps,
    relabel_gset,
    slice_canonical_form,
    terminal_gset,
)
from spanpoly.groups import subgroup_class_reps, symmetric_group
from spanpoly.mackey import canonical_slice
from spanpoly.spans import Span, span_canonical_form, span_class


def _pin(x):
    return (x.size, tuple(x.action[g] for g in x.group.generators))


def _sum(group, reps, picks):
    """The sum of coset G-sets G/H, H = reps[i] for i in picks, plus a point."""
    x = terminal_gset(group)
    for i in picks:
        x = coproduct(coset_gset(group, reps[i]), x).sum
    return x


def _pick(rng, x, y):
    """A seeded choice among the equivariant maps x -> y."""
    k = rng.randrange(count_equivariant_maps(x, y))
    return next(itertools.islice(equivariant_maps(x, y), k, None))


def _samples(group, base, total, seed):
    """A base G-set, a slice over it and a span on it, on a shuffled apex."""
    rng = random.Random(seed)
    reps = subgroup_class_reps(group)
    x = _sum(group, reps, base)
    f = _pick(rng, _sum(group, reps, total), x)
    perm = list(range(f.dom.size))
    rng.shuffle(perm)
    apex, _ = relabel_gset(f.dom, perm)
    inv = [perm.index(q) for q in range(apex.size)]
    arrow = GMap(apex, x, tuple(f.table[p] for p in inv))
    return x, SliceObject(arrow), Span(arrow, _pick(rng, apex, x))


GOLDEN_GENERATORS = {'generators': ['((0,), 0)', '((0, 1), 0)', '((0, 1, 2, 3, 4, 5), 0)',
                                    '((0, 3, 4), 0)'],
                     'value': [10, 0, 0, 0]}

GOLDEN_FORMS = {'S3': ('S3[7]{stab[0, 1];stab[0, 1];stab[0, 1, 2, 3, 4, 5]}',
        'S3[13/7]{stab[0]@0;stab[0, 1]@0;stab[0, 1]@3;stab[0, 1, 2, 3, 4, 5]@6}',
        'S3[7<-13->7]{stab[0]@0,1;stab[0, 1]@0,0;stab[0, 1]@3,3;stab[0, 1, 2, 3, 4, '
        '5]@6,6}'),
 'S4': ('S4[10]{stab[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, '
        '20, 21, 22, 23];stab[0, 1, 6, 7, 16, 17, 22, 23];stab[0, 7, 16, 23]}',
        'S4[25/10]{stab[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, '
        '19, 20, 21, 22, 23]@9;stab[0, 1, 6, 7]@9;stab[0, 7]@7;stab[0, 7, 16, 23]@0}',
        'S4[10<-25->10]{stab[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, '
        '18, 19, 20, 21, 22, 23]@9,9;stab[0, 1, 6, 7]@9,6;stab[0, 7]@7,5;stab[0, 7, 16, '
        '23]@0,9}')}

GOLDEN_SLICES = {'S3': ((13,
         ((2, 3, 0, 1, 5, 4, 7, 6, 8, 10, 9, 11, 12),
          (3, 2, 5, 4, 0, 1, 7, 8, 6, 10, 11, 9, 12))),
        (0, 0, 1, 1, 2, 2, 0, 1, 2, 3, 4, 5, 6)),
 'S4': ((25,
         ((0, 1, 4, 5, 2, 3, 6, 8, 7, 13, 14, 15, 16, 9, 10, 11, 12, 18, 17, 20, 19, 23, 24,
           21, 22),
          (0, 4, 5, 1, 6, 2, 3, 14, 13, 16, 15, 8, 7, 18, 17, 10, 9, 12, 11, 24, 23, 22, 21,
           20, 19))),
        (9, 9, 9, 9, 9, 9, 9, 7, 8, 6, 8, 6, 7, 6, 7, 6, 8, 7, 8, 0, 1, 2, 3, 4, 5))}

GOLDEN_SPANS = {'S3': ((13,
         ((2, 3, 0, 1, 5, 4, 7, 6, 8, 10, 9, 11, 12),
          (3, 2, 5, 4, 0, 1, 7, 8, 6, 10, 11, 9, 12))),
        (0, 0, 1, 1, 2, 2, 0, 1, 2, 3, 4, 5, 6), (1, 2, 0, 2, 0, 1, 0, 1, 2, 3, 4, 5, 6),
        'S3[7<-13->7]{stab[0]@0,1;stab[0, 1]@0,0;stab[0, 1]@3,3;stab[0, 1, 2, 3, 4, '
        '5]@6,6}'),
 'S4': ((25,
         ((0, 1, 4, 5, 2, 3, 6, 8, 7, 13, 14, 15, 16, 9, 10, 11, 12, 18, 17, 20, 19, 23, 24,
           21, 22),
          (0, 4, 5, 1, 6, 2, 3, 14, 13, 16, 15, 8, 7, 18, 17, 10, 9, 12, 11, 24, 23, 22, 21,
           20, 19))),
        (9, 9, 9, 9, 9, 9, 9, 7, 8, 6, 8, 6, 7, 6, 7, 6, 8, 7, 8, 0, 1, 2, 3, 4, 5),
        (9, 6, 7, 8, 8, 7, 6, 5, 3, 4, 1, 2, 0, 2, 0, 4, 1, 5, 3, 9, 9, 9, 9, 9, 9),
        'S4[10<-25->10]{stab[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, '
        '18, 19, 20, 21, 22, 23]@9,9;stab[0, 1, 6, 7]@9,6;stab[0, 7]@7,5;stab[0, 7, 16, '
        '23]@0,9}')}

GOLDEN_S4_COSETS = [(24,
  ((6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 14, 15, 12, 13, 17, 16, 20, 21, 18, 19, 23, 22),
   (9, 8, 11, 10, 6, 7, 15, 14, 17, 16, 12, 13, 21, 20, 23, 22, 18, 19, 0, 1, 2, 3, 4, 5))),
 (12, ((3, 4, 5, 0, 1, 2, 7, 6, 8, 10, 9, 11), (4, 5, 3, 7, 8, 6, 10, 11, 9, 0, 1, 2))),
 (12, ((1, 0, 6, 7, 8, 9, 2, 3, 4, 5, 11, 10), (7, 6, 9, 8, 1, 0, 11, 10, 3, 2, 5, 4))),
 (8, ((2, 3, 0, 1, 5, 4, 7, 6), (2, 3, 4, 5, 6, 7, 0, 1))),
 (6, ((0, 3, 4, 1, 2, 5), (3, 4, 0, 5, 1, 2))),
 (6, ((1, 0, 4, 5, 2, 3), (5, 4, 3, 2, 1, 0))),
 (6, ((1, 0, 5, 4, 3, 2), (4, 5, 2, 3, 1, 0))), (4, ((1, 0, 2, 3), (1, 2, 3, 0))),
 (3, ((0, 2, 1), (2, 1, 0))), (2, ((1, 0), (1, 0))), (1, ((0,), (0,)))]

# group -> (base summands, total summands, seed), as indices into subgroup_class_reps
CASES = {"S3": ((1, 1), (0, 1, 1), 1), "S4": ((8, 5), (2, 4, 5), 0)}


def test_golden_burnside_generators():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["eval", "--functor", "burnside", "--group", "S3", "--span",
                   "S3.free-span", "--input", "[1, 0, 2, 1]", "--format", "json"])
    assert rc == 0
    assert json.loads(buf.getvalue()) == GOLDEN_GENERATORS


def test_golden_canonical_forms_and_representatives():
    for name, (base, total, seed) in CASES.items():
        x, a, p = _samples(symmetric_group(int(name[1])), base, total, seed)
        assert (canonical_form(x), slice_canonical_form(a),
                span_canonical_form(p)) == GOLDEN_FORMS[name]
        c = canonical_slice(a)
        assert (_pin(c.total), c.arrow.table) == GOLDEN_SLICES[name]
        cl = span_class(p)
        assert (_pin(cl.rep.apex), cl.rep.left.table, cl.rep.right.table,
                cl.form) == GOLDEN_SPANS[name]


def test_golden_s4_coset_tables():
    s4 = symmetric_group(4)
    for h, want in zip(subgroup_class_reps(s4), GOLDEN_S4_COSETS, strict=True):
        x = coset_gset(s4, h)
        x.validate()
        assert _pin(x) == want
