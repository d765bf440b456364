"""Golden outputs of the orbit-label, coset-building and construction cores.

The literals below pin the atom generators printed by the CLI, the three
canonical-form strings, the point tables of canonical slice and span
representatives, and the coset G-sets of S4.  They also pin the
constructions of `finact` (pullback, product and dependent-product
descriptors with their actions, the coproduct-pullback parts), the
enumeration order of the equivariant maps and of `helpers.isos`, and seeded
`random_gmap` draws, and the sha256 of the cross-checked Burnside tables
of A4, D8, A5, C2^4 and S4xC2 given by permutation generators, and the
sha256 of the `check` reports of every builtin group and suite and of one
`check --class` report.  A G-set is pinned by its size and the rows of the
group's generators, which determine a valid action.  Inputs are built
explicitly (no sampler) and relabelled, so that the canonical outputs do
not simply echo their input.
"""
import contextlib
import hashlib
import io
import json
import random

from spanpoly.cli import main
from spanpoly.finact import (
    GMap,
    SliceObject,
    canonical_form,
    codiagonal,
    coproduct,
    coset_gset,
    equivariant_maps,
    from_labels,
    pi,
    product,
    pullback,
    relabel_gset,
    slice_canonical_form,
    slice_homs,
)
from spanpoly.groups import subgroup_class_reps, symmetric_group
from spanpoly.mackey import canonical_slice
from spanpoly.sampling import random_gmap
from spanpoly.spans import Span, span_canonical_form, span_labels

from helpers import coset_sum, isos, pairs, sections, seeded_map


def _pin(x):
    return (x.size, tuple(x.action[g] for g in x.group.generators))


def _shuffled(rng, f):
    """f precomposed with a seeded relabelling of its domain."""
    perm = list(range(f.dom.size))
    rng.shuffle(perm)
    apex, _ = relabel_gset(f.dom, perm)
    inv = [perm.index(q) for q in range(apex.size)]
    return GMap(apex, f.cod, tuple(f.table[p] for p in inv))


def _samples(group, base, total, seed):
    """A base G-set, a slice over it and a span on it, on a shuffled apex."""
    rng = random.Random(seed)
    reps = subgroup_class_reps(group)
    x = coset_sum(group, reps, base)
    arrow = _shuffled(rng, seeded_map(rng, coset_sum(group, reps, total), x))
    return x, SliceObject(arrow), Span(arrow, seeded_map(rng, arrow.dom, x))


def _tables(maps):
    return [m.table for m in maps]


def _constructions(group, base, left, right, k, seed):
    """Constructions and map searches on a cospan f, g of sums of cosets."""
    rng = random.Random(seed)
    reps = subgroup_class_reps(group)
    x = coset_sum(group, reps, base)
    f = seeded_map(rng, coset_sum(group, reps, left), x)
    g = seeded_map(rng, coset_sum(group, reps, right), x)
    pb = pullback(f, g)
    pr = product(g.dom, coset_gset(group, reps[k]))
    pd = pi(g, SliceObject(codiagonal(g.dom)[1]))
    cop = coproduct(x, g.dom)
    into = seeded_map(rng, f.dom, cop.sum)
    part1, part2 = pullback(into, cop.inj1), pullback(into, cop.inj2)
    f2 = _shuffled(rng, f)
    draws = [random_gmap(rng, f.dom, g.dom).table for _ in range(4)]
    return {
        "pullback": (tuple(pairs(pb)), _pin(pb.gset)),
        "product": (tuple(pairs(pr)), _pin(pr.gset)),
        "pi": (tuple(sections(pd)), _pin(pd.con.gset)),
        "decompose": (_pin(part1.gset), part1.proj1.table, _pin(part2.gset), part2.proj1.table),
        "maps": (_tables(equivariant_maps(f.dom, g.dom)),
                 _tables(slice_homs(SliceObject(f), SliceObject(g)))),
        "isos": (_tables(isos(f.dom, f2.dom)), _tables(isos(f.dom, f2.dom, ((f, f2),)))),
        "draws": draws + [rng.getrandbits(32)],
    }


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

GOLDEN_FINACT = {'S3': {'decompose': ((6, ((2, 3, 0, 1, 5, 4), (3, 2, 5, 4, 0, 1))), (2, 3, 4, 5, 6, 7),
                      (3, ((1, 0, 2), (0, 1, 2))), (0, 1, 8)),
        'draws': [(6, 6, 5, 4, 5, 3, 4, 3, 6), (6, 6, 3, 3, 4, 4, 5, 5, 6),
                  (6, 6, 5, 4, 5, 3, 4, 3, 6), (6, 6, 5, 4, 5, 3, 4, 3, 6), 2883690328],
        'isos': ([(5, 8, 0, 1, 2, 4, 6, 3, 7), (5, 8, 1, 0, 4, 2, 3, 6, 7),
                  (5, 8, 2, 6, 0, 3, 1, 4, 7), (5, 8, 3, 4, 6, 1, 2, 0, 7),
                  (5, 8, 4, 3, 1, 6, 0, 2, 7), (5, 8, 6, 2, 3, 0, 4, 1, 7),
                  (8, 5, 0, 1, 2, 4, 6, 3, 7), (8, 5, 1, 0, 4, 2, 3, 6, 7),
                  (8, 5, 2, 6, 0, 3, 1, 4, 7), (8, 5, 3, 4, 6, 1, 2, 0, 7),
                  (8, 5, 4, 3, 1, 6, 0, 2, 7), (8, 5, 6, 2, 3, 0, 4, 1, 7)],
                 [(5, 8, 1, 0, 4, 2, 3, 6, 7), (5, 8, 6, 2, 3, 0, 4, 1, 7),
                  (8, 5, 1, 0, 4, 2, 3, 6, 7), (8, 5, 6, 2, 3, 0, 4, 1, 7)]),
        'maps': ([(6, 6, 0, 0, 1, 1, 2, 2, 6), (6, 6, 1, 2, 0, 2, 0, 1, 6),
                  (6, 6, 2, 1, 2, 0, 1, 0, 6), (6, 6, 3, 3, 4, 4, 5, 5, 6),
                  (6, 6, 4, 5, 3, 5, 3, 4, 6), (6, 6, 5, 4, 5, 3, 4, 3, 6),
                  (6, 6, 6, 6, 6, 6, 6, 6, 6)],
                 [(6, 6, 1, 2, 0, 2, 0, 1, 6)]),
        'pi': (((0, (0,)), (0, (7,)), (1, (1,)), (1, (8,)), (2, (2,)), (2, (9,)),
                (3, (3, 4, 5, 6)), (3, (3, 4, 5, 13)), (3, (3, 4, 12, 6)),
                (3, (3, 4, 12, 13)), (3, (3, 11, 5, 6)), (3, (3, 11, 5, 13)),
                (3, (3, 11, 12, 6)), (3, (3, 11, 12, 13)), (3, (10, 4, 5, 6)),
                (3, (10, 4, 5, 13)), (3, (10, 4, 12, 6)), (3, (10, 4, 12, 13)),
                (3, (10, 11, 5, 6)), (3, (10, 11, 5, 13)), (3, (10, 11, 12, 6)),
                (3, (10, 11, 12, 13))),
               (22,
                ((2, 3, 0, 1, 4, 5, 6, 7, 8, 9, 14, 15, 16, 17, 10, 11, 12, 13, 18, 19, 20,
                  21),
                 (2, 3, 4, 5, 0, 1, 6, 7, 14, 15, 8, 9, 16, 17, 10, 11, 18, 19, 12, 13, 20,
                  21)))),
        'product': (((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0),
                     (4, 1), (5, 0), (5, 1), (6, 0), (6, 1)),
                    (14,
                     ((3, 2, 1, 0, 5, 4, 9, 8, 7, 6, 11, 10, 13, 12),
                      (2, 3, 4, 5, 0, 1, 8, 9, 10, 11, 6, 7, 12, 13)))),
        'pullback': (((0, 3), (0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6),
                      (2, 1), (3, 2), (4, 0), (5, 2), (6, 0), (7, 1), (8, 3), (8, 4),
                      (8, 5), (8, 6)),
                     (18,
                      ((5, 4, 6, 7, 1, 0, 2, 3, 10, 11, 8, 9, 13, 12, 15, 14, 16, 17),
                       (1, 2, 0, 3, 5, 6, 4, 7, 11, 10, 13, 12, 8, 9, 15, 16, 14, 17))))},
 'S4': {'decompose': ((8, ((1, 0, 3, 2, 6, 7, 4, 5), (1, 0, 7, 6, 5, 4, 3, 2))),
                      (0, 1, 2, 3, 4, 5, 6, 7), (1, ((0,), (0,))), (8,)),
        'draws': [(0, 0, 2, 3, 1, 3, 1, 2, 0), (0, 0, 4, 4, 4, 4, 4, 4, 4),
                  (0, 0, 2, 3, 1, 3, 1, 2, 0), (0, 0, 2, 3, 1, 3, 1, 2, 4), 2404381470],
        'isos': ([(0, 1, 2, 7, 5, 3, 8, 6, 4), (0, 1, 3, 6, 7, 8, 2, 5, 4),
                  (0, 1, 5, 8, 2, 6, 7, 3, 4), (0, 1, 6, 3, 8, 7, 5, 2, 4),
                  (0, 1, 7, 2, 3, 5, 6, 8, 4), (0, 1, 8, 5, 6, 2, 3, 7, 4),
                  (1, 0, 2, 7, 5, 3, 8, 6, 4), (1, 0, 3, 6, 7, 8, 2, 5, 4),
                  (1, 0, 5, 8, 2, 6, 7, 3, 4), (1, 0, 6, 3, 8, 7, 5, 2, 4),
                  (1, 0, 7, 2, 3, 5, 6, 8, 4), (1, 0, 8, 5, 6, 2, 3, 7, 4)],
                 [(0, 1, 2, 7, 5, 3, 8, 6, 4), (0, 1, 3, 6, 7, 8, 2, 5, 4),
                  (0, 1, 5, 8, 2, 6, 7, 3, 4), (0, 1, 6, 3, 8, 7, 5, 2, 4),
                  (0, 1, 7, 2, 3, 5, 6, 8, 4), (0, 1, 8, 5, 6, 2, 3, 7, 4),
                  (1, 0, 2, 7, 5, 3, 8, 6, 4), (1, 0, 3, 6, 7, 8, 2, 5, 4),
                  (1, 0, 5, 8, 2, 6, 7, 3, 4), (1, 0, 6, 3, 8, 7, 5, 2, 4),
                  (1, 0, 7, 2, 3, 5, 6, 8, 4), (1, 0, 8, 5, 6, 2, 3, 7, 4)]),
        'maps': ([(0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 4),
                  (0, 0, 1, 1, 2, 2, 3, 3, 0), (0, 0, 1, 1, 2, 2, 3, 3, 4),
                  (0, 0, 2, 3, 1, 3, 1, 2, 0), (0, 0, 2, 3, 1, 3, 1, 2, 4),
                  (0, 0, 3, 2, 3, 1, 2, 1, 0), (0, 0, 3, 2, 3, 1, 2, 1, 4),
                  (0, 0, 4, 4, 4, 4, 4, 4, 0), (0, 0, 4, 4, 4, 4, 4, 4, 4),
                  (4, 4, 0, 0, 0, 0, 0, 0, 0), (4, 4, 0, 0, 0, 0, 0, 0, 4),
                  (4, 4, 1, 1, 2, 2, 3, 3, 0), (4, 4, 1, 1, 2, 2, 3, 3, 4),
                  (4, 4, 2, 3, 1, 3, 1, 2, 0), (4, 4, 2, 3, 1, 3, 1, 2, 4),
                  (4, 4, 3, 2, 3, 1, 2, 1, 0), (4, 4, 3, 2, 3, 1, 2, 1, 4),
                  (4, 4, 4, 4, 4, 4, 4, 4, 0), (4, 4, 4, 4, 4, 4, 4, 4, 4)],
                 [(0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 4),
                  (0, 0, 1, 1, 2, 2, 3, 3, 0), (0, 0, 1, 1, 2, 2, 3, 3, 4),
                  (0, 0, 2, 3, 1, 3, 1, 2, 0), (0, 0, 2, 3, 1, 3, 1, 2, 4),
                  (0, 0, 3, 2, 3, 1, 2, 1, 0), (0, 0, 3, 2, 3, 1, 2, 1, 4),
                  (0, 0, 4, 4, 4, 4, 4, 4, 0), (0, 0, 4, 4, 4, 4, 4, 4, 4),
                  (4, 4, 0, 0, 0, 0, 0, 0, 0), (4, 4, 0, 0, 0, 0, 0, 0, 4),
                  (4, 4, 1, 1, 2, 2, 3, 3, 0), (4, 4, 1, 1, 2, 2, 3, 3, 4),
                  (4, 4, 2, 3, 1, 3, 1, 2, 0), (4, 4, 2, 3, 1, 3, 1, 2, 4),
                  (4, 4, 3, 2, 3, 1, 2, 1, 0), (4, 4, 3, 2, 3, 1, 2, 1, 4),
                  (4, 4, 4, 4, 4, 4, 4, 4, 0), (4, 4, 4, 4, 4, 4, 4, 4, 4)]),
        'pi': (((0, ()), (1, ()), (2, ()), (3, (0, 1, 2, 3, 4)), (3, (0, 1, 2, 3, 9)),
                (3, (0, 1, 2, 8, 4)), (3, (0, 1, 2, 8, 9)), (3, (0, 1, 7, 3, 4)),
                (3, (0, 1, 7, 3, 9)), (3, (0, 1, 7, 8, 4)), (3, (0, 1, 7, 8, 9)),
                (3, (0, 6, 2, 3, 4)), (3, (0, 6, 2, 3, 9)), (3, (0, 6, 2, 8, 4)),
                (3, (0, 6, 2, 8, 9)), (3, (0, 6, 7, 3, 4)), (3, (0, 6, 7, 3, 9)),
                (3, (0, 6, 7, 8, 4)), (3, (0, 6, 7, 8, 9)), (3, (5, 1, 2, 3, 4)),
                (3, (5, 1, 2, 3, 9)), (3, (5, 1, 2, 8, 4)), (3, (5, 1, 2, 8, 9)),
                (3, (5, 1, 7, 3, 4)), (3, (5, 1, 7, 3, 9)), (3, (5, 1, 7, 8, 4)),
                (3, (5, 1, 7, 8, 9)), (3, (5, 6, 2, 3, 4)), (3, (5, 6, 2, 3, 9)),
                (3, (5, 6, 2, 8, 4)), (3, (5, 6, 2, 8, 9)), (3, (5, 6, 7, 3, 4)),
                (3, (5, 6, 7, 3, 9)), (3, (5, 6, 7, 8, 4)), (3, (5, 6, 7, 8, 9))),
               (35,
                ((0, 2, 1, 3, 4, 7, 8, 5, 6, 9, 10, 11, 12, 15, 16, 13, 14, 17, 18, 19, 20,
                  23, 24, 21, 22, 25, 26, 27, 28, 31, 32, 29, 30, 33, 34),
                 (2, 1, 0, 3, 4, 11, 12, 7, 8, 15, 16, 5, 6, 13, 14, 9, 10, 17, 18, 19, 20,
                  27, 28, 23, 24, 31, 32, 21, 22, 29, 30, 25, 26, 33, 34)))),
        'product': (((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0),
                     (4, 1)),
                    (10, ((1, 0, 3, 2, 7, 6, 5, 4, 9, 8), (1, 0, 7, 6, 5, 4, 3, 2, 9, 8)))),
        'pullback': (((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2),
                      (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0),
                      (3, 1), (3, 2), (3, 3), (3, 4), (4, 0), (4, 1), (4, 2), (4, 3),
                      (4, 4), (5, 0), (5, 1), (5, 2), (5, 3), (5, 4), (6, 0), (6, 1),
                      (6, 2), (6, 3), (6, 4), (7, 0), (7, 1), (7, 2), (7, 3), (7, 4),
                      (8, 0), (8, 1), (8, 2), (8, 3), (8, 4)),
                     (45,
                      ((5, 6, 8, 7, 9, 0, 1, 3, 2, 4, 15, 16, 18, 17, 19, 10, 11, 13, 12,
                        14, 30, 31, 33, 32, 34, 35, 36, 38, 37, 39, 20, 21, 23, 22, 24, 25,
                        26, 28, 27, 29, 40, 41, 43, 42, 44),
                       (5, 8, 7, 6, 9, 0, 3, 2, 1, 4, 35, 38, 37, 36, 39, 30, 33, 32, 31,
                        34, 25, 28, 27, 26, 29, 20, 23, 22, 21, 24, 15, 18, 17, 16, 19, 10,
                        13, 12, 11, 14, 40, 43, 42, 41, 44))))}}

# group -> (base summands, total summands, seed), as indices into subgroup_class_reps
CASES = {"S3": ((1, 1), (0, 1, 1), 1), "S4": ((8, 5), (2, 4, 5), 0)}

# group -> (base, left and right summands, product factor, seed), indexed likewise
FINACT_CASES = {"S3": ((1,), (0, 2), (1, 1), 2, 3), "S4": ((8,), (5, 9), (8, 10), 9, 0)}


def test_golden_burnside_generators():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["eval", "--functor", "burnside", "--group", "S3", "--span",
                   "S3.free-span", "--input", "[1, 0, 2, 1]", "--format", "json"])
    assert rc == 0
    assert json.loads(buf.getvalue()) == GOLDEN_GENERATORS


# group -> (permutation generators, sha256 of `burnside --cross-check --format json`)
GOLDEN_BURNSIDE = {
    "A4": ([[1, 2, 0, 3], [1, 0, 3, 2]],
           "fce54b40c8177bcf1993f20484c76f6bc95f72a60c4875cea13f62e1a20cbcba"),
    "D8": ([[1, 2, 3, 0], [2, 1, 0, 3]],
           "3efaa91954f40d874654ea9121f9484bda90c10a0e9bf27cef2f0664a65c95f2"),
    "A5": ([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]],
           "07268ff9ebceed6b0d46eac184245de97ec49b132022a49f5140002c97543708"),
    "C2^4": ([[1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7],
              [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 4, 5, 7, 6]],
             "48cd84c1a8ddfc7c2d10132ad3167b150743b93d38839e53a9ba28e8f9a60c38"),
    "S4xC2": ([[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]],
              "9b8c4a31d3d70bd3ab2b4b010d9118ee5fc3a37fc0b72340d11544779636d2ab"),
}


def test_golden_burnside_cross_check(tmp_path):
    (tmp_path / "groups.json").write_text(json.dumps(
        [{"kind": "group", "name": name, "generators": gens}
         for name, (gens, _) in GOLDEN_BURNSIDE.items()]))
    for name, (_, want) in GOLDEN_BURNSIDE.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["burnside", "--workspace", str(tmp_path), "--group", name,
                       "--cross-check", "--format", "json"])
        assert rc == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want, name


def test_golden_canonical_forms_and_representatives():
    for name, (base, total, seed) in CASES.items():
        x, a, p = _samples(symmetric_group(int(name[1])), base, total, seed)
        assert (canonical_form(x), slice_canonical_form(a),
                span_canonical_form(p)) == GOLDEN_FORMS[name]
        c = canonical_slice(a)
        assert (_pin(c.total), c.arrow.table) == GOLDEN_SLICES[name]
        _, (left, right) = from_labels(p.group, (p.src, p.tgt), span_labels(p))
        assert (_pin(left.dom), left.table, right.table,
                span_canonical_form(Span(left, right))) == GOLDEN_SPANS[name]


def test_golden_s4_coset_tables():
    s4 = symmetric_group(4)
    for h, want in zip(subgroup_class_reps(s4), GOLDEN_S4_COSETS, strict=True):
        x = coset_gset(s4, h)
        x.validate()
        assert _pin(x) == want


def test_golden_finact_constructions_and_searches():
    for name, case in FINACT_CASES.items():
        got = _constructions(symmetric_group(int(name[1])), *case)
        for key, want in GOLDEN_FINACT[name].items():
            assert got[key] == want, (name, key)


# "<group> <suite>" -> sha256 of `check --suite <suite> --group <group> --seed k
# --max-size 6 --format json` for k = 0, 1, concatenated.  S4 distlaw is left
# out: its anchored instance stops at the size guard (exit 2).
GOLDEN_SUITES = {
    "triv cb": "c77a27dbf400bd507c84275c98ec094110472e2df8f4925205ece44a7dae8793",
    "triv compat": "135da0a338ca1bf7b11c90a6e5202571a3ca2aa1a42db288b1f4efbce49fca59",
    "triv distlaw": "3fcbe546a4acd963385b6ecd1cda773e4846f0a89c1ac172a633481bbef9708c",
    "triv lextensive": "cc28956ceeced9680f57e625f98f36a9c40625d650534db045e7300dcbb601e1",
    "triv mackey": "ad1b28adfc8f23755dc1c3e65a6a2cf509687eca3793d33470b091f99c651edf",
    "triv objective": "6b9f182e7e21bda144cacbfeae5217b2853a0f9b8ae89eb9c1116831e1a31853",
    "triv plycorrespondence": "93e442b327001e00cff67cf565d990a7a7cebdcce6a691d7c993c743985d9ba3",
    "triv protocalib": "42e22a4dda1e8504e44b8c5e0fa9e0e584ad6c5ac8d9759ed6504c42552de5cb",
    "triv span-laws": "b4389701d4f1f350ac619978d26555d322f5e404cf0697c6f6028131f0ade94c",
    "triv tambara": "2dd6995d7b7c4f38a0e543de7c10353763f7534db7c46b2e067bf7c88bde8116",
    "C2 cb": "234c5889c3cfd24ba863c56de37906f6a60555ad932c5570b9ac2bba3e5611a6",
    "C2 compat": "9ea3a5479837afab66310b1af3aabb5012c1bd0a76f7be52aaa263b1873ba7f7",
    "C2 distlaw": "a5d8443e2912c8eb725bc8e0c12df203c5fbacfbcf3ae54734ead481c27af0da",
    "C2 lextensive": "275158822f820ad07f36fded9d3c3c7f793d25f353558ac274b2f598c1f7e366",
    "C2 mackey": "b56a0649c4c45fc7654f0f8d7fe506495e6db9a607e88fb6fd5c3149441f08d7",
    "C2 objective": "b7ed5b623d11043cd75fc405cd420f62d4568b7970b4b745ae6063f2b07d0e33",
    "C2 plycorrespondence": "ca1dd1b2ce1b454ad78bda78c3c722d456de36078b5d5994582a5f552e2bcc7d",
    "C2 protocalib": "cf68331c7f51b881075dcb4672054929dab64c3434f3ffa8bbd0fea54a395eaa",
    "C2 span-laws": "36350f8f97710fb120edae31366df45566598fb3973535984cf7a1ce0512cb6b",
    "C2 tambara": "c9b9ff1baa3e4bb4cae400ecc3779c0df3a9ace23761961754475a162c362e25",
    "C3 cb": "882f1b8784783a437130dc687a96d9517d8da4ef8ba7c532e6d714118625ab18",
    "C3 compat": "f2151726cabf8e210c93678c353c44f8821c343b0a4948058ae91121ccb54846",
    "C3 distlaw": "6e0a27e501f902e1891c55f74fb6d165d75c3272c4bd6c98679df562830f5c30",
    "C3 lextensive": "630b7ce2246cc63720dd037872fa8f9915bf807ec828575593bc1702229b436e",
    "C3 mackey": "197bd82c4a36e4ee9d13fea4af2740a89076c7746e4380cd9e03e373fcf224e5",
    "C3 objective": "7a80a1ed3639da0a755153d8990ce5634978d44803a92ad9445cd25fa0748f03",
    "C3 plycorrespondence": "1298ceeb7adeab07740a685760d7d4ce91951ba6046c0b9a1c87704e28390207",
    "C3 protocalib": "19ad8c2f0fd692914b489845c47ef9faf8ac5393b5bb0041126742d1cfb09123",
    "C3 span-laws": "d2690979ac6fd52b37884470f9ed81a2604df52c4eb859c0cb77aee4b25d1027",
    "C3 tambara": "4c0f4b3028861e39be519e5fd4f44e3a93da3c85806e4ad1af08e303a206982d",
    "C4 cb": "32e6d903767f2cc8bb1bf68d870479ebc80fdf635c634a91ff001e171e2648a7",
    "C4 compat": "ff921e50b1dcfc2b771d98594ccc6f92deb08a540aae5405c669d9ee32861d3c",
    "C4 distlaw": "f30ed6f1a4c1c3c7669be9d1feb5bd2acac33102de2af0f58f4ebde93824e577",
    "C4 lextensive": "cf7283197a355a1f796c6709a7af00eafb4b099fbd7703948d6aac675907925f",
    "C4 mackey": "e50182c49f99bb23627ab739af9a27f993fd81bdfb22bb8667130c676145dd87",
    "C4 objective": "349c677f70d12c6fed2f5e8c0a5ec543d14c7ec501fa811d2de233c47c317e78",
    "C4 plycorrespondence": "89caca20e0706b803f92f00fb74cc0cb0f70b227c51f7e5f8da5f527ce6630af",
    "C4 protocalib": "e97f33fb6267d140674ad7f44fce8c177531f46f855edf6a702599d976d5f38e",
    "C4 span-laws": "f6b721c867fd20edf9c8972289091ffc2016197c93d4cd8ded06c42f0e2d6bcd",
    "C4 tambara": "5549d6ca053a3e91adaa73c94ce1b9471b4efbabce5414c15aabc5f1e45becfb",
    "S3 cb": "de91f3042b389b9dbe4fdf89493f5a43dcf4c07f776355d0dc4e52a29db490f6",
    "S3 compat": "6d376cf43907b5e2e09863f29e8cf3b11af7717b6dfea4f9ec378fbffedf0c77",
    "S3 distlaw": "49d6fc05e8dca829c8a605e212608f92200c16ded705bb9bd28dd8095efde516",
    "S3 lextensive": "b5ee9666fd1dc7cdbeb8dd8c59cd83578a45d7664447a04a6fbc00d56583fe09",
    "S3 mackey": "e1dc5eccd6eb0d93010fd2e023a277cb265084c4d87445b0f28bf47e11df71cc",
    "S3 objective": "d4931710e8a883f79c401df1939479a463c0666a9d7766488af168a09242ee62",
    "S3 plycorrespondence": "be721e93cbf1e9b90dce3ae15b2a53c01573d1ae7d2d75303cf68f4167acc096",
    "S3 protocalib": "44146af589111217896b6f5d0e435ddde6ea1e10230f45c834f1ee037ead5651",
    "S3 span-laws": "f1feb033882d8ad8a55c83623efaa307ded9cc9d41cd49a72fbcb9d241ac0fdc",
    "S3 tambara": "a93231e7c640642b1705aff4bf5ce5a3b60dd8d4ddb8721e291e45090e9a65fd",
    "S4 cb": "10de3ec52f844175b87737f6b00c95693eedbfd4233bc8b677df4510608e28c5",
    "S4 compat": "1cada932f758c7f95f8f3d65da28ddbfc34b3e059a211541fe501d56c78f8cbd",
    "S4 lextensive": "422da2738b0673a5e49ed30d846c1b12f56b018803fd51814a220208c8077517",
    "S4 mackey": "5602da62e41e8ef66181799c95d4f855b8c4f41e4222068d1730c1dd4230c75a",
    "S4 objective": "326db8606f101170c692bae35833558e0b14f0aabe8c5d6cbe197e4eac05c5fc",
    "S4 plycorrespondence": "1f76efe4f492787c6372e51aef573798eae11489b038148ae895edb6e45bf10f",
    "S4 protocalib": "a1bd5272184242274102fb9d09742a61b41db4950a9e67f5bf6cc631f599f47f",
    "S4 span-laws": "ce8c8367443e6431f62ab951bda5b950402a197c1c2d53ba41c06d902f6519f0",
    "S4 tambara": "911fed6a548d4daf99bb4b6fa473cd2955a2a8fe50f55a5b14ba35074c824494",
}


def test_golden_suite_reports():
    for key, want in GOLDEN_SUITES.items():
        group, suite = key.split()
        digest = hashlib.sha256()
        for seed in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(["check", "--suite", suite, "--group", group, "--seed", str(seed),
                           "--max-size", "6", "--format", "json"])
            assert rc in (0, 1), (key, seed)
            digest.update(buf.getvalue().encode())
        assert digest.hexdigest() == want, key


# sha256 of `check --suite protocalib --class surjective --group C2 --seed 0 --format json`
GOLDEN_CLASS_FLAG = "57b86ad1e6ecb8eb0ce4cf80330d49d516ce6dc2116725c777a7a1c08e52d2e9"


def test_golden_class_flag_report():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["check", "--suite", "protocalib", "--class", "surjective", "--group", "C2",
                   "--seed", "0", "--format", "json"])
    assert rc == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN_CLASS_FLAG
