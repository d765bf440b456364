"""Golden outputs of the orbit-label, coset-building and construction cores.

The literals below pin the atom generators printed by the CLI, the three
canonical-form strings, the point tables of canonical slice and span
representatives, and the coset G-sets of S4.  They also pin the
constructions of `finact` (pullback, product and dependent-product
descriptors with their actions, the coproduct-pullback parts), the
enumeration order of the equivariant map and iso searches, and seeded
`random_gmap` draws, and the sha256 of the cross-checked Burnside tables
of A4, D8, A5, C2^4 and S4xC2 given by permutation generators.  A G-set is
pinned by its size and the rows of the group's generators, which determine
a valid action.  Inputs are built explicitly (no sampler) and relabelled,
so that the canonical outputs do not simply echo their input.
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
    coproduct_pullback_decompose,
    coset_gset,
    equivariant_isos,
    equivariant_maps,
    pi,
    product,
    pullback,
    relabel_gset,
    slice_canonical_form,
    slice_homs,
    slice_isos,
)
from spanpoly.groups import subgroup_class_reps, symmetric_group
from spanpoly.mackey import canonical_slice
from spanpoly.sampling import random_gmap
from spanpoly.spans import Span, span_canonical_form, span_class

from helpers import coset_sum, seeded_map


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
    d = coproduct_pullback_decompose(seeded_map(rng, f.dom, cop.sum), cop)
    f2 = _shuffled(rng, f)
    draws = [random_gmap(rng, f.dom, g.dom).table for _ in range(4)]
    return {
        "pullback": (pb.elems, _pin(pb.gset)),
        "product": (pr.elems, _pin(pr.gset)),
        "pi": (pd.con.elems, _pin(pd.con.gset)),
        "decompose": (_pin(d.part1), d.incl1.table, _pin(d.part2), d.incl2.table),
        "maps": (_tables(equivariant_maps(f.dom, g.dom)),
                 _tables(slice_homs(SliceObject(f), SliceObject(g)))),
        "isos": (_tables(equivariant_isos(f.dom, f2.dom)),
                 _tables(slice_isos(SliceObject(f), SliceObject(f2)))),
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

GOLDEN_FINACT = {'S3': {'decompose': ((6, ((2, 3, 0, 1, 5, 4), (3, 2, 5, 4, 0, 1))),
                      (2, 3, 4, 5, 6, 7), (3, ((1, 0, 2), (0, 1, 2))),
                      (0, 1, 8)),
        'draws': [(6, 6, 5, 4, 5, 3, 4, 3, 6), (6, 6, 3, 3, 4, 4, 5, 5, 6),
                  (6, 6, 5, 4, 5, 3, 4, 3, 6), (6, 6, 5, 4, 5, 3, 4, 3, 6),
                  2883690328],
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
        'pi': (((0, (0,)), (1, (1,)), (2, (2,)), (0, (7,)), (1, (8,)), (2, (9,)),
                (3, (3, 4, 5, 6)), (3, (3, 4, 5, 13)), (3, (3, 4, 12, 6)),
                (3, (3, 11, 5, 6)), (3, (10, 4, 5, 6)), (3, (3, 4, 12, 13)),
                (3, (3, 11, 5, 13)), (3, (10, 4, 5, 13)), (3, (3, 11, 12, 6)),
                (3, (10, 4, 12, 6)), (3, (10, 11, 5, 6)), (3, (3, 11, 12, 13)),
                (3, (10, 4, 12, 13)), (3, (10, 11, 5, 13)), (3, (10, 11, 12, 6)),
                (3, (10, 11, 12, 13))),
               (22,
                ((1, 0, 2, 4, 3, 5, 6, 7, 8, 10, 9, 11, 13, 12, 15, 14, 16, 18,
                  17, 19, 20, 21),
                 (1, 2, 0, 4, 5, 3, 6, 7, 10, 8, 9, 13, 11, 12, 15, 16, 14, 18,
                  19, 17, 20, 21)))),
        'product': (((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0),
                     (3, 1), (4, 0), (4, 1), (5, 0), (5, 1), (6, 0), (6, 1)),
                    (14,
                     ((3, 2, 1, 0, 5, 4, 9, 8, 7, 6, 11, 10, 13, 12),
                      (2, 3, 4, 5, 0, 1, 8, 9, 10, 11, 6, 7, 12, 13)))),
        'pullback': (((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (0, 6),
                      (1, 6), (2, 1), (3, 2), (4, 0), (5, 2), (6, 0), (7, 1),
                      (8, 3), (8, 4), (8, 5), (8, 6)),
                     (18,
                      ((4, 3, 5, 1, 0, 2, 7, 6, 10, 11, 8, 9, 13, 12, 15, 14, 16,
                        17),
                       (1, 2, 0, 4, 5, 3, 6, 7, 11, 10, 13, 12, 8, 9, 15, 16, 14,
                        17))))},
 'S4': {'decompose': ((8, ((1, 0, 3, 2, 6, 7, 4, 5), (1, 0, 7, 6, 5, 4, 3, 2))),
                      (0, 1, 2, 3, 4, 5, 6, 7), (1, ((0,), (0,))), (8,)),
        'draws': [(0, 0, 2, 3, 1, 3, 1, 2, 0), (0, 0, 4, 4, 4, 4, 4, 4, 4),
                  (0, 0, 2, 3, 1, 3, 1, 2, 0), (0, 0, 2, 3, 1, 3, 1, 2, 4),
                  2404381470],
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
        'pi': (((0, ()), (1, ()), (2, ()), (3, (0, 1, 2, 3, 4)),
                (3, (0, 1, 2, 3, 9)), (3, (0, 1, 2, 8, 4)), (3, (0, 1, 7, 3, 4)),
                (3, (0, 6, 2, 3, 4)), (3, (0, 1, 2, 8, 9)), (3, (0, 1, 7, 3, 9)),
                (3, (0, 6, 2, 3, 9)), (3, (0, 1, 7, 8, 4)), (3, (0, 6, 2, 8, 4)),
                (3, (0, 6, 7, 3, 4)), (3, (0, 1, 7, 8, 9)), (3, (0, 6, 2, 8, 9)),
                (3, (0, 6, 7, 3, 9)), (3, (0, 6, 7, 8, 4)), (3, (0, 6, 7, 8, 9)),
                (3, (5, 1, 2, 3, 4)), (3, (5, 1, 2, 3, 9)), (3, (5, 1, 2, 8, 4)),
                (3, (5, 1, 7, 3, 4)), (3, (5, 6, 2, 3, 4)), (3, (5, 1, 2, 8, 9)),
                (3, (5, 1, 7, 3, 9)), (3, (5, 6, 2, 3, 9)), (3, (5, 1, 7, 8, 4)),
                (3, (5, 6, 2, 8, 4)), (3, (5, 6, 7, 3, 4)), (3, (5, 1, 7, 8, 9)),
                (3, (5, 6, 2, 8, 9)), (3, (5, 6, 7, 3, 9)), (3, (5, 6, 7, 8, 4)),
                (3, (5, 6, 7, 8, 9))),
               (35,
                ((0, 2, 1, 3, 4, 6, 5, 7, 9, 8, 10, 11, 13, 12, 14, 16, 15, 17,
                  18, 19, 20, 22, 21, 23, 25, 24, 26, 27, 29, 28, 30, 32, 31, 33,
                  34),
                 (2, 1, 0, 3, 4, 7, 6, 5, 10, 9, 8, 13, 12, 11, 16, 15, 14, 17,
                  18, 19, 20, 23, 22, 21, 26, 25, 24, 29, 28, 27, 32, 31, 30, 33,
                  34)))),
        'product': (((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0),
                     (3, 1), (4, 0), (4, 1)),
                    (10,
                     ((1, 0, 3, 2, 7, 6, 5, 4, 9, 8),
                      (1, 0, 7, 6, 5, 4, 3, 2, 9, 8)))),
        'pullback': (((0, 0), (1, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2),
                      (1, 3), (0, 4), (1, 4), (2, 0), (3, 0), (4, 0), (5, 0),
                      (6, 0), (7, 0), (2, 1), (3, 1), (4, 2), (5, 2), (6, 3),
                      (7, 3), (2, 2), (3, 3), (4, 1), (5, 3), (6, 1), (7, 2),
                      (2, 3), (3, 2), (4, 3), (5, 1), (6, 2), (7, 1), (2, 4),
                      (3, 4), (4, 4), (5, 4), (6, 4), (7, 4), (8, 0), (8, 1),
                      (8, 2), (8, 3), (8, 4)),
                     (45,
                      ((1, 0, 5, 7, 6, 2, 4, 3, 9, 8, 11, 10, 14, 15, 12, 13, 17,
                        16, 20, 21, 18, 19, 23, 22, 26, 27, 24, 25, 29, 28, 32,
                        33, 30, 31, 35, 34, 38, 39, 36, 37, 40, 41, 43, 42, 44),
                       (1, 0, 7, 6, 5, 4, 3, 2, 9, 8, 15, 14, 13, 12, 11, 10, 21,
                        20, 19, 18, 17, 16, 27, 26, 25, 24, 23, 22, 33, 32, 31,
                        30, 29, 28, 39, 38, 37, 36, 35, 34, 40, 43, 42, 41,
                        44))))}}

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
        cl = span_class(p)
        assert (_pin(cl.rep.apex), cl.rep.left.table, cl.rep.right.table,
                cl.form) == GOLDEN_SPANS[name]


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
