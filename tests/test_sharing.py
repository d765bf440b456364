"""Sharing equal constructions within one suite run (`finact.sharing`).

A suite run shares pullbacks, products, dependent products, `from_labels`,
`orbit_cosets` and `mackey.atoms` between equal calls.  The suites must
certify exactly what they certify with every construction built anew, no
scope may outlive its run, and a scope keeps no entry over `SHARE_POINTS`.
"""
import random

import pytest

from spanpoly import finact, suites
from spanpoly.errors import ResourceLimit
from spanpoly.finact import (
    GMap,
    GSet,
    from_labels,
    orbit_cosets,
    pi,
    pi_slice,
    product,
    pullback,
    regular_gset,
    sharing,
    slice_identity,
    unique_to_terminal,
)
from spanpoly.groups import BUILTIN_GROUPS, builtin_group, symmetric_group
from spanpoly.mackey import atoms
from spanpoly.suites import SUITES, run_suite


def _twin(x: GSet) -> GSet:
    """An equal G-set that shares no object with x."""
    return GSet(x.group, x.size, tuple(tuple(row) for row in x.rows))


def _twin_map(f: GMap) -> GMap:
    return GMap(_twin(f.dom), _twin(f.cod), tuple(f.table))


def _cospan():
    s3 = symmetric_group(3)
    u = unique_to_terminal(regular_gset(s3))
    return u, u


def _outcome(run, *args):
    """run(*args), or the type of the size-guard error it raises."""
    try:
        return run(*args)
    except ResourceLimit as exc:
        return type(exc)


def _bare(name, group, seed, size_bound):
    """The suite's report with every construction built anew, outside any scope."""
    return _outcome(SUITES[name], group, random.Random(seed), size_bound)


def _shared_run(name, group, seed, size_bound):
    return _outcome(run_suite, name, group, seed, size_bound)


@pytest.mark.parametrize("group", sorted(BUILTIN_GROUPS))
@pytest.mark.parametrize("name", sorted(SUITES))
def test_shared_suite_run_certifies_what_an_unshared_one_does(name, group):
    g = builtin_group(group)
    for seed in range(3):
        bare, shared = _bare(name, g, seed, 6), _shared_run(name, g, seed, 6)
        if isinstance(bare, type):
            assert shared is bare, (name, group, seed)
            continue
        assert not isinstance(shared, type), (name, group, seed)
        assert shared.title == bare.title and shared.checks == bare.checks, (name, group, seed)
        assert shared.notes[:-1] == bare.notes


def test_the_one_known_trip_is_raised_both_ways():
    """S4 distlaw stops at the size guard with and without sharing, so the
    comparison above also covers a run that raises."""
    s4 = builtin_group("S4")
    assert _bare("distlaw", s4, 0, 6) is _shared_run("distlaw", s4, 0, 6) is ResourceLimit


def test_no_scope_outside_a_suite_run():
    f, g = _cospan()
    assert finact._SCOPE.get() is None
    assert pullback(f, g) is not pullback(f, g)


def test_scope_ends_when_a_suite_returns_or_raises(monkeypatch):
    f, g = _cospan()
    seen = []

    def sharing_then_raise(group, rng, size_bound):
        seen.append(pullback(f, g) is pullback(_twin_map(f), _twin_map(g)))
        raise ResourceLimit("stop", "test", {}, 2, 1)

    run_suite("cb", builtin_group("C2"), 0, 6)
    assert finact._SCOPE.get() is None
    monkeypatch.setitem(suites.SUITES, "cb", sharing_then_raise)
    with pytest.raises(ResourceLimit):
        run_suite("cb", builtin_group("C2"), 0, 6)
    assert seen == [True]
    assert finact._SCOPE.get() is None
    assert pullback(f, g) is not pullback(f, g)


def test_equal_distinct_inputs_share_one_result():
    f, g = _cospan()
    x = f.dom
    a = slice_identity(x)
    with sharing():
        assert pullback(f, g) is pullback(_twin_map(f), _twin_map(g))
        assert product(x, x) is product(_twin(x), _twin(x))
        assert pi(f, a) is pi(_twin_map(f), slice_identity(_twin(x)))
        assert pi_slice(f, a) is pi(f, a).slice
        assert orbit_cosets(x) is orbit_cosets(_twin(x))
        assert atoms(x) is atoms(_twin(x))
        labels = finact.orbit_labels(x, (f,))
        assert from_labels(x.group, (f.cod,), labels) is \
            from_labels(x.group, [_twin(f.cod)], list(labels))


def test_unequal_inputs_are_not_shared():
    f, g = _cospan()
    x = regular_gset(symmetric_group(3))
    with sharing():
        assert pullback(f, g) is not pullback(finact.identity_gmap(f.cod), g)
        assert from_labels(x.group, (), ()) is not from_labels(x.group, (f.cod,), ())
        assert from_labels(x.group, (), ((frozenset(range(6)), ()),)) is not \
            from_labels(x.group, (), ((frozenset({0}), ()),))


def test_orbit_records_are_immutable():
    assert isinstance(orbit_cosets(regular_gset(symmetric_group(3))), tuple)


def test_an_entry_over_the_bound_is_not_kept(monkeypatch):
    f, g = _cospan()
    held = 6 + 6 + 1 + 36  # both legs' domains, the common codomain and the apex
    monkeypatch.setattr(finact, "SHARE_POINTS", held)
    with sharing():
        assert pullback(f, g) is pullback(f, g)
    monkeypatch.setattr(finact, "SHARE_POINTS", held - 1)
    with sharing():
        assert pullback(f, g) is not pullback(f, g)
        x = regular_gset(symmetric_group(3))
        assert orbit_cosets(x) is orbit_cosets(x)


def test_nested_scopes_restore_the_outer_one():
    f, g = _cospan()
    with sharing():
        outer = pullback(f, g)
        with sharing():
            inner = pullback(f, g)
            assert inner is not outer and pullback(f, g) is inner
        assert pullback(f, g) is outer
    assert finact._SCOPE.get() is None
