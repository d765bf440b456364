"""The `objective` suite: it passes on every builtin group, and it is not vacuous."""
from collections import Counter

import pytest

from spanpoly import completion, finact, suites
from spanpoly.cli import main
from spanpoly.completion import SliceIndexed
from spanpoly.errors import ClassViolation, ProbeFailure, ResourceLimit
from spanpoly.finact import (
    MAX_POINTS,
    SliceObject,
    check_adjunction_triangles,
    compose_gmaps,
    pi_slice,
    pullback,
    slice_identity,
)
from spanpoly.groups import BUILTIN_GROUPS, builtin_group
from spanpoly.report import Check, Report
from spanpoly.spans import Span
from spanpoly.suites import run_suite

from helpers import ForgetfulReindexing


@pytest.mark.parametrize("group", sorted(BUILTIN_GROUPS))
def test_objective_suite_passes_on_every_builtin_group(group, capsys):
    for seed in range(6):
        argv = ["check", "--suite", "objective", "--group", group, "--seed", str(seed),
                "--max-size", "6"]
        assert main(argv) == 0, capsys.readouterr().out
        capsys.readouterr()


def _titles(checks):
    """The reports the checks came from, without the size of K."""
    return {c.name.split("/")[0].partition("[")[0] for c in checks}


def test_objective_suite_runs_each_of_its_checks():
    rep = run_suite("objective", builtin_group("S3"), 0, 6)
    assert _titles(rep.checks) == {
        "span-extension:slices", "cocompleteness-gate", "biproducts:slices",
        "biproducts:hom-into-K", "biproducts:terminal", "fiber-coproduct:slices",
        "hom-bijection", "hom-bijection-dual", "adjunction-triangles",
        "semiring:naturals", "semiring:booleans"}
    assert rep.passed


def _first_summand_only(self, cop, a, b):
    """A sum over U+V that keeps a and drops b."""
    return SliceObject(compose_gmaps(self.lift(cop.inj1), a.arrow))


@pytest.mark.parametrize("group", ["C2", "C3", "S3"])
def test_objective_suite_fails_when_a_sum_drops_its_second_summand(group, monkeypatch):
    monkeypatch.setattr(SliceIndexed, "sum_obj", _first_summand_only)
    rep = run_suite("objective", builtin_group(group), 0, 6)
    failing = _titles(rep.failures())
    assert not rep.passed
    assert failing <= {"biproducts:slices", "biproducts:hom-into-K",
                       "fiber-coproduct:slices"}, failing
    assert "biproducts:slices" in failing


def test_objective_counts_catch_a_search_that_drops_candidates(monkeypatch):
    """A search that drops the last admissible image of every orbit with two
    or more loses maps, and the closed-form counts see it on C2 seed 0.  This
    test fails where every count went through `orbit_candidates` on both
    sides (a second search, or a product of the candidate lists' lengths),
    as both sides lost the same maps."""
    real = finact.orbit_candidates

    def dropped(x, y, legs=()):
        return [(o, c[:-1] if len(c) >= 2 else c) for o, c in real(x, y, legs)]

    assert run_suite("objective", builtin_group("C2"), 0, 6).passed
    monkeypatch.setattr(finact, "orbit_candidates", dropped)
    rep = run_suite("objective", builtin_group("C2"), 0, 6)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("biproducts:slices/full-faithful[0,0]", "1 homs vs 2 pairs"),
        ("biproducts:slices/full-faithful[0,1]", "1 homs vs 2 pairs"),
        ("biproducts:slices/full-faithful[1,1]", "1 homs vs 4 pairs"),
        ("biproducts:hom-into-K[3]/full-faithful[1,1]", "2 homs vs 3 pairs"),
        ("hom-bijection/counts", "1 vs 4"),
        ("hom-bijection/counts", "1 vs 9"),
        ("hom-bijection-dual/counts", "4 vs 9")]


def test_objective_suite_records_a_failed_cocompleteness_gate(monkeypatch):
    def failing_probe(xcat, f, g, samples, mode="push"):
        return Report("CB-fiber", (Check("push-mate[0]", False, "fiber iso missing"),))

    monkeypatch.setattr(completion, "check_CB_fiber", failing_probe)
    rep = run_suite("objective", builtin_group("C2"), 0, 6)
    assert [c.name for c in rep.failures()] == ["cocompleteness-gate/extend-to-spans"]
    assert "cannot extend to spans" in rep.failures()[0].detail


def test_cocompleteness_gate_names_the_failed_probe(u2, f2):
    with pytest.raises(ProbeFailure) as caught:
        completion.extend_to_spans(ForgetfulReindexing(), Span(u2, u2), probe_squares=[(u2, u2)],
                                   probe_objects=[slice_identity(f2)])
    assert caught.value.probe == "CB-fiber-push:forgetful/push-mate[0]"
    assert str(caught.value) == ("cocompleteness probe CB-fiber-push:forgetful/push-mate[0] "
                                 "failed (fiber iso missing); cannot extend to spans")
    assert not isinstance(caught.value, ClassViolation)


def test_objective_suite_records_a_gate_failed_on_a_broken_category(monkeypatch):
    gate = completion.extend_to_spans

    def broken_gate(xcat, p, **probes):
        return gate(ForgetfulReindexing(), p, **probes)

    monkeypatch.setattr(completion, "extend_to_spans", broken_gate)
    # seed 1 draws a gate cospan whose f sends 6 points onto 2, so f_g is no bijection
    rep = run_suite("objective", builtin_group("C2"), 1, 6)
    assert [c.name for c in rep.failures()] == ["cocompleteness-gate/extend-to-spans"]
    assert rep.failures()[0].detail.startswith(
        "cocompleteness probe CB-fiber-push:forgetful/push-mate[0] failed")


def _pi_of_pi_sections(u, a):
    """The sections of Pi_u Delta_u Pi_u a: over x, c ** |u^-1(x)| for c the
    sections of a over u^-1(x)."""
    sections, fiber = Counter(pi_slice(u, a).arrow.table), Counter(u.table)
    return sum(sections[x] ** fiber[x] for x in u.cod.points())


def _full_size_draws(seed, monkeypatch):
    """The triangle samples (u, doms, cods) of the S3 `objective` suite at
    size bound 12, drawn at the full bound instead of half of it."""
    draw, draws = suites._adjunction_triangles, []

    def record(u, doms, cods):
        draws.append((u, doms, cods))
        return []

    monkeypatch.setattr(suites, "check_adjunction_triangles", record)
    monkeypatch.setattr(suites, "_adjunction_triangles",
                        lambda group, rng, size_bound: draw(group, rng, 12))
    run_suite("objective", builtin_group("S3"), seed, 12)
    return draws


def test_adjunction_triangles_pass_at_full_size_on_s3_seed_0(monkeypatch):
    """A domain slice here has a Pi of a Pi over MAX_POINTS; the check builds none."""
    draws = _full_size_draws(0, monkeypatch)
    assert max(_pi_of_pi_sections(u, a)
               for u, doms, _ in draws for a in doms) == 5_308_416 > MAX_POINTS
    for u, doms, cods in draws:
        assert all(ok for _, ok in check_adjunction_triangles(u, doms, cods))


def test_adjunction_triangles_at_full_size_on_s3_seed_2(monkeypatch):
    """Every triangle passes but delta-pi/left on the second map's second
    codomain slice b: Pi_u Delta_u b, the object that triangle is stated on,
    has 11 ** 8 sections, and the size guard stops it."""
    (u0, doms0, cods0), (u, doms, (b0, b)) = _full_size_draws(2, monkeypatch)
    assert all(ok for _, ok in check_adjunction_triangles(u0, doms0, cods0))
    assert all(ok for _, ok in check_adjunction_triangles(u, doms, [b0]))
    with pytest.raises(ResourceLimit) as err:
        check_adjunction_triangles(u, [], [b])
    assert (err.value.construction, err.value.projected) == ("dependent product", 11 ** 8)
    assert err.value.sizes == {"dom": u.dom.size, "cod": u.cod.size,
                               "slice": pullback(b.arrow, u).gset.size}
