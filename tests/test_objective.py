"""The `objective` suite: it passes on every builtin group, and it is not vacuous."""
import pytest

from spanpoly import completion
from spanpoly.cli import main
from spanpoly.completion import SliceIndexed
from spanpoly.finact import SliceObject, compose_gmaps
from spanpoly.groups import BUILTIN_GROUPS, builtin_group
from spanpoly.report import Check, Report
from spanpoly.suites import run_suite


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


def test_objective_suite_records_a_failed_cocompleteness_gate(monkeypatch):
    def failing_probe(xcat, f, g, samples, mode="push"):
        return Report("CB-fiber", (Check("push-mate[0]", False, "fiber iso missing"),))

    monkeypatch.setattr(completion, "check_CB_fiber", failing_probe)
    rep = run_suite("objective", builtin_group("C2"), 0, 6)
    assert [c.name for c in rep.failures()] == ["cocompleteness-gate/extend-to-spans"]
    assert "cannot extend to spans" in rep.failures()[0].detail
