"""The operator-model suites fail when one of their two routes is wrong."""

import pytest

from lrcumulants import verify
from lrcumulants.fock import reverse_bimixture_template


def doubled_vector(vector):
    return lambda *args: {w: 2 * c for w, c in vector(*args).items()}


def doubled(fn):
    return lambda *args: 2 * fn(*args)


@pytest.mark.parametrize(
    "suite, attr, perturb",
    [
        ("lemma67", "lemma67_vector", doubled_vector),
        ("prop610", "moment_via_pchi", doubled),
        ("thm65", "bimixture_template", lambda _: reverse_bimixture_template),
    ],
)
def test_operator_suite_fails_when_one_route_is_perturbed(monkeypatch, suite, attr, perturb):
    assert verify.run_suite(suite, max_n=4, d=2).passed
    monkeypatch.setattr(verify, attr, perturb(getattr(verify, attr)))
    result = verify.run_suite(suite, max_n=4, d=2)
    assert result.passed is False
    assert result.instances > 0 and any(not c.ok for c in result.checks)
