import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canondual import model
from canondual.errors import DimensionMismatch, DomainViolation, SchemaError
from canondual.model import CanonicalTerm, Problem, TermKind, Variables

from conftest import double_well


def term(kind, alpha=1.0, beta=0.0, factor=None):
    return CanonicalTerm(kind=kind, factor=np.array([[1.0]]) if factor is None else factor,
                         alpha=alpha, beta=beta)


# ---------------------------------------------------------------- primal


def test_eval_primal_double_well_at_zero():
    # 0.5*(0 - 2)^2 - 0 = 2
    p = double_well(0.5)
    assert model.eval_primal(p, [0.0]) == pytest.approx(2.0, abs=1e-12)


def test_eval_primal_well_bottom():
    p = double_well(0.0)
    assert model.eval_primal(p, [2.0]) == pytest.approx(0.0, abs=1e-12)


def test_eval_primal_exponential_unit():
    p = Problem(n=1, terms=[term(TermKind.EXPONENTIAL)], f=[0.0])
    assert model.eval_primal(p, [0.0]) == pytest.approx(1.0)


def test_sign_integer_agrees_with_continuous_eval():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((2, 3))
    terms = [CanonicalTerm(TermKind.QUARTIC, D, 1.2, -0.5)]
    f = rng.standard_normal(3)
    cont = Problem(n=3, terms=terms, f=f)
    sign = Problem(n=3, terms=terms, f=f, variables=Variables.SIGN_INTEGER)
    for _ in range(20):
        x = rng.choice([-1.0, 1.0], size=3)
        assert model.eval_primal(sign, x) == model.eval_primal(cont, x)


def test_positivity_when_well_bottom_is_zero():
    # quartic with beta <= 0 has infimum 0 over its measure domain
    rng = np.random.default_rng(1)
    t = CanonicalTerm(TermKind.QUARTIC, rng.standard_normal((3, 3)), 0.7, -1.0)
    p = Problem(n=3, terms=[t], f=np.zeros(3))
    X = rng.standard_normal((500, 3)) * 2.0
    assert np.min(t.xi_batch(X)) >= 0.0  # the measure domain
    assert np.min(model.eval_primal_batch(p, X)) >= -1e-12


# ------------------------------------------------------------ conjugates


def test_conj_value_quartic_consistent_with_pairing():
    # Phi(xi) = 0.5(xi - 2)^2; at xi = 3 the map gives sigma = 1 and the
    # pairing forces Phi*(1) = xi*sigma - Phi(xi) = 3 - 0.5 = 2.5.
    t = term(TermKind.QUARTIC, alpha=1.0, beta=-2.0)
    assert t.phi_grad(3.0) == 1.0
    assert term(TermKind.PLAIN_QUADRATIC, alpha=-1.1).phi_grad(0.7) == 1.0  # unit slope
    assert model.conj_value(t, 1.0) == pytest.approx(2.5, abs=1e-12)
    assert model.conj_grad(t, 1.0) == pytest.approx(3.0, abs=1e-12)


def test_conj_value_exponential_unit():
    t = term(TermKind.EXPONENTIAL)
    assert model.conj_value(t, 1.0) == pytest.approx(-1.0)
    assert model.conj_grad(t, 1.0) == pytest.approx(0.0)


def test_conj_value_xlogx_unit():
    t = term(TermKind.XLOGX)
    assert model.conj_value(t, 1.0) == pytest.approx(1.0)
    assert model.conj_grad(t, 1.0) == pytest.approx(1.0)


def test_conj_domain_violations():
    with pytest.raises(DomainViolation):
        model.conj_value(term(TermKind.QUARTIC, beta=1.0), 0.5)  # needs sigma >= 1
    with pytest.raises(DomainViolation):
        model.conj_value(term(TermKind.EXPONENTIAL), -0.1)
    with pytest.raises(DomainViolation):
        model.conj_value(term(TermKind.PLAIN_QUADRATIC), 1.0)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([TermKind.QUARTIC, TermKind.EXPONENTIAL, TermKind.XLOGX]),
    alpha=st.floats(0.1, 5.0),
    beta=st.floats(-3.0, 3.0),
    xi=st.floats(0.01, 6.0),
)
def test_fenchel_young_equality_on_duality_graph(kind, alpha, beta, xi):
    t = term(kind, alpha=alpha, beta=beta if kind is TermKind.QUARTIC else 0.0)
    sigma = t.phi_grad(xi)
    residual = abs(t.phi(xi) + model.conj_value(t, sigma) - xi * sigma)
    assert residual <= 1e-9 * (1.0 + abs(xi * sigma))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([TermKind.QUARTIC, TermKind.EXPONENTIAL, TermKind.XLOGX]),
    alpha=st.floats(0.1, 5.0),
    beta=st.floats(-3.0, 3.0),
    xi=st.floats(0.01, 6.0),
)
def test_biconjugation_recovers_measure(kind, alpha, beta, xi):
    t = term(kind, alpha=alpha, beta=beta if kind is TermKind.QUARTIC else 0.0)
    assert model.conj_grad(t, t.phi_grad(xi)) == pytest.approx(xi, rel=1e-9, abs=1e-9)


def test_eval_primal_overflow_raises_nonfinite():
    from canondual.errors import NonFinite

    p = Problem(n=1, terms=[term(TermKind.EXPONENTIAL, alpha=1.0)], f=[0.0])
    with pytest.raises(NonFinite):
        model.eval_primal(p, [50.0])  # exp(1250) overflows


def test_negative_alpha_exponential_warns():
    with pytest.warns(UserWarning):
        term(TermKind.EXPONENTIAL, alpha=-1.0)


def test_xlogx_zero_measure_evaluates_but_has_no_derivative():
    t = term(TermKind.XLOGX)
    assert t.phi(0.0) == 0.0
    with pytest.raises(DomainViolation):
        t.phi_grad(0.0)


# ------------------------------------------------------------------ JSON


MINIMAL_DOC = {
    "n": 1,
    "f": [0.5],
    "variables": "continuous",
    "terms": [{"kind": "quartic", "alpha": 1, "beta": -2, "factor": [[1]]}],
}


def test_load_problem_minimal_document():
    p = model.load_problem(json.dumps(MINIMAL_DOC))
    assert p.n == 1
    assert p.terms[0].kind is TermKind.QUARTIC
    assert p.terms[0].beta == -2.0
    assert model.eval_primal(p, [0.0]) == pytest.approx(2.0)


def test_load_problem_missing_field():
    doc = {k: v for k, v in MINIMAL_DOC.items() if k != "f"}
    with pytest.raises(SchemaError):
        model.load_problem(doc)


def test_load_problem_dimension_mismatch():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["n"] = 3
    doc["f"] = [0.0, 0.0, 0.0]
    doc["terms"][0]["factor"] = [[1.0, 2.0]]
    with pytest.raises(DimensionMismatch):
        model.load_problem(doc)


def test_term_factor_needs_a_row():
    # every dual coordinate owns at least one row of Problem.coordinate_rows
    with pytest.raises(DimensionMismatch):
        CanonicalTerm(TermKind.QUARTIC, np.zeros((0, 2)), 1.0, -1.0)


def test_load_problem_rejects_unknown_fields():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["extra"] = 1
    with pytest.raises(SchemaError) as exc:
        model.load_problem(doc)
    assert "extra" in str(exc.value)
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["terms"][0]["weird"] = 0
    with pytest.raises(SchemaError):
        model.load_problem(doc)


def test_load_problem_beta_only_for_quartic():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["terms"][0]["kind"] = "exponential"
    with pytest.raises(SchemaError):
        model.load_problem(doc)
