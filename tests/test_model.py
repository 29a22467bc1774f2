import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canondual import integer, model
from canondual.errors import CanonDualError, DimensionMismatch, DomainViolation, SchemaError
from canondual.integer import QipInstance
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


# Both loaders check a document's structure with model's one checker.

@pytest.mark.parametrize("doc", [
    0, None, True, 1.5, [], "0", "null", "true", "1.5", "[]", b"\xff", "{",
    "[" * 100_000 + "]" * 100_000,
], ids=["0", "None", "True", "1.5", "list", "text-0", "text-null", "text-true", "text-1.5",
        "text-list", "not-utf8", "truncated", "deep"])
@pytest.mark.parametrize("load", [model.load_problem, integer.load_qip])
def test_a_document_that_is_not_an_object_is_refused_at_the_root(load, doc):
    with pytest.raises(SchemaError) as exc:
        load(doc)
    assert exc.value.path == "$"


def test_an_integer_past_the_double_range_is_refused_at_its_path():
    big = 10 ** 400
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["f"] = [big]
    for text in (doc, json.dumps(doc)):
        with pytest.raises(SchemaError) as exc:
            model.load_problem(text)
        assert exc.value.path == "$.f[0]"
    with pytest.raises(SchemaError) as exc:
        integer.load_qip({"qip": {"Q": [[0, 1], [1, -big]], "f": [0, 0]}})
    assert exc.value.path == "$.qip.Q[1][1]"


NAMES = ("n", "variables", "f", "terms", "kind", "alpha", "beta", "factor", "qip", "Q",
         "continuous", "sign_integer") + tuple(k.value for k in TermKind)
numbers = (st.integers() | st.floats(width=64)
           | st.sampled_from([2 ** 1024, -(10 ** 400), 1e308, -1e308, math.inf, -math.inf]))
json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.sampled_from(NAMES) | numbers,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=2), children, max_size=5),
    max_leaves=20,
)
# any value, or a field of the documents' own shapes: a number list or a matrix
fields = (json_values | st.lists(numbers, max_size=3)
          | st.lists(st.lists(numbers, min_size=1, max_size=3), min_size=1, max_size=3))


def near_documents():
    """Objects over the documents' own fields, each value often of its own type."""
    term = st.fixed_dictionaries(
        {"kind": st.sampled_from([k.value for k in TermKind]) | fields, "alpha": fields,
         "factor": fields}, optional={"beta": fields})
    problem = st.fixed_dictionaries(
        {"n": st.integers(-1, 3) | fields,
         "variables": st.sampled_from(["continuous", "sign_integer"]) | fields,
         "f": fields, "terms": st.lists(term | fields, max_size=3) | fields})
    qip = st.fixed_dictionaries({"qip": st.fixed_dictionaries({"Q": fields, "f": fields})})
    return problem | qip


@settings(max_examples=400, deadline=None)
@given(doc=json_values | near_documents(), as_text=st.booleans())
def test_loaders_return_a_document_or_raise_the_package_error(doc, as_text):
    # the exponential term's negative-alpha warning is by design
    if as_text:
        doc = json.dumps(doc)
    for load, built in ((model.load_problem, Problem), (integer.load_qip, QipInstance)):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "exponential term with negative alpha",
                                    UserWarning)
            try:
                assert isinstance(load(doc), built)
            except CanonDualError:
                pass


finite = st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-1000, 1000)
nonzero = finite.filter(lambda v: v != 0)


@st.composite
def valid_problem_documents(draw):
    n = draw(st.integers(1, 3))
    row = st.lists(finite, min_size=n, max_size=n)
    terms = []
    for kind in draw(st.lists(st.sampled_from([k.value for k in TermKind]), min_size=1,
                              max_size=4)):
        term = {"kind": kind, "alpha": draw(nonzero),
                "factor": draw(st.lists(row, min_size=1, max_size=3))}
        if kind == "quartic" and draw(st.booleans()):
            term["beta"] = draw(finite)
        terms.append(term)
    return {"n": n, "variables": draw(st.sampled_from(["continuous", "sign_integer"])),
            "f": draw(row), "terms": terms}


@settings(max_examples=200, deadline=None)
@given(doc=valid_problem_documents())
def test_a_valid_document_loads_to_its_source(doc):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "exponential term with negative alpha", UserWarning)
        p = model.load_problem(json.dumps(doc))
    assert p.n == doc["n"] and p.variables.value == doc["variables"]
    assert p.f.tolist() == [float(v) for v in doc["f"]]
    assert [t.kind.value for t in p.terms] == [t["kind"] for t in doc["terms"]]
    assert [t.factor.tolist() for t in p.terms] == [
        [[float(v) for v in r] for r in t["factor"]] for t in doc["terms"]]
    assert [t.alpha for t in p.terms] == [float(t["alpha"]) for t in doc["terms"]]
    assert [t.beta for t in p.terms] == [float(t.get("beta", 0.0)) for t in doc["terms"]]
