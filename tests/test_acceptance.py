"""Acceptance criteria for the whole package.

Each test covers one criterion at its stated tolerance and prints a single
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  The zero-testing policy is the shipped default: symbolic canonical
form first, then 25 seeded sample points with absolute tolerance 1e-9.
"""
import random

from lepage import (
    ChartContext,
    Convention,
    Lagrangian,
    MultiIndex,
    Omega,
    OrderReducibilityError,
    Y,
    ZeroPolicy,
    calibrate_convention,
    camassa_holm,
    caratheodory_first,
    caratheodory_second,
    caratheodory_second_blocks,
    closure_check,
    combination_conditions,
    const,
    contact_component,
    dirichlet,
    el_expansion_crosscheck,
    equals_zero,
    euler_lagrange_form,
    exterior_derivative,
    first_order_corpus,
    form_is_zero,
    fundamental_first_order,
    fundamental_second_order_n2,
    is_trivial,
    nontrivial_order_reducible_corpus,
    null_divergence_m2,
    order_reducible,
    principal_lepage,
    second_order_corpus,
    total_derivative,
    trivial_conditions_second_order,
    trivial_order_reducible_corpus,
)
from lepage.expr import is_zero_expr
from lepage.forms import make_form, Dx
from lepage.verification import _contract, random_polynomial
from section_oracle import random_section_oracle

POLICY = ZeroPolicy()  # 25 seeded samples, abs_tol 1e-9


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{name}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_lepage_equivalent_contract():
    first = first_order_corpus()
    second = second_order_corpus()
    assert len(first) >= 8 and len(second) >= 8
    assert any(lam.ctx.m == 2 for lam in first + second)
    checked = 0
    for lam in first:
        for rho in (principal_lepage(lam), caratheodory_first(lam, POLICY), fundamental_first_order(lam)):
            report = _contract(rho, lam, POLICY)
            assert report.passed, report.describe()
            checked += 1
    for lam in second:
        forms = [principal_lepage(lam), caratheodory_second(lam, policy=POLICY)]
        if order_reducible(lam, policy=POLICY).passed:
            z, _ = fundamental_second_order_n2(lam, policy=POLICY)
            forms.append(z)
        for rho in forms:
            report = _contract(rho, lam, POLICY)
            assert report.passed, report.describe()
            checked += 1
    _report("criterion 1: Lepage-equivalent contract", True, f"{checked} forms checked")


def test_criterion_2_closure_equivalence():
    trivial = trivial_order_reducible_corpus()
    assert len(trivial) >= 6
    for lam in trivial:
        assert is_trivial(lam, POLICY).passed
        z, _ = fundamental_second_order_n2(lam, policy=POLICY)
        report = closure_check(z, POLICY)
        assert report.passed, report.describe()
    nontrivial = nontrivial_order_reducible_corpus()
    assert len(nontrivial) >= 3
    for lam in nontrivial:
        z, _ = fundamental_second_order_n2(lam, policy=POLICY)
        report = closure_check(z, POLICY)
        assert not report.passed
        # the failure is witnessed by the Euler-Lagrange form: p1(dZ) = E != 0
        contract = _contract(z, lam, POLICY)
        assert contract.passed, contract.describe()
        assert not form_is_zero(euler_lagrange_form(lam), POLICY)
    _report(
        "criterion 2: closure iff trivial (order-reducible, second order)",
        True,
        f"{len(trivial)} trivial closed, {len(nontrivial)} nontrivial witnessed",
    )


def test_criterion_3_camassa_holm_counterexample():
    ch = camassa_holm()
    report = order_reducible(ch, policy=POLICY)
    assert not report.passed
    assert report.label == "order-reducibility[5]"
    # witness is a nonzero constant multiple of 1/y_1 (the multiple is
    # convention-dependent; 1/2 under the shipped symmetrized convention)
    assert is_zero_expr(report.witness - const(1, 2) / Y(1, 1))
    refused = False
    try:
        fundamental_second_order_n2(ch, policy=POLICY)
    except OrderReducibilityError as err:
        refused = True
        assert err.report.label == "order-reducibility[5]"
    assert refused
    calibration = calibrate_convention(policy=POLICY)
    assert calibration.ch_witness is not None and "y1_1" in calibration.ch_witness
    _report(
        "criterion 3: quadratic counterexample refused",
        True,
        f"witness {calibration.ch_witness}",
    )


def test_criterion_4_first_order_fundamental_form():
    null = null_divergence_m2()
    z = fundamental_first_order(null)
    cross = z.coefficient((Omega(1, MultiIndex()), Omega(2, MultiIndex())))
    assert cross == const(1)
    two_contact = contact_component(z, 2)
    assert len(two_contact.terms) == 1
    assert form_is_zero(exterior_derivative(z), POLICY)
    m1_count = 0
    for lam in first_order_corpus():
        zl = fundamental_first_order(lam)
        assert zl.max_coeff_order() <= 1
        if lam.ctx.m == 1:
            assert zl.terms == principal_lepage(lam).terms
            m1_count += 1
    assert m1_count >= 5
    _report(
        "criterion 4: first-order fundamental form",
        True,
        f"null 2-contact term = w1^w2; {m1_count} m=1 cases equal the principal form",
    )


def test_criterion_5_condition_family_consistency():
    corpus = second_order_corpus()
    assert len(corpus) >= 10
    trivially = 0
    reduced = 0
    for lam in corpus:
        direct = is_trivial(lam, POLICY).passed
        conditions = trivial_conditions_second_order(lam, policy=POLICY).passed
        assert direct == conditions
        trivially += direct
        if order_reducible(lam, policy=POLICY).passed:
            combo = combination_conditions(lam, policy=POLICY).passed
            assert combo == direct
            reduced += 1
        assert el_expansion_crosscheck(lam, policy=POLICY).passed
    assert 0 < trivially < len(corpus)
    _report(
        "criterion 5: condition-family consistency",
        True,
        f"{len(corpus)} members, {reduced} order-reducible",
    )


def test_criterion_6_caratheodory_decomposition():
    members = [
        camassa_holm(),
        Lagrangian(ChartContext(2, 1, 2), 2, Y(1) * Y(1, 1, 2)),
        dirichlet(r=2),
        Lagrangian(ChartContext(2, 1, 2), 2, const(1) + Y(1, 1) * Y(1, 2)),
    ]
    assert len(members) >= 3
    for lam in members:
        assert not equals_zero(lam.L, POLICY).is_zero
        product = caratheodory_second(lam, policy=POLICY)
        blocks = caratheodory_second_blocks(lam, policy=POLICY)
        assert form_is_zero(product - blocks, POLICY)
    _report("criterion 6: Caratheodory decomposition (n=2)", True, f"{len(members)} members")


def test_criterion_7_kernel_calculus():
    ctx = ChartContext(2, 1, 2)
    rng = random.Random(1)
    pool = list(ctx.coordinates())
    # d o d = 0 on random forms of degree 0..2
    keysets = {
        0: [()],
        1: [(Dx(1),), (Omega(1, MultiIndex()),)],
        2: [(Dx(1), Dx(2)), (Dx(2), Omega(1, MultiIndex((1,))))],
    }
    for degree, keys in keysets.items():
        for _ in range(3):
            entries = [(k, random_polynomial(rng, pool, terms=3, degree=2)) for k in keys]
            form = make_form(ctx, degree, entries, 2)
            assert form_is_zero(exterior_derivative(exterior_derivative(form)), POLICY)
    # commutativity and Leibniz for the formal derivative
    corpus = [random_polynomial(rng, pool, terms=3, degree=2) for _ in range(5)]
    for f in corpus:
        for i, j in ((1, 2), (2, 1)):
            a = total_derivative(total_derivative(f, i, ctx), j, ctx.lifted())
            b = total_derivative(total_derivative(f, j, ctx), i, ctx.lifted())
            assert is_zero_expr(a - b)
    for f, g in zip(corpus, corpus[1:]):
        for i in (1, 2):
            gap = (
                total_derivative(f * g, i, ctx)
                - total_derivative(f, i, ctx) * g
                - f * total_derivative(g, i, ctx)
            )
            assert is_zero_expr(gap)
    # random-section oracle: 10 sections x 10 points, tolerance 1e-5
    targets = [
        (Y(1, 1), ChartContext(2, 1, 1)),
        (Y(1, 1, 2) ** 2 / Y(1, 1), ChartContext(2, 1, 2)),
        (random_polynomial(rng, pool, terms=3, degree=2), ctx),
        (const(7), ChartContext(2, 1, 0)),
    ]
    for f, fctx in targets:
        report = random_section_oracle(f, fctx, trials=10, points=10, tol=1e-5)
        assert report.passed, report.describe()
    _report("criterion 7: kernel calculus properties", True, "dd=0, [d_i,d_j]=0, Leibniz, oracle")


def test_criterion_8_calibration_determinism():
    first = calibrate_convention(policy=POLICY)
    second = calibrate_convention(policy=POLICY)
    assert first.render() == second.render()
    assert first.unique, "calibration must single out one combination (else document ambiguity)"
    assert first.winner == (Convention.SYMMETRIZED, Convention.SYMMETRIZED)
    _report(
        "criterion 8: calibration determinism",
        True,
        f"winner theta={first.winner[0].value}, coeff={first.winner[1].value}",
    )
