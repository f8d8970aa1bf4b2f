"""The record contract: every immutable value class of the package, in one table.

Each row builds a fresh instance, pins its ``repr`` and names its fields, and
says whether the instance is hashable (a dict field makes it unhashable).
"""
import copy
import pickle
from fractions import Fraction

import pytest

from lepage import (
    Add,
    BaseVar,
    CalibrationReport,
    ChartContext,
    ChartError,
    CheckReport,
    DEFAULT_CONVENTION,
    Div,
    DivergenceGenerator,
    Dx,
    ExprError,
    ExteriorForm,
    Fn,
    FundamentalCoefficients,
    Lagrangian,
    LagrangianSpec,
    Mul,
    Pow,
    Rat,
    ScalarExpr,
    Var,
    X,
    Y,
    ZeroPolicy,
    ZeroVerdict,
)
from lepage.charts import Record
from lepage.parsing import _Token
from lepage.verification import CalibrationOutcome

X1 = "Var(ref=BaseVar(i=1))"
X2 = "Var(ref=BaseVar(i=2))"
CHART = "ChartContext(n=1, m=1, max_order=1)"

# (build, repr, hashable)
ROWS = {
    "Rat": (lambda: Rat(Fraction(1, 2)), "Rat(value=Fraction(1, 2))", True),
    "Var": (lambda: Var(BaseVar(1)), X1, True),
    "Add": (lambda: Add((X(1), X(2))), f"Add(terms=({X1}, {X2}))", True),
    "Mul": (lambda: Mul((X(1), X(2))), f"Mul(factors=({X1}, {X2}))", True),
    "Pow": (lambda: Pow(X(1), 2), f"Pow(base={X1}, exponent=2)", True),
    "Div": (lambda: Div(X(1), X(2)), f"Div(num={X1}, den={X2})", True),
    "Fn": (lambda: Fn("sin", X(1)), f"Fn(name='sin', arg={X1})", True),
    "ZeroPolicy": (lambda: ZeroPolicy(samples=5),
                   "ZeroPolicy(samples=5, abs_tol=1e-09, seed=0)", True),
    "ZeroVerdict": (lambda: ZeroVerdict("proven-zero"),
                    "ZeroVerdict(kind='proven-zero', witness=None, value=None)", True),
    "ChartContext": (lambda: ChartContext(2, 1, 2), "ChartContext(n=2, m=1, max_order=2)", True),
    "ExteriorForm": (lambda: ExteriorForm(ChartContext(1, 1, 1), 1, {(Dx(1),): X(1)}, 0),
                     f"ExteriorForm(ctx={CHART}, degree=1, terms={{(Dx(i=1),): {X1}}}, order=0)",
                     False),
    "_Token": (lambda: _Token("ident", "y1", 3), "_Token(kind='ident', text='y1', pos=3)", True),
    "LagrangianSpec": (lambda: LagrangianSpec(1, 1, 1, "y_1^2"),
                       "LagrangianSpec(n=1, m=1, order=1, source='y_1^2')", True),
    "Lagrangian": (lambda: Lagrangian(ChartContext(1, 1, 0), 1, Y(1, 1) ** 2),
                   f"Lagrangian(ctx={CHART}, r=1, "
                   "L=Pow(base=Var(ref=FiberVar(sigma=1, jj=(1,))), exponent=2))", True),
    "FundamentalCoefficients": (lambda: FundamentalCoefficients({}, {}, {}, {}),
                                "FundamentalCoefficients(P={}, Q1={}, Q2={}, R12={})", False),
    "CheckReport": (lambda: CheckReport(False, "closure", Y(1, 1), {BaseVar(1): 0.5}, "at dx1"),
                    "CheckReport(passed=False, label='closure', "
                    "witness=Var(ref=FiberVar(sigma=1, jj=(1,))), "
                    "witness_point={BaseVar(i=1): 0.5}, message='at dx1')", False),
    "DivergenceGenerator": (lambda: DivergenceGenerator(ChartContext(1, 1, 1), (X(1),), 1),
                            f"DivergenceGenerator(ctx={CHART}, g=({X1},), s=1, "
                            "convention=<Convention.SYMMETRIZED: 'sym'>)", True),
    "CalibrationOutcome": (lambda: CalibrationOutcome(DEFAULT_CONVENTION, DEFAULT_CONVENTION, True),
                           "CalibrationOutcome(theta_convention=<Convention.SYMMETRIZED: 'sym'>, "
                           "coeff_convention=<Convention.SYMMETRIZED: 'sym'>, passed=True, "
                           "failures=())", True),
    "CalibrationReport": (lambda: CalibrationReport((), (), False, None, None),
                          "CalibrationReport(outcomes=(), passing=(), unique=False, winner=None, "
                          "ch_witness=None)", True),
}


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_the_table_covers_every_record_class():
    assert {cls.__name__ for cls in _record_classes()} == set(ROWS) | {"ScalarExpr"}
    assert ScalarExpr._fields == ()


@pytest.mark.parametrize("name", ROWS)
class TestRecordContract:
    def test_repr_and_fields(self, name):
        build, text, _ = ROWS[name]
        record = build()
        assert type(record).__name__ == name
        # the repr is built from the field names, so it pins them in order
        assert repr(record) == text
        assert record._fields

    def test_assignment_and_deletion_raise(self, name):
        record = ROWS[name][0]()
        field = record._fields[0]
        before = getattr(record, field)
        for target in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, target, None)
            with pytest.raises(AttributeError):
                delattr(record, target)
        assert getattr(record, field) is before and not hasattr(record, "extra")

    def test_equal_fields_give_equal_records(self, name):
        build, _, hashable = ROWS[name]
        a, b = build(), build()
        assert a is not b and a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_keyword_construction(self, name):
        record = ROWS[name][0]()
        fields = {field: getattr(record, field) for field in record._fields}
        assert type(record)(**fields) == record
        assert type(record)(*fields.values()) == record

    def test_copies_are_equal(self, name):
        record = ROWS[name][0]()
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone is not record
            assert clone == record and repr(clone) == repr(record)


def test_equality_is_by_class():
    a = X(1)
    assert Add((a,)) != Mul((a,)) and Mul((a,)) != Add((a,))
    assert Add((a,)).__eq__(Mul((a,))) is NotImplemented
    assert Rat(Fraction(1)) != Fraction(1)
    assert ChartContext(1, 1, 1) != (1, 1, 1)
    assert ChartContext(1, 1, 1) != ChartContext(1, 1, 2)


def test_defaults():
    assert ZeroPolicy(samples=5) == ZeroPolicy(5, 1e-9, 0)
    assert ZeroPolicy() == ZeroPolicy(25, 1e-9, 0)
    assert ZeroVerdict("numeric-zero") == ZeroVerdict("numeric-zero", None, None)
    assert CheckReport(False) == CheckReport(False, "", None, None, "")
    assert CheckReport(True, message="m").message == "m"
    assert CalibrationOutcome(DEFAULT_CONVENTION, DEFAULT_CONVENTION, False).failures == ()
    gen = DivergenceGenerator(ChartContext(1, 1, 1), (X(1),), 1)
    assert gen.convention is DEFAULT_CONVENTION


def test_the_generic_constructor_checks_its_arguments():
    with pytest.raises(TypeError):
        CheckReport()
    with pytest.raises(TypeError):
        CheckReport(True, "", None, None, "", "extra")
    with pytest.raises(TypeError):
        CheckReport(True, passed=False)
    with pytest.raises(TypeError):
        CheckReport(True, nonsense=1)


def test_constructors_still_check_their_arguments():
    with pytest.raises(ChartError):
        ChartContext(10, 1, 1)
    with pytest.raises(ChartError):
        ChartContext(0, 1, 1)
    with pytest.raises(ExprError):
        ZeroPolicy(samples=0)
    with pytest.raises(ExprError):
        ZeroPolicy(abs_tol=float("nan"))
    with pytest.raises(ChartError):
        Lagrangian(ChartContext(1, 1, 1), 1, Y(1, 1, 1))
