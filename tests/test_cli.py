"""Command-line surface: subcommands, exit codes, output determinism."""
import json
import os
import signal
import subprocess
import sys

import pytest

import lepage
from lepage import (
    Add,
    ChartContext,
    Lagrangian,
    Y,
    equals_zero,
    euler_lagrange_expressions,
    expr_to_text,
    parse_expression,
)
from lepage.cli import run_command
from lepage.expr import PROVEN_ZERO
from lepage.parsing import _MAX_NESTING

CH = "1/2*(y_1*y_2^2 + y_12^2/y_1)"
DIRICHLET = "1/2*(y_1^2 + y_2^2)"


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEl:
    def test_dirichlet(self, capsys):
        code, out, _ = run(
            capsys, "el", "--n", "2", "--m", "1", "--order", "1", "--lagrangian", DIRICHLET
        )
        assert code == 0
        assert out.strip() == "E_1 = -y_22 - y_11"

    def test_quotient_lagrangian_stays_over_the_third_power(self, capsys):
        # a partial raises each factor it differentiates by one: dL/dy_1 sits
        # over (1 + y_1^2)^2, so E sits over (1 + y_1^2)^3
        code, out, _ = run(capsys, "el", "--order", "1", "--lagrangian", "1/(1+y_1^2)")
        assert code == 0
        new = "(2*y_11 - 6*y_1^2*y_11)/(y_1^6 + 3*y_1^4 + 3*y_1^2 + 1)"
        assert out.strip() == f"E_1 = {new}"
        # the rendering over (1 + y_1^2)^4 that the D^2 quotient rule gave
        old = "(2*y_11 - 6*y_1^4*y_11 - 4*y_1^2*y_11)/(y_1^8 + 4*y_1^6 + 6*y_1^4 + 4*y_1^2 + 1)"
        ctx = ChartContext(2, 1, 2)
        gap = parse_expression(old, ctx) - parse_expression(new, ctx)
        assert equals_zero(gap).kind == PROVEN_ZERO

    def test_spellings_of_a_power_give_one_rendering(self, capsys):
        # 1/B^3 and B^-3 both divide by the factor B three times
        outs = []
        for spelling in ("1/(1+y_1^2)^3", "(1+y_1^2)^-3", "1/((1+y_1^2)*(1+y_1^2)^2)"):
            code, out, _ = run(capsys, "el", "--order", "1", "--lagrangian", spelling)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
        assert out.strip().endswith("/(y_1^10 + 5*y_1^8 + 10*y_1^6 + 10*y_1^4 + 5*y_1^2 + 1)")

    def test_a_long_sum(self, capsys):
        # the parser reads the 600 terms as one flat sum
        source = " + ".join(f"{k}*y_1^{k}" for k in range(1, 601))
        code, out, _ = run(capsys, "el", "--order", "1", "--lagrangian", source)
        assert code == 0
        flat = Add(tuple(k * Y(1, 1) ** k for k in range(1, 601)))
        (want,) = euler_lagrange_expressions(Lagrangian(ChartContext(2, 1, 1), 1, flat))
        assert out == f"E_1 = {expr_to_text(want, 1)}\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "el", "--order", "1", "--lagrangian", "y*y_1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "lepage.el/1"
        assert doc["expressions"] == ["0"]


class TestChecks:
    def test_order_failure_names_condition_five(self, capsys):
        code, out, _ = run(capsys, "check", "order", "--order", "2", "--lagrangian", CH)
        assert code == 1
        assert "order-reducibility[5]" in out
        assert "y_1^(-1)" in out

    def test_trivial_pass(self, capsys):
        code, out, _ = run(
            capsys, "check", "trivial", "--order", "2", "--lagrangian", "y_11*y_22 - y_12^2"
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_trivial_fails_on_a_tiny_coefficient(self, capsys):
        code, out, _ = run(
            capsys, "check", "trivial", "--order", "1", "--lagrangian", "0.000000000001*y_1^2"
        )
        assert code == 1
        assert out.startswith("FAIL euler-lagrange")

    def test_lepage_check_on_theta(self, capsys):
        code, out, _ = run(capsys, "check", "lepage", "--order", "2", "--lagrangian", CH)
        assert code == 0

    def test_closed_check_fundamental(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "closed",
            "--order", "2",
            "--lagrangian", "y_11*y_22 - y_12^2",
            "--form", "fundamental",
        )
        assert code == 0

    def test_equivalent(self, capsys):
        code, _, _ = run(
            capsys, "check", "equivalent", "--order", "1", "--lagrangian", DIRICHLET,
            "--form", "caratheodory",
        )
        assert code == 0

    def test_equivalent_second_order_caratheodory(self, capsys):
        code, _, _ = run(
            capsys, "check", "equivalent", "--order", "2", "--lagrangian", CH,
            "--form", "caratheodory",
        )
        assert code == 0


class TestForms:
    def test_fundamental_m2_json(self, capsys):
        code, out, _ = run(
            capsys,
            "fundamental",
            "--n", "2", "--m", "2", "--order", "1",
            "--lagrangian", "y1_1*y2_2 - y1_2*y2_1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        cross = [t for t in doc["terms"] if t["basis"] == ["w1", "w2"]]
        assert len(cross) == 1 and cross[0]["coeff"] == "1"

    def test_fundamental_refusal_exit_code(self, capsys):
        code, _, err = run(capsys, "fundamental", "--order", "2", "--lagrangian", CH)
        assert code == 1
        assert "order-reducibility[5]" in err

    def test_theta_latex(self, capsys):
        code, out, _ = run(
            capsys, "theta", "--order", "1", "--lagrangian", DIRICHLET, "--format", "latex"
        )
        assert code == 0
        assert "\\omega" in out

    def test_d_and_hor_and_contact(self, capsys):
        code, out, _ = run(capsys, "hor", "--order", "1", "--lagrangian", DIRICHLET,
                           "--form", "theta")
        assert code == 0
        assert "dx1 ∧ dx2" in out
        code, out, _ = run(capsys, "d", "--order", "1", "--lagrangian", "y*y_1")
        assert code == 0
        code, out, _ = run(capsys, "contact", "1", "--order", "1", "--lagrangian", DIRICHLET,
                           "--form", "theta")
        assert code == 0
        assert "w1" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "lagrangian.txt"
        path.write_text(DIRICHLET + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "el", "--order", "1", "--file", str(path))
        assert code == 0
        assert "E_1" in out

    def test_d_of_closed_fundamental_is_empty(self, capsys):
        code, out, _ = run(
            capsys,
            "d",
            "--n", "2", "--m", "2", "--order", "1",
            "--lagrangian", "y1_1*y2_2 - y1_2*y2_1",
            "--form", "fundamental",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["terms"] == []


class TestEval:
    def test_value(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--order", "2",
            "--lagrangian", CH,
            "--point", "y_1=1,y_2=2,y_12=3",
        )
        assert code == 0
        assert abs(float(out.strip()) - 6.5) < 1e-12

    def test_pole_is_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--order", "2", "--lagrangian", CH, "--point", "y_1=0,y_2=1,y_12=1"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, spelled", [
        (("--lagrangian", "1/y_1", "--point", "y_1=0"), "pole: zero base with negative exponent: y_1^(-1)"),
        (("--m", "2", "--lagrangian", "1/y1_2", "--point", "y1_2=0"),
         "pole: zero base with negative exponent: y1_2^(-1)"),
        (("--lagrangian", "ln(y_1)", "--point", "y_1=-1"), "ln of a non-positive argument: ln(y_1)"),
        (("--lagrangian", "exp(y_1)", "--point", "y_1=1000"), "overflow: exp(y_1)"),
        (("--lagrangian", "y_1^1000", "--point", "y_1=1e300"), "overflow: y_1^1000"),
    ], ids=["pole", "pole-m2", "ln", "overflow-exp", "overflow-power"])
    def test_domain_error_spells_the_subexpression(self, capsys, argv, spelled):
        # the failing subexpression in the input grammar, with the fiber count of --m
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {spelled}\n"


class TestCalibrate:
    def test_unique_and_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "calibrate")
        code2, out2, _ = run(capsys, "calibrate")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "theta=sym, coeff=sym" in out1

    def test_auto_convention(self, capsys):
        code, out, _ = run(
            capsys, "check", "order", "--order", "2",
            "--lagrangian", "y_11*y_22 - y_12^2", "--convention", "auto",
        )
        assert code == 0
        assert "unique passing combination" in out

    @pytest.mark.parametrize("argv", [
        ("el",),
        ("eval", "--point", "y_1=1,y_2=2,y_11=3,y_12=4,y_22=5"),
        ("check", "trivial"),
    ])
    def test_auto_convention_calibrates_only_where_one_is_used(self, capsys, argv):
        common = ("--order", "2", "--lagrangian", "y_11*y_22 - y_12^2")
        plain = run(capsys, *argv, *common)
        auto = run(capsys, *argv, *common, "--convention", "auto")
        assert auto == plain


_NESTED = {
    "parentheses": lambda d: "(" * d + "y_1" + ")" * d,
    "calls": lambda d: "sin(" * d + "y_1" + ")" * d,
    "products": lambda d: "y_1*(1+" * d + "y_1" + ")" * d,
    "unary-signs": lambda d: "0 -" + "-" * d + "y_1",
}


class TestNestingLimit:
    """Parentheses, function calls, unary signs and ^ links nest at most
    _MAX_NESTING deep together; deeper input is a parse error, not a
    RecursionError."""

    @pytest.mark.parametrize("depth", [_MAX_NESTING + 1, 1000, 5000])
    @pytest.mark.parametrize("spelling", sorted(_NESTED))
    def test_deeper_input_is_a_parse_error(self, capsys, spelling, depth):
        source = _NESTED[spelling](depth)
        code, out, err = run(capsys, "el", "--order", "1", f"--lagrangian={source}")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: nesting deeper than {_MAX_NESTING}") and "position" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spelling", ["parentheses", "products", "unary-signs"])
    def test_input_at_the_limit_is_read(self, capsys, spelling):
        code, out, _ = run(capsys, "el", "--order", "1", f"--lagrangian={_NESTED[spelling](_MAX_NESTING)}")
        assert code == 0
        assert out.startswith("E_1 = ")

    # a chain of / is one quotient of any length; a chain of ^ nests, so each
    # ^ link counts toward the limit

    @pytest.mark.parametrize("operands", [1000, 5000])
    def test_a_division_chain_is_read(self, capsys, operands):
        code, out, err = run(capsys, "el", "--order", "1", "--lagrangian", "/".join(["y_1"] * operands))
        assert (code, err) == (0, "")
        assert out == run(capsys, "el", "--order", "1", "--lagrangian", f"y_1^(-{operands - 2})")[1]
        assert out == f"E_1 = -{(operands - 2) * (operands - 1)}*y_1^(-{operands})*y_11\n"

    @pytest.mark.parametrize("links", [_MAX_NESTING + 1, 1000, 5000])
    def test_a_longer_power_chain_is_a_parse_error(self, capsys, links):
        code, out, err = run(capsys, "el", "--order", "1", "--lagrangian", "y_1" + "^1" * links)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: nesting deeper than {_MAX_NESTING}") and err.count("\n") == 1

    def test_a_power_chain_at_the_limit_is_read(self, capsys):
        code, out, _ = run(capsys, "el", "--order", "1", "--lagrangian", "y_1^2" + "^1" * (_MAX_NESTING - 1))
        assert code == 0
        assert out == run(capsys, "el", "--order", "1", "--lagrangian", "y_1^2")[1] == "E_1 = -2*y_11\n"

    # a parenthesized power chain carries its height into the chain around it,
    # so chains nested in parentheses count together with the parentheses

    @staticmethod
    def _nested_chains(levels: int, links: int) -> str:
        source = "y_1"
        for _ in range(levels):
            source = "(" + source + "^1" * links + ")"
        return source

    def test_nested_power_chains_past_the_limit_are_a_parse_error(self, capsys):
        code, out, err = run(capsys, "el", "--order", "1", "--lagrangian", self._nested_chains(50, 50))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: nesting deeper than {_MAX_NESTING}") and err.count("\n") == 1

    def test_nested_power_chains_within_the_limit_are_read(self, capsys):
        # 4 parentheses and 4 * 20 links: 84 levels
        code, out, err = run(capsys, "el", "--order", "1", "--lagrangian", self._nested_chains(4, 20))
        assert (code, out, err) == (0, "E_1 = 0\n", "")


class TestExponentBound:
    """An exponent past 2^17 is an input error with exit code 2, not a wrapped field."""

    @pytest.mark.parametrize("source, exponent", [
        ("y_1^1099511627776", 1099511627776),
        ("y_1^(-131073)", -131073),
        ("(y_1^2*y_2)^65537", 131074),
        ("y_1^131072*y_1", 131073),
    ])
    def test_past_the_bound_exits_2(self, capsys, source, exponent):
        code, out, err = run(capsys, "el", "--order", "1", "--lagrangian", source)
        assert code == 2
        assert out == ""
        assert err == f"error: exponent {exponent} is past the bound of 131072 on an exponent's magnitude\n"

    def test_the_bound_is_read(self, capsys):
        code, out, _ = run(capsys, "el", "--order", "1", "--lagrangian", "y_1^131072")
        assert code == 0
        assert out == "E_1 = -17179738112*y_1^131070*y_11\n"


def cli_process(*argv):
    """``python -m lepage.cli argv`` as a child process with piped output."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lepage.__file__)))
    return subprocess.Popen([sys.executable, "-m", "lepage.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
class TestClosedPipe:
    # dense (3,1,2): L = 1 + sum c_k (y_I)^2; its Caratheodory JSON is about
    # 100 KB, more than a pipe holds, so the child writes into the closed pipe
    DENSE = ("4*y_33^2 + 3*y_23^2 + 2*y_22^2 + y_13^2 + 5*y_12^2 + 4*y_11^2"
             " + 3*y_3^2 + 2*y_2^2 + y_1^2 + 1")

    def test_a_reader_that_stops_early_ends_the_process_quietly(self):
        # as `lepage caratheodory ... --format json | head -1`
        proc = cli_process("caratheodory", "--n", "3", "--order", "2",
                           "--lagrangian", self.DENSE, "--format", "json")
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) != 2
        assert err == b""

    def test_an_unreadable_file_still_exits_2(self, tmp_path):
        proc = cli_process("el", "--order", "1", "--file", str(tmp_path))
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert out == b"" and err.startswith(b"error: ")


class TestUsageErrors:
    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "el", "--order", "1")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "el", "--order", "1", "--file", "/nonexistent/lagrangian")
        assert code == 2

    def test_syntax_error(self, capsys):
        code, _, err = run(capsys, "el", "--order", "1", "--lagrangian", "2 y")
        assert code == 2
        assert "position" in err

    def test_order_mismatch(self, capsys):
        code, _, err = run(capsys, "el", "--order", "1", "--lagrangian", "y_12")
        assert code == 2

    def test_unrepresentable_base_dimension(self, capsys):
        code, out, err = run(
            capsys, "el", "--n", "10", "--m", "1", "--order", "1", "--lagrangian", "y_1^2"
        )
        assert code == 2
        assert out == ""
        assert "n <= 9" in err

    def test_power_over_the_product_limit(self, capsys):
        code, out, err = run(
            capsys, "el", "--order", "1", "--lagrangian", "(y_1+y_2+x1+x2+y)^400"
        )
        assert code == 2
        assert out == ""
        assert "expression too large" in err and "1000000 term products" in err

    def _assert_one_error_line(self, code, out, err):
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_point_name_that_is_a_number(self, capsys):
        code, out, err = run(capsys, "eval", "--lagrangian", "y_1^2", "--point", "2=3")
        self._assert_one_error_line(code, out, err)
        assert "not a coordinate" in err

    def test_point_name_that_is_a_sum(self, capsys):
        code, out, err = run(capsys, "eval", "--lagrangian", "y_1^2", "--point", "x1+x2=1")
        self._assert_one_error_line(code, out, err)
        assert "not a coordinate" in err

    def test_point_value_that_is_not_a_number(self, capsys):
        code, out, err = run(capsys, "eval", "--lagrangian", "y_1^2", "--point", "y_1=abc")
        self._assert_one_error_line(code, out, err)
        assert "not a number" in err

    def test_point_that_leaves_a_coordinate_unassigned(self, capsys):
        code, out, err = run(capsys, "eval", "--lagrangian", "y_1^2 + y_2", "--point", "y_1=1")
        self._assert_one_error_line(code, out, err)
        assert "no assignment for y_2" in err

    def test_point_value_that_is_not_finite(self, capsys):
        for value in ("nan", "inf", "-inf"):
            code, out, err = run(capsys, "eval", "--lagrangian", "y_1^2", "--point", f"y_1={value}")
            self._assert_one_error_line(code, out, err)
            assert "not a finite number" in err

    def test_point_that_assigns_a_coordinate_twice(self, capsys):
        code, out, err = run(capsys, "eval", "--lagrangian", "y_1^2", "--point", "y_1=1,y_1=3")
        self._assert_one_error_line(code, out, err)
        assert "y_1 is assigned twice" in err

    @pytest.mark.parametrize("flag, value, shown", [
        ("--tol", "nan", "nan"), ("--tol", "inf", "inf"), ("--tol", "-1", "-1.0"),
        ("--samples", "0", "0"),
    ])
    def test_sampling_policy_that_decides_nothing(self, capsys, flag, value, shown):
        # sin(y_1)*y is not trivial; a nan or inf tolerance used to pass it
        code, out, err = run(capsys, "check", "trivial", "--order", "1",
                             "--lagrangian", "sin(y_1)*y", flag, value)
        self._assert_one_error_line(code, out, err)
        assert err.rstrip().endswith(f"got {shown}")

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        source = tmp_path / "lagrangian.txt"
        source.write_bytes(b"y_1\xff^2")
        code, out, err = run(capsys, "el", "--order", "1", "--file", str(source))
        self._assert_one_error_line(code, out, err)
        assert "not UTF-8" in err

    def test_unknown_subcommand(self, capsys):
        code = run_command(["frobnicate"])
        capsys.readouterr()
        assert code == 2
