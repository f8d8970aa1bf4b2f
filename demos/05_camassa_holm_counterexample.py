"""Where the second-order construction must refuse.

The Lagrange function L = 1/2 (y_1 y_2^2 + y_12^2 / y_1) of the shallow
water wave equation is quadratic in the second derivative y_12, so its
principal Lepage equivalent is third order: the order-reducibility
condition fails and no fundamental form with the closure property of the
order-reducible class exists along this construction.
"""
from lepage import (
    OrderReducibilityError,
    camassa_holm,
    euler_lagrange_expressions,
    expr_to_text,
    form_to_text,
    fundamental_second_order_n2,
    is_trivial,
    order_reducible,
    principal_lepage,
    trivial_conditions_second_order,
)

lam = camassa_holm()
print("L =", expr_to_text(lam.L, 1))

print("\nEuler-Lagrange expression (nontrivial dynamics):")
print("E_1 =", expr_to_text(euler_lagrange_expressions(lam)[0], 1))
print("is_trivial:", is_trivial(lam).passed)
print("triviality conditions:", trivial_conditions_second_order(lam).describe(1))

report = order_reducible(lam)
print("\norder-reducibility:", report.describe(1))

theta = principal_lepage(lam)
print("\nprincipal equivalent has third-order coefficients:",
      theta.max_coeff_order())

print("\nfundamental-form construction:")
try:
    fundamental_second_order_n2(lam)
except OrderReducibilityError as err:
    print("refused:", err)

print("\nthe third-order part of Theta (the obstruction made visible):")
from lepage import max_jet_order  # noqa: E402
from lepage.serialize import basis_label  # noqa: E402

for key, coeff in theta:
    if max_jet_order(coeff) == 3:
        print(f"  ({expr_to_text(coeff, 1)}) {basis_label(key)}")
