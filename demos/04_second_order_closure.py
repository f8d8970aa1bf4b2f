"""The second-order fundamental form over a 2-dimensional base.

For second-order Lagrangians whose principal (generalized Poincare-Cartan)
equivalent stays second order, the principal form extends by 2-contact
terms with coefficients P, Q^j, R^{i,j} built from second partials of L,
uniquely so that the resulting form is closed exactly on variationally
trivial Lagrangians.
"""
from lepage import (
    closure_check,
    contact_component,
    euler_lagrange_form,
    expr_to_text,
    exterior_derivative,
    form_to_text,
    forms_equal,
    fundamental_second_order_n2,
    hessian_determinant,
    is_trivial,
    order_reducible,
    principal_lepage,
    trivial_order_reducible_corpus,
    nontrivial_order_reducible_corpus,
)

# the Hessian determinant L = y_11 y_22 - y_12^2 is trivial but genuinely
# quadratic in second derivatives
lam = hessian_determinant()
print("L = y_11 y_22 - y_12^2")
print("variationally trivial:", is_trivial(lam).passed)
print("order-reducible:", order_reducible(lam).passed)

theta = principal_lepage(lam)
print("\nprincipal equivalent (coefficients stay second order):")
print(form_to_text(theta, 1))

z, coeffs = fundamental_second_order_n2(lam)
print("\ncontact coefficients:")
print("  P    =", expr_to_text(coeffs.P[(1, 1)], 1))
print("  Q^1  =", expr_to_text(coeffs.Q1[(1, 1)], 1))
print("  Q^2  =", expr_to_text(coeffs.Q2[(1, 1)], 1))
print("  R^12 =", expr_to_text(coeffs.R12[(1, 1)], 1))
print("\nZ - Theta:")
print(form_to_text(z - theta, 1))
print("\nclosure check:", closure_check(z).describe(1))

# divergence-generated corpus: every member produces a closed form
print("\ndivergence corpus:")
for i, member in enumerate(trivial_order_reducible_corpus()):
    zi, _ = fundamental_second_order_n2(member)
    print(f"  member {i}: L = {expr_to_text(member.L, 1)}")
    print(f"    closed: {closure_check(zi).passed}")

# for nontrivial Lagrangians the construction still works, but d Z picks up
# exactly the Euler-Lagrange form in its 1-contact part
print("\nnontrivial members:")
for member in nontrivial_order_reducible_corpus():
    zi, _ = fundamental_second_order_n2(member)
    p1 = contact_component(exterior_derivative(zi), 1)
    print(
        f"  L = {expr_to_text(member.L, 1)}: closed={closure_check(zi).passed},",
        f"p1(dZ) = E: {forms_equal(p1, euler_lagrange_form(member))}",
    )
