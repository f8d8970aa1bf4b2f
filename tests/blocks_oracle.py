"""The explicit n = 2 decomposition of the second-order Caratheodory form.

A test helper, not a test module (pytest collects ``test_*.py`` only):

  Lambda_2 = Theta + L^{-1} (p_s^1 p_n^2 omega^s ^ omega^n
             + (p_n^{j2} p_s^1 - p_n^{j1} p_s^2) omega^s ^ omega^n_j
             + p_s^{i1} p_n^{j2} omega^s_i ^ omega^n_j),

with the momenta read off Theta itself: p_s^{J1} is Theta's coefficient on
omega^s_J ^ dx^2 and p_s^{J2} minus its coefficient on omega^s_J ^ dx^1.  It
imports public names only, so comparing it with ``caratheodory_second`` (a
wedge product of corrected 1-forms) checks two constructions that share no
private code.
"""
from lepage import (
    DEFAULT_CONVENTION,
    Convention,
    Dx,
    ExteriorForm,
    Lagrangian,
    MultiIndex,
    Omega,
    Pow,
    make_form,
    principal_lepage,
)


def caratheodory_second_blocks(lam: Lagrangian, convention: Convention = DEFAULT_CONVENTION) -> ExteriorForm:
    """Theta plus the three 2-contact blocks, for L of order 2 over a
    2-dimensional base that does not vanish."""
    assert (lam.ctx.n, lam.r) == (2, 2), "the decomposition is for n = 2 and order 2"
    theta = principal_lepage(lam, convention)

    def p(sigma, J, i):
        w = Omega(sigma, MultiIndex(J))
        return theta.coefficient((w, Dx(2))) if i == 1 else -theta.coefficient((w, Dx(1)))

    inv_l = Pow(lam.L, -1)
    empty = MultiIndex()
    entries = []
    for sigma in lam.ctx.fiber_indices:
        for nu in lam.ctx.fiber_indices:
            entries.append(((Omega(sigma, empty), Omega(nu, empty)), inv_l * p(sigma, (), 1) * p(nu, (), 2)))
            for j in lam.ctx.base_indices:
                w_nu_j = Omega(nu, MultiIndex((j,)))
                entries.append(((Omega(sigma, empty), w_nu_j),
                                inv_l * (p(nu, (j,), 2) * p(sigma, (), 1) - p(nu, (j,), 1) * p(sigma, (), 2))))
                for i in lam.ctx.base_indices:
                    entries.append(((Omega(sigma, MultiIndex((i,))), w_nu_j),
                                    inv_l * p(sigma, (i,), 1) * p(nu, (j,), 2)))
    return theta + make_form(lam.ctx, 2, entries, theta.order)
