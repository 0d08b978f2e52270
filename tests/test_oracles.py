"""The oracles name no engine, so each check stays independent of what it checks.

``newton_lift``, ``teichmuller_oracle``, ``bell_oracle`` and factor's lemma
check ``_tn_congruences`` sit in the engine modules; this reads their source,
and that of every helper of the same module they call, and looks for the
engines' names.
"""

import ast
import inspect

import pytest

from padiclift import bell, factorize, hensel, series

ENGINES = {"BellTable", "root_numerators", "formal_root_brackets",
           "formal_root_numerators", "_sparse_sum", "_root_series_residue"}


def names_used(module, name):
    """Every name and attribute read by module.name and, transitively, by the
    functions of the same module that it names."""
    seen, todo, names = set(), [name], set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(ast.parse(inspect.getsource(getattr(module, fn)))):
            if isinstance(node, ast.Name):
                names.add(node.id)
                obj = vars(module).get(node.id)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    todo.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module, name", [(hensel, "newton_lift"),
                                          (hensel, "teichmuller_oracle"),
                                          (bell, "bell_oracle"),
                                          (factorize, "_tn_congruences")])
def test_oracle_names_no_engine(module, name):
    assert not names_used(module, name) & ENGINES


def test_regrouping_cross_check_reads_a_table_but_no_other_engine():
    # formal_root_brackets_alt is exempt from the rule above: it checks the
    # regrouping identity, not the Bell table, so it reads a BellTable on
    # purpose (2 n_max rows on another sequence); it calls no other engine
    used = names_used(series, "formal_root_brackets_alt")
    assert "BellTable" in used
    assert not used & (ENGINES - {"BellTable"})


def test_the_scan_follows_helpers_of_the_same_module():
    # lift_simple reaches the bracket kernel only through _root_series_residue
    assert "formal_root_numerators" in names_used(hensel, "lift_simple")
    # teichmuller sums its binomial series itself, to the engines' term count,
    # and reaches none of the engines
    used = names_used(hensel, "teichmuller")
    assert "_term_count" in used and not used & ENGINES


def test_the_factor_streams_read_one_kernel_each():
    # a_n is the Lagrange-inversion kernel of the lift and of lagrange_invert;
    # the closed form T_n is a dot product with signed rows read from the
    # table's bands, so the tn_recurrence check compares two different sums
    # of the same table
    assert "root_numerators" in names_used(factorize, "a_coeffs")
    assert "tn_coeffs" not in names_used(factorize, "a_coeffs")
    assert "band" in names_used(factorize, "tn_coeffs")
    assert "root_numerators" not in names_used(factorize, "tn_coeffs")
    for name in ("formal_root_numerators", "lagrange_invert"):
        used = names_used(series, name)
        assert "root_numerators" in used and "tn_coeffs" not in used


def test_lift_simple_takes_the_closed_forms_path():
    # one simple-seed check and one Taylor expansion for every simple-seed
    # lift; lift_general's (nu, kappa) path is for degenerate seeds only
    used = names_used(hensel, "lift_simple")
    assert {"_simple_seed", "taylor_coeffs", "_root_series_residue", "_report"} <= used
    assert not used & {"lift_general", "taylor_shift"}


def test_lagrange_invert_is_a_formal_root():
    # phi^-1(u) is the formal root of phi(t) - u: lagrange_invert builds no
    # table of its own, it reads formal_root_numerators
    own = {node.id for node in ast.walk(ast.parse(inspect.getsource(series.lagrange_invert)))
           if isinstance(node, ast.Name)}
    assert "formal_root_numerators" in own and "BellTable" not in own
