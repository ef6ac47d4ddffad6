"""Contracts shared by the public API: what a real argument is, at every
entry point that takes a shift alpha or a semigroup time t, and the
package's `__all__`, which is its six library modules' own."""

import math

import numpy as np
import pytest

import hermlp
from hermlp import basis, gamma, kernels, semigroups, spaces, verify
from hermlp.basis import HermiteExpansion, SpatialGrid
from hermlp.gamma import BanachModel, TimeGrid
from hermlp.kernels import ShiftedOperator, poisson_kernel
from hermlp.semigroups import (
    apply_semigroup,
    composed_maximal,
    gfunction,
    gfunction_l2_sq,
    inv_sqrt,
    maximal_norm,
)
from hermlp.spaces import BallSpec, area_integral, carleson_functional, h1_norm

E = HermiteExpansion(1, 1, 3, {(0,): [1.0], (3,): [-0.5]})
GRID = SpatialGrid(4.0, 0.1)
FINE = SpatialGrid(6.0, 0.05)  # fine enough for the spectral h1_norm of E
TIMES = TimeGrid(0.1, 5.0, 6)
B = BanachModel(1, 2.0)

# entry point -> (the argument's name in its errors, a call taking the argument)
REAL_ARGUMENTS = {
    "ShiftedOperator": ("shift alpha", lambda a: poisson_kernel(0.3, -0.2, 1.0,
                                                                ShiftedOperator(a, 1))),
    "apply_semigroup alpha": ("shift alpha", lambda a: apply_semigroup(E, "heat", 0.5, a)),
    "apply_semigroup t": ("time t", lambda t: apply_semigroup(E, "poisson", t, 0.5)),
    "inv_sqrt": ("shift alpha", lambda a: inv_sqrt(E, a)),
    "gfunction": ("shift alpha", lambda a: gfunction(E, a, GRID, TIMES)),
    "gfunction_l2_sq": ("shift alpha", lambda a: gfunction_l2_sq(E, a)),
    "h1_norm": ("shift alpha", lambda a: h1_norm(E, B, FINE, TIMES, "poisson", a)),
    "maximal_norm": ("shift alpha", lambda a: maximal_norm(E, 0.3, "heat", a, B, TIMES)),
    "composed_maximal": ("shift alpha", lambda a: composed_maximal(E, 0.3, a, "g", B, TIMES)),
    "area_integral": ("shift alpha", lambda a: area_integral(E, 0.3, a, GRID, TIMES)),
    "carleson_functional": ("shift alpha", lambda a: carleson_functional(
        E, 0.3, a, BallSpec(0.5, 2.0, 1), GRID, TIMES)),
}

NOT_REAL = [np.array([1.0, 2.0]), np.array([1.5]), None, "1.5", 1.5j]


def _bits(value):
    """A value that compares equal exactly when two results hold the same bits."""
    if isinstance(value, HermiteExpansion):
        return value.modes.tobytes(), value.C.tobytes()
    if isinstance(value, semigroups.TimeField):
        return value.values.tobytes()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return float(value).hex()


@pytest.mark.parametrize("entry", sorted(REAL_ARGUMENTS))
@pytest.mark.parametrize("bad", NOT_REAL, ids=repr)
def test_a_value_that_is_not_a_real_number_is_a_value_error(entry, bad):
    # each of these raised TypeError
    name, call = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{name}=.* must be a real number"):
        call(bad)


@pytest.mark.parametrize("entry", sorted(REAL_ARGUMENTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_a_real_that_is_not_finite_is_a_value_error(entry, bad):
    name, call = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{name}=.* is not finite"):
        call(bad)


@pytest.mark.parametrize("entry", sorted(REAL_ARGUMENTS))
def test_every_real_scalar_gives_the_bits_of_its_float(entry):
    # a float32 shift took float32 arithmetic in the subordinated kernels
    _, call = REAL_ARGUMENTS[entry]
    for value, forms in ((2.0, [2, np.float64(2.0), np.array(2.0), np.int64(2)]),
                         (0.5, [np.float64(0.5), np.array(0.5), np.float32(0.5)])):
        want = _bits(call(value))
        for form in forms:
            assert _bits(call(form)) == want, form


@pytest.mark.parametrize("bad", NOT_REAL + [math.nan], ids=repr)
def test_sampled_h1_norm_checks_its_shift_as_a_real_number(bad):
    # a 2-element shift raised numpy's "truth value ... is ambiguous"
    f = np.exp(-GRID.points ** 2)
    with pytest.raises(ValueError, match="^shift alpha="):
        h1_norm(f, B, GRID, TIMES, alpha=bad)
    want = h1_norm(f, B, GRID, TIMES).hex()
    for zero in (0, np.float64(0.0), np.array(0.0), -0.0):
        assert h1_norm(f, B, GRID, TIMES, alpha=zero).hex() == want


def test_an_int_beyond_the_float_range_is_not_finite():
    with pytest.raises(ValueError, match="is not finite"):
        ShiftedOperator(10 ** 400, 1)


def test_shifted_operator_keeps_its_shift_as_a_float():
    assert ShiftedOperator(np.array(2), 1) == ShiftedOperator(2.0, 1)
    assert type(ShiftedOperator(np.float64(1.5)).alpha) is float


@pytest.mark.parametrize("flag", [True, np.bool_(False), np.array(True)])
def test_a_bool_is_not_a_real_argument(flag):
    with pytest.raises(ValueError, match="must be a real number"):
        ShiftedOperator(flag, 1)


MODULES = (basis, kernels, gamma, semigroups, spaces, verify)


def test_the_package_api_is_its_library_modules_api():
    # heat_apply and eval_table were missing from the package's own list
    assert hermlp.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(hermlp.__all__)) == len(hermlp.__all__) == 53
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hermlp, name) is getattr(module, name), name
