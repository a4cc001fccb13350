"""Third-order calculus kernels for pulling sixth-order forms back to a
reference rectangle.

Everything here works with *jets*: dictionaries mapping derivative
multi-indices (tuples of non-negative integers, one slot per variable) to
values.  Values may be scalars or numpy arrays, so the same code paths serve
both the scalar public API and the vectorised assembly loops.

The maps we care about are vertical shears

    (xbar, t)  |->  (xbar, tau(xbar, t)),

i.e. only the last coordinate is transformed.  For such maps the third-order
chain rule (Faa di Bruno) collapses to compositions of the form
``u(z) = f(z_1, ..., z_{m-1}, s(z))`` with a single scalar inner function.
The expansions of ``D^beta u`` in terms of outer derivatives ``f_gamma`` and
inner derivatives ``s_delta`` are generated symbolically once per dimension
(by repeated formal differentiation) and cached; evaluation is then plain
arithmetic that broadcasts over arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 3
MIN_SLOPE = 1e-8        # a shear with |d tau/dt| below this is degenerate


# ---------------------------------------------------------------------------
# multi-index utilities
# ---------------------------------------------------------------------------

def multi_indices(nvars):
    """All multi-indices over ``nvars`` variables with total order <=
    MAX_ORDER, in graded lexicographic order (order 0 first)."""
    out = []
    for order in range(MAX_ORDER + 1):
        out.extend(_indices_of_order(nvars, order))
    return out


def _indices_of_order(nvars, order):
    if nvars == 1:
        return [(order,)]
    out = []
    for first in range(order, -1, -1):
        for rest in _indices_of_order(nvars - 1, order - first):
            out.append((first,) + rest)
    return out


def _unit(nvars, j):
    e = [0] * nvars
    e[j] = 1
    return tuple(e)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def index_order(idx):
    return sum(idx)


def multinomial(idx):
    """Number of ordered derivative sequences collapsing to multi-index idx."""
    return math.factorial(index_order(idx)) // math.prod(
        math.factorial(k) for k in idx)


# ---------------------------------------------------------------------------
# symbolic composition engine
# ---------------------------------------------------------------------------
#
# A term of the expansion of D^beta [ f(w_1(z), ..., w_m(z)) ] is stored as
# (gamma, factors, coeff):
#   gamma   -- multi-index over the m outer arguments,
#   factors -- sorted tuple of base multi-indices, one per derivative of the
#              single inner function appearing as a factor,
#   coeff   -- integer multiplicity.
# Passthrough arguments (w_i(z) = z_j) never generate factors: their first
# derivative is 1 and higher derivatives vanish.

@lru_cache(maxsize=None)
def composition_expansions(arg_spec, nvars):
    """Expansions of all D^beta, |beta| <= MAX_ORDER, for the composition
    f(w_1, ..., w_m) where arg_spec[i] is ('var', j) for w_i = z_j or
    ('fn',) for the (unique) inner function.

    Returns a dict beta -> tuple of (gamma, factors, coeff).
    """
    assert sum(1 for s in arg_spec if s[0] == 'fn') == 1
    m = len(arg_spec)
    zero_g = (0,) * m
    expansions = {(0,) * nvars: (((zero_g, (), 1),))}
    for beta in multi_indices(nvars):
        if index_order(beta) == 0:
            continue
        v = next(i for i, k in enumerate(beta) if k > 0)
        parent = list(beta)
        parent[v] -= 1
        expansions[beta] = _differentiate(
            expansions[tuple(parent)], arg_spec, nvars, v)
    return expansions


def _differentiate(terms, arg_spec, nvars, v):
    acc = {}
    for gamma, factors, coeff in terms:
        # chain rule through each outer argument
        for i, spec in enumerate(arg_spec):
            if spec[0] == 'var':
                if spec[1] == v:
                    _accumulate(acc, _add(gamma, _unit(len(gamma), i)),
                                factors, coeff)
            else:
                new_factors = tuple(sorted(factors + (_unit(nvars, v),)))
                _accumulate(acc, _add(gamma, _unit(len(gamma), i)),
                            new_factors, coeff)
        # product rule through the inner-derivative factors
        for l, delta in enumerate(factors):
            new_factors = tuple(sorted(
                factors[:l] + (_add(delta, _unit(nvars, v)),) + factors[l + 1:]))
            _accumulate(acc, gamma, new_factors, coeff)
    return tuple((g, f, c) for (g, f), c in acc.items())


def _accumulate(acc, gamma, factors, coeff):
    key = (gamma, factors)
    acc[key] = acc.get(key, 0) + coeff


def _shear_spec(nvars):
    """Argument spec for u(z) = f(z_1, .., z_{n-1}, s(z)): tangential
    coordinates pass through, the inner function feeds the last slot."""
    return tuple(('var', j) for j in range(nvars - 1)) + (('fn',),)


# ---------------------------------------------------------------------------
# public jet containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeJet3:
    """Derivatives of a scalar field at a point, up to order 3, keyed by
    multi-index.  Symmetry of the derivative tensors is implicit in the
    multi-index storage."""
    nvars: int
    derivs: dict

    def __getitem__(self, idx):
        return self.derivs[idx]


@dataclass(frozen=True)
class TransformCoeffs:
    """Linear relation expressing physical derivatives D^beta u in terms of
    reference derivatives D^gamma u~ at one point of the reference rectangle:
    coeffs[beta][gamma] multiplies D^gamma u~.  Also carries |det J| of the
    forward map."""
    nvars: int
    coeffs: dict
    det_jacobian: object


def _as_derivs(jet):
    return jet.derivs if hasattr(jet, 'derivs') else jet


# ---------------------------------------------------------------------------
# jet inversion for vertical shears
# ---------------------------------------------------------------------------

def invert_shear_derivs(forward, nvars):
    """Derivatives of the inverse of a vertical shear.

    ``forward`` maps multi-indices over reference variables (xbar, t) to
    derivatives of the physical vertical coordinate tau; the result maps
    multi-indices over physical variables (xbar, tau) to derivatives of the
    reference vertical coordinate t.  Entries may be arrays (broadcasting).

    The inverse jet is obtained order by order from the identity
    tau(xbar, t(xbar, tau)) = tau: in the expansion of D^beta of the
    left-hand side the highest-order unknown t_beta appears exactly once,
    multiplied by d tau/dt.
    """
    e_t = _unit(nvars, nvars - 1)
    slope = forward[e_t]
    if np.any(np.abs(slope) < MIN_SLOPE):
        raise ValueError("degenerate shear: |d tau/dt| below %g" % MIN_SLOPE)
    expansions = composition_expansions(_shear_spec(nvars), nvars)
    inverse = {}
    for beta in multi_indices(nvars):
        if index_order(beta) == 0:
            continue
        rhs = 1.0 if beta == e_t else 0.0
        rest = 0.0
        for gamma, factors, coeff in expansions[beta]:
            if gamma == e_t and factors == (beta,):
                continue  # the unknown term slope * t_beta
            term = coeff * forward[gamma]
            for delta in factors:
                term = term * inverse[delta]
            rest = rest + term
        inverse[beta] = (rhs - rest) / slope
    return inverse


# ---------------------------------------------------------------------------
# chain-rule coefficients
# ---------------------------------------------------------------------------

def transform_coeffs(inverse_jet, nvars=None):
    """Coefficients expressing each physical derivative D^beta u (|beta| <= 3)
    of u = u~ o Psi^{-1} as a linear combination of reference derivatives
    D^gamma u~, given the inverse-map jet of the vertical shear Psi."""
    derivs = _as_derivs(inverse_jet)
    if nvars is None:
        nvars = getattr(inverse_jet, 'nvars', None) or len(next(iter(derivs)))
    expansions = composition_expansions(_shear_spec(nvars), nvars)
    coeffs = {}
    for beta in multi_indices(nvars):
        row = {}
        for gamma, factors, coeff in expansions[beta]:
            term = coeff
            for delta in factors:
                term = term * derivs[delta]
            row[gamma] = row.get(gamma, 0.0) + term
        coeffs[beta] = row
    e_last = _unit(nvars, nvars - 1)
    det = np.abs(1.0 / derivs[e_last])
    return TransformCoeffs(nvars=nvars, coeffs=coeffs, det_jacobian=det)


def apply_coeffs(coeffs, ref_jet, beta):
    """Physical derivative D^beta u from reference derivatives of u~."""
    derivs = _as_derivs(ref_jet)
    row = coeffs.coeffs[beta]
    return sum(c * derivs[gamma] for gamma, c in row.items())


def invert_jet3(forward):
    """Invert a vertical-shear map jet (a MapJet3 or a raw derivative dict).

    Returns the jet of the inverse map as a plain derivative dictionary over
    physical variables; the value entry is the reference vertical coordinate.
    """
    derivs = _as_derivs(forward)
    nvars = len(next(iter(derivs)))
    inverse = invert_shear_derivs(derivs, nvars)
    point = getattr(forward, 'point', None)
    zero = (0,) * nvars
    inverse[zero] = point[-1] if point is not None else 0.0
    return inverse


def compose_shear_derivs(outer, inner, nvars):
    """Derivatives of tau(xbar, t(xbar, .)) from the two shear jets; used to
    check that forward and inverse jets compose to the identity."""
    expansions = composition_expansions(_shear_spec(nvars), nvars)
    out = {}
    for beta in multi_indices(nvars):
        if index_order(beta) == 0:
            continue
        total = 0.0
        for gamma, factors, coeff in expansions[beta]:
            term = coeff * outer[gamma]
            for delta in factors:
                term = term * inner[delta]
            total = total + term
        out[beta] = total
    return out
