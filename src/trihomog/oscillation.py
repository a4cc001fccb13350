"""Oscillating-boundary geometry.

The boundary perturbation is g_eps(xbar) = eps^alpha * b(xbar/eps), where b
is a non-negative periodic profile on the unit cell Y = (-1/2, 1/2)^{N-1},
represented as a finite Fourier series with conjugate-symmetric coefficients.
The module evaluates:

* b and g_eps with exact derivatives,
* the C^3 transition function

      h_eps(xbar, x_N) = 0                                   for x_N <= -eps,
      h_eps(xbar, x_N) = g_eps * ((x_N+eps)/(g_eps+eps))^4   for x_N >= -eps,

  whose scaled derivative maxima stay bounded as eps -> 0 (one order of
  eps^{alpha-j} is lost per derivative), together with its unfolded limits,
* the solver's pullback map Psi_eps(xbar, t) = (xbar, t + (t+1) g_eps(xbar)),
  a global vertical stretch of the reference rectangle onto the oscillating
  domain, with derivatives up to order 3 as a multi-index dictionary.

All derivative formulas are closed-form; no numerical differencing is used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .jets import composition_expansions, index_order, multi_indices

TWO_PI = 2.0 * np.pi

_B_POSITIVITY_GRID = 4096  # samples per tangential dimension at construction
_B_POSITIVITY_TOL = -1e-12
_H_GRID = 64               # samples per axis of verify_h_bounds
_UNFOLD_GRID = 48          # samples per axis of unfolded_h_limit_error


class ProfileError(ValueError):
    pass


@dataclass(frozen=True)
class PerturbationParams:
    """Oscillation strength: g_eps = eps^alpha b(./eps).

    eps is restricted to reciprocals of positive integers so that g_eps is
    exactly 1-periodic on the unit tangential cell.
    """
    epsilon: float
    alpha: float

    def __post_init__(self):
        eps = self.epsilon
        if not 0 < eps <= 1 or abs(eps * round(1.0 / eps) - 1.0) > 1e-12:
            raise ProfileError(
                "epsilon must be the reciprocal of a positive integer, got %r"
                % (eps,))
        if not 0 < self.alpha < np.inf:
            raise ProfileError("alpha must be positive and finite, got %r"
                               % (self.alpha,))

    @property
    def periods(self):
        """Number of oscillation periods per unit tangential length."""
        return round(1.0 / self.epsilon)


class OscillationProfile:
    """Periodic boundary profile b as a finite Fourier series.

    Parameters
    ----------
    dim_tangential : 1 or 2
        Number of tangential variables (N - 1).
    coefficients : dict
        Map from integer multi-index tuple k to complex amplitude b_k.
        Missing conjugates are filled in; stored coefficients are made
        exactly conjugate-symmetric so the realized profile is real.

    The realized profile must be non-negative; this is enforced by dense
    sampling at construction.
    """

    def __init__(self, dim_tangential, coefficients):
        if dim_tangential not in (1, 2):
            raise ProfileError("dim_tangential must be 1 or 2")
        self.dim = int(dim_tangential)
        coeffs = {}
        for k, bk in coefficients.items():
            k = tuple(int(x) for x in (k if isinstance(k, (tuple, list)) else (k,)))
            if len(k) != self.dim:
                raise ProfileError("mode index %r has wrong dimension" % (k,))
            bk = complex(bk)
            mk = tuple(-x for x in k)
            if mk in coeffs:
                # enforce b_{-k} = conj(b_k) by symmetrisation
                avg = 0.5 * (coeffs[mk] + bk.conjugate())
                coeffs[mk] = avg
                coeffs[k] = avg.conjugate()
            else:
                coeffs[k] = bk
                coeffs[mk] = bk.conjugate()
        zero = (0,) * self.dim
        coeffs.setdefault(zero, 0.0 + 0.0j)
        coeffs[zero] = complex(coeffs[zero].real, 0.0)
        self.coefficients = dict(sorted(coeffs.items()))
        self._check_nonnegative()

    def _check_nonnegative(self):
        n = _B_POSITIVITY_GRID if self.dim == 1 else 512
        axes = [np.linspace(-0.5, 0.5, n, endpoint=False)] * self.dim
        grid = np.meshgrid(*axes, indexing='ij')
        pts = np.stack(grid, axis=-1)
        vals = self.eval_b(pts)
        if vals.min() < _B_POSITIVITY_TOL:
            raise ProfileError(
                "profile is negative (min %g on the sampling grid)"
                % vals.min())

    # -- evaluation ---------------------------------------------------------

    def eval_b(self, ybar, deriv=None):
        """Exact derivative of the Fourier series at ybar.

        ybar: array of shape (..., dim) or a scalar/tuple point.
        deriv: tangential multi-index with |deriv| <= 3 (default: value).
        """
        if deriv is None:
            deriv = (0,) * self.dim
        deriv = tuple(deriv) if hasattr(deriv, '__len__') else (deriv,)
        if index_order(deriv) > 3:
            raise ProfileError("derivative order > 3 not supported")
        y = np.asarray(ybar, dtype=float)
        if self.dim == 1 and (y.ndim == 0 or y.shape[-1] != 1):
            y = y[..., np.newaxis]
        total = np.zeros(y.shape[:-1], dtype=complex)
        for k, bk in self.coefficients.items():
            factor = np.prod([(1j * TWO_PI * ki) ** d
                              for ki, d in zip(k, deriv)])
            phase = np.exp(1j * TWO_PI * (y @ np.array(k, dtype=float)))
            total += bk * factor * phase
        out = total.real
        return out if out.ndim else float(out)

    def eval_g(self, params, xbar):
        """g_eps(xbar) = eps^alpha b(xbar/eps)."""
        x = np.asarray(xbar, dtype=float)
        return params.epsilon ** params.alpha * self.eval_b(x / params.epsilon)

    def g_jet(self, params, xbar):
        """Tangential derivatives of g_eps up to order 3, keyed by
        tangential multi-index (arrays broadcast over xbar)."""
        eps, alpha = params.epsilon, params.alpha
        x = np.asarray(xbar, dtype=float)
        out = {}
        for a in multi_indices(self.dim):
            scale = eps ** (alpha - index_order(a))
            out[a] = scale * self.eval_b(x / eps, a)
        return out

    # -- transition function h_eps -----------------------------------------

    def eval_h(self, params, x, deriv=None):
        """Exact derivative of the piecewise transition function h_eps at a
        point x = (xbar, x_N) of the closed oscillating domain."""
        n = self.dim + 1
        if deriv is None:
            deriv = (0,) * n
        deriv = tuple(deriv)
        if index_order(deriv) > 3:
            raise ProfileError("derivative order > 3 not supported")
        x = np.asarray(x, dtype=float)
        xbar, xN = x[..., :-1], x[..., -1]
        g = self.eval_g(params, xbar)
        if np.any(xN < -1.0 - 1e-12) or np.any(xN > g + 1e-12):
            raise ProfileError("point outside the closed oscillating domain")
        vals = self._h_derivs(params, xbar, np.asarray(xN, dtype=float),
                              [deriv])[deriv]
        return vals if np.ndim(vals) else float(vals)

    def _h_derivs(self, params, xbar, xN, indices):
        """Derivatives of h_eps for several multi-indices at once, vectorised
        over broadcastable xbar (..., dim) and xN (...)."""
        eps = params.epsilon
        n = self.dim + 1
        gjet = self.g_jet(params, xbar)
        zero_tang = (0,) * self.dim
        g = gjet[zero_tang]
        zpe = np.maximum(xN + eps, 0.0)  # zero branch below x_N = -eps
        gpe = g + eps
        # outer function phi(G, z) = G ((z+eps)/(G+eps))^4; closed partials:
        # G (G+eps)^-4 = (G+eps)^-3 - eps (G+eps)^-4.
        def phi_partial(i, j):
            if j > 4:
                return np.zeros_like(zpe)
            psi_i = (_falling(-3, i) * gpe ** (-3 - i)
                     - eps * _falling(-4, i) * gpe ** (-4 - i))
            return psi_i * _falling(4, j) * zpe ** (4 - j)

        # compose phi(g(xbar), z) through the jet engine: the inner function
        # occupies the first outer slot, z passes through as the last base var
        arg_spec = (('fn',),) + (('var', self.dim),)
        expansions = composition_expansions(arg_spec, n)
        out = {}
        for beta in indices:
            a, c = beta[:-1], beta[-1]
            total = 0.0
            for gamma, factors, coeff in expansions[beta]:
                i, j = gamma
                term = coeff * phi_partial(i, j)
                for delta in factors:
                    if delta[-1] != 0:
                        term = 0.0  # g does not depend on x_N
                        break
                    term = term * gjet[delta[:-1]]
                total = total + term
            out[beta] = total
        return out

    # -- pullback map Psi_eps ----------------------------------------------

    def eval_pullback(self, params, point):
        """Derivative dictionary (value and derivatives up to order 3, keyed
        by multi-index over the N reference variables) of the vertical
        component tau(xbar, t) = t + (t+1) g_eps(xbar) of the solver's
        stretch map at a reference point (xbar, t) with t in [-1, 0]."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        t = point[-1]
        if t < -1.0 - 1e-12 or t > 1e-12:
            raise ProfileError("reference vertical coordinate outside [-1, 0]")
        return self.pullback_derivs(params, point[:-1], t)

    def pullback_derivs(self, params, xbar, t):
        """Raw derivative dictionary of tau = t + (t+1) g_eps(xbar); entries
        broadcast over arrays xbar (..., dim) and t (...)."""
        n = self.dim + 1
        gjet = self.g_jet(params, xbar)
        zero_tang = (0,) * self.dim
        g = gjet[zero_tang]
        derivs = {}
        for idx in multi_indices(n):
            a, b = idx[:-1], idx[-1]
            if b == 0 and index_order(a) == 0:
                val = t + (t + 1.0) * g
            elif b == 0:
                val = (t + 1.0) * gjet[a]
            elif b == 1:
                val = 1.0 + g if index_order(a) == 0 else gjet[a]
            else:
                val = np.zeros(np.broadcast(g, t).shape)
            derivs[idx] = val
        return derivs


def _falling(a, i):
    """Falling factorial a (a-1) ... (a-i+1)."""
    out = 1
    for m in range(i):
        out *= (a - m)
    return out


# ---------------------------------------------------------------------------
# derivative-bound diagnostics (transition function)
# ---------------------------------------------------------------------------

def verify_h_bounds(profile, params):
    """Scaled derivative maxima of h_eps.

    Returns a dict j -> max over a _H_GRID x _H_GRID grid of
    |D^j h_eps| * eps^{-(alpha - j)}, for j = 0..3.  The scaled maxima stay
    uniformly bounded as eps decreases for fixed alpha.
    """
    eps, alpha = params.epsilon, params.alpha
    # one oscillation period in xbar suffices (h is eps-periodic in xbar)
    axes = [np.linspace(0.0, eps, _H_GRID, endpoint=False)] * profile.dim
    grid = np.meshgrid(*axes, indexing='ij')
    xbar = np.stack(grid, axis=-1)[..., np.newaxis, :]
    g = profile.eval_g(params, xbar)[..., 0]
    s = np.linspace(0.0, 1.0, _H_GRID)
    xN = -1.0 + (g[..., np.newaxis] + 1.0) * s  # fills [-1, g(xbar)]
    n = profile.dim + 1
    indices = multi_indices(n)
    derivs = profile._h_derivs(params, xbar, xN, indices)
    report = {}
    for j in range(4):
        best = 0.0
        for idx in indices:
            if index_order(idx) != j:
                continue
            best = max(best, float(np.max(np.abs(derivs[idx]))))
        report[j] = best * eps ** (-(alpha - j))
    return report


def unfolded_h_limit_error(profile, params):
    """Sup-norm distance between the unfolded, rescaled derivatives of h_eps
    and their homogenized limits at the critical exponent.

    For j = 2, 3 returns

        sup_{y in Y x (-1,0)} | eps^{j-3/2} D^j h_eps(eps ybar, eps y_N)
                                - D^j_y ( b(ybar) (y_N + 1)^4 ) |,

    maximised over all multi-indices of order j.  Requires alpha = 3/2.
    """
    if abs(params.alpha - 1.5) > 1e-12:
        raise ProfileError("unfolded limit is defined at alpha = 3/2 only")
    eps = params.epsilon
    axes = [np.linspace(-0.5, 0.5, _UNFOLD_GRID, endpoint=False)] * profile.dim
    grid = np.meshgrid(*axes, indexing='ij')
    ybar = np.stack(grid, axis=-1)[..., np.newaxis, :]
    yN = np.linspace(-1.0, 0.0, _UNFOLD_GRID)
    n = profile.dim + 1
    indices = [idx for idx in multi_indices(n) if index_order(idx) in (2, 3)]
    derivs = profile._h_derivs(params, eps * ybar, eps * yN, indices)
    errors = {2: 0.0, 3: 0.0}
    for idx in indices:
        j = index_order(idx)
        a, c = idx[:-1], idx[-1]
        limit = (profile.eval_b(ybar[..., 0, :], a)[..., np.newaxis]
                 * _falling(4, c) * (1.0 + yN) ** (4 - c))
        scaled = eps ** (j - 1.5) * derivs[idx]
        errors[j] = max(errors[j], float(np.max(np.abs(scaled - limit))))
    return errors


# ---------------------------------------------------------------------------
# profile file format
# ---------------------------------------------------------------------------

def profile_to_dict(profile):
    """JSON-ready dict: zero mode as "b0", one entry per mode whose first
    nonzero index component is positive (conjugates implied)."""
    modes = []
    for k, bk in profile.coefficients.items():
        lead = next((x for x in k if x != 0), 0)
        if lead > 0:
            modes.append({"k": list(k), "re": bk.real, "im": bk.imag})
    zero = (0,) * profile.dim
    return {"dim": profile.dim,
            "b0": profile.coefficients[zero].real,
            "modes": modes}


def profile_from_dict(data):
    """Profile from profile_to_dict's format; ProfileError when an entry is
    missing or of the wrong type."""
    try:
        dim = int(data["dim"])
        coeffs = {(0,) * dim: complex(data.get("b0", 0.0))}
        for mode in data.get("modes", []):
            k = tuple(int(x) for x in mode["k"])
            coeffs[k] = complex(mode.get("re", 0.0), mode.get("im", 0.0))
    except (KeyError, TypeError, ValueError) as err:
        raise ProfileError("malformed profile (%s: %s)"
                           % (type(err).__name__, err))
    return OscillationProfile(dim, coeffs)


def save_profile(profile, path):
    with open(path, "w") as fh:
        json.dump(profile_to_dict(profile), fh, indent=2)


def load_profile(path):
    with open(path) as fh:
        return profile_from_dict(json.load(fh))
