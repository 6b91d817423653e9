"""The panel quadrature against independent routes: scipy's adaptive quad
and, for the tail and Pareto integrals, their closed forms.

Every bound is 1e-10 relative, or quad's own error estimate where that is
larger. quad is not a reference everywhere: far out in a Gaussian tail
(x0 = 1e4 on) its shifted integrand leaves it off by a factor e^17 under
an estimate of 2, and as t -> 0- it puts the Pareto integral above its
t = 0 limit; there the closed forms are the route. A log of an integral
is compared to 1e-10 absolute (1e-10 relative on the integral), or to
1e-15 of itself (4.5 units of its last place) where the log is so large
that its own rounding exceeds that: a Gaussian log-tail of -5e9 at
x0 = 1e5 is known to about 1e-6 in either route.
"""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfcx, exp1, log_ndtr

import ordopt
from ordopt import populations
from ordopt._quad import (_TABLE_Q, QuadratureWarning,
                          integrate as panel_integrate, log_tail_integral,
                          node_table, table_cuts)
from ordopt.adversarial import TiltedDistribution, _log_upper_tail, tilt
from ordopt.populations import (Gaussian, GaussianMixture, Mirrored, Pareto,
                                ShiftedExponential, _log_pareto_integral,
                                kl_divergence)

_REL = 1e-10
_LOG_2PI = math.log(2.0 * math.pi)


@pytest.fixture(autouse=True)
def quiet_quadrature():
    # a QuadratureWarning from the panel rule fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureWarning)
        yield


def _agrees(got, want, quad_err):
    return abs(got - want) <= max(_REL * abs(want), quad_err)


def _logs_agree(got, want):
    return abs(got - want) <= max(_REL, 1e-15 * abs(want))


def _log_normal_tail(z0, c, moment):
    """log int_{z0}^inf (z + c)^moment phi(z) dz: log Phi(-z0), or
    log(phi(z0) + c Phi(-z0)) for the first moment."""
    log_sf = float(log_ndtr(-z0))
    if not moment:
        return log_sf
    log_phi = -0.5 * z0 * z0 - 0.5 * _LOG_2PI
    if c >= 0.0:
        return float(np.logaddexp(log_phi, math.log(c) + log_sf)) if c \
            else log_phi
    # c < 0 only with z0 > 0 here, where Phi(-z0) / phi(z0) < 1 / z0
    return log_phi + math.log1p(c * math.exp(log_sf - log_phi))


def _closed_log_tail(base, x0, moment):
    """log int_{x0}^inf x^moment g(x) dx in closed form."""
    if isinstance(base, Gaussian):
        # x = mu + sigma z
        z0 = (x0 - base.mu) / base.sigma
        scale = math.log(base.sigma) if moment else 0.0
        return scale + _log_normal_tail(z0, base.mu / base.sigma, moment)
    if isinstance(base, GaussianMixture):
        # component N(m, 1): x = m + z
        return float(np.logaddexp(
            math.log(base.p) + _log_normal_tail(x0, 0.0, moment),
            math.log1p(-base.p)
            + _log_normal_tail(x0 - base.mu, base.mu, moment)))
    if isinstance(base, Pareto):
        a, s = base.alpha_tail, base.scale
        if not moment:
            return a * math.log(s / x0)
        return math.log(a / (a - 1.0)) + a * math.log(s) \
            + (1.0 - a) * math.log(x0)
    # Mirrored(ShiftedExponential(K, lam)): lam e^{-lam (x + K)}, x >= -K
    lam, k = base.base.lam, base.base.K
    return -lam * (x0 + k) + (math.log(x0 + 1.0 / lam) if moment else 0.0)


def _quad_log_tail(base, x0, moment):
    """log int_{x0}^inf x^moment g(x) dx and the bound on its relative
    error, by quad in linear space shifted by logpdf(x0)."""
    l0 = float(base.logpdf(x0))

    def h(t):
        v = math.exp(min(float(base.logpdf(x0 + t)) - l0, 700.0))
        return v * (x0 + t) if moment else v

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(h, 0.0, math.inf, limit=200)
    return l0 + math.log(val), err / val


_QUAD_MODELS = [Gaussian(-0.2, 1.0), Gaussian(3.0, 10.0),
                GaussianMixture(0.3, 5.0),
                Mirrored(ShiftedExponential(0.96, 1.0)), Pareto(2.0, 1.0),
                Pareto(3.0, 0.6)]
# GaussianMixture(0.99, 100) puts a far mode right of most x0: geometric
# panels alone would span it in one wide panel, and quad misses it (at
# x0 = 40 its log I is off by 93), so only the closed form checks it
_TAIL_MODELS = _QUAD_MODELS + [GaussianMixture(0.99, 100.0)]


def _tails(models, points):
    """(base, x0) for every model and every point inside its support."""
    return [pytest.param(base, x0, id=f"{base!r}-{x0:g}")
            for base in models for x0 in points
            if math.isfinite(float(base.logpdf(x0)))]


@pytest.mark.parametrize("moment", [0, 1])
@pytest.mark.parametrize("base, x0", _tails(
    _TAIL_MODELS, [0.5, 3.0, 40.0, 300.0, 2200.0, 1e4, 1e5]))
def test_tilt_tails_match_closed_forms(base, x0, moment):
    assert _logs_agree(_log_upper_tail(base, x0, moment),
                       _closed_log_tail(base, x0, moment))


@pytest.mark.parametrize("moment", [0, 1])
@pytest.mark.parametrize("base, x0", _tails(_QUAD_MODELS,
                                            [0.5, 3.0, 40.0, 300.0]))
def test_tilt_tails_agree_with_quad(base, x0, moment):
    got = _log_upper_tail(base, x0, moment)
    want, rel_err = _quad_log_tail(base, x0, moment)
    # compared as integrals: exp(got - want) - 1 is their relative gap
    assert abs(math.expm1(got - want)) <= max(_REL, rel_err)


def test_pareto_moment_above_40_is_exact():
    # int_40^inf x 2 x^{-3} dx = 2/40 and int_40^inf 2 x^{-3} dx = 1/40^2
    assert math.exp(_log_upper_tail(Pareto(2.0, 1.0), 40.0, 1)) \
        == pytest.approx(2.0 / 40.0, rel=_REL)
    assert math.exp(_log_upper_tail(Pareto(2.0, 1.0), 40.0, 0)) \
        == pytest.approx(1.0 / 1600.0, rel=_REL)


def _closed_pareto_integral(t, p):
    """int_0^inf e^{-s v} (1 + v)^{-p} dv for s = -t: by parts, I_p =
    (1 - s I_{p-1}) / (p - 1), from I_1 = e^s E1(s) and I_1/2 = sqrt(pi/s)
    erfcx(sqrt s)."""
    s = -t
    if p == 1.5:
        return 2.0 - 2.0 * math.sqrt(math.pi * s) * erfcx(math.sqrt(s))
    value = float(exp1(s)) * math.exp(s)
    for k in range(2, int(p) + 1):
        value = (1.0 - s * value) / (k - 1.0)
    return value


_PARETO_T = [-10.0, -1.0, -1e-2, -1e-4, -1e-6, -1e-9]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("t", _PARETO_T)
def test_pareto_integral_matches_its_closed_form_as_t_goes_to_zero(t, p):
    got = _log_pareto_integral(t, p)
    assert _logs_agree(got, math.log(_closed_pareto_integral(t, p)))
    # and it stays below its t = 0 limit 1/(p - 1)
    assert math.exp(got) < 1.0 / (p - 1.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("t", _PARETO_T[:3])
def test_pareto_integral_agrees_with_quad(t, p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        want, err = integrate.quad(
            lambda v: math.exp(t * v) * (1.0 + v) ** (-p), 0.0, math.inf,
            limit=200)
    assert _agrees(math.exp(_log_pareto_integral(t, p)), want, err)


def _quad_kl(g, gt):
    lo, hi = g.support()

    def f(x):
        lg = float(g.logpdf(x))
        return math.exp(lg) * (lg - float(gt.logpdf(x))) if lg > -math.inf \
            else 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, lo, hi, limit=400, epsabs=0.0,
                              epsrel=1e-12)


@pytest.mark.parametrize("g, gt", [
    (Gaussian(0.0, 1.0), GaussianMixture(0.3, 1.0)),
    (GaussianMixture(0.3, 5.0), GaussianMixture(0.2, 5.0)),
    (GaussianMixture(0.3, 5.0), Gaussian(3.0, 3.0)),
    (ShiftedExponential(0.9, 1.0), ShiftedExponential(1.0, 2.0)),
    (Pareto(3.0, 1.0), Pareto(2.0, 1.0)),
    (Mirrored(ShiftedExponential(0.96, 1.0)), Gaussian(0.0, 3.0)),
], ids=repr)
def test_kl_agrees_with_quad(g, gt):
    want, err = _quad_kl(g, gt)
    assert _agrees(kl_divergence(g, gt), want, err)


def test_pareto_kl_closed_form():
    # KL(Pareto(a, s) || Pareto(b, s)) = log(a / b) - (a - b) / a
    assert kl_divergence(Pareto(3.0, 1.0), Pareto(2.0, 1.0)) \
        == pytest.approx(math.log(1.5) - 1.0 / 3.0, rel=_REL)


@pytest.mark.parametrize("base, alpha, k", [
    (Gaussian(0.0, 1.0), 4.0, 0.5),
    (GaussianMixture(0.3, 5.0), 2.0, 4.0),
    (Mirrored(ShiftedExponential(0.96, 1.0)), 0.01, 29.6),
], ids=repr)
def test_kl_to_a_tilt_matches_its_closed_form(base, alpha, k):
    td = tilt(base, alpha, k)
    lo, hi = table_cuts(base)[[0, -1]]
    inside = lo < td.b < hi
    # the first two splits fall inside the base's node table, where they
    # are cuts of the KL panels; the flagship's lies far beyond it
    assert inside == (alpha > 1.0)
    assert kl_divergence(base, td) == pytest.approx(td.kl_from_base(),
                                                    rel=_REL)
    # and the reverse KL, over the tilt's own cuts (the base's and tail
    # panels from b): (1 - gamma) G(b) log(1 - gamma) + beta Gbar(b) log beta
    g_b, log_gbar, log_beta = td._g_below, td._log_gbar, td._log_beta
    reverse = ((1.0 - td.gamma) * g_b * math.log1p(-td.gamma)
               + math.exp(log_beta + log_gbar) * log_beta)
    assert kl_divergence(td, base) == pytest.approx(reverse, rel=_REL)


def test_kl_from_a_split_below_the_support():
    # b below Pareto(3, 0.6)'s support leaves the base as it is
    base = Pareto(3.0, 0.6)
    td = TiltedDistribution(base, 0.3, 0.5)
    assert kl_divergence(td, base) == 0.0


@pytest.mark.parametrize("model", [
    Gaussian(-0.2, 1.0), GaussianMixture(0.3, 5.0),
    ShiftedExponential(0.96, 1.0), Mirrored(ShiftedExponential(0.96, 1.0)),
    Pareto(3.0, 0.6),
], ids=repr)
def test_node_table_holds_the_whole_mass(model):
    x, p = node_table(model)
    assert p.sum() == pytest.approx(1.0, rel=_REL)


def test_integrate_reports_and_warns_on_its_error_estimate():
    # one panel 16 standard deviations wide: both rules miss, differently
    with pytest.warns(QuadratureWarning, match="wide panel"):
        value, err = panel_integrate(lambda x: np.exp(-0.5 * x * x),
                                     np.array([-8.0, 8.0]), "wide panel")
    assert err >= abs(value - math.sqrt(2.0 * math.pi)) > 1e-3
    value, err = panel_integrate(np.cos, np.linspace(0.0, math.pi / 2, 5),
                                 "cos")
    assert value == pytest.approx(1.0, rel=1e-15) and err < 1e-13


def test_log_tail_integral_sees_a_truncated_power_law():
    # x^{-1.01} decays too slowly for 2^120 first widths to hold it: the
    # last panel's share shows in the estimate, and it warns
    with pytest.warns(QuadratureWarning):
        _, err = log_tail_integral(lambda x: -1.01 * np.log(x), 1.0,
                                   "slow power law")
    assert err > 1e-3


@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("p, mu", [(0.3, 5.0), (0.5, 1.0), (0.9, -3.0)])
def test_mixture_quantiles_invert_the_log_cdf(p, mu, upper):
    # Newton on log F (or log S) lands on the level to 1e-12 in logs, from
    # a tail probability of 1e-300 to 1/2
    model = GaussianMixture(p, mu)
    q = np.array([1e-300, 1e-200, 1e-100, 1e-30, 1e-14, 1e-5, 0.01, 0.3,
                  0.5])
    x = model.upper_quantile(q) if upper else model.quantile(q)
    s = -1.0 if upper else 1.0
    log_c = np.logaddexp(math.log(p) + log_ndtr(s * x),
                         math.log1p(-p) + log_ndtr(s * (x - mu)))
    assert np.all(np.abs(log_c - np.log(q)) <= 1e-12 * np.maximum(
        1.0, np.abs(np.log(q))))


_TABLE_MIXTURES = [GaussianMixture(0.3, 5.0), GaussianMixture(0.7, -2.0),
                   GaussianMixture(0.5, 1.0), GaussianMixture(0.01, 20.0)]


@pytest.mark.parametrize("model", _TABLE_MIXTURES, ids=repr)
def test_mixture_table_from_one_search_matches_two(model):
    # the lower and upper tails inverted together give the cuts of one
    # quantile and one upper_quantile search, bit for bit
    lower, upper = model.quantile(_TABLE_Q), model.upper_quantile(_TABLE_Q)
    span = np.linspace(lower[0], upper[0], 49)
    want = np.unique(np.concatenate([lower, upper, span]))
    assert np.array_equal(table_cuts(model), want)


def _count_searches(monkeypatch, model):
    """(rows, evaluations) of each newton_root call in one table build."""
    calls, search = [], populations.newton_root

    def counted(f, lo, *args, **kwargs):
        evals = [0]

        def g(x, rows):
            evals[0] += 1
            return f(x, rows)
        root = search(g, lo, *args, **kwargs)
        calls.append((lo.size, evals[0]))
        return root
    monkeypatch.setattr(populations, "newton_root", counted)
    table_cuts(model)
    return calls


@pytest.mark.parametrize("model, evals", [
    (GaussianMixture(0.3, 5.0), 7), (GaussianMixture(0.7, -2.0), 6),
    (GaussianMixture(0.5, 1.0), 5)], ids=repr)
def test_mixture_table_is_one_search(monkeypatch, model, evals):
    # both tails' rows step in one lock-step search: as many evaluations
    # as the slower tail's own search takes
    n = _TABLE_Q.size
    assert _count_searches(monkeypatch, model) == [(2 * n, evals)]


def test_mirrored_mixture_table_keeps_two_searches(monkeypatch):
    # Mirrored has no table of its own: one search per tail
    n = _TABLE_Q.size
    calls = _count_searches(monkeypatch, Mirrored(GaussianMixture(0.3, 10.0)))
    assert calls == [(n, 7), (n, 7)]


def test_no_module_imports_scipy_integrate():
    # every integral in the library runs through _quad, in numpy
    pattern = re.compile(r"scipy\.integrate|from scipy import .*integrate")
    offenders = [path.name
                 for path in sorted(Path(ordopt.__file__).parent.glob("*.py"))
                 if pattern.search(path.read_text())]
    assert offenders == []


def test_rules_equal_leggauss_bit_for_bit():
    # the rules built on first use are the Gauss-Legendre rules, exactly
    from numpy.polynomial.legendre import leggauss

    from ordopt._quad import _rules
    gl_x, gl_w = leggauss(16)
    ck_x, ck_w = leggauss(12)
    w16, both_x, both_w = _rules()
    assert _rules() is _rules()
    assert w16.tobytes() == gl_w.tobytes()
    assert both_x.tobytes() == (1.0 + np.concatenate([gl_x, ck_x])).tobytes()
    assert both_w[:16, 0].tobytes() == gl_w.tobytes()
    assert both_w[16:, 1].tobytes() == ck_w.tobytes()
    assert not both_w[:16, 1].any() and not both_w[16:, 0].any()
