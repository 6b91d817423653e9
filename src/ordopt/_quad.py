"""One composite Gauss-Legendre quadrature, in numpy, for the whole library.

Every integral here is a sum over panels between sorted cuts. Each panel
carries the 16-point Gauss-Legendre rule, and the 12-point rule on the same
panels checks it: the sum over panels of |I16 - I12| is the error estimate
returned next to each value (composite Gauss rules, Davis and Rabinowitz,
Methods of Numerical Integration, ch. 2 and 4). It estimates the error of
the check rule, so it bounds that of the 16-point value generously. An
estimate above 1e-10 of the value warns with a QuadratureWarning naming
the integral. Two sets of panels cover every integral:

- the node table of a density model (node_table, table_cuts): panels
  between quantile breakpoints over the whole line, out to tail
  probabilities of 1e-300 on both sides;
- tail panels (tail_cuts, log_tail_integral): from a point x0 to
  infinity, widening geometrically from the local e-folding length of the
  integrand at x0, with a density's node-table cuts past x0 kept.

Order, growth and reach are module constants. The two rules are built
once per process, on the first integral, so a process that never
integrates never imports numpy.polynomial. Nothing else is cached across
calls: each call builds its panels and evaluates its integrand once, in
one vectorized call.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

_ORDER = 16
_CHECK_ORDER = 12
_TOL = 1e-10

# node table: logit-spaced core panels, equal-width span panels, and tail
# steps in logit that widen by _TABLE_GROWTH out to _REACH_LOGIT
_CORE_PANELS = 48
_SPAN_PANELS = 48
_CORE_LOGIT = math.log(1e14)
_TABLE_GROWTH = 1.25
_REACH_LOGIT = math.log(1e300)

# tail panels: the first is half the local e-folding length wide, each
# next one _TAIL_GROWTH times wider, _TAIL_PANELS of them, so they reach
# 2^120 - 1 first widths past x0
_TAIL_GROWTH = 2.0
_TAIL_PANELS = 120
_TAIL_STEPS = ((_TAIL_GROWTH ** np.arange(_TAIL_PANELS + 1.0) - 1.0)
               / (_TAIL_GROWTH - 1.0))


class QuadratureWarning(RuntimeWarning):
    """A quadrature's error estimate exceeds 1e-10 of its value."""


@functools.cache
def _rules():
    """(w16, both_x, both_w), built once per process: the 16-point
    weights, both rules' abscissae shifted to [0, 2] (16-point, then
    12-point), and the weights that sum a panel's values by the 16-point
    rule (column 0) and the 12-point rule (column 1)."""
    from numpy.polynomial.legendre import leggauss
    gl_x, gl_w = leggauss(_ORDER)
    ck_x, ck_w = leggauss(_CHECK_ORDER)
    both_w = np.zeros((_ORDER + _CHECK_ORDER, 2))
    both_w[:_ORDER, 0] = gl_w
    both_w[_ORDER:, 1] = ck_w
    return gl_w, 1.0 + np.concatenate([gl_x, ck_x]), both_w


def _table_probabilities():
    """Lower-tail probabilities of the node table's breakpoints, from 1/2
    down to 1e-300: logit-spaced over the core, then in logit steps that
    widen geometrically. The same for every model."""
    step = 2.0 * _CORE_LOGIT / _CORE_PANELS
    t = [-_CORE_LOGIT + step * k for k in range(_CORE_PANELS // 2 + 1)]
    edge = -_CORE_LOGIT
    while edge > -_REACH_LOGIT:
        step *= _TABLE_GROWTH
        edge = max(edge - step, -_REACH_LOGIT)
        t.append(edge)
    return 1.0 / (1.0 + np.exp(-np.array(t)))


_TABLE_Q = _table_probabilities()


def table_cuts(model):
    """Breakpoints of a density model's node table, sorted and unique.
    Quantile breakpoints sit at logit-spaced probabilities in the core
    [1e-14, 1 - 1e-14] and widen geometrically in logit out to tail
    probabilities of 1e-300, each taken as Q(q) or Q(1 - q) from its tail
    probability q. Equal-width breakpoints across the core bound the
    panels where the density is low, such as between the modes of a
    mixture. A model with a table_cuts method of its own supplies them."""
    own = getattr(model, "table_cuts", None)
    if own is not None:
        return own()
    lower = model.quantile(_TABLE_Q)
    upper = model.upper_quantile(_TABLE_Q)
    span = np.linspace(lower[0], upper[0], _SPAN_PANELS + 1)
    return sorted_unique(np.clip(np.concatenate([lower, upper, span]),
                                 *model.support()))


def sorted_unique(*parts):
    """np.unique of the 1-D arrays' concatenation, which is never empty,
    by its own sort and mask: np.unique imports numpy.ma on its first call
    (10.5 ms with numpy 2.4). Gaussian and mixture models gain nothing, as
    scipy.special imports numpy.ma itself."""
    x = np.sort(np.concatenate(parts))
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def node_table(model):
    """Nodes x and weights p = (Gauss-Legendre weight) * pdf(x) > 0 of a
    density model: the 16-point rule on every panel of table_cuts."""
    x, half = _rule_nodes(table_cuts(model))
    x = x[:, :_ORDER].ravel()
    with np.errstate(under="ignore"):
        p = (half[:, None] * _rules()[0]).ravel() * np.exp(model.logpdf(x))
    return x[p > 0], p[p > 0]


def _rule_nodes(cuts):
    """The nodes of both rules on every panel between cuts, one row per
    panel (16-point nodes, then 12-point ones), and the half-widths."""
    half = 0.5 * np.diff(cuts)
    return cuts[:-1, None] + half[:, None] * _rules()[1], half


def _rule_sums(v, half):
    """Per panel, (I16, I12) from the values v of f at _rule_nodes."""
    sums = (v @ _rules()[2]) * half[:, None]
    return sums[:, 0], sums[:, 1]


def _warn(name, err, scale):
    warnings.warn(f"{name}: quadrature error estimate {err:.3g} exceeds "
                  f"{_TOL:g} of {scale:.6g}", QuadratureWarning, stacklevel=3)


def integrate(f, cuts, name):
    """(I, err) for I the integral of the vectorized f over [cuts[0],
    cuts[-1]], on the panels between the sorted cuts; err is the error
    estimate. It warns when err exceeds 1e-10 of the integral of |f|."""
    x, half = _rule_nodes(cuts)
    v = np.asarray(f(x), dtype=float)
    i16, i12 = _rule_sums(v, half)
    value = float(i16.sum())
    err = float(np.abs(i16 - i12).sum())
    scale = float(half @ (np.abs(v[:, :_ORDER]) @ _rules()[0]))
    if err > _TOL * scale:
        _warn(name, err, scale)
    return value, err


def tail_cuts(logf, x0, table=()):
    """Cuts of the tail panels from x0 for the log-integrand logf, with the
    cuts in table right of x0 added, or None where logf(x0) is not finite.
    The first panel is half the local e-folding length of the integrand
    wide, 1 / max(|slope|, sqrt|curvature|, 1 / max(1, |x0|)), taken from
    logf at x0, x0 + d and x0 + 2d with d = 1e-4 max(1, |x0|); each next
    panel is twice as wide as the one before, and 120 of them reach 2^120
    - 1 (about 1.3e36) first widths past x0. Those panels widen past any later bump
    of the integrand, such as a far mode of a mixture; a density's node
    table as the table keeps the bump's quantile breakpoints as cuts."""
    d = 1e-4 * max(1.0, abs(x0))
    l0, l1, l2 = np.asarray(logf(x0 + d * np.arange(3.0)), dtype=float)
    if not math.isfinite(l0):
        return None
    with np.errstate(invalid="ignore"):
        scale = max(abs(l1 - l0) / d, math.sqrt(abs(l2 - 2.0 * l1 + l0)) / d,
                    1.0 / max(1.0, abs(x0)))
    table = np.asarray(table, dtype=float)
    return sorted_unique(x0 + (0.5 / scale) * _TAIL_STEPS, table[table > x0])


def log_tail_integral(logf, x0, name, table=()):
    """(log I, err) for I = int_{x0}^inf exp(logf(x)) dx, with logf
    vectorized and finite just right of x0, and err the error estimate of
    log I (that of I over I).

    The panels are tail_cuts(logf, x0, table). The integrand is shifted by
    the largest logf at the nodes, so I can underflow (or overflow)
    without harm. The last panel's share is added to err, as the tail
    beyond it is of that size for a power law. It warns when err exceeds
    1e-10 max(1, |log I|).
    """
    cuts = tail_cuts(logf, x0, table)
    if cuts is None:
        return -math.inf, 0.0
    x, half = _rule_nodes(cuts)
    with np.errstate(over="ignore", invalid="ignore"):
        lv = np.asarray(logf(x), dtype=float)
    top = float(lv.max())
    with np.errstate(under="ignore", invalid="ignore"):
        i16, i12 = _rule_sums(np.exp(lv - top), half)
    value = float(i16.sum())
    if not value > 0.0:
        return -math.inf, 0.0
    err = float((np.abs(i16 - i12).sum() + abs(i16[-1])) / value)
    log_value = top + math.log(value)
    if err > _TOL * max(1.0, abs(log_value)):
        _warn(name, err, max(1.0, abs(log_value)))
    return log_value, err
