"""Special-function kernels used by the closed-form expressions.

Pure-Python ports of the algorithms scipy.special 1.17 evaluates, so the
package needs numpy only and every value keeps scipy's bits:

- K1e, exp(x) K1(x): Cephes k1.c, with its Chebyshev tables A[11] (x <= 2)
  and B[25] (x > 2), i1.c's table A[29] and `chbevl` (S. L. Moshier,
  *Methods and Programs for Mathematical Functions*, 1989);
- J0: Cephes j0.c, with its rational tables RP/RQ (|x| <= 5, written with
  the first two squared zeros DR1, DR2) and PP/PQ, QP/QQ (the asymptotic
  amplitude and phase above 5), SQ2OPI = sqrt(2/pi) and PIO4 = pi/4;
- E1: Zhang & Jin's E1XB (*Computation of Special Functions*, 1996), the
  power series for x <= 1 with Euler's constant as the correctly rounded
  double 0.5772156649015329 (the Fortran literal ...328 is 1 ulp low), and
  the continued fraction above 1.

Each port calls math.exp/log/sqrt/sin/cos wherever the C code calls libm and
keeps the C code's order of operations. Each kernel is one scalar function;
an array argument is evaluated element by element, so the closed forms pass
only the values that differ (`InterferenceLaw` evaluates its kernels on the
receiver's L scaled means). The wrappers pin down domain behaviour (errors
instead of silent nan/inf) so the layers above can rely on it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Cephes k1.c: Chebyshev coefficients of K1(x) - log(x/2) I1(x) - 1/x on
# [0, 2] (argument x*x - 2) and of exp(x) sqrt(x) K1(x) on (2, inf]
# (argument 8/x - 2)
_K1_A = (
    -7.023863479386288e-18, -2.427449850519366e-15, -6.666901694199329e-13,
    -1.4114883926335278e-10, -2.213387630734726e-08, -2.4334061415659684e-06,
    -0.0001730288957513052, -0.006975723859639864, -0.12261118082265715,
    -0.3531559607765449, 1.5253002273389478)
_K1_B = (
    -5.756744483665017e-18, 1.7940508731475592e-17, -5.689462558442859e-17,
    1.838093544366639e-16, -6.057047248373319e-16, 2.038703165624334e-15,
    -7.019837090418314e-15, 2.4771544244813043e-14, -8.976705182324994e-14,
    3.3484196660784293e-13, -1.2891739609510289e-12, 5.13963967348173e-12,
    -2.1299678384275683e-11, 9.218315187605006e-11, -4.1903547593418965e-10,
    2.015049755197033e-09, -1.0345762465678097e-08, 5.7410841254500495e-08,
    -3.5019606030878126e-07, 2.406484947837217e-06, -1.936197974166083e-05,
    0.00019521551847135162, -0.002857816859622779, 0.10392373657681724,
    2.7206261904844427)
# Cephes i1.c: Chebyshev coefficients of exp(-x) I1(x) / x on [0, 8]
# (argument x/2 - 2)
_I1_A = (
    2.7779141127610464e-18, -2.111421214358166e-17, 1.5536319577362005e-16,
    -1.1055969477353862e-15, 7.600684294735408e-15, -5.042185504727912e-14,
    3.223793365945575e-13, -1.9839743977649436e-12, 1.1736186298890901e-11,
    -6.663489723502027e-11, 3.625590281552117e-10, -1.8872497517228294e-09,
    9.381537386495773e-09, -4.445059128796328e-08, 2.0032947535521353e-07,
    -8.568720264695455e-07, 3.4702513081376785e-06, -1.3273163656039436e-05,
    4.781565107550054e-05, -0.00016176081582589674, 0.0005122859561685758,
    -0.0015135724506312532, 0.004156422944312888, -0.010564084894626197,
    0.024726449030626516, -0.05294598120809499, 0.1026436586898471,
    -0.17641651835783406, 0.25258718644363365)

# Cephes j0.c: J0 = (z - DR1)(z - DR2) RP(z)/RQ(z) for z = x*x, x <= 5, and
# sqrt(2/(pi x)) (P cos(x - pi/4) - (5/x) Q sin(x - pi/4)) above, with
# P = PP/PQ and Q = QP/QQ in 25/x^2; RQ and QQ have an implicit leading 1
_J0_PP = (0.0007969367292973471, 0.08283523921074408, 1.239533716464143,
          5.447250030587687, 8.74716500199817, 5.303240382353949, 1.0)
_J0_PQ = (0.0009244088105588637, 0.08562884743544745, 1.2535274390105895,
          5.470977403304171, 8.761908832370695, 5.306052882353947, 1.0)
_J0_QP = (-0.011366383889846916, -1.2825271867050931, -19.553954425773597,
          -93.20601521237683, -177.68116798048806, -147.07750515495118,
          -51.41053267665993, -6.050143506007285)
_J0_QQ = (64.3178256118178, 856.4300259769806, 3882.4018360540163,
          7240.467741956525, 5930.727011873169, 2062.0933166032783,
          242.0057402402914)
_J0_RP = (-4794432209.782018, 1956174919465.5657, -249248344360967.72,
          9708622510473064.0)
_J0_RQ = (499.563147152651, 173785.4016763747, 48440965.83399621,
          11185553704.535683, 2112775201154.892, 310518229857422.56,
          3.1812195594320496e+16, 1.7108629408104315e+18)
_J0_DR1 = 5.783185962946784    # first zero of J0, squared
_J0_DR2 = 30.471262343662087   # second zero of J0, squared
_SQ2OPI = 0.7978845608028654   # sqrt(2/pi)
_PIO4 = 0.7853981633974483     # pi/4

_EULER_GAMMA = 0.5772156649015329

# smallest normal float: below it 1/x overflows and 0.5*x loses bits
_TINY = sys.float_info.min
_K1_DOMAIN = "bessel_k1_scaled requires x >= %r (positive and normal)" % _TINY


def _chbevl(x, coef):
    """Clenshaw sum of a Chebyshev series, as Cephes chbevl."""
    b0, b1, b2 = coef[0], 0.0, 0.0
    for c in coef[1:]:
        b2 = b1
        b1 = b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """`_polevl` with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _k1e(x):
    if x <= 2.0:
        i1 = _chbevl(x / 2.0 - 2.0, _I1_A) * x * math.exp(x)
        y = math.log(0.5 * x) * i1 + _chbevl(x * x - 2.0, _K1_A) / x
        return y * math.exp(x)
    return _chbevl(8.0 / x - 2.0, _K1_B) / math.sqrt(x)


def _j0(x):
    x = abs(x)
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        p = (z - _J0_DR1) * (z - _J0_DR2)
        return p * _polevl(z, _J0_RP) / _p1evl(z, _J0_RQ)
    if x == math.inf:
        # cos(inf) has no value; scipy returns nan here
        raise ValueError("bessel_j0 requires a finite x")
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _p1evl(q, _J0_QQ)
    xn = x - _PIO4
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _SQ2OPI / math.sqrt(x)


def _exp1(x):
    """E1(x) for x > 0 (E1XB)."""
    if x <= 1.0:
        e1 = r = 1.0
        for k in range(1, 26):
            r = -r * k * x / ((k + 1.0) * (k + 1.0))
            e1 += r
            if abs(r) <= abs(e1) * 1e-15:
                break
        return -_EULER_GAMMA - math.log(x) + x * e1
    t0 = 0.0
    for k in range(20 + int(80.0 / x), 0, -1):
        t0 = k / (1.0 + k / (x + t0))
    return math.exp(-x) * (1.0 / (x + t0))


def _e1_scaled(x):
    """exp(x) E1(x): numpy's exp times the E1 port up to 30, the continued
    fraction above."""
    if x <= 30.0:
        return float(np.exp(x)) * _exp1(x)
    return _e1_scaled_cf(x)


def _e1_scaled_cf(x):
    # modified Lentz on the classical continued fraction of E1
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, 200):
        a = -(k * k)
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _apply(kernel, x):
    """kernel(x) as a float for a scalar x, else element by element into an
    array of x's shape."""
    if isinstance(x, float):
        return kernel(float(x))
    xa = np.asarray(x, dtype=float)
    if xa.ndim == 0:
        return kernel(float(xa))
    return np.array([kernel(v) for v in xa.ravel().tolist()], dtype=float).reshape(xa.shape)


def _check_low(x, low, message):
    """Raise ValueError(message) if any entry of x is below low (NaN is not)."""
    if isinstance(x, float):
        below = x < low
    else:
        below = (np.asarray(x, dtype=float) < low).any()
    if below:
        raise ValueError(message)


def bessel_j0(x):
    """Bessel function of the first kind, order zero, for finite x."""
    return _apply(_j0, x)


def bessel_k1_scaled(x):
    """exp(x) * K1(x), stable for large arguments. Requires a normal x > 0:
    below the smallest normal float, K1 ~ 1/x overflows."""
    _check_low(x, _TINY, _K1_DOMAIN)
    return _apply(_k1e, x)


def exp_scaled_gamma_upper_0(x):
    """exp(x) * Gamma(0, x) without overflow, for x > 0.

    Direct exp(x)*exp1(x) degrades once exp1 underflows, so switch to the
    continued fraction exp(x)*E1(x) = 1/(x+1- 1/(x+3- 4/(x+5- ...))) for
    x > 30 (modified Lentz).
    """
    # below the smallest positive float is x <= 0
    _check_low(x, math.ulp(0.0), "exp_scaled_gamma_upper_0 requires x > 0")
    return _apply(_e1_scaled, x)
