"""Planar fields, angular profiles, and text-format persistence.

Three kinds of evaluable scalar field on the unit disk:

* closed-form test fields (a callable with an exact gradient),
* homogeneous lifts  u(r, theta) = r^gamma * phi(theta)  built from a
  periodic :class:`AngularProfile`,
* raw grid samples on [-1, 1]^2 with finite-difference gradients.

Any field is sampled on a grid by ``_sample_grid``, in cache-sized bands of
rows; ``GridField.sample`` and the nodal extraction and detection share it.
It asks for values alone, one ``__call__`` per band on the band's row
coordinates as a column and its column coordinates as a row.  Every field
evaluates broadcast coordinates with the operations it applies to a
meshgrid, so the values are the same to the bit, and no n x n coordinate
arrays are built: a :class:`HomogeneousField` takes r^gamma as
(x^2 + y^2)^(gamma/2), with no ``hypot`` (hypot(x, y)^gamma only where
x^2 + y^2 is below the smallest normal double), and a :class:`GridField`
computes its interpolation weights once per axis and blends two grid rows
per band row.
Gradients are never sampled on a grid: detection reads |grad u| as central
differences of its value sample and asks no field for a gradient.
The rings of the quadrature ladder are sampled at their Cartesian points by
``_sample_rings``, for the value alone on a circles-only pass and with
``value_and_grad`` on a bulk pass; the two agree because every field's
``value_and_grad`` returns the value of its ``__call__``.  Detection calls a
field only on its grid.
A field that is r^gamma phi(theta) about the origin says so through ``separated``:
a :class:`HomogeneousField` and the harmonic monomials of
:func:`monomial_field` do, every other field returns None.  The quadrature
ladder (``functionals._ladder``) is the one reader of that form: centred at
the origin, such a field is integrated in closed form, from angular sums on
the ladder's angles times powers of r (every ladder row agreed with the
Cartesian rings to 6.7e-16 of its largest magnitude on u_k and the
monomials of degree 1 to 5).  The sums are read once per field and params
and kept on the field, keyed by its ``params``: a reassigned ``params`` is
read afresh, and a field's separated form must not change otherwise.
A field's ``noise`` bounds the error of its values for the quadrature
ladder; None means exact to rounding, and only a :class:`GridField` declares
one.  A formula field that loses more than rounding (cancellation) must too,
and a wrapper must forward the wrapped field's, or it is held to rounding.

Profiles are interpolated with a periodic Catmull-Rom cubic so evaluation is
C^1, which the glued circle profiles require.  The cubic coefficients of every
sample interval, for values and derivative together, are built once when an
:class:`AngularProfile` is made, as rows (a, b, c, d); an evaluation is then
one gather of whole rows and one Horner step, and ``value_and_prime`` finds
each angle's interval once for both planes.  The profile keeps read-only
copies of its sample arrays, so the table cannot go stale.  Files use the
versioned text container ``NODALLAB v1`` with 17-significant-digit decimal
samples, so a save/load round trip is bit exact; a line after the samples
is refused.  One vectorised writer, ``_fmt_rows``, spells every sample of
the files and of the CSV outputs with the bytes of ``_fmt`` (``%.17g``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .params import ProblemParams

FORMAT_MAGIC = "NODALLAB"
FORMAT_VERSION = "v1"
_LAPLACE = ProblemParams(q=1.0, mu=0.0)  # the params of a field given none; frozen, so shared
_TINY = np.finfo(float).tiny  # the smallest normal double


class DomainError(ValueError):
    """Evaluation point outside the field's domain."""


class ParseError(ValueError):
    """Malformed input file (NODALLAB, config, or plot's CSV or JSON); the message says what is wrong."""


@dataclass
class AngularProfile:
    """2*pi-periodic function phi sampled on the uniform grid theta_j = 2*pi*j/n.

    Evaluated by the periodic Catmull-Rom cubic of its samples: the table
    ``_coef`` of shape (2, n + 1, 4) holds the cubic's coefficients a, b, c, d
    of every interval as one row, for the values (plane 0) and the derivative
    samples (plane 1), so an evaluation gathers one row per angle.
    """

    values: np.ndarray
    derivative: np.ndarray
    params: ProblemParams | None = None

    def __post_init__(self):
        # private read-only copies: the coefficient table below is built from
        # them once, so an in-place write would leave it stale
        self.values = np.array(self.values, dtype=float)
        self.derivative = np.array(self.derivative, dtype=float)
        if self.values.ndim != 1 or self.values.shape != self.derivative.shape:
            raise ValueError("values and derivative must be 1-d arrays of equal length")
        n = len(self.values)
        if n < 16:
            raise ValueError("profile needs at least 16 samples")
        self.values.flags.writeable = False
        self.derivative.flags.writeable = False
        # Catmull-Rom cubic (tension 1/2) of each interval [j, j+1], for values
        # and derivative together; column j of p_i is sample j + i - 1 mod n,
        # and j runs to n because x mod n can round up to n (theta = -1e-300)
        p = np.stack((self.values, self.derivative))
        p = np.concatenate((p[:, -1:], p, p[:, :3]), axis=1)
        p0, p1, p2, p3 = (p[:, i:i + n + 1] for i in range(4))
        a = -0.5 * p0 + 1.5 * p1 - 1.5 * p2 + 0.5 * p3
        b = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3
        c = 0.5 * (p2 - p0)
        d = p1
        # shape (2, n + 1, 4): row j of the value or derivative plane holds the
        # interval's a, b, c, d, so one gather along the rows fetches all four
        self._coef = np.stack((a, b, c, d), axis=-1)
        self._coef.flags.writeable = False

    @property
    def n_theta(self) -> int:
        return len(self.values)

    def _locate(self, theta):
        """Interval index and in-interval offset of each angle."""
        n = self.n_theta
        # theta * n / (2 pi); the product is a new array, divided in place
        x = np.asarray(theta, dtype=float) * n
        x /= 2.0 * np.pi
        # x mod n as numpy's remainder rounds it, without its slower divmod;
        # fmod is exact, so where every |x| < n (arctan2 angles) it is skipped.
        # A NaN fails both tests, and the initial values let an empty x pass
        if not (x.min(initial=0.0) > -n and x.max(initial=0.0) < n):
            x = np.fmod(x, n)
        # a float addend, not the int n * (x < 0), so the add needs no cast;
        # a masked add is a little faster on sorted angles but 6x slower on
        # angles in random order
        x += (x < 0) * float(n)
        j = np.floor(x)
        return j.astype(np.intp), x - j

    @staticmethod
    def _horner(rows, s):
        """The cubics of the gathered ``rows`` (a, b, c, d last) at offsets ``s``."""
        a, b, c, d = rows[..., 0], rows[..., 1], rows[..., 2], rows[..., 3]
        # in place, so the step allocates one array
        out = a * s
        out += b
        out *= s
        out += c
        out *= s
        out += d
        return out

    def __call__(self, theta):
        j, s = self._locate(theta)
        # "clip" sends the index of a NaN angle to an end row, where s = NaN
        # gives NaN; every other index is already in range
        return self._horner(self._coef[0].take(j, axis=0, mode="clip"), s)

    def value_and_prime(self, theta):
        j, s = self._locate(theta)
        both = self._horner(self._coef.take(j, axis=1, mode="clip"), s)
        return both[0], both[1]


class PlanarField:
    """Base interface: the value alone, or value and gradient together, at
    points of the unit disk."""

    params: ProblemParams
    # bound on the absolute error of u for the quadrature ladder; None means
    # exact to rounding, a relative error ``functionals.ROUNDING`` on each circle
    noise: float | None = None
    _angular_sums = None  # ``functionals._angular_sums``' memo: (params, its four numbers)

    def __call__(self, x, y):
        """The value at the points.  ``x`` and ``y`` broadcast against each
        other, and a row and a column give the values of their meshgrid to
        the bit: the grid sampler calls a field that way."""
        raise NotImplementedError

    def value_and_grad(self, x, y):
        """``(u, (u_x, u_y))`` at the points."""
        raise NotImplementedError

    def separated(self, theta):
        """``(gamma, phi, phi')`` on ``theta`` when the field is r^gamma phi(theta)
        about the origin; None for a field that declares no such form."""
        return None


class ClosedFormField(PlanarField):
    """Test field from explicit value/gradient callables (vectorized over numpy arrays)."""

    def __init__(self, f, gradf, params=None):
        self.f = f
        self.gradf = gradf
        self.params = params if params is not None else _LAPLACE

    def __call__(self, x, y):
        return self.f(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def value_and_grad(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.f(x, y), self.gradf(x, y)


class HomogeneousField(PlanarField):
    """Homogeneous lift u = r^gamma * phi(theta) of an angular profile."""

    def __init__(self, gamma: float, profile: AngularProfile, params=None):
        # written so that NaN fails the test
        if not 0.0 < gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        self.gamma = float(gamma)
        self.profile = profile
        self.params = params or profile.params or _LAPLACE

    @staticmethod
    def _polar(x, y):
        """The squared radius s = x^2 + y^2 of the points, their angle, and
        their tiny points: where s is below the smallest normal double the
        squares have lost precision (below 1e-162 they are 0), so these
        points keep hypot(x, y) as their radius.  The origin is not one:
        there s = 0 = hypot(x, y), so s^(p/2) is hypot(x, y)^p for every p.
        ``tiny`` is the mask of the tiny points and their hypot (the origin
        among them when others are there too, to the same effect), or None
        when there are none.  s is a fresh array, or a scalar for a single
        point without tiny points.  The points are in the unit disk: beyond
        |x| or |y| of 1e154 s overflows."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        s = x * x + y * y
        tiny = None
        # a reduction allocates nothing; the mask and hypot only where it
        # finds a tiny point: 0 < s < _TINY, or s = 0 off the origin
        lo = s.min(initial=np.inf)
        if lo < _TINY and (lo > 0 or x.any() or y.any()):
            s = np.asarray(s)  # a single point too, so that it can take the mask
            mask = s < _TINY
            bx, by = np.broadcast_arrays(x, y)
            tiny = mask, np.hypot(bx[mask], by[mask])
        return s, np.arctan2(y, x), tiny

    @staticmethod
    def _radius_power(s, tiny, p):
        """r^p from ``_polar``'s s and tiny points, in place on an array s:
        s^(p/2), and hypot(x, y)^p at the tiny points."""
        s **= 0.5 * p
        if tiny is not None:
            s[tiny[0]] = tiny[1] ** p
        return s

    def __call__(self, x, y):
        s, th, tiny = self._polar(x, y)
        # in place on the fresh squared radius, so the lift allocates nothing more
        u = self._radius_power(s, tiny, self.gamma)
        u *= self.profile(th)
        return u[()]

    def value_and_grad(self, x, y):
        s, th, tiny = self._polar(x, y)
        phi, dphi = self.profile.value_and_prime(th)
        # r > 0: a point of s = 0 is a tiny point, whose hypot decides; an
        # array also for a single point, so that it can take the tiny points
        pos = np.asarray(s > 0)
        if tiny is not None:
            pos[tiny[0]] = tiny[1] > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            r_g1 = self._radius_power(s.copy(), tiny, self.gamma - 1.0)
            u_r = self.gamma * r_g1 * phi
            u_t_over_r = r_g1 * dphi
        # gradient vanishes at the origin whenever gamma > 1
        u_r = np.where(pos, u_r, 0.0)
        u_t_over_r = np.where(pos, u_t_over_r, 0.0)
        ct, st = np.cos(th), np.sin(th)
        u = self._radius_power(s, tiny, self.gamma)
        u *= phi
        return u[()], (u_r * ct - u_t_over_r * st, u_r * st + u_t_over_r * ct)

    def separated(self, theta):
        return (self.gamma, *self.profile.value_and_prime(theta))


class GridField(PlanarField):
    """Samples on the uniform n x n grid over [-1, 1]^2, bilinear evaluation.

    The blend is a lerp of lerps along x:
    (1 - sy) ((1 - sx) v00 + sx v10) + sy ((1 - sx) v01 + sx v11).  Points
    are blended one by one from four flat gathers (``_blend``), except for
    the grid sampler's call shape, a column of x against a row of y: there
    the two grid rows under each output row are blended along x once over
    the band's columns, and two column gathers of that are blended along y
    (``_band``).  Both paths make the same products and sums, so they agree
    to the bit, and every node reads back its own sample.

    Gradients use central differences in the interior and second-order
    one-sided stencils at the boundary, then bilinear interpolation.
    """

    def __init__(self, values: np.ndarray, params=None):
        # C-ordered, so the flat gathers in ``_blend`` never copy
        values = np.ascontiguousarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("grid values must be a square 2-d array")
        self._check_side(values.shape[0])
        self.values = values
        self.n = values.shape[0]
        self.h = 2.0 / (self.n - 1)
        self.params = params or _LAPLACE

    @staticmethod
    def _check_side(n):
        if n < 3:
            raise ValueError("grid needs at least 3 samples per side")

    # the full-grid gradients are built on the first ``value_and_grad``, which
    # only the quadrature ladder asks for, so a grid that is only sampled,
    # extracted or searched for singular points never pays them
    @cached_property
    def _gx(self):
        return np.gradient(self.values, self.h, axis=0, edge_order=2)

    @cached_property
    def _gy(self):
        return np.gradient(self.values, self.h, axis=1, edge_order=2)

    @cached_property
    def noise(self):
        """The bilinear bound (max|d2x| + max|d2y|) / 8 on the samples' second
        differences; only the quadrature ladder reads it."""
        return sum(float(np.abs(np.diff(self.values, 2, axis=a)).max()) for a in (0, 1)) / 8.0

    def _axis_weights(self, x):
        """Lower node index and offset of each coordinate on one grid axis.

        The last node is reached from the last cell, at offset 1, so every
        node reads back its own sample."""
        x = np.asarray(x, dtype=float)
        # written so that NaN fails the test
        if not (np.abs(x) <= 1 + 1e-12).all():
            raise DomainError("point outside the grid hull [-1,1]^2")
        f = np.clip((x + 1.0) / self.h, 0, self.n - 1)
        i = np.minimum(f.astype(int), self.n - 2)
        return i, f - i

    def _weights(self, x, y):
        """Flat lower-left cell index and in-cell offsets of the points, for ``_blend``."""
        i, sx = self._axis_weights(x)
        j, sy = self._axis_weights(y)
        return i * self.n + j, sx, sy

    @staticmethod
    def _lerp(a, b, s, t):
        """t a + s b, in place on the fresh arrays ``a`` and ``b``; t = 1 - s."""
        a *= t
        b *= s
        a += b
        return a

    def _blend(self, arr, k, sx, sy):
        # bilinear interpolation of the samples arr at the weighted points, as
        # a lerp of lerps along x: (1 - sy) ((1 - sx) v00 + sx v10)
        # + sy ((1 - sx) v01 + sx v11), the formula of ``_band``.  The
        # corners (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1) are the flat
        # indices k, k + n, k + 1, k + n + 1 of the C-ordered samples, taken
        # as k from views that start n, 1 and n + 1 samples later
        flat = arr.ravel()
        n = self.n
        tx = 1 - sx
        lo = self._lerp(flat.take(k), flat[n:].take(k), sx, tx)
        hi = self._lerp(flat[1:].take(k), flat[n + 1:].take(k), sx, tx)
        return self._lerp(lo, hi, sy, 1 - sy)

    def __call__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim == y.ndim == 2 and x.shape[1] == y.shape[0] == 1 and x.size and y.size:
            return self._band(x[:, 0], y[0])
        return self._blend(self.values, *self._weights(x, y))

    def _band(self, x, y):
        """The values at the meshgrid of the 1-d ``x`` (rows) and ``y``
        (columns), as the grid sampler asks for a band: under each output row
        the two grid rows i and i + 1 are blended along x once, over the
        band's column span, and two column gathers of that blend are blended
        along y.  The same products and sums as ``_blend``, so the same bits."""
        i, sx = self._axis_weights(x)
        j, sy = self._axis_weights(y)
        j0 = int(j.min())
        cols = np.s_[j0:int(j.max()) + 2]
        rows = self._lerp(self.values[i, cols], self.values[i + 1, cols],
                          sx[:, None], (1 - sx)[:, None])
        j -= j0
        return self._lerp(rows.take(j, axis=1), rows.take(j + 1, axis=1), sy, 1 - sy)

    def value_and_grad(self, x, y):
        w = self._weights(x, y)
        return self._blend(self.values, *w), (self._blend(self._gx, *w), self._blend(self._gy, *w))

    @classmethod
    def sample(cls, f: PlanarField, n: int):
        """``f`` on the n x n grid over [-1, 1]^2, with ``f.params``; the
        size is checked before ``f`` is called."""
        cls._check_side(n)
        xs = np.linspace(-1.0, 1.0, n)
        return cls(_sample_grid(f, xs, np.ones((n, n), dtype=bool)), f.params)


# points per field call when sampling a grid: the field's temporaries for one
# band of rows stay cache-sized
_BAND_POINTS = 16384


def _sample_grid(field, xs, inside):
    """The field's value at (xs[i], xs[j]) near ``inside``.

    Rows are evaluated in bands of about ``_BAND_POINTS`` points; each band
    evaluates only the columns between the first and the last where it meets
    ``inside`` and leaves zeros elsewhere, so callers must not read values
    outside ``inside``.  A band is one call of the field on its row
    coordinates as a column and its column coordinates as a row, so no n x n
    coordinate arrays are built.
    """
    n = len(xs)
    V = np.zeros((n, n))
    rows = max(1, _BAND_POINTS // n)
    for r0 in range(0, n, rows):
        cols = np.flatnonzero(inside[r0:r0 + rows].any(axis=0))
        if len(cols) == 0:
            continue
        band = np.s_[r0:r0 + rows, cols[0]:cols[-1] + 1]
        V[band] = field(xs[band[0], None], xs[None, band[1]])
    return V


def _angles(n):
    """The n uniform angles 2 pi j / n, j = 0..n-1."""
    return 2.0 * np.pi * np.arange(n) / n


def _sample_rings(field, x0, rho, theta, grad=False):
    """The field, or ``field.value_and_grad`` when ``grad``, at
    x0 + rho[i] (cos theta[j], sin theta[j]), shaped (len rho, len theta):
    the Cartesian rings of the quadrature ladder."""
    rho = np.asarray(rho, dtype=float)
    X, Y = x0[0] + np.outer(rho, np.cos(theta)), x0[1] + np.outer(rho, np.sin(theta))
    return field.value_and_grad(X, Y) if grad else field(X, Y)


class _HarmonicMonomial(ClosedFormField):
    """Re or Im of z^d, which declares its separated form r^d cos(d theta)
    or r^d sin(d theta)."""

    def __init__(self, d, cos):
        super().__init__(self._value, self._grad)
        self.d, self.cos = d, cos

    def _value(self, x, y):
        z = (x + 1j * y) ** self.d
        return np.real(z) if self.cos else np.imag(z)

    def _grad(self, x, y):
        dz = self.d * (x + 1j * y) ** (self.d - 1)
        return (np.real(dz), -np.imag(dz)) if self.cos else (np.imag(dz), np.real(dz))

    def separated(self, theta):
        c, s = np.cos(self.d * theta), np.sin(self.d * theta)
        return (self.d, c, -self.d * s) if self.cos else (self.d, s, self.d * c)


def monomial_field(d: int, phase: str = "cos") -> ClosedFormField:
    """Harmonic r^d cos(d theta) (the real part of z^d) or, for phase "sin", its sine companion."""
    # a fractional degree's separated form, cos(d theta) on [0, 2 pi), is not
    # the field's, which takes theta on (-pi, pi]
    if not (isinstance(d, numbers.Integral) and d >= 1):
        raise ValueError(f"degree must be an integer >= 1, got {d!r}")
    if phase not in ("cos", "sin"):
        raise ValueError(f"phase must be 'cos' or 'sin', got {phase!r}")
    return _HarmonicMonomial(d, phase == "cos")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


_FMT = "%.17g"  # round-trip decimal spelling of every float in the files


def _fmt(x: float) -> str:
    """The spelling of one float in the files: the definition ``_fmt_rows``
    writes the bytes of, and its fallback."""
    return _FMT % float(x)


_K_MIN, _K_MAX = -256, 307  # the powers 10^k of the writer's table
_X_MIN, _X_MAX = 16 - _K_MAX, 16 - _K_MIN  # the decimal exponents X they scale
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_TIE = 2.0 ** -30  # a scaled fraction this close to 1/2 is left to ``_fmt``
_SLOTS = 46  # sign, "0.000", 17 x (digit, point), "e-308", separator
_BLOCK = 1 << 12  # samples per ``_fmt_block``: its temporaries stay in cache
_DIGIT = np.arange(17, dtype=np.uint8)[:, None]


def _split(a):
    """Veltkamp's split a = hi + lo into halves of at most 26 bits each."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


@cache
def _fmt_tables():
    """The tables of ``_fmt_rows``, built once, on its first call.

    ``pow10``: rows hi, lo and the split halves of hi, where 10^k = hi + lo
    to about 2^-106, for k = _K_MIN.._K_MAX, from exact integer arithmetic.
    ``affix``, a column per decimal exponent X = _X_MIN.._X_MAX: the five
    bytes before the digits ("0." and up to three zeros for -4 <= X < 0)
    and the five after them (the exponent, outside -4 <= X <= 16), padded
    with zero bytes.  ``point``, per X: the digit the point may follow (0 in
    exponent notation), or -1 where the prefix holds it.  ``quad``: the four
    ASCII digits of c as one uint32, for c = 0..9999.
    """
    pow10 = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:  # hi = a / b, so 10^k - hi = (b - a 10^-k) / (b 10^-k)
            d = 10 ** -k
            hi = 1 / d
            a, b = hi.as_integer_ratio()
            lo = (b - a * d) / (b * d)
        pow10.append((hi, lo))
    hi, lo = np.array(pow10).T
    # hi * _SPLIT overflows at 10^307: split hi / 2^64 and scale the halves back
    h1, h2 = _split(hi * 2.0 ** -64)
    pow10 = np.stack((hi, lo, h1 * 2.0 ** 64, h2 * 2.0 ** 64))
    affix, point = b"", []
    for X in range(_X_MIN, _X_MAX + 1):
        fixed = -4 <= X <= 16
        pre = "0." + "0" * (-X - 1) if fixed and X < 0 else ""
        post = "" if fixed else "e%+03d" % X
        affix += (pre.ljust(5, "\0") + post.ljust(5, "\0")).encode()
        point.append(-1 if fixed and X < 0 else X if fixed else 0)
    affix = np.frombuffer(affix, np.uint8).reshape(-1, 10).T
    c = np.arange(10 ** 4, dtype=np.uint16)[:, None]
    quad = (c // np.uint16([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    quad = quad.view(np.uint32)[:, 0]
    return pow10, affix, np.array(point), quad


def _digits(a, X):
    """The 17 digits of each a > 0 at decimal exponent X as one integer
    D = round(a 10^(16 - X)), whether that rounding is uncertain, and the
    error of X: +1 where a 10^(16 - X) < 10^16, -1 where D >= 10^17.

    a 10^k is the exact Dekker product of a and hi plus a lo: within about
    2^-104 of its value, so below 1e-13 for a product under 10^18.  A
    fraction within ``_TIE`` of 1/2, an exact tie among them, is uncertain.
    """
    hi, lo, b1, b2 = _fmt_tables()[0].take(16 - X - _K_MIN, axis=1)
    a1, a2 = _split(a)
    p = a * hi  # an integer wherever X is right: the product is above 2^53
    t = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2 + a * lo
    r = np.rint(t)
    D = p.astype(np.int64) + r.astype(np.int64)
    low = (p < 1e16) | ((p == 1e16) & (t < 0))
    return D, np.abs(np.abs(t - r) - 0.5) < _TIE, low.astype(np.int64) - (D >= 10 ** 17)


def _fmt_rows(rows, sep: str) -> str:
    """The rows of a 2-d float array as lines of ``sep``-separated ``_fmt``
    decimals, each ended by a newline: the bytes of
    ``"".join(sep.join(map(_fmt, row)) + "\n" for row in rows)``.

    The rows are spelled by ``_fmt_block`` in blocks of about ``_BLOCK``
    samples, whole rows each, which keeps its temporaries small; the columns
    of each block's byte matrix are joined and their zero bytes dropped.
    """
    rows = np.asarray(rows, dtype=float)
    step = max(1, _BLOCK // rows.shape[1])
    return b"".join(_fmt_block(rows[i:i + step], sep).T.tobytes().translate(None, b"\0")
                    for i in range(0, len(rows), step)).decode("ascii")


def _fmt_block(rows, sep):
    """The spelling of a 2-d float array by ``_fmt_rows`` as a byte matrix of
    ``_SLOTS`` rows, one column per sample, zero where a slot is unused.

    Each sample gets 17 correctly rounded digits from ``_digits``.  ``_fmt``
    itself spells what the digits cannot certify: NaN, infinities, |x|
    outside [1e-288, 1e270], and near-halfway cases such as 2^-25, whose 18th
    digit is an exact 5.
    """
    x = rows.ravel()
    n = x.size
    a = np.abs(x)
    ok = (a >= 1e-288) & (a <= 1e270)  # NaN fails both
    a[~ok] = 1.0  # zeros spell "1" until mended below, the rest go to _fmt
    X = np.floor(np.log10(a)).astype(np.int64)
    D, unsure, off = _digits(a, X)
    for _ in range(2):  # log10 can miss X by one, and rounding up can carry
        j = np.flatnonzero(off)
        if not j.size:
            break
        X[j] -= off[j]
        D[j], unsure[j], off[j] = _digits(a[j], X[j])
    _, affix, point, quad = _fmt_tables()
    dig = np.empty((17, n), np.uint8)
    dig[0] = D // 10 ** 16 + ord("0")
    for i, m in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1)):  # four digits at a time
        dig[1 + 4 * i:5 + 4 * i] = quad.take(D // m % 10 ** 4).view(np.uint8).reshape(n, 4).T
    xi = X - _X_MIN
    ip = point.take(xi)
    L = (_DIGIT * (dig != ord("0"))).max(axis=0)  # the last nonzero digit
    dig *= _DIGIT <= np.maximum(L, ip).astype(np.uint8)  # trailing zeros go
    M = np.zeros((_SLOTS, n), np.uint8)
    M[0] = np.signbit(x) * np.uint8(ord("-"))
    M[1:6], M[40:45] = np.split(affix.take(xi, axis=1), 2)
    M[6:40:2] = dig
    j = np.flatnonzero((L > ip) & (ip >= 0))
    M[7 + 2 * ip[j], j] = ord(".")
    M[6, x == 0] = ord("0")
    M[45] = ord(sep)
    M[45].reshape(rows.shape)[:, -1] = ord("\n")
    for j in np.flatnonzero((~ok & (x != 0)) | unsure | (off != 0)):
        s = _fmt(x[j]).encode()
        M[:45, j] = 0
        M[:len(s), j] = np.frombuffer(s, np.uint8)
    return M


def save(obj, path) -> None:
    """Write a profile or field to the NODALLAB v1 text container."""
    lines = []
    if isinstance(obj, (AngularProfile, HomogeneousField)):
        homogeneous = isinstance(obj, HomogeneousField)
        kind, profile = ("homogeneous", obj.profile) if homogeneous else ("profile", obj)
        lines.append(f"{FORMAT_MAGIC} {FORMAT_VERSION} {kind}")
        lines += _params_lines(obj.params)
        if homogeneous:
            lines.append(f"gamma={_fmt(obj.gamma)}")
        lines.append(f"n_theta={profile.n_theta}")
        samples = np.stack((profile.values, profile.derivative))
    elif isinstance(obj, GridField):
        lines.append(f"{FORMAT_MAGIC} {FORMAT_VERSION} grid")
        lines += _params_lines(obj.params)
        lines.append(f"n={obj.n}")
        samples = obj.values
    else:
        raise TypeError(f"cannot save object of type {type(obj).__name__}")
    body = _fmt_rows(samples, " ")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write(body)


def _params_lines(params):
    if params is None:
        return []
    return [
        f"q={_fmt(params.q)}",
        f"lambda_plus={_fmt(params.lambda_plus)}",
        f"lambda_minus={_fmt(params.lambda_minus)}",
        f"mu={_fmt(params.mu)}",
    ]


# the largest |sample| of a grid file: the squares of such samples and of
# their difference quotients, at most 2 (n - 1) |v| in the gradient, stay
# finite on any grid that fits in memory, so no quadrature sum overflows
_GRID_LIMIT = 1e100


def _parse_floats(line: str, lineno: int, expected: int, limit=np.inf) -> np.ndarray:
    try:
        arr = np.array([float(t) for t in line.split()])
    except ValueError:
        raise ParseError(f"line {lineno}: malformed number")
    if len(arr) != expected:
        raise ParseError(f"line {lineno}: expected {expected} samples, got {len(arr)}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"line {lineno}: non-finite sample")
    if (np.abs(arr) > limit).any():
        raise ParseError(f"line {lineno}: sample above {limit:g} in magnitude")
    return arr


def _construct(cls, lineno, *args):
    """``cls(*args)``, with a rejected value reported as a ParseError at ``lineno``."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def _check_end(lines, end):
    """Refuse any line after the samples, which end before ``lines[end]``: a
    row written twice would otherwise shift the rows after it and drop the
    last one unseen."""
    if len(lines) > end:
        raise ParseError(f"line {end + 1}: unexpected line after the samples")


def load(path):
    """Read a NODALLAB v1 file back into a profile or field."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ParseError("line 1: empty file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != FORMAT_MAGIC:
        raise ParseError("line 1: bad header")
    if head[1] != FORMAT_VERSION:
        raise ParseError(f"line 1: unsupported version {head[1]!r}")
    kind = head[2]

    meta = {}
    i = 1
    while i < len(lines) and "=" in lines[i]:
        key, _, val = lines[i].partition("=")
        meta[key.strip()] = val.strip()
        i += 1

    params = None
    if "q" in meta:
        try:
            params = ProblemParams(
                q=float(meta["q"]),
                lambda_plus=float(meta["lambda_plus"]),
                lambda_minus=float(meta["lambda_minus"]),
                mu=float(meta["mu"]),
            )
        except (KeyError, ValueError) as exc:
            raise ParseError(f"line {i}: bad parameter block ({exc})")

    if kind in ("profile", "homogeneous"):
        try:
            n_theta = int(meta["n_theta"])
        except (KeyError, ValueError):
            raise ParseError(f"line {i}: missing n_theta")
        if i + 1 >= len(lines):
            raise ParseError(f"line {i + 1}: missing sample lines")
        values = _parse_floats(lines[i], i + 1, n_theta)
        deriv = _parse_floats(lines[i + 1], i + 2, n_theta)
        _check_end(lines, i + 2)
        profile = _construct(AngularProfile, i + 1, values, deriv, params)
        if kind == "profile":
            return profile
        try:
            gamma = float(meta["gamma"])
        except (KeyError, ValueError):
            raise ParseError(f"line {i}: missing gamma")
        return _construct(HomogeneousField, i, gamma, profile, params)
    if kind == "grid":
        try:
            n = int(meta["n"])
        except (KeyError, ValueError):
            raise ParseError(f"line {i}: missing n")
        if len(lines) - i < n:
            raise ParseError(f"line {len(lines)}: expected {n} sample rows")
        rows = [_parse_floats(lines[i + j], i + j + 1, n, _GRID_LIMIT) for j in range(n)]
        _check_end(lines, i + n)
        return _construct(GridField, i + 1, np.array(rows), params)
    raise ParseError(f"line 1: unknown kind {kind!r}")


@dataclass
class NodalSet:
    """Zero-set polyline segments.

    ``segments`` is a float array of shape (m, 2, 2): ``segments[s, e]`` is the
    point (x, y) of end e of segment s.  Any nested sequence of that layout,
    such as a list of ((x1, y1), (x2, y2)) pairs, is converted on construction.
    A NaN or infinite coordinate raises ValueError: a length would read it as
    NaN or drop the segment silently.
    """

    segments: np.ndarray = field(default_factory=list)

    def __post_init__(self):
        self.segments = np.asarray(self.segments, dtype=float).reshape(-1, 2, 2)
        if not np.isfinite(self.segments).all():
            raise ValueError("segments must be finite")

    def __eq__(self, other):
        # the generated comparison would ask an array for its truth value
        if not isinstance(other, NodalSet):
            return NotImplemented
        return np.array_equal(self.segments, other.segments)

    def save_csv(self, path):
        with open(path, "w") as fh:
            fh.write("x1,y1,x2,y2\n")
            fh.write(_fmt_rows(self.segments.reshape(-1, 4), ","))
