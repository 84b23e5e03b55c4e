"""Planar fields, angular profiles, and text-format persistence.

Three kinds of evaluable scalar field on the unit disk:

* closed-form test fields (a callable with an exact gradient),
* homogeneous lifts  u(r, theta) = r^gamma * phi(theta)  built from a
  periodic :class:`AngularProfile`,
* raw grid samples on [-1, 1]^2 with finite-difference gradients.

Any field is sampled on a grid by ``_sample_grid``, in cache-sized bands of
rows; ``GridField.sample`` and the nodal extraction and detection share it.
It asks for values alone, one ``_tensor`` call per band on the band's row and
column coordinates: the base class evaluates the meshgrid, a
:class:`GridField` computes its interpolation weights once per axis and
broadcasts them, with the pointwise operations in their order, so the values
are the same to the bit.  Gradients are never sampled on a grid; detection
asks ``value_and_grad`` only at its candidate pixels, which relies on every
field's ``value_and_grad`` returning the value of its ``__call__``.
The rings of the quadrature ladder, the Fourier circle and the probe ring
(``_probe_ring``) are sampled at their Cartesian points by ``_sample_rings``.
A field that is r^gamma phi(theta) about the origin says so through ``separated``:
a :class:`HomogeneousField` and the harmonic monomials of
:func:`monomial_field` do, every other field returns None.  The quadrature
ladder (``functionals._ladder``) is the one reader of that form: centred at
the origin, such a field is integrated in closed form, from angular sums on
the ladder's angles times powers of r (every ladder row agreed with the
Cartesian rings to 6.7e-16 of its largest magnitude on u_k and the
monomials of degree 1 to 5).

Profiles are interpolated with a periodic Catmull-Rom cubic so evaluation is
C^1, which the glued circle profiles require.  The cubic coefficients of every
sample interval, for values and derivative together, are built once when an
:class:`AngularProfile` is made, as rows (a, b, c, d); an evaluation is then
one gather of whole rows and one Horner step, and ``value_and_prime`` finds
each angle's interval once for both planes.  The profile keeps read-only
copies of its sample arrays, so the table cannot go stale.  Files use the
versioned text container ``NODALLAB v1`` with 17-significant-digit decimal
samples, so a save/load round trip is bit exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .params import ProblemParams

FORMAT_MAGIC = "NODALLAB"
FORMAT_VERSION = "v1"


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
        x = np.asarray(theta, dtype=float) * n / (2.0 * np.pi)
        # x mod n as numpy's remainder rounds it, without its slower divmod;
        # fmod is exact, so where every |x| < n (arctan2 angles) it is skipped
        if not (np.abs(x) < n).all():
            x = np.fmod(x, n)
        x += n * (x < 0)
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

    def scale(self) -> float:
        return float(np.max(np.abs(self.values))) or 1.0


class PlanarField:
    """Base interface: the value alone, or value and gradient together, at
    points of the unit disk."""

    params: ProblemParams

    def __call__(self, x, y):
        raise NotImplementedError

    def value_and_grad(self, x, y):
        """``(u, (u_x, u_y))`` at the points."""
        raise NotImplementedError

    def separated(self, theta):
        """``(gamma, phi, phi')`` on ``theta`` when the field is r^gamma phi(theta)
        about the origin; None for a field that declares no such form."""
        return None

    def _tensor(self, x, y):
        """The value alone at (x[i], y[j]), shaped (len x, len y); the grid
        sampler's one call per band.  Here the points of the meshgrid."""
        X, Y = np.meshgrid(x, y, indexing="ij")
        return self(X, Y)

    def scale(self) -> float:
        """Crude magnitude estimate, used for relative tolerances."""
        m = float(np.max(np.abs(_probe_ring(self))))
        return m if m > 0 else 1.0

    @property
    def noise(self) -> float:
        """Bound on the error of u for the quadrature ladder: 2 pi r noise^2 is 1e-14 scale^2 r."""
        return self.scale() * np.sqrt(1e-14 / (2.0 * np.pi))


class ClosedFormField(PlanarField):
    """Test field from explicit value/gradient callables (vectorized over numpy arrays)."""

    def __init__(self, f, gradf, params=None):
        self.f = f
        self.gradf = gradf
        self.params = params if params is not None else ProblemParams(q=1.0, mu=0.0)

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
        self.params = params or profile.params or ProblemParams(q=1.0, mu=0.0)

    @staticmethod
    def _polar(x, y):
        """The radius and angle of the points."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.hypot(x, y), np.arctan2(y, x)

    def __call__(self, x, y):
        r, th = self._polar(x, y)
        return r**self.gamma * self.profile(th)

    def value_and_grad(self, x, y):
        r, th = self._polar(x, y)
        phi, dphi = self.profile.value_and_prime(th)
        with np.errstate(divide="ignore", invalid="ignore"):
            r_g1 = r ** (self.gamma - 1.0)
            u_r = self.gamma * r_g1 * phi
            u_t_over_r = r_g1 * dphi
        # gradient vanishes at the origin whenever gamma > 1
        u_r = np.where(r > 0, u_r, 0.0)
        u_t_over_r = np.where(r > 0, u_t_over_r, 0.0)
        ct, st = np.cos(th), np.sin(th)
        return r**self.gamma * phi, (u_r * ct - u_t_over_r * st, u_r * st + u_t_over_r * ct)

    def separated(self, theta):
        return (self.gamma, *self.profile.value_and_prime(theta))

    def scale(self) -> float:
        return self.profile.scale()


class GridField(PlanarField):
    """Samples on the uniform n x n grid over [-1, 1]^2, bilinear evaluation.

    Gradients use central differences in the interior and second-order
    one-sided stencils at the boundary, then bilinear interpolation.
    """

    def __init__(self, values: np.ndarray, params=None):
        # C-ordered, so the flat gathers in ``_blend`` never copy
        values = np.ascontiguousarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("grid values must be a square 2-d array")
        if values.shape[0] < 3:
            raise ValueError("grid needs at least 3 samples per side")
        self.values = values
        self.n = values.shape[0]
        self.h = 2.0 / (self.n - 1)
        self.params = params or ProblemParams(q=1.0, mu=0.0)

    # the full-grid gradients are built on the first ``value_and_grad``, the
    # only reader, so a grid that is only sampled or extracted never pays them
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
        """Lower node index and offset of each coordinate on one grid axis."""
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > 1 + 1e-12):
            raise DomainError("point outside the grid hull [-1,1]^2")
        f = np.clip((x + 1.0) / self.h, 0, self.n - 1 - 1e-12)
        i = f.astype(int)
        return i, f - i

    def _weights(self, x, y):
        """Flat lower-left cell index and in-cell offsets of the points, for ``_blend``."""
        i, sx = self._axis_weights(x)
        j, sy = self._axis_weights(y)
        return i * self.n + j, sx, sy

    def _blend(self, arr, k, sx, sy):
        # bilinear interpolation of the samples arr at the weighted points:
        # v00 (1 - sx)(1 - sy) + v10 sx (1 - sy) + v01 (1 - sx) sy + v11 sx sy,
        # multiplied and summed left to right, in place so each corner term
        # allocates one array.  The corners (i, j), (i + 1, j), (i, j + 1),
        # (i + 1, j + 1) are the flat indices k, k + n, k + 1, k + n + 1 of
        # the C-ordered samples, taken as k from views that start n, 1 and
        # n + 1 samples later
        flat = arr.ravel()
        n = self.n
        tx, ty = 1 - sx, 1 - sy
        out = flat.take(k)
        out *= tx
        out *= ty
        for start, wx, wy in ((n, sx, ty), (1, tx, sy), (n + 1, sx, sy)):
            term = flat[start:].take(k)
            term *= wx
            term *= wy
            out += term
        return out

    def __call__(self, x, y):
        return self._blend(self.values, *self._weights(x, y))

    def value_and_grad(self, x, y):
        w = self._weights(x, y)
        return self._blend(self.values, *w), (self._blend(self._gx, *w), self._blend(self._gy, *w))

    def _tensor(self, x, y):
        # the weights of each axis once, broadcast over the band: the same
        # operations in the same order as ``__call__`` on the meshgrid
        i, sx = self._axis_weights(x)
        j, sy = self._axis_weights(y)
        return self._blend(self.values, i[:, None] * self.n + j, sx[:, None], sy)

    @classmethod
    def sample(cls, f: PlanarField, n: int):
        """``f`` on the n x n grid over [-1, 1]^2, with ``f.params``."""
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
    outside ``inside``.  A band is one ``field._tensor`` call on its row and
    column coordinates, so no n x n coordinate arrays are built; a
    :class:`GridField` computes its interpolation weights once per axis there.
    """
    n = len(xs)
    V = np.zeros((n, n))
    rows = max(1, _BAND_POINTS // n)
    for r0 in range(0, n, rows):
        cols = np.flatnonzero(inside[r0:r0 + rows].any(axis=0))
        if len(cols) == 0:
            continue
        band = np.s_[r0:r0 + rows, cols[0]:cols[-1] + 1]
        V[band] = field._tensor(xs[band[0]], xs[band[1]])
    return V


def _angles(n):
    """The n uniform angles 2 pi j / n, j = 0..n-1."""
    return 2.0 * np.pi * np.arange(n) / n


def _sample_rings(field, x0, rho, theta, grad=False):
    """The field, or ``field.value_and_grad`` when ``grad``, at
    x0 + rho[i] (cos theta[j], sin theta[j]), shaped (len rho, len theta)."""
    rho = np.asarray(rho, dtype=float)
    X, Y = x0[0] + np.outer(rho, np.cos(theta)), x0[1] + np.outer(rho, np.sin(theta))
    return field.value_and_grad(X, Y) if grad else field(X, Y)


def _probe_ring(field, grad=False):
    """``_sample_rings`` on the ring r = 0.7 about the origin, at 64 angles,
    which sets a field's ``scale`` and the gradient scale of detection."""
    return _sample_rings(field, (0.0, 0.0), [0.7], _angles(64), grad)


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
    if d < 1:
        raise ValueError("degree must be >= 1")
    if phase not in ("cos", "sin"):
        raise ValueError(f"phase must be 'cos' or 'sin', got {phase!r}")
    return _HarmonicMonomial(d, phase == "cos")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


_FMT = "%.17g"  # round-trip decimal spelling of every float in the files


def _fmt(x: float) -> str:
    return _FMT % float(x)


def _fmt_line(values) -> str:
    """The samples as one line of space-separated ``_fmt`` decimals."""
    vals = np.asarray(values, dtype=float).tolist()
    return " ".join([_FMT] * len(vals)) % tuple(vals)


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
        lines += [f"n_theta={profile.n_theta}", _fmt_line(profile.values),
                  _fmt_line(profile.derivative)]
    elif isinstance(obj, GridField):
        lines.append(f"{FORMAT_MAGIC} {FORMAT_VERSION} grid")
        lines += _params_lines(obj.params)
        lines.append(f"n={obj.n}")
        lines += [_fmt_line(row) for row in obj.values]
    else:
        raise TypeError(f"cannot save object of type {type(obj).__name__}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _params_lines(params):
    if params is None:
        return []
    return [
        f"q={_fmt(params.q)}",
        f"lambda_plus={_fmt(params.lambda_plus)}",
        f"lambda_minus={_fmt(params.lambda_minus)}",
        f"mu={_fmt(params.mu)}",
    ]


def _parse_floats(line: str, lineno: int, expected: int) -> np.ndarray:
    try:
        arr = np.array([float(t) for t in line.split()])
    except ValueError:
        raise ParseError(f"line {lineno}: malformed number")
    if len(arr) != expected:
        raise ParseError(f"line {lineno}: expected {expected} samples, got {len(arr)}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"line {lineno}: non-finite sample")
    return arr


def _construct(cls, lineno, *args):
    """``cls(*args)``, with a rejected value reported as a ParseError at ``lineno``."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


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
        profile = _construct(AngularProfile, i + 1, values, deriv, params)
        if kind == "profile":
            return profile
        try:
            gamma = float(meta["gamma"])
        except (KeyError, ValueError):
            raise ParseError("header: missing gamma for homogeneous field")
        return _construct(HomogeneousField, i, gamma, profile, params)
    if kind == "grid":
        try:
            n = int(meta["n"])
        except (KeyError, ValueError):
            raise ParseError(f"line {i}: missing n")
        if len(lines) - i < n:
            raise ParseError(f"line {len(lines)}: expected {n} sample rows")
        rows = [_parse_floats(lines[i + j], i + j + 1, n) for j in range(n)]
        return _construct(GridField, i + 1, np.array(rows), params)
    raise ParseError(f"line 1: unknown kind {kind!r}")


@dataclass
class NodalSet:
    """Zero-set polyline segments.

    ``segments`` is a float array of shape (m, 2, 2): ``segments[s, e]`` is the
    point (x, y) of end e of segment s.  Any nested sequence of that layout,
    such as a list of ((x1, y1), (x2, y2)) pairs, is converted on construction.
    """

    segments: np.ndarray = field(default_factory=list)

    def __post_init__(self):
        self.segments = np.asarray(self.segments, dtype=float).reshape(-1, 2, 2)

    def __eq__(self, other):
        # the generated comparison would ask an array for its truth value
        if not isinstance(other, NodalSet):
            return NotImplemented
        return np.array_equal(self.segments, other.segments)

    def save_csv(self, path):
        with open(path, "w") as fh:
            fh.write("x1,y1,x2,y2\n")
            for x1, y1, x2, y2 in self.segments.reshape(-1, 4).tolist():
                fh.write(f"{_fmt(x1)},{_fmt(y1)},{_fmt(x2)},{_fmt(y2)}\n")
