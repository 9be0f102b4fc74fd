"""Independent references for the benchmark's correctness checks.

Everything here is computed from textbook formulas or from
``scipy.integrate`` / ``scipy.special``; nothing imports coulomblab.  The
workloads call these functions once per run, outside every timed region.

Run as a command to regenerate every reference of one seed's inputs:

    python3 bench/references.py --seed 7 [--out bench/out/references-7.json]
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import warnings

from scipy import integrate, special

EPSREL = 1e-12


def _quad(f, a, b, points=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, a, b, points=points, epsabs=0.0,
                                epsrel=EPSREL, limit=400)
    return val


def _dblquad(f, a, b, lo, hi):
    """int_a^b dx int_lo^hi dy f(y, x)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.dblquad(f, a, b, lo, hi, epsabs=0.0, epsrel=EPSREL)
    return val


# ------------------------------------------------- background potentials
# A "background" carries total charge -N spread uniformly over the body;
# in 2d its potential is rho * int log|r - x| dA, in 3d -rho * int 1/|r - x|
# dV, in 1d rho * int |x - x'| dx'.

def disk_potential(R, N, p):
    r = math.hypot(p[0], p[1])
    if r <= R:
        return N * (r * r - R * R) / (2.0 * R * R) + N * math.log(R)
    return N * math.log(r)


def annulus_potential(R, c, N, p):
    """Ring of radii cR < r < R; the hole is a shell-theorem constant."""
    r = math.hypot(p[0], p[1])
    rho = N / (math.pi * R * R * (1.0 - c * c))
    a = c * R
    if r >= R:
        return N * math.log(r)
    # potential of the full disk minus that of the hole disk
    hole_n = rho * math.pi * a * a
    full_n = rho * math.pi * R * R
    return disk_potential(R, full_n, p) - disk_potential(a, hole_n, p)


def ball3_potential(R, N, p):
    r = math.sqrt(sum(x * x for x in p))
    if r <= R:
        return -N * (3.0 * R * R - r * r) / (2.0 * R ** 3)
    return -N / r


def segment_potential(R, N, x):
    rho = N / (2.0 * R)
    if abs(x) <= R:
        return rho * (x * x + R * R)
    return N * abs(x)


def ellipse_interior_potential(a1, a2, N, p):
    """Interior log potential of the uniform ellipse (quadratic, with the
    constant fixed by the capacity (a1 + a2)/2)."""
    x, y = p
    rho = N / (math.pi * a1 * a2)
    quad = (a2 * x * x + a1 * y * y) / (a1 + a2)
    return math.pi * rho * (quad + a1 * a2 * math.log((a1 + a2) / 2.0)
                            - a1 * a2 / 2.0)


def ellipse_log_integral(a1, a2, p):
    """int over the ellipse of log|p - x| dA (elliptic polar coordinates;
    p must lie outside the ellipse so the integrand is smooth)."""
    px, py = p

    def f(s, phi):
        return math.log(math.hypot(px - a1 * s * math.cos(phi),
                                   py - a2 * s * math.sin(phi))) * a1 * a2 * s

    return _dblquad(f, 0.0, 2.0 * math.pi, 0.0, 1.0)


def annulus_log_integral(r_in, r_out, p):
    """int over r_in < |x| < r_out of log|p - x| dA for p off the ring."""
    px, py = p

    def f(r, phi):
        return math.log(math.hypot(px - r * math.cos(phi),
                                   py - r * math.sin(phi))) * r

    return _dblquad(f, 0.0, 2.0 * math.pi, r_in, r_out)


def _int_log_sq(u, a):
    """Antiderivative in u of log(u^2 + a^2)."""
    if a == 0.0:
        return 0.0 if u == 0.0 else u * math.log(u * u) - 2.0 * u
    return u * math.log(u * u + a * a) - 2.0 * u + 2.0 * a * math.atan(u / a)


def rectangle_log_integral(bounds, p):
    """int over the rectangle of log|p - x| dA: the y-integral in closed
    form, the x-integral by scipy quad with a break at the point."""
    (x0, x1), (y0, y1) = bounds
    px, py = p

    def inner(x):
        a = abs(x - px)
        return 0.5 * (_int_log_sq(y1 - py, a) - _int_log_sq(y0 - py, a))

    points = [px] if x0 < px < x1 else None
    return _quad(inner, x0, x1, points=points)


def cuboid_newton_integral(bounds, p):
    """int over the cuboid of 1/|p - x| dV: the z-integral in closed form
    (asinh), the (x, y)-integral by scipy dblquad split at the point."""
    (x0, x1), (y0, y1), (z0, z1) = bounds
    px, py, pz = p

    def f(y, x):
        a = math.hypot(x - px, y - py)
        if a == 0.0:
            return 0.0
        return math.asinh((z1 - pz) / a) - math.asinh((z0 - pz) / a)

    xs = sorted({x0, x1} | ({px} if x0 < px < x1 else set()))
    ys = sorted({y0, y1} | ({py} if y0 < py < y1 else set()))
    return sum(_dblquad(f, xa, xb, ya, yb)
               for xa, xb in zip(xs[:-1], xs[1:])
               for ya, yb in zip(ys[:-1], ys[1:]))


def body_exterior_potential(body, p):
    """-log-kernel potential at p of the positively charged body (charge N),
    for p outside it: the value its balayage measure must reproduce."""
    kind = body[0]
    if kind == "disk":
        _, R, N = body
        return -N / (math.pi * R * R) * annulus_log_integral(0.0, R, p)
    if kind == "annulus":
        _, R, c, N = body
        rho = N / (math.pi * R * R * (1.0 - c * c))
        return -rho * annulus_log_integral(c * R, R, p)
    if kind == "ellipse":
        _, a1, a2, N = body
        return -N / (math.pi * a1 * a2) * ellipse_log_integral(a1, a2, p)
    raise ValueError(f"unknown body {kind!r}")


# ---------------------------------------------------------- hole energies
# E = (1/2) int h over the hole, with -lap h = 2 pi in the hole and h = 0 on
# its boundary (unit density).

def hole_energy_disk(a):
    return math.pi ** 2 * a ** 4 / 8.0


def hole_energy_ellipse(a, b):
    return math.pi ** 2 * a ** 3 * b ** 3 / (4.0 * (a * a + b * b))


def hole_energy_annulus(R, c):
    def h(r):
        return (math.pi / 2.0) * (R * R - r * r) \
            - (math.pi / 2.0) * R * R * (1.0 - c * c) * math.log(r / R) / math.log(c)

    return math.pi * _quad(lambda r: h(r) * r, c * R, R)


# ------------------------------------------------------------ the sampler

def sinh_log_partition(n, c, L):
    """log Z_N of the beta = 2 sinh ensemble, weight
    prod |2 sinh(pi (x_i - x_j)/L)|^2 exp(-c sum x^2): the Stieltjes-Wigert
    product (n/2) log(pi/c) + log n! + g n(n^2-1)/6 + sum (n-j) log(1-q^j),
    with g = 2 pi^2/(c L^2) and q = exp(-g)."""
    g = 2.0 * math.pi ** 2 / (c * L * L)
    q = math.exp(-g)
    return 0.5 * n * math.log(math.pi / c) + math.lgamma(n + 1.0) \
        + g * n * (n * n - 1.0) / 6.0 \
        + sum((n - j) * math.log1p(-q ** j) for j in range(1, n))


def sinh_mean_sum_x2(n, c, L):
    """E sum x^2 = -d/dc log Z_N, differentiated in closed form."""
    g = 2.0 * math.pi ** 2 / (c * L * L)
    q = math.exp(-g)
    tail = sum((n - j) * j * q ** j / (1.0 - q ** j) for j in range(1, n))
    return n / (2.0 * c) + (g / c) * (n * (n * n - 1.0) / 6.0 + tail)


def ginibre_moment(n):
    """E sum |z|^2 = Var sum |z|^2 = n(n+1)/2 (Kostlan)."""
    return n * (n + 1) / 2.0


def induced_moment(n, alpha):
    """E sum |z|^2 = Var sum |z|^2 for the induced ensemble with charge
    alpha n at the origin: independent Gamma(alpha n + k) radii."""
    return n * (n + 1) / 2.0 + alpha * n * n


# --------------------------------------------------- conformal and Green

def joukowski_inverse(s, b, z):
    """The root w with |w| >= 1 of s w + b / w = z."""
    z = complex(z)
    root = cmath.sqrt(z * z - 4.0 * s * b)
    w1 = (z + root) / (2.0 * s)
    w2 = (z - root) / (2.0 * s)
    return w1 if abs(w1) >= abs(w2) else w2


def ellipse_map_coefficients(a1, a2):
    return (a1 + a2) / 2.0, (a1 - a2) / 2.0


def map_green(s, b, z, w):
    u, v = joukowski_inverse(s, b, z), joukowski_inverse(s, b, w)
    return -math.log(abs(u - v) / abs(1.0 - u * v.conjugate()))


def disk_green(R, z, w):
    z, w = complex(z), complex(w)
    return -math.log(abs(z - w) / abs(1.0 - z * w.conjugate() / (R * R)))


def sphere_green(R, r, rp):
    def norm(v):
        return math.sqrt(sum(x * x for x in v))

    nrp = norm(rp)
    image = [R * R * x / nrp ** 2 for x in rp]
    return 1.0 / norm([a - b for a, b in zip(r, rp)]) \
        - (R / nrp) / norm([a - b for a, b in zip(r, image)])


def ellipse_surface_correlation(a1, a2, beta, eta1, eta2):
    """-1/(2 beta pi^2 |e^{i eta1} - e^{i eta2}|^2 h1 h2), h = |xi'(e^{i eta})|
    for xi(w) = s w + b / w."""
    s, b = ellipse_map_coefficients(a1, a2)

    def h(eta):
        return abs(s - b * cmath.exp(-2j * eta))

    gap = abs(cmath.exp(1j * eta1) - cmath.exp(1j * eta2)) ** 2
    return -1.0 / (2.0 * beta * math.pi ** 2 * gap * h(eta1) * h(eta2))


def subblock_smoothed(n, dtheta):
    """Defining double integral of the smoothed sub-block correlation."""
    def f(r2, r1):
        s = r1 * r2
        return (n * n / math.pi ** 2) * s ** (2 * n) \
            / (1.0 - 2.0 * s * math.cos(dtheta) + s * s) * r1 * r2

    return _dblquad(f, 0.0, 1.0, 0.0, 1.0)


def ellipsoid_coefficients(axes, N):
    """(alpha_0, [alpha_i]) of the interior potential of the uniform
    ellipsoid of charge -N: alpha_i = (N/2) R_D, alpha_0 = -(3N/2) R_F."""
    sq = [a * a for a in axes]
    alphas = [0.5 * N * float(special.elliprd(sq[(i + 1) % 3], sq[(i + 2) % 3], sq[i]))
              for i in range(3)]
    return -1.5 * N * float(special.elliprf(*sq)), alphas


# ------------------------------------------------------------ the command

def main(argv=None):
    import climix
    import oracle

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="JSON file to write (default: stdout)")
    args = ap.parse_args(argv)
    data = {"seed": args.seed,
            "oracle": oracle.reference_table(args.seed),
            "cli": climix.reference_table(args.seed)}
    text = json.dumps(data, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
