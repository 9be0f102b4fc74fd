"""A tensor-product Gauss-Legendre rule on rectangles: an independent 2d
quadrature that tests compare closed forms against."""

import numpy as np

from coulomblab._quad import gl_nodes


def tensor_gl_2d(f, ax: float, bx: float, ay: float, by: float,
                 nx: int = 48, ny: int = 48) -> float:
    """Tensor-product GL integral of f(x, y) over a rectangle.

    ``f`` is called on meshgrid arrays.
    """
    x, wx = gl_nodes(nx)
    y, wy = gl_nodes(ny)
    hx, hy = 0.5 * (bx - ax), 0.5 * (by - ay)
    X = ax + hx * (x + 1.0)
    Y = ay + hy * (y + 1.0)
    XX, YY = np.meshgrid(X, Y, indexing="ij")
    vals = f(XX, YY)
    return hx * hy * float(wx @ vals @ wy)
