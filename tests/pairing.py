"""The bilinear pairing <psi, phi> = psi(0) phi(0) + q Int_{-r}^{0} psi(z + r) phi(z) dz
at a Hopf point, with the integral on numpy's Gauss-Legendre rule of a fixed size."""

import numpy as np

NODES = 64
_X, _W = np.polynomial.legendre.leggauss(NODES)


def pairing(psi, phi, hp):
    """<psi, phi> over one delay r* of `hp`, with its q*; psi, phi map float -> complex."""
    half, r = 0.5 * hp.r_star, hp.r_star
    integral = half * sum(w * psi(z + r) * phi(z) for z, w in zip(half * (_X - 1.0), _W))
    return psi(0.0) * phi(0.0) + hp.q_star * integral
