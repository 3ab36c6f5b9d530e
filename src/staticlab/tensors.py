"""Small dense multilinear algebra for the pointwise curvature identities.

Kulkarni-Nomizu products, assembly of the static-spacetime curvature tensor
in a Lorentz orthonormal frame, the coercivity gap of the Lorentzian
mean-curvature operator, and the pseudo-Jacobi inequality used by the
gradient estimate.  Dimensions stay tiny (n <= 8).  The curvature tensors
are plain dense numpy; the batch kernels sweep many points at once and
treat the metrics a_up = id + Theta^2 u(x)u and a_down = id - u(x)u as
rank-one updates of id, so they never form or multiply m x m metric
matrices.  They take their rows in blocks of BLOCK_ROWS into one
preallocated output.  Every operation is row-local, so results are bitwise
the same for any batch size, and the sampler draws the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import StaticModel, curvature_sample

__all__ = [
    "SymForm",
    "Curv4Tensor",
    "kulkarni_nomizu",
    "static_riemann",
    "coercivity_gap_batch",
    "pseudo_jacobi_gap_batch",
    "project_a_tracefree_batch",
    "sample_gradhess_batch",
    "row_blocks",
]

BLOCK_ROWS = 2048  # rows per block of the batch kernels


@dataclass(frozen=True)
class SymForm:
    """Dense symmetric bilinear form on R^n, n <= 8."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("SymForm needs a square array")
        if a.shape[0] > 8:
            raise ValueError("SymForm is limited to n <= 8")
        scale = max(1.0, float(np.max(np.abs(a))))
        if np.max(np.abs(a - a.T)) > 1e-12 * scale:
            raise ValueError("SymForm entries are not symmetric within 1e-12")


@dataclass(frozen=True)
class Curv4Tensor:
    """(0,4) curvature-type tensor in an orthonormal frame.

    ``eps`` holds the frame signature (+1 spatial, -1 timelike) used when
    contracting to the Ricci tensor.
    """

    entries: np.ndarray
    eps: np.ndarray = None

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", a)
        n = a.shape[0]
        if a.shape != (n, n, n, n):
            raise ValueError("Curv4Tensor needs an (n,n,n,n) array")
        eps = np.ones(n) if self.eps is None else np.asarray(self.eps, dtype=float)
        object.__setattr__(self, "eps", eps)

    def symmetry_residual(self) -> float:
        """Max violation of the pair symmetries and the first Bianchi sum."""
        r = self.entries
        res = max(
            float(np.max(np.abs(r + r.transpose(1, 0, 2, 3)))),
            float(np.max(np.abs(r + r.transpose(0, 1, 3, 2)))),
            float(np.max(np.abs(r - r.transpose(2, 3, 0, 1)))),
        )
        bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
        return max(res, float(np.max(np.abs(bianchi))))

    def ricci(self) -> np.ndarray:
        """Ric(X,Y) = sum_a eps_a Riem(e_a, X, e_a, Y)."""
        return np.einsum("a,axay->xy", self.eps, self.entries)


def kulkarni_nomizu(alpha: SymForm, beta: SymForm) -> Curv4Tensor:
    """Kulkarni-Nomizu product of two symmetric bilinear forms.

    (a @ b)(X1,X2,X3,X4) = a(X1,X3) b(X2,X4) + a(X2,X4) b(X1,X3)
                         - a(X1,X4) b(X2,X3) - a(X2,X3) b(X1,X4)
    """
    if alpha.entries.shape != beta.entries.shape:
        raise ValueError("Kulkarni-Nomizu product needs matching dimensions")
    a = alpha.entries
    b = beta.entries
    t = (
        np.einsum("ik,jl->ijkl", a, b)
        + np.einsum("jl,ik->ijkl", a, b)
        - np.einsum("il,jk->ijkl", a, b)
        - np.einsum("jk,il->ijkl", a, b)
    )
    return Curv4Tensor(t)


def static_riemann(model: StaticModel, s) -> Curv4Tensor:
    """Curvature tensor of the model at s in the Lorentz orthonormal frame.

    Frame: e_1 radial, e_2..e_m tangential, e_{m+1} = dt/h.  The base block is
    the radial space form with sectional curvatures (K_rad, K_tan); the time
    correction is (h Hess h) KN-multiplied with dt (x) dt.
    """
    m = model.m
    n = m + 1
    cs = curvature_sample(model, s)
    h = cs.h

    riem = np.zeros((n, n, n, n))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            k = cs.K_rad if (i == 0 or j == 0) else cs.K_tan
            riem[i, j, i, j] += k
            riem[i, j, j, i] -= k

    hess = np.zeros((n, n))
    hess[0, 0] = cs.hessh_rr
    for i in range(1, m):
        hess[i, i] = cs.hessh_tt
    dt2 = np.zeros((n, n))
    dt2[m, m] = 1.0 / (h * h)
    correction = kulkarni_nomizu(SymForm(h * hess), SymForm(dt2))

    eps = np.ones(n)
    eps[m] = -1.0
    return Curv4Tensor(riem + correction.entries, eps=eps)


def row_blocks(*arrays):
    """Views of BLOCK_ROWS rows at a time of each array, zipped block by block."""
    return zip(*(np.split(a, range(BLOCK_ROWS, a.shape[0], BLOCK_ROWS)) for a in arrays))


def coercivity_gap_batch(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """<X/sqrt(1-|X|^2) - Y/sqrt(1-|Y|^2), X - Y> for each row pair (X, Y).

    Nonnegative for |X|, |Y| < 1; a row on or outside the unit ball raises.
    """
    out = np.empty(xs.shape[0])
    for x, y, gap in row_blocks(xs, ys, out):
        nx = np.einsum("ni,ni->n", x, x)
        ny = np.einsum("ni,ni->n", y, y)
        if np.any(nx >= 1.0) or np.any(ny >= 1.0):
            raise ValueError("coercivity_gap needs |X| < 1 and |Y| < 1")
        fx = x / np.sqrt(1.0 - nx)[:, None]
        fy = y / np.sqrt(1.0 - ny)[:, None]
        np.einsum("ni,ni->n", fx - fy, x - y, out=gap)
    return out


def project_a_tracefree_batch(us: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Make each symmetrised Hessian a-trace-free: a^{ij} h_{ij} = 0.

    With a_up = id + Theta^2 u(x)u, Theta = 1/sqrt(1-|u|^2), subtracts
    (tr_a h / tr_a id) * id, which keeps symmetry and lands the maximality
    constraint exactly (up to roundoff).  a_up is a rank-one update of id, so
    with v = h u the traces are tr_a h = tr h + Theta^2 u.v and
    tr_a id = m + Theta^2 |u|^2; no m x m matrix besides h is formed.
    Returns a new array; ``hs`` is left unmodified.  A row with |u| >= 1 raises.
    """
    m = us.shape[1]
    diag = np.arange(m)
    out = np.empty(hs.shape)
    for u, raw, h in row_blocks(us, hs, out):
        h[...] = 0.5 * (raw + np.swapaxes(raw, 1, 2))
        nu = np.einsum("ni,ni->n", u, u)
        if np.any(nu >= 1.0):
            raise ValueError("project_a_tracefree needs |u| < 1")
        th2 = 1.0 / (1.0 - nu)
        v = np.einsum("nij,nj->ni", h, u)
        tr_a = np.einsum("nii->n", h) + th2 * np.einsum("ni,ni->n", u, v)
        h[:, diag, diag] -= (tr_a / (m + th2 * nu))[:, None]
    return out


def pseudo_jacobi_gap_batch(us: np.ndarray, hs: np.ndarray, alpha: float) -> np.ndarray:
    """trace(B^2) - (alpha+1) Theta^2 a_down(B u, B u) per row, guaranteed >= 0.

    Theta = 1/sqrt(1-|u|^2), a_up = id + Theta^2 u(x)u, a_down = id - u(x)u
    (mutually inverse) and B = a_up . hess.  Each gradient needs |u| < 1,
    alpha must lie in (0, 1/(m-1)], and each (symmetric) Hessian must be
    a-trace-free (the maximality constraint; tr B beyond 1e-10 raises).

    a_up is a rank-one update of id, so with v = hess u:
    B = hess + Theta^2 u v^T and tr B = tr hess + Theta^2 u.v.  As B u = a_up v
    and a_down inverts a_up, a_down(B u, B u) = a_up(v, v) = |v|^2 + Theta^2 (u.v)^2,
    a sum of two nonnegative terms where |B u|^2 - (u.B u)^2 would cancel
    near the null cone.
    """
    m = us.shape[1]
    if not 0.0 < alpha <= 1.0 / (m - 1):
        raise ValueError("alpha must lie in (0, 1/(m-1)]")
    out = np.empty(us.shape[0])
    for u, h, gap in row_blocks(us, hs, out):
        nu = np.einsum("ni,ni->n", u, u)
        if np.any(nu >= 1.0):
            raise ValueError("pseudo_jacobi_gap needs |u| < 1")
        th2 = 1.0 / (1.0 - nu)
        v = np.einsum("nij,nj->ni", h, u)
        uv = np.einsum("ni,ni->n", u, v)
        b = np.einsum("ni,nj->nij", th2[:, None] * u, v)
        b += h
        scale = np.maximum(1.0, np.max(np.abs(b), axis=(1, 2)))
        if np.any(np.abs(np.einsum("nii->n", h) + th2 * uv) > 1e-10 * scale):
            raise ValueError("pseudo_jacobi_gap: hessian is not a-trace-free")
        tr_b2 = np.einsum("nij,nji->n", b, b)
        second = np.einsum("ni,ni->n", v, v) + th2 * uv * uv
        gap[...] = tr_b2 - (alpha + 1.0) * th2 * second
    return out


def sample_gradhess_batch(seed: int, count: int, m: int):
    """Seeded sampler for the pseudo-Jacobi property sweep.

    Gradients are rejected to |u| <= 0.99 (staying clear of the null cone),
    raw Hessian entries are uniform in [-5, 5], and the result is projected
    a-trace-free.  Returns (us, hessians).  The Hessians are drawn and
    projected block by block: consecutive draws read the same stream as one
    (count, m, m) draw, so every row is as if drawn at once.
    """
    rng = np.random.default_rng(seed)
    us = np.empty((count, m))
    filled = 0
    while filled < count:
        block = rng.uniform(-1.0, 1.0, size=(2 * (count - filled) + 16, m))
        ok = block[np.einsum("ni,ni->n", block, block) <= 0.99**2]
        take = min(ok.shape[0], count - filled)
        us[filled : filled + take] = ok[:take]
        filled += take
    hs = np.empty((count, m, m))
    for u, h in row_blocks(us, hs):
        h[...] = project_a_tracefree_batch(u, rng.uniform(-5.0, 5.0, size=h.shape))
    return us, hs
