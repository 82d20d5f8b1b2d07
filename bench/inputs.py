"""Seeded input generators for the benchmark workloads (numpy only).

Every generator takes a ``numpy.random.Generator`` and returns plain
arrays; pivotkit never sees the seed.  The families are built so that the
operations run on them are well defined on every draw: pivot blocks and
Schur complements are well conditioned, P-test minors sit far from the
P-test threshold, and the Jacobi systems converge where they are meant to.
"""
from __future__ import annotations

import numpy as np

from oracles import transform


def general(rng, n: int) -> np.ndarray:
    """I + G / (3 sqrt n), G standard normal: every principal block and
    Schur complement has its singular values in about [1/3, 5/3], and
    determinants of blocks stay near 1 at every order."""
    return np.eye(n) + rng.standard_normal((n, n)) / (3.0 * np.sqrt(n))


def uniform(rng, n: int) -> np.ndarray:
    """Entries uniform on (-1, 1): the spectra workload of the paper's tests."""
    return rng.uniform(-1.0, 1.0, (n, n))


def pivot_set(rng, n: int, k: int | None = None) -> np.ndarray:
    """A random nonempty proper subset (zero-based, sorted); size n//2 by default."""
    k = max(1, min(n - 1, n // 2 if k is None else k))
    return np.sort(rng.choice(n, k, replace=False))


def spread_transform(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, p) such that ppt(A, p) = B, with B uniform on (-1, 1) plus 1 on
    the diagonal of B[p].

    The spectral routes read the spectrum of the transform; built this way
    that spectrum is spread like a uniform matrix's instead of clustered,
    which keeps their roots well conditioned (a transform with a tight
    eigenvalue cluster costs the polynomial routes many digits at n >= 12).
    """
    p = pivot_set(rng, n, int(rng.integers(1, n)))
    b = uniform(rng, n)
    b[p, p] += 1.0
    return transform(b, p), p


def partition(rng, n: int, width: int) -> list[np.ndarray]:
    """A random partition of range(n) into blocks of about ``width``."""
    perm = rng.permutation(n)
    return [np.sort(perm[s:s + width]) for s in range(0, n, width)]


def p_matrix(rng, n: int) -> np.ndarray:
    """D + K with D = diag(U(1, 1.2)) and K skew with entries below 0.05.

    The symmetric part is positive definite, so every principal minor is
    at least prod d_i >= 1, while ||A||_inf stays below about 2, keeping
    the minors far above the P-test threshold 1e-10 (1 + ||A||^k)."""
    u = rng.uniform(-0.05, 0.05, (n, n))
    return np.diag(rng.uniform(1.0, 1.2, n)) + (u - u.T)


def non_p_early(rng, n: int) -> np.ndarray:
    """A P-matrix whose leading 2x2 minor is made negative: the
    lexicographically first failing set is (1, 2), the second one scanned."""
    a = p_matrix(rng, n)
    a[0, 1] = a[1, 0] = 2.0
    return a


def non_p_late(rng, n: int) -> np.ndarray:
    """Only the last singleton minor fails, so the first failing set is
    (n,), the last of all 2**n - 1 sets scanned.

    a_nn = -0.002 < 0, but row and column n are coupled to every other
    index by a skew pair (+c, -c); the Schur complement of any larger set
    on n is then -0.002 + c**2 1^T A[S']^-1 1 > 0."""
    a = p_matrix(rng, n)
    c = 0.07
    a[:-1, -1] = c
    a[-1, :-1] = -c
    a[-1, -1] = -0.002
    return a


def z_matrix(rng, n: int) -> np.ndarray:
    """Nonpositive off-diagonal, positive diagonal."""
    a = -rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(a, rng.uniform(1.0, 2.0, n) + n)
    return a


def not_z_matrix(rng, n: int) -> np.ndarray:
    """A Z-matrix with one positive off-diagonal entry."""
    a = z_matrix(rng, n)
    i, j = rng.choice(n, 2, replace=False)
    a[i, j] = rng.uniform(0.1, 1.0)
    return a


def not_semipositive(rng, n: int) -> np.ndarray:
    """-(I + N) with N >= 0: A x < 0 for every x > 0."""
    return -(np.eye(n) + rng.uniform(0.0, 0.2, (n, n)))


def jacobi(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A = D (I - T), ||T||_inf <= 0.5 and zero diagonal: plain Jacobi converges."""
    t = rng.uniform(-1.0, 1.0, (n, n)) * (0.5 / max(1, n - 1))
    np.fill_diagonal(t, 0.0)
    d = rng.uniform(1.0, 3.0, n)
    return d[:, None] * (np.eye(n) - t), rng.uniform(-1.0, 1.0, n)


def rescue(rng, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A system whose plain Jacobi sweep diverges but whose sweep pivoted on
    a pair alpha converges.  Returns (A, b, alpha) with alpha zero-based.

    Built backwards: B is a small matrix with B[alpha] = [[0, q], [r, 0]]
    and diagonal chosen so that T = ppt(B, alpha) has a zero diagonal;
    rho(T) >= 1/sqrt(qr) > 1.6 while rho(B) stays below about 0.7.
    """
    i, j = np.sort(rng.choice(n, 2, replace=False))
    b = rng.uniform(-1.0, 1.0, (n, n)) * (0.5 / np.sqrt(n))
    q, r = rng.uniform(0.3, 0.6, 2) * rng.choice([-1.0, 1.0], 2)
    b[i, i] = b[j, j] = 0.0
    b[i, j], b[j, i] = q, r
    e = np.array([[0.0, 1.0 / r], [1.0 / q, 0.0]])          # B[alpha]^-1
    rest = [k for k in range(n) if k not in (i, j)]
    for k in rest:
        b[k, k] = b[k, [i, j]] @ e @ b[[i, j], k]
    t = transform(b, [i, j])
    np.fill_diagonal(t, 0.0)
    d = rng.uniform(1.0, 3.0, n)
    return d[:, None] * (np.eye(n) - t), rng.uniform(-1.0, 1.0, n), \
        np.array([i, j])


def greedy_target(rng, n: int) -> np.ndarray:
    """T = ppt(T0, alpha0), T0 = diag(d) + small noise, |alpha0| = 4.

    The |d_i| are n evenly spaced levels in (0.3, 0.9), shuffled, with
    random signs, so the spectra the search ranks stay well separated.
    T carries 1/d_i (modulus above 1.1) on alpha0 and d_i elsewhere, so
    each greedy round can pivot one index of alpha0 back and strictly
    lower the radius; the search climbs four rounds to alpha0."""
    levels = 0.3 + 0.6 * (rng.permutation(n) + 0.5) / n
    d = levels * rng.choice([-1.0, 1.0], n)
    t0 = np.diag(d) + rng.uniform(-1.0, 1.0, (n, n)) * (0.05 / n)
    alpha0 = np.sort(rng.choice(n, min(4, n - 1), replace=False))
    return transform(t0, alpha0)


def signature(rng, n: int) -> str:
    return "".join(rng.choice(["+", "-"], n))
