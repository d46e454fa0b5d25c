"""Differential operators: exterior and covariant derivatives, Lie
brackets and projected Lie brackets, curvature and Ricci from a metric,
Schrodinger and Dirac residual operators, and a fixed-step geodesic
integrator.  Riemann's component formula is written once, in
``_riemann_into``; ``ricci`` is its trace through that same routine.

Each operator takes its inputs directly: ``covariant_D(omega, psi)``
builds D = d + omega ^ [., .] from the connection form itself (D = d for
``omega=None``), ``nabla_X`` takes the Christoffel symbols,
``schrodinger_residual`` takes hbar, mass and the potential, and
``dirac_residual`` takes the mass, the mass-term sign and the EM
coupling, reading gamma^mu from ``GAMMA_UPPER``.  Each checks its own
parameters where it uses them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegreeError, DimensionError, DomainError, NonIdempotentProjection, StepError
from .exterior import (
    COV,
    AlternatingTensor,
    MetricSpec,
    sort_sign,
    sum_terms,
    wedge,
)
from .scalar import Expr, Program, ZERO, as_expr, is_zero
from .valued import PhiMap, ValuedForm, lift_pointwise

VectorField = List[Expr]  # one Expr per coordinate axis


# ---------------------------------------------------------------------------
# exterior derivative


def d_form(w: AlternatingTensor) -> AlternatingTensor:
    """Exterior derivative of a plain form with symbolic components."""
    chart = w.chart
    n = chart.dim
    if w.degree >= n:
        raise DegreeError("exterior derivative overflows the top degree")
    terms = []
    for idx, v in w.components.items():
        e = as_expr(v)
        for axis in range(n):
            dv = e.diff(axis)
            if is_zero(dv):
                continue
            ss = sort_sign((axis,) + idx)
            if ss is None:
                continue
            key, sign = ss
            terms.append((key, sign * dv))
    return AlternatingTensor(chart, COV, w.degree + 1, sum_terms(terms))


def exterior_d(psi: ValuedForm) -> ValuedForm:
    """d acts per value component: d(psi^i (x) E_i) = (d psi^i) (x) E_i."""
    return psi.map(d_form)


# ---------------------------------------------------------------------------
# connections and covariant exterior derivative


def covariant_D(omega: Optional[ValuedForm], psi: ValuedForm) -> ValuedForm:
    """D psi = d psi + omega ^ [., psi], with D = d when ``omega`` is None.

    The connection term is the pairing whose form-level map is the wedge
    and whose value-level map is the Lie bracket of omega's value space,
    summing C^m_jk omega^j ^ psi^k (x) E_m.  psi's value space needs
    omega's dimension, not its labels: the bracket term lands on psi's
    labels by index.
    """
    if omega is None:
        return exterior_d(psi)
    if omega.degree != 1:
        raise DegreeError("connection form must have degree 1")
    paired = lift_pointwise(wedge, PhiMap.lie_bracket(omega.space), omega, psi)
    return exterior_d(psi) + ValuedForm(psi.space, paired.slices)


def curvature(omega: ValuedForm) -> ValuedForm:
    """Omega = d omega + 1/2 [omega, omega] in the graded-bracket convention:
    the bracket term is the wedge (x) Lie-bracket pairing of omega with itself."""
    bracket = PhiMap.lie_bracket(omega.space)
    return exterior_d(omega) + lift_pointwise(wedge, bracket, omega, omega).scale(0.5)


# ---------------------------------------------------------------------------
# vector-field operators


def nabla_X(gamma, X: VectorField, u: VectorField) -> VectorField:
    """(nabla_X u)^mu = X^nu d_nu u^mu + Gamma^mu_nu_sigma X^nu u^sigma."""
    n = len(X)
    out = []
    for mu in range(n):
        acc: Expr = ZERO
        for nu in range(n):
            acc = acc + X[nu] * u[mu].diff(nu)
            for s in range(n):
                g = as_expr(gamma[mu][nu][s])
                if not is_zero(g):
                    acc = acc + g * X[nu] * u[s]
        out.append(acc)
    return out


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^mu = X^nu d_nu Y^mu - Y^nu d_nu X^mu."""
    if len(X) != len(Y):
        raise DimensionError("vector fields have different dimensions")
    n = len(X)
    out = []
    for mu in range(n):
        acc: Expr = ZERO
        for nu in range(n):
            acc = acc + X[nu] * Y[mu].diff(nu) - Y[nu] * X[mu].diff(nu)
        out.append(acc)
    return out


def check_idempotent(pi, pts: Sequence[Sequence[float]]) -> None:
    """Raise NonIdempotentProjection unless pi*pi == pi to 1e-10 at every
    point; a non-finite entry fails too."""
    n = len(pi)
    pts = np.asarray(pts, dtype=float)
    prog = Program([as_expr(pi[i][j]) for i in range(n) for j in range(n)])
    m = prog.at(pts).T.reshape(len(pts), n, n)
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, and nan fails the test
        off = ~np.all(np.abs(m @ m - m) <= 1e-10, axis=(1, 2))
    if off.any():
        pt = tuple(pts[np.argmax(off)].tolist())
        raise NonIdempotentProjection(f"pi^2 != pi at {pt}")


def projected_lie(pi, X: VectorField, Y: VectorField) -> VectorField:
    """pi([X, Y]): the Lie bracket projected pointwise by the matrix pi."""
    v = lie_bracket(X, Y)
    n = len(v)
    return [sum((as_expr(pi[i][j]) * v[j] for j in range(n)), start=ZERO) for i in range(n)]


# ---------------------------------------------------------------------------
# metric geometry


def christoffels_from_metric(metric: MetricSpec):
    """Levi-Civita symbols Gamma^l_mn = 1/2 g^lr (d_m g_rn + d_n g_rm - d_r g_mn)
    as nested tuples, ``gamma[l][m][n]``.

    Built on the first call for ``metric`` and kept on it, as its inverse
    is: every later call returns the same object, which tuples keep from
    being changed by one of the operators that share it.
    """
    if metric._christoffels is None:
        metric._christoffels = _levi_civita(metric)
    return metric._christoffels


def _levi_civita(metric: MetricSpec):
    n = metric.dim
    g = [[as_expr(v) for v in row] for row in metric.entries()]
    ginv = metric.inverse_entries()
    half = as_expr(0.5)
    # d_m g_rn + d_n g_rm - d_r g_mn, built once for each r some g^lr uses
    used = [r for r in range(n) if any(not is_zero(ginv[l][r]) for l in range(n))]
    bracket = {(r, m, nu): g[r][nu].diff(m) + g[r][m].diff(nu) - g[m][nu].diff(r)
               for r in used for m in range(n) for nu in range(m, n)}
    gamma = [[[ZERO for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for m in range(n):
            for nu in range(m, n):
                acc: Expr = ZERO
                for r in range(n):
                    if is_zero(ginv[l][r]):
                        continue
                    acc = acc + ginv[l][r] * bracket[r, m, nu]
                val = half * acc
                gamma[l][m][nu] = val
                gamma[l][nu][m] = val
    return tuple(tuple(map(tuple, plane)) for plane in gamma)


def _riemann_into(acc: Expr, gam, rho: int, sig: int, mu: int, nu: int) -> Expr:
    """acc + R^rho_sigma_mu_nu, with R^rho_sigma_mu_nu = d_mu G^rho_nu_sigma
    - d_nu G^rho_mu_sigma + G^rho_mu_lam G^lam_nu_sigma - G^rho_nu_lam G^lam_mu_sigma."""
    acc = acc + gam[rho][nu][sig].diff(mu) - gam[rho][mu][sig].diff(nu)
    for lam in range(len(gam)):
        p, q = gam[rho][mu][lam], gam[lam][nu][sig]
        if not (is_zero(p) or is_zero(q)):  # else it folds away
            acc = acc + p * q
        p, q = gam[rho][nu][lam], gam[lam][mu][sig]
        if not (is_zero(p) or is_zero(q)):
            acc = acc - p * q
    return acc


def riemann(metric: MetricSpec):
    """R^rho_sigma_mu_nu as nested lists, ``R[rho][sigma][mu][nu]``."""
    n = metric.dim
    gam = christoffels_from_metric(metric)
    return [[[[_riemann_into(ZERO, gam, rho, sig, mu, nu) for nu in range(n)]
              for mu in range(n)] for sig in range(n)] for rho in range(n)]


def ricci(metric: MetricSpec):
    """R_sigma_nu = R^mu_sigma_mu_nu, one running sum over mu per (sigma, nu)."""
    n = metric.dim
    gam = christoffels_from_metric(metric)
    out = [[ZERO for _ in range(n)] for _ in range(n)]
    for sig in range(n):
        for nu in range(sig, n):
            acc: Expr = ZERO
            for mu in range(n):
                acc = _riemann_into(acc, gam, mu, sig, mu, nu)
            out[sig][nu] = out[nu][sig] = acc
    return out


def metricity_residual(metric: MetricSpec):
    """Components of nabla g; all-zero for the Levi-Civita connection."""
    n = metric.dim
    g = [[as_expr(v) for v in row] for row in metric.entries()]
    gam = christoffels_from_metric(metric)
    out = []
    for lam in range(n):
        for mu in range(n):
            for nu in range(mu, n):
                acc = g[mu][nu].diff(lam)
                for rho in range(n):
                    acc = acc - gam[rho][lam][mu] * g[rho][nu]
                    acc = acc - gam[rho][lam][nu] * g[mu][rho]
                out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Schrodinger operator


def schrodinger_residual(psi: Expr, dim: int, potential: Expr = ZERO,
                         hbar: float = 1.0, mass: float = 1.0) -> Expr:
    """i hbar d_t psi - H psi with H = -hbar^2/(2 mass) Laplacian + potential
    over the spatial axes, on a chart whose last axis is time."""
    if hbar <= 0 or mass <= 0:
        raise DimensionError("hbar and mass must be positive")
    t_axis = dim - 1
    res = (1j * hbar) * psi.diff(t_axis)
    coeff = hbar * hbar / (2.0 * mass)
    for k in range(t_axis):
        res = res + coeff * psi.diff(k).diff(k)
    res = res - potential * psi
    return res


# ---------------------------------------------------------------------------
# Dirac operator


def _pauli():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return s1, s2, s3


def dirac_representation() -> List[np.ndarray]:
    """gamma_mu for axes (x, y, z, xi), time last: gamma_xi = diag(1,1,-1,-1)."""
    s = _pauli()
    zeros = np.zeros((2, 2), dtype=complex)
    gammas = []
    for k in range(3):
        gammas.append(np.block([[zeros, s[k]], [-s[k], zeros]]))
    gammas.append(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
    return gammas


# gamma^mu = eta^mu_mu gamma_mu, for the signature (-,-,-,+)
GAMMA_UPPER = [eta * g for eta, g in zip((-1.0, -1.0, -1.0, 1.0), dirac_representation())]


def dirac_residual(psi: Sequence[Expr], mass: float = 1.0, sign: int = -1,
                   potential: Optional[Sequence[Expr]] = None,
                   charge: float = 0.0) -> List[Expr]:
    """(i gamma^mu (d_mu - i e A_mu) + sign m) psi, componentwise.

    ``sign`` is the literal sign of the mass term; ``potential`` holds
    A_mu, one per axis, and ``charge`` is e.
    """
    if mass < 0:
        raise DimensionError("mass must be >= 0")
    if sign not in (1, -1):
        raise DimensionError("sign must be +1 or -1")
    if len(psi) != 4:
        raise DimensionError("Dirac section needs 4 components")
    psi = [as_expr(p) for p in psi]
    out = []
    for j in range(4):
        acc: Expr = (sign * mass) * psi[j]
        for mu in range(4):
            for i in range(4):
                coeff = GAMMA_UPPER[mu][j, i]
                if coeff == 0:
                    continue
                term = psi[i].diff(mu)
                if potential is not None and charge != 0.0:
                    term = term - (1j * charge) * (potential[mu] * psi[i])
                acc = acc + (1j * coeff) * term
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# geodesic integrator


def geodesic_integrate(gamma, x0: Sequence[float], u0: Sequence[float],
                       steps: int, ds: float) -> Tuple[np.ndarray, np.ndarray]:
    """Classical RK4 on x' = u, u' = -Gamma(u, u); returns (xs, us)."""
    if not isinstance(steps, int) or steps < 0:
        raise DomainError(f"steps must be a non-negative int, got {steps!r}")
    n = len(x0)
    if len(u0) != n:
        raise DimensionError(f"u0 has {len(u0)} component(s); x0 has {n}")
    if len(gamma) != n or any(len(g) != n or any(len(r) != n for r in g) for g in gamma):
        raise DimensionError(f"gamma must be {n}x{n}x{n}, as x0 has {n} component(s)")
    terms = [(l, m, nu) for l in range(n) for m in range(n) for nu in range(n)
             if not is_zero(as_expr(gamma[l][m][nu]))]
    prog = Program([as_expr(gamma[l][m][nu]) for l, m, nu in terms])

    def rate(y):
        """(u, -Gamma(u, u)) at the state y = (x, u)."""
        u = y[n:].tolist()
        s = [0.0] * n
        for (l, m, nu), g in zip(terms, prog.at([y[:n]])[:, 0].tolist()):
            s[l] += (g * u[m] * u[nu]).real
        return np.concatenate((y[n:], [-v for v in s]))

    ys = np.empty((steps + 1, 2 * n))
    y = ys[0] = np.array([*x0, *u0], dtype=float)
    # a state that overflows is caught below as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            k1 = rate(y)
            k2 = rate(y + 0.5 * ds * k1)
            k3 = rate(y + 0.5 * ds * k2)
            k4 = rate(y + ds * k3)
            y = y + ds / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.isfinite(y).all():
                raise StepError(f"non-finite state at step {step + 1}")
            ys[step + 1] = y
    return ys[:, :n], ys[:, n:]
