"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line directly to the terminal
(bypassing capture) so the gate is readable in any pytest run.
"""

import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

import grs
from grs.catalog import (
    build,
    catalog_ids,
    euclidean,
    fixtures,
    minkowski,
    schwarzschild_chart,
    sphere_chart,
)
from grs.cli import main
from grs.diffops import (
    christoffels_from_metric,
    covariant_D,
    curvature,
    d_form,
    dirac_representation,
    geodesic_integrate,
    metricity_residual,
    ricci,
)
from grs.engine import DEFAULT_TOL, verify
from grs.exterior import COV, Chart, MetricSpec, form, hodge, volume_form, wedge
from grs.scalar import SampleSet, coord, cos, exp, fd_diff, sin
from grs.valued import ValuedForm, ValueSpace, su2


SPEC_DIR = Path(grs.__file__).parent / "specs"
GOLDEN_DIR = Path(__file__).parent / "golden"


def _announce(capsys, label, ok):
    with capsys.disabled():
        print(f"[acceptance] {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


def _fixture(cid, name):
    return next(f for f in fixtures(cid) if f.name == name)


def _run_fixture(cid, name, tol=None):
    fx = _fixture(cid, name)
    cond = build(cid, fx.chart, **fx.params)
    return verify(cond, fx.sample, tol or fx.tol or DEFAULT_TOL)


def test_01_soliton_autoparallel(capsys):
    start = time.perf_counter()
    rep = _run_fixture("autoparallel_vector", "autoparallel_vector", tol=1e-9)
    elapsed = time.perf_counter() - start
    ok = rep.passed and rep.linf <= 1e-9 and elapsed < 5.0
    _announce(capsys, f"soliton autoparallel (linf={rep.linf:.2e}, "
                      f"{elapsed:.2f}s)", ok)


def test_02_null_autoparallel(capsys):
    rep = _run_fixture("null_autoparallel", "null_autoparallel", tol=1e-9)
    ok = (rep.norms["u.du"]["linf"] <= 1e-9
          and rep.norms["null_norm"]["linf"] <= 1e-12)
    _announce(capsys, f"null autoparallel (u.du={rep.norms['u.du']['linf']:.2e}, "
                      f"norm={rep.norms['null_norm']['linf']:.2e})", ok)


def test_03_maxwell_consistency(capsys):
    sample = SampleSet.random_box([(-2, 2)] * 4, 1000, seed=7)
    fx_m = _fixture("maxwell_vacuum", "maxwell_vacuum")
    rep_m = verify(build("maxwell_vacuum", fx_m.chart, **fx_m.params),
                   sample, 1e-10)
    fx_e = _fixture("ext_maxwell_vacuum", "ext_maxwell_vacuum")
    rep_e = verify(build("ext_maxwell_vacuum", fx_e.chart, **fx_e.params),
                   sample, 1e-9)
    labels_ok = (len(rep_e.norms) == 3
                 and all(n["linf"] <= 1e-9 for n in rep_e.norms.values()))
    ok = rep_m.passed and rep_e.passed and labels_ok
    _announce(capsys, f"maxwell/ext-maxwell on shared sample "
                      f"({rep_m.linf:.2e}/{rep_e.linf:.2e}, "
                      f"{len(rep_e.norms)} labels)", ok)


def test_04_ricci_flatness(capsys):
    start = time.perf_counter()
    rep = _run_fixture("ricci_flat", "ricci_flat#4")  # M=1, 500 pts, r in [3,10]
    flat = _run_fixture("ricci_flat", "ricci_flat#3", tol=0.0)
    # 2-sphere control: Ric equals the metric itself within 1e-8
    sph = sphere_chart()
    R = ricci(sph.metric)
    g = sph.metric.entries()
    rng = random.Random(13)
    sphere_ok = True
    for _ in range(50):
        pt = (rng.uniform(0.4, 2.7), rng.uniform(0.0, 6.2))
        for i in range(2):
            for j in range(2):
                if abs(R[i][j].ev(pt) - g[i][j].ev(pt)) > 1e-8:
                    sphere_ok = False
    elapsed = time.perf_counter() - start
    ok = (rep.passed and rep.linf <= 1e-8 and flat.linf == 0.0
          and sphere_ok and elapsed < 30.0)
    _announce(capsys, f"ricci flatness (schwarzschild={rep.linf:.2e}, "
                      f"flat={flat.linf:.1f}, {elapsed:.2f}s)", ok)


def test_05_dirac(capsys):
    rep = _run_fixture("dirac", "dirac", tol=1e-12)
    ctl = _run_fixture("dirac", "dirac#2")
    gammas = dirac_representation()
    eta = (-1.0, -1.0, -1.0, 1.0)
    eye = np.eye(4, dtype=complex)
    exact = True
    for mu, nu in itertools.product(range(4), range(4)):
        anti = gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu]
        if not np.array_equal(anti, 2.0 * (eta[mu] if mu == nu else 0.0) * eye):
            exact = False
    contraction = sum((1.0 / eta[mu]) * gammas[mu] @ ((1.0 / eta[mu]) * gammas[mu])
                      for mu in range(4))
    if not np.array_equal(contraction, -2.0 * eye):
        exact = False
    ok = (rep.passed and not ctl.passed
          and abs(ctl.linf - 1.0) <= 1e-12 and exact)
    _announce(capsys, f"dirac (rest={rep.linf:.2e}, "
                      f"control={ctl.linf:.12f}, identities exact)", ok)


def test_06_schrodinger(capsys):
    # plane wave k=2, omega=2 built explicitly
    xx, t = coord(0), coord(1)
    chart = euclidean(("x", "t"))
    psi = exp(1j * (2.0 * xx - 2.0 * t))
    sample = SampleSet.random_box([(-2, 2), (-2, 2)], 200, seed=13)
    wave = verify(build("schrodinger", chart, psi=psi), sample, 1e-12)
    ground = _run_fixture("schrodinger", "schrodinger#3", tol=1e-12)
    ctl = _run_fixture("schrodinger", "schrodinger#2")
    ok = (wave.passed and ground.passed
          and not ctl.passed and abs(ctl.linf - 1.0) <= 1e-12)
    _announce(capsys, f"schrodinger (wave={wave.linf:.2e}, "
                      f"ground={ground.linf:.2e}, control={ctl.linf:.12f})", ok)


def test_07_frobenius(capsys):
    heis = _run_fixture("frobenius_vector", "frobenius_vector#2")
    flat = _run_fixture("frobenius_vector", "frobenius_vector", tol=1e-12)
    pf_pass = _run_fixture("frobenius_pfaff", "frobenius_pfaff", tol=1e-12)
    pf_fail = _run_fixture("frobenius_pfaff", "frobenius_pfaff#2")
    ok = (heis.linf == 1.0 and not heis.passed and flat.passed
          and pf_pass.passed == flat.passed
          and pf_fail.passed == heis.passed)
    _announce(capsys, f"frobenius (heisenberg linf={heis.linf:.1f}, "
                      f"pfaff verdicts agree)", ok)


def test_08_operator_identities(capsys):
    mink = minkowski()
    x, y, z, xi = (coord(i) for i in range(4))
    ok = True
    # d(d(w)) = 0 within 1e-12
    w = form(mink, 1, {(0,): sin(y * z), (1,): exp(0.2 * x) * xi, (3,): x * y})
    dd = d_form(d_form(w))
    for pt in [(0.3, -0.7, 0.4, 1.1), (1.5, 0.2, -0.9, -0.4)]:
        ok &= all(abs(v.ev(pt)) <= 1e-12 for v in dd.components.values())
    # ** = -id on 2-forms, exact
    for idx in itertools.combinations(range(4), 2):
        b = form(mink, 2, {idx: 1.0})
        ok &= hodge(hodge(b)).components == {idx: -1.0}
    # hodge defining relation, exact over all basis pairs
    vol = volume_form(mink)
    eta = (-1.0, -1.0, -1.0, 1.0)
    origin = (0.0, 0.0, 0.0, 0.0)
    for p in range(5):
        for ia in itertools.combinations(range(4), p):
            for ib in itertools.combinations(range(4), p):
                a = form(mink, p, {ia: 1.0})
                b = form(mink, p, {ib: 1.0})
                pairing = 0.0
                if ia == ib:
                    pairing = 1.0
                    for i in ia:
                        pairing *= 1.0 / eta[i]
                left = wedge(a, hodge(b)).ev(origin).components
                ok &= left == vol.scale(pairing).ev(origin).components
    # Bianchi for a random su(2) connection, 1e-10
    rng = random.Random(7)
    V3 = ValueSpace(labels=("e1", "e2", "e3"), lie=su2())
    comp = {}
    basis = [sin(y), cos(z), exp(0.3 * x), x * xi, y * z]
    for lab in V3.labels:
        for mu in range(4):
            comp[((mu,), lab)] = rng.uniform(-1, 1) * basis[rng.randrange(5)]
    omega = ValuedForm.from_components(mink, 1, COV, V3, comp)
    res = covariant_D(omega, curvature(omega))
    for _ in range(20):
        pt = tuple(rng.uniform(-2, 2) for _ in range(4))
        ok &= all(abs(v.ev(pt)) <= 1e-10 for s in res.slices for v in s.components.values())
    # Levi-Civita metricity on Schwarzschild, 1e-9
    schw = schwarzschild_chart(mass=1.0)
    met = metricity_residual(schw.metric)
    for _ in range(20):
        pt = (rng.uniform(3, 10), rng.uniform(0.3, 2.8),
              rng.uniform(0, 6.2), rng.uniform(-1, 1))
        ok &= all(abs(v.ev(pt)) <= 1e-9 for v in met)
    # FD stencil shows O(h^4) convergence
    e = sin(x) * exp(x)
    exact = e.diff(0).ev((0.37, 0, 0, 0))
    r = (abs(fd_diff(e, 0, (0.37, 0, 0, 0), h=0.1) - exact)
         / abs(fd_diff(e, 0, (0.37, 0, 0, 0), h=0.05) - exact))
    ok &= 12.0 <= r <= 20.0
    _announce(capsys, f"operator identities (fd ratio={r:.1f})", ok)


def test_09_geodesics(capsys):
    sph = sphere_chart()
    gam = christoffels_from_metric(sph.metric)
    xs, us = geodesic_integrate(gam, (math.pi / 2, 0.0), (0.0, 1.0),
                                10_000, 1e-3)
    g = sph.metric.entries()
    speeds = [sum(g[i][j].ev(tuple(xp)) * up[i] * up[j]
                  for i in range(2) for j in range(2))
              for xp, up in zip(xs[::500], us[::500])]
    drift = max(abs(s - 1.0) for s in speeds)
    flat_gam = [[[0.0] * 4 for _ in range(4)] for _ in range(4)]
    fx, fu = geodesic_integrate(flat_gam, (0.0, 0.0, 0.0, 0.0),
                                (0.1, 0.2, 0.3, 1.0), 100, 0.01)
    straight = (np.array_equal(fu[-1], fu[0])
                and np.allclose(fx[-1], [0.1, 0.2, 0.3, 1.0], atol=1e-15))
    ok = drift < 1e-10 and straight
    _announce(capsys, f"geodesics (drift={drift:.2e}, straight line exact)", ok)


def test_10_end_to_end(capsys):
    specs = sorted(SPEC_DIR.glob("*.grs"))
    ok = len(specs) == len(catalog_ids())
    for path in specs:
        # each shipped file pairs a passing and a failing fixture
        ok &= main(["verify", str(path)]) == 1
        capsys.readouterr()
    # golden JSON is byte-identical across runs and against the committed copy
    for stem in ("first_integral", "maxwell_vacuum"):
        path = SPEC_DIR / f"{stem}.grs"
        main(["verify", str(path), "--json"])
        a = capsys.readouterr().out
        main(["verify", str(path), "--json"])
        b = capsys.readouterr().out
        golden = (GOLDEN_DIR / f"{stem}.json").read_text()
        ok &= a == b == golden
    _announce(capsys, f"end-to-end CLI ({len(specs)} spec files, golden JSON)", ok)
