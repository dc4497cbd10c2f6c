"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with the measured slack (run with -s to see them inline).

Two sub-claims are marked as strict expected failures because the exact
operators refute them; the analysis lives next to the assertions and in
the project notes:

* the upper half of the candidate two-sided second-moment bound for
  the series operator (criterion 9): the lower half is sharp, but its
  mirrored upper counterpart fails at interior points, and
* monotone decay of the geometric-series error for the endpoint-
  oscillatory registry function under the Bernstein family (part of
  criterion 8): the weighted sup lands near the endpoints, where the
  error samples sin(1/psi) at order-dependent phases.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from opgeom.experiments import ExperimentConfig, run_experiment
from opgeom.funcspace import (F_transform, default_grid,
                              check_F_second_derivative, project_to_Cpsi, psi,
                              psi_norm, registry)
from opgeom.operators import (OperatorSpec, alpha_profile,
                              durrmeyer_functional, moment,
                              node_discretization, _mkz_weight_grid)
from opgeom.series import check_inversion_identities, geometric_series
from opgeom.special import bernstein_basis_matrix

BASE = default_grid()
N_SWEEP = range(2, 33)


def report(num, text):
    print(f"criterion {num:>2}: PASS  {text}")


def series_one(op, f, eps, method):
    """The series entry's result for the single input f on BASE."""
    (res,) = geometric_series(op, [f], eps, BASE, method=method)
    return res


def bernstein_central_moments(n, pts, kpow):
    nodes = np.arange(n + 1) / n
    p = bernstein_basis_matrix(n, pts)
    return np.einsum("ik,ik->i", p, (nodes[None, :] - pts[:, None]) ** kpow)


# ---------------------------------------------------------------------------
# Shared heavy fixture: one Krylov solve per series-family order and input,
# covering every input the criteria need.  TestKrylov in test_series keeps
# the Neumann cross-check of the Krylov path at n = 4.
# ---------------------------------------------------------------------------

MKZ_INPUT_NAMES = ("psi_e0", "psi_e1", "psi_sin_pi", "psi_osc", "sin_pi")


@pytest.fixture(scope="module")
def mkz_series():
    out = {}
    for n in (4, 8, 16):
        op = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
        fam = op.grid(BASE)
        prof = alpha_profile(op, BASE)
        w = registry("psi")
        inputs = [w, w * registry("e1"), w * registry("sin_pi"),
                  w * registry("osc"), registry("sin_pi")]
        results = geometric_series(op, inputs, 1e-6, BASE)
        out[n] = {"op": op, "grid": fam, "profile": prof,
                  "series": dict(zip(MKZ_INPUT_NAMES, results))}
    return out


def test_criterion_01_bernstein_moment_identities():
    pts = BASE.points
    worst2 = worst4 = 0.0
    for n in N_SWEEP:
        m2 = bernstein_central_moments(n, pts, 2)
        worst2 = max(worst2, float(np.max(np.abs(m2 - psi(pts) / n))))
        m4 = bernstein_central_moments(n, pts, 4)
        ratio_ref = (3.0 / n - 6.0 / n ** 2) * psi(pts) + 1.0 / n ** 2
        worst4 = max(worst4, float(np.max(np.abs(m4 / m2 - ratio_ref))))
    assert worst2 <= 1e-12
    assert worst4 <= 1e-10
    report(1, f"M2 within {worst2:.2e}, M4/M2 within {worst4:.2e}")


def test_criterion_02_bernstein_ratio_bound():
    pts = BASE.points
    worst = -np.inf
    for n in N_SWEEP:
        m2 = bernstein_central_moments(n, pts, 2)
        m4 = bernstein_central_moments(n, pts, 4)
        slack = np.max(m4 / m2) - (0.75 / n - 0.5 / n ** 2)
        worst = max(worst, float(slack))
    assert worst <= 1e-12
    report(2, f"sup M4/M2 below the bound with slack {-worst:.2e}")


def test_criterion_03_durrmeyer_moments():
    pts = BASE.points[::8]
    worst2 = worst4 = 0.0
    for n in (4, 8, 16):
        for rho in (0.5, 1.0, 2.0):
            spec = OperatorSpec("durrmeyer", n, rho=rho)
            m2 = np.array([moment(spec, 2, float(x)) for x in pts])
            ref2 = (rho + 1.0) * psi(pts) / (n * rho + 1.0)
            worst2 = max(worst2, float(np.max(np.abs(m2 - ref2))))
            m4 = np.array([moment(spec, 4, float(x)) for x in pts])
            denom = (n * rho + 1.0) * (n * rho + 2.0) * (n * rho + 3.0)
            ref4 = (3.0 * rho * (rho + 1.0) ** 2 * psi(pts) ** 2 * n
                    + (-6.0 * (rho + 1.0) * (rho ** 2 + 3.0 * rho + 3.0)
                       * psi(pts) ** 2
                       + (rho + 1.0) * (rho + 2.0) * (rho + 3.0) * psi(pts))) \
                / denom
            worst4 = max(worst4, float(np.max(np.abs(m4 - ref4))))
    assert worst2 <= 1e-10
    assert worst4 <= 1e-8
    worst_q = 0.0
    for name in ("e0", "e1", "e2", "e3", "e4"):
        f = registry(name)
        for (n, k, rho) in [(4, 2, 0.5), (8, 3, 1.0), (16, 11, 2.0)]:
            a = durrmeyer_functional(n, k, rho, f, method="closed-form")
            b = durrmeyer_functional(n, k, rho, f, method="quadrature")
            worst_q = max(worst_q, abs(a - b))
    assert worst_q <= 1e-8
    report(3, f"M2 within {worst2:.2e}, M4 within {worst4:.2e}, "
              f"functional routes within {worst_q:.2e}")


def test_criterion_04_eigenfunction_series_both_paths():
    pts = BASE.points
    worst_n = worst_s = 0.0
    for n in N_SWEEP:
        op = OperatorSpec("bernstein", n)
        neu = series_one(op, registry("psi"), 1e-8, "neumann")
        sol = series_one(op, registry("psi"), 1e-8, "solve")
        ref = n * psi(pts)
        err_n = float(np.max(np.abs(np.asarray(neu.g(pts)) - ref) / psi(pts)))
        err_s = float(np.max(np.abs(np.asarray(sol.g(pts)) - ref) / psi(pts)))
        assert err_n <= 1e-6 * n
        assert err_s <= 1e-6 * n
        worst_n = max(worst_n, err_n / n)
        worst_s = max(worst_s, err_s / n)
    worst_pair = 0.0
    for name in ("psi", "sin_pi"):
        f = registry(name)
        for n in (4, 8, 16, 32):
            op = OperatorSpec("bernstein", n)
            neu = series_one(op, f, 1e-8, "neumann")
            sol = series_one(op, f, 1e-8, "solve")
            diff = float(np.max(np.abs(np.asarray(neu.g(pts))
                                       - np.asarray(sol.g(pts))) / psi(pts)))
            allowed = 1e-8 / (1.0 - op.contraction_bound()) + 1e-9
            assert diff <= allowed
            worst_pair = max(worst_pair, diff / allowed)
    report(4, f"eigenfunction error/n <= {max(worst_n, worst_s):.2e}; "
              f"paths agree within {worst_pair:.2f} of combined budget")


def test_criterion_05_inversion_residuals():
    inputs = [registry("psi"), registry("psi").scaled(-1.0),
              project_to_Cpsi(registry("e3"))]
    worst = 0.0
    for fam, kw in [("bernstein", {}), ("durrmeyer", {"rho": 1.0})]:
        for n in (4, 8, 16):
            op = OperatorSpec(fam, n, **kw)
            for f in inputs:
                r1, r2 = check_inversion_identities(op, f, 1e-8, BASE)
                assert max(r1, r2) <= 1e-7, (fam, n)
                worst = max(worst, r1, r2)
    worst_z = 0.0
    for n in (4, 8):
        op = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
        tau = node_discretization(op).truncation_error_bound
        for f in inputs:
            r1, r2 = check_inversion_identities(op, f, 1e-6, BASE)
            assert max(r1, r2) <= 10.0 * (1e-6 + tau), n
            worst_z = max(worst_z, r1, r2)
    report(5, f"exact carriers <= {worst:.2e}; series family <= {worst_z:.2e}")


def test_criterion_06_series_norm_bounds(mkz_series):
    worst_iii = -np.inf
    worst_iv = -np.inf
    for fam, kw, ns in [("bernstein", {}, (4, 8, 16, 32)),
                        ("durrmeyer", {"rho": 1.0}, (4, 8, 16, 32))]:
        for n in ns:
            op = OperatorSpec(fam, n, **kw)
            prof = alpha_profile(op, BASE)
            g_psi = series_one(op, registry("psi"), 1e-8, "neumann")
            lhs = (1.0 - prof.b_norm) * psi_norm(g_psi.g, BASE).value
            assert lhs <= 1.0 + 1e-6, (fam, n)
            worst_iii = max(worst_iii, lhs - 1.0)
            for name in ("psi", "sin_pi"):
                f = registry(name)
                res = series_one(op, f, 1e-8, "neumann")
                ratio = psi_norm(res.g, BASE).value * (1.0 - prof.b_norm) \
                    / psi_norm(f, BASE).value
                assert ratio <= 1.0 + 1e-6, (fam, n, name)
                worst_iv = max(worst_iv, ratio - 1.0)
    for n, blob in mkz_series.items():
        prof = blob["profile"]
        fam_grid = blob["grid"]
        lhs = (1.0 - prof.b_norm) * psi_norm(
            blob["series"]["psi_e0"].g, fam_grid).value
        assert lhs <= 1.0 + 1e-6, ("mkz-symmetric", n)
        worst_iii = max(worst_iii, lhs - 1.0)
        for key, fname in [("psi_e0", "psi"), ("sin_pi", "sin_pi")]:
            f = registry(fname)
            ratio = psi_norm(blob["series"][key].g, fam_grid).value \
                * (1.0 - prof.b_norm) / psi_norm(f, fam_grid).value
            assert ratio <= 1.0 + 1e-6, ("mkz-symmetric", n, fname)
            worst_iv = max(worst_iv, ratio - 1.0)
    report(6, f"norm product exceeds 1 by <= {worst_iii:.2e}; "
              f"operator-norm ratio by <= {worst_iv:.2e}")


def test_criterion_07_iterate_envelope():
    worst = -np.inf
    for fam, kw in [("bernstein", {}), ("durrmeyer", {"rho": 1.0}),
                    ("mkz-symmetric", {"eps": 1e-6})]:
        cfg = ExperimentConfig(experiment="iterates", family=fam,
                               n_list=(4, 8), function="e2", **kw)
        rep = run_experiment(cfg)
        for (n, k, err, env) in rep.rows:
            allowed = env * (1 + 1e-9)
            if fam == "mkz-symmetric":
                allowed += 10.0 * k * 1e-6  # per-application truncation slack
            assert err <= allowed, (fam, n, k)
            worst = max(worst, err - env * (1 + 1e-9))
    report(7, f"decay within the geometric envelope (worst slack used "
              f"{worst:.2e})")


def _geom_errors(fam, ns, fname, **kw):
    cfg = ExperimentConfig(experiment="geom", family=fam, n_list=ns,
                           function=fname, **kw)
    return [row[1] for row in run_experiment(cfg).rows]


def test_criterion_08_geom_convergence(mkz_series):
    errs0 = _geom_errors("bernstein", (4, 8, 16, 32), "e0")
    assert all(e <= 1e-6 for e in errs0)
    summary = [f"bernstein e0 <= {max(errs0):.1e}"]
    for fname in ("e1", "sin_pi"):
        errs = _geom_errors("bernstein", (4, 8, 16, 32), fname)
        for a, b in zip(errs, errs[1:]):
            assert b < a and b <= 0.9 * a, ("bernstein", fname, errs)
        summary.append(f"bernstein {fname} ratio <= "
                       f"{max(b / a for a, b in zip(errs, errs[1:])):.2f}")
    for fname in ("e1", "sin_pi", "osc"):
        errs = _geom_errors("durrmeyer", (4, 8, 16, 32), fname, rho=1.0)
        for a, b in zip(errs, errs[1:]):
            assert b < a and b <= 0.9 * a, ("durrmeyer", fname, errs)
    summary.append("durrmeyer e1/sin_pi/osc decreasing")
    for key, fname in [("psi_e0", "e0"), ("psi_e1", "e1"),
                       ("psi_sin_pi", "sin_pi"), ("psi_osc", "osc")]:
        errs = []
        for n in (4, 8, 16):
            blob = mkz_series[n]
            pts = blob["grid"].points
            f = registry(fname)
            ref = 2.0 * np.asarray(F_transform(f, grid=blob["grid"])(pts))
            vals = blob["profile"].alpha_values \
                * np.asarray(blob["series"][key].g(pts))
            errs.append(float(np.max(np.abs(vals - ref) / psi(pts))))
        for a, b in zip(errs, errs[1:]):
            assert b < a and b <= 0.9 * a, ("mkz-symmetric", fname, errs)
    summary.append("mkz-symmetric all columns decreasing")
    report(8, "; ".join(summary))


@pytest.mark.xfail(
    strict=True,
    reason="the weighted sup of the geometric-series error for the "
           "endpoint-oscillatory registry function under the Bernstein "
           "family is not monotone in n: near the endpoints the error "
           "samples sin(1/psi) at order-dependent phases (measured "
           "0.424, 0.171, 0.189, 0.072 over n = 4, 8, 16, 32, rising at "
           "8 -> 16); both series paths agree to 8e-10 and the reference "
           "transform is stable to 6e-8, so the bump is intrinsic")
def test_criterion_08_geom_convergence_bernstein_osc():
    errs = _geom_errors("bernstein", (4, 8, 16, 32), "osc")
    for a, b in zip(errs, errs[1:]):
        assert b < a and b <= 0.9 * a, errs


def test_criterion_09_second_moment_lower_bounds():
    worst = -np.inf
    for n in range(3, 17):
        spec = OperatorSpec("mkz", n, truncation_eps=1e-10)
        pts = spec.grid(BASE).points
        w, nodes = _mkz_weight_grid(n, pts, 1e-10)
        m2 = np.einsum("ij,ij->i", w, (nodes[None, :] - pts[:, None]) ** 2)
        lo = pts * (1 - pts) ** 2 / (n + 1) * (1 + 2 * pts / (n + 2))
        viol = float(np.max(lo - m2))
        assert viol <= 1e-10, n
        worst = max(worst, viol)
        spec_s = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-10)
        spts = spec_s.grid(BASE).points
        m2s = np.array([moment(spec_s, 2, float(x)) for x in spts[::4]])
        los = psi(spts[::4]) / (2 * (n + 1)) * (1 + 4 * psi(spts[::4]) / (n + 2))
        viol_s = float(np.max(los - m2s))
        assert viol_s <= 1e-10, n
        worst = max(worst, viol_s)
    report(9, f"lower bounds hold with violation <= {worst:.2e} "
              f"(n = 3..16)")


@pytest.mark.xfail(
    strict=True,
    reason="the upper halves of the candidate two-sided second-moment "
           "bounds are violated by the exact operator at interior points: exact "
           "rational summation gives m2(1/2) = 0.0245346... > 0.0243055... "
           "= x(1-x)^2/(n+1) (1 + 2x/(n+1)) at n = 5, and the relative "
           "excess decays only like 1/n; the lower halves hold and are "
           "gated in the passing test above")
def test_criterion_09_second_moment_upper_bounds():
    for n in range(3, 17):
        spec = OperatorSpec("mkz", n, truncation_eps=1e-10)
        pts = spec.grid(BASE).points
        w, nodes = _mkz_weight_grid(n, pts, 1e-10)
        m2 = np.einsum("ij,ij->i", w, (nodes[None, :] - pts[:, None]) ** 2)
        hi = pts * (1 - pts) ** 2 / (n + 1) * (1 + 2 * pts / (n + 1))
        assert float(np.max(m2 - hi)) <= 1e-10, n


def test_criterion_09_upper_bound_counterexample_is_exact():
    # supporting evidence for the expected failure above: exact rational
    # partial sum plus a certified geometric tail at n = 5, x = 1/2
    n, x = 5, Fraction(1, 2)
    partial = Fraction(0)
    w = (1 - x) ** (n + 1)
    for k in range(220):
        partial += w * (Fraction(k, n + k) - x) ** 2
        w = w * x * (n + k + 1) / (k + 1)
    tail = float(w) / (1.0 - 0.75)
    hi = Fraction(1, 2) * Fraction(1, 4) / (n + 1) * (1 + Fraction(1, n + 1))
    assert float(partial - hi) > 1e-4
    assert tail < 1e-40


def test_criterion_10_moment_asymptotic_rate():
    ratios = {}
    for r in (2, 3, 4):
        errs = []
        for n in (4, 8, 16, 32):
            spec = OperatorSpec("mkz", n, truncation_eps=1e-10)
            pts = spec.grid(BASE).points
            w, nodes = _mkz_weight_grid(n, pts, 1e-10)
            vals = w @ nodes ** r
            lead = math.comb(r, 2) * pts ** (r - 1) * (1 - pts) ** 2
            errs.append(float(np.max(
                np.abs(n * (vals - pts ** r) - lead) / psi(pts))))
        for a, b in zip(errs, errs[1:]):
            assert b <= 0.7 * a, (r, errs)
        ratios[r] = max(b / a for a, b in zip(errs, errs[1:]))
    report(10, "halving ratios " + ", ".join(
        f"r={r}: {v:.2f}" for r, v in ratios.items()))


def test_criterion_11_voronovskaya():
    cfg = ExperimentConfig(experiment="voronovskaya", family="bernstein",
                           n_list=(4, 8, 16, 32), function="e3")
    rows = run_experiment(cfg).rows
    for (n, err, _) in rows:
        assert err <= 1.01 / n
    worst_ratio = 0.0
    for fname in ("e4", "sin_pi", "exp"):
        cfg = ExperimentConfig(experiment="voronovskaya", family="bernstein",
                               n_list=(4, 8, 16, 32), function=fname)
        errs = [r[1] for r in run_experiment(cfg).rows]
        for a, b in zip(errs, errs[1:]):
            assert b <= 0.6 * a, (fname, errs)
        worst_ratio = max(worst_ratio,
                          max(b / a for a, b in zip(errs, errs[1:])))
    # module contract: the column also decreases for the other constant-
    # profile family
    cfg = ExperimentConfig(experiment="voronovskaya", family="durrmeyer",
                           rho=1.0, n_list=(4, 8, 16, 32), function="e4")
    errs = [r[1] for r in run_experiment(cfg).rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    report(11, f"e3 error at the 1/n scale; doubling ratios <= "
               f"{worst_ratio:.2f}")


def test_criterion_12_inverse_voronovskaya():
    worst_recon = 0.0
    for fname in ("e2", "e3", "e4", "sin_pi"):
        f = registry(fname)
        g = f.second_derivative().scaled(0.5)
        f1 = project_to_Cpsi(f)
        pts = BASE.points
        recon = float(np.max(np.abs(
            np.asarray(f1(pts)) + 2.0 * np.asarray(
                F_transform(g, grid=BASE)(pts))) / psi(pts)))
        assert recon <= 1e-8, fname
        worst_recon = max(worst_recon, recon)
    for fam, kw, ns in [("bernstein", {}, (4, 8, 16, 32)),
                        ("durrmeyer", {"rho": 1.0}, (4, 8, 16, 32)),
                        ("mkz-symmetric", {"eps": 1e-6}, (4, 8, 16))]:
        for fname in ("e3", "sin_pi"):
            cfg = ExperimentConfig(experiment="inverse-voronovskaya",
                                   family=fam, n_list=ns, function=fname, **kw)
            errs = [r[1] for r in run_experiment(cfg).rows]
            assert all(b < a for a, b in zip(errs, errs[1:])), (fam, fname)
    report(12, f"reconstruction <= {worst_recon:.2e}; premise decreasing "
               f"for all three families")


def test_criterion_13_transform_oracles():
    pts = BASE.points
    err0 = float(np.max(np.abs(
        np.asarray(F_transform(registry("e0"))(pts)) - psi(pts) / 2)))
    err1 = float(np.max(np.abs(
        np.asarray(F_transform(registry("e1"))(pts))
        - psi(pts) * (1 + pts) / 6)))
    assert err0 <= 1e-10 and err1 <= 1e-10
    hs = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    ratios = []
    trans = F_transform(registry("psi"))
    errs = [abs(check_F_second_derivative(registry("psi"), 0.3, h,
                                          transform=trans) + psi(0.3))
            for h in hs]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(3.5 <= r <= 4.5 for r in ratios)
    # e0 and e1 have exactly quadratic/cubic transforms, so the central
    # second difference is exact and the h^2 term vanishes identically;
    # the measured errors sit at the quadrature noise floor for every h,
    # which is the degenerate (zero-coefficient) form of the h^2 law.
    for name in ("e0", "e1"):
        f = registry(name)
        trans = F_transform(f)
        degenerate = [abs(check_F_second_derivative(f, 0.3, h, transform=trans)
                          + f(0.3)) for h in hs]
        assert max(degenerate) <= 1e-8, name
    report(13, f"closed forms within {max(err0, err1):.2e}; "
               f"second-difference ratios {min(ratios):.2f}..{max(ratios):.2f}")
