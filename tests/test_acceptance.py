"""Acceptance suite: one test per release criterion, tolerances pinned here.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion (pytest -v shows the same as test outcomes).
"""

import math

import numpy as np
import pytest

from qemlab.conditioned_mc import run_conditioned
from qemlab.dynamics import Box, NoiseModel, RegionSpec, WeightField, make_system
from qemlab.equilibrium import (MarkovModel, equilibrium_cylinder_measure,
                                pressure_sft, w1_1d)
from qemlab.filtration import (ConnectionGraph, CycleError, Node,
                               filtration_order, stratified_qem_workflow)
from qemlab.spectral import leading_pair, solve_triple, support_check
from qemlab.ulam import GridPartition, assemble_operator, restrict_operator

from oracles import growth_rate_dense, ternary_cylinder_cells

OBSERVABLES = {
    "x": lambda c: c[:, 0],
    "x^2": lambda c: c[:, 0] ** 2,
    "cos2pix": lambda c: np.cos(2.0 * np.pi * c[:, 0]),
}


def report(criterion, message):
    print(f"criterion {criterion:>2}: PASS  {message}")


def ternary_operator(resolution, eps, weight=None, region=None, samples=3):
    b = make_system("ternary_hole")
    grid = GridPartition(b.system.domain, resolution)
    M = assemble_operator(b.system, NoiseModel(eps),
                          weight or WeightField(), region or b.survivor,
                          grid, samples)
    return M, grid


def test_criterion_01_exact_markov_oracle():
    for k in range(1, 6):
        M, _ = ternary_operator(3 ** k, eps=0.0, samples=1)
        lam, _, _ = leading_pair(M)
        assert abs(lam - 2.0 / 3.0) <= 1e-10, f"resolution 3^{k}"
    M3, _ = ternary_operator(3, eps=0.0, samples=1)
    triple = solve_triple(M3)
    assert np.max(np.abs(triple.qem - np.array([0.5, 0.0, 0.5]))) <= 1e-10
    report(1, "lambda = 2/3 within 1e-10 at resolutions 3^1..3^5; "
              "3-cell qem = (1/2, 0, 1/2)")


def test_criterion_02_conditioned_stability_1d(ternary_fine):
    grid = ternary_fine["grid"]
    triples = ternary_fine["triples"]
    proj = ternary_fine["oracle_projection"]
    lam = triples[1e-3].lam
    assert abs(lam - 2.0 / 3.0) <= 0.02 * (2.0 / 3.0)
    x = grid.centers()[:, 0]
    qem = triples[1e-3].qem
    mean = float(qem @ x)
    var = float(qem @ x ** 2 - mean ** 2)
    assert abs(mean - 0.5) <= 0.01
    assert abs(var - 0.125) <= 0.01
    w1 = {eps: w1_1d(triples[eps].qem, proj, grid.centers())
          for eps in (1e-2, 3e-3, 1e-3)}
    assert w1[1e-2] > w1[3e-3] > w1[1e-3]
    report(2, f"lambda={lam:.6f}, mean={mean:.4f}, var={var:.4f}, "
              f"w1 decreasing {w1[1e-2]:.2e} > {w1[3e-3]:.2e} > {w1[1e-3]:.2e}")


def test_criterion_03_hyperbolic_baker():
    b = make_system("open_baker")
    grid = GridPartition(b.system.domain, 81)
    M = assemble_operator(b.system, NoiseModel(1e-3), WeightField(),
                          b.survivor, grid, samples_per_cell=(3, 1))
    triple = solve_triple(M, with_gap=False)
    assert abs(triple.lam - 2.0 / 3.0) <= 0.02 * (2.0 / 3.0)
    qm = triple.qem.reshape(81, 81)
    xs = grid.centers()[:, 0].reshape(81, 81)[:, 0]
    ys = grid.centers()[:, 1].reshape(81, 81)[0, :]
    marg_x, marg_y = qm.sum(axis=1), qm.sum(axis=0)
    mx, my = float(marg_x @ xs), float(marg_y @ ys)
    vx = float(marg_x @ xs ** 2 - mx ** 2)
    vy = float(marg_y @ ys ** 2 - my ** 2)
    assert abs(mx - 0.5) <= 0.01 and abs(my - 0.5) <= 0.01
    assert abs(vx - 0.125) <= 0.012 and abs(vy - 0.125) <= 0.012
    g = triple.right.reshape(81, 81)
    y_variation = float((g.max(axis=1) - g.min(axis=1)).max())
    x_variation = float((g.max(axis=0) - g.min(axis=0)).max())
    assert y_variation <= 0.5 * x_variation
    report(3, f"lambda={triple.lam:.6f}, marginal means ({mx:.4f},{my:.4f}), "
              f"variances ({vx:.4f},{vy:.4f}), g y/x variation "
              f"{y_variation:.2e}/{x_variation:.2f}")


def test_criterion_04_quasi_ergodic_theorem_mc(ternary_fine):
    grid = ternary_fine["grid"]
    triple = ternary_fine["triples"][1e-3]
    b = ternary_fine["builtin"]
    x = grid.centers()[:, 0]
    moments = {"x": float(triple.qem @ x),
               "x^2": float(triple.qem @ x ** 2),
               "cos2pix": float(triple.qem @ np.cos(2.0 * np.pi * x))}
    noise = NoiseModel(1e-3)
    lines = []
    for seed, start in ((11, 0.1), (12, 0.9)):
        stats = run_conditioned(b.system, noise, WeightField(), b.survivor,
                                np.array([start]), n=10_000,
                                n_particles=10_000,
                                observables=OBSERVABLES, seed=seed)
        for name, target in moments.items():
            diff = abs(stats.averages[name] - target)
            assert diff <= 3.0 * stats.standard_errors[name], \
                f"start {start}, observable {name}"
        lines.append(f"start {start}: max dev "
                     f"{max(abs(stats.averages[k] - moments[k]) for k in moments):.4f}")
    ones = run_conditioned(b.system, noise, WeightField(), b.survivor,
                           np.array([0.1]), n=200, n_particles=2000,
                           observables={"one": lambda c: np.ones(len(c))},
                           seed=13)
    assert ones.averages["one"] == 1.0
    report(4, "; ".join(lines) + "; h=1 gives exactly 1")


def test_criterion_05_escape_rate_consistency():
    noise = NoiseModel(1e-3)
    results = []
    for label, resolution in (("ternary_hole", 729), ("five_hole", 625)):
        b = make_system(label)
        grid = GridPartition(b.system.domain, resolution)
        M = assemble_operator(b.system, noise, WeightField(), b.survivor,
                              grid, 15)
        lam, _, _ = leading_pair(M)
        stats = run_conditioned(b.system, noise, WeightField(), b.survivor,
                                np.array([0.1]), n=4000, n_particles=4000,
                                observables={"x": lambda c: c[:, 0]}, seed=6)
        mc_lam = math.exp(-stats.escape_rate_estimate)
        assert abs(mc_lam - lam) <= 0.02, label
        results.append(f"{label}: exp(-rate)={mc_lam:.4f} vs lambda={lam:.4f}")
    report(5, "; ".join(results))


def test_criterion_06_weight_correspondence():
    """Tapered weight on V, plain weight on V, and plain weight killed on a
    nested depth-2 cylinder region all give the same measure on the nested
    region.  The taper width sits below one grid cell: survivor mass
    accumulates at the region boundary, so any taper the grid resolves
    re-weights that mass at a Hoelder rate and is a different experiment
    (see TestBoundaryWeightSensitivity in the spectral tests)."""
    res = 729
    h = 1.0 / res
    b = make_system("ternary_hole")
    grid = GridPartition(b.system.domain, res)
    noise = NoiseModel(1e-3)
    V = b.survivor
    nested = RegionSpec((Box((0.0,), (1.0 / 9.0,)),
                         Box((2.0 / 9.0,), (1.0 / 3.0,)),
                         Box((2.0 / 3.0,), (7.0 / 9.0,)),
                         Box((8.0 / 9.0,), (1.0,))), label="depth2")
    tapered = WeightField(0.0, support_cutoff=V, taper_width=h / 8.0,
                          domain=b.system.domain)
    qems = {}
    for key, weight, region in (("tapered_V", tapered, V),
                                ("plain_V", WeightField(), V),
                                ("plain_nested", WeightField(), nested)):
        M = assemble_operator(b.system, noise, weight, region, grid, 3)
        qems[key] = solve_triple(M, with_gap=False).qem
    cells = np.flatnonzero(nested.contains(grid.centers()))

    def on_nested(v):
        r = np.zeros_like(v)
        r[cells] = v[cells]
        return r / r.sum()

    keys = list(qems)
    worst = 0.0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            d = w1_1d(on_nested(qems[keys[i]]), on_nested(qems[keys[j]]),
                      grid.centers())
            worst = max(worst, d)
            assert d <= 2.0 * h, f"{keys[i]} vs {keys[j]}: w1={d}"
    report(6, f"three measures agree on the nested region, "
              f"max pairwise w1 = {worst:.2e} <= {2 * h:.2e}")


def test_criterion_07_weight_rescaling():
    M0, _ = ternary_operator(243, eps=1e-3)
    M2, _ = ternary_operator(243, eps=1e-3,
                             weight=WeightField(math.log(2.0)))
    t0, t2 = solve_triple(M0, with_gap=False), solve_triple(M2, with_gap=False)
    assert abs(t2.lam - 2.0 * t0.lam) <= 1e-10
    sup = float(np.max(np.abs(t2.qem - t0.qem)))
    assert sup <= 1e-10
    report(7, f"phi -> phi + log 2 doubles lambda ({t0.lam:.6f} -> "
              f"{t2.lam:.6f}); qem sup-change {sup:.1e}")


def test_criterion_08_spectral_stability():
    """For this system the leading eigenvalue is exactly noise-invariant
    (the uniform survivor density is a left eigenvector at every noise
    level under the wrapped kernel), so successive differences sit at the
    solver's arithmetic floor; the monotonicity comparison allows that
    floor."""
    tol = 1e-13
    grid_res = 729
    lams = {}
    for eps in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        M, _ = ternary_operator(grid_res, eps=eps)
        lams[eps], _, _ = leading_pair(M, tol=tol)
    eps_list = sorted(lams, reverse=True)
    diffs = [abs(lams[eps_list[i]] - lams[eps_list[i + 1]]) for i in range(3)]
    floor = 100.0 * tol * (2.0 / 3.0)
    for a, b in zip(diffs, diffs[1:]):
        assert b <= a + floor
    assert abs(lams[1.25e-3] - 2.0 / 3.0) <= 0.01
    report(8, f"|lambda step| sequence {['%.1e' % d for d in diffs]} "
              f"nonincreasing (floor {floor:.0e}); "
              f"|lambda(1.25e-3) - 2/3| = {abs(lams[1.25e-3] - 2/3):.1e}")


def test_criterion_09_filtration_ordering():
    nodes = tuple(Node(i, 0.1 * i) for i in range(1, 8))
    order = filtration_order(ConnectionGraph(
        nodes, ((1, 4), (4, 2), (2, 7), (5, 6))))
    assert order.sequence == (1, 4, 2, 7, 5, 6, 3)
    assert order.subgraphs == ((1, 4, 2, 7), (5, 6), (3,))
    assert order.t == 2
    with pytest.raises(CycleError) as err:
        filtration_order(ConnectionGraph(
            tuple(Node(i, 0.1 * i) for i in (1, 2, 3)),
            ((1, 2), (2, 3), (3, 1))))
    assert len(err.value.witness) == 3
    report(9, "sequence 1>4>2>7>5>6>3 with subgraphs "
              "{1,4,2,7},{5,6},{3}; cycles rejected with witness")


def test_criterion_10_two_repeller_global():
    b = make_system("two_repeller")
    noise = NoiseModel(1e-3)
    grid = GridPartition(b.system.domain, 405)
    M = assemble_operator(b.system, noise, WeightField(), b.survivor,
                          grid, 15)
    order = filtration_order(ConnectionGraph(
        (Node(1, math.log(3.0 / 5.0)), Node(2, math.log(2.0 / 3.0))), ()))
    centers = grid.centers()[:, 0]
    strata = {2: np.flatnonzero(centers < 1.5),
              1: np.flatnonzero(centers > 1.5)}
    rep = stratified_qem_workflow(M, strata)
    assert abs(rep.lambda_global - 2.0 / 3.0) <= 1e-3
    sub_mass = float(rep.global_triple.qem[centers > 1.5].sum())
    assert sub_mass <= 1e-3
    checks = 0
    for key, start, seed in ((2, 0.1, 42), (1, 2.1, 41)):
        res = next(r for r in rep.strata if r.key == key)
        cen = centers[res.cells]
        local = {"x": float(res.triple.qem @ cen),
                 "x^2": float(res.triple.qem @ cen ** 2),
                 "cos2pix": float(res.triple.qem @ np.cos(2 * np.pi * cen))}
        stats = run_conditioned(b.system, noise, WeightField(), b.survivor,
                                np.array([start]), n=6000, n_particles=6000,
                                observables=OBSERVABLES, seed=seed)
        for name, target in local.items():
            diff = abs(stats.averages[name] - target)
            assert diff <= 3.0 * stats.standard_errors[name], \
                f"start {start}, {name}"
            checks += 1
    report(10, f"global lambda={rep.lambda_global:.6f}, sub-dominant mass "
               f"{sub_mass:.1e}; {checks} conditioned-average matches "
               f"against local measures")


def test_criterion_11_support_check():
    M, grid = ternary_operator(243, eps=1e-3)
    triple = solve_triple(M, with_gap=False)
    cells = ternary_cylinder_cells(depth=5, resolution=243)
    floor = 0.5 * 2.0 ** -5 * 0.2
    rep = support_check(triple, cells, floor=floor)
    assert rep.n_reference == 32
    assert rep.passed, rep.violations
    report(11, f"all 32 depth-5 survivor cells carry mass >= {floor:.2e} "
               f"(min {rep.min_mass:.2e})")


def test_criterion_12_brute_force_equivalence():
    b = make_system("ternary_hole")
    matrices = []
    for res, eps, k in ((3, 0.0, 1), (6, 0.0, 2), (6, 0.01, 3), (3, 1e-3, 3)):
        grid = GridPartition(b.system.domain, res)
        matrices.append(assemble_operator(
            b.system, NoiseModel(eps), WeightField(), b.survivor, grid,
            k))
    baker = make_system("open_baker")
    matrices.append(assemble_operator(
        baker.system, NoiseModel(0.01), WeightField(), baker.survivor,
        GridPartition(baker.system.domain, 2), samples_per_cell=(2, 2)))
    matrices.append(restrict_operator(matrices[0], [0, 2]))
    worst = 0.0
    for M in matrices:
        assert M.n_cells <= 8
        lam, _, _ = leading_pair(M, tol=1e-12)
        lam_dense, _, _ = growth_rate_dense(M.toarray(), squarings=64)
        worst = max(worst, abs(lam - lam_dense))
        assert abs(lam - lam_dense) <= 1e-8
    report(12, f"{len(matrices)} small matrices: power iteration matches "
               f"repeated squaring within {worst:.1e}")


def test_criterion_13_weighted_five_hole_three_routes():
    """A Hoelder weight that shapes the measure, read by all three routes.

    On five_hole's repeller (base-5 digits 0, 1, 2) phi equals c_a on the
    branch interval of digit a, [a/5, a/5 + 0.1], and is linear across the
    gaps and the seam.  So the equilibrium state of phi - log 5 is Bernoulli
    with p_a proportional to e^{c_a}: lambda = sum_a e^{c_a} / 5 and the mean
    is E[digit] / 4.  The spectral tolerances are the deviations the
    625-cell operator shows, rounded up.
    """
    c = (0.0, 0.5, 1.0)
    lam = sum(math.exp(ca) for ca in c) / 5.0
    mean = sum(a * math.exp(ca) for a, ca in enumerate(c)) \
        / sum(math.exp(ca) for ca in c) / 4.0

    def phi(p):
        return np.interp(p[:, 0], [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0],
                         [c[0], c[0], c[1], c[1], c[2], c[2], c[0]])

    model = MarkovModel(np.array([[ca - math.log(5.0)] * 3 for ca in c]),
                        digits=(0, 1, 2), base=5)
    assert abs(math.exp(pressure_sft(model)) - lam) <= 1e-12
    depth = 7
    symbolic = equilibrium_cylinder_measure(model, depth).mean()
    assert abs(symbolic - mean) <= 5.0 ** -depth

    b = make_system("five_hole")
    noise = NoiseModel(1e-3)
    weight = WeightField(phi)
    grid = GridPartition(b.system.domain, 625)
    triple = solve_triple(assemble_operator(b.system, noise, weight,
                                            b.survivor, grid, 3))
    spectral_mean = float(triple.qem @ grid.centers()[:, 0])
    assert abs(triple.lam - lam) <= 5e-5
    assert abs(spectral_mean - mean) <= 2.1e-4
    assert triple.gap_converged

    lines = []
    for seed in (101, 102):
        stats = run_conditioned(b.system, noise, weight, b.survivor,
                                np.array([0.1]), n=2000, n_particles=10_000,
                                observables={"x": lambda p: p[:, 0]}, seed=seed)
        z = (stats.averages["x"] - mean) / stats.standard_errors["x"]
        mc_lam = math.exp(-stats.escape_rate_estimate)
        assert abs(z) <= 3.0, f"seed {seed}"
        assert abs(mc_lam - lam) <= 0.01, f"seed {seed}"
        lines.append(f"seed {seed}: z={z:+.2f}, exp(-rate)={mc_lam:.4f}")
    report(13, f"lambda={lam:.7f}, mean={mean:.7f}; symbolic mean "
               f"{symbolic:.7f}; spectral lambda {triple.lam:.7f}, mean "
               f"{spectral_mean:.6f}; particles " + "; ".join(lines))
