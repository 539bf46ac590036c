"""Acceptance criteria for the verification harness.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s; the
test verdicts carry the same information). Reference scale unless a
criterion needs otherwise: T = 1, grid 64, M = 5000, eps = 0.05.

Statistical checks use 4-standard-error bands throughout; with the
fixed master seeds below every criterion is deterministic.
"""

import math

import numpy as np
import pytest

from poisson_bm import (
    Estimate,
    EvaluationGrid,
    RunConfig,
    ThetaConfig,
    correlation_matrix,
    cross_moment,
    derive_stream,
    empirical_increment_covariance,
    fourth_moment_ratio,
    martingale_residual,
    normality_check,
    quadratic_variation,
    rate_fit,
    run_experiment,
    sample_poisson_path,
    stroock_variance_check,
    structural_bound_eval,
)
from poisson_bm.runner import generate_samples
from oracles import char_fn, segment_trig_integral
from test_poisson import trig_integral

SEED = 20240521
BAND = 4.0

# the reference angle vector: two cosine and two sine components,
# including the legal cross-block equality
REF_THETA = ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=["1/2 pi", 1.1])

# angle pair exercised by the cross-moment criteria
THETA_1 = math.pi / 2
THETA_2 = 2.2

RATE_EPSILONS = (0.4, 0.28, 0.2, 0.14, 0.1)
RATE_M = 200_000
RATE_THETA = ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=["1/2 pi", 2.2])
RATE_KINDS = (("coscos", 0, 1), ("sinsin", 2, 3), ("cossin", 0, 3))

# at most four processes; the runner caps them at the CPUs the run may use
_WORKERS = 4


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def _make_samples(theta, eps, M, seed, steps=64, workers=_WORKERS):
    cfg = RunConfig(
        theta=theta,
        epsilons=(eps,),
        replications_M=M,
        master_seed=seed,
        grid_points=steps,
        workers=workers,
        checks=("covariance",),
    )
    return generate_samples(cfg, cfg.grid, 0)


@pytest.fixture(scope="module")
def ref_samples():
    """M = 5000 samples of the reference vector at eps = 0.05, 64-step grid."""
    return _make_samples(REF_THETA, 0.05, 5000, SEED)


# ----------------------------------------------------------------------
# 1. exact integration oracle


def test_criterion_1_trig_integral_oracle():
    # to 16 ulps of b against the segment-by-segment sum
    rng = np.random.default_rng(SEED)
    max_ulps = 0.0
    for case in range(1000):
        a = float(rng.uniform(0.0, 2.0))
        b = a + float(rng.uniform(2.0, 6.0))
        path = sample_poisson_path(b, derive_stream(SEED, 1, case))
        theta = float(rng.uniform(0.05, 2.0 * math.pi - 0.05))
        kind = "cos" if case % 2 == 0 else "sin"
        got = trig_integral(path, theta, a, b, kind)
        want = segment_trig_integral(path.jump_times, theta, a, b, kind)
        max_ulps = max(max_ulps, abs(got - want) / np.spacing(b))
        assert abs(got - want) <= 16 * np.spacing(b), (case, theta, a, b)

    # additivity to 8 ulps at the prefix scale
    worst = 0.0
    for case in range(200):
        horizon = 40.0
        path = sample_poisson_path(horizon, derive_stream(SEED, 2, case))
        a, b, c = np.sort(np.random.default_rng(case).uniform(0, horizon, 3))
        theta = float(rng.uniform(0.1, 6.0))
        for kind in ("cos", "sin"):
            whole = trig_integral(path, theta, float(a), float(c), kind)
            split = trig_integral(path, theta, float(a), float(b), kind) + trig_integral(
                path, theta, float(b), float(c), kind
            )
            worst = max(worst, abs(whole - split))
            assert abs(whole - split) <= 8 * np.spacing(horizon)
    _line(
        "criterion-1 exact-integration oracle",
        True,
        f"1000 segment-sum cases (worst {max_ulps:.1f} ulps of b), additivity worst {worst:.2e}",
    )


# ----------------------------------------------------------------------
# 2. characteristic-function oracle


def test_criterion_2_char_fn_monte_carlo():
    M = 100_000
    s_grid = (0.5, 1.0, 3.0)
    thetas = (0.7, 2.0, math.pi)
    counts = np.empty((M, len(s_grid)), dtype=np.int64)
    for r in range(M):
        path = sample_poisson_path(3.0, derive_stream(SEED, 3, r))
        counts[r] = np.searchsorted(path.jump_times, s_grid, side="right")
    worst_z = 0.0
    for theta in thetas:
        for k, s in enumerate(s_grid):
            target = char_fn(theta, s)
            for kind, want in (("cos", target.real), ("sin", target.imag)):
                vals = np.cos(theta * counts[:, k]) if kind == "cos" else np.sin(
                    theta * counts[:, k]
                )
                se = float(vals.std(ddof=1)) / math.sqrt(M)
                # floor the band for degenerate cells (sin at theta = pi is
                # identically zero up to float noise, so se underflows)
                band = max(BAND * se, 1e-12)
                err = abs(float(vals.mean()) - want)
                worst_z = max(worst_z, err / band * BAND)
                assert err <= band, (theta, s, kind)
    _line(
        "criterion-2 characteristic-function oracle",
        True,
        f"3x3 grid x cos/sin at M={M}, worst |z| = {worst_z:.2f}",
    )


# ----------------------------------------------------------------------
# 3. covariance structure


def test_criterion_3_covariance_structure(ref_samples):
    cov = empirical_increment_covariance(ref_samples)
    d = 4
    worst_z = 0.0
    for i in range(d):
        for j in range(i, d):
            target = 1.0 if i == j else 0.0
            est = cov[i][j]
            z = abs(est.value - target) / est.std_error
            worst_z = max(worst_z, z)
            assert z <= BAND, (i, j, est.value)
    _line(
        "criterion-3 covariance structure",
        True,
        f"4 diagonal -> 1 and 6 off-diagonal -> 0, worst |z| = {worst_z:.2f}",
    )


# ----------------------------------------------------------------------
# 4. quadratic variation


def test_criterion_4_quadratic_variation():
    # run at angles pi/2 / pi/2 (the cross-block pairing): at eps = 0.05
    # a 64-piece partition is deep enough in the limit for these angles,
    # whereas angles with cos(theta) far from 0 retain an O(pieces*eps^2)
    # systematic offset larger than the band
    theta = ThetaConfig(cos_block=["1/2 pi"], sin_block=["1/2 pi"])
    samples = _make_samples(theta, 0.05, 5000, SEED + 4)
    qvs = quadratic_variation(samples)
    worst_z = 0.0
    for c in range(2):
        est = Estimate.from_observations(qvs[:, c])
        z = abs(est.value - 1.0) / est.std_error
        worst_z = max(worst_z, z)
        assert z <= BAND, (c, est.value)
    _line(
        "criterion-4 quadratic variation",
        True,
        f"mean QV over 64-piece partition -> 1, worst |z| = {worst_z:.2f}",
    )


# ----------------------------------------------------------------------
# 5. fourth-moment boundedness


def _dyadic_pairs():
    out = []
    for level in range(3):
        pieces = 2**level
        for k in range(pieces):
            out.append((k / pieces, (k + 1) / pieces))
    return out


def test_criterion_5_fourth_moment_boundedness():
    theta = ThetaConfig(cos_block=["1/2 pi"], sin_block=["1/2 pi"])
    ratios = []
    anchors = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        samples = _make_samples(theta, eps, 5000, SEED + 5, steps=4)
        for c in range(2):
            for s, t in _dyadic_pairs():
                est = fourth_moment_ratio(samples, s, t)[c]
                ratios.append(est.value)
                if eps == 0.05 and (s, t) == (0.0, 1.0):
                    anchors.append(est.value)
    spread = max(ratios) / min(ratios)
    assert spread <= 10.0
    for r in anchors:
        assert abs(r - 3.0) <= 0.5
    _line(
        "criterion-5 fourth-moment boundedness",
        True,
        f"max/min = {spread:.2f} <= 10; anchors at eps=0.05: "
        + ", ".join(f"{r:.3f}" for r in anchors),
    )


# ----------------------------------------------------------------------
# 6. cross-moment decay and rate


def _rate_estimates():
    """E[Delta_i Delta_j] estimates per kind over the epsilon sweep.

    One generate_samples call per epsilon, then cross_moment over
    (0, 1); on the one-step grid each block is M x 4 x 2
    doubles (12.8 MB at M = 200000).
    """
    cfg = RunConfig(
        theta=RATE_THETA,
        epsilons=RATE_EPSILONS,
        replications_M=RATE_M,
        master_seed=SEED + 6,
        grid_points=1,
        workers=_WORKERS,
        checks=("cross_moments",),
    )
    grid = EvaluationGrid(1.0, 1)
    per_eps = []
    for k in range(len(RATE_EPSILONS)):
        block = generate_samples(cfg, grid, k)
        ests = cross_moment(block)
        per_eps.append([ests[i, j] for _, i, j in RATE_KINDS])
    return per_eps


def test_criterion_6_cross_moment_decay():
    # 6a: at eps = 0.05 every kind sits inside its 4-SE band around zero
    samples = _make_samples(RATE_THETA, 0.05, 5000, SEED + 6, steps=1)
    ests = cross_moment(samples)
    for kind, i, j in RATE_KINDS:
        est = ests[i, j]
        assert abs(est.value) <= BAND * est.std_error, (kind, est.value)

    # 6b: epsilon sweep, slope and envelope domination
    per_eps = _rate_estimates()
    eps = np.asarray(RATE_EPSILONS)
    details = []
    for c, (kind, i, j) in enumerate(RATE_KINDS):
        values = np.array([per_eps[k][c].value for k in range(len(eps))])
        ses = np.array([per_eps[k][c].std_error for k in range(len(eps))])
        # |estimate| floored at its standard error: below Monte Carlo
        # resolution the raw magnitude is noise
        floored = np.maximum(np.abs(values), ses)
        slope = rate_fit(list(eps), list(floored))
        assert slope >= 1.0, (kind, slope)

        # the analytic envelope scales exactly as eps^2, so after
        # normalizing both curves at the largest epsilon the envelope
        # must dominate the estimates up to Monte Carlo resolution
        est_n = floored / floored[0]
        env_n = (eps / eps[0]) ** 2
        se_n = ses / floored[0]
        assert np.all(est_n[1:] < env_n[1:] + BAND * se_n[1:]), (kind, est_n, env_n)

        # and the raw envelope total is computable for this pair
        assert structural_bound_eval(THETA_1, THETA_2, float(eps[-1])) > 0
        details.append(f"{kind} slope={slope:.2f}")
    _line("criterion-6 cross-moment decay", True, "; ".join(details))


# ----------------------------------------------------------------------
# 7. martingale residuals


def test_criterion_7_martingale_residuals(ref_samples):
    worst_z = 0.0
    for label, conditioning in (("one", ()), ("tanh-k2", (0.25, 0.5))):
        ests = martingale_residual(ref_samples, 0.5, 1.0, conditioning)
        for c in range(4):
            est = ests[c]
            z = abs(est.value) / est.std_error
            worst_z = max(worst_z, z)
            assert z <= BAND, (label, c, est.value)
    _line(
        "criterion-7 martingale residuals",
        True,
        f"phi in {{1, tanh-product}} x 4 components, worst |z| = {worst_z:.2f}",
    )


# ----------------------------------------------------------------------
# 8. angle-pi variance (Stroock case)


def test_criterion_8_angle_pi_variance():
    plain = _make_samples(ThetaConfig(cos_block=["pi"]), 0.05, 5000, SEED + 8, steps=1)
    est_plain = stroock_variance_check(plain)
    z_plain = abs(est_plain.value - 2.0) / est_plain.std_error
    assert z_plain <= BAND, est_plain.value

    scaled = _make_samples(
        ThetaConfig(cos_block=["pi"], allow_pi_in_cos=True), 0.05, 5000, SEED + 8, steps=1
    )
    est_scaled = stroock_variance_check(scaled)
    z_scaled = abs(est_scaled.value - 1.0) / est_scaled.std_error
    assert z_scaled <= BAND, est_scaled.value
    _line(
        "criterion-8 angle-pi variance",
        True,
        f"unrescaled {est_plain.value:.3f} -> 2 (|z|={z_plain:.2f}); "
        f"rescaled {est_scaled.value:.3f} -> 1 (|z|={z_scaled:.2f})",
    )


# ----------------------------------------------------------------------
# 9. counterexample identities


def test_criterion_9_counterexample_identities():
    # angles summing to 2*pi: cosine components coincide, sine components negate
    theta = ThetaConfig(cos_block=["2/5 pi", "8/5 pi"], sin_block=["2/5 pi", "8/5 pi"])
    samples = _make_samples(theta, 0.4, 100, SEED + 9, steps=8, workers=1)
    corr = correlation_matrix(empirical_increment_covariance(samples))
    assert abs(corr[0, 1] - 1.0) <= 1e-12
    assert abs(corr[2, 3] + 1.0) <= 1e-12

    # duplicated angle inside one block: identical components
    dup = ThetaConfig(cos_block=[1.3, 1.3])
    dup_samples = _make_samples(dup, 0.4, 100, SEED + 9, steps=8, workers=1)
    corr_dup = correlation_matrix(empirical_increment_covariance(dup_samples))
    assert abs(corr_dup[0, 1] - 1.0) <= 1e-12
    _line(
        "criterion-9 counterexample identities",
        True,
        f"corr(cos,cos')={corr[0, 1]:.15f}, corr(sin,sin')={corr[2, 3]:.15f}, "
        f"corr(dup)={corr_dup[0, 1]:.15f}",
    )


# ----------------------------------------------------------------------
# 10. normality


def test_criterion_10_normality(ref_samples):
    deltas = ref_samples.at_time(1.0)
    worst_skew = worst_kurt = 0.0
    for c in range(4):
        rep = normality_check(deltas[:, c])
        worst_skew = max(worst_skew, abs(rep.skewness))
        worst_kurt = max(worst_kurt, abs(rep.excess_kurtosis))
        assert abs(rep.skewness) < 0.1, (c, rep.skewness)
        assert abs(rep.excess_kurtosis) < 0.15, (c, rep.excess_kurtosis)

    # KS below the 1% critical value in at least 18 of 20 seeded runs
    theta = ThetaConfig(cos_block=["1/2 pi"])
    crit = 1.63 / math.sqrt(5000)
    hits = 0
    for run in range(20):
        samples = _make_samples(theta, 0.05, 5000, SEED + 100 + run, steps=1)
        xs = samples.values[:, 0, 1]
        if normality_check(xs).ks_statistic < crit:
            hits += 1
    assert hits >= 18, hits
    _line(
        "criterion-10 normality",
        True,
        f"worst |skew| = {worst_skew:.3f} < 0.1, worst |ex-kurt| = {worst_kurt:.3f} < 0.15, "
        f"KS under critical in {hits}/20 runs",
    )


# ----------------------------------------------------------------------
# 11. determinism


def test_criterion_11_worker_count_determinism():
    texts = []
    for workers in (1, 4, 8):
        cfg = RunConfig(
            theta=ThetaConfig(cos_block=["1/2 pi"]),
            epsilons=(0.2,),
            replications_M=100,
            master_seed=SEED + 11,
            grid_points=64,
            workers=workers,
        )
        texts.append(run_experiment(cfg).to_json_text())
    assert texts[0] == texts[1] == texts[2]
    _line(
        "criterion-11 determinism",
        True,
        f"byte-identical JSON for workers 1/4/8 ({len(texts[0])} bytes)",
    )
