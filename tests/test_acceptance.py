"""End-to-end acceptance suite.

Each test is one acceptance criterion; run with -v to get one pass/fail line
per criterion.  Tests print their measured statistics so a failing criterion
shows how far off it was.  The heavyweight trend checks live toward the end
of the file.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy import stats

from batch_means import batch_means_se
from wfald.analysis import (
    BoundInputs,
    drift_bounds,
    empirical_gaussian,
    gaussian_w2_squared,
    per_device_mse,
    w2_bound_sequence,
)
from wfald.harness import SweepSpec, build_dataset, build_run_config, build_test_set, run_sweep
from wfald.model import Dataset, exact_posterior
from wfald.protocol import RunConfig, run, sequence


@pytest.fixture(scope="module")
def bench():
    """The d = 5 reference problem: config, dataset, exact posterior."""
    cfg = RunConfig()
    data = build_dataset(cfg)
    return cfg, data, exact_posterior(data)


def trend_config(base, **kw):
    """Smaller step / longer horizon variant used for the trend criteria.

    At the default step size the common-noise target 2 eta / K is large
    enough that the power constraint only binds below 10 dB, which pushes
    the channel-noise knee out of the studied SNR range; a tenth of the step
    moves the knee to roughly 20 dB, reproducing the qualitative behavior
    the trend criteria describe on the same problem.
    """
    return dataclasses.replace(base, eta=3e-4, s_total=1000, s_burn=500, **kw)


def mse_curve(cfg, grid, axis, data, posterior_mean):
    """Posterior-mean MSE at each grid value, the points run in one sequence."""
    points = [dataclasses.replace(cfg, **{axis: value}) for value in grid]
    with sequence([(point, data) for point in points]):
        return [float(per_device_mse(run(point, data).device_mean, posterior_mean).mean())
                for point in points]


def test_01_posterior_closed_form_matches_grid_integration():
    t0 = time.time()
    rng = np.random.default_rng(314)
    for trial in range(5):
        n = int(rng.integers(3, 21))
        U = rng.standard_normal((1, n))
        star = rng.standard_normal(1)
        v = U.T @ star + rng.standard_normal(n)
        data = Dataset(covariates=U, targets=v)
        post = exact_posterior(data)
        mean, var = float(post.mean[0]), float(post.covariance[0, 0])

        width = 8.0 * np.sqrt(var)
        grid = np.linspace(mean - width, mean + width, 20001)
        resid = U.T * grid[None, :] - v[:, None]
        log_density = -0.5 * (resid ** 2).sum(axis=0) - 0.5 * grid ** 2
        density = np.exp(log_density - log_density.max())
        mass = np.trapezoid(density, grid)
        mean_num = np.trapezoid(grid * density, grid) / mass
        var_num = np.trapezoid(grid ** 2 * density, grid) / mass - mean_num ** 2

        assert mean == pytest.approx(mean_num, rel=1e-6, abs=1e-9)
        assert var == pytest.approx(var_num, rel=1e-6)
    elapsed = time.time() - t0
    print(f"criterion 1: 5/5 grid-integration matches within 1e-6 ({elapsed:.2f}s)")
    assert elapsed < 1.0


def test_02_centralized_chain_samples_the_posterior():
    t0 = time.time()
    cfg = RunConfig(algorithm="SGLD", k=1, dim=2, n_samples=50, eta=1e-3,
                    p_b=1.0, p_c=1.0, s_total=50_000, s_burn=10_000,
                    snr_db=None, master_seed=20, theta_star=None)
    data = build_dataset(cfg)
    post = exact_posterior(data)
    result = run(cfg, data)
    chain = result.avg_traj[0, cfg.s_burn + 1:, :]

    se = batch_means_se(chain)
    gap = np.abs(chain.mean(axis=0) - post.mean)
    assert (gap <= 3.0 * se).all(), f"mean gap {gap} vs 3*SE {3 * se}"

    cov = np.cov(chain.T, ddof=1)
    scale = np.sqrt(np.outer(np.diag(post.covariance), np.diag(post.covariance)))
    rel = np.abs(cov - post.covariance) / scale
    assert rel.max() <= 0.10, f"covariance relative error {rel.max():.3f}"
    elapsed = time.time() - t0
    print(f"criterion 2: mean gap/SE {(gap / se).max():.2f} (<3), "
          f"cov err {rel.max():.3f} (<0.10) ({elapsed:.1f}s)")
    assert elapsed < 30.0


def test_03_noiseless_channel_reproduces_exact_averaging(bench):
    base, data, post = bench
    t0 = time.time()
    reps = 500
    cfg = dataclasses.replace(base, replicates=reps, snr_db=None)
    rw = run(dataclasses.replace(cfg, algorithm="WFALD"), data)
    rf = run(dataclasses.replace(cfg, algorithm="FALD"), data)

    worst = 0.0
    for s in (50, 100, 200):
        aw, af = rw.avg_traj[:, s, :], rf.avg_traj[:, s, :]
        se = np.sqrt(aw.var(0, ddof=1) / reps + af.var(0, ddof=1) / reps)
        worst = max(worst, float((np.abs(aw.mean(0) - af.mean(0)) / se).max()))
        cw, cf = np.cov(aw.T, ddof=1), np.cov(af.T, ddof=1)
        se_c = np.sqrt(
            (np.outer(np.diag(cw), np.diag(cw)) + cw ** 2) / (reps - 1)
            + (np.outer(np.diag(cf), np.diag(cf)) + cf ** 2) / (reps - 1))
        worst = max(worst, float((np.abs(cw - cf) / se_c).max()))
    assert worst < 4.0, f"moment z-score {worst:.2f} exceeds 4"

    # with ample transmit power the noise cap binds, so the rescaled channel
    # noise sits exactly on the Langevin target and the residual vanishes
    slack = run(dataclasses.replace(base, algorithm="WFALD", snr_db=20.0,
                                    power=1e6, replicates=3), data)
    betas = slack.beta[~np.isnan(slack.beta)]
    assert betas.size > 0 and (betas == 0.0).all()
    elapsed = time.time() - t0
    print(f"criterion 3: worst moment z {worst:.2f} (<4) over {reps} replicates, "
          f"residual power identically 0 under slack constraint ({elapsed:.0f}s)")
    assert elapsed < 120.0


def test_04_aggregation_rate_trend(bench):
    base, data, post = bench
    t0 = time.time()
    pcs = [round(0.1 * i, 1) for i in range(1, 11)]

    high = dataclasses.replace(base, algorithm="WFALD", snr_db=40.0, replicates=48)
    means = mse_curve(high, pcs, "p_c", data, post.mean)
    rho, pval = stats.spearmanr(pcs, means)
    assert rho <= 0.0, f"high-SNR MSE increases with aggregation rate (rho={rho:.3f})"
    assert pval < 0.05, f"high-SNR trend not significant (p={pval:.3g})"

    interior = 0
    for seed in range(10):
        low = trend_config(base, algorithm="WFALD", snr_db=15.0,
                           replicates=20, master_seed=seed)
        low_data = build_dataset(low)
        low_post = exact_posterior(low_data)
        curve = mse_curve(low, pcs, "p_c", low_data, low_post.mean)
        if pcs[int(np.argmin(curve))] < 1.0:
            interior += 1
    assert interior >= 8, f"interior argmin in only {interior}/10 low-SNR sweeps"
    elapsed = time.time() - t0
    print(f"criterion 4: high-SNR spearman rho={rho:.3f} (p={pval:.3g}), "
          f"low-SNR interior argmin {interior}/10 ({elapsed:.0f}s)")
    assert elapsed < 600.0


def test_05_snr_sensitivity_has_a_knee(bench):
    base, data, post = bench
    t0 = time.time()
    snrs = [10.0, 15.0, 20.0, 25.0, 30.0, 40.0]
    report = {}
    for pc in (0.5, 1.0):
        cfg = trend_config(base, algorithm="WFALD", p_c=pc, replicates=24)
        curve = dict(zip(snrs, mse_curve(cfg, snrs, "snr_db", data, post.mean)))
        flat = abs(curve[40.0] - curve[25.0]) / curve[40.0]
        ratio = curve[10.0] / curve[25.0]
        assert flat <= 0.10, f"pc={pc}: MSE not flat from 40 to 25 dB ({flat:.3f})"
        assert ratio >= 2.0, f"pc={pc}: MSE only grew {ratio:.2f}x from 25 to 10 dB"
        report[pc] = (flat, ratio)
    elapsed = time.time() - t0
    print("criterion 5: " + "; ".join(
        f"pc={pc}: flat {flat:.2e} (<0.10), low-SNR growth {ratio:.1f}x (>2)"
        for pc, (flat, ratio) in report.items()) + f" ({elapsed:.0f}s)")
    assert elapsed < 300.0


def test_06_ensemble_beats_last_iterate_at_low_snr(bench):
    base, data, post = bench
    t0 = time.time()
    reps = 100
    cfg = dataclasses.replace(base, snr_db=10.0, replicates=reps)
    tu, tv = build_test_set(base, data.theta_star)

    rw = run(dataclasses.replace(cfg, algorithm="WFALD"), data)
    ra = run(dataclasses.replace(cfg, algorithm="WFedAvg"), data)

    def device_averaged_test_error(thetas):
        preds = np.einsum("rd,kdm->rkm", thetas, tu)
        return ((preds - tv[None]) ** 2).mean(axis=(1, 2))

    err_ens = device_averaged_test_error(rw.device_mean.mean(axis=1))
    err_last = device_averaged_test_error(ra.theta_final.mean(axis=1))
    diff = err_last - err_ens
    se = float(diff.std(ddof=1) / np.sqrt(reps))
    assert diff.mean() > 0, "ensemble predictor not better at 10 dB"
    assert diff.mean() > 2.0 * se, f"separation {diff.mean():.3e} within 2 SE ({se:.3e})"
    elapsed = time.time() - t0
    print(f"criterion 6: ensemble {err_ens.mean():.5f} vs last-iterate "
          f"{err_last.mean():.5f}, gap {diff.mean() / se:.1f} paired SEs ({elapsed:.0f}s)")
    assert elapsed < 300.0


def test_07_distance_bound_dominates_every_grid_point(bench):
    base, data, post = bench
    t0 = time.time()
    reps = 200
    worst = np.inf
    grid = [dataclasses.replace(base, algorithm="WFALD", p_c=pc, snr_db=snr, replicates=reps)
            for pc in (0.2, 0.5, 1.0) for snr in (10.0, 20.0, 40.0)]
    with sequence([(cfg, data) for cfg in grid]):
        for cfg in grid:
            pc, snr = cfg.p_c, cfg.snr_db
            result = run(cfg, data)
            for s in (25, 50, 100, 200):
                est = gaussian_w2_squared(
                    empirical_gaussian(result.avg_traj[:, s, :]), post)
                for mode in ("per_round", "final"):
                    bound = min(
                        w2_bound_sequence(BoundInputs.from_run(result, r), mode)[s]
                        for r in range(reps))
                    assert bound >= est, (
                        f"bound {bound:.4g} < estimate {est:.4g} at "
                        f"pc={pc}, snr={snr}, s={s}, mode={mode}")
                    worst = min(worst, bound / est)
    elapsed = time.time() - t0
    print(f"criterion 7: bound holds on all 9 grid points x 4 rounds x 2 modes, "
          f"min bound/estimate {worst:.1f} ({elapsed:.0f}s)")
    assert elapsed < 600.0


def test_08_client_drift_bounds_hold(bench):
    base, data, post = bench
    t0 = time.time()
    lines = []
    grid = [dataclasses.replace(base, algorithm="WFALD", snr_db=40.0, p_c=pc, replicates=500)
            for pc in (0.2, 0.5, 1.0)]
    with sequence([(cfg, data) for cfg in grid]):
        for cfg in grid:
            pc = cfg.p_c
            result = run(cfg, data)
            vt = float(result.v_theta.mean())
            vc = float(result.v_c.mean())
            vt_bound, vc_bound = drift_bounds(result.constants, cfg.eta, pc,
                                              cfg.k, cfg.dim, vt)
            assert vt <= vt_bound, f"pc={pc}: V_theta {vt:.4g} > bound {vt_bound:.4g}"
            assert vc <= vc_bound, f"pc={pc}: V_c {vc:.4g} > bound {vc_bound:.4g}"
            if pc == 1.0:
                assert (result.v_theta == 0.0).all(), \
                    "V_theta must vanish exactly when every round aggregates"
            lines.append(f"pc={pc}: {vt:.3g}<={vt_bound:.3g}, {vc:.3g}<={vc_bound:.3g}")
    elapsed = time.time() - t0
    print(f"criterion 8: {'; '.join(lines)}; exact zero at pc=1 ({elapsed:.0f}s)")
    assert elapsed < 180.0


def test_09_transmit_power_respected_on_every_wireless_round(bench):
    base, data, post = bench
    t0 = time.time()
    total = 0
    grid = [dataclasses.replace(base, algorithm=algorithm, snr_db=snr, p_c=0.8,
                                gain_model=gain_model, replicates=10)
            for algorithm in ("WFALD", "WFedAvg") for snr in (5.0, 10.0, 40.0)
            for gain_model in ("constant", "rayleigh")]
    with sequence([(cfg, data) for cfg in grid]):
        for cfg in grid:
            algorithm, snr, gain_model = cfg.algorithm, cfg.snr_db, cfg.gain_model
            result = run(cfg, data)
            # power_use is each wireless round's largest ||x_k||^2 / P
            wireless = ~np.isnan(result.power_use)
            worst = result.power_use[wireless]
            assert (worst <= 1.0 + 1e-9).all(), (
                f"{algorithm} snr={snr} {gain_model}: "
                f"||x||^2 = {worst.max() * cfg.power:.6g}")
            total += cfg.k * int(wireless.sum())
    assert total > 10_000
    elapsed = time.time() - t0
    print(f"criterion 9: power constraint verified on {total} device "
          f"transmissions, 0 violations ({elapsed:.0f}s)")


def test_10_sweeps_are_bitwise_reproducible(tmp_path):
    t0 = time.time()
    raw = {"k": "3", "dim": "2", "n_samples": "12", "eta": "0.01",
           "s_total": "12", "s_burn": "4", "theta_star": "1.0, -2.0"}
    spec = SweepSpec(base=build_run_config(raw), pc_grid=(0.5, 1.0),
                     snr_db_grid=(15.0, None),
                     algorithms=("WFALD", "FALD", "SGLD", "WFedAvg"),
                     replicates=3)
    outputs = {}
    for name, workers in (("a", 1), ("b", 1), ("pool", 2)):
        out = tmp_path / name
        run_sweep(spec, str(out), workers=workers)
        outputs[name] = ((out / "results.csv").read_bytes(),
                         (out / "manifest.json").read_bytes())
    assert outputs["a"] == outputs["b"], "rerun changed sweep output"
    assert outputs["a"] == outputs["pool"], "worker pool changed sweep output"
    elapsed = time.time() - t0
    print(f"criterion 10: results.csv and manifest.json bitwise stable across "
          f"reruns and worker counts ({elapsed:.0f}s)")
