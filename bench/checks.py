"""Reference values computed apart from wfald, and the output checks.

The training data is regenerated from the seed derivation documented in
``wfald/rng.py``: ``SeedSequence(master_seed, spawn_key=(1,))`` feeds a
Philox generator that draws the (d, n) covariates, then the n target noises.
The posterior and the shard constants are then computed with the small dense
routines below (Cholesky factorisation, cyclic Jacobi eigenvalues) rather
than with the LAPACK calls the program uses.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

#: ground-truth coefficients of the d = 5 reference problem
THETA_STAR = (-0.0615, -1.6057, 1.7629, 1.0240, -1.5902)

#: relative tolerance for constants recomputed along another numerical path
RTOL = 1e-9

#: the final SGLD mse must stay below this many times its expected value
MSE_MARGIN = 10.0

#: how far the channel-noise share of a W2 estimate may exceed its expected
#: value.  After a deep fade one replicate can carry nearly all of a round's
#: residual noise, and then that share is beta_r * chi2_d / R instead of its
#: mean d * beta_r / R; P(chi2_5 > 8 * 5) = 1.5e-7.
CHANNEL_SPREAD = 8.0


def training_data(master_seed: int, n: int, noise_std: float = 1.0):
    gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(master_seed, spawn_key=(1,))))
    star = np.array(THETA_STAR)
    covariates = gen.standard_normal((len(star), n))
    targets = star @ covariates + noise_std * gen.standard_normal(n)
    return covariates, targets


def cholesky(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        low[j, j] = math.sqrt(a[j, j] - low[j, :j] @ low[j, :j])
        for i in range(j + 1, n):
            low[i, j] = (a[i, j] - low[i, :j] @ low[j, :j]) / low[j, j]
    return low


def cholesky_solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = rhs by forward then back substitution."""
    n = low.shape[0]
    y = np.zeros(n)
    for i in range(n):
        y[i] = (rhs[i] - low[i, :i] @ y[:i]) / low[i, i]
    x = np.zeros(n)
    for i in reversed(range(n)):
        x[i] = (y[i] - low[i + 1:, i] @ x[i + 1:]) / low[i, i]
    return x


def jacobi_eigenvalues(a: np.ndarray, sweeps: int = 50) -> np.ndarray:
    """Ascending eigenvalues of a small symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(float(np.sum(np.triu(a, 1) ** 2)))
        if off <= 1e-15 * math.sqrt(float(np.sum(np.diag(a) ** 2))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q], rot[q, p] = s, -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


@dataclass
class Reference:
    """Posterior and per-shard constants of the reference problem at one seed."""

    posterior_cov: np.ndarray
    precision_eigenvalues: np.ndarray   # of A = U U^T + I
    smoothness: float                   # max_k lambda_max(U_k U_k^T + I/K)
    strong_convexity: float             # min_k lambda_min(U_k U_k^T + I/K)
    grad_center: float                  # max_k ||grad f_k(posterior mean)||

    @classmethod
    def build(cls, master_seed: int, n: int, k: int) -> "Reference":
        U, v = training_data(master_seed, n)
        d = U.shape[0]
        precision = U @ U.T + np.eye(d)
        low = cholesky(precision)
        mean = cholesky_solve(low, U @ v)
        cov = np.column_stack([cholesky_solve(low, e) for e in np.eye(d)])
        base, extra = divmod(n, k)
        sizes = [base + (1 if j < extra else 0) for j in range(k)]
        bounds = np.cumsum([0] + sizes)
        l_max, mu_min, grad_center = -math.inf, math.inf, 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            Uk, vk = U[:, lo:hi], v[lo:hi]
            eig = jacobi_eigenvalues(Uk @ Uk.T + np.eye(d) / k)
            l_max, mu_min = max(l_max, eig[-1]), min(mu_min, eig[0])
            grad = Uk @ (Uk.T @ mean - vk) + mean / k
            grad_center = max(grad_center, math.sqrt(float(grad @ grad)))
        return cls(posterior_cov=0.5 * (cov + cov.T),
                   precision_eigenvalues=jacobi_eigenvalues(precision),
                   smoothness=float(l_max), strong_convexity=float(mu_min),
                   grad_center=grad_center)

    @property
    def region_radius(self) -> float:
        """Five posterior standard deviations along the widest axis."""
        return 5.0 / math.sqrt(self.precision_eigenvalues[0])


# ----------------------------------------------------------------- files --- #


def _num(text: str) -> float:
    return float("nan") if text in ("", "nan") else float(text)


def read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [{k: (v if k == "algorithm" else _num(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _check_constants(payload: dict, ref: Reference, problems: list) -> None:
    c = payload["constants"]
    radius = payload["region_radius"]
    expected = {
        "smoothness": ref.smoothness,
        "strong_convexity": ref.strong_convexity,
        "grad_bound": ref.grad_center + ref.smoothness * ref.region_radius,
    }
    for key, want in expected.items():
        if not _close(c[key], want):
            problems.append(f"summary constant {key} = {c[key]!r}, recomputed {want!r}")
    if not _close(radius, ref.region_radius):
        problems.append(f"region_radius = {radius!r}, recomputed {ref.region_radius!r}")


def contraction_gamma(step: float, mu: float, smoothness: float) -> float:
    """Per-step contraction factor of gradient descent on a mu-convex, L-smooth loss."""
    if step <= 2.0 / (mu + smoothness):
        return 1.0 - step * mu
    return step * smoothness - 1.0


def channel_noise_shares(betas: list[float], dim: int, r2: float) -> list[float]:
    """Expected residual-channel-noise share of W2^2 after each round.

    Round s adds d * beta_s (beta_s the replicate-mean residual power) and
    every later round contracts it by r2, the bound's own per-round factor.
    """
    shares, carried = [], 0.0
    for beta in betas:
        carried = r2 * carried + dim * (0.0 if math.isnan(beta) else beta)
        shares.append(carried)
    return shares


# ---------------------------------------------------------------- checks --- #


def check_fading(out_dir: str, settings: dict, ref: Reference) -> list[str]:
    """WFALD run: constants, W2 bound dominance, drift ceilings, beta >= 0."""
    problems = []
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    _check_constants(payload, ref, problems)
    summary = payload["summary"]
    rows = read_rows(os.path.join(out_dir, "iterations.csv"))
    if len(rows) != settings["s_total"]:
        problems.append(f"iterations.csv has {len(rows)} rows, expected {settings['s_total']}")
    # w2_sq is fitted to R particles while the bound speaks of their law, so
    # the channel-noise share of the estimate gets its sampling allowance
    gamma = contraction_gamma(settings["eta"], ref.strong_convexity, ref.smoothness)
    shares = channel_noise_shares([row["beta"] for row in rows], settings["dim"],
                                  ((1.0 + gamma) / 2.0) ** 2)
    for row, share in zip(rows, shares):
        allowance = (CHANNEL_SPREAD - 1.0) * share
        if not math.isnan(row["w2_sq"]) and not row["bound"] + allowance >= row["w2_sq"]:
            problems.append(f"round {row['s']:.0f}: bound {row['bound']} + sampling "
                            f"allowance {allowance} < w2_sq {row['w2_sq']}")
        if not row["beta"] >= 0.0:
            problems.append(f"round {row['s']:.0f}: beta {row['beta']} < 0")
    if not any(row["beta"] > 0.0 for row in rows):
        problems.append("no power-limited round (beta > 0): the workload misses its regime")
    for stat in ("v_theta", "v_c"):
        mean, bound = summary[f"{stat}_mean"], summary[f"{stat}_bound"]
        if not mean <= bound:
            problems.append(f"{stat}_mean {mean} > {stat}_bound {bound}")
    return problems


def expected_grid_rows(settings: dict) -> int:
    """Grid points after the axis collapse: FALD drops SNR, SGLD drops both."""
    n_pc = len(settings["sweep.pc_grid"].split(","))
    n_snr = len(settings["sweep.snr_db_grid"].split(","))
    per_algorithm = {"WFALD": n_pc * n_snr, "WFedAvg": n_pc * n_snr, "FALD": n_pc, "SGLD": 1}
    return sum(per_algorithm[a] for a in settings["sweep.algorithms"].split(","))


def check_sweep(out_dir: str, settings: dict, ref: Reference | None) -> list[str]:
    """Sweep: row count, W2 bound dominance, drift ceilings, exact zeros."""
    problems = []
    rows = read_rows(os.path.join(out_dir, "results.csv"))
    want = expected_grid_rows(settings)
    if len(rows) != want:
        problems.append(f"results.csv has {len(rows)} rows, expected {want}")
    for row in rows:
        where = f"{row['algorithm']} p_c={row['p_c']} snr={row['snr_db']}"
        if row["algorithm"] in ("WFALD", "FALD") and not row["w2_sq"] <= row["bound_final_mean"]:
            problems.append(f"{where}: w2_sq {row['w2_sq']} > bound {row['bound_final_mean']}")
        if not row["v_theta_mean"] <= row["v_theta_bound"]:
            problems.append(f"{where}: v_theta_mean {row['v_theta_mean']} > {row['v_theta_bound']}")
        if (row["p_c"] == 1.0 or row["algorithm"] == "SGLD") and row["v_theta_mean"] != 0.0:
            problems.append(f"{where}: v_theta_mean {row['v_theta_mean']} is not exactly 0")
        # the V_c ceiling uses constants measured at the posterior mean only,
        # which SGLD (one device, no dispersion slack) can exceed
        if row["algorithm"] != "SGLD" and not row["v_c_mean"] <= row["v_c_bound"]:
            problems.append(f"{where}: v_c_mean {row['v_c_mean']} > {row['v_c_bound']}")
    return problems


def sgld_mse_limit(ref: Reference, step: float, n_rounds: int) -> float:
    """MSE_MARGIN times the Monte Carlo error of the chain's N-round average.

    Along an eigendirection of the precision A with eigenvalue lam the chain
    is AR(1) with coefficient 1 - step * lam, so its average over N rounds
    has variance about var * 2 tau / N with tau = 1 / (step * lam).  Taking
    the slowest direction for every direction gives tr(Sigma) * 2 tau / N.
    """
    tau = 1.0 / (step * ref.precision_eigenvalues[0])
    return MSE_MARGIN * float(np.trace(ref.posterior_cov)) * 2.0 * tau / n_rounds


def check_sgld(out_dir: str, settings: dict, ref: Reference) -> list[str]:
    """SGLD chain: shard constants and final mse against the Monte Carlo error."""
    problems = []
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    _check_constants(payload, ref, problems)
    rows = read_rows(os.path.join(out_dir, "iterations.csv"))
    if len(rows) != settings["s_total"]:
        problems.append(f"iterations.csv has {len(rows)} rows, expected {settings['s_total']}")
        return problems
    # SGLD runs the federated round clock: step eta / K on one device
    step = settings["eta"] / settings["k"]
    limit = sgld_mse_limit(ref, step, settings["s_total"] - settings["s_burn"])
    mse = rows[-1]["mse"]
    if not mse < limit:
        problems.append(f"final mse {mse} is not below {limit} "
                        f"({MSE_MARGIN:g} x the chain's Monte Carlo error)")
    return problems
