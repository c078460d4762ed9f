"""Acceptance gate: ten component-level checks against independent oracles
(high-precision arithmetic, finite differences, brute-force scans, enumerated
tables) plus two desk-scale directional experiments. Each test prints one
``[PASS]``/``[FAIL]`` line so a full run reads as a checklist.

Pinned tolerances live next to each test. Random draws are seeded, so every
check is reproducible bit-for-bit.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from driftkit import kernels
from driftkit.cli import main as cli_main
from driftkit.data import bucket_by_month, split_recent
from driftkit.evaluation import (
    ConfusionCounts,
    confusion,
    detect_drift,
    metrics,
)
from driftkit.losses import LossConfig, loss_grad, loss_value
from driftkit.model import (
    ModelConfig,
    backward,
    forward,
    init_model,
    predict_proba,
)
from driftkit.pfi import PfiConfig, run_pfi
from driftkit.synthdrift import DriftSpec, generate_stream, informative_indices
from driftkit.training import TrainConfig, train


@contextmanager
def reported(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {num:02d}: {name}")
        raise
    else:
        with capsys.disabled():
            print(f"[PASS] criterion {num:02d}: {name}")


def draw_batch(rng, max_abs_z, n_max=64):
    n = int(rng.integers(1, n_max + 1))
    z = rng.uniform(-max_abs_z, max_abs_z, n)
    y = (rng.random(n) < 0.5).astype(np.float64)
    return z, y


# --------------------------------------------------------------- criterion 1

def test_01_loss_variant_reduction_identities(capsys):
    """Neutral coefficients collapse the weighted loss to plain BCE, and the
    logit-penalty variant to the weighted loss with unit penalties, to 1e-12
    over 10,000 random batches (N <= 64, |z| <= 10) in under 5 s."""
    with reported(capsys, 1, "loss variant reduction identities"):
        tol = 1e-12
        neutral = LossConfig(variant="drbce", lam=0.0, p_fn=1.0, p_fp=1.0,
                             w1=1.0, w0=1.0, weight_mode="uniform")
        lambdas = (0.001, 0.01, 0.1, 0.5)
        bce = LossConfig(variant="bce")
        sd_bce = {lam: LossConfig(variant="sd_bce", lam=lam) for lam in lambdas}
        lam_cfgs = {
            lam: LossConfig(variant="drbce", lam=lam, p_fn=1.0, p_fp=1.0,
                            w1=1.0, w0=1.0, weight_mode="uniform")
            for lam in lambdas
        }
        # warm up so one-time costs are not billed as runtime
        z0 = np.array([0.3, -1.2])
        y0 = np.array([1.0, 0.0])
        loss_value(z0, y0, bce)
        loss_value(z0, y0, neutral)

        rng = np.random.default_rng(20240501)
        worst_bce = worst_sd = 0.0
        t0 = time.monotonic()
        for _ in range(10_000):
            z, y = draw_batch(rng, max_abs_z=10.0)
            lam = lambdas[int(rng.integers(len(lambdas)))]
            worst_bce = max(worst_bce,
                            abs(loss_value(z, y, neutral) - loss_value(z, y, bce)))
            worst_sd = max(worst_sd, abs(loss_value(z, y, sd_bce[lam])
                                         - loss_value(z, y, lam_cfgs[lam])))
        elapsed = time.monotonic() - t0
        assert worst_bce < tol, f"max |drbce(neutral) - bce| = {worst_bce}"
        assert worst_sd < tol, f"max |sd_bce - drbce(unit penalties)| = {worst_sd}"
        assert elapsed < 5.0, f"took {elapsed:.1f} s"


# --------------------------------------------------------------- criterion 2

def mp_term(z, y, a1, a0, lam):
    """One sample's loss contribution (before the 1/N), in mpmath."""
    p = 1 / (1 + mpmath.e ** (-z))
    if y == 1.0:
        core = -a1 * mpmath.log(p)
    else:
        core = -a0 * mpmath.log(1 - p)
    return core + lam / 2 * z * z


def test_02_loss_gradient_matches_finite_differences(capsys):
    """Analytic per-logit gradient vs central differences at step 1e-5 over
    1,000 random (batch, config) draws, |z| <= 30, including the default
    operating point (lam=0.1, p_fn=5, p_fp=1): max relative error < 1e-6.

    The difference quotient is evaluated per sample term at 30 significant
    digits. Perturbing z_i changes only term_i of the sum, so the
    per-term quotient equals the full-loss quotient exactly while staying
    clear of float64 cancellation for saturated logits."""
    with reported(capsys, 2, "loss gradient matches finite differences"):
        tol = 1e-6
        h = mpmath.mpf("1e-5")
        mpmath.mp.dps = 30
        rng = np.random.default_rng(20240502)
        operating = LossConfig(variant="drbce", lam=0.1, p_fn=5.0, p_fp=1.0,
                               w1=0.5, w0=0.5)
        worst = 0.0
        t0 = time.monotonic()
        for trial in range(1_000):
            z, y = draw_batch(rng, max_abs_z=30.0)
            if trial % 5 == 0:  # 200 draws pin the default operating point
                cfg = operating
            else:
                cfg = LossConfig(
                    variant="drbce",
                    lam=float(rng.choice([0.0, 0.001, 0.01, 0.1, 0.5])),
                    p_fn=float(rng.uniform(0.5, 10.0)),
                    p_fp=float(rng.uniform(0.5, 10.0)),
                    w1=float(rng.uniform(0.1, 1.0)),
                    w0=float(rng.uniform(0.1, 1.0)),
                )
            grad = loss_grad(z, y, cfg)
            a1, a0 = cfg.w1 * cfg.p_fn, cfg.w0 * cfg.p_fp
            for i in range(z.size):
                zi = mpmath.mpf(float(z[i]))
                fd = (mp_term(zi + h, y[i], a1, a0, cfg.lam)
                      - mp_term(zi - h, y[i], a1, a0, cfg.lam)) / (2 * h) / z.size
                fd = float(fd)
                rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-12)
                worst = max(worst, rel)
        elapsed = time.monotonic() - t0
        assert worst < tol, f"max relative error = {worst}"
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


# --------------------------------------------------------------- criterion 3

def relu_margin(params, X):
    """Smallest |pre-activation| of an eval-mode forward pass, recomputed
    from params and X in forward's order (its cache keeps only the ReLU
    outputs)."""
    t = params.tensors
    pre = X @ t["entry.W"] + t["entry.b"]
    vals = [pre]
    h = np.maximum(pre, 0.0)
    for k in range(params.cfg.n_residual_blocks):
        upre = h @ t[f"block{k}.W1"] + t[f"block{k}.b1"]
        spre = np.maximum(upre, 0.0) @ t[f"block{k}.W2"] + t[f"block{k}.b2"] + h
        vals += [upre, spre]
        h = np.maximum(spre, 0.0)
    for j in range(len(params.cfg.head_widths)):
        pre = h @ t[f"head{j}.W"] + t[f"head{j}.b"]
        vals.append(pre)
        h = np.maximum(pre, 0.0)
    return min(np.min(np.abs(v)) for v in vals)


def test_03_network_gradient_matches_finite_differences(capsys):
    """Backprop through entry + 2 residual blocks (8 -> 16 -> 1, dropout off)
    agrees with central differences of the composed loss to rel err 1e-4 for
    every parameter coordinate, on 3 seeds, in under 60 s. Seeds are screened
    so no relu pre-activation sits within 1e-3 of its kink, where a 1e-5
    difference step would straddle the non-differentiable point."""
    with reported(capsys, 3, "network gradient matches finite differences"):
        tol = 1e-4
        fd_h = 1e-5
        margin = 1e-3
        model_cfg = ModelConfig(input_dim=8, trunk_width=16, n_residual_blocks=2,
                                dropout_rate=0.0, head_widths=())
        loss_cfg = LossConfig(variant="drbce", lam=0.1, p_fn=5.0, p_fp=1.0,
                              w1=0.5, w0=0.5)
        rng = np.random.default_rng(20240503)
        X = rng.standard_normal((12, 8))
        y = (rng.random(12) < 0.5).astype(np.float64)

        def loss_of(params):
            z, _ = forward(params, X, mode="eval")
            return loss_value(z, y, loss_cfg)

        t0 = time.monotonic()
        checked_seeds = []
        seed = 0
        while len(checked_seeds) < 3:
            params = init_model(model_cfg, seed)
            z, cache = forward(params, X, mode="eval")
            if relu_margin(params, X) <= margin:
                seed += 1
                continue
            grads = backward(params, cache, loss_grad(z, y, loss_cfg))
            for name, tensor in params.tensors.items():
                flat = tensor.ravel()
                gflat = grads[name].ravel()
                for j in range(flat.size):
                    keep = flat[j]
                    flat[j] = keep + fd_h
                    up = loss_of(params)
                    flat[j] = keep - fd_h
                    down = loss_of(params)
                    flat[j] = keep
                    fd = (up - down) / (2.0 * fd_h)
                    rel = abs(gflat[j] - fd) / max(abs(gflat[j]), abs(fd), 1e-6)
                    assert rel < tol, f"seed {seed} {name}[{j}]: rel err {rel}"
            checked_seeds.append(seed)
            seed += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


# --------------------------------------------------------------- criterion 4

def test_04_adamw_convergence_and_decay_identity(capsys):
    """The optimizer kernel drives a 1-D quadratic to |p - p*| < 1e-3 within
    500 steps at lr=0.1, and with zero gradient the update is exactly the
    decoupled multiplicative decay p -= lr*wd*p (within 1e-15)."""
    with reported(capsys, 4, "optimizer convergence and decoupled decay"):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for p0, p_star in [(5.0, 0.0), (-3.0, 1.5), (0.2, -4.0)]:
            p = np.array([p0])
            m = np.zeros(1)
            v = np.zeros(1)
            best = abs(p0 - p_star)
            for t in range(1, 501):
                g = p - p_star  # gradient of 0.5*(p - p*)^2
                kernels.adamw_update(p, g, m, v, 1.0 - beta1**t, 1.0 - beta2**t,
                                     0.1, beta1, beta2, eps, 0.0)
                best = min(best, abs(float(p[0]) - p_star))
            assert best < 1e-3, f"start {p0} -> {p_star}: closest {best}"

        lr, wd = 0.05, 0.3
        p = np.array([1.7])
        m = np.zeros(1)
        v = np.zeros(1)
        zero = np.zeros(1)
        expected = 1.7
        for t in range(1, 201):
            kernels.adamw_update(p, zero, m, v, 1.0 - beta1**t, 1.0 - beta2**t,
                                 lr, beta1, beta2, eps, wd)
            expected -= lr * wd * expected
            assert abs(float(p[0]) - expected) <= 1e-15, f"step {t}"


# --------------------------------------------------------------- criterion 5

def test_05_importance_recovers_planted_features(capsys):
    """On streams with 3 informative and 7 noise columns (dim 10), a model
    trained to validation accuracy >= 0.95 plus permutation importance
    (n_repeats=5, keep cut 0.02) keeps all 3 informative columns and drops
    at least 6 of the 7 noise columns, in at least 9 of 10 seeds, < 5 min."""
    with reported(capsys, 5, "importance recovers planted features"):
        model_cfg = ModelConfig(input_dim=10, trunk_width=16, n_residual_blocks=1,
                                dropout_rate=0.1, head_widths=(8,))
        t0 = time.monotonic()
        successes = 0
        val_accs = []
        for seed in range(10):
            spec = DriftSpec(n_months=4, samples_per_month=750, feature_dim=10,
                             n_informative=3, drift_month=3, drift_magnitude=0.0,
                             informative_scale=2.0, seed=seed)
            ds = generate_stream(spec)
            planted = set(int(i) for i in informative_indices(spec))
            train_cfg = TrainConfig(validation="recent", n_val=500, batch_size=128,
                                    max_epochs=10, patience=3, seed=seed,
                                    lr=3e-3, weight_decay=1e-3)
            params, hist = train(ds, model_cfg, train_cfg)
            val_accs.append(hist.val_acc[hist.best_epoch])
            _, val = split_recent(ds, 500)
            mask, _report = run_pfi(params, val.features, val.labels,
                                    PfiConfig(n_repeats=5, seed=seed,
                                              keep_threshold=0.02))
            kept = set(mask.kept_indices)
            noise_dropped = len((set(range(10)) - planted) - kept)
            if planted <= kept and noise_dropped >= 6:
                successes += 1
        elapsed = time.monotonic() - t0
        assert min(val_accs) >= 0.95, f"weakest model: val acc {min(val_accs)}"
        assert successes >= 9, f"only {successes}/10 seeds recovered the planted set"
        assert elapsed < 300.0, f"took {elapsed:.1f} s"


# --------------------------------------------------------------- criterion 6

def test_06_metrics_match_enumerated_table(capsys):
    """metrics() reproduces 20 hand-enumerated confusion cases exactly, with
    undefined denominators (including positives-only buckets) reported as
    None rather than 0 or NaN."""
    with reported(capsys, 6, "metrics match enumerated table"):
        F = Fraction
        # (tp, fp, tn, fn) -> (acc, f1, fnr, fpr); None = undefined
        table = [
            ((5, 0, 5, 0), (1, 1, 0, 0)),
            ((0, 5, 0, 5), (0, 0, 1, 1)),
            ((3, 1, 4, 2), (F(7, 10), F(6, 9), F(2, 5), F(1, 5))),
            ((1, 1, 1, 1), (F(1, 2), F(1, 2), F(1, 2), F(1, 2))),
            ((10, 0, 0, 0), (1, 1, 0, None)),   # positives only, all caught
            ((0, 0, 0, 10), (0, 0, 1, None)),   # positives only, all missed
            ((6, 0, 0, 4), (F(3, 5), F(3, 4), F(2, 5), None)),  # positives only
            ((0, 0, 10, 0), (1, None, None, 0)),
            ((0, 10, 0, 0), (0, 0, None, 1)),
            ((0, 0, 5, 5), (F(1, 2), 0, 1, 0)),
            ((7, 2, 0, 1), (F(7, 10), F(14, 17), F(1, 8), 1)),
            ((2, 3, 5, 0), (F(7, 10), F(4, 7), 0, F(3, 8))),
            ((6, 3, 0, 0), (F(2, 3), F(4, 5), 0, 1)),
            ((1, 0, 0, 0), (1, 1, 0, None)),
            ((0, 1, 0, 0), (0, 0, None, 1)),
            ((0, 0, 1, 0), (1, None, None, 0)),
            ((0, 0, 0, 1), (0, 0, 1, None)),
            ((100, 1, 1, 100), (F(1, 2), F(200, 301), F(1, 2), F(1, 2))),
            ((1, 2, 3, 4), (F(2, 5), F(1, 4), F(4, 5), F(2, 5))),
            ((50, 25, 20, 5), (F(7, 10), F(10, 13), F(1, 11), F(5, 9))),
        ]
        assert len(table) == 20
        for counts, (acc, f1, fnr, fpr) in table:
            got = metrics(ConfusionCounts(*counts))
            want = [None if x is None else float(x) for x in (acc, f1, fnr, fpr)]
            assert [got.acc, got.f1, got.fnr, got.fpr] == want, counts


# --------------------------------------------------------------- criterion 7

def test_07_drift_onset_detection_exact(capsys):
    """On 100 randomized two-regime error series with an injected step, the
    detector (persistence=2, epsilon between the regimes) returns exactly the
    injected onset index, and agrees with an exhaustive window scan."""
    with reported(capsys, 7, "drift onset detection exact"):
        rng = np.random.default_rng(20240507)
        eps, persistence = 0.25, 2
        for _ in range(100):
            n = int(rng.integers(6, 31))
            onset = int(rng.integers(1, n - 1))
            series = np.empty(n)
            series[:onset] = rng.uniform(0.05, 0.20, onset)   # below epsilon
            series[onset:] = rng.uniform(0.30, 0.95, n - onset)  # above epsilon
            series = series.tolist()
            verdict = detect_drift(series, epsilon=eps, persistence=persistence)
            assert verdict.onset == onset
            assert verdict.persisted is True
            scan = next((t for t in range(n - persistence + 1)
                         if all(series[t + k] >= eps for k in range(persistence))),
                        None)
            assert scan == onset


# --------------------------------------------------------------- criterion 8

def test_08_penalty_loss_slows_post_drift_decay(capsys):
    """Directional experiment: on sudden-drift streams (dim 30, 12 months,
    drift at month 6, magnitude 2.6 so the plain-BCE model's post-drift
    FNR >= 0.3), the penalty loss (lam=0.1, p_fn=5, p_fp=1) lowers mean
    post-drift FNR by >= 0.05 absolute over 5 seeds while giving up <= 0.05
    pre-drift accuracy. Models train on months 0-5 with recent validation
    and are scored on the untouched months 6-11 of the same stream."""
    with reported(capsys, 8, "penalty loss slows post-drift decay"):
        magnitude = 2.6
        model_cfg = ModelConfig(input_dim=30, trunk_width=64, n_residual_blocks=1,
                                dropout_rate=0.1, head_widths=(32,))
        variants = {
            "plain": LossConfig(variant="bce"),
            "penalized": LossConfig(variant="drbce", lam=0.1, p_fn=5.0, p_fp=1.0,
                                    weight_mode="frequency"),
        }

        def pooled(params, buckets):
            total = ConfusionCounts()
            for _, b in buckets:
                total = total + confusion(predict_proba(params, b.features),
                                          b.labels, 0.5)
            return metrics(total)

        t0 = time.monotonic()
        pre_acc = {k: [] for k in variants}
        post_fnr = {k: [] for k in variants}
        for seed in range(5):
            spec = DriftSpec(shape="sudden", n_months=12, samples_per_month=500,
                             feature_dim=30, n_informative=6, drift_month=6,
                             drift_magnitude=magnitude, seed=seed)
            stream = generate_stream(spec)
            buckets = bucket_by_month(stream)
            cut = buckets[6][1].timestamps.min()
            history_ds = stream.subset(np.flatnonzero(stream.timestamps < cut))
            for name, loss_cfg in variants.items():
                train_cfg = TrainConfig(loss=loss_cfg, validation="recent",
                                        n_val=400, batch_size=128, max_epochs=30,
                                        patience=6, seed=seed, lr=3e-3)
                params, _ = train(history_ds, model_cfg, train_cfg)
                pre_acc[name].append(pooled(params, buckets[:6]).acc)
                post_fnr[name].append(pooled(params, buckets[6:]).fnr)
        elapsed = time.monotonic() - t0

        plain_fnr = float(np.mean(post_fnr["plain"]))
        pen_fnr = float(np.mean(post_fnr["penalized"]))
        plain_acc = float(np.mean(pre_acc["plain"]))
        pen_acc = float(np.mean(pre_acc["penalized"]))
        assert plain_fnr >= 0.3, f"baseline post-drift FNR only {plain_fnr:.3f}"
        assert plain_fnr - pen_fnr >= 0.05, (
            f"FNR gap {plain_fnr - pen_fnr:.3f} (plain {plain_fnr:.3f}, "
            f"penalized {pen_fnr:.3f})")
        assert plain_acc - pen_acc <= 0.05, (
            f"pre-drift accuracy cost {plain_acc - pen_acc:.3f}")
        assert elapsed < 900.0, f"took {elapsed:.1f} s"


# --------------------------------------------------------------- criterion 9

def test_09_recent_split_never_leaks_future_data(capsys):
    """Over 1,000 random datasets with distinct timestamps, every training
    sample strictly predates every validation sample under the recent
    split, for any validation size."""
    with reported(capsys, 9, "recent split never leaks future data"):
        from driftkit.data import Dataset

        rng = np.random.default_rng(20240509)
        for _ in range(1_000):
            n = int(rng.integers(2, 201))
            ts = int(rng.integers(0, 10**6)) + np.cumsum(
                rng.integers(1, 1000, n).astype(np.int64))
            order = rng.permutation(n)
            ds = Dataset(rng.standard_normal((n, 2)),
                         (rng.random(n) < 0.5).astype(np.uint8),
                         ts[order])
            n_val = int(rng.integers(1, n))
            tr, val = split_recent(ds, n_val)
            assert len(tr) == n - n_val and len(val) == n_val
            assert tr.timestamps.max() < val.timestamps.min()


# -------------------------------------------------------------- criterion 10

def test_10_training_and_importance_are_deterministic(capsys, tmp_path):
    """Two CLI train runs from one config produce byte-identical model files,
    and two fixed-seed importance reports are byte-identical."""
    with reported(capsys, 10, "training and importance are deterministic"):
        spec = {"n_months": 3, "samples_per_month": 120, "feature_dim": 6,
                "n_informative": 2, "drift_month": 2, "drift_magnitude": 1.0,
                "informative_scale": 1.5, "seed": 3}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert cli_main(["synth", "--config", str(spec_path),
                         "--out", str(tmp_path / "synth")]) == 0
        cfg = {
            "seed": 0,
            "data": {"train": str(tmp_path / "synth" / "stream.dset")},
            "model": {"trunk_width": 8, "n_residual_blocks": 1,
                      "dropout_rate": 0.1, "head_widths": [4]},
            "train": {"n_val": 60, "batch_size": 64, "max_epochs": 4,
                      "patience": 4, "lr": 5e-3},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        for out in ("a", "b"):
            assert cli_main(["train", "--config", str(cfg_path),
                             "--out", str(tmp_path / out)]) == 0
        first = (tmp_path / "a" / "model.dnet").read_bytes()
        second = (tmp_path / "b" / "model.dnet").read_bytes()
        assert first == second and len(first) > 0

        from driftkit.model import load_model

        model = load_model(tmp_path / "a" / "model.dnet")
        ds = generate_stream(DriftSpec.from_dict(spec))
        reports = {}
        for label in ("first", "second"):
            _, report = run_pfi(model.params, ds.features, ds.labels,
                                PfiConfig(n_repeats=4, seed=11))
            path = tmp_path / f"pfi_{label}.csv"
            report.write_csv(path)
            reports[label] = path.read_bytes()
        assert reports["first"] == reports["second"]
        assert len(reports["first"]) > 0
