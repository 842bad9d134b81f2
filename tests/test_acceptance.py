"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them). The invariant suite uses
seeded generator loops with >= 1000 cases per invariant."""

import os
from pathlib import Path

import numpy as np
import pytest

import oracles
from lkplo import cli, evaluation
from lkplo.clustering import _lloyd, assign_nearest, kmeans_fit
from lkplo.data import (
    Dataset,
    gen_three_gaussians,
    load_csv,
)
from lkplo.evaluation import (
    METHODS,
    Protocol,
    _fit_fold,
    evaluate_method,
    roc_auc,
    stratified_kfold,
)
from lkplo.kernel_feature import (
    KernelParams,
    center_gram,
    fit_kpca,
    gram_matrix,
    kpca_from_gram,
)
from lkplo.plo import (
    MAD_FLOOR,
    DirectionConfig,
    FitConfig,
    LossSpec,
    _losses,
    fit,
    gen_directions,
    load_model,
    save_model,
    score,
)

N_CASES = 1000


def check(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- criterion 1: ablation ordering on the ring dataset ----------------------


def test_criterion_1_ablation_ordering(tmp_path):
    out = tmp_path / "ablation"
    rc = cli.main([
        "ablation", "--data", "synth:inside_outside",
        "--folds", "5", "--trials", "50", "--seed", "42",
        "--out", str(out),
    ])
    assert rc == 0
    rows = (tmp_path / "ablation.csv").read_text().strip().splitlines()[1:]
    means = {}
    for row in rows:
        _, method, mean, _, _ = row.split(",", 4)
        means[method] = float(mean)
    ordering = means["lkplo-svm"] > means["kplo"] > means["plo"]
    gap = means["lkplo-svm"] - means["plo"]
    check(
        "criterion 1: inside_outside ablation LKPLO > KPLO > PLO, gap >= 0.15",
        ordering and gap >= 0.15,
        f"plo={means['plo']:.3f} kplo={means['kplo']:.3f} "
        f"lkplo={means['lkplo-svm']:.3f} gap={gap:.3f}",
    )


# --- criterion 2: multi-modal competence -------------------------------------


def test_criterion_2_three_gaussians():
    ds = gen_three_gaussians(42)
    protocol = Protocol()
    lkplo = evaluate_method(ds, METHODS["lkplo-svm"](), protocol)
    kplo = evaluate_method(ds, METHODS["kplo"](), protocol)
    check(
        "criterion 2: three_gaussians tuned LKPLO >= 0.90 and >= KPLO",
        lkplo.mean >= 0.90 and lkplo.mean >= kplo.mean,
        f"lkplo={lkplo.mean:.3f} kplo={kplo.mean:.3f}",
    )


# --- criterion 3: conditional paper-scale reproduction -----------------------


ODDS_DIR = os.environ.get("LKPLO_ODDS_DIR", "")
ODDS_TARGETS = {
    "optdigits.csv": (0.922, 0.05),
    "arrhythmia.csv": (0.813, 0.06),
}


@pytest.mark.parametrize("filename,target", sorted(ODDS_TARGETS.items()))
def test_criterion_3_odds_reproduction(filename, target):
    if not ODDS_DIR:
        pytest.skip("LKPLO_ODDS_DIR not set; ODDS CSVs not supplied")
    path = Path(ODDS_DIR) / filename
    if not path.exists():
        pytest.skip(f"{path} not found")
    ds = load_csv(path, name=filename.removesuffix(".csv"))
    report = evaluate_method(ds, METHODS["lkplo-svm"](), Protocol())
    ref, tol = target
    check(
        f"criterion 3: {ds.name} mean AUC within {tol} of {ref}",
        abs(report.mean - ref) <= tol,
        f"mean={report.mean:.3f}",
    )


# --- criterion 4: oracle equivalences ----------------------------------------


def sort_median(z):
    z = sorted(z)
    n = len(z)
    mid = n // 2
    return z[mid] if n % 2 else 0.5 * (z[mid - 1] + z[mid])


def test_criterion_4_median_mad_oracle():
    # With one feature every direction is +1 or -1 (x / |x| is exact), so
    # each projection is exactly +-(z_i - centroid) and == can hold.
    rng = np.random.default_rng(100)
    cfg = FitConfig(variant="plo", loss=LossSpec("robust_z"),
                    direction_config=DirectionConfig(2, True, 2, 2))
    for _ in range(N_CASES):
        z = rng.standard_normal(int(rng.integers(2, 40)))
        model = fit(z[:, None], cfg)
        centered = [v - model.centroids[0, 0] for v in z.tolist()]
        stats = zip(model.directions[0][:, 0], model.medians[0], model.mads[0])
        for u, med, mad in stats:
            proj = [u * v for v in centered]
            m = sort_median(proj)
            assert med == m
            assert mad == 1.4826 * sort_median([abs(p - m) for p in proj])
    check("criterion 4a: fitted medians/MADs match sort-based oracles (1000 samples)",
          True)


def test_criterion_4_roc_auc_oracle():
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(5, 201))
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        scores = rng.integers(0, 8, n).astype(float)
        wins = 0.0
        for so in scores[y == 1]:
            wins += np.sum(so > scores[y == 0]) + 0.5 * np.sum(so == scores[y == 0])
        expect = wins / ((y == 1).sum() * (y == 0).sum())
        assert roc_auc(scores, y) == expect
    check("criterion 4b: roc_auc matches exhaustive pairwise counting", True)


def test_criterion_4_linear_kpca_vs_pca():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(20):
        n = int(rng.integers(10, 101))
        d = int(rng.integers(2, 6))
        X = 2.0 * rng.standard_normal((n, d))
        model = kpca_from_gram(X @ X.T, X, KernelParams(1.0), d)
        F = model.train_features()
        Xc = X - X.mean(axis=0)
        U, s, _ = np.linalg.svd(Xc, full_matrices=False)
        scores = U[:, : model.q] * s[: model.q]
        for j in range(model.q):
            diff = min(
                np.abs(F[:, j] - scores[:, j]).max(),
                np.abs(F[:, j] + scores[:, j]).max(),
            )
            ok = ok and diff <= 1e-6
    check("criterion 4c: linear-kernel feature map matches PCA scores", ok)


def test_criterion_4_local_score_naive_loop():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        q = int(rng.integers(1, 6))
        members = rng.standard_normal((n, q))
        cfg = FitConfig(
            variant="plo",
            loss=(
                LossSpec("robust_z")
                if rng.random() < 0.5
                else LossSpec("svm_like", float(rng.uniform(1, 5)))
            ),
            direction_config=DirectionConfig(10, True, 3, 3),
            seed=int(rng.integers(1 << 31)),
        )
        model = fit(members, cfg)
        f = rng.standard_normal(q)
        naive = oracles.local_score(model, 0, f)
        worst = max(worst, abs(score(model, f[None])[0] * n - naive))
    check(
        "criterion 4d: score * N matches naive double loop within 1e-9",
        worst <= 1e-9,
        f"max diff {worst:.2e}",
    )


def test_criterion_4_rpd_equivalence():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(10):
        n = int(rng.integers(10, 40))
        d = int(rng.integers(2, 5))
        X = rng.standard_normal((n, d))
        cfg = FitConfig(
            variant="plo",
            loss=LossSpec("robust_z"),
            direction_config=DirectionConfig(40, False, 0, 0),
            seed=int(rng.integers(1 << 31)),
        )
        model = fit(X, cfg)
        dirs = model.directions[0]
        proj = X @ dirs.T
        med = np.median(proj, axis=0)
        mads = 1.4826 * np.median(np.abs(proj - med), axis=0)
        rpd = (np.abs(proj - med) / np.maximum(mads, MAD_FLOOR)).max(axis=1)
        got = score(model, X) * n
        ok = ok and np.allclose(got, rpd, atol=1e-9)
        ok = ok and np.array_equal(np.argsort(got), np.argsort(rpd))
    check("criterion 4e: linear-global robust-Z reproduces classical RPD", ok)


# --- criterion 5: invariant suite, >= 1000 cases per invariant ---------------


def test_invariant_gram_and_centering():
    rng = np.random.default_rng(200)
    for _ in range(N_CASES):
        n = int(rng.integers(1, 10))
        X = 2.0 * rng.standard_normal((n, int(rng.integers(1, 4))))
        K = gram_matrix(X, KernelParams(float(rng.uniform(0.05, 4.0))))
        assert np.array_equal(K, K.T)
        assert np.array_equal(np.diag(K), np.ones(n))
        assert np.all(K > 0) and np.all(K <= 1)
        center_gram(K)
        assert np.abs(K.sum(axis=1)).max() <= 1e-9 * n
    check("criterion 5: Gram symmetry/diagonal + centered row sums (1000 cases)", True)


def test_invariant_eigenvalue_ordering():
    rng = np.random.default_rng(201)
    for _ in range(N_CASES):
        n = int(rng.integers(3, 10))
        X = 2.0 * rng.standard_normal((n, 2))
        model = fit_kpca(X, KernelParams(float(rng.uniform(0.1, 3.0))), n)
        assert np.all(np.diff(model.eigenvalues) <= 0)
        assert np.all(model.eigenvalues > 0)
    check("criterion 5: eigenvalue ordering and positivity (1000 cases)", True)


def test_invariant_kmeans_idempotence_and_monotonicity():
    rng = np.random.default_rng(202)
    for _ in range(N_CASES):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 4))
        F = rng.standard_normal((n, 2))
        centroids, labels = kmeans_fit(F, k, seed=int(rng.integers(1 << 31)), n_init=2)
        assert len(labels) == n and np.bincount(labels, minlength=k).min() >= 1
        reassigned = assign_nearest(centroids, F)
        np.testing.assert_array_equal(reassigned, labels)
        centers = F[rng.choice(n, size=k, replace=False)].copy()
        _, _, _, history = _lloyd(F, centers)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    check("criterion 5: k-means idempotence + inertia monotonicity (1000 cases)", True)


def test_invariant_direction_unit_norms():
    rng = np.random.default_rng(203)
    for _ in range(N_CASES):
        n = int(rng.integers(1, 12))
        q = int(rng.integers(1, 6))
        F = rng.standard_normal((n, q))
        dirs = gen_directions(
            F, DirectionConfig(5, True, 2, 2), seed=int(rng.integers(1 << 31))
        )
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 1e-9
    check("criterion 5: direction unit norms (1000 cases)", True)


def test_invariant_loss_nonnegativity_and_c_monotonicity():
    rng = np.random.default_rng(204)
    for _ in range(N_CASES):
        q = int(rng.integers(1, 5))
        u = rng.standard_normal(q)
        u /= np.linalg.norm(u)
        medians = np.array([rng.standard_normal()])
        mads = np.array([abs(rng.standard_normal())])
        proj = u[None, :] @ rng.standard_normal(q)
        assert _losses(proj, medians, mads, LossSpec("robust_z"))[0] >= 0
        c1, c2 = sorted(rng.uniform(0.5, 6.0, size=2))
        l1 = _losses(proj, medians, mads, LossSpec("svm_like", c1))[0]
        l2 = _losses(proj, medians, mads, LossSpec("svm_like", c2))[0]
        assert l1 >= 0 and l2 >= 0
        assert l2 <= l1 + 1e-12
    check("criterion 5: loss nonnegativity + SVM-like monotone in c (1000 cases)", True)


def test_invariant_auc_reversal_symmetry():
    rng = np.random.default_rng(205)
    for _ in range(N_CASES):
        n = int(rng.integers(4, 40))
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        scores = rng.integers(0, 5, n).astype(float)
        assert roc_auc(scores, y) + roc_auc(-scores, y) == pytest.approx(1.0, abs=1e-12)
    check("criterion 5: AUC reversal symmetry with ties (1000 cases)", True)


def test_invariant_fold_stratification_bounds():
    rng = np.random.default_rng(206)
    for _ in range(N_CASES):
        k = int(rng.integers(2, 6))
        n0 = int(rng.integers(k, 40))
        n1 = int(rng.integers(k, 40))
        y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
        rng.shuffle(y)
        folds = stratified_kfold(y, k, seed=int(rng.integers(1 << 31)))
        assert set(folds) <= set(range(k))
        for cls, n_cls in ((0, n0), (1, n1)):
            counts = [
                ((y == cls) & (folds == f)).sum() for f in range(k)
            ]
            assert sum(counts) == n_cls
            assert max(counts) - min(counts) <= 1
    check("criterion 5: fold stratification within one sample (1000 cases)", True)


def test_invariant_no_leakage(monkeypatch):
    # Each fit returns the rows it was given, so the fold's model is what
    # it fit on; scoring by the first feature keeps the search cheap.
    monkeypatch.setattr(evaluation, "plo_fit", lambda X, config: X)
    monkeypatch.setattr(evaluation, "plo_score", lambda model, X: X[:, 0])
    method = METHODS["lkplo-svm"]()
    protocol = Protocol(k_folds=3, n_trials=1)
    rng = np.random.default_rng(207)
    for _ in range(N_CASES):
        n = int(rng.integers(12, 30))
        y = rng.integers(0, 2, n)
        # Six of each class leave four per class in the outer-train split,
        # enough for the 4-fold inner (75/25) tuning split.
        y[:6] = 1
        y[6:12] = 0
        ds = Dataset("t", rng.standard_normal((n, 2)), y)
        folds = stratified_kfold(ds.y, protocol.k_folds, protocol.seed)
        train_idx = np.flatnonzero(folds != 0)
        fit_a, scaler_a, _, _ = _fit_fold(ds, train_idx, method, protocol, 0)
        perturbed = Dataset(ds.name, ds.X.copy(), ds.y)
        perturbed.X[folds == 0] += 1e6
        fit_b, scaler_b, _, _ = _fit_fold(perturbed, train_idx, method, protocol, 0)
        assert np.array_equal(scaler_a.means, scaler_b.means)
        assert np.array_equal(scaler_a.stds, scaler_b.stds)
        assert np.array_equal(fit_a, fit_b)
    check("criterion 5: no leakage from held-out rows (1000 cases)", True)


def test_invariant_save_load_score_identity(tmp_path):
    rng = np.random.default_rng(208)
    path = tmp_path / "model.json"
    for _ in range(N_CASES):
        n = int(rng.integers(4, 10))
        X = rng.standard_normal((n, 2))
        cfg = FitConfig(
            variant="plo",
            loss=LossSpec("svm_like", float(rng.uniform(1, 5))),
            direction_config=DirectionConfig(4, True, 2, 2),
            seed=int(rng.integers(1 << 31)),
        )
        model = fit(X, cfg)
        save_model(model, path)
        loaded = load_model(path)
        Xq = rng.standard_normal((5, 2))
        assert np.array_equal(score(model, Xq), score(loaded, Xq))
    check("criterion 5: save/load score identity (1000 cases)", True)


# --- criterion 6: CLI determinism --------------------------------------------


def test_criterion_6_cli_determinism(tmp_path):
    train = tmp_path / "train.csv"
    assert cli.main(["gen", "--name", "three_gaussians", "--seed", "7",
                     "--out", str(train)]) == 0

    commands = {
        "gen": ["gen", "--name", "moons", "--seed", "3"],
        "fit": ["fit", "--data", str(train), "--variant", "lkplo",
                "--gamma", "0.5", "--q", "6", "--k", "3", "--seed", "11"],
        "benchmark": ["benchmark", "--data", "synth:moons", "--method",
                      "lkplo-svm", "--folds", "3", "--trials", "3",
                      "--seed", "2"],
        "ablation": ["ablation", "--data", "synth:three_gaussians",
                     "--folds", "3", "--trials", "2", "--seed", "2"],
    }
    outputs = {}
    for name, args in commands.items():
        paths = []
        for run_idx in (0, 1):
            out = tmp_path / f"{name}_{run_idx}"
            assert cli.main(args + ["--out", str(out)]) == 0
            paths.append(out)
        outputs[name] = paths

    model_path = outputs["fit"][0]
    for name, args in {
        "score": ["score", "--model", str(model_path), "--data", str(train)],
        "boundary-grid": ["boundary-grid", "--model", str(model_path),
                          "--bounds=-3,8,-3,8", "--resolution", "12"],
    }.items():
        paths = []
        for run_idx in (0, 1):
            out = tmp_path / f"{name}_{run_idx}.csv"
            assert cli.main(args + ["--out", str(out)]) == 0
            paths.append(out)
        outputs[name] = paths

    ok = True
    for name, (a, b) in outputs.items():
        if name in ("benchmark", "ablation"):
            same = all(
                Path(str(a) + ext).read_bytes() == Path(str(b) + ext).read_bytes()
                for ext in (".json", ".csv")
            )
        else:
            same = Path(a).read_bytes() == Path(b).read_bytes()
        ok = ok and same
        if not same:
            print(f"  mismatch in {name}")
    check("criterion 6: CLI commands byte-identical across reruns", ok)
