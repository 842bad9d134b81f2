"""Evaluation harness: stratified k-fold CV, tie-aware ROC AUC,
randomized hyperparameter search, and the ablation ladder over the
linear-global / kernel-global / kernel-local variants.

Per outer fold, the training part is split 75/25 (stratified) into a
tuning set and a validation set; the search maximizes validation AUC;
the winner is refit on the full outer-train split and scored on the
held-out fold. Standardization always uses statistics of the data the
model is fit on, never of the evaluated rows.
"""

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .data import Dataset, apply_standardizer, fit_standardizer
from .plo import FitConfig, LossSpec, _derive_seed, fit as plo_fit, score as plo_score

# The tuning split is one of this many stratified inner folds of the
# outer-train rows (75/25), held out for validation.
INNER_FOLDS = 4


class StratificationError(ValueError):
    """Raised when a class has too few members for the requested folds."""


def stratified_kfold(y, k: int, seed: int) -> np.ndarray:
    """Fold index of each row. Shuffles within each class, then assigns
    round-robin, so per-fold class counts are within one sample of
    perfect proportionality."""
    y = np.asarray(y)
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    assignments = np.empty(len(y), dtype=int)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if len(idx) < k:
            raise StratificationError(
                f"class {cls} has {len(idx)} members, fewer than k={k}"
            )
        rng.shuffle(idx)
        assignments[idx] = np.arange(len(idx)) % k
    return assignments


def _average_ranks(s):
    """1-based ranks of s, each run of tied values sharing its mean rank.

    The ranks are half-integers, so they equal scipy.stats.rankdata's
    bit for bit; computing them here keeps scipy out of every import.
    """
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    starts = np.flatnonzero(np.r_[True, s_sorted[1:] != s_sorted[:-1]])
    ends = np.r_[starts[1:], len(s)]  # one past each run's last position
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def roc_auc(scores, y) -> float:
    """P(score_outlier > score_inlier) + half credit for ties, via
    average ranks (Mann-Whitney U)."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y)
    n1 = int(np.sum(y == 1))
    n0 = int(np.sum(y == 0))
    if n0 == 0 or n1 == 0:
        raise ValueError("roc_auc needs both classes present")
    if np.isnan(scores).any():
        raise ValueError("roc_auc got a NaN score")
    ranks = _average_ranks(scores)
    u = ranks[y == 1].sum() - n1 * (n1 + 1) / 2
    return float(u / (n0 * n1))


@dataclass(frozen=True)
class ParamSpec:
    kind: str  # "int" | "uniform" | "loguniform"
    lo: float
    hi: float

    def __post_init__(self):
        if self.kind not in ("int", "uniform", "loguniform"):
            raise ValueError(f"unknown param kind {self.kind!r}")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.kind == "loguniform" and not self.lo > 0:
            raise ValueError("loguniform requires lo > 0")

    def sample(self, rng):
        if self.kind == "int":
            return int(rng.integers(int(self.lo), int(self.hi) + 1))
        if self.kind == "uniform":
            return float(rng.uniform(self.lo, self.hi))
        return float(np.exp(rng.uniform(np.log(self.lo), np.log(self.hi))))


@dataclass
class Trial:
    index: int
    params: dict
    value: float
    error: Optional[str]


def random_search(space: dict, n_trials: int, seed: int,
                  objective: Callable[[dict], float]):
    """Uniform random sampling of space (name -> ParamSpec) with
    per-trial derived seeds; returns (best params, trial log). A trial
    whose objective raises a ValueError (which covers the degenerate-fit
    errors) or a LinAlgError scores -inf and the search continues; any
    other exception propagates. Raises ValueError when every trial
    failed. Ties go to the earliest trial."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    trials = []
    best = None
    for t in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        params = {name: spec.sample(rng) for name, spec in space.items()}
        try:
            value = float(objective(params))
            error = None
        except (ValueError, np.linalg.LinAlgError) as exc:  # recorded, not raised
            value = -math.inf
            error = f"{type(exc).__name__}: {exc}"
        trials.append(Trial(index=t, params=params, value=value, error=error))
        if best is None or value > best.value:
            best = trials[-1]
    if all(t.error is not None for t in trials):
        raise ValueError(
            f"all {n_trials} search trials failed; trial 0: {trials[0].error}"
        )
    return best.params, trials


# --- methods -----------------------------------------------------------------


@dataclass
class Method:
    """A tunable detector: build(params, seed) returns an estimator with
    fit(X) -> itself and score(X) -> outlyingness. space maps each tuned
    parameter to its ParamSpec; an empty space (or None) tunes nothing."""

    name: str
    space: Optional[dict]
    build: Callable[[dict, int], "object"]


class _Detector:
    """Adapter from flat search parameters to the core fit/score calls.

    k is clamped to the training size so the search never aborts on
    small inner splits (q already clamps to rank inside the kernel map).
    """

    def __init__(self, variant, loss_kind, params, seed):
        self.config = FitConfig(
            variant=variant,
            loss=LossSpec(loss_kind, params.get("c")),
            gamma=float(params.get("gamma", 1.0)),
            q=int(params.get("q", 10)),
            k=int(params.get("k", 1)),
            seed=seed,
        )

    def fit(self, X):
        self.model = plo_fit(X, replace(self.config, k=min(self.config.k, len(X))))
        return self

    def score(self, X):
        return plo_score(self.model, X)


def _method(name: str, variant: str, loss_kind: str) -> Method:
    """Hyperparameter ranges: K in [2, 30], gamma log-uniform in
    [1e-4, 1e1], q in [5, 30], c uniform in [1, 5]; entries appear only
    where the variant uses them."""
    space = {}
    if variant in ("kplo", "lkplo"):
        space["gamma"] = ParamSpec("loguniform", 1e-4, 1e1)
        space["q"] = ParamSpec("int", 5, 30)
    if variant == "lkplo":
        space["k"] = ParamSpec("int", 2, 30)
    if loss_kind == "svm_like":
        space["c"] = ParamSpec("uniform", 1.0, 5.0)
    return Method(name, space, partial(_Detector, variant, loss_kind))


# Method name, detector variant, loss kind.
METHOD_TABLE = (
    ("plo", "plo", "svm_like"),
    ("kplo", "kplo", "svm_like"),
    ("lkplo-svm", "lkplo", "svm_like"),
    ("lkplo-rz", "lkplo", "robust_z"),
)
METHODS = {
    name: partial(_method, name, variant, loss) for name, variant, loss in METHOD_TABLE
}


# --- protocol ----------------------------------------------------------------


@dataclass(frozen=True)
class Protocol:
    k_folds: int = 5
    n_trials: int = 50
    seed: int = 42

    def __post_init__(self):
        if self.k_folds < 2:
            raise ValueError(f"k_folds (--folds) must be >= 2, got {self.k_folds}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials (--trials) must be >= 1, got {self.n_trials}")


@dataclass
class ExperimentReport:
    dataset: str
    method: str
    fold_aucs: list
    mean: float
    std: float  # population std over folds
    fold_params: list
    trial_logs: list

    def to_dict(self):
        return {
            "dataset": self.dataset,
            "method": self.method,
            "fold_aucs": self.fold_aucs,
            "mean": self.mean,
            "std": self.std,
            "fold_params": self.fold_params,
            "trials": [
                [
                    {"index": t.index, "params": t.params,
                     "value": None if math.isinf(t.value) else t.value,
                     "error": t.error}
                    for t in fold_log
                ]
                for fold_log in self.trial_logs
            ],
        }


def _fit_fold(dataset: Dataset, train_idx, method: Method, protocol: Protocol,
              fold: int):
    """Tune and refit one outer fold; touches only outer-train rows.

    Returns (estimator fitted on the full outer-train split, the
    standardizer fitted on it, best params, trial log).
    """
    X_train, y_train = dataset.X[train_idx], dataset.y[train_idx]
    fit_seed = _derive_seed(protocol.seed, fold, 1)

    if method.space:
        inner = stratified_kfold(y_train, INNER_FOLDS,
                                 _derive_seed(protocol.seed, fold, 0))
        val_mask = inner == 0
        scaler = fit_standardizer(X_train[~val_mask])
        X_fit = apply_standardizer(scaler, X_train[~val_mask])
        X_val = apply_standardizer(scaler, X_train[val_mask])
        y_val = y_train[val_mask]

        def objective(params):
            est = method.build(params, fit_seed).fit(X_fit)
            return roc_auc(est.score(X_val), y_val)

        try:
            best, trials = random_search(
                method.space, protocol.n_trials,
                _derive_seed(protocol.seed, fold, 2), objective,
            )
        except ValueError as exc:
            raise ValueError(f"fold {fold}: {exc}") from exc
    else:
        best, trials = {}, []

    scaler = fit_standardizer(X_train)
    est = method.build(best, fit_seed).fit(apply_standardizer(scaler, X_train))
    return est, scaler, best, trials


def evaluate_method(dataset: Dataset, method: Method,
                    protocol: Protocol = Protocol()) -> ExperimentReport:
    classes = np.unique(dataset.y)
    if len(classes) < 2:
        raise StratificationError(
            f"dataset {dataset.name!r} has a single class; evaluation "
            "needs both inliers and outliers"
        )
    folds = stratified_kfold(dataset.y, protocol.k_folds, protocol.seed)

    aucs, fold_params, trial_logs = [], [], []
    for fold in range(protocol.k_folds):
        test_mask = folds == fold
        train_idx = np.flatnonzero(~test_mask)
        est, scaler, best, trials = _fit_fold(
            dataset, train_idx, method, protocol, fold
        )
        X_test = apply_standardizer(scaler, dataset.X[test_mask])
        aucs.append(roc_auc(est.score(X_test), dataset.y[test_mask]))
        fold_params.append(best)
        trial_logs.append(trials)

    aucs_arr = np.asarray(aucs)
    return ExperimentReport(
        dataset=dataset.name,
        method=method.name,
        fold_aucs=[float(a) for a in aucs],
        mean=float(aucs_arr.mean()),
        std=float(aucs_arr.std()),
        fold_params=fold_params,
        trial_logs=trial_logs,
    )


ABLATION_METHODS = ("plo", "kplo", "lkplo-svm")


def run_ablation(datasets, protocol: Protocol = Protocol()):
    """One report per {plo, kplo, lkplo-svm} x dataset, all under the
    same protocol and seed."""
    reports = []
    for dataset in datasets:
        for name in ABLATION_METHODS:
            reports.append(evaluate_method(dataset, METHODS[name](), protocol))
    return reports


# --- report output -----------------------------------------------------------

CSV_COLUMNS = "dataset,method,mean,std,fold_aucs"


def report_to_csv_row(report: ExperimentReport) -> str:
    folds = ";".join(repr(a) for a in report.fold_aucs)
    return (
        f"{report.dataset},{report.method},{report.mean!r},{report.std!r},{folds}"
    )


def write_reports(reports, prefix):
    """Writes <prefix>.json, with the full trial logs, and <prefix>.csv,
    the flat summary. Wall clock is deliberately not serialized so reruns
    are byte-identical."""
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2)
        fh.write("\n")
    with open(prefix + ".csv", "w", encoding="utf-8") as fh:
        fh.write(CSV_COLUMNS + "\n")
        for r in reports:
            fh.write(report_to_csv_row(r) + "\n")
