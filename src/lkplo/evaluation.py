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
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .data import Dataset, apply_standardizer, fit_standardizer
from .plo import DirectionConfig, FitConfig, LossSpec, fit as plo_fit, score as plo_score


class StratificationError(ValueError):
    """Raised when a class has too few members for the requested folds."""


@dataclass
class FoldPlan:
    k: int
    assignments: np.ndarray  # (N,) fold indices
    seed: int


def stratified_kfold(y, k: int, seed: int) -> FoldPlan:
    """Shuffle within each class, then assign round-robin, so per-fold
    class counts are within one sample of perfect proportionality."""
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
    return FoldPlan(k=k, assignments=assignments, seed=seed)


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
    kind: str  # "int" | "uniform" | "loguniform" | "categorical"
    lo: Optional[float] = None
    hi: Optional[float] = None
    choices: Optional[tuple] = None

    def __post_init__(self):
        if self.kind in ("int", "uniform", "loguniform"):
            if not self.lo < self.hi:
                raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
            if self.kind == "loguniform" and not self.lo > 0:
                raise ValueError("loguniform requires lo > 0")
        elif self.kind == "categorical":
            if not self.choices:
                raise ValueError("categorical requires choices")
        else:
            raise ValueError(f"unknown param kind {self.kind!r}")

    def sample(self, rng):
        if self.kind == "int":
            return int(rng.integers(int(self.lo), int(self.hi) + 1))
        if self.kind == "uniform":
            return float(rng.uniform(self.lo, self.hi))
        if self.kind == "loguniform":
            return float(np.exp(rng.uniform(np.log(self.lo), np.log(self.hi))))
        return self.choices[int(rng.integers(len(self.choices)))]


@dataclass
class SearchSpace:
    entries: dict  # name -> ParamSpec

    def sample(self, rng) -> dict:
        return {name: spec.sample(rng) for name, spec in self.entries.items()}


@dataclass
class Trial:
    index: int
    params: dict
    value: float
    error: Optional[str] = None


def random_search(space: SearchSpace, n_trials: int, seed: int,
                  objective: Callable[[dict], float]):
    """Uniform random sampling with per-trial derived seeds; returns
    (best params, trial log). A trial whose objective raises a
    ValueError (which covers the degenerate-fit errors) or a LinAlgError
    scores -inf and the search continues; any other exception
    propagates. Raises ValueError when every trial failed. Ties go to
    the earliest trial."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    trials = []
    best = None
    for t in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        params = space.sample(rng)
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
    fit(X) -> fitted state and score(fitted, X) -> outlyingness."""

    name: str
    space: Optional[SearchSpace]
    build: Callable[[dict, int], "object"]


class LkploEstimator:
    """Adapter from flat search parameters to the core fit/score calls.

    k is clamped to the training size so the search never aborts on
    small inner splits (q already clamps to rank inside the kernel map).
    """

    def __init__(self, variant, loss_kind, params, seed):
        self.variant = variant
        self.loss_kind = loss_kind
        self.params = params
        self.seed = seed
        self.model = None

    def fit(self, X):
        p = self.params
        loss = LossSpec(self.loss_kind, p.get("c"))
        k = min(int(p.get("k", 1)), len(X))
        config = FitConfig(
            variant=self.variant,
            loss=loss,
            gamma=float(p.get("gamma", 1.0)),
            q=int(p.get("q", 10)),
            k=k,
            direction_config=DirectionConfig(),
            seed=self.seed,
        )
        self.model = plo_fit(X, config)
        return self

    def score(self, X):
        return plo_score(self.model, X)


def default_space(variant: str, loss_kind: str, k_hi: int = 30) -> SearchSpace:
    """Hyperparameter ranges: K in [2, 30], gamma log-uniform in
    [1e-4, 1e1], q in [5, 30], c uniform in [1, 5]; entries appear only
    where the variant uses them."""
    entries = {}
    if variant in ("kplo", "lkplo"):
        entries["gamma"] = ParamSpec("loguniform", 1e-4, 1e1)
        entries["q"] = ParamSpec("int", 5, 30)
    if variant == "lkplo":
        entries["k"] = ParamSpec("int", 2, k_hi)
    if loss_kind == "svm_like":
        entries["c"] = ParamSpec("uniform", 1.0, 5.0)
    return SearchSpace(entries)


def make_method(variant: str, loss_kind: str = "svm_like") -> Method:
    suffix = {"svm_like": "svm", "robust_z": "rz"}[loss_kind]
    name = variant if variant in ("plo", "kplo") else f"lkplo-{suffix}"
    return Method(
        name=name,
        space=default_space(variant, loss_kind),
        build=lambda params, seed: LkploEstimator(variant, loss_kind, params, seed),
    )


METHODS = {
    "plo": lambda: make_method("plo"),
    "kplo": lambda: make_method("kplo"),
    "lkplo-svm": lambda: make_method("lkplo", "svm_like"),
    "lkplo-rz": lambda: make_method("lkplo", "robust_z"),
}


# --- protocol ----------------------------------------------------------------


@dataclass(frozen=True)
class Protocol:
    k_folds: int = 5
    n_trials: int = 50
    val_fraction: float = 0.25
    seed: int = 42


@dataclass
class ExperimentReport:
    dataset: str
    method: str
    fold_aucs: list
    mean: float
    std: float  # population std over folds
    fold_params: list
    wall_clock: float = 0.0
    trial_logs: list = field(default_factory=list)

    def to_dict(self, include_trials=True):
        d = {
            "dataset": self.dataset,
            "method": self.method,
            "fold_aucs": self.fold_aucs,
            "mean": self.mean,
            "std": self.std,
            "fold_params": self.fold_params,
        }
        if include_trials:
            d["trials"] = [
                [
                    {"index": t.index, "params": t.params,
                     "value": None if math.isinf(t.value) else t.value,
                     "error": t.error}
                    for t in fold_log
                ]
                for fold_log in self.trial_logs
            ]
        return d


def _derive_seed(seed: int, *key) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def _fit_fold(dataset: Dataset, train_idx, method: Method, protocol: Protocol,
              fold: int):
    """Tune and refit one outer fold; touches only outer-train rows.

    Returns (estimator fitted on the full outer-train split, the
    standardizer fitted on it, best params, trial log).
    """
    X_train, y_train = dataset.X[train_idx], dataset.y[train_idx]
    fit_seed = _derive_seed(protocol.seed, fold, 1)

    if method.space is not None and method.space.entries:
        inner_k = max(2, round(1.0 / protocol.val_fraction))
        inner = stratified_kfold(y_train, inner_k,
                                 _derive_seed(protocol.seed, fold, 0))
        val_mask = inner.assignments == 0
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
    start = time.perf_counter()
    classes = np.unique(dataset.y)
    if len(classes) < 2:
        raise StratificationError(
            f"dataset {dataset.name!r} has a single class; evaluation "
            "needs both inliers and outliers"
        )
    plan = stratified_kfold(dataset.y, protocol.k_folds, protocol.seed)

    aucs, fold_params, trial_logs = [], [], []
    for fold in range(protocol.k_folds):
        test_mask = plan.assignments == fold
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
        wall_clock=time.perf_counter() - start,
        trial_logs=trial_logs,
    )


ABLATION_VARIANTS = ("plo", "kplo", "lkplo")


def run_ablation(datasets, protocol: Protocol = Protocol(),
                 loss_kind: str = "svm_like"):
    """One report per {plo, kplo, lkplo} x dataset, all under the same
    protocol and seed."""
    reports = []
    for dataset in datasets:
        for variant in ABLATION_VARIANTS:
            method = make_method(variant, loss_kind)
            reports.append(evaluate_method(dataset, method, protocol))
    return reports


# --- report output -----------------------------------------------------------

CSV_COLUMNS = "dataset,method,mean,std,fold_aucs"


def report_to_csv_row(report: ExperimentReport) -> str:
    folds = ";".join(repr(a) for a in report.fold_aucs)
    return (
        f"{report.dataset},{report.method},{report.mean!r},{report.std!r},{folds}"
    )


def write_reports(reports, json_path=None, csv_path=None):
    """JSON carries the full trial logs; CSV is the flat summary. Wall
    clock is deliberately not serialized so reruns are byte-identical."""
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
            fh.write("\n")
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(CSV_COLUMNS + "\n")
            for r in reports:
                fh.write(report_to_csv_row(r) + "\n")
