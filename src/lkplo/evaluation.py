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
import os
from dataclasses import dataclass
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


def _trial_params(space: dict, seed: int, t: int) -> dict:
    """Trial t's draw from space (name -> ParamSpec). Each trial has its
    own seed, SeedSequence(seed, spawn_key=(t,)), so its params depend on
    no other trial."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
    return {name: spec.sample(rng) for name, spec in space.items()}


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
        params = _trial_params(space, seed, t)
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


@dataclass(frozen=True)
class Method:
    """A benchmark method: one detector variant with one loss kind."""

    name: str
    variant: str    # "plo" | "kplo" | "lkplo"
    loss_kind: str  # "robust_z" | "svm_like"

    @property
    def space(self) -> dict:
        """Tuned parameter -> ParamSpec: K in [2, 30], gamma log-uniform
        in [1e-4, 1e1], q in [5, 30], c uniform in [1, 5]; entries appear
        only where the variant or the loss uses them."""
        space = {}
        if self.variant in ("kplo", "lkplo"):
            space["gamma"] = ParamSpec("loguniform", 1e-4, 1e1)
            space["q"] = ParamSpec("int", 5, 30)
        if self.variant == "lkplo":
            space["k"] = ParamSpec("int", 2, 30)
        if self.loss_kind == "svm_like":
            space["c"] = ParamSpec("uniform", 1.0, 5.0)
        return space

    def config(self, params: dict, seed: int, n_rows: int) -> FitConfig:
        """The fit of searched params on n_rows rows; unsearched fields
        keep FitConfig's defaults. k is clamped to n_rows so the search
        never aborts on small inner splits (q already clamps to rank
        inside the kernel map)."""
        fields = dict(params)
        loss = LossSpec(self.loss_kind, fields.pop("c", None))
        if "k" in fields:
            fields["k"] = min(fields["k"], n_rows)
        return FitConfig(self.variant, loss, seed=seed, **fields)


# Method name, detector variant, loss kind.
METHOD_TABLE = (
    ("plo", "plo", "svm_like"),
    ("kplo", "kplo", "svm_like"),
    ("lkplo-svm", "lkplo", "svm_like"),
    ("lkplo-rz", "lkplo", "robust_z"),
)
METHODS = {row[0]: partial(Method, *row) for row in METHOD_TABLE}


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
        if self.seed < 0:
            raise ValueError(f"seed (--seed) must be >= 0, got {self.seed}")


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


class _OuterFold:
    """Outer fold `fold`: its tuning split, the search objective on it and
    the refit. Only the outer-train rows (train_idx) reach either."""

    def __init__(self, dataset: Dataset, train_idx, method: Method,
                 protocol: Protocol, fold: int):
        self.fold = fold
        self.method = method
        self.X_train, y_train = dataset.X[train_idx], dataset.y[train_idx]
        self.fit_seed = _derive_seed(protocol.seed, fold, 1)
        self.search_seed = _derive_seed(protocol.seed, fold, 2)

        inner = stratified_kfold(y_train, INNER_FOLDS,
                                 _derive_seed(protocol.seed, fold, 0))
        val_mask = inner == 0
        scaler = fit_standardizer(self.X_train[~val_mask])
        self.X_fit = apply_standardizer(scaler, self.X_train[~val_mask])
        self.X_val = apply_standardizer(scaler, self.X_train[val_mask])
        self.y_val = y_train[val_mask]

    def objective(self, params: dict) -> float:
        """Validation AUC of params fitted on the tuning set."""
        model = plo_fit(self.X_fit,
                        self.method.config(params, self.fit_seed, len(self.X_fit)))
        return roc_auc(plo_score(model, self.X_val), self.y_val)

    def search(self, n_trials: int, objective: Callable[[dict], float]):
        """random_search over the method's space with this fold's seed."""
        try:
            return random_search(self.method.space, n_trials, self.search_seed,
                                 objective)
        except ValueError as exc:
            raise ValueError(f"fold {self.fold}: {exc}") from exc

    def refit(self, best: dict):
        """(model, standardizer) of best fitted on the full outer-train split."""
        scaler = fit_standardizer(self.X_train)
        model = plo_fit(apply_standardizer(scaler, self.X_train),
                        self.method.config(best, self.fit_seed, len(self.X_train)))
        return model, scaler


def _usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask where
    the OS has one (Linux, where fork is safe), else 1. A daemonic
    process may not have children, so there it is 1 too."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def _pull(unit: Callable, n_units: int, next_unit) -> dict:
    """{i: outcome} of unit(i) for each index i drawn from the shared
    counter next_unit until none are left, or for every index when it is
    None. An outcome is the unit's result or the exception it raised."""
    outcomes = {}
    while True:
        if next_unit is None:
            index = len(outcomes)
        else:
            with next_unit.get_lock():
                index = next_unit.value
                next_unit.value = index + 1
        if index >= n_units:
            return outcomes
        try:
            outcomes[index] = unit(index)
        except Exception as exc:  # an outcome like any other; see _raised
            outcomes[index] = exc


def _raised(outcome):
    """outcome, or raise it if it is an exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _received(worker, receive) -> Optional[dict]:
    """The outcomes worker sent over receive, or None if it exited
    without sending them. Read before the join: a worker cannot exit
    while outcomes larger than the pipe's buffer are unread."""
    try:
        return receive.recv()
    except EOFError:
        return None
    finally:
        worker.join()
        receive.close()


def _map(unit: Callable, n_units: int) -> list:
    """Outcomes of unit(i) for i in range(n_units), in index order: each
    unit's result, or the exception it raised (see _raised).

    The caller and min(n_units, usable CPUs) - 1 workers, forked for this
    map alone, pull the next index from one shared counter until none are
    left, so a slow unit holds up one process while the others go on.
    The workers inherit unit, which may be a closure, and each sends its
    outcomes back over its own pipe. Outcomes are kept by index, so they
    do not depend on which process ran what.
    """
    n_workers = min(n_units, _usable_cpus()) - 1
    counter, workers = None, []
    if n_workers > 0:
        # Imported here so that `lkplo score` never loads it.
        from multiprocessing import get_context

        context = get_context("fork")
        counter = context.Value("i", 0)
    try:
        for _ in range(n_workers):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(
                target=lambda send=send: send.send(_pull(unit, n_units, counter)))
            worker.start()
            send.close()  # before the next fork, so a dead worker shows EOF
            workers.append((worker, receive))
        outcomes = _pull(unit, n_units, counter)
    finally:
        pulls = [_received(worker, receive) for worker, receive in workers]
    for (worker, _), pull in zip(workers, pulls):
        if pull is None:
            raise RuntimeError(f"a protocol worker exited with code {worker.exitcode} "
                               "before returning its units")
        outcomes.update(pull)
    return [outcomes[index] for index in range(n_units)]


def evaluate_method(dataset: Dataset, method: Method,
                    protocol: Protocol = Protocol()) -> ExperimentReport:
    """Run the tuned k-fold protocol in two phases of independent units,
    each spread over the usable CPUs by one _map.

    Phase A runs the k_folds x n_trials search trials. Each fold's
    search then replays its trials' outcomes, in trial order, through
    random_search, which picks the best (ties to the earliest trial) or
    raises when all failed. Phase B refits and scores each fold's best
    params. Every seed comes from (protocol.seed, fold, trial), so the
    report does not depend on the CPU count, and the exception raised is
    the one a serial fold-by-fold loop would raise.
    """
    classes = np.unique(dataset.y)
    if len(classes) < 2:
        raise StratificationError(
            f"dataset {dataset.name!r} has a single class; evaluation "
            "needs both inliers and outliers"
        )
    folds = stratified_kfold(dataset.y, protocol.k_folds, protocol.seed)
    outer = [_OuterFold(dataset, np.flatnonzero(folds != fold), method, protocol, fold)
             for fold in range(protocol.k_folds)]
    n_trials, space = protocol.n_trials, method.space

    def trial(unit):
        fold, t = divmod(unit, n_trials)
        return outer[fold].objective(_trial_params(space, outer[fold].search_seed, t))

    def refit(fold):
        model, scaler = outer[fold].refit(bests[fold])
        test = folds == fold
        X_test = apply_standardizer(scaler, dataset.X[test])
        return roc_auc(plo_score(model, X_test), dataset.y[test])

    outcomes = _map(trial, protocol.k_folds * n_trials)
    # random_search draws the same params for trial t as the unit did, so
    # each fold's objective just hands back the next outcome. The first
    # failing fold stops the searches; the folds below it still refit, so
    # that a refit error there is raised ahead of it, as serially.
    searches, failure = [], None
    for fold, outer_fold in enumerate(outer):
        pending = iter(outcomes[fold * n_trials:(fold + 1) * n_trials])
        try:
            searches.append(outer_fold.search(
                n_trials, lambda params: _raised(next(pending))))
        except Exception as exc:  # raised after the refits below it
            failure = exc
            break
    bests = [best for best, _ in searches]
    aucs = [_raised(auc) for auc in _map(refit, len(searches))]
    if failure is not None:
        raise failure

    aucs_arr = np.asarray(aucs)
    return ExperimentReport(
        dataset=dataset.name,
        method=method.name,
        fold_aucs=[float(a) for a in aucs],
        mean=float(aucs_arr.mean()),
        std=float(aucs_arr.std()),
        fold_params=bests,
        trial_logs=[trials for _, trials in searches],
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
