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
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .data import Dataset, apply_standardizer, fit_standardizer, write_csv
from .kernel_feature import usable_cpus
from .plo import FitConfig, LossSpec, _derive_seed, fit as plo_fit, score as plo_score

# The tuning split is one of this many stratified inner folds of the
# outer-train rows (75/25), held out for validation.
INNER_FOLDS = 4


class StratificationError(ValueError):
    """Raised when a class has too few members for the requested folds."""


def stratified_kfold(y, k: int, seed: int, split: str = "the split") -> np.ndarray:
    """Fold index of each row. Shuffles within each class, then assigns
    round-robin, so per-fold class counts are within one sample of
    perfect proportionality. A class of fewer than k rows raises a
    StratificationError whose message starts with split, the split's name."""
    y = np.asarray(y)
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    assignments = np.empty(len(y), dtype=int)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if len(idx) < k:
            raise StratificationError(
                f"{split}: class {cls} has {len(idx)} rows, fewer than its {k} folds")
        rng.shuffle(idx)
        assignments[idx] = np.arange(len(idx)) % k
    return assignments


def roc_auc(scores, y) -> float:
    """P(score_outlier > score_inlier) + half credit for ties: the
    Mann-Whitney U, counted by binary search in the sorted inlier scores.
    y holds one label per score, 0 (inlier) or 1 (outlier), or a bool."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y)
    if y.shape != scores.shape:
        raise ValueError(f"roc_auc needs one label per score, got labels of shape "
                         f"{y.shape} for scores of shape {scores.shape}")
    bad = ~np.isin(y, (0, 1))
    if bad.any():
        raise ValueError(f"roc_auc labels must be 0 or 1, got {y[bad][0]}")
    inliers, outliers = scores[y == 0], scores[y == 1]
    if not len(inliers) or not len(outliers):
        raise ValueError("roc_auc needs both classes present")
    if np.isnan(scores).any():
        raise ValueError("roc_auc got a NaN score")
    inliers.sort()
    below = np.searchsorted(inliers, outliers, side="left")
    tied = np.searchsorted(inliers, outliers, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (len(inliers) * len(outliers)))


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
    errors) or a LinAlgError, or returns NaN, scores -inf and the search
    continues; any other exception propagates. Raises ValueError when
    every trial failed. Ties go to the earliest trial."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    trials = []
    for t in range(n_trials):
        params = _trial_params(space, seed, t)
        try:
            value = float(objective(params))
            if math.isnan(value):
                raise ValueError("objective returned NaN")
            error = None
        except ValueError as exc:  # recorded, not raised; LinAlgError is one
            value = -math.inf
            error = f"{type(exc).__name__}: {exc}"
        trials.append(Trial(index=t, params=params, value=value, error=error))
    if all(t.error is not None for t in trials):
        raise ValueError(
            f"all {n_trials} search trials failed; trial 0: {trials[0].error}"
        )
    return max(trials, key=lambda t: t.value).params, trials  # max keeps the first


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
        """The fields in order, with trial_logs last as "trials" and a
        failed trial's -inf value as None (JSON null)."""
        fields = asdict(self)
        fields["trials"] = [
            [dict(t, value=None if math.isinf(t["value"]) else t["value"]) for t in log]
            for log in fields.pop("trial_logs")]
        return fields


def _held_out_auc(method: Method, params: dict, seed: int,
                  X_fit, X_eval, y_eval) -> float:
    """AUC on (X_eval, y_eval) of params fitted on X_fit, with both sides
    standardized by X_fit's statistics alone."""
    scaler = fit_standardizer(X_fit)
    model = plo_fit(apply_standardizer(scaler, X_fit),
                    method.config(params, seed, len(X_fit)))
    return roc_auc(plo_score(model, apply_standardizer(scaler, X_eval)), y_eval)


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
    n_workers = min(n_units, usable_cpus()) - 1
    counter, workers = None, []
    if n_workers > 0:
        # Imported here so that `lkplo score` never loads it. A daemonic
        # process may not have children; fork is safe where the OS has an
        # affinity call (Linux), and elsewhere usable_cpus() is 1.
        import multiprocessing

        if multiprocessing.current_process().daemon:
            n_workers = 0
        else:
            context = multiprocessing.get_context("fork")
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
    each one _held_out_auc, spread over the usable CPUs by one _map.

    A label other than 0 or 1 fails first, by name. Then every fold's
    rows are split (outer-train and held-out, and the outer-train rows
    75/25 into tuning and validation), so a class too small for a split
    fails by the split's name before any fit. Phase A runs the k_folds x
    n_trials search trials, each fit on its fold's tuning rows and scored
    on its validation rows. Each fold's search then replays its trials'
    outcomes, in trial order, through random_search, which picks the best
    (ties to the earliest trial) or raises when all failed. Phase B fits
    each fold's best params on its outer-train rows and scores its
    held-out rows. Every seed comes from (protocol.seed, fold, trial), so
    the report does not depend on the CPU count, and neither does the
    error raised: a failed search, lowest fold first, before any refit
    runs; then a failed refit, lowest fold first.
    """
    X, y, seed = dataset.X, dataset.y, protocol.seed
    bad = ~np.isin(y, (0, 1))
    if bad.any():
        raise ValueError(f"dataset {dataset.name!r} has label {y[bad][0]}; evaluation "
                         "needs 0 (inlier) or 1 (outlier)")
    if len(np.unique(y)) < 2:
        raise StratificationError(f"dataset {dataset.name!r} has a single class; "
                                  "evaluation needs both inliers and outliers")
    folds = stratified_kfold(y, protocol.k_folds, seed, "the outer --folds split")
    outer, tuning = [], []
    for fold in range(protocol.k_folds):
        train = np.flatnonzero(folds != fold)
        inner = stratified_kfold(
            y[train], INNER_FOLDS, _derive_seed(seed, fold, 0),
            f"fold {fold}'s 75/25 tuning split, of the outer-train rows that "
            f"--folds={protocol.k_folds} leaves")
        outer.append((train, np.flatnonzero(folds == fold)))
        tuning.append((train[inner != 0], train[inner == 0]))
    fit_seeds = [_derive_seed(seed, fold, 1) for fold in range(protocol.k_folds)]
    search_seeds = [_derive_seed(seed, fold, 2) for fold in range(protocol.k_folds)]
    n_trials, space = protocol.n_trials, method.space

    def held_out_auc(fold, params, fit_rows, eval_rows):
        return _held_out_auc(method, params, fit_seeds[fold],
                             X[fit_rows], X[eval_rows], y[eval_rows])

    def trial(unit):
        fold, t = divmod(unit, n_trials)
        return held_out_auc(fold, _trial_params(space, search_seeds[fold], t), *tuning[fold])

    # random_search draws the same params for trial t as the unit did and
    # takes exactly n_trials outcomes per fold, fold-major as _map returns
    # them, so each fold's objective just hands back the next outcome.
    outcomes = iter(_map(trial, protocol.k_folds * n_trials))
    searches = []
    for fold in range(protocol.k_folds):
        try:
            searches.append(random_search(space, n_trials, search_seeds[fold],
                                          lambda params: _raised(next(outcomes))))
        except ValueError as exc:
            raise ValueError(f"fold {fold}: {exc}") from exc
    bests = [best for best, _ in searches]
    aucs = [_raised(auc) for auc in _map(
        lambda fold: held_out_auc(fold, bests[fold], *outer[fold]), protocol.k_folds)]

    return ExperimentReport(
        dataset=dataset.name,
        method=method.name,
        fold_aucs=aucs,
        mean=float(np.mean(aucs)),
        std=float(np.std(aucs)),
        fold_params=bests,
        trial_logs=[trials for _, trials in searches],
    )


ABLATION_METHODS = ("plo", "kplo", "lkplo-svm")


def run_ablation(datasets, protocol: Protocol = Protocol()):
    """One report per {plo, kplo, lkplo-svm} x dataset, all under the
    same protocol and seed."""
    return [evaluate_method(dataset, METHODS[name](), protocol)
            for dataset in datasets for name in ABLATION_METHODS]


# --- report output -----------------------------------------------------------

def write_reports(reports, prefix):
    """Writes <prefix>.json, with the full trial logs, and <prefix>.csv,
    the flat summary. Wall clock is deliberately not serialized so reruns
    are byte-identical."""
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    write_csv(prefix + ".csv", ["dataset", "method", "mean", "std", "fold_aucs"],
              ([r.dataset, r.method, r.mean, r.std, ";".join(map(repr, r.fold_aucs))]
               for r in reports))
