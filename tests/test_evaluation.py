import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles

from lkplo import evaluation
from lkplo.clustering import InvalidKError
from lkplo.data import Dataset, gen_moons, gen_three_gaussians
from lkplo.evaluation import (
    METHOD_TABLE,
    METHODS,
    ParamSpec,
    Protocol,
    StratificationError,
    evaluate_method,
    random_search,
    roc_auc,
    run_ablation,
    stratified_kfold,
    write_reports,
)
from lkplo.kernel_feature import DegenerateKernelError
from lkplo.plo import DegenerateDirectionsError, FitConfig, LossSpec, _derive_seed


class TestStratifiedKfold:
    def test_exact_divisibility(self):
        y = np.array([0] * 50 + [1] * 10)
        folds = stratified_kfold(y, 5, seed=0)
        for f in range(5):
            fold_y = y[folds == f]
            assert (fold_y == 0).sum() == 10
            assert (fold_y == 1).sum() == 2

    def test_uneven_counts_within_one(self):
        y = np.array([0] * 45 + [1] * 7)
        folds = stratified_kfold(y, 5, seed=1)
        ones = [(y[folds == f] == 1).sum() for f in range(5)]
        assert set(ones) <= {1, 2}
        assert sum(ones) == 7

    def test_determinism(self):
        y = np.array([0] * 30 + [1] * 8)
        np.testing.assert_array_equal(stratified_kfold(y, 4, seed=7),
                                      stratified_kfold(y, 4, seed=7))

    def test_disjoint_cover(self):
        y = np.array([0, 1] * 20)
        folds = stratified_kfold(y, 5, seed=3)
        assert folds.shape == (40,)
        assert set(folds) == set(range(5))

    def test_small_class_raises(self):
        y = np.array([0] * 20 + [1] * 3)
        with pytest.raises(StratificationError):
            stratified_kfold(y, 5, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: stratified_kfold([0, 1], 0, seed=0), "k must be >= 1"),
    (lambda: random_search({}, 0, seed=0, objective=lambda p: 0.0),
     "n_trials must be >= 1"),
])
def test_count_below_one_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([1.0, 2.0, 9.0, 8.0], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc([3.0] * 6, [0, 0, 0, 1, 1, 1]) == 0.5

    def test_hand_example(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [False, False, True, True]) == 0.75

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_auc([1.0, 2.0], [0, 0])

    def test_nan_score_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            roc_auc([0.1, np.nan, 0.3], [0, 1, 1])

    # A label other than 0 or 1 is in neither class: it fails by name,
    # neither dropped nor counted into an impossible AUC.
    @pytest.mark.parametrize("scores, y, bad", [
        ([1.0, 2.0, 3.0], [0, 2, 1], "2"),
        ([1.0, 2.0, 3.0, 0.5], [0, -1, 1, 1], "-1"),
        ([1.0, 2.0, 3.0], [0.0, 0.5, 1.0], "0.5"),
    ])
    def test_label_not_0_or_1_raises(self, scores, y, bad):
        with pytest.raises(ValueError, match=f"^roc_auc labels must be 0 or 1, got {bad}$"):
            roc_auc(scores, y)

    @pytest.mark.parametrize("y", [[0, 1, 1], [0, 1, 0, 1, 1], [[0, 1], [0, 1]]])
    def test_label_shape_mismatch_raises(self, y):
        with pytest.raises(ValueError, match=r"^roc_auc needs one label per score"):
            roc_auc([1.0, 2.0, 3.0, 4.0], y)

    # A few values, signed zeros and infinities make long tie runs.
    TIED = st.sampled_from([-np.inf, -2.5, -0.0, 0.0, 5e-324, 0.5, 0.5 + 2**-53, 7.0, np.inf])

    @given(st.lists(st.tuples(st.one_of(TIED, st.floats(allow_nan=False)), st.sampled_from([0, 1])),
                    min_size=2, max_size=300))
    @example([(0.0, 0), (-0.0, 1), (0.0, 1)])
    def test_equals_scipy_rankdata(self, rows):
        scores = np.array([s for s, _ in rows])
        y = np.array([c for _, c in rows])
        assume(0 < y.sum() < len(y))
        assert roc_auc(scores, y) == oracles.roc_auc(scores, y)

    def test_matches_pairwise_counting(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(5, 60))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            scores = rng.integers(0, 6, n).astype(float)  # many ties
            wins = ties = 0
            for so in scores[y == 1]:
                for si in scores[y == 0]:
                    wins += so > si
                    ties += so == si
            n_pairs = (y == 1).sum() * (y == 0).sum()
            assert roc_auc(scores, y) == (wins + 0.5 * ties) / n_pairs

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 50)
        y[:2] = [0, 1]
        scores = rng.integers(0, 4, 50).astype(float)
        assert roc_auc(scores, y) + roc_auc(-scores, y) == pytest.approx(1.0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        scores = rng.standard_normal(40)
        assert roc_auc(scores, y) == pytest.approx(
            roc_auc(np.exp(3.0 * scores), y), abs=1e-12
        )


class TestRandomSearch:
    space = {"k": ParamSpec("int", 2, 30)}

    def test_single_trial(self):
        best, log = random_search(self.space, 1, seed=0, objective=lambda p: 1.0)
        assert best == log[0].params
        assert len(log) == 1

    def test_constant_objective_returns_first(self):
        best, log = random_search(self.space, 20, seed=1, objective=lambda p: 0.5)
        assert best == log[0].params

    def test_finds_needle(self):
        # P(miss in 200 trials) = (28/29)^200 < 1e-3
        best, _ = random_search(
            self.space, 200, seed=2, objective=lambda p: float(p["k"] == 7)
        )
        assert best["k"] == 7

    def test_failures_recorded_not_raised(self):
        def objective(p):
            if p["k"] % 2 == 0:
                raise InvalidKError("boom")
            return p["k"]

        best, log = random_search(self.space, 50, seed=3, objective=objective)
        assert best["k"] % 2 == 1
        assert any(t.error is not None for t in log)

    def test_linalg_failures_recorded(self):
        def objective(p):
            if p["k"] % 2 == 0:
                raise np.linalg.LinAlgError("eigh did not converge")
            return p["k"]

        _, log = random_search(self.space, 20, seed=3, objective=objective)
        assert any(t.error.startswith("LinAlgError") for t in log if t.error)

    def test_programming_errors_propagate(self):
        def objective(p):
            return p["k"] + "1"  # TypeError

        with pytest.raises(TypeError):
            random_search(self.space, 5, seed=3, objective=objective)

    def test_all_trials_failed_raises_with_first_error(self):
        seen = []

        def objective(p):
            seen.append(p["k"])
            raise DegenerateKernelError(f"rank zero at k={p['k']}")

        with pytest.raises(ValueError, match="all 4 search trials failed") as info:
            random_search(self.space, 4, seed=5, objective=objective)
        assert len(seen) == 4
        assert str(info.value).endswith(
            f"trial 0: DegenerateKernelError: rank zero at k={seen[0]}"
        )

    def test_nan_objective_is_a_failed_trial(self):
        # max() never replaces a NaN, so a NaN first trial would win.
        values = iter([np.nan, 0.7, 0.9])
        best, log = random_search(self.space, 3, seed=6, objective=lambda p: next(values))
        assert best == log[2].params
        assert log[0].error == "ValueError: objective returned NaN"
        assert log[0].value == -np.inf

    def test_all_nan_objective_raises(self):
        with pytest.raises(ValueError, match="^all 3 search trials failed; trial 0: "
                                             "ValueError: objective returned NaN$"):
            random_search(self.space, 3, seed=6, objective=lambda p: np.nan)

    def test_deterministic_trial_sequence(self):
        _, l1 = random_search(self.space, 10, seed=4, objective=lambda p: 0.0)
        _, l2 = random_search(self.space, 10, seed=4, objective=lambda p: 0.0)
        assert [t.params for t in l1] == [t.params for t in l2]

    def test_param_spec_validation(self):
        with pytest.raises(ValueError):
            ParamSpec("int", 5, 5)
        with pytest.raises(ValueError):
            ParamSpec("loguniform", 0.0, 1.0)
        with pytest.raises(ValueError, match="unknown param kind"):
            ParamSpec("categorical", 0, 1)

    def test_loguniform_range(self):
        spec = ParamSpec("loguniform", 1e-4, 1e1)
        rng = np.random.default_rng(5)
        vals = [spec.sample(rng) for _ in range(200)]
        assert all(1e-4 <= v <= 1e1 for v in vals)
        assert sum(v < 1e-1 for v in vals) > 20  # spread over decades


# The tuned ranges of each method, as the README lists them.
GAMMA = ParamSpec("loguniform", 1e-4, 10.0)
Q = ParamSpec("int", 5, 30)
K = ParamSpec("int", 2, 30)
C = ParamSpec("uniform", 1.0, 5.0)
SPACES = {
    "plo": {"c": C},
    "kplo": {"gamma": GAMMA, "q": Q, "c": C},
    "lkplo-svm": {"gamma": GAMMA, "q": Q, "k": K, "c": C},
    "lkplo-rz": {"gamma": GAMMA, "q": Q, "k": K},
}


class TestMethods:
    @pytest.mark.parametrize("name,variant,loss_kind", METHOD_TABLE,
                             ids=[row[0] for row in METHOD_TABLE])
    def test_space_and_config(self, name, variant, loss_kind):
        method = METHODS[name]()
        assert (method.name, method.variant, method.loss_kind) == (
            name, variant, loss_kind)
        assert method.space == SPACES[name]

        rng = np.random.default_rng(8)
        params = {key: spec.sample(rng) for key, spec in method.space.items()}
        drawn = dict(params)
        defaults = FitConfig(variant, LossSpec("robust_z"))
        config = method.config(params, seed=7, n_rows=100)
        assert params == drawn  # the trial log keeps what was drawn
        assert config.variant == variant
        assert config.loss == LossSpec(loss_kind, params.get("c"))
        assert config.gamma == params.get("gamma", defaults.gamma)
        assert config.q == params.get("q", defaults.q)
        assert config.k == params.get("k", defaults.k)
        assert config.direction_config == defaults.direction_config
        assert config.seed == 7
        assert method.config(params, seed=7, n_rows=1).k == 1


def stub_detector(monkeypatch, score_fn, fit_fn=lambda X: None):
    """Make the harness's fits fit_fn(X) and its scores score_fn(X),
    through the module globals every fit and score goes through."""
    monkeypatch.setattr(evaluation, "plo_fit", lambda X, config: fit_fn(X))
    monkeypatch.setattr(evaluation, "plo_score", lambda model, X: score_fn(X))


def label_coded_dataset(seed, n=60):
    """First feature equals the label, so scoring by it is an oracle."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.3).astype(int)
    y[:5] = 1
    y[5:10] = 0
    X = np.column_stack([y.astype(float), rng.standard_normal(n)])
    return Dataset("coded", X, y)


def fold_fits(dataset, method, protocol):
    """Each fold's (fits as (rows, config) pairs in call order, best params)
    from evaluate_method on one usable CPU, so that every fit runs, and is
    recorded, in this process."""
    fits, fit = [], evaluation.plo_fit

    def recording_fit(X, config):
        fits.append((X.copy(), config))
        return fit(X, config)

    with pytest.MonkeyPatch.context() as patch:
        set_usable_cpus(patch, 1)
        patch.setattr(evaluation, "plo_fit", recording_fit)
        report = evaluate_method(dataset, method, protocol)
    seeds = [_derive_seed(protocol.seed, fold, 1) for fold in range(protocol.k_folds)]
    return [([(X, config) for X, config in fits if config.seed == fold_seed], best)
            for fold_seed, best in zip(seeds, report.fold_params)]


def assert_same_fits(a, b, n_fits):
    """a and b, each one fold's entry of fold_fits, hold the same n_fits
    fits and the same best params."""
    (fits_a, best_a), (fits_b, best_b) = a, b
    assert len(fits_a) == len(fits_b) == n_fits
    for (X_a, config_a), (X_b, config_b) in zip(fits_a, fits_b):
        assert np.array_equal(X_a, X_b)
        assert config_a == config_b
    assert best_a == best_b


class TestEvaluateMethod:
    def test_constant_scorer_gives_half(self, monkeypatch):
        stub_detector(monkeypatch, lambda X: np.zeros(len(X)))
        ds = label_coded_dataset(0)
        report = evaluate_method(ds, METHODS["plo"](), Protocol(n_trials=1))
        assert report.mean == pytest.approx(0.5)
        assert report.std == pytest.approx(0.0)

    def test_oracle_scorer_gives_one(self, monkeypatch):
        stub_detector(monkeypatch, lambda X: X[:, 0])
        ds = label_coded_dataset(1)
        report = evaluate_method(ds, METHODS["plo"](), Protocol(n_trials=1))
        assert report.mean == pytest.approx(1.0)

    def test_lkplo_on_three_gaussians(self):
        ds = gen_three_gaussians(42)
        report = evaluate_method(
            ds, METHODS["lkplo-svm"](), Protocol(n_trials=8)
        )
        assert report.mean >= 0.9
        assert len(report.fold_aucs) == 5
        assert len(report.fold_params) == 5

    def test_mean_std_recomputable(self, monkeypatch):
        stub_detector(monkeypatch, lambda X: X[:, 0])
        ds = label_coded_dataset(2)
        report = evaluate_method(ds, METHODS["plo"](), Protocol(n_trials=1))
        aucs = np.asarray(report.fold_aucs)
        assert report.mean == pytest.approx(aucs.mean())
        assert report.std == pytest.approx(aucs.std())

    def test_no_leakage_from_test_rows(self):
        """Perturbing a fold's held-out rows must not change what the fold
        fits, in its search trials or in its refit, nor what it picks."""
        ds = label_coded_dataset(3)
        protocol = Protocol(n_trials=2)
        method = METHODS["lkplo-svm"]()
        folds = stratified_kfold(ds.y, protocol.k_folds, protocol.seed)
        unperturbed = fold_fits(ds, method, protocol)
        for fold in range(protocol.k_folds):
            perturbed = Dataset(ds.name, ds.X.copy(), ds.y)
            perturbed.X[folds == fold] += 100.0
            assert_same_fits(unperturbed[fold],
                             fold_fits(perturbed, method, protocol)[fold],
                             protocol.n_trials + 1)

    def test_fold_with_every_trial_failed_raises(self, monkeypatch):
        # Without the check the search returned trial 0's parameters and
        # the fold reported a normal-looking AUC.
        def fail(X):
            raise DegenerateDirectionsError("no usable projection directions")

        stub_detector(monkeypatch, lambda X: X[:, 0], fit_fn=fail)
        with pytest.raises(ValueError, match=r"^fold 0: all 2 search trials failed; "
                           r"trial 0: DegenerateDirectionsError: no usable"):
            evaluate_method(label_coded_dataset(6), METHODS["lkplo-rz"](),
                            Protocol(n_trials=2))

    def test_report_file_layout(self, tmp_path, monkeypatch):
        # The file's keys come from the report's fields, so a field added
        # there would enter the file; this pins the layout.
        protocol = Protocol(k_folds=2, n_trials=2, seed=0)
        method = METHODS["plo"]()
        failing_c = evaluation._trial_params(method.space, _derive_seed(0, 0, 2), 0)["c"]

        def fit(X, config):
            if config.loss.c == failing_c:
                raise DegenerateDirectionsError("no usable projection directions")

        monkeypatch.setattr(evaluation, "plo_fit", fit)
        monkeypatch.setattr(evaluation, "plo_score", lambda model, X: X[:, 0])
        report = evaluate_method(label_coded_dataset(8), method, protocol)
        write_reports([report], str(tmp_path / "rep"))
        [written] = json.loads((tmp_path / "rep.json").read_text())
        assert list(written) == ["dataset", "method", "fold_aucs", "mean", "std",
                                 "fold_params", "trials"]
        trials = [t for log in written["trials"] for t in log]
        assert [list(t) for t in trials] == [["index", "params", "value", "error"]] * 4
        assert [t["value"] for t in trials] == [None, 1.0, 1.0, 1.0]
        assert trials[0]["error"] == ("DegenerateDirectionsError: "
                                      "no usable projection directions")
        assert [t["error"] for t in trials[1:]] == [None] * 3

    def test_programming_error_in_a_trial_propagates(self, monkeypatch):
        stub_detector(monkeypatch, lambda X: X[:, "0"])
        with pytest.raises(IndexError):
            evaluate_method(label_coded_dataset(7), METHODS["lkplo-rz"](),
                            Protocol(n_trials=2))

    @pytest.mark.parametrize("inlier, outlier, bad", [(-1, 1, "-1"), (0, 2, "2"),
                                                      (0.0, 0.5, "0.5")])
    def test_label_outside_0_1_named_before_any_split_or_fit(self, monkeypatch, inlier,
                                                              outlier, bad):
        # The label check ran in roc_auc, after every search trial's fit.
        def called(*args):
            pytest.fail("evaluate_method split or fit rows before checking the labels")

        monkeypatch.setattr(evaluation, "stratified_kfold", called)
        monkeypatch.setattr(evaluation, "plo_fit", called)
        ds = gen_moons(0)
        ds = Dataset(ds.name, ds.X, np.where(ds.y == 1, outlier, inlier))
        with pytest.raises(ValueError, match=f"^dataset 'moons' has label {bad}; "
                           r"evaluation needs 0 \(inlier\) or 1 \(outlier\)$"):
            evaluate_method(ds, METHODS["lkplo-svm"](), Protocol(n_trials=10))

    def test_bool_labels_report_as_int_labels(self, monkeypatch):
        stub_detector(monkeypatch, lambda X: X[:, 0])
        ds = label_coded_dataset(11)
        as_bool = Dataset(ds.name, ds.X, ds.y.astype(bool))
        protocol = Protocol(n_trials=2)
        assert (evaluate_method(as_bool, METHODS["plo"](), protocol)
                == evaluate_method(ds, METHODS["plo"](), protocol))

    def test_propagates_stratification_error(self):
        rng = np.random.default_rng(4)
        ds = Dataset("tiny", rng.standard_normal((20, 2)),
                     np.array([1] * 2 + [0] * 18))
        with pytest.raises(StratificationError):
            evaluate_method(ds, METHODS["plo"](), Protocol())


class TestRunAblation:
    def test_three_reports_per_dataset(self):
        ds = label_coded_dataset(5)
        reports = run_ablation([ds], Protocol(n_trials=2))
        assert [r.method for r in reports] == ["plo", "kplo", "lkplo-svm"]
        assert all(r.dataset == "coded" for r in reports)

    def test_row_equals_standalone_evaluation(self):
        ds = label_coded_dataset(6)
        protocol = Protocol(n_trials=3)
        reports = run_ablation([ds], protocol)
        solo = evaluate_method(ds, METHODS["plo"](), protocol)
        assert reports[0].fold_aucs == solo.fold_aucs
        assert reports[0].fold_params == solo.fold_params


def set_usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


DEADLINE_S = 60


@pytest.fixture
def deadline(request):
    """Fail the test by name after DEADLINE_S seconds instead of letting a
    caller blocked on a worker's pipe or exit hang the run: the alarm
    kills every child process and fails the test in the caller. pytest's
    Failed is a BaseException, so no `except OSError` in multiprocessing
    or `except Exception` in _pull can swallow it."""
    def expire(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()
        pytest.fail(f"{request.node.name} passed its {DEADLINE_S} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def map_units(unit, n_units):
    return [evaluation._raised(outcome) for outcome in evaluation._map(unit, n_units)]


def split_units(monkeypatch, body):
    """A unit for map_units on two CPUs that runs body(i, in_worker).
    Units 0 and 1 wait for each other, so they run in different
    processes; the worker's one then sleeps while the caller runs every
    other unit."""
    set_usable_cpus(monkeypatch, 2)
    caller = os.getpid()
    both_running = multiprocessing.get_context("fork").Barrier(2, timeout=30)

    def unit(i):
        if i < 2:
            both_running.wait()
        in_worker = os.getpid() != caller
        if in_worker:
            time.sleep(0.3)
        return body(i, in_worker)

    return unit


class TestFoldsAcrossCpus:
    """evaluate_method spreads its search trials, then its refits, over
    min(units, usable CPUs) processes (0 is the caller) that pull unit
    indices from one shared counter."""

    def test_reports_byte_identical_across_cpu_counts(self, tmp_path, monkeypatch):
        datasets = [label_coded_dataset(9), gen_three_gaussians(9)]
        written = []
        for n in (1, 2, 3):
            set_usable_cpus(monkeypatch, n)
            prefix = tmp_path / f"cpus{n}"
            write_reports(run_ablation(datasets, Protocol(n_trials=2)), str(prefix))
            written.append([prefix.with_suffix(ext).read_bytes()
                            for ext in (".json", ".csv")])
        assert written[0] == written[1] == written[2]

    def test_lowest_failing_fold_is_raised(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        protocol = Protocol(n_trials=2)
        failing = {_derive_seed(protocol.seed, fold, 1) for fold in (1, 2)}

        def fit(X, config):
            if config.seed in failing:
                raise DegenerateDirectionsError("no usable projection directions")

        monkeypatch.setattr(evaluation, "plo_fit", fit)
        monkeypatch.setattr(evaluation, "plo_score", lambda model, X: X[:, 0])
        with pytest.raises(ValueError, match=r"^fold 1: all 2 search trials failed"):
            evaluate_method(label_coded_dataset(10), METHODS["plo"](), protocol)

    def test_unit_map_keeps_unit_order_across_processes(self, monkeypatch):
        unit = split_units(monkeypatch, lambda i, in_worker: (i, in_worker))
        results = map_units(unit, 12)
        assert [i for i, _ in results] == list(range(12))
        assert any(in_worker for _, in_worker in results)

    def test_unit_map_returns_each_exception_at_its_index(self, monkeypatch):
        # The worker's unit (0 or 1) and the caller's unit 11 raise.
        def body(i, in_worker):
            if in_worker or i == 11:
                raise KeyError(f"unit {i}")
            return i

        unit = split_units(monkeypatch, body)
        outcomes = evaluation._map(unit, 12)
        failed = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, KeyError)]
        assert failed in ([0, 11], [1, 11])
        assert [outcomes[i].args for i in failed] == [(f"unit {i}",) for i in failed]
        assert [outcome for i, outcome in enumerate(outcomes) if i not in failed] == [
            i for i in range(12) if i not in failed]
        # Raised in index order, as evaluate_method raises the refits'.
        with pytest.raises(KeyError, match=rf"^'unit {failed[0]}'$"):
            [evaluation._raised(outcome) for outcome in outcomes]

    def test_outcomes_larger_than_a_pipe_buffer(self, monkeypatch, deadline):
        # The caller reads each worker's outcomes before it joins it.
        unit = split_units(monkeypatch, lambda i, in_worker: (in_worker, bytes(1 << 20)))
        results = map_units(unit, 4)
        assert any(in_worker for in_worker, _ in results)
        assert [len(payload) for _, payload in results] == [1 << 20] * 4

    def test_worker_that_dies_is_named(self, monkeypatch, deadline):
        def body(i, in_worker):
            if in_worker:
                os._exit(3)
            return i

        unit = split_units(monkeypatch, body)
        with pytest.raises(RuntimeError, match="exited with code 3 before returning"):
            evaluation._map(unit, 12)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_no_process_left_running(self, monkeypatch, cpus):
        set_usable_cpus(monkeypatch, cpus)
        ds, method, protocol = label_coded_dataset(15), METHODS["plo"](), Protocol(n_trials=2)
        stub_detector(monkeypatch, lambda X: X[:, 0])
        evaluate_method(ds, method, protocol)
        assert multiprocessing.active_children() == []
        stub_detector(monkeypatch, lambda X: X[:, "0"])
        with pytest.raises(IndexError):
            evaluate_method(ds, method, protocol)
        assert multiprocessing.active_children() == []

        # No outcome holds a KeyboardInterrupt: it leaves the caller's
        # pull, and _map raises it once the workers, still sleeping
        # through their units, are joined.
        caller = os.getpid()

        def unit(i):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(0.2)

        with pytest.raises(KeyboardInterrupt):
            evaluation._map(unit, 4)
        assert multiprocessing.active_children() == []

    def test_each_unit_runs_once_per_map_with_more_workers_than_cores(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2 * len(os.sched_getaffinity(0)))
        n = 20000
        runs = multiprocessing.get_context("fork").Array("i", n)

        def unit(i):
            with runs.get_lock():
                runs[i] += 1
            return i

        for _ in range(3):
            assert evaluation._map(unit, n) == list(range(n))
        assert list(runs) == [3] * n

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_failed_search_is_raised_before_any_refit(self, monkeypatch, cpus):
        # Fold 1's refit would fail and every trial of fold 2 fails: fold
        # 2's search is raised, and no fold's refit fit runs. The refits
        # may run in forked workers, so they are counted in shared memory.
        set_usable_cpus(monkeypatch, cpus)
        ds, protocol = label_coded_dataset(13), Protocol(n_trials=3)
        folds = stratified_kfold(ds.y, protocol.k_folds, protocol.seed)
        train_rows = {_derive_seed(protocol.seed, fold, 1): np.sum(folds != fold)
                      for fold in range(protocol.k_folds)}
        refits = multiprocessing.get_context("fork").Value("i", 0)

        def fit(X, config):
            if len(X) == train_rows[config.seed]:
                with refits.get_lock():
                    refits.value += 1
                if config.seed == _derive_seed(protocol.seed, 1, 1):
                    raise DegenerateDirectionsError("refit of fold 1")
            elif config.seed == _derive_seed(protocol.seed, 2, 1):
                raise DegenerateDirectionsError("trial of fold 2")

        monkeypatch.setattr(evaluation, "plo_fit", fit)
        monkeypatch.setattr(evaluation, "plo_score", lambda model, X: X[:, 0])
        with pytest.raises(ValueError, match=r"^fold 2: all 3 search trials failed"):
            evaluate_method(ds, METHODS["plo"](), protocol)
        assert refits.value == 0

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_programming_error_propagates_past_recorded_errors(self, monkeypatch, cpus):
        # In fold 3, trial 0 raises a LinAlgError (recorded in the trial
        # log) and trial 2 a TypeError (raised); the other folds are fine.
        set_usable_cpus(monkeypatch, cpus)
        ds, method, protocol = label_coded_dataset(14), METHODS["plo"](), Protocol(n_trials=4)
        fold_3 = _derive_seed(protocol.seed, 3, 1)
        search_seed = _derive_seed(protocol.seed, 3, 2)
        c_of_trial = [evaluation._trial_params(method.space, search_seed, t)["c"]
                      for t in range(protocol.n_trials)]

        def fit(X, config):
            if config.seed == fold_3 and config.loss.c == c_of_trial[0]:
                raise np.linalg.LinAlgError("trial 0 of fold 3")
            if config.seed == fold_3 and config.loss.c == c_of_trial[2]:
                raise TypeError("trial 2 of fold 3")

        monkeypatch.setattr(evaluation, "plo_fit", fit)
        monkeypatch.setattr(evaluation, "plo_score", lambda model, X: X[:, 0])
        with pytest.raises(TypeError, match="^trial 2 of fold 3$"):
            evaluate_method(ds, method, protocol)

    def test_one_cpu_starts_no_process(self, monkeypatch):
        def no_fork(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        stub_detector(monkeypatch, lambda X: X[:, 0])
        ds, method = label_coded_dataset(11), METHODS["plo"]()
        protocol = Protocol(n_trials=1)
        set_usable_cpus(monkeypatch, 2)
        with pytest.raises(AssertionError, match="a process was started"):
            evaluate_method(ds, method, protocol)
        set_usable_cpus(monkeypatch, 1)
        assert evaluate_method(ds, method, protocol).mean == pytest.approx(1.0)

    def test_daemonic_process_runs_serially(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        ds, method = label_coded_dataset(12), METHODS["lkplo-svm"]()
        protocol = Protocol(n_trials=2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            job = pool.apply_async(evaluate_method, (ds, method, protocol))
            in_daemon = job.get(timeout=120)
        assert in_daemon == evaluate_method(ds, method, protocol)
