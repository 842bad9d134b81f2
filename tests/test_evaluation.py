import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.stats import rankdata

import oracles

from lkplo.clustering import InvalidKError
from lkplo.data import Dataset, gen_three_gaussians
from lkplo.evaluation import (
    Method,
    ParamSpec,
    Protocol,
    SearchSpace,
    StratificationError,
    _average_ranks,
    _fit_fold,
    evaluate_method,
    make_method,
    random_search,
    roc_auc,
    run_ablation,
    stratified_kfold,
)
from lkplo.kernel_feature import DegenerateKernelError
from lkplo.plo import DegenerateDirectionsError


class TestStratifiedKfold:
    def test_exact_divisibility(self):
        y = np.array([0] * 50 + [1] * 10)
        plan = stratified_kfold(y, 5, seed=0)
        for f in range(5):
            fold_y = y[plan.assignments == f]
            assert (fold_y == 0).sum() == 10
            assert (fold_y == 1).sum() == 2

    def test_uneven_counts_within_one(self):
        y = np.array([0] * 45 + [1] * 7)
        plan = stratified_kfold(y, 5, seed=1)
        ones = [(y[plan.assignments == f] == 1).sum() for f in range(5)]
        assert set(ones) <= {1, 2}
        assert sum(ones) == 7

    def test_determinism(self):
        y = np.array([0] * 30 + [1] * 8)
        p1 = stratified_kfold(y, 4, seed=7)
        p2 = stratified_kfold(y, 4, seed=7)
        np.testing.assert_array_equal(p1.assignments, p2.assignments)

    def test_disjoint_cover(self):
        y = np.array([0, 1] * 20)
        plan = stratified_kfold(y, 5, seed=3)
        assert plan.assignments.shape == (40,)
        assert set(plan.assignments) == set(range(5))

    def test_small_class_raises(self):
        y = np.array([0] * 20 + [1] * 3)
        with pytest.raises(StratificationError):
            stratified_kfold(y, 5, seed=0)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([1.0, 2.0, 9.0, 8.0], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc([3.0] * 6, [0, 0, 0, 1, 1, 1]) == 0.5

    def test_hand_example(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_auc([1.0, 2.0], [0, 0])

    def test_nan_score_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            roc_auc([0.1, np.nan, 0.3], [0, 1, 1])

    # A few values, signed zeros and infinities make long tie runs.
    TIED = st.sampled_from([-np.inf, -2.5, -0.0, 0.0, 5e-324, 0.5, 0.5 + 2**-53, 7.0, np.inf])

    @given(st.lists(st.tuples(st.one_of(TIED, st.floats(allow_nan=False)), st.sampled_from([0, 1])),
                    min_size=2, max_size=300))
    @example([(0.0, 0), (-0.0, 1), (0.0, 1)])
    def test_equals_scipy_rankdata(self, rows):
        scores = np.array([s for s, _ in rows])
        y = np.array([c for _, c in rows])
        assert np.array_equal(_average_ranks(scores), rankdata(scores))
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
            assert roc_auc(scores, y) == pytest.approx(
                (wins + 0.5 * ties) / n_pairs, abs=1e-12
            )

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
    space = SearchSpace({"k": ParamSpec("int", 2, 30)})

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

    def test_deterministic_trial_sequence(self):
        _, l1 = random_search(self.space, 10, seed=4, objective=lambda p: 0.0)
        _, l2 = random_search(self.space, 10, seed=4, objective=lambda p: 0.0)
        assert [t.params for t in l1] == [t.params for t in l2]

    def test_param_spec_validation(self):
        with pytest.raises(ValueError):
            ParamSpec("int", 5, 5)
        with pytest.raises(ValueError):
            ParamSpec("loguniform", 0.0, 1.0)

    def test_loguniform_range(self):
        spec = ParamSpec("loguniform", 1e-4, 1e1)
        rng = np.random.default_rng(5)
        vals = [spec.sample(rng) for _ in range(200)]
        assert all(1e-4 <= v <= 1e1 for v in vals)
        assert sum(v < 1e-1 for v in vals) > 20  # spread over decades


class _FixedScorer:
    """Scores each row by a fixed function of its features."""

    def __init__(self, fn):
        self.fn = fn

    def fit(self, X):
        return self

    def score(self, X):
        return self.fn(X)


def constant_method():
    return Method("const", None, lambda p, s: _FixedScorer(lambda X: np.zeros(len(X))))


def first_feature_method():
    return Method("first", None, lambda p, s: _FixedScorer(lambda X: X[:, 0]))


def label_coded_dataset(seed, n=60):
    """First feature equals the label, so scoring by it is an oracle."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.3).astype(int)
    y[:5] = 1
    y[5:10] = 0
    X = np.column_stack([y.astype(float), rng.standard_normal(n)])
    return Dataset("coded", X, y)


class TestEvaluateMethod:
    def test_constant_scorer_gives_half(self):
        ds = label_coded_dataset(0)
        report = evaluate_method(ds, constant_method(), Protocol(n_trials=1))
        assert report.mean == pytest.approx(0.5)
        assert report.std == pytest.approx(0.0)

    def test_oracle_scorer_gives_one(self):
        ds = label_coded_dataset(1)
        report = evaluate_method(ds, first_feature_method(), Protocol(n_trials=1))
        assert report.mean == pytest.approx(1.0)

    def test_lkplo_on_three_gaussians(self):
        ds = gen_three_gaussians(42)
        report = evaluate_method(
            ds, make_method("lkplo", "svm_like"), Protocol(n_trials=8)
        )
        assert report.mean >= 0.9
        assert len(report.fold_aucs) == 5
        assert len(report.fold_params) == 5

    def test_mean_std_recomputable(self):
        ds = label_coded_dataset(2)
        report = evaluate_method(ds, first_feature_method(), Protocol(n_trials=1))
        aucs = np.asarray(report.fold_aucs)
        assert report.mean == pytest.approx(aucs.mean())
        assert report.std == pytest.approx(aucs.std())

    def test_no_leakage_from_test_rows(self):
        """Perturbing held-out rows must not change what the fold fits."""
        ds = label_coded_dataset(3)
        protocol = Protocol(n_trials=2)
        plan = stratified_kfold(ds.y, protocol.k_folds, protocol.seed)
        train_idx = np.flatnonzero(plan.assignments != 0)
        method = make_method("lkplo", "svm_like")

        _, scaler_a, best_a, _ = _fit_fold(ds, train_idx, method, protocol, 0)
        perturbed = Dataset(
            ds.name, ds.X.copy(), ds.y
        )
        perturbed.X[plan.assignments == 0] += 100.0
        _, scaler_b, best_b, _ = _fit_fold(perturbed, train_idx, method, protocol, 0)

        np.testing.assert_array_equal(scaler_a.means, scaler_b.means)
        np.testing.assert_array_equal(scaler_a.stds, scaler_b.stds)
        assert best_a == best_b

    def test_fold_with_every_trial_failed_raises(self):
        # Without the check the search returned trial 0's parameters and
        # the fold reported a normal-looking AUC.
        def build(params, seed):
            def fail(X):
                raise DegenerateDirectionsError("no usable projection directions")
            return _FixedScorer(fail)

        method = Method("broken", SearchSpace({"k": ParamSpec("int", 2, 30)}), build)
        with pytest.raises(ValueError, match=r"^fold 0: all 2 search trials failed; "
                           r"trial 0: DegenerateDirectionsError: no usable"):
            evaluate_method(label_coded_dataset(6), method, Protocol(n_trials=2))

    def test_programming_error_in_a_trial_propagates(self):
        method = Method("typo", SearchSpace({"k": ParamSpec("int", 2, 30)}),
                        lambda p, s: _FixedScorer(lambda X: X[:, "0"]))
        with pytest.raises(IndexError):
            evaluate_method(label_coded_dataset(7), method, Protocol(n_trials=2))

    def test_propagates_stratification_error(self):
        rng = np.random.default_rng(4)
        ds = Dataset("tiny", rng.standard_normal((20, 2)),
                     np.array([1] * 2 + [0] * 18))
        with pytest.raises(StratificationError):
            evaluate_method(ds, constant_method(), Protocol())


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
        solo = evaluate_method(ds, make_method("plo", "svm_like"), protocol)
        assert reports[0].fold_aucs == solo.fold_aucs
        assert reports[0].fold_params == solo.fold_params
