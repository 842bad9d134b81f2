"""Workloads of the lkplo benchmark: inputs made from the seed, the
timed operation, the checks on its output, and the metrics of a run.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned. See README.md for why each
workload exists and which layer metric should move which end-to-end
metric.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy

from lkplo import data, evaluation, plo

import tracer as tracing
from run import BLAS_VARS, HERE, ROOT, SRC

# Scratch files and the results log of every run, inside the checkout.
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
CLI_SNIPPET = "import sys; from lkplo.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 120

SVM = plo.LossSpec("svm_like", 2.0)
# The model that score_grid scores in process and cli_score through the CLI.
SCORE_MODEL = plo.FitConfig(variant="lkplo", loss=SVM, gamma=0.5, q=20, k=10, seed=0)
# Blob centres and outlier exclusion radius of data.gen_three_gaussians:
# grid points at least that far from every centre are outlier region,
# points within half of it are inlier core.
BLOB_CENTERS = np.array([[0.0, 0.0], [5.0, 0.0], [2.5, 4.5]])
OUTLIER_RADIUS = 2.0
# Answers of seeds with no entry in reference.json must beat chance.
AUC_FLOOR = 0.5
# Tolerances against reference.json: AUCs move in steps of at least
# 1/(n0*n1) > 1e-6, so 1e-9 means unchanged; checksums are sums of
# thousands of scores, which a change of summation order moves by ~1e-15.
AUC_TOL = 1e-9
CHECKSUM_RTOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Input sizes. FULL is the benchmark; TINY lets the self-test run
    every workload in seconds, without the answer checks."""

    cv_folds: int = 5
    cv_trials: int = 5
    fit_rows: int = 2000
    fit_dims: int = 10
    fit_q: int = 20
    fit_k: int = 10
    grid_side: int = 200
    cli_rows: int = 1000
    setup_reps: int = 3
    min_ops: int = 3
    check_answers: bool = True


FULL = Sizes()
TINY = Sizes(cv_folds=2, cv_trials=1, fit_rows=150, fit_q=5, fit_k=3,
             grid_side=20, cli_rows=60, setup_reps=1, min_ops=1,
             check_answers=False)


def score_problems(scores, n):
    scores = np.asarray(scores)
    if scores.shape != (n,):
        return [f"scores have shape {scores.shape}, expected ({n},)"]
    if not np.all(np.isfinite(scores)):
        return ["non-finite score"]
    if np.any(scores < 0):
        return ["negative score"]
    return []


def fingerprint(scores, labels):
    return {"auc": evaluation.roc_auc(scores, labels),
            "checksum": float(np.sum(scores))}


def fit_score_model(seed, workdir):
    """Fit SCORE_MODEL on gen_three_gaussians(seed), save it and load it
    back; the round trip is what a deployed scorer pays."""
    model = plo.fit(data.gen_three_gaussians(seed).X, SCORE_MODEL)
    path = os.path.join(workdir, "model.json")
    start = time.perf_counter()
    plo.save_model(model, path)
    save_s = time.perf_counter() - start
    return SimpleNamespace(model=plo.load_model(path), model_path=path,
                           save_s=save_s, model_bytes=os.path.getsize(path))


def mixture(seed, n, d):
    """Three unit-variance Gaussian components in d dimensions with
    centres drawn from N(0, 3^2), plus n/20 outliers uniform over the
    inliers' bounding box (label 1), standardized per feature so that
    gamma = 1/d is the usual kernel width."""
    rng = np.random.default_rng(seed)
    n_out = n // 20
    centers = rng.normal(0.0, 3.0, size=(3, d))
    inliers = (centers[rng.integers(3, size=n - n_out)]
               + rng.standard_normal((n - n_out, d)))
    outliers = rng.uniform(inliers.min(axis=0), inliers.max(axis=0), size=(n_out, d))
    X = np.vstack([inliers, outliers])
    y = np.concatenate([np.zeros(n - n_out, dtype=int), np.ones(n_out, dtype=int)])
    return data.apply_standardizer(data.fit_standardizer(X), X), y


def labelled_rows(seed, n):
    """n rows drawn from fresh gen_three_gaussians samples, keeping the
    generator's 1-in-16 outlier share, shuffled."""
    rng = np.random.default_rng(seed)
    n_out = max(1, n // 16)
    chunks = [data.gen_three_gaussians(seed + 1 + i) for i in range(n // 450 + 1)]
    X = np.vstack([c.X for c in chunks])
    y = np.concatenate([c.y for c in chunks])
    keep = np.concatenate([np.flatnonzero(y == 0)[: n - n_out],
                           np.flatnonzero(y == 1)[:n_out]])
    keep = keep[rng.permutation(len(keep))]
    return data.Dataset(name="cli_rows", X=X[keep], y=y[keep])


class TunedCV:
    """The paper's protocol: tuned 5-fold CV of lkplo-svm."""

    name = "tuned_cv"
    labels = {"op_s": "cv_eval_s", "auc": "cv_auc_mean"}

    def setup(self, seed, sizes, workdir):
        dataset = data.gen_three_gaussians(seed)
        method = evaluation.METHODS["lkplo-svm"]()
        evaluation.evaluate_method(dataset, method,
                                   evaluation.Protocol(k_folds=2, n_trials=1))
        protocol = evaluation.Protocol(k_folds=sizes.cv_folds, n_trials=sizes.cv_trials)
        return SimpleNamespace(dataset=dataset, method=method, protocol=protocol,
                               rows=len(dataset.y))

    def op(self, s, tracer):
        return evaluation.evaluate_method(s.dataset, s.method, s.protocol)

    def check(self, s, report):
        aucs = np.asarray(report.fold_aucs, dtype=float)
        if aucs.shape != (s.protocol.k_folds,):
            return None, [f"{aucs.size} fold AUCs, expected {s.protocol.k_folds}"]
        if not np.all((aucs >= 0) & (aucs <= 1)):
            return None, [f"fold AUC outside [0, 1]: {aucs.tolist()}"]
        return {"auc": report.mean}, []


class FitLarge:
    """One lkplo fit at N=2000, d=10: the O(N^3) kernel stage."""

    name = "fit_large"
    labels = {"op_s": "fit_s", "auc": "fit_auc"}

    def setup(self, seed, sizes, workdir):
        X, y = mixture(seed, sizes.fit_rows, sizes.fit_dims)
        config = plo.FitConfig(variant="lkplo", loss=SVM, gamma=1.0 / sizes.fit_dims,
                               q=sizes.fit_q, k=sizes.fit_k, seed=0)
        plo.fit(X[: sizes.fit_rows // 10], config)
        return SimpleNamespace(X=X, y=y, config=config, rows=len(y))

    def op(self, s, tracer):
        return plo.fit(s.X, s.config)

    def check(self, s, model):
        scores = plo.score(model, s.X)
        problems = score_problems(scores, len(s.y))
        return (None if problems else fingerprint(scores, s.y)), problems


class ScoreGrid:
    """Scoring a 200x200 grid over the data's bounding box with one
    fitted model: per-row scoring throughput, no fit work."""

    name = "score_grid"
    labels = {"op_s": "score_call_s", "auc": "grid_auc"}

    def setup(self, seed, sizes, workdir):
        s = fit_score_model(seed, workdir)
        X = data.gen_three_gaussians(seed).X
        xs = np.linspace(X[:, 0].min(), X[:, 0].max(), sizes.grid_side)
        ys = np.linspace(X[:, 1].min(), X[:, 1].max(), sizes.grid_side)
        s.grid = np.column_stack([np.repeat(xs, len(ys)), np.tile(ys, len(xs))])
        dist = np.min(np.linalg.norm(s.grid[:, None, :] - BLOB_CENTERS[None], axis=2), axis=1)
        s.region = dist >= OUTLIER_RADIUS
        s.scored = s.region | (dist <= OUTLIER_RADIUS / 2)
        s.rows = len(s.grid)
        plo.score(s.model, s.grid[:1000])
        return s

    def op(self, s, tracer):
        return plo.score(s.model, s.grid)

    def check(self, s, scores):
        problems = score_problems(scores, s.rows)
        if problems:
            return None, problems
        return {"auc": evaluation.roc_auc(scores[s.scored], s.region[s.scored]),
                "checksum": float(np.sum(scores))}, []


class CliScore:
    """A cold `lkplo score` process on a 1,000-row CSV: the per-call
    fixed cost (interpreter, imports, model parsing) of the CLI."""

    name = "cli_score"
    labels = {"op_s": "cli_score_s", "auc": "cli_auc"}

    def setup(self, seed, sizes, workdir):
        s = fit_score_model(seed, workdir)
        s.workdir = workdir
        s.csv_path = os.path.join(workdir, "rows.csv")
        s.out_path = os.path.join(workdir, "scores.csv")
        data.save_csv(labelled_rows(seed, sizes.cli_rows), s.csv_path)
        s.dataset = data.load_csv(s.csv_path)
        s.expected = plo.score(s.model, s.dataset.X)
        s.rows = len(s.dataset.y)
        returncode, stderr = self.op(s, None)
        if returncode != 0:
            raise RuntimeError(f"warm-up lkplo score exited {returncode}: {stderr}")
        return s

    def op(self, s, tracer):
        cli_args = ["score", "--model", s.model_path, "--data", s.csv_path,
                    "--out", s.out_path]
        if os.path.exists(s.out_path):
            os.remove(s.out_path)
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_SNIPPET] + cli_args
        else:
            trace_path = os.path.join(s.workdir, "cli_trace.json")
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path] + cli_args
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if tracer is not None and proc.returncode == 0:
            with open(trace_path, encoding="utf-8") as fh:
                tracer.merge(json.load(fh))
        return proc.returncode, proc.stderr

    def check(self, s, out):
        returncode, stderr = out
        if returncode != 0:
            return None, [f"lkplo score exited {returncode}: {stderr.strip()}"]
        table = np.loadtxt(s.out_path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (s.rows, 2) or not np.array_equal(table[:, 0], np.arange(s.rows)):
            return None, [f"scores CSV has shape {table.shape}, expected ({s.rows}, 2) "
                          "with row_index 0..N-1"]
        scores = table[:, 1]
        problems = score_problems(scores, s.rows)
        if not problems and not np.allclose(scores, s.expected, rtol=1e-9, atol=1e-12):
            problems = ["CLI scores differ from the in-process score of the same model"]
        return (None if problems else fingerprint(scores, s.dataset.y)), problems


WORKLOADS = {w.name: w for w in (TunedCV(), FitLarge(), ScoreGrid(), CliScore())}


def child_env():
    """Environment of the benchmark's child processes: this checkout's
    src/ on the path and the parent's explicit BLAS thread count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def measure(workload, state, seconds, min_ops, tracer=None):
    """Run the operation back to back until `seconds` have passed and at
    least min_ops were attempted. Returns the times and answer
    fingerprints of the operations that passed their checks, and the
    attempted and failed counts."""
    times, answers, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while attempted < min_ops or time.perf_counter() < deadline:
        attempted += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                out = workload.op(state, None)
            else:
                with tracer.recording():
                    out = workload.op(state, tracer)
            elapsed = time.perf_counter() - start
            answer, problems = workload.check(state, out)
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        if problems:
            print(f"{workload.name}: wrong output: {'; '.join(problems)}", file=sys.stderr)
            failed += 1
            continue
        times.append(elapsed)
        answers.append(answer)
    return SimpleNamespace(times=times, answers=answers, attempted=attempted, failed=failed)


def answer_problems(name, seed, answers, sizes):
    """Every operation of a run must give the same answer, equal to the
    recorded reference for this seed or, without one, above AUC_FLOOR."""
    if any(a != answers[0] for a in answers[1:]):
        return ["answers differ between repetitions of the same operation"]
    if not sizes.check_answers:
        return []
    answer = answers[0]
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)[name].get(str(seed))
    if expected is None:
        if answer["auc"] < AUC_FLOOR:
            return [f"AUC {answer['auc']:.4f} below the floor {AUC_FLOOR}"]
        return []
    problems = []
    for key, want in expected.items():
        got = answer[key]
        tol = AUC_TOL if key == "auc" else CHECKSUM_RTOL * abs(want)
        if abs(got - want) > tol:
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


def peak_rss_mb(name):
    """Peak RSS of this fresh process, or of the CLI children for cli_score
    (ru_maxrss is in KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if name == "cli_score" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(tracer, traced, untraced, setup_state):
    """Per-layer metrics per traced operation (see README.md)."""
    ops = len(traced.times)
    stats = tracer.stats
    m = {}
    for layer in tracing.TARGETS:
        m[f"{layer}.self_s"] = (stats[layer]["self_s"] / ops, "s")
        m[f"{layer}.calls"] = (stats[layer]["calls"] / ops, "count")
    for layer, counts in (("plo.gen_directions", ("rows",)),
                          ("kernel_feature.transform", ("rows",)),
                          ("data.load_csv", ("rows",)),
                          ("evaluation.random_search", ("trials", "failed"))):
        for key in counts:
            m[f"{layer}.{key}"] = (stats[layer][key] / ops, "count")
    trials = stats["evaluation.random_search"]["trials"]
    failed = stats["evaluation.random_search"]["failed"]
    m["evaluation.trial_success_ratio"] = ((trials - failed) / trials if trials else 0.0, "ratio")
    m["cli.import_s"] = (stats[tracing.IMPORT_LAYER]["self_s"] / ops, "s")
    m["plo.model_bytes"] = (float(getattr(setup_state, "model_bytes", 0)), "B")
    m["plo.save_model.self_s"] = (getattr(setup_state, "save_s", 0.0), "s")
    traced_s = statistics.median(traced.times)
    m["trace.op_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - statistics.median(untraced.times), "s")
    m["trace.ops"] = (float(ops), "count")
    m["trace.absent_targets"] = (float(len(tracer.absent)), "count")
    return m


def top_layer(metrics):
    """The layer with the most self time per operation (the CLI import
    counts as a layer)."""
    candidates = {layer: metrics[f"{layer}.self_s"][0] for layer in tracing.TARGETS}
    candidates[tracing.IMPORT_LAYER] = metrics["cli.import_s"][0]
    return max(candidates.items(), key=lambda kv: kv[1])


def run(name, seed, seconds, trace, sizes=FULL):
    """One benchmark run; prints a readable report and returns the result
    object (correct, attempted, failed, metrics)."""
    workload = WORKLOADS[name]
    info = machine()
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR)
    try:
        setup_times = []
        for _ in range(sizes.setup_reps):
            start = time.perf_counter()
            state = workload.setup(seed, sizes, workdir)
            setup_times.append(time.perf_counter() - start)
        if trace:
            untraced = measure(workload, state, seconds / 2, sizes.min_ops)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload, state, seconds / 2, sizes.min_ops, tracer)
            finally:
                tracer.uninstall()
            runs = [untraced, traced]
        else:
            runs = [measure(workload, state, seconds, sizes.min_ops)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if not all(r.times for r in runs):
        raise RuntimeError(f"{name}: no operation of the run passed its checks")
    answers = [a for r in runs for a in r.answers]
    problems = answer_problems(name, seed, answers, sizes)
    if problems:
        print(f"{name}: wrong answer: {'; '.join(problems)}", file=sys.stderr)
        failed = attempted

    if trace:
        metrics = layer_metrics(tracer, traced, untraced, state)
        if tracer.absent:
            print(f"absent trace targets: {', '.join(tracer.absent)}")
        layer, self_s = top_layer(metrics)
        print(f"{name} seed {seed} traced: {len(traced.times)} ops, "
              f"top self-time layer {layer} "
              f"({100 * self_s / metrics['trace.op_s'][0]:.0f}% of the traced op)")
    else:
        op_s = statistics.median(runs[0].times)
        metrics = {
            "op_s": (op_s, "s"),
            "auc": (answers[0]["auc"], "ratio"),
            "peak_rss_mb": (peak_rss_mb(name), "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        n = len(runs[0].times)
        print(f"{name} seed {seed}: {n} ops, {failed} failed")
        print(f"  op_s        = {op_s:.4f} s  ({workload.labels['op_s']}, median of {n})")
        if name == "score_grid":
            print(f"                {state.rows / op_s:.0f} 1/s  (score_rows_per_s)")
        print(f"  auc         = {answers[0]['auc']:.6f}  ({workload.labels['auc']})")
        print(f"  peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB")
        print(f"  setup_s     = {metrics['setup_s'][0]:.4f} s  (median of {len(setup_times)})")
        print(f"  error_rate  = {failed / attempted:.4f}  ({failed}/{attempted})")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(RUN_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                             "trace": int(trace), "machine": info,
                             "op_times_s": [t for r in runs for t in r.times],
                             "setup_times_s": setup_times, "result": result}) + "\n")
    return result
