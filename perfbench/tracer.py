"""Outside-in layer tracing for the lkplo benchmark.

The tracer replaces, at run time, the module attributes through which
lkplo's own code (and the benchmark) looks up each layer's public
function, and accumulates per layer: calls, self time (a call's wall
time minus the time of the traced calls made inside it) and work
counts. Nothing under src/ changes, and uninstall() puts the original
attributes back. A target that no longer exists is listed as absent
instead of failing the run.

Run as a script it is the child process of the traced cli_score
workload:

    python3 perfbench/tracer.py TRACE_OUT score --model M --data D --out O

It times `import lkplo.cli`, runs the CLI's main() under the tracer and
writes the stats to TRACE_OUT as JSON. The module uses the standard
library only, so importing it before lkplo adds nothing to what the
timed import loads.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Layer name -> the (module, attribute) pairs its callers look it up by.
# plo.fit calls kmeans_fit/fit_kpca/gen_directions through lkplo.plo's
# globals, evaluation calls plo_fit/plo_score/roc_auc/random_search
# through its own, and the CLI calls plo_mod.load_model/plo_mod.score
# and data_mod.load_csv as module attributes.
TARGETS = {
    "evaluation.evaluate_method": [("lkplo.evaluation", "evaluate_method")],
    "evaluation.random_search": [("lkplo.evaluation", "random_search")],
    "evaluation.roc_auc": [("lkplo.evaluation", "roc_auc")],
    "plo.fit": [("lkplo.evaluation", "plo_fit"), ("lkplo.plo", "fit")],
    "plo.score": [("lkplo.evaluation", "plo_score"), ("lkplo.plo", "score")],
    "plo.gen_directions": [("lkplo.plo", "gen_directions")],
    "plo.load_model": [("lkplo.plo", "load_model")],
    "kernel_feature.fit_kpca": [("lkplo.plo", "fit_kpca")],
    "kernel_feature.gram_matrix": [("lkplo.kernel_feature", "gram_matrix")],
    "kernel_feature.center_gram": [("lkplo.kernel_feature", "center_gram")],
    "kernel_feature.transform": [("lkplo.plo", "transform")],
    "clustering.kmeans_fit": [("lkplo.plo", "kmeans_fit")],
    "clustering.assign_nearest": [("lkplo.plo", "assign_nearest")],
    "data.load_csv": [("lkplo.data", "load_csv")],
    "cli.main": [("lkplo.cli", "main")],
}


def _random_search_counts(result):
    trials = result[1]
    return {"trials": len(trials),
            "failed": sum(t.error is not None for t in trials)}


# Layer name -> function of the call's result giving its work counts.
COUNTERS = {
    "plo.gen_directions": lambda result: {"rows": len(result)},
    "kernel_feature.transform": lambda result: {"rows": len(result)},
    "data.load_csv": lambda result: {"rows": len(result.y)},
    "evaluation.random_search": _random_search_counts,
}

# The time of `import lkplo.cli` in a traced CLI child, kept as a layer.
IMPORT_LAYER = "cli.import"


class Tracer:
    """Per-layer call counts, self times and work counts, recorded only
    inside recording() so set-up and output checks stay out of them."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.absent = []
        self.active = False
        self._stack = []
        self._installed = []

    def install(self):
        for name, sites in TARGETS.items():
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._installed.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                stat = self.stats[name]
                stat["calls"] += 1
                stat["self_s"] += elapsed - children
            if counter is not None:
                self._count(name, counter, result)
            return result

        return traced

    def _count(self, name, counter, result):
        try:
            counts = counter(result)
        except (AttributeError, IndexError, TypeError):
            # The result no longer has the shape the counter expects.
            if f"{name}:counts" not in self.absent:
                self.absent.append(f"{name}:counts")
            return
        for key, value in counts.items():
            self.stats[name][key] += value

    def add(self, name, **values):
        for key, value in values.items():
            self.stats[name][key] += value

    def merge(self, dump):
        """Add the stats a traced child process wrote (see child_main)."""
        for name, values in dump["stats"].items():
            self.add(name, **values)
        for target in dump["absent"]:
            if target not in self.absent:
                self.absent.append(target)

    def dump(self):
        return {"stats": {name: dict(values) for name, values in self.stats.items()},
                "absent": list(self.absent)}


def child_main(argv):
    """Traced `lkplo` CLI process: argv is TRACE_OUT followed by CLI args."""
    trace_out, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("lkplo.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.add(IMPORT_LAYER, calls=1, self_s=import_s)
    tracer.install()
    try:
        with tracer.recording():
            code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
