import base64
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lkplo
from lkplo.cli import main
from lkplo.data import Dataset, gen_moons, gen_three_gaussians, load_csv, save_csv
from lkplo.plo import (
    MAD_FLOOR,
    DirectionConfig,
    FitConfig,
    LossSpec,
    _arr,
    fit,
    load_model,
    model_to_dict,
    score,
)
from test_evaluation import set_usable_cpus
from test_vectorized import block_rows


# 0xe8 opens a three-byte UTF-8 sequence, which 0x00 cannot continue.
NOT_UTF8 = b"\xe8\x00" + np.random.default_rng(22).bytes(254)


@pytest.fixture
def train_csv(tmp_path):
    path = tmp_path / "train.csv"
    ds = gen_three_gaussians(0)
    save_csv(ds, path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def child_env(**extra):
    """This process's environment with src/ on PYTHONPATH, warnings raised
    as errors (as filterwarnings does in this process) and extra set, for
    a child process; this process's own environment is not touched."""
    src = str(Path(lkplo.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p),
        PYTHONWARNINGS="error", **extra)


class TestFitCommand:
    def test_happy_path(self, tmp_path, train_csv, capsys):
        out = tmp_path / "model.json"
        rc = run("fit", "--data", train_csv, "--out", out,
                 "--variant", "plo", "--loss", "robust_z", "--seed", "1")
        assert rc == 0
        assert out.exists()
        assert "variant=plo" in capsys.readouterr().out

    def test_k_too_large_fails(self, tmp_path, train_csv, capsys, monkeypatch):
        # --k above the training rows is named before the kernel stage runs.
        def no_kernel_stage(*args):
            raise AssertionError("the kernel stage ran")

        monkeypatch.setattr("lkplo.plo.fit_kpca", no_kernel_stage)
        out = tmp_path / "m.json"
        n = len(load_csv(train_csv).X)
        rc = run("fit", "--data", train_csv, "--out", out, "--variant", "lkplo",
                 "--k", "1000")
        assert rc == 1
        assert (f"InvalidKError: k (--k) must be <= {n}, the number of training rows, "
                "got 1000") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c", ["1e6", None])
    def test_all_zero_training_scores_name_c(self, tmp_path, train_csv, capsys, c):
        # A margin beyond every training projection scores each training
        # row 0. That fit still exits 0 and writes the model it always
        # wrote, and says so on stderr; the default c writes nothing there.
        out = tmp_path / "m.json"
        flags = [] if c is None else ["--c", c]
        assert run("fit", "--data", train_csv, "--out", out, *flags) == 0
        err = capsys.readouterr().err
        config = FitConfig(variant="lkplo", loss=LossSpec("svm_like", 2.0 if c is None else 1e6),
                           seed=42)
        model = fit(load_csv(train_csv).X, config)
        assert out.read_text() == json.dumps(model_to_dict(model)) + "\n"
        if c is None:
            assert err == ""
        else:
            assert not score(model, load_csv(train_csv).X).any()
            assert len(err.splitlines()) == 1 and "--c 1000000.0" in err

    @pytest.mark.parametrize("text, flags, cause", [
        (None, ["--c", "1e6"], "--c 1000000.0 puts the margin"),
        ("a,b,label\n" + "1.5,-2,0\n" * 6, [], "no training projection varies"),
    ], ids=["wide-margin", "identical-rows"])
    def test_all_zero_training_scores_name_the_cause(self, tmp_path, train_csv, capsys,
                                                     text, flags, cause):
        # Identical training rows give every direction a MAD of 0, so
        # every row scores 0 at any c; that warning does not name --c.
        data = train_csv
        if text is not None:
            data = tmp_path / "same.csv"
            data.write_text(text)
        assert run("fit", "--data", data, "--variant", "plo", "--out",
                   tmp_path / "m.json", *flags) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: every training row scores 0: " + cause)
        assert len(err.splitlines()) == 1 and ("--c" in err) == (text is None)

    def test_byte_identical_reruns(self, tmp_path, train_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["fit", "--data", train_csv, "--variant", "lkplo",
                "--gamma", "0.5", "--q", "6", "--k", "3", "--seed", "9"]
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_and_flag_override(self, tmp_path, train_csv):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[fit]\nvariant = plo\nseed = 5\nloss = robust_z\n")
        out = tmp_path / "m.json"
        rc = run("fit", "--data", train_csv, "--out", out,
                 "--config", cfg, "--seed", "7")
        assert rc == 0
        assert load_model(out).variant == "plo"  # from file
        # The flag wins: the same fit as seed 7 given on the command line
        # (the seed draws the random directions, so seed 5 differs).
        for seed, same in (("7", True), ("5", False)):
            ref = tmp_path / f"ref{seed}.json"
            assert run("fit", "--data", train_csv, "--out", ref, "--variant", "plo",
                       "--loss", "robust_z", "--seed", seed) == 0
            assert (ref.read_bytes() == out.read_bytes()) is same

    def test_config_file_with_utf8_bom(self, tmp_path, train_csv):
        # Windows Notepad saves UTF-8 with a BOM; the file reads as without.
        text = "[fit]\nvariant = plo\nseed = 5\nloss = robust_z\n"
        bom, plain = tmp_path / "bom.ini", tmp_path / "plain.ini"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        plain.write_text(text)
        for cfg in (bom, plain):
            assert run("fit", "--data", train_csv, "--out", cfg.with_suffix(".json"),
                       "--config", cfg) == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_config_file_supplies_required_flag(self, tmp_path, train_csv, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[fit]\ndata = {train_csv}\nvariant = plo\nc = 4.0\n")
        out, ref = tmp_path / "m.json", tmp_path / "ref.json"
        # --data comes from the file; "--c" is the margin flag, which wins
        # over the file's c, not an abbreviation of --config.
        assert run("fit", "--config", cfg, "--out", out, "--c", "3.0") == 0
        assert run("fit", "--data", train_csv, "--out", ref, "--variant", "plo",
                   "--c", "3.0") == 0
        assert out.read_bytes() == ref.read_bytes()
        # An abbreviated --config would leave the file unread.
        assert run("fit", "--conf", cfg, "--data", train_csv, "--out", out) == 1
        assert "--config must be spelled out" in capsys.readouterr().err

    def test_config_value_taken_literally(self, tmp_path, train_csv):
        # A "%" in a value is part of it, as on the command line: the file
        # does no %-interpolation.
        data = tmp_path / "100%.csv"
        data.write_bytes(train_csv.read_bytes())
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[fit]\ndata = {data}\nvariant = plo\n")
        out, ref = tmp_path / "m.json", tmp_path / "ref.json"
        assert run("fit", "--config", cfg, "--out", out) == 0
        assert run("fit", "--data", data, "--out", ref, "--variant", "plo") == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_negative_direction_count_fails(self, tmp_path, train_csv, capsys):
        rc = run("fit", "--data", train_csv, "--out", tmp_path / "m.json",
                 "--n-random", "-5")
        assert rc == 1
        assert "n_random must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--gamma", "inf", "gamma must be positive and finite, got inf"),
        ("--c", "inf", "svm_like loss requires a finite c > 0, got inf"),
        ("--seed", "-1", "seed (--seed) must be >= 0, got -1"),
        ("--q", "0", "q (--q) must be >= 1, got 0"),
        ("--k", "0", "k (--k) must be >= 1, got 0"),
    ])
    def test_value_out_of_range_named(self, tmp_path, train_csv, capsys, flag, value, message):
        out = tmp_path / "m.json"
        assert run("fit", "--data", train_csv, "--out", out, flag, value) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--variant", "plo", "--gamma", "inf"], "gamma must be positive and finite, got inf"),
        (["--loss", "robust_z", "--c", "-1"], "--c must be positive and finite, got -1.0"),
    ])
    def test_unused_value_out_of_range_named(self, tmp_path, train_csv, capsys, flags, message):
        # plo uses no gamma and robust_z no c, but a bad value is still an error.
        out = tmp_path / "m.json"
        assert run("fit", "--data", train_csv, "--out", out, *flags) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, train_csv, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[fit]\nnot_a_key = 1\n")
        rc = run("fit", "--data", train_csv, "--out", tmp_path / "m.json",
                 "--config", cfg)
        assert rc != 0
        assert "not_a_key" in capsys.readouterr().err
        cfg.write_text("[fit]\nconfig = other.ini\n")  # a file names no other file
        assert run("fit", "--data", train_csv, "--out", tmp_path / "m.json",
                   "--config", cfg) != 0
        assert "unknown config key 'config'" in capsys.readouterr().err


class TestScoreCommand:
    def test_round_trip_equals_in_process(self, tmp_path, train_csv):
        model_path = tmp_path / "m.json"
        scores_path = tmp_path / "s.csv"
        assert run("fit", "--data", train_csv, "--out", model_path,
                   "--variant", "lkplo", "--gamma", "0.5", "--q", "6",
                   "--k", "3", "--seed", "2") == 0
        assert run("score", "--model", model_path, "--data", train_csv,
                   "--out", scores_path) == 0

        ds = load_csv(train_csv)
        cfg = FitConfig(
            variant="lkplo", loss=LossSpec("svm_like", 2.0), gamma=0.5,
            q=6, k=3, direction_config=DirectionConfig(), seed=2,
        )
        expect = score(fit(ds.X, cfg), ds.X)

        lines = scores_path.read_text().strip().splitlines()
        assert lines[0] == "row_index,score"
        got = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        np.testing.assert_array_equal(got, expect)
        assert np.all(got >= 0) and np.all(np.isfinite(got))

    def test_same_bytes_at_any_cpu_count(self, tmp_path, train_csv, monkeypatch):
        # 7B + 3 rows: eight score blocks, on one thread or on three.
        model_path = tmp_path / "m.json"
        assert run("fit", "--data", train_csv, "--out", model_path,
                   "--variant", "lkplo", "--gamma", "0.5", "--q", "12",
                   "--k", "5", "--seed", "4") == 0
        m = 7 * block_rows(load_model(model_path)) + 3
        rows = np.random.default_rng(5).uniform(-4.0, 9.0, size=(m, 2))
        data_path = tmp_path / "rows.csv"
        save_csv(Dataset("rows", rows, np.zeros(m, dtype=int)), data_path)
        written = []
        for cpus in (1, 3):
            set_usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"scores{cpus}.csv"
            assert run("score", "--model", model_path, "--data", data_path,
                       "--out", out) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert written[0].count(b"\n") == m + 1

    def test_dimension_mismatch_fails(self, tmp_path, train_csv, capsys):
        model_path = tmp_path / "m.json"
        assert run("fit", "--data", train_csv, "--out", model_path,
                   "--variant", "plo") == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c,label\n1,2,3,0\n")
        rc = run("score", "--model", model_path, "--data", bad,
                 "--out", tmp_path / "s.csv")
        assert rc != 0

    def test_too_large_row_fails_by_name(self, tmp_path, train_csv, capsys):
        model_path, out = tmp_path / "m.json", tmp_path / "s.csv"
        assert run("fit", "--data", train_csv, "--out", model_path,
                   "--variant", "kplo") == 0
        huge = tmp_path / "huge.csv"
        huge.write_text("x0,x1,label\n0,0,0\n1e308,1e308,0\n")
        assert run("score", "--model", model_path, "--data", huge, "--out", out) == 1
        assert "input row 1 is too large" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, detail", [
        ("csv", "Expecting value: line 1 column 1 (char 0)"),
        ("binary", "'utf-8' codec can't decode byte 0xe8 in position 0"),
        ("truncated", "line "),
    ], ids=["csv", "binary", "truncated"])
    def test_model_file_not_utf8_json_named(self, tmp_path, train_csv, capsys, bad, detail):
        model_path, out = tmp_path / "m.json", tmp_path / "s.csv"
        assert run("fit", "--data", train_csv, "--out", model_path,
                   "--variant", "plo") == 0
        text = model_path.read_text()
        if bad == "csv":
            model_path = train_csv
        elif bad == "binary":
            model_path.write_bytes(NOT_UTF8)
        else:
            model_path.write_text(text[:len(text) // 2])
        assert run("score", "--model", model_path, "--data", train_csv, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error: ValueError: model file {model_path} is not UTF-8 JSON: " in err
        assert detail in err
        assert not out.exists()

    def test_data_file_not_utf8_named(self, tmp_path, train_csv, capsys):
        model_path, data, out = tmp_path / "m.json", tmp_path / "rows.csv", tmp_path / "s.csv"
        assert run("fit", "--data", train_csv, "--out", model_path,
                   "--variant", "plo") == 0
        data.write_bytes(NOT_UTF8)
        assert run("score", "--model", model_path, "--data", data, "--out", out) == 1
        assert f"error: CsvFormatError: {data}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_score_process_never_loads_scipy(self, tmp_path, train_csv):
        # Only fit's eigensolver needs scipy, and only the tuned
        # protocol's fold workers need the process machinery; a cold
        # score process must not pay for importing either.
        model_path = tmp_path / "m.json"
        assert run("fit", "--data", train_csv, "--out", model_path,
                   "--variant", "lkplo", "--q", "6", "--k", "3") == 0
        child = (
            "import sys\n"
            "from lkplo.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy', 'multiprocessing', 'concurrent'))))\n"
            "sys.exit(rc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, "score", "--model", str(model_path),
             "--data", str(train_csv), "--out", str(tmp_path / "s.csv")],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_v1_model_rejected(self, tmp_path, train_csv, capsys):
        model_path = tmp_path / "m.json"
        assert run("fit", "--data", train_csv, "--out", model_path,
                   "--variant", "plo") == 0
        d = json.loads(model_path.read_text())
        d["format"] = "lkplo-model-v1"
        model_path.write_text(json.dumps(d))
        rc = run("score", "--model", model_path, "--data", train_csv,
                 "--out", tmp_path / "s.csv")
        assert rc == 1
        assert "unsupported model format 'lkplo-model-v1'" in capsys.readouterr().err

    def test_cluster_size_beyond_exact_floats_rejected(self, tmp_path, capsys):
        # Read as an int, a size of 1e300 wraps to -2**63 and scores the
        # cluster's rows below zero.
        X = np.random.default_rng(21).standard_normal((30, 2))
        cfg = FitConfig("lkplo", LossSpec("svm_like", 2.0), gamma=0.5, q=4, k=3, seed=2)
        d = model_to_dict(fit(X, cfg))
        sizes = np.frombuffer(base64.b64decode(d["clusters"]["sizes"]), "<f8").copy()
        sizes[0] = 1e300
        d["clusters"]["sizes"] = _arr(sizes)
        model_path, data_path = tmp_path / "m.json", tmp_path / "rows.csv"
        model_path.write_text(json.dumps(d))
        save_csv(Dataset("rows", X, np.zeros(len(X), dtype=int)), data_path)
        out = tmp_path / "s.csv"
        assert run("score", "--model", model_path, "--data", data_path, "--out", out) == 1
        assert "model field clusters.sizes " in capsys.readouterr().err
        assert not out.exists()


class TestInspectCommand:
    def test_lkplo_model(self, tmp_path, train_csv, capsys):
        # One key: value line per fact of the fitted LkploModel, and no
        # file written.
        model_path = tmp_path / "m.json"
        assert run("fit", "--data", train_csv, "--out", model_path, "--variant", "lkplo",
                   "--gamma", "0.5", "--q", "6", "--k", "3", "--seed", "9") == 0
        capsys.readouterr()
        assert run("inspect", model_path) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        X = load_csv(train_csv).X
        model = fit(X, FitConfig("lkplo", LossSpec("svm_like", 2.0), gamma=0.5, q=6, k=3,
                                 seed=9))
        mads = np.concatenate(model.mads)
        assert lines == {
            "format": "lkplo-model-v4", "variant": "lkplo", "loss": "svm_like",
            "c": "2.0", "d": "2", "N": str(len(X)), "gamma": "0.5",
            "q": str(model.kpca.q),
            "eigenvalues": " ".join(map(repr, model.kpca.eigenvalues.tolist())),
            "k": "3", "sizes": " ".join(map(str, model.sizes.tolist())),
            "directions": " ".join(str(len(u)) for u in model.directions),
            "mads_at_floor": f"{np.count_nonzero(mads <= MAD_FLOOR)} of {len(mads)}"}
        assert sum(map(int, lines["sizes"].split())) == len(X)
        assert sorted(os.listdir(tmp_path)) == ["m.json", "train.csv"]

    def test_plo_model_prints_no_kernel_or_margin(self, tmp_path, train_csv, capsys):
        model_path = tmp_path / "m.json"
        assert run("fit", "--data", train_csv, "--out", model_path, "--variant", "plo",
                   "--loss", "robust_z") == 0
        capsys.readouterr()
        assert run("inspect", model_path) == 0
        keys = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == ["format", "variant", "loss", "d", "k", "sizes", "directions",
                        "mads_at_floor"]

    def test_malformed_model_fails_as_score_does(self, tmp_path, train_csv, capsys):
        # inspect loads through load_model, so it fails as score does.
        assert run("inspect", train_csv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: model file {train_csv} is not UTF-8 JSON")
        assert run("score", "--model", train_csv, "--data", train_csv,
                   "--out", tmp_path / "s.csv") == 1
        assert capsys.readouterr().err == err
        assert sorted(os.listdir(tmp_path)) == ["train.csv"]


class TestBenchmarkCommand:
    def test_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "rep"
        rc = run("benchmark", "--data", "synth:three_gaussians",
                 "--method", "lkplo-svm", "--folds", "3", "--trials", "2",
                 "--seed", "0", "--out", out)
        assert rc == 0
        report = json.loads((tmp_path / "rep.json").read_text())[0]
        assert len(report["fold_aucs"]) == 3
        csv_text = (tmp_path / "rep.csv").read_text()
        assert csv_text.startswith("dataset,method,mean,std,fold_aucs")
        assert "±" in capsys.readouterr().out

    def test_single_class_csv_fails(self, tmp_path, capsys):
        bad = tmp_path / "one_class.csv"
        bad.write_text("a,label\n" + "".join(f"{i},0\n" for i in range(20)))
        rc = run("benchmark", "--data", bad, "--method", "plo",
                 "--out", tmp_path / "rep")
        assert rc != 0
        assert "StratificationError" in capsys.readouterr().err

    def test_class_short_for_tuning_split_named(self, tmp_path, capsys):
        # 4 outliers: each outer-train part of 2 folds holds 2, too few for
        # the 4 inner folds of its 75/25 tuning split.
        X = np.random.default_rng(0).standard_normal((40, 2))
        path = tmp_path / "few.csv"
        save_csv(Dataset("few", X, (np.arange(40) < 4).astype(int)), path)
        rc = run("benchmark", "--data", path, "--method", "plo", "--folds", "2",
                 "--trials", "1", "--out", tmp_path / "rep")
        assert rc == 1
        assert ("StratificationError: fold 0's 75/25 tuning split, of the outer-train "
                "rows that --folds=2 leaves: class 1 has 2 rows, fewer than its 4 folds"
                ) in capsys.readouterr().err
        assert not list(tmp_path.glob("rep*"))

    def test_class_short_for_outer_split_names_folds(self, tmp_path, capsys):
        rc = run("benchmark", "--data", "synth:moons", "--method", "plo",
                 "--folds", "30", "--trials", "1", "--out", tmp_path / "rep")
        assert rc == 1
        assert ("StratificationError: the outer --folds split: class 1 has 25 rows, "
                "fewer than its 30 folds") in capsys.readouterr().err
        assert not list(tmp_path.glob("rep*"))

    @pytest.mark.parametrize("flag, value, message", [
        ("--folds", "1", "k_folds (--folds) must be >= 2, got 1"),
        ("--trials", "0", "n_trials (--trials) must be >= 1, got 0"),
        ("--seed", "-1", "seed (--seed) must be >= 0, got -1"),
    ])
    def test_protocol_below_minimum_named(self, tmp_path, capsys, flag, value, message):
        rc = run("benchmark", "--data", "synth:moons", "--method", "plo",
                 flag, value, "--out", tmp_path / "rep")
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err and "Mean of empty slice" not in err
        assert not (tmp_path / "rep.json").exists()

    def test_comma_in_data_path_quoted(self, tmp_path):
        data_path = tmp_path / "mo,ons.csv"
        save_csv(gen_moons(0), data_path)
        assert run("benchmark", "--data", data_path, "--method", "plo",
                   "--folds", "2", "--trials", "1", "--out", tmp_path / "rep") == 0
        with open(tmp_path / "rep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [5, 5]
        assert rows[1][:2] == [str(data_path), "plo"]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["benchmark", "--data", "synth:moons", "--method", "kplo",
                "--folds", "3", "--trials", "2", "--seed", "1"]
        assert run(*args, "--out", tmp_path / "r1") == 0
        assert run(*args, "--out", tmp_path / "r2") == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


class TestAblationCommand:
    def test_negative_seed_named(self, tmp_path, capsys):
        assert run("ablation", "--seed", "-1", "--out", tmp_path / "abl") == 1
        assert "seed (--seed) must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "abl.csv").exists()

    def test_table_over_given_dataset(self, tmp_path, capsys):
        rc = run("ablation", "--data", "synth:three_gaussians",
                 "--folds", "3", "--trials", "2", "--seed", "0",
                 "--out", tmp_path / "abl")
        assert rc == 0
        rows = (tmp_path / "abl.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 variants
        table = capsys.readouterr().out
        for name in ("plo", "kplo", "lkplo-svm"):
            assert name in table


class TestGenCommand:
    def test_writes_dataset(self, tmp_path):
        out = tmp_path / "synth.csv"
        assert run("gen", "--name", "moons", "--seed", "3", "--out", out) == 0
        ds = load_csv(out)
        assert len(ds.y) == 425

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("gen", "--name", "inside_outside", "--seed", "5", "--out", a) == 0
        assert run("gen", "--name", "inside_outside", "--seed", "5", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_named(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert run("gen", "--name", "moons", "--seed", "-1", "--out", out) == 1
        assert "seed (--seed) must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["benchmark", "--data", "synth:nope"], 1, "unknown synthetic dataset 'nope'"),
    # The file has no [fit] section, so its data key does not reach fit.
    (["fit", "--config", "{cfg}"], 2, "the following arguments are required: --data"),
    (["fit", "--data", "x.csv", "--bogus", "1"], 2, "unrecognized arguments: --bogus 1"),
])
def test_bad_command_line_named(tmp_path, capsys, argv, code, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[score]\ndata = x.csv\n")
    argv = [a.format(cfg=cfg) for a in argv] + ["--out", tmp_path / "out"]
    try:
        rc = run(*argv)
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    assert rc == code
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


MISUSE_VALUES = ("0", "-1", "nan", "inf")
# (command, flags set before the tested one, tested flag, the outcome at
# each of MISUSE_VALUES): 1 is exit 1 naming the flag or its field, 2 is
# argparse's exit 2 on a value that is no int, and 0 is exit 0 with finite
# scores that are not all equal. Huge values are left out: a huge
# --n-random, --resolution or --trials allocates or runs for a long time,
# a huge --gamma (K = I) fails by name (test_fit_with_flat_kernel_fails_by_name),
# and a huge --c (every margin loss 0) exits 0 with constant scores, an
# open defect that ROADMAP.md lists.
MISUSE_TABLE = [
    ("fit", [], "--gamma", "1111"),
    ("fit", ["--variant", "plo"], "--gamma", "1111"),
    ("fit", [], "--q", "1122"),
    ("fit", [], "--k", "1122"),
    ("fit", [], "--c", "1111"),
    ("fit", ["--loss", "robust_z"], "--c", "1111"),
    ("fit", [], "--n-random", "0122"),
    ("fit", [], "--n-one-point", "0122"),
    ("fit", [], "--n-two-points", "0122"),
    ("fit", [], "--seed", "0122"),
    ("benchmark", [], "--folds", "1122"),
    ("benchmark", [], "--trials", "1122"),
    ("benchmark", [], "--seed", "0122"),
    ("ablation", [], "--folds", "1122"),
    ("ablation", [], "--trials", "1122"),
    ("ablation", [], "--seed", "0122"),
    ("gen", [], "--seed", "0122"),
    ("boundary-grid", [], "--resolution", "1122"),
]


@pytest.fixture(scope="module")
def misuse_inputs(tmp_path_factory):
    """A 2-D training CSV and a plo model fitted on it."""
    root = tmp_path_factory.mktemp("misuse")
    train, model = root / "train.csv", root / "model.json"
    save_csv(gen_three_gaussians(0), train)
    assert run("fit", "--data", train, "--variant", "plo", "--out", model) == 0
    return train, model


def misuse_scores(command, out, train):
    """What an exit-0 run wrote in out, as the numbers to check: the
    model's training-row scores, the fold AUCs or the dataset's values."""
    if command == "fit":
        return score(load_model(out / "m.json"), load_csv(train).X)
    if command == "gen":
        return load_csv(out / "g.csv").X.ravel()
    reports = json.loads((out / "rep.json").read_text())
    return np.array([a for r in reports for a in r["fold_aucs"]])


@pytest.mark.parametrize("command, before, flag, value, code", [
    pytest.param(command, before, flag, value, int(codes[i]),
                 id=" ".join([command, *before, flag, value]))
    for command, before, flag, codes in MISUSE_TABLE
    for i, value in enumerate(MISUSE_VALUES)
])
def test_misuse_table(tmp_path, capsys, misuse_inputs, command, before, flag, value, code):
    train, model = misuse_inputs
    protocol = ["--folds", "2", "--trials", "1", "--out", tmp_path / "rep"]
    argv = {
        "fit": ["--data", train, "--out", tmp_path / "m.json"],
        "benchmark": ["--data", "synth:moons", "--method", "plo", *protocol],
        "ablation": ["--data", "synth:moons", *protocol],
        "gen": ["--name", "moons", "--out", tmp_path / "g.csv"],
        "boundary-grid": ["--model", model, "--out", tmp_path / "grid.csv"],
    }[command]
    try:
        rc = run(command, *argv, *before, flag, value)
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    assert rc == code
    if code == 0:
        scores = misuse_scores(command, tmp_path, train)
        assert np.isfinite(scores).all() and np.ptp(scores) > 0
    else:
        field = flag[2:].replace("-", "_")
        assert re.search(rf"{flag}\b|\b{field}\b", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("variant", ["kplo", "lkplo"])
def test_fit_with_flat_kernel_fails_by_name(tmp_path, capsys, misuse_inputs, variant):
    # At gamma = 1e300 no two training rows are within the kernel's reach,
    # so K = I and the kept components are not determined.
    train, _ = misuse_inputs
    out = tmp_path / "m.json"
    assert run("fit", "--data", train, "--variant", variant, "--gamma", "1e300",
               "--out", out) == 1
    err = capsys.readouterr().err
    assert "DegenerateKernelError" in err and "gamma=1e+300" in err
    assert list(tmp_path.iterdir()) == []


class TestBoundaryGridCommand:
    def fit_2d_model(self, tmp_path, train_csv, **flags):
        model_path = tmp_path / "m.json"
        args = ["fit", "--data", train_csv, "--out", model_path,
                "--variant", "plo", "--seed", "0"]
        for k, v in flags.items():
            args += [f"--{k}", str(v)]
        assert run(*args) == 0
        return model_path

    def test_lattice_rows(self, tmp_path, train_csv):
        model_path = self.fit_2d_model(tmp_path, train_csv)
        out = tmp_path / "grid.csv"
        rc = run("boundary-grid", "--model", model_path, "--bounds", "0,1,0,1",
                 "--resolution", "3", "--out", out)
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,score"
        assert len(lines) == 10
        xy = [tuple(map(float, ln.split(",")[:2])) for ln in lines[1:]]
        # Row-major: x slowest, y fastest.
        assert xy[0] == (0.0, 0.0)
        assert xy[1] == (0.0, 0.5)
        assert xy[3] == (0.5, 0.0)
        scores = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert all(np.isfinite(s) and s >= 0 for s in scores)

    def test_deep_inlier_zero_with_svm(self, tmp_path, train_csv):
        model_path = self.fit_2d_model(
            tmp_path, train_csv, loss="svm_like", c=5.0
        )
        model = load_model(model_path)
        # Grid point at the cluster centroid: every |u.f'| = 0 <= c * MAD.
        cx, cy = model.centroids[0]
        out = tmp_path / "grid.csv"
        rc = run("boundary-grid", "--model", model_path,
                 "--bounds", f"{cx},{cx + 1},{cy},{cy + 1}",
                 "--resolution", "2", "--out", out)
        assert rc == 0
        first = float(out.read_text().strip().splitlines()[1].split(",")[2])
        assert first == 0.0

    def test_non_2d_model_fails(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        from lkplo.data import Dataset
        ds = Dataset("d3", rng.standard_normal((20, 3)),
                     np.array([0] * 18 + [1] * 2))
        csv3 = tmp_path / "d3.csv"
        save_csv(ds, csv3)
        model_path = tmp_path / "m.json"
        assert run("fit", "--data", csv3, "--out", model_path,
                   "--variant", "plo") == 0
        rc = run("boundary-grid", "--model", model_path, "--out",
                 tmp_path / "g.csv")
        assert rc != 0
        assert "2-D" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [
        "1,2,3",        # three numbers
        "5,-5,0,1",     # xmin > xmax: a descending grid
        "0,1,1,1",      # ymin = ymax
        "0,1,0,inf",
        "0,1,zero,1",
    ])
    def test_bad_bounds_named(self, tmp_path, train_csv, capsys, bounds):
        model_path = self.fit_2d_model(tmp_path, train_csv)
        out = tmp_path / "grid.csv"
        rc = run("boundary-grid", "--model", model_path, f"--bounds={bounds}",
                 "--out", out)
        assert rc == 1
        assert "--bounds must be four finite numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_resolution_below_one_named(self, tmp_path, train_csv, capsys):
        model_path = self.fit_2d_model(tmp_path, train_csv)
        out = tmp_path / "grid.csv"
        rc = run("boundary-grid", "--model", model_path, "--resolution", "0",
                 "--out", out)
        assert rc == 1
        assert "--resolution must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_same_bytes_as_a_per_row_lattice(self, tmp_path, train_csv):
        model_path = self.fit_2d_model(tmp_path, train_csv)
        out = tmp_path / "grid.csv"
        assert run("boundary-grid", "--model", model_path, "--bounds=-3,2,-1,4",
                   "--resolution", "7", "--out", out) == 0
        xs, ys = np.linspace(-3, 2, 7), np.linspace(-1, 4, 7)
        grid = np.array([[x, y] for x in xs for y in ys])
        want = "x,y,score\n" + "".join(
            f"{float(x)!r},{float(y)!r},{float(s)!r}\n"
            for (x, y), s in zip(grid, score(load_model(model_path), grid)))
        assert out.read_bytes() == want.encode()

    def test_byte_identical_reruns(self, tmp_path, train_csv):
        model_path = self.fit_2d_model(tmp_path, train_csv)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["boundary-grid", "--model", model_path,
                "--bounds=-2,2,-2,2", "--resolution", "5"]
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()


def test_no_written_csv_holds_a_carriage_return(tmp_path):
    train, model = tmp_path / "train.csv", tmp_path / "model.json"
    commands = [
        ["gen", "--name", "three_gaussians", "--seed", "0", "--out", train],
        ["fit", "--data", train, "--variant", "plo", "--out", model],
        ["score", "--model", model, "--data", train, "--out", tmp_path / "scores.csv"],
        ["boundary-grid", "--model", model, "--resolution", "5",
         "--out", tmp_path / "grid.csv"],
        ["benchmark", "--data", train, "--method", "plo", "--folds", "2",
         "--trials", "1", "--out", tmp_path / "report"],
        ["ablation", "--data", train, "--folds", "2", "--trials", "1",
         "--out", tmp_path / "ablation"],
    ]
    for argv in commands:
        assert run(*argv) == 0, argv
    written = sorted(tmp_path.glob("*.csv"))
    assert [p.name for p in written] == ["ablation.csv", "grid.csv", "report.csv",
                                         "scores.csv", "train.csv"]
    for path in written:
        assert b"\r" not in path.read_bytes(), path.name


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Runs each command (a JSON list of argv lists) in order; exits 1 on the
# first that fails.
CHILD_COMMANDS = (
    "import json, sys\n"
    "from lkplo.cli import main\n"
    "sys.exit(any(main(argv) != 0 for argv in json.loads(sys.argv[1])))\n"
)


def run_with_blas_threads(out_dir, threads):
    """gen, fit, score and benchmark in one child process whose BLAS runs
    the given number of threads."""
    out_dir.mkdir()
    train, model = out_dir / "train.csv", out_dir / "model.json"
    commands = [
        ["gen", "--name", "three_gaussians", "--seed", "7", "--out", train],
        ["fit", "--data", train, "--variant", "lkplo", "--gamma", "0.5",
         "--q", "20", "--k", "5", "--out", model],
        ["score", "--model", model, "--data", train, "--out", out_dir / "scores.csv"],
        ["benchmark", "--data", "synth:moons", "--method", "lkplo-svm",
         "--folds", "3", "--trials", "2", "--seed", "2", "--out", out_dir / "report"],
    ]
    argv = json.dumps([[str(a) for a in cmd] for cmd in commands])
    env = child_env(**{var: str(threads) for var in BLAS_THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", CHILD_COMMANDS, argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_outputs_byte_identical_at_a_fixed_blas_thread_count(tmp_path):
    # The eigensolver's and matrix products' rounding depends on how BLAS
    # splits the work, so byte-identity holds per thread count; across
    # thread counts scores agree to rounding.
    outputs = ("model.json", "scores.csv", "report.json", "report.csv")
    for threads in (1, 2):
        first, second = tmp_path / f"{threads}a", tmp_path / f"{threads}b"
        run_with_blas_threads(first, threads)
        run_with_blas_threads(second, threads)
        for name in outputs:
            same = (first / name).read_bytes() == (second / name).read_bytes()
            assert same, (threads, name)
    one, two = (np.loadtxt(tmp_path / f"{t}a" / "scores.csv", delimiter=",", skiprows=1)
                for t in (1, 2))
    np.testing.assert_array_equal(one[:, 0], two[:, 0])
    np.testing.assert_allclose(two[:, 1], one[:, 1], rtol=1e-9, atol=0)
