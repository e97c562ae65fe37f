import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsemax import LOSS_BINARY_LOGISTIC, LabeledDataset, SyntheticConfig, generate_synthetic, write_libsvm_multilabel
from sparsemax.cli import _LABELPROP_KEYS, default_rule_grid, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestDefaultRuleGrids:
    def test_logistic_thresholds(self):
        assert default_rule_grid("logistic", 6) == [0.05 * n for n in range(1, 11)]

    def test_softmax_thresholds_stay_at_most_one(self):
        grid = default_rule_grid("softmax", 6)
        assert grid == [n / 6 for n in range(1, 7)]
        assert default_rule_grid("softmax", 20) == [n / 20 for n in range(1, 11)]

    def test_sparsemax_scales_start_at_one(self):
        grid = default_rule_grid("sparsemax", 6)
        assert grid[0] == 1.0 and len(grid) == 9
        assert min(grid) >= 1.0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            default_rule_grid("argmax", 6)


class TestTransform:
    def test_json_rows(self, capsys, monkeypatch):
        code, out, err = run_cli(
            ["transform"], capsys, monkeypatch, stdin_text="0.5 0\n\n0 0 0\n"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["row"] == 0
        assert first["sparsemax"] == [0.75, 0.25]
        assert first["tau"] == -0.25
        assert first["support"] == [0, 1]
        assert first["softmax"] == pytest.approx(
            [np.exp(0.5) / (np.exp(0.5) + 1), 1 / (np.exp(0.5) + 1)], abs=1e-15
        )
        second = json.loads(lines[1])
        assert second["row"] == 1
        assert second["sparsemax"] == [1 / 3, 1 / 3, 1 / 3]
        assert second["support"] == [0, 1, 2]

    def test_csv_rows(self, capsys, monkeypatch):
        code, out, err = run_cli(
            ["transform", "--format", "csv"], capsys, monkeypatch, stdin_text="0.5 0\n"
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "row,tau,support,softmax,sparsemax"
        cols = row.split(",")
        assert cols[0] == "0"
        assert cols[1] == "-0.25"
        assert cols[2] == "0 1"
        assert cols[4] == "0.75 0.25"

    def test_reads_input_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("2 0 0\n")
        code, out, _ = run_cli(["transform", "--input", str(scores)], capsys)
        assert code == 0
        assert json.loads(out)["sparsemax"] == [1.0, 0.0, 0.0]

    def test_empty_input(self, capsys, monkeypatch):
        code, out, err = run_cli(["transform"], capsys, monkeypatch, stdin_text="")
        assert code == 0 and out == ""
        code, out, err = run_cli(
            ["transform", "--format", "csv"], capsys, monkeypatch, stdin_text="\n\n"
        )
        assert code == 0 and out == ""

    def test_bad_row_reports_line_number(self, capsys, monkeypatch):
        # A row of non-finite scores is rejected as it is read, like one that
        # does not parse, so no row before it is printed.
        for bad in ("spam eggs", "inf 0", "0 nan"):
            code, out, err = run_cli(
                ["transform"], capsys, monkeypatch, stdin_text=f"1 2\n{bad}\n"
            )
            assert code == 2
            assert "line 2" in err and "Traceback" not in err
            assert out == ""


@pytest.fixture
def labelprop_config(tmp_path):
    def write(**overrides):
        config = {
            "n_labels": 4,
            "n_train": 40,
            "n_test": 30,
            "doc_lengths": [60],
            "mixtures": ["uniform"],
            "losses": ["logistic", "sparsemax"],
            "folds": 2,
            "lambdas": [0.01],
            "max_epochs": 40,
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    return write


class TestLabelprop:
    def test_result_file_schema(self, tmp_path, capsys, labelprop_config):
        config = labelprop_config(lambdas=[0.001, 0.1], seed=3)
        out_path = tmp_path / "result.json"
        code, _, _ = run_cli(
            ["labelprop", "--config", str(config), "--out", str(out_path)], capsys
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"config_echo", "per_cell_results", "wall_time_seconds"}
        assert payload["wall_time_seconds"] is None
        assert payload["config_echo"]["seed"] == 3
        cells = payload["per_cell_results"]
        assert [c["loss"] for c in cells] == ["logistic", "sparsemax"]
        for cell in cells:
            assert cell["mixture"] == "uniform" and cell["doc_length"] == 60
            assert cell["lambda"] in (0.001, 0.1)
            assert cell["mse"] >= 0.0
            assert 0.0 <= cell["js_divergence"] <= np.log(2.0)
            assert cell["n_train"] == 40 and cell["n_test"] == 30

    def test_reruns_are_byte_identical(self, tmp_path, capsys, labelprop_config):
        config = labelprop_config(seed=4)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli(["labelprop", "--config", str(config), "--out", str(out_a)], capsys)[0] == 0
        assert run_cli(["labelprop", "--config", str(config), "--out", str(out_b)], capsys)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_comes_from_the_config_alone(self, tmp_path, capsys, labelprop_config):
        # A config without a seed runs with 0, byte for byte as one that says
        # so; no flag can set it.
        runs = {}
        for name, overrides in (("default", {}), ("zero", {"seed": 0})):
            runs[name] = tmp_path / f"{name}.json"
            config = labelprop_config(**overrides)
            code, _, _ = run_cli(["labelprop", "--config", str(config), "--out", str(runs[name])], capsys)
            assert code == 0
        assert json.loads(runs["default"].read_text())["config_echo"]["seed"] == 0
        assert runs["default"].read_bytes() == runs["zero"].read_bytes()
        with pytest.raises(SystemExit) as exit_info:
            main(["labelprop", "--config", str(labelprop_config()), "--out", str(tmp_path / "r.json"), "--seed", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys, labelprop_config):
        config = labelprop_config(bogus=1)
        code, _, err = run_cli(
            ["labelprop", "--config", str(config), "--out", str(tmp_path / "r.json")], capsys
        )
        assert code == 2
        assert "unknown config keys" in err

    def test_singular_mixture_key_rejected(self, tmp_path, capsys, labelprop_config):
        # The sweep takes its mixtures from "mixtures" only; "mixture" is not an alias.
        config = labelprop_config(mixture="uniform")
        code, _, err = run_cli(
            ["labelprop", "--config", str(config), "--out", str(tmp_path / "r.json")], capsys
        )
        assert code == 2
        assert "unknown config keys: ['mixture']" in err

    def test_missing_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_labels": 4, "n_train": 10, "n_test": 10}))
        code, _, err = run_cli(
            ["labelprop", "--config", str(path), "--out", str(tmp_path / "r.json")], capsys
        )
        assert code == 2
        assert "doc_lengths" in err

    def test_non_finite_lambda_rejected(self, tmp_path, capsys, labelprop_config):
        config = labelprop_config(lambdas=[float("nan")])
        code, _, err = run_cli(["labelprop", "--config", str(config), "--out", str(tmp_path / "r.json")], capsys)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_epochs", float("inf")),
            ("n_labels", float("inf")),
            ("doc_lengths", [float("inf")]),
            ("doc_lengths", 50),
            ("n_labels", True),
            ("doc_lengths", [50.5]),
            ("folds", 2.9),
            ("seed", 1.7),
            ("mean_labels", 10**400),
        ],
        ids=["max_epochs-inf", "n_labels-inf", "doc_length-inf", "doc_lengths-not-a-list", "n_labels-true",
             "doc_length-fraction", "folds-fraction", "seed-fraction", "mean_labels-overflow"],
    )
    def test_malformed_value_is_an_error(self, tmp_path, capsys, labelprop_config, key, value):
        # Each used to end in a traceback or be truncated silently: int(inf)
        # and float(10**400) raised OverflowError, int(True) read 1, and 50.5
        # documents ran as 50.
        config = labelprop_config(**{key: value})
        out_path = tmp_path / "r.json"
        code, _, err = run_cli(["labelprop", "--config", str(config), "--out", str(out_path)], capsys)
        assert code == 2
        assert err.startswith(f"error: {key} ") and "Traceback" not in err
        assert not out_path.exists()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(
            ["labelprop", "--config", str(path), "--out", str(tmp_path / "r.json")], capsys
        )
        assert code == 2


@pytest.fixture(scope="module")
def libsvm_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("multilabel")
    cfg = SyntheticConfig(
        n_labels=4, n_train=60, n_test=40, mean_doc_length=80.0, mixture="uniform", seed=5
    )
    train, test = generate_synthetic(cfg)
    train_path = root / "train.svm"
    test_path = root / "test.svm"
    write_libsvm_multilabel(train, train_path)
    write_libsvm_multilabel(test, test_path)
    return str(train_path), str(test_path)


class TestMultilabel:
    def base_argv(self, libsvm_pair, out_path, method="sparsemax"):
        train_path, test_path = libsvm_pair
        return [
            "multilabel",
            "--train", train_path,
            "--test", test_path,
            "--method", method,
            "--out", str(out_path),
            "--folds", "2",
            "--max-epochs", "60",
        ]

    @pytest.mark.parametrize("method", ["logistic", "softmax", "sparsemax"])
    def test_each_method_completes(self, tmp_path, capsys, libsvm_pair, method):
        out_path = tmp_path / "result.json"
        argv = self.base_argv(libsvm_pair, out_path, method)
        argv += ["--lambdas", "0.01", "--rule-params", "1.0" if method == "sparsemax" else "0.3"]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        cell = payload["per_cell_results"][0]
        assert cell["method"] == method
        assert 0.0 <= cell["micro_f1"] <= 1.0
        assert 0.0 <= cell["macro_f1"] <= 1.0
        assert payload["config_echo"]["standardize"] is True
        assert payload["config_echo"]["seed"] == 0

    def test_grid_search_and_byte_identical_reruns(self, tmp_path, capsys, libsvm_pair):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        argv = self.base_argv(libsvm_pair, out_a) + [
            "--lambdas", "0.001,0.1",
            "--rule-params", "1.0,2.0",
            "--seed", "1",
        ]
        assert run_cli(argv, capsys)[0] == 0
        argv[argv.index(str(out_a))] = str(out_b)
        assert run_cli(argv, capsys)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert payload["config_echo"]["lambdas"] == [0.001, 0.1]
        assert payload["per_cell_results"][0]["lambda"] in (0.001, 0.1)
        assert payload["per_cell_results"][0]["rule_param"] in (1.0, 2.0)

    def test_no_standardize_flag(self, tmp_path, capsys, libsvm_pair):
        out_path = tmp_path / "result.json"
        argv = self.base_argv(libsvm_pair, out_path) + [
            "--lambdas", "0.01",
            "--rule-params", "1.0",
            "--no-standardize",
        ]
        assert run_cli(argv, capsys)[0] == 0
        assert json.loads(out_path.read_text())["config_echo"]["standardize"] is False

    def test_no_standardize_fits_duplicated_count_columns(self, tmp_path, capsys):
        # Equal raw columns of counts times 1e4 at lam = 0 leave the Hessian's
        # blocks singular but for the preconditioner's ridge, which must scale
        # with the features.
        rng = np.random.default_rng(0)
        paths = []
        for name, n in (("train", 40), ("test", 20)):
            column = rng.poisson(5.0, size=n) * 1e4
            Q = (rng.random((n, 3)) < 0.5).astype(float)
            Q[np.arange(n), rng.integers(0, 3, size=n)] = 1.0
            paths.append(tmp_path / f"{name}.svm")
            write_libsvm_multilabel(LabeledDataset(X=np.column_stack([column, column]), Q=Q / Q.sum(axis=1, keepdims=True)), paths[-1])
        argv = ["multilabel", "--train", str(paths[0]), "--test", str(paths[1]), "--method", "logistic",
                "--no-standardize", "--lambdas", "0", "--out", str(tmp_path / "result.json")]
        assert run_cli(argv, capsys)[0] == 0

    def test_missing_train_file(self, tmp_path, capsys, libsvm_pair):
        _, test_path = libsvm_pair
        argv = [
            "multilabel",
            "--train", str(tmp_path / "nope.svm"),
            "--test", test_path,
            "--method", "sparsemax",
            "--out", str(tmp_path / "r.json"),
        ]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "error:" in err

    def test_bad_training_setting_fails_before_reading_data(self, tmp_path, capsys, libsvm_pair):
        _, test_path = libsvm_pair
        argv = [
            "multilabel",
            "--train", str(tmp_path / "nope.svm"),
            "--test", test_path,
            "--method", "sparsemax",
            "--out", str(tmp_path / "r.json"),
            "--max-epochs", "0",
        ]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "max_epochs" in err

    @pytest.mark.parametrize(
        "extra",
        (["--lambdas", "nan"], ["--lambdas", "inf"], ["--lambdas", "0.01", "--rule-params", "inf"]),
        ids=("lambda-nan", "lambda-inf", "scale-inf"),
    )
    def test_non_finite_setting_is_an_error(self, tmp_path, capsys, libsvm_pair, extra):
        argv = self.base_argv(libsvm_pair, tmp_path / "result.json") + extra
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "finite" in err

    def test_test_split_with_unseen_label_and_feature_is_padded(self, tmp_path, capsys):
        # Label 3 and feature 3 occur only in the test split, so both splits
        # are padded to 3 labels and 3 features.  Rows 1 and 2 get their one
        # label, row 3 gets none: per-label F1 is [1, 1, 0].
        train_path = tmp_path / "train.svm"
        test_path = tmp_path / "test.svm"
        train_path.write_text("1 1:1\n1 1:1\n1 1:1\n2 2:1\n2 2:1\n2 2:1\n")
        test_path.write_text("1 1:1\n2 2:1\n3 3:1\n")
        out_path = tmp_path / "result.json"
        argv = [
            "multilabel",
            "--train", str(train_path),
            "--test", str(test_path),
            "--method", "logistic",
            "--out", str(out_path),
            "--lambdas", "0.0001",
            "--rule-params", "0.7",
        ]
        assert run_cli(argv, capsys)[0] == 0
        cell = json.loads(out_path.read_text())["per_cell_results"][0]
        assert cell["n_train"] == 6 and cell["n_test"] == 3
        assert cell["macro_f1"] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert cell["micro_f1"] == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("method", ["softmax", "sparsemax"])
    def test_every_fit_converges_on_the_acceptance_08_data(self, acceptance_08_runs, method):
        # The largest lam (100) puts the gradient-norm target below the
        # rounding of J.  When fit stopped on the gradient norm, softmax logged
        # 5 warnings (4 fits at the cap, one on a failed line search) and
        # sparsemax 1.
        code, _, messages, _ = acceptance_08_runs[method]
        assert code == 0
        assert messages == []

    def test_acceptance_08_results_are_pinned(self, acceptance_08_runs):
        # The chosen lam and rule parameter are grid values and the F1 scores
        # ratios of label counts, so a refactor that keeps the results keeps
        # them exactly; a change that moves them updates this pin.  The
        # logistic method's binary loss still stops 20 cross-validation fits
        # at lam <= 1e-5 at the cap (ROADMAP item 2); a change that mends them
        # updates that count.
        expected = {
            "logistic": (0.001, 0.45, 0.9787234042553191, 0.9785753682682432),
            "softmax": (0.01, 1 / 6, 0.9330199764982373, 0.9322353966348048),
            "sparsemax": (0.001, 2.0, 0.9944258639910813, 0.9944364894696021),
        }
        for method, pinned in expected.items():
            code, cell, _, _ = acceptance_08_runs[method]
            assert code == 0
            assert (cell["lambda"], cell["rule_param"], cell["micro_f1"], cell["macro_f1"]) == pinned
        stops = [
            re.match(r"fit \((.+) loss, lam (\S+)\) stopped unconverged after \d+ iterations: ([^;]+);", message)
            for message in acceptance_08_runs["logistic"][2]
        ]
        assert len(stops) == 20 and all(
            stop[1] == LOSS_BINARY_LOGISTIC and float(stop[2]) <= 1e-5 and stop[3] == "reached max_epochs"
            for stop in stops
        )

def test_training_settings_are_fixed(tmp_path, capsys, labelprop_config, libsvm_pair):
    # Every fit takes TrainConfig's first trial step (1.0) and the tolerance
    # 1e-7, and echoes both; neither command lets a run set them.
    train_path, test_path = libsvm_pair
    multilabel = ["multilabel", "--train", train_path, "--test", test_path, "--method", "sparsemax",
                  "--folds", "2", "--max-epochs", "60", "--lambdas", "0.01", "--rule-params", "1.0"]
    runs = {
        "labelprop": ["labelprop", "--config", str(labelprop_config()), "--out", str(tmp_path / "lp.json")],
        "multilabel": multilabel + ["--out", str(tmp_path / "ml.json")],
    }
    for name, argv in runs.items():
        assert run_cli(argv, capsys)[0] == 0
        echo = json.loads(Path(argv[-1]).read_text())["config_echo"]
        assert (echo["learning_rate"], echo["convergence_tol"]) == (1.0, 1e-07), name
    for key in ("learning_rate", "convergence_tol"):
        config = labelprop_config(**{key: 1.0})
        code, _, err = run_cli(["labelprop", "--config", str(config), "--out", str(tmp_path / "r.json")], capsys)
        assert code == 2 and f"unknown config keys: ['{key}']" in err
    for flag in ("--tol", "--learning-rate"):
        with pytest.raises(SystemExit) as exit_info:
            main(runs["multilabel"] + [flag, "1.0"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_readme_command_line_lists_every_setting(capsys):
    # The "Command line" section of README.md names each labelprop config key
    # and each multilabel flag, and none that the program no longer takes.
    text = README.read_text()
    section = text[text.index("## Command line"):]
    section = section[: section.index("\n## ", 1)]
    keys = set(re.findall(r"`([a-z_]+)`", section))
    flags = set(re.findall(r"--[a-z-]+", section))
    with pytest.raises(SystemExit):
        main(["multilabel", "--help"])
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"} <= flags
    assert set(_LABELPROP_KEYS) <= keys
    assert {"learning_rate", "convergence_tol"}.isdisjoint(keys)
    assert {"--tol", "--learning-rate"}.isdisjoint(flags)


def test_readme_library_example_shows_what_it_returns():
    # Each commented line of README.md's "Library example" shows the repr of
    # its expression's value.
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = section[section.index("```python\n") + len("```python\n"):section.index("\n```\n")]
    namespace = {}
    shown = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            assert repr(eval(code, namespace)) == comment.strip(), code
            shown += 1
        else:
            exec(line, namespace)
    assert shown >= 3
