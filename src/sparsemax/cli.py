"""Command-line harness.

Three subcommands:

transform   read whitespace-separated score rows, print softmax,
            sparsemax, support and threshold per row as JSON lines or CSV
labelprop   sweep the synthetic label-proportion benchmark over document
            lengths and losses, writing one JSON result file
multilabel  train and evaluate one method on LIBSVM multi-label files

Result files are schema-stable JSON objects with keys config_echo,
per_cell_results and wall_time_seconds, written with sorted keys so that
reruns with the same seed are byte-identical.  The measured wall time is
logged to stderr instead of being embedded, precisely to keep that
byte-level determinism; the field stays in the schema as null.  Each
command takes its seed from one place: labelprop from its config's seed,
multilabel from --seed; 0 by default.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import sys
import time
from dataclasses import replace

import numpy as np

from .datasets import (
    LabeledDataset,
    SyntheticConfig,
    generate_synthetic,
    read_libsvm_multilabel,
    standardize_features,
)
from .linear_model import DecisionRule, TrainConfig, cross_validate, decide_rows, fit, predict_scores
from .linear_model import RULE_LOGISTIC_THRESHOLD, RULE_SOFTMAX_THRESHOLD, RULE_SPARSEMAX_SCALE
from .losses import LOSS_BINARY_LOGISTIC, LOSS_LOGISTIC, LOSS_SPARSEMAX
from .metrics import js_divergence_rows, micro_macro_f1_rows, mse_rows
from .simplex import check_scores, softmax, softmax_rows, sparsemax, sparsemax_rows, threshold_and_support

logger = logging.getLogger(__name__)

LAMBDA_GRID_LABELPROP = [10.0**j for j in range(-9, 1)]
LAMBDA_GRID_MULTILABEL = [10.0**j for j in range(-8, 3)]

# method name -> (training loss, decision rule kind)
METHODS = {
    "logistic": (LOSS_BINARY_LOGISTIC, RULE_LOGISTIC_THRESHOLD),
    "softmax": (LOSS_LOGISTIC, RULE_SOFTMAX_THRESHOLD),
    "sparsemax": (LOSS_SPARSEMAX, RULE_SPARSEMAX_SCALE),
}

_REQUIRED = object()
# labelprop config key -> (kind, default).  A kind in brackets is a non-empty
# list of that kind.
_LABELPROP_KEYS = {
    "n_labels": (int, _REQUIRED),
    "n_train": (int, _REQUIRED),
    "n_test": (int, _REQUIRED),
    "doc_lengths": ([int], _REQUIRED),
    "mean_labels": (float, SyntheticConfig.mean_labels),
    "mixtures": ([str], [SyntheticConfig.mixture]),
    "losses": ([str], [LOSS_LOGISTIC, LOSS_SPARSEMAX]),
    "folds": (int, 5),
    "seed": (int, 0),
    "lambdas": ([float], LAMBDA_GRID_LABELPROP),
    "max_epochs": (int, 200),
}
_KIND_NAMES = {int: "integers", float: "finite numbers", str: "strings"}


def _checked(key: str, kind, value):
    """value as kind (see _LABELPROP_KEYS); ValueError unless it is one.  A bool is no number, a number
    must be finite as a float, and an integer integral."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ValueError(f"{key} must be a non-empty list, got {value!r}")
        return [_checked(key, kind[0], item) for item in value]
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max and (kind is float or value == int(value))
    if not ok:
        raise ValueError(f"{key} takes {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


def _labelprop_settings(config) -> dict:
    """config's labelprop settings, each checked against _LABELPROP_KEYS, with the defaults of those left out."""
    if not isinstance(config, dict):
        raise ValueError("labelprop config must be a JSON object")
    unknown = sorted(set(config) - set(_LABELPROP_KEYS))
    missing = [key for key, (_, default) in _LABELPROP_KEYS.items() if default is _REQUIRED and key not in config]
    if unknown or missing:
        raise ValueError(f"unknown config keys: {unknown}" if unknown else f"missing config keys: {missing}")
    return {
        key: _checked(key, kind, config[key]) if key in config else copy.copy(default)
        for key, (kind, default) in _LABELPROP_KEYS.items()
    }


def _floats_arg(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _write_result(path, config_echo: dict, cells: list[dict]) -> None:
    payload = {"config_echo": config_echo, "per_cell_results": cells, "wall_time_seconds": None}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _training_echo(train_cfg: TrainConfig) -> dict:
    return {key: getattr(train_cfg, key) for key in ("max_epochs", "learning_rate", "convergence_tol")}


def _select_and_fit(train, grid, folds: int, seed: int, train_cfg: TrainConfig, loss_kind: str, score):
    """Cross-validate the grid on train and fit all of train at the chosen lam: (model, lam, rule parameter).

    score(val_split, val_scores, rule_param) rates a fold model, higher being better.  Candidates come in
    ascending lam, so each fold keeps its last (lam, model, validation scores): its warm start for the next
    lam, and the scores for every rule parameter of this one."""
    last = {}

    def evaluate(fold_i, tr, va, lam, param):
        if fold_i not in last or last[fold_i][0] != lam:
            init = (last[fold_i][1].W, last[fold_i][1].b) if fold_i in last else None
            model = fit(tr, replace(train_cfg, lam=lam), loss_kind, init=init)
            last[fold_i] = (lam, model, predict_scores(model, va.X))
        return score(va, last[fold_i][2], param)

    best_lam, best_param = cross_validate(train, grid, folds, evaluate, seed=seed)
    return fit(train, replace(train_cfg, lam=best_lam), loss_kind), best_lam, best_param


def default_rule_grid(method: str, n_labels: int) -> list[float]:
    """Decision-rule parameter grid for a method, restricted to valid values.

    Grid points outside the rule's domain (softmax thresholds above 1 for
    small label counts, sparsemax scales below 1) are dropped.
    """
    if method == "logistic":
        return [0.05 * n for n in range(1, 11)]
    if method == "softmax":
        return [n / n_labels for n in range(1, 11) if n <= n_labels]
    if method == "sparsemax":
        return [0.5 * n for n in range(2, 11)]
    raise ValueError(f"unknown method {method!r}")


def cmd_transform(args) -> int:
    if args.input is None:
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(check_scores([float(tok) for tok in line.split()]))
        except ValueError as exc:
            print(f"line {lineno}: bad score row {line!r}: {exc}", file=sys.stderr)
            return 2
    for i, z in enumerate(rows):
        support = threshold_and_support(z)
        record = {
            "row": i,
            "tau": support.tau,
            "support": support.indices.tolist(),
            "softmax": softmax(z).tolist(),
            "sparsemax": sparsemax(z).tolist(),
        }
        if args.format == "json":
            print(json.dumps(record, sort_keys=True))
            continue
        if i == 0:
            print(",".join(record))
        print(",".join(" ".join(map(repr, v)) if isinstance(v, list) else repr(v) for v in record.values()))
    return 0


def _cell_seed(seed: int, mixture_index: int, length_index: int) -> int:
    # Independent stream per data cell; both losses see the same datasets.
    ss = np.random.SeedSequence((seed, mixture_index, length_index))
    return int(ss.generate_state(1, np.uint64)[0])


def run_labelprop(config: dict) -> dict:
    """The sweep config describes (keys and defaults in _LABELPROP_KEYS): {"config_echo", "per_cell_results"}."""
    settings = _labelprop_settings(config)
    for loss in settings["losses"]:
        if loss not in (LOSS_LOGISTIC, LOSS_SPARSEMAX):
            raise ValueError(f"labelprop supports logistic and sparsemax losses, got {loss!r}")
    train_cfg = TrainConfig(max_epochs=settings["max_epochs"])
    echo = {**settings, **_training_echo(train_cfg)}
    cells = []
    for mi, mixture in enumerate(echo["mixtures"]):
        for li, length in enumerate(echo["doc_lengths"]):
            data_cfg = SyntheticConfig(
                n_labels=echo["n_labels"],
                n_train=echo["n_train"],
                n_test=echo["n_test"],
                mean_doc_length=float(length),
                mean_labels=echo["mean_labels"],
                mixture=mixture,
                seed=_cell_seed(echo["seed"], mi, li),
            )
            train, test = generate_synthetic(data_cfg)
            train, test = standardize_features(train, test)
            for loss in echo["losses"]:
                proportions = sparsemax_rows if loss == LOSS_SPARSEMAX else softmax_rows

                model, best_lam, _ = _select_and_fit(
                    train, [(lam, None) for lam in echo["lambdas"]], echo["folds"], data_cfg.seed, train_cfg, loss,
                    lambda va, val_scores, _: -float(js_divergence_rows(va.Q, proportions(val_scores)).mean()),
                )
                predicted = proportions(predict_scores(model, test.X))
                cells.append(
                    {
                        "cell_index": len(cells),
                        "mixture": mixture,
                        "doc_length": length,
                        "loss": loss,
                        "lambda": float(best_lam),
                        "mse": float(mse_rows(test.Q, predicted).mean()),
                        "js_divergence": float(js_divergence_rows(test.Q, predicted).mean()),
                        "n_train": train.n_examples,
                        "n_test": test.n_examples,
                    }
                )
    return {"config_echo": echo, "per_cell_results": cells}


def cmd_labelprop(args) -> int:
    started = time.monotonic()
    with open(args.config) as fh:
        config = json.load(fh)
    result = run_labelprop(config)
    _write_result(args.out, result["config_echo"], result["per_cell_results"])
    logger.info("labelprop sweep finished in %.2f s", time.monotonic() - started)
    return 0


def _pad_dataset(ds: LabeledDataset, n_labels: int, n_features: int) -> LabeledDataset:
    X = np.zeros((ds.n_examples, n_features))
    X[:, : ds.n_features] = ds.X
    Q = np.zeros((ds.n_examples, n_labels))
    Q[:, : ds.n_labels] = ds.Q
    return LabeledDataset(X=X, Q=Q)


def cmd_multilabel(args) -> int:
    started = time.monotonic()
    train_cfg = TrainConfig(max_epochs=args.max_epochs)
    train = read_libsvm_multilabel(args.train)
    test = read_libsvm_multilabel(args.test)
    n_labels = max(train.n_labels, test.n_labels)
    n_features = max(train.n_features, test.n_features)
    train = _pad_dataset(train, n_labels, n_features)
    test = _pad_dataset(test, n_labels, n_features)
    if not args.no_standardize:
        train, test = standardize_features(train, test)
    loss_kind, rule_kind = METHODS[args.method]
    rule_params = default_rule_grid(args.method, train.n_labels) if args.rule_params is None else args.rule_params

    def f1(split, scores, param):
        """(micro, macro) F1 of the labels the rule at param switches on."""
        return micro_macro_f1_rows(decide_rows(scores, DecisionRule(kind=rule_kind, param=param)), split.Q > 0.0)

    model, best_lam, best_param = _select_and_fit(
        train, [(lam, p) for lam in args.lambdas for p in rule_params], args.folds, args.seed, train_cfg, loss_kind,
        lambda va, val_scores, param: f1(va, val_scores, param)[0],
    )
    micro, macro = f1(test, predict_scores(model, test.X), best_param)
    cell = {
        "cell_index": 0,
        "method": args.method,
        "lambda": best_lam,
        "rule_param": best_param,
        "micro_f1": micro,
        "macro_f1": macro,
        "n_train": train.n_examples,
        "n_test": test.n_examples,
    }
    echo = {
        "train": str(args.train),
        "test": str(args.test),
        "method": args.method,
        "seed": args.seed,
        "folds": args.folds,
        "lambdas": args.lambdas,
        "rule_params": rule_params,
        **_training_echo(train_cfg),
        "standardize": not args.no_standardize,
    }
    _write_result(args.out, echo, [cell])
    logger.info("multilabel run finished in %.2f s", time.monotonic() - started)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsemax")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="softmax/sparsemax table for score rows")
    p_tr.add_argument("--format", choices=["json", "csv"], default="json")
    p_tr.add_argument("--input", default=None, help="score file, one row per line (default stdin)")
    p_tr.set_defaults(func=cmd_transform)

    p_lp = sub.add_parser("labelprop", help="synthetic label-proportion sweep")
    p_lp.add_argument("--config", required=True, help="JSON sweep configuration")
    p_lp.add_argument("--out", required=True, help="result JSON path")
    p_lp.set_defaults(func=cmd_labelprop)

    p_ml = sub.add_parser("multilabel", help="multi-label benchmark on LIBSVM files")
    p_ml.add_argument("--train", required=True)
    p_ml.add_argument("--test", required=True)
    p_ml.add_argument("--method", required=True, choices=sorted(METHODS))
    p_ml.add_argument("--out", required=True)
    p_ml.add_argument("--seed", type=int, default=0)
    p_ml.add_argument("--folds", type=int, default=5)
    p_ml.add_argument("--lambdas", type=_floats_arg, default=LAMBDA_GRID_MULTILABEL)
    p_ml.add_argument("--rule-params", type=_floats_arg, default=None)
    p_ml.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs, help="cap on iterations per fit")
    p_ml.add_argument("--no-standardize", action="store_true")
    p_ml.set_defaults(func=cmd_multilabel)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
