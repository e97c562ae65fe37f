"""Fixtures shared by more than one test module."""

import json
import logging
import time

import pytest

from sparsemax import SyntheticConfig, generate_synthetic, write_libsvm_multilabel
from sparsemax.cli import main


@pytest.fixture(scope="session")
def acceptance_08_runs(tmp_path_factory):
    """The three multilabel methods on the full default grid of the data of
    acceptance 08, each run once per session: per method its exit code, its
    chosen cell (None on failure), the warnings of sparsemax.linear_model it
    logged and its wall time in seconds."""
    root = tmp_path_factory.mktemp("acceptance_08")
    cfg = SyntheticConfig(n_labels=6, n_train=200, n_test=200, mean_doc_length=2000.0, mixture="uniform", seed=11)
    train, test = generate_synthetic(cfg)
    write_libsvm_multilabel(train, root / "train.svm")
    write_libsvm_multilabel(test, root / "test.svm")
    fit_logger = logging.getLogger("sparsemax.linear_model")
    runs = {}
    for method in ("logistic", "softmax", "sparsemax"):
        out_path = root / f"{method}.json"
        argv = [
            "multilabel",
            "--train", str(root / "train.svm"),
            "--test", str(root / "test.svm"),
            "--method", method,
            "--out", str(out_path),
            "--seed", "0",
        ]
        records = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        level = fit_logger.level
        fit_logger.addHandler(handler)
        fit_logger.setLevel(logging.WARNING)
        started = time.monotonic()
        try:
            code = main(argv)
        finally:
            fit_logger.removeHandler(handler)
            fit_logger.setLevel(level)
        elapsed = time.monotonic() - started
        cell = json.loads(out_path.read_text())["per_cell_results"][0] if code == 0 else None
        runs[method] = (code, cell, [r.getMessage() for r in records], elapsed)
    return runs
