"""End-to-end acceptance checks with pinned tolerances.

Every test prints one `acceptance NN PASS/FAIL` summary line, so running
`pytest -sv tests/test_acceptance.py` doubles as a release checklist.  The
two benchmark checks drive the command-line interface exactly the way a
user would and must finish inside the stated wall-clock budgets.
"""

import io
import json
import sys
import time

import numpy as np

from helpers import brute_force_projection, fd_gradient, fd_jacobian, huber_binary_reference, support_margin
from sparsemax import (
    OpCounter,
    SyntheticConfig,
    generate_synthetic,
    logistic_loss,
    logistic_loss_multi,
    softmax,
    softmax_jacobian,
    sparsemax,
    sparsemax_jacobian,
    sparsemax_jvp,
    sparsemax_loss,
    sparsemax_loss_multi,
    threshold_and_support,
    write_libsvm_multilabel,
)
from sparsemax.cli import main


def _report(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"acceptance {num:02d} {status}: {name}{suffix}")
    return ok


def test_01_projection_matches_exhaustive_oracle():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(2, 11))
        z = rng.normal(scale=1.5, size=dim)
        if rng.random() < 0.2:
            z = np.round(z, 1)  # provoke exact ties
        worst = max(worst, float(np.abs(sparsemax(z) - brute_force_projection(z)).max()))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-12 and elapsed < 30.0
    assert _report(
        1, "projection matches the exhaustive oracle", ok, f"max diff {worst:.2e}, {elapsed:.1f} s"
    )


def test_02_two_dimensional_closed_form():
    def first_coordinate(t):
        if t > 1.0:
            return 1.0
        if t < -1.0:
            return 0.0
        return (t + 1.0) / 2.0

    worst = max(
        abs(float(sparsemax([t, 0.0])[0]) - first_coordinate(t))
        for t in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    )
    ok = worst <= 1e-15
    assert _report(2, "two dimensional closed form", ok, f"max diff {worst:.2e}")


def test_03_two_class_loss_is_modified_huber():
    rng = np.random.default_rng(103)
    pairs = rng.uniform(-3.0, 3.0, size=(10_000, 2))
    worst = max(
        abs(sparsemax_loss(z, 0).value - huber_binary_reference(z[0] - z[1])) for z in pairs
    )
    ok = worst <= 1e-12
    assert _report(3, "two class loss equals the modified Huber form", ok, f"max diff {worst:.2e}")


def test_04_gradients_match_finite_differences():
    rng = np.random.default_rng(104)
    started = time.monotonic()
    worst = 0.0
    accepted = 0
    while accepted < 1000:
        dim = int(rng.integers(2, 9))
        z = rng.normal(scale=2.0, size=dim)
        s = threshold_and_support(z)
        if support_margin(z, s) < 1e-3:
            continue
        accepted += 1
        k = int(rng.integers(dim))
        q = rng.dirichlet(np.ones(dim))
        checks = [
            (logistic_loss(z, k).gradient, fd_gradient(lambda w, k=k: logistic_loss(w, k).value, z)),
            (sparsemax_loss(z, k).gradient, fd_gradient(lambda w, k=k: sparsemax_loss(w, k).value, z)),
            (
                logistic_loss_multi(z, q).gradient,
                fd_gradient(lambda w, q=q: logistic_loss_multi(w, q).value, z),
            ),
            (
                sparsemax_loss_multi(z, q).gradient,
                fd_gradient(lambda w, q=q: sparsemax_loss_multi(w, q).value, z),
            ),
            (softmax_jacobian(softmax(z)), fd_jacobian(softmax, z)),
            (sparsemax_jacobian(s, dim), fd_jacobian(sparsemax, z)),
        ]
        for analytic, numeric in checks:
            worst = max(worst, float(np.abs(analytic - numeric).max()))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-6 and elapsed < 60.0
    assert _report(
        4,
        "four loss gradients and both jacobians match finite differences",
        ok,
        f"max err {worst:.2e}, {elapsed:.1f} s",
    )


def test_05_transformation_property_suite():
    rng = np.random.default_rng(105)
    tol = 1e-12
    violations = {"shift": 0, "permutation": 0, "monotone": 0, "lipschitz": 0, "saturation": 0}
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        z = rng.normal(scale=2.0, size=dim)
        c = float(rng.uniform(-5.0, 5.0))
        if np.abs(sparsemax(z + c) - sparsemax(z)).max() > tol:
            violations["shift"] += 1
        perm = rng.permutation(dim)
        if not np.array_equal(sparsemax(z[perm]), sparsemax(z)[perm]):
            violations["permutation"] += 1
        p_sparse = sparsemax(z)
        p_soft = softmax(z)
        for i in range(dim):
            for j in range(dim):
                if z[i] < z[j]:
                    continue
                gap = z[i] - z[j]
                if p_sparse[i] < p_sparse[j] or p_soft[i] < p_soft[j]:
                    violations["monotone"] += 1
                # Coordinate difference grows at most like the score gap,
                # with slope 1 for the projection and 1/2 for softmax.
                if p_sparse[i] - p_sparse[j] > gap + tol:
                    violations["lipschitz"] += 1
                if p_soft[i] - p_soft[j] > 0.5 * gap + tol:
                    violations["lipschitz"] += 1
    for _ in range(1000):
        # Scaling scores by a large factor saturates the projection to the
        # uniform distribution on the tied argmax set A.  That happens
        # exactly once the inverse scale drops to gap * |A|, so sample
        # scales at and below the switching point.  Integer scores with a
        # power-of-two boundary scale keep the arithmetic exact there.
        n_top = int(rng.integers(1, 4))
        dim = int(rng.integers(n_top + 1, 9))
        if n_top == 3:
            frac = float(rng.choice([0.3, 0.6, 0.9]))
            gap = float(rng.integers(1, 5))
        else:
            frac = float(rng.choice([0.3, 0.6, 0.9, 1.0]))
            gap = float(rng.choice([1, 2, 4]))
        top = float(rng.integers(0, 5))
        rest = top - gap - rng.integers(0, 6, size=dim - n_top).astype(float)
        rest[0] = top - gap
        z = np.concatenate([np.full(n_top, top), rest])
        z = z[rng.permutation(dim)]
        active = z == top
        eps = frac * gap * n_top
        p = sparsemax(z / eps)
        uniform_on_ties = (
            np.array_equal(p > 0, active)
            and np.all(p[~active] == 0.0)
            and np.abs(p[active] - 1.0 / n_top).max() <= tol
        )
        if not uniform_on_ties:
            violations["saturation"] += 1
    ok = all(v == 0 for v in violations.values())
    assert _report(5, "transformation property suite", ok, str(violations))


def test_06_loss_property_suite():
    rng = np.random.default_rng(106)
    min_value = np.inf
    for _ in range(100_000):
        dim = int(rng.integers(2, 9))
        z = rng.normal(scale=2.0, size=dim)
        min_value = min(min_value, sparsemax_loss(z, int(rng.integers(dim))).value)
    nonneg_ok = min_value >= -1e-10

    shift_worst = 0.0
    convexity_worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        z = rng.normal(scale=2.0, size=dim)
        w = rng.normal(scale=2.0, size=dim)
        k = int(rng.integers(dim))
        c = float(rng.uniform(-5.0, 5.0))
        shift_worst = max(
            shift_worst, abs(sparsemax_loss(z + c, k).value - sparsemax_loss(z, k).value)
        )
        midpoint = sparsemax_loss(0.5 * (z + w), k).value
        chord = 0.5 * (sparsemax_loss(z, k).value + sparsemax_loss(w, k).value)
        convexity_worst = max(convexity_worst, midpoint - chord)
    shift_ok = shift_worst <= 1e-10
    convexity_ok = convexity_worst <= 1e-10

    # Zero loss and a unit score margin imply each other.  Score grids of
    # halves keep every intermediate quantity exactly representable, so the
    # forward direction can demand a literal 0.0.
    forward_ok = True
    backward_ok = True
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        others = rng.integers(-6, 7, size=dim - 1) / 2.0
        margin = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        z = np.concatenate([[others.max() + margin], others])
        order = rng.permutation(dim)
        k = int(np.nonzero(order == 0)[0][0])
        result = sparsemax_loss(z[order], k)
        if result.value != 0.0 or np.any(result.gradient != 0.0):
            forward_ok = False
        short = float(rng.choice([0.875, 0.5, 0.125, 0.0, -0.5, -1.25]))
        z_short = np.concatenate([[others.max() + short], others])
        if sparsemax_loss(z_short[order], k).value <= 0.0:
            backward_ok = False

    ok = nonneg_ok and shift_ok and convexity_ok and forward_ok and backward_ok
    assert _report(
        6,
        "loss property suite",
        ok,
        f"min {min_value:.1e}, shift {shift_worst:.1e}, midpoint slack {convexity_worst:.1e}, "
        f"margin zero-loss {'both ways' if forward_ok and backward_ok else 'BROKEN'}",
    )


def test_07_proportion_benchmark_ordering(tmp_path):
    config = {
        "n_labels": 10,
        "n_train": 300,
        "n_test": 300,
        "doc_lengths": [200, 800, 1400, 2000],
        "mixtures": ["uniform", "random_dirichlet"],
        "losses": ["logistic", "sparsemax"],
        "seed": 1,
    }
    config_path = tmp_path / "labelprop.json"
    config_path.write_text(json.dumps(config))
    out_path = tmp_path / "result.json"
    started = time.monotonic()
    code = main(["labelprop", "--config", str(config_path), "--out", str(out_path)])
    elapsed = time.monotonic() - started
    assert code == 0
    cells = json.loads(out_path.read_text())["per_cell_results"]
    # The cross-validated lam of each cell, in cell order: grid values, so a
    # refactor that keeps the result file keeps them exactly; a change that
    # moves one updates this pin and says why.
    assert [c["lambda"] for c in cells] == [
        1e-3, 1e-9, 1e-4, 1e-8, 1e-4, 1e-8, 1e-4, 1e-8, 1e-5, 1e-7, 1e-4, 1e-7, 1e-4, 1e-4, 1e-4, 1e-4
    ]
    js = {(c["mixture"], c["doc_length"], c["loss"]): c["js_divergence"] for c in cells}
    ordered = all(
        js[(mixture, 2000, "sparsemax")] < js[(mixture, 2000, "logistic")]
        for mixture in ("uniform", "random_dirichlet")
    )
    ok = ordered and len(cells) == 16 and elapsed < 600.0
    detail = ", ".join(
        f"{m}@2000 sparsemax {js[(m, 2000, 'sparsemax')]:.4f} vs logistic {js[(m, 2000, 'logistic')]:.4f}"
        for m in ("uniform", "random_dirichlet")
    )
    assert _report(
        7, "sparse loss wins the long-document proportion benchmark", ok, f"{detail}, {elapsed:.0f} s"
    )


def test_08_separable_multilabel_full_grid(acceptance_08_runs):
    # The runs are shared with tests/test_cli.py (tests/conftest.py).
    micro = {}
    in_range = True
    for method in ("logistic", "softmax", "sparsemax"):
        code, cell, _, _ = acceptance_08_runs[method]
        assert code == 0
        micro[method] = cell["micro_f1"]
        if not (0.0 <= cell["micro_f1"] <= 1.0 and 0.0 <= cell["macro_f1"] <= 1.0):
            in_range = False
    elapsed = sum(run[3] for run in acceptance_08_runs.values())
    ok = in_range and micro["sparsemax"] >= 0.95
    detail = (
        ", ".join(f"{m} micro-F1 {micro[m]:.4f}" for m in ("logistic", "softmax", "sparsemax"))
        + f", {elapsed:.0f} s"
    )
    assert _report(8, "all methods finish the full multilabel grid", ok, detail)


def test_09_jvp_cost_tracks_support_size():
    counts = {}
    for dim in (100, 10_000):
        for size in (2, 5, 10):
            z = np.zeros(dim)
            z[np.arange(0, 5 * size, 5)] = 1.0
            support = threshold_and_support(z)
            assert support.k == size
            counter = OpCounter()
            sparsemax_jvp(support, np.ones(dim), counter=counter)
            counts[(dim, size)] = counter.count
    ok = all(counts[(dim, size)] == 3 * size for dim in (100, 10_000) for size in (2, 5, 10))
    assert _report(
        9,
        "jvp work grows with the support, not the dimension",
        ok,
        ", ".join(f"K={dim} |S|={size}: {c}" for (dim, size), c in sorted(counts.items())),
    )


def test_10_cli_runs_are_byte_identical(tmp_path, capsys, monkeypatch):
    transform_outputs = []
    for _ in range(2):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1.2 0.3 -4\n0 0\n"))
        assert main(["transform"]) == 0
        transform_outputs.append(capsys.readouterr().out)
    transform_ok = transform_outputs[0] == transform_outputs[1] != ""

    config = {
        "n_labels": 4,
        "n_train": 40,
        "n_test": 30,
        "doc_lengths": [60],
        "mixtures": ["uniform"],
        "losses": ["logistic", "sparsemax"],
        "folds": 2,
        "lambdas": [0.001, 0.1],
        "max_epochs": 40,
        "seed": 3,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    labelprop_bytes = []
    for name in ("lp_a.json", "lp_b.json"):
        out_path = tmp_path / name
        assert main(["labelprop", "--config", str(config_path), "--out", str(out_path)]) == 0
        labelprop_bytes.append(out_path.read_bytes())
    labelprop_ok = labelprop_bytes[0] == labelprop_bytes[1]

    data_cfg = SyntheticConfig(
        n_labels=4, n_train=50, n_test=30, mean_doc_length=80.0, mixture="uniform", seed=6
    )
    train, test = generate_synthetic(data_cfg)
    train_path = tmp_path / "train.svm"
    test_path = tmp_path / "test.svm"
    write_libsvm_multilabel(train, train_path)
    write_libsvm_multilabel(test, test_path)
    multilabel_bytes = []
    for name in ("ml_a.json", "ml_b.json"):
        out_path = tmp_path / name
        code = main(
            [
                "multilabel",
                "--train", str(train_path),
                "--test", str(test_path),
                "--method", "sparsemax",
                "--out", str(out_path),
                "--seed", "2",
                "--folds", "2",
                "--max-epochs", "40",
                "--lambdas", "0.001,0.1",
                "--rule-params", "1.0,2.0",
            ]
        )
        assert code == 0
        multilabel_bytes.append(out_path.read_bytes())
    multilabel_ok = multilabel_bytes[0] == multilabel_bytes[1]

    ok = transform_ok and labelprop_ok and multilabel_ok
    assert _report(
        10,
        "repeated runs are byte identical",
        ok,
        f"transform {transform_ok}, labelprop {labelprop_ok}, multilabel {multilabel_ok}",
    )
