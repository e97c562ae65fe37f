"""The benchmark's four workloads: inputs, one round of program calls, and checks.

A round is the same whole set of operations every time.  ``setup`` makes
the inputs; ``run_round`` calls the program and returns the seconds spent
in it with the round's outputs.  Only one round's outputs are checked
operation by operation (``check``), after the measured rounds, so the
counts of a run do not depend on how many rounds it made; every other
round must give the same outputs (``same``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

# Acceptance-07 configuration: the default labelprop sweep of the paper's
# label-proportion experiment.
LABELPROP_CONFIG = {
    "n_labels": 10,
    "n_train": 300,
    "n_test": 300,
    "doc_lengths": [200, 800, 1400, 2000],
    "mixtures": ["uniform", "random_dirichlet"],
    "losses": ["logistic", "sparsemax"],
    "seed": 1,
}
LABELPROP_LAMBDAS = [10.0**j for j in range(-9, 1)]
# The training settings the sweep must use and echo (cli defaults).
LABELPROP_TRAINING = {"folds": 5, "max_epochs": 200, "learning_rate": 1.0, "convergence_tol": 1e-7}

# Acceptance-08 data and run: 6 labels, 200 + 200 documents of mean length
# 2000, data seed 11, cross-validation seed 0.
MULTILABEL_DATA = dict(n_labels=6, n_train=200, n_test=200, mean_doc_length=2000.0, mixture="uniform", seed=11)
MULTILABEL_CV_SEED = 0
MULTILABEL_LAMBDAS = [10.0**j for j in range(-8, 3)]
MULTILABEL_TRAINING = {"folds": 5, "max_epochs": 100, "learning_rate": 1.0, "convergence_tol": 1e-7}
MULTILABEL_RULE_PARAMS = {
    "logistic": [0.05 * n for n in range(1, 11)],
    "softmax": [n / 6 for n in range(1, 7)],
    "sparsemax": [0.5 * n for n in range(2, 11)],
}

PROJECTION_ROWS = {10: 1000, 1_000: 400, 100_000: 16}
# Inputs are made, read, timed and checked in chunks of at most this many
# scores, so the benchmark holds at most one row of each input matrix at
# K = 10^5 and about 0.4 MB of inputs below it.
CHUNK_SCORES = 1 << 14


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0  # failures other than the known epoch-cap fault
    notes: list = field(default_factory=list)

    def add(self, outcome: checks.Outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.unexpected += not outcome.known_fault
            self.notes.append(f"FAILED {outcome.name}: {outcome.detail}")

    def add_rows(self, label: str, first_row: int, oks) -> None:
        for row, ok in enumerate(oks, start=first_row):
            if not ok:
                self.add(checks.Outcome(f"{label} row {row}", False, "a projection property does not hold"))
        self.attempted += int(np.sum(oks))

    def mismatch(self, note: str) -> None:
        """A round whose outputs differ from the checked round's: not an
        operation of its own, but the run is not correct."""
        self.unexpected += 1
        self.notes.append(f"DIFFERS {note}")


# ---------------------------------------------------------------------------
# experiment workloads


@dataclass
class FinalFit:
    train: object
    test: object
    model: object
    fit: checks.FitRecord | None = None  # with its history, in a recorded round
    cv: checks.CVRecord | None = None  # the cross-validation that chose its lambda


class FinalFitRecorder:
    """Keeps the model and data of every final fit a CLI run makes.

    Wraps the names ``standardize_features``, ``cross_validate`` and ``fit``
    of the cli module: a fit made outside cross-validation is the final
    fit, trained on the split last standardized and tested on its partner.
    While ``record`` is set it also passes each fit a ``history`` list and
    keeps every cross-validation's scores, fits and choice for the checks.
    """

    def __init__(self, cli) -> None:
        self.record = False
        self.finals: list[FinalFit] = []
        self._cv = None
        self._in_cv = 0
        self._key = None
        self._test = None
        standardize, cross_validate, fit = cli.standardize_features, cli.cross_validate, cli.fit

        def recording_standardize(*args, **kwargs):
            out = standardize(*args, **kwargs)
            self._test = out[1]
            return out

        def recording_cross_validate(data, grid, folds, evaluate, seed=0):
            cv = checks.CVRecord(data, grid, folds, seed) if self.record else None
            if cv is not None:

                def recording_evaluate(i, tr, va, lam, param, _evaluate=evaluate):
                    self._key = (i, lam)
                    score = _evaluate(i, tr, va, lam, param)
                    cv.scores[(i, lam, param)] = score
                    return score

                evaluate = recording_evaluate
            self._cv = cv
            self._in_cv += 1
            try:
                choice = cross_validate(data, cv.grid if cv else grid, folds, evaluate, seed=seed)
            finally:
                self._in_cv -= 1
            if cv is not None:
                cv.choice = choice
            return choice

        def recording_fit(data, cfg, loss_kind, *args, **kwargs):
            if not self.record:
                model = fit(data, cfg, loss_kind, *args, **kwargs)
                if not self._in_cv:
                    self.finals.append(FinalFit(data, self._test, model))
                return model
            history = []
            model = fit(data, cfg, loss_kind, *args, history=history, **kwargs)
            record = checks.FitRecord(
                model.W, model.b, cfg.lam, loss_kind, cfg.max_epochs, cfg.learning_rate, cfg.convergence_tol,
                len(history) - 1, tuple(history[-2:]),
            )
            if self._in_cv:
                self._cv.n_fits += 1
                self._cv.fits[self._key] = record
            else:
                self.finals.append(FinalFit(data, self._test, model, record, self._cv))
            return model

        cli.standardize_features = recording_standardize
        cli.cross_validate = recording_cross_validate
        cli.fit = recording_fit

    def take(self) -> list[FinalFit]:
        finals, self.finals = self.finals, []
        return finals


def same_finals(a: list[FinalFit], b: list[FinalFit]) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.model.W, y.model.W) and np.array_equal(x.model.b, y.model.b) for x, y in zip(a, b)
    )


def check_training(final: FinalFit, grid, training, score, rtol, choice) -> list:
    """Problems with a final fit's training and the cross-validation behind it."""
    if final.cv is None:
        return ["no cross-validation before the final fit"]
    problems = checks.cv_problems(final.cv, grid, training, score, rtol)
    problems += checks.fit_problems(final.fit, final.train.X, final.train.Q, choice[0], training)
    if final.cv.data is not final.train:
        problems.append("final fit trained on other data than was cross-validated")
    if final.cv.choice is None or tuple(final.cv.choice) != tuple(choice):
        problems.append(f"reports {tuple(choice)}, cross-validation chose {final.cv.choice}")
    return problems


def check_final(name, final: FinalFit, training, tally: Tally) -> None:
    """The final fit against scipy's optimum and the benchmark's own capped descent."""
    X, Q, fit = final.train.X, final.train.Q, final.fit
    optimum = checks.reference_optimum(X, Q, fit.lam, fit.loss, fit.W, fit.b)
    descent = checks.capped_descent(
        X, Q, fit.lam, fit.loss, training["max_epochs"], training["learning_rate"], training["convergence_tol"]
    )
    tally.add(checks.check_final_fit(name, fit.W, fit.b, X, Q, fit.lam, fit.loss, optimum, descent, training["convergence_tol"]))


def _with_problems(outcome: checks.Outcome, problems: list) -> checks.Outcome:
    if not problems:
        return outcome
    shown = "; ".join(problems[:5]) + (f"; and {len(problems) - 5} more" if len(problems) > 5 else "")
    return outcome._replace(ok=False, detail=f"{outcome.detail}; {shown}")


def _echo_problems(echo: dict, expected: dict) -> list:
    return [f"echoes {key} {echo.get(key)!r}, not {value!r}" for key, value in expected.items() if echo.get(key) != value]


class Labelprop:
    """The default labelprop sweep, 16 cells of 51 fits each."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self, package) -> None:
        self.config_path = self.workdir / "labelprop.json"
        self.config_path.write_text(json.dumps(LABELPROP_CONFIG))

    def prepare(self, package) -> None:
        self.package = package
        self.recorder = FinalFitRecorder(package.cli)

    def run_round(self, tracer=None, record=False):
        out = self.workdir / "labelprop-result.json"
        self.recorder.record = record
        started = perf_counter()
        code = self.package.cli.main(["labelprop", "--config", str(self.config_path), "--out", str(out)])
        elapsed = perf_counter() - started
        if code != 0:
            raise RuntimeError(f"sparsemax labelprop exited with {code}")
        return elapsed, (json.loads(out.read_text()), self.recorder.take())

    @staticmethod
    def same(a, b) -> bool:
        return a[0] == b[0] and same_finals(a[1], b[1])

    def check(self, output, tally: Tally) -> None:
        result, finals = output
        cells = result["per_cell_results"]
        echo = result["config_echo"]
        sweep = _echo_problems(echo, {"lambdas": LABELPROP_LAMBDAS, **LABELPROP_TRAINING})
        grid = [(lam, None) for lam in LABELPROP_LAMBDAS]
        for cell, final in zip(cells, finals):
            name = f"labelprop cell {cell['cell_index']}"
            score = lambda W, b, X, Q, param, _loss=cell["loss"]: -checks.proportion_metrics(W, b, X, Q, _loss)[1]
            problems = sweep + check_training(final, grid, LABELPROP_TRAINING, score, checks.METRIC_RTOL, (cell["lambda"], None))
            outcome = checks.check_labelprop_cell(cell, final.model.W, final.model.b, final.test.X, final.test.Q, LABELPROP_LAMBDAS)
            tally.add(_with_problems(outcome, problems))
            check_final(name, final, LABELPROP_TRAINING, tally)
        if len(finals) != len(cells) or len(cells) != 16:
            tally.add(checks.Outcome("labelprop sweep shape", False, f"{len(cells)} cells, {len(finals)} final fits"))


class Multilabel:
    """The three multilabel methods over their full grid on the acceptance-08 data."""

    methods = ("logistic", "softmax", "sparsemax")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self, package) -> None:
        train, test = package.generate_synthetic(package.SyntheticConfig(**MULTILABEL_DATA))
        self.paths = (self.workdir / "train.svm", self.workdir / "test.svm")
        package.write_libsvm_multilabel(train, self.paths[0])
        package.write_libsvm_multilabel(test, self.paths[1])

    def prepare(self, package) -> None:
        self.package = package
        self.recorder = FinalFitRecorder(package.cli)

    def run_round(self, tracer=None, record=False):
        results = {}
        elapsed = 0.0
        self.recorder.record = record
        for method in self.methods:
            out = self.workdir / f"multilabel-{method}.json"
            argv = [
                "multilabel", "--train", str(self.paths[0]), "--test", str(self.paths[1]),
                "--method", method, "--out", str(out), "--seed", str(MULTILABEL_CV_SEED),
            ]
            if tracer is not None:
                tracer.tag = method
            started = perf_counter()
            code = self.package.cli.main(argv)
            elapsed += perf_counter() - started
            if code != 0:
                raise RuntimeError(f"sparsemax multilabel --method {method} exited with {code}")
            results[method] = json.loads(out.read_text())
        if tracer is not None:
            tracer.tag = None
        return elapsed, (results, self.recorder.take())

    same = staticmethod(Labelprop.same)

    def check(self, output, tally: Tally) -> None:
        results, finals = output
        if len(finals) != len(self.methods):
            tally.add(checks.Outcome("multilabel final fits", False, f"{len(finals)} final fits"))
            return
        for method, final in zip(self.methods, finals):
            echo = results[method]["config_echo"]
            cell = results[method]["per_cell_results"][0]
            params = MULTILABEL_RULE_PARAMS[method]
            problems = _echo_problems(echo, {"lambdas": MULTILABEL_LAMBDAS, "rule_params": params, **MULTILABEL_TRAINING})
            grid = [(lam, p) for lam in MULTILABEL_LAMBDAS for p in params]
            score = lambda W, b, X, Q, param, _method=method: checks.multilabel_f1(_method, param, W, b, X, Q)[0]
            problems += check_training(
                final, grid, MULTILABEL_TRAINING, score, checks.F1_RTOL, (cell["lambda"], cell["rule_param"])
            )
            outcome = checks.check_multilabel_cell(cell, final.model.W, final.model.b, final.test.X, final.test.Q, MULTILABEL_LAMBDAS, params)
            tally.add(_with_problems(outcome, problems))
            check_final(f"multilabel {method}", final, MULTILABEL_TRAINING, tally)


# ---------------------------------------------------------------------------
# projection workloads


def projection_inputs(rng, K: int, n: int, regime: str):
    """Scores Z, JVP vectors V and targets Q, each (n, K).

    sparse: scores uniform in [-3, 0) except 1 to 3 coordinates set to
            1 + U(0, 0.5/s); the support is exactly those s coordinates.
    dense:  scores uniform in [0, 1/K), within 1/K of each other, so the
            support is all K coordinates.
    V is standard normal.  Each target is uniform over 1 to 3 labels drawn
    uniformly from the K.
    """
    if regime == "sparse":
        Z = rng.uniform(-3.0, 0.0, (n, K))
        for r in range(n):
            s = int(rng.integers(1, 4))
            Z[r, rng.choice(K, s, replace=False)] = 1.0 + rng.uniform(0.0, 0.5 / s, s)
    else:
        Z = rng.uniform(0.0, 1.0 / K, (n, K))
    V = rng.standard_normal((n, K))
    Q = np.zeros((n, K))
    for r in range(n):
        t = int(rng.integers(1, 4))
        Q[r, rng.choice(K, t, replace=False)] = 1.0 / t
    return Z, V, Q


class Projection:
    """sparsemax, threshold_and_support, sparsemax_jvp and sparsemax_loss_multi per row.

    Set-up writes the inputs chunk by chunk to one file per K; a round
    reads each chunk outside its timer, so the process holds one chunk of
    inputs at a time and its peak memory is mostly the program's.  A
    measured round keeps only a few numbers per row, to compare rounds;
    ``check`` runs the calls once more and checks every output.
    """

    def __init__(self, regime: str, seed: int, workdir: Path) -> None:
        self.regime = regime
        self.seed = seed
        self.workdir = workdir
        self.jvp_ops = 0

    def setup(self, package) -> None:
        rng = np.random.default_rng([self.seed, 0 if self.regime == "sparse" else 1])
        self.chunks = []  # (K, first row, rows, file, byte offset)
        for K, n in PROJECTION_ROWS.items():
            path = self.workdir / f"{self.regime}-K{K}.f64"
            step = max(1, CHUNK_SCORES // K)
            with open(path, "wb") as fh:
                for lo in range(0, n, step):
                    m = min(step, n - lo)
                    self.chunks.append((K, lo, m, path, fh.tell()))
                    for block in projection_inputs(rng, K, m, self.regime):
                        block.tofile(fh)

    def prepare(self, package) -> None:
        self.package = package

    def _chunks(self):
        for K, lo, m, path, offset in self.chunks:
            Z, V, Q = np.fromfile(path, dtype=np.float64, count=3 * m * K, offset=offset).reshape(3, m, K)
            yield K, lo, Z, V, Q

    def _call(self, Z, V, Q):
        pkg = self.package
        outputs = []
        started = perf_counter()
        for z, v, q in zip(Z, V, Q):
            p = pkg.sparsemax(z)
            support = pkg.threshold_and_support(z)
            counter = pkg.OpCounter()
            jvp = pkg.sparsemax_jvp(support, v, counter)
            loss = pkg.sparsemax_loss_multi(z, q)
            outputs.append((p, support, jvp, counter.count, loss))
        return perf_counter() - started, outputs

    @staticmethod
    def _summary(outputs) -> list:
        """Per row: threshold, support size, OpCounter tally and loss."""
        return [(s.tau, s.k, count, loss.value) for _, s, _, count, loss in outputs]

    def run_round(self, tracer=None, record=False):
        elapsed = 0.0
        summary = []
        for K, _, Z, V, Q in self._chunks():
            if tracer is not None:
                tracer.tag = f"K{K}"
            seconds, outputs = self._call(Z, V, Q)
            elapsed += seconds
            summary += self._summary(outputs)
        if tracer is not None:
            tracer.tag = None
        summary = np.array(summary, dtype=np.float64)
        self.jvp_ops = int(summary[:, 2].sum())
        return elapsed, summary

    @staticmethod
    def same(a, b) -> bool:
        return np.array_equal(a, b)

    def check(self, output, tally: Tally) -> None:
        summary = []
        for K, lo, Z, V, Q in self._chunks():
            _, outputs = self._call(Z, V, Q)
            P, supports, J, counts, losses = zip(*outputs)
            oks = checks.check_projection_rows(
                Z, V, Q, np.stack(P), [s.tau for s in supports], [s.indices for s in supports], [s.k for s in supports],
                np.stack(J), counts, [l.value for l in losses], np.stack([l.gradient for l in losses]),
            )
            tally.add_rows(f"{self.regime} K={K}", lo, oks)
            summary += self._summary(outputs)
        if not np.array_equal(np.array(summary, dtype=np.float64), output):
            tally.mismatch("the checked projection round differs from the first measured round")


def make(name: str, seed: int, workdir: Path):
    if name == "labelprop":
        return Labelprop(seed, workdir)
    if name == "multilabel":
        return Multilabel(seed, workdir)
    if name in ("projection_sparse", "projection_dense"):
        return Projection(name.split("_")[1], seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("labelprop", "multilabel", "projection_sparse", "projection_dense")
