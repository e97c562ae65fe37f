"""Synthetic multi-label document generation and LIBSVM-style dataset IO.

The generator produces bag-of-words documents whose words are drawn from a
mixture of label-specific multinomials, together with the mixing
proportions as the target distribution.  The file reader and writer speak
the multi-label LIBSVM format ``l1,l2,... f1:v1 f2:v2 ...`` with 1-based
label and feature indices on disk and 0-based indices in memory.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .simplex import check_distribution_rows

logger = logging.getLogger(__name__)

__all__ = [
    "MIXTURE_UNIFORM",
    "MIXTURE_DIRICHLET",
    "SyntheticConfig",
    "LabeledDataset",
    "generate_synthetic",
    "read_libsvm_multilabel",
    "write_libsvm_multilabel",
    "standardize_features",
]

MIXTURE_UNIFORM = "uniform"
MIXTURE_DIRICHLET = "random_dirichlet"
_MIXTURES = (MIXTURE_UNIFORM, MIXTURE_DIRICHLET)


def _poisson_mass_reaches(target: float, mean: float, n_max: int) -> bool:
    """Whether Poisson(mean) puts at least target on 1..n_max.

    Up to a mean of 1e12 the terms are summed from the largest, at the mode
    clipped into 1..n_max, outward by the larger next term.  The first comes
    from log space: exp(-mean) underflows from 746.  Each side's terms fall by
    ratios r that shrink outward, so once both r < 1 a side's rest is at most
    t r / (1 - r), t its last term; the sum stops within about 2,500 terms.
    Past 1e12 the log-space term loses its digits, and the normal
    approximation decides, within 5e-7 (Berry-Esseen).
    """
    if mean > 1e12:
        return 0.5 * math.erfc((mean - n_max - 0.5) / math.sqrt(2.0 * mean)) >= target
    up = down = min(max(int(mean), 1), n_max)
    t_up = t_down = total = math.exp(up * math.log(mean) - mean - math.lgamma(up + 1))
    while total < target:
        r_up = mean / (up + 1) if up < n_max else 0.0
        r_down = down / mean if down > 1 else 0.0
        if max(r_up, r_down) < 1.0 and total + t_up * r_up / (1.0 - r_up) + t_down * r_down / (1.0 - r_down) < target:
            return False
        if t_up * r_up >= t_down * r_down:
            up, t_up = up + 1, t_up * r_up
            total += t_up
        else:
            down, t_down = down - 1, t_down * r_down
            total += t_down
    return True


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic document generator.

    The vocabulary size equals n_labels, so documents have as many count
    features as there are labels.  mean_labels and mean_doc_length are
    Poisson means; the number of active labels is redrawn until it lands
    in 1..n_labels.
    """

    n_labels: int
    n_train: int
    n_test: int
    mean_doc_length: float
    mean_labels: float = 2.0
    mixture: str = MIXTURE_UNIFORM
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_labels < 2:
            raise ValueError("need at least two labels")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("train and test sizes must be positive")
        if not (0 < self.mean_doc_length < math.inf and 0 < self.mean_labels < math.inf):
            raise ValueError("Poisson means must be finite and positive")
        # The label-count sampler rejects Poisson draws outside 1..n_labels,
        # so a mean that puts almost no mass there would loop nearly forever.
        if not _poisson_mass_reaches(1e-3, self.mean_labels, self.n_labels):
            raise ValueError(
                f"mean_labels={self.mean_labels} puts almost no Poisson mass on 1..{self.n_labels}"
            )
        if self.mixture not in _MIXTURES:
            raise ValueError(f"mixture must be one of {_MIXTURES}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class LabeledDataset:
    """Count features X (N x D) with one target distribution per row in Q (N x K).

    Rows of Q live on the simplex and are sparse in general; the active
    labels of example i are exactly the positions with Q[i] > 0.
    """

    X: np.ndarray
    Q: np.ndarray

    def __post_init__(self) -> None:
        if self.X.ndim != 2 or self.Q.ndim != 2:
            raise ValueError("X and Q must be two-dimensional")
        if self.X.shape[0] != self.Q.shape[0] or self.X.shape[0] == 0:
            raise ValueError("X and Q must have the same positive number of rows")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("dataset must contain only finite values")
        check_distribution_rows(self.Q)

    @property
    def n_examples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_labels(self) -> int:
        return self.Q.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset(X=self.X[indices], Q=self.Q[indices])


def _draw_examples(rng, cfg: SyntheticConfig, count: int, word_dists: np.ndarray) -> LabeledDataset:
    n_labels = cfg.n_labels
    X = np.zeros((count, n_labels))
    Q = np.zeros((count, n_labels))
    for i in range(count):
        n_active = 0
        while not 1 <= n_active <= n_labels:
            n_active = int(rng.poisson(cfg.mean_labels))
        labels = rng.choice(n_labels, size=n_active, replace=False)
        if cfg.mixture == MIXTURE_UNIFORM:
            weights = np.full(n_active, 1.0 / n_active)
        else:
            weights = rng.dirichlet(np.ones(n_active))
        Q[i, labels] = weights
        length = int(rng.poisson(cfg.mean_doc_length))
        X[i] = rng.multinomial(length, weights @ word_dists[labels])
    return LabeledDataset(X=X, Q=Q)


def generate_synthetic(cfg: SyntheticConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Draw a (train, test) pair of synthetic multi-label datasets.

    One PCG64 generator seeded from cfg.seed drives everything in a fixed
    order: first the label-specific word distributions (one flat-Dirichlet
    draw per label, shared by both splits), then the train examples, then
    the test examples.  Equal configs therefore give bitwise-equal data.

    Per example: the number of active labels is Poisson(mean_labels)
    rejection-sampled into 1..K, the active labels are drawn uniformly
    without replacement, the mixing proportions are uniform or flat
    Dirichlet over the active labels, and Poisson(mean_doc_length) words
    are drawn i.i.d. from the mixture of the active labels' word
    distributions.  Features are raw word counts.
    """
    rng = np.random.default_rng(cfg.seed)
    word_dists = rng.dirichlet(np.ones(cfg.n_labels), size=cfg.n_labels)
    train = _draw_examples(rng, cfg, cfg.n_train, word_dists)
    test = _draw_examples(rng, cfg, cfg.n_test, word_dists)
    return train, test


def _parse_line(line: str, lineno: int, path: str):
    tokens = line.split()
    if ":" in tokens[0]:
        label_part, feature_tokens = "", tokens
    else:
        label_part, feature_tokens = tokens[0], tokens[1:]
    labels = []
    if label_part:
        for tok in label_part.split(","):
            try:
                lab = int(tok)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad label token {tok!r}") from None
            if lab < 1:
                raise ValueError(f"{path}:{lineno}: labels are 1-based, got {lab}")
            if lab - 1 in labels:
                raise ValueError(f"{path}:{lineno}: repeated label {lab}")
            labels.append(lab - 1)
    features = {}
    for tok in feature_tokens:
        idx_str, _, val_str = tok.partition(":")
        try:
            idx = int(idx_str)
            val = float(val_str)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad feature token {tok!r}") from None
        if idx < 1:
            raise ValueError(f"{path}:{lineno}: feature indices are 1-based, got {idx}")
        if idx - 1 in features:
            raise ValueError(f"{path}:{lineno}: repeated feature {idx}")
        if not math.isfinite(val):
            raise ValueError(f"{path}:{lineno}: feature {idx} is not finite: {val_str}")
        features[idx - 1] = val
    return labels, features


def read_libsvm_multilabel(path) -> LabeledDataset:
    """Read a multi-label LIBSVM file into dense arrays.

    Targets are uniform over each line's labels (the format stores label
    sets, not proportions).  Lines without labels are dropped and their
    count logged as a warning.  The dimensions are the highest label and
    feature index the file mentions.  A bad token, a repeated label or
    feature index, or a non-finite value is a ValueError naming path:line.
    """
    rows = []
    n_dropped = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            labels, features = _parse_line(line, lineno, str(path))
            if not labels:
                n_dropped += 1
                continue
            rows.append((labels, features))
    if n_dropped:
        logger.warning("dropped %d line(s) without labels from %s", n_dropped, path)
    if not rows:
        raise ValueError(f"{path}: no labeled examples")
    X = np.zeros((len(rows), 1 + max((idx for _, features in rows for idx in features), default=-1)))
    Q = np.zeros((len(rows), 1 + max(max(labels) for labels, _ in rows)))
    for i, (labels, features) in enumerate(rows):
        Q[i, labels] = 1.0 / len(labels)
        for idx, val in features.items():
            X[i, idx] = val
    return LabeledDataset(X=X, Q=Q)


def write_libsvm_multilabel(dataset: LabeledDataset, path) -> None:
    """Write a dataset in multi-label LIBSVM format.

    Only the label sets survive a round trip: the format has no field for
    proportions, so readers reconstruct uniform targets.  Feature values
    are written with shortest round-trip precision and zeros are omitted.
    """
    with open(path, "w") as fh:
        for i in range(dataset.n_examples):
            labels = np.nonzero(dataset.Q[i] > 0.0)[0]
            label_part = ",".join(str(k + 1) for k in labels)
            cols = np.nonzero(dataset.X[i] != 0.0)[0]
            feat_part = " ".join(f"{j + 1}:{float(dataset.X[i, j])!r}" for j in cols)
            fh.write(f"{label_part} {feat_part}".rstrip() + "\n")


def standardize_features(train: LabeledDataset, test: LabeledDataset):
    """Center and scale features to zero mean and unit variance.

    Statistics come from the training split only and are applied to both.
    Near-constant columns (std below 1e-12) are centered but not divided.
    Returns the new (train, test) pair.
    """
    if train.n_features != test.n_features:
        raise ValueError("train and test feature dimensions differ")
    means = train.X.mean(axis=0)
    stds = train.X.std(axis=0)
    scale = np.where(stds < 1e-12, 1.0, stds)
    new_train = LabeledDataset(X=(train.X - means) / scale, Q=train.Q)
    new_test = LabeledDataset(X=(test.X - means) / scale, Q=test.Q)
    return new_train, new_test
