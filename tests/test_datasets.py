import logging
import time

import numpy as np
import pytest
from scipy import stats

from sparsemax import (
    LabeledDataset,
    SyntheticConfig,
    generate_synthetic,
    read_libsvm_multilabel,
    standardize_features,
    write_libsvm_multilabel,
)

pytestmark = pytest.mark.filterwarnings("error")


@pytest.fixture(scope="module")
def big_sample():
    cfg = SyntheticConfig(
        n_labels=10,
        n_train=10_000,
        n_test=1,
        mean_doc_length=100.0,
        mean_labels=2.0,
        seed=123,
    )
    train, _ = generate_synthetic(cfg)
    return cfg, train


class TestSyntheticConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_labels=1, n_train=5, n_test=5, mean_doc_length=10.0)
        with pytest.raises(ValueError):
            SyntheticConfig(n_labels=3, n_train=0, n_test=5, mean_doc_length=10.0)
        with pytest.raises(ValueError):
            SyntheticConfig(n_labels=3, n_train=5, n_test=5, mean_doc_length=-1.0)
        with pytest.raises(ValueError):
            SyntheticConfig(n_labels=3, n_train=5, n_test=5, mean_doc_length=10.0, mixture="zipf")


class TestGenerator:
    def test_bitwise_reproducible(self):
        cfg = SyntheticConfig(n_labels=5, n_train=40, n_test=20, mean_doc_length=30.0, seed=7)
        train_a, test_a = generate_synthetic(cfg)
        train_b, test_b = generate_synthetic(cfg)
        assert np.array_equal(train_a.X, train_b.X)
        assert np.array_equal(train_a.Q, train_b.Q)
        assert np.array_equal(test_a.X, test_b.X)
        assert np.array_equal(test_a.Q, test_b.Q)

    def test_seed_changes_data(self):
        base = dict(n_labels=5, n_train=40, n_test=20, mean_doc_length=30.0)
        train_a, _ = generate_synthetic(SyntheticConfig(seed=1, **base))
        train_b, _ = generate_synthetic(SyntheticConfig(seed=2, **base))
        assert not np.array_equal(train_a.X, train_b.X)

    def test_shapes_and_targets(self):
        cfg = SyntheticConfig(n_labels=6, n_train=50, n_test=25, mean_doc_length=40.0, seed=3)
        train, test = generate_synthetic(cfg)
        assert train.X.shape == (50, 6) and train.Q.shape == (50, 6)
        assert test.X.shape == (25, 6)
        for ds in (train, test):
            assert np.allclose(ds.Q.sum(axis=1), 1.0, atol=1e-9)
            active = (ds.Q > 0).sum(axis=1)
            assert active.min() >= 1 and active.max() <= 6
            assert np.all(ds.X >= 0)
            assert np.array_equal(ds.X, np.round(ds.X))

    def test_uniform_mixture_rows_are_uniform(self):
        cfg = SyntheticConfig(
            n_labels=6, n_train=200, n_test=1, mean_doc_length=20.0, mixture="uniform", seed=5
        )
        train, _ = generate_synthetic(cfg)
        for row in train.Q:
            active = row[row > 0]
            assert np.allclose(active, 1.0 / active.size, atol=1e-12)

    def test_dirichlet_mixture_rows_vary(self):
        cfg = SyntheticConfig(
            n_labels=6,
            n_train=200,
            n_test=1,
            mean_doc_length=20.0,
            mixture="random_dirichlet",
            seed=5,
        )
        train, _ = generate_synthetic(cfg)
        multi = train.Q[(train.Q > 0).sum(axis=1) >= 2]
        spreads = [row[row > 0].max() - row[row > 0].min() for row in multi]
        assert np.median(spreads) > 0.05

    def test_small_label_mean_favors_single_labels(self):
        cfg = SyntheticConfig(
            n_labels=5, n_train=300, n_test=1, mean_doc_length=20.0, mean_labels=0.2, seed=9
        )
        train, _ = generate_synthetic(cfg)
        # Poisson(0.2) conditioned on 1..5 puts about 0.90 on a single label.
        singles = np.mean((train.Q > 0).sum(axis=1) == 1)
        assert singles > 0.8

    def test_degenerate_label_mean_rejected(self):
        # Either tail would make the rejection sampler spin nearly forever.
        with pytest.raises(ValueError, match="mass"):
            SyntheticConfig(n_labels=5, n_train=10, n_test=1, mean_doc_length=20.0, mean_labels=1e-9)
        with pytest.raises(ValueError, match="mass"):
            SyntheticConfig(n_labels=5, n_train=10, n_test=1, mean_doc_length=20.0, mean_labels=50.0)

    def test_label_mass_check_is_quick_at_any_label_count(self):
        # The check sums from the mode outward and stops once the answer is
        # known, so it does not visit every count up to n_labels.
        for n_labels in (10**7, 10**20):
            start = time.perf_counter()
            SyntheticConfig(n_labels=n_labels, n_train=1, n_test=1, mean_doc_length=1.0)
            assert time.perf_counter() - start < 0.1, n_labels
        with pytest.raises(ValueError, match="mass"):
            SyntheticConfig(n_labels=10**20, n_train=1, n_test=1, mean_doc_length=1.0, mean_labels=1e-9)
        # Past a mean of 1e12 the normal approximation decides.
        SyntheticConfig(n_labels=10**20, n_train=1, n_test=1, mean_doc_length=1.0, mean_labels=1e20)
        with pytest.raises(ValueError, match="mass"):
            SyntheticConfig(n_labels=10**19, n_train=1, n_test=1, mean_doc_length=1.0, mean_labels=1e20)

    def test_label_mass_check_does_not_underflow(self):
        # exp(-1000) is 0.0, yet Poisson(1000) puts almost all its mass on 1..5000.
        SyntheticConfig(n_labels=5000, n_train=1, n_test=1, mean_doc_length=1.0, mean_labels=1000.0)

    def test_mean_document_length(self, big_sample):
        cfg, train = big_sample
        observed = train.X.sum(axis=1).mean()
        assert abs(observed - cfg.mean_doc_length) / cfg.mean_doc_length < 0.03

    def test_label_count_matches_truncated_poisson(self, big_sample):
        cfg, train = big_sample
        counts = (train.Q > 0).sum(axis=1)
        observed = np.bincount(counts, minlength=cfg.n_labels + 1)[1:]
        pmf = stats.poisson.pmf(np.arange(1, cfg.n_labels + 1), cfg.mean_labels)
        pmf = pmf / pmf.sum()
        expected = pmf * counts.size
        # Merge the sparse upper tail so every bin has a healthy expectation.
        keep = expected.size
        while keep > 1 and expected[keep - 1 :].sum() < 5.0:
            keep -= 1
        obs = np.append(observed[: keep - 1], observed[keep - 1 :].sum())
        exp = np.append(expected[: keep - 1], expected[keep - 1 :].sum())
        result = stats.chisquare(obs, exp)
        assert result.pvalue > 0.01


class TestLabeledDataset:
    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            LabeledDataset(X=np.zeros((3, 2)), Q=np.full((2, 2), 0.5))

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            LabeledDataset(X=np.zeros((1, 2)), Q=np.array([[0.7, 0.7]]))
        with pytest.raises(ValueError):
            LabeledDataset(X=np.zeros((1, 2)), Q=np.array([[1.5, -0.5]]))

    def test_label_sets_and_subset(self):
        ds = LabeledDataset(
            X=np.arange(6.0).reshape(3, 2),
            Q=np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]),
        )
        assert [set(np.flatnonzero(row > 0)) for row in ds.Q] == [{0}, {0, 1}, {1}]
        sub = ds.subset([2, 0])
        assert [set(np.flatnonzero(row > 0)) for row in sub.Q] == [{1}, {0}]
        assert np.array_equal(sub.X, ds.X[[2, 0]])


def assert_equal_up_to_zero_columns(read, expected):
    """The reader sizes a split by the indices its file mentions, so it
    drops trailing all-zero columns of the expected array and nothing else."""
    width = read.shape[1]
    assert np.array_equal(read, expected[:, :width])
    assert not np.any(expected[:, width:])


class TestLibsvmIO:
    def test_parse_documented_line(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("1,3 2:1.5\n")
        ds = read_libsvm_multilabel(path)
        assert np.array_equal(ds.Q, [[0.5, 0.0, 0.5]])
        assert_equal_up_to_zero_columns(ds.X, np.array([[0.0, 1.5, 0.0]]))

    def test_single_label_multiple_features(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("2 1:1.0 3:-2.5\n1 2:4.0\n")
        ds = read_libsvm_multilabel(path)
        assert ds.n_labels == 2 and ds.n_features == 3
        assert [set(np.flatnonzero(row > 0)) for row in ds.Q] == [{1}, {0}]
        assert np.array_equal(ds.X, [[1.0, 0.0, -2.5], [0.0, 4.0, 0.0]])

    def test_unlabeled_lines_dropped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "toy.svm"
        path.write_text("1 1:1.0\n2:9.0 3:1.0\n2 2:2.0\n")
        with caplog.at_level(logging.WARNING, logger="sparsemax.datasets"):
            ds = read_libsvm_multilabel(path)
        assert ds.n_examples == 2
        assert "dropped 1 line(s)" in caplog.text

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("\n1 1:1.0\n\n")
        assert read_libsvm_multilabel(path).n_examples == 1

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("1 1:1.0\n1 banana\n")
        with pytest.raises(ValueError, match="2"):
            read_libsvm_multilabel(path)

    def test_repeated_label_reports_position(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("2 1:1.0\n1,1 1:2\n")
        with pytest.raises(ValueError, match="toy.svm:2: repeated label 1"):
            read_libsvm_multilabel(path)

    def test_repeated_feature_reports_position(self, tmp_path):
        # Neither value of a repeated index is kept silently.
        path = tmp_path / "toy.svm"
        path.write_text("2 1:1.0\n1 1:2 1:3\n")
        with pytest.raises(ValueError, match="toy.svm:2: repeated feature 1"):
            read_libsvm_multilabel(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_position(self, tmp_path, value):
        path = tmp_path / "toy.svm"
        path.write_text(f"2 1:1.0\n1 2:{value}\n")
        with pytest.raises(ValueError, match=f"toy.svm:2: feature 2 is not finite: {value}"):
            read_libsvm_multilabel(path)

    def test_zero_based_labels_rejected(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("0 1:1.0\n")
        with pytest.raises(ValueError, match="1-based"):
            read_libsvm_multilabel(path)

    def test_all_lines_unlabeled_is_an_error(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("1:1.0\n2:2.0\n")
        with pytest.raises(ValueError, match="no labeled examples"):
            read_libsvm_multilabel(path)

    def test_round_trip(self, tmp_path):
        cfg = SyntheticConfig(
            n_labels=5, n_train=30, n_test=1, mean_doc_length=25.0, mixture="uniform", seed=21
        )
        train, _ = generate_synthetic(cfg)
        path = tmp_path / "round.svm"
        write_libsvm_multilabel(train, path)
        back = read_libsvm_multilabel(path)
        assert_equal_up_to_zero_columns(back.X, train.X)
        assert_equal_up_to_zero_columns(back.Q, train.Q)

    def test_round_trip_fractional_values(self, tmp_path):
        ds = LabeledDataset(
            X=np.array([[0.1, 0.0, np.pi], [1e-17, 3.0, 0.0]]),
            Q=np.array([[0.5, 0.5], [1.0, 0.0]]),
        )
        path = tmp_path / "frac.svm"
        write_libsvm_multilabel(ds, path)
        back = read_libsvm_multilabel(path)
        assert_equal_up_to_zero_columns(back.X, ds.X)
        assert_equal_up_to_zero_columns(back.Q, ds.Q)


class TestStandardize:
    def test_train_columns_become_standard(self):
        rng = np.random.default_rng(0)
        train = LabeledDataset(X=rng.normal(3, 5, size=(40, 3)), Q=np.tile([1.0, 0.0], (40, 1))[:, :2])
        test = LabeledDataset(X=rng.normal(3, 5, size=(10, 3)), Q=np.tile([1.0, 0.0], (10, 1))[:, :2])
        new_train, new_test = standardize_features(train, test)
        np.testing.assert_allclose(new_train.X.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(new_train.X.std(axis=0), 1.0, atol=1e-10)

    def test_test_uses_train_statistics(self):
        train = LabeledDataset(X=np.array([[0.0], [2.0]]), Q=np.array([[1.0], [1.0]]))
        test = LabeledDataset(X=np.array([[4.0]]), Q=np.array([[1.0]]))
        _, new_test = standardize_features(train, test)
        assert np.array_equal(new_test.X, [[3.0]])

    def test_constant_feature_centered_not_scaled(self):
        train = LabeledDataset(
            X=np.array([[5.0, 1.0], [5.0, 3.0]]), Q=np.array([[1.0, 0.0], [1.0, 0.0]])
        )
        test = LabeledDataset(X=np.array([[5.0, 2.0]]), Q=np.array([[1.0, 0.0]]))
        new_train, new_test = standardize_features(train, test)
        assert np.array_equal(new_train.X[:, 0], [0.0, 0.0])
        assert np.array_equal(new_test.X[:, 0], [0.0])

    def test_targets_pass_through(self):
        train = LabeledDataset(X=np.array([[0.0], [2.0]]), Q=np.array([[1.0], [1.0]]))
        test = LabeledDataset(X=np.array([[4.0]]), Q=np.array([[1.0]]))
        new_train, new_test = standardize_features(train, test)
        assert np.array_equal(new_train.Q, train.Q)
        assert np.array_equal(new_test.Q, test.Q)
