"""Synthetic task generation, partitioner properties, and CSV round-trips."""

import numpy as np
import pytest

from pfedmb.data import (
    Dirichlet,
    LabeledDataset,
    PairedClusters,
    PartitionSpec,
    RandomKClasses,
    SizeHeterogeneous,
    SyntheticTaskSpec,
    apportion,
    generate_synthetic,
    load_csv,
    partition,
    save_csv,
)
from pfedmb.errors import ConfigurationError, ParseError


def small_task(**kw):
    base = dict(num_classes=4, input_dim=3, noise_std=0.5, samples_per_class=48, seed=7)
    base.update(kw)
    return generate_synthetic(SyntheticTaskSpec(**base))


# ------------------------------------------------------------------- synthetic

def test_synthetic_is_balanced_and_deterministic():
    a = small_task()
    b = small_task()
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    counts = np.bincount(a.labels, minlength=4)
    assert (counts == 48).all()


def test_synthetic_seed_changes_data():
    a = small_task()
    b = small_task(seed=8)
    assert np.any(a.features != b.features)


def test_synthetic_near_zero_noise_is_linearly_separable():
    ds = small_task(num_classes=2, noise_std=1e-9, samples_per_class=20)
    # nearest-class-mean classifier gets everything right
    means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(2)])
    d = ((ds.features[:, None, :] - means[None]) ** 2).sum(axis=2)
    assert (d.argmin(axis=1) == ds.labels).all()


def test_calibrated_noise_keeps_centralized_mlp_in_band():
    """Fixture for the 10-class/20-dim task: noise_std=0.7 must keep a
    centrally trained MLP between 85% and 95% test accuracy."""
    from pfedmb import nn
    from pfedmb.metrics import evaluate_client

    ds = generate_synthetic(SyntheticTaskSpec(
        num_classes=10, input_dim=20, class_mean_scale=1.0,
        noise_std=0.7, samples_per_class=60, seed=0,
    ))
    p = partition(ds, PartitionSpec(RandomKClasses(k=10), num_clients=1, seed=0))
    train, test = ds.subset(p.train[0]), ds.subset(p.test[0])

    net = nn.init_network([20, 32, 10], 1, seed=[0, 7])
    alpha = nn.uniform_alpha(2, 1)
    rng = np.random.default_rng(0)
    x, y = train.features, train.labels
    for _ in range(60):
        perm = rng.permutation(len(x))
        for s in range(0, len(x), 64):
            idx = perm[s : s + 64]
            _, g = nn.loss_and_grads(net, alpha, (x[idx], y[idx]), wrt="w")
            net = nn.step_network(net, g, 0.1)
    acc = evaluate_client(net, alpha, test)
    assert 0.85 <= acc <= 0.95


def test_synthetic_spec_validation():
    with pytest.raises(ConfigurationError):
        SyntheticTaskSpec(num_classes=1, input_dim=3)
    with pytest.raises(ConfigurationError):
        SyntheticTaskSpec(num_classes=2, input_dim=0)
    with pytest.raises(ConfigurationError):
        SyntheticTaskSpec(num_classes=2, input_dim=3, noise_std=0.0)


# ------------------------------------------------------------------- apportion

def test_apportion_conserves_and_rounds_by_remainder():
    counts = apportion(10, [1, 1, 1])
    assert counts.sum() == 10
    np.testing.assert_array_equal(counts, [4, 3, 3])
    # quotas 3.5/1.75/1.75 -> floors 3/1/1, remainders 0.5/0.75/0.75
    counts = apportion(7, [0.5, 0.25, 0.25])
    np.testing.assert_array_equal(counts, [3, 2, 2])
    np.testing.assert_array_equal(apportion(5, [0.0, 1.0]), [0, 5])
    assert apportion(0, [1.0, 2.0]).sum() == 0


def test_apportion_never_pays_zero_weight_entries():
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = rng.uniform(size=6)
        w[rng.integers(0, 6)] = 0.0
        counts = apportion(int(rng.integers(1, 50)), w)
        assert (counts[w == 0.0] == 0).all()


# ----------------------------------------------------------------- partitioner

def splits_of(p):
    return [("train", p.train), ("val", p.val), ("test", p.test)]


def assert_partition_sane(ds, p, n):
    for _, lists in splits_of(p):
        flat = np.concatenate(lists)
        assert len(np.unique(flat)) == len(flat)  # no duplicates
        assert flat.min() >= 0 and flat.max() < len(ds)
    # the three splits are mutually disjoint as well
    all_idx = np.concatenate([np.concatenate(lists) for _, lists in splits_of(p)])
    assert len(np.unique(all_idx)) == len(all_idx)
    assert all(len(lists) == n for _, lists in splits_of(p))


def test_single_client_owns_everything_with_full_k():
    ds = small_task()
    spec = PartitionSpec(RandomKClasses(k=4), num_clients=1, seed=0)
    p = partition(ds, spec)
    assert_partition_sane(ds, p, 1)
    total = sum(len(lists[0]) for _, lists in splits_of(p))
    assert total == len(ds)


def test_random_k_classes_gives_exactly_k_labels():
    ds = small_task(num_classes=6, samples_per_class=60)
    spec = PartitionSpec(RandomKClasses(k=2), num_clients=5, seed=3)
    p = partition(ds, spec)
    assert_partition_sane(ds, p, 5)
    for i in range(5):
        labels = set(ds.labels[p.train[i]]) | set(ds.labels[p.test[i]])
        assert len(set(ds.labels[p.train[i]])) == 2
        assert labels == set(ds.labels[p.train[i]])


def test_paired_clusters_share_classes_and_pairs_are_disjoint():
    ds = small_task(num_classes=10, samples_per_class=36)
    spec = PartitionSpec(
        PairedClusters(num_pairs=5, classes_per_pair=2), num_clients=10, seed=1
    )
    p = partition(ds, spec)
    assert_partition_sane(ds, p, 10)
    pair_classes = []
    for m in range(5):
        c0 = set(ds.labels[p.train[2 * m]])
        c1 = set(ds.labels[p.train[2 * m + 1]])
        assert c0 == c1
        assert len(c0) == 2
        pair_classes.append(c0)
    for a in range(5):
        for b in range(a + 1, 5):
            assert not (pair_classes[a] & pair_classes[b])


def test_dirichlet_assigns_every_sample():
    ds = small_task(num_classes=5, samples_per_class=90)
    spec = PartitionSpec(Dirichlet(beta=0.4), num_clients=4, seed=11)
    p = partition(ds, spec)
    assert_partition_sane(ds, p, 4)
    assigned = sum(len(idx) for _, lists in splits_of(p) for idx in lists)
    assert assigned == len(ds)


def test_dirichlet_matches_independent_reference_sampler():
    """Re-derive the per-client class histograms with separately written code."""
    ds = small_task(num_classes=6, samples_per_class=120, seed=21)
    n_clients, seed = 15, 5
    spec = PartitionSpec(Dirichlet(beta=0.4), num_clients=n_clients, seed=seed)
    p = partition(ds, spec)

    # Reference: same RNG algorithm and draw order, own allocation arithmetic.
    rng = np.random.default_rng((seed, 0))
    proportions = [rng.dirichlet([0.4] * n_clients) for _ in range(6)]
    expected = np.zeros((n_clients, 6), dtype=int)
    for c in range(6):
        class_idx = np.flatnonzero(ds.labels == c)
        rng.permutation(class_idx)  # consumed by the shuffle; counts don't depend on it
        for pool in (80, 20, 20):  # 120 split 4:1:1
            quota = [pool * q for q in proportions[c]]
            take = [int(np.floor(q)) for q in quota]
            rest = pool - sum(take)
            by_frac = sorted(
                range(n_clients), key=lambda i: (-(quota[i] - take[i]), i)
            )
            for i in by_frac[:rest]:
                take[i] += 1
            for i in range(n_clients):
                expected[i, c] += take[i]

    got = np.zeros((n_clients, 6), dtype=int)
    for _, lists in splits_of(p):
        for i in range(n_clients):
            got[i] += np.bincount(ds.labels[lists[i]], minlength=6)
    np.testing.assert_array_equal(got, expected)


def test_size_heterogeneous_fractions_and_totality():
    ds = small_task(num_classes=5, samples_per_class=120)
    spec = PartitionSpec(SizeHeterogeneous(k=3), num_clients=6, seed=2)
    p = partition(ds, spec)
    assert_partition_sane(ds, p, 6)
    assigned = sum(len(idx) for _, lists in splits_of(p) for idx in lists)
    assert assigned == len(ds)
    for i in range(6):
        assert len(set(ds.labels[p.train[i]])) == 3


def test_partition_determinism():
    ds = small_task(num_classes=5, samples_per_class=60)
    spec = PartitionSpec(Dirichlet(beta=0.4), num_clients=3, seed=9)
    a, b = partition(ds, spec), partition(ds, spec)
    for (_, la), (_, lb) in zip(splits_of(a), splits_of(b)):
        for x, y in zip(la, lb):
            np.testing.assert_array_equal(x, y)


def test_infeasible_specs_raise_configuration_errors():
    ds = small_task(num_classes=4)
    with pytest.raises(ConfigurationError):
        partition(ds, PartitionSpec(RandomKClasses(k=5), num_clients=2, seed=0))
    with pytest.raises(ConfigurationError):
        partition(
            ds,
            PartitionSpec(PairedClusters(num_pairs=3, classes_per_pair=2), 6, seed=0),
        )
    with pytest.raises(ConfigurationError):
        partition(
            ds,
            PartitionSpec(PairedClusters(num_pairs=2, classes_per_pair=2), 5, seed=0),
        )
    with pytest.raises(ConfigurationError):
        partition(ds, PartitionSpec(SizeHeterogeneous(k=1), num_clients=2, seed=0))
    with pytest.raises(ConfigurationError):
        partition(ds, PartitionSpec(Dirichlet(beta=0.0), num_clients=2, seed=0))


def test_conservation_over_randomized_specs():
    rng = np.random.default_rng(123)
    for case in range(60):
        c = int(rng.integers(3, 8))
        n = int(rng.integers(2, 7))
        ds = small_task(
            num_classes=c, samples_per_class=int(rng.integers(8, 15)) * n, seed=case
        )
        kind = case % 4
        if kind == 0:
            scheme = RandomKClasses(k=int(rng.integers(1, c + 1)))
        elif kind == 1:
            scheme = Dirichlet(beta=float(rng.uniform(0.2, 3.0)))
        elif kind == 2:
            k_min = -(-c // n)  # ceil(c / n), keeps class coverage feasible
            scheme = SizeHeterogeneous(k=int(rng.integers(k_min, c + 1)))
        else:
            pairs = int(rng.integers(1, c // 2 + 1))
            scheme = PairedClusters(num_pairs=pairs, classes_per_pair=2)
            n = 2 * pairs
        p = partition(ds, PartitionSpec(scheme, num_clients=n, seed=case))
        assert_partition_sane(ds, p, n)
        if kind in (1, 2):
            assigned = sum(len(i) for _, lists in splits_of(p) for i in lists)
            assert assigned == len(ds)


# ------------------------------------------------------------------------- CSV

def test_csv_shape_and_round_trip(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("label,f1,f2\n0,1.5,2.0\n1,0.25,-1.0\n0,3.0,4.5\n")
    ds = load_csv(path)
    assert ds.features.shape == (3, 2)
    assert ds.num_classes == 2
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    gen = small_task()
    out = tmp_path / "gen.csv"
    save_csv(gen, out)
    back = load_csv(out)
    np.testing.assert_array_equal(back.features, gen.features)
    np.testing.assert_array_equal(back.labels, gen.labels)
    assert back.num_classes == gen.num_classes


def test_csv_labels_reindexed_densely(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("label,f1\n10,0.0\n30,1.0\n10,2.0\n20,3.0\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.labels, [0, 2, 0, 1])
    assert ds.num_classes == 3


def test_csv_errors_name_the_line(tmp_path):
    bad_value = tmp_path / "bad.csv"
    bad_value.write_text("label,f1,f2\n0,1.0,2.0\n1,oops,3.0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(bad_value)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("label,f1,f2\n0,1.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(ragged)

    with pytest.raises(ParseError, match="header"):
        no_header = tmp_path / "nohdr.csv"
        no_header.write_text("0,1.0,2.0\n")
        load_csv(no_header)

    with pytest.raises(ParseError, match="no such file"):
        load_csv(tmp_path / "missing.csv")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_csv_rejects_non_finite_features_naming_the_line(tmp_path, value):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"label,f1,f2\n1,2.0,3.0\n0,1.0,{value}\n")
    with pytest.raises(ParseError, match="line 3: non-finite"):
        load_csv(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(value):
    features = np.zeros((3, 2))
    features[1, 0] = value
    with pytest.raises(ConfigurationError, match="finite"):
        LabeledDataset(features, [0, 1, 0], 2)
