"""Synthetic task generation, partitioner properties, and CSV round-trips."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfedmb import data
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
)
from pfedmb.errors import ConfigurationError, ParseError, PartitionError
from pfedmb.federation import setup_experiment


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
            net = nn.step_network(net, g, 0.1, True)  # the test owns net
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


def test_apportion_of_rows_equals_one_call_per_row():
    rng = np.random.default_rng(1)
    for _ in range(200):
        rows, k = int(rng.integers(1, 12)), int(rng.integers(1, 120))
        w = rng.dirichlet(np.full(k, rng.uniform(0.05, 3.0)), size=rows)
        w[rng.uniform(size=w.shape) < 0.3] = 0.0
        w[np.arange(rows), rng.integers(0, k, size=rows)] += rng.uniform(0.1, 1.0, size=rows)
        totals = rng.integers(0, 500, size=rows)
        got = apportion(totals, w)
        assert got.dtype == np.int64 and got.shape == (rows, k)
        for row, total, weights in zip(got, totals, w):
            np.testing.assert_array_equal(row, apportion(int(total), weights))
            np.testing.assert_array_equal(row, reference_apportion(int(total), weights))


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


# one small task per scheme, sized so that some draws leave a class unowned or
# a client's split empty (the redraw path); the seed drives the task and the spec
PINNED_CASES = {
    "random_k_classes": (dict(num_classes=6, samples_per_class=24), RandomKClasses(k=2), 4),
    "dirichlet": (dict(num_classes=5, samples_per_class=30), Dirichlet(beta=0.3), 6),
    "size_heterogeneous": (dict(num_classes=5, samples_per_class=36), SizeHeterogeneous(k=2), 4),
    "paired_clusters": (
        dict(num_classes=7, samples_per_class=18), PairedClusters(num_pairs=3, classes_per_pair=2), 6
    ),
}

PINNED_PARTITIONS = {
    ("random_k_classes", 0):
        "4223fad0d76998e614879378787206e0d409a628ebd6ffdaa3197ade2aa65117",
    ("random_k_classes", 1):
        "3ec2bf8eca49c7b41505b8e742faa99f75c4613f000e95e5d336f0165656aa72",
    ("dirichlet", 0):
        "af9103995b154a089f33f3d5e5fb92473243e14f2123fd57a0c694636952310a",
    ("dirichlet", 1):
        "1bc4e4823ea262460c0d937d45fa79291b5cdf399f0cbb6a9ca2102c7c682910",
    ("size_heterogeneous", 0):
        "9b5075c9eee67d5d06a7f536b3f60721caf2ab6d434edb0d7c39ea4f0a251c31",
    ("size_heterogeneous", 1):
        "1fe1995c7c4d751248af48a7d14c01b31c56e6390c27ee0d82476d0dbce2985a",
    ("paired_clusters", 0):
        "70fefd518a1d26252215ee3e7345a6c6a98193649e96de6366f38dfcc7ac837a",
    ("paired_clusters", 1):
        "df2d5d8b0f0db917bba7111acf6158aec48cabaf59b2589bcca006713101cc1e",
}


@pytest.mark.parametrize("scheme, seed", sorted(PINNED_PARTITIONS))
def test_partition_bytes_are_pinned(scheme, seed):
    """The task and every index array of every split keep dtype, shape and bytes."""
    task, spec_scheme, clients = PINNED_CASES[scheme]
    ds = small_task(input_dim=3, seed=seed, **task)
    p = partition(ds, PartitionSpec(spec_scheme, num_clients=clients, seed=seed))
    digest = hashlib.sha256()
    for _, lists in [("task", [ds.features, ds.labels]), *splits_of(p)]:
        for idx in lists:
            digest.update(f"{idx.dtype.str}{idx.shape}".encode())
            digest.update(idx.tobytes())
    assert digest.hexdigest() == PINNED_PARTITIONS[scheme, seed]


# data and partition of the three bench workload shapes, copied here
SHARD_CASES = {
    "paired_clusters": (10, dict(num_classes=10, input_dim=20, noise_std=0.7,
                                 samples_per_class=60),
                        dict(scheme="paired_clusters", num_pairs=5, classes_per_pair=2)),
    "dirichlet": (50, dict(num_classes=20, input_dim=64, class_mean_scale=2.0,
                           noise_std=0.7, samples_per_class=400),
                  dict(scheme="dirichlet", beta=0.5)),
    "random_k_classes": (100, dict(num_classes=10, input_dim=32, noise_std=0.7,
                                   samples_per_class=600),
                         dict(scheme="random_k_classes", k=3)),
}

PINNED_SHARDS = {
    "paired_clusters":
        "580b610a46e4e720f2ec1dd01292582b231236c4f86df0f6b98e1333e4757f10",
    "dirichlet":
        "db628a2072f905d0b1b9981364008db5857308d84e13f27db6152e644f7bcf39",
    "random_k_classes":
        "76c494e2d8008862ed36bbbc382aa739434e91dc5f3c0d9425a72fab66010a93",
}


@pytest.mark.parametrize("case", sorted(PINNED_SHARDS))
def test_client_shard_bytes_are_pinned(case, config_factory):
    """Every client's train and test arrays keep dtype, shape, layout and bytes."""
    clients, task, scheme = SHARD_CASES[case]
    cfg = config_factory(clients=clients, data={"synthetic": task}, partition=scheme, seed=3)
    _, states = setup_experiment(cfg)
    digest = hashlib.sha256()
    for client in states:
        for shard in (client.shard, client.test_shard):
            for a in (shard.features, shard.labels):
                digest.update(f"{a.dtype.str}{a.shape}{a.flags.c_contiguous}".encode())
                digest.update(a.tobytes())
    assert digest.hexdigest() == PINNED_SHARDS[case]


# partition as it was written before it apportioned every class at once: a loop over the
# classes and their splits, one 1-D largest-remainder call per pool
def reference_apportion(total, weights):
    w = np.asarray(weights, dtype=np.float64)
    quotas = total * w / w.sum()
    counts = np.floor(quotas).astype(np.int64)
    frac = quotas - counts
    leftover = total - counts.sum()
    if leftover > 0:
        order = np.argsort(-frac, kind="stable")
        counts[order[:leftover]] += 1
    return counts


def reference_partition(dataset, spec):
    data._check_class_count(spec, dataset.num_classes)
    n = spec.num_clients
    per_class = data._group(dataset.labels, dataset.num_classes)
    for attempt in range(data.MAX_PARTITION_ATTEMPTS):
        rng = np.random.default_rng((spec.seed, attempt))
        weights = data._class_weights(spec, dataset.num_classes, rng)
        if isinstance(spec.scheme, SizeHeterogeneous) and (weights.sum(axis=1) == 0.0).any():
            continue
        owner = np.full(len(dataset), 3 * n)
        for c, members in enumerate(per_class):
            shuffled = rng.permutation(members)
            if weights[c].sum() == 0.0:
                continue
            ends = np.cumsum(reference_apportion(len(shuffled), data.DEFAULT_SPLIT_RATIO))
            ends = ends.tolist()
            for s, pool in enumerate(shuffled[a:b] for a, b in zip([0, *ends], ends)):
                shares = reference_apportion(len(pool), weights[c])
                owner[pool] = np.repeat(s * n + np.arange(n), shares)
        groups = data._group(owner, 3 * n)
        if all(len(g) > 0 for g in groups):
            return data.Partition(train=groups[:n], val=groups[n : 2 * n], test=groups[2 * n :])
    raise PartitionError(
        f"no viable partition after {data.MAX_PARTITION_ATTEMPTS} attempts "
        f"(seed={spec.seed}); dataset too small for the spec"
    )


def outcome(fn, ds, spec):
    """Every index array of fn's partition (dtype and values), or the error it raised."""
    try:
        p = fn(ds, spec)
    except (ConfigurationError, PartitionError) as exc:
        return type(exc), str(exc)
    return [(idx.dtype.str, idx.tolist()) for _, lists in splits_of(p) for idx in lists]


@st.composite
def partition_cases(draw):
    """A small task, some of whose classes may have no samples, and a spec of any scheme:
    Dirichlet beta 0.1-3, k-class schemes that leave classes unheld, size-heterogeneous
    specs that redraw, and datasets too small to split (PartitionError)."""
    classes = draw(st.integers(2, 8))
    present = draw(st.integers(2, classes))  # classes past `present` have no samples
    per_class = draw(st.integers(1, 40))
    task = small_task(num_classes=present, samples_per_class=per_class,
                      seed=draw(st.integers(0, 50)))
    ds = LabeledDataset(task.features, task.labels, classes)
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(sorted(data.SCHEMES)))
    if kind == "dirichlet":
        scheme = Dirichlet(beta=draw(st.floats(0.1, 3.0)))
    elif kind == "random_k_classes":
        scheme = RandomKClasses(k=draw(st.integers(1, classes + 1)))
    elif kind == "size_heterogeneous":
        u_min = draw(st.floats(0.05, 1.0))
        scheme = SizeHeterogeneous(k=draw(st.integers(1, classes)), u_min=u_min,
                                   u_max=u_min + draw(st.floats(0.0, 1.0)))
    else:
        scheme = PairedClusters(num_pairs=-(-n // 2), classes_per_pair=draw(st.integers(1, 3)))
        n = 2 * scheme.num_pairs
    return ds, PartitionSpec(scheme, num_clients=n, seed=draw(st.integers(0, 2**32)))


DIFFERENTIAL_SPECS = 300


@settings(max_examples=DIFFERENTIAL_SPECS)
@given(case=partition_cases())
def test_partition_equals_its_class_by_class_loop(case):
    """Apportioning every class and pool at once keeps every draw and every index array,
    and raises the loop's errors with the loop's messages."""
    ds, spec = case
    assert outcome(partition, ds, spec) == outcome(reference_partition, ds, spec)


def test_subset_copies_rows_and_refuses_no_rows():
    ds = small_task()
    rows = ds.subset([5, 0, 5])
    assert rows.labels.tolist() == ds.labels[[5, 0, 5]].tolist()
    assert not np.shares_memory(rows.features, ds.features)
    assert not np.shares_memory(rows.labels, ds.labels)
    with pytest.raises(ConfigurationError, match="nonempty"):
        ds.subset([])


def test_partition_too_small_to_split_names_its_seed():
    # 2 classes x 6 samples leave 2 validation samples for 6 clients
    ds = small_task(num_classes=2, samples_per_class=6)
    spec = PartitionSpec(Dirichlet(beta=0.3), num_clients=6, seed=5)
    with pytest.raises(PartitionError) as info:
        partition(ds, spec)
    assert str(info.value) == (
        "no viable partition after 100 attempts (seed=5); dataset too small for the spec"
    )


# ------------------------------------------------------------------------- CSV

def test_csv_shape_and_round_trip(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("label,f1,f2\n0,1.5,2.0\n1,0.25,-1.0\n0,3.0,4.5\n")
    ds = load_csv(path)
    assert ds.features.shape == (3, 2)
    assert ds.num_classes == 2
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    # a repr-printed float loads bit for bit
    exact = 0.1 + 0.2
    path.write_text(f"label,f1\n0,{exact!r}\n")
    assert load_csv(path).features[0, 0].tobytes() == np.float64(exact).tobytes()


def test_csv_with_a_utf8_bom_loads_like_the_plain_file(tmp_path):
    text = "label,f1,f2\n0,1.5,2.0\n1,0.25,-1.0\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(text.encode("utf-8-sig"))  # as spreadsheets save "CSV UTF-8"
    a, b = load_csv(plain), load_csv(bom)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes() and a.num_classes == b.num_classes


def test_csv_labels_reindexed_densely(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("label,f1\n10,0.0\n30,1.0\n10,2.0\n20,3.0\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.labels, [0, 2, 0, 1])
    assert ds.num_classes == 3


def test_csv_rejects_non_integer_labels(tmp_path):
    path = tmp_path / "frac.csv"
    path.write_text("label,f1\n0.5,0.0\n1.7,1.0\n0.5,2.0\n1.7,3.0\n")
    with pytest.raises(ParseError, match=r"frac\.csv: line 2: label 0\.5 is not an integer"):
        load_csv(path)

    # integral spellings still load and are re-indexed as before
    path.write_text("label,f1\n1.0,0.0\n-3,1.0\n1.0,2.0\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.labels, [1, 0, 1])
    assert ds.num_classes == 2


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


def test_dataset_rejects_non_integer_labels():
    for labels in ([0.5, 1.7, 0.0], [0.0, np.nan, 1.0], ["0", "1", "0"]):
        with pytest.raises(ConfigurationError, match="one integer per sample"):
            LabeledDataset(np.zeros((3, 2)), labels, 2)
    # integral floats are still labels
    dataset = LabeledDataset(np.zeros((3, 2)), [1.0, 0.0, 1.0], 2)
    assert dataset.labels.dtype == np.int64 and dataset.labels.tolist() == [1, 0, 1]
