"""Config file parsing, defaults, overrides, and exhaustive validation."""

import collections
import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from pfedmb.config import DEFAULT_BATCH_SIZE, DEFAULT_LOCAL_EPOCHS, TOP_KEYS, parse_config
from pfedmb.data import PartitionSpec, SyntheticTaskSpec
from pfedmb.errors import ParseError, ValidationError
from pfedmb.federation import setup_experiment


def valid_raw(**overrides):
    raw = {
        "method": "pfedmb",
        "clients": 4,
        "participation": 1.0,
        "rounds": 3,
        "branches": 2,
        "lr_alpha": 0.5,
        "lr_w": 0.1,
        "shared_alpha": False,
        "hidden_dims": [8],
        "data": {"synthetic": {"num_classes": 3, "input_dim": 4,
                               "noise_std": 0.5, "samples_per_class": 30}},
        "partition": {"scheme": "dirichlet", "beta": 1.0},
        "seed": 1,
        "output_dir": "out",
    }
    raw.update(overrides)
    return raw


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_empty_file_lists_every_required_field(tmp_path):
    path = write_config(tmp_path, {})
    with pytest.raises(ValidationError) as err:
        parse_config(path)
    text = str(err.value)
    for name in ("method", "clients", "rounds", "branches", "lr_alpha", "lr_w",
                 "shared_alpha", "hidden_dims", "data", "partition", "seed"):
        assert name in text


def test_defaults_for_epochs_and_batch_size(tmp_path):
    cfg = parse_config(write_config(tmp_path, valid_raw()))
    assert cfg.local_epochs == DEFAULT_LOCAL_EPOCHS == 5
    assert cfg.batch_size == DEFAULT_BATCH_SIZE == 64
    assert cfg.threads == 1
    assert cfg.sample_size == 4  # participation 1.0 of 4 clients


def test_flag_override_wins_over_file(tmp_path):
    path = write_config(tmp_path, valid_raw(branches=2))
    cfg = parse_config(path, {"branches": 6, "seed": 9})
    assert cfg.branches == 6
    assert cfg.seed == 9
    assert cfg.semantic_dict()["branches"] == 6


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, valid_raw(extra_knob=1))
    with pytest.raises(ValidationError, match="extra_knob"):
        parse_config(path)
    path = write_config(tmp_path, valid_raw(
        data={"synthetic": {"num_classes": 3, "input_dim": 4, "noise_std": 0.5,
                            "samples_per_class": 30, "typo": 1}}
    ))
    with pytest.raises(ValidationError, match="typo"):
        parse_config(path)
    path = write_config(tmp_path, valid_raw(
        partition={"scheme": "dirichlet", "beta": 1.0, "k": 2}
    ))
    with pytest.raises(ValidationError, match="partition.k"):
        parse_config(path)


def test_fedavg_forces_single_branch(tmp_path):
    path = write_config(tmp_path, valid_raw(method="fedavg", branches=2))
    with pytest.raises(ValidationError, match="fedavg"):
        parse_config(path)
    ok = parse_config(write_config(tmp_path, valid_raw(method="fedavg", branches=1)))
    assert ok.branches == 1


def test_participation_and_sample_size_are_exclusive(tmp_path):
    raw = valid_raw()
    raw["sample_size"] = 2
    with pytest.raises(ValidationError, match="not both"):
        parse_config(write_config(tmp_path, raw))

    raw = valid_raw()
    del raw["participation"]
    raw["sample_size"] = 3
    assert parse_config(write_config(tmp_path, raw)).sample_size == 3

    with pytest.raises(ValidationError, match="participation"):
        parse_config(write_config(tmp_path, valid_raw(participation=1.5)))


def test_an_override_of_either_spelling_replaces_the_files(tmp_path):
    raw = valid_raw(clients=4)
    del raw["participation"]
    raw["sample_size"] = 2
    path = write_config(tmp_path, raw)
    # what `--participation 1.0` passes, over a file that gives sample_size
    assert parse_config(path, {"participation": 1.0}).sample_size == 4
    assert parse_config(write_config(tmp_path, valid_raw(participation=0.5), "p.json"),
                        {"sample_size": 3}).sample_size == 3
    with pytest.raises(ValidationError, match="not both"):
        parse_config(path, {"participation": 1.0, "sample_size": 2})


def test_participation_fraction_rounds_to_sample_size(tmp_path):
    cfg = parse_config(write_config(tmp_path, valid_raw(clients=50, participation=0.2)))
    assert cfg.sample_size == 10
    cfg = parse_config(write_config(tmp_path, valid_raw(clients=3, participation=0.01)))
    assert cfg.sample_size == 1  # never below one client


def test_violations_name_fields_and_accumulate(tmp_path):
    raw = valid_raw(clients=0, branches=-1, lr_w=-0.5, method="nonsense")
    with pytest.raises(ValidationError) as err:
        parse_config(write_config(tmp_path, raw))
    assert len(err.value.violations) >= 4
    text = str(err.value)
    for name in ("clients", "branches", "lr_w", "method"):
        assert name in text


def test_paired_clusters_client_count_cross_check(tmp_path):
    raw = valid_raw(
        clients=5,
        partition={"scheme": "paired_clusters", "num_pairs": 2, "classes_per_pair": 2},
    )
    with pytest.raises(ValidationError, match="num_pairs"):
        parse_config(write_config(tmp_path, raw))


def test_zero_learning_rates_are_explicitly_allowed(tmp_path):
    cfg = parse_config(write_config(tmp_path, valid_raw(lr_alpha=0, lr_w=0)))
    assert cfg.lr_alpha == 0.0 and cfg.lr_w == 0.0


def test_output_dir_falls_back_to_env(tmp_path, monkeypatch):
    raw = valid_raw()
    del raw["output_dir"]
    monkeypatch.delenv("PFEDMB_OUT", raising=False)
    with pytest.raises(ValidationError, match="PFEDMB_OUT"):
        parse_config(write_config(tmp_path, raw))
    monkeypatch.setenv("PFEDMB_OUT", str(tmp_path / "envout"))
    cfg = parse_config(write_config(tmp_path, raw))
    assert cfg.output_dir == str(tmp_path / "envout")


def test_config_without_file_uses_overrides_only():
    overrides = valid_raw()
    cfg = parse_config(None, overrides)
    assert cfg.method == "pfedmb"


def test_parse_errors_name_the_file(tmp_path):
    with pytest.raises(ParseError, match="no such file"):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="line 1"):
        parse_config(bad)


def test_config_with_a_utf8_bom_parses_like_the_plain_file(tmp_path):
    # a non-ASCII path too: the file is read as UTF-8 whatever the locale
    text = json.dumps(valid_raw(output_dir="résultats"), ensure_ascii=False)
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(text.encode("utf-8-sig"))
    assert parse_config(bom) == parse_config(plain)
    assert parse_config(bom).output_dir == "résultats"


def test_csv_data_source_accepted(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("label,f1\n0,1.0\n1,2.0\n")
    cfg = parse_config(write_config(tmp_path, valid_raw(data={"csv": str(csv)})))
    ds = cfg.make_dataset()
    assert ds.num_classes == 2 and ds.input_dim == 1


@pytest.mark.parametrize(
    "overrides, key",
    [
        (dict(method="fedavg", branches=2), "branches"),
        (dict(clients=4, sample_size=5), "sample_size"),
        (dict(clients=4, sample_size=0), "sample_size"),
    ],
)
def test_direct_construction_is_validated(overrides, key):
    with pytest.raises(ValidationError) as err:
        make_config(**overrides)
    assert [v.split(":")[0] for v in err.value.violations] == [key]


def test_setup_builds_each_section_spec_once(tmp_path, monkeypatch):
    built = collections.Counter()
    for cls in (SyntheticTaskSpec, PartitionSpec):
        def counting(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    setup_experiment(parse_config(write_config(tmp_path, valid_raw())))
    assert built == {"SyntheticTaskSpec": 1, "PartitionSpec": 1}


def test_direct_construction_normalizes_rates_and_hidden_dims():
    cfg = make_config(lr_alpha=1, lr_w=0, hidden_dims=[8, 4])
    assert type(cfg.lr_alpha) is float and type(cfg.lr_w) is float
    assert cfg.hidden_dims == (8, 4)


# Any JSON value, the non-finite floats included.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)

PARTITIONS = [
    {"scheme": "dirichlet", "beta": 1.0, "seed": 2},
    {"scheme": "random_k_classes", "k": 2},
    {"scheme": "size_heterogeneous", "k": 2, "u_min": 0.2, "u_max": 0.6},
    {"scheme": "paired_clusters", "num_pairs": 2, "classes_per_pair": 1},
]
SYNTHETIC_KEYS = sorted(f.name for f in dataclasses.fields(SyntheticTaskSpec))


@st.composite
def one_key_replaced(draw):
    """(raw config, dotted key) with the value at that key replaced."""
    raw = valid_raw(partition=dict(draw(st.sampled_from(PARTITIONS))))
    section = draw(st.sampled_from(["top", "data.synthetic", "partition"]))
    value = draw(JSON_VALUES)
    if section == "top":
        key = draw(st.sampled_from(sorted(TOP_KEYS)))
        raw[key] = value
        return raw, key
    target = raw["partition"] if section == "partition" else raw["data"]["synthetic"]
    key = draw(st.sampled_from(sorted(target) if section == "partition" else SYNTHETIC_KEYS))
    target[key] = value
    return raw, f"{section}.{key}"


def names_key(violation, key):
    """The violation sits at key or inside it, or its message names the field."""
    dotted, _, message = violation.partition(": ")
    field = key.rsplit(".", 1)[-1]
    return dotted == key or dotted.startswith(key + ".") or re.search(rf"\b{field}\b", message)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "cfg.json"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=one_key_replaced())
def test_any_value_at_any_key_is_accepted_or_located(config_path, case):
    raw, key = case
    config_path.write_text(json.dumps(raw))  # non-finite floats become NaN/Infinity
    try:
        parse_config(config_path)
    except ValidationError as exc:
        assert any(names_key(v, key) for v in exc.violations), (key, exc.violations)
