import numpy as np
import pytest

from fedsign.data import (
    TriggerSet,
    forge_pattern_triggers,
    forge_pgd_triggers,
    make_synthetic,
    pgd_attack,
    split,
    trigger_error,
)
from fedsign import io
from fedsign.errors import FormatError, ShapeError
from fedsign.nn import accuracy, build_cnn, build_mlp, fit


@pytest.fixture(scope="module")
def image_cnn():
    """Trained vanilla CNN on the textured-image task."""
    train = make_synthetic(4, 100, seed=7, kind="images")
    held_out = make_synthetic(4, 50, seed=7, kind="images", salt=1)
    net = build_cnn(8, 1, [8, 16], 4, seed=7)
    fit(net, train.inputs, train.labels, epochs=40, lr=0.01, seed=7)
    return net, train, held_out


# ---------------------------------------------------------------------------
# generation

def test_make_synthetic_counts():
    ds = make_synthetic(2, 10, seed=0)
    assert ds.n == 20 and ds.class_count == 2
    assert np.bincount(ds.labels).tolist() == [10, 10]


def test_make_synthetic_deterministic():
    a = make_synthetic(3, 5, seed=42)
    b = make_synthetic(3, 5, seed=42)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_salt_changes_samples_not_structure():
    a = make_synthetic(3, 50, seed=42, salt=0)
    b = make_synthetic(3, 50, seed=42, salt=1)
    assert not np.array_equal(a.inputs, b.inputs)
    # same class means: per-class averages nearly coincide
    for c in range(3):
        ma = a.inputs[a.labels == c].mean(axis=0)
        mb = b.inputs[b.labels == c].mean(axis=0)
        assert np.linalg.norm(ma - mb) < 1.5


def test_blobs_train_to_high_accuracy():
    ds = make_synthetic(4, 250, seed=7, kind="blobs")
    net = build_mlp(32, [16, 16], 4, seed=7)
    fit(net, ds.inputs, ds.labels, epochs=50, lr=0.01, seed=7)
    assert accuracy(net, ds.inputs, ds.labels) >= 0.95


def test_images_are_8x8x1():
    ds = make_synthetic(3, 4, seed=1, kind="images")
    assert ds.inputs.shape == (12, 8, 8, 1)


def test_make_synthetic_validates():
    with pytest.raises(ShapeError):
        make_synthetic(1, 10, seed=0)
    with pytest.raises(ShapeError):
        make_synthetic(2, 10, seed=0, kind="parquet")


# ---------------------------------------------------------------------------
# sharding

def test_single_shard_is_whole_dataset():
    ds = make_synthetic(2, 10, seed=0)
    shards = split(ds, 1, seed=0)
    assert len(shards) == 1
    np.testing.assert_array_equal(np.sort(shards[0].indices), np.arange(ds.n))


def test_iid_equal_partition():
    ds = make_synthetic(2, 50, seed=0)  # 100 samples
    shards = split(ds, 4, seed=3)
    assert [s.size for s in shards] == [25, 25, 25, 25]


def test_iid_shards_disjoint_and_cover():
    ds = make_synthetic(3, 40, seed=1)
    shards = split(ds, 7, seed=5)
    merged = np.concatenate([s.indices for s in shards])
    assert len(merged) == ds.n
    assert len(np.unique(merged)) == ds.n


def test_split_rejects_too_many_clients():
    ds = make_synthetic(2, 3, seed=0)
    with pytest.raises(ShapeError):
        split(ds, 7, seed=0)


def test_noniid_concentrates_labels():
    ds = make_synthetic(2, 100, seed=1)
    fractions = []
    for seed in range(100):
        for shard in split(ds, 4, mode="noniid", seed=seed, concentration=0.1):
            labs = ds.labels[shard.indices]
            fractions.append(max((labs == 0).mean(), (labs == 1).mean()))
    fractions = np.asarray(fractions)
    assert (fractions >= 0.5).all()
    assert fractions.mean() >= 0.75  # strongly skewed vs ~0.55 for iid


def test_noniid_shards_cover_dataset():
    ds = make_synthetic(4, 30, seed=2)
    shards = split(ds, 5, mode="noniid", seed=9, concentration=0.3)
    merged = np.concatenate([s.indices for s in shards])
    assert len(np.unique(merged)) == ds.n == len(merged)
    assert all(s.size >= 1 for s in shards)


# ---------------------------------------------------------------------------
# pattern triggers

def test_pattern_trigger_counts_and_labels():
    ds = make_synthetic(4, 25, seed=3)
    ts = forge_pattern_triggers(ds, 20, target=2, seed=11)
    assert ts.size == 20
    assert (ts.target_labels == 2).all()
    assert ts.provenance == "pattern"


def test_pattern_triggers_deterministic():
    ds = make_synthetic(4, 25, seed=3)
    a = forge_pattern_triggers(ds, 10, target=1, seed=5)
    b = forge_pattern_triggers(ds, 10, target=1, seed=5)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_pattern_triggers_share_one_stamp():
    ds = make_synthetic(4, 25, seed=3, kind="images")
    ts = forge_pattern_triggers(ds, 8, target=0, seed=5)
    patches = ts.samples[:, :3, :3, :]
    assert (patches == patches[0]).all()


def test_random_models_hit_triggers_at_chance():
    ds = make_synthetic(10, 20, seed=4)
    ts = forge_pattern_triggers(ds, 20, target=3, seed=9)
    rates = []
    for seed in range(25):
        net = build_mlp(32, [16, 16], 10, seed=1000 + seed)
        rates.append(1.0 - trigger_error(net, ts))
    assert np.mean(rates) <= 0.3  # chance level is 0.1


# ---------------------------------------------------------------------------
# pgd triggers

def test_pgd_zero_radius_keeps_samples(image_cnn):
    net, _, held_out = image_cnn
    ts = forge_pgd_triggers(net, held_out, 10, target=1, eps=0.0, seed=1)
    pool = held_out.inputs[held_out.labels != 1]
    # every sample must coincide with some source row
    for s in ts.samples:
        assert (np.abs(pool - s).reshape(len(pool), -1).sum(axis=1) < 1e-12).any()


def test_pgd_projection_invariant(image_cnn):
    net, _, held_out = image_cnn
    x0 = held_out.inputs[:12]
    targets = np.full(12, 2)
    for iters in (1, 5, 20):
        adv = pgd_attack(net, x0, targets, eps=0.3, lr=0.01, iters=iters)
        norms = np.sqrt(((adv - x0) ** 2).reshape(12, -1).sum(axis=1))
        assert (norms <= 0.3 + 1e-9).all()


def test_pgd_default_params_fool_trained_cnn(image_cnn):
    net, _, held_out = image_cnn
    ts = forge_pgd_triggers(net, held_out, 40, target=2, seed=3)  # stock settings
    assert ts.eps == 0.3
    assert 1.0 - trigger_error(net, ts) >= 0.9


def test_pgd_triggers_deterministic(image_cnn):
    net, _, held_out = image_cnn
    a = forge_pgd_triggers(net, held_out, 6, target=0, seed=2)
    b = forge_pgd_triggers(net, held_out, 6, target=0, seed=2)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_pgd_low_success_warns(image_cnn, caplog):
    net, _, held_out = image_cnn
    with caplog.at_level("WARNING", logger="fedsign.data"):
        forge_pgd_triggers(net, held_out, 10, target=2, eps=1e-4, lr=1e-5,
                           iters=1, seed=1)
    assert any("under-converged" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# serialization

def test_trigger_roundtrip_keeps_provenance(tmp_path, image_cnn):
    net, _, held_out = image_cnn
    ts = forge_pgd_triggers(net, held_out, 5, target=1, eps=0.25, seed=4)
    path = tmp_path / "trig.bin"
    ts.save(path)
    back = TriggerSet.load(path)
    np.testing.assert_array_equal(back.samples, ts.samples)
    np.testing.assert_array_equal(back.target_labels, ts.target_labels)
    assert back.provenance == "pgd"
    assert back.eps == 0.25


@pytest.mark.parametrize("samples, labels", [(np.full((3, 4), np.nan), [0, 1, 2]),
                                             (np.ones((3, 4)), [0, 9, 1]),
                                             (np.ones((3, 4)), [0, -1, 1])])
def test_trigger_set_in_memory_gets_the_load_checks(samples, labels):
    with pytest.raises(ShapeError):
        TriggerSet(samples, labels, "pattern", class_count=4)


def test_trigger_set_with_non_numeric_eps_is_format_error(tmp_path):
    path = tmp_path / "trig.bin"
    io.save_triggers(path, np.ones((1, 4)), np.array([1]), 2, {"provenance": "pattern", "eps": "abc"})
    with pytest.raises(FormatError, match="eps"):
        TriggerSet.load(path)
