import numpy as np
import pytest

from workloads import WORKLOADS, make_test_set, make_train_set


def _arrays(utts):
    return [(u.speaker, u.features.data, u.scene.node_pos) for u in utts]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    w = WORKLOADS[name]
    a, b, c = (make_train_set(w, seed)[:3] for seed in (5, 5, 6))
    for (sa, fa, pa), (sb, fb, pb) in zip(_arrays(a), _arrays(b)):
        assert sa == sb and np.array_equal(fa, fb) and np.array_equal(pa, pb)
    assert not np.array_equal(a[0].features.data, c[0].features.data)

    test_a, trials_a = make_test_set(w, 5)
    test_b, trials_b = make_test_set(w, 5)
    assert list(test_a) == list(test_b)
    assert all(np.array_equal(test_a[k].features.data, test_b[k].features.data) for k in test_a)
    assert trials_a.trials == trials_b.trials


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ragged_shapes_stay_in_range_and_vary(name):
    w = WORKLOADS[name]
    test, trials = make_test_set(w, 11)
    shapes = {u.features.data.shape for u in test.values()}
    cs = {c for c, _, _ in shapes}
    ts = {t for _, t, _ in shapes}
    assert min(cs) >= w.test_c[0] and max(cs) <= w.test_c[1]
    assert min(ts) >= w.test_t[0] and max(ts) <= w.test_t[1]
    assert len(cs) > 1 and len(ts) > 1
    assert all(d == w.model.d for _, _, d in shapes)
    assert all(u.scene.n_nodes == u.features.c for u in test.values())
    assert len(test) == w.n_test and len(trials.trials) == w.n_trials


def test_training_set_matches_the_workload_size():
    w = WORKLOADS["train-small"]
    train = make_train_set(w, 0)
    assert len(train) == w.n_train
    assert {u.features.data.shape for u in train} == {(w.train_c, w.train_t, w.model.d)}
    assert {u.speaker for u in train} == set(range(w.n_speakers))
