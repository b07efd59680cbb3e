import pytest

import stats


@pytest.mark.parametrize("n, expected", [
    (9, None),
    (19, None),
    (20, 50.0),
    (99, 50.0),
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (9999, 99.0),
    (10000, 99.9),  # exactly 10 beyond p99.9; float arithmetic would miss it
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_percentile_refuses_an_unsupported_tail():
    samples = list(range(99))
    assert stats.percentile(samples, 50) == 49.0
    with pytest.raises(ValueError):
        stats.percentile(samples, 90)
    assert stats.percentile(list(range(101)), 90) == pytest.approx(90.0)


def test_median_of_even_count_interpolates():
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 50, 0),
        ("a.child", 20, 30, 1),
        ("a.child2", 30, 45, 1),
        ("b", 60, 90, 0),
        ("b.child", 61, 62, 4),
        ("other_root", 200, 210, -1),
    ]
    assert stats.self_times(spans) == [100 - 40 - 30, 40 - 10 - 15, 10, 15, 30 - 1, 1, 10]


def test_self_times_sum_to_root_durations():
    spans = [("r", 0, 1000, -1), ("x", 100, 900, 0), ("y", 200, 300, 1), ("z", 400, 800, 1),
             ("w", 500, 600, 3)]
    assert sum(stats.self_times(spans)) == 1000
