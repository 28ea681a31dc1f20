import pytest

from measure import percentile, tail


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        percentile(list(range(100)), 95)
    assert percentile(list(range(100)), 90) == 89


def test_tail_picks_the_highest_well_sampled_percentile():
    assert tail(list(range(1000))) == (99.0, 989)
    assert tail(list(range(100))) == (90.0, 89)
    assert tail(list(range(40))) == (75.0, 29)
    assert tail(list(range(10))) is None
