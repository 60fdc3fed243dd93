"""Machine cache-sharing accounting."""

import pytest

from repro.machines.catalog import get_machine
from repro.machines.cpu import CacheSharing


class TestCoresSharing:
    def test_private_cache_one_sharer(self):
        m = get_machine("skylake8170")
        l2 = m.cache(2)
        assert l2.sharing is CacheSharing.PRIVATE
        assert m.cores_sharing(l2) == 1

    def test_cluster_cache_four_sharers(self):
        m = get_machine("sg2044")
        assert m.cores_sharing(m.cache(2)) == 4

    def test_chip_cache_all_cores(self):
        m = get_machine("sg2044")
        assert m.cores_sharing(m.cache(3)) == 64

    def test_missing_level_returns_none(self):
        assert get_machine("visionfive2").cache(3) is None

    def test_last_level_cache_is_highest(self):
        assert get_machine("sg2044").last_level_cache.level == 3
        assert get_machine("visionfive2").last_level_cache.level == 2

    def test_effective_cache_validates_thread_count(self):
        with pytest.raises(ValueError):
            get_machine("sg2044").effective_cache_bytes_per_thread(65)
