import pytest

from clustercat.cluster import ClusterCategory
from clustercat.dynkin import build_quiver

_cache = {}


def _category(family, rank, orientation="default"):
    key = (family, rank,
           orientation if isinstance(orientation, str) else tuple(orientation))
    if key not in _cache:
        _cache[key] = ClusterCategory(build_quiver(family, rank, orientation))
    return _cache[key]


@pytest.fixture(scope="session")
def category():
    """Cached cluster-category factory shared by the whole suite."""
    return _category
