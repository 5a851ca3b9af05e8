"""Fixtures shared across test modules."""

import pytest

from lttop.fincat import build_index_category
from lttop.omega import classifying_object


@pytest.fixture(scope="session")
def dim3_omega():
    """Omega of the dimension-3 (semi)simplex category, built once per family."""
    built = {}

    def get(family):
        if family not in built:
            built[family] = classifying_object(build_index_category(family, 3))
        return built[family]

    return get
