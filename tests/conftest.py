import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import schubert_atlas as sa

_DATA = {}


@pytest.fixture(scope="session")
def datum():
    """Session-cached root data, so each datum and its parabolic tables are
    built once for all tests."""

    def get(type_str: str):
        if type_str not in _DATA:
            _DATA[type_str] = sa.build_root_datum(type_str)
        return _DATA[type_str]

    return get
