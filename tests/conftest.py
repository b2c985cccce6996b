"""Every test starts with empty memos, so that no test is handed a parse or
a decomposition that an earlier test left behind."""

import pytest

from orthosym import matio, spectral


@pytest.fixture(autouse=True)
def _empty_memos():
    matio._parse_matrix_text.cache_clear()
    spectral._decompose.cache_clear()
