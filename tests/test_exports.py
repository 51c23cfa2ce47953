"""The package's public names."""

import rare_lens


def test_every_exported_name_resolves():
    missing = [name for name in rare_lens.__all__ if not hasattr(rare_lens, name)]
    assert missing == []
