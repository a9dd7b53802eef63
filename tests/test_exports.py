"""The package's public names."""

import floercone


def test_every_exported_name_resolves():
    assert [name for name in floercone.__all__ if not hasattr(floercone, name)] == []
