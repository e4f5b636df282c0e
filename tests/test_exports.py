"""The package's import list and its ``__all__`` name the same public symbols."""

import types

import fockabs


def test_every_all_entry_resolves():
    missing = [name for name in fockabs.__all__ if not hasattr(fockabs, name)]
    assert missing == []


def test_public_names_are_exactly_all():
    public = {
        name
        for name, value in vars(fockabs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(fockabs.__all__)
    assert len(fockabs.__all__) == len(set(fockabs.__all__))
