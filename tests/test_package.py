"""The package namespace: the oracle's names resolve on first use, like eager ones."""

import pytest

import prismres
from prismres import network, verify


def test_every_public_name_resolves_and_is_listed():
    listed = dir(prismres)
    for name in prismres.__all__:
        getattr(prismres, name)
        assert name in listed, name
    assert prismres.Network is network.Network
    assert prismres.run_checks is verify.run_checks


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from prismres import *", namespace)
    assert set(prismres.__all__) <= set(namespace)
    assert namespace["run_checks"] is verify.run_checks


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        prismres.no_such_name
    assert not hasattr(prismres, "no_such_name")


def test_a_patch_of_the_home_module_shows_through_the_package(monkeypatch):
    assert prismres.resistance_oracle is network.resistance_oracle

    def patched(*args):
        return 0

    monkeypatch.setattr(network, "resistance_oracle", patched)
    assert prismres.resistance_oracle is patched
    assert "resistance_oracle" not in vars(prismres)
