"""The package's public surface."""


def test_every_exported_name_resolves():
    # a star import raises AttributeError for any name in __all__ the package lacks
    exec("from pathgibbs import *", {})
