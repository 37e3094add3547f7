"""The package's public surface: ``__all__`` lists exactly what ``__init__`` imports."""

import ast

import expfam_markets


def imported_names() -> list[str]:
    """Every name bound by a ``from ... import`` statement in the package's ``__init__``."""
    with open(expfam_markets.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from expfam_markets import *", namespace)
    assert set(expfam_markets.__all__) <= set(namespace)


def test_all_equals_the_imported_names():
    assert len(set(expfam_markets.__all__)) == len(expfam_markets.__all__)
    assert sorted(expfam_markets.__all__) == sorted(imported_names())
