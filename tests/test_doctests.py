"""Run the executable examples embedded in the module docstrings."""

import doctest

import melontau.bilinear
import melontau.decomposition
import melontau.diffops
import melontau.graphs
import melontau.onematrix
import melontau.scalars
import melontau.series
import melontau.wick

MODULES = (
    melontau.scalars,
    melontau.series,
    melontau.diffops,
    melontau.wick,
    melontau.graphs,
    melontau.onematrix,
    melontau.decomposition,
    melontau.bilinear,
)


def test_doctests():
    for mod in MODULES:
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
        assert result.attempted >= 1, mod.__name__
