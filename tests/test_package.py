"""Tests of the package's public surface."""

import inspect

import susy_ladder
from susy_ladder import errors


def test_all_names_every_ladder_error():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.LadderError)}
    assert defined <= set(susy_ladder.__all__)
    for name in defined:
        assert getattr(susy_ladder, name) is getattr(errors, name)
