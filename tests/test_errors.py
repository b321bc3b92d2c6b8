"""The error layer: three families, one per exit code, and nothing else."""

import ast
import pathlib
import re

import pytest

import lpoly
from lpoly import errors
from lpoly.char_sums import TwistSpec
from lpoly.errors import InternalError, LPolyError, ParameterError, ResourceBound

FAMILIES = {"ParameterError", "ResourceBound", "InternalError"}


def test_errors_defines_the_base_and_three_families():
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert classes == {"LPolyError"} | FAMILIES
    for family in (ParameterError, ResourceBound, InternalError):
        assert family.__bases__ == (LPolyError,)


def test_every_raise_names_a_family():
    src = pathlib.Path(lpoly.__file__).parent
    bad = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id in FAMILIES):
                    bad.append(f"{path.name}:{node.lineno}")
    assert not bad


@pytest.mark.parametrize("d,kappa,message", [
    (1, 0, "a twist needs character order d >= 2, got d = 1"),
    (3, 0, "kappa must lie in [1, 2]"),
    (3, 3, "kappa must lie in [1, 2]"),
])
def test_twist_spec_checks_order_and_kappa(d, kappa, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        TwistSpec(d, kappa)
