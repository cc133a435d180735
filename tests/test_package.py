"""Package hygiene: the package docstring and the install entry points
name only modules that exist, and every library exception has a raise
site in the package."""

import importlib
import inspect
import pathlib
import re
import tomllib

import galbim
from galbim import errors

SRC = pathlib.Path(galbim.__file__).parent
PYPROJECT = SRC.parent.parent / "pyproject.toml"


def test_documented_modules_import():
    names = re.findall(r"``(\w+)``", galbim.__doc__)
    assert names
    for name in names:
        importlib.import_module("galbim." + name)


def test_entry_points_import():
    config = tomllib.loads(PYPROJECT.read_text())
    scripts = config["project"].get("scripts", {})
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert hasattr(importlib.import_module(module), attr), target


def test_every_error_is_raised():
    source = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    classes = [
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.GalbimError)
        and cls is not errors.GalbimError
    ]
    assert classes
    unraised = [
        name for name in classes
        if not re.search(r"raise\s+%s\b" % name, source)
    ]
    assert unraised == []
