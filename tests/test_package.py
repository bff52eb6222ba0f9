"""The public surface: the package re-exports each module's ``__all__``."""

import doctest
import importlib
import re
from pathlib import Path

import onemax_runtime

MODULES = ("backends", "drift", "hitting", "bounds", "asymptotics", "simulate")


def module_names():
    return [
        (name, module)
        for module in MODULES
        for name in importlib.import_module(f"onemax_runtime.{module}").__all__
    ]


def test_public_names_are_unique():
    names = onemax_runtime.__all__
    assert len(names) == len(set(names))


def test_public_names_are_the_modules_all_plus_the_version():
    assert onemax_runtime.__all__ == [name for name, _ in module_names()] + ["__version__"]


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from onemax_runtime import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(onemax_runtime.__all__)


def test_each_public_name_is_its_module_object():
    for name, module in module_names():
        defined = getattr(importlib.import_module(f"onemax_runtime.{module}"), name)
        assert getattr(onemax_runtime, name) is defined, name


def test_readme_quick_start_prints_what_it_shows():
    """The README's one ``python`` block, the Quick start, run as a doctest:
    every example prints exactly the value shown."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
    report = []
    results = doctest.DocTestRunner().run(test, out=report.append)
    assert results.attempted > 0
    assert results.failed == 0, "".join(report)
