import importlib
from pathlib import Path

import sievesim

MODULES = ("estimators", "functionals", "harness", "kernels", "network", "rates", "synthetic")


def test_public_names_are_unique():
    assert len(sievesim.__all__) == len(set(sievesim.__all__))


def test_each_module_exports_only_what_it_defines():
    # A name is listed once, in the __all__ of the module that defines it.
    for name in MODULES:
        module = importlib.import_module(f"sievesim.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            assert getattr(obj, "__module__", module.__name__) == module.__name__, attr
            assert getattr(sievesim, attr) is obj, attr


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README quick start", "exec"), {})
    assert capsys.readouterr().out.startswith("plug-in ")
