"""Every backticked `module.NAME` in README.md whose module is a vcgap module
names an attribute of that module, so a renamed or deleted constant cannot
leave the documentation pointing at nothing."""

import importlib
import pkgutil
import re
from pathlib import Path

import vcgap

README = Path(__file__).parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(vcgap.__path__)}


def readme_references() -> list[tuple[str, str]]:
    pairs = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", README.read_text())
    return sorted({(module, name) for module, name in pairs if module in MODULES})


def test_readme_module_names_resolve():
    refs = readme_references()
    # the scan must see the references it exists to check
    assert ("sdp_solve", "TAU_GAP") in refs and ("pipeline", "TAU_RATIO") in refs
    missing = [f"{module}.{name}" for module, name in refs if not hasattr(importlib.import_module(f"vcgap.{module}"), name)]
    assert missing == []
