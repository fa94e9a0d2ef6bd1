"""The benchmark harness under bench/ calls only names the program has.

The harness is kept fixed between benchmark changes, so a name it calls
must not disappear from the program.  This reads bench/*.py with `ast` and
checks every `<module>.<name>` attribute it takes from a kariforge module;
nothing under bench/ is imported or run.
"""

import ast
import glob
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("tiles", "verify", "pamaps", "freegroup", "presets", "render", "cli")


def harness_references() -> set[tuple[str, str]]:
    refs = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                refs.add((node.value.id, node.attr))
    return refs


def test_every_name_the_harness_calls_exists():
    refs = harness_references()
    assert ("tiles", "grouptileset_from_obj") in refs  # the parse found the harness's calls
    missing = sorted(f"{m}.{name}" for m, name in refs
                     if not hasattr(importlib.import_module(f"kariforge.{m}"), name))
    assert not missing, missing
