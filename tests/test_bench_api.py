"""The benchmark harness under bench/ calls only names the program has.

The harness is kept fixed between benchmark changes, so a name it calls
must not disappear from the program.  This reads bench/*.py with `ast` and
checks every `<module>.<name>` attribute it takes from a kariforge module,
and the fields of the tile sets it reads; nothing under bench/ is imported
or run.
"""

import ast
import dataclasses
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


def test_sets_carry_the_fields_the_harness_reads(kari, kari_tiles, psl2z, psl2z_family):
    """bench/workloads.py reads these fields of the sets pamap_tiles and
    family_tiles return and of their tiles, and gives the sets a plan with
    `dataclasses.replace`, so a renamed field fails here as well as in the
    benchmark."""
    from kariforge import tiles

    f_plan = tiles.pamap_plan(kari)
    g_plan = tiles.PlanProd(tuple((h, tiles.pamap_plan(m)) for h, m in psl2z.generators))
    for ts, plan in ((kari_tiles, f_plan), (psl2z_family, g_plan)):
        for name in ("generators", "in_max", "out_maxes", "tiles", "source"):
            assert hasattr(ts, name), name
        for name in ("top", "bottoms", "left", "right", "bottom"):
            assert hasattr(ts.tiles[0], name), name
        planned = dataclasses.replace(ts, source=plan)
        assert planned == ts and planned.source is plan and planned.generators == ts.generators
    assert kari_tiles.generators is None and psl2z_family.generators == ("d", "e")
