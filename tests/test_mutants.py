import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "tools", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_in_the_table_applies():
    for m in mutants.MUTANTS:
        with open(os.path.join(ROOT, "src", "kariforge", m.path), encoding="utf-8") as fh:
            assert fh.read().count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 20


def test_a_comment_only_mutant_survives(capsys):
    comment = mutants.Mutant("comment", "cli.py", "# exit 1, not 2: verify exits 2 on a periodic configuration",
                             "# an edited comment", ("tests/test_cli.py::test_help_exits_0",))
    assert mutants.run(comment) == "survived"
    assert mutants.run(comment._replace(old="# no such comment")) == "stale"
    assert mutants.main([comment]) == 1
    assert capsys.readouterr().out == "survived comment\n0 of 1 mutants killed\n"
