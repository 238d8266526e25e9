#!/usr/bin/env python3
"""Unit tests for scripts/mutants.py (run by ctest as test_mutants).

They cover the catalogue contract: its shape checks, the exactly-once
rule for each mutant's text, the parsing of ctest's failure list, the
refusal to mutate a copy inside the repository, and the committed
catalogue itself, which must parse and hold at least two mutants for
each file it is meant to cover. Whether each mutant's text still occurs
exactly once in the sources is checked by mutants.py before it builds
anything, not here, so refactoring a catalogued line never fails this
test. No mutant is built or run here.
"""

import collections
import importlib.util
import json
import pathlib
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "mutants", REPO_ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

COVERED_FILES = [
    "routing/engine.cc", "graph/edge_coloring.cc", "pops/network.cc",
    "serve/traffic_server.cc", "routing/batch_router.cc", "routing/bounds.cc",
]


def entry(**changes):
    base = {"name": "m", "file": "routing/bounds.cc", "find": "a + 1",
            "replace": "a + 2", "breaks": "the sum"}
    base.update(changes)
    return base


class CatalogueShapeTest(unittest.TestCase):
    def parse(self, entries):
        return mutants.parse_catalogue(json.dumps(entries))

    def test_accepts_well_formed_entries(self):
        parsed = self.parse([entry(name="a"), entry(name="b", replace="")])
        self.assertEqual([e["name"] for e in parsed], ["a", "b"])

    def test_rejects_malformed_catalogues(self):
        bad = {
            "not json": "[",
            "not a list": json.dumps({"name": "m"}),
            "not an object": json.dumps(["m"]),
        }
        for label, text in bad.items():
            with self.subTest(label):
                with self.assertRaises(mutants.CatalogueError):
                    mutants.parse_catalogue(text)

    def test_rejects_malformed_entries(self):
        missing = entry()
        del missing["breaks"]
        bad = {
            "missing field": [missing],
            "unknown field": [entry(why="x")],
            "not a string": [entry(find=3)],
            "empty name": [entry(name="")],
            "duplicate name": [entry(), entry()],
            "empty find": [entry(find="")],
            "find equals replace": [entry(replace="a + 1")],
            "absolute path": [entry(file="/etc/passwd")],
            "path leaves the repository": [entry(file="../x.cc")],
        }
        for label, entries in bad.items():
            with self.subTest(label):
                with self.assertRaises(mutants.CatalogueError):
                    self.parse(entries)


class ExactlyOnceTest(unittest.TestCase):
    def test_replaces_the_one_occurrence(self):
        self.assertEqual(mutants.mutate("x = a + 1;", entry()), "x = a + 2;")

    def test_rejects_missing_and_repeated_text(self):
        for text in ("x = a;", "x = a + 1 + a + 1;"):
            with self.subTest(text):
                with self.assertRaises(mutants.CatalogueError):
                    mutants.mutate(text, entry())

    def test_checks_every_entry_against_a_tree(self):
        with tempfile.TemporaryDirectory() as root:
            source = pathlib.Path(root) / "routing" / "bounds.cc"
            source.parent.mkdir()
            source.write_text("x = a + 1;")
            mutants.check_against(root, [entry()])
            for stale in (entry(file="routing/gone.cc"), entry(find="b")):
                with self.subTest(stale["file"], find=stale["find"]):
                    with self.assertRaises(mutants.CatalogueError):
                        mutants.check_against(root, [stale])


class CtestOutputTest(unittest.TestCase):
    def test_lists_the_failed_tests(self):
        output = """90% tests passed, 2 tests failed out of 20

The following tests FAILED:
\t  5 - test_network (Failed)
\t 14 - test_traffic_server (Subprocess aborted)
Errors while running CTest
"""
        self.assertEqual(mutants.failed_tests(output),
                         ["test_network", "test_traffic_server"])

    def test_a_passing_run_lists_none(self):
        output = "100% tests passed, 0 tests failed out of 20\n"
        self.assertEqual(mutants.failed_tests(output), [])


class ScratchTest(unittest.TestCase):
    def test_refuses_a_copy_inside_the_repository(self):
        inside = REPO_ROOT / "never-created-mutants-copy"
        self.assertEqual(mutants.run([entry()], str(inside)), 2)
        self.assertFalse(inside.exists())


class CommittedCatalogueTest(unittest.TestCase):
    def test_covers_each_file_twice(self):
        with open(mutants.CATALOGUE) as catalogue:
            entries = mutants.parse_catalogue(catalogue.read())
        per_file = collections.Counter(e["file"] for e in entries)
        for path in COVERED_FILES:
            with self.subTest(path):
                self.assertGreaterEqual(per_file[path], 2)


if __name__ == "__main__":
    unittest.main()
