#!/usr/bin/env python3
"""Mutation checks: does the test suite catch each catalogued fault?

Usage:
  mutants.py --scratch DIR

The catalogue, scripts/mutants.json, is a JSON list of entries, each an
object with exactly these string fields:

  name     a unique name for the mutant;
  file     the source file it changes, relative to the repository root;
  find     an exact text that occurs exactly once in that file;
  replace  the text that takes its place;
  breaks   what the mutant breaks, in a few words.

The tree this script runs from is never changed. It copies the
repository's files (tracked and untracked, minus what .gitignore
excludes) into DIR, which must lie outside the repository, and builds
the copy there in Release (DIR/build). Files already identical in DIR
are left alone, so a second run rebuilds incrementally; nothing is
deleted there, so give a fresh DIR after removing a source file. The
copy's own suite must pass before any mutant is applied. Then, for each
entry, it writes the mutant into the copy, rebuilds, runs ctest,
restores the file and prints one line:

  killed    NAME  (the tests that failed)
  SURVIVED  NAME  breaks: WHAT
  NO-BUILD  NAME  (the mutant does not compile)

Each test's own TIMEOUT (300 s, tests/CMakeLists.txt) stops a mutant
that hangs it, and such a mutant counts as killed. The build and ctest
run as many jobs as the host has CPUs.

Exit codes: 0 every mutant killed, 1 a mutant survived or did not build
or the unmutated copy failed, 2 usage or catalogue error.
"""

import argparse
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOGUE = os.path.join(REPO_ROOT, "scripts", "mutants.json")
FIELDS = ("name", "file", "find", "replace", "breaks")
JOBS = str(os.cpu_count() or 1)


class CatalogueError(Exception):
    pass


def parse_catalogue(text):
    """The catalogue's entries, checked for shape: a list of objects with
    exactly FIELDS, all strings, unique names, a non-empty `find` that
    differs from `replace`, and a relative path that stays inside the
    repository."""
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as error:
        raise CatalogueError(f"not JSON: {error}")
    if not isinstance(entries, list):
        raise CatalogueError("the catalogue must be a JSON list")
    names = set()
    for index, entry in enumerate(entries):
        where = f"entry {index}"
        if not isinstance(entry, dict):
            raise CatalogueError(f"{where}: not an object")
        if set(entry) != set(FIELDS):
            raise CatalogueError(
                f"{where}: fields must be exactly {', '.join(FIELDS)}")
        if not all(isinstance(entry[field], str) for field in FIELDS):
            raise CatalogueError(f"{where}: every field must be a string")
        name = entry["name"]
        if not name or name in names:
            raise CatalogueError(f"{where}: empty or duplicate name {name!r}")
        names.add(name)
        if not entry["find"] or entry["find"] == entry["replace"]:
            raise CatalogueError(
                f"{name}: find must be non-empty and differ from replace")
        path = os.path.normpath(entry["file"])
        if os.path.isabs(path) or path.split(os.sep)[0] == "..":
            raise CatalogueError(f"{name}: file must be a relative path "
                                 "inside the repository")
    return entries


def mutate(text, entry):
    """`text` with the entry's find replaced by its replacement; raises
    unless find occurs exactly once."""
    count = text.count(entry["find"])
    if count != 1:
        raise CatalogueError(f"{entry['name']}: {entry['find']!r} occurs "
                             f"{count} times in {entry['file']}, not once")
    return text.replace(entry["find"], entry["replace"])


def check_against(root, entries):
    """Raises unless every entry's file exists under `root` and its find
    occurs there exactly once."""
    for entry in entries:
        path = os.path.join(root, entry["file"])
        if not os.path.isfile(path):
            raise CatalogueError(f"{entry['name']}: no file {entry['file']}")
        with open(path) as source:
            mutate(source.read(), entry)


def failed_tests(ctest_output):
    """Names of the tests ctest lists under "The following tests FAILED"."""
    tail = ctest_output.split("The following tests FAILED:", 1)
    if len(tail) < 2:
        return []
    return re.findall(r"^\s*\d+ - (\S+)", tail[1], re.MULTILINE)


def sync_copy(scratch):
    """Copies the repository's files into `scratch`, skipping those
    already identical there, so the copy's build stays incremental."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, check=True).stdout
    for relative in listed.decode().split("\0"):
        source = os.path.join(REPO_ROOT, relative)
        if not relative or not os.path.isfile(source):
            continue  # a deleted but still tracked file
        target = os.path.join(scratch, relative)
        if os.path.isfile(target) and filecmp.cmp(source, target,
                                                  shallow=False):
            continue
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)


def build_and_test(build):
    """(built, ctest output, failing tests) for the copy as it stands."""
    made = subprocess.run(
        ["cmake", "--build", build, "-j", JOBS],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if made.returncode != 0:
        return False, made.stdout, []
    tested = subprocess.run(
        ["ctest", "--test-dir", build, "-j", JOBS],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    failing = failed_tests(tested.stdout)
    if tested.returncode != 0 and not failing:
        failing = [f"ctest (exit {tested.returncode})"]
    return True, tested.stdout, failing


def run(entries, scratch):
    scratch = os.path.realpath(scratch)
    root = os.path.realpath(REPO_ROOT)
    if os.path.commonpath([scratch, root]) == root:
        print(f"mutants: --scratch must lie outside {root}", file=sys.stderr)
        return 2
    os.makedirs(scratch, exist_ok=True)
    sync_copy(scratch)
    check_against(scratch, entries)
    build = os.path.join(scratch, "build")
    subprocess.run(["cmake", "-S", scratch, "-B", build,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=subprocess.DEVNULL, check=True)
    built, output, failing = build_and_test(build)
    if not built or failing:
        print(output)
        print("mutants: the unmutated copy does not build or pass",
              file=sys.stderr)
        return 1
    unkilled = 0
    for entry in entries:
        path = os.path.join(scratch, entry["file"])
        with open(path) as source:
            original = source.read()
        try:
            with open(path, "w") as source:
                source.write(mutate(original, entry))
            built, _, failing = build_and_test(build)
        finally:
            with open(path, "w") as source:
                source.write(original)
        if not built:
            unkilled += 1
            print(f"NO-BUILD  {entry['name']}", flush=True)
        elif failing:
            print(f"killed    {entry['name']}  ({', '.join(failing)})",
                  flush=True)
        else:
            unkilled += 1
            print(f"SURVIVED  {entry['name']}  breaks: {entry['breaks']}",
                  flush=True)
    print(f"mutants: {len(entries) - unkilled} of {len(entries)} killed")
    return 0 if unkilled == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    try:
        with open(CATALOGUE) as catalogue:
            entries = parse_catalogue(catalogue.read())
        return run(entries, args.scratch)
    except CatalogueError as error:
        print(f"mutants: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
