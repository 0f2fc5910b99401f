#!/usr/bin/env python3
"""Check that the PBDS_* knob table agrees with the code and the docs.

    python3 tests/check_knobs.py [REPO_ROOT]

Fails (exit 1) unless all three hold:
  1. every "PBDS_*" string literal under src/ is in detail::kKnownEnvKnobs
     (src/core/env.hpp);
  2. kKnownEnvKnobs and the knob table in docs/TESTING.md list the same
     names;
  3. every name in that table appears as a string literal in src/ or
     tests/ outside kKnownEnvKnobs itself, i.e. some code reads it.
"""

import os
import re
import sys

LITERAL = re.compile(r'"(PBDS_[A-Z0-9_]+)"')
SOURCES = (".hpp", ".cpp", ".h")


def literals(root, ignore=None):
    """Map each PBDS_* string literal under `root` to the files using it,
    leaving out the text `ignore`."""
    found = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            if not f.endswith(SOURCES):
                continue
            path = os.path.join(dirpath, f)
            text = open(path, encoding="utf-8").read()
            if ignore:
                text = text.replace(ignore, "")
            for name in LITERAL.findall(text):
                found.setdefault(name, []).append(path)
    return found


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    env_hpp = os.path.join(root, "src", "core", "env.hpp")
    table = re.search(r"kKnownEnvKnobs\[\]\s*=\s*\{(.*?)\};",
                      open(env_hpp, encoding="utf-8").read(), re.S)
    if table is None:
        sys.exit("check_knobs: no kKnownEnvKnobs table in " + env_hpp)
    known = LITERAL.findall(table.group(1))

    testing_md = open(os.path.join(root, "docs", "TESTING.md"),
                      encoding="utf-8").read()
    section = testing_md.split("## Environment knobs", 1)[-1].split("\n## ")[0]
    documented = [m.group(1) for m in
                  re.finditer(r"^\| `(PBDS_[A-Z0-9_]+)", section, re.M)]

    errors = []
    for name, files in sorted(literals(os.path.join(root, "src")).items()):
        if name not in known:
            errors.append(f"{name} (used in {files[0]}) is not in "
                          "kKnownEnvKnobs")
    for name in sorted(set(known) - set(documented)):
        errors.append(f"{name} is in kKnownEnvKnobs but not in the "
                      "docs/TESTING.md knob table")
    for name in sorted(set(documented) - set(known)):
        errors.append(f"{name} is in the docs/TESTING.md knob table but not "
                      "in kKnownEnvKnobs")
    used = set(literals(os.path.join(root, "src"), ignore=table.group(0)))
    used |= set(literals(os.path.join(root, "tests")))
    for name in sorted(set(documented) - used):
        errors.append(f"{name} is in the knob table but no code in src/ or "
                      "tests/ reads it")

    for e in errors:
        print("check_knobs: " + e, file=sys.stderr)
    if errors:
        return 1
    print(f"check_knobs: {len(known)} knobs agree across src/core/env.hpp, "
          "docs/TESTING.md and the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
