#!/usr/bin/env python3
"""Option-sync check: docs/OPTIONS.md lists exactly the parsed options.

Every `get*("key")` parse site of an OptionMap in src/, bench/ and
examples/ (the key may sit on the line after the call) must have a
`key=` row in docs/OPTIONS.md, and every documented row must still
have a parse site, so a new option cannot land undocumented and a
deleted one cannot leave a stale row.  README.md must link
docs/OPTIONS.md and docs/ARCHITECTURE.md.

Usage:
    check_options.py [--root DIR]    check DIR (default: the repo)

Exits 0 when everything is in sync, 1 with each difference on stderr.
"""

import argparse
import os
import re
import sys

PARSE_SITE = re.compile(r'get(?:Int|Uint|Bool|String|Double)\(\s*"([a-z_]+)"')
DOC_ROW = re.compile(r'^\| `([a-z_]+)=`', re.MULTILINE)
SOURCE_DIRS = ("src", "bench", "examples")
README_LINKS = ("docs/OPTIONS.md", "docs/ARCHITECTURE.md")


def read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def parsed_keys(root):
    keys = set()
    for top in SOURCE_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                text = read(os.path.join(dirpath, name))
                keys.update(PARSE_SITE.findall(text))
    return keys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir))
    args = ap.parse_args()

    parsed = parsed_keys(args.root)
    documented = set(DOC_ROW.findall(
        read(os.path.join(args.root, "docs", "OPTIONS.md"))))
    readme = read(os.path.join(args.root, "README.md"))

    errors = []
    for key in sorted(parsed - documented):
        errors.append(f"option `{key}=` is parsed but has no row in "
                      "docs/OPTIONS.md")
    for key in sorted(documented - parsed):
        errors.append(f"docs/OPTIONS.md documents `{key}=` but no "
                      "get*() call parses it")
    for link in README_LINKS:
        if link not in readme:
            errors.append(f"README.md does not link {link}")

    for error in errors:
        print(f"check_options: {error}", file=sys.stderr)
    if not errors:
        print(f"check_options: {len(parsed)} options in sync")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
