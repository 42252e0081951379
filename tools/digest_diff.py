"""Compare the studies of two perfbench result records.

    python3 tools/digest_diff.py [--regressions] OLD.json NEW.json

Each argument is a `.perfbench/results/<workload>-seed<N>-trace<T>.json`
record written by `perfbench/run.py`.  Prints every study id (`sid`)
whose exit code (`rc`) or artifact digest differs between the two, or
that only one record ran, and every change in the `attempted`, `failed`
and `correct` totals.  A failed study's `reason` (the CLI's `error:`
line, or the check that failed) must match too, unless its `rc` is None
in either record: then the reason is a traceback, which names lines of
code.  Exits 0 when the two agree on all of these, 1 on any difference,
2 when a record cannot be read.

With `--regressions` (OLD from the parent commit, NEW from the change)
it prints and fails on two things only: a study that was `ok` in OLD
and changed its `rc` or digest (or did not run in NEW), and a rise in
`failed`.  A study that failed in OLD may change, for instance by being
mended.  Uses the standard library only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TOTALS = ("attempted", "failed", "correct")


def differences(old: dict, new: dict) -> list[str]:
    """One line per study or total that differs between two records."""
    lines = []
    before = {s["sid"]: s for s in old["studies"]}
    after = {s["sid"]: s for s in new["studies"]}
    for sid in list(before) + [s for s in after if s not in before]:
        a, b = before.get(sid), after.get(sid)
        if a is None or b is None:
            lines.append(f"{sid}: only in {'new' if a is None else 'old'}")
            continue
        keys = ("rc", "digest")
        if a.get("rc") is not None and b.get("rc") is not None:
            keys += ("reason",)
        for key in keys:
            if a.get(key) != b.get(key):
                lines.append(f"{sid}: {key} {a.get(key)} -> {b.get(key)}")
    for key in TOTALS:
        if old["result"][key] != new["result"][key]:
            lines.append(f"{key}: {old['result'][key]} -> {new['result'][key]}")
    return lines


def regressions(old: dict, new: dict) -> list[str]:
    """The lines of `differences` about the `rc` and digest of studies
    that were ok in `old` (each such line starts with the study's sid),
    and one for a rise in `failed`."""
    ok = {s["sid"] for s in old["studies"] if s["ok"]}
    lines = [line for line in differences(old, new)
             if line.split(": ", 1)[0] in ok
             and not line.split(": ", 1)[1].startswith("reason ")]
    if new["result"]["failed"] > old["result"]["failed"]:
        lines.append(f"failed: {old['result']['failed']} -> "
                     f"{new['result']['failed']}")
    return lines


def main(argv: list[str]) -> int:
    compare = differences
    if argv[:1] == ["--regressions"]:
        compare, argv = regressions, argv[1:]
    if len(argv) != 2:
        print("usage: digest_diff.py [--regressions] OLD.json NEW.json",
              file=sys.stderr)
        return 2
    try:
        old, new = (json.loads(Path(path).read_text()) for path in argv)
        lines = compare(old, new)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
