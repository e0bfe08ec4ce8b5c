#!/usr/bin/env python3
"""The sha256 of every file a fixed list of CLI commands writes.

    python3 tools/digest.py            # rewrite tests/digests.json

The commands run in process through ``framefx.cli.main`` into a temporary
output root: three frame plans at small budgets (one with ``--jobs 2``), the
stepped column, a sphere plan whose ifx and fx cells write failed records,
``interactions`` on each bundled frame and ``plot`` on the root.  Every file
under the root is hashed, keyed by its path relative to the root.  Console
output is not hashed, because it carries the root's path.

``tests/digests.json`` is stamped with the package version, ``fea.KERNEL_ID``
and the numpy and scipy versions; ``tests/test_digests.py`` reruns the list
and names each file that moved, was added or is missing.  Regenerate the file
only together with a ``KERNEL_ID`` or manifest-format bump.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import framefx  # noqa: E402
from framefx import cli  # noqa: E402
from framefx.config import BUNDLED_CONFIGS  # noqa: E402
from framefx.fea import KERNEL_ID  # noqa: E402

DIGESTS = ROOT / "tests" / "digests.json"

COMMANDS = [
    "run --config frame-24story-3bay --trials 2 --pop 20 --max-fe 100 --jobs 1",
    "run --config frame-8story-1bay --trials 2 --pop 8 --max-fe 160 --jobs 1",
    "run --config frame-15story-3bay --trials 2 --pop 10 --max-fe 40 --jobs 2",
    "run --problem stepped-column --trials 1 --jobs 1",
    "run --problem sphere --trials 2 --pop 6 --max-fe 24 --jobs 1",
    *(f"interactions --config {name}" for name in sorted(BUNDLED_CONFIGS)),
    "plot",
]


def stamp() -> dict:
    """The code and library versions the digests depend on."""
    return {"framefx_version": framefx.__version__, "fea_kernel": KERNEL_ID,
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_commands(root: Path):
    """Run every command with ``root`` as its output root (``plot`` reads
    it); a nonzero exit raises."""
    for command in COMMANDS:
        argv = command.split()
        argv += [str(root)] if command == "plot" else ["--out", str(root)]
        console = io.StringIO()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"framefx {command} exited with {code}:\n"
                               f"{console.getvalue()}")


def file_digests(root: Path) -> dict:
    """sha256 of each file under ``root``, by its relative POSIX path."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def current_digests() -> dict:
    with tempfile.TemporaryDirectory(prefix="framefx-digest-") as tmp:
        run_commands(Path(tmp))
        return file_digests(Path(tmp))


def differences(expected: dict, actual: dict) -> list:
    """One line per file that moved, was added or is missing."""
    lines = [f"moved: {p}" for p in sorted(expected.keys() & actual.keys())
             if expected[p] != actual[p]]
    lines += [f"added: {p}" for p in sorted(actual.keys() - expected.keys())]
    lines += [f"missing: {p}" for p in sorted(expected.keys() - actual.keys())]
    return lines


def main():
    files = current_digests()
    doc = {**stamp(), "commands": COMMANDS, "files": files}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} digests to {DIGESTS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
