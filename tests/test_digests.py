"""Every file of ``tools/digest.py``'s command list keeps its committed bytes.

A change that moves an output must bump ``fea.KERNEL_ID`` or the manifest
format and regenerate ``tests/digests.json`` with ``python3 tools/digest.py``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import digest  # noqa: E402


def test_outputs_match_committed_digests():
    committed = json.loads(digest.DIGESTS.read_text(encoding="utf-8"))
    expected_stamp = {key: committed[key] for key in digest.stamp()}
    assert expected_stamp == digest.stamp(), (
        f"tests/digests.json was written by {expected_stamp}, this tree is "
        f"{digest.stamp()}")
    assert committed["commands"] == digest.COMMANDS
    moved = digest.differences(committed["files"], digest.current_digests())
    assert not moved, "\n".join(moved)
