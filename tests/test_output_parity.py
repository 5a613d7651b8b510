import json
import os
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "output_parity.py")

PARENT = {
    "sweep-region/5/request/0": {
        "call 0 exit": 0, "call 0 stdout": "a1", "call 0 stderr": "b1", "r0.csv": "c1",
        "r0.svg": "d1",
    },
    "analyze-gate/5/request/0": {"call 0 exit": 3, "call 0 stdout": "a2", "call 0 stderr": "b2"},
}


def compare(tmp_path, first, second):
    paths = []
    for name, digests in (("first.json", first), ("second.json", second)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(digests))
    result = subprocess.run([sys.executable, TOOL, "compare", *map(str, paths)],
                            capture_output=True, text=True, timeout=60)
    return result.returncode, result.stdout.splitlines()


def test_matching_digests_exit_0(tmp_path):
    code, lines = compare(tmp_path, PARENT, json.loads(json.dumps(PARENT)))
    assert (code, lines) == (0, ["0 parts differ over 2 requests"])


@pytest.mark.parametrize(
    "change, named",
    [
        ({"sweep-region/5/request/0": {"r0.csv": "c9"}}, ["sweep-region/5/request/0: r0.csv"]),
        ({"analyze-gate/5/request/0": {"call 0 exit": 2, "call 0 stderr": "b9"}},
         ["analyze-gate/5/request/0: call 0 exit", "analyze-gate/5/request/0: call 0 stderr"]),
    ],
)
def test_differing_parts_are_named(tmp_path, change, named):
    second = json.loads(json.dumps(PARENT))
    for key, parts in change.items():
        second[key].update(parts)
    code, lines = compare(tmp_path, PARENT, second)
    assert code == 1
    assert lines == [f"differs: {part}" for part in named] + [
        f"{len(named)} parts differ over 2 requests"
    ]


def test_part_in_one_file_only_is_named(tmp_path):
    second = json.loads(json.dumps(PARENT))
    del second["sweep-region/5/request/0"]["r0.svg"]
    code, lines = compare(tmp_path, PARENT, second)
    assert (code, lines[0]) == (1, "differs: sweep-region/5/request/0: r0.svg")
