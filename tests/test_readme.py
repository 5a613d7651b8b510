"""The README's Python API example runs as written against the package."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Python API\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert block, "README has no Python API code block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert "label='stable'" in lines[0]
    assert lines[1] == "stable"
    assert "'unstable'" in out.getvalue()
