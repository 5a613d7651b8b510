"""The README's examples run as written against the package: the Python API
example executes and the command-line config example parses."""

import contextlib
import io
import json
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


def test_cli_config_example_parses(monkeypatch):
    from stabkit.cli import parse_run_config

    monkeypatch.delenv("STAB_SEED", raising=False)
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```json\n(.*?)^```", text, re.S | re.M)
    assert block, "README has no command-line config example"
    sections = ("plant", "policy", "diffusion", "coupling")
    config = parse_run_config(json.loads(block.group(1)), sections)
    assert config.coupling.seed == 7
    assert list(config.plant.setpoint) == [5.0]
