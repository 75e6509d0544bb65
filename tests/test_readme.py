"""The README's library tour runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the four closed forms, encoded in its weak and strong variants
    closed = {line.split()[0]: line.split()[1:] for line in out if line.startswith("F_")}
    assert {name: len(values) for name, values in closed.items()} == {
        "F_double_swap": 1, "F_single_swap": 1, "F_encoded": 2, "F_remote_z": 1,
    }
    for values in closed.values():
        for v in values:
            assert 0.0 <= float(v) <= 1.0
