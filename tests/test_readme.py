"""The README's library quick start runs as written, and the held-out
accuracy of its oriented rule matches the theory it prints."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_oriented_accuracy():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert abs(namespace["accuracy"] - namespace["stats"].accuracy) <= 0.02
