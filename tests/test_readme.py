"""The README's library quick start runs as written, and the held-out
accuracy `lpc.evaluate` reads at the optimal rho (where the raw sign rule is
the oriented one) matches the theory it prints.  Every public name of `lpc`
and `lpc.multiclass` is documented."""

import pathlib
import re

import pytest

import lpc
import lpc.multiclass

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_oriented_accuracy():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert abs(namespace["accuracy"] - namespace["stats"].accuracy) <= 0.02


def test_shell_commands_parse_and_name_shipped_configs():
    from lpc.experiments import cli

    text = README.read_text(encoding="utf-8")
    commands = [line.split() for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                for line in block.splitlines() if line.startswith("lpc ")]
    assert commands
    for argv in commands:
        args = cli.build_parser().parse_args(argv[1:])
        assert (README.parent / args.config).is_file(), args.config


@pytest.mark.parametrize("name", sorted(set(lpc.__all__) | set(lpc.multiclass.__all__)))
def test_every_public_name_is_documented(name):
    # named in a code span or block of the README, not only in prose
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```.*?```", text, re.S)
    code = blocks + re.findall(r"`[^`]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    assert any(re.search(rf"\b{name}\b", span) for span in code), name
