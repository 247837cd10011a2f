"""Every growthlab subcommand takes exactly the flags its handler reads.

A declared flag that nothing reads is accepted and silently ignored, so a
user who sets it believes it took effect.  A handler's reads are the
``args.<name>`` attributes in its body and in every ``cli`` function it
passes ``args`` to, followed through further such calls.
"""

import argparse
import ast
from pathlib import Path

import pytest

from growthlab import cli

SOURCE = Path(cli.__file__).read_text()


def args_read(source: str, function: str) -> set[str]:
    """The attributes of ``args`` that ``function`` in ``source`` reads,
    itself or through the module's functions it passes ``args`` to."""
    functions = {node.name: node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef)}
    read, todo, seen = set(), [function], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in functions
                    and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
                todo.append(node.func.id)
    return read


def declared() -> dict[str, tuple[str, set[str]]]:
    """Per subcommand: the name of its handler and the dests of its flags."""
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return {name: (p.get_default("func").__name__,
                   {a.dest for a in p._actions if a.dest != "help"})
            for name, p in commands.choices.items()}


def test_guard_follows_args_into_helpers():
    source = ("def _emit(payload, args):\n    print(payload, args.out)\n"
              "def _unused(args):\n    return args.b\n"
              "def cmd(args):\n    _emit(args.a, args)\n")
    assert args_read(source, "cmd") == {"a", "out"}


def test_every_command_is_checked():
    assert sorted(declared()) == ["amalgam", "audit", "buffering", "closure", "gap",
                                  "quotient", "selector"]


@pytest.mark.parametrize("command", sorted(declared()))
def test_flags_are_exactly_the_handler_reads(command):
    handler, dests = declared()[command]
    assert dests == args_read(SOURCE, handler)
