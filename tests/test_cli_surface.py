"""The CLI's option surface, pinned against a committed golden file.

Every subcommand's options are recorded as ``(option strings, default,
choices, nargs, help, metavar)``.  Help and metavar are the raw strings
handed to ``add_argument``, before argparse formats them (which differs
across Python versions).  A change to the surface shows up as a diff to
``tests/cli_surface.json``.  Regenerate that file with::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/cli_surface.json
"""

import argparse
import json
import pathlib

from repro.cli import build_parser

GOLDEN = pathlib.Path(__file__).with_name("cli_surface.json")


def _options(parser: argparse.ArgumentParser) -> list:
    return [
        {
            "options": list(action.option_strings) or [action.dest],
            "default": action.default,
            "choices": None if action.choices is None else list(action.choices),
            "nargs": action.nargs,
            "help": action.help,
            "metavar": action.metavar,
        }
        for action in parser._actions
        if not isinstance(action, argparse._SubParsersAction)
    ]


def cli_surface() -> dict:
    """``{subcommand: [option record, ...]}``, top-level options under ``""``."""
    parser = build_parser()
    (subparsers,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    surface = {"": _options(parser)}
    for name, sub in subparsers.choices.items():
        surface[name] = _options(sub)
    # Through JSON, so tuples compare equal to the golden file's lists.
    return json.loads(json.dumps(surface, sort_keys=True))


def render() -> str:
    """The golden file's text: one line per option, so a diff names it."""
    blocks = []
    for command, options in sorted(cli_surface().items()):
        lines = ",\n".join(f"  {json.dumps(o, sort_keys=True)}" for o in options)
        blocks.append(f" {json.dumps(command)}: [\n{lines}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def test_cli_surface_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    surface = cli_surface()
    assert sorted(surface) == sorted(golden)
    for command in golden:
        assert surface[command] == golden[command], command


if __name__ == "__main__":
    print(render(), end="")
