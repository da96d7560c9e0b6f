"""README promises that are checked against the package itself."""

import argparse
import dataclasses
import importlib
import re
import shlex

import pytest

import cbfsim
import readme_blocks
from cbfsim.cli import build_parser


def layout_rows():
    """(module name, backticked names in its contents) per Layout table row."""
    section = readme_blocks.README.read_text(encoding="utf-8").split("## Layout", 1)[1]
    rows = []
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`cbfsim."):
            rows.append((cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])))
    return rows


def command_names():
    """The program name and its subcommands."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {parser.prog, *sub.choices}


@pytest.mark.parametrize("module_name, names", layout_rows(),
                         ids=[row[0] for row in layout_rows()])
def test_layout_names_resolve(module_name, names):
    # a name is the module's, a member or dataclass field of a class defined
    # there, or the command
    module = importlib.import_module(module_name)
    classes = [obj for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module_name]
    fields = {f.name for c in classes if dataclasses.is_dataclass(c)
              for f in dataclasses.fields(c)}
    for name in names:
        assert (hasattr(module, name) or any(hasattr(c, name) for c in classes)
                or name in fields or name in command_names()), \
            f"{module_name} has no {name!r}"


def test_layout_lists_the_modules():
    assert [row[0] for row in layout_rows()] == [
        "cbfsim.arrays", "cbfsim.beams", "cbfsim.channel", "cbfsim.simulate",
        "cbfsim.cli"]


def test_library_example_imports_resolve():
    # the example's ``from cbfsim import (...)`` names, all package exports
    code = readme_blocks.library_example()
    names = re.search(r"from cbfsim import \(([^)]*)\)", code).group(1)
    names = [name.strip() for name in names.split(",") if name.strip()]
    assert "find_complementary_set" in names
    for name in names:
        assert name in cbfsim.__all__, f"cbfsim does not export {name!r}"


def test_command_lines_parse():
    # every README command line, continuations joined as CI runs them
    lines = readme_blocks.command_lines()
    assert len(lines) == 10
    parser = build_parser()
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == parser.prog
        parser.parse_args(argv)
