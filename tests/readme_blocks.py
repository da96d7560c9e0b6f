"""The README's runnable blocks, read one way for the tests and for CI.

``command_lines()`` gives each ``cbfsim`` line of the "Command line" block,
with backslash continuations joined; ``library_example()`` gives the code of
the "Library example" block.  Standard library only, so CI can run it before
anything else is installed:

    python tests/readme_blocks.py commands    # prints the command lines
    python tests/readme_blocks.py example     # prints the library example
"""

import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, fence: str) -> str:
    """The first ``fence`` code block after ``heading``."""
    text = README.read_text(encoding="utf-8")
    return text.split(heading, 1)[1].split(fence + "\n", 1)[1].split("```", 1)[0]


def command_lines() -> list[str]:
    block = _block("## Command line", "```sh").replace("\\\n", " ")
    return [line for line in block.splitlines() if line.startswith("cbfsim ")]


def library_example() -> str:
    return _block("## Library example", "```python")


if __name__ == "__main__":
    blocks = {"commands": lambda: "\n".join(command_lines()), "example": library_example}
    if len(sys.argv) != 2 or sys.argv[1] not in blocks:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(blocks)}}}")
    print(blocks[sys.argv[1]]())
