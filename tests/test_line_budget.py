"""The package's line budget: src/cbfsim stays at most 1,600 lines."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cbfsim"


def test_package_fits_the_line_budget():
    # counted as the benchmark's env.src_lines counts them
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in PACKAGE.rglob("*.py"))
    assert 0 < lines <= 1600, f"src/cbfsim has {lines} lines, over the 1,600 budget"
