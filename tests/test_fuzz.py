"""Seeded fuzz of the CLI's JSON inputs: beam-set files and config files.

Each case drops, retypes or replaces one field (or truncates the file) and
runs the command.  Whatever the input, no exception may escape ``main``, the
exit code is 0, 1 or 2, and a failure ends stderr with an ``error:`` line and
no traceback.  Injected numbers stay small, so no case allocates a large grid
or runs a long campaign.
"""

import copy
import json
import random

import pytest

from cbfsim.cli import main

SEED = 20_240_611
# Replacement values: every JSON type, with small numbers only.
POOL = [None, True, False, 0, 1, -1, 3, 2.5, -0.5, "", "x", "4", [], {},
        [0, 1], [[1.0, 0.0]], {"kind": "x"}]

# One small run of every command; the mutated document is the config file.
CONFIGS = {
    "search": {"elements": 8, "subarrays": 2, "accuracy": 2, "method": "golay",
               "spacing": 0.5, "grid_points": 64, "budget": 50,
               "ceiling": 1000, "seed": 1},
    "pattern": {"weights": ["0,1,2,3", "0,1,3,2"], "accuracy": 4,
                "spacing": 0.5, "grid_points": 64},
    "ber": {"scheme": "rbf", "channel": "awgn", "snr_db": "4", "angles": "0",
            "min_bits": 10_000, "max_bits": 10_000, "target_errors": 0,
            "elements": 4, "spacing": 0.5, "rbf_block": 2, "fading": "equal",
            "workers": 1, "seed": 1},
}


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def mutations(doc, count, rng):
    """``count`` texts, each ``doc`` with one field dropped or replaced, or
    its JSON text truncated."""
    text = json.dumps(doc)
    paths = list(_paths(doc))
    for _ in range(count):
        if rng.random() < 0.1:
            yield text[:rng.randrange(len(text))]
            continue
        out = copy.deepcopy(doc)
        path = rng.choice(paths)
        if not path:
            yield json.dumps(rng.choice(POOL))
            continue
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.3:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(rng.choice(POOL))
        yield json.dumps(out)


def run_checked(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code:
        assert "error: " in err.splitlines()[-1], (argv, err)
    return code


@pytest.fixture(scope="module")
def golay_doc(tmp_path_factory):
    base = tmp_path_factory.mktemp("golay") / "pair"
    assert main(["search", "--elements", "8", "--subarrays", "2",
                 "--method", "golay", "--grid-points", "64",
                 "--out", str(base)]) == 0
    return json.loads(base.with_suffix(".beams.json").read_text())


def test_mutated_beamset(tmp_path, capsys, golay_doc):
    rng = random.Random(SEED)
    path = tmp_path / "mutated.beams.json"
    codes = set()
    for text in mutations(golay_doc, 80, rng):
        path.write_text(text, encoding="utf-8")
        codes.add(run_checked(["pattern", "--beamset", str(path),
                               "--out", str(tmp_path / "p")], capsys))
        codes.add(run_checked(["ber", "--scheme", "cbf", "--beamset", str(path),
                               "--snr-db", "4", "--angles", "0",
                               "--min-bits", "10000", "--max-bits", "10000",
                               "--target-errors", "0", "--out",
                               str(tmp_path / "b")], capsys))
    assert codes == {0, 1}


@pytest.mark.parametrize("command", CONFIGS)
def test_mutated_config(tmp_path, capsys, command):
    rng = random.Random(f"{SEED}-{command}")
    path = tmp_path / "config.json"
    codes = set()
    for text in mutations(CONFIGS[command], 60, rng):
        path.write_text(text, encoding="utf-8")
        codes.add(run_checked([command, "--config", str(path),
                               "--out", str(tmp_path / "o")], capsys))
    assert 0 in codes and 2 in codes
