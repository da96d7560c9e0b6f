"""Command-line front end.

Three subcommands: ``search`` finds complementary beam sets and writes them
as JSON plus a pattern CSV, ``pattern`` renders patterns for given weights or
a saved beam set, and ``ber`` runs Monte Carlo bit-error campaigns.  Outputs
are byte-stable for a fixed configuration and seed; every file-producing run
also writes a manifest with content digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .arrays import AngleGrid, ArrayGeometry
from .beams import (DEFAULT_CANDIDATE_CEILING, DEFAULT_STOCHASTIC_BUDGET, ComplementaryBeamSet,
                    SearchMeta, find_complementary_set, phase_levels)

SEED_ENV_VAR = "CBF_SIM_SEED"
# Flags without a default; each must come from the command line or --config.
_REQUIRED = {"search": ("elements",), "pattern": (), "ber": ("scheme", "snr_db")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbfsim",
        description="Complementary-beam broadcasting: beam search, patterns, "
                    "and BER simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", help="find a complementary beam set")
    sp.add_argument("--config", type=Path, help="JSON file with default flag values")
    sp.add_argument("--elements", type=int, help="total array elements")
    sp.add_argument("--subarrays", type=int, choices=(2, 3), default=2)
    sp.add_argument("--accuracy", type=int, default=4,
                    help="phase quantization levels K")
    sp.add_argument("--method", choices=("exhaustive", "golay", "stochastic"),
                    default="exhaustive")
    sp.add_argument("--spacing", type=float, default=0.5,
                    help="element pitch in wavelengths")
    sp.add_argument("--grid-points", type=int, dest="grid_points", default=512)
    sp.add_argument("--budget", type=int, default=DEFAULT_STOCHASTIC_BUDGET,
                    help="stochastic evaluation budget")
    sp.add_argument("--ceiling", type=int, default=DEFAULT_CANDIDATE_CEILING,
                    help="exhaustive candidate ceiling")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="output base path (writes <out>.beams.json, "
                                  "<out>.pattern.csv, <out>.manifest.json)")

    pp = sub.add_parser("pattern", help="render beam patterns to CSV")
    pp.add_argument("--config", type=Path)
    pp.add_argument("--weights", action="append",
                    help="comma-separated phase indices, once per sub-array")
    pp.add_argument("--accuracy", type=int, default=4)
    pp.add_argument("--spacing", type=float, default=0.5)
    pp.add_argument("--grid-points", type=int, dest="grid_points", default=512)
    pp.add_argument("--beamset", help="beam-set JSON written by search")
    pp.add_argument("--out", default="cbfsim_pattern")

    bp = sub.add_parser("ber", help="run a Monte Carlo BER campaign")
    bp.add_argument("--config", type=Path)
    bp.add_argument("--scheme", choices=("cbf", "rbf", "single"))
    bp.add_argument("--channel", choices=("awgn", "rayleigh"), default="awgn")
    bp.add_argument("--snr-db", dest="snr_db",
                    help="start:step:stop or comma-separated Eb/N0 values in dB")
    bp.add_argument("--angles", help="comma-separated angles in degrees")
    bp.add_argument("--min-bits", type=int, dest="min_bits", default=100_000)
    bp.add_argument("--target-errors", type=int, dest="target_errors", default=200)
    bp.add_argument("--max-bits", type=int, dest="max_bits")
    bp.add_argument("--elements", type=int, default=8, help="array size for cbf/rbf")
    bp.add_argument("--spacing", type=float, default=0.5)
    bp.add_argument("--beamset", help="beam-set JSON for the cbf scheme")
    bp.add_argument("--rbf-block", type=int, dest="rbf_block", default=2,
                    help="symbols per random pattern")
    bp.add_argument("--fading", choices=("equal", "independent"), default="equal",
                    help="tie or untie the two sub-array fading coefficients")
    bp.add_argument("--seed", type=int)
    bp.add_argument("--workers", type=int,
                    help="most processes to run simulation batches in "
                         "(default: one per available CPU)")
    bp.add_argument("--out", default="cbfsim_ber")
    for command_parser in sub.choices.values():
        command_parser.set_defaults(parser=command_parser)
    return parser


def _config_defaults(ns: argparse.Namespace) -> dict:
    """The --config file's values for the command's flags, each converted
    and checked as the flag converts and checks its argument.  An appending
    flag given on the command line keeps its file value out, since argparse
    would append to that list rather than replace it."""
    parser, path = ns.parser, ns.config
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(doc, dict):
        parser.error(f"config file {path} must hold a JSON object")
    flags = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    for key in doc:
        if key not in flags:
            parser.error(f"config key {key!r}: no such {ns.command} option")
    values = {key: _flag_value(parser, flags[key], value, key in _REQUIRED[ns.command])
              for key, value in doc.items()}
    return {key: value for key, value in values.items()
            if not (isinstance(flags[key], argparse._AppendAction)
                    and getattr(ns, key) is not None)}


def _flag_value(parser, action, value, required):
    """``type`` applied to ``str(value)``, then ``choices``; an appending flag
    takes a list of such values.  No flag takes a bool, and null stands only
    for an optional flag whose default is None."""
    if value is None and action.default is None and not required:
        return None
    appends = isinstance(action, argparse._AppendAction)
    items = value if appends else [value]
    try:
        if not isinstance(items, list) or any(
                item is None or isinstance(item, (bool, list, dict)) for item in items):
            raise ValueError
        converted = [(action.type or str)(str(item)) for item in items]
        if action.choices is not None and any(c not in action.choices for c in converted):
            raise ValueError
    except ValueError:
        parser.error(f"config key {action.dest!r}: invalid value {value!r}")
    return converted if appends else converted[0]


def _env_seed(parser, text: str) -> int:
    """The seed in CBF_SIM_SEED; any other value is a usage error."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    parser.error(f"{SEED_ENV_VAR} must be a non-negative integer, got {text!r}")


def _parse_snr_grid(text: str, most: int) -> tuple[float, ...]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"SNR range must be start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise ValueError(f"SNR range bounds must be finite, got {text!r}")
        if step <= 0 or stop < start:
            raise ValueError("SNR range needs step > 0 and stop >= start")
        steps = (stop - start) / step
        if not steps < most:
            raise ValueError(f"SNR range {text!r} has more than {most} points")
        # the most points that do not pass stop, allowing for rounding in steps
        return tuple(start + i * step for i in range(math.floor(steps + 1e-9) + 1))
    return tuple(float(p) for p in text.split(","))


def _write(base: Path, suffix: str, lines: list[str]) -> Path:
    """<base><suffix> as UTF-8 text, each line ended by LF, its directory made first."""
    path = base.with_name(base.name + suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_manifest(base: Path, command: str, config: dict, outputs: list[Path]):
    doc = {
        "tool": {"name": "cbfsim", "version": __version__},
        "command": command,
        "config": config,
        "outputs": [
            {"path": p.name, "sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
             "bytes": p.stat().st_size}
            for p in outputs
        ],
    }
    return _write(base, ".manifest.json", [json.dumps(doc, indent=2, sort_keys=True)])


def _write_pattern_csv(base: Path, beams: ComplementaryBeamSet) -> Path:
    members = beams.member_powers
    names = ["theta_deg", *(f"g{i + 1}_power" for i in range(len(members))), "composite_power"]
    line = ",".join(["%.9g"] * len(names))  # numeric fields carry 9 significant digits
    cols = (np.degrees(beams.grid.points), *members, beams.composite_power)
    return _write(base, ".pattern.csv", [",".join(names)] + [line % row for row in zip(*cols)])


def _write_ber_csv(base: Path, curve) -> Path:
    header = "scheme,channel,angle_deg,ebn0_db,bits,errors,ber,ci95,ci_lo,ci_hi"
    line = "%s,%s,%.9g,%.9g,%s,%s,%.9g,%.9g,%.9g,%.9g"  # the pattern CSV's digits
    rows = ((curve.scheme, curve.channel, math.degrees(p.angle), p.eb_n0_db, p.bits,
             p.errors, p.ber, p.ci95, p.ci_lo, p.ci_hi) for p in curve.points)
    return _write(base, ".ber.csv", [header] + [line % row for row in rows])


def _load_beamset(path: str) -> ComplementaryBeamSet:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return ComplementaryBeamSet.from_json_dict(doc)


def cmd_search(ns, parser) -> int:
    geometry = ArrayGeometry(ns.elements, ns.subarrays, ns.spacing)
    grid = AngleGrid.uniform_theta(ns.grid_points)
    beams = find_complementary_set(geometry, ns.accuracy, grid, ns.method, seed=ns.seed,
                                   budget=ns.budget, candidate_ceiling=ns.ceiling)
    print("sigma_g2=%.9g" % beams.variance)
    if ns.out is not None:
        base = Path(ns.out)
        beams_json = json.dumps(beams.to_json_dict(), indent=2, sort_keys=True)
        written = [_write(base, ".beams.json", [beams_json]),
                   _write_pattern_csv(base, beams)]
        resolved = {
            "command": "search", "elements": ns.elements, "subarrays": ns.subarrays,
            "accuracy": ns.accuracy, "method": ns.method,
            "spacing": geometry.spacing, "grid_points": len(grid),
            "seed": beams.meta.seed, "budget": ns.budget,
            "ceiling": ns.ceiling, "out": ns.out,
        }
        _write_manifest(base, "search", resolved, written)
    return 0


def cmd_pattern(ns, parser) -> int:
    if ns.beamset is not None:
        beams = _load_beamset(ns.beamset)
    else:
        if not ns.weights:
            parser.error("pattern requires --weights (repeatable) or --beamset")
        levels = phase_levels(ns.accuracy)
        indices = []
        for spec in ns.weights:
            idx = tuple(int(t) if t.strip().isdecimal() else -1 for t in spec.split(","))
            if any(i < 0 or i >= ns.accuracy for i in idx):
                parser.error(f"--weights takes comma-separated phase indices from 0 to "
                             f"{ns.accuracy - 1}, got {spec!r}")
            indices.append(idx)
        if len({len(ix) for ix in indices}) != 1:
            parser.error("all weight vectors must have the same length")
        geometry = ArrayGeometry(len(indices[0]) * len(indices), len(indices), ns.spacing)
        grid = AngleGrid.uniform_theta(ns.grid_points)
        beams = ComplementaryBeamSet(geometry, levels[indices], grid,
                                     SearchMeta("explicit", 0, None),
                                     ns.accuracy, tuple(indices))
    base = Path(ns.out)
    written = [_write_pattern_csv(base, beams)]
    # a --beamset run reads none of the --weights inputs
    explicit = ns.beamset is None
    resolved = {"command": "pattern",
                "weights": [list(ix) for ix in beams.phase_indices] if explicit else None,
                "accuracy": beams.accuracy if explicit else None,
                "spacing": beams.geometry.spacing if explicit else None,
                "grid_points": len(beams.grid), "beamset": ns.beamset, "out": str(base)}
    _write_manifest(base, "pattern", resolved, written)
    return 0


def run_ber(config):    # simulate.run_ber, compiled on first call; patchable here
    from .simulate import run_ber
    return run_ber(config)


def cmd_ber(ns, parser) -> int:
    from .simulate import (DEFAULT_ANGLES_DEG, MAX_LATTICE_POINTS, SchemeConfig, SimConfig,
                           _keep_batch_memory, _pool_size)
    snr_grid = _parse_snr_grid(ns.snr_db, MAX_LATTICE_POINTS)
    angles_deg = DEFAULT_ANGLES_DEG if ns.angles is None else tuple(
        float(tok) for tok in ns.angles.split(","))

    # a saved beam set brings its own geometry
    beamset = ns.beamset if ns.scheme == "cbf" else None
    if ns.scheme == "cbf":
        if beamset is not None:
            beams = _load_beamset(beamset)
        else:
            beams = find_complementary_set(ArrayGeometry(ns.elements, 2, ns.spacing), 2,
                                           AngleGrid.uniform_theta(512), "golay")
        scheme = SchemeConfig(kind="cbf", geometry=beams.geometry, beams=beams)
    elif ns.scheme == "rbf":
        geometry = ArrayGeometry(ns.elements, 1, ns.spacing)
        scheme = SchemeConfig(kind="rbf", geometry=geometry,
                              rbf_block_symbols=ns.rbf_block)
    else:
        scheme = SchemeConfig(kind="single", geometry=ArrayGeometry(1, 1))

    config = SimConfig(scheme=scheme, channel=ns.channel,
                       angles=tuple(math.radians(a) for a in angles_deg), snr_db=snr_grid,
                       min_bits=ns.min_bits, target_errors=ns.target_errors,
                       max_bits=ns.max_bits, seed=ns.seed or 0, workers=ns.workers,
                       equal_subarrays=ns.fading == "equal")
    if _pool_size(config) == 1:
        _keep_batch_memory()    # the batches run in this process, which ends with them
    curve = run_ber(config)
    base = Path(ns.out)
    written = [_write_ber_csv(base, curve)]
    resolved = {
        "command": "ber", "scheme": ns.scheme, "channel": config.channel,
        "snr_db": list(config.snr_db), "angles_deg": list(angles_deg),
        "min_bits": config.min_bits, "target_errors": config.target_errors,
        "max_bits": config.max_bits, "seed": config.seed,
        "workers": config.workers,
        # a flag the scheme never reads is recorded as null
        "elements": None if ns.scheme == "single" or beamset is not None else ns.elements,
        "spacing": None if ns.scheme == "single" or beamset is not None else ns.spacing,
        "rbf_block": scheme.rbf_block_symbols if ns.scheme == "rbf" else None,
        "fading": ns.fading if ns.scheme == "cbf" else None,
        "beamset": beamset, "out": str(base),
    }
    _write_manifest(base, "ber", resolved, written)
    return 0


_DISPATCH = {"search": cmd_search, "pattern": cmd_pattern, "ber": cmd_ber}


def main(argv=None) -> int:
    """Flag beats --config file beats default: the file's checked values
    become the command's defaults and the same argv is parsed again."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config is not None:
            ns.parser.set_defaults(**_config_defaults(ns))
            ns = parser.parse_args(argv)
        for key in _REQUIRED[ns.command]:
            if getattr(ns, key) is None:
                ns.parser.error(f"{ns.command} requires --{key.replace('_', '-')}")
        if "seed" in vars(ns) and ns.seed is None and SEED_ENV_VAR in os.environ:
            ns.seed = _env_seed(ns.parser, os.environ[SEED_ENV_VAR])
        return _DISPATCH[ns.command](ns, ns.parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OSError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
