"""Command-line surface: path classification, kernels, sweeps, dephasing.

Outputs are machine-readable (single-line JSON, or CSV for sweeps) and
byte-identical across runs for identical invocations.  Every error exits
nonzero with a single diagnostic line ``anyonsim: <ErrorName>: <detail>`` on
stderr, where ErrorName is the exception class from :mod:`anyonsim.errors`.

Each question is one process, so a run's fixed cost, the interpreter's
start-up, the imports and its teardown, is most of a short run: a kernel's
census takes under 1 ms of a ~60 ms ``kernel`` run.  The process entry point
is :func:`run`, which both ``python -m anyonsim.cli`` and the ``anyonsim``
script call: it runs :func:`main` and freezes the cyclic collector before the
process exits.  The interpreter's teardown ends with a cyclic collection that
runs even while the collector is disabled and walks the ~13,000 objects that
``site`` and the package leave tracked, only to find no garbage; after
``gc.freeze()`` it skips them, which saves ~5 ms of every run.  stdout and
stderr are still flushed, so every output, refusal line and exit code is as
it was.  :func:`main` is the in-process entry point, of the tests and of the
benchmark's traced view: it pauses the collector only while a subcommand
runs, and never freezes.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import re
import sys
from collections.abc import Iterable, Iterator

# amplitudes and exchange are imported by the subcommands that run them, so
# that winding, the subcommand of a path file, loads neither
from . import config_space, homotopy
from .errors import AnyonSimError, BadRange, BudgetExceeded, ParseError, ValidationError

#: the characters of a path file's "configs" array decoded as one block
_JSON_BLOCK = 1 << 14
#: the end of one configuration [[x1, y1], [x2, y2]] and the comma before the next
_CONFIG_END = re.compile(r"\][ \t\n\r]*\][ \t\n\r]*,")
#: json's reader of the one value at an index of a text (no value there is a
#: ValueError, where scan_once's StopIteration is a RuntimeError in a
#: generator), and its skip of whitespace
_DECODE, _WS = json.JSONDecoder().raw_decode, json.decoder.WHITESPACE.match

#: sweep rows joined into one write, so memory stays bounded at any --points
_SWEEP_BLOCK_ROWS = 4096


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise ParseError(f"bad dt grid {text!r}: {exc}") from exc


def _unique(pairs: list) -> dict:
    """The members of a JSON object as a dict, a repeated key refused."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise ValueError(f"duplicate key {key!r}")
        members[key] = value
    return members


def _path_configs(held: list, data: dict) -> Iterator:
    """The values of a path file's top-level "configs" array, decoded a block
    at a time, and then the file's other members read into data.

    held is the list of the file's one text, emptied once every character
    of it has been read, so that a caller that holds the text through it
    holds it no longer than it may read the text again.  Each block is cut after a "]]," at least _JSON_BLOCK characters on, and
    the last one ends where json closes the array.  The cuts only choose
    where to decode: one that falls inside a value leaves it open, so the
    block does not decode.  json reads the rest of the text with the array
    replaced by null, so every character is checked by json itself.
    """
    text, i, key = held[0], 0, None
    while key != "configs":  # past each "{" or ",", key and ":"; json checks them below
        key, i = _DECODE(text, _WS(text, _WS(text, i).end() + 1).end())
        i = _WS(text, _WS(text, i).end() + 1).end()
        if key != "configs":
            i = _DECODE(text, i)[1]
    start, opening = i, ""  # the first block opens with the array's own "["
    while True:
        cut = _CONFIG_END.search(text, i + _JSON_BLOCK)
        block = opening + (text[i:cut.end() - 1] + "]" if cut else text[i:])
        values, n = _DECODE(block)
        if not values:  # "[]" is no path, and after a cut it is a trailing comma
            raise ValueError("an empty block of configs")
        yield from values
        del values  # so that the tree of one block at a time is alive
        if not cut or n < len(block):  # the array is closed in this block
            break
        i, opening = cut.end(), "["
    stop = i + n - len(opening)
    rest = json.loads(text[:start] + "null" + text[stop:], object_pairs_hook=_unique)
    if type(rest) is not dict:
        raise ValueError(f"expected an object, got {rest!r}")
    data.update(rest)
    held.clear()


def _load_path(path_file: str) -> config_space._Walk:
    """The validating pass over the path of a path file, with the outcome of
    ``path_from_json_dict(json.loads(text, object_pairs_hook=_unique))``: the
    same record of the same path, or the same error.  The file's "configs"
    are decoded a block at a time and each configuration is read by the pass
    as it is decoded, so neither the JSON tree of the whole file nor the
    path's configurations are held, and the text is dropped once it has been
    read to its end.  Such a file is valid JSON, so the refusal of its path
    is the result; on a defect met before, the text is decoded whole, and
    that read's record or error is the result."""
    try:
        with open(path_file, "r", encoding="utf-8") as fh:
            held = [fh.read()]
    except OSError as exc:
        raise ParseError(f"cannot read {path_file}: {exc}") from exc
    except ValueError as exc:  # not UTF-8
        raise ParseError(f"invalid JSON in {path_file}: {exc}") from exc
    data = {}
    data["configs"] = _path_configs(held, data)
    try:
        return config_space._walk_from_json(data)
    except (ValidationError, RecursionError):  # a defect: a block, a value, the rest or the path
        if not held:  # the text was read to its end
            raise
    try:
        data = json.loads(held[0], object_pairs_hook=_unique)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise ParseError(f"invalid JSON in {path_file}: {exc}") from exc
    return config_space._walk_from_json(data)


def _cmd_winding(args: argparse.Namespace) -> int:
    walked = _load_path(args.path_file)
    cls = homotopy.classify(walked)
    report = {
        "kind": cls.kind.value,
        "winding": cls.winding,
        "total_angle": homotopy.total_angle(walked),
    }
    print(json.dumps(report))
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    from . import amplitudes

    if args.budget <= 0:
        raise ParseError(f"budget must be positive, got {args.budget}")
    if args.workers < 1:
        raise ParseError(f"workers must be >= 1, got {args.workers}")
    lattice = config_space.LatticeSpec(extent=args.extent, spacing=args.spacing)
    endpoints = config_space.EndpointPair(
        config_space.TwoParticleConfig(*args.start), config_space.TwoParticleConfig(*args.end)
    )
    params = amplitudes.PhysicsParams(mass=args.mass, hbar=args.hbar)
    kernel = amplitudes.resolved_kernel(
        lattice,
        endpoints,
        args.steps,
        params,
        dt=args.dt,
        budget=args.budget,
    )
    doc = kernel.to_json_dict()
    report = {
        "endpoints": doc["endpoints"],
        "n_steps": doc["n_steps"],
        "partition_total": _complex_dict(kernel.total()),
    }
    if args.theta is not None:
        report["theta"] = args.theta
        report["weighted_total"] = _complex_dict(
            amplitudes.anyonic_kernel(kernel, args.theta)
        )
    if args.resolve:
        report["partials"] = doc["partials"]
    print(json.dumps(report))
    return 0


def _sweep_grid(args: argparse.Namespace) -> tuple[Iterable[float], tuple[str, ...]]:
    """The thetas of the sweep rows, lazily and in rising order, and the
    classes, as their --op-class values, that each theta gets a row for.
    Every refusal is raised here, before the first theta is made."""
    from . import amplitudes, exchange

    points, theta_min, theta_max = args.points, args.theta_min, args.theta_max
    if points < 1:
        raise BadRange(f"points must be >= 1, got {points}")
    if points > exchange.MAX_SIZE:
        raise BudgetExceeded(f"{points} sweep points exceed the cap {exchange.MAX_SIZE}")
    for flag, value in (("theta-min", theta_min), ("theta-max", theta_max)):
        if not math.isfinite(value):
            raise BadRange(f"{flag} must be finite, got {value}")
    if theta_max < theta_min:
        raise BadRange(f"theta-max {theta_max} is below theta-min {theta_min}")
    classes = ("boson", "fermion") if args.op_class == "both" else (args.op_class,)
    if points == 1:
        return (theta_min,), classes
    gaps = points - 1
    span = theta_max - theta_min
    if math.isfinite(gaps * span):
        def theta(i):
            return theta_min + i * span / gaps
    else:
        # i * span overflows for the last rows (or span itself does), so the
        # step span / gaps is taken as theta_max / gaps - theta_min / gaps,
        # the share of theta_min taken off before that of theta_max is put
        # on, so that no partial sum leaves the range of the two bounds
        hi, lo = theta_max / gaps, theta_min / gaps

        def theta(i):
            return theta_min - i * lo + i * hi
    # the thetas rise with i, so if one overflows the last does: it is refused here
    amplitudes.StatisticsSpec(theta=theta(gaps), op_class=classes[0])
    return map(theta, range(points)), classes


def _cmd_sweep(args: argparse.Namespace) -> int:
    from . import amplitudes, exchange

    geom = exchange.ExchangeGeometry(radius=args.radius, n_steps=args.steps, dt=args.dt)
    params = amplitudes.PhysicsParams(mass=args.mass, hbar=args.hbar)
    thetas, classes = _sweep_grid(args)
    # the validating pass, so a refusal leaves stdout empty
    values = exchange._phase_rule(*exchange._designated_exchange(geom, params)[1:], classes)
    # the rows of one theta, all its classes, are formatted by one %
    line = "".join(f"%.12g,{c},%.12g,%.12g,%.12g\n" for c in classes)
    lines = map(line.__mod__, map(values, thetas))
    write = sys.stdout.write
    write("theta,op_class,phi,re_amp,im_amp\n")
    # one write per block of at most _SWEEP_BLOCK_ROWS rows: an unbuffered
    # stdout makes each write a system call
    per_block = _SWEEP_BLOCK_ROWS // len(classes)
    while block := "".join(itertools.islice(lines, per_block)):
        write(block)
    return 0


def _cmd_dephase(args: argparse.Namespace) -> int:
    from . import amplitudes, exchange

    params = amplitudes.PhysicsParams(mass=args.mass, hbar=args.hbar)
    fit = exchange.dephasing_exponent(
        args.radius, args.duration, params, _parse_grid(args.dt_grid)
    )
    report = {
        "slope": fit.slope,
        "predicted": fit.predicted,
        "rel_error": fit.rel_error,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "samples": [s._asdict() for s in fit.samples],
    }
    print(json.dumps(report))
    return 0


def _cmd_exchange(args: argparse.Namespace) -> int:
    from . import amplitudes, exchange

    geom = exchange.ExchangeGeometry(args.radius, args.steps, args.dt, args.direction)
    params = amplitudes.PhysicsParams(mass=args.mass, hbar=args.hbar)
    walked, cls, amp = exchange._designated_exchange(geom, params)
    stats = amplitudes.StatisticsSpec(args.theta, args.op_class)
    result = exchange.exchange_phase(cls, amp, stats)
    report = {
        "kind": cls.kind.value,
        "winding": cls.winding,
        "total_angle": homotopy.total_angle(walked),
        "n_flipped": len(walked.crossings),
        "theta": stats.theta,
        "op_class": stats.op_class.value,
        "phi": result.phi,
        "amplitude": _complex_dict(result.amplitude),
    }
    print(json.dumps(report))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, its subcommands' parsers too, with a usage error
    raised as ParseError, so that it is one line like every other refusal,
    and a token that float() reads taken as a value: argparse's own test for
    a negative number takes "-1e-3" and "-inf" for options."""

    def error(self, message: str):
        raise ParseError(message)

    def _parse_optional(self, arg_string: str):
        try:
            float(arg_string)  # a number is a value, which argparse marks by returning None
        except ValueError:
            return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anyonsim",
        description="Two-particle exchange statistics in the punctured plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("winding", help="classify a path JSON file by winding")
    p.add_argument("path_file")
    p.set_defaults(func=_cmd_winding)

    p = sub.add_parser("kernel", help="winding-resolved lattice propagator")
    p.add_argument("--extent", type=int, required=True)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--start", required=True, nargs=4, type=float,
                   metavar=("X1", "Y1", "X2", "Y2"))
    p.add_argument("--end", required=True, nargs=4, type=float,
                   metavar=("X1", "Y1", "X2", "Y2"))
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--resolve", action="store_true", help="emit per-class partials")
    p.add_argument("--budget", type=int, default=config_space.DEFAULT_BUDGET,
                   help="cap on the 25^steps joint-move sequence bound (default %(default)s)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored; kept for compatibility")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("sweep", help="exchange phase across statistics angles (CSV)")
    p.add_argument("--theta-min", type=float, required=True)
    p.add_argument("--theta-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--op-class", choices=["boson", "fermion", "both"], default="both")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("dephase", help="opposite-step phase growth vs 1/dt")
    p.add_argument("--dt-grid", required=True, metavar="DT1,DT2,...")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--duration", type=float, default=2.0, help="total exchange time held fixed")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(func=_cmd_dephase)

    p = sub.add_parser("exchange", help="designated exchange path diagnostics")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument(
        "--direction", choices=["ccw", "cw"], default="ccw",
        help="sense of the exchange; it sets the winding w = +1/2 (ccw) or -1/2 (cw) "
        "and so the phase phi = theta*w (+ pi for fermions)",
    )
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--op-class", choices=["boson", "fermion"], default="boson")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(func=_cmd_exchange)

    return parser


def main(argv: list[str] | None = None) -> int:
    # no subcommand makes reference cycles in bulk, so the cyclic collector is
    # paused while one runs: its gen-0 passes over the 10^5 small objects of a
    # path file or an exchange path find nothing to free
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except AnyonSimError as exc:
        print(f"anyonsim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


def run() -> None:
    """The process entry point: exits with the status of :func:`main` on
    sys.argv, with every object tracked by then frozen, so the interpreter's
    teardown collection skips them (see the module docstring)."""
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
