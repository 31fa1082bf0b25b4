import contextlib
import gc
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import anyonsim
from anyonsim import (
    ExchangeGeometry,
    OpClass,
    PhysicsParams,
    StatisticsSpec,
    build_exchange_path,
    classify,
    exchange_phase,
    path_amplitude,
    path_from_json_dict,
    step_factors,
    theta_sweep,
)
from anyonsim.cli import _SWEEP_BLOCK_ROWS as BLOCK
from anyonsim.cli import main

TAU = 2 * math.pi


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_path_json(tmp_path, name, dt, rel_points, antipodal=False):
    if antipodal:
        configs = [[[rx / 2, ry / 2], [-rx / 2, -ry / 2]] for rx, ry in rel_points]
    else:
        configs = [[[rx, ry], [0.0, 0.0]] for rx, ry in rel_points]
    target = tmp_path / name
    target.write_text(json.dumps({"dt": dt, "configs": configs}), encoding="utf-8")
    return str(target)


class TestWinding:
    def test_square_loop(self, capsys, tmp_path):
        path_file = write_path_json(
            tmp_path, "loop.json", 1.0, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
        )
        code, out, err = run(capsys, ["winding", path_file])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["kind"] == "Direct"
        assert report["winding"] == 1.0
        assert report["total_angle"] == pytest.approx(TAU)

    @pytest.mark.parametrize(
        "rel_points, winding, total_angle",
        [
            # every float cross and dot product overflows to inf or NaN
            ([(1e200, 1e200), (-1e200, 1e200), (1e200, 1e200)], 0.0, 0.0),
            ([(1e200, 0), (1e200, 1e199), (1e199, 1e200), (-1e200, 0), (0, -1e200), (1e200, 0)], 1.0, TAU),
            # a crossing whose float cross product alone underflows, to -0.0 or 0.0
            ([(1e-300, 0), (3, -1e-300), (0, -3), (-3, 0), (0, 3), (1e-300, 0)], -1.0, -TAU),
            ([(1e-300, 0), (0, 3), (-3, 0), (0, -3), (3, -1e-300), (1e-300, 0)], 1.0, TAU),
        ],
        ids=["overflow-there-and-back", "overflow-ccw-loop", "cross-underflow-cw-loop",
             "cross-underflow-ccw-loop"],
    )
    def test_turns_past_the_float_range_are_exact(self, capsys, tmp_path, rel_points, winding, total_angle):
        path_file = write_path_json(tmp_path, "loop.json", 1.0, rel_points)
        code, out, err = run(capsys, ["winding", path_file])
        assert code == 0 and err == ""
        assert json.loads(out) == {"kind": "Direct", "winding": winding, "total_angle": total_angle}

    def test_half_turn_exchange(self, capsys, tmp_path):
        path_file = write_path_json(
            tmp_path, "half.json", 1.0, [(2, 0), (0, 2), (-2, 0)], antipodal=True
        )
        code, out, _ = run(capsys, ["winding", path_file])
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "Exchange"
        assert report["winding"] == 0.5

    def test_coincident_config_exits_2(self, capsys, tmp_path):
        path_file = write_path_json(tmp_path, "bad.json", 1.0, [(0, 0), (1, 0)])
        code, out, err = run(capsys, ["winding", path_file])
        assert code == 2
        assert "CoincidenceAtStep" in err
        assert err.count("\n") == 1

    def test_unreadable_json_is_parse_error(self, capsys, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, ["winding", str(target)])
        assert code == 2
        assert "ParseError" in err

    @pytest.mark.parametrize(
        "content, error",
        [
            (b"\xff\xfe{}", "ParseError"),
            (b'{"dt": 1' + b"0" * 5000 + b', "configs": []}', "ParseError"),
            (b'{"dt": 1' + b"0" * 400 + b', "configs": []}', "ValidationError"),
            (b'{"dt": 1, "configs": [[[1' + b"0" * 400 + b", 0], [0, 0]]]}", "ValidationError"),
            # nesting past the recursion limit used to crash with a RecursionError traceback
            (b"[" * 10**5, "ParseError"),
            (b'{"dt": 1, "configs": ' + b"[" * 10**5, "ParseError"),
            (b"[]", "ValidationError"),
            (b"5", "ValidationError"),
            (b"null", "ValidationError"),
            (b"{}", "ValidationError"),
        ],
        ids=[
            "not-utf8",
            "past-int-digit-limit",
            "dt-past-float-range",
            "coordinate-past-float-range",
            "nested-past-recursion-limit",
            "configs-nested-past-recursion-limit",
            "top-level-array",
            "top-level-number",
            "top-level-null",
            "top-level-empty-object",
        ],
    )
    def test_unloadable_file_is_one_error_line(self, capsys, tmp_path, content, error):
        target = tmp_path / "unloadable.json"
        target.write_bytes(content)
        code, out, err = run(capsys, ["winding", str(target)])
        assert code == 2 and out == ""
        assert re.fullmatch(rf"anyonsim: {error}: [^\n]+\n", err)

    @pytest.mark.parametrize(
        "dt, configs",
        [
            ("1.0", '["10", "00"], ["01", "00"], ["10", "00"]'),
            ("1.0", '[["1", "0"], [0, 0]], [[0, 1], [0, 0]], [["1", "0"], [0, 0]]'),
            ("1.0", "[[true, false], [0, 0]], [[0, 1], [0, 0]], [[true, false], [0, 0]]"),
            ('"1"', "[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[1, 0], [0, 0]]"),
            ("1.0", "[[1, 0, 7], [0, 0]], [[0, 1], [0, 0]], [[1, 0, 7], [0, 0]]"),
        ],
        ids=["two-character-strings", "string-coordinates", "booleans", "string-dt", "three-coordinates"],
    )
    def test_value_that_is_not_a_json_number_is_malformed(self, capsys, tmp_path, dt, configs):
        # each of these closed loops used to be read as a path and classified
        target = tmp_path / "not_numbers.json"
        target.write_text(f'{{"dt": {dt}, "configs": [{configs}]}}', encoding="utf-8")
        code, out, err = run(capsys, ["winding", str(target)])
        assert code == 2 and out == ""
        assert re.fullmatch(r"anyonsim: ValidationError: malformed path JSON: [^\n]+\n", err)

    @pytest.mark.parametrize(
        "pair, detail",
        [
            ([[0, 1]], "not enough values to unpack (expected 2, got 1)"),
            ([[0, "1"], [0, 0]], "coordinates must be numbers, got [[0, '1'], [0, 0]]"),
            ([[0, 10**400], [0, 0]], "int too large to convert to float"),
        ],
        ids=["not-a-pair", "string", "past-float-range"],
    )
    def test_malformed_pair_midway_is_one_error_line(self, capsys, tmp_path, pair, detail):
        # the pairs before it are already converted, and freed, when it is read
        configs = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[-1, 0], [0, 0]], [[0, -1], [0, 0]]] * 250
        configs[601] = pair
        target = tmp_path / "midway.json"
        target.write_text(json.dumps({"dt": 1.0, "configs": configs}), encoding="utf-8")
        code, out, err = run(capsys, ["winding", str(target)])
        assert (code, out) == (2, "")
        assert err == f"anyonsim: ValidationError: malformed path JSON: {detail}\n"

    def test_int_and_negative_zero_coordinates_are_exact(self, capsys, tmp_path):
        target = tmp_path / "ints.json"
        target.write_text(
            '{"dt": 1, "configs": [[[1, -0.0], [0, 0]], [[0, 1], [-0.0, 0]], [[1, -0.0], [0, 0]]]}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["winding", str(target)])
        assert code == 0 and err == ""
        assert json.loads(out)["kind"] == "Direct"
        path = path_from_json_dict(json.loads(target.read_text(encoding="utf-8")))
        assert path.dt == 1.0 and type(path.dt) is float
        assert [math.copysign(1.0, v) for v in path.start] == [1.0, -1.0, 1.0, 1.0]
        assert all(type(v) is float for config in path.configs for v in config)

    def test_nan_coordinate_is_validation_error(self, capsys, tmp_path):
        cases = [
            ("[[NaN, 0], [0, 0]]", "(nan, 0.0)"),
            ("[[0, Infinity], [2, 0]]", "(0.0, inf)"),
            ("[[1, 0], [NaN, 0]]", "(nan, 0.0)"),
            ("[[1, 0], [0, -Infinity]]", "(0.0, -inf)"),
        ]
        for k, (first, pair) in enumerate(cases):
            target = tmp_path / f"non_finite{k}.json"
            target.write_text(
                f'{{"dt": 1.0, "configs": [{first}, [[1, 0], [0, 0]]]}}', encoding="utf-8"
            )
            code, out, err = run(capsys, ["winding", str(target)])
            assert code == 2 and out == ""
            assert err == f"anyonsim: ValidationError: non-finite vector component {pair}\n"

    @pytest.mark.parametrize(
        "argv, content, error",
        [
            (["winding"], b'{"dt": 1.0, "configs": [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[1, 0], [0, 0]]]}', None),
            (["winding"], b"{not json", "ParseError"),
            (["winding"], b'{"dt": 1.0, "configs": [[[1, 0]], [[1, 0]]]}', "ValidationError"),
            (["exchange", "--steps", "64"], None, None),
            (
                ["kernel", "--extent", "2", "--steps", "6", "--start", "-1", "0", "1", "0",
                 "--end", "1", "0", "-1", "0"],
                None,
                "BudgetExceeded",
            ),
        ],
        ids=["classified", "parse-error", "validation-error", "exchange", "kernel-refused"],
    )
    def test_collector_is_enabled_after_loading(self, capsys, tmp_path, argv, content, error):
        # the cyclic collector is paused while a subcommand runs, and only then
        if content is not None:
            target = tmp_path / "path.json"
            target.write_bytes(content)
            argv = [*argv, str(target)]
        assert gc.isenabled()
        code, _, err = run(capsys, argv)
        assert code == (2 if error else 0)
        assert err.startswith(f"anyonsim: {error}: ") if error else err == ""
        assert gc.isenabled()

    def test_seed_flag_rejected(self, capsys, tmp_path):
        path_file = write_path_json(
            tmp_path, "loop2.json", 1.0, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
        )
        code, out, err = run(capsys, ["--seed", "42", "winding", path_file])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"anyonsim: ParseError: [^\n]+\n", err)


KERNEL_ARGS = [
    "kernel",
    "--extent", "2",
    "--steps", "1",
    "--start", "0", "0", "2", "0",
    "--end", "0", "0", "2", "0",
]


class TestKernel:
    def test_one_step_total(self, capsys):
        code, out, _ = run(capsys, KERNEL_ARGS)
        assert code == 0
        report = json.loads(out)
        assert report["partition_total"] == {"re": 1.0, "im": 0.0}
        assert "partials" not in report

    def test_theta_zero_weighted_equals_partition(self, capsys):
        code, out, _ = run(capsys, KERNEL_ARGS + ["--theta", "0", "--resolve"])
        assert code == 0
        report = json.loads(out)
        assert report["weighted_total"] == report["partition_total"]
        assert report["partials"] == [
            {"kind": "Direct", "winding": 0.0, "re": 1.0, "im": 0.0}
        ]

    def test_budget_exceeded_reports_estimate(self, capsys):
        argv = [
            "kernel", "--extent", "3", "--steps", "9",
            "--start", "0", "0", "2", "0", "--end", "0", "0", "2", "0",
        ]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "BudgetExceeded" in err
        # 25^6 already exceeds the default budget, so 25^9 is not built in full
        assert "estimated 25^9 joint-move sequences" in err

    def test_env_budget_ignored(self, capsys, monkeypatch):
        # the budget has one source, --budget; 625 sequences are within its default
        monkeypatch.setenv("ANYONSIM_BUDGET", "10")
        code, _, err = run(capsys, KERNEL_ARGS + ["--steps", "2"])
        assert code == 0 and err == ""

    def test_byte_identical_reruns_and_workers(self, capsys):
        argv = [
            "kernel", "--extent", "2", "--steps", "4",
            "--start", "1", "0", "0", "0", "--end", "1", "0", "0", "0",
            "--resolve", "--theta", "1.25",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        _, parallel, _ = run(capsys, argv + ["--workers", "2"])
        assert first == second == parallel

    def test_generic_endpoints_rejected(self, capsys):
        argv = [
            "kernel", "--extent", "2", "--steps", "2",
            "--start", "0", "0", "2", "0", "--end", "0", "1", "2", "0",
        ]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "EndpointsNotClosedOrExchanged" in err

    def test_kind_decided_on_snapped_sites(self, capsys):
        argv = [
            "kernel", "--extent", "2", "--steps", "4",
            "--start", "1.0000000001", "0", "-1", "0", "--end", "-1", "0", "1", "0",
            "--theta", "0.3", "--resolve",
        ]
        code, jittered, err = run(capsys, argv)
        assert code == 0 and err == ""
        argv[argv.index("1.0000000001")] = "1"
        _, exact, _ = run(capsys, argv)
        assert jittered == exact

    def test_generic_endpoints_same_error_line_as_winding(self, capsys, tmp_path):
        path_file = write_path_json(tmp_path, "open.json", 1.0, [(1, 0), (0, 1)])
        code, _, winding_err = run(capsys, ["winding", path_file])
        assert code == 2
        argv = [
            "kernel", "--extent", "2", "--steps", "2",
            "--start", "0", "0", "2", "0", "--end", "0", "1", "2", "0",
        ]
        _, _, kernel_err = run(capsys, argv)
        assert winding_err == kernel_err
        assert kernel_err.startswith("anyonsim: EndpointsNotClosedOrExchanged: ")

    def test_negative_coordinates_parse(self, capsys):
        argv = [
            "kernel", "--extent", "2", "--steps", "4",
            "--start", "-1", "0", "1", "0", "--end", "1", "0", "-1", "0", "--resolve",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        windings = [p["winding"] for p in json.loads(out)["partials"]]
        assert windings == [-0.5, 0.5]


@pytest.mark.parametrize(
    "argv, detail",
    [
        (
            ["kernel", "--extent", "2", "--steps", "1", "--start", "0", "0", "--end", "0", "0", "2", "0"],
            "argument --start: expected 4 arguments",
        ),
        (KERNEL_ARGS + ["--steps", "2.5"], "argument --steps: invalid int value: '2.5'"),
        (["exchange", "--theta", "abc"], "argument --theta: invalid float value: 'abc'"),
        (["dephase", "--dt-grid", "abc"], "bad dt grid 'abc': could not convert string to float: 'abc'"),
        (
            ["winding", "no-such-dir/path.json"],
            "cannot read no-such-dir/path.json: [Errno 2] No such file or directory: "
            "'no-such-dir/path.json'",
        ),
    ],
    ids=["wrong-coordinate-count", "kernel-float-steps", "exchange-word-theta",
         "dephase-word-grid", "winding-missing-file"],
)
def test_usage_error_is_one_parse_error_line(capsys, argv, detail):
    # argparse's own errors too: no usage block, and the exit code of every refusal
    assert run(capsys, argv) == (2, "", f"anyonsim: ParseError: {detail}\n")


def _kernel_exchange(start_x):
    return [
        "kernel", "--extent", "2", "--steps", "4", "--resolve",
        "--start", start_x, "0", "1", "0", "--end", "1", "0", start_x, "0",
    ]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["exchange", "--steps", "3", "--theta", "-1e-3"], ["exchange", "--steps", "3", "--theta=-1e-3"]),
        (["exchange", "--theta", "-2.5E+1"], ["exchange", "--theta=-25"]),
        (
            ["sweep", "--theta-min", "-1e-3", "--theta-max", "1", "--points", "3"],
            ["sweep", "--theta-min=-0.001", "--theta-max", "1", "--points", "3"],
        ),
        (_kernel_exchange("-1e0"), _kernel_exchange("-1")),
        (
            ["kernel", "--extent", "2", "--steps", "2", "--start", "-1e-5", "0", "1", "0",
             "--end", "1", "0", "-1e-5", "0"],
            "EndpointOffLattice: coordinate -1e-05 is not a lattice site (spacing 1.0, extent 2)",
        ),
        (["exchange", "--theta", "-inf"], "ValidationError: theta must be finite, got -inf"),
        (["exchange", "--theta", "-nan"], "ValidationError: theta must be finite, got nan"),
        # a token that float() does not read is still an option
        (["exchange", "--theta", "-e3"], "ParseError: argument --theta: expected one argument"),
    ],
    ids=["exchange-exponent", "exchange-capital-exponent", "sweep-exponent", "kernel-exponent",
         "kernel-off-lattice", "minus-inf", "minus-nan", "not-a-number"],
)
def test_negative_number_in_any_float_notation_is_a_value(capsys, argv, expected):
    # argparse's own pattern takes "-1e-3" and "-inf" for options
    if isinstance(expected, list):
        expected = run(capsys, expected)
        assert expected[0] == 0
    else:
        expected = (2, "", f"anyonsim: {expected}\n")
    assert run(capsys, argv) == expected


def _expected_sweep(points, classes):
    """The CSV of theta_sweep's rows for --theta-min=-2.5 --theta-max 9.75, formatted field by field."""
    thetas = [-2.5 + i * 12.25 / (points - 1) for i in range(points)]
    rows = theta_sweep(ExchangeGeometry(1.0, 12, 0.07), PhysicsParams(mass=1.3), thetas, classes)
    return "".join(
        ",".join(
            [format(r.theta, ".12g"), r.op_class.value]
            + [format(v, ".12g") for v in (r.phi, r.amplitude.real, r.amplitude.imag)]
        )
        + "\n"
        for r in rows
    )


class TestSweep:
    def test_boson_phi_column(self, capsys):
        argv = [
            "sweep", "--theta-min", "0", "--theta-max", str(TAU),
            "--points", "3", "--op-class", "boson",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,op_class,phi,re_amp,im_amp"
        phis = [float(line.split(",")[2]) for line in lines[1:]]
        assert phis == pytest.approx([0.0, math.pi / 2, math.pi], abs=1e-9)

    def test_both_classes_doubles_rows(self, capsys):
        argv = [
            "sweep", "--theta-min", "0", "--theta-max", "1",
            "--points", "5", "--op-class", "both",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 10
        assert all(line.count(",") == 4 for line in lines)

    def test_zero_points_is_bad_range(self, capsys):
        argv = ["sweep", "--theta-min", "0", "--theta-max", "1", "--points", "0"]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "BadRange" in err

    def test_infinite_bound_is_bad_range(self, capsys):
        argv = ["sweep", "--theta-min", "0", "--theta-max", "inf", "--points", "3"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "anyonsim: BadRange: theta-max must be finite, got inf\n"

    def test_tiny_negative_theta_phi_is_zero(self, capsys):
        argv = ["sweep", "--theta-min=-1e-20", "--theta-max", "0", "--points", "1",
                "--op-class", "boson"]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        assert out.splitlines()[1].split(",")[2] == "0"

    def test_reruns_byte_identical(self, capsys):
        argv = [
            "sweep", "--theta-min", "0", "--theta-max", "12.0",
            "--points", "7", "--op-class", "both",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_bounds_whose_span_overflows(self, capsys):
        # theta-max - theta-min, or twice it, is inf, so the grid steps by the
        # difference of their shares: theta-min's taken off, then theta-max's put on
        for bounds, thetas in [
            (("-1e308", "1e308"), ["-1e+308", "0", "1e+308"]),
            (("0", "1e308"), ["0", "5e+307", "1e+308"]),
            (("1e307", "1.7e308"), ["1e+307", "9e+307", "1.7e+308"]),
        ]:
            argv = ["sweep", f"--theta-min={bounds[0]}", f"--theta-max={bounds[1]}",
                    "--points", "3", "--op-class", "boson"]
            code, out, err = run(capsys, argv)
            assert code == 0 and err == "", bounds
            assert [line.split(",")[0] for line in out.splitlines()[1:]] == thetas

    def test_last_theta_overflowing_is_refused_before_any_row(self, capsys):
        # the share max/3 of the largest float, taken 3 times, rounds up to inf
        top = repr(1.7976931348623157e308)
        argv = ["sweep", f"--theta-min=-{top}", f"--theta-max={top}", "--points", "4"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "anyonsim: ValidationError: theta must be finite, got inf\n"

    @pytest.mark.parametrize("op_class", ["boson", "fermion", "both"])
    def test_rows_are_theta_sweep_formatted(self, capsys, op_class):
        argv = ["sweep", "--theta-min=-2.5", "--theta-max", "9.75", "--points", "9",
                "--op-class", op_class, "--steps", "12", "--dt", "0.07", "--mass", "1.3"]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        classes = [OpClass.BOSON, OpClass.FERMION] if op_class == "both" else [OpClass(op_class)]
        assert out == "theta,op_class,phi,re_amp,im_amp\n" + _expected_sweep(9, classes)

    @pytest.mark.parametrize("op_class", ["boson", "fermion", "both"])
    @pytest.mark.parametrize(
        "theta_min, theta_max, points", [(-2.5, 9.75, 9), (-1e-20, 0.0, 2), (-40.0, 40.0, 5)]
    )
    def test_rows_are_exchange_phase_formatted(self, capsys, op_class, theta_min, theta_max, points):
        # each row is exchange_phase's for its theta and class, formatted field
        # by field; theta_sweep shares the CLI's phase rule, so it is not used here
        argv = ["sweep", f"--theta-min={theta_min!r}", f"--theta-max={theta_max!r}",
                "--points", str(points), "--op-class", op_class,
                "--steps", "12", "--dt", "0.07", "--mass", "1.3"]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        path = build_exchange_path(ExchangeGeometry(1.0, 12, 0.07))
        cls, amp = classify(path), path_amplitude(path, PhysicsParams(mass=1.3))
        classes = [OpClass.BOSON, OpClass.FERMION] if op_class == "both" else [OpClass(op_class)]
        rows = ["theta,op_class,phi,re_amp,im_amp"]
        for i in range(points):
            theta = theta_min + i * (theta_max - theta_min) / (points - 1)
            for c in classes:
                r = exchange_phase(cls, amp, StatisticsSpec(theta, c))
                fields = (r.theta, r.phi, r.amplitude.real, r.amplitude.imag)
                rows.append(",".join([format(fields[0], ".12g"), c.value, *(format(v, ".12g") for v in fields[1:])]))
        assert out == "".join(row + "\n" for row in rows)


class TestSweepBlocks:
    """Sweep rows are written in blocks of at most BLOCK rows; the bytes do not depend on it."""

    @pytest.mark.parametrize(
        "op_class, points",
        [
            ("boson", BLOCK - 1),
            ("boson", BLOCK),
            ("boson", BLOCK + 1),
            ("boson", 2 * BLOCK + 1),
            ("both", BLOCK // 2 - 1),
            ("both", BLOCK // 2),
            ("both", BLOCK // 2 + 1),
            ("both", BLOCK + 1),
        ],
    )
    def test_rows_across_block_boundaries(self, monkeypatch, op_class, points):
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        argv = ["sweep", "--theta-min=-2.5", "--theta-max", "9.75", "--points", str(points),
                "--op-class", op_class, "--steps", "12", "--dt", "0.07", "--mass", "1.3"]
        assert main(argv) == 0
        classes = (OpClass.BOSON, OpClass.FERMION) if op_class == "both" else (OpClass.BOSON,)
        n_rows = points * len(classes)
        assert "".join(writes) == (
            "theta,op_class,phi,re_amp,im_amp\n" + _expected_sweep(points, classes)
        )
        # the header, then full blocks and one last partial block
        assert [w.count("\n") for w in writes] == [1] + [BLOCK] * (n_rows // BLOCK) + (
            [n_rows % BLOCK] if n_rows % BLOCK else []
        )

    @staticmethod
    def _run(argv, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pathlib.Path(anyonsim.__file__).parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return subprocess.run(
            [sys.executable, "-m", "anyonsim.cli", *argv], capture_output=True, env=env, timeout=120
        )

    def test_unbuffered_stdout_prints_the_same_bytes(self):
        argv = ["sweep", "--theta-min=-2.5", "--theta-max", "9.75", "--points", str(BLOCK + 1),
                "--op-class", "both", "--steps", "12", "--dt", "0.07", "--mass", "1.3"]
        buffered, unbuffered = self._run(argv, False), self._run(argv, True)
        assert buffered.returncode == unbuffered.returncode == 0
        assert buffered.stderr == unbuffered.stderr == b""
        expected = "theta,op_class,phi,re_amp,im_amp\n" + _expected_sweep(
            BLOCK + 1, (OpClass.BOSON, OpClass.FERMION)
        )
        assert buffered.stdout == unbuffered.stdout == expected.encode()

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ["sweep", "--theta-min", "0", "--theta-max", "1", "--points", "2",
                 "--steps", str(10**6 + 1)],
                b"anyonsim: BudgetExceeded: 1000001 exchange steps exceed the cap 1000000\n",
            ),
            (
                ["sweep", f"--theta-min=-{1.7976931348623157e308!r}",
                 f"--theta-max={1.7976931348623157e308!r}", "--points", "4"],
                b"anyonsim: ValidationError: theta must be finite, got inf\n",
            ),
        ],
        ids=["steps-cap", "last-theta-overflows"],
    )
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_refused_sweep_leaves_stdout_empty(self, argv, err, unbuffered):
        result = self._run(argv, unbuffered)
        assert (result.returncode, result.stdout, result.stderr) == (2, b"", err)


def _loaded_modules(argv):
    """The anyonsim modules that a fresh interpreter has loaded after importing
    the package, and, given argv, after running the CLI's main on it."""
    script = (
        "import json, sys, anyonsim\n"
        "if sys.argv[1:]:\n"
        "    from anyonsim.cli import main\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('anyonsim'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(anyonsim.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=env,
                          text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], {"anyonsim"}),
        (["winding", "loop.json"], {"anyonsim", "anyonsim.cli", "anyonsim.config_space",
                                    "anyonsim.errors", "anyonsim.homotopy"}),
        (["kernel", "--extent", "1", "--steps", "2", "--start", "1", "0", "0", "0", "--end", "1", "0", "0", "0"],
         {"anyonsim", "anyonsim.amplitudes", "anyonsim.cli", "anyonsim.config_space",
          "anyonsim.errors", "anyonsim.homotopy"}),
    ],
    ids=["import", "winding", "kernel"],
)
def test_subcommand_loads_only_its_modules(tmp_path, monkeypatch, argv, loaded):
    # the package exports its names lazily, and the CLI imports amplitudes and
    # exchange only in the subcommands that run them: start-up is most of a
    # short job's time
    monkeypatch.chdir(tmp_path)
    write_path_json(tmp_path, "loop.json", 0.5, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)])
    assert _loaded_modules(argv) == loaded


def test_package_exports_each_name_of_its_modules():
    from anyonsim import amplitudes, config_space, exchange, homotopy

    modules = {m.__name__.rpartition(".")[2]: m for m in (amplitudes, config_space, exchange, homotopy)}
    assert anyonsim.__all__ == sorted(anyonsim._EXPORTS)
    for name, module in anyonsim._EXPORTS.items():
        assert getattr(anyonsim, name) is getattr(modules[module], name), name
        assert name in dir(anyonsim)
    assert anyonsim.DEFAULT_BUDGET is amplitudes.DEFAULT_BUDGET
    with pytest.raises(AttributeError, match="^module 'anyonsim' has no attribute 'nonexistent'$"):
        anyonsim.nonexistent


SWEEP_ARGS = ["sweep", "--theta-min", "0", "--theta-max", "1"]


@pytest.mark.parametrize("n", [10**18, 10**6 + 1])
@pytest.mark.parametrize(
    "argv, what",
    [
        (["exchange", "--steps"], "exchange steps"),
        (SWEEP_ARGS + ["--points", "2", "--steps"], "exchange steps"),
        (SWEEP_ARGS + ["--points"], "sweep points"),
    ],
    ids=["exchange-steps", "sweep-steps", "sweep-points"],
)
def test_size_cap_refused_before_allocating(capsys, argv, what, n):
    code, out, err = run(capsys, [*argv, str(n)])
    assert code == 2 and out == ""
    assert err == f"anyonsim: BudgetExceeded: {n} {what} exceed the cap 1000000\n"


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (
            ["exchange", "--theta", "0.9"],
            '{"kind": "Exchange", "winding": 0.5, "total_angle": 3.141592653589793, '
            '"n_flipped": 1, "theta": 0.9, "op_class": "boson", "phi": 0.45, '
            '"amplitude": {"re": 0.9459241500007938, "im": 0.3243878888695999}}\n'
        ),
        (
            ["exchange", "--theta", "0.9", "--op-class", "fermion"],
            '{"kind": "Exchange", "winding": 0.5, "total_angle": 3.141592653589793, '
            '"n_flipped": 1, "theta": 0.9, "op_class": "fermion", '
            '"phi": 3.591592653589793, "amplitude": {"re": -0.9459241500007938, '
            '"im": -0.3243878888695999}}\n'
        ),
        (
            ["exchange", "--direction", "cw", "--theta", "0.9"],
            '{"kind": "Exchange", "winding": -0.5, "total_angle": -3.141592653589793, '
            '"n_flipped": 1, "theta": 0.9, "op_class": "boson", "phi": 5.833185307179586, '
            '"amplitude": {"re": 0.8420976433772558, "im": -0.539325095854506}}\n'
        ),
        (
            ["exchange", "--direction", "cw", "--theta", "0.9", "--op-class", "fermion"],
            '{"kind": "Exchange", "winding": -0.5, "total_angle": -3.141592653589793, '
            '"n_flipped": 1, "theta": 0.9, "op_class": "fermion", '
            '"phi": 2.6915926535897934, "amplitude": {"re": -0.8420976433772558, '
            '"im": 0.539325095854506}}\n'
        ),
        (
            ["sweep", "--theta-min", "-1", "--theta-max", "2.5", "--points", "3", "--op-class", "both"],
            'theta,op_class,phi,re_amp,im_amp\n'
            '-1,boson,5.78318530718,0.814090220343,-0.580738420583\n'
            '-1,fermion,2.64159265359,-0.814090220343,0.580738420583\n'
            '0.75,boson,0.375,0.967571274719,0.25259815585\n'
            '0.75,fermion,3.51659265359,-0.967571274719,-0.25259815585\n'
            '2.5,boson,1.25,0.426330073944,0.904567669138\n'
            '2.5,fermion,4.39159265359,-0.426330073944,-0.904567669138\n'
        ),
        (
            [
                "kernel", "--extent", "2", "--steps", "5", "--start", "1", "0", "0", "0",
                "--end", "1", "0", "0", "0", "--theta", "0.7", "--resolve", "--mass", "1.3",
                "--dt", "0.7",
            ],
            '{"endpoints": {"start": [[1.0, 0.0], [0.0, 0.0]], "end": [[1.0, 0.0], [0.0, '
            '0.0]]}, "n_steps": 5, "partition_total": {"re": 14144.031299207101, '
            '"im": 12497.59176605929}, "theta": 0.7, '
            '"weighted_total": {"re": 14134.714659858691, "im": 12477.028749993833}, '
            '"partials": [{"kind": "Direct", "winding": -1.0, "re": 19.809334082558358, '
            '"im": 43.72173696464485}, {"kind": "Direct", "winding": 0.0, '
            '"re": 14104.412631041985, "im": 12410.148292130001}, {"kind": "Direct", '
            '"winding": 1.0, "re": 19.809334082558358, "im": 43.72173696464485}]}\n'
        ),
        (
            ["dephase", "--dt-grid", "0.2,0.1,0.05,0.02"],
            '{"slope": 4.00776117647832, "predicted": 4.0, '
            '"rel_error": 0.0019402941195800771, "intercept": -0.39200465997615197, '
            '"residual": 0.09765174997041348, "samples": [{"dt": 0.2, "n_steps": 10, '
            '"phase_op": 19.510565162951536, "phase_dir": 0.4894348370484642}, {"dt": 0.1, '
            '"n_steps": 20, "phase_op": 39.75376681190276, '
            '"phase_dir": 0.24623318809724545}, {"dt": 0.05, "n_steps": 40, '
            '"phase_op": 79.87669334932514, "phase_dir": 0.12330665067488095}, '
            '{"dt": 0.02, "n_steps": 100, "phase_op": 199.95065603657315, '
            '"phase_dir": 0.049343963426844294}]}\n'
        ),
        (
            ["winding", "loop.json"],
            '{"kind": "Direct", "winding": 1.0, "total_angle": 6.283185307179586}\n'
        ),
    ],
    ids=[
        "exchange-ccw-boson", "exchange-ccw-fermion", "exchange-cw-boson", "exchange-cw-fermion",
        "sweep-both", "kernel-resolved", "dephase", "winding",
    ],
)
def test_golden_stdout(capsys, tmp_path, monkeypatch, argv, stdout):
    # the benchmark's oracles check these values to a tolerance; the CLI
    # promises the exact bytes, so a change of summation order shows only here
    monkeypatch.chdir(tmp_path)
    write_path_json(tmp_path, "loop.json", 0.5, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)])
    assert run(capsys, argv) == (0, stdout, "")


README = pathlib.Path(__file__).parent.parent / "README.md"


def readme_examples():
    """Each ``$ anyonsim ...`` command of the README's sh blocks, with its
    continuation lines, and the output shown under it up to the next command
    or the end of the block."""
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        lines = iter(block.splitlines())
        shown = None
        for line in lines:
            if line.startswith("$ anyonsim "):
                command = line
                while command.endswith("\\"):
                    command = command[:-1] + next(lines)
                shown = []
                examples.append((shlex.split(command)[2:], shown))
            elif shown is not None and line:
                shown.append(line)
    return [pytest.param(argv, shown, id=" ".join(argv)) for argv, shown in examples]


@pytest.mark.parametrize("argv, shown", readme_examples())
def test_readme_example(capsys, tmp_path, monkeypatch, argv, shown):
    # the README's one json block is the path.json that its winding example reads
    (path_json,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    (tmp_path / "path.json").write_text(path_json, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    # wrapped lines are joined by one space; the text between "..." elisions
    # must appear in the real output in order
    joined = " ".join(line.strip() for line in out.splitlines())
    at = 0
    for part in " ".join(line.strip() for line in shown).split("..."):
        part = part.strip()
        found = joined.find(part, at)
        assert found >= 0, f"{part!r} not in {joined[at:]!r}"
        at = found + len(part)


class TestDephase:
    def test_default_experiment(self, capsys):
        code, out, _ = run(capsys, ["dephase", "--dt-grid", "0.2,0.1,0.05,0.02"])
        assert code == 0
        report = json.loads(out)
        assert report["predicted"] == 4.0
        assert report["rel_error"] < 0.01
        assert [s["dt"] for s in report["samples"]] == [0.2, 0.1, 0.05, 0.02]

    def test_two_point_grid_rejected(self, capsys):
        code, _, err = run(capsys, ["dephase", "--dt-grid", "0.1,0.05"])
        assert code == 2
        assert "DegenerateGrid" in err

    @pytest.mark.parametrize(
        "duration, err",
        [
            ("-1", "ValidationError: duration must be finite and > 0, got -1.0"),
            ("nan", "ValidationError: duration must be finite and > 0, got nan"),
            ("inf", "ValidationError: duration must be finite and > 0, got inf"),
            # durations too short for one step of any dt name the duration as given
            ("5e-324", "DegenerateGrid: dt 0.2 leaves fewer than 2 steps of the exchange "
             "of duration 5e-324"),
            ("5e-323", "DegenerateGrid: dt 0.2 leaves fewer than 2 steps of the exchange "
             "of duration 5e-323"),
        ],
        ids=["negative", "nan", "inf", "5e-324", "5e-323"],
    )
    def test_bad_duration_refusal_names_it(self, capsys, duration, err):
        argv = ["dephase", "--dt-grid", "0.2,0.1,0.05,0.02", f"--duration={duration}"]
        assert run(capsys, argv) == (2, "", f"anyonsim: {err}\n")


class TestExchange:
    def test_report_fields(self, capsys):
        argv = ["exchange", "--steps", "16", "--theta", str(math.pi), "--op-class", "fermion"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "Exchange"
        assert report["winding"] == 0.5
        assert report["n_flipped"] == 1
        assert report["phi"] == pytest.approx(3 * math.pi / 2, abs=1e-9)

    @pytest.mark.parametrize("steps", [2, 3, 32, 1001])
    def test_n_flipped_counts_flipped_step_factors(self, capsys, steps):
        code, out, _ = run(capsys, ["exchange", "--steps", str(steps)])
        assert code == 0
        geom = ExchangeGeometry(radius=1.0, n_steps=steps, dt=0.05)
        factors = step_factors(build_exchange_path(geom))
        assert json.loads(out)["n_flipped"] == sum(f.flipped for f in factors)

    def test_cw_phase_is_minus_half_theta(self, capsys):
        code, out, err = run(capsys, ["exchange", "--direction", "cw", "--theta", "1.3"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["kind"] == "Exchange"
        assert report["winding"] == -0.5
        assert report["n_flipped"] == 1
        assert report["phi"] == pytest.approx(TAU - 0.65, abs=1e-12)

    def test_tiny_negative_theta_phi_is_zero(self, capsys):
        # theta*w = -5e-21 reduced mod 2*pi rounds up to 2*pi itself
        code, out, err = run(capsys, ["exchange", "--theta=-1e-20"])
        assert code == 0 and err == ""
        assert json.loads(out)["phi"] == 0.0

    @pytest.mark.parametrize("radius", ["1e-200", "1e-160"])
    def test_tiny_radius_keeps_the_half_turn(self, capsys, radius):
        # the cross and dot products of these relative vectors are subnormal
        # (1e-160) or underflow to 0 (1e-200); taken exactly, they keep sign and angle
        code, out, err = run(capsys, ["exchange", f"--radius={radius}"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert (report["winding"], report["n_flipped"]) == (0.5, 1)
        assert abs(report["total_angle"] - math.pi) <= 1e-9


# site index v / spacing overflows to inf
SNAP_OVERFLOW_ARGVS = [
    ["kernel", "--extent", "2", "--steps", "4", "--spacing", "1e-10",
     "--start", "1e308", "0", "0", "0", "--end", "1e308", "0", "0", "0"],
    ["kernel", "--extent", "2", "--steps", "2", "--spacing", "5e-324",
     "--start", "1", "0", "0", "0", "--end", "1", "0", "0", "0"],
]


# winding files, particle 2 at the origin, whose turns have cross and dot
# products that overflow in floats: valid paths, with a finite total_angle
OVERFLOWING_TURN_ARGVS = [
    ["winding", b'{"dt": 1.0, "configs": [[[1e200, 1e200], [0, 0]], [[-1e200, 1e200], [0, 0]], '
                b'[[1e200, 1e200], [0, 0]]]}'],
    ["winding", b'{"dt": 1.0, "configs": [[[1e200, 0], [0, 0]], [[1e200, 1e199], [0, 0]], '
                b'[[1e199, 1e200], [0, 0]], [[-1e200, 0], [0, 0]], [[0, -1e200], [0, 0]], '
                b'[[1e200, 0], [0, 0]]]}'],
]


# swapped endpoints that no 3-step walk joins, so the kernel has no classes
NO_WALK_KERNEL_ARGV = [
    "kernel", "--extent=2", "--steps=3",
    "--start", "1", "1", "1", "-1", "--end", "1", "-1", "1", "1",
]


class TestNonFiniteTimes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dephase", "--dt-grid", "nan,0.1,0.05"],
            ["dephase", "--dt-grid", "0.2,0.1,0.05", "--duration", "inf"],
            ["exchange", "--dt", "inf"],
            KERNEL_ARGS + ["--dt", "inf"],
            KERNEL_ARGS + ["--mass", "inf"],
            KERNEL_ARGS + ["--spacing", "inf"],
            ["dephase", "--dt-grid", "0.2,0.1,0.05", "--mass", "inf"],
            ["exchange", "--hbar", "inf"],
            ["exchange", "--mass", "inf"],
            ["dephase", "--dt-grid", "0.2,0.1,0.05", "--radius", "1e-300"],
            ["dephase", "--dt-grid", "0.2,0.1,0.05", "--radius", "1e200"],
            ["dephase", "--dt-grid", "0.2,0.1,0.05", "--hbar", "1e-320"],
            ["dephase", "--dt-grid", "1e-310,1e-311,1e-312"],
            ["exchange", "--mass", "1e308", "--radius", "1e10"],
            ["sweep", "--theta-min", "0", "--theta-max", "1", "--points", "2",
             "--mass", "1e308", "--radius", "1e10"],
            ["kernel", "--extent", "1", "--steps", "3", "--start", "0", "0", "1", "0",
             "--end", "0", "0", "1", "0", "--mass", "1e308", "--dt", "1e-10"],
            KERNEL_ARGS + ["--dt", "1e-200", "--hbar", "1e-200"],
            ["kernel", "--extent", "1", "--steps", "1", "--spacing", "1e200",
             "--start", "0", "0", "1e200", "0", "--end", "0", "0", "1e200", "0"],
            ["exchange", "--hbar", "1e-310"],
            ["sweep", "--theta-min", "0", "--theta-max", "1", "--points", "2",
             "--hbar", "1e-310"],
            ["exchange", "--hbar", "1e-300"],
            ["sweep", "--theta-min", "0", "--theta-max", "1", "--points", "2",
             "--hbar", "1e-300"],
            ["kernel", "--extent", "2", "--steps", "3", "--start", "0", "0", "1", "0",
             "--end", "0", "0", "1", "0", "--mass", "1.7e308"],
            ["dephase", "--dt-grid", "1e-300,1e-301,1e-302", "--hbar", "1e-10"],
            ["dephase", "--dt-grid", "1e-300,1e-301,1e-302"],
            ["dephase", "--dt-grid", "0.2,0.1,0.05", "--hbar", "1e-200"],
            ["kernel", "--extent", "2", "--steps", "8", "--start", "1", "0", "0", "0",
             "--end", "1", "0", "0", "0", "--theta", "1e308", "--resolve",
             "--budget", "100000000000000000000"],
            ["kernel", "--extent", "1", "--steps", "4000", "--start", "0", "0", "1", "0",
             "--end", "0", "0", "1", "0"],
            *SNAP_OVERFLOW_ARGVS,
            NO_WALK_KERNEL_ARGV + ["--theta=nan"],
        ],
        ids=[
            "dephase-nan-grid", "dephase-inf-duration", "exchange-inf-dt", "kernel-inf-dt",
            "kernel-inf-mass", "kernel-inf-spacing", "dephase-inf-mass", "exchange-inf-hbar",
            "exchange-inf-mass", "dephase-slope-underflow", "dephase-slope-overflow",
            "dephase-tiny-hbar", "dephase-infinite-step-count", "exchange-action-overflow",
            "sweep-action-overflow", "kernel-action-unit-overflow", "kernel-dt-hbar-underflow",
            "kernel-spacing-squared-overflow", "exchange-phase-overflow",
            "sweep-phase-overflow", "exchange-phase-past-2-53", "sweep-phase-past-2-53", "kernel-phase-overflow", "dephase-phase-overflow",
            "dephase-non-finite-fit", "dephase-residual-overflow", "kernel-anyonic-angle-overflow",
            "kernel-budget-bignum", "kernel-snap-quotient-overflow", "kernel-snap-tiny-spacing",
            "kernel-no-walk-nan-theta",
        ],
    )
    def test_refused_with_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"anyonsim: \w+: [^\n]+\n", err)


ORDINARY = st.sampled_from(("1", "0.5", "2.5", "0.05", "0.2"))
EDGES = st.sampled_from(
    ("nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e-300", "0", "-0", "-1")
)
# argparse reads "-inf" or "-1e308" after --start/--end as an option, so those
# coordinates keep to tokens that every Python version reads as values
SITE = st.sampled_from(("1", "0", "-1", "2"))
ODD_COORDS = st.sampled_from(("0.5", "-0", "nan", "inf", "1e308", "5e-324", "1e-300"))
COUNTS = st.sampled_from((3, 2, 1, 0))
DTS = st.sampled_from(("0.2", "0.1", "0.05", "0.02", "0.01"))
# EDGES as JSON tokens, plus an integer past the range of float
JSON_EDGES = st.sampled_from(
    ("NaN", "Infinity", "-Infinity", "1e308", "-1e308", "5e-324", "1e-300", "0", "-0", "-1",
     "1" + "0" * 400)
)
MALFORMED_FILES = st.sampled_from(
    (
        b'{"dt": 0.1, "configs": [[[1, 0], [0, 0]]',
        b'{"configs": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]}',
        b'{"dt": 0.1, "configs": [[[1, 0]], [[1, 0]]]}',
        b'{"dt": "fast", "configs": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]}',
        b'{"dt": 0.1, "configs": 5}',
        b"[]",
        b"\xff\xfe",
        b'{"dt": 1' + b"0" * 5000 + b', "configs": []}',
        b'{"dt": 0.1, "configs": ' + b"[" * 10**5 + b"]" * 10**5 + b"}",
    )
)


@st.composite
def cli_argvs(draw):
    """A kernel, sweep, dephase, exchange or winding argv whose values are
    ordinary but for up to two taken from the edges of float; single values
    are passed as --flag=value, so that argparse never reads -inf as an
    option.  A winding argv holds the bytes of its path file, which the test
    writes: 2-4 configurations in JSON, or a malformed file."""

    def spoiled(tokens, odd):
        tokens = list(tokens)
        for _ in range(draw(st.integers(0, 2)) if tokens else 0):
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(odd)
        return tokens

    def floats(*flags):
        present = [flag for flag in flags if draw(st.booleans())]
        values = spoiled([draw(ORDINARY) for _ in present], EDGES)
        return [f"--{flag}={value}" for flag, value in zip(present, values)]

    command = draw(st.sampled_from(["kernel", "sweep", "dephase", "exchange", "winding"]))
    argv = [command]
    if command == "kernel":
        argv += [f"--extent={draw(st.sampled_from((2, 1, 0)))}", f"--steps={draw(COUNTS)}"]
        start = draw(st.lists(SITE, min_size=4, max_size=4))
        end = draw(st.sampled_from([start, start[2:] + start[:2], None]))
        end = end or draw(st.lists(SITE, min_size=4, max_size=4))
        coords = spoiled(start + end, ODD_COORDS)
        argv += ["--start", *coords[:4], "--end", *coords[4:]]
        argv += floats("spacing", "dt", "mass", "hbar", "theta")
        if draw(st.booleans()):
            argv.append(f"--budget={draw(st.sampled_from((10**7, 1, 0)))}")
        if draw(st.booleans()):
            argv.append(f"--workers={draw(st.sampled_from((1, 2, 0)))}")
        if draw(st.booleans()):
            argv.append("--resolve")
    elif command == "sweep":
        low, high = spoiled(sorted([draw(ORDINARY), draw(ORDINARY)], key=float), EDGES)
        argv += [f"--theta-min={low}", f"--theta-max={high}", f"--points={draw(COUNTS)}"]
        argv += [f"--op-class={draw(st.sampled_from(['boson', 'fermion', 'both']))}"]
        argv += [f"--steps={draw(st.integers(1, 64))}"]
        argv += floats("radius", "dt", "mass", "hbar")
    elif command == "dephase":
        grid = draw(st.lists(DTS, min_size=3, unique=True))
        argv += [f"--dt-grid={','.join(spoiled(grid, EDGES))}"]
        argv += floats("radius", "duration", "mass", "hbar")
    elif command == "winding":
        start = draw(st.lists(SITE, min_size=4, max_size=4))
        middle = draw(st.lists(st.lists(SITE, min_size=4, max_size=4), max_size=2))
        end = draw(st.sampled_from([start, start[2:] + start[:2], None]))
        end = end or draw(st.lists(SITE, min_size=4, max_size=4))
        dt, *coords = spoiled([draw(DTS), *start, *sum(middle, []), *end], JSON_EDGES)
        configs = ", ".join(
            f"[[{x1}, {y1}], [{x2}, {y2}]]" for x1, y1, x2, y2 in zip(*[iter(coords)] * 4)
        )
        document = f'{{"dt": {dt}, "configs": [{configs}]}}'.encode()
        argv.append(draw(st.sampled_from([document, draw(MALFORMED_FILES)])))
    else:
        argv += [f"--steps={draw(st.integers(1, 64))}"]
        argv += [f"--direction={draw(st.sampled_from(['ccw', 'cw']))}"]
        argv += [f"--op-class={draw(st.sampled_from(['boson', 'fermion']))}"]
        argv += floats("radius", "dt", "theta", "mass", "hbar")
    return argv


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(
    max_examples=375,
    deadline=None,
    derandomize=True,
    database=None,
    # one file per example, rewritten by each
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=cli_argvs())
@example(argv=SNAP_OVERFLOW_ARGVS[0])
@example(argv=SNAP_OVERFLOW_ARGVS[1])
@example(argv=OVERFLOWING_TURN_ARGVS[0])
@example(argv=OVERFLOWING_TURN_ARGVS[1])
def test_every_argv_succeeds_cleanly_or_fails_with_one_line(tmp_path, argv):
    if argv[0] == "winding":
        target = tmp_path / "path.json"
        target.write_bytes(argv[1])
        argv = ["winding", str(target)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == ""
        assert re.fullmatch(r"anyonsim: \w+: [^\n]+\n", err)
        return
    assert code == 0 and err == ""
    if argv[0] == "sweep":
        header, *rows = out.splitlines()
        assert header == "theta,op_class,phi,re_amp,im_amp"
        for row in rows:
            theta, _op_class, *numbers = row.split(",")
            assert all(math.isfinite(float(v)) for v in (theta, *numbers))
    else:
        json.loads(out, parse_constant=_refuse_constant)
