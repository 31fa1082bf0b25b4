"""winding's path file, read a block at a time.

The CLI's loader is checked against ``path_from_json_dict(json.loads(text,
object_pairs_hook=cli._unique))``: every file gives the same record of the
same path, and the same CLI line, or the same error.  The loader runs the
validating pass over the configurations as they are decoded, so a defect of
the path that it meets first must wait for a later defect of the JSON, of a
pair or of dt.  Also checked: the stdout and errors of the CLI, the blocks
themselves, and the memory a load peaks at.
"""

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from anyonsim import DiscretePath, cli, classify, path_from_json_dict, total_angle
from anyonsim.errors import AnyonSimError

#: particle 1's 16-site ring of radius 2 about particle 2 at the origin, counter-clockwise
RING = (
    [(2, j) for j in range(-2, 2)] + [(i, 2) for i in range(2, -2, -1)]
    + [(-2, j) for j in range(2, -2, -1)] + [(i, -2) for i in range(-2, 2)]
)


def ring_walk(n_configs):
    """n_configs configurations of particle 1 lapping particle 2, as JSON pairs."""
    return [[list(RING[k % 16]), [0, 0]] for k in range(n_configs)]


def outcome(load, arg):
    """load(arg), or the (name, message) of the AnyonSimError it raises."""
    try:
        return load(arg)
    except AnyonSimError as exc:
        return type(exc).__name__, str(exc)


def reference(path_file):
    """path_from_json_dict of the file's whole JSON tree, a JSON defect as the CLI's ParseError."""
    try:
        with open(path_file, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=cli._unique)
    except (ValueError, RecursionError) as exc:
        return "ParseError", f"invalid JSON in {path_file}: {exc}"
    return outcome(path_from_json_dict, data)


def summary(walked):
    """What winding reads of a path, or of the loader's record of one: its
    endpoints and turning bit for bit, its length and its crossings."""
    return (
        [v.hex() for v in walked.start], [v.hex() for v in walked.end],
        walked.n_steps, walked.crossings, total_angle(walked).hex(),
    )


def cli_lines(result):
    """The exit code, stdout and stderr of winding when its file reads as result."""
    cls = outcome(classify, result) if isinstance(result, DiscretePath) else result
    if type(cls) is tuple:  # the file's error, or the path's endpoints that have no class
        return 2, "", "anyonsim: {}: {}\n".format(*cls)
    report = {"kind": cls.kind.value, "winding": cls.winding, "total_angle": total_angle(result)}
    return 0, json.dumps(report) + "\n", ""


def write(tmp_path, text):
    target = tmp_path / "path.json"
    target.write_text(text, encoding="utf-8")
    return str(target)


def winding(capsys, path_file):
    code = cli.main(["winding", path_file])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COORDS = (0, 1, -1, 2, -3, 0.5, -0.0, 1e-300, 2.5e3)
EXTRAS = {"note": "x]], y", "meta": {"a": [[1, 2]], "b": None}, "n": 12, "list": [[[0]], []]}
SPACE = ("", " ", "\n", "\r\n\t ")
DEFECTS = (
    "string", "bool", "three coordinates", "NaN", "no ]", "no [", "trailing garbage",
    "repeated key", "repeated nested key", "dt not a number",
    # valid JSON whose path is refused
    "coincident", "pi turn", "dt <= 0", "one configuration",
)
#: the defects of the path that a reader may meet before a defect that comes first
EARLY = ("coincident", "pi turn", "dt <= 0")
#: the defects of one configuration: an early one goes before it
AT_CONFIG = ("string", "bool", "three coordinates", "NaN", "no ]", "no [")


def random_configs(rng, n):
    """n configurations of coordinates from COORDS as JSON pairs, none
    coincident and none turning exactly antiparallel from the one before, so
    that most of them make a valid path."""
    configs, r = [], None
    while len(configs) < n:
        (x1, y1), (x2, y2) = pair = [[rng.choice(COORDS) for _ in "xy"] for _ in "12"]
        nr = (x1 - x2, y1 - y2)
        if nr == (0, 0) or r and r[0] * nr[1] == r[1] * nr[0] and r[0] * nr[0] + r[1] * nr[1] < 0:
            continue
        configs.append(pair)
        r = nr
    return configs


@st.composite
def path_files(draw):
    """The text of a path file, with dt before or after configs, extra keys,
    assorted whitespace and 0 to 3000 configurations, and at most two
    defects: one of DEFECTS, and, unless it is a coincidence or a pi turn,
    maybe one of EARLY, a coincidence or a pi turn at an earlier
    configuration or a dt <= 0, that a reader may meet first, but which the
    first defect must be reported before."""
    n = draw(st.one_of(st.integers(0, 4), st.integers(5, 3000), st.integers(1500, 3000)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    configs = random_configs(rng, n)
    defects = DEFECTS if n else ("trailing garbage", "dt <= 0", "dt not a number")
    defects = defects if n > 1 else [d for d in defects if d != "pi turn"]
    # the defects are drawn from the seeded rng: hypothesis's derandomized
    # draws leave most files whole and seldom pair two defects
    defect = rng.choice([None, *defects])
    k = rng.randrange(1 if defect == "pi turn" else 0, n) if n else 0
    early = None
    if defect not in (None, "coincident", "pi turn"):
        # the configurations an early coincidence or pi turn may be at: those before the defect's own
        before = k if defect in AT_CONFIG else 1 if defect == "one configuration" else n
        choices = [
            e for e in EARLY
            if (defect not in ("dt <= 0", "dt not a number") if e == "dt <= 0" else before > (e == "pi turn"))
        ]
        early = rng.choice([*choices, None])
        if early in ("coincident", "pi turn"):
            k0 = rng.randrange(1 if early == "pi turn" else 0, before)
            if early == "coincident":
                configs[k0][1] = list(configs[k0][0])
            else:  # the swap of the configuration before: r turns by exactly pi
                configs[k0] = configs[k0 - 1][::-1]
    if defect in ("string", "bool", "NaN"):
        position = configs[k][draw(st.integers(0, 1))]
        position[draw(st.integers(0, 1))] = {"string": "1", "bool": True, "NaN": math.nan}[defect]
    elif defect == "three coordinates":
        configs[k][1].append(0)
    elif defect == "coincident":
        configs[k][1] = list(configs[k][0])
    elif defect == "pi turn":  # the swap of the configuration before: r turns by exactly pi
        configs[k] = configs[k - 1][::-1]
    elif defect == "one configuration":
        del configs[1:]

    indent = draw(st.sampled_from((None, 0, 2, "\t")))
    comma, colon = draw(st.sampled_from(((",", ":"), (", ", ": "), (" ,\n", " : "))))

    def space():
        return draw(st.sampled_from(SPACE))

    pieces = [json.dumps(c, indent=indent, separators=(comma, colon)) for c in configs]
    if defect == "no ]":
        pieces[k] = pieces[k][:-1]
    elif defect == "no [":
        pieces[k] = pieces[k][1:]
    members = {"configs": "[" + space() + (comma + space()).join(pieces) + space() + "]"}
    if "dt <= 0" in (defect, early):
        members["dt"] = json.dumps(draw(st.sampled_from((0, -0.0, -0.5))))
    elif defect == "dt not a number":
        members["dt"] = draw(st.sampled_from(('"1"', "true", "null", "[0.5]")))
    elif draw(st.integers(0, 9)):
        members["dt"] = json.dumps(draw(st.sampled_from((0.5, 1, 2e-3))))
    for name in draw(st.lists(st.sampled_from(sorted(EXTRAS)), unique=True, max_size=3)):
        members[name] = json.dumps(EXTRAS[name])
    if defect == "repeated nested key":
        members["meta"] = '{"a": 1, "b": [], "a": 2}'
    names = draw(st.permutations(sorted(members)))
    if defect == "repeated key":
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
    text = space() + "{" + comma.join(
        space() + json.dumps(name) + space() + colon + space() + members[name] + space()
        for name in names
    ) + "}" + space()
    if defect == "trailing garbage":
        text += draw(st.sampled_from(("x", "]", ",", "{}", "0")))
    return text


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    # one file per example, rewritten by each
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=path_files())
# the array is never closed, yet its text up to the "}", read as a "]", decodes
@example(text='{"dt": 1, "configs": [[[2, 0], [0, 0]], [[0, 2], [0, 0]]}')
# a block is cut at a trailing comma, and the block after it is empty
@example(text='{"dt": 1, "configs": [[[2, 0], [0, 0]], [[0, 2.' + "0" * cli._JSON_BLOCK + '], [0, 0]],]}')
# the top level is an array, not an object
@example(text='["configs", [[[1, 0], [0, 0]], [[0, 1], [0, 0]]], "dt", 1]')
def test_loader_reads_as_the_whole_tree(capsys, tmp_path, text):
    # the loader gives the reference's record or error, and the CLI its line
    path_file = write(tmp_path, text)
    got, want = outcome(cli._load_path, path_file), reference(path_file)
    if isinstance(want, DiscretePath):
        assert summary(got) == summary(want)
    else:
        assert got == want
    assert winding(capsys, path_file) == cli_lines(want)


def decoded_sizes(monkeypatch, owner, name):
    """The length of each text that owner.name decodes from now on."""
    sizes = []
    decode = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda s, *args, **kw: sizes.append(len(s)) or decode(s, *args, **kw))
    return sizes


class TestBlocks:
    def test_valid_file_is_decoded_in_blocks(self, tmp_path, monkeypatch):
        text = json.dumps({"dt": 0.5, "configs": ring_walk(10**4 + 1)})
        path_file = write(tmp_path, text)
        loads = decoded_sizes(monkeypatch, json, "loads")
        blocks = decoded_sizes(monkeypatch, cli, "_DECODE")
        walked = cli._load_path(path_file)
        # json.loads reads only the members but configs, never the whole text
        assert max(loads) < 2 * cli._JSON_BLOCK
        assert sum(size < 2 * cli._JSON_BLOCK for size in blocks) > len(text) / (2 * cli._JSON_BLOCK)
        assert summary(walked) == summary(reference(path_file))

    @pytest.mark.parametrize(
        "refusal",
        [
            ("dt", -0.5, "ValidationError", "dt must be finite and > 0, got -0.5"),
            ("dt", "1", "ValidationError", "malformed path JSON: dt must be a number, got '1'"),
            ("coincident", 9000, "CoincidenceAtStep", "particles coincide at config 9000"),
            ("pi turn", 9000, "TurnTooLargeAtStep", "relative vector turns by >= pi during step 8999"),
        ],
        ids=["negative-dt", "string-dt", "coincident", "pi-turn"],
    )
    def test_refused_path_is_decoded_only_in_blocks(self, tmp_path, monkeypatch, refusal):
        # the JSON is valid and read to its end, so the refusal of its path is
        # the result: the file is not read again whole
        what, value, name, message = refusal
        document = {"dt": 0.5, "configs": ring_walk(10**4 + 1)}
        if what == "dt":
            document["dt"] = value
        elif what == "coincident":
            document["configs"][value][1] = document["configs"][value][0]
        else:
            document["configs"][value] = [[0, 0], RING[(value - 1) % 16]]
        path_file = write(tmp_path, json.dumps(document))
        assert reference(path_file) == (name, message)
        loads = decoded_sizes(monkeypatch, json, "loads")
        assert outcome(cli._load_path, path_file) == (name, message)
        assert max(loads) < 2 * cli._JSON_BLOCK

    @pytest.mark.parametrize(
        "valid", [True, False], ids=["note-after-configs", "string-coordinate"]
    )
    def test_string_holding_a_cut_reads_as_the_whole_tree(self, tmp_path, monkeypatch, valid):
        # the first "]]," after a block's size lies inside a string: after the
        # array, the last block still ends at the array's "]]]"; inside it,
        # the block does not decode and the file is read whole
        configs = ring_walk(2001 if valid else 10)
        if valid:
            document = {"dt": 0.5, "configs": configs, "note": "]], " * 10}
        else:
            configs[5][0][0] = "a" * cli._JSON_BLOCK + "]],"
            document = {"dt": 0.5, "configs": configs}
        text = json.dumps(document)
        path_file = write(tmp_path, text)
        loads = decoded_sizes(monkeypatch, json, "loads")
        got = outcome(cli._load_path, path_file)
        assert max(loads) < 2 * cli._JSON_BLOCK if valid else max(loads) == len(text)
        want = reference(path_file)
        assert summary(got) == summary(want) if valid else got == want
        if valid:
            assert got.n_steps == 2000
        else:
            assert got[0] == "ValidationError" and "]],'" in got[1]


class TestDeclaredBehaviour:
    @pytest.mark.parametrize(
        "layout",
        [
            '{"dt": 0.25, "configs": CONFIGS}',
            '{"configs": CONFIGS, "dt": 0.25}',
            '\n{ "meta" : {"dt": 1}, "configs" :\n CONFIGS ,"dt":0.25,"note":"]],"}\n',
        ],
        ids=["dt-first", "dt-last", "extra-keys"],
    )
    @pytest.mark.parametrize("n_configs", [17, 3201])
    def test_accepted_file_gives_the_stdout_of_the_whole_tree(
        self, capsys, tmp_path, layout, n_configs
    ):
        text = layout.replace("CONFIGS", json.dumps(ring_walk(n_configs), indent=1))
        path = path_from_json_dict(json.loads(text))
        cls = classify(path)
        expected = json.dumps(
            {"kind": cls.kind.value, "winding": cls.winding, "total_angle": total_angle(path)}
        )
        assert winding(capsys, write(tmp_path, text)) == (0, expected + "\n", "")

    def test_malformed_pair_before_a_syntax_error_is_the_syntax_error(self, capsys, tmp_path):
        # json.loads of the whole text refuses the missing "]}" before any pair is read
        text = '{"dt": 1, "configs": [[[1, 0], [0, 0]], [[0, "1"], [0, 0]], [[1, 0], [0, 0]]'
        path_file = write(tmp_path, text)
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(text)
        assert winding(capsys, path_file) == (
            2, "", f"anyonsim: ParseError: invalid JSON in {path_file}: {exc.value}\n"
        )

    @pytest.mark.parametrize("dt_first", [True, False], ids=["dt-first", "dt-last"])
    def test_bad_pair_is_reported_before_bad_dt(self, capsys, tmp_path, dt_first):
        configs = '"configs": [[[1, 0], [0, 0]], [[0, 1], [0, true]]]'
        text = f'{{"dt": "1", {configs}}}' if dt_first else f'{{{configs}, "dt": "1"}}'
        assert winding(capsys, write(tmp_path, text)) == (
            2,
            "",
            "anyonsim: ValidationError: malformed path JSON: "
            "coordinates must be numbers, got [[0, 1], [0, True]]\n",
        )

    def test_syntax_error_after_good_pairs_has_json_message(self, capsys, tmp_path):
        text = '{"dt": 1, "configs": [[[1, 0], [0, 0]], [[0, 1], [0, 0]],, [[1, 0], [0, 0]]]}'
        path_file = write(tmp_path, text)
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(text)
        assert winding(capsys, path_file) == (
            2, "", f"anyonsim: ParseError: invalid JSON in {path_file}: {exc.value}\n"
        )

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"dt": 1, "configs": CONFIGS, "dt": 2}', "dt"),
            ('{"dt": 1, "dt": 2, "configs": CONFIGS}', "dt"),
            ('{"configs": CONFIGS, "dt": 1, "configs": []}', "configs"),
            ('{"note": 1, "dt": 1, "configs": CONFIGS, "note": 2}', "note"),
            ('{"dt": 1, "configs": [], "dt": 1}', "dt"),
            ('{"dt": 1, "configs": CONFIGS, "meta": {"a": 1, "a": 2}}', "a"),
            ('{"dt": 1, "meta": [{"a": 1, "a": 2}], "configs": CONFIGS}', "a"),
        ],
        ids=[
            "dt-after-configs", "dt-before-configs", "configs", "extra-key", "empty-configs",
            "nested-after-configs", "nested-before-configs",
        ],
    )
    def test_repeated_key_is_one_error_line(self, capsys, tmp_path, text, key):
        # json.loads would keep the last value; a repeated key in any object is refused
        text = text.replace("CONFIGS", json.dumps(ring_walk(17)))
        path_file = write(tmp_path, text)
        assert winding(capsys, path_file) == (
            2, "", f"anyonsim: ParseError: invalid JSON in {path_file}: duplicate key {key!r}\n"
        )


@pytest.mark.parametrize(
    "layout",
    [
        lambda configs: json.dumps({"dt": 0.5, "configs": configs}, separators=(",", ":")),
        lambda configs: json.dumps({"configs": configs, "dt": 0.5}, indent=1),
        lambda configs: json.dumps(
            {"dt": 0.5, "configs": configs, "note": "]], " * 10}, separators=(",", ":")
        ),
    ],
    ids=["compact-dt-first", "indented-dt-last", "cuts-in-a-note-after-configs"],
)
def test_loading_peaks_below_the_json_tree(tmp_path, layout):
    # the tree of json.loads holds three lists per configuration; the loader
    # holds the text (as bytes and as str while it is read) and the tree of
    # one block, and no configuration: holding them, it peaked at 0.78-0.90
    # of the tree here
    n_configs = 2 * 10**4 + 1
    text = layout(ring_walk(n_configs))
    path_file = write(tmp_path, text)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tree = json.loads(text)
        tree_peak = tracemalloc.get_traced_memory()[1] - base
        del tree
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        path = cli._load_path(path_file)
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert path.n_steps == n_configs - 1 and classify(path).winding == (n_configs - 1) / 16
    assert load_peak < tree_peak, (load_peak / 2**20, tree_peak / 2**20)
    assert load_peak < 2 * len(text) + tree_peak / 8, (load_peak / 2**20, len(text) / 2**20)
