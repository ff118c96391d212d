import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tropfan import jsonio
from tropfan import relu
from tropfan.cli import build_parser, main
from tropfan.fan import dataset
from tropfan.relu import network
from tropfan.tropical import signomial

RUNNING_THETA = {
    "num": {"terms": [{"a": "0", "s": ["-1", "1"]}, {"a": "0", "s": ["0", "0"]}]},
    "den": {"terms": [{"a": "-1", "s": ["3/2", "1/2"]}, {"a": "-2", "s": ["0", "2"]}]},
}
TWO_POINTS = {"points": [["0", "0"], ["1", "0"]]}
DIAG4 = {"points": [["0", "0"], ["1", "1"], ["2", "2"], ["3", "3"]]}


@pytest.fixture()
def files(tmp_path):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(RUNNING_THETA))
    data = tmp_path / "data.json"
    data.write_text(json.dumps(TWO_POINTS))
    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps(DIAG4))
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"layers": [{"W": [["2", "-3"]], "c": ["1"]}]}))
    return tmp_path


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_pattern_command(files, capsys):
    rc, out, _ = run_cli(
        ["pattern", "--theta", str(files / "theta.json"), "--data", str(files / "data.json")],
        capsys,
    )
    assert rc == 0
    assert json.loads(out) == {"neighbors": [[1, 2], [3]]}


def test_eval_command(files, capsys):
    rc, out, _ = run_cli(
        ["eval", "--theta", str(files / "theta.json"), "--data", str(files / "data.json")],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"signs": "+,-", "values": ["1", "-1/2"]}


def test_levels_command_diag4(files, capsys):
    rc, out, err = run_cli(
        [
            "levels", "--data", str(files / "diag.json"), "--target", "+,-,-,+",
            "--n", "2", "--m", "2", "--k", "0,1",
        ],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["levels"]["0"]["count"] == 8
    assert sorted(len(c["patterns"]) for c in doc["levels"]["0"]["components"]) == [4, 4]
    assert all(edge["dim"] == 11 for edge in doc["levels"]["0"]["adjacency"])
    assert "#" in err  # progress lines stay on stderr


def test_enum_fan_progress_names_the_distinct_points(files, capsys):
    """The walk runs over the distinct points, and its progress line says
    how many there are next to the point count."""
    copies = files / "copies.json"
    copies.write_text(json.dumps({"points": [["0", "0"], ["1", "0"], ["0", "0"]]}))
    rc, out, err = run_cli(["enum-fan", "--data", str(copies), "--n", "1", "--m", "1"], capsys)
    assert rc == 0 and json.loads(out)
    assert "# enumerating canonical partitions of 3 points (2 distinct) into <= 2 groups\n" in err


def test_components_command(files, capsys):
    rc, out, _ = run_cli(
        [
            "components", "--data", str(files / "diag.json"), "--target", "+,-,-,+",
            "--n", "2", "--m", "2", "--k", "0",
        ],
        capsys,
    )
    assert rc == 0
    assert json.loads(out)["count"] == 8


def test_boundary_svg_deterministic(files, capsys, tmp_path):
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    for target in (svg1, svg2):
        rc, out, _ = run_cli(
            [
                "boundary", "--theta", str(files / "theta.json"), "--svg", str(target),
                "--window", "-3,3,-3,3", "--data", str(files / "data.json"),
            ],
            capsys,
        )
        assert rc == 0
        assert json.loads(out)["edges"] == [
            {"i": 1, "j": 3, "sign_mixed": True},
            {"i": 1, "j": 4, "sign_mixed": True},
            {"i": 2, "j": 3, "sign_mixed": True},
        ]
    assert svg1.read_bytes() == svg2.read_bytes()


def test_boundary_svg_equal_slopes(files, capsys, tmp_path):
    theta = files / "equal.json"
    theta.write_text(json.dumps({
        "num": {"terms": [{"a": "0", "s": ["0", "0"]}, {"a": "0", "s": ["0", "1"]},
                          {"a": "0", "s": ["0", "-1"]}]},
        "den": {"terms": [{"a": "0", "s": ["0", "0"]}]},
    }))
    svg = tmp_path / "equal.svg"
    rc, out, err = run_cli(
        ["boundary", "--theta", str(theta), "--svg", str(svg), "--window", "-4,4,-4,4"], capsys
    )
    assert rc == 0 and err == ""
    assert 'y1="320"' in svg.read_text() and 'y2="320"' in svg.read_text()


@pytest.mark.parametrize(
    "points, message",
    [
        ([["0"], ["1"]], "parameters in dimension 2, data in dimension 1"),
        ([["0", "0", "0"], ["1", "1", "1"]], "parameters in dimension 2, data in dimension 3"),
        ([["9", "9", "9"]], "parameters in dimension 2, data in dimension 3"),
    ],
    ids=["1d", "3d-inside-window", "3d-outside-window"],
)
def test_boundary_svg_refuses_data_in_another_dimension(files, capsys, points, message):
    bad = files / "bad.json"
    bad.write_text(json.dumps({"points": points}))
    svg = files / "out.svg"
    rc, out, err = run_cli(
        ["boundary", "--theta", str(files / "theta.json"), "--svg", str(svg),
         "--window", "-3,3,-3,3", "--data", str(bad)],
        capsys,
    )
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}
    assert not svg.exists()


def test_relu_convert_command(files, capsys):
    rc, out, _ = run_cli(
        ["relu-convert", "--net", str(files / "net.json"), "--prune"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["m"] == 1 and doc["bound_m"] == 1
    theta = jsonio.rational_from_json(doc["theta"])
    assert set(theta.num.terms) == set(signomial([(1, (2, 0)), (0, (0, 3))]).terms)


def test_check_axioms_command(files, capsys):
    rc, out, _ = run_cli(
        ["check-axioms", "--data", str(files / "data.json"), "--n", "1", "--m", "1"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["patterns"]["all_passed"]
    assert doc["covectors"]["all_passed"]


def test_check_axioms_builds_the_fan_once(files, capsys, monkeypatch):
    """The covector check reuses the cones of the pattern check, so the
    command makes as many ``cone_of_graph`` calls as one face walk."""
    import importlib

    fan = importlib.import_module("tropfan.fan")
    calls = []
    original = fan.cone_of_graph

    def counting(H, data):
        calls.append(H)
        return original(H, data)

    monkeypatch.setattr(fan, "cone_of_graph", counting)
    fan.enumerate_all_cones(dataset([(0, 0), (1, 1), (2, 2), (3, 3)]), 2)
    one_walk = len(calls)
    calls.clear()
    rc, out, _ = run_cli(
        ["check-axioms", "--data", str(files / "diag.json"), "--n", "1", "--m", "1"], capsys
    )
    assert rc == 0 and json.loads(out)["covectors"]["all_passed"]
    assert one_walk > 0 and len(calls) == one_walk


def test_check_axioms_passes_workers_to_the_face_walk(files, capsys, monkeypatch):
    from tropfan import cli

    seen = []
    original = cli.enumerate_all_cones

    def recording(*args, **kwargs):
        seen.append(kwargs.get("workers"))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_all_cones", recording)
    outs = []
    for workers in ("1", "2"):
        rc, out, _ = run_cli(
            [
                "check-axioms", "--data", str(files / "diag.json"), "--n", "1", "--m", "1",
                "--workers", workers,
            ],
            capsys,
        )
        assert rc == 0
        outs.append(out)
    assert seen == [1, 2] and outs[0] == outs[1]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("eval", "--cap"), ("pattern", "--cap"), ("boundary", "--cap"), ("path", "--cap"),
        ("eval", "--workers"), ("pattern", "--workers"), ("boundary", "--workers"),
        ("relu-convert", "--workers"), ("path", "--workers"),
    ],
)
def test_flag_is_refused_where_it_would_be_ignored(files, capsys, command, flag):
    args = {
        "eval": ["--theta", str(files / "theta.json"), "--data", str(files / "data.json")],
        "pattern": ["--theta", str(files / "theta.json"), "--data", str(files / "data.json")],
        "boundary": ["--theta", str(files / "theta.json")],
        "path": ["--data", str(files / "data.json"), "--target", "+,+", "--start", "-,-"],
        "relu-convert": ["--net", str(files / "net.json")],
    }[command]
    assert run_cli([command] + args, capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([command] + args + [flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_path_command(files, capsys, tmp_path):
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"points": [["1"], ["2"], ["3"], ["4"], ["5"]]}))
    rc, out, _ = run_cli(
        ["path", "--data", str(line), "--target", "+,+,+,+,+", "--start", "-,-,-,-,-"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["length"] == 6
    assert doc["separations"] == [5, 4, 3, 2, 1, 0]


def test_error_is_json_on_stderr(files, capsys):
    rc, out, err = run_cli(
        ["pattern", "--theta", str(files / "missing.json"), "--data", str(files / "data.json")],
        capsys,
    )
    assert rc == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] and doc["message"]


@pytest.mark.parametrize("doc", [{"points": []}, {"points": [[None, 1]]}], ids=["empty", "null"])
def test_malformed_dataset_is_json_error(files, capsys, doc):
    bad = files / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run_cli(["enum-fan", "--data", str(bad), "--n", "1", "--m", "1"], capsys)
    assert rc == 2 and out == ""
    assert isinstance(json.loads(err), dict)
    assert "Traceback" not in err


TERM = {"a": "0", "s": ["1", "0"]}


@pytest.mark.parametrize("literal, error", [("1/0", "ValueError"), (True, "TypeError")], ids=["zero-den", "bool"])
@pytest.mark.parametrize(
    "args, doc",
    [
        (["enum-fan", "--n", "1", "--m", "1", "--data"], lambda x: {"points": [[x, "0"]]}),
        (["boundary", "--theta"], lambda x: {"num": {"terms": [{"a": x, "s": ["1", "0"]}]}, "den": {"terms": [TERM]}}),
        (["relu-convert", "--net"], lambda x: {"layers": [{"W": [["1", x]], "c": ["0"]}]}),
    ],
    ids=["dataset", "theta", "net"],
)
def test_bad_rational_literal_is_json_error(files, capsys, literal, error, args, doc):
    """A zero denominator or a JSON boolean where a rational belongs ends in
    the JSON error, not a traceback, and is never read as a number."""
    bad = files / "bad.json"
    bad.write_text(json.dumps(doc(literal)))
    rc, out, err = run_cli(args + [str(bad)], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize(
    "args, doc",
    [
        (["enum-fan", "--n", "1", "--m", "1", "--data"], {"points": ["10", "23"]}),
        (["eval", "--data", "data.json", "--theta"], {"num": {"terms": [{"a": "0", "s": "12"}]}, "den": {"terms": [TERM]}}),
        (["relu-convert", "--net"], {"layers": [{"W": ["12"], "c": ["0"]}]}),
    ],
    ids=["points", "slope", "weight-row"],
)
def test_string_in_place_of_a_vector_is_json_error(files, capsys, args, doc):
    """A string where a vector belongs ends in the JSON error; it is never
    read digit by digit, as "12" would be the vector (1, 2)."""
    bad = files / "bad.json"
    bad.write_text(json.dumps(doc))
    args = [str(files / tok) if tok.endswith(".json") else tok for tok in args]
    rc, out, err = run_cli(args + [str(bad)], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "TypeError"


@pytest.mark.parametrize(
    "text",
    ['{"points": [["' + "x" * 100_000 + '", "0"]]}', '{"points": [' + "[" * 900 + "]" * 900 + "]}"],
    ids=["long-string", "nested-900"],
)
def test_bad_coordinate_error_does_not_echo_its_value(files, capsys, text):
    """The JSON error names a bad coordinate's type or cuts its literal short,
    so its size does not grow with the size of the bad value."""
    bad = files / "bad.json"
    bad.write_text(text)
    rc, out, err = run_cli(["enum-fan", "--n", "1", "--m", "1", "--data", str(bad)], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] in ("TypeError", "ValueError")
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "args, doc",
    [
        (["enum-fan", "--n", "1", "--m", "1", "--data"], lambda deep: '{"points": ' + deep + "}"),
        (["boundary", "--theta"], lambda deep: '{"num": ' + deep + ', "den": {"terms": []}}'),
        (["relu-convert", "--net"], lambda deep: '{"layers": ' + deep + "}"),
    ],
    ids=["dataset", "theta", "net"],
)
def test_deeply_nested_json_is_json_error(files, capsys, args, doc):
    """JSON nested beyond the decoder's recursion limit ends in the JSON
    error, not a RecursionError traceback."""
    bad = files / "deep.json"
    bad.write_text(doc("[" * 200_000 + "]" * 200_000))
    rc, out, err = run_cli(args + [str(bad)], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "JSON document is nested too deeply"}


@pytest.mark.parametrize("layers", [16, 64])
def test_deep_net_past_the_count_digit_limit_is_json_error(files, capsys, layers):
    """A width-1 net doubles the bit length of its formal counts with each
    layer; they are refused before one of more than 4,300 digits is built,
    so 16 and 64 layers both end at once in the JSON error."""
    deep = files / "deep_net.json"
    deep.write_text(json.dumps({"layers": [{"W": [["1"]], "c": ["0"]}] * layers}))
    start = time.perf_counter()
    rc, out, err = run_cli(["relu-convert", "--net", str(deep)], capsys)
    assert time.perf_counter() - start < 5
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "a formal term count would have more than 4300 digits"}


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--window=-3,3,-3,3"], "--data and --window require --svg"),
        (["--data", "missing.json"], "--data and --window require --svg"),
        (["--data", "data.json", "--window=-3,3,-3,3"], "--data and --window require --svg"),
        (["--svg", "out.svg"], "--svg requires --window"),
    ],
    ids=["window", "missing-data", "data-and-window", "svg"],
)
def test_boundary_svg_flags_are_refused_alone(files, capsys, extra, message):
    """--data and --window only shape the SVG, so without --svg they are
    refused rather than ignored."""
    extra = [str(files / tok) if tok.endswith((".json", ".svg")) else tok for tok in extra]
    rc, out, err = run_cli(["boundary", "--theta", str(files / "theta.json")] + extra, capsys)
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}
    assert not (files / "out.svg").exists()


@pytest.mark.parametrize(
    "command, flag, doc",
    [
        ("boundary", "--theta", {"num": {"terms": []}, "den": {"terms": [TERM]}}),
        ("boundary", "--theta", {"num": {"terms": [TERM]}, "den": {"terms": []}}),
        ("relu-convert", "--net", {"layers": [{"W": [], "c": []}]}),
    ],
    ids=["no-num-terms", "no-den-terms", "no-weight-rows"],
)
def test_malformed_parameters_are_json_error(files, capsys, command, flag, doc):
    bad = files / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run_cli([command, flag, str(bad)], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "args",
    [
        ["dichotomies", "--n", "-1", "--m", "1"],
        ["levels", "--n", "1", "--m", "0", "--target", "+,-", "--k", "0"],
    ],
    ids=["dichotomies", "levels"],
)
def test_term_counts_below_one_are_json_error(files, capsys, args):
    rc, out, err = run_cli(args + ["--data", str(files / "data.json")], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_json_error(files, capsys, workers):
    rc, out, err = run_cli(
        ["dichotomies", "--data", str(files / "data.json"), "--n", "1", "--m", "1", "--workers", workers], capsys
    )
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "--workers must be at least 1"}


@pytest.mark.parametrize(
    "args",
    [
        ["dichotomies", "--n", "1", "--m", "1", "--data", "data.json"],
        ["relu-convert", "--net", "net.json"],
    ],
    ids=["dichotomies", "relu-convert"],
)
def test_negative_cap_is_json_error(files, capsys, args):
    args = [str(files / a) if a.endswith(".json") else a for a in args]
    rc, out, err = run_cli(args + ["--cap", "-5"], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "--cap must be at least 0"}


@pytest.mark.parametrize("command", ["levels", "components"])
def test_zero_target_entry_is_json_error(files, capsys, command):
    rc, out, err = run_cli(
        [command, "--data", str(files / "diag.json"), "--target", "+,0,-,+", "--n", "1", "--m", "1", "--k", "1"],
        capsys,
    )
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_cap_error_code(files, capsys):
    rc, out, err = run_cli(
        [
            "dichotomies", "--data", str(files / "diag.json"), "--n", "3", "--m", "3",
            "--cap", "1",
        ],
        capsys,
    )
    assert rc == 1
    assert json.loads(err)["error"] == "cap_exceeded"


def test_relu_convert_cap_is_json_error(files, capsys):
    net = files / "two_layer.json"
    net.write_text(
        json.dumps(
            {
                "layers": [
                    {"W": [["1", "2"], ["1", "-1"]], "c": ["0", "1"]},
                    {"W": [["1", "-1"]], "c": ["0"]},
                ]
            }
        )
    )
    rc, out, err = run_cli(["relu-convert", "--net", str(net), "--cap", "1"], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "TermCapExceededError"


def test_relu_convert_cap_defaults_to_the_library_cap():
    args = build_parser().parse_args(["relu-convert", "--net", "n.json"])
    assert args.cap == relu.TERM_CAP == 500_000


def test_out_flag_writes_file(files, capsys, tmp_path):
    out_file = tmp_path / "report.json"
    rc, out, _ = run_cli(
        [
            "pattern", "--theta", str(files / "theta.json"),
            "--data", str(files / "data.json"), "--out", str(out_file),
        ],
        capsys,
    )
    assert rc == 0 and out == ""
    assert json.loads(out_file.read_text()) == {"neighbors": [[1, 2], [3]]}


def test_installed_entry_point(files):
    """``python -m tropfan.cli`` runs from the directory holding the imported
    package, so it needs neither an install nor ``PYTHONPATH``."""
    import tropfan

    proc = subprocess.run(
        [sys.executable, "-m", "tropfan.cli", "pattern", "--theta", str(files / "theta.json"),
         "--data", str(files / "data.json")],
        capture_output=True, text=True, cwd=Path(tropfan.__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"neighbors": [[1, 2], [3]]}


def test_worker_count_does_not_change_output(files, capsys):
    outs = []
    for workers in ("1", "2"):
        rc, out, _ = run_cli(
            [
                "enum-fan", "--data", str(files / "diag.json"), "--n", "2", "--m", "2",
                "--workers", workers, "--cap", "2000",
            ],
            capsys,
        )
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_json_roundtrips(files):
    theta = jsonio.rational_from_json(jsonio.loads(json.dumps(RUNNING_THETA)))
    assert jsonio.rational_from_json(jsonio.rational_to_json(theta)) == theta
    data = jsonio.dataset_from_json(TWO_POINTS)
    assert jsonio.dataset_from_json(jsonio.dataset_to_json(data)) == data
    net = network([((("2", "-3"),), ("1",))])
    assert jsonio.network_from_json(jsonio.network_to_json(net)) == net
    from tropfan.fan import pattern_of

    pattern = pattern_of(theta, data)
    assert jsonio.pattern_from_json(jsonio.pattern_to_json(pattern), pattern.N) == pattern


def test_json_decimal_literals_are_exact():
    from fractions import Fraction

    from tropfan.rationals import rat

    doc = jsonio.loads('{"x": 1.5, "y": "3/2"}')
    assert doc["x"] == Fraction(3, 2) == rat(doc["y"])
    assert isinstance(doc["x"], Fraction)  # never a binary float


def test_decimal_exponent_is_bounded():
    """A decimal exponent above the documented 4300 is refused before any big
    integer is built."""
    from fractions import Fraction

    from tropfan.rationals import rat

    with pytest.raises(ValueError):
        rat("1e100000")
    with pytest.raises(ValueError):
        rat("1e-4301")
    with pytest.raises(ValueError):
        jsonio.loads('{"x": 1e100000}')
    assert rat("1e-4300") == Fraction(1, 10**4300)
    assert rat("-2.5E+3") == jsonio.loads("-2.5E+3") == -2500


def test_decimal_exponent_is_json_error(files, capsys):
    bad = files / "huge.json"
    bad.write_text('{"points": [[1e100000, "0"], ["1", "0"]]}')
    rc, out, err = run_cli(["enum-fan", "--data", str(bad), "--n", "1", "--m", "1"], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"
