"""Every number from outside is read under one grammar, and no input ends
in a traceback: the grammar's table, deep nesting, and a fuzzer that
mutates one field of a valid profile, cost string or argv."""

import contextlib
import importlib.util
import io
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paritylp.cli import build_parser, main
from paritylp.errors import ProfileError
from paritylp.profiles import AmplitudeProfile, CostFunction, _fraction

# (text, read by the grammar): an optional sign, then an integer, a/b or a
# decimal, then an exponent of at most three digits; ASCII only.
GRAMMAR = [
    ("3", True), ("-1/4", True), ("0.25", True), ("1e-3", True), (str(1e-05), True),
    ("1e+308", True), ("+.5E-007", True),
    ("1_0/20", False), (" 1/4", False), ("1/4 ", False), ("١/٢", False),
    ("1/0", False), ("1e-1000", False), ("1e-10000000", False), ("nan", False),
    ("inf", False), ("", False), ("1/2e3", False), ("1 / 2", False), ("0x10", False),
]
GRAMMAR_IDS = [f"{'accept' if ok else 'refuse'}-{text!r}" for text, ok in GRAMMAR]

# (text, read by an integer option, read by a float option): CLI numbers are
# ASCII too; an integer option takes a sign and digits, a float option a
# decimal of the grammar above, or inf or nan (refused by the commands).
# A ranged option (RANGED_OPTIONS) reads an integer only inside its range.
OPTION_GRAMMAR = [
    ("3", True, True), ("-2", True, True), ("+7", True, True), ("007", True, True),
    ("1" + "0" * 400, True, True), ("0.25", False, True), ("1e-3", False, True),
    ("+.5E-007", False, True), ("1e+308", False, True), ("inf", False, True),
    ("-inf", False, True), ("nan", False, True),
    ("١", False, False), (" 1", False, False), ("1 ", False, False), ("1_0", False, False),
    (" 1_0e-2", False, False), ("1e-1000", False, False), ("Infinity", False, False),
    ("NaN", False, False), ("0x10", False, False), ("", False, False), ("1/2", False, False),
    ("9" * 5000, False, False),
]
# Each numeric option, after the argv that makes it parse.
NUMERIC_OPTIONS = {
    "--tau": ["threshold", "--profile", "p.json"],
    "--d": ["verify", "--profile", "p.json", "--family", "threshold-ball"],
    "--k": ["enumerate", "--n", "2"],
    "--n": ["enumerate"],
    "--shots": ["simulate", "--profile", "p.json", "--x", "0", "--seed", "1"],
    "--seed": ["simulate", "--profile", "p.json", "--x", "0"],
    "--t": ["slpn", "--n", "2"],
    "--gamma": ["slpn", "--n", "2", "--t", "0.1"],
    "--tol-feas": ["povm", "--profile", "p.json"],
    "--tol-complete": ["povm", "--profile", "p.json"],
    "--tol-unambig": ["povm", "--profile", "p.json"],
}
INT_OPTIONS = ("--tau", "--d", "--k", "--n", "--shots", "--seed")
# Each integer option with a range: its test, and the wording of its refusal.
RANGED_OPTIONS = {
    "--n": (lambda v: v >= 0, "an integer >= 0"),
    "--seed": (lambda v: v >= 0, "an integer >= 0"),
    "--shots": (lambda v: 1 <= v < 2 ** 63, "1 <= shots < 2**63"),
}
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _refusal(call) -> str:
    """The message of the ValueError `call` raises, or "" when it returns."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return ""


def _run(argv: list[str]) -> tuple[int, str, str]:
    """main's exit status, stdout and stderr; argparse's usage exit counts
    as the status it carries, as the console script ends with it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@pytest.fixture(scope="module")
def profile_path(root):
    path = root / "p.json"
    path.write_text(json.dumps({"n": 2, "weights": ["1/10", "2/10", "3/10", "4/10"]}))
    return str(path)


class TestGrammar:
    """The same table runs through the reader, the profile weights, the cost
    JSON and --cost-values: a refusal quotes the string it refuses."""

    @pytest.mark.parametrize("text, ok", GRAMMAR, ids=GRAMMAR_IDS)
    def test_reader(self, text, ok):
        if ok:
            assert _fraction(text, "weight") == Fraction(text)
        else:
            with pytest.raises(ProfileError, match=re.escape(repr(text))):
                _fraction(text, "weight")

    @pytest.mark.parametrize("text, ok", GRAMMAR, ids=GRAMMAR_IDS)
    def test_weights(self, text, ok):
        data = {"n": 1, "weights": [text, str(1 - Fraction(text)) if ok else "1"]}
        message = _refusal(lambda: AmplitudeProfile.from_json_dict(data))
        assert (repr(text) in message) != ok
        if ok and 0 <= Fraction(text) <= 1:
            assert AmplitudeProfile.from_json_dict(data).weights[0] == Fraction(text)

    @pytest.mark.parametrize("text, ok", GRAMMAR, ids=GRAMMAR_IDS)
    def test_cost_json(self, text, ok):
        data = {"kind": "custom", "values": [text, 1, 2]}
        message = _refusal(lambda: CostFunction.from_json_dict(2, data))
        assert (repr(text) in message) != ok
        if ok and Fraction(text) >= 0:
            assert CostFunction.from_json_dict(2, data).values[0] == Fraction(text)

    @pytest.mark.parametrize("text, ok", GRAMMAR, ids=GRAMMAR_IDS)
    def test_cost_values_option(self, profile_path, text, ok):
        if "," in text:
            pytest.skip("a comma splits --cost-values")
        code, _, err = _run(["solve", "--profile", profile_path, "--cost", "custom",
                             f"--cost-values={text},1,2"])
        assert code == (0 if ok and Fraction(text) >= 0 else 2)
        assert (repr(text) in err) != ok

    @pytest.mark.parametrize("option", NUMERIC_OPTIONS)
    @pytest.mark.parametrize("text, int_ok, float_ok", OPTION_GRAMMAR,
                             ids=[repr(text)[:12] for text, _, _ in OPTION_GRAMMAR])
    def test_numeric_option(self, option, text, int_ok, float_ok):
        ok = int_ok if option in INT_OPTIONS else float_ok
        if option.startswith("--tol"):
            # a tolerance is also finite and >= 0
            ok = ok and 0 <= float(text) < math.inf
        if option in RANGED_OPTIONS:
            ok = ok and RANGED_OPTIONS[option][0](int(text))
        argv = [*NUMERIC_OPTIONS[option], f"{option}={text}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                value = vars(build_parser().parse_args(argv))[option[2:].replace("-", "_")]
            except SystemExit as exc:
                value = exc
        if ok:
            read = int(text) if option in INT_OPTIONS else float(text)
            assert value == read or math.isnan(read) and math.isnan(value)
        else:
            assert isinstance(value, SystemExit) and value.code == 2
            [line] = [ln for ln in err.getvalue().splitlines() if "error:" in ln]
            assert line.endswith(f"error: argument {option}: need " + (
                "a finite tolerance >= 0" if option.startswith("--tol") else
                RANGED_OPTIONS[option][1] if option in RANGED_OPTIONS else
                "an integer" if option in INT_OPTIONS else
                "a decimal number, inf or nan") + f", not {text!r}")

    def test_workload_argv_accepted(self, monkeypatch):
        # every job the benchmark sends still parses
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        parser = build_parser()
        for workload in workloads.WORKLOADS:
            for seed in (1, 2):
                for job in workloads.make_inputs(workload, seed, "full", 30, "in").jobs:
                    args = parser.parse_args(list(job.argv))
                    assert args.command == job.command

    def test_float_repr_reads_back(self):
        # every binary64 writes its repr within the grammar, so a float cost
        # in JSON reads as the decimal it prints as
        for v in (5e-324, 1e-05, 0.1, 1.7976931348623157e308, 1e16, 123.0):
            assert CostFunction.from_json_dict(0, {"kind": "custom", "values": [v]}).values \
                == (Fraction(repr(v)),)


class TestRefusedQuickly:
    """Inputs the parent ended in a traceback or read for seconds: one
    error line and exit 2, well under a second."""

    @pytest.mark.parametrize("text", [
        "[" * 200_000 + "]" * 200_000,
        '{"n": 1, "weights": ["1e-10000000", "1"]}',
    ], ids=["nested", "long-exponent-weight"])
    def test_profile(self, root, text):
        path = root / "refused.json"
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = _run(["solve", "--profile", str(path)])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", ["1" * 5000, "1/" + "3" * 5000, "0." + "0" * 4299])
    @pytest.mark.parametrize("field", ["weight", "cost value"])
    def test_long_number_string(self, root, profile_path, text, field):
        # longer than Python's 4,300-digit limit on reading an int: the
        # reader's own message names the field and the grammar, not a Python call
        path = root / "long.json"
        path.write_text(json.dumps({"n": 1, "weights": [text, "1"]}))
        argv = ["solve", "--profile", str(path)] if field == "weight" else \
            ["solve", "--profile", profile_path, "--cost", "custom", f"--cost-values={text},1,2"]
        code, out, err = _run(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field} {text[:20]!r}... of {len(text)} characters "
                              "is not a number: need an integer, a/b or a decimal")
        assert len(err.splitlines()) == 1 and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("field", ["weight", "amplitude"])
    def test_long_json_integer(self, root, field):
        # an unquoted literal past Python's 4,300-digit limit: json.load reads
        # it through the number reader, which refuses it in its own words
        digits = "1" * 5000
        path = root / "long-int.json"
        path.write_text('{"n": 1, "weights": [%s, 0]}' % digits if field == "weight" else
                        '{"n": 1, "amplitudes": [{"re": %s}, {"re": 0}]}' % digits)
        code, out, err = _run(["solve", "--profile", str(path)])
        assert (code, out) == (2, "")
        assert err == (f"error: JSON integer {digits[:20]!r}... of 5000 characters is not "
                       "a number: need an integer, a/b or a decimal with an exponent of at "
                       "most 3 digits, in at most 4300 characters\n")


# The fuzzer's small grammar of JSON values, as text: deep nesting, long
# exponents, bools, null, NaN, infinities, huge ints and odd number strings.
ATOMS = [
    "0", "1", "-1", "2", "7", "0.5", "1e-05", "1e309", "-1e309", "1e-10000000",
    "NaN", "Infinity", "-Infinity", "1" + "0" * 400, "-" + "9" * 400, "9" * 5000,
    "true", "false", "null", '""', '"1/2"', '"1/0"', '"-1/4"', '"1e-10000000"',
    '"1_0/20"', '" 1/4"', '"\\u0661/\\u0662"', '"nan"', '"Infinity"', '"1e400"',
    '"' + "1" * 5000 + '"', '"1/' + "3" * 4000 + '"', "[]", "{}", '{"re": 1e400}',
    '{"re": ' + "1" * 400 + "}", '{"re": true}', '{"im": 1}',
]
DEEP = ["[" * d + "]" * d for d in (30, 200_000)] + ['{"a": ' * 200_000 + "0" + "}" * 200_000]
json_values = st.one_of(
    st.sampled_from(ATOMS),
    st.sampled_from(DEEP),
    st.lists(st.sampled_from(ATOMS), max_size=4).map(lambda v: "[" + ", ".join(v) + "]"),
)
# Strings for a cost value or an option value.
WORDS = ["0", "1", "-1", "3", "40", "1/2", "1/0", "-1/4", "0.5", "1e-3", "1e400",
         "1e-10000000", "9" * 5000, "1/" + "7" * 5000, "nan", "inf", "-inf", "", " 1",
         "1_0", "١", "0x10", "true", "00", "01", "10", "11", "1,1", "9999999",
         "-9999999", "1" + "0" * 400]
words = st.sampled_from(WORDS)

PROFILES = [
    {"n": "2", "weights": ['"1/10"', '"2/10"', '"3/10"', '"4/10"']},
    {"n": "1", "amplitudes": [{"re": "0.6", "im": "0.0"}, {"re": "0.0", "im": "0.8"}]},
    {"n": "1", "weights": ["0.36", "0.64"],
     "amplitudes": [{"re": "0.6"}, {"re": "0.0", "im": "0.8"}]},
]
# The commands a mutated profile is read by, each with its other options.
READERS = [
    ["solve"], ["solve", "--mode", "float"], ["verify", "--family", "hamming"],
    ["primal-candidate", "--family", "spike"], ["threshold", "--tau", "1"],
    ["povm", "--assume-real-amplitudes", "--mode", "float"],
    ["simulate", "--x", "{x}", "--seed", "1", "--shots", "10"],
]
COMMANDS = [
    "solve --profile {p} --cost threshold --tau 1 --tol-feas 1e-9",
    "solve --profile {p} --cost custom --cost-values 0,1/2,3",
    "verify --profile {p} --family threshold-ball --d 1 --gamma 2.5 --tau 2",
    "verify --profile {p} --family threshold-set --tau 1 --set 01,10",
    "povm --profile {p} --assume-real-amplitudes --tol-complete 1e-8 --tol-unambig 1e-10",
    "simulate --profile {p} --x 01 --seed 3 --shots 100 --cost custom --cost-values 0,1,1",
    "slpn --n 2 --t 0.1 --d 1 --gamma 3",
    "threshold --profile {p} --tau 2",
    "enumerate --n 2 --k 1",
]


def _paths(value, path=()):
    """Every (path, value) inside a profile template, itself included."""
    yield path, value
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


def _replace(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    # a top-level key the template lacks is added
    copy[path[0]] = _replace(value[path[0]] if path[1:] else None, path[1:], new)
    return copy


def _text(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_text, value)) + "]"
    return value


def _check(argv: list[str]) -> None:
    """main ends in 0, 1 or 2; 2 with an error line last, 1 with a false
    audit in the report it wrote."""
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert re.match(r"(paritylp [a-z-]+: )?error: ", err.splitlines()[-1]), (argv, err)
    else:
        assert err == ""
        assert all(json.loads(out)["audits"].values()) == (code == 0)


FUZZ = settings(max_examples=120, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


class TestFuzz:
    @FUZZ
    @given(st.sampled_from(PROFILES), st.data(), json_values, st.sampled_from(READERS))
    def test_profile_field(self, root, profile, data, value, reader):
        paths = [p for p, _ in _paths(profile)] + [("extra",)]
        path = data.draw(st.sampled_from(paths))
        path_file = root / "fuzz.json"
        path_file.write_text(_text(_replace(profile, path, value)))
        x = "1" * int(profile["n"])
        _check([reader[0], "--profile", str(path_file), *(a.format(x=x) for a in reader[1:])])

    @FUZZ
    @given(st.integers(0, 2), words)
    def test_cost_string(self, profile_path, index, word):
        values = ["0", "1/2", "3"]
        values[index] = word
        _check(["solve", "--profile", profile_path, "--cost", "custom",
                f"--cost-values={','.join(values)}"])

    @FUZZ
    @given(st.sampled_from(COMMANDS), st.data(), words)
    def test_argv(self, profile_path, command, data, word):
        argv = command.format(p=profile_path).split()
        index = data.draw(st.sampled_from(
            [i for i, a in enumerate(argv) if i and argv[i - 1].startswith("--")
             and not a.startswith("--") and argv[i - 1] != "--profile"]))
        argv[index - 1] += "=" + word
        del argv[index]
        _check(argv)
