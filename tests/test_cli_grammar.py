"""Property tests over the CLI grammar.

A subcommand and values drawn in and out of each option's domain run
through ``main`` in-process.  The domains are written out here,
independently of the ``Opt`` predicates, so a predicate that drifts from the
documented domain fails the test.  Sizes stay under the work ceilings, so
every example ends in a fraction of a second.

argv drawn with exact, abbreviated, ``=`` and bare flags, stray words and
values that start with '-' check ``_quick_flags`` against argparse, its
oracle, which reads a number starting with '-' in the ``--name=value``
spelling that ``_parse`` hands it.
"""

import contextlib
import csv
import functools
import io
import math
import os
import tempfile
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgapprox.cli import _COMMANDS, UsageError, _build_parser, _joined, _quick_flags, main


def _floats(**bounds) -> st.SearchStrategy:
    return st.floats(**bounds).map(repr)


def _ints(lo: int, hi: int) -> st.SearchStrategy:
    return st.integers(lo, hi).map(str)


def _number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _spaced(text: str) -> bool:
    """Whether a value can follow its flag as the next word: argparse and
    _quick_flags read a word starting with '-' as a value only when it is
    a number."""
    return not text.startswith("-") or _number(text)


def _horizons(entries: st.SearchStrategy, **size) -> st.SearchStrategy:
    return st.lists(entries, **size).map(lambda ns: ",".join(map(str, ns)))


_POSITIVE = _floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NOT_POSITIVE = st.one_of(st.sampled_from(["0.0", "-0.0", "nan", "inf", "-inf"]),
                          _floats(max_value=0.0))
_HORIZON = st.one_of(st.integers(1, 10**4), st.integers(1, 10**300))
_BAD_HORIZON = st.one_of(st.integers(-2, 0), st.sampled_from([10**300 + 1, 10**400]))

# Every option a command takes but --out-path and --config: argument texts
# inside its domain, and outside it (None when the option has no domain).
_DOMAINS = {
    "seed": (_ints(-5, 2**64), None),
    "out": (st.sampled_from(["csv", "json"]), st.sampled_from(["xml", "CSV", ""])),
    "kind": (st.sampled_from(["singular", "blaschke"]), st.sampled_from(["inner", ""])),
    "a": (_POSITIVE, _NOT_POSITIVE),
    "rule": (st.sampled_from(["dyadic", "power"]), st.sampled_from(["powers", ""])),
    "alpha": (_POSITIVE, _NOT_POSITIVE),
    "factors": (_ints(1, 60), _ints(-2, 0)),
    "trunc": (_ints(0, 300), _ints(-3, -1)),
    "horizons": (_horizons(_HORIZON, min_size=1, max_size=4),
                 st.one_of(st.just(""), st.tuples(_horizons(_HORIZON, max_size=3), _BAD_HORIZON)
                           .map(lambda pair: ",".join(filter(None, map(str, pair)))))),
    "c": (_floats(allow_nan=False, allow_infinity=False), st.sampled_from(["nan", "inf", "-inf"])),
    "n-range": (st.tuples(st.integers(1, 53), st.integers(0, 12)).map(
                    lambda pair: f"{pair[0]}..{pair[0] + pair[1]}"),
                st.one_of(st.integers(-2, 0).map(lambda lo: f"{lo}..5"),
                          st.integers(2, 12).map(lambda lo: f"{lo}..{lo - 1}"))),
    "k-max": (_ints(1, 66), None),
    "K": (_ints(2, 8), _ints(-1, 1)),
    "b-rule": (st.one_of(st.just("invsqrtlog"), _POSITIVE.map("power:".__add__)),
               st.one_of(st.sampled_from(["power", "power:", "power:x", "invsqrtlog:", "log"]),
                         _NOT_POSITIVE.map("power:".__add__))),
    "samples": (_ints(1, 300), _ints(-2, 0)),
    "search-cap": (_ints(0, 10**1000), None),
    "depth": (_ints(1, 6), st.sampled_from(["-1", "0", "7"])),
}


@st.composite
def invocations(draw, command: str, refused: str | None):
    """argv and config file text for command, and whether it must exit 2.

    Each option is given or not, by flag (as --name=value or, where the
    value may follow as the next word, --name value) or in the config file,
    with a value inside its domain; the option named refused is given, with
    a value outside it.  prop6 must also exit 2 when HI + 1 > k-max."""
    argv, lines, values = [command], [], {}
    for opt in _COMMANDS[command].opts:
        if opt.name in ("out-path", "config") or opt.name != refused and not draw(st.booleans()):
            continue
        inside, outside = _DOMAINS[opt.name]
        values[opt.name] = text = draw(outside if opt.name == refused else inside)
        spelling = draw(st.sampled_from(["equals", "spaced", "config"]))
        if spelling == "spaced" and _spaced(text):
            argv += [f"--{opt.name}", text]
        elif spelling != "config":
            argv.append(f"--{opt.name}={text}")
        else:
            lines.append(f"{opt.name} = {text}")
    if lines:
        argv += ["--config", "run.cfg"]
    usage = refused is not None
    if command == "prop6" and not usage:
        hi = int(values.get("n-range", "2..20").split("..")[1])
        usage = hi + 1 > int(values.get("k-max", "40"))
    return argv, "".join(line + "\n" for line in lines), usage


def _run(argv: list[str], config: str) -> tuple[int, list[str], dict[str, bytes]]:
    """Run main in a new temporary directory, warnings ignored: the status,
    the stderr lines but the wall time, and every file left but the config."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            if config:
                with open("run.cfg", "w", encoding="utf-8") as fh:
                    fh.write(config)
            err = io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
                  warnings.catch_warnings(action="ignore")):
                status = main(argv)
            files = {}
            for name in sorted(set(os.listdir()) - {"run.cfg"}):
                with open(name, "rb") as fh:
                    files[name] = fh.read()
        finally:
            os.chdir(cwd)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("# wall_time_s=")]
    return status, lines, files


_PREFIX = {1: "error: ValueError: ", 2: "usage error: "}


def _non_finite_cells(files: dict[str, bytes]) -> list[tuple[str, str]]:
    """(file, cell) for every CSV cell, or ';'-joined entry of one, that
    reads as nan or an infinity."""
    found = []
    for name, data in files.items():
        if name.endswith(".csv"):
            for row in csv.reader(io.StringIO(data.decode("utf-8"))):
                found += [(name, cell) for cell in row for part in cell.split(";")
                          if _number(part) and not math.isfinite(float(part))]
    return found


def _check_status(argv: list[str], config: str, usage: bool) -> int:
    status, lines, files = _run(argv, config)
    if usage:
        assert status == 2, (argv, config, lines)
    else:
        assert status in (0, 1), (argv, config, lines)
    if status:
        assert len(lines) == 1 and lines[0].startswith(_PREFIX[status]), lines
        assert "Traceback" not in lines[0]
        assert files == {}
    else:
        assert lines == [] and files
        assert _non_finite_cells(files) == [], argv
        assert _run(argv, config) == (0, [], files)
    return status


# Per command, one case with every value inside its domain and one per
# option with a domain, that option's value outside it.
_CASES = [(command, refused) for command in sorted(_COMMANDS)
          for refused in [None] + [opt.name for opt in _COMMANDS[command].opts
                                   if _DOMAINS.get(opt.name, (None, None))[1] is not None]]


@pytest.mark.parametrize("command, refused", _CASES,
                         ids=[f"{c}-{r or 'inside'}" for c, r in _CASES])
@settings(deadline=None, max_examples=12)
@given(data=st.data())
def test_exit_status_follows_the_domains(command, refused, data):
    """A value outside its domain exits 2; values inside every domain exit
    0, or 1 for a documented limit, which the library raises as ValueError,
    and never 3."""
    _check_status(*data.draw(invocations(command, refused)))


# the levels from 52 on, whose dyadic zeros are adjacent doubles
@pytest.mark.parametrize("argv", [["prop6", "--n-range", "52..52", "--k-max", "53"],
                                  ["prop6", "--n-range", "1..52", "--k-max", "53"]])
def test_exit_status_at_the_dyadic_zero_limit(argv):
    _check_status(argv, "", False)


# level 2 of power:1e-4 needs a horizon of about 1e511, past what phi can
# store; the search stops at 2**63 - 1 whatever the cap
def test_exit_status_at_the_int64_horizon_limit():
    argv = ["prop3", "--K", "2", "--b-rule", "power:0.0001", "--search-cap", str(10**1000)]
    assert _check_status(argv, "", False) == 1


# one step past each work ceiling, and the level ceiling itself, which the
# drawn K stays far below: at K = 100, power:0.05 under a search cap of
# 10**1000 takes seconds
@pytest.mark.parametrize("argv, message", [
    (["inner", "--trunc", "10000001"],
     "truncation order 10000001 exceeds 1e+07, the most recurrence steps supported"),
    (["cesaro", "--kind", "blaschke", "--factors", "1", "--trunc", "9999000"],
     "1 factors at order 9999000 need 1e+07 steps (1000 per factor plus one per factor and "
     "order); at most 1e+07 are supported"),
    (["prop3", "--samples", "10000001"],
     "10000001 samples exceed 1e+07, the most round trips supported"),
    (["prop3", "--K", "101"], "101 levels exceed 100, the most supported"),
], ids=["order", "blaschke-steps", "samples", "levels"])
def test_one_step_past_each_work_ceiling(argv, message):
    start = time.perf_counter()
    assert _run(argv, "") == (1, ["error: ValueError: " + message], {})
    assert time.perf_counter() - start < 1.0


def test_the_level_ceiling_runs():
    assert _check_status(["prop3", "--K", "100", "--samples", "1", "--b-rule", "power:10"],
                         "", False) == 0


def test_every_option_has_values_drawn():
    names = {opt.name for run in _COMMANDS.values() for opt in run.opts}
    assert names - {"out-path", "config"} == set(_DOMAINS)


def test_every_default_lies_in_its_domain():
    for command, run in _COMMANDS.items():
        for opt in run.opts:
            assert opt.default is None or opt.ok(opt.default), (command, opt.name)


# --- _quick_flags against argparse ------------------------------------------

_NAMES = sorted({opt.name for run in _COMMANDS.values() for opt in run.opts})
_PATHS = st.sampled_from(["run", "out/x", "a b", "cfg.txt", "a=b"])
_DASHED = st.sampled_from(["-1", "-0.5", "-1e5", "-1.5e-3", "-inf", "-h", "--", "-",
                           "--trunc", "-x"])
_ODD = st.sampled_from(["", "x", "1.5", "1e3", "gap", "1,x", "1..x"])


def _inside(name: str) -> st.SearchStrategy:
    return _DOMAINS[name][0] if name in _DOMAINS else _PATHS


def _value(name: str) -> st.SearchStrategy:
    outside = _DOMAINS.get(name, (None, None))[1]
    return st.one_of(_inside(name), *[outside] * (outside is not None), _DASHED, _ODD)


@st.composite
def argvs(draw) -> list[str]:
    """A command word, or now and then another word, and up to four items:
    mostly an exact flag of any command and its value, else an abbreviated,
    '=' or bare flag, or a stray word."""
    argv = [draw(st.sampled_from(sorted(_COMMANDS) * 4 + ["-h", "bogus"]))]
    own = [opt.name for opt in getattr(_COMMANDS.get(argv[0]), "opts", [])]
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(own * 3 + _NAMES))
        value = draw(_value(name))
        form = draw(st.sampled_from(["pair"] * 6 + ["abbreviated", "equals", "bare", "word"]))
        if form == "abbreviated" and len(name) > 1:
            argv += [f"--{name[:draw(st.integers(1, len(name) - 1))]}", value]
        elif form == "equals":
            argv.append(f"--{name}={value}")
        elif form == "bare":
            argv.append(f"--{name}")
        elif form == "word":
            argv.append(value)
        else:
            argv += [f"--{name}", value]
    return argv


@st.composite
def well_formed(draw) -> list[str]:
    """A command and exact pairs of its options, each value inside the
    option's domain or an odd word, and none starting with '-' but numbers."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for opt in draw(st.lists(st.sampled_from(_COMMANDS[command].opts), max_size=6)):
        inside = _inside(opt.name).filter(_spaced)
        argv += [f"--{opt.name}", draw(st.one_of(inside, _ODD))]
    return argv


def _texts(flags: dict) -> dict:
    """flags with each value as its repr, so that NaN compares equal."""
    return {key: repr(value) for key, value in flags.items()}


# one parser for every example: parse_args leaves it as it was
_parser = functools.cache(_build_parser)


def _argparse_outcome(argv: list[str]) -> tuple:
    """("flags", parsed) or ("usage", message) from argparse, or ("exit", code)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return "flags", _texts(vars(_parser().parse_args(argv)))
    except SystemExit as exc:
        return "exit", exc.code
    except UsageError as exc:
        return "usage", str(exc)


def _quick_outcome(argv: list[str]) -> tuple | None:
    """The same outcome from _quick_flags, or None where it defers."""
    try:
        flags = _quick_flags(argv)
    except UsageError as exc:
        return "usage", str(exc)
    return None if flags is None else ("flags", _texts({**flags, "command": argv[0]}))


def _is_well_formed(argv: list[str]) -> bool:
    """A command followed only by exact --name value pairs of its options,
    no value starting with '-' but numbers."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return False
    flags = {f"--{opt.name}" for opt in _COMMANDS[argv[0]].opts}
    return all(f in flags and _spaced(v) for f, v in zip(argv[1::2], argv[2::2]))


@settings(deadline=None, max_examples=500)
@given(argv=st.one_of(argvs(), well_formed()))
@example(argv=["gap"])
@example(argv=["gap", "--trunc", "5", "--trunc", "7"])
@example(argv=["gap", "--horizons", "x"])
@example(argv=["gap", "--out", "-h"])
@example(argv=["gap", "--seed", "-1"])
@example(argv=["prop3", "--s", "5"])
@example(argv=["gap", "--fac", "9"])
@example(argv=["gap", "--c", "-1e5"])
@example(argv=["gap", "--seed", "-1e5"])
def test_quick_flags_agree_with_argparse(argv):
    """_quick_flags returns argparse's flags or raises its UsageError, and
    it defers on a well-formed argv only where argparse rejects a value its
    converter refused."""
    quick, slow = _quick_outcome(argv), _argparse_outcome(_joined(argv))
    if quick is not None:
        assert quick == slow, argv
    elif _is_well_formed(argv):
        assert slow == ("exit", 2), argv


@settings(deadline=None, max_examples=100)
@given(argv=st.one_of(argvs(), well_formed()))
@example(argv=["gap", "--seed", "-1", "--out-path", "-0.5"])
@example(argv=["gap", "--", "-1"])
def test_joining_keeps_every_argv_argparse_accepts(argv):
    """_joined changes nothing argparse reads: an argv it accepts as it
    stands parses to the same flags joined."""
    raw = _argparse_outcome(argv)
    if raw[0] == "flags":
        assert _argparse_outcome(_joined(argv)) == raw, argv


@pytest.mark.parametrize("value", ["-1e5", "-1.5e-3", "-2"])
@pytest.mark.parametrize("abbreviated", [False, True], ids=["quick", "argparse"])
def test_a_negative_number_follows_its_flag(value, abbreviated):
    """gap --c -1e5 runs on both parse paths (an abbreviated flag takes
    the argparse one) and writes what gap --c=-1e5 writes."""
    factors = "--fac" if abbreviated else "--factors"
    spaced = _run(["gap", "--trunc", "40", factors, "3", "--c", value], "")
    equals = _run(["gap", "--trunc", "40", "--factors=3", f"--c={value}"], "")
    assert spaced[0] == 0 and spaced == equals
