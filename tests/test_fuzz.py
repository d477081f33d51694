"""No input ends in a traceback: one property over every config field, in a
config file and as a flag, and over OU_BENCH_THREADS, run through `main` in
this process.

Every drawn run keeps n <= 64 and replications <= 8 (or an invalid value),
and at most 4 worker processes, so an example takes milliseconds.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ou_drift_bench import IndexConvention, Variant, preset_names
from ou_drift_bench.cli import _COMMANDS, _FIELDS, main

# Any Unicode but lone surrogates, which no file name or argument can hold;
# NUL bytes included.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_EXTREME = st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308])
_ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats() | _EXTREME,
    _TEXT,
    _TEXT.map("-x".__add__),  # as a flag's separate value, a parse error
    st.lists(st.integers(), max_size=2),
    st.dictionaries(_TEXT, st.integers(), max_size=2),
)
# A name of 1..300 characters, so some pass the file system's 255-byte limit.
_NAME = st.one_of(
    _TEXT.filter(lambda s: s not in ("", ".", "..") and "/" not in s),
    st.integers(1, 300).map(lambda k: "d" * k),
)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e3) | _EXTREME
# The values each field takes; a flag gets their string.
_VALID = {
    "master_seed": st.integers(0, 2**64 - 1),
    "replications": st.integers(2, 8),
    "output_dir": st.lists(_NAME, min_size=1, max_size=4).map("/".join),
    "schedule": st.sampled_from(preset_names()),
    "estimators": st.sampled_from(["amce", "amle", "both", "AMLE"])
    | st.lists(st.sampled_from(["amce", "amle"]), min_size=1, max_size=2, unique=True),
    "index_convention": st.sampled_from([c.value for c in IndexConvention]),
    "theta_true": _POSITIVE,
    "n": st.integers(1, 64),
    "delta": _POSITIVE,
    "variant": st.sampled_from([v.value for v in Variant]),
    "coupled": st.booleans(),
}
# Set in every run, so neither default (n = 1000, 10^4 replications) runs.
_REQUIRED = ("replications", "n")
# Junk worker counts: none that a rule could take for more than 4 workers,
# and no NUL, which no environment variable can hold.
_BAD_THREADS = _TEXT.filter(
    lambda s: "\0" not in s and not (s.isascii() and s.isdigit() and int(s) > 4)
)


def _odd(draw) -> bool:
    """One draw in twenty is odd, so half the runs get past the config."""
    return draw(st.integers(0, 19)) == 0


def _value(draw, field, flag=False):
    """A valid value for the field (a number also as a string; a flag's as
    the string it takes), or an odd value of any type."""
    if _odd(draw):
        value = draw(_ODD)
        return value if isinstance(value, str) or not flag else repr(value)
    value = draw(_VALID[field])
    if flag and isinstance(value, list):
        return "both"
    plain_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return str(value) if (flag or draw(st.booleans())) and plain_number else value


@st.composite
def _runs(draw):
    """A command, its flags, its config file (a mapping, or raw bytes) and
    OU_BENCH_THREADS."""
    flags, file_values = [], {}
    for field, (_, flag, _) in _FIELDS.items():
        sources = ["flag", "file", "both"] + ([] if field in _REQUIRED else ["none"])
        source = draw(st.sampled_from(sources))
        if source in ("file", "both"):
            file_values[field] = _value(draw, field)
        if source in ("flag", "both"):
            # --flag=value, which argparse takes verbatim, or --flag value,
            # where a value that starts with "-" is a parse error
            value = None if field == "coupled" else _value(draw, field, flag=True)
            if value is None:
                flags.append([flag])
            else:
                flags.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    if _odd(draw):
        file_values[draw(_TEXT)] = draw(_ODD)
    raw = draw(st.binary(max_size=16)) if _odd(draw) else None
    threads = draw(_BAD_THREADS if _odd(draw) else st.integers(1, 4).map(str))
    command = draw(st.sampled_from(list(_COMMANDS)))
    flags = [arg for group in draw(st.permutations(flags)) for arg in group]
    return command, flags, file_values, raw, threads


@settings(max_examples=200, deadline=None, database=None)
@given(run=_runs())
def test_no_input_ends_in_a_traceback(run):
    command, flags, file_values, raw, threads = run
    saved_cwd, saved_threads = os.getcwd(), os.environ.get("OU_BENCH_THREADS")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "run.yaml")
        if raw is not None:
            config.write_bytes(raw)
        else:
            config.write_text(yaml.safe_dump(file_values), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        os.environ["OU_BENCH_THREADS"] = threads
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([command, f"--config={config}", *flags])
                except SystemExit as exc:  # argparse
                    code = exc.code
        finally:
            os.chdir(saved_cwd)
            if saved_threads is None:
                del os.environ["OU_BENCH_THREADS"]
            else:
                os.environ["OU_BENCH_THREADS"] = saved_threads
        left = sorted(p.name for p in Path(tmp).iterdir())
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, stderr)
    assert "Traceback" not in stderr
    if code == 2:
        assert "config error:" in stderr, stderr
        assert left == ["run.yaml"], left
    if code == 1:
        failed_gate = command == "verify" and "VERIFY FAIL" in stdout
        assert failed_gate or "error:" in stderr, stderr
