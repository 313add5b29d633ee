"""The CLI determinism contract, promoted from CI into the suite.

CI has long double-run/byte-diffed ``opsloop`` and ``regionevac``
through the real ``python -m repro.experiments`` entry point (shell
``diff`` of the captured stdout).  That check only runs on CI machines;
these tests run the identical comparison in-process via ``main()`` and
``capsys``, so `pytest` alone catches a determinism regression — a
stray wall-clock read, an unseeded RNG, state one run leaves behind
for the next — before it lands.  Nothing is reset between the runs.

Only the ``(X.Xs wall)`` timing line is stripped (the one intentional
wall-clock read); everything else must match byte for byte, including
the sparkline-free rows, claim verdicts, and invariant summaries.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.__main__ import main
from repro.run_context import RunContext, current_run

#: The deliberately-nondeterministic output: the wall-time footer.
_WALL = re.compile(r"^\s*\(\d+\.\d+s wall\)\s*$", re.MULTILINE)


def _run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, _WALL.sub("", out)


@pytest.mark.parametrize("figure", ["opsloop", "regionevac"])
def test_cli_double_run_is_byte_identical(figure, capsys):
    argv = [figure, "--no-plots"]
    code_a, out_a = _run_cli(argv, capsys)
    code_b, out_b = _run_cli(argv, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b, f"{figure}: CLI output differs between runs"
    assert "invariants: all checkers clean" in out_a
    assert "FAIL" not in out_a


def test_cli_output_is_not_vacuous(capsys):
    """The byte-diff means something: runs print real result rows."""
    _, out = _run_cli(["opsloop", "--no-plots"], capsys)
    assert "== " in out and " = " in out, "no result rows printed"
    assert _WALL.search(out) is None, "wall-time line survived stripping"


@pytest.mark.parametrize("figure, line", [
    ("fig09", "invariants: all checkers clean"),
    # Analytic figure: no deployment, so no suite to vouch for it.
    ("fig02", "invariants: no checkers installed"),
])
def test_cli_invariant_line_says_whether_checkers_ran(figure, line, capsys):
    code, out = _run_cli([figure, "--no-plots"], capsys)
    assert code == 0
    assert line in out
    other = ({"invariants: all checkers clean",
              "invariants: no checkers installed"} - {line}).pop()
    assert other not in out


def test_shardscale_output_does_not_depend_on_the_shard_count(capsys):
    # The CI shard-smoke diff: suites that ran in forked workers count
    # like the in-process one, so both arms say "all checkers clean".
    _, one = _run_cli(["shardscale", "--no-plots", "--shards", "1"], capsys)
    _, two = _run_cli(["shardscale", "--no-plots", "--shards", "2"], capsys)
    shards = re.compile(r"^\s*param shards = \d+\n", re.MULTILINE)
    assert "param shards = 2" in two
    assert shards.sub("", one) == shards.sub("", two)
    assert "invariants: all checkers clean" in two


# -- run isolation: nothing a run sets outlives it ----------------------------


class _ExplodingHarness:
    """A figure module whose harness raises mid-run."""

    seen = None

    @classmethod
    def run(cls, seed=0):
        cls.seen = current_run()
        raise RuntimeError("harness blew up")


def test_raising_harness_leaves_the_default_run_context(monkeypatch):
    monkeypatch.setitem(ALL_EXPERIMENTS, "boom", _ExplodingHarness)
    with pytest.raises(RuntimeError, match="blew up"):
        main(["boom", "--lb-scheme", "stateless", "--faults",
              "hc-flap-storm", "--canary", "--splice", "--no-plots"])
    assert _ExplodingHarness.seen.lb_scheme == "stateless"
    assert current_run() == RunContext()


@pytest.fixture(scope="module")
def first_ever_fig13():
    """fig13 from a fresh interpreter: nothing ran before it."""
    src = Path(repro.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "fig13", "--no-plots"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}).stdout
    return _WALL.sub("", out)


@pytest.mark.parametrize("flags", [
    ["--lb-scheme", "stateless"],
    # Flags that visibly change fig13's output, so a leak would show.
    ["--faults", "hc-flap-storm", "--resilience"],
])
def test_run_after_a_flagged_run_matches_a_first_ever_run(
        flags, first_ever_fig13, capsys):
    code_flagged = main(["fig13", *flags, "--no-plots"])
    flagged = _WALL.sub("", capsys.readouterr().out)
    code_plain = main(["fig13", "--no-plots"])
    plain = _WALL.sub("", capsys.readouterr().out)
    assert code_flagged in (0, 1) and code_plain == 0
    assert plain == first_ever_fig13
    assert "== fig13" in plain
    if "--faults" in flags:
        assert flagged != plain
