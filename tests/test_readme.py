"""The README's code examples run and say what the README says they do."""

import argparse
import contextlib
import importlib.util
import io
import json
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from ballsgd.cli import build_parser, main
from ballsgd.harness import ExperimentConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _only_block(language):
    blocks = re.findall(rf"```{language}\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 1, f"expected one {language} block in the README"
    return blocks[0]


# the `ballsgd ...` lines of the README's shell blocks, without comments
_COMMAND_LINES = [shlex.split(line, comments=True)
                  for block in re.findall(r"```sh\n(.*?)```", README,
                                          re.DOTALL)
                  for line in block.splitlines()
                  if line.startswith("ballsgd ")]


@pytest.mark.parametrize("argv", _COMMAND_LINES, ids=" ".join)
def test_command_line_names_a_command_and_flags_it_accepts(argv):
    # a command or flag deleted from the CLI must not linger in the README
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    command, *rest = argv[1:]
    assert command in commands
    accepted = commands[command]._option_string_actions
    for flag in (token.split("=")[0] for token in rest
                 if token.startswith("--")):
        assert flag in accepted, (command, flag)


def test_library_tour_runs_and_converges():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_only_block("python"), "README.md", "exec"), {})
    assert out.getvalue().split() == ["converged", "True"]


def test_minimal_config_parses():
    config = ExperimentConfig.from_json(_only_block("json"))
    assert config.objective["kind"] == "quartic"
    assert config.n_seeds == 10


def test_bench_setup_probe_builds_the_minimal_config(tmp_path):
    # the benchmark's set-up probe imports the config loader, the section
    # builders and the CLI parser by name: renaming one must fail here
    config = tmp_path / "config.json"
    config.write_text(_only_block("json"))
    probe = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "setup_probe.py"),
         str(ROOT / "src"), "run", "--config", str(config)],
        capture_output=True, text=True, timeout=120, check=False)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["ready"]


def test_bench_tracer_counts_the_sgd_steps(tmp_path, capsys):
    # the benchmark's sgd_steps_per_s is optimizer.steps plus
    # diagnostics.steps, which its tracer reads through wrappers on the
    # runners and the escape checks by name, and through Objective.gradient
    # called on blocks: renaming one, or stepping around it, must fail
    # here, for either algorithm and for every objective kind
    spec = importlib.util.spec_from_file_location(
        "bench_trace", ROOT / "bench" / "bench_trace.py")
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    raw = json.loads(_only_block("json"))
    raw.update(n_seeds=3, output_dir=str(tmp_path / "out"))

    def traced(command, **changes):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**raw, **changes}))
        argv = [command, "--config", str(config)]
        with bench_trace.Tracer(spans=False) as tracer:
            assert main(argv + (["--n-seeds", "3"] if command != "run"
                                else [])) == 0
        return tracer.counts

    for algorithm in ("ball-sgd", "noise-scheduled"):
        counts = traced("run", algorithm=algorithm)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert counts["optimizer.steps"] == sum(summary["total_steps"])
        assert counts["optimizer.steps"] > 0
    assert traced("zbound")["optimizer.steps"] > 0
    saddle = {"kind": "quadratic", "H": [[-1.0, 0.0], [0.0, 1.0]],
              "b": [0.0, 0.0]}
    factorization = {"kind": "matrix-factorization",
                     "M": [[0.5, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 3.0]],
                     "rank": 2}
    for command, objective in (("escape-freq", raw["objective"]),
                               ("coupled-escape", raw["objective"]),
                               ("escape-freq", saddle),
                               ("coupled-escape", factorization)):
        counts = traced(command, objective=objective)
        assert counts["diagnostics.steps"] > 0, (command, objective)
