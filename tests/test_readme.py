"""The README's code examples run and say what the README says they do."""

import contextlib
import io
import pathlib
import re
import subprocess
import sys

from ballsgd.harness import ExperimentConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _only_block(language):
    blocks = re.findall(rf"```{language}\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 1, f"expected one {language} block in the README"
    return blocks[0]


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
