"""The README's code examples run and say what the README says they do."""

import contextlib
import io
import pathlib
import re

from ballsgd.harness import ExperimentConfig

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


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
