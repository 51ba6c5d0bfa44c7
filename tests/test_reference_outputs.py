"""Every output of the three benchmark workloads at workload seed 1, pinned
by its sha256 in ``reference_outputs.json``.

The workloads are those of ``bench/bench_workloads.py``, imported from its
file (read only), so they have one definition.  Each command runs through
``ballsgd.cli.main`` in process, as the bench runs it.  An output is a
command's stdout with its exit code, digested as ``"<rc>\\n<stdout>"`` after
the work directory is replaced by ``WORK_TOKEN`` (``run`` prints its
artifact directory), or one of its artifact files.

A change that moves an output on purpose, or changes a workload's inputs,
refreshes the file, by running this module as a script from the root of
the checkout:

    PYTHONPATH=src python tests/test_reference_outputs.py

and lists the old and new digests of each moved output in CHANGES.md.

The digests hold for one numpy build and BLAS.  The host-dependent pieces
that reach an output byte are numpy's SIMD ``np.log`` in Box-Muller, the
``u ** (1/d)`` of the uniform-ball radius and LAPACK's ``eigvalsh`` behind
``certify``'s ``lambda_min``; the file was written with numpy 2.4.6 and
its OpenBLAS on x86-64.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import sys

from ballsgd import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCE = pathlib.Path(__file__).with_name("reference_outputs.json")
SEED = 1
WORK_TOKEN = "<work>"


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "bench_workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(work_dir) -> dict:
    """sha256 of every stdout (with its exit code) and artifact file of the
    workloads at SEED, keyed '<workload>/<index>:<label>/<output>'."""
    workloads = _bench_workloads()
    digests = {}
    for name in workloads.WORKLOADS:
        directory = os.path.join(str(work_dir), name)
        for index, command in enumerate(
                workloads.build(name, SEED, directory).commands):
            key = f"{name}/{index}:{command.label}"
            buffer = io.StringIO()
            try:
                with contextlib.redirect_stdout(buffer):
                    rc = cli.main(command.argv)
            except SystemExit as exc:
                rc = exc.code
            text = buffer.getvalue().replace(directory, WORK_TOKEN)
            digests[f"{key}/stdout"] = _sha256(f"{rc}\n{text}".encode())
            if command.artifacts:
                for base, _, files in os.walk(command.artifacts):
                    for file in files:
                        path = os.path.join(base, file)
                        relative = os.path.relpath(path, command.artifacts)
                        digests[f"{key}/{relative}"] = _sha256(
                            pathlib.Path(path).read_bytes())
    return dict(sorted(digests.items()))


def test_bench_workload_outputs_match_the_reference(tmp_path):
    expected = json.loads(REFERENCE.read_text())["digests"]
    actual = output_digests(tmp_path)
    moved = sorted(key for key in expected.keys() | actual.keys()
                   if expected.get(key) != actual.get(key))
    assert not moved, f"{len(moved)} outputs moved: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = output_digests(scratch)
    REFERENCE.write_text(json.dumps(
        {"seed": SEED, "work_token": WORK_TOKEN, "digests": digests},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCE}", file=sys.stderr)
