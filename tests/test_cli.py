"""Tests for the ``python -m repro`` command-line interface.

Most subcommands are exercised in-process through ``main(argv)``; the
``serve`` subcommand is smoke-tested as a real subprocess (start the server,
submit one composition over HTTP, assert byte-identity with direct
``compose()`` — the same contract CI's service smoke step runs).
"""

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.catalog import MappingCatalog
from repro.compose.composer import compose
from repro.engine import ChainGrower
from repro.literature.problems import problem_by_name
from repro.textio.format import problem_to_text
from repro.textio.records import chain_to_text, result_from_text

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "catalog-root")


@pytest.fixture()
def record_files(tmp_path):
    chain = ChainGrower(seed=13, schema_size=4).grow_many(4)
    problem = problem_by_name("example1_movies").problem
    chain_file = tmp_path / "history.txt"
    chain_file.write_text(chain_to_text(chain, name="history"))
    problem_file = tmp_path / "ex1.txt"
    problem_file.write_text(problem_to_text(problem))
    return {"chain": str(chain_file), "problem": str(problem_file)}


class TestCatalogCommands:
    def test_add_list_show(self, root, record_files, capsys):
        assert main(["--root", root, "catalog", "add",
                     record_files["chain"], record_files["problem"]]) == 0
        out = capsys.readouterr().out
        assert "chain/history v1" in out
        assert "problem/example1_movies v1" in out

        assert main(["--root", root, "catalog", "list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert {entry["kind"] for entry in listing} == {"chain", "problem"}

        assert main(["--root", root, "catalog", "show", "chain", "history"]) == 0
        shown = capsys.readouterr().out
        assert shown == MappingCatalog(root).text("chain", "history")

    def test_unknown_entry_fails_cleanly(self, root, capsys):
        assert main(["--root", root, "catalog", "show", "mapping", "missing"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, root, capsys):
        assert main(["--root", root, "catalog", "add", "no-such-file.txt"]) == 1
        assert "error:" in capsys.readouterr().err


class TestComposeCommand:
    def test_compose_problem_file(self, root, record_files, capsys):
        assert main(["--root", root, "compose", record_files["problem"],
                     "--store", "ex1-result"]) == 0
        captured = capsys.readouterr()
        result = result_from_text(captured.out)
        direct = compose(problem_by_name("example1_movies").problem)
        assert result.constraints.to_text() == direct.constraints.to_text()
        assert "stored result/ex1-result v1" in captured.err
        assert MappingCatalog(root).get_result("ex1-result") == result

    def test_compose_stored_chain_is_warm_on_second_run(self, root, record_files, capsys):
        assert main(["--root", root, "catalog", "add", record_files["chain"]]) == 0
        capsys.readouterr()
        assert main(["--root", root, "compose", "--name", "history", "--kind", "chain"]) == 0
        first = capsys.readouterr()
        assert "reused hops: 0/3" in first.err
        assert main(["--root", root, "compose", "--name", "history", "--kind", "chain"]) == 0
        second = capsys.readouterr()
        assert "reused hops: 3/3" in second.err  # persistent checkpoints
        assert second.out == first.out  # byte-identical composed mapping

    def test_compose_without_input_fails(self, root, capsys):
        assert main(["--root", root, "compose"]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeArguments:
    @pytest.mark.parametrize("flag", [["--backend", "serial"], ["--max-workers", "2"]])
    def test_pool_flags_are_rejected(self, flag, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--micro-batch-wait", "0.002"], ["--micro-batch-size", "16"]]
    )
    def test_micro_batch_flags_are_rejected(self, flag, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCatalogGCCommand:
    def test_gc_bounds_checkpoints_and_prefix_reuse_survives(self, root, record_files, capsys):
        assert main(["--root", root, "catalog", "add", record_files["chain"]]) == 0
        assert main(["--root", root, "compose", "--name", "history", "--kind", "chain"]) == 0
        capsys.readouterr()
        checkpoint_dir = Path(root) / "checkpoints"
        assert len(list(checkpoint_dir.glob("*.ckpt"))) == 3

        assert main(["--root", root, "catalog", "gc",
                     "--max-checkpoint-files", "1", "--dry-run", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dry_run"] is True
        assert report["checkpoints"]["removed"] == 2
        assert len(list(checkpoint_dir.glob("*.ckpt"))) == 3  # dry run

        assert main(["--root", root, "catalog", "gc",
                     "--max-checkpoint-files", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checkpoints"] == {"examined": 3, "removed": 2, "retained": 1}
        assert len(list(checkpoint_dir.glob("*.ckpt"))) == 1

        # The retained (deepest) checkpoint still covers the whole chain.
        assert main(["--root", root, "compose", "--name", "history", "--kind", "chain"]) == 0
        assert "reused hops: 3/3" in capsys.readouterr().err

    def test_gc_prunes_old_result_versions(self, root, record_files, capsys):
        assert main(["--root", root, "compose", record_files["problem"],
                     "--store", "r"]) == 0
        capsys.readouterr()
        catalog = MappingCatalog(root)
        catalog.put_result("r", compose(problem_by_name("glav_chain").problem))
        assert len(catalog.versions("result", "r")) == 2
        assert main(["--root", root, "catalog", "gc", "--keep-result-versions", "1"]) == 0
        out = capsys.readouterr().out
        assert "results:     removed 1" in out
        assert [e.version for e in MappingCatalog(root).versions("result", "r")] == [2]


def _spawn_serve(root: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "--root", root, "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    assert "http://" in line, f"unexpected banner: {line!r}"
    return process, line.strip().rsplit(" ", 1)[-1]


def _post_compose(base: str, body: bytes, query: str = "") -> str:
    deadline = time.time() + 30
    while True:
        try:
            request = urllib.request.Request(
                base + "/compose" + query, data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.read().decode()
        except (urllib.error.URLError, ConnectionError):
            if time.time() > deadline:
                raise
            time.sleep(0.1)


class TestServeSubprocess:
    def test_serve_smoke_byte_identical(self, root, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "--root", root, "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "http://" in line, f"unexpected banner: {line!r}"
            base = line.strip().rsplit(" ", 1)[-1]
            problem = problem_by_name("example1_movies").problem
            body = problem_to_text(problem).encode()
            deadline = time.time() + 30
            while True:
                try:
                    request = urllib.request.Request(
                        base + "/compose", data=body, method="POST"
                    )
                    with urllib.request.urlopen(request, timeout=30) as response:
                        text = response.read().decode()
                    break
                except (urllib.error.URLError, ConnectionError):
                    if time.time() > deadline:
                        raise
                    time.sleep(0.1)
            served = result_from_text(text)
            direct = compose(problem)
            assert served.constraints.to_text() == direct.constraints.to_text()
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_two_servers_share_one_catalog(self, root):
        """CI's shared-catalog smoke: two serve processes on one root,
        interleaved composes byte-identical to direct compose, and writes by
        either server visible to both."""
        chain = ChainGrower(seed=13, schema_size=4).grow_many(4)
        chain_body = chain_to_text(chain, name="history").encode()
        problem = problem_by_name("example1_movies").problem
        problem_body = problem_to_text(problem).encode()

        first, first_base = _spawn_serve(root)
        second, second_base = _spawn_serve(root)
        try:
            direct_problem = compose(problem)
            # Interleave requests across the two processes.
            a = _post_compose(first_base, problem_body)
            b = _post_compose(second_base, chain_body, "?store=composed")
            c = _post_compose(second_base, problem_body)
            d = _post_compose(first_base, chain_body, "?store=composed")
            assert (
                result_from_text(a).constraints.to_text()
                == result_from_text(c).constraints.to_text()
                == direct_problem.constraints.to_text()
            )
            assert b == d  # byte-identical composed mapping across processes

            # Both stored the identical mapping: content addressing dedupes
            # across processes, so one version exists (no lost/duped writes).
            deadline = time.time() + 30
            while True:
                try:
                    with urllib.request.urlopen(
                        second_base + "/catalog/mapping/composed", timeout=30
                    ) as response:
                        stored = response.read().decode()
                    break
                except (urllib.error.URLError, ConnectionError):
                    if time.time() > deadline:
                        raise
                    time.sleep(0.1)
            assert stored
            versions = MappingCatalog(root).versions("mapping", "composed")
            assert [entry.version for entry in versions] == [1]
        finally:
            for process in (first, second):
                process.terminate()
                process.wait(timeout=10)
