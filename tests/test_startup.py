"""What a CLI process imports.  Every command starts a fresh interpreter,
and its start-up is measured, so it loads only what the command runs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# `dataclasses` pulls in `inspect`; the rest serve only some commands.
NOT_AT_IMPORT = {"dataclasses", "inspect", "hashlib", "json", "folkman.cnf",
                 "folkman.bounds"}


def modules_loaded(code: str) -> set[str]:
    """The modules a fresh interpreter loads while running `code`, beyond
    those it holds when it starts."""
    probe = ("import sys\n"
             "_before = set(sys.modules)\n"
             f"{code}\n"
             "print('\\nloaded', *sorted(set(sys.modules) - _before))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "loaded", proc.stdout
    return set(last[1:])


def test_cli_import_loads_only_what_every_command_needs():
    loaded = modules_loaded("import folkman.cli")
    assert "folkman.cli" in loaded
    assert loaded & NOT_AT_IMPORT == set()


@pytest.mark.parametrize("graph", ["K6", "C5", "E~~w", "@k6.g6", "K3+C5", "C13(1,5)"])
def test_arrows_loads_neither_cnf_nor_bounds(tmp_path, graph):
    (tmp_path / "k6.g6").write_text("E~~w\n")
    argv = ["arrows", "edges", "--graph", graph, "--spec", "3,3"]
    loaded = modules_loaded(f"import os; os.chdir({str(tmp_path)!r})\n"
                            "from folkman.cli import main\n"
                            f"assert main({argv!r}) in (0, 1)")
    assert "folkman.arrowing" in loaded
    assert loaded & {"folkman.cnf", "folkman.bounds"} == set()


def test_construct_loads_no_json():
    # `construct` prints its witness lists of ints with str(), which writes
    # them as json.dumps does.
    loaded = modules_loaded("from folkman.cli import main\n"
                            "assert main(['construct', 'K6']) == 0")
    assert "folkman.graphs" in loaded
    assert "json" not in loaded


def test_builtin_graph_loads_bounds():
    # The probe sees a module a command imports when it runs.  Each part of
    # a join is a source of its own, so `K8+q` reads `q` from bounds too.
    for argv, code in [(["construct", "q"], 0),
                       (["arrows", "edges", "--graph", "K8+q", "--spec", "3,5",
                         "--max-nodes", "10"], 2)]:
        loaded = modules_loaded("from folkman.cli import main\n"
                                f"assert main({argv!r}) == {code}")
        assert "folkman.bounds" in loaded, argv
        assert "folkman.cnf" not in loaded, argv
