"""What each entry point imports, checked in a fresh interpreter.

The characterization (Table I, Figs 1-11) needs only the traces, frame
and core layers, and the text renderer.  The scheduler, runner,
prediction, ML and observability stacks, scipy and the experiment modules
load when something first uses them, so a process that only characterizes
traces never pays for them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiments import REGISTRY

#: the package's source root, so the child imports this checkout
SRC = str(Path(repro.__file__).resolve().parent.parent)

#: layers the characterization never uses
NOT_CHARACTERIZATION = (
    "repro.sched",
    "repro.predict",
    "repro.ml",
    "repro.runner",
    "repro.obs",
    "scipy",
)


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )


def _loaded_after(statements: str) -> list[str]:
    """Module names in ``sys.modules`` after ``statements`` ran in a fresh
    interpreter."""
    code = f"import json, sys\n{statements}\nprint(json.dumps(sorted(sys.modules)))\n"
    return json.loads(_run(code).stdout.splitlines()[-1])


def _under(modules: list[str], packages) -> list[str]:
    return [
        m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)
    ]


def test_package_import_loads_only_characterization():
    loaded = _loaded_after("import repro, repro.experiments, repro.core")
    assert _under(loaded, NOT_CHARACTERIZATION) == []
    experiments = [m for m in loaded if m.startswith("repro.experiments.")]
    assert experiments == ["repro.experiments.common"]


def test_characterization_experiments_load_only_their_layers():
    loaded = _loaded_after(
        "from repro.experiments import run_experiment\n"
        "for exp_id in ['table1'] + [f'fig{i}' for i in range(1, 12)]:\n"
        "    run_experiment(exp_id, days=2)"
    )
    assert _under(loaded, NOT_CHARACTERIZATION) == []


def test_cli_import_does_not_load_scipy():
    # scipy is imported by the Tobit methods that use it, so a process
    # that never fits a Tobit model never loads it
    loaded = _loaded_after("import repro, repro.experiments, repro.core, repro.cli")
    assert _under(loaded, ["scipy"]) == []


def test_cli_help_loads_no_engine_or_model():
    # ``python -m repro.cli --help``: each subcommand imports the stacks it
    # runs, so parsing the arguments loads none of them
    loaded = _loaded_after(
        "import runpy\n"
        "sys.argv = ['repro.cli', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    assert "repro.runner.options" in loaded  # the CLI module ran
    assert _under(
        loaded, ["repro.sched", "repro.obs", "repro.predict", "repro.ml", "scipy"]
    ) == []


def test_experiments_list_imports_no_experiment():
    out = _run(
        "import sys\n"
        "from repro.experiments.__main__ import main\n"
        "rc = main(['list'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.experiments.')))\n"
        "sys.exit(rc)\n"
    )
    *listing, modules = out.stdout.splitlines()
    assert [line.split()[0] for line in listing] == list(REGISTRY)
    for line, (_, description) in zip(listing, REGISTRY.values()):
        assert line.endswith(description)
    assert modules == str(
        ["repro.experiments.__main__", "repro.experiments.common"]
    )


def test_experiments_list_loads_no_engine_or_model():
    # the CLI reads its runner flags from ``repro.runner.options``; the
    # package loads ``sweep`` (and the engines through it) only on use
    loaded = _loaded_after(
        "from repro.experiments.__main__ import main\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['list'])"
    )
    assert _under(loaded, ["repro.sched", "repro.predict", "repro.ml"]) == []
    assert "repro.runner.sweep" not in loaded


def test_runner_names_load_on_first_use():
    out = _run(
        "import sys, repro.runner as runner\n"
        "before = 'repro.runner.sweep' in sys.modules\n"
        "missing = [n for n in runner.__all__ if getattr(runner, n, None) is None]\n"
        "from repro.runner import SweepStats\n"
        "print(before, missing, SweepStats.__module__)\n"
    )
    assert out.stdout.split() == ["False", "[]", "repro.runner.sweep"]


def test_package_import_loads_no_characterization():
    # ``import repro`` (every CLI command) loads ``repro.core`` only when a
    # characterization name is first used
    out = _run(
        "import sys, repro\n"
        "before = sorted(m for m in sys.modules if m.startswith('repro.core'))\n"
        "from repro import CrossSystemStudy, evaluate_takeaways\n"
        "print(before, CrossSystemStudy.__module__, evaluate_takeaways.__module__)\n"
    )
    assert out.stdout.split() == ["[]", "repro.core.study", "repro.core.takeaways"]
