"""Every script in demos/ runs, and the README's examples match the library."""

import argparse
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lqrinfluence
from lqrinfluence.bench import GenerationConfig, generate_dataset, system_spec
from lqrinfluence.cli import _build_parser
from lqrinfluence.experiments import parse_config
from lqrinfluence.sysid import fit_ridge

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script, tmp_path):
    src = Path(lqrinfluence.__file__).resolve().parents[1]
    # TMPDIR keeps the files a demo writes inside the test's own directory
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


README = ROOT / "README.md"


def readme_blocks(lang):
    """The bodies of the README's fenced code blocks opened with ```lang."""
    blocks, fence = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if fence is None:
                fence = (line[3:], [])
            else:
                blocks.append(fence)
                fence = None
        elif fence is not None:
            fence[1].append(line)
    return ["\n".join(body) for info, body in blocks if info == lang]


def test_readme_config_example_parses():
    (block,) = readme_blocks("json")
    cfg = parse_config(json.loads(block))
    assert cfg.system.kind == "dc_motor" and cfg.seeds == (0, 1, 2)


def test_readme_python_quickstart_runs(tmp_path, monkeypatch):
    # the quickstart scores a generated dataset and writes scores.csv where it runs
    (block,) = readme_blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    header = (tmp_path / "scores.csv").read_text().splitlines()[0]
    assert header.startswith("k,T_k,")


def test_readme_cli_usage_matches_parser():
    (usage,) = [line for block in readme_blocks("") for line in block.splitlines()
                if line.startswith("lqr-influence run ")]
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {opt for action in subparsers.choices["run"]._actions
               for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == options


def test_perfbench_traced_names_resolve():
    # the traced benchmark run (perfbench/run.py --trace 1) wraps every TRACED
    # name and sizes every fit: a renamed or deleted function breaks it
    found = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(found)
    found.loader.exec_module(spans)
    for mod_name, names in spans.TRACED.items():
        module = importlib.import_module(f"lqrinfluence.{mod_name}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"lqrinfluence.{mod_name} lacks traced {missing}"
    fit = fit_ridge(generate_dataset(system_spec("dc_motor"), GenerationConfig(6, 5, 10)), 1e-3)
    assert spans._fit_bytes(fit) >= fit.theta.nbytes + fit.residuals.nbytes
