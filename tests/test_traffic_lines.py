"""The traffic tool lists the statements a run never executes, and no others."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MULTIDIM = ROOT / "src" / "ldpsim" / "multidim.py"

# rs_fd under grr and oue_r runs rs_sanitize_batch through every statement; no SPL
TINY = """
experiment = mse
seed = 3
dataset = synth:zipf
synth_n = 300
synth_ks = 4, 3
solutions = rs_fd
variants = grr, oue_r
epsilons = 1
runs = 1
"""


def _body_lines(name):
    """Line of every statement inside the function ``name`` of multidim, bar its docstring."""
    fn = next(n for n in ast.walk(ast.parse(MULTIDIM.read_text()))
              if isinstance(n, ast.FunctionDef) and n.name == name)
    return {n.lineno for stmt in fn.body[1:] for n in ast.walk(stmt) if isinstance(n, ast.stmt)}


def test_tiny_rs_fd_run_lists_spl_and_not_rs_sanitize(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "traffic_lines.py"), str(config)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    section = proc.stdout.split("src/ldpsim/multidim.py:")[1].split("\nsrc/")[0]
    listed = {int(line.split(":")[0]) for line in section.splitlines()[1:]}
    spl, rs = _body_lines("spl_sanitize_batch"), _body_lines("rs_sanitize_batch")
    assert spl and spl <= listed
    assert rs and not rs & listed
