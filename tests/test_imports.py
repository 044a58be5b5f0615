"""Which subcommands load scipy and the process pool, and when.

scipy serves only stage 1's eigensolvers, so importing the package and every
subcommand that does not cluster must leave it unloaded, no subcommand loads
``scipy.optimize``, and a Gram matrix small enough for the dense solver leaves
``scipy.sparse.linalg`` unloaded. The process pool's modules load only for a
sweep with ``--jobs`` above 1. This module's process has scipy loaded
already (``conftest`` imports it), so each check runs in a fresh interpreter on
the checkout's ``src``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from mmclab.cli import SWEEP_COLUMNS

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, cwd: Path) -> list:
    """Run ``code`` in a new interpreter; returns the JSON of its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scipy_loaded_after(code: str, cwd: Path) -> list:
    """The scipy modules loaded once ``code`` has run in a new interpreter."""
    return run_fresh(textwrap.dedent(code) + "\nimport json, sys\nprint(json.dumps(sorted(\n"
                     "    m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n",
                     cwd)


def test_importing_the_package_loads_no_scipy(tmp_path):
    assert scipy_loaded_after("import mmclab, mmclab.cli", tmp_path) == []


def test_gap_sweep_imports_load_no_scipy(tmp_path):
    # the imports and calls of scripts/run_gap_sweep.py
    code = """
        from mmclab import check_gap_inequalities, gen_random_ergodic
        check_gap_inequalities([gen_random_ergodic(3, seed, 1 / 12) for seed in (1, 2)])
    """
    assert scipy_loaded_after(code, tmp_path) == []


def write_stage1(tmp_path):
    """A stage-1 file for the 10 trajectories of the specs below."""
    stage1 = {"K_hat": 2, "labels": [1, 2] * 5, "centers": [1, 2], "R_hat": 1,
              "singular_values": [1.0], "sigma_thres": 0.5, "forced_first_cluster": False}
    (tmp_path / "s.stage1.json").write_text(json.dumps(stage1))


def test_scipy_free_subcommands_load_no_scipy(tmp_path):
    write_stage1(tmp_path)
    row = dict.fromkeys(SWEEP_COLUMNS, "0.5") | {"T": "10", "H": "20", "seed": "1",
                                                  "e_t_stage1": "1", "e_t_stage2": "1",
                                                  "e_t_oracle": "0"}
    (tmp_path / "s.sweep.csv").write_text(",".join(SWEEP_COLUMNS) + "\n"
                                          + ",".join(row.values()) + "\n")
    code = """
        from mmclab.cli import main
        spec = '{"type": "separation", "S_prime": 1, "T": 10, "H": 20}'
        commands = [["generate", spec], ["sample", "instance.instance.json", "--seed", "1"],
                    ["refine", "sample.traj.bin", "s.stage1.json"],
                    ["evaluate", "--instance", "instance.instance.json", "s.stage1.json"],
                    ["gaps", "instance.instance.json"],
                    ["bounds", "--eps", "0.1", "--delta", "0.1", "--T", "10", "--H", "20",
                     "--D", "0.5", "--alpha-min", "0.5"],
                    ["report", "s.sweep.csv"]]
        for argv in commands:
            assert main(argv) == 0, argv
    """
    assert scipy_loaded_after(code, tmp_path) == []


def test_decay_shape_sweep_point_loads_no_sparse_linalg(tmp_path):
    # S = 4 gives a 16 x 16 Gram matrix, which the dense eigensolver takes
    # rather than Lanczos, so scipy.sparse.linalg stays out of the process
    cfg = {"instance": {"type": "separation", "S_prime": 2}, "T": [200], "H": [20_000],
           "delta": [0.1], "lambda": [0.5], "seeds": [0], "c_sigma": 0.15, "c_rho": 2.0}
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    code = """
        from mmclab.cli import main
        assert main(["sweep", "sweep.json", "--jobs", "1"]) == 0
    """
    loaded = scipy_loaded_after(code, tmp_path)
    assert "scipy.linalg" in loaded and "scipy.sparse.linalg" not in loaded


def test_clustering_subcommands_load_no_scipy_optimize(tmp_path):
    write_stage1(tmp_path)
    cfg = {"instance": {"type": "separation", "S_prime": 1}, "T": [10], "H": [20],
           "delta": [0.1], "lambda": [0.5], "seeds": [1], "c_sigma": 0.15, "c_rho": 2.0}
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    code = """
        from mmclab.cli import main
        spec = '{"type": "separation", "S_prime": 1, "T": 10, "H": 20}'
        commands = [["generate", spec], ["sample", "instance.instance.json", "--seed", "1"],
                    ["sweep", "sweep.json"], ["cluster", "sample.traj.bin", "--gamma", "0.5"],
                    ["evaluate", "--instance", "instance.instance.json", "s.stage1.json",
                     "cluster.stage1.json"]]
        for argv in commands:
            assert main(argv) == 0, argv
    """
    loaded = scipy_loaded_after(code, tmp_path)
    assert "scipy.linalg" in loaded and "scipy.optimize" not in loaded


def test_process_pool_loads_only_for_parallel_sweeps(tmp_path):
    # concurrent.futures itself comes in with numpy.testing, which scipy
    # imports, so a sweep is checked for the pool's modules only
    cfg = {"instance": {"type": "separation", "S_prime": 1}, "T": [10], "H": [20],
           "delta": [0.1], "lambda": [0.5], "seeds": [1], "c_sigma": 0.15, "c_rho": 2.0}
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    code = """
        import json, sys
        pool = ("concurrent.futures", "multiprocessing")
        loaded = lambda prefixes: sorted(m for m in sys.modules if m.startswith(prefixes))
        import mmclab.cli
        after_import = loaded(pool)
        assert mmclab.cli.main(["sweep", "sweep.json", "--jobs", "1"]) == 0
        print(json.dumps([after_import,
                          loaded(("concurrent.futures.process", "multiprocessing"))]))
    """
    assert run_fresh(code, tmp_path) == [[], []]
