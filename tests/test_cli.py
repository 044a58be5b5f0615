import ctypes
import dataclasses
import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import re
import struct
import subprocess
import sys
import textwrap
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmclab import (chains, count_transitions, memory, pool_estimates, predicted_error_rate,
                    simgen, trajectory_loglik)
from mmclab.cli import main, run_sweep, SWEEP_COLUMNS
from mmclab.errors import InputError, MMCLabError, NumericalError
from mmclab.metrics import GapReport
from mmclab.simgen import MixtureInstance, load_instance, load_trajectories
from mmclab.spectral import load_stage1
from tests.conftest import STAGE1_EIGEN_FAILURES
from tests.test_golden_outputs import GOLDEN, SAMPLE_SPEC
from tests.test_imports import run_fresh

HAS_MALLINFO2 = platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallinfo2")


def failed_solve(A, b):
    raise np.linalg.LinAlgError("synthetic failure")


def strip_walltime(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def with_field(cfg: dict, key: str, value) -> dict:
    """``cfg`` with ``key`` set; an ``instance.`` key is set in the instance spec."""
    if key.startswith("instance."):
        return {**cfg, "instance": {**cfg["instance"], key.split(".", 1)[1]: value}}
    return {**cfg, key: value}


def field_place(path, key: str) -> str:
    """How an error names the config at ``path`` and the field ``key``."""
    if key.startswith("instance."):
        return f"{path} instance: field {key.split('.', 1)[1]!r}"
    return f"{path}: field {key!r}"


def mapped_blocks_after_a_free() -> int:
    """The mmapped blocks glibc adds for a 512 KiB array made after a 1 MiB array
    is freed in this process: 1 while the mmap threshold is held at 128 KiB, 0
    once the free has lifted it to 1 MiB."""
    class MallInfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in
                    ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                     "fsmblks", "uordblks", "fordblks", "keepcost")]

    mallinfo2 = ctypes.CDLL(None).mallinfo2
    mallinfo2.argtypes, mallinfo2.restype = [], MallInfo2
    big = np.ones(1 << 20, dtype=np.uint8)
    del big
    blocks = mallinfo2().hblks
    half = np.ones(1 << 19, dtype=np.uint8)
    added = mallinfo2().hblks - blocks
    del half
    return added


@pytest.fixture
def no_work(monkeypatch):
    """Records each sampling call and each process pool made; neither runs."""
    import mmclab.cli as cli_mod

    calls = []
    monkeypatch.setattr(cli_mod.simgen, "sample_trajectories",
                        lambda *args: calls.append("sample"))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda *args, **kwargs: calls.append("pool"))
    return calls


P2_MODEL = {"S": 2, "P": [[0.9, 0.1], [0.2, 0.8]], "mu": [0.5, 0.5]}

# 270 bytes as json.dumps writes it, more than a file name may hold
LONG_INLINE_SPEC = {
    "type": "inline",
    "models": [{"S": 3, "P": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
                "mu": [1, 0, 0]},
               {"S": 3, "P": [[0.1, 0.45, 0.45], [0.45, 0.1, 0.45], [0.45, 0.45, 0.1]],
                "mu": [0, 1, 0]}],
    "alpha": [0.5, 0.5], "shuffle": True, "T": 200, "H": 100,
}

# the README walkthrough's sweep
WALKTHROUGH_SWEEP = {"instance": {"type": "separation", "S_prime": 2}, "T": [40, 60],
                     "H": [200, 400], "delta": [0.1], "lambda": [0.5], "seeds": [1, 2],
                     "c_sigma": 0.15, "c_rho": 2.0}

# two chains that differ in support, so D = D_pi = inf: each trajectory scores
# -inf under the other chain and finitely under its own
SUPPORT_SWEEP = {
    "instance": {"type": "inline", "models": [
        {"S": 3, "P": [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]], "mu": [1, 0, 0]},
        {"S": 3, "P": [[0.5, 0, 0.5], [0.5, 0.5, 0], [0, 0.5, 0.5]], "mu": [1, 0, 0]}]},
    "T": [40], "H": [200], "delta": [0.1], "lambda": [0.5], "seeds": [1],
    "c_sigma": 0.15, "c_rho": 2.0,
}

SWEEP_CFG = {
    "instance": {"type": "separation", "S_prime": 1},
    "T": [24],
    "H": [60, 120],
    "delta": [0.1],
    "lambda": [0.5],
    "seeds": [1, 2, 3],
    "c_sigma": 0.15,
    "c_rho": 2.0,
}


class TestGenerate:
    def test_separation_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"type": "separation", "S_prime": 2,
                                    "T": 100, "H": 1000}))
        rc = main(["generate", str(spec), "--out", str(tmp_path)])
        assert rc == 0
        inst = load_instance(tmp_path / "instance.instance.json")
        assert inst.S == 4 and inst.K == 2 and inst.T == 100 and inst.H == 1000

    def test_random_spec(self, tmp_path):
        spec = json.dumps({"type": "random", "S": 5, "K": 3, "floor": 0.02,
                           "seed": 7, "T": 30, "H": 50})
        rc = main(["generate", spec, "--out", str(tmp_path)])
        assert rc == 0
        inst = load_instance(tmp_path / "instance.instance.json")
        assert inst.K == 3 and inst.S == 5
        # loading revalidates every model, so reaching here means they pass

    def test_malformed_spec_names_field(self, tmp_path, capsys):
        rc = main(["generate", json.dumps({"type": "random", "S": 5, "T": 10, "H": 10}),
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "K" in err and "floor" in err

    @pytest.mark.parametrize("spec", [
        {"type": "inline", "models": []},
        {"type": "random", "S": 5, "K": 0, "floor": 0.02, "seed": 7},
    ], ids=["inline-no-models", "random-K-0"])
    def test_spec_without_models_exits_2(self, tmp_path, capsys, spec):
        # the default alpha, 1/K per model, must not be formed before K is checked
        rc = main(["generate", json.dumps({**spec, "T": 10, "H": 10}), "--out", str(tmp_path)])
        assert rc == 2
        assert "generator spec: an instance needs K >= 2 models" in capsys.readouterr().err
        assert not (tmp_path / "instance.instance.json").exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_non_object_spec_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "spec.json"
        path.write_text("[1]")
        assert main([command, str(path), "--out", str(tmp_path)]) == 2
        assert f"{path} must hold a JSON object, not list" in capsys.readouterr().err

    # the later cases are integers that must not be truncated and flags that
    # must not be read by truthiness
    @pytest.mark.parametrize("key, value", [
        pytest.param("T", "x", id="T"), pytest.param("shuffle_seed", "x", id="shuffle_seed"),
        pytest.param("S", "x", id="S"),
        pytest.param("T", 10.5, id="T-fraction"), pytest.param("S", True, id="S-bool"),
        pytest.param("shuffle", "false", id="shuffle-string"),
        pytest.param("shuffle", 1, id="shuffle-int"),
        pytest.param("floor", "0.05", id="floor-string"),
        pytest.param("floor", True, id="floor-bool"),
        pytest.param("alpha", ["0.5", "0.5"], id="alpha-strings"),
    ])
    def test_wrong_type_spec_field_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "spec.json"
        spec = {"type": "random", "S": 3, "K": 2, "floor": 0.05, "seed": 1, "T": 10, "H": 10}
        path.write_text(json.dumps(dict(spec, **{key: value})))
        assert main(["generate", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path}: field {key!r} has the wrong type" in capsys.readouterr().err
        assert not (tmp_path / "instance.instance.json").exists()

    @pytest.mark.parametrize("key, value", [("shufle", True), ("S_prime", 2), ("lambda", 0.5)])
    def test_unknown_spec_key_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "spec.json"
        spec = {"type": "random", "S": 3, "K": 2, "floor": 0.05, "seed": 1, "T": 10, "H": 10}
        path.write_text(json.dumps(dict(spec, **{key: value})))
        assert main(["generate", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path} has unknown key(s) [{key!r}]" in capsys.readouterr().err
        assert not (tmp_path / "instance.instance.json").exists()

    # numbers given as strings, and flags, which numpy would read as 1.0 and 0.0
    @pytest.mark.parametrize("key, value", [("P", [["0.9", "0.1"], ["0.2", "0.8"]]),
                                            ("mu", ["0.5", "0.5"]), ("mu", [True, False])])
    def test_non_numeric_inline_model_entry_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "spec.json"
        model = {"S": 2, "P": [[0.9, 0.1], [0.2, 0.8]], "mu": [0.5, 0.5], key: value}
        path.write_text(json.dumps({"type": "inline", "models": [model], "T": 10, "H": 10}))
        assert main(["generate", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path} models[0]: field {key!r} has the wrong type" in capsys.readouterr().err
        assert not (tmp_path / "instance.instance.json").exists()

    # weights that do not sum to 1 gave a decoding of 40, 4 and 12 labels at T=10
    @pytest.mark.parametrize("alpha", [[2, 2], [0.1, 0.1], [0.9, 0.3], [math.nan, 1.0],
                                       [math.inf, 0.5]])
    def test_alpha_not_finite_or_not_summing_to_one_exits_2(self, tmp_path, capsys, alpha):
        spec = json.dumps({"type": "separation", "S_prime": 1, "T": 10, "H": 20,
                           "alpha": alpha})
        assert main(["generate", spec, "--out", str(tmp_path)]) == 2
        assert "generator spec: alpha must be finite and sum to 1" in capsys.readouterr().err
        assert not (tmp_path / "instance.instance.json").exists()

    def test_creates_a_missing_nested_out_directory(self, tmp_path):
        spec = json.dumps({"type": "separation", "S_prime": 1, "T": 10, "H": 20})
        out = tmp_path / "new" / "runs"
        assert main(["generate", spec, "--out", str(out)]) == 0
        assert load_instance(out / "instance.instance.json").T == 10

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / below if below else taken
        spec = json.dumps({"type": "separation", "S_prime": 1, "T": 10, "H": 20})
        assert main(["generate", spec, "--out", str(out)]) == 2
        assert f"--out {out} is not a usable directory" in capsys.readouterr().err
        assert taken.read_text() == ""

    # make_instance's checks of T against K and of H name the spec, and keep their type
    @pytest.mark.parametrize("T, H, message", [
        (1, 20, "T=1 < K=2: some cluster must be empty"), (10, 1, "H must be >= 2")])
    def test_T_or_H_out_of_range_names_the_spec(self, tmp_path, capsys, T, H, message):
        spec = json.dumps({"type": "separation", "S_prime": 1, "T": T, "H": H})
        assert main(["generate", spec, "--out", str(tmp_path)]) == 2
        assert f"generator spec: {message}" in capsys.readouterr().err
        assert not (tmp_path / "instance.instance.json").exists()

    def test_T_and_H_come_from_the_spec(self, tmp_path, capsys):
        spec = json.dumps({"type": "separation", "S_prime": 1, "T": 10})
        assert main(["generate", spec, "--out", str(tmp_path)]) == 2
        assert "generator spec lacks key(s) ['H']" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["generate", spec, "--H", "20", "--out", str(tmp_path)])

    def test_unknown_type(self, tmp_path):
        rc = main(["generate", json.dumps({"type": "nope", "T": 10, "H": 10}),
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("model", [
        {"S": 2, "P": [[0.9, 0.1], [math.nan, 0.8]], "mu": [0.5, 0.5]},
        {"S": 2, "P": [[0.9, 0.1], [0.2, 0.8]], "mu": [math.nan, 0.5]},
    ], ids=["P", "mu"])
    def test_non_finite_inline_model_exits_2(self, tmp_path, capsys, model):
        spec = json.dumps({"type": "inline", "models": [model], "T": 10, "H": 10})
        assert main(["generate", spec, "--out", str(tmp_path)]) == 2
        assert "has non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "instance.instance.json").exists()

    @pytest.mark.parametrize("key, value", [("Mu", [1.0, 0.0]), ("pi", [0.5, 0.5])])
    def test_unknown_inline_model_key_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "spec.json"
        model = {"S": 2, "P": [[0.9, 0.1], [0.2, 0.8]], "mu": [0.5, 0.5], key: value}
        path.write_text(json.dumps({"type": "inline", "models": [P2_MODEL, model],
                                    "T": 10, "H": 10}))
        assert main(["generate", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path} models[1] has unknown key(s) [{key!r}]" in capsys.readouterr().err
        assert not (tmp_path / "instance.instance.json").exists()

    def test_inline_model_missing_field_exits_2(self, tmp_path, capsys):
        spec = json.dumps({"type": "inline", "models": [{"S": 2, "P": [[1.0]]}],
                           "T": 10, "H": 10})
        assert main(["generate", spec, "--out", str(tmp_path)]) == 2
        assert "generator spec models[0] lacks key(s) ['mu']" in capsys.readouterr().err

    # an inline spec longer than a file name may be (255 bytes) used to be probed
    # as a path, which raised "File name too long"
    @pytest.mark.parametrize("padding", [0, 4000], ids=["270-bytes", "over-4096-bytes"])
    def test_long_inline_spec_gives_the_instance_of_its_file(self, tmp_path, padding):
        spec = json.dumps(LONG_INLINE_SPEC)
        spec = spec[:-1] + " " * padding + "}"
        assert len(spec) == 270 + padding
        path = tmp_path / "spec.json"
        path.write_text(spec)
        assert main(["generate", spec, "--out", str(tmp_path), "--name", "inline"]) == 0
        assert main(["generate", str(path), "--out", str(tmp_path), "--name", "file"]) == 0
        assert ((tmp_path / "inline.instance.json").read_bytes()
                == (tmp_path / "file.instance.json").read_bytes())

    def test_inline_spec_not_json_exits_2(self, tmp_path, capsys):
        assert main(["generate", "{not json", "--out", str(tmp_path)]) == 2
        assert "generator spec is not valid JSON" in capsys.readouterr().err

    def test_eigensolver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(np.linalg, "eigvalsh", boom)
        spec = json.dumps({"type": "random", "S": 3, "K": 2, "floor": 0.05,
                           "seed": 1, "T": 10, "H": 10})
        assert main(["generate", spec, "--out", str(tmp_path)]) == 3
        assert "eigensolver failed" in capsys.readouterr().err
        assert not (tmp_path / "instance.instance.json").exists()

    # the other numerical failures of model validation, each forced
    @pytest.mark.parametrize("target, name, value, message", [
        pytest.param(np.linalg, "solve", failed_solve, "stationary solve failed",
                     id="stationary-solve"),
        pytest.param(np.linalg, "solve", lambda A, b: np.full(len(b), 1 / len(b)),
                     "stationary solve residual", id="stationary-residual"),
        pytest.param(chains, "pseudo_spectral_gap", lambda *args: math.nan,
                     "gamma_ps * t_mix = nan outside sandwich", id="sandwich"),
        pytest.param(chains, "MIXING_T_MAX", 0, "chain did not mix to 0.25 within t_max=0",
                     id="not-mixed")])
    def test_model_validation_failure_exits_3(self, tmp_path, capsys, monkeypatch, target, name,
                                              value, message):
        monkeypatch.setattr(target, name, value)
        spec = json.dumps({"type": "random", "S": 3, "K": 2, "floor": 0.05,
                           "seed": 1, "T": 10, "H": 10})
        assert main(["generate", spec, "--out", str(tmp_path)]) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err
        assert not (tmp_path / "instance.instance.json").exists()

    def test_state_with_zero_stationary_mass_exits_3(self, tmp_path, capsys):
        # the rows sum to 1 within 1e-12, but the solve sees P[0, 0] - 1 = 0 and
        # gives pi = (1, 0), whose log(1 / pi_min) the sandwich bound would take
        model = {"S": 2, "P": [[1.0, 1e-20], [0.5, 0.5]], "mu": [0.5, 0.5]}
        spec = json.dumps({"type": "inline", "models": [model, P2_MODEL], "T": 10, "H": 10})
        assert main(["generate", spec, "--out", str(tmp_path)]) == 3
        assert ("numerical failure: stationary solve gives state 1 zero mass"
                in capsys.readouterr().err)
        assert not (tmp_path / "instance.instance.json").exists()


class TestPipeline:
    @pytest.fixture
    def instance_file(self, tmp_path):
        spec = json.dumps({"type": "separation", "S_prime": 2, "T": 60, "H": 2500})
        main(["generate", spec, "--out", str(tmp_path)])
        return tmp_path / "instance.instance.json"

    def test_sample_cluster_refine_evaluate(self, tmp_path, instance_file, capsys):
        assert main(["sample", str(instance_file), "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        traj_file = tmp_path / "sample.traj.bin"
        trajs, S, _ = load_trajectories(traj_file)
        assert trajs.T == 60 and S == 4

        assert main(["cluster", str(traj_file), "--instance", str(instance_file),
                     "--delta", "0.1", "--c-sigma", "0.15", "--c-rho", "2.0",
                     "--out", str(tmp_path)]) == 0
        stage1 = json.loads((tmp_path / "cluster.stage1.json").read_text())
        assert stage1["K_hat"] == 2

        assert main(["refine", str(traj_file), str(tmp_path / "cluster.stage1.json"),
                     "--lambda", "0.5", "--out", str(tmp_path)]) == 0
        assert main(["evaluate", "--instance", str(instance_file),
                     str(tmp_path / "cluster.stage1.json"),
                     str(tmp_path / "refine.stage2.json"),
                     "--json-out", str(tmp_path / "eval.json")]) == 0
        evals = json.loads((tmp_path / "eval.json").read_text())
        assert all(0 <= v <= 60 for v in evals.values())
        out = capsys.readouterr().out
        assert "E_T" in out

        nested = tmp_path / "deep" / "x" / "e.json"
        assert main(["evaluate", "--instance", str(instance_file),
                     str(tmp_path / "cluster.stage1.json"), "--json-out", str(nested)]) == 0
        assert json.loads(nested.read_text()) == {
            str(tmp_path / "cluster.stage1.json"): evals[str(tmp_path / "cluster.stage1.json")]}

    def test_refine_with_infinite_lambda_exits_2(self, tmp_path, instance_file, capsys):
        # an infinite smoothing made every kernel entry NaN and relabelled every
        # trajectory to cluster 0 with exit 0
        assert main(["sample", str(instance_file), "--seed", "5", "--out", str(tmp_path)]) == 0
        traj_file = tmp_path / "sample.traj.bin"
        assert main(["cluster", str(traj_file), "--gamma", "1.0", "--c-sigma", "0.15",
                     "--c-rho", "2.0", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["refine", str(traj_file), str(tmp_path / "cluster.stage1.json"),
                     "--lambda", "inf", "--out", str(tmp_path)]) == 2
        assert "smoothing must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "refine.stage2.json").exists()

    def test_evaluate_json_out_naming_a_directory_exits_2(self, tmp_path, instance_file,
                                                          capsys):
        stage1 = tmp_path / "s1.json"
        stage1.write_text(json.dumps({"labels": [1] * 60}))
        assert main(["evaluate", "--instance", str(instance_file), str(stage1),
                     "--json-out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert f"--json-out {tmp_path} is a directory" in err
        assert "E_T" not in out

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_sample_seed_outside_one_philox_key_word_exits_2(self, tmp_path, instance_file,
                                                             capsys, seed):
        # outside [0, 2**64) a seed would alias another's trajectories: 2**64
        # those of seed 0, and -1 those of 2**64 - 1
        assert main(["sample", str(instance_file), "--seed", seed, "--out", str(tmp_path)]) == 2
        assert f"seed must be in [0, 2**64), the range of one Philox key word; got {seed}" \
            in capsys.readouterr().err
        assert not (tmp_path / "sample.traj.bin").exists()

    def test_sample_files_name_the_instance(self, tmp_path):
        # the golden sample: its states as recorded, and a sidecar holding the
        # hash of the instance file it was drawn from
        assert main(["generate", json.dumps(SAMPLE_SPEC), "--out", str(tmp_path)]) == 0
        instance = load_instance(tmp_path / "instance.instance.json")
        assert main(["sample", str(tmp_path / "instance.instance.json"), "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        traj = (tmp_path / "sample.traj.bin").read_bytes()
        assert hashlib.sha256(traj).hexdigest() == \
            json.loads(GOLDEN.read_text())["sample_traj_sha256"]
        sidecar = json.loads((tmp_path / "sample.traj.bin.json").read_text())
        assert sidecar == {"seed": 5, "instance_id": instance.instance_id(), "index_base": 1}

    def test_cluster_rejects_an_instance_the_file_was_not_sampled_from(self, tmp_path,
                                                                        instance_file, capsys):
        # the file's sidecar names its instance; another instance's gamma_ps
        # would set sigma_thres silently
        other = json.dumps({"type": "separation", "S_prime": 2, "T": 60, "H": 2000})
        assert main(["generate", other, "--out", str(tmp_path), "--name", "other"]) == 0
        assert main(["sample", str(instance_file), "--seed", "1", "--out", str(tmp_path)]) == 0
        traj, wrong = tmp_path / "sample.traj.bin", tmp_path / "other.instance.json"
        capsys.readouterr()
        assert main(["cluster", str(traj), "--instance", str(wrong), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{traj} was not sampled from {wrong}" in err
        assert load_instance(instance_file).instance_id() in err
        assert not (tmp_path / "cluster.stage1.json").exists()

    def test_refine_dumps_the_scores_of_its_kernels(self, tmp_path, instance_file):
        assert main(["sample", str(instance_file), "--seed", "5", "--out", str(tmp_path)]) == 0
        traj, stage1_file = tmp_path / "sample.traj.bin", tmp_path / "cluster.stage1.json"
        assert main(["cluster", str(traj), "--gamma", "1.0", "--c-sigma", "0.15",
                     "--c-rho", "2.0", "--out", str(tmp_path)]) == 0
        assert main(["refine", str(traj), str(stage1_file), "--lambda", "0.5",
                     "--dump-loglik", "--out", str(tmp_path)]) == 0
        trajs, S, _ = load_trajectories(traj)
        counts = count_transitions(trajs.states, S)
        stage1 = load_stage1(stage1_file)
        kernels = pool_estimates(counts, stage1.labels, stage1.K_hat, 0.5).kernels
        raw = (tmp_path / "refine.stage2.json.loglik").read_bytes()
        assert len(raw) == 8 * trajs.T * stage1.K_hat
        assert raw == trajectory_loglik(counts, kernels).astype("<f8").tobytes()

    def test_cluster_needs_gamma_source(self, tmp_path, instance_file):
        main(["sample", str(instance_file), "--seed", "1", "--out", str(tmp_path)])
        rc = main(["cluster", str(tmp_path / "sample.traj.bin"), "--out", str(tmp_path)])
        assert rc == 2

    def test_header_S_below_stored_states_exits_2(self, tmp_path, instance_file, capsys):
        main(["sample", str(instance_file), "--seed", "2", "--out", str(tmp_path)])
        good = tmp_path / "sample.traj.bin"
        assert main(["cluster", str(good), "--gamma", "1.0", "--out", str(tmp_path)]) == 0
        trajs, S, _ = load_trajectories(good)
        assert trajs.states.max() == S - 1
        bad = tmp_path / "bad.traj.bin"
        raw = good.read_bytes()
        bad.write_bytes(raw[:8] + struct.pack("<I", S - 1) + raw[12:])  # header S only
        Path(f"{bad}.json").write_text(Path(f"{good}.json").read_text())
        capsys.readouterr()
        assert main(["cluster", str(bad), "--gamma", "1.0", "--out", str(tmp_path),
                     "--name", "bad"]) == 2
        assert main(["refine", str(bad), str(tmp_path / "cluster.stage1.json"),
                     "--out", str(tmp_path), "--name", "bad"]) == 2
        assert capsys.readouterr().err.count("state indices must lie in") == 2
        assert not (tmp_path / "bad.stage1.json").exists()
        assert not (tmp_path / "bad.stage2.json").exists()

    @pytest.mark.parametrize("S", [256, 300])
    def test_zero_in_a_one_based_file_exits_2(self, tmp_path, capsys, S):
        # narrowed before its range check, the 0 would load as state 255 at
        # S = 256 and be counted as that state without an error
        path = tmp_path / "zero.traj.bin"
        raw = np.array([[1, 0, S], [S, 1, 2]], dtype="<u2")
        path.write_bytes(struct.pack("<III", 2, 3, S) + raw.tobytes())
        Path(f"{path}.json").write_text(json.dumps({"seed": 0, "instance_id": "x",
                                                    "index_base": 1}))
        capsys.readouterr()
        assert main(["cluster", str(path), "--gamma", "1.0", "--out", str(tmp_path)]) == 2
        assert f"state indices must lie in [1, {S}]" in capsys.readouterr().err
        assert not (tmp_path / "cluster.stage1.json").exists()

    def test_trajectory_header_with_no_states_exits_2(self, tmp_path, capsys):
        # T = 0 leaves no state for the range check to reject
        path = tmp_path / "empty.traj.bin"
        path.write_bytes(struct.pack("<III", 0, 3, 0))
        Path(f"{path}.json").write_text(json.dumps({"seed": 0, "instance_id": "x",
                                                    "index_base": 1}))
        capsys.readouterr()
        assert main(["cluster", str(path), "--gamma", "1.0", "--out", str(tmp_path)]) == 2
        assert f"{path}: its header has S = 0 states" in capsys.readouterr().err
        assert not (tmp_path / "cluster.stage1.json").exists()

    @pytest.mark.parametrize("command", ["sample", "gaps"])
    @pytest.mark.parametrize("case, message", [
        ("mixed-S", "all models must share the same state space"),
        ("empty-decoding", "an instance needs T >= 1 trajectories"),
        ("one-model", "an instance needs K >= 2 models"),
        ("H-1", "H must be >= 2")], ids=["mixed-S", "empty-decoding", "one-model", "H-1"])
    def test_malformed_instance_file_exits_2(self, tmp_path, instance_file, capsys, command,
                                             case, message):
        doc = json.loads(instance_file.read_text())
        three_states = {"S": 3, "P": [[0.5, 0.25, 0.25]] * 3, "mu": [1, 0, 0]}
        doc.update({"mixed-S": {"models": [doc["models"][0], three_states]},
                    "empty-decoding": {"decoding": [], "T": 0},
                    "one-model": {"models": doc["models"][:1], "decoding": [1] * doc["T"]},
                    "H-1": {"H": 1}}[case])
        path = tmp_path / "bad.instance.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        seed = ["--seed", "0"] if command == "sample" else []
        assert main([command, str(path), *seed, "--out", str(tmp_path)]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, instance_file.name]

    def test_stage1_label_out_of_range_exits_2(self, tmp_path, instance_file, capsys):
        main(["sample", str(instance_file), "--seed", "4", "--out", str(tmp_path)])
        traj = tmp_path / "sample.traj.bin"
        assert main(["cluster", str(traj), "--gamma", "1.0", "--out", str(tmp_path)]) == 0
        path = tmp_path / "cluster.stage1.json"
        doc = json.loads(path.read_text())
        doc["labels"][0] = 0  # stored labels are 1-based
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["refine", str(traj), str(path), "--out", str(tmp_path)]) == 2
        assert (f"{path}: labels must take every value in [1, {doc['K_hat']}]"
                in capsys.readouterr().err)
        assert not (tmp_path / "refine.stage2.json").exists()

    # a label file cut to 10 labels, or one whose labels are all 0 (stored
    # labels are 1-based): evaluate and refine each exit 2 naming the file
    @pytest.mark.parametrize("defect", ["cut", "zeros"])
    @pytest.mark.parametrize("command", ["evaluate", "refine"])
    def test_bad_label_file_exits_2_naming_it(self, tmp_path, instance_file, capsys, command,
                                              defect):
        main(["sample", str(instance_file), "--seed", "4", "--out", str(tmp_path)])
        traj = tmp_path / "sample.traj.bin"
        assert main(["cluster", str(traj), "--gamma", "1.0", "--out", str(tmp_path)]) == 0
        path = tmp_path / "cluster.stage1.json"
        doc = json.loads(path.read_text())
        K_hat = doc["K_hat"]
        # the cut keeps a label of every cluster, so only its length is wrong
        doc["labels"] = [1 + t % K_hat for t in range(10)] if defect == "cut" else [0] * 60
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main({"evaluate": ["evaluate", "--instance", str(instance_file), str(path)],
                     "refine": ["refine", str(traj), str(path), "--out", str(tmp_path)]}
                    [command]) == 2
        out, err = capsys.readouterr()
        assert {("evaluate", "cut"): f"{path} holds 10 labels, not the 60 trajectories "
                                     f"of {instance_file}",
                ("refine", "cut"): f"{path} holds 10 labels, not the 60 trajectories of {traj}",
                ("evaluate", "zeros"): f"{path}: labels are 1-based and must be >= 1; got 0",
                ("refine", "zeros"): f"{path}: labels must take every value in [1, {K_hat}]",
                }[command, defect] in err
        assert "E_T" not in out and not (tmp_path / "refine.stage2.json").exists()

    def test_missing_sidecar_exits_2(self, tmp_path, instance_file, capsys):
        main(["sample", str(instance_file), "--seed", "3", "--out", str(tmp_path)])
        path = tmp_path / "sample.traj.bin"
        Path(f"{path}.json").unlink()
        capsys.readouterr()
        assert main(["cluster", str(path), "--gamma", "1.0", "--out", str(tmp_path)]) == 2
        assert f"{path}.json is missing" in capsys.readouterr().err
        assert not (tmp_path / "cluster.stage1.json").exists()

    # each reader of an input file given a directory; "{bad}" marks it, and the
    # sidecar cases put the directory where the trajectory file's sidecar goes
    @pytest.mark.parametrize("argv", [
        ["gaps", "{bad}", "--out", "{out}"],
        ["sample", "{bad}", "--seed", "1", "--out", "{out}"],
        ["evaluate", "--instance", "{bad}", "{stage1}"],
        ["evaluate", "--instance", "{instance}", "{bad}"],
        ["cluster", "{bad}", "--gamma", "1.0", "--out", "{out}"],
        ["refine", "{bad}", "{stage1}", "--out", "{out}"],
        ["cluster", "{traj}", "--gamma", "1.0", "--out", "{out}"],
        ["refine", "{traj}", "{stage1}", "--out", "{out}"],
        ["refine", "{traj}", "{bad}", "--out", "{out}"],
        ["sweep", "{bad}", "--out", "{out}"],
        ["report", "{bad}", "--out", "{out}"],
        ["generate", "{bad}", "--out", "{out}"],
    ], ids=["gaps-instance", "sample-instance", "evaluate-instance", "evaluate-labels",
            "cluster-trajectories", "refine-trajectories", "cluster-sidecar",
            "refine-sidecar", "refine-stage1", "sweep-config", "report-csv",
            "generate-spec"])
    def test_input_path_naming_a_directory_exits_2(self, tmp_path, instance_file, capsys,
                                                   argv):
        traj, out = tmp_path / "sample.traj.bin", tmp_path / "out"
        assert main(["sample", str(instance_file), "--seed", "3", "--out", str(tmp_path)]) == 0
        assert main(["cluster", str(traj), "--gamma", "1.0", "--out", str(tmp_path)]) == 0
        if "{bad}" in argv:
            bad = tmp_path / "dir"
        else:
            bad = Path(f"{traj}.json")
            bad.unlink()
        bad.mkdir()
        names = {"bad": bad, "out": out, "traj": traj, "instance": instance_file,
                 "stage1": tmp_path / "cluster.stage1.json"}
        capsys.readouterr()
        assert main([arg.format(**names) for arg in argv]) == 2
        assert str(bad) in capsys.readouterr().err

    @staticmethod
    def reader(tmp_path, instance_file, kind) -> tuple[Path, list]:
        """The JSON document of one kind next to a sampled and clustered run,
        and the command line that reads it."""
        main(["sample", str(instance_file), "--seed", "3", "--out", str(tmp_path)])
        traj = tmp_path / "sample.traj.bin"
        assert main(["cluster", str(traj), "--gamma", "1.0", "--out", str(tmp_path)]) == 0
        stage1, out = tmp_path / "cluster.stage1.json", str(tmp_path)
        return {
            "sidecar": (Path(f"{traj}.json"),
                        ["cluster", str(traj), "--gamma", "1.0", "--out", out, "--name", "x"]),
            "stage1": (stage1, ["refine", str(traj), str(stage1), "--out", out]),
            "instance": (instance_file, ["gaps", str(instance_file), "--out", out]),
            "labels": (stage1, ["evaluate", "--instance", str(instance_file), str(stage1)]),
        }[kind]

    @pytest.mark.parametrize("text, message", [
        ("[1]", "must hold a JSON object"), ("{}", "lacks key(s)"),
        ("{not json", "is not valid JSON"),
    ], ids=["list", "empty", "not-json"])
    @pytest.mark.parametrize("kind", ["sidecar", "stage1", "instance", "labels"])
    def test_malformed_json_document_exits_2(self, tmp_path, instance_file, capsys,
                                             kind, text, message):
        bad, argv = self.reader(tmp_path, instance_file, kind)
        bad.write_text(text)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert message in err

    @pytest.mark.parametrize("kind, key", [("sidecar", "seed"), ("stage1", "labels"),
                                           ("instance", "decoding"), ("labels", "labels")])
    def test_wrong_type_field_exits_2(self, tmp_path, instance_file, capsys, kind, key):
        self.assert_field_rejected(tmp_path, instance_file, capsys, kind, key, "x")

    # integers are not truncated and flags are not read by truthiness
    @pytest.mark.parametrize("kind, key, value", [
        ("sidecar", "seed", 3.5), ("sidecar", "index_base", True),
        ("stage1", "labels", [1.5, 2]), ("stage1", "K_hat", 2.5),
        ("stage1", "forced_first_cluster", "false"), ("stage1", "forced_first_cluster", 0),
        ("instance", "decoding", [1, 2.5]), ("instance", "T", 59.5),
        ("labels", "labels", [1.5, 2]), ("labels", "labels", [True, 2]),
        ("labels", "labels", [2**70]),
    ])
    def test_non_integral_or_non_boolean_field_exits_2(self, tmp_path, instance_file, capsys,
                                                       kind, key, value):
        self.assert_field_rejected(tmp_path, instance_file, capsys, kind, key, value)

    def assert_field_rejected(self, tmp_path, instance_file, capsys, kind, key, value):
        bad, argv = self.reader(tmp_path, instance_file, kind)
        bad.write_text(json.dumps(dict(json.loads(bad.read_text()), **{key: value})))
        capsys.readouterr()
        assert main(argv) == 2
        assert f"{bad}: field {key!r} has the wrong type" in capsys.readouterr().err

    # numbers given as strings or flags, which float() or numpy would read
    @pytest.mark.parametrize("key, value", [
        ("sigma_thres", "0.5"), ("sigma_thres", True), ("sigma_thres", None),
        ("singular_values", ["1.0"]), ("singular_values", [True]),
    ])
    def test_non_numeric_stage1_field_exits_2(self, tmp_path, instance_file, capsys,
                                              key, value):
        self.assert_field_rejected(tmp_path, instance_file, capsys, "stage1", key, value)

    @pytest.mark.parametrize("key, value", [("P", "0.25"), ("mu", True)])
    def test_non_numeric_model_entry_names_its_place(self, tmp_path, instance_file, capsys,
                                                     key, value):
        doc = json.loads(instance_file.read_text())
        model = doc["models"][1]
        model[key] = [[value] * model["S"]] * model["S"] if key == "P" else [value] * model["S"]
        instance_file.write_text(json.dumps(doc))
        assert main(["gaps", str(instance_file), "--out", str(tmp_path)]) == 2
        assert f"{instance_file} models[1]: field {key!r} has the wrong type" \
            in capsys.readouterr().err

    def test_unknown_model_key_names_its_place(self, tmp_path, instance_file, capsys):
        doc = json.loads(instance_file.read_text())
        doc["models"][1]["pi"] = [0.25] * doc["models"][1]["S"]
        instance_file.write_text(json.dumps(doc))
        assert main(["gaps", str(instance_file), "--out", str(tmp_path)]) == 2
        assert f"{instance_file} models[1] has unknown key(s) ['pi']" in capsys.readouterr().err

    def test_wrong_type_model_field_names_its_place(self, tmp_path, instance_file, capsys):
        doc = json.loads(instance_file.read_text())
        doc["models"][1]["P"] = [["x"]]
        instance_file.write_text(json.dumps(doc))
        assert main(["gaps", str(instance_file), "--out", str(tmp_path)]) == 2
        assert f"{instance_file} models[1]: field 'P'" in capsys.readouterr().err

    def test_non_integral_model_size_exits_2(self, tmp_path, instance_file, capsys):
        doc = json.loads(instance_file.read_text())
        doc["models"][0]["S"] = 4.5
        instance_file.write_text(json.dumps(doc))
        assert main(["gaps", str(instance_file), "--out", str(tmp_path)]) == 2
        assert f"{instance_file} models[0]: field 'S' has the wrong type" \
            in capsys.readouterr().err

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, instance_file,
                                                       monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr("mmclab.cli.gap_report", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["gaps", str(instance_file), "--out", str(tmp_path)])

    def test_truncated_trajectory_file_exits_2(self, tmp_path, instance_file, capsys):
        main(["sample", str(instance_file), "--seed", "3", "--out", str(tmp_path)])
        path = tmp_path / "sample.traj.bin"
        path.write_bytes(path.read_bytes()[:-1])
        capsys.readouterr()
        assert main(["cluster", str(path), "--gamma", "1.0", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "state bytes" in err and "needs 300000" in err
        assert not (tmp_path / "cluster.stage1.json").exists()

    def test_trajectory_file_with_extra_bytes_exits_2(self, tmp_path, instance_file, capsys):
        main(["sample", str(instance_file), "--seed", "3", "--out", str(tmp_path)])
        path = tmp_path / "sample.traj.bin"
        path.write_bytes(path.read_bytes() + bytes(20))
        capsys.readouterr()
        assert main(["cluster", str(path), "--gamma", "1.0", "--out", str(tmp_path)]) == 2
        assert f"{path} holds 300020 state bytes; its header (T=60, H=2500) needs 300000" \
            in capsys.readouterr().err
        assert not (tmp_path / "cluster.stage1.json").exists()

    def test_gaps_command(self, tmp_path, instance_file, capsys):
        assert main(["gaps", str(instance_file), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "gaps.gaps.json").read_text())
        assert doc["D_pi"] == pytest.approx(math.log(3) / 2, abs=1e-12)
        lines = capsys.readouterr().out.splitlines()
        scalars = [f.name for f in dataclasses.fields(GapReport) if f.type != "np.ndarray"]
        assert [line.split()[0] for line in lines[:-1]] == scalars
        assert lines[-1].startswith("wrote ")

    def test_bounds_command(self, tmp_path):
        out = tmp_path / "b.json"
        rc = main(["bounds", "--eps", "0.01", "--delta", "0.1", "--T", "1000",
                   "--H", "100", "--D", "0.05", "--alpha-min", "0.5",
                   "--gamma", "0.5", "--d-pi", "0.3", "--c-eta", "0.01",
                   "--json-out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["necessary_holds"] is True
        assert doc["predicted_error_rate"] == pytest.approx(
            predicted_error_rate(1000, 100, 0.5, 0.3, 0.01))

    def test_bounds_json_out_creates_its_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "b.json"
        assert main(["bounds", "--eps", "0.01", "--delta", "0.1", "--T", "1000",
                     "--H", "100", "--D", "0.05", "--alpha-min", "0.5",
                     "--json-out", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)

    def test_bounds_json_out_under_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "b.json"
        assert main(["bounds", "--eps", "0.01", "--delta", "0.1", "--T", "1000",
                     "--H", "100", "--D", "0.05", "--alpha-min", "0.5",
                     "--json-out", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert f"--json-out {out} has no usable directory" in err
        assert out_text == ""

    def test_bounds_json_out_naming_a_directory_exits_2(self, tmp_path, capsys):
        assert main(["bounds", "--eps", "0.01", "--delta", "0.1", "--T", "1000",
                     "--H", "100", "--D", "0.05", "--alpha-min", "0.5",
                     "--json-out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert f"--json-out {tmp_path} is a directory" in err
        assert out == ""

    @pytest.mark.parametrize("given, missing", [
        (["--gamma", "0.5"], "--d-pi, --c-eta"),
        (["--d-pi", "0.3", "--c-eta", "0.01"], "--gamma"),
        (["--gamma", "0.5", "--c-eta", "0.01"], "--d-pi"),
    ])
    def test_bounds_with_some_rate_flags_exits_2(self, tmp_path, capsys, given, missing):
        out = tmp_path / "b.json"
        rc = main(["bounds", "--eps", "0.01", "--delta", "0.1", "--T", "1000",
                   "--H", "100", "--D", "0.05", "--alpha-min", "0.5", *given,
                   "--json-out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.rstrip().endswith(f"missing {missing}")
        assert not out.exists()

    def test_bounds_invalid_range_exit_code(self, tmp_path):
        rc = main(["bounds", "--eps", "0.01", "--delta", "0.9", "--T", "10",
                   "--H", "10", "--D", "0.1", "--alpha-min", "0.5"])
        assert rc == 2

    # NaN passes a one-sided range test, so it printed a NaN rate, which is not
    # JSON, or (--D) died in math.ceil; each message names the argument
    @pytest.mark.parametrize("flag, value, message", [
        ("--D", "nan", "D must be finite and >= 0"),
        ("--D", "inf", "D must be finite and >= 0"),
        ("--d-pi", "nan", "D_pi must be finite and >= 0"),
        ("--d-pi", "inf", "D_pi must be finite and >= 0"),
        ("--c-eta", "nan", "C_eta must be finite and > 0"),
        ("--c-eta", "inf", "C_eta must be finite and > 0"),
        ("--c-eta", "0", "C_eta must be finite and > 0"),
    ])
    def test_bounds_nonfinite_or_out_of_range_value_exits_2(self, tmp_path, capsys, flag, value,
                                                            message):
        args = {"--eps": "0.01", "--delta": "0.1", "--T": "1000", "--H": "100", "--D": "0.05",
                "--alpha-min": "0.5", "--gamma": "0.5", "--d-pi": "0.3", "--c-eta": "0.01"}
        args[flag] = value
        out = tmp_path / "b.json"
        assert main(["bounds", *[x for kv in args.items() for x in kv],
                     "--json-out", str(out)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.exists()


class TestSweep:
    def test_rows_and_determinism(self, tmp_path):
        text1 = run_sweep(dict(SWEEP_CFG), jobs=1)
        text2 = run_sweep(dict(SWEEP_CFG), jobs=1)
        lines = text1.strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 2 * 3  # |H| * |seeds|
        assert strip_walltime(text1) == strip_walltime(text2)

    @given(T=st.integers(8, 40), H=st.integers(20, 150),
           seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=3, unique=True))
    @settings(max_examples=5, deadline=None)
    def test_worker_count_invariance(self, T, H, seeds):
        # every point is sampled from its own (seed, t) streams, so the worker
        # that runs it cannot change its row; only wall_time_s may differ
        cfg = dict(SWEEP_CFG, T=[T], H=[H, 2 * H], seeds=seeds)
        one = strip_walltime(run_sweep(cfg, jobs=1)).splitlines()
        two = strip_walltime(run_sweep(cfg, jobs=2)).splitlines()
        assert len(one) == 1 + 2 * len(seeds)
        assert one == two

    # fork copies the parent, where spawn and forkserver start each worker from
    # a fresh interpreter; a fresh interpreter here too, as the start method
    # can be set once per process
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_rows_do_not_depend_on_the_start_method(self, tmp_path, method):
        code = f"""
            import json, multiprocessing
            from mmclab.cli import run_sweep
            multiprocessing.set_start_method({method!r})
            print(json.dumps(run_sweep({WALKTHROUGH_SWEEP!r}, jobs=2)))
        """
        assert (strip_walltime(run_fresh(code, tmp_path))
                == strip_walltime(run_sweep(WALKTHROUGH_SWEEP, jobs=1)))

    def test_pool_workers_pin_the_mmap_threshold(self, monkeypatch):
        initializers = []

        def recording(*args, **kwargs):
            initializers.append(kwargs.get("initializer"))
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recording)
        run_sweep(dict(SWEEP_CFG, H=[60], seeds=[1, 2]), jobs=2)
        assert initializers == [memory.pin_mmap_threshold]

    # a spawned worker inherits no mallopt setting from the parent, so it holds
    # the threshold only if the pool's initializer sets it
    @pytest.mark.skipif(not HAS_MALLINFO2, reason="mallinfo2 is glibc's")
    def test_spawned_workers_keep_large_arrays_out_of_the_heap(self, monkeypatch):
        added = []

        class Spawning(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, mp_context=multiprocessing.get_context("spawn"),
                                 **kwargs)

            def map(self, fn, *iterables, **kwargs):
                added.append(self.submit(mapped_blocks_after_a_free).result())
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Spawning)
        run_sweep(dict(SWEEP_CFG, H=[60], seeds=[1]), jobs=2)
        assert added == [1]

    def test_counts_computed_once_per_point(self, monkeypatch):
        import mmclab.cli as cli_mod

        calls = []
        original = cli_mod.count_transitions

        def counting(states, S):
            calls.append(states.shape)
            return original(states, S)

        monkeypatch.setattr(cli_mod, "count_transitions", counting)
        run_sweep(dict(SWEEP_CFG), jobs=1)
        assert sorted(calls) == sorted((24, H) for H in SWEEP_CFG["H"]
                                       for _ in SWEEP_CFG["seeds"])

    @staticmethod
    def divergence_calls(monkeypatch, cfg) -> dict:
        """Calls of each divergence the sweep of ``cfg`` makes, by name."""
        import mmclab.cli as cli_mod

        calls = {}
        for name in ("divergence_D", "divergence_D_pi", "delta_W_sq"):
            def counting(*args, _name=name, _original=getattr(cli_mod, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)
            monkeypatch.setattr(cli_mod, name, counting)
        run_sweep(cfg, jobs=1)
        return calls

    def test_divergences_computed_once_per_instance(self, monkeypatch):
        # D depends on the horizon, D_pi and delta_W_sq on the models alone
        calls = self.divergence_calls(monkeypatch, dict(SWEEP_CFG, **{"lambda": [0.0, 0.5]}))
        assert calls == {"divergence_D": len(SWEEP_CFG["H"]), "divergence_D_pi": 1,
                         "delta_W_sq": 1}

    def test_D_computed_once_per_horizon(self, monkeypatch):
        # D reads the models and H alone, so the instances of two T values
        # at one H share it: two calls for four (T, H) instances
        calls = self.divergence_calls(monkeypatch, dict(SWEEP_CFG, T=[24, 30], seeds=[1]))
        assert calls == {"divergence_D": 2, "divergence_D_pi": 1, "delta_W_sq": 1}

    def test_sweep_never_hashes_the_instance(self, monkeypatch):
        def no_hash(self):
            raise AssertionError("the sweep hashed the instance")

        monkeypatch.setattr(MixtureInstance, "instance_id", no_hash)
        text = run_sweep(dict(SWEEP_CFG, H=[60], seeds=[1]), jobs=1)
        assert len(text.strip().splitlines()) == 2

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_fail_before_any_point(self, tmp_path, capsys, no_work, jobs):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SWEEP_CFG))
        assert main(["sweep", str(path), "--jobs", str(jobs), "--out", str(tmp_path)]) == 2
        assert f"jobs must be >= 1; got {jobs}" in capsys.readouterr().err
        assert no_work == []
        assert not (tmp_path / "run.sweep.csv").exists()

    @pytest.mark.parametrize("seeds", [[0, 2**64], [-1, 2]])
    def test_seeds_outside_one_philox_key_word_fail_before_any_point(self, tmp_path, capsys,
                                                                      no_work, seeds):
        # distinct seeds, yet 2**64 would repeat the rows of seed 0
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(SWEEP_CFG, seeds=seeds)))
        assert main(["sweep", str(path), "--jobs", "2", "--out", str(tmp_path)]) == 2
        bad = next(seed for seed in seeds if not 0 <= seed < 2**64)
        assert (f"{path}: seed must be in [0, 2**64), the range of one Philox key word; "
                f"got {bad}") in capsys.readouterr().err
        assert no_work == []
        assert not (tmp_path / "run.sweep.csv").exists()

    # a repeated value would repeat every row it is in; values compare as read,
    # so 24 and 24.0 are one T
    @pytest.mark.parametrize("axis, values, read", [
        pytest.param(axis, values, read, id=axis) for axis, values, read in [
            ("T", [24, 24.0], [24, 24]), ("H", [60, 120, 60], [60, 120, 60]),
            ("delta", [0.1, 0.1], [0.1, 0.1]), ("lambda", [0.5, 0.5], [0.5, 0.5]),
            ("seeds", [1, 2, 1], [1, 2, 1])]])
    def test_repeated_axis_value_rejected(self, tmp_path, capsys, no_work, axis, values, read):
        cfg = dict(SWEEP_CFG, **{axis: values})
        message = f"axis {axis!r} repeats a value; got {read}"
        with pytest.raises(InputError, match=re.escape(f"sweep config: {message}")):
            run_sweep(cfg, jobs=1)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", str(path), "--jobs", "2", "--out", str(tmp_path)]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert no_work == []
        assert not (tmp_path / "run.sweep.csv").exists()

    def test_gamma_override_lands_in_rows(self):
        cfg = dict(SWEEP_CFG)
        cfg["gamma"] = 0.3
        cfg["H"] = [60]
        cfg["seeds"] = [1]
        text = run_sweep(cfg, jobs=1)
        row = dict(zip(SWEEP_COLUMNS, text.strip().splitlines()[1].split(",")))
        assert float(row["gamma_ps"]) == 0.3

    @STAGE1_EIGEN_FAILURES
    def test_eigensolver_failure_in_stage1_exits_3(self, tmp_path, capsys, monkeypatch,
                                                   module, name, breaker, n):
        # 2 S' = sqrt(n) states and T = 40 >= n trajectories give an n x n Gram matrix
        spec = json.dumps({"type": "separation", "S_prime": math.isqrt(n) // 2, "T": 40,
                           "H": 20})
        main(["generate", spec, "--out", str(tmp_path)])
        main(["sample", str(tmp_path / "instance.instance.json"), "--seed", "1",
              "--out", str(tmp_path)])

        monkeypatch.setattr(module, name, breaker(getattr(module, name)))
        capsys.readouterr()
        assert main(["cluster", str(tmp_path / "sample.traj.bin"), "--gamma", "1.0",
                     "--out", str(tmp_path)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not (tmp_path / "cluster.stage1.json").exists()

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import mmclab.cli as cli_mod

        spec = json.dumps({"type": "separation", "S_prime": 1, "T": 10, "H": 20})
        main(["generate", spec, "--out", str(tmp_path)])
        main(["sample", str(tmp_path / "instance.instance.json"), "--seed", "1",
              "--out", str(tmp_path)])

        def boom(*_args, **_kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli_mod, "spectral_cluster", boom)
        rc = main(["cluster", str(tmp_path / "sample.traj.bin"),
                   "--instance", str(tmp_path / "instance.instance.json"),
                   "--out", str(tmp_path)])
        assert rc == 3

    def test_zero_probability_transition_in_oracle_exits_3(self, tmp_path, capsys,
                                                           monkeypatch):
        # trajectory 0 alternates 0 -> 1 -> 0: the up chain of SUPPORT_SWEEP
        # forbids 1 -> 0 and the down chain 0 -> 1, so the oracle scores it -inf
        # under both, while stage 2's smoothed kernels score it finitely
        sample = simgen.sample_trajectories

        def forbidden(instance, seed):
            trajs = sample(instance, seed)
            states = trajs.states.copy()
            states[0] = np.arange(instance.H) % 2
            return dataclasses.replace(trajs, states=states)

        monkeypatch.setattr(simgen, "sample_trajectories", forbidden)
        path = tmp_path / "support.json"
        path.write_text(json.dumps(SUPPORT_SWEEP))
        assert main(["sweep", str(path), "--out", str(tmp_path)]) == 3
        assert ("numerical failure: every model assigns probability 0 to a transition of one "
                "trajectory" in capsys.readouterr().err)
        assert not (tmp_path / "run.sweep.csv").exists()

    def test_cli_roundtrip_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(SWEEP_CFG))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path)]) == 0
        csv_path = tmp_path / "run.sweep.csv"
        assert csv_path.exists()
        assert main(["report", str(csv_path), "--c-eta", "0.5",
                     "--out", str(tmp_path)]) == 0
        report = (tmp_path / "summary.report.csv").read_text().strip().splitlines()
        assert len(report) == 1 + 2  # one line per (T, H, delta, lambda) group
        header = report[0].split(",")
        row = dict(zip(header, report[1].split(",")))
        assert int(row["n_seeds"]) == 3
        # the envelope column delegates to predicted_error_rate at the group's values
        rows = (tmp_path / "run.sweep.csv").read_text().strip().splitlines()[1:]
        first = dict(zip(SWEEP_COLUMNS, rows[0].split(",")))
        expected = predicted_error_rate(int(first["T"]), int(first["H"]),
                                 float(first["gamma_ps"]), float(first["D_pi"]), 0.5)
        assert float(row["predicted_envelope"]) == pytest.approx(expected, rel=1e-9)

    def test_chains_differing_in_support_sweep_and_report(self, tmp_path):
        cfg_path = tmp_path / "support.json"
        cfg_path.write_text(json.dumps(SUPPORT_SWEEP))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path)]) == 0
        row = dict(zip(SWEEP_COLUMNS, (tmp_path / "run.sweep.csv").read_text()
                       .splitlines()[1].split(",")))
        assert (row["D"], row["D_pi"], row["K_hat"]) == ("inf", "inf", "2")
        assert row["e_t_stage1"] == row["e_t_stage2"] == row["e_t_oracle"] == "0"
        # T exp(-C gamma H D_pi) at D_pi = +inf is its limit, 0
        assert main(["report", str(tmp_path / "run.sweep.csv"), "--out", str(tmp_path)]) == 0
        report = (tmp_path / "summary.report.csv").read_text().splitlines()
        assert dict(zip(report[0].split(","), report[1].split(",")))["predicted_envelope"] \
            == "0.0"

    def test_single_row_report_mean_equals_row(self, tmp_path):
        cfg = dict(SWEEP_CFG)
        cfg["H"] = [60]
        cfg["seeds"] = [1]
        text = run_sweep(cfg, jobs=1)
        csv_path = tmp_path / "one.sweep.csv"
        csv_path.write_text(text)
        assert main(["report", str(csv_path), "--out", str(tmp_path)]) == 0
        report = (tmp_path / "summary.report.csv").read_text().strip().splitlines()
        header = report[0].split(",")
        row = dict(zip(header, report[1].split(",")))
        src = dict(zip(SWEEP_COLUMNS, text.strip().splitlines()[1].split(",")))
        assert float(row["mean_err_stage2"]) == pytest.approx(
            int(src["e_t_stage2"]) / int(src["T"]))

    # the flag is checked before any CSV is read, here one that does not exist
    @pytest.mark.parametrize("c_eta", ["0", "-1", "nan", "inf"])
    def test_report_c_eta_not_positive_and_finite_exits_2(self, tmp_path, capsys, c_eta):
        out = tmp_path / "out"
        assert main(["report", str(tmp_path / "missing.csv"), "--c-eta", c_eta,
                     "--out", str(out)]) == 2
        assert f"--c-eta must be finite and > 0; got {float(c_eta)}" in capsys.readouterr().err
        assert not out.exists()

    # the same CSV twice would count each seed twice and shrink the interval
    def test_report_repeated_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.sweep.csv"
        path.write_text(run_sweep(dict(SWEEP_CFG, H=[60], seeds=[1, 2]), jobs=1))
        assert main(["report", str(path), str(path), "--out", str(tmp_path)]) == 2
        assert (f"{path} row 1 repeats the (T, H, delta, lambda, seed) of {path} row 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "summary.report.csv").exists()

    def test_report_input_without_sweep_columns_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("T,H\n10,20\n")
        assert main(["report", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "e_t_stage1" in err

    def test_report_input_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"T,H\n\xff\xfe\n")
        assert main(["report", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path} is not a text file" in capsys.readouterr().err
        assert not (tmp_path / "summary.report.csv").exists()

    def test_report_row_shorter_than_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short_row.csv"
        path.write_text(",".join(SWEEP_COLUMNS) + "\n10,20\n")
        assert main(["report", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "row 1" in err

    # a zero T would divide the error counts by zero before the envelope's check
    @pytest.mark.parametrize("column, value", [("T", 0), ("H", 0), ("T", -3)])
    def test_report_T_or_H_below_one_exits_2(self, tmp_path, capsys, column, value):
        path = tmp_path / "zero.csv"
        text = run_sweep(dict(SWEEP_CFG, H=[60], seeds=[1]), jobs=1)
        header, row = text.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")), **{column: str(value)})
        path.write_text(header + "\n" + ",".join(fields.values()) + "\n")
        assert main(["report", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path} row 1: {column} must be >= 1; got {value}" in capsys.readouterr().err
        assert not (tmp_path / "summary.report.csv").exists()

    # the envelope's inputs, checked where the row is parsed (a +inf D_pi, of
    # chains that differ in support, is valid: see the support sweep's report)
    @pytest.mark.parametrize("column, value, message", [
        pytest.param("gamma_ps", "0.0", "gamma_ps must be in (0, 1]; got 0.0", id="gamma_ps-0"),
        pytest.param("gamma_ps", "1.5", "gamma_ps must be in (0, 1]; got 1.5",
                     id="gamma_ps-above-1"),
        pytest.param("gamma_ps", "nan", "gamma_ps must be in (0, 1]; got nan", id="gamma_ps-nan"),
        pytest.param("D_pi", "nan", "D_pi must be >= 0 and not NaN; got nan", id="D_pi-nan"),
        pytest.param("D_pi", "-0.5", "D_pi must be >= 0 and not NaN; got -0.5",
                     id="D_pi-negative")])
    def test_report_envelope_input_out_of_range_exits_2(self, tmp_path, capsys, column, value,
                                                        message):
        path = tmp_path / "envelope.csv"
        text = run_sweep(dict(SWEEP_CFG, H=[60], seeds=[1]), jobs=1)
        header, row = text.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")), **{column: value})
        path.write_text(header + "\n" + ",".join(fields.values()) + "\n")
        assert main(["report", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path} row 1: {message}" in capsys.readouterr().err
        assert not (tmp_path / "summary.report.csv").exists()

    def test_report_wrong_type_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        text = run_sweep(dict(SWEEP_CFG, H=[60], seeds=[1]), jobs=1)
        header, row = text.strip().splitlines()
        path.write_text(header + "\n" + ",".join(["x"] + row.split(",")[1:]) + "\n")
        assert main(["report", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path} row 1: field 'T' has the wrong type" in capsys.readouterr().err

    # the pytest.param cases are integers that must not be truncated and flags
    # that must not be read by truthiness; alpha, shuffle and shuffle_seed
    # belong to the instance spec, which errors name as "<config> instance"
    @pytest.mark.parametrize("key, value", [
        ("T", ["x"]), ("seeds", 3), ("c_sigma", "x"),
        pytest.param("instance.alpha", "x", id="alpha-x"),
        pytest.param("T", [24.7], id="T-fraction"), pytest.param("seeds", [True], id="seeds-bool"),
        pytest.param("instance.shuffle_seed", 0.5, id="shuffle_seed-fraction"),
        pytest.param("instance.shuffle", "false", id="shuffle-string"),
        pytest.param("c_sigma", "0.15", id="c_sigma-numeric-string"),
        pytest.param("c_rho", True, id="c_rho-bool"),
        pytest.param("gamma", "0.3", id="gamma-numeric-string"),
        pytest.param("delta", ["0.1"], id="delta-numeric-string"),
        pytest.param("lambda", ["0.5"], id="lambda-numeric-string"),
        pytest.param("lambda", [None], id="lambda-null"),
        pytest.param("instance.alpha", ["0.5", "0.5"], id="alpha-numeric-strings"),
    ])
    def test_sweep_config_wrong_type_field_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(with_field({**SWEEP_CFG, "H": [60], "seeds": [1]}, key, value)))
        assert main(["sweep", str(path), "--out", str(tmp_path)]) == 2
        assert f"{field_place(path, key)} has the wrong type" in capsys.readouterr().err
        assert not (tmp_path / "run.sweep.csv").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("key, value", [
        ("gamma", "x"), ("c_rho", "x"),
        pytest.param("instance.shuffle_seed", 0.5, id="shuffle_seed-0.5"),
    ])
    def test_bad_point_field_fails_before_any_point(self, tmp_path, capsys, no_work,
                                                    key, value, jobs):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(with_field(SWEEP_CFG, key, value)))
        assert main(["sweep", str(path), "--jobs", str(jobs), "--out", str(tmp_path)]) == 2
        assert f"{field_place(path, key)} has the wrong type" in capsys.readouterr().err
        assert no_work == []

    @pytest.mark.parametrize("axis", ["T", "H", "delta", "lambda", "seeds"])
    def test_empty_axis_fails_before_any_point(self, tmp_path, capsys, no_work, axis):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**SWEEP_CFG, axis: []}))
        assert main(["sweep", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path} needs a nonempty axis {axis!r}" in capsys.readouterr().err
        assert no_work == []

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("key, value", [
        ("delta", [0.1, 1.0]), ("gamma", 0.0), ("c_sigma", -0.5), ("c_rho", 0),
        ("lambda", [0.5, -0.5]), pytest.param("c_sigma", math.nan, id="c_sigma-nan"),
    ])
    def test_out_of_range_constant_fails_before_any_point(self, tmp_path, capsys, no_work,
                                                          key, value, jobs):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**SWEEP_CFG, key: value}))
        assert main(["sweep", str(path), "--jobs", str(jobs), "--out", str(tmp_path)]) == 2
        assert f"{path}: {key} must be" in capsys.readouterr().err
        assert no_work == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_infinite_lambda_fails_before_any_point(self, tmp_path, capsys, no_work, jobs):
        # JSON has no infinity, but 1e999 reads as one
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**SWEEP_CFG, "lambda": [0.5, 7.25]}).replace("7.25", "1e999"))
        assert main(["sweep", str(path), "--jobs", str(jobs), "--out", str(tmp_path)]) == 2
        assert f"{path}: lambda must be finite and >= 0" in capsys.readouterr().err
        assert no_work == []

    # a misspelt constant, and the keys that moved into the instance spec or
    # went: a key the sweep does not read must not pass silently
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("key, value", [("c_sgima", 0.01), ("use_initial", True),
                                            ("shuffle", True)])
    def test_unknown_key_fails_before_any_point(self, tmp_path, capsys, no_work,
                                                key, value, jobs):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**SWEEP_CFG, key: value}))
        assert main(["sweep", str(path), "--jobs", str(jobs), "--out", str(tmp_path)]) == 2
        assert f"{path} has unknown key(s) [{key!r}]" in capsys.readouterr().err
        assert no_work == []

    # T and H are the sweep's axes, and a misspelt key must not pass silently
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("key, value", [("T", 99), ("H", 20), ("shufle", True)])
    def test_unknown_instance_key_fails_before_any_point(self, tmp_path, capsys, no_work,
                                                         key, value, jobs):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(with_field(SWEEP_CFG, f"instance.{key}", value)))
        assert main(["sweep", str(path), "--jobs", str(jobs), "--out", str(tmp_path)]) == 2
        assert f"{path} instance has unknown key(s) [{key!r}]" in capsys.readouterr().err
        assert no_work == []

    @pytest.mark.parametrize("spec, message", [
        ({"type": "random", "S": 3, "K": 2}, "instance lacks key(s) ['floor', 'seed']"),
        ({"type": "inline", "models": [P2_MODEL, dict(P2_MODEL, Mu=[1.0, 0.0])]},
         "instance models[1] has unknown key(s) ['Mu']"),
        ({"type": "separation"}, "instance lacks key(s) ['S_prime']"),
        ({"type": "nope"}, "instance: unknown instance spec type 'nope'"),
        ({"type": "separation", "S_prime": 1, "alpha": [1.0]},
         "instance: field 'alpha' needs 2 entries, one per model"),
        ({"type": "separation", "S_prime": 1, "alpha": [2, 2]},
         "instance: alpha must be finite and sum to 1; got [2.0, 2.0]"),
        ({"type": "separation", "S_prime": 1, "alpha": [0.1, 0.1]},
         "instance: alpha must be finite and sum to 1; got [0.1, 0.1]"),
        ({"type": "separation", "S_prime": 1, "alpha": [0.9, 0.3]},
         "instance: alpha must be finite and sum to 1; got [0.9, 0.3]"),
        ({"type": "separation", "S_prime": 1, "alpha": [math.nan, 1.0]},
         "instance: alpha must be finite and sum to 1; got [nan, 1.0]"),
    ], ids=["random-missing", "inline-model-unknown-key", "separation-missing",
            "unknown-type", "alpha-length", "alpha-2-2", "alpha-0.1-0.1", "alpha-0.9-0.3",
            "alpha-nan"])
    def test_bad_instance_spec_fails_before_any_point(self, tmp_path, capsys, no_work,
                                                      spec, message):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**SWEEP_CFG, "instance": spec}))
        assert main(["sweep", str(path), "--jobs", "2", "--out", str(tmp_path)]) == 2
        assert f"{path} {message}" in capsys.readouterr().err
        assert no_work == []

    # T and H are sweep axes that make_instance checks; the error names the config
    @pytest.mark.parametrize("key, value, message", [
        pytest.param("T", [1], "T=1 < K=2: some cluster must be empty", id="T"),
        pytest.param("H", [1], "H must be >= 2", id="H")])
    def test_T_or_H_out_of_range_fails_before_any_point(self, tmp_path, capsys, no_work,
                                                        key, value, message):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**SWEEP_CFG, key: value}))
        assert main(["sweep", str(path), "--jobs", "2", "--out", str(tmp_path)]) == 2
        assert f"{path} instance: {message}" in capsys.readouterr().err
        with pytest.raises(InputError, match=re.escape(f"{path} instance: {message}")):
            run_sweep({**SWEEP_CFG, key: value}, where=str(path))
        assert no_work == []

    def test_creates_a_missing_nested_out_directory(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**SWEEP_CFG, "H": [60], "seeds": [1]}))
        out = tmp_path / "new" / "dir"
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        assert len((out / "run.sweep.csv").read_text().splitlines()) == 2

    def test_out_naming_a_file_fails_before_any_point(self, tmp_path, capsys, no_work):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SWEEP_CFG))
        assert main(["sweep", str(path), "--jobs", "2", "--out", str(path)]) == 2
        assert f"--out {path} is not a usable directory" in capsys.readouterr().err
        assert no_work == []

    def test_shuffled_spec_gives_the_generated_instance(self, tmp_path, monkeypatch):
        import mmclab.cli as cli_mod

        spec = {"type": "random", "S": 3, "K": 2, "floor": 0.05, "seed": 1,
                "shuffle": True, "shuffle_seed": 4}
        assert main(["generate", json.dumps(dict(spec, T=12, H=20)),
                     "--out", str(tmp_path)]) == 0
        generated = load_instance(tmp_path / "instance.instance.json")
        swept = []
        original = cli_mod.simgen.sample_trajectories

        def capturing(instance, seed):
            swept.append(instance)
            return original(instance, seed)

        monkeypatch.setattr(cli_mod.simgen, "sample_trajectories", capturing)
        run_sweep({**SWEEP_CFG, "instance": spec, "T": [12], "H": [20], "seeds": [1]})
        assert len(swept) == 1
        np.testing.assert_array_equal(swept[0].decoding, generated.decoding)
        assert not np.array_equal(generated.decoding, np.sort(generated.decoding))
        for got, want in zip(swept[0].models, generated.models):
            np.testing.assert_array_equal(got.P, want.P)
            np.testing.assert_array_equal(got.mu, want.mu)

    def test_models_generated_once_per_sweep(self, monkeypatch):
        import mmclab.cli as cli_mod

        calls = []
        original = cli_mod.simgen.gen_random_ergodic

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli_mod.simgen, "gen_random_ergodic", counting)
        spec = {"type": "random", "S": 3, "K": 2, "floor": 0.05, "seed": 1}
        run_sweep({**SWEEP_CFG, "instance": spec, "T": [12, 16], "H": [20], "seeds": [1, 2]})
        assert len(calls) == 2  # K, not one set per point

    def test_empty_report_input(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(SWEEP_COLUMNS) + "\n")
        rc = main(["report", str(empty), "--out", str(tmp_path)])
        assert rc == 2


def test_input_and_numerical_errors_are_the_only_package_errors():
    # main maps InputError to exit 2 and NumericalError to exit 3, and has no
    # handler for the base class: nothing raises it, and no third kind exists;
    # no caller tells two kinds of input or numerical error apart, so neither
    # type has subclasses
    assert MMCLabError.__subclasses__() == [InputError, NumericalError]
    assert InputError.__subclasses__() == []
    assert NumericalError.__subclasses__() == []


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the threshold is glibc's")
def test_main_keeps_large_arrays_out_of_the_heap(tmp_path):
    # freeing the 8 MiB array would lift glibc's mmap threshold to 8 MiB, so the
    # 1 MiB array after it would come from the heap; main holds the threshold
    # at 128 KiB, so it gets a mapping of its own. A fresh interpreter, since
    # the threshold belongs to the process.
    code = """
        import ctypes, numpy as np
        from mmclab.cli import main

        class MallInfo2(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in
                        ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                         "fsmblks", "uordblks", "fordblks", "keepcost")]

        mallinfo2 = ctypes.CDLL(None).mallinfo2
        mallinfo2.restype = MallInfo2
        assert main(["bounds", "--eps", "0.1", "--delta", "0.1", "--T", "10", "--H", "20",
                     "--D", "0.5", "--alpha-min", "0.5"]) == 0
        big = np.ones(1 << 20)
        del big
        mapped = mallinfo2().hblkhd
        small = np.ones(1 << 17)
        print(mallinfo2().hblkhd - mapped)
    """
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) >= 1 << 20


def test_warm_sweep_point_leaves_no_cyclic_garbage(tmp_path, capsys):
    # a sweep point through main, as the benchmark runs it: after a first call
    # has built the parser and imported what the point needs, a call must
    # leave nothing that only the cyclic collector can free
    config = tmp_path / "point.json"
    config.write_text(json.dumps(dict(SWEEP_CFG, H=[60], seeds=[1])))
    argv = ["sweep", str(config), "--out", str(tmp_path)]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
