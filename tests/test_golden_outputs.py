"""Output identity: two tiny sweeps, one sampled trajectory file, the gap
checks of random chain pairs and one gap report against values recorded in
``tests/data/golden_outputs.json``.

The sweep rows are compared without ``wall_time_s``; the trajectory file by
the sha256 of its bytes; the gap checks as ``repr`` strings. A change that
moves any sampled state, label, error count, divergence, gap or stage-1
figure fails here.
"""

import hashlib
import json
from pathlib import Path

from mmclab import check_gap_inequalities, gen_random_ergodic
from mmclab.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_outputs.json"

# stage-1 constants at which stage 1 does not collapse to one cluster, so that
# K_hat, R_hat and the error counts vary with the sampled states
SWEEPS = {
    "separation": {"instance": {"type": "separation", "S_prime": 2},
                   "T": [40], "H": [400], "c_sigma": 0.05, "c_rho": 0.02},
    "random": {"instance": {"type": "random", "S": 6, "K": 3, "floor": 0.02, "seed": 3},
               "T": [60], "H": [200], "c_sigma": 0.05, "c_rho": 0.1},
}
SAMPLE_SPEC = {"type": "random", "S": 6, "K": 3, "floor": 0.02, "seed": 3,
               "T": 60, "H": 200, "shuffle": True, "shuffle_seed": 4}
GAP_PAIRS = 14  # two cycles of S over 2..8


def gap_rows() -> list[str]:
    """The gap checks of the first GAP_PAIRS pairs that ``scripts/run_gap_sweep.py``
    draws at its defaults (seed 40000, S from 2 to 8, floor 1/(4S))."""
    rows = []
    for i in range(GAP_PAIRS):
        S = 2 + i % 7
        models = [gen_random_ergodic(S, 40_000 + 13 * i + j, 1 / (4 * S)) for j in range(2)]
        rows += [repr(chk) for chk in check_gap_inequalities(models)]
    return rows


def golden_outputs(out: Path) -> dict:
    """Run the sweeps and the sample through the CLI, writing into ``out``."""
    doc = {}
    for name, axes in SWEEPS.items():
        config = out / f"{name}.json"
        config.write_text(json.dumps(dict(axes, delta=[0.1], seeds=[0, 1, 2],
                                          **{"lambda": [0.0, 0.5]})))
        assert main(["sweep", str(config), "--out", str(out), "--name", name]) == 0
        lines = (out / f"{name}.sweep.csv").read_text().splitlines()
        doc[name] = [line.rsplit(",", 1)[0] for line in lines]  # drop wall_time_s
    assert main(["generate", json.dumps(SAMPLE_SPEC), "--out", str(out)]) == 0
    assert main(["sample", str(out / "instance.instance.json"), "--seed", "5",
                 "--out", str(out)]) == 0
    doc["sample_traj_sha256"] = hashlib.sha256((out / "sample.traj.bin").read_bytes()).hexdigest()
    assert main(["gaps", str(out / "instance.instance.json"), "--out", str(out)]) == 0
    doc["sample_gaps"] = json.loads((out / "gaps.gaps.json").read_text())
    doc["gap_rows"] = gap_rows()
    return doc


def test_outputs_match_recorded(tmp_path):
    assert golden_outputs(tmp_path) == json.loads(GOLDEN.read_text())
