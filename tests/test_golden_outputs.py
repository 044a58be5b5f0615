"""Output identity: two tiny sweeps and one sampled trajectory file against
values recorded in ``tests/data/golden_outputs.json``.

The sweep rows are compared without ``wall_time_s``; the trajectory file by
the sha256 of its bytes. A change that moves any sampled state, label, error
count, divergence or stage-1 figure fails here.
"""

import hashlib
import json
from pathlib import Path

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
    return doc


def test_outputs_match_recorded(tmp_path):
    assert golden_outputs(tmp_path) == json.loads(GOLDEN.read_text())
