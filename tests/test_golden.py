"""Golden answers of the warm l1 sweep, bit for bit.

security_index is run on every unprotected meter of a few seeded protected
42-bus flow-only grids (conftest.mesh_grid), and a sha256 is taken over
each meter's (index, sorted touched, delta_z, delta_theta), floats by
repr; the 320 targets take about 0.3 s.  The digest was captured before
the sweep's per-target path was reworked for speed; any change of pivot
rule, witness or scaling shows here, so kernel work must keep it or say
why it moved.
"""
import hashlib

from gridsec import security_index
from gridsec.errors import InfeasibleIndex

from conftest import mesh_grid

SEEDS = (1, 2, 3, 4)
GOLDEN = "fec2e21b26031b8e41c28bb9eb28d9a071d0fbe7a11e8b097ffc50dd759c3673"


def _answers():
    out = []
    for seed in SEEDS:
        net, meas = mesh_grid(seed)
        for k in range(1, len(meas.flow_meters) + 1):
            if k in meas.protected:
                continue
            try:
                res = security_index(net, meas, k)
            except InfeasibleIndex:
                out.append((seed, k, None))
                continue
            a = res.attack
            out.append((seed, k, res.index, sorted(a.touched),
                        a.delta_z.tolist(), a.delta_theta.tolist()))
    return out


def test_the_sweep_gives_the_golden_answers():
    answers = _answers()
    assert len(answers) == 4 * (83 - 3)
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == GOLDEN
