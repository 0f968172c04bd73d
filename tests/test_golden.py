"""Golden answers of the warm l1 sweep, bit for bit.

security_index is run on every unprotected meter of a few seeded 42-bus
flow-only grids (conftest.mesh_grid), with 3 protected meters and with
none, and a sha256 is taken over each meter's (index, sorted touched,
delta_z, delta_theta), floats by repr; the 652 targets take about 0.6 s.
Any change of pivot rule, witness or scaling shows here, so kernel work
must keep the digests or say why they moved.

The unprotected digest was captured before the base moved to the ternary
kernel and still holds: those grids' base LP is the same, solved by the
same rules.  The protected digest moved with it: the protected rows are
now eliminated before the unprotected ones, so the base starts from
other rows and stops at another optimal basis.  No index changed; 36 of
the 320 witnesses did, each to another witness of min-cut size.
"""
import hashlib

from gridsec import security_index
from gridsec.errors import InfeasibleIndex

from conftest import mesh_grid

SEEDS = (1, 2, 3, 4)
GOLDEN = "e1ad29e2b82801f28cde025abd953bca4467ab9d89103da98a2452cb282e7c62"
GOLDEN_UNPROTECTED = "7143893eed95ec7c6d787326b15f19bddcd11456db9e100eab4da008341391ef"


def _answers(protect):
    out = []
    for seed in SEEDS:
        net, meas = mesh_grid(seed, protect=protect)
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


def _digest(protect):
    answers = _answers(protect)
    assert len(answers) == 4 * (83 - protect)
    return hashlib.sha256(repr(answers).encode()).hexdigest()


def test_the_sweep_gives_the_golden_answers():
    assert _digest(3) == GOLDEN


def test_the_unprotected_sweep_gives_the_golden_answers():
    assert _digest(0) == GOLDEN_UNPROTECTED
