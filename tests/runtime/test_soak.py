"""The soak's streamed-vs-offline check looks past lot 0.

The streaming service captures every queued lot in one row stream, so
lot 0 -- alone at row offset 0 of the first capture -- is the one lot a
row-offset bug cannot touch.  The soak therefore replays its first
``2 * max_pending_lots`` lots offline; a capture that hands each row of
a shared capture its neighbour's generator must fail it.
"""

import threading

import pytest

from repro.runtime.production import ProductionTestFlow
from repro.runtime.soak import build_soak_flow, run_soak

LOT_SIZE = 4


class _ShiftedBoard:
    """Board proxy with a row-offset bug in captures shared by lots.

    A capture of more than one lot's rows draws every row's noise from
    the next row's generator.  The first capture is held briefly so the
    lots behind it queue up and share the next one.
    """

    def __init__(self, board):
        self._board = board
        self._held = threading.Event()

    def __getattr__(self, name):
        return getattr(self._board, name)

    def signature_batch(self, devices, stimulus, *, rngs, **kwargs):
        if not self._held.is_set():
            self._held.set()
            threading.Event().wait(0.2)
        if len(devices) > LOT_SIZE:
            rngs = rngs[1:] + rngs[:1]
        return self._board.signature_batch(devices, stimulus, rngs=rngs, **kwargs)


@pytest.fixture(scope="module")
def soak_flow():
    return build_soak_flow(5, n_train=8)


def _soak(flow):
    return run_soak(
        seed=5, seconds=60.0, max_lots=12, lot_size=LOT_SIZE,
        max_pending_lots=4, flow=flow,
    )


def test_soak_checks_every_early_lot(soak_flow):
    payload = _soak(soak_flow)
    assert payload["first_lots_checked"] == 8
    assert payload["first_lots_bit_identical_to_offline"] is True
    assert payload["captures"] <= payload["lots_completed"] == 12


def test_shifted_generators_fail_the_soak(soak_flow):
    shifted = ProductionTestFlow(
        _ShiftedBoard(soak_flow.board),
        soak_flow.stimulus,
        soak_flow.calibration,
        limits=soak_flow.limits,
    )
    payload = _soak(shifted)
    # lots shared a capture (the bug's precondition), and the check saw it
    assert payload["captures"] < payload["lots_completed"]
    assert payload["first_lots_bit_identical_to_offline"] is False

