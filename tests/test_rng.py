from __future__ import annotations

import numpy as np
import pytest

from multimix.rng import _STREAMS, make_rng


def test_streams_are_distinct_and_reproducible():
    draws = {name: make_rng(7, name).random(4) for name in _STREAMS}
    assert len({d.tobytes() for d in draws.values()}) == len(_STREAMS)
    assert np.array_equal(make_rng(7, "lmc").random(4), draws["lmc"])
    assert np.array_equal(make_rng(7).random(4), draws["default"])


@pytest.mark.parametrize("name", ["ple", "net", "LMC", ""])
def test_unknown_stream_names_are_refused(name):
    with pytest.raises(ValueError, match="unknown random stream"):
        make_rng(0, name)
