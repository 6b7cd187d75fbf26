"""The reference loop: fixed work, collector state kept."""

import gc

from pbench import calibrate


def test_reference_loop_does_fixed_work():
    assert calibrate.reference_s() > 0.0
    assert calibrate._interpreter(1000) == calibrate._interpreter(1000)
    slices = calibrate.BUFFER_BYTES // calibrate.STRIDE
    per_slice = calibrate.READ_BYTES // 256 * sum(range(256))
    assert calibrate._memory() == slices * per_slice
    assert calibrate._objects() == calibrate.OBJECTS ** 2


def test_reference_loop_restores_the_collector():
    assert gc.isenabled()
    calibrate.reference_s()
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate.reference_s()
        assert not gc.isenabled()
    finally:
        gc.enable()
