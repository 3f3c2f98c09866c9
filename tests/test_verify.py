import math
import warnings

import numpy as np

from abclab import run_verify_suite, verify


def test_uniform_draw_is_generator_uniform_bit_for_bit():
    # verify's draws are lo + (hi - lo) * random(), which is what Generator.uniform
    # computes; a numpy build that fused the multiply-add would fail here
    bounds = np.random.default_rng(2718)
    pairs = [(-20.0, 20.0), (0.0, 1.0), (0.0, 2.0 * math.pi), (math.log(1e-3), math.log(1e3))]
    for _ in range(2000):
        scale = math.exp(float(bounds.uniform(math.log(1e-6), math.log(1e6))))
        lo = float(bounds.uniform(-1.0, 1.0)) * scale
        pairs.append((lo, lo + float(bounds.uniform(1e-3, 2.0)) * scale))
    for seed, (lo, hi) in enumerate(pairs):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert verify._uniform(ours, lo, hi).hex() == float(numpys.uniform(lo, hi)).hex()
            assert ours.random().hex() == numpys.random().hex()  # same stream position


def test_verify_suite_lets_no_warning_escape():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        before = list(warnings.filters)
        report = run_verify_suite(7)
        assert warnings.filters == before
    assert report.all_passed
