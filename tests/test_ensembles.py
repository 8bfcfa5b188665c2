import math

import numpy as np
import pytest

from cmpslab.ensembles import (
    cmps_sampler,
    design_distance_delta4,
    frame_potential_exact_stab,
    frame_potential_mc,
    haar_frame_potential,
    haar_sampler,
    purity_fluctuation_formulas,
    purity_fluctuation_mc,
    stab_purity_exhaustive,
    stab_sampler,
    stab_states_exhaustive,
    stabilizer_purity_mean,
)
from cmpslab.kernels import Rng


def test_stab_state_counts():
    assert stab_states_exhaustive(1).shape == (6, 2)
    assert stab_states_exhaustive(2).shape == (60, 4)


def test_stab_exhaustive_purity_moments():
    mean, var = stab_purity_exhaustive(2)
    assert mean == pytest.approx(stabilizer_purity_mean(4), abs=1e-9)
    assert mean == pytest.approx(0.8, abs=1e-9)
    assert var == pytest.approx(purity_fluctuation_formulas(4, "STAB"), abs=1e-9)
    assert var == pytest.approx(0.06, abs=1e-9)


def test_stab_frame_potentials_exact():
    assert frame_potential_exact_stab(2, 4) == pytest.approx(1 / 32, abs=1e-9)
    # STAB is a 3-design: k <= 3 matches Haar
    for k in (1, 2, 3):
        assert frame_potential_exact_stab(2, k) == pytest.approx(
            haar_frame_potential(4, k), abs=1e-9
        )


def test_stab_frame_potentials_match_haar_to_rounding():
    # the states are built once and kept unrounded, so the 3-design identity
    # holds to double precision
    assert stab_states_exhaustive(2) is stab_states_exhaustive(2)
    for k in (1, 2, 3):
        assert abs(frame_potential_exact_stab(2, k) - haar_frame_potential(4, k)) < 1e-14


def test_haar_frame_potential_mc():
    est = frame_potential_mc(haar_sampler(2), 4, 2500, Rng(1))
    assert abs(est.mean - 1 / 35) < 4 * est.std_error


def test_stab_sampler_matches_exhaustive():
    est = frame_potential_mc(stab_sampler(2), 4, 2500, Rng(2))
    assert abs(est.mean - 1 / 32) < 4 * est.std_error


def test_design_distance_examples():
    # STAB at d=4 has delta = 12/7, giving (Delta^4)^2 = 3/32
    assert design_distance_delta4(12 / 7, 4) ** 2 == pytest.approx(3 / 32, abs=1e-12)
    assert design_distance_delta4(0.0, 8) == 0.0
    with pytest.raises(ValueError):
        design_distance_delta4(-1.0, 4)


def test_purity_formulas_consistency():
    d = 16
    haar = purity_fluctuation_formulas(d, "Haar")
    assert purity_fluctuation_formulas(d, "CMPS", 0.0) == pytest.approx(haar)
    assert purity_fluctuation_formulas(d, "CMPS", 1.0) > haar
    with pytest.raises(ValueError):
        purity_fluctuation_formulas(d, "CMPS")


def test_haar_purity_fluctuation_mc():
    est = purity_fluctuation_mc(haar_sampler(2), 3000, Rng(4))
    want = purity_fluctuation_formulas(4, "Haar")
    assert abs(est.mean - want) < 4 * est.std_error


def test_cmps_full_cap_matches_haar_fluctuations():
    # chi = 2^(N-1) makes the MPS factor Haar, so CMPS is Haar
    est = purity_fluctuation_mc(cmps_sampler(2, 2), 3000, Rng(5))
    want = purity_fluctuation_formulas(4, "Haar")
    assert abs(est.mean - want) < 4 * est.std_error


def test_haar_frame_potential_closed_form():
    for d, k in ((4, 1), (4, 4), (8, 3)):
        assert haar_frame_potential(d, k) == 1 / math.comb(d + k - 1, k)
