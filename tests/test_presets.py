import pytest

from dualdet.presets import figure_preset
from dualdet.scenario import ConfigError


def test_all_ids_build():
    for fig_id in range(1, 10):
        preset = figure_preset(fig_id)
        assert set(preset.scenarios) == {"dual", "fast", "slow"}
        assert preset.l_min < preset.l_max


def test_unknown_id():
    for fig_id in (0, 10, -3):
        with pytest.raises(ConfigError):
            figure_preset(fig_id)


def test_fig1_parameters():
    preset = figure_preset(1)
    fast = preset.scenarios["dual"].fast
    slow = preset.scenarios["dual"].slow
    assert (fast.rep_rate, fast.eta_d, fast.y0, fast.e_det) == (1e9, 0.059, 1.3e-5, 0.018)
    assert (slow.rep_rate, slow.eta_d, slow.y0, slow.e_det) == (2.5e6, 0.5, 3e-7, 0.018)
    link = preset.scenarios["dual"].link
    assert (link.alpha, link.g_bob, link.switch_loss) == (0.21, 0.16, 0.0)
    cfg = preset.scenarios["dual"].config
    assert (cfg.basis_factor, cfg.f_ec) == (0.5, 1.22)
    assert (preset.l_min, preset.l_max, preset.step) == (0.0, 250.0, 1.0)


def test_fig2_fast_detector_has_high_crosstalk():
    fast = figure_preset(2).scenarios["dual"].fast
    assert (fast.rep_rate, fast.eta_d, fast.y0, fast.e_det) == (10e9, 0.0027, 3.2e-9, 0.097)
    # The slow arm stays the TES of figure 1.
    assert figure_preset(2).scenarios["dual"].slow == figure_preset(1).scenarios["dual"].slow


def test_fig3_identical_detector_technology():
    preset = figure_preset(3)
    fast, slow = preset.scenarios["dual"].fast, preset.scenarios["dual"].slow
    assert (slow.rep_rate, slow.eta_d, slow.y0, slow.e_det) == (100e6, 0.0027, 3.2e-9, 0.018)
    assert fast.eta_d == slow.eta_d and fast.y0 == slow.y0
    assert fast.e_det > slow.e_det


def test_fig4_decoy_intensity():
    cfg = figure_preset(4).scenarios["dual"].config
    assert (cfg.mu, cfg.basis_factor, cfg.f_ec) == (0.73, 0.5, 1.22)


@pytest.mark.parametrize("fig_id,v,beta", [(5, 40.0, 1.0), (6, 40.0, 1.0), (7, 20.0, 0.8)])
def test_gmcs_presets(fig_id, v, beta):
    preset = figure_preset(fig_id)
    source = preset.scenarios["dual"].config
    assert (source.v, source.beta, source.eps_pre) == (v, beta, 0.05)
    fast, slow = preset.scenarios["dual"].fast, preset.scenarios["dual"].slow
    assert (fast.rep_rate, fast.g_det, fast.eps_det) == (82e6, 0.8, 0.43)
    assert (slow.rep_rate, slow.g_det, slow.eps_det) == (1e6, 0.8, 0.01)
    assert (preset.l_min, preset.l_max, preset.step) == (0.0, 60.0, 0.25)
    expected_protocol = "gmcs_dr" if fig_id == 5 else "gmcs_rr"
    assert preset.scenarios["dual"].protocol == expected_protocol


@pytest.mark.parametrize("fig_id,base_id", [(8, 2), (9, 3)])
def test_lossy_switch_presets(fig_id, base_id):
    lossy = figure_preset(fig_id)
    base = figure_preset(base_id)
    # Same detectors as the base figure; 3 dB switch on the dual arm only.
    assert lossy.scenarios["dual"].fast == base.scenarios["dual"].fast
    assert lossy.scenarios["dual"].slow == base.scenarios["dual"].slow
    assert lossy.scenarios["dual"].link.switch_loss == 3.0
    assert lossy.scenarios["fast"].link.switch_loss == 0.0
    assert lossy.scenarios["slow"].link.switch_loss == 0.0
