import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import dualdet
from dualdet.cli import main

BB84_DUAL = {
    "protocol": "bb84_single_photon",
    "mode": "dual",
    "link": {"alpha_db_per_km": 0.21, "length_km": 0, "g_bob": 0.16, "switch_loss_db": 0},
    "detectors": [
        {"spd": {"rep_rate_hz": 1e9, "eta_d": 0.059, "y0": 1.3e-5, "e_det": 0.018}},
        {"spd": {"rep_rate_hz": 2.5e6, "eta_d": 0.5, "y0": 3e-7, "e_det": 0.018}},
    ],
    "config": {"basis_factor": 0.5, "f_ec": 1.22},
}


#: The preset 5 dual receiver.
GMCS_DR_DUAL = {
    "protocol": "gmcs_dr",
    "mode": "dual",
    "link": {"alpha_db_per_km": 0.21, "g_bob": 1.0, "switch_loss_db": 0},
    "detectors": [
        {"homodyne": {"rep_rate_hz": 82e6, "g_det": 0.8, "eps_det": 0.43}},
        {"homodyne": {"rep_rate_hz": 1e6, "g_det": 0.8, "eps_det": 0.01}},
    ],
    "config": {"v": 40, "beta": 1.0, "eps_pre": 0.05},
}

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"


@pytest.fixture
def dual_config(tmp_path):
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(BB84_DUAL))
    return str(path)


def write_variant(tmp_path, name, **overrides):
    data = {**json.loads(json.dumps(BB84_DUAL)), **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_rate(dual_config, capsys):
    assert main(["rate", "--config", dual_config, "--length", "124"]) == 0
    assert capsys.readouterr().out.strip() == "1.96354e+02"


def test_rate_negative_printed_raw(tmp_path, capsys):
    fast_only = write_variant(tmp_path, "fast.json", mode="single_fast")
    assert main(["rate", "--config", fast_only, "--length", "200"]) == 0
    assert capsys.readouterr().out.strip().startswith("-")


def test_sweep_csv(dual_config, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", dual_config,
        "--lmin", "0", "--lmax", "5", "--step", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "length_km,rate_dual_bps,rate_fast_bps,rate_slow_bps"
    assert len(lines) == 7
    assert lines[1] == "0.00,3.33981e+06,,"


def test_figure_golden_rows(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "--id", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    # Frozen from independent evaluation of the figure-1 parameter set.
    assert lines[0] == "length_km,rate_dual_bps,rate_fast_bps,rate_slow_bps"
    assert lines[1] == "0.00,3.33981e+06,3.32187e+06,7.11249e+04"
    assert lines[2] == "1.00,3.18135e+06,3.16341e+06,6.77674e+04"
    assert lines[3] == "2.00,3.03036e+06,3.01243e+06,6.45684e+04"
    assert len(lines) == 252


@pytest.mark.parametrize("fig_id", range(1, 10))
def test_figure_file_matches_golden(tmp_path, fig_id):
    # The file path (newline="") must write the same bytes as the in-memory one.
    out = tmp_path / f"fig{fig_id}.csv"
    assert main(["figure", "--id", str(fig_id), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"fig{fig_id}.csv").read_bytes()


def test_figure_unknown_id(tmp_path, capsys):
    assert main(["figure", "--id", "12", "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown figure id" in capsys.readouterr().err


def test_maxdist(dual_config, tmp_path, capsys):
    assert main(["maxdist", "--config", dual_config]) == 0
    first = capsys.readouterr().out.strip()
    assert first != "none"
    assert 110.0 < float(first) < 140.0

    hopeless = write_variant(
        tmp_path, "hopeless.json", mode="single_fast",
        detectors=[{"spd": {"rep_rate_hz": 10e9, "eta_d": 0.0027, "y0": 3.2e-9, "e_det": 0.097}}],
    )
    assert main(["maxdist", "--config", hopeless]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_crossover_envelope(dual_config, tmp_path, capsys):
    fast = write_variant(tmp_path, "fast.json", mode="single_fast")
    slow = write_variant(tmp_path, "slow.json", mode="single_slow")
    code = main([
        "crossover", "--config-a", dual_config, "--config-b", fast, "--config-b", slow,
    ])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(124.0, abs=10.0)


def test_searches_with_a_limit_between_grid_points(dual_config, tmp_path, capsys):
    # 124.9 km is past the dual rate's zero at 124.78 km; 124.5 km is past
    # the crossover at 124.08 km. Neither limit is a whole number of steps.
    assert main(["rate", "--config", dual_config, "--length", "124.9"]) == 0
    assert float(capsys.readouterr().out) < 0.0
    assert main(["maxdist", "--config", dual_config, "--lmax", "124.9"]) == 0
    assert capsys.readouterr().out == "124.78\n"
    fast = write_variant(tmp_path, "fast.json", mode="single_fast")
    slow = write_variant(tmp_path, "slow.json", mode="single_slow")
    code = main([
        "crossover", "--config-a", dual_config, "--config-b", fast, "--config-b", slow, "--lmax", "124.5",
    ])
    assert code == 0
    assert capsys.readouterr().out == "124.08\n"


def test_mu_opt(capsys):
    assert main(["mu-opt", "--edet", "0.018", "--f", "1.22"]) == 0
    assert capsys.readouterr().out.strip() == "0.650458"


def test_mu_opt_no_root_is_numeric_error(capsys):
    assert main(["mu-opt", "--edet", "0.25", "--f", "1.22"]) == 3
    assert "numeric error" in capsys.readouterr().err


def test_schedule(capsys):
    assert main(["schedule", "--p", "4e-4", "--k", "100"]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert out["p0"] == "9.60782e-01"
    assert out["p1"] == "3.84466e-02"
    assert out["pm"] == "7.71600e-04"
    assert out["multi_pulse_qber"] == "9.90000e-03"
    assert out["p_max"] == "4.04040e-04"
    assert out["accumulation_s"] == "7.84965e+03"
    assert out["accumulation_hours"] == "2.18046e+00"


def test_schedule_single_pulse_window_has_no_slow_limit(capsys):
    # With one pulse per window no multi-pulse error arises: p_max is inf.
    assert main(["schedule", "--p", "1e-3", "--k", "1"]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert out["p_max"] == "inf"


def test_schedule_invalid_probability(capsys):
    assert main(["schedule", "--p", "2.0", "--k", "100"]) == 3


@pytest.mark.parametrize("flags", [
    ["--p", "0", "--k", "5"],
    ["--p", "1e-3", "--k", "5", "--qber-budget", "0.3"],
], ids=["zero-slow-rate", "qber-budget-out-of-range"])
def test_failed_schedule_prints_nothing(capsys, flags):
    # A value that fails late must not leave the earlier lines on stdout.
    assert main(["schedule", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numeric error" in captured.err


@pytest.mark.parametrize("command, flags", [
    ("sweep", ["--lmin", "5", "--lmax", "1"]),
    ("sweep", ["--step", "0"]),
    ("maxdist", ["--lmax", "-1"]),
    ("sweep", ["--lmin", "1e17", "--lmax", "100000000000000064", "--step", "1"]),
    ("rate", ["--length", "-1"]),
], ids=["sweep-inverted", "sweep-zero-step", "maxdist-negative-lmax", "sweep-collapsed", "rate-negative-length"])
def test_grid_flag_errors_are_config_errors(dual_config, tmp_path, capsys, command, flags):
    # Flags that describe no length grid are bad flags (exit 2), unlike
    # model-parameter domain errors such as schedule --p 2.0 (exit 3).
    out = tmp_path / "x.csv"
    extra = ["--out", str(out)] if command == "sweep" else []
    assert main([command, "--config", dual_config, *flags, *extra]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def _run_cli(*argv, **kwargs):
    """Run `python -m dualdet.cli` in a child, so a traceback would show on its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(dualdet.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "dualdet.cli", *argv], env=env, capture_output=True, text=True, timeout=60, **kwargs
    )


def _assert_config_error(done, message):
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert f"configuration error: {message}" in done.stderr


def test_figure_to_a_missing_directory_is_a_config_error(tmp_path):
    out = tmp_path / "missing" / "o.csv"
    _assert_config_error(_run_cli("figure", "--id", "1", "--out", str(out)), f"cannot write {out}")


def test_sweep_to_a_directory_is_a_config_error(dual_config, tmp_path):
    done = _run_cli("sweep", "--config", dual_config, "--lmax", "5", "--out", str(tmp_path))
    _assert_config_error(done, f"cannot write {tmp_path}")


def test_unwritable_out_is_refused_before_any_evaluation(dual_config, tmp_path, monkeypatch, capsys):
    import dualdet.scenario

    calls = []
    # Sweeps and evaluate both reach the fiber transmittance through this binding.
    monkeypatch.setattr(dualdet.scenario, "channel_transmittance", lambda *args: calls.append(args) or 1.0)
    assert main(["sweep", "--config", dual_config, "--lmax", "250", "--out", str(tmp_path)]) == 2
    assert f"cannot write {tmp_path}" in capsys.readouterr().err
    assert calls == []


def _dark_free_single(tmp_path):
    """A BB84 single_fast file whose detector has no dark counts: its gain
    is zero, and the QBER undefined, where t underflows (about 15,300 km)."""
    clean = {"spd": {"rep_rate_hz": 1e9, "eta_d": 0.059, "y0": 0.0, "e_det": 0.018}}
    return write_variant(tmp_path, "clean.json", mode="single_fast", detectors=[clean])


def test_failed_sweep_leaves_no_out_file(tmp_path, capsys):
    # The sweep fails at 20,000 km: exit 3, and the CSV opened before the sweep is removed.
    out = tmp_path / "clean.csv"
    assert main(["sweep", "--config", _dark_free_single(tmp_path), "--lmax", "20000", "--out", str(out)]) == 3
    assert "numeric error: gain is zero; QBER undefined" in capsys.readouterr().err
    assert not out.exists()


def test_failed_sweep_leaves_an_existing_out_file_as_it_was(tmp_path):
    out = tmp_path / "clean.csv"
    out.write_text("kept\n")
    assert main(["sweep", "--config", _dark_free_single(tmp_path), "--lmax", "20000", "--out", str(out)]) == 3
    assert out.read_text() == "kept\n"


def test_sweep_replaces_an_existing_out_file(dual_config, tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_text("an older and much longer file than the new csv\n" * 100)
    assert main(["sweep", "--config", dual_config, "--lmax", "1", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["0.00,3.33981e+06,,", "1.00,3.18135e+06,,"]


def test_sweep_to_devnull(dual_config):
    assert main(["sweep", "--config", dual_config, "--lmax", "1", "--out", os.devnull]) == 0


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_sweep_to_a_pipe(dual_config):
    done = _run_cli("sweep", "--config", dual_config, "--lmax", "1", "--out", "/dev/stdout")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1:] == ["0.00,3.33981e+06,,", "1.00,3.18135e+06,,"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_sweep_to_a_fifo(dual_config, tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        assert main(["sweep", "--config", dual_config, "--lmax", "1", "--out", str(fifo)]) == 0
        written = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert written.splitlines()[1:] == ["0.00,3.33981e+06,,", "1.00,3.18135e+06,,"]
    assert fifo.exists()


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"mode": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf8", "int-past-the-digit-limit"])
def test_undecodable_scenario_file_is_a_config_error(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    _assert_config_error(_run_cli("rate", "--config", str(bad), "--length", "10"), f"invalid JSON in {bad}")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("step", ["1e-7", "5e-324"])
def test_oversized_grid_is_a_config_error(dual_config, tmp_path, step):
    # Run in a child with a 1 GiB address-space limit: a grid that is not
    # refused up front would try to hold billions of floats.
    out = tmp_path / "x.csv"
    done = _run_cli(
        "sweep", "--config", dual_config, "--lmax", "250", "--step", step, "--out", str(out),
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == 2, done.stderr
    assert "grid points" in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("protocol, length, limit", [
    ("gmcs_dr", "15000", "-2.18199e+08"),  # -rep_rate*log2(v)/2
    ("gmcs_rr", "7760", "-1.17713e+06"),  # -rep_rate*log2(1 + eps_det) of the quiet arm
])
def test_rate_far_out_prints_the_gmcs_limit(tmp_path, capsys, protocol, length, limit):
    # g is subnormal at 15,000 km, and the input-referred RR bound's g*g
    # underflows at 7,760 km: there the rate is its g -> 0 limit.
    path = tmp_path / "gmcs.json"
    path.write_text(json.dumps({**GMCS_DR_DUAL, "protocol": protocol}))
    assert main(["rate", "--config", str(path), "--length", length]) == 0
    assert capsys.readouterr().out == f"{limit}\n"


@pytest.mark.parametrize("protocol, answer", [("gmcs_dr", "5.69"), ("gmcs_rr", "18.88")])
def test_maxdist_from_a_far_l_max(tmp_path, capsys, protocol, answer):
    # maxdist evaluates --lmax first, where g is subnormal.
    path = tmp_path / "gmcs.json"
    path.write_text(json.dumps({**GMCS_DR_DUAL, "protocol": protocol}))
    assert main(["maxdist", "--config", str(path), "--lmax", "15000"]) == 0
    assert capsys.readouterr().out == f"{answer}\n"


@pytest.mark.parametrize("protocol", ["gmcs_dr", "gmcs_rr"])
@pytest.mark.parametrize("detector, config, message", [
    ({"g_det": 0.8, "eps_det": 1e307}, {}, "eps_det must be in [0, 1e30], got 1e+307"),
    ({"g_det": 1e-10, "eps_det": 1e30}, {}, f"eps_det/g_det must be at most 1e36, got {1e30 / 1e-10}"),
    ({}, {"eps_pre": 4.5e38}, "eps_pre must be in [0, 1e30], got 4.5e+38"),
])
def test_gmcs_excess_noise_past_its_rule_exit_code(tmp_path, capsys, protocol, detector, config, message):
    # Past these bounds a product in the rates can overflow: DR gives -inf at eps_det = 1e307.
    fast = {"homodyne": {**GMCS_DR_DUAL["detectors"][0]["homodyne"], **detector}}
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps({**GMCS_DR_DUAL, "protocol": protocol, "mode": "single_fast", "detectors": [fast],
                                "config": {**GMCS_DR_DUAL["config"], **config}}))
    assert main(["rate", "--config", str(path), "--length", "10"]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**BB84_DUAL, "surprise": 1}))
    assert main(["rate", "--config", str(bad), "--length", "10"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_detector_that_never_clicks_exit_code(tmp_path, capsys):
    dead = {"spd": {"rep_rate_hz": 1e9, "eta_d": 0.0, "y0": 0.0, "e_det": 0.018}}
    bad = write_variant(tmp_path, "dead.json", mode="single_fast", detectors=[dead])
    assert main(["rate", "--config", bad, "--length", "10"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "eta_d and y0" in err


def test_missing_file_exit_code(tmp_path):
    assert main(["rate", "--config", str(tmp_path / "missing.json"), "--length", "10"]) == 2


def test_non_finite_flag_exit_code(dual_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--config", dual_config, "--length", "nan"])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_decoy_mu_past_its_rule_exit_code(tmp_path, capsys):
    # At mu = 1.7e308, (y0 + eta)*mu overflows and the rate used to print as nan with exit 0.
    bad = write_variant(
        tmp_path, "mu.json", protocol="decoy_bb84", mode="single_fast",
        detectors=[{"spd": {"rep_rate_hz": 1e9, "eta_d": 0.5, "y0": 0.9, "e_det": 0.01}}],
        config={"mu": 1.7e308, "basis_factor": 0.5, "f_ec": 1.22},
    )
    assert main(["rate", "--config", bad, "--length", "0"]) == 2
    assert capsys.readouterr().err == "configuration error: mu must be in (0, 700], got 1.7e+308\n"


HOT_SPD = {"rep_rate_hz": 1e9, "eta_d": 1.0, "y0": 0.9, "e_det": 0.5}


@pytest.mark.parametrize("detector, config, message", [
    # The preset 1 fast detector at 10 km: f_ec*H2 overflows.
    (BB84_DUAL["detectors"][0]["spd"], {"basis_factor": 0.5, "f_ec": 1e308}, "f_ec must be in [1, 10], got 1e+308"),
    # A detector at QBER 1/2: rep_rate*gain*(1 - 2.22) overflows.
    ({**HOT_SPD, "rep_rate_hz": 1.7e308}, {"basis_factor": 1.0, "f_ec": 1.22},
     "rep_rate must be in (0, 1e15], got 1.7e+308"),
])
def test_rate_overflow_past_its_rule_exit_code(tmp_path, capsys, detector, config, message):
    # Each file used to print -inf with exit 0.
    bad = write_variant(tmp_path, "overflow.json", mode="single_fast", detectors=[{"spd": detector}], config=config)
    assert main(["rate", "--config", bad, "--length", "10"]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_non_finite_scenario_exit_code(tmp_path, capsys):
    bad = write_variant(tmp_path, "nan.json", link={**BB84_DUAL["link"], "alpha_db_per_km": float("nan")})
    assert main(["rate", "--config", bad, "--length", "10"]) == 2
    assert "configuration error" in capsys.readouterr().err

