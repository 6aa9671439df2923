import json
import math

import numpy as np
import pytest

from llgs.cli import (PROFILE_HEADER, build_parser, load_config, main, params_from_config,
                      preset_path, write_columns, write_record)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_supercritical(capsys):
    code, out, _ = run(
        ["classify", "--alpha", "1", "--beta", "0.5", "--mu", "1", "--h", "1"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["regime"] == "supercritical"
    assert record["plus_e3_stable"] is False and record["minus_e3_stable"] is False
    assert record["hopf_frequency"] == 0.5


def test_classify_subsubcritical(capsys):
    code, out, _ = run(
        ["classify", "--alpha", "1", "--beta", "0", "--mu", "-1", "--h", "0.9"], capsys
    )
    record = json.loads(out)
    assert record["regime"] == "subsubcritical"
    assert record["plus_e3_stable"] is True and record["minus_e3_stable"] is True


def test_invalid_alpha_is_config_error(capsys):
    code, _, err = run(["classify", "--alpha", "-1"], capsys)
    assert code == 2
    assert "config error" in err


def test_missing_alpha_is_config_error(capsys):
    code, _, err = run(["classify", "--mu", "1"], capsys)
    assert code == 2


def test_unknown_preset_lists_available(capsys):
    code, _, err = run(["classify", "--preset", "nope"], capsys)
    assert code == 2
    assert "wavetrains-a" in err


def test_wavetrains_schema_and_content(capsys, tmp_path):
    out = tmp_path / "wt.csv"
    code, _, _ = run(
        ["wavetrains", "--preset", "wavetrains-a", "--out", str(out)], capsys
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,theta,m3,r,omega,stability_class,k_star"
    rows = [line.split(",") for line in lines[1:]]
    assert rows
    k_star = float(rows[0][6])
    for row in rows:
        k, theta, m3, r, omega = map(float, row[:5])
        assert omega == -0.5  # -beta/alpha for the preset
        assert abs(m3 - math.cos(theta)) < 1e-12
        stable = row[5] == "stable"
        if abs(r) > 0 and abs(abs(k) - k_star) > 1e-9 and k ** 2 < 1.0:
            assert stable == (abs(k) < k_star)


def test_wavetrains_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["wavetrains", "--preset", "wavetrains-a", "--out", str(a)], capsys)
    run(["wavetrains", "--preset", "wavetrains-a", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_wavetrains_subcritical_rows_only_above_threshold(capsys, tmp_path):
    out = tmp_path / "wt.csv"
    run(
        ["wavetrains", "--alpha", "1", "--beta", "0", "--mu", "1", "--h", "2",
         "--k-max", "3", "--out", str(out)], capsys,
    )
    lines = out.read_text().strip().splitlines()[1:]
    ks = [float(line.split(",")[0]) for line in lines]
    assert ks and min(ks) ** 2 >= 3.0 - 1e-9  # k^2 > mu + |b|


def test_spectrum_schema_and_residuals(capsys, tmp_path):
    out = tmp_path / "sp.csv"
    code, _, _ = run(
        ["spectrum", "--alpha", "1", "--beta", "0", "--mu", "1", "--h", "0.5",
         "--k", "0.3", "--ell-max", "1", "--n-samples", "51", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("ell,re_lambda_1,im_lambda_1,re_lambda_2,im_lambda_2")
    first = list(map(float, lines[1].split(",")))
    assert first[0] == 0.0 and first[1] == 0.0  # translation mode at the origin
    for line in lines[1:]:
        vals = list(map(float, line.split(",")))
        assert vals[5] < 1e-10 and vals[6] < 1e-10


def test_spectrum_falls_back_to_e3(capsys):
    code, out, err = run(
        ["spectrum", "--alpha", "1", "--beta", "0", "--mu", "-1", "--h", "2",
         "--k", "0.0"], capsys,
    )
    assert code == 0
    assert "constant-state spectrum" in err


def test_coherent_portrait_json(capsys):
    code, out, _ = run(
        ["coherent", "--alpha", "1", "--beta", "0", "--mu", "1", "--h", "0.5",
         "--mode", "portrait"], capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["mode"] == "portrait"
    kinds = {e["kind"] for e in record["equilibria"]}
    assert "saddle" in kinds and "center" in kinds
    assert all(c["kind"] == "heteroclinic" for c in record["connections"])


def test_coherent_portrait_off_resonance(capsys):
    code, out, _ = run(
        ["coherent", "--alpha", "1", "--beta", "0.5", "--mu", "1", "--h", "0.5",
         "--mode", "portrait", "--omega-freq", "0.2"], capsys,
    )
    record = json.loads(out)
    assert record["equilibria"] == []
    assert "Omega != beta/alpha" in record["note"]


def test_coherent_homoclinic_files(capsys, tmp_path):
    out = tmp_path / "hom.csv"
    code, _, _ = run(
        ["coherent", "--preset", "cohex", "--out", str(out)], capsys
    )
    assert code == 0
    record = json.loads((tmp_path / "hom.json").read_text())
    assert record["found"] is True
    for path in record["profiles"]:
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "xi,theta,p,q,m1,m2,m3"
        assert len(lines) > 100


def test_coherent_profile_paths_under_dotted_directory(capsys, tmp_path):
    out_dir = tmp_path / "a.b"
    out_dir.mkdir()
    code, _, _ = run(
        ["coherent", "--preset", "cohex", "--out", str(out_dir / "prof")], capsys
    )
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["prof.json", "prof_1.csv", "prof_2.csv"]


def test_coherent_homoclinic_at_c_zero_finds_no_wall_pair(capsys, tmp_path):
    # phaseplane-a: the saddle theta* = pi/3 joins its mirror -theta* by domain walls
    out = tmp_path / "walls.csv"
    code, _, _ = run(["coherent", "--preset", "phaseplane-a", "--mode", "homoclinic",
                      "--out", str(out)], capsys)
    assert code == 0
    record = json.loads((tmp_path / "walls.json").read_text())
    assert record == {"mode": "homoclinic", "found": False,
                      "note": "no homoclinic connection in the stationary portrait"}
    assert [p.name for p in tmp_path.iterdir()] == ["walls.json"]


@pytest.mark.parametrize("argv, out", [
    (["classify", "--preset", "hopf"], "record"),
    (["coherent", "--preset", "phaseplane-a"], "portrait.csv"),
    (["coherent", "--mode", "small-amplitude", "--alpha", "1", "--mu", "1", "--h", "0.5",
      "--s", "5"], "small.csv"),
    (["coherent", "--mode", "drift", "--alpha", "1", "--beta", "0.5", "--mu", "1",
      "--omega-freq", "0.7"], "drift.txt"),
])
def test_every_record_goes_to_stem_json(capsys, tmp_path, argv, out):
    code, stdout, _ = run(argv + ["--out", str(tmp_path / out)], capsys)
    assert code == 0 and stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == [out.split(".")[0] + ".json"]
    assert isinstance(json.loads(next(tmp_path.iterdir()).read_text()), dict)


def test_coherent_homoclinic_without_out_prints_record_after_tables(capsys):
    code, out, _ = run(["coherent", "--preset", "cohex"], capsys)
    assert code == 0
    tables, record = out[:out.index("{")], json.loads(out[out.index("{"):])
    assert tables.count(",".join(PROFILE_HEADER) + "\n") == 2
    assert record["mode"] == "homoclinic" and record["found"] is True
    assert record["profiles"] == [None, None]


def test_coherent_fast_front_files(capsys, tmp_path):
    out = tmp_path / "front.csv"
    code, _, _ = run(["coherent", "--preset", "fast-front", "--out", str(out)], capsys)
    assert code == 0
    record = json.loads((tmp_path / "front.json").read_text())
    s = record["s"]
    assert record["mode"] == "fast" and s == 50.0
    assert len(record["fronts"]) == 2
    for front in record["fronts"]:
        assert set(front) == {"file", "theta_start", "theta_end", "q_start", "q_end",
                              "q_first_order_start", "max_dtheta_dxi", "tube_constant"}
        lines = open(front["file"]).read().strip().splitlines()
        assert lines[0] == ",".join(PROFILE_HEADER)
        assert len(lines) > 100
        assert abs(front["q_start"] - front["q_first_order_start"]) <= 1 / s ** 2
    assert [f["theta_start"] for f in record["fronts"]] == [1e-8, math.pi - 1e-8]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["front.json", "front_1.csv",
                                                         "front_2.csv"]


def test_coherent_drift_mode(capsys):
    code, out, _ = run(
        ["coherent", "--alpha", "1", "--beta", "0.5", "--mu", "1", "--h", "0",
         "--mode", "drift", "--omega-freq", "0.7"], capsys,
    )
    record = json.loads(out)
    assert record["monotone"] is True


def test_coherent_small_amplitude_mode(capsys):
    code, out, _ = run(
        ["coherent", "--alpha", "1", "--beta", "0", "--mu", "1", "--h", "0.5",
         "--mode", "small-amplitude", "--s", "5"], capsys,
    )
    record = json.loads(out)
    assert record["det_B"] < 0
    assert record["kernel_ok"] is True
    assert abs(record["q"] ** 2 - 0.5) < 1e-12


def test_coherent_small_amplitude_below_speed_bound_is_numerical_failure(capsys):
    code, _, err = run(
        ["coherent", "--mode", "small-amplitude", "--alpha", "1", "--mu", "1",
         "--h", "0.5", "--s", "0.01"], capsys,
    )
    assert code == 3
    assert "speed bound" in err


def test_coherent_fast_front_small_s_is_numerical_failure(capsys):
    code, _, err = run(["coherent", "--preset", "fast-front", "--s", "1"], capsys)
    assert code == 3
    assert "slow manifold breaks down" in err


def test_coherent_homoclinic_off_resonance_is_config_error(capsys, tmp_path):
    # the pendulum reduction needs Omega = beta/alpha = 1
    code, out, err = run(["coherent", "--preset", "cohex", "--omega-freq", "0.5",
                          "--out", str(tmp_path / "off.csv")], capsys)
    assert code == 2
    assert "config error" in err and "beta/alpha" in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_coherent_portrait_force_vanishes(capsys):
    code, out, _ = run(["coherent", "--mode", "portrait", "--alpha", "1", "--mu", "0",
                        "--h", "0"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["equilibria"] == [] and record["connections"] == []
    assert record["note"] == "force vanishes identically: every theta is an equilibrium"


def test_coherent_homoclinic_force_vanishes(capsys):
    code, out, _ = run(["coherent", "--mode", "homoclinic", "--alpha", "1", "--mu", "0",
                        "--h", "0"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["found"] is False
    assert record["note"] == "force vanishes identically: every theta is an equilibrium"


@pytest.mark.parametrize(
    "mu, h, k, state",
    [("1", "2", "0", "+e3"), ("1", "-2", "0", "-e3"), ("-1", "2", "0", "-e3"),
     ("1", "0.5", "1", "+e3"), ("1", "-0.5", "1", "+e3"),  # these two: mu = k^2
     ("1", "1", "1.4142135623730951", "-e3")],  # the wavetrain at this boundary k is -e3
)
def test_spectrum_e3_fallback_sign(capsys, mu, h, k, state):
    code, _, err = run(["spectrum", "--alpha", "1", "--mu", mu, "--h", h, "--k", k,
                        "--n-samples", "3"], capsys)
    assert code == 0
    assert f"emitting the {state} constant-state spectrum" in err


def test_simulate_equilibrium_flatline(capsys, tmp_path):
    out = tmp_path / "eq.csv"
    code, _, _ = run(["simulate", "--preset", "equilibrium", "--out", str(out),
                      "--t-final", "2"], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,norm_drift,energy,phi0"
    rows = np.array([list(map(float, line.split(","))) for line in lines[1:]])
    # a stable equilibrium stays put: no drift, constant energy
    assert np.max(rows[:, 1]) < 1e-12
    assert np.max(np.abs(rows[:, 2] - rows[0, 2])) < 1e-12
    final = (tmp_path / "eq_final.csv").read_text().strip().splitlines()
    assert final[0] == "x,m1,m2,m3,theta,q"


def test_simulate_deterministic_given_seed(capsys, tmp_path):
    args = ["simulate", "--alpha", "1", "--beta", "0.5", "--mu", "1", "--h", "1",
            "--initial", "e3", "--perturbation", "noise", "--amplitude", "1e-3",
            "--n", "32", "--t-final", "1", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(args + ["--out", str(a)], capsys)
    run(args + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_simulate_sideband_on_e3_is_config_error(capsys):
    code, out, err = run(
        ["simulate", "--preset", "equilibrium", "--perturbation", "sideband",
         "--ell", "1", "--amplitude", "0.1"], capsys,
    )
    assert code == 2
    assert "config error" in err and "sideband" in err
    assert out == ""


def _equilibrium_config(tmp_path, old, new):
    """A copy of the equilibrium preset with one line replaced."""
    text = preset_path("equilibrium").read_text()
    assert old in text
    path = tmp_path / "run.cfg"
    path.write_text(text.replace(old, new))
    return str(path)


def test_unknown_integrator_in_config_is_config_error(capsys, tmp_path):
    cfg = _equilibrium_config(tmp_path, "integrator = semi-implicit", "integrator = euler")
    code, out, err = run(["simulate", "--config", cfg], capsys)
    assert code == 2
    assert "config error" in err and "euler" in err
    assert out == ""


def test_unknown_perturbation_in_config_is_config_error(capsys, tmp_path):
    cfg = _equilibrium_config(tmp_path, "sign = 1", "sign = 1\nperturbation = bogus")
    code, out, err = run(["simulate", "--config", cfg], capsys)
    assert code == 2
    assert "config error" in err and "bogus" in err
    assert out == ""


@pytest.mark.parametrize(
    "command, old, new, key",
    [
        ("simulate", "t_final = 10.0", "t-final = 1.0", "t-final"),
        ("classify", "h = 0.9", "hh = 0.5", "hh"),
    ],
)
def test_unknown_key_in_config_is_config_error(capsys, tmp_path, command, old, new, key):
    cfg = _equilibrium_config(tmp_path, old, new)
    code, out, err = run([command, "--config", cfg], capsys)
    assert code == 2
    assert "config error" in err and key in err
    assert out == ""


@pytest.mark.parametrize(
    "command, preset",
    [("wavetrains", f"wavetrains-{x}") for x in "abc"]
    + [("coherent", f"phaseplane-{x}") for x in "abcd"]
    + [("coherent", p) for p in ("cohex", "wt-cyl-q", "fast-front")]
    + [("simulate", p) for p in ("equilibrium", "hopf", "sideband")]
    + [("classify", "hopf")],
)
def test_preset_keys_are_known(command, preset):
    """Every key in [model] and the command's section of a shipped preset is an option."""
    cp = load_config(str(preset_path(preset)))
    params_from_config(cp, build_parser().parse_args([command, "--preset", preset]))


@pytest.mark.parametrize(
    "argv, edit",
    [
        (["simulate", "--preset", "equilibrium", "--dt", "0"], None),
        (["simulate", "--preset", "equilibrium", "--dt", "-0.01"], None),
        (["simulate", "--preset", "equilibrium", "--sign", "2"], None),
        (["simulate"], ("sign = 1", "sign = 1\ndiag_every = 0")),
        (["simulate", "--preset", "equilibrium", "--n", "2"], None),
        (["simulate", "--preset", "equilibrium", "--L", "-1"], None),
        (["spectrum", "--alpha", "1", "--beta", "0", "--mu", "1", "--h", "0.5", "--k", "0.3",
          "--n-samples", "1"], None),
        (["coherent", "--mode", "small-amplitude", "--alpha", "1", "--mu", "1", "--h", "0.5",
          "--s", "5", "--theta0", "1"], None),
        (["wavetrains", "--preset", "wavetrains-a", "--n-k", "-1"], None),
        (["spectrum", "--alpha", "1", "--beta", "0", "--mu", "-1", "--h", "2", "--k", "0",
          "--n-samples", "-1"], None),
        (["spectrum", "--alpha", "1", "--beta", "0", "--mu", "-1", "--h", "2", "--k", "0",
          "--n-samples", "1"], None),
        # the constant-state fallback has no comoving frame
        (["spectrum", "--alpha", "1", "--mu", "-1", "--h", "2", "--k", "0", "--n-samples", "3",
          "--c-ph", "5"], None),
        (["simulate", "--alpha", "1", "--beta", "0.5", "--mu", "1", "--h", "1", "--k", "0.3",
          "--t-final", "0.1"], None),
        (["simulate", "--alpha", "1", "--beta", "0.5", "--mu", "1", "--h", "1", "--k", "0",
          "--perturbation", "sideband", "--ell", "0.3", "--amplitude", "0.01",
          "--t-final", "0.1"], None),
        (["simulate", "--alpha", "1", "--mu", "1", "--k", "1", "--t-final", "0.1"], None),
        (["classify", "--alpha", "1", "--config", "no-such-dir/missing.cfg"], None),
        (["simulate"], ("[model]", "[model")),
        (["simulate"], ("sign = 1", "sign = one")),
        # |h - beta/alpha| = 0.5 > |mu - k^2| = 0: no wavetrain at k = 1
        (["simulate", "--alpha", "1", "--mu", "1", "--h", "0.5", "--k", "1"], None),
        (["simulate", "--alpha", "1", "--initial", "e3", "--perturbation", "noise",
          "--amplitude", "0.1", "--seed", "-1", "--t-final", "0.05"], None),
        # ell = 0 is the carrier's own mode, not a sideband
        (["simulate", "--preset", "sideband", "--ell", "0"], None),
    ],
    ids=["dt-zero", "dt-negative", "sign-2", "diag-every-zero", "n-2", "L-negative",
         "n-samples-1", "theta0-1", "n-k-negative", "e3-n-samples-negative",
         "e3-n-samples-1", "e3-c-ph", "k-incommensurate", "ell-incommensurate",
         "k-degenerate-family", "config-missing", "config-malformed", "value-unparsable",
         "no-wavetrain", "seed-negative", "ell-zero"],
)
def test_out_of_range_setting_is_config_error(capsys, tmp_path, argv, edit):
    if edit is not None:
        argv = argv + ["--config", _equilibrium_config(tmp_path, *edit)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag outside its choices
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", "1", "--mu", "nan"],
    ["classify", "--alpha", "inf"],
    ["wavetrains", "--alpha", "1", "--mu", "nan", "--n-k", "3"],
    ["spectrum", "--alpha", "1", "--mu", "1", "--h", "0.5", "--k", "nan", "--n-samples", "3"],
    ["spectrum", "--alpha", "1", "--mu", "1", "--h", "0.5", "--k", "0.3", "--ell-max", "inf"],
    ["coherent", "--mode", "small-amplitude", "--alpha", "1", "--mu", "1", "--h", "0.5",
     "--s", "inf"],
    ["simulate", "--preset", "equilibrium", "--dt", "nan"],
], ids=["mu-nan", "alpha-inf", "wavetrains-mu-nan", "spectrum-k-nan", "spectrum-ell-max-inf",
        "small-amplitude-s-inf", "dt-nan"])
def test_non_finite_flag_is_config_error(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "config error" in err and "is not finite" in err


@pytest.mark.parametrize("command, old, new", [
    ("classify", "h = 0.9", "h = -inf"),
    ("simulate", "t_final = 10.0", "t_final = nan"),
])
def test_non_finite_config_value_is_config_error(capsys, tmp_path, command, old, new):
    code, out, err = run([command, "--config", _equilibrium_config(tmp_path, old, new)], capsys)
    assert code == 2 and out == ""
    assert "is not finite" in err


@pytest.mark.parametrize("initial", [["--initial", "e3"], ["--mu", "1", "--k", "0"]],
                         ids=["e3", "wavetrain"])
def test_negative_noise_amplitude_is_config_error(capsys, initial):
    code, out, err = run(["simulate", "--alpha", "1", *initial, "--perturbation", "noise",
                          "--amplitude", "-1", "--t-final", "0.05"], capsys)
    assert code == 2 and out == ""
    assert "noise amplitude must be non-negative" in err


def test_wavetrains_skips_a_degenerate_k(capsys):
    # at k = 1, mu = k^2 and b = 0: the wavetrain family is degenerate there
    code, out, _ = run(["wavetrains", "--alpha", "1", "--mu", "1", "--h", "0", "--k-min", "0",
                        "--k-max", "2", "--n-k", "3"], capsys)
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0", "0", "2", "2"]


def test_simulate_cfl_rejection_is_numerical_failure(capsys):
    code, _, err = run(
        ["simulate", "--alpha", "1", "--mu", "1", "--integrator", "rk4",
         "--n", "512", "--dt", "0.01", "--t-final", "1"], capsys,
    )
    assert code == 3
    assert "numerical failure" in err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_format_output(capsys):
    # h = 2 is not supercritical: k_star is undefined and written as null, not NaN
    for h, k_max, k_star_defined in (("0.5", "0.5", True), ("2", "3", False)):
        code, out, _ = run(
            ["wavetrains", "--alpha", "1", "--beta", "0", "--mu", "1", "--h", h,
             "--n-k", "5", "--k-max", k_max, "--format", "json"], capsys,
        )
        rows = json.loads(out, parse_constant=_reject_constant)
        assert code == 0 and isinstance(rows, list) and rows
        assert set(rows[0]) == {"k", "theta", "m3", "r", "omega", "stability_class", "k_star"}
        assert all((row["k_star"] is not None) == k_star_defined for row in rows)


def test_write_record_writes_non_finite_as_null(tmp_path):
    path = tmp_path / "record.json"
    write_record(str(path), {"a": math.nan, "b": [math.inf, 0.5, {"c": -math.inf}],
                             "d": (np.float64("nan"), "nan")})
    record = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert record == {"a": None, "b": [None, 0.5, {"c": None}], "d": [None, "nan"]}


def _reference_csv(header, columns):
    """The table as each value formatted on its own: "%.17g" text for a float."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("columns", [
    [[0.1, 5e-324, 1e16, 1e17, -0.0, math.inf, -math.inf, math.nan]],
    [np.arange(-3, 5), np.arange(8) % 3 == 0, [f"s{i}%" for i in range(8)],
     np.linspace(-1.0, 1.0, 8)],
    [np.array([]), [], np.array([], dtype=int)],
], ids=["floats", "int-bool-str-float", "no-rows"])
def test_write_columns_equals_per_value_text(tmp_path, columns):
    header = tuple(f"c{i}" for i in range(len(columns)))
    path = tmp_path / "table.csv"
    write_columns(str(path), header, columns, "csv")
    assert path.read_text() == _reference_csv(header, columns)


def test_store_every_is_no_option(capsys, tmp_path):
    # simulate writes no snapshots, so how often it stores them is no setting
    cfg = _equilibrium_config(tmp_path, "t_final = 10.0", "t_final = 10.0\nstore_every = 5")
    code, out, err = run(["simulate", "--config", cfg], capsys)
    assert code == 2 and "store_every" in err and out == ""
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--alpha", "1", "--store-every", "5"])
    assert exc.value.code == 2


def test_wavenumber_above_nyquist_is_config_error(capsys):
    # pi/dx = 8 on n = 16: mode 10 would alias to mode -6
    code, out, err = run(["simulate", "--alpha", "1", "--beta", "0.5", "--mu", "1", "--h", "1",
                          "--k", "10", "--n", "16", "--t-final", "0.05", "--dt", "0.001"], capsys)
    assert code == 2 and out == ""
    assert "alias" in err
