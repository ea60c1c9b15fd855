"""CLI pipelines: config validation, determinism, strict exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pathgibbs

from pathgibbs.cli import main, validate_config, ConfigError, DEFAULTS


def write_config(path, **overrides):
    cfg = {"run": {"seed": 7}}
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        cfg.setdefault(section, {})[key] = value
    path.write_text(json.dumps(cfg))
    return path


def run_cli(tmp_path, command, config, *flags):
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out), *flags])
    return code, out


def load_summary(out, command):
    return json.loads((out / f"{command.replace('-', '_')}.json").read_text())


# ---------------------------------------------------------------------------
# config validation


def test_defaults_resolve_and_embed():
    cfg = validate_config({"run": {"seed": 3}})
    assert cfg["model"]["v"] == "harmonic"
    assert cfg["run"]["seed"] == 3
    assert cfg["grid"]["points"] == DEFAULTS["grid"]["points"]


def test_seed_is_mandatory():
    with pytest.raises(ConfigError, match="run.seed"):
        validate_config({})


def test_unknown_field_path_reported():
    with pytest.raises(ConfigError, match="grid.cells"):
        validate_config({"run": {"seed": 1}, "grid": {"cells": 100}})
    with pytest.raises(ConfigError, match="extras"):
        validate_config({"run": {"seed": 1}, "extras": {}})


def test_catalog_names_checked():
    with pytest.raises(ConfigError, match="model.v"):
        validate_config({"run": {"seed": 1}, "model": {"v": "quartic"}})
    with pytest.raises(ConfigError, match="model.w"):
        validate_config({"run": {"seed": 1}, "model": {"w": "yukawa"}})


def test_type_errors_name_the_field():
    with pytest.raises(ConfigError, match="grid.dt"):
        validate_config({"run": {"seed": 1}, "grid": {"dt": "fast"}})
    with pytest.raises(ConfigError, match="diagnostics.t_ladder"):
        validate_config({"run": {"seed": 1}, "diagnostics": {"t_ladder": []}})


def test_integer_fields_reject_fractions():
    with pytest.raises(ConfigError, match="run.sweeps: expected an integer"):
        validate_config({"run": {"seed": 1, "sweeps": 20.9}})
    with pytest.raises(ConfigError, match="grid.points: expected an integer"):
        validate_config({"run": {"seed": 1}, "grid": {"points": 41.6}})
    # an integral float is the integer it spells
    cfg = validate_config({"run": {"seed": 1, "sweeps": 20.0}})
    assert cfg["run"]["sweeps"] == 20 and isinstance(cfg["run"]["sweeps"], int)


@pytest.mark.parametrize("section, key, value, field", [
    ("grid", "dt", float("inf"), "grid.dt"),
    ("grid", "upper", float("nan"), "grid.upper"),
    ("model", "coupling", True, "model.coupling"),
    ("run", "sweeps", True, "run.sweeps"),
    ("model", "pin", [True, False], "model.pin"),
    ("model", "pin", [0.0, float("-inf")], "model.pin"),
    ("diagnostics", "t_ladder", [1.0, float("nan")], "diagnostics.t_ladder"),
    ("diagnostics", "r_list", [1.0, False], "diagnostics.r_list"),
], ids=["dt-inf", "upper-nan", "coupling-bool", "sweeps-bool", "pin-bools", "pin-inf",
        "t-ladder-nan", "r-list-bool"])
def test_non_finite_numbers_and_booleans_rejected(section, key, value, field):
    user = {"run": {"seed": 1}}
    user.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"^{field}: expected"):
        validate_config(user)


def test_infinity_in_a_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"run": {"seed": 1}, "grid": {"dt": Infinity}}')   # Python's json reads it
    assert main(["conditions", "--config", str(config)]) == 2
    assert "error: grid.dt: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("run", [{"sweeps": 20.9}, {"sweeps": 4, "record_every": 5}],
                         ids=["fractional-sweeps", "record-every-above-sweeps"])
def test_sample_rejects_unusable_run_fields_with_exit_2(tmp_path, capsys, run):
    config = write_config(tmp_path / "cfg.json",
                          **small_instance({f"run.{k}": v for k, v in run.items()}))
    code, out = run_cli(tmp_path, "sample", config)
    assert code == 2
    field = "run.sweeps" if "record_every" not in run else "run.record_every"
    assert f"error: {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("grid.points", 2, "expected at least 3"),
    ("grid.radial_points", 2, "expected at least 3"),
    ("run.sweeps", 0, "expected at least 1"),
    ("run.burnin", -1, "expected at least 0"),
    ("run.block_len", 0, "expected at least 1"),
    ("run.chains", 0, "expected at least 1"),
    ("run.record_every", 0, "expected at least 1"),
    ("diagnostics.growth_paths", 0, "expected at least 1"),
    ("diagnostics.hit_paths", 0, "expected at least 2"),
    ("diagnostics.hit_paths", 1, "expected at least 2"),
    ("model.dim", True, "expected a finite number"),
])
def test_fields_outside_their_type_or_minimum_exit_2(tmp_path, capsys, field, value, message):
    config = write_config(tmp_path / "cfg.json", **{field: value})
    code, out = run_cli(tmp_path, "conditions", config)
    assert code == 2
    assert capsys.readouterr().err == f"error: {field}: {message}\n"
    assert not out.exists()


def test_bad_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["conditions", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["conditions", "--config", str(bad)]) == 2
    unseeded = tmp_path / "unseeded.json"
    unseeded.write_text("{}")
    assert main(["conditions", "--config", str(unseeded)]) == 2
    assert "run.seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommand pipelines


def test_solve_ground_state_harmonic(tmp_path):
    config = write_config(tmp_path / "cfg.json", **{"output.formats": ["json", "csv"]})
    code, out = run_cli(tmp_path, "solve-ground-state", config, "--strict")
    assert code == 0
    summary = load_summary(out, "solve-ground-state")
    assert abs(summary["energy"] - 0.5) < 1e-3
    assert summary["config"]["run"]["seed"] == 7
    table = (out / "ground_state.csv").read_text().splitlines()
    assert table[0].startswith("# config=")
    assert table[1] == "x,psi"


def test_solve_ground_state_radial(tmp_path):
    config = write_config(tmp_path / "cfg.json",
                          **{"model.v": "coulomb3d", "model.dim": 3})
    code, out = run_cli(tmp_path, "solve-ground-state", config, "--strict")
    assert code == 0
    summary = load_summary(out, "solve-ground-state")
    assert abs(summary["energy"] + 0.5) < 1e-3
    assert summary["radial"] is True


def test_solve_ground_state_radial_harmonic(tmp_path):
    # dim 3 solves any catalog V radially; the harmonic well needs a box its
    # profile does not underflow in, and gives the 3-d oscillator's 3/2
    config = write_config(tmp_path / "cfg.json",
                          **{"model.dim": 3, "grid.radial_rmax": 7, "grid.radial_points": 1400})
    code, out = run_cli(tmp_path, "solve-ground-state", config, "--strict")
    assert code == 0
    assert abs(load_summary(out, "solve-ground-state")["energy"] - 1.5) < 1e-3


def test_sample_zero_interaction_strict_passes(tmp_path):
    config = write_config(tmp_path / "cfg.json",
                          **{"run.sweeps": 1500, "run.burnin": 100,
                             "run.chains": 32, "run.seed": 11,
                             "grid.t_half": 1.0,
                             "output.formats": ["json", "csv", "jsonl"]})
    code, out = run_cli(tmp_path, "sample", config, "--strict")
    assert code == 0
    summary = load_summary(out, "sample")
    assert summary["stationary_ks"] < 0.01
    names = {c["name"]: c["passed"] for c in summary["checks"]}
    assert names["stationary-ks"] and names["acceptance-positive"]
    lines = (out / "sample_paths.jsonl").read_text().splitlines()
    assert "config" in json.loads(lines[0])
    rec = json.loads(lines[1])
    assert len(rec["positions"]) == len(rec["time_indices"])


def test_sample_pinned_strict_passes(tmp_path):
    config = write_config(tmp_path / "cfg.json",
                          **{"model.pin": [-1.0, 1.0], "run.sweeps": 100, "run.burnin": 20,
                             "run.chains": 8, "grid.t_half": 1.0,
                             "output.formats": ["json", "jsonl"]})
    code, out = run_cli(tmp_path, "sample", config, "--strict")
    assert code == 0
    names = [c["name"] for c in load_summary(out, "sample")["checks"]]
    assert names == ["acceptance-positive"]
    for line in (out / "sample_paths.jsonl").read_text().splitlines()[1:]:
        positions = json.loads(line)["positions"]
        assert positions[0] == -1.0 and positions[-1] == 1.0


def small_instance(extra=None):
    cfg = {"model.w": "nelson", "model.coupling": 0.5,
           "grid.lower": -2.0, "grid.upper": 2.0, "grid.points": 5,
           "grid.dt": 0.5, "grid.t_half": 1.0, "grid.s_half": 0.5}
    if extra:
        cfg.update(extra)
    return cfg


def test_oracle_compare_strict_passes(tmp_path):
    config = write_config(tmp_path / "cfg.json",
                          **small_instance({"run.sweeps": 2000, "run.burnin": 200,
                                            "run.chains": 32, "run.seed": 5}))
    code, out = run_cli(tmp_path, "oracle-compare", config, "--strict")
    assert code == 0
    summary = load_summary(out, "oracle-compare")
    assert summary["tv_max"] < 0.02
    assert len(summary["tv_per_slice"]) == 5


def test_dlr_test_strict_passes(tmp_path):
    config = write_config(tmp_path / "cfg.json",
                          **small_instance({"grid.t_half": 1.5, "grid.s_half": 1.0}))
    code, out = run_cli(tmp_path, "dlr-test", config, "--strict")
    assert code == 0
    summary = load_summary(out, "dlr-test")
    assert summary["tv_vs_brute_force"] < 1e-10
    assert summary["max_log_ratio_to_bridge"] <= 2 * summary["frame_bound"] + 1e-9


def test_energy_check_strict_passes(tmp_path):
    config = write_config(tmp_path / "cfg.json",
                          **{"model.w": "nelson", "model.coupling": 1.0,
                             "grid.t_half": 2.0, "run.seed": 9})
    code, out = run_cli(tmp_path, "energy-check", config, "--strict")
    assert code == 0
    summary = load_summary(out, "energy-check")
    assert summary["fold_identity_max_gap"] <= 1e-9
    assert summary["constant_identity_max_gap"] <= 1e-10
    assert summary["strip_violations"] == 0


def test_diagnose_ratio_and_window(tmp_path):
    config = write_config(tmp_path / "cfg.json",
                          **small_instance({
                              "diagnostics.reports": ["ratio", "window"],
                              "diagnostics.t_ladder": [0.5, 1.0, 1.5],
                              "diagnostics.ratio_radius": 1.5}))
    code, out = run_cli(tmp_path, "diagnose", config, "--strict")
    assert code == 0
    summary = load_summary(out, "diagnose")
    assert summary["window"]["route"] == "exact"
    tvs = [d["tv"] for d in summary["window"]["distances"]]
    assert tvs[0] > tvs[1]
    assert summary["ratio"]["bounded"]
    assert len(summary["ratio"]["m_hats"]) == 3


def test_diagnose_summary_schema(tmp_path):
    # every section is its report's fields plus the named properties, so a
    # new report field changes the summary; two configs keep this quick
    wide = write_config(tmp_path / "wide.json",
                        **{"model.w": "nelson", "model.coupling": 0.5,
                           "grid.lower": -6.0, "grid.upper": 6.0, "grid.points": 25,
                           "run.sweeps": 50, "run.burnin": 10, "run.chains": 4,
                           "diagnostics.reports": ["tightness", "hitting", "growth"],
                           "diagnostics.t_ladder": [1.0, 2.0], "diagnostics.r_list": [1.0],
                           "diagnostics.growth_t": 4.0, "diagnostics.growth_paths": 100,
                           "diagnostics.hit_paths": 100, "output.formats": ["json", "csv"]})
    code, out = run_cli(tmp_path, "diagnose", wide)
    assert code == 0
    summary = load_summary(out, "diagnose")
    assert set(summary) == {"tightness", "hitting", "growth", "checks", "config"}
    assert set(summary["tightness"]) == {"cells", "k_hat", "trend_pvalue", "domination_holds"}
    cell_keys = {"T", "R", "p_hat", "half_width", "tail", "flagged"}
    assert [set(c) for c in summary["tightness"]["cells"]] == [cell_keys, cell_keys]
    assert set(summary["hitting"]) == {"radius", "gamma", "estimate", "stderr", "tail_bound",
                                       "rhs_bound", "hit_fraction", "certified"}
    assert set(summary["growth"]) == {"fit", "gamma", "rows", "limsup_proxy", "summability",
                                      "fit_ok"}
    assert set(summary["growth"]["fit"]) == {"amplitude", "beta", "residual"}
    assert set(summary["growth"]["summability"]) == {"gamma", "slope", "partial_sum", "summable"}
    row_keys = {"n", "threshold", "p_hat", "ci_low", "ci_high", "exact"}
    assert [set(r) for r in summary["growth"]["rows"]] == [row_keys] * 3
    table = (out / "tightness_cells.csv").read_text().splitlines()
    assert table[1] == "T,R,p_hat,half_width,tail,flagged"
    assert len(table) == 4

    small = write_config(tmp_path / "small.json",
                         **small_instance({"diagnostics.reports": ["window", "ratio"],
                                           "diagnostics.t_ladder": [0.5, 1.0]}))
    code, out = run_cli(tmp_path, "diagnose", small)
    assert code == 0
    summary = load_summary(out, "diagnose")
    assert set(summary) == {"window", "ratio", "checks", "config"}
    assert set(summary["window"]) == {"s_half", "distances", "route"}
    assert [set(d) for d in summary["window"]["distances"]] == [
        {"t_small", "t_large", "tv", "stderr"}]
    assert set(summary["ratio"]) == {"t_values", "m_hats", "k_hat", "bounded"}


@pytest.mark.parametrize("extra", [
    {"grid.points": 3, "diagnostics.t_ladder": [1.0, 2.0]},    # 9 time slices
    {"grid.points": 11, "diagnostics.t_ladder": [0.5, 1.0]},   # 11 space nodes
], ids=["slices", "nodes"])
def test_diagnose_window_falls_back_to_mc_beyond_the_oracle(tmp_path, extra):
    config = write_config(tmp_path / "cfg.json",
                          **small_instance({"diagnostics.reports": ["window"],
                                            "run.sweeps": 200, "run.burnin": 50,
                                            **extra}))
    code, out = run_cli(tmp_path, "diagnose", config)
    assert code == 0
    assert load_summary(out, "diagnose")["window"]["route"] == "mc"


def test_conditions_nelson_monotone_holds(tmp_path):
    import math
    config = write_config(tmp_path / "cfg.json",
                          **{"model.w": "nelson", "model.coupling": 1.0})
    code, out = run_cli(tmp_path, "conditions", config, "--strict")
    assert code == 0
    summary = load_summary(out, "conditions")
    assert abs(summary["interaction_budget"] - math.pi) < 1e-8
    assert summary["monotone"] is True
    assert summary["sufficient_condition_holds"] is True
    assert summary["alpha"] == "inf"


def test_strict_failure_exits_1(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json",
                          **{"model.w": "step", "model.coupling": 1.0})
    code, out = run_cli(tmp_path, "conditions", config, "--strict")
    assert code == 1
    assert "failed check" in capsys.readouterr().err
    # without --strict the failure is reported but the exit code stays 0
    code, out = run_cli(tmp_path, "conditions", config)
    assert code == 0
    summary = load_summary(out, "conditions")
    assert summary["monotone"] is False


def test_domain_errors_exit_2(tmp_path, capsys):
    # an s_half off the time grid surfaces as a config-style error
    config = write_config(tmp_path / "cfg.json",
                          **small_instance({"grid.s_half": 0.3}))
    code, _ = run_cli(tmp_path, "dlr-test", config)
    assert code == 2
    assert "window" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism and output routing


def test_sample_byte_identical_reruns(tmp_path):
    config = write_config(tmp_path / "cfg.json",
                          **small_instance({"run.sweeps": 300, "run.chains": 4,
                                            "run.seed": 13,
                                            "output.formats": ["json", "jsonl"]}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sample", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["sample", "--config", str(config), "--out", str(out_b)]) == 0
    assert (out_a / "sample.json").read_bytes() == (out_b / "sample.json").read_bytes()
    assert (out_a / "sample_paths.jsonl").read_bytes() == \
        (out_b / "sample_paths.jsonl").read_bytes()


def test_outdir_env_and_flag_precedence(tmp_path, monkeypatch):
    config = write_config(tmp_path / "cfg.json")
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("PATHGIBBS_OUTDIR", str(env_dir))
    assert main(["conditions", "--config", str(config)]) == 0
    assert (env_dir / "conditions.json").exists()
    flag_dir = tmp_path / "from-flag"
    assert main(["conditions", "--config", str(config),
                 "--out", str(flag_dir)]) == 0
    assert (flag_dir / "conditions.json").exists()


def test_config_embedded_in_every_output(tmp_path):
    config = write_config(tmp_path / "cfg.json",
                          **{"output.formats": ["json", "csv"]})
    code, out = run_cli(tmp_path, "solve-ground-state", config)
    assert code == 0
    summary = load_summary(out, "solve-ground-state")
    assert summary["config"]["grid"]["points"] == 801
    first = (out / "ground_state.csv").read_text().splitlines()[0]
    embedded = json.loads(first[len("# config="):])
    assert embedded["grid"]["points"] == 801


def test_module_entry_point_imports_without_runtime_warning():
    # `python -m pathgibbs.cli` warns if the package has already imported cli
    src = str(Path(pathgibbs.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "pathgibbs.cli",
                           "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


def readme_examples():
    """(command, config text) of each `pathgibbs <command> --config <file>
    --strict` line in README.md, the config taken from the same block's
    `echo '...' > file` or `cat > file <<'EOF'` heredoc."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        configs = {name: text for text, name in re.findall(r"^echo '(.*)' > (\S+)$", block, re.M)}
        configs.update(re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)\nEOF$", block, re.M | re.S))
        examples += [(command, configs[name]) for command, name in
                     re.findall(r"^pathgibbs (\S+) --config (\S+) --strict$", block, re.M)]
    return examples


README_EXAMPLES = readme_examples()


def test_readme_lists_three_examples():
    # a README edit the parsing misses fails here, not by running nothing
    assert [command for command, _ in README_EXAMPLES] == [
        "solve-ground-state", "oracle-compare", "diagnose"]


@pytest.mark.parametrize("command, text", README_EXAMPLES,
                         ids=[command for command, _ in README_EXAMPLES])
def test_readme_example_passes_its_own_strict(tmp_path, command, text):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    assert run_cli(tmp_path, command, config, "--strict")[0] == 0
