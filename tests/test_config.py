import pytest

from aldlab.config import (
    ConfigError,
    apply_ci_profile,
    load_config,
    parse_config_text,
)
from aldlab.cli import main
from conftest import variant_named

MINIMAL = """
[experiment]
kind = fig2_bias_vs_dim

[variant solo]
"""


def solo(*keys):
    """MINIMAL with ``keys`` added to its one variant."""
    return MINIMAL + "".join(f"{key}\n" for key in keys)


def test_minimal_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.experiment == "fig2_bias_vs_dim"
    assert cfg.schedule.n_steps == 20000
    assert cfg.schedule.dt == pytest.approx(9e-3)
    assert cfg.sampling.n_chains == 2500
    assert cfg.sweep.d_values[0] == 1 and cfg.sweep.d_values[-1] == 65
    assert cfg.variants[0].name == "solo"


def test_shipped_configs_parse():
    for name in ("fig1", "fig2", "fig3", "knn_robustness", "bounds"):
        cfg = load_config(f"configs/{name}.cfg")
        assert cfg.experiment


def test_unknown_key_rejected():
    bad = MINIMAL + "\n[schedule]\nn_step = 100\n"
    with pytest.raises(ConfigError, match="unknown key 'n_step'"):
        parse_config_text(bad)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text(MINIMAL + "\n[scheduling]\n")


@pytest.mark.parametrize("header", ["variants", "variantsolo"])
def test_variant_header_needs_the_word_variant(header):
    # [variants] used to read as a variant named 's'
    with pytest.raises(ConfigError, match=rf"<string>:7: unknown section \[{header}\]"):
        parse_config_text(MINIMAL + f"\n[{header}]\n")


def test_duplicate_variant_section_rejected():
    # a repeated header used to replace the first section's keys and give two
    # variants of one name, which failed only when the results were written
    bad = MINIMAL + "gamma_exponent = 1.5\n\n[variant solo]\ncbase_exponent = 2.7\n"
    with pytest.raises(ConfigError, match=r"<string>:8: duplicate section \[variant solo\]"):
        parse_config_text(bad)


def test_variant_name_follows_any_whitespace():
    cfg = parse_config_text(MINIMAL.replace("[variant solo]", "[ variant\t two words ]"))
    assert [v.name for v in cfg.variants] == ["two words"]


def test_variant_section_needs_a_name():
    with pytest.raises(ConfigError, match="<string>:7: variant section needs a name"):
        parse_config_text(MINIMAL + "\n[variant]\n")


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        parse_config_text("[experiment]\nkind = fig9\n")


def test_duplicate_key_rejected():
    bad = MINIMAL + "\n[schedule]\nn_steps = 10\nn_steps = 20\n"
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text(bad)


def test_bad_simplex_rejected():
    bad = MINIMAL + "\n[target]\nweights = 0.7, 0.2\n"
    with pytest.raises(ConfigError, match="simplex"):
        parse_config_text(bad)


def test_misspecified_variant_needs_perturbation():
    with pytest.raises(ConfigError, match="no perturbation"):
        parse_config_text(solo("drift = misspecified"))


@pytest.mark.parametrize("drift", ["exact", "ideal_corrected"])
@pytest.mark.parametrize("key", ["dsigma_scale = 0.1", "dmean_scale = 0.1", "dweights = -0.05, 0.05"])
def test_perturbation_keys_need_misspecified_drift(drift, key):
    with pytest.raises(ConfigError, match="variant 'solo' sets a perturbation key.*drift = misspecified"):
        parse_config_text(solo(f"drift = {drift}", key))


@pytest.mark.parametrize(
    "keys, message",
    [
        (("init_weights = 0.1, 0.2, 0.7",), "needs init_weights per component"),
        (("gamma_scale = 0.0",), "gamma_scale must be positive"),
        (("cbase_scale = -1.0",), "cbase_scale must be positive"),
        (("gamma_exponent = -0.5",), "gamma_exponent must be >= 0"),
        (("cbase_exponent = -1",), "cbase_exponent must be >= 0"),
        (("drift = misspecified", "dsigma_scale = 0.1", "dsigma_exponent = -3.5"), "dsigma_exponent must be >= 0"),
        (("drift = misspecified", "dmean_scale = 0.1", "dmean_exponent = -1"), "dmean_exponent must be >= 0"),
    ],
    ids=[
        "init_weights_per_component",
        "zero_gamma_scale",
        "negative_cbase_scale",
        "negative_gamma_exponent",
        "negative_cbase_exponent",
        "negative_dsigma_exponent",
        "negative_dmean_exponent",
    ],
)
def test_variant_values_checked_at_parse_time(keys, message):
    # each would otherwise parse and be ignored, or fail later inside build_ald_config
    with pytest.raises(ConfigError, match=f"variant 'solo' .*{message}"):
        parse_config_text(solo(*keys))


@pytest.mark.parametrize(
    "line, key",
    [
        ("var_exponent = -1", "var_exponent must be finite and >= 0"),
        ("var_exponent = inf", "var_exponent must be finite"),
        ("var_scales = 1.0, 0.0", "var_scales must be finite and positive"),
        ("var_scales = -1.0, 2.0", "var_scales must be finite and positive"),
    ],
)
def test_target_spectrum_checked_at_parse_time(line, key):
    # each would otherwise fail only when a cell builds its target
    with pytest.raises(ConfigError, match=f"target {key}"):
        parse_config_text(MINIMAL + f"\n[target]\n{line}\n")


@pytest.mark.parametrize(
    "section, line, where",
    [
        ("[target]", "weights = nan, 0.25", "target weights"),
        ("[target]", "mean_offsets = 0.0, nan", "target mean_offsets"),
        ("[target]", "var_scales = 1.0, inf", "target var_scales"),
        ("[schedule]", "dt = inf", "schedule dt"),
        ("[schedule]", "s_half = -inf", "schedule s_half"),
        ("[sweep]", "epsilon = nan", "sweep epsilon"),
        ("[variant solo]", "gamma_exponent = nan", "variant 'solo' gamma_exponent"),
        ("[variant solo]", "dsigma_scale = inf", "variant 'solo' dsigma_scale"),
    ],
)
def test_non_finite_values_rejected_at_parse_time(section, line, where):
    # a NaN weight or an infinite dt used to parse and reach the reports as nan rows
    text = f"[experiment]\nkind = fig2_bias_vs_dim\n{section}\n{line}\n"
    with pytest.raises(ConfigError, match=f"<string>:4: {where} must be finite, got"):
        parse_config_text(text)


@pytest.mark.parametrize("grid", ["1, 10", "-5, 10", "0", ""])
def test_step_grid_checked_at_parse_time(grid):
    # each used to parse; the step search then failed at its first schedule
    bad = MINIMAL + f"\n[sweep]\nstep_grid = {grid}\n"
    with pytest.raises(ConfigError, match="step_grid must list step counts of at least 2"):
        parse_config_text(bad)


def test_signed_perturbation_scale_parses():
    cfg = parse_config_text(solo("drift = misspecified", "dsigma_scale = -0.1", "dsigma_exponent = 3.5"))
    assert variant_named(cfg, "solo").dsigma_scale == -0.1


def test_removed_init_options_rejected():
    with pytest.raises(ConfigError, match="unknown key 'init'"):
        parse_config_text(solo("init = smoothed_tau"))
    for key in ("init_tau = 1.0, 1.0", "init_smoothed = false"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(solo(key))


def test_removed_kind_keys_rejected():
    # every spectrum is a power law; exponent 0 is the constant spectrum
    for key in ("gamma_kind = constant", "cbase_kind = power_law"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(solo(key))


@pytest.mark.parametrize(
    "section, line",
    [
        ("target", "mean_coord = 1"),
        ("target", "var_scale = 1.0"),
        ("variant solo", "init = custom_weights"),
        ("sweep", "step_cap = 20000"),
        ("output", "log_floor = 1e-4"),
    ],
)
def test_removed_derivable_keys_rejected(section, line):
    # means sit on coordinate 1, var_scales scale each component, a non-empty
    # init_weights selects the initial law, the step search stops at the
    # largest grid point, and the plot template owns its log floor
    text = MINIMAL if section == "variant solo" else MINIMAL + f"\n[{section}]\n"
    key = line.split(" =")[0]
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config_text(text + line + "\n")


def test_k_values_checked_against_sample_sizes_at_parse_time():
    # knn_kl needs k < n_target_samples and k <= n_chains; a bad k used to fail after a first cell ran
    with open("configs/fig2.cfg", encoding="utf-8") as fh:
        fig2 = fh.read()
    with pytest.raises(ConfigError, match="k_values 3000 must each be below n_target_samples = 2500"):
        parse_config_text(fig2.replace("k_values = 20, 50, 80", "k_values = 3000"))

    def sampling(n_target, n_chains, ks):
        return MINIMAL + f"\n[sampling]\nn_target_samples = {n_target}\nn_chains = {n_chains}\nk_values = {ks}\n"

    for bad in ((50, 100, "1, 50"), (100, 50, "51")):
        with pytest.raises(ConfigError, match="k_values"):
            parse_config_text(sampling(*bad))
    for edge in ((50, 100, "1, 49"), (100, 50, "50")):
        parse_config_text(sampling(*edge))


def test_duplicate_k_values_rejected():
    # a repeated k used to pass, and knn_robustness then estimated every batch
    # before it failed on a duplicate result key
    bad = MINIMAL + "\n[sampling]\nk_values = 20, 50, 20\n"
    with pytest.raises(ConfigError, match="k_values 20, 50, 20 must be distinct"):
        parse_config_text(bad)


def test_nonincreasing_d_rejected():
    bad = MINIMAL + "\n[sweep]\nd_values = 5, 5, 10\n"
    with pytest.raises(ConfigError, match="increasing"):
        parse_config_text(bad)


def test_ci_profile_preserves_horizon():
    cfg = load_config("configs/fig2.cfg")
    t_full = (cfg.schedule.n_steps - 1) * cfg.schedule.dt
    ci = apply_ci_profile(cfg)
    assert ci.schedule.n_steps == 2000
    assert (ci.schedule.n_steps - 1) * ci.schedule.dt == pytest.approx(t_full)
    assert ci.sampling.n_chains == 1000
    assert max(ci.sweep.d_values) <= 25
    assert ci.output.csv.endswith("_ci.csv")


def test_ci_profile_checks_k_values(tmp_path):
    # the ci profile cuts the sample sizes to 1000; a k that no longer fits
    # stops the run at config time instead of inside knn_kl after a cell ran
    with open("configs/fig2.cfg", encoding="utf-8") as fh:
        text = fh.read().replace("k_values = 20, 50, 80", "k_values = 20, 1500")
    path = tmp_path / "fig2_k.cfg"
    path.write_text(text.replace("csv = results/", f"csv = {tmp_path}/"), encoding="utf-8")
    load_config(str(path))  # fits the full-scale sizes
    with pytest.raises(ConfigError, match="fig2 under the ci profile: k_values 20, 1500 must each be below"):
        main(["run", str(path), "--profile", "ci"])
    assert not (tmp_path / "chain_cache").exists()


def test_ci_profile_fig1_keeps_grid():
    cfg = load_config("configs/fig1.cfg")
    ci = apply_ci_profile(cfg)
    assert ci.schedule.dt == cfg.schedule.dt
    assert max(ci.sweep.step_grid) == 20000
    assert ci.sweep.d_values == (1, 5, 12)

