"""Run-configuration parsing and validation."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

from poisson_bm import ConfigError, RunConfig, ThetaConfig, parse_config_text
from poisson_bm.runconfig import (
    ENV_OUTPUT_DIR,
    ENV_WORKERS,
    apply_env_overrides,
    load_config,
)

GOOD = """
# a complete configuration
cos_block = 1/2 pi, 2.2
sin_block = 1/2 pi, 1.1
allow_pi_in_cos = false
horizon_T = 1.0
epsilons = 0.2, 0.1
replications_M = 500
grid_points = 32
master_seed = 12345
checks = covariance, quadratic_variation
output_dir = runs/demo
workers = 2
"""


class TestParsing:
    def test_full_config(self):
        cfg = parse_config_text(GOOD)
        assert cfg.theta.n == 2 and cfg.theta.m == 2
        assert cfg.theta.cos_block[0].radians == pytest.approx(math.pi / 2)
        assert cfg.epsilons == (0.2, 0.1)
        assert cfg.replications_M == 500
        assert cfg.grid_points == 32
        assert cfg.master_seed == 12345
        assert cfg.resolved_checks == ("covariance", "quadratic_variation")
        assert str(cfg.output_dir) == "runs/demo"
        assert cfg.workers == 2

    def test_defaults(self):
        cfg = parse_config_text(
            "cos_block = 1.0\nepsilons = 0.5\nreplications_M = 100\nmaster_seed = 1\n"
        )
        assert cfg.horizon_T == 1.0
        assert cfg.grid_points == 64
        assert cfg.workers == 1
        assert not cfg.allow_invalid_theta
        # default bundle, no angle-pi component: the variance check is absent
        assert "stroock" not in cfg.resolved_checks
        assert "covariance" in cfg.resolved_checks

    def test_default_bundle_includes_stroock_with_pi(self):
        cfg = parse_config_text(
            "cos_block = pi\nallow_pi_in_cos = true\n"
            "epsilons = 0.5\nreplications_M = 100\nmaster_seed = 1\n"
        )
        assert "stroock" in cfg.resolved_checks

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text(
            "# leading comment\n\ncos_block = 1.0  # trailing\n"
            "epsilons = 0.5\nreplications_M = 100\nmaster_seed = 1\n"
        )
        assert cfg.theta.cos_block[0].radians == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("bogus = 1\ncos_block = 1.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("cos_block = 1.0\ncos_block = 2.0\n")

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config_text("cos_block = 1.0\n")

    def test_no_components_rejected(self):
        with pytest.raises(ConfigError, match="cos_block / sin_block"):
            parse_config_text("epsilons = 0.5\nreplications_M = 100\nmaster_seed = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("cos_block 1.0\n")

    def test_bad_angle_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(
                "cos_block = one pi\nepsilons = 0.5\nreplications_M = 100\nmaster_seed = 1\n"
            )

    def test_bad_value_names_line_key_and_value(self):
        text = "cos_block = 1.0\nepsilons = 0.5\ngrid_points = many\n"
        with pytest.raises(ConfigError, match="line 3: grid_points: .*'many'"):
            parse_config_text(text + "replications_M = 100\nmaster_seed = 1\n")

    def test_minimal_file_takes_every_field_default(self):
        from_file = parse_config_text(
            "cos_block = 1.0\nepsilons = 0.5\nreplications_M = 100\nmaster_seed = 1\n"
        )
        direct = RunConfig(
            theta=ThetaConfig(cos_block=[1.0]), epsilons=(0.5,), replications_M=100,
            master_seed=1,
        )
        for f in dataclasses.fields(RunConfig):
            assert getattr(from_file, f.name) == getattr(direct, f.name), f.name

    def test_empty_check_list_rejected(self):
        with pytest.raises(ConfigError, match="checks must be nonempty"):
            parse_config_text(
                "cos_block = 1.0\nepsilons = 0.5\nreplications_M = 100\nmaster_seed = 1\n"
                "checks =\n"
            )


def _readme_config_block() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration files", 1)[1]
    return re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)


class TestReadme:
    def test_config_block_parses_and_sets_every_key(self):
        block = _readme_config_block()
        parse_config_text(block)
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
        schema = {f.name for f in dataclasses.fields(RunConfig)} - {"theta"}
        schema |= {f.name for f in dataclasses.fields(ThetaConfig)}
        assert keys == schema


class TestValidation:
    def _base(self, **overrides):
        kwargs = dict(
            theta=ThetaConfig(cos_block=[1.0]),
            epsilons=(0.2, 0.1),
            replications_M=100,
            master_seed=1,
        )
        kwargs.update(overrides)
        return kwargs

    def test_epsilons_must_decrease(self):
        with pytest.raises(ConfigError, match="decreasing"):
            RunConfig(**self._base(epsilons=(0.1, 0.2)))

    def test_epsilons_bounded_by_one(self):
        with pytest.raises(ConfigError, match="\\(0, 1\\]"):
            RunConfig(**self._base(epsilons=(1.5,)))

    def test_horizon_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            RunConfig(**self._base(epsilons=(1e-5,)))

    def test_replications_minimum(self):
        with pytest.raises(ConfigError, match="replications"):
            RunConfig(**self._base(replications_M=1))

    def test_master_seed_range(self):
        with pytest.raises(ConfigError, match="64-bit"):
            RunConfig(**self._base(master_seed=2**64))

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown checks"):
            RunConfig(**self._base(checks=("covariance", "nonsense")))

    def test_empty_check_list_rejected(self):
        with pytest.raises(ConfigError, match="checks must be nonempty"):
            RunConfig(**self._base(checks=()))

    def test_martingale_needs_two_grid_steps(self):
        for checks in (("default",), ("martingale",)):
            with pytest.raises(ConfigError, match="martingale check needs grid_points >= 2"):
                RunConfig(**self._base(grid_points=1, checks=checks))
        assert RunConfig(**self._base(grid_points=2, checks=("martingale",))).grid_points == 2
        assert RunConfig(**self._base(grid_points=1, checks=("covariance",))).grid_points == 1

    def test_explicit_stroock_needs_pi_cosine(self):
        with pytest.raises(ConfigError, match="stroock check needs an angle-pi"):
            RunConfig(**self._base(checks=("covariance", "stroock")))
        pi_theta = ThetaConfig(cos_block=["pi"], allow_pi_in_cos=True)
        cfg = RunConfig(**self._base(theta=pi_theta, checks=("stroock",)))
        assert cfg.resolved_checks == ("stroock",)

    def test_cross_moments_need_two_components(self):
        # one component has no pair: the check would pass vacuously
        with pytest.raises(ConfigError, match="cross_moments check needs at least 2"):
            RunConfig(**self._base(checks=("covariance", "cross_moments")))
        assert "cross_moments" not in RunConfig(**self._base()).resolved_checks
        two = ThetaConfig(cos_block=[1.0], sin_block=[2.0])
        assert "cross_moments" in RunConfig(**self._base(theta=two)).resolved_checks

    @pytest.mark.parametrize("d", [4, 32])
    def test_replication_memory_cap_boundary(self, d):
        # 2T/eps^2 jumps at 26 + 16 d bytes each; at eps = 1 that is 2T jumps
        angles = [f"{k}/17 pi" for k in range(1, d // 2 + 1)]
        theta = ThetaConfig(cos_block=angles, sin_block=angles)
        boundary_T = 2**30 / (2 * (26 + 16 * d))
        below = RunConfig(**self._base(theta=theta, epsilons=(1.0,),
                                       horizon_T=boundary_T * (1 - 1e-9)))
        assert below.theta.dimension == d
        with pytest.raises(ConfigError, match="cap"):
            RunConfig(**self._base(theta=theta, epsilons=(1.0,),
                                   horizon_T=boundary_T * (1 + 1e-9)))


class TestEnvOverrides:
    def test_output_dir_override(self, monkeypatch):
        monkeypatch.setenv(ENV_OUTPUT_DIR, "/tmp/elsewhere")
        cfg = apply_env_overrides(parse_config_text(GOOD))
        assert str(cfg.output_dir) == "/tmp/elsewhere"

    def test_workers_override(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "7")
        cfg = apply_env_overrides(parse_config_text(GOOD))
        assert cfg.workers == 7

    def test_bad_workers_override_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "many")
        with pytest.raises(ConfigError, match="POISSON_BM_WORKERS: expected an integer"):
            apply_env_overrides(parse_config_text(GOOD))

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_override_below_one_gets_the_validation_message(
        self, monkeypatch, workers
    ):
        monkeypatch.setenv(ENV_WORKERS, workers)
        with pytest.raises(ConfigError, match="^workers must be at least 1$"):
            apply_env_overrides(parse_config_text(GOOD))

    def test_load_config_applies_overrides(self, tmp_path, monkeypatch):
        p = tmp_path / "run.cfg"
        p.write_text(GOOD, encoding="utf-8")
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert load_config(p).workers == 3

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/run.cfg")
