"""Run-configuration parsing and validation."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from poisson_bm import (
    BuildPlan,
    ConfigError,
    EvaluationGrid,
    RunConfig,
    ThetaConfig,
    parse_config_text,
)
from poisson_bm.process import BLOCK_BYTES_CAP
from poisson_bm.runconfig import (
    ENV_OUTPUT_DIR,
    ENV_WORKERS,
    apply_env_overrides,
    load_config,
)
from poisson_bm.runner import CHECKS

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

    @pytest.mark.parametrize("angle", ["1/1073741825 pi", f"{10**400} pi", f"1/{10**400} pi"])
    def test_angle_beyond_the_bounds_is_refused_naming_them(self, angle):
        text = f"cos_block = {angle}\nepsilons = 0.5\nreplications_M = 100\nmaster_seed = 1\n"
        with pytest.raises(ConfigError, match="line 1: cos_block: .*q at most 1073741824, "
                                              r"within a float's range"):
            parse_config_text(text)

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


# ROADMAP finding 5's config without its horizon: the demo angles in 8 steps
FINDING_5_CFG = ("cos_block = 1/2 pi\nsin_block = 1/2 pi\nepsilons = 0.4, 0.2\n"
                 "replications_M = 200\ngrid_points = 8\nmaster_seed = 7\n")

# for each check with a need, a config that cannot feed it and feeds every other
UNFED = {
    "cross_moments": dict(theta=ThetaConfig(cos_block=["pi"], allow_pi_in_cos=True)),
    "normality": dict(replications_M=99),
    "martingale": dict(grid_points=1),
    "fourth_moment": dict(horizon_T=1e-200),
    "stroock": dict(theta=ThetaConfig(cos_block=[1.0], sin_block=[2.0])),
}


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

    def test_epsilon_refused_as_the_plan_refuses_it(self):
        # one rule, process.path_horizon, for the config and for every plan
        grid = EvaluationGrid(1.0, 64)
        for eps in (0.0, 1.5):
            with pytest.raises(ValueError) as plan_error:
                BuildPlan(ThetaConfig(cos_block=[1.0]), eps, grid)
            with pytest.raises(ConfigError) as config_error:
                RunConfig(**self._base(epsilons=(eps,)))
            assert str(config_error.value) == str(plan_error.value)
            assert str(config_error.value) == f"epsilon must be in (0, 1], got {eps}"

    def test_a_grid_whose_times_can_tie_is_refused_at_load(self, tmp_path):
        # it used to load with times 0, 0, 5e-324 and fail after its first epsilon
        path = tmp_path / "tied.cfg"
        path.write_text("cos_block = 1.0\nepsilons = 0.5\nreplications_M = 100\n"
                        "master_seed = 1\nhorizon_T = 5e-324\ngrid_points = 2\n")
        with pytest.raises(ConfigError, match=r"^the grid step horizon_T / steps = "
                                              r"5e-324 / 2 is below the smallest normal"):
            load_config(path)

    @pytest.mark.parametrize("T", ["1e-200", "1e-78"])
    def test_a_horizon_whose_dyadic_pieces_underflow_is_refused_at_load(self, tmp_path, T):
        # ROADMAP finding 5: at 1e-200 the fourth-moment ratio divided 0 by 0, and
        # at 1e-78 its Delta^4 was subnormal
        path = tmp_path / "tiny.cfg"
        path.write_text(FINDING_5_CFG + f"horizon_T = {T}\n")
        _, need, fix = CHECKS["fourth_moment"].need
        with pytest.raises(ConfigError) as exc_info:
            load_config(path)
        assert str(exc_info.value) == f"the fourth_moment check needs {need}; {fix} or drop the check"

    @pytest.mark.parametrize("T,steps,fed", [
        (4.885354679021847e-77, 8, False),  # just below 4 * tiny**0.25
        (4.885354679021848e-77, 8, True),
        (5e-77, 8, True),
        (5e-77, 6, True),  # 2 divides 6, 4 does not: the smallest piece is T/2
        (2.4e-77, 6, False),
        (2.4e-77, 3, True),  # the one piece [0, T]
        (1.22e-77, 3, False),
    ])
    def test_the_fourth_moment_floor_is_on_the_smallest_dyadic_piece(self, T, steps, fed):
        base = self._base(horizon_T=T, grid_points=steps)
        if fed:
            assert RunConfig(**base, checks=("fourth_moment",)).resolved_checks == ("fourth_moment",)
        else:
            with pytest.raises(ConfigError, match="^the fourth_moment check needs"):
                RunConfig(**base, checks=("fourth_moment",))
        # the other checks do not need it
        assert RunConfig(**base, checks=("covariance",)).horizon_T == T

    def test_horizon_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            RunConfig(**self._base(epsilons=(1e-5,)))

    @pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_finite_and_positive(self, T):
        # inf used to pass here and be refused only as an inf-byte replication
        message = f"horizon_T must be finite and positive, got {T!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**self._base(horizon_T=T))

    def test_replications_minimum(self):
        with pytest.raises(ConfigError, match="replications"):
            RunConfig(**self._base(replications_M=1))

    def test_master_seed_range(self):
        with pytest.raises(ConfigError, match="64-bit"):
            RunConfig(**self._base(master_seed=2**64))

    @pytest.mark.parametrize("field,value", [
        ("replications_M", 2.5), ("grid_points", 2.5), ("master_seed", 2.5),
        ("master_seed", 7.5), ("workers", 2.5),
    ])
    def test_integer_fields_refuse_a_float(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value}$"):
            RunConfig(**self._base(**{field: value}))

    def test_integer_fields_are_stored_as_int(self):
        # report.json echoes them: np.int64 would not serialise, True would read true
        cfg = RunConfig(**self._base(replications_M=np.int64(100), master_seed=np.int64(7),
                                     workers=np.int64(1), grid_points=True,
                                     checks=("covariance",)))
        for name in ("replications_M", "master_seed", "workers", "grid_points"):
            assert type(getattr(cfg, name)) is int, name
        assert cfg.echo()["grid_points"] == 1

    @pytest.mark.parametrize("overrides,message", [
        (dict(horizon_T=True), "horizon_T must be a real number, got True"),
        (dict(horizon_T=np.True_), "horizon_T must be a real number, got np.True_"),
        (dict(horizon_T="1"), "horizon_T must be a real number, got '1'"),
        (dict(horizon_T=None), "horizon_T must be a real number, got None"),
        (dict(epsilons=("0.4",)), "epsilons[0] must be a real number, got '0.4'"),
        (dict(epsilons=(0.4, True)), "epsilons[1] must be a real number, got True"),
        (dict(epsilons=0.4), "epsilons must be a sequence of real numbers, got 0.4"),
    ])
    def test_real_fields_refuse_anything_but_a_real_number(self, overrides, message):
        # True ran as T = 1 and "0.4" as 0.4; the rest raised a bare TypeError
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**self._base(**overrides))

    def test_real_fields_are_stored_as_float(self):
        # report.json echoes them: 1 would read 1, not 1.0, and np.int64 would not serialise
        want = json.dumps(RunConfig(**self._base(horizon_T=1.0, epsilons=(1.0, 0.5))).echo())
        for T, eps in ((1, (1, 0.5)), (np.int64(1), (np.int64(1), np.float32(0.5))),
                       (np.float32(1.0), np.array([1.0, 0.5]))):
            cfg = RunConfig(**self._base(horizon_T=T, epsilons=eps))
            assert type(cfg.horizon_T) is float
            assert all(type(e) is float for e in cfg.epsilons)
            assert json.dumps(cfg.echo()) == want

    @pytest.mark.parametrize("T", [10**400, -10**400])
    def test_horizon_beyond_floats_range_gets_the_validation_message(self, T):
        message = f"horizon_T must be finite and positive, got {'inf' if T > 0 else '-inf'}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**self._base(horizon_T=T))

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_flag_refuses_anything_but_a_bool(self, value):
        # "false" is truthy: it used to run an inadmissible vector as a counterexample
        with pytest.raises(
            ConfigError, match=f"^allow_invalid_theta must be True or False, got {value!r}$"
        ):
            RunConfig(**self._base(allow_invalid_theta=value))

    def test_numpy_flag_is_stored_as_bool(self):
        cfg = RunConfig(**self._base(allow_invalid_theta=np.True_))
        assert cfg.allow_invalid_theta is True
        assert cfg.echo()["allow_invalid_theta"] is True

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown checks"):
            RunConfig(**self._base(checks=("covariance", "nonsense")))

    def test_empty_check_list_rejected(self):
        with pytest.raises(ConfigError, match="checks must be nonempty"):
            RunConfig(**self._base(checks=()))

    def test_a_bare_string_of_checks_is_refused_naming_the_field(self):
        # it used to be read as its characters: "unknown checks: c, o, v, ..."
        with pytest.raises(
            ConfigError, match="^checks must be a sequence of check names, got 'covariance'$"
        ):
            RunConfig(**self._base(checks="covariance"))

    def test_every_need_refuses_its_check_and_sets_the_default_bundle(self):
        assert UNFED.keys() == {name for name, check in CHECKS.items() if check.need}
        for name, overrides in UNFED.items():
            _, need, fix = CHECKS[name].need
            message = f"the {name} check needs {need}; {fix} or drop the check"
            with pytest.raises(ConfigError) as exc_info:
                RunConfig(**self._base(checks=(name,), **overrides))
            assert str(exc_info.value) == message
            if CHECKS[name].default_drops_unfed:
                default = RunConfig(**self._base(**overrides)).resolved_checks
                assert default == tuple(c for c in CHECKS if c != name)
            else:
                with pytest.raises(ConfigError) as exc_info:
                    RunConfig(**self._base(**overrides))
                assert str(exc_info.value) == message

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

    def test_default_mixed_with_check_names_rejected(self):
        # the bundle would run and the named check would be dropped unseen
        pi_theta = ThetaConfig(cos_block=["pi"], allow_pi_in_cos=True)
        for theta, checks in ((ThetaConfig(cos_block=[1.0]), ("default", "stroock")),
                              (ThetaConfig(cos_block=[1.0]), ("default", "cross_moments")),
                              (pi_theta, ("covariance", "default"))):
            with pytest.raises(ConfigError, match="default cannot be mixed with check names"):
                RunConfig(**self._base(theta=theta, checks=checks))
        assert RunConfig(**self._base(theta=pi_theta)).resolved_checks[-1] == "stroock"

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


    def test_replication_memory_cap_boundary_odd_d(self):
        # d = 3 pads one lane: 26 + 32 ceil(d/2) = 26 + 16 (d + 1) bytes per jump
        theta = ThetaConfig(cos_block=["1/17 pi", "2/17 pi"], sin_block=["1/17 pi"])
        boundary_T = 2**30 / (2 * (26 + 32 * 2))
        below = RunConfig(**self._base(theta=theta, epsilons=(1.0,),
                                       horizon_T=boundary_T * (1 - 1e-9)))
        assert below.theta.dimension == 3
        with pytest.raises(ConfigError, match="cap"):
            RunConfig(**self._base(theta=theta, epsilons=(1.0,),
                                   horizon_T=boundary_T * (1 + 1e-9)))


    def test_sample_block_cap_boundary(self):
        # M d (grid_points + 1) doubles; validating allocates none of them
        theta = ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=["1/2 pi", 1.1])
        M_cap = BLOCK_BYTES_CAP // (4 * 64 * 8)
        at_cap = RunConfig(**self._base(theta=theta, grid_points=63, replications_M=M_cap))
        assert at_cap.replications_M * 4 * 64 * 8 == BLOCK_BYTES_CAP
        with pytest.raises(ConfigError, match=rf"M = {M_cap + 1} replications, d = 4 "
                                              r"components and G = 64 grid times"):
            RunConfig(**self._base(theta=theta, grid_points=63, replications_M=M_cap + 1))
        with pytest.raises(ConfigError, match=r"G = 1099511627777 grid times .* cap"):
            RunConfig(**self._base(grid_points=2**40))

    @pytest.mark.parametrize("name", ["demo.cfg", "d32.cfg"])
    def test_grid_is_the_runs_grid(self, name):
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / name)
        assert config.grid == EvaluationGrid(config.horizon_T, config.grid_points)


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

    def test_byte_order_mark_is_ignored(self, tmp_path):
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        text = GOOD.split("\n", 2)[2]  # a key on line 1
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes() == b"\xef\xbb\xbfcos_block" + plain.read_bytes()[9:]
        assert load_config(bom) == load_config(plain)
