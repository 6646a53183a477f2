import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mobiusflat import cli
from mobiusflat.checks import CHECK_FUNCTIONS, SAMPLE_PAD, sample_points
from mobiusflat.cli import main
from mobiusflat.config import RunConfig, load_config, parse_config
from mobiusflat.immersion import ImmersionHandle
from mobiusflat.moebius import fields_from_immersion
from mobiusflat.curvature import Convention, convert_scalar
from mobiusflat.errors import ConfigError, InputError
from mobiusflat.meshes import slice_grid
from mobiusflat.spiral import IntegratorControls, SpiralParams, integrate_grid
from mobiusflat.zoo import build_family

from test_harness import REMOVED_KEYS

FLOAT_KEYS = [f.name for f in fields(RunConfig) if f.type == "float"]

FAST_VERIFY = "checks = trace_identities,principal_multiplicity\nsamples = 4\n"


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestVerifyCommand:
    def test_pass_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_VERIFY)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["all_asserts_pass"] is True
        assert {c["name"] for c in report["checks"]} == {
            "trace_identities",
            "principal_multiplicity",
        }
        assert (out / "report.md").exists() and (out / "checks.csv").exists()

    def test_failing_check_exit_one(self, tmp_path, monkeypatch):
        # no config key moves a threshold, so the failure is forced in the registry
        strict = replace(CHECK_FUNCTIONS["trace_identities"], tolerance=1e-30)
        monkeypatch.setitem(CHECK_FUNCTIONS, "trace_identities", strict)
        cfg = write_cfg(tmp_path, "checks = trace_identities\nsamples = 4\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_empty_check_set(self, tmp_path):
        cfg = write_cfg(tmp_path, "checks =\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"] == []

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_VERIFY + "seed = 11\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", cfg, "--out", str(a)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_VERIFY)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["verify", "--config", cfg, "--out", str(a), "--seed", "1"])
        main(["verify", "--config", cfg, "--out", str(b), "--seed", "2"])
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        assert ra["environment"]["config_hash"] != rb["environment"]["config_hash"]


class TestConfigErrors:
    def test_zero_tolerance_exit_two(self, tmp_path, capsys):
        # a tolerance is registered with its check, not read from the config
        cfg = write_cfg(tmp_path, "tol_constancy = 0\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'tol_constancy'" in capsys.readouterr().err

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        for text in ("zzz = 7\n", "spiral_variant = alternate\n", "curvature_step = 0.01\n"):
            cfg = write_cfg(tmp_path, text)
            assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert "unknown key" in capsys.readouterr().err

    def test_n_three_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "n = 3\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "n must be >= 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spiral", "build", "verify", "rigidity"])
    def test_convention_belongs_to_invariants(self, tmp_path, capsys, command):
        # only invariants reports a normalization; the other commands refuse the flag
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "o"), "--convention", "half"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --convention" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text,command,reason",
        [
            ("obj_axes = a,b,c\n", "build", "obj_axes must be comma-separated integers"),
            ("obj_axes = 0,1\n", "build", "obj_axes must be 'auto' or three"),
            ("slice_axes = 1,1\n", "build", "slice_axes must be two distinct integers"),
            ("slice_axes = 0,4\n", "build", "slice_axes must be two distinct integers"),
            ("grid_spread = 0\n", "rigidity", "grid_spread must be positive"),
            ("grid_spread = 1.5\nhorizon = 20\n", "rigidity", "grid_spread must be below 1"),
            ("grid_spread = 1\n", "rigidity", "grid_spread must be below 1"),
            ("grid_spread = 0.9999999\nhorizon = 20\n", "rigidity", "grid row 0 (kappa0 "),
            ("grid_spread = 0.5\n", "rigidity", "first integral E = 0.588"),
            ("step = nan\n", "verify", "step must be finite"),
            ("step = nan\n", "rigidity", "step must be finite"),
            ("horizon = inf\n", "rigidity", "horizon must be finite"),
            ("tol_constancy = nan\n", "verify", "unknown key 'tol_constancy'"),
            (
                "checks = trace_identities,trace_identities\n",
                "verify",
                "check 'trace_identities' is named twice",
            ),
            ("kappa0 = 0.0\n", "spiral", "kappa0 must lie strictly between"),
            ("kappa0 = -1.0\n", "build", "kappa0 must lie strictly between"),
            ("kappa0 = 2e6\n", "spiral", "kappa0 must lie strictly between"),
            ("seed = -1\n", "invariants", "seed must be >= 0"),
            ("samples = 0\n", "verify", "samples must be at least 1, got 0"),
            ("grid_size = 0\n", "rigidity", "grid_size must be at least 1, got 0"),
            ("slice_res = 1\n", "build", "slice_res must be at least 2, got 1"),
            ("family = cone\ns_max = 0.2\n", "build", "s_max = 0.2 is too short for the cone"),
            ("family = cone\ns_max = 0.2\n", "invariants", "spiral ends at s = 0.2 (horizon)"),
            ("family = cylinder\ns_max = 0.31\n", "build", "keeps 0.15 + 0.1 inside each end"),
            ("family = cylinder\ns_max = 0.31\n", "invariants", "keeps 0.15 + 0.12 inside"),
        ],
        ids=[
            "obj_axes-text", "obj_axes-count", "slice_axes-repeat", "slice_axes-range",
            "grid_spread", "grid_spread-above-one", "grid_spread-one",
            "grid_spread-below-floor", "grid_spread-open-orbits", "step-nan-verify",
            "step-nan-rigidity", "horizon-inf",
            "tol_constancy-nan", "checks-repeated", "kappa0-zero", "kappa0-negative",
            "kappa0-above-ceiling", "seed-negative", "samples-zero", "grid_size-zero",
            "slice_res-one", "s_max-cone-build", "s_max-cone-invariants",
            "s_max-cylinder-build", "s_max-cylinder-invariants",
        ],
    )
    def test_unrunnable_config_exit_two(self, tmp_path, capsys, text, command, reason):
        # validate() refuses each but the grid_spread-below-floor and
        # grid_spread-open-orbits ones, so no command starts on it: non-integer
        # axes would escape build as a traceback, a zero grid_spread makes every
        # rigidity row the equilibrium, a grid_spread of 1 or more gives a
        # grid row kappa0 = kappa* (1 - grid_spread) <= 0, which stops the scan
        # with an integration error (exit 1); rigidity_scan refuses a grid
        # with a row off the closed orbits around kappa* (first integral
        # E >= 0) before it marches: at 0.9999999 its lowest kappa0 is below
        # the floor 1e-6 (an integration error), and at 0.5 five rows run to
        # the floor (status fail); and a NaN or infinite value passes
        # every "<= 0" test and escapes as a traceback or a NaN verdict, and a
        # kappa0 outside (kappa_floor, kappa_ceiling) stops spiral and build
        # with an integration error (exit 1), a negative seed escapes
        # numpy's generator as a traceback, and a check named twice would
        # build the suite and then stop on the duplicate record (exit 1); a
        # removed key such as tol_constancy is unknown; and a spiral too short
        # for its family's chart, less its margin and the slice or sample pad
        # on the arc-length axis, stops build and invariants in the chart
        # (an InputError, exit 1), so cli refuses it before building
        cfg = write_cfg(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err

    def test_short_chart_stays_an_input_error_in_the_library(self):
        # only cli reads a short spiral as a setting; zoo, meshes and
        # sample_points refuse the chart it gives with an InputError
        def spiral(epsilon, s_max):
            controls = IntegratorControls(s_max=s_max)
            return integrate_grid(SpiralParams(4, epsilon, 0.75), [[1.25, 0.05]], controls)[0]

        with pytest.raises(InputError, match="too short for the chart margin"):
            build_family("cone", spiral(1, 0.2), 4)
        cylinder = build_family("cylinder", spiral(0, 0.31), 4)
        with pytest.raises(InputError, match="chart axis 0 too narrow for a slice"):
            slice_grid(cylinder, (0, 1), 4)
        with pytest.raises(InputError, match="narrower than twice the sample pad 0.12"):
            sample_points(cylinder, 3, np.random.default_rng(0))

    def test_negative_seed_override_exit_two(self, tmp_path, capsys):
        # --seed re-validates the config it overrides
        assert main(["verify", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed must be >= 0" in err

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", FLOAT_KEYS + list(REMOVED_KEYS))
    def test_non_finite_float_key_refused(self, name, value):
        if name in REMOVED_KEYS:  # refused whatever its value, as an unknown key
            with pytest.raises(ConfigError, match=f"unknown key '{name}'"):
                parse_config(f"{name} = {value}\n")
            return
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            replace(RunConfig(), **{name: value}).validate()

    @pytest.mark.parametrize(
        "family,axes,reason",
        [
            ("rotational", "0,1,9", "obj_axes must lie in [0, 5)"),
            ("torus", "0,1,6", "obj_axes must lie in [0, 6)"),
            ("rotational", "0,0,0", "obj_axes must be three distinct integers"),
        ],
        ids=["range", "torus-range", "repeat"],
    )
    def test_obj_axes_outside_the_surface_exit_two(self, tmp_path, capsys, family, axes, reason):
        # the ambient dimension is the family's (n + 1, or n + 2 for the
        # torus), so the range is checked once the surface is built
        cfg = write_cfg(tmp_path, f"family = {family}\nobj_axes = {axes}\n")
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err
        assert not (tmp_path / "o" / f"{family}.obj").exists()

    def test_obj_axes_inside_the_torus_space(self, tmp_path):
        cfg = write_cfg(tmp_path, "family = torus\nobj_axes = 0,1,5\n")
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


class TestOutputErrors:
    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        # a regular file where a directory is expected: makedirs fails
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_cfg(tmp_path, "checks =\n")
        assert main(["verify", "--config", cfg, "--out", str(blocker / "x")]) == 2
        assert "error: cannot write output:" in capsys.readouterr().err

    def test_unwritable_report_file_exit_two(self, tmp_path, capsys):
        # the directory exists, but a report path inside it is a directory
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        cfg = write_cfg(tmp_path, "checks =\n")
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert "error: cannot write output:" in capsys.readouterr().err


class TestDataCommands:
    def test_spiral_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, "s_max = 1.0\n")
        assert main(["spiral", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("#") and "epsilon=-1" in lines[0]
        assert lines[1].split(",")[:3] == ["s", "kappa", "kappa_s"]
        assert len(lines) > 100

    def test_build_obj_and_descriptor(self, tmp_path):
        cfg = write_cfg(tmp_path, "family = torus\nslice_res = 8\n")
        assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 0
        obj = (tmp_path / "torus.obj").read_text().splitlines()
        verts = [[float(x) for x in ln.split()[1:]] for ln in obj if ln.startswith("v ")]
        assert len(verts) == 64
        assert all(len(v) == 3 for v in verts)
        assert sum(1 for ln in obj if ln.startswith("f ")) == 49
        desc = json.loads((tmp_path / "torus.json").read_text())
        assert desc["resolution"] == 8
        assert len(desc["ambient_projection_axes"]) == 3

    def test_invariants_csv(self, tmp_path):
        # the normalization converts the two full-trace scalar columns and nothing else
        cfg = write_cfg(tmp_path, "family = torus\nsamples = 3\n")
        tables = {}
        for conv in Convention:
            out = tmp_path / conv.value
            args = ["invariants", "--config", cfg, "--out", str(out), "--convention", conv.value]
            assert main(args) == 0
            lines = (out / "invariants.csv").read_text().splitlines()
            assert f"convention={conv.value}" in lines[0]
            assert len(lines) == 2 + 3
            tables[conv] = [line.split(",") for line in lines[1:]]
        header, *full_rows = tables[Convention.FULL_TRACE]
        scalars = [header.index("scalar_direct"), header.index("scalar_conformal")]
        for conv in (Convention.HALF_TRACE, Convention.NORMALIZED):
            assert tables[conv][0] == header
            for row, full in zip(tables[conv][1:], full_rows):
                for j, (value, full_value) in enumerate(zip(row, full)):
                    if j in scalars:
                        expected = convert_scalar(float(full_value), Convention.FULL_TRACE, conv, 4)
                        assert float(value) == expected
                    else:
                        assert value == full_value

    @pytest.mark.parametrize("family", ["rotational", "cylinder", "cone", "torus"])
    def test_invariants_make_one_request(self, tmp_path, monkeypatch, family):
        # the records and both scalar routes come from one jet of the immersion
        # at the sample points, and the table is the bytes of two requests, one
        # for the records and one for the scalars
        cfg_path = write_cfg(tmp_path, f"family = {family}\nsamples = 5\n")
        cfg = load_config(cfg_path)
        imm = cli._build_surface(cfg, SAMPLE_PAD)
        pts = sample_points(imm, cfg.samples, np.random.default_rng(cfg.seed))
        at_samples, depth = [], []
        evaluate = ImmersionHandle.evaluate_jet

        def counted(self, points, order=2):
            if not depth:  # a lifted surface evaluates its base inside its own jet
                at_samples.append(np.array_equal(points, pts))
            depth.append(1)
            try:
                return evaluate(self, points, order)
            finally:
                depth.pop()

        monkeypatch.setattr(ImmersionHandle, "evaluate_jet", counted)
        assert main(["invariants", "--config", cfg_path, "--out", str(tmp_path / "one")]) == 0
        assert sum(at_samples) == 1
        def two_requests(imm):
            honest = fields_from_immersion(imm)

            def jets(pts, order=2):
                one, two = honest.jets(pts, order), honest.jets(pts, order)
                return SimpleNamespace(
                    records=one.records,
                    direct_scalar=two.direct_scalar,
                    conformal_scalar=two.conformal_scalar,
                )

            return replace(honest, jets=jets)

        monkeypatch.setattr(cli, "fields_from_immersion", two_requests)
        at_samples.clear()
        assert main(["invariants", "--config", cfg_path, "--out", str(tmp_path / "two")]) == 0
        assert sum(at_samples) == 2
        one = (tmp_path / "one" / "invariants.csv").read_bytes()
        assert one == (tmp_path / "two" / "invariants.csv").read_bytes()

    def test_invariants_stay_inside_the_kappa_band(self, tmp_path):
        # at the default config the spiral reaches kappa = 1.1 at s = 1.66055,
        # so the surface that invariants samples ends there
        cfg = write_cfg(tmp_path, "kappa_floor = 1.1\n")
        assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "invariants.csv").read_text().splitlines()[2:]
        assert rows and all(float(row.split(",")[0]) < 1.66 for row in rows)

    def test_rigidity_files_are_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, "horizon = 30\ngrid_size = 2\n")
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["rigidity", "--config", cfg, "--out", str(out)]) == 0
        for name in ("rigidity.json", "rigidity_grid.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_rigidity_maps_no_openssl(self, tmp_path):
        # hashlib maps OpenSSL's libcrypto (_hashlib), which only a config hash
        # needs, and rigidity hashes no config; in a fresh interpreter, since
        # pytest imports hashlib itself
        cfg = write_cfg(tmp_path, "horizon = 1\ngrid_size = 2\n")
        code = (
            "import sys\n"
            "from mobiusflat.cli import main\n"
            f"assert main(['rigidity', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print('_hashlib' in sys.modules, 'hashlib' in sys.modules)\n"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["False", "False"]

    def test_rigidity_small(self, tmp_path):
        cfg = write_cfg(tmp_path, "horizon = 30\ngrid_size = 2\n")
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "rigidity.json").read_text())
        assert result["status"] == "pass"
        for row in result["grid"]:
            assert math.isfinite(row["kappa_period"]) and row["kappa_period"] > 0
            assert math.isfinite(row["holonomy_trace"])
        header = (tmp_path / "rigidity_grid.csv").read_text().splitlines()[0]
        assert header.endswith(",kappa_period,holonomy_trace")
