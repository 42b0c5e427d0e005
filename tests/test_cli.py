"""Command-line interface: subcommands, file formats, determinism, and
exit codes (0 success, 2 input error)."""

import json

import numpy as np
import pytest

from diffkde import (
    DomainMask,
    abramson_estimate,
    bin_linear,
    bin_linear_2d,
    build_pilot,
    diffusion_pipeline,
    euler_sample,
    gauss_kde_2d,
    gauss_kde_spectral,
    hall_park_estimate,
    isj2d_select,
    isj_select,
    lscv_select,
    make_grid,
    make_grid_2d,
    normal_ref_2d_select,
    sinc_kde,
    sj_normal_ref_select,
    solve_diffusion,
    solve_heat_masked,
    theta_sample,
)
import diffkde
from diffkde import testbed
from diffkde.bandwidth import functional_norm
from diffkde.cli import _read_lines, _read_sample, _write_csv, main
from diffkde.kde2d import psi_hat


@pytest.fixture()
def sample_file(tmp_path):
    x = np.random.default_rng(60).normal(size=500)
    path = tmp_path / "x.txt"
    path.write_text("\n".join(repr(float(v)) for v in x) + "\n")
    return path, x


@pytest.fixture()
def sample2d_file(tmp_path):
    p = np.random.default_rng(61).normal(size=(300, 2))
    path = tmp_path / "p.csv"
    path.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in p) + "\n")
    return path, p


class TestBandwidthCommand:
    def test_report_fields_and_value(self, sample_file, tmp_path):
        path, x = sample_file
        out = tmp_path / "bw.json"
        assert main(["bandwidth", "--input", str(path), "--output", str(out),
                     "--grid-n", "4096"]) == 0
        doc = json.loads(out.read_text())
        amise_t = (4.0 / (3.0 * x.size)) ** 0.4 * x.std() ** 2
        assert 0.25 * amise_t < doc["t_star"] < 4.0 * amise_t
        assert doc["converged"] is True
        assert doc["method"] == "isj"
        assert doc["t2_star"] > 0

    def test_empty_input(self, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("# only a comment\n")
        out = tmp_path / "bw.json"
        assert main(["bandwidth", "--input", str(src),
                     "--output", str(out)]) == 2
        assert "empty sample" in capsys.readouterr().err

    def test_zero_range_sample_is_an_input_error(self, tmp_path, capsys):
        src = tmp_path / "const.txt"
        src.write_text("3.0\n" * 50)
        assert main(["bandwidth", "--input", str(src),
                     "--output", str(tmp_path / "bw.json")]) == 2
        assert "zero range" in capsys.readouterr().err

    def test_two_dimensional_grid_options_reach_the_selector(self, sample2d_file, tmp_path):
        path, p = sample2d_file
        out = tmp_path / "bw2.json"
        assert main(["bandwidth", "--input", str(path), "--output", str(out),
                     "--dims", "2", "--grid-n-2d", "64", "--pad", "0.2"]) == 0
        doc = json.loads(out.read_text())
        t_star, t1, t2, _ = isj2d_select(bin_linear_2d(p, make_grid_2d(p, 64, 0.2)))
        assert (doc["t_star_unit"], doc["t_x1"], doc["t_x2"]) == (t_star, t1, t2)

    @pytest.mark.parametrize("selector", ["isj", "sj"])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_pad_is_reported(self, dims, selector, sample_file, sample2d_file, tmp_path):
        path, _ = sample2d_file if dims == 2 else sample_file
        out = tmp_path / "bw.json"
        assert main(["bandwidth", "--input", str(path), "--output", str(out),
                     "--dims", str(dims), "--selector", selector, "--pad", "0.3"]) == 0
        assert json.loads(out.read_text())["pad_fraction"] == 0.3

    def test_two_dimensional_report(self, sample2d_file, tmp_path):
        path, _ = sample2d_file
        out = tmp_path / "bw2.json"
        assert main(["bandwidth", "--input", str(path), "--output", str(out),
                     "--dims", "2"]) == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "isj2d"
        assert doc["t_star_unit"] > 0
        assert doc["t_x1"] > 0 and doc["t_x2"] > 0


class TestDensityCommand:
    def test_fixed_bandwidth_is_bit_reproducible(self, sample_file, tmp_path):
        path, _ = sample_file
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["density", "--input", str(path), "--output", str(out),
                         "--method", "gauss", "--selector", "fixed:0.01",
                         "--grid-n", "4096"]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().splitlines()
        assert len(lines) == 4096 + 1
        assert lines[0].startswith("# integral=")

    def test_grid_options_reach_the_selector(self, sample_file, tmp_path):
        path, x = sample_file
        out = tmp_path / "g.csv"
        assert main(["density", "--input", str(path), "--output", str(out),
                     "--method", "gauss", "--grid-n", "4096", "--pad", "0.3"]) == 0
        vals = np.loadtxt(out, delimiter=",", comments="#")[:, 1]
        grid = make_grid(x, n=4096, pad_fraction=0.3)
        t = isj_select(bin_linear(x, make_grid(x, 4096, 0.3))).t_star
        np.testing.assert_array_equal(vals, gauss_kde_spectral(bin_linear(x, grid), t).values)

    def test_diffusion_integral_header(self, sample_file, tmp_path):
        path, _ = sample_file
        out = tmp_path / "d.csv"
        assert main(["density", "--input", str(path), "--output", str(out),
                     "--method", "diffusion", "--grid-n", "4096"]) == 0
        header = out.read_text().splitlines()[0]
        integral = float(header.split("=", 1)[1])
        assert abs(integral - 1.0) < 1e-6

    def test_values_are_nonnegative_and_parse(self, sample_file, tmp_path):
        path, _ = sample_file
        out = tmp_path / "g.csv"
        assert main(["density", "--input", str(path), "--output", str(out),
                     "--method", "theta", "--selector", "fixed:0.05",
                     "--grid-n", "4096"]) == 0
        rows = [line.split(",") for line in
                out.read_text().strip().splitlines()[1:]]
        vals = np.array([float(v) for _, v in rows])
        assert np.all(vals >= 0.0)

    def test_unknown_method(self, sample_file, tmp_path):
        path, _ = sample_file
        assert main(["density", "--input", str(path),
                     "--output", str(tmp_path / "o.csv"),
                     "--method", "nope"]) == 2

    def test_malformed_input(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("1.0\nnot-a-number\n")
        assert main(["density", "--input", str(src),
                     "--output", str(tmp_path / "o.csv")]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_unwritable_output_is_an_input_error(self, sample_file, tmp_path, capsys):
        path, _ = sample_file
        out = tmp_path / "missing" / "f.csv"
        assert main(["density", "--input", str(path), "--output", str(out),
                     "--selector", "fixed:0.05", "--grid-n", "4096"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    def test_bandwidth_below_one_grid_step_is_a_numerical_failure(self, tmp_path, capsys):
        src = tmp_path / "tied.txt"
        src.write_text("0.0\n" * 500 + "1.0\n" * 500)
        out = tmp_path / "o.csv"
        assert main(["density", "--input", str(src), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "n=1048576 grid: the bandwidth is below one grid step" in err
        assert not out.exists()

    def test_sinc_keeps_its_mass_on_a_degenerate_lscv_draw(self, tmp_path):
        # LSCV falls back to its ladder midpoint on this draw; the whole-line
        # sinc sum once wrote mass 1.083 there
        x = testbed.registry()["bimodal_pm2"].sample(1000, np.random.default_rng([17, 37]))
        src, out = tmp_path / "x.txt", tmp_path / "f.csv"
        src.write_text("\n".join(repr(float(v)) for v in x) + "\n")
        with pytest.warns(UserWarning, match="ladder"):
            assert main(["density", "--method", "sinc", "--input", str(src),
                         "--output", str(out)]) == 0
        integral = float(out.read_text().splitlines()[0].split("=", 1)[1])
        assert abs(integral - 1.0) <= 1e-3

    def test_mask_requires_dims_2(self, sample_file, tmp_path):
        path, _ = sample_file
        assert main(["density", "--input", str(path),
                     "--output", str(tmp_path / "o.csv"),
                     "--mask", "whatever.csv"]) == 2

    def test_two_dimensional_output(self, sample2d_file, tmp_path):
        path, _ = sample2d_file
        out = tmp_path / "d2.csv"
        assert main(["density", "--input", str(path), "--output", str(out),
                     "--dims", "2", "--selector", "fixed:0.05",
                     "--grid-n-2d", "64"]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 64 * 64 + 1
        integral = float(lines[0].split("=", 1)[1])
        assert abs(integral - 1.0) < 1e-6

    @pytest.mark.parametrize("method", ["theta", "diffusion", "abramson", "sinc", "hallpark"])
    def test_two_dimensional_rejects_one_dimensional_methods(self, method, sample2d_file,
                                                             tmp_path, capsys):
        path, _ = sample2d_file
        out = tmp_path / "d2.csv"
        assert main(["density", "--input", str(path), "--output", str(out),
                     "--dims", "2", "--method", method, "--selector", "fixed:0.05"]) == 2
        assert f"--method {method}" in capsys.readouterr().err
        assert not out.exists()


class TestSampleCommand:
    def test_deterministic_under_seed(self, sample_file, tmp_path):
        path, x = sample_file
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            assert main(["sample", "--input", str(path), "--output", str(out),
                         "--method", "theta", "--selector", "fixed:0.05",
                         "--count", "200", "--seed", "11",
                         "--grid-n", "4096"]) == 0
        assert a.read_bytes() == b.read_bytes()
        draws = np.array([float(v) for v in a.read_text().split()])
        assert draws.size == 200
        r = x.max() - x.min()
        assert draws.min() >= x.min() - 0.1 * r - 1e-12
        assert draws.max() <= x.max() + 0.1 * r + 1e-12

    def test_euler_sampler(self, sample_file, tmp_path):
        path, x = sample_file
        out = tmp_path / "e.txt"
        assert main(["sample", "--input", str(path), "--output", str(out),
                     "--method", "euler", "--selector", "fixed:0.05",
                     "--count", "100", "--steps", "120", "--seed", "4",
                     "--grid-n", "4096"]) == 0
        draws = np.array([float(v) for v in out.read_text().split()])
        assert draws.size == 100 and np.all(np.isfinite(draws))

    def test_nonpositive_count(self, sample_file, tmp_path, capsys):
        path, _ = sample_file
        assert main(["sample", "--input", str(path),
                     "--output", str(tmp_path / "o.txt"),
                     "--count", "0"]) == 2
        assert "count" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["theta", "euler"])
    def test_two_dimensional_is_an_input_error(self, method, sample2d_file, tmp_path,
                                               capsys):
        path, _ = sample2d_file
        out = tmp_path / "o.txt"
        assert main(["sample", "--input", str(path), "--output", str(out),
                     "--method", method, "--count", "5", "--dims", "2"]) == 2
        assert "--dims 2" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_sampler(self, sample_file, tmp_path):
        path, _ = sample_file
        assert main(["sample", "--input", str(path),
                     "--output", str(tmp_path / "o.txt"),
                     "--method", "nope", "--count", "5"]) == 2


class TestBenchmarkCommand:
    def test_outputs_and_summary(self, tmp_path, capsys):
        assert main(["benchmark", "--case", "bimodal_pm2", "--n", "200",
                     "--trials", "3", "--method-a", "isj", "--method-b", "sj",
                     "--seed", "5", "--output", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "bimodal_pm2" in printed and "median ratio" in printed
        csv_lines = (tmp_path / "bimodal_pm2_N200.csv").read_text(
            ).strip().splitlines()
        assert len(csv_lines) == 4
        doc = json.loads((tmp_path / "bimodal_pm2_N200.json").read_text())
        assert doc["ratio_median"] > 0
        assert doc["failures"] == []

    def test_summary_counts_failed_trials(self, tmp_path, capsys, monkeypatch):
        calls = []

        def fails_on_first_call(x, grid, lscv_t):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("no root")
            return testbed.METHODS["sj"](x, grid, lscv_t)

        monkeypatch.setitem(testbed.METHODS, "isj", fails_on_first_call)
        assert main(["benchmark", "--case", "bimodal_pm2", "--n", "200",
                     "--trials", "2", "--seed", "5", "--output", str(tmp_path)]) == 0
        assert "1 trials, 1 failed" in capsys.readouterr().out
        doc = json.loads((tmp_path / "bimodal_pm2_N200.json").read_text())
        assert doc["failures"] == [{"trial": 0, "message": "ValueError: no root"}]

    @pytest.mark.parametrize("option", [["--selector", "lscv"], ["--grid-n", "4096"],
                                        ["--dims", "2"], ["--alpha", "0.5"]])
    def test_rejects_options_it_would_ignore(self, option, tmp_path):
        assert main(["benchmark", "--case", "bimodal_pm2", "--n", "100", "--trials", "1",
                     "--output", str(tmp_path)] + option) == 2

    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran before the output was checked")

        monkeypatch.setattr(testbed, "run_benchmark", no_trial)
        out = tmp_path / "missing"
        for case, first in [("bimodal_pm2", "bimodal_pm2"), ("all", next(iter(testbed.registry())))]:
            assert main(["benchmark", "--case", case, "--n", "100", "--trials", "1",
                         "--output", str(out)]) == 2
            written = str(out / f"{first}_N100.csv")
            assert capsys.readouterr() == (
                "", f"error: [Errno 2] No such file or directory: {written!r}\n")
        assert not out.exists()

    def test_unknown_case(self, capsys):
        assert main(["benchmark", "--case", "nope"]) == 2
        assert "unknown case" in capsys.readouterr().err


class TestWriteCsv:
    """The writer's bytes equal one formatted row per node of the product
    grid, first axis slowest."""

    @pytest.mark.parametrize("shape", [(7,), (3, 5)])
    def test_matches_one_row_per_node(self, shape, tmp_path):
        rng = np.random.default_rng(len(shape))
        axes = [rng.normal(size=n) for n in shape]
        values = rng.normal(size=shape)
        _write_csv(tmp_path / "out.csv", 0.5, values, *axes)
        columns = [c.ravel().tolist() for c in np.meshgrid(*axes, indexing="ij")]
        rows = zip(*columns, values.ravel().tolist())
        expected = "# integral=0.5\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)
        assert (tmp_path / "out.csv").read_text() == expected


def _read_outcome(read, path, dims):
    try:
        a = read(str(path), dims)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)
    return a.shape, a.tobytes()


class TestReadSample:
    """The one-call parse accepts and rejects exactly the files the line
    loop does, with the same values and the same messages."""

    @pytest.mark.parametrize("text,dims", [
        ("1.0 # trailing comment\n", 1),
        ("1.0#x\n", 1),
        ("1, 2 # c\n", 2),
        ("# header\n  # indented\n1.5\n\n-2e3\n", 1),
        ("1,2\n,,\n3,4\n", 2),
        ("1,,2\n3 4\n", 2),
        ("1 2\n3,4\n", 2),
        ("1,2,\n", 2),
        ("1_000\n2\n", 1),
        ("nan\n1\n", 1),
        ("1\r\n2\r\n", 1),
        ("1\f\n2\n", 1),
        ("\u00a0# nbsp before the hash\n1\n", 1),
        ("1 2\n3\n", 2),
        ("1 2\n", 1),
        ("\n \t\n", 1),
        ("1e999\n.5\n+.5\n5.\n", 1),
        ("1.2.3\n", 1),
    ])
    def test_edge_files_match_the_line_loop(self, text, dims, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text(text, encoding="utf-8")
        assert _read_outcome(_read_sample, path, dims) == _read_outcome(_read_lines, path, dims)

    def test_random_files_match_the_line_loop(self, tmp_path, monkeypatch):
        looped = []
        monkeypatch.setattr(diffkde.cli, "_read_lines",
                            lambda *args: looped.append(1) or _read_lines(*args))
        rng = np.random.default_rng(62)
        pieces = ["1", "-2.5", "3e-7", "1E+2", ".5", "7.", "x", "#", "# c", ",", " ", "\t",
                  "", "1,2", "1 2", "1, 2", "e", "+", "-", "1_0", "inf", "\u00a0"]
        path = tmp_path / "x.txt"
        accepted = fast = 0
        for _ in range(400):
            lines = ["".join(rng.choice(pieces, size=rng.integers(0, 4)))
                     for _ in range(rng.integers(0, 6))]
            path.write_text("\n".join(lines) + rng.choice(["", "\n"]), encoding="utf-8")
            for dims in (1, 2):
                n_looped = len(looped)
                got = _read_outcome(_read_sample, path, dims)
                assert got == _read_outcome(_read_lines, path, dims), lines
                accepted += not isinstance(got[0], type)
                fast += len(looped) == n_looped and not isinstance(got[0], type)
        assert accepted > 40 and fast > 20

    @pytest.mark.parametrize("text,dims", [
        ("1.5\n-2e3\n", 1),
        ("# header\n1,2\n3,4\n", 2),
        ("1.5\nx\n", 1),
    ])
    @pytest.mark.parametrize("read", [_read_sample, _read_lines])
    def test_byte_order_mark_reads_as_the_plain_file(self, read, text, dims, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        got = _read_outcome(read, marked, dims)
        want = _read_outcome(read, plain, dims)
        if isinstance(want[0], type):  # the same error, naming its own file
            want = (want[0], want[1].replace(str(plain), str(marked)))
        assert got == want

    def test_missing_file(self, tmp_path):
        path = tmp_path / "none.txt"
        assert _read_outcome(_read_sample, path, 1) == _read_outcome(_read_lines, path, 1)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"1.0\n" * 3000 + b"\xff\n")
        assert _read_outcome(_read_sample, path, 1) == _read_outcome(_read_lines, path, 1)

    def test_mid_line_hash_is_an_error(self, tmp_path, capsys):
        src = tmp_path / "x.txt"
        src.write_text("1.0\n2.0 # note\n")
        assert main(["bandwidth", "--input", str(src), "--output", str(tmp_path / "b.json")]) == 2
        assert f"{src}:2: expected 1 column(s), got 3" in capsys.readouterr().err


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv, option", [
        pytest.param(["bandwidth"], ["--seed", "1"], id="bandwidth-seed"),
        pytest.param(["bandwidth"], ["--alpha", "0.5"], id="bandwidth-alpha"),
        pytest.param(["density"], ["--seed", "1"], id="density-seed"),
        pytest.param(["sample", "--count", "5"], ["--dims", "1"], id="sample-dims"),
    ])
    def test_rejects_options_it_would_ignore(self, argv, option, sample_file, tmp_path,
                                             capsys):
        path, _ = sample_file
        out = tmp_path / "o"
        assert main(argv + ["--input", str(path), "--output", str(out)] + option) == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_selector(self, sample_file, tmp_path):
        path, _ = sample_file
        assert main(["density", "--input", str(path),
                     "--output", str(tmp_path / "o.csv"),
                     "--selector", "fixed:-1"]) == 2
        assert main(["density", "--input", str(path),
                     "--output", str(tmp_path / "o.csv"),
                     "--selector", "nope"]) == 2


FIXED = "fixed:0.05"
SELECTORS = ["isj", "sj", "lscv", FIXED]
# command id -> (argv, dims); every command runs on --grid-n 4096 / --grid-n-2d 64
COMMANDS = {
    "bandwidth": (["bandwidth"], 1),
    "bandwidth-2d": (["bandwidth", "--dims", "2"], 2),
    "density-gauss": (["density", "--method", "gauss"], 1),
    "density-theta": (["density", "--method", "theta"], 1),
    "density-diffusion": (["density", "--method", "diffusion"], 1),
    "density-abramson": (["density", "--method", "abramson"], 1),
    "density-sinc": (["density", "--method", "sinc"], 1),
    # a grid that ends at the sample maximum, the truncation point
    "density-hallpark": (["density", "--method", "hallpark", "--pad", "0"], 1),
    "density-2d": (["density", "--dims", "2"], 2),
    "density-2d-mask": (["density", "--dims", "2", "--mask"], 2),
    "sample-theta": (["sample", "--method", "theta", "--count", "300", "--seed", "3"], 1),
    "sample-euler": (["sample", "--method", "euler", "--count", "300", "--seed", "3",
                      "--steps", "100"], 1),
}
UNUSABLE = {("bandwidth-2d", "lscv"), ("density-2d", "lscv"), ("density-2d-mask", "lscv"),
            ("density-diffusion", "sj"), ("density-diffusion", "lscv"),
            ("sample-euler", "sj"), ("sample-euler", "lscv")}
REPORTED = {"isj": "isj", "sj": "sj_normal_ref", "lscv": "lscv", FIXED: "fixed"}
REPORTED_2D = {"isj": "isj2d", "sj": "normal_ref_2d", FIXED: "fixed"}


def library_t(selector, data, dims, pad):
    """The bandwidth of a direct library call: t in 1D, (t_x1, t_x2) in 2D."""
    if selector == FIXED:
        return (0.05, 0.05) if dims == 2 else 0.05
    if dims == 2:
        sel = isj2d_select if selector == "isj" else normal_ref_2d_select
        return sel(bin_linear_2d(data, make_grid_2d(data, 64, pad)))[1:3]
    if selector == "lscv":
        return lscv_select(data).t
    sel = isj_select if selector == "isj" else sj_normal_ref_select
    return sel(bin_linear(data, make_grid(data, 4096, pad))).t_star


def library_output(command, selector, data, mask):
    """What the command must write, from direct library calls."""
    pad = 0.0 if command == "density-hallpark" else 0.1
    t = library_t(selector, data, COMMANDS[command][1], pad)
    if command.startswith("density-2d"):
        grid = make_grid_2d(data, n=64)
        binned = bin_linear_2d(data, grid)
        if command == "density-2d":
            return gauss_kde_2d(binned, t).values.ravel()
        return solve_heat_masked(binned, DomainMask(grid, mask), t).values.ravel()
    x = data
    grid = make_grid(x, n=4096, pad_fraction=pad)
    if command in ("density-diffusion", "sample-euler"):
        if selector == "isj":
            sol = diffusion_pipeline(x, n=4096, grid=grid)[0]
        else:
            pilot = build_pilot(bin_linear(x, grid))
            sol = solve_diffusion(bin_linear(x, grid), pilot, t)
        if command == "density-diffusion":
            return sol.estimate.values
        return euler_sample(x, sol.pilot, sol.estimate.t, n_steps=100, count=300,
                            rng=np.random.default_rng(3))
    if command == "sample-theta":
        rng = np.random.default_rng(3)
        centres = grid.to_unit(x[rng.integers(0, x.size, size=300)])
        return grid.lo + theta_sample(centres, t / grid.range ** 2, rng) * grid.range
    if command in ("density-gauss", "density-theta"):
        return gauss_kde_spectral(bin_linear(x, grid), t).values
    if command == "density-abramson":
        return abramson_estimate(x, grid, t)
    if command == "density-sinc":
        return sinc_kde(x, grid, t)
    return hall_park_estimate(x, grid.nodes, t, beta=float(x.max()))


class TestSelectorMatrix:
    """Every command and --dims under every selector: it runs with exactly
    the requested selector's bandwidth, or exits 2 naming the selector."""

    @pytest.mark.parametrize("selector", SELECTORS)
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_requested_selector_is_in_effect(self, command, selector, sample_file,
                                             sample2d_file, tmp_path, capsys):
        argv, dims = COMMANDS[command]
        path, data = sample2d_file if dims == 2 else sample_file
        mask = None
        if command == "density-2d-mask":
            mask = np.zeros((64, 64), dtype=bool)
            mask[2:-2, 2:-2] = True  # the 10% padding holds no data mass
            np.savetxt(tmp_path / "mask.csv", mask.astype(int), fmt="%d", delimiter=",")
            argv = argv + [str(tmp_path / "mask.csv")]
        out = tmp_path / "out"
        code = main(argv + ["--selector", selector, "--input", str(path),
                            "--output", str(out), "--grid-n", "4096", "--grid-n-2d", "64"])
        if (command, selector) in UNUSABLE:
            assert code == 2
            assert f"selector {selector!r} is not available" in capsys.readouterr().err
            return
        assert code == 0, capsys.readouterr().err
        if command.startswith("bandwidth"):
            doc = json.loads(out.read_text())
            t = library_t(selector, data, dims, 0.1)
            if dims == 2:
                assert doc["method"] == REPORTED_2D[selector]
                assert (doc["t_x1"], doc["t_x2"]) == t
            else:
                assert doc["method"] == REPORTED[selector]
                assert doc["t_star"] == t
            return
        if command.startswith("sample"):
            written = np.loadtxt(out)
        else:
            written = np.loadtxt(out, delimiter=",", comments="#")[:, -1]
        np.testing.assert_array_equal(written, library_output(command, selector, data, mask))

    @pytest.mark.parametrize("method", ["abramson", "sinc"])
    def test_comparators_default_to_lscv(self, method, sample_file, tmp_path):
        path, x = sample_file
        outs = [tmp_path / "default.csv", tmp_path / "lscv.csv"]
        for out, extra in zip(outs, ([], ["--selector", "lscv"])):
            assert main(["density", "--method", method, "--input", str(path),
                         "--output", str(out), "--grid-n", "4096"] + extra) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("spec", ["fixed:abc", "fixed:0", "isj:1", "fixed"])
    def test_malformed_selector_names_itself(self, spec, sample_file, tmp_path, capsys):
        path, _ = sample_file
        assert main(["bandwidth", "--input", str(path), "--output", str(tmp_path / "o"),
                     "--selector", spec]) == 2
        assert repr(spec) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, dims", [
        pytest.param(["bandwidth"], 1, id="bandwidth"),
        pytest.param(["density"], 1, id="density"),
        pytest.param(["density", "--dims", "2"], 2, id="density-2d"),
        pytest.param(["sample", "--method", "theta", "--count", "5"], 1, id="sample-theta"),
    ])
    @pytest.mark.parametrize("spec", ["fixed:inf", "fixed:nan"])
    def test_fixed_time_must_be_finite(self, argv, dims, spec, sample_file, sample2d_file,
                                       tmp_path, capsys):
        # an infinite time smooths every mode to NaN and is no bandwidth
        path, _ = sample2d_file if dims == 2 else sample_file
        out = tmp_path / "o"
        assert main(argv + ["--selector", spec, "--input", str(path),
                            "--output", str(out)]) == 2
        assert "fixed:T requires a number T > 0" in capsys.readouterr().err
        assert not out.exists()


def _count_calls(monkeypatch):
    """Count the binnings and cosine transforms, wrapping each of the three
    functions in every diffkde module that holds it."""
    modules = [diffkde] + [getattr(diffkde, m) for m in (
        "bandwidth", "cli", "comparators", "diffusion", "grids", "kde1d", "kde2d",
        "testbed")]
    counts = {}
    for home, name in ((diffkde.grids, "bin_linear"), (diffkde.kde2d, "bin_linear_2d"),
                       (diffkde.grids, "cosine_moments")):
        original = getattr(home, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestOneSpectrum:
    """A command bins its sample once and takes one cosine transform per
    axis, shared by the selector and the smoother.  The comparators keep
    their own: LSCV scores on its 2^14-node grid whatever --grid-n is, and
    Abramson's pilot is a second histogram on the output grid; a command
    that reads no histogram bins none."""

    @pytest.mark.parametrize("argv, dims, binnings, transforms", [
        pytest.param(["bandwidth", "--selector", "isj"], 1, 1, 1, id="bandwidth-isj"),
        pytest.param(["density", "--method", "gauss"], 1, 1, 1, id="density-gauss"),
        pytest.param(["density", "--method", "theta", "--selector", "sj"], 1, 1, 1,
                     id="density-theta-sj"),
        pytest.param(["density", "--method", "diffusion"], 1, 1, 1, id="density-diffusion"),
        pytest.param(["density", "--method", "diffusion", "--selector", FIXED], 1, 1, 1,
                     id="density-diffusion-fixed"),
        pytest.param(["sample", "--method", "euler", "--count", "50"], 1, 1, 1,
                     id="sample-euler"),
        pytest.param(["sample", "--method", "theta", "--count", "50"], 1, 1, 1,
                     id="sample-theta"),
        pytest.param(["density", "--dims", "2"], 2, 1, 2, id="density-2d"),
        pytest.param(["bandwidth", "--selector", "lscv"], 1, 1, 1, id="bandwidth-lscv"),
        pytest.param(["bandwidth", "--selector", FIXED], 1, 0, 0, id="bandwidth-fixed"),
        pytest.param(["density", "--method", "abramson"], 1, 2, 2, id="density-abramson"),
        pytest.param(["density", "--method", "sinc"], 1, 1, 1, id="density-sinc"),
    ])
    def test_command_bins_and_transforms_once(self, argv, dims, binnings, transforms,
                                              sample_file, sample2d_file, tmp_path,
                                              monkeypatch):
        path, _ = sample2d_file if dims == 2 else sample_file
        counts = _count_calls(monkeypatch)
        assert main(argv + ["--input", str(path), "--output", str(tmp_path / "o"),
                            "--grid-n", "4096", "--grid-n-2d", "64"]) == 0
        assert counts["bin_linear"] + counts["bin_linear_2d"] == binnings
        assert counts["bin_linear_2d"] == (binnings if dims == 2 else 0)
        assert counts["cosine_moments"] == transforms

    def test_pipeline_without_grid_bins_and_transforms_once(self, sample_file,
                                                            monkeypatch):
        _, x = sample_file
        counts = _count_calls(monkeypatch)
        diffusion_pipeline(x, n=4096)
        assert counts == {"bin_linear": 1, "bin_linear_2d": 0, "cosine_moments": 1}

    def test_histogram_moments_are_taken_once(self, monkeypatch):
        # the functionals and the smoother of one histogram share its moments
        x = np.random.default_rng(62).normal(size=500)
        binned = bin_linear(x, make_grid(x, n=4096))
        counts = _count_calls(monkeypatch)
        functional_norm(binned, 2, 1e-3)
        functional_norm(binned, 3, 1e-3)
        gauss_kde_spectral(binned, 0.01)
        assert counts["cosine_moments"] == 1

    def test_2d_histogram_moments_are_taken_once_per_axis(self, monkeypatch):
        p = np.random.default_rng(63).normal(size=(300, 2))
        binned = bin_linear_2d(p, make_grid_2d(p, n=64))
        counts = _count_calls(monkeypatch)
        psi_hat(1, 1, 1e-3, binned)
        gauss_kde_2d(binned, 0.01)
        assert counts["cosine_moments"] == 2

    @pytest.mark.parametrize("selector", ["isj", FIXED])
    @pytest.mark.parametrize("command", ["density", "sample"])
    def test_pad_reaches_the_adaptive_path(self, command, selector, sample_file, tmp_path):
        path, x = sample_file
        out = tmp_path / "o"
        argv = (["density", "--method", "diffusion"] if command == "density" else
                ["sample", "--method", "euler", "--count", "300", "--seed", "3"])
        assert main(argv + ["--selector", selector, "--pad", "0.3", "--grid-n", "4096",
                            "--input", str(path), "--output", str(out)]) == 0
        binned = bin_linear(x, make_grid(x, n=4096, pad_fraction=0.3))
        if selector == "isj":
            sol = diffusion_pipeline(binned)[0]
        else:
            sol = solve_diffusion(binned, build_pilot(binned), 0.05)
        if command == "density":
            written = np.loadtxt(out, delimiter=",", comments="#")[:, 1]
            np.testing.assert_array_equal(written, sol.estimate.values)
        else:
            draws = euler_sample(x, sol.pilot, sol.estimate.t, n_steps=100, count=300,
                                 rng=np.random.default_rng(3))
            np.testing.assert_array_equal(np.loadtxt(out), draws)
