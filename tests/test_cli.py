import numpy as np
import pytest

from dynamap.cli import build_parser, main
from dynamap.datasets import pinched_torus_family, synthetic_cube_family
from dynamap.distances import global_distance_matrix
from dynamap.experiments import change_detection_experiment
from dynamap.kernels import PointCloud, calibrated_diffusion_matrix
from dynamap.matio import (
    read_matrix,
    read_matrix_bin,
    read_matrix_csv,
    write_matrix_bin,
    write_matrix_csv,
)
from dynamap.metagraph import MEDIAN, meta_kernel
from dynamap.operators import spectral_decomposition

from conftest import random_kernel

# the options each command reads besides --output-dir, --config and --format
COMMAND_OPTIONS = {
    "embed": "--input --input-kind --epsilon --target-lambda2 --tol --rank --t --common-base",
    "distance": "--input --input-kind --epsilon --target-lambda2 --tol --rank --t "
    "--full-matrix",
    "global": "--input --input-kind --epsilon --target-lambda2 --tol --rank --t",
    "metagraph": "--input --input-kind --target-lambda2 --tol --rank --t --epsilon "
    "--epsilon-median --s --dims",
    "torus-experiment": "--n --seed --target-lambda2 --tol --rank --t --s --dims --epsilon "
    "--epsilon-median",
    "convergence": "--n-grid --trials --reference-n --t --seed --target-lambda2",
    "change-detect": "--band-counts --noise-sigma --block-size --side --seed --target-lambda2 "
    "--tol",
    "gen-data": "--dataset --n --seed --grid --steps --alpha --band-counts --noise-sigma "
    "--block-size --side",
}


def _declared_options():
    _, commands = build_parser()
    return {
        name: {flag for action in sub._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, sub in commands.items()
    }


def _exit_code(argv):
    """main's exit status, including argparse's exit on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _write_kernels(tmp_path, n, seeds, fmt="csv"):
    paths = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        path = tmp_path / f"kern_{seed}.{fmt}"
        values = random_kernel(n, rng).values
        if fmt == "csv":
            write_matrix_csv(path, values)
        else:
            write_matrix_bin(path, values)
        paths.append(path)
    return paths


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 7))
    csv_path = tmp_path / "m.csv"
    bin_path = tmp_path / "m.bin"
    write_matrix_csv(csv_path, values)
    write_matrix_bin(bin_path, values)
    np.testing.assert_array_equal(read_matrix_csv(csv_path), values)
    np.testing.assert_array_equal(read_matrix_bin(bin_path), values)
    # format sniffing
    np.testing.assert_array_equal(read_matrix(csv_path), values)
    np.testing.assert_array_equal(read_matrix(bin_path), values)


def test_embed_single_input(tmp_path):
    (kern,) = _write_kernels(tmp_path, 5, [1])
    out = tmp_path / "out"
    code = main(["embed", "--input", str(kern), "--output-dir", str(out),
                 "--rank", "2", "--t", "1"])
    assert code == 0
    coords = read_matrix(out / "embedding_0.csv")
    assert coords.shape == (5, 2)


def test_embed_identical_inputs_common_base(tmp_path):
    paths = _write_kernels(tmp_path, 5, [2, 2])
    out = tmp_path / "out"
    code = main([
        "embed", "--input", str(paths[0]), "--input", str(paths[1]),
        "--output-dir", str(out), "--t", "1", "--common-base", "0",
    ])
    assert code == 0
    first = read_matrix(out / "common_0.csv")
    second = read_matrix(out / "common_1.csv")
    np.testing.assert_allclose(first, second, atol=1e-12)


def test_embed_matches_distance_command(tmp_path):
    paths = _write_kernels(tmp_path, 6, [3, 4, 5])
    out_embed = tmp_path / "embed"
    out_dist = tmp_path / "dist"
    assert main([
        "embed", *sum((["--input", str(p)] for p in paths), []),
        "--output-dir", str(out_embed), "--t", "2", "--common-base", "0",
    ]) == 0
    assert main([
        "distance", "--input", str(paths[1]), "--input", str(paths[2]),
        "--output-dir", str(out_dist), "--t", "2", "--full-matrix",
    ]) == 0
    rot_b = read_matrix(out_embed / "common_1.csv")
    rot_c = read_matrix(out_embed / "common_2.csv")
    dists = read_matrix(out_dist / "distance_matrix.csv")
    for i in range(6):
        for j in range(6):
            norm = np.linalg.norm(rot_b[i] - rot_c[j])
            assert norm == pytest.approx(dists[i, j], abs=1e-8)


def test_distance_identical_inputs_zero_map(tmp_path):
    paths = _write_kernels(tmp_path, 5, [6, 6])
    out = tmp_path / "out"
    assert main([
        "distance", "--input", str(paths[0]), "--input", str(paths[1]),
        "--output-dir", str(out), "--t", "3",
    ]) == 0
    np.testing.assert_array_equal(read_matrix(out / "distance_map.csv"), np.zeros((5, 1)))


def test_distance_asymptotic_matches_large_t(tmp_path):
    paths = _write_kernels(tmp_path, 6, [7, 8])
    out_inf = tmp_path / "inf"
    out_400 = tmp_path / "t400"
    common = ["--input", str(paths[0]), "--input", str(paths[1])]
    # --full-matrix --t inf writes the all-pairs limit
    for flags, stem in (([], "distance_map"), (["--full-matrix"], "distance_matrix")):
        assert main(["distance", *common, *flags, "--output-dir", str(out_inf), "--t", "inf"]) == 0
        assert main(["distance", *common, *flags, "--output-dir", str(out_400), "--t", "400"]) == 0
        inf_map = read_matrix(out_inf / f"{stem}.csv")
        t400_map = read_matrix(out_400 / f"{stem}.csv")
        assert np.max(np.abs(inf_map - t400_map)) <= 1e-4


def test_global_identical_inputs(tmp_path):
    paths = _write_kernels(tmp_path, 5, [9, 9])
    for t in ("2", "inf"):
        out = tmp_path / t
        assert main([
            "global", "--input", str(paths[0]), "--input", str(paths[1]),
            "--output-dir", str(out), "--t", t,
        ]) == 0
        np.testing.assert_allclose(read_matrix(out / "global_distances.csv"),
                                   np.zeros((2, 2)), atol=1e-12)


def test_metagraph_outputs(tmp_path):
    paths = _write_kernels(tmp_path, 6, [10, 11, 12])
    out = tmp_path / "out"
    assert main([
        "metagraph", *sum((["--input", str(p)] for p in paths), []),
        "--output-dir", str(out), "--t", "2", "--epsilon-median", "--dims", "2",
    ]) == 0
    kernel = read_matrix(out / "meta_kernel.csv")
    np.testing.assert_array_equal(np.diag(kernel), np.ones(3))
    coords = read_matrix(out / "meta_coords.csv")
    assert coords.shape == (3, 2)


@pytest.mark.parametrize("s", ["nan", "inf"])
def test_metagraph_refuses_non_finite_meta_time(tmp_path, capsys, s):
    # NaN coordinates used to be written with exit status 0
    paths = _write_kernels(tmp_path, 6, [10, 11, 12])
    out = tmp_path / "out"
    assert main([
        "metagraph", *sum((["--input", str(p)] for p in paths), []),
        "--output-dir", str(out), "--s", s,
    ]) == 1
    assert "s must be finite and positive" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# the options that build a kernel from a point cloud; metagraph's --epsilon is
# the meta kernel's bandwidth and applies to kernel inputs too
BANDWIDTH_OPTIONS = [
    (command, option)
    for command in ("embed", "distance", "global", "metagraph")
    for option in ("--epsilon", "--target-lambda2", "--tol")
    if (command, option) != ("metagraph", "--epsilon")
]


@pytest.mark.parametrize("command, option", BANDWIDTH_OPTIONS)
def test_kernel_inputs_refuse_bandwidth_options(tmp_path, capsys, command, option):
    # kernel inputs used to ignore these options and exit 0
    paths = _write_kernels(tmp_path, 6, [16, 17])
    inputs = sum((["--input", str(p)] for p in paths), [])
    config = tmp_path / "bandwidth.cfg"
    config.write_text(f"{option[2:]} = 0.5\n", encoding="utf-8")
    for route, setting in (("flag", [option, "0.5"]), ("config", ["--config", str(config)])):
        out = tmp_path / route
        assert main([command, *inputs, *setting, "--output-dir", str(out)]) == 1, route
        err = capsys.readouterr().err
        assert option in err and "--input-kind points" in err
        assert list(out.iterdir()) == []
    out = tmp_path / "unset"
    assert main([command, *inputs, "--output-dir", str(out)]) == 0


def test_failed_command_removes_partial_outputs(tmp_path):
    # the out-of-range base is rejected only after the per-parameter
    # embeddings were already written; failure must remove them
    paths = _write_kernels(tmp_path, 5, [13, 13])
    out = tmp_path / "out"
    code = main([
        "embed", "--input", str(paths[0]), "--input", str(paths[1]),
        "--output-dir", str(out), "--t", "1", "--common-base", "7",
    ])
    assert code == 1
    assert list(out.iterdir()) == []


def test_embed_refuses_a_ragged_csv(tmp_path, capsys):
    (good,) = _write_kernels(tmp_path, 5, [13])
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("# 2 2\n1.0,0.5\n0.5\n", encoding="ascii")
    out = tmp_path / "out"
    code = main([
        "embed", "--input", str(good), "--input", str(ragged),
        "--output-dir", str(out), "--t", "1", "--common-base", "0",
    ])
    assert code == 1
    assert "ragged.csv" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_distance_usage_errors(tmp_path):
    paths = _write_kernels(tmp_path, 5, [14])
    out = tmp_path / "out"
    assert main([
        "distance", "--input", str(paths[0]), "--output-dir", str(out), "--t", "2",
    ]) == 1
    mixed = _write_kernels(tmp_path, 6, [15])
    assert main([
        "distance", "--input", str(paths[0]), "--input", str(mixed[0]),
        "--output-dir", str(out), "--t", "2",
    ]) == 1
    assert not out.exists() or list(out.iterdir()) == []


def test_binary_format_pipeline(tmp_path):
    paths = _write_kernels(tmp_path, 5, [16], fmt="bin")
    out = tmp_path / "out"
    assert main([
        "embed", "--input", str(paths[0]), "--output-dir", str(out),
        "--rank", "3", "--t", "1", "--format", "bin",
    ]) == 0
    coords = read_matrix(out / "embedding_0.bin")
    assert coords.shape == (5, 3)


def test_config_file_precedence(tmp_path):
    (kern,) = _write_kernels(tmp_path, 6, [17])
    config = tmp_path / "run.cfg"
    config.write_text("rank = 2\nt = 1\n# comment line\n", encoding="utf-8")
    out_cfg = tmp_path / "cfg"
    assert main([
        "embed", "--input", str(kern), "--output-dir", str(out_cfg),
        "--config", str(config),
    ]) == 0
    assert read_matrix(out_cfg / "embedding_0.csv").shape == (6, 2)
    # a flag beats the config file
    out_flag = tmp_path / "flag"
    assert main([
        "embed", "--input", str(kern), "--output-dir", str(out_flag),
        "--config", str(config), "--rank", "4",
    ]) == 0
    assert read_matrix(out_flag / "embedding_0.csv").shape == (6, 4)
    # the config's inputs serve when no --input flag is given
    config.write_text(f"rank = 3\ninput = {kern}\n", encoding="utf-8")
    out_input = tmp_path / "input"
    assert main(["embed", "--output-dir", str(out_input), "--config", str(config)]) == 0
    assert read_matrix(out_input / "embedding_0.csv").shape == (6, 3)


def test_config_and_flag_value_errors(tmp_path, capsys):
    (kern,) = _write_kernels(tmp_path, 6, [18])
    config = tmp_path / "bad.cfg"
    config.write_text("rank = x\n", encoding="utf-8")
    common = ["embed", "--input", str(kern), "--output-dir", str(tmp_path / "out")]
    assert main([*common, "--config", str(config)]) == 1
    assert "rank" in capsys.readouterr().err
    # flags that take no value cannot be set from a config file
    for command, key in (("distance", "full_matrix"), ("metagraph", "epsilon-median")):
        config.write_text(f"{key} = true\n", encoding="utf-8")
        assert main([command, *common[1:], "--config", str(config)]) == 1
        assert key.replace("-", "_") in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([*common, "--rank", "x"])
    assert exc.value.code == 2


def test_gen_data_torus_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main([
            "gen-data", "--dataset", "torus", "--n", "40", "--seed", "5",
            "--output-dir", str(out),
        ]) == 0
    first = (out_a / "torus.csv").read_bytes()
    second = (out_b / "torus.csv").read_bytes()
    assert first == second
    assert read_matrix(out_a / "torus.csv").shape == (40, 3)


def test_gen_data_torus_family(tmp_path):
    outs = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        outs[name] = tmp_path / name
        assert main([
            "gen-data", "--dataset", "torus-family", "--n", "30", "--seed", str(seed),
            "--output-dir", str(outs[name]),
        ]) == 0
    files = sorted(path.name for path in outs["a"].iterdir())
    members = [f"torus_family_{idx:02d}.csv" for idx in range(31)]
    assert files == sorted([*members, "torus_family_labels.csv"])
    # deterministic per seed
    assert all((outs["a"] / f).read_bytes() == (outs["b"] / f).read_bytes() for f in files)
    assert (outs["a"] / members[0]).read_bytes() != (outs["c"] / members[0]).read_bytes()
    # the library's family: every member sampled at the same angles
    clouds, labels = pinched_torus_family(5, n=30)
    azimuth = None
    for name, cloud in zip(members, clouds):
        points = read_matrix(outs["a"] / name)
        np.testing.assert_array_equal(points, cloud.points)
        u = np.arctan2(points[:, 1], points[:, 0])
        azimuth = u if azimuth is None else azimuth
        np.testing.assert_allclose(u, azimuth, atol=1e-12)
    table = read_matrix(outs["a"] / "torus_family_labels.csv")
    assert table.shape == (31, 2) and labels[0] is None and np.all(np.isnan(table[0]))
    np.testing.assert_array_equal(table[1:], np.array(labels[1:]))


def test_gen_data_standard_map(tmp_path):
    out = tmp_path / "out"
    assert main([
        "gen-data", "--dataset", "standard-map", "--grid", "3", "--steps", "5",
        "--alpha", "0.0", "--output-dir", str(out),
    ]) == 0
    table = read_matrix(out / "standard_map.csv")
    assert table.shape == (9 * 6, 4)
    # alpha=0 conserves momentum within every orbit
    for orbit_id in range(9):
        rows = table[table[:, 0] == orbit_id]
        assert np.all(rows[:, 2] == rows[0, 2])


def test_gen_data_cube(tmp_path):
    out = tmp_path / "out"
    assert main([
        "gen-data", "--dataset", "cube", "--side", "8", "--block-size", "3",
        "--band-counts", "10,12", "--seed", "2", "--output-dir", str(out),
    ]) == 0
    mask = read_matrix(out / "cube_mask.csv")
    assert mask.sum() == 9
    assert read_matrix(out / "cube_epoch_0.csv").shape == (64, 10)
    assert read_matrix(out / "cube_epoch_1.csv").shape == (64, 12)
    # the same scene change-detect scores, built by the same library function
    scene = synthetic_cube_family(2, band_counts=(10, 12), shape=(8, 8), block_size=3)
    np.testing.assert_array_equal(read_matrix(out / "cube_epoch_1.csv"), scene.clouds[1].points)


def test_torus_experiment_command(tmp_path):
    out = tmp_path / "out"
    assert main([
        "torus-experiment", "--n", "120", "--seed", "3", "--output-dir", str(out),
    ]) == 0
    coords = read_matrix(out / "torus_meta_coords.csv")
    labels = read_matrix(out / "torus_labels.csv")
    dists = read_matrix(out / "torus_global_distances.csv")
    assert coords.shape == (31, 3) and labels.shape == (31, 2)
    assert dists.shape == (31, 31)
    assert np.isnan(labels[0]).all() and not np.isnan(labels[1:]).any()
    svg = (out / "torus_meta.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<circle") == 31
    summary = (out / "torus_summary.txt").read_text()
    assert "meta_lambda2" in summary and "angle_accuracy" in summary


def test_convergence_command(tmp_path):
    out = tmp_path / "out"
    assert main([
        "convergence", "--n-grid", "30,60", "--trials", "10", "--reference-n", "240",
        "--t", "1", "--seed", "5", "--output-dir", str(out),
    ]) == 0
    rows = read_matrix(out / "convergence_report.csv")
    assert rows.shape == (2, 5)
    assert "pointwise slope" in (out / "convergence_summary.txt").read_text()


def test_change_detect_command(tmp_path):
    scene = ["--side", "8", "--band-counts", "8,10", "--block-size", "3", "--noise-sigma", "0.0"]
    out = tmp_path / "out"
    assert main([
        "change-detect", *scene, "--target-lambda2", "0.9", "--seed", "4",
        "--output-dir", str(out),
    ]) == 0
    scores = read_matrix(out / "change_scores.csv")
    mask = read_matrix(out / "change_mask.csv")
    assert scores.shape == (64, 1) and mask.sum() == 9
    assert "hits_in_top_50" in (out / "change_summary.txt").read_text()
    # without --target-lambda2 and --seed the library's defaults apply
    out_defaults = tmp_path / "defaults"
    assert main(["change-detect", *scene, "--output-dir", str(out_defaults)]) == 0
    expected = change_detection_experiment(
        band_counts=(8, 10), noise_sigma=0.0, shape=(8, 8), block_size=3
    )
    np.testing.assert_array_equal(
        read_matrix(out_defaults / "change_scores.csv")[:, 0], expected.scores
    )


def test_points_input_kind(tmp_path):
    rng = np.random.default_rng(20)
    pts = tmp_path / "points.csv"
    write_matrix_csv(pts, rng.normal(size=(30, 3)))
    out = tmp_path / "out"
    assert main([
        "embed", "--input", str(pts), "--input-kind", "points",
        "--epsilon", "1.5", "--rank", "3", "--t", "1", "--output-dir", str(out),
    ]) == 0
    assert read_matrix(out / "embedding_0.csv").shape == (30, 3)


@pytest.mark.parametrize("flag", [["--epsilon", "median"], ["--epsilon-median"]])
def test_points_input_kind_rejects_median_epsilon(tmp_path, capsys, flag):
    # a median bandwidth is a meta-kernel setting; for point clouds it used to
    # fall through to calibration without a word. embed has no --epsilon-median
    # at all, so that flag is a usage error
    usage_error = flag == ["--epsilon-median"]
    rng = np.random.default_rng(20)
    pts = tmp_path / "points.csv"
    write_matrix_csv(pts, rng.normal(size=(30, 3)))
    out = tmp_path / "out"
    assert _exit_code([
        "embed", "--input", str(pts), "--input-kind", "points", *flag,
        "--output-dir", str(out),
    ]) == (2 if usage_error else 1)
    err = capsys.readouterr().err
    assert "--epsilon" in err and (usage_error or "--input-kind points" in err)
    assert not list(out.glob("embedding_*"))


def test_each_command_declares_the_options_it_reads():
    common = {"--output-dir", "--config", "--format"}
    declared = _declared_options()
    assert declared == {name: set(opts.split()) | common for name, opts in COMMAND_OPTIONS.items()}
    assert sum(len(flags) for flags in declared.values()) == 90


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_options_a_command_does_not_read_are_refused(tmp_path, capsys, command):
    # every option of any other command, e.g. convergence --rank, change-detect
    # --t, global --common-base, gen-data --input, embed --epsilon-median; and
    # no prefix of one may pass as another (convergence --s is not --seed)
    declared = _declared_options()
    foreign = set().union(*declared.values()) - declared[command]
    for flag in sorted(foreign):
        out = tmp_path / flag.strip("-")
        assert _exit_code([command, flag, "1", "--output-dir", str(out)]) == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


def _write_clouds(tmp_path, seeds, n=40):
    paths = []
    for seed in seeds:
        path = tmp_path / f"points_{seed}.csv"
        write_matrix_csv(path, np.random.default_rng(seed).normal(size=(n, 3)))
        paths.append(path)
    return paths


def _calibrated_family_distances(paths, t):
    decs = []
    for path in paths:
        _, mat = calibrated_diffusion_matrix(PointCloud(read_matrix(path)), 0.5, 1e-3)
        decs.append(spectral_decomposition(mat, mat.n))
    return global_distance_matrix(decs, t)


@pytest.mark.parametrize(
    "flag, epsilon", [(["--epsilon", "1.5"], 1.5), (["--epsilon-median"], MEDIAN)]
)
def test_metagraph_epsilon_is_the_meta_bandwidth(tmp_path, flag, epsilon):
    # point-cloud members are calibrated to --target-lambda2 whatever --epsilon
    # says; --epsilon sets only the meta kernel's bandwidth
    paths = _write_clouds(tmp_path, [30, 31, 32])
    out = tmp_path / "out"
    assert main([
        "metagraph", *sum((["--input", str(p)] for p in paths), []), "--input-kind", "points",
        "--t", "2", *flag, "--output-dir", str(out),
    ]) == 0
    dists = _calibrated_family_distances(paths, 2)
    np.testing.assert_array_equal(read_matrix(out / "global_distances.csv"), dists)
    np.testing.assert_array_equal(
        read_matrix(out / "meta_kernel.csv"), meta_kernel(dists, epsilon=epsilon).kernel
    )


@pytest.mark.parametrize("command", ["embed", "distance", "global"])
@pytest.mark.parametrize("option", ["--target-lambda2", "--tol"])
def test_points_input_kind_refuses_calibration_options_with_fixed_epsilon(
    tmp_path, capsys, command, option
):
    # a numeric --epsilon used to drop them without a word and exit 0
    paths = _write_clouds(tmp_path, [40, 41], n=30)
    base = [command, *sum((["--input", str(p)] for p in paths), []), "--input-kind", "points",
            "--epsilon", "1.3"]
    config = tmp_path / "calibration.cfg"
    config.write_text(f"{option[2:]} = 0.5\n", encoding="utf-8")
    for route, setting in (("flag", [option, "0.5"]), ("config", ["--config", str(config)])):
        out = tmp_path / route
        assert main([*base, *setting, "--output-dir", str(out)]) == 1, route
        err = capsys.readouterr().err
        assert option in err and "--epsilon" in err
        assert list(out.iterdir()) == []
    assert main([*base, "--output-dir", str(tmp_path / "unset")]) == 0


def test_metagraph_refuses_dims_above_the_family_size(tmp_path, capsys):
    # a set --dims used to be clamped to the family size with exit 0; unset,
    # it asks for 3 coordinates, or as many as a smaller family has
    paths = _write_kernels(tmp_path, 6, [10, 11, 12])
    inputs = sum((["--input", str(p)] for p in paths), [])
    config = tmp_path / "dims.cfg"
    config.write_text("dims = 9\n", encoding="utf-8")
    for route, setting in (("flag", ["--dims", "9"]), ("config", ["--config", str(config)])):
        out = tmp_path / route
        assert main(["metagraph", *inputs, *setting, "--output-dir", str(out)]) == 1, route
        assert "dims must lie in [1, 3], got 9" in capsys.readouterr().err
        assert list(out.iterdir()) == []
    for members in (3, 2):
        out = tmp_path / f"unset_{members}"
        assert main(["metagraph", *inputs[: 2 * members], "--output-dir", str(out)]) == 0
        assert read_matrix(out / "meta_coords.csv").shape == (members, min(3, members))
