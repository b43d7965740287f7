"""Command-line front end: dataset generation, embeddings, distances, experiments.

Commands: embed, distance, global, metagraph, torus-experiment, convergence,
change-detect, gen-data. Option precedence is flags > config file (key=value
lines) > defaults. Each command accepts only the options it reads.
torus-experiment, convergence and change-detect pass the options that were
set to their experiment function, whose signature holds the other defaults.
Every command is deterministic given --seed, exits zero only when all outputs
were written and verified, and removes partial outputs on failure.
"""
from __future__ import annotations

import argparse
import inspect
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .datasets import TorusSpec, pinched_torus_family, sample_torus, standard_map_orbits
from .distances import (
    asymptotic_distance_map,
    diffusion_distance_map,
    diffusion_distance_matrix,
    global_distance_matrix,
    gram_matrix,
)
from .embeddings import common_embedding, diffusion_map
from .exceptions import DynamapError, InputError
from .kernels import KernelMatrix, PointCloud, calibrated_kernel, gaussian_kernel
from .matio import FORMATS, read_matrix, write_matrix
from .metagraph import MEDIAN, meta_embedding, meta_kernel
from .operators import diffusion_matrix, spectral_decomposition
from .sampling import report_rows, report_summary
from .svgplot import write_scatter_svg

# the commands that read --input files
FILE_COMMANDS = ("embed", "distance", "global", "metagraph")
EXPERIMENTS = ("torus-experiment", "convergence", "change-detect")


class OutputTracker:
    """Records written files so a failed command can remove partial outputs."""

    def __init__(self, output_dir: Path, fmt: str):
        self.output_dir = output_dir
        self.fmt = fmt
        self.written: list[Path] = []

    def path(self, stem: str, suffix: str | None = None) -> Path:
        suffix = suffix if suffix is not None else f".{self.fmt}"
        return self.output_dir / f"{stem}{suffix}"

    def matrix(self, stem: str, values: np.ndarray) -> Path:
        target = self.path(stem)
        write_matrix(target, values, self.fmt)
        self.written.append(target)
        return target

    def text(self, stem: str, content: str, suffix: str = ".txt") -> Path:
        target = self.path(stem, suffix)
        target.write_text(content, encoding="utf-8")
        self.written.append(target)
        return target

    def verify(self) -> None:
        for target in self.written:
            if not target.is_file() or target.stat().st_size == 0:
                raise DynamapError(f"output {target} missing or empty")
            if target.suffix in (".csv", ".bin"):
                read_matrix(target)  # round-trip check

    def cleanup(self) -> None:
        for target in self.written:
            target.unlink(missing_ok=True)


def _parse_t(raw: str) -> int | float:
    text = raw.strip().lower()
    if text in ("inf", "infinity", "asymptotic"):
        return math.inf
    if text.isdecimal() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"t must be a positive integer or 'inf', got {raw!r}")


def _parse_epsilon(raw: str) -> float | str:
    text = raw.strip().lower()
    if text == MEDIAN:
        return MEDIAN
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"epsilon must be a number or '{MEDIAN}', got {raw!r}"
        ) from exc


def _int_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {raw!r}"
        ) from exc


def _square_shape(raw: str) -> tuple[int, int]:
    """--side as the (side, side) pixel grid shape."""
    try:
        side = int(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"side must be an integer, got {raw!r}") from exc
    return side, side


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subparser of each command, which declares
    only the options its handler reads. An experiment command's options are
    unset by default, and so are the bandwidth options (`unset`); any other
    `default` below is that of the other commands."""
    parser = argparse.ArgumentParser(
        prog="dynamap",
        description="Diffusion maps for data whose kernel changes over a parameter space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name in HANDLERS:
        # no abbreviations: `convergence --s` would otherwise set --seed
        p = commands[name] = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--output-dir", type=Path, default=Path("."), help="directory for outputs")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--format", choices=FORMATS, default="csv")
    meta = ("metagraph", "torus-experiment")
    groups = {name: commands[name].add_mutually_exclusive_group() for name in meta}
    unset = argparse.SUPPRESS

    def add(names, *flags, default=None, to=commands, **kwargs):
        for name in names:
            value = unset if name in EXPERIMENTS else default
            to[name].add_argument(*flags, default=value, **kwargs)

    add(FILE_COMMANDS, "--input", action="append", help="input matrix (repeatable)")
    add(FILE_COMMANDS, "--input-kind", choices=("kernel", "points"), default="kernel",
        help="inputs are kernel matrices (default) or point clouds")
    # bandwidth options: the library states their defaults
    add(("embed", "distance", "global"), "--epsilon", type=_parse_epsilon, default=unset,
        help="fixed bandwidth for point-cloud inputs")
    add(FILE_COMMANDS + EXPERIMENTS, "--target-lambda2", type=float, default=unset,
        help="calibration target")
    add(FILE_COMMANDS + ("torus-experiment", "change-detect"), "--tol", type=float,
        default=unset, help="calibration tolerance")
    add(FILE_COMMANDS + ("torus-experiment",), "--rank", type=int, help="retained eigenpairs")
    add(("embed", "metagraph", "torus-experiment", "convergence"), "--t", type=int, default=1,
        help="diffusion time")
    # the commands with a large-t limit
    add(("distance", "global"), "--t", type=_parse_t, default=1,
        help="diffusion time: a positive integer, or 'inf' for the large-t limit")
    add(("embed",), "--common-base", type=int, help="base member for rotations")
    add(("distance",), "--full-matrix", action="store_true", default=False,
        help="emit all-pairs distances")
    add(meta, "--s", type=float, default=1.92, help="meta diffusion time")
    add(meta, "--dims", type=int, default=3, help="embedding dimensions")
    # the meta kernel's bandwidth; point-cloud members are calibrated
    add(meta, "--epsilon", type=_parse_epsilon, default=MEDIAN, to=groups,
        help="meta-kernel bandwidth (default: the median family distance)")
    add(meta, "--epsilon-median", action="store_const", dest="epsilon", const=MEDIAN,
        default=MEDIAN, to=groups, help="median-distance bandwidth for the meta kernel")
    add(("torus-experiment", "gen-data"), "--n", type=int, default=1000, help="samples per torus")
    add(("torus-experiment", "convergence", "gen-data"), "--seed", type=int, default=0)
    add(("change-detect",), "--seed", type=int, dest="scene_seed", metavar="SEED")
    add(("convergence",), "--n-grid", type=_int_list, help="comma-separated sample sizes")
    add(("convergence",), "--trials", type=int)
    add(("convergence",), "--reference-n", type=int)
    # gen-data too passes these on to experiments.change_scene only when set
    scene = ("change-detect", "gen-data")
    add(scene, "--band-counts", type=_int_list, default=unset,
        help="comma-separated bands per epoch")
    add(scene, "--noise-sigma", type=float, default=unset)
    add(scene, "--block-size", type=int, default=unset)
    add(scene, "--side", type=_square_shape, dest="shape", metavar="SIDE", default=unset,
        help="pixel grid side length")
    add(("gen-data",), "--dataset", choices=("torus", "torus-family", "standard-map", "cube"),
        default="torus")
    add(("gen-data",), "--grid", type=int, default=12, help="standard-map lattice side")
    add(("gen-data",), "--steps", type=int, default=100, help="standard-map iterations")
    add(("gen-data",), "--alpha", type=float, default=0.4, help="standard-map nonlinearity")
    return parser, commands


def _config_values(command: argparse.ArgumentParser, path: str) -> dict:
    """The options a config file of `key = value` lines sets, converted and
    checked as flags are. Keys that name no option of the command are ignored;
    a flag that takes no value (--full-matrix, --epsilon-median) is refused."""
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line without '=': {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        action = command._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None:
            continue
        if action.nargs == 0:
            raise InputError(f"config key {key} is a flag without a value; pass it as a flag")
        try:
            value = action.type(raw) if action.type else raw
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"expected one of {action.choices}")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise InputError(f"bad config value for {key}: {raw!r} ({exc})") from exc
        values[action.dest] = value
    return values


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    # the config file's values become the command's defaults, so flags still
    # win; --input flags replace the config's whitespace-separated inputs
    values = _config_values(commands[args.command], args.config)
    inputs = values.pop("input", None)
    commands[args.command].set_defaults(**values)
    args = parser.parse_args(argv)
    if inputs is not None and not args.input:
        args.input = inputs.split()
    return args


def _options(args: argparse.Namespace) -> dict:
    """An experiment command's options as keyword arguments of its experiment
    function: those a flag or the config file set."""
    common = ("command", "config", "output_dir", "format")
    return {key: value for key, value in vars(args).items() if key not in common}


def _load_decompositions(
    args: argparse.Namespace, minimum: int, bandwidth=("epsilon", "target_lambda2", "tol")
):
    """Read the inputs as kernels and decompose each one. Point clouds take a
    fixed --epsilon, or else calibrated_kernel's --target-lambda2 and --tol:
    the `bandwidth` options that a flag or the config file set, which kernel
    inputs refuse."""
    inputs = args.input or []
    if len(inputs) < minimum:
        raise InputError(f"{args.command} needs at least {minimum} --input file(s)")
    options = {key: getattr(args, key) for key in bandwidth if hasattr(args, key)}
    if args.input_kind == "kernel" and options:
        flags = ", ".join("--" + key.replace("_", "-") for key in options)
        raise InputError(f"{flags}: a point-cloud bandwidth option needs --input-kind points")
    epsilon = options.pop("epsilon", None)
    if epsilon == MEDIAN:
        raise InputError(
            f"--epsilon {MEDIAN} has no meaning with --input-kind points: give a number, "
            "or leave --epsilon out to calibrate to --target-lambda2"
        )
    decs = []
    size = None
    for path in inputs:
        values = read_matrix(path)
        if args.input_kind == "kernel":
            kernel = KernelMatrix(values)
        elif epsilon is None:
            kernel = calibrated_kernel(PointCloud(values), **options)[1]
        else:
            kernel = gaussian_kernel(PointCloud(values), epsilon)
        if size is None:
            size = kernel.n
        elif kernel.n != size:
            raise InputError(f"{path}: size {kernel.n} does not match {size}")
        rank = args.rank if args.rank is not None else kernel.n
        mat = diffusion_matrix(kernel)
        del kernel, values  # the kernel is not alive during the eigensolve
        decs.append(spectral_decomposition(mat, rank))
    return decs


def cmd_embed(args: argparse.Namespace, out: OutputTracker) -> None:
    decs = _load_decompositions(args, 1)
    for idx, dec in enumerate(decs):
        out.matrix(f"embedding_{idx}", diffusion_map(dec, args.t).coords)
    if args.common_base is not None:
        rotated = common_embedding(decs, args.common_base, args.t)
        for idx, emb in enumerate(rotated):
            out.matrix(f"common_{idx}", emb.coords)


def cmd_distance(args: argparse.Namespace, out: OutputTracker) -> None:
    decs = _load_decompositions(args, 2)
    if len(decs) != 2:
        raise InputError("distance compares exactly two inputs")
    dec_a, dec_b = decs
    if args.t == math.inf:
        if args.full_matrix:
            raise InputError("asymptotic distances are emitted per corresponding point")
        out.matrix("distance_map", asymptotic_distance_map(dec_a, dec_b))
        return
    gram = gram_matrix(dec_a, dec_b)
    if args.full_matrix:
        out.matrix("distance_matrix", diffusion_distance_matrix(dec_a, dec_b, gram, args.t))
    else:
        out.matrix("distance_map", diffusion_distance_map(dec_a, dec_b, gram, args.t))


def cmd_global(args: argparse.Namespace, out: OutputTracker) -> None:
    decs = _load_decompositions(args, 2)
    out.matrix("global_distances", global_distance_matrix(decs, args.t))


def cmd_metagraph(args: argparse.Namespace, out: OutputTracker) -> None:
    # --epsilon is the meta kernel's bandwidth: point-cloud members are calibrated
    decs = _load_decompositions(args, 2, bandwidth=("target_lambda2", "tol"))
    dists = global_distance_matrix(decs, args.t)
    meta = meta_kernel(dists, epsilon=args.epsilon)
    coords = meta_embedding(meta, args.s, min(args.dims, meta.size))
    out.matrix("global_distances", dists)
    out.matrix("meta_kernel", meta.kernel)
    out.matrix("meta_coords", coords)


def _label_rows(labels) -> np.ndarray:
    """(pinch angle, pinch radius) per torus family member, NaN when unpinched."""
    return np.array([(math.nan, math.nan) if label is None else label for label in labels])


def cmd_torus_experiment(args: argparse.Namespace, out: OutputTracker) -> None:
    result = experiments.torus_experiment(**_options(args))
    labels = _label_rows(result.labels)
    out.matrix("torus_global_distances", result.global_distances)
    out.matrix("torus_meta_coords", result.coords)
    out.matrix("torus_labels", labels)
    groups = np.where(np.isnan(labels[:, 0]), 0, 1 + np.searchsorted(
        np.unique(labels[~np.isnan(labels[:, 0]), 0]), labels[:, 0]
    ))
    if result.coords.shape[1] >= 3:
        x, y = result.coords[:, 1], result.coords[:, 2]
    else:
        x, y = result.coords[:, 0], result.coords[:, -1]
    svg_path = out.path("torus_meta", ".svg")
    write_scatter_svg(svg_path, x, y, groups=groups, title="graph of graphs")
    out.written.append(svg_path)
    inversions = experiments.monotonicity_inversions(result)
    accuracy = experiments.angle_classification_accuracy(result)
    out.text(
        "torus_summary",
        "\n".join(
            [
                f"meta_lambda2 {result.meta_lambda2:.6f}",
                f"meta_epsilon {result.meta.epsilon:.6f}",
                f"angle_accuracy {accuracy:.4f}",
                *(
                    f"inversions angle={angle:.6f} {count}"
                    for angle, count in inversions.items()
                ),
            ]
        ),
    )


def cmd_convergence(args: argparse.Namespace, out: OutputTracker) -> None:
    report = experiments.torus_pair_study(**_options(args))
    out.matrix("convergence_report", report_rows(report))
    out.text("convergence_summary", report_summary(report))


def cmd_change_detect(args: argparse.Namespace, out: OutputTracker) -> None:
    result = experiments.change_detection_experiment(**_options(args))
    out.matrix("change_scores", result.scores)
    out.matrix("change_mask", result.change_mask.astype(float))
    planted = int(result.change_mask.sum())
    hits = result.hits_in_top(50)
    out.text(
        "change_summary",
        "\n".join(
            [
                f"change_epoch {result.change_epoch}",
                f"planted {planted}",
                f"hits_in_top_50 {hits}",
                *(f"snr_db epoch={k} {snr:.3f}" for k, snr in enumerate(result.snr_db)),
            ]
        ),
    )


def cmd_gen_data(args: argparse.Namespace, out: OutputTracker) -> None:
    if args.dataset == "torus":
        cloud = sample_torus(TorusSpec(), args.n, args.seed)
        out.matrix("torus", cloud.points)
    elif args.dataset == "torus-family":
        clouds, labels = pinched_torus_family(args.seed, n=args.n)
        for idx, cloud in enumerate(clouds):
            out.matrix(f"torus_family_{idx:02d}", cloud.points)
        out.matrix("torus_family_labels", _label_rows(labels))
    elif args.dataset == "standard-map":
        orbits = standard_map_orbits(args.alpha, args.grid, args.steps)
        rows = []
        for orbit_id, orbit in enumerate(orbits):
            steps = np.arange(orbit.shape[0], dtype=float)
            rows.append(
                np.column_stack([np.full(orbit.shape[0], float(orbit_id)), steps, orbit])
            )
        out.matrix("standard_map", np.vstack(rows))
    elif args.dataset == "cube":
        scene = inspect.signature(experiments.change_scene).parameters
        family = experiments.change_scene(
            args.seed, **{key: value for key, value in vars(args).items() if key in scene}
        )
        for idx, cloud in enumerate(family.clouds):
            out.matrix(f"cube_epoch_{idx}", cloud.points)
        out.matrix("cube_mask", family.change_mask.astype(float))
        out.text(
            "cube_summary",
            "\n".join(
                [f"change_epoch {family.change_epoch}"]
                + [f"snr_db epoch={k} {snr:.3f}" for k, snr in enumerate(family.snr_db)]
            ),
        )


HANDLERS = {
    "embed": cmd_embed,
    "distance": cmd_distance,
    "global": cmd_global,
    "metagraph": cmd_metagraph,
    "torus-experiment": cmd_torus_experiment,
    "convergence": cmd_convergence,
    "change-detect": cmd_change_detect,
    "gen-data": cmd_gen_data,
}


def main(argv: list[str] | None = None) -> int:
    out = None
    try:
        args = _parse_args(argv)
        args.output_dir.mkdir(parents=True, exist_ok=True)
        out = OutputTracker(args.output_dir, args.format)
        HANDLERS[args.command](args, out)
        out.verify()
    except (DynamapError, OSError) as exc:
        if out is not None:
            out.cleanup()
        print(f"dynamap: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
