"""Command-line interface.

Exit codes: 0 on success, 2 for usage errors (argparse's own),
configuration problems and files the OS refuses, 3 for physics domain
errors raised while running.  All outputs are deterministic, so
re-running a command overwrites its files byte-identically.

Each command imports the package modules it runs inside its own body,
so a call loads only what its subcommand needs and `--help` loads none:
`estimate` loads no numpy, and `analyze` no transfer-matrix kernel.
A process enters through `run`, which turns the collector off and
skips interpreter teardown (see there); `main` runs a command in the
caller's process and leaves its heap and collector alone.
"""

import argparse
import os
import sys

from .errors import ConfigError, VibropolError


# wavenumbers in JSON summaries are rounded to 0.1 cm^-1 for display;
# CSV outputs keep full double precision
def _peak_dict(peak):
    return {
        "center_cm1": round(peak.center, 1),
        "height": peak.height,
        "prominence": peak.prominence,
        "fwhm_cm1": round(peak.fwhm, 1) if peak.fwhm is not None else None,
    }


def _channel_analysis(k, values, window, min_prominence, channel=None):
    """Peaks of one channel and, when there are exactly two, their
    splitting.  `channel` names a channel of a native spectrum (R is
    analyzed as its dips, 1 - R); None marks the value column of a
    two-column file."""
    from .spectra import _channel_peaks

    analyzed = "value" if channel is None else "1-R" if channel == "R" else channel
    peaks, report = _channel_peaks(k, values, channel, window, min_prominence)
    splitting = None
    if report is not None:
        splitting = {
            "omega_lower_cm1": round(report.omega_lower, 1),
            "omega_upper_cm1": round(report.omega_upper, 1),
            "splitting_cm1": round(report.splitting_cm1, 1),
            "splitting_mev": round(report.splitting_mev, 2),
        }
        if channel is not None:
            splitting["channel"] = channel
    return {"analyzed": analyzed, "peaks": [_peak_dict(p) for p in peaks], "splitting": splitting}


def _spectrum_analysis(spectrum, window, min_prominence):
    return {
        ch: _channel_analysis(spectrum.k, spectrum.channel(ch), window, min_prominence, ch)
        for ch in ("T", "R", "A")
    }


def _emit_report(payload, out_dir, filename):
    from . import io as iomod

    if out_dir is None:
        print(iomod.json_text(payload), end="")
    else:
        path = os.path.join(out_dir, filename)
        iomod.write_json(path, payload)
        print(path)


def simulate(args):
    """T/R/A spectrum of the configured stack at one angle."""
    from . import io as iomod
    from .config import load_config, override, parse_grid_spec
    from .tmm import angle_scan

    cfg = load_config(args.config)
    stack = cfg.require_stack()
    grid = parse_grid_spec(args.grid) if args.grid else cfg.grid
    scan = override(cfg.scan, "scan", angle=args.angle, polarization=args.polarization,
                    divergence=args.divergence)
    spectrum = angle_scan(stack, grid, [scan.angle], scan.polarization,
                          divergence=scan.divergence)[0]

    path = os.path.join(args.out_dir, "spectrum.csv")
    iomod.write_spectrum_csv(path, spectrum)
    summary = {
        "angle_deg": scan.angle,
        "polarization": scan.polarization,
        "divergence_deg": scan.divergence,
        "grid": {"min": grid.k_min, "max": grid.k_max, "step": grid.step},
        "channels": _spectrum_analysis(spectrum, scan.window, scan.min_prominence),
    }
    print(path)
    _emit_report(summary, args.out_dir, "summary.json")


def scan_angle(args):
    """Spectra over the configured angle list plus a dispersion table."""
    from . import io as iomod
    from .config import load_config
    from .spectra import build_dispersion
    from .tmm import angle_scan

    cfg = load_config(args.config)
    stack = cfg.require_stack()
    if not cfg.scan.angles:
        raise ConfigError("scan.angles is required for scan-angle")
    spectra = angle_scan(
        stack, cfg.grid, cfg.scan.angles, cfg.scan.polarization,
        divergence=cfg.scan.divergence,
    )
    for sp in spectra:
        name = f"spectrum_{sp.angle:+08.3f}.csv"
        iomod.write_spectrum_csv(os.path.join(args.out_dir, name), sp)
    table = build_dispersion(
        spectra, cfg.scan.channel, window=cfg.scan.window,
        min_prominence=cfg.scan.min_prominence,
    )
    path = os.path.join(args.out_dir, "dispersion.csv")
    iomod.write_dispersion_csv(path, table)
    print(path)


def field_map_cmd(args):
    """|E(z, k)|^2 across the stack over a wavenumber grid."""
    from . import io as iomod
    from .config import _build, load_config, override
    from .fields import _check_cells, default_z_grid, field_map

    cfg = load_config(args.config)
    stack = cfg.require_stack()
    settings = override(cfg.field_map, "field_map", angle=args.angle)
    z = _build("field_map.z_step", default_z_grid, stack, z_step=settings.z_step,
               margin_ambient=settings.margin_ambient_nm,
               margin_substrate=settings.margin_substrate_nm)
    _build("field_map.grid", _check_cells, settings.grid.points.size, z.size)
    fmap = field_map(stack, settings.grid, z=z, angle=settings.angle,
                     polarization=settings.polarization)
    path = os.path.join(args.out_dir, "field_map.csv")
    iomod.write_field_map_csv(path, fmap)
    print(path)


def analyze(args):
    """Peaks and splittings of a spectrum CSV.

    Accepts the native k_cm1,T,R,A format or a two-column
    wavenumber,value file, read under the rules of `vibropol.io`."""
    from . import io as iomod
    from .config import ScanSettings, override, parse_colon_spec
    from .stack import Spectrum

    window = None if args.window is None else parse_colon_spec(args.window, "lo:hi", "--window")
    settings = override(ScanSettings(), "analyze", window=window,
                        min_prominence=args.min_prominence)

    data = iomod.read_spectrum_csv(args.csv_path)
    payload = {"source": os.path.basename(args.csv_path)}
    if isinstance(data, Spectrum):
        payload.update(angle_deg=data.angle, polarization=data.polarization,
                       channels=_spectrum_analysis(data, settings.window, settings.min_prominence))
    else:
        payload["channels"] = {
            "value": _channel_analysis(*data, settings.window, settings.min_prominence)
        }
    _emit_report(payload, args.out_dir, "analysis.json")


def estimate(args):
    """Scalar coupling estimates from the config's estimate section."""
    from .config import load_config
    from .polariton import estimate_report

    cfg = load_config(args.config)
    if cfg.estimate is None:
        raise ConfigError("config has no 'estimate' section")
    _emit_report(estimate_report(**vars(cfg.estimate)), args.out_dir, "estimate.json")


def fit(args):
    """Fit the config's free stack parameters to measured data."""
    from . import fit as fitmod
    from . import io as iomod
    from .config import load_config, override
    from .spectra import load_measured

    cfg = load_config(args.config)
    if cfg.fit is None:
        raise ConfigError("config has no 'fit' section")
    k, target = load_measured(args.target)
    problem = cfg.fit_problem(k, target)
    settings = override(cfg.fit, "fit", seed=args.seed)
    result = fitmod.solve(problem, n_starts=settings.n_starts, seed=settings.seed)

    model = fitmod.model_values(problem, [result.params[p.path] for p in problem.free])
    iomod.write_csv(os.path.join(args.out_dir, "fit_curve.csv"), "k_cm1,target,model",
                    (k, target, model))

    payload = {
        "params": result.params,
        "loss": result.loss,
        "success": result.success,
        "n_evaluations": result.n_evaluations,
        "start_losses": result.start_losses,
        "best_start": result.best_start,
        "seed": settings.seed,
        "n_starts": settings.n_starts,
        "channel": problem.channel,
    }
    _emit_report(payload, args.out_dir, "fit.json")


def _input_file(path):
    """argparse type of an input path: it must name an existing file."""
    if not os.path.exists(path) or os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is not an existing file")
    return path


def _output_dir(path):
    """argparse type of --out-dir: any path but an existing file."""
    if os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a file, not a directory")
    return path


def _parser(prog):
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run, config=True, report=None):
        sub = commands.add_parser(name, help=run.__doc__.splitlines()[0], description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        if config:
            sub.add_argument("--config", required=True, type=_input_file,
                             help="YAML run configuration.")
        sub.add_argument("--out-dir", default=None if report else ".", type=_output_dir,
                         help=f"Write {report} here instead of stdout." if report
                         else "Directory for output files (default: .).")
        return sub

    sub = command("simulate", simulate)
    sub.add_argument("--angle", type=float, help="Override the scan angle (deg).")
    sub.add_argument("--grid", help="Override grid as min:max:step (cm^-1).")
    sub.add_argument("--polarization", choices=["s", "p", "unpolarized"])
    sub.add_argument("--divergence", type=float,
                     help="Gaussian angular spread, one sigma in degrees.")
    command("scan-angle", scan_angle)
    sub = command("field-map", field_map_cmd)
    sub.add_argument("--angle", type=float, help="Override the field-map angle (deg).")
    sub = command("analyze", analyze, config=False, report="analysis.json")
    sub.add_argument("csv_path", type=_input_file)
    sub.add_argument("--window", help="Restrict analysis to lo:hi (cm^-1).")
    sub.add_argument("--min-prominence", type=float,
                     help="Absolute prominence threshold (default: 5%% of range).")
    command("estimate", estimate, report="estimate.json")
    sub = command("fit", fit)
    sub.add_argument("--target", required=True, type=_input_file,
                     help="Measured two-column CSV (wavenumber, value).")
    sub.add_argument("--seed", type=int, help="Override the multi-start seed.")
    return parser


def main(args=None, prog_name=None):
    """Vibrational strong coupling in planar microcavities: simulate,
    map fields and analyze polariton spectra."""
    parsed = _parser(prog_name).parse_args(args)
    try:
        parsed.run(parsed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        sys.exit(2)
    except VibropolError as err:
        print(f"physics error: {err}", file=sys.stderr)
        sys.exit(3)
    except OSError as err:
        # a file the OS refuses, such as an --out-dir below a file
        print(f"file error: {err}", file=sys.stderr)
        sys.exit(2)


def run():
    """`main` with the collector off, as a command makes no reference
    cycles.  Once it returns or exits with an int or None code, the
    ``atexit`` handlers run, stdout and stderr are flushed and the process
    ends without interpreter teardown; other exits, or a failed flush, keep
    the interpreter's path.  Exit code, output and handlers are `main`'s."""
    import atexit
    import gc

    gc.disable()
    try:
        main()
        code = 0
    except SystemExit as exc:
        code = exc.code
        if code is not None and not isinstance(code, int):
            raise
    # CPython's only way to run the handlers before os._exit, which skips them
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        raise SystemExit(code) from None
    os._exit(code or 0)


if __name__ == "__main__":
    run()
