"""Command-line interface.

Exit codes: 0 on success, 2 for configuration problems, 3 for physics
domain errors raised while running.  All outputs are deterministic, so
re-running a command overwrites its files byte-identically.

Each command imports the package modules it runs inside its own body,
so a call loads only what its subcommand needs and `--help` loads none.
"""

from __future__ import annotations

import functools
import os
import sys

import click

from .errors import ConfigError, VibropolError


def _translate_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as err:
            click.echo(f"config error: {err}", err=True)
            sys.exit(2)
        except VibropolError as err:
            click.echo(f"physics error: {err}", err=True)
            sys.exit(3)

    return wrapper


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
    if channel == "R":
        values = 1.0 - values
    analyzed = "value" if channel is None else "1-R" if channel == "R" else channel
    # peak search needs >= 3 samples; a sparser run still gets its CSV
    n_in = k.size if window is None else int(((k >= window[0]) & (k <= window[1])).sum())
    if n_in < 3:
        return {"analyzed": analyzed, "peaks": [], "splitting": None}
    from .constants import cm1_to_mev
    from .spectra import find_peaks

    peaks = find_peaks(k, values, min_prominence=min_prominence, window=window)
    splitting = None
    if len(peaks) == 2:
        lower, upper = peaks[0].center, peaks[1].center
        splitting = {
            "omega_lower_cm1": round(lower, 1),
            "omega_upper_cm1": round(upper, 1),
            "splitting_cm1": round(upper - lower, 1),
            "splitting_mev": round(cm1_to_mev(upper - lower), 2),
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
        click.echo(iomod.json_text(payload), nl=False)
    else:
        path = os.path.join(out_dir, filename)
        iomod.write_json(path, payload)
        click.echo(path)


@click.group()
def main():
    """Vibrational strong coupling in planar microcavities: simulate,
    map fields and analyze polariton spectra."""


_config_opt = click.option(
    "--config", "config_path", required=True,
    type=click.Path(exists=True, dir_okay=False), help="YAML run configuration.",
)
_out_dir_opt = click.option(
    "--out-dir", default=".", show_default=True,
    type=click.Path(file_okay=False), help="Directory for output files.",
)


@main.command()
@_config_opt
@_out_dir_opt
@click.option("--angle", type=float, default=None, help="Override the scan angle (deg).")
@click.option("--grid", "grid_spec", default=None, help="Override grid as min:max:step (cm^-1).")
@click.option("--polarization", type=click.Choice(["s", "p", "unpolarized"]), default=None)
@click.option("--divergence", type=float, default=None,
              help="Gaussian angular spread, one sigma in degrees.")
@_translate_errors
def simulate(config_path, out_dir, angle, grid_spec, polarization, divergence):
    """T/R/A spectrum of the configured stack at one angle."""
    from . import io as iomod
    from .config import load_config, override, parse_grid_spec
    from .tmm import angle_scan

    cfg = load_config(config_path)
    stack = cfg.require_stack()
    grid = parse_grid_spec(grid_spec) if grid_spec else cfg.grid
    scan = override(cfg.scan, "scan", angle=angle, polarization=polarization,
                    divergence=divergence)
    spectrum = angle_scan(stack, grid, [scan.angle], scan.polarization,
                          divergence=scan.divergence)[0]

    iomod.write_spectrum_csv(os.path.join(out_dir, "spectrum.csv"), spectrum)
    summary = {
        "angle_deg": scan.angle,
        "polarization": scan.polarization,
        "divergence_deg": scan.divergence,
        "grid": {"min": grid.k_min, "max": grid.k_max, "step": grid.step},
        "channels": _spectrum_analysis(spectrum, scan.window, scan.min_prominence),
    }
    iomod.write_json(os.path.join(out_dir, "summary.json"), summary)
    click.echo(os.path.join(out_dir, "spectrum.csv"))
    click.echo(os.path.join(out_dir, "summary.json"))


@main.command("scan-angle")
@_config_opt
@_out_dir_opt
@_translate_errors
def scan_angle(config_path, out_dir):
    """Spectra over the configured angle list plus a dispersion table."""
    from . import io as iomod
    from .config import load_config
    from .spectra import build_dispersion
    from .tmm import angle_scan

    cfg = load_config(config_path)
    stack = cfg.require_stack()
    if not cfg.scan.angles:
        raise ConfigError("scan.angles is required for scan-angle")
    spectra = angle_scan(
        stack, cfg.grid, cfg.scan.angles, cfg.scan.polarization,
        divergence=cfg.scan.divergence,
    )
    for sp in spectra:
        name = f"spectrum_{sp.angle:+08.3f}.csv"
        iomod.write_spectrum_csv(os.path.join(out_dir, name), sp)
    table = build_dispersion(
        spectra, cfg.scan.channel, window=cfg.scan.window,
        min_prominence=cfg.scan.min_prominence,
    )
    path = os.path.join(out_dir, "dispersion.csv")
    iomod.write_dispersion_csv(path, table)
    click.echo(path)


@main.command("field-map")
@_config_opt
@_out_dir_opt
@click.option("--angle", type=float, default=None, help="Override the field-map angle (deg).")
@_translate_errors
def field_map_cmd(config_path, out_dir, angle):
    """|E(z, k)|^2 across the stack over a wavenumber grid."""
    from . import io as iomod
    from .config import load_config, override
    from .fields import default_z_grid, field_map

    cfg = load_config(config_path)
    stack = cfg.require_stack()
    settings = override(cfg.field_map, "field_map", angle=angle)
    z = default_z_grid(
        stack,
        z_step=settings.z_step,
        margin_ambient=settings.margin_ambient_nm,
        margin_substrate=settings.margin_substrate_nm,
    )
    fmap = field_map(stack, settings.grid, z=z, angle=settings.angle,
                     polarization=settings.polarization)
    path = os.path.join(out_dir, "field_map.csv")
    iomod.write_field_map_csv(path, fmap)
    click.echo(path)


@main.command()
@click.argument("csv_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--channel", type=click.Choice(["T", "R", "A"]), default="T", show_default=True)
@click.option("--window", default=None, help="Restrict analysis to lo:hi (cm^-1).")
@click.option("--min-prominence", type=float, default=None,
              help="Absolute prominence threshold (default: 5% of range).")
@click.option("--out-dir", default=None, type=click.Path(file_okay=False),
              help="Write analysis.json here instead of stdout.")
@_translate_errors
def analyze(csv_path, channel, window, min_prominence, out_dir):
    """Peaks and splittings of a spectrum CSV.

    Accepts the native k_cm1,T,R,A format or a two-column
    wavenumber,value file, read under the rules of `vibropol.io`."""
    from . import io as iomod
    from .config import ScanSettings, override, parse_colon_spec
    from .tmm import Spectrum

    if window is not None:
        window = parse_colon_spec(window, "lo:hi", "--window")
    settings = override(ScanSettings(), "analyze", window=window, min_prominence=min_prominence)

    data = iomod.read_spectrum_csv(csv_path)
    payload = {"source": os.path.basename(csv_path)}
    if isinstance(data, Spectrum):
        payload.update(angle_deg=data.angle, polarization=data.polarization,
                       channel_requested=channel,
                       channels=_spectrum_analysis(data, settings.window, settings.min_prominence))
    else:
        payload["channels"] = {
            "value": _channel_analysis(*data, settings.window, settings.min_prominence)
        }
    _emit_report(payload, out_dir, "analysis.json")


@main.command()
@_config_opt
@click.option("--out-dir", default=None, type=click.Path(file_okay=False),
              help="Write estimate.json here instead of stdout.")
@_translate_errors
def estimate(config_path, out_dir):
    """Scalar coupling estimates from the config's estimate section."""
    from .config import load_config
    from .polariton import estimate_report

    cfg = load_config(config_path)
    if cfg.estimate is None:
        raise ConfigError("config has no 'estimate' section")
    est = cfg.estimate
    payload = estimate_report(
        est.vibration, est.cavity, temperature_k=est.temperature_k,
        density=est.density, observed_splitting_mev=est.observed_splitting_mev,
        polariton_fwhm_mev=est.polariton_fwhm_mev,
    )
    _emit_report(payload, out_dir, "estimate.json")


@main.command()
@_config_opt
@_out_dir_opt
@click.option("--target", "target_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Measured two-column CSV (wavenumber, value).")
@click.option("--seed", type=int, default=None, help="Override the multi-start seed.")
@_translate_errors
def fit(config_path, out_dir, target_path, seed):
    """Fit the config's free stack parameters to measured data."""
    from . import fit as fitmod
    from . import io as iomod
    from .config import load_config, override
    from .spectra import load_measured

    cfg = load_config(config_path)
    if cfg.fit is None:
        raise ConfigError("config has no 'fit' section")
    k, target = load_measured(target_path)
    problem = cfg.fit_problem(k, target)
    settings = override(cfg.fit, "fit", seed=seed)
    result = fitmod.solve(problem, n_starts=settings.n_starts, seed=settings.seed)

    model = fitmod.model_values(problem, [result.params[p.path] for p in problem.free])
    iomod.write_csv(os.path.join(out_dir, "fit_curve.csv"), "k_cm1,target,model",
                    zip(k, target, model))

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
    iomod.write_json(os.path.join(out_dir, "fit.json"), payload)
    click.echo(os.path.join(out_dir, "fit.json"))


if __name__ == "__main__":
    main()
