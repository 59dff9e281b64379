"""Command-line pipeline: generate, learn, propagate, kernel, analyze.

All data moves through files (JSON documents and TSV tables); stdout
and stderr carry only logs. Internally everything is dimensionless
(hbar = 1, energies in units of the exchange coupling); the
``--units wavenumber`` switch converts cm^-1 / Kelvin / fs inputs at
this boundary and nowhere else.

``analyze`` reads each file by its document kind: a propagated state
trajectory is checked for a settled tail, and a tensors document gives
its fixed point rho = (sum_s T_s) rho directly. A sweep is ``generate``
and ``learn`` per point, then one ``analyze`` over the tensors files.

Exit codes: 0 success, 2 validation or schema failure, 3 numerical
failure (divergence, unsettled trajectory, insufficient learning, no
unique fixed point). ``analyze`` writes its table before exiting 2 for
a file without a two-level canonical reference (``no_model``: its meta
lacks the model numbers, or its dim is not 2) or 3.
"""

import argparse
import logging
import sys

import numpy as np

from . import fileio
from .analysis import canonical_state, detect_equilibrium, noncanonical_angle
from .errors import (
    ConfigurationError,
    DegenerateStateError,
    DimensionError,
    NotSettledError,
    NumericalError,
    SchemaError,
)
from .generators import gen_dephasing_analytic, gen_lindblad, gen_unitary
from .heom import HeomConfig, gen_heom
from .liouville import (
    SIGMA_X,
    SIGMA_Z,
    liouvillian_superop,
    validate_state,
    vectorize,
)
from .maps import extract_maps
from .models import (
    SpinBosonParams,
    beta_from_kelvin,
    time_from_fs,
    tls_hamiltonian,
)
from .tensors import (
    TransferTensorSequence,
    choose_cutoff,
    maps_to_tensors,
    markovianity_profile,
    propagate,
    stationary_state,
    truncation_error,
)
from .kernels import extract_kernel, extract_liouvillian, kernel_element_series
from .trajectories import TimeGrid

log = logging.getLogger("ttm")

COUPLING_OPS = {"sz": SIGMA_Z, "sx": SIGMA_X}


def _convert_units(args):
    """Dimensionless (omega0, j, lam, gamma, beta, dt) from the flags.

    Each unit system reads one temperature flag, ``--beta`` (default 0.5)
    or ``--temperature``; the other one is refused, not ignored.
    """
    if args.units == "dimensionless":
        if args.temperature is not None:
            raise ConfigurationError("--temperature needs --units wavenumber; "
                                     "dimensionless units take --beta")
        beta = 0.5 if args.beta is None else args.beta
        return (args.omega0, args.j, args.lam, args.gamma, beta, args.dt)
    if args.beta is not None:
        raise ConfigurationError("wavenumber units take --temperature in "
                                 "Kelvin, not --beta")
    unit = args.j if args.j > 0 else args.omega0
    if unit <= 0:
        raise ConfigurationError(
            "wavenumber units need a positive --j or --omega0 to set the scale"
        )
    if args.temperature is None:
        raise ConfigurationError("wavenumber units need --temperature in Kelvin")
    return (
        args.omega0 / unit,
        args.j / unit,
        args.lam / unit,
        args.gamma / unit,
        beta_from_kelvin(args.temperature, unit),
        time_from_fs(args.dt, unit),
    )


def _parse_initial(spec, dim):
    """Initial state from a label (e11, plus, mixed) or a JSON file."""
    if spec.startswith("e") and len(spec) == 3 and spec[1:].isdigit():
        i, j = int(spec[1]) - 1, int(spec[2]) - 1
        if i != j:
            raise ConfigurationError(
                f"initial {spec!r} is not a population state"
            )
        if not 0 <= i < dim:
            raise ConfigurationError(f"initial {spec!r} out of range for dim {dim}")
        rho = np.zeros((dim, dim), dtype=complex)
        rho[i, i] = 1.0
        return rho
    if spec == "plus":
        if dim != 2:
            raise ConfigurationError("'plus' is only defined for dim 2")
        return np.full((2, 2), 0.5, dtype=complex)
    if spec == "mixed":
        return np.eye(dim, dtype=complex) / dim
    return validate_state(fileio.load_initial_state(spec, dim))


def cmd_generate(args):
    omega0, j, lam, gamma, beta, dt = _convert_units(args)
    grid = TimeGrid(dt=dt, n_steps=args.steps)
    # unitary too: meta records the bath numbers, and analyze reads beta back
    params = SpinBosonParams(
        omega0=omega0, j_coupling=j, lam=lam, gamma=gamma, beta=beta,
        coupling_op=COUPLING_OPS[args.coupling],
    )
    if args.model == "unitary":
        trajs = gen_unitary(params.hamiltonian, grid)
    elif args.model == "lindblad":
        trajs = gen_lindblad(params.hamiltonian, [params.coupling_op], [lam], grid)
    elif args.model == "dephasing":
        trajs = gen_dephasing_analytic(params, grid)
    else:
        cfg = HeomConfig(depth=args.heom_depth, n_matsubara=args.heom_matsubara)
        trajs = gen_heom(params, cfg, grid)
    meta = {
        "model": args.model,
        "omega0": omega0,
        "j": j,
        "lambda": lam,
        "gamma": gamma,
        "beta": beta,
        "coupling": args.coupling,
    }
    if args.model == "heom":
        meta["heom_depth"] = args.heom_depth
        meta["heom_matsubara"] = args.heom_matsubara
    fileio.save_basis_trajectories(args.out, trajs, meta=meta)
    log.info("wrote %s (%d basis trajectories, %d steps, dt=%g)",
             args.out, trajs.dim**2, grid.n_steps, grid.dt)
    return 0


def cmd_learn(args):
    trajs, meta = fileio.load_basis_trajectories(args.trajectory)
    try:
        full = maps_to_tensors(extract_maps(trajs))
    except DimensionError as exc:
        raise DimensionError(f"{args.trajectory}: {exc}") from exc
    profile = markovianity_profile(full)
    cutoff_k = args.cutoff_k
    if cutoff_k is None:
        cutoff_k = choose_cutoff(profile, args.cutoff_tol)
    kept = full.truncated(cutoff_k)
    trunc = truncation_error(full, cutoff_k) if cutoff_k < len(full) else None
    fileio.save_tensors(
        args.out, kept, profile=profile, truncation=trunc, meta=meta,
    )
    log.info("learned %d tensors, kept K=%d, truncation error %s",
             len(profile), len(kept),
             "n/a" if trunc is None else f"{trunc:.3e}")
    return 0


def cmd_propagate(args):
    tensors, doc = fileio.load_tensors(args.tensors)
    rho0 = _parse_initial(args.initial, tensors.dim)
    # overflowing tensors leave non-finite frames, which the writer
    # refuses (exit 3); numpy's warnings would only repeat that on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        frames = propagate(tensors, len(tensors), rho0, args.steps)
        traces = np.abs(np.einsum("kii->k", frames) - 1.0)
    drift = float(traces.max())
    summary = {
        "final_state": fileio.encode_array(frames[-1]),
        "max_trace_drift": drift,
    }
    fileio.save_state_trajectory(args.out, frames, tensors.dt,
                                 meta=doc.get("meta", {}), summary=summary)
    log.info("wrote %s (%d steps, max trace drift %.3e)",
             args.out, args.steps, drift)
    # written first, so a drifting run still leaves its product behind;
    # |tr rho(t_m) - 1| may reach 1e-6 plus 1e-6 per 100 steps
    if np.any(traces > 1e-6 * (np.arange(args.steps + 1) / 100.0 + 1.0)):
        raise NumericalError(
            f"trace drift {drift:.3e} beyond tolerance; tensors are "
            "inaccurate or the cutoff is too aggressive"
        )
    return 0


def _parse_elements(spec, dim):
    out = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        parts = chunk.split("->")
        if len(parts) != 2 or len(parts[0]) != 2 or len(parts[1]) != 2:
            raise ConfigurationError(
                f"element {chunk!r} is not of the form rc->rc (zero-based)"
            )
        try:
            src = (int(parts[0][0]), int(parts[0][1]))
            dst = (int(parts[1][0]), int(parts[1][1]))
        except ValueError:
            raise ConfigurationError(f"element {chunk!r} has non-digit indices")
        for idx in src + dst:
            if not 0 <= idx < dim:
                raise ConfigurationError(f"element {chunk!r} out of range")
        out.append((src, dst))
    return out


def cmd_kernel(args):
    if args.elements and not args.table:
        raise ConfigurationError("--elements selects the columns of "
                                 "--table; give --table too")
    tensors, doc = fileio.load_tensors(args.tensors)
    # parsed before anything is written, so a bad spec leaves no product
    d = tensors.dim
    if args.elements:
        pairs = _parse_elements(args.elements, d)
    else:
        pairs = [((a, b), (c, e)) for a, b, c, e in np.ndindex((d,) * 4)]
    meta = dict(doc.get("meta", {}))
    if args.fit_liouvillian or not {"omega0", "j"} <= meta.keys():
        fit = extract_liouvillian(tensors.tensors[0], tensors.dt)
        h = fit.hamiltonian
        meta["liouvillian_fit_residual"] = fit.residual_norm
        log.info("fitted coherent generator, dissipative remainder %.3e",
                 fit.residual_norm)
    elif tensors.dim != 2:
        raise SchemaError(
            f"{args.tensors}: meta holds the two-level omega0 and j, but "
            f"dim is {tensors.dim}"
        )
    else:
        h = tls_hamiltonian(meta["omega0"], meta["j"])
    kernel = extract_kernel(tensors, liouvillian_superop(h))
    fileio.save_kernel(args.out, kernel, meta=meta)
    log.info("wrote %s (%d kernel samples)", args.out, len(kernel))
    if args.table:
        columns = ["s", "time"]
        for src, dst in pairs:
            label = f"{src[0]}{src[1]}to{dst[0]}{dst[1]}"
            columns += [f"re_{label}", f"im_{label}"]
        values = np.stack([kernel_element_series(kernel, src, dst)[1]
                           for src, dst in pairs], axis=-1)
        table = np.column_stack([
            tensors.dt * np.arange(1, len(kernel) + 1),
            np.stack([values.real, values.imag], -1).reshape(len(kernel), -1),
        ])
        rows = [[s, *row] for s, row in enumerate(table.tolist(), start=1)]
        fileio.write_table(args.table, columns, rows)
        log.info("wrote %s (%d elements)", args.table, len(pairs))
    return 0


def _analysis_row(meta, state, settled_at, residual, status="ok"):
    """Table row with the angle of ``state``; without one, ``status`` says why."""
    row = {
        "lambda": meta.get("lambda", float("nan")),
        "beta": meta.get("beta", float("nan")),
        "theta": float("nan"),
        "settled_at": settled_at,
        "residual": float("nan") if residual is None else residual,
        "status": status,
    }
    if state is None:
        return row
    if state.shape != (2, 2) or not {"omega0", "j", "beta"} <= meta.keys():
        row["status"] = "no_model"
        return row
    reference = canonical_state(
        tls_hamiltonian(meta["omega0"], meta["j"]), meta["beta"]
    )
    try:
        row["theta"] = noncanonical_angle(state, reference).theta
    except DegenerateStateError:
        row["status"] = "degenerate"
    return row


def _trajectory_row(meta, frames, tol, window):
    """Row of the settled tail of a propagated state trajectory."""
    try:
        report = detect_equilibrium(frames, tol, window)
    except NotSettledError as exc:
        return _analysis_row(meta, None, -1, exc.residual, "not_settled")
    return _analysis_row(meta, report.state, report.settled_at,
                         report.residual)


def _tensors_row(meta, tensors):
    """Row of the fixed point of learned tensors.

    ``settled_at`` is the kept depth K and ``residual``
    max|sum_s T_s rho - rho|.
    """
    try:
        state = stationary_state(tensors)
    except NumericalError:
        return _analysis_row(meta, None, -1, None, "no_fixed_point")
    residual = tensors.tensors.sum(axis=0) @ vectorize(state) - vectorize(state)
    return _analysis_row(meta, state, len(tensors),
                         float(np.abs(residual).max()))


def cmd_analyze(args):
    rows = []
    for path in args.files:
        payload, meta = fileio.load_state_or_tensors(path)
        if isinstance(payload, TransferTensorSequence):
            rows.append(_tensors_row(meta, payload))
        else:
            rows.append(_trajectory_row(meta, payload, args.tol, args.window))
    columns = ["lambda", "beta", "theta", "settled_at", "residual", "status"]
    fileio.write_table(
        args.out,
        columns,
        [[row[c] for c in columns] for row in rows],
    )
    flagged = sum(row["status"] != "ok" for row in rows)
    log.info("wrote %s (%d rows, %d flagged)", args.out, len(rows), flagged)
    no_model = [str(path) for path, row in zip(args.files, rows)
                if row["status"] == "no_model"]
    if no_model:
        raise SchemaError(
            "no canonical reference (meta lacks omega0/j/beta, or dim is "
            "not 2): " + ", ".join(no_model)
        )
    failed = sum(row["status"] in ("not_settled", "no_fixed_point")
                 for row in rows)
    if failed:
        raise NumericalError(
            f"{failed} of {len(rows)} inputs have no equilibrium "
            "(not_settled or no_fixed_point)"
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ttm",
        description="Learn transfer tensors from short open-system "
                    "simulations, then extrapolate, reconstruct memory "
                    "kernels and analyze equilibria.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="run a reference simulation")
    p_gen.add_argument("--model", required=True,
                       choices=["unitary", "lindblad", "dephasing", "heom"])
    p_gen.add_argument("--dt", type=float, required=True)
    p_gen.add_argument("--steps", type=int, required=True,
                       help="number of grid steps")
    p_gen.add_argument("--omega0", type=float, default=1.0,
                       help="level splitting (default 1)")
    p_gen.add_argument("--j", type=float, default=1.0,
                       help="exchange coupling (default 1)")
    p_gen.add_argument("--lambda", dest="lam", type=float, default=0.1,
                       help="bath reorganization energy (default 0.1)")
    p_gen.add_argument("--gamma", type=float, default=1.0,
                       help="bath cutoff frequency (default 1)")
    p_gen.add_argument("--beta", type=float, default=None,
                       help="inverse temperature, dimensionless units only "
                            "(default 0.5)")
    p_gen.add_argument("--temperature", type=float, default=None,
                       help="temperature in Kelvin (wavenumber units only)")
    p_gen.add_argument("--coupling", choices=sorted(COUPLING_OPS),
                       default="sz", help="system-bath coupling operator")
    p_gen.add_argument("--heom-depth", type=int, default=5,
                       help="hierarchy depth (model heom)")
    p_gen.add_argument("--heom-matsubara", type=int, default=2,
                       help="Matsubara modes kept (model heom)")
    p_gen.add_argument("--units", choices=["dimensionless", "wavenumber"],
                       default="dimensionless",
                       help="input unit system (wavenumber: energies in "
                            "cm^-1, temperature in K, dt in fs)")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_learn = sub.add_parser("learn", help="extract transfer tensors")
    p_learn.add_argument("trajectory")
    group = p_learn.add_mutually_exclusive_group()
    group.add_argument("--cutoff-k", type=int, default=None,
                       help="fixed memory depth K")
    group.add_argument("--cutoff-tol", type=float, default=1e-7,
                       help="tail-norm tolerance for automatic K")
    p_learn.add_argument("--out", required=True)
    p_learn.set_defaults(func=cmd_learn)

    p_prop = sub.add_parser("propagate", help="extrapolate a state")
    p_prop.add_argument("tensors")
    p_prop.add_argument("--initial", default="e11",
                        help="e11/e22/plus/mixed or a JSON state file")
    p_prop.add_argument("--steps", type=int, required=True)
    p_prop.add_argument("--out", required=True)
    p_prop.set_defaults(func=cmd_propagate)

    p_kern = sub.add_parser("kernel", help="reconstruct the memory kernel")
    p_kern.add_argument("tensors")
    p_kern.add_argument("--fit-liouvillian", action="store_true",
                        help="fit the coherent generator instead of using "
                             "model metadata")
    p_kern.add_argument("--out", required=True)
    p_kern.add_argument("--table", default=None,
                        help="optional TSV of kernel element series")
    p_kern.add_argument("--elements", default=None,
                        help="comma list rc->rc (zero-based), default all")
    p_kern.set_defaults(func=cmd_kernel)

    p_ana = sub.add_parser("analyze",
                           help="equilibrium detection and deviation angles")
    p_ana.add_argument("files", nargs="+", metavar="FILE",
                       help="propagated state or tensors files")
    p_ana.add_argument("--tol", type=float, default=1e-9,
                       help="equilibrium per-step tolerance (state files)")
    p_ana.add_argument("--window", type=int, default=50,
                       help="frames that must confirm it (state files)")
    p_ana.add_argument("--out", required=True)
    p_ana.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except SchemaError as exc:
        log.error("schema: %s", exc)
        return 2
    except (ConfigurationError, DimensionError, ValueError) as exc:
        log.error("invalid input: %s", exc)
        return 2
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
