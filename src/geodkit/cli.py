"""Batch command-line frontend.

Subcommands operate on CSV (comma separator, dot decimal, header row with
unit tags such as ``phi[gr]``) or JSON files and print to stdout unless an
output path is given.  Numeric output uses 12 significant digits so runs
are reproducible byte for byte.

Exit codes: 0 success, 2 input/usage error, 3 numerical error.  The class
of the exception decides: any ArithmeticError, which includes every
geodkit.core.NumericalError, exits 3; ValueError, KeyError and OSError exit
2.  The error class name goes to stderr, and a CSV row that is too short is
named by its data-row number (1 is the first row after the header).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .adjust import (
    LinearSystem,
    Network,
    Observation,
    dop,
    solve_linear,
)
from .coords import EcefCoord, GeodeticCoord, ecef_to_geodetic, geodetic_to_ecef
from .core import ANGLE_UNITS, Angle, get_ellipsoid, REGISTRY
from .datum import (
    BursaWolfParams,
    Helmert2DParams,
    bursa_wolf_apply,
    bursa_wolf_direct,
    bursa_wolf_estimate,
    helmert2d_apply,
    helmert2d_estimate,
    apply_molodensky,
)
from .geodesics import geodesic_direct, geodesic_inverse
from .heights import LevelLine, dynamic_height, normal_height, orthometric_height
from .orbits import GM_EARTH, OrbitalElements, eci_to_ecef, elements_to_eci
from .projections import (
    LambertDef,
    PlaneCoord,
    lambert_forward,
    lambert_inverse,
    list_projections,
    named_projection,
    projection_from_json,
    utm_forward,
    utm_inverse,
)
from .sphere import hour_angle, hsl_from_greenwich, sidereal_from_universal


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _angle_from(value: str, unit: str) -> float:
    return float(value) * ANGLE_UNITS[unit]


def _angle_to(rad: float, unit: str) -> float:
    return rad / ANGLE_UNITS[unit]


def _read_csv(path):
    if path in (None, "-"):
        rows = [r for r in csv.reader(io.StringIO(sys.stdin.read()))]
    else:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    rows = [row for row in rows if row and not row[0].startswith("#")]
    if not rows:
        raise ValueError("empty input")
    return rows[0], rows[1:]


def _read_rows(path, width: int) -> list:
    """The data rows of a CSV input, each checked to hold at least `width` fields."""
    rows = _read_csv(path)[1]
    for i, row in enumerate(rows, 1):
        if len(row) < width:
            raise ValueError(f"data row {i}: expected at least {width} fields, got {len(row)}")
    return rows


def _option(args, name: str) -> str:
    """The value of --name, which the chosen operation needs."""
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"{args.command} {args.op} needs --{name}")
    return value


def _write_lines(lines, path):
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _projection(args):
    if args.proj_json:
        with open(args.proj_json) as fh:
            return projection_from_json(fh.read())
    ell = get_ellipsoid(args.ell) if args.ell else None
    return named_projection(args.proj, ell)


def cmd_convert(args):
    unit = args.angle_unit
    rows = _read_rows(args.input, 4)
    ell = get_ellipsoid(args.ell)
    out = []
    if args.frm == "geodetic" and args.to == "ecef":
        out.append("name,x[m],y[m],z[m]")
        for row in rows:
            name, phi, lam, he = row[0], *map(float, row[1:4])
            p = geodetic_to_ecef(
                ell, GeodeticCoord(phi * ANGLE_UNITS[unit], lam * ANGLE_UNITS[unit], he)
            )
            out.append(f"{name},{_fmt(p.x)},{_fmt(p.y)},{_fmt(p.z)}")
    elif args.frm == "ecef" and args.to == "geodetic":
        out.append(f"name,phi[{unit}],lam[{unit}],he[m]")
        for row in rows:
            name = row[0]
            g = ecef_to_geodetic(ell, EcefCoord(*map(float, row[1:4])))
            out.append(
                f"{name},{_fmt(_angle_to(g.phi, unit))},{_fmt(_angle_to(g.lam, unit))},{_fmt(g.he)}"
            )
    else:
        raise ValueError(f"unsupported conversion {args.frm} -> {args.to}")
    _write_lines(out, args.output)


def cmd_project(args):
    unit = args.angle_unit
    proj = _projection(args)
    is_lambert = isinstance(proj, LambertDef)
    rows = _read_rows(args.input, 3)
    out = []
    if args.direction == "fwd":
        out.append("name,e[m],n[m]")
        for row in rows:
            g = GeodeticCoord(
                _angle_from(row[1], unit), _angle_from(row[2], unit)
            )
            p = lambert_forward(proj, g) if is_lambert else utm_forward(proj, g)
            out.append(f"{row[0]},{_fmt(p.e)},{_fmt(p.n)}")
    else:
        out.append(f"name,phi[{unit}],lam[{unit}]")
        for row in rows:
            p = PlaneCoord(float(row[1]), float(row[2]))
            g = lambert_inverse(proj, p) if is_lambert else utm_inverse(proj, p)
            out.append(
                f"{row[0]},{_fmt(_angle_to(g.phi, unit))},{_fmt(_angle_to(g.lam, unit))}"
            )
    _write_lines(out, args.output)


def cmd_geodesic(args):
    unit = args.angle_unit
    ell = get_ellipsoid(args.ell)
    rows = _read_rows(args.input, 5)
    out = []
    if args.problem == "direct":
        out.append(f"name,phi2[{unit}],lam2[{unit}],az2[{unit}],s[m]")
        for row in rows:
            p1 = GeodeticCoord(_angle_from(row[1], unit), _angle_from(row[2], unit))
            sol = geodesic_direct(ell, p1, _angle_from(row[3], unit), float(row[4]))
            out.append(
                f"{row[0]},{_fmt(_angle_to(sol.phi2, unit))},{_fmt(_angle_to(sol.lam2, unit))},"
                f"{_fmt(_angle_to(sol.az2, unit))},{_fmt(sol.s)}"
            )
    else:
        out.append(f"name,az1[{unit}],az2[{unit}],s[m]")
        for row in rows:
            p1 = GeodeticCoord(_angle_from(row[1], unit), _angle_from(row[2], unit))
            p2 = GeodeticCoord(_angle_from(row[3], unit), _angle_from(row[4], unit))
            sol = geodesic_inverse(ell, p1, p2)
            out.append(
                f"{row[0]},{_fmt(_angle_to(sol.az1, unit))},{_fmt(_angle_to(sol.az2, unit))},{_fmt(sol.s)}"
            )
    _write_lines(out, args.output)


def cmd_reduce(args):
    from .reductions import DistanceObservation, reduce_to_ellipsoid, reduce_to_plane

    rows = _read_rows(args.input, 4)
    out = ["name,de[m],dr[m]"]
    for row in rows:
        obs = DistanceObservation(
            float(row[1]), float(row[2]), float(row[3]), wave=args.wave
        )
        de = reduce_to_ellipsoid(obs, rigorous=args.rigorous)
        out.append(f"{row[0]},{_fmt(de)},{_fmt(reduce_to_plane(de, args.scale))}")
    _write_lines(out, args.output)


def _read_param_file(path) -> BursaWolfParams:
    with open(path) as fh:
        doc = json.load(fh)
    factor = ANGLE_UNITS[doc.get("units", "rad")]
    return BursaWolfParams(
        doc["tx"], doc["ty"], doc["tz"], doc["m"],
        doc["rx"] * factor, doc["ry"] * factor, doc["rz"] * factor,
    )


def _read_pairs_csv(path, dims):
    rows = _read_rows(path, 1 + 2 * dims)
    pairs = []
    for row in rows:
        vals = list(map(float, row[1:1 + 2 * dims]))
        if dims == 3:
            pairs.append((EcefCoord(*vals[:3]), EcefCoord(*vals[3:])))
        else:
            pairs.append((PlaneCoord(*vals[:2]), PlaneCoord(*vals[2:])))
    return pairs


def cmd_datum(args):
    out = []
    if args.op == "bw-apply":
        params = _read_param_file(_option(args, "params"))
        rows = _read_rows(args.input, 4)
        out.append("name,x[m],y[m],z[m]")
        for row in rows:
            p = bursa_wolf_apply(params, EcefCoord(*map(float, row[1:4])))
            out.append(f"{row[0]},{_fmt(p.x)},{_fmt(p.y)},{_fmt(p.z)}")
    elif args.op in ("bw-fit", "bw-direct"):
        pairs = _read_pairs_csv(args.input, 3)
        if args.op == "bw-fit":
            res = bursa_wolf_estimate(pairs)
            p = res.params
        else:
            p = bursa_wolf_direct(pairs)
        doc = {
            "tx": p.tx, "ty": p.ty, "tz": p.tz, "m": p.m_scale,
            "rx": p.rx, "ry": p.ry, "rz": p.rz, "units": "rad",
        }
        if args.op == "bw-fit":
            doc.update(s2=res.s2, rms_m=float(np.sqrt(np.mean(res.residuals**2))))
        out.append(json.dumps(doc, indent=2))
    elif args.op == "molodensky":
        unit = args.angle_unit
        ell1 = get_ellipsoid(args.ell)
        ell2 = get_ellipsoid(args.ell2)
        t = tuple(map(float, args.shift.split(",")))
        rows = _read_rows(args.input, 4)
        out.append(f"name,phi[{unit}],lam[{unit}],he[m]")
        for row in rows:
            g = GeodeticCoord(
                _angle_from(row[1], unit), _angle_from(row[2], unit), float(row[3])
            )
            g2 = apply_molodensky(ell1, ell2, g, t, abridged=args.abridged)
            out.append(
                f"{row[0]},{_fmt(_angle_to(g2.phi, unit))},{_fmt(_angle_to(g2.lam, unit))},{_fmt(g2.he)}"
            )
    elif args.op == "helmert2d-fit":
        pairs = _read_pairs_csv(args.input, 2)
        res = helmert2d_estimate(pairs)
        p = res.params
        out.append(json.dumps({
            "tx": p.tx, "ty": p.ty, "u": p.u, "v": p.v,
            "scale": p.scale, "theta_rad": p.theta, "s2": res.s2,
        }, indent=2))
    else:  # helmert2d-apply
        with open(_option(args, "params")) as fh:
            doc = json.load(fh)
        p = Helmert2DParams(doc["tx"], doc["ty"], doc["u"], doc["v"])
        rows = _read_rows(args.input, 3)
        out.append("name,e[m],n[m]")
        for row in rows:
            q = helmert2d_apply(p, PlaneCoord(float(row[1]), float(row[2])))
            out.append(f"{row[0]},{_fmt(q.e)},{_fmt(q.n)}")
    _write_lines(out, args.output)


def cmd_adjust(args):
    if args.system:
        with open(args.system) as fh:
            doc = json.load(fh)
        sysm = LinearSystem(
            np.array(doc["a"]), np.array(doc["k"]), np.array(doc.get("p")) if doc.get("p") else None
        )
        res = solve_linear(sysm)
        result = {
            "x": [float(v) for v in res.x],
            "v": [float(v) for v in res.v],
            "s2": res.s2,
            "cov": [[float(c) for c in row] for row in res.cov] if res.cov is not None else None,
            "iterations": res.iterations,
        }
        _write_lines([json.dumps(result, indent=2)], args.output)
        return
    if not (args.obs and args.points):
        raise ValueError("adjust needs --system or both --obs and --points")
    net = Network(scale_directions=not args.no_direction_scaling)
    for row in _read_rows(args.points, 4):
        name = row[0]
        vals = [float(v) if v else 0.0 for v in row[1:-1]]
        fixed = row[-1].strip().lower() in ("1", "true", "yes")
        x0, y0 = vals[:2]
        z0 = vals[2] if len(vals) > 2 else 0.0
        net.add_point(name, x0, y0, z0, fixed)
    unit = args.angle_unit
    for row in _read_rows(args.obs, 4):
        kind, frm, to = row[0], row[1], row[2]
        value = float(row[3])
        if kind == "direction":
            value *= ANGLE_UNITS[unit]
        sigma = float(row[4]) if len(row) > 4 and row[4] else None
        if kind == "direction" and sigma is not None:
            sigma *= ANGLE_UNITS[unit]
        set_id = row[5] if len(row) > 5 and row[5] else None
        dist_km = float(row[6]) if len(row) > 6 and row[6] else None
        net.add_observation(Observation(kind, frm, to, value, sigma, set_id, dist_km))
    res = net.solve()
    coords = {
        name: {"x": pt.x0, "y": pt.y0, "z": pt.z0}
        for name, pt in sorted(net.points.items())
    }
    result = {
        "points": coords,
        "x": [float(v) for v in res.x],
        "v": [float(v) for v in res.v],
        "s2": res.s2,
        "cov": [[float(c) for c in row] for row in res.cov] if res.cov is not None else None,
        "iterations": res.iterations,
    }
    _write_lines([json.dumps(result, indent=2)], args.output)


def cmd_orbit(args):
    with open(args.elements) as fh:
        doc = json.load(fh)
    el = OrbitalElements(
        a=doc["a"], e=doc["e"], i=doc["i"], raan=doc["raan"],
        arg_perigee=doc["arg_perigee"], t0=doc.get("t0", 0.0),
        mu=doc.get("mu", GM_EARTH),
    )
    epochs = [float(t) for t in args.epochs.split(",")]
    out = ["t[s],x[m],y[m],z[m]"]
    for t in epochs:
        x = elements_to_eci(el, t)
        if args.frame == "ecef":
            gst = args.gst_rad + 7.2921151467e-5 * (t - el.t0) if args.spin else args.gst_rad
            x = eci_to_ecef(x, gst).as_array()
        out.append(f"{_fmt(t)},{_fmt(x[0])},{_fmt(x[1])},{_fmt(x[2])}")
    _write_lines(out, args.output)


def cmd_dop(args):
    unit = args.angle_unit
    ell = get_ellipsoid(args.ell)
    sats = [EcefCoord(*map(float, row[1:4])) for row in _read_rows(args.input, 4)]
    fields = args.receiver.split(",")
    if len(fields) not in (2, 3):
        raise ValueError(f"--receiver needs phi,lam[,he], got {args.receiver!r}")
    receiver = GeodeticCoord(
        _angle_from(fields[0], unit),
        _angle_from(fields[1], unit),
        float(fields[2]) if len(fields) > 2 else 0.0,
    )
    r = dop(sats, receiver, ell)
    _write_lines(
        [json.dumps({"gdop": r.gdop, "pdop": r.pdop, "tdop": r.tdop,
                     "hdop": r.hdop, "vdop": r.vdop}, indent=2)],
        args.output,
    )


def cmd_heights(args):
    unit = args.angle_unit
    segments = [(float(row[1]), float(row[2])) for row in _read_rows(args.input, 3)]
    line = LevelLine(
        segments,
        phi_start=_angle_from(args.phi_start, unit) if args.phi_start else 0.0,
        phi_end=_angle_from(args.phi_end, unit) if args.phi_end else 0.0,
        h_mean=args.h_mean,
    )
    if args.kind == "ortho":
        value = orthometric_height(line)
    elif args.kind == "normal":
        value = normal_height(line, _angle_from(args.phi_start or "0", unit), args.h_mean)
    else:
        value = dynamic_height(line)
    _write_lines([_fmt(value)], args.output)


def cmd_astro(args):
    def hours(name):
        return Angle.parse(_option(args, name)).hours

    if args.op == "hour-angle":
        value = hour_angle(hours("hsl"), hours("alpha"))
    elif args.op == "hsl":
        value = hsl_from_greenwich(hours("hsg"), hours("lam"))
    else:  # sidereal
        value = sidereal_from_universal(float(_option(args, "tu")), hours("hsg0"), hours("lam"))
    _write_lines([_fmt(value)], args.output)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="geodkit", description=__doc__)
    ap.add_argument("--version", action="version", version=f"geodkit {__version__}")
    ap.add_argument("--list-ellipsoids", action="store_true")
    ap.add_argument("--list-projections", action="store_true")
    sub = ap.add_subparsers(dest="command")

    def common(p, angle=True):
        p.add_argument("--input", "-i", default="-")
        p.add_argument("--output", "-o", default="-")
        if angle:
            p.add_argument("--angle-unit", choices=list(ANGLE_UNITS), default="gr")

    p = sub.add_parser("convert", help="geodetic <-> ECEF over CSV")
    p.add_argument("--from", dest="frm", required=True, choices=["geodetic", "ecef"])
    p.add_argument("--to", required=True, choices=["geodetic", "ecef"])
    p.add_argument("--ell", default="grs80")
    common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("project", help="map projection forward/inverse")
    p.add_argument("direction", choices=["fwd", "inv"])
    p.add_argument("--proj", default="lambert-nord-tn")
    p.add_argument("--proj-json", help="JSON projection definition file")
    p.add_argument("--ell", default=None)
    common(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("geodesic", help="geodesic direct/inverse problems")
    p.add_argument("problem", choices=["direct", "inverse"])
    p.add_argument("--ell", default="clarke-1880-fr")
    common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("reduce", help="distance reductions")
    p.add_argument("--wave", choices=["light", "micro"], default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--rigorous", action="store_true")
    common(p, angle=False)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("datum", help="datum transformations")
    p.add_argument("op", choices=["bw-apply", "bw-fit", "bw-direct", "molodensky",
                                  "helmert2d-fit", "helmert2d-apply"])
    p.add_argument("--params")
    p.add_argument("--ell", default="clarke-1880-fr")
    p.add_argument("--ell2", default="wgs84")
    p.add_argument("--shift", default="0,0,0", help="dX,dY,dZ metres (molodensky)")
    p.add_argument("--abridged", action="store_true")
    common(p)
    p.set_defaults(func=cmd_datum)

    p = sub.add_parser("adjust", help="least-squares adjustment")
    p.add_argument("--system", help="JSON file with A, K and optional P")
    p.add_argument("--obs", help="CSV kind,from,to,value,sigma,set_id,dist_km")
    p.add_argument("--points", help="CSV name,x0,y0[,z0],fixed")
    p.add_argument("--no-direction-scaling", action="store_true")
    common(p)
    p.set_defaults(func=cmd_adjust)

    p = sub.add_parser("orbit", help="two-body propagation")
    p.add_argument("--elements", required=True, help="JSON orbital elements")
    p.add_argument("--epochs", required=True, help="comma-separated epochs, s")
    p.add_argument("--frame", choices=["eci", "ecef"], default="eci")
    p.add_argument("--gst-rad", type=float, default=0.0)
    p.add_argument("--spin", action="store_true",
                   help="advance GST with the earth rotation rate")
    common(p, angle=False)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("dop", help="dilution of precision")
    p.add_argument("--receiver", required=True, help="phi,lam[,he]")
    p.add_argument("--ell", default="wgs84")
    common(p)
    p.set_defaults(func=cmd_dop)

    p = sub.add_parser("heights", help="height systems")
    p.add_argument("kind", choices=["ortho", "normal", "dynamic"])
    p.add_argument("--phi-start")
    p.add_argument("--phi-end")
    p.add_argument("--h-mean", type=float, default=0.0)
    common(p)
    p.set_defaults(func=cmd_heights)

    p = sub.add_parser("astro", help="sidereal time arithmetic")
    p.add_argument("op", choices=["hour-angle", "hsl", "sidereal"])
    p.add_argument("--hsl")
    p.add_argument("--alpha")
    p.add_argument("--hsg")
    p.add_argument("--hsg0")
    p.add_argument("--lam", default="0h")
    p.add_argument("--tu")
    common(p, angle=False)
    p.set_defaults(func=cmd_astro)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.list_ellipsoids:
        for key in sorted(REGISTRY):
            e = REGISTRY[key]
            print(f"{key}: a={_fmt(e.a)} 1/f={_fmt(e.inv_f)}")
        return 0
    if args.list_projections:
        for name in list_projections():
            print(name)
        return 0
    if not getattr(args, "func", None):
        ap.print_usage(sys.stderr)
        return 2
    try:
        args.func(args)
    except ArithmeticError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
