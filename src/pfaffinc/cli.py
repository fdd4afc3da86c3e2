"""Command-line front end for reproducible incidence experiments.

Every output file starts with a header recording the format version, the
seed, the parameters, and the library version, so identical command lines
produce byte-identical outputs.  Each command imports the modules it runs,
so `import pfaffinc.cli` loads only `scene` and what it imports (`curves`,
`poly`, `errors`).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import DuplicateCurve, EmptyTrace, PfaffincError
from .scene import load_scene, save_scene

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
_TRACE_BLOCK = 16  # curves `intersect` traces at a time, with one tangent pass


def _default_seed(value):
    if value is not None:
        return value
    env = os.environ.get("PFAFFINC_SEED")
    return int(env) if env else 0


def _header(**extra):
    fields = {"format_version": 1, "version": __version__}
    fields.update(extra)
    lines = [f"# {k}={v}" for k, v in fields.items()]
    return "\n".join(lines) + "\n"


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


_FAMILIES = {  # generate --family: (generators, args, seed) -> scene
    "grid": lambda gen, args, seed: gen.grid_lines(args.a, args.b),
    "grid-exp": lambda gen, args, seed: gen.exp_transform(gen.grid_lines(args.a, args.b)),
    "circles": lambda gen, args, seed: gen.unit_circles(args.m, args.n, seed, args.planted),
    "random": lambda gen, args, seed: gen.random_scene(
        args.kinds.split(",") if args.kinds else ["line", "circle", "parabola", "exp"],
        args.m, args.n, args.planted, seed),
}
_BOUNDS = {"kst": "bound_kst", "pach-sharir": "bound_pach_sharir",
           "pfaffian": "bound_pfaffian_curves"}  # verify-bound --theorem: incidence.<name>(m, n, s)


def cmd_generate(args):
    from . import generators

    scene = _FAMILIES[args.family](generators, args, _default_seed(args.seed))
    save_scene(scene, args.out)
    print(f"wrote {args.out} (m={scene.m}, n={scene.n})")
    return EXIT_OK


def cmd_count(args):
    from . import incidence as inc

    scene = load_scene(args.scene)
    graph = inc.count_incidences(scene.points, scene.curves, scene.traces(), args.tol)
    text = _header(seed=scene.seed, scene=args.scene, tol=args.tol)
    text += "m,n,I\n"
    text += f"{scene.m},{scene.n},{graph.count()}\n"
    _write(args.out, text)
    return EXIT_OK


def cmd_intersect(args):
    from . import intersect as ix
    from .curves import SampleTable

    scene = load_scene(args.scene)
    curves, tables = scene.curves, []
    first = range(0, len(curves), _TRACE_BLOCK)
    for a in first:  # traces freed once their branches exist
        block = curves[a:a + _TRACE_BLOCK]
        traces = [scene.trace(i) for i in range(a, a + len(block))]
        tables.append(ix.monotone_branches(block, traces, ix.vertical_tangent_ts(block, traces)))
        del traces
    branches = SampleTable.concat(tables, first)
    del tables  # the joined table holds copies of the blocks' columns
    text = _header(seed=scene.seed, scene=args.scene, tol=args.tol)
    text += "curve_i,curve_j,x,y\n"
    rows = (f"{i},{j},{x!r},{y!r}\n"
            for i, j, pts in ix.pair_intersections(curves, branches, args.tol) for x, y in pts)
    # joined 1,024 at a time: a string per row holds twice the text's memory
    text += "".join(iter(lambda: "".join(itertools.islice(rows, 1024)), ""))
    _write(args.out, text)
    return EXIT_OK


def cmd_cutting(args):
    from . import cutting as ct
    from .render import render_svg

    seed = _default_seed(args.seed)
    scene = load_scene(args.scene)
    traces = scene.traces()
    cut = ct.build_cutting(scene.curves, traces, scene.viewport, args.r,
                           seed=seed, max_retries=args.max_retries)
    payload = cut.to_dict()
    _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    csv = _header(seed=seed, scene=args.scene, r=args.r, s=cut.s, retries_used=cut.retries_used)
    csv += "cell,crossings\n"
    csv += "".join(f"{i},{k}\n" for i, k in enumerate(np.diff(cut._conflict_off()).tolist()))
    _write(args.crossings_out, csv)
    if args.svg:
        _write(args.svg, render_svg(scene, traces, cut))
    print(f"cells={len(cut.cells)} max_crossings={cut.max_crossings()} "
          f"bound={scene.n / args.r:.2f} retries={cut.retries_used}")
    return EXIT_OK


def cmd_verify_bound(args):
    from . import incidence as inc

    scene = load_scene(args.scene)
    graph = inc.count_incidences(scene.points, scene.curves, scene.traces(), args.tol)
    count = graph.count()
    m, n = scene.m, scene.n
    base = getattr(inc, _BOUNDS[args.theorem])(m, n, args.s)
    c_fit = count / base if base > 0 else 0.0
    c_used = args.c_fit if args.c_fit is not None else c_fit
    passed = count <= c_used * base + 1e-9
    r_opt, regime = inc.optimal_r(m, n, args.s)
    text = _header(seed=scene.seed, scene=args.scene, theorem=args.theorem)
    text += "m,n,s,t,I,bound,C_fit,regime\n"
    text += (f"{m},{n},{args.s},{args.t},{count},{c_used * base!r},"
             f"{c_fit!r},{regime or 'interior'}\n")
    text += f"# optimal_r={r_opt}\n"
    text += f"# {'PASS' if passed else 'FAIL'}\n"
    _write(args.out, text)
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_sweep(args):
    from . import generators as gen, incidence as inc

    sizes = [int(v) for v in args.sizes.split(",")]
    if min(sizes) < 1:
        raise ValueError(f"sizes must be positive, got {args.sizes}")
    rows = []
    for nominal in sizes:
        g = max(1, round(nominal ** (1.0 / 3.0)))
        scene = gen.grid_lines(g, g)
        graph = inc.count_incidences(scene.points, scene.curves, scene.traces(), args.tol)
        rows.append((nominal, g, scene.m, scene.n, graph.count()))
    text = _header(sizes=args.sizes)
    text += "nominal,a,m,n,I\n"
    text += "".join(",".join(str(v) for v in row) + "\n" for row in rows)
    slope = None
    if args.fit_exponent:
        xs = np.log([r[3] for r in rows])
        ys = np.log([r[4] for r in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
        text += f"# fitted_exponent={slope!r}\n"
    _write(args.out, text)
    if slope is not None:
        print(f"fitted exponent: {slope:.4f}")
    return EXIT_OK


def cmd_duality(args):
    from . import duality as du

    seed = _default_seed(args.seed)
    with open(args.family) as fh:
        data = json.load(fh)
    family = du.PfaffianFamily.from_dict(data["family"] if "family" in data else data)
    curves = du.family_curve_set(data["curves"], family.d)
    points = np.array(data["points"], dtype=float).reshape(-1, 2)
    try:
        report = du.verify_duality_chain(points, family, curves, args.tol, seed)
        ok = report.transpose_ok
        counts = report.counts
    except PfaffincError as err:
        print(f"FAIL: {err}")
        return EXIT_VERIFICATION
    text = _header(seed=seed, family=args.family, tol=args.tol)
    text += "primal,dual,projected,transpose_ok\n"
    text += f"{counts[0]},{counts[1]},{counts[2]},{ok}\n"
    _write(args.out, text)
    print(f"{'PASS' if ok else 'FAIL'}: counts={counts}")
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_chains(args):
    from . import chains as ch

    with open(args.chain) as fh:
        data = json.load(fh)
    chain = ch.chain_from_json(data)
    report = ch.verify_chain(chain, samples=args.samples, tol=args.tol, seed=_default_seed(args.seed))
    text = _header(chain=args.chain, samples=args.samples, tol=args.tol)
    text += "link,kind,max_error_x,max_error_y\n"
    text += "".join(f"{i + 1},{c.kind},{float(c.max_error_x)!r},{float(c.max_error_y)!r}\n"
                    for i, c in enumerate(report.checks))
    text += f"# {'PASS' if report.passed else 'FAIL'}\n"
    _write(args.out, text)
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def build_parser():
    p = argparse.ArgumentParser(prog="pfaffinc",
                                description="incidence experiments with field-driven curves")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a scene JSON")
    g.add_argument("--family", required=True, choices=list(_FAMILIES))
    g.add_argument("--a", type=int, default=4)
    g.add_argument("--b", type=int, default=4)
    g.add_argument("--m", type=int, default=100)
    g.add_argument("--n", type=int, default=40)
    g.add_argument("--planted", type=float, default=0.5)
    g.add_argument("--kinds", default="")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("count", help="brute-force incidence count")
    c.add_argument("--scene", required=True)
    c.add_argument("--tol", type=float, default=1e-7)
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_count)

    i = sub.add_parser("intersect", help="pairwise curve intersections as CSV")
    i.add_argument("--scene", required=True)
    i.add_argument("--tol", type=float, default=1e-9)
    i.add_argument("--out", default="-")
    i.set_defaults(func=cmd_intersect)

    k = sub.add_parser("cutting", help="build and certify a cutting")
    k.add_argument("--scene", required=True)
    k.add_argument("--r", type=int, required=True)
    k.add_argument("--seed", type=int, default=None)
    k.add_argument("--max-retries", type=int, default=32)
    k.add_argument("--out", default="cutting.json")
    k.add_argument("--crossings-out", default="crossings.csv")
    k.add_argument("--svg", default=None)
    k.set_defaults(func=cmd_cutting)

    v = sub.add_parser("verify-bound", help="compare a count against a ceiling")
    v.add_argument("--scene", required=True)
    v.add_argument("--s", type=int, default=2)
    v.add_argument("--t", type=int, default=2)
    v.add_argument("--theorem", default="pfaffian", choices=list(_BOUNDS))
    v.add_argument("--c-fit", type=float, default=None)
    v.add_argument("--tol", type=float, default=1e-7)
    v.add_argument("--out", default="-")
    v.set_defaults(func=cmd_verify_bound)

    s = sub.add_parser("sweep", help="grid-family size sweep with exponent fit")
    s.add_argument("--family", default="grid", choices=["grid"])
    s.add_argument("--sizes", required=True)
    s.add_argument("--fit-exponent", action="store_true")
    s.add_argument("--tol", type=float, default=1e-7)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_sweep)

    d = sub.add_parser("duality", help="verify the three-way incidence equality")
    d.add_argument("--family", required=True, help="JSON with family, curves, points")
    d.add_argument("--tol", type=float, default=1e-7)
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--out", default="-")
    d.set_defaults(func=cmd_duality)

    n = sub.add_parser("chains", help="verify a chain description JSON")
    n.add_argument("--chain", required=True)
    n.add_argument("--samples", type=int, default=1000)
    n.add_argument("--tol", type=float, default=1e-6)
    n.add_argument("--seed", type=int, default=None)
    n.add_argument("--out", default="-")
    n.set_defaults(func=cmd_chains)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, EmptyTrace, DuplicateCurve) as err:
        # an EmptyTrace here is always a scene curve that misses the viewport,
        # and a DuplicateCurve a family file that lists a curve twice
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except PfaffincError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
