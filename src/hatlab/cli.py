"""Command-line interface.

Subcommands:
  example     run one of the built-in worked examples (4.1 / 4.2 / 4.3 / 4.4)
  pairsearch  run the amalgam pair search
  aut         automorphism group of a graph file
  altgraph    alternating-cycle analysis of a HAT action

Exit codes: 0 all asserted facts pass; 2 partial or flagged verification;
1 hard error.  ``example all --jobs N`` runs the examples in N worker
processes (default 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .examples import RUNNERS, run_example_42, search_ex42_witness
from .graphauto import automorphism_group
from .graphs import Graph, VertexAction
from .group import read_group_file, write_group_file
from .pairsearch import search_amalgam, verify_pair_result


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _default_witness_path():
    """The shipped example-4.2 witness file, or None when it is absent."""
    path = os.path.join(os.path.dirname(__file__), "data", "ex42_witness.json")
    return path if os.path.exists(path) else None


def _run_one(name):
    if name == "4.2":
        return run_example_42(witness_path=_default_witness_path())
    return RUNNERS[name]()


def cmd_example(args):
    name = args.which
    if name == "all":
        names = sorted(RUNNERS)
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                reports = list(pool.map(_run_one, names))
        else:
            reports = [_run_one(n) for n in names]
        worst = 0
        payload = {}
        for rep in reports:
            payload[rep.example] = rep.as_dict()
            status = "PASS" if rep.passed else "FAIL"
            print("example %s: %s in %.1fs" % (rep.example, status, rep.seconds))
            if not rep.passed:
                worst = 2
        if args.json:
            _write_json(args.json, payload)
        return worst
    if name == "4.2" and args.witness is not None:
        report = run_example_42(witness_path=args.witness)
    elif name == "4.2" and args.budget and _default_witness_path() is None:
        report = run_example_42(witness=search_ex42_witness(budget=args.budget))
    else:
        report = _run_one(name)
    if args.json:
        _write_json(args.json, report.as_dict())
    for fact in report.facts:
        mark = "ok " if fact.ok else "FAIL"
        print("%s  %-40s expected=%r computed=%r" % (mark, fact.name, fact.expected, fact.computed))
    for key, value in sorted(report.extras.items()):
        print("     %-40s %r" % (key, value))
    print("example %s: %s in %.1fs" % (name, "PASS" if report.passed else "FAIL", report.seconds))
    if report.passed:
        return 0
    return 2


def cmd_pairsearch(args):
    def prog(stage, info):
        if args.verbose:
            print("  [%s] %s" % (stage, info), file=sys.stderr)

    outcome = search_amalgam(
        args.amalgam, deep=args.deep, time_budget=args.budget, progress=prog
    )
    payload = {
        "amalgam": outcome.amalgam,
        "complete": outcome.complete,
        "count": len(outcome.results),
        "stats": outcome.stats,
        "results": [],
    }
    for res in outcome.results:
        entry = res.as_dict()
        if args.verify:
            entry["verification"] = verify_pair_result(res)
            entry["verified"] = True
        payload["results"].append(entry)
    if args.json:
        _write_json(args.json, payload)
    print(
        "amalgam %s: %d results%s"
        % (outcome.amalgam, len(outcome.results), "" if outcome.complete else " (incomplete)")
    )
    for res in outcome.results:
        print("  n=%d quadruple=%s" % (res.n, list(res.quadruple)))
    return 0 if outcome.complete else 2


def cmd_aut(args):
    with open(args.graph) as fh:
        graph = Graph.from_text(fh.read())
    A = automorphism_group(graph)
    out = write_group_file(A)
    if args.gens_out:
        with open(args.gens_out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    print("order %d" % A.order())
    return 0


def cmd_altgraph(args):
    from .altcycles import alternating_cycle_system, alternating_graph, hat_orientation
    from .symmetry import transitivity_report

    with open(args.graph) as fh:
        graph = Graph.from_text(fh.read())
    with open(args.subgroup) as fh:
        M = read_group_file(fh.read())
    action = VertexAction(M, graph)
    ori = hat_orientation(action)
    system = alternating_cycle_system(ori)
    payload = {
        "cycleCount": system.count,
        "radius": system.radius,
        "attachment": system.attachment,
    }
    if system.count >= 2:
        alt, alt_action, _ = alternating_graph(action, system)
        payload["altGraph"] = alt.to_text()
        aut_alt = automorphism_group(alt, transitive_seed=alt_action.group if alt_action.group.is_transitive() else None)
        payload["altAutOrder"] = str(aut_alt.order())
        if alt.is_connected():
            try:
                payload["altTransitivity"] = transitivity_report(
                    VertexAction(aut_alt, alt)
                ).as_dict()
            except ValueError as exc:
                # tiny cycle-like quotients are s-arc-transitive beyond the cap
                payload["altTransitivity"] = {"note": str(exc)}
    if args.json:
        _write_json(args.json, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_witness42(args):
    witness = search_ex42_witness(budget=args.budget, verbose=True)
    if witness is None:
        print("no witness found within budget", file=sys.stderr)
        return 2
    _write_json(args.out, witness)
    print("witness written to %s" % args.out)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="hatlab")
    sub = ap.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("example", help="run a worked example")
    ex.add_argument("which", choices=sorted(RUNNERS) + ["all"])
    ex.add_argument("--json", help="write the report to this path ('-' for stdout)")
    ex.add_argument("--witness", help="witness file for example 4.2")
    ex.add_argument("--budget", type=float, default=None, help="seconds for witness search")
    ex.add_argument("--jobs", type=int, default=1, help="parallel example workers (default 1)")
    ex.set_defaults(func=cmd_example)

    ps = sub.add_parser("pairsearch", help="amalgam pair search")
    ps.add_argument("--amalgam", required=True)
    ps.add_argument("--deep", action="store_true")
    ps.add_argument("--budget", type=float, default=None)
    ps.add_argument("--json")
    ps.add_argument("--verify", action="store_true", help="verify results on the coset graph when feasible")
    ps.add_argument("--verbose", action="store_true")
    ps.set_defaults(func=cmd_pairsearch)

    au = sub.add_parser("aut", help="graph automorphism group")
    au.add_argument("graph")
    au.add_argument("--gens-out")
    au.set_defaults(func=cmd_aut)

    ag = sub.add_parser("altgraph", help="alternating-cycle analysis")
    ag.add_argument("--graph", required=True)
    ag.add_argument("--subgroup", required=True, help="HAT subgroup file")
    ag.add_argument("--json")
    ag.set_defaults(func=cmd_altgraph)

    wt = sub.add_parser("witness42", help="regenerate the example-4.2 witness")
    wt.add_argument("--budget", type=float, default=3600.0)
    wt.add_argument("--out", default="ex42_witness.json")
    wt.set_defaults(func=cmd_witness42)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
