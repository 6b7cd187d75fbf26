"""The unified ``repro`` command-line interface.

``repro run`` (also ``python -m repro run``) regenerates paper artifacts
through the parallel sweep runner::

    repro run --artifacts fig10,fig13 --jobs 4 --format json --out results/
    repro run --spec specs/default.yaml --shard 2/3

Every artifact's ASCII report is printed to stdout (the reproduction
log); ``--format json|csv`` additionally writes machine-readable results
under ``--out`` together with a ``manifest.json`` of per-artifact
statistics.  A failing artifact never aborts the sweep: the failure is
reported, the remaining artifacts still run, and the exit status is
nonzero.  ``repro list`` shows the registered artifacts.

Declarative specs (``specs/*.yaml``) get their own verbs: ``validate``
(schema + knob/registry cross-checks), ``plan`` (points, cache hits,
estimated runtime — without running), ``diff`` (semantic delta between
two specs), and ``hash`` (content address + lockfile drift gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from repro.analysis.report import results_dir, write_csv, write_json
from repro.experiments.common import default_jobs
from repro.runner import registry
from repro.runner.cache import NullCache, ResultCache, default_cache_dir
from repro.runner.scheduler import SweepOutcome, run_sweep

_EPILOG = """\
verbs:
  run        execute artifact sweeps (ad-hoc --artifacts or --spec, with
             optional --shard k/N slicing into a shared result cache)
  list       describe every registered artifact
  profile    host-time layer breakdown of one artifact
  validate   schema- and cross-check experiment specs (file:line errors)
  plan       preview a spec: points, cache hits, estimated runtime
  diff       semantic delta between two specs
  hash       spec content address + run fingerprint; --check gates
             specs/HASHES.json like the KNOBS.md drift gate
  serve      long-running HTTP service: async job queue + SQL result
             store (submissions dedupe by run fingerprint)
  submit     send an artifact or spec to a running service
  query      read-only SQL over the service's result store

Specs are documented in docs/EXPERIMENTS.md; knobs in docs/KNOBS.md;
the service in docs/SERVICE.md."""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's artifacts (tables and figures).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run artifact sweeps (parallel, cached)")
    run.add_argument(
        "--artifacts", default="all",
        help="comma-separated artifact ids or globs ('fig1*'), or 'all'"
             f" (known: {', '.join(registry.ARTIFACT_ORDER)})")
    run.add_argument(
        "--spec", default=None, metavar="FILE",
        help="run a declarative experiment spec (specs/*.yaml) instead"
             " of --artifacts")
    run.add_argument(
        "--shard", default=None, metavar="K/N",
        help="with --spec: evaluate only the k-th of N deterministic"
             " point slices into the shared cache (no combine); merge by"
             " re-running the spec unsharded over the same cache")
    run.add_argument(
        "--jobs", type=int, default=default_jobs(), metavar="N",
        help="worker processes per sweep (default: $REPRO_JOBS or 1)")
    run.add_argument(
        "--format", choices=("ascii", "json", "csv"), default="ascii",
        help="machine-readable output written under --out"
             " (ascii prints the reports only)")
    run.add_argument(
        "--out", default=None, metavar="DIR",
        help="output directory for json/csv results"
             " (default: $REPRO_RESULTS_DIR or results/)")
    run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="point-result cache directory"
             " (default: $REPRO_CACHE_DIR or .repro-cache/)")
    run.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point; do not read or write the cache")
    run.add_argument(
        "--full", action="store_true",
        help="paper-scale sweeps (each sweep's paper_overrides under"
             " the run's own overrides)")
    run.add_argument(
        "--quiet", action="store_true",
        help="suppress the ASCII reports (progress lines only)")
    run.add_argument(
        "--list", action="store_true", dest="list_artifacts",
        help="list the registered artifacts (with descriptions and"
             " default runtimes) instead of running anything")

    lst = sub.add_parser(
        "list",
        help="list registered artifacts with descriptions and runtimes")
    lst.add_argument("--verbose", action="store_true",
                     help="include implementing module and point counts")

    prof = sub.add_parser(
        "profile",
        help="host-time layer breakdown (trace gen / cache / SMC / device)")
    prof.add_argument(
        "--artifact", default="fig08",
        help="experiment artifact to profile (default: fig08)")
    prof.add_argument(
        "--full", action="store_true",
        help="profile the artifact's paper-scale point set")
    prof.add_argument(
        "--json", action="store_true", help="emit the breakdown as JSON")

    val = sub.add_parser(
        "validate",
        help="schema-check experiment specs and cross-check them against"
             " the artifact registry and knob inventory")
    val.add_argument("specs", nargs="+", metavar="SPEC",
                     help="spec files (specs/*.yaml)")

    plan = sub.add_parser(
        "plan",
        help="preview a spec: enumerated points, cache hits, and"
             " estimated runtime, without running anything")
    plan.add_argument("spec", metavar="SPEC", help="spec file to plan")
    plan.add_argument(
        "--shard", default=None, metavar="K/N",
        help="plan one deterministic shard slice instead of the full run")
    plan.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache to probe for hits (default: $REPRO_CACHE_DIR or"
             " .repro-cache/)")
    plan.add_argument(
        "--full", action="store_true",
        help="plan the paper-scale sweeps (as `repro run --full`)")
    plan.add_argument(
        "--json", action="store_true", help="emit the plan as JSON")

    dif = sub.add_parser(
        "diff", help="semantic delta between two experiment specs"
                     " (exit 1 when they differ)")
    dif.add_argument("spec_a", metavar="SPEC_A", help="old spec file")
    dif.add_argument("spec_b", metavar="SPEC_B", help="new spec file")

    hsh = sub.add_parser(
        "hash",
        help="content addresses of experiment specs; --check fails on"
             " stale specs/HASHES.json entries (like the KNOBS.md gate)")
    hsh.add_argument("specs", nargs="+", metavar="SPEC",
                     help="spec files (specs/*.yaml)")
    mode = hsh.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="verify the recorded hashes match; do not write")
    mode.add_argument(
        "--update", action="store_true",
        help="rewrite the HASHES.json lockfile(s) next to the specs")
    hsh.add_argument(
        "--json", action="store_true", help="emit the hashes as JSON")

    srv = sub.add_parser(
        "serve",
        help="run the persistent simulation service (HTTP job queue"
             " over an SQLite result store)")
    srv.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: loopback only)")
    srv.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="port to listen on (default: $REPRO_SERVE_PORT or 8642;"
             " 0 picks an ephemeral port)")
    srv.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="job-queue worker threads"
             " (default: $REPRO_SERVE_WORKERS or 2)")
    srv.add_argument(
        "--store", default=None, metavar="FILE",
        help="result-store database file (default: $REPRO_SERVE_STORE"
             " or .repro-serve/results.db)")
    srv.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request to stderr")

    sbm = sub.add_parser(
        "submit",
        help="submit an artifact or spec to a running `repro serve`")
    sbm.add_argument(
        "--url", default=None, metavar="URL",
        help="service base URL (default: $REPRO_SERVE_URL or"
             " http://127.0.0.1:8642)")
    sbm.add_argument(
        "--artifact", default=None, metavar="ID",
        help="artifact id to run (see `repro list`)")
    sbm.add_argument(
        "--spec", default=None, metavar="FILE",
        help="spec file to submit (its YAML text is posted)")
    sbm.add_argument(
        "--overrides", default=None, metavar="JSON",
        help="JSON object of point-builder overrides,"
             " e.g. '{\"sizes\": [8192]}'")
    sbm.add_argument(
        "--point", action="append", default=None, metavar="ID",
        help="run only this point id (repeatable); the response carries"
             " per-point values instead of the combined artifact")
    sbm.add_argument(
        "--no-wait", action="store_true",
        help="return the job id immediately instead of blocking for"
             " the payload")
    sbm.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="seconds to wait for completion (with the default"
             " blocking submit)")
    sbm.add_argument(
        "--json", action="store_true",
        help="print the raw response JSON (including the payload)")

    qry = sub.add_parser(
        "query",
        help="read-only SQL over a running service's result store")
    qry.add_argument("sql", metavar="SQL",
                     help="a single SELECT-shaped statement, e.g."
                          " \"SELECT artifact, count(*) FROM points"
                          " GROUP BY artifact\"")
    qry.add_argument(
        "--url", default=None, metavar="URL",
        help="service base URL (default: $REPRO_SERVE_URL or"
             " http://127.0.0.1:8642)")
    qry.add_argument(
        "--json", action="store_true",
        help="emit {columns, rows} as JSON instead of an ASCII table")
    return parser


def _profile_command(args: argparse.Namespace) -> int:
    from repro.profiling.characterize import layer_breakdown_for_artifact

    try:
        breakdown = layer_breakdown_for_artifact(args.artifact,
                                                 full=args.full)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(breakdown, indent=2))
        return 0
    total = breakdown["total_s"]
    print(f"host-time layer breakdown — {args.artifact}"
          f" ({breakdown['point_id']}, {total:.3f}s total)")
    for layer in ("trace_gen", "cache", "smc", "device", "kernel", "other"):
        seconds = breakdown[f"{layer}_s"]
        share = 100.0 * seconds / total if total else 0.0
        print(f"  {layer:10s} {seconds:8.3f}s  {share:5.1f}%")
    fallbacks = breakdown.get("kernel_fallbacks") or {}
    for reason, count in sorted(fallbacks.items(), key=lambda kv: -kv[1]):
        print(f"  kernel fallback: {reason} ({count} serves)")
    return 0


def _select_artifacts(selector: str) -> list[str]:
    """Expand a comma-separated list of ids and globs, in given order."""
    if selector.strip().lower() in ("all", ""):
        return list(registry.all_specs())
    names: list[str] = []
    for token in selector.split(","):
        token = token.strip()
        if not token:
            continue
        for name in registry.resolve(token):  # KeyError: did-you-mean
            if name not in names:
                names.append(name)
    return names


def _print_outcome(args: argparse.Namespace, out_dir: str, spec,
                   outcome: SweepOutcome) -> None:
    """Report one finished sweep (full, partial, or failed) to the user."""
    if not outcome.ok:
        print(f"\nFAILED {spec.artifact}: see stderr\n")
        print(f"--- {spec.artifact} failed "
              f"({spec.module}) ---\n{outcome.error}", file=sys.stderr)
        return
    if outcome.partial:
        print(f"[{spec.title}: partial, {outcome.selected}/{outcome.points}"
              f" points evaluated ({outcome.cache_hits} cached),"
              f" {outcome.seconds:.1f}s — no combine]\n")
        return
    if not args.quiet:
        print(spec.report(outcome.result))
    print(f"\n[{spec.title}: {outcome.points} points,"
          f" {outcome.cache_hits} cached,"
          f" {outcome.seconds:.1f}s]\n")
    _write_outputs(args, out_dir, spec, outcome)


def _run_command(args: argparse.Namespace) -> int:
    from repro.specs import run_scale

    if args.list_artifacts:
        return _list_command(argparse.Namespace(verbose=False))
    if args.spec is not None:
        return _run_spec_command(args)
    if args.shard is not None:
        print("error: --shard requires --spec (shards are deterministic"
              " slices of a spec's point enumeration)", file=sys.stderr)
        return 2
    try:
        artifacts = _select_artifacts(args.artifacts)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    cache = NullCache() if args.no_cache else ResultCache(
        args.cache_dir or default_cache_dir())
    out_dir = args.out or results_dir()

    outcomes: list[SweepOutcome] = []
    for name in artifacts:
        spec = registry.get(name)
        print("=" * 72)
        print(f"{spec.title} ({spec.module})")
        print("=" * 72)
        outcome = run_sweep(spec, jobs=args.jobs, cache=cache,
                            overrides=spec.run_overrides(full=args.full))
        outcomes.append(outcome)
        _print_outcome(args, out_dir, spec, outcome)
    if args.format != "ascii":
        write_json(os.path.join(out_dir, "manifest.json"),
                   {"scale": run_scale(args.full),
                    "artifacts": [_manifest_entry(o) for o in outcomes]})
    return _summarize(outcomes)


def _load_compiled(path: str, full: bool = False):
    """Load + compile a spec, printing every problem; None on failure."""
    from repro.specs import SpecLoadError, SpecValidationError, \
        load_and_compile

    try:
        return load_and_compile(path, full)
    except SpecLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except SpecValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
    return None


def _parse_shard_arg(text: str) -> tuple[int, int] | None:
    from repro.specs import parse_shard

    try:
        return parse_shard(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _run_spec_command(args: argparse.Namespace) -> int:
    from repro.specs import run_fingerprint, run_scale, shard_selection, \
        spec_hash

    compiled = _load_compiled(args.spec, args.full)
    if compiled is None:
        return 2
    shard = None
    if args.shard is not None:
        shard = _parse_shard_arg(args.shard)
        if shard is None:
            return 2
        if args.no_cache:
            print("error: --shard needs the result cache (its whole"
                  " output is content-addressed partials); drop"
                  " --no-cache", file=sys.stderr)
            return 2
    cache = NullCache() if args.no_cache else ResultCache(
        args.cache_dir or default_cache_dir())
    out_dir = args.out or results_dir()
    spec_doc = compiled.spec
    selection = shard_selection(compiled, *shard) if shard else None

    outcomes: list[SweepOutcome] = []
    for entry in compiled.entries:
        sweep = entry.sweep
        if selection is not None:
            only = selection[sweep.artifact]
            do_combine = False
        else:
            only = tuple(p.point_id for p in entry.selected) \
                if entry.filtered else None
            do_combine = True
        print("=" * 72)
        print(f"{sweep.title} ({sweep.module})"
              + (f" [shard {args.shard}]" if shard else ""))
        print("=" * 72)
        outcome = run_sweep(sweep, jobs=args.jobs, cache=cache,
                            overrides=entry.overrides, only=only,
                            do_combine=do_combine)
        outcomes.append(outcome)
        _print_outcome(args, out_dir, sweep, outcome)
    manifest = {
        "spec": spec_doc.name,
        "spec_path": spec_doc.path,
        "spec_hash": spec_hash(spec_doc),
        "run_fingerprint": run_fingerprint(spec_doc, args.full),
        "scale": run_scale(args.full),
        "shard": args.shard,
        "artifacts": [_manifest_entry(o) for o in outcomes],
    }
    if shard is not None:
        index, count = shard
        manifest["points"] = {
            name: list(ids) for name, ids in selection.items()}
        path = os.path.join(out_dir,
                            f"shard-{index}-of-{count}.json")
        write_json(path, manifest)
        print(f"wrote shard manifest {path}")
    elif args.format != "ascii":
        write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return _summarize(outcomes)


def _validate_command(args: argparse.Namespace) -> int:
    rc = 0
    from repro.specs import spec_hash

    for path in args.specs:
        compiled = _load_compiled(path)
        if compiled is None:
            rc = 2
            continue
        print(f"OK {path}: spec {compiled.spec.name!r}"
              f" ({len(compiled.entries)} artifacts,"
              f" {compiled.total_points()} points,"
              f" hash {spec_hash(compiled.spec)})")
    return rc


def _plan_command(args: argparse.Namespace) -> int:
    from repro.specs import plan_spec, shard_selection

    compiled = _load_compiled(args.spec, args.full)
    if compiled is None:
        return 2
    selection = None
    if args.shard is not None:
        shard = _parse_shard_arg(args.shard)
        if shard is None:
            return 2
        selection = shard_selection(compiled, *shard)
    cache = ResultCache(args.cache_dir or default_cache_dir())
    report = plan_spec(compiled, cache, selection)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    label = (f"plan — {report['spec']} ({report['path']}),"
             f" {report['scale']} scale")
    if args.shard:
        label += f", shard {args.shard}"
    print(label)
    print(f"spec hash {report['spec_hash']}, run fingerprint"
          f" {report['run_fingerprint']}")
    print(f"{'artifact':10s} {'points':>7s} {'cached':>7s} {'to run':>7s}"
          f"  {'est':>8s}")
    for row in report["artifacts"]:
        est = f"~{row['est_seconds']:.0f}s" if row["est_seconds"] else "-"
        print(f"{row['artifact']:10s} {row['selected']:7d}"
              f" {row['cached']:7d} {row['to_run']:7d}  {est:>8s}")
    est_total = report["est_seconds"]
    est_text = f", est ~{est_total:.0f}s to run" if est_total else ""
    print(f"total: {report['total_selected']} points,"
          f" {report['total_cached']} cached,"
          f" {report['total_to_run']} to run{est_text}")
    return 0


def _diff_command(args: argparse.Namespace) -> int:
    from repro.specs import SpecLoadError, SpecValidationError, \
        diff_specs, load_spec

    specs = []
    for path in (args.spec_a, args.spec_b):
        try:
            specs.append(load_spec(path))
        except SpecLoadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except SpecValidationError as exc:
            for problem in exc.problems:
                print(f"error: {problem}", file=sys.stderr)
            return 2
    changes = diff_specs(*specs)
    if not changes:
        print(f"{args.spec_a} and {args.spec_b} are semantically"
              " identical")
        return 0
    for line in changes:
        print(line)
    return 1


def _hash_command(args: argparse.Namespace) -> int:
    # Hashing is schema-level on purpose: a spec's address must not
    # depend on which artifacts this checkout happens to register.
    from repro.specs import SpecLoadError, SpecValidationError, \
        check_hash, load_spec, run_fingerprint, spec_hash, update_hashes

    specs = []
    rc = 0
    for path in args.specs:
        try:
            specs.append(load_spec(path))
        except SpecLoadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            rc = 2
        except SpecValidationError as exc:
            for problem in exc.problems:
                print(f"error: {problem}", file=sys.stderr)
            rc = 2
    if rc:
        return rc
    if args.update:
        for lock in update_hashes(specs):
            print(f"wrote {lock}")
        return 0
    if args.check:
        problems = [p for p in (check_hash(s) for s in specs) if p]
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"{len(specs)} spec hash(es) up to date")
        return 0
    if args.json:
        print(json.dumps([{
            "path": s.path,
            "spec_hash": spec_hash(s),
            "run_fingerprint": run_fingerprint(s),
        } for s in specs], indent=2))
        return 0
    for spec in specs:
        print(f"{spec_hash(spec)}  {run_fingerprint(spec)}  {spec.path}")
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    from repro.serve import ResultStore, StoreError
    from repro.serve.server import make_server

    try:
        store = ResultStore(args.store)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = store.refresh_staleness()
    if report["points_flagged"] or report["jobs_flagged"]:
        print(f"note: flagged {report['points_flagged']} point row(s) and"
              f" {report['jobs_flagged']} job row(s) stale (computed by"
              " other source trees; still queryable)")
    server = make_server(args.host, args.port, store=store,
                         workers=args.workers, verbose=args.verbose)
    print(f"repro serve listening on {server.url}")
    print(f"  store   {store.path} ({store.backend})")
    print(f"  workers {server.queue.workers}, code fingerprint"
          f" {store.code()}")
    print("  endpoints: POST /submit, GET /status/<job>,"
          " GET /result/<job>, POST /query, GET /health")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
    return 0


def _submit_command(args: argparse.Namespace) -> int:
    from repro.serve import ServiceClient, ServiceError

    if bool(args.artifact) == bool(args.spec):
        print("error: pass exactly one of --artifact ID or --spec FILE",
              file=sys.stderr)
        return 2
    overrides = None
    if args.overrides:
        try:
            overrides = json.loads(args.overrides)
        except ValueError as exc:
            print(f"error: --overrides is not valid JSON: {exc}",
                  file=sys.stderr)
            return 2
    spec_text = None
    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as handle:
                spec_text = handle.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    client = ServiceClient(args.url, timeout=args.timeout + 30.0)
    try:
        response = client.submit(
            artifact=args.artifact, spec_text=spec_text,
            overrides=overrides, points=args.point,
            wait=None if args.no_wait else args.timeout)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(response, indent=2))
    else:
        state = response.get("state")
        source = "store cache hit" if response.get("cached") else (
            "coalesced onto an in-flight run"
            if response.get("coalesced") else "executed")
        print(f"{response.get('job_id')}: {state} ({source},"
              f" fingerprint {response.get('fingerprint')})")
        if state == "done" and "result" in response:
            print(json.dumps(response["result"], indent=2))
    if response.get("state") == "failed":
        print(f"error: job failed:\n{response.get('error')}",
              file=sys.stderr)
        return 1
    return 0


def _query_command(args: argparse.Namespace) -> int:
    from repro.serve import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        table = client.query(args.sql)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if exc.status in (0, 404) else 1
    if args.json:
        print(json.dumps(table, indent=2))
        return 0
    columns, rows = table.get("columns", []), table.get("rows", [])
    widths = [max([len(str(c))] + [len(str(r[i])) for r in rows])
              for i, c in enumerate(columns)]
    print("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    print(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return 0


def _write_outputs(args: argparse.Namespace, out_dir: str,
                   spec, outcome: SweepOutcome) -> None:
    if args.format == "json":
        write_json(os.path.join(out_dir, f"{spec.artifact}.json"),
                   _manifest_entry(outcome) | {"result": outcome.result})
    elif args.format == "csv":
        table = _csv_table(spec, outcome.result)
        if table is None:
            print(f"note: {spec.artifact}: no tabular shape for CSV;"
                  " skipped (use --format json)", file=sys.stderr)
        else:
            headers, rows = table
            write_csv(os.path.join(out_dir, f"{spec.artifact}.csv"),
                      headers, rows)


def _csv_table(spec, result: dict) -> tuple[tuple, list] | None:
    """The artifact's main table as (headers, rows), if it has one."""
    for key in ("rows", "summary_rows"):  # fig12's "rows" is a count
        if isinstance(result.get(key), list):
            rows = result[key]
            headers = spec.csv_headers or tuple(
                f"col{i}" for i in range(len(rows[0]) if rows else 0))
            return headers, rows
    series = result.get("series")
    if isinstance(series, dict):  # fig08
        sizes = result.get("sizes_kib") or result.get("sizes") or []
        return (("size_kib",) + tuple(series),
                [[size] + [series[name][i] for name in series]
                 for i, size in enumerate(sizes)])
    if isinstance(result.get("copy"), dict):  # fig10/fig11: long format
        rows = [(workload, size, name, result[workload][name][i])
                for workload in ("copy", "init")
                for name in result[workload]
                for i, size in enumerate(result["sizes"])]
        return ("workload", "size_bytes", "series", "speedup"), rows
    return None


def _manifest_entry(outcome: SweepOutcome) -> dict:
    return {
        "artifact": outcome.artifact,
        "title": outcome.title,
        "ok": outcome.ok,
        "points": outcome.points,
        "selected": outcome.selected,
        "partial": outcome.partial,
        "cache_hits": outcome.cache_hits,
        "seconds": round(outcome.seconds, 3),
        "error": (outcome.error or "").splitlines()[-1:] or None,
    }


def _summarize(outcomes: list[SweepOutcome]) -> int:
    failed = [o for o in outcomes if not o.ok]
    partial = [o for o in outcomes if o.ok and o.partial]
    total = sum(o.seconds for o in outcomes)
    points = sum(o.selected if o.partial else o.points for o in outcomes)
    hits = sum(o.cache_hits for o in outcomes)
    print("=" * 72)
    print(f"{len(outcomes)} artifacts, {points} points"
          f" ({hits} cached) in {total:.1f}s")
    if failed:
        names = ", ".join(o.artifact for o in failed)
        print(f"FAILED ({len(failed)}): {names}", file=sys.stderr)
        return 1
    if partial:
        print(f"all points evaluated ({len(partial)} partial sweeps;"
              " combine by re-running unsharded over the same cache)")
    else:
        print("all artifacts regenerated")
    return 0


def _list_command(args: argparse.Namespace) -> int:
    """One line per artifact: id, title, runtime, and description.

    The point of the listing is that nobody should have to grep
    ``experiments/`` to learn what an artifact regenerates or roughly
    how long a cold run takes.
    """
    specs = registry.all_specs()
    title_width = max(len(spec.title) for spec in specs.values())
    for name, spec in specs.items():
        runtime = spec.runtime or "?"
        line = (f"{name:10s} {spec.title:{title_width}s} {runtime:>6s}"
                f"  {spec.description}")
        print(line.rstrip())
        if args.verbose:
            points = len(spec.build_points())
            print(f"{'':10s} {points} points, {spec.module}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    commands = {
        "run": _run_command,
        "profile": _profile_command,
        "validate": _validate_command,
        "plan": _plan_command,
        "diff": _diff_command,
        "hash": _hash_command,
        "list": _list_command,
        "serve": _serve_command,
        "submit": _submit_command,
        "query": _query_command,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
