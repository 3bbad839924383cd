"""Command-line interface of the library — a thin driver over ``repro.api``.

The generic entry point runs any registered scenario:

* ``repro-ftes run <scenario>`` — execute one scenario (``fig6a`` … ``fig6d``,
  ``motivational``, ``cruise-control``) under a declarative
  :class:`~repro.api.config.RunConfig` built from the flags.
* ``repro-ftes run --list`` — list the registered scenarios.

All output is plain text (tables / ASCII bars); nothing is written to disk
unless ``--output`` is given.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.sanitizer import DeterminismSanitizer

from repro.api import RunConfig, RunReport, list_scenarios
from repro.api import run as api_run
from repro.api.config import DEFAULT_CACHE_SIZE_MB, PRESETS
from repro.core.exceptions import ModelError


def _job_count(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (1 = serial, 0 = one per CPU), got {jobs}"
        )
    return jobs


def _cache_size(value: str) -> int:
    size = int(value)
    if size < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (MiB), got {size}")
    return size


def _scenario_param(value: str) -> Tuple[str, str]:
    """Parse one ``--param key=value`` pair; validation happens at run time
    against the scenario's declared schema."""
    key, separator, raw = value.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(
            f"expected KEY=VALUE, got {value!r} (e.g. --param n_processes=100)"
        )
    return key, raw


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """Configuration flags of the generic scenario driver.

    Each flag maps 1:1 onto a :class:`RunConfig` field.
    """
    parser.add_argument(
        "--jobs",
        type=_job_count,
        default=1,
        help=(
            "worker processes for the per-application loop "
            "(1 = serial, 0 = one per CPU)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=(
            "directory of the persistent design-point cache; warm-starts "
            "repeated runs of the same sweep (results are bit-identical "
            "with or without it)"
        ),
    )
    parser.add_argument(
        "--cache-size-mb",
        type=_cache_size,
        default=DEFAULT_CACHE_SIZE_MB,
        help=(
            "size cap of the persistent cache directory in MiB; "
            "least-recently-used entries are evicted beyond it"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the preset's base seed for synthetic benchmark generation",
    )


def _config_from_arguments(arguments: argparse.Namespace) -> RunConfig:
    return RunConfig(
        cache_dir=arguments.cache_dir,
        cache_size_mb=arguments.cache_size_mb,
        jobs=arguments.jobs,
        seed=arguments.seed,
        preset=arguments.preset,
        output=arguments.output,
        scenario_params=dict(arguments.params or []),
    )


def _worker_count(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _run_serve(arguments: argparse.Namespace) -> int:
    """Build a :class:`ServeConfig` from the flags and run the server."""
    from repro.lint.sanitizer import SANITIZE_ENV, env_requests_sanitizer
    from repro.serve import DEFAULT_HOST, DEFAULT_PORT, ServeConfig, run_server

    sanitize = bool(arguments.sanitize) or env_requests_sanitizer()
    if sanitize:
        # Export the opt-in so fork-started pool workers inherit it.
        os.environ.setdefault(SANITIZE_ENV, "1")
    try:
        config = ServeConfig(
            host=arguments.host if arguments.host is not None else DEFAULT_HOST,
            port=arguments.port if arguments.port is not None else DEFAULT_PORT,
            workers=arguments.workers,
            queue_size=arguments.queue_size,
            job_timeout_seconds=arguments.job_timeout,
            spool_dir=arguments.spool_dir,
            cache_dir=arguments.cache_dir,
            cache_size_mb=arguments.cache_size_mb,
            sanitize=sanitize,
        )
    except ModelError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for role, directory in (("spool", config.spool_dir), ("cache", config.cache_dir)):
        problem = _unusable_directory(role, directory)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    return run_server(config)


def build_parser() -> argparse.ArgumentParser:
    """Create the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-ftes",
        description=(
            "Reproduction of 'Analysis and Optimization of Fault-Tolerant "
            "Embedded Systems with Hardened Processors' (DATE 2009)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run a registered scenario (generic driver over repro.api)"
    )
    run_parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario id (see --list)",
    )
    run_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list the registered scenarios and exit",
    )
    run_parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="fast",
        help="experiment size/effort preset (synthetic scenarios)",
    )
    run_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="optional path to write the structured RunReport as JSON",
    )
    run_parser.add_argument(
        "--param",
        action="append",
        type=_scenario_param,
        dest="params",
        default=None,
        metavar="KEY=VALUE",
        help=(
            "override one scenario-family parameter (repeatable); values are "
            "validated against the scenario's declared schema (see --list)"
        ),
    )
    run_parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "run under the runtime determinism sanitizer (also enabled by "
            "REPRO_SANITIZE=1): records unseeded RNG use, unpicklable pool "
            "submissions, cross-process mutation, and non-JSON payload "
            "values; violations go to stderr and exit code 3"
        ),
    )
    _add_config_arguments(run_parser)
    run_parser.set_defaults(handler=_run_scenario)

    serve = subparsers.add_parser(
        "serve",
        help="run the async evaluation service (HTTP JSON API over the "
        "scenario registry; see `python -m repro.serve --help`)",
    )
    serve.add_argument(
        "--host", default=None, help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (default 8321; 0 = ephemeral, printed on startup)",
    )
    serve.add_argument(
        "--workers",
        type=_worker_count,
        default=2,
        help="job worker processes sharing the warm store (default 2)",
    )
    serve.add_argument(
        "--queue-size",
        type=_worker_count,
        default=16,
        metavar="N",
        help="bounded job queue capacity; beyond it POST /jobs returns "
        "429 with Retry-After (default 16)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout; exceeded jobs are recorded "
        "as failed (default: unbounded)",
    )
    serve.add_argument(
        "--spool-dir",
        type=Path,
        default=None,
        help="directory for per-job event spools and the shared store "
        "(default: a fresh temp directory)",
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="shared design-point store directory (default: <spool>/store)",
    )
    serve.add_argument(
        "--cache-size-mb",
        type=_cache_size,
        default=DEFAULT_CACHE_SIZE_MB,
        help="size cap of the shared store in MiB",
    )
    serve.add_argument(
        "--sanitize",
        action="store_true",
        help="install the runtime determinism sanitizer in every job "
        "worker (also enabled by REPRO_SANITIZE=1); jobs recording "
        "violations are failed",
    )
    serve.set_defaults(handler=_run_serve)

    # Listed for ``--help`` only: ``main`` hands every ``lint`` argv to the
    # repro.lint CLI before argparse runs.
    subparsers.add_parser(
        "lint",
        help="AST invariant checker: fingerprint purity, kernel contracts, "
        "structure tokens, seeded RNGs (see `repro-ftes lint --help`)",
        add_help=False,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    arg_list = list(argv) if argv is not None else sys.argv[1:]
    if arg_list and arg_list[0] == "lint":
        # Dispatched before argparse: the lint CLI owns its flags.
        from repro.lint.cli import main as lint_main

        return lint_main(arg_list[1:])
    parser = build_parser()
    arguments = parser.parse_args(arg_list)
    return arguments.handler(arguments)


# ----------------------------------------------------------------------
# Generic scenario driver
# ----------------------------------------------------------------------
def _unusable_path(config: RunConfig) -> Optional[str]:
    """Why the run could not write its report or open its store, if it could not.

    Checked before the scenario runs, so a bad path costs no work and is a
    usage error (exit 2) rather than a traceback after the run.
    """
    output = config.output
    if output is not None:
        parent = output.parent
        if output.is_dir() or not parent.is_dir() or not os.access(parent, os.W_OK):
            return f"cannot write the report to {output}: {parent} is not a writable directory"
    return _unusable_directory("cache", config.cache_dir)


def _unusable_directory(role: str, directory: Optional[Path]) -> Optional[str]:
    """Why ``directory`` could not be created, if it could not."""
    if directory is None:
        return None
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        return f"cannot use the {role} directory {directory}: {error.strerror}"
    return None


def _print_engine_counters(report: RunReport) -> None:
    cache = report.cache
    print(
        f"evaluation engine: {cache['points_computed']} design points computed "
        f"({cache['search_evaluations']} mapping evaluations), "
        f"{cache['hits']} cache hits / {cache['misses']} misses "
        f"(hit rate {cache['hit_rate'] * 100.0:.1f}%)"
    )
    cache_dir = report.config.cache_dir
    if cache_dir is not None:
        print(
            f"persistent store ({cache_dir}): "
            f"{cache['disk_entries_loaded']} entries warm-loaded, "
            f"{cache['disk_hits']} disk-cache hits"
        )


def _run_scenario(arguments: argparse.Namespace) -> int:
    if arguments.list_scenarios:
        print("registered scenarios:")
        for spec in list_scenarios():
            figure = f" [{spec.figure}]" if spec.figure else ""
            print(f"  {spec.scenario_id:<16} {spec.title}{figure}")
            for param in spec.params:
                description = f"  {param.description}" if param.description else ""
                print(f"    --param {param.describe()}{description}")
        return 0
    if arguments.scenario is None:
        print("error: a scenario id is required (or --list)", file=sys.stderr)
        return 2
    sanitizer = _maybe_sanitizer(arguments)
    try:
        config = _config_from_arguments(arguments)
        problem = _unusable_path(config)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
        if sanitizer is not None:
            with sanitizer:
                report = api_run(arguments.scenario, config)
        else:
            report = api_run(arguments.scenario, config)
    except ModelError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.text)
    print()
    _print_engine_counters(report)
    print(
        f"scenario {report.scenario}: "
        f"{report.timings['wall_clock_seconds']:.2f} s wall clock"
    )
    if arguments.output is not None:
        print(f"report written to {arguments.output}")
    if sanitizer is not None:
        from repro.lint.sanitizer import print_report

        print_report(sanitizer)
        if sanitizer.violations:
            return 3
    return 0


def _maybe_sanitizer(
    arguments: argparse.Namespace,
) -> Optional["DeterminismSanitizer"]:
    """A fresh :class:`DeterminismSanitizer` when requested, else ``None``.

    Deliberately *not* a :class:`RunConfig` field: the sanitizer is an
    observer, not an experiment parameter, and keeping it out of the config
    preserves the lossless config round-trip in report JSON and goldens.
    """
    from repro.lint.sanitizer import (
        SANITIZE_ENV,
        DeterminismSanitizer,
        env_requests_sanitizer,
    )

    if getattr(arguments, "sanitize", False) or env_requests_sanitizer():
        # Export the env opt-in so pool workers (fresh processes) install
        # their own child-side sanitizer in _init_worker.
        os.environ.setdefault(SANITIZE_ENV, "1")
        return DeterminismSanitizer()
    return None


if __name__ == "__main__":  # pragma: no cover - manual invocation only
    sys.exit(main())
