"""Quickstart for the ``repro.api`` session layer.

Runs the Fig. 6a scenario twice — once through the one-shot ``api.run``
helper and once through an explicit ``Session`` shared with Fig. 6b (which
then reuses the already-computed settings) — and shows the structured
``RunReport`` round-trip.

Run from the repository root:

    PYTHONPATH=src python examples/api_quickstart.py
"""

from __future__ import annotations

from repro.api import RunConfig, RunReport, Session, list_scenarios, run


def main() -> None:
    print("registered scenarios:")
    for spec in list_scenarios():
        print(f"  {spec.scenario_id:<16} {spec.title}")
    print()

    # One-shot: run a scenario under a declarative config.
    config = RunConfig(preset="smoke")
    report = run("fig6a", config)
    print(report.text)
    print()
    print(
        f"{report.cache['points_computed']} design points computed in "
        f"{report.timings['wall_clock_seconds']:.2f} s"
    )

    # The report round-trips losslessly through JSON.
    assert RunReport.from_json(report.to_json()) == report

    # Shared session: Fig. 6b reuses the settings Fig. 6a computed.
    with Session(RunConfig(preset="smoke")) as session:
        session.run("fig6a")
        fig6b = session.run("fig6b")
    print()
    print(
        f"shared-session Fig. 6b wall clock: "
        f"{fig6b.timings['wall_clock_seconds']:.3f} s "
        f"(settings reused from Fig. 6a)"
    )


if __name__ == "__main__":
    main()
