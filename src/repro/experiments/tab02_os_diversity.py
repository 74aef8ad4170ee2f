"""Table 2 — OS diversity in Windows Azure and Amazon EC2.

The Azure column is the synthetic dataset's census (it must reproduce the
paper's numbers exactly — the OS mix is a dataset input); the EC2 column is
the paper's reported reference data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import TextTable
from ..vmi import AZURE_CENSUS, EC2_CENSUS
from ..common.report import ReportBase
from .context import ExperimentContext, default_context
from .registry import register

__all__ = ["Tab02Result", "run", "render"]

EXPERIMENT_ID = "tab02"


@dataclass(frozen=True)
class Tab02Result(ReportBase):
    azure_measured: dict[str, int]
    azure_expected: dict[str, int]
    ec2_reference: dict[str, int]

    @property
    def matches_paper(self) -> bool:
        return all(
            self.azure_measured.get(k, 0) == v for k, v in self.azure_expected.items()
        )


@register(EXPERIMENT_ID, "Table 2: OS diversity census")
def run(ctx: ExperimentContext | None = None) -> Tab02Result:
    """Compute this experiment's data points (see module docstring)."""
    ctx = ctx or default_context()
    return Tab02Result(
        azure_measured=ctx.catalog().census(),
        azure_expected=dict(AZURE_CENSUS),
        ec2_reference=dict(EC2_CENSUS),
    )


def render(result: Tab02Result) -> str:
    """Render the paper-style table/series for this experiment."""
    table = TextTable(
        "Table 2: OS diversity in Windows Azure and Amazon EC2",
        ["OS distribution", "Windows Azure", "Amazon EC2"],
    )
    for name in result.azure_expected:
        table.add_row(name, result.azure_measured.get(name, 0),
                      result.ec2_reference.get(name, 0))
    table.add_row("Total", sum(result.azure_measured.values()),
                  sum(result.ec2_reference.values()))
    status = "matches the paper" if result.matches_paper else "MISMATCH"
    return table.render() + f"\n(census {status})"
