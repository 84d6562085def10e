"""Golden RoLAG search decisions on two fixed corpora.

Every job of the Angha slice (``corpus_jobs(60, seed=7)``) and of the
151 TSVC kernels unrolled x8 under ``fast_math`` is run through
``optimize_one``.  Per job the record keeps the search counters, the
node-kind histogram of what rolled, and the sha256 of the optimized IR.
A speed change to the search must reproduce these exactly; a difference
is a behaviour change, not a new baseline.

Regenerate (only when a decision change is intended)::

    PYTHONPATH=src python tests/decision_pin.py > tests/decision_pin.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Dict, List

from repro.bench import tsvc
from repro.bench.structcache import corpus_jobs
from repro.driver.core import optimize_one
from repro.driver.types import FunctionJob
from repro.ir import print_module
from repro.rolag import RolagConfig


def _record(job: FunctionJob, config: RolagConfig) -> Dict[str, object]:
    result = optimize_one(job, config=config)
    return {
        "attempted": result.attempted,
        "schedule_rejected": result.schedule_rejected,
        "unprofitable": result.unprofitable,
        "rolag_rolled": result.rolag_rolled,
        "node_counts": dict(sorted(result.node_counts.items())),
        "ir_sha256": hashlib.sha256(
            result.optimized_ir.encode("utf-8")
        ).hexdigest(),
    }


def collect() -> Dict[str, Dict[str, Dict[str, object]]]:
    """``{corpus: {job name: record}}`` for both pinned corpora."""
    angha = {
        job.name: _record(job, RolagConfig())
        for job in corpus_jobs(60, seed=7)
    }
    tsvc_config = RolagConfig(fast_math=True)
    kernels: Dict[str, Dict[str, object]] = {}
    for name in tsvc.kernel_names():
        job = FunctionJob(
            name=name,
            ir_text=print_module(tsvc.build_unrolled_kernel(name, 8)),
        )
        kernels[name] = _record(job, tsvc_config)
    return {"angha": angha, "tsvc_x8": kernels}


def dump(data: Dict[str, Dict[str, Dict[str, object]]]) -> str:
    """One job per line, so a diff of the file names the moved jobs."""
    lines: List[str] = ["{"]
    corpora = list(data.items())
    for c, (corpus, jobs) in enumerate(corpora):
        lines.append(f"  {json.dumps(corpus)}: {{")
        items = list(jobs.items())
        for j, (name, record) in enumerate(items):
            comma = "," if j + 1 < len(items) else ""
            lines.append(
                f"    {json.dumps(name)}: {json.dumps(record, sort_keys=True)}"
                f"{comma}"
            )
        lines.append("  }" + ("," if c + 1 < len(corpora) else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(dump(collect()))
