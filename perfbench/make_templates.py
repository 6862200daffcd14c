#!/usr/bin/env python3
"""Write data/templates.json, the proof templates the proofs workload
instantiates.

The templates are the derivations ``box_k(p0, p1)`` (LPBox, 48 lines),
``nabla_h(p0, p1)`` and ``nabla_top`` (LNabla) as ``plausible.derivations``
builds them.  They are committed, so the benchmark's inputs do not change
when the derivations do.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_templates.py
"""

import json
from pathlib import Path

from plausible.derivations import ProofBuilder, box_k, nabla_h, nabla_top
from plausible.proofs import SystemId, proof_to_data
from plausible.syntax import Atom


def template(system, derive) -> dict:
    b = ProofBuilder(system)
    return {"lines": proof_to_data(b.build(derive(b)))["lines"]}


def main() -> None:
    p0, p1 = Atom(0), Atom(1)
    templates = {
        "box_k": template(SystemId.LPBOX, lambda b: box_k(b, p0, p1)),
        "nabla_h": template(SystemId.LNABLA, lambda b: nabla_h(b, p0, p1)),
        "nabla_top": template(SystemId.LNABLA, nabla_top),
    }
    out = Path(__file__).resolve().parent / "data" / "templates.json"
    out.write_text(json.dumps(templates, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
