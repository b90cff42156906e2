#!/usr/bin/env python3
"""Write the bundled communication-interface fixture to disk.

Produces model.ucm, degradation.scn, failover.scn and comm.cfg so the
CLI can be driven against real files. `--peers N` sets the PeerCI
multiplicity of the model and the peer count of both scenarios:

    python3 scripts/make_fixture.py --out fixture/
    viewcase simulate --model fixture/model.ucm --scenario fixture/degradation.scn
"""

import argparse
from pathlib import Path

from viewcase.comm import DEFAULT_CONFIG, render_comm_config
from viewcase.fixture import FIXTURE_MODEL, degradation_scenario, failover_scenario, scale_peers
from viewcase.model import parse_model, render_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="fixture", help="target directory")
    parser.add_argument("--peers", type=int, default=6, help="peer interface count")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "model.ucm": render_model(scale_peers(parse_model(FIXTURE_MODEL), args.peers)),
        "degradation.scn": degradation_scenario(peers=args.peers),
        "failover.scn": failover_scenario(peers=args.peers),
        "comm.cfg": render_comm_config(DEFAULT_CONFIG),
    }
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
        print(f"wrote {out / name}")


if __name__ == "__main__":
    main()
