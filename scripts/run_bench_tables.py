#!/usr/bin/env python3
"""Print the cycle-breakdown tables and end-to-end latency/energy estimates
for the default encoder under the device cost model, for both weight modes."""

import argparse

from femba import model as fm
from femba import streamsim as ss


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", help="key = value config file")
    ap.add_argument("--analytic-scan", action="store_true",
                    help="count scan MACs analytically instead of the device convention")
    args = ap.parse_args()

    if args.config:
        with open(args.config) as f:
            hier, cm, _ = ss.config_from_mapping(ss.parse_config_text(f.read()))
    else:
        hier, cm = ss.MemHierarchy(), ss.CostModel()
    if args.analytic_scan:
        import dataclasses
        cm = dataclasses.replace(cm, scan_mac_mode="analytic")

    for mode in ("w8a8", "w2a8"):
        cr = ss.run_default(fm.ModelConfig(), cm, hier, mode)
        print(f"=== {mode} ===")
        print(ss.report(cr, "text"))
        print()


if __name__ == "__main__":
    main()
