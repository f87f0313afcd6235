#!/usr/bin/env bash
# Builds the ledger and lia_cli from source, then measures one workload:
#
#   bash bench/ledger/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Progress and check failures go to
# stderr; the last line of stdout is the run's JSON summary. Traces and
# per-op results are written under _ledger/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bench/ledger/dune ]; then
  echo "bench.sh: run this from the root of a netloss source tree" >&2
  exit 2
fi

# keep every build product inside the tree
export DUNE_CACHE=disabled
dune build --root . --display quiet @bench/ledger/bench-build 1>&2

exec ./_build/default/bench/ledger/ledger.exe bench \
  --cli ./_build/install/default/bin/lia_cli "$@"
