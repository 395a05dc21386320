#!/usr/bin/env bash
# Golden-output gate: re-runs the byte-stable outputs of the pipeline and
# compares them with tests/golden/manifest.txt.
#
#   * `deepburning report {ann0,cmac,mnist} x {small,medium,large} --vcd FILE`:
#     the sha256 of report.json and of the streamed control-top VCD;
#   * `dbbench run --smoke --seed 1`: the four workloads' sim_digests.
#
# Each VCD (about 210 MB for MNIST) is hashed and deleted before the next
# cell runs. Any difference fails the script and prints the moved entries.
#
# Usage: tests/golden/check.sh           compare against the manifest
#        tests/golden/check.sh --write   rewrite the manifest from this tree
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
manifest="$root/tests/golden/manifest.txt"
work="$root/target/golden"
write=false
case "${1:-}" in
  "") ;;
  --write) write=true ;;
  *) echo "usage: $0 [--write]" >&2; exit 2 ;;
esac

cd "$root"
cargo build --release -q --bin deepburning
cargo build --release -q -p deepburning-perfbench --bin dbbench
rm -rf "$work"
mkdir -p "$work"
actual="$work/manifest.txt"
start=$(date +%s)
{
  echo "# Golden outputs; regenerate with tests/golden/check.sh --write."
  for bench in ann0 cmac mnist; do
    for budget in small medium large; do
      out="$work/$bench-$budget"
      ./target/release/deepburning report "$bench" --budget "$budget" --out "$out" \
        --vcd "$out/control.vcd" >"$out.log"
      echo "report $bench $budget $(sha256sum <"$out/report.json" | cut -d' ' -f1)"
      echo "vcd $bench $budget $(sha256sum <"$out/control.vcd" | cut -d' ' -f1)"
      rm "$out/control.vcd"
    done
  done
  ./target/release/dbbench run --smoke --seed 1 >"$work/smoke.log"
  # The summary table's header row (`metric unit <workload>...`) names
  # the columns of its `sim_digest` row.
  read -r -a names < <(awk '$1 == "metric" && $2 == "unit" { $1 = $2 = ""; print }' "$work/smoke.log")
  read -r -a digests < <(awk '$1 == "sim_digest" { $1 = ""; print }' "$work/smoke.log")
  if [ "${#names[@]}" -eq 0 ] || [ "${#digests[@]}" -ne "${#names[@]}" ]; then
    echo "dbbench smoke printed ${#digests[@]} sim_digests for ${#names[@]} workloads" >&2
    exit 1
  fi
  for i in "${!names[@]}"; do
    echo "smoke ${names[$i]} ${digests[$i]}"
  done
} >"$actual"
echo "golden outputs computed in $(( $(date +%s) - start ))s"

if $write; then
  cp "$actual" "$manifest"
  echo "wrote $manifest"
elif diff -u "$manifest" "$actual"; then
  echo "golden outputs match $manifest ($(grep -vc '^#' "$manifest") entries)"
else
  echo "golden outputs differ from $manifest (- committed, + this tree)" >&2
  exit 1
fi
